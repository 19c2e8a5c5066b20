//! Parametricity of the front/middle end (§4.1): the dataflow layer, the
//! translation to Obc, the fusion optimization and the Obc interpreter
//! all run over a *different* instantiation of the operator interface —
//! the toy `I64Ops` — without touching Clight.
//!
//! This keeps honest the paper's claim that the compiler "can be
//! instantiated to any suitable language or for different variations of
//! a given language".

use velus_common::Ident;
use velus_nlustre::ast::{Equation, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_nlustre::streams::SVal;
use velus_ops::toy::{I64Ops, ToyBinOp, ToyTy, ToyVal};
use velus_ops::Ops;

fn id(s: &str) -> Ident {
    Ident::new(s)
}

/// The accumulator node over the toy interface:
/// `y = cum + x; cum = 0 fby y`.
fn toy_accumulator() -> Program<I64Ops> {
    let mut ex = Exprs::new();
    let (cum, x) = (ex.var(id("cum"), ToyTy::Int), ex.var(id("x"), ToyTy::Int));
    let sum = ex.binop(ToyBinOp::Add, cum, x, ToyTy::Int);
    let y_rhs = ex.simple(sum);
    let y = ex.var(id("y"), ToyTy::Int);
    Program::new(vec![Node {
        name: id("acc"),
        inputs: vec![VarDecl {
            name: id("x"),
            ty: ToyTy::Int,
            ck: Clock::Base,
        }],
        outputs: vec![VarDecl {
            name: id("y"),
            ty: ToyTy::Int,
            ck: Clock::Base,
        }],
        locals: vec![VarDecl {
            name: id("cum"),
            ty: ToyTy::Int,
            ck: Clock::Base,
        }],
        eqs: vec![
            Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: y_rhs,
            },
            Equation::Fby {
                x: id("cum"),
                ck: Clock::Base,
                init: ToyVal::Int(0),
                rhs: y,
            },
        ],
        exprs: ex,
    }])
}

#[test]
fn the_dataflow_layer_is_parametric() {
    let prog = toy_accumulator();
    velus_nlustre::check::check_program(&prog).unwrap();
    let inputs = vec![(1..=5).map(|v| SVal::Pres(ToyVal::Int(v))).collect()];
    let outs =
        velus_nlustre::dataflow::run_node(&prog, velus_common::NodeId::new(0), &inputs, 5).unwrap();
    let vals: Vec<i64> = outs[0]
        .iter()
        .map(|v| match v {
            SVal::Pres(ToyVal::Int(i)) => *i,
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(vals, vec![1, 3, 6, 10, 15]);
}

#[test]
fn translation_and_obc_are_parametric() {
    let mut prog = toy_accumulator();
    velus_nlustre::schedule::schedule_program(&mut prog).unwrap();
    let obc = velus_obc::translate::translate_program(&prog).unwrap();
    velus_obc::typecheck::check_program(&obc).unwrap();
    let fused = velus_obc::fusion::fuse_program(obc);

    let inputs: Vec<Option<Vec<ToyVal>>> = (1..=4).map(|v| Some(vec![ToyVal::Int(v)])).collect();
    let outs = velus_obc::sem::run_class(&fused, velus_common::NodeId::new(0), &inputs).unwrap();
    let vals: Vec<i64> = outs
        .iter()
        .map(|o| match o.as_ref().unwrap()[0] {
            ToyVal::Int(i) => i,
            ToyVal::Bool(_) => panic!("bool output"),
        })
        .collect();
    assert_eq!(vals, vec![1, 3, 6, 10]);
}

#[test]
fn the_memory_semantics_is_parametric() {
    let mut prog = toy_accumulator();
    velus_nlustre::schedule::schedule_program(&mut prog).unwrap();
    let inputs = vec![(1..=4).map(|v| SVal::Pres(ToyVal::Int(v))).collect()];
    let (outs, mem) =
        velus_nlustre::msem::run_node_with_memory(&prog, velus_common::NodeId::new(0), &inputs, 4)
            .unwrap();
    assert_eq!(outs[0].len(), 4);
    // M.values(cum) = 0, 1, 3, 6 (the pre-instant states).
    assert_eq!(
        mem.values[&id("cum")],
        vec![
            ToyVal::Int(0),
            ToyVal::Int(1),
            ToyVal::Int(3),
            ToyVal::Int(6)
        ]
    );
}

#[test]
fn the_toy_interface_satisfies_the_laws() {
    assert_ne!(I64Ops::true_val(), I64Ops::false_val());
    for c in [ToyVal::Int(3), ToyVal::Bool(true)] {
        assert!(I64Ops::well_typed(
            &I64Ops::sem_const(&c),
            &I64Ops::type_of_const(&c)
        ));
    }
}
