//! Feature tests of the front end: the accepted language beyond the
//! paper's normalized core.

use velus_common::{Ident, NodeId};
use velus_lustre::compile_to_nlustre;
use velus_nlustre::dataflow::run_node;
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CVal, ClightOps};

fn run_ints(src: &str, node: &str, inputs: Vec<Vec<i32>>, n: usize) -> Vec<Vec<i32>> {
    let (mut prog, _) = compile_to_nlustre::<ClightOps>(src).unwrap();
    velus_nlustre::schedule::schedule_program(&mut prog).unwrap();
    let streams: StreamSet<ClightOps> = inputs
        .into_iter()
        .map(|vs| vs.into_iter().map(|v| SVal::Pres(CVal::int(v))).collect())
        .collect();
    let root = prog.nodes.iter().position(|d| d.name == Ident::new(node));
    let outs = run_node(&prog, NodeId::new(root.unwrap()), &streams, n).unwrap();
    outs.into_iter()
        .map(|s| {
            s.into_iter()
                .map(|v| match v {
                    SVal::Pres(CVal::Int(i)) => i,
                    other => panic!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn global_constants_fold_into_expressions() {
    let src = "
        const base: int = 100;
        const step: int = 7;
        node f(x: int) returns (y: int)
        let y = base + x * step; tel
    ";
    let outs = run_ints(src, "f", vec![vec![0, 1, 2]], 3);
    assert_eq!(outs[0], vec![100, 107, 114]);
}

#[test]
fn constants_serve_as_fby_initializers() {
    let src = "
        const start: int = 42;
        node f(x: int) returns (y: int)
        let y = start fby (y + x); tel
    ";
    let outs = run_ints(src, "f", vec![vec![1, 1, 1]], 3);
    assert_eq!(outs[0], vec![42, 43, 44]);
}

#[test]
fn function_keyword_is_a_node_synonym() {
    let src = "function f(x: int) returns (y: int) let y = x * 2; tel";
    let (prog, _) = compile_to_nlustre::<ClightOps>(src).unwrap();
    assert_eq!(prog.nodes[0].name, Ident::new("f"));
}

#[test]
fn arrow_and_pre_express_the_classical_idiom() {
    // The classic integrator: n = 0 -> pre n + inc.
    let src = "node f(inc: int) returns (n: int) let n = 0 -> pre n + inc; tel";
    let outs = run_ints(src, "f", vec![vec![5, 5, 5, 5]], 4);
    assert_eq!(outs[0], vec![0, 5, 10, 15]);
}

#[test]
fn sized_integer_types_and_casts() {
    // Wrap-around at int8: 120 + 10 = -126.
    let src = "
        node f(x: int) returns (y: int8)
        let y = int8(x) + int8(10); tel
    ";
    let outs = run_ints(src, "f", vec![vec![120]], 1);
    assert_eq!(outs[0], vec![-126]);
}

#[test]
fn real_arithmetic_round_trips() {
    let src = "
        node f(x: real) returns (y: real)
        let y = (0.0 fby y) + x / 2.0; tel
    ";
    let (mut prog, _) = compile_to_nlustre::<ClightOps>(src).unwrap();
    velus_nlustre::schedule::schedule_program(&mut prog).unwrap();
    let streams: StreamSet<ClightOps> = vec![vec![
        SVal::Pres(CVal::float(1.0)),
        SVal::Pres(CVal::float(3.0)),
    ]];
    let outs = run_node(&prog, NodeId::new(0), &streams, 2).unwrap();
    assert_eq!(outs[0][1], SVal::Pres(CVal::float(2.0)));
}

#[test]
fn nodes_may_be_declared_in_any_order() {
    let src = "
        node top(x: int) returns (y: int) let y = helper(x) + 1; tel
        node helper(a: int) returns (b: int) let b = a * 3; tel
    ";
    let (prog, _) = compile_to_nlustre::<ClightOps>(src).unwrap();
    // Elaboration reorders callees first.
    assert_eq!(prog.nodes[0].name, Ident::new("helper"));
    let outs = run_ints(src, "top", vec![vec![2]], 1);
    assert_eq!(outs[0], vec![7]);
}

#[test]
fn deep_when_chains_type_check() {
    let src = "
        node f(a: bool; x: int) returns (y: int)
        var b: bool when a;
            u: int when a when b;
        let
          b = (x > 0) when a;
          u = (x + 1) when a when b;
          y = merge a (merge b u (0 when a when not b)) (0 when not a);
        tel
    ";
    let (prog, _) = compile_to_nlustre::<ClightOps>(src).unwrap();
    velus_nlustre::check::check_program(&prog).unwrap();
}

#[test]
fn whenot_and_when_not_are_interchangeable() {
    for sampler in ["when not k", "whenot k"] {
        let src = format!(
            "node f(k: bool; x: int) returns (y: int)
             let y = merge k (x when k) ((0 - x) {sampler}); tel"
        );
        let outs = run_ints(&src, "f", vec![vec![1, 0, 1], vec![5, 6, 7]], 3);
        assert_eq!(outs[0], vec![5, -6, 7]);
    }
}

#[test]
fn block_comments_nest_and_line_comments_terminate() {
    let src = "
        -- leading comment
        node f(x: int) returns (y: int)
        let
          y = x (* inline (* nested *) comment *) + 1; -- trailing
        tel
    ";
    let outs = run_ints(src, "f", vec![vec![1]], 1);
    assert_eq!(outs[0], vec![2]);
}

#[test]
fn warnings_do_not_fail_compilation() {
    let src = "node f(x: int) returns (y: int) let y = pre x; tel";
    let (_, warnings) = compile_to_nlustre::<ClightOps>(src).unwrap();
    assert_eq!(warnings.len(), 1);
    assert!(!warnings.has_errors());
}
