//! Compilation depth does not grow with the number of equations in a
//! node. Obc and Clight hold statement sequences as flat blocks, so
//! typing, fusion, generation, emission, WCET analysis and `Drop` loop
//! over a node's equations instead of recursing once per equation.
//!
//! The node below is a chain `v1 = x + 1; v2 = v1 + 1; …` of
//! [`EQUATIONS`] equations. Compiled through right-nested sequences it
//! needed far more than a default 2 MiB thread stack; it must now compile
//! on the test thread itself and in a service worker.
//!
//! Expression depth does not grow it either past the front end: N-Lustre,
//! Obc and Clight keep expressions in flat post-order pools, and every
//! walk after elaboration loops over them. A single equation summing
//! [`TERMS`] terms, built directly as N-Lustre (the elaborator itself
//! still recurses per operator), goes through every later stage, the
//! lint, the WCET estimate, every IR dump and the whole oracle chain on
//! a service worker's 8 MiB stack.
//!
//! Lexing and parsing do not recurse at all: every nesting shape of
//! [`velus_testkit::shapes::NESTING_SHAPES`] parses at ten times the
//! depth that overflowed the old recursive-descent parser, on a 256 KiB
//! thread.

use velus::passes::StagedPipeline;
use velus::service::{service, ServiceConfig};
use velus::{ArtifactKind, CompileOptions, CompileRequest, IoMode, IrStageKind, WcetModelKind};
use velus_common::{Diagnostics, Ident, NodeId};
use velus_nlustre::ast::{Equation, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_ops::{CBinOp, CTy, ClightOps};
use velus_testkit::shapes::NESTING_SHAPES;

const EQUATIONS: usize = 10_000;

/// The stack of the parsing thread: a 32nd of a service worker's.
const SMALL_STACK_BYTES: usize = 256 * 1024;

/// The terms of the deep sum.
const TERMS: usize = 100_000;

fn chain_source(n: usize) -> String {
    let mut src = String::from("node long(x: int) returns (y: int)\nvar ");
    for i in 1..=n {
        if i > 1 {
            src.push_str(", ");
        }
        src.push_str(&format!("v{i}"));
    }
    src.push_str(": int;\nlet\n  v1 = x + 1;\n");
    for i in 2..=n {
        src.push_str(&format!("  v{i} = v{} + 1;\n", i - 1));
    }
    src.push_str(&format!("  y = v{n};\ntel\n"));
    src
}

#[test]
fn a_long_node_compiles_on_a_default_thread_stack() {
    let compiled = velus::compile(&chain_source(EQUATIONS), Some("long")).expect("compiles");
    assert_eq!(
        compiled.snlustre.nodes[compiled.root.index()].name,
        Ident::new("long")
    );
    let step = &compiled.obc_fused.classes[compiled.root.index()]
        .method(velus_obc::ast::step_name())
        .expect("step");
    assert_eq!(step.body.len(), EQUATIONS + 1);
    assert_eq!(step.body.show(&step.exprs).lines().count(), EQUATIONS + 1);
    let c = velus::emit_c(&compiled, IoMode::Volatile);
    assert!(
        c.contains(&format!("y = v{EQUATIONS};")),
        "tail of the chain"
    );
    let cycles = velus_wcet::wcet_step(
        &compiled.clight,
        compiled.root,
        velus_wcet::CostModel::CompCert,
    )
    .expect("wcet");
    assert!(cycles > EQUATIONS as u64);
}

#[test]
fn a_long_node_is_served_by_a_worker() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let kinds = vec![
        ArtifactKind::CCode,
        ArtifactKind::Wcet {
            model: WcetModelKind::CompCert,
        },
        ArtifactKind::IrDump {
            stage: IrStageKind::Obc,
        },
    ];
    let req = CompileRequest::new("long", chain_source(EQUATIONS))
        .with_root("long")
        .with_options(CompileOptions::for_kinds(kinds.clone()));
    let report = svc.compile_one(req);
    assert!(report.result.is_ok(), "{:?}", report.result.err());
    for kind in &kinds {
        assert!(report.artifact(kind).is_some(), "{kind:?}");
    }
}

/// `node deep(x: int) returns (y: int) let y = x + x + … + x; tel` with
/// `terms` terms, nested to the left (`((x + x) + x) + …`, how a parser
/// reads a flat sum) or to the right.
fn deep_sum(terms: usize, left: bool) -> Program<ClightOps> {
    let x = Ident::new("x");
    let mut ex = Exprs::new();
    let sum = if left {
        let mut e = ex.var(x, CTy::I32);
        for _ in 1..terms {
            let t = ex.var(x, CTy::I32);
            e = ex.binop(CBinOp::Add, e, t, CTy::I32);
        }
        e
    } else {
        let leaves: Vec<_> = (0..terms).map(|_| ex.var(x, CTy::I32)).collect();
        let mut e = leaves[terms - 1];
        for &t in leaves[..terms - 1].iter().rev() {
            e = ex.binop(CBinOp::Add, t, e, CTy::I32);
        }
        e
    };
    let decl = |name| VarDecl {
        name,
        ty: CTy::I32,
        ck: Clock::Base,
    };
    let y = Ident::new("y");
    let rhs = ex.simple(sum);
    Program::new(vec![Node {
        name: Ident::new("deep"),
        inputs: vec![decl(x)],
        outputs: vec![decl(y)],
        locals: vec![],
        eqs: vec![Equation::Def {
            x: y,
            ck: Clock::Base,
            rhs,
        }],
        exprs: ex,
    }])
}

/// Runs the deep sum through everything after the front end.
fn compile_deep_sum(left: bool) {
    let mut observe = |_: velus::Stage, _: std::time::Duration| {};
    let prog = deep_sum(TERMS, left);
    let mut staged =
        StagedPipeline::from_program(prog, NodeId::new(0), Diagnostics::new(), &mut observe)
            .expect("checks");
    let c = staged.emit(IoMode::Volatile).expect("emits C");
    let innermost = if left {
        "((x + x) + x)"
    } else {
        "(x + (x + x))"
    };
    assert!(c.contains(innermost), "nesting kept");
    assert!(staged.lint().expect("lints").is_empty());
    let cycles = velus_wcet::wcet_step(
        staged.clight().expect("clight"),
        NodeId::new(0),
        velus_wcet::CostModel::CompCert,
    )
    .expect("wcet");
    assert!(cycles > TERMS as u64);
    let dumps = [
        staged.nlustre().to_string(),
        staged.snlustre().expect("schedules").to_string(),
        staged.obc().expect("translates").to_string(),
        staged.obc_fused().expect("fuses").to_string(),
    ];
    for dump in &dumps {
        assert_eq!(dump.matches(" + ").count(), TERMS - 1);
    }
    let compiled = staged.into_compiled().expect("compiles");
    let inputs = velus::validate::default_inputs(&compiled, 4);
    let report = velus::run_oracles(&compiled, &inputs, 4).expect("has semantics");
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.trace_events > 0);
    drop(compiled);
}

#[test]
fn a_deep_sum_runs_every_later_stage_on_a_worker_stack() {
    std::thread::Builder::new()
        .stack_size(velus_server::WORKER_STACK_BYTES)
        .spawn(|| {
            compile_deep_sum(true);
            compile_deep_sum(false);
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");
}

#[test]
fn every_nesting_shape_parses_at_ten_times_the_old_wall_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK_BYTES)
        .spawn(|| {
            for (name, shape, wall) in NESTING_SHAPES {
                let (prog, _) = velus_lustre::parser::parse_source(&shape(10 * wall))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(prog.nodes.len(), 1, "{name}");
            }
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");
}
