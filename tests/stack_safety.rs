//! Compilation depth does not grow with the number of equations in a
//! node. Obc and Clight hold statement sequences as flat blocks, so
//! typing, fusion, generation, emission, WCET analysis and `Drop` loop
//! over a node's equations instead of recursing once per equation.
//!
//! The node below is a chain `v1 = x + 1; v2 = v1 + 1; …` of
//! [`EQUATIONS`] equations. Compiled through right-nested sequences it
//! needed far more than a default 2 MiB thread stack; it must now compile
//! on the test thread itself and in a service worker.

use velus::service::{service, ServiceConfig};
use velus::{ArtifactKind, CompileOptions, CompileRequest, IoMode, IrStageKind, WcetModelKind};
use velus_common::Ident;

const EQUATIONS: usize = 10_000;

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
        .expect("step")
        .body;
    assert_eq!(step.len(), EQUATIONS + 1);
    assert_eq!(step.to_string().lines().count(), EQUATIONS + 1);
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
