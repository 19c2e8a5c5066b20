//! Properties of the staged pipeline: forcing a `StagedPipeline` one
//! stage at a time — running the public checkers of every layer between
//! stages — must be observationally identical to the one-shot
//! `velus::compile` path, for the paper corpus and for randomly shaped
//! generated programs (including sub-clocked ones).

use proptest::prelude::*;

use velus::passes::StagedPipeline;
use velus::{emit_c, IoMode};
use velus_nlustre::ast::Program;
use velus_obc::ast::ObcProgram;
use velus_ops::ClightOps;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

/// The N-Lustre checks, run from outside the pipeline.
fn recheck_nlustre(prog: &Program<ClightOps>) {
    velus_nlustre::check::check_program(prog).expect("re-check typing and clocking");
}

/// The Obc checks, run from outside the pipeline.
fn recheck_obc(prog: &ObcProgram<ClightOps>) {
    velus_obc::typecheck::check_program(prog).expect("re-check Obc typing");
    for class in &prog.classes {
        for m in &class.methods {
            assert!(
                velus_obc::fusion::fusible(&m.exprs, &m.body),
                "{}.{} is not Fusible",
                class.name,
                m.name
            );
        }
    }
}

/// Compiles by forcing each stage of a [`StagedPipeline`] in turn,
/// re-running the public checkers on every IR between stages (on top of
/// the checks the pipeline already runs), and returns the emitted C.
fn stagewise_c(source: &str, root: Option<&str>) -> String {
    let mut stages = Vec::new();
    let mut observe = |stage: velus::Stage, _: std::time::Duration| stages.push(stage);
    let mut staged = StagedPipeline::from_source(source, root, &mut observe).expect("elaborate");
    recheck_nlustre(staged.nlustre());

    let snlustre = staged.snlustre().expect("schedule");
    for node in &snlustre.nodes {
        velus_nlustre::deps::check_schedule(node).expect("re-check schedule");
    }
    recheck_nlustre(snlustre);

    recheck_obc(staged.obc().expect("translate"));
    recheck_obc(staged.obc_fused().expect("fuse"));
    staged.clight().expect("generate");
    let c = staged.emit(IoMode::Volatile).expect("emit");
    drop(staged);
    // Every stage reported, in pipeline order.
    assert_eq!(
        stages,
        vec![
            velus::Stage::Frontend,
            velus::Stage::Check,
            velus::Stage::Schedule,
            velus::Stage::Translate,
            velus::Stage::Fuse,
            velus::Stage::Generate,
            velus::Stage::Emit,
        ]
    );
    c
}

#[test]
fn stagewise_equals_oneshot_on_the_paper_corpus() {
    for name in ["tracker", "count", "cruise", "watchdog3", "minus"] {
        let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
        let oneshot = velus::compile(&source, Some(name)).unwrap();
        assert_eq!(
            stagewise_c(&source, Some(name)),
            emit_c(&oneshot, IoMode::Volatile),
            "{name}: stagewise and one-shot C must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random program shapes — including sub-clocked, fusion-heavy ones —
    /// compile to byte-identical C whether the pipeline runs in one shot
    /// or pass by pass with re-validation between passes.
    #[test]
    fn stagewise_equals_oneshot_on_generated_programs(
        nodes in 3usize..10,
        eqs_per_node in 3usize..8,
        fan_in in 0usize..3,
        subclock_depth in 0usize..3,
    ) {
        let cfg = IndustrialConfig { nodes, eqs_per_node, fan_in, subclock_depth };
        let source = industrial_source(&cfg);
        let root = format!("blk{}", nodes - 1);
        let oneshot = velus::compile(&source, Some(&root)).unwrap();
        prop_assert_eq!(
            stagewise_c(&source, Some(&root)),
            emit_c(&oneshot, IoMode::Volatile)
        );
    }
}
