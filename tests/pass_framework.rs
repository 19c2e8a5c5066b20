//! Properties of the staged pass framework: driving the `PassManager`
//! stage by stage — with explicit re-validation between stages — must
//! be observationally identical to the one-shot `velus::compile` path,
//! for the paper corpus and for randomly shaped generated programs
//! (including sub-clocked ones).

use proptest::prelude::*;

use velus::passes::{
    CheckPass, ElaboratePass, EmitInput, EmitPass, FrontendInput, FusePass, GenerateInput,
    GeneratePass, Pass, PassManager, SchedulePass, TranslatePass,
};
use velus::{emit_c, IoMode};
use velus_common::SpanMap;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

/// Compiles by invoking every pass individually through a
/// [`PassManager`], re-running each pass's validation hook between
/// stages (on top of the hook the manager already runs), and returns
/// the emitted C.
fn stagewise_c(source: &str, root: Option<&str>) -> String {
    let mut stages = Vec::new();
    let mut observe = |stage: velus::Stage, _: std::time::Duration| stages.push(stage);
    let mut pm = PassManager::new(&mut observe);

    let elaborated = pm
        .run(
            &ElaboratePass,
            FrontendInput { source, root },
            &SpanMap::new(),
        )
        .expect("elaborate");
    let root = elaborated.root;
    let spans = elaborated.spans;
    let mut nlustre = pm
        .run(&CheckPass, elaborated.nlustre, &spans)
        .expect("check");
    CheckPass.revalidate(&nlustre).expect("re-check");

    let scheduled = pm
        .run(&SchedulePass, &mut nlustre, &spans)
        .expect("schedule");
    SchedulePass
        .revalidate(&scheduled)
        .expect("re-check schedule");
    let snlustre = scheduled.program;

    let obc = pm
        .run(&TranslatePass, &snlustre, &spans)
        .expect("translate");
    TranslatePass
        .revalidate(&obc)
        .expect("re-check translation");

    let obc_fused = pm.run(&FusePass, obc, &spans).expect("fuse");
    FusePass.revalidate(&obc_fused).expect("re-check fusion");

    let clight = pm
        .run(
            &GeneratePass,
            GenerateInput {
                obc_fused: &obc_fused,
                root,
            },
            &spans,
        )
        .expect("generate");
    let c = pm
        .run(
            &EmitPass,
            EmitInput {
                clight: &clight,
                io: IoMode::Volatile,
            },
            &spans,
        )
        .expect("emit");
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
