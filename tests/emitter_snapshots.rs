//! The C emitter refactor safety net: emission must be byte-identical
//! to the pre-refactor emitter.
//!
//! `tests/snapshots/*.c` retains the output of the nested-`format!`
//! emitter (recorded before the single-buffer rewrite) for the whole
//! paper corpus; the streaming emitter must reproduce it exactly.
//! `tests/snapshots/*.nlustre` retains the front end's N-Lustre dump
//! (`--emit nlustre`, recorded before elaboration and normalization
//! became one walk), pinning fresh names, equation order and local
//! order. On
//! top of the fixed corpus, a property test checks that the staged
//! `StagedPipeline::emit` path and the one-shot `compile` + `emit_c`
//! path agree byte-for-byte on randomly shaped industrial programs,
//! including sub-clocked ones, and that emission is deterministic.

use proptest::prelude::*;

use velus::passes::StagedPipeline;
use velus::{emit_c, IoMode};
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

fn staged_c(source: &str, root: Option<&str>) -> String {
    staged_outputs(source, root).0
}

/// The emitted C and the `--emit nlustre` dump of one compile.
fn staged_outputs(source: &str, root: Option<&str>) -> (String, String) {
    let mut observe = |_: velus::Stage, _: std::time::Duration| {};
    let mut staged = StagedPipeline::from_source(source, root, &mut observe).expect("compiles");
    let c = staged.emit(IoMode::Volatile).expect("emits");
    (c, format!("{}\n", staged.nlustre()))
}

#[test]
fn benchmarks_corpus_matches_the_retained_snapshots() {
    let snapshots = velus_repro::repo_root().join("tests/snapshots");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&snapshots)
        .expect("snapshot directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    entries.sort();
    for snapshot in entries {
        let name = snapshot
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("snapshot file names are UTF-8");
        let source =
            std::fs::read_to_string(velus_repro::benchmark_path(name)).expect("benchmark exists");
        let expected = std::fs::read_to_string(&snapshot).expect("snapshot readable");
        let expected_nlustre = std::fs::read_to_string(snapshot.with_extension("nlustre"))
            .expect("N-Lustre snapshot readable");
        let (emitted, nlustre) = staged_outputs(&source, Some(name));
        assert_eq!(
            emitted, expected,
            "{name}: emitted C differs from the pre-refactor snapshot"
        );
        assert_eq!(
            nlustre, expected_nlustre,
            "{name}: N-Lustre differs from the retained snapshot"
        );
        checked += 1;
    }
    // The snapshot set covers the whole paper corpus; a shrinking
    // directory would silently weaken this test.
    assert_eq!(checked, 14, "expected one snapshot per paper benchmark");
}

#[test]
fn emission_is_deterministic_per_pipeline() {
    let source =
        std::fs::read_to_string(velus_repro::benchmark_path("tracker")).expect("tracker exists");
    let mut observe = |_: velus::Stage, _: std::time::Duration| {};
    let mut staged =
        StagedPipeline::from_source(&source, Some("tracker"), &mut observe).expect("compiles");
    let first = staged.emit(IoMode::Volatile).expect("emits");
    let second = staged.emit(IoMode::Volatile).expect("emits again");
    assert_eq!(first, second, "re-emitting must be byte-stable");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random program shapes — including sub-clocked, fusion-heavy ones —
    /// emit byte-identical C through the staged pipeline and the
    /// one-shot path, in both I/O modes.
    #[test]
    fn staged_emit_equals_oneshot_on_generated_programs(
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
            staged_c(&source, Some(&root)),
            emit_c(&oneshot, IoMode::Volatile)
        );
        // The stdio test harness shares the emitter internals; keep it
        // covered by the same byte-equality property.
        let mut observe = |_: velus::Stage, _: std::time::Duration| {};
        let mut staged =
            StagedPipeline::from_source(&source, Some(&root), &mut observe).unwrap();
        prop_assert_eq!(
            staged.emit(IoMode::Stdio).unwrap(),
            emit_c(&oneshot, IoMode::Stdio)
        );
    }
}
