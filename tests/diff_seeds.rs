//! The seed corpus: every reproducer checked in under
//! `tests/diff_seeds/` — a `.lus` + `.json` pair emitted by the
//! differential campaign when it finds a divergence or a panic — is
//! replayed against the current compiler. A record is green when the
//! failure no longer manifests: the oracles may now agree, or the
//! compiler may (legitimately) reject what was once accepted; what must
//! never come back is the recorded divergence or panic.
//!
//! The directory may be empty (bugs get fixed and, eventually, stale
//! records deleted); the test tolerates that, and separately exercises
//! the write → read → replay machinery through a temporary directory so
//! the corpus workflow itself stays tested.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use velus_testkit::campaign::{
    record_name, replay, write_reproducer, FailureInfo, FailureKind, Reproducer, ShrinkStats,
};
use velus_testkit::gen::{gen_inputs, gen_program, GenConfig};
use velus_testkit::render::lustre_source;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diff_seeds")
}

#[test]
fn checked_in_reproducers_no_longer_fail() {
    let dir = corpus_dir();
    if !dir.is_dir() {
        return; // An empty corpus is a healthy corpus.
    }
    let mut replayed = 0usize;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for json_path in entries {
        let record = std::fs::read_to_string(&json_path)
            .unwrap_or_else(|e| panic!("{}: {e}", json_path.display()));
        let parsed = velus_testkit::json::parse(&record)
            .unwrap_or_else(|e| panic!("{}: malformed record: {e}", json_path.display()));
        let source_file = parsed
            .get("source_file")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{}: record lacks source_file", json_path.display()));
        let source = std::fs::read_to_string(dir.join(source_file))
            .unwrap_or_else(|e| panic!("{}: {e}", json_path.display()));
        let outcome = replay(&record, &source)
            .unwrap_or_else(|e| panic!("{}: unreplayable record: {e}", json_path.display()));
        assert!(
            outcome.acceptable_on_replay(),
            "{}: recorded failure reproduces again: {outcome:?}",
            json_path.display()
        );
        replayed += 1;
    }
    // The corpus currently holds the seed-306 generator finding
    // (INT_MIN / -1); if records are ever pruned this assertion goes
    // with them.
    assert!(replayed >= 1, "expected at least the seed-306 record");
}

#[test]
fn reproducer_records_round_trip_through_disk_and_replay() {
    // Package a healthy program as a synthetic "divergence" record,
    // write it through the real corpus writer into a temp directory,
    // read both files back, and replay: the parsed record must drive a
    // full re-check that finds the failure gone.
    let mut rng = StdRng::seed_from_u64(41);
    let prog = gen_program(&mut rng, &GenConfig::default());
    let root = velus_common::NodeId::new(prog.nodes.len() - 1);
    let node = prog.node(root).expect("root exists").clone();
    let inputs = gen_inputs(&mut rng, &node, 6);
    let rep = Reproducer {
        seed: 41,
        profile: "default".to_owned(),
        gen: GenConfig::default(),
        mutated: false,
        kind: FailureKind::Divergence,
        info: Some(FailureInfo {
            oracle: "clight".to_owned(),
            instant: Some(1),
            output: Some(0),
            left: "0".to_owned(),
            right: "1".to_owned(),
        }),
        detail: "synthetic record for the disk round-trip test".to_owned(),
        source: lustre_source(&prog),
        root: Some(node.name.to_string()),
        steps: 6,
        inputs: Some(inputs),
        shrink: ShrinkStats::default(),
    };

    let dir = std::env::temp_dir().join(format!("velus-diff-seeds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (lus, json) = write_reproducer(&dir, &rep).expect("corpus write");
    assert_eq!(
        lus.file_name().and_then(|n| n.to_str()),
        Some(format!("{}.lus", record_name(41)).as_str())
    );
    let record = std::fs::read_to_string(&json).unwrap();
    let source = std::fs::read_to_string(&lus).unwrap();
    let outcome = replay(&record, &source).expect("replayable");
    assert!(
        outcome.acceptable_on_replay(),
        "healthy program replayed as failing: {outcome:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
