//! End-to-end checks over the whole Fig. 12 benchmark suite: every
//! program compiles, validates on deterministic inputs, and emits C.

use velus::validate::default_inputs;

const BENCHMARKS: &[&str] = &[
    "avgvelocity",
    "count",
    "tracker",
    "pip_ex",
    "mp_longitudinal",
    "cruise",
    "risingedgeretrigger",
    "chrono",
    "watchdog3",
    "functionalchain",
    "landing_gear",
    "minus",
    "prodcell",
    "ums_verif",
];

fn load(name: &str) -> String {
    std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap()
}

#[test]
fn every_benchmark_compiles_and_validates() {
    for name in BENCHMARKS {
        let source = load(name);
        let compiled =
            velus::compile(&source, Some(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let n = 20;
        let inputs = default_inputs(&compiled, n);
        velus::validate(&compiled, &inputs, n).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The oracle chain's statistics over 10 instants of `default_inputs`:
/// `(name, memcorres_checks, staterep_checks, trace_events)`. Every
/// check runs at every instant — MemCorres at each of the 10 boundaries
/// of both Obc runs, staterep at all 11 boundaries — so a faster chain
/// that skipped a check would change these numbers.
const ORACLE_COUNTS: &[(&str, usize, usize, usize)] = &[
    ("avgvelocity", 20, 11, 80),
    ("count", 20, 11, 70),
    ("tracker", 20, 11, 40),
    ("pip_ex", 20, 11, 100),
    ("mp_longitudinal", 20, 11, 90),
    ("cruise", 20, 11, 100),
    ("risingedgeretrigger", 20, 11, 80),
    ("chrono", 20, 11, 90),
    ("watchdog3", 20, 11, 80),
    ("functionalchain", 20, 11, 100),
    ("landing_gear", 20, 11, 80),
    ("minus", 20, 11, 60),
    ("prodcell", 20, 11, 70),
    ("ums_verif", 20, 11, 110),
];

#[test]
fn oracle_report_counts_are_pinned() {
    assert_eq!(ORACLE_COUNTS.len(), BENCHMARKS.len());
    for &(name, memcorres, staterep, events) in ORACLE_COUNTS {
        let compiled = velus::compile(&load(name), Some(name)).unwrap();
        let inputs = default_inputs(&compiled, 10);
        let report = velus::run_oracles(&compiled, &inputs, 10).unwrap();
        assert!(report.agreed(), "{name}: {:?}", report.divergence);
        assert_eq!(
            (
                report.instants,
                report.memcorres_checks,
                report.staterep_checks,
                report.trace_events
            ),
            (10, memcorres, staterep, events),
            "{name}"
        );
    }
}

#[test]
fn every_benchmark_emits_clean_c() {
    for name in BENCHMARKS {
        let source = load(name);
        let compiled = velus::compile(&source, Some(name)).unwrap();
        for io in [velus::TestIo::Volatile, velus::TestIo::Stdio] {
            let c = velus::emit_c(&compiled, io);
            assert!(!c.contains('$'), "{name}: unsanitized identifier\n{c}");
            assert!(c.contains("int main(void)"), "{name}");
            // Balanced braces is a cheap well-formedness smoke test.
            let opens = c.matches('{').count();
            let closes = c.matches('}').count();
            assert_eq!(opens, closes, "{name}: unbalanced braces");
        }
    }
}

#[test]
fn suite_size_is_comparable_to_the_papers() {
    // The paper: "about 160 nodes and 960 equations" over 14 programs.
    // Our reproduction is smaller per program but must stay non-trivial.
    let mut nodes = 0usize;
    let mut eqs = 0usize;
    for name in BENCHMARKS {
        let compiled = velus::compile(&load(name), Some(name)).unwrap();
        nodes += compiled.snlustre.nodes.len();
        eqs += compiled.snlustre.equation_count();
    }
    assert!(nodes >= 70, "suite has only {nodes} nodes");
    assert!(eqs >= 350, "suite has only {eqs} equations");
}

#[test]
fn benchmark_warnings_are_empty() {
    for name in BENCHMARKS {
        let compiled = velus::compile(&load(name), Some(name)).unwrap();
        assert!(
            compiled.warnings.is_empty(),
            "{name}: {}",
            compiled.warnings
        );
    }
}
