//! Self-tests of the harness: seeded inputs are reproducible and
//! seed-dependent, and the metrics that describe generated code and the
//! replay's allocation counts repeat exactly across two runs of the
//! benchmark process (the compiler is deterministic; these tests fail if
//! it stops being so). Run with `--release` to cover `big-nodes` too.

use perfbench::gen::{
    campaign_base, campaign_program, BigNodes, ColdMixed, WarmRebuild, Workload, BIG_POOL,
    COLD_POOL,
};
use std::process::Command;

use perfbench::report::Outcome;
use velus::CompileRequest;
use velus_testkit::campaign::CampaignConfig;

fn render(r: CompileRequest) -> String {
    format!(
        "{}|{:?}|{:?}|{}",
        r.name,
        r.root,
        r.options.effective_kinds(),
        r.source
    )
}

/// Every input a workload sends for `seed`, rendered as text.
fn inputs(w: Workload, seed: u64) -> Vec<String> {
    match w {
        Workload::ColdMixed => {
            let c = ColdMixed::new(seed).expect("paper corpus readable");
            (0..COLD_POOL + 32).map(|i| render(c.request(i))).collect()
        }
        Workload::BigNodes => {
            let b = BigNodes::new(seed);
            (0..BIG_POOL).map(|i| render(b.request(i))).collect()
        }
        Workload::WarmRebuild => {
            let w = WarmRebuild::new(seed);
            (0..w.pool.len())
                .map(|k| render(w.prefill(k)))
                .chain((0..4096).map(|i| render(w.request(i))))
                .collect()
        }
        Workload::OracleCampaign => {
            let cfg = CampaignConfig::default();
            let base = campaign_base(seed);
            (base..base + 64)
                .map(|s| {
                    let (p, _) = campaign_program(s, &cfg);
                    format!("{}|{}", p.root, p.source)
                })
                .collect()
        }
    }
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for w in Workload::ALL {
        assert_eq!(inputs(w, 7), inputs(w, 7), "{}", w.name());
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for w in Workload::ALL {
        let (a, b) = (inputs(w, 7), inputs(w, 8));
        assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(
            differing > a.len() / 2,
            "{}: only {differing} of {} inputs differ between seeds",
            w.name(),
            a.len()
        );
    }
}

/// Runs the benchmark executable in a separate process for one short
/// run and returns its result line.
fn bench(workload: Workload, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}:\n{stdout}", workload.name());
    Outcome::parse_json(stdout.lines().last().unwrap_or_default()).expect("a result line")
}

/// The workloads a debug build can run (`big-nodes` recurses too deep
/// for unoptimized stack frames on a worker's default stack).
fn workloads() -> Vec<Workload> {
    Workload::ALL
        .into_iter()
        .filter(|w| !cfg!(debug_assertions) || *w != Workload::BigNodes)
        .collect()
}

/// Asserts that the named metrics of two outcomes are equal.
fn same(w: Workload, a: &Outcome, b: &Outcome, pick: impl Fn(&str) -> bool) {
    let mut compared = 0;
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(x.name, y.name);
        if pick(&x.name) {
            assert_eq!(x.value, y.value, "{}: {}", w.name(), x.name);
            compared += 1;
        }
    }
    assert!(compared > 0, "{}: nothing compared", w.name());
}

#[test]
fn generated_code_metrics_repeat_exactly() {
    for w in workloads() {
        let (a, b) = (bench(w, false), bench(w, false));
        same(w, &a, &b, |n| n.starts_with("gen_"));
    }
}

#[test]
fn replay_allocation_counts_repeat_exactly() {
    for w in workloads() {
        let (a, b) = (bench(w, true), bench(w, true));
        same(w, &a, &b, |n| {
            n.ends_with(".allocs")
                || n.ends_with(".bytes")
                || n == "emit.c_bytes"
                || n == "fuse.stmt_ratio"
        });
    }
}
