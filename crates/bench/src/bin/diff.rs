//! The differential-semantics campaign runner.
//!
//! Each seed generates a random well-formed Lustre program (optionally
//! mutated at the source level), compiles it once, and runs the full
//! oracle set of the paper's end-to-end theorem — unscheduled vs
//! scheduled dataflow, memory semantics with `MemCorres`, Obc unfused
//! and fused, step-driven Clight with `staterep`, the volatile trace of
//! the generated `main` — plus the lint-soundness oracle, which holds
//! the static analyses' trap claims against the Clight execution.
//! Seeds rotate over the five stock profiles and the trap-allowing
//! `lint-traps` profile. Divergences, broken claims and panics are
//! shrunk automatically and written as `.lus` + `.json` reproducer
//! pairs under `tests/diff_seeds/` (see `velus_testkit::campaign`).
//!
//! ```text
//! cargo run --release -p velus-bench --bin diff -- --seeds 1000
//! cargo run --release -p velus-bench --bin diff -- --budget-ms 30000 --workers 8
//! cargo run --release -p velus-bench --bin diff -- --seeds 1350 --json
//! ```
//!
//! Flags:
//!
//! * `--seeds N` — number of seeds to run (default 200);
//! * `--budget-ms M` — instead of a fixed count, keep running seed
//!   batches until `M` milliseconds have elapsed (overrides `--seeds`);
//! * `--seed-start S` — first seed (default 0);
//! * `--workers K` — worker threads (default 4). Seeds are partitioned
//!   `start + w, start + w + K, …`, so the merged report is identical
//!   for any `K`;
//! * `--mutate-pct P` — percentage of seeds whose source is mutated
//!   before compilation (default 10);
//! * `--shrink-budget B` — max recompile-and-recheck cycles per failing
//!   seed (default 400);
//! * `--out DIR` — reproducer directory (default `tests/diff_seeds`);
//! * `--json` — machine-readable summary on stdout, including the
//!   lint-soundness tallies: how many runs each trap claim covered
//!   (guaranteed / possible / clean) and how many actually trapped.
//!
//! Exit status: 0 when the campaign is clean, 1 when any seed diverged,
//! broke a lint claim, panicked, or hit a rig failure (reproducers are
//! written either way).

use std::path::PathBuf;
use std::time::Instant;

use velus_bench::{parse_bool_flag, parse_flag, parse_string_flag};
use velus_obs::Histogram;
use velus_testkit::campaign::{run_campaign, write_reproducer, CampaignConfig, CampaignReport};

fn main() {
    let seeds = parse_flag("--seeds", 200) as u64;
    let budget_ms = parse_flag("--budget-ms", 0) as u64;
    let seed_start = parse_flag("--seed-start", 0) as u64;
    let workers = parse_flag("--workers", 4).max(1);
    let json = parse_bool_flag("--json");
    let out_dir =
        PathBuf::from(parse_string_flag("--out").unwrap_or_else(|| "tests/diff_seeds".to_owned()));
    let cfg = CampaignConfig {
        mutate_pct: parse_flag("--mutate-pct", 10) as u32,
        shrink_budget: parse_flag("--shrink-budget", 400),
        ..CampaignConfig::default()
    };

    // Campaign panics are caught, classified, and shrunk by the engine;
    // suppress the default hook's per-panic backtrace spew.
    std::panic::set_hook(Box::new(|_| {}));

    let start = Instant::now();
    let mut report = CampaignReport::default();
    if budget_ms > 0 {
        // Time-budget mode: run worker-sized batches until the clock
        // runs out (at least one batch always runs).
        let batch = (workers as u64) * 8;
        let mut next = seed_start;
        loop {
            report
                .results
                .extend(run_campaign(&cfg, next, batch, workers).results);
            next = next.saturating_add(batch);
            if start.elapsed().as_millis() as u64 >= budget_ms {
                break;
            }
        }
    } else {
        report = run_campaign(&cfg, seed_start, seeds, workers);
    }
    let elapsed = start.elapsed();

    let mut hist = Histogram::new();
    for r in &report.results {
        hist.record(r.nanos / 1000); // microseconds
    }

    let failures = report.failures();
    let claims = report.claims();
    let mut written: Vec<String> = Vec::new();
    for rep in &failures {
        match write_reproducer(&out_dir, rep) {
            Ok((lus, _)) => written.push(lus.display().to_string()),
            Err(e) => eprintln!("error: could not write reproducer: {e}"),
        }
    }

    if json {
        let mut out = String::from("{");
        out.push_str(&format!("\"seeds\": {}", report.results.len()));
        out.push_str(&format!(", \"agreed\": {}", report.agreed()));
        out.push_str(&format!(
            ", \"mutants_rejected\": {}",
            report.mutants_rejected()
        ));
        out.push_str(&format!(", \"vacuous\": {}", report.vacuous()));
        out.push_str(&format!(", \"failures\": {}", failures.len()));
        out.push_str(&format!(
            ", \"claims\": {{\"guaranteed\": {}, \"possible\": {}, \"clean\": {}}}, \"trapped_runs\": {}",
            claims.guaranteed, claims.possible, claims.clean, claims.trapped
        ));
        out.push_str(", \"rejection_codes\": {");
        for (i, (code, n)) in report.rejection_codes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{code}\": {n}"));
        }
        out.push('}');
        out.push_str(", \"failing_seeds\": [");
        for (i, f) in failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&f.seed.to_string());
        }
        out.push(']');
        out.push_str(&format!(
            ", \"seed_us\": {{\"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1}}}",
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.max(),
            hist.mean()
        ));
        out.push_str(&format!(", \"elapsed_ms\": {}", elapsed.as_millis()));
        out.push_str(&format!(", \"float_policy\": \"{}\"", {
            velus_testkit::campaign::FLOAT_POLICY
        }));
        out.push('}');
        println!("{out}");
    } else {
        println!(
            "differential campaign: {} seeds in {elapsed:.2?} ({} workers)",
            report.results.len(),
            workers
        );
        println!(
            "  agreed {:>6}   mutants rejected {:>5}   vacuous {:>4}   failures {}",
            report.agreed(),
            report.mutants_rejected(),
            report.vacuous(),
            failures.len()
        );
        println!(
            "  lint claims: {} guaranteed / {} possible / {} clean · {} trapped runs",
            claims.guaranteed, claims.possible, claims.clean, claims.trapped
        );
        let codes = report.rejection_codes();
        if !codes.is_empty() {
            let rendered: Vec<String> = codes.iter().map(|(c, n)| format!("{c}×{n}")).collect();
            println!("  rejection codes: {}", rendered.join(" "));
        }
        println!(
            "  per-seed latency: p50 {}µs  p99 {}µs  max {}µs",
            hist.percentile(50.0),
            hist.percentile(99.0),
            hist.max()
        );
        for (f, path) in failures.iter().zip(&written) {
            let what = f
                .info
                .as_ref()
                .map_or_else(|| f.detail.clone(), |i| format!("{} oracle", i.oracle));
            println!(
                "  FAILURE seed {} [{}] {}: {} -> {}",
                f.seed,
                f.profile,
                f.kind.token(),
                what,
                path
            );
        }
    }

    if !report.clean() {
        eprintln!(
            "campaign FAILED: {} reproducer(s) under {}",
            failures.len(),
            out_dir.display()
        );
        std::process::exit(1);
    }
}
