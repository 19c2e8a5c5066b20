//! `chaos` — open-loop overload bench of the service's fault-tolerance
//! layer.
//!
//! Wraps the real pipeline in `velus_testkit::chaos::ChaosCompiler`
//! (seeded panics, transient failures, cancellable delays), measures
//! the service's fault-free capacity, then drives an **open-loop**
//! arrival process at 2× that capacity — arrivals are not gated on
//! completions, so the admission queue genuinely overloads — and
//! checks the robustness invariants:
//!
//! * zero worker deaths (panics are contained per request);
//! * zero lost requests: every submission resolves, and
//!   `ok + failed + shed == submitted`;
//! * every shed / timed-out / quarantined request carries its stable
//!   `E08xx` code;
//! * ≥ 90 % of injected transient failures succeed on retry;
//! * every fault class actually fired: at least one injected panic, one
//!   transient failure and one delay, and at least one input
//!   quarantined. The corpus makes this deterministic: it opens with
//!   one input of each fault class (found by drawing sources in order),
//!   so they reach the still-empty queue before any overload.
//!
//! Reports shed rate, retry success, and p50/p99/p999 latency of the
//! admitted requests, then drains the service.
//!
//! ```text
//! cargo run --release -p velus-bench --bin chaos -- \
//!     [--seeds N] [--workers W] [--retries R] [--queue-cap Q] \
//!     [--chaos-seed S] [--json]
//! ```
//!
//! With `--json`, stdout is exactly one JSON object (CI pipes it
//! through `jsoncheck`); the human-readable report moves to stderr.
//! Any violated invariant exits nonzero.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use velus::service::{service, ServiceConfig};
use velus::{CompileRequest, PipelineCompiler};
use velus_bench::{parse_bool_flag, parse_flag};
use velus_obs::Histogram;
use velus_server::{CompileService, RetryPolicy, ServiceError, Submission};
use velus_testkit::chaos::{ChaosCompiler, ChaosConfig, Fault};

type ChaosService = CompileService<ChaosCompiler<PipelineCompiler>>;

/// The `k`-th distinct tiny program: a unique constant per program keeps
/// every content digest (cache key and chaos fault roll) distinct.
fn program(k: usize) -> CompileRequest {
    let source = format!(
        "node main(x: int) returns (y: int)\n\
         var acc: int;\n\
         let\n\
           acc = ({k} fby acc) + x;\n\
           y = if acc > {} then 0 else acc;\n\
         tel\n",
        1000 + k
    );
    CompileRequest::new(format!("chaos{k:03}"), source)
}

/// The fault classes every run must inject.
const FAULTS: [Fault; 3] = [Fault::Panic, Fault::Transient, Fault::Delay];

/// `n` distinct programs: first the earliest-drawn program of each class
/// in [`FAULTS`] as `chaos` rolls them, then the other programs in draw
/// order. Leading with the witnesses submits them while the queue is
/// still empty, so every fault class fires whatever the seed.
fn corpus(n: usize, chaos: &ChaosCompiler<PipelineCompiler>) -> Vec<CompileRequest> {
    assert!(
        n >= FAULTS.len(),
        "--seeds must cover the {} fault classes",
        FAULTS.len()
    );
    let witnesses: Vec<usize> = FAULTS
        .iter()
        .map(|&fault| {
            (0..)
                .find(|&k| chaos.fault_of(&program(k)) == fault)
                .expect("every fault class has a nonzero rate")
        })
        .collect();
    let rest = (0..).filter(|k| !witnesses.contains(k));
    witnesses
        .iter()
        .copied()
        .chain(rest)
        .take(n)
        .map(program)
        .collect()
}

/// Fault-free capacity: cold-compile the corpus on a plain service and
/// take its throughput.
fn measure_capacity(reqs: &[CompileRequest], workers: usize) -> f64 {
    let svc = service(ServiceConfig {
        workers,
        ..Default::default()
    });
    let batch = svc.compile_batch(reqs.to_vec());
    assert_eq!(
        batch.err_count(),
        0,
        "calibration corpus must compile cleanly"
    );
    batch.throughput()
}

struct Outcome {
    ok: usize,
    shed: usize,
    draining: usize,
    deadline: usize,
    quarantined: usize,
    panicked: usize,
    compile_failed: usize,
    lost: usize,
    uncoded: usize,
    latencies: Histogram,
}

fn classify(submissions: Vec<Submission<ChaosCompiler<PipelineCompiler>>>) -> Outcome {
    let mut out = Outcome {
        ok: 0,
        shed: 0,
        draining: 0,
        deadline: 0,
        quarantined: 0,
        panicked: 0,
        compile_failed: 0,
        lost: 0,
        uncoded: 0,
        latencies: Histogram::new(),
    };
    for sub in submissions {
        let report = sub.wait();
        match &report.result {
            Ok(_) => {
                out.ok += 1;
                out.latencies.record(report.latency.as_nanos() as u64);
            }
            Err(err) => {
                let code = err.failure_report().primary_code();
                match err {
                    ServiceError::Overloaded { .. } => {
                        out.shed += 1;
                        if code != Some("E0801") {
                            out.uncoded += 1;
                        }
                    }
                    ServiceError::Draining => {
                        out.draining += 1;
                        if code != Some("E0805") {
                            out.uncoded += 1;
                        }
                    }
                    ServiceError::DeadlineExceeded => {
                        out.deadline += 1;
                        if code != Some("E0802") {
                            out.uncoded += 1;
                        }
                    }
                    ServiceError::Quarantined => {
                        out.quarantined += 1;
                        if code != Some("E0803") {
                            out.uncoded += 1;
                        }
                    }
                    ServiceError::Panic(_) => out.panicked += 1,
                    ServiceError::Compile { .. } | ServiceError::MissingArtifact(_) => {
                        out.compile_failed += 1;
                        if code.is_none() {
                            out.uncoded += 1;
                        }
                    }
                    ServiceError::Lost => out.lost += 1,
                }
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let seeds = parse_flag("--seeds", 40);
    let workers = parse_flag("--workers", 4);
    let retries = parse_flag("--retries", 2) as u32;
    let queue_cap = parse_flag("--queue-cap", workers * 4);
    let chaos_seed = parse_flag("--chaos-seed", 1) as u64;
    let json = parse_bool_flag("--json");
    macro_rules! note {
        ($($arg:tt)*) => {
            if json { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }

    let compiler = ChaosCompiler::new(
        PipelineCompiler,
        ChaosConfig {
            seed: chaos_seed,
            ..Default::default()
        },
    );
    let reqs = corpus(seeds, &compiler);
    let capacity = measure_capacity(&reqs, workers);
    let target = 2.0 * capacity;
    let interarrival = Duration::from_secs_f64(1.0 / target.max(1.0));
    note!(
        "chaos bench: {seeds} requests, {workers} workers, retry budget {retries}, queue cap {queue_cap}"
    );
    note!("fault-free capacity {capacity:.1} prog/s -> open-loop target {target:.1} prog/s");

    let svc: ChaosService = CompileService::new(
        compiler,
        ServiceConfig {
            workers,
            queue_cap: Some(queue_cap),
            retry: RetryPolicy::with_budget(retries),
            ..Default::default()
        },
    );

    // Open loop: submit on schedule regardless of completions.
    let started = Instant::now();
    let mut submissions = Vec::with_capacity(seeds);
    let mut admitted = 0usize;
    for (k, req) in reqs.into_iter().enumerate() {
        let due = started + interarrival * (k as u32);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sub = svc.submit(req);
        admitted += usize::from(sub.admitted());
        submissions.push(sub);
    }
    let out = classify(submissions);
    let drain = svc.drain(Duration::from_secs(30));
    let wall = started.elapsed();
    let chaos = svc.compiler().chaos_stats();
    let stats = svc.stats();
    let dead = svc.dead_workers();

    let submitted = seeds;
    let shed_total = out.shed + out.draining;
    let failed = out.deadline + out.quarantined + out.panicked + out.compile_failed + out.lost;
    let accounted = out.ok + shed_total + failed;
    let shed_rate = shed_total as f64 / submitted as f64;
    let retry_success = if chaos.injected_transients == 0 {
        1.0
    } else {
        chaos.recovered_transients as f64 / chaos.injected_transients as f64
    };
    let p = |pct: f64| Duration::from_nanos(out.latencies.percentile(pct));

    note!(
        "\nsubmitted {submitted}  admitted {admitted}  ok {}  shed {shed_total} ({:.0}%)  \
         panicked {}  quarantined {}  deadline {}  compile-failed {}  lost {}",
        out.ok,
        shed_rate * 100.0,
        out.panicked,
        out.quarantined,
        out.deadline,
        out.compile_failed,
        out.lost
    );
    note!(
        "injected: panics {} transients {} (recovered {} -> {:.0}% retry success) delays {}",
        chaos.injected_panics,
        chaos.injected_transients,
        chaos.recovered_transients,
        retry_success * 100.0,
        chaos.injected_delays
    );
    note!(
        "latency (admitted, successful): p50 {:.2?}  p99 {:.2?}  p999 {:.2?}",
        p(50.0),
        p(99.0),
        p(99.9)
    );
    note!("{drain}  wall {wall:.2?}  dead workers {dead}");
    note!(
        "service counters: shed {}  retries {}/{}  quarantine {} held / {} hits  drains {}",
        stats.shed,
        stats.retries_succeeded,
        stats.retries_attempted,
        stats.quarantined,
        stats.quarantine_hits,
        stats.drains
    );

    // The invariants the robustness layer guarantees under overload.
    let mut violations: Vec<String> = Vec::new();
    if dead != 0 {
        violations.push(format!("{dead} worker(s) died"));
    }
    if out.lost != 0 {
        violations.push(format!("{} request(s) lost", out.lost));
    }
    if accounted != submitted {
        violations.push(format!(
            "accounting hole: ok {} + shed {shed_total} + failed {failed} != submitted {submitted}",
            out.ok
        ));
    }
    if out.uncoded != 0 {
        violations.push(format!(
            "{} rejection(s) missing their stable E08xx code",
            out.uncoded
        ));
    }
    if retry_success < 0.9 {
        violations.push(format!(
            "retry success {:.0}% < 90% ({}/{} transients recovered)",
            retry_success * 100.0,
            chaos.recovered_transients,
            chaos.injected_transients
        ));
    }
    for (class, injected) in [
        ("panic", chaos.injected_panics),
        ("transient failure", chaos.injected_transients),
        ("delay", chaos.injected_delays),
    ] {
        if injected == 0 {
            violations.push(format!("no {class} was injected"));
        }
    }
    if stats.quarantined == 0 {
        violations.push("no input was quarantined".to_owned());
    }
    if drain.outstanding != 0 {
        violations.push(format!(
            "{} request(s) still outstanding after drain",
            drain.outstanding
        ));
    }

    if json {
        println!(
            concat!(
                "{{\"submitted\": {}, \"admitted\": {}, \"ok\": {}, \"shed\": {}, ",
                "\"panicked\": {}, \"quarantined\": {}, \"deadline_exceeded\": {}, ",
                "\"compile_failed\": {}, \"lost\": {}, \"dead_workers\": {}, ",
                "\"shed_rate\": {:.4}, \"retry_success\": {:.4}, ",
                "\"injected_panics\": {}, \"injected_transients\": {}, ",
                "\"recovered_transients\": {}, \"injected_delays\": {}, ",
                "\"capacity_prog_per_s\": {:.2}, \"target_prog_per_s\": {:.2}, ",
                "\"p50_secs\": {:.6}, \"p99_secs\": {:.6}, \"p999_secs\": {:.6}, ",
                "\"drain_cancelled\": {}, \"drain_secs\": {:.6}, \"violations\": {}}}"
            ),
            submitted,
            admitted,
            out.ok,
            shed_total,
            out.panicked,
            out.quarantined,
            out.deadline,
            out.compile_failed,
            out.lost,
            dead,
            shed_rate,
            retry_success,
            chaos.injected_panics,
            chaos.injected_transients,
            chaos.recovered_transients,
            chaos.injected_delays,
            capacity,
            target,
            p(50.0).as_secs_f64(),
            p(99.0).as_secs_f64(),
            p(99.9).as_secs_f64(),
            drain.cancelled,
            drain.duration.as_secs_f64(),
            violations.len()
        );
    }

    if violations.is_empty() {
        note!("\nall robustness invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        ExitCode::FAILURE
    }
}
