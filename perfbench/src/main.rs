//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-mixed|big-nodes|warm-rebuild|oracle-campaign|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in a child process (this executable, re-run with
//! `--child`), so a worker stack overflow or an out-of-memory kill is
//! that workload's recorded failure, with its exit status, and peak
//! memory is the child's own. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the metrics (the
//! end-to-end ones, or with `--trace 1` the per-layer ones). The exit
//! code is 0 only when every check passed. See `perfbench/README.md`.

use std::io::Read as _;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use perfbench::gen::Workload;
use perfbench::report::{metric, Outcome};
use perfbench::run::{run, RunArgs};

const USAGE: &str =
    "usage: perfbench --workload <cold-mixed|big-nodes|warm-rebuild|oracle-campaign|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// A child that has not finished by then is killed and counted failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            cli.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => cli.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                cli.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(cli)
}

fn describe(status: ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt as _;
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exit code {code}"),
        (None, Some(sig)) => format!("killed by signal {sig}"),
        _ => "unknown exit status".to_owned(),
    }
}

/// Runs one workload in a child process and returns its outcome; a
/// child that dies, hangs or prints no result is a failed workload.
fn run_child(workload: Workload, cli: &Cli) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            return crashed(
                workload,
                format!("cannot locate the benchmark executable: {e}"),
            )
        }
    };
    let spawned = Command::new(exe)
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return crashed(workload, format!("cannot start the workload process: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                break child.wait().map_err(|e| e.to_string()).and_then(|s| {
                    Err(format!(
                        "timed out after {CHILD_DEADLINE:?} ({})",
                        describe(s)
                    ))
                });
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(e.to_string());
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    let (body, last) = match out.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body.to_owned(), last),
        None => (String::new(), out.trim_end()),
    };
    let parsed = Outcome::parse_json(last);
    match (status, parsed) {
        (Ok(status), Some(mut outcome)) => {
            if !status.success() && outcome.correct {
                outcome.correct = false;
                outcome.failed += 1;
            }
            outcome.notes = body.lines().map(str::to_owned).collect();
            outcome
        }
        (Ok(status), None) => {
            print!("{out}");
            crashed(
                workload,
                format!(
                    "workload process ended with {} and no result",
                    describe(status)
                ),
            )
        }
        (Err(e), _) => {
            print!("{out}");
            crashed(workload, e)
        }
    }
}

fn crashed(workload: Workload, reason: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        notes: vec![format!("{}: FAILED {reason}", workload.name())],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.child {
        let outcome = run(&RunArgs {
            workload: cli.workloads[0],
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        });
        print!("{}", outcome.table());
        println!("{}", outcome.json());
        std::process::exit(if outcome.correct { 0 } else { 1 });
    }
    let outcomes: Vec<(Workload, Outcome)> = cli
        .workloads
        .iter()
        .map(|&w| {
            let outcome = run_child(w, &cli);
            // The child's own table (notes and metric lines) was kept
            // verbatim as the notes.
            for note in &outcome.notes {
                println!("{note}");
            }
            (w, outcome)
        })
        .collect();
    let summary = match outcomes.as_slice() {
        [(_, only)] => only.clone(),
        all => Outcome {
            correct: all.iter().all(|(_, o)| o.correct),
            attempted: all.iter().map(|(_, o)| o.attempted).sum(),
            failed: all.iter().map(|(_, o)| o.failed).sum(),
            metrics: all
                .iter()
                .flat_map(|(w, o)| {
                    o.metrics
                        .iter()
                        .map(move |m| metric(format!("{}/{}", w.name(), m.name), m.value, &m.unit))
                })
                .collect(),
            notes: Vec::new(),
        },
    };
    println!("{}", summary.json());
    std::process::exit(if summary.correct { 0 } else { 1 });
}
