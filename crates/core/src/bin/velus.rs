//! The `velus` command-line compiler.
//!
//! ```text
//! velus compile FILE [--node NAME] [-o OUT.c] [--stdio]
//!               [--emit KINDS]                            emit artifacts (default: C)
//! velus check   FILE [--node NAME]                        every validated stage
//! velus run     FILE [--node NAME] --steps N              interpret (dataflow semantics)
//! velus validate FILE [--node NAME] --steps N             full translation validation
//! velus wcet    FILE [--node NAME] [--model cc|gcc|gcci]  WCET estimate of step
//! velus lint    FILE [--node NAME]                        static-analysis lint findings
//! velus dump    FILE [--node NAME] [--ir nlustre|snlustre|obc|obc-fused]
//! velus batch   DIR [--workers N] [--passes N] [--stdio]
//!               [--cache-cap N] [--emit KINDS] [--trace-out FILE]
//!               [--metrics-out FILE] [--slow-trace-ms N]
//!               [--deadline-ms N] [--queue-cap N]
//!               [--retries N] [--drain-ms N]              batch-compile a directory
//! ```
//!
//! `--emit KINDS` is a comma-separated artifact set: `c`,
//! `wcet[:cc|gcc|gcci]`, `baseline`, `nlustre`, `snlustre`, `obc`,
//! `obc-fused`, `report`, `lint`. A plain `wcet` uses `--model`. Only
//! the pipeline stages the set needs are run: `--emit wcet` never
//! prints C, `--emit nlustre` stops after the front-end checks;
//! `--emit report` serves the per-program validation/diagnostics report
//! as JSON, `--emit lint` the static-analysis findings (initialization,
//! value ranges, liveness, dead clocks) as diagnostics JSON.
//!
//! `check`, `dump`, `wcet` and `lint` are names for `--emit` kinds, and
//! run the code a `batch` worker runs: `check` is `--emit report` (every
//! validated stage through Clight generation; it prints an `ok:` line),
//! `dump --ir K` is `--emit K`, `wcet --model M` is `--emit wcet:M` and
//! `lint` is `--emit lint`. Each artifact ends in one newline. `lint`
//! prints every finding (caret rendering, or the `--emit lint` JSON
//! with `--error-format json`) and exits nonzero exactly when an
//! error-severity finding — a guaranteed runtime trap — is present.
//!
//! `--error-format human|json` (every command) selects how failures are
//! rendered: `human` draws carets against the source on stderr, `json`
//! prints one machine-readable diagnostics object on stdout. Every
//! diagnostic carries a stable `E…`/`W…` code and its originating
//! pipeline stage.
//!
//! `run` reads one instant of whitespace-separated input values per line
//! from stdin (`true`/`false` for booleans) and prints the outputs.
//!
//! `batch` sweeps `DIR` for `.lus` files (the root node of each file is
//! its stem), compiles them on the compilation service's worker pool,
//! and prints a per-file table plus service statistics (including
//! per-artifact-kind rows). With two or more passes (the default), later
//! passes exercise the per-kind artifact cache and every artifact is
//! checked byte-for-byte against the cold pass. `--cache-cap N` bounds
//! the artifact cache to N entries (S3-FIFO eviction, which keeps the
//! entries that get hit over one-offs; evicted programs recompile and
//! re-verify on later passes). Each pass submits the
//! files in sorted path order.
//!
//! The robustness flags drive the serving layer's fault tolerance:
//! `--deadline-ms N` gives every request an N ms deadline (expiry —
//! while queued or at a pass boundary — fails that request with the
//! coded `E0802`); `--queue-cap N` bounds admission (excess requests
//! are shed with `E0801` instead of queueing unboundedly); `--retries
//! N` re-runs transiently-failed requests up to N times with
//! decorrelated-jitter backoff; `--drain-ms N` gracefully drains the
//! service after the batch (admission closes, stragglers are cancelled
//! cooperatively by the deadline) and prints the drain report.
//!
//! The observability flags thread the batch through `velus-obs`:
//! `--trace-out FILE` records every request as a span tree (queue wait
//! for a request that went to a worker, cache probe, each pipeline pass,
//! artifact handling) and writes
//! Chrome trace-event JSON loadable in Perfetto;
//! `--metrics-out FILE` writes the closing statistics snapshot in the
//! Prometheus text format; `--slow-trace-ms N` additionally retains the
//! complete span tree of every request slower than N ms in the flight
//! recorder (the slowest request's tree is always printed).

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use velus::{
    compile, validate::default_inputs, ArtifactKind, IoMode, ServiceArtifact, VelusError,
    WcetModelKind,
};
use velus_common::{codes, DiagStage, Diagnostic, Diagnostics, SpanMap, ToDiagnostics};
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{ClightOps, Literal, Ops};

/// Set once stdout's reader has gone away.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout: everything `velus` prints goes through here. A
/// reader that stops early (`velus lint big.lus | head`) closes the
/// pipe; that ends the output quietly, and later writes are dropped,
/// where `println!` would panic. Any other write error fails the
/// process with a message.
fn out(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        } else {
            eprintln!("velus: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`out`].
macro_rules! outp {
    ($($arg:tt)*) => {
        out(format_args!($($arg)*))
    };
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

struct Args {
    cmd: String,
    file: Option<String>,
    node: Option<String>,
    out: Option<String>,
    steps: usize,
    stdio: bool,
    model: String,
    ir: String,
    emit: Option<String>,
    workers: usize,
    passes: usize,
    cache_cap: Option<usize>,
    error_format: ErrorFormat,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    slow_trace_ms: Option<u64>,
    deadline_ms: Option<u64>,
    queue_cap: Option<usize>,
    retries: u32,
    drain_ms: Option<u64>,
}

/// How CLI failures are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorFormat {
    /// Caret rendering against the source, on stderr.
    Human,
    /// One machine-readable JSON diagnostics object, on stdout.
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        cmd,
        file: None,
        node: None,
        out: None,
        steps: 32,
        stdio: false,
        model: "cc".to_owned(),
        ir: "snlustre".to_owned(),
        emit: None,
        workers: 0,
        passes: 2,
        cache_cap: None,
        error_format: ErrorFormat::Human,
        trace_out: None,
        metrics_out: None,
        slow_trace_ms: None,
        deadline_ms: None,
        queue_cap: None,
        retries: 0,
        drain_ms: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--node" => parsed.node = Some(args.next().ok_or("missing value for --node")?),
            "-o" | "--output" => parsed.out = Some(args.next().ok_or("missing value for -o")?),
            "--steps" => {
                parsed.steps = args
                    .next()
                    .ok_or("missing value for --steps")?
                    .parse()
                    .map_err(|_| "invalid --steps value")?
            }
            "--stdio" => parsed.stdio = true,
            "--model" => parsed.model = args.next().ok_or("missing value for --model")?,
            "--ir" => parsed.ir = args.next().ok_or("missing value for --ir")?,
            "--emit" => parsed.emit = Some(args.next().ok_or("missing value for --emit")?),
            "--workers" => {
                parsed.workers = args
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|_| "invalid --workers value")?
            }
            "--passes" => {
                parsed.passes = args
                    .next()
                    .ok_or("missing value for --passes")?
                    .parse::<usize>()
                    .map_err(|_| "invalid --passes value")?
                    .max(1)
            }
            "--cache-cap" => {
                parsed.cache_cap = Some(
                    args.next()
                        .ok_or("missing value for --cache-cap")?
                        .parse()
                        .map_err(|_| "invalid --cache-cap value")?,
                )
            }
            "--trace-out" => {
                parsed.trace_out = Some(args.next().ok_or("missing value for --trace-out")?)
            }
            "--metrics-out" => {
                parsed.metrics_out = Some(args.next().ok_or("missing value for --metrics-out")?)
            }
            "--slow-trace-ms" => {
                parsed.slow_trace_ms = Some(
                    args.next()
                        .ok_or("missing value for --slow-trace-ms")?
                        .parse()
                        .map_err(|_| "invalid --slow-trace-ms value")?,
                )
            }
            "--deadline-ms" => {
                parsed.deadline_ms = Some(
                    args.next()
                        .ok_or("missing value for --deadline-ms")?
                        .parse()
                        .map_err(|_| "invalid --deadline-ms value")?,
                )
            }
            "--queue-cap" => {
                parsed.queue_cap = Some(
                    args.next()
                        .ok_or("missing value for --queue-cap")?
                        .parse()
                        .map_err(|_| "invalid --queue-cap value")?,
                )
            }
            "--retries" => {
                parsed.retries = args
                    .next()
                    .ok_or("missing value for --retries")?
                    .parse()
                    .map_err(|_| "invalid --retries value")?
            }
            "--drain-ms" => {
                parsed.drain_ms = Some(
                    args.next()
                        .ok_or("missing value for --drain-ms")?
                        .parse()
                        .map_err(|_| "invalid --drain-ms value")?,
                )
            }
            "--error-format" => {
                let value = args.next().ok_or("missing value for --error-format")?;
                parsed.error_format = velus_common::parse_enum_flag(
                    "error format",
                    &value,
                    &[("human", ErrorFormat::Human), ("json", ErrorFormat::Json)],
                )?;
            }
            other if parsed.file.is_none() && !other.starts_with('-') => {
                parsed.file = Some(other.to_owned())
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    "usage: velus <compile|check|run|validate|wcet|lint|dump> FILE [options]
       velus batch DIR [--workers N] [--passes N] [--stdio] [--cache-cap N] [--emit KINDS]
                       [--trace-out FILE] [--metrics-out FILE] [--slow-trace-ms N]
                       [--deadline-ms N] [--queue-cap N] [--retries N] [--drain-ms N]
check, dump, wcet and lint are --emit report, --emit IR, --emit wcet:MODEL and --emit lint
options: --node NAME, -o OUT.c, --steps N, --stdio, --model cc|gcc|gcci,
         --ir nlustre|snlustre|obc|obc-fused, --error-format human|json,
         --emit c,wcet[:cc|gcc|gcci],baseline,nlustre,snlustre,obc,obc-fused,report,lint,
         --trace-out FILE (Chrome trace JSON), --metrics-out FILE (Prometheus text),
         --slow-trace-ms N (flight-record requests slower than N ms),
         --deadline-ms N (per-request deadline, E0802 on expiry),
         --queue-cap N (admission bound, E0801 when shed),
         --retries N (transient-failure retry budget),
         --drain-ms N (graceful drain after the batch)"
        .to_owned()
}

/// The artifact kinds a single-file command requests: `check`, `dump`,
/// `wcet` and `lint` are names for `--emit` kinds (`report`, the IR,
/// `wcet:MODEL`, `lint`); `compile` takes `--emit` (default `c`).
fn requested_kinds(args: &Args) -> Result<Vec<ArtifactKind>, String> {
    Ok(match args.cmd.as_str() {
        "check" => vec![ArtifactKind::Report],
        "dump" => vec![ArtifactKind::IrDump {
            stage: args.ir.parse()?,
        }],
        "wcet" => vec![ArtifactKind::Wcet {
            model: args.model.parse()?,
        }],
        "lint" => vec![ArtifactKind::Lint],
        _ => {
            let kinds = match args.emit.as_deref() {
                Some(list) => parse_emit(list, args.model.parse()?)?,
                None => vec![ArtifactKind::CCode],
            };
            if args.out.is_some() && !kinds.contains(&ArtifactKind::CCode) {
                return Err("-o needs the `c` artifact kind in --emit".to_owned());
            }
            kinds
        }
    })
}

/// Parses the `--emit` list; a plain `wcet` token takes its model from
/// `--model`. Token parsing and deduplication are the library's
/// (`velus_server::parse_artifact_kinds`) — the CLI only substitutes
/// the `--model` default in first.
fn parse_emit(list: &str, default_model: WcetModelKind) -> Result<Vec<ArtifactKind>, String> {
    let with_model: Vec<String> = list
        .split(',')
        .map(|token| {
            let token = token.trim();
            if token == "wcet" {
                format!("wcet:{}", default_model.name())
            } else {
                token.to_owned()
            }
        })
        .collect();
    velus_server::parse_artifact_kinds(&with_model.join(","))
}

/// Renders failure diagnostics per `--error-format`. Human mode returns
/// the caret rendering (for stderr); JSON mode prints the machine-
/// readable object on stdout and returns an empty message (`main`
/// prints nothing for empty messages, so stdout stays clean for pipes).
fn emit_error(diags: &Diagnostics, source: &str, format: ErrorFormat) -> String {
    match format {
        ErrorFormat::Human => diags.render_human(source),
        ErrorFormat::Json => {
            outln!("{}", diags.render_json(source));
            String::new()
        }
    }
}

/// Prints warnings (stderr in both formats: stdout carries artifacts).
fn emit_warnings(warnings: &Diagnostics, source: &str, format: ErrorFormat) {
    if warnings.is_empty() {
        return;
    }
    match format {
        ErrorFormat::Human => eprint!("{}", warnings.render_human(source)),
        ErrorFormat::Json => eprintln!("{}", warnings.render_json(source)),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Parses one instant of inputs (one whitespace-separated value per
/// declared input).
fn parse_instant(
    line: &str,
    decls: &[velus_nlustre::ast::VarDecl<ClightOps>],
) -> Result<Vec<velus_ops::CVal>, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != decls.len() {
        return Err(format!(
            "expected {} values, found {}",
            decls.len(),
            tokens.len()
        ));
    }
    tokens
        .iter()
        .zip(decls)
        .map(|(t, d)| {
            let lit = if *t == "true" {
                Literal::Bool(true)
            } else if *t == "false" {
                Literal::Bool(false)
            } else if t.contains('.') || t.contains('e') {
                Literal::Float(t.parse().map_err(|_| format!("bad float `{t}`"))?)
            } else {
                Literal::Int(t.parse().map_err(|_| format!("bad integer `{t}`"))?)
            };
            ClightOps::const_of_literal(&lit, &d.ty)
                .map(|c| c.val())
                .ok_or(format!("value `{t}` does not fit type {}", d.ty))
        })
        .collect()
}

fn run_batch(args: &Args) -> Result<(), String> {
    use velus::service::{service, ServiceConfig, ServiceError};
    use velus::{CompileOptions, CompileRequest};

    let dir = args.file.as_deref().ok_or_else(usage)?;
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .lus files in {dir}"));
    }

    let default_model: WcetModelKind = args.model.parse()?;
    let kinds = match args.emit.as_deref() {
        Some(list) => parse_emit(list, default_model)?,
        None => vec![ArtifactKind::CCode],
    };
    let options = CompileOptions::for_kinds(kinds.clone()).with_io(if args.stdio {
        IoMode::Stdio
    } else {
        IoMode::Volatile
    });
    let requests: Vec<CompileRequest> = files
        .iter()
        .map(|path| {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut req = CompileRequest::new(&stem, source)
                .with_root(&stem)
                .with_options(options.clone());
            if let Some(ms) = args.deadline_ms {
                req = req.with_deadline_ms(ms);
            }
            Ok(req)
        })
        .collect::<Result<_, String>>()?;

    let mut config = ServiceConfig::default();
    if args.workers != 0 {
        config.workers = args.workers;
    }
    // --cache-cap bounds the artifact cache (entries); evictions are
    // reported in the closing statistics table.
    config.cache.max_entries = args.cache_cap;
    // Robustness knobs: a bounded admission queue sheds excess load
    // with E0801, and transient failures are retried up to the budget.
    config.queue_cap = args.queue_cap;
    config.retry = velus_server::RetryPolicy::with_budget(args.retries);
    // Any observability flag turns the tracing recorder on; without
    // them the batch runs entirely trace-free.
    let tracing = args.trace_out.is_some() || args.slow_trace_ms.is_some();
    if tracing || args.metrics_out.is_some() {
        config.recorder = Some(velus::Recorder::new(velus::RecorderConfig {
            slow_threshold_ns: args.slow_trace_ms.map(|ms| ms * 1_000_000),
            ..velus::RecorderConfig::default()
        }));
    }
    let svc = service(config);
    // In JSON error mode stdout is reserved for the machine-readable
    // failure reports; the human table goes to stderr.
    let json_errors = args.error_format == ErrorFormat::Json;
    macro_rules! say {
        ($($arg:tt)*) => {
            if json_errors {
                eprintln!($($arg)*);
            } else {
                outln!($($arg)*);
            }
        };
    }
    let emit_list: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
    say!(
        "batch: {} programs from {dir}, {} workers, {} pass(es), emit {}{}",
        requests.len(),
        svc.worker_count(),
        args.passes,
        emit_list.join(","),
        match args.cache_cap {
            Some(cap) => format!(", cache cap {cap}"),
            None => String::new(),
        }
    );

    let mut failed = 0usize;
    // Per (program, kind): the cold pass's rendered artifact, checked
    // byte-for-byte against every later pass.
    let mut cold: Vec<Option<Vec<String>>> = vec![None; requests.len()];
    for pass in 0..args.passes {
        let report = svc.compile_batch(requests.clone());
        say!(
            "\npass {}: {} ok, {} failed, {} cache hits, {:.1} programs/s",
            pass + 1,
            report.ok_count(),
            report.err_count(),
            report.hit_count(),
            report.throughput()
        );
        say!(
            "{:<22} {:>8} {:>6} {:>12} {:>10}",
            "program",
            "status",
            "cache",
            "latency",
            "bytes"
        );
        for (k, item) in report.items.iter().enumerate() {
            let (status, cache, bytes) = match &item.result {
                Ok(artifacts) => {
                    let hits = artifacts.iter().filter(|a| a.cache_hit).count();
                    let cache = if hits == artifacts.len() {
                        "hit".to_owned()
                    } else if hits == 0 {
                        "miss".to_owned()
                    } else {
                        format!("{hits}/{}", artifacts.len())
                    };
                    let total: usize = artifacts.iter().map(|a| a.artifact.estimated_bytes()).sum();
                    ("ok", cache, total.to_string())
                }
                Err(_) => ("error", "-".to_owned(), "-".to_owned()),
            };
            say!(
                "{:<22} {:>8} {:>6} {:>12} {:>10}",
                item.name,
                status,
                cache,
                format!("{:.2?}", item.latency),
                bytes
            );
            // Front-end warnings surface (once, when the pipeline
            // actually ran) instead of being dropped.
            for w in &item.warnings {
                eprintln!("{}: {w}", item.name);
            }
            match &item.result {
                Ok(artifacts) => {
                    let rendered: Vec<String> =
                        artifacts.iter().map(|a| a.artifact.render()).collect();
                    match &cold[k] {
                        None => cold[k] = Some(rendered),
                        Some(cold_rendered) => {
                            for (i, (was, now)) in cold_rendered.iter().zip(&rendered).enumerate() {
                                if was != now {
                                    return Err(format!(
                                        "{}: warm pass produced a different `{}` artifact \
                                         than the cold pass",
                                        item.name, artifacts[i].kind
                                    ));
                                }
                            }
                        }
                    }
                }
                Err(ServiceError::Compile { report, .. }) => match args.error_format {
                    ErrorFormat::Human => eprintln!("{}: {report}", item.name),
                    // One attributed object per failing program, on the
                    // cold pass only (failures are never cached, so
                    // later passes would just duplicate the stream).
                    ErrorFormat::Json if pass == 0 => {
                        let body = report.render_json();
                        outln!(
                            "{{\"program\":\"{}\",{}",
                            velus_common::json_escape(&item.name),
                            &body[1..]
                        );
                    }
                    ErrorFormat::Json => {}
                },
                Err(other) => eprintln!("{}: {other}", item.name),
            }
            if item.result.is_err() && pass == 0 {
                failed += 1;
            }
        }
        if pass > 0 && report.hit_count() == report.items.len() {
            say!("warm pass: every artifact served from cache, byte-identical output");
        }
    }

    // --drain-ms: graceful shutdown rehearsal — admission closes, any
    // stragglers are cancelled cooperatively by the deadline, and the
    // drain report lands in the stats below (`drains` counter).
    if let Some(ms) = args.drain_ms {
        let report = svc.drain(std::time::Duration::from_millis(ms));
        say!("\n{report}");
    }
    say!("\nservice statistics:\n{}", svc.stats());
    if let Some(rec) = svc.recorder() {
        if let Some(path) = &args.trace_out {
            let data = rec.drain();
            if data.dropped > 0 {
                eprintln!(
                    "trace: {} events dropped by bounded ring buffers",
                    data.dropped
                );
            }
            std::fs::write(path, data.chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            say!("trace written to {path} (open in Perfetto / chrome://tracing)");
        }
        // The flight recorder explains the tail: the slowest request's
        // span tree (and any over --slow-trace-ms) as an indented dump.
        let flight = rec.flight();
        if let Some(slowest) = flight.first() {
            say!(
                "\nslowest request (flight recorder):\n{}",
                slowest.render_tree()
            );
        }
        if let Some(threshold) = args.slow_trace_ms {
            let over: Vec<&str> = flight
                .iter()
                .filter(|r| r.dur_ns >= threshold * 1_000_000)
                .map(|r| r.label.as_str())
                .collect();
            say!(
                "flight recorder: {} request(s) over {threshold} ms{}{}",
                over.len(),
                if over.is_empty() { "" } else { ": " },
                over.join(", ")
            );
        }
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, svc.stats().render_prometheus())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        say!("metrics written to {path} (Prometheus text format)");
    }
    if failed > 0 {
        // In JSON mode the failures were already printed as attributed
        // objects on stdout; the empty sentinel keeps the exit code
        // nonzero without appending a spurious summary object.
        return Err(if json_errors {
            String::new()
        } else {
            format!("{failed} program(s) failed to compile")
        });
    }
    Ok(())
}

fn main_inner() -> Result<(), String> {
    let args = parse_args()?;
    let result = dispatch(&args);
    // Usage failures (flag parse errors, unreadable files) reach here
    // as pre-rendered strings; in JSON mode they must honor the stdout
    // contract like every other failure. Already-emitted JSON errors
    // arrive as empty strings and pass through untouched.
    match (args.error_format, result) {
        (ErrorFormat::Json, Err(msg)) if !msg.is_empty() => {
            outln!("{}", usage_json(&msg));
            Err(String::new())
        }
        (_, result) => result,
    }
}

/// Wraps a pre-rendered usage error as a diagnostics JSON object. The
/// coded flag parsers prefix their rendering with `error[EXXXX]: `;
/// that code is recovered, anything else is the generic usage code.
fn usage_json(msg: &str) -> String {
    let (code, message) = match msg.strip_prefix("error[").and_then(|rest| {
        let (id, m) = rest.split_once("]: ")?;
        velus_common::codes::ALL
            .iter()
            .find(|c| c.id == id)
            .map(|c| (*c, m))
    }) {
        Some((code, m)) => (code, m.to_owned()),
        None => (codes::E0904, msg.to_owned()),
    };
    Diagnostics::from(
        Diagnostic::new(code, message, velus_common::Span::DUMMY).at_stage(DiagStage::Driver),
    )
    .render_json("")
}

fn dispatch(args: &Args) -> Result<(), String> {
    if args.cmd == "batch" {
        return run_batch(args);
    }
    let file = args.file.as_deref().ok_or_else(usage)?;
    let source = read_file(file)?;
    let node = args.node.as_deref();

    let error_format = args.error_format;
    let render_err = |e: VelusError| -> String {
        emit_error(&e.to_diagnostics(&SpanMap::new()), &source, error_format)
    };

    match args.cmd.as_str() {
        "check" | "compile" | "dump" | "lint" | "wcet" => {
            let kinds = requested_kinds(args)?;
            // The path a service worker takes: the staged pipeline runs
            // (and re-validates) only the stages the kinds need.
            let mut observe = |_, _| {};
            let mut staged = velus::StagedPipeline::from_source(&source, node, &mut observe)
                .map_err(render_err)?;
            // The lint findings include the front-end warnings and are
            // printed as the artifact, so they replace the warnings.
            if !kinds.contains(&ArtifactKind::Lint) {
                emit_warnings(staged.warnings(), &source, error_format);
            }
            let io = if args.stdio {
                IoMode::Stdio
            } else {
                IoMode::Volatile
            };
            let artifacts =
                velus::artifacts::produce(&mut staged, &kinds, io, &source).map_err(render_err)?;
            let mut stdout = String::new();
            let mut lint_errors = false;
            for (kind, artifact) in &artifacts {
                let text = match (artifact, &args.out) {
                    // The C artifact honors `-o`.
                    (ServiceArtifact::CCode { c_code }, Some(path)) => {
                        std::fs::write(path, c_code)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        continue;
                    }
                    (ServiceArtifact::Report(r), _) if args.cmd == "check" => format!(
                        "ok: {} nodes, {} equations, root {}",
                        r.nodes, r.equations, r.root
                    ),
                    (ServiceArtifact::Lint(l), _) if args.cmd == "lint" => {
                        lint_errors = l.has_errors();
                        match error_format {
                            ErrorFormat::Json => l.render(),
                            ErrorFormat::Human if l.findings.is_empty() => {
                                "ok: no lint findings".to_owned()
                            }
                            ErrorFormat::Human => l.render_human().to_owned(),
                        }
                    }
                    _ => artifact.render(),
                };
                if artifacts.len() > 1 {
                    stdout.push_str(&format!("== {kind} ==\n"));
                }
                stdout.push_str(text.trim_end_matches('\n'));
                stdout.push('\n');
            }
            outp!("{stdout}");
            if lint_errors {
                // Findings are already on stdout; in human mode add a
                // one-line verdict, in JSON mode exit nonzero quietly.
                return Err(match error_format {
                    ErrorFormat::Human => {
                        "error-severity lint findings (guaranteed traps)".to_owned()
                    }
                    ErrorFormat::Json => String::new(),
                });
            }
            Ok(())
        }
        "run" => {
            let c = compile(&source, node).map_err(render_err)?;
            let root = c.snlustre.node(c.root).expect("root exists");
            let inputs_decl = root.inputs.clone();
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| e.to_string())?;
            let mut streams: StreamSet<ClightOps> = vec![Vec::new(); inputs_decl.len()];
            let mut count = 0usize;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let vals = parse_instant(line, &inputs_decl)?;
                for (k, v) in vals.into_iter().enumerate() {
                    streams[k].push(SVal::Pres(v));
                }
                count += 1;
            }
            let outs = on_interpreter_stack(|| {
                velus_nlustre::dataflow::run_node(&c.snlustre, c.root, &streams, count)
            })
            .map_err(|e| {
                let diags = e.to_diagnostics(&c.spans).tagged(DiagStage::Validate);
                emit_error(&diags, &source, error_format)
            })?;
            for i in 0..count {
                let row: Vec<String> = outs.iter().map(|s| format!("{}", s[i])).collect();
                outln!("{}", row.join(" "));
            }
            Ok(())
        }
        "validate" => {
            let c = compile(&source, node).map_err(render_err)?;
            let inputs = default_inputs(&c, args.steps);
            let report = on_interpreter_stack(|| velus::validate(&c, &inputs, args.steps))
                .map_err(|e| {
                    let diags = e.to_diagnostics(&c.spans).tagged(DiagStage::Validate);
                    emit_error(&diags, &source, error_format)
                })?;
            outln!(
                "validated {} instants: {} MemCorres checks, {} staterep checks, {} trace events",
                report.instants,
                report.memcorres_checks,
                report.staterep_checks,
                report.trace_events
            );
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// The stack `run` and `validate` give the reference interpreters. The
/// demand-driven dataflow semantics recurses along each instant's
/// dependency chains (through instances too), so a long node needs far
/// more than the compile budget, which compilation itself never
/// approaches: it does not recurse per equation.
const INTERPRETER_STACK_BYTES: usize = 256 * 1024 * 1024;

/// Runs `f` on a thread with [`INTERPRETER_STACK_BYTES`] of stack.
fn on_interpreter_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(INTERPRETER_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("spawn interpreter thread")
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
}

fn main() -> ExitCode {
    // Runs on the main thread, whose stack is the size service workers
    // get too (`velus_server::WORKER_STACK_BYTES`): a program compiles
    // here exactly when `velus batch` can compile it.
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // JSON-mode failures were already printed on stdout and
            // surface here as an empty message: exit nonzero, quietly.
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod usage_json_tests {
    use super::*;

    #[test]
    fn recovers_the_code_from_coded_flag_errors() {
        // parse_enum_flag renders through Diagnostic's Display; this
        // locks the `error[EXXXX]: ` prefix usage_json scrapes — if the
        // one-line format ever changes, this fails instead of every
        // coded usage error silently degrading to E0904.
        let msg =
            velus_common::parse_enum_flag::<u8>("thing", "bogus", &[("real", 1)]).unwrap_err();
        let json = usage_json(&msg);
        assert!(json.contains("\"code\":\"E0901\""), "{json}");
        assert!(
            !json.contains("error[E0901]"),
            "prefix must be stripped: {json}"
        );
    }

    #[test]
    fn uncoded_messages_fall_back_to_the_generic_usage_code() {
        let json = usage_json("cannot read nope.lus: not found");
        assert!(json.contains("\"code\":\"E0904\""), "{json}");
    }
}
