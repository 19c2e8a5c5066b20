//! One workload run: set-up, the timed closed loop, the correctness
//! gate, and (with tracing) the traced phase and the replay.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use velus::service::{service, RequestReport, VelusService};
use velus::{ArtifactKind, PipelineCompiler, Recorder, RecorderConfig, ServiceArtifact, Stage};
use velus_server::{CacheConfig, ServiceConfig, StatsSnapshot};
use velus_testkit::campaign::{default_profiles, run_seed, CampaignConfig, SeedOutcome};

use crate::calib;
use crate::gate::{self, ValidateTimes};
use crate::gen::{
    campaign_base, campaign_program, BigNodes, ColdMixed, Generated, WarmRebuild, Workload,
    WARM_CACHE_ENTRIES,
};
use crate::load::{closed_loop, segmented_loop, LoadResult, Op};
use crate::replay::{replay, Replay, ReplayItem};
use crate::report::{median, metric, quantile, Metric, Outcome};
use crate::spans::Reducer;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Client threads of the closed loop (one outstanding request each).
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Segments of the untraced timed phase (calibration runs between them).
const SEGMENTS: usize = 20;
/// Length of one calibration burst.
const BURST: Duration = Duration::from_millis(100);
/// The traced phase drains the recorder every this many operations.
const DRAIN_EVERY: usize = 256;
/// Programs (or seeds) the replay and the campaign gate sample.
const SAMPLE: usize = 48;
/// `big-nodes` programs the replay samples.
const BIG_SAMPLE: usize = 6;
/// Generated programs each service workload's oracle gate checks.
const ORACLE_SAMPLE: usize = 8;
/// `big-nodes` programs the oracle gate checks.
const BIG_ORACLE_SAMPLE: usize = 2;
/// Campaign seeds whose C size `gen_c_bytes` averages on
/// `oracle-campaign`.
const CAMPAIGN_C_SEEDS: u64 = 512;
/// Campaign seeds run during set-up, from a block no run measures.
const CAMPAIGN_WARMUP: u64 = 8;

/// Where the trace reducer writes spans.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `(all, steal)` CPU ticks of the machine so far (from `/proc/stat`).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// A note on the CPU time the hypervisor took from the machine while
/// `f` ran: steal slows every timed metric and explains outlier runs.
fn with_steal_note<T>(notes: &mut Vec<String>, f: impl FnOnce() -> T) -> T {
    let before = cpu_ticks();
    let out = f();
    if let (Some(b), Some(a)) = (before, cpu_ticks()) {
        let share = (a.1 - b.1) as f64 / (a.0 - b.0).max(1) as f64;
        notes.push(format!(
            "  cpu steal during the timed phase: {:.1}% of machine CPU time",
            100.0 * share
        ));
    }
    out
}

/// Peak resident memory of this process, in MB (from `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The inputs of a service workload.
enum Inputs {
    Cold(ColdMixed),
    Big(BigNodes),
    Warm(WarmRebuild),
}

/// What responses are checked against.
enum Refs {
    /// The paper corpus's retained C, by stream index.
    Snapshots(Vec<String>),
    /// The cold compile (C, step WCET) of each warm pool program.
    Pool(Vec<(String, u64)>),
    /// Only structural checks.
    None,
}

impl Inputs {
    fn build(workload: Workload, seed: u64) -> Result<Inputs, String> {
        Ok(match workload {
            Workload::ColdMixed => Inputs::Cold(ColdMixed::new(seed).map_err(|e| e.to_string())?),
            Workload::BigNodes => Inputs::Big(BigNodes::new(seed)),
            Workload::WarmRebuild => Inputs::Warm(WarmRebuild::new(seed)),
            Workload::OracleCampaign => unreachable!("the campaign runs without a service"),
        })
    }

    fn request(&self, i: usize) -> velus::CompileRequest {
        match self {
            Inputs::Cold(w) => w.request(i),
            Inputs::Big(w) => w.request(i),
            Inputs::Warm(w) => w.request(i),
        }
    }

    /// The service's cache entry cap (bounded so memory stays flat).
    fn cache_entries(&self) -> usize {
        match self {
            Inputs::Cold(_) => 256,
            Inputs::Big(_) => 32,
            Inputs::Warm(_) => WARM_CACHE_ENTRIES,
        }
    }

    /// Length of the stream prefix `gen_c_bytes` is measured on: the
    /// paper corpus and one pass over the pool (every run sends it).
    fn c_prefix(&self) -> usize {
        match self {
            Inputs::Cold(w) => w.paper.len() + w.pool.len(),
            Inputs::Big(w) => w.pool.len(),
            Inputs::Warm(_) => 0,
        }
    }

    fn service(&self, recorder: Option<Recorder>) -> VelusService {
        service(ServiceConfig {
            workers: WORKERS,
            caching: true,
            cache: CacheConfig {
                max_entries: Some(self.cache_entries()),
                ..CacheConfig::default()
            },
            recorder,
            ..ServiceConfig::default()
        })
    }

    /// Compiles the warm pool into the cache (no-op for cold workloads).
    fn prefill(&self, svc: &VelusService) -> Result<(), String> {
        let Inputs::Warm(w) = self else { return Ok(()) };
        let batch = svc.compile_batch((0..w.pool.len()).map(|k| w.prefill(k)).collect());
        match batch.items.iter().find_map(|r| r.result.as_ref().err()) {
            Some(e) => Err(format!("prefill failed: {e}")),
            None => Ok(()),
        }
    }

    fn refs(&self) -> Result<Refs, String> {
        match self {
            Inputs::Cold(w) => w
                .paper
                .iter()
                .map(|(name, _)| gate::snapshot(name).map_err(|e| format!("snapshot {name}: {e}")))
                .collect::<Result<Vec<_>, _>>()
                .map(Refs::Snapshots),
            Inputs::Warm(w) => w
                .pool
                .iter()
                .map(|p| gate::reference(&p.source, &p.root))
                .collect::<Result<Vec<_>, _>>()
                .map(Refs::Pool),
            Inputs::Big(_) => Ok(Refs::None),
        }
    }

    fn replay_items(&self) -> Vec<ReplayItem> {
        let item = |req: velus::CompileRequest| {
            let kinds = req.options.effective_kinds();
            ReplayItem {
                c: kinds.contains(&ArtifactKind::CCode),
                lint: kinds.contains(&ArtifactKind::Lint),
                root: req.root.unwrap_or_default(),
                source: req.source,
            }
        };
        let n = match self {
            Inputs::Big(_) => BIG_SAMPLE,
            _ => SAMPLE,
        };
        (0..n).map(|i| item(self.request(i))).collect()
    }

    fn oracle_programs(&self) -> Vec<&Generated> {
        match self {
            Inputs::Cold(w) => w.pool.iter().take(ORACLE_SAMPLE).collect(),
            Inputs::Big(w) => w.pool.iter().take(BIG_ORACLE_SAMPLE).collect(),
            Inputs::Warm(w) => w.pool.iter().take(ORACLE_SAMPLE).collect(),
        }
    }

    /// Checks one response; records its C size when `i` is in the
    /// `gen_c_bytes` prefix.
    fn check(
        &self,
        refs: &Refs,
        i: usize,
        report: &RequestReport<PipelineCompiler>,
        prefix: &Mutex<Vec<Option<usize>>>,
    ) -> Result<(), String> {
        let artifacts = report.result.as_ref().map_err(|e| e.to_string())?;
        let c = report
            .artifact(&ArtifactKind::CCode)
            .and_then(|a| a.c_code());
        if let Some(c) = c {
            if let Some(slot) = prefix.lock().expect("prefix lock").get_mut(i) {
                *slot = Some(c.len());
            }
        }
        match (self, refs) {
            (Inputs::Cold(_), Refs::Snapshots(snapshots)) => {
                let c = c.ok_or("no C artifact")?;
                match snapshots.get(i) {
                    Some(expected) if c != expected => Err(format!(
                        "{}: emitted C differs from tests/snapshots",
                        report.name
                    )),
                    _ => Ok(()),
                }
            }
            (Inputs::Big(_), _) => {
                c.ok_or("no C artifact")?;
                match report.artifact(&ArtifactKind::Lint).map(|a| &**a) {
                    Some(ServiceArtifact::Lint(lint)) => {
                        match lint.findings.iter().find(|f| f.code.starts_with("E011")) {
                            Some(f) => Err(format!("trap-free program linted {}", f.code)),
                            None => Ok(()),
                        }
                    }
                    _ => Err("no lint artifact".to_owned()),
                }
            }
            (Inputs::Warm(w), Refs::Pool(pool)) => {
                let (ref_c, ref_cycles) = &pool[w.step(i).program];
                for a in artifacts {
                    let same = match &*a.artifact {
                        ServiceArtifact::CCode { c_code } => c_code == ref_c,
                        ServiceArtifact::Wcet(wcet) => wcet.cycles == *ref_cycles,
                        _ => false,
                    };
                    if !same {
                        return Err(format!(
                            "{} artifact (cache hit: {}) differs from the cold compile",
                            a.kind, a.cache_hit
                        ));
                    }
                }
                Ok(())
            }
            _ => unreachable!("references match their workload"),
        }
    }
}

/// How a phase sends requests.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Api {
    /// `CompileService::submit` + `Submission::wait` (the timed run).
    Submit,
    /// `compile_batch` of one request: the entry point that opens a
    /// trace scope with a queue-wait interval (both traced-run phases).
    Batch,
}

fn serve(
    svc: &VelusService,
    api: Api,
    req: velus::CompileRequest,
) -> RequestReport<PipelineCompiler> {
    match api {
        Api::Submit => svc.submit(req).wait(),
        Api::Batch => svc
            .compile_batch(vec![req])
            .items
            .pop()
            .expect("a batch of one reports once"),
    }
}

struct Phase<'a> {
    inputs: &'a Inputs,
    refs: &'a Refs,
    prefix: &'a Mutex<Vec<Option<usize>>>,
}

impl Phase<'_> {
    /// Sends request `i` of the stream and checks the response.
    fn op(&self, svc: &VelusService, api: Api, i: usize, tracer: Option<&Tracer>) -> Op {
        let req = self.inputs.request(i);
        let start = Instant::now();
        let report = serve(svc, api, req);
        let latency_ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = tracer {
            t.maybe_drain(i);
        }
        Op {
            latency_ns,
            // The worker's own time: probing the cache, compiling.
            compute_ns: report.latency.as_nanos() as u64,
            verdict: self.inputs.check(self.refs, i, &report, self.prefix),
        }
    }

    /// Runs the closed loop for `seconds`.
    fn run(
        &self,
        svc: &VelusService,
        api: Api,
        seconds: f64,
        tracer: Option<&Tracer>,
    ) -> LoadResult {
        let min_ops = self.inputs.c_prefix();
        closed_loop(CLIENTS, Duration::from_secs_f64(seconds), min_ops, |i| {
            self.op(svc, api, i, tracer)
        })
    }
}

/// A recorder plus the reducer its events are drained into.
struct Tracer {
    recorder: Recorder,
    reducer: Mutex<Reducer>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            recorder: Recorder::new(RecorderConfig::default()),
            reducer: Mutex::new(Reducer::default()),
        }
    }

    fn maybe_drain(&self, i: usize) {
        if i.is_multiple_of(DRAIN_EVERY) {
            self.drain();
        }
    }

    fn drain(&self) {
        let data = self.recorder.drain();
        self.reducer.lock().expect("reducer lock").absorb(data);
    }

    /// Drains the rest, writes the spans out and notes the per-layer
    /// table.
    fn finish(self, workload: Workload, notes: &mut Vec<String>) -> Reducer {
        self.drain();
        let reducer = self.reducer.into_inner().expect("reducer lock");
        let path = out_dir().join(format!("{}.spans.tsv", workload.name()));
        if let Err(e) = reducer.write_tsv(&path) {
            notes.push(format!("  could not write {}: {e}", path.display()));
        }
        notes.extend(layer_notes(&reducer));
        reducer
    }
}

/// Runs the measured seconds as four quarters — untraced, traced,
/// traced, untraced — so a drift in machine speed over the run cancels
/// out of the comparison. Returns the first traced quarter (the traced
/// quarters' wall time summed) and the tracing overhead in percent.
fn abba(
    seconds: f64,
    tally: &mut Tally,
    notes: &mut Vec<String>,
    mut untraced: impl FnMut(f64) -> LoadResult,
    mut traced: impl FnMut(f64) -> LoadResult,
) -> (LoadResult, f64) {
    let quarter = seconds / 4.0;
    let u1 = untraced(quarter);
    let mut t1 = traced(quarter);
    let t2 = traced(quarter);
    let u2 = untraced(quarter);
    for q in [&u1, &t1, &t2, &u2] {
        tally.load(q);
    }
    notes.push(format!(
        "  ops/s untraced, traced, traced, untraced: {:.0} {:.0} {:.0} {:.0}",
        u1.throughput(),
        t1.throughput(),
        t2.throughput(),
        u2.throughput()
    ));
    let overhead =
        100.0 * ((u1.throughput() + u2.throughput()) / (t1.throughput() + t2.throughput()) - 1.0);
    t1.wall += t2.wall;
    (t1, overhead)
}

/// Per-layer numbers of the service, from the traced phase.
#[derive(Default)]
struct ServerLayer {
    queue_p50: f64,
    queue_p99: f64,
    probe_ns: f64,
    hit_ratio: f64,
    evictions: f64,
    cache_bytes: f64,
    busy_frac: f64,
}

fn server_layer(
    reducer: &Reducer,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    wall: Duration,
) -> ServerLayer {
    let queue = reducer.durations("queue-wait");
    let probes = reducer.durations("cache-probe");
    let busy: u64 = reducer.durations("request").iter().sum();
    let requests = after.requests.saturating_sub(before.requests);
    ServerLayer {
        queue_p50: quantile(&queue, 0.5),
        queue_p99: quantile(&queue, 0.99),
        probe_ns: probes.iter().sum::<u64>() as f64 / probes.len().max(1) as f64,
        hit_ratio: after.cache_hits.saturating_sub(before.cache_hits) as f64
            / requests.max(1) as f64,
        evictions: after.cache_evictions.saturating_sub(before.cache_evictions) as f64,
        cache_bytes: after.cache_bytes as f64,
        busy_frac: busy as f64 / (wall.as_secs_f64() * 1e9 * WORKERS as f64),
    }
}

/// The set-up times of a run, in seconds.
struct Setups {
    /// Wall-clock.
    raw: Vec<f64>,
    /// In reference time.
    reference: Vec<f64>,
}

impl Setups {
    fn note(&self) -> String {
        let ms = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{:.1}", s * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "  set-ups (ms): {}; in reference time: {}",
            ms(&self.raw),
            ms(&self.reference)
        )
    }
}

/// Runs `setup(rep)` [`SETUP_REPS`] times, each between two calibration
/// bursts on this thread, and times it: wall-clock, and in reference
/// time (multiplied by the mean speed of the bursts around it). The
/// result of one set-up is dropped, untimed, before the next starts;
/// the last one is returned.
fn time_setups<T>(mut setup: impl FnMut(u64) -> Result<T, String>) -> Result<(T, Setups), String> {
    let mut setups = Setups {
        raw: Vec::with_capacity(SETUP_REPS),
        reference: Vec::with_capacity(SETUP_REPS),
    };
    let mut last = None;
    let mut before = calib::burst(0, BURST);
    for rep in 0..SETUP_REPS as u64 {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(rep)?);
        let secs = start.elapsed().as_secs_f64();
        let after = calib::burst(0, BURST);
        setups.raw.push(secs);
        setups.reference.push(secs * (before + after) / 2.0);
        before = after;
    }
    Ok((last.expect("at least one set-up"), setups))
}

/// Runs the timed phase as [`SEGMENTS`] equal closed-loop segments with
/// a calibration burst on every client before the first and after each,
/// and joins the segments in reference time: the compute part of each
/// segment's latencies is multiplied by the machine's speed over the
/// bursts around it (see [`crate::calib`] and [`LoadResult::append`]).
fn calibrated(
    seconds: f64,
    min_ops: usize,
    notes: &mut Vec<String>,
    op: impl Fn(usize) -> Op + Sync,
) -> LoadResult {
    let each = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let run = with_steal_note(notes, || {
        segmented_loop(CLIENTS, SEGMENTS, each, min_ops, op, |client| {
            calib::burst(client, BURST)
        })
    });
    let mut load = LoadResult::default();
    let mut raw = LoadResult::default();
    let mut speeds = Vec::with_capacity(SEGMENTS);
    for (k, part) in run.segments.into_iter().enumerate() {
        // Each round is the clients' speeds summed.
        let speed = (run.bursts[k] + run.bursts[k + 1]) / (2 * CLIENTS) as f64;
        speeds.push(speed);
        raw.append(part.clone(), 1.0);
        load.append(part, speed);
    }
    let speed = speeds.iter().sum::<f64>() / speeds.len() as f64;
    let rounds: Vec<String> = run
        .bursts
        .iter()
        .map(|r| format!("{:.3}", r / CLIENTS as f64))
        .collect();
    notes.push(format!(
        "  calibration: speed of each round of bursts relative to the reference machine: {}",
        rounds.join(" ")
    ));
    notes.push(format!(
        "  mean speed {speed:.4} of the reference; unscaled: throughput {:.3} 1/s, p50 {:.6} ms, p99 {:.6} ms",
        raw.throughput(),
        raw.latency_quantile(0.5) / 1e6,
        raw.latency_quantile(0.99) / 1e6
    ));
    load
}

/// The end-to-end metrics (times in reference time).
fn end_to_end(setups: &Setups, load: &LoadResult, c_bytes: f64, wcet: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&setups.reference), "s"),
        metric("throughput_ops_s", load.throughput(), "1/s"),
        metric("latency_p50_ms", load.latency_quantile(0.5) / 1e6, "ms"),
        metric("latency_p99_ms", load.latency_quantile(0.99) / 1e6, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("gen_c_bytes", c_bytes, "bytes"),
        metric("gen_wcet_cycles", wcet, "cycles"),
    ]
}

fn per_layer(r: &Replay, s: &ServerLayer, v: &ValidateTimes, overhead_pct: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for (k, stage) in Stage::ALL.iter().enumerate() {
        let t = r.stages[k];
        out.push(metric(
            format!("{}.ns", stage.name()),
            r.per_compile(t.ns),
            "ns",
        ));
        out.push(metric(
            format!("{}.allocs", stage.name()),
            r.per_compile(t.allocs),
            "count",
        ));
        out.push(metric(
            format!("{}.bytes", stage.name()),
            r.per_compile(t.bytes),
            "bytes",
        ));
    }
    let per_program = |total: u64| total as f64 / v.programs.max(1) as f64;
    out.extend([
        metric(
            "fuse.stmt_ratio",
            r.stmts_after as f64 / r.stmts_before.max(1) as f64,
            "ratio",
        ),
        metric(
            "emit.c_bytes",
            r.c_bytes as f64 / r.c_programs.max(1) as f64,
            "bytes",
        ),
        metric(
            "wcet.ns",
            r.wcet_ns as f64 / r.wcet_calls.max(1) as f64,
            "ns",
        ),
        metric("replay.compile_ns", r.per_compile(r.compile_ns), "ns"),
        metric("server.queue_wait_ns_p50", s.queue_p50, "ns"),
        metric("server.queue_wait_ns_p99", s.queue_p99, "ns"),
        metric("server.cache_probe_ns", s.probe_ns, "ns"),
        metric("server.cache_hit_ratio", s.hit_ratio, "ratio"),
        metric("server.cache_evictions", s.evictions, "count"),
        metric("server.cache_bytes", s.cache_bytes, "bytes"),
        metric("server.worker_busy_frac", s.busy_frac, "ratio"),
        metric("validate.gen_ns", per_program(v.gen_ns), "ns"),
        metric("validate.compile_ns", per_program(v.compile_ns), "ns"),
        metric("validate.oracles_ns", per_program(v.oracles_ns), "ns"),
        metric("obs.trace_overhead_pct", overhead_pct, "%"),
    ]);
    out
}

/// Collects gate failures into an outcome.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
}

impl Tally {
    fn load(&mut self, load: &LoadResult) {
        self.attempted += load.attempted;
        self.failed += load.failed;
        self.failures.extend(load.failures.iter().cloned());
    }

    fn gate(&mut self, checked: usize, failures: Vec<String>) {
        self.attempted += checked as u64;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    fn fatal(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(reason);
    }

    fn outcome(
        self,
        header: String,
        load: &LoadResult,
        metrics: Vec<Metric>,
        mut notes: Vec<String>,
    ) -> Outcome {
        let n = load.ops.len();
        let mut head = vec![
            header,
            format!(
                "  {} operations timed by the client ({} beyond p99); {} of {} attempted failed; failed_ratio {} (ratio)",
                n,
                n - (0.99 * n as f64).ceil().min(n as f64) as usize,
                self.failed,
                self.attempted.max(1),
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        ];
        head.push(format!(
            "  ops/s per tenth of the run: {}",
            load.window_rates()
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        head.extend(self.failures.iter().map(|f| format!("  FAILED {f}")));
        head.append(&mut notes);
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            notes: head,
        }
    }
}

fn header(args: &RunArgs) -> String {
    format!(
        "{}: seed {}, {} s, closed loop of {CLIENTS} clients x 1 outstanding, {WORKERS} workers, trace {}, {} CPUs",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

fn failed_setup(args: &RunArgs, reason: String) -> Outcome {
    let mut tally = Tally::default();
    tally.fatal(reason);
    tally.outcome(header(args), &LoadResult::default(), Vec::new(), Vec::new())
}

/// Runs one workload and reports its outcome.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload {
        Workload::OracleCampaign => run_campaign(args),
        _ => match run_service(args) {
            Ok(outcome) => outcome,
            Err(reason) => failed_setup(args, reason),
        },
    }
}

fn replay_notes(r: &Replay) -> Vec<String> {
    let stage_sum = r.stage_ns();
    vec![format!(
        "  replay: {} compiles; stage self times sum to {:.1}% of the client-timed compile",
        r.compiles,
        100.0 * stage_sum as f64 / r.compile_ns.max(1) as f64
    )]
}

fn layer_notes(reducer: &Reducer) -> Vec<String> {
    let mut notes = vec![format!(
        "  trace: {} spans ({} events dropped by the recorder); per span name: count, mean ns, mean self ns",
        reducer.spans().len(),
        reducer.dropped
    )];
    for l in reducer.layers() {
        notes.push(format!(
            "    {:<14} {:>9} {:>12.0} {:>12.0}",
            l.name,
            l.count,
            l.total_ns as f64 / l.count.max(1) as f64,
            l.self_ns as f64 / l.count.max(1) as f64
        ));
    }
    notes
}

fn run_service(args: &RunArgs) -> Result<Outcome, String> {
    let ((inputs, svc), setups) = time_setups(|_| {
        let inputs = Inputs::build(args.workload, args.seed)?;
        let svc = inputs.service(None);
        inputs.prefill(&svc)?;
        Ok((inputs, svc))
    })?;
    let refs = inputs.refs()?;
    let prefix = Mutex::new(vec![None; inputs.c_prefix()]);
    let phase = Phase {
        inputs: &inputs,
        refs: &refs,
        prefix: &prefix,
    };
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let (load, metrics) = if args.trace {
        let tracer = Tracer::new();
        let traced_svc = inputs.service(Some(tracer.recorder.clone()));
        inputs.prefill(&traced_svc)?;
        tracer.recorder.drain();
        let mut stats = Vec::new();
        let (traced, overhead) = abba(
            args.seconds,
            &mut tally,
            &mut notes,
            |secs| phase.run(&svc, Api::Batch, secs, None),
            |secs| {
                stats.push(traced_svc.stats());
                let load = phase.run(&traced_svc, Api::Batch, secs, Some(&tracer));
                stats.push(traced_svc.stats());
                load
            },
        );
        drop((svc, traced_svc));
        let reducer = tracer.finish(args.workload, &mut notes);
        let server = server_layer(&reducer, &stats[0], &stats[3], traced.wall);
        let mut vt = ValidateTimes::default();
        let programs = inputs.oracle_programs();
        tally.gate(
            programs.len(),
            gate::oracle_sample(&programs, args.seed, &mut vt),
        );
        let r = replay(&inputs.replay_items())?;
        notes.extend(replay_notes(&r));
        (traced, per_layer(&r, &server, &vt, overhead))
    } else {
        let load = calibrated(args.seconds, inputs.c_prefix(), &mut notes, |i| {
            phase.op(&svc, Api::Submit, i, None)
        });
        drop(svc);
        tally.load(&load);
        let mut vt = ValidateTimes::default();
        let programs = inputs.oracle_programs();
        tally.gate(
            programs.len(),
            gate::oracle_sample(&programs, args.seed, &mut vt),
        );
        let c_bytes = match &refs {
            Refs::Pool(pool) => mean(pool.iter().map(|(c, _)| c.len())),
            _ => mean(
                prefix
                    .lock()
                    .expect("prefix lock")
                    .iter()
                    .flatten()
                    .copied(),
            ),
        };
        let wcet = gate::paper_wcet_geomean()?;
        let metrics = end_to_end(&setups, &load, c_bytes, wcet);
        (load, metrics)
    };
    notes.push(setups.note());
    Ok(tally.outcome(header(args), &load, metrics, notes))
}

fn mean(values: impl Iterator<Item = usize>) -> f64 {
    let (sum, n) = values.fold((0usize, 0usize), |(s, n), v| (s + v, n + 1));
    sum as f64 / n.max(1) as f64
}

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        profiles: default_profiles(),
        mutate_pct: 0,
        shrink_budget: 0,
    }
}

fn seed_op(cfg: &CampaignConfig, seed: u64) -> Op {
    let start = Instant::now();
    let result = run_seed(seed, cfg);
    let latency_ns = start.elapsed().as_nanos() as u64;
    let verdict = match result.outcome {
        SeedOutcome::Agreed => Ok(()),
        SeedOutcome::MutantRejected { code } => Err(format!("seed {seed}: rejected with {code}")),
        SeedOutcome::Vacuous => Err(format!("seed {seed}: no dataflow semantics")),
        SeedOutcome::Failure(rep) => Err(format!("seed {seed}: {:?}: {}", rep.kind, rep.detail)),
    };
    Op {
        latency_ns,
        // The seed runs on the client thread itself.
        compute_ns: latency_ns,
        verdict,
    }
}

fn run_campaign(args: &RunArgs) -> Outcome {
    let base = campaign_base(args.seed);
    let cfg = campaign_config();
    let ((), setups) = time_setups(|rep| {
        for k in 0..CAMPAIGN_WARMUP {
            std::hint::black_box(run_seed(base + (1 << 31) + rep * CAMPAIGN_WARMUP + k, &cfg));
        }
        Ok(())
    })
    .expect("campaign set-up cannot fail");
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let op = |i: usize| seed_op(&cfg, base + i as u64);
    let (load, metrics) = if args.trace {
        let tracer = Tracer::new();
        let (traced, overhead) = abba(
            args.seconds,
            &mut tally,
            &mut notes,
            |secs| closed_loop(CLIENTS, Duration::from_secs_f64(secs), 0, op),
            |secs| {
                closed_loop(CLIENTS, Duration::from_secs_f64(secs), 0, |i| {
                    let done = {
                        let _scope = tracer.recorder.scope("campaign-seed");
                        op(i)
                    };
                    tracer.maybe_drain(i);
                    done
                })
            },
        );
        tracer.finish(args.workload, &mut notes);
        let mut vt = ValidateTimes::default();
        let failures = gate::campaign_sample(base..base + SAMPLE as u64, &cfg, &mut vt);
        tally.gate(SAMPLE, failures);
        let items: Vec<ReplayItem> = (base..base + SAMPLE as u64)
            .map(|seed| {
                let (p, _) = campaign_program(seed, &cfg);
                ReplayItem {
                    source: p.source,
                    root: p.root,
                    c: true,
                    lint: false,
                }
            })
            .collect();
        let r = match replay(&items) {
            Ok(r) => r,
            Err(e) => {
                tally.fatal(e);
                Replay::default()
            }
        };
        notes.extend(replay_notes(&r));
        let server = ServerLayer::default();
        (traced, per_layer(&r, &server, &vt, overhead))
    } else {
        let load = calibrated(args.seconds, 0, &mut notes, op);
        tally.load(&load);
        let mut vt = ValidateTimes::default();
        let failures = gate::campaign_sample(base..base + SAMPLE as u64, &cfg, &mut vt);
        tally.gate(SAMPLE, failures);
        let c_bytes =
            gate::campaign_c_bytes(base..base + CAMPAIGN_C_SEEDS, &cfg).unwrap_or_else(|e| {
                tally.fatal(e);
                0.0
            });
        let wcet = gate::paper_wcet_geomean().unwrap_or_else(|e| {
            tally.fatal(e);
            0.0
        });
        let metrics = end_to_end(&setups, &load, c_bytes, wcet);
        (load, metrics)
    };
    notes.push(setups.note());
    tally.outcome(header(args), &load, metrics, notes)
}
