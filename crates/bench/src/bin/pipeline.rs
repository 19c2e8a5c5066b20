//! Per-stage time and allocation profile of the cold compile path.
//!
//! The service benchmark showed that at one worker the service is bound
//! by cold single-threaded compile speed, so this harness measures where
//! a cold `Frontend→Emit` run spends its time *and its allocator*: a
//! counting global allocator snapshots the allocation counters at every
//! stage boundary of a [`StagedPipeline`] run, giving per-stage
//! nanoseconds, allocation counts, and allocated bytes per compile. A
//! stage that has a check gets a second row, `check`, with the check's
//! share of those totals (the counters are read again at the pipeline's
//! `check_start` event, between the transform and its check); in
//! `--json` it is the stage's `check` entry. The front end's two
//! phases, `parse` (lexing included) and `lower` (elaboration and the
//! initialization analysis), get rows of their own the same way, from
//! the pipeline's `phase_start` events.
//!
//! Two corpora are profiled: the 14 paper benchmarks under
//! `benchmarks/`, and a 24-program `velus-testkit` industrial corpus (a
//! third of it sub-clocked).
//!
//! ```text
//! cargo run --release -p velus-bench --bin pipeline \
//!     [--passes N] [--programs N] [--json PATH] [--smoke] \
//!     [--stage NAME] [--overhead [--max-overhead-pct N]] [--scale]
//! ```
//!
//! `--json PATH` writes the profile as a JSON object (see
//! `BENCH_pipeline.json` at the repository root); `--stage NAME`
//! restricts the reported stage rows to one stage (e.g. `--stage
//! frontend` when sweeping front-end changes); `--smoke` runs a tiny
//! corpus, asserts the JSON output is well formed, *and* acts as the
//! allocation guard: it profiles the paper-benchmark corpus and fails
//! if frontend allocs-per-compile exceed [`FRONTEND_ALLOCS_GUARD`]
//! (checked in ~10% above the measured number, so an accidental
//! allocation regression fails CI), if the whole C path (frontend
//! through emit) exceeds [`COMPILE_ALLOCS_GUARD`], or if the
//! static-analysis (lint) pass exceeds [`ANALYSIS_ALLOCS_GUARD`]. The lint pass is forced
//! after emission so the `analysis` stage row carries real numbers,
//! even though a plain compile never runs it. The smoke run also guards
//! the executable semantics: it fails if one `velus::run_oracles` over
//! [`ORACLE_INSTANTS`] instants of a paper benchmark allocates more than
//! [`ORACLE_ALLOCS_GUARD`] times on average, and the cache hit path: it
//! fails if the request content digest is less than
//! [`DIGEST_SPEEDUP_GUARD`] times as fast as byte-at-a-time FNV-1a, and
//! the front end's stack depth: a [`DEEP_EXPR_GUARD_TERMS`]-term sum
//! must compile to C on a service worker's stack, and every nesting
//! shape of [`NESTING_SHAPES`] must parse at ten times the depth that
//! overflowed the old recursive-descent parser on a 256 KiB thread.
//!
//! `--overhead` instead measures the cost of the observability layer:
//! the industrial corpus is compiled with tracing disabled and then
//! with a live [`velus_obs::Recorder`] scope around every compile (each
//! pipeline pass becoming a recorded span), best-of-three per
//! configuration, and the run fails if tracing inflates wall time by
//! more than `--max-overhead-pct` (default 3).
//!
//! `--scale` instead draws cost curves: a program grown along one axis
//! at a time ([`velus_testkit::shapes`]) — a node chaining 2k→16k
//! equations, an `if` nest of 500→4,000 levels, one sum of 1k→8k
//! terms (expression depth), an instance chain of
//! 2k→16k nodes, a root instantiating 2k→16k leaf nodes, and 2k→16k leaf
//! nodes nothing instantiates (one lint finding each) — compiled as
//! `c,lint`, with per-stage ns (best of [`SCALE_REPS`]), allocs and
//! bytes, the emitted C size, and each doubling ratio. The last axis
//! adds a `render` row: rendering its lint findings in both forms, the
//! caret form and JSON. It doubles as the linearity guard:
//! the run fails when a stage's mean time ratio per doubling exceeds
//! [`SCALE_NS_RATIO_GUARD`], or any allocs or C-bytes ratio exceeds
//! [`SCALE_COUNT_RATIO_GUARD`]. `--json PATH` writes the curves (the
//! `scaling` entry of `BENCH_pipeline.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use velus::passes::{PassSink, StagedPipeline};
use velus_bench::suite::{load, BENCHMARKS};
use velus_bench::{parse_bool_flag, parse_flag, parse_string_flag};
use velus_common::IoMode;
use velus_lustre::FrontendScratch;
use velus_obs::trace;
use velus_obs::{Histogram, Recorder, RecorderConfig};
use velus_server::{CompileRequest, ContentDigest, Stage};
use velus_testkit::industrial::{industrial_source, IndustrialConfig};
use velus_testkit::shapes::{
    chain_source, deep_expr_source, instance_chain_source, nest_source, uncalled_leaves_source,
    wide_root_source, NESTING_SHAPES,
};

/// A counting wrapper around the system allocator. Every allocation and
/// reallocation bumps a global counter; the harness reads the counters
/// at stage boundaries to attribute allocations to pipeline stages.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counters are
// plain relaxed atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Accumulated per-stage totals over a corpus sweep.
#[derive(Default, Clone, Copy)]
struct StageTotals {
    ns: u64,
    allocs: u64,
    bytes: u64,
}

impl StageTotals {
    fn add(&mut self, t: StageTotals) {
        self.ns += t.ns;
        self.allocs += t.allocs;
        self.bytes += t.bytes;
    }
}

#[derive(Default)]
struct Profile {
    stages: [StageTotals; Stage::ALL.len()],
    /// The shares of each stage's totals spent in the named phases of
    /// its transform (the front end's `parse` and `lower`).
    phases: [Vec<(&'static str, StageTotals)>; Stage::ALL.len()],
    /// The share of each stage's totals spent in its check, for the
    /// stages that have one.
    checks: [Option<StageTotals>; Stage::ALL.len()],
    compiles: u64,
    total_ns: u64,
    total_allocs: u64,
    total_bytes: u64,
    /// Whole-compile wall times, for tail latency (p99) reporting.
    compile_ns: Histogram,
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("stage in ALL")
}

/// A pass sink that reads the allocation counters at every stage
/// boundary, at every phase of a transform and at the start of every
/// check, so each stage's totals, and its phases' and its check's
/// shares of them, come out of one compile.
struct Marks {
    /// The counters at the end of the last stage.
    last: (u64, u64),
    /// When the running stage started.
    start: Instant,
    /// The running phase: its name, when it started and the counters
    /// then.
    phase: Option<(&'static str, Instant, (u64, u64))>,
    /// Per finished phase: its stage, name and totals.
    phases: Vec<(Stage, &'static str, StageTotals)>,
    /// How long the running stage's transform took, and the counters
    /// when its check started.
    check: Option<(std::time::Duration, (u64, u64))>,
    /// Per finished stage: its totals, and its check's.
    stages: Vec<(Stage, StageTotals, Option<StageTotals>)>,
}

impl Marks {
    /// Ends the running phase of `stage`, if any.
    fn end_phase(&mut self, stage: Stage) {
        if let Some((name, start, (allocs, bytes))) = self.phase.take() {
            let (now_allocs, now_bytes) = counters();
            let totals = StageTotals {
                ns: start.elapsed().as_nanos() as u64,
                allocs: now_allocs - allocs,
                bytes: now_bytes - bytes,
            };
            self.phases.push((stage, name, totals));
        }
    }
}

impl PassSink for Marks {
    fn pass_start(&mut self, _stage: Stage, _name: &'static str) {
        self.start = Instant::now();
    }

    fn phase_start(&mut self, stage: Stage, name: &'static str) {
        self.end_phase(stage);
        self.phase = Some((name, Instant::now(), counters()));
    }

    fn check_start(&mut self, stage: Stage) {
        self.end_phase(stage);
        self.check = Some((self.start.elapsed(), counters()));
    }

    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        self.end_phase(stage);
        let now = counters();
        let since = |(allocs, bytes): (u64, u64), ns: u64| StageTotals {
            ns,
            allocs: now.0 - allocs,
            bytes: now.1 - bytes,
        };
        let check = self
            .check
            .take()
            .map(|(transform, at)| since(at, dur.saturating_sub(transform).as_nanos() as u64));
        let total = since(self.last, dur.as_nanos() as u64);
        self.stages.push((stage, total, check));
        self.last = now;
    }
}

/// Compiles one source cold (front end to C emission), attributing time
/// and allocations to stages, and to their checks, via the pipeline's
/// pass sink. Returns the size of the emitted C in bytes.
fn profile_one(profile: &mut Profile, source: &str, root: Option<&str>) -> usize {
    let mut marks = Marks {
        last: (0, 0),
        start: Instant::now(),
        phase: None,
        phases: Vec::with_capacity(2),
        check: None,
        stages: Vec::with_capacity(Stage::ALL.len()),
    };
    let run_start = counters();
    marks.last = run_start;
    let wall = Instant::now();
    let c_bytes = {
        let mut staged =
            StagedPipeline::from_source(source, root, &mut marks).expect("corpus compiles");
        let c = staged.emit(IoMode::Volatile).expect("corpus emits");
        assert!(!c.is_empty());
        // Force the off-chain lint pass too, so the `analysis` stage row
        // carries real numbers and `--smoke` can guard its allocations.
        staged.lint().expect("corpus lints");
        c.len()
    };
    let elapsed_ns = wall.elapsed().as_nanos() as u64;
    profile.total_ns += elapsed_ns;
    profile.compile_ns.record(elapsed_ns);
    let end = counters();
    profile.compiles += 1;
    profile.total_allocs += end.0 - run_start.0;
    profile.total_bytes += end.1 - run_start.1;
    for (stage, total, check) in marks.stages {
        let k = stage_index(stage);
        profile.stages[k].add(total);
        if let Some(check) = check {
            profile.checks[k].get_or_insert_default().add(check);
        }
    }
    for (stage, name, totals) in marks.phases {
        let phases = &mut profile.phases[stage_index(stage)];
        match phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => t.add(totals),
            None => phases.push((name, totals)),
        }
    }
    c_bytes
}

/// A deterministic industrial corpus of `programs` programs.
fn industrial_corpus(programs: usize) -> Vec<(String, String)> {
    (0..programs)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: 8 + (k % 7) * 3,
                eqs_per_node: 6 + (k % 5) * 2,
                fan_in: 1 + k % 2,
                subclock_depth: k % 3,
            };
            (industrial_source(&cfg), format!("blk{}", cfg.nodes - 1))
        })
        .collect()
}

fn profile_corpus(corpus: &[(String, String)], passes: usize) -> Profile {
    let mut profile = Profile::default();
    for _ in 0..passes {
        for (source, root) in corpus {
            profile_one(&mut profile, source, Some(root));
        }
    }
    profile
}

/// Ceiling on frontend allocs/compile over the paper-benchmark corpus,
/// enforced by `--smoke` (the CI perf guard). Set ~10% above the
/// single-pass measurement (119.7, down from 139.0 when elaboration
/// began reusing its declaration maps across a program's nodes and
/// reading callee signatures from the finished nodes, from 167.1 when
/// parsing began pooling declarations and equations in the surface
/// arena, and from 202.8 before elaboration lowered straight into N-Lustre; the
/// single-pass smoke number runs a touch above the multi-pass profile
/// because identifier interning is not amortized): the count is
/// deterministic — it counts allocator calls, not time — so exceeding it
/// means a real front-end allocation regression, not machine noise.
const FRONTEND_ALLOCS_GUARD: f64 = 132.0;

/// Ceiling on the allocs of a whole cold C compile — every stage from
/// frontend through emit, the lint pass excluded — per compile of the
/// paper-benchmark corpus, enforced by `--smoke`. Set ~10% above the
/// single-pass measurement (458.6; 477.9 before elaboration stopped
/// allocating its declaration maps per node and copying callee
/// signatures, 552.3 before the parser stopped allocating per node and
/// the scheduler stopped building each node's dependency graph in fresh
/// buffers, 614.9 before the schedule and fuse
/// stages stopped re-running the N-Lustre and Obc type checks and
/// fusion stopped copying each body, 719.6 before the IRs after the
/// front end stopped boxing every operator, 651.6 before elaboration
/// lowered straight into N-Lustre), so a pass that goes back to cloning
/// or boxing per statement or per operator, or a dropped re-check that
/// comes back, fails CI.
const COMPILE_ALLOCS_GUARD: f64 = 505.0;

/// Ceiling on analysis (lint) allocs/compile over the paper-benchmark
/// corpus, also enforced by `--smoke`. The lint pass is off the compile
/// chain — a request without `--emit lint` never runs it — but this
/// guard keeps the pass itself from silently bloating: like the
/// front-end guard it counts allocator calls, set ~15% above the
/// measured single-pass number (131.7), so exceeding it means a real
/// analysis allocation regression.
const ANALYSIS_ALLOCS_GUARD: f64 = 155.0;

/// Ceiling on the mean allocations of one `velus::run_oracles` over the
/// paper-benchmark corpus (each benchmark compiled once, then checked
/// for [`ORACLE_INSTANTS`] instants of `default_inputs`), enforced by
/// `--smoke`. Every allocation and reallocation counts, as in the
/// stage rows. Set ~10% above the measured 691.5 (5,819 before the
/// interpreters stopped allocating per call), so exceeding it means an
/// interpreter or checker of the oracle chain went back to allocating
/// per call or per instant.
const ORACLE_ALLOCS_GUARD: f64 = 760.0;

/// Instants per oracle run in the [`ORACLE_ALLOCS_GUARD`] measurement.
const ORACLE_INSTANTS: usize = 10;

/// Mean allocations per `velus::run_oracles` over the paper corpus
/// (compilation excluded); every run must agree on every oracle.
fn oracle_allocs_per_run() -> f64 {
    let mut allocs = 0u64;
    for name in BENCHMARKS {
        let c = velus::compile(&load(name), Some(name)).expect("corpus compiles");
        let inputs = velus::validate::default_inputs(&c, ORACLE_INSTANTS);
        let before = counters().0;
        let report = velus::run_oracles(&c, &inputs, ORACLE_INSTANTS).expect("corpus validates");
        allocs += counters().0 - before;
        assert!(
            report.agreed(),
            "{name}: oracle divergence {:?}",
            report.divergence
        );
    }
    allocs as f64 / BENCHMARKS.len() as f64
}

/// Terms in the sum `--smoke` compiles to C on a thread of
/// [`velus_server::WORKER_STACK_BYTES`] (the front-end stack guard):
/// elaboration still recurses once per operator of an expression, so a
/// frame that grows lowers the depth a service worker takes. A stack
/// overflow aborts the run. Release builds only: a debug build's frames
/// are several times larger.
const DEEP_EXPR_GUARD_TERMS: usize = 12_000;

/// Compiles a [`DEEP_EXPR_GUARD_TERMS`]-term sum to C on a worker-sized
/// thread and returns the C's length.
fn deep_expr_c_on_a_worker_stack() -> usize {
    let source = velus_testkit::shapes::deep_expr_source(DEEP_EXPR_GUARD_TERMS);
    std::thread::Builder::new()
        .stack_size(velus_server::WORKER_STACK_BYTES)
        .spawn(move || {
            let compiled = velus::compile(&source, Some("deep")).expect("the deep sum compiles");
            velus::emit_c(&compiled, IoMode::Volatile).len()
        })
        .expect("spawn the stack-guard thread")
        .join()
        .expect("the deep sum compiles to C")
}

/// The stack of the thread on which `--smoke` parses every nesting
/// shape (the parser's stack guard): a 32nd of
/// [`velus_server::WORKER_STACK_BYTES`].
const NESTING_GUARD_STACK_BYTES: usize = 256 * 1024;

/// Lexes and parses every [`NESTING_SHAPES`] shape at ten times the
/// depth that overflowed the old recursive-descent parser, on a
/// [`NESTING_GUARD_STACK_BYTES`] thread: a parser that took a stack
/// frame per nesting level aborts the run. Returns the source bytes
/// parsed.
fn nesting_shapes_parse_on_a_small_stack() -> usize {
    std::thread::Builder::new()
        .stack_size(NESTING_GUARD_STACK_BYTES)
        .spawn(|| {
            let mut scratch = FrontendScratch::new();
            NESTING_SHAPES
                .iter()
                .map(|(name, shape, wall)| {
                    let source = shape(10 * wall);
                    if let Err(e) = scratch.parse(&source) {
                        panic!("{name}: {e}");
                    }
                    source.len()
                })
                .sum()
        })
        .expect("spawn the parser stack-guard thread")
        .join()
        .expect("every nesting shape parses on a small stack")
}

/// Floor on how many times faster [`ContentDigest::of`] — the one pass
/// over a request's content that every cache hit pays — reads the paper
/// corpus plus a 1 MiB buffer than a byte-at-a-time FNV-1a loop over the
/// same bytes, enforced by `--smoke` (the cache hit-path guard). Both
/// loops run in one process, best of [`DIGEST_RUNS`] each, so the ratio
/// calibrates itself to the machine; the word-at-a-time digest measures
/// about 10x on a 2-vCPU VM. A digest that went back to reading bytes
/// one at a time lands near 1x.
const DIGEST_SPEEDUP_GUARD: f64 = 4.0;

/// Timed repetitions per loop in the [`DIGEST_SPEEDUP_GUARD`] check.
const DIGEST_RUNS: usize = 5;

/// The [`DIGEST_SPEEDUP_GUARD`] ratio: best FNV-1a time over best
/// digest time, over the same requests.
fn digest_speedup() -> f64 {
    let mut requests: Vec<CompileRequest> = BENCHMARKS
        .iter()
        .map(|name| CompileRequest::new(*name, load(name)).with_root(*name))
        .collect();
    // 1 MiB of printable ASCII from a fixed LCG: the same bytes every run.
    let mut state: u32 = 1;
    let big: String = (0..1 << 20)
        .map(|_| {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            char::from(b' ' + ((state >> 16) % 95) as u8)
        })
        .collect();
    requests.push(CompileRequest::new("1MiB", big));
    let best = |digest_one: &dyn Fn(&CompileRequest) -> u64| {
        (0..DIGEST_RUNS)
            .map(|_| {
                let start = Instant::now();
                let folded = requests
                    .iter()
                    .fold(0u64, |acc, r| acc ^ digest_one(black_box(r)));
                black_box(folded);
                start.elapsed()
            })
            .min()
            .expect("at least one run")
    };
    let digest = best(&|r| ContentDigest::of(r).seed());
    let fnv = best(&|r| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let root = r.root.as_deref().unwrap_or("");
        for &b in r.source.as_bytes().iter().chain(root.as_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    });
    fnv.as_secs_f64() / digest.as_secs_f64().max(1e-9)
}

fn print_profile(label: &str, p: &Profile, stage_filter: Option<&str>) {
    println!("{label}: {} cold compiles", p.compiles);
    println!(
        "  {:<16} {:>14} {:>16} {:>16}",
        "stage", "ns/compile", "allocs/compile", "bytes/compile"
    );
    let row = |name: &str, t: StageTotals| {
        println!(
            "  {:<16} {:>14.0} {:>16.1} {:>16.0}",
            name,
            t.ns as f64 / p.compiles as f64,
            t.allocs as f64 / p.compiles as f64,
            t.bytes as f64 / p.compiles as f64
        );
    };
    for stage in Stage::ALL {
        if stage_filter.is_some_and(|f| f != stage.name()) {
            continue;
        }
        let k = stage_index(stage);
        row(stage.name(), p.stages[k]);
        for (name, t) in &p.phases[k] {
            row(&format!("  {name}"), *t);
        }
        if let Some(check) = p.checks[k] {
            row("  check", check);
        }
    }
    println!(
        "  {:<16} {:>14.0} {:>16.1} {:>16.0}",
        "total",
        p.total_ns as f64 / p.compiles as f64,
        p.total_allocs as f64 / p.compiles as f64,
        p.total_bytes as f64 / p.compiles as f64
    );
    println!(
        "  compile wall: p50 {:.2?}  p99 {:.2?}\n",
        std::time::Duration::from_nanos(p.compile_ns.percentile(50.0)),
        std::time::Duration::from_nanos(p.compile_ns.percentile(99.0))
    );
}

fn json_profile(label: &str, p: &Profile, stage_filter: Option<&str>) -> String {
    let mut out = String::with_capacity(1024);
    let per = p.compiles as f64;
    let _ = write!(
        out,
        "    \"{label}\": {{\n      \"compiles\": {},",
        p.compiles
    );
    let _ = write!(
        out,
        "\n      \"total\": {{\"ns_per_compile\": {:.0}, \"ns_p50\": {}, \"ns_p99\": {}, \"allocs_per_compile\": {:.1}, \"bytes_per_compile\": {:.0}}},",
        p.total_ns as f64 / per,
        p.compile_ns.percentile(50.0),
        p.compile_ns.percentile(99.0),
        p.total_allocs as f64 / per,
        p.total_bytes as f64 / per
    );
    out.push_str("\n      \"stages\": {");
    let stages: Vec<Stage> = Stage::ALL
        .iter()
        .copied()
        .filter(|s| stage_filter.is_none_or(|f| f == s.name()))
        .collect();
    let totals = |t: StageTotals| {
        format!(
            "\"ns_per_compile\": {:.0}, \"allocs_per_compile\": {:.1}, \"bytes_per_compile\": {:.0}",
            t.ns as f64 / per,
            t.allocs as f64 / per,
            t.bytes as f64 / per,
        )
    };
    for (i, stage) in stages.iter().enumerate() {
        let k = stage_index(*stage);
        let mut parts: String = p.phases[k]
            .iter()
            .map(|(name, t)| format!(", \"{name}\": {{{}}}", totals(*t)))
            .collect();
        if let Some(c) = p.checks[k] {
            let _ = write!(parts, ", \"check\": {{{}}}", totals(c));
        }
        let _ = write!(
            out,
            "\n        \"{}\": {{{}{parts}}}{}",
            stage.name(),
            totals(p.stages[k]),
            if i + 1 == stages.len() { "" } else { "," }
        );
    }
    out.push_str("\n      }\n    }");
    out
}

/// One corpus: `(source, root node)` pairs.
type Corpus = Vec<(String, String)>;

/// A pass sink that mirrors every pipeline pass into the ambient trace
/// scope — the same span shape the compile service records. When no
/// scope is installed (the tracing-off configuration) every call is an
/// inert no-op, so both overhead configurations run identical code and
/// only the recorder toggles.
#[derive(Default)]
struct TraceSink {
    open: Option<trace::SpanToken>,
}

impl PassSink for TraceSink {
    fn pass_start(&mut self, _stage: Stage, name: &'static str) {
        self.open = Some(trace::enter(name));
    }

    fn pass_end(&mut self, _stage: Stage, _dur: std::time::Duration) {
        if let Some(token) = self.open.take() {
            trace::exit(token);
        }
    }

    fn pass_fail(&mut self, _stage: Stage, _name: &'static str) {
        if let Some(token) = self.open.take() {
            trace::exit(token);
        }
    }
}

/// Wall time of one full corpus sweep, compiling every program cold
/// with the pass sink above; `recorder` decides whether the spans land
/// in a live ring buffer or vanish in the no-scope fast path.
fn timed_sweep(corpus: &[(String, String)], passes: usize, recorder: Option<&Recorder>) -> f64 {
    let wall = Instant::now();
    for _ in 0..passes {
        for (source, root) in corpus {
            let _scope = recorder.map(|rec| rec.scope(root));
            let mut sink = TraceSink::default();
            let mut staged = StagedPipeline::from_source(source, Some(root), &mut sink)
                .expect("corpus compiles");
            let c = staged.emit(IoMode::Volatile).expect("corpus emits");
            assert!(!c.is_empty());
        }
    }
    wall.elapsed().as_secs_f64()
}

/// The `--overhead` mode: best-of-`REPS` corpus sweeps with tracing off
/// and on, interleaved so drift hits both configurations alike. Fails
/// the process when tracing inflates wall time beyond the budget.
fn overhead_gate(corpus: &Corpus, passes: usize, max_pct: f64) {
    const REPS: usize = 3;
    let recorder = Recorder::new(RecorderConfig::default());
    // One throwaway sweep per configuration to warm caches and the
    // recorder's thread-local ring registration.
    timed_sweep(corpus, 1, None);
    timed_sweep(corpus, 1, Some(&recorder));
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..REPS {
        off = off.min(timed_sweep(corpus, passes, None));
        on = on.min(timed_sweep(corpus, passes, Some(&recorder)));
    }
    let events = recorder.drain();
    let pct = (on - off) / off * 100.0;
    println!(
        "tracing overhead: off {off:.4}s  on {on:.4}s  overhead {pct:+.2}%  (budget {max_pct:.1}%, {} events recorded)",
        events.events.len()
    );
    assert!(
        pct <= max_pct,
        "tracing overhead {pct:.2}% exceeds the {max_pct:.1}% budget"
    );
    println!("overhead ok: tracing stays within {max_pct:.1}% of untraced wall time");
}

/// Sizes of the equations-per-node axis of `--scale` (one node whose
/// body is a dependency chain of this many equations), and of its three
/// node-count axes (an instance chain of this many nodes, a root
/// instantiating this many leaf nodes, and this many leaf nodes that
/// nothing instantiates).
const SCALE_CHAIN: [usize; 4] = [2_000, 4_000, 8_000, 16_000];

/// Sizes of the nesting axis of `--scale`: one node whose output is a
/// right-nested `if` of this many levels.
const SCALE_NEST: [usize; 4] = [500, 1_000, 2_000, 4_000];

/// Sizes of the expression-depth axis of `--scale`: one equation summing
/// this many terms. The largest stays under the elaborator's recursion
/// limit on the main thread's stack.
const SCALE_DEEP: [usize; 4] = [1_000, 2_000, 4_000, 8_000];

/// Timed runs per `--scale` point; each stage reports its best time.
const SCALE_REPS: usize = 5;

/// `--scale` fails when a stage's time grows by more than this factor
/// per doubling, averaged (geometrically) over the whole axis. A linear
/// stage doubles, a quadratic one quadruples. A single doubling is not
/// guarded: on a shared machine one slow or fast point moves a linear
/// stage's step ratio past 3.5 now and then, while the average over the
/// axis stays near 2.
const SCALE_NS_RATIO_GUARD: f64 = 3.0;

/// `--scale` fails when a stage's allocation count, or the emitted C,
/// grows by more than this factor per doubling on any axis. Both
/// counts are deterministic, so the bound is tight.
const SCALE_COUNT_RATIO_GUARD: f64 = 2.3;

/// One point of a scaling curve: per-stage best ns, allocs and bytes of
/// a `c,lint` compile, the size of the emitted C, and, on the axis that
/// measures it, the cost of rendering the lint findings.
struct ScalePoint {
    size: usize,
    stages: [StageTotals; Stage::ALL.len()],
    c_bytes: usize,
    render: Option<StageTotals>,
}

/// Compiles `source` as `c,lint` untimed, then renders its lint findings
/// in both forms, human and JSON, and returns the time and allocations
/// of the rendering alone.
fn render_findings(source: &str, root: &str) -> StageTotals {
    let mut observe = |_: Stage, _: std::time::Duration| {};
    let mut staged =
        StagedPipeline::from_source(source, Some(root), &mut observe).expect("corpus compiles");
    let findings = staged.lint().expect("corpus lints");
    assert!(!findings.is_empty(), "the axis draws lint findings");
    let before = counters();
    let start = Instant::now();
    black_box(findings.render_human(source));
    black_box(findings.render_json(source));
    let ns = start.elapsed().as_nanos() as u64;
    let after = counters();
    StageTotals {
        ns,
        allocs: after.0 - before.0,
        bytes: after.1 - before.1,
    }
}

/// Measures one curve: each source once untimed (interning its
/// identifiers, so every timed run sees the same deterministic
/// allocation counts), then [`SCALE_REPS`] rounds over all sizes, so a
/// slow spell of the machine hits one round rather than one size. With
/// `render`, each round also times [`render_findings`].
fn scale_curve(
    sizes: &[usize],
    source: impl Fn(usize) -> String,
    root: &str,
    render: bool,
) -> Vec<ScalePoint> {
    let sources: Vec<String> = sizes.iter().map(|&n| source(n)).collect();
    let mut points: Vec<ScalePoint> = sizes
        .iter()
        .zip(&sources)
        .map(|(&size, src)| ScalePoint {
            size,
            stages: [StageTotals {
                ns: u64::MAX,
                ..StageTotals::default()
            }; Stage::ALL.len()],
            c_bytes: profile_one(&mut Profile::default(), src, Some(root)),
            render: render.then(|| StageTotals {
                ns: u64::MAX,
                ..render_findings(src, root)
            }),
        })
        .collect();
    for _ in 0..SCALE_REPS {
        for (point, src) in points.iter_mut().zip(&sources) {
            let mut p = Profile::default();
            profile_one(&mut p, src, Some(root));
            for (best, t) in point.stages.iter_mut().zip(p.stages) {
                *best = StageTotals {
                    ns: best.ns.min(t.ns),
                    allocs: t.allocs,
                    bytes: t.bytes,
                };
            }
            if let Some(best) = &mut point.render {
                let t = render_findings(src, root);
                best.ns = best.ns.min(t.ns);
            }
        }
    }
    points
}

/// Growth factor per step of a doubling curve.
fn ratios(values: &[u64]) -> Vec<f64> {
    values
        .windows(2)
        .map(|w| w[1] as f64 / w[0].max(1) as f64)
        .collect()
}

/// Geometric mean of the per-doubling growth over a whole curve.
fn mean_ratio(values: &[u64]) -> f64 {
    let (first, last) = (
        values[0].max(1) as f64,
        *values.last().expect("a curve") as f64,
    );
    (last / first).powf(1.0 / (values.len() - 1) as f64)
}

fn json_list<T: std::fmt::Display>(values: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn ratio_list(rs: &[f64]) -> String {
    json_list(rs.iter().map(|r| format!("{r:.2}")))
}

/// The `--scale` mode: per-stage cost curves along six axes (equations
/// per node, `if`-nesting depth, expression depth, instance depth,
/// instances per node, lint findings), printed as tables with doubling ratios. Returns them
/// as one JSON object, with the guard violations: every row (a stage, or
/// the rendering of the findings) whose mean time ratio breaks
/// [`SCALE_NS_RATIO_GUARD`] or whose count ratio breaks
/// [`SCALE_COUNT_RATIO_GUARD`], on any axis.
fn scaling() -> (String, Vec<String>) {
    let axes: [(&str, &str, Vec<ScalePoint>); 6] = [
        (
            "chain",
            "equations per node",
            scale_curve(&SCALE_CHAIN, chain_source, "chain", false),
        ),
        (
            "nest",
            "if-nesting depth",
            scale_curve(&SCALE_NEST, nest_source, "nest", false),
        ),
        (
            "deep_expr",
            "terms of one sum",
            scale_curve(&SCALE_DEEP, deep_expr_source, "deep", false),
        ),
        (
            "instance_chain",
            "nodes, instance depth = node count",
            scale_curve(&SCALE_CHAIN, instance_chain_source, "top", false),
        ),
        (
            "wide_root",
            "leaf nodes one root instantiates",
            scale_curve(&SCALE_CHAIN, wide_root_source, "top", false),
        ),
        (
            "lint_findings",
            "leaf nodes nothing instantiates, one lint finding each",
            scale_curve(&SCALE_CHAIN, uncalled_leaves_source, "top", true),
        ),
    ];
    let mut violations: Vec<String> = Vec::new();
    let mut sections: Vec<String> = Vec::new();
    for (axis, what, points) in &axes {
        println!("scale axis `{axis}` ({what}), c,lint per compile, best of {SCALE_REPS}");
        println!(
            "  {:<10} {:>7} {:>12} {:>10} {:>12}   {:>6} {:>6} {:>6}",
            "stage", "size", "ns", "allocs", "bytes", "x ns", "x alc", "x byt"
        );
        let mut stage_json: Vec<String> = Vec::new();
        // One row per stage, then the rendering row where it was measured.
        let mut rows: Vec<(&str, Vec<StageTotals>)> = Stage::ALL
            .iter()
            .map(|&stage| {
                let k = stage_index(stage);
                (stage.name(), points.iter().map(|p| p.stages[k]).collect())
            })
            .collect();
        if let Some(render) = points.iter().map(|p| p.render).collect::<Option<Vec<_>>>() {
            rows.push(("render", render));
        }
        for (name, totals) in &rows {
            let ns: Vec<u64> = totals.iter().map(|t| t.ns).collect();
            let allocs: Vec<u64> = totals.iter().map(|t| t.allocs).collect();
            let bytes: Vec<u64> = totals.iter().map(|t| t.bytes).collect();
            let (rn, ra, rb) = (ratios(&ns), ratios(&allocs), ratios(&bytes));
            for (i, p) in points.iter().enumerate() {
                let r = |rs: &[f64]| {
                    i.checked_sub(1)
                        .map_or(String::new(), |j| format!("{:.2}", rs[j]))
                };
                println!(
                    "  {:<10} {:>7} {:>12} {:>10} {:>12}   {:>6} {:>6} {:>6}",
                    name,
                    p.size,
                    ns[i],
                    allocs[i],
                    bytes[i],
                    r(&rn),
                    r(&ra),
                    r(&rb)
                );
            }
            let mean = mean_ratio(&ns);
            println!(
                "  {name:<10} {:>7} mean ns ratio per doubling {mean:.2}",
                ""
            );
            if mean > SCALE_NS_RATIO_GUARD {
                violations.push(format!(
                    "{axis}/{name}: mean ns ratio {mean:.2} (per doubling {rn:.2?})"
                ));
            }
            if ra.iter().any(|&r| r > SCALE_COUNT_RATIO_GUARD) {
                violations.push(format!("{axis}/{name}: allocs ratios {ra:.2?}"));
            }
            stage_json.push(format!(
                "          \"{}\": {{\"ns\": {}, \"allocs\": {}, \"bytes\": {}, \"ns_ratio\": {}, \"ns_ratio_mean\": {:.2}, \"allocs_ratio\": {}, \"bytes_ratio\": {}}}",
                name,
                json_list(&ns),
                json_list(&allocs),
                json_list(&bytes),
                ratio_list(&rn),
                mean,
                ratio_list(&ra),
                ratio_list(&rb)
            ));
        }
        let c: Vec<u64> = points.iter().map(|p| p.c_bytes as u64).collect();
        let rc = ratios(&c);
        println!("  {:<10} {}  ratios {rc:.2?}\n", "C bytes", json_list(&c));
        if rc.iter().any(|&r| r > SCALE_COUNT_RATIO_GUARD) {
            violations.push(format!("{axis}/C bytes: ratios {rc:.2?}"));
        }
        sections.push(format!(
            "      \"{axis}\": {{\n        \"axis\": \"{what}\",\n        \"sizes\": {},\n        \"c_bytes\": {},\n        \"c_bytes_ratio\": {},\n        \"stages\": {{\n{}\n        }}\n      }}",
            json_list(points.iter().map(|p| p.size)),
            json_list(&c),
            ratio_list(&rc),
            stage_json.join(",\n")
        ));
    }
    let json = format!(
        "{{\n    \"benchmark\": \"velus-bench --bin pipeline --scale\",\n    \"axes\": {{\n{}\n    }}\n  }}",
        sections.join(",\n")
    );
    (json, violations)
}

fn main() {
    let smoke = parse_bool_flag("--smoke");
    let overhead = parse_bool_flag("--overhead");
    let passes = parse_flag("--passes", if smoke || overhead { 1 } else { 3 });
    let programs = parse_flag("--programs", if smoke { 2 } else { 24 });
    let stage_filter = parse_string_flag("--stage");
    if let Some(f) = stage_filter.as_deref() {
        assert!(
            Stage::ALL.iter().any(|s| s.name() == f),
            "--stage {f}: unknown stage (expected one of {})",
            Stage::ALL
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if parse_bool_flag("--scale") {
        println!("pipeline bench: scaling curves\n");
        let (json, violations) = scaling();
        let json = format!("{{\n  \"scaling\": {json}\n}}\n");
        velus_testkit::json::parse(&json).unwrap_or_else(|e| panic!("malformed JSON: {e}\n{json}"));
        if let Some(path) = parse_string_flag("--json") {
            std::fs::write(&path, &json).expect("write --json file");
            println!("wrote scaling curves to {path}");
        }
        assert!(
            violations.is_empty(),
            "superlinear growth (guards per doubling: mean ns x{SCALE_NS_RATIO_GUARD}, allocs \
             and C bytes x{SCALE_COUNT_RATIO_GUARD}):\n  {}",
            violations.join("\n  ")
        );
        println!(
            "scale ok: per doubling, every mean ns ratio within x{SCALE_NS_RATIO_GUARD}, every \
             allocs and C-bytes ratio within x{SCALE_COUNT_RATIO_GUARD}"
        );
        return;
    }

    if overhead {
        let max_pct = parse_flag("--max-overhead-pct", 3) as f64;
        println!("pipeline bench: tracing overhead gate ({programs} programs, {passes} passes)\n");
        overhead_gate(&industrial_corpus(programs), passes, max_pct);
        return;
    }

    let benchmarks: Corpus = BENCHMARKS
        .iter()
        .map(|name| (load(name), (*name).to_owned()))
        .collect();
    let mut corpora: Vec<(&str, Corpus)> = Vec::new();
    if smoke {
        // The smoke run doubles as the front-end allocation guard, so
        // it profiles the (fixed, deterministic) benchmark corpus too.
        corpora.push(("benchmarks", benchmarks));
        corpora.push(("smoke", industrial_corpus(programs)));
    } else {
        corpora.push(("benchmarks", benchmarks));
        corpora.push(("industrial24", industrial_corpus(programs)));
    }

    println!("pipeline bench: per-stage cold compile profile ({passes} passes)\n");
    let mut sections: Vec<String> = Vec::new();
    let mut frontend_allocs_on_benchmarks = 0.0f64;
    let mut compile_allocs_on_benchmarks = 0.0f64;
    let mut analysis_allocs_on_benchmarks = 0.0f64;
    for (label, corpus) in &corpora {
        let profile = profile_corpus(corpus, passes);
        print_profile(label, &profile, stage_filter.as_deref());
        sections.push(json_profile(label, &profile, stage_filter.as_deref()));
        if *label == "benchmarks" {
            let t = profile.stages[stage_index(Stage::Frontend)];
            frontend_allocs_on_benchmarks = t.allocs as f64 / profile.compiles as f64;
            let c_path: u64 = Stage::ALL
                .iter()
                .filter(|&&s| s != Stage::Analysis)
                .map(|&s| profile.stages[stage_index(s)].allocs)
                .sum();
            compile_allocs_on_benchmarks = c_path as f64 / profile.compiles as f64;
            let a = profile.stages[stage_index(Stage::Analysis)];
            analysis_allocs_on_benchmarks = a.allocs as f64 / profile.compiles as f64;
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"velus-bench --bin pipeline --passes {passes} --programs {programs}\",\n  \"corpora\": {{\n{}\n  }}\n}}\n",
        sections.join(",\n")
    );
    velus_testkit::json::parse(&json).unwrap_or_else(|e| panic!("malformed JSON: {e}\n{json}"));
    if let Some(path) = parse_string_flag("--json") {
        std::fs::write(&path, &json).expect("write --json file");
        println!("wrote profile to {path}");
    }
    if smoke {
        let oracle_allocs = oracle_allocs_per_run();
        let speedup = digest_speedup();
        let deep_c_bytes = deep_expr_c_on_a_worker_stack();
        let nested_bytes = nesting_shapes_parse_on_a_small_stack();
        assert!(
            frontend_allocs_on_benchmarks <= FRONTEND_ALLOCS_GUARD,
            "frontend allocation regression: {frontend_allocs_on_benchmarks:.1} allocs/compile \
             on the benchmark corpus exceeds the checked-in guard of {FRONTEND_ALLOCS_GUARD:.0} \
             (see FRONTEND_ALLOCS_GUARD in crates/bench/src/bin/pipeline.rs)"
        );
        assert!(
            compile_allocs_on_benchmarks <= COMPILE_ALLOCS_GUARD,
            "compile allocation regression: {compile_allocs_on_benchmarks:.1} allocs per C \
             compile (frontend through emit) on the benchmark corpus exceeds the checked-in \
             guard of {COMPILE_ALLOCS_GUARD:.0} (see COMPILE_ALLOCS_GUARD in \
             crates/bench/src/bin/pipeline.rs)"
        );
        assert!(
            analysis_allocs_on_benchmarks <= ANALYSIS_ALLOCS_GUARD,
            "lint allocation regression: {analysis_allocs_on_benchmarks:.1} allocs/compile \
             on the benchmark corpus exceeds the checked-in guard of {ANALYSIS_ALLOCS_GUARD:.0} \
             (see ANALYSIS_ALLOCS_GUARD in crates/bench/src/bin/pipeline.rs)"
        );
        assert!(
            oracle_allocs <= ORACLE_ALLOCS_GUARD,
            "oracle-chain allocation regression: {oracle_allocs:.1} allocs per run_oracles \
             ({ORACLE_INSTANTS} instants) on the benchmark corpus exceeds the checked-in guard \
             of {ORACLE_ALLOCS_GUARD:.0} (see ORACLE_ALLOCS_GUARD in \
             crates/bench/src/bin/pipeline.rs)"
        );
        assert!(
            speedup >= DIGEST_SPEEDUP_GUARD,
            "cache hit-path regression: the content digest runs only {speedup:.1}x as fast as \
             byte-at-a-time FNV-1a over the same bytes, below the checked-in guard of \
             {DIGEST_SPEEDUP_GUARD:.0}x (see DIGEST_SPEEDUP_GUARD in \
             crates/bench/src/bin/pipeline.rs)"
        );
        println!(
            "smoke ok: harness emitted well-formed JSON; frontend allocs/compile \
             {frontend_allocs_on_benchmarks:.1} within guard {FRONTEND_ALLOCS_GUARD:.0}; C-path \
             allocs/compile {compile_allocs_on_benchmarks:.1} within guard \
             {COMPILE_ALLOCS_GUARD:.0}; analysis allocs/compile {analysis_allocs_on_benchmarks:.1} within guard \
             {ANALYSIS_ALLOCS_GUARD:.0}; oracle allocs/run {oracle_allocs:.1} within guard \
             {ORACLE_ALLOCS_GUARD:.0}; content digest {speedup:.1}x FNV-1a, guard \
             {DIGEST_SPEEDUP_GUARD:.0}x; a {DEEP_EXPR_GUARD_TERMS}-term sum compiles to \
             {deep_c_bytes} bytes of C on a worker stack; {} nesting shapes ({nested_bytes} \
             bytes) parse on a {} KiB stack",
            NESTING_SHAPES.len(),
            NESTING_GUARD_STACK_BYTES / 1024
        );
    }
}
