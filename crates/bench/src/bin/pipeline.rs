//! Per-stage time and allocation profile of the cold compile path.
//!
//! The service benchmark showed that at one worker the service is bound
//! by cold single-threaded compile speed, so this harness measures where
//! a cold `Frontend→Emit` run spends its time *and its allocator*: a
//! counting global allocator snapshots the allocation counters at every
//! stage boundary of a [`StagedPipeline`] run, giving per-stage
//! nanoseconds, allocation counts, and allocated bytes per compile.
//!
//! Two corpora are profiled: the 14 paper benchmarks under
//! `benchmarks/`, and the 24-program `velus-testkit` industrial corpus
//! the service benchmark uses (a third of it sub-clocked).
//!
//! ```text
//! cargo run --release -p velus-bench --bin pipeline \
//!     [--passes N] [--programs N] [--json PATH] [--smoke] \
//!     [--stage NAME] [--overhead [--max-overhead-pct N]]
//! ```
//!
//! `--json PATH` writes the profile as a JSON object (see
//! `BENCH_pipeline.json` at the repository root); `--stage NAME`
//! restricts the reported stage rows to one stage (e.g. `--stage
//! frontend` when sweeping front-end changes); `--smoke` runs a tiny
//! corpus, asserts the JSON output is well formed, *and* acts as the
//! allocation guard: it profiles the paper-benchmark corpus and fails
//! if frontend allocs-per-compile exceed [`FRONTEND_ALLOCS_GUARD`]
//! (checked in ~10% above the post-arena number, so an accidental
//! allocation regression fails CI) or if the static-analysis (lint)
//! pass exceeds [`ANALYSIS_ALLOCS_GUARD`]. The lint pass is forced
//! after emission so the `analysis` stage row carries real numbers,
//! even though a plain compile never runs it.
//!
//! `--overhead` instead measures the cost of the observability layer:
//! the industrial corpus is compiled with tracing disabled and then
//! with a live [`velus_obs::Recorder`] scope around every compile (each
//! pipeline pass becoming a recorded span), best-of-three per
//! configuration, and the run fails if tracing inflates wall time by
//! more than `--max-overhead-pct` (default 3).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use velus::passes::{PassSink, StagedPipeline};
use velus_bench::suite::{load, BENCHMARKS};
use velus_bench::{parse_bool_flag, parse_flag, parse_string_flag};
use velus_clight::printer::TestIo;
use velus_obs::trace;
use velus_obs::{Histogram, Recorder, RecorderConfig};
use velus_server::Stage;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

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

#[derive(Default)]
struct Profile {
    stages: [StageTotals; Stage::ALL.len()],
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

/// Compiles one source cold (front end to C emission), attributing time
/// and allocations to stages via the pipeline's stage observer.
fn profile_one(profile: &mut Profile, source: &str, root: Option<&str>) {
    let mut marks: Vec<(Stage, u64, u64, u64)> = Vec::with_capacity(Stage::ALL.len());
    let run_start = counters();
    let mut last = run_start;
    let wall = Instant::now();
    {
        let mut observe = |stage: Stage, dur: std::time::Duration| {
            let now = counters();
            marks.push((stage, dur.as_nanos() as u64, now.0 - last.0, now.1 - last.1));
            last = now;
        };
        let mut staged =
            StagedPipeline::from_source(source, root, &mut observe).expect("corpus compiles");
        let c = staged.emit(TestIo::Volatile).expect("corpus emits");
        assert!(!c.is_empty());
        // Force the off-chain lint pass too, so the `analysis` stage row
        // carries real numbers and `--smoke` can guard its allocations.
        staged.lint().expect("corpus lints");
    }
    let elapsed_ns = wall.elapsed().as_nanos() as u64;
    profile.total_ns += elapsed_ns;
    profile.compile_ns.record(elapsed_ns);
    let end = counters();
    profile.compiles += 1;
    profile.total_allocs += end.0 - run_start.0;
    profile.total_bytes += end.1 - run_start.1;
    for (stage, ns, allocs, bytes) in marks {
        let t = &mut profile.stages[stage_index(stage)];
        t.ns += ns;
        t.allocs += allocs;
        t.bytes += bytes;
    }
}

/// The same deterministic industrial corpus the service benchmark uses.
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
/// post-arena single-pass measurement (284.4; see `BENCH_pipeline.json`,
/// `after_arena_frontend` — the single-pass smoke number runs a touch
/// above the three-pass profile because identifier interning is not
/// amortized): the count is deterministic — it counts allocator calls,
/// not time — so exceeding it means a real front-end allocation
/// regression, not machine noise.
const FRONTEND_ALLOCS_GUARD: f64 = 315.0;

/// Ceiling on analysis (lint) allocs/compile over the paper-benchmark
/// corpus, also enforced by `--smoke`. The lint pass is off the compile
/// chain — a request without `--emit lint` never runs it — but this
/// guard keeps the pass itself from silently bloating: like the
/// front-end guard it counts allocator calls, set ~15% above the
/// measured single-pass number (131.7), so exceeding it means a real
/// analysis allocation regression.
const ANALYSIS_ALLOCS_GUARD: f64 = 155.0;

fn print_profile(label: &str, p: &Profile, stage_filter: Option<&str>) {
    println!("{label}: {} cold compiles", p.compiles);
    println!(
        "  {:<10} {:>14} {:>16} {:>16}",
        "stage", "ns/compile", "allocs/compile", "bytes/compile"
    );
    for stage in Stage::ALL {
        if stage_filter.is_some_and(|f| f != stage.name()) {
            continue;
        }
        let t = p.stages[stage_index(stage)];
        println!(
            "  {:<10} {:>14.0} {:>16.1} {:>16.0}",
            stage.name(),
            t.ns as f64 / p.compiles as f64,
            t.allocs as f64 / p.compiles as f64,
            t.bytes as f64 / p.compiles as f64
        );
    }
    println!(
        "  {:<10} {:>14.0} {:>16.1} {:>16.0}",
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
    for (i, stage) in stages.iter().enumerate() {
        let t = p.stages[stage_index(*stage)];
        let _ = write!(
            out,
            "\n        \"{}\": {{\"ns_per_compile\": {:.0}, \"allocs_per_compile\": {:.1}, \"bytes_per_compile\": {:.0}}}{}",
            stage.name(),
            t.ns as f64 / per,
            t.allocs as f64 / per,
            t.bytes as f64 / per,
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
            let c = staged.emit(TestIo::Volatile).expect("corpus emits");
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
    let mut analysis_allocs_on_benchmarks = 0.0f64;
    for (label, corpus) in &corpora {
        let profile = profile_corpus(corpus, passes);
        print_profile(label, &profile, stage_filter.as_deref());
        sections.push(json_profile(label, &profile, stage_filter.as_deref()));
        if *label == "benchmarks" {
            let t = profile.stages[stage_index(Stage::Frontend)];
            frontend_allocs_on_benchmarks = t.allocs as f64 / profile.compiles as f64;
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
        assert!(
            frontend_allocs_on_benchmarks <= FRONTEND_ALLOCS_GUARD,
            "frontend allocation regression: {frontend_allocs_on_benchmarks:.1} allocs/compile \
             on the benchmark corpus exceeds the checked-in guard of {FRONTEND_ALLOCS_GUARD:.0} \
             (see FRONTEND_ALLOCS_GUARD in crates/bench/src/bin/pipeline.rs)"
        );
        assert!(
            analysis_allocs_on_benchmarks <= ANALYSIS_ALLOCS_GUARD,
            "lint allocation regression: {analysis_allocs_on_benchmarks:.1} allocs/compile \
             on the benchmark corpus exceeds the checked-in guard of {ANALYSIS_ALLOCS_GUARD:.0} \
             (see ANALYSIS_ALLOCS_GUARD in crates/bench/src/bin/pipeline.rs)"
        );
        println!(
            "smoke ok: harness emitted well-formed JSON; frontend allocs/compile \
             {frontend_allocs_on_benchmarks:.1} within guard {FRONTEND_ALLOCS_GUARD:.0}; \
             analysis allocs/compile {analysis_allocs_on_benchmarks:.1} within guard \
             {ANALYSIS_ALLOCS_GUARD:.0}"
        );
    }
}
