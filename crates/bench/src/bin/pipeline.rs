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
//! (checked in ~10% above the post-arena number, so an accidental
//! allocation regression fails CI) or if the static-analysis (lint)
//! pass exceeds [`ANALYSIS_ALLOCS_GUARD`]. The lint pass is forced
//! after emission so the `analysis` stage row carries real numbers,
//! even though a plain compile never runs it. The smoke run also guards
//! the executable semantics: it fails if one `velus::run_oracles` over
//! [`ORACLE_INSTANTS`] instants of a paper benchmark allocates more than
//! [`ORACLE_ALLOCS_GUARD`] times on average.
//!
//! `--overhead` instead measures the cost of the observability layer:
//! the industrial corpus is compiled with tracing disabled and then
//! with a live [`velus_obs::Recorder`] scope around every compile (each
//! pipeline pass becoming a recorded span), best-of-three per
//! configuration, and the run fails if tracing inflates wall time by
//! more than `--max-overhead-pct` (default 3).
//!
//! `--scale` instead draws cost curves: one node grown along one axis
//! at a time ([`velus_testkit::shapes`]) — a chain of 2k→16k equations
//! and an `if` nest of 500→4,000 levels — compiled as `c,lint`, with
//! per-stage ns (best of [`SCALE_REPS`]), allocs and bytes, the emitted
//! C size, and each doubling ratio. It doubles as the linearity guard:
//! the run fails when a stage's mean time ratio per doubling exceeds
//! [`SCALE_NS_RATIO_GUARD`], or any allocs or C-bytes ratio exceeds
//! [`SCALE_COUNT_RATIO_GUARD`]. `--json PATH` writes the curves (the
//! `scaling` entry of `BENCH_pipeline.json`).

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
use velus_testkit::shapes::{chain_source, nest_source};

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
/// and allocations to stages via the pipeline's stage observer. Returns
/// the size of the emitted C in bytes.
fn profile_one(profile: &mut Profile, source: &str, root: Option<&str>) -> usize {
    let mut marks: Vec<(Stage, u64, u64, u64)> = Vec::with_capacity(Stage::ALL.len());
    let run_start = counters();
    let mut last = run_start;
    let wall = Instant::now();
    let c_bytes = {
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
        c.len()
    };
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
    c_bytes
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

/// Sizes of the equations-per-node axis of `--scale`: one node whose
/// body is a dependency chain of this many equations.
const SCALE_CHAIN: [usize; 4] = [2_000, 4_000, 8_000, 16_000];

/// Sizes of the nesting axis of `--scale`: one node whose output is a
/// right-nested `if` of this many levels.
const SCALE_NEST: [usize; 4] = [500, 1_000, 2_000, 4_000];

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
/// grows by more than this factor per doubling on either axis. Both
/// counts are deterministic, so the bound is tight.
const SCALE_COUNT_RATIO_GUARD: f64 = 2.3;

/// One point of a scaling curve: per-stage best ns, allocs and bytes of
/// a `c,lint` compile, and the size of the emitted C.
struct ScalePoint {
    size: usize,
    stages: [StageTotals; Stage::ALL.len()],
    c_bytes: usize,
}

/// Measures one curve: each source once untimed (interning its
/// identifiers, so every timed run sees the same deterministic
/// allocation counts), then [`SCALE_REPS`] rounds over all sizes, so a
/// slow spell of the machine hits one round rather than one size.
fn scale_curve(sizes: &[usize], source: impl Fn(usize) -> String, root: &str) -> Vec<ScalePoint> {
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

/// The `--scale` mode: per-stage cost curves along two axes (equations
/// per node, `if`-nesting depth), printed as tables with doubling
/// ratios. Returns them as one JSON object, with the guard violations:
/// every stage whose mean time ratio breaks [`SCALE_NS_RATIO_GUARD`]
/// or whose count ratio breaks [`SCALE_COUNT_RATIO_GUARD`], on either
/// axis.
fn scaling() -> (String, Vec<String>) {
    let axes: [(&str, &str, Vec<ScalePoint>); 2] = [
        (
            "chain",
            "equations per node",
            scale_curve(&SCALE_CHAIN, chain_source, "chain"),
        ),
        (
            "nest",
            "if-nesting depth",
            scale_curve(&SCALE_NEST, nest_source, "nest"),
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
        for stage in Stage::ALL {
            let k = stage_index(stage);
            let ns: Vec<u64> = points.iter().map(|p| p.stages[k].ns).collect();
            let allocs: Vec<u64> = points.iter().map(|p| p.stages[k].allocs).collect();
            let bytes: Vec<u64> = points.iter().map(|p| p.stages[k].bytes).collect();
            let (rn, ra, rb) = (ratios(&ns), ratios(&allocs), ratios(&bytes));
            for (i, p) in points.iter().enumerate() {
                let r = |rs: &[f64]| {
                    i.checked_sub(1)
                        .map_or(String::new(), |j| format!("{:.2}", rs[j]))
                };
                println!(
                    "  {:<10} {:>7} {:>12} {:>10} {:>12}   {:>6} {:>6} {:>6}",
                    stage.name(),
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
                "  {:<10} {:>7} mean ns ratio per doubling {mean:.2}",
                stage.name(),
                ""
            );
            if mean > SCALE_NS_RATIO_GUARD {
                violations.push(format!(
                    "{axis}/{}: mean ns ratio {mean:.2} (per doubling {rn:.2?})",
                    stage.name()
                ));
            }
            if ra.iter().any(|&r| r > SCALE_COUNT_RATIO_GUARD) {
                violations.push(format!("{axis}/{}: allocs ratios {ra:.2?}", stage.name()));
            }
            stage_json.push(format!(
                "          \"{}\": {{\"ns\": {}, \"allocs\": {}, \"bytes\": {}, \"ns_ratio\": {}, \"ns_ratio_mean\": {:.2}, \"allocs_ratio\": {}, \"bytes_ratio\": {}}}",
                stage.name(),
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
        let oracle_allocs = oracle_allocs_per_run();
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
        assert!(
            oracle_allocs <= ORACLE_ALLOCS_GUARD,
            "oracle-chain allocation regression: {oracle_allocs:.1} allocs per run_oracles \
             ({ORACLE_INSTANTS} instants) on the benchmark corpus exceeds the checked-in guard \
             of {ORACLE_ALLOCS_GUARD:.0} (see ORACLE_ALLOCS_GUARD in \
             crates/bench/src/bin/pipeline.rs)"
        );
        println!(
            "smoke ok: harness emitted well-formed JSON; frontend allocs/compile \
             {frontend_allocs_on_benchmarks:.1} within guard {FRONTEND_ALLOCS_GUARD:.0}; \
             analysis allocs/compile {analysis_allocs_on_benchmarks:.1} within guard \
             {ANALYSIS_ALLOCS_GUARD:.0}; oracle allocs/run {oracle_allocs:.1} within guard \
             {ORACLE_ALLOCS_GUARD:.0}"
        );
    }
}
