//! Properties pinning the arena-backed front end.
//!
//! The front end parses into a recycled surface arena with recycled
//! parser stacks ([`velus_lustre::FrontendScratch`]); the pipeline's
//! `elaborate` stage recycles one scratch per thread. These tests pin the
//! two things that must survive that rework:
//!
//! * **Determinism under recycling** — compiling a program must produce
//!   byte-identical C and byte-identical `FailureReport` JSON no matter
//!   what was compiled before it on the same thread (a dirty recycled
//!   arena must be indistinguishable from a fresh one), and the staged
//!   pipeline must agree with the one-shot path.
//! * **Pool reuse** — once the pools have grown to fit the largest
//!   program seen, further compiles (of that program or smaller ones)
//!   must not allocate new pool capacity.

use rand::rngs::StdRng;
use rand::SeedableRng;
use velus_common::{Diagnostics, FailureReport, SpanMap};
use velus_lustre::{Frontend, FrontendScratch};
use velus_ops::ClightOps;
use velus_server::Stage;
use velus_testkit::gen::{gen_program, GenConfig};
use velus_testkit::industrial::{industrial_source, IndustrialConfig};
use velus_testkit::render::lustre_source;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The benchmark corpus plus deterministic industrial and random
/// generator programs: `(label, source, root)`.
fn corpus() -> Vec<(String, String, Option<String>)> {
    let mut out: Vec<(String, String, Option<String>)> = Vec::new();
    for name in [
        "avgvelocity",
        "count",
        "tracker",
        "pip_ex",
        "cruise",
        "chrono",
        "watchdog3",
        "landing_gear",
        "prodcell",
        "ums_verif",
    ] {
        let src = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
        out.push((name.to_owned(), src, Some(name.to_owned())));
    }
    for k in 0..3usize {
        let cfg = IndustrialConfig {
            nodes: 6 + 3 * k,
            eqs_per_node: 5 + 2 * k,
            fan_in: 1 + k % 2,
            subclock_depth: k,
        };
        out.push((
            format!("industrial{k}"),
            industrial_source(&cfg),
            Some(format!("blk{}", cfg.nodes - 1)),
        ));
    }
    // Random programs, including a deeply nested shape that stresses
    // arena growth mid-corpus.
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = if seed % 2 == 0 {
            GenConfig::default()
        } else {
            GenConfig {
                nodes: 3,
                eqs_per_node: 4,
                expr_depth: 8,
                subclock_pct: 25,
                ..GenConfig::default()
            }
        };
        let prog = gen_program(&mut rng, &cfg);
        let root = prog.nodes.last().unwrap().name.to_string();
        out.push((format!("gen{seed}"), lustre_source(&prog), Some(root)));
    }
    out
}

fn one_shot_c(source: &str, root: Option<&str>) -> String {
    let compiled = velus::compile(source, root).expect("corpus compiles");
    velus::emit_c(&compiled, velus::IoMode::Volatile)
}

fn staged_c(source: &str, root: Option<&str>) -> String {
    let mut observe = |_stage: Stage, _dur: std::time::Duration| {};
    let mut staged =
        velus::StagedPipeline::from_source(source, root, &mut observe).expect("corpus compiles");
    staged.emit(velus::IoMode::Volatile).expect("corpus emits")
}

#[test]
fn staged_and_one_shot_agree_bytewise_under_arena_recycling() {
    // All compiles run on this thread, so they share one recycled
    // `FrontendScratch` inside the `elaborate` stage: every comparison also
    // checks that a dirty arena replays exactly like a fresh one.
    let corpus = corpus();
    let first: Vec<String> = corpus
        .iter()
        .map(|(_, src, root)| one_shot_c(src, root.as_deref()))
        .collect();
    for (i, (label, src, root)) in corpus.iter().enumerate() {
        let staged = staged_c(src, root.as_deref());
        assert_eq!(first[i], staged, "{label}: staged C differs from one-shot");
        // Second one-shot pass over a now well-grown arena.
        let again = one_shot_c(src, root.as_deref());
        assert_eq!(first[i], again, "{label}: recompile C differs");
    }
}

#[test]
fn failure_reports_are_stable_under_arena_recycling() {
    let errors_dir = repo_path("tests/errors");
    let mut entries: Vec<_> = std::fs::read_dir(&errors_dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            // `lint_*.lus` fixtures compile cleanly (they exist for the
            // static-analysis findings); this test is rejection-only.
            let rejected = p.extension().is_some_and(|x| x == "lus")
                && !p
                    .file_stem()
                    .is_some_and(|s| s.to_string_lossy().starts_with("lint_"));
            rejected.then_some(p)
        })
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "error corpus missing at {errors_dir:?}"
    );
    let dirtier = corpus();
    for path in entries {
        let src = std::fs::read_to_string(&path).unwrap();
        let report = |src: &str| -> String {
            match velus::compile(src, None) {
                Ok(_) => panic!("{path:?}: expected rejection"),
                Err(e) => FailureReport::from_diagnostics(&e.diagnostics(&SpanMap::new()), src)
                    .render_json(),
            }
        };
        let fresh = report(&src);
        velus_testkit::json::parse(&fresh).expect("well-formed report JSON");
        // Dirty the thread's recycled arenas with a successful compile
        // of an unrelated program, then re-reject: the report must be
        // byte-identical.
        let (_, dirty_src, dirty_root) = &dirtier[0];
        let _ = one_shot_c(dirty_src, dirty_root.as_deref());
        assert_eq!(
            fresh,
            report(&src),
            "{path:?}: FailureReport changed across arena recycling"
        );
    }
}

/// The front end through caller-owned scratch, as the compile pipeline
/// runs it: parse into the scratch's arena, then lower.
fn compile_with(
    src: &str,
    scratch: &mut FrontendScratch,
) -> Result<Frontend<ClightOps>, Diagnostics> {
    let uprog = scratch.parse(src)?;
    velus_lustre::lower(&uprog, &scratch.ua)
}

#[test]
fn frontend_scratch_pools_are_fully_reused_across_compiles() {
    let corpus = corpus();
    let mut scratch = FrontendScratch::new();
    // Grow the pools over the whole corpus once.
    for (label, src, _) in &corpus {
        compile_with(src, &mut scratch).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    let grown = scratch.capacities();
    // Every further compile of corpus programs must fit in the existing
    // pools: identical capacities means zero pool reallocation.
    for _ in 0..2 {
        for (label, src, _) in &corpus {
            compile_with(src, &mut scratch).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                grown,
                scratch.capacities(),
                "{label}: recycled front-end pools regrew"
            );
        }
    }
}
