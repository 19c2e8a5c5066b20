//! The end-to-end diagnostics contract.
//!
//! * **Golden corpus** — every program under `tests/errors/*.lus` is
//!   rejected, and its human (caret) and JSON renderings match the
//!   checked-in goldens under `tests/errors/golden/`. Regenerate with
//!   `VELUS_REGEN_GOLDEN=1 cargo test --test diagnostics`.
//! * **Structure** — every diagnostic of every rejection carries a
//!   stable registered code (never the `E0000` fallback) and a concrete
//!   originating stage (never `unknown`), and the JSON rendering passes
//!   the mini well-formedness checker.
//! * **Spans** — mid-end failures (the scheduling cycle) resolve to the
//!   *source equation*, even though the surface AST is long gone by the
//!   time scheduling runs.
//! * **Fault injection** — randomly mutated programs either compile or
//!   yield coded, stage-tagged diagnostics; they never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::prelude::*;
use velus_common::{codes, DiagStage, Diagnostics, SpanMap, ToDiagnostics};

fn repo_path(rel: &str) -> std::path::PathBuf {
    velus_repro::repo_root().join(rel)
}

fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(repo_path("tests/errors"))
        .expect("error corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        // `lint_*.lus` fixtures compile cleanly — they exist for the
        // static-analysis findings and are pinned by `tests/lints.rs`;
        // this corpus is rejection-only.
        .filter(|p| {
            !p.file_stem()
                .is_some_and(|s| s.to_string_lossy().starts_with("lint_"))
        })
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus shrank: {files:?}");
    files
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).unwrap();
            (stem, src)
        })
        .collect()
}

/// Compiles and returns the (sorted, deduplicated) rejection
/// diagnostics. Errors escaping `velus::compile` are pre-resolved
/// (`Diag`/`Front`), so no span map is needed here.
fn reject(source: &str) -> Diagnostics {
    match velus::compile(source, None) {
        Ok(_) => panic!("expected rejection of:\n{source}"),
        Err(e) => e.to_diagnostics(&SpanMap::new()),
    }
}

fn assert_coded_and_staged(diags: &Diagnostics, context: &str) {
    assert!(!diags.is_empty(), "{context}: empty diagnostics");
    for d in diags.iter() {
        assert_ne!(d.code.id, codes::E0000.id, "{context}: uncoded: {d}");
        assert!(
            codes::ALL.iter().any(|c| c.id == d.code.id),
            "{context}: unregistered code {}",
            d.code
        );
        assert_ne!(
            d.stage,
            DiagStage::Unknown,
            "{context}: stage-less diagnostic: {d}"
        );
    }
}

fn check_golden(name: &str, kind: &str, actual: &str) {
    let path = repo_path(&format!("tests/errors/golden/{name}.{kind}"));
    if std::env::var("VELUS_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden {path:?}; regenerate with VELUS_REGEN_GOLDEN=1")
    });
    assert_eq!(
        actual.trim_end_matches('\n'),
        expected.trim_end_matches('\n'),
        "golden mismatch for {name}.{kind}; regenerate with VELUS_REGEN_GOLDEN=1 if intended"
    );
}

#[test]
fn error_corpus_matches_goldens_and_is_fully_coded() {
    for (name, src) in corpus() {
        let diags = reject(&src);
        assert_coded_and_staged(&diags, &name);
        let human = diags.render_human(&src);
        let json = diags.render_json(&src);
        velus_testkit::json::parse(&json)
            .unwrap_or_else(|e| panic!("{name}: bad JSON ({e}):\n{json}"));
        check_golden(&name, "human", &human);
        check_golden(&name, "json", &json);
    }
}

#[test]
fn scheduling_cycle_resolves_to_the_source_equation() {
    let src = std::fs::read_to_string(repo_path("tests/errors/causality.lus")).unwrap();
    let diags = reject(&src);
    let d = diags.iter().next().unwrap();
    assert_eq!(d.code.id, "E0408", "{d}");
    assert_eq!(d.stage, DiagStage::Schedule);
    // The primary span covers `a = b + x;` — line 4 of the file — and
    // the remaining cycle members are annotated as notes.
    let loc = velus_common::Loc::of_offset(&src, d.span.start);
    assert_eq!((loc.line, loc.col), (4, 3), "{d:?}");
    assert_eq!(
        &src[d.span.start as usize..d.span.end as usize],
        "a = b + x;"
    );
    assert!(!d.notes.is_empty(), "{d:?}");
}

#[test]
fn warnings_are_coded_and_positioned() {
    let src = "node f(x: int) returns (y: int)\nlet y = pre x; tel\n";
    let c = velus::compile(src, None).unwrap();
    let w = c.warnings.iter().next().expect("pre lint fires");
    assert_eq!(w.code.id, "W0101");
    assert_eq!(w.stage, DiagStage::Analysis);
    let loc = velus_common::Loc::of_offset(src, w.span.start);
    assert_eq!(loc.line, 2);
}

/// The fault-injection property: a mutated program either compiles or
/// is rejected with coded, stage-tagged diagnostics — never a panic.
#[test]
fn mutated_programs_never_panic_and_always_carry_codes() {
    let seeds: Vec<String> = corpus()
        .into_iter()
        .map(|(_, src)| src)
        .chain([
            std::fs::read_to_string(repo_path("benchmarks/tracker.lus")).unwrap(),
            std::fs::read_to_string(repo_path("benchmarks/count.lus")).unwrap(),
            "node f(k: bool; x: int) returns (o: int)\nvar a: int when k;\nlet\n  a = (x + 1) when k;\n  o = merge k a ((0 fby o) when not k);\ntel\n"
                .to_owned(),
        ])
        .collect();
    let mut compiled = 0u32;
    let mut rejected = 0u32;
    for (i, base) in seeds.iter().enumerate() {
        for round in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(i as u64 * 1_000 + round);
            let mut mutant = base.clone();
            // Up to two stacked mutations: single-token typos and
            // compound corruption both stay panic-free.
            for _ in 0..rng.gen_range(1..3u32) {
                mutant = velus_testkit::mutate::mutate(&mutant, &mut rng);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| velus::compile(&mutant, None)));
            match outcome {
                Ok(Ok(_)) => compiled += 1,
                Ok(Err(e)) => {
                    let diags = e.to_diagnostics(&SpanMap::new());
                    assert_coded_and_staged(&diags, &format!("seed {i}/{round}:\n{mutant}"));
                    rejected += 1;
                }
                Err(_) => panic!("compiler panicked on mutant (seed {i}/{round}):\n{mutant}"),
            }
        }
    }
    // The injector is doing real damage (most mutants are rejected)
    // while some survive (the property is not vacuous on either side).
    assert!(rejected > 100, "rejected only {rejected}");
    assert!(compiled >= 2, "compiled only {compiled}");
}
