//! The static-analysis (lint) layer contract.
//!
//! * **Golden corpus** — every `tests/errors/lint_*.lus` fixture
//!   compiles cleanly; its lint findings (human and JSON renderings)
//!   match the checked-in goldens under `tests/errors/golden/`, and the
//!   code named by the file stem (`lint_w0104.lus` → `W0104`) is
//!   present. Fixtures suffixed `_clean` must lint without findings.
//!   Regenerate with `VELUS_REGEN_GOLDEN=1 cargo test --test lints`.
//! * **Coverage** — every registered lint code
//!   (`velus_common::codes::LINT_CODES`) has at least one fixture.
//! * **Structure** — every finding carries a registered lint code, the
//!   `analysis` stage, and a span that resolves into the source.
//! * **W0001 regression** — the arrow-guarded `pre` that the retired
//!   syntactic check flagged stays silent, while the bare `pre` still
//!   warns (`W0101`), at the `pre`'s own span.
//! * **Soundness** — a bounded campaign over the trap-allowing
//!   `lint-traps` profile, whose lint-soundness oracle
//!   (`velus_testkit::campaign`) holds every claim against the Clight
//!   execution: guaranteed-trap claims trap, warning-free programs
//!   don't.

use velus_common::{codes, DiagStage, Diagnostics};

fn repo_path(rel: &str) -> std::path::PathBuf {
    velus_repro::repo_root().join(rel)
}

/// The lint fixtures: `(stem, source)`, sorted by name.
fn lint_corpus() -> Vec<(String, String)> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(repo_path("tests/errors"))
        .expect("error corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .filter(|p| {
            p.file_stem()
                .is_some_and(|s| s.to_string_lossy().starts_with("lint_"))
        })
        .collect();
    files.sort();
    assert!(files.len() >= 9, "lint corpus shrank: {files:?}");
    files
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).unwrap();
            (stem, src)
        })
        .collect()
}

/// Runs the front end + scheduling + the analysis pass (exactly what
/// `velus lint` does) and returns the findings.
fn lint(source: &str, context: &str) -> Diagnostics {
    let mut observe = |_, _| {};
    let mut staged = velus::StagedPipeline::from_source(source, None, &mut observe)
        .unwrap_or_else(|e| panic!("{context}: lint fixture must compile: {e}"));
    staged
        .lint()
        .unwrap_or_else(|e| panic!("{context}: lint pass failed: {e}"))
        .clone()
}

/// The code a fixture stem promises: `lint_w0104` → `Some("W0104")`,
/// `lint_w0101_arrow_clean` → `None` (must lint clean).
fn expected_code(stem: &str) -> Option<String> {
    if stem.ends_with("_clean") {
        return None;
    }
    let code = stem
        .strip_prefix("lint_")
        .and_then(|s| s.split('_').next())
        .unwrap_or_else(|| panic!("bad lint fixture name: {stem}"));
    Some(code.to_ascii_uppercase())
}

fn assert_lint_shaped(findings: &Diagnostics, source: &str, context: &str) {
    for d in findings.iter() {
        assert!(
            codes::LINT_CODES.iter().any(|c| c.id == d.code.id),
            "{context}: non-lint code {} in lint findings: {d}",
            d.code
        );
        assert_eq!(d.stage, DiagStage::Analysis, "{context}: {d}");
        assert!(
            (d.span.end as usize) <= source.len() && d.span.start < d.span.end,
            "{context}: unresolvable span {:?}: {d}",
            d.span
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
fn lint_corpus_matches_goldens_and_is_fully_coded() {
    for (name, src) in lint_corpus() {
        let findings = lint(&src, &name);
        assert_lint_shaped(&findings, &src, &name);
        match expected_code(&name) {
            Some(code) => assert!(
                findings.iter().any(|d| d.code.id == code),
                "{name}: expected {code} among:\n{findings}"
            ),
            None => assert!(findings.is_empty(), "{name}: expected clean:\n{findings}"),
        }
        let human = findings.render_human(&src);
        let json = findings.render_json(&src);
        velus_testkit::json::parse(&json)
            .unwrap_or_else(|e| panic!("{name}: bad JSON ({e}):\n{json}"));
        check_golden(&name, "human", &human);
        check_golden(&name, "json", &json);
    }
}

#[test]
fn every_lint_code_has_a_fixture() {
    let covered: Vec<String> = lint_corpus()
        .into_iter()
        .filter_map(|(name, _)| expected_code(&name))
        .collect();
    for code in codes::LINT_CODES {
        assert!(
            covered.iter().any(|c| c == code.id),
            "lint code {} has no fixture under tests/errors/lint_*.lus",
            code
        );
    }
}

/// The retired syntactic W0001 flagged *every* `pre`; the semantic
/// W0101 must stay silent on the arrow-guarded one and keep warning on
/// the bare one — at the `pre`'s own span.
#[test]
fn arrow_guarded_pre_no_longer_warns_but_bare_pre_still_does() {
    let guarded = "node f(x: int) returns (y: int)\nlet y = 0 -> pre x; tel\n";
    let d = lint(guarded, "guarded");
    assert!(
        d.iter()
            .all(|w| w.code.id != "W0101" && w.code.id != "W0001"),
        "false positive resurfaced:\n{d}"
    );

    let bare = "node f(x: int) returns (y: int)\nlet y = pre x; tel\n";
    let d = lint(bare, "bare");
    let w = d
        .iter()
        .find(|w| w.code.id == "W0101")
        .unwrap_or_else(|| panic!("bare pre must warn:\n{d}"));
    assert_eq!(&bare[w.span.start as usize..w.span.end as usize], "pre x");
}

/// Lint findings also flow through the ordinary compile path's warning
/// channel (`Compiled::warnings`), not only `StagedPipeline::lint`.
#[test]
fn the_compile_warning_channel_carries_the_same_initialization_verdict() {
    let src = std::fs::read_to_string(repo_path("tests/errors/lint_w0101.lus")).unwrap();
    let c = velus::compile(&src, None).unwrap();
    assert!(
        c.warnings.iter().any(|w| w.code.id == "W0101"),
        "{}",
        c.warnings
    );
}

/// A bounded campaign over the trap-allowing profile: compile generated
/// programs, execute them, and check every trap claim (the CI campaign,
/// `velus-bench --bin diff`, scales this to thousands of seeds).
#[test]
fn a_bounded_soundness_pass_holds_claims_against_executions() {
    use velus_testkit::campaign::{lint_traps_profile, run_campaign, CampaignConfig};
    let cfg = CampaignConfig {
        profiles: vec![lint_traps_profile()],
        mutate_pct: 0,
        shrink_budget: 200,
    };
    // A seed block disjoint from the testkit's own unit tests, so the
    // runs cover different programs.
    let report = run_campaign(&cfg, 1_000, 80, 2);
    let claims = report.claims();
    assert_eq!(report.agreed(), 80, "{:?}", report.failures());
    assert!(claims.guaranteed > 0, "{claims:?}");
    assert!(claims.trapped > 0, "{claims:?}");
}
