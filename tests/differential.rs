//! Differential property testing: the paper's correctness theorem over
//! *randomly generated* programs.
//!
//! For arbitrary well-formed N-Lustre programs and arbitrary input
//! prefixes, the whole chain must agree: dataflow semantics (on the
//! unscheduled and scheduled programs), the exposed-memory semantics,
//! the Obc execution (fused and unfused, with `MemCorres` checked), and
//! the Clight execution (with `staterep` checked, the volatile trace
//! compared, and the lint trap claims held against it). This is the
//! reproduction's substitute for the Coq induction: exhaustive checking
//! over a randomized program space.
//!
//! The checking itself lives in `velus_testkit::campaign` — the same
//! engine that powers `velus-bench --bin diff` and the CI campaign —
//! so this suite is a thin proptest client: it picks seeds, the engine
//! does generate → compile → oracles → (on failure) shrink.

use proptest::prelude::*;

use velus_testkit::campaign::{run_seed, CampaignConfig, Profile, SeedOutcome};
use velus_testkit::gen::GenConfig;

/// A campaign configuration holding exactly one generator profile, with
/// mutation off: every seed must *agree*, not merely avoid failing.
fn single_profile(name: &'static str, gen: GenConfig, steps: usize) -> CampaignConfig {
    CampaignConfig {
        profiles: vec![Profile { name, gen, steps }],
        mutate_pct: 0,
        shrink_budget: 200,
    }
}

fn expect_agreed(seed: u64, cfg: &CampaignConfig) -> Result<(), String> {
    match run_seed(seed, cfg).outcome {
        SeedOutcome::Agreed => Ok(()),
        SeedOutcome::Failure(rep) => Err(format!(
            "seed {seed}: {} ({})\nshrunk to:\n{}",
            rep.kind.token(),
            rep.detail,
            rep.source
        )),
        other => Err(format!("seed {seed}: unexpected outcome {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The end-to-end theorem on random integer/boolean programs.
    #[test]
    fn random_programs_validate(seed in any::<u64>()) {
        expect_agreed(seed, &single_profile("default", GenConfig::default(), 12))
            .map_err(TestCaseError::fail)?;
    }

    /// Deeper expressions and more sub-clocking.
    #[test]
    fn random_clock_heavy_programs_validate(seed in any::<u64>()) {
        let gen = GenConfig {
            nodes: 4,
            eqs_per_node: 8,
            expr_depth: 4,
            subclock_pct: 70,
            ..GenConfig::default()
        };
        expect_agreed(seed, &single_profile("clock-heavy", gen, 10))
            .map_err(TestCaseError::fail)?;
    }

    /// Floating-point programs: bit-exact agreement across all levels
    /// (`CVal` float equality is `to_bits()` equality — no tolerance).
    #[test]
    fn random_float_programs_validate(seed in any::<u64>()) {
        let gen = GenConfig { floats: true, ..GenConfig::default() };
        expect_agreed(seed, &single_profile("floats", gen, 10))
            .map_err(TestCaseError::fail)?;
    }

    /// Source-level mutants never *fail* the campaign: each is either
    /// rejected with a coded diagnostic, semantically vacuous, or still
    /// agrees — never a divergence, never a panic.
    #[test]
    fn random_mutants_are_handled_cleanly(seed in any::<u64>()) {
        let cfg = CampaignConfig {
            mutate_pct: 100,
            shrink_budget: 200,
            ..CampaignConfig::default()
        };
        match run_seed(seed, &cfg).outcome {
            SeedOutcome::Failure(rep) => {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}: mutant {} ({})\n{}",
                    rep.kind.token(),
                    rep.detail,
                    rep.source
                )));
            }
            SeedOutcome::Agreed
            | SeedOutcome::MutantRejected { .. }
            | SeedOutcome::Vacuous => {}
        }
    }
}

/// A fixed regression battery (fast, deterministic, no proptest retry
/// machinery) so that `cargo test` exercises a broad seed range — across
/// all three stock profiles — even when proptest shrinks its case
/// budget.
#[test]
fn deterministic_seed_battery() {
    let cfg = CampaignConfig {
        mutate_pct: 0,
        shrink_budget: 200,
        ..CampaignConfig::default()
    };
    for seed in 0..60u64 {
        expect_agreed(seed, &cfg).unwrap();
    }
}
