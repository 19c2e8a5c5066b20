//! The lemma that lets the pipeline skip re-checking typing and clocking
//! after scheduling: the verdict of the N-Lustre check does not depend
//! on the order of a node's equations. Every program here is checked
//! as built and under seeded random permutations of each node's
//! equations, and the accept/reject verdict must not move.
//!
//! The programs: the industrial generator's, the differential
//! campaign's generated programs (every stock profile), campaign-style
//! mutants of their sources that still elaborate, the error corpus
//! inputs that elaborate, and corrupted copies of generated programs
//! (an equation dropped, or one defined twice), so both verdicts are
//! exercised.

use rand::prelude::*;

use velus_nlustre::ast::Program;
use velus_nlustre::check::check_program;
use velus_nlustre::schedule::apply_order;
use velus_ops::ClightOps;
use velus_testkit::campaign::{default_profiles, lint_traps_profile};
use velus_testkit::gen::gen_program;
use velus_testkit::industrial::{industrial_program, IndustrialConfig};
use velus_testkit::mutate::mutate;
use velus_testkit::render::lustre_source;

/// Random permutations tried per program.
const PERMUTATIONS: usize = 4;

/// Accepted and rejected programs seen by [`assert_order_independent`].
#[derive(Default)]
struct Verdicts {
    accepted: usize,
    rejected: usize,
}

impl Verdicts {
    /// Checks `prog` as built and under [`PERMUTATIONS`] random
    /// permutations of every node's equations, drawn from `rng`, and
    /// asserts one verdict for all of them.
    fn assert_order_independent(
        &mut self,
        prog: &Program<ClightOps>,
        rng: &mut StdRng,
        what: &str,
    ) {
        let verdict = check_program(prog);
        for _ in 0..PERMUTATIONS {
            let mut permuted = prog.clone();
            for node in &mut permuted.nodes {
                let mut order: Vec<usize> = (0..node.eqs.len()).collect();
                order.shuffle(rng);
                apply_order(node, &order).expect("a shuffle is a permutation");
            }
            let again = check_program(&permuted);
            assert_eq!(
                again.is_ok(),
                verdict.is_ok(),
                "{what}: the verdict moved under a permutation ({verdict:?} vs {again:?})"
            );
        }
        if verdict.is_ok() {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }
}

#[test]
fn industrial_programs_keep_their_verdict_under_permutation() {
    let mut verdicts = Verdicts::default();
    let mut rng = StdRng::seed_from_u64(7);
    for k in 0..12usize {
        let cfg = IndustrialConfig {
            nodes: 6 + k,
            eqs_per_node: 5 + k % 4,
            fan_in: 1 + k % 2,
            subclock_depth: k % 4,
        };
        let prog = industrial_program(&cfg);
        verdicts.assert_order_independent(&prog, &mut rng, &format!("industrial {cfg:?}"));
    }
    assert_eq!(
        verdicts.rejected, 0,
        "the industrial generator builds valid programs"
    );
}

#[test]
fn campaign_programs_and_their_corruptions_keep_their_verdict_under_permutation() {
    let mut verdicts = Verdicts::default();
    let profiles: Vec<_> = default_profiles()
        .into_iter()
        .chain([lint_traps_profile()])
        .collect();
    for seed in 0..120u64 {
        let profile = &profiles[seed as usize % profiles.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = gen_program(&mut rng, &profile.gen);
        let what = format!("seed {seed} ({})", profile.name);
        verdicts.assert_order_independent(&prog, &mut rng, &what);
        // Corruptions no order can repair: an equation dropped (its
        // variable is never defined) or duplicated (defined twice).
        let k = rng.gen_range(0..prog.nodes.len());
        if prog.nodes[k].eqs.is_empty() {
            continue;
        }
        let e = rng.gen_range(0..prog.nodes[k].eqs.len());
        let mut dropped = prog.clone();
        dropped.nodes[k].eqs.remove(e);
        verdicts.assert_order_independent(&dropped, &mut rng, &format!("{what}, dropped"));
        let mut doubled = prog.clone();
        let eq = doubled.nodes[k].eqs[e].clone();
        doubled.nodes[k].eqs.push(eq);
        verdicts.assert_order_independent(&doubled, &mut rng, &format!("{what}, doubled"));
    }
    assert!(verdicts.accepted >= 100, "accepted {}", verdicts.accepted);
    assert!(verdicts.rejected >= 100, "rejected {}", verdicts.rejected);
}

#[test]
fn campaign_mutants_that_elaborate_keep_their_verdict_under_permutation() {
    let mut verdicts = Verdicts::default();
    let profiles = default_profiles();
    for seed in 0..200u64 {
        let profile = &profiles[seed as usize % profiles.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let source = mutate(
            &lustre_source(&gen_program(&mut rng, &profile.gen)),
            &mut rng,
        );
        if let Ok((prog, _)) = velus_lustre::compile_to_nlustre::<ClightOps>(&source) {
            verdicts.assert_order_independent(&prog, &mut rng, &format!("mutant {seed}"));
        }
    }
    assert!(
        verdicts.accepted >= 10,
        "mutants that elaborate: {}",
        verdicts.accepted
    );
}

#[test]
fn error_corpus_inputs_that_elaborate_keep_their_verdict_under_permutation() {
    let mut verdicts = Verdicts::default();
    let mut rng = StdRng::seed_from_u64(11);
    let dir = velus_repro::repo_root().join("tests/errors");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("error corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .collect();
    files.sort();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable fixture");
        if let Ok((prog, _)) = velus_lustre::compile_to_nlustre::<ClightOps>(&source) {
            verdicts.assert_order_independent(&prog, &mut rng, &path.display().to_string());
        }
    }
    assert!(verdicts.accepted >= 1, "no fixture reaches N-Lustre");
}
