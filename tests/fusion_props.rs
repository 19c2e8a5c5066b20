//! Property tests for the fusion optimization (§3.3) at the Obc level:
//! on translated (hence `Fusible`) code, `fuse` preserves the big-step
//! semantics, Obc typing and the `Fusible` predicate, and never
//! increases statement count. The pipeline checks only `Fusible` after
//! fusion; typing preservation is the lemma pinned here.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use velus::StagedPipeline;
use velus_common::Diagnostics;
use velus_obc::ast::{Block, ObcExprs, ObcProgram, Stmt};
use velus_obc::fusion::{fuse_program, fusible};
use velus_obc::sem::run_class;
use velus_ops::{CVal, ClightOps};
use velus_testkit::gen::{gen_inputs, gen_program, GenConfig};

fn translated(seed: u64) -> (ObcProgram<ClightOps>, velus::Compiled) {
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = gen_program(&mut rng, &GenConfig::default());
    let root = velus_common::NodeId::new(prog.nodes.len() - 1);
    let compiled = StagedPipeline::from_program(prog, root, Diagnostics::new(), &mut |_, _| {})
        .and_then(StagedPipeline::into_compiled)
        .expect("generated programs compile");
    (compiled.obc.clone(), compiled)
}

/// The clone-based `zip` fusion used before it moved its input: the
/// reference the move-based [`fuse_program`] must agree with.
fn reference_zip(ex: &ObcExprs<ClightOps>, s: &mut Block, t: &Block) {
    for stmt in t.iter() {
        match (s.last_mut(), stmt) {
            (Some(Stmt::If(e1, t1, f1)), Stmt::If(e2, t2, f2)) if ex.same(*e1, *e2) => {
                reference_zip(ex, t1, t2);
                reference_zip(ex, f1, f2);
            }
            _ => s.push(stmt.clone()),
        }
    }
}

/// [`fuse_program`] by [`reference_zip`], leaving its input alone.
fn reference_fuse_program(prog: &ObcProgram<ClightOps>) -> ObcProgram<ClightOps> {
    let mut fused = prog.clone();
    for class in &mut fused.classes {
        for m in &mut class.methods {
            let mut body = Block::new();
            reference_zip(&m.exprs, &mut body, &m.body);
            m.body = body;
        }
    }
    fused
}

fn obc_inputs(seed: u64, c: &velus::Compiled, n: usize) -> Vec<Option<Vec<CVal>>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let node = c.snlustre.node(c.root).expect("root").clone();
    let streams = gen_inputs(&mut rng, &node, n);
    (0..n)
        .map(|i| {
            Some(
                streams
                    .iter()
                    .map(|s| *s[i].value().expect("all-present"))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn translate_output_is_fusible(seed in any::<u64>()) {
        let (obc, _) = translated(seed);
        for class in &obc.classes {
            for m in &class.methods {
                prop_assert!(fusible(&m.exprs, &m.body), "{}.{} not fusible", class.name, m.name);
            }
        }
    }

    #[test]
    fn fuse_preserves_semantics_and_fusible(seed in any::<u64>()) {
        let (obc, compiled) = translated(seed);
        let fused = fuse_program(obc.clone());
        for class in &fused.classes {
            for m in &class.methods {
                prop_assert!(fusible(&m.exprs, &m.body));
            }
        }
        let inputs = obc_inputs(seed, &compiled, 8);
        let a = run_class(&obc, compiled.root, &inputs).map_err(|e| {
            TestCaseError::fail(format!("unfused: {e}"))
        })?;
        let b = run_class(&fused, compiled.root, &inputs).map_err(|e| {
            TestCaseError::fail(format!("fused: {e}"))
        })?;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fuse_preserves_obc_typing(seed in any::<u64>()) {
        let (obc, _) = translated(seed);
        prop_assert!(velus_obc::typecheck::check_program(&obc).is_ok());
        let fused = fuse_program(obc);
        if let Err(e) = velus_obc::typecheck::check_program(&fused) {
            return Err(TestCaseError::fail(format!("fused program ill typed: {e}")));
        }
    }

    #[test]
    fn move_based_fusion_equals_the_clone_based_reference(seed in any::<u64>()) {
        let (obc, compiled) = translated(seed);
        let expected = reference_fuse_program(&obc);
        prop_assert_eq!(&fuse_program(obc), &expected);
        prop_assert_eq!(&compiled.obc_fused, &expected);
    }

    #[test]
    fn fuse_never_grows_code(seed in any::<u64>()) {
        let (obc, _) = translated(seed);
        let fused = fuse_program(obc.clone());
        let size = |p: &ObcProgram<ClightOps>| {
            p.classes
                .iter()
                .flat_map(|c| &c.methods)
                .map(|m| m.body.size())
                .sum::<usize>()
        };
        prop_assert!(size(&fused) <= size(&obc));
    }

    #[test]
    fn fuse_is_idempotent_on_translated_code(seed in any::<u64>()) {
        let (obc, _) = translated(seed);
        let once = fuse_program(obc);
        let twice = fuse_program(once.clone());
        prop_assert_eq!(once, twice);
    }
}
