//! The baseline compilers must be *semantics-preserving* too: the
//! Heptagon-style and Lustre v6-style pipelines produce Obc that behaves
//! exactly like the standard translation on random programs — otherwise
//! the Fig. 12 comparison would be comparing different functions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use velus::StagedPipeline;
use velus_baselines::{heptagon_obc, lustre_v6_obc, root_class};
use velus_common::Diagnostics;
use velus_obc::sem::run_class;
use velus_ops::{CVal, ClightOps};
use velus_testkit::gen::{gen_inputs, gen_program, GenConfig};

fn check_seed(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = gen_program(&mut rng, &GenConfig::default());
    let root = velus_common::NodeId::new(prog.nodes.len() - 1);
    let node = prog.node(root).expect("root").clone();
    let compiled =
        StagedPipeline::from_program(prog.clone(), root, Diagnostics::new(), &mut |_, _| {})
            .and_then(StagedPipeline::into_compiled)
            .map_err(|e| format!("seed {seed}: {e}"))?;

    let hept = heptagon_obc::<ClightOps>(&prog).map_err(|e| format!("seed {seed} hept: {e}"))?;
    let lus6 = lustre_v6_obc::<ClightOps>(&prog).map_err(|e| format!("seed {seed} lv6: {e}"))?;
    velus_obc::typecheck::check_program(&hept).map_err(|e| format!("seed {seed}: {e}"))?;
    velus_obc::typecheck::check_program(&lus6).map_err(|e| format!("seed {seed}: {e}"))?;

    let n = 10;
    let streams = gen_inputs(&mut rng, &node, n);
    let inputs: Vec<Option<Vec<CVal>>> = (0..n)
        .map(|i| Some(streams.iter().map(|s| *s[i].value().unwrap()).collect()))
        .collect();

    let reference = run_class(&compiled.obc_fused, root, &inputs)
        .map_err(|e| format!("seed {seed} reference: {e}"))?;
    for (label, obc) in [("heptagon", &hept), ("lustre-v6", &lus6)] {
        let outs = run_class(obc, root_class(obc, &prog, root), &inputs)
            .map_err(|e| format!("seed {seed} {label}: {e}"))?;
        if outs != reference {
            return Err(format!("seed {seed}: {label} diverges from the reference"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn baselines_agree_with_the_reference_pipeline(seed in any::<u64>()) {
        check_seed(seed).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn baselines_agree_on_the_benchmark_suite() {
    for name in ["count", "tracker", "watchdog3", "chrono", "prodcell"] {
        let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
        let compiled = velus::compile(&source, Some(name)).unwrap();
        let hept = heptagon_obc::<ClightOps>(&compiled.nlustre).unwrap();
        let lus6 = lustre_v6_obc::<ClightOps>(&compiled.nlustre).unwrap();

        let inputs: Vec<Option<Vec<CVal>>> = {
            let streams = velus::validate::default_inputs(&compiled, 16);
            (0..16)
                .map(|i| Some(streams.iter().map(|s| *s[i].value().unwrap()).collect()))
                .collect()
        };
        let reference = run_class(&compiled.obc_fused, compiled.root, &inputs).unwrap();
        assert_eq!(
            run_class(
                &hept,
                root_class(&hept, &compiled.nlustre, compiled.root),
                &inputs
            )
            .unwrap(),
            reference,
            "{name}"
        );
        assert_eq!(
            run_class(
                &lus6,
                root_class(&lus6, &compiled.nlustre, compiled.root),
                &inputs
            )
            .unwrap(),
            reference,
            "{name}"
        );
    }
}
