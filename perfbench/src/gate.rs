//! The correctness gate: references and independent checks.
//!
//! * the paper corpus's C must equal `tests/snapshots/<name>.c`;
//! * every `warm-rebuild` response must equal a cold compile of the
//!   same program made outside the service;
//! * a seeded sample of each service workload's programs must pass
//!   `velus::run_oracles`, whose reference is the N-Lustre dataflow
//!   semantics, on generated inputs;
//! * lint must report no guaranteed trap (`E011x`) on the trap-free
//!   `big-nodes` programs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use velus::{TestIo, VelusError};
use velus_testkit::campaign::CampaignConfig;
use velus_testkit::gen::gen_inputs;
use velus_wcet::{wcet_step, CostModel};

use crate::gen::{campaign_program, paper_source, repo_root, Generated, PAPER};
use crate::report::geomean;

/// Instants each oracle check runs.
pub const STEPS: usize = 10;

/// Time spent per validation phase over a sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ValidateTimes {
    /// Programs checked.
    pub programs: u64,
    /// Generating programs (campaign only) and their inputs.
    pub gen_ns: u64,
    /// `velus::compile`.
    pub compile_ns: u64,
    /// `velus::run_oracles`.
    pub oracles_ns: u64,
}

/// Reads the retained C of a paper benchmark.
///
/// # Errors
///
/// The snapshot is missing or unreadable.
pub fn snapshot(name: &str) -> std::io::Result<String> {
    std::fs::read_to_string(
        repo_root()
            .join("tests")
            .join("snapshots")
            .join(format!("{name}.c")),
    )
}

fn oracle_check(
    source: &str,
    root: &str,
    rng: &mut StdRng,
    gen_ns: u64,
    steps: usize,
    times: &mut ValidateTimes,
) -> Result<(), String> {
    let t = Instant::now();
    let compiled = velus::compile(source, Some(root)).map_err(|e| format!("{root}: {e}"))?;
    let compile_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let node = compiled
        .snlustre
        .node(compiled.root)
        .ok_or_else(|| format!("{root}: no root node"))?;
    let inputs = gen_inputs(rng, node, steps);
    let gen_ns = gen_ns + t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let report = velus::run_oracles(&compiled, &inputs, steps);
    times.oracles_ns += t.elapsed().as_nanos() as u64;
    times.gen_ns += gen_ns;
    times.compile_ns += compile_ns;
    times.programs += 1;
    match report {
        Ok(r) => match r.divergence {
            None => Ok(()),
            Some(d) => Err(format!("{root}: oracle divergence: {d}")),
        },
        Err(e) => Err(format!("{root}: no dataflow semantics: {e}")),
    }
}

/// Runs the oracle chain on `programs` with inputs seeded by `seed`;
/// returns one reason per failing program.
pub fn oracle_sample(programs: &[&Generated], seed: u64, times: &mut ValidateTimes) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    programs
        .iter()
        .filter_map(|p| oracle_check(&p.source, &p.root, &mut rng, 0, STEPS, times).err())
        .collect()
}

/// The campaign's work for `seeds`, split by phase: generation (program,
/// surface source, inputs — in `campaign::run_seed`'s draw order for an
/// unmutated seed), compilation, and the oracle chain. Returns one
/// reason per failing seed.
pub fn campaign_sample(
    seeds: std::ops::Range<u64>,
    cfg: &CampaignConfig,
    times: &mut ValidateTimes,
) -> Vec<String> {
    seeds
        .filter_map(|seed| {
            let steps = cfg.profiles[(seed % cfg.profiles.len() as u64) as usize].steps;
            let t = Instant::now();
            let (program, mut rng) = campaign_program(seed, cfg);
            let gen_ns = t.elapsed().as_nanos() as u64;
            oracle_check(
                &program.source,
                &program.root,
                &mut rng,
                gen_ns,
                steps,
                times,
            )
            .err()
            .map(|e| format!("seed {seed}: {e}"))
        })
        .collect()
}

/// Mean bytes of C the programs of campaign `seeds` compile to.
///
/// # Errors
///
/// A seed's program fails to compile.
pub fn campaign_c_bytes(seeds: std::ops::Range<u64>, cfg: &CampaignConfig) -> Result<f64, String> {
    let count = seeds.end - seeds.start;
    let mut bytes = 0usize;
    for seed in seeds {
        let (program, _) = campaign_program(seed, cfg);
        let compiled = velus::compile(&program.source, Some(&program.root))
            .map_err(|e| format!("seed {seed}: {e}"))?;
        bytes += velus::emit_c(&compiled, TestIo::Volatile).len();
    }
    Ok(bytes as f64 / count.max(1) as f64)
}

/// The cold reference of one program: its C and its step WCET.
///
/// # Errors
///
/// The program does not compile or its WCET cannot be bounded.
pub fn reference(source: &str, root: &str) -> Result<(String, u64), String> {
    let compiled = velus::compile(source, Some(root)).map_err(|e| format!("{root}: {e}"))?;
    let cycles = wcet_step(&compiled.clight, compiled.root, CostModel::CompCert)
        .map_err(|e| format!("{root}: {e}"))?;
    Ok((velus::emit_c(&compiled, TestIo::Volatile), cycles))
}

/// The geometric mean, over the 14 paper benchmarks, of the
/// CompCert-model WCET of the root step function (the paper's Fig. 12
/// measure).
///
/// # Errors
///
/// A benchmark is unreadable or fails to compile.
pub fn paper_wcet_geomean() -> Result<f64, String> {
    let cycles = PAPER
        .iter()
        .map(|name| {
            let source = paper_source(name).map_err(|e| format!("{name}: {e}"))?;
            let compiled = velus::compile(&source, Some(name))
                .map_err(|e: VelusError| format!("{name}: {e}"))?;
            wcet_step(&compiled.clight, compiled.root, CostModel::CompCert)
                .map(|c| c as f64)
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(geomean(&cycles))
}
