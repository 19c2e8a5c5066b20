//! The §5 industrial-scale compile-time experiment.
//!
//! The paper compiles a ≈6000-node, ≈162000-equation application
//! (≈12 MB of source) in ≈1 min 40 s. This binary generates a synthetic
//! application of comparable structure (see `velus_testkit::industrial`)
//! and measures the full pipeline — parsing, elaboration, normalization,
//! scheduling, translation, fusion, Clight generation — at several
//! scales.
//!
//! ```text
//! cargo run --release -p velus-bench --bin industrial [--full]
//! ```
//!
//! `--full` runs the paper-scale configuration (several minutes in debug
//! builds; use `--release`).

use std::time::Instant;

use velus_common::Ident;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

fn run_scale(cfg: &IndustrialConfig) {
    let gen_start = Instant::now();
    let source = industrial_source(cfg);
    let gen_time = gen_start.elapsed();
    let mb = source.len() as f64 / 1e6;

    let compile_start = Instant::now();
    let root = format!("blk{}", cfg.nodes - 1);
    let compiled = velus::compile(&source, Some(&root)).expect("industrial program compiles");
    let compile_time = compile_start.elapsed();

    let eqs = compiled.snlustre.equation_count();
    let rate = eqs as f64 / compile_time.as_secs_f64();
    println!(
        "{:>6} nodes {:>8} equations {:>7.2} MB source | generate {:>7.2?} | compile {:>8.2?} | {:>9.0} eq/s",
        cfg.nodes, eqs, mb, gen_time, compile_time, rate
    );

    // Sanity: the compiled root exists and has a step function.
    let step = compiled
        .clight
        .method_fn(compiled.root, velus_obc::ast::STEP)
        .expect("the root class has methods");
    assert_eq!(
        compiled.clight.functions[step].name,
        velus_clight::generate::method_fn_name(Ident::new(&root), velus_obc::ast::step_name())
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("Industrial-scale compile-time experiment (paper: ~6000 nodes, ~162000 equations, ~1 min 40 s).");
    let scales: Vec<IndustrialConfig> = if full {
        vec![
            IndustrialConfig {
                nodes: 100,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig {
                nodes: 500,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig {
                nodes: 1500,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig {
                nodes: 3000,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig::paper_scale(),
        ]
    } else {
        vec![
            IndustrialConfig {
                nodes: 50,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig {
                nodes: 200,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
            IndustrialConfig {
                nodes: 600,
                eqs_per_node: 24,
                fan_in: 2,
                subclock_depth: 0,
            },
        ]
    };
    for cfg in &scales {
        run_scale(cfg);
    }
    if !full {
        println!("(run with --full --release for the paper-scale 6000-node configuration)");
    }
}
