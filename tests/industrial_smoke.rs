//! Smoke tests for the industrial-scale generator (§5): a reduced
//! configuration must compile through the full pipeline and validate.

use velus::StagedPipeline;
use velus_common::{Diagnostics, Ident, NodeId};
use velus_testkit::industrial::{industrial_program, industrial_source, IndustrialConfig};

/// Runs `f` on a thread with a service worker's stack. The reference
/// dataflow interpreter behind validation recurses along dependency
/// chains through the instance tree (depth ~12 here), which in an
/// unoptimized build outgrows the 2 MiB default of a test thread.
fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(velus_server::WORKER_STACK_BYTES)
        .spawn(f)
        .expect("spawn")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}

#[test]
fn small_industrial_program_compiles_and_validates() {
    on_worker_stack(|| {
        let cfg = IndustrialConfig {
            nodes: 12,
            eqs_per_node: 10,
            fan_in: 2,
            subclock_depth: 0,
        };
        let prog = industrial_program(&cfg);
        let root = NodeId::new(11);
        let compiled = StagedPipeline::from_program(prog, root, Diagnostics::new(), &mut |_, _| {})
            .and_then(StagedPipeline::into_compiled)
            .unwrap();
        let inputs = velus::validate::default_inputs(&compiled, 10);
        velus::validate(&compiled, &inputs, 10).unwrap();
    });
}

#[test]
fn industrial_source_compiles_through_the_frontend() {
    let cfg = IndustrialConfig {
        nodes: 20,
        eqs_per_node: 12,
        fan_in: 2,
        subclock_depth: 0,
    };
    let src = industrial_source(&cfg);
    let compiled = velus::compile(&src, Some("blk19")).unwrap();
    assert_eq!(compiled.snlustre.nodes.len(), 20);
    // The generated step function exists in the Clight output.
    let step = compiled
        .clight
        .method_fn(compiled.root, velus_obc::ast::STEP)
        .unwrap();
    assert_eq!(
        compiled.clight.functions[step].name,
        velus_clight::generate::method_fn_name(Ident::new("blk19"), velus_obc::ast::step_name())
    );
}

#[test]
fn fusion_heavy_corpus_compiles_and_validates() {
    // The fusion-heavy preset (sub-clocked clusters at depth 2) must go
    // through the full pipeline — including fusion and its preservation
    // re-checks — and through the executable semantics.
    on_worker_stack(|| {
        let cfg = IndustrialConfig::fusion_heavy();
        let prog = industrial_program(&cfg);
        let root = NodeId::new(cfg.nodes - 1);
        let compiled = StagedPipeline::from_program(prog, root, Diagnostics::new(), &mut |_, _| {})
            .and_then(StagedPipeline::into_compiled)
            .unwrap();
        let inputs = velus::validate::default_inputs(&compiled, 8);
        velus::validate(&compiled, &inputs, 8).unwrap();
    });
}

#[test]
fn medium_industrial_compile_time_is_sane() {
    // Not a benchmark — just a guard that complexity is near-linear
    // enough for the full experiment to be runnable.
    let cfg = IndustrialConfig {
        nodes: 150,
        eqs_per_node: 24,
        fan_in: 2,
        subclock_depth: 0,
    };
    let prog = industrial_program(&cfg);
    let root = NodeId::new(149);
    let start = std::time::Instant::now();
    let compiled = StagedPipeline::from_program(prog, root, Diagnostics::new(), &mut |_, _| {})
        .and_then(StagedPipeline::into_compiled)
        .unwrap();
    assert!(compiled.snlustre.equation_count() > 3000);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "compilation took {:?}",
        start.elapsed()
    );
}
