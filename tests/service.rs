//! Integration tests of the batch compilation service over the real
//! pipeline: cache identity, determinism under parallelism, and fault
//! isolation.

use velus::service::{service, ServiceConfig, ServiceError};
use velus::{CompileOptions, CompileRequest, IoMode};
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

fn benchmark_request(name: &str) -> CompileRequest {
    let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
    CompileRequest::new(name, source).with_root(name)
}

fn generated_corpus() -> Vec<CompileRequest> {
    (0..6)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: 6 + k * 2,
                eqs_per_node: 5 + k,
                fan_in: 1 + k % 2,
                // Cover base-clocked and sub-clocked (depth 1 and 2) shapes.
                subclock_depth: k % 3,
            };
            let root = format!("blk{}", cfg.nodes - 1);
            CompileRequest::new(format!("gen{k}"), industrial_source(&cfg)).with_root(root)
        })
        .collect()
}

#[test]
fn warm_hit_skips_the_pipeline_and_reemits_identical_c() {
    let svc = service(ServiceConfig {
        workers: 2,
        caching: true,
        ..Default::default()
    });
    let names = ["tracker", "count", "cruise", "watchdog3"];
    let reqs: Vec<CompileRequest> = names.iter().map(|n| benchmark_request(n)).collect();

    let cold = svc.compile_batch(reqs.clone());
    assert_eq!(cold.ok_count(), names.len());
    assert_eq!(cold.hit_count(), 0);

    let warm = svc.compile_batch(reqs);
    assert_eq!(warm.ok_count(), names.len());
    assert_eq!(warm.hit_count(), names.len(), "every warm request must hit");

    for (a, b) in cold.items.iter().zip(&warm.items) {
        let cold_artifact = a.primary().unwrap();
        let warm_artifact = b.primary().unwrap();
        // The identical shared artifact, hence bit-identical emitted C.
        assert!(
            std::sync::Arc::ptr_eq(cold_artifact, warm_artifact),
            "{}",
            a.name
        );
        assert_eq!(cold_artifact.c_code(), warm_artifact.c_code(), "{}", a.name);
        // And the cached C matches an independent cold compilation.
        let fresh = velus::compile(
            &std::fs::read_to_string(velus_repro::benchmark_path(&a.name)).unwrap(),
            Some(&a.name),
        )
        .unwrap();
        assert_eq!(
            velus::emit_c(&fresh, velus::IoMode::Volatile),
            cold_artifact.c_code().unwrap()
        );
    }

    let stats = svc.stats();
    assert_eq!(stats.requests, 2 * names.len() as u64);
    assert_eq!(stats.cache_hits, names.len() as u64);
    assert_eq!(stats.cache_misses, names.len() as u64);
    // Miss latencies were recorded for every pipeline stage the
    // requests ran — everything except the lint pass, which only an
    // `--emit lint` request pays for.
    for stage in &stats.stages {
        let expected = if stage.stage == velus::Stage::Analysis {
            0
        } else {
            names.len() as u64
        };
        assert_eq!(stage.count, expected, "stage {}", stage.stage);
    }
}

#[test]
fn batch_output_is_deterministic_for_any_worker_count() {
    let reqs = generated_corpus();
    let mut outputs: Vec<Vec<String>> = Vec::new();
    for workers in [1, 4] {
        let svc = service(ServiceConfig {
            workers,
            caching: true,
            ..Default::default()
        });
        let report = svc.compile_batch(reqs.clone());
        assert_eq!(report.ok_count(), reqs.len(), "workers={workers}");
        // Reports come back in request order regardless of scheduling.
        let names: Vec<&str> = report.items.iter().map(|i| i.name.as_str()).collect();
        let expected: Vec<&str> = reqs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, expected, "workers={workers}");
        outputs.push(
            report
                .items
                .iter()
                .map(|i| i.primary().unwrap().c_code().unwrap().to_owned())
                .collect(),
        );
    }
    assert_eq!(
        outputs[0], outputs[1],
        "emitted C must not depend on worker count"
    );
}

#[test]
fn failing_requests_do_not_poison_the_batch_or_the_pool() {
    let svc = service(ServiceConfig {
        workers: 2,
        caching: true,
        ..Default::default()
    });
    let batch = svc.compile_batch(vec![
        benchmark_request("tracker"),
        CompileRequest::new("syntax", "node broken( returns"),
        CompileRequest::new(
            "missing-root",
            "node f(x: int) returns (y: int) let y = x; tel",
        )
        .with_root("nonexistent"),
        benchmark_request("count"),
    ]);
    assert_eq!(batch.ok_count(), 2);
    // Failures are structured: stable codes, stages, positions.
    match &batch.items[1].result {
        Err(ServiceError::Compile { report, .. }) => {
            let code = report.primary_code().expect("non-empty report");
            assert!(code.starts_with("E01"), "syntax failure got {code}");
            assert!(report.diagnostics[0].line > 0, "{report}");
        }
        other => panic!("expected a compile error, ok={}", other.is_ok()),
    }
    match &batch.items[2].result {
        Err(ServiceError::Compile { report, .. }) => {
            assert_eq!(report.primary_code(), Some("E0902"), "{report}");
            assert_eq!(report.diagnostics[0].stage, "driver");
        }
        other => panic!("expected a compile error, ok={}", other.is_ok()),
    }

    // The pool is alive and the failures were not cached.
    let again = svc.compile_batch(vec![benchmark_request("tracker")]);
    assert_eq!(again.ok_count(), 1);
    assert!(again.items[0].cache_hit);
    let stats = svc.stats();
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.panics, 0);
}

#[test]
fn io_mode_caches_separately_and_changes_the_artifact() {
    let svc = service(ServiceConfig {
        workers: 2,
        caching: true,
        ..Default::default()
    });
    let volatile = svc.compile_one(benchmark_request("tracker"));
    let stdio = svc.compile_one(
        benchmark_request("tracker").with_options(CompileOptions::default().with_io(IoMode::Stdio)),
    );
    assert!(!stdio.cache_hit);
    let v = volatile.primary().unwrap().c_code().unwrap().to_owned();
    let s = stdio.primary().unwrap().c_code().unwrap().to_owned();
    assert_ne!(v, s);
    assert!(s.contains("scanf"), "stdio mode uses the scanf harness");
    assert!(!v.contains("scanf"), "volatile mode must not");
    assert_eq!(svc.cache_len(), 2);
}

#[test]
fn generated_corpus_scales_across_workers_without_result_change() {
    // A correctness guard for the throughput bench: the same corpus it
    // measures compiles identically with the pool fully loaded.
    let reqs = generated_corpus();
    let svc = service(ServiceConfig {
        workers: 8,
        caching: true,
        ..Default::default()
    });
    let report = svc.compile_batch(reqs);
    assert_eq!(report.err_count(), 0);
    assert!(report.items.iter().all(|i| !i.cache_hit));
    // Every generated artifact contains its root's step function.
    for item in &report.items {
        let artifact = item.primary().unwrap();
        assert!(
            artifact.c_code().unwrap().contains("__step"),
            "{}: no step function in emitted C",
            item.name
        );
    }
}
