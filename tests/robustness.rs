//! The serving layer's fault-tolerance contract over the *real*
//! pipeline.
//!
//! * **Deadlines** — an already-expired `deadline_ms` fails the request
//!   with `DeadlineExceeded` before any pass runs, coded `E0802`.
//! * **Load shedding** — a zero-capacity admission queue sheds every
//!   asynchronous submission with `Overloaded`, coded `E0801`.
//! * **Goldens** — the JSON renderings of the service-level rejections
//!   are pinned under `tests/errors/golden/service_*.json` (regenerate
//!   with `VELUS_REGEN_GOLDEN=1 cargo test --test robustness`), so the
//!   machine-readable shape clients retry on cannot drift silently.

use velus::service::{service, ServiceConfig};
use velus::CompileRequest;
use velus_server::ServiceError;

const PROGRAM: &str = "node main(x: int) returns (y: int)\n\
                       var acc: int;\n\
                       let\n\
                         acc = (0 fby acc) + x;\n\
                         y = if acc > 100 then 0 else acc;\n\
                       tel\n";

fn repo_path(rel: &str) -> std::path::PathBuf {
    velus_repro::repo_root().join(rel)
}

/// Same regeneration protocol as `tests/diagnostics.rs`.
fn check_golden(name: &str, actual: &str) {
    let path = repo_path(&format!("tests/errors/golden/{name}.json"));
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
        "golden mismatch for {name}.json; regenerate with VELUS_REGEN_GOLDEN=1 if intended"
    );
}

#[test]
fn an_expired_deadline_fails_the_real_pipeline_with_e0802() {
    let svc = service(ServiceConfig::default());
    let req = CompileRequest::new("deadline", PROGRAM).with_deadline_ms(0);
    let report = svc.compile_one(req);
    let err = match report.result {
        Ok(_) => panic!("expired deadline must reject"),
        Err(e) => e,
    };
    assert!(matches!(err, ServiceError::DeadlineExceeded), "{err}");
    let failure = err.failure_report();
    assert_eq!(failure.primary_code(), Some("E0802"));
    velus_testkit::json::parse(&failure.render_json()).expect("well-formed JSON rendering");
    let stats = svc.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert!(stats.failure_codes.contains(&("E0802", 1)));
    check_golden("service_deadline_exceeded", &failure.render_json());
}

#[test]
fn a_full_admission_queue_sheds_submissions_with_e0801() {
    let svc = service(ServiceConfig {
        workers: 1,
        queue_cap: Some(0),
        ..Default::default()
    });
    let sub = svc.submit(CompileRequest::new("shed", PROGRAM));
    assert!(!sub.admitted());
    let report = sub.wait();
    let err = match report.result {
        Ok(_) => panic!("zero-capacity queue must shed"),
        Err(e) => e,
    };
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    let failure = err.failure_report();
    assert_eq!(failure.primary_code(), Some("E0801"));
    velus_testkit::json::parse(&failure.render_json()).expect("well-formed JSON rendering");
    let stats = svc.stats();
    assert_eq!(stats.shed, 1);
    assert!(stats.failure_codes.contains(&("E0801", 1)));
    check_golden("service_overloaded", &failure.render_json());
}

#[test]
fn a_sane_deadline_lets_the_real_pipeline_finish() {
    let svc = service(ServiceConfig::default());
    let req = CompileRequest::new("relaxed", PROGRAM).with_deadline_ms(60_000);
    let report = svc.compile_one(req);
    assert!(
        report.result.is_ok(),
        "{:?}",
        report.result.err().map(|e| e.to_string())
    );
    assert_eq!(report.attempts, 1);
    assert_eq!(svc.stats().deadline_exceeded, 0);
}
