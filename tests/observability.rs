//! Integration tests of the observability layer against the real
//! service: Chrome-trace output is well-formed JSON, span streams obey
//! stack discipline across worker threads, and the mergeable histogram
//! tracks a sorted-vector oracle.

use proptest::prelude::*;

use velus::service::{service, ServiceConfig};
use velus::{CompileRequest, Recorder, RecorderConfig};
use velus_obs::trace::EventKind;
use velus_obs::Histogram;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};

fn generated_corpus(programs: usize) -> Vec<CompileRequest> {
    (0..programs)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: 6 + (k % 5) * 2,
                eqs_per_node: 5 + k % 4,
                fan_in: 1 + k % 2,
                subclock_depth: k % 3,
            };
            let root = format!("blk{}", cfg.nodes - 1);
            CompileRequest::new(format!("gen{k}"), industrial_source(&cfg)).with_root(root)
        })
        .collect()
}

/// Compiles a corpus through a traced multi-worker service and returns
/// the drained trace.
fn traced_batch(programs: usize, workers: usize) -> velus_obs::TraceData {
    let recorder = Recorder::new(RecorderConfig::default());
    let svc = service(ServiceConfig {
        workers,
        caching: true,
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let report = svc.compile_batch(generated_corpus(programs));
    assert_eq!(report.err_count(), 0, "corpus must compile");
    recorder.drain()
}

#[test]
fn chrome_trace_from_the_real_service_is_valid_json() {
    let data = traced_batch(8, 2);
    assert_eq!(data.dropped, 0, "default ring must not drop this batch");
    let json = data.chrome_json();
    velus_testkit::json::parse(&json).unwrap_or_else(|e| panic!("malformed Chrome trace: {e}"));
    // The trace must actually cover the layers the recorder instruments:
    // request lifecycle, queueing, cache probing, and pipeline passes.
    for needle in [
        "\"queue-wait\"",
        "\"cache-probe\"",
        "\"compile\"",
        "\"elaborate\"",
        "\"emit\"",
        "thread_name",
    ] {
        assert!(json.contains(needle), "trace JSON lacks {needle}");
    }
}

#[test]
fn spans_balance_and_nest_per_trace_across_worker_threads() {
    let programs = 12;
    let data = traced_batch(programs, 4);
    assert_eq!(data.dropped, 0);

    // Group the interleaved multi-worker stream by trace id; events
    // within one trace are in recording order because each request
    // scope flushes its events to the ring in one contiguous block.
    let mut traces: std::collections::BTreeMap<u64, Vec<&velus_obs::TraceEvent>> =
        std::collections::BTreeMap::new();
    for ev in &data.events {
        traces.entry(ev.trace).or_default().push(ev);
    }
    assert_eq!(traces.len(), programs, "one trace per request");

    for (trace, events) in &traces {
        // A request runs on exactly one worker thread, so every event
        // of its trace carries that thread's id.
        let tid = events[0].tid;
        assert!(
            events.iter().all(|e| e.tid == tid),
            "trace {trace} spans multiple threads"
        );

        // Stack discipline: every Enter's parent is the innermost open
        // span, every Exit closes the span the matching Enter opened,
        // and the scope closes everything before flushing.
        let mut stack: Vec<u64> = Vec::new();
        let mut last_ts = 0u64;
        for ev in events {
            // Complete intervals carry their own (earlier) start time —
            // queue wait began before the worker picked the request up.
            if !matches!(ev.kind, EventKind::Complete { .. }) {
                assert!(ev.ts_ns >= last_ts, "trace {trace} not in time order");
                last_ts = ev.ts_ns;
            }
            match ev.kind {
                EventKind::Enter => {
                    let expected_parent = stack.last().copied().unwrap_or(0);
                    assert_eq!(
                        ev.parent, expected_parent,
                        "trace {trace}: span {} (\"{}\") has parent {}, expected the innermost open span {expected_parent}",
                        ev.span, ev.name, ev.parent
                    );
                    stack.push(ev.span);
                }
                EventKind::Exit => {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("trace {trace}: exit of span {} with no span open", ev.span)
                    });
                    assert_eq!(open, ev.span, "trace {trace}: spans exit out of order");
                }
                EventKind::Instant | EventKind::Complete { .. } => {}
            }
        }
        assert!(
            stack.is_empty(),
            "trace {trace} flushed with spans still open: {stack:?}"
        );

        // Each traced request records its queueing interval and at
        // least the root request span plus the compile span.
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Complete { .. }) && e.name == "queue-wait"),
            "trace {trace} lacks a queue-wait interval"
        );
        let enters: Vec<&str> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter))
            .map(|e| e.name)
            .collect();
        assert!(
            enters.len() >= 2,
            "trace {trace} recorded too few spans: {enters:?}"
        );
    }
}

#[test]
fn submitted_requests_are_traced_like_batch_requests() {
    let recorder = Recorder::new(RecorderConfig::default());
    let svc = service(ServiceConfig {
        workers: 2,
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let req = generated_corpus(1).pop().expect("one request");
    let report = svc.submit(req).wait();
    assert!(report.result.is_ok(), "request must compile");
    // The worker closes the request scope before the report is sent,
    // so the trace is complete once `wait` returns.
    let data = recorder.drain();
    let traces: std::collections::BTreeSet<u64> = data.events.iter().map(|e| e.trace).collect();
    assert_eq!(traces.len(), 1, "one trace for the one request");
    let has = |kind: fn(&EventKind) -> bool, name: &str| {
        data.events.iter().any(|e| kind(&e.kind) && e.name == name)
    };
    let enter = |k: &EventKind| matches!(k, EventKind::Enter);
    let complete = |k: &EventKind| matches!(k, EventKind::Complete { .. });
    assert!(has(complete, "queue-wait"), "no queue-wait interval");
    for span in [
        "request",
        "cache-probe",
        "compile",
        "elaborate",
        "parse",
        "lower",
        "emit",
        "teardown",
    ] {
        assert!(has(enter, span), "no `{span}` span");
    }
    // The front end's two phases are children of its pass span.
    let span_of = |name: &str| {
        data.events
            .iter()
            .find(|e| enter(&e.kind) && e.name == name)
            .expect("recorded")
    };
    let elaborate = span_of("elaborate").span;
    for phase in ["parse", "lower"] {
        assert_eq!(
            span_of(phase).parent,
            elaborate,
            "`{phase}` under `elaborate`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The log-linear histogram's percentiles stay within its bucketing
    /// error of the exact nearest-rank answer over a sorted copy, and
    /// splitting the sample anywhere before merging changes nothing.
    #[test]
    fn histogram_matches_a_sorted_oracle_and_merge_is_lossless(
        values in prop::collection::vec(1u64..1_000_000_000u64, 1..200),
        split in any::<u64>(),
    ) {
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }

        // Merge equivalence: recording through two shards then merging
        // is indistinguishable from recording everything in one.
        let cut = (split as usize) % (values.len() + 1);
        let (left, right) = values.split_at(cut);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in left {
            a.record(v);
        }
        for &v in right {
            b.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.sum(), whole.sum());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        for pct in [50.0, 95.0, 99.0] {
            prop_assert_eq!(a.percentile(pct), whole.percentile(pct));
        }

        // Percentile accuracy: within the documented ~3.2% relative
        // error of the exact nearest-rank oracle, and never outside the
        // recorded range.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for pct in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = whole.percentile(pct);
            prop_assert!(got >= whole.min() && got <= whole.max());
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(
                err <= 0.035,
                "p{pct}: histogram {got} vs oracle {exact} (err {err:.4})"
            );
        }
    }
}
