//! Service statistics: request/hit/miss/error counters and latency
//! distributions, per pipeline stage and per request.
//!
//! Latency distributions are [`velus_obs`] log-linear histograms:
//! recording is a few relaxed atomic increments on the recording
//! worker's own shard (no mutex, no allocation), counts are exact over
//! the **full run** (not a sliding sample window), and shards merge
//! associatively at snapshot time, which is what makes p99/p999
//! trustworthy under sustained traffic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use velus_common::codes;
use velus_obs::{PromWriter, ShardedHistogram};

use crate::cache::CacheCounters;
use crate::{ArtifactKind, Stage, StageSample};

/// Per-kind request/hit/miss counters (one slot per
/// [`ArtifactKind::GROUPS`] entry).
#[derive(Default)]
struct KindCounters {
    requests: [AtomicU64; ArtifactKind::GROUPS.len()],
    hits: [AtomicU64; ArtifactKind::GROUPS.len()],
    misses: [AtomicU64; ArtifactKind::GROUPS.len()],
}

/// Internal collector shared by service handles and worker closures.
#[derive(Default)]
pub(crate) struct StatsCollector {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    warnings: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    retries_attempted: AtomicU64,
    retries_succeeded: AtomicU64,
    quarantine_hits: AtomicU64,
    drains: AtomicU64,
    drain_ns: AtomicU64,
    kinds: KindCounters,
    /// Lint findings per code, indexed by the code's position in
    /// [`codes::LINT_CODES`] (a fixed key space, so plain atomics
    /// suffice — no lock on the warning path).
    lint_codes: [AtomicU64; codes::LINT_CODES.len()],
    /// Diagnostic code -> failed requests carrying it (a `BTreeMap` so
    /// snapshots list codes in stable order).
    failure_codes: Mutex<BTreeMap<&'static str, u64>>,
    stage_ns: [ShardedHistogram; Stage::ALL.len()],
    request_ns: ShardedHistogram,
}

impl StatsCollector {
    pub(crate) fn new() -> StatsCollector {
        StatsCollector::default()
    }

    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts non-fatal warnings emitted by one (uncached) compilation.
    pub(crate) fn record_warnings(&self, n: u64) {
        self.warnings.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts findings under their lint codes. Ids outside
    /// [`codes::LINT_CODES`] only land in the coarse `warnings` total.
    pub(crate) fn record_lint_codes<'a>(&self, ids: impl IntoIterator<Item = &'a str>) {
        for id in ids {
            if let Some(i) = codes::LINT_CODES.iter().position(|c| c.id == id) {
                self.lint_codes[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts one request rejected at admission (overload or drain).
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that failed because its deadline expired.
    pub(crate) fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retry attempt of a transient failure.
    pub(crate) fn record_retry_attempt(&self) {
        self.retries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that ultimately succeeded on a retry.
    pub(crate) fn record_retry_success(&self) {
        self.retries_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request rejected by the panic quarantine.
    pub(crate) fn record_quarantine_hit(&self) {
        self.quarantine_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed drain and its wall-clock duration.
    pub(crate) fn record_drain(&self, nanos: u64) {
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.drain_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Counts one failed request under each distinct diagnostic code it
    /// carried — the per-code failure rows of the snapshot.
    pub(crate) fn record_failure_codes(&self, codes: &[&'static str]) {
        let mut map = self.failure_codes.lock().expect("stats lock");
        for code in codes {
            *map.entry(code).or_insert(0) += 1;
        }
    }

    /// Records one artifact kind served: requested, and hit or missed
    /// the cache. (Request-level hit/miss counters stay the coarse "all
    /// kinds hit?" view; these are the per-kind rows.)
    pub(crate) fn record_kind(&self, kind: &ArtifactKind, hit: bool) {
        let g = kind.group_index();
        self.kinds.requests[g].fetch_add(1, Ordering::Relaxed);
        if hit {
            self.kinds.hits[g].fetch_add(1, Ordering::Relaxed);
        } else {
            self.kinds.misses[g].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_stages(&self, samples: &[StageSample]) {
        for s in samples {
            self.stage_ns[s.stage.index()].record(s.nanos);
        }
    }

    pub(crate) fn record_latency(&self, nanos: u64) {
        self.request_ns.record(nanos);
    }

    pub(crate) fn snapshot(
        &self,
        cache: CacheCounters,
        queue_depth: u64,
        quarantined: u64,
    ) -> StatsSnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|stage| {
                let h = self.stage_ns[stage.index()].snapshot();
                StageLatency {
                    stage: *stage,
                    count: h.count(),
                    p50_nanos: h.percentile(50.0),
                    p95_nanos: h.percentile(95.0),
                    p99_nanos: h.percentile(99.0),
                    total_nanos: h.sum(),
                }
            })
            .collect();
        let request = self.request_ns.snapshot();
        let kinds = ArtifactKind::GROUPS
            .iter()
            .enumerate()
            .map(|(g, name)| KindStats {
                kind: name,
                requests: self.kinds.requests[g].load(Ordering::Relaxed),
                hits: self.kinds.hits[g].load(Ordering::Relaxed),
                misses: self.kinds.misses[g].load(Ordering::Relaxed),
            })
            .collect();
        let failure_codes: Vec<(&'static str, u64)> = self
            .failure_codes
            .lock()
            .expect("stats lock")
            .iter()
            .map(|(code, n)| (*code, *n))
            .collect();
        let lint_codes: Vec<(&'static str, u64)> = codes::LINT_CODES
            .iter()
            .zip(&self.lint_codes)
            .map(|(code, n)| (code.id, n.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            warnings: self.warnings.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            retries_attempted: self.retries_attempted.load(Ordering::Relaxed),
            retries_succeeded: self.retries_succeeded.load(Ordering::Relaxed),
            quarantine_hits: self.quarantine_hits.load(Ordering::Relaxed),
            quarantined,
            drains: self.drains.load(Ordering::Relaxed),
            drain_ns: self.drain_ns.load(Ordering::Relaxed),
            failure_codes,
            lint_codes,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_evictions: cache.evictions,
            queue_depth,
            kinds,
            stages,
            request_p50_nanos: request.percentile(50.0),
            request_p95_nanos: request.percentile(95.0),
            request_p99_nanos: request.percentile(99.0),
            request_p999_nanos: request.percentile(99.9),
            request_count: request.count(),
            request_total_nanos: request.sum(),
        }
    }
}

/// Per-artifact-kind serving counters (one row per
/// [`ArtifactKind::GROUPS`] group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// The kind group's stable name (`c`, `wcet`, `baseline-diff`,
    /// `ir-dump`).
    pub kind: &'static str,
    /// Artifacts of this kind requested (hits + misses).
    pub requests: u64,
    /// Artifacts of this kind served from the cache.
    pub hits: u64,
    /// Artifacts of this kind that required compilation.
    pub misses: u64,
}

/// Latency distribution of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Which stage.
    pub stage: Stage,
    /// Number of (uncached) compilations sampled.
    pub count: u64,
    /// Median stage latency in nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile stage latency in nanoseconds.
    pub p95_nanos: u64,
    /// 99th-percentile stage latency in nanoseconds.
    pub p99_nanos: u64,
    /// Total nanoseconds spent in the stage.
    pub total_nanos: u64,
}

/// A point-in-time view of the service counters and latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted (hits + misses).
    pub requests: u64,
    /// Requests answered from the artifact cache.
    pub cache_hits: u64,
    /// Requests that ran the pipeline.
    pub cache_misses: u64,
    /// Requests that failed with a compile error (panics are counted
    /// separately in `panics`, never here).
    pub errors: u64,
    /// Requests whose compilation panicked (contained).
    pub panics: u64,
    /// Non-fatal warnings emitted across all (uncached) compilations.
    pub warnings: u64,
    /// Requests rejected at admission (overload shedding plus
    /// rejections while draining); never counted under `requests`.
    pub shed: u64,
    /// Requests that failed because their deadline expired.
    pub deadline_exceeded: u64,
    /// Retry attempts of transient failures (each re-execution counts
    /// one, whatever its outcome).
    pub retries_attempted: u64,
    /// Requests that ultimately succeeded on a retry.
    pub retries_succeeded: u64,
    /// Requests rejected because their input digest was quarantined.
    pub quarantine_hits: u64,
    /// Input digests held by the panic quarantine at snapshot time.
    pub quarantined: u64,
    /// Graceful drains performed (usually 0 or 1 per service lifetime).
    pub drains: u64,
    /// Total wall-clock nanoseconds spent draining.
    pub drain_ns: u64,
    /// Failed requests per diagnostic code, code-ordered. A request
    /// carrying several distinct codes counts once under each.
    pub failure_codes: Vec<(&'static str, u64)>,
    /// Lint findings per code ([`codes::LINT_CODES`] order, zero rows
    /// elided). Each finding counts one, so one compilation can add
    /// several to the same code.
    pub lint_codes: Vec<(&'static str, u64)>,
    /// Artifacts currently held by the cache.
    pub cache_entries: u64,
    /// Weighed bytes currently held by the cache (stored source plus
    /// the compiler's artifact-size estimate).
    pub cache_bytes: u64,
    /// Entries evicted to honor a capacity cap (monotone).
    pub cache_evictions: u64,
    /// Requests in flight when the snapshot was taken.
    pub queue_depth: u64,
    /// Per-artifact-kind serving counters ([`ArtifactKind::GROUPS`]
    /// order; a kind never requested has all-zero counters).
    pub kinds: Vec<KindStats>,
    /// Per-stage latency distributions (pipeline order), from merged
    /// per-worker histograms: exact counts over the full run,
    /// bucket-quantized percentile values.
    pub stages: Vec<StageLatency>,
    /// Median end-to-end request latency in nanoseconds.
    pub request_p50_nanos: u64,
    /// 95th-percentile end-to-end request latency in nanoseconds.
    pub request_p95_nanos: u64,
    /// 99th-percentile end-to-end request latency in nanoseconds.
    pub request_p99_nanos: u64,
    /// 99.9th-percentile end-to-end request latency in nanoseconds.
    pub request_p999_nanos: u64,
    /// End-to-end latency samples recorded (exact).
    pub request_count: u64,
    /// Total end-to-end latency across all requests, in nanoseconds.
    pub request_total_nanos: u64,
}

impl StatsSnapshot {
    /// Cache hit ratio in `[0, 1]`; 0 when no requests were served.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format —
    /// the body a `/stats` endpoint serves and `velus batch
    /// --metrics-out` writes.
    ///
    /// Name conventions: everything is prefixed `velus_`, monotone
    /// counters end in `_total`, latencies are `_seconds` summaries
    /// with `quantile` labels, and per-code failure counters carry a
    /// `class` label (`source` / `transient`) from
    /// [`velus_common::codes::retry_class_of`] so dashboards can
    /// separate deterministic input failures from environmental ones.
    pub fn render_prometheus(&self) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut w = PromWriter::new("velus");
        w.header(
            "requests_total",
            "Requests accepted (hits + misses).",
            "counter",
        );
        w.sample("requests_total", &[], self.requests as f64);
        w.header(
            "cache_hits_total",
            "Requests fully served from the cache.",
            "counter",
        );
        w.sample("cache_hits_total", &[], self.cache_hits as f64);
        w.header(
            "cache_misses_total",
            "Requests that ran the pipeline.",
            "counter",
        );
        w.sample("cache_misses_total", &[], self.cache_misses as f64);
        w.header(
            "errors_total",
            "Requests failed with a compile error.",
            "counter",
        );
        w.sample("errors_total", &[], self.errors as f64);
        w.header(
            "panics_total",
            "Requests whose compilation panicked.",
            "counter",
        );
        w.sample("panics_total", &[], self.panics as f64);
        w.header(
            "warnings_total",
            "Non-fatal warnings across compilations.",
            "counter",
        );
        w.sample("warnings_total", &[], self.warnings as f64);
        if !self.lint_codes.is_empty() {
            w.header(
                "lint_findings_total",
                "Static-analysis lint findings per diagnostic code.",
                "counter",
            );
            for (code, n) in &self.lint_codes {
                w.sample("lint_findings_total", &[("code", code)], *n as f64);
            }
        }
        w.header(
            "shed_total",
            "Requests rejected at admission (overload or drain).",
            "counter",
        );
        w.sample("shed_total", &[], self.shed as f64);
        w.header(
            "deadline_exceeded_total",
            "Requests failed by an expired deadline.",
            "counter",
        );
        w.sample(
            "deadline_exceeded_total",
            &[],
            self.deadline_exceeded as f64,
        );
        w.header(
            "retries_total",
            "Retry attempts of transient failures.",
            "counter",
        );
        w.sample("retries_total", &[], self.retries_attempted as f64);
        w.header(
            "retry_successes_total",
            "Requests that succeeded on a retry.",
            "counter",
        );
        w.sample("retry_successes_total", &[], self.retries_succeeded as f64);
        w.header(
            "quarantine_hits_total",
            "Requests rejected by the panic quarantine.",
            "counter",
        );
        w.sample("quarantine_hits_total", &[], self.quarantine_hits as f64);
        w.header(
            "quarantined",
            "Input digests currently quarantined.",
            "gauge",
        );
        w.sample("quarantined", &[], self.quarantined as f64);
        w.header("drains_total", "Graceful drains performed.", "counter");
        w.sample("drains_total", &[], self.drains as f64);
        w.header(
            "drain_seconds_total",
            "Total wall-clock time spent draining.",
            "counter",
        );
        w.sample("drain_seconds_total", &[], secs(self.drain_ns));
        if !self.failure_codes.is_empty() {
            w.header(
                "failures_total",
                "Failed requests per diagnostic code, with retry class.",
                "counter",
            );
            for (code, n) in &self.failure_codes {
                let class = codes::retry_class_of(code).label();
                w.sample(
                    "failures_total",
                    &[("code", code), ("class", class)],
                    *n as f64,
                );
            }
        }
        w.header(
            "kind_requests_total",
            "Artifacts requested, per kind.",
            "counter",
        );
        w.header(
            "kind_cache_hits_total",
            "Artifacts served from cache, per kind.",
            "counter",
        );
        w.header(
            "kind_cache_misses_total",
            "Artifacts compiled, per kind.",
            "counter",
        );
        for k in &self.kinds {
            let labels = [("kind", k.kind)];
            w.sample("kind_requests_total", &labels, k.requests as f64);
            w.sample("kind_cache_hits_total", &labels, k.hits as f64);
            w.sample("kind_cache_misses_total", &labels, k.misses as f64);
        }
        w.header("cache_entries", "Artifacts currently cached.", "gauge");
        w.sample("cache_entries", &[], self.cache_entries as f64);
        w.header("cache_bytes", "Weighed bytes currently cached.", "gauge");
        w.sample("cache_bytes", &[], self.cache_bytes as f64);
        w.header(
            "cache_evictions_total",
            "Cache entries evicted for capacity.",
            "counter",
        );
        w.sample("cache_evictions_total", &[], self.cache_evictions as f64);
        w.header(
            "queue_depth",
            "Requests in flight at snapshot time.",
            "gauge",
        );
        w.sample("queue_depth", &[], self.queue_depth as f64);
        w.header(
            "request_latency_seconds",
            "End-to-end request latency (merged-histogram quantiles).",
            "summary",
        );
        for (q, ns) in [
            ("0.5", self.request_p50_nanos),
            ("0.95", self.request_p95_nanos),
            ("0.99", self.request_p99_nanos),
            ("0.999", self.request_p999_nanos),
        ] {
            w.sample("request_latency_seconds", &[("quantile", q)], secs(ns));
        }
        w.sample(
            "request_latency_seconds_sum",
            &[],
            secs(self.request_total_nanos),
        );
        w.sample(
            "request_latency_seconds_count",
            &[],
            self.request_count as f64,
        );
        w.header(
            "stage_latency_seconds",
            "Per-pipeline-stage latency (merged-histogram quantiles).",
            "summary",
        );
        for s in &self.stages {
            let stage = s.stage.name();
            for (q, ns) in [
                ("0.5", s.p50_nanos),
                ("0.95", s.p95_nanos),
                ("0.99", s.p99_nanos),
            ] {
                w.sample(
                    "stage_latency_seconds",
                    &[("stage", stage), ("quantile", q)],
                    secs(ns),
                );
            }
            w.sample(
                "stage_latency_seconds_sum",
                &[("stage", stage)],
                secs(s.total_nanos),
            );
            w.sample(
                "stage_latency_seconds_count",
                &[("stage", stage)],
                s.count as f64,
            );
        }
        w.finish()
    }
}

fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl std::fmt::Display for StatsSnapshot {
    /// Renders an aligned plain-text table (the `velus batch` CLI prints
    /// this verbatim).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests {}  hits {}  misses {}  errors {}  panics {}  warnings {}  hit-ratio {:.0}%",
            self.requests,
            self.cache_hits,
            self.cache_misses,
            self.errors,
            self.panics,
            self.warnings,
            self.hit_ratio() * 100.0
        )?;
        if !self.failure_codes.is_empty() {
            let rows: Vec<String> = self
                .failure_codes
                .iter()
                .map(|(code, n)| format!("{code}:{n}"))
                .collect();
            writeln!(f, "failures by code: {}", rows.join("  "))?;
        }
        if !self.lint_codes.is_empty() {
            let rows: Vec<String> = self
                .lint_codes
                .iter()
                .map(|(code, n)| format!("{code}:{n}"))
                .collect();
            writeln!(f, "lint findings by code: {}", rows.join("  "))?;
        }
        writeln!(
            f,
            "robustness: shed {}  deadline-exceeded {}  retries {}/{}  \
             quarantine {} held / {} hits  drains {} ({})",
            self.shed,
            self.deadline_exceeded,
            self.retries_succeeded,
            self.retries_attempted,
            self.quarantined,
            self.quarantine_hits,
            self.drains,
            fmt_nanos(self.drain_ns)
        )?;
        writeln!(
            f,
            "cache: {} entries, {} bytes, {} evictions",
            self.cache_entries, self.cache_bytes, self.cache_evictions
        )?;
        writeln!(
            f,
            "request latency: p50 {}  p95 {}  p99 {}  p999 {}",
            fmt_nanos(self.request_p50_nanos),
            fmt_nanos(self.request_p95_nanos),
            fmt_nanos(self.request_p99_nanos),
            fmt_nanos(self.request_p999_nanos)
        )?;
        if self.kinds.iter().any(|k| k.requests > 0) {
            writeln!(
                f,
                "{:<14} {:>10} {:>8} {:>8}",
                "kind", "requests", "hits", "misses"
            )?;
            for k in self.kinds.iter().filter(|k| k.requests > 0) {
                writeln!(
                    f,
                    "{:<14} {:>10} {:>8} {:>8}",
                    k.kind, k.requests, k.hits, k.misses
                )?;
            }
        }
        writeln!(
            f,
            "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "stage", "count", "p50", "p95", "p99", "total"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
                s.stage.name(),
                s.count,
                fmt_nanos(s.p50_nanos),
                fmt_nanos(s.p95_nanos),
                fmt_nanos(s.p99_nanos),
                fmt_nanos(s.total_nanos)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recording_is_insertion_order_independent() {
        // The old sliding-window reservoir changed percentiles when its
        // ring wrapped; the histogram counts every sample, so rotating
        // the insertion order (the wraparound scenario) cannot change
        // any reported statistic.
        let samples: Vec<u64> = (0..10_000u64).map(|k| (k * 7919) % 100_000).collect();
        let forward = StatsCollector::new();
        let rotated = StatsCollector::new();
        for &s in &samples {
            forward.record_latency(s);
        }
        for &s in samples[5000..].iter().chain(&samples[..5000]) {
            rotated.record_latency(s);
        }
        let a = forward.snapshot(CacheCounters::default(), 0, 0);
        let b = rotated.snapshot(CacheCounters::default(), 0, 0);
        assert_eq!(a.request_p50_nanos, b.request_p50_nanos);
        assert_eq!(a.request_p999_nanos, b.request_p999_nanos);
        assert_eq!(a.request_count, 10_000);
        assert_eq!(a.request_total_nanos, b.request_total_nanos);
    }

    #[test]
    fn snapshot_collects_stage_samples() {
        let c = StatsCollector::new();
        c.record_request();
        c.record_miss();
        c.record_stages(&[
            StageSample {
                stage: Stage::Frontend,
                nanos: 100,
            },
            StageSample {
                stage: Stage::Emit,
                nanos: 10,
            },
        ]);
        c.record_latency(110);
        let snap = c.snapshot(CacheCounters::default(), 0, 0);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.cache_misses, 1);
        let frontend = &snap.stages[Stage::Frontend.index()];
        assert_eq!((frontend.count, frontend.p50_nanos), (1, 100));
        assert_eq!(snap.request_p50_nanos, 110);
        // The table renders every stage row.
        let rendered = snap.to_string();
        for stage in Stage::ALL {
            assert!(rendered.contains(stage.name()), "{rendered}");
        }
        assert!(rendered.contains("p999"), "{rendered}");
    }

    #[test]
    fn kind_counters_surface_as_rows() {
        let c = StatsCollector::new();
        c.record_kind(&ArtifactKind::CCode, false);
        c.record_kind(&ArtifactKind::CCode, true);
        c.record_kind(
            &ArtifactKind::Wcet {
                model: crate::WcetModelKind::Gcc,
            },
            false,
        );
        let snap = c.snapshot(CacheCounters::default(), 0, 0);
        let row = |name: &str| *snap.kinds.iter().find(|k| k.kind == name).unwrap();
        assert_eq!(
            (row("c").requests, row("c").hits, row("c").misses),
            (2, 1, 1)
        );
        assert_eq!((row("wcet").requests, row("wcet").misses), (1, 1));
        // Only requested kinds render; the others stay off the table.
        let rendered = snap.to_string();
        assert!(rendered.contains("wcet"), "{rendered}");
        assert!(!rendered.contains("baseline-diff"), "{rendered}");
    }

    #[test]
    fn prometheus_rendering_validates_and_labels_retry_class() {
        let c = StatsCollector::new();
        c.record_request();
        c.record_miss();
        c.record_error();
        c.record_failure_codes(&["E0201", "E0000"]);
        c.record_warnings(3);
        c.record_lint_codes(["W0102", "W0102", "W0104", "E0042"]);
        c.record_kind(&ArtifactKind::CCode, false);
        c.record_latency(1_500_000);
        c.record_shed();
        c.record_shed();
        c.record_deadline_exceeded();
        c.record_retry_attempt();
        c.record_retry_attempt();
        c.record_retry_success();
        c.record_quarantine_hit();
        c.record_drain(2_000_000_000);
        let snap = c.snapshot(CacheCounters::default(), 3, 1);
        let text = snap.render_prometheus();
        velus_obs::prom::check(&text).expect("exposition must validate");
        assert!(text.contains("velus_failures_total{code=\"E0201\",class=\"source\"} 1"));
        assert!(text.contains("velus_failures_total{code=\"E0000\",class=\"transient\"} 1"));
        // Lint findings count per code; unregistered ids stay out.
        assert!(text.contains("velus_lint_findings_total{code=\"W0102\"} 2"));
        assert!(text.contains("velus_lint_findings_total{code=\"W0104\"} 1"));
        assert!(!text.contains("E0042"), "{text}");
        assert_eq!(snap.lint_codes, vec![("W0102", 2), ("W0104", 1)]);
        assert!(text.contains("velus_queue_depth 3"));
        assert!(text.contains("velus_kind_requests_total{kind=\"c\"} 1"));
        assert!(text.contains("request_latency_seconds{quantile=\"0.999\"}"));
        assert!(text.contains("velus_stage_latency_seconds_count{stage=\"frontend\"} 0"));
        // The robustness counters render and validate too.
        assert!(text.contains("velus_shed_total 2"));
        assert!(text.contains("velus_deadline_exceeded_total 1"));
        assert!(text.contains("velus_retries_total 2"));
        assert!(text.contains("velus_retry_successes_total 1"));
        assert!(text.contains("velus_quarantine_hits_total 1"));
        assert!(text.contains("velus_quarantined 1"));
        assert!(text.contains("velus_drains_total 1"));
        assert!(text.contains("velus_drain_seconds_total 2"));
        // …and the plain-text table carries the robustness row.
        let table = snap.to_string();
        assert!(
            table.contains("robustness: shed 2  deadline-exceeded 1  retries 1/2"),
            "{table}"
        );
        assert!(
            table.contains("lint findings by code: W0102:2  W0104:1"),
            "{table}"
        );
        assert!(
            table.contains("quarantine 1 held / 1 hits  drains 1"),
            "{table}"
        );
    }

    #[test]
    fn stage_histograms_merge_across_threads() {
        let c = std::sync::Arc::new(StatsCollector::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for k in 0..500u64 {
                        c.record_stages(&[StageSample {
                            stage: Stage::Check,
                            nanos: 1000 + k,
                        }]);
                    }
                });
            }
        });
        let snap = c.snapshot(CacheCounters::default(), 0, 0);
        let check = &snap.stages[Stage::Check.index()];
        assert_eq!(check.count, 2000);
        assert!(check.p50_nanos >= 1000 && check.p99_nanos <= 1600);
    }
}
