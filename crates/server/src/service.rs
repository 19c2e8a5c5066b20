//! The compilation service proper: admission control, cache lookup,
//! worker-pool dispatch, deadlines, retry, panic containment and
//! quarantine, graceful drain, and statistics.
//!
//! The fault-tolerance layer (see `docs/ARCHITECTURE.md`, "Fault
//! tolerance in the serving layer") wraps every request in a fixed
//! state machine:
//!
//! ```text
//! the calling thread:
//! submit ──► draining? ──► gate ──► probe ── every kind hit ──► done
//!             │ E0805       │        │ a kind missing
//!             ▼             │        ▼
//!           shed            │    admission ──► queued
//!                           │        │ E0801     │
//!                           │        ▼           │
//!                           │      shed          │
//! a worker:                 │                    ▼
//!                           │                  gate ──► attempt ──► done
//!                           │ E0802/E0803        │ E0802/E0803   │
//!                           ▼                    ▼               ▼ transient?
//!                       rejected             rejected      retry w/ backoff
//! ```
//!
//! * **Hits on the calling thread.** `submit` digests the request once,
//!   runs the gates and probes every requested kind. When every kind
//!   verified-hits, the report is built right there: no pool job, no
//!   channel round trip, no admission slot. Only a request with a
//!   missing kind goes to a worker, carrying its digest and the
//!   artifacts already found, so nothing is digested, probed or counted
//!   twice; the worker re-probes only the missing kinds, on every
//!   attempt, since another worker may have filled them meanwhile.
//! * **Admission** ([`ServiceConfig::queue_cap`]) bounds the count of
//!   work waiting for or running on a worker and sheds the excess with
//!   [`ServiceError::Overloaded`] instead of queueing unboundedly. A hit
//!   never waits, so it never counts against the cap.
//! * **Deadlines**: a request's `deadline_ms` starts at submission; the
//!   per-request [`CancelToken`] is checked before a hit is served,
//!   before each attempt and at every pass boundary of a cooperative
//!   compiler.
//! * **Retry**: transient failures (per
//!   [`velus_common::codes::retry_class_of`]) are re-attempted up to
//!   [`crate::RetryPolicy::budget`] with decorrelated-jitter backoff;
//!   source failures never are.
//! * **Quarantine**: an input whose compilation still panics after its
//!   retries has its digest blocklisted; repeat offenders are rejected
//!   with [`ServiceError::Quarantined`] before touching a worker.
//! * **Drain** ([`CompileService::drain`]) closes admission, waits for
//!   in-flight work, and cancels stragglers via the shared kill switch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use velus_common::{codes, RetryClass, Severity};
use velus_obs::trace;
use velus_obs::Recorder;

use crate::admit::{Admission, AdmitReject, Backoff, Quarantine, RetryPolicy};
use crate::cache::{ArtifactCache, CacheConfig, ContentDigest, RequestContent};
use crate::cancel::{CancelReason, CancelToken};
use crate::pool::{WorkerPool, DEFAULT_SHUTDOWN_TIMEOUT};
use crate::stats::{StatsCollector, StatsSnapshot};
use crate::{ArtifactKind, CompileRequest, Compiler, DiagRecord, FailureReport};

/// How long past the drain deadline the service waits for cooperative
/// cancellation to land after flipping the kill switch.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Whether the artifact cache is consulted and filled.
    pub caching: bool,
    /// Cache shape and capacity (shard count, entry/byte caps).
    pub cache: CacheConfig,
    /// Structured-tracing recorder. When set, every request runs under
    /// a trace scope (queue wait, cache probe, pipeline passes, artifact
    /// handling) and the recorder's flight recorder retains the slowest
    /// requests' span trees. `None` (the default) keeps the service
    /// entirely trace-free.
    pub recorder: Option<Recorder>,
    /// Maximum requests waiting for or running on a worker; over it,
    /// requests are shed with `E0801`. A request every kind of which is
    /// cached is served on the submitting thread and never counts.
    /// `None` (the default) admits everything.
    pub queue_cap: Option<usize>,
    /// Retry policy for transient failures. The default budget is 0:
    /// retrying is opt-in.
    pub retry: RetryPolicy,
    /// Capacity of the panic quarantine (input digests); 0 disables it.
    pub quarantine_cap: usize,
    /// How long shutdown waits for each worker to acknowledge before
    /// surfacing a coded `E0804` timeout (and how long `Drop` waits
    /// before detaching wedged workers instead of hanging).
    pub shutdown_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            caching: true,
            cache: CacheConfig::default(),
            recorder: None,
            queue_cap: None,
            retry: RetryPolicy::default(),
            quarantine_cap: 64,
            shutdown_timeout: DEFAULT_SHUTDOWN_TIMEOUT,
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ServiceError<E> {
    /// The compiler reported an error (the usual case: bad input). The
    /// payload is no longer an opaque `Display` string: the structured
    /// [`FailureReport`] carries every diagnostic's stable code,
    /// originating stage, severity and resolved position, and the
    /// original typed error rides along for programmatic access.
    Compile {
        /// The compiler's typed error.
        error: E,
        /// The flattened, coded diagnostics of the failure.
        report: FailureReport,
    },
    /// The compiler panicked; the panic was contained to this request.
    Panic(String),
    /// The compiler returned no artifact for a requested kind — a bug in
    /// the [`Compiler`] implementation, surfaced loudly rather than
    /// served as a partial result.
    MissingArtifact(ArtifactKind),
    /// The worker executing the request disappeared before reporting
    /// (should not happen; a defensive placeholder, never silent).
    Lost,
    /// Admission control shed the request: the queue cap was exceeded
    /// (`E0801`). Retrying later, when load has receded, may succeed.
    Overloaded {
        /// Outstanding admitted requests at rejection time.
        queued: u64,
    },
    /// The request's deadline expired — while queued, or at a pass
    /// boundary of a cooperative compiler (`E0802`).
    DeadlineExceeded,
    /// The input's digest is quarantined after repeated panics
    /// (`E0803`). Resubmitting the identical input is rejected until
    /// the quarantine entry ages out.
    Quarantined,
    /// The service is draining or shut down; the request was rejected
    /// or cancelled (`E0805`).
    Draining,
}

impl<E> ServiceError<E> {
    /// The structured, coded report of this failure — every variant
    /// yields at least one [`DiagRecord`] with a stable code, so shed
    /// and timed-out requests are machine-readable like compile errors.
    pub fn failure_report(&self) -> FailureReport {
        fn coded(code: velus_common::Code, message: String) -> FailureReport {
            FailureReport {
                diagnostics: vec![DiagRecord {
                    code: code.id,
                    severity: Severity::Error,
                    stage: velus_common::DiagStage::Driver.name(),
                    message,
                    line: 0,
                    col: 0,
                }],
            }
        }
        match self {
            ServiceError::Compile { report, .. } => report.clone(),
            ServiceError::Panic(msg) => {
                FailureReport::from_message(format!("compiler panicked: {msg}"))
            }
            ServiceError::MissingArtifact(kind) => {
                FailureReport::from_message(format!("compiler produced no `{kind}` artifact"))
            }
            ServiceError::Lost => {
                FailureReport::from_message("request lost by the worker pool".to_owned())
            }
            ServiceError::Overloaded { queued } => coded(
                codes::E0801,
                format!("service overloaded: shed with {queued} requests outstanding"),
            ),
            ServiceError::DeadlineExceeded => {
                coded(codes::E0802, "request deadline exceeded".to_owned())
            }
            ServiceError::Quarantined => coded(
                codes::E0803,
                "input quarantined after repeated compiler panics".to_owned(),
            ),
            ServiceError::Draining => coded(
                codes::E0805,
                "service is draining; request rejected or cancelled".to_owned(),
            ),
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for ServiceError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile { report, .. } => write!(f, "{report}"),
            ServiceError::Panic(msg) => write!(f, "compiler panicked: {msg}"),
            ServiceError::MissingArtifact(kind) => {
                write!(f, "compiler produced no `{kind}` artifact")
            }
            ServiceError::Lost => f.write_str("request lost by the worker pool"),
            ServiceError::Overloaded { queued } => write!(
                f,
                "error[E0801]: service overloaded ({queued} requests outstanding)"
            ),
            ServiceError::DeadlineExceeded => f.write_str("error[E0802]: deadline exceeded"),
            ServiceError::Quarantined => f.write_str("error[E0803]: input quarantined"),
            ServiceError::Draining => f.write_str("error[E0805]: service draining"),
        }
    }
}

/// One served artifact of one request (a request yields one per
/// requested kind, in the request's kind order).
pub struct ArtifactReport<C: Compiler> {
    /// Which kind this artifact is.
    pub kind: ArtifactKind,
    /// The shared artifact.
    pub artifact: Arc<C::Artifact>,
    /// Whether *this kind* came from the cache (a mixed request can hit
    /// some kinds and compile others).
    pub cache_hit: bool,
}

/// The outcome of one request within a batch.
pub struct RequestReport<C: Compiler> {
    /// The request's label.
    pub name: String,
    /// The served artifacts (one per requested kind, in kind order), or
    /// the failure.
    pub result: Result<Vec<ArtifactReport<C>>, ServiceError<C::Error>>,
    /// Whether **every** requested kind was served from the cache (the
    /// pipeline did not run at all).
    pub cache_hit: bool,
    /// Non-fatal warnings the compilation emitted (empty when every
    /// kind was served from the cache — warnings surface when the
    /// pipeline actually runs).
    pub warnings: Vec<DiagRecord>,
    /// The service's own time on this request, queueing excluded: the
    /// digest, gates and probe on the submitting thread, plus the
    /// worker's time when the request went to one. For a hit served on
    /// the submitting thread this is its probe time.
    pub latency: Duration,
    /// Compilation attempts executed: 1 for the normal path, more when
    /// transient failures were retried, 0 when the request never ran
    /// (shed at admission, quarantined, or expired while queued).
    pub attempts: u32,
}

impl<C: Compiler> RequestReport<C> {
    /// The served artifact of the given kind, if the request succeeded
    /// and asked for it.
    pub fn artifact(&self, kind: &ArtifactKind) -> Option<&Arc<C::Artifact>> {
        self.result
            .as_ref()
            .ok()?
            .iter()
            .find(|a| a.kind == *kind)
            .map(|a| &a.artifact)
    }

    /// The first served artifact (the request's primary kind), if any.
    /// For a default request this is the C artifact.
    pub fn primary(&self) -> Option<&Arc<C::Artifact>> {
        self.result.as_ref().ok()?.first().map(|a| &a.artifact)
    }
}

/// The outcome of a whole batch, in request order.
pub struct BatchReport<C: Compiler> {
    /// Per-request reports, positionally matching the submitted batch.
    pub items: Vec<RequestReport<C>>,
    /// Wall-clock time for the batch.
    pub wall: Duration,
}

impl<C: Compiler> BatchReport<C> {
    /// Number of successful requests.
    pub fn ok_count(&self) -> usize {
        self.items.iter().filter(|r| r.result.is_ok()).count()
    }

    /// Number of failed requests.
    pub fn err_count(&self) -> usize {
        self.items.len() - self.ok_count()
    }

    /// Number of requests served from the cache.
    pub fn hit_count(&self) -> usize {
        self.items.iter().filter(|r| r.cache_hit).count()
    }

    /// Number of requests shed at admission (overload or drain).
    pub fn shed_count(&self) -> usize {
        self.items
            .iter()
            .filter(|r| {
                matches!(
                    r.result,
                    Err(ServiceError::Overloaded { .. }) | Err(ServiceError::Draining)
                ) && r.attempts == 0
            })
            .count()
    }

    /// Requests per second over the batch wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.items.len() as f64 / secs
        }
    }
}

/// The outcome of a [`CompileService::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests still in flight when the drain deadline expired and the
    /// kill switch was flipped (each was cancelled cooperatively).
    pub cancelled: u64,
    /// Requests still outstanding when the drain returned — 0 unless a
    /// non-cooperative compilation outlived the grace period too.
    pub outstanding: u64,
    /// Wall-clock time the drain took.
    pub duration: Duration,
}

impl DrainReport {
    /// Whether every in-flight request completed before the deadline
    /// (nothing was cancelled, nothing left outstanding).
    pub fn clean(&self) -> bool {
        self.cancelled == 0 && self.outstanding == 0
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.clean() {
            write!(f, "drain: clean in {:.1?}", self.duration)
        } else {
            write!(
                f,
                "drain: cancelled {} in-flight ({} unresponsive) in {:.1?}",
                self.cancelled, self.outstanding, self.duration
            )
        }
    }
}

/// A single request dispatched through [`CompileService::submit`]: either
/// already settled on the submitting thread (a hit, a gate's rejection,
/// a shed request) or queued for a worker.
pub struct Submission<C: Compiler> {
    admitted: bool,
    state: Pending<C>,
}

enum Pending<C: Compiler> {
    Settled(RequestReport<C>),
    Queued {
        name: String,
        rx: mpsc::Receiver<RequestReport<C>>,
    },
}

impl<C: Compiler> Submission<C> {
    /// Whether the request was accepted rather than shed with `E0801`
    /// or `E0805` (a shed request still resolves — immediately, with its
    /// coded rejection). A hit served on the submitting thread is
    /// accepted without taking an admission slot.
    pub fn admitted(&self) -> bool {
        self.admitted
    }

    /// The report: at once when the request was settled in `submit`,
    /// otherwise blocking until its worker sends it.
    pub fn wait(self) -> RequestReport<C> {
        match self.state {
            Pending::Settled(report) => report,
            Pending::Queued { name, rx } => rx.recv().unwrap_or_else(|_| RequestReport {
                name,
                result: Err(ServiceError::Lost),
                cache_hit: false,
                warnings: Vec::new(),
                latency: Duration::ZERO,
                attempts: 0,
            }),
        }
    }

    fn settled(admitted: bool, report: RequestReport<C>) -> Submission<C> {
        Submission {
            admitted,
            state: Pending::Settled(report),
        }
    }
}

/// A request on its way through the service, digested once on entry,
/// with the artifact of each requested kind found so far. `submit`
/// builds it; when a kind is missing, the worker takes it over.
struct Job<C: Compiler> {
    req: CompileRequest,
    kinds: Vec<ArtifactKind>,
    /// One pass over the content; every kind's key, the retry jitter and
    /// the quarantine entry derive from it.
    digest: ContentDigest,
    /// One slot per kind, in kind order.
    slots: Vec<Option<Arc<C::Artifact>>>,
    /// The service's time on the request before a worker took it over
    /// (the digest, and in `submit` the gates and probe).
    spent: Duration,
}

impl<C: Compiler> Job<C> {
    fn new(req: CompileRequest) -> Job<C> {
        let start = Instant::now();
        let kinds = req.options.effective_kinds();
        let digest = ContentDigest::of(&req);
        Job {
            digest,
            slots: vec![None; kinds.len()],
            kinds,
            req,
            spent: start.elapsed(),
        }
    }

    /// The served artifacts, in kind order, taken out of the slots; the
    /// kinds at the indices in `compiled` did not come from the cache.
    fn artifacts(
        &mut self,
        compiled: &[usize],
    ) -> Result<Vec<ArtifactReport<C>>, ServiceError<C::Error>> {
        let mut artifacts = Vec::with_capacity(self.kinds.len());
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot.take() {
                Some(artifact) => artifacts.push(ArtifactReport {
                    kind: self.kinds[i],
                    artifact,
                    cache_hit: !compiled.contains(&i),
                }),
                None => return Err(ServiceError::MissingArtifact(self.kinds[i])),
            }
        }
        Ok(artifacts)
    }
}

/// Everything a request's execution needs, shared once per job instead
/// of cloning six `Arc`s into every closure.
struct Inner<C: Compiler> {
    compiler: C,
    cache: ArtifactCache<C::Artifact>,
    caching: bool,
    stats: StatsCollector,
    in_flight: AtomicU64,
    admission: Admission,
    quarantine: Quarantine,
    retry: RetryPolicy,
    /// Drain/shutdown kill switch shared with every request token.
    kill: Arc<AtomicBool>,
}

impl<C: Compiler> Inner<C> {
    fn token_for(&self, req: &CompileRequest) -> CancelToken {
        CancelToken::for_request(
            req.deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            Arc::clone(&self.kill),
        )
    }
}

/// A parallel, cache-backed batch compilation service over any
/// [`Compiler`]. See the crate docs for the architecture.
pub struct CompileService<C: Compiler> {
    inner: Arc<Inner<C>>,
    pool: WorkerPool,
    recorder: Option<Recorder>,
}

impl<C: Compiler> CompileService<C> {
    /// Builds a service with its own worker pool and empty cache.
    pub fn new(compiler: C, config: ServiceConfig) -> CompileService<C> {
        CompileService {
            inner: Arc::new(Inner {
                compiler,
                cache: ArtifactCache::with_config(config.cache, Box::new(C::artifact_bytes)),
                caching: config.caching,
                stats: StatsCollector::new(),
                in_flight: AtomicU64::new(0),
                admission: Admission::new(config.queue_cap),
                quarantine: Quarantine::new(config.quarantine_cap),
                retry: config.retry,
                kill: Arc::new(AtomicBool::new(false)),
            }),
            pool: WorkerPool::with_shutdown_timeout(config.workers, config.shutdown_timeout),
            recorder: config.recorder,
        }
    }

    /// The tracing recorder, when the service was configured with one
    /// (drain it for Chrome-trace output, query it for flight records).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// The wrapped compiler (e.g. to read a fault injector's counters).
    pub fn compiler(&self) -> &C {
        &self.inner.compiler
    }

    /// Worker threads that died (0 in a healthy service: panics are
    /// contained per request, and per-job as a second line of defense).
    pub fn dead_workers(&self) -> usize {
        self.pool.dead_workers()
    }

    /// Number of distinct artifacts cached.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Requests currently being compiled (approximate, for monitoring).
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Relaxed)
    }

    /// Admitted requests not yet completed (queued + running).
    pub fn outstanding(&self) -> u64 {
        self.inner.admission.outstanding()
    }

    /// A point-in-time statistics snapshot (including the cache's
    /// occupancy and eviction counters, the in-flight queue depth, and
    /// the robustness counters).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(
            self.inner.cache.counters(),
            self.in_flight(),
            self.inner.quarantine.len(),
        )
    }

    /// Compiles one request on the calling thread (same cache,
    /// deadline/retry/quarantine handling, and accounting as a batch;
    /// traced when a recorder is configured — without a queue-wait
    /// interval, since nothing queued). Runs outside admission — it
    /// consumes no pool capacity — but a draining service rejects it.
    pub fn compile_one(&self, req: CompileRequest) -> RequestReport<C> {
        let _scope = self.recorder.as_ref().map(|rec| rec.scope(&req.name));
        if self.inner.admission.is_closed() {
            return rejected(&self.inner.stats, req.name, ServiceError::Draining);
        }
        let token = self.inner.token_for(&req);
        run_request(&self.inner, Job::new(req), &token)
    }

    /// Serves one request without blocking on a worker: the open-loop
    /// entry point (arrivals are not gated on completions).
    ///
    /// The request is digested once and gated on the calling thread
    /// (`E0805` when draining, `E0803` when quarantined, `E0802` when its
    /// deadline is already spent), then every requested kind is probed,
    /// verified byte for byte on a hit. When every kind hits, the report
    /// is built here and the submission is already resolved: a hit needs
    /// no worker, so it takes no admission slot and never waits. Otherwise
    /// the request is admitted (or shed with `E0801`) and queued for a
    /// worker, which compiles only the missing kinds.
    ///
    /// With a recorder configured, a request settled here is traced on
    /// the calling thread (`request` and `cache-probe` spans, no
    /// `queue-wait`, since nothing queued). A queued request is traced
    /// on its worker, opened with a `queue-wait` interval from dispatch
    /// to pickup; the calling thread's probe of it records nothing.
    pub fn submit(&self, req: CompileRequest) -> Submission<C> {
        if self.inner.admission.is_closed() {
            let report = rejected(&self.inner.stats, req.name, ServiceError::Draining);
            return Submission::settled(false, report);
        }
        // The token starts now: queue wait counts against the request's
        // deadline.
        let token = self.inner.token_for(&req);
        let traced = self.recorder.as_ref().map(|rec| (rec, rec.new_trace()));
        let scope = traced.map(|(rec, trace_id)| rec.scope_with(&req.name, trace_id));
        let mut job = Job::new(req);
        if let Some(report) = settle(&self.inner, &mut job, &token) {
            drop(scope);
            return Submission::settled(true, report);
        }
        if let Some(scope) = scope {
            scope.discard();
        }
        if let Err(reject) = self.inner.admission.try_admit() {
            let report = rejected(&self.inner.stats, job.req.name, reject_error(reject));
            return Submission::settled(false, report);
        }
        let (tx, rx) = mpsc::channel();
        let name = job.req.name.clone();
        let inner = Arc::clone(&self.inner);
        let queued = traced.map(|(rec, trace_id)| (rec.clone(), trace_id, rec.now_ns()));
        self.pool.execute(move || {
            let report = {
                // The scope closes before the report is sent, so a
                // waiter that drains the recorder sees the whole trace.
                let _scope = queued.as_ref().map(|(rec, trace_id, queued_ns)| {
                    let scope = rec.scope_with(&job.req.name, *trace_id);
                    trace::complete(
                        "queue-wait",
                        *queued_ns,
                        rec.now_ns().saturating_sub(*queued_ns),
                    );
                    scope
                });
                run_request(&inner, job, &token)
            };
            inner.admission.release();
            let _ = tx.send(report);
        });
        Submission {
            admitted: true,
            state: Pending::Queued { name, rx },
        }
    }

    /// Serves a batch and reports per-request outcomes **in request
    /// order**: each request goes through [`CompileService::submit`] in
    /// order (hits are served there, on the calling thread, and misses
    /// queue for the pool), then each is waited for.
    ///
    /// Requests the admission layer sheds fail immediately with a coded
    /// [`ServiceError::Overloaded`]/[`ServiceError::Draining`] — their
    /// slots in the report are never silently dropped.
    pub fn compile_batch(&self, reqs: Vec<CompileRequest>) -> BatchReport<C> {
        let start = Instant::now();
        let submissions: Vec<Submission<C>> = reqs.into_iter().map(|r| self.submit(r)).collect();
        let items = submissions.into_iter().map(Submission::wait).collect();
        BatchReport {
            items,
            wall: start.elapsed(),
        }
    }

    /// Gracefully drains the service: closes admission (subsequent
    /// requests are rejected with `E0805`), waits up to `deadline` for
    /// admitted work to complete, then flips the shared kill switch so
    /// stragglers cancel cooperatively at their next check point. The
    /// drain duration is recorded in the statistics, so the final
    /// snapshot/Prometheus flush reflects it.
    ///
    /// Admission stays closed forever — draining is one-way. Work
    /// running via [`CompileService::compile_one`] on a caller's thread
    /// is cancelled by the kill switch but not waited for (it was never
    /// admitted).
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let start = Instant::now();
        self.inner.admission.close();
        let end = start + deadline;
        while self.inner.admission.outstanding() > 0 && Instant::now() < end {
            thread::sleep(Duration::from_micros(200));
        }
        let cancelled = self.inner.admission.outstanding();
        if cancelled > 0 {
            self.inner.kill.store(true, Ordering::Relaxed);
            let grace_end = end + DRAIN_GRACE;
            while self.inner.admission.outstanding() > 0 && Instant::now() < grace_end {
                thread::sleep(Duration::from_micros(200));
            }
        }
        let duration = start.elapsed();
        self.inner.stats.record_drain(duration.as_nanos() as u64);
        DrainReport {
            cancelled,
            outstanding: self.inner.admission.outstanding(),
            duration,
        }
    }

    /// Shuts the worker pool down, waiting up to the configured
    /// `shutdown_timeout` for every worker to acknowledge.
    ///
    /// # Errors
    ///
    /// [`crate::ShutdownTimeout`] (`E0804`) when a worker fails to ack
    /// in time (its thread is detached, not joined — no hang).
    pub fn shutdown(&self) -> Result<(), crate::pool::ShutdownTimeout> {
        self.inner.admission.close();
        self.inner.kill.store(true, Ordering::Relaxed);
        self.pool.shutdown(self.pool.shutdown_timeout())
    }
}

fn reject_error<E>(reject: AdmitReject) -> ServiceError<E> {
    match reject {
        AdmitReject::Overloaded { queued } => ServiceError::Overloaded { queued },
        AdmitReject::Draining => ServiceError::Draining,
    }
}

/// Builds the immediate report of a request rejected at admission and
/// records it: one `shed` count plus its coded failure row.
fn rejected<C: Compiler>(
    stats: &StatsCollector,
    name: String,
    err: ServiceError<C::Error>,
) -> RequestReport<C> {
    stats.record_shed();
    stats.record_failure_codes(&err.failure_report().codes());
    RequestReport {
        name,
        result: Err(err),
        cache_hit: false,
        warnings: Vec::new(),
        latency: Duration::ZERO,
        attempts: 0,
    }
}

fn cancel_to_error<E>(reason: CancelReason) -> ServiceError<E> {
    match reason {
        CancelReason::Deadline => ServiceError::DeadlineExceeded,
        CancelReason::Shutdown => ServiceError::Draining,
    }
}

/// The gates every request passes before it is served, and before each
/// attempt on a worker: a request whose deadline is spent (or which a
/// drain cancelled) never runs, and a quarantined input never reaches a
/// compiler, whatever of it is cached.
fn gate<C: Compiler>(
    inner: &Inner<C>,
    digest: &ContentDigest,
    token: &CancelToken,
) -> Option<ServiceError<C::Error>> {
    if let Some(reason) = token.state() {
        return Some(cancel_to_error(reason));
    }
    if inner.quarantine.check(digest) {
        inner.stats.record_quarantine_hit();
        return Some(ServiceError::Quarantined);
    }
    None
}

/// Probes the cache for every kind not found yet (verified on a hit,
/// which counts toward the entry's stay), under a `cache-probe` span
/// with one `probe` instant per kind. Counts nothing; returns whether
/// every kind is found.
fn probe<C: Compiler>(inner: &Inner<C>, job: &mut Job<C>) -> bool {
    let span = trace::enter("cache-probe");
    for (kind, slot) in job.kinds.iter().zip(&mut job.slots) {
        if slot.is_none() && inner.caching {
            *slot = inner.cache.get(&job.digest.key(kind), &job.req, kind);
        }
        if trace::active() {
            let outcome = if slot.is_some() { "hit" } else { "miss" };
            trace::instant("probe", Some(format!("{kind}:{outcome}")));
        }
    }
    trace::exit(span);
    job.slots.iter().all(Option::is_some)
}

/// Counts a request's cache outcome, once per request: a row per kind,
/// and one hit or miss for the request.
fn count_probe<C: Compiler>(inner: &Inner<C>, job: &Job<C>) {
    for (kind, slot) in job.kinds.iter().zip(&job.slots) {
        inner.stats.record_kind(kind, slot.is_some());
    }
    if job.slots.iter().all(Option::is_some) {
        inner.stats.record_hit();
    } else {
        inner.stats.record_miss();
    }
}

/// The gates and the first probe, on the submitting thread. A request a
/// gate rejects, or whose every kind hits, is settled here: counted
/// like a worker counts it, and its report returned. Any other is left
/// in `job`, uncounted, with what the probe found, to be queued.
fn settle<C: Compiler>(
    inner: &Inner<C>,
    job: &mut Job<C>,
    token: &CancelToken,
) -> Option<RequestReport<C>> {
    let start = Instant::now();
    let result = match gate(inner, &job.digest, token) {
        Some(err) => Err(err),
        None if probe(inner, job) => {
            count_probe(inner, job);
            job.artifacts(&[])
        }
        None => {
            job.spent += start.elapsed();
            return None;
        }
    };
    inner.stats.record_request();
    let cache_hit = result.is_ok();
    Some(record(
        inner,
        RequestReport {
            name: std::mem::take(&mut job.req.name),
            result,
            cache_hit,
            warnings: Vec::new(),
            latency: job.spent + start.elapsed(),
            attempts: u32::from(cache_hit),
        },
    ))
}

/// Records a finished request — its failure's codes and counters, and
/// its latency — and returns its report.
fn record<C: Compiler>(inner: &Inner<C>, report: RequestReport<C>) -> RequestReport<C> {
    match &report.result {
        // Compile errors and panics are disjoint counters (a panicking
        // request counts only under `panics`, recorded per attempt in
        // compile_guarded).
        Err(ServiceError::Compile { report, .. }) => {
            inner.stats.record_error();
            inner.stats.record_failure_codes(&report.codes());
        }
        Err(ServiceError::DeadlineExceeded) => {
            inner.stats.record_deadline_exceeded();
            inner.stats.record_failure_codes(&[codes::E0802.id]);
        }
        Err(ServiceError::Quarantined) => {
            inner.stats.record_failure_codes(&[codes::E0803.id]);
        }
        Err(ServiceError::Draining) => {
            inner.stats.record_failure_codes(&[codes::E0805.id]);
        }
        _ => {}
    }
    inner.stats.record_latency(report.latency.as_nanos() as u64);
    report
}

/// The per-request path on a worker (or the caller, for `compile_one`):
/// the gates, then the attempt loop (probe of the kinds still missing,
/// one guarded compile for them, per-kind cache fill) with
/// transient-failure retry, and accounting.
fn run_request<C: Compiler>(
    inner: &Inner<C>,
    mut job: Job<C>,
    token: &CancelToken,
) -> RequestReport<C> {
    let start = Instant::now();
    inner.stats.record_request();
    inner.in_flight.fetch_add(1, Ordering::Relaxed);

    let mut attempts: u32 = 0;
    let mut backoff = Backoff::new(inner.retry, job.digest.seed());
    let mut all_hit = false;
    let mut warnings: Vec<DiagRecord> = Vec::new();
    let result = loop {
        // Re-checked before every attempt: a request that expired while
        // queued (or while backing off) never runs.
        if let Some(err) = gate(inner, &job.digest, token) {
            break Err(err);
        }
        let first = attempts == 0;
        attempts += 1;
        let (hit, warn, outcome) = attempt(inner, &mut job, token, first);
        all_hit = hit;
        warnings = warn;
        match outcome {
            Ok(artifacts) => {
                if attempts > 1 {
                    inner.stats.record_retry_success();
                }
                break Ok(artifacts);
            }
            Err(err) => {
                // A cooperative compiler surfaces cancellation as a
                // coded compile failure; map it back to the
                // service-level condition (and never retry it — the
                // E08xx transient class is for *client-side* retries
                // with a fresh deadline, not for re-running a request
                // whose own deadline is already spent).
                if let ServiceError::Compile { report, .. } = &err {
                    let codes = report.codes();
                    if codes.contains(&codes::E0802.id) {
                        break Err(ServiceError::DeadlineExceeded);
                    }
                    if codes.contains(&codes::E0805.id) {
                        break Err(ServiceError::Draining);
                    }
                }
                let transient = match &err {
                    ServiceError::Panic(_) => true,
                    ServiceError::Compile { report, .. } => {
                        let failure_codes = report.codes();
                        !failure_codes.is_empty()
                            && failure_codes
                                .iter()
                                .all(|c| codes::retry_class_of(c) == RetryClass::Transient)
                    }
                    _ => false,
                };
                if transient && attempts <= inner.retry.budget {
                    let sleep = backoff.next();
                    // Retry only when the backoff fits inside the
                    // remaining deadline; otherwise the sleep itself
                    // would turn a real failure into E0802.
                    let fits = token.remaining().is_none_or(|rem| rem > sleep);
                    if fits && !token.is_cancelled() {
                        inner.stats.record_retry_attempt();
                        thread::sleep(sleep);
                        continue;
                    }
                }
                // Final outcome. A panic that survived its retries
                // quarantines the input's content digest — whatever
                // kinds it asked for: repeat offenders are rejected
                // instantly instead of re-poisoning workers.
                if matches!(err, ServiceError::Panic(_)) {
                    inner.quarantine.insert(job.digest);
                }
                break Err(err);
            }
        }
    };

    inner.in_flight.fetch_sub(1, Ordering::Relaxed);
    record(
        inner,
        RequestReport {
            name: job.req.name,
            result,
            cache_hit: all_hit,
            warnings,
            latency: job.spent + start.elapsed(),
            attempts,
        },
    )
}

/// One attempt: probe of the kinds still missing, one guarded compile
/// for those the cache does not hold, per-kind cache fill, artifact
/// assembly. Kind and hit/miss counters record only on the first
/// attempt so retries do not inflate per-request statistics; the cache
/// is re-probed on every attempt (another worker may have filled it
/// meanwhile).
///
/// A successful compile is the request's last use of its content, so the
/// fill moves source and root out of the request into the one
/// [`RequestContent`] every filled kind shares.
#[allow(clippy::type_complexity)]
fn attempt<C: Compiler>(
    inner: &Inner<C>,
    job: &mut Job<C>,
    token: &CancelToken,
    first: bool,
) -> (
    bool,
    Vec<DiagRecord>,
    Result<Vec<ArtifactReport<C>>, ServiceError<C::Error>>,
) {
    let all_hit = probe(inner, job);
    if first {
        count_probe(inner, job);
    }
    let missing: Vec<usize> = (0..job.kinds.len())
        .filter(|&i| job.slots[i].is_none())
        .collect();

    let mut warnings: Vec<DiagRecord> = Vec::new();
    let result = if all_hit {
        Ok(())
    } else {
        let missing_kinds: Vec<ArtifactKind> = missing.iter().map(|&i| job.kinds[i]).collect();
        compile_guarded(inner, &job.req, &missing_kinds, token).map(|output| {
            let _store = trace::span("cache-fill");
            inner.stats.record_warnings(output.warnings.len() as u64);
            inner
                .stats
                .record_lint_codes(output.warnings.iter().map(|w| w.code));
            warnings = output.warnings;
            let mut content: Option<Arc<RequestContent>> = None;
            for (kind, artifact) in output.artifacts {
                // Only requested-and-missing kinds are admitted; a
                // compiler returning extras (or duplicates) does not
                // grow the cache beyond what was asked for.
                let Some(slot) =
                    (0..job.kinds.len()).find(|&i| job.kinds[i] == kind && job.slots[i].is_none())
                else {
                    continue;
                };
                let shared = if inner.caching {
                    let content = content.get_or_insert_with(|| RequestContent::take(&mut job.req));
                    inner
                        .cache
                        .insert(job.digest.key(&kind), content, kind, artifact)
                } else {
                    Arc::new(artifact)
                };
                job.slots[slot] = Some(shared);
            }
        })
    };
    let result = result.and_then(|()| job.artifacts(&missing));
    (all_hit, warnings, result)
}

fn compile_guarded<C: Compiler>(
    inner: &Inner<C>,
    req: &CompileRequest,
    kinds: &[ArtifactKind],
    token: &CancelToken,
) -> Result<crate::CompileOutput<C::Artifact>, ServiceError<C::Error>> {
    let guard = trace::enter("compile");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        inner.compiler.compile(req, kinds, token)
    }));
    trace::exit(guard);
    match outcome {
        Ok(Ok(output)) => {
            inner.stats.record_stages(&output.samples);
            Ok(output)
        }
        Ok(Err(error)) => {
            let report = inner.compiler.failure_report(req, &error);
            Err(ServiceError::Compile { error, report })
        }
        Err(panic) => {
            inner.stats.record_panic();
            Err(ServiceError::Panic(panic_message(panic.as_ref())))
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, StageSample, WcetModelKind};

    /// A toy compiler: uppercases the source; `source == "BOOM"` panics,
    /// `source == "ERR"` errors (uncoded → transient class),
    /// `source == "SRCERR"` errors with a source-class code,
    /// `source == "FLAKY"` fails transiently on the first attempt only,
    /// `source == "SLOW"` spins cooperatively until cancelled, and each
    /// compile counts its invocations so cache hits (and retries) are
    /// observable as invocation counts.
    struct Toy {
        calls: AtomicU64,
        /// Every kind asked of the compiler, in call order.
        compiled: std::sync::Mutex<Vec<ArtifactKind>>,
        /// Sources already attempted once (drives `FLAKY`).
        seen: std::sync::Mutex<std::collections::HashSet<String>>,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                calls: AtomicU64::new(0),
                compiled: std::sync::Mutex::new(Vec::new()),
                seen: std::sync::Mutex::new(std::collections::HashSet::new()),
            }
        }
    }

    impl Compiler for Toy {
        type Artifact = String;
        type Error = String;

        fn compile(
            &self,
            req: &CompileRequest,
            kinds: &[ArtifactKind],
            cancel: &CancelToken,
        ) -> Result<crate::CompileOutput<String>, String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.compiled.lock().unwrap().extend_from_slice(kinds);
            match req.source.as_str() {
                "BOOM" => panic!("toy compiler exploded"),
                "SLOW" => {
                    // Spin in short slices like a cooperative pipeline
                    // checking the token at pass boundaries (bounded as a
                    // failsafe so a broken drain cannot hang the tests).
                    for _ in 0..30_000 {
                        if let Some(reason) = cancel.state() {
                            return Err(format!("cancelled:{}", reason.code()));
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err("slow request was never cancelled".to_owned())
                }
                "ERR" => Err("toy compile error".to_owned()),
                "SRCERR" => Err("source:bad program".to_owned()),
                "FLAKY" => {
                    let fresh = self
                        .seen
                        .lock()
                        .unwrap()
                        .insert(format!("{}:{}", req.name, req.source));
                    if fresh {
                        Err("transient glitch".to_owned())
                    } else {
                        Ok(crate::CompileOutput::new(
                            kinds.iter().map(|k| (*k, "FLAKY-OK".to_owned())).collect(),
                            Vec::new(),
                        ))
                    }
                }
                "FORGETFUL" => Ok(crate::CompileOutput::new(Vec::new(), Vec::new())),
                src => Ok(crate::CompileOutput::new(
                    kinds
                        .iter()
                        .map(|kind| {
                            let body = match kind {
                                ArtifactKind::CCode => src.to_uppercase(),
                                other => format!("{other}:{}", src.to_uppercase()),
                            };
                            (*kind, body)
                        })
                        .collect(),
                    vec![StageSample {
                        stage: crate::Stage::Frontend,
                        nanos: 5,
                    }],
                )
                .with_warnings(if src == "warny" {
                    vec![crate::DiagRecord {
                        code: "W0102",
                        severity: velus_common::Severity::Warning,
                        stage: "elaborate",
                        message: "toy warning".to_owned(),
                        line: 1,
                        col: 1,
                    }]
                } else {
                    Vec::new()
                })),
            }
        }

        fn failure_report(&self, _req: &CompileRequest, err: &String) -> FailureReport {
            // `source:` errors carry a source-class code; `cancelled:`
            // errors carry the cancellation code the token reported —
            // the same shapes the real pipeline produces.
            let coded = |code: &'static str| FailureReport {
                diagnostics: vec![DiagRecord {
                    code,
                    severity: velus_common::Severity::Error,
                    stage: "driver",
                    message: err.clone(),
                    line: 0,
                    col: 0,
                }],
            };
            if err.starts_with("source:") {
                coded(codes::E0201.id)
            } else if let Some(code) = err.strip_prefix("cancelled:") {
                match code {
                    "E0802" => coded(codes::E0802.id),
                    _ => coded(codes::E0805.id),
                }
            } else {
                FailureReport::from_message(err.clone())
            }
        }
    }

    fn service(workers: usize) -> CompileService<Toy> {
        CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers,
                caching: true,
                ..Default::default()
            },
        )
    }

    fn fast_retry(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
        }
    }

    #[test]
    fn batch_results_are_in_request_order() {
        let svc = service(4);
        let reqs: Vec<CompileRequest> = (0..32)
            .map(|i| CompileRequest::new(format!("r{i}"), format!("src{i}")))
            .collect();
        let batch = svc.compile_batch(reqs);
        assert_eq!(batch.ok_count(), 32);
        for (i, item) in batch.items.iter().enumerate() {
            assert_eq!(item.name, format!("r{i}"));
            assert_eq!(**item.primary().unwrap(), format!("SRC{i}"));
            assert_eq!(item.attempts, 1);
        }
    }

    #[test]
    fn warm_requests_hit_the_cache_and_skip_the_compiler() {
        let svc = service(2);
        let reqs: Vec<CompileRequest> = (0..8)
            .map(|i| CompileRequest::new(format!("r{i}"), format!("s{i}")))
            .collect();
        let cold = svc.compile_batch(reqs.clone());
        assert_eq!(cold.hit_count(), 0);
        let calls_after_cold = svc.inner.compiler.calls.load(Ordering::SeqCst);
        let warm = svc.compile_batch(reqs);
        assert_eq!(warm.hit_count(), 8);
        // The compiler ran zero additional times: the pipeline was skipped.
        assert_eq!(
            svc.inner.compiler.calls.load(Ordering::SeqCst),
            calls_after_cold
        );
        // And the artifacts are the identical allocations.
        for (a, b) in cold.items.iter().zip(&warm.items) {
            assert!(Arc::ptr_eq(a.primary().unwrap(), b.primary().unwrap()));
        }
        let stats = svc.stats();
        assert_eq!(
            (stats.requests, stats.cache_hits, stats.cache_misses),
            (16, 8, 8)
        );
    }

    #[test]
    fn a_multi_kind_fill_shares_one_moved_source() {
        let svc = service(1);
        let wcet = ArtifactKind::Wcet {
            model: WcetModelKind::CompCert,
        };
        let req = CompileRequest::new("two", "source text").with_options(CompileOptions {
            kinds: vec![ArtifactKind::CCode, wcet],
            ..CompileOptions::default()
        });
        let digest = ContentDigest::of(&req);
        assert!(svc.compile_one(req.clone()).result.is_ok());
        let c = svc
            .inner
            .cache
            .stored_content(&digest.key(&ArtifactKind::CCode));
        let w = svc.inner.cache.stored_content(&digest.key(&wcet));
        let (c, w) = (c.expect("C cached"), w.expect("WCET cached"));
        assert!(
            Arc::ptr_eq(&c, &w),
            "both kinds share one source allocation"
        );
        // The warm request still verifies against the stored content.
        let warm = svc.compile_one(req);
        assert!(warm.cache_hit);
        assert_eq!(
            **warm.artifact(&wcet).unwrap(),
            format!("{wcet}:SOURCE TEXT")
        );
    }

    #[test]
    fn equal_content_under_different_names_shares_one_artifact() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![
            CompileRequest::new("a", "same"),
            CompileRequest::new("b", "same"),
        ]);
        assert_eq!(batch.ok_count(), 2);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn errors_and_panics_are_contained_per_request() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![
            CompileRequest::new("good1", "alpha"),
            CompileRequest::new("bad", "ERR"),
            CompileRequest::new("ugly", "BOOM"),
            CompileRequest::new("good2", "beta"),
        ]);
        assert_eq!(batch.ok_count(), 2);
        match &batch.items[1].result {
            Err(ServiceError::Compile { report, .. }) => {
                // The default failure report is the uncoded E0000 record.
                assert_eq!(report.primary_code(), Some("E0000"));
                assert!(report.to_string().contains("toy compile error"), "{report}");
            }
            other => panic!("expected a compile error, got ok={}", other.is_ok()),
        }
        match &batch.items[2].result {
            Err(ServiceError::Panic(msg)) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected a contained panic, got {:?}", other.is_ok()),
        }
        // The pool survives and serves subsequent batches.
        let after = svc.compile_batch(vec![CompileRequest::new("again", "gamma")]);
        assert_eq!(after.ok_count(), 1);
        assert_eq!(svc.dead_workers(), 0);
        // Errors and panics are disjoint counters: 1 compile error, 1
        // contained panic.
        let stats = svc.stats();
        assert_eq!((stats.errors, stats.panics), (1, 1));
    }

    #[test]
    fn caching_can_be_disabled() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                caching: false,
                ..Default::default()
            },
        );
        let req = CompileRequest::new("r", "x");
        svc.compile_one(req.clone());
        let report = svc.compile_one(req);
        assert!(!report.cache_hit);
        assert_eq!(svc.cache_len(), 0);
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stats_snapshot_reflects_stage_samples() {
        let svc = service(1);
        svc.compile_one(CompileRequest::new("r", "x"));
        let stats = svc.stats();
        let frontend = &stats.stages[crate::Stage::Frontend.index()];
        assert_eq!(frontend.count, 1);
        assert_eq!(frontend.p50_nanos, 5);
    }

    #[test]
    fn a_capped_cache_evicts_and_the_evictee_recompiles() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                caching: true,
                cache: crate::CacheConfig {
                    max_entries: Some(1),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let (ra, rb) = (
            CompileRequest::new("a", "one"),
            CompileRequest::new("b", "two"),
        );
        svc.compile_one(ra.clone());
        svc.compile_one(rb.clone()); // evicts `a` (cap 1)
        let stats = svc.stats();
        assert_eq!((stats.cache_entries, stats.cache_evictions), (1, 1));
        // `a` was evicted: its next request misses, recompiles, and the
        // fresh artifact verifies against the request content again.
        let again = svc.compile_one(ra);
        assert!(!again.cache_hit);
        assert_eq!(**again.primary().unwrap(), "ONE");
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 3);
        assert!(svc.stats().cache_evictions >= 1);
        let _ = rb;
    }

    #[test]
    fn multi_kind_requests_compile_once_and_cache_per_kind() {
        let svc = service(2);
        let kinds = vec![ArtifactKind::CCode, ArtifactKind::BaselineDiff];
        let req =
            CompileRequest::new("r", "x").with_options(CompileOptions::for_kinds(kinds.clone()));
        let cold = svc.compile_one(req.clone());
        let artifacts = cold.result.as_ref().unwrap();
        assert_eq!(artifacts.len(), 2);
        assert_eq!(*artifacts[0].artifact, "X");
        assert_eq!(*artifacts[1].artifact, "baseline-diff:X");
        // One compiler invocation produced both kinds; both were cached
        // under separate keys.
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 1);
        assert_eq!(svc.cache_len(), 2);

        // A request for just one of the kinds hits that kind's entry.
        let one = svc.compile_one(
            CompileRequest::new("r", "x")
                .with_options(CompileOptions::for_kinds(vec![ArtifactKind::BaselineDiff])),
        );
        assert!(one.cache_hit);
        assert!(Arc::ptr_eq(
            one.artifact(&ArtifactKind::BaselineDiff).unwrap(),
            &artifacts[1].artifact
        ));
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 1);

        // A request widening the kind set compiles only the missing kind.
        let wider = svc.compile_one(req.with_options(CompileOptions::for_kinds(vec![
            ArtifactKind::CCode,
            ArtifactKind::BaselineDiff,
            ArtifactKind::IrDump {
                stage: crate::IrStageKind::Obc,
            },
        ])));
        assert!(!wider.cache_hit, "a new kind forces a compile");
        let wider_artifacts = wider.result.as_ref().unwrap();
        assert_eq!(wider_artifacts.len(), 3);
        assert!(wider_artifacts[0].cache_hit, "the C entry was reused");
        assert!(wider_artifacts[1].cache_hit);
        assert!(!wider_artifacts[2].cache_hit);
        assert_eq!(svc.cache_len(), 3);

        // Per-kind stats rows saw every kind request.
        let stats = svc.stats();
        let row = |name: &str| *stats.kinds.iter().find(|k| k.kind == name).unwrap();
        assert_eq!((row("c").requests, row("c").hits), (2, 1));
        assert_eq!(
            (row("baseline-diff").requests, row("baseline-diff").hits),
            (3, 2)
        );
        assert_eq!((row("ir-dump").requests, row("ir-dump").hits), (1, 0));
    }

    #[test]
    fn a_compiler_omitting_a_kind_is_a_loud_error() {
        let svc = service(1);
        let report = svc.compile_one(CompileRequest::new("r", "FORGETFUL"));
        assert!(matches!(
            report.result,
            Err(ServiceError::MissingArtifact(ArtifactKind::CCode))
        ));
        // Nothing was cached for the failed request.
        assert_eq!(svc.cache_len(), 0);
    }

    #[test]
    fn warnings_and_failure_codes_reach_the_stats() {
        let svc = service(1);
        // A cold compile surfaces its warnings on the report and counts
        // them in the statistics.
        let cold = svc.compile_one(CompileRequest::new("w", "warny"));
        assert_eq!(cold.warnings.len(), 1);
        assert_eq!(cold.warnings[0].code, "W0102");
        // A warm request skips the pipeline: no (re-)warnings.
        let warm = svc.compile_one(CompileRequest::new("w", "warny"));
        assert!(warm.cache_hit && warm.warnings.is_empty());
        // Failures count under their codes.
        let _ = svc.compile_one(CompileRequest::new("bad", "ERR"));
        let stats = svc.stats();
        assert_eq!(stats.warnings, 1);
        assert_eq!(stats.failure_codes, vec![("E0000", 1)]);
        // The warning carried a registered lint code: its per-code row
        // counts the cold compile once (the warm hit adds nothing).
        assert_eq!(stats.lint_codes, vec![("W0102", 1)]);
        let rendered = stats.to_string();
        assert!(rendered.contains("warnings 1"), "{rendered}");
        assert!(rendered.contains("failures by code: E0000:1"), "{rendered}");
    }

    #[test]
    fn a_zero_queue_cap_sheds_every_request_with_coded_errors() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 2,
                queue_cap: Some(0),
                ..Default::default()
            },
        );
        let batch = svc.compile_batch(vec![
            CompileRequest::new("a", "x"),
            CompileRequest::new("b", "y"),
            CompileRequest::new("c", "z"),
        ]);
        assert_eq!(batch.ok_count(), 0);
        assert_eq!(batch.shed_count(), 3);
        for item in &batch.items {
            match &item.result {
                Err(err @ ServiceError::Overloaded { .. }) => {
                    assert_eq!(err.failure_report().primary_code(), Some("E0801"));
                    assert_eq!(item.attempts, 0);
                }
                other => panic!("expected Overloaded, got ok={}", other.is_ok()),
            }
        }
        let stats = svc.stats();
        assert_eq!((stats.shed, stats.requests), (3, 0));
        assert_eq!(stats.failure_codes, vec![("E0801", 3)]);
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn transient_failures_retry_and_succeed_within_budget() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                retry: fast_retry(2),
                ..Default::default()
            },
        );
        let report = svc.compile_one(CompileRequest::new("f", "FLAKY"));
        assert!(report.result.is_ok(), "flaky request must succeed on retry");
        assert_eq!(report.attempts, 2);
        let stats = svc.stats();
        assert_eq!((stats.retries_attempted, stats.retries_succeeded), (1, 1));
        assert_eq!(stats.errors, 0, "the retried failure is not a failure");
    }

    #[test]
    fn source_failures_are_never_retried() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                retry: fast_retry(3),
                ..Default::default()
            },
        );
        let report = svc.compile_one(CompileRequest::new("s", "SRCERR"));
        assert!(matches!(
            &report.result,
            Err(ServiceError::Compile { report, .. }) if report.primary_code() == Some("E0201")
        ));
        assert_eq!(report.attempts, 1, "source-class failures never retry");
        assert_eq!(svc.stats().retries_attempted, 0);
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn transient_retries_exhaust_their_budget_then_fail() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                retry: fast_retry(2),
                ..Default::default()
            },
        );
        // "ERR" fails identically on every attempt with the transient
        // E0000 class: the budget is spent, then the error surfaces.
        let report = svc.compile_one(CompileRequest::new("e", "ERR"));
        assert!(matches!(&report.result, Err(ServiceError::Compile { .. })));
        assert_eq!(report.attempts, 3, "1 initial + 2 retries");
        let stats = svc.stats();
        assert_eq!((stats.retries_attempted, stats.retries_succeeded), (2, 0));
        assert_eq!(stats.errors, 1, "one failed request, not three");
    }

    #[test]
    fn a_panicking_input_is_quarantined_and_rejected_on_resubmit() {
        let svc = service(1);
        let first = svc.compile_one(CompileRequest::new("p1", "BOOM"));
        assert!(matches!(first.result, Err(ServiceError::Panic(_))));
        assert_eq!(first.attempts, 1);
        let calls = svc.inner.compiler.calls.load(Ordering::SeqCst);
        // Same input (different name — quarantine keys on content):
        // rejected before reaching the compiler.
        let second = svc.compile_one(CompileRequest::new("p2", "BOOM"));
        match &second.result {
            Err(err @ ServiceError::Quarantined) => {
                assert_eq!(err.failure_report().primary_code(), Some("E0803"));
            }
            other => panic!("expected Quarantined, got ok={}", other.is_ok()),
        }
        assert_eq!(second.attempts, 0);
        assert_eq!(
            svc.inner.compiler.calls.load(Ordering::SeqCst),
            calls,
            "the quarantined input never reached the compiler again"
        );
        let stats = svc.stats();
        assert_eq!(
            (stats.panics, stats.quarantine_hits, stats.quarantined),
            (1, 1, 1)
        );
        // Other inputs are unaffected.
        assert!(svc
            .compile_one(CompileRequest::new("ok", "fine"))
            .result
            .is_ok());
    }

    #[test]
    fn the_quarantine_holds_for_every_artifact_kind() {
        // A source that panicked under the default kind (C) is rejected
        // when re-requested for another kind: the quarantine keys on the
        // content, not on one kind's cache key.
        let svc = service(1);
        let first = svc.compile_one(CompileRequest::new("p1", "BOOM"));
        assert!(matches!(first.result, Err(ServiceError::Panic(_))));
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 1);
        let wcet = CompileRequest::new("p2", "BOOM").with_options(CompileOptions::for_kinds(vec![
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert,
            },
        ]));
        let second = svc.compile_one(wcet);
        assert!(matches!(second.result, Err(ServiceError::Quarantined)));
        assert_eq!(second.attempts, 0);
        assert_eq!(
            svc.inner.compiler.calls.load(Ordering::SeqCst),
            1,
            "the quarantined input never reached the compiler again"
        );
        assert_eq!(svc.stats().quarantine_hits, 1);
    }

    #[test]
    fn an_expired_deadline_rejects_before_compiling() {
        let svc = service(1);
        let report = svc.compile_one(CompileRequest::new("d", "x").with_deadline_ms(0));
        match &report.result {
            Err(err @ ServiceError::DeadlineExceeded) => {
                assert_eq!(err.failure_report().primary_code(), Some("E0802"));
            }
            other => panic!("expected DeadlineExceeded, got ok={}", other.is_ok()),
        }
        assert_eq!(report.attempts, 0);
        let stats = svc.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.failure_codes, vec![("E0802", 1)]);
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 0);
        // A generous deadline compiles normally.
        let ok = svc.compile_one(CompileRequest::new("d2", "y").with_deadline_ms(60_000));
        assert!(ok.result.is_ok());
    }

    #[test]
    fn drain_completes_quiet_services_cleanly() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![CompileRequest::new("a", "x")]);
        assert_eq!(batch.ok_count(), 1);
        let drained = svc.drain(Duration::from_secs(5));
        assert!(drained.clean(), "{drained}");
        // Admission is closed: everything afterwards is rejected with a
        // coded error, through every entry point.
        let after = svc.compile_batch(vec![CompileRequest::new("late", "y")]);
        assert!(matches!(after.items[0].result, Err(ServiceError::Draining)));
        assert!(matches!(
            svc.compile_one(CompileRequest::new("later", "z")).result,
            Err(ServiceError::Draining)
        ));
        let sub = svc.submit(CompileRequest::new("latest", "w"));
        assert!(!sub.admitted());
        assert!(matches!(sub.wait().result, Err(ServiceError::Draining)));
        let stats = svc.stats();
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.shed, 3);
    }

    #[test]
    fn drain_cancels_in_flight_work_by_the_deadline_without_losing_counts() {
        let svc = service(2);
        // Occupy both workers with cooperative slow compilations and
        // queue a third request behind them.
        let s1 = svc.submit(CompileRequest::new("slow1", "SLOW"));
        let s2 = svc.submit(CompileRequest::new("slow2", "SLOW"));
        let s3 = svc.submit(CompileRequest::new("queued", "x"));
        assert!(s1.admitted() && s2.admitted() && s3.admitted());
        // Wait until both slow compilations actually started.
        let began = Instant::now();
        while svc.inner.compiler.calls.load(Ordering::SeqCst) < 2 {
            assert!(
                began.elapsed() < Duration::from_secs(10),
                "workers never started"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let drained = svc.drain(Duration::from_millis(100));
        // The slow requests could not finish by the deadline: they were
        // cancelled cooperatively; nothing is left outstanding.
        assert!(drained.cancelled >= 2, "{drained}");
        assert_eq!(drained.outstanding, 0, "{drained}");
        assert!(!drained.clean());
        // Every submission resolves — no lost requests.
        let r1 = s1.wait();
        let r2 = s2.wait();
        let r3 = s3.wait();
        for r in [&r1, &r2] {
            assert!(
                matches!(r.result, Err(ServiceError::Draining)),
                "slow requests resolve as cancelled-by-drain"
            );
        }
        // The queued request either completed before the kill switch or
        // was rejected by it — never lost.
        assert!(
            r3.result.is_ok() || matches!(r3.result, Err(ServiceError::Draining)),
            "queued request must resolve"
        );
        let stats = svc.stats();
        assert_eq!(stats.requests, 3, "all admitted requests were accounted");
        assert_eq!(stats.drains, 1);
        assert!(stats.drain_ns > 0);
        assert_eq!(svc.dead_workers(), 0);
        // The failure rows carry the drain code for the cancelled work.
        assert!(
            stats.failure_codes.iter().any(|(c, _)| *c == "E0805"),
            "{:?}",
            stats.failure_codes
        );
    }

    #[test]
    fn submit_resolves_like_compile_one() {
        let svc = service(2);
        let ok = svc.submit(CompileRequest::new("s", "hello")).wait();
        assert_eq!(**ok.primary().unwrap(), "HELLO");
        assert_eq!(ok.attempts, 1);
        let warm = svc.submit(CompileRequest::new("s", "hello")).wait();
        assert!(warm.cache_hit);
    }

    fn kind_row(svc: &CompileService<Toy>, kind: &str) -> (u64, u64) {
        let stats = svc.stats();
        stats
            .kinds
            .iter()
            .find(|row| row.kind == kind)
            .map_or((0, 0), |row| (row.requests, row.hits))
    }

    /// Waits until the toy compiler has been called `calls` times.
    fn await_calls(svc: &CompileService<Toy>, calls: u64) {
        let began = Instant::now();
        while svc.inner.compiler.calls.load(Ordering::SeqCst) < calls {
            assert!(
                began.elapsed() < Duration::from_secs(10),
                "the worker never started"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_hit_is_served_while_the_only_worker_is_busy() {
        let svc = service(1);
        assert!(svc
            .compile_one(CompileRequest::new("w", "x"))
            .result
            .is_ok());
        let slow = svc.submit(CompileRequest::new("slow", "SLOW"));
        await_calls(&svc, 2);
        let before = svc.stats();
        let sub = svc.submit(CompileRequest::new("again", "x"));
        assert!(sub.admitted());
        assert!(
            matches!(sub.state, Pending::Settled(_)),
            "a hit resolves in submit, without the busy worker"
        );
        let hit = sub.wait();
        assert!(hit.cache_hit);
        assert_eq!(hit.attempts, 1);
        assert_eq!(**hit.primary().unwrap(), "X");
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 2);
        assert_eq!(svc.outstanding(), 1, "the hit took no admission slot");
        let after = svc.stats();
        assert_eq!(after.requests - before.requests, 1);
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(kind_row(&svc, "c"), (3, 1), "the cold, slow and warm rows");
        svc.drain(Duration::from_millis(10));
        assert!(matches!(slow.wait().result, Err(ServiceError::Draining)));
    }

    #[test]
    fn a_zero_queue_cap_still_serves_hits_and_sheds_misses() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                queue_cap: Some(0),
                ..Default::default()
            },
        );
        assert!(svc
            .compile_one(CompileRequest::new("a", "x"))
            .result
            .is_ok());
        let hit = svc.submit(CompileRequest::new("a", "x"));
        assert!(hit.admitted());
        let hit = hit.wait();
        assert!(hit.cache_hit && hit.result.is_ok());
        let miss = svc.submit(CompileRequest::new("b", "y"));
        assert!(!miss.admitted());
        let miss = miss.wait();
        assert!(matches!(
            miss.result,
            Err(ServiceError::Overloaded { queued: 0 })
        ));
        let stats = svc.stats();
        assert_eq!((stats.requests, stats.cache_hits, stats.shed), (2, 1, 1));
        assert_eq!(stats.failure_codes, vec![("E0801", 1)]);
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_draining_service_rejects_even_a_cached_request() {
        let svc = service(1);
        assert!(svc
            .compile_one(CompileRequest::new("a", "x"))
            .result
            .is_ok());
        assert!(svc.drain(Duration::from_secs(5)).clean());
        let sub = svc.submit(CompileRequest::new("a", "x"));
        assert!(!sub.admitted());
        let report = sub.wait();
        assert!(matches!(report.result, Err(ServiceError::Draining)));
        assert!(!report.cache_hit);
        let stats = svc.stats();
        assert_eq!((stats.requests, stats.cache_hits, stats.shed), (1, 0, 1));
    }

    #[test]
    fn a_quarantined_input_is_rejected_even_when_cached() {
        let svc = service(1);
        let wcet = ArtifactKind::Wcet {
            model: WcetModelKind::CompCert,
        };
        let req = CompileRequest::new("p", "BOOM").with_options(CompileOptions {
            kinds: vec![ArtifactKind::CCode, wcet],
            ..CompileOptions::default()
        });
        // The C artifact of the content is cached, the WCET one is not,
        // and the content is quarantined.
        let digest = ContentDigest::of(&req);
        let content = RequestContent::take(&mut req.clone());
        let c_key = digest.key(&ArtifactKind::CCode);
        svc.inner
            .cache
            .insert(c_key, &content, ArtifactKind::CCode, "BOOM".to_owned());
        svc.inner.quarantine.insert(digest);
        let report = svc.submit(req).wait();
        assert!(matches!(report.result, Err(ServiceError::Quarantined)));
        assert_eq!(report.attempts, 0);
        assert_eq!(svc.inner.quarantine.hits(), 1);
        let stats = svc.stats();
        assert_eq!(
            (stats.requests, stats.quarantine_hits, stats.cache_hits),
            (1, 1, 0)
        );
        assert_eq!(stats.failure_codes, vec![("E0803", 1)]);
        assert_eq!(svc.inner.cache.freq(&c_key), Some(0), "never probed");
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_partly_cached_request_compiles_only_its_missing_kind() {
        let svc = service(1);
        let wcet = ArtifactKind::Wcet {
            model: WcetModelKind::CompCert,
        };
        let both = CompileRequest::new("r", "x").with_options(CompileOptions {
            kinds: vec![ArtifactKind::CCode, wcet],
            ..CompileOptions::default()
        });
        let digest = ContentDigest::of(&both);
        let (c_key, w_key) = (digest.key(&ArtifactKind::CCode), digest.key(&wcet));
        assert!(svc
            .compile_one(CompileRequest::new("r", "x"))
            .result
            .is_ok());
        assert_eq!(svc.inner.cache.freq(&c_key), Some(0));

        let mixed = svc.submit(both.clone()).wait();
        assert!(!mixed.cache_hit);
        let flags: Vec<bool> = mixed
            .result
            .as_ref()
            .unwrap()
            .iter()
            .map(|a| a.cache_hit)
            .collect();
        assert_eq!(flags, [true, false]);
        assert_eq!(
            *svc.inner.compiler.compiled.lock().unwrap(),
            [ArtifactKind::CCode, wcet],
            "the cold compile asked for C, the mixed one only for WCET"
        );
        // The submitting thread's probe found C; the worker did not
        // probe it again.
        assert_eq!(svc.inner.cache.freq(&c_key), Some(1));
        assert_eq!(svc.inner.cache.freq(&w_key), Some(0));

        let warm = svc.submit(both).wait();
        assert!(warm.cache_hit);
        assert_eq!(svc.inner.cache.freq(&c_key), Some(2));
        assert_eq!(svc.inner.cache.freq(&w_key), Some(1));
        assert_eq!(svc.inner.compiler.calls.load(Ordering::SeqCst), 2);
        let stats = svc.stats();
        assert_eq!(
            (stats.requests, stats.cache_hits, stats.cache_misses),
            (3, 1, 2)
        );
        assert_eq!(kind_row(&svc, "c"), (3, 2));
        assert_eq!(kind_row(&svc, "wcet"), (2, 1));
        svc.inner.cache.check_invariants();
    }

    #[test]
    fn service_shutdown_is_acknowledged() {
        let svc = service(2);
        assert_eq!(
            svc.compile_batch(vec![CompileRequest::new("a", "x")])
                .ok_count(),
            1
        );
        svc.shutdown().expect("idle workers ack shutdown promptly");
    }
}
