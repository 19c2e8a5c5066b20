//! Structured tracing with a flight recorder.
//!
//! The model is a classic enter/exit span tree per request:
//!
//! * a [`Recorder`] owns the clock epoch, allocates trace and span
//!   IDs, and collects finished events into bounded per-thread ring
//!   buffers (oldest events drop first; the drop count is reported);
//! * the serving layer opens a [`RequestScope`] on the worker thread
//!   that executes a request — the scope installs itself in
//!   thread-local storage, so *any* code running under it can record
//!   spans through the free functions [`span`], [`enter`]/[`exit`],
//!   [`instant`] and [`complete`] without an API handle being threaded
//!   through call signatures;
//! * when no scope is active every free function is a single
//!   thread-local read and returns immediately, so instrumented code
//!   costs nothing measurable outside a traced run;
//! * at scope drop the request's whole event buffer is flushed into
//!   the thread's ring in one short lock, and the **flight recorder**
//!   decides whether to retain the complete span tree (slowest-N
//!   requests, plus any over a configured threshold) as a
//!   [`FlightRecord`] that can explain a tail-latency outlier after
//!   the fact.
//!
//! [`Recorder::drain`] returns the ring contents as [`TraceData`],
//! whose [`TraceData::chrome_json`] renders Chrome trace-event JSON
//! loadable in Perfetto or `chrome://tracing`. Worker-thread spans
//! become `B`/`E` duration events (strict nesting holds because a
//! worker runs one request at a time); cross-thread intervals such as
//! queue wait are recorded via [`complete`] and emitted as async
//! `b`/`e` pairs keyed by trace ID, so they never fake-enclose an
//! unrelated request that happens to share the worker lane.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many over-threshold span trees the flight recorder keeps before
/// it stops adding new ones (the slowest-N list is independent).
const OVER_CAP: usize = 32;

/// Tuning knobs for a [`Recorder`].
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Capacity of each per-thread event ring (events, not bytes).
    /// When a ring is full its oldest events are dropped and counted.
    pub ring_cap: usize,
    /// How many slowest request span trees the flight recorder retains.
    pub slowest: usize,
    /// Requests at least this slow are retained regardless of rank.
    pub slow_threshold_ns: Option<u64>,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            ring_cap: 65_536,
            slowest: 4,
            slow_threshold_ns: None,
        }
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (its `Exit` closes it).
    Enter,
    /// The innermost open span closed.
    Exit,
    /// A point-in-time marker inside the current span.
    Instant,
    /// A pre-measured interval (e.g. queue wait) recorded after the
    /// fact; `ts_ns` is its start.
    Complete {
        /// Interval length in nanoseconds.
        dur_ns: u64,
    },
}

/// One recorded event. Timestamps are nanoseconds since the owning
/// [`Recorder`]'s epoch; `span`/`parent` IDs are recorder-unique
/// (0 means "no parent").
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// What this event marks.
    pub kind: EventKind,
    /// Static event name (pass name, phase name, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// The request's trace ID.
    pub trace: u64,
    /// This event's span ID (0 for instants).
    pub span: u64,
    /// The enclosing span's ID, 0 at the root.
    pub parent: u64,
    /// Logical thread lane the event was recorded on.
    pub tid: u64,
    /// Free-form label (request name, cache-probe outcome, …).
    pub arg: Option<String>,
}

struct Ring {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    fn push_bulk(&mut self, events: Vec<TraceEvent>) {
        for ev in events {
            if self.events.len() == self.cap {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(ev);
        }
    }
}

#[derive(Default)]
struct Flight {
    slowest: Vec<FlightRecord>,
    over: Vec<FlightRecord>,
}

struct Inner {
    serial: usize,
    epoch: Instant,
    config: RecorderConfig,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    flight: Mutex<Flight>,
}

/// The owner of a tracing session: clock epoch, ID allocation, event
/// rings and the flight recorder. Cheap to clone (it is a handle).
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("ring_cap", &self.inner.config.ring_cap)
            .field("slowest", &self.inner.config.slowest)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(RecorderConfig::default())
    }
}

static RECORDER_SERIAL: AtomicUsize = AtomicUsize::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
    static RINGS: RefCell<Vec<(usize, Arc<Mutex<Ring>>)>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

struct ScopeState {
    inner: Arc<Inner>,
    trace: u64,
    label: String,
    tid: u64,
    start_ns: u64,
    stack: Vec<u64>,
    events: Vec<TraceEvent>,
    prev: Option<Box<ScopeState>>,
}

impl ScopeState {
    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }
}

impl Recorder {
    /// A recorder with the given configuration.
    pub fn new(config: RecorderConfig) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                serial: RECORDER_SERIAL.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                config,
                rings: Mutex::new(Vec::new()),
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                flight: Mutex::new(Flight::default()),
            }),
        }
    }

    /// Nanoseconds since this recorder's epoch (the timebase of every
    /// event it records).
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh trace ID. Use when an ID must exist before
    /// the request reaches its worker (e.g. to key the queue-wait
    /// interval), then pass it to [`Recorder::scope_with`].
    pub fn new_trace(&self) -> u64 {
        self.inner.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a request scope with a fresh trace ID on the calling
    /// thread. See [`Recorder::scope_with`].
    pub fn scope(&self, label: &str) -> RequestScope {
        let trace = self.new_trace();
        self.scope_with(label, trace)
    }

    /// Opens a request scope on the calling thread: installs the
    /// thread-local context the free tracing functions record into and
    /// opens the root `request` span. The scope ends (flushes its
    /// events, closes unbalanced spans, consults the flight recorder)
    /// when the returned guard drops.
    pub fn scope_with(&self, label: &str, trace: u64) -> RequestScope {
        let tid = current_tid();
        let start_ns = self.now_ns();
        let root = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let mut state = ScopeState {
            inner: Arc::clone(&self.inner),
            trace,
            label: label.to_string(),
            tid,
            start_ns,
            stack: vec![root],
            events: Vec::with_capacity(64),
            prev: None,
        };
        state.events.push(TraceEvent {
            kind: EventKind::Enter,
            name: "request",
            ts_ns: start_ns,
            trace,
            span: root,
            parent: 0,
            tid,
            arg: Some(label.to_string()),
        });
        SCOPE.with(|s| {
            let mut slot = s.borrow_mut();
            state.prev = slot.take().map(Box::new);
            *slot = Some(state);
        });
        RequestScope {
            trace,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Takes every buffered event out of the rings (clearing them) and
    /// returns them as one [`TraceData`], sorted by timestamp.
    pub fn drain(&self) -> TraceData {
        let mut events = Vec::new();
        let mut dropped = 0;
        let rings = self.inner.rings.lock().unwrap();
        for ring in rings.iter() {
            let mut ring = ring.lock().unwrap();
            events.extend(ring.events.drain(..));
            dropped += std::mem::take(&mut ring.dropped);
        }
        drop(rings);
        events.sort_by_key(|e| e.ts_ns);
        TraceData { events, dropped }
    }

    /// The flight recorder's retained span trees: the slowest requests
    /// first (descending duration), then any over-threshold requests
    /// not already included.
    pub fn flight(&self) -> Vec<FlightRecord> {
        let fl = self.inner.flight.lock().unwrap();
        let mut out: Vec<FlightRecord> = fl.slowest.iter().rev().cloned().collect();
        for rec in &fl.over {
            if !out.iter().any(|r| r.trace == rec.trace) {
                out.push(rec.clone());
            }
        }
        out
    }
}

impl Inner {
    fn ring_for_current_thread(self: &Arc<Inner>) -> Arc<Mutex<Ring>> {
        RINGS.with(|rings| {
            let mut rings = rings.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(serial, _)| *serial == self.serial) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(Mutex::new(Ring {
                cap: self.config.ring_cap.max(1),
                events: VecDeque::new(),
                dropped: 0,
            }));
            self.rings.lock().unwrap().push(Arc::clone(&ring));
            rings.push((self.serial, Arc::clone(&ring)));
            ring
        })
    }

    fn retain_flight(&self, state: &ScopeState, dur_ns: u64) {
        let over = self.config.slow_threshold_ns.is_some_and(|t| dur_ns >= t);
        let mut fl = self.flight.lock().unwrap();
        let ranks = self.config.slowest > 0
            && (fl.slowest.len() < self.config.slowest
                || fl.slowest.first().is_some_and(|m| dur_ns > m.dur_ns));
        if !over && !ranks {
            return;
        }
        let rec = FlightRecord {
            label: state.label.clone(),
            trace: state.trace,
            start_ns: state.start_ns,
            dur_ns,
            events: state.events.clone(),
        };
        if over && fl.over.len() < OVER_CAP {
            fl.over.push(rec.clone());
        }
        if ranks {
            if fl.slowest.len() == self.config.slowest {
                fl.slowest.remove(0);
            }
            fl.slowest.push(rec);
            fl.slowest.sort_by_key(|r| r.dur_ns);
        }
    }
}

/// Guard for an active request scope; dropping it closes the request's
/// span tree and flushes it to the recorder. Not `Send` — it must drop
/// on the thread that opened it.
pub struct RequestScope {
    trace: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl RequestScope {
    /// The trace ID of the request this scope covers.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Ends the scope without recording it: its events are dropped, not
    /// flushed, and the flight recorder never sees it. For speculative
    /// work on one thread whose request then continues, under the same
    /// trace ID, on another.
    pub fn discard(self) {
        SCOPE.with(|s| {
            let mut slot = s.borrow_mut();
            let prev = slot.take().and_then(|state| state.prev);
            *slot = prev.map(|prev| *prev);
        });
        std::mem::forget(self);
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let state = SCOPE.with(|s| s.borrow_mut().take());
        let Some(mut state) = state else { return };
        let now = state.now_ns();
        while let Some(span) = state.stack.pop() {
            state.events.push(TraceEvent {
                kind: EventKind::Exit,
                name: "",
                ts_ns: now,
                trace: state.trace,
                span,
                parent: 0,
                tid: state.tid,
                arg: None,
            });
        }
        let dur_ns = now.saturating_sub(state.start_ns);
        state.inner.retain_flight(&state, dur_ns);
        let ring = state.inner.ring_for_current_thread();
        let events = std::mem::take(&mut state.events);
        ring.lock().unwrap().push_bulk(events);
        if let Some(prev) = state.prev.take() {
            SCOPE.with(|s| *s.borrow_mut() = Some(*prev));
        }
    }
}

/// An open span handle returned by [`enter`]; pass it to [`exit`].
/// The zero token (no active scope) is inert.
#[derive(Copy, Clone, Debug)]
pub struct SpanToken(u64);

/// Opens a span under the current request scope. No-op (returns the
/// inert token) when the thread has no active scope.
pub fn enter(name: &'static str) -> SpanToken {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return SpanToken(0);
        };
        let span = state.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = state.stack.last().copied().unwrap_or(0);
        let ev = TraceEvent {
            kind: EventKind::Enter,
            name,
            ts_ns: state.now_ns(),
            trace: state.trace,
            span,
            parent,
            tid: state.tid,
            arg: None,
        };
        state.stack.push(span);
        state.events.push(ev);
        SpanToken(span)
    })
}

/// Closes the span opened by [`enter`], along with any still-open
/// spans nested inside it. No-op on the inert token or when the span
/// was already closed.
pub fn exit(token: SpanToken) {
    if token.0 == 0 {
        return;
    }
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else { return };
        if !state.stack.contains(&token.0) {
            return;
        }
        let now = state.now_ns();
        while let Some(span) = state.stack.pop() {
            state.events.push(TraceEvent {
                kind: EventKind::Exit,
                name: "",
                ts_ns: now,
                trace: state.trace,
                span,
                parent: 0,
                tid: state.tid,
                arg: None,
            });
            if span == token.0 {
                break;
            }
        }
    });
}

/// RAII form of [`enter`]/[`exit`]: the span closes when the guard
/// drops.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard { token: enter(name) }
}

/// Guard returned by [`span`]; closes its span on drop.
pub struct SpanGuard {
    token: SpanToken,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        exit(self.token);
    }
}

/// Records a point-in-time marker inside the current span (cache-probe
/// outcome, scheduling decision, …). No-op without an active scope;
/// guard allocating `arg` values behind [`active`] on hot paths.
pub fn instant(name: &'static str, arg: Option<String>) {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else { return };
        let ev = TraceEvent {
            kind: EventKind::Instant,
            name,
            ts_ns: state.now_ns(),
            trace: state.trace,
            span: 0,
            parent: state.stack.last().copied().unwrap_or(0),
            tid: state.tid,
            arg,
        };
        state.events.push(ev);
    });
}

/// Records a pre-measured interval (queue wait, remote I/O) that
/// started at `start_ns` on some *other* thread's clock lane. Emitted
/// as an async event in Chrome JSON so it cannot fake-enclose spans on
/// this worker's lane. No-op without an active scope.
pub fn complete(name: &'static str, start_ns: u64, dur_ns: u64) {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(state) = slot.as_mut() else { return };
        let ev = TraceEvent {
            kind: EventKind::Complete { dur_ns },
            name,
            ts_ns: start_ns,
            trace: state.trace,
            span: 0,
            parent: state.stack.first().copied().unwrap_or(0),
            tid: state.tid,
            arg: None,
        };
        state.events.push(ev);
    });
}

/// Whether the calling thread currently has an active request scope.
pub fn active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Everything drained out of a recorder's rings: the events plus how
/// many older events the bounded rings had to drop.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// The recorded events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer bounds before this drain.
    pub dropped: u64,
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_ts_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

impl TraceData {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the events as Chrome trace-event JSON (an array of
    /// event objects), loadable in Perfetto or `chrome://tracing`.
    /// Span enter/exit become `B`/`E` duration events on the worker's
    /// lane; [`EventKind::Complete`] intervals become async `b`/`e`
    /// pairs keyed by trace ID; instants become `i` events.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push('[');
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
        };
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"lane-{tid}\"}}}}"
            );
        }
        for ev in &self.events {
            match &ev.kind {
                EventKind::Enter => {
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    json_escape_into(&mut out, ev.name);
                    let _ = write!(out, "\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":", ev.tid);
                    push_ts_us(&mut out, ev.ts_ns);
                    let _ = write!(
                        out,
                        ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}",
                        ev.trace, ev.span, ev.parent
                    );
                    if let Some(arg) = &ev.arg {
                        out.push_str(",\"label\":\"");
                        json_escape_into(&mut out, arg);
                        out.push('"');
                    }
                    out.push_str("}}");
                }
                EventKind::Exit => {
                    sep(&mut out);
                    let _ = write!(out, "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":", ev.tid);
                    push_ts_us(&mut out, ev.ts_ns);
                    out.push('}');
                }
                EventKind::Instant => {
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    json_escape_into(&mut out, ev.name);
                    let _ = write!(
                        out,
                        "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":",
                        ev.tid
                    );
                    push_ts_us(&mut out, ev.ts_ns);
                    if let Some(arg) = &ev.arg {
                        out.push_str(",\"args\":{\"label\":\"");
                        json_escape_into(&mut out, arg);
                        out.push_str("\"}");
                    }
                    out.push('}');
                }
                EventKind::Complete { dur_ns } => {
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    json_escape_into(&mut out, ev.name);
                    let _ = write!(
                        out,
                        "\",\"cat\":\"async\",\"ph\":\"b\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":",
                        ev.trace, ev.tid
                    );
                    push_ts_us(&mut out, ev.ts_ns);
                    out.push('}');
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    json_escape_into(&mut out, ev.name);
                    let _ = write!(
                        out,
                        "\",\"cat\":\"async\",\"ph\":\"e\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":",
                        ev.trace, ev.tid
                    );
                    push_ts_us(&mut out, ev.ts_ns.saturating_add(*dur_ns));
                    out.push('}');
                }
            }
        }
        out.push_str("\n]\n");
        out
    }
}

/// A complete retained span tree for one request, kept by the flight
/// recorder because the request ranked among the slowest (or crossed
/// the slow threshold).
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// The request label the scope was opened with.
    pub label: String,
    /// The request's trace ID.
    pub trace: u64,
    /// Request start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Total request duration in nanoseconds.
    pub dur_ns: u64,
    /// The request's full event sequence, in recording order.
    pub events: Vec<TraceEvent>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl FlightRecord {
    /// Renders the span tree as an indented text dump: one line per
    /// span with its duration, instants as `·` markers, async
    /// intervals as `~` lines.
    pub fn render_tree(&self) -> String {
        use std::collections::HashMap;
        let mut close: HashMap<u64, u64> = HashMap::new();
        for ev in &self.events {
            if matches!(ev.kind, EventKind::Exit) {
                close.insert(ev.span, ev.ts_ns);
            }
        }
        let mut out = format!(
            "trace {} \"{}\" — {}\n",
            self.trace,
            self.label,
            fmt_ns(self.dur_ns)
        );
        let mut depth = 0usize;
        for ev in &self.events {
            let indent = "  ".repeat(depth);
            match &ev.kind {
                EventKind::Enter => {
                    let dur = close
                        .get(&ev.span)
                        .map(|end| end.saturating_sub(ev.ts_ns))
                        .unwrap_or(0);
                    let label = ev.arg.as_deref().unwrap_or("");
                    if label.is_empty() {
                        let _ = writeln!(out, "{indent}{} {}", ev.name, fmt_ns(dur));
                    } else {
                        let _ = writeln!(out, "{indent}{} [{}] {}", ev.name, label, fmt_ns(dur));
                    }
                    depth += 1;
                }
                EventKind::Exit => depth = depth.saturating_sub(1),
                EventKind::Instant => {
                    let label = ev.arg.as_deref().unwrap_or("");
                    if label.is_empty() {
                        let _ = writeln!(out, "{indent}· {}", ev.name);
                    } else {
                        let _ = writeln!(out, "{indent}· {} [{}]", ev.name, label);
                    }
                }
                EventKind::Complete { dur_ns } => {
                    let _ = writeln!(out, "{indent}~ {} {}", ev.name, fmt_ns(*dur_ns));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_inert_without_a_scope() {
        assert!(!active());
        let token = enter("orphan");
        exit(token);
        instant("orphan", None);
        complete("orphan", 0, 10);
        let _g = span("orphan");
    }

    #[test]
    fn a_discarded_scope_records_nothing_and_restores_the_outer_one() {
        let rec = Recorder::new(RecorderConfig::default());
        {
            let _outer = rec.scope("outer");
            let speculative = rec.scope("speculative");
            let _probe = span("probe");
            instant("probe", None);
            speculative.discard();
            assert!(active(), "the outer scope is current again");
            let _after = span("after");
        }
        assert!(!active());
        let data = rec.drain();
        let names: Vec<&str> = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter))
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["request", "after"]);
        assert_eq!(rec.flight().len(), 1, "only the outer scope reached it");
    }

    #[test]
    fn scope_records_balanced_nested_spans() {
        let rec = Recorder::new(RecorderConfig::default());
        {
            let _scope = rec.scope("job-a");
            let outer = enter("outer");
            {
                let _inner = span("inner");
                instant("probe", Some("hit".into()));
            }
            exit(outer);
        }
        let data = rec.drain();
        assert_eq!(data.dropped, 0);
        let enters: Vec<_> = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter))
            .collect();
        let exits = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Exit))
            .count();
        assert_eq!(enters.len(), 3, "request + outer + inner");
        assert_eq!(enters.len(), exits, "every enter must have an exit");
        // Parent links: request ← outer ← inner.
        let request = enters.iter().find(|e| e.name == "request").unwrap();
        let outer = enters.iter().find(|e| e.name == "outer").unwrap();
        let inner = enters.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(request.parent, 0);
        assert_eq!(outer.parent, request.span);
        assert_eq!(inner.parent, outer.span);
        // Chrome output is non-empty and bracketed.
        let json = data.chrome_json();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn unbalanced_spans_are_closed_at_scope_end() {
        let rec = Recorder::default();
        {
            let _scope = rec.scope("leaky");
            let _ = enter("never-exited");
        }
        let data = rec.drain();
        let enters = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter))
            .count();
        let exits = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Exit))
            .count();
        assert_eq!(enters, exits);
    }

    #[test]
    fn complete_intervals_become_async_pairs() {
        let rec = Recorder::default();
        {
            let _scope = rec.scope("queued");
            complete("queue-wait", 5, 1000);
        }
        let json = rec.drain().chrome_json();
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
    }

    #[test]
    fn flight_recorder_keeps_the_slowest_requests() {
        let rec = Recorder::new(RecorderConfig {
            slowest: 2,
            ..RecorderConfig::default()
        });
        for k in 0..4u64 {
            let _scope = rec.scope(&format!("job-{k}"));
            // Busy-wait a strictly increasing amount so job-3 is slowest.
            let target = rec.now_ns() + (k + 1) * 200_000;
            while rec.now_ns() < target {
                std::hint::spin_loop();
            }
        }
        let flight = rec.flight();
        assert_eq!(flight.len(), 2);
        assert_eq!(flight[0].label, "job-3");
        assert!(flight[0].dur_ns >= flight[1].dur_ns);
        let tree = flight[0].render_tree();
        assert!(tree.contains("request [job-3]"));
    }

    #[test]
    fn ring_capacity_bounds_memory_and_counts_drops() {
        let rec = Recorder::new(RecorderConfig {
            ring_cap: 8,
            ..RecorderConfig::default()
        });
        for k in 0..10 {
            let _scope = rec.scope(&format!("r{k}"));
        }
        let data = rec.drain();
        assert!(data.events.len() <= 8);
        assert!(data.dropped >= 12, "10 scopes × 2 events − 8 kept");
    }
}
