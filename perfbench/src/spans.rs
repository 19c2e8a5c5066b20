//! The trace reducer.
//!
//! The traced service run records into the service's own
//! `ServiceConfig.recorder`; the benchmark drains the recorder while the
//! run goes on (its rings are bounded), keeps every span in memory as
//! `(request id, span id, parent, name, start, end)`, and writes them
//! out when the run ends. A span's *self time* is its duration minus
//! the durations of the spans nested in it; intervals recorded after
//! the fact on another thread (the queue wait) are kept but are not
//! nested in anything.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use velus_obs::trace::{EventKind, TraceData};

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request (trace) it belongs to.
    pub trace: u64,
    /// Its recorder-unique id (0 for detached intervals).
    pub id: u64,
    /// The enclosing span's id (0 at the root).
    pub parent: u64,
    /// The layer boundary it marks (`request`, `cache-probe`, a pass…).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// A pre-measured interval from another thread (not nested).
    pub detached: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    /// The span name.
    pub name: &'static str,
    /// How many spans carried it.
    pub count: u64,
    /// Their summed durations.
    pub total_ns: u64,
    /// Their summed self times.
    pub self_ns: u64,
}

/// Accumulates drained trace data into spans.
#[derive(Debug, Default)]
pub struct Reducer {
    spans: Vec<Span>,
    open: HashMap<u64, usize>,
    /// Events the recorder's bounded rings dropped before a drain.
    pub dropped: u64,
}

impl Reducer {
    /// Folds one drain of the recorder into the span list.
    pub fn absorb(&mut self, data: TraceData) {
        self.dropped += data.dropped;
        for ev in data.events {
            match ev.kind {
                EventKind::Enter => {
                    self.open.insert(ev.span, self.spans.len());
                    self.spans.push(Span {
                        trace: ev.trace,
                        id: ev.span,
                        parent: ev.parent,
                        name: ev.name,
                        start: ev.ts_ns,
                        end: ev.ts_ns,
                        detached: false,
                    });
                }
                EventKind::Exit => {
                    if let Some(index) = self.open.remove(&ev.span) {
                        self.spans[index].end = ev.ts_ns;
                    }
                }
                EventKind::Complete { dur_ns } => self.spans.push(Span {
                    trace: ev.trace,
                    id: 0,
                    parent: ev.parent,
                    name: ev.name,
                    start: ev.ts_ns,
                    end: ev.ts_ns + dur_ns,
                    detached: true,
                }),
                EventKind::Instant => {}
            }
        }
    }

    /// Every span absorbed so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed durations of the nested spans directly under each span id.
    fn child_time(&self) -> HashMap<u64, u64> {
        let mut child: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| !s.detached && s.parent != 0) {
            *child.entry(s.parent).or_default() += s.dur();
        }
        child
    }

    /// Per-name count, total and self time, sorted by name.
    pub fn layers(&self) -> Vec<LayerTime> {
        let child = self.child_time();
        let mut by_name: HashMap<&'static str, LayerTime> = HashMap::new();
        for s in &self.spans {
            let own = s
                .dur()
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
            let row = by_name.entry(s.name).or_insert(LayerTime {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.dur();
            row.self_ns += if s.detached { s.dur() } else { own };
        }
        let mut rows: Vec<LayerTime> = by_name.into_values().collect();
        rows.sort_by_key(|r| r.name);
        rows
    }

    /// Sorted durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect();
        out.sort_unstable();
        out
    }

    /// Writes the spans as tab-separated lines (`trace span parent name
    /// start_ns end_ns self_ns`).
    ///
    /// # Errors
    ///
    /// The file cannot be created or written.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let child = self.child_time();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in &self.spans {
            let own = if s.detached {
                s.dur()
            } else {
                s.dur()
                    .saturating_sub(child.get(&s.id).copied().unwrap_or(0))
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{own}",
                s.trace, s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_obs::trace::TraceEvent;

    fn ev(kind: EventKind, name: &'static str, ts: u64, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            ts_ns: ts,
            trace: 7,
            span,
            parent,
            tid: 1,
            arg: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_only() {
        let mut r = Reducer::default();
        r.absorb(TraceData {
            events: vec![
                ev(EventKind::Complete { dur_ns: 40 }, "queue-wait", 60, 0, 1),
                ev(EventKind::Enter, "request", 100, 1, 0),
                ev(EventKind::Enter, "compile", 110, 2, 1),
                ev(EventKind::Enter, "schedule", 120, 3, 2),
                ev(EventKind::Exit, "", 150, 3, 0),
                ev(EventKind::Exit, "", 190, 2, 0),
                ev(EventKind::Exit, "", 200, 1, 0),
            ],
            dropped: 0,
        });
        let layers = r.layers();
        let get = |n: &str| *layers.iter().find(|l| l.name == n).unwrap();
        assert_eq!(get("request").self_ns, 100 - 80);
        assert_eq!(get("compile").self_ns, 80 - 30);
        assert_eq!(get("schedule").self_ns, 30);
        assert_eq!(get("queue-wait").self_ns, 40);
        assert_eq!(r.durations("queue-wait"), vec![40]);
    }
}
