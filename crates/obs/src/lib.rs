//! The observability substrate of the Vélus serving stack.
//!
//! Three dependency-free building blocks, usable by any crate in the
//! workspace (and by the offline vendored build — nothing here touches
//! the network or the allocator beyond plain `std` collections):
//!
//! * [`hist`] — **mergeable log-linear histograms**: exact counts over
//!   the full run, bounded memory, lock-free recording through
//!   [`hist::ShardedHistogram`], percentiles (p50…p999) within a ~3%
//!   relative error. Shards merge associatively, so per-worker
//!   recorders combine into one distribution at snapshot time.
//! * [`trace`] — **structured tracing**: per-request trace IDs, an
//!   enter/exit span model with parent links recorded into bounded
//!   per-worker ring buffers, a thread-local request scope so deep
//!   layers record spans without any API threading, a **flight
//!   recorder** retaining the complete span trees of the slowest (and
//!   over-threshold) requests, and Chrome trace-event JSON emission
//!   (loadable in Perfetto / `chrome://tracing`).
//! * [`prom`] — **Prometheus text exposition**: a hand-rolled writer
//!   for counters/gauges/summaries plus a minimal format checker used
//!   by CI to gate emitted metrics dumps.
//!
//! The serving layer (`velus-server`) builds its statistics on [`hist`]
//! and opens a [`trace::RequestScope`] per request; the staged pipeline
//! (`velus` core) records one span per pipeline pass through the
//! thread-local scope. When no scope is active every tracing call is a
//! single thread-local read — cheap enough to leave compiled in.

#![warn(missing_docs)]

pub mod hist;
pub mod prom;
pub mod trace;

pub use hist::{Histogram, ShardedHistogram};
pub use prom::PromWriter;
pub use trace::{FlightRecord, Recorder, RecorderConfig, TraceData, TraceEvent};
