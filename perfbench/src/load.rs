//! The closed-loop load generator.
//!
//! `clients` threads each keep exactly one operation outstanding: a
//! client sends its next operation only when the previous one has
//! completed, so with as many clients as service workers every worker
//! has one request in hand and a slow system simply receives less load.
//! Operation indices come from one shared counter, so the set of
//! operations a run issues is always the prefix `0..attempted` of the
//! workload's seeded stream.
//!
//! The latency estimates are medians over parts of the run, so a burst
//! of interference from other tenants of the machine, confined to a few
//! parts, moves them less than it moves a whole-run quantile.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::report::{median, quantile};

/// One operation's client-timed latency and verdict.
pub struct Op {
    /// Nanoseconds from send to completion, timed by the client.
    pub latency_ns: u64,
    /// The part of `latency_ns` spent computing the result rather than
    /// waiting to be picked up or woken (see [`LoadResult::append`]).
    pub compute_ns: u64,
    /// `Err(reason)` when the operation failed or its output was wrong.
    pub verdict: Result<(), String>,
}

/// What a closed-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct LoadResult {
    /// `(completed at, latency, compute)` of every operation in
    /// nanoseconds, the completion time counted from the start, in
    /// completion order.
    pub ops: Vec<(u64, u64, u64)>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// From the first send to the last completion.
    pub wall: Duration,
}

/// How many parts a run is cut into for its robust estimates.
pub const WINDOWS: usize = 10;

impl LoadResult {
    /// Completed operations per second in each of [`WINDOWS`] equal
    /// windows of the wall time.
    pub fn window_rates(&self) -> Vec<f64> {
        let width = self.wall.as_nanos() as f64 / WINDOWS as f64;
        let mut counts = [0u64; WINDOWS];
        for &(t, ..) in &self.ops {
            counts[((t as f64 / width) as usize).min(WINDOWS - 1)] += 1;
        }
        counts.iter().map(|&c| c as f64 / (width / 1e9)).collect()
    }

    /// Appends a later phase's operations, as if it had started when
    /// this one ended (the pause between them is not counted), with the
    /// compute part of every latency multiplied by `speed` and the
    /// waiting part kept. The phase's wall time and completion times
    /// shrink or grow by the ratio of its latencies' sums after and
    /// before: in a closed loop the clients' latencies fill the wall.
    pub fn append(&mut self, later: LoadResult, speed: f64) {
        let offset = self.wall.as_nanos() as u64;
        let adjust = |l: u64, c: u64| l - c + (c as f64 * speed) as u64;
        let before: u64 = later.ops.iter().map(|o| o.1).sum();
        let after: u64 = later.ops.iter().map(|&(_, l, c)| adjust(l, c)).sum();
        let ratio = if before == 0 {
            1.0
        } else {
            after as f64 / before as f64
        };
        self.ops.extend(later.ops.into_iter().map(|(t, l, c)| {
            (
                offset + (t as f64 * ratio) as u64,
                adjust(l, c),
                (c as f64 * speed) as u64,
            )
        }));
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.failures.extend(later.failures);
        self.failures.truncate(KEPT_FAILURES);
        self.wall += later.wall.mul_f64(ratio);
    }

    /// Completed operations per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.ops.len() as f64 / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// The `q`-quantile of the client-timed latencies, in nanoseconds:
    /// the median of its values over up to [`WINDOWS`] runs of
    /// consecutive completions, each long enough to hold at least ten
    /// samples beyond the quantile.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let per_chunk = (10.0 / (1.0 - q)).ceil() as usize;
        let chunks = (self.ops.len() / per_chunk).clamp(1, WINDOWS);
        let size = self.ops.len() / chunks;
        let values: Vec<f64> = (0..chunks)
            .map(|c| {
                let end = if c + 1 == chunks {
                    self.ops.len()
                } else {
                    (c + 1) * size
                };
                let mut chunk: Vec<u64> = self.ops[c * size..end].iter().map(|o| o.1).collect();
                chunk.sort_unstable();
                quantile(&chunk, q)
            })
            .collect();
        median(&values)
    }
}

/// Failure reasons kept verbatim (the rest are only counted).
const KEPT_FAILURES: usize = 8;

/// Runs `op(index)` from `clients` threads in a closed loop until
/// `duration` has passed and at least `min_ops` operations were sent;
/// operations started before the end run to completion.
pub fn closed_loop<F>(clients: usize, duration: Duration, min_ops: usize, op: F) -> LoadResult
where
    F: Fn(usize) -> Op + Sync,
{
    segmented_loop(clients, 1, duration, min_ops, op, |_| 0.0)
        .segments
        .pop()
        .expect("one segment")
}

/// What [`segmented_loop`] measured.
#[derive(Debug, Default)]
pub struct Segmented {
    /// Each segment's load, its times counted from the segment's start.
    pub segments: Vec<LoadResult>,
    /// What each round of bursts returned, summed over the clients: one
    /// round before the first segment and one after each.
    pub bursts: Vec<f64>,
}

/// Runs `op(index)` like [`closed_loop`] for `segments` consecutive
/// segments of `each`, from the same `clients` threads throughout.
/// Before the first segment and after each, when no operation is
/// outstanding, every client runs `burst(client)`, which returns a
/// number (a rate or a speed).
/// Operation indices continue across segments, so the whole run still
/// sends a prefix of the stream; the last segment also runs until at
/// least `min_ops` operations were sent in all.
pub fn segmented_loop<F, B>(
    clients: usize,
    segments: usize,
    each: Duration,
    min_ops: usize,
    op: F,
    burst: B,
) -> Segmented
where
    F: Fn(usize) -> Op + Sync,
    B: Fn(usize) -> f64 + Sync,
{
    let clients = clients.max(1);
    let barrier = Barrier::new(clients);
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Segmented {
        segments: (0..segments).map(|_| LoadResult::default()).collect(),
        bursts: vec![0.0; segments + 1],
    });
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (barrier, next, out, op, burst) = (&barrier, &next, &out, &op, &burst);
            scope.spawn(move || {
                let rate = burst(client);
                out.lock().expect("load result lock").bursts[0] += rate;
                for s in 0..segments {
                    barrier.wait();
                    let min = if s + 1 == segments { min_ops } else { 0 };
                    let start = Instant::now();
                    let mut ops = Vec::new();
                    let mut failed = 0u64;
                    let mut failures = Vec::new();
                    // Every index fetched is sent, so the indices sent
                    // are always a prefix of the stream.
                    while start.elapsed() < each || next.load(Ordering::Relaxed) < min {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let done = op(index);
                        ops.push((
                            start.elapsed().as_nanos() as u64,
                            done.latency_ns,
                            done.compute_ns.min(done.latency_ns),
                        ));
                        if let Err(reason) = done.verdict {
                            failed += 1;
                            if failures.len() < KEPT_FAILURES {
                                failures.push(format!("operation {index}: {reason}"));
                            }
                        }
                    }
                    let wall = start.elapsed();
                    {
                        let mut out = out.lock().expect("load result lock");
                        let r = &mut out.segments[s];
                        r.attempted += ops.len() as u64;
                        r.ops.append(&mut ops);
                        r.failed += failed;
                        r.failures.extend(failures);
                        r.wall = r.wall.max(wall);
                    }
                    barrier.wait();
                    let rate = burst(client);
                    out.lock().expect("load result lock").bursts[s + 1] += rate;
                }
            });
        }
    });
    let mut out = out.into_inner().expect("load result lock");
    for r in &mut out.segments {
        r.ops.sort_unstable();
        r.failures.truncate(KEPT_FAILURES);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_medians_over_parts_of_the_run() {
        // 2,000 operations over 2 s; the last fifth of them is a burst
        // ten times slower.
        let ops: Vec<(u64, u64, u64)> = (0..2000u64)
            .map(|i| {
                let latency = if i >= 1600 { 10_000 } else { 1_000 + i % 7 };
                (i * 1_000_000, latency, latency)
            })
            .collect();
        let load = LoadResult {
            attempted: ops.len() as u64,
            ops,
            wall: Duration::from_secs(2),
            ..LoadResult::default()
        };
        assert!(load
            .window_rates()
            .iter()
            .all(|&r| (r - 1000.0).abs() < 1e-6));
        assert!((load.throughput() - 1000.0).abs() < 1e-6);
        // p50 over ten chunks of 200: eight chunks are fast.
        assert!(load.latency_quantile(0.5) < 1_010.0);
        // p99 needs 1,000 samples per chunk: two chunks, one of them
        // half in the burst, so the burst shows.
        assert!(load.latency_quantile(0.99) > 5_000.0);
    }

    #[test]
    fn appended_phases_scale_compute_and_follow_on() {
        // `n` operations of 2 ms each, `compute` ns of it computing, back
        // to back on two clients.
        let phase = |n: u64, compute: u64| LoadResult {
            ops: (1..=n)
                .map(|i| (i * 1_000_000, 2_000_000, compute))
                .collect(),
            attempted: n,
            wall: Duration::from_millis(n),
            ..LoadResult::default()
        };
        let mut load = LoadResult::default();
        load.append(phase(100, 2_000_000), 1.0);
        assert_eq!(load.wall, Duration::from_millis(100));
        // All compute, on a machine at half the reference speed: every
        // time halves.
        load.append(phase(100, 2_000_000), 0.5);
        assert_eq!(load.attempted, 200);
        assert_eq!(load.wall, Duration::from_millis(150));
        assert_eq!(load.ops[100], (100_000_000 + 500_000, 1_000_000, 1_000_000));
        assert!((load.throughput() - 200.0 / 0.15).abs() < 1e-6);
        // Half compute, half waiting: only the compute part halves.
        load.append(phase(100, 1_000_000), 0.5);
        assert_eq!(load.ops[200].1, 1_500_000);
        assert_eq!(load.wall, Duration::from_millis(225));
    }
}
