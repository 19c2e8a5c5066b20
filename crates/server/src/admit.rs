//! Admission control: bounded queues, load shedding, panic quarantine,
//! and the retry/backoff policy.
//!
//! The service admits a request before queueing it and releases the
//! admission when the request completes. A **count cap**
//! ([`ServiceConfig::queue_cap`](crate::ServiceConfig::queue_cap)) bounds
//! outstanding admitted requests (queued + running) — the classic
//! bounded queue.
//!
//! Over-cap work is rejected with `E0801` immediately instead of
//! queueing unboundedly; a draining service rejects with `E0805`.
//!
//! `Quarantine` is the panic blocklist: when a request's compilation
//! still panics after its retry budget, its content digest enters a
//! small ring; subsequent requests with the same content — under any
//! artifact kind — are rejected with `E0803` before touching a worker. The ring is bounded, so a stream
//! of distinct poisonous inputs ages old entries out rather than
//! growing without limit.
//!
//! [`RetryPolicy`] implements decorrelated-jitter backoff
//! (`sleep = uniform(base, prev * 3)`, capped): retries of transient
//! failures spread out instead of synchronizing into retry storms.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::ContentDigest;

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitReject {
    /// Queue cap exceeded (`E0801`).
    Overloaded {
        /// Outstanding admitted requests at rejection time.
        queued: u64,
    },
    /// Admission is closed by a drain (`E0805`).
    Draining,
}

/// The admission gate: outstanding-work accounting plus the drain flag.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    /// Maximum outstanding admitted requests; `None` = unbounded.
    queue_cap: Option<usize>,
    /// Admitted, not yet completed requests.
    outstanding: AtomicU64,
    draining: AtomicBool,
}

impl Admission {
    pub(crate) fn new(queue_cap: Option<usize>) -> Admission {
        Admission {
            queue_cap,
            ..Admission::default()
        }
    }

    /// Tries to admit one request. On success the caller owns one
    /// admission and must [`release`](Admission::release) it.
    pub(crate) fn try_admit(&self) -> Result<(), AdmitReject> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(AdmitReject::Draining);
        }
        // Optimistically reserve, then check; over-cap reservations
        // roll back. Two racing admits can both reserve the last slot
        // and one rolls back — the cap is honored, never overshot
        // silently by more than the race window.
        let queued = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.queue_cap {
            if queued > cap as u64 {
                self.outstanding.fetch_sub(1, Ordering::Relaxed);
                return Err(AdmitReject::Overloaded { queued: queued - 1 });
            }
        }
        Ok(())
    }

    /// Releases one admission obtained from [`try_admit`](Admission::try_admit).
    pub(crate) fn release(&self) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }

    /// Outstanding admitted requests.
    pub(crate) fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Closes admission (drain). Idempotent; never reopened.
    pub(crate) fn close(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether admission is closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }
}

/// A bounded ring of quarantined input digests. Empty-checking is a
/// single relaxed load, so the fault-free path never takes the lock.
#[derive(Debug, Default)]
pub(crate) struct Quarantine {
    cap: usize,
    len: AtomicU64,
    ring: Mutex<Vec<ContentDigest>>,
    hits: AtomicU64,
}

impl Quarantine {
    /// A quarantine holding at most `cap` digests (0 disables it).
    pub(crate) fn new(cap: usize) -> Quarantine {
        Quarantine {
            cap,
            ..Quarantine::default()
        }
    }

    /// Whether `digest` is quarantined; counts a hit when it is.
    pub(crate) fn check(&self, digest: &ContentDigest) -> bool {
        if self.len.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let hit = self.ring.lock().expect("quarantine lock").contains(digest);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Quarantines `digest` (dedup; oldest entry evicted at capacity).
    pub(crate) fn insert(&self, digest: ContentDigest) {
        if self.cap == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("quarantine lock");
        if ring.contains(&digest) {
            return;
        }
        if ring.len() == self.cap {
            ring.remove(0);
        }
        ring.push(digest);
        self.len.store(ring.len() as u64, Ordering::Relaxed);
    }

    /// Digests currently quarantined.
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Requests rejected by the quarantine so far.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// How transient failures are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per request beyond the first attempt (0 disables
    /// retrying — the default, so retry behavior is always opt-in).
    pub budget: u32,
    /// Lower bound of the first backoff sleep.
    pub backoff_base: Duration,
    /// Upper bound any backoff sleep is clamped to.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 0,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `budget` times with the default backoff.
    pub fn with_budget(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            ..RetryPolicy::default()
        }
    }
}

/// Decorrelated-jitter backoff state: `next = uniform(base, prev * 3)`,
/// clamped to the cap. Seeded per request (from the input digest) so
/// backoff is deterministic for a given input yet decorrelated across
/// requests — concurrent retries spread out instead of thundering back
/// together.
#[derive(Debug)]
pub(crate) struct Backoff {
    policy: RetryPolicy,
    prev: Duration,
    rng: u64,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            prev: policy.backoff_base,
            // A zero xorshift state would stay zero forever.
            rng: seed | 1,
        }
    }

    /// The next sleep duration.
    pub(crate) fn next(&mut self) -> Duration {
        // xorshift64*: tiny, deterministic, no dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);

        let base = self.policy.backoff_base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .max(base + 1);
        let span = hi - base;
        let sleep = Duration::from_nanos(base + r % span).min(self.policy.backoff_cap);
        self.prev = sleep.max(self.policy.backoff_base);
        sleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> ContentDigest {
        ContentDigest::of(&crate::CompileRequest::new("k", format!("src{n}")))
    }

    #[test]
    fn unbounded_admission_admits_everything() {
        let a = Admission::new(None);
        for _ in 0..10_000 {
            a.try_admit().unwrap();
        }
        assert_eq!(a.outstanding(), 10_000);
    }

    #[test]
    fn queue_cap_sheds_and_release_reopens() {
        let a = Admission::new(Some(2));
        a.try_admit().unwrap();
        a.try_admit().unwrap();
        assert_eq!(a.try_admit(), Err(AdmitReject::Overloaded { queued: 2 }));
        assert_eq!(a.outstanding(), 2, "rejection rolls its reservation back");
        a.release();
        a.try_admit().unwrap();
        assert_eq!(a.outstanding(), 2);
    }

    #[test]
    fn draining_closes_admission() {
        let a = Admission::new(None);
        a.try_admit().unwrap();
        a.close();
        assert!(a.is_closed());
        assert_eq!(a.try_admit(), Err(AdmitReject::Draining));
        assert_eq!(a.outstanding(), 1, "in-flight work is unaffected");
    }

    #[test]
    fn quarantine_is_a_bounded_dedup_ring() {
        let q = Quarantine::new(2);
        assert!(!q.check(&key(1)));
        q.insert(key(1));
        q.insert(key(1)); // dedup
        assert_eq!(q.len(), 1);
        assert!(q.check(&key(1)));
        q.insert(key(2));
        q.insert(key(3)); // evicts key(1)
        assert_eq!(q.len(), 2);
        assert!(!q.check(&key(1)));
        assert!(q.check(&key(2)) && q.check(&key(3)));
        assert_eq!(q.hits(), 3);
    }

    #[test]
    fn zero_capacity_disables_quarantine() {
        let q = Quarantine::new(0);
        q.insert(key(1));
        assert_eq!(q.len(), 0);
        assert!(!q.check(&key(1)));
    }

    #[test]
    fn backoff_jitters_within_bounds_and_caps() {
        let policy = RetryPolicy {
            budget: 5,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
        };
        let mut b = Backoff::new(policy, 0xDEAD_BEEF);
        let mut prev = policy.backoff_base;
        for _ in 0..50 {
            let s = b.next();
            assert!(s >= Duration::ZERO && s <= policy.backoff_cap, "{s:?}");
            // Decorrelated jitter: bounded by 3x the previous sleep
            // (before capping).
            assert!(
                s <= (prev * 3).max(policy.backoff_base).min(policy.backoff_cap)
                    + Duration::from_nanos(1)
            );
            prev = s.max(policy.backoff_base);
        }
        // Deterministic per seed.
        let a: Vec<Duration> = (0..5).map(|_| Backoff::new(policy, 7).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        // Different seeds decorrelate.
        assert_ne!(
            Backoff::new(policy, 1).next(),
            Backoff::new(policy, 0x5555_5555).next()
        );
    }
}
