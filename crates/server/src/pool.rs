//! A fixed-size worker pool with panic isolation and acknowledged
//! shutdown.
//!
//! Jobs are `FnOnce` closures drained from a shared queue. A panicking
//! job is caught and counted; the worker thread survives and keeps
//! serving, so one poisoned request cannot take capacity away from the
//! rest of a batch.
//!
//! Shutdown is an explicit, *acknowledged* protocol instead of an
//! unbounded join: [`WorkerPool::shutdown`] closes the queue and waits
//! for each worker to ack its exit within a configurable timeout
//! (formerly an implicit, hard-coded wait). A worker wedged in a job
//! surfaces as a coded [`ShutdownTimeout`] error (`E0804`) rather than
//! hanging the caller forever; its thread is detached, not joined.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The default shutdown-ack timeout (the historically hard-coded 10 s,
/// now overridable via `ServiceConfig::shutdown_timeout` /
/// [`WorkerPool::with_shutdown_timeout`]).
pub const DEFAULT_SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// The stack every worker thread gets: 8 MiB, the default main-thread
/// stack on Linux, so a request runs with the same room in a worker as
/// in the `velus` CLI, which compiles on its main thread. Compilation
/// recurses with `if`/expression nesting depth, never with the number of
/// equations in a node.
pub const WORKER_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Workers that failed to acknowledge shutdown in time (code `E0804`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownTimeout {
    /// Workers that had not acked when the timeout expired.
    pub pending: usize,
    /// The timeout that expired.
    pub timeout: Duration,
}

impl ShutdownTimeout {
    /// The stable diagnostic code (`E0804`).
    pub fn code(&self) -> &'static str {
        velus_common::codes::E0804.id
    }
}

impl std::fmt::Display for ShutdownTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {} worker(s) failed to ack shutdown within {:?}",
            self.code(),
            self.pending,
            self.timeout
        )
    }
}

impl std::error::Error for ShutdownTimeout {}

/// A fixed set of worker threads consuming a shared job queue.
pub struct WorkerPool {
    /// `None` once the queue is closed (shutdown started).
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Workers ack on this channel immediately before exiting.
    ack_rx: Mutex<mpsc::Receiver<()>>,
    count: usize,
    shutdown_timeout: Duration,
    caught_panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) with the default
    /// shutdown timeout.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool::with_shutdown_timeout(workers, DEFAULT_SHUTDOWN_TIMEOUT)
    }

    /// Spawns `workers` threads (at least one); [`WorkerPool::shutdown`]
    /// and the drop path wait up to `shutdown_timeout` for acks.
    pub fn with_shutdown_timeout(workers: usize, shutdown_timeout: Duration) -> WorkerPool {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        let receiver = Arc::new(Mutex::new(receiver));
        let caught_panics = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|k| {
                let receiver = Arc::clone(&receiver);
                let caught = Arc::clone(&caught_panics);
                let ack = ack_tx.clone();
                thread::Builder::new()
                    .name(format!("velus-worker-{k}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || loop {
                        let job = {
                            let guard = receiver.lock().expect("job queue lock");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                    caught.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            // All senders dropped: the pool is shutting
                            // down. Ack, then exit (a dropped ack
                            // receiver just means nobody is waiting).
                            Err(mpsc::RecvError) => {
                                let _ = ack.send(());
                                return;
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(handles),
            ack_rx: Mutex::new(ack_rx),
            count: workers,
            shutdown_timeout,
            caught_panics,
        }
    }

    /// Enqueues a job.
    ///
    /// # Panics
    ///
    /// If the pool was already shut down (a service never does this:
    /// shutdown consumes it).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .lock()
            .expect("pool sender lock")
            .as_ref()
            .expect("pool is live until shut down")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.count
    }

    /// The configured shutdown-ack timeout.
    pub fn shutdown_timeout(&self) -> Duration {
        self.shutdown_timeout
    }

    /// Worker threads that exited prematurely (0 in a healthy pool:
    /// per-job `catch_unwind` keeps workers alive across panicking
    /// jobs). The chaos bench asserts this stays 0 under fault
    /// injection.
    pub fn dead_workers(&self) -> usize {
        self.workers
            .lock()
            .expect("pool workers lock")
            .iter()
            .filter(|h| h.is_finished())
            .count()
    }

    /// How many jobs panicked and were contained (a last-resort counter:
    /// the service converts request panics to errors before they reach
    /// the pool).
    pub fn caught_panics(&self) -> u64 {
        self.caught_panics.load(Ordering::Relaxed)
    }

    /// Closes the queue, lets queued jobs finish, and waits up to
    /// `timeout` for every worker to acknowledge its exit. Idempotent:
    /// a second call returns `Ok` immediately.
    ///
    /// On success all worker threads are joined. On timeout the
    /// unacked workers are *detached* (their handles dropped, never
    /// joined) so a wedged job cannot hang the caller — the error says
    /// so loudly instead.
    ///
    /// # Errors
    ///
    /// [`ShutdownTimeout`] (`E0804`) when a worker fails to ack in time.
    pub fn shutdown(&self, timeout: Duration) -> Result<(), ShutdownTimeout> {
        let closed = self.sender.lock().expect("pool sender lock").take();
        if closed.is_none() && self.workers.lock().expect("pool workers lock").is_empty() {
            return Ok(()); // already shut down
        }
        drop(closed); // workers see RecvError once the queue drains
        let deadline = Instant::now() + timeout;
        let ack_rx = self.ack_rx.lock().expect("pool ack lock");
        let mut handles = self.workers.lock().expect("pool workers lock");
        let mut acked = 0usize;
        while acked < handles.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match ack_rx.recv_timeout(remaining) {
                Ok(()) => acked += 1,
                Err(_) => {
                    let pending = handles.len() - acked;
                    // Detach every handle: the acked workers are about
                    // to exit anyway and the wedged ones must not be
                    // joined.
                    handles.clear();
                    return Err(ShutdownTimeout { pending, timeout });
                }
            }
        }
        // Every worker acked: joining is immediate.
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
        Ok(())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue and wait for acks with the configured
        // timeout. A timeout here is unreportable (drop has no return
        // channel) — but bounded, which the old unconditional join was
        // not; callers who care use `shutdown()` first and get `E0804`.
        let _ = self.shutdown(self.shutdown_timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_jobs() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // acked shutdown
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        let (tx2, rx2) = mpsc::channel();
        // Job A waits for job B's signal: completes only if both run at
        // the same time on distinct workers.
        pool.execute(move || {
            rx2.recv_timeout(Duration::from_secs(10))
                .expect("peer signal");
            tx.send(()).unwrap();
        });
        pool.execute(move || {
            tx2.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("two workers should overlap");
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("poisoned request"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::SeqCst);
        });
        assert_eq!(pool.shutdown(Duration::from_secs(10)), Ok(()));
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.dead_workers(), 0, "handles joined and drained");
    }

    #[test]
    fn caught_panics_are_counted() {
        let pool = WorkerPool::new(2);
        for _ in 0..3 {
            pool.execute(|| panic!("boom"));
        }
        // Wait for completion via acked shutdown, then check the count
        // through the shared handle taken before the drop.
        let caught = Arc::clone(&pool.caught_panics);
        drop(pool);
        assert_eq!(caught.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 1);
    }

    #[test]
    fn shutdown_acks_and_is_idempotent() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(pool.shutdown(Duration::from_secs(10)), Ok(()));
        assert_eq!(counter.load(Ordering::SeqCst), 10, "queued jobs finish");
        assert_eq!(pool.shutdown(Duration::from_secs(10)), Ok(()));
    }

    #[test]
    fn a_wedged_worker_surfaces_a_coded_timeout_not_a_hang() {
        let pool = WorkerPool::with_shutdown_timeout(1, Duration::from_millis(50));
        let (tx, rx) = mpsc::channel::<()>();
        pool.execute(move || {
            // Wedge until the test ends (the thread is detached, and
            // the sender drop unblocks it so the test binary exits
            // cleanly).
            let _ = rx.recv_timeout(Duration::from_secs(60));
        });
        let err = pool
            .shutdown(Duration::from_millis(50))
            .expect_err("wedged worker must time out");
        assert_eq!(err.pending, 1);
        assert_eq!(err.code(), "E0804");
        assert!(err.to_string().contains("E0804"), "{err}");
        drop(tx); // unwedge the detached worker
    }
}
