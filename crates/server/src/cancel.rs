//! Cooperative cancellation: a cheap, clonable token checked at pass
//! boundaries.
//!
//! A [`CancelToken`] is created per request when the service admits it
//! and threaded into the compiler through
//! [`Compiler::compile`](crate::Compiler::compile).
//! It combines three signals:
//!
//! * a **deadline** (from the request's `deadline_ms`, measured from
//!   admission so queue wait counts against it),
//! * an **explicit flag** (`cancel()`),
//! * a shared **kill switch** the service flips when a drain deadline
//!   expires, cancelling every in-flight request at once.
//!
//! Checking is a couple of relaxed atomic loads plus (when a deadline is
//! set) one `Instant::now()` — cheap enough for every pass boundary.
//! Cancellation is *cooperative*: a pass that is already running
//! finishes; the pipeline aborts before starting the next one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token reports itself cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The request's deadline expired (code `E0802`).
    Deadline,
    /// The service is shutting down or draining (code `E0805`).
    Shutdown,
}

#[derive(Debug, Default)]
struct Inner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    /// Service-wide drain/shutdown switch, shared across every token
    /// the service hands out. `None` for standalone tokens.
    kill: Option<Arc<AtomicBool>>,
}

/// A clonable cancellation token (clones observe the same state).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never cancels on its own (only via [`cancel`]).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn unbounded() -> CancelToken {
        CancelToken::default()
    }

    /// A token that cancels when `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(deadline),
                ..Inner::default()
            }),
        }
    }

    /// A per-request token: optional deadline plus the service's shared
    /// kill switch.
    pub(crate) fn for_request(deadline: Option<Instant>, kill: Arc<AtomicBool>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline,
                cancelled: AtomicBool::new(false),
                kill: Some(kill),
            }),
        }
    }

    /// Cancels the token explicitly (reported as [`CancelReason::Shutdown`]).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// The token's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Why the token is cancelled, or `None` while work may continue.
    /// An expired deadline wins over a concurrent shutdown: the client
    /// sees the per-request condition, not the service-wide one.
    pub fn state(&self) -> Option<CancelReason> {
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Some(CancelReason::Deadline);
            }
        }
        if self.inner.cancelled.load(Ordering::Relaxed)
            || self
                .inner
                .kill
                .as_ref()
                .is_some_and(|k| k.load(Ordering::Relaxed))
        {
            return Some(CancelReason::Shutdown);
        }
        None
    }

    /// Whether the token is cancelled (deadline, explicit, or kill switch).
    pub fn is_cancelled(&self) -> bool {
        self.state().is_some()
    }

    /// Time remaining until the deadline (`None` = no deadline;
    /// `Some(ZERO)` = already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl CancelReason {
    /// The diagnostic code of the cancellation (`E0802` / `E0805`).
    pub fn code(self) -> &'static str {
        match self {
            CancelReason::Deadline => "E0802",
            CancelReason::Shutdown => "E0805",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_only_cancels_explicitly() {
        let t = CancelToken::unbounded();
        assert_eq!(t.state(), None);
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.state(), Some(CancelReason::Shutdown));
    }

    #[test]
    fn expired_deadline_cancels_and_wins_over_shutdown() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.state(), Some(CancelReason::Deadline));
        t.cancel();
        assert_eq!(t.state(), Some(CancelReason::Deadline));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_does_not_cancel() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(t.state(), None);
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn kill_switch_cancels_every_request_token() {
        let kill = Arc::new(AtomicBool::new(false));
        let a = CancelToken::for_request(None, Arc::clone(&kill));
        let b = CancelToken::for_request(None, Arc::clone(&kill));
        assert!(!a.is_cancelled() && !b.is_cancelled());
        kill.store(true, Ordering::Relaxed);
        assert_eq!(a.state(), Some(CancelReason::Shutdown));
        assert_eq!(b.state(), Some(CancelReason::Shutdown));
    }

    #[test]
    fn reasons_map_to_codes() {
        assert_eq!(CancelReason::Deadline.code(), "E0802");
        assert_eq!(CancelReason::Shutdown.code(), "E0805");
    }
}
