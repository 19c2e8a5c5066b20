//! Deterministic fault injection for the compilation service: a
//! [`ChaosCompiler`] wraps any [`Compiler`] and injects seeded panics,
//! transient failures, and delays, keyed on the request *content* — the
//! service's own [`ContentDigest`] mixed with the seed — so a given
//! `(seed, content)` pair always misbehaves the same way.
//!
//! The fault classes map one-to-one onto the serving layer's
//! fault-tolerance mechanisms, so the chaos bench (`velus-bench --bin
//! chaos`) can drive each of them on purpose:
//!
//! * **sticky panics** — the same input panics on every attempt,
//!   exercising per-request containment and the panic quarantine;
//! * **transient failures** — the *first* attempt on an input fails
//!   with an uncoded (→ transient-class) error and every later attempt
//!   succeeds, exercising retry-with-backoff (the
//!   [`ChaosStats::recovered_transients`] / `injected_transients` ratio
//!   is the bench's retry-success metric);
//! * **delays** — a fixed sleep in ~1 ms slices that watches the
//!   request's [`CancelToken`], exercising deadlines and drain
//!   cancellation inside "compilation".

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use velus_server::{
    ArtifactKind, CancelToken, CompileOutput, CompileRequest, Compiler, ContentDigest,
    FailureReport,
};

/// Fault rates (per mille of requests) and shapes. Rates are applied in
/// order — panic, transient, delay — over one deterministic roll per
/// input, so `panic_per_mille + transient_per_mille + delay_per_mille`
/// must stay ≤ 1000 (the remainder compiles cleanly).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed mixed into every per-input roll: different seeds assign
    /// faults to different inputs.
    pub seed: u64,
    /// Fraction of inputs (per mille) that panic on every attempt.
    pub panic_per_mille: u32,
    /// Fraction of inputs (per mille) whose first attempt fails
    /// transiently.
    pub transient_per_mille: u32,
    /// Fraction of inputs (per mille) delayed before compiling.
    pub delay_per_mille: u32,
    /// How long a delayed input sleeps before compiling.
    pub delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            panic_per_mille: 20,
            transient_per_mille: 200,
            delay_per_mille: 100,
            delay: Duration::from_millis(5),
        }
    }
}

/// What the injector did so far (all counters monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Panics injected (one per *attempt* on a panic-class input).
    pub injected_panics: u64,
    /// Inputs whose first attempt was failed transiently.
    pub injected_transients: u64,
    /// Transiently-failed inputs that later compiled successfully —
    /// `recovered_transients / injected_transients` is the
    /// retry-success rate the chaos bench asserts on.
    pub recovered_transients: u64,
    /// Delays injected (one per attempt on a delay-class input).
    pub injected_delays: u64,
}

/// The error type of a [`ChaosCompiler`]: an injected fault or the
/// wrapped compiler's own failure.
#[derive(Debug)]
pub enum ChaosError<E> {
    /// A fault injected by the chaos layer (never the inner compiler's
    /// fault). The message is uncoded, so the service classifies it as
    /// transient and retries it.
    Injected(&'static str),
    /// The wrapped compiler's own error, passed through.
    Inner(E),
}

impl<E: std::fmt::Display> std::fmt::Display for ChaosError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Injected(kind) => write!(f, "chaos: injected {kind}"),
            ChaosError::Inner(e) => e.fmt(f),
        }
    }
}

/// xorshift64* finalizer: decorrelates the digest bits before the roll.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// The fault class an input rolls (fixed per content and seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every attempt panics.
    Panic,
    /// The first attempt fails transiently; retries compile.
    Transient,
    /// Every attempt sleeps for the configured delay, then compiles.
    Delay,
    /// Compiles untouched.
    None,
}

/// A [`Compiler`] decorator injecting deterministic, seeded faults.
/// Everything else — artifacts, cost hints, failure reports — delegates
/// to the wrapped compiler.
pub struct ChaosCompiler<C> {
    inner: C,
    config: ChaosConfig,
    /// Digests whose transient fault already fired (first attempt
    /// consumed) and those that went on to recover.
    transient_fired: Mutex<HashSet<u64>>,
    transient_recovered: Mutex<HashSet<u64>>,
    injected_panics: AtomicU64,
    injected_transients: AtomicU64,
    recovered_transients: AtomicU64,
    injected_delays: AtomicU64,
}

impl<C> ChaosCompiler<C> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: C, config: ChaosConfig) -> ChaosCompiler<C> {
        assert!(
            config.panic_per_mille + config.transient_per_mille + config.delay_per_mille <= 1000,
            "fault rates exceed 100%"
        );
        ChaosCompiler {
            inner,
            config,
            transient_fired: Mutex::new(HashSet::new()),
            transient_recovered: Mutex::new(HashSet::new()),
            injected_panics: AtomicU64::new(0),
            injected_transients: AtomicU64::new(0),
            recovered_transients: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
        }
    }

    /// The injection counters so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        ChaosStats {
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_transients: self.injected_transients.load(Ordering::Relaxed),
            recovered_transients: self.recovered_transients.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
        }
    }

    /// The service's content digest of `req` mixed with the seed: the
    /// same content always rolls the same fault for a given seed,
    /// regardless of the request's name.
    fn digest(&self, req: &CompileRequest) -> u64 {
        ContentDigest::of(req).seed() ^ self.config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// The fault class `req` rolls: what compiling it through this
    /// injector will do. A benchmark uses it to build a corpus that
    /// exercises every class.
    pub fn fault_of(&self, req: &CompileRequest) -> Fault {
        self.fault_for(self.digest(req))
    }

    fn fault_for(&self, digest: u64) -> Fault {
        let roll = (mix(digest) % 1000) as u32;
        if roll < self.config.panic_per_mille {
            Fault::Panic
        } else if roll < self.config.panic_per_mille + self.config.transient_per_mille {
            Fault::Transient
        } else if roll
            < self.config.panic_per_mille
                + self.config.transient_per_mille
                + self.config.delay_per_mille
        {
            Fault::Delay
        } else {
            Fault::None
        }
    }

    fn run<Out>(
        &self,
        req: &CompileRequest,
        cancel: &CancelToken,
        inner: impl FnOnce() -> Result<Out, ChaosError<<C as Compiler>::Error>>,
    ) -> Result<Out, ChaosError<<C as Compiler>::Error>>
    where
        C: Compiler,
    {
        let digest = self.digest(req);
        match self.fault_for(digest) {
            Fault::Panic => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic");
            }
            Fault::Transient => {
                if self
                    .transient_fired
                    .lock()
                    .expect("chaos lock")
                    .insert(digest)
                {
                    self.injected_transients.fetch_add(1, Ordering::Relaxed);
                    return Err(ChaosError::Injected("transient fault"));
                }
                let out = inner()?;
                if self
                    .transient_recovered
                    .lock()
                    .expect("chaos lock")
                    .insert(digest)
                {
                    self.recovered_transients.fetch_add(1, Ordering::Relaxed);
                }
                Ok(out)
            }
            Fault::Delay => {
                self.injected_delays.fetch_add(1, Ordering::Relaxed);
                // Sleep in short slices, watching the token like a
                // cooperative pipeline would; once cancelled, stop
                // sleeping and let the inner compiler's own pass-boundary
                // check surface the coded condition.
                let mut left = self.config.delay;
                while !left.is_zero() {
                    if cancel.state().is_some() {
                        break;
                    }
                    let slice = left.min(Duration::from_millis(1));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
                inner()
            }
            Fault::None => inner(),
        }
    }
}

impl<C: Compiler> Compiler for ChaosCompiler<C> {
    type Artifact = C::Artifact;
    type Error = ChaosError<C::Error>;

    fn compile(
        &self,
        req: &CompileRequest,
        kinds: &[ArtifactKind],
        cancel: &CancelToken,
    ) -> Result<CompileOutput<C::Artifact>, Self::Error> {
        self.run(req, cancel, || {
            self.inner
                .compile(req, kinds, cancel)
                .map_err(ChaosError::Inner)
        })
    }

    fn failure_report(&self, req: &CompileRequest, err: &Self::Error) -> FailureReport {
        match err {
            // Uncoded → E0000 → transient class → the service retries.
            ChaosError::Injected(_) => FailureReport::from_message(err.to_string()),
            ChaosError::Inner(e) => self.inner.failure_report(req, e),
        }
    }

    fn artifact_bytes(artifact: &C::Artifact) -> usize {
        C::artifact_bytes(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uppercases the source; never fails on its own.
    struct Upper;

    impl Compiler for Upper {
        type Artifact = String;
        type Error = String;

        fn compile(
            &self,
            req: &CompileRequest,
            kinds: &[ArtifactKind],
            _: &CancelToken,
        ) -> Result<CompileOutput<String>, String> {
            Ok(CompileOutput::new(
                kinds
                    .iter()
                    .map(|k| (*k, req.source.to_uppercase()))
                    .collect(),
                Vec::new(),
            ))
        }
    }

    fn fault_of(chaos: &ChaosCompiler<Upper>, source: &str) -> Fault {
        chaos.fault_of(&CompileRequest::new("f", source))
    }

    fn first_source_with(chaos: &ChaosCompiler<Upper>, fault: Fault) -> String {
        (0..100_000)
            .map(|i| format!("src-{i}"))
            .find(|s| fault_of(chaos, s) == fault)
            .expect("fault class must be reachable at these rates")
    }

    #[test]
    fn faults_are_deterministic_per_seed_and_content() {
        let a = ChaosCompiler::new(Upper, ChaosConfig::default());
        let b = ChaosCompiler::new(Upper, ChaosConfig::default());
        for i in 0..200 {
            let s = format!("prog {i}");
            assert_eq!(fault_of(&a, &s), fault_of(&b, &s));
        }
        // The request's name is not part of its content.
        let (x, y) = (
            CompileRequest::new("x", "prog 0"),
            CompileRequest::new("y", "prog 0"),
        );
        assert_eq!(a.digest(&x), a.digest(&y));
        // A different seed shuffles the assignment (at these rates some
        // input must differ within 200 tries).
        let c = ChaosCompiler::new(
            Upper,
            ChaosConfig {
                seed: 1,
                ..ChaosConfig::default()
            },
        );
        assert!(
            (0..200).any(|i| {
                let s = format!("prog {i}");
                fault_of(&a, &s) != fault_of(&c, &s)
            }),
            "seed must influence fault assignment"
        );
    }

    #[test]
    fn transient_faults_fail_once_then_recover() {
        let chaos = ChaosCompiler::new(Upper, ChaosConfig::default());
        let src = first_source_with(&chaos, Fault::Transient);
        let req = CompileRequest::new("t", src);
        let kinds = [ArtifactKind::CCode];
        let unbounded = CancelToken::unbounded();
        assert!(matches!(
            chaos.compile(&req, &kinds, &unbounded),
            Err(ChaosError::Injected(_))
        ));
        let out = chaos
            .compile(&req, &kinds, &unbounded)
            .expect("second attempt succeeds");
        assert_eq!(out.artifacts.len(), 1);
        let stats = chaos.chaos_stats();
        assert_eq!(
            (stats.injected_transients, stats.recovered_transients),
            (1, 1)
        );
        // A third attempt does not double-count the recovery.
        let _ = chaos.compile(&req, &kinds, &unbounded);
        assert_eq!(chaos.chaos_stats().recovered_transients, 1);
    }

    #[test]
    fn panic_faults_are_sticky() {
        let chaos = ChaosCompiler::new(Upper, ChaosConfig::default());
        let src = first_source_with(&chaos, Fault::Panic);
        let req = CompileRequest::new("p", src);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = chaos.compile(&req, &[ArtifactKind::CCode], &CancelToken::unbounded());
            }));
            assert!(caught.is_err(), "panic-class inputs panic on every attempt");
        }
        assert_eq!(chaos.chaos_stats().injected_panics, 2);
    }

    #[test]
    fn delays_abort_early_when_the_token_fires() {
        let chaos = ChaosCompiler::new(
            Upper,
            ChaosConfig {
                delay: Duration::from_secs(60),
                ..ChaosConfig::default()
            },
        );
        let src = first_source_with(&chaos, Fault::Delay);
        let req = CompileRequest::new("d", src);
        let token = CancelToken::unbounded();
        token.cancel();
        let started = std::time::Instant::now();
        // The 60 s delay collapses because the token is already fired;
        // the inner compiler (which ignores the token) then succeeds.
        let out = chaos.compile(&req, &[ArtifactKind::CCode], &token);
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(out.is_ok());
        assert_eq!(chaos.chaos_stats().injected_delays, 1);
    }

    #[test]
    fn clean_inputs_pass_through_untouched() {
        let chaos = ChaosCompiler::new(Upper, ChaosConfig::default());
        let src = first_source_with(&chaos, Fault::None);
        let out = chaos
            .compile(
                &CompileRequest::new("c", src.clone()),
                &[ArtifactKind::CCode],
                &CancelToken::unbounded(),
            )
            .expect("clean input compiles");
        assert_eq!(out.artifacts[0].1, src.to_uppercase());
        assert_eq!(chaos.chaos_stats(), ChaosStats::default());
    }
}
