//! The batch compilation service: a worker pool with a content-addressed
//! artifact cache in front of a (pluggable) compiler.
//!
//! The PLDI'17 pipeline is validated at every stage, which makes a single
//! compilation expensive; serving many compilation requests means
//! amortizing that cost. This crate provides the serving substrate:
//!
//! * [`CompileService`] — accepts batches of [`CompileRequest`]s and runs
//!   them on a [`pool::WorkerPool`], in parallel, with panic isolation
//!   per request;
//! * [`cache::ArtifactCache`] — a content-addressed memo table keyed per
//!   artifact kind from one [`ContentDigest`] of the request's source,
//!   root and I/O mode: a warm hit skips the whole pipeline and returns
//!   the identical artifact;
//! * [`stats::StatsSnapshot`] — requests, hit/miss counts, and p50/p95
//!   latency per pipeline stage, for capacity planning.
//!
//! The crate is deliberately generic over the [`Compiler`]: it knows
//! nothing about Lustre. The `velus` crate instantiates it with the real
//! pipeline (`velus::service`), keeping the dependency arrow pointing
//! from the driver to the substrate so later scaling work (async,
//! multi-backend) can build on this layer without cycles.
//!
//! Scaling features (see `docs/ARCHITECTURE.md` at the repository root
//! for the full design):
//!
//! * the cache is **lock-striped** into shards selected by the digest's
//!   high bits and bounded by entry/byte caps with S3-FIFO eviction
//!   (Yang et al., SOSP 2023; [`cache::CacheConfig`]): one-off entries
//!   pass through a small probation queue, so they do not push out the
//!   entries that get hit; eviction counters surface in the stats.
//!
//! ```
//! use velus_server::{ArtifactKind, CancelToken, Compiler, CompileOutput, CompileRequest,
//!                    CompileService, ServiceConfig};
//!
//! struct Upper;
//! impl Compiler for Upper {
//!     type Artifact = String;
//!     type Error = String;
//!     fn compile(&self, req: &CompileRequest, kinds: &[ArtifactKind], _: &CancelToken)
//!         -> Result<CompileOutput<String>, String>
//!     {
//!         let artifacts = kinds
//!             .iter()
//!             .map(|kind| (*kind, req.source.to_uppercase()))
//!             .collect();
//!         Ok(CompileOutput::new(artifacts, Vec::new()))
//!     }
//! }
//!
//! let service = CompileService::new(Upper, ServiceConfig { workers: 2, ..Default::default() });
//! let batch = service.compile_batch(vec![CompileRequest::new("a", "x"), CompileRequest::new("b", "y")]);
//! assert_eq!(batch.ok_count(), 2);
//! let again = service.compile_batch(vec![CompileRequest::new("a", "x")]);
//! assert!(again.items[0].cache_hit);
//! ```

#![warn(missing_docs)]

pub use velus_common::{DiagRecord, FailureReport, IoMode};

pub mod admit;
pub mod cache;
pub mod cancel;
pub mod pool;
pub mod service;
pub mod stats;

pub use admit::RetryPolicy;
pub use cache::{
    ArtifactCache, CacheConfig, CacheCounters, CacheKey, ContentDigest, RequestContent,
};
pub use cancel::{CancelReason, CancelToken};
pub use pool::{ShutdownTimeout, WorkerPool, WORKER_STACK_BYTES};
pub use service::{
    ArtifactReport, BatchReport, CompileService, DrainReport, RequestReport, ServiceConfig,
    ServiceError, Submission,
};
pub use stats::{KindStats, StageLatency, StatsSnapshot};

/// Which back-end cost model a WCET artifact is computed under. The
/// substrate treats this as opaque cache-key data; the instantiation
/// gives it meaning (the three Fig. 12 columns in Vélus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WcetModelKind {
    /// CompCert-like code shape.
    #[default]
    CompCert,
    /// GCC `-O1`-like code shape.
    Gcc,
    /// GCC with transitive inlining.
    GccInline,
}

impl WcetModelKind {
    /// The CLI spelling (`cc`, `gcc`, `gcci`).
    pub fn name(self) -> &'static str {
        match self {
            WcetModelKind::CompCert => "cc",
            WcetModelKind::Gcc => "gcc",
            WcetModelKind::GccInline => "gcci",
        }
    }
}

impl std::str::FromStr for WcetModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<WcetModelKind, String> {
        velus_common::parse_enum_flag(
            "WCET model",
            s,
            &[
                ("cc", WcetModelKind::CompCert),
                ("gcc", WcetModelKind::Gcc),
                ("gcci", WcetModelKind::GccInline),
            ],
        )
    }
}

/// Which intermediate representation an IR-dump artifact renders. Opaque
/// cache-key data to the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrStageKind {
    /// Elaborated, unscheduled N-Lustre.
    NLustre,
    /// Scheduled SN-Lustre.
    SnLustre,
    /// Translated Obc, before fusion.
    Obc,
    /// Obc after fusion.
    ObcFused,
}

impl IrStageKind {
    /// The CLI spelling (also the `--emit` token).
    pub fn name(self) -> &'static str {
        match self {
            IrStageKind::NLustre => "nlustre",
            IrStageKind::SnLustre => "snlustre",
            IrStageKind::Obc => "obc",
            IrStageKind::ObcFused => "obc-fused",
        }
    }
}

impl std::str::FromStr for IrStageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<IrStageKind, String> {
        velus_common::parse_enum_flag(
            "IR stage",
            s,
            &[
                ("nlustre", IrStageKind::NLustre),
                ("snlustre", IrStageKind::SnLustre),
                ("obc", IrStageKind::Obc),
                ("obc-fused", IrStageKind::ObcFused),
            ],
        )
    }
}

/// What a request asks the compiler to produce. Each kind is cached
/// **independently** under its own `(source, root, io, kind)` key, so a
/// WCET request never recomputes or re-caches the C artifact, and a
/// request for several kinds fills several entries from one compilation.
///
/// The substrate does not interpret kinds — they are cache-key
/// components and statistics labels; the [`Compiler`] instantiation
/// decides what each kind means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArtifactKind {
    /// The printed C translation unit.
    #[default]
    CCode,
    /// A worst-case-execution-time report under a back-end model.
    Wcet {
        /// The back-end cost model.
        model: WcetModelKind,
    },
    /// A comparison against the paper's baseline compilation schemes.
    BaselineDiff,
    /// A pretty-printed intermediate representation.
    IrDump {
        /// Which pipeline stage's IR.
        stage: IrStageKind,
    },
    /// A per-program validation/diagnostics report (machine-readable):
    /// which stages ran and re-validated, program shape, and the
    /// front-end warnings with their codes.
    Report,
    /// The static-analysis lint report (machine-readable): every
    /// `W01xx`/`E01xx` finding of the `velus-analysis` lint pass, with
    /// codes, severities and source positions.
    Lint,
}

impl ArtifactKind {
    /// The statistics groups, in display order. Kinds with payloads
    /// (model, stage) share one group each.
    pub const GROUPS: [&'static str; 6] =
        ["c", "wcet", "baseline-diff", "ir-dump", "report", "lint"];

    /// Index of this kind's statistics group in [`ArtifactKind::GROUPS`].
    pub fn group_index(&self) -> usize {
        match self {
            ArtifactKind::CCode => 0,
            ArtifactKind::Wcet { .. } => 1,
            ArtifactKind::BaselineDiff => 2,
            ArtifactKind::IrDump { .. } => 3,
            ArtifactKind::Report => 4,
            ArtifactKind::Lint => 5,
        }
    }

    /// A short stable tag fed into the cache digest (discriminant plus
    /// payload; distinct kinds never collide).
    pub(crate) fn key_tag(&self) -> [u8; 2] {
        match self {
            ArtifactKind::CCode => [0, 0],
            ArtifactKind::Wcet { model } => [1, *model as u8 + 1],
            ArtifactKind::BaselineDiff => [2, 0],
            ArtifactKind::IrDump { stage } => [3, *stage as u8 + 1],
            ArtifactKind::Report => [4, 0],
            ArtifactKind::Lint => [5, 0],
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKind::CCode => f.write_str("c"),
            ArtifactKind::Wcet { model } => write!(f, "wcet:{}", model.name()),
            ArtifactKind::BaselineDiff => f.write_str("baseline-diff"),
            ArtifactKind::IrDump { stage } => f.write_str(stage.name()),
            ArtifactKind::Report => f.write_str("report"),
            ArtifactKind::Lint => f.write_str("lint"),
        }
    }
}

impl std::str::FromStr for ArtifactKind {
    type Err = String;

    /// Parses one `--emit` token: `c`, `wcet`, `wcet:cc|gcc|gcci`,
    /// `baseline` / `baseline-diff`, `report`, `lint`, or an IR name
    /// (`nlustre|snlustre|obc|obc-fused`). Unknown tokens yield a coded
    /// usage diagnostic with a did-you-mean suggestion.
    fn from_str(s: &str) -> Result<ArtifactKind, String> {
        if let Some(model) = s.strip_prefix("wcet:") {
            return Ok(ArtifactKind::Wcet {
                model: model.parse()?,
            });
        }
        velus_common::parse_enum_flag(
            "artifact kind",
            s,
            &[
                ("c", ArtifactKind::CCode),
                (
                    "wcet",
                    ArtifactKind::Wcet {
                        model: WcetModelKind::default(),
                    },
                ),
                ("baseline", ArtifactKind::BaselineDiff),
                ("baseline-diff", ArtifactKind::BaselineDiff),
                (
                    "nlustre",
                    ArtifactKind::IrDump {
                        stage: IrStageKind::NLustre,
                    },
                ),
                (
                    "snlustre",
                    ArtifactKind::IrDump {
                        stage: IrStageKind::SnLustre,
                    },
                ),
                (
                    "obc",
                    ArtifactKind::IrDump {
                        stage: IrStageKind::Obc,
                    },
                ),
                (
                    "obc-fused",
                    ArtifactKind::IrDump {
                        stage: IrStageKind::ObcFused,
                    },
                ),
                ("report", ArtifactKind::Report),
                ("lint", ArtifactKind::Lint),
            ],
        )
    }
}

/// Parses a comma-separated `--emit` list into a deduplicated,
/// order-preserving kind set. Empty input is an error.
///
/// # Errors
///
/// Any unknown token (see the [`ArtifactKind`] `FromStr` impl).
pub fn parse_artifact_kinds(s: &str) -> Result<Vec<ArtifactKind>, String> {
    let mut kinds: Vec<ArtifactKind> = Vec::new();
    for token in s.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let kind: ArtifactKind = token.parse()?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err("empty artifact kind list".to_owned());
    }
    Ok(kinds)
}

/// Options that affect the produced artifacts (the I/O mode and each
/// artifact kind are part of the per-kind cache key; the kind *set* as a
/// whole is not — two requests that share a kind share its entry).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// I/O rendering of the emitted code.
    pub io: IoMode,
    /// The artifact kinds the request asks for, in report order
    /// (deduplicated; an empty set is treated as `[CCode]`).
    pub kinds: Vec<ArtifactKind>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            io: IoMode::default(),
            kinds: vec![ArtifactKind::CCode],
        }
    }
}

impl CompileOptions {
    /// Options asking for the given kinds with default I/O.
    pub fn for_kinds(kinds: Vec<ArtifactKind>) -> CompileOptions {
        CompileOptions {
            io: IoMode::default(),
            kinds,
        }
    }

    /// Sets the I/O mode.
    #[must_use]
    pub fn with_io(mut self, io: IoMode) -> CompileOptions {
        self.io = io;
        self
    }

    /// The effective kind set: deduplicated, order preserved, defaulting
    /// to `[CCode]` when empty.
    pub fn effective_kinds(&self) -> Vec<ArtifactKind> {
        let mut kinds: Vec<ArtifactKind> = Vec::with_capacity(self.kinds.len().max(1));
        for kind in &self.kinds {
            if !kinds.contains(kind) {
                kinds.push(*kind);
            }
        }
        if kinds.is_empty() {
            kinds.push(ArtifactKind::CCode);
        }
        kinds
    }
}

/// One compilation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// A label for reporting (e.g. the file stem); not part of the cache
    /// key.
    pub name: String,
    /// The full source text.
    pub source: String,
    /// The root node to compile for; `None` selects the program's sink.
    pub root: Option<String>,
    /// Artifact options.
    pub options: CompileOptions,
    /// Per-request deadline in milliseconds, measured from submission
    /// (queue wait counts). `None` means no deadline. Expired requests
    /// fail with `ServiceError::DeadlineExceeded` (`E0802`); the
    /// pipeline aborts cooperatively at the next pass boundary. Not part
    /// of the cache key.
    pub deadline_ms: Option<u64>,
}

impl CompileRequest {
    /// A request with default options and no explicit root.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> CompileRequest {
        CompileRequest {
            name: name.into(),
            source: source.into(),
            root: None,
            options: CompileOptions::default(),
            deadline_ms: None,
        }
    }

    /// Sets the root node.
    #[must_use]
    pub fn with_root(mut self, root: impl Into<String>) -> CompileRequest {
        self.root = Some(root.into());
        self
    }

    /// Sets the artifact options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> CompileRequest {
        self.options = options;
        self
    }

    /// Sets a per-request deadline in milliseconds from admission.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> CompileRequest {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// The pipeline stages the service accounts for. The Vélus instantiation
/// reports one sample per stage per (uncached) compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parsing, elaboration, normalization to N-Lustre.
    Frontend,
    /// Re-checking the elaborator's postconditions (types, clocks).
    Check,
    /// Scheduling plus the validated schedule check.
    Schedule,
    /// Translation to Obc plus its typing/Fusible checks.
    Translate,
    /// The fusion optimization plus its preservation checks.
    Fuse,
    /// Clight generation.
    Generate,
    /// Printing the C translation unit.
    Emit,
    /// The static-analysis lint pass (off the main chain: runs only
    /// when a lint artifact is requested).
    Analysis,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Frontend,
        Stage::Check,
        Stage::Schedule,
        Stage::Translate,
        Stage::Fuse,
        Stage::Generate,
        Stage::Emit,
        Stage::Analysis,
    ];

    /// A short stable name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Frontend => "frontend",
            Stage::Check => "check",
            Stage::Schedule => "schedule",
            Stage::Translate => "translate",
            Stage::Fuse => "fuse",
            Stage::Generate => "generate",
            Stage::Emit => "emit",
            Stage::Analysis => "analysis",
        }
    }

    pub(crate) fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|s| *s == self)
            .expect("stage in ALL")
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed stage of one compilation.
#[derive(Debug, Clone, Copy)]
pub struct StageSample {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock nanoseconds spent.
    pub nanos: u64,
}

/// Everything one successful [`Compiler::compile`] call returns: one
/// artifact per produced kind, the per-stage timing samples, and the
/// non-fatal warnings (flattened [`DiagRecord`]s — counted by the
/// service statistics and surfaced per request instead of dropped).
#[derive(Debug)]
pub struct CompileOutput<A> {
    /// One artifact per produced kind.
    pub artifacts: Vec<(ArtifactKind, A)>,
    /// Per-stage wall-clock samples.
    pub samples: Vec<StageSample>,
    /// Non-fatal warnings the compilation emitted.
    pub warnings: Vec<DiagRecord>,
}

impl<A> CompileOutput<A> {
    /// An output with no warnings.
    pub fn new(artifacts: Vec<(ArtifactKind, A)>, samples: Vec<StageSample>) -> CompileOutput<A> {
        CompileOutput {
            artifacts,
            samples,
            warnings: Vec::new(),
        }
    }

    /// Attaches warnings.
    #[must_use]
    pub fn with_warnings(mut self, warnings: Vec<DiagRecord>) -> CompileOutput<A> {
        self.warnings = warnings;
        self
    }
}

/// The compiler the service drives. Implementations must be callable
/// from many worker threads at once.
pub trait Compiler: Send + Sync + 'static {
    /// What a successful compilation produces (cached and shared).
    type Artifact: Send + Sync + 'static;
    /// The error type of a failed compilation.
    type Error: Send + std::fmt::Display + 'static;

    /// Compiles one request, producing one artifact per requested kind,
    /// and reports per-stage timings. `kinds` is non-empty and
    /// deduplicated; the service asks only for the kinds it could not
    /// serve from the cache, so implementations should compute exactly
    /// what the set needs (and no more — e.g. skip emission when
    /// [`ArtifactKind::CCode`] is absent).
    ///
    /// `cancel` is the request's [`CancelToken`]: long compilations may
    /// check it at internal boundaries (pass transitions, injected
    /// delays) and abort cooperatively when the deadline expires or the
    /// service drains. A compiler that ignores it stays correct, just
    /// not early-exiting: the service detects expiry itself after the
    /// call returns. Callers without a deadline pass
    /// [`CancelToken::unbounded`].
    ///
    /// # Errors
    ///
    /// Any compilation failure; the service maps it to
    /// [`ServiceError::Compile`] without disturbing other requests.
    fn compile(
        &self,
        req: &CompileRequest,
        kinds: &[ArtifactKind],
        cancel: &CancelToken,
    ) -> Result<CompileOutput<Self::Artifact>, Self::Error>;

    /// Flattens a compilation failure into the structured, coded
    /// [`FailureReport`] the service stores in
    /// [`ServiceError::Compile`] and counts per code in its statistics.
    /// The default produces one uncoded (`E0000`) record from the
    /// error's `Display`; real compilers override this with their
    /// diagnostics.
    fn failure_report(&self, req: &CompileRequest, err: &Self::Error) -> FailureReport {
        let _ = req;
        FailureReport::from_message(err.to_string())
    }

    /// The resident size the cache should account for an artifact, in
    /// bytes, for [`CacheConfig::max_bytes`] enforcement. The default
    /// (0) makes the byte cap count only the stored source text.
    fn artifact_bytes(artifact: &Self::Artifact) -> usize {
        let _ = artifact;
        0
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn emit_tokens_round_trip() {
        for token in [
            "c",
            "wcet:cc",
            "wcet:gcc",
            "wcet:gcci",
            "baseline-diff",
            "nlustre",
            "snlustre",
            "obc",
            "obc-fused",
            "report",
            "lint",
        ] {
            let kind: ArtifactKind = token.parse().unwrap();
            assert_eq!(kind.to_string(), token);
        }
        assert_eq!(
            "wcet".parse::<ArtifactKind>().unwrap(),
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert
            }
        );
        assert!("bogus".parse::<ArtifactKind>().is_err());
        assert!("wcet:bogus".parse::<ArtifactKind>().is_err());
        // The shared flag parser produces coded messages with
        // suggestions for near-misses.
        let err = "reprot".parse::<ArtifactKind>().unwrap_err();
        assert!(
            err.contains("[E0901]") && err.contains("did you mean `report`"),
            "{err}"
        );
    }

    #[test]
    fn kind_lists_dedupe_and_preserve_order() {
        let kinds = parse_artifact_kinds("wcet, c,wcet,obc").unwrap();
        assert_eq!(
            kinds,
            vec![
                ArtifactKind::Wcet {
                    model: WcetModelKind::CompCert
                },
                ArtifactKind::CCode,
                ArtifactKind::IrDump {
                    stage: IrStageKind::Obc
                },
            ]
        );
        assert!(parse_artifact_kinds("").is_err());
        assert!(parse_artifact_kinds("c,nope").is_err());
    }

    #[test]
    fn key_tags_are_distinct_across_kinds() {
        let kinds = [
            ArtifactKind::CCode,
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert,
            },
            ArtifactKind::Wcet {
                model: WcetModelKind::Gcc,
            },
            ArtifactKind::Wcet {
                model: WcetModelKind::GccInline,
            },
            ArtifactKind::BaselineDiff,
            ArtifactKind::IrDump {
                stage: IrStageKind::NLustre,
            },
            ArtifactKind::IrDump {
                stage: IrStageKind::SnLustre,
            },
            ArtifactKind::IrDump {
                stage: IrStageKind::Obc,
            },
            ArtifactKind::IrDump {
                stage: IrStageKind::ObcFused,
            },
            ArtifactKind::Report,
            ArtifactKind::Lint,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.key_tag(), b.key_tag(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn effective_kinds_defaults_to_c() {
        let empty = CompileOptions {
            io: IoMode::Volatile,
            kinds: Vec::new(),
        };
        assert_eq!(empty.effective_kinds(), vec![ArtifactKind::CCode]);
        let dup = CompileOptions::for_kinds(vec![ArtifactKind::CCode, ArtifactKind::CCode]);
        assert_eq!(dup.effective_kinds(), vec![ArtifactKind::CCode]);
    }
}
