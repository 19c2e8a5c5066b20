//! The Vélus instantiation of the batch compilation service
//! (`velus-server`): the staged pipeline behind a worker pool
//! and a content-addressed, per-artifact-kind cache.
//!
//! ```
//! use velus::service::{self, ServiceConfig};
//! use velus::CompileRequest;
//!
//! let svc = service::service(ServiceConfig { workers: 2, ..Default::default() });
//! let src = "node main(x: int) returns (y: int) let y = x + (0 fby y); tel";
//! let batch = svc.compile_batch(vec![CompileRequest::new("main", src)]);
//! let artifact = batch.items[0].primary().expect("compiles");
//! assert!(artifact.c_code().unwrap().contains("main__step"));
//!
//! // A warm request is a cache hit with byte-identical emitted C.
//! let warm = svc.compile_batch(vec![CompileRequest::new("main", src)]);
//! assert!(warm.items[0].cache_hit);
//! assert_eq!(
//!     warm.items[0].primary().unwrap().c_code(),
//!     artifact.c_code()
//! );
//! ```
//!
//! A request's [`CompileOptions::kinds`] selects which artifacts it
//! wants — C, WCET reports, baseline comparisons, IR dumps — and each
//! kind is cached independently: a `wcet`-only request never emits (or
//! re-caches) C, a mixed request runs the shared pipeline prefix once.

use velus_common::{FailureReport, SpanMap, ToDiagnostics};
use velus_obs::trace;
use velus_server::{ArtifactKind, CancelToken, CompileOutput, CompileRequest, Compiler};

use crate::artifacts::{produce, ServiceArtifact};
use crate::passes::{PassSink, StagedPipeline};
use crate::VelusError;

/// The pass-event sink of the service compiler: collects the per-stage
/// timing samples the service statistics are built from, and mirrors
/// each pass as a trace span (free when the worker thread has no active
/// trace scope — the span calls are single thread-local reads). It
/// ignores `check_start`: a pass is one span and one sample, its check
/// included.
#[derive(Default)]
struct ObsSink {
    samples: Vec<velus_server::StageSample>,
    open: Option<trace::SpanToken>,
}

impl ObsSink {
    fn close_span(&mut self) {
        if let Some(token) = self.open.take() {
            trace::exit(token);
        }
    }
}

impl PassSink for ObsSink {
    fn pass_start(&mut self, _stage: velus_server::Stage, name: &'static str) {
        self.open = Some(trace::enter(name));
    }

    fn pass_end(&mut self, stage: velus_server::Stage, dur: std::time::Duration) {
        self.close_span();
        self.samples.push(velus_server::StageSample {
            stage,
            nanos: dur.as_nanos() as u64,
        });
    }

    // A failed pass closes its span but records no timing sample:
    // failures have never contributed to the stage statistics.
    fn pass_fail(&mut self, _stage: velus_server::Stage, _name: &'static str) {
        self.close_span();
    }
}

/// The [`Compiler`] implementation backed by the paper's staged pass
/// pipeline with per-stage instrumentation. Only the stages a request's
/// artifact-kind set needs are run, and only the data each kind needs
/// is retained ([`ServiceArtifact`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineCompiler;

impl Compiler for PipelineCompiler {
    type Artifact = ServiceArtifact;
    type Error = VelusError;

    /// The staged pipeline with per-stage instrumentation. The token is
    /// checked at every pass boundary, so an expired deadline or a
    /// draining service stops the pipeline between passes and surfaces
    /// the coded condition (`E0802`/`E0805`) as a structured failure.
    fn compile(
        &self,
        req: &CompileRequest,
        kinds: &[ArtifactKind],
        cancel: &CancelToken,
    ) -> Result<CompileOutput<ServiceArtifact>, VelusError> {
        let mut sink = ObsSink::default();
        let mut staged = StagedPipeline::from_source_with(
            &req.source,
            req.root.as_deref(),
            &mut sink,
            Some(cancel),
        )?;
        let artifacts = produce(&mut staged, kinds, req.options.io, &req.source)?;
        // Warnings ride the output instead of being dropped: the service
        // counts them (per lint code) and the batch CLI prints them. When
        // the lint pass ran for this request its findings are a superset
        // of the front-end warnings (the initialization analysis is one
        // of the lint analyses), so they replace rather than duplicate
        // them.
        let warnings = staged
            .lint_cached()
            .unwrap_or_else(|| staged.warnings())
            .records(&req.source);
        // Freeing every IR of a big program is measurable work of its
        // own; the span keeps it out of `compile`'s self time.
        let teardown = trace::enter("teardown");
        drop(staged);
        trace::exit(teardown);
        Ok(CompileOutput::new(artifacts, sink.samples).with_warnings(warnings))
    }

    /// Failures leave the staged pipeline already structured
    /// ([`VelusError::Diag`], coded and stage-tagged with spans
    /// resolved); flattening against the request source yields the
    /// service's [`FailureReport`].
    fn failure_report(&self, req: &CompileRequest, err: &VelusError) -> FailureReport {
        FailureReport::from_diagnostics(&err.to_diagnostics(&SpanMap::new()), &req.source)
    }

    /// The byte cap weighs each kind by what it actually retains: the C
    /// text's length, a structural estimate of a retained IR, a small
    /// constant for reports. A dump-heavy artifact is no longer
    /// under-weighted relative to the printed C.
    fn artifact_bytes(artifact: &ServiceArtifact) -> usize {
        artifact.estimated_bytes()
    }
}

/// The concrete service type for the Vélus pipeline.
pub type VelusService = CompileService<PipelineCompiler>;

use velus_server::CompileService;

/// Builds a [`VelusService`] with the given configuration.
pub fn service(config: ServiceConfig) -> VelusService {
    CompileService::new(PipelineCompiler, config)
}

// Re-exported so `velus::service::{ServiceConfig, …}` is self-contained.
pub use crate::artifacts::{
    BaselineDiffArtifact, BaselineRow, IrSnapshot, LintArtifact, WcetArtifact,
};
pub use velus_server::{
    ArtifactReport, BatchReport, CompileOptions, CompileRequest as Request, RequestReport,
    ServiceConfig, ServiceError, StageLatency, StatsSnapshot,
};

#[cfg(test)]
mod tests {
    use super::*;
    use velus_server::{IrStageKind, ServiceConfig, Stage, WcetModelKind};

    const COUNTER: &str = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    #[test]
    fn pipeline_compiler_reports_every_stage_for_c() {
        let output = PipelineCompiler
            .compile(
                &CompileRequest::new("counter", COUNTER),
                &[ArtifactKind::CCode],
                &CancelToken::unbounded(),
            )
            .unwrap();
        let reported: Vec<Stage> = output.samples.iter().map(|s| s.stage).collect();
        // Every main-chain stage runs for C; the off-chain analysis
        // stage does not (no lint artifact was requested).
        let main_chain: Vec<Stage> = Stage::ALL
            .into_iter()
            .filter(|s| *s != Stage::Analysis)
            .collect();
        assert_eq!(reported, main_chain);
        let c_code = output.artifacts[0].1.c_code().unwrap();
        assert!(c_code.contains("counter__step"), "{c_code}");
    }

    #[test]
    fn lint_requests_run_the_analysis_stage_and_surface_findings() {
        // `pre x` reaches the output: the initialization lint fires.
        let src = "node f(x: int) returns (y: int) let y = pre x; tel";
        let output = PipelineCompiler
            .compile(
                &CompileRequest::new("f", src),
                &[ArtifactKind::Lint],
                &CancelToken::unbounded(),
            )
            .unwrap();
        assert!(
            output.samples.iter().any(|s| s.stage == Stage::Analysis),
            "{:?}",
            output.samples
        );
        // Emission never ran: lint stops at the scheduled program.
        assert!(output.samples.iter().all(|s| s.stage != Stage::Emit));
        // The artifact renders valid JSON carrying the finding…
        let rendered = output.artifacts[0].1.render();
        assert!(rendered.contains("\"code\":\"W0101\""), "{rendered}");
        // …and the output warnings carry the full lint findings, which
        // is what the service's per-code counters are fed from.
        assert!(output.warnings.iter().any(|w| w.code == "W0101"));
    }

    #[test]
    fn wcet_only_compilation_skips_emission() {
        let output = PipelineCompiler
            .compile(
                &CompileRequest::new("counter", COUNTER),
                &[ArtifactKind::Wcet {
                    model: WcetModelKind::CompCert,
                }],
                &CancelToken::unbounded(),
            )
            .unwrap();
        assert!(output.samples.iter().all(|s| s.stage != Stage::Emit));
        assert!(output.artifacts[0].1.c_code().is_none());
    }

    #[test]
    fn io_mode_is_part_of_the_artifact() {
        let svc = service(ServiceConfig {
            workers: 1,
            caching: true,
            ..Default::default()
        });
        let volatile = svc.compile_one(CompileRequest::new("c", COUNTER));
        let stdio = svc.compile_one(
            CompileRequest::new("c", COUNTER)
                .with_options(CompileOptions::default().with_io(velus_server::IoMode::Stdio)),
        );
        // Different options → different cache entries and different code.
        assert!(!stdio.cache_hit);
        assert_ne!(
            volatile.primary().unwrap().c_code().unwrap(),
            stdio.primary().unwrap().c_code().unwrap()
        );
        assert_eq!(svc.cache_len(), 2);
    }

    #[test]
    fn compile_errors_surface_per_request() {
        let svc = service(ServiceConfig {
            workers: 2,
            caching: true,
            ..Default::default()
        });
        let batch = svc.compile_batch(vec![
            CompileRequest::new("ok", COUNTER),
            CompileRequest::new("bad", "node f() returns (y: int) let y = ; tel"),
        ]);
        assert_eq!(batch.ok_count(), 1);
        assert!(batch.items[1].result.is_err());
    }

    #[test]
    fn artifact_bytes_weighs_retained_irs() {
        let req = CompileRequest::new("counter", COUNTER);
        let kinds = [
            ArtifactKind::CCode,
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert,
            },
            ArtifactKind::IrDump {
                stage: IrStageKind::ObcFused,
            },
        ];
        let artifacts = PipelineCompiler
            .compile(&req, &kinds, &CancelToken::unbounded())
            .unwrap()
            .artifacts;
        let bytes_of = |kind: &ArtifactKind| {
            artifacts
                .iter()
                .find(|(k, _)| k == kind)
                .map(|(_, a)| PipelineCompiler::artifact_bytes(a))
                .unwrap()
        };
        // The dump retains a whole IR: it must weigh much more than the
        // few-words WCET report, even for this tiny program.
        assert!(
            bytes_of(&kinds[2]) > 5 * bytes_of(&kinds[1]),
            "{artifacts:?}"
        );
        // And the C artifact weighs its text.
        assert_eq!(
            bytes_of(&kinds[0]),
            artifacts
                .iter()
                .find(|(k, _)| *k == ArtifactKind::CCode)
                .unwrap()
                .1
                .c_code()
                .unwrap()
                .len()
        );
    }
}
