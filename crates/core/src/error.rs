//! The unified error type of the compiler driver.

use std::fmt;

use velus_common::{codes, DiagStage, Diagnostic, Diagnostics, Span, SpanMap, ToDiagnostics};
use velus_nlustre::SemError;
use velus_obc::ObcError;

/// Any failure of the pipeline or of translation validation.
///
/// Every variant converts to coded, stage-tagged, span-carrying
/// [`Diagnostics`] through [`ToDiagnostics`]; the staged pipeline
/// performs that conversion at the stage boundary (so errors escaping
/// the [`StagedPipeline`](crate::StagedPipeline) are already
/// [`VelusError::Diag`] with resolved spans), and the raw layer
/// variants remain for callers that drive the layers directly.
#[derive(Debug)]
pub enum VelusError {
    /// Front-end failures (syntax, typing, clocking) with positions.
    Front(Diagnostics),
    /// Dataflow-level failures (scheduling, semantics).
    Sem(SemError),
    /// Obc-level failures.
    Obc(ObcError),
    /// Clight-level failures.
    Clight(velus_clight::ClightError),
    /// A translation-validation mismatch: the stages disagree.
    Validation(String),
    /// I/O or usage errors from the CLI.
    Usage(String),
    /// A failure already resolved to structured diagnostics (stable
    /// code, originating stage, source span) — what the staged pipeline
    /// returns for every mid-end failure.
    Diag(Diagnostics),
}

impl VelusError {
    /// Resolves the error into structured diagnostics at `stage`: layer
    /// errors convert through their [`ToDiagnostics`] impls with spans
    /// looked up in `spans`, and diagnostics whose producers did not
    /// know their stage are tagged with `stage`.
    #[must_use]
    pub fn into_structured(self, spans: &SpanMap, stage: DiagStage) -> VelusError {
        let mut diags = self.to_diagnostics(spans);
        diags.tag_stage(stage);
        diags.sort_dedup();
        VelusError::Diag(diags)
    }

    /// The structured diagnostics of the error (see [`ToDiagnostics`]).
    pub fn diagnostics(&self, spans: &SpanMap) -> Diagnostics {
        self.to_diagnostics(spans)
    }
}

impl ToDiagnostics for VelusError {
    fn to_diagnostics(&self, spans: &SpanMap) -> Diagnostics {
        match self {
            VelusError::Front(d) | VelusError::Diag(d) => d.clone(),
            VelusError::Sem(e) => e.to_diagnostics(spans),
            VelusError::Obc(e) => e.to_diagnostics(spans),
            VelusError::Clight(e) => e.to_diagnostics(spans),
            // Validation failures leave the stage open: the pipeline's
            // runner tags re-check failures with their stage, and the
            // standalone validation harness tags `Validate`.
            VelusError::Validation(m) => Diagnostics::from(Diagnostic::error(
                codes::E0701,
                format!("validation failed: {m}"),
                Span::DUMMY,
            )),
            VelusError::Usage(m) => Diagnostics::from(
                Diagnostic::error(codes::E0904, m.clone(), Span::DUMMY).at_stage(DiagStage::Driver),
            ),
        }
    }
}

impl fmt::Display for VelusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VelusError::Front(d) | VelusError::Diag(d) => write!(f, "{d}"),
            VelusError::Sem(e) => write!(f, "{e}"),
            VelusError::Obc(e) => write!(f, "{e}"),
            VelusError::Clight(e) => write!(f, "{e}"),
            VelusError::Validation(m) => write!(f, "validation failed: {m}"),
            VelusError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for VelusError {}

impl From<Diagnostics> for VelusError {
    fn from(d: Diagnostics) -> VelusError {
        VelusError::Front(d)
    }
}

impl From<SemError> for VelusError {
    fn from(e: SemError) -> VelusError {
        VelusError::Sem(e)
    }
}

impl From<ObcError> for VelusError {
    fn from(e: ObcError) -> VelusError {
        VelusError::Obc(e)
    }
}

impl From<velus_clight::ClightError> for VelusError {
    fn from(e: velus_clight::ClightError) -> VelusError {
        VelusError::Clight(e)
    }
}
