//! Multi-backend artifacts over the staged pipeline.
//!
//! One compilation can serve several backends: the printed C, a WCET
//! report (per back-end cost model, as in Fig. 12), a comparison
//! against the paper's baseline compilation schemes, and pretty-printed
//! IR dumps. [`produce`] maps a requested [`ArtifactKind`] set onto a
//! [`StagedPipeline`], forcing **only the stages the set needs**: a
//! WCET-only request stops after Clight generation (emission never
//! runs), an N-Lustre dump stops after the front-end checks.
//!
//! Each artifact records its own resident footprint
//! ([`ServiceArtifact::estimated_bytes`]) so the service's cache byte
//! cap weighs every artifact by what it keeps — an IR dump keeps its
//! rendered text, and is weighed by that text's length.

use velus_baselines::BaselineScheme;
use velus_common::{
    codes, json_escape, DiagRecord, DiagStage, Diagnostic, Diagnostics, IoMode, Span,
};
use velus_ops::ClightOps;
use velus_server::{ArtifactKind, IrStageKind, WcetModelKind};
use velus_wcet::CostModel;

use crate::passes::StagedPipeline;
use crate::VelusError;

/// Maps the serving layer's opaque model tag to the analyzer's model.
pub fn cost_model(kind: WcetModelKind) -> CostModel {
    match kind {
        WcetModelKind::CompCert => CostModel::CompCert,
        WcetModelKind::Gcc => CostModel::Gcc,
        WcetModelKind::GccInline => CostModel::GccInline,
    }
}

/// A WCET report for the root's `step` function under one cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetArtifact {
    /// The model the estimate was computed under.
    pub model: WcetModelKind,
    /// The root node whose `step` was analyzed.
    pub root: String,
    /// The estimated worst-case cycles.
    pub cycles: u64,
}

impl WcetArtifact {
    /// Renders the report in the `velus wcet` CLI format.
    pub fn render(&self) -> String {
        format!(
            "{} step: {} cycles ({})\n",
            self.root,
            self.cycles,
            self.model.name()
        )
    }
}

/// One row of a baseline comparison: a compilation scheme's Obc size
/// and step-WCET under the three back-end models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRow {
    /// Scheme name (`velus`, `heptagon`, `lustre-v6`).
    pub scheme: &'static str,
    /// Total Obc statement count across all class methods.
    pub obc_size: usize,
    /// Step WCET cycles under `[cc, gcc, gcci]`.
    pub wcet: [u64; 3],
}

/// A comparison of the validated pipeline against the paper's baseline
/// schemes (Fig. 12's mechanism, served as an artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDiffArtifact {
    /// The root node compared.
    pub root: String,
    /// Rows: Vélus first, then each [`BaselineScheme`].
    pub rows: Vec<BaselineRow>,
}

impl BaselineDiffArtifact {
    /// Renders the comparison as an aligned table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "baseline comparison for root `{}` (step WCET in cycles):\n{:<12} {:>9} {:>8} {:>8} {:>8}\n",
            self.root, "scheme", "obc-size", "cc", "gcc", "gcci"
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>9} {:>8} {:>8} {:>8}\n",
                row.scheme, row.obc_size, row.wcet[0], row.wcet[1], row.wcet[2]
            ));
        }
        out
    }
}

/// The per-program validation/diagnostics report (the ROADMAP's
/// "validation reports" artifact kind): which pipeline stages ran *and
/// re-validated* for this program, its shape, and the front-end
/// warnings with their stable codes. Renders as a JSON object — the
/// machine-readable companion of the compiled artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportArtifact {
    /// The root node the program was compiled for.
    pub root: String,
    /// Number of nodes in the elaborated program.
    pub nodes: usize,
    /// Number of normalized equations.
    pub equations: usize,
    /// The pass names that ran and re-validated, in pipeline order.
    pub stages: Vec<&'static str>,
    /// Front-end warnings, flattened (code, stage, position resolved).
    pub warnings: Vec<DiagRecord>,
}

impl ReportArtifact {
    /// Renders the report as a JSON object (hand-rolled, serde-free;
    /// same dialect as `Diagnostics::render_json`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"report\":{{\"root\":\"{}\",\"nodes\":{},\"equations\":{},\"validated_stages\":[",
            json_escape(&self.root),
            self.nodes,
            self.equations
        );
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{stage}\""));
        }
        out.push_str("],\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.render_json_into(&mut out);
        }
        out.push_str("]}}");
        out
    }
}

/// The static-analysis lint report: every finding of the
/// `velus-analysis` pass over the scheduled program, with both
/// renderings prebuilt (the source is gone by serving time, and caret
/// rendering needs it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintArtifact {
    /// The findings, flattened (code, severity, stage, position).
    pub findings: Vec<DiagRecord>,
    /// The caret rendering against the request source (what `velus
    /// lint` prints for humans). Empty when there are no findings.
    human: String,
    /// The diagnostics JSON rendering.
    json: String,
}

impl LintArtifact {
    /// Whether any finding is an error-severity one (a guaranteed
    /// trap): `velus lint` exits nonzero exactly on these.
    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == velus_common::Severity::Error)
    }

    /// The caret rendering (empty when the program is lint-clean).
    pub fn render_human(&self) -> &str {
        &self.human
    }

    /// Renders the findings as one diagnostics JSON object, the schema
    /// of every `--error-format json` rendering — deterministic, so warm
    /// cache passes compare byte-identical.
    pub fn render(&self) -> String {
        self.json.clone()
    }
}

/// A rendered intermediate representation: the `velus dump` text of one
/// pipeline stage, rendered once when the artifact is produced, so
/// serving it formats nothing and the cache weighs exactly what it keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrSnapshot {
    stage: IrStageKind,
    text: String,
}

impl IrSnapshot {
    /// Which pipeline stage the snapshot is of.
    pub fn stage(&self) -> IrStageKind {
        self.stage
    }
}

/// One cached, served artifact — exactly what its kind needs, nothing
/// more. A `Wcet` entry holds a few words; `IrDump` keeps an IR's
/// rendering and `CCode` the printed C.
#[derive(Debug, Clone)]
pub enum ServiceArtifact {
    /// The printed C translation unit.
    CCode {
        /// The C source text (per the request's `IoMode`).
        c_code: String,
    },
    /// A WCET report.
    Wcet(WcetArtifact),
    /// A baseline-scheme comparison.
    BaselineDiff(BaselineDiffArtifact),
    /// A rendered intermediate representation.
    IrDump(IrSnapshot),
    /// A validation/diagnostics report.
    Report(ReportArtifact),
    /// The static-analysis lint report.
    Lint(LintArtifact),
}

impl ServiceArtifact {
    /// The kind this artifact serves.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            ServiceArtifact::CCode { .. } => ArtifactKind::CCode,
            ServiceArtifact::Wcet(w) => ArtifactKind::Wcet { model: w.model },
            ServiceArtifact::BaselineDiff(_) => ArtifactKind::BaselineDiff,
            ServiceArtifact::IrDump(ir) => ArtifactKind::IrDump { stage: ir.stage() },
            ServiceArtifact::Report(_) => ArtifactKind::Report,
            ServiceArtifact::Lint(_) => ArtifactKind::Lint,
        }
    }

    /// The C text, if this is a C artifact.
    pub fn c_code(&self) -> Option<&str> {
        match self {
            ServiceArtifact::CCode { c_code } => Some(c_code),
            _ => None,
        }
    }

    /// Renders the artifact as text (the C itself, a report, a table,
    /// or a pretty-printed IR). Deterministic: equal artifacts render
    /// byte-identically, which is what `velus batch` warm-pass
    /// verification compares.
    pub fn render(&self) -> String {
        match self {
            ServiceArtifact::CCode { c_code } => c_code.clone(),
            ServiceArtifact::Wcet(w) => w.render(),
            ServiceArtifact::BaselineDiff(d) => d.render(),
            ServiceArtifact::IrDump(ir) => ir.text.clone(),
            ServiceArtifact::Report(r) => r.render(),
            ServiceArtifact::Lint(l) => l.render(),
        }
    }

    /// The artifact's resident footprint in bytes, for cache byte-cap
    /// accounting: the C or dump text's length, and a small constant
    /// plus the message lengths for reports.
    pub fn estimated_bytes(&self) -> usize {
        match self {
            ServiceArtifact::CCode { c_code } => c_code.len(),
            ServiceArtifact::Wcet(w) => std::mem::size_of::<WcetArtifact>() + w.root.len(),
            ServiceArtifact::BaselineDiff(d) => {
                std::mem::size_of::<BaselineDiffArtifact>()
                    + d.root.len()
                    + d.rows.len() * std::mem::size_of::<BaselineRow>()
            }
            ServiceArtifact::IrDump(ir) => ir.text.len(),
            ServiceArtifact::Report(r) => {
                std::mem::size_of::<ReportArtifact>()
                    + r.root.len()
                    + r.warnings
                        .iter()
                        .map(|w| std::mem::size_of::<DiagRecord>() + w.message.len())
                        .sum::<usize>()
            }
            ServiceArtifact::Lint(l) => {
                std::mem::size_of::<LintArtifact>()
                    + l.human.len()
                    + l.json.len()
                    + l.findings
                        .iter()
                        .map(|f| std::mem::size_of::<DiagRecord>() + f.message.len())
                        .sum::<usize>()
            }
        }
    }
}

/// A coded analysis failure ([`codes::E0703`]) anchored at the root
/// node's header span (a copied [`Span`], not the whole map — the
/// success path must not pay for cloning the `SpanMap`).
fn analysis_err(root_span: Span, msg: String) -> VelusError {
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(codes::E0703, msg, root_span).at_stage(DiagStage::Analysis),
    ))
}

fn wcet_of(
    clight: &velus_clight::ast::Program,
    root: velus_common::NodeId,
    model: CostModel,
    root_span: Span,
) -> Result<u64, VelusError> {
    velus_wcet::wcet_step(clight, root, model).map_err(|e| analysis_err(root_span, e.to_string()))
}

fn baseline_diff(staged: &mut StagedPipeline<'_>) -> Result<BaselineDiffArtifact, VelusError> {
    let root = staged.root();
    let root_name = staged.snlustre()?.nodes[root.index()].name;
    // The Vélus row measures the validated pipeline's own output.
    let velus_obc_size: usize = staged
        .obc_fused()?
        .classes
        .iter()
        .flat_map(|c| &c.methods)
        .map(|m| m.body.size())
        .sum();
    let root_span = staged.spans().node_span(root_name);
    let clight = staged.clight()?;
    let mut velus_wcet = [0u64; 3];
    for (k, model) in CostModel::ALL.into_iter().enumerate() {
        velus_wcet[k] = wcet_of(clight, root, model, root_span)?;
    }
    let mut rows = vec![BaselineRow {
        scheme: "velus",
        obc_size: velus_obc_size,
        wcet: velus_wcet,
    }];
    for scheme in BaselineScheme::ALL {
        let obc = scheme
            .compile::<ClightOps>(staged.nlustre())
            .map_err(|e| analysis_err(root_span, e.to_string()))?;
        let obc_size = obc
            .classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.body.size())
            .sum();
        // A scheme whose Obc fails Clight generation is an analysis
        // failure like its siblings above — structured, never a bare
        // stage-less `Clight` variant.
        let class = velus_baselines::root_class(&obc, staged.nlustre(), root);
        let clight = velus_clight::generate::generate(&obc, class)
            .map_err(|e| analysis_err(root_span, e.to_string()))?;
        let mut wcet = [0u64; 3];
        for (k, model) in CostModel::ALL.into_iter().enumerate() {
            wcet[k] = wcet_of(&clight, class, model, root_span)?;
        }
        rows.push(BaselineRow {
            scheme: scheme.name(),
            obc_size,
            wcet,
        });
    }
    Ok(BaselineDiffArtifact {
        root: root_name.to_string(),
        rows,
    })
}

/// Produces one artifact per requested kind from a staged pipeline,
/// forcing only the stages the kind set needs. Kinds are produced in
/// the given order; duplicates yield duplicate artifacts (the service
/// deduplicates the kind set before calling). `source` is the request's
/// source text, used to resolve warning positions for
/// [`ArtifactKind::Report`].
///
/// # Errors
///
/// Any forced-stage failure, WCET analysis error, or baseline scheme
/// failure.
pub fn produce(
    staged: &mut StagedPipeline<'_>,
    kinds: &[ArtifactKind],
    io: IoMode,
    source: &str,
) -> Result<Vec<(ArtifactKind, ServiceArtifact)>, VelusError> {
    let mut artifacts = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let artifact = match kind {
            ArtifactKind::CCode => {
                let mut c_code = staged.emit(io)?;
                // The printer reserves generously up front; an artifact
                // may live in the cache, which weighs it by its length,
                // so it keeps only its text (shrinking in place).
                c_code.shrink_to_fit();
                ServiceArtifact::CCode { c_code }
            }
            ArtifactKind::Wcet { model } => {
                let root = staged.root();
                let root_name = staged.snlustre()?.nodes[root.index()].name;
                let root_span = staged.spans().node_span(root_name);
                let cycles = wcet_of(staged.clight()?, root, cost_model(*model), root_span)?;
                ServiceArtifact::Wcet(WcetArtifact {
                    model: *model,
                    root: root_name.to_string(),
                    cycles,
                })
            }
            ArtifactKind::BaselineDiff => ServiceArtifact::BaselineDiff(baseline_diff(staged)?),
            ArtifactKind::IrDump { stage } => ServiceArtifact::IrDump(IrSnapshot {
                stage: *stage,
                text: match stage {
                    IrStageKind::NLustre => staged.nlustre().to_string(),
                    IrStageKind::SnLustre => staged.snlustre()?.to_string(),
                    IrStageKind::Obc => staged.obc()?.to_string(),
                    IrStageKind::ObcFused => staged.obc_fused()?.to_string(),
                },
            }),
            ArtifactKind::Report => ServiceArtifact::Report(report(staged, source)?),
            ArtifactKind::Lint => ServiceArtifact::Lint(lint(staged, source)?),
        };
        artifacts.push((*kind, artifact));
    }
    Ok(artifacts)
}

/// Builds the lint artifact: forces the analysis pass (scheduling
/// included) and prerenders both the caret and JSON forms against the
/// request source, so the cached artifact serves either without the
/// source.
fn lint(staged: &mut StagedPipeline<'_>, source: &str) -> Result<LintArtifact, VelusError> {
    let findings = staged.lint()?;
    Ok(LintArtifact {
        findings: findings.records(source),
        human: findings.render_human(source),
        json: findings.render_json(source),
    })
}

/// Builds the validation report: forces the pipeline through Clight
/// generation — every validated stage runs and re-checks — then records
/// the program's shape and the coded warnings.
fn report(staged: &mut StagedPipeline<'_>, source: &str) -> Result<ReportArtifact, VelusError> {
    staged.clight()?;
    let root = staged.root();
    let snlustre = staged.snlustre()?;
    let (nodes, equations) = (snlustre.nodes.len(), snlustre.equation_count());
    let root = snlustre.nodes[root.index()].name.to_string();
    // Everything up to (not including) emission ran and re-validated.
    let stages = crate::passes::PASS_ORDER[..crate::passes::PASS_ORDER.len() - 1].to_vec();
    let warnings = staged.warnings().records(source);
    Ok(ReportArtifact {
        root,
        nodes,
        equations,
        stages,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    fn staged_for(observe: crate::passes::StageObserver<'_>) -> StagedPipeline<'_> {
        StagedPipeline::from_source(COUNTER, None, observe).unwrap()
    }

    #[test]
    fn wcet_only_requests_never_run_emission_or_retain_c() {
        let mut stages = Vec::new();
        let mut observe = |stage: velus_server::Stage, _: std::time::Duration| stages.push(stage);
        let mut staged = staged_for(&mut observe);
        let kinds = [ArtifactKind::Wcet {
            model: WcetModelKind::CompCert,
        }];
        let artifacts = produce(&mut staged, &kinds, IoMode::Volatile, COUNTER).unwrap();
        drop(staged);
        assert_eq!(artifacts.len(), 1);
        let artifact = &artifacts[0].1;
        assert!(artifact.c_code().is_none(), "no C was materialized");
        assert!(matches!(artifact, ServiceArtifact::Wcet(w) if w.cycles > 0));
        assert!(
            !stages.contains(&velus_server::Stage::Emit),
            "emission must not run for a WCET-only request: {stages:?}"
        );
        // The report renders like the `velus wcet` CLI line.
        assert!(artifact.render().contains("cycles (cc)"));
    }

    #[test]
    fn nlustre_dump_stops_after_the_front_half() {
        let mut stages = Vec::new();
        let mut observe = |stage: velus_server::Stage, _: std::time::Duration| stages.push(stage);
        let mut staged = staged_for(&mut observe);
        let kinds = [ArtifactKind::IrDump {
            stage: IrStageKind::NLustre,
        }];
        let artifacts = produce(&mut staged, &kinds, IoMode::Volatile, COUNTER).unwrap();
        drop(staged);
        assert_eq!(
            stages,
            vec![velus_server::Stage::Frontend, velus_server::Stage::Check]
        );
        let rendered = artifacts[0].1.render();
        assert!(rendered.contains("node counter"), "{rendered}");
        // The dump keeps its rendering, and is weighed by it.
        assert_eq!(artifacts[0].1.estimated_bytes(), rendered.len());
    }

    #[test]
    fn baseline_diff_reproduces_the_figure12_relationships() {
        let mut observe = |_: velus_server::Stage, _: std::time::Duration| {};
        let mut staged = staged_for(&mut observe);
        let diff = baseline_diff(&mut staged).unwrap();
        assert_eq!(diff.rows.len(), 3);
        assert_eq!(diff.rows[0].scheme, "velus");
        let velus_cc = diff.rows[0].wcet[0];
        let lus6 = diff.rows.iter().find(|r| r.scheme == "lustre-v6").unwrap();
        // Lustre v6 without inlining is slower than Vélus; inlining
        // narrows the gap (the paper's headline mechanism).
        assert!(lus6.wcet[0] > velus_cc, "{diff:?}");
        assert!(lus6.wcet[2] < lus6.wcet[0], "{diff:?}");
        let rendered = diff.render();
        assert!(rendered.contains("heptagon"), "{rendered}");
    }

    #[test]
    fn report_artifact_runs_all_validated_stages_and_renders_json() {
        let mut stages = Vec::new();
        let mut observe = |stage: velus_server::Stage, _: std::time::Duration| stages.push(stage);
        let mut staged = staged_for(&mut observe);
        let artifacts = produce(
            &mut staged,
            &[ArtifactKind::Report],
            IoMode::Volatile,
            COUNTER,
        )
        .unwrap();
        drop(staged);
        // The report forces every validated stage but never emission.
        assert!(stages.contains(&velus_server::Stage::Generate));
        assert!(!stages.contains(&velus_server::Stage::Emit), "{stages:?}");
        let rendered = artifacts[0].1.render();
        assert!(rendered.contains("\"root\":\"counter\""), "{rendered}");
        assert!(
            rendered.contains("\"validated_stages\":[\"elaborate\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"warnings\":[]"), "{rendered}");
    }

    #[test]
    fn report_carries_coded_warnings() {
        let src = "node f(x: int) returns (y: int) let y = pre x; tel";
        let mut observe = |_: velus_server::Stage, _: std::time::Duration| {};
        let mut staged = StagedPipeline::from_source(src, None, &mut observe).unwrap();
        let artifacts =
            produce(&mut staged, &[ArtifactKind::Report], IoMode::Volatile, src).unwrap();
        drop(staged);
        let rendered = artifacts[0].1.render();
        assert!(rendered.contains("\"code\":\"W0101\""), "{rendered}");
        assert!(rendered.contains("\"line\":1"), "{rendered}");
    }

    #[test]
    fn ir_estimates_scale_with_program_size() {
        let big_src = format!(
            "{COUNTER}
             node second(a: int) returns (b: int)
             var t: int;
             let t = a * 2; b = t + (0 fby b); tel"
        );
        let kinds = [ArtifactKind::IrDump {
            stage: IrStageKind::NLustre,
        }];
        let weight = |src: &str| {
            let mut observe = |_: velus_server::Stage, _: std::time::Duration| {};
            let mut staged = StagedPipeline::from_source(src, None, &mut observe).unwrap();
            let artifacts = produce(&mut staged, &kinds, IoMode::Volatile, src).unwrap();
            artifacts[0].1.estimated_bytes()
        };
        assert!(weight(&big_src) > weight(COUNTER));
    }
}
