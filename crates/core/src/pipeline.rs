//! The classic whole-pipeline driver API over the staged pipeline
//! ([`crate::passes`]).
//!
//! [`compile`] forces every pass of the [`StagedPipeline`] — elaborate,
//! check, schedule, translate, fuse, generate — and returns every
//! intermediate representation, exactly as the original hand-rolled
//! driver did. Callers that need only part of the pipeline (WCET
//! reports, IR dumps, the multi-artifact service) drive the
//! [`StagedPipeline`] directly and stop early.

use velus_common::{Diagnostics, IoMode, NodeId, SpanMap};
use velus_nlustre::ast::Program;
use velus_obc::ast::ObcProgram;
use velus_ops::ClightOps;

use crate::passes::StagedPipeline;
use crate::VelusError;

pub use crate::passes::{PassSink, StageObserver};

/// The result of a full compilation: every intermediate representation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Elaborated, normalized, *unscheduled* N-Lustre.
    pub nlustre: Program<ClightOps>,
    /// Scheduled SN-Lustre (the input of the translation proper).
    pub snlustre: Program<ClightOps>,
    /// Translated Obc, before fusion.
    pub obc: ObcProgram<ClightOps>,
    /// Obc after the fusion optimization.
    pub obc_fused: ObcProgram<ClightOps>,
    /// Generated Clight (with the simulation `main` for `root`).
    pub clight: velus_clight::ast::Program,
    /// The root node the program is compiled for.
    pub root: NodeId,
    /// Front-end warnings (e.g. the initialization lint).
    pub warnings: Diagnostics,
    /// Node/equation source spans (for rendering later failures, e.g.
    /// validation mismatches, against the source).
    pub spans: SpanMap,
}

/// Compiles Lustre source text down to Clight.
///
/// `root` selects the node to build the simulation entry point for; by
/// default the last node that no other node instantiates.
///
/// # Errors
///
/// Any front-end diagnostic, scheduling failure, or internal invariant
/// violation (each stage's output is re-checked).
pub fn compile(source: &str, root: Option<&str>) -> Result<Compiled, VelusError> {
    StagedPipeline::from_source(source, root, &mut |_, _| {})?.into_compiled()
}

/// Prints the generated Clight as a compilable C translation unit.
pub fn emit_c(compiled: &Compiled, io: IoMode) -> String {
    velus_clight::printer::print_program(&compiled.clight, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_common::Ident;

    const COUNTER: &str = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    #[test]
    fn full_pipeline_runs() {
        let c = compile(COUNTER, None).unwrap();
        assert_eq!(c.snlustre.nodes[c.root.index()].name, Ident::new("counter"));
        assert!(!c.clight.functions.is_empty());
        let code = emit_c(&c, IoMode::Volatile);
        assert!(code.contains("struct counter"), "{code}");
    }

    #[test]
    fn fusion_reduces_code_size() {
        // Multiple equations on the same sub-clock fuse into one guard.
        let src = "
            node f(k: bool; x: int) returns (o: int)
            var a, b: int when k;
            let
              a = (x + 1) when k;
              b = a * 2;
              o = merge k b ((0 fby o) when not k);
            tel
        ";
        let c = compile(src, None).unwrap();
        let size = |p: &ObcProgram<ClightOps>| {
            p.classes[0]
                .method(velus_obc::ast::step_name())
                .unwrap()
                .body
                .size()
        };
        assert!(size(&c.obc_fused) < size(&c.obc), "{}", c.obc_fused);
    }

    #[test]
    fn default_root_is_the_uncalled_sink() {
        let src = format!(
            "{COUNTER}
            node top(g: int) returns (p: int)
            let p = counter(0, g, false); tel"
        );
        let c = compile(&src, None).unwrap();
        assert_eq!(c.snlustre.nodes[c.root.index()].name, Ident::new("top"));
    }

    #[test]
    fn explicit_root_overrides() {
        let src = format!(
            "{COUNTER}
            node top(g: int) returns (p: int)
            let p = counter(0, g, false); tel"
        );
        let c = compile(&src, Some("counter")).unwrap();
        assert_eq!(c.snlustre.nodes[c.root.index()].name, Ident::new("counter"));
        assert!(compile(&src, Some("missing")).is_err());
    }

    #[test]
    fn timed_compilation_reports_stages_in_pipeline_order() {
        use velus_server::Stage;
        let mut stages: Vec<Stage> = Vec::new();
        let mut observe = |stage: Stage, _: std::time::Duration| stages.push(stage);
        StagedPipeline::from_source(COUNTER, None, &mut observe)
            .and_then(StagedPipeline::into_compiled)
            .unwrap();
        assert_eq!(
            stages,
            vec![
                Stage::Frontend,
                Stage::Check,
                Stage::Schedule,
                Stage::Translate,
                Stage::Fuse,
                Stage::Generate,
            ]
        );
    }
}
