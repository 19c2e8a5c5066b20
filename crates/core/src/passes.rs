//! The staged pass framework: the paper's compiler as a composition of
//! named, typed passes.
//!
//! The paper presents the compiler as a chain of proved passes
//! (elaborate → schedule → translate → fuse → generate); this module
//! makes that composition first-class instead of a hand-rolled driver
//! body. Each pass is a [`Pass`] implementation with
//!
//! * a **typed input and output** (the IRs flow through the type system,
//!   so passes cannot be composed out of order),
//! * a **re-validation hook** ([`Pass::revalidate`]) — the paper proves
//!   each pass's postcondition once; this reproduction re-checks it
//!   after every run, and the hook is where that check lives,
//! * **observation built in**: the [`PassManager`] wraps every run and
//!   reports start/end/fail events to a [`PassSink`] (borrowed as a
//!   [`StageObserver`]), which is what the compilation service's
//!   per-stage statistics *and* its per-pass trace spans are built
//!   from — one hook, two consumers.
//!
//! [`StagedPipeline`] composes the passes **on demand**: each IR is
//! computed (and re-validated) the first time something asks for it and
//! memoized afterwards, so a request that only needs the front half of
//! the pipeline — a WCET report, an N-Lustre dump — never pays for the
//! back half. [`crate::compile`] is
//! `StagedPipeline::from_source(..)?.into_compiled()`: it forces every
//! stage.

use std::cell::OnceCell;
use std::time::Instant;

use velus_common::{
    codes, DiagStage, Diagnostic, Diagnostics, Ident, IoMode, NodeId, Span, SpanMap,
};
use velus_nlustre::ast::Program;
use velus_nlustre::{clockcheck, typecheck};
use velus_obc::ast::ObcProgram;
use velus_obc::fusion::{fuse_program, fusible};
use velus_ops::ClightOps;
use velus_server::{CancelReason, CancelToken, Stage};

use crate::VelusError;

/// The event sink of the pass framework: stage timing *and* tracing
/// observe pass execution through this one hook.
///
/// [`PassManager`] calls [`pass_start`](PassSink::pass_start) before a
/// pass body runs, then exactly one of [`pass_end`](PassSink::pass_end)
/// (success, with the wall-clock duration covering the pass body *and*
/// its re-validation hook — validation is part of the pass, not an
/// optional extra) or [`pass_fail`](PassSink::pass_fail) (so a tracing
/// sink can close the pass's span without recording a timing sample;
/// failed passes have never contributed to the stage statistics).
///
/// Every `FnMut(Stage, Duration)` closure is a `PassSink` that only
/// listens to `pass_end` — the historical timing-observer shape — so
/// `&mut closure` still coerces to a [`StageObserver`].
pub trait PassSink {
    /// The named pass is about to run.
    fn pass_start(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }

    /// The pass and its re-validation succeeded, taking `dur`.
    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        let _ = (stage, dur);
    }

    /// The pass (or its re-validation) failed.
    fn pass_fail(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }
}

impl<F: FnMut(Stage, std::time::Duration)> PassSink for F {
    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        self(stage, dur)
    }
}

/// A borrowed pass-event sink, threaded through the pipeline
/// constructors. Plain timing closures coerce here unchanged; richer
/// sinks (the service's tracing + stats sink) implement [`PassSink`]
/// directly.
pub type StageObserver<'a> = &'a mut dyn PassSink;

/// The diagnostic stage a statistics [`Stage`] maps to, for the stage
/// tag the pass manager stamps on every failure.
pub fn diag_stage(stage: Stage) -> DiagStage {
    match stage {
        Stage::Frontend => DiagStage::Elaborate,
        Stage::Check => DiagStage::Check,
        Stage::Schedule => DiagStage::Schedule,
        Stage::Translate => DiagStage::Translate,
        Stage::Fuse => DiagStage::Fuse,
        Stage::Generate => DiagStage::Generate,
        Stage::Emit => DiagStage::Emit,
        Stage::Analysis => DiagStage::Analysis,
    }
}

/// One named, typed compiler pass.
///
/// The lifetime parameter lets a pass borrow its input (e.g.
/// translation reads the scheduled program without consuming it).
pub trait Pass<'a> {
    /// What the pass consumes.
    type Input: 'a;
    /// What the pass produces.
    type Output;

    /// The statistics stage this pass reports under.
    const STAGE: Stage;
    /// A short stable name (used in diagnostics and docs).
    const NAME: &'static str;

    /// Runs the transformation.
    ///
    /// # Errors
    ///
    /// Any failure of the pass itself (the untrusted half).
    fn run(&self, input: Self::Input) -> Result<Self::Output, VelusError>;

    /// Re-checks the pass's postcondition on its output (the validated
    /// half — the paper's proof obligation, executed). The default is a
    /// no-op for passes whose output needs no separate check.
    ///
    /// # Errors
    ///
    /// A violated postcondition, reported as a validation failure.
    fn revalidate(&self, output: &Self::Output) -> Result<(), VelusError> {
        let _ = output;
        Ok(())
    }
}

/// The coded form of a cancelled compilation: the serving layer's
/// deadline (`E0802`) or drain (`E0805`) condition, stamped as a driver
/// diagnostic so it flows through the same structured failure path as
/// any compile error.
fn cancelled(reason: CancelReason) -> VelusError {
    let (code, msg) = match reason {
        CancelReason::Deadline => (codes::E0802, "request deadline exceeded during compilation"),
        CancelReason::Shutdown => (codes::E0805, "compilation cancelled: service draining"),
    };
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(code, msg, Span::DUMMY).at_stage(DiagStage::Driver),
    ))
}

/// Runs passes, re-validating and timing each one, and — when built
/// with [`PassManager::with_cancel`] — honoring cooperative
/// cancellation at every pass boundary: a request whose deadline
/// expired (or whose service is draining) stops before the next pass
/// instead of running the pipeline to completion for nobody.
pub struct PassManager<'o> {
    observe: StageObserver<'o>,
    cancel: Option<&'o CancelToken>,
}

impl<'o> PassManager<'o> {
    /// A manager reporting stage durations to `observe`.
    pub fn new(observe: StageObserver<'o>) -> PassManager<'o> {
        PassManager {
            observe,
            cancel: None,
        }
    }

    /// A manager that additionally checks `cancel` before each pass.
    pub fn with_cancel(observe: StageObserver<'o>, cancel: &'o CancelToken) -> PassManager<'o> {
        PassManager {
            observe,
            cancel: Some(cancel),
        }
    }

    /// Runs one pass: transformation, then re-validation, timing both.
    ///
    /// Failures leave this method **structured**: the layer error is
    /// converted to coded diagnostics ([`VelusError::Diag`]), its
    /// node/equation context resolved to source spans through `spans`,
    /// and every diagnostic that does not already know a finer stage is
    /// tagged with this pass's stage.
    ///
    /// # Errors
    ///
    /// The pass's own failure, its postcondition check, or the coded
    /// cancellation condition (`E0802`/`E0805`) when the manager's
    /// token fired — checked *before* the pass starts, so no observer
    /// events are emitted for a pass that never ran.
    pub fn run<'a, P: Pass<'a>>(
        &mut self,
        pass: &P,
        input: P::Input,
        spans: &SpanMap,
    ) -> Result<P::Output, VelusError> {
        if let Some(reason) = self.cancel.and_then(|t| t.state()) {
            return Err(cancelled(reason));
        }
        self.observe.pass_start(P::STAGE, P::NAME);
        let start = Instant::now();
        let result = pass.run(input).and_then(|output| {
            pass.revalidate(&output)?;
            Ok(output)
        });
        match result {
            Ok(output) => {
                self.observe.pass_end(P::STAGE, start.elapsed());
                Ok(output)
            }
            Err(e) => {
                self.observe.pass_fail(P::STAGE, P::NAME);
                Err(e.into_structured(spans, diag_stage(P::STAGE)))
            }
        }
    }
}

/// The pass names in pipeline order (documentation and test aid).
pub const PASS_ORDER: [&str; 7] = [
    ElaboratePass::NAME,
    CheckPass::NAME,
    SchedulePass::NAME,
    TranslatePass::NAME,
    FusePass::NAME,
    GeneratePass::NAME,
    EmitPass::NAME,
];

/// Input of the front end: source text plus the optional root override.
#[derive(Debug, Clone, Copy)]
pub struct FrontendInput<'a> {
    /// The Lustre source text.
    pub source: &'a str,
    /// The requested root node name, if any.
    pub root: Option<&'a str>,
}

/// Output of the front end: the elaborated program, the resolved root,
/// the front-end warnings, and the source spans of every node and
/// equation (what lets later stages report real positions).
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// Elaborated, normalized, unscheduled N-Lustre.
    pub nlustre: Program<ClightOps>,
    /// The resolved root node.
    pub root: NodeId,
    /// Front-end warnings (e.g. the initialization lint).
    pub warnings: Diagnostics,
    /// Node/equation source spans recorded by the elaborator.
    pub spans: SpanMap,
}

/// Picks the default root node: a node never instantiated by another
/// (the program's sink); ties broken towards the last one declared.
fn default_root(prog: &Program<ClightOps>) -> Option<NodeId> {
    let mut called = vec![false; prog.nodes.len()];
    for eq in prog.nodes.iter().flat_map(|node| &node.eqs) {
        if let velus_nlustre::ast::Equation::Call { node: f, .. } = eq {
            called[f.index()] = true;
        }
    }
    let last = prog.nodes.len().checked_sub(1)?;
    let root = (0..=last).rev().find(|&k| !called[k]).unwrap_or(last);
    Some(NodeId::new(root))
}

/// Parse, elaborate, and normalize to N-Lustre; resolve the root.
pub struct ElaboratePass;

thread_local! {
    /// Per-thread front-end scratch (token buffer + both expression
    /// arenas), recycled across compiles so a long-running service or
    /// bench loop stops allocating front-end working memory once the
    /// pools fit the largest program seen.
    static FRONTEND_SCRATCH: std::cell::RefCell<velus_lustre::FrontendScratch<ClightOps>> =
        std::cell::RefCell::new(velus_lustre::FrontendScratch::new());
}

impl<'a> Pass<'a> for ElaboratePass {
    type Input = FrontendInput<'a>;
    type Output = Elaborated;

    const STAGE: Stage = Stage::Frontend;
    const NAME: &'static str = "elaborate";

    fn run(&self, input: FrontendInput<'a>) -> Result<Elaborated, VelusError> {
        // Fall back to one-shot scratch if the thread-local is already
        // borrowed (a compile re-entered from inside a compile).
        let front = FRONTEND_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => velus_lustre::frontend_with::<ClightOps>(input.source, &mut scratch),
            Err(_) => velus_lustre::frontend::<ClightOps>(input.source),
        })?;
        let (nlustre, warnings, spans) = (front.program, front.warnings, front.spans);
        let root = match input.root {
            // The one name lookup after elaboration: the requested root.
            Some(r) => {
                let name = Ident::new(r);
                let root = nlustre.nodes.iter().position(|n| n.name == name);
                NodeId::new(root.ok_or_else(|| unknown_root(name))?)
            }
            None => default_root(&nlustre).ok_or_else(|| {
                VelusError::Diag(Diagnostics::from(
                    Diagnostic::error(codes::E0903, "program has no nodes", Span::DUMMY)
                        .at_stage(DiagStage::Driver),
                ))
            })?,
        };
        Ok(Elaborated {
            nlustre,
            root,
            warnings,
            spans,
        })
    }
}

/// The coded form of "no node named `root`".
fn unknown_root(root: impl std::fmt::Display) -> VelusError {
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(codes::E0902, format!("no node named {root}"), Span::DUMMY)
            .at_stage(DiagStage::Driver),
    ))
}

/// Re-check the elaborator's postconditions (typing and clocking) on an
/// already-elaborated program. The transformation is the identity; the
/// checks *are* the pass.
pub struct CheckPass;

impl Pass<'_> for CheckPass {
    type Input = Program<ClightOps>;
    type Output = Program<ClightOps>;

    const STAGE: Stage = Stage::Check;
    const NAME: &'static str = "check";

    fn run(&self, input: Program<ClightOps>) -> Result<Program<ClightOps>, VelusError> {
        Ok(input)
    }

    fn revalidate(&self, output: &Program<ClightOps>) -> Result<(), VelusError> {
        typecheck::check_program(output)?;
        clockcheck::check_program_clocks(output)?;
        Ok(())
    }
}

/// Schedule the equations (untrusted heuristic); re-validation runs the
/// paper's schedule checker plus the typing/clocking preservation
/// checks.
///
/// The pass moves the equations of its input rather than copying the
/// program: on success the input is left empty and the returned
/// [`Scheduled`] records each node's permutation, from which the
/// elaborated order can be rebuilt if anything still needs it. Every
/// order is computed before anything moves, so a causality error leaves
/// the input intact.
pub struct SchedulePass;

/// Output of [`SchedulePass`].
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// The scheduled SN-Lustre program.
    pub program: Program<ClightOps>,
    /// Per node, the order applied: equation `k` of the scheduled node
    /// was equation `orders[n][k]` of its input.
    pub orders: Vec<Vec<usize>>,
}

impl Scheduled {
    /// Rebuilds the unscheduled input by undoing every node's
    /// permutation on a copy of the scheduled program.
    pub fn unscheduled(&self) -> Program<ClightOps> {
        let mut prog = self.program.clone();
        for (node, order) in prog.nodes.iter_mut().zip(&self.orders) {
            let mut inverse = vec![0; order.len()];
            for (k, &i) in order.iter().enumerate() {
                inverse[i] = k;
            }
            velus_nlustre::schedule::apply_order(node, &inverse);
        }
        prog
    }
}

impl<'a> Pass<'a> for SchedulePass {
    type Input = &'a mut Program<ClightOps>;
    type Output = Scheduled;

    const STAGE: Stage = Stage::Schedule;
    const NAME: &'static str = "schedule";

    fn run(&self, input: &'a mut Program<ClightOps>) -> Result<Scheduled, VelusError> {
        let orders = input
            .nodes
            .iter()
            .map(velus_nlustre::schedule::schedule_order)
            .collect::<Result<Vec<_>, _>>()?;
        let mut program = Program::new(std::mem::take(&mut input.nodes));
        for (node, order) in program.nodes.iter_mut().zip(&orders) {
            velus_nlustre::schedule::apply_order(node, order);
        }
        Ok(Scheduled { program, orders })
    }

    fn revalidate(&self, output: &Scheduled) -> Result<(), VelusError> {
        for node in &output.program.nodes {
            velus_nlustre::deps::check_schedule(node)?;
        }
        typecheck::check_program(&output.program)?;
        clockcheck::check_program_clocks(&output.program)?;
        Ok(())
    }
}

/// Checks that every method of every class is `Fusible` — the paper's
/// invariant that translation establishes and fusion preserves.
fn check_fusible(prog: &ObcProgram<ClightOps>, stage: &str) -> Result<(), VelusError> {
    for class in &prog.classes {
        for m in &class.methods {
            if !fusible(&m.body) {
                return Err(VelusError::Validation(format!(
                    "{stage} method {}.{} is not Fusible",
                    class.name, m.name
                )));
            }
        }
    }
    Ok(())
}

/// Translate scheduled SN-Lustre to Obc; re-validation re-checks Obc
/// typing and the `Fusible` postcondition.
pub struct TranslatePass;

impl<'a> Pass<'a> for TranslatePass {
    type Input = &'a Program<ClightOps>;
    type Output = ObcProgram<ClightOps>;

    const STAGE: Stage = Stage::Translate;
    const NAME: &'static str = "translate";

    fn run(&self, input: &'a Program<ClightOps>) -> Result<ObcProgram<ClightOps>, VelusError> {
        Ok(velus_obc::translate::translate_program(input)?)
    }

    fn revalidate(&self, output: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
        velus_obc::typecheck::check_program(output)?;
        check_fusible(output, "translated")
    }
}

/// The fusion optimization; re-validation checks preservation of typing
/// and `Fusible`. The pass consumes the translated program: fused bodies
/// are built from its moved statements.
pub struct FusePass;

impl Pass<'_> for FusePass {
    type Input = ObcProgram<ClightOps>;
    type Output = ObcProgram<ClightOps>;

    const STAGE: Stage = Stage::Fuse;
    const NAME: &'static str = "fuse";

    fn run(&self, input: ObcProgram<ClightOps>) -> Result<ObcProgram<ClightOps>, VelusError> {
        Ok(fuse_program(input))
    }

    fn revalidate(&self, output: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
        velus_obc::typecheck::check_program(output)?;
        check_fusible(output, "fused")
    }
}

/// Input of Clight generation: the fused Obc plus the root class.
#[derive(Debug, Clone, Copy)]
pub struct GenerateInput<'a> {
    /// The fused Obc program.
    pub obc_fused: &'a ObcProgram<ClightOps>,
    /// The root class to build the simulation `main` for.
    pub root: NodeId,
}

/// Generate Clight (with the simulation `main` for the root).
pub struct GeneratePass;

impl<'a> Pass<'a> for GeneratePass {
    type Input = GenerateInput<'a>;
    type Output = velus_clight::ast::Program;

    const STAGE: Stage = Stage::Generate;
    const NAME: &'static str = "generate";

    fn run(&self, input: GenerateInput<'a>) -> Result<velus_clight::ast::Program, VelusError> {
        Ok(velus_clight::generate::generate(
            input.obc_fused,
            input.root,
        )?)
    }
}

/// Input of emission: the Clight program plus the I/O rendering mode.
#[derive(Debug, Clone, Copy)]
pub struct EmitInput<'a> {
    /// The generated Clight.
    pub clight: &'a velus_clight::ast::Program,
    /// How the I/O boundary is rendered.
    pub io: IoMode,
}

/// Print the Clight as a compilable C translation unit.
pub struct EmitPass;

impl<'a> Pass<'a> for EmitPass {
    type Input = EmitInput<'a>;
    type Output = String;

    const STAGE: Stage = Stage::Emit;
    const NAME: &'static str = "emit";

    fn run(&self, input: EmitInput<'a>) -> Result<String, VelusError> {
        Ok(velus_clight::printer::print_program(input.clight, input.io))
    }
}

/// Input of the lint pass: the scheduled program plus everything the
/// analyses resolve findings through.
#[derive(Debug, Clone, Copy)]
pub struct LintInput<'a> {
    /// The scheduled program to analyze.
    pub program: &'a Program<ClightOps>,
    /// The root node (reachability/activity start from it).
    pub root: NodeId,
    /// The front-end warnings, whose initialization findings (`W0101`)
    /// the lint report carries over.
    pub warnings: &'a Diagnostics,
    /// Node/equation spans the findings anchor to.
    pub spans: &'a SpanMap,
}

/// The static-analysis lint pass (`velus-analysis`): initialization,
/// value ranges, liveness, dead clocks. Off the main compilation chain
/// — it runs only when a lint artifact (or `velus lint`) asks for it,
/// and its findings never fail the compilation.
pub struct LintPass;

impl<'a> Pass<'a> for LintPass {
    type Input = LintInput<'a>;
    type Output = Diagnostics;

    const STAGE: Stage = Stage::Analysis;
    const NAME: &'static str = "lint";

    fn run(&self, input: LintInput<'a>) -> Result<Diagnostics, VelusError> {
        Ok(velus_analysis::lint_program(
            input.program,
            input.root,
            input.warnings,
            input.spans,
        ))
    }
}

/// The pipeline composed on demand: each stage runs (and re-validates)
/// the first time it is requested and is memoized afterwards.
///
/// This is the engine behind both the classic whole-pipeline API
/// ([`crate::compile`] forces every stage) and the multi-artifact
/// service (a WCET-only request forces stages up to Clight generation
/// and never runs emission; an N-Lustre dump stops after the checks).
pub struct StagedPipeline<'o> {
    pm: PassManager<'o>,
    /// The elaborated program until scheduling moves it out; from then
    /// on rebuilt from `snlustre` the first time it is asked for.
    nlustre: OnceCell<Program<ClightOps>>,
    root: NodeId,
    warnings: Diagnostics,
    spans: SpanMap,
    snlustre: Option<Scheduled>,
    /// The translated program until fusion moves it out; from then on
    /// rebuilt from `snlustre` the first time it is asked for.
    obc: Option<ObcProgram<ClightOps>>,
    obc_fused: Option<ObcProgram<ClightOps>>,
    clight: Option<velus_clight::ast::Program>,
    lint: Option<Diagnostics>,
}

impl<'o> StagedPipeline<'o> {
    /// Elaborates `source` and prepares the staged pipeline (the
    /// `Frontend` and `Check` stages run here).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics, an unknown root, or a failed postcondition
    /// re-check.
    pub fn from_source(
        source: &str,
        root: Option<&str>,
        observe: StageObserver<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        Self::from_source_with(source, root, observe, None)
    }

    /// [`StagedPipeline::from_source`] with an optional cancellation
    /// token, checked at every pass boundary for the pipeline's whole
    /// life (later on-demand stages included).
    ///
    /// # Errors
    ///
    /// Front-end diagnostics, an unknown root, a failed postcondition
    /// re-check, or the coded cancellation condition.
    pub fn from_source_with(
        source: &str,
        root: Option<&str>,
        observe: StageObserver<'o>,
        cancel: Option<&'o CancelToken>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        let mut pm = match cancel {
            Some(token) => PassManager::with_cancel(observe, token),
            None => PassManager::new(observe),
        };
        let elaborated = pm.run(
            &ElaboratePass,
            FrontendInput { source, root },
            &SpanMap::new(),
        )?;
        Self::from_elaborated(elaborated, pm)
    }

    /// Starts from an already-elaborated program (used by benchmarks and
    /// generated workloads that skip the parser). The `Check` stage runs
    /// here.
    ///
    /// # Errors
    ///
    /// An unknown root or failed elaborator postconditions.
    pub fn from_program(
        nlustre: Program<ClightOps>,
        root: NodeId,
        warnings: Diagnostics,
        observe: StageObserver<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        if nlustre.node(root).is_none() {
            return Err(unknown_root(root));
        }
        Self::from_elaborated(
            Elaborated {
                nlustre,
                root,
                warnings,
                spans: SpanMap::new(),
            },
            PassManager::new(observe),
        )
    }

    fn from_elaborated(
        elaborated: Elaborated,
        mut pm: PassManager<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        let nlustre = pm.run(&CheckPass, elaborated.nlustre, &elaborated.spans)?;
        Ok(StagedPipeline {
            pm,
            nlustre: OnceCell::from(nlustre),
            root: elaborated.root,
            warnings: elaborated.warnings,
            spans: elaborated.spans,
            snlustre: None,
            obc: None,
            obc_fused: None,
            clight: None,
            lint: None,
        })
    }

    /// The resolved root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node/equation source spans recorded by the elaborator (empty
    /// when the pipeline started from an already-elaborated program).
    pub fn spans(&self) -> &SpanMap {
        &self.spans
    }

    /// The front-end warnings.
    pub fn warnings(&self) -> &Diagnostics {
        &self.warnings
    }

    /// The elaborated, unscheduled N-Lustre (always available).
    ///
    /// Scheduling moves the elaborated program instead of copying it, so
    /// once [`StagedPipeline::snlustre`] has run, the first call here
    /// rebuilds it by undoing the schedule (see [`Scheduled::unscheduled`]).
    pub fn nlustre(&self) -> &Program<ClightOps> {
        self.nlustre.get_or_init(|| {
            self.snlustre
                .as_ref()
                .expect("the elaborated program is only moved out by a successful schedule")
                .unscheduled()
        })
    }

    /// The scheduled SN-Lustre, scheduling on first demand.
    ///
    /// # Errors
    ///
    /// Scheduling failures or a failed schedule re-check.
    pub fn snlustre(&mut self) -> Result<&Program<ClightOps>, VelusError> {
        if self.snlustre.is_none() {
            let elaborated = self
                .nlustre
                .get_mut()
                .expect("the elaborated program is held until a schedule succeeds");
            let scheduled = self.pm.run(&SchedulePass, elaborated, &self.spans)?;
            // Moved out by the pass: rebuilt on demand by `nlustre`.
            self.nlustre.take();
            self.snlustre = Some(scheduled);
        }
        Ok(&self.snlustre.as_ref().expect("just scheduled").program)
    }

    /// The translated (unfused) Obc, translating on first demand.
    ///
    /// Fusion moves the translated program instead of copying it, so once
    /// [`StagedPipeline::obc_fused`] has run, the first call here rebuilds
    /// it by translating the scheduled program again — the same
    /// deterministic function of the same input, already re-validated
    /// once, so the rebuild runs no pass and reports no stage.
    ///
    /// # Errors
    ///
    /// Translation failures or failed typing/`Fusible` re-checks.
    pub fn obc(&mut self) -> Result<&ObcProgram<ClightOps>, VelusError> {
        if self.obc.is_none() {
            let obc = if self.obc_fused.is_some() {
                velus_obc::translate::translate_program(self.snlustre()?)?
            } else {
                self.translate()?
            };
            self.obc = Some(obc);
        }
        Ok(self.obc.as_ref().expect("just translated"))
    }

    /// Runs the translation pass over the scheduled program.
    fn translate(&mut self) -> Result<ObcProgram<ClightOps>, VelusError> {
        self.snlustre()?;
        self.pm.run(
            &TranslatePass,
            &self.snlustre.as_ref().expect("scheduled").program,
            &self.spans,
        )
    }

    /// Moves the translated program out, translating it first if it is
    /// not held.
    fn take_obc(&mut self) -> Result<ObcProgram<ClightOps>, VelusError> {
        match self.obc.take() {
            Some(obc) => Ok(obc),
            None => self.translate(),
        }
    }

    /// The fused Obc, fusing on first demand. Fusion consumes the
    /// translated program (see [`StagedPipeline::obc`]).
    ///
    /// # Errors
    ///
    /// Translation failures or failed preservation re-checks.
    pub fn obc_fused(&mut self) -> Result<&ObcProgram<ClightOps>, VelusError> {
        if self.obc_fused.is_none() {
            let obc = self.take_obc()?;
            let fused = self.pm.run(&FusePass, obc, &self.spans)?;
            self.obc_fused = Some(fused);
        }
        Ok(self.obc_fused.as_ref().expect("just fused"))
    }

    /// The generated Clight, generating on first demand.
    ///
    /// # Errors
    ///
    /// Generation failures.
    pub fn clight(&mut self) -> Result<&velus_clight::ast::Program, VelusError> {
        if self.clight.is_none() {
            self.obc_fused()?;
            let clight = self.pm.run(
                &GeneratePass,
                GenerateInput {
                    obc_fused: self.obc_fused.as_ref().expect("fused"),
                    root: self.root,
                },
                &self.spans,
            )?;
            self.clight = Some(clight);
        }
        Ok(self.clight.as_ref().expect("just generated"))
    }

    /// The full static-analysis lint findings, analyzing on first
    /// demand (forcing scheduling first — the analyses run over the
    /// scheduled program). Findings never fail the compilation: a
    /// guaranteed trap is an `E`-severity *finding*, surfaced through
    /// the lint artifact and `velus lint`, not a compile error.
    ///
    /// # Errors
    ///
    /// Scheduling failures (the lint pass itself is total).
    pub fn lint(&mut self) -> Result<&Diagnostics, VelusError> {
        if self.lint.is_none() {
            self.snlustre()?;
            let findings = self.pm.run(
                &LintPass,
                LintInput {
                    program: &self.snlustre.as_ref().expect("scheduled").program,
                    root: self.root,
                    warnings: &self.warnings,
                    spans: &self.spans,
                },
                &self.spans,
            )?;
            self.lint = Some(findings);
        }
        Ok(self.lint.as_ref().expect("just linted"))
    }

    /// The lint findings, if [`StagedPipeline::lint`] already ran
    /// (`None` otherwise — this never forces the analysis).
    pub fn lint_cached(&self) -> Option<&Diagnostics> {
        self.lint.as_ref()
    }

    /// Prints the C translation unit (forcing generation first). The
    /// `Emit` stage is timed per call — only requests that actually need
    /// C pay for (and report) it.
    ///
    /// # Errors
    ///
    /// Any failure of the forced stages.
    pub fn emit(&mut self, io: IoMode) -> Result<String, VelusError> {
        self.clight()?;
        self.pm.run(
            &EmitPass,
            EmitInput {
                clight: self.clight.as_ref().expect("generated"),
                io,
            },
            &self.spans,
        )
    }

    /// Forces every stage and returns the classic whole-pipeline result.
    ///
    /// The result holds the unfused and the fused Obc side by side, so
    /// when fusion has not run yet the translated program is copied once
    /// before fusion consumes it (translation still runs only once).
    ///
    /// # Errors
    ///
    /// Any stage failure.
    pub fn into_compiled(mut self) -> Result<crate::pipeline::Compiled, VelusError> {
        if self.obc_fused.is_none() {
            let obc = self.take_obc()?;
            self.obc_fused = Some(self.pm.run(&FusePass, obc.clone(), &self.spans)?);
            self.obc = Some(obc);
        }
        self.clight()?;
        self.obc()?;
        let scheduled = self.snlustre.expect("forced");
        Ok(crate::pipeline::Compiled {
            nlustre: self
                .nlustre
                .take()
                .unwrap_or_else(|| scheduled.unscheduled()),
            snlustre: scheduled.program,
            obc: self.obc.expect("forced"),
            obc_fused: self.obc_fused.expect("forced"),
            clight: self.clight.expect("forced"),
            root: self.root,
            warnings: self.warnings,
            spans: self.spans,
        })
    }
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

    #[test]
    fn staged_pipeline_is_lazy_and_memoizing() {
        let mut stages: Vec<Stage> = Vec::new();
        let mut observe = |stage: Stage, _dur: std::time::Duration| stages.push(stage);
        let mut staged = StagedPipeline::from_source(COUNTER, None, &mut observe).unwrap();
        let _ = staged.snlustre().unwrap();
        let _ = staged.snlustre().unwrap(); // memoized: no second report
        let _ = staged.obc_fused().unwrap(); // forces translate then fuse
        drop(staged);
        assert_eq!(
            stages,
            vec![
                Stage::Frontend,
                Stage::Check,
                Stage::Schedule,
                Stage::Translate,
                Stage::Fuse,
            ]
        );
    }

    /// A node with two sub-clocked equations on one clock, so fusion
    /// merges their conditionals and the fused program differs.
    const SAMPLED: &str = "
        node f(x: int; c: bool) returns (y: int)
        var a, b: int when c;
        let
          a = x when c;
          b = (x when c) + 1;
          y = merge c (a + b) 0;
        tel
    ";

    #[test]
    fn obc_after_fusion_is_rebuilt_by_translation_without_a_stage_sample() {
        let mut stages: Vec<Stage> = Vec::new();
        let mut observe = |stage: Stage, _: std::time::Duration| stages.push(stage);
        let mut staged = StagedPipeline::from_source(SAMPLED, None, &mut observe).unwrap();
        let fused = staged.obc_fused().unwrap().clone();
        let rebuilt = staged.obc().unwrap().clone();
        let fresh = velus_obc::translate::translate_program(staged.snlustre().unwrap()).unwrap();
        assert_eq!(rebuilt, fresh);
        assert_ne!(rebuilt, fused, "fusion merges the two guarded equations");
        assert_eq!(staged.obc_fused().unwrap(), &fused, "fusion is memoized");
        drop(staged);
        assert_eq!(
            stages,
            vec![
                Stage::Frontend,
                Stage::Check,
                Stage::Schedule,
                Stage::Translate,
                Stage::Fuse,
            ],
            "the rebuild runs no pass"
        );
    }

    #[test]
    fn into_compiled_translates_once_and_keeps_both_obc_programs() {
        let mut stages: Vec<Stage> = Vec::new();
        let mut observe = |stage: Stage, _: std::time::Duration| stages.push(stage);
        let compiled = StagedPipeline::from_source(SAMPLED, None, &mut observe)
            .unwrap()
            .into_compiled()
            .unwrap();
        let obc = velus_obc::translate::translate_program(&compiled.snlustre).unwrap();
        assert_eq!(compiled.obc, obc);
        assert_eq!(compiled.obc_fused, fuse_program(obc));
        assert_ne!(compiled.obc, compiled.obc_fused);
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
        // The same two programs when something forced fusion first.
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged = StagedPipeline::from_source(SAMPLED, None, &mut observe).unwrap();
        staged.clight().unwrap();
        let late = staged.into_compiled().unwrap();
        assert_eq!(
            (late.obc, late.obc_fused),
            (compiled.obc, compiled.obc_fused)
        );
    }

    #[test]
    fn scheduling_moves_the_program_and_nlustre_is_rebuilt_exactly() {
        let src = "
            node f(x: int) returns (y: int)
            var a, b: int;
            let
              y = a + b;
              b = a * 2;
              a = x + 1;
            tel
        ";
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged = StagedPipeline::from_source(src, None, &mut observe).unwrap();
        let elaborated = staged.nlustre().clone();
        let scheduled = staged.snlustre().unwrap().clone();
        assert_ne!(scheduled, elaborated, "the schedule reorders this node");
        assert_eq!(staged.nlustre(), &elaborated);
        let compiled = staged.into_compiled().unwrap();
        assert_eq!(compiled.nlustre, elaborated);
        assert_eq!(compiled.snlustre, scheduled);
    }

    #[test]
    fn a_causality_error_keeps_the_elaborated_program() {
        let src = "
            node f(x: int) returns (y: int)
            var a: int;
            let
              y = a + x;
              a = y;
            tel
        ";
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged = StagedPipeline::from_source(src, None, &mut observe).unwrap();
        let elaborated = staged.nlustre().clone();
        assert!(staged.snlustre().is_err());
        assert_eq!(staged.nlustre(), &elaborated);
        assert!(staged.snlustre().is_err(), "a retry fails the same way");
    }

    #[test]
    fn pass_names_are_stable() {
        assert_eq!(
            PASS_ORDER,
            [
                "elaborate",
                "check",
                "schedule",
                "translate",
                "fuse",
                "generate",
                "emit"
            ]
        );
    }

    #[test]
    fn a_cancelled_token_stops_the_pipeline_at_a_pass_boundary() {
        // A live token compiles normally…
        let token = CancelToken::unbounded();
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged =
            StagedPipeline::from_source_with(COUNTER, None, &mut observe, Some(&token)).unwrap();
        let _ = staged.snlustre().unwrap();
        // …until it fires: the next demanded stage refuses to run and
        // surfaces the drain code, with no observer events for the
        // never-started pass.
        token.cancel();
        let mut events = 0usize;
        // Rebuild with a counting observer on the already-fired token:
        // even the first pass refuses.
        let mut count = |_: Stage, _: std::time::Duration| events += 1;
        let err = StagedPipeline::from_source_with(COUNTER, None, &mut count, Some(&token))
            .err()
            .expect("cancelled before elaboration");
        let diags = velus_common::ToDiagnostics::to_diagnostics(&err, &SpanMap::new());
        assert_eq!(diags.iter().next().unwrap().code, codes::E0805);
        assert_eq!(events, 0, "no stage ran, none was observed");
        // An expired deadline reports E0802 instead.
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let err = StagedPipeline::from_source_with(COUNTER, None, &mut observe, Some(&expired))
            .err()
            .expect("deadline already expired");
        let diags = velus_common::ToDiagnostics::to_diagnostics(&err, &SpanMap::new());
        assert_eq!(diags.iter().next().unwrap().code, codes::E0802);
    }

    #[test]
    fn revalidation_rejects_a_corrupted_schedule() {
        // A program whose equations are deliberately mis-ordered fails
        // the schedule *checker* even though each pass alone succeeds:
        // run the checker directly on an unscheduled two-equation node
        // with a forward dependency.
        let src = "
            node f(x: int) returns (y: int)
            var a: int;
            let
              y = a + 1;
              a = x + 1;
            tel
        ";
        let (prog, _) = velus_lustre::compile_to_nlustre::<ClightOps>(src).unwrap();
        // The schedule checker on the *unscheduled* program must reject
        // the order above (y reads a before a is defined).
        let ok = prog
            .nodes
            .iter()
            .try_for_each(velus_nlustre::deps::check_schedule);
        assert!(ok.is_err(), "mis-ordered equations must fail the checker");
        // And the SchedulePass both fixes and re-validates it.
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut pm = PassManager::new(&mut observe);
        let mut prog = prog;
        let scheduled = pm.run(&SchedulePass, &mut prog, &SpanMap::new()).unwrap();
        scheduled
            .program
            .nodes
            .iter()
            .try_for_each(velus_nlustre::deps::check_schedule)
            .unwrap();
    }
}
