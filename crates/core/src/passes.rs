//! The validated pipeline: the paper's compiler as a chain of plain
//! functions, one transform and one check per stage.
//!
//! The paper presents the compiler as a chain of proved passes
//! (elaborate → schedule → translate → fuse → generate) and proves each
//! pass's output properties once: well-typed and well-clocked N-Lustre,
//! a valid schedule, `Fusible` Obc. This reproduction checks those
//! properties on every run instead, so each stage here is a transform
//! function plus the check function of its postcondition (the paper's
//! proof obligation, executed — validation is part of the stage, not an
//! optional extra). Each stage checks exactly what its transform can
//! change: a property that a transform preserves by construction is
//! argued once, in the transform's doc, and pinned by a property test,
//! as the paper proves it once as a lemma.
//!
//! | stage | pass | transform | check |
//! |---|---|---|---|
//! | `Frontend` | `elaborate` | parse, elaborate, normalize; resolve the root | — |
//! | `Check` | `check` | the identity | typing and clocking |
//! | `Schedule` | `schedule` | permute each node's equations | the schedule |
//! | `Translate` | `translate` | SN-Lustre to Obc | Obc typing, `Fusible` |
//! | `Fuse` | `fuse` | the fusion optimization | `Fusible` |
//! | `Generate` | `generate` | Obc to Clight | — |
//! | `Emit` | `emit` | Clight to C text | — |
//! | `Analysis` | `lint` | the static analyses | — |
//!
//! [`StagedPipeline`] composes the stages **on demand**: each IR is
//! computed (and re-checked) the first time something asks for it and
//! memoized afterwards, so a request that only needs the front half of
//! the pipeline — a WCET report, an N-Lustre dump — never pays for the
//! back half. [`crate::compile`] is
//! `StagedPipeline::from_source(..)?.into_compiled()`: it forces every
//! stage. One private runner runs every stage: it honors cooperative
//! cancellation at the stage boundary, reports start/check/end/fail
//! events to a [`PassSink`] (the service's per-stage statistics *and*
//! its per-pass trace spans are built from this one hook), and resolves
//! failures to coded diagnostics.

use std::cell::OnceCell;
use std::time::Instant;

use velus_common::{
    codes, DiagStage, Diagnostic, Diagnostics, Ident, IoMode, NodeId, Span, SpanMap,
};
use velus_lustre::FrontendScratch;
use velus_nlustre::ast::Program;
use velus_obc::ast::ObcProgram;
use velus_obc::fusion::{fuse_program, fusible};
use velus_obs::trace;
use velus_ops::ClightOps;
use velus_server::{CancelReason, CancelToken, Stage};

use crate::VelusError;

/// The event sink of the pipeline: stage timing *and* tracing observe
/// stage execution through this one hook.
///
/// The pipeline calls [`pass_start`](PassSink::pass_start) before a
/// stage runs, [`phase_start`](PassSink::phase_start) at each named
/// phase of its transform, [`check_start`](PassSink::check_start) between its
/// transform and its check (stages without a check skip it), then
/// exactly one of [`pass_end`](PassSink::pass_end) (success, with the
/// wall-clock duration covering the transform *and* its check) or
/// [`pass_fail`](PassSink::pass_fail) (so a tracing sink can close the
/// pass's span without recording a timing sample; failed stages have
/// never contributed to the stage statistics).
///
/// Every `FnMut(Stage, Duration)` closure is a `PassSink` that only
/// listens to `pass_end` — the historical timing-observer shape — so
/// `&mut closure` still coerces to a [`StageObserver`].
pub trait PassSink {
    /// The named pass is about to run.
    fn pass_start(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }

    /// The stage's transform entered its named phase — the front end's
    /// `parse`, then `lower`: what follows until the next phase,
    /// [`check_start`](PassSink::check_start) or the end of the pass
    /// belongs to it. Each phase is also a child span of the pass's
    /// trace span.
    fn phase_start(&mut self, stage: Stage, name: &'static str) {
        let _ = (stage, name);
    }

    /// The stage's transform succeeded and its check is about to run:
    /// what follows until [`pass_end`](PassSink::pass_end) is the check.
    fn check_start(&mut self, stage: Stage) {
        let _ = stage;
    }

    /// The pass and its check succeeded, taking `dur`.
    fn pass_end(&mut self, stage: Stage, dur: std::time::Duration) {
        let _ = (stage, dur);
    }

    /// The pass (or its check) failed.
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
/// tag the runner stamps on every failure.
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

/// The pass a statistics [`Stage`] runs, by its stable name: the name of
/// its trace span and of its entry in a report's validated stages.
pub const fn pass_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Frontend => "elaborate",
        Stage::Check => "check",
        Stage::Schedule => "schedule",
        Stage::Translate => "translate",
        Stage::Fuse => "fuse",
        Stage::Generate => "generate",
        Stage::Emit => "emit",
        Stage::Analysis => "lint",
    }
}

/// The pass names of the compilation chain in pipeline order (the lint
/// pass is off the chain).
pub const PASS_ORDER: [&str; 7] = [
    pass_name(Stage::Frontend),
    pass_name(Stage::Check),
    pass_name(Stage::Schedule),
    pass_name(Stage::Translate),
    pass_name(Stage::Fuse),
    pass_name(Stage::Generate),
    pass_name(Stage::Emit),
];

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

/// The runner of one pipeline's stages: where its events go, and the
/// token that can cancel it.
struct Runner<'o> {
    observe: StageObserver<'o>,
    cancel: Option<&'o CancelToken>,
}

impl Runner<'_> {
    /// Runs one stage: `transform` (given the sink, for its phases),
    /// then `check` (if the stage has one) on its output, timing both.
    ///
    /// Failures leave this method **structured**: the layer error is
    /// converted to coded diagnostics ([`VelusError::Diag`]), its
    /// node/equation context resolved to source spans through `spans`,
    /// and every diagnostic that does not already know a finer stage is
    /// tagged with this stage.
    ///
    /// # Errors
    ///
    /// The transform's own failure, its check, or the coded cancellation
    /// condition (`E0802`/`E0805`) when the token fired — checked
    /// *before* the stage starts, so a stage that never ran emits no
    /// events.
    fn run<T>(
        &mut self,
        stage: Stage,
        spans: &SpanMap,
        transform: impl FnOnce(&mut dyn PassSink) -> Result<T, VelusError>,
        check: Option<Check<T>>,
    ) -> Result<T, VelusError> {
        if let Some(reason) = self.cancel.and_then(CancelToken::state) {
            return Err(cancelled(reason));
        }
        let name = pass_name(stage);
        self.observe.pass_start(stage, name);
        let start = Instant::now();
        let checked = transform(&mut *self.observe).and_then(|output| match check {
            Some(check) => {
                self.observe.check_start(stage);
                check(&output).map(|()| output)
            }
            None => Ok(output),
        });
        match checked {
            Ok(output) => {
                self.observe.pass_end(stage, start.elapsed());
                Ok(output)
            }
            Err(e) => {
                self.observe.pass_fail(stage, name);
                Err(e.into_structured(spans, diag_stage(stage)))
            }
        }
    }
}

/// The check of a stage's output.
type Check<T> = fn(&T) -> Result<(), VelusError>;

/// Output of the front end: the elaborated program, the resolved root,
/// the front-end warnings, and the source spans of every node and
/// equation (what lets later stages report real positions).
struct Elaborated {
    nlustre: Program<ClightOps>,
    root: NodeId,
    warnings: Diagnostics,
    spans: SpanMap,
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

thread_local! {
    /// Per-thread front-end scratch (surface arena and parser stacks),
    /// recycled across compiles so a long-running service or bench loop
    /// stops allocating front-end working memory once the pools fit the
    /// largest program seen.
    static FRONTEND_SCRATCH: std::cell::RefCell<FrontendScratch> =
        std::cell::RefCell::new(FrontendScratch::new());
}

/// Runs `body` as the named phase of `stage`'s transform: announced to
/// the sink, and a child span of the pass's trace span.
fn phase<T>(
    sink: &mut dyn PassSink,
    stage: Stage,
    name: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    sink.phase_start(stage, name);
    let _span = trace::span(name);
    body()
}

/// The `elaborate` transform: parse (`parse` phase), elaborate and
/// normalize to N-Lustre (`lower` phase), then resolve the root.
fn elaborate(
    source: &str,
    root: Option<&str>,
    sink: &mut dyn PassSink,
) -> Result<Elaborated, VelusError> {
    let front = FRONTEND_SCRATCH.with(|cell| {
        // Fall back to one-shot scratch if the thread-local is already
        // borrowed (a compile re-entered from inside a compile).
        let mut shared = cell.try_borrow_mut().ok();
        let mut own = None;
        let scratch = match shared.as_deref_mut() {
            Some(scratch) => scratch,
            None => own.insert(FrontendScratch::new()),
        };
        let uprog = phase(sink, Stage::Frontend, "parse", || scratch.parse(source))?;
        phase(sink, Stage::Frontend, "lower", || {
            velus_lustre::lower::<ClightOps>(&uprog, &scratch.ua)
        })
    })?;
    let (nlustre, warnings, spans) = (front.program, front.warnings, front.spans);
    let root = match root {
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

/// The coded form of "no node named `root`".
fn unknown_root(root: impl std::fmt::Display) -> VelusError {
    VelusError::Diag(Diagnostics::from(
        Diagnostic::error(codes::E0902, format!("no node named {root}"), Span::DUMMY)
            .at_stage(DiagStage::Driver),
    ))
}

/// The `check` stage's check: the elaborator's postconditions, typing
/// and clocking, in one walk.
fn check_nlustre(prog: &Program<ClightOps>) -> Result<(), VelusError> {
    Ok(velus_nlustre::check::check_program(prog)?)
}

/// The scheduled program, and per node the order applied: equation `k`
/// of the scheduled node was equation `orders[n][k]` of its input.
#[derive(Debug, Clone)]
struct Scheduled {
    program: Program<ClightOps>,
    orders: Vec<Vec<usize>>,
}

impl Scheduled {
    /// Rebuilds the unscheduled input by undoing every node's
    /// permutation on a copy of the scheduled program.
    fn unscheduled(&self) -> Program<ClightOps> {
        let mut prog = self.program.clone();
        for (node, order) in prog.nodes.iter_mut().zip(&self.orders) {
            unapply_order(node, order);
        }
        prog
    }
}

/// Undoes [`velus_nlustre::schedule::apply_order`] of the permutation
/// `order` on `node`.
fn unapply_order(node: &mut velus_nlustre::ast::Node<ClightOps>, order: &[usize]) {
    let mut inverse = vec![0; order.len()];
    for (k, &i) in order.iter().enumerate() {
        inverse[i] = k;
    }
    velus_nlustre::schedule::apply_order(node, &inverse)
        .expect("the inverse of an applied order is a permutation");
}

/// The `schedule` transform: an untrusted heuristic orders each node's
/// equations, and only its output is checked.
///
/// It moves the equations of its input rather than copying the program:
/// on success the input is left empty and the returned [`Scheduled`]
/// records each node's permutation, from which the elaborated order can
/// be rebuilt if anything still needs it. On failure the input is left
/// as it was.
///
/// The stage's trusted part is this argument, not a run-time check: the
/// output is, by construction, the program the `Check` stage just
/// accepted with each node's equations permuted — [`reorder`] applies
/// only orders that are permutations, and moves equations without
/// changing them, their expression pools or any declaration. The typing
/// and clocking judgment does not depend on the order of a node's
/// equations (see [`velus_nlustre::check`]), so the output is well typed
/// and well clocked, and the stage's check ([`check_scheduled`]) need
/// only decide what the order can break: the precedence condition. The
/// paper proves this preservation once as a lemma;
/// `tests/check_permutation.rs` pins it as a property.
fn schedule(input: &mut Program<ClightOps>) -> Result<Scheduled, VelusError> {
    let mut scheduler = velus_nlustre::schedule::Scheduler::new();
    let orders = input
        .nodes
        .iter()
        .map(|node| scheduler.order(node))
        .collect::<Result<Vec<_>, _>>()?;
    reorder(input, orders)
}

/// Applies `orders[n]` to node `n` of `input` and moves the result out.
///
/// # Errors
///
/// `E0409` when an order is not a permutation of its node's equations;
/// the nodes already reordered are put back, so the input is left as it
/// was.
fn reorder(
    input: &mut Program<ClightOps>,
    orders: Vec<Vec<usize>>,
) -> Result<Scheduled, VelusError> {
    for (k, order) in orders.iter().enumerate() {
        if let Err(e) = velus_nlustre::schedule::apply_order(&mut input.nodes[k], order) {
            for (node, order) in input.nodes.iter_mut().zip(&orders[..k]) {
                unapply_order(node, order);
            }
            return Err(e.into());
        }
    }
    let program = Program::new(std::mem::take(&mut input.nodes));
    Ok(Scheduled { program, orders })
}

/// The `schedule` stage's check: the paper's schedule checker. Typing
/// and clocking are not re-checked (see [`schedule`]).
fn check_scheduled(scheduled: &Scheduled) -> Result<(), VelusError> {
    for node in &scheduled.program.nodes {
        velus_nlustre::deps::check_schedule(node)?;
    }
    Ok(())
}

/// The `translate` stage's check: Obc typing, and that every method of
/// every class is `Fusible` — the paper's invariant that translation
/// establishes. Translation is untrusted, so it gets both checks.
fn check_translated(prog: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
    velus_obc::typecheck::check_program(prog)?;
    check_fusible(prog, "translated")
}

/// The `fuse` stage's check: every method is still `Fusible`. Fusion
/// cannot change typing (see [`fuse_program`]), so Obc typing is not
/// re-checked.
fn check_fused(prog: &ObcProgram<ClightOps>) -> Result<(), VelusError> {
    check_fusible(prog, "fused")
}

/// That every method of every class of `prog` is `Fusible`; `what`
/// names the program in the failure.
fn check_fusible(prog: &ObcProgram<ClightOps>, what: &str) -> Result<(), VelusError> {
    for class in &prog.classes {
        for m in &class.methods {
            if !fusible(&m.exprs, &m.body) {
                return Err(VelusError::Validation(format!(
                    "{what} method {}.{} is not Fusible",
                    class.name, m.name
                )));
            }
        }
    }
    Ok(())
}

/// The pipeline composed on demand: each stage runs (and is re-checked)
/// the first time it is requested and is memoized afterwards.
///
/// This is the engine behind both the classic whole-pipeline API
/// ([`crate::compile`] forces every stage) and the multi-artifact
/// service (a WCET-only request forces stages up to Clight generation
/// and never runs emission; an N-Lustre dump stops after the checks).
pub struct StagedPipeline<'o> {
    runner: Runner<'o>,
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
    /// token, checked at every stage boundary for the pipeline's whole
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
        let mut runner = Runner { observe, cancel };
        let elaborated = runner.run(
            Stage::Frontend,
            &SpanMap::new(),
            |sink| elaborate(source, root, sink),
            None,
        )?;
        Self::from_elaborated(elaborated, runner)
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
            Runner {
                observe,
                cancel: None,
            },
        )
    }

    fn from_elaborated(
        elaborated: Elaborated,
        mut runner: Runner<'o>,
    ) -> Result<StagedPipeline<'o>, VelusError> {
        let Elaborated {
            nlustre,
            root,
            warnings,
            spans,
        } = elaborated;
        let nlustre = runner.run(Stage::Check, &spans, |_| Ok(nlustre), Some(check_nlustre))?;
        Ok(StagedPipeline {
            runner,
            nlustre: OnceCell::from(nlustre),
            root,
            warnings,
            spans,
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
    /// rebuilds it by undoing each node's recorded permutation.
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
            let scheduled = self.runner.run(
                Stage::Schedule,
                &self.spans,
                |_| schedule(elaborated),
                Some(check_scheduled),
            )?;
            // Moved out by the transform: rebuilt on demand by `nlustre`.
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
    /// deterministic function of the same input, already re-checked
    /// once, so the rebuild runs no stage and reports none.
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

    /// Runs the `translate` stage over the scheduled program.
    fn translate(&mut self) -> Result<ObcProgram<ClightOps>, VelusError> {
        self.snlustre()?;
        let snlustre = &self.snlustre.as_ref().expect("scheduled").program;
        self.runner.run(
            Stage::Translate,
            &self.spans,
            |_| Ok(velus_obc::translate::translate_program(snlustre)?),
            Some(check_translated),
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

    /// Runs the `fuse` stage, consuming `obc`.
    fn fuse(&mut self, obc: ObcProgram<ClightOps>) -> Result<ObcProgram<ClightOps>, VelusError> {
        self.runner.run(
            Stage::Fuse,
            &self.spans,
            |_| Ok(fuse_program(obc)),
            Some(check_fused),
        )
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
            let fused = self.fuse(obc)?;
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
            let (obc_fused, root) = (self.obc_fused.as_ref().expect("fused"), self.root);
            let clight = self.runner.run(
                Stage::Generate,
                &self.spans,
                |_| Ok(velus_clight::generate::generate(obc_fused, root)?),
                None,
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
            let program = &self.snlustre.as_ref().expect("scheduled").program;
            let (root, warnings, spans) = (self.root, &self.warnings, &self.spans);
            let findings = self.runner.run(
                Stage::Analysis,
                spans,
                |_| Ok(velus_analysis::lint_program(program, root, warnings, spans)),
                None,
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
        let clight = self.clight.as_ref().expect("generated");
        self.runner.run(
            Stage::Emit,
            &self.spans,
            |_| Ok(velus_clight::printer::print_program(clight, io)),
            None,
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
            self.obc_fused = Some(self.fuse(obc.clone())?);
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
        assert_eq!(pass_name(Stage::Analysis), "lint");
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

    /// Records every pass event, `check_start` included.
    #[derive(Default)]
    struct Events(Vec<String>);

    impl PassSink for Events {
        fn pass_start(&mut self, _: Stage, name: &'static str) {
            self.0.push(format!("start {name}"));
        }

        fn check_start(&mut self, stage: Stage) {
            self.0.push(format!("check {}", pass_name(stage)));
        }

        fn pass_end(&mut self, stage: Stage, _: std::time::Duration) {
            self.0.push(format!("end {}", pass_name(stage)));
        }
    }

    #[test]
    fn check_start_separates_transform_and_check_of_the_checked_stages() {
        let mut events = Events::default();
        StagedPipeline::from_source(COUNTER, None, &mut events)
            .unwrap()
            .emit(IoMode::Volatile)
            .unwrap();
        let expected: Vec<String> = [
            ("elaborate", false),
            ("check", true),
            ("schedule", true),
            ("translate", true),
            ("fuse", true),
            ("generate", false),
            ("emit", false),
        ]
        .into_iter()
        .flat_map(|(name, checked)| {
            let check = checked.then(|| format!("check {name}"));
            [
                Some(format!("start {name}")),
                check,
                Some(format!("end {name}")),
            ]
        })
        .flatten()
        .collect();
        assert_eq!(events.0, expected);
    }

    /// The code of the first diagnostic `err` resolves to.
    fn code(err: VelusError) -> velus_common::Code {
        let diags = velus_common::ToDiagnostics::to_diagnostics(&err, &SpanMap::new());
        diags.iter().next().expect("a coded diagnostic").code
    }

    /// Two nodes; in `g`, `y` reads `a` (defined by `a = x + 1`) and the
    /// delay `c`, and `c = 0 fby y` reads `y`.
    const PRECEDENCE: &str = "
        node f(x: int) returns (y: int)
        var a: int;
        let
          a = x * 2;
          y = a + 1;
        tel

        node g(x: int) returns (y: int)
        var a, c: int;
        let
          a = f(x);
          y = a + c;
          c = 0 fby y;
        tel
    ";

    /// The elaborated [`PRECEDENCE`] program, and the position of the
    /// equation defining each of `a`, `y`, `c` in its node `g`.
    fn precedence() -> (Program<ClightOps>, [usize; 3]) {
        let (prog, _) = velus_lustre::compile_to_nlustre::<ClightOps>(PRECEDENCE).unwrap();
        let g = &prog.nodes[1];
        let at = |x: &str| {
            let x = Ident::new(x);
            g.eqs.iter().position(|eq| eq.defines(x)).unwrap()
        };
        let positions = [at("a"), at("y"), at("c")];
        (prog, positions)
    }

    /// The orders keeping node `f` as elaborated (its equations are in
    /// order) and ordering node `g` by `g`.
    fn orders_with(prog: &Program<ClightOps>, g: Vec<usize>) -> Vec<Vec<usize>> {
        vec![(0..prog.nodes[0].eqs.len()).collect(), g]
    }

    #[test]
    fn fault_schedule_orders_that_are_not_permutations_are_refused() {
        let (prog, [a, y, c]) = precedence();
        let faults = [vec![a, y], vec![a, y, y], vec![a, y, c, 3], vec![a, y, 7]];
        for fault in faults {
            let mut input = prog.clone();
            // Node `f` reversed, so refusing `g` must also undo `f`.
            let mut orders = orders_with(&prog, fault.clone());
            orders[0].reverse();
            let err = reorder(&mut input, orders).unwrap_err();
            assert_eq!(code(err), codes::E0409, "order {fault:?}");
            assert_eq!(input, prog, "order {fault:?}: the input is left as it was");
        }
    }

    #[test]
    fn fault_schedule_permutations_breaking_precedence_are_refused() {
        let (prog, [a, y, c]) = precedence();
        // The order of the module's rules: `a`, then its reader `y`,
        // then the delay `c` that `y` reads.
        let scheduled = reorder(&mut prog.clone(), orders_with(&prog, vec![a, y, c])).unwrap();
        check_scheduled(&scheduled).unwrap();
        for (fault, what) in [
            (vec![y, a, c], "a reader before its Def"),
            (vec![a, c, y], "an fby update before its reader"),
        ] {
            let scheduled = reorder(&mut prog.clone(), orders_with(&prog, fault)).unwrap();
            let err = check_scheduled(&scheduled).unwrap_err();
            assert_eq!(code(err), codes::E0409, "{what}");
        }
    }

    /// Fusion that merges adjacent conditionals whatever their guards:
    /// the fault that the `fuse` stage's check must catch.
    fn merge_any_guards(prog: &mut ObcProgram<ClightOps>) {
        use velus_obc::ast::{Block, Stmt};
        fn zip_any(s: &mut Block, t: Block) {
            for stmt in t.0 {
                match (s.last_mut(), stmt) {
                    (Some(Stmt::If(_, t1, f1)), Stmt::If(_, t2, f2)) => {
                        zip_any(t1, t2);
                        zip_any(f1, f2);
                    }
                    (_, stmt) => s.push(stmt),
                }
            }
        }
        for m in prog.classes.iter_mut().flat_map(|c| &mut c.methods) {
            let mut fused = Block::new();
            zip_any(&mut fused, std::mem::take(&mut m.body));
            m.body = fused;
        }
    }

    #[test]
    fn fault_a_fusion_merging_different_guards_is_refused() {
        use velus_obc::ast::{step_name, Block, ObcExpr, Stmt};
        use velus_ops::{CConst, CTy};
        let src = "
            node f(c: bool) returns (a: int)
            var k: bool;
            let
              k = c;
              a = if k then 1 else 0;
            tel
        ";
        let (prog, _) = velus_lustre::compile_to_nlustre::<ClightOps>(src).unwrap();
        let mut obc = velus_obc::translate::translate_program(&prog).unwrap();
        // The step body `if k { a := 1 }; if c { k := true }`: well typed
        // and Fusible, with two conditionals on different guards.
        let step = obc.classes[0]
            .methods
            .iter_mut()
            .find(|m| m.name == step_name())
            .unwrap();
        let ex = &mut step.exprs;
        let (k, c) = (
            ex.push(ObcExpr::Var(Ident::new("k"), CTy::Bool)),
            ex.push(ObcExpr::Var(Ident::new("c"), CTy::Bool)),
        );
        let one = ex.push(ObcExpr::Const(CConst::int(1)));
        let yes = ex.push(ObcExpr::Const(CConst::bool(true)));
        step.body = Block(vec![
            Stmt::If(k, Stmt::Assign(Ident::new("a"), one).into(), Block::new()),
            Stmt::If(c, Stmt::Assign(Ident::new("k"), yes).into(), Block::new()),
        ]);
        check_translated(&obc).unwrap();
        check_fused(&fuse_program(obc.clone())).unwrap();
        // Merged under `k`, the second branch writes its own guard.
        merge_any_guards(&mut obc);
        assert_eq!(code(check_fused(&obc).unwrap_err()), codes::E0701);
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
        // And the schedule stage both fixes and re-checks it.
        let mut observe = |_: Stage, _: std::time::Duration| {};
        let mut staged =
            StagedPipeline::from_program(prog, NodeId::new(0), Diagnostics::new(), &mut observe)
                .unwrap();
        staged
            .snlustre()
            .unwrap()
            .nodes
            .iter()
            .try_for_each(velus_nlustre::deps::check_schedule)
            .unwrap();
    }
}
