//! The differential-semantics campaign engine.
//!
//! One seed = one experiment on the paper's end-to-end theorem: generate
//! a random well-formed program ([`crate::gen`]), optionally corrupt its
//! source ([`crate::mutate`]), compile it once, and run the full oracle
//! set — unscheduled vs scheduled dataflow, memory semantics with
//! `MemCorres`, Obc unfused and fused, step-driven Clight with
//! `staterep`, the volatile trace of the generated `main`
//! ([`velus::run_oracles`]) — plus the lint-soundness oracle, which
//! holds the static analyses' trap claims against the Clight execution
//! (see [`TrapClaim`]).
//!
//! On a divergence or a panic the engine **shrinks** the failing case —
//! deleting nodes, inputs, and equations, simplifying expressions, and
//! truncating the input prefix, re-checking the oracle after every step —
//! and packages a [`Reproducer`]: the minimized `.lus` source plus a JSON
//! record (seed, generator configuration, divergence point, oracle pair,
//! exact input streams). Records live in `tests/diff_seeds/` and are
//! replayed as regressions by `tests/diff_seeds.rs`.
//!
//! The proptest suite (`tests/differential.rs`), the campaign CLI
//! (`velus-bench --bin diff`), and CI all drive this one implementation.
//!
//! # Float policy
//!
//! Floats are compared **bit-exactly**: [`velus_ops::CVal`] equality is
//! `to_bits()` equality, and every level of the chain evaluates the same
//! `f64`/`f32` operations in the same order, so any bit difference is a
//! genuine semantic divergence, not rounding noise. Records carry
//! `"float_policy": "bit-exact"` and serialize float inputs as hex bit
//! patterns so replay is exact.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use velus::{Compiled, StagedPipeline, VelusError};
use velus_clight::generate::{method_fn_name, out_struct_name};
use velus_clight::interp::{Machine, RVal};
use velus_clight::ClightError;
use velus_common::{json_escape, Diagnostics, Ident, SpanMap};
use velus_nlustre::ast::{CExpr, Equation, Expr, Program};
use velus_nlustre::streams::{SVal, StreamSet};
use velus_obc::ast::{reset_name, step_name};
use velus_ops::{CConst, CTy, CVal, ClightOps, Literal, Ops};

use crate::gen::{gen_inputs, gen_program, GenConfig};
use crate::json::Json;
use crate::mutate::mutate;
use crate::render::lustre_source;

/// The record-format version written into every JSON reproducer.
pub const RECORD_FORMAT: u64 = 1;

/// The float comparison policy of the whole campaign (see the module
/// docs): bit-pattern equality, no tolerance.
pub const FLOAT_POLICY: &str = "bit-exact";

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// A named generator shape the campaign cycles through.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Stable name, recorded in reproducers (`"default"`, `"clock-heavy"`,
    /// `"floats"`).
    pub name: &'static str,
    /// The generator tunables. [`GenConfig::trap_divisors`] also sets
    /// the trap policy: under it a run that traps is an expected
    /// outcome, under every other profile it is a rig failure.
    pub gen: GenConfig,
    /// Input-prefix length checked per seed.
    pub steps: usize,
}

/// The five stock profiles: the default shape, a clock-heavy shape
/// (deep sampling, merges), a float-arithmetic shape (compared
/// bit-exactly, see the module docs), a deep-nesting shape whose
/// towering `if`/binop/`when` trees stress arena growth and deep
/// front-end traversals, and a lint-rich shape seasoned with the
/// generator's *total* lint bait (unused locals, constant conditions,
/// dead sub-clocks, interval-opaque divisors — see
/// [`GenConfig::lint_bait_pct`]), which the static analyses flag but
/// the dataflow semantics shrugs off. Every stock profile generates
/// total programs. Seeds rotate over profiles (`seed % len`), so every
/// profile is exercised by any contiguous seed block.
pub fn default_profiles() -> Vec<Profile> {
    vec![
        Profile {
            name: "default",
            gen: GenConfig::default(),
            steps: 12,
        },
        Profile {
            name: "clock-heavy",
            gen: GenConfig {
                nodes: 4,
                eqs_per_node: 8,
                expr_depth: 4,
                subclock_pct: 70,
                ..GenConfig::default()
            },
            steps: 10,
        },
        Profile {
            name: "floats",
            gen: GenConfig {
                floats: true,
                ..GenConfig::default()
            },
            steps: 10,
        },
        Profile {
            name: "deep-nesting",
            gen: GenConfig {
                nodes: 3,
                eqs_per_node: 4,
                expr_depth: 9,
                subclock_pct: 25,
                ..GenConfig::default()
            },
            steps: 10,
        },
        Profile {
            name: "lint-rich",
            gen: GenConfig {
                lint_bait_pct: 70,
                ..GenConfig::default()
            },
            steps: 10,
        },
    ]
}

/// The trap-allowing profile: divisors may be constant zero or form
/// the `i32::MIN / -1` overflow ([`GenConfig::trap_divisors`]), plus
/// lint bait. Its programs may have no dataflow semantics; what the
/// campaign checks on them is that every run — trapping or not —
/// matches the lint claim. Part of [`CampaignConfig::default`], not of
/// [`default_profiles`].
pub fn lint_traps_profile() -> Profile {
    Profile {
        name: "lint-traps",
        gen: GenConfig {
            trap_divisors: true,
            lint_bait_pct: 40,
            ..GenConfig::default()
        },
        steps: 10,
    }
}

/// Campaign tunables.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Generator profiles; seed `s` uses `profiles[s % len]`.
    pub profiles: Vec<Profile>,
    /// Percentage (0–100) of seeds whose source is mutated before
    /// compilation. Mutants that no longer compile count as rejected,
    /// not as failures.
    pub mutate_pct: u32,
    /// Maximum shrink attempts (recompile-and-recheck cycles) per
    /// failing seed.
    pub shrink_budget: usize,
}

impl Default for CampaignConfig {
    /// The stock profiles plus [`lint_traps_profile`].
    fn default() -> CampaignConfig {
        let mut profiles = default_profiles();
        profiles.push(lint_traps_profile());
        CampaignConfig {
            profiles,
            mutate_pct: 10,
            shrink_budget: 400,
        }
    }
}

// ---------------------------------------------------------------------------
// Checking one case
// ---------------------------------------------------------------------------

/// The located failure of one oracle pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureInfo {
    /// Which oracle pair disagreed: one of the [`velus::OracleId`] names,
    /// `"lint-soundness"` for a trap claim the execution broke, or
    /// `"harness"` for an internal rig error.
    pub oracle: String,
    /// The first disagreeing instant, when the oracle is per-instant.
    pub instant: Option<usize>,
    /// The output stream index, when the disagreement is per-output.
    pub output: Option<usize>,
    /// What the reference side produced.
    pub left: String,
    /// What the later stage produced.
    pub right: String,
}

/// The classified result of checking one program against the oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every oracle pair agreed on the whole prefix (under a
    /// trap-allowing policy: or the program has no dataflow semantics
    /// and its Clight run matched the lint claim).
    Pass,
    /// The compiler rejected the source with a coded diagnostic.
    CompileFail {
        /// The first diagnostic code (e.g. `"E0201"`).
        code: String,
        /// The rendered error.
        detail: String,
    },
    /// The program has no dataflow semantics on these inputs (e.g. a
    /// division by zero) — the theorem is vacuous, nothing to compare.
    SemFail {
        /// The rendered semantic error.
        detail: String,
    },
    /// Two stages of the chain disagreed, or an execution broke a lint
    /// claim: the theorem (or the analysis) failed.
    Diverged(FailureInfo),
    /// Some stage panicked instead of returning.
    Panicked {
        /// The panic payload.
        detail: String,
    },
}

impl CheckOutcome {
    /// Whether this outcome is acceptable when *replaying* a checked-in
    /// reproducer: the bug must no longer manifest, but a fix may
    /// legitimately turn a once-accepted mutant into a compile or
    /// semantic failure.
    pub fn acceptable_on_replay(&self) -> bool {
        !matches!(
            self,
            CheckOutcome::Diverged(_) | CheckOutcome::Panicked { .. }
        )
    }

    /// Whether this outcome reproduces a failure (used as the default
    /// shrink predicate).
    pub fn is_failure(&self) -> bool {
        !self.acceptable_on_replay()
    }
}

/// The strongest trap claim the lint findings make about a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapClaim {
    /// `E0110`/`E0111` present: the division executes on every step and
    /// always traps, so the first step must trap.
    Guaranteed,
    /// `W0102` present (and no guarantee): execution may trap or not.
    Possible,
    /// No trap-related finding: the analysis proved every division,
    /// modulo and narrowing cast safe, so no execution may trap.
    Clean,
}

impl TrapClaim {
    /// The stable token used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TrapClaim::Guaranteed => "guaranteed-trap",
            TrapClaim::Possible => "possible-trap",
            TrapClaim::Clean => "clean",
        }
    }
}

/// What the lint-soundness oracle saw: the claim, and the step at which
/// the Clight execution trapped, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimCheck {
    /// The strongest trap claim of the lint findings.
    pub claim: TrapClaim,
    /// The step that trapped (an undefined operation), if any.
    pub trapped: Option<usize>,
}

/// The result of [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// The classified outcome.
    pub outcome: CheckOutcome,
    /// The claim held against the execution, when the program compiled
    /// and ran (absent when it did not compile, the chain diverged, the
    /// Clight run failed, or a stage panicked).
    pub claim: Option<ClaimCheck>,
}

impl From<CheckOutcome> for Checked {
    fn from(outcome: CheckOutcome) -> Checked {
        Checked {
            outcome,
            claim: None,
        }
    }
}

pub(crate) fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Compiles `source` once through the [`StagedPipeline`], collecting the
/// lint findings over the scheduled program (what `velus lint`
/// reports) on the way.
fn compile_linted(
    source: &str,
    root: Option<&str>,
) -> Result<(Compiled, Diagnostics), CheckOutcome> {
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<_, VelusError> {
        let mut observe = |_, _| {};
        let mut staged = StagedPipeline::from_source(source, root, &mut observe)?;
        let findings = staged.lint()?.clone();
        Ok((staged.into_compiled()?, findings))
    }));
    match run {
        Ok(Ok(pair)) => Ok(pair),
        Ok(Err(e)) => {
            let code = e
                .diagnostics(&SpanMap::new())
                .iter()
                .next()
                .map_or("E0000", |d| d.code.id)
                .to_owned();
            Err(CheckOutcome::CompileFail {
                code,
                detail: e.to_string(),
            })
        }
        Err(p) => Err(CheckOutcome::Panicked {
            detail: format!("compile panicked: {}", panic_message(p)),
        }),
    }
}

fn clip(s: &str) -> String {
    const MAX: usize = 2000;
    if s.len() <= MAX {
        return s.to_owned();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [{} bytes clipped]", &s[..end], s.len() - end)
}

/// The strongest trap claim in a finding set.
fn claim_of(findings: &Diagnostics) -> TrapClaim {
    let has = |id: &str| findings.iter().any(|d| d.code.id == id);
    if has("E0110") || has("E0111") {
        TrapClaim::Guaranteed
    } else if has("W0102") {
        TrapClaim::Possible
    } else {
        TrapClaim::Clean
    }
}

/// Drives the compiled root step by step for `steps` instants.
///
/// Returns `Ok(None)` for a trap-free run, `Ok(Some(i))` when step `i`
/// trapped (an undefined operation, the only legitimate runtime
/// failure), and `Err` for any *other* execution error — which a
/// well-formed program must never produce.
fn drive(
    c: &Compiled,
    inputs: &StreamSet<ClightOps>,
    steps: usize,
) -> Result<Option<usize>, String> {
    let root = c.root;
    let node = c
        .snlustre
        .node(root)
        .ok_or_else(|| format!("root {root} missing from the scheduled program"))?;
    let err = |e: ClightError| e.to_string();

    let mut machine = Machine::new(&c.clight).map_err(err)?;
    let selfb = machine.alloc_struct(root).map_err(err)?;
    machine
        .call(method_fn_name(root, reset_name()), &[RVal::Ptr(selfb, 0)])
        .map_err(err)?;
    let outb = if node.outputs.len() >= 2 {
        Some(
            machine
                .alloc_struct(out_struct_name(root, step_name()))
                .map_err(err)?,
        )
    } else {
        None
    };

    let step_fn = method_fn_name(root, step_name());
    let mut args = Vec::with_capacity(2 + inputs.len());
    for i in 0..steps {
        args.clear();
        args.push(RVal::Ptr(selfb, 0));
        if let Some(b) = outb {
            args.push(RVal::Ptr(b, 0));
        }
        for stream in inputs {
            match stream.get(i) {
                Some(SVal::Pres(v)) => args.push(RVal::Scalar(*v)),
                other => return Err(format!("input not present at step {i}: {other:?}")),
            }
        }
        match machine.call(step_fn, &args) {
            Ok(_) => {}
            Err(ClightError::UndefinedOperation(_)) => return Ok(Some(i)),
            Err(e) => return Err(format!("non-trap execution error at step {i}: {e}")),
        }
    }
    Ok(None)
}

/// The lint-soundness verdict: `Some` when the execution contradicts
/// the claim. A guaranteed trap executes on every step, so step 0 must
/// trap; a clean program may never trap; a possible trap is consistent
/// either way.
fn broken_claim(run: ClaimCheck, steps: usize) -> Option<FailureInfo> {
    const GUARANTEED: &str = "E0110/E0111: a trap on every step, from step 0";
    let (left, right) = match (run.claim, run.trapped) {
        (TrapClaim::Guaranteed, Some(0)) => return None,
        (TrapClaim::Guaranteed, Some(i)) => (GUARANTEED, format!("step 0 ran, step {i} trapped")),
        (TrapClaim::Guaranteed, None) => (GUARANTEED, format!("{steps} steps ran clean")),
        (TrapClaim::Clean, Some(i)) => (
            "no trap finding: no step traps",
            format!("step {i} trapped"),
        ),
        _ => return None,
    };
    Some(lint_divergence(run.trapped, left.to_owned(), right))
}

fn lint_divergence(instant: Option<usize>, left: String, right: String) -> FailureInfo {
    FailureInfo {
        oracle: "lint-soundness".to_owned(),
        instant,
        output: None,
        left,
        right,
    }
}

/// Compiles `source` once and runs the complete oracle set on `steps`
/// instants of `inputs`: the semantic chain of [`velus::run_oracles`],
/// then the lint-soundness oracle, which holds the Clight execution
/// against the lint findings' [`TrapClaim`]. Panics at any stage are
/// caught and reported as [`CheckOutcome::Panicked`].
///
/// `traps_allowed` is the trap policy ([`GenConfig::trap_divisors`]).
/// When set, a program without a dataflow semantics passes once its
/// Clight run matched the lint claim: it may trap, or run clean where
/// the dataflow semantics, which evaluates both branches of an `if`,
/// found an undefined operation in the branch not taken. Otherwise such
/// a program stays a [`CheckOutcome::SemFail`].
pub fn check(
    source: &str,
    root: Option<&str>,
    inputs: &StreamSet<ClightOps>,
    steps: usize,
    traps_allowed: bool,
) -> Checked {
    match compile_linted(source, root) {
        Ok((compiled, findings)) => {
            check_compiled(&compiled, &findings, inputs, steps, traps_allowed)
        }
        Err(out) => out.into(),
    }
}

/// [`check`] on an already compiled and linted program.
fn check_compiled(
    c: &Compiled,
    findings: &Diagnostics,
    inputs: &StreamSet<ClightOps>,
    steps: usize,
    traps_allowed: bool,
) -> Checked {
    let sem_error = match catch_unwind(AssertUnwindSafe(|| velus::run_oracles(c, inputs, steps))) {
        Ok(Ok(rep)) => match rep.divergence {
            Some(d) => {
                return CheckOutcome::Diverged(FailureInfo {
                    oracle: d.oracle.name().to_owned(),
                    instant: Some(d.instant),
                    output: d.output,
                    left: clip(&d.left),
                    right: clip(&d.right),
                })
                .into()
            }
            // The whole chain agreed, so the Clight ran every step.
            None => None,
        },
        Ok(Err(VelusError::Sem(e))) => Some(e.to_string()),
        Ok(Err(e)) => {
            return CheckOutcome::Diverged(FailureInfo {
                oracle: "harness".to_owned(),
                instant: None,
                output: None,
                left: "a structured oracle report".to_owned(),
                right: clip(&e.to_string()),
            })
            .into()
        }
        Err(p) => {
            return CheckOutcome::Panicked {
                detail: format!("oracle run panicked: {}", panic_message(p)),
            }
            .into()
        }
    };

    let claim = claim_of(findings);
    // Without a dataflow semantics the chain stopped before the Clight:
    // run it alone to see whether (and where) it traps.
    let trapped = match &sem_error {
        None => None,
        Some(_) => match catch_unwind(AssertUnwindSafe(|| drive(c, inputs, steps))) {
            Ok(Ok(trapped)) => trapped,
            Ok(Err(detail)) => {
                return CheckOutcome::Diverged(lint_divergence(
                    None,
                    format!("{}: a trap or a clean run", claim.name()),
                    detail,
                ))
                .into()
            }
            Err(p) => {
                return CheckOutcome::Panicked {
                    detail: format!("execution panicked: {}", panic_message(p)),
                }
                .into()
            }
        },
    };
    let run = ClaimCheck { claim, trapped };
    let outcome = match (broken_claim(run, steps), sem_error) {
        (Some(info), _) => CheckOutcome::Diverged(info),
        (None, None) => CheckOutcome::Pass,
        (None, Some(_)) if traps_allowed => CheckOutcome::Pass,
        (None, Some(detail)) => CheckOutcome::SemFail { detail },
    };
    Checked {
        outcome,
        claim: Some(run),
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// A failing case in shrinkable form: the program AST, its root, the
/// input streams (index-aligned with the root's input declarations), and
/// the prefix length.
#[derive(Debug, Clone)]
pub struct ShrinkCase {
    /// The program (mutated in place by the shrinker).
    pub prog: Program<ClightOps>,
    /// The root node name (never deleted).
    pub root: Ident,
    /// Input streams for the root node.
    pub inputs: StreamSet<ClightOps>,
    /// Checked prefix length.
    pub steps: usize,
}

impl ShrinkCase {
    fn set_steps(&mut self, steps: usize) {
        self.steps = steps;
        for s in &mut self.inputs {
            s.truncate(steps);
        }
    }

    /// Renders the case back to surface Lustre.
    pub fn source(&self) -> String {
        lustre_source(&self.prog)
    }
}

/// What the shrinker did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate cases tried (predicate invocations).
    pub attempts: usize,
    /// Candidates accepted (each one strictly smaller).
    pub accepted: usize,
}

fn default_const(ty: CTy) -> Option<CConst> {
    match ty {
        CTy::Bool => Some(CConst::bool(false)),
        CTy::F32 | CTy::F64 => ClightOps::const_of_literal(&Literal::Float(0.0), &ty),
        _ => ClightOps::const_of_literal(&Literal::Int(0), &ty),
    }
}

fn expr_ty(e: &Expr<ClightOps>) -> CTy {
    match e {
        Expr::Var(_, ty) => *ty,
        Expr::Const(c) => c.ty(),
        Expr::Unop(_, _, ty) => *ty,
        Expr::Binop(_, _, _, ty) => *ty,
        Expr::When(inner, _, _) => expr_ty(inner),
    }
}

/// Pre-order walk over every expression node; `f` returns `true` to stop.
fn walk_expr(e: &mut Expr<ClightOps>, f: &mut dyn FnMut(&mut Expr<ClightOps>) -> bool) -> bool {
    if f(e) {
        return true;
    }
    match e {
        Expr::Unop(_, inner, _) => walk_expr(inner, f),
        Expr::Binop(_, a, b, _) => walk_expr(a, f) || walk_expr(b, f),
        Expr::When(inner, _, _) => walk_expr(inner, f),
        Expr::Var(..) | Expr::Const(_) => false,
    }
}

fn walk_cexpr(ce: &mut CExpr<ClightOps>, f: &mut dyn FnMut(&mut Expr<ClightOps>) -> bool) -> bool {
    match ce {
        CExpr::Merge(_, t, e) => walk_cexpr(t, f) || walk_cexpr(e, f),
        CExpr::If(c, t, e) => walk_expr(c, f) || walk_cexpr(t, f) || walk_cexpr(e, f),
        CExpr::Expr(e) => walk_expr(e, f),
    }
}

fn walk_program(
    prog: &mut Program<ClightOps>,
    f: &mut dyn FnMut(&mut Expr<ClightOps>) -> bool,
) -> bool {
    for node in &mut prog.nodes {
        for eq in &mut node.eqs {
            let stopped = match eq {
                Equation::Def { rhs, .. } => walk_cexpr(rhs, f),
                Equation::Fby { rhs, .. } => walk_expr(rhs, f),
                Equation::Call { args, .. } => args.iter_mut().any(|a| walk_expr(a, f)),
            };
            if stopped {
                return true;
            }
        }
    }
    false
}

fn count_expr_sites(prog: &mut Program<ClightOps>) -> usize {
    let mut n = 0;
    walk_program(prog, &mut |_| {
        n += 1;
        false
    });
    n
}

/// Replaces the `target`-th expression site (pre-order) with the
/// type-default constant; returns whether anything changed (the site may
/// already be a constant, or have no default for its type).
fn replace_expr_site(prog: &mut Program<ClightOps>, target: usize) -> bool {
    let mut k = 0;
    let mut replaced = false;
    walk_program(prog, &mut |e| {
        if k == target {
            k += 1;
            if !matches!(e, Expr::Const(_)) {
                if let Some(c) = default_const(expr_ty(e)) {
                    *e = Expr::Const(c);
                    replaced = true;
                }
            }
            true
        } else {
            k += 1;
            false
        }
    });
    replaced
}

fn count_if_sites(prog: &mut Program<ClightOps>) -> usize {
    let mut n = 0;
    for node in &mut prog.nodes {
        for eq in &mut node.eqs {
            if let Equation::Def { rhs, .. } = eq {
                count_ifs(rhs, &mut n);
            }
        }
    }
    n
}

fn count_ifs(ce: &CExpr<ClightOps>, n: &mut usize) {
    match ce {
        CExpr::If(_, t, e) => {
            *n += 1;
            count_ifs(t, n);
            count_ifs(e, n);
        }
        CExpr::Merge(_, t, e) => {
            count_ifs(t, n);
            count_ifs(e, n);
        }
        CExpr::Expr(_) => {}
    }
}

/// Collapses the `target`-th `if` (pre-order over `Def` right-hand
/// sides) to its then- or else-branch.
fn collapse_if_site(prog: &mut Program<ClightOps>, target: usize, keep_then: bool) -> bool {
    let mut k = 0;
    for node in &mut prog.nodes {
        for eq in &mut node.eqs {
            if let Equation::Def { rhs, .. } = eq {
                if collapse_ifs(rhs, target, keep_then, &mut k) {
                    return true;
                }
            }
        }
    }
    false
}

fn collapse_ifs(ce: &mut CExpr<ClightOps>, target: usize, keep_then: bool, k: &mut usize) -> bool {
    if let CExpr::If(_, t, e) = ce {
        if *k == target {
            *ce = if keep_then {
                (**t).clone()
            } else {
                (**e).clone()
            };
            return true;
        }
        *k += 1;
        let (t, e) = match ce {
            CExpr::If(_, t, e) => (t, e),
            _ => unreachable!("just matched"),
        };
        return collapse_ifs(t, target, keep_then, k) || collapse_ifs(e, target, keep_then, k);
    }
    if let CExpr::Merge(_, t, e) = ce {
        return collapse_ifs(t, target, keep_then, k) || collapse_ifs(e, target, keep_then, k);
    }
    false
}

/// Deletes equation `eq_idx` of node `node_idx` along with the local
/// declarations of the variables it defines; refuses to delete
/// output-defining equations.
fn delete_equation(prog: &mut Program<ClightOps>, node_idx: usize, eq_idx: usize) -> bool {
    let node = &mut prog.nodes[node_idx];
    let defined: Vec<Ident> = match &node.eqs[eq_idx] {
        Equation::Def { x, .. } | Equation::Fby { x, .. } => vec![*x],
        Equation::Call { xs, .. } => xs.clone(),
    };
    if defined
        .iter()
        .any(|x| node.outputs.iter().any(|d| d.name == *x))
    {
        return false;
    }
    node.eqs.remove(eq_idx);
    node.locals.retain(|d| !defined.contains(&d.name));
    true
}

/// Shrinks `case` in place while `still_fails` keeps returning `true`
/// for candidates, spending at most `budget` predicate calls.
///
/// Passes, repeated to a fixpoint: truncate the checked prefix (halving
/// then decrementing, truncating the input streams with it), delete
/// non-root nodes, delete root inputs (declaration and stream together),
/// delete equations (with their local declarations; output definitions
/// are kept), collapse `if`s to one branch, and replace subexpressions
/// by type-default constants. Invalid candidates — e.g. deleting a node
/// something still calls — are rejected naturally because the predicate
/// recompiles and the compile failure is not the original failure.
pub fn shrink(
    case: &mut ShrinkCase,
    budget: usize,
    still_fails: &mut dyn FnMut(&ShrinkCase) -> bool,
) -> ShrinkStats {
    let mut stats = ShrinkStats::default();
    let mut try_candidate =
        |case: &mut ShrinkCase, cand: ShrinkCase, stats: &mut ShrinkStats| -> bool {
            stats.attempts += 1;
            if still_fails(&cand) {
                *case = cand;
                stats.accepted += 1;
                true
            } else {
                false
            }
        };

    let mut improved = true;
    while improved && stats.attempts < budget {
        improved = false;

        // 1. Prefix truncation: halve while it keeps failing, then step.
        while case.steps > 1 && stats.attempts < budget {
            let mut cand = case.clone();
            cand.set_steps(case.steps / 2);
            if try_candidate(case, cand, &mut stats) {
                improved = true;
            } else {
                break;
            }
        }
        while case.steps > 1 && stats.attempts < budget {
            let mut cand = case.clone();
            cand.set_steps(case.steps - 1);
            if try_candidate(case, cand, &mut stats) {
                improved = true;
            } else {
                break;
            }
        }

        // 2. Delete whole nodes (never the root).
        let mut i = 0;
        while i < case.prog.nodes.len() && stats.attempts < budget {
            if case.prog.nodes[i].name == case.root {
                i += 1;
                continue;
            }
            let mut cand = case.clone();
            cand.prog.nodes.remove(i);
            if try_candidate(case, cand, &mut stats) {
                improved = true;
            } else {
                i += 1;
            }
        }

        // 3. Delete root inputs, declaration and stream together.
        let root_idx = case.prog.nodes.iter().position(|n| n.name == case.root);
        if let Some(root_idx) = root_idx {
            let mut k = 0;
            while k < case.prog.nodes[root_idx].inputs.len() && stats.attempts < budget {
                let mut cand = case.clone();
                cand.prog.nodes[root_idx].inputs.remove(k);
                if k < cand.inputs.len() {
                    cand.inputs.remove(k);
                }
                if try_candidate(case, cand, &mut stats) {
                    improved = true;
                } else {
                    k += 1;
                }
            }
        }

        // 4. Delete equations (and their local declarations).
        for node_idx in 0..case.prog.nodes.len() {
            let mut eq_idx = 0;
            while node_idx < case.prog.nodes.len()
                && eq_idx < case.prog.nodes[node_idx].eqs.len()
                && stats.attempts < budget
            {
                let mut cand = case.clone();
                if !delete_equation(&mut cand.prog, node_idx, eq_idx) {
                    eq_idx += 1;
                    continue;
                }
                if try_candidate(case, cand, &mut stats) {
                    improved = true;
                } else {
                    eq_idx += 1;
                }
            }
        }

        // 5. Collapse ifs to a single branch.
        let mut site = 0;
        while site < count_if_sites(&mut case.prog) && stats.attempts < budget {
            let mut advanced = true;
            for keep_then in [true, false] {
                let mut cand = case.clone();
                if !collapse_if_site(&mut cand.prog, site, keep_then) {
                    continue;
                }
                if try_candidate(case, cand, &mut stats) {
                    improved = true;
                    advanced = false;
                    break;
                }
            }
            if advanced {
                site += 1;
            }
        }

        // 6. Replace subexpressions by type-default constants.
        let mut site = 0;
        while site < count_expr_sites(&mut case.prog) && stats.attempts < budget {
            let mut cand = case.clone();
            if !replace_expr_site(&mut cand.prog, site) {
                site += 1;
                continue;
            }
            if try_candidate(case, cand, &mut stats) {
                improved = true;
                site += 1; // The site is now a constant; move on.
            } else {
                site += 1;
            }
        }
    }
    stats
}

/// Source-level shrinking for cases with no usable AST (a mutant whose
/// *compilation* panics): delete line blocks (halving, then single
/// lines) while `still_fails` holds.
pub fn shrink_source(
    source: &mut String,
    budget: usize,
    still_fails: &mut dyn FnMut(&str) -> bool,
) -> ShrinkStats {
    let mut stats = ShrinkStats::default();
    let mut chunk = {
        let lines = source.lines().count();
        (lines / 2).max(1)
    };
    loop {
        let lines: Vec<&str> = source.lines().collect();
        let mut removed_any = false;
        let mut start = 0;
        let mut next: Option<String> = None;
        while start < lines.len() && stats.attempts < budget {
            let end = (start + chunk).min(lines.len());
            let candidate: String =
                lines[..start]
                    .iter()
                    .chain(&lines[end..])
                    .fold(String::new(), |mut acc, l| {
                        acc.push_str(l);
                        acc.push('\n');
                        acc
                    });
            stats.attempts += 1;
            if still_fails(&candidate) {
                stats.accepted += 1;
                next = Some(candidate);
                removed_any = true;
                break;
            }
            start = end;
        }
        if let Some(n) = next {
            *source = n;
            continue;
        }
        if stats.attempts >= budget || (!removed_any && chunk == 1) {
            return stats;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Reproducers
// ---------------------------------------------------------------------------

/// How a seed failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Two stages of the chain disagreed.
    Divergence,
    /// Some stage panicked.
    Panic,
    /// An *unmutated* generated program failed to compile — a bug in the
    /// generator or the compiler, not a finding about the theorem.
    RigCompileFail,
    /// An *unmutated* generated program had no dataflow semantics — the
    /// generator's totality-by-construction guarantee broke.
    RigSemantics,
}

impl FailureKind {
    /// The JSON token (`"divergence"`, `"panic"`, …).
    pub fn token(self) -> &'static str {
        match self {
            FailureKind::Divergence => "divergence",
            FailureKind::Panic => "panic",
            FailureKind::RigCompileFail => "rig-compile-fail",
            FailureKind::RigSemantics => "rig-semantics",
        }
    }
}

/// A packaged failing case: everything needed to reproduce, stored as a
/// `.lus` + `.json` pair under `tests/diff_seeds/`.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The failing seed.
    pub seed: u64,
    /// The profile name the seed used.
    pub profile: String,
    /// The generator configuration.
    pub gen: GenConfig,
    /// Whether the source was mutated before compilation.
    pub mutated: bool,
    /// The failure class.
    pub kind: FailureKind,
    /// The located oracle failure, for divergences.
    pub info: Option<FailureInfo>,
    /// Free-form detail (panic message, compile error, …).
    pub detail: String,
    /// The (minimized) surface source.
    pub source: String,
    /// The root node, when known.
    pub root: Option<String>,
    /// The checked prefix length.
    pub steps: usize,
    /// The exact (possibly shrunk) input streams; `None` when the
    /// failure precedes input generation (compile-time panic).
    pub inputs: Option<StreamSet<ClightOps>>,
    /// Shrinker statistics.
    pub shrink: ShrinkStats,
}

/// The stable base name of a reproducer record: `seed-<zero-padded>`.
pub fn record_name(seed: u64) -> String {
    format!("seed-{seed:020}")
}

/// Serializes one stream value as a typed token: `"abs"`, `"i32:<n>"`,
/// `"i64:<n>"`, or the bit patterns `"f32:<8 hex>"` / `"f64:<16 hex>"`
/// (floats are compared — and therefore stored — bit-exactly).
pub fn sval_token(v: &SVal<ClightOps>) -> String {
    match v {
        SVal::Abs => "abs".to_owned(),
        SVal::Pres(CVal::Int(x)) => format!("i32:{x}"),
        SVal::Pres(CVal::Long(x)) => format!("i64:{x}"),
        SVal::Pres(CVal::Single(x)) => format!("f32:{:08x}", x.to_bits()),
        SVal::Pres(CVal::Float(x)) => format!("f64:{:016x}", x.to_bits()),
    }
}

/// Parses a [`sval_token`] back.
///
/// # Errors
///
/// A message naming the malformed token.
pub fn parse_sval(tok: &str) -> Result<SVal<ClightOps>, String> {
    if tok == "abs" {
        return Ok(SVal::Abs);
    }
    let bad = || format!("malformed stream value token {tok:?}");
    let (tag, rest) = tok.split_once(':').ok_or_else(bad)?;
    let val = match tag {
        "i32" => CVal::int(rest.parse().map_err(|_| bad())?),
        "i64" => CVal::long(rest.parse().map_err(|_| bad())?),
        "f32" => CVal::single(f32::from_bits(
            u32::from_str_radix(rest, 16).map_err(|_| bad())?,
        )),
        "f64" => CVal::float(f64::from_bits(
            u64::from_str_radix(rest, 16).map_err(|_| bad())?,
        )),
        _ => return Err(bad()),
    };
    Ok(SVal::Pres(val))
}

/// Renders the JSON record of a reproducer (the `.lus` source itself is
/// stored next to it, named by the `source_file` field).
pub fn render_record(rep: &Reproducer) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let field = |out: &mut String, key: &str, val: &str, last: bool| {
        out.push_str("  \"");
        out.push_str(&json_escape(key));
        out.push_str("\": ");
        out.push_str(val);
        if !last {
            out.push(',');
        }
        out.push('\n');
    };
    let s = |v: &str| format!("\"{}\"", json_escape(v));
    field(&mut out, "format", &RECORD_FORMAT.to_string(), false);
    field(&mut out, "seed", &rep.seed.to_string(), false);
    field(&mut out, "profile", &s(&rep.profile), false);
    let g = &rep.gen;
    field(
        &mut out,
        "gen",
        &format!(
            "{{\"nodes\": {}, \"eqs_per_node\": {}, \"expr_depth\": {}, \"subclock_pct\": {}, \"floats\": {}, \"lint_bait_pct\": {}, \"trap_divisors\": {}}}",
            g.nodes,
            g.eqs_per_node,
            g.expr_depth,
            g.subclock_pct,
            g.floats,
            g.lint_bait_pct,
            g.trap_divisors
        ),
        false,
    );
    field(&mut out, "mutated", &rep.mutated.to_string(), false);
    field(&mut out, "float_policy", &s(FLOAT_POLICY), false);
    field(&mut out, "kind", &s(rep.kind.token()), false);
    if let Some(info) = &rep.info {
        field(&mut out, "oracle", &s(&info.oracle), false);
        if let Some(i) = info.instant {
            field(&mut out, "instant", &i.to_string(), false);
        }
        if let Some(k) = info.output {
            field(&mut out, "output", &k.to_string(), false);
        }
        field(&mut out, "left", &s(&info.left), false);
        field(&mut out, "right", &s(&info.right), false);
    }
    field(&mut out, "detail", &s(&rep.detail), false);
    if let Some(root) = &rep.root {
        field(&mut out, "root", &s(root), false);
    }
    field(&mut out, "steps", &rep.steps.to_string(), false);
    match &rep.inputs {
        None => field(&mut out, "inputs", "null", false),
        Some(streams) => {
            let mut b = String::from("[");
            for (k, stream) in streams.iter().enumerate() {
                if k > 0 {
                    b.push_str(", ");
                }
                b.push('[');
                for (i, v) in stream.iter().enumerate() {
                    if i > 0 {
                        b.push_str(", ");
                    }
                    b.push_str(&s(&sval_token(v)));
                }
                b.push(']');
            }
            b.push(']');
            field(&mut out, "inputs", &b, false);
        }
    }
    field(
        &mut out,
        "shrink",
        &format!(
            "{{\"attempts\": {}, \"accepted\": {}}}",
            rep.shrink.attempts, rep.shrink.accepted
        ),
        false,
    );
    field(
        &mut out,
        "source_file",
        &s(&format!("{}.lus", record_name(rep.seed))),
        true,
    );
    out.push_str("}\n");
    out
}

/// Writes the `.lus` + `.json` pair for `rep` under `dir` (created if
/// missing); returns the two paths.
///
/// # Errors
///
/// Filesystem errors.
pub fn write_reproducer(dir: &Path, rep: &Reproducer) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let base = record_name(rep.seed);
    let lus = dir.join(format!("{base}.lus"));
    let json = dir.join(format!("{base}.json"));
    std::fs::write(&lus, &rep.source)?;
    std::fs::write(&json, render_record(rep))?;
    Ok((lus, json))
}

/// Replays a reproducer record against the current compiler: parses the
/// JSON, decodes the stored inputs, and re-runs [`check`] on `source`
/// under the record's trap policy (`gen.trap_divisors`, `false` when
/// absent). Records without inputs (compile-time panics) only
/// re-compile.
///
/// # Errors
///
/// A malformed record (bad JSON, bad stream token).
pub fn replay(record_json: &str, source: &str) -> Result<CheckOutcome, String> {
    let record = crate::json::parse(record_json)?;
    let root = record.get("root").and_then(Json::as_str).map(str::to_owned);
    let steps = record
        .get("steps")
        .and_then(Json::as_usize)
        .ok_or("record has no usable \"steps\" field")?;
    let traps = record
        .get("gen")
        .and_then(|g| g.get("trap_divisors"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    match record.get("inputs") {
        None | Some(Json::Null) => match compile_linted(source, root.as_deref()) {
            Ok(_) => Ok(CheckOutcome::Pass),
            Err(out) => Ok(out),
        },
        Some(streams) => {
            let streams = streams.as_arr().ok_or("\"inputs\" is not an array")?;
            let mut inputs: StreamSet<ClightOps> = Vec::with_capacity(streams.len());
            for stream in streams {
                let toks = stream.as_arr().ok_or("input stream is not an array")?;
                let mut vals = Vec::with_capacity(toks.len());
                for tok in toks {
                    let tok = tok.as_str().ok_or("stream value is not a string")?;
                    vals.push(parse_sval(tok)?);
                }
                inputs.push(vals);
            }
            Ok(check(source, root.as_deref(), &inputs, steps, traps).outcome)
        }
    }
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// What one seed produced.
#[derive(Debug, Clone)]
pub enum SeedOutcome {
    /// Every oracle agreed.
    Agreed,
    /// The mutated source was rejected with a coded diagnostic — the
    /// expected fate of most mutants.
    MutantRejected {
        /// The first diagnostic code.
        code: String,
    },
    /// The (mutated) program compiled but has no dataflow semantics on
    /// the generated inputs; the theorem is vacuous there.
    Vacuous,
    /// A divergence, panic, or rig failure, with its shrunk reproducer.
    Failure(Box<Reproducer>),
}

/// One seed's result.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// The profile name it used.
    pub profile: String,
    /// What happened.
    pub outcome: SeedOutcome,
    /// The lint claim and the execution it was held against, when the
    /// seed's program compiled and ran.
    pub claim: Option<ClaimCheck>,
    /// Wall-clock nanoseconds the seed took end to end.
    pub nanos: u64,
}

/// Per-claim tallies of the lint-soundness oracle over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClaimTally {
    /// Runs claimed `guaranteed-trap`.
    pub guaranteed: usize,
    /// Runs claimed `possible-trap`.
    pub possible: usize,
    /// Runs claimed `clean`.
    pub clean: usize,
    /// Runs that actually trapped.
    pub trapped: usize,
}

/// The merged results of a campaign, sorted by seed.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-seed results, ascending by seed.
    pub results: Vec<SeedResult>,
}

impl CampaignReport {
    /// Seeds whose oracles all agreed.
    pub fn agreed(&self) -> usize {
        self.count(|o| matches!(o, SeedOutcome::Agreed))
    }

    /// Mutants rejected by the compiler.
    pub fn mutants_rejected(&self) -> usize {
        self.count(|o| matches!(o, SeedOutcome::MutantRejected { .. }))
    }

    /// Seeds where the theorem was vacuous (no dataflow semantics).
    pub fn vacuous(&self) -> usize {
        self.count(|o| matches!(o, SeedOutcome::Vacuous))
    }

    /// The failing seeds' reproducers.
    pub fn failures(&self) -> Vec<&Reproducer> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                SeedOutcome::Failure(rep) => Some(&**rep),
                _ => None,
            })
            .collect()
    }

    /// Diagnostic-code histogram of the rejected mutants.
    pub fn rejection_codes(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for r in &self.results {
            if let SeedOutcome::MutantRejected { code } = &r.outcome {
                *out.entry(code.clone()).or_insert(0) += 1;
            }
        }
        out
    }

    /// How many checked runs made each trap claim, and how many trapped.
    pub fn claims(&self) -> ClaimTally {
        let mut t = ClaimTally::default();
        for run in self.results.iter().filter_map(|r| r.claim) {
            match run.claim {
                TrapClaim::Guaranteed => t.guaranteed += 1,
                TrapClaim::Possible => t.possible += 1,
                TrapClaim::Clean => t.clean += 1,
            }
            t.trapped += usize::from(run.trapped.is_some());
        }
        t
    }

    /// Whether no seed failed.
    pub fn clean(&self) -> bool {
        self.results
            .iter()
            .all(|r| !matches!(r.outcome, SeedOutcome::Failure(_)))
    }

    fn count(&self, f: impl Fn(&SeedOutcome) -> bool) -> usize {
        self.results.iter().filter(|r| f(&r.outcome)).count()
    }
}

/// The payload of a failing seed, handed from the per-seed drivers to
/// the shrinker/packager.
struct FailingCase {
    /// The first (unshrunk) failing outcome.
    first: CheckOutcome,
    /// The AST form, when one exists (absent for compile-time panics).
    case: Option<ShrinkCase>,
    /// The surface source that was checked.
    source: String,
    root: Option<String>,
    inputs: Option<StreamSet<ClightOps>>,
    steps: usize,
}

fn shrink_and_package(
    seed: u64,
    profile: &Profile,
    mutated: bool,
    fc: FailingCase,
    budget: usize,
) -> Reproducer {
    let FailingCase {
        first,
        mut case,
        mut source,
        root,
        inputs,
        steps,
    } = fc;
    let kind = match &first {
        CheckOutcome::Panicked { .. } => FailureKind::Panic,
        _ => FailureKind::Divergence,
    };
    let mut info = match &first {
        CheckOutcome::Diverged(i) => Some(i.clone()),
        _ => None,
    };
    let mut detail = match &first {
        CheckOutcome::Panicked { detail } => detail.clone(),
        CheckOutcome::Diverged(i) => format!("{} oracle disagreed", i.oracle),
        _ => String::new(),
    };
    let mut final_inputs = inputs;
    let mut final_steps = steps;
    let mut stats = ShrinkStats::default();

    let traps = profile.gen.trap_divisors;
    if let Some(c) = case.as_mut() {
        let root_s = c.root.to_string();
        // Only shrink if the AST form actually reproduces (a mutant's
        // elaborated AST may not round-trip; then we keep the textual
        // source untouched).
        let reproduces = |cand: &ShrinkCase| {
            check(
                &cand.source(),
                Some(&root_s),
                &cand.inputs,
                cand.steps,
                traps,
            )
            .outcome
            .is_failure()
        };
        if reproduces(c) {
            stats = shrink(c, budget, &mut |cand| reproduces(cand));
            source = c.source();
            final_inputs = Some(c.inputs.clone());
            final_steps = c.steps;
            // Re-locate the (possibly moved) divergence on the final case.
            match check(&source, Some(&root_s), &c.inputs, c.steps, traps).outcome {
                CheckOutcome::Diverged(i) => {
                    detail = format!("{} oracle disagreed", i.oracle);
                    info = Some(i);
                }
                CheckOutcome::Panicked { detail: d } => detail = d,
                _ => {}
            }
        }
    } else if matches!(kind, FailureKind::Panic) {
        // No AST (the compile itself panicked): shrink the text.
        let root_ref = root.as_deref();
        stats = shrink_source(&mut source, budget, &mut |cand| {
            matches!(
                compile_linted(cand, root_ref),
                Err(CheckOutcome::Panicked { .. })
            )
        });
    }

    Reproducer {
        seed,
        profile: profile.name.to_owned(),
        gen: profile.gen.clone(),
        mutated,
        kind,
        info,
        detail,
        source,
        root,
        steps: final_steps,
        inputs: final_inputs,
        shrink: stats,
    }
}

/// Runs one seed end to end: generate, maybe mutate, compile, run every
/// oracle, and on failure shrink and package a [`Reproducer`].
///
/// Deterministic: the outcome depends only on `(seed, cfg)`. All random
/// draws come from `StdRng::seed_from_u64(seed)` in a fixed order
/// (program, mutation decision, mutation, inputs).
pub fn run_seed(seed: u64, cfg: &CampaignConfig) -> SeedResult {
    let start = std::time::Instant::now();
    let profile = &cfg.profiles[(seed % cfg.profiles.len() as u64) as usize];
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = gen_program(&mut rng, &profile.gen);
    let root = prog
        .nodes
        .last()
        .expect("generated programs are non-empty")
        .name;
    let source = lustre_source(&prog);
    let do_mutate = cfg.mutate_pct > 0 && rng.gen_range(0..100) < cfg.mutate_pct;

    let (outcome, claim) = if do_mutate {
        run_mutant(seed, profile, &mut rng, &source, cfg.shrink_budget)
    } else {
        run_generated(
            seed,
            profile,
            &mut rng,
            prog,
            root,
            &source,
            cfg.shrink_budget,
        )
    };
    SeedResult {
        seed,
        profile: profile.name.to_owned(),
        outcome,
        claim,
        nanos: start.elapsed().as_nanos() as u64,
    }
}

fn run_generated(
    seed: u64,
    profile: &Profile,
    rng: &mut StdRng,
    prog: Program<ClightOps>,
    root: Ident,
    source: &str,
    budget: usize,
) -> (SeedOutcome, Option<ClaimCheck>) {
    let node = prog.node(root).expect("root exists").clone();
    let inputs = gen_inputs(rng, &node, profile.steps);
    let root_s = root.to_string();
    let checked = check(
        source,
        Some(&root_s),
        &inputs,
        profile.steps,
        profile.gen.trap_divisors,
    );
    let outcome = match checked.outcome {
        CheckOutcome::Pass => SeedOutcome::Agreed,
        CheckOutcome::CompileFail { code, detail } => {
            // The generator promises well-formed programs; this is a rig
            // failure, reported with the unshrunk source.
            SeedOutcome::Failure(Box::new(Reproducer {
                seed,
                profile: profile.name.to_owned(),
                gen: profile.gen.clone(),
                mutated: false,
                kind: FailureKind::RigCompileFail,
                info: None,
                detail: format!("[{code}] {detail}"),
                source: source.to_owned(),
                root: Some(root_s),
                steps: profile.steps,
                inputs: Some(inputs),
                shrink: ShrinkStats::default(),
            }))
        }
        CheckOutcome::SemFail { detail } => SeedOutcome::Failure(Box::new(Reproducer {
            seed,
            profile: profile.name.to_owned(),
            gen: profile.gen.clone(),
            mutated: false,
            kind: FailureKind::RigSemantics,
            info: None,
            detail,
            source: source.to_owned(),
            root: Some(root_s),
            steps: profile.steps,
            inputs: Some(inputs),
            shrink: ShrinkStats::default(),
        })),
        first @ (CheckOutcome::Diverged(_) | CheckOutcome::Panicked { .. }) => {
            let case = ShrinkCase {
                prog,
                root,
                inputs: inputs.clone(),
                steps: profile.steps,
            };
            SeedOutcome::Failure(Box::new(shrink_and_package(
                seed,
                profile,
                false,
                FailingCase {
                    first,
                    case: Some(case),
                    source: source.to_owned(),
                    root: Some(root_s),
                    inputs: Some(inputs),
                    steps: profile.steps,
                },
                budget,
            )))
        }
    };
    (outcome, checked.claim)
}

fn run_mutant(
    seed: u64,
    profile: &Profile,
    rng: &mut StdRng,
    source: &str,
    budget: usize,
) -> (SeedOutcome, Option<ClaimCheck>) {
    let mutated = mutate(source, rng);
    // The mutation may have renamed or deleted the root node: let the
    // compiler pick its default root.
    let (compiled, findings) = match compile_linted(&mutated, None) {
        Ok(pair) => pair,
        Err(CheckOutcome::CompileFail { code, .. }) => {
            return (SeedOutcome::MutantRejected { code }, None)
        }
        Err(first) => {
            let rep = shrink_and_package(
                seed,
                profile,
                true,
                FailingCase {
                    first,
                    case: None,
                    source: mutated,
                    root: None,
                    inputs: None,
                    steps: profile.steps,
                },
                budget,
            );
            return (SeedOutcome::Failure(Box::new(rep)), None);
        }
    };
    let root = compiled.root;
    let node = match compiled.snlustre.node(root) {
        Some(n) => n.clone(),
        None => {
            let code = "E0000".to_owned();
            return (SeedOutcome::MutantRejected { code }, None);
        }
    };
    let inputs = gen_inputs(rng, &node, profile.steps);
    let checked = check_compiled(
        &compiled,
        &findings,
        &inputs,
        profile.steps,
        profile.gen.trap_divisors,
    );
    let outcome = match checked.outcome {
        CheckOutcome::Pass => SeedOutcome::Agreed,
        CheckOutcome::CompileFail { code, .. } => SeedOutcome::MutantRejected { code },
        CheckOutcome::SemFail { .. } => SeedOutcome::Vacuous,
        first @ (CheckOutcome::Diverged(_) | CheckOutcome::Panicked { .. }) => {
            // Shrink on the *elaborated* AST of the mutant; if that AST
            // does not round-trip the packager keeps the raw text.
            let root_s = root.to_string();
            let case = ShrinkCase {
                prog: compiled.nlustre,
                root,
                inputs: inputs.clone(),
                steps: profile.steps,
            };
            SeedOutcome::Failure(Box::new(shrink_and_package(
                seed,
                profile,
                true,
                FailingCase {
                    first,
                    case: Some(case),
                    source: mutated,
                    root: Some(root_s),
                    inputs: Some(inputs),
                    steps: profile.steps,
                },
                budget,
            )))
        }
    };
    (outcome, checked.claim)
}

/// Runs seeds `start .. start + count` across `workers` threads and
/// merges the results sorted by seed.
///
/// Deterministic: worker `w` handles seeds `start + w`, `start + w +
/// workers`, … — every seed is processed independently with its own RNG,
/// so the merged report is identical for any worker count.
pub fn run_campaign(
    cfg: &CampaignConfig,
    start: u64,
    count: u64,
    workers: usize,
) -> CampaignReport {
    assert!(
        !cfg.profiles.is_empty(),
        "campaign needs at least one profile"
    );
    let workers = workers.max(1);
    let mut results: Vec<SeedResult> = if workers == 1 {
        (start..start.saturating_add(count))
            .map(|s| run_seed(s, cfg))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut s = start.saturating_add(w);
                        let end = start.saturating_add(count);
                        while s < end {
                            out.push(run_seed(s, cfg));
                            match s.checked_add(workers as u64) {
                                Some(n) => s = n,
                                None => break,
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    };
    results.sort_by_key(|r| r.seed);
    CampaignReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(mutate_pct: u32) -> CampaignConfig {
        CampaignConfig {
            mutate_pct,
            shrink_budget: 60,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn a_seed_block_agrees_end_to_end() {
        let cfg = quick_cfg(0);
        let n = cfg.profiles.len();
        let report = run_campaign(&cfg, 0, 2 * n as u64, 1);
        assert_eq!(report.results.len(), 2 * n);
        assert!(
            report.clean(),
            "unexpected failures: {:?}",
            report.failures()
        );
        // Unmutated seeds either agree or fail; with a clean report they
        // all agreed, across every profile (incl. floats, deep-nesting
        // and lint-traps), and every one was held against its lint claim.
        assert_eq!(report.agreed(), 2 * n);
        assert!(report.results.iter().all(|r| r.claim.is_some()));
        let profiles: std::collections::BTreeSet<&str> =
            report.results.iter().map(|r| r.profile.as_str()).collect();
        assert_eq!(profiles.len(), n);
    }

    #[test]
    fn a_trap_allowing_seed_block_exercises_every_claim() {
        let cfg = CampaignConfig {
            profiles: vec![lint_traps_profile()],
            ..quick_cfg(0)
        };
        let report = run_campaign(&cfg, 0, 60, 1);
        let claims = report.claims();
        assert_eq!(report.agreed(), 60, "{:?}", report.failures());
        // The trap-allowing profile must actually exercise the
        // interesting claims: some guaranteed traps, some programs
        // claimed clean or possibly trapping, and some runs that really
        // trapped.
        assert!(claims.guaranteed > 0, "{claims:?}");
        assert!(claims.clean + claims.possible > 0, "{claims:?}");
        assert!(claims.trapped > 0, "{claims:?}");
    }

    #[test]
    fn campaigns_are_deterministic_across_worker_counts() {
        let cfg = quick_cfg(40);
        let a = run_campaign(&cfg, 100, 12, 1);
        let b = run_campaign(&cfg, 100, 12, 3);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.profile, y.profile);
            // Outcomes must match structurally (nanos legitimately vary).
            match (&x.outcome, &y.outcome) {
                (SeedOutcome::Agreed, SeedOutcome::Agreed)
                | (SeedOutcome::Vacuous, SeedOutcome::Vacuous) => {}
                (
                    SeedOutcome::MutantRejected { code: c1 },
                    SeedOutcome::MutantRejected { code: c2 },
                ) => assert_eq!(c1, c2),
                (SeedOutcome::Failure(f1), SeedOutcome::Failure(f2)) => {
                    assert_eq!(f1.kind, f2.kind);
                    assert_eq!(f1.source, f2.source);
                }
                (ox, oy) => panic!("seed {}: outcomes differ: {ox:?} vs {oy:?}", x.seed),
            }
        }
    }

    #[test]
    fn mutants_never_fail_the_campaign() {
        // 100% mutation: every mutant must be rejected, vacuous, or pass
        // — never diverge, never panic (the diagnostics contract).
        let report = run_campaign(&quick_cfg(100), 200, 16, 2);
        assert!(
            report.clean(),
            "mutant failures: {:?}",
            report
                .failures()
                .iter()
                .map(|f| (f.seed, f.kind, f.detail.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            report.agreed() + report.mutants_rejected() + report.vacuous(),
            16
        );
    }

    #[test]
    fn shrinking_minimizes_against_a_synthetic_predicate() {
        // A synthetic predicate (no recompilation): the failure needs at
        // least 3 steps and node n0 present. The shrinker must reach
        // exactly that boundary and keep the witness.
        let mut rng = StdRng::seed_from_u64(7);
        let prog = gen_program(&mut rng, &GenConfig::default());
        let root = prog.nodes.last().unwrap().name;
        let node = prog.node(root).unwrap().clone();
        let inputs = gen_inputs(&mut rng, &node, 12);
        let mut case = ShrinkCase {
            prog,
            root,
            inputs,
            steps: 12,
        };
        let witness = Ident::new("n0");
        let stats = shrink(&mut case, 10_000, &mut |c| {
            c.steps >= 3 && c.prog.nodes.iter().any(|n| n.name == witness)
        });
        assert_eq!(case.steps, 3, "steps not minimized");
        assert!(case.prog.nodes.iter().any(|n| n.name == witness));
        assert!(case.prog.nodes.iter().any(|n| n.name == root));
        assert!(stats.accepted >= 1);
        assert!(stats.attempts >= stats.accepted);
        // Input streams were truncated along with the step count.
        assert!(case.inputs.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn shrinking_respects_the_budget_and_terminates() {
        let mut rng = StdRng::seed_from_u64(11);
        let prog = gen_program(&mut rng, &GenConfig::default());
        let root = prog.nodes.last().unwrap().name;
        let node = prog.node(root).unwrap().clone();
        let inputs = gen_inputs(&mut rng, &node, 12);
        let mut case = ShrinkCase {
            prog,
            root,
            inputs,
            steps: 12,
        };
        let stats = shrink(&mut case, 5, &mut |_| true);
        assert!(stats.attempts <= 5, "budget exceeded: {stats:?}");
    }

    #[test]
    fn shrunk_programs_still_compile_and_validate() {
        // Drive the shrinker with the *real* check as the predicate,
        // inverted: keep shrinking while the program still passes. Every
        // accepted candidate therefore went through render → compile →
        // full oracle set, proving shrink steps preserve well-formedness.
        let mut rng = StdRng::seed_from_u64(3);
        let prog = gen_program(&mut rng, &GenConfig::default());
        let root = prog.nodes.last().unwrap().name;
        let root_s = root.to_string();
        let node = prog.node(root).unwrap().clone();
        let inputs = gen_inputs(&mut rng, &node, 6);
        let mut case = ShrinkCase {
            prog,
            root,
            inputs,
            steps: 6,
        };
        let passes =
            |c: &ShrinkCase| check(&c.source(), Some(&root_s), &c.inputs, c.steps, false).outcome;
        assert_eq!(passes(&case), CheckOutcome::Pass);
        let stats = shrink(&mut case, 40, &mut |c| passes(c) == CheckOutcome::Pass);
        assert!(stats.accepted >= 1, "nothing shrank: {stats:?}");
        assert_eq!(passes(&case), CheckOutcome::Pass);
    }

    #[test]
    fn source_shrinking_deletes_lines_while_the_predicate_holds() {
        let mut source = String::from("keep\na\nb\nc\nkeep\nd\ne\n");
        let stats = shrink_source(&mut source, 1000, &mut |s| {
            s.lines().filter(|l| *l == "keep").count() == 2
        });
        assert_eq!(source, "keep\nkeep\n");
        assert!(stats.accepted >= 1);
    }

    #[test]
    fn sval_tokens_round_trip_bit_exactly() {
        let vals: Vec<SVal<ClightOps>> = vec![
            SVal::Abs,
            SVal::Pres(CVal::int(-42)),
            SVal::Pres(CVal::long(1 << 40)),
            SVal::Pres(CVal::single(-0.0)),
            SVal::Pres(CVal::float(f64::NAN)),
            SVal::Pres(CVal::float(0.1)),
        ];
        for v in &vals {
            let tok = sval_token(v);
            let back = parse_sval(&tok).unwrap();
            // CVal equality is bitwise, so NaN round trips too.
            assert_eq!(*v, back, "token {tok}");
        }
        assert!(parse_sval("i32:x").is_err());
        assert!(parse_sval("f16:0").is_err());
        assert!(parse_sval("").is_err());
    }

    #[test]
    fn records_render_parse_and_replay() {
        // Build a fake "divergence" record around a perfectly fine
        // program: replay must parse the record, decode the inputs, and
        // find the failure gone (acceptable).
        let mut rng = StdRng::seed_from_u64(5);
        let prog = gen_program(&mut rng, &GenConfig::default());
        let root = prog.nodes.last().unwrap().name;
        let node = prog.node(root).unwrap().clone();
        let inputs = gen_inputs(&mut rng, &node, 5);
        let profile = lint_traps_profile();
        let rep = Reproducer {
            seed: 5,
            profile: profile.name.to_owned(),
            gen: profile.gen,
            mutated: false,
            kind: FailureKind::Divergence,
            info: Some(FailureInfo {
                oracle: "obc".to_owned(),
                instant: Some(2),
                output: Some(0),
                left: "1".to_owned(),
                right: "2".to_owned(),
            }),
            detail: "synthetic record for the round-trip test".to_owned(),
            source: lustre_source(&prog),
            root: Some(root.to_string()),
            steps: 5,
            inputs: Some(inputs),
            shrink: ShrinkStats {
                attempts: 3,
                accepted: 1,
            },
        };
        let json = render_record(&rep);
        let parsed = crate::json::parse(&json).expect("record is valid JSON");
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(5));
        assert_eq!(
            parsed.get("float_policy").unwrap().as_str(),
            Some(FLOAT_POLICY)
        );
        assert_eq!(
            parsed.get("source_file").unwrap().as_str(),
            Some("seed-00000000000000000005.lus")
        );
        // Every generator field is recorded.
        let gen = parsed.get("gen").unwrap();
        assert_eq!(gen.get("lint_bait_pct").unwrap().as_u64(), Some(40));
        assert_eq!(gen.get("trap_divisors").unwrap().as_bool(), Some(true));
        let outcome = replay(&json, &rep.source).expect("replayable");
        assert_eq!(outcome, CheckOutcome::Pass);
        assert!(outcome.acceptable_on_replay());
    }

    #[test]
    fn replay_reads_the_trap_policy_from_the_record() {
        // A guaranteed trap: it passes under the record's trap-allowing
        // policy and stays a semantic failure when the field says no or
        // is missing (records written before the field existed).
        let src = "node f(x: int) returns (y: int) let y = x / 0; tel";
        let record = |gen: &str| {
            format!(r#"{{"root": "f", "steps": 2, "gen": {gen}, "inputs": [["i32:1", "i32:2"]]}}"#)
        };
        let replayed = |gen: &str| replay(&record(gen), src).unwrap();
        assert_eq!(replayed(r#"{"trap_divisors": true}"#), CheckOutcome::Pass);
        for gen in [r#"{"trap_divisors": false}"#, "{}"] {
            assert!(
                matches!(replayed(gen), CheckOutcome::SemFail { .. }),
                "{gen}"
            );
        }
    }

    fn present(vals: &[i32]) -> Vec<SVal<ClightOps>> {
        vals.iter().map(|v| SVal::Pres(CVal::int(*v))).collect()
    }

    /// Checks `src` under the trap-allowing policy; returns the outcome
    /// and the lint-soundness observation.
    fn check_trapping(src: &str, inputs: &[&[i32]], steps: usize) -> (CheckOutcome, ClaimCheck) {
        let inputs: StreamSet<ClightOps> = inputs.iter().map(|s| present(s)).collect();
        let checked = check(src, Some("f"), &inputs, steps, true);
        let claim = checked.claim.expect("the program compiled and ran");
        (checked.outcome, claim)
    }

    fn run(claim: TrapClaim, trapped: Option<usize>) -> ClaimCheck {
        ClaimCheck { claim, trapped }
    }

    #[test]
    fn a_guaranteed_trap_traps_on_the_first_step() {
        let src = "node f(x: int) returns (y: int) let y = x / 0; tel";
        let (outcome, claim) = check_trapping(src, &[&[1, 2, 3]], 3);
        assert_eq!(outcome, CheckOutcome::Pass);
        assert_eq!(claim, run(TrapClaim::Guaranteed, Some(0)));
    }

    #[test]
    fn a_clean_program_runs_clean() {
        let src = "node f(x: int) returns (y: int) let y = x / 4; tel";
        let (outcome, claim) = check_trapping(src, &[&[-9, 0, 17]], 3);
        assert_eq!(outcome, CheckOutcome::Pass);
        assert_eq!(claim, run(TrapClaim::Clean, None));
    }

    #[test]
    fn a_possible_trap_is_consistent_whether_or_not_it_fires() {
        let src = "node f(x, d: int) returns (y: int) let y = x / d; tel";
        let (outcome, claim) = check_trapping(src, &[&[8, 9], &[2, 3]], 2);
        assert_eq!(outcome, CheckOutcome::Pass);
        assert_eq!(claim, run(TrapClaim::Possible, None));
        let (outcome, claim) = check_trapping(src, &[&[8, 9], &[2, 0]], 2);
        assert_eq!(outcome, CheckOutcome::Pass);
        assert_eq!(claim, run(TrapClaim::Possible, Some(1)));
    }

    #[test]
    fn the_overflow_trap_is_guaranteed_and_fires() {
        let src = "node f(x: int) returns (y: int) let y = -2147483648 / -1; tel";
        let (outcome, claim) = check_trapping(src, &[&[0, 0]], 2);
        assert_eq!(outcome, CheckOutcome::Pass);
        assert_eq!(claim, run(TrapClaim::Guaranteed, Some(0)));
    }

    #[test]
    fn broken_claims_are_lint_soundness_divergences() {
        for (claim, trapped) in [
            (TrapClaim::Guaranteed, None),
            (TrapClaim::Guaranteed, Some(2)),
            (TrapClaim::Clean, Some(0)),
        ] {
            let info = broken_claim(run(claim, trapped), 4).expect("a broken claim");
            assert_eq!(info.oracle, "lint-soundness");
            assert_eq!(info.instant, trapped);
        }
        for (claim, trapped) in [
            (TrapClaim::Guaranteed, Some(0)),
            (TrapClaim::Possible, None),
            (TrapClaim::Possible, Some(3)),
            (TrapClaim::Clean, None),
        ] {
            assert_eq!(broken_claim(run(claim, trapped), 4), None);
        }
    }
}
