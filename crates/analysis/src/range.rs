//! Interval / constant-propagation value-range analysis, plus the
//! lints built on it: division-trap detection ([`codes::E0110`],
//! [`codes::E0111`], [`codes::W0102`]), constant conditions and dead
//! branches ([`codes::W0103`]), and dead-under-clock equations
//! ([`codes::W0106`]).
//!
//! # The lattice
//!
//! Per variable, an [`AbsVal`]: ⊥ (no value seen), an interval
//! `[lo, hi]` of the *signed reading* of an integer or boolean value
//! (`i128` bounds, wide enough for `u64`), or ⊤ (any value — all
//! floats live here). Joins take the convex hull; after
//! [`crate::fixpoint::WIDEN_AFTER`] visits of an equation the join
//! widens straight to ⊤, and readers clamp ⊤ back to the variable's
//! declared type bounds — so the ascending chains are finite and the
//! fixpoint terminates (see the engine docs).
//!
//! # Soundness of the trap verdicts
//!
//! The abstract value of every expression *over-approximates* its
//! concrete values, so:
//!
//! * a divisor interval that excludes `0` (and, for signed types, no
//!   `MIN / -1` combination) proves the division safe — no finding;
//! * a divisor interval exactly `[0, 0]` proves the division traps
//!   whenever it executes. It is reported as a *guaranteed* trap
//!   (`E0110`/`E0111`) only when it provably executes on every step:
//!   the equation is on the base clock, the expression is in
//!   unconditionally-evaluated position (not under an `if`/`merge`
//!   branch the generated code guards), and the enclosing node is the
//!   root or transitively instantiated through base-clock calls.
//!   Anywhere else it degrades to the *possible*-trap warning `W0102`.
//! * everything in between — the analysis cannot exclude the trap but
//!   cannot prove it — is `W0102`. Float-to-integer casts are `W0102`
//!   unconditionally (out-of-range casts trap; float ranges are not
//!   tracked).
//!
//! These are exactly the claims the campaign's lint-soundness oracle
//! (`velus_testkit::campaign`) checks against `clight::interp`.
//!
//! Node instantiations are handled with callee-first summaries
//! computed at ⊤ inputs (sound for every call site); `Program::nodes`
//! is already in dependency order.

use velus_common::{codes, DiagStage, Diagnostics, Ident, NodeId, SpanMap};
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Program};
use velus_nlustre::clock::Clock;
use velus_ops::{CBinOp, CConst, CTy, CUnOp, CVal, ClightOps, Ops};

use crate::fixpoint::{solve, Env, Lattice};

/// The abstract value of a stream: ⊥, a signed-reading interval, or ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// No value observed (unreachable / not yet computed).
    Bot,
    /// All values lie in `[lo, hi]` under the type's signed reading.
    Iv(i128, i128),
    /// Any value of the declared type (also: every float).
    Any,
}

impl Lattice for AbsVal {
    fn bottom() -> AbsVal {
        AbsVal::Bot
    }
    fn join_with(&mut self, other: &AbsVal) -> bool {
        let joined = hull(*self, *other);
        let changed = joined != *self;
        *self = joined;
        changed
    }
    fn widen_with(&mut self, other: &AbsVal) -> bool {
        let joined = hull(*self, *other);
        if joined == *self {
            false
        } else {
            // Any growth past the widening threshold jumps to ⊤; the
            // reader clamps back to declared type bounds.
            *self = AbsVal::Any;
            true
        }
    }
}

/// Convex hull of two abstract values.
fn hull(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Bot, x) | (x, AbsVal::Bot) => x,
        (AbsVal::Any, _) | (_, AbsVal::Any) => AbsVal::Any,
        (AbsVal::Iv(l1, h1), AbsVal::Iv(l2, h2)) => AbsVal::Iv(l1.min(l2), h1.max(h2)),
    }
}

/// The value bounds of an integer (or boolean) type under its signed
/// reading; `None` for floats.
fn ty_bounds(ty: CTy) -> Option<(i128, i128)> {
    match ty {
        CTy::Bool => Some((0, 1)),
        CTy::I8 => Some((i8::MIN as i128, i8::MAX as i128)),
        CTy::U8 => Some((0, u8::MAX as i128)),
        CTy::I16 => Some((i16::MIN as i128, i16::MAX as i128)),
        CTy::U16 => Some((0, u16::MAX as i128)),
        CTy::I32 => Some((i32::MIN as i128, i32::MAX as i128)),
        CTy::U32 => Some((0, u32::MAX as i128)),
        CTy::I64 => Some((i64::MIN as i128, i64::MAX as i128)),
        CTy::U64 => Some((0, u64::MAX as i128)),
        CTy::F32 | CTy::F64 => None,
    }
}

/// The semantic (signed-reading) value of a constant; `None` for floats.
fn read_const(c: &CConst) -> Option<i128> {
    match (c.ty(), c.val()) {
        (CTy::U32, CVal::Int(n)) => Some((n as u32) as i128),
        (CTy::U64, CVal::Long(n)) => Some((n as u64) as i128),
        (_, v) => v.as_i64().map(|n| n as i128),
    }
}

/// Builds the stored machine value of type `ty` holding the semantic
/// value `v` (assumed within the type's bounds).
fn make_val(ty: CTy, v: i128) -> CVal {
    match ty {
        CTy::I64 => CVal::Long(v as i64),
        CTy::U64 => CVal::Long((v as u64) as i64),
        CTy::U32 => CVal::Int((v as u32) as i32),
        _ => CVal::Int(v as i32),
    }
}

/// The concrete range of `v` at declared type `ty`: clamps ⊤ to the
/// type bounds; `None` for ⊥ or float types.
fn concretize(v: AbsVal, ty: CTy) -> Option<(i128, i128)> {
    match v {
        AbsVal::Bot => None,
        AbsVal::Iv(l, h) => Some((l, h)),
        AbsVal::Any => ty_bounds(ty),
    }
}

/// An interval result wrapped back into the type: in-bounds intervals
/// are kept, anything else (overflow wraps) degrades to full bounds.
fn clamp(ty: CTy, lo: i128, hi: i128) -> AbsVal {
    match ty_bounds(ty) {
        Some((l, h)) if lo >= l && hi <= h => AbsVal::Iv(lo, hi),
        Some((l, h)) => AbsVal::Iv(l, h),
        None => AbsVal::Any,
    }
}

fn of_const(c: &CConst) -> AbsVal {
    match read_const(c) {
        Some(v) => AbsVal::Iv(v, v),
        None => AbsVal::Any,
    }
}

fn eval_var(env: &Env<AbsVal>, x: Ident, ty: CTy) -> AbsVal {
    match *env.get(x) {
        AbsVal::Any => match ty_bounds(ty) {
            Some((l, h)) => AbsVal::Iv(l, h),
            None => AbsVal::Any,
        },
        v => v,
    }
}

/// Folds an operator application with two singleton integer operands
/// through the concrete [`ClightOps`] semantics (exact, wrap-around
/// and all). `None` means the application is undefined (it traps).
fn fold_binop(op: CBinOp, a: i128, ty: CTy, b: i128) -> Option<AbsVal> {
    let v = ClightOps::sem_binop(op, &make_val(ty, a), &ty, &make_val(ty, b), &ty)?;
    let rty = if op.is_comparison() { CTy::Bool } else { ty };
    let c = CConst::new(v, rty)?;
    Some(of_const(&c))
}

fn eval_binop(op: CBinOp, v1: AbsVal, v2: AbsVal, opty: CTy, rty: CTy) -> AbsVal {
    if v1 == AbsVal::Bot || v2 == AbsVal::Bot {
        return AbsVal::Bot;
    }
    if opty.is_float() {
        return if op.is_comparison() {
            AbsVal::Iv(0, 1)
        } else {
            AbsVal::Any
        };
    }
    let Some((l1, h1)) = concretize(v1, opty) else {
        return AbsVal::Any;
    };
    let Some((l2, h2)) = concretize(v2, opty) else {
        return AbsVal::Any;
    };
    if l1 == h1 && l2 == h2 {
        // Exact singleton folding; an undefined application produces no
        // value at all (the trap is reported by the classification
        // walk), hence ⊥.
        return fold_binop(op, l1, opty, l2).unwrap_or(AbsVal::Bot);
    }
    match op {
        CBinOp::Add => clamp(rty, l1 + l2, h1 + h2),
        CBinOp::Sub => clamp(rty, l1 - h2, h1 - l2),
        CBinOp::Mul => {
            let products = [
                l1.checked_mul(l2),
                l1.checked_mul(h2),
                h1.checked_mul(l2),
                h1.checked_mul(h2),
            ];
            if products.iter().any(Option::is_none) {
                clamp(rty, i128::MIN / 2, i128::MAX / 2) // out of every type's bounds
            } else {
                let ps: Vec<i128> = products.iter().map(|p| p.unwrap()).collect();
                clamp(rty, *ps.iter().min().unwrap(), *ps.iter().max().unwrap())
            }
        }
        CBinOp::Div | CBinOp::Mod => match ty_bounds(rty) {
            Some((l, h)) => AbsVal::Iv(l, h),
            None => AbsVal::Any,
        },
        CBinOp::And | CBinOp::Or | CBinOp::Xor => {
            if opty == CTy::Bool {
                AbsVal::Iv(0, 1)
            } else {
                match ty_bounds(rty) {
                    Some((l, h)) => AbsVal::Iv(l, h),
                    None => AbsVal::Any,
                }
            }
        }
        CBinOp::Lt => cmp_result(h1 < l2, l1 >= h2),
        CBinOp::Le => cmp_result(h1 <= l2, l1 > h2),
        CBinOp::Gt => cmp_result(l1 > h2, h1 <= l2),
        CBinOp::Ge => cmp_result(l1 >= h2, h1 < l2),
        CBinOp::Eq => cmp_result(false, h1 < l2 || h2 < l1),
        CBinOp::Ne => cmp_result(h1 < l2 || h2 < l1, false),
    }
}

fn cmp_result(always: bool, never: bool) -> AbsVal {
    if always {
        AbsVal::Iv(1, 1)
    } else if never {
        AbsVal::Iv(0, 0)
    } else {
        AbsVal::Iv(0, 1)
    }
}

fn eval_unop(op: CUnOp, v: AbsVal, opty: CTy, rty: CTy) -> AbsVal {
    if v == AbsVal::Bot {
        return AbsVal::Bot;
    }
    match op {
        CUnOp::Not => match concretize(v, CTy::Bool) {
            Some((l, h)) => AbsVal::Iv(1 - h, 1 - l),
            None => AbsVal::Iv(0, 1),
        },
        CUnOp::Neg => {
            if opty.is_float() {
                return AbsVal::Any;
            }
            match concretize(v, opty) {
                Some((l, h)) => clamp(rty, -h, -l),
                None => AbsVal::Any,
            }
        }
        CUnOp::Cast(to) => {
            if to.is_float() {
                return AbsVal::Any;
            }
            if opty.is_float() {
                // The cast traps rather than wraps when out of range,
                // so when it *does* produce a value it is in bounds.
                return match ty_bounds(to) {
                    Some((l, h)) => AbsVal::Iv(l, h),
                    None => AbsVal::Any,
                };
            }
            match (concretize(v, opty), ty_bounds(to)) {
                (Some((l, h)), Some((tl, th))) if l >= tl && h <= th => AbsVal::Iv(l, h),
                (_, Some((tl, th))) => AbsVal::Iv(tl, th),
                _ => AbsVal::Any,
            }
        }
    }
}

/// The abstract value of `e`: one loop over its post-order run, with
/// `vals` as the value stack.
fn eval_expr(
    ex: &Exprs<ClightOps>,
    e: ExprId,
    env: &Env<AbsVal>,
    vals: &mut Vec<AbsVal>,
) -> AbsVal {
    // A leaf needs no stack.
    match &ex[e] {
        Expr::Var(x, ty) => return eval_var(env, *x, *ty),
        Expr::Const(c) => return of_const(c),
        _ => vals.clear(),
    }
    for n in ex.tree(e) {
        let v = match n {
            Expr::Var(x, ty) => eval_var(env, *x, *ty),
            Expr::Const(c) => of_const(c),
            Expr::Unop(op, e1, rty) => {
                let v = vals.pop().expect("operand value");
                eval_unop(*op, v, ex.ty(*e1), *rty)
            }
            Expr::Binop(op, e1, _, rty) => {
                let v2 = vals.pop().expect("operand value");
                let v1 = vals.pop().expect("operand value");
                eval_binop(*op, v1, v2, ex.ty(*e1), *rty)
            }
            Expr::When(..) => continue,
        };
        vals.push(v);
    }
    vals.pop().expect("the expression's value")
}

/// The abstract value of control expression `ce` (recursing on its
/// `merge`/`if` nesting, as the statements it compiles to do).
fn eval_cexpr(
    ex: &Exprs<ClightOps>,
    ce: CExprId,
    env: &Env<AbsVal>,
    vals: &mut Vec<AbsVal>,
) -> AbsVal {
    match ex[ce] {
        CExpr::Merge(x, t, f) => match eval_var(env, x, CTy::Bool) {
            AbsVal::Iv(1, 1) => eval_cexpr(ex, t, env, vals),
            AbsVal::Iv(0, 0) => eval_cexpr(ex, f, env, vals),
            AbsVal::Bot => AbsVal::Bot,
            _ => hull(eval_cexpr(ex, t, env, vals), eval_cexpr(ex, f, env, vals)),
        },
        CExpr::If(c, t, f) => match eval_expr(ex, c, env, vals) {
            AbsVal::Iv(1, 1) => eval_cexpr(ex, t, env, vals),
            AbsVal::Iv(0, 0) => eval_cexpr(ex, f, env, vals),
            AbsVal::Bot => AbsVal::Bot,
            _ => hull(eval_cexpr(ex, t, env, vals), eval_cexpr(ex, f, env, vals)),
        },
        CExpr::Expr(e) => eval_expr(ex, e, env, vals),
    }
}

/// The classification context of an expression position.
#[derive(Clone, Copy)]
struct Ctx {
    /// The enclosing node executes on every step of the root.
    node_active: bool,
    /// The equation is on the base clock (no run-time clock guard).
    base_clock: bool,
    /// The position is evaluated whenever the equation is (not under a
    /// conditionally-executed `if`/`merge` branch).
    unconditional: bool,
}

impl Ctx {
    fn guaranteed(self) -> bool {
        self.node_active && self.base_clock && self.unconditional
    }
    fn conditional(self) -> Ctx {
        Ctx {
            unconditional: false,
            ..self
        }
    }
}

struct Classifier<'a> {
    env: &'a Env<AbsVal>,
    ex: &'a Exprs<ClightOps>,
    /// The pending nodes of [`Classifier::classify_expr`]'s walk.
    work: &'a mut Vec<ExprId>,
    /// The value stack of [`eval_expr`].
    vals: &'a mut Vec<AbsVal>,
    node: Ident,
    spans: &'a SpanMap,
    diags: &'a mut Diagnostics,
}

impl Classifier<'_> {
    fn report(&mut self, code: velus_common::Code, var: Ident, message: String) {
        let span = self.spans.eq_span(self.node, var);
        self.diags
            .push(velus_common::Diagnostic::new(code, message, span).at_stage(DiagStage::Analysis));
    }

    /// Classifies the operators of `e` in pre-order (an operator's
    /// findings before its operands'), with an explicit stack.
    fn classify_expr(&mut self, e: ExprId, var: Ident, ctx: Ctx) {
        let ex = self.ex;
        if let Expr::Var(..) | Expr::Const(_) = ex[e] {
            return;
        }
        self.work.clear();
        self.work.push(e);
        while let Some(id) = self.work.pop() {
            match &ex[id] {
                Expr::Var(..) | Expr::Const(_) => {}
                Expr::Unop(op, e1, _) => {
                    if let CUnOp::Cast(to) = op {
                        let from = ex.ty(*e1);
                        if from.is_float() && !to.is_float() {
                            self.report(
                                codes::W0102,
                                var,
                                format!(
                                    "cast from {from} to {to} traps when the value is out of range"
                                ),
                            );
                        }
                    }
                    self.work.push(*e1);
                }
                Expr::Binop(op, e1, e2, rty) => {
                    if matches!(op, CBinOp::Div | CBinOp::Mod) && rty.is_integer() {
                        self.classify_division(*op, *e1, *e2, *rty, var, ctx);
                    }
                    self.work.extend([*e2, *e1]);
                }
                Expr::When(e1, _, _) => self.work.push(*e1),
            }
        }
    }

    fn classify_division(
        &mut self,
        op: CBinOp,
        e1: ExprId,
        e2: ExprId,
        ty: CTy,
        var: Ident,
        ctx: Ctx,
    ) {
        let (Some(n), Some(d)) = (
            concretize(eval_expr(self.ex, e1, self.env, self.vals), ty),
            concretize(eval_expr(self.ex, e2, self.env, self.vals), ty),
        ) else {
            return; // ⊥ operand: the position never produces a value
        };
        let min = ty_bounds(ty).map(|(l, _)| l).unwrap_or(0);
        let overflow_possible =
            ty.is_signed() && n.0 <= min && min <= n.1 && d.0 <= -1 && -1 <= d.1;
        if d == (0, 0) {
            if ctx.guaranteed() {
                self.report(
                    codes::E0110,
                    var,
                    format!("divisor of `{op}` is always zero: this division traps on every run"),
                );
            } else {
                self.report(
                    codes::W0102,
                    var,
                    format!("divisor of `{op}` is always zero: this division traps if evaluated"),
                );
            }
        } else if ty.is_signed() && n == (min, min) && d == (-1, -1) {
            if ctx.guaranteed() {
                self.report(
                    codes::E0111,
                    var,
                    format!("`{min} {op} -1` overflows: this division traps on every run"),
                );
            } else {
                self.report(
                    codes::W0102,
                    var,
                    format!("`{min} {op} -1` overflows: this division traps if evaluated"),
                );
            }
        } else if d.0 <= 0 && 0 <= d.1 {
            self.report(
                codes::W0102,
                var,
                format!("divisor of `{op}` may be zero: this division can trap at runtime"),
            );
        } else if overflow_possible {
            self.report(
                codes::W0102,
                var,
                format!("`{op}` may compute `{min} {op} -1` and trap at runtime"),
            );
        }
    }

    fn classify_cexpr(&mut self, ce: CExprId, var: Ident, ctx: Ctx) {
        let ex = self.ex;
        match ex[ce] {
            CExpr::Merge(x, t, f) => match eval_var(self.env, x, CTy::Bool) {
                AbsVal::Iv(1, 1) => {
                    self.report(
                        codes::W0103,
                        var,
                        format!("merge scrutinee {x} is always true: the false branch is dead"),
                    );
                    self.classify_cexpr(t, var, ctx);
                }
                AbsVal::Iv(0, 0) => {
                    self.report(
                        codes::W0103,
                        var,
                        format!("merge scrutinee {x} is always false: the true branch is dead"),
                    );
                    self.classify_cexpr(f, var, ctx);
                }
                _ => {
                    self.classify_cexpr(t, var, ctx.conditional());
                    self.classify_cexpr(f, var, ctx.conditional());
                }
            },
            CExpr::If(c, t, f) => {
                self.classify_expr(c, var, ctx);
                match eval_expr(ex, c, self.env, self.vals) {
                    AbsVal::Iv(1, 1) => {
                        let c = ex.show(c);
                        self.report(
                            codes::W0103,
                            var,
                            format!("condition `{c}` is always true: the else branch is dead"),
                        );
                        self.classify_cexpr(t, var, ctx);
                    }
                    AbsVal::Iv(0, 0) => {
                        let c = ex.show(c);
                        self.report(
                            codes::W0103,
                            var,
                            format!("condition `{c}` is always false: the then branch is dead"),
                        );
                        self.classify_cexpr(f, var, ctx);
                    }
                    _ => {
                        self.classify_cexpr(t, var, ctx.conditional());
                        self.classify_cexpr(f, var, ctx.conditional());
                    }
                }
            }
            CExpr::Expr(e) => self.classify_expr(e, var, ctx),
        }
    }

    /// Whether the equation's clock is provably never true; reports
    /// [`codes::W0106`] if so.
    fn classify_clock(&mut self, ck: &Clock, var: Ident, full: &Clock) -> bool {
        match ck {
            Clock::Base => false,
            Clock::On(parent, x, pol) => {
                if self.classify_clock(parent, var, full) {
                    return true;
                }
                let dead = match eval_var(self.env, *x, CTy::Bool) {
                    AbsVal::Iv(0, 0) => *pol,
                    AbsVal::Iv(1, 1) => !*pol,
                    _ => false,
                };
                if dead {
                    self.report(
                        codes::W0106,
                        var,
                        format!("equation is sampled on `{full}`, which is provably never active"),
                    );
                }
                dead
            }
        }
    }
}

/// Runs the value-range analysis over every node of `prog` (callees
/// first, with ⊤-input summaries at instantiations) and appends the
/// range-based lints to `diags`.
pub fn check_ranges(
    prog: &Program<ClightOps>,
    root: NodeId,
    spans: &SpanMap,
    diags: &mut Diagnostics,
) {
    // The nodes that provably execute on *every* step of the root: the
    // root itself plus the closure over base-clock instantiations.
    let active = crate::live::reachable(prog, root, |ck| *ck == Clock::Base);
    // The output ranges of the nodes analyzed so far, by node id.
    let mut summaries: Vec<Vec<AbsVal>> = Vec::with_capacity(prog.nodes.len());
    // The expression walks' stacks, shared by every node.
    let (mut work, mut vals) = (Vec::new(), Vec::new());
    for (node, &node_active) in prog.nodes.iter().zip(&active) {
        let mut env: Env<AbsVal> = Env::new();
        for d in &node.inputs {
            env.set(d.name, AbsVal::Any);
        }
        solve(node, &mut env, |node, i, env, out| match &node.eqs[i] {
            Equation::Def { x, rhs, .. } => {
                out.push((*x, eval_cexpr(&node.exprs, *rhs, env, &mut vals)))
            }
            Equation::Fby { x, init, rhs, .. } => {
                let v = eval_expr(&node.exprs, *rhs, env, &mut vals);
                out.push((*x, hull(of_const(init), v)));
            }
            Equation::Call {
                xs, node: callee, ..
            } => {
                for (x, v) in xs.iter().zip(&summaries[callee.index()]) {
                    out.push((*x, *v));
                }
            }
        });
        summaries.push(node.outputs.iter().map(|o| *env.get(o.name)).collect());

        let mut cl = Classifier {
            env: &env,
            ex: &node.exprs,
            work: &mut work,
            vals: &mut vals,
            node: node.name,
            spans,
            diags,
        };
        for eq in &node.eqs {
            let var = eq.defined()[0];
            if cl.classify_clock(eq.clock(), var, eq.clock()) {
                continue; // never active: nothing inside can run (or trap)
            }
            let ctx = Ctx {
                node_active,
                base_clock: *eq.clock() == Clock::Base,
                unconditional: true,
            };
            match eq {
                Equation::Def { rhs, .. } => cl.classify_cexpr(*rhs, var, ctx),
                Equation::Fby { rhs, .. } => cl.classify_expr(*rhs, var, ctx),
                Equation::Call { args, .. } => {
                    for &a in args {
                        cl.classify_expr(a, var, ctx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_nlustre::ast::{Node, VarDecl};

    type Ex = Exprs<ClightOps>;

    fn ivar(ex: &mut Ex, n: &str) -> ExprId {
        ex.var(Ident::new(n), CTy::I32)
    }

    fn int(ex: &mut Ex, v: i32) -> ExprId {
        ex.constant(CConst::int(v))
    }

    fn decl(n: &str, ty: CTy) -> VarDecl<ClightOps> {
        VarDecl {
            name: Ident::new(n),
            ty,
            ck: Clock::Base,
        }
    }

    /// `l op r` as a control expression.
    fn binop(ex: &mut Ex, op: CBinOp, l: ExprId, r: ExprId) -> CExprId {
        let e = ex.binop(op, l, r, CTy::I32);
        ex.simple(e)
    }

    /// `y = rhs`.
    fn def(y: &str, rhs: CExprId) -> Equation<ClightOps> {
        Equation::Def {
            x: Ident::new(y),
            ck: Clock::Base,
            rhs,
        }
    }

    fn single_node(
        inputs: Vec<VarDecl<ClightOps>>,
        outputs: Vec<VarDecl<ClightOps>>,
        locals: Vec<VarDecl<ClightOps>>,
        eqs: Vec<Equation<ClightOps>>,
        ex: Ex,
    ) -> Program<ClightOps> {
        Program::new(vec![Node {
            name: Ident::new("f"),
            inputs,
            outputs,
            locals,
            eqs,
            exprs: ex,
        }])
    }

    fn lint(prog: &Program<ClightOps>) -> Diagnostics {
        let mut d = Diagnostics::new();
        check_ranges(
            prog,
            NodeId::new(prog.nodes.len() - 1),
            &SpanMap::new(),
            &mut d,
        );
        d
    }

    fn codes_of(d: &Diagnostics) -> Vec<&'static str> {
        d.iter().map(|x| x.code.id).collect()
    }

    #[test]
    fn division_by_constant_zero_is_a_guaranteed_trap() {
        let mut ex = Ex::new();
        let (x, zero) = (ivar(&mut ex, "x"), int(&mut ex, 0));
        let rhs = binop(&mut ex, CBinOp::Div, x, zero);
        let prog = single_node(
            vec![decl("x", CTy::I32)],
            vec![decl("y", CTy::I32)],
            vec![],
            vec![def("y", rhs)],
            ex,
        );
        assert_eq!(codes_of(&lint(&prog)), vec!["E0110"]);
    }

    #[test]
    fn min_over_minus_one_is_a_guaranteed_trap() {
        let mut ex = Ex::new();
        let (min, m1) = (int(&mut ex, i32::MIN), int(&mut ex, -1));
        let rhs = binop(&mut ex, CBinOp::Div, min, m1);
        let prog = single_node(
            vec![],
            vec![decl("y", CTy::I32)],
            vec![],
            vec![def("y", rhs)],
            ex,
        );
        assert_eq!(codes_of(&lint(&prog)), vec!["E0111"]);
    }

    #[test]
    fn division_by_an_input_is_a_possible_trap() {
        let mut ex = Ex::new();
        let (x, d) = (ivar(&mut ex, "x"), ivar(&mut ex, "d"));
        let rhs = binop(&mut ex, CBinOp::Div, x, d);
        let prog = single_node(
            vec![decl("x", CTy::I32), decl("d", CTy::I32)],
            vec![decl("y", CTy::I32)],
            vec![],
            vec![def("y", rhs)],
            ex,
        );
        assert_eq!(codes_of(&lint(&prog)), vec!["W0102"]);
    }

    /// `if c then t else f` over integer constants, `c` a variable or a
    /// constant.
    fn ite(ex: &mut Ex, c: ExprId, t: ExprId, f: ExprId) -> CExprId {
        let (t, f) = (ex.simple(t), ex.simple(f));
        ex.ite(c, t, f)
    }

    #[test]
    fn division_by_a_provably_nonzero_range_is_clean() {
        // d = if c then 2 else 7; y = x / d — the hull [2, 7] excludes 0.
        let mut ex = Ex::new();
        let c = ex.var(Ident::new("c"), CTy::Bool);
        let (two, seven) = (int(&mut ex, 2), int(&mut ex, 7));
        let d_rhs = ite(&mut ex, c, two, seven);
        let (x, d) = (ivar(&mut ex, "x"), ivar(&mut ex, "d"));
        let y_rhs = binop(&mut ex, CBinOp::Div, x, d);
        let prog = single_node(
            vec![decl("x", CTy::I32), decl("c", CTy::Bool)],
            vec![decl("y", CTy::I32)],
            vec![decl("d", CTy::I32)],
            vec![def("d", d_rhs), def("y", y_rhs)],
            ex,
        );
        assert!(lint(&prog).is_empty(), "{}", lint(&prog));
    }

    #[test]
    fn zero_divisor_under_a_branch_degrades_to_a_warning() {
        // y = if c then x / 0 else 0 — the generated code only
        // evaluates the division when c holds, so no guaranteed claim.
        let mut ex = Ex::new();
        let c = ex.var(Ident::new("c"), CTy::Bool);
        let (x, zero) = (ivar(&mut ex, "x"), int(&mut ex, 0));
        let q = ex.binop(CBinOp::Div, x, zero, CTy::I32);
        let other = int(&mut ex, 0);
        let rhs = ite(&mut ex, c, q, other);
        let prog = single_node(
            vec![decl("x", CTy::I32), decl("c", CTy::Bool)],
            vec![decl("y", CTy::I32)],
            vec![],
            vec![def("y", rhs)],
            ex,
        );
        assert_eq!(codes_of(&lint(&prog)), vec!["W0102"]);
    }

    #[test]
    fn constant_conditions_and_dead_clocks_are_reported() {
        // k = false; z = (x when k) — dead under clock; y = if true …
        let on_k = Clock::Base.on(Ident::new("k"), true);
        let mut ex = Ex::new();
        let f = ex.constant(CConst::bool(false));
        let k_rhs = ex.simple(f);
        let x = ivar(&mut ex, "x");
        let x = ex.when(x, Ident::new("k"), true);
        let z_rhs = ex.simple(x);
        let t = ex.constant(CConst::bool(true));
        let (x, zero) = (ivar(&mut ex, "x"), int(&mut ex, 0));
        let y_rhs = ite(&mut ex, t, x, zero);
        let prog = single_node(
            vec![decl("x", CTy::I32)],
            vec![decl("y", CTy::I32)],
            vec![
                decl("k", CTy::Bool),
                VarDecl {
                    name: Ident::new("z"),
                    ty: CTy::I32,
                    ck: on_k.clone(),
                },
            ],
            vec![
                def("k", k_rhs),
                Equation::Def {
                    x: Ident::new("z"),
                    ck: on_k,
                    rhs: z_rhs,
                },
                def("y", y_rhs),
            ],
            ex,
        );
        let mut found = codes_of(&lint(&prog));
        found.sort();
        assert_eq!(found, vec!["W0103", "W0106"]);
    }

    #[test]
    fn counter_widening_terminates_and_stays_possible() {
        // c = 0 fby (c + 1); y = x / c — c's range widens to the full
        // type, so the division is a possible (not guaranteed) trap.
        let mut ex = Ex::new();
        let (c, one) = (ivar(&mut ex, "c"), int(&mut ex, 1));
        let next = ex.binop(CBinOp::Add, c, one, CTy::I32);
        let (x, c) = (ivar(&mut ex, "x"), ivar(&mut ex, "c"));
        let y_rhs = binop(&mut ex, CBinOp::Div, x, c);
        let prog = single_node(
            vec![decl("x", CTy::I32)],
            vec![decl("y", CTy::I32)],
            vec![decl("c", CTy::I32)],
            vec![
                Equation::Fby {
                    x: Ident::new("c"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: next,
                },
                def("y", y_rhs),
            ],
            ex,
        );
        assert_eq!(codes_of(&lint(&prog)), vec!["W0102"]);
    }

    #[test]
    fn unreachable_node_guarantees_degrade() {
        // g contains a certain trap but is never instantiated from f.
        let mut g_ex = Ex::new();
        let (one, zero) = (int(&mut g_ex, 1), int(&mut g_ex, 0));
        let o_rhs = binop(&mut g_ex, CBinOp::Div, one, zero);
        let g = Node {
            name: Ident::new("g"),
            inputs: vec![],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![],
            eqs: vec![def("o", o_rhs)],
            exprs: g_ex,
        };
        let mut f_ex = Ex::new();
        let x = ivar(&mut f_ex, "x");
        let y_rhs = f_ex.simple(x);
        let f = Node {
            name: Ident::new("f"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![def("y", y_rhs)],
            exprs: f_ex,
        };
        let prog = Program::new(vec![g, f]);
        let d = lint(&prog);
        assert_eq!(codes_of(&d), vec!["W0102"], "{d}");
    }

    #[test]
    fn interval_arithmetic_helpers() {
        assert_eq!(ty_bounds(CTy::U64), Some((0, u64::MAX as i128)));
        assert_eq!(read_const(&CConst::int(-3)), Some(-3));
        assert_eq!(
            fold_binop(CBinOp::Add, i32::MAX as i128, CTy::I32, 1),
            Some(AbsVal::Iv(i32::MIN as i128, i32::MIN as i128))
        );
        assert_eq!(fold_binop(CBinOp::Div, 1, CTy::I32, 0), None);
        assert_eq!(clamp(CTy::I8, -1, 300), AbsVal::Iv(-128, 127));
        assert_eq!(clamp(CTy::I8, -1, 5), AbsVal::Iv(-1, 5));
        assert_eq!(
            eval_binop(
                CBinOp::Lt,
                AbsVal::Iv(0, 3),
                AbsVal::Iv(5, 9),
                CTy::I32,
                CTy::Bool
            ),
            AbsVal::Iv(1, 1)
        );
    }
}
