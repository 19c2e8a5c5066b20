//! Elaboration: typing and clocking of the surface syntax (§2.1), and
//! its lowering to N-Lustre.
//!
//! Elaboration rejects programs that are not well typed or well clocked
//! and, in the same walk over each equation, emits the N-Lustre form of
//! what it has checked (the N-Lustre builder is in `normalize.rs`):
//! every variable and operator application carries its machine type,
//! literals are resolved to constants of the operator interface, `pre`
//! is desugared to `fby` of the type's default value (its memory marked
//! for the semantic initialization analysis), casts are resolved, and
//! delays, calls and control expressions nested in expressions are
//! extracted into fresh equations. There is no typed intermediate tree.
//!
//! The judgments keep their order: an equation's first typing error is
//! reported before any clocking error in it, as when the clocks were
//! checked after the types. The walk records the first clocking error
//! and reports it once the equation's typing has succeeded.
//!
//! Bidirectional typing: literals are type-polymorphic (`PTy::IntLit`,
//! `PTy::FloatLit`) and take their type from context (`0 fby n` gives
//! `0` the type of `n`); unconstrained integer literals default to `int`,
//! float literals to `real`. Clocks are checked against declarations;
//! constants are clock-polymorphic.
//!
//! Nodes may be declared in any order; elaboration topologically orders
//! them (callees first) and rejects recursion — the paper's "nodes are not
//! applied circularly".

use velus_common::{
    codes, ident_map_with_capacity, DiagStage, Diagnostic, Diagnostics, Ident, IdentMap, NodeId,
    PreMarks, Span, SpanMap,
};
use velus_nlustre::ast::{self as nl, CExpr, Expr, Program, VarDecl};
use velus_nlustre::clock::{Clock, Clocks};
use velus_ops::{Literal, Ops, SurfaceBinOp, SurfaceUnOp};

use crate::ast::{ClockId, ExprId, ExprRange, UArena, UClock, UDecl, UExpr, UNode, UProgram};
use crate::normalize::Lower;

/// Partial types for literal inference.
#[derive(Debug, Clone, PartialEq)]
enum PTy<O: Ops> {
    Known(O::Ty),
    IntLit,
    FloatLit,
}

/// Callee resolution: name → id of an elaborated node — the one name →
/// node resolution of the compiler. The signature is read from the
/// finished node's declarations.
type SigMap = IdentMap<NodeId>;

/// Whether an equation may define a declared variable, and whether one
/// already has: a flag in the variable's [`VarMap`] entry, so the
/// definedness checks are one lookup each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Def {
    /// An input: never defined by an equation.
    Input,
    /// An output or local no equation has defined yet.
    Pending,
    /// An output or local some equation defines.
    Defined,
}

/// Declared variables: name → (type, clock, definedness).
type VarMap<O> = IdentMap<(<O as Ops>::Ty, Clock, Def)>;

/// Elaborated declaration groups (inputs, outputs, locals).
type ElabDecls<O> = [Vec<VarDecl<O>>; 3];

/// The buffers a node's declarations resolve into, cleared for each node
/// of a program so their tables are allocated once per program.
struct NodeScratch<O: Ops> {
    /// The node's clocks: those of its declarations, and the branch
    /// clocks of its merges, each built once.
    clocks: Clocks,
    /// Declared name → (type, definedness), before clocks resolve.
    tys: IdentMap<(O::Ty, Def)>,
    /// Declared name → (type, clock, definedness).
    vars: VarMap<O>,
}

struct NodeEnv<'e, O: Ops> {
    /// Variable name → (type, clock, definedness).
    vars: &'e mut VarMap<O>,
    /// Global constants (shared across nodes, hence borrowed — cloning
    /// them per node made elaboration quadratic in program size).
    consts: &'e IdentMap<O::Const>,
    /// Callee name → id; borrowed for the same reason.
    sigs: &'e SigMap,
    /// The nodes elaborated so far, indexed by id: a call site borrows
    /// its callee's declarations from here rather than a copy of them.
    nodes: &'e [nl::Node<O>],
}

impl<'e, O: Ops> NodeEnv<'e, O> {
    /// The id and finished form of the node `f` names.
    fn callee(&self, f: &Ident) -> Option<(NodeId, &'e nl::Node<O>)> {
        let id = *self.sigs.get(f)?;
        Some((id, &self.nodes[id.index()]))
    }
}

struct Elab<'a, O: Ops> {
    ua: &'a UArena,
    env: NodeEnv<'a, O>,
    /// The node's clocks: those of its declarations, and the branch
    /// clocks of its merges, each built once.
    clocks: &'a mut Clocks,
    /// The node's N-Lustre form, built as the walk goes.
    out: &'a mut Lower<O>,
    /// The span of the equation being elaborated: clocking errors point
    /// at the whole equation.
    eq_span: Span,
    /// The equation's first clocking error, reported once its typing
    /// has succeeded.
    clock_err: Option<Diagnostics>,
}

type EResult<T> = Result<T, Diagnostics>;

fn err<T>(code: velus_common::Code, msg: impl Into<String>, span: Span) -> EResult<T> {
    Err(Diagnostics::from(
        Diagnostic::error(code, msg, span).at_stage(DiagStage::Elaborate),
    ))
}

impl<'a, O: Ops> Elab<'a, O> {
    // ---- types ---------------------------------------------------------

    fn unify(&self, a: PTy<O>, b: PTy<O>, span: Span) -> EResult<PTy<O>> {
        use PTy::*;
        match (a, b) {
            (Known(x), Known(y)) if x == y => Ok(Known(x)),
            (Known(x), Known(y)) => err(codes::E0202, format!("type mismatch: {x} vs {y}"), span),
            (IntLit, IntLit) => Ok(IntLit),
            (FloatLit, FloatLit) | (IntLit, FloatLit) | (FloatLit, IntLit) => Ok(FloatLit),
            (IntLit, Known(t)) | (Known(t), IntLit) => {
                if O::const_of_literal(&Literal::Int(0), &t).is_some() {
                    Ok(Known(t))
                } else {
                    err(
                        codes::E0207,
                        format!("integer literal used at type {t}"),
                        span,
                    )
                }
            }
            (FloatLit, Known(t)) | (Known(t), FloatLit) => {
                if O::const_of_literal(&Literal::Float(0.0), &t).is_some() {
                    Ok(Known(t))
                } else {
                    err(
                        codes::E0207,
                        format!("float literal used at type {t}"),
                        span,
                    )
                }
            }
        }
    }

    fn resolve(&self, p: PTy<O>, span: Span) -> EResult<O::Ty> {
        match p {
            PTy::Known(t) => Ok(t),
            PTy::IntLit => O::type_of_name("int").ok_or(()).or_else(|_| {
                err(
                    codes::E0215,
                    "no default integer type in this operator interface",
                    span,
                )
            }),
            PTy::FloatLit => O::type_of_name("real").ok_or(()).or_else(|_| {
                err(
                    codes::E0215,
                    "no default real type in this operator interface",
                    span,
                )
            }),
        }
    }

    fn var_ty(&self, x: Ident, span: Span) -> EResult<PTy<O>> {
        if let Some((t, _, _)) = self.env.vars.get(&x) {
            return Ok(PTy::Known(t.clone()));
        }
        if let Some(c) = self.env.consts.get(&x) {
            return Ok(PTy::Known(O::type_of_const(c)));
        }
        err(codes::E0201, format!("unknown variable {x}"), span)
    }

    /// Infers a partial type bottom-up (used where no expectation exists).
    fn infer(&self, e: ExprId) -> EResult<PTy<O>> {
        match self.ua[e] {
            UExpr::Lit(l, _) => Ok(match self.ua.lit(l) {
                Literal::Int(_) => PTy::IntLit,
                Literal::Float(_) => PTy::FloatLit,
                Literal::Bool(_) => PTy::Known(O::bool_type()),
            }),
            UExpr::Var(x, s) => self.var_ty(x, s),
            UExpr::Unop(SurfaceUnOp::Not, _, _) => Ok(PTy::Known(O::bool_type())),
            UExpr::Unop(SurfaceUnOp::Neg, e1, _) => self.infer(e1),
            UExpr::Binop(op, l, r, s) => {
                use SurfaceBinOp::*;
                match op {
                    Eq | Ne | Lt | Le | Gt | Ge => Ok(PTy::Known(O::bool_type())),
                    And | Or | Xor => Ok(PTy::Known(O::bool_type())),
                    _ => {
                        let a = self.infer(l)?;
                        let b = self.infer(r)?;
                        self.unify(a, b, s)
                    }
                }
            }
            UExpr::When(e1, _, _, _) => self.infer(e1),
            UExpr::Merge(_, t, f, s) | UExpr::If(_, t, f, s) => {
                let a = self.infer(t)?;
                let b = self.infer(f)?;
                self.unify(a, b, s)
            }
            UExpr::Fby(c, e1, s) | UExpr::Arrow(c, e1, s) => {
                let a = self.infer(c)?;
                let b = self.infer(e1)?;
                self.unify(a, b, s)
            }
            UExpr::Pre(e1, _) => self.infer(e1),
            UExpr::Call(f, _, s) => {
                if let Some(t) = O::type_of_name(f.as_str()) {
                    return Ok(PTy::Known(t));
                }
                match self.env.callee(&f) {
                    Some((_, node)) if node.outputs.len() == 1 => {
                        Ok(PTy::Known(node.outputs[0].ty.clone()))
                    }
                    Some((_, node)) => err(
                        codes::E0214,
                        format!(
                            "node {f} has {} outputs; tuple calls only at equation level",
                            node.outputs.len()
                        ),
                        s,
                    ),
                    None => err(codes::E0203, format!("unknown node or type {f}"), s),
                }
            }
        }
    }

    // ---- lowering --------------------------------------------------------

    /// Types `e` at `expected`, clocks it at `ck` and lowers it in
    /// simple-expression position, extracting what is not a simple
    /// expression; returns its root in the node's pool.
    fn simple(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<nl::ExprId> {
        let mark = self.out.open();
        self.stage(e, expected, ck)?;
        Ok(self.out.close(mark))
    }

    /// [`Elab::simple`] for an open expression: stages `e`'s nodes and
    /// returns its staged root.
    ///
    /// The recursion follows the expression's operators, so its frame
    /// bounds how deep an expression a stack takes: it stays small by
    /// handing what is not a simple operator to [`Elab::extract`], and
    /// the checks and their messages to helpers of their own.
    fn stage(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<nl::ExprId> {
        let node = match self.ua[e] {
            UExpr::Lit(..) | UExpr::Var(..) => self.leaf(e, expected, ck)?,
            UExpr::Unop(sop, e1, s) => {
                let operand_ty = match sop {
                    SurfaceUnOp::Not => O::bool_type(),
                    SurfaceUnOp::Neg => expected.clone(),
                };
                let a = self.stage(e1, &operand_ty, ck)?;
                self.unop(sop, a, &operand_ty, expected, s)?
            }
            UExpr::Binop(sop, l, r, s) => {
                let operand_ty = self.operand_ty(sop, l, r, expected, s)?;
                let a = self.stage(l, &operand_ty, ck)?;
                let b = self.stage(r, &operand_ty, ck)?;
                self.binop(sop, a, b, &operand_ty, expected, s)?
            }
            UExpr::When(e1, x, k, s) => {
                let parent = self.when_clock(x, k, ck, s)?;
                Expr::When(self.stage(e1, expected, parent)?, x, k)
            }
            _ => return self.extract(e, expected, ck),
        };
        Ok(self.out.stage(node))
    }

    /// A literal, variable or global constant at type `expected` and
    /// clock `ck`.
    #[inline(never)]
    fn leaf(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<Expr<O>> {
        match self.ua[e] {
            UExpr::Lit(l, s) => match O::const_of_literal(&self.ua.lit(l), expected) {
                Some(c) => Ok(Expr::Const(c)),
                None => err(
                    codes::E0207,
                    format!("literal {} does not fit type {expected}", self.ua.lit(l)),
                    s,
                ),
            },
            UExpr::Var(x, s) => self.var(x, expected, ck, s),
            _ => unreachable!("a leaf is a literal or a variable"),
        }
    }

    /// The unary operator `sop` applied to `a`, at type `expected`.
    #[inline(never)]
    fn unop(
        &self,
        sop: SurfaceUnOp,
        a: nl::ExprId,
        operand_ty: &O::Ty,
        expected: &O::Ty,
        s: Span,
    ) -> EResult<Expr<O>> {
        match O::elab_unop(sop, operand_ty) {
            Some((op, rty)) if rty == *expected => Ok(Expr::Unop(op, a, rty)),
            Some((_, rty)) => err(
                codes::E0202,
                format!("operator {sop} yields {rty}, expected {expected}"),
                s,
            ),
            None => err(
                codes::E0208,
                format!("operator {sop} inapplicable at type {operand_ty}"),
                s,
            ),
        }
    }

    /// The operand type of `l sop r` at type `expected`: inferred for
    /// comparisons, fixed by the operator or the context otherwise.
    #[inline(never)]
    fn operand_ty(
        &self,
        sop: SurfaceBinOp,
        l: ExprId,
        r: ExprId,
        expected: &O::Ty,
        s: Span,
    ) -> EResult<O::Ty> {
        use SurfaceBinOp::*;
        match sop {
            Eq | Ne | Lt | Le | Gt | Ge => {
                let a = self.infer(l)?;
                let b = self.infer(r)?;
                let u = self.unify(a, b, s)?;
                self.resolve(u, s)
            }
            And | Or | Xor => Ok(O::bool_type()),
            _ => Ok(expected.clone()),
        }
    }

    /// The binary operator `sop` applied to `a` and `b`, at type
    /// `expected`.
    #[inline(never)]
    fn binop(
        &self,
        sop: SurfaceBinOp,
        a: nl::ExprId,
        b: nl::ExprId,
        operand_ty: &O::Ty,
        expected: &O::Ty,
        s: Span,
    ) -> EResult<Expr<O>> {
        match O::elab_binop(sop, operand_ty, operand_ty) {
            Some((op, rty)) if rty == *expected => Ok(Expr::Binop(op, a, b, rty)),
            Some((_, rty)) => err(
                codes::E0202,
                format!("operator {sop} yields {rty}, expected {expected}"),
                s,
            ),
            None => err(
                codes::E0208,
                format!("operator {sop} inapplicable at type {operand_ty}"),
                s,
            ),
        }
    }

    /// The clock of `e1` in `e1 when x` (`k`) at clock `ck`: the parent
    /// of `ck`, which must sample `x`.
    #[inline(never)]
    fn when_clock<'c>(&mut self, x: Ident, k: bool, ck: &'c Clock, s: Span) -> EResult<&'c Clock> {
        self.require_bool_var(x, s)?;
        match ck {
            Clock::On(parent, y, k2) if *y == x && *k2 == k => {
                self.var_clock(x, parent);
                Ok(parent)
            }
            _ => {
                self.clock_error(format!("`… when {x}` used at clock `{ck}`"));
                Ok(ck)
            }
        }
    }

    /// Lowers `e` — a cast, or a delay, node call or control expression
    /// met in simple-expression position — and stages it: a cast is an
    /// operator, everything else is extracted into a fresh equation at
    /// `ck` and staged as the variable that stands for it.
    #[inline(never)]
    fn extract(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<nl::ExprId> {
        match self.ua[e] {
            UExpr::Call(f, args, s) if O::type_of_name(f.as_str()).is_some() => {
                let cast = self.cast(f, args, expected, ck, s)?;
                Ok(self.out.stage(cast))
            }
            UExpr::Fby(c, e1, _) => {
                let init = const_value::<O>(self.ua, self.env.consts, c, expected)?;
                let rhs = self.simple(e1, expected, ck)?;
                Ok(self.out.extract_fby(expected, ck, init, rhs, None))
            }
            UExpr::Pre(e1, s) => {
                let rhs = self.simple(e1, expected, ck)?;
                let init = O::default_const(expected);
                Ok(self.out.extract_fby(expected, ck, init, rhs, Some(s)))
            }
            UExpr::Call(f, args, s) => {
                let (node, args) = self.call(f, args, expected, ck, s)?;
                Ok(self.out.extract_call(expected, ck, node, args))
            }
            _ => {
                let rhs = self.control(e, expected, ck)?;
                Ok(self.out.extract_control(expected, ck, rhs))
            }
        }
    }

    /// A variable or global constant read at type `expected` and clock
    /// `ck`.
    fn var(&mut self, x: Ident, expected: &O::Ty, ck: &Clock, s: Span) -> EResult<Expr<O>> {
        if let Some((t, cx, _)) = self.env.vars.get(&x) {
            if t != expected {
                return err(
                    codes::E0202,
                    format!("variable {x} has type {t}, expected {expected}"),
                    s,
                );
            }
            let var = Expr::Var(x, t.clone());
            if cx != ck {
                let msg = format!("variable {x} on clock `{cx}`, expected `{ck}`");
                self.clock_error(msg);
            }
            Ok(var)
        } else if let Some(c) = self.env.consts.get(&x) {
            if O::type_of_const(c) == *expected {
                Ok(Expr::Const(c.clone()))
            } else {
                err(
                    codes::E0202,
                    format!(
                        "constant {x} has type {}, expected {expected}",
                        O::type_of_const(c)
                    ),
                    s,
                )
            }
        } else {
            err(codes::E0201, format!("unknown variable {x}"), s)
        }
    }

    /// The cast `to(arg)` at type `expected`, where `f` names type `to`.
    fn cast(
        &mut self,
        f: Ident,
        args: ExprRange,
        expected: &O::Ty,
        ck: &Clock,
        s: Span,
    ) -> EResult<Expr<O>> {
        let to = O::type_of_name(f.as_str()).expect("a cast names a type");
        let args = self.ua.args(args);
        if args.len() != 1 {
            return err(
                codes::E0204,
                format!("cast {f}(…) takes exactly one argument"),
                s,
            );
        }
        if to != *expected {
            return err(
                codes::E0202,
                format!("cast to {to} used at type {expected}"),
                s,
            );
        }
        let arg = args[0];
        let from_p = self.infer(arg)?;
        let from = self.resolve(from_p, s)?;
        let a = self.stage(arg, &from, ck)?;
        match O::elab_cast(&from, &to) {
            Some(op) => Ok(Expr::Unop(op, a, to)),
            None => err(codes::E0208, format!("no cast from {from} to {to}"), s),
        }
    }

    /// The single-output call `f(args)` at type `expected`: the callee's
    /// id and the lowered arguments.
    fn call(
        &mut self,
        f: Ident,
        args: ExprRange,
        expected: &O::Ty,
        ck: &Clock,
        s: Span,
    ) -> EResult<(NodeId, Vec<nl::ExprId>)> {
        // Borrow the signature straight out of the (outer-lived) callee
        // node — no per-call-site clone of its declarations.
        let (callee, node) = match self.env.callee(&f) {
            Some(sig) => sig,
            None => return err(codes::E0203, format!("unknown node or type {f}"), s),
        };
        let outs = &node.outputs;
        if outs.len() != 1 {
            return err(
                codes::E0214,
                format!(
                    "node {f} has {} outputs; tuple calls only at equation level",
                    outs.len()
                ),
                s,
            );
        }
        if outs[0].ty != *expected {
            return err(
                codes::E0202,
                format!("node {f} returns {}, expected {expected}", outs[0].ty),
                s,
            );
        }
        Ok((callee, self.args(f, &node.inputs, args, ck, s)?))
    }

    /// The arguments of a call to `f`, lowered at the types of its
    /// inputs `ins`.
    fn args(
        &mut self,
        f: Ident,
        ins: &[VarDecl<O>],
        args: ExprRange,
        ck: &Clock,
        span: Span,
    ) -> EResult<Vec<nl::ExprId>> {
        let ua: &'a UArena = self.ua;
        let args = ua.args(args);
        if ins.len() != args.len() {
            return err(
                codes::E0204,
                format!(
                    "node {f} takes {} arguments, {} given",
                    ins.len(),
                    args.len()
                ),
                span,
            );
        }
        let mut lowered = Vec::with_capacity(args.len());
        for (&a, d) in args.iter().zip(ins) {
            lowered.push(self.simple(a, &d.ty, ck)?);
        }
        Ok(lowered)
    }

    /// Types `e` at `expected`, clocks it at `ck` and lowers it in
    /// control-expression position: merges, muxes and arrows nest, and
    /// everything else is a simple-expression leaf.
    fn control(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<nl::CExprId> {
        let mark = self.out.open_control();
        self.stage_control(e, expected, ck)?;
        Ok(self.out.close_control(mark))
    }

    fn stage_control(&mut self, e: ExprId, expected: &O::Ty, ck: &Clock) -> EResult<nl::CExprId> {
        let node = match self.ua[e] {
            UExpr::If(c, t, f, _) => {
                let c = self.simple(c, &O::bool_type(), ck)?;
                let t = self.stage_control(t, expected, ck)?;
                let f = self.stage_control(f, expected, ck)?;
                CExpr::If(c, t, f)
            }
            UExpr::Merge(x, t, f, s) => {
                self.require_bool_var(x, s)?;
                self.var_clock(x, ck);
                let (on_t, on_f) = (self.clocks.on(ck, x, true), self.clocks.on(ck, x, false));
                let t = self.stage_control(t, expected, &on_t)?;
                let f = self.stage_control(f, expected, &on_f)?;
                CExpr::Merge(x, t, f)
            }
            UExpr::Arrow(l, r, _) => {
                let h = self.out.init_flag(ck);
                let t = self.stage_control(l, expected, ck)?;
                let f = self.stage_control(r, expected, ck)?;
                CExpr::If(h, t, f)
            }
            _ => CExpr::Expr(self.simple(e, expected, ck)?),
        };
        Ok(self.out.stage_control(node))
    }

    fn require_bool_var(&self, x: Ident, span: Span) -> EResult<()> {
        match self.env.vars.get(&x) {
            Some((t, _, _)) if *t == O::bool_type() => Ok(()),
            Some((t, _, _)) => err(
                codes::E0302,
                format!("sampler {x} has type {t}, expected bool"),
                span,
            ),
            None => err(codes::E0201, format!("unknown variable {x}"), span),
        }
    }

    // ---- clocks ---------------------------------------------------------

    /// Records a clocking error of the current equation, unless an
    /// earlier one is recorded.
    fn clock_error(&mut self, msg: String) {
        if self.clock_err.is_none() {
            let d =
                Diagnostic::error(codes::E0301, msg, self.eq_span).at_stage(DiagStage::Elaborate);
            self.clock_err = Some(Diagnostics::from(d));
        }
    }

    /// Checks that the (declared, boolean) variable `x` is on clock `ck`.
    fn var_clock(&mut self, x: Ident, ck: &Clock) {
        if let Some((_, cx, _)) = self.env.vars.get(&x) {
            if cx != ck {
                let msg = format!("variable {x} on clock `{cx}`, expected `{ck}`");
                self.clock_error(msg);
            }
        }
    }
}

/// Evaluates a constant expression (literal, possibly negated literal,
/// or global constant) at the expected type.
fn const_value<O: Ops>(
    ua: &UArena,
    consts: &IdentMap<O::Const>,
    e: ExprId,
    expected: &O::Ty,
) -> EResult<O::Const> {
    match ua[e] {
        UExpr::Lit(l, s) => {
            let lit = ua.lit(l);
            O::const_of_literal(&lit, expected).ok_or(()).or_else(|_| {
                err(
                    codes::E0207,
                    format!("literal {lit} does not fit type {expected}"),
                    s,
                )
            })
        }
        UExpr::Var(x, s) => match consts.get(&x) {
            Some(c) if O::type_of_const(c) == *expected => Ok(c.clone()),
            Some(c) => err(
                codes::E0202,
                format!(
                    "constant {x} has type {}, expected {expected}",
                    O::type_of_const(c)
                ),
                s,
            ),
            None => err(
                codes::E0209,
                format!("`fby` initial value must be a constant, found variable {x}"),
                s,
            ),
        },
        ref other => err(
            codes::E0209,
            "`fby` initial value must be a constant expression",
            other.span(),
        ),
    }
}

/// Resolves a declared clock, sharing every sub-clock through `clocks`.
fn elab_clock<O: Ops>(
    ua: &UArena,
    id: ClockId,
    vars: &VarMap<O>,
    clocks: &mut Clocks,
    span: Span,
) -> EResult<Clock> {
    match ua.clock(id) {
        UClock::Base => Ok(Clock::Base),
        UClock::On(parent, x, k) => {
            let p = elab_clock::<O>(ua, parent, vars, clocks, span)?;
            match vars.get(&x) {
                Some((t, cx, _)) => {
                    if *t != O::bool_type() {
                        return err(
                            codes::E0302,
                            format!("clock variable {x} has type {t}, expected bool"),
                            span,
                        );
                    }
                    if *cx != p {
                        return err(
                            codes::E0301,
                            format!("clock variable {x} lives on `{cx}`, expected `{p}`"),
                            span,
                        );
                    }
                    Ok(clocks.on(&p, x, k))
                }
                None => err(codes::E0303, format!("unknown clock variable {x}"), span),
            }
        }
    }
}

/// Topologically orders nodes, callees first.
fn order_nodes<O: Ops>(prog: &UProgram, ua: &UArena) -> EResult<Vec<usize>> {
    let mut index: IdentMap<usize> = ident_map_with_capacity(prog.nodes.len());
    index.extend(prog.nodes.iter().enumerate().map(|(i, n)| (n.name, i)));
    if index.len() != prog.nodes.len() {
        for (i, n) in prog.nodes.iter().enumerate() {
            if index[&n.name] != i {
                return err(
                    codes::E0216,
                    format!("duplicate node name {}", n.name),
                    n.span,
                );
            }
        }
    }
    // DFS with cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; prog.nodes.len()];
    let mut order = Vec::with_capacity(prog.nodes.len());
    fn visit<O: Ops>(
        i: usize,
        prog: &UProgram,
        ua: &UArena,
        index: &IdentMap<usize>,
        marks: &mut Vec<Mark>,
        order: &mut Vec<usize>,
    ) -> EResult<()> {
        match marks[i] {
            Mark::Black => return Ok(()),
            Mark::Grey => {
                return err(
                    codes::E0211,
                    format!(
                        "recursive node instantiation through {}",
                        prog.nodes[i].name
                    ),
                    prog.nodes[i].span,
                )
            }
            Mark::White => {}
        }
        marks[i] = Mark::Grey;
        for &f in ua.callees(prog.nodes[i].callees) {
            if O::type_of_name(f.as_str()).is_some() {
                continue; // a cast, not a node
            }
            if let Some(&j) = index.get(&f) {
                visit::<O>(j, prog, ua, index, marks, order)?;
            }
            // Unknown callees are reported during typing with a position.
        }
        marks[i] = Mark::Black;
        order.push(i);
        Ok(())
    }
    for i in 0..prog.nodes.len() {
        visit::<O>(i, prog, ua, &index, &mut marks, &mut order)?;
    }
    Ok(order)
}

/// Resolves the declarations of a node into `scratch.vars`, building
/// each distinct clock once (`scratch` is cleared first).
fn elab_decls<O: Ops>(
    ua: &UArena,
    groups: [&[UDecl]; 3],
    scratch: &mut NodeScratch<O>,
) -> EResult<ElabDecls<O>> {
    let NodeScratch { clocks, tys, vars } = scratch;
    clocks.clear();
    tys.clear();
    vars.clear();
    // First pass: resolve types (clocks may reference any declared var).
    for (g, d) in groups
        .iter()
        .enumerate()
        .flat_map(|(g, ds)| ds.iter().map(move |d| (g, d)))
    {
        let ty = match O::type_of_name(d.ty_name.as_str()) {
            Some(t) => t,
            None => return err(codes::E0215, format!("unknown type {}", d.ty_name), d.span),
        };
        let def = if g == 0 { Def::Input } else { Def::Pending };
        if tys.insert(d.name, (ty, def)).is_some() {
            return err(
                codes::E0210,
                format!("duplicate declaration of {}", d.name),
                d.span,
            );
        }
    }
    // Second pass: resolve clocks. Clocks may be declared in dependency
    // order (a sampler must be declared with its own clock resolvable);
    // the common case — every clock resolvable in declaration order —
    // completes in one sweep, and only stragglers iterate to fixpoint
    // to allow forward references.
    let mut pending: Vec<&UDecl> = Vec::new();
    for d in groups.iter().flat_map(|g| g.iter()) {
        match elab_clock::<O>(ua, d.clock, vars, clocks, d.span) {
            Ok(ck) => {
                let (ty, def) = tys[&d.name].clone();
                vars.insert(d.name, (ty, ck, def));
            }
            Err(_) => pending.push(d),
        }
    }
    while !pending.is_empty() {
        let before = pending.len();
        let mut next = Vec::new();
        for d in pending {
            match elab_clock::<O>(ua, d.clock, vars, clocks, d.span) {
                Ok(ck) => {
                    let (ty, def) = tys[&d.name].clone();
                    vars.insert(d.name, (ty, ck, def));
                }
                Err(_) => next.push(d),
            }
        }
        if next.len() == before {
            // No progress: report the first real error.
            let d = next[0];
            elab_clock::<O>(ua, d.clock, vars, clocks, d.span)?;
            unreachable!("elab_clock must fail where it failed before");
        }
        pending = next;
    }
    let mk = |g: &[UDecl]| -> Vec<VarDecl<O>> {
        g.iter()
            .map(|d| VarDecl {
                name: d.name,
                ty: vars[&d.name].0.clone(),
                ck: vars[&d.name].1.clone(),
            })
            .collect()
    };
    Ok([mk(groups[0]), mk(groups[1]), mk(groups[2])])
}

fn elab_node<O: Ops>(
    unode: &UNode,
    ua: &UArena,
    consts: &IdentMap<O::Const>,
    sigs: &SigMap,
    nodes: &[nl::Node<O>],
    scratch: &mut NodeScratch<O>,
    out: &mut Lower<O>,
) -> EResult<nl::Node<O>> {
    let [inputs, outputs, locals] = elab_decls::<O>(
        ua,
        [
            ua.decls(unode.inputs),
            ua.decls(unode.outputs),
            ua.decls(unode.locals),
        ],
        scratch,
    )?;
    // Interface variables live on the base clock (paper's restriction).
    for d in inputs.iter().chain(&outputs) {
        if d.ck != Clock::Base {
            return err(
                codes::E0304,
                format!("interface variable {} must be on the base clock", d.name),
                unode.span,
            );
        }
    }
    if outputs.is_empty() {
        return err(
            codes::E0212,
            format!("node {} has no outputs", unode.name),
            unode.span,
        );
    }

    out.start_node(unode.exprs.len(), unode.eqs.len());
    let mut elab = Elab::<O> {
        ua,
        env: NodeEnv {
            vars: &mut scratch.vars,
            consts,
            sigs,
            nodes,
        },
        clocks: &mut scratch.clocks,
        out: &mut *out,
        eq_span: Span::DUMMY,
        clock_err: None,
    };

    for ueq in ua.eqs(unode.eqs) {
        let lhs = ua.lhs(ueq.lhs);
        // The equation clock comes from the (identical) clocks of the
        // defined variables.
        let mut lhs_ck: Option<Clock> = None;
        for x in lhs {
            let Some((_, cx, def)) = elab.env.vars.get_mut(x) else {
                return err(codes::E0201, format!("unknown variable {x}"), ueq.span);
            };
            match &lhs_ck {
                None => lhs_ck = Some(cx.clone()),
                Some(c) if c == cx => {}
                Some(c) => {
                    return err(
                        codes::E0305,
                        format!("tuple pattern mixes clocks `{c}` and `{cx}`"),
                        ueq.span,
                    )
                }
            }
            match def {
                Def::Defined => {
                    return err(
                        codes::E0205,
                        format!("variable {x} defined twice"),
                        ueq.span,
                    )
                }
                Def::Input => {
                    return err(
                        codes::E0213,
                        format!("input {x} cannot be defined"),
                        ueq.span,
                    )
                }
                Def::Pending => *def = Def::Defined,
            }
        }
        let ck = lhs_ck.expect("patterns are non-empty");
        elab.eq_span = ueq.span;
        elab.out.start_equation(lhs, ueq.span);

        if lhs.len() > 1 {
            // Tuple call.
            match ua[ueq.rhs] {
                UExpr::Call(f, args, s) => {
                    if O::type_of_name(f.as_str()).is_some() {
                        return err(codes::E0214, "a cast returns a single value", s);
                    }
                    let (callee, node) = match elab.env.callee(&f) {
                        Some(sig) => sig,
                        None => return err(codes::E0203, format!("unknown node {f}"), s),
                    };
                    let outs = &node.outputs;
                    if outs.len() != lhs.len() {
                        return err(
                            codes::E0214,
                            format!(
                                "node {f} has {} outputs, pattern binds {}",
                                outs.len(),
                                lhs.len()
                            ),
                            s,
                        );
                    }
                    for (x, o) in lhs.iter().zip(outs) {
                        let (tx, _, _) = &elab.env.vars[x];
                        if *tx != o.ty {
                            return err(
                                codes::E0202,
                                format!("{x} has type {tx}, output {} has type {}", o.name, o.ty),
                                s,
                            );
                        }
                    }
                    let args = elab.args(f, &node.inputs, args, &ck, s)?;
                    elab.out.call_equation(lhs.to_vec(), &ck, callee, args);
                }
                ref other => {
                    return err(
                        codes::E0214,
                        "tuple patterns require a node call on the right",
                        other.span(),
                    )
                }
            }
        } else {
            let x = lhs[0];
            let tx = elab.env.vars[&x].0.clone();
            let output = || outputs.iter().any(|d| d.name == x);
            match ua[ueq.rhs] {
                // A top-level delay stays a delay equation, and a
                // top-level call a call equation.
                UExpr::Fby(c, e1, _) => {
                    let init = const_value::<O>(ua, consts, c, &tx)?;
                    let rhs = elab.simple(e1, &tx, &ck)?;
                    elab.out
                        .fby_equation(x, output(), &tx, &ck, init, rhs, None);
                }
                UExpr::Pre(e1, s) => {
                    let rhs = elab.simple(e1, &tx, &ck)?;
                    let init = O::default_const(&tx);
                    elab.out
                        .fby_equation(x, output(), &tx, &ck, init, rhs, Some(s));
                }
                UExpr::Call(f, args, s) if O::type_of_name(f.as_str()).is_none() => {
                    let (node, args) = elab.call(f, args, &tx, &ck, s)?;
                    elab.out.call_equation(vec![x], &ck, node, args);
                }
                _ => {
                    let rhs = elab.control(ueq.rhs, &tx, &ck)?;
                    elab.out.def_equation(x, &ck, rhs);
                }
            }
        }
        if let Some(e) = elab.clock_err.take() {
            return Err(e);
        }
    }

    // Every output and local must be defined.
    for d in outputs.iter().chain(&locals) {
        if elab.env.vars[&d.name].2 != Def::Defined {
            return err(
                codes::E0206,
                format!("variable {} is never defined", d.name),
                unode.span,
            );
        }
    }
    Ok(out.finish(unode.name, unode.span, [inputs, outputs, locals]))
}

/// Elaborates a surface program: resolves constants, orders nodes,
/// type-checks and clock-checks everything, and lowers it to N-Lustre.
///
/// Also returns the [`SpanMap`] recording where every node and equation
/// came from (fresh equations inherit the span of the source equation
/// they were extracted from) — the bridge that lets scheduling,
/// checking and validation failures point at real source positions —
/// and the [`PreMarks`] naming the memory variables that stand for a
/// surface `pre` (with the `pre`'s own span), the input of the semantic
/// initialization analysis.
///
/// The result satisfies the structural invariants of
/// [`velus_nlustre::ast`] by construction and is re-validated by the
/// pipeline's type and clock checks.
///
/// # Errors
///
/// All typing, clocking and structural errors as positioned diagnostics.
pub fn elaborate<O: Ops>(
    prog: &UProgram,
    ua: &UArena,
) -> Result<(Program<O>, SpanMap, PreMarks), Diagnostics> {
    // Global constants.
    let mut consts: IdentMap<O::Const> = ident_map_with_capacity(prog.consts.len());
    for c in &prog.consts {
        let ty = match O::type_of_name(c.ty_name.as_str()) {
            Some(t) => t,
            None => return err(codes::E0215, format!("unknown type {}", c.ty_name), c.span),
        };
        let value = const_value::<O>(ua, &consts, c.value, &ty)?;
        if consts.insert(c.name, value).is_some() {
            return err(
                codes::E0217,
                format!("duplicate constant {}", c.name),
                c.span,
            );
        }
    }

    let order = order_nodes::<O>(prog, ua)?;
    let mut sigs: SigMap = ident_map_with_capacity(prog.nodes.len());
    let mut scratch = NodeScratch {
        clocks: Clocks::default(),
        tys: IdentMap::default(),
        vars: IdentMap::default(),
    };
    let mut out = Lower::new();
    let mut nodes = Vec::with_capacity(prog.nodes.len());
    for i in order {
        let node = elab_node::<O>(
            &prog.nodes[i],
            ua,
            &consts,
            &sigs,
            &nodes,
            &mut scratch,
            &mut out,
        )?;
        sigs.insert(node.name, NodeId::new(nodes.len()));
        nodes.push(node);
    }
    let (spans, marks) = out.into_maps();
    Ok((Program::new(nodes), spans, marks))
}
