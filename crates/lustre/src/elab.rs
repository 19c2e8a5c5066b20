//! Elaboration: typing and clocking of the surface syntax (§2.1).
//!
//! Elaboration rejects programs that are not well typed or well clocked
//! and produces an *annotated* AST ([`TExpr`]) in which every variable and
//! operator application carries its machine type, literals have been
//! resolved to constants of the operator interface, `pre` has been
//! desugared to `fby` of the type's default value (marked in the arena
//! for the semantic initialization analysis), and casts have been
//! resolved.
//!
//! Typed expressions live in a [`TArena`] pool addressed by [`TExprId`],
//! mirroring the surface arena: building is a bump push, dropping is
//! freeing two `Vec`s, and call arguments are contiguous runs. Per-node
//! tables are pre-sized from the declaration and equation counts, and
//! the typed pool is reserved from the surface node's expression count,
//! so elaborating a node does not grow tables mid-way.
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
    Span,
};
use velus_nlustre::clock::{Clock, Clocks};
use velus_ops::{Literal, Ops, SurfaceBinOp, SurfaceUnOp};

use crate::ast::{ClockId, ExprId, ExprRange, UArena, UClock, UDecl, UExpr, UNode, UProgram};

/// An index into a [`TArena`]'s typed-expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TExprId(u32);

impl TExprId {
    /// The position in the pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous run in a [`TArena`] pool: call-argument runs (in the
/// argument pool) and per-node expression slices (in the expression
/// pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TRange {
    /// First index of the run.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl TRange {
    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A typed expression (surface constructs preserved, annotations added).
/// Children are [`TExprId`]s into the owning [`TArena`].
#[derive(Debug, Clone, PartialEq)]
pub enum TExpr<O: Ops> {
    /// A constant (literal or global constant, resolved).
    Const(O::Const),
    /// A variable with its type.
    Var(Ident, O::Ty),
    /// Unary operator (including casts), annotated with the result type.
    Unop(O::UnOp, TExprId, O::Ty),
    /// Binary operator, annotated with the result type.
    Binop(O::BinOp, TExprId, TExprId, O::Ty),
    /// Sampling.
    When(TExprId, Ident, bool),
    /// Merge of complementary streams.
    Merge(Ident, TExprId, TExprId),
    /// Multiplexer.
    If(TExprId, TExprId, TExprId),
    /// Initialized delay (the `pre` form has already been desugared).
    Fby(O::Const, TExprId),
    /// Initialization `e1 -> e2`.
    Arrow(TExprId, TExprId),
    /// Node instantiation; the annotation is the callee's *first*
    /// output type (the value type in expression position — tuple calls
    /// only occur at equation level, where the pattern is checked
    /// against the full signature directly). Elaboration resolves the
    /// callee's name to its id here, once.
    Call(NodeId, TRange, O::Ty),
}

/// The typed-expression and argument pools behind a [`TProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct TArena<O: Ops> {
    exprs: Vec<TExpr<O>>,
    args: Vec<TExprId>,
    /// `Fby` expressions introduced by desugaring a `pre`, with the
    /// `pre`'s source span (id-ascending). Normalization threads these
    /// into the [`velus_common::PreMarks`] the initialization analysis
    /// consumes; the old syntactic W0001 check lived here instead.
    pre_spans: Vec<(TExprId, Span)>,
}

impl<O: Ops> Default for TArena<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Ops> TArena<O> {
    /// An empty arena.
    pub fn new() -> Self {
        TArena {
            exprs: Vec::new(),
            args: Vec::new(),
            pre_spans: Vec::new(),
        }
    }

    /// Empties the pools but keeps their capacity for reuse.
    pub fn clear(&mut self) {
        self.exprs.clear();
        self.args.clear();
        self.pre_spans.clear();
    }

    /// Records that `id` is a `Fby` desugared from a `pre` at `span`.
    fn mark_pre(&mut self, id: TExprId, span: Span) {
        debug_assert!(self.pre_spans.last().is_none_or(|(p, _)| p.0 < id.0));
        self.pre_spans.push((id, span));
    }

    /// The `pre` span of `id`, when `id` is a `pre`-introduced `Fby`.
    pub fn pre_span(&self, id: TExprId) -> Option<Span> {
        self.pre_spans
            .binary_search_by_key(&id.0, |(p, _)| p.0)
            .ok()
            .map(|i| self.pre_spans[i].1)
    }

    /// Adds an expression, returning its id.
    #[inline]
    pub fn push(&mut self, e: TExpr<O>) -> TExprId {
        let id = TExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    /// Moves `stack[base..]` into the argument pool, returning the run.
    fn push_args(&mut self, stack: &mut Vec<TExprId>, base: usize) -> TRange {
        let start = self.args.len() as u32;
        self.args.extend(stack.drain(base..));
        TRange {
            start,
            len: self.args.len() as u32 - start,
        }
    }

    /// The argument run of a call.
    #[inline]
    pub fn args(&self, r: TRange) -> &[TExprId] {
        &self.args[r.start as usize..(r.start + r.len) as usize]
    }

    /// The expressions in a contiguous pool range (a node's slice).
    #[inline]
    pub fn exprs_in(&self, r: TRange) -> &[TExpr<O>] {
        &self.exprs[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of expressions in the pool.
    #[inline]
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Pool capacities `(exprs, args)` — exposed so reuse tests can
    /// assert that recycled arenas stop growing.
    pub fn capacities(&self) -> (usize, usize) {
        (self.exprs.capacity(), self.args.capacity())
    }

    /// The type of an expression (first output for calls). Iterative:
    /// the annotation is at most one spine walk away.
    pub fn ty_of(&self, mut id: TExprId) -> O::Ty {
        loop {
            match &self[id] {
                TExpr::Const(c) => return O::type_of_const(c),
                TExpr::Var(_, ty)
                | TExpr::Unop(_, _, ty)
                | TExpr::Binop(_, _, _, ty)
                | TExpr::Call(_, _, ty) => return ty.clone(),
                TExpr::When(e, _, _)
                | TExpr::Merge(_, e, _)
                | TExpr::If(_, e, _)
                | TExpr::Fby(_, e)
                | TExpr::Arrow(e, _) => id = *e,
            }
        }
    }
}

impl<O: Ops> std::ops::Index<TExprId> for TArena<O> {
    type Output = TExpr<O>;

    #[inline]
    fn index(&self, id: TExprId) -> &TExpr<O> {
        &self.exprs[id.index()]
    }
}

/// A typed equation. The right-hand side is an id into the program's
/// [`TArena`], so the equation itself is interface-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct TEquation {
    /// Defined variables: the source equation's run in the surface
    /// arena's left-hand-side pool ([`UArena::lhs`]), not a copy.
    pub lhs: ExprRange,
    /// The (common) clock of the defined variables.
    pub ck: Clock,
    /// Typed right-hand side.
    pub rhs: TExprId,
    /// The source equation's span (threaded into the
    /// [`velus_common::SpanMap`] by normalization so mid-end failures
    /// point back here).
    pub span: Span,
}

/// A typed node.
#[derive(Debug, Clone, PartialEq)]
pub struct TNode<O: Ops> {
    /// Node name.
    pub name: Ident,
    /// Typed, clocked inputs.
    pub inputs: Vec<velus_nlustre::ast::VarDecl<O>>,
    /// Typed, clocked outputs.
    pub outputs: Vec<velus_nlustre::ast::VarDecl<O>>,
    /// Typed, clocked locals.
    pub locals: Vec<velus_nlustre::ast::VarDecl<O>>,
    /// Typed equations.
    pub eqs: Vec<TEquation>,
    /// The contiguous slice of the typed pool this node occupies, used
    /// by normalization to pre-size from a linear scan.
    pub exprs: TRange,
    /// The node header's span.
    pub span: Span,
}

/// A typed program, nodes in dependency order (callees first). Ids
/// index the [`TArena`] elaboration built it in.
#[derive(Debug, Clone, PartialEq)]
pub struct TProgram<O: Ops> {
    /// The nodes.
    pub nodes: Vec<TNode<O>>,
}

/// Partial types for literal inference.
#[derive(Debug, Clone, PartialEq)]
enum PTy<O: Ops> {
    Known(O::Ty),
    IntLit,
    FloatLit,
}

/// Callee signatures: name → (id, input types, named output types) — the
/// one name → node resolution of the compiler.
type SigMap<O> = IdentMap<(NodeId, Vec<<O as Ops>::Ty>, Vec<(Ident, <O as Ops>::Ty)>)>;

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

/// Elaborated declaration groups (inputs, outputs, locals), plus the
/// combined variable environment.
type ElabDecls<O> = (VarMap<O>, [Vec<velus_nlustre::ast::VarDecl<O>>; 3]);

struct NodeEnv<'e, O: Ops> {
    /// Variable name → (type, clock, definedness).
    vars: VarMap<O>,
    /// Global constants (shared across nodes, hence borrowed — cloning
    /// them per node made elaboration quadratic in program size).
    consts: &'e IdentMap<O::Const>,
    /// Callee signatures: name → (id, input types, outputs); borrowed for
    /// the same reason, and call sites borrow straight from the map
    /// rather than cloning the signature vectors.
    sigs: &'e SigMap<O>,
}

struct Elab<'a, O: Ops> {
    ua: &'a UArena,
    ta: &'a mut TArena<O>,
    env: NodeEnv<'a, O>,
    /// Scratch for call arguments (drained into the arena per call).
    arg_stack: &'a mut Vec<TExprId>,
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
            UExpr::Lit(Literal::Int(_), _) => Ok(PTy::IntLit),
            UExpr::Lit(Literal::Float(_), _) => Ok(PTy::FloatLit),
            UExpr::Lit(Literal::Bool(_), _) => Ok(PTy::Known(O::bool_type())),
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
                match self.env.sigs.get(&f) {
                    Some((_, _, outs)) if outs.len() == 1 => Ok(PTy::Known(outs[0].1.clone())),
                    Some((_, _, outs)) => err(
                        codes::E0214,
                        format!(
                            "node {f} has {} outputs; tuple calls only at equation level",
                            outs.len()
                        ),
                        s,
                    ),
                    None => err(codes::E0203, format!("unknown node or type {f}"), s),
                }
            }
        }
    }

    /// Builds a typed expression at the expected type, returning its id
    /// in the typed arena.
    ///
    /// A `pre` desugars to an uninitialized `fby` and is marked in the
    /// arena ([`TArena::pre_span`]); whether its default value can
    /// actually be observed is decided later by the semantic
    /// initialization analysis (`velus-analysis`), not here.
    fn build(&mut self, e: ExprId, expected: &O::Ty) -> EResult<TExprId> {
        match self.ua[e] {
            UExpr::Lit(lit, s) => match O::const_of_literal(&lit, expected) {
                Some(c) => Ok(self.ta.push(TExpr::Const(c))),
                None => err(
                    codes::E0207,
                    format!("literal {lit} does not fit type {expected}"),
                    s,
                ),
            },
            UExpr::Var(x, s) => {
                if let Some((t, _, _)) = self.env.vars.get(&x) {
                    if t == expected {
                        let t = t.clone();
                        Ok(self.ta.push(TExpr::Var(x, t)))
                    } else {
                        err(
                            codes::E0202,
                            format!("variable {x} has type {t}, expected {expected}"),
                            s,
                        )
                    }
                } else if let Some(c) = self.env.consts.get(&x) {
                    if O::type_of_const(c) == *expected {
                        let c = c.clone();
                        Ok(self.ta.push(TExpr::Const(c)))
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
            UExpr::Unop(sop, e1, s) => {
                let operand_ty = match sop {
                    SurfaceUnOp::Not => O::bool_type(),
                    SurfaceUnOp::Neg => expected.clone(),
                };
                let te = self.build(e1, &operand_ty)?;
                match O::elab_unop(sop, &operand_ty) {
                    Some((op, rty)) if rty == *expected => {
                        Ok(self.ta.push(TExpr::Unop(op, te, rty)))
                    }
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
            UExpr::Binop(sop, l, r, s) => {
                use SurfaceBinOp::*;
                let operand_ty = match sop {
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let a = self.infer(l)?;
                        let b = self.infer(r)?;
                        let u = self.unify(a, b, s)?;
                        self.resolve(u, s)?
                    }
                    And | Or | Xor => O::bool_type(),
                    _ => expected.clone(),
                };
                let tl = self.build(l, &operand_ty)?;
                let tr = self.build(r, &operand_ty)?;
                match O::elab_binop(sop, &operand_ty, &operand_ty) {
                    Some((op, rty)) if rty == *expected => {
                        Ok(self.ta.push(TExpr::Binop(op, tl, tr, rty)))
                    }
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
            UExpr::When(e1, x, k, s) => {
                self.require_bool_var(x, s)?;
                let te = self.build(e1, expected)?;
                Ok(self.ta.push(TExpr::When(te, x, k)))
            }
            UExpr::Merge(x, t, f, s) => {
                self.require_bool_var(x, s)?;
                let tt = self.build(t, expected)?;
                let tf = self.build(f, expected)?;
                Ok(self.ta.push(TExpr::Merge(x, tt, tf)))
            }
            UExpr::If(c, t, f, _) => {
                let tc = self.build(c, &O::bool_type())?;
                let tt = self.build(t, expected)?;
                let tf = self.build(f, expected)?;
                Ok(self.ta.push(TExpr::If(tc, tt, tf)))
            }
            UExpr::Fby(c, e1, _) => {
                let init = self.const_value(c, expected)?;
                let te = self.build(e1, expected)?;
                Ok(self.ta.push(TExpr::Fby(init, te)))
            }
            UExpr::Arrow(l, r, _) => {
                let tl = self.build(l, expected)?;
                let tr = self.build(r, expected)?;
                Ok(self.ta.push(TExpr::Arrow(tl, tr)))
            }
            UExpr::Pre(e1, s) => {
                let te = self.build(e1, expected)?;
                let id = self.ta.push(TExpr::Fby(O::default_const(expected), te));
                self.ta.mark_pre(id, s);
                Ok(id)
            }
            UExpr::Call(f, args, s) => {
                // Type cast?
                if let Some(to) = O::type_of_name(f.as_str()) {
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
                    let te = self.build(arg, &from)?;
                    return match O::elab_cast(&from, &to) {
                        Some(op) => Ok(self.ta.push(TExpr::Unop(op, te, to))),
                        None => err(codes::E0208, format!("no cast from {from} to {to}"), s),
                    };
                }
                // Borrow the signature straight out of the (outer-lived)
                // map — no per-call-site clone of the signature vectors.
                let sigs: &'a SigMap<O> = self.env.sigs;
                let (callee, ins, outs) = match sigs.get(&f) {
                    Some(sig) => sig,
                    None => return err(codes::E0203, format!("unknown node or type {f}"), s),
                };
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
                if outs[0].1 != *expected {
                    return err(
                        codes::E0202,
                        format!("node {f} returns {}, expected {expected}", outs[0].1),
                        s,
                    );
                }
                let targs = self.build_args(f, ins, args, s)?;
                let out_ty = outs[0].1.clone();
                Ok(self.ta.push(TExpr::Call(*callee, targs, out_ty)))
            }
        }
    }

    fn build_args(
        &mut self,
        f: Ident,
        ins: &[O::Ty],
        args: crate::ast::ExprRange,
        span: Span,
    ) -> EResult<TRange> {
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
        let base = self.arg_stack.len();
        for (&a, t) in args.iter().zip(ins) {
            match self.build(a, t) {
                Ok(id) => self.arg_stack.push(id),
                Err(e) => {
                    self.arg_stack.truncate(base);
                    return Err(e);
                }
            }
        }
        Ok(self.ta.push_args(self.arg_stack, base))
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

    /// Evaluates a constant expression (literal, possibly negated literal,
    /// or global constant) at the expected type.
    fn const_value(&self, e: ExprId, expected: &O::Ty) -> EResult<O::Const> {
        match self.ua[e] {
            UExpr::Lit(lit, s) => O::const_of_literal(&lit, expected).ok_or(()).or_else(|_| {
                err(
                    codes::E0207,
                    format!("literal {lit} does not fit type {expected}"),
                    s,
                )
            }),
            UExpr::Var(x, s) => match self.env.consts.get(&x) {
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

    // ---- clocks ---------------------------------------------------------

    /// Checks that `e` is well clocked at `ck` (`None` = clock-polymorphic
    /// constant context is not needed: equations always give a concrete
    /// expectation). Merge branch clocks come from the node's `clocks`.
    fn check_clock(&self, e: TExprId, ck: &Clock, span: Span, clocks: &mut Clocks) -> EResult<()> {
        match &self.ta[e] {
            TExpr::Const(_) => Ok(()),
            TExpr::Var(x, _) => {
                let (_, cx, _) = self.env.vars.get(x).expect("vars checked during typing");
                if cx == ck {
                    Ok(())
                } else {
                    err(
                        codes::E0301,
                        format!("variable {x} on clock `{cx}`, expected `{ck}`"),
                        span,
                    )
                }
            }
            TExpr::Unop(_, e1, _) => self.check_clock(*e1, ck, span, clocks),
            TExpr::Binop(_, l, r, _) => {
                self.check_clock(*l, ck, span, clocks)?;
                self.check_clock(*r, ck, span, clocks)
            }
            TExpr::When(e1, x, k) => match ck {
                Clock::On(parent, y, k2) if y == x && k2 == k => {
                    self.check_var_clock(*x, parent, span)?;
                    self.check_clock(*e1, parent, span, clocks)
                }
                _ => err(
                    codes::E0301,
                    format!("`… when {x}` used at clock `{ck}`"),
                    span,
                ),
            },
            TExpr::Merge(x, t, f) => {
                self.check_var_clock(*x, ck, span)?;
                let (on_t, on_f) = (clocks.on(ck, *x, true), clocks.on(ck, *x, false));
                self.check_clock(*t, &on_t, span, clocks)?;
                self.check_clock(*f, &on_f, span, clocks)
            }
            TExpr::If(c, t, f) => {
                self.check_clock(*c, ck, span, clocks)?;
                self.check_clock(*t, ck, span, clocks)?;
                self.check_clock(*f, ck, span, clocks)
            }
            TExpr::Fby(_, e1) => self.check_clock(*e1, ck, span, clocks),
            TExpr::Arrow(l, r) => {
                self.check_clock(*l, ck, span, clocks)?;
                self.check_clock(*r, ck, span, clocks)
            }
            TExpr::Call(_, args, _) => {
                for &a in self.ta.args(*args) {
                    self.check_clock(a, ck, span, clocks)?;
                }
                Ok(())
            }
        }
    }

    fn check_var_clock(&self, x: Ident, ck: &Clock, span: Span) -> EResult<()> {
        match self.env.vars.get(&x) {
            Some((_, cx, _)) if cx == ck => Ok(()),
            Some((_, cx, _)) => err(
                codes::E0301,
                format!("variable {x} on clock `{cx}`, expected `{ck}`"),
                span,
            ),
            None => err(codes::E0201, format!("unknown variable {x}"), span),
        }
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

/// Scans an expression for node-call targets (for dependency ordering).
fn call_targets(ua: &UArena, e: ExprId, out: &mut Vec<Ident>) {
    match ua[e] {
        UExpr::Call(f, args, _) => {
            out.push(f);
            for &a in ua.args(args) {
                call_targets(ua, a, out);
            }
        }
        UExpr::Lit(..) | UExpr::Var(..) => {}
        UExpr::Unop(_, e1, _) | UExpr::When(e1, _, _, _) | UExpr::Pre(e1, _) => {
            call_targets(ua, e1, out)
        }
        UExpr::Binop(_, l, r, _) | UExpr::Fby(l, r, _) | UExpr::Arrow(l, r, _) => {
            call_targets(ua, l, out);
            call_targets(ua, r, out);
        }
        UExpr::Merge(_, t, f, _) => {
            call_targets(ua, t, out);
            call_targets(ua, f, out);
        }
        UExpr::If(c, t, f, _) => {
            call_targets(ua, c, out);
            call_targets(ua, t, out);
            call_targets(ua, f, out);
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
    let mut calls = Vec::new();
    fn visit<O: Ops>(
        i: usize,
        prog: &UProgram,
        ua: &UArena,
        index: &IdentMap<usize>,
        marks: &mut Vec<Mark>,
        order: &mut Vec<usize>,
        calls: &mut Vec<Ident>,
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
        let base = calls.len();
        for eq in &prog.nodes[i].eqs {
            call_targets(ua, eq.rhs, calls);
        }
        for k in base..calls.len() {
            let f = calls[k];
            if O::type_of_name(f.as_str()).is_some() {
                continue; // a cast, not a node
            }
            if let Some(&j) = index.get(&f) {
                visit::<O>(j, prog, ua, index, marks, order, calls)?;
            }
            // Unknown callees are reported during typing with a position.
        }
        calls.truncate(base);
        marks[i] = Mark::Black;
        order.push(i);
        Ok(())
    }
    for i in 0..prog.nodes.len() {
        visit::<O>(i, prog, ua, &index, &mut marks, &mut order, &mut calls)?;
    }
    Ok(order)
}

/// Resolves the declarations of a node, building each distinct clock
/// once (`clocks` is cleared first).
fn elab_decls<O: Ops>(
    ua: &UArena,
    groups: [&[UDecl]; 3],
    clocks: &mut Clocks,
) -> EResult<ElabDecls<O>> {
    clocks.clear();
    let total = groups.iter().map(|g| g.len()).sum::<usize>();
    // First pass: resolve types (clocks may reference any declared var).
    let mut tys: IdentMap<(O::Ty, Def)> = ident_map_with_capacity(total);
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
    let mut vars: VarMap<O> = ident_map_with_capacity(total);
    let mut pending: Vec<&UDecl> = Vec::new();
    for d in groups.iter().flat_map(|g| g.iter()) {
        match elab_clock::<O>(ua, d.clock, &vars, clocks, d.span) {
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
            match elab_clock::<O>(ua, d.clock, &vars, clocks, d.span) {
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
            elab_clock::<O>(ua, d.clock, &vars, clocks, d.span)?;
            unreachable!("elab_clock must fail where it failed before");
        }
        pending = next;
    }
    let mk = |g: &[UDecl]| -> Vec<velus_nlustre::ast::VarDecl<O>> {
        g.iter()
            .map(|d| velus_nlustre::ast::VarDecl {
                name: d.name,
                ty: vars[&d.name].0.clone(),
                ck: vars[&d.name].1.clone(),
            })
            .collect()
    };
    let out = [mk(groups[0]), mk(groups[1]), mk(groups[2])];
    Ok((vars, out))
}

fn elab_node<O: Ops>(
    unode: &UNode,
    ua: &UArena,
    ta: &mut TArena<O>,
    consts: &IdentMap<O::Const>,
    sigs: &SigMap<O>,
    arg_stack: &mut Vec<TExprId>,
    clocks: &mut Clocks,
) -> EResult<TNode<O>> {
    let (vars, [inputs, outputs, locals]) =
        elab_decls::<O>(ua, [&unode.inputs, &unode.outputs, &unode.locals], clocks)?;
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

    // Cheap first pass: the typed tree is at most one node per surface
    // node (casts and folds only shrink it), so reserving the surface
    // count keeps the pool from growing mid-node.
    let tstart = ta.num_exprs() as u32;
    ta.exprs.reserve(unode.exprs.len());

    let mut elab = Elab::<O> {
        ua,
        ta,
        env: NodeEnv { vars, consts, sigs },
        arg_stack,
    };

    let mut eqs = Vec::with_capacity(unode.eqs.len());
    for ueq in &unode.eqs {
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

        let rhs = if lhs.len() > 1 {
            // Tuple call.
            match ua[ueq.rhs] {
                UExpr::Call(f, args, s) => {
                    if O::type_of_name(f.as_str()).is_some() {
                        return err(codes::E0214, "a cast returns a single value", s);
                    }
                    let (callee, ins, outs) = match sigs.get(&f) {
                        Some(sig) => sig,
                        None => return err(codes::E0203, format!("unknown node {f}"), s),
                    };
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
                    for (x, (oname, oty)) in lhs.iter().zip(outs) {
                        let (tx, _, _) = &elab.env.vars[x];
                        if tx != oty {
                            return err(
                                codes::E0202,
                                format!("{x} has type {tx}, output {oname} has type {oty}"),
                                s,
                            );
                        }
                    }
                    let targs = elab.build_args(f, ins, args, s)?;
                    let out_ty = outs[0].1.clone();
                    elab.ta.push(TExpr::Call(*callee, targs, out_ty))
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
            elab.build(ueq.rhs, &tx)?
        };
        elab.check_clock(rhs, &ck, ueq.span, clocks)?;
        eqs.push(TEquation {
            lhs: ueq.lhs,
            ck,
            rhs,
            span: ueq.span,
        });
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

    Ok(TNode {
        name: unode.name,
        inputs,
        outputs,
        locals,
        eqs,
        exprs: TRange {
            start: tstart,
            len: ta.num_exprs() as u32 - tstart,
        },
        span: unode.span,
    })
}

/// Elaborates a surface program: resolves constants, orders nodes,
/// type-checks and clock-checks everything.
///
/// The typed expressions are built into `ta` (cleared first); the
/// returned program's ids index it. Callers that compile repeatedly
/// pass the same arena back in to reuse its pools.
///
/// Returns the typed program and accumulated warnings (elaboration
/// itself currently emits none: the old syntactic `pre` lint moved to
/// the semantic initialization analysis in `velus-analysis`, fed by
/// [`TArena::pre_span`]).
///
/// # Errors
///
/// All typing, clocking and structural errors as positioned diagnostics.
pub fn elaborate<O: Ops>(
    prog: &UProgram,
    ua: &UArena,
    ta: &mut TArena<O>,
) -> Result<(TProgram<O>, Diagnostics), Diagnostics> {
    ta.clear();
    ta.exprs.reserve(ua.num_exprs());
    let mut arg_stack: Vec<TExprId> = Vec::new();

    // Global constants.
    let mut consts: IdentMap<O::Const> = ident_map_with_capacity(prog.consts.len());
    let empty_sigs = SigMap::<O>::default();
    for c in &prog.consts {
        let ty = match O::type_of_name(c.ty_name.as_str()) {
            Some(t) => t,
            None => return err(codes::E0215, format!("unknown type {}", c.ty_name), c.span),
        };
        let value = {
            let mut scratch_ta = TArena::<O>::new();
            let scratch = Elab::<O> {
                ua,
                ta: &mut scratch_ta,
                env: NodeEnv {
                    vars: VarMap::<O>::default(),
                    consts: &consts,
                    sigs: &empty_sigs,
                },
                arg_stack: &mut arg_stack,
            };
            scratch.const_value(c.value, &ty)?
        };
        if consts.insert(c.name, value).is_some() {
            return err(
                codes::E0217,
                format!("duplicate constant {}", c.name),
                c.span,
            );
        }
    }

    let order = order_nodes::<O>(prog, ua)?;
    let mut sigs: SigMap<O> = ident_map_with_capacity(prog.nodes.len());
    let mut clocks = Clocks::default();
    let mut nodes = Vec::with_capacity(prog.nodes.len());
    for i in order {
        let tnode = elab_node::<O>(
            &prog.nodes[i],
            ua,
            ta,
            &consts,
            &sigs,
            &mut arg_stack,
            &mut clocks,
        )?;
        sigs.insert(
            tnode.name,
            (
                NodeId::new(nodes.len()),
                tnode.inputs.iter().map(|d| d.ty.clone()).collect(),
                tnode
                    .outputs
                    .iter()
                    .map(|d| (d.name, d.ty.clone()))
                    .collect(),
            ),
        );
        nodes.push(tnode);
    }
    Ok((TProgram { nodes }, Diagnostics::new()))
}
