//! Normalization: the N-Lustre form elaboration lowers into (§2.1).
//!
//! Normalization "ensures that every fby expression and node instantiation
//! occurs in a dedicated equation and not nested arbitrarily within an
//! expression", and that merges and muxes appear only at the top of
//! control expressions. It is justified by referential transparency: a
//! variable can always be replaced by its defining expression and
//! conversely.
//!
//! Concretely, normalization:
//!
//! * extracts nested `fby`s, node calls, and control expressions in
//!   expression position into fresh equations;
//! * desugars `e1 -> e2` into `if h then e1 else e2` with one fresh
//!   `h = true fby false` equation per clock (shared across arrows on the
//!   same clock);
//! * copies `fby`-defined *outputs* through a fresh local (the translation
//!   to Obc requires memories to be locals — outputs are returned from the
//!   `step` method's environment);
//! * assigns every generated equation the clock of the expression it was
//!   extracted from.
//!
//! It is not a pass of its own: the elaborator ([`crate::elab`]) types
//! and clocks each surface expression and, in the same walk, emits its
//! N-Lustre form through a `Lower`, which owns the node's expression
//! pools, its fresh names and its extracted equations.
//!
//! The pools must stay post-order and uncut (see
//! [`velus_common::Pool`]), yet an extraction emits another equation's
//! expressions partway through the expression it is extracted from. So
//! every *open* expression is staged, not emitted: its nodes go to a
//! staging stack (`Lower::stage`), and an extraction opens its own run
//! above them. Runs close innermost first, so the run of every open
//! expression stays contiguous on the stack, and closing one
//! (`Lower::close`) moves it whole onto the end of the node's pool,
//! shifting its ids. Control expressions stage the same way on a stack
//! of their own. Fresh names come out in the order one recursion
//! meets them: an arrow's flag on entry, and every extracted variable
//! after its operands.

use velus_common::{FreshGen, Ident, NodeId, PoolId, PreMarks, Span, SpanMap};
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, VarDecl};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

/// The N-Lustre form of the node being elaborated, and the staging
/// stacks of its open expressions. One `Lower` serves a whole program:
/// [`Lower::finish`] hands each node over and keeps the scratch
/// vectors' capacity for the next one, and [`Lower::into_maps`] hands
/// over the program's span map and `pre` marks.
pub(crate) struct Lower<O: Ops> {
    spans: SpanMap,
    marks: PreMarks,
    fresh: FreshGen,
    /// The equations of the source, in order.
    eqs: Vec<Equation<O>>,
    /// The extracted equations and their fresh variables, in order.
    new_eqs: Vec<Equation<O>>,
    new_locals: Vec<VarDecl<O>>,
    /// Shared `true fby false` initialization flags, per clock. A node
    /// rarely has more than a handful of distinct clocks, so a linear
    /// scan over a `Vec` beats hashing `Clock`s.
    init_flags: Vec<(Clock, Ident)>,
    /// Span of the source equation being lowered; every extracted
    /// equation inherits it.
    span: Span,
    /// Defined variable -> source span, for the node's `SpanMap` entry.
    eq_spans: Vec<(Ident, Span)>,
    /// Memory variable -> `pre` span, for the node's [`PreMarks`] entry
    /// (the initialization analysis only inspects these memories).
    pre_marks: Vec<(Ident, Span)>,
    /// The node's expression pools, built in post-order.
    exprs: Exprs<O>,
    /// The nodes of the open simple expressions, innermost run last;
    /// operand ids index this stack.
    staged: Vec<Expr<O>>,
    /// The nodes of the open control expressions, likewise.
    cstaged: Vec<CExpr>,
}

impl<O: Ops> Lower<O> {
    pub(crate) fn new() -> Self {
        Lower {
            spans: SpanMap::new(),
            marks: PreMarks::new(),
            fresh: FreshGen::new("n"),
            eqs: Vec::new(),
            new_eqs: Vec::new(),
            new_locals: Vec::new(),
            init_flags: Vec::new(),
            span: Span::DUMMY,
            eq_spans: Vec::new(),
            pre_marks: Vec::new(),
            exprs: Exprs::new(),
            staged: Vec::new(),
            cstaged: Vec::new(),
        }
    }

    /// Starts a node whose source holds `surface` expressions in
    /// `eqs` equations, reserving its pools from those counts: a surface
    /// expression lowers to at most one simple node (bar the flags of
    /// arrows), and a right-hand side is mostly a leaf or a mux of two.
    pub(crate) fn start_node(&mut self, surface: usize, eqs: usize) {
        self.fresh = FreshGen::new("n");
        self.init_flags.clear();
        self.eqs.reserve(eqs);
        self.exprs.simple.reserve(surface + 1);
        self.exprs.control.reserve(2 * eqs);
    }

    /// Starts the source equation defining `lhs`, at `span`.
    pub(crate) fn start_equation(&mut self, lhs: &[Ident], span: Span) {
        self.span = span;
        self.eq_spans.extend(lhs.iter().map(|&x| (x, span)));
    }

    // ---- staging ---------------------------------------------------------

    /// Opens a simple expression: the mark [`Lower::close`] takes.
    pub(crate) fn open(&self) -> usize {
        self.staged.len()
    }

    /// Stages a node of the innermost open simple expression.
    pub(crate) fn stage(&mut self, e: Expr<O>) -> ExprId {
        self.staged.push(e);
        ExprId::new(self.staged.len() - 1)
    }

    /// Closes the simple expression opened at `mark`: moves its run onto
    /// the node's pool and returns its root there.
    pub(crate) fn close(&mut self, mark: usize) -> ExprId {
        let start = self.exprs.simple.len();
        let at = |a: ExprId| ExprId::new(a.index() - mark + start);
        for e in self.staged.drain(mark..) {
            self.exprs.push(match e {
                Expr::Unop(op, a, ty) => Expr::Unop(op, at(a), ty),
                Expr::Binop(op, a, b, ty) => Expr::Binop(op, at(a), at(b), ty),
                Expr::When(a, x, k) => Expr::When(at(a), x, k),
                leaf @ (Expr::Var(..) | Expr::Const(_)) => leaf,
            });
        }
        ExprId::new(self.exprs.simple.len() - 1)
    }

    /// Opens a control expression: the mark [`Lower::close_control`]
    /// takes.
    pub(crate) fn open_control(&self) -> usize {
        self.cstaged.len()
    }

    /// Stages a node of the innermost open control expression. Its
    /// simple expressions are closed already.
    pub(crate) fn stage_control(&mut self, c: CExpr) -> CExprId {
        self.cstaged.push(c);
        CExprId::new(self.cstaged.len() - 1)
    }

    /// Closes the control expression opened at `mark` (see
    /// [`Lower::close`]).
    pub(crate) fn close_control(&mut self, mark: usize) -> CExprId {
        let start = self.exprs.control.len();
        let at = |c: CExprId| CExprId::new(c.index() - mark + start);
        for c in self.cstaged.drain(mark..) {
            self.exprs.push_control(match c {
                CExpr::Merge(x, t, f) => CExpr::Merge(x, at(t), at(f)),
                CExpr::If(e, t, f) => CExpr::If(e, at(t), at(f)),
                CExpr::Expr(e) => CExpr::Expr(e),
            });
        }
        CExprId::new(self.exprs.control.len() - 1)
    }

    // ---- fresh equations -------------------------------------------------

    fn fresh_var(&mut self, prefix: &str, ty: &O::Ty, ck: &Clock) -> Ident {
        let x = self.fresh.fresh(prefix);
        self.new_locals.push(VarDecl {
            name: x,
            ty: ty.clone(),
            ck: ck.clone(),
        });
        self.eq_spans.push((x, self.span));
        x
    }

    /// The guard of an arrow at clock `ck`: the initialization flag
    /// `h = true fby false` of that clock (made on first use), read in
    /// the node's pool.
    pub(crate) fn init_flag(&mut self, ck: &Clock) -> ExprId {
        let h = match self.init_flags.iter().find(|(c, _)| c == ck) {
            Some((_, h)) => *h,
            None => {
                let h = self.fresh_var("h", &O::bool_type(), ck);
                let rhs = self.exprs.constant(truthy::<O>(false));
                self.new_eqs.push(Equation::Fby {
                    x: h,
                    ck: ck.clone(),
                    init: truthy::<O>(true),
                    rhs,
                });
                self.init_flags.push((ck.clone(), h));
                h
            }
        };
        self.exprs.var(h, O::bool_type())
    }

    /// Extracts `init fby rhs` of type `ty` at `ck` into a fresh
    /// equation (`pre` marks a desugared `pre`) and stages its variable.
    pub(crate) fn extract_fby(
        &mut self,
        ty: &O::Ty,
        ck: &Clock,
        init: O::Const,
        rhs: ExprId,
        pre: Option<Span>,
    ) -> ExprId {
        let x = self.fresh_var("fby", ty, ck);
        if let Some(ps) = pre {
            self.pre_marks.push((x, ps));
        }
        self.new_eqs.push(Equation::Fby {
            x,
            ck: ck.clone(),
            init,
            rhs,
        });
        self.stage(Expr::Var(x, ty.clone()))
    }

    /// Extracts the call `node(args)`, whose output has type `ty`, at
    /// `ck` and stages its variable.
    pub(crate) fn extract_call(
        &mut self,
        ty: &O::Ty,
        ck: &Clock,
        node: NodeId,
        args: Vec<ExprId>,
    ) -> ExprId {
        let x = self.fresh_var("out", ty, ck);
        self.new_eqs.push(Equation::Call {
            xs: vec![x],
            ck: ck.clone(),
            node,
            args,
        });
        self.stage(Expr::Var(x, ty.clone()))
    }

    /// Extracts control expression `rhs` of type `ty` at `ck` and stages
    /// its variable.
    pub(crate) fn extract_control(&mut self, ty: &O::Ty, ck: &Clock, rhs: CExprId) -> ExprId {
        let x = self.fresh_var("v", ty, ck);
        self.new_eqs.push(Equation::Def {
            x,
            ck: ck.clone(),
            rhs,
        });
        self.stage(Expr::Var(x, ty.clone()))
    }

    // ---- source equations ------------------------------------------------

    /// `x = init fby rhs`, through a fresh memory when `x` is an output.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fby_equation(
        &mut self,
        x: Ident,
        output: bool,
        ty: &O::Ty,
        ck: &Clock,
        init: O::Const,
        rhs: ExprId,
        pre: Option<Span>,
    ) {
        let ck = ck.clone();
        if !output {
            if let Some(ps) = pre {
                self.pre_marks.push((x, ps));
            }
            self.eqs.push(Equation::Fby { x, ck, init, rhs });
            return;
        }
        let m = self.fresh_var("mem", ty, &ck);
        // The mark follows the memory: the copy `x = m` is what the
        // initialization analysis sees reading it.
        if let Some(ps) = pre {
            self.pre_marks.push((m, ps));
        }
        self.eqs.push(Equation::Fby {
            x: m,
            ck: ck.clone(),
            init,
            rhs,
        });
        let copy = self.exprs.var(m, ty.clone());
        let rhs = self.exprs.simple(copy);
        self.eqs.push(Equation::Def { x, ck, rhs });
    }

    /// `xs = node(args)`.
    pub(crate) fn call_equation(
        &mut self,
        xs: Vec<Ident>,
        ck: &Clock,
        node: NodeId,
        args: Vec<ExprId>,
    ) {
        self.eqs.push(Equation::Call {
            xs,
            ck: ck.clone(),
            node,
            args,
        });
    }

    /// `x = rhs`.
    pub(crate) fn def_equation(&mut self, x: Ident, ck: &Clock, rhs: CExprId) {
        self.eqs.push(Equation::Def {
            x,
            ck: ck.clone(),
            rhs,
        });
    }

    /// Hands over the finished node, recording its spans and `pre`
    /// memories, and readies the scratch for the next node.
    pub(crate) fn finish(
        &mut self,
        name: Ident,
        span: Span,
        [inputs, outputs, mut locals]: [Vec<VarDecl<O>>; 3],
    ) -> Node<O> {
        let mut eq_spans = velus_common::ident_map_with_capacity(self.eq_spans.len());
        eq_spans.extend(self.eq_spans.drain(..));
        self.spans.insert_node(
            name,
            velus_common::NodeSpans {
                span,
                eqs: eq_spans,
            },
        );
        for (v, ps) in self.pre_marks.drain(..) {
            self.marks.record(name, v, ps);
        }
        let mut eqs = Vec::with_capacity(self.eqs.len() + self.new_eqs.len());
        eqs.append(&mut self.eqs);
        eqs.append(&mut self.new_eqs);
        locals.append(&mut self.new_locals);
        Node {
            name,
            inputs,
            outputs,
            locals,
            eqs,
            exprs: std::mem::take(&mut self.exprs),
        }
    }

    /// The span map and the `pre` marks of every node finished.
    pub(crate) fn into_maps(self) -> (SpanMap, PreMarks) {
        (self.spans, self.marks)
    }
}

/// A boolean constant of the operator interface.
fn truthy<O: Ops>(b: bool) -> O::Const {
    let lit = velus_ops::Literal::Bool(b);
    O::const_of_literal(&lit, &O::bool_type())
        .expect("every operator interface supplies boolean constants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_nlustre::ast::Program;
    use velus_nlustre::check;
    use velus_ops::ClightOps;

    fn compile(src: &str) -> Program<ClightOps> {
        let (prog, _) = crate::compile_to_nlustre::<ClightOps>(src).expect("compiles");
        prog
    }

    #[test]
    fn nested_fby_is_extracted() {
        let prog = compile(
            "node f(x: int) returns (y: int)
             let y = (0 fby x) + x; tel",
        );
        let node = &prog.nodes[0];
        assert_eq!(node.eqs.len(), 2);
        assert!(node.eqs.iter().any(|e| matches!(e, Equation::Fby { .. })));
        check::check_program(&prog).unwrap();
    }

    #[test]
    fn arrow_introduces_shared_init_flag() {
        let prog = compile(
            "node f(x: int) returns (y, z: int)
             let y = 0 -> x; z = 1 -> x; tel",
        );
        let node = &prog.nodes[0];
        // One h = true fby false shared by both arrows.
        let fbys = node
            .eqs
            .iter()
            .filter(|e| matches!(e, Equation::Fby { .. }))
            .count();
        assert_eq!(fbys, 1, "{node}");
        check::check_program(&prog).unwrap();
    }

    #[test]
    fn pre_desugars_to_default_fby() {
        let (prog, warnings) = crate::compile_to_nlustre::<ClightOps>(
            "node f(x: int) returns (y: int)
             let y = pre x; tel",
        )
        .unwrap();
        assert!(warnings.iter().any(|d| d.message.contains("pre")));
        let node = &prog.nodes[0];
        assert!(node.eqs.iter().any(|e| matches!(e, Equation::Fby { .. })));
    }

    #[test]
    fn initialized_pre_does_not_warn() {
        let (_, warnings) = crate::compile_to_nlustre::<ClightOps>(
            "node f(x: int) returns (y: int)
             let y = x -> pre y + x; tel",
        )
        .unwrap();
        assert!(warnings.is_empty(), "{warnings}");
    }

    #[test]
    fn fby_defined_output_gets_a_copy() {
        let prog = compile(
            "node f(x: int) returns (y: int)
             let y = 0 fby (y + x); tel",
        );
        let node = &prog.nodes[0];
        // Output y is defined by a Def that copies the fresh memory.
        let def_y = node.eqs.iter().find_map(|e| match e {
            Equation::Def { x, rhs, .. } if x.as_str() == "y" => Some(rhs),
            _ => None,
        });
        assert!(def_y.is_some(), "{node}");
        velus_obc::translate::translate_program(&prog).unwrap();
    }

    #[test]
    fn nested_calls_are_flattened() {
        let prog = compile(
            "node id(a: int) returns (b: int) let b = a; tel
             node g(x: int) returns (y: int) let y = id(id(x)) + 1; tel",
        );
        let g = &prog.nodes[1];
        let calls = g
            .eqs
            .iter()
            .filter(|e| matches!(e, Equation::Call { .. }))
            .count();
        assert_eq!(calls, 2, "{g}");
        check::check_program(&prog).unwrap();
    }

    #[test]
    fn control_in_expression_position_is_extracted() {
        let prog = compile(
            "node f(c: bool; x: int) returns (y: int)
             let y = (if c then x else 0) + 1; tel",
        );
        let node = &prog.nodes[0];
        assert_eq!(node.eqs.len(), 2, "{node}");
        check::check_program(&prog).unwrap();
    }

    #[test]
    fn normalized_programs_validate() {
        let prog = compile(
            "node counter(ini, inc: int; res: bool) returns (n: int)
             let
               n = if (true fby false) or res then ini else (0 fby n) + inc;
             tel
             node d_integrator(gamma: int) returns (speed, position: int)
             let
               speed = counter(0, gamma, false);
               position = counter(0, speed, false);
             tel",
        );
        check::check_program(&prog).unwrap();
        assert_eq!(prog.nodes.len(), 2);
        // counter first (callee), d_integrator second.
        assert_eq!(prog.nodes[0].name.as_str(), "counter");
    }
}
