//! Normalization: typed full Lustre → N-Lustre (§2.1).
//!
//! Normalization "ensures that every fby expression and node instantiation
//! occurs in a dedicated equation and not nested arbitrarily within an
//! expression", and that merges and muxes appear only at the top of
//! control expressions. It is justified by referential transparency: a
//! variable can always be replaced by its defining expression and
//! conversely.
//!
//! Concretely, this pass:
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
//! The traversal is id-based over the elaborator's [`TArena`]: before
//! normalizing a node, a linear scan over the node's contiguous arena
//! slice counts how many equations and locals extraction will create, so
//! every output vector is sized once up front.

use velus_common::{FreshGen, Ident, PreMarks, Span, SpanMap};
use velus_nlustre::ast::{CExprId, Equation, Expr, ExprId, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::{Clock, Clocks};
use velus_nlustre::SemError;
use velus_ops::Ops;

use crate::ast::UArena;
use crate::elab::{TArena, TEquation, TExpr, TExprId, TNode, TProgram};

struct Norm<'a, O: Ops> {
    ta: &'a TArena<O>,
    fresh: FreshGen,
    new_locals: Vec<VarDecl<O>>,
    new_eqs: Vec<Equation<O>>,
    /// Shared `true fby false` initialization flags, per clock. A node
    /// rarely has more than a handful of distinct clocks, so a linear
    /// scan over a `Vec` beats hashing `Clock`s.
    init_flags: Vec<(Clock, Ident)>,
    /// The node's clocks: those of its declarations, and the branch
    /// clocks of its merges, each built once.
    clocks: Clocks,
    /// Span of the source equation currently being normalized; every
    /// extracted equation inherits it.
    current_span: Span,
    /// Defined variable -> source span, for the node's `SpanMap` entry.
    eq_spans: Vec<(Ident, Span)>,
    /// Memory variable -> `pre` span, for the node's [`PreMarks`] entry
    /// (the initialization analysis only inspects these memories).
    pre_marks: Vec<(Ident, Span)>,
    /// The node's expression pools, built in post-order.
    exprs: Exprs<O>,
    /// The variables standing for the sub-expressions extracted from
    /// the simple expressions being normalized, innermost last (see
    /// [`Norm::norm_expr`]).
    extracted: Vec<(Ident, O::Ty)>,
    /// The normalized guards and leaves of the control expressions
    /// being normalized (see [`Norm::norm_cexpr`]).
    leaves: Vec<ExprId>,
}

impl<'a, O: Ops> Norm<'a, O> {
    fn fresh_var(&mut self, prefix: &str, ty: O::Ty, ck: Clock) -> Ident {
        let x = self.fresh.fresh(prefix);
        self.new_locals.push(VarDecl { name: x, ty, ck });
        x
    }

    /// The initialization flag `h = true fby false` for clock `ck`.
    fn init_flag(&mut self, ck: &Clock) -> Ident {
        if let Some((_, h)) = self.init_flags.iter().find(|(c, _)| c == ck) {
            return *h;
        }
        let h = self.fresh_var("h", O::bool_type(), ck.clone());
        self.eq_spans.push((h, self.current_span));
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

    /// Normalizes `e` in control-expression position at clock `ck` into
    /// the node's control pool.
    ///
    /// Two passes keep the pool in post-order (see [`Norm::norm_expr`]):
    /// [`Norm::control_leaves`] normalizes the guards and leaves in
    /// source order, which extracts whatever they nest into fresh
    /// equations, then [`Norm::emit_control`] lays the tree out, uncut.
    fn norm_cexpr(&mut self, e: TExprId, ck: &Clock) -> Result<CExprId, SemError> {
        let mark = self.leaves.len();
        self.control_leaves(e, ck)?;
        let mut next = mark;
        let id = self.emit_control(e, &mut next);
        self.leaves.truncate(mark);
        Ok(id)
    }

    fn control_leaves(&mut self, e: TExprId, ck: &Clock) -> Result<(), SemError> {
        let ta = self.ta;
        match &ta[e] {
            TExpr::If(c, t, f) => {
                let c = self.norm_expr(*c, ck)?;
                self.leaves.push(c);
                self.control_leaves(*t, ck)?;
                self.control_leaves(*f, ck)
            }
            TExpr::Merge(x, t, f) => {
                let on_t = self.clocks.on(ck, *x, true);
                let on_f = self.clocks.on(ck, *x, false);
                self.control_leaves(*t, &on_t)?;
                self.control_leaves(*f, &on_f)
            }
            TExpr::Arrow(l, r) => {
                let h = self.init_flag(ck);
                let h = self.exprs.var(h, O::bool_type());
                self.leaves.push(h);
                self.control_leaves(*l, ck)?;
                self.control_leaves(*r, ck)
            }
            _ => {
                let e = self.norm_expr(e, ck)?;
                self.leaves.push(e);
                Ok(())
            }
        }
    }

    fn emit_control(&mut self, e: TExprId, next: &mut usize) -> CExprId {
        let ta = self.ta;
        match &ta[e] {
            TExpr::If(_, t, f) | TExpr::Arrow(t, f) => {
                let c = self.leaves[*next];
                *next += 1;
                let t = self.emit_control(*t, next);
                let f = self.emit_control(*f, next);
                self.exprs.ite(c, t, f)
            }
            TExpr::Merge(x, t, f) => {
                let t = self.emit_control(*t, next);
                let f = self.emit_control(*f, next);
                self.exprs.merge(*x, t, f)
            }
            _ => {
                let e = self.leaves[*next];
                *next += 1;
                self.exprs.simple(e)
            }
        }
    }

    /// Normalizes the arguments of a call into the node's pool.
    fn norm_args(
        &mut self,
        args: crate::elab::TRange,
        ck: &Clock,
    ) -> Result<Vec<ExprId>, SemError> {
        let ta = self.ta;
        let ids = ta.args(args);
        let mut out = Vec::with_capacity(ids.len());
        for &a in ids {
            out.push(self.norm_expr(a, ck)?);
        }
        Ok(out)
    }

    /// Normalizes `e` in simple-expression position at clock `ck` into
    /// the node's pool, extracting anything that is not a simple
    /// expression.
    ///
    /// An extracted sub-expression's own equation is normalized into the
    /// same pool, so doing both in one recursion would cut the
    /// expression's post-order run in two. Instead [`Norm::extract`]
    /// first makes every extraction, in the order one recursion would
    /// (fresh names, equations and errors come out the same), and then
    /// [`Norm::emit`] lays the expression out, reading the extracted
    /// variables back in the same order.
    fn norm_expr(&mut self, e: TExprId, ck: &Clock) -> Result<ExprId, SemError> {
        let mark = self.extracted.len();
        self.extract(e, ck)?;
        let mut next = mark;
        let id = self.emit(e, &mut next);
        self.extracted.truncate(mark);
        Ok(id)
    }

    fn extract(&mut self, e: TExprId, ck: &Clock) -> Result<(), SemError> {
        let ta = self.ta;
        match &ta[e] {
            TExpr::Const(_) | TExpr::Var(..) => Ok(()),
            TExpr::Unop(_, e1, _) => self.extract(*e1, ck),
            TExpr::Binop(_, l, r, _) => {
                self.extract(*l, ck)?;
                self.extract(*r, ck)
            }
            TExpr::When(e1, x, k) => {
                let parent = match ck {
                    Clock::On(p, y, k2) if y == x && k2 == k => p.as_ref().clone(),
                    _ => {
                        return Err(SemError::ClockError(format!(
                            "normalization: `when {x}` at clock {ck}"
                        )))
                    }
                };
                self.extract(*e1, &parent)
            }
            TExpr::Fby(init, e1) => {
                let e1 = *e1;
                let init = init.clone();
                let rhs = self.norm_expr(e1, ck)?;
                let ty = ta.ty_of(e1);
                let x = self.fresh_var("fby", ty.clone(), ck.clone());
                self.eq_spans.push((x, self.current_span));
                if let Some(ps) = ta.pre_span(e) {
                    self.pre_marks.push((x, ps));
                }
                self.new_eqs.push(Equation::Fby {
                    x,
                    ck: ck.clone(),
                    init,
                    rhs,
                });
                self.extracted.push((x, ty));
                Ok(())
            }
            TExpr::Call(f, args, out_ty) => {
                let (f, args, out_ty) = (*f, *args, out_ty.clone());
                let args = self.norm_args(args, ck)?;
                let x = self.fresh_var("out", out_ty.clone(), ck.clone());
                self.eq_spans.push((x, self.current_span));
                self.new_eqs.push(Equation::Call {
                    xs: vec![x],
                    ck: ck.clone(),
                    node: f,
                    args,
                });
                self.extracted.push((x, out_ty));
                Ok(())
            }
            TExpr::If(..) | TExpr::Merge(..) | TExpr::Arrow(..) => {
                let rhs = self.norm_cexpr(e, ck)?;
                let ty = ta.ty_of(e);
                let x = self.fresh_var("v", ty.clone(), ck.clone());
                self.eq_spans.push((x, self.current_span));
                self.new_eqs.push(Equation::Def {
                    x,
                    ck: ck.clone(),
                    rhs,
                });
                self.extracted.push((x, ty));
                Ok(())
            }
        }
    }

    fn emit(&mut self, e: TExprId, next: &mut usize) -> ExprId {
        let ta = self.ta;
        let node = match &ta[e] {
            TExpr::Const(c) => Expr::Const(c.clone()),
            TExpr::Var(x, ty) => Expr::Var(*x, ty.clone()),
            TExpr::Unop(op, e1, ty) => Expr::Unop(*op, self.emit(*e1, next), ty.clone()),
            TExpr::Binop(op, l, r, ty) => {
                let l = self.emit(*l, next);
                let r = self.emit(*r, next);
                Expr::Binop(*op, l, r, ty.clone())
            }
            TExpr::When(e1, x, k) => Expr::When(self.emit(*e1, next), *x, *k),
            TExpr::Fby(..)
            | TExpr::Call(..)
            | TExpr::If(..)
            | TExpr::Merge(..)
            | TExpr::Arrow(..) => {
                let (x, ty) = self.extracted[*next].clone();
                *next += 1;
                Expr::Var(x, ty)
            }
        };
        self.exprs.push(node)
    }
}

/// A boolean constant of the operator interface.
fn truthy<O: Ops>(b: bool) -> O::Const {
    let lit = velus_ops::Literal::Bool(b);
    O::const_of_literal(&lit, &O::bool_type())
        .expect("every operator interface supplies boolean constants")
}

/// Counts, in one scan of the node's arena slice, how many equations
/// extraction can create: each `fby`, call, and control expression
/// becomes at most one fresh equation (plus up to one init flag per
/// arrow). The counts bound the fresh-equation and fresh-local vectors
/// so normalization never regrows them.
fn count_extractions<O: Ops>(ta: &TArena<O>, node: &TNode<O>) -> usize {
    ta.exprs_in(node.exprs)
        .iter()
        .filter(|e| {
            matches!(
                e,
                TExpr::Fby(..)
                    | TExpr::Call(..)
                    | TExpr::If(..)
                    | TExpr::Merge(..)
                    | TExpr::Arrow(..)
            )
        })
        .count()
}

fn normalize_node<O: Ops>(
    tnode: TNode<O>,
    ua: &UArena,
    ta: &TArena<O>,
    spans: &mut SpanMap,
    marks: &mut PreMarks,
) -> Result<Node<O>, SemError> {
    let extractions = count_extractions(ta, &tnode);
    let mut norm = Norm::<O> {
        ta,
        fresh: FreshGen::new("n"),
        new_locals: Vec::with_capacity(extractions),
        new_eqs: Vec::with_capacity(extractions),
        init_flags: Vec::new(),
        clocks: Clocks::default(),
        current_span: Span::DUMMY,
        eq_spans: Vec::with_capacity(tnode.eqs.len() + extractions + 1),
        pre_marks: Vec::new(),
        exprs: Exprs::new(),
        extracted: Vec::new(),
        leaves: Vec::new(),
    };
    // Each typed expression becomes at most one simple node; extraction
    // adds a variable per fresh equation and a flag per arrow.
    norm.exprs
        .simple
        .reserve(ta.exprs_in(tnode.exprs).len() + 2 * extractions + 1);
    norm.exprs
        .control
        .reserve(tnode.eqs.len() + 2 * extractions);
    for d in tnode
        .inputs
        .iter()
        .chain(&tnode.outputs)
        .chain(&tnode.locals)
    {
        norm.clocks.share(&d.ck);
    }
    let output_names: Vec<Ident> = tnode.outputs.iter().map(|d| d.name).collect();
    let mut eqs = Vec::with_capacity(tnode.eqs.len() + 1);

    for TEquation { lhs, ck, rhs, span } in &tnode.eqs {
        let lhs = ua.lhs(*lhs);
        norm.current_span = *span;
        for &x in lhs {
            norm.eq_spans.push((x, *span));
        }
        if lhs.len() > 1 {
            // Tuple call.
            match ta[*rhs] {
                TExpr::Call(f, args, _) => {
                    let args = norm.norm_args(args, ck)?;
                    eqs.push(Equation::Call {
                        xs: lhs.to_vec(),
                        ck: ck.clone(),
                        node: f,
                        args,
                    });
                }
                _ => {
                    return Err(SemError::Malformed(
                        "tuple equation without a call survived elaboration".to_owned(),
                    ))
                }
            }
            continue;
        }
        let x = lhs[0];
        match &ta[*rhs] {
            // Keep top-level fbys as fby equations; copy through a fresh
            // local when the target is an output.
            TExpr::Fby(init, e1) => {
                let pre = ta.pre_span(*rhs);
                let (init, e1) = (init.clone(), *e1);
                let rhs = norm.norm_expr(e1, ck)?;
                let ty = ta.ty_of(e1);
                if output_names.contains(&x) {
                    let m = norm.fresh_var("mem", ty.clone(), ck.clone());
                    norm.eq_spans.push((m, *span));
                    // The mark follows the memory: the copy `x = m` is
                    // what the initialization analysis sees reading it.
                    if let Some(ps) = pre {
                        norm.pre_marks.push((m, ps));
                    }
                    eqs.push(Equation::Fby {
                        x: m,
                        ck: ck.clone(),
                        init,
                        rhs,
                    });
                    let copy = norm.exprs.var(m, ty);
                    eqs.push(Equation::Def {
                        x,
                        ck: ck.clone(),
                        rhs: norm.exprs.simple(copy),
                    });
                } else {
                    if let Some(ps) = pre {
                        norm.pre_marks.push((x, ps));
                    }
                    eqs.push(Equation::Fby {
                        x,
                        ck: ck.clone(),
                        init,
                        rhs,
                    });
                }
            }
            // Keep top-level single-output calls as call equations.
            TExpr::Call(f, args, _) => {
                let (f, args) = (*f, *args);
                let args = norm.norm_args(args, ck)?;
                eqs.push(Equation::Call {
                    xs: vec![x],
                    ck: ck.clone(),
                    node: f,
                    args,
                });
            }
            _ => {
                let rhs = norm.norm_cexpr(*rhs, ck)?;
                eqs.push(Equation::Def {
                    x,
                    ck: ck.clone(),
                    rhs,
                });
            }
        }
    }

    let mut eq_spans = velus_common::ident_map_with_capacity(norm.eq_spans.len());
    eq_spans.extend(norm.eq_spans);
    spans.insert_node(
        tnode.name,
        velus_common::NodeSpans {
            span: tnode.span,
            eqs: eq_spans,
        },
    );
    for (v, ps) in norm.pre_marks {
        marks.record(tnode.name, v, ps);
    }
    eqs.extend(norm.new_eqs);
    let mut locals = tnode.locals;
    locals.extend(norm.new_locals);
    Ok(Node {
        name: tnode.name,
        inputs: tnode.inputs,
        outputs: tnode.outputs,
        locals,
        eqs,
        exprs: norm.exprs,
    })
}

/// Normalizes a typed program into N-Lustre. `ua` is the arena the
/// program was parsed into (its equations' left-hand sides live there)
/// and `ta` the arena the elaborator built its expressions into.
///
/// The result satisfies the structural invariants of
/// [`velus_nlustre::ast`] by construction and is re-validated by the
/// pipeline's type and clock checks.
///
/// Also returns the [`SpanMap`] recording where every node and equation
/// came from (fresh equations inherit the span of the source equation
/// they were extracted from) — the bridge that lets scheduling,
/// checking and validation failures point at real source positions —
/// and the [`PreMarks`] naming the memory variables that stand for a
/// surface `pre` (with the `pre`'s own span), the input of the semantic
/// initialization analysis.
///
/// # Errors
///
/// Internal clock inconsistencies (which indicate an elaboration bug) are
/// reported as [`SemError`]s rather than panics.
pub fn normalize<O: Ops>(
    prog: TProgram<O>,
    ua: &UArena,
    ta: &TArena<O>,
) -> Result<(Program<O>, SpanMap, PreMarks), SemError> {
    let mut spans = SpanMap::new();
    let mut marks = PreMarks::new();
    let nodes = prog
        .nodes
        .into_iter()
        .map(|n| normalize_node(n, ua, ta, &mut spans, &mut marks))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Program::new(nodes), spans, marks))
}

#[cfg(test)]
mod tests {
    use super::*;
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
