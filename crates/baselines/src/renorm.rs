//! Re-normalization to one operator per equation.
//!
//! Heptagon and Lustre v6 both re-normalize programs so that every
//! equation applies at most one operator (§5). Two consequences matter
//! for worst-case execution time:
//!
//! * every intermediate result becomes a named variable (more
//!   temporaries, hence register pressure), and
//! * a multiplexer's branches become *separate equations computed
//!   unconditionally*, with the `if` reduced to a value selection —
//!   "costly for nested conditional statements" under a compiler that
//!   does not if-convert.
//!
//! The output is ordinary N-Lustre: it re-validates under the same type
//! and clock checkers and runs under the same semantics (the dataflow
//! semantics computes mux branches unconditionally anyway; differential
//! tests in the workspace exercise exactly this equivalence).

use velus_common::FreshGen;
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

/// The re-normalization of one node. Expressions are read from the
/// node's pools (`src`) and built in `scratch` in the order this
/// recursion finishes them, which interleaves a compound operand's
/// fresh equation with the expression it was lifted from; the node's
/// new pools get each finished root copied over in post-order.
struct R<'a, O: Ops> {
    src: &'a Exprs<O>,
    scratch: Exprs<O>,
    fresh: FreshGen,
    locals: Vec<VarDecl<O>>,
    eqs: Vec<Equation<O>>,
}

impl<O: Ops> R<'_, O> {
    fn define(&mut self, prefix: &str, ty: O::Ty, ck: &Clock, rhs: CExprId) -> ExprId {
        let x = self.fresh.fresh(prefix);
        self.locals.push(VarDecl {
            name: x,
            ty: ty.clone(),
            ck: ck.clone(),
        });
        self.eqs.push(Equation::Def {
            x,
            ck: ck.clone(),
            rhs,
        });
        self.scratch.var(x, ty)
    }

    /// Reduces `e` to an atom: a variable, a constant, or a sampling of
    /// an atom.
    fn atomize(&mut self, e: ExprId, ck: &Clock) -> ExprId {
        match &self.src[e] {
            leaf @ (Expr::Var(..) | Expr::Const(..)) => self.scratch.push(leaf.clone()),
            Expr::When(e1, x, k) => {
                let (e1, x, k) = (*e1, *x, *k);
                let parent = match ck {
                    Clock::On(p, _, _) => p.as_ref().clone(),
                    Clock::Base => Clock::Base,
                };
                let a = self.atomize(e1, &parent);
                self.scratch.when(a, x, k)
            }
            Expr::Unop(..) | Expr::Binop(..) => {
                let ty = self.src.ty(e);
                let one_op = self.flatten(e, ck);
                let rhs = self.scratch.simple(one_op);
                self.define("t", ty, ck, rhs)
            }
        }
    }

    /// Reduces `e` to at most one operator over atoms.
    fn flatten(&mut self, e: ExprId, ck: &Clock) -> ExprId {
        match self.src[e].clone() {
            Expr::Unop(op, e1, ty) => {
                let a = self.atomize(e1, ck);
                self.scratch.unop(op, a, ty)
            }
            Expr::Binop(op, l, r, ty) => {
                let l = self.atomize(l, ck);
                let r = self.atomize(r, ck);
                self.scratch.binop(op, l, r, ty)
            }
            _ => self.atomize(e, ck),
        }
    }

    /// Re-normalizes a control expression: merge structure is preserved
    /// (its branches live on sub-clocks), muxes become value selections
    /// over unconditionally computed atoms.
    fn cexpr(&mut self, ce: CExprId, ck: &Clock) -> CExprId {
        match self.src[ce] {
            CExpr::Merge(x, t, f) => {
                let t = self.cexpr(t, &ck.clone().on(x, true));
                let f = self.cexpr(f, &ck.clone().on(x, false));
                self.scratch.merge(x, t, f)
            }
            CExpr::If(c, t, f) => {
                let c = self.atomize(c, ck);
                let t = self.branch_atom(t, ck);
                let f = self.branch_atom(f, ck);
                let (t, f) = (self.scratch.simple(t), self.scratch.simple(f));
                self.scratch.ite(c, t, f)
            }
            CExpr::Expr(e) => {
                let e = self.flatten(e, ck);
                self.scratch.simple(e)
            }
        }
    }

    /// Computes a mux branch into an atom (unconditionally active).
    fn branch_atom(&mut self, ce: CExprId, ck: &Clock) -> ExprId {
        match self.src[ce] {
            CExpr::Expr(e) => self.atomize(e, ck),
            _ => {
                let ty = self.src.cty(ce);
                let rhs = self.cexpr(ce, ck);
                self.define("b", ty, ck, rhs)
            }
        }
    }
}

fn renorm_node<O: Ops>(node: &Node<O>) -> Node<O> {
    let mut r = R::<O> {
        src: &node.exprs,
        scratch: Exprs::new(),
        fresh: FreshGen::new("hp"),
        locals: Vec::new(),
        eqs: Vec::new(),
    };
    let mut eqs = Vec::new();
    for eq in &node.eqs {
        match eq {
            Equation::Def { x, ck, rhs } => {
                let rhs = r.cexpr(*rhs, ck);
                eqs.push(Equation::Def {
                    x: *x,
                    ck: ck.clone(),
                    rhs,
                });
            }
            Equation::Fby { x, ck, init, rhs } => {
                let rhs = r.atomize(*rhs, ck);
                eqs.push(Equation::Fby {
                    x: *x,
                    ck: ck.clone(),
                    init: init.clone(),
                    rhs,
                });
            }
            Equation::Call {
                xs,
                ck,
                node: f,
                args,
            } => {
                let args = args.iter().map(|&a| r.atomize(a, ck)).collect();
                eqs.push(Equation::Call {
                    xs: xs.clone(),
                    ck: ck.clone(),
                    node: *f,
                    args,
                });
            }
        }
    }
    eqs.extend(r.eqs);
    let mut exprs = Exprs::new();
    for eq in &mut eqs {
        exprs.copy_equation(&r.scratch, eq);
    }
    let mut locals = node.locals.clone();
    locals.extend(r.locals);
    Node {
        name: node.name,
        inputs: node.inputs.clone(),
        outputs: node.outputs.clone(),
        locals,
        eqs,
        exprs,
    }
}

/// Re-normalizes every node of a program to one operator per equation.
/// The result is unscheduled; callers re-run scheduling.
pub fn renormalize<O: Ops>(prog: &Program<O>) -> Program<O> {
    Program::new(prog.nodes.iter().map(renorm_node).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_nlustre::schedule::schedule_program;
    use velus_nlustre::streams::SVal;
    use velus_nlustre::{check, dataflow};
    use velus_ops::{CVal, ClightOps};

    fn compile(src: &str) -> Program<ClightOps> {
        velus_lustre::compile_to_nlustre::<ClightOps>(src)
            .unwrap()
            .0
    }

    #[test]
    fn splits_nested_operators() {
        let prog = compile(
            "node f(a, b, c: int) returns (y: int)
             let y = a + b * c - 1; tel",
        );
        let renormed = renormalize(&prog);
        let node = &renormed.nodes[0];
        // y = t1 - 1; t1 = a + t2; t2 = b * c  (3 equations)
        assert!(node.eqs.len() >= 3, "{node}");
        check::check_program(&renormed).unwrap();
    }

    #[test]
    fn muxes_become_value_selections() {
        let prog = compile(
            "node f(c: bool; a, b: int) returns (y: int)
             let y = if c then a + 1 else b - 1; tel",
        );
        let renormed = renormalize(&prog);
        let node = &renormed.nodes[0];
        // Both branch computations are their own (unconditional) equations.
        let defs = node
            .eqs
            .iter()
            .filter(|e| matches!(e, Equation::Def { .. }))
            .count();
        assert!(defs >= 3, "{node}");
    }

    #[test]
    fn semantics_is_preserved() {
        let prog = compile(
            "node counter(ini, inc: int; res: bool) returns (n: int)
             let
               n = if (true fby false) or res then ini else (0 fby n) + inc;
             tel",
        );
        let mut renormed = renormalize(&prog);
        schedule_program(&mut renormed).unwrap();
        let name = velus_common::NodeId::new(0);
        let inputs: Vec<Vec<SVal<ClightOps>>> = vec![
            (0..6).map(|_| SVal::Pres(CVal::int(3))).collect(),
            (0..6).map(|i| SVal::Pres(CVal::int(i))).collect(),
            (0..6).map(|i| SVal::Pres(CVal::bool(i == 4))).collect(),
        ];
        let a = dataflow::run_node(&prog, name, &inputs, 6).unwrap();
        let b = dataflow::run_node(&renormed, name, &inputs, 6).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn merges_keep_their_clock_structure() {
        let prog = compile(
            "node f(x: bool; v: int) returns (o: int)
             var s: int when x;
             let
               s = (v + 1) when x;
               o = merge x s ((0 fby o) when not x);
             tel",
        );
        let renormed = renormalize(&prog);
        check::check_program(&renormed).unwrap();
        let node = &renormed.nodes[0];
        assert!(node.eqs.iter().any(|e| matches!(
            e,
            Equation::Def { rhs, .. } if matches!(node.exprs[*rhs], CExpr::Merge(..))
        )));
    }
}
