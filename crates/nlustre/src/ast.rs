//! Abstract syntax of SN-Lustre (paper Fig. 2).
//!
//! The normalization invariants are *structural* here, exactly as in the
//! paper: `merge` and `if/then/else` occur only at the top of control
//! expressions ([`CExpr`]), and delays and node instantiations occur only
//! as dedicated equations ([`Equation::Fby`], [`Equation::Call`]).
//!
//! The AST is annotated with the types produced by elaboration (variables
//! and operator applications carry their result type), which is what makes
//! the interpreters and the translation to Obc type-driven.

use std::fmt;

use velus_common::{Ident, NodeId};
use velus_ops::Ops;

use crate::clock::Clock;

/// A (sampled) simple expression: no merges, muxes, delays or calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<O: Ops> {
    /// A variable with its declared type.
    Var(Ident, O::Ty),
    /// A constant.
    Const(O::Const),
    /// Unary operator application; the annotation is the *result* type.
    Unop(O::UnOp, Box<Expr<O>>, O::Ty),
    /// Binary operator application; the annotation is the *result* type.
    Binop(O::BinOp, Box<Expr<O>>, Box<Expr<O>>, O::Ty),
    /// Sampling: `e when x` (polarity `true`) or `e whenot x` (`false`).
    When(Box<Expr<O>>, Ident, bool),
}

impl<O: Ops> Expr<O> {
    /// The type of the expression.
    pub fn ty(&self) -> O::Ty {
        match self {
            Expr::Var(_, ty) => ty.clone(),
            Expr::Const(c) => O::type_of_const(c),
            Expr::Unop(_, _, ty) => ty.clone(),
            Expr::Binop(_, _, _, ty) => ty.clone(),
            Expr::When(e, _, _) => e.ty(),
        }
    }

    /// Appends the free variables (including sampling variables) to `out`.
    pub fn free_vars_into(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::Var(x, _) => out.push(*x),
            Expr::Const(_) => {}
            Expr::Unop(_, e, _) => e.free_vars_into(out),
            Expr::Binop(_, e1, e2, _) => {
                e1.free_vars_into(out);
                e2.free_vars_into(out);
            }
            Expr::When(e, x, _) => {
                e.free_vars_into(out);
                out.push(*x);
            }
        }
    }

    /// The free variables of the expression (with duplicates).
    pub fn free_vars(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out
    }
}

impl<O: Ops> fmt::Display for Expr<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(x, _) => write!(f, "{x}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Unop(op, e, _) => write!(f, "({op} {e})"),
            Expr::Binop(op, e1, e2, _) => write!(f, "({e1} {op} {e2})"),
            Expr::When(e, x, true) => write!(f, "({e} when {x})"),
            Expr::When(e, x, false) => write!(f, "({e} whenot {x})"),
        }
    }
}

/// A control expression: merges and muxes above simple expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr<O: Ops> {
    /// `merge x ce_true ce_false`: combines two complementary streams.
    Merge(Ident, Box<CExpr<O>>, Box<CExpr<O>>),
    /// `if e then ce else ce`: a multiplexer — both branches are active,
    /// the guard selects one of the results.
    If(Expr<O>, Box<CExpr<O>>, Box<CExpr<O>>),
    /// A simple expression.
    Expr(Expr<O>),
}

impl<O: Ops> CExpr<O> {
    /// The type of the control expression.
    pub fn ty(&self) -> O::Ty {
        match self {
            CExpr::Merge(_, t, _) => t.ty(),
            CExpr::If(_, t, _) => t.ty(),
            CExpr::Expr(e) => e.ty(),
        }
    }

    /// Appends the free variables to `out`.
    pub fn free_vars_into(&self, out: &mut Vec<Ident>) {
        match self {
            CExpr::Merge(x, t, e) => {
                out.push(*x);
                t.free_vars_into(out);
                e.free_vars_into(out);
            }
            CExpr::If(c, t, e) => {
                c.free_vars_into(out);
                t.free_vars_into(out);
                e.free_vars_into(out);
            }
            CExpr::Expr(e) => e.free_vars_into(out),
        }
    }

    /// The free variables of the control expression (with duplicates).
    pub fn free_vars(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out
    }
}

impl<O: Ops> fmt::Display for CExpr<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CExpr::Merge(x, t, e) => write!(f, "merge {x} ({t}) ({e})"),
            CExpr::If(c, t, e) => write!(f, "if {c} then {t} else {e}"),
            CExpr::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// An SN-Lustre equation (the three normalized shapes of Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Equation<O: Ops> {
    /// `x =ck ce` — a definition.
    Def {
        /// Defined variable.
        x: Ident,
        /// Clock of the equation.
        ck: Clock,
        /// Right-hand side.
        rhs: CExpr<O>,
    },
    /// `x =ck c fby e` — an initialized delay.
    Fby {
        /// Defined variable.
        x: Ident,
        /// Clock of the equation.
        ck: Clock,
        /// Initial value.
        init: O::Const,
        /// Delayed expression.
        rhs: Expr<O>,
    },
    /// `x :: xs =ck f(es)` — a node instantiation.
    Call {
        /// Variables receiving the node outputs (non-empty; the first one
        /// identifies the instance, as in the paper).
        xs: Vec<Ident>,
        /// Clock of the equation.
        ck: Clock,
        /// The instantiated node (callees come first: its id is below
        /// the caller's).
        node: NodeId,
        /// Argument expressions.
        args: Vec<Expr<O>>,
    },
}

impl<O: Ops> Equation<O> {
    /// The variables defined by the equation, borrowed from the AST —
    /// no allocation (`Def`/`Fby` yield a one-element slice).
    pub fn defined(&self) -> &[Ident] {
        match self {
            Equation::Def { x, .. } | Equation::Fby { x, .. } => std::slice::from_ref(x),
            Equation::Call { xs, .. } => xs,
        }
    }

    /// Whether the equation defines `x`.
    pub fn defines(&self, x: Ident) -> bool {
        self.defined().contains(&x)
    }

    /// The clock of the equation.
    pub fn clock(&self) -> &Clock {
        match self {
            Equation::Def { ck, .. } | Equation::Fby { ck, .. } | Equation::Call { ck, .. } => ck,
        }
    }

    /// The free variables read by the equation, *including* the variables
    /// of its clock.
    pub fn reads(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.reads_into(&mut out);
        out
    }

    /// Appends the variables read by the equation (clock variables
    /// first) to `out` — the scratch-buffer form of [`Equation::reads`]
    /// used on the compile hot path.
    pub fn reads_into(&self, out: &mut Vec<Ident>) {
        self.clock().vars_into(out);
        match self {
            Equation::Def { rhs, .. } => rhs.free_vars_into(out),
            Equation::Fby { rhs, .. } => rhs.free_vars_into(out),
            Equation::Call { args, .. } => {
                for a in args {
                    a.free_vars_into(out);
                }
            }
        }
    }
}

impl<O: Ops> Equation<O> {
    /// Writes the equation, naming a callee through `nodes` (its id when
    /// `nodes` does not hold it).
    fn fmt_in(&self, f: &mut fmt::Formatter<'_>, nodes: &[Node<O>]) -> fmt::Result {
        match self {
            Equation::Def { x, ck, rhs } => write!(f, "{x} ={ck}= {rhs}"),
            Equation::Fby { x, ck, init, rhs } => write!(f, "{x} ={ck}= {init} fby {rhs}"),
            Equation::Call { xs, ck, node, args } => {
                let xs: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                let (xs, args) = (xs.join(", "), args.join(", "));
                match nodes.get(node.index()) {
                    Some(callee) => write!(f, "({xs}) ={ck}= {}({args})", callee.name),
                    None => write!(f, "({xs}) ={ck}= {node}({args})"),
                }
            }
        }
    }
}

impl<O: Ops> fmt::Display for Equation<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_in(f, &[])
    }
}

/// A typed, clocked variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl<O: Ops> {
    /// The variable name.
    pub name: Ident,
    /// Its type.
    pub ty: O::Ty,
    /// Its clock.
    pub ck: Clock,
}

impl<O: Ops> fmt::Display for VarDecl<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ck == Clock::Base {
            write!(f, "{}: {}", self.name, self.ty)
        } else {
            write!(f, "{}: {} :: {}", self.name, self.ty, self.ck)
        }
    }
}

/// A node declaration: a named function from input streams to output
/// streams defined by a set of equations.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<O: Ops> {
    /// Node name.
    pub name: Ident,
    /// Input declarations.
    pub inputs: Vec<VarDecl<O>>,
    /// Output declarations (non-empty).
    pub outputs: Vec<VarDecl<O>>,
    /// Local variable declarations.
    pub locals: Vec<VarDecl<O>>,
    /// The equations. In SN-Lustre (after scheduling) their order is the
    /// execution order of the generated imperative code.
    pub eqs: Vec<Equation<O>>,
}

impl<O: Ops> Node<O> {
    /// Looks up a declaration (input, output or local) by name.
    pub fn decl(&self, x: Ident) -> Option<&VarDecl<O>> {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .chain(&self.locals)
            .find(|d| d.name == x)
    }

    /// Whether `x` is an input of the node.
    pub fn is_input(&self, x: Ident) -> bool {
        self.inputs.iter().any(|d| d.name == x)
    }

    /// The variables defined by `fby` equations (the paper's `mems`), in
    /// equation order.
    pub fn mems_iter(&self) -> impl Iterator<Item = Ident> + '_ {
        self.eqs.iter().filter_map(|eq| match eq {
            Equation::Fby { x, .. } => Some(*x),
            _ => None,
        })
    }
}

impl<O: Ops> Node<O> {
    /// Writes the node, naming callees through `nodes`.
    fn fmt_in(&self, f: &mut fmt::Formatter<'_>, nodes: &[Node<O>]) -> fmt::Result {
        let fmt_decls = |ds: &[VarDecl<O>]| -> String {
            ds.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        };
        writeln!(
            f,
            "node {}({}) returns ({})",
            self.name,
            fmt_decls(&self.inputs),
            fmt_decls(&self.outputs)
        )?;
        if !self.locals.is_empty() {
            writeln!(f, "var {};", fmt_decls(&self.locals))?;
        }
        writeln!(f, "let")?;
        for eq in &self.eqs {
            write!(f, "  ")?;
            eq.fmt_in(f, nodes)?;
            writeln!(f, ";")?;
        }
        write!(f, "tel")
    }
}

impl<O: Ops> fmt::Display for Node<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_in(f, &[])
    }
}

/// A program: a list of nodes, callees first. A node's [`NodeId`] is its
/// position, and every call names a node before its caller (the
/// non-recursion invariant the checkers enforce).
#[derive(Debug, Clone, PartialEq)]
pub struct Program<O: Ops> {
    /// The nodes, in dependency order (callees before callers).
    pub nodes: Vec<Node<O>>,
}

impl<O: Ops> Program<O> {
    /// Creates a program from a node list.
    pub fn new(nodes: Vec<Node<O>>) -> Program<O> {
        Program { nodes }
    }

    /// The node with id `id`, if the program has one.
    pub fn node(&self, id: NodeId) -> Option<&Node<O>> {
        self.nodes.get(id.index())
    }

    /// Total number of equations across all nodes.
    pub fn equation_count(&self) -> usize {
        self.nodes.iter().map(|n| n.eqs.len()).sum()
    }
}

impl<O: Ops> fmt::Display for Program<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
                writeln!(f)?;
            }
            n.fmt_in(f, &self.nodes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_ops::{CConst, CTy, ClightOps};

    type E = Expr<ClightOps>;

    fn var(n: &str) -> E {
        Expr::Var(Ident::new(n), CTy::I32)
    }

    #[test]
    fn expr_types() {
        assert_eq!(var("x").ty(), CTy::I32);
        let c: E = Expr::Const(CConst::bool(true));
        assert_eq!(c.ty(), CTy::Bool);
        let w: E = Expr::When(Box::new(var("x")), Ident::new("k"), true);
        assert_eq!(w.ty(), CTy::I32);
    }

    #[test]
    fn free_vars_include_sampling_vars() {
        let w: E = Expr::When(Box::new(var("x")), Ident::new("k"), false);
        let mut fv = w.free_vars();
        fv.sort();
        assert_eq!(fv, vec![Ident::new("k"), Ident::new("x")]);
    }

    #[test]
    fn equation_reads_include_clock_vars() {
        let eq: Equation<ClightOps> = Equation::Def {
            x: Ident::new("y"),
            ck: Clock::Base.on(Ident::new("c"), true),
            rhs: CExpr::Expr(var("x")),
        };
        let mut reads = eq.reads();
        reads.sort();
        assert_eq!(reads, vec![Ident::new("c"), Ident::new("x")]);
        assert_eq!(eq.defined(), vec![Ident::new("y")]);
    }

    #[test]
    fn display_round_trip_shapes() {
        let eq: Equation<ClightOps> = Equation::Fby {
            x: Ident::new("c"),
            ck: Clock::Base,
            init: CConst::int(0),
            rhs: var("n"),
        };
        assert_eq!(eq.to_string(), "c =.= 0 fby n");
    }
}
