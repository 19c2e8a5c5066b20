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

use velus_common::{Ident, NodeId, Pool, PoolNode};
use velus_ops::Ops;

use crate::clock::Clock;

velus_common::pool_id! {
    /// A simple expression: the id of its root in its node's
    /// [`Exprs::simple`] pool.
    pub struct ExprId;
}

velus_common::pool_id! {
    /// A control expression: the id of its root in its node's
    /// [`Exprs::control`] pool.
    pub struct CExprId;
}

/// A node of a (sampled) simple expression: no merges, muxes, delays or
/// calls. Operators name their operands by id in the same pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<O: Ops> {
    /// A variable with its declared type.
    Var(Ident, O::Ty),
    /// A constant.
    Const(O::Const),
    /// Unary operator application; the annotation is the *result* type.
    Unop(O::UnOp, ExprId, O::Ty),
    /// Binary operator application; the annotation is the *result* type.
    Binop(O::BinOp, ExprId, ExprId, O::Ty),
    /// Sampling: `e when x` (polarity `true`) or `e whenot x` (`false`).
    When(ExprId, Ident, bool),
}

impl<O: Ops> PoolNode for Expr<O> {
    type Id = ExprId;

    fn operands(&self) -> (Option<ExprId>, Option<ExprId>) {
        match self {
            Expr::Var(..) | Expr::Const(_) => (None, None),
            Expr::Unop(_, e, _) | Expr::When(e, _, _) => (Some(*e), None),
            Expr::Binop(_, l, r, _) => (Some(*l), Some(*r)),
        }
    }
}

/// A node of a control expression: merges and muxes above simple
/// expressions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CExpr {
    /// `merge x ce_true ce_false`: combines two complementary streams.
    Merge(Ident, CExprId, CExprId),
    /// `if e then ce else ce`: a multiplexer — both branches are active,
    /// the guard selects one of the results.
    If(ExprId, CExprId, CExprId),
    /// A simple expression.
    Expr(ExprId),
}

impl PoolNode for CExpr {
    type Id = CExprId;

    #[inline]
    fn operands(&self) -> (Option<CExprId>, Option<CExprId>) {
        match self {
            CExpr::Merge(_, t, f) | CExpr::If(_, t, f) => (Some(*t), Some(*f)),
            CExpr::Expr(_) => (None, None),
        }
    }
}

/// The expressions of one node: two post-order pools (see
/// [`velus_common::Pool`]), one of simple expressions and one of
/// control expressions, whose leaves and guards are simple-expression
/// ids.
///
/// Index with an [`ExprId`] or a [`CExprId`]. Build an expression bottom
/// up, children first: `let x = ex.var(..); let one = ex.constant(..);
/// ex.binop(op, x, one, ty)`. A producer that cannot emit in post-order
/// (say, one that must draw a right operand first) builds into a scratch
/// `Exprs` and moves each finished root over with [`Exprs::copy_expr`].
#[derive(Debug, Clone, PartialEq)]
pub struct Exprs<O: Ops> {
    /// Simple-expression nodes.
    pub simple: Pool<ExprId, Expr<O>>,
    /// Control-expression nodes.
    pub control: Pool<CExprId, CExpr>,
}

impl<O: Ops> Default for Exprs<O> {
    fn default() -> Exprs<O> {
        Exprs::new()
    }
}

impl<O: Ops> std::ops::Index<ExprId> for Exprs<O> {
    type Output = Expr<O>;

    fn index(&self, e: ExprId) -> &Expr<O> {
        &self.simple[e]
    }
}

impl<O: Ops> std::ops::Index<CExprId> for Exprs<O> {
    type Output = CExpr;

    fn index(&self, c: CExprId) -> &CExpr {
        &self.control[c]
    }
}

impl<O: Ops> Exprs<O> {
    /// Empty pools.
    pub fn new() -> Exprs<O> {
        Exprs {
            simple: Pool::new(),
            control: Pool::new(),
        }
    }

    /// Appends a simple-expression node.
    pub fn push(&mut self, e: Expr<O>) -> ExprId {
        self.simple.push(e)
    }

    /// Appends a control-expression node.
    pub fn push_control(&mut self, c: CExpr) -> CExprId {
        self.control.push(c)
    }

    /// `x`, of type `ty`.
    pub fn var(&mut self, x: Ident, ty: O::Ty) -> ExprId {
        self.push(Expr::Var(x, ty))
    }

    /// The constant `c`.
    pub fn constant(&mut self, c: O::Const) -> ExprId {
        self.push(Expr::Const(c))
    }

    /// `op e`, of result type `ty`.
    pub fn unop(&mut self, op: O::UnOp, e: ExprId, ty: O::Ty) -> ExprId {
        self.push(Expr::Unop(op, e, ty))
    }

    /// `l op r`, of result type `ty`.
    pub fn binop(&mut self, op: O::BinOp, l: ExprId, r: ExprId, ty: O::Ty) -> ExprId {
        self.push(Expr::Binop(op, l, r, ty))
    }

    /// `e when x` (`k`) or `e whenot x` (`!k`).
    pub fn when(&mut self, e: ExprId, x: Ident, k: bool) -> ExprId {
        self.push(Expr::When(e, x, k))
    }

    /// The simple expression `e` as a control expression.
    pub fn simple(&mut self, e: ExprId) -> CExprId {
        self.push_control(CExpr::Expr(e))
    }

    /// `merge x t f`.
    pub fn merge(&mut self, x: Ident, t: CExprId, f: CExprId) -> CExprId {
        self.push_control(CExpr::Merge(x, t, f))
    }

    /// `if c then t else f`.
    pub fn ite(&mut self, c: ExprId, t: CExprId, f: CExprId) -> CExprId {
        self.push_control(CExpr::If(c, t, f))
    }

    /// The post-order run of simple expression `e`, ending at `e`.
    pub fn tree(&self, e: ExprId) -> &[Expr<O>] {
        self.simple.tree(e)
    }

    /// The type of simple expression `e`.
    pub fn ty(&self, mut e: ExprId) -> O::Ty {
        loop {
            match &self[e] {
                Expr::Var(_, ty) | Expr::Unop(_, _, ty) | Expr::Binop(_, _, _, ty) => {
                    return ty.clone()
                }
                Expr::Const(c) => return O::type_of_const(c),
                Expr::When(e1, _, _) => e = *e1,
            }
        }
    }

    /// The type of control expression `c`: that of its leftmost leaf.
    pub fn cty(&self, c: CExprId) -> O::Ty {
        match self[self.control.first(c)] {
            CExpr::Expr(e) => self.ty(e),
            _ => unreachable!("a control expression's first node is a leaf"),
        }
    }

    /// Appends the free variables of `e` (including sampling variables)
    /// to `out`, left to right.
    pub fn free_vars_into(&self, e: ExprId, out: &mut Vec<Ident>) {
        match &self[e] {
            Expr::Var(x, _) => return out.push(*x),
            Expr::Const(_) => return,
            _ => {}
        }
        for n in self.tree(e) {
            match n {
                Expr::Var(x, _) | Expr::When(_, x, _) => out.push(*x),
                Expr::Const(_) | Expr::Unop(..) | Expr::Binop(..) => {}
            }
        }
    }

    /// The free variables of `e` (with duplicates).
    pub fn free_vars(&self, e: ExprId) -> Vec<Ident> {
        let mut out = Vec::new();
        self.free_vars_into(e, &mut out);
        out
    }

    /// Appends the free variables of control expression `c` to `out`, in
    /// reading order: a merge's variable and a mux's guard before their
    /// branches. Recurses on the `merge`/`if` nesting only, as the
    /// statements it compiles to do; the simple expressions are loops.
    pub fn control_free_vars_into(&self, c: CExprId, out: &mut Vec<Ident>) {
        match self[c] {
            CExpr::Merge(x, t, f) => {
                out.push(x);
                self.control_free_vars_into(t, out);
                self.control_free_vars_into(f, out);
            }
            CExpr::If(e, t, f) => {
                self.free_vars_into(e, out);
                self.control_free_vars_into(t, out);
                self.control_free_vars_into(f, out);
            }
            CExpr::Expr(e) => self.free_vars_into(e, out),
        }
    }

    /// Copies simple expression `e` of `src` — any pool whose children
    /// precede their parents — into this one in post-order, and returns
    /// the copy's root.
    pub fn copy_expr(&mut self, src: &Exprs<O>, e: ExprId) -> ExprId {
        if let leaf @ (Expr::Var(..) | Expr::Const(_)) = &src[e] {
            return self.push(leaf.clone());
        }
        // (node, operands already copied?) pairs, and the copied roots.
        let mut work = vec![(e, false)];
        let mut done: Vec<ExprId> = Vec::new();
        while let Some((e, ready)) = work.pop() {
            let node = &src[e];
            let copy = match (node, ready) {
                (Expr::Var(..) | Expr::Const(_), _) => node.clone(),
                (Expr::Unop(_, a, _) | Expr::When(a, _, _), false) => {
                    work.extend([(e, true), (*a, false)]);
                    continue;
                }
                (Expr::Binop(_, a, b, _), false) => {
                    work.extend([(e, true), (*b, false), (*a, false)]);
                    continue;
                }
                (Expr::Unop(op, _, ty), true) => Expr::Unop(*op, pop(&mut done), ty.clone()),
                (Expr::When(_, x, k), true) => Expr::When(pop(&mut done), *x, *k),
                (Expr::Binop(op, _, _, ty), true) => {
                    let r = pop(&mut done);
                    Expr::Binop(*op, pop(&mut done), r, ty.clone())
                }
            };
            done.push(self.push(copy));
        }
        pop(&mut done)
    }

    /// Copies control expression `c` of `src` into this one (see
    /// [`Exprs::copy_expr`]).
    pub fn copy_control(&mut self, src: &Exprs<O>, c: CExprId) -> CExprId {
        if let CExpr::Expr(e) = src[c] {
            let e = self.copy_expr(src, e);
            return self.simple(e);
        }
        let mut work = vec![(c, false)];
        let mut done: Vec<CExprId> = Vec::new();
        while let Some((c, ready)) = work.pop() {
            let copy = match (src[c], ready) {
                (CExpr::Expr(e), _) => CExpr::Expr(self.copy_expr(src, e)),
                (CExpr::Merge(_, t, f) | CExpr::If(_, t, f), false) => {
                    work.extend([(c, true), (f, false), (t, false)]);
                    continue;
                }
                (CExpr::Merge(x, _, _), true) => {
                    let f = pop(&mut done);
                    CExpr::Merge(x, pop(&mut done), f)
                }
                (CExpr::If(e, _, _), true) => {
                    let f = pop(&mut done);
                    let t = pop(&mut done);
                    CExpr::If(self.copy_expr(src, e), t, f)
                }
            };
            done.push(self.push_control(copy));
        }
        pop(&mut done)
    }

    /// Copies the expressions of `eq`, whose roots are in `src`, into
    /// this pool in post-order, and re-points `eq` at the copies.
    pub fn copy_equation(&mut self, src: &Exprs<O>, eq: &mut Equation<O>) {
        match eq {
            Equation::Def { rhs, .. } => *rhs = self.copy_control(src, *rhs),
            Equation::Fby { rhs, .. } => *rhs = self.copy_expr(src, *rhs),
            Equation::Call { args, .. } => {
                for a in args {
                    *a = self.copy_expr(src, *a);
                }
            }
        }
    }

    /// Displays simple expression `e`.
    pub fn show(&self, e: ExprId) -> Show<'_, O, ExprId> {
        Show(self, e)
    }

    /// Displays control expression `c`.
    pub fn show_control(&self, c: CExprId) -> Show<'_, O, CExprId> {
        Show(self, c)
    }

    fn write_expr(&self, f: &mut fmt::Formatter<'_>, e: ExprId) -> fmt::Result {
        enum Task<O: Ops> {
            Expr(ExprId),
            Op(O::BinOp),
            When(Ident, bool),
            Close,
        }
        let mut tasks = vec![Task::<O>::Expr(e)];
        while let Some(task) = tasks.pop() {
            match task {
                Task::Expr(e) => match &self[e] {
                    Expr::Var(x, _) => write!(f, "{x}")?,
                    Expr::Const(c) => write!(f, "{c}")?,
                    Expr::Unop(op, e1, _) => {
                        write!(f, "({op} ")?;
                        tasks.extend([Task::Close, Task::Expr(*e1)]);
                    }
                    Expr::Binop(op, e1, e2, _) => {
                        f.write_str("(")?;
                        tasks.extend([
                            Task::Close,
                            Task::Expr(*e2),
                            Task::Op(*op),
                            Task::Expr(*e1),
                        ]);
                    }
                    Expr::When(e1, x, k) => {
                        f.write_str("(")?;
                        tasks.extend([Task::When(*x, *k), Task::Expr(*e1)]);
                    }
                },
                Task::Op(op) => write!(f, " {op} ")?,
                Task::When(x, true) => write!(f, " when {x})")?,
                Task::When(x, false) => write!(f, " whenot {x})")?,
                Task::Close => f.write_str(")")?,
            }
        }
        Ok(())
    }

    fn write_control(&self, f: &mut fmt::Formatter<'_>, c: CExprId) -> fmt::Result {
        enum Task {
            Control(CExprId),
            Text(&'static str),
        }
        let mut tasks = vec![Task::Control(c)];
        while let Some(task) = tasks.pop() {
            match task {
                Task::Control(c) => match self[c] {
                    CExpr::Merge(x, t, e) => {
                        write!(f, "merge {x} (")?;
                        tasks.extend([
                            Task::Text(")"),
                            Task::Control(e),
                            Task::Text(") ("),
                            Task::Control(t),
                        ]);
                    }
                    CExpr::If(g, t, e) => {
                        f.write_str("if ")?;
                        self.write_expr(f, g)?;
                        f.write_str(" then ")?;
                        tasks.extend([Task::Control(e), Task::Text(" else "), Task::Control(t)]);
                    }
                    CExpr::Expr(e) => self.write_expr(f, e)?,
                },
                Task::Text(s) => f.write_str(s)?,
            }
        }
        Ok(())
    }
}

/// Pops an operand the copy loop pushed before its parent.
fn pop<I>(done: &mut Vec<I>) -> I {
    done.pop().expect("operands are copied before their parent")
}

/// Displays an expression of an [`Exprs`] (see [`Exprs::show`]).
pub struct Show<'a, O: Ops, I>(&'a Exprs<O>, I);

impl<O: Ops> fmt::Display for Show<'_, O, ExprId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_expr(f, self.1)
    }
}

impl<O: Ops> fmt::Display for Show<'_, O, CExprId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_control(f, self.1)
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
        rhs: CExprId,
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
        rhs: ExprId,
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
        args: Vec<ExprId>,
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
    /// of its clock; `ex` holds its expressions.
    pub fn reads(&self, ex: &Exprs<O>) -> Vec<Ident> {
        let mut out = Vec::new();
        self.reads_into(ex, &mut out);
        out
    }

    /// Appends the variables read by the equation (clock variables
    /// first) to `out` — the scratch-buffer form of [`Equation::reads`]
    /// used on the compile hot path.
    pub fn reads_into(&self, ex: &Exprs<O>, out: &mut Vec<Ident>) {
        self.clock().vars_into(out);
        match self {
            Equation::Def { rhs, .. } => ex.control_free_vars_into(*rhs, out),
            Equation::Fby { rhs, .. } => ex.free_vars_into(*rhs, out),
            Equation::Call { args, .. } => {
                for &a in args {
                    ex.free_vars_into(a, out);
                }
            }
        }
    }

    /// Writes the equation, reading its expressions from `ex` and naming
    /// a callee through `nodes` (its id when `nodes` does not hold it).
    fn fmt_in(&self, f: &mut fmt::Formatter<'_>, ex: &Exprs<O>, nodes: &[Node<O>]) -> fmt::Result {
        match self {
            Equation::Def { x, ck, rhs } => write!(f, "{x} ={ck}= {}", ex.show_control(*rhs)),
            Equation::Fby { x, ck, init, rhs } => {
                write!(f, "{x} ={ck}= {init} fby {}", ex.show(*rhs))
            }
            Equation::Call { xs, ck, node, args } => {
                let xs: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                let args: Vec<String> = args.iter().map(|&a| ex.show(a).to_string()).collect();
                let (xs, args) = (xs.join(", "), args.join(", "));
                match nodes.get(node.index()) {
                    Some(callee) => write!(f, "({xs}) ={ck}= {}({args})", callee.name),
                    None => write!(f, "({xs}) ={ck}= {node}({args})"),
                }
            }
        }
    }
}

/// Displays an equation of a node (see [`Node::show_eq`]).
pub struct ShowEq<'a, O: Ops>(&'a Equation<O>, &'a Exprs<O>);

impl<O: Ops> fmt::Display for ShowEq<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt_in(f, self.1, &[])
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
    /// The pools every expression of the equations lives in.
    pub exprs: Exprs<O>,
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

    /// Rebuilds the node's pools from its equations' roots, in
    /// post-order, dropping every node no equation reaches: the way back
    /// to the post-order invariant after editing nodes in place.
    pub fn compact_exprs(&mut self) {
        let old = std::mem::take(&mut self.exprs);
        for eq in &mut self.eqs {
            self.exprs.copy_equation(&old, eq);
        }
    }

    /// Displays `eq`, an equation of this node.
    pub fn show_eq<'a>(&'a self, eq: &'a Equation<O>) -> ShowEq<'a, O> {
        ShowEq(eq, &self.exprs)
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
            eq.fmt_in(f, &self.exprs, nodes)?;
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

    type Ex = Exprs<ClightOps>;

    #[test]
    fn expr_types() {
        let mut ex = Ex::new();
        let x = ex.var(Ident::new("x"), CTy::I32);
        assert_eq!(ex.ty(x), CTy::I32);
        let c = ex.constant(CConst::bool(true));
        assert_eq!(ex.ty(c), CTy::Bool);
        let w = ex.when(x, Ident::new("k"), true);
        assert_eq!(ex.ty(w), CTy::I32);
    }

    #[test]
    fn free_vars_include_sampling_vars() {
        let mut ex = Ex::new();
        let x = ex.var(Ident::new("x"), CTy::I32);
        let w = ex.when(x, Ident::new("k"), false);
        assert_eq!(ex.free_vars(w), vec![Ident::new("x"), Ident::new("k")]);
    }

    #[test]
    fn equation_reads_include_clock_vars() {
        let mut ex = Ex::new();
        let x = ex.var(Ident::new("x"), CTy::I32);
        let rhs = ex.simple(x);
        let eq: Equation<ClightOps> = Equation::Def {
            x: Ident::new("y"),
            ck: Clock::Base.on(Ident::new("c"), true),
            rhs,
        };
        assert_eq!(eq.reads(&ex), vec![Ident::new("c"), Ident::new("x")]);
        assert_eq!(eq.defined(), vec![Ident::new("y")]);
    }

    #[test]
    fn display_round_trip_shapes() {
        let mut ex = Ex::new();
        let n = ex.var(Ident::new("n"), CTy::I32);
        let eq: Equation<ClightOps> = Equation::Fby {
            x: Ident::new("c"),
            ck: Clock::Base,
            init: CConst::int(0),
            rhs: n,
        };
        assert_eq!(ShowEq(&eq, &ex).to_string(), "c =.= 0 fby n");
    }

    #[test]
    fn display_and_copy_keep_the_tree() {
        // Build `merge k (x + 1 when k) (if b then -x else 0)` with the
        // right operand drawn first, then copy it into post-order.
        let (x, k, b) = (Ident::new("x"), Ident::new("k"), Ident::new("b"));
        let mut src = Ex::new();
        let one = src.constant(CConst::int(1));
        let xv = src.var(x, CTy::I32);
        let sum = src.binop(velus_ops::CBinOp::Add, xv, one, CTy::I32);
        let sampled = src.when(sum, k, true);
        let t = src.simple(sampled);
        let neg = src.unop(velus_ops::CUnOp::Neg, xv, CTy::I32);
        let zero = src.constant(CConst::int(0));
        let (neg, zero) = (src.simple(neg), src.simple(zero));
        let guard = src.var(b, CTy::Bool);
        let f = src.ite(guard, neg, zero);
        let root = src.merge(k, t, f);
        let text = "merge k (((x + 1) when k)) (if b then (- x) else 0)";
        assert_eq!(src.show_control(root).to_string(), text);
        let mut dst = Ex::new();
        let copy = dst.copy_control(&src, root);
        assert_eq!(dst.show_control(copy).to_string(), text);
        assert_eq!(dst.cty(copy), CTy::I32);
    }
}
