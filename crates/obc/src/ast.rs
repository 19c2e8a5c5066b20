//! Abstract syntax of Obc (paper Fig. 4).
//!
//! Two features are noteworthy (§2.3): expressions and update statements
//! distinguish local variables `x` from memories `state(x)`; and a program
//! is a list of classes, each with typed memories, named instances of
//! previously declared classes, and named methods.

use std::fmt;

use velus_common::pretty::Printer;
use velus_common::{Ident, NodeId, Pool, PoolNode};
use velus_ops::Ops;

/// Returns the conventional name of the `step` method.
///
/// Cached: translation asks for it once per equation, and re-interning
/// even a known string takes the interner's shard lock.
pub fn step_name() -> Ident {
    static NAME: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *NAME.get_or_init(|| Ident::new("step"))
}

/// Returns the conventional name of the `reset` method (cached, see
/// [`step_name`]).
pub fn reset_name() -> Ident {
    static NAME: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *NAME.get_or_init(|| Ident::new("reset"))
}

/// The position of `step` among a node class's methods: translation lays
/// every node's class out as `step`, then `reset`.
pub const STEP: usize = 0;

/// The position of `reset` among a node class's methods (see [`STEP`]).
pub const RESET: usize = 1;

velus_common::pool_id! {
    /// An Obc expression: the id of its root in its method's
    /// [`ObcExprs`] pool.
    pub struct ObcExprId;
}

/// A node of an Obc expression; operators name their operands by id in
/// the same pool.
#[derive(Debug, Clone, PartialEq)]
pub enum ObcExpr<O: Ops> {
    /// A local variable (method input, output or local).
    Var(Ident, O::Ty),
    /// A state variable `state(x)` (a memory of the enclosing class).
    State(Ident, O::Ty),
    /// A constant.
    Const(O::Const),
    /// Unary operator application, annotated with the result type.
    Unop(O::UnOp, ObcExprId, O::Ty),
    /// Binary operator application, annotated with the result type.
    Binop(O::BinOp, ObcExprId, ObcExprId, O::Ty),
}

impl<O: Ops> PoolNode for ObcExpr<O> {
    type Id = ObcExprId;

    fn operands(&self) -> (Option<ObcExprId>, Option<ObcExprId>) {
        match self {
            ObcExpr::Var(..) | ObcExpr::State(..) | ObcExpr::Const(_) => (None, None),
            ObcExpr::Unop(_, e, _) => (Some(*e), None),
            ObcExpr::Binop(_, l, r, _) => (Some(*l), Some(*r)),
        }
    }
}

impl<O: Ops> ObcExpr<O> {
    /// The type of the node's value, read off its annotation.
    pub fn ty(&self) -> O::Ty {
        match self {
            ObcExpr::Var(_, ty) | ObcExpr::State(_, ty) => ty.clone(),
            ObcExpr::Const(c) => O::type_of_const(c),
            ObcExpr::Unop(_, _, ty) | ObcExpr::Binop(_, _, _, ty) => ty.clone(),
        }
    }
}

/// The expressions of one method: a post-order pool (see
/// [`velus_common::Pool`]). Build bottom up, operands first.
#[derive(Debug, Clone, PartialEq)]
pub struct ObcExprs<O: Ops>(pub Pool<ObcExprId, ObcExpr<O>>);

impl<O: Ops> Default for ObcExprs<O> {
    fn default() -> ObcExprs<O> {
        ObcExprs(Pool::new())
    }
}

impl<O: Ops> std::ops::Index<ObcExprId> for ObcExprs<O> {
    type Output = ObcExpr<O>;

    fn index(&self, e: ObcExprId) -> &ObcExpr<O> {
        &self.0[e]
    }
}

impl<O: Ops> ObcExprs<O> {
    /// An empty pool.
    pub fn new() -> ObcExprs<O> {
        ObcExprs::default()
    }

    /// Appends a node whose operands are already in the pool.
    pub fn push(&mut self, e: ObcExpr<O>) -> ObcExprId {
        self.0.push(e)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The post-order run of `e`, ending at `e`.
    pub fn tree(&self, e: ObcExprId) -> &[ObcExpr<O>] {
        self.0.tree(e)
    }

    /// The type of expression `e`.
    pub fn ty(&self, e: ObcExprId) -> O::Ty {
        self[e].ty()
    }

    /// Whether expressions `a` and `b` are the same expression: their
    /// post-order runs hold equal nodes, operand ids aside (a post-order
    /// run and the nodes' arities fix the tree).
    pub fn same(&self, a: ObcExprId, b: ObcExprId) -> bool {
        if let (ObcExpr::Var(..) | ObcExpr::State(..), _) = (&self[a], &self[b]) {
            return self[a] == self[b];
        }
        let (ta, tb) = (self.tree(a), self.tree(b));
        ta.len() == tb.len()
            && ta.iter().zip(tb).all(|(x, y)| match (x, y) {
                (ObcExpr::Unop(o1, _, t1), ObcExpr::Unop(o2, _, t2)) => o1 == o2 && t1 == t2,
                (ObcExpr::Binop(o1, _, _, t1), ObcExpr::Binop(o2, _, _, t2)) => {
                    o1 == o2 && t1 == t2
                }
                _ => x == y,
            })
    }

    /// Displays expression `e`.
    pub fn show(&self, e: ObcExprId) -> ShowExpr<'_, O> {
        ShowExpr(self, e)
    }
}

/// Displays an expression of an [`ObcExprs`] pool.
pub struct ShowExpr<'a, O: Ops>(&'a ObcExprs<O>, ObcExprId);

impl<O: Ops> fmt::Display for ShowExpr<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        enum Task<O: Ops> {
            Expr(ObcExprId),
            Op(O::BinOp),
            Close,
        }
        let ex = self.0;
        let mut tasks = vec![Task::<O>::Expr(self.1)];
        while let Some(task) = tasks.pop() {
            match task {
                Task::Expr(e) => match &ex[e] {
                    ObcExpr::Var(x, _) => write!(f, "{x}")?,
                    ObcExpr::State(x, _) => write!(f, "state({x})")?,
                    ObcExpr::Const(c) => write!(f, "{c}")?,
                    ObcExpr::Unop(op, e1, _) => {
                        write!(f, "({op} ")?;
                        tasks.extend([Task::Close, Task::Expr(*e1)]);
                    }
                    ObcExpr::Binop(op, e1, e2, _) => {
                        f.write_str("(")?;
                        tasks.extend([
                            Task::Close,
                            Task::Expr(*e2),
                            Task::Op(*op),
                            Task::Expr(*e1),
                        ]);
                    }
                },
                Task::Op(op) => write!(f, " {op} ")?,
                Task::Close => f.write_str(")")?,
            }
        }
        Ok(())
    }
}

/// An Obc statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `x := e` — update of a local variable.
    Assign(Ident, ObcExprId),
    /// `state(x) := e` — update of a memory.
    AssignSt(Ident, ObcExprId),
    /// `if e then s else s`.
    If(ObcExprId, Block, Block),
    /// `xs := c i.m(es)` — a method call on instance `i` of class `c`,
    /// binding the results to the distinct variables `xs`.
    Call {
        /// Variables receiving the results.
        results: Vec<Ident>,
        /// Class of the instance (a class before the caller's).
        class: NodeId,
        /// Instance name.
        instance: Ident,
        /// Method name.
        method: Ident,
        /// Argument expressions.
        args: Vec<ObcExprId>,
    },
}

impl Stmt {
    /// Whether `s` may write the (local or state) variable `x` — the
    /// paper's `MayWrite` used by the fusion side condition.
    pub fn may_write(&self, x: Ident) -> bool {
        match self {
            Stmt::Assign(y, _) | Stmt::AssignSt(y, _) => *y == x,
            Stmt::If(_, t, f) => t.may_write(x) || f.may_write(x),
            Stmt::Call { results, .. } => results.contains(&x),
        }
    }

    /// Number of constituent statements (for metrics).
    pub fn size(&self) -> usize {
        match self {
            Stmt::Assign(..) | Stmt::AssignSt(..) | Stmt::Call { .. } => 1,
            Stmt::If(_, t, f) => 1 + t.size() + f.size(),
        }
    }

    /// Prints the statement, reading its expressions from `ex` and
    /// naming callee classes through `classes` (their id when `classes`
    /// does not hold them).
    fn print<O: Ops>(&self, p: &mut Printer, ex: &ObcExprs<O>, classes: &[Class<O>]) {
        match self {
            Stmt::Assign(x, e) => p.line_args(format_args!("{x} := {};", ex.show(*e))),
            Stmt::AssignSt(x, e) => p.line_args(format_args!("state({x}) := {};", ex.show(*e))),
            Stmt::If(e, t, f) => {
                p.line_args(format_args!("if {} {{", ex.show(*e)));
                p.block(|p| t.print(p, ex, classes));
                if !f.is_empty() {
                    p.line("} else {");
                    p.block(|p| f.print(p, ex, classes));
                }
                p.line("}");
            }
            Stmt::Call {
                results,
                class,
                instance,
                method,
                args,
            } => {
                let rs: Vec<String> = results.iter().map(|r| r.to_string()).collect();
                let es: Vec<String> = args.iter().map(|&a| ex.show(a).to_string()).collect();
                let lhs = if rs.is_empty() {
                    String::new()
                } else {
                    format!("{} := ", rs.join(", "))
                };
                p.line_args(format_args!(
                    "{lhs}{}({instance}).{method}({});",
                    ClassName(*class, classes),
                    es.join(", ")
                ));
            }
        }
    }
}

/// A statement sequence `s1; s2; …`, executed in order; the empty block
/// is `skip`.
///
/// The paper sequences with a binary `s; s` and right-nests the chain
/// (footnote 4). A block holds the same chain flat, so every traversal
/// (typing, semantics, fusion, generation, `Drop`) loops over a
/// sequence instead of recursing once per statement: recursion depth
/// follows `if` nesting only, never the number of equations in a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    /// The empty block, `skip`.
    pub fn new() -> Block {
        Block(Vec::new())
    }

    /// Whether some statement of the block may write `x` (see
    /// [`Stmt::may_write`]).
    pub fn may_write(&self, x: Ident) -> bool {
        self.iter().any(|s| s.may_write(x))
    }

    /// Number of constituent statements (for metrics); the empty block
    /// counts as the one `skip` it prints as.
    pub fn size(&self) -> usize {
        self.iter().map(Stmt::size).sum::<usize>().max(1)
    }

    fn print<O: Ops>(&self, p: &mut Printer, ex: &ObcExprs<O>, classes: &[Class<O>]) {
        if self.is_empty() {
            p.line("skip;");
        }
        for s in self.iter() {
            s.print(p, ex, classes);
        }
    }

    /// The block's text, its expressions read from `ex`.
    pub fn show<O: Ops>(&self, ex: &ObcExprs<O>) -> String {
        let mut p = Printer::new();
        self.print(&mut p, ex, &[]);
        p.finish().trim_end().to_owned()
    }
}

impl Default for Block {
    fn default() -> Block {
        Block::new()
    }
}

impl std::ops::Deref for Block {
    type Target = Vec<Stmt>;

    fn deref(&self) -> &Vec<Stmt> {
        &self.0
    }
}

impl std::ops::DerefMut for Block {
    fn deref_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.0
    }
}

impl From<Stmt> for Block {
    fn from(s: Stmt) -> Block {
        Block(vec![s])
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<I: IntoIterator<Item = Stmt>>(iter: I) -> Block {
        Block(iter.into_iter().collect())
    }
}

/// A typed variable declaration inside a method or class.
pub type TypedVar<O> = (Ident, <O as Ops>::Ty);

/// A method: output, input and local declarations, and a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Method<O: Ops> {
    /// Method name (`step` or `reset` for translated code).
    pub name: Ident,
    /// Input parameters.
    pub inputs: Vec<TypedVar<O>>,
    /// Output (result) variables.
    pub outputs: Vec<TypedVar<O>>,
    /// Local variables.
    pub locals: Vec<TypedVar<O>>,
    /// The body.
    pub body: Block,
    /// The pool every expression of the body lives in.
    pub exprs: ObcExprs<O>,
}

/// A class: memories, instances of previously declared classes, methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Class<O: Ops> {
    /// Class name (the originating node's name for translated code).
    pub name: Ident,
    /// Typed memory cells (one per `fby`).
    pub memories: Vec<TypedVar<O>>,
    /// `(instance name, class)` pairs (one per node call), each class
    /// before this one.
    pub instances: Vec<(Ident, NodeId)>,
    /// The methods.
    pub methods: Vec<Method<O>>,
}

impl<O: Ops> Class<O> {
    /// Looks up a method by name.
    pub fn method(&self, name: Ident) -> Option<&Method<O>> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// An Obc program: a list of classes, callees first. Translation keeps
/// the node order, so class `k` is node `k`'s class, and a class's
/// [`NodeId`] is its position.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObcProgram<O: Ops> {
    /// The classes in dependency order.
    pub classes: Vec<Class<O>>,
}

/// Displays class `id`'s name when `classes` holds it, the id otherwise.
pub(crate) struct ClassName<'a, O: Ops>(pub NodeId, pub &'a [Class<O>]);

impl<O: Ops> fmt::Display for ClassName<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1.get(self.0.index()) {
            Some(class) => write!(f, "{}", class.name),
            None => write!(f, "{}", self.0),
        }
    }
}

impl<O: Ops> fmt::Display for ObcProgram<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut p = Printer::new();
        for class in &self.classes {
            p.line_args(format_args!("class {} {{", class.name));
            p.block(|p| {
                for (x, ty) in &class.memories {
                    p.line_args(format_args!("memory {x}: {ty};"));
                }
                for (i, c) in &class.instances {
                    p.line_args(format_args!(
                        "instance {i}: {};",
                        ClassName(*c, &self.classes)
                    ));
                }
                for m in &class.methods {
                    let fmt_vars = |vs: &[TypedVar<O>]| {
                        vs.iter()
                            .map(|(x, t)| format!("{x}: {t}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    p.line_args(format_args!(
                        "({}) {}({}) {{ var {} in",
                        fmt_vars(&m.outputs),
                        m.name,
                        fmt_vars(&m.inputs),
                        fmt_vars(&m.locals),
                    ));
                    p.block(|p| m.body.print(p, &m.exprs, &self.classes));
                    p.line("}");
                }
            });
            p.line("}");
        }
        f.write_str(p.finish().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_ops::{CConst, CTy, ClightOps};

    type S = Stmt;
    type B = Block;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    #[test]
    fn may_write_sees_through_structure() {
        let mut ex = ObcExprs::<ClightOps>::new();
        let zero = ex.push(ObcExpr::Const(CConst::int(0)));
        let c = ex.push(ObcExpr::Var(id("c"), CTy::Bool));
        let w: S = Stmt::AssignSt(id("pt"), zero);
        let s = B::from(Stmt::If(c, w.into(), B::new()));
        assert!(s.may_write(id("pt")));
        assert!(!s.may_write(id("c")));
        let call: S = Stmt::Call {
            results: vec![id("a"), id("b")],
            class: NodeId::new(0),
            instance: id("i"),
            method: step_name(),
            args: vec![],
        };
        assert!(call.may_write(id("b")));
    }

    #[test]
    fn display_is_readable() {
        let mut ex = ObcExprs::<ClightOps>::new();
        let x = ex.push(ObcExpr::Var(id("x"), CTy::Bool));
        let c = ex.push(ObcExpr::Var(id("c"), CTy::I32));
        let pt = ex.push(ObcExpr::State(id("pt"), CTy::I32));
        let s = B::from(S::If(
            x,
            Stmt::Assign(id("t"), c).into(),
            Stmt::Assign(id("t"), pt).into(),
        ));
        let text = s.show(&ex);
        assert!(text.contains("if x {"));
        assert!(text.contains("t := state(pt);"));
        // An empty then-branch prints as `skip`, an empty else-branch not
        // at all.
        let s = B::from(S::If(x, B::new(), B::new()));
        assert_eq!(s.show(&ex), "if x {\n  skip;\n}");
        // Operators print fully parenthesized.
        let pt = ex.push(ObcExpr::State(id("pt"), CTy::I32));
        let c = ex.push(ObcExpr::Var(id("c"), CTy::I32));
        let neg = ex.push(ObcExpr::Unop(velus_ops::CUnOp::Neg, c, CTy::I32));
        let sum = ex.push(ObcExpr::Binop(velus_ops::CBinOp::Add, pt, neg, CTy::I32));
        assert_eq!(ex.tree(sum).len(), 4);
        assert_eq!(ex.show(sum).to_string(), "(state(pt) + (- c))");
    }

    #[test]
    fn size_counts_atoms() {
        let mut ex = ObcExprs::<ClightOps>::new();
        let one = ex.push(ObcExpr::Const(CConst::int(1)));
        let c = ex.push(ObcExpr::Var(id("c"), CTy::Bool));
        let a: S = Stmt::Assign(id("x"), one);
        let s = Block(vec![a.clone(), Stmt::If(c, a.into(), B::new())]);
        assert_eq!(s.size(), 4);
        assert_eq!(B::new().size(), 1);
    }
}
