//! Abstract syntax of Obc (paper Fig. 4).
//!
//! Two features are noteworthy (§2.3): expressions and update statements
//! distinguish local variables `x` from memories `state(x)`; and a program
//! is a list of classes, each with typed memories, named instances of
//! previously declared classes, and named methods.

use std::fmt;

use velus_common::pretty::Printer;
use velus_common::{Ident, NodeId};
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

/// An Obc expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ObcExpr<O: Ops> {
    /// A local variable (method input, output or local).
    Var(Ident, O::Ty),
    /// A state variable `state(x)` (a memory of the enclosing class).
    State(Ident, O::Ty),
    /// A constant.
    Const(O::Const),
    /// Unary operator application, annotated with the result type.
    Unop(O::UnOp, Box<ObcExpr<O>>, O::Ty),
    /// Binary operator application, annotated with the result type.
    Binop(O::BinOp, Box<ObcExpr<O>>, Box<ObcExpr<O>>, O::Ty),
}

impl<O: Ops> ObcExpr<O> {
    /// The type of the expression.
    pub fn ty(&self) -> O::Ty {
        match self {
            ObcExpr::Var(_, ty) | ObcExpr::State(_, ty) => ty.clone(),
            ObcExpr::Const(c) => O::type_of_const(c),
            ObcExpr::Unop(_, _, ty) | ObcExpr::Binop(_, _, _, ty) => ty.clone(),
        }
    }

    /// Appends the free *local* variables (not state) to `out`.
    pub fn free_vars_into(&self, out: &mut Vec<Ident>) {
        match self {
            ObcExpr::Var(x, _) => out.push(*x),
            ObcExpr::State(_, _) | ObcExpr::Const(_) => {}
            ObcExpr::Unop(_, e, _) => e.free_vars_into(out),
            ObcExpr::Binop(_, e1, e2, _) => {
                e1.free_vars_into(out);
                e2.free_vars_into(out);
            }
        }
    }

    /// Appends the state variables read by the expression to `out`.
    pub fn state_vars_into(&self, out: &mut Vec<Ident>) {
        match self {
            ObcExpr::State(x, _) => out.push(*x),
            ObcExpr::Var(_, _) | ObcExpr::Const(_) => {}
            ObcExpr::Unop(_, e, _) => e.state_vars_into(out),
            ObcExpr::Binop(_, e1, e2, _) => {
                e1.state_vars_into(out);
                e2.state_vars_into(out);
            }
        }
    }
}

impl<O: Ops> fmt::Display for ObcExpr<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObcExpr::Var(x, _) => write!(f, "{x}"),
            ObcExpr::State(x, _) => write!(f, "state({x})"),
            ObcExpr::Const(c) => write!(f, "{c}"),
            ObcExpr::Unop(op, e, _) => write!(f, "({op} {e})"),
            ObcExpr::Binop(op, e1, e2, _) => write!(f, "({e1} {op} {e2})"),
        }
    }
}

/// An Obc statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<O: Ops> {
    /// `x := e` — update of a local variable.
    Assign(Ident, ObcExpr<O>),
    /// `state(x) := e` — update of a memory.
    AssignSt(Ident, ObcExpr<O>),
    /// `if e then s else s`.
    If(ObcExpr<O>, Block<O>, Block<O>),
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
        args: Vec<ObcExpr<O>>,
    },
}

impl<O: Ops> Stmt<O> {
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

    /// Prints the statement, naming callee classes through `classes`
    /// (their id when `classes` does not hold them).
    fn print(&self, p: &mut Printer, classes: &[Class<O>]) {
        match self {
            Stmt::Assign(x, e) => p.line_args(format_args!("{x} := {e};")),
            Stmt::AssignSt(x, e) => p.line_args(format_args!("state({x}) := {e};")),
            Stmt::If(e, t, f) => {
                p.line_args(format_args!("if {e} {{"));
                p.block(|p| t.print(p, classes));
                if !f.is_empty() {
                    p.line("} else {");
                    p.block(|p| f.print(p, classes));
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
                let es: Vec<String> = args.iter().map(|a| a.to_string()).collect();
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

impl<O: Ops> fmt::Display for Stmt<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut p = Printer::new();
        self.print(&mut p, &[]);
        f.write_str(p.finish().trim_end())
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
pub struct Block<O: Ops>(pub Vec<Stmt<O>>);

impl<O: Ops> Block<O> {
    /// The empty block, `skip`.
    pub fn new() -> Block<O> {
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

    fn print(&self, p: &mut Printer, classes: &[Class<O>]) {
        if self.is_empty() {
            p.line("skip;");
        }
        for s in self.iter() {
            s.print(p, classes);
        }
    }
}

impl<O: Ops> Default for Block<O> {
    fn default() -> Block<O> {
        Block::new()
    }
}

impl<O: Ops> std::ops::Deref for Block<O> {
    type Target = Vec<Stmt<O>>;

    fn deref(&self) -> &Vec<Stmt<O>> {
        &self.0
    }
}

impl<O: Ops> std::ops::DerefMut for Block<O> {
    fn deref_mut(&mut self) -> &mut Vec<Stmt<O>> {
        &mut self.0
    }
}

impl<O: Ops> From<Stmt<O>> for Block<O> {
    fn from(s: Stmt<O>) -> Block<O> {
        Block(vec![s])
    }
}

impl<O: Ops> FromIterator<Stmt<O>> for Block<O> {
    fn from_iter<I: IntoIterator<Item = Stmt<O>>>(iter: I) -> Block<O> {
        Block(iter.into_iter().collect())
    }
}

impl<O: Ops> fmt::Display for Block<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut p = Printer::new();
        self.print(&mut p, &[]);
        f.write_str(p.finish().trim_end())
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
    pub body: Block<O>,
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
                    p.block(|p| m.body.print(p, &self.classes));
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

    type S = Stmt<ClightOps>;
    type B = Block<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    #[test]
    fn may_write_sees_through_structure() {
        let w: S = Stmt::AssignSt(id("pt"), ObcExpr::Const(CConst::int(0)));
        let s = B::from(Stmt::If(
            ObcExpr::Var(id("c"), CTy::Bool),
            w.into(),
            B::new(),
        ));
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
        let s: S = Stmt::If(
            ObcExpr::Var(id("x"), CTy::Bool),
            Stmt::Assign(id("t"), ObcExpr::Var(id("c"), CTy::I32)).into(),
            Stmt::Assign(id("t"), ObcExpr::State(id("pt"), CTy::I32)).into(),
        );
        let text = s.to_string();
        assert!(text.contains("if x {"));
        assert!(text.contains("t := state(pt);"));
        // An empty then-branch prints as `skip`, an empty else-branch not
        // at all.
        let s: S = Stmt::If(ObcExpr::Var(id("x"), CTy::Bool), B::new(), B::new());
        assert_eq!(s.to_string(), "if x {\n  skip;\n}");
    }

    #[test]
    fn size_counts_atoms() {
        let a: S = Stmt::Assign(id("x"), ObcExpr::Const(CConst::int(1)));
        let s = Block(vec![
            a.clone(),
            Stmt::If(ObcExpr::Var(id("c"), CTy::Bool), a.into(), B::new()),
        ]);
        assert_eq!(s.size(), 4);
        assert_eq!(B::new().size(), 1);
    }
}
