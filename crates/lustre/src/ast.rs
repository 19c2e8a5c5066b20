//! The surface (unannotated) abstract syntax, as produced by the parser.
//!
//! This is the full Lustre expression language: operators nest freely,
//! `fby`, `->` and `pre` appear anywhere, node calls return tuples.
//! Elaboration types it and flattens it into N-Lustre.
//!
//! Expressions and clock annotations live in a [`UArena`]: flat `Vec`
//! pools addressed by [`ExprId`]/[`ClockId`] indices. Nodes are `Copy`,
//! children sit densely in cache, and dropping a whole parse is freeing
//! a few `Vec`s. Call arguments, equation left-hand sides, each node's
//! callees, declarations and equations are stored as contiguous runs in
//! side pools (`ExprRange`), so neither a call, an equation nor a node
//! allocates anything of its own. The
//! arena is external to the program — callers that compile repeatedly
//! recycle it via [`UArena::clear`], which keeps the pool capacity.

use velus_common::{Ident, Span};
use velus_ops::{Literal, SurfaceBinOp, SurfaceUnOp};

/// An index into a [`UArena`]'s expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The position in the pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An index into a [`UArena`]'s literal pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitId(u32);

/// An index into a [`UArena`]'s clock pool. `ClockId::BASE` (index 0)
/// is pre-seeded in every arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockId(u32);

impl ClockId {
    /// The base clock, present in every arena at index 0.
    pub const BASE: ClockId = ClockId(0);

    /// The position in the pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous run in one of a [`UArena`]'s pools: a call's arguments,
/// an equation's defined variables, a node's callees, declarations or
/// equations, or the slice of the expression pool a node owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExprRange {
    /// First index of the run.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl ExprRange {
    /// The empty range.
    pub const EMPTY: ExprRange = ExprRange { start: 0, len: 0 };

    /// Number of elements in the range.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A surface expression. Children are [`ExprId`]s into the owning
/// [`UArena`]; the node itself is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UExpr {
    /// A literal, whose value is in the arena's literal pool
    /// ([`UArena::lit`]): an `i128` value inline would double the size
    /// of every expression node.
    Lit(LitId, Span),
    /// A variable (or global constant) reference.
    Var(Ident, Span),
    /// Unary operator application.
    Unop(SurfaceUnOp, ExprId, Span),
    /// Binary operator application.
    Binop(SurfaceBinOp, ExprId, ExprId, Span),
    /// Sampling `e when x` (`true`) or `e when not x` / `e whenot x`.
    When(ExprId, Ident, bool, Span),
    /// `merge x e1 e2`.
    Merge(Ident, ExprId, ExprId, Span),
    /// `if e then e else e` (a multiplexer).
    If(ExprId, ExprId, ExprId, Span),
    /// `e1 fby e2` — initialized delay; `e1` must be a constant.
    Fby(ExprId, ExprId, Span),
    /// `e1 -> e2` — initialization.
    Arrow(ExprId, ExprId, Span),
    /// `pre e` — uninitialized delay.
    Pre(ExprId, Span),
    /// `f(e, …)` — node instantiation or type cast (`int(e)`). The
    /// arguments are a contiguous run in the arena's argument pool.
    Call(Ident, ExprRange, Span),
}

impl UExpr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            UExpr::Lit(_, s)
            | UExpr::Var(_, s)
            | UExpr::Unop(_, _, s)
            | UExpr::Binop(_, _, _, s)
            | UExpr::When(_, _, _, s)
            | UExpr::Merge(_, _, _, s)
            | UExpr::If(_, _, _, s)
            | UExpr::Fby(_, _, s)
            | UExpr::Arrow(_, _, s)
            | UExpr::Pre(_, s)
            | UExpr::Call(_, _, s) => *s,
        }
    }
}

/// A clock annotation in a declaration: `base`, or `ck on (not) x`,
/// with the parent clock held in the arena's clock pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UClock {
    /// The node's base clock.
    Base,
    /// Sampled: `when x` (`true`) or `when not x` (`false`).
    On(ClockId, Ident, bool),
}

/// The pools behind a parsed program: expressions, literal values, call
/// arguments, clocks, and the runs of equation left-hand sides, node callees,
/// declarations and equations.
#[derive(Debug, Clone, PartialEq)]
pub struct UArena {
    exprs: Vec<UExpr>,
    lits: Vec<Literal>,
    args: Vec<ExprId>,
    clocks: Vec<UClock>,
    lhs: Vec<Ident>,
    callees: Vec<Ident>,
    decls: Vec<UDecl>,
    eqs: Vec<UEquation>,
}

impl Default for UArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The run of `pool` from `mark` to its end.
fn run_since<T>(pool: &[T], mark: u32) -> ExprRange {
    ExprRange {
        start: mark,
        len: pool.len() as u32 - mark,
    }
}

/// The elements of run `r` of `pool`.
fn run<T>(pool: &[T], r: ExprRange) -> &[T] {
    &pool[r.start as usize..(r.start + r.len) as usize]
}

impl UArena {
    /// An empty arena with the base clock pre-seeded.
    pub fn new() -> Self {
        UArena {
            exprs: Vec::new(),
            lits: Vec::new(),
            args: Vec::new(),
            clocks: vec![UClock::Base],
            lhs: Vec::new(),
            callees: Vec::new(),
            decls: Vec::new(),
            eqs: Vec::new(),
        }
    }

    /// Empties the pools but keeps their capacity, so a recycled arena
    /// compiles the next program without growing.
    pub fn clear(&mut self) {
        self.exprs.clear();
        self.lits.clear();
        self.args.clear();
        self.clocks.truncate(1);
        self.lhs.clear();
        self.callees.clear();
        self.decls.clear();
        self.eqs.clear();
    }

    /// Adds an expression, returning its id.
    #[inline]
    pub fn push(&mut self, e: UExpr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    /// Adds the literal expression `lit`, returning its id.
    #[inline]
    pub fn push_lit(&mut self, lit: Literal, span: Span) -> ExprId {
        let l = LitId(self.lits.len() as u32);
        self.lits.push(lit);
        self.push(UExpr::Lit(l, span))
    }

    /// The value of a literal.
    #[inline]
    pub fn lit(&self, l: LitId) -> Literal {
        self.lits[l.0 as usize]
    }

    /// Adds a sampled clock over `parent`, returning its id.
    #[inline]
    pub fn push_clock(&mut self, parent: ClockId, x: Ident, polarity: bool) -> ClockId {
        let id = ClockId(self.clocks.len() as u32);
        self.clocks.push(UClock::On(parent, x, polarity));
        id
    }

    /// Moves `stack[base..]` into the argument pool, returning the run.
    /// The per-call scratch stack pattern keeps argument collection
    /// allocation-free for nested calls.
    pub fn push_args(&mut self, stack: &mut Vec<ExprId>, base: usize) -> ExprRange {
        let start = self.args.len() as u32;
        self.args.extend(stack.drain(base..));
        run_since(&self.args, start)
    }

    /// Adds one defined variable to the left-hand side being parsed:
    /// the run of an equation is the variables pushed since
    /// [`UArena::lhs_mark`].
    #[inline]
    pub fn push_lhs(&mut self, x: Ident) {
        self.lhs.push(x);
    }

    /// Where the next left-hand side starts.
    #[inline]
    pub fn lhs_mark(&self) -> u32 {
        self.lhs.len() as u32
    }

    /// The left-hand side pushed since `mark`.
    #[inline]
    pub fn lhs_since(&self, mark: u32) -> ExprRange {
        run_since(&self.lhs, mark)
    }

    /// The defined variables of an equation.
    #[inline]
    pub fn lhs(&self, r: ExprRange) -> &[Ident] {
        run(&self.lhs, r)
    }

    /// Records the callee of a call as it is parsed: the run of a node
    /// is the callees pushed since [`UArena::callee_mark`], in source
    /// order (a call before the calls in its arguments).
    #[inline]
    pub fn push_callee(&mut self, f: Ident) {
        self.callees.push(f);
    }

    /// Where the next node's callees start.
    #[inline]
    pub fn callee_mark(&self) -> u32 {
        self.callees.len() as u32
    }

    /// The callees pushed since `mark`.
    #[inline]
    pub fn callees_since(&self, mark: u32) -> ExprRange {
        run_since(&self.callees, mark)
    }

    /// The callees of a node (casts such as `int(e)` included).
    #[inline]
    pub fn callees(&self, r: ExprRange) -> &[Ident] {
        run(&self.callees, r)
    }

    /// Adds a declaration: the run of a declaration list is the
    /// declarations pushed since [`UArena::decl_mark`].
    #[inline]
    pub fn push_decl(&mut self, d: UDecl) {
        self.decls.push(d);
    }

    /// Where the next declaration list starts.
    #[inline]
    pub fn decl_mark(&self) -> u32 {
        self.decls.len() as u32
    }

    /// The declarations pushed since `mark`.
    #[inline]
    pub fn decls_since(&self, mark: u32) -> ExprRange {
        run_since(&self.decls, mark)
    }

    /// The declarations pushed since `mark`, to complete them.
    #[inline]
    pub fn decls_since_mut(&mut self, mark: u32) -> &mut [UDecl] {
        &mut self.decls[mark as usize..]
    }

    /// The declarations of a list.
    #[inline]
    pub fn decls(&self, r: ExprRange) -> &[UDecl] {
        run(&self.decls, r)
    }

    /// Adds an equation: the run of a node is the equations pushed since
    /// [`UArena::eq_mark`].
    #[inline]
    pub fn push_eq(&mut self, eq: UEquation) {
        self.eqs.push(eq);
    }

    /// Where the next node's equations start.
    #[inline]
    pub fn eq_mark(&self) -> u32 {
        self.eqs.len() as u32
    }

    /// The equations pushed since `mark`.
    #[inline]
    pub fn eqs_since(&self, mark: u32) -> ExprRange {
        run_since(&self.eqs, mark)
    }

    /// The equations of a node, in source order.
    #[inline]
    pub fn eqs(&self, r: ExprRange) -> &[UEquation] {
        run(&self.eqs, r)
    }

    /// The clock node behind `id`.
    #[inline]
    pub fn clock(&self, id: ClockId) -> UClock {
        self.clocks[id.index()]
    }

    /// The argument run of a call.
    #[inline]
    pub fn args(&self, r: ExprRange) -> &[ExprId] {
        run(&self.args, r)
    }

    /// Number of expressions in the pool.
    #[inline]
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Pool capacities `[exprs, lits, args, clocks, lhs, callees,
    /// decls, eqs]` — exposed so reuse tests can assert that recycled
    /// arenas stop growing.
    pub fn capacities(&self) -> [usize; 8] {
        [
            self.exprs.capacity(),
            self.lits.capacity(),
            self.args.capacity(),
            self.clocks.capacity(),
            self.lhs.capacity(),
            self.callees.capacity(),
            self.decls.capacity(),
            self.eqs.capacity(),
        ]
    }
}

impl std::ops::Index<ExprId> for UArena {
    type Output = UExpr;

    #[inline]
    fn index(&self, id: ExprId) -> &UExpr {
        &self.exprs[id.index()]
    }
}

/// A variable declaration `x : ty [when …]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UDecl {
    /// Variable name.
    pub name: Ident,
    /// Type name (resolved through the operator interface).
    pub ty_name: Ident,
    /// Clock annotation (an id into the arena's clock pool).
    pub clock: ClockId,
    /// Source position.
    pub span: Span,
}

/// An equation `x, y, … = e;`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UEquation {
    /// The defined variables (a tuple pattern for multi-output calls): a
    /// run in the arena's left-hand-side pool ([`UArena::lhs`]).
    pub lhs: ExprRange,
    /// The right-hand side.
    pub rhs: ExprId,
    /// Source position.
    pub span: Span,
}

/// A node declaration. Its declarations and equations are runs in the
/// arena's pools ([`UArena::decls`], [`UArena::eqs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UNode {
    /// Node name.
    pub name: Ident,
    /// Inputs.
    pub inputs: ExprRange,
    /// Outputs.
    pub outputs: ExprRange,
    /// Locals (the `var` section).
    pub locals: ExprRange,
    /// The equations, in source order.
    pub eqs: ExprRange,
    /// The contiguous slice of the expression pool this node's
    /// equations occupy (the parser emits nodes sequentially), whose
    /// length pre-sizes the node's N-Lustre pools.
    pub exprs: ExprRange,
    /// The names the node's equations call, in source order: a run in
    /// the arena's callee pool ([`UArena::callees`]), which orders the
    /// nodes callees first without another walk of the expressions.
    pub callees: ExprRange,
    /// Source position of the header.
    pub span: Span,
}

/// A global constant declaration `const x : ty = lit;`.
#[derive(Debug, Clone, PartialEq)]
pub struct UConst {
    /// Constant name.
    pub name: Ident,
    /// Type name.
    pub ty_name: Ident,
    /// Value (a literal, possibly negated).
    pub value: ExprId,
    /// Source position.
    pub span: Span,
}

/// A parsed source file (ids index the [`UArena`] it was parsed into).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UProgram {
    /// Global constants, in source order.
    pub consts: Vec<UConst>,
    /// Nodes, in source order.
    pub nodes: Vec<UNode>,
}
