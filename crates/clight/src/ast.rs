//! Abstract syntax of the Clight subset.
//!
//! Mirrors the fragment of Clight the generation pass targets (§4):
//! scalar arithmetic, struct field accesses through pointers, function
//! calls, conditionals, and — for the simulation entry point — volatile
//! loads and stores (the observable events of the correctness theorem)
//! and an infinite loop.
//!
//! Variables split into *temporaries* (`le`, register-allocated, no
//! address) and *addressable variables* (`e`, stack-allocated blocks);
//! the address-of operator applies only to the latter, exactly as in
//! Clight. Generated code puts output records in `e` — their addresses
//! are passed to callees — and everything else in temporaries (the
//! `register` variables of Fig. 9).

use velus_common::{Ident, NodeId, Pool, PoolNode};
use velus_ops::{CBinOp, CTy, CUnOp, CVal};

use crate::ctypes::CType;

velus_common::pool_id! {
    /// A Clight expression: the id of its root in its function's
    /// [`Exprs`] pool.
    pub struct ExprId;
}

/// A node of a Clight expression, annotated with its type; operators
/// name their operands by id in the same pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A scalar constant.
    Const(CVal, CTy),
    /// A temporary (in `le`).
    Temp(Ident, CType),
    /// An addressable variable (in `e`); an lvalue.
    Var(Ident, CType),
    /// `a.f` — field `f` of the addressable variable `a` of struct type
    /// `s`.
    Field(Ident, Ident, Ident, CType),
    /// `(*p).f` — field `f` through the pointer temporary `p` to struct
    /// `s`.
    DerefField(Ident, Ident, Ident, CType),
    /// `&a` — the address of a struct place.
    AddrOf(Place),
    /// Unary operation (including casts) on scalars.
    Unop(CUnOp, ExprId, CTy),
    /// Binary operation on scalars.
    Binop(CBinOp, ExprId, ExprId, CTy),
}

impl PoolNode for Expr {
    type Id = ExprId;

    #[inline]
    fn operands(&self) -> (Option<ExprId>, Option<ExprId>) {
        match self {
            Expr::Unop(_, e, _) => (Some(*e), None),
            Expr::Binop(_, l, r, _) => (Some(*l), Some(*r)),
            _ => (None, None),
        }
    }
}

/// The expressions of one function: a post-order pool (see
/// [`velus_common::Pool`]). Build bottom up, operands first.
pub type Exprs = Pool<ExprId, Expr>;

impl Expr {
    /// The type of the expression, read off the node's annotation.
    pub fn ty(&self) -> CType {
        match self {
            Expr::Const(_, t) => CType::Scalar(*t),
            Expr::Temp(_, t) | Expr::Var(_, t) => *t,
            Expr::Field(_, _, _, t) | Expr::DerefField(_, _, _, t) => *t,
            Expr::AddrOf(place) => CType::Pointer(place.struct_name()),
            Expr::Unop(_, _, t) | Expr::Binop(_, _, _, t) => CType::Scalar(*t),
        }
    }

    /// The scalar type of the expression, if it has one: [`Expr::ty`]
    /// then [`CType::as_scalar`], without building the type.
    pub fn scalar_ty(&self) -> Option<CTy> {
        match self {
            Expr::Const(_, t) | Expr::Unop(_, _, t) | Expr::Binop(_, _, _, t) => Some(*t),
            Expr::Temp(_, t) | Expr::Var(_, t) => t.as_scalar(),
            Expr::Field(_, _, _, t) | Expr::DerefField(_, _, _, t) => t.as_scalar(),
            Expr::AddrOf(_) => None,
        }
    }

    /// Whether the expression is an lvalue (denotes a memory location).
    pub fn is_lvalue(&self) -> bool {
        matches!(self, Expr::Var(..) | Expr::Field(..) | Expr::DerefField(..))
    }
}

/// A struct-typed place whose address is taken: what a call passes as
/// the callee's `self` or `out` pointer. Both shapes are flat, so taking
/// an address allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Place {
    /// The addressable variable `x` of struct type `s`.
    Var(Ident, Ident),
    /// `(*p).f` — the field `f`, of struct type `fs`, through the pointer
    /// temporary `p` to struct `s` (an instance inside `self`).
    DerefField(Ident, Ident, Ident, Ident),
}

impl Place {
    /// The struct type of the place.
    pub fn struct_name(self) -> Ident {
        match self {
            Place::Var(_, s) | Place::DerefField(_, _, _, s) => s,
        }
    }

    /// The place as an lvalue expression.
    pub fn lvalue(self) -> Expr {
        match self {
            Place::Var(x, s) => Expr::Var(x, CType::Struct(s)),
            Place::DerefField(p, s, f, fs) => Expr::DerefField(p, s, f, CType::Struct(fs)),
        }
    }
}

/// A Clight statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lv = e;` — store to memory.
    Assign(ExprId, ExprId),
    /// `x = e;` — set a temporary.
    Set(Ident, ExprId),
    /// `[x =] f(args);` — call of `functions[f]`, optionally binding the
    /// result temporary.
    Call(Option<Ident>, usize, Vec<ExprId>),
    /// Conditional.
    If(ExprId, Block, Block),
    /// `x = volatile_load(g);` — consumes one input, emits a `Load` event.
    VolLoad(Ident, Ident, CTy),
    /// `volatile_store(g, e);` — emits a `Store` event.
    VolStore(Ident, ExprId),
    /// `while (1) { s }` — the simulation main loop.
    Loop(Block),
    /// `return [e];`
    Return(Option<ExprId>),
}

/// A statement sequence, executed in order; the empty block is Clight's
/// `Sskip`. Clight's binary `Ssequence` nests; a flat vector keeps every
/// traversal a loop (see `velus_obc::ast::Block`).
pub type Block = Vec<Stmt>;

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Ident,
    /// Parameters (bound as temporaries, as in the paper).
    pub params: Vec<(Ident, CType)>,
    /// Addressable local variables (stack blocks; the output records).
    pub vars: Vec<(Ident, CType)>,
    /// Temporaries.
    pub temps: Vec<(Ident, CType)>,
    /// Return type.
    pub ret: CType,
    /// Body.
    pub body: Block,
    /// The pool every expression of the body lives in.
    pub exprs: Exprs,
}

/// A Clight program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions, dependencies first.
    pub composites: Vec<crate::ctypes::Composite>,
    /// Functions, callees first: each class's methods, class by class in
    /// class-id order, then the simulation `main`.
    pub functions: Vec<Function>,
    /// Where each class's methods start: method `j` of class `k` (in the
    /// Obc class's method order) is `functions[class_fns[k] + j]`.
    pub class_fns: Vec<usize>,
    /// Volatile input globals (one per root-node input).
    pub volatiles_in: Vec<(Ident, CTy)>,
    /// Volatile output globals (one per root-node output).
    pub volatiles_out: Vec<(Ident, CTy)>,
}

impl Program {
    /// The index of method `j` of class `class` (see
    /// [`Program::class_fns`]), if the program has that class.
    pub fn method_fn(&self, class: NodeId, j: usize) -> Option<usize> {
        Some(self.class_fns.get(class.index())? + j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_types() {
        let c = Expr::Const(CVal::int(1), CTy::I32);
        assert_eq!(c.ty(), CType::Scalar(CTy::I32));
        let v = Expr::Var(Ident::new("o"), CType::Struct(Ident::new("s")));
        assert!(v.is_lvalue());
        let place = Place::Var(Ident::new("o"), Ident::new("s"));
        assert_eq!(place.lvalue(), v);
        let a = Expr::AddrOf(place);
        assert_eq!(a.ty(), CType::ptr_to_struct(Ident::new("s")));
        assert!(!a.is_lvalue());
    }
}
