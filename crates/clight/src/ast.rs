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

use velus_common::Ident;
use velus_ops::{CBinOp, CTy, CUnOp, CVal};

use crate::ctypes::CType;

/// A Clight expression, annotated with its type.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A scalar constant.
    Const(CVal, CTy),
    /// A temporary (in `le`).
    Temp(Ident, CType),
    /// An addressable variable (in `e`); an lvalue.
    Var(Ident, CType),
    /// `a.f` — field of an lvalue of struct type `s`.
    Field(Box<Expr>, Ident, Ident, CType),
    /// `(*p).f` — field through a pointer to struct `s`.
    DerefField(Box<Expr>, Ident, Ident, CType),
    /// `&a` — address of an lvalue.
    AddrOf(Box<Expr>),
    /// Unary operation (including casts) on scalars.
    Unop(CUnOp, Box<Expr>, CTy),
    /// Binary operation on scalars.
    Binop(CBinOp, Box<Expr>, Box<Expr>, CTy),
}

impl Expr {
    /// The type of the expression.
    pub fn ty(&self) -> CType {
        match self {
            Expr::Const(_, t) => CType::Scalar(*t),
            Expr::Temp(_, t) | Expr::Var(_, t) => t.clone(),
            Expr::Field(_, _, _, t) | Expr::DerefField(_, _, _, t) => t.clone(),
            Expr::AddrOf(e) => CType::Pointer(Box::new(e.ty())),
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

/// A Clight statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lv = e;` — store to memory.
    Assign(Expr, Expr),
    /// `x = e;` — set a temporary.
    Set(Ident, Expr),
    /// `[x =] f(args);` — call, optionally binding the result temporary.
    Call(Option<Ident>, Ident, Vec<Expr>),
    /// Conditional.
    If(Expr, Block, Block),
    /// `x = volatile_load(g);` — consumes one input, emits a `Load` event.
    VolLoad(Ident, Ident, CTy),
    /// `volatile_store(g, e);` — emits a `Store` event.
    VolStore(Ident, Expr),
    /// `while (1) { s }` — the simulation main loop.
    Loop(Block),
    /// `return [e];`
    Return(Option<Expr>),
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
}

/// A Clight program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions, dependencies first.
    pub composites: Vec<crate::ctypes::Composite>,
    /// Functions, callees first.
    pub functions: Vec<Function>,
    /// Volatile input globals (one per root-node input).
    pub volatiles_in: Vec<(Ident, CTy)>,
    /// Volatile output globals (one per root-node output).
    pub volatiles_out: Vec<(Ident, CTy)>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: Ident) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
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
        let a = Expr::AddrOf(Box::new(v));
        assert_eq!(
            a.ty(),
            CType::Pointer(Box::new(CType::Struct(Ident::new("s"))))
        );
        assert!(!a.is_lvalue());
    }
}
