//! Well-formedness and well-typedness of SN-Lustre programs.
//!
//! The paper proves that elaboration yields well-typed, well-clocked
//! N-Lustre (§2.1). Because our pipeline is unverified, we instead make
//! the judgments *checkable* and re-validate them after every transforming
//! pass; the translation-validation harness in the `velus` crate calls
//! these checks between stages.
//!
//! [`check_program`] verifies, for every node:
//!
//! * structural sanity: distinct node names, distinct variable names,
//!   every non-input defined exactly once, inputs never defined, calls
//!   referring to *previously declared* nodes with matching arities;
//! * the typing judgment: every annotation matches the operator
//!   interface's typing functions, equation left- and right-hand sides
//!   agree, call arguments and results match the callee's signature.

use velus_common::{IdentMap, IdentSet};
use velus_ops::Ops;

use crate::ast::{CExpr, Equation, Expr, Node, Program};
use crate::SemError;

type Env<O> = IdentMap<<O as Ops>::Ty>;

fn type_error<T>(msg: String) -> Result<T, SemError> {
    Err(SemError::TypeError(msg))
}

/// Checks an expression and returns its type.
///
/// # Errors
///
/// Returns a [`SemError::TypeError`] (or [`SemError::UndefinedVariable`])
/// when an annotation is inconsistent with the operator interface.
pub fn check_expr<O: Ops>(env: &Env<O>, e: &Expr<O>) -> Result<O::Ty, SemError> {
    match e {
        Expr::Var(x, ty) => match env.get(x) {
            None => Err(SemError::UndefinedVariable(*x)),
            Some(dty) if dty == ty => Ok(ty.clone()),
            Some(dty) => type_error(format!("variable {x} annotated {ty}, declared {dty}")),
        },
        Expr::Const(c) => Ok(O::type_of_const(c)),
        Expr::Unop(op, e1, ty) => {
            let t1 = check_expr::<O>(env, e1)?;
            match O::type_unop(*op, &t1) {
                Some(rt) if rt == *ty => Ok(rt),
                Some(rt) => type_error(format!("unop {op} annotated {ty}, inferred {rt}")),
                None => type_error(format!("unop {op} inapplicable to {t1}")),
            }
        }
        Expr::Binop(op, e1, e2, ty) => {
            let t1 = check_expr::<O>(env, e1)?;
            let t2 = check_expr::<O>(env, e2)?;
            match O::type_binop(*op, &t1, &t2) {
                Some(rt) if rt == *ty => Ok(rt),
                Some(rt) => type_error(format!("binop {op} annotated {ty}, inferred {rt}")),
                None => type_error(format!("binop {op} inapplicable to {t1}, {t2}")),
            }
        }
        Expr::When(e1, x, _) => {
            let t = check_expr::<O>(env, e1)?;
            match env.get(x) {
                None => Err(SemError::UndefinedVariable(*x)),
                Some(tx) if *tx == O::bool_type() => Ok(t),
                Some(tx) => type_error(format!(
                    "sampling variable {x} has type {tx}, expected bool"
                )),
            }
        }
    }
}

/// Checks a control expression and returns its type.
///
/// # Errors
///
/// See [`check_expr`].
pub fn check_cexpr<O: Ops>(env: &Env<O>, ce: &CExpr<O>) -> Result<O::Ty, SemError> {
    match ce {
        CExpr::Merge(x, t, f) => {
            match env.get(x) {
                None => return Err(SemError::UndefinedVariable(*x)),
                Some(tx) if *tx == O::bool_type() => {}
                Some(tx) => {
                    return type_error(format!("merge variable {x} has type {tx}, expected bool"))
                }
            }
            let tt = check_cexpr::<O>(env, t)?;
            let tf = check_cexpr::<O>(env, f)?;
            if tt == tf {
                Ok(tt)
            } else {
                type_error(format!("merge branches disagree: {tt} vs {tf}"))
            }
        }
        CExpr::If(c, t, f) => {
            let tc = check_expr::<O>(env, c)?;
            if tc != O::bool_type() {
                return type_error(format!("mux guard has type {tc}, expected bool"));
            }
            let tt = check_cexpr::<O>(env, t)?;
            let tf = check_cexpr::<O>(env, f)?;
            if tt == tf {
                Ok(tt)
            } else {
                type_error(format!("mux branches disagree: {tt} vs {tf}"))
            }
        }
        CExpr::Expr(e) => check_expr::<O>(env, e),
    }
}

/// Fills `env` (cleared first) with the declared types of `node`.
fn build_env<O: Ops>(node: &Node<O>, env: &mut Env<O>) -> Result<(), SemError> {
    env.clear();
    for d in node.inputs.iter().chain(&node.outputs).chain(&node.locals) {
        if env.insert(d.name, d.ty.clone()).is_some() {
            return Err(SemError::Malformed(format!(
                "duplicate declaration of {}",
                d.name
            )));
        }
    }
    Ok(())
}

fn check_equation<O: Ops>(
    env: &Env<O>,
    declared_before: &IdentMap<&Node<O>>,
    eq: &Equation<O>,
) -> Result<(), SemError> {
    match eq {
        Equation::Def { x, rhs, .. } => {
            let trhs = check_cexpr::<O>(env, rhs)?;
            let tx = env.get(x).ok_or(SemError::UndefinedVariable(*x))?;
            if *tx != trhs {
                return type_error(format!("{x} has type {tx} but is defined with type {trhs}"));
            }
            Ok(())
        }
        Equation::Fby { x, init, rhs, .. } => {
            let trhs = check_expr::<O>(env, rhs)?;
            let tinit = O::type_of_const(init);
            let tx = env.get(x).ok_or(SemError::UndefinedVariable(*x))?;
            if tinit != trhs {
                return type_error(format!("fby initial value has type {tinit}, body {trhs}"));
            }
            if *tx != trhs {
                return type_error(format!("{x} has type {tx} but fby produces {trhs}"));
            }
            Ok(())
        }
        Equation::Call {
            xs, node: f, args, ..
        } => {
            let callee = declared_before
                .get(f)
                .copied()
                .ok_or(SemError::UnknownNode(*f))?;
            if callee.inputs.len() != args.len() {
                return Err(SemError::InputMismatch(format!(
                    "call to {f}: {} arguments for {} inputs",
                    args.len(),
                    callee.inputs.len()
                )));
            }
            if callee.outputs.len() != xs.len() {
                return Err(SemError::InputMismatch(format!(
                    "call to {f}: {} result variables for {} outputs",
                    xs.len(),
                    callee.outputs.len()
                )));
            }
            for (a, d) in args.iter().zip(&callee.inputs) {
                let ta = check_expr::<O>(env, a)?;
                if ta != d.ty {
                    return type_error(format!(
                        "call to {f}: argument for {} has type {ta}, expected {}",
                        d.name, d.ty
                    ));
                }
            }
            for (x, d) in xs.iter().zip(&callee.outputs) {
                let tx = env.get(x).ok_or(SemError::UndefinedVariable(*x))?;
                if *tx != d.ty {
                    return type_error(format!(
                        "call to {f}: result {x} has type {tx}, output {} has type {}",
                        d.name, d.ty
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Checks one node against the nodes declared before it.
///
/// # Errors
///
/// Returns the first structural or typing violation found.
pub fn check_node<O: Ops>(
    declared_before: &IdentMap<&Node<O>>,
    node: &Node<O>,
) -> Result<(), SemError> {
    check_node_with(
        declared_before,
        node,
        &mut Env::<O>::default(),
        &mut IdentSet::default(),
    )
}

/// [`check_node`] through a caller's type environment and definition
/// set, both cleared first, so a program check reuses them across nodes.
fn check_node_with<O: Ops>(
    declared_before: &IdentMap<&Node<O>>,
    node: &Node<O>,
    env: &mut Env<O>,
    defined: &mut IdentSet,
) -> Result<(), SemError> {
    build_env::<O>(node, env)?;
    if node.outputs.is_empty() {
        return Err(SemError::Malformed("node has no outputs".to_owned()));
    }

    // Every output and local is defined exactly once; inputs never.
    defined.clear();
    for eq in &node.eqs {
        for &x in eq.defined() {
            if node.is_input(x) {
                return Err(SemError::Malformed(format!(
                    "input {x} is defined by an equation"
                )));
            }
            if !defined.insert(x) {
                return Err(SemError::Malformed(format!("variable {x} defined twice")));
            }
        }
        // Call results must be pairwise distinct (checked above via `defined`),
        // and the instance is identified by the first result variable.
        check_equation::<O>(env, declared_before, eq)
            .map_err(|e| e.in_node_at(node.name, eq.defined().first().copied()))?;
    }
    for d in node.outputs.iter().chain(&node.locals) {
        if !defined.contains(&d.name) {
            return Err(SemError::Malformed(format!(
                "variable {} is never defined",
                d.name
            )));
        }
    }
    Ok(())
}

/// Checks a whole program: structure and typing of every node, with calls
/// restricted to previously declared nodes (which rules out recursion, as
/// the paper requires).
///
/// # Errors
///
/// Returns the first violation found, in declaration order.
pub fn check_program<O: Ops>(prog: &Program<O>) -> Result<(), SemError> {
    let mut declared: IdentMap<&Node<O>> = velus_common::ident_map_with_capacity(prog.nodes.len());
    let vars = prog
        .nodes
        .iter()
        .map(|n| n.inputs.len() + n.outputs.len() + n.locals.len())
        .max()
        .unwrap_or(0);
    let mut env: Env<O> = velus_common::ident_map_with_capacity(vars);
    let mut defined = velus_common::ident_set_with_capacity(vars);
    for node in &prog.nodes {
        if declared.contains_key(&node.name) {
            return Err(SemError::Malformed(format!(
                "duplicate node name {}",
                node.name
            )));
        }
        check_node_with::<O>(&declared, node, &mut env, &mut defined)
            .map_err(|e| e.in_node(node.name))?;
        declared.insert(node.name, node);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
    use crate::clock::Clock;
    use velus_common::Ident;
    use velus_ops::{CBinOp, CConst, CTy, ClightOps};

    type P = Program<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn decl(name: &str, ty: CTy) -> VarDecl<ClightOps> {
        VarDecl {
            name: id(name),
            ty,
            ck: Clock::Base,
        }
    }

    /// node double(x: int) returns (y: int) let y = x + x; tel
    fn double() -> Node<ClightOps> {
        Node {
            name: id("double"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: CExpr::Expr(Expr::Binop(
                    CBinOp::Add,
                    Box::new(Expr::Var(id("x"), CTy::I32)),
                    Box::new(Expr::Var(id("x"), CTy::I32)),
                    CTy::I32,
                )),
            }],
        }
    }

    #[test]
    fn accepts_well_typed_node() {
        let p = P::new(vec![double()]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn rejects_bad_annotation() {
        let mut n = double();
        if let Equation::Def {
            rhs: CExpr::Expr(Expr::Binop(_, _, _, ty)),
            ..
        } = &mut n.eqs[0]
        {
            *ty = CTy::Bool;
        }
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::TypeError(_)
        ));
    }

    #[test]
    fn rejects_undefined_output() {
        let mut n = double();
        n.eqs.clear();
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_double_definition() {
        let mut n = double();
        let eq = n.eqs[0].clone();
        n.eqs.push(eq);
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_input_definition() {
        let mut n = double();
        n.eqs.push(Equation::Def {
            x: id("x"),
            ck: Clock::Base,
            rhs: CExpr::Expr(Expr::Const(CConst::int(0))),
        });
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_call_to_later_node() {
        // caller declared before callee: forward reference is rejected.
        let caller = Node {
            name: id("caller"),
            inputs: vec![decl("a", CTy::I32)],
            outputs: vec![decl("b", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Call {
                xs: vec![id("b")],
                ck: Clock::Base,
                node: id("double"),
                args: vec![Expr::Var(id("a"), CTy::I32)],
            }],
        };
        let p = P::new(vec![caller, double()]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::UnknownNode(_)
        ));
        let p = P::new(vec![double(), p.nodes[0].clone()]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn rejects_fby_type_mismatch() {
        let n = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::bool(true),
                rhs: Expr::Var(id("x"), CTy::I32),
            }],
        };
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::TypeError(_)
        ));
    }
}
