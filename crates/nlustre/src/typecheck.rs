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
//!   naming a node *before* the caller (callee id < caller id: no
//!   recursion) with matching arities;
//! * the typing judgment: every annotation matches the operator
//!   interface's typing functions, equation left- and right-hand sides
//!   agree, call arguments and results match the callee's signature.

use velus_common::{IdentMap, IdentSet, NodeId};
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

/// Fills `env` (cleared first, and sized for `node`) with the declared
/// types of `node`.
fn build_env<O: Ops>(node: &Node<O>, env: &mut Env<O>) -> Result<(), SemError> {
    let vars = node.inputs.len() + node.outputs.len() + node.locals.len();
    env.clear();
    env.shrink_to(vars);
    env.reserve(vars);
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
    nodes: &[Node<O>],
    caller: NodeId,
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
            if !f.callable_from(caller) {
                return Err(SemError::UnknownNode(*f));
            }
            let callee = &nodes[f.index()];
            let f = callee.name;
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

/// Checks node `id` of `nodes`, whose calls may only name the nodes
/// before it, through a type environment and a definition set, both
/// cleared first, which a program check reuses across nodes.
fn check_node<O: Ops>(
    nodes: &[Node<O>],
    id: NodeId,
    env: &mut Env<O>,
    defined: &mut IdentSet,
) -> Result<(), SemError> {
    let node = &nodes[id.index()];
    build_env::<O>(node, env)?;
    if node.outputs.is_empty() {
        return Err(SemError::Malformed("node has no outputs".to_owned()));
    }

    // Every output and local is defined exactly once; inputs never.
    let vars = node.outputs.len() + node.locals.len();
    defined.clear();
    defined.shrink_to(vars);
    defined.reserve(vars);
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
        check_equation::<O>(env, nodes, id, eq)
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

/// Checks a whole program: unique node names, and structure and typing
/// of every node, with calls restricted to the nodes before the caller
/// (which rules out recursion, as the paper requires).
///
/// # Errors
///
/// Returns the first violation found, in declaration order.
pub fn check_program<O: Ops>(prog: &Program<O>) -> Result<(), SemError> {
    // Names only: each node becomes a class and a C function of its name.
    // Callees are found by id, never through this set.
    let mut names: IdentSet = velus_common::ident_set_with_capacity(prog.nodes.len());
    let (mut env, mut defined) = (Env::<O>::default(), IdentSet::default());
    for (i, node) in prog.nodes.iter().enumerate() {
        if !names.insert(node.name) {
            return Err(SemError::Malformed(format!(
                "duplicate node name {}",
                node.name
            )));
        }
        check_node::<O>(&prog.nodes, NodeId::new(i), &mut env, &mut defined)
            .map_err(|e| e.in_node(node.name))?;
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
    fn rejects_duplicate_node_names() {
        let p = P::new(vec![double(), double()]);
        assert_eq!(
            check_program(&p),
            Err(SemError::Malformed("duplicate node name double".to_owned()))
        );
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
        let mut caller = Node {
            name: id("caller"),
            inputs: vec![decl("a", CTy::I32)],
            outputs: vec![decl("b", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Call {
                xs: vec![id("b")],
                ck: Clock::Base,
                node: NodeId::new(1),
                args: vec![Expr::Var(id("a"), CTy::I32)],
            }],
        };
        let mut calling = |k: usize| {
            if let Equation::Call { node, .. } = &mut caller.eqs[0] {
                *node = NodeId::new(k);
            }
            caller.clone()
        };
        // A later node, then a node past the end of the program.
        for p in [vec![calling(1), double()], vec![double(), calling(7)]] {
            assert!(matches!(
                check_program(&P::new(p)).unwrap_err().innermost(),
                SemError::UnknownNode(_)
            ));
        }
        let p = P::new(vec![double(), calling(0)]);
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
