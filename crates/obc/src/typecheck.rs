//! Well-typedness of Obc programs.
//!
//! The paper proves that translation maps well-typed SN-Lustre programs to
//! well-typed Obc programs; we check the result instead. The judgment is
//! standard: expressions elaborate against the method's variables and the
//! class's memories, assignments require exact type equality (no implicit
//! casts — §4.1), guards are boolean, and call sites match the callee's
//! signature.

use velus_common::{IdentMap, IdentSet, NodeId, PoolId};
use velus_ops::Ops;

use crate::ast::{Block, Class, ClassName, Method, ObcExpr, ObcExprId, ObcExprs, ObcProgram, Stmt};
use crate::ObcError;

struct Scope<'a, O: Ops> {
    vars: &'a IdentMap<O::Ty>,
    mems: &'a IdentMap<O::Ty>,
    /// The class's instances: name → class.
    insts: &'a IdentMap<NodeId>,
    class: &'a Class<O>,
    prog: &'a ObcProgram<O>,
    /// The method's expressions.
    ex: &'a ObcExprs<O>,
}

/// The reusable stack of the expression checks.
struct Stacks<O: Ops> {
    tys: Vec<(O::Ty, usize)>,
}

impl<O: Ops> Default for Stacks<O> {
    fn default() -> Stacks<O> {
        Stacks { tys: Vec::new() }
    }
}

/// The type of expression `e`, checked in one loop over its post-order
/// run. The loop also checks that the run is well formed (every later
/// walk relies on it): each operator's operands are the runs that end
/// just before it.
fn expr_ty<O: Ops>(sc: &Scope<'_, O>, st: &mut Stacks<O>, e: ObcExprId) -> Result<O::Ty, ObcError> {
    let malformed = || {
        ObcError::Malformed(format!(
            "class {}: expression {e:?} is not stored in post-order",
            sc.class.name
        ))
    };
    let first = sc.ex.0.first_checked(e).ok_or_else(malformed)?;
    // A leaf needs no stack.
    if let Some(t) = leaf_ty(sc, &sc.ex[e])? {
        return Ok(t);
    }
    // Each entry: a finished operand's type and the start of its run.
    st.tys.clear();
    for (i, n) in sc.ex.tree(e).iter().enumerate() {
        let i = first.index() + i;
        let operand = |st: &mut Stacks<O>, id: ObcExprId, end: usize| match st.tys.pop() {
            Some((t, start)) if id.index() + 1 == end => Ok((t, start)),
            _ => Err(malformed()),
        };
        let (t, start) = match n {
            ObcExpr::Unop(op, e1, ty) => {
                let (t1, start) = operand(st, *e1, i)?;
                match O::type_unop(*op, &t1) {
                    Some(t) if t == *ty => (t, start),
                    Some(t) => {
                        return Err(ObcError::TypeError(format!(
                            "unop {op} annotated {ty}, inferred {t}"
                        )))
                    }
                    None => {
                        return Err(ObcError::TypeError(format!(
                            "unop {op} inapplicable to {t1}"
                        )))
                    }
                }
            }
            ObcExpr::Binop(op, e1, e2, ty) => {
                let (t2, start2) = operand(st, *e2, i)?;
                let (t1, start) = operand(st, *e1, start2)?;
                match O::type_binop(*op, &t1, &t2) {
                    Some(t) if t == *ty => (t, start),
                    Some(t) => {
                        return Err(ObcError::TypeError(format!(
                            "binop {op} annotated {ty}, inferred {t}"
                        )))
                    }
                    None => {
                        return Err(ObcError::TypeError(format!(
                            "binop {op} inapplicable to {t1}, {t2}"
                        )))
                    }
                }
            }
            leaf => (leaf_ty(sc, leaf)?.expect("a leaf"), i),
        };
        st.tys.push((t, start));
    }
    match (st.tys.pop(), st.tys.is_empty()) {
        (Some((t, _)), true) => Ok(t),
        _ => Err(malformed()),
    }
}

/// The type of a leaf — a variable, a memory or a constant — checked
/// against its declaration; `None` for an operator.
fn leaf_ty<O: Ops>(sc: &Scope<'_, O>, e: &ObcExpr<O>) -> Result<Option<O::Ty>, ObcError> {
    Ok(Some(match e {
        ObcExpr::Var(x, ty) => match sc.vars.get(x) {
            None => return Err(ObcError::UnboundVariable(*x)),
            Some(t) if t == ty => ty.clone(),
            Some(t) => {
                return Err(ObcError::TypeError(format!(
                    "variable {x} annotated {ty}, declared {t}"
                )))
            }
        },
        ObcExpr::State(x, ty) => match sc.mems.get(x) {
            None => return Err(ObcError::UnboundState(*x)),
            Some(t) if t == ty => ty.clone(),
            Some(t) => {
                return Err(ObcError::TypeError(format!(
                    "state {x} annotated {ty}, declared {t}"
                )))
            }
        },
        ObcExpr::Const(c) => O::type_of_const(c),
        ObcExpr::Unop(..) | ObcExpr::Binop(..) => return Ok(None),
    }))
}

fn check_block<O: Ops>(sc: &Scope<'_, O>, st: &mut Stacks<O>, s: &Block) -> Result<(), ObcError> {
    s.iter().try_for_each(|s| check_stmt(sc, st, s))
}

fn check_stmt<O: Ops>(sc: &Scope<'_, O>, st: &mut Stacks<O>, s: &Stmt) -> Result<(), ObcError> {
    match s {
        Stmt::Assign(x, e) => {
            let te = expr_ty(sc, st, *e)?;
            match sc.vars.get(x) {
                None => Err(ObcError::UnboundVariable(*x)),
                Some(t) if *t == te => Ok(()),
                Some(t) => Err(ObcError::TypeError(format!(
                    "assignment {x} := … : variable has type {t}, expression {te}"
                ))),
            }
        }
        Stmt::AssignSt(x, e) => {
            let te = expr_ty(sc, st, *e)?;
            match sc.mems.get(x) {
                None => Err(ObcError::UnboundState(*x)),
                Some(t) if *t == te => Ok(()),
                Some(t) => Err(ObcError::TypeError(format!(
                    "state update {x} := … : memory has type {t}, expression {te}"
                ))),
            }
        }
        Stmt::If(c, t, f) => {
            let tc = expr_ty(sc, st, *c)?;
            if tc != O::bool_type() {
                return Err(ObcError::TypeError(format!("guard has type {tc}")));
            }
            check_block(sc, st, t)?;
            check_block(sc, st, f)
        }
        Stmt::Call {
            results,
            class,
            instance,
            method,
            args,
        } => {
            match sc.insts.get(instance) {
                Some(c) if c == class => {}
                Some(c) => {
                    let name = |c: &NodeId| sc.prog.classes[c.index()].name;
                    return Err(ObcError::TypeError(format!(
                        "instance {instance} has class {}, call names {}",
                        name(c),
                        name(class)
                    )));
                }
                None => {
                    return Err(ObcError::Malformed(format!(
                        "undeclared instance {instance} in class {}",
                        sc.class.name
                    )))
                }
            }
            // The instance's class was checked to come before this one.
            let callee = &sc.prog.classes[class.index()];
            let m = callee
                .method(*method)
                .ok_or(ObcError::UnknownMethod(callee.name, *method))?;
            if m.inputs.len() != args.len() || m.outputs.len() != results.len() {
                return Err(ObcError::ArityMismatch(format!(
                    "call to {}.{method}",
                    callee.name
                )));
            }
            for (a, (px, pt)) in args.iter().zip(&m.inputs) {
                let ta = expr_ty(sc, st, *a)?;
                if ta != *pt {
                    return Err(ObcError::TypeError(format!(
                        "argument for {px} has type {ta}, expected {pt}"
                    )));
                }
            }
            for (r, (ox, ot)) in results.iter().zip(&m.outputs) {
                match sc.vars.get(r) {
                    None => return Err(ObcError::UnboundVariable(*r)),
                    Some(t) if t == ot => {}
                    Some(t) => {
                        return Err(ObcError::TypeError(format!(
                            "result {r} has type {t}, output {ox} has type {ot}"
                        )))
                    }
                }
            }
            Ok(())
        }
    }
}

/// Checks one method. `mems` and `insts` hold the class's memories and
/// instances; `vars` is scratch, refilled with the method's variables.
fn check_method<O: Ops>(
    prog: &ObcProgram<O>,
    class: &Class<O>,
    m: &Method<O>,
    (mems, insts): (&IdentMap<O::Ty>, &IdentMap<NodeId>),
    vars: &mut IdentMap<O::Ty>,
    st: &mut Stacks<O>,
) -> Result<(), ObcError> {
    vars.clear();
    for (x, t) in m.inputs.iter().chain(&m.outputs).chain(&m.locals) {
        if vars.insert(*x, t.clone()).is_some() {
            return Err(ObcError::Malformed(format!(
                "duplicate variable {x} in method {}.{}",
                class.name, m.name
            )));
        }
    }
    let sc = Scope {
        vars,
        mems,
        insts,
        class,
        prog,
        ex: &m.exprs,
    };
    check_block(&sc, st, &m.body)
}

/// Checks well-typedness of a whole Obc program. Class names are unique,
/// and classes may only instantiate the classes before them (ruling out
/// recursion).
///
/// # Errors
///
/// The first typing or structural violation, in declaration order.
pub fn check_program<O: Ops>(prog: &ObcProgram<O>) -> Result<(), ObcError> {
    // Names only: the emitted C declares one struct and one function per
    // class name. Callees are found by id, never through this set.
    let mut names: IdentSet = velus_common::ident_set_with_capacity(prog.classes.len());
    let (mut mems, mut insts, mut vars) = (
        IdentMap::default(),
        IdentMap::default(),
        IdentMap::default(),
    );
    let mut stacks = Stacks::default();
    for (k, class) in prog.classes.iter().enumerate() {
        if !names.insert(class.name) {
            return Err(ObcError::Malformed(format!(
                "duplicate class {}",
                class.name
            )));
        }
        insts.clear();
        for &(i, c) in &class.instances {
            if !c.callable_from(NodeId::new(k)) {
                return Err(ObcError::Malformed(format!(
                    "class {}: instance {i} of undeclared class {}",
                    class.name,
                    ClassName(c, &prog.classes)
                )));
            }
            insts.insert(i, c);
        }
        mems.clear();
        mems.extend(class.memories.iter().cloned());
        for m in &class.methods {
            check_method(prog, class, m, (&mems, &insts), &mut vars, &mut stacks)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{reset_name, step_name};
    use velus_common::{Ident, PoolId};
    use velus_ops::{CBinOp, CConst, CTy, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn counter() -> ObcProgram<ClightOps> {
        let mut ex = ObcExprs::new();
        let c = ex.push(ObcExpr::State(id("c"), CTy::I32));
        let i = ex.push(ObcExpr::Var(id("i"), CTy::I32));
        let sum = ex.push(ObcExpr::Binop(CBinOp::Add, c, i, CTy::I32));
        let o = ex.push(ObcExpr::Var(id("o"), CTy::I32));
        let mut reset_ex = ObcExprs::new();
        let zero = reset_ex.push(ObcExpr::Const(CConst::int(0)));
        ObcProgram {
            classes: vec![Class {
                name: id("k"),
                memories: vec![(id("c"), CTy::I32)],
                instances: vec![],
                methods: vec![
                    Method {
                        name: step_name(),
                        inputs: vec![(id("i"), CTy::I32)],
                        outputs: vec![(id("o"), CTy::I32)],
                        locals: vec![],
                        body: Block(vec![Stmt::Assign(id("o"), sum), Stmt::AssignSt(id("c"), o)]),
                        exprs: ex,
                    },
                    Method {
                        name: reset_name(),
                        inputs: vec![],
                        outputs: vec![],
                        locals: vec![],
                        body: Stmt::AssignSt(id("c"), zero).into(),
                        exprs: reset_ex,
                    },
                ],
            }],
        }
    }

    #[test]
    fn accepts_well_typed() {
        assert_eq!(check_program(&counter()), Ok(()));
    }

    #[test]
    fn rejects_implicit_casts() {
        let mut p = counter();
        // state(c) : int := true
        let reset = &mut p.classes[0].methods[1];
        let t = reset.exprs.push(ObcExpr::Const(CConst::bool(true)));
        reset.body = Stmt::AssignSt(id("c"), t).into();
        assert!(matches!(check_program(&p), Err(ObcError::TypeError(_))));
    }

    #[test]
    fn rejects_non_boolean_guards() {
        let mut p = counter();
        let step = &mut p.classes[0].methods[0];
        let i = step.exprs.push(ObcExpr::Var(id("i"), CTy::I32));
        step.body = Stmt::If(i, Block::new(), Block::new()).into();
        assert!(matches!(check_program(&p), Err(ObcError::TypeError(_))));
    }

    #[test]
    fn rejects_expressions_out_of_post_order() {
        // `state(c) + i` with its operands named right to left.
        let mut p = counter();
        let step = &mut p.classes[0].methods[0];
        let sum = ObcExprId::new(2);
        if let ObcExpr::Binop(_, a, b, _) = &mut step.exprs.0[sum] {
            std::mem::swap(a, b);
        }
        assert!(matches!(check_program(&p), Err(ObcError::Malformed(_))));
    }

    #[test]
    fn rejects_forward_instances() {
        // An instance of the class after `k`, then of a class past the end.
        for (callee, name) in [(1, "later"), (5, "#5")] {
            let mut p = counter();
            p.classes[0]
                .instances
                .push((id("sub"), NodeId::new(callee)));
            let mut later = counter().classes.remove(0);
            later.name = id("later");
            p.classes.push(later);
            assert_eq!(
                check_program(&p),
                Err(ObcError::Malformed(format!(
                    "class k: instance sub of undeclared class {name}"
                )))
            );
        }
    }

    #[test]
    fn rejects_duplicate_classes() {
        let mut p = counter();
        let again = p.classes[0].clone();
        p.classes.push(again);
        assert_eq!(
            check_program(&p),
            Err(ObcError::Malformed("duplicate class k".to_owned()))
        );
    }

    #[test]
    fn translated_programs_are_well_typed() {
        // End-to-end: translate the counter node and check.
        use velus_nlustre::ast::{Equation, Exprs, Node, Program, VarDecl};
        use velus_nlustre::clock::Clock;
        let decl = |n: &str, t: CTy| VarDecl::<ClightOps> {
            name: id(n),
            ty: t,
            ck: Clock::Base,
        };
        let mut ex = Exprs::new();
        let (cum, x) = (ex.var(id("cum"), CTy::I32), ex.var(id("x"), CTy::I32));
        let sum = ex.binop(CBinOp::Add, cum, x, CTy::I32);
        let y_rhs = ex.simple(sum);
        let y = ex.var(id("y"), CTy::I32);
        let node = Node {
            name: id("acc"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("cum", CTy::I32)],
            eqs: vec![
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs: y_rhs,
                },
                Equation::Fby {
                    x: id("cum"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: y,
                },
            ],
            exprs: ex,
        };
        let obc = crate::translate::translate_program(&Program::new(vec![node])).unwrap();
        assert_eq!(check_program(&obc), Ok(()));
        let fused = crate::fusion::fuse_program(obc);
        assert_eq!(check_program(&fused), Ok(()));
    }
}
