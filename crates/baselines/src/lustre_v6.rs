//! The Lustre v6-style translation: delays as separate stateful
//! functions.
//!
//! "The estimated WCETs for the Lustre v6 generated code only become
//! competitive when inlining is enabled because Lustre v6 implements
//! operators, like pre and −>, using separate functions" (§5).
//!
//! Each `fby` equation compiles to a pair of method calls on an auxiliary
//! per-type class — `get` reads the delayed value (handling the first
//! instant through an internal flag, i.e. the fused `->`/`pre` pair), and
//! `set` stores the next one:
//!
//! ```text
//! class lv6$fby$int {
//!   memory first: bool;  memory m: int;
//!   (y: int) get(i: int) = if state(first) then y := i else y := state(m)
//!   () set(v: int)       = state(m) := v; state(first) := false
//!   () reset()           = state(first) := true
//! }
//! ```
//!
//! All `get`s run at the top of `step` (delayed values must be available
//! to every reader), the `set`s sit where the `fby` equations were
//! scheduled. No fusion is applied, matching the modular v6 scheme.

use velus_common::{Ident, IdentMap, NodeId};
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program};
use velus_nlustre::clock::Clock;
use velus_obc::ast::{
    reset_name, step_name, Block, Class, Method, ObcExpr, ObcExprId, ObcExprs, ObcProgram, Stmt,
};
use velus_ops::Ops;

use crate::BaselineError;

fn get_name() -> Ident {
    Ident::new("get")
}

fn set_name() -> Ident {
    Ident::new("set")
}

/// The auxiliary class implementing delays at type `ty`.
fn fby_class_name<O: Ops>(ty: &O::Ty) -> Ident {
    Ident::new(&format!("lv6$fby${ty}"))
}

fn make_fby_class<O: Ops>(ty: &O::Ty) -> Class<O> {
    let first = Ident::new("first");
    let m = Ident::new("m");
    let y = Ident::new("y");
    let i = Ident::new("i");
    let v = Ident::new("v");
    let bool_ty = O::bool_type();
    let tt = O::const_of_literal(&velus_ops::Literal::Bool(true), &bool_ty)
        .expect("boolean constants exist");
    let ff = O::const_of_literal(&velus_ops::Literal::Bool(false), &bool_ty)
        .expect("boolean constants exist");
    let mut get = ObcExprs::new();
    let (g_first, g_i, g_m) = (
        get.push(ObcExpr::State(first, bool_ty.clone())),
        get.push(ObcExpr::Var(i, ty.clone())),
        get.push(ObcExpr::State(m, ty.clone())),
    );
    let mut set = ObcExprs::new();
    let (s_v, s_ff) = (
        set.push(ObcExpr::Var(v, ty.clone())),
        set.push(ObcExpr::Const(ff)),
    );
    let mut reset = ObcExprs::new();
    let r_tt = reset.push(ObcExpr::Const(tt));
    Class {
        name: fby_class_name::<O>(ty),
        memories: vec![(first, bool_ty.clone()), (m, ty.clone())],
        instances: vec![],
        methods: vec![
            Method {
                name: get_name(),
                inputs: vec![(i, ty.clone())],
                outputs: vec![(y, ty.clone())],
                locals: vec![],
                body: Stmt::If(
                    g_first,
                    Stmt::Assign(y, g_i).into(),
                    Stmt::Assign(y, g_m).into(),
                )
                .into(),
                exprs: get,
            },
            Method {
                name: set_name(),
                inputs: vec![(v, ty.clone())],
                outputs: vec![],
                locals: vec![],
                body: Block(vec![Stmt::AssignSt(m, s_v), Stmt::AssignSt(first, s_ff)]),
                exprs: set,
            },
            Method {
                name: reset_name(),
                inputs: vec![],
                outputs: vec![],
                locals: vec![],
                body: Stmt::AssignSt(first, r_tt).into(),
                exprs: reset,
            },
        ],
    }
}

/// Per-node context (no memories: every variable is a step local).
struct Ctx<'a, O: Ops> {
    types: IdentMap<O::Ty>,
    /// The node's expressions.
    src: &'a Exprs<O>,
    /// The step method's expressions, built as its body is.
    out: ObcExprs<O>,
    /// The translated operands of [`Ctx::trexp`]'s loop.
    stack: Vec<ObcExprId>,
}

impl<O: Ops> Ctx<'_, O> {
    fn var(&mut self, x: Ident) -> Result<ObcExprId, BaselineError> {
        let ty = self
            .types
            .get(&x)
            .cloned()
            .ok_or(velus_obc::ObcError::UnboundVariable(x))?;
        Ok(self.out.push(ObcExpr::Var(x, ty)))
    }

    /// Translates `e` in one loop over its post-order run, dropping the
    /// `when`s.
    fn trexp(&mut self, e: ExprId) -> Result<ObcExprId, BaselineError> {
        let src = self.src;
        self.stack.clear();
        for n in src.tree(e) {
            let id = match n {
                Expr::Const(c) => self.out.push(ObcExpr::Const(c.clone())),
                Expr::Var(x, _) => self.var(*x)?,
                Expr::When(..) => continue,
                Expr::Unop(op, _, ty) => {
                    let a = self.stack.pop().expect("operand");
                    self.out.push(ObcExpr::Unop(*op, a, ty.clone()))
                }
                Expr::Binop(op, _, _, ty) => {
                    let r = self.stack.pop().expect("operand");
                    let l = self.stack.pop().expect("operand");
                    self.out.push(ObcExpr::Binop(*op, l, r, ty.clone()))
                }
            };
            self.stack.push(id);
        }
        Ok(self.stack.pop().expect("the translation"))
    }

    fn trcexp(&mut self, x: Ident, ce: CExprId) -> Result<Stmt, BaselineError> {
        Ok(match self.src[ce] {
            CExpr::Merge(y, t, f) => Stmt::If(
                self.var(y)?,
                self.trcexp(x, t)?.into(),
                self.trcexp(x, f)?.into(),
            ),
            CExpr::If(c, t, f) => Stmt::If(
                self.trexp(c)?,
                self.trcexp(x, t)?.into(),
                self.trcexp(x, f)?.into(),
            ),
            CExpr::Expr(e) => Stmt::Assign(x, self.trexp(e)?),
        })
    }

    fn ctrl(&mut self, ck: &Clock, s: Stmt) -> Result<Stmt, BaselineError> {
        match ck {
            Clock::Base => Ok(s),
            Clock::On(parent, x, polarity) => {
                let guarded = if *polarity {
                    Stmt::If(self.var(*x)?, s.into(), Block::new())
                } else {
                    Stmt::If(self.var(*x)?, Block::new(), s.into())
                };
                self.ctrl(parent, guarded)
            }
        }
    }
}

fn delay_instance(x: Ident) -> Ident {
    Ident::new(&format!("{x}$d"))
}

/// Translates one node. The delay classes of `delay_types` come first in
/// the program, in that order, then the node classes in node order.
fn translate_node_v6<O: Ops>(
    node: &Node<O>,
    delay_types: &[O::Ty],
) -> Result<Class<O>, BaselineError> {
    let mut types: IdentMap<O::Ty> = IdentMap::<O::Ty>::default();
    for d in node.inputs.iter().chain(&node.outputs).chain(&node.locals) {
        types.insert(d.name, d.ty.clone());
    }
    let mut ctx = Ctx::<O> {
        types,
        src: &node.exprs,
        out: ObcExprs::new(),
        stack: Vec::new(),
    };

    let fby_class = |ty: &O::Ty| NodeId::new(delay_types.iter().take_while(|t| *t != ty).count());
    let node_class = |f: &NodeId| NodeId::new(delay_types.len() + f.index());
    let mut instances: Vec<(Ident, NodeId)> = Vec::new();
    let mut gets: Vec<Stmt> = Vec::new();
    let mut body: Vec<Stmt> = Vec::new();
    let mut resets: Vec<Stmt> = Vec::new();

    for eq in &node.eqs {
        match eq {
            Equation::Fby { x, ck, init, .. } => {
                let ty = ctx.types[x].clone();
                let cls = fby_class(&ty);
                let inst = delay_instance(*x);
                instances.push((inst, cls));
                // x := fby.get(init), available to all readers.
                let init = ctx.out.push(ObcExpr::Const(init.clone()));
                let get = Stmt::Call {
                    results: vec![*x],
                    class: cls,
                    instance: inst,
                    method: get_name(),
                    args: vec![init],
                };
                gets.push(ctx.ctrl(ck, get)?);
                resets.push(Stmt::Call {
                    results: vec![],
                    class: cls,
                    instance: inst,
                    method: reset_name(),
                    args: vec![],
                });
            }
            Equation::Call { xs, node: f, .. } => {
                instances.push((xs[0], node_class(f)));
                resets.push(Stmt::Call {
                    results: vec![],
                    class: node_class(f),
                    instance: xs[0],
                    method: reset_name(),
                    args: vec![],
                });
            }
            Equation::Def { .. } => {}
        }
    }

    for eq in &node.eqs {
        let s = match eq {
            Equation::Def { x, ck, rhs } => {
                let s = ctx.trcexp(*x, *rhs)?;
                ctx.ctrl(ck, s)?
            }
            Equation::Fby { x, ck, rhs, .. } => {
                let ty = ctx.types[x].clone();
                let set = Stmt::Call {
                    results: vec![],
                    class: fby_class(&ty),
                    instance: delay_instance(*x),
                    method: set_name(),
                    args: vec![ctx.trexp(*rhs)?],
                };
                ctx.ctrl(ck, set)?
            }
            Equation::Call {
                xs,
                ck,
                node: f,
                args,
            } => {
                let args = args
                    .iter()
                    .map(|&a| ctx.trexp(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let step = Stmt::Call {
                    results: xs.clone(),
                    class: node_class(f),
                    instance: xs[0],
                    method: step_name(),
                    args,
                };
                ctx.ctrl(ck, step)?
            }
        };
        body.push(s);
    }

    let step = Method {
        name: step_name(),
        inputs: node.inputs.iter().map(|d| (d.name, d.ty.clone())).collect(),
        outputs: node
            .outputs
            .iter()
            .map(|d| (d.name, d.ty.clone()))
            .collect(),
        locals: node.locals.iter().map(|d| (d.name, d.ty.clone())).collect(),
        body: gets.into_iter().chain(body).collect(),
        exprs: ctx.out,
    };
    let reset = Method {
        name: reset_name(),
        inputs: vec![],
        outputs: vec![],
        locals: vec![],
        body: Block(resets),
        exprs: ObcExprs::new(),
    };
    Ok(Class {
        name: node.name,
        memories: vec![],
        instances,
        methods: vec![step, reset],
    })
}

/// Translates a scheduled N-Lustre program in the Lustre v6 style: every
/// delay becomes `get`/`set` calls on auxiliary classes, no memories in
/// node classes, no fusion.
///
/// # Errors
///
/// Unbound variables (ruled out by the front-end checks).
pub fn translate_v6<O: Ops>(prog: &Program<O>) -> Result<ObcProgram<O>, BaselineError> {
    // Collect the delay types used anywhere, to emit each helper once.
    let mut delay_types: Vec<O::Ty> = Vec::new();
    for node in &prog.nodes {
        for eq in &node.eqs {
            if let Equation::Fby { x, .. } = eq {
                let ty = node
                    .decl(*x)
                    .map(|d| d.ty.clone())
                    .ok_or(velus_obc::ObcError::UnboundVariable(*x))?;
                if !delay_types.contains(&ty) {
                    delay_types.push(ty);
                }
            }
        }
    }
    let mut classes: Vec<Class<O>> = delay_types
        .iter()
        .map(|ty| make_fby_class::<O>(ty))
        .collect();
    for node in &prog.nodes {
        classes.push(translate_node_v6(node, &delay_types)?);
    }
    Ok(ObcProgram { classes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_obc::sem::run_class;
    use velus_obc::typecheck;
    use velus_ops::{CVal, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn compile_v6(src: &str) -> ObcProgram<ClightOps> {
        let prog = velus_lustre::compile_to_nlustre::<ClightOps>(src)
            .unwrap()
            .0;
        crate::lustre_v6_obc(&prog).unwrap()
    }

    #[test]
    fn delays_become_auxiliary_instances() {
        let obc = compile_v6(
            "node f(x: int) returns (y: int)
             let y = 0 fby (y + x); tel",
        );
        // lv6$fby$int helper class + node class.
        assert!(obc
            .classes
            .iter()
            .any(|c| c.name.as_str().starts_with("lv6$fby$")));
        let f = obc.classes.last().unwrap();
        assert_eq!(f.name, id("f"));
        assert!(f.memories.is_empty());
        assert!(!f.instances.is_empty());
        typecheck::check_program(&obc).unwrap();
    }

    #[test]
    fn v6_semantics_matches_standard_translation() {
        let src = "node counter(ini, inc: int; res: bool) returns (n: int)
                   let
                     n = if (true fby false) or res then ini else (0 fby n) + inc;
                   tel";
        let prog = velus_lustre::compile_to_nlustre::<ClightOps>(src)
            .unwrap()
            .0;
        let mut scheduled = prog.clone();
        velus_nlustre::schedule::schedule_program(&mut scheduled).unwrap();
        let standard = velus_obc::translate::translate_program(&scheduled).unwrap();
        let v6 = crate::lustre_v6_obc(&prog).unwrap();

        let inputs: Vec<Option<Vec<CVal>>> = (0..8)
            .map(|i| Some(vec![CVal::int(100), CVal::int(i), CVal::bool(i == 5)]))
            .collect();
        let root = NodeId::new(0);
        let a = run_class(&standard, root, &inputs).unwrap();
        let b = run_class(&v6, crate::root_class(&v6, &prog, root), &inputs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heptagon_semantics_matches_standard_translation() {
        let src = "node f(c: bool; a, b: int) returns (y: int)
                   let y = (0 fby y) + (if c then a * 2 else b - 1); tel";
        let prog = velus_lustre::compile_to_nlustre::<ClightOps>(src)
            .unwrap()
            .0;
        let mut scheduled = prog.clone();
        velus_nlustre::schedule::schedule_program(&mut scheduled).unwrap();
        let standard = velus_obc::translate::translate_program(&scheduled).unwrap();
        let hept = crate::heptagon_obc(&prog).unwrap();
        typecheck::check_program(&hept).unwrap();

        let inputs: Vec<Option<Vec<CVal>>> = (0..8)
            .map(|i| Some(vec![CVal::bool(i % 3 == 0), CVal::int(i), CVal::int(-i)]))
            .collect();
        let root = NodeId::new(0);
        let a = run_class(&standard, root, &inputs).unwrap();
        let b = run_class(&hept, crate::root_class(&hept, &prog, root), &inputs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn v6_code_is_larger() {
        let src = "node f(x: int) returns (y: int)
                   let y = (0 fby y) + x; tel";
        let prog = velus_lustre::compile_to_nlustre::<ClightOps>(src)
            .unwrap()
            .0;
        let mut scheduled = prog.clone();
        velus_nlustre::schedule::schedule_program(&mut scheduled).unwrap();
        let standard = velus_obc::translate::translate_program(&scheduled).unwrap();
        let v6 = crate::lustre_v6_obc(&prog).unwrap();
        let count = |p: &ObcProgram<ClightOps>| {
            p.classes
                .iter()
                .flat_map(|c| &c.methods)
                .map(|m| m.body.size())
                .sum::<usize>()
        };
        assert!(count(&v6) > count(&standard));
    }
}
