//! Translation from SN-Lustre to Obc (paper §3, Fig. 5).
//!
//! Each dataflow node becomes a class with a memory per `fby`-defined
//! variable, an instance per node call, and two methods:
//!
//! * `reset` initializes memories and instances;
//! * `step` computes one instant — one "column" of the semantic table —
//!   with each equation compiled to an assignment nested in the
//!   conditionals dictated by its clock (`ctrl`): "clocks in the source
//!   language are transformed into control structures in the target
//!   language".
//!
//! A node-call instance is identified by its left-most result variable,
//! which is unique within the node, exactly as in the paper.

use velus_common::{Ident, IdentMap, IdentSet, Pool};
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

use crate::ast::{
    reset_name, step_name, Block, Class, Method, ObcExpr, ObcExprId, ObcExprs, ObcProgram, Stmt,
};
use crate::ObcError;

/// Per-node translation context: which variables are memories, and the
/// type of every variable. [`translate_program`] refills one context
/// node after node.
struct Ctx<O: Ops> {
    mems: IdentSet,
    types: IdentMap<O::Ty>,
    /// The translated operands of [`Ctx::trexp`]'s loop.
    stack: Vec<ObcExprId>,
}

impl<O: Ops> Ctx<O> {
    fn new() -> Self {
        Ctx {
            mems: IdentSet::default(),
            types: IdentMap::default(),
            stack: Vec::new(),
        }
    }

    /// Empties the context and fills it for `node`.
    fn fill(&mut self, node: &Node<O>) {
        self.mems.clear();
        self.mems.extend(node.mems_iter());
        self.types.clear();
        for d in node.inputs.iter().chain(&node.outputs).chain(&node.locals) {
            self.types.insert(d.name, d.ty.clone());
        }
    }

    fn ty(&self, x: Ident) -> Result<O::Ty, ObcError> {
        self.types
            .get(&x)
            .cloned()
            .ok_or(ObcError::UnboundVariable(x))
    }

    /// The paper's `var` function: a dataflow variable becomes a state
    /// access if it is `fby`-defined, a local variable otherwise.
    fn var(&self, x: Ident) -> Result<ObcExpr<O>, ObcError> {
        let ty = self.ty(x)?;
        Ok(if self.mems.contains(&x) {
            ObcExpr::State(x, ty)
        } else {
            ObcExpr::Var(x, ty)
        })
    }

    /// [`Ctx::var`], appended to `out`.
    fn var_in(&self, out: &mut ObcExprs<O>, x: Ident) -> Result<ObcExprId, ObcError> {
        Ok(out.push(self.var(x)?))
    }

    /// `trexp`: propagates constants and operators, removes `when`s. One
    /// loop over `e`'s post-order run appends the translation to `out`,
    /// in post-order too.
    fn trexp(
        &mut self,
        ex: &Exprs<O>,
        out: &mut ObcExprs<O>,
        e: ExprId,
    ) -> Result<ObcExprId, ObcError> {
        // A leaf needs no stack.
        match &ex[e] {
            Expr::Const(c) => return Ok(out.push(ObcExpr::Const(c.clone()))),
            Expr::Var(x, _) => return self.var_in(out, *x),
            _ => self.stack.clear(),
        }
        for n in ex.tree(e) {
            let id = match n {
                Expr::Const(c) => out.push(ObcExpr::Const(c.clone())),
                Expr::Var(x, _) => self.var_in(out, *x)?,
                // The operand's translation stands for the sampled value.
                Expr::When(..) => continue,
                Expr::Unop(op, _, ty) => {
                    let a = pop(&mut self.stack);
                    out.push(ObcExpr::Unop(*op, a, ty.clone()))
                }
                Expr::Binop(op, _, _, ty) => {
                    let b = pop(&mut self.stack);
                    let a = pop(&mut self.stack);
                    out.push(ObcExpr::Binop(*op, a, b, ty.clone()))
                }
            };
            self.stack.push(id);
        }
        Ok(pop(&mut self.stack))
    }

    /// `trcexp`: maps a defined variable and a control expression to an
    /// update statement; merges and muxes become conditionals (so this
    /// recursion follows their nesting, as the statements it builds do).
    fn trcexp(
        &mut self,
        ex: &Exprs<O>,
        out: &mut ObcExprs<O>,
        x: Ident,
        ce: CExprId,
    ) -> Result<Stmt, ObcError> {
        Ok(match ex[ce] {
            CExpr::Merge(y, t, f) => Stmt::If(
                self.var_in(out, y)?,
                self.trcexp(ex, out, x, t)?.into(),
                self.trcexp(ex, out, x, f)?.into(),
            ),
            CExpr::If(c, t, f) => Stmt::If(
                self.trexp(ex, out, c)?,
                self.trcexp(ex, out, x, t)?.into(),
                self.trcexp(ex, out, x, f)?.into(),
            ),
            CExpr::Expr(e) => Stmt::Assign(x, self.trexp(ex, out, e)?),
        })
    }

    /// `ctrl`: nests a statement in the conditionals of its clock.
    fn ctrl(&self, out: &mut ObcExprs<O>, ck: &Clock, s: Stmt) -> Result<Stmt, ObcError> {
        let mut s = s;
        let mut ck = ck;
        while let Clock::On(parent, x, k) = ck {
            let guard = self.var_in(out, *x)?;
            s = if *k {
                Stmt::If(guard, s.into(), Block::new())
            } else {
                Stmt::If(guard, Block::new(), s.into())
            };
            ck = parent;
        }
        Ok(s)
    }

    /// `treqs`: one equation of the `step` method.
    fn treq(
        &mut self,
        ex: &Exprs<O>,
        out: &mut ObcExprs<O>,
        eq: &Equation<O>,
    ) -> Result<Stmt, ObcError> {
        let s = match eq {
            Equation::Def { x, rhs, .. } => self.trcexp(ex, out, *x, *rhs)?,
            Equation::Fby { x, rhs, .. } => Stmt::AssignSt(*x, self.trexp(ex, out, *rhs)?),
            Equation::Call { xs, node, args, .. } => {
                let mut ids = Vec::with_capacity(args.len());
                for &a in args {
                    ids.push(self.trexp(ex, out, a)?);
                }
                Stmt::Call {
                    results: xs.clone(),
                    class: *node,
                    instance: xs[0],
                    method: step_name(),
                    args: ids,
                }
            }
        };
        self.ctrl(out, eq.clock(), s)
    }
}

/// Pops an operand the translation loop pushed before its parent.
fn pop(stack: &mut Vec<ObcExprId>) -> ObcExprId {
    stack
        .pop()
        .expect("operands are translated before their parent")
}

/// `treqr`: one equation of the `reset` method (delays become constant
/// state updates, calls become `reset` invocations; definitions vanish).
fn treq_reset<O: Ops>(out: &mut ObcExprs<O>, eq: &Equation<O>) -> Option<Stmt> {
    match eq {
        Equation::Def { .. } => None,
        Equation::Fby { x, init, .. } => {
            Some(Stmt::AssignSt(*x, out.push(ObcExpr::Const(init.clone()))))
        }
        Equation::Call { xs, node, .. } => Some(Stmt::Call {
            results: vec![],
            class: *node,
            instance: xs[0],
            method: reset_name(),
            args: vec![],
        }),
    }
}

/// `trnode`: translates one node into a class.
///
/// # Errors
///
/// Rejects nodes where a `fby` defines an output directly (normalization
/// introduces a copy first) and propagates unbound-variable errors.
pub fn translate_node<O: Ops>(node: &Node<O>) -> Result<Class<O>, ObcError> {
    translate_node_in(&mut Ctx::new(), node)
}

/// [`translate_node`] through a reusable context.
fn translate_node_in<O: Ops>(ctx: &mut Ctx<O>, node: &Node<O>) -> Result<Class<O>, ObcError> {
    ctx.fill(node);
    for d in &node.outputs {
        if ctx.mems.contains(&d.name) {
            return Err(ObcError::Malformed(format!(
                "node {}: output {} is fby-defined; normalization must introduce a copy",
                node.name, d.name
            )));
        }
    }

    // Each N-Lustre node becomes at most one Obc node; clocks and merges
    // add one variable per level.
    let mut step_exprs = ObcExprs(Pool::with_capacity(
        node.exprs.simple.len() + node.eqs.len(),
    ));
    let mut step_body = Block(Vec::with_capacity(node.eqs.len()));
    for eq in &node.eqs {
        step_body.push(ctx.treq(&node.exprs, &mut step_exprs, eq)?);
    }
    // Every delay and every call leaves a reset statement, and is a
    // memory or an instance: count them once to size those vectors.
    let fbys = ctx.mems.len();
    let calls = node
        .eqs
        .iter()
        .filter(|eq| matches!(eq, Equation::Call { .. }))
        .count();
    let mut reset_body = Block(Vec::with_capacity(fbys + calls));
    let mut reset_exprs = ObcExprs(Pool::with_capacity(fbys));
    reset_body.extend(
        node.eqs
            .iter()
            .filter_map(|eq| treq_reset(&mut reset_exprs, eq)),
    );
    let mut memories = Vec::with_capacity(fbys);
    let mut instances = Vec::with_capacity(calls);
    for eq in &node.eqs {
        match eq {
            Equation::Fby { x, .. } => memories.push((*x, ctx.types[x].clone())),
            Equation::Call { xs, node: f, .. } => instances.push((xs[0], *f)),
            Equation::Def { .. } => {}
        }
    }

    let step = Method {
        name: step_name(),
        inputs: node.inputs.iter().map(|d| (d.name, d.ty.clone())).collect(),
        outputs: node
            .outputs
            .iter()
            .map(|d| (d.name, d.ty.clone()))
            .collect(),
        locals: {
            let mut locals = Vec::with_capacity(node.locals.len().saturating_sub(fbys));
            locals.extend(
                node.locals
                    .iter()
                    .filter(|d| !ctx.mems.contains(&d.name))
                    .map(|d| (d.name, d.ty.clone())),
            );
            locals
        },
        body: step_body,
        exprs: step_exprs,
    };
    let reset = Method {
        name: reset_name(),
        inputs: vec![],
        outputs: vec![],
        locals: vec![],
        body: reset_body,
        exprs: reset_exprs,
    };

    Ok(Class {
        name: node.name,
        memories,
        instances,
        methods: vec![step, reset],
    })
}

/// `translate`: maps every node of an SN-Lustre program into an Obc class
/// (callees-first order is preserved).
///
/// The input program must be well scheduled; the validation harness
/// re-checks schedules before calling this.
///
/// # Errors
///
/// See [`translate_node`].
pub fn translate_program<O: Ops>(prog: &Program<O>) -> Result<ObcProgram<O>, ObcError> {
    let mut ctx = Ctx::new();
    let classes = prog
        .nodes
        .iter()
        .map(|node| translate_node_in(&mut ctx, node))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ObcProgram { classes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::run_class;
    use velus_nlustre::ast::VarDecl;
    use velus_nlustre::dataflow;
    use velus_nlustre::streams::SVal;
    use velus_ops::{CBinOp, CConst, CTy, CVal, ClightOps};

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

    /// The scheduled counter of Fig. 3.
    fn counter() -> Node<ClightOps> {
        let mut ex = Exprs::new();
        let f = ex.var(id("f"), CTy::Bool);
        let res = ex.var(id("res"), CTy::Bool);
        let guard = ex.binop(CBinOp::Or, f, res, CTy::Bool);
        let ini = ex.var(id("ini"), CTy::I32);
        let ini = ex.simple(ini);
        let (c, inc) = (ex.var(id("c"), CTy::I32), ex.var(id("inc"), CTy::I32));
        let sum = ex.binop(CBinOp::Add, c, inc, CTy::I32);
        let sum = ex.simple(sum);
        let n_rhs = ex.ite(guard, ini, sum);
        let f_rhs = ex.constant(CConst::bool(false));
        let c_rhs = ex.var(id("n"), CTy::I32);
        Node {
            name: id("counter"),
            inputs: vec![
                decl("ini", CTy::I32),
                decl("inc", CTy::I32),
                decl("res", CTy::Bool),
            ],
            outputs: vec![decl("n", CTy::I32)],
            locals: vec![decl("c", CTy::I32), decl("f", CTy::Bool)],
            eqs: vec![
                Equation::Def {
                    x: id("n"),
                    ck: Clock::Base,
                    rhs: n_rhs,
                },
                Equation::Fby {
                    x: id("f"),
                    ck: Clock::Base,
                    init: CConst::bool(true),
                    rhs: f_rhs,
                },
                Equation::Fby {
                    x: id("c"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: c_rhs,
                },
            ],
            exprs: ex,
        }
    }

    #[test]
    fn fby_variables_become_state() {
        let class = translate_node(&counter()).unwrap();
        assert_eq!(class.memories.len(), 2);
        assert!(class.instances.is_empty());
        // Locals of the step method exclude the memories.
        let step = class.method(step_name()).unwrap();
        assert!(step.locals.is_empty());
        let text = class.methods[0].body.show(&class.methods[0].exprs);
        assert!(text.contains("state(c)"), "{text}");
        assert!(text.contains("state(f)"), "{text}");
    }

    #[test]
    fn translated_counter_matches_dataflow() {
        let prog = Program::new(vec![counter()]);
        let obc = translate_program(&prog).unwrap();
        let n = 6;
        let ini: Vec<SVal<ClightOps>> = (0..n).map(|_| SVal::Pres(CVal::int(7))).collect();
        let inc: Vec<SVal<ClightOps>> = (0..n).map(|i| SVal::Pres(CVal::int(i as i32))).collect();
        let res: Vec<SVal<ClightOps>> = (0..n).map(|i| SVal::Pres(CVal::bool(i == 3))).collect();
        let inputs = vec![ini, inc, res];
        let df = dataflow::run_node(&prog, velus_common::NodeId::new(0), &inputs, n).unwrap();

        let obc_inputs: Vec<Option<Vec<CVal>>> = (0..n)
            .map(|i| Some(inputs.iter().map(|s| *s[i].value().unwrap()).collect()))
            .collect();
        let outs = run_class(&obc, velus_common::NodeId::new(0), &obc_inputs).unwrap();
        for i in 0..n {
            assert_eq!(
                df[0][i].value().unwrap(),
                &outs[i].as_ref().unwrap()[0],
                "instant {i}"
            );
        }
    }

    #[test]
    fn reset_reinitializes() {
        let prog = Program::new(vec![counter()]);
        let obc = translate_program(&prog).unwrap();
        let class = &obc.classes[0];
        let reset = class.method(reset_name()).unwrap();
        let text = reset.body.show(&reset.exprs);
        assert!(text.contains("state(f) := true;"), "{text}");
        assert!(text.contains("state(c) := 0;"), "{text}");
    }

    #[test]
    fn fby_defined_output_is_rejected() {
        let mut ex = Exprs::new();
        let x = ex.var(id("x"), CTy::I32);
        let node: Node<ClightOps> = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::int(0),
                rhs: x,
            }],
            exprs: ex,
        };
        assert!(matches!(translate_node(&node), Err(ObcError::Malformed(_))));
    }

    #[test]
    fn clocked_equations_are_guarded() {
        // s on clock (base on k) becomes if k { s }.
        let on_k = Clock::Base.on(id("k"), true);
        let mut ex = Exprs::new();
        let x = ex.var(id("x"), CTy::I32);
        let x = ex.when(x, id("k"), true);
        let s_rhs = ex.simple(x);
        let s = ex.var(id("s"), CTy::I32);
        let s = ex.simple(s);
        let zero = ex.constant(CConst::int(0));
        let zero = ex.when(zero, id("k"), false);
        let zero = ex.simple(zero);
        let o_rhs = ex.merge(id("k"), s, zero);
        let node: Node<ClightOps> = Node {
            name: id("guarded"),
            inputs: vec![decl("k", CTy::Bool), decl("x", CTy::I32)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![VarDecl {
                name: id("s"),
                ty: CTy::I32,
                ck: on_k.clone(),
            }],
            eqs: vec![
                Equation::Def {
                    x: id("s"),
                    ck: on_k,
                    rhs: s_rhs,
                },
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: o_rhs,
                },
            ],
            exprs: ex,
        };
        let class = translate_node(&node).unwrap();
        let step = class.method(step_name()).unwrap();
        let text = step.body.show(&step.exprs);
        assert!(text.contains("if k {"), "{text}");
        // The merge also compiles to a conditional on k.
        assert!(text.matches("if k {").count() >= 2, "{text}");
    }
}
