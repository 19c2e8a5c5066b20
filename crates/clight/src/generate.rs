//! Generation of Clight from Obc (§4, Fig. 9).
//!
//! For every class: a struct with a field per memory and per instance.
//! For every method: a function taking `self` (a pointer to the instance
//! struct) and, when the method has two or more outputs, `out` (a pointer
//! to a per-method output struct — Clight has no multiple return values).
//! The zero- and one-output cases are optimized to `void` and a plain
//! return value, as in the paper.
//!
//! Within a function: method locals and single outputs become
//! *temporaries* (`register` in Fig. 9); state accesses become
//! `(*self).x`; output writes become `(*out).x`; a call to a method with
//! multiple outputs goes through an addressable local `out$i$m` whose
//! fields are copied into place afterwards — "a sequence of assignments
//! is added after each call".
//!
//! A `main` in the paper's test mode is generated for the chosen root
//! class: volatile loads of the inputs, one `step`, volatile stores of
//! the outputs, in an infinite loop.

use velus_common::{Ident, IdentSet, NodeId};
use velus_obc::ast::{
    reset_name, step_name, Block as OBlock, Class, Method, ObcExpr, ObcExprId, ObcExprs,
    ObcProgram, Stmt as OStmt, RESET, STEP,
};
use velus_ops::{CTy, ClightOps};

use crate::ast::{Block, Expr, ExprId, Exprs, Function, Place, Program, Stmt};
use crate::ctypes::{CType, Composite};
use crate::ClightError;

/// The function name for `class.method` (e.g. `tracker$step`).
pub fn method_fn_name(class: Ident, method: Ident) -> Ident {
    Ident::from_fmt(format_args!("{class}${method}"))
}

/// The struct name holding the outputs of `class.method` (only exists
/// when the method has two or more outputs).
pub fn out_struct_name(class: Ident, method: Ident) -> Ident {
    Ident::from_fmt(format_args!("{class}${method}"))
}

/// The volatile global carrying the root input `x`.
pub fn vol_in_name(x: Ident) -> Ident {
    Ident::from_fmt(format_args!("in${x}"))
}

/// The volatile global carrying the root output `x`.
pub fn vol_out_name(x: Ident) -> Ident {
    Ident::from_fmt(format_args!("out${x}"))
}

/// The cached `self` parameter name (referenced once per state access
/// during generation — interning it each time took the interner lock).
fn self_ident() -> Ident {
    static SELF: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *SELF.get_or_init(|| Ident::new("self"))
}

/// The cached `out` parameter name (see [`self_ident`]).
fn out_ident() -> Ident {
    static OUT: std::sync::OnceLock<Ident> = std::sync::OnceLock::new();
    *OUT.get_or_init(|| Ident::new("out"))
}

struct MCtx<'a> {
    class: &'a Class<ClightOps>,
    /// The Obc method's expressions.
    src: &'a ObcExprs<ClightOps>,
    /// The function's expressions, built as the body is.
    exprs: Exprs,
    /// The generated operands of [`MCtx::gen_expr`]'s loop.
    stack: Vec<ExprId>,
    /// The index of each class's first method function.
    class_fns: &'a [usize],
    /// The method's output struct, when it has two or more outputs.
    out_struct: Option<Ident>,
    /// The outputs held in `out_struct` (empty without one).
    outputs: IdentSet,
    /// Addressable locals added for multi-output callee results.
    extra_vars: Vec<(Ident, CType)>,
    /// Temporaries added for single-output callee results.
    extra_temps: Vec<(Ident, CType)>,
    fresh: u32,
}

impl MCtx<'_> {
    /// `(*self).x`, of scalar type `ty`.
    fn state_field(&self, x: Ident, ty: CTy) -> Expr {
        Expr::DerefField(self_ident(), self.class.name, x, CType::Scalar(ty))
    }

    /// `(*out).x` when `x` is an output kept in the output struct.
    fn out_field(&self, x: Ident, ty: CTy) -> Option<Expr> {
        let out_struct = self.out_struct.filter(|_| self.outputs.contains(&x))?;
        Some(Expr::DerefField(
            out_ident(),
            out_struct,
            x,
            CType::Scalar(ty),
        ))
    }

    /// Generates Obc expression `e` into the function's pool: one loop
    /// over its post-order run, node for node, so the result is in
    /// post-order too.
    fn gen_expr(&mut self, e: ObcExprId) -> ExprId {
        let src = self.src;
        // A leaf needs no stack.
        if let Some(leaf) = self.gen_leaf(&src[e]) {
            return self.exprs.push(leaf);
        }
        self.stack.clear();
        for n in src.tree(e) {
            let node = match n {
                ObcExpr::Unop(op, _, ty) => Expr::Unop(*op, pop(&mut self.stack), *ty),
                ObcExpr::Binop(op, _, _, ty) => {
                    let r = pop(&mut self.stack);
                    Expr::Binop(*op, pop(&mut self.stack), r, *ty)
                }
                leaf => self.gen_leaf(leaf).expect("a leaf"),
            };
            let id = self.exprs.push(node);
            self.stack.push(id);
        }
        pop(&mut self.stack)
    }

    /// The Clight leaf of an Obc constant, variable or memory; `None`
    /// for an operator.
    fn gen_leaf(&self, e: &ObcExpr<ClightOps>) -> Option<Expr> {
        Some(match e {
            ObcExpr::Const(c) => Expr::Const(c.val(), c.ty()),
            ObcExpr::State(x, ty) => self.state_field(*x, *ty),
            ObcExpr::Var(x, ty) => self
                .out_field(*x, *ty)
                .unwrap_or(Expr::Temp(*x, CType::Scalar(*ty))),
            ObcExpr::Unop(..) | ObcExpr::Binop(..) => return None,
        })
    }

    /// A write to the Obc variable `x` of type `ty`.
    fn gen_write(&mut self, x: Ident, ty: CTy, rhs: ExprId) -> Stmt {
        match self.out_field(x, ty) {
            Some(field) => Stmt::Assign(self.exprs.push(field), rhs),
            None => Stmt::Set(x, rhs),
        }
    }

    fn gen_block(
        &mut self,
        prog: &ObcProgram<ClightOps>,
        s: &OBlock,
    ) -> Result<Block, ClightError> {
        let mut out = Block::with_capacity(s.len());
        for s in s.iter() {
            self.gen_stmt(prog, s, &mut out)?;
        }
        Ok(out)
    }

    /// Appends the Clight for `s` to `out` (a call to a method with
    /// outputs becomes the call followed by its result copies).
    fn gen_stmt(
        &mut self,
        prog: &ObcProgram<ClightOps>,
        s: &OStmt,
        out: &mut Block,
    ) -> Result<(), ClightError> {
        match s {
            OStmt::Assign(x, e) => {
                let ty = self.src.ty(*e);
                let rhs = self.gen_expr(*e);
                let s = self.gen_write(*x, ty, rhs);
                out.push(s);
            }
            OStmt::AssignSt(x, e) => {
                let field = self.state_field(*x, self.src.ty(*e));
                let field = self.exprs.push(field);
                let rhs = self.gen_expr(*e);
                out.push(Stmt::Assign(field, rhs))
            }
            OStmt::If(c, t, f) => {
                let s = Stmt::If(
                    self.gen_expr(*c),
                    self.gen_block(prog, t)?,
                    self.gen_block(prog, f)?,
                );
                out.push(s);
            }
            OStmt::Call {
                results,
                class: k,
                instance: i,
                method: m,
                args,
            } => {
                let callee = &prog.classes[k.index()];
                let j = callee.methods.iter().position(|x| x.name == *m);
                let j = j.ok_or_else(|| {
                    ClightError::Malformed(format!("unknown method {}.{m}", callee.name))
                })?;
                let cm: &Method<ClightOps> = &callee.methods[j];
                let fname = self.class_fns[k.index()] + j;
                let k = callee.name;
                let self_arg =
                    Expr::AddrOf(Place::DerefField(self_ident(), self.class.name, *i, k));
                let mut cargs = Vec::with_capacity(args.len() + 2);
                cargs.push(self.exprs.push(self_arg));
                match cm.outputs.len() {
                    0 => {
                        for &a in args {
                            cargs.push(self.gen_expr(a));
                        }
                        out.push(Stmt::Call(None, fname, cargs));
                    }
                    1 => {
                        for &a in args {
                            cargs.push(self.gen_expr(a));
                        }
                        let (_, oty) = &cm.outputs[0];
                        self.fresh += 1;
                        let aux = Ident::from_fmt(format_args!("res${i}${}", self.fresh));
                        self.extra_temps.push((aux, CType::Scalar(*oty)));
                        out.push(Stmt::Call(Some(aux), fname, cargs));
                        let res = self.exprs.push(Expr::Temp(aux, CType::Scalar(*oty)));
                        let s = self.gen_write(results[0], *oty, res);
                        out.push(s);
                    }
                    _ => {
                        let ostruct = out_struct_name(k, *m);
                        self.fresh += 1;
                        let ovar = Ident::from_fmt(format_args!("out${i}${m}"));
                        if !self.extra_vars.iter().any(|(v, _)| *v == ovar) {
                            self.extra_vars.push((ovar, CType::Struct(ostruct)));
                        }
                        cargs.push(self.exprs.push(Expr::AddrOf(Place::Var(ovar, ostruct))));
                        for &a in args {
                            cargs.push(self.gen_expr(a));
                        }
                        out.push(Stmt::Call(None, fname, cargs));
                        for ((o, oty), r) in cm.outputs.iter().zip(results) {
                            let field = Expr::Field(ovar, ostruct, *o, CType::Scalar(*oty));
                            let field = self.exprs.push(field);
                            let s = self.gen_write(*r, *oty, field);
                            out.push(s);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Generates the function of method `m` of `class`; `stack` is the
/// expression loop's scratch, handed from method to method.
fn gen_method(
    prog: &ObcProgram<ClightOps>,
    class_fns: &[usize],
    class: &Class<ClightOps>,
    m: &Method<ClightOps>,
    stack: &mut Vec<ExprId>,
) -> Result<Function, ClightError> {
    let out_struct = (m.outputs.len() >= 2).then(|| out_struct_name(class.name, m.name));
    let mut ctx = MCtx {
        class,
        src: &m.exprs,
        // Each Obc node becomes one Clight node; calls and writes to
        // outputs add a few leaves.
        exprs: Exprs::with_capacity(m.exprs.len() + m.body.len()),
        stack: std::mem::take(stack),
        class_fns,
        out_struct,
        // Only outputs kept in an output struct are looked up.
        outputs: match out_struct {
            Some(_) => m.outputs.iter().map(|(x, _)| *x).collect(),
            None => IdentSet::default(),
        },
        extra_vars: Vec::new(),
        extra_temps: Vec::new(),
        fresh: 0,
    };
    let body = ctx.gen_block(prog, &m.body);
    *stack = std::mem::take(&mut ctx.stack);
    let mut body = body?;

    let mut params = vec![(self_ident(), CType::ptr_to_struct(class.name))];
    if let Some(out_struct) = out_struct {
        params.push((out_ident(), CType::ptr_to_struct(out_struct)));
    }
    params.extend(m.inputs.iter().map(|(x, t)| (*x, CType::Scalar(*t))));

    let mut temps: Vec<(Ident, CType)> = m
        .locals
        .iter()
        .map(|(x, t)| (*x, CType::Scalar(*t)))
        .collect();
    temps.extend_from_slice(&ctx.extra_temps);

    let ret = if m.outputs.len() == 1 {
        let (o, oty) = &m.outputs[0];
        temps.push((*o, CType::Scalar(*oty)));
        let o = ctx.exprs.push(Expr::Temp(*o, CType::Scalar(*oty)));
        body.push(Stmt::Return(Some(o)));
        CType::Scalar(*oty)
    } else {
        CType::Void
    };

    Ok(Function {
        name: method_fn_name(class.name, m.name),
        params,
        vars: ctx.extra_vars,
        temps,
        ret,
        body,
        exprs: ctx.exprs,
    })
}

/// Pops an operand the generation loop pushed before its parent.
fn pop(stack: &mut Vec<ExprId>) -> ExprId {
    stack
        .pop()
        .expect("operands are generated before their parent")
}

/// Appends the output structs of `class`'s methods, then its own struct.
fn gen_composites(
    prog: &ObcProgram<ClightOps>,
    class: &Class<ClightOps>,
    out: &mut Vec<Composite>,
) {
    for m in &class.methods {
        if m.outputs.len() >= 2 {
            out.push(Composite {
                name: out_struct_name(class.name, m.name),
                fields: m
                    .outputs
                    .iter()
                    .map(|(x, t)| (*x, CType::Scalar(*t)))
                    .collect(),
            });
        }
    }
    out.push(Composite {
        name: class.name,
        fields: class
            .memories
            .iter()
            .map(|(x, t)| (*x, CType::Scalar(*t)))
            .chain(
                class
                    .instances
                    .iter()
                    .map(|(i, k)| (*i, CType::Struct(prog.classes[k.index()].name))),
            )
            .collect(),
    });
}

/// The generated `main` plus its volatile input and output declarations.
type GeneratedMain = (Function, Vec<(Ident, CTy)>, Vec<(Ident, CTy)>);

/// Generates the simulation `main` for the root class, whose methods start
/// at function `first_fn`: `reset` once, then an infinite loop of
/// volatile input loads, one `step`, and volatile output stores.
fn gen_main(root: &Class<ClightOps>, first_fn: usize) -> Result<GeneratedMain, ClightError> {
    let method = |j: usize, name: Ident| {
        root.methods
            .get(j)
            .filter(|m| m.name == name)
            .ok_or_else(|| ClightError::Malformed(format!("class {} has no {name}", root.name)))
    };
    let step = method(STEP, step_name())?;
    method(RESET, reset_name())?;
    let self_var = self_ident();
    let mut vols_in: Vec<(Ident, CTy)> = Vec::new();
    let mut vols_out: Vec<(Ident, CTy)> = Vec::new();
    let mut temps: Vec<(Ident, CType)> = Vec::new();
    let mut vars: Vec<(Ident, CType)> = vec![(self_var, CType::Struct(root.name))];
    let mut loop_body: Vec<Stmt> = Vec::new();
    let mut exprs = Exprs::new();
    let temp = |exprs: &mut Exprs, x: Ident, t: CTy| exprs.push(Expr::Temp(x, CType::Scalar(t)));

    // Volatile input loads. A node without inputs gets a pacing tick so
    // the simulated loop still consumes one volatile input per instant.
    if step.inputs.is_empty() {
        let tick = Ident::new("tick");
        vols_in.push((vol_in_name(tick), CTy::Bool));
        temps.push((tick, CType::Scalar(CTy::Bool)));
        loop_body.push(Stmt::VolLoad(tick, vol_in_name(tick), CTy::Bool));
    }
    for (x, ty) in &step.inputs {
        vols_in.push((vol_in_name(*x), *ty));
        temps.push((*x, CType::Scalar(*ty)));
        loop_body.push(Stmt::VolLoad(*x, vol_in_name(*x), *ty));
    }

    // The step call.
    let fname = first_fn + STEP;
    let self_place = Place::Var(self_var, root.name);
    let mut args = vec![exprs.push(Expr::AddrOf(self_place))];
    match step.outputs.len() {
        0 => {
            for (x, t) in &step.inputs {
                args.push(temp(&mut exprs, *x, *t));
            }
            loop_body.push(Stmt::Call(None, fname, args));
        }
        1 => {
            for (x, t) in &step.inputs {
                args.push(temp(&mut exprs, *x, *t));
            }
            let (o, oty) = &step.outputs[0];
            let res = Ident::new("res");
            temps.push((res, CType::Scalar(*oty)));
            loop_body.push(Stmt::Call(Some(res), fname, args));
            vols_out.push((vol_out_name(*o), *oty));
            let res = temp(&mut exprs, res, *oty);
            loop_body.push(Stmt::VolStore(vol_out_name(*o), res));
        }
        _ => {
            let ostruct = out_struct_name(root.name, step_name());
            let ovar = out_ident();
            vars.push((ovar, CType::Struct(ostruct)));
            args.push(exprs.push(Expr::AddrOf(Place::Var(ovar, ostruct))));
            for (x, t) in &step.inputs {
                args.push(temp(&mut exprs, *x, *t));
            }
            loop_body.push(Stmt::Call(None, fname, args));
            for (o, oty) in &step.outputs {
                vols_out.push((vol_out_name(*o), *oty));
                let field = Expr::Field(ovar, ostruct, *o, CType::Scalar(*oty));
                loop_body.push(Stmt::VolStore(vol_out_name(*o), exprs.push(field)));
            }
        }
    }

    let this = exprs.push(Expr::AddrOf(self_place));
    let body = vec![
        Stmt::Call(None, first_fn + RESET, vec![this]),
        Stmt::Loop(loop_body),
    ];
    Ok((
        Function {
            name: Ident::new("main"),
            params: vec![],
            vars,
            temps,
            ret: CType::Void,
            body,
            exprs,
        },
        vols_in,
        vols_out,
    ))
}

/// Generates a Clight program from an Obc program, with a simulation
/// `main` for the class `root`.
///
/// # Errors
///
/// [`ClightError::Malformed`] on an unknown root, a root without `step`
/// and `reset` in their [`STEP`]/[`RESET`] places, or a call to an
/// unknown method (which the Obc type checker rules out).
pub fn generate(obc: &ObcProgram<ClightOps>, root: NodeId) -> Result<Program, ClightError> {
    let mut composites = Vec::new();
    let mut functions = Vec::new();
    // Callees come first, so a call's class already has its entry.
    let mut class_fns = Vec::with_capacity(obc.classes.len());
    let mut stack = Vec::new();
    for class in &obc.classes {
        class_fns.push(functions.len());
        gen_composites(obc, class, &mut composites);
        for m in &class.methods {
            functions.push(gen_method(obc, &class_fns, class, m, &mut stack)?);
        }
    }
    let root_class = obc
        .classes
        .get(root.index())
        .ok_or_else(|| ClightError::Malformed(format!("unknown root class {root}")))?;
    let (main, vols_in, vols_out) = gen_main(root_class, class_fns[root.index()])?;
    functions.push(main);
    Ok(Program {
        composites,
        functions,
        class_fns,
        volatiles_in: vols_in,
        volatiles_out: vols_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Event, Machine, RVal};
    use velus_obc::ast::{
        Block as OBlock, Class, Method, ObcExpr, ObcExprs, ObcProgram, Stmt as OStmt,
    };
    use velus_ops::{CBinOp, CConst, CVal};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    /// class acc { memory c: int;
    ///   (y: int) step(x: int) { y := state(c) + x; state(c) := y }
    ///   () reset() { state(c) := 0 } }
    fn acc_class() -> ObcProgram<ClightOps> {
        let mut ex = ObcExprs::new();
        let c = ex.push(ObcExpr::State(id("c"), CTy::I32));
        let x = ex.push(ObcExpr::Var(id("x"), CTy::I32));
        let sum = ex.push(ObcExpr::Binop(CBinOp::Add, c, x, CTy::I32));
        let y = ex.push(ObcExpr::Var(id("y"), CTy::I32));
        let mut reset_ex = ObcExprs::new();
        let zero = reset_ex.push(ObcExpr::Const(CConst::int(0)));
        ObcProgram {
            classes: vec![Class {
                name: id("acc"),
                memories: vec![(id("c"), CTy::I32)],
                instances: vec![],
                methods: vec![
                    Method {
                        name: step_name(),
                        inputs: vec![(id("x"), CTy::I32)],
                        outputs: vec![(id("y"), CTy::I32)],
                        locals: vec![],
                        body: OBlock(vec![
                            OStmt::Assign(id("y"), sum),
                            OStmt::AssignSt(id("c"), y),
                        ]),
                        exprs: ex,
                    },
                    Method {
                        name: reset_name(),
                        inputs: vec![],
                        outputs: vec![],
                        locals: vec![],
                        body: OStmt::AssignSt(id("c"), zero).into(),
                        exprs: reset_ex,
                    },
                ],
            }],
        }
    }

    #[test]
    fn generated_main_produces_the_expected_trace() {
        let obc = acc_class();
        let prog = generate(&obc, NodeId::new(0)).unwrap();
        let mut m = Machine::new(&prog).unwrap();
        m.push_inputs(
            vol_in_name(id("x")),
            [CVal::int(1), CVal::int(2), CVal::int(3)],
        );
        let trace = m.run_main().unwrap();
        let outs: Vec<CVal> = trace
            .iter()
            .filter_map(|e| match e {
                Event::Store(_, v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(outs, vec![CVal::int(1), CVal::int(3), CVal::int(6)]);
    }

    #[test]
    fn single_output_step_returns_by_value() {
        let obc = acc_class();
        let prog = generate(&obc, NodeId::new(0)).unwrap();
        let f = &prog.functions[prog.method_fn(NodeId::new(0), STEP).unwrap()];
        assert_eq!(f.name, method_fn_name(id("acc"), step_name()));
        assert_eq!(f.ret, CType::Scalar(CTy::I32));
        assert_eq!(f.params.len(), 2); // self + x, no out pointer
    }

    #[test]
    fn driving_step_directly() {
        let obc = acc_class();
        let prog = generate(&obc, NodeId::new(0)).unwrap();
        let mut m = Machine::new(&prog).unwrap();
        let b = m.alloc_struct(id("acc")).unwrap();
        let acc = NodeId::new(0);
        m.call(prog.method_fn(acc, RESET).unwrap(), &[RVal::Ptr(b, 0)])
            .unwrap();
        let r = m
            .call(
                prog.method_fn(acc, STEP).unwrap(),
                &[RVal::Ptr(b, 0), RVal::Scalar(CVal::int(5))],
            )
            .unwrap();
        assert_eq!(r, Some(RVal::Scalar(CVal::int(5))));
    }
}
