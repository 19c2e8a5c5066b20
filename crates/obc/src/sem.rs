//! Big-step semantics of Obc (§3.1).
//!
//! Statements relate pairs of memory environments: a *local* memory `env`
//! (a stack frame mapping variable names to values) and a *global* memory
//! `mem` — the recursive tree of §3.1 with a cell per `fby` and a
//! sub-memory per instance. A method call executes the callee's body
//! against the sub-memory retrieved from `mem.instances` and a fresh local
//! environment binding the inputs, then copies the outputs back.
//!
//! Obc programs cannot diverge by construction (no loops); the only
//! failures are unbound reads and undefined operator applications, which
//! the paper rules out via scheduling, `MemCorres`, and the existence of
//! the dataflow semantics. Here they surface as [`ObcError`]s.

use std::collections::HashMap;

use velus_common::{BuildIdentHasher, Ident, IdentMap, IdentSet};
use velus_nlustre::memory::Memory;
use velus_ops::Ops;

use crate::ast::{Block, Method, ObcExpr, ObcProgram, Stmt};
use crate::ObcError;

/// A local environment (stack frame).
pub type VEnv<O> = IdentMap<<O as Ops>::Val>;

/// Evaluates an expression against a global memory and a local
/// environment.
///
/// # Errors
///
/// Unbound variables/state cells and undefined operator applications.
pub fn eval_expr<O: Ops>(
    mem: &Memory<O::Val>,
    env: &VEnv<O>,
    e: &ObcExpr<O>,
) -> Result<O::Val, ObcError> {
    match e {
        ObcExpr::Var(x, _) => env.get(x).cloned().ok_or(ObcError::UnboundVariable(*x)),
        ObcExpr::State(x, _) => mem.value(*x).cloned().ok_or(ObcError::UnboundState(*x)),
        ObcExpr::Const(c) => Ok(O::sem_const(c)),
        ObcExpr::Unop(op, e1, _) => {
            let v = eval_expr::<O>(mem, env, e1)?;
            O::sem_unop(*op, &v, &e1.ty())
                .ok_or_else(|| ObcError::UndefinedOperation(format!("{op} {v}")))
        }
        ObcExpr::Binop(op, e1, e2, _) => {
            let v1 = eval_expr::<O>(mem, env, e1)?;
            let v2 = eval_expr::<O>(mem, env, e2)?;
            O::sem_binop(*op, &v1, &e1.ty(), &v2, &e2.ty())
                .ok_or_else(|| ObcError::UndefinedOperation(format!("{v1} {op} {v2}")))
        }
    }
}

/// The Obc interpreter of one program.
///
/// Methods are resolved by class and method name once, at construction.
/// Calls in progress keep their argument values on one stack, and a
/// callee's environment comes from a pool of idle ones that returns
/// cleared maps, so repeated calls allocate only when a map first grows.
pub struct Interp<'p, O: Ops> {
    prog: &'p ObcProgram<O>,
    /// The method of each (class, method) pair, as [`ObcProgram::class`]
    /// and [`crate::ast::Class::method`] find it.
    methods: HashMap<(Ident, Ident), &'p Method<O>, BuildIdentHasher>,
    /// Argument values of the calls being set up.
    args: Vec<O::Val>,
    /// Idle environments, taken by a call and given back on return.
    pool: Vec<VEnv<O>>,
}

impl<'p, O: Ops> Interp<'p, O> {
    /// An interpreter for `prog`.
    pub fn new(prog: &'p ObcProgram<O>) -> Interp<'p, O> {
        let mut methods = HashMap::default();
        let mut seen = IdentSet::default();
        for cls in &prog.classes {
            if seen.insert(cls.name) {
                for m in &cls.methods {
                    methods.entry((cls.name, m.name)).or_insert(m);
                }
            }
        }
        Interp {
            prog,
            methods,
            args: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Executes a block, statement by statement (see
    /// [`Interp::exec_stmt`]).
    ///
    /// # Errors
    ///
    /// The first failing statement's error.
    pub fn exec_block(
        &mut self,
        mem: &mut Memory<O::Val>,
        env: &mut VEnv<O>,
        s: &Block<O>,
    ) -> Result<(), ObcError> {
        s.iter().try_for_each(|s| self.exec_stmt(mem, env, s))
    }

    /// Executes a statement, updating `mem` and `env` in place (the
    /// big-step relation `mem, env ⊢st s ⇓ mem', env'` in
    /// destination-passing style).
    ///
    /// # Errors
    ///
    /// See [`eval_expr`]; method calls add unknown-class/method and arity
    /// errors.
    pub fn exec_stmt(
        &mut self,
        mem: &mut Memory<O::Val>,
        env: &mut VEnv<O>,
        s: &Stmt<O>,
    ) -> Result<(), ObcError> {
        match s {
            Stmt::Assign(x, e) => {
                let v = eval_expr::<O>(mem, env, e)?;
                env.insert(*x, v);
                Ok(())
            }
            Stmt::AssignSt(x, e) => {
                let v = eval_expr::<O>(mem, env, e)?;
                mem.set_value(*x, v);
                Ok(())
            }
            Stmt::If(c, t, f) => {
                let v = eval_expr::<O>(mem, env, c)?;
                match O::as_bool(&v) {
                    Some(true) => self.exec_block(mem, env, t),
                    Some(false) => self.exec_block(mem, env, f),
                    None => Err(ObcError::TypeError(format!("guard evaluated to {v}"))),
                }
            }
            Stmt::Call {
                results,
                class,
                instance,
                method,
                args,
            } => {
                let base = self.args.len();
                for a in args {
                    self.args.push(eval_expr::<O>(mem, env, a)?);
                }
                let sub = mem.instance_mut(*instance);
                let (callee_env, m) = self.invoke(*class, sub, *method, base)?;
                if m.outputs.len() != results.len() {
                    return Err(ObcError::ArityMismatch(format!(
                        "call to {class}.{method}: {} results bound to {} variables",
                        m.outputs.len(),
                        results.len()
                    )));
                }
                for (x, (o, _)) in results.iter().zip(&m.outputs) {
                    env.insert(*x, callee_env[o].clone());
                }
                self.pool.push(callee_env);
                Ok(())
            }
        }
    }

    /// Invokes `class.method` against an instance memory and replaces the
    /// contents of `outs` with the output values. This is the semantic
    /// judgment for method calls, also used by the top-level driver
    /// (`reset()` then repeated `step(inputs)`).
    ///
    /// # Errors
    ///
    /// See [`Interp::exec_stmt`].
    pub fn call(
        &mut self,
        class: Ident,
        mem: &mut Memory<O::Val>,
        method: Ident,
        args: &[O::Val],
        outs: &mut Vec<O::Val>,
    ) -> Result<(), ObcError> {
        let base = self.args.len();
        self.args.extend_from_slice(args);
        let (env, m) = self.invoke(class, mem, method, base)?;
        outs.clear();
        outs.extend(m.outputs.iter().map(|(x, _)| env[x].clone()));
        self.pool.push(env);
        Ok(())
    }

    /// Runs `class.method` on the arguments `self.args[base..]`, which it
    /// pops, and returns the callee's final environment, every output
    /// bound, for the caller to read and give back to the pool. A failed
    /// call may leave arguments on the stack; later calls only use what
    /// lies above their own base.
    fn invoke(
        &mut self,
        class: Ident,
        mem: &mut Memory<O::Val>,
        method: Ident,
        base: usize,
    ) -> Result<(VEnv<O>, &'p Method<O>), ObcError> {
        let Some(&m) = self.methods.get(&(class, method)) else {
            return Err(match self.prog.class(class) {
                None => ObcError::UnknownClass(class),
                Some(_) => ObcError::UnknownMethod(class, method),
            });
        };
        let given = self.args.len() - base;
        if given != m.inputs.len() {
            return Err(ObcError::ArityMismatch(format!(
                "{class}.{method}: {given} arguments for {} parameters",
                m.inputs.len()
            )));
        }
        let mut env = self.pool.pop().unwrap_or_default();
        env.clear();
        for ((x, ty), v) in m.inputs.iter().zip(self.args.drain(base..)) {
            if !O::well_typed(&v, ty) {
                return Err(ObcError::TypeError(format!(
                    "{class}.{method}: argument {v} for {x} is not of type {ty}"
                )));
            }
            env.insert(*x, v);
        }
        self.exec_block(mem, &mut env, &m.body)?;
        if let Some((x, _)) = m.outputs.iter().find(|(x, _)| !env.contains_key(x)) {
            return Err(ObcError::UnboundVariable(*x));
        }
        Ok((env, m))
    }
}

/// A convenience driver for a translated class: `reset()` once, then
/// `step(inputs[n])` for each instant, collecting outputs.
///
/// Instants where `inputs[n]` is `None` model an inactive base clock
/// (absent inputs): the step method is not called and the outputs are
/// absent, matching the dataflow model where a node does nothing when its
/// inputs are absent.
///
/// # Errors
///
/// See [`Interp::call`].
pub fn run_class<O: Ops>(
    prog: &ObcProgram<O>,
    class: Ident,
    inputs: &[Option<Vec<O::Val>>],
) -> Result<Vec<Option<Vec<O::Val>>>, ObcError> {
    let mut interp = Interp::new(prog);
    let mut mem = Memory::new();
    let mut o = Vec::new();
    interp.call(class, &mut mem, crate::ast::reset_name(), &[], &mut o)?;
    let mut outs = Vec::with_capacity(inputs.len());
    for ins in inputs {
        match ins {
            Some(vals) => {
                interp.call(class, &mut mem, crate::ast::step_name(), vals, &mut o)?;
                outs.push(Some(o.clone()));
            }
            None => outs.push(None),
        }
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{reset_name, step_name, Class};
    use velus_ops::{CBinOp, CConst, CTy, CVal, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    /// class counter { memory c: int;
    ///   (n: int) step(inc: int) { n := state(c) + inc; state(c) := n }
    ///   () reset() { state(c) := 0 } }
    fn counter_class() -> ObcProgram<ClightOps> {
        let n = id("n");
        let c = id("c");
        let inc = id("inc");
        let step = Method {
            name: step_name(),
            inputs: vec![(inc, CTy::I32)],
            outputs: vec![(n, CTy::I32)],
            locals: vec![],
            body: Block(vec![
                Stmt::Assign(
                    n,
                    ObcExpr::Binop(
                        CBinOp::Add,
                        Box::new(ObcExpr::State(c, CTy::I32)),
                        Box::new(ObcExpr::Var(inc, CTy::I32)),
                        CTy::I32,
                    ),
                ),
                Stmt::AssignSt(c, ObcExpr::Var(n, CTy::I32)),
            ]),
        };
        let reset = Method {
            name: reset_name(),
            inputs: vec![],
            outputs: vec![],
            locals: vec![],
            body: Stmt::AssignSt(c, ObcExpr::Const(CConst::int(0))).into(),
        };
        ObcProgram {
            classes: vec![Class {
                name: id("counter"),
                memories: vec![(c, CTy::I32)],
                instances: vec![],
                methods: vec![step, reset],
            }],
        }
    }

    #[test]
    fn reset_then_steps() {
        let prog = counter_class();
        let inputs: Vec<Option<Vec<CVal>>> = vec![
            Some(vec![CVal::int(1)]),
            Some(vec![CVal::int(2)]),
            Some(vec![CVal::int(3)]),
        ];
        let outs = run_class(&prog, id("counter"), &inputs).unwrap();
        let vals: Vec<i32> = outs
            .iter()
            .map(|o| match o.as_ref().unwrap()[0] {
                CVal::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 3, 6]);
    }

    #[test]
    fn absent_instants_freeze_the_state() {
        let prog = counter_class();
        let inputs: Vec<Option<Vec<CVal>>> =
            vec![Some(vec![CVal::int(5)]), None, Some(vec![CVal::int(5)])];
        let outs = run_class(&prog, id("counter"), &inputs).unwrap();
        assert!(outs[1].is_none());
        assert_eq!(outs[2].as_ref().unwrap()[0], CVal::int(10));
    }

    #[test]
    fn unbound_reads_are_reported() {
        let prog = counter_class();
        let mut mem = Memory::new();
        // step before reset: state(c) is unbound.
        let err = Interp::new(&prog)
            .call(
                id("counter"),
                &mut mem,
                step_name(),
                &[CVal::int(1)],
                &mut Vec::new(),
            )
            .unwrap_err();
        assert_eq!(err, ObcError::UnboundState(id("c")));
    }

    #[test]
    fn nested_instances_update_their_own_memory() {
        // class pair { instance a: counter; instance b: counter;
        //   (x: int, y: int) step(i: int) { x := a.step(i); y := b.step(x) } }
        let mut prog = counter_class();
        let x = id("x");
        let y = id("y");
        let i = id("i");
        prog.classes.push(Class {
            name: id("pair"),
            memories: vec![],
            instances: vec![(id("a"), id("counter")), (id("b"), id("counter"))],
            methods: vec![
                Method {
                    name: step_name(),
                    inputs: vec![(i, CTy::I32)],
                    outputs: vec![(x, CTy::I32), (y, CTy::I32)],
                    locals: vec![],
                    body: Block(vec![
                        Stmt::Call {
                            results: vec![x],
                            class: id("counter"),
                            instance: id("a"),
                            method: step_name(),
                            args: vec![ObcExpr::Var(i, CTy::I32)],
                        },
                        Stmt::Call {
                            results: vec![y],
                            class: id("counter"),
                            instance: id("b"),
                            method: step_name(),
                            args: vec![ObcExpr::Var(x, CTy::I32)],
                        },
                    ]),
                },
                Method {
                    name: reset_name(),
                    inputs: vec![],
                    outputs: vec![],
                    locals: vec![],
                    body: Block(vec![
                        Stmt::Call {
                            results: vec![],
                            class: id("counter"),
                            instance: id("a"),
                            method: reset_name(),
                            args: vec![],
                        },
                        Stmt::Call {
                            results: vec![],
                            class: id("counter"),
                            instance: id("b"),
                            method: reset_name(),
                            args: vec![],
                        },
                    ]),
                },
            ],
        });
        let inputs: Vec<Option<Vec<CVal>>> = (0..3).map(|_| Some(vec![CVal::int(1)])).collect();
        let outs = run_class(&prog, id("pair"), &inputs).unwrap();
        let last = outs[2].as_ref().unwrap();
        // a counts 1,2,3; b accumulates a: 1, 3, 6.
        assert_eq!(last[0], CVal::int(3));
        assert_eq!(last[1], CVal::int(6));
    }

    #[test]
    fn type_checked_arguments() {
        let prog = counter_class();
        let mut mem = Memory::new();
        let mut interp = Interp::new(&prog);
        let mut outs = Vec::new();
        interp
            .call(id("counter"), &mut mem, reset_name(), &[], &mut outs)
            .unwrap();
        let err = interp
            .call(
                id("counter"),
                &mut mem,
                step_name(),
                &[CVal::float(1.0)],
                &mut outs,
            )
            .unwrap_err();
        assert!(matches!(err, ObcError::TypeError(_)));
        // The interpreter stays usable after an error.
        interp
            .call(
                id("counter"),
                &mut mem,
                step_name(),
                &[CVal::int(4)],
                &mut outs,
            )
            .unwrap();
        assert_eq!(outs, [CVal::int(4)]);
    }
}
