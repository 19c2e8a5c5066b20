//! A big-step interpreter for the Clight subset.
//!
//! This is the substitute for CompCert's verified back end: it defines
//! the observable behaviour of generated programs. The judgment
//! `ge, e ⊢stmt le, m, s ⇒ le', m', oc` of §4 becomes `exec_stmt`
//! mutating a frame (temporaries + addressable locals) and the block
//! memory, returning an outcome (normal completion, `break`, or
//! `return`).
//!
//! Volatile loads and stores produce the event trace
//! `⟨VLoad(xs(n)) · VStore(ys(n))⟩` that the end-to-end theorem compares
//! against the dataflow semantics; a volatile load beyond the supplied
//! input prefix terminates the simulation loop (finite-prefix check of
//! the paper's infinite bisimulation).
//!
//! A call neither searches for its function nor allocates: functions are
//! indexed by name once, in [`Machine::new`]; argument values go on one
//! stack; frames come from a pool of idle ones, cleared but keeping
//! their capacity; and the locals' blocks are freed in reverse, so the
//! block memory reuses their bytes on the next call.

use std::collections::VecDeque;

use velus_common::{Ident, IdentMap};
use velus_ops::{CTy, CVal, ClightOps, Ops};

use crate::ast::{Expr, Function, Program, Stmt};
use crate::ctypes::{CType, LayoutEnv};
use crate::memory::{BlockId, Mem};
use crate::ClightError;

/// A run-time value: a scalar or a pointer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RVal {
    /// A scalar machine value.
    Scalar(CVal),
    /// A pointer `(block, offset)`.
    Ptr(BlockId, u32),
}

impl RVal {
    /// Extracts the scalar, if any.
    pub fn scalar(&self) -> Option<&CVal> {
        match self {
            RVal::Scalar(v) => Some(v),
            RVal::Ptr(..) => None,
        }
    }
}

/// An observable volatile event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A volatile load of an input global.
    Load(Ident, CVal),
    /// A volatile store to an output global.
    Store(Ident, CVal),
}

/// Statement outcome.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Normal,
    Return(Option<RVal>),
}

#[derive(Default)]
struct Frame {
    temps: IdentMap<RVal>,
    /// Addressable locals: their block and scalar type (`None` for a
    /// struct).
    vars: IdentMap<(BlockId, Option<CTy>)>,
}

/// The interpreter state for one program.
pub struct Machine<'p> {
    prog: &'p Program,
    /// Struct layouts (public: the separation assertions need them).
    pub layouts: LayoutEnv,
    /// The block memory (public for assertion checking).
    pub mem: Mem,
    vol_inputs: IdentMap<VecDeque<CVal>>,
    /// The volatile event trace accumulated so far.
    pub trace: Vec<Event>,
    /// Call depth guard (generated programs are non-recursive; this
    /// catches malformed inputs instead of overflowing the stack).
    depth: usize,
    /// The index of each function, as [`Program::function`] finds it.
    funcs: IdentMap<usize>,
    /// Argument values of the calls being set up.
    args: Vec<RVal>,
    /// Idle frames, taken by a call and given back on return.
    frames: Vec<Frame>,
    /// The blocks of the addressable locals of the calls in progress.
    locals: Vec<BlockId>,
}

const MAX_DEPTH: usize = 256;

impl<'p> Machine<'p> {
    /// Creates a machine for `prog`, computing struct layouts.
    ///
    /// # Errors
    ///
    /// Layout errors (unknown struct in a field).
    pub fn new(prog: &'p Program) -> Result<Machine<'p>, ClightError> {
        let layouts = LayoutEnv::new(prog.composites.clone())?;
        let mut funcs = IdentMap::default();
        for (i, f) in prog.functions.iter().enumerate() {
            funcs.entry(f.name).or_insert(i);
        }
        Ok(Machine {
            prog,
            layouts,
            mem: Mem::new(),
            vol_inputs: IdentMap::default(),
            trace: Vec::new(),
            depth: 0,
            funcs,
            args: Vec::new(),
            frames: Vec::new(),
            locals: Vec::new(),
        })
    }

    /// Queues input values for the volatile input global `g`.
    pub fn push_inputs(&mut self, g: Ident, values: impl IntoIterator<Item = CVal>) {
        self.vol_inputs.entry(g).or_default().extend(values);
    }

    /// Allocates a block holding one value of struct `s`.
    ///
    /// # Errors
    ///
    /// Unknown struct.
    pub fn alloc_struct(&mut self, s: Ident) -> Result<BlockId, ClightError> {
        let size = self.layouts.layout(s)?.size;
        Ok(self.mem.alloc(size))
    }

    // ---- lvalues and rvalues -------------------------------------------

    /// The location `(block, offset)` an lvalue denotes, with its scalar
    /// type (`None` for a struct).
    fn lval(&mut self, fr: &Frame, e: &Expr) -> Result<(BlockId, u32, Option<CTy>), ClightError> {
        match e {
            Expr::Var(x, _) => {
                let (b, ty) = *fr
                    .vars
                    .get(x)
                    .ok_or_else(|| ClightError::Malformed(format!("unknown variable {x}")))?;
                Ok((b, 0, ty))
            }
            Expr::Field(a, s, f, ty) => {
                let (b, o, _) = self.lval(fr, a)?;
                let off = self.layouts.field_offset(*s, *f)?;
                Ok((b, o + off, ty.as_scalar()))
            }
            Expr::DerefField(p, s, f, ty) => {
                let pv = self.rval(fr, p)?;
                match pv {
                    RVal::Ptr(b, o) => {
                        let off = self.layouts.field_offset(*s, *f)?;
                        Ok((b, o + off, ty.as_scalar()))
                    }
                    RVal::Scalar(v) => Err(ClightError::ValueError(format!(
                        "dereference of non-pointer {v}"
                    ))),
                }
            }
            other => Err(ClightError::Malformed(format!(
                "expression is not an lvalue: {other:?}"
            ))),
        }
    }

    fn rval(&mut self, fr: &Frame, e: &Expr) -> Result<RVal, ClightError> {
        match e {
            Expr::Const(v, _) => Ok(RVal::Scalar(*v)),
            Expr::Temp(x, _) => fr
                .temps
                .get(x)
                .copied()
                .ok_or_else(|| ClightError::Uninitialized(format!("temporary {x}"))),
            Expr::AddrOf(a) => {
                let (b, o, _) = self.lval(fr, a)?;
                Ok(RVal::Ptr(b, o))
            }
            Expr::Var(..) | Expr::Field(..) | Expr::DerefField(..) => {
                let (b, o, ty) = self.lval(fr, e)?;
                match ty {
                    Some(sc) => Ok(RVal::Scalar(self.mem.load(sc, b, o)?)),
                    None => Err(ClightError::ValueError(
                        "loading a non-scalar rvalue".to_owned(),
                    )),
                }
            }
            Expr::Unop(op, e1, _) => {
                let v = self.rval(fr, e1)?;
                let sc = e1.scalar_ty().ok_or_else(|| {
                    ClightError::ValueError("unary operator on non-scalar".to_owned())
                })?;
                match v {
                    RVal::Scalar(v) => ClightOps::sem_unop(*op, &v, &sc)
                        .map(RVal::Scalar)
                        .ok_or_else(|| ClightError::UndefinedOperation(format!("{op} {v}"))),
                    RVal::Ptr(..) => Err(ClightError::ValueError(
                        "unary operator on pointer".to_owned(),
                    )),
                }
            }
            Expr::Binop(op, e1, e2, _) => {
                let v1 = self.rval(fr, e1)?;
                let v2 = self.rval(fr, e2)?;
                let t1 = e1.scalar_ty();
                let t2 = e2.scalar_ty();
                match (v1, v2, t1, t2) {
                    (RVal::Scalar(a), RVal::Scalar(b), Some(ta), Some(tb)) => {
                        ClightOps::sem_binop(*op, &a, &ta, &b, &tb)
                            .map(RVal::Scalar)
                            .ok_or_else(|| ClightError::UndefinedOperation(format!("{a} {op} {b}")))
                    }
                    _ => Err(ClightError::ValueError(
                        "binary operator on non-scalars".to_owned(),
                    )),
                }
            }
        }
    }

    // ---- statements ------------------------------------------------------

    /// Executes a block: statement by statement until one returns.
    fn exec_block(&mut self, fr: &mut Frame, b: &[Stmt]) -> Result<Outcome, ClightError> {
        for s in b {
            if let ret @ Outcome::Return(_) = self.exec(fr, s)? {
                return Ok(ret);
            }
        }
        Ok(Outcome::Normal)
    }

    fn exec(&mut self, fr: &mut Frame, s: &Stmt) -> Result<Outcome, ClightError> {
        match s {
            Stmt::Assign(lv, e) => {
                let v = self.rval(fr, e)?;
                let (b, o, ty) = self.lval(fr, lv)?;
                let sc = ty.ok_or_else(|| {
                    ClightError::ValueError("assignment to non-scalar location".to_owned())
                })?;
                match v {
                    RVal::Scalar(v) => {
                        self.mem.store(sc, b, o, &v)?;
                        Ok(Outcome::Normal)
                    }
                    RVal::Ptr(..) => Err(ClightError::ValueError(
                        "storing a pointer into a scalar field".to_owned(),
                    )),
                }
            }
            Stmt::Set(x, e) => {
                let v = self.rval(fr, e)?;
                fr.temps.insert(*x, v);
                Ok(Outcome::Normal)
            }
            Stmt::If(c, t, f) => {
                let v = self.rval(fr, c)?;
                let b = v
                    .scalar()
                    .and_then(ClightOps::as_bool)
                    .ok_or_else(|| ClightError::ValueError(format!("guard {v:?}")))?;
                self.exec_block(fr, if b { t } else { f })
            }
            Stmt::Call(dest, fname, args) => {
                let base = self.args.len();
                for a in args {
                    let v = self.rval(fr, a)?;
                    self.args.push(v);
                }
                let r = self.invoke(*fname, base)?;
                if let Some(x) = dest {
                    let v = r.ok_or_else(|| {
                        ClightError::ValueError(format!("void call result bound to {x}"))
                    })?;
                    fr.temps.insert(*x, v);
                }
                Ok(Outcome::Normal)
            }
            Stmt::VolLoad(x, g, _) => {
                let q = self
                    .vol_inputs
                    .get_mut(g)
                    .ok_or(ClightError::EndOfInput(*g))?;
                let v = q.pop_front().ok_or(ClightError::EndOfInput(*g))?;
                self.trace.push(Event::Load(*g, v));
                fr.temps.insert(*x, RVal::Scalar(v));
                Ok(Outcome::Normal)
            }
            Stmt::VolStore(g, e) => {
                let v = self.rval(fr, e)?;
                match v {
                    RVal::Scalar(v) => {
                        self.trace.push(Event::Store(*g, v));
                        Ok(Outcome::Normal)
                    }
                    RVal::Ptr(..) => Err(ClightError::ValueError(
                        "volatile store of a pointer".to_owned(),
                    )),
                }
            }
            Stmt::Loop(body) => loop {
                match self.exec_block(fr, body) {
                    Ok(Outcome::Normal) => continue,
                    Ok(ret @ Outcome::Return(_)) => return Ok(ret),
                    // Exhausted inputs end the simulated infinite loop:
                    // the finite-prefix boundary of the trace check.
                    Err(ClightError::EndOfInput(_)) => return Ok(Outcome::Normal),
                    Err(e) => return Err(e),
                }
            },
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.rval(fr, e)?),
                    None => None,
                };
                Ok(Outcome::Return(v))
            }
        }
    }

    /// Calls function `fname` with the given argument values and returns
    /// its result (`None` for void). Local blocks are allocated on entry
    /// and freed on exit, as in Clight.
    ///
    /// # Errors
    ///
    /// All dynamic errors of the model: unknown functions, arity
    /// mismatches, memory violations, undefined operations.
    pub fn call(&mut self, fname: Ident, args: &[RVal]) -> Result<Option<RVal>, ClightError> {
        let base = self.args.len();
        self.args.extend_from_slice(args);
        self.invoke(fname, base)
    }

    /// Calls `fname` on the arguments `self.args[base..]`, which it pops
    /// (see [`Machine::call`]). A failed call may leave arguments or
    /// local blocks on the stacks; later calls only use what lies above
    /// their own base.
    fn invoke(&mut self, fname: Ident, base: usize) -> Result<Option<RVal>, ClightError> {
        // Borrowed for the program's lifetime, not through `self`: the
        // body runs against `&mut self` without being cloned per call.
        let prog = self.prog;
        let given = self.args.len() - base;
        let f: &Function = match self.funcs.get(&fname) {
            _ if self.depth >= MAX_DEPTH => Err(ClightError::Malformed(format!(
                "call depth exceeded at {fname} (recursive program?)"
            ))),
            Some(&i) if prog.functions[i].params.len() == given => Ok(&prog.functions[i]),
            Some(&i) => Err(ClightError::Malformed(format!(
                "{fname}: {given} arguments for {} parameters",
                prog.functions[i].params.len()
            ))),
            None => Err(ClightError::UnknownFunction(fname)),
        }?;
        let mut fr = self.frames.pop().unwrap_or_default();
        fr.temps.clear();
        fr.vars.clear();
        for ((x, _), v) in f.params.iter().zip(self.args.drain(base..)) {
            fr.temps.insert(*x, v);
        }
        let first_local = self.locals.len();
        for (x, ty) in &f.vars {
            let size = self.layouts.sizeof(ty)?;
            let b = self.mem.alloc(size);
            self.locals.push(b);
            fr.vars.insert(*x, (b, ty.as_scalar()));
        }
        self.depth += 1;
        let outcome = self.exec_block(&mut fr, &f.body);
        self.depth -= 1;
        self.frames.push(fr);
        // Last allocated, first freed: the block memory takes the bytes
        // back for the next call.
        while self.locals.len() > first_local {
            let b = self.locals.pop().expect("a local of this call");
            self.mem.free(b)?;
        }
        match outcome? {
            Outcome::Return(v) => Ok(v),
            Outcome::Normal => {
                if f.ret == CType::Void {
                    Ok(None)
                } else {
                    Err(ClightError::Malformed(format!(
                        "{fname} fell through without returning a value"
                    )))
                }
            }
        }
    }

    /// Runs the simulation entry point `main_fn` until the volatile
    /// inputs are exhausted, returning the accumulated event trace.
    ///
    /// # Errors
    ///
    /// See [`Machine::call`].
    pub fn run_main(&mut self, main_fn: Ident) -> Result<&[Event], ClightError> {
        self.call(main_fn, &[])?;
        Ok(&self.trace)
    }
}

/// Formats a trace as one `load`/`store` event per line (for debugging
/// and golden tests).
pub fn render_trace(trace: &[Event]) -> String {
    trace
        .iter()
        .map(|e| match e {
            Event::Load(g, v) => format!("load {g} = {v}"),
            Event::Store(g, v) => format!("store {g} = {v}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctypes::Composite;
    use velus_ops::{CBinOp, CTy};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    /// struct st { int32_t c; };
    /// int32_t bump(struct st *self, int32_t inc) {
    ///   int32_t n = (*self).c + inc; (*self).c = n; return n;
    /// }
    fn bump_program() -> Program {
        let st = id("st");
        let selfp = id("self");
        let self_ty = CType::ptr_to_struct(st);
        let deref_c = Expr::DerefField(
            Box::new(Expr::Temp(selfp, self_ty.clone())),
            st,
            id("c"),
            CType::Scalar(CTy::I32),
        );
        let n = id("n");
        let body = vec![
            Stmt::Set(
                n,
                Expr::Binop(
                    CBinOp::Add,
                    Box::new(deref_c.clone()),
                    Box::new(Expr::Temp(id("inc"), CType::Scalar(CTy::I32))),
                    CTy::I32,
                ),
            ),
            Stmt::Assign(deref_c, Expr::Temp(n, CType::Scalar(CTy::I32))),
            Stmt::Return(Some(Expr::Temp(n, CType::Scalar(CTy::I32)))),
        ];
        Program {
            composites: vec![Composite {
                name: st,
                fields: vec![(id("c"), CType::Scalar(CTy::I32))],
            }],
            functions: vec![Function {
                name: id("bump"),
                params: vec![(selfp, self_ty), (id("inc"), CType::Scalar(CTy::I32))],
                vars: vec![],
                temps: vec![(n, CType::Scalar(CTy::I32))],
                ret: CType::Scalar(CTy::I32),
                body,
            }],
            volatiles_in: vec![],
            volatiles_out: vec![],
        }
    }

    #[test]
    fn state_persists_across_calls() {
        let prog = bump_program();
        let mut m = Machine::new(&prog).unwrap();
        let b = m.alloc_struct(id("st")).unwrap();
        m.mem.store(CTy::I32, b, 0, &CVal::int(0)).unwrap();
        for expected in [2, 4, 6] {
            let r = m
                .call(id("bump"), &[RVal::Ptr(b, 0), RVal::Scalar(CVal::int(2))])
                .unwrap();
            assert_eq!(r, Some(RVal::Scalar(CVal::int(expected))));
        }
        assert_eq!(m.mem.load(CTy::I32, b, 0).unwrap(), CVal::int(6));
    }

    #[test]
    fn uninitialized_state_is_caught() {
        let prog = bump_program();
        let mut m = Machine::new(&prog).unwrap();
        let b = m.alloc_struct(id("st")).unwrap();
        // No store to (*self).c before the first call: the load fails.
        let err = m
            .call(id("bump"), &[RVal::Ptr(b, 0), RVal::Scalar(CVal::int(1))])
            .unwrap_err();
        assert!(matches!(err, ClightError::Uninitialized(_)));
    }

    #[test]
    fn volatile_trace_and_loop_termination() {
        // void main() { while (1) { x = vol_load(in); vol_store(out, x + 1); } }
        let body = vec![Stmt::Loop(vec![
            Stmt::VolLoad(id("x"), id("in"), CTy::I32),
            Stmt::VolStore(
                id("out"),
                Expr::Binop(
                    CBinOp::Add,
                    Box::new(Expr::Temp(id("x"), CType::Scalar(CTy::I32))),
                    Box::new(Expr::Const(CVal::int(1), CTy::I32)),
                    CTy::I32,
                ),
            ),
        ])];
        let prog = Program {
            composites: vec![],
            functions: vec![Function {
                name: id("main"),
                params: vec![],
                vars: vec![],
                temps: vec![(id("x"), CType::Scalar(CTy::I32))],
                ret: CType::Void,
                body,
            }],
            volatiles_in: vec![(id("in"), CTy::I32)],
            volatiles_out: vec![(id("out"), CTy::I32)],
        };
        let mut m = Machine::new(&prog).unwrap();
        m.push_inputs(id("in"), [CVal::int(10), CVal::int(20)]);
        let trace = m.run_main(id("main")).unwrap();
        assert_eq!(
            trace,
            &[
                Event::Load(id("in"), CVal::int(10)),
                Event::Store(id("out"), CVal::int(11)),
                Event::Load(id("in"), CVal::int(20)),
                Event::Store(id("out"), CVal::int(21)),
            ]
        );
        assert!(render_trace(trace).contains("store out = 21"));
    }

    #[test]
    fn locals_are_freed_on_return() {
        // void f() { struct st o; } — block freed after the call; a second
        // call allocates a fresh one (no leak observable, but the count of
        // blocks grows monotonically which is fine for the model).
        let prog = Program {
            composites: vec![Composite {
                name: id("st"),
                fields: vec![(id("c"), CType::Scalar(CTy::I32))],
            }],
            functions: vec![Function {
                name: id("f"),
                params: vec![],
                vars: vec![(id("o"), CType::Struct(id("st")))],
                temps: vec![],
                ret: CType::Void,
                body: vec![],
            }],
            volatiles_in: vec![],
            volatiles_out: vec![],
        };
        let mut m = Machine::new(&prog).unwrap();
        m.call(id("f"), &[]).unwrap();
        m.call(id("f"), &[]).unwrap();
    }
}
