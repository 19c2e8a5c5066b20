//! The `MemCorres` relation (paper Fig. 7), made executable.
//!
//! `MemCorres_n(M, mem)` relates the exposed memory `M` of the
//! intermediate semantics (§3.2) to an Obc run-time global memory at
//! instant `n`: for every `fby` equation `x`, `M.values(x)(n)` equals
//! `mem.values(x)`; for every node call, the relation holds recursively
//! between the sub-trees; ordinary equations impose nothing.
//!
//! The paper's Lemma 1 shows that a translated `step` preserves the
//! relation from instant `n` to `n + 1` and that `reset` establishes it at
//! instant 0. The validation harness asserts exactly this along every
//! execution.

use velus_common::Ident;
use velus_nlustre::ast::{Equation, Node, Program};
use velus_nlustre::memory::Memory;
use velus_nlustre::msem::MemTrace;
use velus_ops::Ops;

use crate::ObcError;

/// Checks `MemCorres_n(M, mem)` for node `f` of `prog`.
///
/// `mtrace` is the recorded exposed memory (`M`), `mem` the Obc global
/// memory of the instance being compared, and `n` the instant.
///
/// When the recorded trace is shorter than `n + 1` for some cell (the
/// node was never activated that far), the *last* recorded value is used:
/// the memory of a non-activated instance does not change — the subtle
/// case of the paper's proof.
///
/// # Errors
///
/// [`ObcError::MemCorres`] describing the first disagreeing cell.
pub fn check_memcorres<O: Ops>(
    prog: &Program<O>,
    node: &Node<O>,
    mtrace: &MemTrace<O>,
    n: usize,
    mem: &Memory<O::Val>,
) -> Result<(), ObcError> {
    check_rec(prog, node, mtrace, n, mem, &mut Vec::new())
}

fn check_rec<O: Ops>(
    prog: &Program<O>,
    node: &Node<O>,
    mtrace: &MemTrace<O>,
    n: usize,
    mem: &Memory<O::Val>,
    path: &mut Vec<Ident>,
) -> Result<(), ObcError> {
    for eq in &node.eqs {
        match eq {
            Equation::Def { .. } => {}
            Equation::Fby { x, .. } => {
                let expected = mtrace
                    .values
                    .get(x)
                    .and_then(|vs| vs.get(n).or_else(|| vs.last()))
                    .ok_or_else(|| {
                        ObcError::MemCorres(format!("no recorded stream for {}{x}", render(path)))
                    })?;
                let actual = mem.value(*x).ok_or_else(|| {
                    ObcError::MemCorres(format!("no run-time cell for {}{x}", render(path)))
                })?;
                if expected != actual {
                    return Err(ObcError::MemCorres(format!(
                        "at instant {n}, {}{x}: semantics has {expected}, Obc memory has {actual}",
                        render(path)
                    )));
                }
            }
            Equation::Call { xs, node: f, .. } => {
                let callee = prog.node(*f).ok_or(ObcError::UnknownClass(*f))?;
                let sub_trace = mtrace.instance(xs[0]).ok_or_else(|| {
                    ObcError::MemCorres(format!("no recorded sub-memory {}{}", render(path), xs[0]))
                })?;
                let sub_mem = mem.instance(xs[0]).ok_or_else(|| {
                    ObcError::MemCorres(format!("no run-time sub-memory {}{}", render(path), xs[0]))
                })?;
                path.push(xs[0]);
                check_rec(prog, callee, sub_trace, n, sub_mem, path)?;
                path.pop();
            }
        }
    }
    Ok(())
}

fn render(path: &[Ident]) -> String {
    path.iter().map(|i| format!("{i}.")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::Interp;
    use crate::translate::translate_program;
    use velus_common::Ident;
    use velus_nlustre::ast::{CExpr, Expr, VarDecl};
    use velus_nlustre::clock::Clock;
    use velus_nlustre::msem::MSem;
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

    /// y = cum + x; cum = 0 fby y (scheduled).
    fn accumulator() -> Program<ClightOps> {
        Program::new(vec![velus_nlustre::ast::Node {
            name: id("acc"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("cum", CTy::I32)],
            eqs: vec![
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs: CExpr::Expr(Expr::Binop(
                        CBinOp::Add,
                        Box::new(Expr::Var(id("cum"), CTy::I32)),
                        Box::new(Expr::Var(id("x"), CTy::I32)),
                        CTy::I32,
                    )),
                },
                Equation::Fby {
                    x: id("cum"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: Expr::Var(id("y"), CTy::I32),
                },
            ],
        }])
    }

    #[test]
    fn memcorres_holds_along_an_execution() {
        let prog = accumulator();
        let node = prog.node(id("acc")).unwrap();
        let obc = translate_program(&prog).unwrap();

        // Run the memory semantics with recording.
        let mut msem = MSem::new(&prog, id("acc")).unwrap().recording();
        let inputs: Vec<Vec<SVal<ClightOps>>> =
            vec![(1..=4).map(|v| SVal::Pres(CVal::int(v))).collect()];
        // Run the Obc side in lockstep, checking the relation at each
        // boundary.
        let mut mem = velus_nlustre::memory::Memory::new();
        let mut interp = Interp::new(&obc);
        let mut outs = Vec::new();
        interp
            .call(
                id("acc"),
                &mut mem,
                crate::ast::reset_name(),
                &[],
                &mut outs,
            )
            .unwrap();
        for n in 0..4 {
            let at: Vec<SVal<ClightOps>> = inputs.iter().map(|s| s[n].clone()).collect();
            msem.step(&at).unwrap();
            // After semantic instant n, the trace holds M(0..=n); compare
            // M(n) with the Obc memory *before* its step n.
            check_memcorres(&prog, node, msem.trace(), n, &mem).unwrap();
            let vals: Vec<CVal> = at.iter().map(|v| *v.value().unwrap()).collect();
            interp
                .call(
                    id("acc"),
                    &mut mem,
                    crate::ast::step_name(),
                    &vals,
                    &mut outs,
                )
                .unwrap();
        }
    }

    #[test]
    fn corrupted_memory_is_detected() {
        let prog = accumulator();
        let node = prog.node(id("acc")).unwrap();
        let mut msem = MSem::new(&prog, id("acc")).unwrap().recording();
        msem.step(&[SVal::Pres(CVal::int(1))]).unwrap();

        let mut mem = velus_nlustre::memory::Memory::new();
        mem.set_value(id("cum"), CVal::int(42)); // wrong: should be 0
        let err = check_memcorres(&prog, node, msem.trace(), 0, &mem).unwrap_err();
        assert_eq!(
            err.to_string(),
            "memory correspondence violated: at instant 0, cum: semantics has 0, Obc memory has 42"
        );
    }

    #[test]
    fn failure_messages_name_the_instance_path() {
        // top(x) = acc(x): the cell `cum` of instance `y`.
        let mut prog = accumulator();
        prog.nodes.push(velus_nlustre::ast::Node {
            name: id("top"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Call {
                xs: vec![id("y")],
                ck: Clock::Base,
                node: id("acc"),
                args: vec![Expr::Var(id("x"), CTy::I32)],
            }],
        });
        let node = prog.node(id("top")).unwrap();
        let mut msem = MSem::new(&prog, id("top")).unwrap().recording();
        for v in [1, 2] {
            msem.step(&[SVal::Pres(CVal::int(v))]).unwrap();
        }
        let mut mem = velus_nlustre::memory::Memory::new();
        mem.instance_mut(id("y")).set_value(id("cum"), CVal::int(7));
        let err = check_memcorres(&prog, node, msem.trace(), 1, &mem).unwrap_err();
        assert_eq!(
            err.to_string(),
            "memory correspondence violated: at instant 1, y.cum: semantics has 1, Obc memory has 7"
        );
        let err = check_memcorres(&prog, node, msem.trace(), 1, &Memory::new()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "memory correspondence violated: no run-time sub-memory y"
        );
    }
}
