//! Fault injection: the translation-validation harness is only worth its
//! name if it *fails* on miscompiled programs. These tests corrupt one
//! stage at a time and assert that validation pinpoints the disagreement.

use velus::validate::default_inputs;
use velus_common::Ident;
use velus_obc::ast::{ObcExpr, ObcExprs, Stmt};
use velus_ops::{CConst, ClightOps};

const SRC: &str = "
    node counter(ini, inc: int; res: bool) returns (n: int)
    let
      n = if (true fby false) or res then ini else (0 fby n) + inc;
    tel
";

fn compiled() -> velus::Compiled {
    velus::compile(SRC, None).unwrap()
}

/// Rewrites every integer constant `0` to `1` in a method's expressions
/// — a typical "wrong initial value" miscompilation.
fn corrupt_exprs(ex: &mut ObcExprs<ClightOps>) {
    let zeros: Vec<_> =
        ex.0.iter()
            .filter(|(_, e)| **e == ObcExpr::Const(CConst::int(0)))
            .map(|(id, _)| id)
            .collect();
    for id in zeros {
        ex.0[id] = ObcExpr::Const(CConst::int(1));
    }
}

#[test]
fn clean_compilation_validates() {
    let c = compiled();
    let inputs = default_inputs(&c, 12);
    velus::validate(&c, &inputs, 12).unwrap();
}

#[test]
fn corrupted_reset_is_caught_by_memcorres() {
    let mut c = compiled();
    // Break the reset method of the fused Obc: wrong initial state.
    let class = &mut c.obc_fused.classes[0];
    let reset = class
        .methods
        .iter_mut()
        .find(|m| m.name == velus_obc::ast::reset_name())
        .unwrap();
    corrupt_exprs(&mut reset.exprs);
    let inputs = default_inputs(&c, 8);
    let err = velus::validate(&c, &inputs, 8).unwrap_err();
    // Either the MemCorres check or the output comparison trips.
    let msg = err.to_string();
    assert!(
        msg.contains("memory correspondence") || msg.contains("disagrees"),
        "{msg}"
    );
}

#[test]
fn corrupted_step_output_is_caught() {
    let mut c = compiled();
    let class = &mut c.obc_fused.classes[0];
    let step = class
        .methods
        .iter_mut()
        .find(|m| m.name == velus_obc::ast::step_name())
        .unwrap();
    // Append a final overwrite of the output: n := n + 1.
    let n = Ident::new("n");
    let nv = step.exprs.push(ObcExpr::Var(n, velus_ops::CTy::I32));
    let one = step.exprs.push(ObcExpr::Const(CConst::int(1)));
    let sum = step.exprs.push(ObcExpr::Binop(
        velus_ops::CBinOp::Add,
        nv,
        one,
        velus_ops::CTy::I32,
    ));
    let bump = Stmt::Assign(n, sum);
    step.body.push(bump);
    let inputs = default_inputs(&c, 8);
    let err = velus::validate(&c, &inputs, 8).unwrap_err();
    assert!(err.to_string().contains("disagrees"), "{err}");
}

#[test]
fn corrupted_clight_constant_is_caught() {
    let mut c = compiled();
    // Corrupt the generated Clight reset: flip the stored constants.
    let reset = c.clight.method_fn(c.root, velus_obc::ast::RESET).unwrap();
    let reset_name = velus_clight::generate::method_fn_name(
        c.snlustre.nodes[c.root.index()].name,
        velus_obc::ast::reset_name(),
    );
    let f = &mut c.clight.functions[reset];
    assert_eq!(f.name, reset_name);
    fn corrupt_clight(ex: &mut velus_clight::ast::Exprs, b: &velus_clight::ast::Block) {
        use velus_clight::ast::{Expr, Stmt};
        for s in b {
            match s {
                Stmt::Assign(_, e) => {
                    if let Expr::Const(v, ty) = ex[*e] {
                        if v == velus_ops::CVal::int(0) && ty == velus_ops::CTy::I32 {
                            ex[*e] = Expr::Const(velus_ops::CVal::int(7), ty);
                        }
                    }
                }
                Stmt::If(_, t, f) => {
                    corrupt_clight(ex, t);
                    corrupt_clight(ex, f);
                }
                _ => {}
            }
        }
    }
    corrupt_clight(&mut f.exprs, &f.body);
    let inputs = default_inputs(&c, 8);
    let err = velus::validate(&c, &inputs, 8).unwrap_err();
    let msg = err.to_string();
    // The staterep separation assertion relates the Clight memory to the
    // (correct) Obc memory and trips first.
    assert!(
        msg.contains("separation assertion") || msg.contains("disagrees"),
        "{msg}"
    );
}

#[test]
fn corrupting_the_unfused_obc_is_also_caught() {
    let mut c = compiled();
    let class = &mut c.obc.classes[0];
    let reset = class
        .methods
        .iter_mut()
        .find(|m| m.name == velus_obc::ast::reset_name())
        .unwrap();
    corrupt_exprs(&mut reset.exprs);
    let inputs = default_inputs(&c, 8);
    assert!(velus::validate(&c, &inputs, 8).is_err());
}
