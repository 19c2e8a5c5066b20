//! Emission of compilable C99 from the Clight AST.
//!
//! The `$` characters of generated names (Fig. 9 uses `tracker$step`,
//! `out$s$step`, …) are kept in the AST for fidelity with the paper but
//! sanitized to `_` here, since `$` is not a standard C identifier
//! character. Volatile globals model the paper's test-mode I/O; an
//! optional stdio `main` is emitted for desktop experimentation.
//!
//! The emitter streams into a **single pre-sized `String`**: every
//! expression, type and statement writes itself into the output buffer
//! (via `fmt::Write` for numeric formatting), so emission performs O(1)
//! allocations per translation unit instead of one per AST node. The
//! buffer is sized from a cheap structural estimate of the program, so
//! even the growth path is rarely taken. Indentation stops growing at
//! [`MAX_INDENT_LEVELS`], so a deep `if` nest emits C linear in its
//! source size rather than quadratic.

use std::fmt::Write as _;

use velus_common::pretty::MAX_INDENT_LEVELS;
use velus_common::{Ident, IoMode};
use velus_ops::{CTy, CUnOp, CVal};

use crate::ast::{Expr, ExprId, Exprs, Function, Program, Stmt};
use crate::ctypes::CType;

/// The single-buffer C writer: output text plus the indentation level.
struct Cw {
    buf: String,
    indent: usize,
    /// The pending pieces of the expression being written.
    tasks: Vec<Task>,
}

/// A pending piece of an expression: a subexpression, or the text after
/// an operand.
enum Task {
    Expr(ExprId),
    Text(&'static str),
    Op(velus_ops::CBinOp),
}

impl Cw {
    /// Writes expression `e` of `ex`.
    fn expr(&mut self, ex: &Exprs, e: ExprId) {
        expr_into(&mut self.buf, &mut self.tasks, ex, e);
    }

    fn indent(&mut self) {
        for _ in 0..self.indent.min(MAX_INDENT_LEVELS) * 2 {
            self.buf.push(' ');
        }
    }

    fn nl(&mut self) {
        self.buf.push('\n');
    }

    /// One fully indented line of fixed text.
    fn line(&mut self, text: &str) {
        self.indent();
        self.buf.push_str(text);
        self.nl();
    }

    fn blank(&mut self) {
        self.buf.push('\n');
    }
}

fn sanitize_into(buf: &mut String, x: Ident) {
    for ch in x.as_str().chars() {
        if ch == '$' {
            buf.push_str("__");
        } else {
            buf.push(ch);
        }
    }
}

fn ctype_into(buf: &mut String, ty: &CType) {
    match ty {
        CType::Scalar(t) => buf.push_str(t.c_name()),
        CType::Pointer(s) => {
            buf.push_str("struct ");
            sanitize_into(buf, *s);
            buf.push('*');
        }
        CType::Struct(s) => {
            buf.push_str("struct ");
            sanitize_into(buf, *s);
        }
        CType::Void => buf.push_str("void"),
    }
}

fn literal_into(buf: &mut String, v: &CVal, ty: CTy) {
    // Writing into a String cannot fail; the let-underscores keep the
    // fmt::Write plumbing quiet.
    match (v, ty) {
        (CVal::Int(n), CTy::U32) => {
            let _ = write!(buf, "{}u", *n as u32);
        }
        (CVal::Int(n), _) if *n == i32::MIN => {
            let _ = write!(buf, "({} - 1)", i32::MIN + 1);
        }
        (CVal::Int(n), _) => {
            let _ = write!(buf, "{n}");
        }
        (CVal::Long(n), CTy::U64) => {
            let _ = write!(buf, "{}ull", *n as u64);
        }
        (CVal::Long(n), _) if *n == i64::MIN => {
            let _ = write!(buf, "({}ll - 1)", i64::MIN + 1);
        }
        (CVal::Long(n), _) => {
            let _ = write!(buf, "{n}ll");
        }
        (CVal::Single(x), _) => {
            if x.fract() == 0.0 && x.is_finite() {
                let _ = write!(buf, "{x:.1}f");
            } else {
                let _ = write!(buf, "{x:?}f");
            }
        }
        (CVal::Float(x), _) => {
            if x.fract() == 0.0 && x.is_finite() {
                let _ = write!(buf, "{x:.1}");
            } else {
                let _ = write!(buf, "{x:?}");
            }
        }
    }
}

/// Writes a leaf expression (every node but an operator).
fn leaf_into(buf: &mut String, e: &Expr) {
    match e {
        Expr::Const(v, ty) => literal_into(buf, v, *ty),
        Expr::Temp(x, _) | Expr::Var(x, _) => sanitize_into(buf, *x),
        Expr::Field(a, _, f, _) => {
            sanitize_into(buf, *a);
            buf.push('.');
            sanitize_into(buf, *f);
        }
        Expr::DerefField(p, _, f, _) => {
            buf.push_str("(*");
            sanitize_into(buf, *p);
            buf.push_str(").");
            sanitize_into(buf, *f);
        }
        Expr::AddrOf(place) => {
            buf.push('&');
            leaf_into(buf, &place.lvalue());
        }
        Expr::Unop(..) | Expr::Binop(..) => unreachable!("operators are not leaves"),
    }
}

/// Writes expression `e` of `ex`, fully parenthesized, in one loop with
/// `tasks` as the stack of pieces still to write.
fn expr_into(buf: &mut String, tasks: &mut Vec<Task>, ex: &Exprs, e: ExprId) {
    if !matches!(ex[e], Expr::Unop(..) | Expr::Binop(..)) {
        return leaf_into(buf, &ex[e]);
    }
    tasks.clear();
    tasks.push(Task::Expr(e));
    while let Some(task) = tasks.pop() {
        match task {
            Task::Expr(e) => match &ex[e] {
                Expr::Unop(CUnOp::Not, e1, _) => {
                    buf.push_str("(!");
                    tasks.extend([Task::Text(")"), Task::Expr(*e1)]);
                }
                Expr::Unop(CUnOp::Neg, e1, _) => {
                    buf.push_str("(-");
                    tasks.extend([Task::Text(")"), Task::Expr(*e1)]);
                }
                Expr::Unop(CUnOp::Cast(to), e1, _) => {
                    buf.push_str("((");
                    buf.push_str(to.c_name());
                    buf.push(')');
                    tasks.extend([Task::Text(")"), Task::Expr(*e1)]);
                }
                // The Display instance of CBinOp prints the C spelling; a
                // leaf operand is written in place rather than pushed.
                Expr::Binop(op, e1, e2, _) => match (&ex[*e1], &ex[*e2]) {
                    (Expr::Unop(..) | Expr::Binop(..), _) => {
                        buf.push('(');
                        tasks.extend([
                            Task::Text(")"),
                            Task::Expr(*e2),
                            Task::Op(*op),
                            Task::Expr(*e1),
                        ]);
                    }
                    (l, r) => {
                        buf.push('(');
                        leaf_into(buf, l);
                        let _ = write!(buf, " {op} ");
                        if let Expr::Unop(..) | Expr::Binop(..) = r {
                            tasks.extend([Task::Text(")"), Task::Expr(*e2)]);
                        } else {
                            leaf_into(buf, r);
                            buf.push(')');
                        }
                    }
                },
                leaf => leaf_into(buf, leaf),
            },
            Task::Text(t) => buf.push_str(t),
            Task::Op(op) => {
                let _ = write!(buf, " {op} ");
            }
        }
    }
}

#[cfg(test)]
fn expr(ex: &Exprs, e: ExprId) -> String {
    let mut buf = String::new();
    expr_into(&mut buf, &mut Vec::new(), ex, e);
    buf
}

/// Prints a block whose expressions live in `ex`; `fns` names the
/// functions calls refer to.
fn block(w: &mut Cw, ex: &Exprs, b: &[Stmt], fns: &[Function]) {
    for s in b {
        stmt(w, ex, s, fns);
    }
}

fn stmt(w: &mut Cw, ex: &Exprs, s: &Stmt, fns: &[Function]) {
    match s {
        Stmt::Assign(lv, e) => {
            w.indent();
            w.expr(ex, *lv);
            w.buf.push_str(" = ");
            w.expr(ex, *e);
            w.buf.push(';');
            w.nl();
        }
        Stmt::Set(x, e) => {
            w.indent();
            sanitize_into(&mut w.buf, *x);
            w.buf.push_str(" = ");
            w.expr(ex, *e);
            w.buf.push(';');
            w.nl();
        }
        Stmt::Call(dest, f, args) => {
            w.indent();
            if let Some(x) = dest {
                sanitize_into(&mut w.buf, *x);
                w.buf.push_str(" = ");
            }
            sanitize_into(&mut w.buf, fns[*f].name);
            w.buf.push('(');
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    w.buf.push_str(", ");
                }
                w.expr(ex, *a);
            }
            w.buf.push_str(");");
            w.nl();
        }
        Stmt::If(c, t, f) => {
            w.indent();
            w.buf.push_str("if (");
            w.expr(ex, *c);
            w.buf.push_str(") {");
            w.nl();
            w.indent += 1;
            block(w, ex, t, fns);
            w.indent -= 1;
            if !f.is_empty() {
                w.line("} else {");
                w.indent += 1;
                block(w, ex, f, fns);
                w.indent -= 1;
            }
            w.line("}");
        }
        Stmt::VolLoad(x, g, _) => {
            w.indent();
            sanitize_into(&mut w.buf, *x);
            w.buf.push_str(" = ");
            sanitize_into(&mut w.buf, *g);
            w.buf.push(';');
            w.nl();
        }
        Stmt::VolStore(g, e) => {
            w.indent();
            sanitize_into(&mut w.buf, *g);
            w.buf.push_str(" = ");
            w.expr(ex, *e);
            w.buf.push(';');
            w.nl();
        }
        Stmt::Loop(body) => {
            w.line("for (;;) {");
            w.indent += 1;
            block(w, ex, body, fns);
            w.indent -= 1;
            w.line("}");
        }
        Stmt::Return(None) => w.line("return;"),
        Stmt::Return(Some(e)) => {
            w.indent();
            w.buf.push_str("return ");
            w.expr(ex, *e);
            w.buf.push(';');
            w.nl();
        }
    }
}

fn signature_into(buf: &mut String, f: &Function) {
    ctype_into(buf, &f.ret);
    buf.push(' ');
    sanitize_into(buf, f.name);
    buf.push('(');
    if f.params.is_empty() {
        buf.push_str("void");
    } else {
        for (k, (x, t)) in f.params.iter().enumerate() {
            if k > 0 {
                buf.push_str(", ");
            }
            ctype_into(buf, t);
            buf.push(' ');
            sanitize_into(buf, *x);
        }
    }
    buf.push(')');
}

fn scanf_spec(ty: CTy) -> (&'static str, &'static str) {
    // (scanf format + cast buffer type, printf format)
    match ty {
        CTy::F32 => ("%f", "%f"),
        CTy::F64 => ("%lf", "%f"),
        CTy::I64 => ("%lld", "%lld"),
        CTy::U64 => ("%llu", "%llu"),
        CTy::U32 => ("%u", "%u"),
        _ => ("%d", "%d"),
    }
}

/// One declaration line `<ctype> <name>;` at the current indentation,
/// optionally prefixed (`register `, `volatile `).
fn decl_line(w: &mut Cw, prefix: &str, x: Ident, ty: &CType) {
    w.indent();
    w.buf.push_str(prefix);
    ctype_into(&mut w.buf, ty);
    w.buf.push(' ');
    sanitize_into(&mut w.buf, x);
    w.buf.push(';');
    w.nl();
}

/// A cheap structural size estimate so the output buffer is allocated
/// once up front. Counts are deliberately generous: over-reserving a
/// few hundred bytes is cheaper than re-growing mid-emission.
///
/// A statement's share covers the handful of expression nodes it
/// usually prints (the paper corpus peaks at 7 per statement); a
/// function's expression nodes beyond [`NODES_PER_ATOM`] per statement
/// — one deep expression, say — are counted on their own.
fn estimate_size(prog: &Program) -> usize {
    fn atoms(b: &[Stmt]) -> usize {
        b.iter()
            .map(|s| match s {
                Stmt::If(_, t, f) => 2 + atoms(t) + atoms(f),
                Stmt::Loop(b) => 2 + atoms(b),
                _ => 1,
            })
            .sum()
    }
    let fields: usize = prog.composites.iter().map(|c| c.fields.len() + 2).sum();
    let decls: usize = prog
        .functions
        .iter()
        .map(|f| f.params.len() + f.vars.len() + f.temps.len() + 4)
        .sum();
    let (atoms, deep) = prog.functions.iter().fold((0, 0), |(a, d), f| {
        let n = atoms(&f.body);
        (a + n, d + f.exprs.len().saturating_sub(NODES_PER_ATOM * n))
    });
    let vols = prog.volatiles_in.len() + prog.volatiles_out.len();
    256 + 48 * fields + 64 * decls + 56 * atoms + 16 * deep + 48 * vols
}

/// Expression nodes [`estimate_size`]'s per-statement share covers.
const NODES_PER_ATOM: usize = 8;

/// Prints the program as a single compilable C translation unit.
pub fn print_program(prog: &Program, io: IoMode) -> String {
    let mut w = Cw {
        buf: String::with_capacity(estimate_size(prog)),
        indent: 0,
        // Deep enough for the expressions of typical programs; a deeper
        // one grows it once.
        tasks: Vec::with_capacity(64),
    };
    w.line("/* Generated by velus-rs (PLDI'17 Lustre-to-Clight pipeline). */");
    w.line("#include <stdint.h>");
    w.line("#include <stdbool.h>");
    if io == IoMode::Stdio {
        w.line("#include <stdio.h>");
    }
    w.blank();

    // Struct definitions, dependencies first.
    for c in &prog.composites {
        w.buf.push_str("struct ");
        sanitize_into(&mut w.buf, c.name);
        w.buf.push_str(" {");
        w.nl();
        w.indent += 1;
        if c.fields.is_empty() {
            // Strict C99 forbids empty structs; pad with a byte.
            w.line("char velus__unused;");
        }
        for (f, ty) in &c.fields {
            decl_line(&mut w, "", *f, ty);
        }
        w.indent -= 1;
        w.line("};");
        w.blank();
    }

    // Volatile I/O globals.
    for (g, ty) in prog.volatiles_in.iter().chain(&prog.volatiles_out) {
        decl_line(&mut w, "volatile ", *g, &CType::Scalar(*ty));
    }
    if !(prog.volatiles_in.is_empty() && prog.volatiles_out.is_empty()) {
        w.blank();
    }

    // Prototypes (main last, and skipped: defined below).
    for f in &prog.functions {
        if f.name.as_str() == "main" {
            continue;
        }
        w.buf.push_str("static ");
        signature_into(&mut w.buf, f);
        w.buf.push(';');
        w.nl();
    }
    w.blank();

    for f in &prog.functions {
        if f.name.as_str() == "main" {
            continue;
        }
        w.buf.push_str("static ");
        signature_into(&mut w.buf, f);
        w.buf.push_str(" {");
        w.nl();
        w.indent += 1;
        for (x, t) in &f.vars {
            decl_line(&mut w, "", *x, t);
        }
        for (x, t) in &f.temps {
            decl_line(&mut w, "register ", *x, t);
        }
        block(&mut w, &f.exprs, &f.body, &prog.functions);
        w.indent -= 1;
        w.line("}");
        w.blank();
    }

    // The entry point.
    if let Some(main) = prog.functions.last().filter(|f| f.name.as_str() == "main") {
        w.line("int main(void) {");
        w.indent += 1;
        match io {
            IoMode::Volatile => {
                for (x, t) in &main.vars {
                    decl_line(&mut w, "", *x, t);
                }
                for (x, t) in &main.temps {
                    decl_line(&mut w, "register ", *x, t);
                }
                block(&mut w, &main.exprs, &main.body, &prog.functions);
            }
            IoMode::Stdio => {
                // The unverified scanf/printf test harness of §5: read one
                // line of inputs per instant until EOF.
                for (x, t) in &main.vars {
                    decl_line(&mut w, "", *x, t);
                }
                for (x, t) in &main.temps {
                    decl_line(&mut w, "", *x, t);
                }
                // Locate reset call and loop body from the generated
                // main: re-emit with stdio I/O substituted.
                block_stdio(&mut w, &main.exprs, &main.body, prog);
            }
        }
        w.line("return 0;");
        w.indent -= 1;
        w.line("}");
    }
    w.buf
}

/// Re-emits the generated main with `scanf`/`printf` in place of volatile
/// accesses (the paper's test mode).
fn block_stdio(w: &mut Cw, ex: &Exprs, b: &[Stmt], prog: &Program) {
    for s in b {
        stmt_stdio(w, ex, s, prog);
    }
}

fn stmt_stdio(w: &mut Cw, ex: &Exprs, s: &Stmt, prog: &Program) {
    match s {
        Stmt::Loop(body) => {
            // Terminate on EOF of the first scanf.
            w.line("for (;;) {");
            w.indent += 1;
            block_stdio(w, ex, body, prog);
            w.indent -= 1;
            w.line("}");
        }
        Stmt::VolLoad(x, g, ty) => {
            let (sf, _) = scanf_spec(*ty);
            let _ = g;
            w.indent();
            if *ty == CTy::Bool {
                w.buf
                    .push_str("{ int velus__tmp; if (scanf(\"%d\", &velus__tmp) != 1) return 0; ");
                sanitize_into(&mut w.buf, *x);
                w.buf.push_str(" = velus__tmp != 0; }");
            } else {
                let _ = write!(w.buf, "if (scanf(\"{sf}\", &");
                sanitize_into(&mut w.buf, *x);
                w.buf.push_str(") != 1) return 0;");
            }
            w.nl();
        }
        Stmt::VolStore(g, e) => {
            let ty = prog
                .volatiles_out
                .iter()
                .find(|(h, _)| h == g)
                .map(|(_, t)| *t)
                .unwrap_or(CTy::I32);
            let (_, pf) = scanf_spec(ty);
            w.indent();
            w.buf.push_str("printf(\"");
            sanitize_into(&mut w.buf, *g);
            let _ = write!(w.buf, " = {pf}\\n\", ");
            w.expr(ex, *e);
            w.buf.push_str(");");
            w.nl();
        }
        other => stmt(w, ex, other, &prog.functions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctypes::Composite;
    use velus_ops::CBinOp;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn tiny_program() -> Program {
        let mut ex = Exprs::new();
        let c = ex.push(Expr::DerefField(
            id("self"),
            id("st"),
            id("c"),
            CType::Scalar(CTy::I32),
        ));
        let x = ex.push(Expr::Temp(id("x"), CType::Scalar(CTy::I32)));
        let sum = ex.push(Expr::Binop(CBinOp::Add, c, x, CTy::I32));
        let n = ex.push(Expr::Temp(id("n"), CType::Scalar(CTy::I32)));
        Program {
            composites: vec![Composite {
                name: id("st"),
                fields: vec![(id("c"), CType::Scalar(CTy::I32))],
            }],
            functions: vec![Function {
                name: id("st$step"),
                params: vec![
                    (id("self"), CType::ptr_to_struct(id("st"))),
                    (id("x"), CType::Scalar(CTy::I32)),
                ],
                vars: vec![],
                temps: vec![(id("n"), CType::Scalar(CTy::I32))],
                ret: CType::Scalar(CTy::I32),
                body: vec![Stmt::Set(id("n"), sum), Stmt::Return(Some(n))],
                exprs: ex,
            }],
            class_fns: vec![0],
            volatiles_in: vec![(id("in$x"), CTy::I32)],
            volatiles_out: vec![(id("out$n"), CTy::I32)],
        }
    }

    #[test]
    fn emits_sanitized_c() {
        let c = print_program(&tiny_program(), IoMode::Volatile);
        assert!(c.contains("struct st {"), "{c}");
        assert!(
            c.contains("static int32_t st__step(struct st* self, int32_t x)"),
            "{c}"
        );
        assert!(c.contains("(*self).c"), "{c}");
        assert!(c.contains("volatile int32_t in__x;"), "{c}");
        assert!(!c.contains('$'), "no dollar signs in C output:\n{c}");
    }

    #[test]
    fn booleans_and_floats_have_c_spellings() {
        let mut ex = Exprs::new();
        let t = ex.push(Expr::Const(CVal::bool(true), CTy::Bool));
        let f = ex.push(Expr::Const(CVal::bool(false), CTy::Bool));
        let e = ex.push(Expr::Binop(CBinOp::And, t, f, CTy::Bool));
        assert_eq!(expr(&ex, e), "(1 & 0)");
        let one = ex.push(Expr::Const(CVal::float(1.0), CTy::F64));
        let half = ex.push(Expr::Const(CVal::float(2.5), CTy::F64));
        assert_eq!(expr(&ex, one), "1.0");
        assert_eq!(expr(&ex, half), "2.5");
    }

    #[test]
    fn int_min_is_emitted_without_overflow() {
        let mut ex = Exprs::new();
        let min = ex.push(Expr::Const(CVal::int(i32::MIN), CTy::I32));
        assert_eq!(expr(&ex, min), "(-2147483647 - 1)");
    }

    #[test]
    fn casts_print_as_c_casts() {
        let mut ex = Exprs::new();
        let c = ex.push(Expr::Const(CVal::int(300), CTy::I32));
        let e = ex.push(Expr::Unop(CUnOp::Cast(CTy::I8), c, CTy::I8));
        let neg = ex.push(Expr::Unop(CUnOp::Neg, e, CTy::I8));
        assert_eq!(expr(&ex, e), "((int8_t)300)");
        assert_eq!(expr(&ex, neg), "(-((int8_t)300))");
    }

    /// `tiny_program` with `n = x + x + … + x` (`terms` terms) in
    /// place of its sum: one expression far deeper than its statements.
    fn deep_sum_program(terms: usize) -> Program {
        let mut prog = tiny_program();
        let mut ex = Exprs::new();
        let x = |ex: &mut Exprs| ex.push(Expr::Temp(id("x"), CType::Scalar(CTy::I32)));
        let mut sum = x(&mut ex);
        for _ in 1..terms {
            let r = x(&mut ex);
            sum = ex.push(Expr::Binop(CBinOp::Add, sum, r, CTy::I32));
        }
        let n = ex.push(Expr::Temp(id("n"), CType::Scalar(CTy::I32)));
        let step = &mut prog.functions[0];
        step.body = vec![Stmt::Set(id("n"), sum), Stmt::Return(Some(n))];
        step.exprs = ex;
        prog
    }

    #[test]
    fn output_fits_the_presized_buffer() {
        // The estimate must cover the real output: emission should not
        // re-grow the buffer (the whole point of pre-sizing), also when
        // one expression is deep.
        for prog in [tiny_program(), deep_sum_program(4_000)] {
            for io in [IoMode::Volatile, IoMode::Stdio] {
                let c = print_program(&prog, io);
                assert!(
                    c.len() <= estimate_size(&prog),
                    "estimate {} too small for {} bytes",
                    estimate_size(&prog),
                    c.len()
                );
            }
        }
    }
}
