//! A recursive-descent parser for the Lustre surface syntax.
//!
//! The paper uses a Menhir-generated parser with a Coq-verified
//! correctness/completeness proof; here the grammar is small enough that a
//! hand-written precedence-climbing parser with good error messages is the
//! idiomatic Rust choice.
//!
//! The parser builds directly into a caller-supplied [`UArena`]: every
//! expression is pushed into the flat pool as it is reduced, and call
//! arguments are collected on a scratch stack and drained into the
//! arena's argument pool, so parsing performs no per-node allocation.
//!
//! Operator precedence, loosest to tightest:
//!
//! | level | operators                       | associativity |
//! |-------|---------------------------------|---------------|
//! | 1     | `->`, `fby`                     | right         |
//! | 2     | `or`, `xor`                     | left          |
//! | 3     | `and`                           | left          |
//! | 4     | `when`, `whenot`                | left (postfix)|
//! | 5     | `=`, `<>`, `<`, `<=`, `>`, `>=` | none          |
//! | 6     | `+`, `-`                        | left          |
//! | 7     | `*`, `/`, `div`, `mod`          | left          |
//! | 8     | unary `-`, `not`, `pre`         | prefix        |

use velus_common::{codes, Code, DiagStage, Diagnostic, Diagnostics, Ident, Span};
use velus_ops::{Literal, SurfaceBinOp, SurfaceUnOp};

use crate::ast::{
    ClockId, ExprId, ExprRange, UArena, UConst, UDecl, UEquation, UExpr, UNode, UProgram,
};
use crate::lexer::{Tok, Token};

struct Parser<'t, 'a> {
    toks: &'t [Token],
    pos: usize,
    ast: &'a mut UArena,
    /// Scratch for call arguments (drained into the arena per call).
    arg_stack: Vec<ExprId>,
}

type PResult<T> = Result<T, Diagnostics>;

impl Parser<'_, '_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, code: Code, msg: impl Into<String>) -> PResult<T> {
        Err(Diagnostics::from(
            Diagnostic::error(code, msg, self.span()).at_stage(DiagStage::Parse),
        ))
    }

    fn expect(&mut self, tok: Tok) -> PResult<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.error(
                codes::E0104,
                format!("expected `{tok}`, found `{}`", self.peek()),
            )
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<Ident> {
        match *self.peek() {
            Tok::Ident(id) => {
                self.bump();
                Ok(id)
            }
            other => self.error(
                codes::E0104,
                format!("expected identifier, found `{other}`"),
            ),
        }
    }

    /// The span of an already-built expression.
    fn espan(&self, id: ExprId) -> Span {
        self.ast[id].span()
    }

    // ---- declarations -------------------------------------------------

    fn clock_annotation(&mut self) -> PResult<ClockId> {
        let mut ck = ClockId::BASE;
        loop {
            if self.eat(Tok::When) {
                let polarity = !self.eat(Tok::Not);
                let x = self.ident()?;
                ck = self.ast.push_clock(ck, x, polarity);
            } else if self.eat(Tok::Whenot) {
                let x = self.ident()?;
                ck = self.ast.push_clock(ck, x, false);
            } else {
                return Ok(ck);
            }
        }
    }

    /// `x, y : ty [when …]` — one typed group, appended to `out`.
    fn decl_group(&mut self, out: &mut Vec<UDecl>) -> PResult<()> {
        let start = self.span();
        let first = out.len();
        loop {
            let name = self.ident()?;
            // The type, clock and span are set below, once parsed.
            out.push(UDecl {
                name,
                ty_name: name,
                clock: ClockId::BASE,
                span: start,
            });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Colon)?;
        let ty_name = self.ident()?;
        let clock = self.clock_annotation()?;
        let span = start.merge(self.prev_span());
        for d in &mut out[first..] {
            d.ty_name = ty_name;
            d.clock = clock;
            d.span = span;
        }
        Ok(())
    }

    /// `group ; group ; …` until a closing token.
    fn decl_list(&mut self, stop: &Tok) -> PResult<Vec<UDecl>> {
        let mut out = Vec::new();
        if self.peek() == stop {
            return Ok(out);
        }
        loop {
            self.decl_group(&mut out)?;
            if self.eat(Tok::Semi) {
                if self.peek() == stop {
                    return Ok(out);
                }
                continue;
            }
            return Ok(out);
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> PResult<ExprId> {
        self.arrow_expr()
    }

    /// Level 1: `->` and `fby`, right associative.
    fn arrow_expr(&mut self) -> PResult<ExprId> {
        let lhs = self.or_expr()?;
        if self.eat(Tok::Arrow) {
            let rhs = self.arrow_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            return Ok(self.ast.push(UExpr::Arrow(lhs, rhs, span)));
        }
        if self.eat(Tok::Fby) {
            let rhs = self.arrow_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            return Ok(self.ast.push(UExpr::Fby(lhs, rhs, span)));
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> PResult<ExprId> {
        let mut lhs = self.and_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Or => SurfaceBinOp::Or,
                Tok::Xor => SurfaceBinOp::Xor,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.and_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            lhs = self.ast.push(UExpr::Binop(op, lhs, rhs, span));
        }
    }

    fn and_expr(&mut self) -> PResult<ExprId> {
        let mut lhs = self.when_expr()?;
        while self.eat(Tok::And) {
            let rhs = self.when_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            lhs = self
                .ast
                .push(UExpr::Binop(SurfaceBinOp::And, lhs, rhs, span));
        }
        Ok(lhs)
    }

    /// Level 4: postfix sampling chains.
    fn when_expr(&mut self) -> PResult<ExprId> {
        let mut e = self.cmp_expr()?;
        loop {
            if self.eat(Tok::When) {
                let polarity = !self.eat(Tok::Not);
                let x = self.ident()?;
                let span = self.espan(e).merge(self.prev_span());
                e = self.ast.push(UExpr::When(e, x, polarity, span));
            } else if self.eat(Tok::Whenot) {
                let x = self.ident()?;
                let span = self.espan(e).merge(self.prev_span());
                e = self.ast.push(UExpr::When(e, x, false, span));
            } else {
                return Ok(e);
            }
        }
    }

    fn cmp_expr(&mut self) -> PResult<ExprId> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => SurfaceBinOp::Eq,
            Tok::Neq => SurfaceBinOp::Ne,
            Tok::Lt => SurfaceBinOp::Lt,
            Tok::Le => SurfaceBinOp::Le,
            Tok::Gt => SurfaceBinOp::Gt,
            Tok::Ge => SurfaceBinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = self.espan(lhs).merge(self.espan(rhs));
        Ok(self.ast.push(UExpr::Binop(op, lhs, rhs, span)))
    }

    fn add_expr(&mut self) -> PResult<ExprId> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => SurfaceBinOp::Add,
                Tok::Minus => SurfaceBinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            lhs = self.ast.push(UExpr::Binop(op, lhs, rhs, span));
        }
    }

    fn mul_expr(&mut self) -> PResult<ExprId> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => SurfaceBinOp::Mul,
                Tok::Slash | Tok::Div => SurfaceBinOp::Div,
                Tok::Mod => SurfaceBinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = self.espan(lhs).merge(self.espan(rhs));
            lhs = self.ast.push(UExpr::Binop(op, lhs, rhs, span));
        }
    }

    fn unary_expr(&mut self) -> PResult<ExprId> {
        let start = self.span();
        if self.eat(Tok::Minus) {
            let e = self.unary_expr()?;
            let span = start.merge(self.espan(e));
            // Fold negation into literals so that `-1 fby x` has a
            // constant head. The folded node replaces the literal in
            // place — ids below the watermark are never re-read.
            return Ok(match self.ast[e] {
                UExpr::Lit(Literal::Int(i), _) => self.ast.push(UExpr::Lit(Literal::Int(-i), span)),
                UExpr::Lit(Literal::Float(x), _) => {
                    self.ast.push(UExpr::Lit(Literal::Float(-x), span))
                }
                _ => self.ast.push(UExpr::Unop(SurfaceUnOp::Neg, e, span)),
            });
        }
        if self.eat(Tok::Not) {
            let e = self.unary_expr()?;
            let span = start.merge(self.espan(e));
            return Ok(self.ast.push(UExpr::Unop(SurfaceUnOp::Not, e, span)));
        }
        if self.eat(Tok::Pre) {
            let e = self.unary_expr()?;
            let span = start.merge(self.espan(e));
            return Ok(self.ast.push(UExpr::Pre(e, span)));
        }
        self.primary_expr()
    }

    /// A `merge` branch is atomic: a variable, a literal, or a
    /// parenthesized expression. A bare identifier is *never* treated as
    /// a call here, so that `merge x c (e)` parses as two branches rather
    /// than the call `c(e)`.
    fn merge_branch(&mut self) -> PResult<ExprId> {
        let span = self.span();
        match *self.peek() {
            Tok::Ident(name) => {
                self.bump();
                Ok(self.ast.push(UExpr::Var(name, span)))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Int(i), span)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Float(x), span)))
            }
            Tok::True => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Bool(true), span)))
            }
            Tok::False => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Bool(false), span)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => self.error(
                codes::E0104,
                format!(
                    "expected a merge branch (variable, literal or parenthesized \
                     expression), found `{other}`"
                ),
            ),
        }
    }

    fn primary_expr(&mut self) -> PResult<ExprId> {
        let span = self.span();
        match *self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Int(i), span)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Float(x), span)))
            }
            Tok::True => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Bool(true), span)))
            }
            Tok::False => {
                self.bump();
                Ok(self.ast.push(UExpr::Lit(Literal::Bool(false), span)))
            }
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let f = self.expr()?;
                let span = span.merge(self.espan(f));
                Ok(self.ast.push(UExpr::If(c, t, f, span)))
            }
            Tok::Merge => {
                self.bump();
                let x = self.ident()?;
                let t = self.merge_branch()?;
                let f = self.merge_branch()?;
                let span = span.merge(self.espan(f));
                Ok(self.ast.push(UExpr::Merge(x, t, f, span)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(id) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let base = self.arg_stack.len();
                    if *self.peek() != Tok::RParen {
                        let a = self.expr()?;
                        self.arg_stack.push(a);
                        while self.eat(Tok::Comma) {
                            let a = self.expr()?;
                            self.arg_stack.push(a);
                        }
                    }
                    if let Err(e) = self.expect(Tok::RParen) {
                        self.arg_stack.truncate(base);
                        return Err(e);
                    }
                    let args: ExprRange = self.ast.push_args(&mut self.arg_stack, base);
                    let span = span.merge(self.prev_span());
                    Ok(self.ast.push(UExpr::Call(id, args, span)))
                } else {
                    Ok(self.ast.push(UExpr::Var(id, span)))
                }
            }
            other => self.error(
                codes::E0104,
                format!("expected expression, found `{other}`"),
            ),
        }
    }

    // ---- top level -----------------------------------------------------

    fn equation(&mut self) -> PResult<UEquation> {
        let start = self.span();
        let mark = self.ast.lhs_mark();
        let paren = self.eat(Tok::LParen);
        let x = self.ident()?;
        self.ast.push_lhs(x);
        while self.eat(Tok::Comma) {
            let x = self.ident()?;
            self.ast.push_lhs(x);
        }
        if paren {
            self.expect(Tok::RParen)?;
        }
        let lhs = self.ast.lhs_since(mark);
        self.expect(Tok::Eq)?;
        let rhs = self.expr()?;
        self.expect(Tok::Semi)?;
        let span = start.merge(self.prev_span());
        Ok(UEquation { lhs, rhs, span })
    }

    fn node(&mut self) -> PResult<UNode> {
        let start = self.span();
        let estart = self.ast.num_exprs() as u32;
        self.bump(); // `node` or `function`
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let inputs = self.decl_list(&Tok::RParen)?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Returns)?;
        self.expect(Tok::LParen)?;
        let outputs = self.decl_list(&Tok::RParen)?;
        self.expect(Tok::RParen)?;
        self.eat(Tok::Semi);
        let locals = if self.eat(Tok::Var) {
            let ds = self.decl_list(&Tok::Let)?;
            self.eat(Tok::Semi);
            ds
        } else {
            Vec::new()
        };
        self.expect(Tok::Let)?;
        let mut eqs = Vec::new();
        while *self.peek() != Tok::Tel {
            if *self.peek() == Tok::Eof {
                return self.error(
                    codes::E0103,
                    "unexpected end of file inside node body (missing `tel`?)",
                );
            }
            eqs.push(self.equation()?);
        }
        self.expect(Tok::Tel)?;
        self.eat(Tok::Semi);
        let span = start.merge(self.prev_span());
        Ok(UNode {
            name,
            inputs,
            outputs,
            locals,
            eqs,
            exprs: ExprRange {
                start: estart,
                len: self.ast.num_exprs() as u32 - estart,
            },
            span,
        })
    }

    fn const_decl(&mut self) -> PResult<UConst> {
        let start = self.span();
        self.expect(Tok::Const)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty_name = self.ident()?;
        self.expect(Tok::Eq)?;
        let value = self.expr()?;
        self.expect(Tok::Semi)?;
        let span = start.merge(self.prev_span());
        Ok(UConst {
            name,
            ty_name,
            value,
            span,
        })
    }

    fn program(&mut self) -> PResult<UProgram> {
        let mut prog = UProgram::default();
        loop {
            match self.peek() {
                Tok::Eof => return Ok(prog),
                Tok::Const => prog.consts.push(self.const_decl()?),
                Tok::Node | Tok::Function => prog.nodes.push(self.node()?),
                other => {
                    return self.error(
                        codes::E0104,
                        format!("expected `node`, `function` or `const`, found `{other}`"),
                    )
                }
            }
        }
    }
}

/// Parses a token stream into a surface program, building expressions
/// into `arena`. The arena is cleared first; ids in the result index it.
///
/// `source` is only used for error rendering by callers; the parser works
/// on spans.
///
/// # Errors
///
/// Syntax errors with positions.
pub fn parse(tokens: &[Token], source: &str, arena: &mut UArena) -> Result<UProgram, Diagnostics> {
    let _ = source;
    arena.clear();
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        ast: arena,
        arg_stack: Vec::new(),
    };
    p.program()
}

/// Convenience: lex and parse in one step, returning the program with
/// its backing arena.
///
/// # Errors
///
/// Lexical and syntax errors.
pub fn parse_source(source: &str) -> Result<(UProgram, UArena), Diagnostics> {
    let toks = crate::lexer::lex(source)?;
    let mut arena = UArena::new();
    let prog = parse(&toks, source, &mut arena)?;
    Ok((prog, arena))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UClock;

    #[test]
    fn parses_the_paper_counter() {
        let src = "
            node counter(ini, inc: int; res: bool) returns (n: int)
            let
              n = if (true fby false) or res then ini else (0 fby n) + inc;
            tel
        ";
        let (p, a) = parse_source(src).unwrap();
        assert_eq!(p.nodes.len(), 1);
        let n = &p.nodes[0];
        assert_eq!(n.name, Ident::new("counter"));
        assert_eq!(n.inputs.len(), 3);
        assert_eq!(n.outputs.len(), 1);
        assert_eq!(n.eqs.len(), 1);
        assert!(matches!(a[n.eqs[0].rhs], UExpr::If(..)));
        // The node's expressions sit in one contiguous arena slice.
        assert_eq!(n.exprs.len(), a.num_exprs());
    }

    #[test]
    fn parses_tuple_equations() {
        let src = "
            node d(gamma: int) returns (speed, position: int)
            let
              (speed, position) = two(gamma);
            tel
        ";
        let (p, a) = parse_source(src).unwrap();
        let lhs: Vec<&str> = a
            .lhs(p.nodes[0].eqs[0].lhs)
            .iter()
            .map(|x| x.as_str())
            .collect();
        assert_eq!(lhs, ["speed", "position"]);
    }

    #[test]
    fn precedence_arrow_is_loosest() {
        let (p, a) =
            parse_source("node f(x: int) returns (y: int) let y = 0 -> x + 1; tel").unwrap();
        match a[p.nodes[0].eqs[0].rhs] {
            UExpr::Arrow(_, rhs, _) => assert!(matches!(a[rhs], UExpr::Binop(..))),
            other => panic!("expected arrow at top, got {other:?}"),
        }
    }

    #[test]
    fn precedence_fby_binds_like_arrow() {
        let (p, a) =
            parse_source("node f(x: int) returns (y: int) let y = 0 fby y + x; tel").unwrap();
        match a[p.nodes[0].eqs[0].rhs] {
            UExpr::Fby(init, rhs, _) => {
                assert!(matches!(a[init], UExpr::Lit(..)));
                assert!(matches!(a[rhs], UExpr::Binop(..)));
            }
            other => panic!("expected fby at top, got {other:?}"),
        }
    }

    #[test]
    fn when_samples_whole_comparisons() {
        let (p, a) =
            parse_source("node f(s: int; c: bool) returns (y: bool) let y = s > 5 when c; tel")
                .unwrap();
        match a[p.nodes[0].eqs[0].rhs] {
            UExpr::When(inner, _, true, _) => assert!(matches!(a[inner], UExpr::Binop(..))),
            other => panic!("expected when at top, got {other:?}"),
        }
    }

    #[test]
    fn when_not_parses_both_ways() {
        for src in [
            "node f(x: int; c: bool) returns (y: int) let y = x when not c; tel",
            "node f(x: int; c: bool) returns (y: int) let y = x whenot c; tel",
        ] {
            let (p, a) = parse_source(src).unwrap();
            assert!(matches!(
                a[p.nodes[0].eqs[0].rhs],
                UExpr::When(_, _, false, _)
            ));
        }
    }

    #[test]
    fn clock_annotations_on_declarations() {
        let src = "
            node f(x: bool) returns (o: int)
            var c: int when x;
            let c = 1 when x; o = merge x c (0 when not x); tel
        ";
        let (p, a) = parse_source(src).unwrap();
        let d = &p.nodes[0].locals[0];
        match a.clock(d.clock) {
            UClock::On(parent, x, true) => {
                assert_eq!(x, Ident::new("x"));
                assert_eq!(a.clock(parent), UClock::Base);
            }
            other => panic!("expected `when x`, got {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let (p, a) = parse_source("node f() returns (y: int) let y = -3 fby y; tel").unwrap();
        match a[p.nodes[0].eqs[0].rhs] {
            UExpr::Fby(init, _, _) => {
                assert!(matches!(a[init], UExpr::Lit(Literal::Int(-3), _)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_declarations() {
        let (p, _) =
            parse_source("const limit: int = 5; node f() returns (y: int) let y = limit; tel")
                .unwrap();
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].name, Ident::new("limit"));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_source("node f() returns (y: int) let y = ; tel").unwrap_err();
        assert!(err.has_errors());
        let msg = err.to_string();
        assert!(msg.contains("expected expression"), "{msg}");
    }

    #[test]
    fn missing_tel_is_a_clear_error() {
        let err = parse_source("node f() returns (y: int) let y = 1;").unwrap_err();
        assert!(err.to_string().contains("missing `tel`"));
    }
}
