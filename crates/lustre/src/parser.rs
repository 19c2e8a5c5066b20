//! The parser of the Lustre surface syntax.
//!
//! The paper uses a Menhir-generated LR parser with a Coq-verified
//! correctness/completeness proof. Such a parser keeps its states on an
//! explicit stack and asks the lexer for one token at a time; this one
//! does the same by hand. It pulls tokens from a [`Lexer`] one at a
//! time (the grammar is LL(1): it looks at the next token and
//! remembers the span of the last one), and parses expressions by
//! operator precedence over an explicit operand stack and operator
//! stack, so no input, however deeply nested, makes it recurse.
//! Declarations are parsed by plain loops.
//!
//! The parser builds directly into a caller-supplied [`UArena`]: every
//! expression is pushed into the flat pool as it is reduced, in
//! post-order, and a call's arguments move from the operand stack into
//! the arena's argument pool. The stacks live in a [`Scratch`] that
//! callers keep across parses, so parsing performs no per-node
//! allocation.
//!
//! Operator precedence, loosest to tightest (the table `infix` and the
//! levels of `when` and the prefix operators):
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
//!
//! An operand of an operator of level *k* is an expression of a level
//! above *k*, or of *k* itself on the side the operator associates to;
//! anything looser must be parenthesized. So `a < b < c` and
//! `x when c + 1` end their expression at the second operator, and the
//! token is reported by whatever comes after the expression (`expected
//! `;``). `if`, `merge`, parentheses and call arguments open a frame on
//! the operator stack; the expression inside ends at the first token
//! that cannot continue it, and the frame then expects its own closing
//! token.

use velus_common::{codes, Code, DiagStage, Diagnostic, Diagnostics, Ident, Span};
use velus_ops::{Literal, SurfaceBinOp, SurfaceUnOp};

use crate::ast::{
    ClockId, ExprId, ExprRange, UArena, UConst, UDecl, UEquation, UExpr, UNode, UProgram,
};
use crate::lexer::{Lexer, Tok};

/// The parser's working memory: the expression parser's operand and
/// operator stacks. [`parse`] empties them first; a caller that keeps
/// one scratch across parses stops allocating once the stacks fit the
/// deepest expression seen.
#[derive(Debug, Default)]
pub struct Scratch {
    operands: Vec<ExprId>,
    ops: Vec<Op>,
}

impl Scratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stack capacities `(operands, operators)`, so reuse tests can
    /// assert that recycled stacks stop growing.
    pub fn capacities(&self) -> (usize, usize) {
        (self.operands.capacity(), self.ops.capacity())
    }
}

/// How the operators of one precedence level group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assoc {
    Left,
    Right,
    /// Comparisons: `a < b < c` is not an expression.
    Non,
}

/// What reducing a binary operator builds.
#[derive(Debug, Clone, Copy)]
enum Binary {
    Arrow,
    Fby,
    Op(SurfaceBinOp),
}

/// The level of `when`/`whenot` (postfix, left associative).
const WHEN: u8 = 4;
/// The level of the prefix operators, and of primaries.
const PREFIX: u8 = 8;

/// The binding-power table of the binary operators: level, grouping and
/// what a reduction builds.
fn infix(tok: Tok) -> Option<(u8, Assoc, Binary)> {
    use SurfaceBinOp as B;
    let op = |level, op| Some((level, Assoc::Left, Binary::Op(op)));
    let cmp = |op| Some((5, Assoc::Non, Binary::Op(op)));
    match tok {
        Tok::Arrow => Some((1, Assoc::Right, Binary::Arrow)),
        Tok::Fby => Some((1, Assoc::Right, Binary::Fby)),
        Tok::Or => op(2, B::Or),
        Tok::Xor => op(2, B::Xor),
        Tok::And => op(3, B::And),
        Tok::Eq => cmp(B::Eq),
        Tok::Neq => cmp(B::Ne),
        Tok::Lt => cmp(B::Lt),
        Tok::Le => cmp(B::Le),
        Tok::Gt => cmp(B::Gt),
        Tok::Ge => cmp(B::Ge),
        Tok::Plus => op(6, B::Add),
        Tok::Minus => op(6, B::Sub),
        Tok::Star => op(7, B::Mul),
        Tok::Slash | Tok::Div => op(7, B::Div),
        Tok::Mod => op(7, B::Mod),
        _ => None,
    }
}

/// A prefix operator (level 8).
#[derive(Debug, Clone, Copy)]
enum Prefix {
    Neg,
    Not,
    Pre,
}

/// An operator waiting on the stack for its (right) operand.
#[derive(Debug, Clone, Copy)]
enum Operator {
    /// A binary operator of the given level.
    Binary(u8, Binary),
    /// A prefix operator, with its token's span.
    Prefix(Prefix, Span),
}

impl Operator {
    fn level(self) -> u8 {
        match self {
            Operator::Binary(level, _) => level,
            Operator::Prefix(..) => PREFIX,
        }
    }
}

/// Which part of an `if` is being parsed.
#[derive(Debug, Clone, Copy)]
enum IfPart {
    Cond,
    Then,
    Else,
}

/// An open construct whose inner expression is being parsed.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// `(`: the inner expression ends at `)`.
    Paren,
    /// `if`, with its token's span; the parts parsed so far are on the
    /// operand stack.
    If(IfPart, Span),
    /// A call `f(`, with the callee's span; its arguments so far are the
    /// operands from the given stack height on.
    Call(Ident, Span, usize),
    /// A parenthesized branch of `merge x`, with the `merge` token's
    /// span and the first branch once parsed.
    Merge(Ident, Span, Option<ExprId>),
}

/// An entry of the operator stack.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pending(Operator),
    Frame(Frame),
}

/// Where the expression parser goes next.
enum Next {
    /// An operand is expected.
    Operand,
    /// A primary was completed.
    Primary(ExprId),
    /// The whole expression was parsed.
    Done(ExprId),
}

struct Parser<'s, 'a> {
    lexer: Lexer<'s>,
    ast: &'a mut UArena,
    operands: &'a mut Vec<ExprId>,
    ops: &'a mut Vec<Op>,
}

type PResult<T> = Result<T, Diagnostics>;

impl Parser<'_, '_> {
    fn peek(&self) -> &Tok {
        &self.lexer.token().tok
    }

    fn span(&self) -> Span {
        self.lexer.token().span
    }

    fn prev_span(&self) -> Span {
        self.lexer.prev_span()
    }

    /// Consumes the next token (the end of input is never consumed).
    fn bump(&mut self) {
        self.lexer.next_token();
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
                format!("expected `{tok}`, found `{}`", self.found()),
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
            _ => self.error(
                codes::E0104,
                format!("expected identifier, found `{}`", self.found()),
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

    /// `x, y : ty [when …]` — one typed group, appended to the arena's
    /// declaration pool.
    fn decl_group(&mut self) -> PResult<()> {
        let start = self.span();
        let first = self.ast.decl_mark();
        loop {
            let name = self.ident()?;
            // The type, clock and span are set below, once parsed.
            self.ast.push_decl(UDecl {
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
        for d in self.ast.decls_since_mut(first) {
            d.ty_name = ty_name;
            d.clock = clock;
            d.span = span;
        }
        Ok(())
    }

    /// `group ; group ; …` until a closing token.
    fn decl_list(&mut self, stop: Tok) -> PResult<ExprRange> {
        let mark = self.ast.decl_mark();
        if *self.peek() != stop {
            loop {
                self.decl_group()?;
                if !self.eat(Tok::Semi) || *self.peek() == stop {
                    break;
                }
            }
        }
        Ok(self.ast.decls_since(mark))
    }

    // ---- expressions ---------------------------------------------------

    /// One expression, by operator precedence over the explicit stacks:
    /// operand position and operator position alternate until the
    /// expression ends with no frame left open.
    fn expr(&mut self) -> PResult<ExprId> {
        let mut next = Next::Operand;
        loop {
            next = match next {
                Next::Operand => self.operand()?,
                Next::Primary(e) => {
                    self.operands.push(e);
                    self.operator()?
                }
                Next::Done(e) => return Ok(e),
            };
        }
    }

    /// The current token as a literal, if it is one.
    fn literal(&self) -> Option<Literal> {
        match self.peek() {
            Tok::Number => Some(self.lexer.number()),
            Tok::True => Some(Literal::Bool(true)),
            Tok::False => Some(Literal::Bool(false)),
            _ => None,
        }
    }

    /// The current token as messages show it: a number by its value.
    fn found(&self) -> String {
        match self.peek() {
            Tok::Number => self.lexer.number().to_string(),
            tok => tok.to_string(),
        }
    }

    /// Operand position: a primary, or an opening (a prefix operator,
    /// `(`, `if`, a call's `(`) pushed on the operator stack.
    fn operand(&mut self) -> PResult<Next> {
        let span = self.span();
        let tok = *self.peek();
        if let Some(lit) = self.literal() {
            self.bump();
            return Ok(Next::Primary(self.ast.push_lit(lit, span)));
        }
        let opened = match tok {
            Tok::LParen => Op::Frame(Frame::Paren),
            Tok::If => Op::Frame(Frame::If(IfPart::Cond, span)),
            Tok::Minus => Op::Pending(Operator::Prefix(Prefix::Neg, span)),
            Tok::Not => Op::Pending(Operator::Prefix(Prefix::Not, span)),
            Tok::Pre => Op::Pending(Operator::Prefix(Prefix::Pre, span)),
            Tok::Ident(f) => {
                self.bump();
                return Ok(self.name(f, span));
            }
            Tok::Merge => {
                self.bump();
                let x = self.ident()?;
                return self.merge_branch(x, span, None);
            }
            _ => {
                return self.error(
                    codes::E0104,
                    format!("expected expression, found `{}`", self.found()),
                )
            }
        };
        self.bump();
        self.ops.push(opened);
        Ok(Next::Operand)
    }

    /// After the name `f`: a variable, or a call `f(…)`, whose callee is
    /// recorded for the node.
    fn name(&mut self, f: Ident, span: Span) -> Next {
        if !self.eat(Tok::LParen) {
            return Next::Primary(self.ast.push(UExpr::Var(f, span)));
        }
        self.ast.push_callee(f);
        let base = self.operands.len();
        if self.eat(Tok::RParen) {
            return self.call(f, span, base);
        }
        self.ops.push(Op::Frame(Frame::Call(f, span, base)));
        Next::Operand
    }

    /// The call of `f` on the operands from `base` on, its `)` just
    /// consumed.
    fn call(&mut self, f: Ident, span: Span, base: usize) -> Next {
        let args = self.ast.push_args(self.operands, base);
        let span = span.merge(self.prev_span());
        Next::Primary(self.ast.push(UExpr::Call(f, args, span)))
    }

    /// A branch of `merge x` (`first` is the first branch once parsed):
    /// a variable, a literal, or a parenthesized expression, which opens
    /// a frame. A bare identifier is *never* treated as a call here, so
    /// that `merge x c (e)` parses as two branches rather than the call
    /// `c(e)`.
    fn merge_branch(&mut self, x: Ident, start: Span, first: Option<ExprId>) -> PResult<Next> {
        let span = self.span();
        let e = match *self.peek() {
            Tok::Ident(name) => self.ast.push(UExpr::Var(name, span)),
            Tok::LParen => {
                self.bump();
                self.ops.push(Op::Frame(Frame::Merge(x, start, first)));
                return Ok(Next::Operand);
            }
            _ => match self.literal() {
                Some(lit) => self.ast.push_lit(lit, span),
                None => {
                    return self.error(
                        codes::E0104,
                        format!(
                            "expected a merge branch (variable, literal or parenthesized \
                             expression), found `{}`",
                            self.found()
                        ),
                    )
                }
            },
        };
        self.bump();
        self.merge_branch_parsed(x, start, first, e)
    }

    /// Branch `e` of `merge x` is parsed: on to the second, or build the
    /// merge.
    fn merge_branch_parsed(
        &mut self,
        x: Ident,
        start: Span,
        first: Option<ExprId>,
        e: ExprId,
    ) -> PResult<Next> {
        match first {
            None => self.merge_branch(x, start, Some(e)),
            Some(t) => {
                let span = start.merge(self.espan(e));
                Ok(Next::Primary(self.ast.push(UExpr::Merge(x, t, e, span))))
            }
        }
    }

    /// Operator position, with a completed operand on top of the operand
    /// stack: extend it with binary and postfix operators, or end the
    /// innermost open expression and close its frame.
    fn operator(&mut self) -> PResult<Next> {
        // The level of the construct on top of the operand stack.
        let mut level = PREFIX;
        loop {
            let tok = *self.peek();
            if let Some((lvl, assoc, op)) = infix(tok) {
                level = self.reduce(lvl, assoc == Assoc::Right, level);
                let fits = if assoc == Assoc::Non {
                    level > lvl
                } else {
                    level >= lvl
                };
                if fits {
                    self.bump();
                    self.ops.push(Op::Pending(Operator::Binary(lvl, op)));
                    return Ok(Next::Operand);
                }
            } else if matches!(tok, Tok::When | Tok::Whenot) {
                // Postfix sampling, looser than comparisons: reduce
                // them first, then sample the operand in place (no
                // looser operator can be on top of it here).
                self.reduce(WHEN, true, level);
                self.bump();
                let polarity = tok == Tok::When && !self.eat(Tok::Not);
                let x = self.ident()?;
                let e = self.pop_operand();
                let span = self.espan(e).merge(self.prev_span());
                let sampled = self.ast.push(UExpr::When(e, x, polarity, span));
                self.operands.push(sampled);
                level = WHEN;
                continue;
            }
            // The token cannot continue the innermost open expression:
            // reduce what it holds and close its frame.
            loop {
                match self.ops.pop() {
                    Some(Op::Pending(op)) => self.apply(op),
                    Some(Op::Frame(frame)) => {
                        let e = self.pop_operand();
                        return self.close(frame, e);
                    }
                    None => return Ok(Next::Done(self.pop_operand())),
                }
            }
        }
    }

    /// Reduces the operators on top of the stack that bind tighter than
    /// an operator of level `lvl` (or as tight, unless `right`
    /// associative), stopping at a frame. Returns the level of the
    /// operand left on top: that of the last operator reduced, or
    /// `level` if none was.
    fn reduce(&mut self, lvl: u8, right: bool, mut level: u8) -> u8 {
        while let Some(&Op::Pending(op)) = self.ops.last() {
            let l = op.level();
            if l < lvl || (l == lvl && right) {
                break;
            }
            self.ops.pop();
            self.apply(op);
            level = l;
        }
        level
    }

    /// Applies `op` to the operands on top of the stack.
    fn apply(&mut self, op: Operator) {
        let e = self.pop_operand();
        let id = match op {
            Operator::Binary(_, bin) => {
                let l = self.pop_operand();
                let span = self.espan(l).merge(self.espan(e));
                self.ast.push(match bin {
                    Binary::Arrow => UExpr::Arrow(l, e, span),
                    Binary::Fby => UExpr::Fby(l, e, span),
                    Binary::Op(op) => UExpr::Binop(op, l, e, span),
                })
            }
            Operator::Prefix(prefix, start) => {
                let span = start.merge(self.espan(e));
                // Fold negation into literals so that `-1 fby x` has a
                // constant head. The folded literal is pushed after the
                // one it negates, which stays unused.
                let folded = match (prefix, self.ast[e]) {
                    (Prefix::Neg, UExpr::Lit(l, _)) => match self.ast.lit(l) {
                        Literal::Int(i) => Some(Literal::Int(-i)),
                        Literal::Float(x) => Some(Literal::Float(-x)),
                        Literal::Bool(_) => None,
                    },
                    _ => None,
                };
                match (folded, prefix) {
                    (Some(lit), _) => self.ast.push_lit(lit, span),
                    (None, Prefix::Neg) => self.ast.push(UExpr::Unop(SurfaceUnOp::Neg, e, span)),
                    (None, Prefix::Not) => self.ast.push(UExpr::Unop(SurfaceUnOp::Not, e, span)),
                    (None, Prefix::Pre) => self.ast.push(UExpr::Pre(e, span)),
                }
            }
        };
        self.operands.push(id);
    }

    fn pop_operand(&mut self) -> ExprId {
        self.operands.pop().expect("an operand is on the stack")
    }

    /// The expression `e` inside `frame` has ended at the next token:
    /// expect the frame's closing token and go on.
    fn close(&mut self, frame: Frame, e: ExprId) -> PResult<Next> {
        match frame {
            Frame::Paren => {
                self.expect(Tok::RParen)?;
                Ok(Next::Primary(e))
            }
            Frame::If(IfPart::Cond, span) => self.if_part(Tok::Then, IfPart::Then, span, e),
            Frame::If(IfPart::Then, span) => self.if_part(Tok::Else, IfPart::Else, span, e),
            Frame::If(IfPart::Else, span) => {
                let t = self.pop_operand();
                let c = self.pop_operand();
                let span = span.merge(self.espan(e));
                Ok(Next::Primary(self.ast.push(UExpr::If(c, t, e, span))))
            }
            Frame::Call(f, span, base) => {
                self.operands.push(e);
                if self.eat(Tok::Comma) {
                    self.ops.push(Op::Frame(frame));
                    return Ok(Next::Operand);
                }
                self.expect(Tok::RParen)?;
                Ok(self.call(f, span, base))
            }
            Frame::Merge(x, span, first) => {
                self.expect(Tok::RParen)?;
                self.merge_branch_parsed(x, span, first, e)
            }
        }
    }

    /// Part `e` of an `if` has ended: expect `tok`, then parse `part`.
    fn if_part(&mut self, tok: Tok, part: IfPart, span: Span, e: ExprId) -> PResult<Next> {
        self.expect(tok)?;
        self.operands.push(e);
        self.ops.push(Op::Frame(Frame::If(part, span)));
        Ok(Next::Operand)
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
        let callees = self.ast.callee_mark();
        self.bump(); // `node` or `function`
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let inputs = self.decl_list(Tok::RParen)?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Returns)?;
        self.expect(Tok::LParen)?;
        let outputs = self.decl_list(Tok::RParen)?;
        self.expect(Tok::RParen)?;
        self.eat(Tok::Semi);
        let locals = if self.eat(Tok::Var) {
            let ds = self.decl_list(Tok::Let)?;
            self.eat(Tok::Semi);
            ds
        } else {
            self.ast.decls_since(self.ast.decl_mark())
        };
        self.expect(Tok::Let)?;
        let eqs = self.ast.eq_mark();
        while *self.peek() != Tok::Tel {
            if *self.peek() == Tok::Eof {
                return self.error(
                    codes::E0103,
                    "unexpected end of file inside node body (missing `tel`?)",
                );
            }
            let eq = self.equation()?;
            self.ast.push_eq(eq);
        }
        let eqs = self.ast.eqs_since(eqs);
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
            callees: self.ast.callees_since(callees),
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
                _ => {
                    return self.error(
                        codes::E0104,
                        format!(
                            "expected `node`, `function` or `const`, found `{}`",
                            self.found()
                        ),
                    )
                }
            }
        }
    }
}

/// Parses `source` into a surface program, building expressions into
/// `arena` with `scratch` as working memory. The arena is cleared first;
/// ids in the result index it.
///
/// Tokens are lexed as the parser asks for them. When the parser stops,
/// successfully or not, the rest of the input is lexed too, and if the
/// source has any lexical error, those errors alone are reported: a
/// syntax error found in a source that does not lex is not reported.
///
/// # Errors
///
/// Every lexical error, or else the first syntax error, with positions.
pub fn parse(
    source: &str,
    arena: &mut UArena,
    scratch: &mut Scratch,
) -> Result<UProgram, Diagnostics> {
    arena.clear();
    let Scratch { operands, ops } = scratch;
    operands.clear();
    ops.clear();
    let mut p = Parser {
        lexer: Lexer::new(source),
        ast: arena,
        operands,
        ops,
    };
    let parsed = p.program();
    p.lexer.finish().into_result(())?;
    parsed
}

/// Convenience: [`parse`] into a fresh arena, returning the program
/// with its backing arena.
///
/// # Errors
///
/// Lexical and syntax errors.
pub fn parse_source(source: &str) -> Result<(UProgram, UArena), Diagnostics> {
    let mut arena = UArena::new();
    let prog = parse(source, &mut arena, &mut Scratch::new())?;
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
        assert!(matches!(a[a.eqs(n.eqs)[0].rhs], UExpr::If(..)));
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
            .lhs(a.eqs(p.nodes[0].eqs)[0].lhs)
            .iter()
            .map(|x| x.as_str())
            .collect();
        assert_eq!(lhs, ["speed", "position"]);
    }

    #[test]
    fn precedence_arrow_is_loosest() {
        let (p, a) =
            parse_source("node f(x: int) returns (y: int) let y = 0 -> x + 1; tel").unwrap();
        match a[a.eqs(p.nodes[0].eqs)[0].rhs] {
            UExpr::Arrow(_, rhs, _) => assert!(matches!(a[rhs], UExpr::Binop(..))),
            other => panic!("expected arrow at top, got {other:?}"),
        }
    }

    #[test]
    fn precedence_fby_binds_like_arrow() {
        let (p, a) =
            parse_source("node f(x: int) returns (y: int) let y = 0 fby y + x; tel").unwrap();
        match a[a.eqs(p.nodes[0].eqs)[0].rhs] {
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
        match a[a.eqs(p.nodes[0].eqs)[0].rhs] {
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
                a[a.eqs(p.nodes[0].eqs)[0].rhs],
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
        let d = &a.decls(p.nodes[0].locals)[0];
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
        match a[a.eqs(p.nodes[0].eqs)[0].rhs] {
            UExpr::Fby(init, _, _) => {
                assert!(matches!(a[init], UExpr::Lit(l, _) if a.lit(l) == Literal::Int(-3)))
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
