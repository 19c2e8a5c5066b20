//! The Lustre lexer.
//!
//! Hand-written (the paper generates one with ocamllex). Supports `--`
//! line comments and `(* … *)` block comments, decimal integer and float
//! literals, and the keyword/operator set of the surface language.
//!
//! It is a pull lexer: the parser asks a [`Lexer`] for one token at a
//! time, so lexing and parsing are one pass over the source and no
//! token buffer exists. [`lex`] collects every token, for tests.

use std::fmt;

use velus_common::{codes, Code, DiagStage, Diagnostic, Diagnostics, Ident, Span};
use velus_ops::Literal;

/// A lexical token.
///
/// Identifiers are interned at lexing time, and a number's value stays
/// in the lexer ([`Lexer::number`]), which keeps `Tok` a word: it is
/// `Copy` and moves in a register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok {
    /// An identifier (interned).
    Ident(Ident),
    /// An integer or floating-point literal.
    Number,
    // Keywords.
    /// `node`
    Node,
    /// `function` (accepted as a synonym of `node`)
    Function,
    /// `returns`
    Returns,
    /// `var`
    Var,
    /// `let`
    Let,
    /// `tel`
    Tel,
    /// `const`
    Const,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `when`
    When,
    /// `whenot` (alias for `when not`)
    Whenot,
    /// `merge`
    Merge,
    /// `fby`
    Fby,
    /// `pre`
    Pre,
    /// `not`
    Not,
    /// `and`
    And,
    /// `or`
    Or,
    /// `xor`
    Xor,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `true`
    True,
    /// `false`
    False,
    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `->`
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Number => f.write_str("number"),
            Tok::Node => f.write_str("node"),
            Tok::Function => f.write_str("function"),
            Tok::Returns => f.write_str("returns"),
            Tok::Var => f.write_str("var"),
            Tok::Let => f.write_str("let"),
            Tok::Tel => f.write_str("tel"),
            Tok::Const => f.write_str("const"),
            Tok::If => f.write_str("if"),
            Tok::Then => f.write_str("then"),
            Tok::Else => f.write_str("else"),
            Tok::When => f.write_str("when"),
            Tok::Whenot => f.write_str("whenot"),
            Tok::Merge => f.write_str("merge"),
            Tok::Fby => f.write_str("fby"),
            Tok::Pre => f.write_str("pre"),
            Tok::Not => f.write_str("not"),
            Tok::And => f.write_str("and"),
            Tok::Or => f.write_str("or"),
            Tok::Xor => f.write_str("xor"),
            Tok::Div => f.write_str("div"),
            Tok::Mod => f.write_str("mod"),
            Tok::True => f.write_str("true"),
            Tok::False => f.write_str("false"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Colon => f.write_str(":"),
            Tok::Eq => f.write_str("="),
            Tok::Neq => f.write_str("<>"),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::Slash => f.write_str("/"),
            Tok::Arrow => f.write_str("->"),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Its position.
    pub span: Span,
}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "node" => Tok::Node,
        "function" => Tok::Function,
        "returns" => Tok::Returns,
        "var" => Tok::Var,
        "let" => Tok::Let,
        "tel" => Tok::Tel,
        "const" => Tok::Const,
        "if" => Tok::If,
        "then" => Tok::Then,
        "else" => Tok::Else,
        "when" => Tok::When,
        "whenot" => Tok::Whenot,
        "merge" => Tok::Merge,
        "fby" => Tok::Fby,
        "pre" => Tok::Pre,
        "not" => Tok::Not,
        "and" => Tok::And,
        "or" => Tok::Or,
        "xor" => Tok::Xor,
        "div" => Tok::Div,
        "mod" => Tok::Mod,
        "true" => Tok::True,
        "false" => Tok::False,
        _ => return None,
    })
}

/// Whether `c` continues an identifier.
#[inline]
fn ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whether `c` can begin a token (or whitespace) — used to delimit runs
/// of unexpected characters so each run costs one diagnostic, not one
/// per probed character.
#[inline]
fn starts_token(c: u8) -> bool {
    c.is_ascii_whitespace()
        || c.is_ascii_alphanumeric()
        || matches!(
            c,
            b'_' | b'('
                | b')'
                | b','
                | b';'
                | b':'
                | b'='
                | b'<'
                | b'>'
                | b'+'
                | b'-'
                | b'*'
                | b'/'
        )
}

/// A pull lexer: it holds the current token ([`Lexer::token`]) and the
/// span of the one consumed last ([`Lexer::prev_span`]), all an LL(1)
/// parser looks at, and [`Lexer::next_token`] scans the next token of
/// the source on demand, so no token buffer exists.
///
/// Lexical errors (unterminated comments, malformed numbers, runs of
/// unexpected characters) are recorded as they are met and the input
/// they cover is skipped, so the token stream is the same whether or
/// not the input has errors. [`Lexer::finish`] lexes the rest of the
/// input and returns what was recorded.
#[derive(Debug)]
pub struct Lexer<'s> {
    source: &'s str,
    pos: usize,
    errs: Diagnostics,
    /// The current token and the one consumed last, in turns: the
    /// current one is `toks[cur]`.
    toks: [Token; 2],
    cur: usize,
    /// The value of the number lexed last.
    number: Literal,
}

impl<'s> Lexer<'s> {
    /// A lexer on the first token of `source`.
    pub fn new(source: &'s str) -> Self {
        let mut lexer = Lexer {
            source,
            pos: 0,
            errs: Diagnostics::new(),
            toks: [Token {
                tok: Tok::Eof,
                span: Span::DUMMY,
            }; 2],
            cur: 0,
            number: Literal::Int(0),
        };
        lexer.scan();
        // Before anything is consumed, the last token is the first.
        lexer.toks[1] = lexer.toks[0];
        lexer
    }

    /// The current token: the next one not yet consumed.
    #[inline]
    pub fn token(&self) -> &Token {
        &self.toks[self.cur]
    }

    /// The value of the current token, when it is a [`Tok::Number`].
    #[inline]
    pub fn number(&self) -> Literal {
        self.number
    }

    /// The span of the token consumed last.
    #[inline]
    pub fn prev_span(&self) -> Span {
        self.toks[self.cur ^ 1].span
    }

    /// Consumes the current token and scans the next one. The end of
    /// input ([`Tok::Eof`], spanning the empty end of the source) is
    /// never consumed.
    #[inline]
    pub fn next_token(&mut self) {
        if !matches!(self.token().tok, Tok::Eof) {
            self.cur ^= 1;
            self.scan();
        }
    }

    /// Scans the token at the current position into `toks[cur]`,
    /// dispatching on its first byte.
    fn scan(&mut self) {
        let bytes = self.source.as_bytes();
        let n = bytes.len();
        loop {
            let mut i = self.pos;
            while i < n && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            self.pos = i;
            let Some(&c) = bytes.get(i) else {
                self.toks[self.cur] = Token {
                    tok: Tok::Eof,
                    span: Span::new(n as u32, n as u32),
                };
                return;
            };
            let next = bytes.get(i + 1).copied();
            let (tok, len) = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.scan_ident(i),
                b'0'..=b'9' => match self.scan_number(i) {
                    Some(t) => t,
                    None => continue,
                },
                // A line comment runs to the end of the line.
                b'-' if next == Some(b'-') => {
                    self.pos = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(n, |k| i + k);
                    continue;
                }
                b'(' if next == Some(b'*') => {
                    self.block_comment(i);
                    continue;
                }
                b'-' if next == Some(b'>') => (Tok::Arrow, 2),
                b'<' if next == Some(b'>') => (Tok::Neq, 2),
                b'<' if next == Some(b'=') => (Tok::Le, 2),
                b'>' if next == Some(b'=') => (Tok::Ge, 2),
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b',' => (Tok::Comma, 1),
                b';' => (Tok::Semi, 1),
                b':' => (Tok::Colon, 1),
                b'=' => (Tok::Eq, 1),
                b'<' => (Tok::Lt, 1),
                b'>' => (Tok::Gt, 1),
                b'+' => (Tok::Plus, 1),
                b'-' => (Tok::Minus, 1),
                b'*' => (Tok::Star, 1),
                b'/' => (Tok::Slash, 1),
                _ => {
                    self.unexpected(i);
                    continue;
                }
            };
            self.pos = i + len;
            self.toks[self.cur] = Token {
                tok,
                span: Span::new(i as u32, (i + len) as u32),
            };
            return;
        }
    }

    /// Lexes the rest of the input and returns every lexical error of
    /// the whole source, in source order.
    pub fn finish(mut self) -> Diagnostics {
        while !matches!(self.token().tok, Tok::Eof) {
            self.next_token();
        }
        self.errs
    }

    fn error(&mut self, code: Code, msg: String, start: usize, end: usize) {
        self.errs.push(
            Diagnostic::error(code, msg, Span::new(start as u32, end as u32))
                .at_stage(DiagStage::Lex),
        );
    }

    /// An identifier or keyword starting at `i`, and its length.
    fn scan_ident(&mut self, i: usize) -> (Tok, usize) {
        let bytes = self.source.as_bytes();
        let mut j = i + 1;
        while j < bytes.len() && ident_char(bytes[j]) {
            j += 1;
        }
        let word = &self.source[i..j];
        let tok = keyword(word).unwrap_or_else(|| Tok::Ident(Ident::new(word)));
        (tok, j - i)
    }

    /// An integer or float literal starting at `i`, and its length;
    /// `None` when it is malformed (the error is recorded and the literal
    /// skipped).
    fn scan_number(&mut self, i: usize) -> Option<(Tok, usize)> {
        let bytes = self.source.as_bytes();
        let n = bytes.len();
        let digits = |mut j: usize| {
            while j < n && bytes[j].is_ascii_digit() {
                j += 1;
            }
            j
        };
        let mut j = digits(i);
        let mut is_float = false;
        if j + 1 < n && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
            is_float = true;
            j = digits(j + 1);
        }
        if j < n && (bytes[j] == b'e' || bytes[j] == b'E') {
            let mut k = j + 1;
            if k < n && (bytes[k] == b'+' || bytes[k] == b'-') {
                k += 1;
            }
            if k < n && bytes[k].is_ascii_digit() {
                is_float = true;
                j = digits(k + 1);
            }
        }
        self.pos = j;
        let text = &self.source[i..j];
        let number = if is_float {
            text.parse::<f64>().ok().map(Literal::Float)
        } else {
            text.parse::<i128>().ok().map(Literal::Int)
        };
        if let Some(number) = number {
            self.number = number;
        } else {
            let what = if is_float { "float" } else { "integer" };
            self.error(
                codes::E0105,
                format!("malformed {what} literal `{text}`"),
                i,
                j,
            );
        }
        number.map(|_| (Tok::Number, j - i))
    }

    /// Skips a block comment `(* … *)` starting at `i`; comments nest.
    fn block_comment(&mut self, start: usize) {
        let bytes = self.source.as_bytes();
        let n = bytes.len();
        let mut depth = 1;
        let mut i = start + 2;
        while i < n && depth > 0 {
            if bytes[i] == b'(' && i + 1 < n && bytes[i + 1] == b'*' {
                depth += 1;
                i += 2;
            } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b')' {
                depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
        }
        self.pos = i;
        if depth > 0 {
            self.error(codes::E0102, "unterminated comment".to_owned(), start, n);
        }
    }

    /// Skips the run of unexpected characters starting at `i` with one
    /// diagnostic. The run steps over complete UTF-8 sequences, so both
    /// the span and the next lexer state sit on character boundaries
    /// (non-ASCII input must lex to a diagnostic, not a panic), and the
    /// message is formatted once per run, not once per character.
    fn unexpected(&mut self, i: usize) {
        let bytes = self.source.as_bytes();
        let ch = self.source[i..].chars().next().expect("in bounds");
        let mut j = i + ch.len_utf8();
        while j < bytes.len() && !starts_token(bytes[j]) {
            let ch2 = self.source[j..].chars().next().expect("on boundary");
            j += ch2.len_utf8();
        }
        let msg = if j == i + ch.len_utf8() {
            format!("unexpected character `{ch}`")
        } else {
            format!("unexpected characters `{}`", &self.source[i..j])
        };
        self.pos = j;
        self.error(codes::E0101, msg, i, j);
    }
}

/// Tokenizes all of `source`, ending with [`Tok::Eof`]: a loop over the
/// pull lexer, for tests.
///
/// # Errors
///
/// Unterminated comments, malformed numbers and unexpected characters:
/// every one in the source.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostics> {
    let mut lexer = Lexer::new(source);
    let mut out = Vec::new();
    loop {
        out.push(*lexer.token());
        if lexer.token().tok == Tok::Eof {
            return lexer.finish().into_result(out);
        }
        lexer.next_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("node counter tel"),
            vec![
                Tok::Node,
                Tok::Ident(Ident::new("counter")),
                Tok::Tel,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        for (src, value) in [
            ("42", Literal::Int(42)),
            ("3.5", Literal::Float(3.5)),
            ("1e3", Literal::Float(1000.0)),
            (
                "0170141183460469231731687303715884105727",
                Literal::Int(i128::MAX),
            ),
        ] {
            let lexer = Lexer::new(src);
            assert_eq!(lexer.token().tok, Tok::Number, "{src}");
            assert_eq!(lexer.number(), value, "{src}");
        }
        assert_eq!(toks("42"), vec![Tok::Number, Tok::Eof]);
        assert!(lex("170141183460469231731687303715884105728").is_err());
        // A bare dot is not part of the language.
        assert!(lex("1 .").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a -> b <> c <= d"),
            vec![
                Tok::Ident(Ident::new("a")),
                Tok::Arrow,
                Tok::Ident(Ident::new("b")),
                Tok::Neq,
                Tok::Ident(Ident::new("c")),
                Tok::Le,
                Tok::Ident(Ident::new("d")),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments() {
        assert_eq!(toks("a -- to end of line\nb"), toks("a b"));
        assert_eq!(toks("a (* nested (* ok *) still *) b"), toks("a b"));
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("a (* whoops").is_err());
    }

    #[test]
    fn minus_minus_needs_spacing() {
        // `a - -1` is subtraction of a negated literal, not a comment.
        assert_eq!(
            toks("a - - 1"),
            vec![
                Tok::Ident(Ident::new("a")),
                Tok::Minus,
                Tok::Minus,
                Tok::Number,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_point_into_the_source() {
        let ts = lex("ab cd").unwrap();
        assert_eq!(ts[1].span, Span::new(3, 5));
    }

    #[test]
    fn unexpected_character_runs_coalesce() {
        // A run of stray characters yields one diagnostic covering the
        // whole run, not one per character.
        let errs = lex("a @#$ b").unwrap_err();
        assert_eq!(errs.iter().count(), 1);
        assert!(errs.iter().next().unwrap().message.contains("@#$"));
        // A single stray character keeps the singular message.
        let errs = lex("a ? b").unwrap_err();
        let msg = &errs.iter().next().unwrap().message;
        assert!(msg.contains("unexpected character `?`"), "{msg}");
    }
}
