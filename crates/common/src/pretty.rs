//! A minimal indentation-aware code writer.
//!
//! Used by the C pretty-printer and the IR dump routines. The writer keeps
//! an indentation level; [`Printer::line`] emits a fully indented line and
//! [`Printer::block`] runs a closure one level deeper. Indentation stops
//! growing at [`MAX_INDENT_LEVELS`], so deeply nested input cannot
//! inflate the output quadratically.
//!
//! # Examples
//!
//! ```
//! use velus_common::pretty::Printer;
//!
//! let mut p = Printer::new();
//! p.line("if (x) {");
//! p.block(|p| p.line("y = 1;"));
//! p.line("}");
//! assert_eq!(p.finish(), "if (x) {\n  y = 1;\n}\n");
//! ```

/// The deepest indentation level any printer renders: lines nested
/// deeper keep this indent. Shared by [`Printer`] and the C emitter, it
/// bounds the leading whitespace of a line by a constant, so output size
/// stays linear in input size however deep the nesting.
pub const MAX_INDENT_LEVELS: usize = 16;

/// Indentation-aware text accumulator.
#[derive(Debug, Default)]
pub struct Printer {
    buf: String,
    indent: usize,
    width: usize,
}

impl Printer {
    /// Creates a printer indenting by two spaces.
    pub fn new() -> Printer {
        Printer::with_indent(2)
    }

    /// Creates a printer indenting by `width` spaces per level.
    pub fn with_indent(width: usize) -> Printer {
        Printer {
            buf: String::new(),
            indent: 0,
            width,
        }
    }

    /// Emits one indented line followed by a newline.
    pub fn line(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        if text.is_empty() {
            self.buf.push('\n');
            return;
        }
        self.push_indent();
        self.buf.push_str(text);
        self.buf.push('\n');
    }

    /// Emits one indented line from preformatted [`std::fmt::Arguments`],
    /// streaming straight into the accumulator: `p.line_args(
    /// format_args!("{x} := {e};"))` renders without the intermediate
    /// `String` that `p.line(format!(…))` would allocate.
    pub fn line_args(&mut self, args: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        self.push_indent();
        self.buf
            .write_fmt(args)
            .expect("writing to a String cannot fail");
        self.buf.push('\n');
    }

    fn push_indent(&mut self) {
        for _ in 0..self.indent.min(MAX_INDENT_LEVELS) * self.width {
            self.buf.push(' ');
        }
    }

    /// Emits a blank line.
    pub fn blank(&mut self) {
        self.buf.push('\n');
    }

    /// Runs `f` with the indentation level increased by one.
    pub fn block<R>(&mut self, f: impl FnOnce(&mut Printer) -> R) -> R {
        self.indent += 1;
        let r = f(self);
        self.indent -= 1;
        r
    }

    /// Returns the accumulated text.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Borrow of the accumulated text so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting() {
        let mut p = Printer::new();
        p.line("a");
        p.block(|p| {
            p.line("b");
            p.block(|p| p.line("c"));
        });
        p.line("d");
        assert_eq!(p.finish(), "a\n  b\n    c\nd\n");
    }

    #[test]
    fn indentation_stops_at_the_cap() {
        fn nest(p: &mut Printer, depth: usize) {
            if depth == 0 {
                p.line("x");
            } else {
                p.block(|p| nest(p, depth - 1));
            }
        }
        let mut p = Printer::new();
        nest(&mut p, MAX_INDENT_LEVELS + 10);
        assert_eq!(
            p.finish(),
            format!("{}x\n", " ".repeat(2 * MAX_INDENT_LEVELS))
        );
    }

    #[test]
    fn empty_lines_are_not_indented() {
        let mut p = Printer::new();
        p.block(|p| {
            p.line("");
            p.blank();
        });
        assert_eq!(p.finish(), "\n\n");
    }
}
