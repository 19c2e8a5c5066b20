//! Source locations.

use std::cell::OnceCell;
use std::fmt;

/// A half-open byte range `[start, end)` into a source file.
///
/// # Examples
///
/// ```
/// use velus_common::Span;
///
/// let s = Span::new(3, 7);
/// assert_eq!(s.len(), 4);
/// assert!(Span::DUMMY.is_dummy());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// The span used for synthesized nodes with no source position.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span from byte offsets.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[inline]
    pub fn new(start: u32, end: u32) -> Span {
        assert!(end >= start, "span end before start");
        Span { start, end }
    }

    /// Length of the span in bytes.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether this is the dummy (no-position) span.
    #[inline]
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// A dummy operand is absorbed by the other span.
    #[inline]
    pub fn merge(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// A 1-based line/column position resolved from a [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl Loc {
    /// Resolves a byte `offset` within `source` to a line/column position.
    pub fn of_offset(source: &str, offset: u32) -> Loc {
        let upto = &source[..(offset as usize).min(source.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        let col = match upto.rfind('\n') {
            Some(i) => (upto.len() - i) as u32,
            None => upto.len() as u32 + 1,
        };
        Loc { line, col }
    }
}

/// The line starts of one source text, so that resolving many offsets
/// costs one pass over the source plus a binary search each, instead of
/// a rescan from the start of the source for every offset. The index is
/// built on first use: a rendering whose spans are all dummies never
/// scans the source.
pub(crate) struct LineIndex<'s> {
    source: &'s str,
    starts: OnceCell<Vec<u32>>,
}

impl<'s> LineIndex<'s> {
    /// An index of `source`, not built yet.
    pub(crate) fn new(source: &'s str) -> LineIndex<'s> {
        LineIndex {
            source,
            starts: OnceCell::new(),
        }
    }

    /// The indexed source text.
    pub(crate) fn source(&self) -> &'s str {
        self.source
    }

    /// The byte offset at which each line starts.
    fn starts(&self) -> &[u32] {
        self.starts.get_or_init(|| {
            let newlines = self.source.bytes().enumerate().filter(|&(_, b)| b == b'\n');
            std::iter::once(0)
                .chain(newlines.map(|(i, _)| i as u32 + 1))
                .collect()
        })
    }

    /// The position of byte `offset`, as [`Loc::of_offset`] resolves it.
    pub(crate) fn loc(&self, offset: u32) -> Loc {
        let offset = offset.min(self.source.len() as u32);
        let starts = self.starts();
        let line = starts.partition_point(|&start| start <= offset);
        Loc {
            line: line as u32,
            col: offset - starts[line - 1] + 1,
        }
    }

    /// The text of 1-based line `line`, as `source.lines().nth(line - 1)`
    /// gives it: without its `\n` or `\r\n`, and `None` past the last line.
    pub(crate) fn line(&self, line: u32) -> Option<&'s str> {
        let starts = self.starts();
        let k = (line as usize).checked_sub(1)?;
        let start = *starts.get(k)? as usize;
        match starts.get(k + 1) {
            Some(&next) => {
                let text = &self.source[start..next as usize - 1];
                Some(text.strip_suffix('\r').unwrap_or(text))
            }
            None if start < self.source.len() => Some(&self.source[start..]),
            None => None,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A value paired with the source span it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spanned<T> {
    /// The wrapped value.
    pub node: T,
    /// Where it appeared in the source.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs `node` with `span`.
    pub fn new(node: T, span: Span) -> Spanned<T> {
        Spanned { node, span }
    }

    /// Maps the wrapped value, keeping the span.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Spanned<U> {
        Spanned {
            node: f(self.node),
            span: self.span,
        }
    }
}

/// Source spans of one elaborated node: the header plus one span per
/// defined variable (each normalized equation defines at least one
/// variable, so keying by defined variable survives scheduling's
/// reordering and normalization's fresh equations alike).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSpans {
    /// The node header's span.
    pub span: Span,
    /// Defined variable → span of the source equation it came from
    /// (fresh variables inherit the span of the equation they were
    /// extracted from).
    pub eqs: crate::IdentMap<Span>,
}

/// The elaborator's record of where every node and equation came from.
///
/// This is what lets mid-end failures — a scheduling cycle, a typing
/// violation found by a re-check, a translation-validation mismatch —
/// point back at real source equations long after the surface AST (and
/// its spans) are gone. The map rides alongside the N-Lustre program
/// through scheduling and beyond; lookups are by node and defined
/// variable, both of which every later IR still knows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanMap {
    nodes: crate::IdentMap<NodeSpans>,
}

impl SpanMap {
    /// An empty map (every lookup yields [`Span::DUMMY`]).
    pub fn new() -> SpanMap {
        SpanMap::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a node header span.
    pub fn record_node(&mut self, node: crate::Ident, span: Span) {
        self.nodes.entry(node).or_default().span = span;
    }

    /// Inserts a whole node's spans at once (the normalizer builds the
    /// per-node map with the right capacity and hands it over — cheaper
    /// than growing through `record_eq` on the compile hot path).
    pub fn insert_node(&mut self, node: crate::Ident, spans: NodeSpans) {
        self.nodes.insert(node, spans);
    }

    /// Records the source span of the equation defining `var` in `node`.
    pub fn record_eq(&mut self, node: crate::Ident, var: crate::Ident, span: Span) {
        self.nodes.entry(node).or_default().eqs.insert(var, span);
    }

    /// The header span of `node`; [`Span::DUMMY`] when unrecorded.
    pub fn node_span(&self, node: crate::Ident) -> Span {
        self.nodes.get(&node).map_or(Span::DUMMY, |n| n.span)
    }

    /// The span of the equation defining `var` in `node`, falling back
    /// to the node header, then to [`Span::DUMMY`].
    pub fn eq_span(&self, node: crate::Ident, var: crate::Ident) -> Span {
        match self.nodes.get(&node) {
            Some(n) => n.eqs.get(&var).copied().unwrap_or(n.span),
            None => Span::DUMMY,
        }
    }

    /// The span of the equation defining `var`, searched in `node` when
    /// given, otherwise across every recorded node (first hit wins —
    /// good enough for diagnostics on errors that lost their node
    /// context).
    pub fn var_span(&self, node: Option<crate::Ident>, var: crate::Ident) -> Span {
        match node {
            Some(n) => self.eq_span(n, var),
            None => self
                .nodes
                .values()
                .find_map(|n| n.eqs.get(&var).copied())
                .unwrap_or(Span::DUMMY),
        }
    }
}

/// The normalizer's record of which memory (`fby`) variables were
/// introduced by desugaring a surface `pre` — as opposed to an explicit
/// `c fby e`, whose initial value the programmer chose.
///
/// The semantic initialization analysis (`velus-analysis`) treats only
/// these memories as suspect at the first instant: an explicit `fby`
/// initializer is a real value, while a `pre`'s synthesized default may
/// leak to an output before any real value does. Each mark keeps the
/// span of the originating `pre` token so the warning points at the
/// source construct, not at a compiler-generated equation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PreMarks {
    nodes: crate::IdentMap<crate::IdentMap<Span>>,
}

impl PreMarks {
    /// An empty table (no `pre` anywhere).
    pub fn new() -> PreMarks {
        PreMarks::default()
    }

    /// Whether no marks were recorded at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.values().all(|vars| vars.is_empty())
    }

    /// Records that memory variable `var` of `node` came from a `pre`
    /// whose token occupied `span`.
    pub fn record(&mut self, node: crate::Ident, var: crate::Ident, span: Span) {
        self.nodes.entry(node).or_default().insert(var, span);
    }

    /// The marks of `node`: memory variable → span of the originating
    /// `pre`. Empty for nodes with no marks.
    pub fn of_node(&self, node: crate::Ident) -> impl Iterator<Item = (crate::Ident, Span)> + '_ {
        self.nodes
            .get(&node)
            .into_iter()
            .flat_map(|vars| vars.iter().map(|(v, s)| (*v, *s)))
    }

    /// The span of the `pre` that introduced `var` in `node`, if any.
    pub fn get(&self, node: crate::Ident, var: crate::Ident) -> Option<Span> {
        self.nodes
            .get(&node)
            .and_then(|vars| vars.get(&var))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_marks_record_and_lookup() {
        let mut m = PreMarks::new();
        assert!(m.is_empty());
        let (f, v) = (crate::Ident::new("f"), crate::Ident::new("n#fby"));
        m.record(f, v, Span::new(3, 6));
        assert!(!m.is_empty());
        assert_eq!(m.get(f, v), Some(Span::new(3, 6)));
        assert_eq!(m.get(v, f), None);
        assert_eq!(m.of_node(f).collect::<Vec<_>>(), vec![(v, Span::new(3, 6))]);
    }

    #[test]
    fn span_map_survives_reordering_lookups() {
        let mut m = SpanMap::new();
        let (f, x, y) = (
            crate::Ident::new("f"),
            crate::Ident::new("x"),
            crate::Ident::new("y"),
        );
        m.record_node(f, Span::new(0, 4));
        m.record_eq(f, x, Span::new(10, 20));
        assert_eq!(m.eq_span(f, x), Span::new(10, 20));
        // Unrecorded variables fall back to the node header…
        assert_eq!(m.eq_span(f, y), Span::new(0, 4));
        // …and unrecorded nodes to the dummy span.
        assert_eq!(m.eq_span(y, x), Span::DUMMY);
        // Node-less lookup searches every node.
        assert_eq!(m.var_span(None, x), Span::new(10, 20));
        assert_eq!(m.var_span(None, y), Span::DUMMY);
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(b.merge(a), Span::new(2, 9));
    }

    #[test]
    fn merge_absorbs_dummy() {
        let a = Span::new(2, 5);
        assert_eq!(a.merge(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.merge(a), a);
    }

    #[test]
    fn loc_resolution() {
        let src = "node f()\nreturns ();\nlet tel";
        assert_eq!(Loc::of_offset(src, 0), Loc { line: 1, col: 1 });
        assert_eq!(Loc::of_offset(src, 5), Loc { line: 1, col: 6 });
        assert_eq!(Loc::of_offset(src, 9), Loc { line: 2, col: 1 });
        assert_eq!(Loc::of_offset(src, 10), Loc { line: 2, col: 2 });
    }

    #[test]
    fn the_line_index_resolves_every_offset_like_a_rescan() {
        // CRLF and LF endings, an empty line, a multi-byte character, and
        // a last line without a newline (ending in a lone `\r`).
        for src in [
            "node f()\r\nreturns ();\n\nlet é = 1;\r\ntel\r",
            "a\n",
            "",
            "\n\r\n",
            "x",
        ] {
            let index = LineIndex::new(src);
            for offset in 0..=src.len() as u32 + 2 {
                if !src.is_char_boundary((offset as usize).min(src.len())) {
                    continue;
                }
                let loc = Loc::of_offset(src, offset);
                assert_eq!(index.loc(offset), loc, "{src:?} at {offset}");
                assert_eq!(
                    index.line(loc.line),
                    src.lines().nth(loc.line as usize - 1),
                    "{src:?} line {}",
                    loc.line
                );
            }
            let lines = src.lines().count() as u32;
            assert_eq!(index.line(lines + 1), None, "{src:?}");
            assert_eq!(index.line(0), None);
        }
    }

    #[test]
    fn loc_clamps_past_end() {
        let l = Loc::of_offset("ab", 100);
        assert_eq!(l.line, 1);
    }

    #[test]
    #[should_panic(expected = "span end before start")]
    fn invalid_span_panics() {
        let _ = Span::new(5, 2);
    }
}
