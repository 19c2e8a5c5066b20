//! Semantic and structural errors of the dataflow layer.

use std::fmt;

use velus_common::{
    codes, Code, Diagnostic, Diagnostics, Ident, NodeId, Span, SpanMap, ToDiagnostics,
};

/// Errors raised by the semantic models and the scheduling passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemError {
    /// A variable with no defining equation (and not an input) was read.
    UndefinedVariable(Ident),
    /// A node instantiation names no node before the caller (a later
    /// node, which would allow recursion, or one past the program's end).
    UnknownNode(NodeId),
    /// The demand-driven evaluation looped: instantaneous dependency cycle.
    CausalityLoop(Ident),
    /// An operator was applied outside its domain (e.g. division by zero).
    UndefinedOperation(String),
    /// A clocking inconsistency surfaced at run time (should have been
    /// ruled out by clock checking).
    ClockError(String),
    /// A value failed the typing judgment at run time (should have been
    /// ruled out by type checking).
    TypeError(String),
    /// Inputs of mismatched arity or length were supplied to a node.
    InputMismatch(String),
    /// The equations of a node cannot be scheduled (dependency cycle).
    SchedulingCycle(Ident, Vec<Ident>),
    /// A schedule failed validation.
    BadSchedule(String),
    /// A structural well-formedness violation (duplicate names, …).
    Malformed(String),
    /// An error located in a node, optionally at the equation defining
    /// `var` — the context the checkers attach so [`ToDiagnostics`] can
    /// resolve a real source span through the `SpanMap`.
    InNode {
        /// The node the inner error was found in.
        node: Ident,
        /// The variable whose defining equation is at fault, if known.
        var: Option<Ident>,
        /// The underlying error.
        inner: Box<SemError>,
    },
}

impl SemError {
    /// Wraps the error with node context (no-op on already-wrapped
    /// errors: the innermost context is the most precise).
    #[must_use]
    pub fn in_node(self, node: Ident) -> SemError {
        self.in_node_at(node, None)
    }

    /// Wraps the error with node context and the defining variable of
    /// the offending equation.
    #[must_use]
    pub fn in_node_at(self, node: Ident, var: Option<Ident>) -> SemError {
        match self {
            SemError::InNode { .. } => self,
            inner => SemError::InNode {
                node,
                var,
                inner: Box::new(inner),
            },
        }
    }

    /// The error inside any `InNode` context wrappers (what tests and
    /// callers that dispatch on the failure kind should match on).
    pub fn innermost(&self) -> &SemError {
        match self {
            SemError::InNode { inner, .. } => inner.innermost(),
            other => other,
        }
    }

    /// The stable diagnostic code of the (innermost) error.
    pub fn code(&self) -> Code {
        match self {
            SemError::UndefinedVariable(_) => codes::E0401,
            SemError::UnknownNode(_) => codes::E0402,
            SemError::CausalityLoop(_) => codes::E0403,
            SemError::UndefinedOperation(_) => codes::E0404,
            SemError::ClockError(_) => codes::E0405,
            SemError::TypeError(_) => codes::E0406,
            SemError::InputMismatch(_) => codes::E0407,
            SemError::SchedulingCycle(..) => codes::E0408,
            SemError::BadSchedule(_) => codes::E0409,
            SemError::Malformed(_) => codes::E0410,
            SemError::InNode { inner, .. } => inner.code(),
        }
    }
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::UndefinedVariable(x) => write!(f, "undefined variable {x}"),
            SemError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SemError::CausalityLoop(x) => write!(f, "causality loop through variable {x}"),
            SemError::UndefinedOperation(m) => write!(f, "undefined operation: {m}"),
            SemError::ClockError(m) => write!(f, "clock inconsistency: {m}"),
            SemError::TypeError(m) => write!(f, "type inconsistency: {m}"),
            SemError::InputMismatch(m) => write!(f, "input mismatch: {m}"),
            SemError::SchedulingCycle(node, vars) => {
                let vars: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "dependency cycle in node {node} through {}",
                    vars.join(" -> ")
                )
            }
            SemError::BadSchedule(m) => write!(f, "invalid schedule: {m}"),
            SemError::Malformed(m) => write!(f, "malformed program: {m}"),
            SemError::InNode { node, inner, .. } => write!(f, "in node {node}: {inner}"),
        }
    }
}

impl std::error::Error for SemError {}

impl ToDiagnostics for SemError {
    /// One diagnostic per error, with the span resolved through the
    /// context the error carries: an `InNode` wrapper points at the
    /// offending equation (or the node header), a scheduling cycle
    /// points at the first equation on the cycle and annotates the
    /// rest as notes.
    fn to_diagnostics(&self, spans: &SpanMap) -> Diagnostics {
        let d = match self {
            SemError::SchedulingCycle(node, vars) => {
                let primary = vars
                    .first()
                    .map_or_else(|| spans.node_span(*node), |v| spans.eq_span(*node, *v));
                let mut d = Diagnostic::error(self.code(), self.to_string(), primary);
                for v in vars.iter().skip(1) {
                    let sp = spans.eq_span(*node, *v);
                    if !sp.is_dummy() {
                        d = d.with_note(format!("the cycle passes through `{v}`"), sp);
                    }
                }
                d
            }
            SemError::InNode { node, var, inner } => {
                let span = match var {
                    Some(v) => spans.eq_span(*node, *v),
                    None => spans.node_span(*node),
                };
                let mut d = Diagnostic::error(inner.code(), self.to_string(), span);
                let header = spans.node_span(*node);
                if !header.is_dummy() && header != span {
                    d = d.with_note(format!("in node `{node}`"), header);
                }
                d
            }
            SemError::UndefinedVariable(x) | SemError::CausalityLoop(x) => {
                Diagnostic::error(self.code(), self.to_string(), spans.var_span(None, *x))
            }
            _ => Diagnostic::error(self.code(), self.to_string(), Span::DUMMY),
        };
        Diagnostics::from(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_node_keeps_the_innermost_context() {
        let e = SemError::TypeError("t".into())
            .in_node_at(Ident::new("f"), Some(Ident::new("x")))
            .in_node(Ident::new("g"));
        match &e {
            SemError::InNode { node, var, .. } => {
                assert_eq!(*node, Ident::new("f"));
                assert_eq!(*var, Some(Ident::new("x")));
            }
            other => panic!("unexpected {other}"),
        }
        assert_eq!(e.code(), codes::E0406);
        assert!(e.to_string().starts_with("in node f: type inconsistency"));
    }

    #[test]
    fn scheduling_cycle_resolves_spans_and_notes() {
        let (f, a, b) = (Ident::new("f"), Ident::new("a"), Ident::new("b"));
        let mut spans = SpanMap::new();
        spans.record_node(f, Span::new(0, 4));
        spans.record_eq(f, a, Span::new(10, 20));
        spans.record_eq(f, b, Span::new(30, 40));
        let e = SemError::SchedulingCycle(f, vec![a, b]);
        let diags = e.to_diagnostics(&spans);
        let d = diags.iter().next().unwrap();
        assert_eq!(d.code, codes::E0408);
        assert_eq!(d.span, Span::new(10, 20));
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.notes[0].span, Span::new(30, 40));
    }

    #[test]
    fn context_free_errors_degrade_to_dummy_spans() {
        let diags = SemError::BadSchedule("m".into()).to_diagnostics(&SpanMap::new());
        assert_eq!(diags.iter().next().unwrap().span, Span::DUMMY);
        assert_eq!(diags.iter().next().unwrap().code, codes::E0409);
    }
}
