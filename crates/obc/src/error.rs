//! Errors of the Obc layer.

use std::fmt;

use velus_common::{
    codes, Code, Diagnostic, Diagnostics, Ident, NodeId, Span, SpanMap, ToDiagnostics,
};

/// Errors raised by the Obc semantics, translation and checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObcError {
    /// A local variable was read before being assigned.
    UnboundVariable(Ident),
    /// A state variable was read but has no memory cell.
    UnboundState(Ident),
    /// A call or instance names no class before the caller's (a later
    /// class, which would allow recursion, or one past the program's end).
    UnknownClass(NodeId),
    /// A method name could not be resolved in a class.
    UnknownMethod(Ident, Ident),
    /// An operator was applied outside its domain.
    UndefinedOperation(String),
    /// Arity mismatch in a method call.
    ArityMismatch(String),
    /// A typing violation.
    TypeError(String),
    /// A structural violation (duplicate names, fby-defined outputs, …).
    Malformed(String),
    /// `MemCorres` failed between the semantic memory and the run-time one.
    MemCorres(String),
}

impl fmt::Display for ObcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObcError::UnboundVariable(x) => write!(f, "unbound variable {x}"),
            ObcError::UnboundState(x) => write!(f, "unbound state variable {x}"),
            ObcError::UnknownClass(c) => write!(f, "unknown class {c}"),
            ObcError::UnknownMethod(c, m) => write!(f, "unknown method {c}.{m}"),
            ObcError::UndefinedOperation(m) => write!(f, "undefined operation: {m}"),
            ObcError::ArityMismatch(m) => write!(f, "arity mismatch: {m}"),
            ObcError::TypeError(m) => write!(f, "type error: {m}"),
            ObcError::Malformed(m) => write!(f, "malformed program: {m}"),
            ObcError::MemCorres(m) => write!(f, "memory correspondence violated: {m}"),
        }
    }
}

impl ObcError {
    /// The stable diagnostic code of the error.
    pub fn code(&self) -> Code {
        match self {
            ObcError::UnboundVariable(_) => codes::E0501,
            ObcError::UnboundState(_) => codes::E0502,
            ObcError::UnknownClass(_) => codes::E0503,
            ObcError::UnknownMethod(..) => codes::E0504,
            ObcError::UndefinedOperation(_) => codes::E0505,
            ObcError::ArityMismatch(_) => codes::E0506,
            ObcError::TypeError(_) => codes::E0507,
            ObcError::Malformed(_) => codes::E0508,
            ObcError::MemCorres(_) => codes::E0509,
        }
    }
}

impl ToDiagnostics for ObcError {
    /// Obc classes are translated nodes and Obc variables keep their
    /// N-Lustre names, so identifier-carrying errors resolve spans
    /// through the same `SpanMap` the elaborator recorded.
    fn to_diagnostics(&self, spans: &SpanMap) -> Diagnostics {
        let span = match self {
            ObcError::UnboundVariable(x) | ObcError::UnboundState(x) => spans.var_span(None, *x),
            ObcError::UnknownMethod(c, _) => spans.node_span(*c),
            _ => Span::DUMMY,
        };
        Diagnostics::from(Diagnostic::error(self.code(), self.to_string(), span))
    }
}

impl std::error::Error for ObcError {}
