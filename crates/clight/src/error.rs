//! Errors of the Clight layer.

use std::fmt;

use velus_common::{codes, Code, Diagnostic, Diagnostics, Ident, Span, SpanMap, ToDiagnostics};

/// Errors raised by layout computation, the memory model, the interpreter
/// and the generation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClightError {
    /// Unknown struct name in a layout query.
    UnknownStruct(Ident),
    /// Unknown field in a struct.
    UnknownField(Ident, Ident),
    /// A function index past the program's functions.
    UnknownFunction(usize),
    /// An out-of-bounds, misaligned or dead-block memory access.
    MemoryError(String),
    /// A read of uninitialized memory or an unset temporary.
    Uninitialized(String),
    /// An operator application outside its domain.
    UndefinedOperation(String),
    /// A value of the wrong shape (e.g. scalar where pointer expected).
    ValueError(String),
    /// A volatile load with no input available (end of the input prefix).
    EndOfInput(Ident),
    /// A violated separation assertion.
    Separation(String),
    /// A malformed program reached the interpreter or generator.
    Malformed(String),
}

impl fmt::Display for ClightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClightError::UnknownStruct(s) => write!(f, "unknown struct {s}"),
            ClightError::UnknownField(s, x) => write!(f, "unknown field {x} of struct {s}"),
            ClightError::UnknownFunction(g) => write!(f, "unknown function #{g}"),
            ClightError::MemoryError(m) => write!(f, "memory error: {m}"),
            ClightError::Uninitialized(m) => write!(f, "uninitialized read: {m}"),
            ClightError::UndefinedOperation(m) => write!(f, "undefined operation: {m}"),
            ClightError::ValueError(m) => write!(f, "value error: {m}"),
            ClightError::EndOfInput(g) => write!(f, "volatile input {g} exhausted"),
            ClightError::Separation(m) => write!(f, "separation assertion failed: {m}"),
            ClightError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl ClightError {
    /// The stable diagnostic code of the error.
    pub fn code(&self) -> Code {
        match self {
            ClightError::UnknownStruct(_) => codes::E0601,
            ClightError::UnknownField(..) => codes::E0602,
            ClightError::UnknownFunction(_) => codes::E0603,
            ClightError::MemoryError(_) => codes::E0604,
            ClightError::Uninitialized(_) => codes::E0605,
            ClightError::UndefinedOperation(_) => codes::E0606,
            ClightError::ValueError(_) => codes::E0607,
            ClightError::EndOfInput(_) => codes::E0608,
            ClightError::Separation(_) => codes::E0609,
            ClightError::Malformed(_) => codes::E0610,
        }
    }
}

impl ToDiagnostics for ClightError {
    /// Clight structs are generated per node, so struct-carrying errors
    /// resolve to the node header; everything else in this layer is far
    /// from the source and keeps a dummy span.
    fn to_diagnostics(&self, spans: &SpanMap) -> Diagnostics {
        let span = match self {
            ClightError::UnknownStruct(s) => spans.node_span(*s),
            _ => Span::DUMMY,
        };
        Diagnostics::from(Diagnostic::error(self.code(), self.to_string(), span))
    }
}

impl std::error::Error for ClightError {}
