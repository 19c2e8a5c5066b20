//! Structured diagnostics.
//!
//! Every fallible pass of the pipeline reports failures through
//! [`Diagnostics`]: a collection of [`Diagnostic`]s, each carrying a
//! **stable code** ([`Code`], `E0xxx` for errors / `W0xxx` for
//! warnings), a [`Severity`], the **originating stage** ([`DiagStage`]),
//! a primary [`Span`] and any number of labeled [`Note`]s.
//!
//! Two renderings are provided:
//!
//! * [`Diagnostics::render_human`] — the caret form, resolving spans to
//!   line/column against the source text;
//! * [`Diagnostics::render_json`] — a hand-rolled (serde-free, offline)
//!   machine-readable form with the same information.
//!
//! Layers whose error types predate this model ([`SemError`],
//! `ObcError`, `ClightError`, …) implement [`ToDiagnostics`]: given a
//! [`SpanMap`](crate::SpanMap) recorded by the elaborator, they resolve
//! their node/variable context back to real source spans.
//!
//! [`SemError`]: trait.ToDiagnostics.html

use std::fmt;

use crate::span::{LineIndex, Span, SpanMap};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A non-fatal observation (e.g. a possibly uninitialized `pre`).
    Warning,
    /// A fatal elaboration or compilation failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A stable diagnostic code: `E0xxx` for errors, `W0xxx` for warnings.
///
/// Codes are the machine-readable identity of a failure class: they
/// survive message rewording, key the service's per-code failure
/// counters, and are listed in `docs/ARCHITECTURE.md`. All codes live
/// in the [`codes`] registry; ranges are allocated per layer (see the
/// registry docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code {
    /// The stable identifier, e.g. `"E0201"`.
    pub id: &'static str,
    /// A short human title, e.g. `"unknown variable"`.
    pub title: &'static str,
}

impl Code {
    /// The severity the code's letter implies (`W…` → warning).
    pub fn severity(self) -> Severity {
        if self.id.starts_with('W') {
            Severity::Warning
        } else {
            Severity::Error
        }
    }

    /// Whether a failure under this code is worth retrying. Most
    /// registered codes describe a property of the *source program* —
    /// resubmitting the same input fails the same way. The exceptions
    /// are environmental: [`codes::E0000`] (an uncategorized internal
    /// failure) and the `E08xx` serving-layer conditions that clear on
    /// their own — overload shedding ([`codes::E0801`]), an expired
    /// deadline ([`codes::E0802`]), a worker that missed its shutdown
    /// ack ([`codes::E0804`]), and a draining service
    /// ([`codes::E0805`]). Quarantine ([`codes::E0803`]) is *not*
    /// transient: the input earned its spot by panicking repeatedly,
    /// and resubmitting it is rejected the same way until the
    /// quarantine entry ages out.
    pub fn retry_class(self) -> RetryClass {
        match self.id {
            "E0000" | "E0801" | "E0802" | "E0804" | "E0805" => RetryClass::Transient,
            _ => RetryClass::Source,
        }
    }
}

/// Whether retrying a failed request can possibly succeed. Surfaced as
/// the `class` label on the service's per-code failure counters so
/// dashboards can separate "bad input" from "bad day".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryClass {
    /// Deterministic: the failure is inherent to the source program.
    Source,
    /// Environmental: a retry of the identical request may succeed
    /// (worker panic, lost result, uncategorized internal error).
    Transient,
}

impl RetryClass {
    /// The lowercase label value used in metrics (`"source"` /
    /// `"transient"`).
    pub fn label(self) -> &'static str {
        match self {
            RetryClass::Source => "source",
            RetryClass::Transient => "transient",
        }
    }
}

impl fmt::Display for RetryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id)
    }
}

macro_rules! code_registry {
    ($($(#[$m:meta])* $name:ident = ($id:literal, $title:literal);)*) => {
        $($(#[$m])* pub const $name: Code = Code { id: $id, title: $title };)*
        /// Every registered code, in id order (a docs and test aid).
        pub const ALL: &[Code] = &[$($name),*];
    };
}

/// The code registry. Ranges, by layer:
///
/// | range   | layer                                         |
/// |---------|-----------------------------------------------|
/// | `E00xx` | uncategorized / internal                      |
/// | `E01xx` | lexing and parsing                            |
/// | `E02xx` | elaboration: types and structure              |
/// | `E03xx` | elaboration: clocks; normalization            |
/// | `E04xx` | dataflow layer (`SemError`)                   |
/// | `E05xx` | Obc layer (`ObcError`)                        |
/// | `E06xx` | Clight layer (`ClightError`)                  |
/// | `E07xx` | translation validation and analyses           |
/// | `E08xx` | serving layer: admission, deadlines, drain    |
/// | `E09xx` | usage: CLI flags, roots, service requests     |
/// | `W00xx` | warnings (legacy syntactic checks)            |
/// | `W01xx` | lint warnings (`velus-analysis`)              |
///
/// Within `E01xx`, `E0101`–`E0109` belong to lexing/parsing and
/// `E0110`–`E0119` to the semantic lint analyses (guaranteed-trap
/// errors found by `velus-analysis`).
///
/// To add a code: pick the next free id in the owning layer's range,
/// register it here with a short title, construct diagnostics with it,
/// and document it in `docs/ARCHITECTURE.md`.
pub mod codes {
    use super::Code;

    code_registry! {
        /// A failure that predates the coded model (only the generic
        /// [`FromDisplay`](super::FailureReport::from_message) path may
        /// produce it; pipeline failures must use a real code).
        E0000 = ("E0000", "uncategorized failure");

        // -- lexing / parsing ------------------------------------------
        /// An input character no token starts with.
        E0101 = ("E0101", "unexpected character");
        /// A `(* … *)` comment that never closes.
        E0102 = ("E0102", "unterminated comment");
        /// The parser met a token that fits no production.
        E0103 = ("E0103", "syntax error");
        /// A specific token was required and something else was found.
        E0104 = ("E0104", "expected token");
        /// A numeric literal that does not scan.
        E0105 = ("E0105", "malformed literal");

        // -- semantic lint errors (velus-analysis) ---------------------
        /// An integer division or modulo whose divisor is provably
        /// always zero on an always-active equation: the program traps
        /// on every execution.
        E0110 = ("E0110", "guaranteed division by zero");
        /// An integer division provably `MIN / -1` (signed overflow) on
        /// an always-active equation: the program traps on every
        /// execution.
        E0111 = ("E0111", "guaranteed division overflow");

        // -- elaboration: types and structure --------------------------
        /// A variable (or constant) name that is not in scope.
        E0201 = ("E0201", "unknown variable");
        /// Two types that were required to agree do not.
        E0202 = ("E0202", "type mismatch");
        /// A callee that is neither a node nor a type name.
        E0203 = ("E0203", "unknown node or type");
        /// A call with the wrong number of arguments or results.
        E0204 = ("E0204", "wrong arity");
        /// A variable defined by more than one equation.
        E0205 = ("E0205", "duplicate definition");
        /// An output or local with no defining equation.
        E0206 = ("E0206", "undefined variable");
        /// A literal outside its expected type's range.
        E0207 = ("E0207", "literal out of range");
        /// An operator applied at a type it has no meaning for.
        E0208 = ("E0208", "operator inapplicable");
        /// A `fby` initial value that is not a constant expression.
        E0209 = ("E0209", "fby needs a constant");
        /// Two declarations of the same variable in one node.
        E0210 = ("E0210", "duplicate declaration");
        /// Nodes instantiated circularly.
        E0211 = ("E0211", "recursive node");
        /// A node declared with an empty `returns` list.
        E0212 = ("E0212", "node has no outputs");
        /// An equation defining one of the node's inputs.
        E0213 = ("E0213", "input cannot be defined");
        /// A tuple pattern that does not match the callee's outputs.
        E0214 = ("E0214", "tuple pattern mismatch");
        /// A type name the operator interface does not know.
        E0215 = ("E0215", "unknown type");
        /// Two nodes with the same name.
        E0216 = ("E0216", "duplicate node");
        /// Two global constants with the same name.
        E0217 = ("E0217", "duplicate constant");

        // -- elaboration: clocks; normalization ------------------------
        /// An expression or variable on the wrong clock.
        E0301 = ("E0301", "clock mismatch");
        /// A sampling/merge variable that is not boolean.
        E0302 = ("E0302", "sampler not boolean");
        /// A clock annotation naming an unknown variable.
        E0303 = ("E0303", "unknown clock variable");
        /// A node interface variable on a sub-clock.
        E0304 = ("E0304", "interface must be on the base clock");
        /// A tuple pattern binding variables of different clocks.
        E0305 = ("E0305", "tuple pattern mixes clocks");
        /// Normalization met an invariant elaboration should have
        /// established (an internal error, kept loud).
        E0310 = ("E0310", "normalization inconsistency");

        // -- dataflow layer (SemError) ---------------------------------
        /// A read of a variable no equation defines.
        E0401 = ("E0401", "undefined variable");
        /// An instantiation of a node that does not exist.
        E0402 = ("E0402", "unknown node");
        /// The demand-driven evaluation looped.
        E0403 = ("E0403", "causality loop");
        /// An operator outside its domain (e.g. division by zero).
        E0404 = ("E0404", "undefined operation");
        /// A clocking inconsistency surfaced at run time.
        E0405 = ("E0405", "clock inconsistency");
        /// A typing violation surfaced at run time.
        E0406 = ("E0406", "type inconsistency");
        /// Mismatched input arity or length supplied to a node.
        E0407 = ("E0407", "input mismatch");
        /// The equations of a node cannot be scheduled.
        E0408 = ("E0408", "dependency cycle");
        /// A schedule that fails the validated checker.
        E0409 = ("E0409", "invalid schedule");
        /// A structural well-formedness violation.
        E0410 = ("E0410", "malformed program");

        // -- Obc layer -------------------------------------------------
        /// A local read before being assigned.
        E0501 = ("E0501", "unbound variable");
        /// A state read with no memory cell.
        E0502 = ("E0502", "unbound state");
        /// A class name that does not resolve.
        E0503 = ("E0503", "unknown class");
        /// A method name that does not resolve in its class.
        E0504 = ("E0504", "unknown method");
        /// An operator outside its domain.
        E0505 = ("E0505", "undefined operation");
        /// A method call with the wrong arity.
        E0506 = ("E0506", "arity mismatch");
        /// An Obc typing violation.
        E0507 = ("E0507", "type error");
        /// A structural violation in a class.
        E0508 = ("E0508", "malformed class");
        /// `MemCorres` failed between semantic and run-time memories.
        E0509 = ("E0509", "memory correspondence violated");

        // -- Clight layer ----------------------------------------------
        /// An unknown struct in a layout query.
        E0601 = ("E0601", "unknown struct");
        /// An unknown field of a struct.
        E0602 = ("E0602", "unknown field");
        /// An unknown function.
        E0603 = ("E0603", "unknown function");
        /// An out-of-bounds, misaligned or dead-block access.
        E0604 = ("E0604", "memory error");
        /// A read of uninitialized memory or an unset temporary.
        E0605 = ("E0605", "uninitialized read");
        /// An operator outside its domain.
        E0606 = ("E0606", "undefined operation");
        /// A value of the wrong shape.
        E0607 = ("E0607", "value error");
        /// A volatile load past the end of the input prefix.
        E0608 = ("E0608", "input exhausted");
        /// A violated separation assertion.
        E0609 = ("E0609", "separation assertion failed");
        /// A malformed program reached the interpreter or generator.
        E0610 = ("E0610", "malformed program");

        // -- validation / analyses -------------------------------------
        /// A translation-validation mismatch: the stages disagree.
        E0701 = ("E0701", "validation mismatch");
        /// A method violating the `Fusible` invariant.
        E0702 = ("E0702", "fusible invariant violated");
        /// A WCET analysis failure.
        E0703 = ("E0703", "analysis failure");

        // -- serving layer ---------------------------------------------
        /// The service shed the request: its admission queue (or cost
        /// budget) was full. Transient — retry after backing off.
        E0801 = ("E0801", "service overloaded");
        /// The request's deadline expired before compilation finished
        /// (in queue or at a pass boundary). Transient — the same input
        /// can succeed on a less loaded service.
        E0802 = ("E0802", "deadline exceeded");
        /// The input's digest is quarantined after repeated panics;
        /// the request was rejected without compiling. Source-classed:
        /// resubmitting the same input keeps failing.
        E0803 = ("E0803", "input quarantined");
        /// A worker thread failed to acknowledge shutdown within the
        /// configured timeout (it is likely wedged in a job).
        E0804 = ("E0804", "worker shutdown timeout");
        /// The service is draining: admission is closed and in-flight
        /// work is being finished or cancelled.
        E0805 = ("E0805", "service draining");

        // -- usage -----------------------------------------------------
        /// An invalid flag or enumeration token.
        E0901 = ("E0901", "invalid flag value");
        /// A requested root node that does not exist.
        E0902 = ("E0902", "unknown root node");
        /// A program with no nodes at all.
        E0903 = ("E0903", "empty program");
        /// A generic CLI/service usage error.
        E0904 = ("E0904", "usage error");

        // -- warnings --------------------------------------------------
        /// A `pre` that may be read before initialization (the legacy
        /// syntactic check; superseded by the semantic [`W0101`] and no
        /// longer emitted by the front end, but kept registered for
        /// stability of the code space).
        W0001 = ("W0001", "possibly uninitialized pre");

        // -- lint warnings (velus-analysis) ----------------------------
        /// A `pre` whose default value may reach a node output before
        /// any real value does (semantic initialization analysis).
        W0101 = ("W0101", "possibly uninitialized pre");
        /// An integer division or modulo whose divisor *may* be zero
        /// (or `MIN / -1`) for some execution the value-range analysis
        /// cannot exclude.
        W0102 = ("W0102", "possible division trap");
        /// An `if`/`merge` condition that is provably always true or
        /// always false: one branch is dead.
        W0103 = ("W0103", "constant condition");
        /// A variable (and its defining equation) that no node output
        /// transitively reads.
        W0104 = ("W0104", "unused variable");
        /// A node that the root node never (transitively) instantiates.
        W0105 = ("W0105", "unreachable node");
        /// An equation sampled on a clock that is provably never true:
        /// it never produces a value.
        W0106 = ("W0106", "dead under clock");
    }

    /// The codes the `velus-analysis` lint layer can emit, in id order —
    /// the key space of the service's per-code lint counters.
    pub const LINT_CODES: &[Code] = &[E0110, E0111, W0101, W0102, W0103, W0104, W0105, W0106];

    /// The retry class of a failure-counter key. Registered codes map
    /// through [`Code::retry_class`]; keys that are not registered
    /// codes (the service's pseudo-codes for worker panics and lost
    /// results) are environmental, hence transient.
    pub fn retry_class_of(id: &str) -> super::RetryClass {
        match ALL.iter().find(|c| c.id == id) {
            Some(code) => code.retry_class(),
            None => super::RetryClass::Transient,
        }
    }
}

/// The pipeline stage a diagnostic originated from.
///
/// Producers stamp the stage they know ([`Diagnostic::at_stage`]);
/// boundaries that know better than `Unknown` — the pipeline's runner, the
/// front-end driver — fill the rest with
/// [`Diagnostics::tag_stage`], so every failure that crosses a public
/// API carries a concrete stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiagStage {
    /// Not yet attributed (never escapes a pipeline boundary).
    #[default]
    Unknown,
    /// Tokenization.
    Lex,
    /// Parsing.
    Parse,
    /// Typing and clocking of the surface program.
    Elaborate,
    /// Normalization to N-Lustre.
    Normalize,
    /// Re-checking the elaborator's postconditions.
    Check,
    /// Scheduling plus the validated schedule check.
    Schedule,
    /// Translation to Obc plus its re-checks.
    Translate,
    /// The fusion optimization plus its re-checks.
    Fuse,
    /// Clight generation.
    Generate,
    /// Printing the C translation unit.
    Emit,
    /// WCET/baseline analyses over the generated code.
    Analysis,
    /// The translation-validation harness.
    Validate,
    /// CLI / service request handling.
    Driver,
}

impl DiagStage {
    /// The stable lowercase name (used in renderings and JSON).
    pub fn name(self) -> &'static str {
        match self {
            DiagStage::Unknown => "unknown",
            DiagStage::Lex => "lex",
            DiagStage::Parse => "parse",
            DiagStage::Elaborate => "elaborate",
            DiagStage::Normalize => "normalize",
            DiagStage::Check => "check",
            DiagStage::Schedule => "schedule",
            DiagStage::Translate => "translate",
            DiagStage::Fuse => "fuse",
            DiagStage::Generate => "generate",
            DiagStage::Emit => "emit",
            DiagStage::Analysis => "analysis",
            DiagStage::Validate => "validate",
            DiagStage::Driver => "driver",
        }
    }
}

impl fmt::Display for DiagStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A labeled secondary location attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// The label, lowercase, no trailing period.
    pub message: String,
    /// Where it points; [`Span::DUMMY`] for position-less remarks.
    pub span: Span,
}

/// A single compiler message: code, severity, stage, message, primary
/// span, and labeled notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Fatal or not (always agrees with `code.severity()`).
    pub severity: Severity,
    /// The stable code.
    pub code: Code,
    /// The pipeline stage the diagnostic originated from.
    pub stage: DiagStage,
    /// Human-readable explanation, lowercase, no trailing period.
    pub message: String,
    /// Source region the message refers to; [`Span::DUMMY`] when unknown.
    pub span: Span,
    /// Secondary labeled locations.
    pub notes: Vec<Note>,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity comes from the code's letter.
    pub fn new(code: Code, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: code.severity(),
            code,
            stage: DiagStage::Unknown,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Creates an error diagnostic (the code must be an `E…` code).
    pub fn error(code: Code, message: impl Into<String>, span: Span) -> Diagnostic {
        debug_assert_eq!(code.severity(), Severity::Error, "{code} is not an error");
        Diagnostic::new(code, message, span)
    }

    /// Creates a warning diagnostic (the code must be a `W…` code).
    pub fn warning(code: Code, message: impl Into<String>, span: Span) -> Diagnostic {
        debug_assert_eq!(
            code.severity(),
            Severity::Warning,
            "{code} is not a warning"
        );
        Diagnostic::new(code, message, span)
    }

    /// Stamps the originating stage.
    #[must_use]
    pub fn at_stage(mut self, stage: DiagStage) -> Diagnostic {
        self.stage = stage;
        self
    }

    /// Attaches a labeled note.
    #[must_use]
    pub fn with_note(mut self, message: impl Into<String>, span: Span) -> Diagnostic {
        self.notes.push(Note {
            message: message.into(),
            span,
        });
        self
    }

    /// Renders the diagnostic on one line against `source` (line/column
    /// resolved, no caret block — see [`Diagnostic::render_pretty`]).
    pub fn render(&self, source: &str) -> String {
        self.render_in(&LineIndex::new(source))
    }

    fn render_in(&self, lines: &LineIndex) -> String {
        if self.span.is_dummy() {
            format!("{}[{}]: {}", self.severity, self.code, self.message)
        } else {
            let loc = lines.loc(self.span.start);
            format!("{loc}: {}[{}]: {}", self.severity, self.code, self.message)
        }
    }

    /// Renders the caret form against `source`:
    ///
    /// ```text
    /// error[E0201]: unknown variable z (elaborate)
    ///  --> 2:9
    ///   |
    /// 2 | let y = z; tel
    ///   |         ^
    ///   = note: …
    /// ```
    pub fn render_pretty(&self, source: &str) -> String {
        self.render_pretty_in(&LineIndex::new(source))
    }

    /// [`Diagnostic::render_pretty`] through an index of the source.
    fn render_pretty_in(&self, lines: &LineIndex) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if self.stage != DiagStage::Unknown {
            out.push_str(&format!(" ({})", self.stage));
        }
        out.push('\n');
        if !self.span.is_dummy() {
            let loc = lines.loc(self.span.start);
            out.push_str(&format!(" --> {loc}\n"));
            if let Some(line) = lines.line(loc.line) {
                let gutter = loc.line.to_string();
                let pad = " ".repeat(gutter.len());
                out.push_str(&format!("{pad} |\n{gutter} | {line}\n{pad} | "));
                // `loc.col` is a *byte* column; pad and clamp in
                // displayed characters so the caret lands under the
                // right glyph on lines with multi-byte characters.
                let lead = line
                    .get(..(loc.col as usize - 1).min(line.len()))
                    .unwrap_or(line);
                let rest_chars = line[lead.len()..].chars().count();
                let span_chars = lines
                    .source()
                    .get(self.span.start as usize..self.span.end as usize)
                    .map_or(1, |s| s.chars().count());
                let width = span_chars.max(1).min(rest_chars.max(1));
                out.push_str(&" ".repeat(lead.chars().count()));
                out.push_str(&"^".repeat(width));
                out.push('\n');
            }
        }
        for note in &self.notes {
            if note.span.is_dummy() {
                out.push_str(&format!("  = note: {}\n", note.message));
            } else {
                let loc = lines.loc(note.span.start);
                out.push_str(&format!("  = note: {} (at {loc})\n", note.message));
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// A non-empty collection of diagnostics, used as the error type of every
/// fallible compiler pass.
///
/// # Examples
///
/// ```
/// use velus_common::{codes, Diagnostic, Diagnostics, Span};
///
/// let errs = Diagnostics::from(Diagnostic::error(
///     codes::E0201,
///     "unknown variable x",
///     Span::new(4, 5),
/// ));
/// assert!(errs.has_errors());
/// assert_eq!(errs.to_string(), "error[E0201]: unknown variable x");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty accumulator.
    ///
    /// An empty `Diagnostics` must not be returned as an error; use
    /// [`Diagnostics::into_result`] to convert an accumulator into a
    /// `Result`.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Records an error message.
    pub fn error(&mut self, code: Code, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(code, message, span));
    }

    /// Records a warning message.
    pub fn warning(&mut self, code: Code, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(code, message, span));
    }

    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether there are no diagnostics at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterates over the diagnostics in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Stamps `stage` on every diagnostic that is still
    /// [`DiagStage::Unknown`] — the boundary-tagging half of the stage
    /// contract (producers that know a finer stage keep it).
    pub fn tag_stage(&mut self, stage: DiagStage) {
        for d in &mut self.items {
            if d.stage == DiagStage::Unknown {
                d.stage = stage;
            }
        }
    }

    /// [`Diagnostics::tag_stage`], by value.
    #[must_use]
    pub fn tagged(mut self, stage: DiagStage) -> Diagnostics {
        self.tag_stage(stage);
        self
    }

    /// Sorts by source position (then code, then message) and removes
    /// exact duplicates — the presentation order of the human and JSON
    /// renderings. The message participates in the key so equal
    /// diagnostics become adjacent (and thus dedupable) even when a
    /// different message lands on the same span.
    pub fn sort_dedup(&mut self) {
        // Dummy spans (start == end == 0) sort first as a group.
        self.items.sort_by(Diagnostics::order);
        self.items.dedup();
    }

    fn order(a: &Diagnostic, b: &Diagnostic) -> std::cmp::Ordering {
        (a.span.start, a.span.end, a.code.id, a.message.as_str()).cmp(&(
            b.span.start,
            b.span.end,
            b.code.id,
            b.message.as_str(),
        ))
    }

    /// The presentation order as borrowed references — what the
    /// renderers iterate, so they never deep-clone every message and
    /// note just to sort.
    fn sorted_view(&self) -> Vec<&Diagnostic> {
        let mut items: Vec<&Diagnostic> = self.items.iter().collect();
        items.sort_by(|a, b| Diagnostics::order(a, b));
        items.dedup_by(|a, b| a == b);
        items
    }

    /// Turns the accumulator into `Ok(value)` when no *errors* were
    /// recorded, and `Err(self)` otherwise. Warnings do not fail the pass.
    pub fn into_result<T>(self, value: T) -> Result<T, Diagnostics> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(value)
        }
    }

    /// Renders all diagnostics against `source`, one per line.
    pub fn render(&self, source: &str) -> String {
        let lines = LineIndex::new(source);
        self.items
            .iter()
            .map(|d| d.render_in(&lines))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders the caret form of every diagnostic against `source`
    /// (deduplicated, position-ordered).
    pub fn render_human(&self, source: &str) -> String {
        let lines = LineIndex::new(source);
        let blocks: Vec<String> = self
            .sorted_view()
            .into_iter()
            .map(|d| d.render_pretty_in(&lines))
            .collect();
        blocks.join("\n")
    }

    /// Renders the machine-readable JSON form against `source`
    /// (deduplicated, position-ordered). Hand-rolled — no serde, works
    /// offline; the schema is documented in `docs/ARCHITECTURE.md`.
    pub fn render_json(&self, source: &str) -> String {
        let sorted = self.sorted_view();
        let lines = LineIndex::new(source);
        let mut out = String::with_capacity(256);
        out.push_str("{\"diagnostics\":[");
        for (i, d) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_diag_json(&mut out, d, &lines);
        }
        let errors = sorted
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{}}}",
            errors,
            sorted.len() - errors
        ));
        out
    }

    /// Flattens every diagnostic, in emission order, resolving spans
    /// against `source`.
    pub fn records(&self, source: &str) -> Vec<DiagRecord> {
        let lines = LineIndex::new(source);
        self.items
            .iter()
            .map(|d| DiagRecord::resolve(d, &lines))
            .collect()
    }
}

fn render_span_json(out: &mut String, span: Span, lines: &LineIndex) {
    // Position-less diagnostics keep line/col 0, the same convention as
    // [`DiagRecord`] — a concrete 1:1 would be a false location.
    let (line, col) = if span.is_dummy() {
        (0, 0)
    } else {
        let loc = lines.loc(span.start);
        (loc.line, loc.col)
    };
    out.push_str(&format!(
        "{{\"start\":{},\"end\":{},\"line\":{},\"col\":{}}}",
        span.start, span.end, line, col
    ));
}

fn render_diag_json(out: &mut String, d: &Diagnostic, lines: &LineIndex) {
    out.push_str(&format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"stage\":\"{}\",\"message\":\"{}\",\"span\":",
        d.code,
        d.severity,
        d.stage,
        json_escape(&d.message)
    ));
    render_span_json(out, d.span, lines);
    out.push_str(",\"notes\":[");
    for (i, n) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"message\":\"{}\",\"span\":",
            json_escape(&n.message)
        ));
        render_span_json(out, n.span, lines);
        out.push('}');
    }
    out.push_str("]}");
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Diagnostics {
        Diagnostics { items: vec![d] }
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

/// Conversion of a layer's error type into structured diagnostics.
///
/// The [`SpanMap`] is the bridge back to the source: errors that carry
/// node/variable context (a scheduling cycle's witness, a typing
/// violation's equation) resolve it to the span the elaborator recorded
/// for the corresponding source equation.
pub trait ToDiagnostics {
    /// Converts the error, resolving node/variable context against
    /// `spans`. The result is non-empty and every diagnostic carries a
    /// stable code; stages may be left [`DiagStage::Unknown`] for the
    /// calling boundary to fill ([`Diagnostics::tag_stage`]).
    fn to_diagnostics(&self, spans: &SpanMap) -> Diagnostics;
}

impl ToDiagnostics for Diagnostics {
    fn to_diagnostics(&self, _spans: &SpanMap) -> Diagnostics {
        self.clone()
    }
}

/// One flattened, self-contained diagnostic record: everything a
/// serving layer needs without retaining the source text (line/column
/// are pre-resolved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagRecord {
    /// The stable code id (`"E0408"`).
    pub code: &'static str,
    /// Fatal or not.
    pub severity: Severity,
    /// The originating stage's stable name.
    pub stage: &'static str,
    /// The human-readable message.
    pub message: String,
    /// 1-based line of the primary span (0 when position-less).
    pub line: u32,
    /// 1-based column of the primary span (0 when position-less).
    pub col: u32,
}

impl DiagRecord {
    /// Flattens one diagnostic, resolving its span through `lines`.
    fn resolve(d: &Diagnostic, lines: &LineIndex) -> DiagRecord {
        let (line, col) = if d.span.is_dummy() {
            (0, 0)
        } else {
            let loc = lines.loc(d.span.start);
            (loc.line, loc.col)
        };
        DiagRecord {
            code: d.code.id,
            severity: d.severity,
            stage: d.stage.name(),
            message: d.message.clone(),
            line,
            col,
        }
    }
}

impl DiagRecord {
    /// Appends the record's JSON object to `out` — the single place the
    /// flattened-record schema is spelled (used by
    /// [`FailureReport::render_json`] and the CLI's report artifact).
    pub fn render_json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"stage\":\"{}\",\"message\":\"{}\",\"line\":{},\"col\":{}}}",
            self.code,
            self.severity,
            self.stage,
            json_escape(&self.message),
            self.line,
            self.col
        ));
    }
}

impl fmt::Display for DiagRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: {}[{}]: {}",
                self.line, self.col, self.severity, self.code, self.message
            )
        } else {
            write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
        }
    }
}

/// The structured payload of a failed (or warned-about) compilation:
/// the flattened diagnostic records, self-contained and cheap to ship
/// across the service boundary. This is what `velus-server` stores in
/// `ServiceError::Compile` in place of an opaque `Display` string.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureReport {
    /// The records, most significant first (presentation order of the
    /// originating [`Diagnostics`]).
    pub diagnostics: Vec<DiagRecord>,
}

impl FailureReport {
    /// Flattens a set of diagnostics against its source text
    /// (presentation-ordered, deduplicated; borrows — no deep clone).
    pub fn from_diagnostics(diags: &Diagnostics, source: &str) -> FailureReport {
        let lines = LineIndex::new(source);
        FailureReport {
            diagnostics: diags
                .sorted_view()
                .into_iter()
                .map(|d| DiagRecord::resolve(d, &lines))
                .collect(),
        }
    }

    /// A single-record report for error types that predate the coded
    /// model (code `E0000`); real pipeline failures never take this
    /// path.
    pub fn from_message(message: impl Into<String>) -> FailureReport {
        FailureReport {
            diagnostics: vec![DiagRecord {
                code: codes::E0000.id,
                severity: Severity::Error,
                stage: DiagStage::Unknown.name(),
                message: message.into(),
                line: 0,
                col: 0,
            }],
        }
    }

    /// The distinct codes present, in record order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::with_capacity(self.diagnostics.len());
        for r in &self.diagnostics {
            if !out.contains(&r.code) {
                out.push(r.code);
            }
        }
        out
    }

    /// The first record's code, if any (the failure's headline).
    pub fn primary_code(&self) -> Option<&'static str> {
        self.diagnostics.first().map(|r| r.code)
    }

    /// Renders the report as a JSON object (same hand-rolled dialect as
    /// [`Diagnostics::render_json`]).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, r) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.render_json_into(&mut out);
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FailureReport {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_result_fails_only_on_errors() {
        let mut d = Diagnostics::new();
        assert_eq!(d.clone().into_result(1), Ok(1));
        d.warning(codes::W0001, "just a warning", Span::DUMMY);
        assert_eq!(d.clone().into_result(2), Ok(2));
        d.error(codes::E0201, "boom", Span::DUMMY);
        assert!(d.into_result(3).is_err());
    }

    #[test]
    fn render_includes_position_and_code() {
        let src = "a\nbcd";
        let d = Diagnostic::error(codes::E0201, "bad thing", Span::new(2, 3));
        assert_eq!(d.render(src), "2:1: error[E0201]: bad thing");
    }

    #[test]
    fn severity_follows_the_code_letter() {
        assert_eq!(codes::E0408.severity(), Severity::Error);
        assert_eq!(codes::W0001.severity(), Severity::Warning);
        let d = Diagnostic::new(codes::W0001, "w", Span::DUMMY);
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn retry_class_separates_source_from_environment() {
        assert_eq!(codes::E0201.retry_class(), RetryClass::Source);
        assert_eq!(codes::E0000.retry_class(), RetryClass::Transient);
        assert_eq!(codes::retry_class_of("E0202"), RetryClass::Source);
        assert_eq!(codes::retry_class_of("panic"), RetryClass::Transient);
        // The serving-layer conditions: environmental except quarantine.
        assert_eq!(codes::E0801.retry_class(), RetryClass::Transient);
        assert_eq!(codes::E0802.retry_class(), RetryClass::Transient);
        assert_eq!(codes::E0803.retry_class(), RetryClass::Source);
        assert_eq!(codes::E0804.retry_class(), RetryClass::Transient);
        assert_eq!(codes::E0805.retry_class(), RetryClass::Transient);
        assert_eq!(RetryClass::Source.label(), "source");
        assert_eq!(RetryClass::Transient.to_string(), "transient");
    }

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        for (i, a) in codes::ALL.iter().enumerate() {
            assert!(
                a.id.len() == 5 && (a.id.starts_with('E') || a.id.starts_with('W')),
                "{}",
                a.id
            );
            for b in &codes::ALL[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn sort_dedup_orders_by_position_and_removes_duplicates() {
        let mut d = Diagnostics::new();
        d.error(codes::E0202, "later", Span::new(10, 12));
        d.error(codes::E0201, "earlier", Span::new(2, 3));
        d.error(codes::E0202, "later", Span::new(10, 12));
        d.sort_dedup();
        assert_eq!(d.len(), 2);
        assert_eq!(d.iter().next().unwrap().message, "earlier");
    }

    #[test]
    fn tag_stage_fills_only_unknown() {
        let mut d = Diagnostics::new();
        d.push(Diagnostic::error(codes::E0101, "lexed", Span::DUMMY).at_stage(DiagStage::Lex));
        d.error(codes::E0408, "cycle", Span::DUMMY);
        d.tag_stage(DiagStage::Schedule);
        let stages: Vec<DiagStage> = d.iter().map(|x| x.stage).collect();
        assert_eq!(stages, vec![DiagStage::Lex, DiagStage::Schedule]);
    }

    #[test]
    fn pretty_rendering_draws_a_caret() {
        let src = "node f() returns (y: int)\nlet y = z; tel";
        // `z` is at offset 34.
        let z = src.find("z;").unwrap() as u32;
        let d = Diagnostic::error(codes::E0201, "unknown variable z", Span::new(z, z + 1))
            .at_stage(DiagStage::Elaborate);
        let pretty = d.render_pretty(src);
        assert!(pretty.contains("error[E0201]: unknown variable z (elaborate)"));
        assert!(pretty.contains(" --> 2:9"), "{pretty}");
        assert!(pretty.contains("2 | let y = z; tel"), "{pretty}");
        let caret_line = pretty.lines().last().unwrap();
        assert_eq!(caret_line.trim_end(), "  |         ^", "{pretty}");
    }

    #[test]
    fn json_rendering_is_escaped_and_complete() {
        let src = "x";
        let d = Diagnostics::from(
            Diagnostic::error(codes::E0202, "got \"int\"\nexpected bool", Span::new(0, 1))
                .at_stage(DiagStage::Check)
                .with_note("declared here", Span::new(0, 1)),
        );
        let json = d.render_json(src);
        assert!(json.contains("\"code\":\"E0202\""), "{json}");
        assert!(json.contains("\\\"int\\\"\\nexpected"), "{json}");
        assert!(json.contains("\"stage\":\"check\""), "{json}");
        assert!(
            json.contains("\"notes\":[{\"message\":\"declared here\""),
            "{json}"
        );
        assert!(json.ends_with("\"errors\":1,\"warnings\":0}"), "{json}");
    }

    #[test]
    fn json_keeps_dummy_spans_position_less() {
        // Same convention as DiagRecord: line/col 0, never a false 1:1.
        let d = Diagnostics::from(Diagnostic::error(
            codes::E0902,
            "no node named g",
            Span::DUMMY,
        ));
        let json = d.render_json("node f() returns (y: int) let y = 0; tel");
        assert!(
            json.contains("\"span\":{\"start\":0,\"end\":0,\"line\":0,\"col\":0}"),
            "{json}"
        );
    }

    #[test]
    fn pretty_caret_lands_on_multibyte_lines() {
        // `é` is two bytes: the caret must still sit under the marked
        // character, padding in displayed characters.
        let src = "-- é é
let y = é;";
        let at = src.rfind('é').unwrap() as u32;
        let d = Diagnostic::error(
            codes::E0101,
            "unexpected character `é`",
            Span::new(at, at + 2),
        );
        let pretty = d.render_pretty(src);
        let caret_line = pretty.lines().last().unwrap();
        assert_eq!(caret_line, "  |         ^", "{pretty}");
    }

    #[test]
    fn failure_report_flattens_and_counts_codes() {
        let src = "a = b;";
        let mut diags = Diagnostics::new();
        diags.error(codes::E0408, "dependency cycle in node f", Span::new(0, 1));
        diags.error(codes::E0408, "dependency cycle in node g", Span::new(4, 5));
        let report = FailureReport::from_diagnostics(&diags.tagged(DiagStage::Schedule), src);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.primary_code(), Some("E0408"));
        assert_eq!(report.codes(), vec!["E0408"]);
        assert_eq!(report.diagnostics[0].line, 1);
        assert!(report.to_string().contains("error[E0408]"));
        assert!(report.render_json().starts_with("{\"diagnostics\":["));
    }

    #[test]
    fn display_is_nonempty() {
        let mut d = Diagnostics::new();
        d.error(codes::E0201, "first", Span::DUMMY);
        d.warning(codes::W0001, "second", Span::DUMMY);
        let s = d.to_string();
        assert!(s.contains("first") && s.contains("second"));
    }
}
