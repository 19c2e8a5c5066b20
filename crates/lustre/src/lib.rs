//! The Lustre front end (PLDI'17 §2.1: parsing, elaboration,
//! normalization).
//!
//! The paper's prototype uses an ocamllex lexer, a Menhir-generated
//! verified parser, and an elaborator that *rejects* programs that are not
//! already in normal form. This crate goes further and implements the full
//! unnormalized surface language, including the classical operators the
//! paper discusses in §2.2 — initialization `->`, uninitialized delay
//! `pre` (desugared to `fby` of the type's default value, with an
//! initialization lint), explicit casts, and global constants — and
//! *normalizes* it to N-Lustre, the pass the paper inherits from earlier
//! verified work \[2, 3\], while it elaborates.
//!
//! Pipeline:
//!
//! ```text
//! source ──parse (pulling tokens from the lexer)──▶ ast (untyped)
//!        ──lower (elaborate, initialization lint)──▶ velus_nlustre::ast::Program (N-Lustre)
//! ```
//!
//! Lexing and parsing are one pass: the parser asks the lexer for one
//! token at a time, so no token buffer exists, and it parses expressions
//! over explicit stacks, so no nesting of the input makes it recurse.
//!
//! Elaboration checks types and clocks and normalizes in one walk per
//! equation: each surface expression is typed, clocked and emitted
//! straight into its node's N-Lustre expression pools, with nested
//! delays, calls and control expressions extracted into fresh equations
//! on the way. No typed intermediate tree is built.
//!
//! Everything is parametric in the operator interface `O:`[`velus_ops::Ops`];
//! literals, type names and operators are resolved through it.
//!
//! # Examples
//!
//! ```
//! use velus_lustre::compile_to_nlustre;
//! use velus_ops::ClightOps;
//!
//! let src = "
//!   node count(inc: int) returns (n: int)
//!   let
//!     n = 0 -> pre n + inc;
//!   tel
//! ";
//! let (prog, warnings) = compile_to_nlustre::<ClightOps>(src)?;
//! assert_eq!(prog.nodes.len(), 1);
//! # let _ = warnings;
//! # Ok::<(), velus_common::Diagnostics>(())
//! ```

pub mod ast;
pub mod elab;
pub mod lexer;
mod normalize;
pub mod parser;

use velus_common::{Diagnostics, SpanMap};
use velus_nlustre::ast::Program;
use velus_ops::Ops;

/// Everything the front end produces: the normalized program, the
/// non-fatal warnings, and the [`SpanMap`] that lets every later stage
/// resolve node/equation context back to source positions.
#[derive(Debug, Clone)]
pub struct Frontend<O: Ops> {
    /// The elaborated, normalized N-Lustre program.
    pub program: Program<O>,
    /// Non-fatal warnings (e.g. the semantic initialization lint for
    /// `pre`, `W0101`), coded and stage-tagged.
    pub warnings: Diagnostics,
    /// Source spans of every node and (defined-variable-keyed)
    /// equation, surviving scheduling's reordering.
    pub spans: SpanMap,
}

/// Reusable front-end working memory: the surface arena and the
/// parser's operand and operator stacks.
///
/// One compile fills them; [`FrontendScratch::parse`] empties them first but
/// keeps their capacity, so a caller compiling many programs — the
/// service, the bench harness, the differential campaign — stops
/// allocating once they have grown to the largest program seen.
#[derive(Debug, Default)]
pub struct FrontendScratch {
    /// The surface arena: expression, argument, clock, left-hand-side,
    /// callee, declaration and equation pools.
    pub ua: ast::UArena,
    /// The expression parser's operand and operator stacks.
    pub parser: parser::Scratch,
}

impl FrontendScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacities of the arena's pools (see
    /// [`ast::UArena::capacities`]) followed by those of the parser's
    /// operand and operator stacks — exposed so tests can assert a
    /// recycled scratch stops growing.
    pub fn capacities(&self) -> Vec<usize> {
        let (operands, ops) = self.parser.capacities();
        let mut caps = self.ua.capacities().to_vec();
        caps.extend([operands, ops]);
        caps
    }

    /// Parses `source` into the scratch's arena (see [`parser::parse`]).
    ///
    /// # Errors
    ///
    /// Every lexical error, or else the first syntax error.
    pub fn parse(&mut self, source: &str) -> Result<ast::UProgram, Diagnostics> {
        parser::parse(source, &mut self.ua, &mut self.parser)
    }
}

/// Runs the whole front end: parse (lexing on the way), and elaborate
/// into N-Lustre.
///
/// # Errors
///
/// All syntax, typing and clocking errors, as [`Diagnostics`] with
/// stable codes, originating stages and source positions.
pub fn frontend<O: Ops>(source: &str) -> Result<Frontend<O>, Diagnostics> {
    let mut scratch = FrontendScratch::new();
    let uprog = scratch.parse(source)?;
    lower(&uprog, &scratch.ua)
}

/// The front end after parsing: elaborates a parsed program (whose
/// expressions live in `ua`) into N-Lustre, then runs the
/// initialization analysis.
///
/// # Errors
///
/// All typing and clocking errors.
pub fn lower<O: Ops>(uprog: &ast::UProgram, ua: &ast::UArena) -> Result<Frontend<O>, Diagnostics> {
    let (program, spans, pre_marks) = elab::elaborate::<O>(uprog, ua)?;
    // The semantic replacement for the old syntactic `pre` lint: warn
    // only when a `pre`'s default value can actually reach an output.
    let mut warnings = Diagnostics::new();
    velus_analysis::init::check_initialization(&program, &pre_marks, &mut warnings);
    Ok(Frontend {
        program,
        warnings,
        spans,
    })
}

/// Parses, elaborates and normalizes `source` into an N-Lustre program.
///
/// Returns the program together with non-fatal warnings (e.g. the
/// initialization lint for `pre`). Callers that also need source spans
/// for mid-end diagnostics use [`frontend`].
///
/// # Errors
///
/// All syntax, typing and clocking errors, as [`Diagnostics`] with source
/// positions.
pub fn compile_to_nlustre<O: Ops>(source: &str) -> Result<(Program<O>, Diagnostics), Diagnostics> {
    let f = frontend::<O>(source)?;
    Ok((f.program, f.warnings))
}
