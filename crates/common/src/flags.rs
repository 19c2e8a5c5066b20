//! One shared parser for CLI enumeration flags.
//!
//! The workspace grew five hand-rolled `FromStr -> Result<_, String>`
//! token parsers (artifact kinds, WCET models, schedule policies, cost
//! models, IR stages), each with its own error wording. This module
//! replaces their bodies with one helper that:
//!
//! * matches the token against a `(spelling, value)` table,
//! * on failure emits a **coded usage diagnostic** ([`codes::E0901`])
//!   listing the accepted spellings,
//! * and adds a *did-you-mean* suggestion when the token is within a
//!   small edit distance of an accepted spelling.
//!
//! [`codes::E0901`]: crate::codes::E0901

use crate::diag::{codes, Diagnostic};
use crate::span::Span;

/// Parses one enumeration token against a spelling table.
///
/// `what` names the flag domain for the message (e.g. `"WCET model"`).
/// The error string is the rendering of a [`codes::E0901`] diagnostic,
/// so `FromStr` implementations can return it directly.
///
/// # Examples
///
/// ```
/// use velus_common::parse_enum_flag;
///
/// let table = [("human", 0), ("json", 1)];
/// assert_eq!(parse_enum_flag("error format", "json", &table), Ok(1));
/// let err = parse_enum_flag("error format", "jsn", &table).unwrap_err();
/// assert!(err.contains("[E0901]") && err.contains("did you mean `json`"), "{err}");
/// ```
///
/// # Errors
///
/// Any token not in the table.
pub fn parse_enum_flag<T: Clone>(
    what: &str,
    input: &str,
    options: &[(&str, T)],
) -> Result<T, String> {
    if let Some((_, value)) = options.iter().find(|(name, _)| *name == input) {
        return Ok(value.clone());
    }
    let spellings: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
    let mut message = format!(
        "unknown {what} `{input}` (expected {})",
        spellings.join("|")
    );
    if let Some(best) = suggest(input, &spellings) {
        message.push_str(&format!("; did you mean `{best}`?"));
    }
    Err(Diagnostic::error(codes::E0901, message, Span::DUMMY).to_string())
}

/// The closest accepted spelling, if it is close enough to be a likely
/// typo (edit distance at most 1 for short tokens, one third of the
/// token's length otherwise).
fn suggest<'a>(input: &str, options: &[&'a str]) -> Option<&'a str> {
    let budget = (input.len() / 3).max(1);
    options
        .iter()
        .map(|o| (edit_distance(input, o), *o))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, o)| o)
}

/// Levenshtein distance (two-row dynamic program; tokens are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: [(&str, u8); 3] = [("cc", 0), ("gcc", 1), ("gcci", 2)];

    #[test]
    fn exact_tokens_parse() {
        assert_eq!(parse_enum_flag("model", "gcci", &TABLE), Ok(2));
    }

    #[test]
    fn unknown_tokens_get_a_coded_message_with_options() {
        let err = parse_enum_flag("model", "clang", &TABLE).unwrap_err();
        assert!(err.starts_with("error[E0901]"), "{err}");
        assert!(err.contains("cc|gcc|gcci"), "{err}");
    }

    #[test]
    fn near_misses_get_a_suggestion() {
        let err = parse_enum_flag("model", "gci", &TABLE).unwrap_err();
        assert!(err.contains("did you mean `"), "{err}");
        // A wildly different token gets no suggestion.
        let err = parse_enum_flag("model", "mips-backend", &TABLE).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("fifo", "fido"), 1);
        assert_eq!(edit_distance("cost", "fifo"), 4);
    }
}
