//! The workspace's one JSON reader.
//!
//! The workspace hand-rolls its JSON *writers* (diagnostics, stats,
//! traces, reproducer records; strings go through
//! `velus_common::json_escape`). This module reads them back: the
//! seed-corpus replay parses reproducer records, and the `jsoncheck`
//! binary, the pipeline bench's `--smoke` gate and the tests check that
//! every emitted document is well-formed. It is a small
//! recursive-descent parser for objects, arrays, strings with escapes,
//! numbers, and the three literals. Numbers keep their raw text so
//! 64-bit seeds survive without a float round trip, and an object that
//! repeats a key is rejected.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text (see [`Json::as_u64`]).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted); a key given twice
    /// is an error, since a reader would see only one of its values.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, when this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `i64`, when this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `usize`, when this is an integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses exactly one JSON value (with optional surrounding whitespace).
///
/// # Errors
///
/// A message naming the first offending byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let (v, end) = value(b, 0)?;
    if skip_ws(b, end) != b.len() {
        return Err("trailing garbage after JSON value".to_owned());
    }
    Ok(v)
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn string(b: &[u8], i: usize) -> Result<(String, usize), String> {
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    let mut out = String::new();
    let mut i = i + 1;
    loop {
        match b.get(i) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => return Ok((out, i + 1)),
            Some(b'\\') => {
                let esc = b.get(i + 1).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(i + 2..i + 6)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {i}"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        i += 6;
                        continue;
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
                i += 2;
            }
            Some(_) => {
                // Copy the whole UTF-8 scalar.
                let s = std::str::from_utf8(&b[i..]).map_err(|_| "invalid UTF-8")?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
}

fn value(b: &[u8], i: usize) -> Result<(Json, usize), String> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'{') => {
            let mut m = BTreeMap::new();
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b'}') {
                return Ok((Json::Obj(m), i + 1));
            }
            loop {
                let (key, after_key) = string(b, skip_ws(b, i))?;
                i = skip_ws(b, after_key);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                let (v, after_v) = value(b, i + 1)?;
                if m.contains_key(&key) {
                    return Err(format!("duplicate key \"{key}\" at byte {i}"));
                }
                m.insert(key, v);
                i = skip_ws(b, after_v);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok((Json::Obj(m), i + 1)),
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            let mut out = Vec::new();
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b']') {
                return Ok((Json::Arr(out), i + 1));
            }
            loop {
                let (v, after) = value(b, i)?;
                out.push(v);
                i = skip_ws(b, after);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok((Json::Arr(out), i + 1)),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => {
            let (s, end) = string(b, i)?;
            Ok((Json::Str(s), end))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let mut end = i + 1;
            while end < b.len() && matches!(b[end], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                end += 1;
            }
            let text = std::str::from_utf8(&b[i..end]).map_err(|_| "invalid UTF-8")?;
            Ok((Json::Num(text.to_owned()), end))
        }
        _ => {
            let rest = std::str::from_utf8(&b[i..]).unwrap_or("");
            for (lit, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if rest.starts_with(lit) {
                    return Ok((v, i + lit.len()));
                }
            }
            Err(format!("unexpected value at byte {i}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_record_shapes() {
        let v = parse(
            r#"{"seed": 18446744073709551615, "ok": true, "xs": [1, -2, "a\nb"], "nest": {"k": null}}"#,
        )
        .unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[1].as_i64(), Some(-2));
        assert_eq!(xs[2].as_str(), Some("a\nb"));
        assert_eq!(v.get("nest").unwrap().get("k"), Some(&Json::Null));
        // The compact shapes the diagnostics writers emit.
        parse(r#"{"diagnostics":[],"errors":0,"warnings":0}"#).unwrap();
        parse(r#"{"a":[1,2.5,-3e4,"x\"y",true,null],"b":{}}"#).unwrap();
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse(r#"{"a": 1"#).is_err());
        assert!(parse(r#"{"a": 1} x"#).is_err());
        assert!(parse("").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        // A repeated key would hide one of its values.
        let err = parse(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        parse(r#"{"a": 1, "b": {"a": 2}}"#).unwrap();
    }

    #[test]
    fn escape_round_trips() {
        let raw = "a\"b\\c\nd\u{1}";
        let back = parse(&format!("\"{}\"", velus_common::json_escape(raw))).unwrap();
        assert_eq!(back.as_str(), Some(raw));
    }
}
