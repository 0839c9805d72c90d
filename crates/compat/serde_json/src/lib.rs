//! Offline stand-in for `serde_json`, printing and parsing the compat
//! `serde::Value` tree.
//!
//! Deviations from strict JSON, both deliberate:
//! * non-finite floats are written as bare `Infinity` / `-Infinity` / `NaN`
//!   and accepted back (the workspace serializes `f64::INFINITY` thresholds);
//! * maps with non-string keys arrive as `[key, value]` pair arrays (that is
//!   how the compat `serde` serializes them) — plain JSON arrays, so standard
//!   tooling still reads every report this workspace writes.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// The deepest nesting of arrays and objects the parser accepts, as in
/// `serde_json`. The parser recurses once per level, so without a bound one
/// hostile document could overflow the parsing thread's stack.
const MAX_DEPTH: usize = 128;

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the compat data model; the `Result` mirrors the real API.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
///
/// # Errors
///
/// Infallible for the compat data model; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::deserialize(&value)?)
}

/// Parses JSON text into a raw [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON.
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            write_block(items.iter(), ('[', ']'), indent, depth, out, |v, d, o| {
                write_value(v, indent, d, o)
            })
        }
        Value::Object(entries) => write_block(
            entries.iter(),
            ('{', '}'),
            indent,
            depth,
            out,
            |(k, v), d, o| {
                write_string(k, o);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(v, indent, d, o);
            },
        ),
    }
}

fn write_block<T>(
    items: impl ExactSizeIterator<Item = T>,
    (open, close): (char, char),
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut write_item: impl FnMut(T, usize, &mut String),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(item, depth + 1, out);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(close);
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("NaN");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 { "Infinity" } else { "-Infinity" });
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep integral floats recognisably floaty for round-tripping.
        out.push_str(&format!("{f:.1}"));
    } else {
        // `{:?}` is Rust's shortest-roundtrip float formatting.
        out.push_str(&format!("{f:?}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'N') if self.eat_word("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'I') if self.eat_word("Infinity") => Ok(Value::Float(f64::INFINITY)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => return Err(Error(format!("expected `,` or `]`, got {other:?}"))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => return Err(Error(format!("expected `,` or `}}`, got {other:?}"))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_word("Infinity") {
                return Ok(Value::Float(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad float `{text}`: {e}")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = vec![(1u32, "a".to_string()), (2, "b\"c".to_string())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_parsable() {
        let v = vec![vec![1.5f64, f64::INFINITY], vec![-2.25]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [1e-3f64, 0.6, std::f64::consts::PI, -0.0, 1e300] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{json}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.0garbage").is_err());
        assert!(from_str::<Vec<u8>>("[1,").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse_value(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_value(&objects(MAX_DEPTH)).is_ok());
        let err = parse_value(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        assert!(parse_value(&objects(MAX_DEPTH + 1)).is_err());
        // Unclosed, as a hostile request body would send it: an error, not
        // an aborted process.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"a\":".repeat(100_000)).is_err());
    }
}
