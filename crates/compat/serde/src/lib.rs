//! Offline API-compatible stand-in for `serde`.
//!
//! The build container has no crates.io access, so this crate provides the
//! slice of serde the workspace actually uses: `#[derive(Serialize,
//! Deserialize)]` on the shapes `serde_derive` lists, plus impls for the std
//! types the derived wire types hold:
//!
//! * `u8`, `u32`, `u64`, `usize`, `i64`, `bool`, `f32`, `f64`, `String`,
//!   `Option<T>`, `Vec<T>`, pairs `(A, B)`, `Duration` and [`Value`], both
//!   ways;
//! * `[T; N]` and `BTreeMap<K, V>`, serialize only.
//!
//! The data model is a single JSON [`Value`] tree rather than serde's
//! visitor architecture — `serde_json` in `crates/compat` prints and parses
//! that tree.
//!
//! Round-trip fidelity notes:
//! * `f32` goes through `f64` (exact) and is printed with shortest-roundtrip
//!   formatting, so `T → json → T` is bit-exact for finite floats;
//! * non-finite floats are printed as bare `Infinity` / `-Infinity` / `NaN`
//!   tokens (accepted back by the parser) instead of failing;
//! * a `BTreeMap` serializes as an array of `[key, value]` pairs sorted by
//!   key, keeping output deterministic.
//!
//! The derive takes named structs, newtype structs and enums of unit and
//! newtype variants:
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Id(u32);
//! #[derive(serde::Serialize, serde::Deserialize)]
//! enum Verdict {
//!     Matched(Id),
//!     TimedOut,
//! }
//! ```
//!
//! Any other shape fails to compile, with a message naming the type:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Span(u32, u32);
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! enum Shape {
//!     Box(u32, u32),
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The self-describing data model shared by [`Serialize`] and [`Deserialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer outside the `i64` range.
    UInt(u64),
    /// Floating-point number (including non-finite values).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object with string keys, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, when this is an array.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// An "expected X while deserializing Y" error.
    pub fn expected(what: &str, context: &str) -> Error {
        Error(format!("expected {what} while deserializing {context}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that convert themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into the data model.
    fn serialize(&self) -> Value;
}

/// Types that reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self`, reporting a structural mismatch as an error.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when `v` does not match the expected shape.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

/// Looks a derived-struct field up by name and deserializes it (used by the
/// generated `Deserialize` impls).
///
/// An *absent* field is offered to the type as [`Value::Null`] first, so any
/// type that accepts `null` — notably `Option<T>`, which maps it to `None` —
/// is wire-optional: old clients can keep sending payloads that predate the
/// field. Types that reject `null` still get the classic "missing field"
/// error.
///
/// # Errors
///
/// Returns an [`Error`] when the field is missing (and the type rejects
/// `null`) or mismatched.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v),
        None => T::deserialize(&Value::Null).map_err(|_| Error(format!("missing field `{name}`"))),
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                match i64::try_from(*self as i128) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let wide: Option<i128> = match v {
                    Value::Int(i) => Some(*i as i128),
                    Value::UInt(u) => Some(*u as i128),
                    Value::Float(f) if f.fract() == 0.0 => Some(*f as i128),
                    _ => None,
                };
                if let Some(w) = wide {
                    if let Ok(x) = <$t>::try_from(w) {
                        return Ok(x);
                    }
                }
                Err(Error::expected("integer", stringify!($t)))
            }
        }
    )*};
}

impl_int!(i64, u8, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| Error::expected("number", "f32"))
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", "String"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.serialize(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::expected("array", "Vec"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Seq(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_seq()
            .ok_or_else(|| Error::expected("array", "tuple"))?;
        match s {
            [a, b] => Ok((A::deserialize(a)?, B::deserialize(b)?)),
            _ => Err(Error(format!("expected 2-tuple, got {} elements", s.len()))),
        }
    }
}

/// A map serializes as an array of `[key, value]` pairs sorted by the
/// key's printed `Value` (keys need not be strings, and the order is fixed).
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| {
                let key = k.serialize();
                (format!("{key:?}"), Value::Seq(vec![key, v.serialize()]))
            })
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Seq(pairs.into_iter().map(|(_, pair)| pair).collect())
    }
}

impl Serialize for Duration {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            (
                "nanos".to_string(),
                Value::UInt(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl Deserialize for Duration {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::expected("object", "Duration"))?;
        let secs: u64 = field(obj, "secs")?;
        let nanos: u32 = field(obj, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_fields_are_null_to_optional_types_and_errors_to_the_rest() {
        let obj: Vec<(String, Value)> = vec![("present".to_string(), Value::Int(7))];
        // Option<T> treats absence exactly like an explicit null.
        assert_eq!(field::<Option<u8>>(&obj, "absent").unwrap(), None);
        assert_eq!(field::<Option<u8>>(&obj, "present").unwrap(), Some(7));
        // Non-nullable types keep the classic missing-field diagnosis.
        let err = field::<u8>(&obj, "absent").unwrap_err();
        assert!(err.to_string().contains("missing field `absent`"), "{err}");
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::deserialize(&42i64.serialize()).unwrap(), 42);
        assert_eq!(f32::deserialize(&1.5f32.serialize()).unwrap(), 1.5);
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::deserialize(&Value::Null).unwrap(), None);
    }

    #[test]
    fn containers_serialize_as_arrays() {
        let m: BTreeMap<u32, i64> = [(3, 4), (1, 2)].into_iter().collect();
        let pair = |k, v| Value::Seq(vec![Value::Int(k), Value::Int(v)]);
        assert_eq!(m.serialize(), Value::Seq(vec![pair(1, 2), pair(3, 4)]));
        let arr = [vec![1.0f32], vec![2.0]];
        let floats = |f| Value::Seq(vec![Value::Float(f)]);
        assert_eq!(arr.serialize(), Value::Seq(vec![floats(1.0), floats(2.0)]));
        let back: (u32, i64) = Deserialize::deserialize(&pair(1, 2)).unwrap();
        assert_eq!(back, (1, 2));
    }

    #[test]
    fn duration_round_trip() {
        let d = Duration::new(7, 123);
        assert_eq!(Duration::deserialize(&d.serialize()).unwrap(), d);
    }
}
