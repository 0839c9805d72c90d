//! Stable corpus fingerprints: content-addressed identity for trained models.
//!
//! A [`CorpusFingerprint`] is a 128-bit stable hash over everything that
//! determines the bits of a [`crate::train::TrainedAttack`]: the attack
//! configuration, the defense applied to the corpus, the corpus designs
//! themselves, and the split layer. The training thread count is not among
//! them: training gives the same bits at every thread count. Two cells with equal fingerprints train bit-identical models,
//! so a [`crate::store::ModelStore`] keyed by fingerprint can skip training
//! entirely on a hit.
//!
//! The hash is a fixed FNV-1a variant over explicit byte encodings — not
//! `std::hash::Hasher`, whose output is allowed to change between releases
//! and would silently invalidate every on-disk store.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// A second, fixed offset basis so the two lanes decorrelate from the first
/// byte on.
const FNV_OFFSET_B: u64 = 0xaf63_bd4c_8601_b7df;

/// Two independent FNV-1a lanes producing a 128-bit digest.
///
/// Writes are length-prefixed, so `write_str("ab"); write_str("c")` and
/// `write_str("a"); write_str("bc")` hash differently.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_raw(&(bytes.len() as u64).to_le_bytes());
        self.write_raw(bytes);
    }

    /// Hashes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Hashes a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hashes an `f64` by bit pattern (`-0.0` and `0.0` therefore differ).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hashes a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_raw(&[u8::from(v)]);
    }

    /// The 128-bit digest accumulated so far.
    pub fn finish(&self) -> CorpusFingerprint {
        CorpusFingerprint([self.a, self.b])
    }
}

/// A 128-bit content address for a training corpus (and thus for the model
/// trained on it). Serializes as a 32-character hex string — also its
/// filename in the on-disk [`crate::store::DiskModelStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorpusFingerprint(pub [u64; 2]);

impl CorpusFingerprint {
    /// Fingerprints a sequence of pre-canonicalized parts (typically the
    /// JSON encodings of the corpus-determining configs, in a fixed order).
    pub fn of_parts<S: AsRef<str>>(parts: &[S]) -> CorpusFingerprint {
        let mut h = StableHasher::new();
        for p in parts {
            h.write_str(p.as_ref());
        }
        h.finish()
    }

    /// The 32-character lowercase hex form.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the form produced by [`CorpusFingerprint::to_hex`].
    pub fn from_hex(s: &str) -> Option<CorpusFingerprint> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let a = u64::from_str_radix(&s[..16], 16).ok()?;
        let b = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CorpusFingerprint([a, b]))
    }
}

impl fmt::Display for CorpusFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Serialize for CorpusFingerprint {
    fn serialize(&self) -> Value {
        Value::Str(self.to_hex())
    }
}

impl Deserialize for CorpusFingerprint {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::expected("string", "CorpusFingerprint"))?;
        CorpusFingerprint::from_hex(s).ok_or_else(|| Error(format!("bad fingerprint hex `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let fp = CorpusFingerprint([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]);
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(CorpusFingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(CorpusFingerprint::from_hex("zz"), None);
        assert_eq!(CorpusFingerprint::from_hex(&"f".repeat(33)), None);
    }

    #[test]
    fn serde_round_trip() {
        let fp = CorpusFingerprint::of_parts(&["a", "b"]);
        let json = serde_json::to_string(&fp).unwrap();
        let back: CorpusFingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn writes_are_length_prefixed() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let fps: Vec<CorpusFingerprint> = (0..100u64)
            .map(|i| {
                let mut h = StableHasher::new();
                h.write_u64(i);
                h.write_f64(i as f64 * 0.1);
                h.finish()
            })
            .collect();
        let mut unique = fps.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), fps.len());
    }

    #[test]
    fn digest_is_stable_across_versions() {
        // Pinned digest: changing the hash function would orphan every
        // on-disk model store, so this value must never change.
        let mut h = StableHasher::new();
        h.write_str("deepsplit");
        h.write_u64(3);
        h.write_bool(true);
        assert_eq!(h.finish().to_hex(), "a904a5d242433660362a1010ec3b2492");
    }
}
