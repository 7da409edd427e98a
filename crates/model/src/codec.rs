//! Canonical binary encoding of model values — the shared substrate of
//! the persistence layer.
//!
//! The durable-store formats (transaction [`Delta`]s in `migratory-lang`,
//! [`Instance`] snapshots here, the enforcement WAL in `migratory-core`)
//! all bottom out in the primitives of this module: LEB128 varints,
//! length-prefixed strings, [`Value`]s, [`Tuple`]s and [`ClassSet`] /
//! [`AttrSet`] bitmasks. Two properties are contractual:
//!
//! * **Canonical** — encoding is a function of the abstract value alone
//!   (maps iterate in key order, sets in element order), so equal values
//!   produce identical bytes and byte comparison decides state equality.
//!   The recovery test suite leans on this: "recovered state ==
//!   uncrashed state" is checked as byte equality of re-encodings.
//! * **Self-delimiting** — every `decode_*` consumes exactly what the
//!   matching `encode_*` produced, so records compose by concatenation
//!   without external framing.
//!
//! Decoding is total: corrupt or truncated input yields
//! [`ModelError::Corrupt`], never a panic.
//!
//! [`Delta`]: https://docs.rs/migratory-lang
//! [`Instance`]: crate::Instance
//! [`Value`]: crate::Value
//! [`Tuple`]: crate::Tuple
//! [`ClassSet`]: crate::ClassSet
//! [`AttrSet`]: crate::AttrSet

use crate::bitset::IdSet;
use crate::error::ModelError;
use crate::ids::{AttrId, DenseId};
use crate::tuple::Tuple;
use crate::value::Value;

/// Append a LEB128 varint.
pub fn encode_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
pub fn encode_i64(out: &mut Vec<u8>, v: i64) {
    encode_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a LEB128 varint of a `u128` (bitmask payloads).
pub fn encode_u128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn encode_str(out: &mut Vec<u8>, s: &str) {
    encode_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a [`Value`]: one tag byte, then the payload.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            encode_i64(out, *i);
        }
        Value::Str(s) => {
            // `encode_str`'s bytes, read without re-checking an inline
            // string's UTF-8.
            out.push(1);
            encode_u64(out, s.as_bytes().len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Fresh(t) => {
            out.push(2);
            encode_u64(out, u64::from(*t));
        }
    }
}

/// Append a [`Tuple`]: entry count, then `(attr, value)` pairs in
/// attribute order (canonical — [`Tuple::iter`] is ordered).
pub fn encode_tuple(out: &mut Vec<u8>, t: &Tuple) {
    encode_u64(out, t.len() as u64);
    for (a, v) in t.iter() {
        encode_u64(out, a.index() as u64);
        encode_value(out, v);
    }
}

/// Append an [`IdSet`] as its raw bitmask.
pub fn encode_idset<T>(out: &mut Vec<u8>, s: IdSet<T>) {
    encode_u128(out, s.raw());
}

/// A cursor over an encoded byte slice. All reads are bounds-checked and
/// return [`ModelError::Corrupt`] on truncated or malformed input.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, starting at offset 0.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(what: &str) -> ModelError {
        ModelError::Corrupt(what.to_owned())
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, ModelError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| Self::corrupt("unexpected end"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, ModelError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Self::corrupt("varint overlong"))
    }

    /// Read a zigzag-encoded signed varint.
    pub fn i64(&mut self) -> Result<i64, ModelError> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a LEB128 varint of a `u128`.
    pub fn u128(&mut self) -> Result<u128, ModelError> {
        let mut v = 0u128;
        for shift in (0..128).step_by(7) {
            let b = self.byte()?;
            v |= u128::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Self::corrupt("u128 varint overlong"))
    }

    /// Read a `u64` varint, checked to fit a `usize` count bounded by the
    /// remaining input (so corrupt counts cannot trigger huge
    /// allocations).
    pub fn count(&mut self) -> Result<usize, ModelError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(Self::corrupt("count exceeds remaining input"));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, ModelError> {
        let len = self.count()?;
        let end = self.pos + len;
        let raw = self.bytes.get(self.pos..end).ok_or_else(|| Self::corrupt("string length"))?;
        self.pos = end;
        std::str::from_utf8(raw).map_err(|_| Self::corrupt("string is not UTF-8"))
    }

    /// Read a [`Value`].
    pub fn value(&mut self) -> Result<Value, ModelError> {
        match self.byte()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::str(self.str()?)),
            2 => {
                let t = self.u64()?;
                u32::try_from(t)
                    .map(Value::Fresh)
                    .map_err(|_| Self::corrupt("fresh tag out of range"))
            }
            t => Err(Self::corrupt(&format!("unknown value tag {t}"))),
        }
    }

    /// Read a [`Tuple`]. A tuple of one pair is read straight into its
    /// inline form, with no allocation.
    pub fn tuple(&mut self) -> Result<Tuple, ModelError> {
        let n = self.count()?;
        if n == 1 {
            let a = self.attr()?;
            return Ok(Tuple::one(a, self.value()?));
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let a = self.attr()?;
            pairs.push((a, self.value()?));
        }
        Ok(Tuple::from_pairs(pairs))
    }

    fn attr(&mut self) -> Result<AttrId, ModelError> {
        let a = self.u64()?;
        usize::try_from(a)
            .ok()
            .filter(|&i| i <= u32::MAX as usize)
            .map(AttrId::from_index)
            .ok_or_else(|| Self::corrupt("attribute index out of range"))
    }

    /// Read an [`IdSet`] bitmask.
    pub fn idset<T>(&mut self) -> Result<IdSet<T>, ModelError> {
        Ok(IdSet::from_raw(self.u128()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ClassSet;
    use crate::ids::ClassId;

    #[test]
    fn varints_round_trip() {
        let mut out = Vec::new();
        let cases = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &cases {
            encode_u64(&mut out, v);
        }
        let signed = [0i64, -1, 1, i64::MIN, i64::MAX, -300];
        for &v in &signed {
            encode_i64(&mut out, v);
        }
        encode_u128(&mut out, u128::MAX);
        let mut r = Reader::new(&out);
        for &v in &cases {
            assert_eq!(r.u64().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.i64().unwrap(), v);
        }
        assert_eq!(r.u128().unwrap(), u128::MAX);
        assert!(r.is_exhausted());
    }

    #[test]
    fn values_tuples_sets_round_trip() {
        let t = Tuple::from_pairs([
            (AttrId(0), Value::int(-42)),
            (AttrId(3), Value::str("héllo")),
            (AttrId(7), Value::fresh(9)),
        ]);
        let cs: ClassSet = [ClassId(0), ClassId(5), ClassId(127)].into_iter().collect();
        let mut out = Vec::new();
        encode_tuple(&mut out, &t);
        encode_idset(&mut out, cs);
        let mut r = Reader::new(&out);
        assert_eq!(r.tuple().unwrap(), t);
        assert_eq!(r.idset::<ClassId>().unwrap(), cs);
        assert!(r.is_exhausted());
    }

    #[test]
    fn corrupt_input_errors_not_panics() {
        // Truncated varint.
        assert!(Reader::new(&[0x80]).u64().is_err());
        // Overlong varint.
        assert!(Reader::new(&[0x80; 11]).u64().is_err());
        // String length beyond input.
        let mut out = Vec::new();
        encode_u64(&mut out, 100);
        out.push(b'x');
        assert!(Reader::new(&out).str().is_err());
        // Unknown value tag.
        assert!(Reader::new(&[9]).value().is_err());
        // Count larger than remaining input is rejected before allocation.
        let mut out = Vec::new();
        encode_u64(&mut out, u64::MAX);
        assert!(Reader::new(&out).count().is_err());
    }
}
