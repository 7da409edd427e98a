//! The universal domain 𝒰 of constants.
//!
//! The paper assumes a single countably infinite domain of printable
//! constants (`a, b, c, …`) and notes the results generalise to multiple
//! domains. We realise 𝒰 as the disjoint union of
//!
//! * 64-bit integers (the paper freely uses ℕ ⊆ 𝒰, e.g. in the branching
//!   construction of Lemma 3.4),
//! * strings ([`SmallStr`]), and
//! * *fresh* values `⊥ₖ` — the `p₁…p_l` / `ν₁…ν_m` values that the proofs
//!   of Lemma 3.9 and Theorem 4.3 draw from outside the constants of a
//!   transaction schema. Keeping them in a separate variant makes
//!   "does not occur among the schema's constants" trivially true by
//!   construction.
//!
//! Equality is plain structural equality across the union; the domain is
//! totally ordered (ints < strings < fresh, strings byte-wise) so
//! instances and canonical databases have a deterministic form.
//!
//! # Layout
//!
//! A [`Value`] is 24 bytes. A string of up to [`SmallStr::INLINE`] bytes
//! — every key of a typical workload — is stored inside the value, so
//! cloning it copies bytes instead of touching a shared reference count,
//! and an instance holding a million keys holds no allocation for any of
//! them. A longer string lives behind an `Arc<str>` that clones share.
//! Equality, order and hashing read the bytes alone, so the two forms
//! are indistinguishable to every caller.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A constant of the universal domain 𝒰.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A string constant (cheaply clonable; short ones inline).
    Str(SmallStr),
    /// A fresh value minted by an algorithm, guaranteed distinct from every
    /// `Int`/`Str` constant and from every other `Fresh` with a different
    /// tag. Used for the `pⱼ` and `νᵢ` values of Lemma 3.9.
    Fresh(u32),
}

/// The string of a [`Value::Str`]: up to [`SmallStr::INLINE`] bytes
/// stored inline, a longer string behind a shared `Arc<str>`. Derefs to
/// `str`; equality, order and hashing are those of the string's bytes,
/// which agree with `str`'s.
#[derive(Clone)]
pub struct SmallStr(Repr);

/// The two forms of a [`SmallStr`]. A string's length alone picks its
/// form, so equal strings always share one.
#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string.
    Inline {
        len: u8,
        bytes: [u8; SmallStr::INLINE],
    },
    Shared(Arc<str>),
}

impl SmallStr {
    /// The longest string, in bytes, stored inside the value: what fits
    /// beside a length byte and the [`Value`] tag in 24 bytes.
    pub const INLINE: usize = 22;

    /// The string `s`, inline if it fits.
    pub(crate) fn new(s: &str) -> SmallStr {
        if s.len() > Self::INLINE {
            return SmallStr(Repr::Shared(Arc::from(s)));
        }
        let mut bytes = [0u8; Self::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        SmallStr(Repr::Inline { len: s.len() as u8, bytes })
    }

    /// The string's UTF-8 bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The string. An inline string's bytes are checked as UTF-8 on the
    /// way out (they were copied from a `str`); comparisons and hashing
    /// read [`SmallStr::as_bytes`] and skip the check.
    fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes came from a str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// Whether the string is stored inline (at most [`SmallStr::INLINE`]
    /// bytes long).
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for SmallStr {
    /// As `str` hashes: the bytes, then `0xff` (which no UTF-8 string
    /// contains) to keep the encoding prefix-free.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Value {
    /// String constant constructor.
    #[must_use]
    pub fn str(s: &str) -> Self {
        Value::Str(SmallStr::new(s))
    }

    /// Integer constant constructor.
    #[must_use]
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// A fresh value with the given tag.
    #[must_use]
    pub const fn fresh(tag: u32) -> Self {
        Value::Fresh(tag)
    }

    /// Whether this is a fresh (algorithm-minted) value.
    #[must_use]
    pub const fn is_fresh(&self) -> bool {
        matches!(self, Value::Fresh(_))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(&s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => f.write_str(s),
            Value::Fresh(t) => write!(f, "⊥{t}"),
        }
    }
}

/// A deterministic source of fresh values, used by the analyzer and the
/// CSL compilers. Every value it yields is distinct from all previously
/// yielded ones.
#[derive(Clone, Debug, Default)]
pub struct FreshSource {
    next: u32,
}

impl FreshSource {
    /// A source starting at tag 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint the next fresh value.
    pub fn mint(&mut self) -> Value {
        let v = Value::Fresh(self.next);
        self.next += 1;
        v
    }

    /// Mint `n` fresh values.
    pub fn mint_n(&mut self, n: usize) -> Vec<Value> {
        (0..n).map(|_| self.mint()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_across_variants() {
        assert_eq!(Value::int(3), Value::from(3));
        assert_eq!(Value::str("ab"), Value::from("ab"));
        assert_ne!(Value::int(3), Value::str("3"));
        assert_ne!(Value::fresh(3), Value::int(3));
        assert_ne!(Value::fresh(0), Value::fresh(1));
    }

    #[test]
    fn ordering_is_total_and_stratified() {
        assert!(Value::int(i64::MAX) < Value::str(""));
        assert!(Value::str("zzz") < Value::fresh(0));
        assert!(Value::int(-1) < Value::int(0));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn a_value_is_three_words() {
        // The inline form must not grow the value it saves an
        // allocation for.
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(-7).to_string(), "-7");
        assert_eq!(Value::str("Ann").to_string(), "Ann");
        assert_eq!(Value::fresh(2).to_string(), "⊥2");
    }

    #[test]
    fn fresh_source_never_repeats() {
        let mut src = FreshSource::new();
        let vs = src.mint_n(100);
        for (i, a) in vs.iter().enumerate() {
            for b in &vs[i + 1..] {
                assert_ne!(a, b);
            }
            assert!(a.is_fresh());
        }
    }
}
