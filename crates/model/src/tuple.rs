//! Tuples over attribute sets.
//!
//! For a set of attributes `S`, a tuple is a total mapping `S → 𝒰`
//! (Section 2). The tuple *yielded by* an object `o` in a database `d` is
//! `ō(A) = a(o, A)` for each `A ∈ A*(P)`; objects are compared and
//! selected through their tuples.

use crate::bitset::AttrSet;
use crate::ids::AttrId;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// A (partial) tuple: a finite mapping from attributes to constants.
///
/// "Total over S" is a property relative to an attribute set; use
/// [`Tuple::is_total_over`] to check it.
///
/// A tuple of one attribute — every object of a schema whose classes
/// carry one key — holds its pair inline, in 32 bytes and no allocation
/// of its own; any other tuple is one exactly-sized vector sorted by
/// attribute with unique keys, so a vector never holds exactly one pair.
/// Equality, order, hashing, `Debug`, iteration order (ascending
/// attribute) and the codec byte format read the pairs alone and are
/// identical to the former map representation.
#[derive(Clone)]
pub struct Tuple(Repr);

/// The two forms of a [`Tuple`]. Its length alone picks the form, so
/// equal tuples always share one.
#[derive(Clone)]
enum Repr {
    One(Pair),
    /// No pair, or at least two, ascending by attribute.
    Many(Vec<Pair>),
}

/// One attribute's value. A named struct, not an `(AttrId, Value)`
/// pair: with it the inline form fits the vector's 32 bytes, where the
/// anonymous pair grows the tuple to 40 and a heap slot to 64.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Pair {
    attr: AttrId,
    value: Value,
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple(Repr::Many(Vec::new()))
    }
}

impl Tuple {
    /// The empty tuple (total over ∅).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The tuple of one attribute `a` with value `v`.
    pub(crate) fn one(a: AttrId, v: Value) -> Self {
        Tuple(Repr::One(Pair { attr: a, value: v }))
    }

    /// Build from pairs. A repeated attribute keeps the last value.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (AttrId, Value)>) -> Self {
        // Collecting a vector's pairs reuses its buffer.
        let mut values: Vec<Pair> =
            pairs.into_iter().map(|(attr, value)| Pair { attr, value }).collect();
        values.sort_by_key(|p| p.attr); // stable: ties stay in insertion order
        values.reverse(); // last insertion first within each key run
        values.dedup_by_key(|p| p.attr); // keeps the first of each run
        values.reverse();
        Tuple::from_vec(values)
    }

    /// The tuple of `pairs`, which ascend by attribute with unique keys.
    pub(crate) fn from_sorted(pairs: impl IntoIterator<Item = (AttrId, Value)>) -> Self {
        let mut pairs = pairs.into_iter().map(|(attr, value)| Pair { attr, value });
        let Some(first) = pairs.next() else { return Tuple::new() };
        let Some(second) = pairs.next() else { return Tuple(Repr::One(first)) };
        let values: Vec<Pair> = [first, second].into_iter().chain(pairs).collect();
        debug_assert!(values.windows(2).all(|w| w[0].attr < w[1].attr), "pairs ascend");
        Tuple(Repr::Many(values))
    }

    /// The form for a sorted, deduplicated vector of any length.
    fn from_vec(mut values: Vec<Pair>) -> Self {
        if values.len() == 1 {
            Tuple(Repr::One(values.pop().expect("one pair")))
        } else {
            Tuple(Repr::Many(values))
        }
    }

    /// The pairs, ascending by attribute, whichever the form.
    fn pairs(&self) -> &[Pair] {
        match &self.0 {
            Repr::One(pair) => std::slice::from_ref(pair),
            Repr::Many(values) => values,
        }
    }

    fn index_of(&self, a: AttrId) -> Result<usize, usize> {
        self.pairs().binary_search_by_key(&a, |p| p.attr)
    }

    /// The value of attribute `a`, if present.
    #[must_use]
    pub fn get(&self, a: AttrId) -> Option<&Value> {
        self.index_of(a).ok().map(|i| &self.pairs()[i].value)
    }

    /// Set the value of attribute `a`.
    pub fn set(&mut self, a: AttrId, v: Value) {
        let pair = Pair { attr: a, value: v };
        self.0 = match std::mem::take(self).0 {
            Repr::One(held) if held.attr == a => Repr::One(pair),
            Repr::One(held) if held.attr < a => Repr::Many(vec![held, pair]),
            Repr::One(held) => Repr::Many(vec![pair, held]),
            Repr::Many(values) if values.is_empty() => Repr::One(pair),
            Repr::Many(mut values) => {
                match values.binary_search_by_key(&a, |p| p.attr) {
                    Ok(i) => values[i] = pair,
                    Err(i) => values.insert(i, pair),
                }
                Repr::Many(values)
            }
        };
    }

    /// Remove the value of attribute `a`, returning it if present. A
    /// tuple left with one pair holds it inline again.
    pub fn unset(&mut self, a: AttrId) -> Option<Value> {
        let i = self.index_of(a).ok()?;
        let (rest, removed) = match std::mem::take(self).0 {
            Repr::One(held) => (Tuple::new(), held.value),
            Repr::Many(mut values) => {
                let removed = values.remove(i).value;
                (Tuple::from_vec(values), removed)
            }
        };
        *self = rest;
        Some(removed)
    }

    /// Number of attributes with a value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// Whether no attribute has a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs().is_empty()
    }

    /// Iterate `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.pairs().iter().map(|p| (p.attr, &p.value))
    }

    /// Whether this tuple is total over `s` (defined on exactly… at least
    /// every attribute of `s`).
    #[must_use]
    pub fn is_total_over(&self, s: AttrSet) -> bool {
        s.iter().all(|a| self.index_of(a).is_ok())
    }

    /// The projection of this tuple onto `s`.
    #[must_use]
    pub fn project(&self, s: AttrSet) -> Tuple {
        // Filtering preserves sortedness and uniqueness.
        Tuple::from_sorted(self.iter().filter(|&(a, _)| s.contains(a)).map(|(a, v)| (a, v.clone())))
    }

    /// The attributes on which this tuple is defined.
    #[must_use]
    pub fn domain(&self) -> AttrSet {
        self.pairs().iter().map(|p| p.attr).collect()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pairs().cmp(other.pairs())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pairs().hash(state);
    }
}

impl std::fmt::Debug for Tuple {
    /// As the former derive printed the pair vector:
    /// `Tuple { values: [(AttrId(0), Int(1))] }`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuple").field("values", &self.iter().collect::<Vec<_>>()).finish()
    }
}

impl FromIterator<(AttrId, Value)> for Tuple {
    fn from_iter<I: IntoIterator<Item = (AttrId, Value)>>(iter: I) -> Self {
        Tuple::from_pairs(iter)
    }
}

/// A map's entries ascend by key, so they need no sort.
impl From<std::collections::BTreeMap<AttrId, Value>> for Tuple {
    fn from(map: std::collections::BTreeMap<AttrId, Value>) -> Self {
        Tuple::from_sorted(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn get_set_unset() {
        let mut t = Tuple::new();
        assert!(t.is_empty());
        t.set(a(1), Value::int(5));
        assert_eq!(t.get(a(1)), Some(&Value::int(5)));
        t.set(a(1), Value::int(6));
        assert_eq!(t.get(a(1)), Some(&Value::int(6)));
        assert_eq!(t.unset(a(1)), Some(Value::int(6)));
        assert_eq!(t.get(a(1)), None);
    }

    #[test]
    fn totality_and_projection() {
        let t = Tuple::from_pairs([(a(0), Value::int(0)), (a(1), Value::int(1))]);
        let s01: AttrSet = [a(0), a(1)].into_iter().collect();
        let s02: AttrSet = [a(0), a(2)].into_iter().collect();
        assert!(t.is_total_over(s01));
        assert!(!t.is_total_over(s02));
        let p = t.project([a(1)].into_iter().collect());
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(a(1)), Some(&Value::int(1)));
        assert_eq!(t.domain(), s01);
    }

    #[test]
    fn equality_is_value_based() {
        let t1 = Tuple::from_pairs([(a(0), Value::str("x"))]);
        let t2 = Tuple::from_pairs([(a(0), Value::str("x"))]);
        let t3 = Tuple::from_pairs([(a(0), Value::str("y"))]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    /// A vector never holds exactly one pair: every path to one pair
    /// lands inline.
    #[test]
    fn one_pair_is_always_inline() {
        let inline = |t: &Tuple| matches!(t.0, Repr::One(_));
        let two = Tuple::from_pairs([(a(2), Value::int(2)), (a(1), Value::int(1))]);
        assert!(!inline(&two));
        let mut t = two.clone();
        t.unset(a(1));
        assert!(inline(&t), "unset down to one");
        t.set(a(0), Value::int(0));
        assert!(!inline(&t));
        assert!(inline(&Tuple::from_pairs([(a(3), Value::int(1)), (a(3), Value::int(2))])));
        assert!(inline(&two.project([a(2)].into_iter().collect())));
        assert!(inline(&Tuple::from(std::collections::BTreeMap::from([(a(4), Value::int(4))]))));
        let mut empty = Tuple::one(a(5), Value::int(5));
        assert!(inline(&empty));
        empty.unset(a(5));
        assert_eq!(empty, Tuple::new());
        empty.set(a(6), Value::int(6));
        assert!(inline(&empty));
    }

    /// One pair inline is the vector's 32 bytes, and `ClassSet`'s
    /// 16-byte alignment already pads a heap slot to 48, so the slot
    /// and a delta's image stay 48 bytes.
    #[test]
    fn an_inline_pair_grows_no_slot() {
        use crate::bitset::ClassSet;
        use std::mem::size_of;
        assert_eq!(size_of::<Tuple>(), 32);
        assert_eq!(size_of::<(ClassSet, Tuple)>(), 48);
        assert_eq!(size_of::<Option<(ClassSet, Tuple)>>(), 48);
    }
}
