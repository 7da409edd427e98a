//! Both forms of a tuple: one `(attribute, value)` pair held inline, any
//! other number of pairs in a sorted vector. Neither form may show
//! through any interface: seeded sequences of `set`, `unset`,
//! `from_pairs` and `project` that cross between none, one and two or
//! more attributes must agree, after every step, with the same
//! operations on a `BTreeMap<AttrId, Value>` — in equality, order,
//! hashing, `Debug`, iteration, domain and codec bytes. Randomness is a
//! seeded [`StdRng`], as in `tests/value_forms.rs`.

use migratory::model::codec::{encode_tuple, encode_u64, encode_value, Reader};
use migratory::model::{AttrId, AttrSet, Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{BuildHasher as _, RandomState};

type Oracle = BTreeMap<AttrId, Value>;

/// Four attributes (0, 1, 3 and 6): few enough that sequences keep
/// crossing the one-pair bound, spread so an insert can land before,
/// between and after the pairs held.
fn attr(rng: &mut StdRng) -> AttrId {
    AttrId([0, 1, 3, 6][rng.random_range(0usize..4)])
}

/// Integers, short and long strings and fresh values.
fn value(rng: &mut StdRng) -> Value {
    match rng.random_range(0u32..4) {
        0 => Value::int(rng.random_range(-3i64..4)),
        1 => Value::str(&"s".repeat(rng.random_range(0usize..4))),
        2 => Value::str(&"long".repeat(rng.random_range(6usize..9))),
        _ => Value::fresh(rng.random_range(0u32..3)),
    }
}

fn pairs(rng: &mut StdRng) -> Vec<(AttrId, Value)> {
    (0..rng.random_range(0usize..5)).map(|_| (attr(rng), value(rng))).collect()
}

/// The oracle's pairs, as the former vector representation held them.
fn flat(o: &Oracle) -> Vec<(AttrId, Value)> {
    o.iter().map(|(&a, v)| (a, v.clone())).collect()
}

/// `encode_tuple`'s bytes, written out from the oracle.
fn oracle_bytes(o: &Oracle) -> Vec<u8> {
    let mut out = Vec::new();
    encode_u64(&mut out, o.len() as u64);
    for (a, v) in o {
        encode_u64(&mut out, u64::from(a.0));
        encode_value(&mut out, v);
    }
    out
}

/// Everything one tuple shows must be what its oracle shows.
fn assert_agrees(t: &Tuple, o: &Oracle, hasher: &RandomState, at: &str) {
    let got: Vec<(AttrId, Value)> = t.iter().map(|(a, v)| (a, v.clone())).collect();
    assert_eq!(got, flat(o), "iter at {at}");
    assert_eq!(t.len(), o.len(), "len at {at}");
    assert_eq!(t.is_empty(), o.is_empty(), "is_empty at {at}");
    assert_eq!(t.domain(), o.keys().copied().collect::<AttrSet>(), "domain at {at}");
    for a in [0, 1, 2, 3, 6].map(AttrId) {
        assert_eq!(t.get(a), o.get(&a), "get {a:?} at {at}");
    }
    let pairs: Vec<(AttrId, &Value)> = o.iter().map(|(&a, v)| (a, v)).collect();
    assert_eq!(format!("{t:?}"), format!("Tuple {{ values: {pairs:?} }}"), "Debug at {at}");
    // The hash of the former `Vec<(AttrId, Value)>` field.
    assert_eq!(hasher.hash_one(t), hasher.hash_one(flat(o)), "hash at {at}");
    let mut bytes = Vec::new();
    encode_tuple(&mut bytes, t);
    assert_eq!(bytes, oracle_bytes(o), "codec bytes at {at}");
    let mut r = Reader::new(&bytes);
    assert_eq!(&r.tuple().unwrap(), t, "decoded at {at}");
    assert!(r.is_exhausted());
    let rebuilt: Tuple = t.iter().map(|(a, v)| (a, v.clone())).collect();
    assert_eq!(&rebuilt, t, "collected at {at}");
}

#[test]
fn both_forms_agree_with_a_map_oracle() {
    let hasher = RandomState::new();
    let mut rng = StdRng::seed_from_u64(27_182_818);
    // Every state any sequence reached, for pairwise comparisons.
    let mut seen: Vec<(Tuple, Oracle)> = Vec::new();
    for run in 0..60 {
        let mut t = Tuple::new();
        let mut o = Oracle::new();
        for step in 0..40 {
            match rng.random_range(0u32..8) {
                0..=2 => {
                    let (a, v) = (attr(&mut rng), value(&mut rng));
                    t.set(a, v.clone());
                    o.insert(a, v);
                }
                3 | 4 => {
                    let a = attr(&mut rng);
                    assert_eq!(t.unset(a), o.remove(&a), "unset at run {run} step {step}");
                }
                5 => {
                    // A repeated attribute keeps the last value, as a
                    // map's insert does.
                    let ps = pairs(&mut rng);
                    t = Tuple::from_pairs(ps.clone());
                    o = ps.into_iter().collect();
                }
                _ => {
                    let s: AttrSet =
                        (0..rng.random_range(0usize..3)).map(|_| attr(&mut rng)).collect();
                    t = t.project(s);
                    o.retain(|a, _| s.contains(*a));
                }
            }
            assert_agrees(&t, &o, &hasher, &format!("run {run} step {step}"));
            seen.push((t.clone(), o.clone()));
        }
    }
    // Equality and order of any two states are their oracles': the
    // lexicographic order of the pair sequences.
    let sample: Vec<&(Tuple, Oracle)> = seen.iter().step_by(11).collect();
    for (t1, o1) in &sample {
        for (t2, o2) in &sample {
            assert_eq!(t1 == t2, o1 == o2);
            assert_eq!(t1.cmp(t2), flat(o1).cmp(&flat(o2)), "{o1:?} against {o2:?}");
            if t1 == t2 {
                assert_eq!(hasher.hash_one(t1), hasher.hash_one(t2));
            }
        }
    }
    // Every length the sequences were meant to cross was reached.
    for n in 0..=3 {
        assert!(seen.iter().any(|(_, o)| o.len() == n), "no state of {n} attributes");
    }
}

/// A one-pair tuple reached by each path is the same tuple, with the
/// same bytes, whether it came from a map, from pairs, from shrinking
/// two pairs, from a projection or from the decoder.
#[test]
fn every_path_to_one_pair_meets() {
    let (a, b) = (AttrId(2), AttrId(5));
    let v = Value::str("k-001");
    let direct = Tuple::from_pairs([(a, v.clone())]);
    let from_map = Tuple::from(BTreeMap::from([(a, v.clone())]));
    let mut shrunk = Tuple::from_pairs([(b, Value::int(1)), (a, v.clone())]);
    assert_eq!(shrunk.unset(b), Some(Value::int(1)));
    let projected =
        Tuple::from_pairs([(a, v.clone()), (b, Value::int(1))]).project([a].into_iter().collect());
    let mut grown = Tuple::new();
    grown.set(a, v.clone());
    let mut bytes = Vec::new();
    encode_tuple(&mut bytes, &direct);
    let decoded = Reader::new(&bytes).tuple().unwrap();
    for t in [&from_map, &shrunk, &projected, &grown, &decoded] {
        assert_eq!(t, &direct);
        let mut again = Vec::new();
        encode_tuple(&mut again, t);
        assert_eq!(again, bytes);
    }
}
