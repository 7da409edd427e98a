//! Hyperplanes and separators (the proof machinery of Theorem 3.2(1)).
//!
//! A *hyperplane* on an attribute set `S` with respect to a constant set
//! `C` fixes, for every attribute, either one constant of `C` or
//! "different from every constant of C" (*free*). A hyperplane is refined
//! by an equivalence relation over its free attributes recording which of
//! them hold equal values. A *separator vertex* is a triple
//! `(ω, hyperplane, equivalence)`; every object of a database matches
//! exactly one vertex (Lemma 3.7), and SL transactions cannot distinguish
//! objects matching the same vertex (Lemma 3.8) — which is why the
//! migration graph over these vertices captures the pattern families.

use crate::alphabet::RoleAlphabet;
use migratory_model::{AttrId, Instance, Oid, RoleSet, Schema, Tuple, Value};

/// Per-attribute hyperplane choice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Choice {
    /// The attribute equals `constants[i]`.
    Eq(u16),
    /// The attribute differs from every constant (`Att₊`).
    Free,
}

/// A separator vertex `(ω, Γ, [r])`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexKey {
    /// Role-set symbol (non-empty).
    pub role: u32,
    /// Hyperplane choice per attribute of `A_ω`, in `AttrId` order.
    pub choices: Vec<Choice>,
    /// Equivalence classes over the free attributes, as a canonical
    /// restricted-growth string (class of the i-th free attribute;
    /// first occurrence of each class index is increasing).
    pub partition: Vec<u8>,
}

/// The sorted attribute list `A_ω` of a role set.
#[must_use]
pub fn attrs_of_role(schema: &Schema, rs: RoleSet) -> Vec<AttrId> {
    schema.attrs_of_class_set(rs.classes()).iter().collect()
}

/// The vertex matched by object `o` in `db` (Lemma 3.7), or `None` when
/// the object does not occur.
#[must_use]
pub fn vertex_of(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    constants: &[Value],
    db: &Instance,
    o: Oid,
) -> Option<VertexKey> {
    let cs = db.role_set(o);
    if cs.is_empty() {
        return None;
    }
    let rs = RoleSet::new(schema, cs).ok()?;
    let role = alphabet.symbol_of(rs)?;
    let attrs = attrs_of_role(schema, rs);
    let tuple = db.tuple_ref(o)?;
    Some(key_of_tuple(role, &attrs, constants, tuple))
}

/// Compute the key of a tuple over the given attributes.
#[must_use]
pub fn key_of_tuple(role: u32, attrs: &[AttrId], constants: &[Value], tuple: &Tuple) -> VertexKey {
    let mut choices = Vec::with_capacity(attrs.len());
    let mut free_values: Vec<&Value> = Vec::new();
    for &a in attrs {
        let v = tuple.get(a).expect("instance invariant: total attribute map");
        match constants.iter().position(|c| c == v) {
            Some(i) => choices.push(Choice::Eq(i as u16)),
            None => {
                choices.push(Choice::Free);
                free_values.push(v);
            }
        }
    }
    // Canonical restricted-growth string over free attribute values.
    let mut partition = Vec::with_capacity(free_values.len());
    let mut reps: Vec<&Value> = Vec::new();
    for v in free_values {
        match reps.iter().position(|r| *r == v) {
            Some(i) => partition.push(i as u8),
            None => {
                partition.push(reps.len() as u8);
                reps.push(v);
            }
        }
    }
    VertexKey { role, choices, partition }
}

/// Build the canonical single-object database `d_{v}` of Lemma 3.9: one
/// object `o₁` matching the vertex, with the `j`-th free equivalence
/// class holding the fresh value `pⱼ = Fresh(j)`.
#[must_use]
pub fn canonical_db(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    constants: &[Value],
    key: &VertexKey,
) -> Instance {
    let rs = alphabet.role_set(key.role);
    let attrs = attrs_of_role(schema, rs);
    debug_assert_eq!(attrs.len(), key.choices.len());
    let mut values = Tuple::new();
    let mut free_i = 0usize;
    for (&a, choice) in attrs.iter().zip(&key.choices) {
        let v = match choice {
            Choice::Eq(i) => constants[*i as usize].clone(),
            Choice::Free => {
                let class = key.partition[free_i];
                free_i += 1;
                Value::Fresh(u32::from(class))
            }
        };
        values.set(a, v);
    }
    let mut db = Instance::empty();
    db.create(rs.classes(), values);
    db
}

/// Number of free equivalence classes of a key (the `l` of Lemma 3.9).
#[must_use]
pub fn num_free_classes(key: &VertexKey) -> usize {
    key.partition.iter().map(|&c| c as usize + 1).max().unwrap_or(0)
}

/// All canonical partitions (restricted growth strings) of `n` elements —
/// Bell(n) many. Used by the full-space ablation.
#[must_use]
pub fn all_partitions(n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut cur = vec![0u8; n];
    fn rec(i: usize, n: usize, maxc: u8, cur: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if i == n {
            out.push(cur.clone());
            return;
        }
        for c in 0..=maxc {
            cur[i] = c;
            rec(i + 1, n, maxc.max(c + 1), cur, out);
        }
    }
    if n == 0 {
        out.push(Vec::new());
    } else {
        rec(0, n, 0, &mut cur, &mut out);
    }
    out
}

/// Enumerate the **entire** separator vertex space `V_Σ` (every non-empty
/// role set × every hyperplane × every equivalence) — the paper's
/// construction before reachability pruning. Exponential; exposed for the
/// ablation benchmark and for exhaustiveness tests on tiny inputs.
#[must_use]
pub fn enumerate_full_space(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    constants: &[Value],
) -> Vec<VertexKey> {
    let mut out = Vec::new();
    let k = constants.len();
    for role in alphabet.nonempty_symbols() {
        let attrs = attrs_of_role(schema, alphabet.role_set(role));
        let n = attrs.len();
        // Odometer over (k+1)^n hyperplanes.
        let mut digits = vec![0usize; n];
        loop {
            let choices: Vec<Choice> = digits
                .iter()
                .map(|&d| if d < k { Choice::Eq(d as u16) } else { Choice::Free })
                .collect();
            let free_count = choices.iter().filter(|c| **c == Choice::Free).count();
            for partition in all_partitions(free_count) {
                out.push(VertexKey { role, choices: choices.clone(), partition });
            }
            // Advance.
            let mut pos = 0;
            loop {
                if pos == n {
                    break;
                }
                digits[pos] += 1;
                if digits[pos] <= k {
                    break;
                }
                digits[pos] = 0;
                pos += 1;
            }
            if pos == n {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use migratory_model::schema::university_schema;
    use std::collections::BTreeMap;

    fn setup() -> (Schema, RoleAlphabet, Vec<Value>) {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let constants = vec![Value::str("c1"), Value::int(7)];
        (s, a, constants)
    }

    #[test]
    fn lemma_3_7_each_object_matches_one_vertex() {
        let (s, a, constants) = setup();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let name = s.attr_id("Name").unwrap();
        let mut db = Instance::empty();
        db.create(
            migratory_model::ClassSet::singleton(person),
            BTreeMap::from([(ssn, Value::str("c1")), (name, Value::str("weird"))]),
        );
        let key = vertex_of(&s, &a, &constants, &db, Oid(1)).unwrap();
        assert_eq!(key.choices, vec![Choice::Eq(0), Choice::Free]);
        assert_eq!(key.partition, vec![0]);
        assert!(vertex_of(&s, &a, &constants, &db, Oid(9)).is_none());
    }

    #[test]
    fn equal_free_values_share_a_class() {
        let (s, a, constants) = setup();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let name = s.attr_id("Name").unwrap();
        let mk = |v1: &str, v2: &str| {
            let mut db = Instance::empty();
            db.create(
                migratory_model::ClassSet::singleton(person),
                BTreeMap::from([(ssn, Value::str(v1)), (name, Value::str(v2))]),
            );
            vertex_of(&s, &a, &constants, &db, Oid(1)).unwrap()
        };
        assert_eq!(mk("x", "x").partition, vec![0, 0]);
        assert_eq!(mk("x", "y").partition, vec![0, 1]);
        // Canonical: different value pairs give the same key.
        assert_eq!(mk("x", "y"), mk("p", "q"));
        assert_ne!(mk("x", "x"), mk("x", "y"));
    }

    #[test]
    fn canonical_db_matches_its_own_key() {
        let (s, a, constants) = setup();
        for key in enumerate_full_space(&s, &a, &constants).into_iter().take(500) {
            let db = canonical_db(&s, &a, &constants, &key);
            db.check_invariants(&s).unwrap();
            let key2 = vertex_of(&s, &a, &constants, &db, Oid(1)).unwrap();
            assert_eq!(key, key2, "canonical database must match its vertex");
        }
    }

    #[test]
    fn partitions_are_bell_numbers() {
        assert_eq!(all_partitions(0).len(), 1);
        assert_eq!(all_partitions(1).len(), 1);
        assert_eq!(all_partitions(2).len(), 2);
        assert_eq!(all_partitions(3).len(), 5);
        assert_eq!(all_partitions(4).len(), 15);
        // Restricted-growth canonical form.
        for p in all_partitions(3) {
            assert_eq!(p[0], 0);
            for i in 1..p.len() {
                let max_before = p[..i].iter().copied().max().unwrap_or(0);
                assert!(p[i] <= max_before + 1);
            }
        }
    }

    #[test]
    fn full_space_size() {
        // PERSON role set: 2 attrs, k = 2 constants: hyperplanes = 3² = 9;
        // free-count 0 → 1 partition ×4, 1 → 1 ×4, 2 → 2 ×1: total 4+4+2=10.
        let (s, a, constants) = setup();
        let person_sym = a.symbol_of(RoleSet::closure_of_named(&s, &["PERSON"]).unwrap()).unwrap();
        let count = enumerate_full_space(&s, &a, &constants)
            .into_iter()
            .filter(|k| k.role == person_sym)
            .count();
        assert_eq!(count, 10);
    }

    #[test]
    fn num_free_classes_counts() {
        let key = VertexKey {
            role: 1,
            choices: vec![Choice::Free, Choice::Free, Choice::Eq(0)],
            partition: vec![0, 1],
        };
        assert_eq!(num_free_classes(&key), 2);
        let key2 = VertexKey { role: 1, choices: vec![Choice::Eq(0)], partition: vec![] };
        assert_eq!(num_free_classes(&key2), 0);
    }
}
