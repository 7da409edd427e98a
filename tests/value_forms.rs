//! Both forms of a string value: up to `SmallStr::INLINE` (22) bytes
//! stored inside the 24-byte `Value`, longer strings behind a shared
//! pointer. Neither form may show through any interface: the index-backed
//! `Sat` must agree with the full-scan oracle when keys cross the bound
//! and when values shared by two or three objects are deleted down to
//! one (the value index keeps a lone holder inline and boxes a set only
//! while a value is shared), and every codec must carry every length
//! unchanged, with equality and order those of `str`. Randomness is a
//! seeded [`StdRng`], as in `tests/indexed_sat.rs`.

use migratory::core::enforce::net::frame;
use migratory::lang::codec::{decode_invoke, encode_invoke};
use migratory::lang::{
    apply_transaction_delta, decode_delta, delta_from_text, delta_to_text, encode_delta,
    Assignment, AtomicUpdate, Transaction,
};
use migratory::model::codec::{encode_str, encode_value, Reader};
use migratory::model::schema::university_schema;
use migratory::model::{
    Atom, AttrId, ClassId, ClassSet, Condition, Instance, Oid, Schema, SchemaBuilder, SmallStr,
    Value,
};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{BuildHasher as _, RandomState};

/// A string of exactly `len` bytes from one of three alphabets: ASCII,
/// two-byte `é` and three-byte `€` (padded with ASCII to the length),
/// so multi-byte characters straddle the inline bound at some lengths.
fn string_of(len: usize, family: usize) -> String {
    let (unit, width) = [("a", 1), ("é", 2), ("€", 3)][family];
    let mut s = unit.repeat(len / width);
    s.extend(std::iter::repeat_n('z', len % width));
    assert_eq!(s.len(), len);
    s
}

#[test]
fn every_length_round_trips_through_every_codec() {
    let schema = university_schema();
    let person = schema.class_id("PERSON").unwrap();
    let ssn = schema.attr_id("SSN").unwrap();
    let name = schema.attr_id("Name").unwrap();
    let mut all = Vec::new();
    for len in 0..=48 {
        for family in 0..3 {
            let s = string_of(len, family);
            let v = Value::str(&s);
            let Value::Str(inner) = &v else { panic!("a string value") };
            assert_eq!(inner.is_inline(), len <= SmallStr::INLINE, "form of {len} bytes");
            assert_eq!(&**inner, s.as_str());
            assert_eq!(inner.as_bytes(), s.as_bytes());
            assert_eq!(v.to_string(), s);
            assert_eq!(format!("{v:?}"), format!("Str({s:?})"));

            // Model codec: one tag byte, then the length-prefixed bytes.
            let mut bytes = Vec::new();
            encode_value(&mut bytes, &v);
            let mut expected = vec![1u8];
            encode_str(&mut expected, &s);
            assert_eq!(bytes, expected, "value bytes of {s:?}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.value().unwrap(), v);
            assert!(r.is_exhausted());

            // Binary invoke frame, as the wire decoder reads it.
            let mut wire = Vec::new();
            frame::encode_invoke_frame(&mut wire, "Mk", std::slice::from_ref(&v));
            let frame::Scan::Frame { kind, payload_len } = frame::scan(&wire) else {
                panic!("a whole frame of {len} bytes scans")
            };
            assert_eq!(kind, frame::REQ_INVOKE);
            let payload = &wire[frame::HEADER_LEN..frame::HEADER_LEN + payload_len];
            let (tx, args) = decode_invoke(&mut Reader::new(payload)).unwrap();
            assert_eq!((tx.as_str(), args), ("Mk", vec![v.clone()]));
            let mut invoke = Vec::new();
            encode_invoke(&mut invoke, "Mk", std::slice::from_ref(&v));
            assert_eq!(invoke, payload);

            // Transaction deltas, binary and text: a create whose key and
            // name are the string.
            let mut db = Instance::empty();
            let create = AtomicUpdate::Create {
                class: person,
                gamma: Condition::from_atoms([
                    Atom::eq_const(ssn, v.clone()),
                    Atom::eq_const(name, v.clone()),
                ]),
            };
            let t = Transaction::sl("mk", &[], vec![create]);
            let delta = apply_transaction_delta(&schema, &mut db, &t, &Assignment::empty())
                .expect("create applies");
            assert_eq!(db.value(Oid(1), ssn), Some(&v));
            let text = delta_to_text(&delta);
            assert_eq!(delta_from_text(&text).unwrap(), delta, "text delta of {s:?}");
            let mut binary = Vec::new();
            encode_delta(&mut binary, &delta);
            assert_eq!(decode_delta(&mut Reader::new(&binary)).unwrap(), delta);
            all.push(s);
        }
    }
    // Equality, order and hashing are those of `str`, across forms.
    let state = RandomState::new();
    for a in &all {
        let va = Value::str(a);
        let Value::Str(inner) = &va else { unreachable!() };
        assert_eq!(state.hash_one(inner), state.hash_one(a.as_str()), "hash of {a:?}");
        for b in &all {
            let vb = Value::str(b);
            assert_eq!(va == vb, a == b, "{a:?} == {b:?}");
            assert_eq!(va.cmp(&vb), a.cmp(b), "{a:?} vs {b:?}");
        }
    }
}

/// A pool of values around the bound: 21, 22 and 23 bytes, strings that
/// differ only past byte 22 or are prefixes of each other, longer ones,
/// a straddling multi-byte one and an integer.
fn value_pool() -> Vec<Value> {
    let x22 = "x".repeat(22);
    vec![
        Value::str(&"x".repeat(21)),
        Value::str(&x22),
        Value::str(&format!("{x22}a")),
        Value::str(&format!("{x22}b")),
        Value::str(&format!("{x22}{x22}")),
        Value::str(&format!("{}é", "x".repeat(21))),
        Value::str(&"y".repeat(40)),
        Value::str("short"),
        Value::int(22),
    ]
}

/// Root `C0(K, A)` and `C1 isa C0 (X)`.
fn schema() -> (Schema, ClassId, ClassId) {
    let mut b = SchemaBuilder::new();
    let root = b.class("C0", &["K", "A"]).unwrap();
    let sub = b.subclass("C1", &[root], &["X"]).unwrap();
    (b.build().unwrap(), root, sub)
}

/// `sat`, `sat_exists` and the selectivity count agree with the scan
/// oracle for every pool value on every attribute, and for each live
/// key, on both classes.
fn assert_agrees(db: &Instance, schema: &Schema, classes: [ClassId; 2], pool: &[Value]) {
    let attrs: Vec<AttrId> = schema.all_attrs().collect();
    let keys: Vec<Value> =
        db.objects().filter_map(|o| db.value(o, schema.attr_id("K").unwrap()).cloned()).collect();
    for &a in &attrs {
        for v in pool.iter().chain(&keys) {
            for gamma in [
                Condition::from_atoms([Atom::eq_const(a, v.clone())]),
                Condition::from_atoms([Atom::ne_const(a, v.clone())]),
            ] {
                for p in classes {
                    let scanned = db.sat_scan(p, &gamma);
                    assert_eq!(db.sat(p, &gamma), scanned, "sat({p}, {gamma:?})");
                    assert_eq!(db.sat_exists(p, &gamma), !scanned.is_empty());
                }
            }
            let holding = db.objects().filter(|&o| db.value(o, a) == Some(v)).count();
            assert_eq!(db.num_objects_with(a, v), holding, "holders of ({a}, {v:?})");
        }
    }
}

#[test]
fn sat_agrees_with_scan_across_the_bound_and_as_shared_values_drain() {
    let (schema, root, sub) = schema();
    let [k, a, x] = ["K", "A", "X"].map(|n| schema.attr_id(n).unwrap());
    let pool = value_pool();
    let pick = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
    let mut rng = StdRng::seed_from_u64(0x5ba1_1575);
    for case in 0..30 {
        let mut db = Instance::empty();
        let check = |db: &Instance, what: &str| {
            db.check_invariants(&schema).unwrap_or_else(|e| panic!("case {case} {what}: {e:?}"));
            assert_agrees(db, &schema, [root, sub], &pool);
        };
        // Groups of 2–3 objects share a value of A; keys are unique and
        // fall on both sides of the bound.
        let mut groups: Vec<Vec<Oid>> = Vec::new();
        for g in 0..rng.random_range(2usize..5) {
            let shared = pick(&mut rng);
            let mut members = Vec::new();
            for m in 0..rng.random_range(2usize..4) {
                let key = format!("{}-{g}-{m}", "k".repeat(rng.random_range(0usize..40)));
                let specialize = rng.random_bool();
                let cs =
                    if specialize { schema.up_closure_of(sub) } else { ClassSet::singleton(root) };
                let mut values = BTreeMap::from([(k, Value::str(&key)), (a, shared.clone())]);
                if specialize {
                    values.insert(x, pick(&mut rng));
                }
                members.push(db.create(cs, values));
                check(&db, "create");
            }
            groups.push(members);
        }
        // Some churn: rewrite, generalize and specialize random objects.
        for _ in 0..rng.random_range(0usize..6) {
            let live: Vec<Oid> = db.objects().collect();
            let o = live[rng.random_range(0..live.len())];
            match rng.random_range(0u32..3) {
                0 => db.set_values(o, [(a, pick(&mut rng))]),
                1 => db.remove_classes(o, ClassSet::singleton(sub), [x]),
                _ if !db.role_set(o).contains(sub) => {
                    db.add_classes(o, ClassSet::singleton(sub), [(x, pick(&mut rng))]);
                }
                _ => db.set_values(o, [(x, pick(&mut rng))]),
            }
            check(&db, "churn");
        }
        // Delete each group down to one member, in random order.
        for members in &mut groups {
            while members.len() > 1 {
                let o = members.swap_remove(rng.random_range(0..members.len()));
                db.delete_object(o);
                check(&db, "delete");
            }
        }
        // The survivors round-trip through a snapshot unchanged.
        let mut bytes = Vec::new();
        db.encode_snapshot(&mut bytes);
        let loaded = Instance::decode_snapshot(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(loaded, db, "case {case}: snapshot round trip");
        check(&loaded, "reload");
    }
}
