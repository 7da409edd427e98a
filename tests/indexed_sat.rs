//! Property tests for the indexed storage layer: the planned, index-backed
//! `Sat` evaluation must agree with the naive full-scan oracle
//! ([`Instance::sat_scan`]) on every database a random mutation history can
//! produce, and every mutation path must leave the class/value indexes
//! exactly consistent with the heap (verified by `check_invariants`, which
//! now audits the indexes). Randomness is a seeded [`StdRng`]
//! (deterministic, no external fuzzer), in the style of
//! `tests/delta_monitor.rs`.

use migratory::lang::{
    apply_transaction_delta, satisfies_literal, Assignment, AtomicUpdate, Literal, Transaction,
};
use migratory::model::codec::Reader;
use migratory::model::{
    Atom, AttrId, Bound, ClassId, Condition, Instance, Oid, Schema, SchemaBuilder, Term, Value,
    VarId,
};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher as _, RandomState};

/// A random single-component hierarchy: root `C0(K, A)` plus 1–4
/// subclasses, each hanging off a random earlier class and owning one
/// fresh attribute.
fn random_schema(rng: &mut StdRng) -> (Schema, Vec<ClassId>) {
    let mut b = SchemaBuilder::new();
    let root = b.class("C0", &["K", "A"]).expect("fresh root");
    let mut classes = vec![root];
    for i in 0..rng.random_range(1usize..5) {
        let parent = classes[rng.random_range(0..classes.len())];
        let attr = format!("X{i}");
        let c = b.subclass(&format!("C{}", i + 1), &[parent], &[&attr]).expect("fresh subclass");
        classes.push(c);
    }
    (b.build().expect("valid hierarchy"), classes)
}

/// The values a history draws from.
#[derive(Clone, Copy, Debug)]
enum Pool {
    /// Three ints and four strings, so that objects share values and
    /// holder sets form.
    Narrow,
    /// Three hundred ints and four hundred strings, so that value tables
    /// double several times and clusters form.
    Wide,
}

/// A random value from `pool` (collisions intended) plus a miss value
/// that is never stored.
fn random_value(rng: &mut StdRng, pool: Pool) -> Value {
    let (ints, strs) = match pool {
        Pool::Narrow => (3, 4),
        Pool::Wide => (300, 400),
    };
    match rng.random_range(0u32..6) {
        0 => Value::str("nope"),
        1 | 2 => Value::int(i64::from(rng.random_range(0u32..ints))),
        _ => Value::str(&format!("v{}", rng.random_range(0u32..strs))),
    }
}

/// A random ground condition of 0–3 atoms over the schema's attributes —
/// mixing indexed equalities, inequalities and guaranteed misses.
fn random_condition(rng: &mut StdRng, schema: &Schema, pool: Pool) -> Condition {
    let attrs: Vec<AttrId> = schema.all_attrs().collect();
    Condition::from_atoms((0..rng.random_range(0usize..4)).map(|_| {
        let a = attrs[rng.random_range(0..attrs.len())];
        if rng.random_range(0u32..3) == 0 {
            Atom::ne_const(a, random_value(rng, pool))
        } else {
            Atom::eq_const(a, random_value(rng, pool))
        }
    }))
}

/// Tuple values for exactly the attributes a class set requires.
fn values_for(
    rng: &mut StdRng,
    schema: &Schema,
    cs: migratory::model::ClassSet,
    already: &Instance,
    o: Option<Oid>,
    pool: Pool,
) -> BTreeMap<AttrId, Value> {
    let mut m = BTreeMap::new();
    for a in schema.attrs_of_class_set(cs).iter() {
        let missing = match o {
            Some(o) => already.value(o, a).is_none(),
            None => true,
        };
        if missing {
            m.insert(a, random_value(rng, pool));
        }
    }
    m
}

/// One random mutation through a randomly chosen `Instance` primitive,
/// keeping Definition 2.2 well-formedness.
fn random_mutation(
    rng: &mut StdRng,
    schema: &Schema,
    classes: &[ClassId],
    db: &mut Instance,
    pool: Pool,
) {
    let existing: Vec<Oid> = db.objects().collect();
    let pick = |rng: &mut StdRng, v: &[Oid]| v[rng.random_range(0..v.len())];
    match rng.random_range(0u32..6) {
        // create
        0 | 1 => {
            let c = classes[rng.random_range(0..classes.len())];
            let cs = schema.up_closure_of(c);
            let values = values_for(rng, schema, cs, db, None, pool);
            db.create(cs, values);
        }
        // delete
        2 if !existing.is_empty() => db.delete_object(pick(rng, &existing)),
        // specialize-style add_classes
        3 if !existing.is_empty() => {
            let o = pick(rng, &existing);
            let c = classes[rng.random_range(0..classes.len())];
            let add = schema.up_closure_of(c);
            let merged = db.role_set(o).union(add);
            let values = values_for(rng, schema, merged, db, Some(o), pool);
            db.add_classes(o, add, values);
        }
        // generalize-style remove_classes (non-root classes only, so the
        // object keeps its root)
        4 if !existing.is_empty() && classes.len() > 1 => {
            let o = pick(rng, &existing);
            let c = classes[1 + rng.random_range(0..classes.len() - 1)];
            let remove = schema.down_closure_of(c);
            let clear: Vec<AttrId> =
                remove.iter().flat_map(|rc| schema.attrs_of(rc).iter().copied()).collect();
            db.remove_classes(o, remove, clear);
        }
        // modify
        _ if !existing.is_empty() => {
            let o = pick(rng, &existing);
            let defined: Vec<AttrId> = db.tuple_of(o).iter().map(|(a, _)| a).collect();
            if !defined.is_empty() {
                let a = defined[rng.random_range(0..defined.len())];
                db.set_values(o, [(a, random_value(rng, pool))]);
            }
        }
        _ => {}
    }
}

/// The naive literal oracle: a full scan over the heap.
fn literal_oracle(db: &Instance, l: &Literal) -> bool {
    let witness = db.objects().any(|o| {
        db.role_set(o).contains(l.class) && Bound::from(&l.gamma).satisfied_by(&db.tuple_of(o))
    });
    witness == l.positive
}

/// Compare every query path against the scan oracle on the current
/// database.
fn assert_sat_agrees(
    rng: &mut StdRng,
    schema: &Schema,
    classes: &[ClassId],
    db: &Instance,
    pool: Pool,
) {
    for _ in 0..4 {
        let p = classes[rng.random_range(0..classes.len())];
        let gamma = random_condition(rng, schema, pool);
        let planned = db.sat(p, &gamma);
        let scanned = db.sat_scan(p, &gamma);
        assert_eq!(*planned, scanned, "sat({p}, {gamma:?}) diverged from the scan oracle");
        assert_eq!(db.sat_exists(p, &gamma), !scanned.is_empty(), "sat_exists({p}, {gamma:?})");
        // The same condition with every constant lifted to a variable,
        // read under the assignment that binds it back: `Γ[α]` is
        // planned and verified in place, never built.
        let args: Vec<Value> =
            gamma.atoms().map(|at| at.term.as_const().unwrap().clone()).collect();
        let lifted = Condition::from_atoms(
            gamma
                .atoms()
                .enumerate()
                .map(|(i, at)| Atom { term: Term::Var(VarId(i as u32)), ..at.clone() }),
        );
        assert_eq!(*db.sat(p, lifted.bind(&args)), scanned, "sat({p}, {lifted:?}[{args:?}])");
        assert_eq!(db.sat_exists(p, lifted.bind(&args)), !scanned.is_empty());
        for positive in [true, false] {
            let l = if positive {
                Literal::pos(p, gamma.clone())
            } else {
                Literal::neg(p, gamma.clone())
            };
            assert_eq!(
                satisfies_literal(db, &l, &Assignment::empty()),
                literal_oracle(db, &l),
                "literal {positive} {p} {gamma:?}"
            );
        }
        // objects_in is the class index; the scan with ∅ condition is its
        // oracle.
        assert_eq!(
            db.objects_in(p).collect::<Vec<_>>(),
            db.sat_scan(p, &Condition::empty()),
            "objects_in({p})"
        );
    }
}

/// An instance compares by its live objects and counter alone: the
/// snapshot round trip, and a rebuild from the live objects with the
/// counter forced back, are `==`, hash the same, order `Equal` and encode
/// to the same bytes — so deleted objects, trailing or not, leave no
/// trace. `objects()` ascends strictly.
fn assert_live_objects_decide(db: &Instance, ctx: &str) {
    let state = RandomState::new();
    let mut bytes = Vec::new();
    db.encode_snapshot(&mut bytes);
    let decoded = Instance::decode_snapshot(&mut Reader::new(&bytes))
        .unwrap_or_else(|e| panic!("{ctx}: snapshot decode: {e:?}"));
    assert_eq!(&decoded, db, "{ctx}: snapshot round trip");
    assert_eq!(state.hash_one(&decoded), state.hash_one(db), "{ctx}: decoded hash");
    let objects: Vec<Oid> = db.objects().collect();
    assert!(objects.windows(2).all(|w| w[0] < w[1]), "{ctx}: objects() not ascending");
    let mut rebuilt =
        Instance::from_objects(objects.iter().map(|&o| (o, db.role_set(o), db.tuple_of(o))));
    rebuilt.set_next(db.next_oid().0);
    assert_eq!(&rebuilt, db, "{ctx}: rebuilt from live objects");
    assert_eq!(state.hash_one(&rebuilt), state.hash_one(db), "{ctx}: rebuilt hash");
    assert_eq!(rebuilt.cmp(db), std::cmp::Ordering::Equal, "{ctx}: rebuilt order");
    let mut again = Vec::new();
    rebuilt.encode_snapshot(&mut again);
    assert_eq!(again, bytes, "{ctx}: rebuilt bytes");
}

/// Apply a one-update transaction through the interpreter, check the
/// result, undo it (`Delta::undo`, which ends in `set_next`) and check
/// that the instance is back where it started.
fn apply_and_undo(schema: &Schema, db: &mut Instance, update: AtomicUpdate, ctx: &str) {
    let before = db.clone();
    let t = Transaction::sl("probe", &[], vec![update]);
    let delta = apply_transaction_delta(schema, db, &t, &Assignment::empty())
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    db.check_invariants(schema).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
    assert_live_objects_decide(db, ctx);
    delta.undo(db);
    assert_eq!(*db, before, "{ctx}: undo");
    db.check_invariants(schema).unwrap_or_else(|e| panic!("{ctx} undone: {e:?}"));
    assert_live_objects_decide(db, &format!("{ctx} undone"));
}

/// Random mutation histories through the raw `Instance` primitives:
/// after every mutation the indexes must pass `check_invariants`, all
/// planned queries must agree with the full-scan oracle, and the live
/// objects alone must decide equality, hashing, order and bytes;
/// `restrict` and `from_objects` must rebuild consistent indexes for
/// random subsets. Each history ends by deleting its highest oid and
/// undoing that, then creating an object and undoing that, which winds
/// the counter back over the freed oid. Sixty short histories draw from
/// the narrow pool; three long ones from the wide pool, so that an
/// attribute's value table holds over 64 values (at least 256 slots).
#[test]
fn indexed_sat_agrees_with_scan_oracle_under_random_mutations() {
    for (seed, pool, cases, steps) in
        [(0x1d3_0001, Pool::Narrow, 60, 8..30), (0x1d3_0003, Pool::Wide, 3, 1000..1200)]
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut top_deletes_undone = 0;
        let mut most_keys = 0;
        for case in 0..cases {
            let (schema, classes) = random_schema(&mut rng);
            let mut db = Instance::empty();
            for step in 0..rng.random_range(steps.clone()) {
                random_mutation(&mut rng, &schema, &classes, &mut db, pool);
                db.check_invariants(&schema)
                    .unwrap_or_else(|e| panic!("{pool:?} case {case} step {step}: {e:?}"));
                assert_sat_agrees(&mut rng, &schema, &classes, &db, pool);
                assert_live_objects_decide(&db, &format!("{pool:?} case {case} step {step}"));
            }
            let k = schema.attr_id("K").expect("root key");
            let keys: BTreeSet<&Value> = db.objects().filter_map(|o| db.value(o, k)).collect();
            most_keys = most_keys.max(keys.len());
            if let Some(top) = db.objects().last() {
                let key = db.value(top, k).expect("every object has K").clone();
                let gamma = Condition::from_atoms([Atom::eq_const(k, key)]);
                let ctx = format!("{pool:?} case {case}: delete top {top}");
                apply_and_undo(
                    &schema,
                    &mut db,
                    AtomicUpdate::Delete { class: classes[0], gamma },
                    &ctx,
                );
                top_deletes_undone += 1;
            }
            let a = schema.attr_id("A").expect("root attr");
            let gamma = Condition::from_atoms([Atom::eq_const(k, "fresh"), Atom::eq_const(a, "v")]);
            let ctx = format!("{pool:?} case {case}: create");
            let create = AtomicUpdate::Create { class: classes[0], gamma };
            apply_and_undo(&schema, &mut db, create, &ctx);
            // Restriction onto a random subset rebuilds the indexes.
            let keep: Vec<Oid> = db.objects().filter(|_| rng.random_range(0u32..2) == 0).collect();
            let restricted = db.restrict(&keep);
            restricted.check_invariants(&schema).expect("restricted indexes consistent");
            assert_eq!(restricted.num_objects(), keep.len());
            assert_sat_agrees(&mut rng, &schema, &classes, &restricted, pool);
            // Rebuilding from raw objects yields index-consistent storage too.
            let rebuilt = Instance::from_objects(
                db.objects().map(|o| (o, db.role_set(o), db.tuple_of(o))).collect::<Vec<_>>(),
            );
            rebuilt.check_invariants(&schema).expect("from_objects indexes consistent");
            assert_sat_agrees(&mut rng, &schema, &classes, &rebuilt, pool);
        }
        assert!(top_deletes_undone > 0, "no {pool:?} history deleted and restored its highest oid");
        if matches!(pool, Pool::Wide) {
            assert!(most_keys > 64, "the widest {pool:?} history held {most_keys} keys");
        }
    }
}

/// The interpreter's mutation paths (including the delta recorder's
/// `put_object`-based undo) must maintain the indexes too: apply random
/// transactions, undo half of them, and keep checking invariants and the
/// scan oracle.
#[test]
fn interpreter_and_undo_keep_indexes_consistent() {
    let mut rng = StdRng::seed_from_u64(0x1d3_0002);
    for case in 0..40 {
        let (schema, classes) = random_schema(&mut rng);
        let root = classes[0];
        let k = schema.attr_id("K").unwrap();
        let a = schema.attr_id("A").unwrap();
        let mut db = Instance::empty();
        let no_args = Assignment::empty();
        for step in 0..rng.random_range(6usize..20) {
            let key = format!("k{}", rng.random_range(0u32..4));
            let update = match rng.random_range(0u32..4) {
                0 => AtomicUpdate::Create {
                    class: root,
                    gamma: Condition::from_atoms([Atom::eq_const(k, key), Atom::eq_const(a, "v")]),
                },
                1 => AtomicUpdate::Delete {
                    class: root,
                    gamma: Condition::from_atoms([Atom::eq_const(k, key)]),
                },
                2 => AtomicUpdate::Modify {
                    class: root,
                    select: Condition::from_atoms([Atom::eq_const(k, key)]),
                    set: Condition::from_atoms([Atom::eq_const(
                        a,
                        random_value(&mut rng, Pool::Narrow),
                    )]),
                },
                _ => {
                    let c = classes[rng.random_range(0..classes.len())];
                    let own: Vec<AttrId> = schema
                        .up_closure_of(c)
                        .iter()
                        .flat_map(|cc| schema.attrs_of(cc).iter().copied())
                        .filter(|&attr| attr != k && attr != a)
                        .collect();
                    AtomicUpdate::Specialize {
                        from: root,
                        to: c,
                        select: Condition::from_atoms([Atom::eq_const(k, key)]),
                        set: Condition::from_atoms(
                            own.into_iter().map(|attr| Atom::eq_const(attr, "w")),
                        ),
                    }
                }
            };
            let t = Transaction::sl("step", &[], vec![update]);
            let before = db.clone();
            let delta = apply_transaction_delta(&schema, &mut db, &t, &no_args)
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            db.check_invariants(&schema)
                .unwrap_or_else(|e| panic!("case {case} step {step} post-apply: {e:?}"));
            assert_sat_agrees(&mut rng, &schema, &classes, &db, Pool::Narrow);
            if rng.random_range(0u32..2) == 0 {
                delta.undo(&mut db);
                assert_eq!(db, before, "case {case} step {step}: undo mismatch");
                db.check_invariants(&schema)
                    .unwrap_or_else(|e| panic!("case {case} step {step} post-undo: {e:?}"));
                assert_sat_agrees(&mut rng, &schema, &classes, &db, Pool::Narrow);
            }
        }
    }
}
