//! Edge-of-envelope tests for the data-model substrate: capacity limits,
//! deep and wide hierarchies, and every Definition 2.1/2.2 invariant
//! rejection path.

use migratory::core::RoleAlphabet;
use migratory::model::{
    schema::university_schema, ClassSet, Instance, ModelError, Oid, RoleSet, SchemaBuilder, Tuple,
    Value,
};

#[test]
fn class_capacity_is_exactly_128() {
    let mut b = SchemaBuilder::new();
    for i in 0..128 {
        b.class(&format!("C{i}"), &[]).unwrap();
    }
    assert!(b.build().is_ok(), "128 isolated classes fit the ClassSet bitmask");

    let mut b = SchemaBuilder::new();
    for i in 0..128 {
        b.class(&format!("C{i}"), &[]).unwrap();
    }
    assert!(
        matches!(b.class("C128", &[]), Err(ModelError::TooManyClasses(_))),
        "the 129th class must be rejected, not wrapped"
    );
}

#[test]
fn deep_chain_round_trips_through_the_alphabet() {
    // A 100-deep isa chain: role sets are the 100 closures plus ∅.
    let mut b = SchemaBuilder::new();
    let mut prev = b.class("C0", &["A"]).unwrap();
    for i in 1..100 {
        prev = b.subclass(&format!("C{i}"), &[prev], &[]).unwrap();
    }
    let schema = b.build().unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    assert_eq!(alphabet.num_symbols(), 101);
    // The deepest closure contains the whole chain.
    let deep = RoleSet::closure_of_named(&schema, &["C99"]).unwrap();
    assert_eq!(deep.len(), 100);
    // symbol_of ∘ role_set = id across the whole alphabet.
    for sym in 0..alphabet.num_symbols() {
        assert_eq!(alphabet.symbol_of(alphabet.role_set(sym)), Some(sym));
    }
}

#[test]
fn wide_fanout_role_sets_explode_combinatorially() {
    // One root, 10 direct subclasses: *any* set of siblings together with
    // the root is up-closed (an object can be specialized into several
    // siblings), so the alphabet has ∅ plus 2¹⁰ root-containing role
    // sets. This exponential growth is exactly why the analyzer only
    // materializes *reachable* separator vertices.
    let mut b = SchemaBuilder::new();
    let root = b.class("R", &["A"]).unwrap();
    for i in 0..10 {
        b.subclass(&format!("K{i}"), &[root], &[]).unwrap();
    }
    let schema = b.build().unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    assert_eq!(alphabet.num_symbols(), 1 + (1 << 10));
}

#[test]
fn diamond_role_set_requires_all_ancestors() {
    let schema = university_schema();
    let g = schema.class_id("GRAD_ASSIST").unwrap();
    let p = schema.class_id("PERSON").unwrap();
    // {GRAD_ASSIST, PERSON} is missing STUDENT and EMPLOYEE.
    let mut cs = ClassSet::empty();
    cs.insert(g);
    cs.insert(p);
    assert!(matches!(RoleSet::new(&schema, cs), Err(ModelError::NotUpClosed { .. })));
}

#[test]
fn attribute_names_are_globally_unique() {
    let mut b = SchemaBuilder::new();
    b.class("A", &["X"]).unwrap();
    assert!(
        matches!(b.class("B", &["X"]), Err(ModelError::DuplicateAttr(_))),
        "Definition 2.1: attribute sets of distinct classes are disjoint"
    );
}

#[test]
fn duplicate_class_names_rejected() {
    let mut b = SchemaBuilder::new();
    b.class("A", &[]).unwrap();
    assert!(matches!(b.class("A", &[]), Err(ModelError::DuplicateClass(_))));
}

#[test]
fn multi_rooted_components_rejected() {
    // A and B are both isa-roots; C isa A, C isa B weakly connects them —
    // Definition 2.1 requires a rooted DAG per component.
    let mut b = SchemaBuilder::new();
    let a = b.class("A", &["X"]).unwrap();
    let c = b.class("B", &["Y"]).unwrap();
    b.subclass("C", &[a, c], &[]).unwrap();
    assert!(matches!(b.build(), Err(ModelError::MultipleRoots { .. })));
}

fn university_oid(classes: &[&str], pairs: &[(&str, Value)]) -> Instance {
    let schema = university_schema();
    let cs = RoleSet::closure_of_named(&schema, classes).unwrap().classes();
    let t = Tuple::from_pairs(pairs.iter().map(|(a, v)| (schema.attr_id(a).unwrap(), v.clone())));
    Instance::from_objects([(Oid(1), cs, t)])
}

#[test]
fn invariants_missing_attribute_value() {
    let schema = university_schema();
    // A PERSON without a Name.
    let db = university_oid(&["PERSON"], &[("SSN", Value::str("1"))]);
    assert!(matches!(db.check_invariants(&schema), Err(ModelError::MissingValue { .. })));
}

#[test]
fn invariants_extraneous_attribute_value() {
    let schema = university_schema();
    // A plain PERSON storing a STUDENT attribute.
    let db = university_oid(
        &["PERSON"],
        &[("SSN", Value::str("1")), ("Name", Value::str("n")), ("Major", Value::str("CS"))],
    );
    assert!(db.check_invariants(&schema).is_err());
}

#[test]
fn invariants_membership_not_closed() {
    let schema = university_schema();
    let s = schema.class_id("STUDENT").unwrap();
    let mut cs = ClassSet::empty();
    cs.insert(s); // STUDENT without PERSON
    let t = Tuple::from_pairs([
        (schema.attr_id("SSN").unwrap(), Value::str("1")),
        (schema.attr_id("Name").unwrap(), Value::str("n")),
        (schema.attr_id("Major").unwrap(), Value::str("CS")),
        (schema.attr_id("FirstEnroll").unwrap(), Value::int(1)),
    ]);
    let db = Instance::from_objects([(Oid(1), cs, t)]);
    assert!(db.check_invariants(&schema).is_err());
}

#[test]
fn invariants_oid_counter_monotone() {
    // Definition 2.2(3): every occurring object precedes the next-object
    // marker, and creation consumes it in <ₒ order.
    let schema = university_schema();
    let mut db =
        university_oid(&["PERSON"], &[("SSN", Value::str("1")), ("Name", Value::str("n"))]);
    assert!(db.check_invariants(&schema).is_ok());
    assert_eq!(db.next_oid(), Oid(2));
    // Skipping the counter forward is always safe…
    db.set_next(100);
    assert!(db.check_invariants(&schema).is_ok());
    let cs = RoleSet::closure_of_named(&schema, &["PERSON"]).unwrap().classes();
    let o = db.create(
        cs,
        Tuple::from_pairs([
            (schema.attr_id("SSN").unwrap(), Value::str("2")),
            (schema.attr_id("Name").unwrap(), Value::str("m")),
        ]),
    );
    assert_eq!(o, Oid(100), "creation uses the forced counter");
    assert!(db.check_invariants(&schema).is_ok());
}

#[test]
fn empty_instance_is_well_formed_everywhere() {
    let schema = university_schema();
    let db = Instance::empty();
    assert!(db.check_invariants(&schema).is_ok());
    assert_eq!(db.num_objects(), 0);
    assert_eq!(db.role_set(Oid(7)), ClassSet::empty());
    assert!(db.active_domain().is_empty());
}
