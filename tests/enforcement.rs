//! Oracle tests for the runtime inventory monitor (`core::enforce`).
//!
//! The monitor must commit *exactly* the longest prefix of a script whose
//! unmonitored run keeps every object's pattern of the enforced kind
//! inside the inventory at every step — no over-enforcement (rejecting a
//! run the constraint allows) and no under-enforcement (admitting a run
//! that produces a forbidden pattern). The oracle recomputes the
//! constraint from scratch with `core::pattern::observe`/`is_kind` over
//! the raw interpreter trace.

use migratory::core::enforce::ShardedMonitor;
use migratory::core::pattern::{is_kind, observe, pattern_of};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, run, Assignment, Transaction, TransactionSchema};
use migratory::model::{schema::university_schema, Instance, Oid, Schema, Value};
use proptest::prelude::*;

fn uni_ts(s: &Schema) -> TransactionSchema {
    parse_transactions(
        s,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction Nm(x, n) { modify(PERSON, { SSN = x }, { Name = n }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction Ga(x) {
          specialize(STUDENT, GRAD_ASSIST, { SSN = x },
                     { PcAppoint = 50, Salary = 1, WorksIn = "D" });
        }
        transaction Emp(x) {
          specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
        transaction UnEmp(x) { generalize(EMPLOYEE, { SSN = x }); }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap()
}

/// One scripted step: a transaction name and its arguments.
#[derive(Clone, Debug)]
struct Step(&'static str, Vec<Value>);

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = prop_oneof![Just("k1"), Just("k2"), Just("k3")];
    let name = prop_oneof![
        Just("Mk"),
        Just("St"),
        Just("Ga"),
        Just("Emp"),
        Just("UnSt"),
        Just("UnEmp"),
        Just("Rm"),
        Just("Nm"),
    ];
    (name, key, prop_oneof![Just("n"), Just("m")]).prop_map(|(t, k, n)| {
        if t == "Nm" {
            Step(t, vec![Value::str(k), Value::str(n)])
        } else {
            Step(t, vec![Value::str(k)])
        }
    })
}

const INVENTORIES: [&str; 6] = [
    "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
    "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*",
    "∅* ([PERSON] ∪ [STUDENT])* ∅*",
    "∅* [PERSON]+ ∅",
    "∅ [PERSON]* [EMPLOYEE]* ∅*",
    "∅* [STUDENT]* [SE]* [EMPLOYEE]* ∅*",
];

/// Resolve the `[SE]` shorthand used above: role sets are written with
/// their minimal member classes, comma-separated.
fn parse_inventory(s: &Schema, a: &RoleAlphabet, src: &str) -> Inventory {
    let src = src.replace("[SE]", "[STUDENT, EMPLOYEE]");
    Inventory::parse_init(s, a, &src).unwrap()
}

/// Longest prefix of `script` whose raw run keeps all `kind` patterns in
/// the inventory at every step — the ground truth the monitor must match.
fn oracle_valid_prefix(
    s: &Schema,
    a: &RoleAlphabet,
    ts: &TransactionSchema,
    inv: &Inventory,
    kind: PatternKind,
    script: &[Step],
) -> usize {
    let empty = a.empty_symbol();
    let mut trace = vec![Instance::empty()];
    let steps: Vec<(&Transaction, Assignment)> = script
        .iter()
        .map(|Step(n, args)| (ts.get(n).unwrap(), Assignment::new(args.clone())))
        .collect();
    for (i, (t, args)) in steps.iter().enumerate() {
        let next = run(s, trace.last().unwrap(), t, args).unwrap();
        trace.push(next);
        // Objects 1..=script.len() cover every possible creation; a far
        // OID witnesses the never-created pattern ∅ⁱ.
        let mut oids: Vec<Oid> = (1..=script.len() as u64).map(Oid).collect();
        oids.push(Oid(1 << 40));
        for o in oids {
            let obs = observe(s, a, &trace, o);
            if is_kind(&obs, empty, kind) && !inv.contains(&pattern_of(&obs)) {
                return i;
            }
        }
    }
    script.len()
}

fn check_script(script: &[Step], inv_src: &str, kind: PatternKind) {
    let s = university_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let ts = uni_ts(&s);
    let inv = parse_inventory(&s, &a, inv_src);

    let expected = oracle_valid_prefix(&s, &a, &ts, &inv, kind, script);

    let mut m = ShardedMonitor::new(&s, &a, &inv, kind, 1);
    let pairs: Vec<(&Transaction, Assignment)> = script
        .iter()
        .map(|Step(n, args)| (ts.get(n).unwrap(), Assignment::new(args.clone())))
        .collect();
    let mut committed = 0;
    for (t, args) in &pairs {
        if m.try_apply(t, args).is_err() {
            break;
        }
        committed += 1;
    }
    assert_eq!(
        committed, expected,
        "monitor committed {committed} steps, oracle allows {expected} \
         (kind {kind}, inventory {inv_src}, script {script:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn monitor_commits_exactly_the_oracle_prefix(
        script in prop::collection::vec(step_strategy(), 0..9),
        inv_idx in 0usize..INVENTORIES.len(),
        kind_idx in 0usize..4,
    ) {
        check_script(&script, INVENTORIES[inv_idx], PatternKind::ALL[kind_idx]);
    }
}

#[test]
fn monitor_oracle_deterministic_cases() {
    let mk = |k: &str| Step("Mk", vec![Value::str(k)]);
    let st = |k: &str| Step("St", vec![Value::str(k)]);
    let ga = |k: &str| Step("Ga", vec![Value::str(k)]);
    let emp = |k: &str| Step("Emp", vec![Value::str(k)]);
    let rm = |k: &str| Step("Rm", vec![Value::str(k)]);
    let noop_rename = |k: &str| Step("Nm", vec![Value::str(k), Value::str("n")]);

    // The full lifecycle conforms to the Example 3.2 inventory.
    let life = [mk("k1"), st("k1"), ga("k1"), emp("k1"), rm("k1")];
    for kind in PatternKind::ALL {
        check_script(&life, INVENTORIES[0], kind);
    }

    // Jumping straight to employment breaks the study-first inventory.
    check_script(&[mk("k1"), emp("k1")], INVENTORIES[1], PatternKind::All);

    // A no-op step exempts under Proper but not under All.
    let noop = [mk("k1"), noop_rename("k1"), emp("k1")];
    check_script(&noop, INVENTORIES[1], PatternKind::All);
    check_script(&noop, INVENTORIES[1], PatternKind::Proper);

    // Trailing-∅ budget of Init(∅*[PERSON]+∅).
    let tail = [mk("k1"), rm("k1"), mk("k2"), mk("k3")];
    check_script(&tail, INVENTORIES[3], PatternKind::All);
    check_script(&tail, INVENTORIES[3], PatternKind::Lazy);
}
