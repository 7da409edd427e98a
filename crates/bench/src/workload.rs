//! Shared workload builders for the experiments binary and the examples.

use migratory_core::RoleAlphabet;
use migratory_lang::{parse_transactions, Assignment, Transaction, TransactionSchema};
use migratory_model::{Instance, Schema, SchemaBuilder, Value};

/// The Fig. 1 university schema with Example 3.4's transactions.
#[must_use]
pub fn university() -> (Schema, RoleAlphabet, TransactionSchema) {
    let schema = migratory_model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0 exists");
    let ts = parse_transactions(
        &schema,
        r"
        transaction T1(n, s, t, m) {
          create(PERSON, { SSN = s, Name = n });
          specialize(PERSON, STUDENT, { SSN = s }, { Major = m, FirstEnroll = t });
        }
        transaction T2(s, p, x, d) {
          specialize(STUDENT, GRAD_ASSIST, { SSN = s },
                     { PcAppoint = p, Salary = x, WorksIn = d });
        }
        transaction T3(s) { generalize(EMPLOYEE, { SSN = s }); }
        transaction T4(s) { delete(PERSON, { SSN = s }); }
    ",
    )
    .expect("Example 3.4 validates");
    (schema, alphabet, ts)
}

/// A database with `n` enrolled students (for interpreter scaling).
#[must_use]
pub fn populated_university(n: usize) -> (Schema, TransactionSchema, Instance) {
    let (schema, _, ts) = university();
    let enroll = ts.get("T1").expect("T1 exists");
    let mut db = Instance::empty();
    for i in 0..n {
        let args = Assignment::new(vec![
            Value::str(&format!("name{i}")),
            Value::str(&format!("ssn{i}")),
            Value::int(1980 + (i % 40) as i64),
            Value::str(if i % 2 == 0 { "CS" } else { "EE" }),
        ]);
        migratory_lang::apply_transaction(&schema, &mut db, enroll, &args).expect("arity");
    }
    (schema, ts, db)
}

/// One Example 3.4-style application on a populated database.
pub fn apply_round(schema: &Schema, ts: &TransactionSchema, db: &mut Instance, i: usize) {
    let t: &Transaction = match i % 3 {
        0 => ts.get("T2").expect("T2"),
        1 => ts.get("T3").expect("T3"),
        _ => ts.get("T2").expect("T2"),
    };
    let ssn = Value::str(&format!("ssn{}", i % db.num_objects().max(1)));
    let args = match t.params.len() {
        1 => Assignment::new(vec![ssn]),
        4 => Assignment::new(vec![ssn, Value::int(50), Value::int(1200), Value::str("lab")]),
        _ => Assignment::empty(),
    };
    migratory_lang::apply_transaction(schema, db, t, &args).expect("arity");
}

/// One SL transaction creating `n` persons — bulk-loads a large database
/// in a **single** monitor step, so enforcement benchmarks can measure
/// steady-state per-application cost on a big store without paying a
/// quadratic build-up.
#[must_use]
pub fn bulk_create(schema: &Schema, n: usize) -> Transaction {
    use migratory_lang::AtomicUpdate;
    use migratory_model::{Atom, Condition};
    let person = schema.class_id("PERSON").expect("university schema");
    let ssn = schema.attr_id("SSN").expect("university schema");
    let name = schema.attr_id("Name").expect("university schema");
    let updates = (0..n)
        .map(|i| AtomicUpdate::Create {
            class: person,
            gamma: Condition::from_atoms([
                Atom::eq_const(ssn, format!("s{i}")),
                Atom::eq_const(name, "n"),
            ]),
        })
        .collect();
    Transaction::sl("BulkLoad", &[], updates)
}

/// Point-touch transactions for the large-database enforcement workload:
/// toggle one keyed person between PERSON and STUDENT. Each application
/// touches exactly one object; everything else is untouched ballast.
#[must_use]
pub fn toggle_transactions(schema: &Schema) -> TransactionSchema {
    parse_transactions(
        schema,
        r#"
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
    "#,
    )
    .expect("validates against the university schema")
}

/// The `i`-th application of the toggle workload over `n` objects:
/// `(transaction name, argument)` — alternating St/UnSt over a rotating
/// key so each step changes one object's role set.
#[must_use]
pub fn toggle_step(i: usize, n: usize) -> (&'static str, Assignment) {
    let key = Assignment::new(vec![Value::str(&format!("s{}", (i / 2) % n.max(1)))]);
    (if i.is_multiple_of(2) { "St" } else { "UnSt" }, key)
}

/// Point conditions for the `sat_heavy` workload: `q` ground conditions
/// over an `n`-person store — mostly indexed key hits (`SSN = sᵢ`),
/// mixed with guaranteed misses and equality+inequality conjunctions, so
/// the planner exercises the value index, the miss fast path and the
/// residual-atom filter.
#[must_use]
pub fn point_conditions(
    schema: &Schema,
    n: usize,
    q: usize,
) -> Vec<(migratory_model::ClassId, migratory_model::Condition)> {
    use migratory_model::{Atom, Condition};
    let person = schema.class_id("PERSON").expect("university schema");
    let ssn = schema.attr_id("SSN").expect("university schema");
    let name = schema.attr_id("Name").expect("university schema");
    (0..q)
        .map(|i| {
            let c = match i % 8 {
                // A key that misses the whole store.
                3 => Condition::from_atoms([Atom::eq_const(ssn, format!("miss{i}"))]),
                // Key hit plus a residual inequality to verify.
                5 => Condition::from_atoms([
                    Atom::eq_const(ssn, format!("s{}", i % n.max(1))),
                    Atom::ne_const(name, "nobody"),
                ]),
                // Plain indexed key hit.
                _ => Condition::from_atoms([Atom::eq_const(ssn, format!("s{}", i % n.max(1)))]),
            };
            (person, c)
        })
        .collect()
}

/// Guarded point-rename transactions for the interpreter-level
/// `sat_heavy` workload: each application evaluates one positive guard
/// literal and one point select — both index lookups now, both formerly
/// O(|db|) scans.
#[must_use]
pub fn sat_heavy_transactions(schema: &Schema) -> TransactionSchema {
    parse_transactions(
        schema,
        r"
        transaction Ren(x, y) {
          when PERSON(SSN = x) -> modify(PERSON, { SSN = x }, { Name = y });
        }
    ",
    )
    .expect("validates against the university schema")
}

/// The `i`-th application of the guarded-rename workload over `n`
/// objects.
#[must_use]
pub fn sat_heavy_step(i: usize, n: usize) -> Assignment {
    Assignment::new(vec![Value::str(&format!("s{}", i % n.max(1))), Value::str(&format!("r{i}"))])
}

/// The deep "career ladder" inventory source: `∅* ([PERSON]+
/// [STUDENT]+)^pairs ∅*` written out textually. Its DFA has ~2·`pairs`
/// states; with objects staggered across the ladder the monitor's cohort
/// table holds up to ~2·`pairs` live cohorts, so the per-application
/// cohort sweep + re-key becomes the dominant admission cost — exactly
/// what batch admission amortizes to one sweep per block.
#[must_use]
pub fn ladder_inventory_src(pairs: usize) -> String {
    let mut s = String::from("∅* ");
    for _ in 0..pairs {
        s.push_str("[PERSON]+ [STUDENT]+ ");
    }
    s.push_str("∅*");
    s
}

/// A named script: `(transaction name, argument)` applications in order.
pub type Script = Vec<(&'static str, Assignment)>;

/// Toggle schedules for the `batch_admit` ladder workload: `spread`
/// climber objects (keys `s0..s(spread−1)`) are staggered across ladder
/// depths `0..max_depth` by the setup script, then the timed script
/// round-robins `steps` further toggles over them. Each toggle advances
/// its object one ladder segment, so callers must keep `max_depth +
/// ceil(steps/spread)` below the ladder's segment count (2·pairs − 1).
/// Untouched objects re-read their role, which self-loops inside a
/// `[…]+` segment — every application is admissible.
#[must_use]
pub fn ladder_scripts(spread: usize, max_depth: usize, steps: usize) -> (Script, Script) {
    let key = |i: usize| Assignment::new(vec![Value::str(&format!("s{i}"))]);
    let mut toggles = vec![0usize; spread];
    let op = |j: usize, toggles: &mut Vec<usize>| {
        let name = if toggles[j].is_multiple_of(2) { "St" } else { "UnSt" };
        toggles[j] += 1;
        (name, key(j))
    };
    let mut setup = Vec::new();
    for j in 0..spread {
        for _ in 0..(j * max_depth) / spread {
            let step = op(j, &mut toggles);
            setup.push(step);
        }
    }
    let timed = (0..steps).map(|i| op(i % spread, &mut toggles)).collect();
    (setup, timed)
}

/// A four-component "fleet" schema (trucks / drivers / routes / depots,
/// each root ⊲ one subclass) with create + toggle transactions per
/// component — the multi-component workload behind `experiments
/// tail-smoke` and `examples/fleet_migration`. The
/// inventory below constrains component 0; other components read ∅
/// under its alphabet.
#[must_use]
pub fn fleet() -> (Schema, RoleAlphabet, TransactionSchema) {
    let mut b = SchemaBuilder::new();
    for (root, sub, key) in [
        ("TRUCK", "IN_SERVICE", "Vin"),
        ("DRIVER", "ON_SHIFT", "Badge"),
        ("ROUTE", "ACTIVE", "RId"),
        ("DEPOT", "OPEN", "DId"),
    ] {
        let r = b.class(root, &[key]).expect("fresh root");
        b.subclass(sub, &[r], &[]).expect("fresh subclass");
    }
    let schema = b.build().expect("valid schema");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
    let ts = parse_transactions(
        &schema,
        r"
        transaction BuyTruck(x)    { create(TRUCK, { Vin = x }); }
        transaction Dispatch(x)    { specialize(TRUCK, IN_SERVICE, { Vin = x }, {}); }
        transaction Park(x)        { generalize(IN_SERVICE, { Vin = x }); }
        transaction HireDriver(x)  { create(DRIVER, { Badge = x }); }
        transaction StartShift(x)  { specialize(DRIVER, ON_SHIFT, { Badge = x }, {}); }
        transaction EndShift(x)    { generalize(ON_SHIFT, { Badge = x }); }
        transaction OpenRoute(x)   { create(ROUTE, { RId = x }); }
        transaction Activate(x)    { specialize(ROUTE, ACTIVE, { RId = x }, {}); }
        transaction BuildDepot(x)  { create(DEPOT, { DId = x }); }
        transaction OpenDepot(x)   { specialize(DEPOT, OPEN, { DId = x }, {}); }
    ",
    )
    .expect("fleet transactions validate");
    (schema, alphabet, ts)
}

/// The fleet inventory: trucks cycle between parked and in-service and
/// may leave the fleet; other components are unconstrained (they read ∅
/// under component 0's alphabet).
pub const FLEET_INVENTORY: &str = "∅* ([TRUCK] ∪ [IN_SERVICE])* ∅*";

/// A day of fleet operations: `n` single-object applications cycling
/// through the four components (dispatch/park, shifts, activations,
/// depot openings) over keys `t0…`, `d0…`, `r0…`, `p0…` modulo `per`.
#[must_use]
pub fn fleet_ops(n: usize, per: usize) -> Vec<(&'static str, Assignment)> {
    (0..n)
        .map(|i| {
            let k = i / 8;
            let (name, prefix) = match i % 8 {
                0 => ("Dispatch", "t"),
                1 => ("StartShift", "d"),
                2 => ("Activate", "r"),
                3 => ("OpenDepot", "p"),
                4 => ("Park", "t"),
                _ => ("EndShift", "d"),
            };
            (name, Assignment::new(vec![Value::str(&format!("{prefix}{}", k % per.max(1)))]))
        })
        .collect()
}

/// The pq synthesis host (Fig. 3 style: root R{A,B,C} with `k` leaf
/// classes).
#[must_use]
pub fn synthesis_host(k: usize) -> (Schema, RoleAlphabet) {
    let mut b = SchemaBuilder::new();
    let r = b.class("R", &["A", "B", "C"]).expect("fresh");
    for i in 0..k {
        b.subclass(&format!("c{i}"), &[r], &[]).expect("fresh");
    }
    let schema = b.build().expect("valid");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
    (schema, alphabet)
}

/// A chain regex `c0 c1 … c(k−1)` over the host's leaf role sets.
#[must_use]
pub fn chain_regex(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    k: usize,
) -> migratory_automata::Regex {
    let syms: Vec<u32> = (0..k)
        .map(|i| {
            let rs = migratory_model::RoleSet::closure_of_named(schema, &[&format!("c{i}")])
                .expect("leaf exists");
            alphabet.symbol_of(rs).expect("role set interned")
        })
        .collect();
    migratory_automata::Regex::concat(
        syms.into_iter()
            .map(|s| migratory_automata::Regex::plus(migratory_automata::Regex::Sym(s)))
            .collect::<Vec<_>>(),
    )
}

/// The slim single-attribute chain schema with four transactions, whose
/// separator space is tiny (used to compare brute-force exploration with
/// graph-based decision).
#[must_use]
pub fn slim_chain() -> (Schema, RoleAlphabet, TransactionSchema) {
    let mut b = SchemaBuilder::new();
    let p = b.class("P", &["Id"]).expect("fresh");
    let s = b.subclass("S", &[p], &[]).expect("fresh");
    b.subclass("G", &[s], &[]).expect("fresh");
    let schema = b.build().expect("valid");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
    let ts = parse_transactions(
        &schema,
        r"
        transaction Mk(x) { create(P, { Id = x }); }
        transaction Up(x) { specialize(P, S, { Id = x }, {}); }
        transaction Up2(x) { specialize(S, G, { Id = x }, {}); }
        transaction Dn(x) { generalize(S, { Id = x }); }
        transaction Rm(x) { delete(P, { Id = x }); }
    ",
    )
    .expect("validates");
    (schema, alphabet, ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let (schema, _, ts) = university();
        assert_eq!(ts.len(), 4);
        let (_, _, db) = populated_university(10);
        assert_eq!(db.num_objects(), 10);
        db.check_invariants(&schema).unwrap();
        let (schema2, alphabet2) = synthesis_host(3);
        let r = chain_regex(&schema2, &alphabet2, 3);
        assert!(r.max_symbol().is_some());
        let (_, _, slim_ts) = slim_chain();
        assert_eq!(slim_ts.len(), 5);
    }

    #[test]
    fn apply_round_mutates() {
        let (schema, ts, mut db) = populated_university(5);
        for i in 0..6 {
            apply_round(&schema, &ts, &mut db, i);
        }
        db.check_invariants(&schema).unwrap();
    }
}
