//! Runtime enforcement of a migration inventory — the paper's motivating
//! application of dynamic constraints, turned into an online admission
//! controller.
//!
//! A hospital staff database tracks persons who may become nurses or
//! physicians and may retire. The inventory (a dynamic integrity
//! constraint, Definition 3.3) says: every staff member starts as a plain
//! PERSON, may hold exactly one continuous clinical role, and once
//! retired never practises again. A one-shard [`ShardedMonitor`] — the
//! paper's single monitor — guards the live database:
//! conforming updates commit, violating ones are rejected with the
//! offending object's pattern.
//!
//! The second half shows the paper's punchline for SL (Corollary 3.3):
//! a schema whose transactions *provably* satisfy the inventory is
//! certified once, statically, after which the monitor skips every
//! runtime check.
//!
//! Run with `cargo run --example enforcement`.

use migratory::core::enforce::{EnforceError, ShardedMonitor};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment};
use migratory::model::text::parse_schema;
use migratory::model::Value;

fn main() {
    let schema = parse_schema(
        r"
        schema Hospital {
          class PERSON { Id, Name }
          class NURSE isa PERSON { Ward }
          class PHYSICIAN isa PERSON { Specialty }
          class RETIRED isa PERSON { Since }
        }",
    )
    .unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();

    // One continuous clinical role, then (optionally) retirement, then
    // departure. Init(·) closes the language under prefixes.
    let inventory = Inventory::parse_init(
        &schema,
        &alphabet,
        "∅* [PERSON]* ([NURSE]* ∪ [PHYSICIAN]*) [RETIRED]* ∅*",
    )
    .unwrap();

    let ts = parse_transactions(
        &schema,
        r#"
        transaction Hire(id, n) { create(PERSON, { Id = id, Name = n }); }
        transaction ToNurse(id, w) {
          specialize(PERSON, NURSE, { Id = id }, { Ward = w });
        }
        transaction ToPhysician(id, s) {
          specialize(PERSON, PHYSICIAN, { Id = id }, { Specialty = s });
        }
        transaction StepDown(id) {
          generalize(NURSE, { Id = id });
          generalize(PHYSICIAN, { Id = id });
        }
        transaction Retire(id, y) {
          generalize(NURSE, { Id = id });
          generalize(PHYSICIAN, { Id = id });
          specialize(PERSON, RETIRED, { Id = id }, { Since = y });
        }
        transaction Leave(id) { delete(PERSON, { Id = id }); }
    "#,
    )
    .unwrap();

    println!("== Online enforcement (kind = all patterns) ==\n");
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inventory, PatternKind::All, 1);

    let one = |v: &str| Assignment::new(vec![Value::str(v)]);
    let two = |v: &str, w: &str| Assignment::new(vec![Value::str(v), Value::str(w)]);

    let script: Vec<(&str, Assignment)> = vec![
        ("Hire", two("7", "Ada")),
        ("ToNurse", two("7", "ICU")),
        ("Retire", two("7", "2026")),
        // Re-entering practice after retirement violates the inventory:
        ("ToPhysician", two("7", "Cardiology")),
        ("Leave", one("7")),
    ];

    for (name, args) in &script {
        let t = ts.get(name).expect("transaction exists");
        match m.try_apply(t, args) {
            Ok(()) => println!("  ✓ {name:<12} committed (step {})", m.clock(0)),
            Err(EnforceError::Violation(v)) => {
                println!("  ✗ {name:<12} REJECTED — {}", v.display(&alphabet));
            }
            Err(EnforceError::Lang(e)) => println!("  ! {name:<12} failed: {e}"),
            Err(EnforceError::Durability(e)) => println!("  ! {name:<12} not logged: {e}"),
            Err(EnforceError::Degraded(e) | EnforceError::Redefine(e)) => {
                println!("  ! {name:<12} refused: {e}");
            }
        }
    }
    println!(
        "\n  final database: {} object(s); Ada's recorded pattern: {}",
        m.db().num_objects(),
        m.pattern_of(migratory::model::Oid(1))
            .map(|p| alphabet.display_word(&p))
            .unwrap_or_default(),
    );

    println!("\n== Static certification (Corollary 3.3) ==\n");
    // A restricted schema that can only hire, promote to nurse once, and
    // delete — provably inside the inventory.
    let safe = parse_transactions(
        &schema,
        r#"
        transaction Hire(id, n) { create(PERSON, { Id = id, Name = n }); }
        transaction ToNurse(id, w) {
          specialize(PERSON, NURSE, { Id = id }, { Ward = w });
        }
        transaction Leave(id) { delete(PERSON, { Id = id }); }
    "#,
    )
    .unwrap();
    let mut fast = ShardedMonitor::new(&schema, &alphabet, &inventory, PatternKind::All, 1);
    let ok = fast.certify(&safe).expect("SL schema is decidable");
    println!("  certify(safe schema)  = {ok}  → runtime checks skipped");

    let mut never = ShardedMonitor::new(&schema, &alphabet, &inventory, PatternKind::All, 1);
    let ok2 = never.certify(&ts).expect("SL schema is decidable");
    println!("  certify(full schema)  = {ok2} → Retire→ToPhysician can violate, keep checking");

    // Certified fast path in action: same applications, no tracking cost.
    for (name, args) in
        [("Hire", two("9", "Grace")), ("ToNurse", two("9", "ER")), ("Leave", one("9"))]
    {
        fast.try_apply(safe.get(name).unwrap(), &args).unwrap();
    }
    println!(
        "  certified run committed {} steps over {} object(s) with zero checks",
        fast.clock(0),
        1
    );
}
