//! Example 3.5: the Ph.D. student life cycle (Fig. 4) — and a genuine
//! finding of this reproduction.
//!
//! The paper's transactions, read literally under Definition 2.5, do NOT
//! preserve the sequential phases: applying T3 to an unscreened student
//! *adds* CANDIDATE on top of UNSCREENED. The decision procedure exhibits
//! the mixed-role counterexample; selecting on a phase attribute repairs
//! the design in pure SL. (`decide::tests::example_3_5_requires_phase_encoding`
//! checks both.)
//!
//! Run with `cargo run --example phd_lifecycle`.

use migratory::core::{decide, Inventory, PatternKind, RoleAlphabet, Verdict};
use migratory::lang::parse_transactions;
use migratory::model::text::parse_schema;

fn main() {
    let schema = parse_schema(
        r"
        schema PhD {
          class G_STUDENT { ID, Phase }
          class UNSCREENED isa G_STUDENT { }
          class SCREENED isa G_STUDENT { }
          class CANDIDATE isa G_STUDENT { }
        }",
    )
    .unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inventory =
        Inventory::parse_init(&schema, &alphabet, "∅* [UNSCREENED]* [SCREENED]* [CANDIDATE]* ∅*")
            .unwrap();

    // The paper's literal design (Example 3.5).
    let naive = parse_transactions(
        &schema,
        r#"
        transaction T1(sid) {
          create(G_STUDENT, { ID = sid, Phase = "u" });
          specialize(G_STUDENT, UNSCREENED, { ID = sid }, {});
        }
        transaction T2(sid) {
          generalize(UNSCREENED, { ID = sid });
          specialize(G_STUDENT, SCREENED, { ID = sid }, {});
        }
        transaction T3(sid) {
          generalize(SCREENED, { ID = sid });
          specialize(G_STUDENT, CANDIDATE, { ID = sid }, {});
        }
    "#,
    )
    .unwrap();
    let d = decide(&schema, &alphabet, &naive, &inventory, PatternKind::All).unwrap();
    match &d.satisfies {
        Verdict::Fails { counterexample } => println!(
            "paper's literal Example 3.5 violates its own constraint:\n  counterexample pattern: {}\n  (T3 on an unscreened student adds CANDIDATE without leaving UNSCREENED)",
            alphabet.display_word(counterexample)
        ),
        Verdict::Holds => unreachable!(),
    }

    // The repaired design: phases tracked by an attribute that every
    // selection tests — pure SL, no guards needed.
    let phased = parse_transactions(
        &schema,
        r#"
        transaction T1(sid) {
          create(G_STUDENT, { ID = sid, Phase = "u" });
          specialize(G_STUDENT, UNSCREENED, { ID = sid, Phase = "u" }, {});
        }
        transaction T2(sid) {
          generalize(UNSCREENED, { ID = sid, Phase = "u" });
          specialize(G_STUDENT, SCREENED, { ID = sid, Phase = "u" }, {});
          modify(G_STUDENT, { ID = sid, Phase = "u" }, { Phase = "s" });
        }
        transaction T3(sid) {
          generalize(SCREENED, { ID = sid, Phase = "s" });
          specialize(G_STUDENT, CANDIDATE, { ID = sid, Phase = "s" }, {});
          modify(G_STUDENT, { ID = sid, Phase = "s" }, { Phase = "c" });
        }
    "#,
    )
    .unwrap();
    let d = decide(&schema, &alphabet, &phased, &inventory, PatternKind::All).unwrap();
    println!("\nphase-attribute repair satisfies the constraint: {}", d.satisfies.holds());
    assert!(d.satisfies.holds());

    // What does the repaired design actually generate? Print the proper
    // family's regular expression (Theorem 3.2(1)).
    let (_, fams) = migratory::core::analyze_families(
        &schema,
        &alphabet,
        &phased,
        &migratory::core::AnalyzeOptions::default(),
    )
    .unwrap();
    let name = |s: u32| alphabet.name(s).to_owned();
    println!("𝓛_pro = {}", migratory::automata::dfa_to_regex(&fams.pro).display_with(&name));
}
