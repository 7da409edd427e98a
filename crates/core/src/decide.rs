//! Decision procedures for inventory constraints — Corollary 3.3.
//!
//! For an SL transaction schema Σ and a regular inventory 𝔏 it is
//! decidable whether Σ *satisfies* 𝔏 (every pattern of the chosen family
//! lies in 𝔏), *generates* 𝔏 (every word of 𝔏 is a pattern), and hence
//! whether it *characterizes* 𝔏 (both). Verdicts carry counterexample
//! words for diagnostics.

use crate::alphabet::RoleAlphabet;
use crate::analyze::{analyze_families, AnalyzeOptions, Families};
use crate::error::CoreError;
use crate::inventory::Inventory;
use crate::pattern::{MigrationPattern, PatternKind};
use migratory_lang::TransactionSchema;
use migratory_model::Schema;

/// The outcome of a satisfies/generates test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The inclusion holds.
    Holds,
    /// The inclusion fails; a shortest offending pattern is included.
    Fails {
        /// A word witnessing the failure (in the left language, not the
        /// right).
        counterexample: MigrationPattern,
    },
}

impl Verdict {
    /// Whether the inclusion holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// The complete decision report for one pattern kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Σ satisfies 𝔏 — `family(Σ) ⊆ 𝔏` (Definition 3.5).
    pub satisfies: Verdict,
    /// Σ generates 𝔏 — `𝔏 ⊆ family(Σ)`.
    pub generates: Verdict,
}

impl Decision {
    /// Σ characterizes 𝔏 — satisfies and generates.
    #[must_use]
    pub fn characterizes(&self) -> bool {
        self.satisfies.holds() && self.generates.holds()
    }
}

fn inclusion(left: &migratory_automata::Dfa, right: &migratory_automata::Dfa) -> Verdict {
    match left.witness_not_subset(right) {
        None => Verdict::Holds,
        Some(counterexample) => Verdict::Fails { counterexample },
    }
}

/// Decide satisfies/generates for already-computed families.
#[must_use]
pub fn decide_with_families(
    families: &Families,
    inventory: &Inventory,
    kind: PatternKind,
) -> Decision {
    let fam = families.of(kind);
    Decision {
        satisfies: inclusion(fam, inventory.dfa()),
        generates: inclusion(inventory.dfa(), fam),
    }
}

/// Analyze Σ and decide satisfies/generates for the given pattern kind
/// (Corollary 3.3). Fails on non-SL schemas — for CSL the problem is
/// undecidable (Corollary 4.7), and the bounded explorer can only refute,
/// never confirm.
pub fn decide(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    inventory: &Inventory,
    kind: PatternKind,
) -> Result<Decision, CoreError> {
    let (_, fams) = analyze_families(schema, alphabet, ts, &AnalyzeOptions::default())?;
    Ok(decide_with_families(&fams, inventory, kind))
}

/// Bounded refutation for CSL schemas: search runs up to `max_steps` for
/// a pattern outside the inventory. `Some(word)` refutes satisfaction;
/// `None` is *not* a proof (Corollary 4.7: satisfiability is undecidable
/// for CSL⁺/CSL).
#[must_use]
pub fn refute_csl_satisfies(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    inventory: &Inventory,
    kind: PatternKind,
    max_steps: usize,
) -> Option<MigrationPattern> {
    let sets = crate::explore::explore(
        schema,
        alphabet,
        ts,
        &crate::explore::ExploreConfig { max_steps, ..Default::default() },
    );
    let family = match kind {
        PatternKind::All => &sets.all,
        PatternKind::ImmediateStart => &sets.imm,
        PatternKind::Proper => &sets.pro,
        PatternKind::Lazy => &sets.lazy,
    };
    family.iter().find(|w| !inventory.contains(w)).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::synthesize;
    use migratory_automata::Regex;
    use migratory_lang::parse_transactions;
    use migratory_model::{RoleSet, SchemaBuilder};

    fn pq_schema() -> (Schema, RoleAlphabet) {
        let mut b = SchemaBuilder::new();
        let r = b.class("R", &["A", "B", "C"]).unwrap();
        b.subclass("p", &[r], &[]).unwrap();
        b.subclass("q", &[r], &[]).unwrap();
        let schema = b.build().unwrap();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        (schema, alphabet)
    }

    fn sym(schema: &Schema, alphabet: &RoleAlphabet, class: &str) -> u32 {
        alphabet.symbol_of(RoleSet::closure_of_named(schema, &[class]).unwrap()).unwrap()
    }

    #[test]
    fn synthesized_schema_characterizes_its_inventory() {
        // Theorem 3.2(2) + Corollary 3.3 end to end: Σ_η characterizes
        // Init(η·∅*) w.r.t. immediate-start patterns.
        let (schema, alphabet) = pq_schema();
        let p = sym(&schema, &alphabet, "p");
        let q = sym(&schema, &alphabet, "q");
        let eta = Regex::concat([Regex::Sym(p), Regex::star(Regex::word([q, q, p]))]);
        let synth = synthesize(&schema, &alphabet, &eta).unwrap();
        let inv = Inventory::init_of_regex(
            &schema,
            &alphabet,
            &Regex::concat([eta, Regex::star(Regex::Sym(alphabet.empty_symbol()))]),
        )
        .unwrap();
        let d = decide(&schema, &alphabet, &synth.transactions, &inv, PatternKind::ImmediateStart)
            .unwrap();
        assert!(d.satisfies.holds(), "{:?}", d.satisfies);
        assert!(d.generates.holds(), "{:?}", d.generates);
        assert!(d.characterizes());
    }

    #[test]
    fn violation_produces_counterexample() {
        let (schema, alphabet) = pq_schema();
        let p = sym(&schema, &alphabet, "p");
        let q = sym(&schema, &alphabet, "q");
        // Σ allows p → q but the inventory forbids q entirely.
        let ts = parse_transactions(
            &schema,
            r#"
            transaction Mk(x) { create(R, { A = x, B = 0, C = 0 }); specialize(R, p, { A = x }, {}); }
            transaction Q(x) { generalize(p, { A = x }); specialize(R, q, { A = x }, {}); }
        "#,
        )
        .unwrap();
        let inv = Inventory::init_of_regex(
            &schema,
            &alphabet,
            &Regex::concat([
                Regex::star(Regex::Sym(alphabet.empty_symbol())),
                Regex::star(Regex::Sym(p)),
                Regex::star(Regex::Sym(alphabet.empty_symbol())),
            ]),
        )
        .unwrap();
        let d = decide(&schema, &alphabet, &ts, &inv, PatternKind::All).unwrap();
        match &d.satisfies {
            Verdict::Fails { counterexample } => {
                assert!(counterexample.contains(&q), "counterexample must show q");
                assert!(!inv.contains(counterexample));
            }
            Verdict::Holds => panic!("expected a violation"),
        }
        // Generation also fails: Σ cannot produce arbitrarily long p-runs…
        // actually it can (create repeatedly). Check the verdict is
        // consistent with the automata either way.
        match &d.generates {
            Verdict::Holds => {}
            Verdict::Fails { counterexample } => {
                assert!(inv.contains(counterexample));
            }
        }
    }

    #[test]
    fn csl_rejected_by_decider_but_refutable_by_bounds() {
        let (schema, alphabet) = pq_schema();
        let ts = parse_transactions(
            &schema,
            r#"
            transaction Mk(x) {
              when !R(A = x) -> create(R, { A = x, B = 0, C = 0 });
            }
        "#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&schema, &alphabet, "∅*").unwrap();
        assert!(matches!(
            decide(&schema, &alphabet, &ts, &inv, PatternKind::All),
            Err(CoreError::NotSl)
        ));
        // The bounded explorer refutes "Σ satisfies ∅*" (it creates [R]
        // objects).
        let cex = refute_csl_satisfies(&schema, &alphabet, &ts, &inv, PatternKind::All, 2);
        assert!(cex.is_some());
        assert!(!inv.contains(&cex.unwrap()));
    }

    #[test]
    fn example_3_5_requires_phase_encoding() {
        // Example 3.5 (Ph.D. phases U → S → C). The paper's transactions,
        // read literally under Definition 2.5, do NOT satisfy the
        // sequential constraint: applying T3 to an unscreened student
        // adds C on top of U (specialize selects any G-object with the
        // right ID), producing the mixed role set [U,C]. The decision
        // procedure finds that counterexample. Encoding the phase in a
        // selection attribute repairs the design, as (b) below checks.
        let mut b = SchemaBuilder::new();
        let g = b.class("G", &["ID", "Phase"]).unwrap();
        b.subclass("U", &[g], &[]).unwrap();
        b.subclass("S", &[g], &[]).unwrap();
        b.subclass("C", &[g], &[]).unwrap();
        let schema = b.build().unwrap();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let inv = Inventory::parse_init(&schema, &alphabet, "∅* [U]* [S]* [C]* ∅*").unwrap();

        // (a) The paper's literal transactions violate the inventory.
        let naive = parse_transactions(
            &schema,
            r#"
            transaction T1(sid) {
              create(G, { ID = sid, Phase = "u" });
              specialize(G, U, { ID = sid }, {});
            }
            transaction T2(sid) { generalize(U, { ID = sid }); specialize(G, S, { ID = sid }, {}); }
            transaction T3(sid) { generalize(S, { ID = sid }); specialize(G, C, { ID = sid }, {}); }
        "#,
        )
        .unwrap();
        let d = decide(&schema, &alphabet, &naive, &inv, PatternKind::All).unwrap();
        match &d.satisfies {
            Verdict::Fails { counterexample } => {
                // The offending symbol is a mixed role set ([U,C] or
                // [U,S]): more than one phase class at once.
                let mixed = counterexample.iter().any(|&sym| {
                    alphabet.role_set(sym).len() > 2 // {G, X, Y}
                });
                assert!(mixed, "expected a mixed-phase counterexample, got {counterexample:?}");
            }
            Verdict::Holds => panic!("the naive Example 3.5 design should be refuted"),
        }

        // (b) Selecting on a phase attribute repairs it, in pure SL.
        let phased = parse_transactions(
            &schema,
            r#"
            transaction T1(sid) {
              create(G, { ID = sid, Phase = "u" });
              specialize(G, U, { ID = sid, Phase = "u" }, {});
            }
            transaction T2(sid) {
              generalize(U, { ID = sid, Phase = "u" });
              specialize(G, S, { ID = sid, Phase = "u" }, {});
              modify(G, { ID = sid, Phase = "u" }, { Phase = "s" });
            }
            transaction T3(sid) {
              generalize(S, { ID = sid, Phase = "s" });
              specialize(G, C, { ID = sid, Phase = "s" }, {});
              modify(G, { ID = sid, Phase = "s" }, { Phase = "c" });
            }
        "#,
        )
        .unwrap();
        let d = decide(&schema, &alphabet, &phased, &inv, PatternKind::All).unwrap();
        assert!(d.satisfies.holds(), "{:?}", d.satisfies);
        // It still does not *generate* the full inventory (e.g. nothing
        // starts at [S]).
        assert!(!d.generates.holds());
        if let Verdict::Fails { counterexample } = &d.generates {
            assert!(inv.contains(counterexample));
        }
    }
}
