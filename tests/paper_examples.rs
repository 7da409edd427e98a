//! End-to-end reproduction of the paper's worked examples, wired across
//! all crates (`experiments` times them, one row id per figure or theorem).

use migratory::automata::{Dfa, Nfa, Regex};
use migratory::core::{
    analyze_families, explore, AnalyzeOptions, ExploreConfig, Inventory, RoleAlphabet,
};
use migratory::lang::parse_transactions;
use migratory::model::roleset::all_role_sets;
use migratory::model::schema::university_schema;
use migratory::model::RoleSet;

/// Example 2.1 / Fig. 1-2: schema shape and a valid instance.
#[test]
fn fig1_fig2_schema_and_instance() {
    let s = university_schema();
    assert_eq!(s.num_classes(), 4);
    assert_eq!(s.num_attrs(), 7);
    let g = s.class_id("GRAD_ASSIST").unwrap();
    assert_eq!(s.attr_star(g).len(), 7, "GRAD_ASSIST inherits all seven attributes");
}

/// Example 3.1: the role sets are ∅, [G], [S], [E], [SE], [P].
#[test]
fn example_3_1_role_sets() {
    let s = university_schema();
    assert_eq!(all_role_sets(&s, 0).len(), 6);
}

/// Example 3.4 + Corollary 3.6: 𝓛(Σ) = ∅*·𝓛ᵢₘₘ(Σ) ∪ ∅* as an automata
/// identity on the analyzer's output.
#[test]
fn corollary_3_6_families_identity() {
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let ts = parse_transactions(
        &schema,
        r"
        transaction T1(n, s, t, m) {
          create(PERSON, { SSN = s, Name = n });
          specialize(PERSON, STUDENT, { SSN = s }, { Major = m, FirstEnroll = t });
        }
        transaction T3(s) { generalize(EMPLOYEE, { SSN = s }); }
        transaction T4(s) { delete(PERSON, { SSN = s }); }
    ",
    )
    .unwrap();
    let (_, fams) = analyze_families(
        &schema,
        &alphabet,
        &ts,
        &AnalyzeOptions { parallel: true, ..Default::default() },
    )
    .unwrap();
    let ns = alphabet.num_symbols();
    let e = alphabet.empty_symbol();
    let empty_star = Nfa::from_regex(&Regex::star(Regex::Sym(e)), ns);
    let rhs = Dfa::from_nfa(&migratory::automata::concat(&empty_star, &fams.imm.to_nfa()).unwrap())
        .union(&Dfa::from_nfa(&Nfa::from_regex(&Regex::star(Regex::Sym(e)), ns)))
        .minimize();
    assert!(fams.all.equivalent(&rhs), "Corollary 3.6 fails");
}

/// The family-inclusion chain the paper states after Definition 3.4,
/// checked on analyzer output: lazy ⊆ proper, and the Init-closedness of
/// every family.
#[test]
fn family_inclusions_and_prefix_closure() {
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
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
        transaction T4(s) { delete(PERSON, { SSN = s }); }
    ",
    )
    .unwrap();
    let (_, fams) = analyze_families(
        &schema,
        &alphabet,
        &ts,
        &AnalyzeOptions { parallel: true, ..Default::default() },
    )
    .unwrap();
    assert!(fams.lazy.is_subset_of(&fams.pro), "lazy ⊆ proper");
    assert!(fams.pro.is_subset_of(&fams.all), "proper ⊆ all");
    assert!(fams.imm.is_subset_of(&fams.all), "immediate-start ⊆ all");
    for dfa in [&fams.all, &fams.imm, &fams.pro, &fams.lazy] {
        let closed = Dfa::from_nfa(&dfa.to_nfa().prefix_closure());
        assert!(closed.is_subset_of(dfa), "families are prefix-closed");
    }
}

/// Theorem 4.2 cross-check: the bounded r.e. enumerator agrees with the
/// regular families on a small SL schema (every enumerated word accepted,
/// every short accepted word enumerated).
#[test]
fn explorer_agrees_with_analyzer() {
    let mut b = migratory::model::SchemaBuilder::new();
    let p = b.class("P", &["Id"]).unwrap();
    b.subclass("S", &[p], &[]).unwrap();
    let schema = b.build().unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let ts = parse_transactions(
        &schema,
        r"
        transaction Mk(x) { create(P, { Id = x }); }
        transaction Up(x) { specialize(P, S, { Id = x }, {}); }
        transaction Rm(x) { delete(P, { Id = x }); }
    ",
    )
    .unwrap();
    let (_, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
    let sets =
        explore(&schema, &alphabet, &ts, &ExploreConfig { max_steps: 3, ..Default::default() });
    for w in &sets.all {
        assert!(fams.all.accepts(w), "enumerated {w:?} rejected by the analyzer");
    }
    for w in fams.all.enumerate(3, 10_000) {
        assert!(sets.all.contains(&w), "{w:?} accepted but not enumerated");
    }
}

/// Example 3.2's inventory accepts the intended life cycle and rejects
/// deviations; Example 3.3's path expression constrains operations.
#[test]
fn inventories_of_examples_3_2_and_3_3() {
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(
        &schema,
        &alphabet,
        "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
    )
    .unwrap();
    let sym = |names: &[&str]| {
        alphabet.symbol_of(RoleSet::closure_of_named(&schema, names).unwrap()).unwrap()
    };
    let (p, s, g, e) =
        (sym(&["PERSON"]), sym(&["STUDENT"]), sym(&["GRAD_ASSIST"]), sym(&["EMPLOYEE"]));
    assert!(inv.contains(&[p, s, s, g, e, e, p, 0]));
    assert!(!inv.contains(&[e, s]));
    assert!(!inv.contains(&[g, s, g]));
}

/// The four pattern kinds stay distinguishable end to end: a schema where
/// all four families differ pairwise.
#[test]
fn four_families_differ() {
    let mut b = migratory::model::SchemaBuilder::new();
    let p = b.class("P", &["Id"]).unwrap();
    b.subclass("S", &[p], &[]).unwrap();
    let schema = b.build().unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(P, { Id = x }); }
        transaction Touch(x, y) { modify(P, { Id = x }, { Id = y }); }
        transaction Up(x) { specialize(P, S, { Id = x }, {}); }
        transaction Rm(x) { delete(P, { Id = x }); }
    "#,
    )
    .unwrap();
    let (_, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
    assert!(!fams.all.equivalent(&fams.imm));
    assert!(!fams.imm.equivalent(&fams.pro));
    assert!(!fams.pro.equivalent(&fams.lazy));
    // 𝓛 has ∅-prefixed words, imm does not; proper admits Touch-repeats
    // ([P][P] with a value change), lazy does not.
    let p_sym = alphabet.symbol_of(RoleSet::closure_of_named(&schema, &["P"]).unwrap()).unwrap();
    assert!(fams.all.accepts(&[0, p_sym]));
    assert!(!fams.imm.accepts(&[0, p_sym]));
    assert!(fams.pro.accepts(&[p_sym, p_sym]));
    assert!(!fams.lazy.accepts(&[p_sym, p_sym]));
}
