//! Migration patterns and their classification (Definitions 3.2 and 3.4).
//!
//! A migration pattern of a transaction schema Σ is the word
//! `ω₁ … ωₙ`, `ωᵢ = Rs(o, dᵢ)`, traced by some object `o` along a run
//! `d₀ (empty) → d₁ → … → dₙ`. The paper distinguishes:
//!
//! * **immediate-start** — `ω₁ ≠ ∅` (the object is created by the first
//!   application, starting from the empty database);
//! * **proper** — every step from the second on *updates the object*
//!   (its role set or attribute tuple changes);
//! * **lazy** — every step from the second on changes the role set.
//!
//! The "from the second on" reading resolves Definition 3.4's ambiguity for
//! Theorem 3.2(2)'s closed forms (`analyze::tests::example_3_4_families_closed_forms`).

use crate::alphabet::RoleAlphabet;
use migratory_model::{Instance, Oid, RoleSet, Schema};

/// Which pattern family is being considered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PatternKind {
    /// All migration patterns, 𝓛(Σ).
    All,
    /// Immediate-start patterns, 𝓛ᵢₘₘ(Σ).
    ImmediateStart,
    /// Proper patterns, 𝓛ₚᵣₒ(Σ).
    Proper,
    /// Lazy patterns, 𝓛ₗₐ(Σ).
    Lazy,
}

impl PatternKind {
    /// All four kinds, in the paper's order.
    pub const ALL: [PatternKind; 4] =
        [PatternKind::All, PatternKind::ImmediateStart, PatternKind::Proper, PatternKind::Lazy];
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternKind::All => write!(f, "all"),
            PatternKind::ImmediateStart => write!(f, "immediate-start"),
            PatternKind::Proper => write!(f, "proper"),
            PatternKind::Lazy => write!(f, "lazy"),
        }
    }
}

/// A migration pattern as a word over a [`RoleAlphabet`].
pub type MigrationPattern = Vec<u32>;

/// Per-step observation of one object along a run, sufficient to classify
/// its pattern into the four families.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StepObservation {
    /// The role-set symbol after the step (`Rs(o, dᵢ)`).
    pub role: u32,
    /// Whether the object's role set changed at this step.
    pub role_changed: bool,
    /// Whether the object changed at all (role set or attribute tuple).
    pub object_changed: bool,
    /// Whether the database changed at all (`dᵢ ≠ dᵢ₋₁`, relevant for the
    /// CSL pattern semantics of Definition 4.6).
    pub db_changed: bool,
}

/// Observe one object along a database trace `d₀ … dₙ`
/// (as produced by [`migratory_lang::run_trace`]). Objects whose role set
/// lies outside `alphabet`'s component observe ∅ (they can never enter
/// this component's patterns).
#[must_use]
pub fn observe(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    trace: &[Instance],
    o: Oid,
) -> Vec<StepObservation> {
    let mut out = Vec::with_capacity(trace.len().saturating_sub(1));
    for i in 1..trace.len() {
        let prev = &trace[i - 1];
        let cur = &trace[i];
        let sym = |db: &Instance| -> u32 {
            let cs = db.role_set(o);
            RoleSet::new(schema, cs)
                .ok()
                .and_then(|rs| alphabet.symbol_of(rs))
                .unwrap_or_else(|| alphabet.empty_symbol())
        };
        let (s_prev, s_cur) = (sym(prev), sym(cur));
        let tuple_changed = prev.tuple_of(o) != cur.tuple_of(o);
        out.push(StepObservation {
            role: s_cur,
            role_changed: s_prev != s_cur,
            object_changed: s_prev != s_cur || tuple_changed,
            db_changed: prev != cur,
        });
    }
    out
}

/// The pattern word of a sequence of observations.
#[must_use]
pub fn pattern_of(obs: &[StepObservation]) -> MigrationPattern {
    obs.iter().map(|s| s.role).collect()
}

/// Whether the observed pattern is of the given kind.
#[must_use]
pub fn is_kind(obs: &[StepObservation], empty_sym: u32, kind: PatternKind) -> bool {
    match kind {
        PatternKind::All => true,
        PatternKind::ImmediateStart => obs.first().is_none_or(|s| s.role != empty_sym),
        PatternKind::Proper => obs.iter().skip(1).all(|s| s.object_changed),
        PatternKind::Lazy => obs.iter().skip(1).all(|s| s.role_changed),
    }
}

/// Whether a pattern word has the well-formed shape `∅*Ω₊*∅*`
/// (Definition 3.2): once an object leaves the database it never returns.
#[must_use]
pub fn is_well_formed(word: &[u32], empty_sym: u32) -> bool {
    let mut state = 0u8; // 0 = leading ∅s, 1 = inside Ω₊, 2 = trailing ∅s
    for &s in word {
        state = match (state, s == empty_sym) {
            (0, true) => 0,
            (0 | 1, false) => 1,
            (1 | 2, true) => 2,
            _ => return false,
        };
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use migratory_lang::{parse_transactions, run_trace, Assignment};
    use migratory_model::schema::university_schema;
    use migratory_model::Value;

    #[test]
    fn well_formed_shapes() {
        // ∅ = 0.
        assert!(is_well_formed(&[], 0));
        assert!(is_well_formed(&[0, 0], 0));
        assert!(is_well_formed(&[0, 1, 2, 0, 0], 0));
        assert!(is_well_formed(&[1, 1], 0));
        assert!(!is_well_formed(&[1, 0, 1], 0), "objects are created at most once");
        assert!(!is_well_formed(&[0, 1, 0, 0, 2], 0));
    }

    #[test]
    fn observation_and_classification() {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let ts = parse_transactions(
            &s,
            r#"
            transaction Mk(x, n) { create(PERSON, { SSN = x, Name = n }); }
            transaction Up(x, n) { modify(PERSON, { SSN = x }, { Name = n }); }
            transaction St(x) {
              specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
            }
            transaction Rm(x) { delete(PERSON, { SSN = x }); }
        "#,
        )
        .unwrap();
        let mk = ts.get("Mk").unwrap();
        let up = ts.get("Up").unwrap();
        let st = ts.get("St").unwrap();
        let rm = ts.get("Rm").unwrap();
        let one = Assignment::new(vec![Value::str("1"), Value::str("a")]);
        let one_b = Assignment::new(vec![Value::str("1"), Value::str("b")]);
        let just1 = Assignment::new(vec![Value::str("1")]);

        // Run: create o1; rename; specialize; rename again (no-op name), delete.
        let trace = run_trace(
            &s,
            &migratory_model::Instance::empty(),
            [
                (mk, &one),
                (up, &one_b),
                (st, &just1),
                (up, &one_b), // same name: object unchanged
                (rm, &just1),
            ],
        )
        .unwrap();
        let obs = observe(&s, &a, &trace, migratory_model::Oid(1));
        assert_eq!(obs.len(), 5);
        let p = pattern_of(&obs);
        // [P] [P] [S] [S] ∅
        assert_eq!(p[4], a.empty_symbol());
        assert_eq!(p[0], p[1]);
        assert_ne!(p[1], p[2]);
        assert_eq!(p[2], p[3]);

        assert!(is_kind(&obs, 0, PatternKind::All));
        assert!(is_kind(&obs, 0, PatternKind::ImmediateStart));
        // Step 4 (second Up with same name) changed nothing about o1.
        assert!(!is_kind(&obs, 0, PatternKind::Proper));
        assert!(!is_kind(&obs, 0, PatternKind::Lazy));

        // Without the idempotent step it is proper but not lazy (rename
        // keeps the role set).
        let trace2 = run_trace(
            &s,
            &migratory_model::Instance::empty(),
            [(mk, &one), (up, &one_b), (st, &just1), (rm, &just1)],
        )
        .unwrap();
        let obs2 = observe(&s, &a, &trace2, migratory_model::Oid(1));
        assert!(is_kind(&obs2, 0, PatternKind::Proper));
        assert!(!is_kind(&obs2, 0, PatternKind::Lazy));

        // Pure role-changing run is lazy.
        let trace3 = run_trace(
            &s,
            &migratory_model::Instance::empty(),
            [(mk, &one), (st, &just1), (rm, &just1)],
        )
        .unwrap();
        let obs3 = observe(&s, &a, &trace3, migratory_model::Oid(1));
        assert!(is_kind(&obs3, 0, PatternKind::Lazy));
    }

    #[test]
    fn uncreated_objects_observe_empties() {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let ts = parse_transactions(
            &s,
            r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
        )
        .unwrap();
        let mk = ts.get("Mk").unwrap();
        let arg = Assignment::new(vec![Value::str("1")]);
        let trace =
            run_trace(&s, &migratory_model::Instance::empty(), [(mk, &arg), (mk, &arg)]).unwrap();
        // o9 never exists: pattern ∅∅; not immediate-start (non-trivially),
        // proper holds only for the one-step prefix rule (step 2 no change).
        let obs = observe(&s, &a, &trace, migratory_model::Oid(9));
        assert_eq!(pattern_of(&obs), vec![0, 0]);
        assert!(!is_kind(&obs, 0, PatternKind::ImmediateStart));
        assert!(!is_kind(&obs, 0, PatternKind::Proper));
        // o2 is created at step 2: ∅ then [P] — proper and lazy (single ∅
        // prefix), not immediate-start.
        let obs2 = observe(&s, &a, &trace, migratory_model::Oid(2));
        assert!(!is_kind(&obs2, 0, PatternKind::ImmediateStart));
        assert!(is_kind(&obs2, 0, PatternKind::Proper));
        assert!(is_kind(&obs2, 0, PatternKind::Lazy));
    }

    #[test]
    fn kind_display_names() {
        let names: Vec<String> = PatternKind::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, vec!["all", "immediate-start", "proper", "lazy"]);
    }
}
