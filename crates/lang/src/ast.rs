//! Abstract syntax of the update languages SL, CSL⁺ and CSL
//! (Definitions 2.3, 2.4, 4.1, 4.2 of the paper).
//!
//! A *transaction* is a sequence of (optionally guarded) atomic updates;
//! a *transaction schema* is a finite set of transactions. Transactions
//! are *parameterized*: conditions may mention variables, which an
//! [`Assignment`] binds to constants before execution. SL transactions
//! are exactly those with no guards; CSL⁺ allows positive guards; CSL
//! allows positive and negative guards — so one AST covers all three
//! languages, with [`Transaction::language`] reporting the fragment.

use migratory_model::{ClassId, Condition, OneOrMany, Term, Value, VarId};
use std::collections::BTreeSet;

/// One of the five atomic updates of SL (Definition 2.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AtomicUpdate {
    /// `create(P, Γ)` — create a brand-new object (fresh identifier) in the
    /// isa-root class `P` with attribute values given by Γ's equalities.
    /// Unlike relational insertion, creation is unconditional: a new
    /// object appears even if an identical tuple already exists.
    Create {
        /// The isa-root class.
        class: ClassId,
        /// Value-defining condition with `Att(Γ) = Att_def(Γ) = A(P)`.
        gamma: Condition,
    },
    /// `delete(P, Γ)` — remove every object of the isa-root class `P`
    /// satisfying Γ from the database entirely.
    Delete {
        /// The isa-root class.
        class: ClassId,
        /// Selection condition with `Att(Γ) ⊆ A(P)`.
        gamma: Condition,
    },
    /// `modify(P, Γ, Γ′)` — overwrite, for every object of `P` satisfying
    /// Γ, the attributes defined by Γ′.
    Modify {
        /// Any class.
        class: ClassId,
        /// Selection condition with `Att(Γ) ⊆ A*(P)`.
        select: Condition,
        /// Update condition with `Att_def(Γ′) = Att(Γ′) ⊆ A*(P)`.
        set: Condition,
    },
    /// `generalize(P, Γ)` — cancel membership of `P` *and all its
    /// descendants* for every object of `P` satisfying Γ. Not applicable
    /// to isa-roots; the object survives in the ancestor classes.
    Generalize {
        /// A non-root class.
        class: ClassId,
        /// Selection condition with `Att(Γ) ⊆ A*(P)`.
        gamma: Condition,
    },
    /// `specialize(P, Q, Γ, Γ′)` — add every object of `P` satisfying Γ
    /// (and not already in `Q`) to the direct subclass `Q` (and hence to
    /// all of `Q`'s ancestors), with the newly acquired attributes
    /// `A*(Q) − A*(P)` set from Γ′. Objects already in `Q` are left
    /// untouched.
    Specialize {
        /// The source class `P`.
        from: ClassId,
        /// The target class `Q` with a direct edge `Q isa P`.
        to: ClassId,
        /// Selection condition with `Att(Γ) ⊆ A*(P)`.
        select: Condition,
        /// Value condition with `Att_def(Γ′) = Att(Γ′) = A*(Q) − A*(P)`.
        set: Condition,
    },
}

impl AtomicUpdate {
    /// The conditions of the update, in order.
    #[must_use]
    pub fn conditions(&self) -> Vec<&Condition> {
        match self {
            AtomicUpdate::Create { gamma, .. }
            | AtomicUpdate::Delete { gamma, .. }
            | AtomicUpdate::Generalize { gamma, .. } => vec![gamma],
            AtomicUpdate::Modify { select, set, .. }
            | AtomicUpdate::Specialize { select, set, .. } => vec![select, set],
        }
    }

    /// Whether the update is ground (no variables in any condition).
    #[must_use]
    pub fn is_ground(&self) -> bool {
        self.conditions().iter().all(|c| c.is_ground())
    }
}

/// A testing literal `P(Γ)` or `¬P(Γ)` (Section 4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Literal {
    /// `true` for `P(Γ)`, `false` for `¬P(Γ)`.
    pub positive: bool,
    /// The tested class.
    pub class: ClassId,
    /// The tested condition, `Att(Γ) ⊆ A*(P)`.
    pub gamma: Condition,
}

impl Literal {
    /// A positive literal `P(Γ)`.
    #[must_use]
    pub fn pos(class: ClassId, gamma: Condition) -> Self {
        Literal { positive: true, class, gamma }
    }

    /// A negative literal `¬P(Γ)`.
    #[must_use]
    pub fn neg(class: ClassId, gamma: Condition) -> Self {
        Literal { positive: false, class, gamma }
    }
}

/// A conditional atomic update `δ₁, …, δₙ → θ` (Definition 4.1); with no
/// guards this is a plain SL atomic update.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardedUpdate {
    /// The testing literals; all must hold for the update to fire.
    pub guards: Vec<Literal>,
    /// The guarded atomic update.
    pub update: AtomicUpdate,
}

impl GuardedUpdate {
    /// An unguarded update.
    #[must_use]
    pub fn plain(update: AtomicUpdate) -> Self {
        GuardedUpdate { guards: Vec::new(), update }
    }

    /// A guarded update.
    #[must_use]
    pub fn when(guards: Vec<Literal>, update: AtomicUpdate) -> Self {
        GuardedUpdate { guards, update }
    }

    /// Whether guards and update are all ground.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        self.guards.iter().all(|l| l.gamma.is_ground()) && self.update.is_ground()
    }
}

/// Which language fragment a transaction belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Language {
    /// No guards — the five-operator base language.
    Sl,
    /// Positive guards only.
    CslPlus,
    /// Positive and negative guards.
    Csl,
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Language::Sl => write!(f, "SL"),
            Language::CslPlus => write!(f, "CSL+"),
            Language::Csl => write!(f, "CSL"),
        }
    }
}

/// A (possibly parameterized, possibly conditional) transaction
/// `T(x₁, …, xₘ) = ξ₁; …; ξₙ` (Definitions 2.4 / 4.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Name (unique within a [`TransactionSchema`]).
    pub name: String,
    /// Parameter names; `VarId(i)` refers to `params[i]`.
    pub params: Vec<String>,
    /// The update sequence.
    pub steps: Vec<GuardedUpdate>,
}

impl Transaction {
    /// A transaction with the given name, parameters and steps.
    #[must_use]
    pub fn new(name: &str, params: &[&str], steps: Vec<GuardedUpdate>) -> Self {
        Transaction {
            name: name.to_owned(),
            params: params.iter().map(|s| (*s).to_owned()).collect(),
            steps,
        }
    }

    /// An SL transaction from plain atomic updates.
    #[must_use]
    pub fn sl(name: &str, params: &[&str], updates: Vec<AtomicUpdate>) -> Self {
        Self::new(name, params, updates.into_iter().map(GuardedUpdate::plain).collect())
    }

    /// The empty transaction (identity mapping).
    #[must_use]
    pub fn empty(name: &str) -> Self {
        Self::new(name, &[], Vec::new())
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether this is the empty transaction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether all steps are ground; per Definition 2.4 a transaction is
    /// *parameterized* iff it is not ground.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        self.steps.iter().all(GuardedUpdate::is_ground)
    }

    /// The first class this transaction's updates name (the source
    /// class for a specialize), or `None` for the empty transaction.
    /// This is the **routing anchor** shared by the enforcement stack:
    /// `enforce::ingress` picks the admission lane with it and the
    /// sharded monitor routes empty-delta letters with it — the two
    /// must agree, so both call this one helper.
    #[must_use]
    pub fn first_named_class(&self) -> Option<ClassId> {
        self.steps
            .iter()
            .map(|g| match g.update {
                AtomicUpdate::Create { class, .. }
                | AtomicUpdate::Delete { class, .. }
                | AtomicUpdate::Modify { class, .. }
                | AtomicUpdate::Generalize { class, .. } => class,
                AtomicUpdate::Specialize { from, .. } => from,
            })
            .next()
    }

    /// The language fragment this transaction lives in.
    #[must_use]
    pub fn language(&self) -> Language {
        let mut lang = Language::Sl;
        for s in &self.steps {
            for g in &s.guards {
                if g.positive {
                    lang = lang.max(Language::CslPlus);
                } else {
                    return Language::Csl;
                }
            }
        }
        lang
    }

    /// All variables used anywhere in the transaction.
    #[must_use]
    pub fn vars_used(&self) -> BTreeSet<VarId> {
        let mut vars = BTreeSet::new();
        for s in &self.steps {
            for g in &s.guards {
                vars.extend(g.gamma.vars());
            }
            for c in s.update.conditions() {
                vars.extend(c.vars());
            }
        }
        vars
    }

    /// All constants appearing in the transaction (the `C_T` of the
    /// separator construction).
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut cs = BTreeSet::new();
        for s in &self.steps {
            for g in &s.guards {
                cs.extend(g.gamma.constants());
            }
            for c in s.update.conditions() {
                cs.extend(c.constants());
            }
        }
        cs
    }
}

/// An assignment α binding each parameter of a transaction to a constant
/// (positionally: argument `i` binds `VarId(i)`). The interpreter reads
/// each variable through it where a condition is evaluated
/// ([`Condition::bind`]), so `T[α]` is never built. One argument —
/// every transaction of a one-key workload — is held inline, with no
/// allocation of its own ([`OneOrMany`]).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Assignment(OneOrMany<Value>);

impl Assignment {
    /// The empty assignment (for parameterless transactions).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from positional values.
    #[must_use]
    pub fn new(values: Vec<Value>) -> Self {
        Assignment(values.into())
    }

    /// The bound values, positionally.
    #[must_use]
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Number of bound parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no parameter is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value bound to a variable.
    ///
    /// # Panics
    /// Panics if the variable index is out of range (callers check a
    /// transaction's arity before they run it).
    #[must_use]
    pub fn get(&self, x: VarId) -> &Value {
        &self.0[x.0 as usize]
    }

    /// Iterate the bound values.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }
}

impl std::fmt::Debug for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assignment").field("values", &self.as_slice()).finish()
    }
}

impl From<Vec<Value>> for Assignment {
    fn from(values: Vec<Value>) -> Self {
        Assignment::new(values)
    }
}

impl FromIterator<Value> for Assignment {
    /// Collects one value without a vector.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Assignment(iter.into_iter().collect())
    }
}

/// A finite set of transactions over one database schema
/// (Definition 2.4's *transaction schema*).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TransactionSchema {
    transactions: Vec<Transaction>,
}

impl TransactionSchema {
    /// An empty schema.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from transactions, requiring unique names.
    pub fn from_transactions(
        ts: impl IntoIterator<Item = Transaction>,
    ) -> Result<Self, crate::error::LangError> {
        let mut s = Self::new();
        for t in ts {
            s.add(t)?;
        }
        Ok(s)
    }

    /// Add a transaction, requiring a fresh name.
    pub fn add(&mut self, t: Transaction) -> Result<(), crate::error::LangError> {
        if self.transactions.iter().any(|u| u.name == t.name) {
            return Err(crate::error::LangError::DuplicateTransaction(t.name));
        }
        self.transactions.push(t);
        Ok(())
    }

    /// The transactions, in declaration order.
    #[must_use]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the schema is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Look up a transaction by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Transaction> {
        self.transactions.iter().find(|t| t.name == name)
    }

    /// The position of a transaction by name.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.transactions.iter().position(|t| t.name == name)
    }

    /// The most expressive language fragment used (`max` over members).
    #[must_use]
    pub fn language(&self) -> Language {
        self.transactions.iter().map(Transaction::language).max().unwrap_or(Language::Sl)
    }

    /// All constants occurring in the schema (the `C_Σ` of Theorem 3.2's
    /// separator construction).
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        self.transactions.iter().flat_map(Transaction::constants).collect()
    }
}

/// Convenience: a `Term` for a constant.
#[must_use]
pub fn con(v: impl Into<Value>) -> Term {
    Term::Const(v.into())
}

/// Convenience: a `Term` for variable `i`.
#[must_use]
pub fn var(i: u32) -> Term {
    Term::Var(VarId(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use migratory_model::{schema::university_schema, Atom, CmpOp};

    fn cond(atoms: Vec<Atom>) -> Condition {
        Condition::from_atoms(atoms)
    }

    #[test]
    fn language_classification() {
        let s = university_schema();
        let p = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let name = s.attr_id("Name").unwrap();
        let create = AtomicUpdate::Create {
            class: p,
            gamma: cond(vec![Atom::eq_var(ssn, VarId(0)), Atom::eq_var(name, VarId(1))]),
        };
        let t_sl = Transaction::sl("t", &["s", "n"], vec![create.clone()]);
        assert_eq!(t_sl.language(), Language::Sl);

        let guard_pos = Literal::pos(p, Condition::empty());
        let t_pos = Transaction::new(
            "t2",
            &["s", "n"],
            vec![GuardedUpdate::when(vec![guard_pos.clone()], create.clone())],
        );
        assert_eq!(t_pos.language(), Language::CslPlus);

        let guard_neg = Literal::neg(p, Condition::empty());
        let t_neg = Transaction::new(
            "t3",
            &["s", "n"],
            vec![GuardedUpdate::when(vec![guard_pos, guard_neg], create)],
        );
        assert_eq!(t_neg.language(), Language::Csl);
        assert!(Language::Sl < Language::CslPlus && Language::CslPlus < Language::Csl);
    }

    /// `⟦T(x₁, x₂)⟧(α) = ⟦T[α]⟧`: applying the parameterized
    /// transaction under α, which reads every variable in place, equals
    /// applying the hand-grounded `T[α]` — a guard, a select and a value
    /// condition each mention a variable.
    #[test]
    fn grounding_substitutes_all_occurrences() {
        let s = university_schema();
        let p = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let name = s.attr_id("Name").unwrap();
        let t_of = |params: &[&str], x: Term, y: Term| {
            Transaction::new(
                "t",
                params,
                vec![
                    GuardedUpdate::when(
                        vec![Literal::neg(
                            p,
                            cond(vec![Atom { attr: ssn, op: CmpOp::Eq, term: x.clone() }]),
                        )],
                        AtomicUpdate::Create {
                            class: p,
                            gamma: cond(vec![
                                Atom { attr: ssn, op: CmpOp::Eq, term: x.clone() },
                                Atom { attr: name, op: CmpOp::Eq, term: y.clone() },
                            ]),
                        },
                    ),
                    GuardedUpdate::plain(AtomicUpdate::Modify {
                        class: p,
                        select: cond(vec![Atom { attr: ssn, op: CmpOp::Eq, term: x }]),
                        set: cond(vec![Atom { attr: name, op: CmpOp::Eq, term: y }]),
                    }),
                ],
            )
        };
        let t = t_of(&["s", "n"], var(0), var(1));
        assert!(!t.is_ground());
        assert_eq!(t.vars_used().len(), 2);
        let ground = t_of(&[], con("123"), con("Ann"));
        assert!(ground.is_ground());
        let args = Assignment::new(vec![Value::str("123"), Value::str("Ann")]);
        let (mut lhs, mut rhs) =
            (migratory_model::Instance::empty(), migratory_model::Instance::empty());
        for _ in 0..2 {
            crate::interp::apply_transaction(&s, &mut lhs, &t, &args).unwrap();
            crate::interp::apply_transaction(&s, &mut rhs, &ground, &Assignment::empty()).unwrap();
            assert_eq!(lhs, rhs);
        }
        assert_eq!(lhs.num_objects(), 1, "the guard held the second time");
    }

    #[test]
    fn grounding_checks_arity() {
        let s = university_schema();
        let t = Transaction::sl("t", &["x"], vec![]);
        let mut db = migratory_model::Instance::empty();
        let e =
            crate::interp::apply_transaction(&s, &mut db, &t, &Assignment::empty()).unwrap_err();
        assert_eq!(e, crate::error::LangError::ArityMismatch { expected: 1, got: 0 });
    }

    #[test]
    fn one_argument_is_held_inline_and_compares_by_value() {
        let one = Assignment::new(vec![Value::str("k")]);
        let collected: Assignment = [Value::str("k")].into_iter().collect();
        assert_eq!(one, collected);
        assert_eq!(one.as_slice(), [Value::str("k")]);
        assert!(one.0.is_inline());
        let two: Assignment = [Value::int(1), Value::int(2)].into_iter().collect();
        assert_eq!(two, Assignment::new(vec![Value::int(1), Value::int(2)]));
        assert_eq!(two.get(VarId(1)), &Value::int(2));
        assert!(Assignment::empty() < one && Assignment::new(Vec::new()).is_empty());
        let values = [Value::str("k")];
        assert_eq!(format!("{one:?}"), format!("Assignment {{ values: {values:?} }}"));
    }

    #[test]
    fn schema_name_uniqueness() {
        let mut ts = TransactionSchema::new();
        ts.add(Transaction::empty("a")).unwrap();
        assert!(ts.add(Transaction::empty("a")).is_err());
        ts.add(Transaction::empty("b")).unwrap();
        assert_eq!(ts.len(), 2);
        assert!(ts.get("a").is_some());
        assert_eq!(ts.index_of("b"), Some(1));
        assert_eq!(ts.language(), Language::Sl);
    }

    #[test]
    fn constants_collected_across_guards_and_updates() {
        let s = university_schema();
        let p = s.class_id("PERSON").unwrap();
        let e = s.class_id("EMPLOYEE").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let t = Transaction::new(
            "t",
            &[],
            vec![GuardedUpdate::when(
                vec![Literal::pos(e, cond(vec![Atom::eq_const(ssn, "g")]))],
                AtomicUpdate::Delete { class: p, gamma: cond(vec![Atom::eq_const(ssn, "u")]) },
            )],
        );
        let cs = t.constants();
        assert!(cs.contains(&Value::str("g")) && cs.contains(&Value::str("u")));
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn empty_transaction_is_identity_shaped() {
        let t = Transaction::empty("id");
        assert!(t.is_empty() && t.is_ground());
        assert_eq!(t.len(), 0);
        assert_eq!(t.language(), Language::Sl);
    }
}
