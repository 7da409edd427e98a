//! Selection conditions (Section 2 of the paper).
//!
//! An *atomic condition* has one of the forms `A = a`, `A ≠ a`, `A = x`,
//! `A ≠ x` for an attribute `A`, constant `a` and variable `x`. A
//! *condition* is a set of atomic conditions; it is *ground* when it
//! contains no variables. Objects are never addressed by identifier in
//! SL/CSL — conditions are the only selection mechanism.

use crate::bitset::AttrSet;
use crate::ids::{AttrId, VarId};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The right-hand side of an atomic condition: a constant or a variable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A constant from the universal domain 𝒰.
    Const(Value),
    /// A transaction variable, to be bound by an assignment.
    Var(VarId),
}

impl Term {
    /// The constant inside, if ground.
    #[must_use]
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            Term::Var(_) => None,
        }
    }
}

/// Comparison operator of an atomic condition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// `A = t`.
    Eq,
    /// `A ≠ t`.
    Ne,
}

/// An atomic condition `A (=|≠) t`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    /// The attribute `A`.
    pub attr: AttrId,
    /// `=` or `≠`.
    pub op: CmpOp,
    /// Constant or variable right-hand side.
    pub term: Term,
}

impl Atom {
    /// `A = v` for a constant.
    #[must_use]
    pub fn eq_const(attr: AttrId, v: impl Into<Value>) -> Self {
        Atom { attr, op: CmpOp::Eq, term: Term::Const(v.into()) }
    }

    /// `A ≠ v` for a constant.
    #[must_use]
    pub fn ne_const(attr: AttrId, v: impl Into<Value>) -> Self {
        Atom { attr, op: CmpOp::Ne, term: Term::Const(v.into()) }
    }

    /// `A = x` for a variable.
    #[must_use]
    pub const fn eq_var(attr: AttrId, x: VarId) -> Self {
        Atom { attr, op: CmpOp::Eq, term: Term::Var(x) }
    }

    /// `A ≠ x` for a variable.
    #[must_use]
    pub const fn ne_var(attr: AttrId, x: VarId) -> Self {
        Atom { attr, op: CmpOp::Ne, term: Term::Var(x) }
    }

    /// Whether the atom mentions no variable.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        matches!(self.term, Term::Const(_))
    }

    /// Whether the atom *defines* its attribute (is an equality; the
    /// paper's "A is defined in Γ").
    #[must_use]
    pub fn defines(&self) -> bool {
        self.op == CmpOp::Eq
    }
}

/// A condition — a finite set of atomic conditions (deduplicated,
/// order-insensitive).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Condition {
    atoms: BTreeSet<Atom>,
}

impl Condition {
    /// The empty condition ∅ — satisfied by every tuple.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from atoms (duplicates collapse).
    #[must_use]
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        Condition { atoms: atoms.into_iter().collect() }
    }

    /// Add an atom.
    pub fn push(&mut self, atom: Atom) {
        self.atoms.insert(atom);
    }

    /// Union of two conditions (conjunction).
    #[must_use]
    pub fn and(&self, other: &Condition) -> Condition {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        Condition { atoms }
    }

    /// Iterate the atoms.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> {
        self.atoms.iter()
    }

    /// Number of atoms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether this is the empty condition.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// `Att(Γ)` — the attributes referenced by the condition.
    #[must_use]
    pub fn referenced_attrs(&self) -> AttrSet {
        self.atoms.iter().map(|a| a.attr).collect()
    }

    /// `Att_def(Γ)` — the attributes *defined* (appearing in an equality).
    #[must_use]
    pub fn defined_attrs(&self) -> AttrSet {
        self.atoms.iter().filter(|a| a.defines()).map(|a| a.attr).collect()
    }

    /// Whether the condition is ground.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        self.atoms.iter().all(Atom::is_ground)
    }

    /// The variables occurring in the condition.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.atoms
            .iter()
            .filter_map(|a| match a.term {
                Term::Var(x) => Some(x),
                Term::Const(_) => None,
            })
            .collect()
    }

    /// The constants occurring in the condition (`C_Γ`).
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        self.atoms.iter().filter_map(|a| a.term.as_const().cloned()).collect()
    }

    /// Substitute variables by constants according to `assign`, producing a
    /// ground condition (`Γ[α]`). Unbound variables are an error of the
    /// caller; this function panics in debug builds and substitutes a fresh
    /// marker value in release builds to keep semantics total.
    #[must_use]
    pub fn substitute(&self, assign: &dyn Fn(VarId) -> Value) -> Condition {
        Condition {
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom {
                    attr: a.attr,
                    op: a.op,
                    term: match &a.term {
                        Term::Const(v) => Term::Const(v.clone()),
                        Term::Var(x) => Term::Const(assign(*x)),
                    },
                })
                .collect(),
        }
    }

    /// Whether a **ground** condition is satisfiable (`Sat(Γ) ≠ ∅`):
    /// for each attribute, all equality constants agree and the agreed
    /// constant is not excluded by an inequality. Attributes with no
    /// equality are always satisfiable because the domain is infinite.
    ///
    /// Non-satisfiable conditions are the paper's `E`; every operator maps
    /// a database to itself when its condition is `E`.
    ///
    /// One pass over the atoms, which are ordered by (attribute,
    /// operator, term) with `=` before `≠`: per attribute, every equality
    /// is read before any inequality, so the first equality fixes the
    /// value the others must agree with and the inequalities must avoid.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        debug_assert!(self.is_ground(), "satisfiability is defined on ground conditions");
        let mut agreed: Option<(AttrId, &Value)> = None;
        for a in &self.atoms {
            let Term::Const(v) = &a.term else { continue };
            let fixed = agreed.filter(|&(attr, _)| attr == a.attr).map(|(_, fixed)| fixed);
            match (a.op, fixed) {
                (CmpOp::Eq, None) => agreed = Some((a.attr, v)),
                // Conflicting equalities, or the agreed value excluded.
                (CmpOp::Eq, Some(fixed)) if fixed != v => return false,
                (CmpOp::Ne, Some(fixed)) if fixed == v => return false,
                _ => {}
            }
        }
        true
    }

    /// For a **ground satisfiable** condition: the value assigned to each
    /// defined attribute (used by `create`, `modify`, `specialize` to set
    /// attribute values).
    #[must_use]
    pub fn value_map(&self) -> BTreeMap<AttrId, Value> {
        let mut m = BTreeMap::new();
        for a in &self.atoms {
            if a.op == CmpOp::Eq {
                if let Term::Const(v) = &a.term {
                    m.entry(a.attr).or_insert_with(|| v.clone());
                }
            }
        }
        m
    }

    /// Whether a tuple satisfies this **ground** condition (`t ⊨ Γ`).
    /// Atoms over attributes absent from the tuple are not satisfied
    /// (cannot arise for validated operations, where `Att(Γ) ⊆ A*(P)`).
    #[must_use]
    pub fn satisfied_by(&self, t: &Tuple) -> bool {
        self.atoms.iter().all(|a| {
            let Term::Const(v) = &a.term else { return false };
            match (t.get(a.attr), a.op) {
                (Some(tv), CmpOp::Eq) => tv == v,
                (Some(tv), CmpOp::Ne) => tv != v,
                (None, _) => false,
            }
        })
    }
}

impl FromIterator<Atom> for Condition {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        Condition::from_atoms(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn empty_condition_satisfied_by_everything() {
        let c = Condition::empty();
        assert!(c.is_ground());
        assert!(c.is_satisfiable());
        assert!(c.satisfied_by(&Tuple::new()));
        let mut t = Tuple::new();
        t.set(a(0), Value::int(1));
        assert!(c.satisfied_by(&t));
    }

    #[test]
    fn referenced_and_defined_attrs() {
        let c = Condition::from_atoms([
            Atom::eq_const(a(0), 1),
            Atom::ne_const(a(1), 2),
            Atom::eq_var(a(2), VarId(0)),
        ]);
        assert_eq!(c.referenced_attrs().len(), 3);
        let def = c.defined_attrs();
        assert!(def.contains(a(0)) && def.contains(a(2)) && !def.contains(a(1)));
        assert!(!c.is_ground());
        assert_eq!(c.vars().len(), 1);
    }

    #[test]
    fn satisfiability() {
        // A=1 ∧ A=1 satisfiable; A=1 ∧ A=2 not; A=1 ∧ A≠1 not; A≠1 ∧ A≠2 satisfiable.
        assert!(Condition::from_atoms([Atom::eq_const(a(0), 1), Atom::eq_const(a(0), 1)])
            .is_satisfiable());
        assert!(!Condition::from_atoms([Atom::eq_const(a(0), 1), Atom::eq_const(a(0), 2)])
            .is_satisfiable());
        assert!(!Condition::from_atoms([Atom::eq_const(a(0), 1), Atom::ne_const(a(0), 1)])
            .is_satisfiable());
        assert!(Condition::from_atoms([Atom::ne_const(a(0), 1), Atom::ne_const(a(0), 2)])
            .is_satisfiable());
        // Mixed attributes independent.
        assert!(Condition::from_atoms([Atom::eq_const(a(0), 1), Atom::ne_const(a(1), 1)])
            .is_satisfiable());
    }

    /// The rule `is_satisfiable` implemented before it became one pass:
    /// collect each attribute's equality constants in a map, failing on
    /// a second, different one, then fail on any inequality excluding
    /// the agreed constant.
    fn map_rule(c: &Condition) -> bool {
        let mut eq: BTreeMap<AttrId, &Value> = BTreeMap::new();
        for at in c.atoms().filter(|at| at.op == CmpOp::Eq) {
            let v = at.term.as_const().unwrap();
            if eq.insert(at.attr, v).is_some_and(|prev| prev != v) {
                return false;
            }
        }
        c.atoms()
            .filter(|at| at.op == CmpOp::Ne)
            .all(|at| eq.get(&at.attr) != at.term.as_const().as_ref())
    }

    /// Every condition over two attributes and three constants — each
    /// subset of the twelve possible atoms, so repeated, conflicting and
    /// `≠`-excluded equalities all occur, alone and together.
    #[test]
    fn satisfiability_agrees_with_the_map_rule() {
        let values = [Value::int(1), Value::int(2), Value::str("a")];
        let atoms: Vec<Atom> = [a(0), a(1)]
            .into_iter()
            .flat_map(|attr| {
                values.iter().flat_map(move |v| {
                    [Atom::eq_const(attr, v.clone()), Atom::ne_const(attr, v.clone())]
                })
            })
            .collect();
        let mut satisfiable = 0;
        for subset in 0u32..1 << atoms.len() {
            let c: Condition = atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| subset >> i & 1 == 1)
                .map(|(_, at)| at.clone())
                .collect();
            assert_eq!(c.is_satisfiable(), map_rule(&c), "{c:?}");
            satisfiable += usize::from(c.is_satisfiable());
        }
        // Per attribute: no equality (2^3 inequality sets) or exactly one
        // (3 constants × 2^2 inequalities avoiding it), so 20 of the 64
        // atom sets of one attribute are satisfiable, and 20² of all.
        assert_eq!(satisfiable, 400);
    }

    #[test]
    fn substitution_grounds() {
        let c = Condition::from_atoms([Atom::eq_var(a(0), VarId(0)), Atom::ne_var(a(1), VarId(1))]);
        let g = c.substitute(&|x| Value::int(i64::from(x.0) + 10));
        assert!(g.is_ground());
        assert!(g.atoms().any(|at| at.term == Term::Const(Value::int(10))));
        assert!(g.atoms().any(|at| at.term == Term::Const(Value::int(11))));
    }

    #[test]
    fn tuple_satisfaction() {
        let mut t = Tuple::new();
        t.set(a(0), Value::str("x"));
        t.set(a(1), Value::int(5));
        assert!(Condition::from_atoms([Atom::eq_const(a(0), "x")]).satisfied_by(&t));
        assert!(!Condition::from_atoms([Atom::eq_const(a(0), "y")]).satisfied_by(&t));
        assert!(Condition::from_atoms([Atom::ne_const(a(1), 6)]).satisfied_by(&t));
        assert!(!Condition::from_atoms([Atom::ne_const(a(1), 5)]).satisfied_by(&t));
        // Missing attribute: never satisfied.
        assert!(!Condition::from_atoms([Atom::eq_const(a(9), 0)]).satisfied_by(&t));
        assert!(!Condition::from_atoms([Atom::ne_const(a(9), 0)]).satisfied_by(&t));
    }

    #[test]
    fn value_map_takes_first_equality() {
        let c = Condition::from_atoms([
            Atom::eq_const(a(0), 1),
            Atom::ne_const(a(0), 3),
            Atom::eq_const(a(1), "v"),
        ]);
        let m = c.value_map();
        assert_eq!(m.len(), 2);
        assert_eq!(m[&a(0)], Value::int(1));
        assert_eq!(m[&a(1)], Value::str("v"));
    }

    #[test]
    fn dedup_and_conjunction() {
        let c1 = Condition::from_atoms([Atom::eq_const(a(0), 1), Atom::eq_const(a(0), 1)]);
        assert_eq!(c1.len(), 1);
        let c2 = Condition::from_atoms([Atom::eq_const(a(1), 2)]);
        assert_eq!(c1.and(&c2).len(), 2);
    }

    #[test]
    fn constants_collected() {
        let c = Condition::from_atoms([
            Atom::eq_const(a(0), 1),
            Atom::ne_const(a(1), "z"),
            Atom::eq_var(a(2), VarId(1)),
        ]);
        let cs = c.constants();
        assert_eq!(cs.len(), 2);
        assert!(cs.contains(&Value::int(1)) && cs.contains(&Value::str("z")));
    }
}
