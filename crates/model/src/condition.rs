//! Selection conditions (Section 2 of the paper).
//!
//! An *atomic condition* has one of the forms `A = a`, `A ≠ a`, `A = x`,
//! `A ≠ x` for an attribute `A`, constant `a` and variable `x`. A
//! *condition* is a set of atomic conditions; it is *ground* when it
//! contains no variables. Objects are never addressed by identifier in
//! SL/CSL — conditions are the only selection mechanism.
//!
//! The semantics reads a condition `Γ` under an assignment `α` as the
//! ground condition `Γ[α]`. [`Condition::bind`] pairs the two as a
//! [`Bound`], which reads each variable through the assignment where a
//! term is evaluated, so `Γ[α]` is never built.

use crate::bitset::AttrSet;
use crate::ids::{AttrId, VarId};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;

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

    /// The constant the term denotes under `args`, which binds
    /// `VarId(i)` to `args[i]` (`t[α]`).
    ///
    /// # Panics
    /// Panics on a variable `args` leaves unbound: callers check a
    /// transaction's arity before they run it.
    #[must_use]
    pub fn resolve<'a>(&'a self, args: &'a [Value]) -> &'a Value {
        match self {
            Term::Const(v) => v,
            Term::Var(x) => &args[x.0 as usize],
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

    /// `Γ[α]`: this condition read under `args`, which binds `VarId(i)`
    /// to `args[i]`. Nothing is copied; a ground condition reads no
    /// argument (and converts with `From` instead).
    #[must_use]
    pub fn bind<'a>(&'a self, args: &'a [Value]) -> Bound<'a> {
        Bound { condition: self, args }
    }
}

/// A condition read under an assignment, `Γ[α]` (see
/// [`Condition::bind`]): every operation resolves each term through the
/// arguments ([`Term::resolve`]) at the point where it is evaluated.
/// `From<&Condition>` reads a ground condition under no arguments.
#[derive(Clone, Copy, Debug)]
pub struct Bound<'a> {
    condition: &'a Condition,
    args: &'a [Value],
}

impl<'a> From<&'a Condition> for Bound<'a> {
    fn from(condition: &'a Condition) -> Self {
        Bound { condition, args: &[] }
    }
}

impl<'a> Bound<'a> {
    /// The atoms as `(attribute, operator, value)`, each term resolved,
    /// in the condition's order: ascending by attribute, with every `=`
    /// of an attribute before its `≠`s.
    pub fn atoms(self) -> impl Iterator<Item = (AttrId, CmpOp, &'a Value)> {
        self.condition.atoms.iter().map(move |a| (a.attr, a.op, a.term.resolve(self.args)))
    }

    /// Whether `Γ[α]` is satisfiable (`Sat(Γ[α]) ≠ ∅`): for each
    /// attribute, all equality constants agree and the agreed constant
    /// is not excluded by an inequality. Attributes with no equality are
    /// always satisfiable because the domain is infinite.
    ///
    /// Non-satisfiable conditions are the paper's `E`; every operator maps
    /// a database to itself when its condition is `E`.
    ///
    /// One pass over the atoms: per attribute, every equality is read
    /// before any inequality, so the first equality fixes the value the
    /// others must agree with and the inequalities must avoid.
    #[must_use]
    pub fn is_satisfiable(self) -> bool {
        let mut agreed: Option<(AttrId, &Value)> = None;
        for (attr, op, v) in self.atoms() {
            let fixed = agreed.filter(|&(a, _)| a == attr).map(|(_, fixed)| fixed);
            match (op, fixed) {
                (CmpOp::Eq, None) => agreed = Some((attr, v)),
                // Conflicting equalities, or the agreed value excluded.
                (CmpOp::Eq, Some(fixed)) if fixed != v => return false,
                (CmpOp::Ne, Some(fixed)) if fixed == v => return false,
                _ => {}
            }
        }
        true
    }

    /// For a **satisfiable** `Γ[α]`: the value each defined attribute
    /// gets, ascending by attribute — the pairs `modify` and
    /// `specialize` write, read in place.
    pub fn values(self) -> impl Iterator<Item = (AttrId, &'a Value)> {
        // All equalities of a satisfiable attribute agree: take the first.
        let mut last = None;
        self.atoms().filter_map(move |(attr, op, v)| {
            (op == CmpOp::Eq && last.replace(attr) != Some(attr)).then_some((attr, v))
        })
    }

    /// [`Bound::values`] as the tuple `create` writes. One equality
    /// makes a tuple held inline, with no allocation.
    #[must_use]
    pub fn value_map(self) -> Tuple {
        Tuple::from_sorted(self.values().map(|(a, v)| (a, v.clone())))
    }

    /// Whether a tuple satisfies `Γ[α]` (`t ⊨ Γ[α]`). Atoms over
    /// attributes absent from the tuple are not satisfied (cannot arise
    /// for validated operations, where `Att(Γ) ⊆ A*(P)`).
    #[must_use]
    pub fn satisfied_by(self, t: &Tuple) -> bool {
        self.atoms().all(|(attr, op, v)| match (t.get(attr), op) {
            (Some(tv), CmpOp::Eq) => tv == v,
            (Some(tv), CmpOp::Ne) => tv != v,
            (None, _) => false,
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
    use std::collections::BTreeMap;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    /// A ground condition, read under no arguments.
    fn ground(c: &Condition) -> Bound<'_> {
        Bound::from(c)
    }

    fn sat(atoms: impl IntoIterator<Item = Atom>) -> bool {
        ground(&Condition::from_atoms(atoms)).is_satisfiable()
    }

    fn holds(atoms: impl IntoIterator<Item = Atom>, t: &Tuple) -> bool {
        ground(&Condition::from_atoms(atoms)).satisfied_by(t)
    }

    #[test]
    fn empty_condition_satisfied_by_everything() {
        let c = Condition::empty();
        assert!(c.is_ground());
        assert!(ground(&c).is_satisfiable());
        assert!(ground(&c).satisfied_by(&Tuple::new()));
        let mut t = Tuple::new();
        t.set(a(0), Value::int(1));
        assert!(ground(&c).satisfied_by(&t));
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
        assert!(sat([Atom::eq_const(a(0), 1), Atom::eq_const(a(0), 1)]));
        assert!(!sat([Atom::eq_const(a(0), 1), Atom::eq_const(a(0), 2)]));
        assert!(!sat([Atom::eq_const(a(0), 1), Atom::ne_const(a(0), 1)]));
        assert!(sat([Atom::ne_const(a(0), 1), Atom::ne_const(a(0), 2)]));
        // Mixed attributes independent.
        assert!(sat([Atom::eq_const(a(0), 1), Atom::ne_const(a(1), 1)]));
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
            let ok = ground(&c).is_satisfiable();
            assert_eq!(ok, map_rule(&c), "{c:?}");
            satisfiable += usize::from(ok);
        }
        // Per attribute: no equality (2^3 inequality sets) or exactly one
        // (3 constants × 2^2 inequalities avoiding it), so 20 of the 64
        // atom sets of one attribute are satisfiable, and 20² of all.
        assert_eq!(satisfiable, 400);
    }

    /// `Γ[α]` read in place agrees with the ground condition the
    /// substitution builds, on satisfiability, values and tuples —
    /// including an equality whose variable meets a constant of its own
    /// attribute, which reorders the atoms once substituted.
    #[test]
    fn substitution_grounds() {
        let c = Condition::from_atoms([
            Atom::eq_var(a(0), VarId(0)),
            Atom::eq_const(a(0), 5),
            Atom::ne_var(a(1), VarId(1)),
            Atom::eq_var(a(2), VarId(1)),
        ]);
        for (x, y) in [(3, 7), (5, 7), (5, 5), (9, 9)] {
            let args = [Value::int(x), Value::int(y)];
            let grounded = Condition::from_atoms(c.atoms().map(|at| Atom {
                term: Term::Const(at.term.resolve(&args).clone()),
                ..at.clone()
            }));
            assert!(grounded.is_ground());
            let (bound, g) = (c.bind(&args), ground(&grounded));
            assert_eq!(bound.is_satisfiable(), g.is_satisfiable(), "x={x} y={y}");
            assert_eq!(bound.is_satisfiable(), x == 5, "x={x} y={y}");
            if bound.is_satisfiable() {
                assert_eq!(bound.value_map(), g.value_map());
                let t = bound.value_map();
                assert_eq!(bound.satisfied_by(&t), g.satisfied_by(&t));
            }
        }
    }

    #[test]
    fn tuple_satisfaction() {
        let mut t = Tuple::new();
        t.set(a(0), Value::str("x"));
        t.set(a(1), Value::int(5));
        assert!(holds([Atom::eq_const(a(0), "x")], &t));
        assert!(!holds([Atom::eq_const(a(0), "y")], &t));
        assert!(holds([Atom::ne_const(a(1), 6)], &t));
        assert!(!holds([Atom::ne_const(a(1), 5)], &t));
        // Missing attribute: never satisfied.
        assert!(!holds([Atom::eq_const(a(9), 0)], &t));
        assert!(!holds([Atom::ne_const(a(9), 0)], &t));
    }

    #[test]
    fn value_map_takes_first_equality() {
        let c = Condition::from_atoms([
            Atom::eq_const(a(0), 1),
            Atom::ne_const(a(0), 3),
            Atom::eq_const(a(1), "v"),
        ]);
        let m = ground(&c).value_map();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a(0)), Some(&Value::int(1)));
        assert_eq!(m.get(a(1)), Some(&Value::str("v")));
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
