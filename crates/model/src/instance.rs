//! Database instances (Definition 2.2 of the paper), stored behind an
//! **indexed heap**.
//!
//! An instance of a schema `D` is a triple `d = (o, a, oᵢ)`:
//!
//! * `o` maps each class to a finite set of abstract objects, such that
//!   `o(P) ⊆ o(Q)` whenever `P isa Q` (membership is up-closed) and
//!   `o(P) ∩ o(Q) = ∅` for non-weakly-connected `P, Q` (an object lives in
//!   a single component);
//! * `a` assigns a constant to every `(object, attribute)` pair with the
//!   attribute defined on a class the object belongs to;
//! * `oᵢ` is the *next* abstract object — strictly larger than every
//!   object occurring in `d`, used when new objects are created. Because
//!   objects are only ever minted from this counter, each abstract object
//!   is created into the database **at most once**, as the model requires.
//!
//! # Storage layout
//!
//! Objects are minted only from the counter `oᵢ`, which starts at `o₁`,
//! so the oids an instance has ever held are dense. The *heap* is
//! therefore a slab with one slot per minted oid: slot `oid − 1` holds
//! the object's class set (its role set `Rs(o, d)`) and its attribute
//! tuple, 48 bytes in all. A [`Tuple`] of one attribute — every object
//! of a schema whose classes carry one key — holds its pair inside
//! those bytes, so such an object costs its slot and no allocation;
//! a tuple of two or more attributes adds one exactly-sized vector.
//! An empty class set marks a *vacant* slot — an object deleted,
//! or never minted into this instance — and the last slot always holds
//! an occurring object. Looking an object up is one array index, and
//! slot order is the `<ₒ` order the canonical-database machinery of
//! Theorem 3.2 relies on. A vacant slot still costs its 48 bytes; the
//! tracking layer keeps a record for every object ever created anyway,
//! so memory stays O(objects ever created).
//!
//! Two secondary indexes are derived from the heap and maintained
//! **incrementally by every mutation path** ([`Instance::create`],
//! [`Instance::delete_object`], [`Instance::add_classes`],
//! [`Instance::remove_classes`], [`Instance::set_values`],
//! [`Instance::put_object`]; the bulk paths [`Instance::bulk_create`],
//! [`Instance::restrict`], [`Instance::from_objects`] and
//! [`Instance::decode_snapshot`] build them wholesale):
//!
//! * the **class index** — `o(P)` materialized per class as an ordered
//!   set, behind [`Instance::objects_in`], which answers in `<ₒ` order;
//! * the **value index** — per attribute, a hash map from each stored
//!   value to the objects holding it, which turns the equality atoms of a
//!   selection condition into point lookups that borrow the probe value.
//!   The maps keep std's keyed hasher, because values come from clients,
//!   and no output depends on their iteration order. A value one object
//!   holds — every key — keeps that oid inline in its 40-byte map entry
//!   (the 24-byte [`Value`], short strings included, and a 16-byte
//!   holder); a boxed ordered set exists only while two or more objects
//!   share the value. So a key costs no allocation of its own, and a
//!   point lookup is one hash probe and then the heap slot.
//!
//! [`Instance::sat`] plans from the condition: it drives from the most
//! selective indexed equality atom (falling back to the class index) and
//! verifies the remaining atoms per candidate, so `Sat(Γ, d, P)` costs
//! expected O(candidates) instead of a full heap scan. The pre-index
//! full scan survives as [`Instance::sat_scan`] — the semantic oracle for
//! property tests and the benchmark baseline. Index/heap consistency is
//! part of [`Instance::check_invariants`].

use crate::bitset::ClassSet;
use crate::condition::{CmpOp, Condition, Term};
use crate::error::ModelError;
use crate::ids::{AttrId, ClassId, DenseId, Oid};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// One heap slot: an object's class set and attribute tuple, both empty
/// when the slot is vacant.
type Slot = (ClassSet, Tuple);

/// The slot of object `o`.
///
/// # Panics
/// Panics on `o₀`, which is never minted and has no slot.
fn slot_index(o: Oid) -> usize {
    let i = o.0.checked_sub(1).expect("o0 is never minted and has no heap slot");
    usize::try_from(i).expect("oid fits the address space")
}

/// The object whose slot is `i`.
fn oid_at(i: usize) -> Oid {
    Oid(i as u64 + 1)
}

/// A database instance `d = (o, a, oᵢ)`.
///
/// Equality, ordering and hashing are defined on the heap triple alone —
/// lexicographic over the occurring `(oid, classes)` pairs, then the
/// `(oid, tuple)` pairs, then `oᵢ`. Vacant slots, capacity and the
/// indexes are never observable through comparisons.
#[derive(Clone)]
pub struct Instance {
    /// Slot `oid − 1` holds object `oid`; the last slot occurs, so the
    /// length is the largest occurring oid.
    heap: Vec<Slot>,
    /// Number of occurring objects (slots with a non-empty class set).
    live: usize,
    /// Numeric part of the next abstract object `oᵢ`.
    next: u64,
    index: Indexes,
}

/// The class and value indexes, apart from the heap so a mutation can
/// read a slot while it updates them.
#[derive(Clone, Default)]
struct Indexes {
    /// `o(P)` per dense class index (slots grow on demand).
    classes: Vec<BTreeSet<Oid>>,
    /// Per dense attribute index, the objects holding each value.
    /// Entries are removed when their last holder goes, so `len` of an
    /// entry is an exact selectivity count.
    values: Vec<HashMap<Value, Holders>>,
}

/// The objects holding one value of one attribute. A value one object
/// holds — every key — keeps that oid inline; a set is boxed only while
/// two or more objects share the value, and goes back inline at one.
/// Iteration ascends (`<ₒ` order) either way.
#[derive(Clone)]
enum Holders {
    One(Oid),
    /// At least two oids, boxed so that a holder stays 16 bytes.
    #[allow(
        clippy::box_collection,
        reason = "the set's own 24 bytes would grow the map entry of every unshared value"
    )]
    Many(Box<BTreeSet<Oid>>),
}

impl Holders {
    fn len(&self) -> usize {
        match self {
            Holders::One(_) => 1,
            Holders::Many(set) => set.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        let (one, many) = match self {
            Holders::One(o) => (Some(*o), None),
            Holders::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn insert(&mut self, o: Oid) {
        match self {
            Holders::One(held) if *held == o => {}
            Holders::One(held) => *self = Holders::Many(Box::new(BTreeSet::from([*held, o]))),
            Holders::Many(set) => {
                set.insert(o);
            }
        }
    }

    /// Remove `o`; returns whether no holder is left.
    fn remove(&mut self, o: Oid) -> bool {
        match self {
            Holders::One(held) => *held == o,
            Holders::Many(set) => {
                set.remove(&o);
                if set.len() == 1 {
                    let lone = *set.first().expect("one holder left");
                    *self = Holders::One(lone);
                }
                false
            }
        }
    }
}

impl Indexes {
    fn holders(&self, a: AttrId, v: &Value) -> Option<&Holders> {
        self.values.get(a.index())?.get(v)
    }

    fn values_of(&mut self, a: AttrId) -> &mut HashMap<Value, Holders> {
        if self.values.len() <= a.index() {
            self.values.resize_with(a.index() + 1, HashMap::new);
        }
        &mut self.values[a.index()]
    }

    fn add_classes(&mut self, o: Oid, cs: ClassSet) {
        for c in cs.iter() {
            if self.classes.len() <= c.index() {
                self.classes.resize_with(c.index() + 1, BTreeSet::new);
            }
            self.classes[c.index()].insert(o);
        }
    }

    fn remove_classes(&mut self, o: Oid, cs: ClassSet) {
        for c in cs.iter() {
            if let Some(set) = self.classes.get_mut(c.index()) {
                set.remove(&o);
            }
        }
    }

    fn add_value(&mut self, o: Oid, a: AttrId, v: Value) {
        match self.values_of(a).entry(v) {
            Entry::Vacant(e) => {
                e.insert(Holders::One(o));
            }
            Entry::Occupied(mut e) => e.get_mut().insert(o),
        }
    }

    fn remove_value(&mut self, o: Oid, a: AttrId, v: &Value) {
        let Some(map) = self.values.get_mut(a.index()) else { return };
        if map.get_mut(v).is_some_and(|holders| holders.remove(o)) {
            map.remove(v);
        }
    }

    fn add_object(&mut self, o: Oid, cs: ClassSet, t: &Tuple) {
        self.add_classes(o, cs);
        for (a, v) in t.iter() {
            self.add_value(o, a, v.clone());
        }
    }

    fn remove_object(&mut self, o: Oid, cs: ClassSet, t: &Tuple) {
        self.remove_classes(o, cs);
        for (a, v) in t.iter() {
            self.remove_value(o, a, v);
        }
    }

    /// Index occurring `rows` in bulk. Their oids ascend, past every oid
    /// indexed so far, so each class gets one sorted run appended. Each
    /// attribute's map is reserved up front for the rows carrying it, so
    /// a million-entry map does not rehash as it grows; that count only
    /// bounds the new distinct values, so a map left under half full
    /// gives the slack back.
    fn add_rows<'r>(&mut self, rows: impl Iterator<Item = (Oid, &'r Slot)> + Clone) {
        let mut per_class: Vec<Vec<Oid>> = Vec::new();
        let mut per_attr: Vec<usize> = Vec::new();
        for (o, (cs, t)) in rows.clone() {
            for c in cs.iter() {
                if per_class.len() <= c.index() {
                    per_class.resize_with(c.index() + 1, Vec::new);
                }
                per_class[c.index()].push(o);
            }
            for (a, _) in t.iter() {
                if per_attr.len() <= a.index() {
                    per_attr.resize(a.index() + 1, 0);
                }
                per_attr[a.index()] += 1;
            }
        }
        if self.classes.len() < per_class.len() {
            self.classes.resize_with(per_class.len(), BTreeSet::new);
        }
        for (set, oids) in self.classes.iter_mut().zip(per_class) {
            set.append(&mut BTreeSet::from_iter(oids));
        }
        let reserved: Vec<AttrId> =
            (0..per_attr.len()).filter(|&a| per_attr[a] > 0).map(AttrId::from_index).collect();
        for &a in &reserved {
            self.values_of(a).reserve(per_attr[a.index()]);
        }
        for (o, (_, t)) in rows {
            for (a, v) in t.iter() {
                self.add_value(o, a, v.clone());
            }
        }
        for a in reserved {
            let map = &mut self.values[a.index()];
            if map.capacity() > 2 * map.len() {
                map.shrink_to_fit();
            }
        }
    }
}

/// Formats `(key, value)` pairs as a map, as `BTreeMap`'s `Debug` does.
struct MapView<I>(I);

impl<K, V, I> std::fmt::Debug for MapView<I>
where
    K: std::fmt::Debug,
    V: std::fmt::Debug,
    I: Iterator<Item = (K, V)> + Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.0.clone()).finish()
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.next == other.next && self.live == other.live && self.entries().eq(other.entries())
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let classes = |(o, cs, _): (Oid, &ClassSet, &Tuple)| (o, *cs);
        self.entries()
            .map(classes)
            .cmp(other.entries().map(classes))
            .then_with(|| {
                let tuples = self.entries().map(|(o, _, t)| (o, t));
                tuples.cmp(other.entries().map(|(o, _, t)| (o, t)))
            })
            .then(self.next.cmp(&other.next))
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.live.hash(state);
        for entry in self.entries() {
            entry.hash(state);
        }
        self.next.hash(state);
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("membership", &MapView(self.entries().map(|(o, cs, _)| (o, cs))))
            .field("attrs", &MapView(self.entries().map(|(o, _, t)| (o, t))))
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl Default for Instance {
    fn default() -> Self {
        Self::empty()
    }
}

impl Instance {
    /// The empty database `d₀ = (∅, ∅, o₁)` — the starting point of every
    /// migration pattern (Section 3).
    #[must_use]
    pub fn empty() -> Self {
        Instance { heap: Vec::new(), live: 0, next: 1, index: Indexes::default() }
    }

    /// The next abstract object `oᵢ`.
    #[must_use]
    pub fn next_oid(&self) -> Oid {
        Oid(self.next)
    }

    /// The slot of `o`, if `o` occurs.
    fn live_index(&self, o: Oid) -> Option<usize> {
        let i = usize::try_from(o.0.checked_sub(1)?).ok()?;
        self.heap.get(i).is_some_and(|(cs, _)| !cs.is_empty()).then_some(i)
    }

    fn slot(&self, o: Oid) -> Option<&Slot> {
        self.live_index(o).map(|i| &self.heap[i])
    }

    /// The occurring objects with their class sets and tuples, in `<ₒ`
    /// order.
    fn entries(&self) -> impl Iterator<Item = (Oid, &ClassSet, &Tuple)> + Clone + '_ {
        self.heap
            .iter()
            .enumerate()
            .filter(|(_, (cs, _))| !cs.is_empty())
            .map(|(i, (cs, t))| (oid_at(i), cs, t))
    }

    /// Whether object `o` occurs in the database (belongs to some class).
    #[must_use]
    pub fn occurs(&self, o: Oid) -> bool {
        self.live_index(o).is_some()
    }

    /// Number of occurring objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.live
    }

    /// Whether no object occurs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `Rs(o, d)` — the role set of `o` as a raw class set (∅ if `o` does
    /// not occur).
    #[must_use]
    pub fn role_set(&self, o: Oid) -> ClassSet {
        self.slot(o).map_or_else(ClassSet::empty, |(cs, _)| *cs)
    }

    /// The attribute tuple `ō` yielded by `o` (empty if absent).
    #[must_use]
    pub fn tuple_of(&self, o: Oid) -> Tuple {
        self.tuple_ref(o).cloned().unwrap_or_default()
    }

    /// Borrow the attribute tuple of `o`, if it occurs.
    #[must_use]
    pub fn tuple_ref(&self, o: Oid) -> Option<&Tuple> {
        self.slot(o).map(|(_, t)| t)
    }

    /// The value `a(o, A)`.
    #[must_use]
    pub fn value(&self, o: Oid, a: AttrId) -> Option<&Value> {
        self.tuple_ref(o).and_then(|t| t.get(a))
    }

    /// Iterate all occurring objects in `<ₒ` order.
    pub fn objects(&self) -> impl Iterator<Item = Oid> + '_ {
        self.entries().map(|(o, _, _)| o)
    }

    /// Iterate objects of class `P` (the set `o(P)`) in `<ₒ` order —
    /// served from the class index, O(|o(P)|) instead of O(|d|).
    pub fn objects_in(&self, p: ClassId) -> impl Iterator<Item = Oid> + '_ {
        self.index.classes.get(p.index()).into_iter().flatten().copied()
    }

    /// Number of objects of class `P` (index lookup, O(1)).
    #[must_use]
    pub fn num_objects_in(&self, p: ClassId) -> usize {
        self.index.classes.get(p.index()).map_or(0, BTreeSet::len)
    }

    /// Number of objects holding the value `v` for attribute `a` (index
    /// lookup — the planner's selectivity estimate, which is exact).
    #[must_use]
    pub fn num_objects_with(&self, a: AttrId, v: &Value) -> usize {
        self.index.holders(a, v).map_or(0, Holders::len)
    }

    /// `Sat(Γ, d, P)` — the objects of `o(P)` whose tuples satisfy the
    /// **ground** condition `Γ` (Section 2), in `<ₒ` order.
    ///
    /// Planned from the condition: the driver is the most selective of
    /// the indexed equality atoms and the class index; the remaining
    /// atoms (and class membership, when driving from a value entry) are
    /// verified per candidate. The heap is never scanned. Semantically
    /// identical to [`Instance::sat_scan`].
    #[must_use]
    pub fn sat(&self, p: ClassId, gamma: &Condition) -> Vec<Oid> {
        match self.plan(p, gamma) {
            SatPlan::Empty => Vec::new(),
            SatPlan::ValueEntry(holders) => holders
                .iter()
                .filter(|&o| self.role_set(o).contains(p) && self.member_satisfies(o, gamma))
                .collect(),
            SatPlan::ClassEntry(set) => {
                set.iter().copied().filter(|&o| self.member_satisfies(o, gamma)).collect()
            }
        }
    }

    /// Whether `Sat(Γ, d, P)` is non-empty — same planner as
    /// [`Instance::sat`] with early exit, for guard-literal evaluation.
    #[must_use]
    pub fn sat_exists(&self, p: ClassId, gamma: &Condition) -> bool {
        match self.plan(p, gamma) {
            SatPlan::Empty => false,
            SatPlan::ValueEntry(holders) => holders
                .iter()
                .any(|o| self.role_set(o).contains(p) && self.member_satisfies(o, gamma)),
            SatPlan::ClassEntry(set) => set.iter().any(|&o| self.member_satisfies(o, gamma)),
        }
    }

    /// `Sat(Γ, d, P)` by full heap scan — the pre-index implementation,
    /// kept as the semantic oracle for the index-backed [`Instance::sat`]
    /// (property tests) and as the benchmark baseline.
    #[must_use]
    pub fn sat_scan(&self, p: ClassId, gamma: &Condition) -> Vec<Oid> {
        self.entries()
            .filter(|(_, cs, t)| cs.contains(p) && gamma.satisfied_by(t))
            .map(|(o, _, _)| o)
            .collect()
    }

    /// Choose the cheapest driver for `Sat(Γ, d, P)`.
    fn plan<'s>(&'s self, p: ClassId, gamma: &Condition) -> SatPlan<'s> {
        let class_entry = self.index.classes.get(p.index());
        let mut best: Option<&'s Holders> = None;
        for atom in gamma.atoms() {
            if atom.op != CmpOp::Eq {
                continue;
            }
            let Term::Const(v) = &atom.term else { continue };
            match self.index.holders(atom.attr, v) {
                // An equality atom nobody satisfies: Sat is empty, full stop.
                None => return SatPlan::Empty,
                Some(holders) => {
                    if best.is_none_or(|b| holders.len() < b.len()) {
                        best = Some(holders);
                    }
                }
            }
        }
        match (best, class_entry) {
            (None, None) => SatPlan::Empty,
            (None, Some(c)) => SatPlan::ClassEntry(c),
            (Some(v), None) => {
                // Value hits exist but the class has no members: empty —
                // but the per-candidate class check handles it uniformly.
                SatPlan::ValueEntry(v)
            }
            (Some(v), Some(c)) => {
                if c.len() <= v.len() {
                    SatPlan::ClassEntry(c)
                } else {
                    SatPlan::ValueEntry(v)
                }
            }
        }
    }

    /// Whether occurring object `o`'s tuple satisfies ground `gamma`.
    fn member_satisfies(&self, o: Oid, gamma: &Condition) -> bool {
        gamma.satisfied_by(self.tuple_ref(o).unwrap_or(&Tuple::default()))
    }

    /// All constants currently stored in the database.
    #[must_use]
    pub fn active_domain(&self) -> std::collections::BTreeSet<Value> {
        self.entries().flat_map(|(_, _, t)| t.iter().map(|(_, v)| v.clone())).collect()
    }

    // ------------------------------------------------------------------
    // Mutation primitives. These are the *mechanical* operations the
    // language layer's operational semantics (Definition 2.5) is built
    // from; they do not themselves validate conditions. Every one keeps
    // the class and value indexes exactly synchronized with the heap.
    // ------------------------------------------------------------------

    /// Store an already-indexed state in `o`'s slot, growing the slab
    /// with vacant slots as needed.
    fn place(&mut self, o: Oid, classes: ClassSet, tuple: Tuple) {
        let i = slot_index(o);
        if self.heap.len() <= i {
            self.heap.resize_with(i + 1, Default::default);
        }
        let slot = &mut self.heap[i];
        if slot.0.is_empty() {
            self.live += 1;
        }
        *slot = (classes, tuple);
    }

    /// Vacate occurring slot `i`: de-index its state, then drop the
    /// trailing vacant slots so the last slot occurs again.
    fn vacate(&mut self, i: usize) {
        let (cs, t) = std::mem::take(&mut self.heap[i]);
        self.index.remove_object(oid_at(i), cs, &t);
        self.live -= 1;
        while self.heap.last().is_some_and(|(cs, _)| cs.is_empty()) {
            self.heap.pop();
        }
    }

    /// Create a new object with the given class memberships and attribute
    /// values (a [`Tuple`], or a map of them), consuming the next
    /// abstract object. Returns its identifier.
    pub fn create(&mut self, classes: ClassSet, values: impl Into<Tuple>) -> Oid {
        debug_assert!(!classes.is_empty(), "created objects must belong to a class");
        let oid = Oid(self.next);
        self.next += 1;
        let tuple = values.into();
        self.index.add_object(oid, classes, &tuple);
        self.place(oid, classes, tuple);
        oid
    }

    /// Create a batch of objects at once, minting consecutive ascending
    /// identifiers from the next-object counter. Returns the first minted
    /// identifier (row `i` became `Oid(first.0 + i)`).
    ///
    /// Semantically identical to calling [`Instance::create`] once per
    /// row, but the rows are appended to the slab in one piece and
    /// indexed in bulk: each class gets one sorted run, and each
    /// attribute's map is reserved for the batch before it is filled —
    /// which is what makes million-object bulk loads cheap.
    pub fn bulk_create(&mut self, rows: &[(ClassSet, Tuple)]) -> Oid {
        let first = Oid(self.next);
        if rows.is_empty() {
            return first;
        }
        debug_assert!(rows.iter().all(|(cs, _)| !cs.is_empty()), "objects need a class");
        self.next += rows.len() as u64;
        let start = slot_index(first);
        assert!(self.heap.len() <= start, "a live object sits at or above the counter");
        self.index.add_rows((start..).map(oid_at).zip(rows));
        self.heap.reserve(start + rows.len() - self.heap.len());
        self.heap.resize_with(start, Default::default);
        self.heap.extend_from_slice(rows);
        self.live += rows.len();
        debug_assert!(self.check_index_invariants().is_ok(), "bulk_create desynced the indexes");
        first
    }

    /// Remove an object entirely (class memberships and attribute values).
    pub fn delete_object(&mut self, o: Oid) {
        if let Some(i) = self.live_index(o) {
            self.vacate(i);
        }
    }

    /// Remove the classes of `remove` from `o`'s membership and clear the
    /// attribute values of `clear_attrs`. If the membership becomes empty
    /// the object is removed entirely (cannot happen through `generalize`,
    /// which never removes root classes, but kept total for safety).
    pub fn remove_classes(
        &mut self,
        o: Oid,
        remove: ClassSet,
        clear_attrs: impl IntoIterator<Item = AttrId>,
    ) {
        let Some(i) = self.live_index(o) else { return };
        let (cs, t) = &mut self.heap[i];
        let rest = cs.difference(remove);
        if rest.is_empty() {
            self.vacate(i);
            return;
        }
        self.index.remove_classes(o, cs.intersection(remove));
        *cs = rest;
        for a in clear_attrs {
            if let Some(v) = t.unset(a) {
                self.index.remove_value(o, a, &v);
            }
        }
    }

    /// Add the classes of `add` to `o`'s membership and set the given
    /// attribute values.
    pub fn add_classes(
        &mut self,
        o: Oid,
        add: ClassSet,
        values: impl IntoIterator<Item = (AttrId, Value)>,
    ) {
        let Some(i) = self.live_index(o) else { return };
        let cs = &mut self.heap[i].0;
        self.index.add_classes(o, add.difference(*cs));
        *cs = cs.union(add);
        for (a, v) in values {
            self.set_value_at(i, a, v);
        }
    }

    /// Overwrite attribute values of `o`.
    pub fn set_values(&mut self, o: Oid, values: impl IntoIterator<Item = (AttrId, Value)>) {
        if let Some(i) = self.live_index(o) {
            for (a, v) in values {
                self.set_value_at(i, a, v);
            }
        }
    }

    /// Set one attribute value of occurring slot `i` on the heap and both
    /// sides of the value index. Writing back the stored value is a no-op.
    fn set_value_at(&mut self, i: usize, a: AttrId, v: Value) {
        let o = oid_at(i);
        let t = &mut self.heap[i].1;
        match t.get(a) {
            Some(old) if *old == v => return,
            Some(old) => self.index.remove_value(o, a, old),
            None => {}
        }
        t.set(a, v.clone());
        self.index.add_value(o, a, v);
    }

    /// Restore an object's raw state — membership and attribute tuple —
    /// exactly as previously captured (the rollback primitive behind
    /// `migratory_lang`'s transaction deltas). Any current state of `o`
    /// is de-indexed first, so restoring over a live object keeps the
    /// indexes exact. Does not validate against a schema; callers restore
    /// states that were valid when captured.
    ///
    /// # Panics
    /// Panics on `o₀`, which is never minted.
    pub fn put_object(&mut self, o: Oid, classes: ClassSet, tuple: Tuple) {
        debug_assert!(!classes.is_empty(), "restored objects must belong to a class");
        if let Some(i) = self.live_index(o) {
            let (cs, t) = &self.heap[i];
            self.index.remove_object(o, *cs, t);
        }
        self.index.add_object(o, classes, &tuple);
        self.place(o, classes, tuple);
        // Schema-free half of `check_invariants` — the schema is not in
        // scope here, but index/heap agreement is auditable and this is
        // the rollback/restore primitive where drift would be fatal.
        debug_assert!(self.check_index_invariants().is_ok(), "put_object desynced the indexes");
    }

    /// Build an instance from a slab whose last slot occurs and whose
    /// vacant slots are empty, deriving both indexes in bulk.
    fn from_slab(heap: Vec<Slot>, next: u64) -> Instance {
        let occurring = || heap.iter().enumerate().filter(|(_, (cs, _))| !cs.is_empty());
        let mut index = Indexes::default();
        index.add_rows(occurring().map(|(i, s)| (oid_at(i), s)));
        let live = occurring().count();
        let db = Instance { heap, live, next, index };
        debug_assert!(db.check_index_invariants().is_ok(), "bulk-built indexes are stale");
        db
    }

    /// The restriction `d|_I` of the database onto a set of objects
    /// (Section 3, before Lemma 3.5): keep only the membership and values
    /// of objects in `I`; the `next` counter is preserved and the indexes
    /// are rebuilt for the surviving objects.
    #[must_use]
    pub fn restrict(&self, objects: &[Oid]) -> Instance {
        let kept = objects.iter().filter_map(|&o| self.slot(o).map(|(cs, t)| (o, *cs, t.clone())));
        let mut db = Instance::from_objects(kept);
        db.next = self.next;
        db
    }

    /// Construct an instance directly (used by canonical-database builders
    /// in the analyzer); the indexes are derived from the given objects,
    /// which may come in any order (a later duplicate wins; an entry with
    /// no classes is ignored). `next` is set just above the largest object.
    ///
    /// # Panics
    /// Panics if an object is `o₀`, which is never minted.
    #[must_use]
    pub fn from_objects(objects: impl IntoIterator<Item = (Oid, ClassSet, Tuple)>) -> Instance {
        let mut heap: Vec<Slot> = Vec::new();
        let mut max = 0u64;
        for (o, cs, t) in objects {
            max = max.max(o.0);
            if cs.is_empty() {
                continue;
            }
            let i = slot_index(o);
            if heap.len() <= i {
                heap.resize_with(i + 1, Default::default);
            }
            heap[i] = (cs, t);
        }
        Instance::from_slab(heap, max + 1)
    }

    /// Force the next-object counter (canonical databases only).
    ///
    /// # Panics
    /// Panics if some occurring object is not `<ₒ`-smaller than `next`:
    /// winding the counter back over live objects would let `create` mint
    /// an identifier a second time, silently corrupting the heap and its
    /// indexes (abstract objects are created **at most once**, Section 2).
    pub fn set_next(&mut self, next: u64) {
        // The last slot holds the largest occurring object, so the guard
        // is O(1) — it sits on the undo/redo hot paths.
        assert!(
            self.heap.is_empty() || (self.heap.len() as u64) < next,
            "set_next({next}) would recycle a live object identifier"
        );
        self.next = next;
    }

    // ------------------------------------------------------------------
    // Snapshot encoding (the persistence layer's checkpoint format).
    // ------------------------------------------------------------------

    /// Append a canonical binary snapshot of the heap triple `(o, a, oᵢ)`
    /// to `out`. Only the occurring objects are written — the class and
    /// value indexes are derived data and are rebuilt by
    /// [`Instance::decode_snapshot`] — so equal instances (which compare
    /// on the heap alone) produce identical bytes.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        crate::codec::encode_u64(out, self.next);
        crate::codec::encode_u64(out, self.live as u64);
        for (o, cs, t) in self.entries() {
            crate::codec::encode_u64(out, o.0);
            crate::codec::encode_idset(out, *cs);
            crate::codec::encode_tuple(out, t);
        }
    }

    /// Rebuild an instance from [`Instance::encode_snapshot`] bytes,
    /// deriving both secondary indexes from the decoded heap. The decoded
    /// instance compares equal to the encoded one and passes
    /// [`Instance::check_invariants`] whenever the original did.
    pub fn decode_snapshot(r: &mut crate::codec::Reader<'_>) -> Result<Instance, ModelError> {
        let next = r.u64()?;
        if next == 0 {
            return Err(ModelError::Corrupt("snapshot counter is o0; objects start at o1".into()));
        }
        let n = r.count()?;
        let mut heap: Vec<Slot> = Vec::with_capacity(n);
        for _ in 0..n {
            let o = Oid(r.u64()?);
            if o.0 == 0 {
                return Err(ModelError::Corrupt("snapshot names o0, which is never minted".into()));
            }
            // Canonical encodings are strictly ascending; requiring it
            // rules out duplicates and lets the slab fill in order.
            if o.0 <= heap.len() as u64 {
                return Err(ModelError::Corrupt(format!("snapshot objects out of order at {o}")));
            }
            let cs: ClassSet = r.idset()?;
            if cs.is_empty() {
                return Err(ModelError::Corrupt(format!("snapshot object {o} has no classes")));
            }
            if o.0 >= next {
                return Err(ModelError::Corrupt(format!(
                    "snapshot object {o} is not below the next counter o{next}"
                )));
            }
            let t = r.tuple()?;
            let i = slot_index(o);
            heap.try_reserve(i + 1 - heap.len()).map_err(|_| {
                ModelError::Corrupt(format!("snapshot object {o} needs more slots than fit"))
            })?;
            heap.resize_with(i, Default::default);
            heap.push((cs, t));
        }
        Ok(Instance::from_slab(heap, next))
    }

    /// Check the well-formedness invariants of Definition 2.2 against a
    /// schema:
    ///
    /// 1. membership up-closed under isa (`o(P) ⊆ o(Q)` for `P isa Q`);
    /// 2. each object inside a single weakly-connected component;
    /// 3. `a` total: each object has a value for exactly the attributes of
    ///    the classes it belongs to;
    /// 4. every occurring object `<ₒ`-smaller than `next`;
    /// 5. the class and value indexes agree exactly with the heap.
    pub fn check_invariants(&self, schema: &Schema) -> Result<(), ModelError> {
        for (o, &cs, t) in self.entries() {
            if !schema.is_up_closed(cs) {
                return Err(ModelError::InvariantViolated(format!(
                    "membership of {o} is not isa-closed"
                )));
            }
            let comp = schema.component_of(cs.first().expect("non-empty"));
            if cs.iter().any(|c| schema.component_of(c) != comp) {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} belongs to non-weakly-connected classes"
                )));
            }
            let expected = schema.attrs_of_class_set(cs);
            for a in expected.iter() {
                if t.get(a).is_none() {
                    return Err(ModelError::MissingValue { oid: o.0, attr: a });
                }
            }
            if t.domain() != expected {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} stores values outside its defined attributes"
                )));
            }
            if o.0 >= self.next {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} is not smaller than next object o{}",
                    self.next
                )));
            }
        }
        self.check_index_invariants()
    }

    /// Verify the slab's shape (the last slot occurs, vacant slots hold
    /// no values, `live` counts the occurring slots) and that both
    /// secondary indexes agree exactly with the heap (every heap fact
    /// indexed, every index entry backed by the heap).
    fn check_index_invariants(&self) -> Result<(), ModelError> {
        if self.heap.last().is_some_and(|(cs, _)| cs.is_empty())
            || self.heap.iter().any(|(cs, t)| cs.is_empty() && !t.is_empty())
            || self.entries().count() != self.live
        {
            return Err(ModelError::InvariantViolated(
                "heap slab ends in, or keeps values in, a vacant slot, or miscounts live ones"
                    .into(),
            ));
        }
        let mut indexed_memberships = 0usize;
        for (ci, set) in self.index.classes.iter().enumerate() {
            let c = ClassId::from_index(ci);
            for &o in set {
                if !self.role_set(o).contains(c) {
                    return Err(ModelError::InvariantViolated(format!(
                        "class index lists {o} under {c} but the heap disagrees"
                    )));
                }
            }
            indexed_memberships += set.len();
        }
        let heap_memberships: usize = self.entries().map(|(_, cs, _)| cs.len()).sum();
        if indexed_memberships != heap_memberships {
            return Err(ModelError::InvariantViolated(format!(
                "class index covers {indexed_memberships} memberships, heap has {heap_memberships}"
            )));
        }
        let mut indexed_values = 0usize;
        for (ai, map) in self.index.values.iter().enumerate() {
            let a = AttrId::from_index(ai);
            for (v, holders) in map {
                if matches!(holders, Holders::Many(set) if set.len() < 2) {
                    return Err(ModelError::InvariantViolated(format!(
                        "value index keeps a set of fewer than two holders for ({a}, {v})"
                    )));
                }
                for o in holders.iter() {
                    if self.value(o, a) != Some(v) {
                        return Err(ModelError::InvariantViolated(format!(
                            "value index lists {o} under ({a}, {v}) but the heap disagrees"
                        )));
                    }
                }
                indexed_values += holders.len();
            }
        }
        let heap_values: usize = self.entries().map(|(_, _, t)| t.len()).sum();
        if indexed_values != heap_values {
            return Err(ModelError::InvariantViolated(format!(
                "value index covers {indexed_values} values, heap has {heap_values}"
            )));
        }
        Ok(())
    }
}

/// The driver chosen by [`Instance::plan`] for a `Sat` evaluation.
enum SatPlan<'s> {
    /// Some equality atom matches no stored value: the result is empty.
    Empty,
    /// Drive from a value-index entry (class membership still checked per
    /// candidate).
    ValueEntry(&'s Holders),
    /// Drive from the class index (condition checked per candidate).
    ClassEntry(&'s BTreeSet<Oid>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Atom;
    use crate::schema::university_schema;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher as _;

    fn sample() -> (Schema, Instance) {
        let schema = university_schema();
        let mut db = Instance::empty();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        for (s, n) in [("1234", "John"), ("2345", "Jim")] {
            db.create(
                ClassSet::singleton(person),
                BTreeMap::from([(ssn, Value::str(s)), (name, Value::str(n))]),
            );
        }
        (schema, db)
    }

    #[test]
    fn empty_database_is_d0() {
        let d = Instance::empty();
        assert!(d.is_empty());
        assert_eq!(d.next_oid(), Oid(1));
        assert_eq!(d.role_set(Oid(1)), ClassSet::empty());
    }

    #[test]
    fn create_bumps_next_and_occurs() {
        let (schema, db) = sample();
        assert_eq!(db.num_objects(), 2);
        assert_eq!(db.next_oid(), Oid(3));
        assert!(db.occurs(Oid(1)) && db.occurs(Oid(2)) && !db.occurs(Oid(3)));
        db.check_invariants(&schema).unwrap();
    }

    #[test]
    fn sat_selects_by_condition() {
        let (schema, db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let g = Condition::from_atoms([Atom::eq_const(ssn, "1234")]);
        assert_eq!(db.sat(person, &g), vec![Oid(1)]);
        let g2 = Condition::from_atoms([Atom::ne_const(ssn, "1234")]);
        assert_eq!(db.sat(person, &g2), vec![Oid(2)]);
        assert_eq!(db.sat(person, &Condition::empty()).len(), 2);
        // No students yet.
        let student = schema.class_id("STUDENT").unwrap();
        assert!(db.sat(student, &Condition::empty()).is_empty());
    }

    #[test]
    fn sat_agrees_with_scan_oracle() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let student = schema.class_id("STUDENT").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(2),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        let conds = [
            Condition::empty(),
            Condition::from_atoms([Atom::eq_const(ssn, "1234")]),
            Condition::from_atoms([Atom::eq_const(ssn, "nope")]),
            Condition::from_atoms([Atom::ne_const(ssn, "1234")]),
            Condition::from_atoms([Atom::eq_const(name, "Jim"), Atom::eq_const(major, "CS")]),
            Condition::from_atoms([Atom::eq_const(ssn, "2345"), Atom::ne_const(name, "Jim")]),
        ];
        for p in [person, student] {
            for g in &conds {
                assert_eq!(db.sat(p, g), db.sat_scan(p, g), "sat vs scan on {g:?}");
                assert_eq!(db.sat_exists(p, g), !db.sat_scan(p, g).is_empty());
            }
        }
    }

    #[test]
    fn add_remove_classes() {
        let (schema, mut db) = sample();
        let student = schema.class_id("STUDENT").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(1),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        db.check_invariants(&schema).unwrap();
        assert!(db.role_set(Oid(1)).contains(student));
        assert_eq!(db.objects_in(student).collect::<Vec<_>>(), vec![Oid(1)]);
        // Removing STUDENT (and its attrs) restores a plain person.
        db.remove_classes(Oid(1), schema.down_closure_of(student), [major, fe]);
        db.check_invariants(&schema).unwrap();
        assert!(!db.role_set(Oid(1)).contains(student));
        assert!(db.value(Oid(1), major).is_none());
        assert_eq!(db.num_objects_in(student), 0);
        assert_eq!(db.num_objects_with(major, &Value::str("CS")), 0);
    }

    #[test]
    fn bulk_create_matches_one_by_one_creation() {
        let schema = university_schema();
        let person = schema.class_id("PERSON").unwrap();
        let student = schema.class_id("STUDENT").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        let rows: Vec<(ClassSet, Tuple)> = (0..40)
            .map(|i| {
                // Shared Name values exercise value-index set merging;
                // alternate classes exercise both class-index slots.
                let (cs, extra) = if i % 3 == 0 {
                    (
                        schema.up_closure_of(student),
                        vec![(major, Value::str("CS")), (fe, Value::int(1990))],
                    )
                } else {
                    (ClassSet::singleton(person), vec![])
                };
                let mut pairs =
                    vec![(ssn, Value::str(&format!("s{i}"))), (name, Value::str("dup"))];
                pairs.extend(extra);
                (cs, Tuple::from_pairs(pairs))
            })
            .collect();
        // Oracle: one `create` per row, over a non-empty starting db so the
        // merge paths (existing keys, existing heap) are exercised.
        let (_, mut oracle) = sample();
        let mut bulk = oracle.clone();
        for (cs, t) in &rows {
            oracle.create(*cs, t.clone());
        }
        let start = bulk.next_oid();
        let first = bulk.bulk_create(&rows);
        assert_eq!(first, start);
        assert_eq!(bulk, oracle, "heap triple identical to per-row creation");
        bulk.check_invariants(&schema).unwrap();
        assert_eq!(bulk.num_objects_with(name, &Value::str("dup")), 40);
        assert_eq!(bulk.num_objects_in(student), 14);
        // Appending a second batch on top of the first merges again.
        let more: Vec<(ClassSet, Tuple)> = (0..5)
            .map(|i| {
                (
                    ClassSet::singleton(person),
                    Tuple::from_pairs(vec![
                        (ssn, Value::str(&format!("t{i}"))),
                        (name, Value::str("dup")),
                    ]),
                )
            })
            .collect();
        bulk.bulk_create(&more);
        bulk.check_invariants(&schema).unwrap();
        assert_eq!(bulk.num_objects_with(name, &Value::str("dup")), 45);
    }

    #[test]
    fn delete_object_is_total() {
        let (schema, mut db) = sample();
        db.delete_object(Oid(1));
        assert!(!db.occurs(Oid(1)));
        assert_eq!(db.num_objects(), 1);
        // next is NOT reused — abstract objects are created at most once.
        assert_eq!(db.next_oid(), Oid(3));
        db.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        assert_eq!(db.objects_in(person).collect::<Vec<_>>(), vec![Oid(2)]);
    }

    #[test]
    fn restriction_keeps_counter_and_rebuilds_indexes() {
        let (schema, db) = sample();
        let r = db.restrict(&[Oid(2)]);
        assert_eq!(r.num_objects(), 1);
        assert!(r.occurs(Oid(2)) && !r.occurs(Oid(1)));
        assert_eq!(r.next_oid(), db.next_oid());
        r.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(r.objects_in(person).collect::<Vec<_>>(), vec![Oid(2)]);
        // The restricted-away object's values are not indexed.
        assert_eq!(r.num_objects_with(ssn, &Value::str("1234")), 0);
        assert_eq!(r.num_objects_with(ssn, &Value::str("2345")), 1);
    }

    #[test]
    fn from_objects_rebuilds_indexes() {
        let (schema, db) = sample();
        let rebuilt = Instance::from_objects(
            db.objects().map(|o| (o, db.role_set(o), db.tuple_of(o))).collect::<Vec<_>>(),
        );
        rebuilt.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(rebuilt.objects_in(person).count(), 2);
        assert_eq!(
            rebuilt.sat(person, &Condition::from_atoms([Atom::eq_const(ssn, "1234")])),
            vec![Oid(1)]
        );
    }

    #[test]
    fn put_object_over_live_object_reindexes() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        // Overwrite o1 with a different tuple (the undo path restores
        // captured states over whatever the transaction left behind).
        db.put_object(
            Oid(1),
            ClassSet::singleton(person),
            Tuple::from_pairs([(ssn, Value::str("9999")), (name, Value::str("John"))]),
        );
        db.check_invariants(&schema).unwrap();
        assert_eq!(db.num_objects_with(ssn, &Value::str("1234")), 0, "old value de-indexed");
        assert_eq!(
            db.sat(person, &Condition::from_atoms([Atom::eq_const(ssn, "9999")])),
            vec![Oid(1)]
        );
    }

    #[test]
    #[should_panic(expected = "recycle")]
    fn set_next_rejects_recycling_live_identifiers() {
        let (_, mut db) = sample();
        db.delete_object(Oid(2));
        // o1 still occurs: winding the counter back to 1 would let
        // `create` mint o1 a second time and corrupt the indexes.
        db.set_next(1);
    }

    #[test]
    fn set_next_to_fresh_range_is_fine() {
        let (schema, mut db) = sample();
        db.set_next(17);
        assert_eq!(db.next_oid(), Oid(17));
        db.check_invariants(&schema).unwrap();
    }

    #[test]
    fn invariant_violations_detected() {
        let (schema, mut db) = sample();
        let ga = schema.class_id("GRAD_ASSIST").unwrap();
        // Not up-closed: GRAD_ASSIST without its ancestors.
        db.heap.resize_with(9, Default::default);
        db.heap[8] = (ClassSet::singleton(ga), Tuple::new());
        db.live += 1;
        db.next = 10;
        assert!(db.check_invariants(&schema).is_err());
    }

    #[test]
    fn missing_attribute_detected() {
        let (schema, mut db) = sample();
        let ssn = schema.attr_id("SSN").unwrap();
        db.heap[0].1.unset(ssn);
        assert_eq!(
            db.check_invariants(&schema),
            Err(ModelError::MissingValue { oid: 1, attr: ssn })
        );
    }

    #[test]
    fn extra_attribute_detected() {
        let (schema, mut db) = sample();
        let salary = schema.attr_id("Salary").unwrap();
        db.heap[0].1.set(salary, Value::int(1));
        assert!(db.check_invariants(&schema).is_err());
    }

    #[test]
    fn stale_index_entries_detected() {
        let (schema, mut db) = sample();
        // Heap mutated behind the indexes' back: both directions caught.
        let ssn = schema.attr_id("SSN").unwrap();
        db.heap[0].1.set(ssn, Value::str("8888"));
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("index"), "got {err:?}");
    }

    #[test]
    fn snapshot_round_trips_and_rebuilds_indexes() {
        let (schema, mut db) = sample();
        let student = schema.class_id("STUDENT").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(2),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        db.delete_object(Oid(1)); // next stays ahead of the live range
        let mut bytes = Vec::new();
        db.encode_snapshot(&mut bytes);
        let loaded =
            Instance::decode_snapshot(&mut crate::codec::Reader::new(&bytes)).expect("decodes");
        assert_eq!(loaded, db, "heap triple round-trips");
        // Regression: both secondary indexes must be rebuilt on load, not
        // left empty — point selects and class scans answer from them.
        loaded.check_invariants(&schema).expect("indexes rebuilt consistently");
        assert_eq!(loaded.objects_in(student).collect::<Vec<_>>(), vec![Oid(2)]);
        assert_eq!(loaded.num_objects_with(major, &Value::str("CS")), 1);
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(
            loaded.sat(student, &Condition::from_atoms([Atom::eq_const(ssn, "2345")])),
            vec![Oid(2)]
        );
        // Canonical: re-encoding the decoded instance is byte-identical.
        let mut again = Vec::new();
        loaded.encode_snapshot(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let (_, db) = sample();
        let mut bytes = Vec::new();
        db.encode_snapshot(&mut bytes);
        // Every strict prefix is truncated input: error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                Instance::decode_snapshot(&mut crate::codec::Reader::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // An object at/above the next counter is structurally corrupt.
        let mut bad = Vec::new();
        crate::codec::encode_u64(&mut bad, 1); // next = 1
        crate::codec::encode_u64(&mut bad, 1); // one object
        crate::codec::encode_u64(&mut bad, 5); // oid 5 ≥ next
        crate::codec::encode_idset(&mut bad, ClassSet::singleton(ClassId::from_index(0)));
        crate::codec::encode_tuple(&mut bad, &Tuple::new());
        assert!(Instance::decode_snapshot(&mut crate::codec::Reader::new(&bad)).is_err());
    }

    #[test]
    fn snapshot_decode_rejects_oid_zero() {
        // o0 is never minted, and the heap has no slot for it.
        let mut bad = Vec::new();
        crate::codec::encode_u64(&mut bad, 3); // next = 3
        crate::codec::encode_u64(&mut bad, 1); // one object
        crate::codec::encode_u64(&mut bad, 0); // oid 0
        crate::codec::encode_idset(&mut bad, ClassSet::singleton(ClassId::from_index(0)));
        crate::codec::encode_tuple(&mut bad, &Tuple::new());
        let err = Instance::decode_snapshot(&mut crate::codec::Reader::new(&bad)).unwrap_err();
        assert!(matches!(err, ModelError::Corrupt(_)), "got {err:?}");
        // Nor does a counter of o0, which would mint it next.
        let mut zero_next = Vec::new();
        crate::codec::encode_u64(&mut zero_next, 0);
        crate::codec::encode_u64(&mut zero_next, 0);
        assert!(Instance::decode_snapshot(&mut crate::codec::Reader::new(&zero_next)).is_err());
    }

    #[test]
    fn vacant_slots_are_invisible() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let o3 = db.create(ClassSet::singleton(person), BTreeMap::from([(ssn, Value::str("3"))]));
        let o4 = db.create(ClassSet::singleton(person), BTreeMap::from([(ssn, Value::str("4"))]));
        // A hole in the middle, then the highest oid: the counter may wind
        // back to just above the last live object, and no further.
        db.delete_object(Oid(2));
        db.delete_object(o4);
        db.set_next(o4.0);
        db.set_next(o3.0 + 1);
        db.check_index_invariants().unwrap();
        let rebuilt = Instance::from_objects(
            db.objects().map(|o| (o, db.role_set(o), db.tuple_of(o))).collect::<Vec<_>>(),
        );
        assert_eq!(rebuilt, db);
        assert_eq!(rebuilt.cmp(&db), std::cmp::Ordering::Equal);
        assert_eq!(format!("{rebuilt:?}"), format!("{db:?}"));
        let state = std::hash::RandomState::new();
        assert_eq!(state.hash_one(&rebuilt), state.hash_one(&db));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        rebuilt.encode_snapshot(&mut a);
        db.encode_snapshot(&mut b);
        assert_eq!(a, b);
        assert_eq!(db.objects().collect::<Vec<_>>(), vec![Oid(1), o3]);
        assert_eq!(db.num_objects(), 2);
        assert!(!db.occurs(Oid(2)) && !db.occurs(o4) && !db.occurs(Oid(0)));
        assert_eq!(db.tuple_ref(Oid(2)), None);
        // Ordering follows the occurring (oid, classes) pairs, holes unseen:
        // {o1, o3} sorts after {o1, o2} whatever the slab looks like.
        let (_, two) = sample();
        assert!(two < db);
    }

    #[test]
    fn a_value_holder_takes_no_allocation_of_its_own() {
        assert!(std::mem::size_of::<Holders>() <= 16);
    }

    #[test]
    fn shared_values_box_a_set_and_go_back_inline_at_one() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let holders = |db: &Instance, v: &str| {
            db.index.holders(name, &Value::str(v)).map(|h| matches!(h, Holders::Many(_)))
        };
        assert_eq!(holders(&db, "John"), Some(false), "a lone holder is inline");
        let mut shared = Vec::new();
        for k in ["5", "6"] {
            shared.push(db.create(
                ClassSet::singleton(person),
                BTreeMap::from([(ssn, Value::str(k)), (name, Value::str("John"))]),
            ));
        }
        assert_eq!(holders(&db, "John"), Some(true), "three holders share a set");
        db.check_invariants(&schema).unwrap();
        let by_name = Condition::from_atoms([Atom::eq_const(name, "John")]);
        assert_eq!(db.sat(person, &by_name), vec![Oid(1), shared[0], shared[1]]);
        db.delete_object(Oid(1));
        db.set_values(shared[1], [(name, Value::str("Jim"))]);
        assert_eq!(holders(&db, "John"), Some(false), "back inline at one");
        assert_eq!(holders(&db, "Jim"), Some(true));
        db.check_invariants(&schema).unwrap();
        assert_eq!(db.sat(person, &by_name), vec![shared[0]]);
        db.delete_object(shared[0]);
        assert_eq!(holders(&db, "John"), None, "the entry goes with its last holder");
        db.check_invariants(&schema).unwrap();
        // A set of one is a malformed holder, caught by the audit.
        let jim = db.index.values[name.index()].get_mut(&Value::str("Jim")).unwrap();
        *jim = Holders::Many(Box::new(BTreeSet::from([Oid(2)])));
        db.heap[shared[1].0 as usize - 1].1.set(name, Value::str("Ann"));
        db.index.add_value(shared[1], name, Value::str("Ann"));
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("fewer than two"), "got {err:?}");
    }

    #[test]
    fn instances_compare_including_counter() {
        let (_, db) = sample();
        let mut db2 = db.clone();
        assert_eq!(db, db2);
        db2.set_next(17);
        assert_ne!(db, db2);
    }
}
