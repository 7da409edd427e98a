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
//! [`Instance::put_object`]; [`Instance::restrict`],
//! [`Instance::from_objects`] and [`Instance::decode_snapshot`] build
//! them wholesale). Neither keeps a copy of what the heap holds:
//!
//! * the **class index** — `o(P)` materialized per class as a bitmap
//!   over heap slots (bit `i` is the object in slot `i`) with a count,
//!   behind [`Instance::objects_in`], which answers in `<ₒ` order. A
//!   bitmap costs one bit per slot of the slab whatever its membership,
//!   and grows to cover the whole slab at once;
//! * the **value index** — per attribute, an open-addressing table of
//!   16-byte entries, one per stored value, each holding the objects
//!   that hold the value and a tag of the value's hash. The value itself
//!   is not stored: an entry's key is the value in its first holder's
//!   heap slot. The table probes linearly from the home slot the tag
//!   picks, stays at most half full, deletes by shifting the rest of a
//!   cluster back, and grows by re-placing entries by tag, without
//!   reading the heap. Tags come from std's keyed hasher, because values
//!   come from clients, and no output depends on the table's order. A
//!   value one object holds — every key — keeps that oid inline in its
//!   entry; a boxed ordered set exists only while two or more objects
//!   share the value. So a key costs one 16-byte entry in a table at
//!   least half empty (32–64 bytes of table) and no allocation of its
//!   own, and a point lookup hashes the probe value, walks its cluster
//!   comparing tags, and reads the heap slot of each entry whose tag
//!   matches.
//!
//! So that an entry's key can be read, the heap holds a value before it
//! is indexed; and since removal finds an entry by its tag and the
//! departing holder, a slot can be emptied before it is de-indexed.
//!
//! [`Instance::sat`] plans from the condition: it drives from the most
//! selective indexed equality atom (falling back to the class index) and
//! verifies the remaining atoms per candidate, so `Sat(Γ, d, P)` costs
//! expected O(candidates) instead of a full heap scan. The pre-index
//! full scan survives as [`Instance::sat_scan`] — the semantic oracle for
//! property tests and the benchmark baseline. Index/heap consistency is
//! part of [`Instance::check_invariants`], which also checks each value
//! entry's tag against its key's hash: the tag is the only record of
//! which value a keyless entry stands for.

use crate::bitset::ClassSet;
use crate::condition::{CmpOp, Condition, Term};
use crate::error::ModelError;
use crate::ids::{AttrId, ClassId, DenseId, Oid};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::hash::{BuildHasher as _, RandomState};

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
/// read a slot while it updates them. Neither copies what the heap
/// holds, so every method that needs a value reads it from the heap,
/// passed in.
#[derive(Clone, Default)]
struct Indexes {
    /// `o(P)` per dense class index (grown on demand).
    classes: Vec<Members>,
    /// Per dense attribute index, the objects holding each value.
    /// Entries are removed when their last holder goes, so `len` of an
    /// entry is an exact selectivity count.
    values: Vec<ValueTable>,
    /// Hashes values into tags, keyed because values come from clients;
    /// clones share the key, so a cloned table's tags stay valid.
    hasher: RandomState,
}

/// One class's members: bit `i` is the object in heap slot `i`, so
/// iteration ascends in `<ₒ` order, and the count answers
/// [`Instance::num_objects_in`] in O(1).
#[derive(Clone, Default)]
struct Members {
    words: Vec<u64>,
    len: usize,
}

impl Members {
    /// Add the object in slot `i` of a slab of `slab` slots. A bitmap
    /// that must grow covers the whole slab at once, so a class whose
    /// members join out of slot order grows no more often than the slab.
    fn insert(&mut self, i: usize, slab: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(slab.div_ceil(64).max(w + 1), 0);
        }
        let bit = 1 << (i % 64);
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|word| word & (1 << (i % 64)) != 0)
    }

    fn remove(&mut self, i: usize) {
        if let Some(word) = self.words.get_mut(i / 64) {
            let bit = 1 << (i % 64);
            if *word & bit != 0 {
                *word &= !bit;
                self.len -= 1;
            }
        }
    }

    /// The members in `<ₒ` order; stops at the last one rather than at
    /// the end of the bitmap.
    fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        let set_bits = self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let b = rest.trailing_zeros() as usize;
                rest &= rest.checked_sub(1)?;
                Some(oid_at(w * 64 + b))
            })
        });
        set_bits.take(self.len)
    }
}

/// One entry of a [`ValueTable`]: the tag of its value's hash and the
/// objects holding the value. A value one object holds — every key —
/// keeps that oid inline; a set is boxed only while two or more objects
/// share the value, and goes back inline at one. Iteration ascends
/// (`<ₒ` order) either way.
#[derive(Clone, Debug, PartialEq)]
enum Holders {
    One {
        tag: u32,
        oid: Oid,
    },
    /// At least two oids, boxed so that an entry stays 16 bytes.
    Many {
        tag: u32,
        #[allow(
            clippy::box_collection,
            reason = "the set's own 24 bytes would grow every slot of every table"
        )]
        set: Box<BTreeSet<Oid>>,
    },
}

impl Holders {
    fn tag(&self) -> u32 {
        match self {
            Holders::One { tag, .. } | Holders::Many { tag, .. } => *tag,
        }
    }

    /// The least holder, whose heap slot holds the entry's key.
    fn first(&self) -> Oid {
        match self {
            Holders::One { oid, .. } => *oid,
            Holders::Many { set, .. } => *set.first().expect("a shared value has holders"),
        }
    }

    fn len(&self) -> usize {
        match self {
            Holders::One { .. } => 1,
            Holders::Many { set, .. } => set.len(),
        }
    }

    fn contains(&self, o: Oid) -> bool {
        match self {
            Holders::One { oid, .. } => *oid == o,
            Holders::Many { set, .. } => set.contains(&o),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        let (one, many) = match self {
            Holders::One { oid, .. } => (Some(*oid), None),
            Holders::Many { set, .. } => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn insert(&mut self, o: Oid) {
        match self {
            Holders::One { oid, .. } if *oid == o => {}
            Holders::One { tag, oid } => {
                *self = Holders::Many { tag: *tag, set: Box::new(BTreeSet::from([*oid, o])) }
            }
            Holders::Many { set, .. } => {
                set.insert(o);
            }
        }
    }

    /// Remove `o`; returns whether no holder is left.
    fn remove(&mut self, o: Oid) -> bool {
        match self {
            Holders::One { oid, .. } => *oid == o,
            Holders::Many { tag, set } => {
                set.remove(&o);
                if set.len() == 1 {
                    let lone = *set.first().expect("one holder left");
                    *self = Holders::One { tag: *tag, oid: lone };
                }
                false
            }
        }
    }
}

/// One attribute's value index: an open-addressing table of
/// [`Holders`] with linear probing, at most half full. An entry's home
/// is its tag modulo the table size, and every entry is reachable from
/// its home with no vacant slot in between: placement takes the first
/// vacant slot from the home, and removal shifts the rest of the
/// cluster back. The table reads no
/// value, so it can grow by re-placing entries by tag alone; callers
/// match values by reading each candidate's first holder from the heap.
#[derive(Clone, Default)]
struct ValueTable {
    /// Empty, or a power of two of slots.
    slots: Vec<Option<Holders>>,
    /// Occupied slots.
    len: usize,
}

impl ValueTable {
    /// The smallest table that is allocated.
    const MIN_SLOTS: usize = 8;

    fn home(&self, tag: u32) -> usize {
        tag as usize & (self.slots.len() - 1)
    }

    fn next(&self, i: usize) -> usize {
        (i + 1) & (self.slots.len() - 1)
    }

    /// The slot of the first entry on `tag`'s probe path that carries
    /// `tag` and satisfies `is_key`. The walk ends at a vacant slot,
    /// which a table at most half full always has.
    fn find(&self, tag: u32, mut is_key: impl FnMut(&Holders) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(tag);
        while let Some(h) = &self.slots[i] {
            if h.tag() == tag && is_key(h) {
                return Some(i);
            }
            i = self.next(i);
        }
        None
    }

    /// Whether the entry in slot `pos` is reachable from its home with
    /// no vacant slot in between.
    fn reachable(&self, pos: usize) -> bool {
        let Some(entry) = &self.slots[pos] else { return false };
        let mut i = self.home(entry.tag());
        while i != pos {
            if self.slots[i].is_none() {
                return false;
            }
            i = self.next(i);
        }
        true
    }

    /// Enter `holders`, whose value the table does not hold yet.
    fn insert(&mut self, holders: Holders) {
        self.reserve(1);
        self.place(holders);
        self.len += 1;
    }

    /// Put `holders` in the first vacant slot from its home.
    fn place(&mut self, holders: Holders) {
        let mut i = self.home(holders.tag());
        while self.slots[i].is_some() {
            i = self.next(i);
        }
        self.slots[i] = Some(holders);
    }

    /// Make room for `additional` more entries, the table at most half
    /// full.
    fn reserve(&mut self, additional: usize) {
        let needed = self.len.saturating_add(additional).saturating_mul(2);
        if needed > self.slots.len() {
            self.resize(needed.next_power_of_two().max(Self::MIN_SLOTS));
        }
    }

    /// Shrink to the smallest table that holds the entries at most half
    /// full, where [`ValueTable::reserve`] left it larger.
    fn shrink_to_fit(&mut self) {
        let needed = (2 * self.len).next_power_of_two().max(Self::MIN_SLOTS);
        if needed < self.slots.len() {
            self.resize(needed);
        }
    }

    /// Re-place every entry by its tag in a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![None; slots]);
        for holders in old.into_iter().flatten() {
            self.place(holders);
        }
    }

    /// Empty slot `pos`, then shift the rest of its cluster back: an
    /// entry moves into the hole unless its home lies after the hole,
    /// cyclically, so every entry stays reachable from its home.
    fn remove_at(&mut self, pos: usize) {
        self.slots[pos].take().expect("removal empties an occupied slot");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let (mut hole, mut i) = (pos, self.next(pos));
        while let Some(h) = &self.slots[i] {
            let home = self.home(h.tag());
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = self.next(i);
        }
    }
}

/// The value of attribute `a` in the heap slot of `h`'s first holder:
/// the key of the entry `h`.
fn key_of<'h>(heap: &'h [Slot], a: AttrId, h: &Holders) -> Option<&'h Value> {
    heap.get(slot_index(h.first()))?.1.get(a)
}

impl Indexes {
    /// The tag of `v`: the low half of its keyed hash.
    fn tag(&self, v: &Value) -> u32 {
        self.hasher.hash_one(v) as u32
    }

    /// The entry of value `v` of attribute `a`, if some object holds it.
    fn holders<'s>(&'s self, heap: &[Slot], a: AttrId, v: &Value) -> Option<&'s Holders> {
        let table = self.values.get(a.index())?;
        let pos = table.find(self.tag(v), |h| key_of(heap, a, h) == Some(v))?;
        table.slots[pos].as_ref()
    }

    fn table_mut(&mut self, a: AttrId) -> &mut ValueTable {
        if self.values.len() <= a.index() {
            self.values.resize_with(a.index() + 1, ValueTable::default);
        }
        &mut self.values[a.index()]
    }

    /// Index slot `i`'s membership in `cs`, `slab` being the heap's
    /// length.
    fn add_classes(&mut self, i: usize, cs: ClassSet, slab: usize) {
        for c in cs.iter() {
            if self.classes.len() <= c.index() {
                self.classes.resize_with(c.index() + 1, Members::default);
            }
            self.classes[c.index()].insert(i, slab);
        }
    }

    fn remove_classes(&mut self, i: usize, cs: ClassSet) {
        for c in cs.iter() {
            if let Some(members) = self.classes.get_mut(c.index()) {
                members.remove(i);
            }
        }
    }

    /// Index `o`'s value `v` of attribute `a`, which `o`'s heap slot
    /// already holds: entries are matched by reading keys from the heap.
    fn add_value(&mut self, heap: &[Slot], o: Oid, a: AttrId, v: &Value) {
        debug_assert_eq!(heap[slot_index(o)].1.get(a), Some(v), "the heap holds a value first");
        let tag = self.tag(v);
        let table = self.table_mut(a);
        match table.find(tag, |h| key_of(heap, a, h) == Some(v)) {
            Some(pos) => table.slots[pos].as_mut().expect("found entries occupy").insert(o),
            None => table.insert(Holders::One { tag, oid: o }),
        }
    }

    /// De-index `o`'s value `v` of attribute `a`. The entry is found by
    /// its tag and its holder `o`, reading no heap slot, so `o`'s slot
    /// may already be empty.
    fn remove_value(&mut self, o: Oid, a: AttrId, v: &Value) {
        let tag = self.tag(v);
        let Some(table) = self.values.get_mut(a.index()) else { return };
        let Some(pos) = table.find(tag, |h| h.contains(o)) else { return };
        if table.slots[pos].as_mut().expect("found entries occupy").remove(o) {
            table.remove_at(pos);
        }
    }

    /// Index the state the heap holds in occurring slot `i`.
    fn add_object(&mut self, heap: &[Slot], i: usize) {
        let (cs, t) = &heap[i];
        self.add_classes(i, *cs, heap.len());
        for (a, v) in t.iter() {
            self.add_value(heap, oid_at(i), a, v);
        }
    }

    fn remove_object(&mut self, i: usize, cs: ClassSet, t: &Tuple) {
        self.remove_classes(i, cs);
        for (a, v) in t.iter() {
            self.remove_value(oid_at(i), a, v);
        }
    }

    /// Index the occurring slots of `heap` in bulk. Each attribute's
    /// table is reserved up front for the rows carrying it, so a
    /// million-entry table does not grow step by step; that count only
    /// bounds the distinct values, so a table left over half empty gives
    /// the slack back.
    fn add_rows(&mut self, heap: &[Slot]) {
        let rows = || (0..heap.len()).filter(|&i| !heap[i].0.is_empty());
        let mut per_attr: Vec<usize> = Vec::new();
        for i in rows() {
            let (cs, t) = &heap[i];
            self.add_classes(i, *cs, heap.len());
            for (a, _) in t.iter() {
                if per_attr.len() <= a.index() {
                    per_attr.resize(a.index() + 1, 0);
                }
                per_attr[a.index()] += 1;
            }
        }
        for (a, &n) in per_attr.iter().enumerate() {
            self.table_mut(AttrId::from_index(a)).reserve(n);
        }
        for i in rows() {
            for (a, v) in heap[i].1.iter() {
                self.add_value(heap, oid_at(i), a, v);
            }
        }
        self.values.iter_mut().for_each(ValueTable::shrink_to_fit);
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
        self.index.classes.get(p.index()).into_iter().flat_map(Members::iter)
    }

    /// Number of objects of class `P` (index lookup, O(1)).
    #[must_use]
    pub fn num_objects_in(&self, p: ClassId) -> usize {
        self.index.classes.get(p.index()).map_or(0, |members| members.len)
    }

    /// Number of objects holding the value `v` for attribute `a` (index
    /// lookup — the planner's selectivity estimate, which is exact).
    #[must_use]
    pub fn num_objects_with(&self, a: AttrId, v: &Value) -> usize {
        self.index.holders(&self.heap, a, v).map_or(0, Holders::len)
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
            SatPlan::ClassEntry(members) => {
                members.iter().filter(|&o| self.member_satisfies(o, gamma)).collect()
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
            SatPlan::ClassEntry(members) => members.iter().any(|o| self.member_satisfies(o, gamma)),
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
            match self.index.holders(&self.heap, atom.attr, v) {
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
                if c.len <= v.len() {
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

    /// Store a state in `o`'s slot, growing the slab with vacant slots
    /// as needed, then index it from the slot. The slot must hold no
    /// indexed state.
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
        self.index.add_object(&self.heap, i);
    }

    /// Vacate occurring slot `i`: empty it, de-index the state it held,
    /// then drop the trailing vacant slots so the last slot occurs again.
    fn vacate(&mut self, i: usize) {
        let (cs, t) = std::mem::take(&mut self.heap[i]);
        self.index.remove_object(i, cs, &t);
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
        self.place(oid, classes, values.into());
        oid
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
        self.index.remove_classes(i, cs.intersection(remove));
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
        let slab = self.heap.len();
        let cs = &mut self.heap[i].0;
        self.index.add_classes(i, add.difference(*cs), slab);
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

    /// Set one attribute value of occurring slot `i` on the heap, then
    /// move `o` from the old value's index entry to the new one's.
    /// Writing back the stored value is a no-op.
    fn set_value_at(&mut self, i: usize, a: AttrId, v: Value) {
        let o = oid_at(i);
        let t = &mut self.heap[i].1;
        match t.get(a) {
            Some(old) if *old == v => return,
            Some(old) => self.index.remove_value(o, a, old),
            None => {}
        }
        t.set(a, v);
        let v = self.heap[i].1.get(a).expect("the value was just set");
        self.index.add_value(&self.heap, o, a, v);
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
        // The values the write de-indexes, kept for the debug audit only.
        let before = cfg!(debug_assertions).then(|| self.tuple_ref(o).cloned()).flatten();
        if let Some(i) = self.live_index(o) {
            let (cs, t) = &self.heap[i];
            self.index.remove_object(i, *cs, t);
        }
        self.place(o, classes, tuple);
        // Drift would be fatal here; audit what the write touched.
        debug_assert!(
            self.check_object_invariants(o, before.as_ref()).is_ok(),
            "put_object desynced the indexes"
        );
    }

    /// Build an instance from a slab whose last slot occurs and whose
    /// vacant slots are empty, deriving both indexes in bulk.
    fn from_slab(heap: Vec<Slot>, next: u64) -> Instance {
        let mut index = Indexes::default();
        index.add_rows(&heap);
        let live = heap.iter().filter(|(cs, _)| !cs.is_empty()).count();
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
    ///
    /// The first four are [`Instance::check_schema`].
    pub fn check_invariants(&self, schema: &Schema) -> Result<(), ModelError> {
        self.check_schema(schema)?;
        self.check_index_invariants()
    }

    /// Check the heap against `schema`: invariants 1–4 of
    /// [`Instance::check_invariants`], in one pass over the objects. Each
    /// object's classes are bounded by the schema's before any of its
    /// tables is read, so a heap built under another schema is an `Err`,
    /// not a panic. Recovery runs this on the state it adopts.
    pub fn check_schema(&self, schema: &Schema) -> Result<(), ModelError> {
        for (o, &cs, t) in self.entries() {
            if let Some(c) = cs.iter().find(|c| c.index() >= schema.num_classes()) {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} belongs to class {c}, past the schema's {} classes",
                    schema.num_classes()
                )));
            }
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
        Ok(())
    }

    /// Verify the slab's shape (the last slot occurs, vacant slots hold
    /// no values, `live` counts the occurring slots) and that both indexes
    /// agree exactly with the heap: each class's count its members', every
    /// entry backed by the heap and well formed ([`Instance::check_entry`]),
    /// each value table at most half full, and every object indexed.
    fn check_index_invariants(&self) -> Result<(), ModelError> {
        let violated = |msg: String| Err(ModelError::InvariantViolated(msg));
        if self.heap.last().is_some_and(|(cs, _)| cs.is_empty())
            || self.heap.iter().any(|(cs, t)| cs.is_empty() && !t.is_empty())
            || self.entries().count() != self.live
        {
            return violated(
                "heap slab ends in, or keeps values in, a vacant slot, or miscounts live ones"
                    .into(),
            );
        }
        for (ci, members) in self.index.classes.iter().enumerate() {
            let c = ClassId::from_index(ci);
            let bits: usize = members.words.iter().map(|w| w.count_ones() as usize).sum();
            if bits != members.len {
                return violated(format!(
                    "class index counts {} members of {c} but holds {bits}",
                    members.len
                ));
            }
            if let Some(o) = members.iter().find(|&o| !self.role_set(o).contains(c)) {
                return violated(format!("class index lists {o} under {c} but the heap disagrees"));
            }
        }
        for (ai, table) in self.index.values.iter().enumerate() {
            let a = AttrId::from_index(ai);
            let size = table.slots.len();
            let occupied = table.slots.iter().flatten().count();
            if occupied != table.len
                || (size != 0 && !size.is_power_of_two())
                || 2 * occupied > size
            {
                return violated(format!(
                    "value index of {a} counts {} entries, holds {occupied} in {size} slots",
                    table.len
                ));
            }
            for (pos, holders) in table.slots.iter().enumerate() {
                let Some(holders) = holders else { continue };
                let v = self.check_entry(a, table, pos)?;
                if let Some(o) = holders.iter().find(|&o| self.value(o, a) != Some(v)) {
                    return violated(format!(
                        "value index lists {o} under ({a}, {v}) but the heap disagrees"
                    ));
                }
            }
        }
        self.objects().try_for_each(|o| self.check_indexed(o))
    }

    /// Check the entry in slot `pos` of `a`'s value table and return its
    /// key: a set holds two or more oids, the first holder holds a key,
    /// the key hashes to the entry's tag, the entry is reachable from its
    /// home, and no other entry on its probe path has the same key.
    fn check_entry(&self, a: AttrId, table: &ValueTable, pos: usize) -> Result<&Value, ModelError> {
        let violated = |msg: String| Err(ModelError::InvariantViolated(msg));
        let holders = table.slots[pos].as_ref().expect("an entry occupies its slot");
        if matches!(holders, Holders::Many { set, .. } if set.len() < 2) {
            return violated(format!(
                "value index keeps a set of fewer than two holders for {a} in slot {pos}"
            ));
        }
        let Some(v) = key_of(&self.heap, a, holders) else {
            return violated(format!(
                "value index lists {} under {a} but the heap holds no such value",
                holders.first()
            ));
        };
        if holders.tag() != self.index.tag(v) {
            return violated(format!(
                "value index entry of ({a}, {v}) carries the tag of another value"
            ));
        }
        if !table.reachable(pos) {
            return violated(format!(
                "value index entry of ({a}, {v}) in slot {pos} is unreachable from its home"
            ));
        }
        if table.find(holders.tag(), |h| key_of(&self.heap, a, h) == Some(v)) != Some(pos) {
            return violated(format!("value index enters ({a}, {v}) twice"));
        }
        Ok(v)
    }

    /// Check that occurring object `o`'s class bits are its class set
    /// and that each value it holds is entered with it.
    fn check_indexed(&self, o: Oid) -> Result<(), ModelError> {
        let violated = |msg: String| Err(ModelError::InvariantViolated(msg));
        let i = slot_index(o);
        let (cs, t) = &self.heap[i];
        let indexed = |c: ClassId| self.index.classes.get(c.index()).is_some_and(|m| m.contains(i));
        let classes = (0..self.index.classes.len()).map(ClassId::from_index);
        if cs.iter().chain(classes).any(|c| indexed(c) != cs.contains(c)) {
            return violated(format!("class index and heap disagree on {o}"));
        }
        for (a, v) in t.iter() {
            if !self.index.holders(&self.heap, a, v).is_some_and(|h| h.contains(o)) {
                return violated(format!("value index misses {o} under ({a}, {v})"));
            }
        }
        Ok(())
    }

    /// Audit, in O(touched), a write that left `o` occurring and replaced
    /// its values `before`: the slab still ends in an occurring slot, `o`
    /// is indexed ([`Instance::check_indexed`]), and for each value of
    /// `before` and of `o`, every entry from the home of its tag across
    /// the next vacant slot to the end of the run behind it — the cluster
    /// a removal's backward shift rearranges — passes
    /// [`Instance::check_entry`] and lists `o` only under `o`'s value.
    fn check_object_invariants(&self, o: Oid, before: Option<&Tuple>) -> Result<(), ModelError> {
        let violated = |msg: String| Err(ModelError::InvariantViolated(msg));
        if !self.occurs(o) || self.heap.last().is_some_and(|(cs, _)| cs.is_empty()) {
            return violated(format!("{o} does not occur, or the slab ends in a vacant slot"));
        }
        self.check_indexed(o)?;
        let t = &self.heap[slot_index(o)].1;
        for (a, v) in before.into_iter().flat_map(Tuple::iter).chain(t.iter()) {
            // Tables keep their slots, half or more vacant, for good.
            let Some(table) = self.index.values.get(a.index()) else { continue };
            let (mut pos, mut holes) = (table.home(self.index.tag(v)), 0);
            while holes < 2 {
                match &table.slots[pos] {
                    Some(holders) => {
                        let key = self.check_entry(a, table, pos)?;
                        if holders.contains(o) && t.get(a) != Some(key) {
                            return violated(format!(
                                "value index lists {o} under ({a}, {key}) but the heap disagrees"
                            ));
                        }
                    }
                    None => holes += 1,
                }
                pos = table.next(pos);
            }
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
    ClassEntry(&'s Members),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Atom;
    use crate::schema::university_schema;
    use std::collections::BTreeMap;

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

    /// The schema half of the audit bounds every class id before it
    /// reads a schema table: a heap built under a larger schema is an
    /// `Err` against a smaller one, not an index panic.
    #[test]
    fn check_schema_refuses_a_class_past_the_schema() {
        let (schema, mut db) = sample();
        db.check_schema(&schema).unwrap();
        let mut b = crate::schema::SchemaBuilder::new();
        b.class("PERSON", &["SSN", "Name"]).unwrap();
        let small = b.build().unwrap();
        let last = ClassId::from_index(schema.num_classes() - 1);
        let attrs = schema.attrs_of_class_set(schema.up_closure_of(last));
        db.create(
            schema.up_closure_of(last),
            attrs.iter().map(|a| (a, Value::str("v"))).collect::<BTreeMap<_, _>>(),
        );
        db.check_invariants(&schema).unwrap();
        let err = db.check_schema(&small).unwrap_err().to_string();
        assert!(err.contains("past the schema"), "{err}");
        assert!(db.check_invariants(&small).is_err());
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
    fn from_objects_matches_one_by_one_creation() {
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
        // Oracle: one `create` per row, over a non-empty starting db, so
        // the rebuild meets keys of the sample and of the rows, and one
        // value forty objects share.
        let (_, mut oracle) = sample();
        for (cs, t) in &rows {
            oracle.create(*cs, t.clone());
        }
        // The bulk build decoding a snapshot runs: reserve each table for
        // every row, fill it, then give back the slack.
        let mut rebuilt = Instance::from_objects(
            oracle
                .objects()
                .map(|o| (o, oracle.role_set(o), oracle.tuple_of(o)))
                .collect::<Vec<_>>(),
        );
        assert_eq!(rebuilt, oracle, "heap triple identical to per-row creation");
        rebuilt.check_invariants(&schema).unwrap();
        assert_eq!(rebuilt.num_objects_with(name, &Value::str("dup")), 40);
        assert_eq!(rebuilt.num_objects_in(student), 14);
        assert_eq!(rebuilt.num_objects_in(person), 42);
        // Creating on top of the rebuilt instance grows its tables again.
        for i in 0..5 {
            rebuilt.create(
                ClassSet::singleton(person),
                Tuple::from_pairs(vec![
                    (ssn, Value::str(&format!("t{i}"))),
                    (name, Value::str("dup")),
                ]),
            );
        }
        rebuilt.check_invariants(&schema).unwrap();
        assert_eq!(rebuilt.num_objects_with(name, &Value::str("dup")), 45);
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
        let before = db.heap[0].1.clone();
        db.heap[0].1.set(ssn, Value::str("8888"));
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("index"), "got {err:?}");
        // The entry keeps no value, so only its tag tells that the value
        // its holder's slot now holds is not the one it was entered for.
        assert!(format!("{err:?}").contains("tag of another value"), "got {err:?}");
        // The audit of the written slot alone finds the new value missing.
        let err = db.check_object_invariants(Oid(1), Some(&before)).unwrap_err();
        assert!(format!("{err:?}").contains("value index misses o1"), "got {err:?}");
    }

    #[test]
    fn an_entry_moved_past_a_vacant_slot_is_caught() {
        let (schema, mut db) = sample();
        let ssn = schema.attr_id("SSN").unwrap();
        let pos = entry_slot(&db, ssn, &Value::str("1234"));
        // Move the entry to the next vacant slot: the slot it left lies
        // between its home and where it now sits.
        let table = &mut db.index.values[ssn.index()];
        let entry = table.slots[pos].take();
        let mut to = table.next(pos);
        while table.slots[to].is_some() {
            to = table.next(to);
        }
        table.slots[to] = entry;
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("unreachable from its home"), "got {err:?}");
        // The holder's own audit walks from the home, stops at the slot
        // the entry left and so misses the value.
        let err = db.check_object_invariants(Oid(1), None).unwrap_err();
        assert!(format!("{err:?}").contains("value index misses o1"), "got {err:?}");
    }

    #[test]
    fn a_value_entered_twice_is_caught() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let john = Value::str("John");
        let o3 = db.create(
            ClassSet::singleton(person),
            BTreeMap::from([(ssn, Value::str("3")), (name, john.clone())]),
        );
        // Split John's two holders into two entries of the same value:
        // every count, holder and tag still agrees with the heap.
        let pos = entry_slot(&db, name, &john);
        let table = &mut db.index.values[name.index()];
        let tag = table.slots[pos].as_ref().unwrap().tag();
        table.slots[pos] = Some(Holders::One { tag, oid: Oid(1) });
        table.insert(Holders::One { tag, oid: o3 });
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("twice"), "got {err:?}");
        // The first holder's audit walks John's probe path past both.
        let err = db.check_object_invariants(Oid(1), None).unwrap_err();
        assert!(format!("{err:?}").contains("twice"), "got {err:?}");
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
        assert_eq!(std::mem::size_of::<Holders>(), 16);
        // A vacant table slot takes the niche of the holder's tag.
        assert_eq!(std::mem::size_of::<Option<Holders>>(), 16);
    }

    /// The slot of the entry of `v` in `a`'s value table.
    fn entry_slot(db: &Instance, a: AttrId, v: &Value) -> usize {
        db.index.values[a.index()]
            .find(db.index.tag(v), |h| key_of(&db.heap, a, h) == Some(v))
            .expect("the value is indexed")
    }

    #[test]
    fn shared_values_box_a_set_and_go_back_inline_at_one() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let holders = |db: &Instance, v: &str| {
            db.index
                .holders(&db.heap, name, &Value::str(v))
                .map(|h| matches!(h, Holders::Many { .. }))
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
        let pos = entry_slot(&db, name, &Value::str("Jim"));
        let jim = db.index.values[name.index()].slots[pos].as_mut().unwrap();
        *jim = Holders::Many { tag: jim.tag(), set: Box::new(BTreeSet::from([Oid(2)])) };
        let ann = Value::str("Ann");
        db.heap[shared[1].0 as usize - 1].1.set(name, ann.clone());
        db.index.add_value(&db.heap, shared[1], name, &ann);
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("fewer than two"), "got {err:?}");
    }

    /// A [`ValueTable`] driven with chosen tags, one value per tag, and
    /// compared after every step with a `BTreeMap` from tag to holders.
    #[derive(Default)]
    struct TableOracle {
        table: ValueTable,
        oracle: BTreeMap<u32, BTreeSet<Oid>>,
    }

    impl TableOracle {
        fn add(&mut self, tag: u32, o: u64) {
            match self.table.find(tag, |_| true) {
                Some(pos) => self.table.slots[pos].as_mut().unwrap().insert(Oid(o)),
                None => self.table.insert(Holders::One { tag, oid: Oid(o) }),
            }
            self.oracle.entry(tag).or_default().insert(Oid(o));
            self.check();
        }

        fn remove(&mut self, tag: u32, o: u64) {
            let pos = self.table.find(tag, |h| h.contains(Oid(o))).expect("a held pair");
            if self.table.slots[pos].as_mut().unwrap().remove(Oid(o)) {
                self.table.remove_at(pos);
            }
            let set = self.oracle.get_mut(&tag).unwrap();
            set.remove(&Oid(o));
            if set.is_empty() {
                self.oracle.remove(&tag);
            }
            self.check();
        }

        /// The tag in each slot, `None` where vacant.
        fn layout(&self) -> Vec<Option<u32>> {
            self.table.slots.iter().map(|s| s.as_ref().map(Holders::tag)).collect()
        }

        fn check(&self) {
            let t = &self.table;
            let held: BTreeMap<u32, BTreeSet<Oid>> =
                t.slots.iter().flatten().map(|h| (h.tag(), h.iter().collect())).collect();
            assert_eq!(held, self.oracle);
            assert_eq!(t.slots.iter().flatten().count(), t.len);
            assert_eq!(t.len, self.oracle.len());
            assert!(t.slots.is_empty() || t.slots.len().is_power_of_two());
            assert!(2 * t.len <= t.slots.len());
            for (pos, h) in t.slots.iter().enumerate() {
                let Some(h) = h else { continue };
                assert!(t.reachable(pos), "slot {pos} unreachable in {:?}", self.layout());
                assert_eq!(t.find(h.tag(), |_| true), Some(pos));
                assert!(!matches!(h, Holders::Many { set, .. } if set.len() < 2));
            }
        }
    }

    #[test]
    fn value_table_entries_homing_to_one_slot_probe_on_and_shift_back() {
        let mut t = TableOracle::default();
        // 3, 11, 19 and 27 all home to slot 3 of 8; 5 homes to slot 5.
        for (tag, o) in [(3, 1), (11, 2), (19, 3)] {
            t.add(tag, o);
        }
        assert_eq!(t.layout()[3..6], [Some(3), Some(11), Some(19)]);
        // The first of the cluster: both others shift back.
        t.remove(3, 1);
        assert_eq!(t.layout()[3..6], [Some(11), Some(19), None]);
        t.add(5, 4);
        t.add(27, 5);
        assert_eq!(t.layout()[3..7], [Some(11), Some(19), Some(5), Some(27)]);
        // A middle one: 5 stays home, 27 moves back past it.
        t.remove(19, 3);
        assert_eq!(t.layout()[3..7], [Some(11), Some(27), Some(5), None]);
        // The last one: nothing moves.
        t.remove(5, 4);
        assert_eq!(t.layout()[3..6], [Some(11), Some(27), None]);
        t.remove(11, 2);
        assert_eq!(t.layout()[3..5], [Some(27), None]);
        t.remove(27, 5);
        assert_eq!(t.table.len, 0);
    }

    #[test]
    fn value_table_cluster_wrapping_past_the_last_slot_shifts_back_across_the_wrap() {
        let mut t = TableOracle::default();
        // 6, 14 and 22 home to slot 6 of 8 and wrap; 0 homes to slot 0.
        for (tag, o) in [(6, 1), (14, 2), (22, 3), (0, 4)] {
            t.add(tag, o);
        }
        let wrapped = |l: Vec<Option<u32>>| [l[6], l[7], l[0], l[1]];
        assert_eq!(wrapped(t.layout()), [Some(6), Some(14), Some(22), Some(0)]);
        t.remove(6, 1);
        assert_eq!(wrapped(t.layout()), [Some(14), Some(22), Some(0), None]);
        t.add(30, 5);
        assert_eq!(wrapped(t.layout()), [Some(14), Some(22), Some(0), Some(30)]);
        t.remove(22, 3);
        assert_eq!(wrapped(t.layout()), [Some(14), Some(30), Some(0), None]);
        t.remove(0, 4);
        assert_eq!(wrapped(t.layout()), [Some(14), Some(30), None, None]);
        t.remove(30, 5);
        t.remove(14, 2);
        assert!(t.layout().iter().all(Option::is_none));
    }

    #[test]
    fn value_table_growth_re_places_a_wrapped_cluster_by_tag() {
        let mut t = TableOracle::default();
        for (tag, o) in [(6, 1), (14, 2), (22, 3), (30, 4)] {
            t.add(tag, o);
        }
        assert_eq!(t.table.slots.len(), 8);
        // A fifth entry would fill more than half: 16 slots, each entry
        // re-placed in old slot order from its tag modulo 16, so 22 (old
        // slot 0) takes slot 6 before 6 (old slot 6) comes to it.
        t.add(5, 5);
        assert_eq!(t.table.slots.len(), 16);
        let l = t.layout();
        assert_eq!(
            [l[5], l[6], l[7], l[14], l[15]],
            [Some(5), Some(22), Some(6), Some(30), Some(14)]
        );
        t.remove(22, 3);
        assert_eq!(t.layout()[5..8], [Some(5), Some(6), None]);
    }

    #[test]
    fn value_table_shared_values_box_a_set_and_keep_their_slot() {
        let mut t = TableOracle::default();
        for o in 1..=5 {
            t.add(2, o);
        }
        t.add(10, 6);
        assert!(matches!(t.table.slots[2], Some(Holders::Many { .. })));
        for o in 1..=4 {
            t.remove(2, o);
        }
        assert_eq!(t.table.slots[2], Some(Holders::One { tag: 2, oid: Oid(5) }));
        t.remove(2, 5);
        assert_eq!(t.layout()[2..4], [Some(10), None]);
    }

    #[test]
    fn value_table_agrees_with_the_oracle_over_a_seeded_history() {
        let mut t = TableOracle::default();
        let mut held: Vec<(u32, u64)> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for o in 1..2_000 {
            if held.is_empty() || draw(3) != 0 {
                // Few distinct low bits: long clusters that wrap.
                let tag = (draw(40) as u32) << 5 | draw(4) as u32;
                t.add(tag, o);
                held.push((tag, o));
            } else {
                let (tag, o) = held.swap_remove(draw(held.len() as u64) as usize);
                t.remove(tag, o);
            }
        }
        assert!(t.table.slots.len() >= 64, "the table grew");
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
