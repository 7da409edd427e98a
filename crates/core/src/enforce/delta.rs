//! Shared state machinery of the delta/cohort admission engines.
//!
//! A [`DeltaState`] tracks one *partition* of the object population:
//! one shard of a [`ShardedMonitor`](super::ShardedMonitor) (the whole
//! database when the monitor has one shard). It owns the cohort table
//! (objects grouped by indistinguishable (DFA state, role symbol)
//! pairs) over its objects' run-length-encoded records, which live in
//! the monitor's one [`Records`] table, **and its own letter clock**:
//! `steps` counts the letters this partition has read, and the
//! never-created class's DFA walk (`pre_state`, `pre_exempt`) advances
//! in the same shard-local time.
//! Every step index stored in a record — creation steps, RLE segment
//! starts — is a position on the owning partition's clock, so disjoint
//! partitions share *no* mutable state at all (Lemma 3.5: objects
//! evolve independently; under a component alphabet, objects of
//! different components never read each other's letters). A one-shard
//! monitor is the one-partition case, where the shard-local clock *is*
//! the paper's global step counter.
//!
//! Admission runs through one staged, read-only pass
//! ([`DeltaState::stage_batch`]) and one write-back
//! ([`DeltaState::commit_batch`]): `k` letters are validated against
//! **one** cohort sweep, advancing each untouched cohort `k` DFA steps
//! in a single pass and replaying touched objects' interleaved
//! touch/untouched chains individually. Admitting a single application
//! is the `k = 1` case of the same code path, and WAL replay runs it
//! too.
//!
//! Batch validation leans on the inventory being prefix-closed
//! (Definition 3.3): in any DFA of a prefix-closed language every
//! *reachable* non-accepting state is a trap, so checking the endpoint
//! of a run of identical letters is equivalent to checking every
//! intermediate step. Staging is read-only (`&self`), which is what lets
//! the sharded monitor stage every participating shard before touching
//! any; commits are only applied once every shard has accepted.
//!
//! The records of every partition sit in **one** [`Records`] table per
//! monitor, indexed like the heap, not in a search tree and not per
//! partition. Oids are minted once, in ascending order, from the counter
//! (Definition 2.2), so entry `o − 1` holds oid `o`'s record, tagged with
//! the partition that tracks it: finding a record is one array read, and
//! a partition walks its own records in ascending oid order by filtering
//! the table. The whole-partition paths — compaction, a full checkpoint
//! capture, the diagnosis fallback — therefore cost O(table), not
//! O(partition), the trade the heap's per-class bitmaps make too.
//!
//! For incremental checkpoints (`enforce::wal`), the monitor keeps one
//! **dirty set** ([`DirtySet`]): the oids whose record or database state
//! may have changed since the last checkpoint capture, which each
//! partition's commit marks. [`DeltaState::compact`] rewrites every
//! record's cohort slot, so it flips the partition's `all_dirty` and the
//! next capture carries the partition's full record table.
//!
//! [`diagnose_step`] reports the first violation of the reference
//! engine's ascending-oid rejection scan over the partitions that read
//! the letter, so every shard reports the [`Violation`] a reference
//! monitor fed that shard's sub-run would, byte for byte. It costs O(touched + |cohorts|): untouched objects
//! repeat their role, so they can violate only through a cohort whose
//! `δ(state, role)` is non-accepting, and only then does it scan every
//! record.

use super::Violation;
use crate::alphabet::RoleAlphabet;
use crate::pattern::{MigrationPattern, PatternKind};
use migratory_automata::Dfa;
use migratory_lang::{Delta, ObjectDelta};
use migratory_model::{ClassSet, Oid, RoleSet, Schema};
use std::collections::{BTreeMap, BTreeSet, HashMap, TryReserveError, VecDeque};
use std::ops::Range;

/// One touch of a staged block: the object, the 1-based shard-local
/// index of the letter that touches it, and where its change is — the
/// index of the block's delta and the object's index within it. A
/// shard's touches are stably sorted by oid, so each object's touches
/// form one run, in letter order. Indices, not a reference, so the
/// lists outlive a block and keep their capacity.
pub(crate) type Touch = (Oid, usize, u32, u32);

/// The always-present cohort of exempt objects (never stepped, never
/// checked).
pub(crate) const EXEMPT: u32 = 0;

/// Run-length-encoded tracking record of one object: 32 bytes, and no
/// allocation of its own while its history fits [`INLINE`] bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct ObjRecord {
    /// `(letter, from_step)` segments; a new segment is appended only
    /// when the role symbol changes, so length is the number of role
    /// *changes*, not the run length. The first segment starts at the
    /// object's creation step; the last extends to the current step.
    pub(crate) segments: Segments,
    /// Cohort the object currently belongs to (follow `parent` links) in
    /// its partition's cohort table.
    pub(crate) cohort: u32,
    /// The partition that tracks the object.
    pub(crate) shard: u32,
}

/// History bytes a record holds in its own slot.
const INLINE: usize = 22;

/// The segments of one [`ObjRecord`], ascending by step and never
/// empty, held as the bytes a checkpoint writes for them: each
/// `(letter, from)` pair as two minimal LEB128 varints, back to back.
/// Up to [`INLINE`] bytes — an object whose role never changed, or
/// changed a few times at small clocks — sit in the record's slot, so
/// the record stays 32 bytes with no allocation of its own; a longer
/// history spills into a heap buffer that at least doubles whenever it
/// grows. The varints are minimal, so equal segments are equal bytes:
/// equality compares the bytes, and `Debug` prints the decoded pairs.
#[derive(Clone)]
pub(crate) enum Segments {
    /// The first `len` bytes of `bytes`.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// The first `len` bytes of `buf`: at most 4 GiB, a billion role
    /// changes of one object.
    Heap { len: u32, buf: Box<[u8]> },
}

impl Segments {
    /// The one segment `segment`, written straight into the inline
    /// bytes.
    pub(crate) fn one(segment: (u32, usize)) -> Segments {
        let mut bytes = [0; INLINE];
        let len = put_pair(&mut bytes, segment);
        Segments::Inline { len: len as u8, bytes }
    }

    /// The segments of `s`, which holds at least one.
    pub(crate) fn from_slice(s: &[(u32, usize)]) -> Segments {
        let (&first, rest) = s.split_first().expect("a record has a segment");
        let mut segments = Segments::one(first);
        segments.extend_from_slice(rest);
        segments
    }

    /// Append one segment, which starts after the last one.
    pub(crate) fn push(&mut self, segment: (u32, usize)) {
        let mut pair = [0; PAIR];
        let n = put_pair(&mut pair, segment);
        let pair = &pair[..n];
        match self {
            Segments::Inline { len, bytes } if usize::from(*len) + n <= INLINE => {
                bytes[usize::from(*len)..][..n].copy_from_slice(pair);
                *len += n as u8;
            }
            Segments::Heap { len, buf } if *len as usize + n <= buf.len() => {
                buf[*len as usize..][..n].copy_from_slice(pair);
                *len += n as u32;
            }
            _ => {
                let (held, room) = (self.bytes(), self.capacity());
                let need = held.len() + n;
                let len = u32::try_from(need).expect("a history under 4 GiB");
                let mut buf = vec![0; need.max(2 * room).min(u32::MAX as usize)].into_boxed_slice();
                buf[..held.len()].copy_from_slice(held);
                buf[held.len()..need].copy_from_slice(pair);
                *self = Segments::Heap { len, buf };
            }
        }
    }

    /// Append `more` (each segment starts after the last one).
    pub(crate) fn extend_from_slice(&mut self, more: &[(u32, usize)]) {
        for &segment in more {
            self.push(segment);
        }
    }

    /// The canonical bytes: every segment's two minimal varints.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Segments::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Segments::Heap { len, buf } => &buf[..*len as usize],
        }
    }

    /// Bytes the history can hold before it next allocates.
    fn capacity(&self) -> usize {
        match self {
            Segments::Inline { .. } => INLINE,
            Segments::Heap { buf, .. } => buf.len(),
        }
    }

    /// The number of segments: two varints each, and a varint ends at
    /// its one byte below `0x80`.
    pub(crate) fn len(&self) -> usize {
        self.bytes().iter().filter(|&&b| b < 0x80).count() / 2
    }

    /// The segments, decoded in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        let bytes = self.bytes();
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < bytes.len()).then(|| {
                let (letter, next) = get_varint(bytes, at);
                let (from, next) = get_varint(bytes, next);
                at = next;
                (letter as u32, from as usize)
            })
        })
    }

    /// Where the first segment starts: the second varint.
    fn first_start(&self) -> usize {
        let bytes = self.bytes();
        get_varint(bytes, get_varint(bytes, 0).1).0 as usize
    }

    /// The last segment's letter, read back from the end: the last
    /// varint is the segment's start, and the letter ends just before
    /// it.
    fn last_letter(&self) -> u32 {
        let bytes = self.bytes();
        let ends = |to: usize| bytes[..to].iter().rposition(|&b| b < 0x80);
        let letter_end = ends(bytes.len() - 1).expect("a letter precedes every start");
        let letter_start = ends(letter_end).map_or(0, |e| e + 1);
        get_varint(bytes, letter_start).0 as u32
    }
}

/// The most bytes one segment takes: a `u32` letter's varint and a
/// `usize` start's.
const PAIR: usize = 15;

/// Write `(letter, from)` as two minimal LEB128 varints at the start of
/// `out`, the bytes `codec::encode_u64` appends for each; returns how
/// many.
fn put_pair(out: &mut [u8], (letter, from): (u32, usize)) -> usize {
    let at = put_varint(out, 0, u64::from(letter));
    put_varint(out, at, from as u64)
}

/// Write `v` as a minimal LEB128 varint at `out[at..]`; returns the
/// index past it.
fn put_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// The varint at `bytes[at..]` (well-formed: a [`Segments`]' own) and
/// the index past it.
fn get_varint(bytes: &[u8], mut at: usize) -> (u64, usize) {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = bytes[at];
        v |= u64::from(b & 0x7f) << shift;
        at += 1;
        if b < 0x80 {
            return (v, at);
        }
        shift += 7;
    }
}

impl PartialEq for Segments {
    fn eq(&self, other: &Segments) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Segments {}

impl std::fmt::Debug for Segments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ObjRecord {
    /// 1-based step, on its partition's clock, at which the object was
    /// created: where its first segment starts.
    pub(crate) fn creation_step(&self) -> usize {
        self.segments.first_start()
    }

    pub(crate) fn current_role(&self) -> u32 {
        self.segments.last_letter()
    }

    /// Reconstruct the full pattern through global step `upto`.
    pub(crate) fn pattern_through(&self, empty: u32, upto: usize) -> MigrationPattern {
        let mut p = Vec::with_capacity(upto);
        p.resize(self.creation_step() - 1, empty);
        let mut segments = self.segments.iter().peekable();
        while let Some((letter, from)) = segments.next() {
            let end = segments.peek().map_or(upto, |&(_, next_from)| next_from - 1);
            p.resize(p.len() + (end + 1 - from), letter);
        }
        p
    }
}

/// The tracking records of every partition of one monitor, indexed like
/// the heap: entry `o − 1` holds oid `o`'s record, which names the
/// partition tracking it, or `None` when `o` has no record. Oids are
/// minted once, in ascending order (Definition 2.2), so the engine only
/// fills entries it has never filled: finding a record is one array
/// read, and a partition walks its own records in ascending oid order
/// by filtering the whole table, O(table). The table reaches the
/// highest record, never past it, so equal record sets compare equal.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct Records {
    table: Vec<Option<ObjRecord>>,
}

/// The entry of `o`: oids are minted from o1, so entry `o − 1`.
fn entry_index(o: Oid) -> Option<usize> {
    usize::try_from(o.0.checked_sub(1)?).ok()
}

impl Records {
    /// The record of `o`, whichever partition tracks it.
    pub(crate) fn find(&self, o: Oid) -> Option<&ObjRecord> {
        self.table.get(entry_index(o)?)?.as_ref()
    }

    /// The record of `o` if partition `shard` tracks it.
    pub(crate) fn get(&self, shard: u32, o: Oid) -> Option<&ObjRecord> {
        self.find(o).filter(|rec| rec.shard == shard)
    }

    pub(crate) fn get_mut(&mut self, shard: u32, o: Oid) -> Option<&mut ObjRecord> {
        self.table.get_mut(entry_index(o)?)?.as_mut().filter(|rec| rec.shard == shard)
    }

    /// The highest oid with a record.
    pub(crate) fn last_oid(&self) -> Option<Oid> {
        (!self.table.is_empty()).then_some(Oid(self.table.len() as u64))
    }

    /// Every record, in ascending oid order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &ObjRecord)> {
        self.table.iter().zip(1..).filter_map(|(entry, o)| Some((Oid(o), entry.as_ref()?)))
    }

    /// Partition `shard`'s records, in ascending oid order.
    pub(crate) fn of_shard(&self, shard: u32) -> impl Iterator<Item = (Oid, &ObjRecord)> {
        self.iter().filter(move |(_, rec)| rec.shard == shard)
    }

    /// Partition `shard`'s records mutably, in ascending oid order.
    pub(crate) fn of_shard_mut(&mut self, shard: u32) -> impl Iterator<Item = &mut ObjRecord> {
        self.table.iter_mut().filter_map(move |entry| entry.as_mut().filter(|r| r.shard == shard))
    }

    /// The entry of `o` (never o0), growing the table to reach it. Fails
    /// only when the table cannot grow that far: the fallible allocation
    /// the decoders run, so that a corrupt oid is an error, not an abort.
    /// The caller fills a grown entry, or drops the table on an error:
    /// the table never reaches past its highest record.
    pub(crate) fn try_entry(&mut self, o: Oid) -> Result<&mut Option<ObjRecord>, TryReserveError> {
        let i = entry_index(o).expect("o0 is never minted and has no entry");
        if i >= self.table.len() {
            self.table.try_reserve(i + 1 - self.table.len())?;
            self.table.resize(i + 1, None);
        }
        Ok(&mut self.table[i])
    }

    /// Set the record of `o`, which has none (the engine's case: `o`
    /// was minted after every record of its partition).
    pub(crate) fn insert(&mut self, o: Oid, rec: ObjRecord) {
        let entry = self.try_entry(o).expect("the record table grows");
        debug_assert!(entry.is_none(), "{o} already has a record");
        *entry = Some(rec);
    }

    /// Drop partition `shard`'s records, O(table).
    pub(crate) fn clear_shard(&mut self, shard: u32) {
        for entry in &mut self.table {
            if entry.as_ref().is_some_and(|rec| rec.shard == shard) {
                *entry = None;
            }
        }
        let len = self.table.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
        self.table.truncate(len);
    }
}

/// A group of objects indistinguishable to the DFA: same state, same
/// current role symbol, same exemption status. Untouched cohorts advance
/// with **one** `dfa.step` regardless of how many objects they hold.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Cohort {
    pub(crate) state: u32,
    pub(crate) last_role: u32,
    pub(crate) size: usize,
    /// Union-find forwarding after merges; a root has `parent == id`.
    pub(crate) parent: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Target {
    Exempt,
    Key(u32, u32),
}

#[derive(Clone, Default)]
pub(crate) struct DeltaState {
    /// This partition's index among the monitor's: the shard its records
    /// name in the monitor's [`Records`] table.
    pub(crate) shard: u32,
    /// Records of this partition in that table: one per object that has
    /// occurred in it.
    pub(crate) tracked: usize,
    pub(crate) cohorts: Vec<Cohort>,
    /// Root non-exempt cohorts, by (DFA state, last role symbol). A
    /// `BTreeMap` on purpose: cohort sweeps iterate this table, and
    /// iteration order decides slot allocation and merge-survivor choice
    /// — ordered iteration makes the whole engine **deterministic**,
    /// which is what lets WAL recovery reproduce tracking state
    /// byte-identically (see `enforce::wal`).
    pub(crate) by_key: BTreeMap<(u32, u32), u32>,
    /// Cohort slots emptied by a step, reused before growing `cohorts`.
    /// Forwarding slots (merge / exemption-fold survivors with members
    /// still routed through them) cannot be freed eagerly; when they
    /// outgrow the record count, [`DeltaState::compact`] rebuilds the
    /// table — amortized O(1) per application, keeping resident state at
    /// O(live cohorts + records).
    pub(crate) free: Vec<u32>,
    /// Touched-object count of the last admitted application.
    pub(crate) last_touched: usize,
    /// **The letter clock**: effective letters this partition has read.
    /// Shard-local time — every step index in the records above is a
    /// position on this clock.
    pub(crate) steps: usize,
    /// DFA state of the never-created objects of this partition (their
    /// pattern is ∅^steps in shard-local time).
    pub(crate) pre_state: u32,
    /// The never-created pattern has already left the enforced family.
    pub(crate) pre_exempt: bool,
    /// Every record is dirty: set by [`DeltaState::compact`], which
    /// rewrites cohort slots of records the batch never touched, so the
    /// next capture carries the partition's whole record table rather
    /// than the monitor's [`DirtySet`].
    pub(crate) all_dirty: bool,
}

/// The oids whose record or database state may have changed since the
/// last checkpoint capture, one bit each: one set per monitor, whose
/// partitions mark only the objects they track (the monitor marks the
/// objects a certified block changed, and the ones a failed capture
/// hands back). A partition's dirty records are therefore the marked
/// oids it holds a record of. Marking an oid sets its bit, and
/// allocates only when the oid is the highest yet; not part of the
/// durable, byte-compared state.
#[derive(Clone, Default)]
pub(crate) struct DirtySet(Vec<u64>);

impl DirtySet {
    pub(crate) fn insert(&mut self, o: Oid) {
        let word = (o.0 / 64) as usize;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (o.0 % 64);
    }

    pub(crate) fn extend(&mut self, oids: impl IntoIterator<Item = Oid>) {
        for o in oids {
            self.insert(o);
        }
    }

    /// The marked oids, ascending, each once; unmarks them all.
    pub(crate) fn drain(&mut self) -> Vec<Oid> {
        let marked = self.0.iter().map(|w| w.count_ones() as usize).sum();
        let mut oids = Vec::with_capacity(marked);
        for (base, word) in (0..).step_by(64).zip(&mut self.0) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                oids.push(Oid(base + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
        oids
    }

    pub(crate) fn clear(&mut self) {
        self.0.fill(0);
    }
}

impl DeltaState {
    /// A fresh partition `shard` at letter clock 0, with the
    /// never-created walk starting from the inventory DFA's start state.
    pub(crate) fn new(shard: u32, pre_state: u32, pre_exempt: bool) -> DeltaState {
        DeltaState {
            shard,
            // Slot 0 is the exempt sink.
            cohorts: vec![Cohort { state: 0, last_role: 0, size: 0, parent: EXEMPT }],
            pre_state,
            pre_exempt,
            ..DeltaState::default()
        }
    }

    pub(crate) fn find(&mut self, mut id: u32) -> u32 {
        while self.cohorts[id as usize].parent != id {
            let p = self.cohorts[id as usize].parent;
            self.cohorts[id as usize].parent = self.cohorts[p as usize].parent;
            id = p;
        }
        id
    }

    pub(crate) fn find_ro(&self, mut id: u32) -> u32 {
        while self.cohorts[id as usize].parent != id {
            id = self.cohorts[id as usize].parent;
        }
        id
    }

    /// Root cohort for `target` post-step, creating (or reusing a freed
    /// slot for) it if new.
    pub(crate) fn cohort_for(&mut self, target: Target) -> u32 {
        match target {
            Target::Exempt => EXEMPT,
            Target::Key(state, role) => *self.by_key.entry((state, role)).or_insert_with(|| {
                if let Some(id) = self.free.pop() {
                    self.cohorts[id as usize] =
                        Cohort { state, last_role: role, size: 0, parent: id };
                    id
                } else {
                    let id = self.cohorts.len() as u32;
                    self.cohorts.push(Cohort { state, last_role: role, size: 0, parent: id });
                    id
                }
            }),
        }
    }

    /// Whether dead slots (freed + unreachable forwarders) dominate the
    /// table: live slots are bounded by the record count plus the sink.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.cohorts.len() > 64 && self.cohorts.len() > 2 * (self.tracked + 1)
    }

    /// Rebuild the cohort table with only live cohorts: every record is
    /// redirected to its root, forwarding chains disappear, and dead
    /// slots are dropped. O(table), a filtered walk of the monitor's
    /// `records`, run only once the cohort table has outgrown twice the
    /// partition's record count: the cost amortizes over the cohort
    /// slots allocated since the last compaction, to O(1) each when the
    /// partition holds a fixed share of the table (oid striping).
    pub(crate) fn compact(&mut self, records: &mut Records) {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut table: Vec<Cohort> = vec![self.cohorts[EXEMPT as usize].clone()];
        for rec in records.of_shard_mut(self.shard) {
            let root = self.find(rec.cohort);
            rec.cohort = if root == EXEMPT {
                EXEMPT
            } else {
                *remap.entry(root).or_insert_with(|| {
                    let nid = table.len() as u32;
                    let old = &self.cohorts[root as usize];
                    table.push(Cohort {
                        state: old.state,
                        last_role: old.last_role,
                        size: old.size,
                        parent: nid,
                    });
                    nid
                })
            };
        }
        // Every populated by_key root has members, so it was remapped;
        // anything else is dead and dropped with its key.
        self.by_key =
            self.by_key.iter().filter_map(|(&k, root)| Some((k, *remap.get(root)?))).collect();
        self.cohorts = table;
        self.free.clear();
        // Every record's cohort slot was rewritten: the next incremental
        // checkpoint must carry the whole table.
        self.all_dirty = true;
    }

    // -----------------------------------------------------------------
    // Batch staging
    // -----------------------------------------------------------------

    /// Validate `k` effective letters over this partition's objects,
    /// whose records `records` holds, in one pass, **in shard-local
    /// time**: the never-created class's walk starts from this
    /// partition's own clock, each touched object's interleaved
    /// touch/untouched chain is replayed exactly, and each untouched
    /// cohort is advanced `k` DFA steps once. `touched` holds
    /// this partition's [`Touch`]es, sorted by oid: each object's run
    /// of `(local letter index, change)` pairs, where local indices are
    /// 1-based positions among the `k` letters *this partition* reads.
    /// `deltas` holds the changes the touches index. Read-only but for
    /// `stage`, whose buffers it refills (they keep their capacity);
    /// returns `Err(())` on the first violation (callers locate the
    /// violating letter and diagnose it with [`diagnose_step`]) and
    /// leaves the staged changes for
    /// [`commit_batch`](Self::commit_batch) in `stage` otherwise.
    pub(crate) fn stage_batch(
        &self,
        ctx: &BatchCtx<'_>,
        records: &Records,
        k: usize,
        (touched, deltas): (&[Touch], &[Delta]),
        stage: &mut BatchStage,
    ) -> Result<(), ()> {
        let dfa = ctx.dfa;
        let empty = ctx.alphabet.empty_symbol();
        // The never-created objects of this partition read one ∅ per
        // letter, on this partition's own clock.
        let pre = never_created_walk(
            dfa,
            empty,
            ctx.kind,
            (self.pre_state, self.pre_exempt, self.steps),
            k,
            &mut stage.pre_trace,
        );
        if pre.violation_at.is_some() {
            return Err(());
        }
        let steps0 = self.steps;
        // Untouched objects under Proper/Lazy leave the enforced family
        // at their first untouched step; any record predating the batch
        // has global step index ≥ 2 for every batch step (records imply
        // at least one committed letter), so the whole table folds.
        let fold_all = matches!(ctx.kind, PatternKind::Proper | PatternKind::Lazy);
        let BatchStage { moves, segments, leaving, advanced, emptied, pre_trace, .. } = stage;
        moves.clear();
        // Every chain's new segments, in move order; a touch adds at
        // most one.
        segments.clear();
        // Members leaving each root cohort, by cohort slot.
        leaving.clear();
        leaving.resize(self.cohorts.len(), 0);

        for run in touched.chunk_by(|a, b| a.0 == b.0) {
            let oid = run[0].0;
            // Chain state of this object across the batch.
            let mut chain: Option<ChainState> = records.get(self.shard, oid).map(|rec| {
                let root = self.find_ro(rec.cohort);
                ChainState {
                    state: self.cohorts[root as usize].state,
                    role: rec.current_role(),
                    exempt: root == EXEMPT,
                    synced: 0,
                    first_segment: segments.len(),
                    existing: true,
                    start_root: root,
                }
            });
            if let Some(ch) = &chain {
                leaving[ch.start_root as usize] += 1;
            }
            for &(_, j, d, o) in run {
                let od = &deltas[d as usize].objects()[o as usize];
                let idx = steps0 + j;
                let after_sym = match od.after_classes() {
                    Some(cs) => classes_symbol(ctx.schema, ctx.alphabet, cs),
                    None => empty,
                };
                match &mut chain {
                    None => {
                        // Created at effective step j: starts from the
                        // never-created class's state before that step.
                        debug_assert!(od.created(), "untracked touched object must be a creation");
                        let (pre_state, pre_exempt) = pre_trace[j - 1];
                        let exempt = match ctx.kind {
                            PatternKind::All => false,
                            PatternKind::ImmediateStart => idx > 1,
                            PatternKind::Proper | PatternKind::Lazy => pre_exempt,
                        };
                        let state = dfa.step(pre_state, after_sym);
                        if !exempt && !dfa.is_accepting(state) {
                            return Err(());
                        }
                        chain = Some(ChainState {
                            state,
                            role: after_sym,
                            exempt,
                            synced: j,
                            first_segment: segments.len(),
                            existing: false,
                            start_root: EXEMPT,
                        });
                        segments.push((after_sym, idx));
                    }
                    Some(ch) => {
                        // Untouched gap since the last sync point. Gap
                        // steps always have global index ≥ 2 (something
                        // was tracked before them), so Proper/Lazy
                        // exempt; otherwise advance by the gap — the
                        // trap property makes the endpoint check
                        // equivalent to per-step checks.
                        let gap = j - 1 - ch.synced;
                        if gap > 0 && !ch.exempt {
                            if fold_all {
                                ch.exempt = true;
                            } else {
                                ch.state = advance_many(dfa, ch.state, ch.role, gap);
                                if !dfa.is_accepting(ch.state) {
                                    return Err(());
                                }
                            }
                        }
                        // The touch itself.
                        let role_changed = after_sym != ch.role;
                        let object_changed = role_changed || od.tuple_changed;
                        if !ch.exempt && idx >= 2 {
                            ch.exempt = match ctx.kind {
                                PatternKind::All | PatternKind::ImmediateStart => false,
                                PatternKind::Proper => !object_changed,
                                PatternKind::Lazy => !role_changed,
                            };
                        }
                        if !ch.exempt {
                            ch.state = dfa.step(ch.state, after_sym);
                            if !dfa.is_accepting(ch.state) {
                                return Err(());
                            }
                        }
                        if role_changed {
                            segments.push((after_sym, idx));
                        }
                        ch.role = after_sym;
                        ch.synced = j;
                    }
                }
            }
            let ch = chain.as_mut().expect("first touch created or found the object");
            // Trailing untouched steps through the end of the batch.
            let tail = k - ch.synced;
            if tail > 0 && !ch.exempt {
                if fold_all {
                    ch.exempt = true;
                } else {
                    ch.state = advance_many(dfa, ch.state, ch.role, tail);
                    if !dfa.is_accepting(ch.state) {
                        return Err(());
                    }
                }
            }
            let target = if ch.exempt { Target::Exempt } else { Target::Key(ch.state, ch.role) };
            let new_segments = ch.first_segment..segments.len();
            moves.push(if ch.existing {
                BatchMove::Move { oid, segments: new_segments, target }
            } else {
                BatchMove::Insert { oid, segments: new_segments, target }
            });
        }

        // One sweep over the untouched cohort remainders.
        advanced.clear();
        emptied.clear();
        for (&(cstate, role), &root) in &self.by_key {
            let remaining = self.cohorts[root as usize].size - leaving[root as usize];
            if remaining == 0 {
                if !fold_all {
                    emptied.push(root);
                }
                continue;
            }
            if fold_all {
                continue;
            }
            let st = advance_many(dfa, cstate, role, k);
            if !dfa.is_accepting(st) {
                return Err(());
            }
            advanced.push((root, st));
        }

        stage.touched = stage.moves.len();
        stage.fold_all = fold_all;
        stage.k = k;
        stage.pre_state = pre.state;
        stage.pre_exempt = pre.exempt;
        Ok(())
    }

    /// Write a staged batch: debit leavers, advance or fold the untouched
    /// cohorts, place every touched object in `records`, marking it in
    /// `dirty`, and advance this partition's letter clock by the staged
    /// `k` (a single application's commit is the `k = 1` case).
    /// `stage`'s buffers are left for the next
    /// [`stage_batch`](Self::stage_batch).
    pub(crate) fn commit_batch(
        &mut self,
        (records, dirty): (&mut Records, &mut DirtySet),
        stage: &mut BatchStage,
    ) {
        let BatchStage {
            moves,
            segments,
            leaving,
            advanced,
            emptied,
            fold_all,
            touched,
            k,
            pre_state,
            pre_exempt,
            ..
        } = stage;
        let (fold_all, k) = (*fold_all, *k);
        self.last_touched = *touched;
        self.steps += k;
        self.pre_state = *pre_state;
        self.pre_exempt = *pre_exempt;
        if fold_all {
            // Every untouched object becomes exempt: fold all non-exempt
            // cohorts into the sink, recycling slots nobody routes
            // through.
            for (_, root) in std::mem::take(&mut self.by_key) {
                let leave = std::mem::take(&mut leaving[root as usize]);
                let untouched = self.cohorts[root as usize].size - leave;
                self.cohorts[root as usize].size = 0;
                if untouched == 0 {
                    self.free.push(root);
                } else {
                    self.cohorts[root as usize].parent = EXEMPT;
                    self.cohorts[EXEMPT as usize].size += untouched;
                }
            }
            // What is left are touched members leaving the sink itself;
            // their moves below re-target them, so debit now.
            debug_assert!(leaving.iter().enumerate().all(|(c, &n)| n == 0 || c == EXEMPT as usize));
            self.cohorts[EXEMPT as usize].size -= leaving[EXEMPT as usize];
        } else if advanced.iter().all(|&(root, st)| self.cohorts[root as usize].state == st) {
            // No key moved (every surviving cohort's state is a fixed
            // point of its role): the table stays, less the emptied
            // cohorts' keys — what the rebuild below would make of it.
            for (cohort, &n) in self.cohorts.iter_mut().zip(leaving.iter()) {
                cohort.size -= n;
            }
            for &root in emptied.iter() {
                let c = &self.cohorts[root as usize];
                debug_assert_eq!(c.size, 0);
                self.by_key.remove(&(c.state, c.last_role));
                self.free.push(root);
            }
        } else {
            for (cohort, &n) in self.cohorts.iter_mut().zip(leaving.iter()) {
                cohort.size -= n;
            }
            let mut new_keys: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for &(root, new_state) in advanced.iter() {
                let role = self.cohorts[root as usize].last_role;
                self.cohorts[root as usize].state = new_state;
                match new_keys.entry((new_state, role)) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(root);
                    }
                    std::collections::btree_map::Entry::Occupied(e) => {
                        // Two cohorts converged on one DFA state: merge.
                        let survivor = *e.get();
                        let sz = self.cohorts[root as usize].size;
                        self.cohorts[root as usize].parent = survivor;
                        self.cohorts[root as usize].size = 0;
                        self.cohorts[survivor as usize].size += sz;
                    }
                }
            }
            self.by_key = new_keys;
            for &root in emptied.iter() {
                debug_assert_eq!(self.cohorts[root as usize].size, 0);
                self.free.push(root);
            }
        }
        for mv in moves.drain(..) {
            match mv {
                BatchMove::Insert { oid, segments: new, target } => {
                    let c = self.cohort_for(target);
                    self.cohorts[c as usize].size += 1;
                    let segments = Segments::from_slice(&segments[new]);
                    records.insert(oid, ObjRecord { segments, cohort: c, shard: self.shard });
                    self.tracked += 1;
                    dirty.insert(oid);
                }
                BatchMove::Move { oid, segments: new, target } => {
                    let c = self.cohort_for(target);
                    self.cohorts[c as usize].size += 1;
                    let rec = records.get_mut(self.shard, oid).expect("tracked");
                    rec.cohort = c;
                    rec.segments.extend_from_slice(&segments[new]);
                    dirty.insert(oid);
                }
            }
        }
        if self.needs_compaction() {
            self.compact(records);
        }
    }
}

// ---------------------------------------------------------------------
// Constraint evolution (redefine)
// ---------------------------------------------------------------------

/// Fate of the enforced histories ending at one old-DFA state under a
/// redefinition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CohortFate {
    /// Every enforced history ending at this old state lands at exactly
    /// this accepting new-DFA state — the cohort migrates wholesale.
    Viable(u32),
    /// Histories ending here either diverge under the new DFA or all
    /// leave it: the cohort is residue, handled per policy.
    Residue,
}

/// The product-construction viability analysis behind `redefine`: walk
/// the product of the old DFA with the new one over every path the old
/// DFA certifies (enforced histories visit only accepting old states —
/// the inventory is prefix-closed), recording per old state the set of
/// new-DFA states such histories could be in (`None` = already outside
/// the new language, a trap). A cohort keyed on old state `q` is viable
/// iff that set is a single accepting new state: then *every* history
/// the cohort compresses provably remaps there, without reading one
/// object record. O(|Q_old| × |Q_new| × |Σ|), independent of the
/// database size.
pub(crate) fn viability_map(old: &Dfa, new: &Dfa) -> Vec<CohortFate> {
    let ns = old.num_symbols();
    let nq_old = old.num_states();
    let dead = new.num_states() as u32; // sentinel for "left the new language"
    let width = dead as usize + 1;
    let mut seen = vec![false; nq_old * width];
    let mut sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nq_old];
    let start_new = if new.is_accepting(new.start()) { new.start() } else { dead };
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    seen[old.start() as usize * width + start_new as usize] = true;
    sets[old.start() as usize].insert(start_new);
    queue.push_back((old.start(), start_new));
    while let Some((qo, qn)) = queue.pop_front() {
        for s in 0..ns {
            let qo2 = old.step(qo, s);
            if !old.is_accepting(qo2) {
                // No enforced history ever reaches a non-accepting old
                // state: admission checks every step.
                continue;
            }
            let qn2 = if qn == dead {
                dead
            } else {
                let t = new.step(qn, s);
                if new.is_accepting(t) {
                    t
                } else {
                    dead
                }
            };
            let idx = qo2 as usize * width + qn2 as usize;
            if !seen[idx] {
                seen[idx] = true;
                sets[qo2 as usize].insert(qn2);
                queue.push_back((qo2, qn2));
            }
        }
    }
    sets.into_iter()
        .map(|s| match (s.len(), s.first().copied()) {
            (1, Some(q)) if q != dead => CohortFate::Viable(q),
            _ => CohortFate::Residue,
        })
        .collect()
}

impl DeltaState {
    /// Read-only redefinition viability of this partition's never-created
    /// class: its pattern is ∅^steps in shard-local time, so re-derive the
    /// walk on the new DFA. `Err(steps)` when the walk leaves the new
    /// language while still enforced — the whole redefinition must be
    /// refused (future creations derive from this walk; it cannot be
    /// quarantined). O(min(steps, |Q_new|)) via the cycle cut.
    pub(crate) fn redefine_pre_walk(&self, new_dfa: &Dfa, empty: u32) -> Result<u32, usize> {
        let st = advance_many(new_dfa, new_dfa.start(), empty, self.steps);
        // Endpoint check ≡ per-step checks: reachable non-accepting
        // states of a prefix-closed language's DFA are traps.
        if !self.pre_exempt && !new_dfa.is_accepting(st) {
            return Err(self.steps);
        }
        Ok(st)
    }

    /// Apply a checked redefinition to this partition in O(|cohorts|):
    /// rewrite each root cohort's DFA state per its [`CohortFate`],
    /// re-key the table (merging cohorts that converge on one new
    /// state), fold residue into the exempt sink — or, under
    /// `certify-and-reset` (`reset`), grandfather the residue's old
    /// history and restart its walk at `δ_new(start, role)` when that
    /// state is accepting. Object records are **never** touched, unless
    /// the cohort table then needs compaction; their cohort slots keep
    /// forwarding through the same roots. Returns `(residue,
    /// quarantined)` object counts.
    pub(crate) fn apply_redefine(
        &mut self,
        records: &mut Records,
        fates: &[CohortFate],
        new_dfa: &Dfa,
        new_pre: u32,
        reset: bool,
    ) -> (usize, usize) {
        self.pre_state = new_pre;
        let (mut residue, mut quarantined) = (0usize, 0usize);
        let mut new_keys: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for ((old_state, role), root) in std::mem::take(&mut self.by_key) {
            let size = self.cohorts[root as usize].size;
            if size == 0 {
                self.free.push(root);
                continue;
            }
            let fate = fates.get(old_state as usize).copied().unwrap_or(CohortFate::Residue);
            let target = match fate {
                CohortFate::Viable(q) => Some(q),
                CohortFate::Residue => {
                    residue += size;
                    if reset {
                        let q = new_dfa.step(new_dfa.start(), role);
                        new_dfa.is_accepting(q).then_some(q)
                    } else {
                        None
                    }
                }
            };
            match target {
                None => {
                    quarantined += size;
                    self.cohorts[root as usize].parent = EXEMPT;
                    self.cohorts[root as usize].size = 0;
                    self.cohorts[EXEMPT as usize].size += size;
                }
                Some(q) => {
                    self.cohorts[root as usize].state = q;
                    match new_keys.entry((q, role)) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(root);
                        }
                        std::collections::btree_map::Entry::Occupied(e) => {
                            let survivor = *e.get();
                            self.cohorts[root as usize].parent = survivor;
                            self.cohorts[root as usize].size = 0;
                            self.cohorts[survivor as usize].size += size;
                        }
                    }
                }
            }
        }
        self.by_key = new_keys;
        if self.needs_compaction() {
            self.compact(records);
        }
        (residue, quarantined)
    }
}

/// Advance `state` by `m` repetitions of `letter` in O(min(m, |Q|))
/// steps and no allocation: repeating one letter must enter a cycle
/// within |Q| steps, so the walk remembers its state at each
/// power-of-two step (Brent's cycle detection) and, once it meets that
/// state again, skips the remaining whole laps of the cycle with
/// modular arithmetic. Checking acceptance of the *returned* state is
/// equivalent to checking every intermediate one, because reachable
/// non-accepting states of a prefix-closed language's DFA are traps.
fn advance_many(dfa: &Dfa, mut state: u32, letter: u32, m: usize) -> u32 {
    let (mut mark, mut marked_at) = (state, 0);
    for step in 1..=m {
        state = dfa.step(state, letter);
        if state == mark {
            // The walk repeats every `step - marked_at` steps from here.
            for _ in 0..(m - step) % (step - marked_at) {
                state = dfa.step(state, letter);
            }
            return state;
        }
        if step.is_power_of_two() {
            (mark, marked_at) = (state, step);
        }
    }
    state
}

/// Per-object chain state while staging a batch.
struct ChainState {
    state: u32,
    role: u32,
    exempt: bool,
    /// Effective batch step the chain is synced through.
    synced: usize,
    /// Where the chain's `(letter, global step)` segments, appended on
    /// commit, start in the stage's segment list.
    first_segment: usize,
    existing: bool,
    start_root: u32,
}

/// Whether a change-set entry is visible to pattern tracking: an object
/// that occurs before or after the step. Objects minted and deleted
/// within one application are never observable (patterns read
/// post-states only) and stay covered by the never-created class.
pub(crate) fn tracked(od: &ObjectDelta) -> bool {
    od.before.is_some() || od.after.is_some()
}

/// The never-created class's walk through `k` ∅ letters — the **single**
/// implementation behind per-application admission, batched admission
/// and WAL replay, which must agree exactly (recovery is byte-identical
/// only if replay re-derives the same trace admission used).
pub(crate) struct PreWalk {
    /// DFA state after the walk.
    pub(crate) state: u32,
    /// Exemption after the walk.
    pub(crate) exempt: bool,
    /// First 1-based step whose ∅ letter escapes the inventory, if any
    /// (the walk stops there).
    pub(crate) violation_at: Option<usize>,
}

/// The walk from `(state, exempt)` at clock `steps0`; `trace` is refilled
/// with the `(state, exempt)` *before* each batch step `1..=k`, indexed
/// by the partition-local letter.
pub(crate) fn never_created_walk(
    dfa: &Dfa,
    empty: u32,
    kind: PatternKind,
    (state0, exempt0, steps0): (u32, bool, usize),
    k: usize,
    trace: &mut Vec<(u32, bool)>,
) -> PreWalk {
    trace.clear();
    let (mut state, mut exempt) = (state0, exempt0);
    for j in 1..=k {
        let idx = steps0 + j;
        trace.push((state, exempt));
        if !exempt && idx >= 2 && matches!(kind, PatternKind::Proper | PatternKind::Lazy) {
            // A second ∅ neither changes the object nor its role set.
            exempt = true;
        }
        state = dfa.step(state, empty);
        if !exempt && !dfa.is_accepting(state) {
            return PreWalk { state, exempt, violation_at: Some(j) };
        }
    }
    PreWalk { state, exempt, violation_at: None }
}

/// Immutable context of one staged batch, shared by every shard. Clock
/// state is *not* here: each partition stages from its own letter
/// clock.
pub(crate) struct BatchCtx<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) alphabet: &'a RoleAlphabet,
    pub(crate) dfa: &'a Dfa,
    pub(crate) kind: PatternKind,
}

/// The staged outcome of [`DeltaState::stage_batch`], whose buffers a
/// partition reuses from block to block.
#[derive(Default)]
pub(crate) struct BatchStage {
    moves: Vec<BatchMove>,
    /// The new segments of every move, each move's a contiguous range.
    segments: Vec<(u32, usize)>,
    /// Members leaving each root cohort, indexed by cohort slot.
    leaving: Vec<usize>,
    /// `(root, state after k untouched letters)` for surviving cohorts.
    advanced: Vec<(u32, u32)>,
    emptied: Vec<u32>,
    fold_all: bool,
    touched: usize,
    /// Letters the partition read — its clock advance on commit.
    k: usize,
    /// Never-created walk endpoint, written back on commit.
    pre_state: u32,
    pre_exempt: bool,
    /// The never-created walk's trace, staging's scratch.
    pre_trace: Vec<(u32, bool)>,
}

/// Final placement of one touched object after a staged batch. A
/// created object's first segment starts at its creation step.
enum BatchMove {
    Insert { oid: Oid, segments: Range<usize>, target: Target },
    Move { oid: Oid, segments: Range<usize>, target: Target },
}

/// The role-set symbol of a raw class set (∅ when absent or outside the
/// alphabet's component) — free function so the admit paths (which hold
/// mutable engine borrows) and the diagnostics path share one
/// implementation.
pub(crate) fn classes_symbol(schema: &Schema, alphabet: &RoleAlphabet, cs: ClassSet) -> u32 {
    RoleSet::new(schema, cs)
        .ok()
        .and_then(|rs| alphabet.symbol_of(rs))
        .unwrap_or_else(|| alphabet.empty_symbol())
}

/// Immutable inputs of a rejection diagnosis; the letter clocks live in
/// the partitions.
pub(crate) struct DiagParams<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) alphabet: &'a RoleAlphabet,
    pub(crate) dfa: &'a Dfa,
    pub(crate) kind: PatternKind,
    /// Constraint epoch the rejection is produced under — stamped into
    /// every [`Violation`] so operators can tell pre- from
    /// post-redefinition rejections.
    pub(crate) epoch: u64,
}

/// Rejection diagnostics for one letter that staging refused: the first
/// violation of the reference engine's scan over each reading
/// partition's sub-run — the never-created class first, then every
/// letter-reading object in ascending oid order. `parts` are the
/// partitions, `records` their records, `reads[i]` whether partition `i`
/// reads this letter, and `route` the partition of a tracked object.
/// Tracking state is the pre-letter state; `delta` maps touched objects
/// to their changes.
///
/// The scan is O(touched + |cohorts|), not O(objects): an untouched
/// object reads its own role again, so under `Proper` and `Lazy` it is
/// exempt from its second letter on, and under `All` and
/// `ImmediateStart` it violates exactly when its root cohort's
/// `δ(state, role)` is non-accepting. When no untouched object can
/// violate, only the touched objects with a record (in the delta's
/// ascending-oid order) and the creations are checked. Only when some
/// untouched cohort leaves the inventory does the scan fall back to
/// every record of the reading partitions, one ascending pass over the
/// table — the reported object may be an untouched one with a lower oid
/// than any touched violator.
pub(crate) fn diagnose_step(
    p: &DiagParams<'_>,
    parts: &[DeltaState],
    records: &Records,
    reads: &[bool],
    route: impl Fn(&ObjectDelta) -> usize,
    delta: &Delta,
) -> Violation {
    let empty = p.alphabet.empty_symbol();
    let reading = || parts.iter().filter(|st| reads[st.shard as usize]);

    // The reference engine checks the never-created class first.
    for st in reading() {
        let state0 = (st.pre_state, st.pre_exempt, st.steps);
        let pre = never_created_walk(p.dfa, empty, p.kind, state0, 1, &mut Vec::new());
        if pre.violation_at.is_some() {
            return Violation {
                oid: None,
                pattern: vec![empty; st.steps + 1],
                letter: empty,
                epoch: p.epoch,
            };
        }
    }

    // Existing objects (every record predates this step).
    let existing = if reading().any(|st| untouched_violates(p, st, records, &route, delta)) {
        // Full scan over the reading partitions' records, in
        // ascending oid order.
        records
            .iter()
            .filter(|(_, rec)| reads[rec.shard as usize])
            .filter_map(|(o, rec)| {
                let od = delta.objects().binary_search_by_key(&o, |od| od.oid).ok();
                let st = &parts[rec.shard as usize];
                existing_violation(p, st, o, rec, od.map(|i| &delta.objects()[i]))
            })
            .next()
    } else {
        delta
            .objects()
            .iter()
            .filter(|od| tracked(od))
            .filter_map(|od| {
                let st = &parts[route(od)];
                let rec = records.get(st.shard, od.oid)?;
                existing_violation(p, st, od.oid, rec, Some(od))
            })
            .next()
    };
    if let Some(v) = existing {
        return v;
    }

    // Objects created by this step (their oids are larger than every
    // tracked one, so this continues the ascending-oid scan).
    for od in delta.objects() {
        if !od.created() {
            continue;
        }
        let st = &parts[route(od)];
        let step_idx = st.steps + 1;
        let after_sym = after_symbol(p, od);
        let exempt = match p.kind {
            PatternKind::All => false,
            PatternKind::ImmediateStart => step_idx > 1,
            PatternKind::Proper | PatternKind::Lazy => st.pre_exempt,
        };
        let new_state = p.dfa.step(st.pre_state, after_sym);
        if !exempt && !p.dfa.is_accepting(new_state) {
            let mut pattern = vec![empty; step_idx - 1];
            pattern.push(after_sym);
            return Violation { oid: Some(od.oid), pattern, letter: after_sym, epoch: p.epoch };
        }
    }
    unreachable!("diagnose_step called without a violating object")
}

/// Whether an **untouched** object of partition `st` violates this
/// letter — O(|cohorts|), plus O(touched) per failing cohort. Untouched
/// objects repeat their role, so they are exempt from their second
/// letter on under `Proper`/`Lazy` (a record implies a committed
/// letter), and otherwise violate iff some root cohort with a member
/// the letter does not touch steps to a non-accepting state.
fn untouched_violates(
    p: &DiagParams<'_>,
    st: &DeltaState,
    records: &Records,
    route: &impl Fn(&ObjectDelta) -> usize,
    delta: &Delta,
) -> bool {
    if st.steps >= 1 && matches!(p.kind, PatternKind::Proper | PatternKind::Lazy) {
        return false;
    }
    st.by_key.iter().any(|(&(state, role), &root)| {
        if p.dfa.is_accepting(p.dfa.step(state, role)) {
            return false;
        }
        // Members the letter touches read their own new letter.
        let touched = delta
            .objects()
            .iter()
            .filter(|od| tracked(od) && route(od) == st.shard as usize)
            .filter(|od| {
                records.get(st.shard, od.oid).is_some_and(|r| st.find_ro(r.cohort) == root)
            })
            .count();
        st.cohorts[root as usize].size > touched
    })
}

/// The reference engine's check of one tracked object reading this
/// letter: `od` is its change, `None` when the letter leaves it
/// untouched.
fn existing_violation(
    p: &DiagParams<'_>,
    st: &DeltaState,
    o: Oid,
    rec: &ObjRecord,
    od: Option<&ObjectDelta>,
) -> Option<Violation> {
    let (after_sym, role_changed, object_changed) = match od {
        Some(od) => {
            let after_sym = after_symbol(p, od);
            let role_changed = after_sym != rec.current_role();
            (after_sym, role_changed, role_changed || od.tuple_changed)
        }
        None => (rec.current_role(), false, false),
    };
    let root = st.find_ro(rec.cohort);
    let step_idx = st.steps + 1;
    let mut exempt = root == EXEMPT;
    if !exempt && step_idx >= 2 {
        exempt = match p.kind {
            PatternKind::All | PatternKind::ImmediateStart => false,
            PatternKind::Proper => !object_changed,
            PatternKind::Lazy => !role_changed,
        };
    }
    if exempt || p.dfa.is_accepting(p.dfa.step(st.cohorts[root as usize].state, after_sym)) {
        return None;
    }
    let mut pattern = rec.pattern_through(p.alphabet.empty_symbol(), step_idx - 1);
    pattern.push(after_sym);
    Some(Violation { oid: Some(o), pattern, letter: after_sym, epoch: p.epoch })
}

/// The role symbol an object reads after this letter (∅ once deleted).
fn after_symbol(p: &DiagParams<'_>, od: &ObjectDelta) -> u32 {
    match od.after_classes() {
        Some(cs) => classes_symbol(p.schema, p.alphabet, cs),
        None => p.alphabet.empty_symbol(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn rec(shard: u32, tag: usize) -> ObjRecord {
        ObjRecord { segments: Segments::one((1, tag)), cohort: EXEMPT, shard }
    }

    /// Inline history bytes keep a table entry at 32 bytes: the inline
    /// bytes with their length, and the heap buffer with its, share 24
    /// bytes under one tag byte, and an empty entry takes no tag of its
    /// own.
    #[test]
    fn an_inline_segment_grows_no_row() {
        assert_eq!(std::mem::size_of::<Segments>(), 24);
        assert_eq!(std::mem::size_of::<Option<ObjRecord>>(), 32);
    }

    /// The pattern a list of segments stands for, expanded the way the
    /// segment vector was: ∅ before the first start, then each letter
    /// from its start through the step before the next one's, the last
    /// through `upto`.
    fn expand(segments: &[(u32, usize)], empty: u32, upto: usize) -> MigrationPattern {
        let mut p = vec![empty; segments[0].1 - 1];
        for (i, &(letter, from)) in segments.iter().enumerate() {
            let end = segments.get(i + 1).map_or(upto, |&(_, next)| next - 1);
            p.extend(std::iter::repeat_n(letter, end + 1 - from));
        }
        p
    }

    /// The byte form against a `Vec<(u32, usize)>` oracle, on random
    /// histories of 1–64 segments with letters up to `u32::MAX` and
    /// starts up to `usize::MAX`, each built from a slice, pair by pair,
    /// and by `extend` in two parts: the bytes are the pairs' varints as
    /// the codec writes them, inline exactly while they fit, and every
    /// form decodes, counts, compares and prints as the oracle does.
    /// Ascending histories at small clocks expand to the pattern the
    /// segment vector did.
    #[test]
    fn segment_forms_agree() {
        use migratory_model::codec::encode_u64;
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(0x5e9_b17e5);
        // At most `max`: small, mid-sized, `max` itself, or any bits of it.
        let mut draw = |max: u64| match rng.random_range(0..4) {
            0 => rng.random_range(0..max.min(3) + 1),
            1 => rng.random_range(0..max.min(1 << 14) + 1),
            2 => max,
            _ => rng.next_u64() & max,
        };
        for run in 0..400 {
            let n = 1 + (run % 64);
            let want: Vec<(u32, usize)> = (0..n)
                .map(|_| (draw(u32::MAX.into()) as u32, draw(usize::MAX as u64) as usize))
                .collect();
            let mut bytes = Vec::new();
            for &(letter, from) in &want {
                encode_u64(&mut bytes, letter.into());
                encode_u64(&mut bytes, from as u64);
            }
            let staged = Segments::from_slice(&want);
            let mut pairwise = Segments::one(want[0]);
            for &segment in &want[1..] {
                pairwise.push(segment);
            }
            let cut = 1 + run % n;
            let mut extended = Segments::one(want[0]);
            extended.extend_from_slice(&want[1..cut]);
            extended.extend_from_slice(&want[cut..]);
            for segments in [&staged, &pairwise, &extended] {
                assert_eq!(segments.bytes(), bytes, "the codec's bytes");
                let inline = matches!(segments, Segments::Inline { .. });
                assert_eq!(inline, bytes.len() <= INLINE, "inline exactly while it fits");
                assert!(segments.iter().eq(want.iter().copied()));
                assert_eq!(segments.len(), n);
                let rec = ObjRecord { segments: segments.clone(), cohort: EXEMPT, shard: 0 };
                assert_eq!(rec.creation_step(), want[0].1);
                assert_eq!(rec.current_role(), want[n - 1].0);
                assert_eq!(segments, &staged);
                assert_eq!(format!("{segments:?}"), format!("{want:?}"));
            }
            let mut other = want.clone();
            other[run % n].0 ^= 1;
            assert_ne!(Segments::from_slice(&other), staged, "a changed letter");
            if n > 1 {
                assert_ne!(Segments::from_slice(&want[..n - 1]), staged, "a prefix");
            }
            // Ascending starts at clocks a pattern can be expanded to.
            let mut from = 0;
            let small: Vec<(u32, usize)> = (0..n)
                .map(|_| {
                    from += 1 + draw(5) as usize;
                    (draw(6) as u32, from)
                })
                .collect();
            let upto = from + draw(4) as usize;
            let rec =
                ObjRecord { segments: Segments::from_slice(&small), cohort: EXEMPT, shard: 0 };
            assert_eq!(rec.pattern_through(0, upto), expand(&small, 0, upto), "{small:?}");
        }
    }

    /// A history's size: 1,000 role changes at clocks below 2²¹ take at
    /// most 4 bytes a segment (a letter below 128 in one byte, a start
    /// in three), and the heap buffer holds at most twice the bytes it
    /// uses.
    #[test]
    fn a_history_holds_its_bytes_and_at_most_as_much_slack() {
        let mut rng = StdRng::seed_from_u64(2_097_152);
        let mut segments = Segments::one((1, 1));
        let mut from = 1;
        for i in 0..1_000u32 {
            from += rng.random_range(1..2_000);
            segments.push((1 + i % 5, from));
            let used = segments.bytes().len();
            assert!(
                segments.capacity() <= 2 * used.max(INLINE),
                "{used} in {}",
                segments.capacity()
            );
        }
        assert!(from < 1 << 21);
        assert_eq!(segments.len(), 1_001);
        let used = segments.bytes().len();
        assert!(used <= 4 * 1_001, "{used} bytes");
        assert!(segments.capacity() <= 2 * used, "{used} in {}", segments.capacity());
    }

    /// The monitor's dirty set against a `BTreeSet`: marks in any
    /// order, across word boundaries and repeated, drain ascending and
    /// once each, and leave the set empty.
    #[test]
    fn dirty_set_drains_ascending_and_once() {
        let mut rng = StdRng::seed_from_u64(64);
        let mut set = DirtySet::default();
        for _round in 0..20 {
            let mut oracle = BTreeSet::new();
            for _ in 0..rng.random_range(0..300) {
                let o = Oid(rng.random_range(1..2_000));
                set.insert(o);
                oracle.insert(o);
            }
            if rng.random_range(0..5) == 0 {
                set.clear();
                oracle.clear();
            }
            assert_eq!(set.drain(), oracle.into_iter().collect::<Vec<_>>());
            assert!(set.drain().is_empty(), "drained");
        }
    }

    /// The record table against one `BTreeMap` per partition: fresh
    /// oids above the top interleaved across partitions (the engine's
    /// case), replacements and fills below the top through `try_entry`
    /// (only a hand-edited increment does the latter), and dropping a
    /// partition's records. Every lookup — another partition's oid
    /// included — each partition's walk in oid order, the whole table's
    /// and its equality with the same records inserted afresh agree.
    #[test]
    fn records_agree_with_a_btreemap_oracle() {
        const SHARDS: u32 = 3;
        let mut rng = StdRng::seed_from_u64(2_718_281);
        for _run in 0..40 {
            let mut table = Records::default();
            let mut oracle: Vec<BTreeMap<Oid, ObjRecord>> = vec![BTreeMap::new(); SHARDS as usize];
            for step in 0..120 {
                let top = table.last_oid().map_or(0, |o| o.0);
                let shard = rng.random_range(0..SHARDS);
                match rng.random_range(0..6) {
                    // A fresh oid above the top, sometimes with a gap.
                    0..=2 => {
                        let o = Oid(top + rng.random_range(1..4));
                        table.insert(o, rec(shard, step));
                        oracle[shard as usize].insert(o, rec(shard, step));
                    }
                    // Replace a record (its partition keeps it) or fill
                    // an entry at or below the top.
                    3 | 4 => {
                        let o = Oid(rng.random_range(1..top + 2));
                        let owner = oracle.iter().position(|m| m.contains_key(&o));
                        let shard = owner.map_or(shard, |s| s as u32);
                        *table.try_entry(o).unwrap() = Some(rec(shard, step));
                        oracle[shard as usize].insert(o, rec(shard, step));
                    }
                    _ => {
                        table.clear_shard(shard);
                        oracle[shard as usize].clear();
                    }
                }
                let mut all: Vec<(Oid, &ObjRecord)> =
                    oracle.iter().flatten().map(|(&o, r)| (o, r)).collect();
                all.sort_by_key(|&(o, _)| o);
                let max = all.last().map_or(0, |&(o, _)| o.0);
                assert_eq!(table.last_oid().map_or(0, |o| o.0), max, "the highest record");
                for i in 0..=max + 2 {
                    let o = Oid(i);
                    for s in 0..SHARDS {
                        let want = oracle[s as usize].get(&o);
                        assert_eq!(table.get(s, o), want, "o{i} of partition {s}");
                        assert_eq!(table.get_mut(s, o).map(|r| &*r), want, "o{i} of {s}, mutably");
                    }
                    let any = all.iter().find(|&&(p, _)| p == o).map(|&(_, r)| r);
                    assert_eq!(table.find(o), any, "o{i} of any partition");
                }
                for s in 0..SHARDS {
                    let want = &oracle[s as usize];
                    assert!(
                        table.of_shard(s).eq(want.iter().map(|(&o, r)| (o, r))),
                        "{s} in order"
                    );
                    assert!(table.of_shard_mut(s).map(|r| &*r).eq(want.values()), "{s}, mutably");
                }
                assert!(table.iter().eq(all.iter().copied()), "the whole table in oid order");
                let mut afresh = Records::default();
                for &(o, r) in &all {
                    afresh.insert(o, r.clone());
                }
                assert_eq!(afresh, table, "no entry past the highest record");
            }
        }
    }

    /// `advance_many` against stepping `m` times, on seeded random DFAs
    /// (sizes 1–40, so tails and cycles of every length occur): every
    /// state and letter, every `m` from 0 to 4·|Q|, and a few large `m`.
    #[test]
    fn advance_many_agrees_with_repeated_stepping() {
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        for _dfa in 0..60 {
            let states: u32 = rng.random_range(1..41);
            let symbols: u32 = rng.random_range(1..4);
            let trans = (0..states * symbols).map(|_| rng.random_range(0..states)).collect();
            let accept = (0..states).map(|_| rng.random_range(0..2) == 1).collect();
            let dfa = Dfa::from_parts(symbols, trans, accept, 0);
            let large = [10_007, 1 << 20, usize::MAX];
            for q in 0..states {
                for letter in 0..symbols {
                    // `walk[m]` is the state after `m` naive steps.
                    let mut walk = vec![q];
                    for _ in 0..4 * states {
                        walk.push(dfa.step(*walk.last().unwrap(), letter));
                    }
                    for (m, &want) in walk.iter().enumerate() {
                        assert_eq!(advance_many(&dfa, q, letter, m), want, "q{q} ×{m} of {letter}");
                    }
                    // Past 4·|Q| the walk is periodic with the cycle
                    // length, which divides some period ≤ |Q| found by
                    // looking back from the end of `walk`.
                    let n = walk.len() - 1;
                    let period = (1..=states as usize).find(|&p| walk[n] == walk[n - p]).unwrap();
                    for m in large {
                        let want = walk[n - period + (m - n) % period];
                        assert_eq!(advance_many(&dfa, q, letter, m), want, "q{q} ×{m} of {letter}");
                    }
                }
            }
        }
    }
}
