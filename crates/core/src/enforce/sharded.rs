//! Sharded, batched concurrent admission with **per-shard letter
//! clocks**.
//!
//! Lemma 3.5 is the paper's parallelism theorem: SL transactions commute
//! with database restriction (`⟦T⟧(d|I) = (⟦T⟧(d))|I`), i.e. objects
//! evolve **independently** — one object's migration pattern never
//! depends on another object's state. Under a component alphabet the
//! independence is total: an object of one weakly-connected role
//! component never reads another component's letters, so there is
//! nothing left for disjoint components to coordinate through — not
//! even a step counter.
//!
//! A [`ShardedMonitor`] exploits exactly that. It keeps one
//! `DeltaState` tracking partition per shard — their records share one
//! oid-indexed table, each tagged with its shard — routed
//!
//! * by the schema's **weakly-connected role components** when it has
//!   more than one — an object's classes stay inside a single component
//!   for its whole life (Definition 2.2), so the route is stable; or
//! * by **oid stripe** (`oid mod shards`) as the fallback for
//!   single-component schemas — equally stable, since identifiers are
//!   minted once and never reused.
//!
//! # Shard-local time
//!
//! Each shard carries its **own letter clock** (`enforce::delta`): a
//! committed block advances only the clocks of the shards whose objects
//! it touches (every shard, under oid striping — stripes split one
//! component, whose objects all read every letter). A shard's run is
//! therefore the subsequence of effective deltas routed to it, in
//! shard-local time, and each shard is observationally identical to a
//! one-shard monitor — and to a [`ReferenceMonitor`](super::ReferenceMonitor)
//! — fed exactly that subsequence: same accept/reject decisions,
//! byte-identical [`Violation`]s, same recorded patterns (the randomized
//! per-component-oracle suite in `tests/delta_monitor.rs` checks
//! this). Disjoint components stage, commit, checkpoint and recover
//! fully independently; there is no global step counter left to
//! contend on, only a derived [`ShardedMonitor::clocks`] view. With one
//! shard, that shard's clock is the paper's global step counter.
//!
//! Admission stages every participating shard *read-only*, one after
//! another on the calling thread, and commits only after all shards
//! accept, so a rejected application never leaks tracking state.
//! Staging runs inline. Under component routing the ingress drains one
//! lane — one shard — per block, so a thread per shard buys no
//! parallelism; under oid striping every stripe stages every block, but
//! a stripe's share of one block costs less than spawning and joining a
//! thread for it.
//!
//! # Batch admission
//!
//! [`ShardedMonitor::try_apply_batch`] validates a whole block of
//! transactions against **one cohort sweep per participating shard**:
//! untouched cohorts are advanced `k_s` DFA letters in a single pass
//! (sound because inventories are prefix-closed, so reachable
//! non-accepting states are traps and endpoint checks subsume
//! intermediate ones), while touched objects replay their exact
//! interleaving of touch and gap steps. On a violation, read-only
//! stagings of prefixes (a binary search, O(log k) of them) find the
//! first violating letter; the conforming prefix before it commits as
//! one block — one WAL record — and the violating letter is diagnosed
//! against the committed state. That keeps the longest-conforming-prefix
//! semantics and the per-shard-reference [`Violation`] diagnostics.
//!
//! # Certification
//!
//! A one-shard monitor can be **statically certified**
//! ([`ShardedMonitor::certify`], Corollary 3.3): admission then skips
//! every check and tracking freezes at the certification clock. The
//! `Certified` log marker and a snapshot's certification horizon carry a
//! single clock, so a monitor with more shards refuses to certify and
//! to recover a certified log or snapshot.
//!
//! # Replay
//!
//! Recovery ([`ShardedMonitor::recover`]), [`ShardedMonitor::resync`]
//! and a standby's fold of shipped records all run each record through
//! [`ShardedMonitor::replay_record`]: skip what the checkpoint chain
//! already covers, refuse gaps, keep the epoch ladder, freeze tracking
//! at a certification marker.

use super::delta::{
    diagnose_step, BatchCtx, BatchStage, DeltaState, DiagParams, Records, Touch, EXEMPT,
};
use super::wal::{self, BlockRef, CheckpointDelta, ShardLetters, Snapshot, WalError, WalRecord};
use super::{EnforceError, RedefineOutcome, ResiduePolicy, SharedSink, StepPolicy, Violation};
use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use crate::inventory::Inventory;
use crate::pattern::{MigrationPattern, PatternKind};
use migratory_lang::{
    apply_transaction, apply_transaction_delta, Assignment, Delta, ObjectDelta, Transaction,
    TransactionSchema,
};
use migratory_model::{Instance, Oid, Schema};
use std::sync::PoisonError;

/// An effective block staged read-only on every participating shard:
/// the half of admission that decides, handed to
/// [`ShardedMonitor::commit_staged`] to log and write.
struct StagedBlock {
    /// Per shard, the indices of the block's deltas it reads as
    /// letters (empty: the shard does not participate).
    letters: Vec<Vec<u32>>,
    /// Per shard, its staged tracking changes.
    stages: Vec<Option<BatchStage>>,
}

/// How objects are assigned to shards.
#[derive(Clone, Debug)]
enum Router {
    /// One stable shard per weakly-connected role component (components
    /// beyond the shard count wrap around round-robin).
    Component { shard_of: Vec<usize> },
    /// `oid mod n` striping — the fallback when the schema has a single
    /// component.
    OidStripe { n: u64 },
}

/// Point-in-time statistics of one shard (see
/// [`ShardedMonitor::shard_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard's letter clock (letters its objects have read).
    pub clock: usize,
    /// Objects tracked by this shard (live and deleted).
    pub tracked_objects: usize,
    /// Live non-exempt cohorts (distinct (DFA state, role) pairs).
    pub live_cohorts: usize,
    /// Objects folded into the exempt sink.
    pub exempt_objects: usize,
    /// Touched objects of the last admitted application or batch.
    pub last_touched: usize,
}

/// A database guarded by a migration inventory, with admission tracking
/// sharded across independent object partitions — each on its own
/// letter clock — and a batch API.
///
/// Each shard is observationally identical to a one-shard monitor fed
/// the subsequence of effective applications routed to it (same
/// accept/reject decisions, byte-identical [`Violation`]s, same patterns
/// in shard-local time). With `shards = 1` this is the paper's single
/// monitor (see the [module docs](super) for an example).
///
/// ```
/// use migratory_core::enforce::ShardedMonitor;
/// use migratory_core::{Inventory, PatternKind, RoleAlphabet};
/// use migratory_lang::{parse_transactions, Assignment};
/// use migratory_model::{schema::university_schema, Value};
///
/// let s = university_schema();
/// let a = RoleAlphabet::new(&s, 0).unwrap();
/// let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
/// let ts = parse_transactions(&s, r#"
///     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
///     transaction St(x) {
///       specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
///     }
/// "#).unwrap();
/// let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 4);
/// let script: Vec<_> = (0..8)
///     .map(|i| (ts.get("Mk").unwrap(), Assignment::new(vec![Value::str(&format!("{i}"))])))
///     .collect();
/// let batch: Vec<_> = script.iter().map(|(t, a)| (*t, a)).collect();
/// let (committed, err) = m.try_apply_batch(batch);
/// assert_eq!((committed, err), (8, None));
/// assert_eq!(m.db().num_objects(), 8);
/// ```
#[derive(Clone)]
pub struct ShardedMonitor<'a> {
    schema: &'a Schema,
    alphabet: &'a RoleAlphabet,
    /// Owned: [`ShardedMonitor::redefine`] swaps it under a live
    /// monitor.
    inventory: Inventory,
    /// The constructor's (epoch-0) inventory — what a from-scratch
    /// replay of the durable image starts from
    /// ([`ShardedMonitor::resync`]).
    base_inventory: Inventory,
    kind: PatternKind,
    policy: StepPolicy,
    /// Constraint-evolution epoch: 0 until the first redefinition, +1
    /// per admitted [`ShardedMonitor::redefine`].
    epoch: u64,
    /// Admitted redefinitions, cumulative.
    redefine_total: u64,
    /// Objects quarantined by redefinitions, cumulative.
    quarantined_total: u64,
    db: Instance,
    /// The tracking partitions — each with its **own letter clock**;
    /// no shared counter exists.
    pub(super) shards: Vec<DeltaState>,
    /// Every shard's tracking records, one table indexed by oid.
    pub(super) records: Records,
    router: Router,
    /// Where committed blocks are logged before tracking state is
    /// written (`None`: volatile monitor).
    sink: Option<SharedSink>,
    /// A [`ShardedMonitor::certify`] succeeded (one shard only):
    /// admission runs no checks and tracking is frozen.
    certified: bool,
    /// Shard 0's clock when certification took effect — the horizon at
    /// which tracking froze.
    certified_at: Option<usize>,
}

impl<'a> ShardedMonitor<'a> {
    /// A sharded monitor over the empty database. `shards` is the
    /// requested partition count: schemas with several weakly-connected
    /// components are routed by component (capped at the component
    /// count); single-component schemas fall back to oid striping with
    /// exactly `shards` stripes.
    #[must_use]
    pub fn new(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        shards: usize,
    ) -> ShardedMonitor<'a> {
        let requested = shards.max(1);
        let components = schema.num_components();
        let (router, n) = if components > 1 {
            let n = requested.min(components);
            (Router::Component { shard_of: (0..components).map(|c| c % n).collect() }, n)
        } else {
            (Router::OidStripe { n: requested as u64 }, requested)
        };
        let start = inventory.dfa().start();
        // ∅ⁿ never starts with a non-∅ letter.
        let pre_exempt = kind == PatternKind::ImmediateStart;
        ShardedMonitor {
            schema,
            alphabet,
            inventory: inventory.clone(),
            base_inventory: inventory.clone(),
            kind,
            policy: StepPolicy::default(),
            epoch: 0,
            redefine_total: 0,
            quarantined_total: 0,
            db: Instance::empty(),
            shards: (0..n)
                .map(|i| {
                    let shard = u32::try_from(i).expect("a shard index fits in u32");
                    DeltaState::new(shard, start, pre_exempt)
                })
                .collect(),
            records: Records::default(),
            router,
            sink: None,
            certified: false,
            certified_at: None,
        }
    }

    /// Choose when applications contribute letters (default:
    /// [`StepPolicy::EveryApplication`]).
    #[must_use]
    pub fn with_policy(mut self, policy: StepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a [`CommitSink`](super::CommitSink): every admitted block
    /// is appended *before* any shard's tracking state commits
    /// (write-ahead, one record per block — group commit), and a sink
    /// failure rolls the whole block back
    /// ([`EnforceError::Durability`]).
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Swap the commit sink in place, returning the previous one. An
    /// ingress with a write-ahead log ([`super::ingress::serve`])
    /// installs its staging sink for the duration of a serve and
    /// restores the caller's sink on exit.
    pub(crate) fn set_sink(&mut self, sink: Option<SharedSink>) -> Option<SharedSink> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// The current database.
    #[must_use]
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// One shard's letter clock: the number of effective letters its
    /// objects have read, in shard-local time.
    ///
    /// # Panics
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn clock(&self, shard: usize) -> usize {
        self.shards[shard].steps
    }

    /// Every shard's letter clock. Under oid striping the stripes
    /// advance in lockstep (they split one component, whose objects all
    /// read every letter); under component routing the clocks are fully
    /// independent.
    #[must_use]
    pub fn clocks(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.steps).collect()
    }

    /// Sum of the per-shard letter clocks — a monotone progress
    /// measure. (A delta spanning several components counts once per
    /// participating shard; disjoint-component workloads have none.)
    #[must_use]
    pub fn letters_read(&self) -> usize {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard tracking statistics.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStats {
                shard,
                clock: s.steps,
                tracked_objects: s.tracked,
                live_cohorts: s.by_key.len(),
                exempt_objects: s.cohorts[EXEMPT as usize].size,
                last_touched: s.last_touched,
            })
            .collect()
    }

    /// The recorded pattern of an object (present once it has occurred
    /// in the database while tracking ran), reconstructed from its
    /// shard's run-length encoding through that shard's **own** clock.
    /// After a mid-run [`ShardedMonitor::certify`] patterns are frozen
    /// at the certification point: certified steps skip all tracking,
    /// so they must not add repeat letters here either.
    #[must_use]
    pub fn pattern_of(&self, o: Oid) -> Option<MigrationPattern> {
        let rec = self.records.find(o)?;
        let horizon = self.certified_at.unwrap_or(self.shards[rec.shard as usize].steps);
        Some(rec.pattern_through(self.alphabet.empty_symbol(), horizon))
    }

    /// Whether the monitor runs in the certified fast path.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.certified
    }

    /// Statically certify an SL transaction schema against the inventory
    /// (Corollary 3.3). On success the monitor skips all per-object
    /// runtime checks: no application of certified transactions can ever
    /// produce a pattern outside 𝔏. Returns whether `ts` certifies; errs
    /// on non-SL schemas, where the problem is undecidable (Corollary
    /// 4.7).
    ///
    /// Only a one-shard monitor certifies: the
    /// [`WalRecord::Certified`] marker and a snapshot's certification
    /// horizon carry one clock. With more shards this errs
    /// ([`CoreError::NotOneShard`]) and logs nothing.
    ///
    /// Certification is **one-way**: once a monitor is certified, pattern
    /// tracking stops and later `certify` calls only report the new
    /// schema's verdict without re-enabling checks (the tracking state
    /// would be stale). With a sink attached the marker is logged
    /// write-ahead; if it cannot be, certification does not take effect.
    pub fn certify(&mut self, ts: &TransactionSchema) -> Result<bool, CoreError> {
        if self.shards.len() != 1 {
            return Err(CoreError::NotOneShard(self.shards.len()));
        }
        let decision =
            crate::decide::decide(self.schema, self.alphabet, ts, &self.inventory, self.kind)?;
        let holds = decision.satisfies.holds();
        if holds && !self.certified {
            self.freeze(self.shards[0].steps).map_err(|e| CoreError::Durability(e.to_string()))?;
        }
        Ok(holds)
    }

    /// Enter the certified mode at shard-0 clock `at`, logging the
    /// marker first when a sink is attached: recovery would otherwise
    /// replay the unchecked blocks after it through the tracker.
    fn freeze(&mut self, at: usize) -> Result<(), WalError> {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap_or_else(PoisonError::into_inner).certified(at)?;
        }
        self.certified = true;
        self.certified_at = Some(at);
        Ok(())
    }

    /// The shard an object is routed to. Stable across the object's
    /// lifetime: components never change (Definition 2.2) and oids are
    /// never reused.
    fn route(&self, od: &ObjectDelta) -> usize {
        match &self.router {
            Router::Component { shard_of } => {
                let cs = match &od.before {
                    Some((cs, _)) => *cs,
                    None => od.after_classes().expect("routed objects occur before or after"),
                };
                let c = cs.first().expect("memberships are non-empty");
                shard_of[self.schema.component_of(c) as usize]
            }
            Router::OidStripe { n } => (od.oid.0 % n) as usize,
        }
    }

    /// The shard a transaction's letter lands on when its delta touches
    /// no tracked object (an empty-selection or blip-only application
    /// under [`StepPolicy::EveryApplication`]): the shard of the first
    /// class the transaction names — the same rule
    /// `enforce::ingress` uses to pick a lane.
    fn fallback_shard(&self, t: &Transaction) -> usize {
        let Router::Component { shard_of } = &self.router else { return 0 };
        match t.first_named_class() {
            Some(c) => shard_of[self.schema.component_of(c) as usize],
            None => 0,
        }
    }

    /// Apply `t[args]`, committing only if no enforced pattern leaves
    /// the inventory — a block of one ([`Self::try_apply_batch`]). On
    /// violation the database is unchanged and the first offending
    /// object (in the shard-reference ascending-oid order) is reported.
    pub fn try_apply(&mut self, t: &Transaction, args: &Assignment) -> Result<(), EnforceError> {
        match self.try_apply_batch([(t, args)]) {
            (_, Some(e)) => Err(e),
            (_, None) => Ok(()),
        }
    }

    /// Apply each `t[args]` in order to the database, stopping at the
    /// first transaction that fails to apply (it leaves the database
    /// untouched), and return the exact change-sets of those applied.
    fn apply_deltas(
        &mut self,
        items: &[(&Transaction, &Assignment)],
    ) -> (Vec<Delta>, Option<EnforceError>) {
        let mut deltas = Vec::with_capacity(items.len());
        for (t, args) in items {
            match apply_transaction_delta(self.schema, &mut self.db, t, args) {
                Ok(d) => deltas.push(d),
                Err(e) => return (deltas, Some(e.into())),
            }
        }
        (deltas, None)
    }

    /// Apply a whole sequence one by one, stopping at the first
    /// rejection; returns how many applications committed.
    pub fn try_apply_all<'t>(
        &mut self,
        steps: impl IntoIterator<Item = (&'t Transaction, &'t Assignment)>,
    ) -> (usize, Option<EnforceError>) {
        let mut done = 0;
        for (t, args) in steps {
            match self.try_apply(t, args) {
                Ok(()) => done += 1,
                Err(e) => return (done, Some(e)),
            }
        }
        (done, None)
    }

    /// Admit a block of transactions against **one cohort sweep per
    /// participating shard**. Semantics are identical to
    /// [`Self::try_apply_all`] — the longest conforming prefix commits,
    /// and the return value is the committed count plus the error that
    /// stopped the batch (if any) — but the conforming fast path
    /// validates each shard's letters in a single staged pass. A
    /// violating block costs O(log k) more read-only stagings: a binary
    /// search over prefix lengths finds the first violating letter, the
    /// prefix before it commits as **one** block (one WAL record), and
    /// the violating letter is diagnosed against the committed state —
    /// byte-identical to the per-shard reference engine.
    pub fn try_apply_batch<'t>(
        &mut self,
        batch: impl IntoIterator<Item = (&'t Transaction, &'t Assignment)>,
    ) -> (usize, Option<EnforceError>) {
        let items: Vec<(&Transaction, &Assignment)> = batch.into_iter().collect();
        if self.certified {
            return self.apply_certified(&items);
        }
        // Optimistic in-place application; a failing transaction leaves
        // the database untouched, so the applied prefix stays validatable.
        let (deltas, lang_err) = self.apply_deltas(&items);
        let applied = deltas.len();
        // (delta index, fallback shard, delta) of every letter-bearing
        // application.
        let indexed: Vec<(usize, usize, &Delta)> = deltas
            .iter()
            .zip(&items)
            .enumerate()
            .filter(|(_, (d, _))| !(self.policy == StepPolicy::OnlyChanging && d.is_identity()))
            .map(|(i, (d, (t, _)))| (i, self.fallback_shard(t), d))
            .collect();
        let effective: Vec<(usize, &Delta)> = indexed.iter().map(|&(_, f, d)| (f, d)).collect();
        if effective.is_empty() {
            return (applied, lang_err);
        }
        let (staged, first_bad) = match self.stage_effective(&effective) {
            Some(staged) => (Some(staged), None),
            None => {
                // Some letter violates. Staging a prefix fails iff one
                // of its letters violates, so binary-search the longest
                // conforming prefix `lo`, keeping its staged pass.
                let (mut lo, mut hi, mut staged) = (0, effective.len(), None);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    match self.stage_effective(&effective[..mid]) {
                        Some(s) => (lo, staged) = (mid, Some(s)),
                        None => hi = mid,
                    }
                }
                (staged, Some(lo))
            }
        };
        let prefix = first_bad.unwrap_or(effective.len());
        if let Some(staged) = staged {
            if let Err(e) = self.commit_staged(&effective[..prefix], staged) {
                // The log refused the block: nothing commits.
                for d in deltas.iter().rev() {
                    d.undo(&mut self.db);
                }
                return (0, Some(EnforceError::Durability(e)));
            }
        }
        let Some(bad) = first_bad else { return (applied, lang_err) };
        // The prefix is committed: diagnose the violating letter against
        // it, then roll back that letter and everything after it.
        let v = self.diagnose_violation(effective[bad]);
        let done = indexed[bad].0;
        for d in deltas[done..].iter().rev() {
            d.undo(&mut self.db);
        }
        (done, Some(EnforceError::Violation(v)))
    }

    /// The certified fast path: no checks run, tracking stays frozen,
    /// and every application is a letter on shard 0's clock. Without a
    /// sink only the interpreter runs — no change-set capture at all.
    /// With one, the applied change-sets are logged as one block and
    /// dirty the next increment: the heap changed even though tracking
    /// did not.
    fn apply_certified(
        &mut self,
        items: &[(&Transaction, &Assignment)],
    ) -> (usize, Option<EnforceError>) {
        if self.sink.is_none() {
            for (i, (t, args)) in items.iter().enumerate() {
                if let Err(e) = apply_transaction(self.schema, &mut self.db, t, args) {
                    return (i, Some(e.into()));
                }
                self.shards[0].steps += 1;
            }
            return (items.len(), None);
        }
        let (deltas, lang_err) = self.apply_deltas(items);
        if deltas.is_empty() {
            return (0, lang_err);
        }
        let state = &self.shards[0];
        let letters = [ShardLetters {
            shard: 0,
            steps0: state.steps,
            letters: (0..deltas.len() as u32).collect(),
        }];
        let refs: Vec<&Delta> = deltas.iter().collect();
        if let Err(e) = self.log_block(&refs, &letters) {
            for d in deltas.iter().rev() {
                d.undo(&mut self.db);
            }
            return (0, Some(EnforceError::Durability(e)));
        }
        let state = &mut self.shards[0];
        for d in &deltas {
            state.dirty.extend(d.objects().iter().map(|od| od.oid));
        }
        state.steps += deltas.len();
        (deltas.len(), lang_err)
    }

    /// Redefine the enforced inventory **online**, bumping the
    /// constraint epoch — the paper's dynamic constraints made dynamic
    /// themselves. The swap is atomic across **every** shard (the
    /// automaton is global — each partition's cohorts are re-keyed
    /// under the new DFA), at whatever point each shard's own letter
    /// clock has reached.
    ///
    /// The viability of consumed history is decided per *cohort*, never
    /// per object: a product construction walks the old DFA × new DFA
    /// over every path the old DFA certifies (`delta::viability_map`),
    /// computed once; a cohort is viable iff all enforced histories
    /// ending in its old state land in exactly one accepting new state.
    /// Viable cohorts remap wholesale; the residue is quarantined or
    /// reset per `policy`. Total cost O(|Q_old| × |Q_new| × |Σ| +
    /// |cohorts|) — independent of the database size.
    ///
    /// Every shard's never-created walk is checked *before* any shard
    /// mutates, and the [`WalRecord::Redefined`] record (carrying every
    /// shard's clock) is written **ahead** of the swap. Refused (with
    /// [`EnforceError::Redefine`], nothing changed, nothing logged) on a
    /// certified monitor (tracking is frozen), on an alphabet mismatch,
    /// and when some shard's never-created ∅-walk leaves the new
    /// language while still enforced; a sink failure also leaves the old
    /// inventory in force on all shards.
    pub fn redefine(
        &mut self,
        new_inventory: &Inventory,
        policy: ResiduePolicy,
    ) -> Result<RedefineOutcome, EnforceError> {
        if self.certified {
            return Err(EnforceError::Redefine(
                "monitor is certified: tracking is frozen, redefine needs a fresh monitor".into(),
            ));
        }
        let new_dfa = new_inventory.dfa();
        if new_dfa.num_symbols() != self.alphabet.num_symbols() {
            return Err(EnforceError::Redefine(format!(
                "inventory alphabet has {} symbols, monitor's has {}",
                new_dfa.num_symbols(),
                self.alphabet.num_symbols()
            )));
        }
        let empty = self.alphabet.empty_symbol();
        let fates = super::delta::viability_map(self.inventory.dfa(), new_dfa);
        // All-shards-or-nothing: every shard's ∅ walk must survive the
        // new automaton before any shard is touched.
        let mut pre_walks = Vec::with_capacity(self.shards.len());
        for (i, state) in self.shards.iter().enumerate() {
            let pre = state.redefine_pre_walk(new_dfa, empty).map_err(|steps| {
                EnforceError::Redefine(format!(
                    "shard {i}: the never-created class's pattern ∅^{steps} \
                     leaves the new inventory"
                ))
            })?;
            pre_walks.push(pre);
        }
        // Write-ahead: one record with every shard's clock at the swap
        // instant reaches the log before any tracking state moves.
        if let Some(sink) = &self.sink {
            let clocks: Vec<(u32, usize)> =
                self.shards.iter().enumerate().map(|(i, s)| (i as u32, s.steps)).collect();
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .redefined(self.epoch + 1, policy, &clocks, &new_inventory.encode())
                .map_err(EnforceError::Durability)?;
        }
        let reset = policy == ResiduePolicy::CertifyAndReset;
        let (mut residue, mut quarantined) = (0usize, 0usize);
        for (state, new_pre) in self.shards.iter_mut().zip(pre_walks) {
            let (r, q) = state.apply_redefine(&mut self.records, &fates, new_dfa, new_pre, reset);
            residue += r;
            quarantined += q;
        }
        self.inventory = new_inventory.clone();
        self.epoch += 1;
        self.redefine_total += 1;
        self.quarantined_total += quarantined as u64;
        Ok(RedefineOutcome { epoch: self.epoch, residue, quarantined })
    }

    /// Per-shard letter assignment of an effective block: which shards
    /// participate in each delta, and each shard's [`Touch`]es — every
    /// touched object with its **shard-local** letter index, stably
    /// sorted by oid. A delta is a letter for the shards of the tracked
    /// objects it touches (its fallback shard when it touches none);
    /// under oid striping every stripe reads every letter — the stripes
    /// split one component.
    fn assign_letters<'d>(
        &self,
        effective: &[(usize, &'d Delta)],
    ) -> (Vec<Vec<u32>>, Vec<Vec<Touch<'d>>>) {
        let n = self.shards.len();
        let mut letters: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut touched: Vec<Vec<Touch<'d>>> = vec![Vec::new(); n];
        // Reserving what is left of the block on a shard's first letter
        // and first touch allocates each list once.
        let mut unrouted: usize = effective.iter().map(|(_, d)| d.objects().len()).sum();
        let stripe = matches!(self.router, Router::OidStripe { .. });
        let mut participating: Vec<usize> = Vec::new();
        for (j, (fallback, d)) in effective.iter().enumerate() {
            participating.clear();
            if stripe {
                participating.extend(0..n);
            } else {
                for od in d.objects() {
                    if super::delta::tracked(od) {
                        let s = self.route(od);
                        if !participating.contains(&s) {
                            participating.push(s);
                        }
                    }
                }
                if participating.is_empty() {
                    participating.push(*fallback);
                }
            }
            for &s in &participating {
                letters[s].reserve(effective.len() - j);
                letters[s].push(j as u32);
            }
            for od in d.objects() {
                if super::delta::tracked(od) {
                    let s = self.route(od);
                    touched[s].reserve(unrouted);
                    touched[s].push((od.oid, letters[s].len(), od));
                }
                unrouted -= 1;
            }
        }
        for t in &mut touched {
            t.sort_by_key(|&(o, _, _)| o);
        }
        (letters, touched)
    }

    /// The decision half of admission: stage an effective block
    /// read-only on every participating shard, each from its **own
    /// letter clock** (the staged pass includes the shard's
    /// never-created ∅ walk). Non-participating shards stay untouched —
    /// their clocks do not move. `None` when some letter violates the
    /// inventory; nothing changes either way.
    fn stage_effective(&self, effective: &[(usize, &Delta)]) -> Option<StagedBlock> {
        let ctx = BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        let (letters, touched) = self.assign_letters(effective);
        let stages = self
            .shards
            .iter()
            .zip(&touched)
            .zip(&letters)
            .map(|((state, touched), letters)| {
                if letters.is_empty() {
                    return Ok(None);
                }
                state.stage_batch(&ctx, &self.records, letters.len(), touched).map(Some)
            })
            .collect::<Result<_, ()>>()
            .ok()?;
        Some(StagedBlock { letters, stages })
    }

    /// The write half of admission: append the staged block to the sink
    /// (if any) — one record for the whole block (group commit),
    /// carrying each participating shard's clock and letters — and only
    /// then write every shard's staged tracking changes (each commit
    /// advances its shard's clock). A sink failure writes nothing.
    fn commit_staged(
        &mut self,
        effective: &[(usize, &Delta)],
        staged: StagedBlock,
    ) -> Result<(), WalError> {
        let StagedBlock { letters, stages } = staged;
        if self.sink.is_some() {
            let shard_letters: Vec<ShardLetters> = letters
                .into_iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(s, letters)| ShardLetters {
                    shard: s as u32,
                    steps0: self.shards[s].steps,
                    letters,
                })
                .collect();
            let deltas: Vec<&Delta> = effective.iter().map(|&(_, d)| d).collect();
            self.log_block(&deltas, &shard_letters)?;
        }
        let records = &mut self.records;
        for (state, stage) in self.shards.iter_mut().zip(stages) {
            if let Some(stage) = stage {
                state.commit_batch(records, stage);
            }
        }
        Ok(())
    }

    /// Append one block to the attached sink, if any: one lock, one
    /// record — the group-commit unit. Poison-tolerant: a sink panic on
    /// another thread reads as a durability failure (rollback,
    /// retry/degrade policy), not as a panic of this thread.
    fn log_block(&self, deltas: &[&Delta], shards: &[ShardLetters]) -> Result<(), WalError> {
        match &self.sink {
            Some(sink) => sink
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .committed(&BlockRef { deltas, shards }),
            None => Ok(()),
        }
    }

    /// Rejection diagnostics for a single effective letter that staging
    /// refused, against the committed state: the first violation of
    /// the scan a reference monitor fed each reading shard's sub-run
    /// would make (see [`diagnose_step`]), so the reported
    /// [`Violation`] is byte-identical to it.
    fn diagnose_violation(&self, letter: (usize, &Delta)) -> Violation {
        let (letters, _) = self.assign_letters(&[letter]);
        let reads: Vec<bool> = letters.iter().map(|l| !l.is_empty()).collect();
        let params = DiagParams {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
            epoch: self.epoch,
        };
        diagnose_step(&params, &self.shards, &self.records, &reads, |od| self.route(od), letter.1)
    }

    /// Whether this monitor routes objects by weakly-connected role
    /// component (as opposed to the oid-stripe fallback).
    #[must_use]
    pub fn routes_by_component(&self) -> bool {
        matches!(self.router, Router::Component { .. })
    }

    /// The schema this monitor enforces over.
    #[must_use]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The role alphabet patterns are spelled in (what renders a
    /// [`Violation`] via [`Violation::display`]).
    #[must_use]
    pub fn alphabet(&self) -> &'a RoleAlphabet {
        self.alphabet
    }

    /// The enforced inventory (the current epoch's automaton).
    #[must_use]
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The constraint-evolution epoch: 0 until the first redefinition.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Admitted redefinitions, cumulative.
    #[must_use]
    pub fn redefine_total(&self) -> u64 {
        self.redefine_total
    }

    /// Objects quarantined by redefinitions, cumulative.
    #[must_use]
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total
    }

    /// The enforced pattern family.
    #[must_use]
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// The letter-contribution policy.
    #[must_use]
    pub fn policy(&self) -> StepPolicy {
        self.policy
    }

    /// The component → shard table of a component-routed monitor
    /// (`None` under oid striping). The ingress front end aligns its
    /// admission lanes with this.
    pub(crate) fn component_lanes(&self) -> Option<&[usize]> {
        match &self.router {
            Router::Component { shard_of } => Some(shard_of),
            Router::OidStripe { .. } => None,
        }
    }

    // -----------------------------------------------------------------
    // Durability: snapshot + recovery (see [`wal`](super::wal))
    // -----------------------------------------------------------------

    /// Checkpoint everything this monitor cannot rebuild from its
    /// constructor arguments: the database heap, every shard's tracking
    /// state (each with its own letter clock), the policy, the
    /// constraint-evolution state and the certification horizon.
    /// Canonical: equal monitor states yield equal [`Snapshot::encode`]
    /// bytes.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            policy: self.policy,
            certified: self.certified,
            certified_at: self.certified_at,
            evolution: self.evolution(),
            db: self.db.clone(),
            shards: self.shards.clone(),
            records: self.records.clone(),
        }
    }

    /// The constraint-evolution state a checkpoint carries.
    fn evolution(&self) -> wal::Evolution {
        wal::Evolution {
            epoch: self.epoch,
            redefine_total: self.redefine_total,
            quarantined_total: self.quarantined_total,
            inventory: Some(self.inventory.encode()),
        }
    }

    /// Capture a **full checkpoint** and reset the incremental dirty
    /// tracking: the returned snapshot covers everything, so the next
    /// [`ShardedMonitor::checkpoint_delta`] captures only changes made
    /// from here on. Prefer this over [`ShardedMonitor::snapshot`] (a
    /// pure observation that leaves the dirty sets alone) when the
    /// snapshot will be written as a base checkpoint.
    pub fn checkpoint_full(&mut self) -> Snapshot {
        let snap = self.snapshot();
        for s in &mut self.shards {
            s.dirty.clear();
            s.all_dirty = false;
        }
        snap
    }

    /// Capture an **incremental checkpoint**: the objects and tracking
    /// records dirtied since the last capture (or recovery), each
    /// shard's cohort tables and letter clock — O(dirty), never O(db),
    /// encoded once into the increment's bytes straight from the heap
    /// and the records. Drains the dirty sets: the caller must make the
    /// returned increment durable (or fall back to a full
    /// [`ShardedMonitor::checkpoint_full`]) before capturing again, or
    /// the chain loses these changes.
    pub fn checkpoint_delta(&mut self) -> CheckpointDelta {
        let evolution = self.evolution();
        wal::capture_delta(
            &self.db,
            &mut self.shards,
            &self.records,
            self.policy,
            self.certified,
            self.certified_at,
            &evolution,
        )
    }

    /// Undo a [`ShardedMonitor::checkpoint_delta`] whose increment could
    /// **not** be made durable (checkpoint staging failed): re-mark the
    /// increment's oids (from [`CheckpointDelta::oids`], captured before
    /// staging — tombstones included) and flip every shard fully dirty,
    /// so the next capture re-covers everything the lost delta held.
    /// Without this, a later successful checkpoint would prune WAL
    /// segments whose effects live in no delta — silent data loss on
    /// recovery. One full-record capture is the price of a failed
    /// staging, not of the steady state.
    pub fn restore_dirty(&mut self, oids: &[Oid]) {
        // Any shard's dirty set works for the object table: captures
        // read the (global) database by oid; per-shard records ride on
        // `all_dirty` below.
        if let Some(s) = self.shards.first_mut() {
            s.dirty.extend(oids.iter().copied());
        }
        for s in &mut self.shards {
            s.all_dirty = true;
        }
    }

    /// Rebuild a sharded monitor from a checkpoint (the folded chain —
    /// see [`wal::Wal::load`]) plus the WAL tail written after it,
    /// without replaying history. `shards` must request the same
    /// partitioning the snapshot was taken under (the router is
    /// re-derived from the schema; the snapshot carries one tracking
    /// state per shard). Each tail block folds **per shard at
    /// shard-local granularity**: a shard whose clock (from the
    /// checkpoint) is already past the block skips it, a shard at
    /// exactly the block's offset replays its letters with one cohort
    /// sweep — so the recovered tracking state is byte-identical to the
    /// uncrashed monitor's, and a crash between a checkpoint and its
    /// log pruning can never double-apply a record (see
    /// [`ShardedMonitor::replay_record`]).
    ///
    /// The adopted heap is checked against `schema` first, once, in
    /// O(objects) ([`Instance::check_schema`](migratory_model::Instance::check_schema)):
    /// a snapshot written under another schema that does not fit it is
    /// a [`WalError::Mismatch`], before any schema table is indexed with
    /// its class ids. Recovery, [`ShardedMonitor::resync`] and a
    /// standby's bootstrap all come through here.
    ///
    /// `snapshot: None` recovers from an empty monitor (a log that
    /// predates the first checkpoint); the policy then defaults to
    /// [`StepPolicy::EveryApplication`] — logged blocks hold only
    /// effective letters, so replay itself is policy-independent. A
    /// certified snapshot or [`WalRecord::Certified`] marker freezes
    /// tracking where the crashed monitor froze it; with more than one
    /// shard either is refused. The recovered monitor has no sink
    /// attached — reattach with [`ShardedMonitor::with_sink`] to resume
    /// logging.
    pub fn recover(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        shards: usize,
        snapshot: Option<Snapshot>,
        tail: impl IntoIterator<Item = WalRecord>,
    ) -> Result<ShardedMonitor<'a>, WalError> {
        let mut m = Self::new(schema, alphabet, inventory, kind, shards);
        if let Some(snap) = snapshot {
            let Snapshot { policy, certified, certified_at, evolution, db, shards, records } = snap;
            if shards.len() != m.shards.len() {
                return Err(WalError::Mismatch(format!(
                    "snapshot has {} shards, this monitor partitions into {}",
                    shards.len(),
                    m.shards.len()
                )));
            }
            if certified && shards.len() != 1 {
                return Err(WalError::Mismatch(format!(
                    "snapshot is certified with {} shards — only a one-shard monitor certifies",
                    shards.len()
                )));
            }
            db.check_schema(schema).map_err(|e| {
                WalError::Mismatch(format!("snapshot does not fit the schema: {e}"))
            })?;
            (m.db, m.shards, m.records) = (db, shards, records);
            m.policy = policy;
            m.certified = certified;
            m.certified_at = certified_at;
            // Pre-v3 snapshots carry no inventory: the constructor's
            // inventory (epoch 0) stays in force.
            if let Some(bytes) = &evolution.inventory {
                m.inventory = Inventory::decode(alphabet, bytes).map_err(|e| {
                    WalError::Mismatch(format!("snapshot inventory does not decode: {e}"))
                })?;
            }
            m.epoch = evolution.epoch;
            m.redefine_total = evolution.redefine_total;
            m.quarantined_total = evolution.quarantined_total;
        }
        for record in tail {
            m.replay_record(record)?;
        }
        Ok(m)
    }

    /// Fold **one** logged (or shipped) record into this monitor: the
    /// per-record semantics of [`ShardedMonitor::recover`], exposed as a
    /// method so a streaming consumer — the replication puller folding a
    /// primary's shipped records into a hot standby — shares the exact
    /// crash-recovery fold. Returns `Ok(true)` when the record applied,
    /// `Ok(false)` when it was already covered (a shard clock or epoch
    /// behind this monitor's — re-delivery after a reconnect is
    /// idempotent, nothing double-applies), and `Err` on a clock **gap**
    /// (the stream skipped a record this monitor never saw) or a record
    /// that cannot belong to this history.
    ///
    /// When a sink is attached (a standby writing its own write-ahead
    /// log), an applied block or certification marker is written through
    /// it ahead of tracking — the standby's log carries the same records
    /// as the primary's — and an applied redefinition writes through
    /// inside [`ShardedMonitor::redefine`] itself.
    ///
    /// A [`WalRecord::Certified`] marker freezes tracking at its clock
    /// (one-shard monitors only); blocks after it replay without
    /// tracking, as they were admitted.
    pub fn replay_record(&mut self, record: WalRecord) -> Result<bool, WalError> {
        let block = match record {
            WalRecord::Block(b) => b,
            WalRecord::Certified { steps } => {
                if self.shards.len() != 1 {
                    return Err(WalError::Mismatch(
                        "log carries a certification marker — only a one-shard monitor certifies"
                            .into(),
                    ));
                }
                let at = self.shards[0].steps;
                if steps > at {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: certification at letter {steps}, monitor is at {at}"
                    )));
                }
                if steps < at || self.certified {
                    return Ok(false); // the checkpoint chain already carries it
                }
                self.freeze(steps)?;
                return Ok(true);
            }
            WalRecord::Redefined { epoch, policy, shards, inventory } => {
                if epoch <= self.epoch {
                    return Ok(false); // covered by the checkpoint chain
                }
                if epoch != self.epoch + 1 {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: redefinition to epoch {epoch}, monitor is at {}",
                        self.epoch
                    )));
                }
                if shards.len() != self.shards.len() {
                    return Err(WalError::Mismatch(format!(
                        "redefinition names {} shards, this monitor partitions into {}",
                        shards.len(),
                        self.shards.len()
                    )));
                }
                for &(sh, at) in &shards {
                    let Some(state) = self.shards.get(sh as usize) else {
                        return Err(WalError::Mismatch(format!(
                            "redefinition names shard {sh} of {}",
                            self.shards.len()
                        )));
                    };
                    if at != state.steps {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: redefinition at shard {sh} letter {at}, \
                                 shard is at {}",
                            state.steps
                        )));
                    }
                }
                let new_inv = Inventory::decode(self.alphabet, &inventory)
                    .map_err(|e| WalError::Mismatch(format!("redefine record inventory: {e}")))?;
                // Deterministic replay: same viability map, same
                // per-shard split. With a sink attached the marker is
                // re-logged write-ahead (the standby's own log);
                // without one — recovery — nothing is re-logged.
                self.redefine(&new_inv, policy).map_err(|e| {
                    WalError::Mismatch(format!("logged redefinition does not admit: {e}"))
                })?;
                return Ok(true);
            }
        };
        if block.deltas.is_empty() || block.shards.is_empty() {
            return Ok(false);
        }
        // Per-shard fold: compare each participating shard's logged
        // clock offset against its recovered clock.
        let (mut skips, mut replays) = (0usize, 0usize);
        for sl in &block.shards {
            let Some(state) = self.shards.get(sl.shard as usize) else {
                return Err(WalError::Mismatch(format!(
                    "logged block names shard {} of {}",
                    sl.shard,
                    self.shards.len()
                )));
            };
            match sl.steps0.cmp(&state.steps) {
                std::cmp::Ordering::Less => skips += 1,
                std::cmp::Ordering::Equal => replays += 1,
                std::cmp::Ordering::Greater => {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: shard {} block starts at letter {}, shard is at {}",
                        sl.shard, sl.steps0, state.steps
                    )))
                }
            }
        }
        if skips > 0 && replays > 0 {
            // Checkpoints capture all shards at one commit boundary,
            // so a block is folded for all its shards or none.
            return Err(WalError::Mismatch(
                "logged block is half-folded into the checkpoint".into(),
            ));
        }
        if replays == 0 {
            return Ok(false); // fully covered by the checkpoint chain
        }
        // Write-ahead on the standby: the shipped record reaches this
        // monitor's own log before tracking state moves, so the
        // standby's durable image replays byte-identically.
        if self.sink.is_some() {
            let deltas: Vec<&Delta> = block.deltas.iter().collect();
            self.log_block(&deltas, &block.shards)?;
        }
        for d in &block.deltas {
            d.redo(&mut self.db);
        }
        self.replay_block(&block)?;
        Ok(true)
    }

    /// Rebuild **this** monitor's database and tracking state from a
    /// durable image ([`Wal::load`](super::Wal::load) output), in
    /// place — [`ShardedMonitor::recover`] as a method, preserving the
    /// router and attached sink. An ingress with a write-ahead log
    /// calls this after a durability failure dropped appended-but-
    /// unsynced blocks: tracking state that ran ahead of the truncated
    /// log must be wound back to exactly the durable prefix, or the
    /// next logged block would leave an unrecoverable per-shard clock
    /// gap. On `Err` the monitor is unchanged.
    pub fn resync(
        &mut self,
        snapshot: Option<Snapshot>,
        tail: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(), WalError> {
        // Without a checkpoint, keep the configured policy: recovery
        // from the empty monitor cannot know it.
        let policy = if snapshot.is_some() { None } else { Some(self.policy) };
        let fresh = Self::recover(
            self.schema,
            self.alphabet,
            &self.base_inventory,
            self.kind,
            self.shards.len(),
            snapshot,
            tail,
        )?;
        *self = ShardedMonitor {
            policy: policy.unwrap_or(fresh.policy),
            sink: self.sink.take(),
            ..fresh
        };
        Ok(())
    }

    /// Replay one logged block's tracking work: rebuild each
    /// participating shard's touches in shard-local letter indices from
    /// the record's letter assignment, stage, and commit.
    /// Admission already proved the block admissible, so a failing
    /// stage (or a letter assignment that disagrees with routing) means
    /// the log and snapshot do not belong together.
    fn replay_block(&mut self, block: &wal::WalBlock) -> Result<(), WalError> {
        if self.certified {
            // Certified blocks were logged without tracking; replay
            // mirrors that. The touched objects still dirty the next
            // incremental checkpoint (their heap state changed).
            let state = &mut self.shards[0];
            state.steps += block.shards.iter().map(|sl| sl.letters.len()).sum::<usize>();
            for d in &block.deltas {
                state.dirty.extend(d.objects().iter().map(|od| od.oid));
            }
            return Ok(());
        }
        // The shard-local letter index of delta `j` on shard `s` at
        // `local[s * deltas + j]`; 0 when it is not a letter there.
        let deltas = block.deltas.len();
        let mut local = vec![0usize; self.shards.len() * deltas];
        for sl in &block.shards {
            for (pos, &j) in sl.letters.iter().enumerate() {
                if j as usize >= deltas {
                    return Err(WalError::Mismatch("letter index out of range".into()));
                }
                local[sl.shard as usize * deltas + j as usize] = pos + 1;
            }
        }
        let mut touched: Vec<Vec<Touch<'_>>> = vec![Vec::new(); self.shards.len()];
        for (j, d) in block.deltas.iter().enumerate() {
            for od in d.objects() {
                if !super::delta::tracked(od) {
                    continue;
                }
                let s = self.route(od);
                let lj = local[s * deltas + j];
                if lj == 0 {
                    return Err(WalError::Mismatch(
                        "logged letter assignment disagrees with object routing".into(),
                    ));
                }
                touched[s].push((od.oid, lj, od));
            }
        }
        for t in &mut touched {
            t.sort_by_key(|&(o, _, _)| o);
        }
        let ctx = BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        let mut stages: Vec<(usize, BatchStage)> = Vec::with_capacity(block.shards.len());
        for sl in &block.shards {
            let s = sl.shard as usize;
            let stage = self.shards[s]
                .stage_batch(&ctx, &self.records, sl.letters.len(), &touched[s])
                .map_err(|()| WalError::Mismatch("logged block does not admit".into()))?;
            stages.push((s, stage));
        }
        for (s, stage) in stages {
            self.shards[s].commit_batch(&mut self.records, stage);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::ReferenceMonitor;
    use super::*;
    use migratory_lang::{parse_transactions, TransactionSchema};
    use migratory_model::schema::university_schema;
    use migratory_model::{SchemaBuilder, Value};

    fn setup() -> (Schema, RoleAlphabet) {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        (s, a)
    }

    fn uni_transactions(s: &Schema) -> TransactionSchema {
        parse_transactions(
            s,
            r#"
            transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
            transaction St(x) {
              specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
            }
            transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
            transaction Rm(x) { delete(PERSON, { SSN = x }); }
        "#,
        )
        .unwrap()
    }

    fn arg(v: &str) -> Assignment {
        Assignment::new(vec![Value::str(v)])
    }

    #[test]
    fn sharded_matches_single_engine_on_scripted_run() {
        // Single-component schema: oid striping, every stripe reads
        // every letter — the stripes advance in lockstep with the
        // single engine's global clock.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv =
            crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let script: Vec<(&str, &str)> = vec![
            ("Mk", "1"),
            ("Mk", "2"),
            ("St", "1"),
            ("St", "2"),
            ("UnSt", "1"),
            ("St", "1"), // violates: [P][S][P][S]
            ("Rm", "2"),
        ];
        for shards in [1usize, 2, 3, 5] {
            let mut sharded = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, shards);
            let mut single = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
            for (name, key) in &script {
                let t = ts.get(name).unwrap();
                let args = arg(key);
                assert_eq!(
                    sharded.try_apply(t, &args),
                    single.try_apply(t, &args),
                    "decision diverged at {name}({key}), {shards} shards"
                );
                assert_eq!(sharded.db(), single.db());
                for c in sharded.clocks() {
                    assert_eq!(c, single.clock(0), "stripes advance in lockstep");
                }
            }
            for o in 1..=3u64 {
                assert_eq!(sharded.pattern_of(Oid(o)), single.pattern_of(Oid(o)));
            }
            assert_eq!(sharded.num_shards(), shards);
            assert!(!sharded.routes_by_component(), "university is one component");
        }
    }

    #[test]
    fn batch_commits_longest_prefix_with_reference_violation() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv =
            crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let script = [("Mk", "1"), ("St", "1"), ("UnSt", "1"), ("St", "1"), ("Mk", "2")];
        let assigns: Vec<Assignment> = script.iter().map(|(_, k)| arg(k)).collect();
        let batch: Vec<(&Transaction, &Assignment)> = script
            .iter()
            .zip(&assigns)
            .map(|((name, _), args)| (ts.get(name).unwrap(), args))
            .collect();

        let mut sharded = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
        let (done, err) = sharded.try_apply_batch(batch.clone());
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let (odone, oerr) = oracle.try_apply_all(batch);
        assert_eq!(done, odone);
        assert_eq!(done, 3, "the re-specialize violates; Mk(2) is never attempted");
        assert_eq!(err, oerr, "byte-identical violation");
        assert_eq!(sharded.db(), oracle.db());
        assert_eq!(sharded.clocks(), vec![3, 3]);
        assert!(!sharded.db().occurs(Oid(2)), "Mk(2) was not attempted after the rejection");

        // The conforming remainder still admits as a batch afterwards.
        let more = [("Rm", "1"), ("Mk", "9")];
        let massigns: Vec<Assignment> = more.iter().map(|(_, k)| arg(k)).collect();
        let mbatch: Vec<(&Transaction, &Assignment)> = more
            .iter()
            .zip(&massigns)
            .map(|((name, _), args)| (ts.get(name).unwrap(), args))
            .collect();
        let (done2, err2) = sharded.try_apply_batch(mbatch);
        assert_eq!((done2, err2), (2, None));
        assert_eq!(sharded.clocks(), vec![5, 5]);
    }

    /// A `P0 ⊃ S0` hierarchy plus `extra` independent ones: one
    /// component (oid striping) or several (component routing). The
    /// alphabet is component 0's.
    fn hierarchies(extra: usize) -> Schema {
        let mut b = SchemaBuilder::new();
        for r in 0..=extra {
            let root = b.class(&format!("P{r}"), &[&format!("K{r}")]).unwrap();
            b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
        }
        b.build().unwrap()
    }

    fn diagnosis_transactions(s: &Schema) -> TransactionSchema {
        parse_transactions(
            s,
            r"
            transaction Mk(x) { create(P0, { K0 = x }); }
            transaction Mk2(x, y) { create(P0, { K0 = x }); create(P0, { K0 = y }); }
            transaction Rm(x) { delete(P0, { K0 = x }); }
        ",
        )
        .unwrap()
    }

    /// Both branches of the rejection diagnosis, each reporting the
    /// object the reference engine reports, on the single monitor, a
    /// component-routed and an oid-striped sharded monitor — through
    /// `try_apply` and through one `try_apply_batch` block.
    #[test]
    fn diagnosis_reports_reference_violator_on_both_branches() {
        use PatternKind::{All, ImmediateStart, Lazy, Proper};
        // (inventory, script lines `name arg…`, kinds, reported oid)
        let cases: [(&str, &[&str], &[PatternKind], u64); 3] = [
            // Creating o2 makes the untouched o1 repeat [P0]: only an
            // untouched cohort violates.
            ("∅* [P0] ∅*", &["Mk 1", "Mk 2"], &[All, ImmediateStart], 1),
            // The untouched o1 and the deleted o2 both violate; the
            // fallback scan must report the lower oid, o1.
            ("∅* [P0] [S0]+ ∅*", &["Mk2 1 2", "Rm 2"], &[All, ImmediateStart], 1),
            // Untouched objects are exempt under Proper/Lazy: the
            // touched-only scan reports the deleted o2.
            ("∅* [P0] [S0]+ ∅*", &["Mk2 1 2", "Rm 2"], &[Proper, Lazy], 2),
        ];
        let one = hierarchies(0);
        let two = hierarchies(1);
        for (inv_src, script, kinds, violator) in cases {
            for &kind in kinds {
                for (s, shards) in [(&one, 2usize), (&two, 2)] {
                    let a = RoleAlphabet::new(s, 0).unwrap();
                    let inv = crate::Inventory::parse_init(s, &a, inv_src).unwrap();
                    let ts = diagnosis_transactions(s);
                    let lines: Vec<Vec<&str>> =
                        script.iter().map(|l| l.split(' ').collect()).collect();
                    let args: Vec<Assignment> = lines
                        .iter()
                        .map(|l| Assignment::new(l[1..].iter().map(|x| Value::str(x)).collect()))
                        .collect();
                    let steps: Vec<(&Transaction, &Assignment)> =
                        lines.iter().zip(&args).map(|(l, a)| (ts.get(l[0]).unwrap(), a)).collect();
                    let mut oracle = ReferenceMonitor::new(s, &a, &inv, kind);
                    let expected = oracle.try_apply_all(steps.iter().copied());
                    let Some(EnforceError::Violation(v)) = &expected.1 else {
                        panic!("{inv_src} under {kind}: the script must violate");
                    };
                    assert_eq!(v.oid, Some(Oid(violator)), "{inv_src} under {kind}");
                    let ctx = format!("{inv_src} under {kind}, {} components", s.num_components());
                    let mut single = ShardedMonitor::new(s, &a, &inv, kind, 1);
                    assert_eq!(single.try_apply_all(steps.iter().copied()), expected, "{ctx}");
                    let mut sharded = ShardedMonitor::new(s, &a, &inv, kind, shards);
                    assert_eq!(sharded.routes_by_component(), s.num_components() > 1);
                    assert_eq!(sharded.try_apply_all(steps.iter().copied()), expected, "{ctx}");
                    let mut batched = ShardedMonitor::new(s, &a, &inv, kind, shards);
                    assert_eq!(batched.try_apply_batch(steps.iter().copied()), expected, "{ctx}");
                    assert_eq!(batched.db(), oracle.db(), "{ctx}");
                }
            }
        }
    }

    /// A block whose op `i` violates logs **one** record for its first
    /// `i` ops; recovery from that log and a replica folding it are
    /// byte-identical to the live monitor, and to a monitor that
    /// admitted the same ops one at a time.
    #[test]
    fn violating_block_logs_its_prefix_as_one_record() {
        use crate::enforce::MemoryWal;
        use std::sync::{Arc, Mutex};
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv =
            crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let script = [
            ("Mk", "1"),
            ("Mk", "2"),
            ("St", "1"),
            ("St", "2"),
            ("UnSt", "1"),
            ("St", "1"), // violates: [P][S][P][S]
            ("Mk", "3"),
        ];
        let assigns: Vec<Assignment> = script.iter().map(|(_, k)| arg(k)).collect();
        let batch: Vec<(&Transaction, &Assignment)> = script
            .iter()
            .zip(&assigns)
            .map(|((name, _), args)| (ts.get(name).unwrap(), args))
            .collect();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live =
            ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2).with_sink(wal.clone());
        let (done, err) = live.try_apply_batch(batch.iter().copied());
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        assert_eq!((done, &err), (5, &oracle.try_apply_all(batch.iter().copied()).1));

        let records = wal.lock().unwrap().records();
        assert_eq!(records.len(), 1, "the conforming prefix is one record");
        let WalRecord::Block(block) = &records[0] else { panic!("a block record") };
        assert_eq!(block.deltas.len(), 5);
        assert!(block.shards.iter().all(|sl| sl.steps0 == 0 && sl.letters == [0, 1, 2, 3, 4]));

        let bytes = live.snapshot().encode();
        let recovered =
            ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 2, None, records.clone())
                .unwrap();
        assert_eq!(recovered.snapshot().encode(), bytes, "recovery is byte-identical");
        let mut replica = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
        assert_eq!(replica.replay_record(records[0].clone()), Ok(true));
        assert_eq!(replica.snapshot().encode(), bytes, "the replica folds the record");

        // Only the grouping differs from op-by-op admission.
        let one_by_one = Arc::new(Mutex::new(MemoryWal::new()));
        let mut seq =
            ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2).with_sink(one_by_one.clone());
        assert_eq!(seq.try_apply_all(batch.iter().copied()), (done, err));
        assert_eq!(one_by_one.lock().unwrap().records().len(), 5);
        assert_eq!(seq.snapshot().encode(), bytes);
    }

    #[test]
    fn batch_of_noops_under_only_changing_emits_no_letter() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2)
            .with_policy(StepPolicy::OnlyChanging);
        let mk = ts.get("Mk").unwrap();
        let rm = ts.get("Rm").unwrap();
        let a1 = arg("1");
        let miss = arg("zzz");
        let batch: Vec<(&Transaction, &Assignment)> =
            vec![(rm, &miss), (mk, &a1), (rm, &miss), (rm, &miss)];
        let (done, err) = m.try_apply_batch(batch);
        assert_eq!((done, err), (4, None));
        assert_eq!(m.clocks(), vec![1, 1], "three null applications contributed no letter");
    }

    #[test]
    fn multi_component_schema_routes_by_component_with_independent_clocks() {
        // Four independent hierarchies → four shards, one per
        // component, each on its own letter clock: a shard behaves
        // exactly like a single monitor fed only its component's
        // applications.
        let mut b = SchemaBuilder::new();
        for r in 0..4 {
            let root = b.class(&format!("R{r}"), &[&format!("K{r}")]).unwrap();
            b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
        }
        let s = b.build().unwrap();
        assert_eq!(s.num_components(), 4);
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = crate::Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
            transaction Mk2(x) { create(R2, { K2 = x }); }
            transaction Mk3(x) { create(R3, { K3 = x }); }
        ",
        )
        .unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 8);
        assert!(m.routes_by_component());
        assert_eq!(m.num_shards(), 4, "capped at the component count");
        // One per-component oracle, each fed only its component's
        // applications — the sub-run a shard's clock counts.
        let mut oracles: Vec<ReferenceMonitor<'_>> =
            (0..4).map(|_| ReferenceMonitor::new(&s, &a, &inv, PatternKind::All)).collect();
        for i in 0..12 {
            let c = i % 4;
            let t = ts.get(&format!("Mk{c}")).unwrap();
            let args = arg(&format!("k{i}"));
            assert_eq!(m.try_apply(t, &args), oracles[c].try_apply(t, &args));
        }
        assert_eq!(m.clocks(), vec![3, 3, 3, 3], "each component read only its own letters");
        let stats = m.shard_stats();
        assert_eq!(stats.len(), 4);
        for st in &stats {
            assert_eq!(
                st.tracked_objects, 3,
                "objects spread evenly across component shards: {stats:?}"
            );
        }
        for o in 1..=12u64 {
            // Lemma 3.5's restriction bijection: the sharded run minted
            // o as the ((o−1)/4 + 1)-th object of component (o−1) % 4,
            // which is that oracle's local oid.
            let c = ((o - 1) % 4) as usize;
            let local = (o - 1) / 4 + 1;
            assert_eq!(
                m.pattern_of(Oid(o)),
                oracles[c].pattern_of(Oid(local)),
                "o{o}'s shard-local pattern must match component {c}'s oracle o{local}"
            );
        }
    }

    /// `Mk`, `St` and `Rm` only: every run stays in
    /// `∅* [PERSON]* [STUDENT]* [PERSON]* ∅*`, so the schema certifies.
    fn certifiable(s: &Schema) -> TransactionSchema {
        parse_transactions(
            s,
            r#"
            transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
            transaction St(x) {
              specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
            }
            transaction Rm(x) { delete(PERSON, { SSN = x }); }
        "#,
        )
        .unwrap()
    }

    const LADDER: &str = "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*";

    #[test]
    fn certified_monitor_refuses_redefine_and_logs_nothing() {
        use crate::enforce::MemoryWal;
        use std::sync::{Arc, Mutex};
        let (s, a) = setup();
        let ts = certifiable(&s);
        let inv = crate::Inventory::parse_init(&s, &a, LADDER).unwrap();
        let wider = crate::Inventory::parse_init(&s, &a, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1).with_sink(wal.clone());
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert!(m.certify(&ts).unwrap());
        let logged = wal.lock().unwrap().records();
        assert_eq!(logged.len(), 2, "one block and the certification marker");
        match m.redefine(&wider, ResiduePolicy::Quarantine) {
            Err(EnforceError::Redefine(msg)) => assert!(msg.contains("certified"), "got: {msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!((m.epoch(), m.redefine_total()), (0, 0), "the epoch stays put");
        assert_eq!(m.inventory().encode(), inv.encode(), "the old inventory stays in force");
        assert_eq!(wal.lock().unwrap().records(), logged, "nothing was logged");
    }

    #[test]
    fn certify_on_more_than_one_shard_is_refused_and_logs_nothing() {
        use crate::enforce::MemoryWal;
        use crate::error::CoreError;
        use std::sync::{Arc, Mutex};
        let (s, a) = setup();
        let ts = certifiable(&s);
        let inv = crate::Inventory::parse_init(&s, &a, LADDER).unwrap();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2).with_sink(wal.clone());
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m.certify(&ts), Err(CoreError::NotOneShard(2)));
        assert!(!m.is_certified());
        assert_eq!(wal.lock().unwrap().records().len(), 1, "only the block was logged");
        // Checks still run: [EMPLOYEE] is outside the inventory.
        let emp = parse_transactions(
            &s,
            r#"transaction Emp(x) {
                 specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
               }"#,
        )
        .unwrap();
        assert!(matches!(
            m.try_apply(emp.get("Emp").unwrap(), &arg("1")),
            Err(EnforceError::Violation(_))
        ));
    }

    /// A log with a `Certified` marker, and a certified snapshot, fold
    /// back byte-identically on one shard — through `recover` and through
    /// `resync` — and are refused with more than one shard.
    #[test]
    fn certification_recovers_on_one_shard_only() {
        use crate::enforce::MemoryWal;
        use std::sync::{Arc, Mutex};
        let (s, a) = setup();
        let ts = certifiable(&s);
        let inv = crate::Inventory::parse_init(&s, &a, LADDER).unwrap();
        let all = PatternKind::All;
        // Certified at clock 0, so the marker is the log's first record.
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live = ShardedMonitor::new(&s, &a, &inv, all, 1).with_sink(wal.clone());
        assert!(live.certify(&ts).unwrap());
        for (t, k) in [("Mk", "1"), ("Mk", "2"), ("St", "1"), ("Rm", "2")] {
            live.try_apply(ts.get(t).unwrap(), &arg(k)).unwrap();
        }
        let records = wal.lock().unwrap().records();
        assert!(matches!(records[0], WalRecord::Certified { steps: 0 }));
        let bytes = live.snapshot().encode();

        let recovered = ShardedMonitor::recover(&s, &a, &inv, all, 1, None, records.clone())
            .expect("a one-shard monitor folds the marker");
        assert!(recovered.is_certified());
        assert_eq!(recovered.snapshot().encode(), bytes);
        let mut resynced = ShardedMonitor::new(&s, &a, &inv, all, 1);
        resynced.resync(None, records.clone()).unwrap();
        assert!(resynced.is_certified());
        assert_eq!(resynced.snapshot().encode(), bytes);

        let snap = live.snapshot();
        assert!(snap.certified);
        let recovered = ShardedMonitor::recover(&s, &a, &inv, all, 1, Some(snap.clone()), [])
            .expect("a one-shard monitor loads a certified snapshot");
        assert!(recovered.is_certified());
        assert_eq!(recovered.snapshot().encode(), bytes);
        let mut resynced = ShardedMonitor::new(&s, &a, &inv, all, 1);
        resynced.resync(Some(snap), []).unwrap();
        assert!(resynced.is_certified());
        assert_eq!(resynced.snapshot().encode(), bytes);

        // Two shards: the marker and a certified snapshot are refused,
        // and a refused resync leaves the monitor unchanged.
        let err = ShardedMonitor::recover(&s, &a, &inv, all, 2, None, records.clone())
            .err()
            .expect("two shards refuse the marker");
        assert!(err.to_string().contains("certification marker"), "got {err}");
        let mut two = ShardedMonitor::new(&s, &a, &inv, all, 2);
        two.try_apply(ts.get("Mk").unwrap(), &arg("9")).unwrap();
        let before = two.snapshot().encode();
        assert!(two.resync(None, records).is_err());
        let mut certified_two = two.snapshot();
        certified_two.certified = true;
        certified_two.certified_at = Some(1);
        let err = ShardedMonitor::recover(&s, &a, &inv, all, 2, Some(certified_two.clone()), [])
            .err()
            .expect("two shards refuse a certified snapshot");
        assert!(err.to_string().contains("certified"), "got {err}");
        assert!(two.resync(Some(certified_two), []).is_err());
        assert_eq!(two.snapshot().encode(), before, "refused resyncs change nothing");
        assert!(!two.is_certified());
    }
}
