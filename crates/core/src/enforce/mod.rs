//! Runtime enforcement of migration inventories — the paper's motivating
//! application of dynamic constraints ("updates on objects are only
//! allowed if the migration patterns of the objects are within the
//! permissible set", Section 3).
//!
//! A [`Monitor`] wraps a live database and a regular [`Inventory`] and
//! admits a transaction application only if every object's migration
//! pattern — including the never-created objects' all-∅ patterns and the
//! trailing ∅s of deleted objects — stays inside the inventory. Because
//! inventories are prefix-closed (Definition 3.3), checking each prefix
//! as it is produced is exactly the constraint `family(Σ) ⊆ 𝔏` of
//! Definition 3.5 restricted to the runs that actually happen.
//!
//! # The delta/cohort engine
//!
//! The default engine ([`Monitor::new`]) makes the admit path cost
//! **O(touched + |cohorts|)** per application instead of O(|db| ×
//! run-length):
//!
//! * **Apply-then-undo instead of clone.** The transaction is applied in
//!   place through [`migratory_lang::apply_transaction_delta`], which
//!   returns the exact change-set (created / updated / deleted objects
//!   with before-images) plus the information needed to roll the
//!   application back on violation. No whole-`Instance` clone ever
//!   happens.
//! * **Cohort-compressed DFA tracking.** An object untouched by a step
//!   re-reads its current role symbol, so all objects sharing a (DFA
//!   state, last role symbol) pair move *identically*. The monitor groups
//!   them into cohorts and performs one `dfa.step` per cohort per
//!   application — the number of cohorts is bounded by |Q| × |Ω|, not by
//!   the database size. Objects exempted from the enforced family (e.g.
//!   a non-changing step under [`PatternKind::Proper`]) collapse into a
//!   single never-checked cohort.
//! * **Run-length-encoded histories.** Per object the monitor stores only
//!   its creation step and the steps at which its role symbol *changed*
//!   (`(letter, from_step)` segments). Full patterns are reconstructed
//!   on demand — for [`Monitor::pattern_of`] and [`Violation`]
//!   diagnostics — so per-step allocation no longer grows with run
//!   length.
//!
//! The rejection path reports the first violation of the reference
//! engine's object order, so the [`Violation`] (object, pattern,
//! letter) is *identical* to the reference engine's. It checks only the
//! touched objects and creations, after an O(|cohorts|) check that no
//! untouched cohort leaves the inventory; only when one does is every
//! record scanned.
//!
//! The pre-optimization engine is preserved behind
//! [`Monitor::new_reference`] — it re-derives every object's letter from
//! a cloned database each step and is used by tests as the oracle and by
//! `bench_enforce` as the baseline.
//!
//! # Module layout: sharding, batching, per-shard letter clocks
//!
//! The engine's state machinery (records, cohorts, staging/commit,
//! diagnostics, **and the letter clock**) lives in the private `delta`
//! submodule, shared between two front ends: this file's
//! single-partition [`Monitor`] and [`sharded::ShardedMonitor`], which
//! partitions the object population by weakly-connected role component
//! (oid stripes as fallback), stages participating shards' checks
//! inline on the calling thread, and admits whole *batches* of
//! transactions against one cohort sweep per participating shard
//! ([`ShardedMonitor::try_apply_batch`]). Objects evolve independently
//! (Lemma 3.5) and, under a component alphabet, objects of different
//! components never read each other's letters — so every partition
//! carries its **own letter clock** and the shards share *no* mutable
//! state at all: disjoint components stage, commit, checkpoint and
//! recover fully independently. The single [`Monitor`] is the
//! one-partition case (its shard-local clock *is* the paper's global
//! step counter, surviving as the derived [`Monitor::steps`] view) and
//! stays the k = 1 oracle: each shard of a [`sharded::ShardedMonitor`]
//! is observationally identical to a `Monitor` fed exactly the
//! subsequence of applications routed to it, byte-identical
//! [`Violation`]s included.
//!
//! Enforcement is *kind-aware*: under [`PatternKind::Proper`] a pattern
//! stops being constrained the moment a step leaves its object unchanged
//! (the full pattern can then never be proper), and similarly for
//! [`PatternKind::Lazy`] (role set unchanged) and
//! [`PatternKind::ImmediateStart`] (first letter ∅). This makes the
//! monitor enforce precisely "every *kind*-pattern of every realized run
//! lies in 𝔏" — sound and complete per run prefix, since every prefix of
//! a run is itself a run.
//!
//! The monitor also implements the paper's punchline for SL: Corollary
//! 3.3 makes `satisfies` decidable, so a schema can be **statically
//! certified** once ([`Monitor::certify`]) and all runtime checks skipped
//! thereafter — the ablation benchmarked in `bench_enforce`.
//!
//! # Durability and concurrent ingress
//!
//! The paper's migration constraints are histories, so the monitor's
//! tracking state *is* the constraint — two further layers make it
//! survive crashes and concurrent callers:
//!
//! * [`wal`] — a write-ahead log of committed [`Delta`] blocks (each
//!   carrying its participating shards' clock offsets and letter
//!   assignments) plus a checkpoint chain: a full base [`Snapshot`] and
//!   **incremental** [`CheckpointDelta`]s capturing only the dirtied
//!   state, written by a background [`Snapshotter`] so the admission
//!   path pays O(dirty), never the full-snapshot pause. Both front
//!   ends accept a pluggable [`CommitSink`] ([`Monitor::with_sink`],
//!   [`ShardedMonitor::with_sink`]; no-op when absent) that receives
//!   each admitted block *before* tracking state commits, and both
//!   recover from the folded chain + tail without replaying history
//!   ([`Monitor::recover`], [`ShardedMonitor::recover`]), folding each
//!   shard's sub-log at shard-local granularity — byte-identically,
//!   because every engine structure iterates in canonical order.
//! * [`ingress`] — bounded per-shard admission queues in front of a
//!   [`ShardedMonitor`]: concurrent producers enqueue single
//!   applications, an admission worker drains lanes into
//!   [`ShardedMonitor::try_apply_batch`] blocks (emergent batching,
//!   one group commit per block), violations reject only their own op.
//! * [`net`] — the wire front end: a TCP line-protocol server
//!   (`migctl serve`) mapping each connection onto an ingress
//!   producer, so admission requests arrive from parties that share
//!   nothing with the engine but the protocol (`docs/PROTOCOL.md`).
//!   Acknowledgement on the wire implies the write-ahead append
//!   succeeded; shutdown drains close-and-answer.

// The enforcement stack is the crate's production surface: every public
// item must carry documentation (CI compiles with `-D warnings`).
#![warn(missing_docs)]

mod delta;
pub mod faults;
pub mod health;
pub mod ingress;
pub mod metrics;
pub mod net;
pub mod repl;
pub mod sharded;
pub mod wal;

pub use faults::{FaultKind, FaultSite, IoFaults};
pub use health::{CheckpointHealth, Health};
pub use ingress::{Completion, DurabilityPolicy, IngressConfig, IngressStats};
pub use metrics::{AdmissionMetrics, Histogram};
pub use repl::{AckPolicy, ReplicaCtl, Replicator, ShipFault};
pub use sharded::{ShardStats, ShardedMonitor};
pub use wal::{
    BlockRef, CheckpointData, CheckpointDelta, CheckpointJob, CommitSink, Evolution, FsyncPolicy,
    MemoryWal, ShardLetters, Snapshot, Snapshotter, Wal, WalBlock, WalError, WalRecord,
};

use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use crate::inventory::Inventory;
use crate::pattern::{MigrationPattern, PatternKind};
use delta::{classes_symbol, diagnose_step, DeltaState, DiagParams};
use migratory_lang::{
    apply_bulk_creates, apply_transaction, apply_transaction_delta, run, Assignment, Delta,
    LangError, ObjectDelta, Transaction, TransactionSchema,
};
use migratory_model::{ClassSet, Instance, Oid, Schema};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Transactions with at least this many steps are probed for the
/// create-only bulk-load fast path
/// ([`migratory_lang::apply_bulk_creates`]). Below it, the general
/// interpreter's per-object inserts are cheaper than the bulk path's
/// class-index merge (`BTreeSet::append` is O(existing + new) regardless
/// of batch size).
pub(crate) const BULK_APPLY_THRESHOLD: usize = 4096;

/// Apply `t[args]` to `db` and return the exact change-set, routing
/// large create-only transactions through the bulk loader — parallel
/// chunked condition evaluation plus one bulk append to the heap and
/// indexes. The produced [`Delta`] (and database post-state) is
/// identical to [`apply_transaction_delta`]'s, so everything downstream
/// (tracking, WAL encoding, rollback) is unaffected by the routing.
pub(crate) fn apply_delta_bulk(
    schema: &Schema,
    db: &mut Instance,
    t: &Transaction,
    args: &Assignment,
) -> Result<Delta, LangError> {
    if t.steps.len() >= BULK_APPLY_THRESHOLD {
        if let Some(bulk) = apply_bulk_creates(schema, db, t, args) {
            return bulk;
        }
    }
    apply_transaction_delta(schema, db, t, args)
}

/// A shared, pluggable commit sink handle (see [`wal::CommitSink`]).
/// `Arc<Mutex<…>>` so a monitor stays cloneable and sharded staging
/// threads can be spawned while the sink is attached; the engines lock
/// it exactly once per admitted block (group commit).
pub type SharedSink = Arc<Mutex<dyn CommitSink>>;

/// When a transaction application contributes a letter to the patterns.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StepPolicy {
    /// Every application is a step (Definition 3.4, the SL semantics).
    #[default]
    EveryApplication,
    /// Only applications that change the database are steps (Definition
    /// 4.6, the CSL semantics — "null" applications are invisible).
    OnlyChanging,
}

/// A rejected application: the object whose pattern would leave the
/// inventory, the offending pattern (including the new letter), and the
/// letter itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The object whose pattern would escape 𝔏, or `None` for the class
    /// of never-created objects (their shared pattern ∅ⁿ must also lie in
    /// the inventory when the kind does not exempt it).
    pub oid: Option<Oid>,
    /// The pattern so far, ending with the offending letter.
    pub pattern: MigrationPattern,
    /// The letter (role-set symbol) that escaped the inventory.
    pub letter: u32,
    /// The constraint epoch the rejection was produced under (0 until
    /// the first [`Monitor::redefine`]): operators can tell pre- from
    /// post-redefinition rejections apart.
    pub epoch: u64,
}

impl Violation {
    /// Render with role-set names from the alphabet.
    #[must_use]
    pub fn display(&self, alphabet: &RoleAlphabet) -> String {
        let who = match self.oid {
            Some(o) => format!("object o{}", o.0),
            None => "never-created objects".to_owned(),
        };
        format!(
            "{} would follow the pattern {} ∉ 𝔏 (offending role set {}) [epoch {}]",
            who,
            alphabet.display_word(&self.pattern),
            alphabet.name(self.letter),
            self.epoch,
        )
    }
}

/// Errors raised by [`Monitor::try_apply`].
#[derive(Clone, PartialEq, Debug)]
pub enum EnforceError {
    /// The application would violate the inventory; the database is
    /// unchanged.
    Violation(Violation),
    /// The transaction itself failed to apply (arity, validation).
    Lang(LangError),
    /// The attached [`CommitSink`] refused the block: the write-ahead
    /// append failed, so the application was rolled back — the log never
    /// lags the engine. The database and tracking state are unchanged.
    Durability(WalError),
    /// The server is in degraded read-only mode (persistent durability
    /// failure; see [`Health`]): the op was refused *before* any apply,
    /// nothing changed. Carries the reason recorded when the server
    /// degraded. An operator fixes the fault and re-arms (`rearm`).
    Degraded(String),
    /// A [`Monitor::redefine`] was refused — the new inventory is
    /// invalid for this monitor (alphabet mismatch, certified or
    /// reference monitor, or the never-created class's ∅-walk leaves the
    /// new language). Nothing changed; the epoch did not advance.
    Redefine(String),
}

impl std::fmt::Display for EnforceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnforceError::Violation(v) => {
                write!(f, "inventory violation: pattern {:?} escapes 𝔏", v.pattern)
            }
            EnforceError::Lang(e) => write!(f, "{e}"),
            EnforceError::Durability(e) => write!(f, "commit not durable, rolled back: {e}"),
            EnforceError::Degraded(reason) => write!(f, "degraded (read-only): {reason}"),
            EnforceError::Redefine(reason) => write!(f, "redefine refused: {reason}"),
        }
    }
}

/// What happens to **residue** — objects whose consumed history is not
/// provably viable under a redefined inventory (see
/// [`Monitor::redefine`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ResiduePolicy {
    /// Quarantine: fold residue cohorts into the exempt sink. The
    /// objects stay in the database but are never pattern-checked again;
    /// `stats` counts them as `quarantined_objects`.
    #[default]
    Quarantine,
    /// Certify-and-reset: grandfather the residue's old history and
    /// restart its tracking walk at `δ_new(start, current role)`; only
    /// objects whose restart state is non-accepting fall back to
    /// quarantine.
    CertifyAndReset,
}

impl ResiduePolicy {
    /// Parse the wire token (`quarantine` | `certify-and-reset`).
    pub fn parse(s: &str) -> Result<ResiduePolicy, String> {
        match s {
            "quarantine" => Ok(ResiduePolicy::Quarantine),
            "certify-and-reset" => Ok(ResiduePolicy::CertifyAndReset),
            other => {
                Err(format!("unknown residue policy `{other}` (quarantine|certify-and-reset)"))
            }
        }
    }

    /// The stable wire byte persisted in WAL records and snapshots.
    #[must_use]
    pub fn as_byte(self) -> u8 {
        match self {
            ResiduePolicy::Quarantine => 0,
            ResiduePolicy::CertifyAndReset => 1,
        }
    }

    /// Decode [`ResiduePolicy::as_byte`].
    pub fn from_byte(b: u8) -> Result<ResiduePolicy, String> {
        match b {
            0 => Ok(ResiduePolicy::Quarantine),
            1 => Ok(ResiduePolicy::CertifyAndReset),
            other => Err(format!("unknown residue policy byte {other}")),
        }
    }
}

impl std::fmt::Display for ResiduePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResiduePolicy::Quarantine => "quarantine",
            ResiduePolicy::CertifyAndReset => "certify-and-reset",
        })
    }
}

/// The outcome of an admitted [`Monitor::redefine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RedefineOutcome {
    /// The new constraint epoch (old epoch + 1).
    pub epoch: u64,
    /// Objects whose consumed history was not provably viable under the
    /// new automaton — handled per [`ResiduePolicy`].
    pub residue: usize,
    /// Of the residue, how many were folded into the exempt quarantine
    /// cohort by this redefinition.
    pub quarantined: usize,
}

impl std::error::Error for EnforceError {}

impl From<LangError> for EnforceError {
    fn from(e: LangError) -> Self {
        EnforceError::Lang(e)
    }
}

// ---------------------------------------------------------------------
// Reference engine state (the pre-optimization algorithm, kept as the
// oracle and benchmark baseline)
// ---------------------------------------------------------------------

/// Per-object tracking state of the reference engine.
#[derive(Clone, Debug)]
struct Tracked {
    /// Inventory-DFA state after the object's pattern so far.
    state: u32,
    /// The object's pattern is already outside the enforced family
    /// (e.g. a non-changing step under `Proper`) — never constrained
    /// again.
    exempt: bool,
    /// Role-set symbol after the last step.
    last_role: u32,
    /// The full pattern, for diagnostics.
    history: MigrationPattern,
}

#[derive(Clone)]
enum Engine {
    /// Incremental delta/cohort engine (default).
    Delta(DeltaState),
    /// Whole-database rescan engine (oracle / baseline).
    Reference { tracked: BTreeMap<Oid, Tracked> },
}

/// A database guarded by a migration inventory.
///
/// ```
/// use migratory_core::{enforce::Monitor, Inventory, PatternKind, RoleAlphabet};
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
///     transaction Emp(x) {
///       specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
///     }
/// "#).unwrap();
/// let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
/// let x = Assignment::new(vec![Value::str("1")]);
/// m.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
/// m.try_apply(ts.get("St").unwrap(), &x).unwrap();
/// // Employment is not in the inventory: rejected, database unchanged.
/// assert!(m.try_apply(ts.get("Emp").unwrap(), &x).is_err());
/// assert_eq!(m.db().num_objects(), 1);
/// ```
#[derive(Clone)]
pub struct Monitor<'a> {
    schema: &'a Schema,
    alphabet: &'a RoleAlphabet,
    /// Owned: [`Monitor::redefine`] swaps it under a live monitor. The
    /// constructors clone the caller's inventory (epoch 0).
    inventory: Inventory,
    kind: PatternKind,
    policy: StepPolicy,
    db: Instance,
    engine: Engine,
    /// Where committed blocks are logged before tracking state is
    /// written (`None`: volatile monitor, zero overhead).
    sink: Option<SharedSink>,
    /// Reference-engine clock state (the delta engine's lives inside
    /// its [`DeltaState`] — the monitor's single partition, whose
    /// shard-local letter clock *is* the global step counter at k = 1).
    pre_state: u32,
    /// The never-created pattern has already left the enforced family
    /// (reference engine).
    pre_exempt: bool,
    /// Number of letters emitted so far (reference engine).
    steps: usize,
    certified: bool,
    /// Step count at the moment certification succeeded — the horizon at
    /// which pattern tracking froze.
    certified_at: Option<usize>,
    /// Constraint epoch: 0 at construction, +1 per admitted
    /// [`Monitor::redefine`].
    epoch: u64,
    /// Admitted redefinitions over the monitor's whole history
    /// (including recovered ones).
    redefine_total: u64,
    /// Objects folded into the exempt quarantine cohort by
    /// redefinitions, cumulative.
    quarantined_total: u64,
}

impl<'a> Monitor<'a> {
    fn with_engine(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        engine: Engine,
    ) -> Monitor<'a> {
        Monitor {
            schema,
            alphabet,
            inventory: inventory.clone(),
            kind,
            policy: StepPolicy::default(),
            db: Instance::empty(),
            engine,
            sink: None,
            pre_state: inventory.dfa().start(),
            // ∅ⁿ never starts with a non-∅ letter.
            pre_exempt: kind == PatternKind::ImmediateStart,
            steps: 0,
            certified: false,
            certified_at: None,
            epoch: 0,
            redefine_total: 0,
            quarantined_total: 0,
        }
    }

    /// A monitor over the empty database, enforcing `inventory` for the
    /// given pattern family with the incremental delta/cohort engine.
    #[must_use]
    pub fn new(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
    ) -> Monitor<'a> {
        let state = DeltaState::new(inventory.dfa().start(), kind == PatternKind::ImmediateStart);
        Self::with_engine(schema, alphabet, inventory, kind, Engine::Delta(state))
    }

    /// A monitor driven by the **reference** algorithm: every application
    /// clones the database, rescans all tracked objects and clones their
    /// full histories. Semantically identical to [`Monitor::new`]
    /// (including reported [`Violation`]s) but O(|db| × run-length) per
    /// step — kept as the testing oracle and benchmark baseline.
    #[must_use]
    pub fn new_reference(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
    ) -> Monitor<'a> {
        Self::with_engine(
            schema,
            alphabet,
            inventory,
            kind,
            Engine::Reference { tracked: BTreeMap::new() },
        )
    }

    /// Choose when applications contribute letters (default:
    /// [`StepPolicy::EveryApplication`]).
    #[must_use]
    pub fn with_policy(mut self, policy: StepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a [`CommitSink`]: every admitted block is appended to the
    /// sink *before* tracking state commits (write-ahead), and a sink
    /// failure rolls the application back
    /// ([`EnforceError::Durability`]). Requires the delta engine — the
    /// reference engine has no delta to log.
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        assert!(self.is_incremental(), "the reference engine cannot log deltas");
        self.sink = Some(sink);
        self
    }

    /// The current database.
    #[must_use]
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// The schema this monitor enforces over.
    #[must_use]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The role alphabet patterns are spelled in.
    #[must_use]
    pub fn alphabet(&self) -> &'a RoleAlphabet {
        self.alphabet
    }

    /// The enforced inventory (of the **current** epoch).
    #[must_use]
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The current constraint epoch (0 until the first
    /// [`Monitor::redefine`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Admitted redefinitions over the monitor's whole history.
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

    /// Number of pattern letters emitted so far. For the delta engine
    /// this is a **derived view**: the single partition's shard-local
    /// letter clock, which at k = 1 coincides with the paper's global
    /// step counter.
    #[must_use]
    pub fn steps(&self) -> usize {
        match &self.engine {
            Engine::Delta(d) => d.steps,
            Engine::Reference { .. } => self.steps,
        }
    }

    /// Whether the monitor runs in the certified fast path.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.certified
    }

    /// Whether this monitor uses the incremental delta/cohort engine.
    #[must_use]
    pub fn is_incremental(&self) -> bool {
        matches!(self.engine, Engine::Delta(_))
    }

    /// Number of objects touched by the last admitted **checked**
    /// application (`None` on the reference engine, which has no
    /// touched-set notion). The admit-path work of the delta engine is
    /// proportional to this, never to the database size. Certified-mode
    /// applications skip change capture entirely and leave the count
    /// untouched.
    #[must_use]
    pub fn last_touched(&self) -> Option<usize> {
        match &self.engine {
            Engine::Delta(d) => Some(d.last_touched),
            Engine::Reference { .. } => None,
        }
    }

    /// The recorded pattern of an object (present once it has occurred in
    /// the database; absent when tracking never saw it, e.g. objects
    /// created after certification). Reconstructed from the run-length
    /// encoding on demand. After a mid-run [`Monitor::certify`], patterns
    /// are frozen at the certification point — certified steps skip all
    /// tracking, in both engines.
    #[must_use]
    pub fn pattern_of(&self, o: Oid) -> Option<MigrationPattern> {
        match &self.engine {
            Engine::Delta(d) => {
                // Records stop advancing once certified: clamp the
                // reconstruction horizon so certified steps do not
                // fabricate repeat letters.
                let horizon = self.certified_at.unwrap_or(d.steps);
                d.records.get(o).map(|r| r.pattern_through(self.alphabet.empty_symbol(), horizon))
            }
            Engine::Reference { tracked } => tracked.get(&o).map(|t| t.history.clone()),
        }
    }

    /// Statically certify an SL transaction schema against the inventory
    /// (Corollary 3.3). On success the monitor skips all per-object
    /// runtime checks: no application of certified transactions can ever
    /// produce a pattern outside 𝔏. Returns whether `ts` certifies; errs
    /// on non-SL schemas, where the problem is undecidable (Corollary
    /// 4.7).
    ///
    /// Certification is **one-way**: once a monitor is certified, pattern
    /// tracking stops and later `certify` calls only report the new
    /// schema's verdict without re-enabling checks (the tracking state
    /// would be stale). Enforce a different, non-certifying schema with a
    /// fresh monitor.
    pub fn certify(&mut self, ts: &TransactionSchema) -> Result<bool, CoreError> {
        let decision =
            crate::decide::decide(self.schema, self.alphabet, ts, &self.inventory, self.kind)?;
        let holds = decision.satisfies.holds();
        if holds && !self.certified {
            // Certification freezes tracking, so a durable monitor must
            // record the event — recovery would otherwise replay
            // unchecked post-certification blocks through the tracker.
            // Write-ahead: if the marker cannot be logged, certification
            // does not take effect.
            let at = self.steps();
            if let Some(sink) = &self.sink {
                sink.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .certified(at)
                    .map_err(|e| CoreError::Durability(e.to_string()))?;
            }
            self.certified = true;
            self.certified_at = Some(at);
        }
        Ok(holds)
    }

    /// Redefine the enforced inventory **online**, bumping the
    /// constraint epoch — the paper's dynamic constraints made dynamic
    /// themselves.
    ///
    /// The viability of consumed history is decided per *cohort*, never
    /// per object: a product construction walks the old DFA × new DFA
    /// over every path the old DFA certifies (`delta::viability_map`);
    /// a cohort is viable iff all enforced histories ending in its old
    /// state land in exactly one accepting new state. Viable cohorts
    /// remap wholesale; the residue is quarantined or reset per
    /// `policy`. Total cost O(|Q_old| × |Q_new| × |Σ| + |cohorts|) —
    /// independent of the database size.
    ///
    /// Durability: when a sink is attached the redefinition is
    /// write-ahead logged (epoch bump + canonical inventory encoding +
    /// the partition clock) *before* any tracking state changes;
    /// [`Monitor::recover`] replays it at the exact clock position.
    ///
    /// Refused (with [`EnforceError::Redefine`], nothing changed) on the
    /// reference engine, on a certified monitor (tracking is frozen), on
    /// an alphabet mismatch, and when the never-created class's ∅-walk
    /// leaves the new language while still enforced.
    pub fn redefine(
        &mut self,
        new_inventory: &Inventory,
        policy: ResiduePolicy,
    ) -> Result<RedefineOutcome, EnforceError> {
        let Engine::Delta(_) = &self.engine else {
            return Err(EnforceError::Redefine(
                "the reference engine does not support online redefinition".into(),
            ));
        };
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
        let fates = delta::viability_map(self.inventory.dfa(), new_dfa);
        let Engine::Delta(state) = &self.engine else { unreachable!() };
        let new_pre = state.redefine_pre_walk(new_dfa, empty).map_err(|steps| {
            EnforceError::Redefine(format!(
                "the never-created class's pattern ∅^{steps} leaves the new inventory"
            ))
        })?;
        let steps0 = state.steps;
        // Write-ahead: the record reaches the log before any tracking
        // state is touched; a sink failure aborts with nothing changed.
        if let Some(sink) = &self.sink {
            sink.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .redefined(self.epoch + 1, policy, &[(0, steps0)], &new_inventory.encode())
                .map_err(EnforceError::Durability)?;
        }
        let Engine::Delta(state) = &mut self.engine else { unreachable!() };
        let (residue, quarantined) = state.apply_redefine(
            &fates,
            new_dfa,
            new_pre,
            policy == ResiduePolicy::CertifyAndReset,
        );
        self.inventory = new_inventory.clone();
        self.epoch += 1;
        self.redefine_total += 1;
        self.quarantined_total += quarantined as u64;
        Ok(RedefineOutcome { epoch: self.epoch, residue, quarantined })
    }

    /// Append one block to the attached sink (one lock, one record —
    /// the group-commit unit). A single monitor is one partition:
    /// every delta is a letter on shard 0's clock.
    fn log_block(&self, steps0: usize, deltas: &[&Delta]) -> Result<(), WalError> {
        match &self.sink {
            Some(sink) => {
                let shards = [ShardLetters {
                    shard: 0,
                    steps0,
                    letters: (0..deltas.len() as u32).collect(),
                }];
                sink.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .committed(&BlockRef { deltas, shards: &shards })
            }
            None => Ok(()),
        }
    }

    // -----------------------------------------------------------------
    // Durability: snapshot + recovery (see [`wal`])
    // -----------------------------------------------------------------

    /// Checkpoint everything this monitor cannot rebuild from its
    /// constructor arguments: database heap, cohort/RLE tracking state
    /// with its letter clock, policy and certification horizon. The
    /// encoding is canonical — equal monitor states yield equal
    /// [`Snapshot::encode`] bytes.
    ///
    /// # Panics
    /// Panics on the reference engine, which this layer does not
    /// persist.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let Engine::Delta(state) = &self.engine else {
            panic!("snapshot requires the delta engine")
        };
        Snapshot {
            policy: self.policy,
            certified: self.certified,
            certified_at: self.certified_at,
            evolution: self.evolution(),
            db: self.db.clone(),
            shards: vec![state.clone()],
        }
    }

    /// The constraint-evolution state persisted with every checkpoint.
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
    /// [`Monitor::checkpoint_delta`] captures only changes made from
    /// here on. Prefer this over [`Monitor::snapshot`] (a pure
    /// observation that leaves the dirty set alone) when the snapshot
    /// will be written as a base checkpoint.
    ///
    /// # Panics
    /// Panics on the reference engine, which this layer does not
    /// persist.
    pub fn checkpoint_full(&mut self) -> Snapshot {
        let snap = self.snapshot();
        let Engine::Delta(state) = &mut self.engine else { unreachable!() };
        state.dirty.clear();
        state.all_dirty = false;
        snap
    }

    /// Capture an **incremental checkpoint**: the objects and tracking
    /// records dirtied since the last capture (or recovery), the cohort
    /// tables and the letter clock — O(dirty), never O(db). Drains the
    /// dirty set: the caller must make the returned increment durable
    /// (or fall back to a full [`Monitor::checkpoint_full`]) before
    /// capturing again, or the chain loses these changes.
    ///
    /// # Panics
    /// Panics on the reference engine, which this layer does not
    /// persist.
    pub fn checkpoint_delta(&mut self) -> CheckpointDelta {
        let evolution = self.evolution();
        let Engine::Delta(state) = &mut self.engine else {
            panic!("checkpoint requires the delta engine")
        };
        wal::capture_delta(
            &self.db,
            std::slice::from_mut(state),
            self.policy,
            self.certified,
            self.certified_at,
            evolution,
        )
    }

    /// Rebuild a monitor from a checkpoint plus the WAL tail written
    /// after it — **without replaying history**: the snapshot (the
    /// folded checkpoint chain — see [`wal::Wal::load`]) restores the
    /// tracking state directly and each tail block replays as one
    /// [`Delta::redo`] + one cohort sweep (its original commit
    /// granularity), so recovery costs O(snapshot + tail), never
    /// O(run length).
    ///
    /// `snapshot: None` recovers from an empty monitor (a log that
    /// predates the first checkpoint); the recovered policy then
    /// defaults to [`StepPolicy::EveryApplication`] — logged blocks
    /// hold only effective letters, so replay itself is
    /// policy-independent.
    ///
    /// Records whose shard-0 clock offset predates the snapshot are
    /// skipped (they are already folded into it — the
    /// crash-between-checkpoint-and-prune window); a gap or a
    /// non-admitting block is reported as [`WalError::Mismatch`]. A
    /// [`wal::WalRecord::Certified`] marker in the tail freezes
    /// tracking exactly where the crashed monitor froze it. The
    /// recovered monitor has no sink attached — reattach with
    /// [`Monitor::with_sink`] to resume logging.
    pub fn recover(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        snapshot: Option<Snapshot>,
        tail: impl IntoIterator<Item = wal::WalRecord>,
    ) -> Result<Monitor<'a>, WalError> {
        let mut m = match snapshot {
            Some(snap) => {
                let Snapshot { policy, certified, certified_at, evolution, db, mut shards } = snap;
                if shards.len() != 1 {
                    return Err(WalError::Mismatch(format!(
                        "snapshot has {} shards; a Monitor persists exactly one",
                        shards.len()
                    )));
                }
                let state = shards.pop().expect("one shard");
                let mut m =
                    Self::with_engine(schema, alphabet, inventory, kind, Engine::Delta(state));
                m.db = db;
                m.policy = policy;
                m.certified = certified;
                m.certified_at = certified_at;
                // A v3 checkpoint carries the inventory of its epoch;
                // pre-evolution (v2) checkpoints fall back to the
                // constructor's inventory at epoch 0.
                if let Some(bytes) = &evolution.inventory {
                    m.inventory = Inventory::decode(alphabet, bytes).map_err(|e| {
                        WalError::Mismatch(format!("snapshot inventory does not decode: {e}"))
                    })?;
                }
                m.epoch = evolution.epoch;
                m.redefine_total = evolution.redefine_total;
                m.quarantined_total = evolution.quarantined_total;
                m
            }
            None => Self::new(schema, alphabet, inventory, kind),
        };
        for record in tail {
            match record {
                wal::WalRecord::Block(block) => {
                    if block.shards.len() != 1 || block.shards[0].shard != 0 {
                        return Err(WalError::Mismatch(
                            "multi-shard block in a single monitor's log".into(),
                        ));
                    }
                    let steps0 = block.shards[0].steps0;
                    let at = m.steps();
                    if steps0 < at {
                        continue; // already folded into the snapshot
                    }
                    if steps0 > at {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: next block starts at letter {steps0}, monitor is at {at}"
                        )));
                    }
                    m.replay_block(&block.deltas)?;
                }
                wal::WalRecord::Certified { steps } => {
                    let at = m.steps();
                    if steps < at {
                        continue; // the snapshot already carries it
                    }
                    if steps > at {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: certification at letter {steps}, monitor is at {at}"
                        )));
                    }
                    if !m.certified {
                        m.certified = true;
                        m.certified_at = Some(steps);
                    }
                }
                wal::WalRecord::Redefined { epoch, policy, shards, inventory } => {
                    if epoch <= m.epoch {
                        continue; // already folded into the snapshot
                    }
                    if epoch != m.epoch + 1 {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: redefinition to epoch {epoch}, monitor is at {}",
                            m.epoch
                        )));
                    }
                    if shards.len() != 1 || shards[0].0 != 0 {
                        return Err(WalError::Mismatch(
                            "multi-shard redefinition in a single monitor's log".into(),
                        ));
                    }
                    let at = m.steps();
                    if shards[0].1 != at {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: redefinition at letter {}, monitor is at {at}",
                            shards[0].1
                        )));
                    }
                    let new_inv = Inventory::decode(alphabet, &inventory).map_err(|e| {
                        WalError::Mismatch(format!("redefine record inventory: {e}"))
                    })?;
                    // Replay through the same code path admission ran —
                    // the recovered monitor has no sink, so nothing is
                    // re-logged. Epoch, totals and tracking remap advance
                    // exactly as they did live.
                    m.redefine(&new_inv, policy).map_err(|e| {
                        WalError::Mismatch(format!("logged redefinition does not admit: {e}"))
                    })?;
                }
            }
        }
        Ok(m)
    }

    /// Replay one logged block onto the recovered state: redo the
    /// database change-sets, then run the same staged sweep + commit
    /// the original admission ran (`k =` block length — for a single
    /// monitor every logged block holds one delta). Admission already
    /// proved the block conforming, so a failing stage means the log
    /// and snapshot do not belong together.
    fn replay_block(&mut self, deltas: &[Delta]) -> Result<(), WalError> {
        for d in deltas {
            d.redo(&mut self.db);
        }
        let k = deltas.len();
        if k == 0 {
            return Ok(());
        }
        let Engine::Delta(state) = &mut self.engine else { unreachable!() };
        if self.certified {
            // Certified blocks were logged without tracking; replay
            // mirrors that. The touched objects still dirty the next
            // incremental checkpoint (their heap state changed).
            state.steps += k;
            for d in deltas {
                state.dirty.extend(d.objects().iter().map(|od| od.oid));
            }
            return Ok(());
        }
        let refs: Vec<&Delta> = deltas.iter().collect();
        let touched = delta::touched_map(&refs);
        let ctx = delta::BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        // The same staged walk the admission path ran — committed
        // blocks were proved admissible, so a violation here means the
        // log does not belong to this snapshot.
        let stage = state
            .stage_batch(&ctx, k, &touched)
            .map_err(|()| WalError::Mismatch("logged block does not admit".into()))?;
        state.commit_batch(stage);
        if k == 1 {
            state.last_touched = deltas[0].objects().len();
        }
        Ok(())
    }

    /// The role-set symbol of a raw class set (∅ when absent or outside
    /// this component).
    fn symbol_of_classes(&self, cs: ClassSet) -> u32 {
        classes_symbol(self.schema, self.alphabet, cs)
    }

    /// The role-set symbol of `o` in `db` (∅ when absent).
    fn role_symbol(&self, db: &Instance, o: Oid) -> u32 {
        self.symbol_of_classes(db.role_set(o))
    }

    /// Apply `t[args]`, committing only if no enforced pattern leaves the
    /// inventory. On violation the database is unchanged and the first
    /// offending object is reported.
    pub fn try_apply(&mut self, t: &Transaction, args: &Assignment) -> Result<(), EnforceError> {
        match &self.engine {
            Engine::Delta(_) => self.try_apply_delta(t, args),
            Engine::Reference { .. } => self.try_apply_reference(t, args),
        }
    }

    /// Apply a whole sequence, stopping at the first rejection; returns
    /// how many applications committed.
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

    // -----------------------------------------------------------------
    // Delta/cohort engine
    // -----------------------------------------------------------------

    fn try_apply_delta(&mut self, t: &Transaction, args: &Assignment) -> Result<(), EnforceError> {
        if self.certified {
            // Certified fast path: no checks will run. Without a sink,
            // skip the before-image capture entirely — the raw
            // interpreter cost is all that remains. A durable monitor
            // still captures the delta (it must be logged), but runs no
            // admission work on it.
            let steps0 = self.steps();
            if self.sink.is_some() {
                let delta = apply_delta_bulk(self.schema, &mut self.db, t, args)?;
                if let Err(e) = self.log_block(steps0, &[&delta]) {
                    delta.undo(&mut self.db);
                    return Err(EnforceError::Durability(e));
                }
                let Engine::Delta(state) = &mut self.engine else { unreachable!() };
                // The heap changed: the next incremental checkpoint
                // must carry these objects even though tracking froze.
                state.dirty.extend(delta.objects().iter().map(|od| od.oid));
                state.steps += 1;
            } else {
                apply_transaction(self.schema, &mut self.db, t, args)?;
                let Engine::Delta(state) = &mut self.engine else { unreachable!() };
                state.steps += 1;
            }
            return Ok(());
        }
        let delta = apply_delta_bulk(self.schema, &mut self.db, t, args)?;
        if self.policy == StepPolicy::OnlyChanging && delta.is_identity() {
            // Null application (Definition 4.6): no letter, and the
            // database is bit-identical — nothing to undo.
            let Engine::Delta(state) = &mut self.engine else { unreachable!() };
            state.last_touched = delta.objects().len();
            return Ok(());
        }

        // One staged, read-only pass at k = 1 — the never-created ∅
        // walk plus touched objects and untouched cohorts, all from the
        // partition's own letter clock (nothing is written until the
        // step is known admissible), then a commit. This is the same
        // code path the sharded monitor runs per shard, so the engines
        // cannot drift.
        let ctx = delta::BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        // Bulk-creation fast path: a big all-creations letter stages
        // without the per-object touched map (uniform creation context,
        // one DFA step per distinct role symbol, sorted record append).
        // Byte-identical to the generic path below — WAL replay goes
        // through `stage_batch` and recovery compares snapshot bytes.
        if delta.objects().len() >= BULK_APPLY_THRESHOLD
            && delta.objects().iter().all(ObjectDelta::created)
        {
            let Engine::Delta(state) = &self.engine else { unreachable!() };
            let steps0 = state.steps;
            return match state.stage_bulk_creates(&ctx, delta.objects().iter()) {
                Ok(stage) => {
                    if let Err(e) = self.log_block(steps0, &[&delta]) {
                        delta.undo(&mut self.db);
                        return Err(EnforceError::Durability(e));
                    }
                    let Engine::Delta(state) = &mut self.engine else { unreachable!() };
                    state.commit_bulk_creates(stage);
                    Ok(())
                }
                Err(()) => {
                    let v = self.diagnose_violation(&delta);
                    delta.undo(&mut self.db);
                    Err(EnforceError::Violation(v))
                }
            };
        }
        let touched = delta::touched_map(&[&delta]);
        let Engine::Delta(state) = &mut self.engine else { unreachable!() };
        let steps0 = state.steps;
        match state.stage_batch(&ctx, 1, &touched) {
            Ok(stage) => {
                // Write-ahead: the block reaches the log after staging
                // proved it admissible and before any tracking state is
                // written; a sink failure aborts the whole application.
                if let Err(e) = self.log_block(steps0, &[&delta]) {
                    delta.undo(&mut self.db);
                    return Err(EnforceError::Durability(e));
                }
                let Engine::Delta(state) = &mut self.engine else { unreachable!() };
                state.commit_batch(stage);
                // `last_touched` counts every object of the change-set,
                // including within-step blips the tracker never sees.
                state.last_touched = delta.objects().len();
                Ok(())
            }
            Err(()) => {
                // Rejection path: report the first violation of the
                // reference engine's scan (never-created class first,
                // then objects in ascending oid order), byte-identical
                // to [`Monitor::new_reference`]'s, then roll the
                // database back. O(touched + |cohorts|) unless an
                // untouched cohort violates.
                let v = self.diagnose_violation(&delta);
                delta.undo(&mut self.db);
                Err(EnforceError::Violation(v))
            }
        }
    }

    /// Rejection diagnostics: the first violation of the reference
    /// engine's scan (never-created class first, then objects in
    /// ascending oid order) — see [`delta::diagnose_step`], which
    /// checks only the touched objects unless an untouched cohort
    /// leaves the inventory.
    fn diagnose_violation(&self, delta: &Delta) -> Violation {
        let Engine::Delta(state) = &self.engine else { unreachable!() };
        let params = DiagParams {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
            epoch: self.epoch,
        };
        diagnose_step(&params, std::slice::from_ref(state), &[true], |_| 0, delta)
    }

    // -----------------------------------------------------------------
    // Reference engine (pre-optimization algorithm, verbatim)
    // -----------------------------------------------------------------

    fn try_apply_reference(
        &mut self,
        t: &Transaction,
        args: &Assignment,
    ) -> Result<(), EnforceError> {
        let next = run(self.schema, &self.db, t, args)?;
        if self.certified {
            self.db = next;
            self.steps += 1;
            return Ok(());
        }
        if self.policy == StepPolicy::OnlyChanging && next == self.db {
            return Ok(());
        }
        let dfa = self.inventory.dfa();
        let empty = self.alphabet.empty_symbol();
        let step_idx = self.steps + 1; // 1-based index of this letter

        // 1. The never-created objects read one more ∅.
        let pre_state_old = self.pre_state;
        let mut pre_exempt_new = self.pre_exempt;
        if !pre_exempt_new
            && step_idx >= 2
            && matches!(self.kind, PatternKind::Proper | PatternKind::Lazy)
        {
            // A second ∅ neither changes the object nor its role set.
            pre_exempt_new = true;
        }
        let pre_state_new = dfa.step(pre_state_old, empty);
        if !pre_exempt_new && !dfa.is_accepting(pre_state_new) {
            return Err(EnforceError::Violation(Violation {
                oid: None,
                pattern: vec![empty; step_idx],
                letter: empty,
                epoch: self.epoch,
            }));
        }

        let Engine::Reference { tracked } = &self.engine else { unreachable!() };

        // 2. Already-tracked objects (live or deleted) read their new
        //    role symbol.
        let mut updates: Vec<(Oid, Tracked)> = Vec::with_capacity(tracked.len());
        for (&o, tr) in tracked {
            let letter = self.role_symbol(&next, o);
            let role_changed = letter != tr.last_role;
            let object_changed = role_changed || self.db.tuple_ref(o) != next.tuple_ref(o);
            let mut exempt = tr.exempt;
            if !exempt && step_idx >= 2 {
                exempt = match self.kind {
                    PatternKind::All | PatternKind::ImmediateStart => false,
                    PatternKind::Proper => !object_changed,
                    PatternKind::Lazy => !role_changed,
                };
            }
            let state = dfa.step(tr.state, letter);
            if !exempt && !dfa.is_accepting(state) {
                let mut pattern = tr.history.clone();
                pattern.push(letter);
                return Err(EnforceError::Violation(Violation {
                    oid: Some(o),
                    pattern,
                    letter,
                    epoch: self.epoch,
                }));
            }
            let mut history = tr.history.clone();
            history.push(letter);
            updates.push((o, Tracked { state, exempt, last_role: letter, history }));
        }

        // 3. Objects created by this application: pattern ∅^(step_idx−1)·ω.
        let mut created: Vec<(Oid, Tracked)> = Vec::new();
        for o in next.objects() {
            if tracked.contains_key(&o) {
                continue;
            }
            let letter = self.role_symbol(&next, o);
            // Inherit the never-created exemption accrued before this
            // step; the creation step itself always changes the object.
            let exempt = match self.kind {
                PatternKind::All => false,
                PatternKind::ImmediateStart => step_idx > 1,
                PatternKind::Proper | PatternKind::Lazy => self.pre_exempt,
            };
            let state = dfa.step(pre_state_old, letter);
            if !exempt && !dfa.is_accepting(state) {
                let mut pattern = vec![empty; step_idx - 1];
                pattern.push(letter);
                return Err(EnforceError::Violation(Violation {
                    oid: Some(o),
                    pattern,
                    letter,
                    epoch: self.epoch,
                }));
            }
            let mut history = vec![empty; step_idx - 1];
            history.push(letter);
            created.push((o, Tracked { state, exempt, last_role: letter, history }));
        }

        // Commit.
        self.db = next;
        self.steps = step_idx;
        self.pre_state = pre_state_new;
        self.pre_exempt = pre_exempt_new;
        let Engine::Reference { tracked } = &mut self.engine else { unreachable!() };
        for (o, tr) in updates.into_iter().chain(created) {
            tracked.insert(o, tr);
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use delta::EXEMPT;
    use migratory_lang::parse_transactions;
    use migratory_model::schema::university_schema;
    use migratory_model::{RoleSet, Value};

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
            transaction Nm(x, n) { modify(PERSON, { SSN = x }, { Name = n }); }
            transaction St(x) {
              specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
            }
            transaction Emp(x) {
              specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
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
    fn admits_conforming_run_and_rejects_violation() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        let x = arg("1");
        m.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        m.try_apply(ts.get("St").unwrap(), &x).unwrap();
        m.try_apply(ts.get("UnSt").unwrap(), &x).unwrap();
        // Re-specializing to STUDENT breaks [P]*[S]*[P]*:
        let err = m.try_apply(ts.get("St").unwrap(), &x).unwrap_err();
        match err {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)));
                assert_eq!(v.pattern.len(), 4);
                assert!(v.display(&a).contains("o1"));
            }
            EnforceError::Lang(e) => panic!("unexpected {e}"),
            EnforceError::Durability(e) => panic!("unexpected {e}"),
            EnforceError::Degraded(e) => panic!("unexpected {e}"),
            EnforceError::Redefine(e) => panic!("unexpected {e}"),
        }
        // Rolled back: the object is still a plain person, 3 letters.
        assert_eq!(m.steps(), 3);
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 3, "the rejected letter was not recorded");
        // The run can continue down a permitted branch.
        m.try_apply(ts.get("Rm").unwrap(), &x).unwrap();
        assert_eq!(m.db().num_objects(), 0);
    }

    #[test]
    fn bulk_create_staging_matches_generic_staging() {
        // The bulk-load fast path must produce tracking state *equal* to
        // the generic `stage_batch`/`commit_batch` path — WAL replay runs
        // the generic path and recovery compares snapshot bytes.
        use migratory_lang::{apply_transaction_delta, AtomicUpdate};
        use migratory_model::{Atom, Condition};
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let person = s.class_id("PERSON").unwrap();
        let student = s.class_id("STUDENT").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        // Mixed classes: the bulk stage must group by role symbol and
        // allocate cohorts in the generic first-occurrence order.
        let mixed: Vec<AtomicUpdate> = (0..40)
            .map(|i| AtomicUpdate::Create {
                class: if i % 3 == 0 { student } else { person },
                gamma: Condition::from_atoms([Atom::eq_const(ssn, format!("b{i}"))]),
            })
            .collect();
        let bulk = Transaction::sl("B", &[], mixed);
        let none = Assignment::empty();
        for kind in
            [PatternKind::All, PatternKind::ImmediateStart, PatternKind::Proper, PatternKind::Lazy]
        {
            let inv = Inventory::parse_init(&s, &a, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
            let mut m = Monitor::new(&s, &a, &inv, kind);
            // Seed regular letters so cohorts and the ∅ walk are mid-run.
            m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
            m.try_apply(ts.get("St").unwrap(), &arg("1")).unwrap();
            m.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap();
            let mut dbx = m.db().clone();
            let d = apply_transaction_delta(&s, &mut dbx, &bulk, &none).unwrap();
            let ctx = delta::BatchCtx { schema: &s, alphabet: &a, dfa: inv.dfa(), kind };
            let Engine::Delta(state) = &m.engine else { unreachable!() };
            let generic = {
                let mut st = state.clone();
                let touched = delta::touched_map(&[&d]);
                let stage = st.stage_batch(&ctx, 1, &touched).expect("conforming");
                st.commit_batch(stage);
                st
            };
            let bulked = {
                let mut st = state.clone();
                let stage = st.stage_bulk_creates(&ctx, d.objects().iter()).expect("conforming");
                st.commit_bulk_creates(stage);
                st
            };
            assert!(
                generic == bulked,
                "bulk staging diverged from the generic path under {kind:?}"
            );
        }
        // Both paths agree on rejection too: [PERSON] creations against
        // an inventory admitting only [STUDENT] letters (exemption never
        // saves a creation under All).
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let m = Monitor::new(&s, &a, &inv, PatternKind::All);
        let mut dbx = m.db().clone();
        let d = apply_transaction_delta(&s, &mut dbx, &bulk, &none).unwrap();
        let ctx =
            delta::BatchCtx { schema: &s, alphabet: &a, dfa: inv.dfa(), kind: PatternKind::All };
        let Engine::Delta(state) = &m.engine else { unreachable!() };
        assert!(state.stage_batch(&ctx, 1, &delta::touched_map(&[&d])).is_err());
        assert!(state.stage_bulk_creates(&ctx, d.objects().iter()).is_err());
    }

    #[test]
    fn bulk_threshold_violation_matches_reference() {
        // Above the routing threshold the public path takes the bulk
        // loader end to end; a violating load must report the reference
        // engine's exact Violation and leave the database untouched.
        use migratory_lang::AtomicUpdate;
        use migratory_model::{Atom, Condition};
        let (s, a) = setup();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let n = BULK_APPLY_THRESHOLD + 10;
        let updates: Vec<AtomicUpdate> = (0..n)
            .map(|i| AtomicUpdate::Create {
                class: person,
                gamma: Condition::from_atoms([Atom::eq_const(ssn, format!("v{i}"))]),
            })
            .collect();
        let bulk = Transaction::sl("B", &[], updates);
        let none = Assignment::empty();
        // [PERSON] creations against an inventory admitting only
        // [STUDENT] letters: every created object violates; the report
        // must name the first in oid order, exactly as the reference
        // engine does.
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let mut md = Monitor::new(&s, &a, &inv, PatternKind::All);
        let mut mr = Monitor::new_reference(&s, &a, &inv, PatternKind::All);
        let (ed, er) =
            (md.try_apply(&bulk, &none).unwrap_err(), mr.try_apply(&bulk, &none).unwrap_err());
        match (ed, er) {
            (EnforceError::Violation(vd), EnforceError::Violation(vr)) => assert_eq!(vd, vr),
            other => panic!("expected violations, got {other:?}"),
        }
        assert_eq!(md.db().num_objects(), 0, "violating bulk load must roll back");
        // The same load against a permitting inventory admits through
        // the bulk path and matches the reference database.
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut md = Monitor::new(&s, &a, &inv, PatternKind::All);
        let mut mr = Monitor::new_reference(&s, &a, &inv, PatternKind::All);
        md.try_apply(&bulk, &none).unwrap();
        mr.try_apply(&bulk, &none).unwrap();
        assert_eq!(md.db().num_objects(), n);
        assert_eq!(md.db(), mr.db());
    }

    #[test]
    fn committed_patterns_always_inside_inventory() {
        // Drive a randomized-ish batch; whatever commits must satisfy 𝔏
        // letter by letter (prefix-closedness makes this the invariant).
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(
            &s,
            &a,
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
        )
        .unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        let script: Vec<(&str, &str)> = vec![
            ("Mk", "1"),
            ("St", "1"),
            ("Mk", "2"),
            ("Emp", "2"),
            ("Emp", "1"),
            ("UnSt", "1"),
            ("Rm", "2"),
            ("Nm", "1"),
            ("Rm", "1"),
        ];
        let mut committed = 0;
        for (t, v) in script {
            let args = if t == "Nm" {
                Assignment::new(vec![Value::str(v), Value::str("z")])
            } else {
                arg(v)
            };
            if m.try_apply(ts.get(t).unwrap(), &args).is_ok() {
                committed += 1;
            }
        }
        assert!(committed >= 5, "most of the script conforms");
        for o in [Oid(1), Oid(2)] {
            if let Some(p) = m.pattern_of(o) {
                assert!(inv.contains(&p), "committed pattern {p:?} must lie in 𝔏");
            }
        }
    }

    #[test]
    fn never_created_objects_constrain_all_kind() {
        // 𝔏 = Init([PERSON]*): no ∅ anywhere, so even one application
        // violates the never-created objects' pattern ∅ under kind=All…
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "[PERSON]*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap_err();
        assert!(matches!(err, EnforceError::Violation(Violation { oid: None, .. })));
        // …but immediate-start patterns never begin with ∅, so the same
        // application is admitted under kind=ImmediateStart.
        let mut m2 = Monitor::new(&s, &a, &inv, PatternKind::ImmediateStart);
        m2.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m2.steps(), 1);
    }

    #[test]
    fn proper_kind_exempts_after_noop_step() {
        // 𝔏 = Init(∅*[PERSON][STUDENT]∅*) — persons must study on their
        // second letter. A no-op modify breaks properness first, after
        // which the object is unconstrained under kind=Proper.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let x = arg("1");
        let noop = Assignment::new(vec![Value::str("1"), Value::str("n")]); // Name already "n"

        let mut strict = Monitor::new(&s, &a, &inv, PatternKind::All);
        strict.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        assert!(
            strict.try_apply(ts.get("Nm").unwrap(), &noop).is_err(),
            "kind=All rejects: [P][P] ∉ 𝔏"
        );

        let mut proper = Monitor::new(&s, &a, &inv, PatternKind::Proper);
        proper.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        proper.try_apply(ts.get("Nm").unwrap(), &noop).unwrap();
        // o1's pattern [P][P] is not proper — exempt from here on, even
        // for letters far outside 𝔏:
        proper.try_apply(ts.get("Emp").unwrap(), &x).unwrap();
        assert_eq!(proper.pattern_of(Oid(1)).unwrap().len(), 3);
    }

    #[test]
    fn lazy_kind_exempts_on_role_preserving_change() {
        // A *real* rename changes the object but not its role set: the
        // pattern stays proper but stops being lazy.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let x = arg("1");
        let rename = Assignment::new(vec![Value::str("1"), Value::str("other")]);

        let mut lazy = Monitor::new(&s, &a, &inv, PatternKind::Lazy);
        lazy.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        lazy.try_apply(ts.get("Nm").unwrap(), &rename).unwrap();
        lazy.try_apply(ts.get("Emp").unwrap(), &x).unwrap();

        let mut proper = Monitor::new(&s, &a, &inv, PatternKind::Proper);
        proper.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        assert!(
            proper.try_apply(ts.get("Nm").unwrap(), &rename).is_err(),
            "the rename is a proper step, so [P][P] is checked and fails"
        );
    }

    #[test]
    fn deleted_objects_trailing_empties_are_enforced() {
        // 𝔏 = Init(∅*[PERSON]∅) allows exactly one trailing ∅ after
        // deletion: a second application afterwards violates kind=All.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] ∅").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        m.try_apply(ts.get("Rm").unwrap(), &arg("1")).unwrap();
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap_err();
        match err {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)), "o1's pattern would be [P]∅∅");
                assert_eq!(v.letter, a.empty_symbol());
            }
            EnforceError::Lang(e) => panic!("unexpected {e}"),
            EnforceError::Durability(e) => panic!("unexpected {e}"),
            EnforceError::Degraded(e) => panic!("unexpected {e}"),
            EnforceError::Redefine(e) => panic!("unexpected {e}"),
        }
        // Under Proper the second trailing ∅ makes o1's pattern improper
        // (and ∅∅ exempts the never-created class too): admitted.
        let mut pm = Monitor::new(&s, &a, &inv, PatternKind::Proper);
        pm.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        pm.try_apply(ts.get("Rm").unwrap(), &arg("1")).unwrap();
        pm.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap();
    }

    #[test]
    fn late_created_objects_start_from_pre_state() {
        // 𝔏 = Init(∅[PERSON]*∅*): creation must happen exactly at step 2.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅ [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        // Step 1 must emit ∅ for (not-yet-created) o1 — Mk at step 1
        // violates o1's pattern [P] (𝔏 requires a leading ∅).
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap_err();
        assert!(matches!(err, EnforceError::Violation(Violation { oid: Some(_), .. })));
        // A no-op delete emits the required ∅ first; then Mk is fine.
        m.try_apply(ts.get("Rm").unwrap(), &arg("zzz")).unwrap();
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m.pattern_of(Oid(1)).unwrap().to_vec(), {
            let p = a.symbol_of(RoleSet::closure_of_named(&s, &["PERSON"]).unwrap()).unwrap();
            vec![a.empty_symbol(), p]
        });
    }

    #[test]
    fn only_changing_policy_skips_null_applications() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅ [PERSON]* ∅*").unwrap();
        let mut m =
            Monitor::new(&s, &a, &inv, PatternKind::All).with_policy(StepPolicy::OnlyChanging);
        // The no-op delete changes nothing: contributes no letter under
        // the CSL semantics, so creation still happens "at step 1" and
        // violates the required leading ∅.
        m.try_apply(ts.get("Rm").unwrap(), &arg("zzz")).unwrap();
        assert_eq!(m.steps(), 0);
        assert!(m.try_apply(ts.get("Mk").unwrap(), &arg("1")).is_err());
    }

    #[test]
    fn certification_fast_path_matches_decide() {
        // Example 3.4's schema characterizes Init(∅*([S]+[G]*)*∅*); a
        // certified monitor admits any run of it without checks.
        let (s, a) = setup();
        let ts = parse_transactions(
            &s,
            r#"
            transaction T1(n, sv, t, mj) {
              create(PERSON, { SSN = sv, Name = n });
              specialize(PERSON, STUDENT, { SSN = sv },
                         { Major = mj, FirstEnroll = t });
            }
            transaction T4(sv) { delete(PERSON, { SSN = sv }); }
        "#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        assert!(m.certify(&ts).unwrap(), "the schema satisfies the inventory");
        assert!(m.is_certified());
        let t1 = ts.get("T1").unwrap();
        let args = Assignment::new(vec![
            Value::str("ann"),
            Value::str("1"),
            Value::int(1990),
            Value::str("CS"),
        ]);
        m.try_apply(t1, &args).unwrap();
        assert_eq!(m.db().num_objects(), 1);
        assert!(m.pattern_of(Oid(1)).is_none(), "certified mode skips tracking");

        // A schema that can violate must fail certification.
        let bad = uni_transactions(&s);
        let mut m2 = Monitor::new(&s, &a, &inv, PatternKind::All);
        assert!(!m2.certify(&bad).unwrap());
        assert!(!m2.is_certified());
    }

    #[test]
    fn mid_run_certification_freezes_patterns_identically() {
        // Certifying after some steps must freeze pattern tracking in
        // both engines at the same horizon — certified steps must not
        // fabricate repeat letters in the RLE reconstruction.
        let (s, a) = setup();
        let ts = parse_transactions(
            &s,
            r#"
            transaction T1(n, sv, t, mj) {
              create(PERSON, { SSN = sv, Name = n });
              specialize(PERSON, STUDENT, { SSN = sv },
                         { Major = mj, FirstEnroll = t });
            }
            transaction T4(sv) { delete(PERSON, { SSN = sv }); }
        "#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let args = |k: &str| {
            Assignment::new(vec![
                Value::str("ann"),
                Value::str(k),
                Value::int(1990),
                Value::str("CS"),
            ])
        };
        let mut fast = Monitor::new(&s, &a, &inv, PatternKind::All);
        let mut oracle = Monitor::new_reference(&s, &a, &inv, PatternKind::All);
        for m in [&mut fast, &mut oracle] {
            m.try_apply(ts.get("T1").unwrap(), &args("1")).unwrap();
            assert!(m.certify(&ts).unwrap());
            m.try_apply(ts.get("T1").unwrap(), &args("2")).unwrap();
            assert_eq!(m.steps(), 2);
        }
        // o1's pattern is frozen at one letter ([STUDENT]); the certified
        // step contributed nothing to tracking. Both engines agree.
        assert_eq!(fast.pattern_of(Oid(1)), oracle.pattern_of(Oid(1)));
        assert_eq!(fast.pattern_of(Oid(1)).unwrap().len(), 1);
        // o2 was created after certification: untracked in both engines.
        assert!(fast.pattern_of(Oid(2)).is_none());
        assert!(oracle.pattern_of(Oid(2)).is_none());
        // Certification is one-way: a later non-certifying schema reports
        // false but does not resurrect checks over stale tracking state.
        let bad = uni_transactions(&s);
        assert!(!fast.certify(&bad).unwrap());
        assert!(fast.is_certified());
    }

    #[test]
    fn certify_rejects_csl() {
        let (s, a) = setup();
        let csl = parse_transactions(
            &s,
            r#"transaction G(x) {
                 when PERSON(SSN = x) -> delete(PERSON, { SSN = x });
               }"#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        assert!(matches!(m.certify(&csl), Err(CoreError::NotSl)));
    }

    #[test]
    fn monitor_agrees_with_explorer_families() {
        // Cross-validation against the ground-truth enumerator: every
        // pattern the explorer produces within the inventory must drive
        // the monitor without rejection along its own run — here spot-
        // checked by replaying explorer-admissible scripts.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(
            &s,
            &a,
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]* [PERSON]* ∅*",
        )
        .unwrap();
        let sets =
            explore(&s, &a, &ts, &ExploreConfig { max_steps: 3, ..ExploreConfig::default() });
        // All explored patterns inside 𝔏 are admissible: the monitor is
        // not *stricter* than the constraint (completeness per prefix).
        let admissible = sets.all.iter().filter(|w| inv.contains(w)).count();
        assert!(admissible > 0);
        // And every pattern the monitor commits lies in 𝔏 (soundness):
        // exercised by the batch test above; here check the two agree on
        // the empty run.
        assert!(inv.contains(&[]));
    }

    #[test]
    fn try_apply_all_reports_commit_count() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        let x = arg("1");
        let mk = ts.get("Mk").unwrap();
        let st = ts.get("St").unwrap();
        let rm = ts.get("Rm").unwrap();
        let (done, err) = m.try_apply_all([(mk, &x), (st, &x), (rm, &x)]);
        assert_eq!(done, 1, "St violates [PERSON]*");
        assert!(err.is_some());
        assert_eq!(m.db().num_objects(), 1);
    }

    /// Replay a script on both engines, asserting identical commit
    /// prefixes, identical violations, identical databases and identical
    /// recorded patterns.
    fn assert_engines_agree(
        inv_src: &str,
        kind: PatternKind,
        policy: StepPolicy,
        script: &[(&str, Assignment)],
    ) {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, inv_src).unwrap();
        let mut fast = Monitor::new(&s, &a, &inv, kind).with_policy(policy);
        let mut oracle = Monitor::new_reference(&s, &a, &inv, kind).with_policy(policy);
        for (i, (name, args)) in script.iter().enumerate() {
            let t = ts.get(name).unwrap();
            let rf = fast.try_apply(t, args);
            let ro = oracle.try_apply(t, args);
            assert_eq!(rf, ro, "engines disagree at step {i} ({name}) under {kind} / {inv_src}");
            assert_eq!(fast.db(), oracle.db(), "databases diverged at step {i}");
            assert_eq!(fast.steps(), oracle.steps(), "letter counts diverged at step {i}");
        }
        for o in fast.db().objects().chain((1..=script.len() as u64).map(Oid)) {
            assert_eq!(fast.pattern_of(o), oracle.pattern_of(o), "pattern of o{} diverged", o.0);
        }
    }

    #[test]
    fn delta_engine_matches_reference_on_scripted_runs() {
        let one = |n: &'static str| (n, arg("1"));
        let two = |n: &'static str| (n, arg("2"));
        let script: Vec<(&str, Assignment)> = vec![
            one("Mk"),
            one("St"),
            two("Mk"),
            two("Emp"),
            one("Emp"),
            one("UnSt"),
            ("Nm", Assignment::new(vec![Value::str("1"), Value::str("z")])),
            ("Nm", Assignment::new(vec![Value::str("1"), Value::str("z")])), // no-op rename
            two("Rm"),
            one("Rm"),
            ("Mk", arg("3")),
        ];
        for inv in [
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
            "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*",
            "∅* [PERSON]+ ∅",
            "∅ [PERSON]* [EMPLOYEE]* ∅*",
        ] {
            for kind in PatternKind::ALL {
                for policy in [StepPolicy::EveryApplication, StepPolicy::OnlyChanging] {
                    assert_engines_agree(inv, kind, policy, &script);
                }
            }
        }
    }

    #[test]
    fn untouched_objects_cost_one_cohort_step() {
        // 50 parallel persons; each application touches exactly one. The
        // cohort map must stay tiny and last_touched must track the
        // delta, not the database.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        for i in 0..50 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        m.try_apply(ts.get("St").unwrap(), &arg("k7")).unwrap();
        assert_eq!(m.last_touched(), Some(1), "only k7 was touched");
        let Engine::Delta(state) = &m.engine else { panic!("delta engine") };
        assert!(
            state.by_key.len() <= 3,
            "50 objects collapse into ≤3 cohorts, got {}",
            state.by_key.len()
        );
        // Histories are run-length encoded: 51 steps, but o1's record
        // holds a single segment ([P] since step 1).
        let rec = state.records.get(Oid(1)).unwrap();
        assert_eq!(rec.segments.len(), 1, "no per-step history growth");
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 51, "full pattern reconstructs");
        // o8 (= k7) changed role once: two segments.
        let touched = state.records.get(Oid(8)).unwrap();
        assert_eq!(touched.segments.len(), 2);
    }

    #[test]
    fn violation_diagnostics_identical_to_reference_with_many_objects() {
        // Several objects violate "simultaneously": the delta engine must
        // report the same (first-by-oid) object, pattern and letter the
        // reference scan reports.
        let (s, a) = setup();
        let ts = parse_transactions(
            &s,
            r#"
            transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
            transaction RmAll() { delete(PERSON, { }); }
        "#,
        )
        .unwrap();
        // One trailing ∅ allowed after deletion; a bulk delete then one
        // more application gives every deleted object its second ∅ at
        // the same step.
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]+ ∅").unwrap();
        let mut fast = Monitor::new(&s, &a, &inv, PatternKind::All);
        let mut oracle = Monitor::new_reference(&s, &a, &inv, PatternKind::All);
        let none = Assignment::empty();
        for m in [&mut fast, &mut oracle] {
            m.try_apply(ts.get("Mk").unwrap(), &arg("a")).unwrap();
            m.try_apply(ts.get("Mk").unwrap(), &arg("b")).unwrap();
            m.try_apply(ts.get("RmAll").unwrap(), &none).unwrap();
        }
        let ef = fast.try_apply(ts.get("Mk").unwrap(), &arg("c")).unwrap_err();
        let eo = oracle.try_apply(ts.get("Mk").unwrap(), &arg("c")).unwrap_err();
        assert_eq!(ef, eo);
        match ef {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)), "lowest-oid violator reported");
                assert_eq!(v.pattern.len(), 4);
                assert_eq!(v.letter, a.empty_symbol());
            }
            EnforceError::Lang(e) => panic!("unexpected {e}"),
            EnforceError::Durability(e) => panic!("unexpected {e}"),
            EnforceError::Degraded(e) => panic!("unexpected {e}"),
            EnforceError::Redefine(e) => panic!("unexpected {e}"),
        }
        // Rejection rolled back: both databases agree and can continue.
        assert_eq!(fast.db(), oracle.db());
        assert_eq!(fast.steps(), 3);
    }

    #[test]
    fn proper_kind_folds_untouched_objects_into_exempt_cohort() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::Proper);
        for i in 0..10 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        let Engine::Delta(state) = &m.engine else { panic!("delta engine") };
        // After step 2 under Proper, every untouched object is exempt:
        // only the latest creation can still occupy a live cohort.
        assert!(state.by_key.len() <= 1);
        assert!(state.cohorts[EXEMPT as usize].size >= 9);
    }

    #[test]
    fn cyclic_workloads_recycle_cohort_slots() {
        // St/UnSt toggling empties and recreates cohorts every step; the
        // free list must keep the slot table bounded instead of growing
        // one slot per application.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        // All exercises the re-key path; Proper and Lazy exercise the
        // fold-to-exempt path. Same-object toggling empties and recreates
        // a singleton cohort every step (free-list path); rotating over
        // several objects leaves live forwarders behind each fold
        // (compaction path).
        for kind in [PatternKind::All, PatternKind::Proper, PatternKind::Lazy] {
            for rotate in [false, true] {
                let keys = ["a", "b", "c"];
                let mut m = Monitor::new(&s, &a, &inv, kind);
                for k in keys {
                    m.try_apply(ts.get("Mk").unwrap(), &arg(k)).unwrap();
                }
                for i in 0..300 {
                    let t = if i % 2 == 0 { "St" } else { "UnSt" };
                    let k = if rotate { keys[(i / 2) % keys.len()] } else { "b" };
                    m.try_apply(ts.get(t).unwrap(), &arg(k)).unwrap();
                }
                let Engine::Delta(state) = &m.engine else { panic!("delta engine") };
                assert!(
                    state.cohorts.len() <= 65,
                    "300 toggles (rotate {rotate}) under {kind} must bound the slot \
                     table, got {} cohorts",
                    state.cohorts.len()
                );
            }
        }
    }

    #[test]
    fn reference_engine_reports_itself() {
        let (s, a) = setup();
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        assert!(Monitor::new(&s, &a, &inv, PatternKind::All).is_incremental());
        let r = Monitor::new_reference(&s, &a, &inv, PatternKind::All);
        assert!(!r.is_incremental());
        assert_eq!(r.last_touched(), None);
    }

    #[test]
    fn lang_errors_are_distinguished_from_violations() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = Monitor::new(&s, &a, &inv, PatternKind::All);
        // Wrong arity: a Lang error, not a violation; nothing committed.
        let bad = Assignment::new(vec![]);
        let err = m.try_apply(ts.get("Mk").unwrap(), &bad).unwrap_err();
        assert!(matches!(err, EnforceError::Lang(_)));
        assert!(!format!("{err}").is_empty());
        assert_eq!(m.steps(), 0);
    }
}
