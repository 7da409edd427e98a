//! The reference engine: the pre-optimization monitor algorithm, kept
//! as the oracle that tests and `experiments` check the delta/cohort
//! engine against.
//!
//! Every application runs on a cloned database, every tracked object is
//! rescanned and its full history cloned: O(|db| × run-length) per step,
//! the cost [`ShardedMonitor`](super::ShardedMonitor) avoids. It reports
//! exactly the same accept/reject decisions, byte-identical
//! [`Violation`]s and the same recorded patterns as a one-shard
//! `ShardedMonitor`, and — by Lemma 3.5 — as each shard of a sharded one
//! fed that shard's sub-run. It has no sink, no checkpoints and no
//! online redefinition.

use super::{EnforceError, RedefineOutcome, ResiduePolicy, StepPolicy, Violation};
use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use crate::inventory::Inventory;
use crate::pattern::{MigrationPattern, PatternKind};
use migratory_lang::{run, Assignment, Transaction, TransactionSchema};
use migratory_model::{Instance, Oid, Schema};
use std::collections::BTreeMap;

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

/// A database guarded by a migration inventory through the
/// whole-database rescan algorithm (see the module docs).
#[derive(Clone)]
pub struct ReferenceMonitor<'a> {
    schema: &'a Schema,
    alphabet: &'a RoleAlphabet,
    inventory: Inventory,
    kind: PatternKind,
    policy: StepPolicy,
    db: Instance,
    tracked: BTreeMap<Oid, Tracked>,
    /// DFA state of the never-created objects.
    pre_state: u32,
    /// The never-created pattern has already left the enforced family.
    pre_exempt: bool,
    /// Number of letters emitted so far.
    steps: usize,
    certified: bool,
}

impl<'a> ReferenceMonitor<'a> {
    /// A reference monitor over the empty database, enforcing
    /// `inventory` for the given pattern family.
    #[must_use]
    pub fn new(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
    ) -> ReferenceMonitor<'a> {
        ReferenceMonitor {
            schema,
            alphabet,
            inventory: inventory.clone(),
            kind,
            policy: StepPolicy::default(),
            db: Instance::empty(),
            tracked: BTreeMap::new(),
            pre_state: inventory.dfa().start(),
            // ∅ⁿ never starts with a non-∅ letter.
            pre_exempt: kind == PatternKind::ImmediateStart,
            steps: 0,
            certified: false,
        }
    }

    /// Choose when applications contribute letters (default:
    /// [`StepPolicy::EveryApplication`]).
    #[must_use]
    pub fn with_policy(mut self, policy: StepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current database.
    #[must_use]
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// Number of pattern letters emitted so far — the paper's global
    /// step counter.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether the monitor runs in the certified fast path.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.certified
    }

    /// The recorded pattern of an object (present once it has occurred
    /// in the database while tracking ran; frozen at certification).
    #[must_use]
    pub fn pattern_of(&self, o: Oid) -> Option<MigrationPattern> {
        self.tracked.get(&o).map(|t| t.history.clone())
    }

    /// Statically certify an SL transaction schema against the inventory
    /// (Corollary 3.3); on success all later applications skip tracking.
    /// One-way, like [`ShardedMonitor::certify`](super::ShardedMonitor::certify).
    pub fn certify(&mut self, ts: &TransactionSchema) -> Result<bool, CoreError> {
        let decision =
            crate::decide::decide(self.schema, self.alphabet, ts, &self.inventory, self.kind)?;
        let holds = decision.satisfies.holds();
        if holds {
            self.certified = true;
        }
        Ok(holds)
    }

    /// Always refused: the reference engine keeps per-object histories,
    /// not cohorts, and has no viability split to redefine through.
    pub fn redefine(
        &mut self,
        _new_inventory: &Inventory,
        _policy: ResiduePolicy,
    ) -> Result<RedefineOutcome, EnforceError> {
        Err(EnforceError::Redefine(
            "the reference engine does not support online redefinition".into(),
        ))
    }

    /// The role-set symbol of `o` in `db` (∅ when absent).
    fn role_symbol(&self, db: &Instance, o: Oid) -> u32 {
        super::delta::classes_symbol(self.schema, self.alphabet, db.role_set(o))
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

    /// Apply `t[args]`, committing only if no enforced pattern leaves the
    /// inventory. On violation the database is unchanged and the first
    /// offending object (never-created class first, then ascending oid)
    /// is reported.
    pub fn try_apply(&mut self, t: &Transaction, args: &Assignment) -> Result<(), EnforceError> {
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
                epoch: 0,
            }));
        }

        // 2. Already-tracked objects (live or deleted) read their new
        //    role symbol.
        let mut updates: Vec<(Oid, Tracked)> = Vec::with_capacity(self.tracked.len());
        for (&o, tr) in &self.tracked {
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
                    epoch: 0,
                }));
            }
            let mut history = tr.history.clone();
            history.push(letter);
            updates.push((o, Tracked { state, exempt, last_role: letter, history }));
        }

        // 3. Objects created by this application: pattern ∅^(step_idx−1)·ω.
        let mut created: Vec<(Oid, Tracked)> = Vec::new();
        for o in next.objects() {
            if self.tracked.contains_key(&o) {
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
                    epoch: 0,
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
        for (o, tr) in updates.into_iter().chain(created) {
            self.tracked.insert(o, tr);
        }
        Ok(())
    }
}
