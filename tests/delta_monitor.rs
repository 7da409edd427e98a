//! Cross-engine equivalence and O(touched) regression tests for the
//! delta/cohort enforcement engine.
//!
//! The delta engine ([`ShardedMonitor::new`]) must be observationally identical
//! to the reference engine ([`ReferenceMonitor::new`]): same
//! accept/reject decision on every prefix, byte-identical [`Violation`]s,
//! identical databases and identical recorded patterns — across random
//! schemas, random inventories, all four pattern kinds and random runs.
//! Randomness is a seeded [`StdRng`] (deterministic, no external fuzzer);
//! the schema/inventory/transaction generators live in `common` (shared
//! with the WAL recovery suite).

mod common;

use common::{
    random_inventory, random_multi_schema, random_multi_transaction, random_schema,
    random_transaction,
};
use migratory::core::enforce::{EnforceError, ReferenceMonitor, ShardedMonitor, StepPolicy};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{apply_transaction_delta, Assignment, AtomicUpdate, Transaction};
use migratory::model::{Atom, Condition, Instance, Oid};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// 120 random (schema, inventory, kind, policy) configurations, each
/// driven through a random run on both engines in lockstep.
#[test]
fn delta_engine_equals_reference_engine_on_random_runs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut rejections = 0usize;
    let mut commits = 0usize;
    for case in 0..120 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let mut fast = ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&schema, &alphabet, &inv, kind).with_policy(policy);
        let no_args = Assignment::empty();
        let run_len = rng.random_range(4usize..24);
        for step in 0..run_len {
            let t = random_transaction(&mut rng, &schema, &edges);
            let rf = fast.try_apply(&t, &no_args);
            let ro = oracle.try_apply(&t, &no_args);
            assert_eq!(
                rf, ro,
                "case {case} step {step}: engines disagree (kind {kind}, policy {policy:?})"
            );
            assert_eq!(fast.db(), oracle.db(), "case {case} step {step}: db diverged");
            assert_eq!(fast.clock(0), oracle.steps(), "case {case} step {step}");
            match rf {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(EnforceError::Lang(e)) => panic!("unexpected lang error {e}"),
                Err(EnforceError::Durability(e)) => panic!("unexpected wal error {e}"),
                Err(EnforceError::Degraded(e)) => panic!("unexpected degraded state {e}"),
                Err(EnforceError::Redefine(e)) => panic!("unexpected redefine error {e}"),
            }
        }
        // Recorded patterns agree for every object that ever existed.
        for oid in 1..=fast.db().next_oid().0 {
            assert_eq!(
                fast.pattern_of(Oid(oid)),
                oracle.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
    }
    // The workload must actually exercise both outcomes.
    assert!(commits > 200, "only {commits} commits — workload too restrictive");
    assert!(rejections > 200, "only {rejections} rejections — workload too permissive");
}

/// Regression: a no-op application on a large database is recognized from
/// the delta alone — the change-set is empty (no O(|DB|) before-images,
/// no letter under `OnlyChanging`), and an admitted single-object step
/// reports `last_touched == 1` no matter the store size.
#[test]
fn noop_on_large_database_yields_empty_delta() {
    const N: usize = 10_000;
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let person = schema.class_id("PERSON").unwrap();
    let ssn = schema.attr_id("SSN").unwrap();
    let name = schema.attr_id("Name").unwrap();
    let bulk = Transaction::sl(
        "bulk",
        &[],
        (0..N)
            .map(|i| AtomicUpdate::Create {
                class: person,
                gamma: Condition::from_atoms([
                    Atom::eq_const(ssn, format!("s{i}")),
                    Atom::eq_const(name, "n"),
                ]),
            })
            .collect(),
    );
    let no_args = Assignment::empty();

    // Lang level: a delete that selects nothing touches nothing; a rename
    // writing back the stored value touches exactly one object. Neither
    // change-set scales with |DB|.
    let mut db = Instance::empty();
    migratory::lang::apply_transaction(&schema, &mut db, &bulk, &no_args).unwrap();
    let miss = Transaction::sl(
        "miss",
        &[],
        vec![AtomicUpdate::Delete {
            class: person,
            gamma: Condition::from_atoms([Atom::eq_const(ssn, "nope")]),
        }],
    );
    let d = apply_transaction_delta(&schema, &mut db, &miss, &no_args).unwrap();
    assert!(d.objects().is_empty(), "unselected objects must not be touched");
    assert!(d.is_identity());
    let noop_rename = Transaction::sl(
        "noop",
        &[],
        vec![AtomicUpdate::Modify {
            class: person,
            select: Condition::from_atoms([Atom::eq_const(ssn, "s7")]),
            set: Condition::from_atoms([Atom::eq_const(name, "n")]),
        }],
    );
    let d = apply_transaction_delta(&schema, &mut db, &noop_rename, &no_args).unwrap();
    assert_eq!(d.objects().len(), 1, "exactly the selected object");
    assert!(d.is_identity(), "identical write-back is a null application");

    // Monitor level: under OnlyChanging the null application emits no
    // letter (decided from the delta, not from an O(|DB|) instance
    // comparison), while a real single-object step reports one touched
    // object on a 10k-object store.
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
        .with_policy(StepPolicy::OnlyChanging);
    m.try_apply(&bulk, &no_args).unwrap();
    assert_eq!(m.clock(0), 1);
    assert_eq!(m.shard_stats()[0].last_touched, N);
    m.try_apply(&noop_rename, &no_args).unwrap();
    assert_eq!(m.clock(0), 1, "null application contributed no letter");
    m.try_apply(&miss, &no_args).unwrap();
    assert_eq!(m.clock(0), 1, "empty-selection application contributed no letter");
    let real = Transaction::sl(
        "real",
        &[],
        vec![AtomicUpdate::Modify {
            class: person,
            select: Condition::from_atoms([Atom::eq_const(ssn, "s7")]),
            set: Condition::from_atoms([Atom::eq_const(name, "renamed")]),
        }],
    );
    m.try_apply(&real, &no_args).unwrap();
    assert_eq!(m.clock(0), 2);
    assert_eq!(
        m.shard_stats()[0].last_touched,
        1,
        "admit-path work tracks the touched set, not the database"
    );
}

/// 100 random **single-component** configurations: oid striping splits
/// one component, whose objects all read every letter, so the stripes
/// advance in lockstep and the sharded monitor is observationally
/// identical to the global-clock reference engine.
#[test]
fn sharded_monitor_equals_reference_engine_on_random_runs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0011);
    let mut rejections = 0usize;
    let mut commits = 0usize;
    for case in 0..100 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5);
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut sharded =
            ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&schema, &alphabet, &inv, kind).with_policy(policy);
        let no_args = Assignment::empty();
        for step in 0..rng.random_range(4usize..20) {
            let t = random_transaction(&mut rng, &schema, &edges);
            let rs = sharded.try_apply(&t, &no_args);
            let ro = oracle.try_apply(&t, &no_args);
            assert_eq!(
                rs, ro,
                "case {case} step {step}: sharded({shards}) disagrees (kind {kind}, {policy:?})"
            );
            assert_eq!(sharded.db(), oracle.db(), "case {case} step {step}: db diverged");
            for c in sharded.clocks() {
                assert_eq!(c, oracle.steps(), "case {case} step {step}: stripes not in lockstep");
            }
            match rs {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(EnforceError::Lang(e)) => panic!("unexpected lang error {e}"),
                Err(EnforceError::Durability(e)) => panic!("unexpected wal error {e}"),
                Err(EnforceError::Degraded(e)) => panic!("unexpected degraded state {e}"),
                Err(EnforceError::Redefine(e)) => panic!("unexpected redefine error {e}"),
            }
        }
        for oid in 1..=sharded.db().next_oid().0 {
            assert_eq!(
                sharded.pattern_of(Oid(oid)),
                oracle.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
    }
    assert!(commits > 150, "only {commits} commits — workload too restrictive");
    assert!(rejections > 150, "only {rejections} rejections — workload too permissive");
}

/// The per-shard-clock equivalence harness: one [`ReferenceMonitor`]
/// per shard, each fed exactly the subsequence of applications routed
/// to its shard — the restricted run of Lemma 3.5. Object identifiers
/// are compared through the restriction's order bijection (the n-th
/// object minted in a shard's sub-run on either side), which the
/// harness tracks from the statically known create count of each SL
/// transaction; patterns, letters, clocks and decisions must then be
/// **byte-identical** per shard.
struct ShardOracles<'a> {
    oracles: Vec<ReferenceMonitor<'a>>,
    /// sharded-global oid → (shard, oracle-local oid).
    map: std::collections::BTreeMap<u64, (usize, u64)>,
}

impl<'a> ShardOracles<'a> {
    fn new(
        schema: &'a migratory::model::Schema,
        alphabet: &'a RoleAlphabet,
        inv: &'a migratory::core::Inventory,
        kind: PatternKind,
        policy: StepPolicy,
        shards: usize,
    ) -> Self {
        ShardOracles {
            oracles: (0..shards)
                .map(|_| ReferenceMonitor::new(schema, alphabet, inv, kind).with_policy(policy))
                .collect(),
            map: std::collections::BTreeMap::new(),
        }
    }

    /// The shard a transaction routes to: component of its first named
    /// class, modulo the shard count — the sharded monitor's rule.
    fn shard_of(&self, schema: &migratory::model::Schema, t: &Transaction) -> usize {
        match t.first_named_class() {
            Some(c) => schema.component_of(c) as usize % self.oracles.len(),
            None => 0,
        }
    }

    /// Statically known oids an SL transaction mints (one per Create).
    fn creates(t: &Transaction) -> u64 {
        t.steps.iter().filter(|g| matches!(g.update, AtomicUpdate::Create { .. })).count() as u64
    }

    /// Feed one application to its shard's oracle and return the
    /// decision with any violation oid mapped **back** into the sharded
    /// monitor's oid space, so the caller can compare byte-for-byte.
    /// `sharded_next` is the sharded monitor's oid counter before the
    /// application.
    fn apply(
        &mut self,
        schema: &migratory::model::Schema,
        t: &Transaction,
        args: &Assignment,
        sharded_next: u64,
    ) -> Result<(), EnforceError> {
        let s = self.shard_of(schema, t);
        let oracle_next = self.oracles[s].db().next_oid().0;
        let r = self.oracles[s].try_apply(t, args);
        if r.is_ok() {
            for i in 0..Self::creates(t) {
                self.map.insert(sharded_next + i, (s, oracle_next + i));
            }
        }
        r.map_err(|e| match e {
            EnforceError::Violation(mut v) => {
                // Map the reported oid into the sharded monitor's space:
                // either through the bijection, or — for an object the
                // violating application itself tried to create — by
                // offsetting from the two allocators.
                v.oid = v.oid.map(|o| {
                    if o.0 >= oracle_next {
                        Oid(sharded_next + (o.0 - oracle_next))
                    } else {
                        let global = self
                            .map
                            .iter()
                            .find(|(_, &(sh, local))| sh == s && local == o.0)
                            .map(|(&g, _)| g)
                            .expect("violating object was minted in this shard's sub-run");
                        Oid(global)
                    }
                });
                EnforceError::Violation(v)
            }
            other => other,
        })
    }

    /// The shard-local pattern of a sharded-global oid, from the owning
    /// shard's oracle.
    fn pattern_of(&self, global: u64) -> Option<migratory::core::MigrationPattern> {
        let &(s, local) = self.map.get(&global)?;
        self.oracles[s].pattern_of(Oid(local))
    }
}

/// 80 random **multi-component** configurations: the sharded monitor
/// with per-shard letter clocks driven in lockstep with one reference
/// monitor per shard, each fed only its shard's sub-run — decisions,
/// violations (through the oid bijection), shard clocks and per-object
/// patterns must all match, across kinds (exempt objects included) and
/// both step policies.
#[test]
fn sharded_clocks_equal_per_shard_reference_oracles() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0013);
    let (mut commits, mut rejections, mut cross_shard_steps) = (0usize, 0usize, 0usize);
    for case in 0..80 {
        let (schema, edges, extra) = random_multi_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5).min(schema.num_components());
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut sharded =
            ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_policy(policy);
        assert!(sharded.routes_by_component());
        assert_eq!(sharded.num_shards(), shards);
        let mut oracles = ShardOracles::new(&schema, &alphabet, &inv, kind, policy, shards);
        let no_args = Assignment::empty();
        for step in 0..rng.random_range(4usize..20) {
            let t = random_multi_transaction(&mut rng, &schema, &edges, extra);
            let s = oracles.shard_of(&schema, &t);
            cross_shard_steps += usize::from(s != 0);
            let sharded_next = sharded.db().next_oid().0;
            let rs = sharded.try_apply(&t, &no_args);
            let ro = oracles.apply(&schema, &t, &no_args, sharded_next);
            assert_eq!(
                rs, ro,
                "case {case} step {step}: shard {s} disagrees with its sub-run oracle \
                 (kind {kind}, {policy:?}, {shards} shards)"
            );
            match rs {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(EnforceError::Lang(e)) => panic!("unexpected lang error {e}"),
                Err(EnforceError::Durability(e)) => panic!("unexpected wal error {e}"),
                Err(EnforceError::Degraded(e)) => panic!("unexpected degraded state {e}"),
                Err(EnforceError::Redefine(e)) => panic!("unexpected redefine error {e}"),
            }
            // Every shard's clock equals its oracle's global step count.
            for (i, oracle) in oracles.oracles.iter().enumerate() {
                assert_eq!(
                    sharded.clock(i),
                    oracle.steps(),
                    "case {case} step {step}: shard {i}'s clock diverged from its sub-run"
                );
            }
        }
        // Shard-local patterns match the sub-run oracles' object by
        // object (through the restriction bijection).
        for oid in 1..=sharded.db().next_oid().0 {
            assert_eq!(
                sharded.pattern_of(Oid(oid)),
                oracles.pattern_of(oid),
                "case {case}: shard-local pattern of o{oid} diverged"
            );
        }
    }
    assert!(commits > 150, "only {commits} commits — workload too restrictive");
    assert!(rejections > 100, "only {rejections} rejections — workload too permissive");
    assert!(cross_shard_steps > 100, "non-zero shards untested ({cross_shard_steps} steps)");
}

/// Random runs split into random-size blocks admitted through
/// `try_apply_batch`, compared against the reference engine applying the
/// same transactions one at a time: identical committed prefixes,
/// byte-identical violations (including rejection order), identical
/// databases, step counts and recorded patterns.
#[test]
fn sharded_batch_admission_equals_reference_engine() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0012);
    let mut batch_rejections = 0usize;
    let mut batch_commits = 0usize;
    for case in 0..80 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5);
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut sharded =
            ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&schema, &alphabet, &inv, kind).with_policy(policy);
        let no_args = Assignment::empty();
        let txns: Vec<Transaction> = (0..rng.random_range(6usize..24))
            .map(|_| random_transaction(&mut rng, &schema, &edges))
            .collect();
        let mut pos = 0;
        while pos < txns.len() {
            let size = rng.random_range(1usize..(txns.len() - pos).min(5) + 1);
            let block = &txns[pos..pos + size];
            let (done, err) = sharded.try_apply_batch(block.iter().map(|t| (t, &no_args)));
            // The oracle admits the block one transaction at a time,
            // stopping at the first rejection — the semantics the batch
            // API must reproduce.
            let mut odone = 0usize;
            let mut oerr = None;
            for t in block {
                match oracle.try_apply(t, &no_args) {
                    Ok(()) => odone += 1,
                    Err(e) => {
                        oerr = Some(e);
                        break;
                    }
                }
            }
            assert_eq!(
                (done, &err),
                (odone, &oerr),
                "case {case} at {pos}: batch of {size} diverged (kind {kind}, {policy:?})"
            );
            assert_eq!(sharded.db(), oracle.db(), "case {case} at {pos}: db diverged");
            for c in sharded.clocks() {
                assert_eq!(c, oracle.steps(), "case {case} at {pos}: stripes not in lockstep");
            }
            batch_commits += done;
            batch_rejections += usize::from(err.is_some());
            pos += size;
        }
        for oid in 1..=sharded.db().next_oid().0 {
            assert_eq!(
                sharded.pattern_of(Oid(oid)),
                oracle.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
    }
    assert!(batch_commits > 150, "only {batch_commits} commits");
    assert!(batch_rejections > 80, "only {batch_rejections} rejected blocks");
}

/// Batched admission over **multi-component** schemas against the
/// per-shard oracle harness: a block advances each participating
/// shard's clock by exactly its own letters, commits the longest
/// conforming prefix, and matches each shard's sub-run oracle
/// byte-for-byte (decisions, clocks, patterns).
#[test]
fn sharded_batch_admission_matches_per_shard_oracles() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0014);
    let (mut batch_commits, mut batch_rejections) = (0usize, 0usize);
    for case in 0..60 {
        let (schema, edges, extra) = random_multi_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5).min(schema.num_components());
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut sharded =
            ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_policy(policy);
        let mut oracles = ShardOracles::new(&schema, &alphabet, &inv, kind, policy, shards);
        let no_args = Assignment::empty();
        let txns: Vec<Transaction> = (0..rng.random_range(6usize..20))
            .map(|_| random_multi_transaction(&mut rng, &schema, &edges, extra))
            .collect();
        let mut pos = 0;
        while pos < txns.len() {
            let size = rng.random_range(1usize..(txns.len() - pos).min(5) + 1);
            let block = &txns[pos..pos + size];
            // The sharded allocator before the block: rejected work
            // restores it (Delta::undo), so the committed prefix's
            // allocation is the static sequential one from here.
            let mut next = sharded.db().next_oid().0;
            let (done, err) = sharded.try_apply_batch(block.iter().map(|t| (t, &no_args)));
            // Replicate longest-prefix semantics on the per-shard
            // oracles, item by item in block order.
            let mut odone = 0usize;
            let mut oerr = None;
            for t in block {
                match oracles.apply(&schema, t, &no_args, next) {
                    Ok(()) => {
                        odone += 1;
                        next += ShardOracles::creates(t);
                    }
                    Err(e) => {
                        oerr = Some(e);
                        break;
                    }
                }
            }
            assert_eq!(
                (done, &err),
                (odone, &oerr),
                "case {case} at {pos}: batch of {size} diverged (kind {kind}, {policy:?})"
            );
            for (i, oracle) in oracles.oracles.iter().enumerate() {
                assert_eq!(sharded.clock(i), oracle.steps(), "case {case} at {pos}: shard {i}");
            }
            batch_commits += done;
            batch_rejections += usize::from(err.is_some());
            pos += size;
        }
        for oid in 1..=sharded.db().next_oid().0 {
            assert_eq!(
                sharded.pattern_of(Oid(oid)),
                oracles.pattern_of(oid),
                "case {case}: shard-local pattern of o{oid} diverged"
            );
        }
    }
    assert!(batch_commits > 100, "only {batch_commits} commits");
    assert!(batch_rejections > 40, "only {batch_rejections} rejected blocks");
}

// ---------------------------------------------------------------------
// Constraint evolution (`ShardedMonitor::redefine`) equivalence suites
// ---------------------------------------------------------------------

use migratory::automata::Regex;
use migratory::core::enforce::ResiduePolicy;

/// Rewrites an oracle's decision into the monitor's current epoch so
/// post-redefinition rejections can be compared byte-for-byte against
/// an oracle that never redefined (violations are identical except for
/// the epoch stamp).
fn at_epoch(r: Result<(), EnforceError>, epoch: u64) -> Result<(), EnforceError> {
    r.map_err(|e| match e {
        EnforceError::Violation(mut v) => {
            v.epoch = epoch;
            EnforceError::Violation(v)
        }
        other => other,
    })
}

/// 80 random runs with identity redefinitions sprinkled at random
/// points: redefining to the *same* inventory must bump the epoch and
/// produce zero residue, and the monitor must stay byte-identical
/// (decisions, databases, step counts, recorded patterns) to a
/// reference oracle that never redefined — modulo the epoch stamp on
/// violations.
#[test]
fn identity_redefine_is_observationally_invisible() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0021);
    let (mut commits, mut rejections, mut redefines) = (0usize, 0usize, 0usize);
    for case in 0..80 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let mut fast = ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&schema, &alphabet, &inv, kind).with_policy(policy);
        let no_args = Assignment::empty();
        for step in 0..rng.random_range(6usize..24) {
            if rng.random_range(0u32..5) == 0 {
                let residue_policy = if rng.random_range(0u32..2) == 0 {
                    ResiduePolicy::Quarantine
                } else {
                    ResiduePolicy::CertifyAndReset
                };
                let before = fast.epoch();
                let out = fast
                    .redefine(&inv.clone(), residue_policy)
                    .expect("identity redefinition is always viable");
                assert_eq!(out.epoch, before + 1, "case {case}: epoch must bump");
                assert_eq!(out.residue, 0, "case {case}: identity redefine has no residue");
                assert_eq!(
                    out.quarantined, 0,
                    "case {case}: identity redefine quarantines nothing"
                );
                assert_eq!(fast.epoch(), before + 1);
                redefines += 1;
            }
            let t = random_transaction(&mut rng, &schema, &edges);
            let rf = fast.try_apply(&t, &no_args);
            let ro = at_epoch(oracle.try_apply(&t, &no_args), fast.epoch());
            assert_eq!(
                rf, ro,
                "case {case} step {step}: engines disagree after identity redefines \
                 (kind {kind}, policy {policy:?})"
            );
            assert_eq!(fast.db(), oracle.db(), "case {case} step {step}: db diverged");
            assert_eq!(fast.clock(0), oracle.steps(), "case {case} step {step}");
            match rf {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for oid in 1..=fast.db().next_oid().0 {
            assert_eq!(
                fast.pattern_of(Oid(oid)),
                oracle.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
        assert_eq!(fast.quarantined_total(), 0, "case {case}");
    }
    assert!(commits > 150, "only {commits} commits — workload too restrictive");
    assert!(rejections > 150, "only {rejections} rejections — workload too permissive");
    assert!(redefines > 40, "only {redefines} identity redefinitions exercised");
}

/// 100 random runs where the monitor consumes a random amount of
/// pre-creation history under inventory A, then redefines to an
/// unrelated random inventory B: the redefined monitor must be
/// byte-identical — decisions, violations (modulo epoch stamp),
/// databases, clocks, patterns — to a **fresh monitor born with B**
/// that replayed the same (entirely viable, object-free) history. The
/// paper's clean-slate semantics: a redefinition is a fresh constraint
/// whose clock started at the old monitor's first step.
#[test]
fn redefine_equals_fresh_monitor_replaying_viable_history() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0022);
    let (mut commits, mut rejections) = (0usize, 0usize);
    for case in 0..100 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let empty = Regex::star(Regex::Sym(alphabet.empty_symbol()));
        // Both inventories tolerate arbitrary pre-creation ∅ history, so
        // the consumed prefix is viable under B by construction and the
        // redefinition must be admitted.
        // Build Init(∅* · r · ∅*) explicitly for both inventories.
        let mk = |rng: &mut StdRng| {
            fn rr(rng: &mut StdRng, syms: u32, depth: usize) -> Regex {
                if depth == 0 || rng.random_range(0u32..4) == 0 {
                    return Regex::Sym(rng.random_range(0..syms));
                }
                match rng.random_range(0u32..4) {
                    0 => Regex::concat([rr(rng, syms, depth - 1), rr(rng, syms, depth - 1)]),
                    1 => Regex::union([rr(rng, syms, depth - 1), rr(rng, syms, depth - 1)]),
                    2 => Regex::star(rr(rng, syms, depth - 1)),
                    _ => Regex::plus(rr(rng, syms, depth - 1)),
                }
            }
            rr(rng, alphabet.num_symbols(), 3)
        };
        let inv_a = Inventory::init_of_regex(
            &schema,
            &alphabet,
            &Regex::concat([empty.clone(), mk(&mut rng), empty.clone()]),
        )
        .expect("Init(regex) is an inventory");
        let inv_b = Inventory::init_of_regex(
            &schema,
            &alphabet,
            &Regex::concat([empty.clone(), mk(&mut rng), empty.clone()]),
        )
        .expect("Init(regex) is an inventory");
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv_a, kind, 1)
            .with_policy(StepPolicy::EveryApplication);
        // Pre-creation history: admitted letter steps that touch no
        // object (an unmatched delete is a letter under
        // EveryApplication). ∅^k is a prefix of both languages.
        let root = schema.class_id("C0").expect("root");
        let k = schema.attr_id("K").expect("key attr");
        let pad = Transaction::sl(
            "pad",
            &[],
            vec![AtomicUpdate::Delete {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, "no-such-key")]),
            }],
        );
        let no_args = Assignment::empty();
        let steps0 = rng.random_range(0usize..8);
        for _ in 0..steps0 {
            m.try_apply(&pad, &no_args).expect("∅ prefix is viable under A");
        }
        let residue_policy = if rng.random_range(0u32..2) == 0 {
            ResiduePolicy::Quarantine
        } else {
            ResiduePolicy::CertifyAndReset
        };
        let out = m.redefine(&inv_b, residue_policy).expect("∅ history is viable under B");
        assert_eq!(out.epoch, 1, "case {case}");
        assert_eq!((out.residue, out.quarantined), (0, 0), "case {case}: no objects yet");
        // The oracle: a monitor born with B, replaying the same viable
        // history from scratch.
        let mut fresh = ShardedMonitor::new(&schema, &alphabet, &inv_b, kind, 1)
            .with_policy(StepPolicy::EveryApplication);
        for _ in 0..steps0 {
            fresh.try_apply(&pad, &no_args).expect("∅ prefix is viable under B");
        }
        assert_eq!(m.clock(0), fresh.clock(0), "case {case}: clocks diverged on replay");
        for step in 0..rng.random_range(6usize..20) {
            let t = random_transaction(&mut rng, &schema, &edges);
            let rm = m.try_apply(&t, &no_args);
            let rf = at_epoch(fresh.try_apply(&t, &no_args), m.epoch());
            assert_eq!(
                rm, rf,
                "case {case} step {step}: redefined monitor diverged from fresh \
                 monitor (kind {kind}, {residue_policy})"
            );
            assert_eq!(m.db(), fresh.db(), "case {case} step {step}: db diverged");
            assert_eq!(m.clock(0), fresh.clock(0), "case {case} step {step}");
            match rm {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for oid in 1..=m.db().next_oid().0 {
            assert_eq!(
                m.pattern_of(Oid(oid)),
                fresh.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
    }
    assert!(commits > 200, "only {commits} commits — workload too restrictive");
    assert!(rejections > 100, "only {rejections} rejections — workload too permissive");
}

/// 80 random runs redefining at a random point on a [`ShardedMonitor`]
/// and a one-shard [`ShardedMonitor`] in lockstep: same outcome (epoch,
/// residue, quarantine split under both policies) or same refusal, and
/// byte-identical behavior afterwards — the sharded all-shards-or-
/// nothing swap is observationally the single-partition redefine.
#[test]
fn sharded_redefine_equals_single_monitor_redefine() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0023);
    let (mut commits, mut rejections, mut admitted_redefs, mut refusals) =
        (0usize, 0usize, 0usize, 0usize);
    for case in 0..80 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv_a = random_inventory(&mut rng, &schema, &alphabet);
        let inv_b = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5);
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut sharded =
            ShardedMonitor::new(&schema, &alphabet, &inv_a, kind, shards).with_policy(policy);
        let mut single =
            ShardedMonitor::new(&schema, &alphabet, &inv_a, kind, 1).with_policy(policy);
        let no_args = Assignment::empty();
        let run_len = rng.random_range(6usize..20);
        let redefine_at = rng.random_range(0..run_len);
        let residue_policy = if rng.random_range(0u32..2) == 0 {
            ResiduePolicy::Quarantine
        } else {
            ResiduePolicy::CertifyAndReset
        };
        for step in 0..run_len {
            if step == redefine_at {
                let rs = sharded.redefine(&inv_b, residue_policy);
                let rm = single.redefine(&inv_b, residue_policy);
                match (rs, rm) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "case {case}: redefine outcomes diverged");
                        admitted_redefs += 1;
                    }
                    (Err(EnforceError::Redefine(_)), Err(EnforceError::Redefine(_))) => {
                        refusals += 1;
                    }
                    (a, b) => panic!("case {case}: redefine split-brain: {a:?} vs {b:?}"),
                }
                assert_eq!(sharded.epoch(), single.epoch(), "case {case}");
                assert_eq!(sharded.redefine_total(), single.redefine_total(), "case {case}");
                assert_eq!(sharded.quarantined_total(), single.quarantined_total(), "case {case}");
            }
            let t = random_transaction(&mut rng, &schema, &edges);
            let rs = sharded.try_apply(&t, &no_args);
            let rm = single.try_apply(&t, &no_args);
            assert_eq!(
                rs, rm,
                "case {case} step {step}: sharded({shards}) diverged after redefine \
                 (kind {kind}, {policy:?}, {residue_policy})"
            );
            assert_eq!(sharded.db(), single.db(), "case {case} step {step}: db diverged");
            for c in sharded.clocks() {
                assert_eq!(c, single.clock(0), "case {case} step {step}: stripes not in lockstep");
            }
            match rs {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for oid in 1..=sharded.db().next_oid().0 {
            assert_eq!(
                sharded.pattern_of(Oid(oid)),
                single.pattern_of(Oid(oid)),
                "case {case}: pattern of o{oid} diverged"
            );
        }
    }
    assert!(commits > 100, "only {commits} commits — workload too restrictive");
    assert!(rejections > 100, "only {rejections} rejections — workload too permissive");
    assert!(admitted_redefs > 30, "only {admitted_redefs} admitted redefinitions");
    assert_eq!(admitted_redefs + refusals, 80, "every case redefines exactly once");
}

/// A refused redefinition changes nothing: after the never-created
/// class's consumed ∅-walk leaves the candidate inventory, the monitor
/// must keep enforcing the old inventory byte-identically, at epoch 0.
/// Also pins the refusal modes that need no traffic: the reference
/// engine and alphabet mismatches.
#[test]
fn refused_redefine_leaves_the_monitor_untouched() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0024);
    let mut refused = 0usize;
    for case in 0..40 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let empty = Regex::star(Regex::Sym(alphabet.empty_symbol()));
        let inv_a = Inventory::init_of_regex(
            &schema,
            &alphabet,
            &Regex::concat([
                empty.clone(),
                Regex::star(Regex::Sym(rng.random_range(0..alphabet.num_symbols()))),
                empty,
            ]),
        )
        .expect("inventory");
        // A language whose words all start with a non-∅ role: once the
        // monitor has consumed one enforced ∅ step, ∅^k is no prefix of
        // the candidate and the pre-walk must refuse.
        let role = (0..alphabet.num_symbols())
            .find(|&s| s != alphabet.empty_symbol())
            .expect("some non-empty role set");
        let inv_b =
            Inventory::init_of_regex(&schema, &alphabet, &Regex::Sym(role)).expect("inventory");
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv_a, PatternKind::All, 1)
            .with_policy(StepPolicy::EveryApplication);
        let mut oracle = ReferenceMonitor::new(&schema, &alphabet, &inv_a, PatternKind::All)
            .with_policy(StepPolicy::EveryApplication);
        let root = schema.class_id("C0").expect("root");
        let k = schema.attr_id("K").expect("key attr");
        let pad = Transaction::sl(
            "pad",
            &[],
            vec![AtomicUpdate::Delete {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, "no-such-key")]),
            }],
        );
        let no_args = Assignment::empty();
        for _ in 0..rng.random_range(1usize..5) {
            m.try_apply(&pad, &no_args).expect("∅ prefix viable under A");
            oracle.try_apply(&pad, &no_args).expect("∅ prefix viable under A");
        }
        match m.redefine(&inv_b, ResiduePolicy::Quarantine) {
            Err(EnforceError::Redefine(msg)) => {
                assert!(
                    msg.contains("leaves the new inventory"),
                    "case {case}: unexpected refusal: {msg}"
                );
                refused += 1;
            }
            other => panic!("case {case}: expected pre-walk refusal, got {other:?}"),
        }
        assert_eq!(m.epoch(), 0, "case {case}: refusal must not bump the epoch");
        assert_eq!(m.redefine_total(), 0, "case {case}");
        for step in 0..rng.random_range(4usize..12) {
            let t = random_transaction(&mut rng, &schema, &edges);
            assert_eq!(
                m.try_apply(&t, &no_args),
                oracle.try_apply(&t, &no_args),
                "case {case} step {step}: refused redefine perturbed the monitor"
            );
            assert_eq!(m.db(), oracle.db(), "case {case} step {step}");
        }
    }
    assert_eq!(refused, 40);

    // Refusals that need no traffic at all.
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let mut reference = ReferenceMonitor::new(&schema, &alphabet, &inv, PatternKind::All);
    match reference.redefine(&inv.clone(), ResiduePolicy::Quarantine) {
        Err(EnforceError::Redefine(msg)) => {
            assert!(msg.contains("reference engine"), "got: {msg}");
        }
        other => panic!("expected reference-engine refusal, got {other:?}"),
    }
}
