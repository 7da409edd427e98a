//! Crash-point property suite for the enforcement WAL
//! (`core::enforce::wal`).
//!
//! The durability contract under test: for a monitor with an attached
//! log, crashing after **any** committed prefix and running
//! `ShardedMonitor::recover(folded checkpoint chain, wal_tail)` must reproduce
//! the uncrashed monitor's state **byte-identically** — checked as
//! equality of canonical [`Snapshot::encode`] bytes (database heap,
//! cohort/RLE tracking state, per-shard letter clocks), plus database
//! equality and per-object pattern equality. Randomized over the same
//! schema / inventory / transaction generators as the
//! engine-equivalence suite (`common`), across all pattern kinds, both
//! step policies, single and sharded monitors, per-application and
//! batched admission, with **full and incremental checkpoints** taken
//! at random points mid-run. File-backed tests additionally cover the
//! background snapshotter's crash windows: a checkpoint that sealed the
//! log but never landed, a checkpoint that landed but never pruned
//! (double-apply), stale temp files and stale increments from an older
//! base, and corrupted record length headers.

mod common;

use common::{random_inventory, random_multi_schema, random_multi_transaction, random_schema};
use migratory::core::enforce::{
    CheckpointData, EnforceError, MemoryWal, ShardedMonitor, Snapshotter, StepPolicy, Wal,
    WalError, WalRecord,
};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment, Transaction};
use migratory::model::{Oid, Value};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::sync::{Arc, Mutex};

/// Crash the run here: recover from the log double and require the
/// recovered monitor to be byte-identical to the live one.
fn assert_recovers_single(
    live: &ShardedMonitor<'_>,
    wal: &Arc<Mutex<MemoryWal>>,
    all_records: &[WalRecord],
    label: &str,
) {
    let (snap, blocks) = {
        let w = wal.lock().unwrap();
        (w.snapshot().expect("checkpoint chain folds"), w.records())
    };
    let recovered = ShardedMonitor::recover(
        live.schema(),
        live.alphabet(),
        live.inventory(),
        live.kind(),
        1,
        snap.clone(),
        blocks,
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"))
    .with_policy(live.policy());
    assert_eq!(
        recovered.snapshot().encode(),
        live.snapshot().encode(),
        "{label}: tracking state not byte-identical after recovery"
    );
    assert_eq!(recovered.db(), live.db(), "{label}: database diverged");
    assert_eq!(recovered.clock(0), live.clock(0), "{label}: letter counts diverged");
    for oid in 1..=live.db().next_oid().0 {
        assert_eq!(
            recovered.pattern_of(Oid(oid)),
            live.pattern_of(Oid(oid)),
            "{label}: pattern of o{oid} diverged"
        );
    }
    // Recovery must also skip already-checkpointed blocks by per-shard
    // step offset (the crash-between-checkpoint-and-prune case):
    // feeding the FULL record history alongside the chain changes
    // nothing.
    let again = ShardedMonitor::recover(
        live.schema(),
        live.alphabet(),
        live.inventory(),
        live.kind(),
        1,
        snap,
        all_records.to_vec(),
    )
    .unwrap_or_else(|e| panic!("{label}: full-history recovery failed: {e}"))
    .with_policy(live.policy());
    assert_eq!(
        again.snapshot().encode(),
        live.snapshot().encode(),
        "{label}: pre-checkpoint blocks were not skipped"
    );
}

/// 60 random configurations, each crash-tested at every committed
/// prefix of a random run, with a random mix of full and incremental
/// checkpoints along the way.
#[test]
fn monitor_recovers_byte_identical_at_every_crash_point() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0021);
    let (mut commits, mut rejections, mut pre_snapshot_crashes, mut increments) =
        (0usize, 0usize, 0usize, 0usize);
    for case in 0..60 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live = ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1)
            .with_policy(policy)
            .with_sink(wal.clone());
        let no_args = Assignment::empty();
        let run_len = rng.random_range(4usize..16);
        // The full record history, preserved across the checkpoints'
        // log truncations (exercises skip-by-clock on recovery).
        let mut folded_records: Vec<WalRecord> = Vec::new();
        let mut has_base = false;
        for step in 0..run_len {
            let t = common::random_transaction(&mut rng, &schema, &edges);
            match live.try_apply(&t, &no_args) {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => rejections += 1,
                Err(e) => panic!("unexpected {e}"),
            }
            // Checkpoint with probability ~1/4: incremental when a base
            // exists (2 of 3 times), full otherwise.
            if rng.random_range(0u32..4) == 0 {
                folded_records.extend(wal.lock().unwrap().records());
                if has_base && rng.random_range(0u32..3) != 0 {
                    let delta = live.checkpoint_delta();
                    wal.lock().unwrap().write_checkpoint_delta(&delta);
                    increments += 1;
                } else {
                    let snap = live.checkpoint_full();
                    wal.lock().unwrap().write_snapshot(&snap);
                    has_base = true;
                }
            }
            if wal.lock().unwrap().snapshot().unwrap().is_none() {
                pre_snapshot_crashes += 1;
            }
            let all_records: Vec<WalRecord> =
                folded_records.iter().cloned().chain(wal.lock().unwrap().records()).collect();
            assert_recovers_single(&live, &wal, &all_records, &format!("case {case} step {step}"));
        }
    }
    assert!(commits > 150, "only {commits} commits — workload too restrictive");
    assert!(rejections > 100, "only {rejections} rejections — workload too permissive");
    assert!(pre_snapshot_crashes > 50, "crashes before the first checkpoint untested");
    assert!(increments > 20, "only {increments} incremental checkpoints taken");
}

/// Sharded + batched: random batch admission with a sink over single-
/// and multi-component schemas (independent per-shard clocks!),
/// crash-checked after every block, with full and incremental
/// checkpoints at random block boundaries.
#[test]
fn sharded_batched_recovery_is_byte_identical() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0022);
    let (mut batch_commits, mut increments) = (0usize, 0usize);
    for case in 0..40 {
        let multi = rng.random_range(0u32..2) == 1;
        let (schema, edges, extra) = if multi {
            random_multi_schema(&mut rng)
        } else {
            let (s, e) = random_schema(&mut rng);
            (s, e, 0)
        };
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let inv = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5);
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut live = ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards)
            .with_policy(policy)
            .with_sink(wal.clone());
        let shards = live.num_shards();
        let no_args = Assignment::empty();
        let txns: Vec<Transaction> = (0..rng.random_range(6usize..20))
            .map(|_| random_multi_transaction(&mut rng, &schema, &edges, extra))
            .collect();
        let mut has_base = false;
        let mut pos = 0;
        let mut block_no = 0usize;
        while pos < txns.len() {
            let size = rng.random_range(1usize..(txns.len() - pos).min(5) + 1);
            let block = &txns[pos..pos + size];
            let (done, _) = live.try_apply_batch(block.iter().map(|t| (t, &no_args)));
            batch_commits += done;
            pos += size;
            if rng.random_range(0u32..3) == 0 {
                if has_base && rng.random_range(0u32..3) != 0 {
                    let delta = live.checkpoint_delta();
                    wal.lock().unwrap().write_checkpoint_delta(&delta);
                    increments += 1;
                } else {
                    let snap = live.checkpoint_full();
                    wal.lock().unwrap().write_snapshot(&snap);
                    has_base = true;
                }
            }
            block_no += 1;

            let (snap, blocks) = {
                let w = wal.lock().unwrap();
                (w.snapshot().expect("checkpoint chain folds"), w.records())
            };
            let recovered =
                ShardedMonitor::recover(&schema, &alphabet, &inv, kind, shards, snap, blocks)
                    .unwrap_or_else(|e| panic!("case {case} block {block_no}: {e}"))
                    .with_policy(policy);
            assert_eq!(
                recovered.snapshot().encode(),
                live.snapshot().encode(),
                "case {case} block {block_no}: shard states not byte-identical"
            );
            assert_eq!(recovered.db(), live.db());
            assert_eq!(recovered.clocks(), live.clocks());
            for oid in 1..=live.db().next_oid().0 {
                assert_eq!(recovered.pattern_of(Oid(oid)), live.pattern_of(Oid(oid)));
            }
        }
    }
    assert!(batch_commits > 100, "only {batch_commits} batch commits");
    assert!(increments > 10, "only {increments} incremental checkpoints taken");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("migratory-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// File-backed torn-tail semantics: truncate `wal.log` at **every byte
/// length** and require recovery to land exactly on a committed prefix
/// of the run — never an error, never a half-applied block.
#[test]
fn file_wal_recovers_every_truncation_to_a_committed_prefix() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    let dir = temp_dir("torn");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(wal.clone());

    // Canonical state after each committed step, keyed by letter count.
    let mut state_at: Vec<Vec<u8>> = vec![live.snapshot().encode()];
    let script = [("Mk", "1"), ("St", "1"), ("Mk", "2"), ("UnSt", "1"), ("Rm", "2"), ("Rm", "1")];
    for (name, key) in script {
        let args = Assignment::new(vec![Value::str(key)]);
        live.try_apply(ts.get(name).unwrap(), &args).unwrap();
        state_at.push(live.snapshot().encode());
    }
    drop(wal); // flush + close the writer

    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for cut in 0..=log.len() {
        let blocks = migratory::core::enforce::wal::decode_records(&log[..cut])
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let steps: usize = blocks.iter().map(WalRecord::letters).sum();
        let recovered =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, None, blocks)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(recovered.clock(0), steps);
        assert_eq!(
            recovered.snapshot().encode(),
            state_at[steps],
            "cut at {cut} bytes must recover the exact state after {steps} letters"
        );
        prefixes_seen.insert(steps);
    }
    assert_eq!(
        prefixes_seen.into_iter().collect::<Vec<_>>(),
        (0..=script.len()).collect::<Vec<_>>(),
        "every committed prefix is reachable by some truncation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--fsync batch` ack contract under the pipelined committer: the
/// instant an ack is released, the op's record is already inside the
/// WAL's durable horizon — so a `kill -9` at ANY later moment
/// (modelled as truncating the log to the horizon observed at ack
/// time; everything past a returned fdatasync survives a crash) can
/// never lose an acked op. Would fail loudly if acks ever raced ahead
/// of the batch fsync.
#[test]
fn pipelined_batch_acks_survive_any_crash_after_the_ack() {
    use migratory::core::enforce::{ingress, DurableLog, FsyncPolicy, IngressConfig};
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let dir = temp_dir("batch-ack");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap().with_fsync(FsyncPolicy::Batch)));
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
    const N: usize = 24;
    // Serve serially; after each ack, read the durable horizon the
    // committer had published by that instant (it only grows, so any
    // later crash point is ≥ this cut).
    let (horizons, stats) = ingress::serve(
        &mut m,
        &IngressConfig {
            queue_capacity: 8,
            max_block: 4,
            wal: Some(DurableLog { log: wal.clone(), repl: None }),
            ..Default::default()
        },
        |client| {
            let mk = ts.get("Mk").unwrap();
            (0..N)
                .map(|i| {
                    client
                        .post(mk, Assignment::new(vec![Value::str(&format!("s{i}"))]))
                        .wait()
                        .expect("creations conform");
                    wal.lock().unwrap().synced_len()
                })
                .collect::<Vec<u64>>()
        },
    );
    assert_eq!(stats.admitted, N);
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    for (i, h) in horizons.iter().enumerate() {
        let cut = usize::try_from(*h).unwrap();
        assert!(cut <= log.len(), "the horizon never outruns the file");
        let blocks = migratory::core::enforce::wal::decode_records(&log[..cut])
            .unwrap_or_else(|e| panic!("ack {i}: horizon {cut} is a whole-record boundary: {e}"));
        let r =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 2, None, blocks)
                .unwrap_or_else(|e| panic!("ack {i}: {e}"));
        assert!(
            r.db().num_objects() > i,
            "crash right after ack {i} (cut {cut}) must keep all {} acked op(s), found {}",
            i + 1,
            r.db().num_objects()
        );
    }
    // And the full log reproduces the served monitor byte-identically.
    let (snap, tail) = Wal::load(&dir).unwrap();
    let r =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 2, snap, tail).unwrap();
    assert_eq!(r.snapshot().encode(), m.snapshot().encode());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted length headers (the untrusted 4 bytes in front of every
/// record): flipping arbitrary bytes of the log must never panic,
/// allocate from the corrupt claim, or mis-handle the tail — decoding
/// either lands on a valid record prefix or reports corruption, and
/// `Wal::open` on an oversized tail claim truncates it like any other
/// torn append.
#[test]
fn fuzzed_length_headers_never_break_decoding() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let dir = temp_dir("fuzz-len");
    {
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
            .with_sink(wal.clone());
        for i in 0..8 {
            m.try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str(&format!("{i}"))]))
                .unwrap();
        }
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let clean = migratory::core::enforce::wal::decode_records(&log).unwrap();
    assert_eq!(clean.len(), 8);

    let mut rng = StdRng::seed_from_u64(0x5eed_0040);
    for _ in 0..500 {
        let mut fuzzed = log.clone();
        for _ in 0..rng.random_range(1usize..4) {
            let i = rng.random_range(0..fuzzed.len());
            fuzzed[i] ^= 1 << rng.random_range(0u32..8);
        }
        // Must return promptly — a prefix or an explicit corruption
        // error — and never panic or size a buffer from a bogus claim.
        match migratory::core::enforce::wal::decode_records(&fuzzed) {
            Ok(records) => assert!(records.len() <= 8),
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    // An oversized claim at the tail is torn-append truncation: the
    // reopened log keeps every prior record and appends cleanly.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.join("wal.log")).unwrap();
        f.write_all(&0xffff_ffffu32.to_le_bytes()).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
    }
    {
        let (snap, tail) = Wal::load(&dir).unwrap();
        assert_eq!(tail.len(), 8, "oversized tail claim dropped");
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let mut m =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
                .unwrap()
                .with_sink(wal.clone());
        m.try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str("9")])).unwrap();
    }
    let (_, tail) = Wal::load(&dir).unwrap();
    assert_eq!(tail.len(), 9);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Wal` checkpointing + `Wal::load`: restart without replay — the
/// checkpoint seals the log, recovery folds chain + tail, and a
/// recovered monitor can keep running (and keep logging) seamlessly.
#[test]
fn file_wal_snapshot_restart_resumes_mid_run() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
    "#,
    )
    .unwrap();
    let dir = temp_dir("restart");
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);

    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(wal.clone());
    for k in ["a", "b", "c"] {
        live.try_apply(ts.get("Mk").unwrap(), &key(k)).unwrap();
    }
    wal.lock().unwrap().write_snapshot(&live.snapshot()).unwrap();
    assert_eq!(
        std::fs::metadata(dir.join("wal.log")).unwrap().len(),
        0,
        "checkpoint seals the live log"
    );
    live.try_apply(ts.get("St").unwrap(), &key("a")).unwrap();
    live.try_apply(ts.get("St").unwrap(), &key("b")).unwrap();
    let crash_state = live.snapshot().encode();
    drop((live, wal)); // "crash"

    let (snap, tail) = Wal::load(&dir).unwrap();
    let snap = snap.expect("checkpoint present");
    assert_eq!(snap.steps(), 3);
    assert_eq!(tail.len(), 2, "only the post-checkpoint tail remains");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut revived =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, Some(snap), tail)
            .unwrap()
            .with_sink(wal.clone());
    assert_eq!(revived.snapshot().encode(), crash_state);
    // The revived monitor keeps enforcing and keeps logging.
    revived.try_apply(ts.get("UnSt").unwrap(), &key("a")).unwrap();
    assert_eq!(revived.clock(0), 6);
    let (_, tail) = Wal::load(&dir).unwrap();
    assert_eq!(tail.len(), 3, "the new letter was appended to the same log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The background-checkpoint crash windows, one by one, on a live
/// multi-component sharded run (shard clocks genuinely diverge, so the
/// per-shard fold logic is what is under test):
///
/// 1. a stale `*.tmp` from a crashed checkpoint job is ignored;
/// 2. crash after the log was sealed but before the checkpoint landed
///    — the sealed segment replays;
/// 3. crash after the checkpoint landed but before pruning — covered
///    records are skipped per shard, never double-applied;
/// 4. a stale increment from before a newer base is ignored.
#[test]
fn background_checkpoint_crash_windows_recover_byte_identically() {
    let mut b = migratory::model::SchemaBuilder::new();
    for r in 0..3 {
        let root = b.class(&format!("R{r}"), &[&format!("K{r}")]).unwrap();
        b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
    }
    let schema = b.build().unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r"
        transaction Mk0(x) { create(R0, { K0 = x }); }
        transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
        transaction Mk1(x) { create(R1, { K1 = x }); }
        transaction Mk2(x) { create(R2, { K2 = x }); }
    ",
    )
    .unwrap();
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let dir = temp_dir("ckpt-windows");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 3).with_sink(wal.clone());
    let recover_and_check = |live: &ShardedMonitor<'_>, label: &str| {
        let (snap, tail) = Wal::load(&dir).unwrap_or_else(|e| panic!("{label}: load: {e}"));
        let recovered =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 3, snap, tail)
                .unwrap_or_else(|e| panic!("{label}: recover: {e}"));
        assert_eq!(
            recovered.snapshot().encode(),
            live.snapshot().encode(),
            "{label}: not byte-identical"
        );
        assert_eq!(recovered.clocks(), live.clocks(), "{label}: clocks diverged");
    };

    // Uneven traffic: shard 0 races ahead of shards 1 and 2.
    for i in 0..6 {
        live.try_apply(ts.get("Mk0").unwrap(), &key(&format!("a{i}"))).unwrap();
    }
    live.try_apply(ts.get("Mk1").unwrap(), &key("b0")).unwrap();
    assert_eq!(live.clocks(), vec![6, 1, 0]);

    // Window 1: a stale tmp file from a crashed checkpoint job is
    // invisible to load …
    std::fs::write(dir.join("checkpoint-00000042.tmp"), b"half-written garbage").unwrap();
    recover_and_check(&live, "stale tmp");
    // … and swept by the next open (shown on a throwaway directory —
    // this test's Wal is already open).
    {
        let d2 = temp_dir("ckpt-tmp-clean");
        std::fs::create_dir_all(&d2).unwrap();
        std::fs::write(d2.join("checkpoint-00000007.tmp"), b"garbage").unwrap();
        let _w = Wal::open(&d2).unwrap();
        assert!(!d2.join("checkpoint-00000007.tmp").exists(), "stale tmp cleaned by open");
        let _ = std::fs::remove_dir_all(&d2);
    }

    // Base checkpoint (run inline so it is durable), then more uneven
    // traffic on top.
    let job =
        wal.lock().unwrap().begin_checkpoint(CheckpointData::Full(live.checkpoint_full())).unwrap();
    job.run().unwrap();
    for i in 0..3 {
        live.try_apply(ts.get("Up0").unwrap(), &key(&format!("a{i}"))).unwrap();
        live.try_apply(ts.get("Mk2").unwrap(), &key(&format!("c{i}"))).unwrap();
    }
    assert_eq!(live.clocks(), vec![9, 1, 3]);

    // Window 2: the admission thread sealed the log for an incremental
    // checkpoint, then the process died before the job ran. The sealed
    // segment must replay (per shard, at shard-local offsets).
    let delta = live.checkpoint_delta();
    let job = wal.lock().unwrap().begin_checkpoint(CheckpointData::Incremental(delta)).unwrap();
    let sealed: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.starts_with("sealed-").then_some(name)
        })
        .collect();
    assert_eq!(sealed.len(), 1, "the live log was sealed: {sealed:?}");
    recover_and_check(&live, "sealed without checkpoint");

    // Window 3: the checkpoint lands but the crash hits before pruning
    // — the sealed segment sits beside the increment that covers it.
    // Per-shard clock folding must skip its records exactly once.
    let sealed_path = dir.join(&sealed[0]);
    let sealed_bytes = std::fs::read(&sealed_path).unwrap();
    job.run().unwrap();
    assert!(!sealed_path.exists(), "the job pruned the covered segment");
    std::fs::write(&sealed_path, &sealed_bytes).unwrap(); // resurrect: crash before prune
    recover_and_check(&live, "checkpoint without prune (double-apply)");
    std::fs::remove_file(&sealed_path).unwrap();

    // Window 4: a newer base supersedes the increment; a crash before
    // pruning leaves the stale increment around. It must be ignored.
    let stale_delta = dir.join("delta-00000002.bin");
    assert!(stale_delta.exists(), "the incremental checkpoint landed at seq 2");
    let stale_bytes = std::fs::read(&stale_delta).unwrap();
    live.try_apply(ts.get("Mk1").unwrap(), &key("b1")).unwrap();
    let job =
        wal.lock().unwrap().begin_checkpoint(CheckpointData::Full(live.checkpoint_full())).unwrap();
    job.run().unwrap();
    assert!(!stale_delta.exists(), "the new base pruned the old increment");
    std::fs::write(&stale_delta, &stale_bytes).unwrap(); // resurrect: crash before prune
    recover_and_check(&live, "stale increment beside a newer base");

    // And the background path end-to-end: incremental checkpoints
    // through a Snapshotter thread, crash-checked after it finishes.
    let mut snapshotter = Snapshotter::spawn();
    for i in 3..6 {
        live.try_apply(ts.get("Mk2").unwrap(), &key(&format!("c{i}"))).unwrap();
        let delta = live.checkpoint_delta();
        let job = wal.lock().unwrap().begin_checkpoint(CheckpointData::Incremental(delta)).unwrap();
        snapshotter.submit(job).unwrap();
    }
    snapshotter.finish().unwrap();
    recover_and_check(&live, "snapshotter chain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that kills an in-flight **incremental** checkpoint job
/// swallows its sequence number: the sealed segment exists, the
/// increment never landed. The resumed run's later increments must not
/// corrupt the chain — each increment records the checkpoint it chains
/// onto, so the hole is recognized as a crashed job (whose records the
/// later increment covers, via the replay-dirtied state), not as a
/// lost increment.
#[test]
fn crashed_incremental_job_does_not_corrupt_the_chain() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let dir = temp_dir("incr-crash");
    {
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let mut live = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
            .with_sink(wal.clone());
        live.try_apply(ts.get("Mk").unwrap(), &key("1")).unwrap();
        let snap = live.checkpoint_full();
        wal.lock().unwrap().write_snapshot(&snap).unwrap(); // base, seq 1
        live.try_apply(ts.get("Mk").unwrap(), &key("2")).unwrap();
        let delta = live.checkpoint_delta();
        let job = wal.lock().unwrap().begin_checkpoint(CheckpointData::Incremental(delta)).unwrap();
        assert_eq!(job.seq(), 2);
        drop(job); // crash: sealed-2.log exists, delta-2.bin never lands
    }
    // Recover (first time — this always worked), then RESUME: more
    // letters, another incremental checkpoint. Its job prunes the
    // crashed job's sealed segment — which is safe, because recovery
    // re-dirtied the replayed objects and this increment carries them.
    let (snap, tail) = Wal::load(&dir).unwrap();
    assert_eq!(tail.len(), 1, "the sealed segment replays");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut revived =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
            .unwrap()
            .with_sink(wal.clone());
    revived.try_apply(ts.get("Mk").unwrap(), &key("3")).unwrap();
    let delta = revived.checkpoint_delta();
    let job = wal.lock().unwrap().begin_checkpoint(CheckpointData::Incremental(delta)).unwrap();
    assert_eq!(job.seq(), 3, "the crashed job's sequence is never reused");
    job.run().unwrap();
    assert!(!dir.join("sealed-00000002.log").exists(), "covered segment pruned");
    assert!(!dir.join("delta-00000002.bin").exists(), "the crashed increment never landed");
    let crash_state = revived.snapshot().encode();
    drop((revived, wal));

    // The chain must still load — increment 3 declares it chains onto
    // the base (seq 1), so the missing seq 2 is not a lost increment.
    let (snap, tail) = Wal::load(&dir).unwrap();
    assert!(tail.is_empty());
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail).unwrap();
    assert_eq!(recovered.snapshot().encode(), crash_state, "o2 must survive the crashed job");
    assert_eq!(recovered.db().num_objects(), 3);

    // A *genuinely* missing increment is still detected: resurrect the
    // situation where delta-3 chained onto delta-2 and delta-2 vanished.
    let d3 = std::fs::read(dir.join("delta-00000003.bin")).unwrap();
    std::fs::write(dir.join("delta-00000004.bin"), &d3).unwrap(); // wrong seq AND parent
    let err = Wal::load(&dir).err().expect("chain inconsistency must be detected");
    assert!(matches!(err, WalError::Corrupt(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash can kill the **base** checkpoint job itself: the log was
/// sealed, `snapshot.bin` never landed. Recovery replays the sealed
/// segment from the empty monitor; a reopened `Wal` reports no base
/// and refuses increments until a full checkpoint re-establishes the
/// chain.
#[test]
fn crashed_base_checkpoint_job_recovers_and_reestablishes_base() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let dir = temp_dir("base-crash");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(wal.clone());
    for k in ["1", "2", "3"] {
        live.try_apply(ts.get("Mk").unwrap(), &key(k)).unwrap();
    }
    let job =
        wal.lock().unwrap().begin_checkpoint(CheckpointData::Full(live.checkpoint_full())).unwrap();
    drop(job); // crash: the snapshotter died before the job ran
    let crash_state = live.snapshot().encode();
    drop((live, wal));

    let (snap, tail) = Wal::load(&dir).unwrap();
    assert!(snap.is_none(), "the base never landed");
    assert_eq!(tail.len(), 3, "the sealed segment replays instead");
    let mut revived =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail).unwrap();
    assert_eq!(revived.snapshot().encode(), crash_state);

    // The reopened log knows the chain has no base: increments are
    // refused until a full checkpoint re-establishes it.
    let mut wal = Wal::open(&dir).unwrap();
    assert!(!wal.has_base());
    let delta = revived.checkpoint_delta();
    assert!(
        matches!(
            wal.begin_checkpoint(CheckpointData::Incremental(delta)),
            Err(WalError::Mismatch(_))
        ),
        "an increment must not chain onto a missing base"
    );
    wal.begin_checkpoint(CheckpointData::Full(revived.checkpoint_full())).unwrap().run().unwrap();
    assert!(wal.has_base());
    // The chain works again: run a letter through a reattached sink,
    // take an increment, recover byte-identically.
    let wal = Arc::new(Mutex::new(wal));
    let mut revived = revived.with_sink(wal.clone());
    revived.try_apply(ts.get("Mk").unwrap(), &key("4")).unwrap();
    let delta = revived.checkpoint_delta();
    wal.lock()
        .unwrap()
        .begin_checkpoint(CheckpointData::Incremental(delta))
        .unwrap()
        .run()
        .unwrap();
    drop(wal);
    let (snap, tail) = Wal::load(&dir).unwrap();
    assert!(tail.is_empty(), "the increment pruned the covered records");
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail).unwrap();
    assert_eq!(recovered.snapshot().encode(), revived.snapshot().encode());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A base job staged before a newer base landed — a standby's
/// start-time base, racing the bootstrap that writes the primary's
/// snapshot inline — leaves the newer `snapshot.bin` in place when it
/// runs last, and leaves no temp file behind.
#[test]
fn a_stale_base_job_never_replaces_a_newer_base() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let dir = temp_dir("stale-base");
    let mut wal = Wal::open(&dir).unwrap();
    let mut live = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    let stale = wal.begin_checkpoint(CheckpointData::Full(live.checkpoint_full())).unwrap();
    for k in ["1", "2"] {
        live.try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str(k)])).unwrap();
    }
    wal.write_snapshot(&live.checkpoint_full()).unwrap();
    stale.run().unwrap();
    let (snap, tail) = Wal::load(&dir).unwrap();
    assert!(tail.is_empty());
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail).unwrap();
    assert_eq!(recovered.snapshot().encode(), live.snapshot().encode(), "the newer base stays");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "the stale job left {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction rewrites every record's cohort slot without touching the
/// objects; the incremental-checkpoint chain must still fold
/// byte-identically (the shard flips to a full record capture).
#[test]
fn incremental_checkpoints_survive_cohort_compaction() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
    "#,
    )
    .unwrap();
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    for kind in [PatternKind::All, PatternKind::Proper, PatternKind::Lazy] {
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live =
            ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1).with_sink(wal.clone());
        let keys = ["a", "b", "c"];
        for k in keys {
            live.try_apply(ts.get("Mk").unwrap(), &key(k)).unwrap();
        }
        wal.lock().unwrap().write_snapshot(&live.snapshot());
        // Rotating toggles leave forwarder slots behind each fold/merge;
        // 300 of them force compaction (slot table bounded by 65).
        for i in 0..300 {
            let t = if i % 2 == 0 { "St" } else { "UnSt" };
            live.try_apply(ts.get(t).unwrap(), &key(keys[(i / 2) % keys.len()])).unwrap();
            if i % 40 == 39 {
                let delta = live.checkpoint_delta();
                wal.lock().unwrap().write_checkpoint_delta(&delta);
            }
        }
        let (snap, tail) = {
            let w = wal.lock().unwrap();
            (w.snapshot().unwrap(), w.records())
        };
        let recovered =
            ShardedMonitor::recover(&schema, &alphabet, &inv, kind, 1, snap, tail).unwrap();
        assert_eq!(
            recovered.snapshot().encode(),
            live.snapshot().encode(),
            "chain across compaction not byte-identical under {kind}"
        );
    }
}

/// A failing sink aborts the commit atomically: nothing applied, nothing
/// tracked, nothing logged — and the monitor resumes cleanly once the
/// sink heals.
#[test]
fn sink_failure_rolls_back_and_heals() {
    use migratory::core::enforce::wal::FailingSink;
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let sink = Arc::new(Mutex::new(FailingSink::default()));
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);

    let mut m =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(sink.clone());
    m.try_apply(ts.get("Mk").unwrap(), &key("1")).unwrap();
    sink.lock().unwrap().fail = true;
    let before = m.snapshot().encode();
    let err = m.try_apply(ts.get("Mk").unwrap(), &key("2")).unwrap_err();
    assert!(matches!(err, EnforceError::Durability(_)), "got {err:?}");
    assert_eq!(m.snapshot().encode(), before, "failed commit left state behind");
    assert_eq!(m.db().num_objects(), 1);
    sink.lock().unwrap().fail = false;
    m.try_apply(ts.get("Mk").unwrap(), &key("2")).unwrap();
    assert_eq!(m.db().num_objects(), 2);
    assert_eq!(sink.lock().unwrap().accepted, 2);

    // Sharded batch: a failing sink rejects the whole block atomically.
    let sink = Arc::new(Mutex::new(FailingSink { fail: true, accepted: 0 }));
    let mut sm =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2).with_sink(sink.clone());
    let assigns: Vec<Assignment> = (0..4).map(|i| key(&format!("{i}"))).collect();
    let batch: Vec<(&Transaction, &Assignment)> =
        assigns.iter().map(|a| (ts.get("Mk").unwrap(), a)).collect();
    let (done, err) = sm.try_apply_batch(batch.clone());
    assert_eq!(done, 0);
    assert!(matches!(err, Some(EnforceError::Durability(_))));
    assert_eq!(sm.db().num_objects(), 0, "block rolled back");
    assert_eq!(sm.clocks(), vec![0, 0]);
    sink.lock().unwrap().fail = false;
    let (done, err) = sm.try_apply_batch(batch);
    assert_eq!((done, err), (4, None));
}

/// A durable certified monitor logs its (unchecked) applications and
/// recovers from a post-certification checkpoint, patterns frozen at
/// the certification horizon.
#[test]
fn certified_monitor_logs_and_recovers() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [STUDENT]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction T1(n, sv, t, mj) {
          create(PERSON, { SSN = sv, Name = n });
          specialize(PERSON, STUDENT, { SSN = sv }, { Major = mj, FirstEnroll = t });
        }
        transaction T4(sv) { delete(PERSON, { SSN = sv }); }
    "#,
    )
    .unwrap();
    let args = |k: &str| {
        Assignment::new(vec![Value::str("ann"), Value::str(k), Value::int(1990), Value::str("CS")])
    };
    let wal = Arc::new(Mutex::new(MemoryWal::new()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(wal.clone());
    live.try_apply(ts.get("T1").unwrap(), &args("1")).unwrap();
    // Checkpoint BEFORE certification: the certification event reaches
    // the log as its own write-ahead marker record, so recovery from
    // this pre-certification snapshot must still freeze tracking at the
    // right letter instead of replaying certified blocks as checked.
    wal.lock().unwrap().write_snapshot(&live.snapshot());
    assert!(live.certify(&ts).unwrap());
    live.try_apply(ts.get("T1").unwrap(), &args("2")).unwrap();
    live.try_apply(ts.get("T4").unwrap(), &Assignment::new(vec![Value::str("1")])).unwrap();
    let (snap, records) = {
        let w = wal.lock().unwrap();
        (w.snapshot().unwrap().unwrap(), w.records())
    };
    assert_eq!(records.len(), 3, "two certified blocks plus the certification marker");
    assert!(records.iter().any(|r| matches!(r, WalRecord::Certified { steps: 1 })));
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, Some(snap), records)
            .unwrap();
    assert_eq!(recovered.snapshot().encode(), live.snapshot().encode());
    assert_eq!(recovered.db(), live.db());
    assert!(recovered.is_certified());
    assert_eq!(recovered.clock(0), 3);
    assert_eq!(recovered.pattern_of(Oid(1)), live.pattern_of(Oid(1)));
    assert_eq!(recovered.pattern_of(Oid(1)).unwrap().len(), 1, "frozen at certification");
    assert!(recovered.pattern_of(Oid(2)).is_none(), "post-certification objects untracked");

    // An incremental checkpoint taken while certified must carry the
    // certified monitor's database changes (tracking is frozen but the
    // heap moves).
    let delta = live.checkpoint_delta();
    wal.lock().unwrap().write_checkpoint_delta(&delta);
    live.try_apply(ts.get("T1").unwrap(), &args("3")).unwrap();
    let (snap, records) = {
        let w = wal.lock().unwrap();
        (w.snapshot().unwrap(), w.records())
    };
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, records)
            .unwrap();
    assert_eq!(recovered.snapshot().encode(), live.snapshot().encode());

    // A failing sink vetoes certification itself (write-ahead marker).
    use migratory::core::enforce::wal::FailingSink;
    let sink = Arc::new(Mutex::new(FailingSink { fail: true, accepted: 0 }));
    let mut m =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(sink.clone());
    assert!(m.certify(&ts).is_err(), "unloggable certification must not take effect");
    assert!(!m.is_certified());
    sink.lock().unwrap().fail = false;
    assert!(m.certify(&ts).unwrap());
    assert!(m.is_certified());
}

/// Re-opening a log with a torn tail must truncate it before appending:
/// otherwise every post-reopen record hides behind the garbage and is
/// silently lost on the next recovery.
#[test]
fn reopening_a_torn_log_truncates_before_appending() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let dir = temp_dir("torn-reopen");
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    {
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
            .with_sink(wal.clone());
        m.try_apply(ts.get("Mk").unwrap(), &key("1")).unwrap();
        m.try_apply(ts.get("Mk").unwrap(), &key("2")).unwrap();
    }
    // Crash mid-append: garbage half-record at the end of the log.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.join("wal.log")).unwrap();
        f.write_all(&[0x99, 0x03, 0x00, 0x00, 0xde, 0xad]).unwrap();
    }
    // Resume: the reopened log must drop the torn bytes, so the new
    // letter lands right after the two good records.
    {
        let (snap, tail) = Wal::load(&dir).unwrap();
        assert_eq!(tail.len(), 2, "torn tail dropped on load");
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let mut m =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
                .unwrap()
                .with_sink(wal.clone());
        m.try_apply(ts.get("Mk").unwrap(), &key("3")).unwrap();
    }
    let (snap, tail) = Wal::load(&dir).unwrap();
    assert_eq!(tail.len(), 3, "the post-reopen record must be recoverable");
    let m =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail).unwrap();
    assert_eq!(m.clock(0), 3);
    assert_eq!(m.db().num_objects(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Gap detection: a tail that skips a block is refused rather than
/// silently replayed out of order.
#[test]
fn recovery_rejects_wal_gaps() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let wal = Arc::new(Mutex::new(MemoryWal::new()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1).with_sink(wal.clone());
    for k in ["1", "2", "3"] {
        live.try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str(k)])).unwrap();
    }
    let mut blocks = wal.lock().unwrap().records();
    blocks.remove(1); // lose the middle block
    let err = ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, None, blocks)
        .err()
        .expect("gap must be detected");
    assert!(err.to_string().contains("gap"), "got {err}");
}

/// One large create-only transaction — a single letter of thousands of
/// creations, as an in-process bulk load writes — must stay on the
/// durability contract: a recovered monitor replays the logged letter
/// and must reach the live monitor's tracking state byte for byte. Load
/// thousands of objects in one letter, mix in regular follow-up
/// letters, and crash-check single and sharded monitors over a folding
/// (Proper) and a non-folding (All) kind.
#[test]
fn bulk_load_recovery_is_byte_identical() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(
        &schema,
        &alphabet,
        "\u{2205}* ([PERSON] \u{222a} [STUDENT])* \u{2205}*",
    )
    .unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        "#,
    )
    .unwrap();
    // One letter of 4,200 creations.
    let bulk = {
        use migratory::lang::AtomicUpdate;
        use migratory::model::{Atom, Condition};
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let updates: Vec<AtomicUpdate> = (0..4200)
            .map(|i| AtomicUpdate::Create {
                class: person,
                gamma: Condition::from_atoms([Atom::eq_const(ssn, format!("b{i}"))]),
            })
            .collect();
        Transaction::sl("BulkLoad", &[], updates)
    };
    let no_args = Assignment::empty();
    // (kind, shard count): 0 = one shard.
    for (kind, shards) in
        [(PatternKind::All, 0usize), (PatternKind::All, 3), (PatternKind::Proper, 2)]
    {
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let seed = Assignment::new(vec![Value::str("seed")]);
        let follow = Assignment::new(vec![Value::str("b7")]);
        let (live_bytes, live_db, recovered) = if shards == 0 {
            let mut live =
                ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1).with_sink(wal.clone());
            live.try_apply(ts.get("Mk").unwrap(), &seed).unwrap();
            live.try_apply(&bulk, &no_args).unwrap();
            live.try_apply(ts.get("St").unwrap(), &follow).unwrap();
            let r = ShardedMonitor::recover(
                &schema,
                &alphabet,
                &inv,
                kind,
                1,
                None,
                wal.lock().unwrap().records(),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: recovery failed: {e}"));
            (live.snapshot().encode(), live.db().clone(), (r.snapshot().encode(), r.db().clone()))
        } else {
            let mut live =
                ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_sink(wal.clone());
            live.try_apply(ts.get("Mk").unwrap(), &seed).unwrap();
            live.try_apply(&bulk, &no_args).unwrap();
            live.try_apply(ts.get("St").unwrap(), &follow).unwrap();
            let r = ShardedMonitor::recover(
                &schema,
                &alphabet,
                &inv,
                kind,
                shards,
                None,
                wal.lock().unwrap().records(),
            )
            .unwrap_or_else(|e| panic!("{kind:?}/{shards}: recovery failed: {e}"));
            assert_eq!(r.clocks(), live.clocks());
            (live.snapshot().encode(), live.db().clone(), (r.snapshot().encode(), r.db().clone()))
        };
        assert_eq!(
            recovered.0, live_bytes,
            "{kind:?}/{shards} shards: bulk load not byte-identical after replay"
        );
        assert_eq!(recovered.1, live_db, "{kind:?}/{shards} shards: database diverged");
    }
}

// ---------------------------------------------------------------------
// Constraint evolution (`RedefineRecord`) crash suites
// ---------------------------------------------------------------------

use migratory::core::enforce::wal::BlockRef;
use migratory::core::enforce::ResiduePolicy;

/// Like [`assert_recovers_single`], but recovery is seeded with the
/// **base** (epoch-0) inventory: when the tail spans a `Redefined`
/// record, replay itself must reproduce the inventory swap — feeding
/// recovery the live monitor's *current* inventory would hide a broken
/// record.
fn assert_recovers_single_from_base(
    live: &ShardedMonitor<'_>,
    base: &Inventory,
    wal: &Arc<Mutex<MemoryWal>>,
    all_records: &[WalRecord],
    label: &str,
) {
    let (snap, blocks) = {
        let w = wal.lock().unwrap();
        (w.snapshot().expect("checkpoint chain folds"), w.records())
    };
    let recovered = ShardedMonitor::recover(
        live.schema(),
        live.alphabet(),
        base,
        live.kind(),
        1,
        snap.clone(),
        blocks,
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"))
    .with_policy(live.policy());
    assert_eq!(
        recovered.snapshot().encode(),
        live.snapshot().encode(),
        "{label}: tracking state not byte-identical after recovery"
    );
    assert_eq!(recovered.db(), live.db(), "{label}: database diverged");
    assert_eq!(recovered.clock(0), live.clock(0), "{label}: letter counts diverged");
    assert_eq!(recovered.epoch(), live.epoch(), "{label}: epoch diverged");
    assert_eq!(recovered.redefine_total(), live.redefine_total(), "{label}");
    assert_eq!(recovered.quarantined_total(), live.quarantined_total(), "{label}");
    assert_eq!(
        recovered.inventory().encode(),
        live.inventory().encode(),
        "{label}: recovered inventory diverged"
    );
    for oid in 1..=live.db().next_oid().0 {
        assert_eq!(
            recovered.pattern_of(Oid(oid)),
            live.pattern_of(Oid(oid)),
            "{label}: pattern of o{oid} diverged"
        );
    }
    // Full-history replay must skip folded blocks AND folded
    // redefinitions (epoch-stamped skip, the checkpoint-without-prune
    // window).
    let again = ShardedMonitor::recover(
        live.schema(),
        live.alphabet(),
        base,
        live.kind(),
        1,
        snap,
        all_records.to_vec(),
    )
    .unwrap_or_else(|e| panic!("{label}: full-history recovery failed: {e}"))
    .with_policy(live.policy());
    assert_eq!(
        again.snapshot().encode(),
        live.snapshot().encode(),
        "{label}: pre-checkpoint records were not skipped"
    );
}

/// 50 random configurations with **redefinitions sprinkled mid-run**,
/// crash-tested at every committed prefix: a log spanning any number of
/// `Redefined` records (interleaved with blocks, full and incremental
/// checkpoints) recovers byte-identically from the epoch-0 inventory —
/// epoch, totals, swapped automaton, quarantined cohorts and all.
#[test]
fn redefined_monitor_recovers_byte_identical_at_every_crash_point() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0051);
    let (mut commits, mut redefines, mut post_redefine_crashes, mut increments) =
        (0usize, 0usize, 0usize, 0usize);
    for case in 0..50 {
        let (schema, edges) = random_schema(&mut rng);
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let base = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live = ShardedMonitor::new(&schema, &alphabet, &base, kind, 1)
            .with_policy(policy)
            .with_sink(wal.clone());
        let no_args = Assignment::empty();
        let mut folded_records: Vec<WalRecord> = Vec::new();
        let mut has_base = false;
        for step in 0..rng.random_range(6usize..16) {
            // Redefine with probability ~1/4 (refusals are fine — they
            // must leave the log untouched and recovery unaffected).
            if rng.random_range(0u32..4) == 0 {
                let next = random_inventory(&mut rng, &schema, &alphabet);
                let residue_policy = if rng.random_range(0u32..2) == 0 {
                    ResiduePolicy::Quarantine
                } else {
                    ResiduePolicy::CertifyAndReset
                };
                match live.redefine(&next, residue_policy) {
                    Ok(out) => {
                        assert_eq!(out.epoch, live.epoch(), "case {case}");
                        redefines += 1;
                    }
                    Err(EnforceError::Redefine(_)) => {}
                    Err(e) => panic!("case {case}: unexpected {e}"),
                }
            }
            let t = common::random_transaction(&mut rng, &schema, &edges);
            match live.try_apply(&t, &no_args) {
                Ok(()) => commits += 1,
                Err(EnforceError::Violation(_)) => {}
                Err(e) => panic!("unexpected {e}"),
            }
            if rng.random_range(0u32..4) == 0 {
                folded_records.extend(wal.lock().unwrap().records());
                if has_base && rng.random_range(0u32..3) != 0 {
                    let delta = live.checkpoint_delta();
                    wal.lock().unwrap().write_checkpoint_delta(&delta);
                    increments += 1;
                } else {
                    let snap = live.checkpoint_full();
                    wal.lock().unwrap().write_snapshot(&snap);
                    has_base = true;
                }
            }
            post_redefine_crashes += usize::from(live.epoch() > 0);
            let all_records: Vec<WalRecord> =
                folded_records.iter().cloned().chain(wal.lock().unwrap().records()).collect();
            assert_recovers_single_from_base(
                &live,
                &base,
                &wal,
                &all_records,
                &format!("case {case} step {step}"),
            );
        }
    }
    assert!(commits > 150, "only {commits} commits — workload too restrictive");
    assert!(redefines > 30, "only {redefines} admitted redefinitions — suite not exercised");
    assert!(post_redefine_crashes > 100, "crashes after a redefinition untested");
    assert!(increments > 15, "only {increments} incremental checkpoints taken");
}

/// Sharded + batched + redefined: random batch admission with redefines
/// at random block boundaries over single- and multi-component schemas
/// (independent per-shard clocks — the `Redefined` record carries every
/// shard's clock), crash-checked after every block from the epoch-0
/// inventory.
#[test]
fn sharded_redefined_recovery_is_byte_identical() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0052);
    let (mut batch_commits, mut redefines) = (0usize, 0usize);
    for case in 0..40 {
        let multi = rng.random_range(0u32..2) == 1;
        let (schema, edges, extra) = if multi {
            random_multi_schema(&mut rng)
        } else {
            let (s, e) = random_schema(&mut rng);
            (s, e, 0)
        };
        let alphabet = RoleAlphabet::new(&schema, 0).expect("component 0");
        let base = random_inventory(&mut rng, &schema, &alphabet);
        let kind = PatternKind::ALL[rng.random_range(0usize..4)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StepPolicy::EveryApplication
        } else {
            StepPolicy::OnlyChanging
        };
        let shards = rng.random_range(1usize..5);
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        // Unused draw, kept so that every seed generates the same cases.
        let _ = rng.random_range(0u32..2);
        let mut live = ShardedMonitor::new(&schema, &alphabet, &base, kind, shards)
            .with_policy(policy)
            .with_sink(wal.clone());
        let shards = live.num_shards();
        let no_args = Assignment::empty();
        let txns: Vec<Transaction> = (0..rng.random_range(6usize..18))
            .map(|_| random_multi_transaction(&mut rng, &schema, &edges, extra))
            .collect();
        let mut has_base = false;
        let mut pos = 0;
        let mut block_no = 0usize;
        while pos < txns.len() {
            if rng.random_range(0u32..4) == 0 {
                let next = random_inventory(&mut rng, &schema, &alphabet);
                let residue_policy = if rng.random_range(0u32..2) == 0 {
                    ResiduePolicy::Quarantine
                } else {
                    ResiduePolicy::CertifyAndReset
                };
                match live.redefine(&next, residue_policy) {
                    Ok(_) => redefines += 1,
                    Err(EnforceError::Redefine(_)) => {}
                    Err(e) => panic!("case {case}: unexpected {e}"),
                }
            }
            let size = rng.random_range(1usize..(txns.len() - pos).min(5) + 1);
            let block = &txns[pos..pos + size];
            let (done, _) = live.try_apply_batch(block.iter().map(|t| (t, &no_args)));
            batch_commits += done;
            pos += size;
            if rng.random_range(0u32..3) == 0 {
                if has_base && rng.random_range(0u32..3) != 0 {
                    let delta = live.checkpoint_delta();
                    wal.lock().unwrap().write_checkpoint_delta(&delta);
                } else {
                    let snap = live.checkpoint_full();
                    wal.lock().unwrap().write_snapshot(&snap);
                    has_base = true;
                }
            }
            block_no += 1;
            let (snap, blocks) = {
                let w = wal.lock().unwrap();
                (w.snapshot().expect("checkpoint chain folds"), w.records())
            };
            let recovered =
                ShardedMonitor::recover(&schema, &alphabet, &base, kind, shards, snap, blocks)
                    .unwrap_or_else(|e| panic!("case {case} block {block_no}: {e}"))
                    .with_policy(policy);
            assert_eq!(
                recovered.snapshot().encode(),
                live.snapshot().encode(),
                "case {case} block {block_no}: shard states not byte-identical"
            );
            assert_eq!(recovered.db(), live.db());
            assert_eq!(recovered.clocks(), live.clocks());
            assert_eq!(recovered.epoch(), live.epoch());
            assert_eq!(recovered.quarantined_total(), live.quarantined_total());
            for oid in 1..=live.db().next_oid().0 {
                assert_eq!(recovered.pattern_of(Oid(oid)), live.pattern_of(Oid(oid)));
            }
        }
    }
    assert!(batch_commits > 100, "only {batch_commits} batch commits");
    assert!(redefines > 20, "only {redefines} admitted redefinitions — suite not exercised");
}

/// File-backed torn-tail semantics across a `RedefineRecord`: truncate
/// `wal.log` at **every byte length** of a run whose log contains a
/// mid-stream redefinition, and require recovery (from the epoch-0
/// inventory) to land exactly on a committed record prefix — before,
/// on, or after the redefinition, never half of it.
#[test]
fn file_wal_truncation_across_a_redefine_record_recovers_every_prefix() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let next = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    let dir = temp_dir("torn-redefine");
    let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 1).with_sink(wal.clone());

    // Canonical state after each appended record (blocks AND the
    // redefinition — a zero-letter record, so keying by record count,
    // not letter count, is what distinguishes pre- from post-swap).
    let mut state_at: Vec<Vec<u8>> = vec![live.snapshot().encode()];
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    for (name, k) in [("Mk", "1"), ("St", "1"), ("Mk", "2"), ("UnSt", "1")] {
        live.try_apply(ts.get(name).unwrap(), &key(k)).unwrap();
        state_at.push(live.snapshot().encode());
    }
    let out = live.redefine(&next, ResiduePolicy::Quarantine).unwrap();
    assert_eq!(out.epoch, 1);
    state_at.push(live.snapshot().encode());
    for (name, k) in [("Mk", "3"), ("Rm", "2"), ("Rm", "3")] {
        live.try_apply(ts.get(name).unwrap(), &key(k)).unwrap();
        state_at.push(live.snapshot().encode());
    }
    let live_state = live.snapshot().encode();
    drop(wal); // flush + close the writer
    drop(live);

    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for cut in 0..=log.len() {
        let records = migratory::core::enforce::wal::decode_records(&log[..cut])
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let n = records.len();
        let recovered =
            ShardedMonitor::recover(&schema, &alphabet, &base, PatternKind::All, 1, None, records)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(
            recovered.snapshot().encode(),
            state_at[n],
            "cut at {cut} bytes must recover the exact state after {n} records"
        );
        assert_eq!(recovered.epoch(), u64::from(n >= 5), "cut {cut}: epoch swaps at record 5");
        prefixes_seen.insert(n);
    }
    assert_eq!(
        prefixes_seen.into_iter().collect::<Vec<_>>(),
        (0..=state_at.len() - 1).collect::<Vec<_>>(),
        "every record prefix is reachable by some truncation"
    );
    // The full log lands on the live state.
    let (snap, tail) = Wal::load(&dir).unwrap();
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &base, PatternKind::All, 1, snap, tail)
            .unwrap();
    assert_eq!(recovered.snapshot().encode(), live_state);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sink that appends every record to an inner [`MemoryWal`] but
/// **reports failure for the redefinition record after writing it** —
/// the exact crash window between the write-ahead append and the
/// in-memory tracking swap.
struct DieAfterRedefineAppend {
    inner: MemoryWal,
    armed: bool,
}

impl migratory::core::enforce::wal::CommitSink for DieAfterRedefineAppend {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        self.inner.committed(block)
    }
    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        self.inner.certified(steps)
    }
    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        self.inner.redefined(epoch, policy, shards, inventory)?;
        if self.armed {
            return Err(WalError::Corrupt("crash after the record append".into()));
        }
        Ok(())
    }
}

/// The crash window **between the `RedefineRecord` append and the
/// tracking swap**: the record is durable, the swap never happened. The
/// live monitor must report the failure and keep enforcing the OLD
/// inventory at epoch 0 — while recovery from the log replays the
/// record and lands on the post-swap state, byte-identical to a monitor
/// whose redefinition completed.
#[test]
fn crash_between_redefine_append_and_swap_replays_the_redefinition() {
    let schema = migratory::model::schema::university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let next = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
    "#,
    )
    .unwrap();
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let sink =
        Arc::new(Mutex::new(DieAfterRedefineAppend { inner: MemoryWal::new(), armed: false }));
    let mut live =
        ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 1).with_sink(sink.clone());
    // An oracle that runs the same history with the swap completing.
    let mut oracle = ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 1);
    for (name, k) in [("Mk", "1"), ("St", "1"), ("Mk", "2")] {
        live.try_apply(ts.get(name).unwrap(), &key(k)).unwrap();
        oracle.try_apply(ts.get(name).unwrap(), &key(k)).unwrap();
    }
    sink.lock().unwrap().armed = true;
    let err = live.redefine(&next, ResiduePolicy::Quarantine).unwrap_err();
    assert!(matches!(err, EnforceError::Durability(_)), "got {err:?}");
    // The live monitor never swapped: old inventory, epoch 0 — a
    // [STUDENT] specialization on o2 is still legal.
    assert_eq!(live.epoch(), 0);
    assert_eq!(live.redefine_total(), 0);
    sink.lock().unwrap().armed = false;
    live.try_apply(ts.get("St").unwrap(), &key("2")).unwrap();

    // …but the record IS in the log: recovery up to the redefinition
    // replays the swap, byte-identical to the oracle completing it.
    let records = sink.lock().unwrap().inner.records();
    assert_eq!(records.len(), 5, "three blocks, the redefinition, the post-crash block");
    let upto_redefine: Vec<WalRecord> = records[..4].to_vec();
    let out = oracle.redefine(&next, ResiduePolicy::Quarantine).unwrap();
    assert_eq!((out.epoch, out.residue, out.quarantined), (1, 1, 1), "o1 is [PERSON][STUDENT]");
    let recovered = ShardedMonitor::recover(
        &schema,
        &alphabet,
        &base,
        PatternKind::All,
        1,
        None,
        upto_redefine,
    )
    .unwrap();
    assert_eq!(recovered.epoch(), 1, "the durable record replays");
    assert_eq!(recovered.snapshot().encode(), oracle.snapshot().encode());
    assert_eq!(recovered.quarantined_total(), 1);
    // Post-swap, the recovered monitor enforces the NEW inventory: the
    // same [STUDENT] specialization the live (unswapped) monitor
    // admitted is now a violation quoting the new epoch.
    let mut recovered = recovered;
    match recovered.try_apply(ts.get("St").unwrap(), &key("2")) {
        Err(EnforceError::Violation(v)) => {
            assert_eq!(v.epoch, 1, "violation quotes the post-swap epoch");
            assert!(v.display(&alphabet).ends_with("[epoch 1]"), "{}", v.display(&alphabet));
        }
        other => panic!("expected a violation under the new inventory, got {other:?}"),
    }
    // The full log (redefinition + the block the unswapped live monitor
    // admitted after it) does NOT recover: the post-crash block was
    // admitted under the old automaton and no longer admits — the log
    // records a history the swapped monitor refuses, which recovery
    // must surface as a mismatch rather than silently accept.
    let err =
        ShardedMonitor::recover(&schema, &alphabet, &base, PatternKind::All, 1, None, records)
            .err()
            .expect("divergent post-crash history must be detected");
    assert!(matches!(err, WalError::Mismatch(_)), "got {err}");
}

/// Recovery checks the heap it adopts against the schema it runs under
/// (`Instance::check_schema`, once, in O(objects)): a snapshot that does
/// not fit is a `WalError::Mismatch`, not a served state. An employee
/// written under one declaration order, recovered under one that swaps
/// `EMPLOYEE` with a `STUDENT` of two attributes, would read as a
/// student missing `Year`; under a schema without `EMPLOYEE` it names a
/// class past the schema, which must be an `Err`, not a panic.
#[test]
fn recovery_refuses_a_snapshot_that_does_not_fit_the_schema() {
    use migratory::model::text::parse_schema;
    let schema = |classes: &str| parse_schema(&format!("schema U {{ {classes} }}")).unwrap();
    let written = schema(
        "class PERSON { SSN } class STUDENT isa PERSON { Major, Year } \
         class EMPLOYEE isa PERSON { Dept }",
    );
    let alphabet = RoleAlphabet::new(&written, 0).unwrap();
    let inv = Inventory::parse_init(&written, &alphabet, "∅* [PERSON]* [EMPLOYEE]* ∅*").unwrap();
    let ts = parse_transactions(
        &written,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x }); }
        transaction Em(x) { specialize(PERSON, EMPLOYEE, { SSN = x }, { Dept = "d" }); }
    "#,
    )
    .unwrap();
    let mut live = ShardedMonitor::new(&written, &alphabet, &inv, PatternKind::All, 1);
    for (name, k) in [("Mk", "a"), ("Mk", "b"), ("Em", "a")] {
        live.try_apply(ts.get(name).unwrap(), &Assignment::new(vec![Value::str(k)])).unwrap();
    }
    let recovered = ShardedMonitor::recover(
        &written,
        &alphabet,
        &inv,
        PatternKind::All,
        1,
        Some(live.snapshot()),
        [],
    )
    .expect("the writing schema recovers");
    assert_eq!(recovered.snapshot().encode(), live.snapshot().encode());

    for (classes, what) in [
        (
            "class PERSON { SSN } class EMPLOYEE isa PERSON { Dept } \
             class STUDENT isa PERSON { Major, Year }",
            "has no value",
        ),
        ("class PERSON { SSN } class STUDENT isa PERSON { Major, Year }", "past the schema"),
    ] {
        let other = schema(classes);
        let alphabet = RoleAlphabet::new(&other, 0).unwrap();
        let inv = Inventory::parse_init(&other, &alphabet, "∅* [PERSON]* ∅*").unwrap();
        let snap = Some(live.snapshot());
        match ShardedMonitor::recover(&other, &alphabet, &inv, PatternKind::All, 1, snap, []) {
            Err(e @ WalError::Mismatch(_)) => {
                assert!(e.to_string().contains(what), "{classes}: got {e}");
            }
            Err(e) => panic!("{classes}: a misfit is a mismatch, got {e}"),
            Ok(_) => panic!("{classes}: the snapshot was adopted"),
        }
    }
}
