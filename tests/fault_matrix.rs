//! The fault matrix: every injectable I/O site × {transient, persistent},
//! exercised under pipelined load through the real admission path
//! (`enforce::ingress::serve` with a real on-disk [`Wal`]).
//!
//! The invariants this file locks down:
//!
//! * **No lying acks.** In durable mode, `ok` is never sent for an op
//!   whose block did not reach the WAL — after every injected failure,
//!   folding the directory back equals a fresh monitor fed exactly the
//!   acked ops, byte for byte (the uncrashed oracle).
//! * **Transient faults are absorbed.** A fault that clears within the
//!   retry budget costs retries, never acks and never degrades.
//! * **Persistent append faults degrade, visibly.** The server flips to
//!   read-only, refuses loudly, and resumes after the operator clears
//!   the fault and re-arms — with the resumed acks durable too.
//! * **Checkpoint faults never block admission.** A dead checkpoint
//!   pipeline surfaces in [`Health`], while appends (and therefore
//!   acks) keep flowing, and recovery still replays the uncovered log.

use migratory::core::enforce::{
    ingress, DurabilityPolicy, DurableLog, EnforceError, FaultKind, FaultSite, FsyncPolicy, Health,
    IngressConfig, IoFaults, ShardedMonitor, Wal,
};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment};
use migratory::model::text::parse_schema;
use migratory::model::Value;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SCHEMA: &str = r"
schema Uni {
  class PERSON { SSN }
  class STUDENT isa PERSON { }
}";
const TX: &str = "transaction Mk(x) { create(PERSON, { SSN = x }); }";
const INV: &str = "∅* [PERSON]* ∅*";
const SHARDS: usize = 2;

/// What a run of one matrix cell observed.
struct Outcome {
    /// Keys whose ops were acknowledged `ok`, in admission order.
    acked: Vec<String>,
    /// Ops refused with `EnforceError::Degraded`.
    refused: usize,
    /// Whether the server entered degraded mode at any point.
    degraded: bool,
    /// Append retries spent by the admission worker.
    retries: usize,
    /// The sticky checkpoint failure, if the pipeline recorded one.
    checkpoint_failed: Option<String>,
    /// The ingress wrote its final checkpoint at drain (it does not
    /// after a background job gave up).
    final_checkpoint: bool,
}

/// A fresh monitor fed exactly `acked`, in order — the uncrashed oracle.
fn oracle(acked: &[String]) -> Vec<u8> {
    let schema = parse_schema(SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, INV).unwrap();
    let ts = parse_transactions(&schema, TX).unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, SHARDS);
    for key in acked {
        m.try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str(key)]))
            .expect("acked ops conform");
    }
    m.snapshot().encode()
}

/// Fold the WAL directory back and return the canonical state bytes.
fn recovered(dir: &std::path::Path) -> Vec<u8> {
    let schema = parse_schema(SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, INV).unwrap();
    let (snap, tail) = Wal::load(dir).expect("load survives any injected failure");
    ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, SHARDS, snap, tail)
        .expect("recover")
        .snapshot()
        .encode()
}

/// Run one matrix cell on the sink path (the WAL attached to the
/// monitor, so appends run on the admission worker and the ingress
/// keeps no checkpoint chain): serve 16 pipelined creations (one per
/// block, so WAL calls are deterministic) with `site` scheduled to fail
/// from its `from_nth`-th call on and an append retry budget of 2. If
/// the run degrades, clear the fault, re-arm, and push 4 more ops.
fn run_case(dir: &std::path::Path, site: FaultSite, from_nth: u64, kind: FaultKind) -> Outcome {
    let schema = parse_schema(SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, INV).unwrap();
    let ts = parse_transactions(&schema, TX).unwrap();
    let mut monitor = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, SHARDS);

    let faults = IoFaults::new().fail(site, from_nth, kind);
    let wal = Wal::open(dir).unwrap().with_fsync(FsyncPolicy::Always).with_faults(faults.clone());
    monitor = monitor.with_sink(Arc::new(Mutex::new(wal)));
    let health = Arc::new(Health::new());

    let policy = DurabilityPolicy { retries: 2, backoff: Duration::from_millis(1) };
    let ((acked, refused, degraded), stats) = ingress::serve(
        &mut monitor,
        &IngressConfig {
            queue_capacity: 64,
            max_block: 1,
            durability: policy,
            health: health.clone(),
            ..Default::default()
        },
        |client| {
            let mk = ts.get("Mk").unwrap();
            let post = |k: &str| client.post(mk, Assignment::new(vec![Value::str(k)]));
            let mut acked = Vec::new();
            let mut refused = 0usize;
            for batch in 0..4 {
                // Pipelined: a whole window is in flight before the
                // first reply is read.
                let keys: Vec<String> = (0..4).map(|i| format!("k{batch}{i}")).collect();
                let tickets: Vec<_> = keys.iter().map(|k| post(k)).collect();
                for (key, ticket) in keys.iter().zip(tickets) {
                    match ticket.wait() {
                        Ok(()) => acked.push(key.clone()),
                        Err(EnforceError::Degraded(_)) => refused += 1,
                        Err(e) => panic!("injected faults surface as ok or degraded, got {e}"),
                    }
                }
            }
            // Operator story: a degraded server resumes after the fault
            // is cleared ("disk replaced") and the flag re-armed — and
            // the resumed acks must be just as durable.
            let degraded = health.is_degraded();
            if degraded {
                faults.clear();
                assert!(health.rearm(), "the degraded flag was set");
                for i in 0..4 {
                    let key = format!("r{i}");
                    post(&key).wait().expect("a re-armed server admits again");
                    acked.push(key);
                }
            }
            (acked, refused, degraded)
        },
    );
    drop(monitor);
    Outcome {
        acked,
        refused,
        degraded,
        retries: stats.retries,
        checkpoint_failed: health.checkpoint().failed,
        final_checkpoint: stats.final_checkpoint,
    }
}

/// [`run_case`] with the WAL handed to the ingress
/// (`IngressConfig::wal`): the committer thread owns every WAL
/// call, acks are released only after its batch fsync, and a degraded
/// server resyncs its tracking against the durable log when the
/// operator re-arms. The ingress keeps the checkpoint chain — a base at
/// start, an increment every 64 bytes of log (every 2 of these 32-byte
/// one-op blocks), a final checkpoint at drain —
/// with its jobs retried on the durability policy's budget of 2. The
/// driver posts serially (one op in flight) so the committer's WAL call
/// sequence is deterministic — append/sync call N belongs to op N —
/// and every cell's counts are exact.
fn run_case_pipelined(
    dir: &std::path::Path,
    site: FaultSite,
    from_nth: u64,
    kind: FaultKind,
) -> Outcome {
    let schema = parse_schema(SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, INV).unwrap();
    let ts = parse_transactions(&schema, TX).unwrap();
    let mut monitor = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, SHARDS);

    let faults = IoFaults::new().fail(site, from_nth, kind);
    let wal = Wal::open(dir).unwrap().with_fsync(FsyncPolicy::Batch).with_faults(faults.clone());
    let health = Arc::new(Health::new());

    let policy = DurabilityPolicy { retries: 2, backoff: Duration::from_millis(1) };
    let ((acked, refused, degraded), stats) = ingress::serve(
        &mut monitor,
        &IngressConfig {
            queue_capacity: 64,
            max_block: 1,
            durability: policy,
            health: health.clone(),
            wal: Some(DurableLog { log: Arc::new(Mutex::new(wal)), repl: None }),
            checkpoint_bytes: 64,
            ..Default::default()
        },
        |client| {
            let mk = ts.get("Mk").unwrap();
            let mut acked = Vec::new();
            let mut refused = 0usize;
            for i in 0..16 {
                let key = format!("k{i:02}");
                match client.post(mk, Assignment::new(vec![Value::str(&key)])).wait() {
                    Ok(()) => acked.push(key),
                    Err(EnforceError::Degraded(_)) => refused += 1,
                    Err(e) => panic!("injected faults surface as ok or degraded, got {e}"),
                }
            }
            let degraded = health.is_degraded();
            if degraded {
                faults.clear();
                assert!(health.rearm(), "the degraded flag was set");
                for i in 0..4 {
                    let key = format!("r{i}");
                    client
                        .post(mk, Assignment::new(vec![Value::str(&key)]))
                        .wait()
                        .expect("a re-armed pipelined server resyncs and admits again");
                    acked.push(key);
                }
            }
            (acked, refused, degraded)
        },
    );
    drop(monitor);
    Outcome {
        acked,
        refused,
        degraded,
        retries: stats.retries,
        checkpoint_failed: health.checkpoint().failed,
        final_checkpoint: stats.final_checkpoint,
    }
}

/// One scratch directory per cell, torn down on success.
fn with_dir(name: &str, f: impl FnOnce(&std::path::Path)) {
    let dir = std::env::temp_dir().join(format!("migratory-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Append-path sites fail the op's own WAL call; checkpoint-path sites
/// fail the background pipeline. Each has its own contract.
fn is_append_site(site: FaultSite) -> bool {
    matches!(site, FaultSite::AppendWrite | FaultSite::AppendSync)
}

#[test]
fn every_site_transient_is_absorbed_and_byte_identical() {
    // The sink path checkpoints nothing: only its append sites apply.
    for site in [FaultSite::AppendWrite, FaultSite::AppendSync] {
        with_dir(&format!("t-{site}"), |dir| {
            let out = run_case(dir, site, 6, FaultKind::Transient(1));
            assert_eq!(out.acked.len(), 16, "{site}: a transient fault loses no ops");
            assert_eq!(out.refused, 0, "{site}: a transient fault refuses nothing");
            assert!(!out.degraded, "{site}: a transient fault never degrades");
            assert!(out.retries >= 1, "{site}: the absorbed failure cost a retry");
            assert!(out.checkpoint_failed.is_none(), "{site}: checkpoints unaffected");
            assert_eq!(
                recovered(dir),
                oracle(&out.acked),
                "{site}: recovery must be byte-identical to the acked history"
            );
        });
    }
}

#[test]
fn persistent_append_faults_degrade_then_resume_byte_identical() {
    for site in [FaultSite::AppendWrite, FaultSite::AppendSync] {
        with_dir(&format!("p-{site}"), |dir| {
            let out = run_case(dir, site, 6, FaultKind::Persistent);
            // Ops 1–5 appended; op 6 exhausted its 2 retries and
            // degraded the server; ops 6–16 were refused; the 4
            // post-re-arm ops were admitted again.
            assert!(out.degraded, "{site}: a persistent append fault degrades");
            assert_eq!(out.acked.len(), 5 + 4, "{site}: acked = pre-fault + post-re-arm");
            assert_eq!(out.refused, 11, "{site}: everything in between refused loudly");
            assert_eq!(out.retries, 2, "{site}: the budget was spent before degrading");
            assert!(out.checkpoint_failed.is_none(), "{site}: checkpoints unaffected");
            assert_eq!(
                recovered(dir),
                oracle(&out.acked),
                "{site}: refusals leave no trace; resumed acks are durable"
            );
        });
    }
}

#[test]
fn pipelined_every_site_transient_is_absorbed_and_byte_identical() {
    for site in FaultSite::ALL {
        // Append calls are per-op (from the 6th op); checkpoint calls
        // are per-job (from the 2nd job, so the base succeeds).
        let from_nth = if is_append_site(site) { 6 } else { 2 };
        with_dir(&format!("pt-{site}"), |dir| {
            let out = run_case_pipelined(dir, site, from_nth, FaultKind::Transient(1));
            assert_eq!(out.acked.len(), 16, "{site}: a transient fault loses no ops");
            assert_eq!(out.refused, 0, "{site}: a transient fault refuses nothing");
            assert!(!out.degraded, "{site}: a transient fault never degrades");
            if is_append_site(site) {
                assert!(out.retries >= 1, "{site}: the committer absorbed it with a retry");
            }
            // Staging faults (seal) are recorded even when the next
            // cadence succeeds; append and job-side faults are retried
            // invisibly.
            if !matches!(site, FaultSite::SealRename) {
                assert!(out.checkpoint_failed.is_none(), "{site}: checkpoints unaffected");
            }
            assert!(out.final_checkpoint, "{site}: the checkpoint chain outlives the fault");
            assert_eq!(
                recovered(dir),
                oracle(&out.acked),
                "{site}: pipelined recovery must be byte-identical to the acked history"
            );
        });
    }
}

#[test]
fn pipelined_persistent_append_faults_degrade_then_resync_byte_identical() {
    // Under `--fsync batch` both sites sit on the committer thread: the
    // append (write) or the batch fdatasync. Either way the batch's
    // tickets are refused — never acked — the worker's run-ahead
    // tracking is wound back to the durable prefix on re-arm, and the
    // resumed acks land on a log that replays exactly the acked set.
    for site in [FaultSite::AppendWrite, FaultSite::AppendSync] {
        with_dir(&format!("pp-{site}"), |dir| {
            let out = run_case_pipelined(dir, site, 6, FaultKind::Persistent);
            assert!(out.degraded, "{site}: a persistent committer fault degrades");
            assert_eq!(out.acked.len(), 5 + 4, "{site}: acked = pre-fault + post-re-arm");
            assert_eq!(out.refused, 11, "{site}: everything in between refused loudly");
            assert_eq!(out.retries, 2, "{site}: the budget was spent before degrading");
            assert!(out.checkpoint_failed.is_none(), "{site}: checkpoints unaffected");
            assert_eq!(
                recovered(dir),
                oracle(&out.acked),
                "{site}: the re-armed server resynced to the durable prefix"
            );
        });
    }
}

#[test]
fn pipelined_persistent_checkpoint_faults_do_not_block_the_committer() {
    for site in [
        FaultSite::SealRename,
        FaultSite::CheckpointWrite,
        FaultSite::CheckpointSync,
        FaultSite::CheckpointRename,
        FaultSite::CheckpointPrune,
    ] {
        with_dir(&format!("pc-{site}"), |dir| {
            let out = run_case_pipelined(dir, site, 2, FaultKind::Persistent);
            assert_eq!(out.acked.len(), 16, "{site}: checkpoint faults never refuse writes");
            assert_eq!(out.refused, 0, "{site}: admission is not the checkpoint pipeline");
            assert!(!out.degraded, "{site}: degraded mode is for the append path");
            assert!(
                out.checkpoint_failed.is_some(),
                "{site}: a dead checkpoint pipeline is visible, not silent"
            );
            // The chain must not continue past the checkpoint that
            // never landed.
            assert!(!out.final_checkpoint, "{site}: no final checkpoint after the failure");
            assert_eq!(
                recovered(dir),
                oracle(&out.acked),
                "{site}: the uncovered log replays — nothing acked is lost"
            );
        });
    }
}

#[test]
fn pipelined_sealed_segments_stop_accruing_once_the_snapshotter_gave_up() {
    // One block per op and a checkpoint every block; the second
    // checkpoint write (the first increment) fails for good, so the
    // snapshotter gives up after its retries. From then on no job can
    // land, and the worker must neither capture nor seal: the
    // sealed-segment count stops growing once `Health` records the
    // failure, and the uncovered segments replay the acked history.
    with_dir("seal-stop", |dir| {
        let schema = parse_schema(SCHEMA).unwrap();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let inv = Inventory::parse_init(&schema, &alphabet, INV).unwrap();
        let ts = parse_transactions(&schema, TX).unwrap();
        let mut monitor = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, SHARDS);
        let faults = IoFaults::new().fail(FaultSite::CheckpointWrite, 2, FaultKind::Persistent);
        let wal = Wal::open(dir).unwrap().with_fsync(FsyncPolicy::Batch).with_faults(faults);
        let health = Arc::new(Health::new());
        let sealed = || {
            std::fs::read_dir(dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref().unwrap().file_name().to_string_lossy().starts_with("sealed-")
                })
                .count()
        };
        let ((acked, after_failure), stats) = ingress::serve(
            &mut monitor,
            &IngressConfig {
                queue_capacity: 64,
                max_block: 1,
                durability: DurabilityPolicy { retries: 2, backoff: Duration::from_millis(1) },
                health: health.clone(),
                wal: Some(DurableLog { log: Arc::new(Mutex::new(wal)), repl: None }),
                checkpoint_bytes: 1,
                ..Default::default()
            },
            |client| {
                let mk = ts.get("Mk").unwrap();
                let mut acked: Vec<String> = Vec::new();
                let post = |acked: &mut Vec<String>| {
                    let key = format!("k{:04}", acked.len());
                    client
                        .post(mk, Assignment::new(vec![Value::str(&key)]))
                        .wait()
                        .expect("checkpoint faults never refuse writes");
                    acked.push(key);
                };
                while health.checkpoint().failed.is_none() {
                    assert!(acked.len() < 2000, "the persistent checkpoint fault never surfaced");
                    post(&mut acked);
                }
                // The worker admits the next block only after the
                // cadence of the one before it, which may have started
                // before the failure: once this op is acked, every
                // later cadence sees the failed snapshotter.
                post(&mut acked);
                let after_failure = sealed();
                for _ in 0..20 {
                    post(&mut acked);
                    assert_eq!(
                        sealed(),
                        after_failure,
                        "a cadence sealed the log after the failure"
                    );
                }
                (acked, after_failure)
            },
        );
        drop(monitor);
        assert_eq!(sealed(), after_failure, "nor does the drain seal it");
        assert!(!stats.final_checkpoint, "no final checkpoint after the failure");
        assert_eq!(
            recovered(dir),
            oracle(&acked),
            "the uncovered segments replay exactly the acked history"
        );
    });
}
