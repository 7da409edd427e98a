//! Replication suite for `core::enforce::repl` (primary → replica WAL
//! shipping, `docs/PROTOCOL.md` § Replication stream):
//!
//! * randomized byte-identity: a primary under pipelined load with
//!   background checkpoints and a mid-stream `redefine` ships its
//!   history to a replica whose durable state must be byte-identical to
//!   a `recover` oracle fed exactly the acknowledged operations;
//! * torn-stream semantics: the shipped byte stream cut at every byte
//!   offset decodes to a whole-record prefix, folds to the exact
//!   prefix state, and a full re-delivery after any cut is idempotent
//!   (clock-covered records skip, nothing double-applies; a dropped
//!   record is a detected gap);
//! * end-to-end failover through the real `migctl` binary: kill -9 the
//!   primary, `promote` the replica, and re-drive text + binary traffic
//!   including a wire violation and an epoch check after the shipped
//!   redefine;
//! * read-your-acked-writes on a following standby: under
//!   `ack-on-replica-1` every write the primary acked is visible to the
//!   standby's `query` in both dialects, and a refused op never is;
//! * fault-matrix rows for the shipping socket (stall, disconnect,
//!   short write) × both ack policies: `ack-on-replica` must never ack
//!   an operation the surviving replica does not have;
//! * the normative "Replication stream" section of `docs/PROTOCOL.md`
//!   is locked to the implementation's constants, like the binary
//!   framing section.

mod common;

use common::{random_inventory, random_schema, random_transaction};
use migratory::core::enforce::repl::{acceptor, puller, HELLO, PREAMBLE};
use migratory::core::enforce::wal::{decode_records, decode_stream};
use migratory::core::enforce::{
    ingress, AckPolicy, AdmissionMetrics, DurableLog, Health, IngressConfig, ReplicaCtl,
    Replicator, ResiduePolicy, ShardedMonitor, ShipFault, Wal,
};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment, Transaction};
use migratory::model::text::parse_schema;
use migratory::model::{Atom, Condition, Schema, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("migratory-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Wait for `cond` to turn true, failing the test after `secs` seconds.
fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Satellite 1: randomized replica byte-identity
// ---------------------------------------------------------------------

/// One randomized round: a primary under pipelined load (single
/// component → single lane, so the acked order is the commit order)
/// with incremental checkpoints and a mid-stream redefinition ships to
/// one replica under `ack-on-replica-1`. Every `ok` therefore promises
/// the op is applied *and durable* on the replica — so the replica's
/// recovered state must be byte-identical to a fresh oracle fed exactly
/// the acked script, and so must both live monitors.
fn replica_byte_identity_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (schema, edges) = random_schema(&mut rng);
    let alphabet = RoleAlphabet::new(&schema, 0).expect("alphabet");
    let inv = random_inventory(&mut rng, &schema, &alphabet);
    let inv2 = random_inventory(&mut rng, &schema, &alphabet);
    let txs: Vec<Transaction> =
        (0..48).map(|_| random_transaction(&mut rng, &schema, &edges)).collect();
    let redefine_at = 24;

    let dir_p = temp_dir(&format!("ident-p-{seed}"));
    let dir_r = temp_dir(&format!("ident-r-{seed}"));
    let wal_p = Arc::new(Mutex::new(Wal::open(&dir_p).expect("primary wal")));
    let wal_r = Arc::new(Mutex::new(Wal::open(&dir_r).expect("replica wal")));

    let repl = Arc::new(
        Replicator::bind("127.0.0.1:0")
            .expect("bind replicator")
            .with_policy(AckPolicy::ReplicaK(1))
            .with_ack_timeout(Duration::from_secs(20)),
    );
    let repl_addr = repl.local_addr().to_string();
    let ctl = Arc::new(ReplicaCtl::new(&repl_addr));
    let stop_accept = AtomicBool::new(false);

    // Outcome log of the primary's acked script, mirrored by the oracle.
    let acked: Mutex<Vec<bool>> = Mutex::new(Vec::new());
    let redefine_applied = Mutex::new(None::<bool>);

    let (primary_live, replica_live) = std::thread::scope(|scope| {
        // The replica: its own durable pipeline; the drive closure runs
        // the pull loop until the primary's driver signals stop.
        let replica = scope.spawn(|| {
            let mut rm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
            let health = Arc::new(Health::new());
            ingress::serve(
                &mut rm,
                &IngressConfig {
                    queue_capacity: 64,
                    max_block: 8,
                    health: health.clone(),
                    wal: Some(DurableLog { log: wal_r.clone(), repl: None }),
                    ..Default::default()
                },
                |client| {
                    std::thread::scope(|ps| {
                        ps.spawn(|| puller(&repl_addr, &ctl, &wal_r, client, None));
                        wait_for(60, "the primary's stop signal", || ctl.stopped());
                    });
                },
            );
            assert!(!health.is_degraded(), "replica degraded: {}", health.reason());
            rm.snapshot().encode()
        });

        // The primary: pipelined committer + replicator tee, with a
        // checkpoint every 128 bytes of log, about every 4 blocks
        // (exercising chain + tail shipping on reconnect, and pruning
        // under live shipping).
        let mut pm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        let health = Arc::new(Health::new());
        let ((), stats) = ingress::serve(
            &mut pm,
            &IngressConfig {
                queue_capacity: 64,
                max_block: 8,
                health: health.clone(),
                wal: Some(DurableLog { log: wal_p.clone(), repl: Some(repl.clone()) }),
                checkpoint_bytes: 128,
                ..Default::default()
            },
            |client| {
                std::thread::scope(|ps| {
                    ps.spawn(|| acceptor(&repl, client, &stop_accept));
                    wait_for(20, "the replica to register", || repl.live_replicas() >= 1);
                    for (i, t) in txs.iter().enumerate() {
                        if i == redefine_at {
                            let (tx, rx) = mpsc::channel();
                            let inv2 = &inv2;
                            client.post_admin(Box::new(move |gate| {
                                let ok = gate
                                    .ok()
                                    .map(|m| m.redefine(inv2, ResiduePolicy::Quarantine).is_ok());
                                Box::new(move |durable| {
                                    let _ = tx.send(ok.unwrap_or(false) && durable);
                                })
                            }));
                            *redefine_applied.lock().unwrap() =
                                Some(rx.recv().expect("redefine answered"));
                        }
                        let ok = client.post(t, Assignment::new(vec![])).wait().is_ok();
                        acked.lock().unwrap().push(ok);
                    }
                    // Every acked op is durable on the replica
                    // (ack-on-replica-1): it may stop now.
                    ctl.request_stop();
                    stop_accept.store(true, Ordering::SeqCst);
                });
            },
        );
        repl.close();
        assert!(!health.is_degraded(), "primary degraded: {}", health.reason());
        assert!(health.checkpoint().failed.is_none() && stats.final_checkpoint, "checkpoints land");
        (pm.snapshot().encode(), replica.join().expect("replica thread"))
    });

    // The oracle: a fresh monitor fed exactly the acked script, with
    // the redefinition at the same point; every outcome must agree.
    let mut oracle = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    let acked = acked.into_inner().unwrap();
    for (i, t) in txs.iter().enumerate() {
        if i == redefine_at {
            let ok = oracle.redefine(&inv2, ResiduePolicy::Quarantine).is_ok();
            assert_eq!(Some(ok), *redefine_applied.lock().unwrap(), "seed {seed}: redefine");
        }
        let ok = oracle.try_apply(t, &Assignment::new(vec![])).is_ok();
        assert_eq!(ok, acked[i], "seed {seed}: op {i} outcome");
    }
    let expect = oracle.snapshot().encode();

    assert_eq!(primary_live, expect, "seed {seed}: primary live state vs oracle");
    assert_eq!(replica_live, expect, "seed {seed}: replica live state vs oracle");

    // And the replica's own durable image — its base checkpoint from
    // the bootstrap snapshot plus every record its acks covered — folds
    // back byte-identically too.
    let (snap, tail) = Wal::load(&dir_r).expect("replica wal reloads");
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
            .expect("replica recovers");
    assert_eq!(recovered.snapshot().encode(), expect, "seed {seed}: replica durable state");

    let _ = std::fs::remove_dir_all(&dir_p);
    let _ = std::fs::remove_dir_all(&dir_r);
}

#[test]
fn replica_state_is_byte_identical_under_randomized_load() {
    for seed in [0x5eed_1001, 0x5eed_1002, 0x5eed_1003] {
        replica_byte_identity_round(seed);
    }
}

// ---------------------------------------------------------------------
// Satellite 2: torn-stream cuts, resync, no double-apply
// ---------------------------------------------------------------------

const REPL_SCHEMA: &str = r#"
schema Uni {
  class PERSON { SSN, Name }
  class STUDENT isa PERSON { Major }
}
"#;

const REPL_TX: &str = r#"
transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
transaction St(x) { specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS" }); }
transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
transaction Rm(x) { delete(PERSON, { SSN = x }); }
"#;

const REPL_INV: &str = "∅* [PERSON]* [STUDENT]* ∅*";

/// Build the exact byte stream a primary ships (committed blocks plus a
/// redefine marker, in log framing), together with the canonical state
/// after each whole record.
fn shipped_stream() -> (Schema, RoleAlphabet, Inventory, Vec<u8>, Vec<Vec<u8>>) {
    let schema = parse_schema(REPL_SCHEMA).expect("schema");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("alphabet");
    let inv = Inventory::parse_init(&schema, &alphabet, REPL_INV).expect("inventory");
    let inv2 = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").expect("inventory 2");
    let ts = parse_transactions(&schema, REPL_TX).expect("transactions");
    let dir = temp_dir("stream");
    let stream = {
        let wal = Arc::new(Mutex::new(Wal::open(&dir).expect("wal")));
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
            .with_sink(wal.clone());
        for (name, key) in
            [("Mk", "1"), ("Mk", "2"), ("St", "1"), ("Rm", "2"), ("Mk", "3"), ("St", "3")]
        {
            m.try_apply(ts.get(name).unwrap(), &Assignment::new(vec![Value::str(key)]))
                .expect("script conforms");
        }
        m.redefine(&inv2, ResiduePolicy::Quarantine).expect("redefine applies");
        for (name, key) in [("Mk", "4"), ("Mk", "5")] {
            m.try_apply(ts.get(name).unwrap(), &Assignment::new(vec![Value::str(key)]))
                .expect("script conforms");
        }
        wal.lock().unwrap().sync().expect("sync");
        std::fs::read(dir.join("wal.log")).expect("read log")
    };
    let _ = std::fs::remove_dir_all(&dir);

    // Canonical state after each whole record, by replaying the stream.
    let records = decode_records(&stream).expect("clean stream decodes");
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    let mut state_at = vec![m.snapshot().encode()];
    for r in &records {
        assert!(m.replay_record(r.clone()).expect("fold"), "fresh records apply");
        state_at.push(m.snapshot().encode());
    }
    (schema, alphabet, inv, stream, state_at)
}

/// Cut the shipped stream at **every byte offset**: the decodable part
/// is always a whole-record prefix folding to the exact prefix state,
/// and re-delivering the *entire* stream afterwards (what a resync does
/// after a tear, modulo the fresh bootstrap snapshot) applies nothing
/// twice — every covered record reports clock-skip, every fresh record
/// applies, and the final state equals the uncut run.
#[test]
fn torn_stream_cuts_resync_without_double_apply() {
    let (schema, alphabet, inv, stream, state_at) = shipped_stream();
    let full = state_at.last().expect("at least the empty state").clone();
    let records = decode_records(&stream).expect("clean stream");
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for cut in 0..=stream.len() {
        let (prefix, consumed) =
            decode_stream(&stream[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(consumed <= cut, "cut {cut}: consumed horizon within the cut");
        let k = prefix.len();
        assert!(k <= records.len());
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        for r in prefix {
            assert!(m.replay_record(r).expect("prefix folds"), "cut {cut}: prefix applies");
        }
        assert_eq!(
            m.snapshot().encode(),
            state_at[k],
            "cut {cut} must fold to the exact state after {k} records"
        );
        // Reconnect after the tear: the full stream arrives again. The
        // k covered records must skip (no double-apply), the rest land.
        for (j, r) in records.iter().enumerate() {
            let applied = m.replay_record(r.clone()).expect("re-delivery folds");
            assert_eq!(applied, j >= k, "cut {cut}: record {j} re-delivery");
        }
        assert_eq!(m.snapshot().encode(), full, "cut {cut}: resynced state");
        prefixes_seen.insert(k);
    }
    assert_eq!(
        prefixes_seen.into_iter().collect::<Vec<_>>(),
        (0..=records.len()).collect::<Vec<_>>(),
        "every whole-record prefix is reachable by some cut"
    );
}

/// Mid-stream damage is *detected*, never silently skipped: a dropped
/// record is a clock gap, and a corrupted byte inside a record stops
/// the decodable prefix right before it while leaving a complete —
/// therefore provably invalid — frame behind, which is exactly the
/// condition the replica treats as corruption (drop + resync) rather
/// than a tear.
#[test]
fn dropped_and_corrupted_records_are_detected_on_the_replication_path() {
    let (schema, alphabet, inv, stream, _) = shipped_stream();
    let records = decode_records(&stream).expect("clean stream");
    assert!(records.len() >= 4, "enough records to drop one");

    // Drop record 1 (a committed block): folding must report a gap.
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    assert!(m.replay_record(records[0].clone()).expect("first record folds"));
    let gap = records[2..]
        .iter()
        .try_for_each(|r| m.replay_record(r.clone()).map(|_| ()))
        .expect_err("a dropped record must be a detected gap");
    assert!(gap.to_string().contains("gap"), "gap diagnostic, got: {gap}");

    // Corrupt one payload byte of record 1: the stream prefix ends at
    // record 1's frame start, and the leftover is a complete frame (so
    // the replica knows it is corruption, not a tear to wait out).
    let len0 = u32::from_le_bytes(stream[0..4].try_into().unwrap()) as usize;
    let boundary = 8 + len0; // record 1's frame start
    let mut corrupt = stream.clone();
    corrupt[boundary + 8] ^= 0xff; // first payload byte of record 1
    let (prefix, consumed) = decode_stream(&corrupt).expect("decode stops at the damage");
    assert_eq!(prefix.len(), 1, "only the intact record survives");
    assert_eq!(consumed, boundary, "consumed horizon stops at the corrupt frame");
    let leftover = &corrupt[consumed..];
    let claimed = u32::from_le_bytes(leftover[0..4].try_into().unwrap()) as usize;
    assert!(leftover.len() >= 8 + claimed, "the corrupt frame is complete, not torn");
}

// ---------------------------------------------------------------------
// Satellite 3: end-to-end failover through the real binary
// ---------------------------------------------------------------------

/// A synchronous text-dialect client (one reply per request).
struct Client {
    writer: TcpStream,
    replies: std::io::Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        Client { writer: conn.try_clone().expect("clone"), replies: BufReader::new(conn).lines() }
    }

    fn ask(&mut self, req: &str) -> String {
        writeln!(self.writer, "{req}").expect("send");
        self.replies.next().expect("a reply per request").expect("read reply")
    }
}

/// Kills the served `migctl` when dropped, so a failing test leaves no
/// server behind.
struct Served(std::process::Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `migctl serve` with replication flags; scrape the client
/// address and (for a primary) the replication address off the banner.
fn spawn_repl_serve(dir: &std::path::Path, extra: &[&str]) -> (Served, String, String) {
    let schema = dir.join("uni.mig");
    let tx = dir.join("uni.sl");
    std::fs::write(&schema, REPL_SCHEMA).unwrap();
    std::fs::write(&tx, REPL_TX).unwrap();
    let mut child = Served(
        std::process::Command::new(env!("CARGO_BIN_EXE_migctl"))
            .arg("serve")
            .arg(&schema)
            .arg(&tx)
            .args(["--inventory", REPL_INV, "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn migctl serve"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut addr = String::new();
    let mut repl_addr = String::new();
    loop {
        let line = lines.next().expect("serve prints its banner").expect("read stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().expect("an address").to_owned();
            if extra.contains(&"--repl-addr") {
                continue; // the replication banner follows
            }
            break;
        }
        if let Some(rest) = line.split("replicating on ").nth(1) {
            repl_addr = rest.split_whitespace().next().expect("an address").to_owned();
            break;
        }
    }
    std::thread::spawn(move || for _ in lines {});
    (child, addr, repl_addr)
}

/// The full failover story through the real binary and both wire
/// dialects: pipelined text + binary traffic with a mid-stream
/// `redefine` lands on the primary under `ack-on-replica-1`; the
/// primary dies by SIGKILL; `migctl promote` flips the replica; the
/// promoted server carries the epoch, rejects by the *new* inventory
/// (a wire violation), serves the indexed `query` verb in both
/// dialects, and accepts new writes — and its durable state equals an
/// oracle fed exactly the acked script.
#[test]
fn kill_primary_promote_replica_and_redrive_both_dialects() {
    use migratory::core::enforce::net::frame;

    let dir = temp_dir("failover");
    let wal_p = dir.join("wal-p");
    let wal_r = dir.join("wal-r");
    let (mut primary, p_addr, p_repl) = spawn_repl_serve(
        &dir,
        &[
            "--durable",
            wal_p.to_str().unwrap(),
            "--checkpoint-bytes",
            "128",
            "--repl-addr",
            "127.0.0.1:0",
            "--ack",
            "replica-1",
            "--ack-timeout-ms",
            "20000",
        ],
    );
    assert!(!p_repl.is_empty(), "primary banner names its replication address");
    let (mut replica, r_addr, _) =
        spawn_repl_serve(&dir, &["--durable", wal_r.to_str().unwrap(), "--replica-of", &p_repl]);

    // Acked script, mirrored into the oracle at the end.
    let mut script: Vec<(&str, String)> = Vec::new();

    // Wait for the replica to attach before opening traffic: under
    // ack-on-replica-1 a write posted before the bootstrap finishes
    // times out (no replica can ack it) and degrades the primary —
    // the documented operator sequence is to watch `stats` for
    // `replicas=1` first.
    {
        let mut c = Client::connect(&p_addr);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = c.ask("stats");
            assert!(stats.contains("repl=primary"), "primary stats carry replication: {stats}");
            if stats.contains("replicas=1") {
                break;
            }
            assert!(Instant::now() < deadline, "replica never attached: {stats}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Text traffic on the primary. ack-on-replica-1: every ok proves
    // the op is applied and durable on the replica.
    {
        let mut c = Client::connect(&p_addr);
        for i in 0..12 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        assert_eq!(c.ask("invoke St(k0)"), "ok");
        script.push(("St", "k0".to_owned()));
        // The shipped redefinition: [STUDENT] leaves the inventory, the
        // resident student is quarantined.
        let rep = c.ask("redefine quarantine ∅* [PERSON]* ∅*");
        assert_eq!(rep, "ok epoch=1 residue=1", "one student in the residue: {rep}");
        // Traffic after the epoch flip, still replicated.
        for i in 12..16 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        assert!(
            c.ask("invoke St(k1)").starts_with("violation "),
            "specialization violates the new inventory"
        );
    }
    // Binary traffic on the primary.
    {
        let conn = TcpStream::connect(&p_addr).expect("connect binary");
        let mut out = Vec::new();
        frame::encode_invoke_frame(&mut out, "Mk", &[Value::str("b0")]);
        (&conn).write_all(&out).expect("send frame");
        let mut r = BufReader::new(&conn);
        let (kind, _) = frame::read_frame(&mut r).expect("reply frame");
        assert_eq!(kind, frame::REP_OK);
        script.push(("Mk", "b0".to_owned()));
    }

    // The replica refuses writes (both dialects) while following.
    {
        let mut c = Client::connect(&r_addr);
        let rep = c.ask("invoke Mk(nope)");
        assert!(rep.starts_with("error replica is read-only"), "split-brain guard: {rep}");
        let rep = c.ask("redefine quarantine ∅*");
        assert!(rep.starts_with("error replica is read-only"), "redefine refused too: {rep}");
    }

    // Kill the old primary outright — no shutdown courtesy — and flip
    // the replica with the real `migctl promote`.
    primary.0.kill().expect("SIGKILL the primary");
    primary.0.wait().expect("reap");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_migctl"))
        .args(["promote", "--addr", &r_addr])
        .output()
        .expect("run migctl promote");
    let promoted = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "promote succeeds: {promoted} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(promoted.contains("promoted epoch=1"), "promote reports the shipped epoch: {promoted}");

    // Re-drive the promoted server: text + binary, wire violation,
    // epoch check, indexed query in both dialects, then drain.
    {
        let mut c = Client::connect(&r_addr);
        for i in 16..20 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok", "promoted server takes writes");
            script.push(("Mk", key));
        }
        assert!(
            c.ask("invoke St(k2)").starts_with("violation "),
            "the shipped redefinition governs the promoted server"
        );
        let stats = c.ask("stats");
        assert!(
            stats.contains("epoch=1 redefines=1 quarantined=1"),
            "the shipped epoch survives promotion: {stats}"
        );
        let rep = c.ask("query PERSON(SSN=\"k0\")");
        assert_eq!(rep, "ok query count=1 oids=o1", "indexed text query: {rep}");
        let rep = c.ask("query STUDENT");
        assert!(rep.starts_with("ok query count=1"), "the quarantined student is live: {rep}");
    }
    {
        let conn = TcpStream::connect(&r_addr).expect("connect binary");
        let mut r = BufReader::new(&conn);
        let mut out = Vec::new();
        frame::encode_invoke_frame(&mut out, "Mk", &[Value::str("b1")]);
        (&conn).write_all(&out).expect("send invoke frame");
        let (kind, _) = frame::read_frame(&mut r).expect("invoke reply");
        assert_eq!(kind, frame::REP_OK);
        script.push(("Mk", "b1".to_owned()));
        // `query` is a barrier-free point-in-time read, so drive it
        // synchronously: the invoke above is acknowledged, hence
        // visible.
        out.clear();
        frame::encode_query_frame(&mut out, "PERSON(SSN=\"b1\")");
        (&conn).write_all(&out).expect("send query frame");
        let (kind, payload) = frame::read_frame(&mut r).expect("query reply");
        assert_eq!(kind, frame::REP_OK);
        let text = String::from_utf8(payload).expect("utf-8 query reply");
        assert!(text.starts_with("query count=1 oids="), "binary query dialect: {text}");
    }
    {
        let mut c = Client::connect(&r_addr);
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    replica.0.wait().expect("replica drains");

    // Byte-identity: the promoted server's durable state equals a fresh
    // oracle fed exactly the acked script (redefine included).
    let schema = parse_schema(REPL_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, REPL_INV).unwrap();
    let inv2 = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(&schema, REPL_TX).unwrap();
    let mut oracle = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    for (name, key) in &script {
        if *name == "Mk" && key == "k12" {
            oracle.redefine(&inv2, ResiduePolicy::Quarantine).expect("oracle redefines");
        }
        oracle
            .try_apply(ts.get(name).unwrap(), &Assignment::new(vec![Value::str(key)]))
            .expect("acked ops conform");
    }
    let (snap, tail) = Wal::load(&wal_r).expect("replica wal reloads");
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
            .expect("replica recovers");
    assert_eq!(
        recovered.snapshot().encode(),
        oracle.snapshot().encode(),
        "promoted durable state must be byte-identical to the acked history"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read-your-acked-writes on a **following** standby: under `--ack
/// replica-1` a primary's `ok` means the standby folded the op, and the
/// standby answers `query` under its monitor's shared lock, so a query
/// sent after the `ok` sees the op — in both dialects. A shipped
/// `redefine` then governs the primary's refusals, and a refused op
/// never shows on the standby.
#[test]
fn following_standby_query_sees_every_write_the_primary_acked() {
    use migratory::core::enforce::net::frame;

    let dir = temp_dir("standby-reads");
    let (wal_p, wal_r) = (dir.join("wal-p"), dir.join("wal-r"));
    let (mut primary, p_addr, p_repl) = spawn_repl_serve(
        &dir,
        &[
            "--durable",
            wal_p.to_str().unwrap(),
            "--repl-addr",
            "127.0.0.1:0",
            "--ack",
            "replica-1",
            "--ack-timeout-ms",
            "20000",
        ],
    );
    let (mut standby, r_addr, _) =
        spawn_repl_serve(&dir, &["--durable", wal_r.to_str().unwrap(), "--replica-of", &p_repl]);
    let mut writer = Client::connect(&p_addr);
    wait_for(20, "the standby to attach", || writer.ask("stats").contains("replicas=1"));

    let mut text = Client::connect(&r_addr);
    let bin = TcpStream::connect(&r_addr).expect("connect binary");
    let mut bin_replies = BufReader::new(&bin);
    // Ask the standby in the text dialect on even turns, in frames on
    // odd ones; both answer `ok query …` bytes.
    let mut query = |turn: usize, q: &str| -> String {
        if turn.is_multiple_of(2) {
            return text.ask(&format!("query {q}"));
        }
        let mut out = Vec::new();
        frame::encode_query_frame(&mut out, q);
        (&bin).write_all(&out).expect("send query frame");
        let (kind, payload) = frame::read_frame(&mut bin_replies).expect("query reply frame");
        assert_eq!(kind, frame::REP_OK, "binary query answers ok");
        format!("ok {}", String::from_utf8(payload).expect("utf-8 query reply"))
    };

    const WRITES: usize = 100;
    for i in 0..WRITES {
        if i == WRITES / 2 {
            // k0 is a student; the shipped redefinition quarantines it
            // and forbids any further specialization.
            assert_eq!(writer.ask("invoke St(k0)"), "ok");
            let rep = query(i, "STUDENT(SSN=\"k0\")");
            assert!(rep.starts_with("ok query count=1 "), "acked St(k0) on the standby: {rep}");
            let rep = writer.ask("redefine quarantine ∅* [PERSON]* ∅*");
            assert_eq!(rep, "ok epoch=1 residue=1", "one student in the residue: {rep}");
            let rep = writer.ask("invoke St(k1)");
            assert!(rep.starts_with("violation "), "the new inventory refuses St(k1): {rep}");
            for turn in [0, 1] {
                let rep = query(turn, "STUDENT(SSN=\"k1\")");
                assert_eq!(
                    rep, "ok query count=0 oids=",
                    "the refused St(k1) is not on the standby"
                );
            }
        }
        let key = format!("k{i}");
        assert_eq!(writer.ask(&format!("invoke Mk({key})")), "ok");
        let rep = query(i, &format!("PERSON(SSN=\"{key}\")"));
        assert!(rep.starts_with("ok query count=1 oids="), "standby missed acked {key}: {rep}");
    }

    assert_eq!(text.ask("shutdown"), "ok draining");
    standby.0.wait().expect("standby drains");
    assert_eq!(writer.ask("shutdown"), "ok draining");
    primary.0.wait().expect("primary drains");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite 4: fault-matrix rows for the shipping socket
// ---------------------------------------------------------------------

/// Fixture: an in-process primary with a replicator, a following
/// replica, and a serial driver posting `Mk(key)` creations. Returns
/// the keys that were *acked ok* plus the replica's recovered state.
struct FaultRow {
    acked: Vec<String>,
    replica_state: Vec<u8>,
    primary_refusals: usize,
}

/// Run one fault row: drive creations, injecting `faults` before the
/// middle op; on a refusal (ack-on-replica timeout — outcome unknown),
/// rearm and wait for the replica to re-register before continuing.
fn fault_row(tag: &str, policy: AckPolicy, faults: &[ShipFault]) -> FaultRow {
    let schema = parse_schema(REPL_SCHEMA).expect("schema");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("alphabet");
    let inv = Inventory::parse_init(&schema, &alphabet, REPL_INV).expect("inventory");
    let ts = parse_transactions(&schema, REPL_TX).expect("transactions");
    let mk = ts.get("Mk").expect("Mk");

    let dir_p = temp_dir(&format!("fault-p-{tag}"));
    let dir_r = temp_dir(&format!("fault-r-{tag}"));
    let wal_p = Arc::new(Mutex::new(Wal::open(&dir_p).expect("primary wal")));
    let wal_r = Arc::new(Mutex::new(Wal::open(&dir_r).expect("replica wal")));
    let metrics = Arc::new(AdmissionMetrics::new(1));

    let repl = Arc::new(
        Replicator::bind("127.0.0.1:0")
            .expect("bind replicator")
            .with_policy(policy)
            .with_ack_timeout(Duration::from_millis(400))
            .with_metrics(metrics.clone()),
    );
    let repl_addr = repl.local_addr().to_string();
    let ctl = Arc::new(ReplicaCtl::new(&repl_addr));
    let stop_accept = AtomicBool::new(false);
    let acked: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let refusals = Mutex::new(0usize);

    std::thread::scope(|scope| {
        let replica = scope.spawn(|| {
            let mut rm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
            let health = Arc::new(Health::new());
            ingress::serve(
                &mut rm,
                &IngressConfig {
                    queue_capacity: 64,
                    max_block: 8,
                    health: health.clone(),
                    wal: Some(DurableLog { log: wal_r.clone(), repl: None }),
                    ..Default::default()
                },
                |client| {
                    std::thread::scope(|ps| {
                        ps.spawn(|| puller(&repl_addr, &ctl, &wal_r, client, None));
                        wait_for(60, "the primary's stop signal", || ctl.stopped());
                    });
                },
            );
        });

        let mut pm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        let health = Arc::new(Health::new());
        ingress::serve(
            &mut pm,
            &IngressConfig {
                queue_capacity: 64,
                max_block: 8,
                health: health.clone(),
                wal: Some(DurableLog { log: wal_p.clone(), repl: Some(repl.clone()) }),
                ..Default::default()
            },
            |client| {
                std::thread::scope(|ps| {
                    ps.spawn(|| acceptor(&repl, client, &stop_accept));
                    wait_for(20, "the replica to register", || repl.live_replicas() >= 1);
                    for i in 0..16 {
                        if i == 8 {
                            for f in faults {
                                repl.inject(*f);
                            }
                        }
                        let key = format!("{tag}{i}");
                        match client.post(mk, Assignment::new(vec![Value::str(&key)])).wait() {
                            Ok(()) => acked.lock().unwrap().push(key),
                            Err(e) => {
                                // Unknown outcome: the record is locally
                                // durable but unconfirmed on the
                                // replica. The pipeline must be
                                // degraded; rearm and wait out the
                                // reconnect before continuing.
                                *refusals.lock().unwrap() += 1;
                                assert!(
                                    health.is_degraded(),
                                    "{tag}: a ship refusal degrades the primary ({e})"
                                );
                                health.rearm();
                                wait_for(30, "the replica to re-register", || {
                                    repl.live_replicas() >= 1
                                });
                            }
                        }
                    }
                    // Let the replica catch up to everything shipped,
                    // then stop it. (Under local-fsync acks never waited
                    // for the replica, so this is the only barrier.)
                    wait_for(30, "the replica to catch up", || {
                        ctl.stream_horizon() == repl.horizon()
                    });
                    ctl.request_stop();
                    stop_accept.store(true, Ordering::SeqCst);
                });
            },
        );
        repl.close();
        replica.join().expect("replica thread");
    });

    let (snap, tail) = Wal::load(&dir_r).expect("replica wal reloads");
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
            .expect("replica recovers");
    let out = FaultRow {
        acked: acked.into_inner().unwrap(),
        replica_state: recovered.snapshot().encode(),
        primary_refusals: refusals.into_inner().unwrap(),
    };
    // Presence check: every acked key exists in the replica's durable
    // image — the ack contract survives every fault in the row.
    let person = schema.class_id("PERSON").expect("class");
    let ssn = schema.attr_id("SSN").expect("attr");
    for key in &out.acked {
        let hits = recovered
            .db()
            .sat(person, &Condition::from_atoms([Atom::eq_const(ssn, Value::str(key))]));
        assert_eq!(hits.len(), 1, "{tag}: acked op {key} must be on the surviving replica");
    }
    let _ = std::fs::remove_dir_all(&dir_p);
    let _ = std::fs::remove_dir_all(&dir_r);
    out
}

/// `ack-on-replica-1` × {stall beyond the ack timeout, disconnect,
/// short write}: the stalled/severed op is refused (outcome unknown —
/// never rolled back, never falsely acked), the primary degrades until
/// rearmed, and every op that *was* acked is present on the replica.
#[test]
fn replica_ack_policy_fault_rows_never_ack_a_missing_op() {
    let stall =
        fault_row("rs", AckPolicy::ReplicaK(1), &[ShipFault::Stall(Duration::from_secs(1))]);
    assert!(stall.primary_refusals >= 1, "a stall past the timeout refuses at least one op");
    assert!(stall.acked.len() >= 8, "ops before and after the stall are acked");

    let cut = fault_row("rd", AckPolicy::ReplicaK(1), &[ShipFault::Disconnect]);
    assert!(cut.primary_refusals >= 1, "a severed stream refuses at least one op");
    assert!(cut.acked.len() >= 8, "the replica resyncs and acks resume");

    let torn = fault_row("rw", AckPolicy::ReplicaK(1), &[ShipFault::ShortWrite]);
    assert!(torn.primary_refusals >= 1, "a torn ship refuses at least one op");
    assert!(torn.acked.len() >= 8, "the replica truncates the torn tail and resyncs");
}

/// `ack-on-local-fsync` × the same faults: acks never wait on the
/// replica, so every op acks ok and the primary never degrades; the
/// replica reconnects behind the scenes and converges to the full
/// history (checked both as presence of every acked op and as
/// byte-identity with a full-script oracle).
#[test]
fn local_fsync_policy_rides_out_ship_faults_without_refusals() {
    for (tag, fault) in [
        ("ls", ShipFault::Stall(Duration::from_secs(1))),
        ("ld", ShipFault::Disconnect),
        ("lw", ShipFault::ShortWrite),
    ] {
        let row = fault_row(tag, AckPolicy::LocalFsync, &[fault]);
        assert_eq!(row.primary_refusals, 0, "{tag}: local-fsync never refuses on ship faults");
        assert_eq!(row.acked.len(), 16, "{tag}: every op acks");

        let schema = parse_schema(REPL_SCHEMA).unwrap();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let inv = Inventory::parse_init(&schema, &alphabet, REPL_INV).unwrap();
        let ts = parse_transactions(&schema, REPL_TX).unwrap();
        let mut oracle = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        for key in &row.acked {
            oracle
                .try_apply(ts.get("Mk").unwrap(), &Assignment::new(vec![Value::str(key)]))
                .expect("creations conform");
        }
        assert_eq!(
            row.replica_state,
            oracle.snapshot().encode(),
            "{tag}: the converged replica is byte-identical to the acked history"
        );
    }
}

// ---------------------------------------------------------------------
// A standby keeps its own checkpoint chain
// ---------------------------------------------------------------------

/// Stops a replication pair when dropped: the standby's pull loop and
/// the primary's acceptor.
struct StopOnDrop<'a>(&'a ReplicaCtl, &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_stop();
        self.1.store(true, Ordering::SeqCst);
    }
}

/// A standby folds replicated records as admin ops and admits no
/// blocks; the byte budget covers it all the same. Fed many budgets of
/// replicated log under `ack-on-replica-1`, it writes increments of its
/// own while it follows, its live `wal.log` never holds more than the
/// budget plus one shipped batch, and its durable image still recovers
/// byte-identically to the acked history.
#[test]
fn standby_checkpoints_by_log_bytes_and_recovers_byte_identically() {
    const BUDGET: u64 = 1024;
    const OPS: usize = 300;
    let schema = parse_schema(REPL_SCHEMA).expect("schema");
    let alphabet = RoleAlphabet::new(&schema, 0).expect("alphabet");
    let inv = Inventory::parse_init(&schema, &alphabet, REPL_INV).expect("inventory");
    let ts = parse_transactions(&schema, REPL_TX).expect("transactions");
    let mk = ts.get("Mk").expect("Mk");
    let key = |i: usize| Assignment::new(vec![Value::str(&format!("s{i}"))]);

    let dir_p = temp_dir("standby-ckpt-p");
    let dir_r = temp_dir("standby-ckpt-r");
    let wal_p = Arc::new(Mutex::new(Wal::open(&dir_p).expect("primary wal")));
    let wal_r = Arc::new(Mutex::new(Wal::open(&dir_r).expect("standby wal")));
    let repl = Arc::new(
        Replicator::bind("127.0.0.1:0")
            .expect("bind replicator")
            .with_policy(AckPolicy::ReplicaK(1))
            .with_ack_timeout(Duration::from_secs(20)),
    );
    let repl_addr = repl.local_addr().to_string();
    let ctl = Arc::new(ReplicaCtl::new(&repl_addr));
    let stop_accept = AtomicBool::new(false);
    let increments = || {
        std::fs::read_dir(&dir_r)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("delta-"))
            .count()
    };
    // A seal renames the live log away for a moment: count that as 0.
    let live_len = || std::fs::metadata(dir_r.join("wal.log")).map_or(0, |m| m.len());

    let (following, standby_final) = std::thread::scope(|scope| {
        let standby = scope.spawn(|| {
            let mut rm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
            let health = Arc::new(Health::new());
            let ((), stats) = ingress::serve(
                &mut rm,
                &IngressConfig {
                    health: health.clone(),
                    wal: Some(DurableLog { log: wal_r.clone(), repl: None }),
                    checkpoint_bytes: BUDGET as usize,
                    ..Default::default()
                },
                |client| {
                    std::thread::scope(|ps| {
                        ps.spawn(|| puller(&repl_addr, &ctl, &wal_r, client, None));
                        wait_for(60, "the primary's stop signal", || ctl.stopped());
                    });
                },
            );
            assert!(!health.is_degraded(), "standby degraded: {}", health.reason());
            assert!(health.checkpoint().failed.is_none(), "the standby's checkpoints land");
            stats.final_checkpoint
        });

        let mut pm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        let (following, _) = ingress::serve(
            &mut pm,
            &IngressConfig {
                wal: Some(DurableLog { log: wal_p.clone(), repl: Some(repl.clone()) }),
                ..Default::default()
            },
            |client| {
                std::thread::scope(|ps| {
                    // Stop both sides on the way out, a failed assertion
                    // included, or the scope would wait on the acceptor.
                    let _stop = StopOnDrop(&ctl, &stop_accept);
                    ps.spawn(|| acceptor(&repl, client, &stop_accept));
                    wait_for(20, "the standby to register", || repl.live_replicas() >= 1);
                    let mut max_batch = 0;
                    for i in 0..OPS {
                        let shipped = repl.horizon();
                        client.post(mk, key(i)).wait().expect("creations conform");
                        // Acked under replica-1: the standby folded the
                        // batch and made it durable.
                        max_batch = max_batch.max(repl.horizon() - shipped);
                        let live = live_len();
                        assert!(
                            live < BUDGET + max_batch,
                            "op {i}: the standby's wal.log holds {live} B, over the budget \
                             {BUDGET} plus one batch of {max_batch}"
                        );
                    }
                    assert!(repl.horizon() > 8 * BUDGET, "the stream spans many budgets");
                    increments()
                })
            },
        );
        repl.close();
        (following, standby.join().expect("standby thread"))
    });
    assert!(following >= 4, "the standby wrote {following} increments while it followed");
    assert!(standby_final, "the standby wrote its final checkpoint at drain");

    let mut oracle = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    for i in 0..OPS {
        oracle.try_apply(mk, &key(i)).expect("creations conform");
    }
    let (snap, tail) = Wal::load(&dir_r).expect("standby wal reloads");
    let recovered =
        ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, tail)
            .expect("standby recovers");
    assert_eq!(
        recovered.snapshot().encode(),
        oracle.snapshot().encode(),
        "the standby's chain and tail recover the acked history"
    );
    let _ = std::fs::remove_dir_all(&dir_p);
    let _ = std::fs::remove_dir_all(&dir_r);
}

// ---------------------------------------------------------------------
// Satellite 5 (docs): the replication stream section is normative
// ---------------------------------------------------------------------

/// Lock `docs/PROTOCOL.md` § Replication stream to the implementation,
/// the same way the binary framing section is locked: every normative
/// claim below is asserted against the real constants and wire shapes,
/// and the document must state each one.
#[test]
fn replication_stream_spec_matches_the_implementation() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    assert!(doc.contains("## Replication stream"), "the section exists");

    // The claims the document must make, verified against the code.
    assert_eq!(HELLO, b"MGRPL1");
    assert_eq!(PREAMBLE, b"MGRPS1");
    for claim in [
        "`MGRPL1`",
        "`MGRPS1`",
        "start horizon",
        "u64",
        "little-endian",
        "`[len u32-LE][crc u32-LE][payload]`",
        "cumulative",
        "ack-on-local-fsync",
        "ack-on-replica-K",
        "never rolls back",
        "fresh snapshot",
    ] {
        assert!(doc.contains(claim), "PROTOCOL.md must state the normative claim {claim:?}");
    }

    // And the log framing the section points at really is the shipped
    // framing: a shipped stream decodes with the WAL's stream decoder.
    let (_, _, _, stream, _) = shipped_stream();
    let len0 = u32::from_le_bytes(stream[0..4].try_into().unwrap()) as usize;
    assert!(stream.len() >= 8 + len0, "first frame: [len][crc][payload]");
    let (records, consumed) = decode_stream(&stream).expect("shipped bytes are log framing");
    assert_eq!(consumed, stream.len());
    assert!(!records.is_empty());
}
