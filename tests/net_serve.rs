//! Server lifecycle tests for the wire front end (`core::enforce::net`,
//! `migctl serve`/`client`):
//!
//! * concurrent clients with interleaved violations get correct
//!   per-connection replies;
//! * graceful drain answers every in-flight ticket before the socket
//!   closes;
//! * a kill → `--recover` → re-serve round trip is byte-identical
//!   (driven through the real `migctl` binary over a real socket);
//! * the worked session in `docs/PROTOCOL.md` is executed verbatim —
//!   the protocol document cannot drift from the server.

use migratory::core::enforce::net::{self, ServerConfig};
use migratory::core::enforce::{ResiduePolicy, ShardedMonitor, Wal};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment, TransactionSchema};
use migratory::model::text::parse_schema;
use migratory::model::Schema;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// A synchronous wire client: one reply read per request written.
struct Client {
    writer: TcpStream,
    replies: std::io::Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: impl std::net::ToSocketAddrs) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        Client { writer: conn.try_clone().expect("clone"), replies: BufReader::new(conn).lines() }
    }

    fn send(&mut self, req: &str) {
        writeln!(self.writer, "{req}").expect("send");
    }

    fn recv(&mut self) -> String {
        self.replies.next().expect("a reply per request").expect("read reply")
    }

    fn ask(&mut self, req: &str) -> String {
        self.send(req);
        self.recv()
    }

    /// Read every remaining line until the server closes the socket.
    fn drain_to_eof(self) -> Vec<String> {
        self.replies.map(|l| l.expect("read reply")).collect()
    }
}

/// The shared secret of `auth_gate_refuses_until_handshake`'s server.
const TOKEN: &str = "sesame";

/// Asks the server at this address to shut down when dropped, so a
/// failing assertion cannot leave an in-process server running and its
/// thread scope waiting for it forever. It authenticates first (a no-op
/// on a server without a token) and retries while the server refuses
/// it at its connection cap; a server that is gone or draining ends it.
struct ShutdownOnDrop<A: std::net::ToSocketAddrs>(A);

impl<A: std::net::ToSocketAddrs> Drop for ShutdownOnDrop<A> {
    fn drop(&mut self) {
        for _ in 0..100 {
            let Ok(conn) = TcpStream::connect(&self.0) else { return };
            let _ = conn.set_read_timeout(Some(std::time::Duration::from_secs(5)));
            let _ = (&conn).write_all(format!("auth {TOKEN}\nshutdown\n").as_bytes());
            let mut reply = String::new();
            let _ = BufReader::new(conn).read_line(&mut reply);
            if !reply.starts_with("error server at connection capacity") {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

/// Three independent root classes (3 components → 3 shards/lanes).
fn multi_schema() -> Schema {
    parse_schema(
        r"
        schema Fleet {
          class R0 { K0 }
          class S0 isa R0 { }
          class R1 { K1 }
          class S1 isa R1 { }
          class R2 { K2 }
          class S2 isa R2 { }
        }",
    )
    .expect("schema parses")
}

fn multi_transactions(s: &Schema) -> TransactionSchema {
    parse_transactions(
        s,
        r"
        transaction Mk0(x) { create(R0, { K0 = x }); }
        transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
        transaction Mk1(x) { create(R1, { K1 = x }); }
        transaction Mk2(x) { create(R2, { K2 = x }); }
    ",
    )
    .expect("transactions validate")
}

// ---------------------------------------------------------------------
// Concurrent clients with interleaved violations
// ---------------------------------------------------------------------

/// Three concurrent connections — two streams of conforming creations
/// in different components, one stream of guaranteed violators into the
/// first component's lane — each synchronously checking every reply on
/// its own connection. Violations interleave with admissions inside
/// shared blocks, and no reply ever lands on the wrong connection.
#[test]
fn concurrent_clients_get_correct_per_connection_replies() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    // Specialization is forbidden: every Up0 violates, deterministically.
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const PER: usize = 120;
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        // The protocol promises no ordering *between* connections, so
        // the violating client must not start until the seed object's
        // create is acknowledged — an `Up0` racing ahead of `Mk0(seed)`
        // would match nothing and be a legitimate no-op `ok`.
        let seeded = &std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|clients| {
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                assert_eq!(c.ask("invoke Mk0(seed)"), "ok", "the violators' target object");
                seeded.store(true, std::sync::atomic::Ordering::SeqCst);
                for i in 0..PER {
                    assert_eq!(c.ask(&format!("invoke Mk0(a{i})")), "ok", "conforming create");
                }
            });
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                for i in 0..PER {
                    assert_eq!(c.ask(&format!("invoke Mk1(b{i})")), "ok", "other component");
                }
            });
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                while !seeded.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                for _ in 0..PER / 2 {
                    let reply = c.ask("invoke Up0(seed)");
                    assert!(
                        reply.starts_with("violation "),
                        "specialization must be rejected: {reply}"
                    );
                    assert!(reply.contains("[S0]"), "diagnostic names the role set: {reply}");
                }
            });
        });
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.admitted, 1 + 2 * PER);
    assert_eq!(stats.rejected, PER / 2);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.ingress.admitted, 1 + 2 * PER);
    assert_eq!(stats.ingress.rejected, PER / 2);
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

/// A client pipelines a whole burst and a `shutdown` in one write —
/// every in-flight invoke must still be answered, in order, before the
/// server closes the socket.
#[test]
fn graceful_drain_answers_all_inflight_tickets() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const BURST: usize = 500;
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // A tiny block size so the burst spans many admission
            // blocks and is genuinely in flight at shutdown.
            let config = ServerConfig {
                ingress: migratory::core::enforce::IngressConfig {
                    queue_capacity: 64,
                    max_block: 8,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..BURST {
            burst.push_str(&format!("invoke Mk0(x{i})\n"));
        }
        burst.push_str("shutdown\n");
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        // Every request answered before EOF, in order: BURST oks, then
        // the shutdown acknowledgement, then nothing.
        assert_eq!(replies.len(), BURST + 1, "every in-flight ticket answered before close");
        assert!(replies[..BURST].iter().all(|r| r == "ok"), "all creations admitted");
        assert_eq!(replies[BURST], "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.admitted, BURST);
    assert_eq!(stats.ingress.admitted, BURST, "the monitor committed them all");
}

/// A `query` pipelined behind `invoke`s on the same connection, all in
/// one write, counts every one of them: an earlier request's effect is
/// visible to a later request of the same connection
/// (`docs/PROTOCOL.md` § Transport), in either dialect.
#[test]
fn pipelined_query_sees_every_earlier_invoke_of_its_connection() {
    use migratory::core::enforce::net::frame;
    use migratory::model::Value;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const N: usize = 200;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let want = format!("query count={N} oids=");

        let mut c = Client::connect(addr);
        let mut burst: String = (0..N).map(|i| format!("invoke Mk0(t{i})\n")).collect();
        burst.push_str("query R0\n");
        c.writer.write_all(burst.as_bytes()).unwrap();
        for _ in 0..N {
            assert_eq!(c.recv(), "ok");
        }
        let reply = c.recv();
        assert!(reply.starts_with(&format!("ok {want}")), "text: {reply}");

        let mut wire = Vec::new();
        for i in 0..N {
            frame::encode_invoke_frame(&mut wire, "Mk1", &[Value::str(&format!("b{i}"))]);
        }
        frame::encode_query_frame(&mut wire, "R1");
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&wire).unwrap();
        for _ in 0..N {
            assert_eq!(frame::read_frame(&mut conn).unwrap(), (frame::REP_OK, Vec::new()));
        }
        let (kind, payload) = frame::read_frame(&mut conn).unwrap();
        let reply = String::from_utf8(payload).unwrap();
        assert!(kind == frame::REP_OK && reply.starts_with(&want), "binary: {kind:#04x} {reply}");

        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// The threads of a durable server carry names, so per-thread CPU in
/// `/proc/<pid>/task/*/stat` can be told apart by `comm`.
#[cfg(target_os = "linux")]
#[test]
fn durable_server_threads_are_named() {
    use migratory::core::enforce::Snapshotter;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let dir = std::env::temp_dir().join(format!("migratory-net-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = std::sync::Arc::new(std::sync::Mutex::new(Wal::open(&dir).unwrap()));
    let snapshotter = Snapshotter::spawn();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let names = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig {
                ingress: migratory::core::enforce::IngressConfig {
                    wal: Some(migratory::core::enforce::DurableLog {
                        log: wal.clone(),
                        repl: None,
                    }),
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        // An acked op has passed through the admission worker and the
        // committer, so both are running.
        assert_eq!(c.ask("invoke Mk0(x0)"), "ok");
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_owned())
            .collect();
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
        names
    });
    snapshotter.finish().unwrap();
    for want in ["mig-admit", "mig-commit", "mig-snapshot", "mig-event-1"] {
        assert!(names.iter().any(|n| n == want), "no thread named {want} in {names:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// kill → --recover → re-serve, through the real binary
// ---------------------------------------------------------------------

const UNI_SCHEMA: &str = r#"
schema Uni {
  class PERSON { SSN, Name }
  class STUDENT isa PERSON { Major }
}
"#;

const UNI_TX: &str = r#"
transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
transaction St(x) { specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS" }); }
transaction Rm(x) { delete(PERSON, { SSN = x }); }
"#;

const UNI_INV: &str = "∅* [PERSON]* [STUDENT]* ∅*";

/// Spawn `migctl serve` on an ephemeral port and return (child, addr).
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (std::process::Child, String) {
    spawn_serve_with(dir, (UNI_SCHEMA, UNI_TX, UNI_INV), extra)
}

/// [`spawn_serve`] over the given (schema, transactions, inventory).
fn spawn_serve_with(
    dir: &std::path::Path,
    (schema_src, tx_src, inv): (&str, &str, &str),
    extra: &[&str],
) -> (std::process::Child, String) {
    let schema = dir.join("schema.mig");
    let tx = dir.join("transactions.sl");
    std::fs::write(&schema, schema_src).unwrap();
    std::fs::write(&tx, tx_src).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_migctl"))
        .arg("serve")
        .arg(&schema)
        .arg(&tx)
        .args(["--inventory", inv, "--addr", "127.0.0.1:0", "--shards", "2"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn migctl serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("serve prints its address").expect("read stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().expect("an address").to_owned();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// What the acknowledged script must have produced: a fresh monitor fed
/// exactly the acked applications, in order.
fn expected_state(script: &[(&str, &str)]) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let ts = parse_transactions(&schema, UNI_TX).unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
    for (name, key) in script {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked ops conform");
    }
    m.snapshot().encode()
}

/// Fold the WAL directory back into a monitor and return its canonical
/// state bytes.
fn recovered_state(dir: &std::path::Path) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let (snap, tail) = Wal::load(dir).expect("load wal");
    ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 2, snap, tail)
        .expect("recover")
        .snapshot()
        .encode()
}

/// SIGKILL a serving `migctl` mid-stream, `--recover` into a second
/// server, keep going, drain gracefully — after every stage the durable
/// state must be byte-identical to a fresh monitor fed exactly the
/// acknowledged applications.
#[test]
fn kill_recover_reserve_roundtrip_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("migratory-net-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");

    // Stage 1: serve fresh, ack 40 creations + 8 specializations, kill
    // without any shutdown courtesy.
    let mut script: Vec<(&str, String)> = Vec::new();
    let (mut child, addr) =
        spawn_serve(&dir, &["--durable", wal_dir.to_str().unwrap(), "--checkpoint-every", "4"]);
    {
        let mut c = Client::connect(&*addr);
        for i in 0..40 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        for i in 0..8 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke St({key})")), "ok");
            script.push(("St", key));
        }
    }
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    // Everything acknowledged before the kill is durable — and nothing
    // else: the folded chain + tail equals a monitor fed exactly the
    // acked script.
    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "stage 1: recovered state must be byte-identical to the acked history"
    );

    // Stage 2: re-serve with --recover, keep working, drain gracefully.
    let (mut child, addr) = spawn_serve(
        &dir,
        &["--durable", wal_dir.to_str().unwrap(), "--recover", "--checkpoint-every", "4"],
    );
    {
        let mut c = Client::connect(&*addr);
        for i in 40..52 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        // The pre-crash history constrains the resumed run: o0 is a
        // STUDENT, so deleting and re-creating under [PERSON]* after
        // [STUDENT]* would violate — the monitor remembers.
        let reply = c.ask("invoke Rm(k0)");
        assert_eq!(reply, "ok");
        script.push(("Rm", "k0".to_owned()));
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "graceful shutdown exits cleanly");

    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "stage 2: the re-served state must be byte-identical to the full acked history"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Connection supervision: idle timeout, quotas, cap, auth
// ---------------------------------------------------------------------

/// A stalled peer is reaped by the idle timeout with one error reply,
/// while a concurrent well-behaved connection's FIFO is undisturbed.
#[test]
fn idle_timeout_reaps_stalled_peer_without_disturbing_others() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig {
                idle_timeout: Some(std::time::Duration::from_millis(150)),
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let stalled = Client::connect(addr);
        let mut active = Client::connect(addr);
        // The active connection works, in order, for well past the idle
        // timeout — each of its requests resets its own clock.
        for i in 0..30 {
            assert_eq!(active.ask(&format!("invoke Mk0(a{i})")), "ok", "survivor keeps FIFO");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let replies = stalled.drain_to_eof();
        assert_eq!(replies.len(), 1, "one reaping error, then EOF: {replies:?}");
        assert!(
            replies[0].starts_with("error idle timeout after"),
            "the peer is told why: {}",
            replies[0]
        );
        assert_eq!(active.ask("invoke Mk0(tail)"), "ok", "survivor unaffected by the reap");
        assert_eq!(active.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.admitted, 31);
    assert_eq!(stats.errors, 1, "the reap is the only error");
}

/// A stalled *binary-dialect* peer is reaped in its own dialect: the
/// unsolicited idle-timeout error arrives as a decodable error frame,
/// not a text line that would fail the client's magic-byte check.
#[test]
fn idle_timeout_reaps_binary_peer_in_binary_dialect() {
    use migratory::core::enforce::net::frame;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig {
                idle_timeout: Some(std::time::Duration::from_millis(150)),
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let stalled = TcpStream::connect(addr).unwrap();
        let mut req = Vec::new();
        frame::encode_invoke_frame(&mut req, "Mk0", &[migratory::model::Value::str("bin")]);
        (&stalled).write_all(&req).unwrap();
        let mut reader = BufReader::new(stalled);
        let (kind, _) = frame::read_frame(&mut reader).expect("binary ok");
        assert_eq!(kind, frame::REP_OK);
        // Stall past the idle timeout: the reap must speak frames too.
        let (kind, payload) = frame::read_frame(&mut reader).expect("reap arrives as a frame");
        assert_eq!(kind, frame::REP_ERROR);
        assert!(
            String::from_utf8_lossy(&payload).starts_with("idle timeout after"),
            "the peer is told why: {payload:?}"
        );
        let mut ctl = Client::connect(addr);
        assert_eq!(ctl.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
}

/// A peer that exceeds its request quota mid-pipeline gets every
/// already-read request answered in order, then one quota error, then
/// EOF — and a fresh connection starts with a fresh quota.
#[test]
fn op_quota_tears_down_peer_with_inflight_answered() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { max_conn_ops: 3, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..6 {
            burst.push_str(&format!("invoke Mk0(q{i})\n"));
        }
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 4, "3 in-flight answers + the quota error: {replies:?}");
        assert!(replies[..3].iter().all(|r| r == "ok"), "in-flight tickets answered: {replies:?}");
        assert_eq!(replies[3], "error connection request quota exceeded (3 requests); closing");
        let mut c2 = Client::connect(addr);
        assert_eq!(c2.ask("invoke Mk0(fresh)"), "ok", "quotas are per-connection");
        assert_eq!(c2.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// Same teardown contract for the byte quota: the line that crosses the
/// budget is refused, everything read before it was answered.
#[test]
fn byte_quota_tears_down_peer_with_inflight_answered() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // Each "invoke Mk0(bN)\n" line is 15 bytes: 4 fit in 64,
            // the 5th crosses the budget.
            let config = ServerConfig { max_conn_bytes: 64, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..6 {
            burst.push_str(&format!("invoke Mk0(b{i})\n"));
        }
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 5, "4 in-flight answers + the quota error: {replies:?}");
        assert!(replies[..4].iter().all(|r| r == "ok"), "in-flight tickets answered: {replies:?}");
        assert_eq!(replies[4], "error connection byte quota exceeded (64 bytes); closing");
        let mut c2 = Client::connect(addr);
        assert_eq!(c2.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// Excess sockets beyond the connection cap are refused at accept with
/// one error line; the live connection is untouched.
#[test]
fn connection_cap_refuses_excess_sockets() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { max_connections: 1, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut keeper = Client::connect(addr);
        // A round trip guarantees the keeper is registered before the
        // excess socket races it to the accept loop.
        assert_eq!(keeper.ask("ping"), "ok pong");
        let extra = Client::connect(addr);
        let replies = extra.drain_to_eof();
        assert_eq!(replies, vec!["error server at connection capacity (1)".to_owned()]);
        assert_eq!(keeper.ask("invoke Mk0(kept)"), "ok", "the live connection is untouched");
        assert_eq!(keeper.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// With a shared secret configured, nothing but the correct handshake
/// is served — wrong verb and wrong token both disconnect after one
/// uninformative error; the right token unlocks every verb.
#[test]
fn auth_gate_refuses_until_handshake() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { auth: Some(TOKEN.to_owned()), ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        c.send("invoke Mk0(x)");
        let replies = c.drain_to_eof();
        assert_eq!(
            replies,
            vec!["error authentication required (send `auth <token>` first)".to_owned()],
            "an unauthed verb is refused and disconnected"
        );
        let mut c = Client::connect(addr);
        c.send("auth wrong");
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(
            replies[0].starts_with("error authentication required"),
            "a wrong token gets the same uninformative refusal: {}",
            replies[0]
        );
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("auth sesame"), "ok authed");
        assert_eq!(c.ask("ping"), "ok pong");
        assert_eq!(c.ask("invoke Mk0(in)"), "ok");
        assert_eq!(c.ask("auth sesame"), "ok authed", "re-auth is a harmless no-op");
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

// ---------------------------------------------------------------------
// Degraded read-only mode over the wire, through the real binary
// ---------------------------------------------------------------------

/// Persistent write-ahead failure mid-stream degrades the server to
/// read-only over the wire: acked work stays durable, later writes are
/// refused loudly, `stats` reports it, `rearm` clears it, and recovery
/// is byte-identical to exactly the acked prefix.
#[test]
fn persistent_append_failure_degrades_to_read_only() {
    let dir = std::env::temp_dir().join(format!("migratory-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");
    let (mut child, addr) = spawn_serve(
        &dir,
        &[
            "--durable",
            wal_dir.to_str().unwrap(),
            "--max-block",
            "1", // one op per block: WAL appends are deterministic
            "--retries",
            "1",
            "--retry-backoff-ms",
            "1",
            "--inject",
            "append@4:persistent",
        ],
    );
    let mut script: Vec<(&str, String)> = Vec::new();
    {
        let mut c = Client::connect(&*addr);
        for i in 0..3 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        // Append #4 fails and so does its one retry: the server refuses
        // rather than ack what never reached the log.
        let reply = c.ask("invoke Mk(k3)");
        assert!(reply.starts_with("error degraded (read-only):"), "{reply}");
        let reply = c.ask("invoke Mk(k4)");
        assert!(reply.starts_with("error degraded (read-only):"), "refused fast: {reply}");
        let st = c.ask("stats");
        assert!(st.contains("degraded=yes"), "stats surface the state: {st}");
        assert_eq!(c.ask("ping"), "ok pong", "read verbs still answer");
        assert_eq!(c.ask("rearm"), "ok armed");
        let st = c.ask("stats");
        assert!(st.contains("degraded=no"), "re-armed: {st}");
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "a degraded run still drains cleanly");
    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "the degraded refusals left no trace — only acked ops are durable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Online redefinition under live traffic, through the real binary
// ---------------------------------------------------------------------

/// The tightened inventory a mid-stream `redefine` swaps in: students
/// are no longer admissible, so every pre-existing STUDENT cohort is
/// residue.
const UNI_NEXT_INV: &str = "∅* [PERSON]* ∅*";

/// What the acked script must have produced when a redefinition sits
/// between its two halves: a fresh monitor fed the pre-redefine ops,
/// redefined under quarantine, then fed the post-redefine ops.
fn expected_redefined_state(pre: &[(&str, &str)], post: &[(&str, &str)]) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let next = Inventory::parse_init(&schema, &alphabet, UNI_NEXT_INV).unwrap();
    let ts = parse_transactions(&schema, UNI_TX).unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
    for (name, key) in pre {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked pre-redefine ops conform");
    }
    let out = m.redefine(&next, ResiduePolicy::Quarantine).expect("the oracle redefinition admits");
    assert_eq!((out.epoch, out.residue, out.quarantined), (1, 2, 2), "two students are residue");
    for (name, key) in post {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked post-redefine ops conform");
    }
    m.snapshot().encode()
}

/// The tentpole end to end, through the real binary: serve durably,
/// push mixed traffic, `redefine` mid-stream (residue quoted on the
/// wire), keep going under the new constraint, SIGKILL, `--recover`
/// into a second server that resumes at the swapped epoch — with the
/// post-upgrade violation stamped by the new automaton — and after a
/// graceful drain the durable state is byte-identical to an oracle that
/// replayed exactly the acked ops around an in-memory redefinition.
#[test]
fn redefine_under_live_traffic_survives_kill_and_recover() {
    let dir = std::env::temp_dir().join(format!("migratory-net-redefine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");

    // Stage 1: serve fresh; six persons, two of whom become students
    // (conforming under the base inventory), then tighten the
    // inventory online and keep working under epoch 1.
    let mut pre: Vec<(&str, String)> = Vec::new();
    let mut post: Vec<(&str, String)> = Vec::new();
    let (mut child, addr) =
        spawn_serve(&dir, &["--durable", wal_dir.to_str().unwrap(), "--checkpoint-every", "4"]);
    {
        let mut c = Client::connect(&*addr);
        for i in 0..6 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            pre.push(("Mk", key));
        }
        for i in 0..2 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke St({key})")), "ok");
            pre.push(("St", key));
        }
        // The barrier op itself: both student cohorts are residue and,
        // under quarantine, exempt from further checking.
        assert_eq!(c.ask(&format!("redefine quarantine {UNI_NEXT_INV}")), "ok epoch=1 residue=2");
        // Specializing a plain person now violates — and the diagnostic
        // is stamped with the post-swap epoch.
        let reply = c.ask("invoke St(k2)");
        assert!(reply.starts_with("violation "), "students are outlawed at epoch 1: {reply}");
        assert!(reply.contains("[STUDENT]"), "diagnostic names the offending role: {reply}");
        assert!(reply.ends_with("[epoch 1]"), "diagnostic quotes the new automaton: {reply}");
        // Conforming traffic keeps flowing under the new constraint.
        for i in 6..8 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            post.push(("Mk", key));
        }
        let st = c.ask("stats");
        assert!(
            st.ends_with("epoch=1 redefines=1 quarantined=2"),
            "stats surface the evolution state: {st}"
        );
    }
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    // The redefinition was logged write-ahead: folding the log into a
    // monitor seeded with the *base* inventory replays the swap and is
    // byte-identical to the oracle.
    let pre_refs: Vec<(&str, &str)> = pre.iter().map(|(n, k)| (*n, k.as_str())).collect();
    let post_refs: Vec<(&str, &str)> = post.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_redefined_state(&pre_refs, &post_refs),
        "stage 1: the killed server's log replays the redefinition byte-identically"
    );

    // Stage 2: `--recover` hands the *base* inventory to a second
    // server; the log brings it to epoch 1, where the new constraint
    // keeps being enforced.
    let (mut child, addr) = spawn_serve(
        &dir,
        &["--durable", wal_dir.to_str().unwrap(), "--recover", "--checkpoint-every", "4"],
    );
    {
        let mut c = Client::connect(&*addr);
        let st = c.ask("stats");
        assert!(
            st.ends_with("epoch=1 redefines=1 quarantined=2"),
            "the recovered server resumes at the swapped epoch: {st}"
        );
        let reply = c.ask("invoke St(k3)");
        assert!(reply.starts_with("violation "), "epoch 1 survived the crash: {reply}");
        assert!(reply.ends_with("[epoch 1]"), "post-recovery diagnostics quote epoch 1: {reply}");
        let key = "k8".to_owned();
        assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
        post.push(("Mk", key));
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "graceful shutdown exits cleanly");

    let post_refs: Vec<(&str, &str)> = post.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_redefined_state(&pre_refs, &post_refs),
        "stage 2: the full acked history around the redefinition is byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// docs/PROTOCOL.md conformance
// ---------------------------------------------------------------------

/// Extract the first fenced code block labelled `lang` from markdown.
fn fenced_block(doc: &str, lang: &str) -> String {
    let fence = format!("```{lang}\n");
    let start =
        doc.find(&fence).unwrap_or_else(|| panic!("docs/PROTOCOL.md has no ```{lang} block"))
            + fence.len();
    let end = doc[start..].find("```").expect("unterminated fence") + start;
    doc[start..end].to_owned()
}

/// Every constant § Binary framing of `docs/PROTOCOL.md` states —
/// magic, header size, payload cap, request and reply kinds, the
/// oversized-frame refusal — is derived here from
/// `enforce::net::frame` itself, so the normative spec cannot drift
/// from the codec.
#[test]
fn binary_framing_spec_matches_the_implementation() {
    use migratory::core::enforce::net::frame;
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let start = doc.find("## Binary framing").expect("doc has a Binary framing section");
    let spec = &doc[start..];
    let spec = &spec[..spec[3..].find("\n## ").map_or(spec.len(), |i| i + 3)];
    let claims = [
        format!("always {:#04X}", frame::MAGIC),
        format!("{}-byte header", frame::HEADER_LEN),
        format!("capped at **{}**", frame::MAX_PAYLOAD),
        format!("exceeds {} bytes", frame::MAX_PAYLOAD),
        format!("**`{:#04x}` (invoke)**", frame::REQ_INVOKE),
        format!("**`{:#04x}` (redefine)**", frame::REQ_REDEFINE),
        format!("**`{:#04x}` (query)**", frame::REQ_QUERY),
        format!("**`{:#04x}`** = `ok`", frame::REP_OK),
        format!("**`{:#04x}`** = `violation`", frame::REP_VIOLATION),
        format!("**`{:#04x}`** = `error`", frame::REP_ERROR),
    ];
    for claim in &claims {
        assert!(
            spec.contains(claim.as_str()),
            "docs/PROTOCOL.md § Binary framing drifted from enforce::net::frame: \
             expected the section to state `{claim}`"
        );
    }
}

/// Execute the worked session of `docs/PROTOCOL.md` verbatim: the
/// schema, transactions, inventory and every `>`/`<` exchange come from
/// the document, so the spec cannot drift from the server.
#[test]
fn protocol_document_session_is_live() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let schema = parse_schema(&fenced_block(&doc, "schema")).expect("doc schema parses");
    let ts = parse_transactions(&schema, &fenced_block(&doc, "transactions"))
        .expect("doc transactions validate");
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, fenced_block(&doc, "inventory").trim())
        .expect("doc inventory parses");
    let session = fenced_block(&doc, "session");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        let _stop = ShutdownOnDrop(addr);
        let mut c = Client::connect(addr);
        let mut pending_request: Option<String> = None;
        for line in session.lines() {
            if let Some(req) = line.strip_prefix("> ") {
                assert!(pending_request.is_none(), "two requests without a reply: {req}");
                c.send(req);
                pending_request = Some(req.to_owned());
            } else if let Some(expected) = line.strip_prefix("< ") {
                let req = pending_request.take().expect("a reply without a request");
                let actual = c.recv();
                assert_eq!(actual, expected, "reply to `{req}` drifted from docs/PROTOCOL.md");
            }
        }
        assert!(pending_request.is_none(), "session ends with an unanswered request");
        // `quit` ended the session's connection; stop the server.
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

// ---------------------------------------------------------------------
// Binary replies past the frame cap, through the real binary
// ---------------------------------------------------------------------

/// Kills the served `migctl` when dropped, so a failing test leaves no
/// server behind.
struct Served(std::process::Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Connect with a read timeout: a server that stopped answering fails
/// the test instead of hanging it.
fn connect_bounded(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    conn
}

/// Ask `shutdown` and wait for the served process to exit cleanly.
fn shut_down(mut served: Served, addr: &str) {
    let conn = connect_bounded(addr);
    let mut c = Client { writer: conn.try_clone().unwrap(), replies: BufReader::new(conn).lines() };
    assert_eq!(c.ask("shutdown"), "ok draining");
    assert!(served.0.wait().expect("reap").success(), "the server drains and exits 0");
}

/// An invoke frame under the request cap whose error reply is over it:
/// the transaction name is unknown and 65,525 bytes long, and the reply
/// quotes it. The reply is a decodable error frame shortened to the
/// cap, and the server goes on answering on this connection and new
/// ones.
#[test]
fn over_cap_error_reply_is_shortened_and_the_server_keeps_serving() {
    use migratory::core::enforce::net::frame;
    use std::io::Read;
    let dir = std::env::temp_dir().join(format!("migratory-net-overcap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (child, addr) = spawn_serve(&dir, &[]);
    let served = Served(child);

    let name = "x".repeat(65_525);
    let mut req = Vec::new();
    frame::encode_invoke_frame(&mut req, &name, &[]);
    let mut conn = connect_bounded(&addr);
    conn.write_all(&req).unwrap();
    let (kind, payload) = frame::read_frame(&mut conn).expect("an error frame arrives");
    assert_eq!(kind, frame::REP_ERROR);
    assert!(payload.len() <= frame::MAX_PAYLOAD as usize);
    let text = String::from_utf8(payload).expect("the shortened reply is UTF-8");
    assert!(text.starts_with("unknown transaction `xxx"), "head kept: {}", &text[..40]);
    assert!(text.ends_with("xxx`"), "tail kept");
    assert!(text.contains(" … "), "the middle is elided");

    conn.write_all(b"ping\n").unwrap();
    let mut pong = [0u8; 8];
    conn.read_exact(&mut pong).expect("the connection is still served");
    assert_eq!(&pong, b"ok pong\n");
    drop(conn);
    shut_down(served, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A binary violation whose diagnostic renders past 64 KiB — the
/// pattern quotes one letter per application, each naming a 250-byte
/// class — is shortened in the middle of the pattern: it still ends in
/// `[epoch E]`, and its head and tail are those of the text dialect's
/// full diagnostic.
#[test]
fn over_cap_binary_violation_keeps_its_epoch_tail() {
    use migratory::core::enforce::net::frame;
    use migratory::model::Value;
    let dir = std::env::temp_dir().join(format!("migratory-net-longviol-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (p, q) = (format!("P{}", "x".repeat(250)), format!("S{}", "x".repeat(250)));
    let schema = format!("schema Long {{ class {p} {{ K }} class {q} isa {p} {{ }} }}");
    let tx = format!(
        "transaction Mk(x) {{ create({p}, {{ K = x }}); }}\n\
         transaction Sp(x) {{ specialize({p}, {q}, {{ K = x }}, {{ }}); }}"
    );
    let inv = format!("∅* [{p}]* ∅*");
    let (child, addr) = spawn_serve_with(&dir, (&schema, &tx, &inv), &[]);
    let served = Served(child);

    let conn = connect_bounded(&addr);
    let mut c = Client { writer: conn.try_clone().unwrap(), replies: BufReader::new(conn).lines() };
    for i in 0..300 {
        assert_eq!(c.ask(&format!("invoke Mk(k{i})")), "ok");
    }
    // Object o1 has read 300 letters: its pattern renders past 75 KB.
    let line = c.ask("invoke Sp(k0)");
    let diag = line.strip_prefix("violation ").expect("the text dialect reports the violation");
    assert!(diag.len() > frame::MAX_PAYLOAD as usize, "text replies are never shortened");

    let mut req = Vec::new();
    frame::encode_invoke_frame(&mut req, "Sp", &[Value::str("k0")]);
    let mut bin = connect_bounded(&addr);
    bin.write_all(&req).unwrap();
    let (kind, payload) = frame::read_frame(&mut bin).expect("a violation frame arrives");
    assert_eq!(kind, frame::REP_VIOLATION);
    assert!(payload.len() <= frame::MAX_PAYLOAD as usize);
    let short = String::from_utf8(payload).expect("the shortened diagnostic is UTF-8");
    assert!(short.ends_with("[epoch 0]"), "the epoch tail survives");
    let (head, tail) = short.split_once(" … ").expect("the middle is elided");
    assert!(diag.starts_with(head) && diag.ends_with(tail), "head and tail are the full text's");
    assert!(head.starts_with("object o1 would follow the pattern "));
    assert!(tail.contains(") [epoch 0]"));
    drop((c, bin));
    shut_down(served, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Every reply, byte for byte, in both dialects
// ---------------------------------------------------------------------

/// A frame built by hand: magic `0xB5`, kind, u32-LE length, payload.
fn hand_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0xB5, kind];
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One text request line and the exact reply line it must get.
fn text_row(req: &str, reply: &str) -> (Vec<u8>, Vec<u8>) {
    (format!("{req}\n").into_bytes(), format!("{reply}\n").into_bytes())
}

/// Read one whole reply in whichever dialect it arrives: a frame when
/// it starts with the magic byte `0xB5`, else one line.
fn read_reply(r: &mut BufReader<TcpStream>) -> Vec<u8> {
    use std::io::Read;
    let mut reply = Vec::new();
    if r.fill_buf().expect("a reply arrives").first() == Some(&0xB5) {
        reply.resize(6, 0);
        r.read_exact(&mut reply).expect("a frame header");
        let len = u32::from_le_bytes([reply[2], reply[3], reply[4], reply[5]]) as usize;
        reply.resize(6 + len, 0);
        r.read_exact(&mut reply[6..]).expect("a frame payload");
    } else {
        r.read_until(b'\n', &mut reply).expect("a reply line");
    }
    reply
}

/// Send each request in turn on one connection and compare the exact
/// reply bytes, reporting every row that differs. The last row is
/// `shutdown`, after which the server must close the socket with nothing
/// further.
fn assert_reply_table(addr: &str, rows: &[(Vec<u8>, Vec<u8>)]) {
    use std::io::Read;
    let conn = connect_bounded(addr);
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    let mut wrong = String::new();
    for (req, want) in rows {
        writer.write_all(req).unwrap();
        let got = read_reply(&mut reader);
        if got != *want {
            wrong += &format!(
                "\n  request `{}`\n     got `{}`\n    want `{}`",
                req.escape_ascii(),
                got.escape_ascii(),
                want.escape_ascii()
            );
        }
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(wrong.is_empty(), "replies that differ:{wrong}");
    assert!(rest.is_empty(), "bytes after the last reply: {}", rest.escape_ascii());
}

/// Every reply kind of both dialects, pinned byte for byte: each request
/// kind with each of its refusals, on a primary and on a read-only
/// replica (whose refusal of `invoke` and `redefine` wins over any
/// payload error, and which still answers `query`), ending with the
/// exact flat `stats` line and its request/outcome counts.
#[test]
fn every_reply_is_byte_identical_in_both_dialects() {
    use migratory::core::enforce::net::frame;
    use migratory::core::enforce::{DurableLog, IngressConfig};
    use migratory::model::Value;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv_src = "∅* [R0]* ∅*";
    let inv = Inventory::parse_init(&s, &a, inv_src).unwrap();
    let ts = multi_transactions(&s);
    let dir = std::env::temp_dir().join(format!("migratory-net-table-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = std::sync::Arc::new(std::sync::Mutex::new(Wal::open(&dir).unwrap()));
    // A primary address nothing listens on: the replica's puller keeps
    // failing to connect and retries with backoff.
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let primary = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica = TcpListener::bind("127.0.0.1:0").unwrap();
    let (primary_addr, replica_addr) =
        (primary.local_addr().unwrap().to_string(), replica.local_addr().unwrap().to_string());

    let invoke = |name: &str, arg: &str| {
        let mut out = Vec::new();
        frame::encode_invoke_frame(&mut out, name, &[Value::str(arg)]);
        out
    };
    let redefine = |payload: &[u8]| hand_frame(0x02, payload);
    let query = |payload: &[u8]| hand_frame(0x03, payload);
    let ok = |text: &str| hand_frame(0x81, text.as_bytes());
    let violation = |text: &str| hand_frame(0x82, text.as_bytes());
    let error = |text: &str| hand_frame(0x83, text.as_bytes());
    let mut trailing = invoke("Mk0", "t");
    trailing.push(0);
    let trailing = hand_frame(0x01, &trailing[6..]);
    let policy_src = |policy: u8, src: &[u8]| [&[policy][..], src].concat();
    let redefine_usage = "usage: redefine <quarantine|certify-and-reset> <inventory source>";

    let primary_rows = vec![
        text_row("ping", "ok pong"),
        text_row("auth anything", "ok authed"),
        text_row("schema", "ok schema components=3 shards=3 transactions Mk0/1 Up0/1 Mk1/1 Mk2/1"),
        text_row("rearm", "ok armed"),
        text_row("invoke Mk0(a)", "ok"),
        text_row("invoke Mk0", "error expected `Name(args…)`: `Mk0`"),
        text_row("invoke Nope(1)", "error unknown transaction `Nope`"),
        text_row(
            "invoke Up0(a)",
            "violation object o1 would follow the pattern [R0] [S0] ∉ 𝔏 \
             (offending role set [S0]) [epoch 0]",
        ),
        text_row("redefine quarantine", &format!("error {redefine_usage}")),
        text_row(
            &format!("redefine bogus {inv_src}"),
            "error redefine refused: unknown residue policy `bogus` \
             (quarantine|certify-and-reset)",
        ),
        text_row(
            "redefine quarantine [R0",
            "error redefine refused: regex parse error at byte 0: unclosed `[`",
        ),
        text_row(&format!("redefine quarantine {inv_src}"), "ok epoch=1 residue=0"),
        text_row("query", "error usage: query <Class>[(Attr=value,...)]"),
        text_row("query Nope", "error unknown class `Nope`"),
        text_row("query R0(Zz=1)", "error unknown attribute `Zz`"),
        text_row("query R0(K0=a)", "ok query count=1 oids=o1"),
        text_row("stats bogus", "error unknown stats form `bogus`"),
        text_row(
            "bogus",
            "error unknown verb `bogus` \
             (invoke|query|schema|stats|ping|auth|redefine|promote|rearm|quit|shutdown)",
        ),
        text_row(
            "promote",
            "error not a replica (promote targets a server started with --replica-of)",
        ),
        (invoke("Mk0", "b"), ok("")),
        (hand_frame(0x01, &[0xff]), error("corrupt encoding: unexpected end")),
        (invoke("Nope", "b"), error("unknown transaction `Nope`")),
        (trailing.clone(), error("trailing bytes after invoke payload")),
        (
            invoke("Up0", "b"),
            violation(
                "object o2 would follow the pattern ∅ [R0] [S0] ∉ 𝔏 \
                 (offending role set [S0]) [epoch 1]",
            ),
        ),
        (redefine(b""), error("empty redefine payload")),
        (
            redefine(&policy_src(7, inv_src.as_bytes())),
            error("redefine refused: unknown residue policy byte 7"),
        ),
        (redefine(&policy_src(0, &[0xff, 0xfe])), error("redefine payload is not UTF-8")),
        (
            redefine(&policy_src(0, b"[R0")),
            error("redefine refused: regex parse error at byte 0: unclosed `[`"),
        ),
        (redefine(&policy_src(0, inv_src.as_bytes())), ok("epoch=2 residue=0")),
        (query(&[0xff]), error("query payload is not UTF-8")),
        (query(b"Nope"), error("unknown class `Nope`")),
        (query(b"R0(Zz=1)"), error("unknown attribute `Zz`")),
        (query(b"R0"), ok("query count=2 oids=o1,o2")),
        (
            hand_frame(0x07, b""),
            error("unknown frame kind 0x07 (expected invoke 0x01, redefine 0x02, or query 0x03)"),
        ),
        text_row(
            "stats",
            "ok stats requests=35 admitted=2 rejected=2 errors=22 connections=1 lanes=3 \
             degraded=no last_checkpoint=none epoch=2 redefines=2 quarantined=0",
        ),
        text_row("shutdown", "ok draining"),
    ];

    let refused = |verb: &str| {
        format!("replica is read-only: {verb} refused (following {upstream}; `promote` to accept writes)")
    };
    let replica_rows = vec![
        text_row("invoke Mk0(r)", &format!("error {}", refused("invoke"))),
        text_row("invoke Mk0", &format!("error {}", refused("invoke"))),
        (invoke("Mk0", "r"), error(&refused("invoke"))),
        (hand_frame(0x01, &[0xff]), error(&refused("invoke"))),
        (trailing, error(&refused("invoke"))),
        text_row("redefine", &format!("error {}", refused("redefine"))),
        text_row(&format!("redefine bogus {inv_src}"), &format!("error {}", refused("redefine"))),
        (redefine(b""), error(&refused("redefine"))),
        (redefine(&policy_src(7, b"")), error(&refused("redefine"))),
        text_row("query R0", "ok query count=0 oids="),
        (query(b"R0"), ok("query count=0 oids=")),
        text_row(
            "stats",
            "ok stats requests=12 admitted=0 rejected=0 errors=9 connections=1 lanes=3 \
             degraded=no last_checkpoint=none epoch=0 redefines=0 quarantined=0 \
             repl=replica applied=0 horizon=0",
        ),
        text_row("shutdown", "ok draining"),
    ];

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(primary, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        scope.spawn(|| {
            let config = ServerConfig {
                ingress: IngressConfig {
                    wal: Some(DurableLog { log: wal.clone(), repl: None }),
                    ..Default::default()
                },
                replica_of: Some(upstream.clone()),
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(replica, &mut m, &ts, &config).unwrap()
        });
        let _stop = [ShutdownOnDrop(&primary_addr), ShutdownOnDrop(&replica_addr)];
        assert_reply_table(&primary_addr, &primary_rows);
        assert_reply_table(&replica_addr, &replica_rows);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// `migctl client`, through the real binary
// ---------------------------------------------------------------------

/// Run `migctl client --addr <addr> <args…>` with `stdin` piped in;
/// returns its stdout, which must come with a successful exit.
fn run_client(addr: &str, args: &[&str], stdin: &str) -> String {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_migctl"))
        .args(["client", "--addr", addr])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn migctl client");
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("client exits");
    assert!(out.status.success(), "migctl client {args:?} failed");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The interactive client reads a `stats prom` reply whole — its header
/// and its length-prefixed payload — so every later reply stays aligned
/// with its request.
#[test]
fn interactive_client_reads_the_whole_stats_prom_reply() {
    let dir = std::env::temp_dir().join(format!("migratory-net-client-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (child, addr) = spawn_serve(&dir, &[]);
    let served = Served(child);

    let out = run_client(&addr, &[], "stats prom\nping\nping\nquit\n");
    let (header, rest) = out.split_once('\n').expect("a header line");
    let len: usize = header.strip_prefix("ok prom ").expect(header).parse().unwrap();
    let (payload, tail) = rest.split_at(len);
    assert!(payload.contains("# TYPE migratory_commit_latency_us histogram"), "{payload}");
    assert_eq!(tail, "ok pong\nok pong\nok bye\n", "replies after the payload stay aligned");
    shut_down(served, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `query` script line goes out as a query in both dialects — a text
/// line, or a query frame under `--binary` — not as an invocation.
#[test]
fn client_script_sends_query_lines_in_both_dialects() {
    let dir = std::env::temp_dir().join(format!("migratory-net-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (child, addr) = spawn_serve(&dir, &[]);
    let served = Served(child);

    let script = dir.join("script.txt");
    std::fs::write(&script, "Mk(a)\nquery PERSON\n").unwrap();
    for flags in [&[][..], &["--binary"][..]] {
        let mut args = vec!["--script", script.to_str().unwrap()];
        args.extend_from_slice(flags);
        let out = run_client(&addr, &args, "");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "two replies and the tally: {out}");
        assert_eq!(lines[0], "ok", "{flags:?}");
        assert!(lines[1].starts_with("ok query count="), "{flags:?}: {}", lines[1]);
        assert_eq!(lines[2], "client: 2 ok, 0 violation(s), 0 error(s)", "{flags:?}");
    }
    shut_down(served, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}
