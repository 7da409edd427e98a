//! WAL-shipping replication: a primary tees every committed record to
//! N standbys; a standby folds them exactly as crash recovery does.
//!
//! # Wire contract (normative, test-locked in `docs/PROTOCOL.md`)
//!
//! A replica connects to the primary's replication port and sends the
//! 6-byte hello [`HELLO`] (`MGRPL1`). The primary answers with a
//! bootstrap preamble —
//!
//! ```text
//! "MGRPS1" · start_horizon u64-LE · snap_len u64-LE · snapshot bytes
//! ```
//!
//! — where the snapshot is [`Snapshot::encode`] of the primary's state
//! at `start_horizon` (the cumulative count of replication-stream bytes
//! shipped before this connection), followed by a continuous stream of
//! framed WAL records in **exactly the log's framing**
//! (`[len u32-LE][crc u32-LE][payload]`, see `enforce::wal`). The
//! replica writes back cumulative byte horizons (u64-LE) on the same
//! socket: an ack of `h` promises every stream byte before `h` is
//! folded into the replica's monitor **and durable in the replica's own
//! write-ahead log**. There is no per-record handshake — the framing's
//! checksums make any cut a clean whole-record prefix, and the shard
//! clocks carried by every record make re-delivery idempotent
//! ([`ShardedMonitor::replay_record`](super::ShardedMonitor::replay_record)),
//! so resync after a tear is always: reconnect, take a fresh snapshot,
//! continue.
//!
//! # Acknowledgement dial
//!
//! [`AckPolicy::LocalFsync`] releases a batch's tickets as soon as the
//! local `fdatasync` returns — replication is asynchronous, a failed
//! primary may have acked ops the survivor never saw.
//! [`AckPolicy::ReplicaK`] withholds the tickets until `k` replicas
//! acked the batch's horizon: an acked op is then durable on at least
//! `k + 1` machines. An exhausted ack wait is an **unknown outcome**:
//! the records are on the primary's disk and are never rolled back; the
//! tickets are refused with the replication reason and the primary
//! degrades until the operator rearms.

use super::ingress::IngressClient;
use super::metrics::AdmissionMetrics;
use super::wal::{self, Snapshot, Wal};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Replica → primary greeting, sent before anything else.
pub const HELLO: &[u8; 6] = b"MGRPL1";
/// Primary → replica bootstrap preamble magic.
pub const PREAMBLE: &[u8; 6] = b"MGRPS1";

/// Per-peer outbox depth (batches, not bytes). A replica that falls
/// this far behind is cut off and re-bootstraps from a fresh snapshot —
/// bounded memory on the primary beats an unbounded shipping queue.
const OUTBOX_DEPTH: usize = 1024;

/// Upper bound accepted for a bootstrap snapshot's length claim.
const MAX_SNAPSHOT: u64 = 1 << 32;

/// Poison-tolerant lock (a peer thread's panic must not wedge the
/// committer).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// When the committer releases a batch's tickets (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Ack once the local `fdatasync` returned; ship asynchronously.
    LocalFsync,
    /// Ack only once `k` replicas confirmed the batch durable.
    ReplicaK(usize),
}

impl AckPolicy {
    /// Parse the CLI spelling: `local-fsync` or `replica-K` (K ≥ 1).
    pub fn parse(s: &str) -> Result<AckPolicy, String> {
        if s == "local-fsync" {
            return Ok(AckPolicy::LocalFsync);
        }
        if let Some(k) = s.strip_prefix("replica-") {
            if let Ok(k @ 1..) = k.parse::<usize>() {
                return Ok(AckPolicy::ReplicaK(k));
            }
        }
        Err(format!("bad ack policy '{s}' (expected local-fsync or replica-K with K >= 1)"))
    }
}

impl std::fmt::Display for AckPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AckPolicy::LocalFsync => write!(f, "local-fsync"),
            AckPolicy::ReplicaK(k) => write!(f, "replica-{k}"),
        }
    }
}

/// An injected fault on the shipping socket (the replication analogue
/// of `IoFaults` on the log): consumed one per send, in order.
#[derive(Clone, Copy, Debug)]
pub enum ShipFault {
    /// Sleep before writing the batch (a stalled peer link).
    Stall(Duration),
    /// Drop the connection instead of writing.
    Disconnect,
    /// Write only half the batch, then drop the connection — a torn
    /// stream the replica must truncate and resync from.
    ShortWrite,
}

/// One attached replica, as the primary sees it.
struct Peer {
    /// Batches queued for this peer's writer thread.
    tx: mpsc::SyncSender<Vec<u8>>,
    /// Highest stream horizon this peer acknowledged.
    acked: Arc<AtomicU64>,
    /// Cleared by the writer/ack threads on any socket failure.
    alive: Arc<AtomicBool>,
    /// Kept to shut the socket down on close / overflow.
    sock: TcpStream,
}

struct ReplState {
    /// Cumulative replication-stream bytes shipped (== the byte offset
    /// the next batch starts at). Every peer's snapshot is taken at the
    /// horizon its connection registered under.
    horizon: u64,
    peers: Vec<Peer>,
    closed: bool,
}

/// The primary's replication tee: owns the replication listener, the
/// attached peers, and the ack bookkeeping the committer waits on.
pub struct Replicator {
    listener: TcpListener,
    local: SocketAddr,
    policy: AckPolicy,
    ack_timeout: Duration,
    state: Mutex<ReplState>,
    /// Signalled on every peer ack (and on peer death / close).
    acks: Condvar,
    faults: Mutex<VecDeque<ShipFault>>,
    metrics: Option<Arc<AdmissionMetrics>>,
}

impl Replicator {
    /// Bind the replication listener (non-blocking: [`acceptor`] polls
    /// it). Defaults: [`AckPolicy::LocalFsync`], 5 s ack timeout.
    pub fn bind(addr: &str) -> std::io::Result<Replicator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Replicator {
            listener,
            local,
            policy: AckPolicy::LocalFsync,
            ack_timeout: Duration::from_secs(5),
            state: Mutex::new(ReplState { horizon: 0, peers: Vec::new(), closed: false }),
            acks: Condvar::new(),
            faults: Mutex::new(VecDeque::new()),
            metrics: None,
        })
    }

    /// Set the acknowledgement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AckPolicy) -> Replicator {
        self.policy = policy;
        self
    }

    /// Set how long [`Replicator::ship_and_wait`] waits for the k-th
    /// replica ack before declaring the batch's outcome unknown.
    #[must_use]
    pub fn with_ack_timeout(mut self, timeout: Duration) -> Replicator {
        self.ack_timeout = timeout;
        self
    }

    /// Stamp shipping counters and ack-wait latencies onto `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<AdmissionMetrics>) -> Replicator {
        self.metrics = Some(metrics);
        self
    }

    /// The bound replication address (for the serve banner and tests).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The configured acknowledgement policy.
    #[must_use]
    pub fn policy(&self) -> AckPolicy {
        self.policy
    }

    /// Cumulative replication-stream bytes shipped so far.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        lock(&self.state).horizon
    }

    /// Currently attached (live) peers.
    #[must_use]
    pub fn live_replicas(&self) -> usize {
        let mut st = lock(&self.state);
        st.peers.retain(|p| p.alive.load(Ordering::SeqCst));
        st.peers.len()
    }

    /// Queue a fault for the next send(s) — the replication analogue of
    /// `--inject` on the log path.
    pub fn inject(&self, fault: ShipFault) {
        lock(&self.faults).push_back(fault);
    }

    /// Tee one synced batch's record bytes to every peer and, under
    /// [`AckPolicy::ReplicaK`], wait for `k` acks of the new horizon.
    /// Called by the committer after the local sync, before the batch's
    /// tickets are released. `Err` is the refusal reason: the bytes are
    /// locally durable (never rolled back) but their replica outcome is
    /// unknown.
    pub fn ship_and_wait(&self, bytes: &[u8]) -> Result<(), String> {
        let t0 = Instant::now();
        let mut st = lock(&self.state);
        st.horizon += bytes.len() as u64;
        let target = st.horizon;
        st.peers.retain(|p| p.alive.load(Ordering::SeqCst));
        for p in &st.peers {
            if p.tx.try_send(bytes.to_vec()).is_err() {
                // Outbox full (or writer gone): cut the laggard off; it
                // re-bootstraps from a fresh snapshot on reconnect.
                p.alive.store(false, Ordering::SeqCst);
                let _ = p.sock.shutdown(Shutdown::Both);
            }
        }
        st.peers.retain(|p| p.alive.load(Ordering::SeqCst));
        if let Some(m) = &self.metrics {
            m.repl_shipped_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            m.repl_shipped_batches.fetch_add(1, Ordering::Relaxed);
            m.repl_live_replicas.store(st.peers.len() as u64, Ordering::Relaxed);
        }
        let out = match self.policy {
            AckPolicy::LocalFsync => Ok(()),
            AckPolicy::ReplicaK(k) => {
                let deadline = Instant::now() + self.ack_timeout;
                loop {
                    st.peers.retain(|p| p.alive.load(Ordering::SeqCst));
                    let acked = st
                        .peers
                        .iter()
                        .filter(|p| p.acked.load(Ordering::SeqCst) >= target)
                        .count();
                    if acked >= k {
                        break Ok(());
                    }
                    if st.closed {
                        break Err(format!(
                            "replication closed at {acked}/{k} acks for horizon {target}"
                        ));
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break Err(format!(
                            "replication ack timeout: {acked}/{k} replicas reached horizon \
                             {target} within {:?} — outcome unknown on the standbys",
                            self.ack_timeout
                        ));
                    }
                    st = self
                        .acks
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            }
        };
        if let Some(m) = &self.metrics {
            m.repl_ship_wait_us.record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        out
    }

    /// Attach a greeted replica connection: queue its bootstrap
    /// preamble (snapshot at the **current** horizon — call this with
    /// the committer quiescent, i.e. from an admin barrier op) and
    /// spawn its writer and ack-reader threads. `snapshot` is the
    /// [`Snapshot::encode`] bytes of the primary's state at this
    /// horizon.
    pub fn register(self: &Arc<Replicator>, stream: TcpStream, snapshot: Vec<u8>) {
        let _ = stream.set_nodelay(true);
        let (Ok(wsock), Ok(rsock)) = (stream.try_clone(), stream.try_clone()) else {
            return;
        };
        let mut st = lock(&self.state);
        if st.closed {
            return;
        }
        let start = st.horizon;
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(OUTBOX_DEPTH);
        let mut preamble = Vec::with_capacity(PREAMBLE.len() + 16 + snapshot.len());
        preamble.extend_from_slice(PREAMBLE);
        preamble.extend_from_slice(&start.to_le_bytes());
        preamble.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
        preamble.extend_from_slice(&snapshot);
        tx.try_send(preamble).expect("fresh outbox holds the preamble");
        let acked = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicBool::new(true));
        {
            // Writer: drain the outbox onto the socket, one injected
            // fault consumed per send.
            let (me, alive, mut wsock) = (Arc::clone(self), alive.clone(), wsock);
            let writer = std::thread::Builder::new().name("mig-repl-write".into());
            writer
                .spawn(move || {
                    while let Ok(buf) = rx.recv() {
                        match lock(&me.faults).pop_front() {
                            Some(ShipFault::Stall(d)) => std::thread::sleep(d),
                            Some(ShipFault::Disconnect) => break,
                            Some(ShipFault::ShortWrite) => {
                                let _ = wsock.write_all(&buf[..buf.len() / 2]);
                                break;
                            }
                            None => {}
                        }
                        if wsock.write_all(&buf).is_err() {
                            break;
                        }
                    }
                    alive.store(false, Ordering::SeqCst);
                    let _ = wsock.shutdown(Shutdown::Both);
                    let _st = lock(&me.state);
                    me.acks.notify_all();
                })
                .expect("spawn the replica writer");
        }
        {
            // Ack reader: each u64-LE is a cumulative acked horizon.
            let (me, alive, acked, mut rsock) =
                (Arc::clone(self), alive.clone(), acked.clone(), rsock);
            let reader = std::thread::Builder::new().name("mig-repl-ack".into());
            reader
                .spawn(move || {
                    let mut h = [0u8; 8];
                    while rsock.read_exact(&mut h).is_ok() {
                        acked.store(u64::from_le_bytes(h), Ordering::SeqCst);
                        let _st = lock(&me.state);
                        me.acks.notify_all();
                    }
                    alive.store(false, Ordering::SeqCst);
                    let _ = rsock.shutdown(Shutdown::Both);
                    let _st = lock(&me.state);
                    me.acks.notify_all();
                })
                .expect("spawn the replica ack reader");
        }
        st.peers.push(Peer { tx, acked, alive, sock: stream });
        if let Some(m) = &self.metrics {
            m.repl_live_replicas.store(st.peers.len() as u64, Ordering::Relaxed);
        }
    }

    /// Shut down every peer connection and refuse new registrations;
    /// wakes any committer parked on an ack wait.
    pub fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        for p in &st.peers {
            p.alive.store(false, Ordering::SeqCst);
            let _ = p.sock.shutdown(Shutdown::Both);
        }
        st.peers.clear();
        drop(st);
        self.acks.notify_all();
    }
}

/// The primary's replication accept loop: poll the listener, greet each
/// connection ([`HELLO`]), and register it through an admin barrier op —
/// the barrier guarantees the snapshot and the registration horizon
/// agree (the committer is flushed and quiescent while the op runs).
/// Runs until `stop` is set (after the serve driver returns).
pub fn acceptor<'t, 's>(
    repl: &Arc<Replicator>,
    client: &IngressClient<'t, 's, '_>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match repl.listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let mut hello = [0u8; 6];
                if (&stream).read_exact(&mut hello).is_err() || hello != *HELLO {
                    continue; // not a replica: drop silently
                }
                let _ = stream.set_read_timeout(None);
                let me = Arc::clone(repl);
                client.post_admin(Box::new(move |gate| {
                    // A degraded primary refuses bootstraps (the replica
                    // retries); a healthy one snapshots at the barrier.
                    if let Ok(m) = gate {
                        let snap = m.snapshot().encode();
                        me.register(stream, snap);
                    }
                    Box::new(|_durable| {})
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// A replica's runtime switchboard, shared between the puller thread,
/// the wire front end (read-only refusals) and the `promote` verb.
pub struct ReplicaCtl {
    upstream: String,
    /// Refuse write verbs while set (split-brain guard). Cleared only
    /// by a successful `promote`.
    read_only: AtomicBool,
    /// Tells the puller to exit (promote, or server shutdown).
    stop: AtomicBool,
    /// Set **inside** the promote admin op: apply batches queued before
    /// the promote still fold (the tail replays), stragglers after it
    /// are skipped and never acked.
    halted: AtomicBool,
    applied: AtomicU64,
    horizon: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl ReplicaCtl {
    /// A fresh control block: read-only, not stopped, tracking nothing.
    #[must_use]
    pub fn new(upstream: &str) -> ReplicaCtl {
        ReplicaCtl {
            upstream: upstream.to_owned(),
            read_only: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            applied: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    /// The primary address this replica follows.
    #[must_use]
    pub fn upstream(&self) -> &str {
        &self.upstream
    }

    /// Whether write verbs must be refused (true until promoted).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Ask the puller to exit at its next check.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the puller was asked to exit.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Mark the stream halted (call inside the promote admin op).
    pub fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
    }

    /// Whether the stream was halted by a promote.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// Flip the replica writable — the last step of a promote.
    pub fn make_writable(&self) {
        self.read_only.store(false, Ordering::SeqCst);
    }

    /// Replication-stream records folded so far.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Highest acked stream horizon.
    #[must_use]
    pub fn stream_horizon(&self) -> u64 {
        self.horizon.load(Ordering::SeqCst)
    }

    /// The last pull failure, if any (surfaced in `stats`).
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        lock(&self.last_error).clone()
    }

    fn note(&self, e: &str) {
        *lock(&self.last_error) = Some(e.to_owned());
    }
}

/// Append a cumulative ack horizon on the replication socket.
fn send_ack(stream: &mut TcpStream, horizon: u64) -> Result<(), String> {
    stream.write_all(&horizon.to_le_bytes()).map_err(|e| format!("ack write failed: {e}"))
}

/// Whether `buf` starts with a *complete* frame. [`wal::decode_stream`]
/// consumed every complete valid frame, so a complete frame left behind
/// failed its checksum or payload decode — mid-stream corruption, not a
/// tear; the connection must be dropped and resynced.
fn complete_but_invalid(buf: &[u8]) -> bool {
    let Some((head, tail)) = buf.split_at_checked(8) else { return false };
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    len <= wal::MAX_RECORD_LEN && tail.len() >= len
}

/// The replica's pull loop: connect to the primary, bootstrap from its
/// snapshot, then fold the shipped records through the admission
/// worker — each batch via an admin barrier op calling
/// [`ShardedMonitor::replay_record`](super::ShardedMonitor::replay_record),
/// acked only once the replica's own committer made it durable. Any
/// tear, gap or error drops the connection and resyncs from a fresh
/// snapshot (idempotent: the shard clocks skip everything already
/// folded). Runs until [`ReplicaCtl::request_stop`].
pub fn puller<'t, 's>(
    addr: &str,
    ctl: &Arc<ReplicaCtl>,
    wal: &Arc<Mutex<Wal>>,
    client: &IngressClient<'t, 's, '_>,
    metrics: Option<&Arc<AdmissionMetrics>>,
) {
    let mut backoff = Duration::from_millis(50);
    while !ctl.stopped() {
        match pull_once(addr, ctl, wal, client, metrics) {
            Ok(()) => return, // clean stop (promote / shutdown)
            Err(e) => ctl.note(&e),
        }
        if ctl.stopped() {
            return;
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(1));
    }
}

/// One replication session: bootstrap + stream until tear or stop.
fn pull_once<'t, 's>(
    addr: &str,
    ctl: &Arc<ReplicaCtl>,
    wal: &Arc<Mutex<Wal>>,
    client: &IngressClient<'t, 's, '_>,
    metrics: Option<&Arc<AdmissionMetrics>>,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream.write_all(HELLO).map_err(|e| format!("hello: {e}"))?;
    // Bootstrap preamble: magic, start horizon, snapshot.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut magic = [0u8; 6];
    stream.read_exact(&mut magic).map_err(|e| format!("preamble: {e}"))?;
    if magic != *PREAMBLE {
        return Err("bad replication preamble magic".to_owned());
    }
    let mut word = [0u8; 8];
    stream.read_exact(&mut word).map_err(|e| format!("preamble: {e}"))?;
    let start = u64::from_le_bytes(word);
    stream.read_exact(&mut word).map_err(|e| format!("preamble: {e}"))?;
    let snap_len = u64::from_le_bytes(word);
    if snap_len > MAX_SNAPSHOT {
        return Err(format!("snapshot length claim {snap_len} over cap"));
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut snap_bytes = vec![0u8; snap_len as usize];
    stream.read_exact(&mut snap_bytes).map_err(|e| format!("snapshot body: {e}"))?;
    let snap = Snapshot::decode(&snap_bytes).map_err(|e| format!("snapshot decode: {e}"))?;

    // Bootstrap barrier: rebuild the monitor at the stream start and
    // write the snapshot through as this replica's own base checkpoint,
    // so the replica's durable image covers exactly what its acks claim.
    // The rebuild holds the monitor exclusively; the disk write waits
    // for the op's second half, which the worker runs before it admits
    // anything else (reads are not held up by it).
    let (btx, brx) = mpsc::channel::<Result<(), String>>();
    {
        let (ctl, wal) = (Arc::clone(ctl), Arc::clone(wal));
        client.post_admin(Box::new(move |gate| {
            let full = (move || {
                let m = gate?;
                if ctl.halted() {
                    return Err("replica promoted".to_owned());
                }
                m.resync(Some(snap), std::iter::empty()).map_err(|e| e.to_string())?;
                Ok(m.checkpoint_full())
            })();
            Box::new(move |_durable| {
                let res = full
                    .and_then(|full| lock(&wal).write_snapshot(&full).map_err(|e| e.to_string()));
                let _ = btx.send(res);
            })
        }));
    }
    brx.recv().map_err(|_| "ingress closed during bootstrap".to_owned())??;
    let mut horizon = start;
    send_ack(&mut stream, horizon)?;
    ctl.horizon.store(horizon, Ordering::SeqCst);

    // Stream: accumulate, fold every complete record, ack the horizon.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if ctl.stopped() {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("upstream closed the replication stream".to_owned()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("stream read: {e}")),
        }
        let (records, consumed) =
            wal::decode_stream(&buf).map_err(|e| format!("stream decode: {e}"))?;
        buf.drain(..consumed);
        if complete_but_invalid(&buf) {
            return Err("replication stream corrupt: complete record failed validation".to_owned());
        }
        if records.is_empty() {
            continue; // torn tail carried forward into the next read
        }
        let n_records = records.len() as u64;
        let (dtx, drx) = mpsc::channel::<Result<bool, String>>();
        {
            let ctl = Arc::clone(ctl);
            client.post_admin(Box::new(move |gate| {
                let res = (move || {
                    let m = gate?;
                    if ctl.halted() {
                        return Ok(false); // promoted: never acked
                    }
                    for record in records {
                        m.replay_record(record).map_err(|e| e.to_string())?;
                    }
                    Ok(true)
                })();
                Box::new(move |durable: bool| {
                    let _ = dtx.send(res.map(|applied| applied && durable));
                })
            }));
        }
        match drx.recv().map_err(|_| "ingress closed mid-stream".to_owned())? {
            Ok(true) => {
                horizon += consumed as u64;
                send_ack(&mut stream, horizon)?;
                ctl.horizon.store(horizon, Ordering::SeqCst);
                ctl.applied.fetch_add(n_records, Ordering::SeqCst);
                if let Some(m) = metrics {
                    m.repl_applied_records.fetch_add(n_records, Ordering::Relaxed);
                }
            }
            Ok(false) if ctl.halted() => return Ok(()),
            Ok(false) => return Err("batch not durable on the replica".to_owned()),
            Err(e) => return Err(format!("stream fold: {e}")),
        }
    }
}
