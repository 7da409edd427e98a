//! A wire front end for durable concurrent admission: a TCP server that
//! maps every connection onto an [`ingress`] producer.
//!
//! The paper's monitors guard migration histories inside one process;
//! this module is the step that makes "network-shaped concurrent
//! callers" literal. Clients share nothing with the server but the
//! protocol — two interleavable dialects on one port, dispatched per
//! request by the first byte (see `docs/PROTOCOL.md` at the repository
//! root for the normative specification, kept in lockstep with this
//! module by a conformance test):
//!
//! * **Text**: newline-framed UTF-8 requests, one reply line per
//!   request — the debug and interop dialect.
//! * **Binary** ([`frame`]): length-prefixed frames whose `invoke`
//!   payloads are [`migratory_lang::codec`] encodings — the hot-path
//!   dialect, no per-request parsing or quoting.
//!
//! # Shape
//!
//! [`serve`] wraps [`ingress::serve`]: the admission worker holds
//! the [`ShardedMonitor`] exclusively for each unit of work, and a
//! `query` reads it under the shared lock on the event thread in between
//! (see [`ingress`] § Reads); the driver is a **poll-based event core**
//! ([`ServerConfig::io_threads`] threads) that multiplexes every client
//! socket with nonblocking I/O — thread count is O(io_threads + shards),
//! independent of the connection count. Each connection keeps
//! per-connection read/write buffers, extracts requests incrementally,
//! and queues one reply **slot** per request; `invoke` outcomes arrive
//! asynchronously (a released batch's completions mailed back to their
//! event threads through a self-pipe waker) and fill their slot, and
//! only the resolved prefix of the slot queue is ever written — so
//! replies never overtake each other within a connection. A connection is exactly one
//! ingress producer: per-connection FIFO is the ingress's per-producer
//! FIFO, and pipelined requests from one connection batch into admission
//! blocks just like an in-process pipelining producer's.
//!
//! # Invariants
//!
//! * **One reply per request, in order, in the request's dialect.**
//!   Every parsed request is answered on the wire, and replies never
//!   overtake each other within a connection (the slot queue flushes
//!   its resolved prefix only).
//! * **Acknowledgement implies durability.** An `ok` (or empty
//!   [`frame::REP_OK`] frame) is written only after the op's block
//!   committed — and, with a write-ahead log, after the committer
//!   appended and synced it. A client that saw `ok` will see the op
//!   again after a crash and recovery.
//! * **Graceful drain.** A `shutdown` request stops the accept path and
//!   closes every connection's *read* side; the admission worker keeps
//!   answering until every lane is empty (close-and-answer,
//!   [`ingress::serve`]'s contract) — so every in-flight request is
//!   answered on the wire before its socket closes and [`serve`]
//!   returns.
//! * **Backpressure end to end, without blocked threads.** A
//!   connection posts the invokes one extraction pass parsed with one
//!   ingress call; what a full admission lane leaves unposted stays
//!   queued in order and suppresses the connection's read interest
//!   until the lane drains; a deep reply pipeline or a write buffer
//!   past its high-water mark does the same. Suppressed read interest
//!   fills the client's TCP window: producers can never outrun the
//!   monitor, no matter how fast they write — and no server thread ever
//!   blocks on one connection's behalf.
//!
//! # Supervision and degraded mode
//!
//! Connections are supervised ([`ServerConfig`]): an optional idle
//! timeout reaps silent peers, per-connection byte/op quotas bound what
//! one peer can consume (uniformly across both dialects), a
//! max-connections cap refuses excess sockets at accept, a write-stall
//! timeout reaps peers that stop reading their replies, and an optional
//! shared-secret token gates every verb behind an `auth` handshake.
//! Request size is bounded *during accumulation*: a text line crossing
//! [`MAX_LINE`] without a newline, or a frame header declaring a payload
//! beyond it, is refused the moment the excess is visible — per-
//! connection memory stays bounded no matter what arrives. Durability
//! failures degrade service instead of lying: when the write-ahead
//! append keeps failing past the
//! [`DurabilityPolicy`](super::DurabilityPolicy) budget, the shared
//! [`Health`] flips the server into degraded read-only mode — `invoke`
//! answers `error degraded (read-only): …`, `stats` reports
//! `degraded=yes` plus the background-checkpoint status, and an operator
//! re-arms with the `rearm` verb once the fault is fixed (see
//! `docs/PROTOCOL.md` § Limits, timeouts, and degraded mode).
//!
//! # Durability behind the server
//!
//! Everything durable is configured in [`ServerConfig::ingress`]: the
//! write-ahead log the committer appends to and syncs before any ack
//! is written, the replication tee that ships each synced batch, and
//! the log's checkpoint budget — each time the log grows by
//! [`IngressConfig::checkpoint_bytes`] the ingress captures an O(dirty)
//! incremental checkpoint and hands it to its background
//! [`Snapshotter`](super::Snapshotter) while traffic keeps flowing, on
//! a primary and on a [`ServerConfig::replica_of`] standby alike (see
//! [`ingress::serve`]).
//!
//! ```
//! use migratory_core::enforce::net::{self, ServerConfig};
//! use migratory_core::enforce::ShardedMonitor;
//! use migratory_core::{Inventory, PatternKind, RoleAlphabet};
//! use migratory_lang::parse_transactions;
//! use migratory_model::schema::university_schema;
//! use std::io::{BufRead, BufReader, Write};
//!
//! let s = university_schema();
//! let a = RoleAlphabet::new(&s, 0).unwrap();
//! let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
//! let ts = parse_transactions(&s, r#"
//!     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
//! "#).unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let stats = std::thread::scope(|scope| {
//!     let server = scope.spawn(|| {
//!         let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
//!         net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
//!     });
//!     let mut conn = std::net::TcpStream::connect(addr).unwrap();
//!     conn.write_all(b"invoke Mk(1)\nshutdown\n").unwrap();
//!     let mut replies = BufReader::new(conn).lines();
//!     assert_eq!(replies.next().unwrap().unwrap(), "ok");
//!     assert_eq!(replies.next().unwrap().unwrap(), "ok draining");
//!     server.join().unwrap()
//! });
//! assert_eq!(stats.admitted, 1);
//! ```

mod conn;
mod event;
pub mod frame;

use super::health::Health;
use super::ingress::{self, IngressConfig, IngressStats};
use super::metrics::AdmissionMetrics;
use super::sharded::ShardedMonitor;
use crate::alphabet::RoleAlphabet;
use migratory_lang::{Assignment, TransactionSchema};
use migratory_model::{Schema, Value};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of [`serve`].
#[derive(Clone)]
pub struct ServerConfig {
    /// The admission pipeline behind the socket front end: lanes, the
    /// write-ahead log and its replication tee, the durability policy
    /// and [`Health`] flag that degraded mode reads, the `stats prom`
    /// metrics, and the log's checkpoint cadence.
    pub ingress: IngressConfig,
    /// Event threads multiplexing the client sockets (thread 0 also
    /// owns the listener). Clamped to at least 1.
    pub io_threads: usize,
    /// Per-connection reply pipeline depth: how many requests may be in
    /// flight (unanswered) before the connection's socket reads stall.
    pub pipeline: usize,
    /// Idle timeout: a connection with no traffic for this long is
    /// answered `error idle timeout …` and closed. `None` waits
    /// forever (the pre-supervision behaviour).
    pub idle_timeout: Option<Duration>,
    /// Per-connection byte quota over all request bytes, both dialects
    /// (0 = unlimited); exceeding it tears the connection down after
    /// one error reply.
    pub max_conn_bytes: u64,
    /// Per-connection request quota (0 = unlimited); exceeding it tears
    /// the connection down after one error reply.
    pub max_conn_ops: u64,
    /// Live-connection cap (0 = unlimited): excess sockets are answered
    /// `error server at connection capacity …` and closed at accept.
    pub max_connections: usize,
    /// Shared-secret token: when set, a connection's first request must
    /// be `auth <token>` — anything else is refused and disconnects.
    pub auth: Option<String>,
    /// Follow a primary (replica role; requires `ingress.wal` without a
    /// replicator): the server bootstraps from the primary's snapshot
    /// at this address, continuously folds its shipped records, serves
    /// read verbs from slightly-stale state, and refuses writes until
    /// `promote`. A primary attaches its
    /// [`Replicator`](super::Replicator) to `ingress.wal` instead.
    pub replica_of: Option<String>,
}

impl std::fmt::Debug for ServerConfig {
    // Manual impl: the auth token is a secret.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("ingress", &self.ingress)
            .field("io_threads", &self.io_threads)
            .field("pipeline", &self.pipeline)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_conn_bytes", &self.max_conn_bytes)
            .field("max_conn_ops", &self.max_conn_ops)
            .field("max_connections", &self.max_connections)
            .field("auth", &self.auth.as_ref().map(|_| "<redacted>"))
            .field("replica_of", &self.replica_of)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ingress: IngressConfig::default(),
            io_threads: 2,
            pipeline: 512,
            idle_timeout: None,
            max_conn_bytes: 0,
            max_conn_ops: 0,
            max_connections: 0,
            auth: None,
            replica_of: None,
        }
    }
}

/// Counters reported by [`serve`] after the drain completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Requests parsed (all verbs and frames, malformed ones included).
    pub requests: usize,
    /// `invoke` requests answered `ok`.
    pub admitted: usize,
    /// `invoke` requests answered `violation …`.
    pub rejected: usize,
    /// Requests answered `error …` (parse errors, unknown verbs,
    /// unknown transactions, durability failures).
    pub errors: usize,
    /// The admission-side counters of the ingress behind the server.
    pub ingress: IngressStats,
}

/// Longest accepted request: a text line (newline included) or a binary
/// frame payload. A peer that streams more is answered with an error
/// and disconnected — the cap is enforced *while* the request
/// accumulates, so per-connection memory stays bounded no matter what
/// arrives on the socket.
pub const MAX_LINE: u64 = 64 * 1024;

/// Parse one transaction invocation `Name(arg, …)`: a bare `Name()`
/// call with comma-separated arguments — `"double-quoted"` strings,
/// decimal integers, anything else a bare string. This is the argument
/// grammar of both the `invoke` wire verb and `migctl enforce`'s script
/// lines (the CLI delegates here), so scripts replay over the wire
/// unchanged. The arguments are collected without a vector when there
/// is one.
pub fn parse_invocation(line: &str) -> Result<(&str, Assignment), String> {
    let line = line.trim();
    let err = |msg: &str| format!("{msg}: `{line}`");
    let open = line.find('(').ok_or_else(|| err("expected `Name(args…)`"))?;
    let close = line.rfind(')').ok_or_else(|| err("missing `)`"))?;
    if close < open {
        return Err(err("missing `)`"));
    }
    let name = line[..open].trim();
    if name.is_empty() {
        return Err(err("empty transaction name"));
    }
    let inner = &line[open + 1..close];
    let parts = inner.split(',').filter(|_| !inner.trim().is_empty());
    let args = parts
        .map(|part| {
            let part = part.trim();
            if let Some(stripped) = part.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
                Value::str(stripped)
            } else if let Ok(i) = part.parse::<i64>() {
                Value::int(i)
            } else {
                Value::str(part)
            }
        })
        .collect();
    Ok((name, args))
}

/// Parse one `query` request body: `Class` (every current member) or
/// `Class(Attr=value, …)` (members satisfying the conjunction). Values
/// follow [`parse_invocation`]'s grammar: `"quoted"` strings, decimal
/// integers, anything else a bare string. Returns the class and the
/// compiled [`Condition`](migratory_model::Condition). The server
/// evaluates it on the event thread under the ingress's shared monitor
/// lock ([`IngressClient::read`](super::ingress::IngressClient::read)),
/// so a query sees every acknowledged op and never a rejected op or part
/// of a block.
pub fn parse_query(
    schema: &Schema,
    body: &str,
) -> Result<(migratory_model::ClassId, migratory_model::Condition), String> {
    use migratory_model::{Atom, Condition};
    let body = body.trim();
    let err = |msg: &str| format!("{msg}: `{body}`");
    let (name, inner) = match body.find('(') {
        None => {
            if body.is_empty() {
                return Err(err("expected `query Class` or `query Class(Attr=value, …)`"));
            }
            (body, "")
        }
        Some(open) => {
            let close = body.rfind(')').ok_or_else(|| err("missing `)`"))?;
            if close < open {
                return Err(err("missing `)`"));
            }
            (body[..open].trim(), &body[open + 1..close])
        }
    };
    let class = schema.class_id(name).ok_or_else(|| format!("unknown class `{name}`"))?;
    let mut cond = Condition::empty();
    if !inner.trim().is_empty() {
        for part in inner.split(',') {
            let (attr, value) = part.split_once('=').ok_or_else(|| err("expected `Attr=value`"))?;
            let attr = attr.trim();
            let attr = schema.attr_id(attr).ok_or_else(|| format!("unknown attribute `{attr}`"))?;
            let value = value.trim();
            let v = if let Some(s) = value.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
                Value::str(s)
            } else if let Ok(i) = value.parse::<i64>() {
                Value::int(i)
            } else {
                Value::str(value)
            };
            cond.push(Atom::eq_const(attr, v));
        }
    }
    Ok((class, cond))
}

/// Constraint-evolution gauges: read by the `stats` verb on the event
/// threads, published at serve time (so a recovered server reports its
/// recovered epoch), by a `redefine` once its record is durable and by a
/// `promote`, and mirrored into the Prometheus metrics when those are
/// configured.
#[derive(Default)]
pub(super) struct EvolutionGauges {
    /// Current inventory epoch.
    pub(super) epoch: AtomicU64,
    /// Redefinitions applied over the monitor's history.
    pub(super) redefines: AtomicU64,
    /// Objects quarantined across every redefinition.
    pub(super) quarantined: AtomicU64,
}

impl EvolutionGauges {
    /// Publish a monitor's [`evolution`] totals here and to `metrics`.
    fn publish(&self, metrics: Option<&AdmissionMetrics>, totals: [u64; 3]) {
        let [epoch, redefines, quarantined] = totals;
        self.epoch.store(epoch, Ordering::SeqCst);
        self.redefines.store(redefines, Ordering::SeqCst);
        self.quarantined.store(quarantined, Ordering::SeqCst);
        if let Some(m) = metrics {
            m.epoch.store(epoch, Ordering::Relaxed);
            m.redefine_total.store(redefines, Ordering::Relaxed);
            m.quarantined_objects.store(quarantined, Ordering::Relaxed);
        }
    }
}

/// A monitor's evolution totals: epoch, redefinitions, quarantined
/// objects.
fn evolution(m: &ShardedMonitor<'_>) -> [u64; 3] {
    [m.epoch(), m.redefine_total(), m.quarantined_total()]
}

/// Per-server state shared by every event thread.
struct ServerShared<'h> {
    /// Precomputed `schema` reply text (the schema is immutable).
    schema_line: String,
    /// Admission lanes behind the server (for the `stats` reply).
    lanes: usize,
    /// Degraded-mode flag and checkpoint status, shared with the
    /// admission worker and its snapshotter.
    health: &'h Health,
    /// Admission histograms for the `stats prom` verb (absent when the
    /// server was configured without them — `stats prom` then returns
    /// an empty payload).
    metrics: Option<Arc<AdmissionMetrics>>,
    /// The schema behind the monitor: the `redefine` verb parses its
    /// new-inventory source against it on the event thread.
    schema: &'h Schema,
    /// The role alphabet: `redefine` parses its inventory source over it,
    /// and violation diagnostics render in it.
    alphabet: &'h RoleAlphabet,
    /// Evolution gauges for the `stats` line (`Arc`: the redefine admin
    /// op's completion outlives the event threads' borrows).
    evo: Arc<EvolutionGauges>,
    /// Replica switchboard, present only when serving `--replica-of`:
    /// write verbs are refused while it is read-only, and the `promote`
    /// verb flips it.
    replica: Option<Arc<super::repl::ReplicaCtl>>,
    /// Replication tee, present only when serving `--repl-addr`: the
    /// `stats` line reports its attached-peer count and shipped horizon
    /// (the signal an operator waits on before opening `replica-K`
    /// traffic).
    repl: Option<Arc<super::repl::Replicator>>,
}

/// The `stats` verb's reply text, formatted at the requesting
/// connection's flush moment.
fn stats_line(ev: &event::EventShared, shared: &ServerShared<'_>) -> String {
    let mut line = format!(
        "stats requests={} admitted={} rejected={} errors={} connections={} lanes={} \
         degraded={} last_checkpoint={} epoch={} redefines={} quarantined={}",
        ev.requests.load(Ordering::SeqCst),
        ev.admitted.load(Ordering::SeqCst),
        ev.rejected.load(Ordering::SeqCst),
        ev.errors.load(Ordering::SeqCst),
        ev.connections.load(Ordering::SeqCst),
        shared.lanes,
        if shared.health.is_degraded() { "yes" } else { "no" },
        shared.health.checkpoint_token(),
        shared.evo.epoch.load(Ordering::SeqCst),
        shared.evo.redefines.load(Ordering::SeqCst),
        shared.evo.quarantined.load(Ordering::SeqCst),
    );
    // Replication fields trail the stable flat line and appear only on
    // replicating servers, so the line is byte-identical to the
    // standalone form everywhere else.
    if let Some(repl) = &shared.repl {
        use std::fmt::Write as _;
        let _ = write!(
            line,
            " repl=primary replicas={} shipped={}",
            repl.live_replicas(),
            repl.horizon()
        );
    }
    if let Some(ctl) = &shared.replica {
        use std::fmt::Write as _;
        let role = if ctl.is_read_only() { "replica" } else { "promoted" };
        let _ =
            write!(line, " repl={role} applied={} horizon={}", ctl.applied(), ctl.stream_horizon());
    }
    line
}

/// The complete reply bytes of a `stats` request, formatted at the
/// requesting connection's flush moment. `prom` selects the Prometheus
/// text exposition (framed `ok prom <len>\n<payload>` so the reader
/// knows where the multi-line payload ends); plain `stats` keeps its
/// flat single-line form byte-for-byte.
fn stats_reply(out: &mut Vec<u8>, ev: &event::EventShared, shared: &ServerShared<'_>, prom: bool) {
    let (text, body) = if prom {
        let body =
            shared.metrics.as_deref().map(AdmissionMetrics::render_prometheus).unwrap_or_default();
        (format!("prom {}", body.len()), body)
    } else {
        (stats_line(ev, shared), String::new())
    };
    event::Outcome::Ok(text).encode(out, conn::Dialect::Text, shared.alphabet);
    out.extend_from_slice(body.as_bytes());
}

/// Serve the wire protocol on `listener` until a client sends
/// `shutdown` (or the process dies): accept concurrent connections,
/// map each onto an ingress producer, answer every request in order on
/// its own socket, then drain gracefully — every in-flight `invoke` is
/// answered before its socket closes and the call returns.
///
/// Attach the monitor's policy before serving. The admission pipeline
/// is [`ServerConfig::ingress`] (see [`ingress::serve`]): its
/// [`Health`] is the flag the `stats` and `rearm` verbs read and clear,
/// and where the ingress records its checkpoint outcomes.
///
/// # Errors
/// Propagates the listener's fatal I/O errors (per-connection I/O
/// errors only end that connection), and refuses a replica
/// ([`ServerConfig::replica_of`]) without a write-ahead log or with a
/// replicator of its own.
pub fn serve(
    listener: TcpListener,
    monitor: &mut ShardedMonitor<'_>,
    ts: &TransactionSchema,
    config: &ServerConfig,
) -> std::io::Result<NetStats> {
    listener.set_nonblocking(true)?;
    // Re-arm the accept backlog: std's bind hardcodes 128, which makes
    // any >128-client connect burst sit out SYN retransmit timeouts.
    // Best-effort — the kernel caps it at `somaxconn`, and a listener
    // that somehow refuses stays at std's default.
    let _ = polling::set_backlog(listener.as_raw_fd(), 4096);
    let (schema, alphabet) = (monitor.schema(), monitor.alphabet());
    let mut schema_line = format!(
        "schema components={} shards={} transactions",
        schema.num_components(),
        monitor.num_shards()
    );
    for t in ts.transactions() {
        schema_line.push_str(&format!(" {}/{}", t.name, t.params.len()));
    }
    let evo = Arc::new(EvolutionGauges::default());
    let metrics = config.ingress.metrics.as_ref();
    evo.publish(metrics.map(|m| &**m), evolution(monitor));
    let durable = config.ingress.wal.as_ref();
    let repl = durable.and_then(|d| d.repl.as_ref());
    let replica = match (config.replica_of.as_deref(), durable) {
        (None, _) => None,
        (Some(_), None) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication requires the durable pipeline (serve with a wal handle)",
            ))
        }
        (Some(_), Some(_)) if repl.is_some() => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a server is a primary (repl) or a replica (replica_of), not both",
            ))
        }
        (Some(upstream), Some(d)) => Some((Arc::new(super::repl::ReplicaCtl::new(upstream)), d)),
    };
    let ev = event::EventShared::new(config.io_threads.max(1))?;
    // Flags the replication side threads (acceptor / puller) to exit
    // once the event core returned; they are joined before the ingress
    // drains, so admin ops they posted are always answered.
    let repl_stop = std::sync::atomic::AtomicBool::new(false);
    let (run_result, ingress_stats) = ingress::serve(monitor, &config.ingress, |client| {
        let shared = ServerShared {
            schema_line,
            lanes: client.lanes(),
            health: &config.ingress.health,
            metrics: metrics.cloned(),
            schema,
            alphabet,
            evo,
            replica: replica.as_ref().map(|(ctl, _)| ctl.clone()),
            repl: repl.cloned(),
        };
        std::thread::scope(|rs| {
            if let Some(repl) = repl {
                std::thread::Builder::new()
                    .name("mig-repl-accept".into())
                    .spawn_scoped(rs, || super::repl::acceptor(repl, client, &repl_stop))
                    .expect("spawn the replication acceptor");
            }
            if let Some((ctl, d)) = &replica {
                std::thread::Builder::new()
                    .name("mig-repl-pull".into())
                    .spawn_scoped(rs, move || {
                        super::repl::puller(ctl.upstream(), ctl, &d.log, client, metrics);
                    })
                    .expect("spawn the replication puller");
            }
            let out = event::run(&listener, client, ts, &shared, config, &ev);
            repl_stop.store(true, Ordering::SeqCst);
            if let Some((ctl, _)) = &replica {
                ctl.request_stop();
            }
            out
        })
    });
    // Close the tee only after the pipeline returned: the worker drains
    // and ships the tail *after* the event core stops accepting traffic.
    if let Some(repl) = repl {
        repl.close();
    }
    run_result?;
    Ok(NetStats {
        connections: ev.connections.load(Ordering::SeqCst),
        requests: ev.requests.load(Ordering::SeqCst),
        admitted: ev.admitted.load(Ordering::SeqCst),
        rejected: ev.rejected.load(Ordering::SeqCst),
        errors: ev.errors.load(Ordering::SeqCst),
        ingress: ingress_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::RoleAlphabet;
    use crate::enforce::StepPolicy;
    use crate::{Inventory, PatternKind};
    use migratory_lang::parse_transactions;
    use migratory_model::SchemaBuilder;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Asks the server at this address to shut down when dropped, so a
    /// failing assertion cannot leave it running and its thread scope
    /// waiting for it forever.
    struct ShutdownOnDrop(std::net::SocketAddr);

    impl Drop for ShutdownOnDrop {
        fn drop(&mut self) {
            if let Ok(mut c) = TcpStream::connect(self.0) {
                let _ = c.write_all(b"shutdown\n");
            }
        }
    }

    fn multi_schema() -> migratory_model::Schema {
        let mut b = SchemaBuilder::new();
        for r in 0..2 {
            let root = b.class(&format!("R{r}"), &[&format!("K{r}")]).unwrap();
            b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn invocation_parsing_matches_script_grammar() {
        let (name, args) = parse_invocation("Mk(1, \"two words\", bare)").unwrap();
        assert_eq!(name, "Mk");
        assert_eq!(args.as_slice(), [Value::int(1), Value::str("two words"), Value::str("bare")]);
        let (name, args) = parse_invocation("  Noop()  ").unwrap();
        assert_eq!((name, args.len()), ("Noop", 0));
        assert!(parse_invocation("Mk 1").is_err());
        assert!(parse_invocation("(1)").is_err());
        assert!(parse_invocation("Mk)1(").is_err());
    }

    /// End to end over a real socket: verbs, per-connection reply
    /// order, violation diagnostics, drain on `shutdown`.
    #[test]
    fn serves_verbs_and_drains_on_shutdown() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
        ",
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2)
                    .with_policy(StepPolicy::EveryApplication);
                serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
            });
            let _stop = ShutdownOnDrop(addr);
            let conn = TcpStream::connect(addr).unwrap();
            let mut w = conn.try_clone().unwrap();
            let mut replies = BufReader::new(conn).lines().map(|l| l.unwrap());
            let mut ask = |req: &str| {
                writeln!(w, "{req}").unwrap();
                replies.next().expect("one reply per request")
            };
            assert_eq!(ask("ping"), "ok pong");
            assert!(ask("schema").contains("transactions Mk0/1 Up0/1 Mk1/1"));
            assert_eq!(ask("invoke Mk0(a)"), "ok");
            assert_eq!(ask("invoke Mk1(b)"), "ok");
            let v = ask("invoke Up0(a)");
            assert!(v.starts_with("violation "), "specialization is forbidden: {v}");
            assert!(v.contains("[S0]"), "diagnostic names the offending role set: {v}");
            assert!(ask("invoke Nope(1)").starts_with("error unknown transaction"));
            assert!(ask("invoke Mk0").starts_with("error "));
            assert!(ask("bogus").starts_with("error unknown verb"));
            let st = ask("stats");
            assert!(st.contains("admitted=2 rejected=1"), "{st}");
            assert_eq!(ask("shutdown"), "ok draining");
            server.join().unwrap()
        });
        assert_eq!(stats.connections, 1);
        assert_eq!((stats.admitted, stats.rejected), (2, 1));
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.ingress.admitted, 2);
    }

    /// `quit` ends one connection without touching the server; the
    /// socket reads EOF after `ok bye`.
    #[test]
    fn quit_closes_one_connection_only() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
                serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
            });
            let _stop = ShutdownOnDrop(addr);
            let mut first = TcpStream::connect(addr).unwrap();
            first.write_all(b"invoke Mk0(x)\nquit\n").unwrap();
            let mut lines = Vec::new();
            BufReader::new(&first).read_to_end_lines(&mut lines);
            assert_eq!(lines, vec!["ok".to_owned(), "ok bye".to_owned()]);
            // The server is still alive for a second connection.
            let mut second = TcpStream::connect(addr).unwrap();
            second.write_all(b"invoke Mk0(y)\nshutdown\n").unwrap();
            let mut lines = Vec::new();
            BufReader::new(&second).read_to_end_lines(&mut lines);
            assert_eq!(lines, vec!["ok".to_owned(), "ok draining".to_owned()]);
            server.join().unwrap()
        });
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.admitted, 2);
    }

    /// A request line longer than [`MAX_LINE`] is answered with one
    /// error reply and the connection is closed — per-connection memory
    /// is bounded, the server survives.
    #[test]
    fn oversized_request_line_is_refused() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
                serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
            });
            let _stop = ShutdownOnDrop(addr);
            let mut flood = TcpStream::connect(addr).unwrap();
            let junk = vec![b'x'; MAX_LINE as usize + 4096];
            // The server may reset mid-flood (it stops reading and
            // closes with bytes still in flight), so the write and the
            // reply read may both fail — what matters is that the
            // connection dies promptly and the server survives.
            let _ = flood.write_all(&junk);
            let mut lines = Vec::new();
            for line in BufReader::new(&flood).lines() {
                let Ok(line) = line else { break }; // reset mid-read is fine
                lines.push(line);
            }
            assert!(lines.len() <= 1, "at most the one error reply: {lines:?}");
            if let Some(reply) = lines.first() {
                assert!(reply.starts_with("error request line exceeds"), "{reply}");
            }
            // The server is unharmed: a well-behaved client still works.
            let mut ok = TcpStream::connect(addr).unwrap();
            ok.write_all(b"invoke Mk0(fine)\nshutdown\n").unwrap();
            let mut lines = Vec::new();
            BufReader::new(&ok).read_to_end_lines(&mut lines);
            assert_eq!(lines, vec!["ok".to_owned(), "ok draining".to_owned()]);
            server.join().unwrap()
        });
        assert_eq!(stats.admitted, 1);
    }

    /// Binary frames and text lines interleave on one connection, each
    /// answered in its own dialect, and `invoke` frames admit exactly
    /// like their text twins.
    #[test]
    fn binary_frames_interleave_with_text_on_one_connection() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
        ",
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2)
                    .with_policy(StepPolicy::EveryApplication);
                serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
            });
            let _stop = ShutdownOnDrop(addr);
            let mut conn = TcpStream::connect(addr).unwrap();
            // Text, then frame, then text again — one write.
            let mut wire = Vec::new();
            wire.extend_from_slice(b"invoke Mk0(t1)\n");
            frame::encode_invoke_frame(&mut wire, "Mk0", &[Value::str("b1")]);
            frame::encode_invoke_frame(&mut wire, "Up0", &[Value::str("t1")]);
            frame::encode_invoke_frame(&mut wire, "Nope", &[]);
            wire.extend_from_slice(b"ping\n");
            conn.write_all(&wire).unwrap();
            let mut r = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, "ok\n");
            let (kind, payload) = frame::read_frame(&mut r).unwrap();
            assert_eq!((kind, payload.len()), (frame::REP_OK, 0));
            let (kind, payload) = frame::read_frame(&mut r).unwrap();
            assert_eq!(kind, frame::REP_VIOLATION);
            assert!(String::from_utf8(payload).unwrap().contains("[S0]"));
            let (kind, payload) = frame::read_frame(&mut r).unwrap();
            assert_eq!(kind, frame::REP_ERROR);
            assert!(String::from_utf8(payload).unwrap().contains("unknown transaction"));
            line.clear();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, "ok pong\n");
            conn.write_all(b"shutdown\n").unwrap();
            line.clear();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, "ok draining\n");
            server.join().unwrap()
        });
        assert_eq!((stats.admitted, stats.rejected, stats.errors), (2, 1, 1));
        assert_eq!(stats.requests, 6);
    }

    /// The admission pipeline behind the socket front end, with a WAL
    /// and without: acks arrive only after the committer released them
    /// (synced, with a WAL), `stats prom` exposes the admission
    /// histograms length-prefixed, the flat `stats` line is untouched,
    /// and the log alone recovers every acked op.
    #[test]
    fn durable_pipeline_serves_and_answers_stats_prom() {
        for durable in [true, false] {
            pipeline_serves_and_answers_stats_prom(durable);
        }
    }

    /// Sum of every series of a Prometheus payload whose line starts
    /// with `prefix` (all `shard` labels).
    fn prom_total(text: &str, prefix: &str) -> u64 {
        text.lines()
            .filter(|l| l.starts_with(prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    }

    fn pipeline_serves_and_answers_stats_prom(durable: bool) {
        use crate::enforce::{DurableLog, FsyncPolicy, Wal};
        use std::io::Read;
        use std::sync::Mutex;
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
        let dir = std::env::temp_dir().join(format!("migratory-net-prom-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = durable
            .then(|| Arc::new(Mutex::new(Wal::open(&dir).unwrap().with_fsync(FsyncPolicy::Batch))));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = Arc::new(AdmissionMetrics::new(2));
        let config = ServerConfig {
            ingress: IngressConfig {
                wal: wal.clone().map(|log| DurableLog { log, repl: None }),
                metrics: Some(metrics.clone()),
                ..IngressConfig::default()
            },
            ..ServerConfig::default()
        };
        let (stats, text) = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
                serve(listener, &mut m, &ts, &config).unwrap()
            });
            let _stop = ShutdownOnDrop(addr);
            let conn = TcpStream::connect(addr).unwrap();
            let mut w = conn.try_clone().unwrap();
            let mut r = BufReader::new(conn);
            let mut line = String::new();
            w.write_all(b"invoke Mk0(a)\ninvoke Mk0(b)\nstats prom\n").unwrap();
            for _ in 0..2 {
                line.clear();
                r.read_line(&mut line).unwrap();
                assert_eq!(line, "ok\n");
            }
            line.clear();
            r.read_line(&mut line).unwrap();
            let len: usize = line.strip_prefix("ok prom ").expect(&line).trim().parse().unwrap();
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload).unwrap();
            let text = String::from_utf8(payload).unwrap();
            assert!(text.contains("# TYPE migratory_commit_latency_us histogram"), "{text}");
            assert!(text.contains("migratory_fsync_batch_count"), "{text}");
            // The flat form is byte-compatible with the pre-pipeline
            // server (scripts and tests parse it).
            w.write_all(b"stats\nshutdown\n").unwrap();
            line.clear();
            r.read_line(&mut line).unwrap();
            assert!(line.starts_with("ok stats requests="), "{line}");
            line.clear();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, "ok draining\n");
            (server.join().unwrap(), text)
        });
        assert_eq!(stats.admitted, 2);
        if !durable {
            // Without a WAL the committer still stamps every admitted
            // block and its commit latency, and never an fsync batch.
            assert_eq!(prom_total(&text, "migratory_block_size_sum"), 2, "{text}");
            assert!(prom_total(&text, "migratory_commit_latency_us_count") >= 1, "{text}");
            assert_eq!(prom_total(&text, "migratory_fsync_batch_count"), 0, "{text}");
            return;
        }
        assert!(metrics.fsync_batch.count() >= 1, "committer stamped its batches");
        assert!(metrics.commit_latency_us.iter().map(|h| h.count()).sum::<u64>() >= 1);
        // Acked ⇒ durable: the log alone rebuilds both objects.
        let (snap, tail) = Wal::load(&dir).unwrap();
        let m = ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 2, snap, tail).unwrap();
        assert_eq!(m.db().num_objects(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Read every remaining line until EOF (test helper).
    trait ReadLines {
        fn read_to_end_lines(self, out: &mut Vec<String>);
    }
    impl<R: std::io::Read> ReadLines for BufReader<R> {
        fn read_to_end_lines(self, out: &mut Vec<String>) {
            for line in self.lines() {
                out.push(line.unwrap());
            }
        }
    }
}
