//! The poll-based event core: a fixed handful of I/O threads multiplex
//! every client socket.
//!
//! Each event thread owns a disjoint set of connections (assigned round
//! robin at accept) plus an **inbox** — a mutex-protected mailbox paired
//! with a self-pipe [`Waker`] that makes `poll(2)` return when something
//! lands in it. Three kinds of mail arrive:
//!
//! * **Connection handoffs** from thread 0's accept handling.
//! * **Admission completions**: the ingress worker runs each `invoke`'s
//!   [`Completion`] callback, which counts the outcome and mails it to
//!   the owning thread (`conn`, `seq`) so the reply lands in the right
//!   slot of the right connection.
//! * **Space signals**: the worker drained a block, so a connection
//!   parked on a full admission lane may retry its post.
//!
//! A `query` needs no mail: the event thread evaluates it under the
//! ingress's shared monitor lock and fills its slot at once.
//!
//! The loop per thread: drain the inbox, apply completions, pump the
//! **dirty** connections (retry parked posts, extract + dispatch
//! requests, flush ready replies, write), reap expired deadlines, then
//! `poll` the sockets whose interest survives the backpressure gates
//! ([`Conn::wants_read`]). Per-iteration work is proportional to what
//! actually happened: a connection nothing happened to is neither
//! pumped nor polled (one parked on admission mail leaves the poll set
//! entirely), and a burst of completions coalesces into one wakeup.
//! Thread count is O(`io_threads` + shards) — independent of the number
//! of connections, which is the point.

use super::conn::{Conn, Extracted, Pending, ReadOutcome, Request, Slot};
use super::frame;
use super::{parse_invocation, stats_reply, ServerConfig, ServerShared, MAX_LINE};
use crate::alphabet::RoleAlphabet;
use crate::enforce::ingress::{Completion, IngressClient};
use crate::enforce::{EnforceError, ResiduePolicy};
use crate::Inventory;
use migratory_lang::{Assignment, Transaction, TransactionSchema};
use polling::{Epoll, EpollEvent, Waker, EPOLLIN, EPOLLOUT};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a connection's unsent replies may sit without the peer
/// accepting a byte before the connection is declared dead — the
/// nonblocking replacement for the old per-socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a draining connection gets to read its final replies before
/// it is force-closed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// What fills a waiting reply slot when its mail arrives.
pub(super) enum Reply {
    /// An `invoke` admission outcome: rendered in the slot's dialect at
    /// delivery (the violation diagnostic needs the alphabet).
    Outcome(Result<(), EnforceError>),
    /// Pre-rendered reply bytes (admin ops — `redefine`, `promote` —
    /// render on the admission worker, where the dialect is already
    /// captured).
    Bytes(Vec<u8>),
}

/// A completed admission outcome on its way back to the owning event
/// thread.
pub(super) struct Done {
    conn: u64,
    seq: u64,
    reply: Reply,
}

#[derive(Default)]
struct InboxQ {
    dones: Vec<Done>,
    conns: Vec<(u64, TcpStream)>,
    space: bool,
    /// A waker byte is already owed for this mail: further pushes before
    /// the owner's next `take` skip the pipe write, so a burst of
    /// completions costs one wakeup, not one syscall each.
    signaled: bool,
}

/// One event thread's mailbox: cross-thread deliveries plus the waker
/// that interrupts its `poll`.
pub(super) struct Inbox {
    q: Mutex<InboxQ>,
    waker: Waker,
}

/// Poison-tolerant mailbox lock: a panicking sibling must not take the
/// other event threads (and the graceful drain) down with it.
fn lock_q(inbox: &Inbox) -> std::sync::MutexGuard<'_, InboxQ> {
    inbox.q.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inbox {
    /// Deliver mail under the lock and wake the owner unless a wake is
    /// already owed (coalesced wakeups).
    fn push(&self, deliver: impl FnOnce(&mut InboxQ)) {
        let mut q = lock_q(self);
        deliver(&mut q);
        let wake = !std::mem::replace(&mut q.signaled, true);
        drop(q);
        if wake {
            self.waker.wake();
        }
    }

    fn push_done(&self, d: Done) {
        self.push(|q| q.dones.push(d));
    }

    fn push_conn(&self, id: u64, stream: TcpStream) {
        self.push(|q| q.conns.push((id, stream)));
    }

    fn signal_space(&self) {
        self.push(|q| q.space = true);
    }

    fn take(&self) -> InboxQ {
        // Drain the pipe *before* taking the queue: a producer racing in
        // between leaves at worst a spurious wake byte behind, never a
        // push without one. `mem::take` resets `signaled`, re-arming the
        // next producer's wake.
        self.waker.drain();
        std::mem::take(&mut *lock_q(self))
    }
}

/// State shared by every event thread and (via `Arc` clones inside
/// completion callbacks) the admission worker. `'static` on purpose:
/// completions may outlive the event threads — a force-closed
/// connection's outcomes still count, they just have nowhere to go.
pub(super) struct EventShared {
    pub(super) inboxes: Vec<Inbox>,
    /// Set by the `shutdown` verb (or a fatal listener error): stop
    /// accepting, drain every connection, exit.
    pub(super) shutdown: AtomicBool,
    /// Set by thread 0 at its drain transition: no further connection
    /// handoffs will ever be mailed, so sibling threads may exit once
    /// their own connections and inbox are empty.
    accept_done: AtomicBool,
    /// Currently open connections (the accept-time capacity gate).
    live: AtomicUsize,
    pub(super) connections: AtomicUsize,
    pub(super) requests: AtomicUsize,
    pub(super) admitted: AtomicUsize,
    pub(super) rejected: AtomicUsize,
    pub(super) errors: AtomicUsize,
    next_conn_id: AtomicU64,
}

impl EventShared {
    pub(super) fn new(threads: usize) -> std::io::Result<Arc<EventShared>> {
        let mut inboxes = Vec::with_capacity(threads);
        for _ in 0..threads {
            inboxes.push(Inbox { q: Mutex::new(InboxQ::default()), waker: Waker::new()? });
        }
        Ok(Arc::new(EventShared {
            inboxes,
            shutdown: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            admitted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
        }))
    }

    fn wake_all(&self) {
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
    }
}

/// Constant-time shared-secret comparison: fold both sides through
/// fixed-width multi-lane FNV-1a digests and compare every lane
/// unconditionally. A plain `==` returns at the first mismatching
/// byte, so a network attacker can binary-search the token one prefix
/// byte at a time from reply latency; digesting first makes the work
/// depend only on the *lengths* (the attacker already knows their own,
/// and the secret's contributes a constant offset that per-guess
/// timing cannot probe incrementally).
fn token_eq(expected: &str, got: &str) -> bool {
    fn digest(s: &str) -> [u64; 4] {
        let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
        for (i, b) in s.bytes().enumerate() {
            lanes[i & 3] ^= u64::from(b);
            lanes[i & 3] = lanes[i & 3].wrapping_mul(0x100_0000_01b3);
        }
        // Fold the length in so per-lane byte streams alone cannot
        // collide two strings of different lengths.
        for lane in &mut lanes {
            *lane ^= s.len() as u64;
            *lane = lane.wrapping_mul(0x100_0000_01b3);
        }
        lanes
    }
    let (a, b) = (digest(expected), digest(got));
    (0..4).fold(0u64, |acc, i| acc | (a[i] ^ b[i])) == 0
}

/// Count an error reply (uniformly, at slot creation) and encode it in
/// the request's dialect: `error <msg>\n` or a [`frame::REP_ERROR`]
/// frame carrying `<msg>`.
fn error_reply(ev: &EventShared, binary: bool, msg: &str) -> Vec<u8> {
    ev.errors.fetch_add(1, Ordering::SeqCst);
    reply(binary, frame::REP_ERROR, "error", msg)
}

/// Encode a reply in the request's dialect: a `kind` frame carrying
/// `text` (shortened to the frame cap), or the line `<word> <text>\n`.
fn reply(binary: bool, kind: u8, word: &str, text: &str) -> Vec<u8> {
    if !binary {
        return format!("{word} {text}\n").into_bytes();
    }
    let mut out = Vec::new();
    frame::encode_reply(&mut out, kind, text);
    out
}

/// Encode an admission outcome in the request's dialect. Counting
/// already happened in the completion callback — this only formats.
fn outcome_reply(
    outcome: &Result<(), EnforceError>,
    binary: bool,
    alphabet: &RoleAlphabet,
) -> Vec<u8> {
    match outcome {
        Ok(()) if binary => reply(true, frame::REP_OK, "ok", ""),
        Ok(()) => b"ok\n".to_vec(),
        Err(EnforceError::Violation(v)) => {
            reply(binary, frame::REP_VIOLATION, "violation", &v.display(alphabet))
        }
        Err(e) => reply(binary, frame::REP_ERROR, "error", &e.to_string()),
    }
}

/// Build an `invoke`'s completion callback: count the outcome (here, on
/// the admission worker, so the counters stay truthful even if the
/// connection died meanwhile) and mail it to the owning event thread.
fn completion<'t>(ev: &Arc<EventShared>, owner: usize, conn: u64, seq: u64) -> Completion<'t> {
    let ev = Arc::clone(ev);
    Box::new(move |outcome| {
        match &outcome {
            Ok(()) => ev.admitted.fetch_add(1, Ordering::SeqCst),
            Err(EnforceError::Violation(_)) => ev.rejected.fetch_add(1, Ordering::SeqCst),
            Err(_) => ev.errors.fetch_add(1, Ordering::SeqCst),
        };
        ev.inboxes[owner].push_done(Done { conn, seq, reply: Reply::Outcome(outcome) });
    })
}

/// Run the event core: the calling thread becomes event thread 0 (which
/// also owns the listener); threads `1..io_threads` are spawned for the
/// duration. Returns once every thread drained — i.e. after `shutdown`
/// (or a fatal listener error, which is returned after the drain).
pub(super) fn run<'t>(
    listener: &TcpListener,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    alphabet: &RoleAlphabet,
    shared: &ServerShared<'_>,
    config: &ServerConfig,
    ev: &Arc<EventShared>,
) -> std::io::Result<()> {
    for i in 0..ev.inboxes.len() {
        let ev = Arc::clone(ev);
        client.on_space(move || ev.inboxes[i].signal_space());
    }
    std::thread::scope(|scope| {
        for me in 1..ev.inboxes.len() {
            let ev = Arc::clone(ev);
            std::thread::Builder::new()
                .name(format!("mig-event-{me}"))
                .spawn_scoped(scope, move || {
                    event_thread(me, &ev, None, client, ts, alphabet, shared, config)
                })
                .expect("spawn an event thread");
        }
        event_thread(0, ev, Some(listener), client, ts, alphabet, shared, config)
    })
}

/// The readiness interest a connection wants right now: readable while
/// it can absorb more requests, writable while replies are queued. The
/// same derivation is used at registration and at every reconcile, so
/// the kernel's view never drifts from the connection's.
fn interest_of(c: &Conn<'_>, pipeline: usize) -> u32 {
    let mut want = 0;
    if c.wants_read(pipeline) {
        want |= EPOLLIN;
    }
    if c.wants_write() {
        want |= EPOLLOUT;
    }
    want
}

/// Register a connection's socket with the event thread's epoll
/// instance under its connection id. A connection whose interest is
/// currently empty stays registered with zero events — parked on inbox
/// mail, invisible to `epoll_wait` — and closing the socket later
/// deregisters it implicitly.
fn register(ep: &Epoll, c: &mut Conn<'_>, pipeline: usize) -> std::io::Result<()> {
    let want = interest_of(c, pipeline);
    ep.add(c.stream.as_raw_fd(), want, c.id)?;
    c.interest = want;
    Ok(())
}

/// Accept until the listener runs dry; returns the listener's fatal
/// error, if any (per-connection failures only skip that socket).
#[allow(clippy::too_many_arguments)]
fn accept_burst<'t>(
    listener: &TcpListener,
    me: usize,
    conns: &mut HashMap<u64, Conn<'t>>,
    ep: &Epoll,
    pipeline: usize,
    ev: &Arc<EventShared>,
    config: &ServerConfig,
) -> std::io::Result<()> {
    let threads = ev.inboxes.len();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if config.max_connections > 0
                    && ev.live.load(Ordering::SeqCst) >= config.max_connections
                {
                    // Over the cap: one error line, then close. `live`
                    // counts exactly the open connections, so the cap
                    // frees up as peers disconnect. (Refusals are not
                    // counted anywhere — the socket never becomes a
                    // connection.)
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let mut s = &stream;
                    let _ = writeln!(
                        s,
                        "error server at connection capacity ({})",
                        config.max_connections
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                ev.live.fetch_add(1, Ordering::SeqCst);
                ev.connections.fetch_add(1, Ordering::SeqCst);
                let id = ev.next_conn_id.fetch_add(1, Ordering::SeqCst);
                let target = (id as usize) % threads;
                if target == me {
                    let mut c = Conn::new(stream, id, config.auth.is_none());
                    if register(ep, &mut c, pipeline).is_err() {
                        // Registration failure (fd table churn): the
                        // socket can never be polled, so drop it as if
                        // the accept had failed.
                        ev.live.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    conns.insert(id, c);
                } else {
                    ev.inboxes[target].push_conn(id, stream);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Post an `invoke` (or park it as the connection's pending op when its
/// lane is full — which suppresses the connection's read interest until
/// a space signal lets the retry through).
fn post_invoke<'t>(
    c: &mut Conn<'t>,
    t: &'t Transaction,
    args: Assignment,
    binary: bool,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
) {
    let seq = c.push_slot(Slot::Waiting { binary });
    let done = completion(ev, me, c.id, seq);
    if let Err((args, done)) = client.try_post_done(t, args, done) {
        c.pending = Some(Pending { t, args, done });
    }
}

/// Post a `redefine` as an admin barrier op. The new-inventory source
/// is parsed here on the event thread (a hostile payload is refused
/// before it ever touches the admission worker); the op itself runs on
/// the worker with exclusive monitor access, and the reply — rendered
/// in the request's dialect — is mailed back only once the verdict is
/// known *and* the write-ahead record is durable (or the attempt was
/// refused/rolled back).
#[allow(clippy::too_many_arguments)]
fn post_redefine<'t>(
    c: &mut Conn<'t>,
    policy: ResiduePolicy,
    source: &str,
    binary: bool,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    shared: &ServerShared<'_>,
) {
    let inv = match Inventory::parse_init(shared.schema, shared.alphabet, source) {
        Ok(inv) => inv,
        Err(e) => {
            let r = error_reply(ev, binary, &format!("redefine refused: {e}"));
            c.push_slot(Slot::Ready(r));
            return;
        }
    };
    let seq = c.push_slot(Slot::Waiting { binary });
    let (conn, owner) = (c.id, me);
    let ev = Arc::clone(ev);
    let evo = Arc::clone(&shared.evo);
    let metrics = shared.metrics.clone();
    client.post_admin(Box::new(move |gate| {
        // Phase 1, on the admission worker between blocks: apply (or
        // learn why not). Totals are read while the monitor is still
        // exclusively ours — the durable flag arrives later.
        let attempt = match gate {
            Ok(m) => {
                let result = m.redefine(&inv, policy);
                let totals = (m.epoch(), m.redefine_total(), m.quarantined_total());
                Ok((result, totals))
            }
            Err(reason) => Err(reason),
        };
        Box::new(move |durable: bool| {
            let bytes = match attempt {
                Ok((Ok(out), totals)) if durable => {
                    evo.epoch.store(totals.0, Ordering::SeqCst);
                    evo.redefines.store(totals.1, Ordering::SeqCst);
                    evo.quarantined.store(totals.2, Ordering::SeqCst);
                    if let Some(m) = metrics.as_deref() {
                        m.epoch.store(totals.0, Ordering::Relaxed);
                        m.redefine_total.store(totals.1, Ordering::Relaxed);
                        m.quarantined_objects.store(totals.2, Ordering::Relaxed);
                    }
                    let msg = format!("epoch={} residue={}", out.epoch, out.residue);
                    reply(binary, frame::REP_OK, "ok", &msg)
                }
                // The record never became durable: the worker winds the
                // monitor back to the durable image before admitting
                // anything else, so the epoch this op minted is gone.
                Ok((Ok(_), _)) => error_reply(
                    &ev,
                    binary,
                    "redefinition rolled back: write-ahead log degraded before it became durable",
                ),
                Ok((Err(e), _)) => error_reply(&ev, binary, &e.to_string()),
                Err(reason) => {
                    error_reply(&ev, binary, &EnforceError::Degraded(reason).to_string())
                }
            };
            ev.inboxes[owner].push_done(Done { conn, seq, reply: Reply::Bytes(bytes) });
        })
    }));
}

/// Answer an indexed `query` here on the event thread: the scan runs
/// under the ingress's shared monitor lock ([`IngressClient::read`]),
/// between two of the admission worker's units of work, so it sees every
/// acknowledged op and never a rejected op or part of a block. The
/// reply is ready at once; replicas and degraded primaries serve it too.
fn post_query(
    c: &mut Conn<'_>,
    class: migratory_model::ClassId,
    cond: &migratory_model::Condition,
    binary: bool,
    client: &IngressClient<'_, '_, '_>,
) {
    use std::fmt::Write as _;
    let oids = client.read(|m| m.db().sat(class, cond));
    let mut msg = format!("query count={} oids=", oids.len());
    for (i, oid) in oids.iter().take(32).enumerate() {
        if i > 0 {
            msg.push(',');
        }
        let _ = write!(msg, "{oid}");
    }
    c.push_slot(Slot::Ready(reply(binary, frame::REP_OK, "ok", &msg)));
}

/// Promote a replica to a writable primary. The pull loop is told to
/// stop first; the flip itself rides an admin barrier op so it queues
/// **behind** every apply batch the puller already posted — the
/// shipped tail folds before the halt lands, and nothing of the acked
/// stream is dropped. Phase 1 halts further applies and lifts the
/// read-only refusal while the monitor is exclusively ours.
#[allow(clippy::too_many_arguments)]
fn post_promote<'t>(
    c: &mut Conn<'t>,
    ctl: &Arc<crate::enforce::repl::ReplicaCtl>,
    binary: bool,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    shared: &ServerShared<'_>,
) {
    let seq = c.push_slot(Slot::Waiting { binary });
    let (conn, owner) = (c.id, me);
    let ev = Arc::clone(ev);
    let ctl = Arc::clone(ctl);
    let evo = Arc::clone(&shared.evo);
    let metrics = shared.metrics.clone();
    ctl.request_stop();
    client.post_admin(Box::new(move |gate| {
        let attempt = match gate {
            Ok(m) => {
                ctl.halt();
                ctl.make_writable();
                // The shipped history may carry redefinitions this
                // server folded without going through its own
                // `redefine` verb: refresh the evolution gauges so the
                // promoted primary's `stats` tells the truth.
                evo.epoch.store(m.epoch(), Ordering::SeqCst);
                evo.redefines.store(m.redefine_total(), Ordering::SeqCst);
                evo.quarantined.store(m.quarantined_total(), Ordering::SeqCst);
                if let Some(mx) = metrics.as_deref() {
                    mx.epoch.store(m.epoch(), Ordering::Relaxed);
                    mx.redefine_total.store(m.redefine_total(), Ordering::Relaxed);
                    mx.quarantined_objects.store(m.quarantined_total(), Ordering::Relaxed);
                }
                Ok((m.epoch(), ctl.applied()))
            }
            Err(reason) => Err(reason),
        };
        Box::new(move |_durable: bool| {
            let bytes = match attempt {
                Ok((epoch, applied)) => {
                    let msg = format!("promoted epoch={epoch} applied={applied}");
                    reply(binary, frame::REP_OK, "ok", &msg)
                }
                Err(reason) => {
                    error_reply(&ev, binary, &EnforceError::Degraded(reason).to_string())
                }
            };
            ev.inboxes[owner].push_done(Done { conn, seq, reply: Reply::Bytes(bytes) });
        })
    }));
}

/// The split-brain guard: a replica refuses data writes until promoted
/// — two writable heads of the same chain must never coexist. Returns
/// the refusal message when `verb` must be bounced.
fn replica_refusal(shared: &ServerShared<'_>, verb: &str) -> Option<String> {
    shared.replica.as_ref().filter(|ctl| ctl.is_read_only()).map(|ctl| {
        format!(
            "replica is read-only: {verb} refused (following {}; `promote` to accept writes)",
            ctl.upstream()
        )
    })
}

/// Dispatch one extracted request. Returns `false` when extraction on
/// this connection must stop (quit, shutdown, teardown).
#[allow(clippy::too_many_arguments)]
fn dispatch<'t>(
    c: &mut Conn<'t>,
    req: Request,
    wire: u64,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    shared: &ServerShared<'_>,
    config: &ServerConfig,
) -> bool {
    let binary = matches!(req, Request::Frame(..));
    c.last_binary = binary;
    c.bytes += wire;
    if config.max_conn_bytes > 0 && c.bytes > config.max_conn_bytes {
        let msg =
            format!("connection byte quota exceeded ({} bytes); closing", config.max_conn_bytes);
        c.teardown(Some(error_reply(ev, binary, &msg)));
        return false;
    }
    // Blank lines and comments get no reply (text dialect only — every
    // frame is a request).
    if let Request::Line(ref l) = req {
        let t = l.trim();
        if t.is_empty() || t.starts_with('#') {
            return true;
        }
    }
    ev.requests.fetch_add(1, Ordering::SeqCst);
    c.ops += 1;
    if config.max_conn_ops > 0 && c.ops > config.max_conn_ops {
        let msg = format!(
            "connection request quota exceeded ({} requests); closing",
            config.max_conn_ops
        );
        c.teardown(Some(error_reply(ev, binary, &msg)));
        return false;
    }
    if !c.authed {
        // Nothing but the correct (text) handshake is served before
        // auth — not even error details that would confirm verb names,
        // and no binary traffic at all.
        if let Request::Line(ref l) = req {
            let line = l.trim();
            let (verb, rest) = match line.split_once(char::is_whitespace) {
                Some((v, r)) => (v, r.trim()),
                None => (line, ""),
            };
            if verb == "auth" && config.auth.as_deref().is_some_and(|tok| token_eq(tok, rest)) {
                c.authed = true;
                c.push_slot(Slot::Ready(b"ok authed\n".to_vec()));
                return true;
            }
        }
        c.teardown(Some(error_reply(
            ev,
            binary,
            "authentication required (send `auth <token>` first)",
        )));
        return false;
    }
    match req {
        Request::Line(line) => dispatch_verb(c, line.trim(), me, ev, client, ts, shared),
        Request::Frame(kind, payload) => {
            dispatch_frame(c, kind, &payload, me, ev, client, ts, shared);
            true
        }
    }
}

fn dispatch_verb<'t>(
    c: &mut Conn<'t>,
    line: &str,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    shared: &ServerShared<'_>,
) -> bool {
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "invoke" => match replica_refusal(shared, "invoke") {
            Some(msg) => {
                let r = error_reply(ev, false, &msg);
                c.push_slot(Slot::Ready(r));
            }
            None => match parse_invocation(rest) {
                Ok((name, args)) => match ts.get(name) {
                    Some(t) => post_invoke(c, t, Assignment::new(args), false, me, ev, client),
                    None => {
                        let r = error_reply(ev, false, &format!("unknown transaction `{name}`"));
                        c.push_slot(Slot::Ready(r));
                    }
                },
                Err(e) => {
                    let r = error_reply(ev, false, &e);
                    c.push_slot(Slot::Ready(r));
                }
            },
        },
        "query" => {
            if rest.is_empty() {
                let r = error_reply(ev, false, "usage: query <Class>[(Attr=value,...)]");
                c.push_slot(Slot::Ready(r));
            } else {
                match super::parse_query(shared.schema, rest) {
                    Ok((class, cond)) => post_query(c, class, &cond, false, client),
                    Err(e) => {
                        let r = error_reply(ev, false, &e);
                        c.push_slot(Slot::Ready(r));
                    }
                }
            }
        }
        "schema" => {
            c.push_slot(Slot::Ready(format!("{}\n", shared.schema_line).into_bytes()));
        }
        "stats" => {
            // `stats` is the flat test-locked line; `stats prom` is the
            // Prometheus exposition, length-prefixed. Anything else
            // after the verb is an error rather than silently flat.
            let slot = match rest {
                "" => Slot::Stats { prom: false },
                "prom" => Slot::Stats { prom: true },
                other => {
                    Slot::Ready(error_reply(ev, false, &format!("unknown stats form `{other}`")))
                }
            };
            c.push_slot(slot);
        }
        "ping" => {
            c.push_slot(Slot::Ready(b"ok pong\n".to_vec()));
        }
        // Re-authenticating (or authing with no token configured) is a
        // harmless no-op, so scripts can always send it first.
        "auth" => {
            c.push_slot(Slot::Ready(b"ok authed\n".to_vec()));
        }
        "redefine" => {
            // `redefine <quarantine|certify-and-reset> <inventory src>`:
            // policy token first, the rest of the line is the source.
            let (policy, src) = match rest.split_once(char::is_whitespace) {
                Some((p, s)) => (p, s.trim()),
                None => (rest, ""),
            };
            if let Some(msg) = replica_refusal(shared, "redefine") {
                let r = error_reply(ev, false, &msg);
                c.push_slot(Slot::Ready(r));
            } else if policy.is_empty() || src.is_empty() {
                let r = error_reply(
                    ev,
                    false,
                    "usage: redefine <quarantine|certify-and-reset> <inventory source>",
                );
                c.push_slot(Slot::Ready(r));
            } else {
                match ResiduePolicy::parse(policy) {
                    Ok(p) => post_redefine(c, p, src, false, me, ev, client, shared),
                    Err(e) => {
                        let r = error_reply(ev, false, &format!("redefine refused: {e}"));
                        c.push_slot(Slot::Ready(r));
                    }
                }
            }
        }
        "rearm" => {
            // Operator action: leave degraded read-only mode. If the
            // fault persists, the next failing append re-degrades.
            shared.health.rearm();
            c.push_slot(Slot::Ready(b"ok armed\n".to_vec()));
        }
        "promote" => match &shared.replica {
            None => {
                let r = error_reply(
                    ev,
                    false,
                    "not a replica (promote targets a server started with --replica-of)",
                );
                c.push_slot(Slot::Ready(r));
            }
            Some(ctl) => post_promote(c, ctl, false, me, ev, client, shared),
        },
        "quit" => {
            c.teardown(Some(b"ok bye\n".to_vec()));
            return false;
        }
        "shutdown" => {
            c.push_slot(Slot::Ready(b"ok draining\n".to_vec()));
            c.read_open = false;
            ev.shutdown.store(true, Ordering::SeqCst);
            ev.wake_all();
            return false;
        }
        other => {
            let r = error_reply(
                ev,
                false,
                &format!(
                    "unknown verb `{other}` \
                     (invoke|query|schema|stats|ping|auth|redefine|promote|rearm|quit|shutdown)"
                ),
            );
            c.push_slot(Slot::Ready(r));
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn dispatch_frame<'t>(
    c: &mut Conn<'t>,
    kind: u8,
    payload: &[u8],
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    shared: &ServerShared<'_>,
) {
    match kind {
        frame::REQ_INVOKE => {
            if let Some(msg) = replica_refusal(shared, "invoke") {
                let rep = error_reply(ev, true, &msg);
                c.push_slot(Slot::Ready(rep));
                return;
            }
            let mut r = migratory_model::codec::Reader::new(payload);
            match migratory_lang::codec::decode_invoke(&mut r) {
                Ok((name, args)) if r.is_exhausted() => match ts.get(&name) {
                    Some(t) => post_invoke(c, t, Assignment::new(args), true, me, ev, client),
                    None => {
                        let rep = error_reply(ev, true, &format!("unknown transaction `{name}`"));
                        c.push_slot(Slot::Ready(rep));
                    }
                },
                Ok(_) => {
                    let rep = error_reply(ev, true, "trailing bytes after invoke payload");
                    c.push_slot(Slot::Ready(rep));
                }
                Err(e) => {
                    let rep = error_reply(ev, true, &e.to_string());
                    c.push_slot(Slot::Ready(rep));
                }
            }
        }
        frame::REQ_REDEFINE if replica_refusal(shared, "redefine").is_some() => {
            let msg = replica_refusal(shared, "redefine").expect("guard matched");
            let rep = error_reply(ev, true, &msg);
            c.push_slot(Slot::Ready(rep));
        }
        frame::REQ_REDEFINE => match payload.split_first() {
            None => {
                let rep = error_reply(ev, true, "empty redefine payload");
                c.push_slot(Slot::Ready(rep));
            }
            Some((pb, src)) => match (ResiduePolicy::from_byte(*pb), std::str::from_utf8(src)) {
                (Err(e), _) => {
                    let rep = error_reply(ev, true, &format!("redefine refused: {e}"));
                    c.push_slot(Slot::Ready(rep));
                }
                (Ok(_), Err(_)) => {
                    let rep = error_reply(ev, true, "redefine payload is not UTF-8");
                    c.push_slot(Slot::Ready(rep));
                }
                (Ok(p), Ok(src)) => post_redefine(c, p, src, true, me, ev, client, shared),
            },
        },
        frame::REQ_QUERY => match std::str::from_utf8(payload) {
            Err(_) => {
                let rep = error_reply(ev, true, "query payload is not UTF-8");
                c.push_slot(Slot::Ready(rep));
            }
            Ok(q) => match super::parse_query(shared.schema, q) {
                Ok((class, cond)) => post_query(c, class, &cond, true, client),
                Err(e) => {
                    let rep = error_reply(ev, true, &e);
                    c.push_slot(Slot::Ready(rep));
                }
            },
        },
        other => {
            let rep = error_reply(
                ev,
                true,
                &format!(
                    "unknown frame kind {other:#04x} (expected invoke {:#04x}, \
                     redefine {:#04x}, or query {:#04x})",
                    frame::REQ_INVOKE,
                    frame::REQ_REDEFINE,
                    frame::REQ_QUERY
                ),
            );
            c.push_slot(Slot::Ready(rep));
        }
    }
}

/// Drive one connection as far as it will go: retry a parked post,
/// extract and dispatch buffered requests, flush resolved replies,
/// write. Loops while progress is made, because writing can re-open the
/// extraction gate (write-buffer high-water mark) for bytes that are
/// already buffered and would otherwise never see a poll event.
#[allow(clippy::too_many_arguments)]
fn pump<'t>(
    c: &mut Conn<'t>,
    me: usize,
    ev: &Arc<EventShared>,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    shared: &ServerShared<'_>,
    config: &ServerConfig,
    pipeline: usize,
) {
    loop {
        if c.dead {
            return;
        }
        if let Some(p) = c.pending.take() {
            if let Err((args, done)) = client.try_post_done(p.t, p.args, p.done) {
                c.pending = Some(Pending { t: p.t, args, done });
            }
        }
        let mut dispatched = false;
        let mut drained = false;
        while c.may_extract(pipeline) {
            match c.extract() {
                Extracted::None => {
                    drained = true;
                    break;
                }
                Extracted::Some(req, wire) => {
                    dispatched = true;
                    if !dispatch(c, req, wire, me, ev, client, ts, shared, config) {
                        break;
                    }
                }
                Extracted::LineTooLong => {
                    let r =
                        error_reply(ev, false, &format!("request line exceeds {MAX_LINE} bytes"));
                    c.teardown(Some(r));
                    break;
                }
                Extracted::FrameOversized(len) => {
                    let msg = format!("frame length {len} exceeds {} bytes", frame::MAX_PAYLOAD);
                    let r = error_reply(ev, true, &msg);
                    c.teardown(Some(r));
                    break;
                }
                Extracted::BadUtf8 => {
                    // Undecodable text bytes: drain in-flight replies,
                    // then close, with no reply for the garbage — the
                    // old reader's silent-teardown behaviour.
                    c.teardown(None);
                    break;
                }
            }
        }
        // Peer half-closed and the buffer is extracted dry (a trailing
        // fragment can never complete): answer what is in flight, then
        // close — the drain-and-close the old reader did on EOF, but
        // only after every fully buffered request got its reply. When
        // the extraction loop stopped at a backpressure gate instead,
        // the buffer may still yield requests once the gate reopens, so
        // the teardown waits for a later pump.
        if drained && c.eof && c.read_open {
            c.teardown(None);
        }
        c.compact();
        c.flush_slots(|prom| stats_reply(ev, shared, prom));
        let unsent_before = c.unsent();
        if c.wants_write() {
            c.try_write();
        }
        let wrote = c.unsent() < unsent_before;
        if !dispatched && !wrote {
            return;
        }
    }
}

/// One event thread. `listener` is `Some` only for thread 0. The
/// `Result` carries a fatal listener error (reported after the drain).
#[allow(clippy::too_many_arguments)]
fn event_thread<'t>(
    me: usize,
    ev: &Arc<EventShared>,
    listener: Option<&TcpListener>,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    alphabet: &RoleAlphabet,
    shared: &ServerShared<'_>,
    config: &ServerConfig,
) -> std::io::Result<()> {
    let pipeline = config.pipeline.max(1);
    let mut conns: HashMap<u64, Conn<'t>> = HashMap::new();
    let mut draining = false;
    let mut fatal: Option<std::io::Error> = None;
    let mut gone: Vec<u64> = Vec::new();
    // Nearest deadline seen by the previous pre-wait scan: the reaping
    // scan runs only when it can actually have expired, so a loop woken
    // by mail does no per-connection deadline work at all.
    let mut nearest: Option<Instant> = None;
    // The epoll instance holding this thread's whole interest set. The
    // waker and (on thread 0) the listener are registered once under
    // sentinel tokens above the connection-id space; connections are
    // added at accept/handoff and drop out when their socket closes.
    // `epoll_wait` then costs O(ready), not O(connections) — the poll(2)
    // loop this replaces re-scanned every registered fd per call, which
    // dominated the server's time at four-digit connection counts.
    let ep = Epoll::new().expect("epoll_create1 failed");
    const TOK_WAKER: u64 = u64::MAX;
    const TOK_LISTEN: u64 = u64::MAX - 1;
    ep.add(ev.inboxes[me].waker.fd(), EPOLLIN, TOK_WAKER).expect("epoll: register waker");
    let mut listening = false;
    if let Some(l) = listener {
        ep.add(l.as_raw_fd(), EPOLLIN, TOK_LISTEN).expect("epoll: register listener");
        listening = true;
    }
    let mut events = vec![EpollEvent::zeroed(); 1024];
    loop {
        let mail = ev.inboxes[me].take();
        // Drain transition: first iteration after `shutdown` was set.
        // Thread 0 reaches it only after its last accept burst, so its
        // `accept_done` store means no further handoffs will ever be
        // mailed (and SeqCst makes the ones already sent visible to any
        // sibling's inbox take that follows an `accept_done` load).
        if ev.shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            for c in conns.values_mut() {
                c.begin_drain(deadline);
                c.dirty = true;
            }
            if listening {
                if let Some(l) = listener {
                    let _ = ep.delete(l.as_raw_fd());
                }
                listening = false;
            }
            if me == 0 {
                // Siblings that reached their own drain transition
                // before this store are parked in poll waiting for it:
                // wake them so they re-run their exit check.
                ev.accept_done.store(true, Ordering::SeqCst);
                ev.wake_all();
            }
        }
        for (id, stream) in mail.conns {
            let mut c = Conn::new(stream, id, config.auth.is_none());
            if draining {
                c.begin_drain(Instant::now() + DRAIN_TIMEOUT);
            }
            if register(&ep, &mut c, pipeline).is_err() {
                ev.live.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.insert(id, c);
        }
        for d in mail.dones {
            // A completion for a connection that died meanwhile was
            // already counted by the callback; nothing else to do.
            if let Some(c) = conns.get_mut(&d.conn) {
                if let Some(binary) = c.waiting_dialect(d.seq) {
                    let bytes = match d.reply {
                        Reply::Outcome(o) => outcome_reply(&o, binary, alphabet),
                        Reply::Bytes(b) => b,
                    };
                    c.fill_slot(d.seq, bytes);
                    c.dirty = true;
                }
            }
        }
        if mail.space {
            // The worker drained a block: parked posts may retry.
            for c in conns.values_mut() {
                if c.pending.is_some() {
                    c.dirty = true;
                }
            }
        }
        // Deadline reaping before the pump, so a freshly created idle
        // reply flushes in the same iteration. Skipped entirely unless
        // the nearest deadline the last poll-set build saw has expired.
        if nearest.is_some_and(|d| Instant::now() >= d) {
            let now = Instant::now();
            for c in conns.values_mut() {
                if !draining && c.read_open {
                    if let Some(t) = config.idle_timeout {
                        if now >= c.last_rx + t {
                            let secs = t.as_secs_f64();
                            let msg =
                                format!("idle timeout after {secs}s without a request; closing");
                            // Unsolicited (no request to answer): use
                            // the connection's last-seen dialect so a
                            // binary client parked in `read_frame`
                            // receives a decodable frame.
                            let r = error_reply(ev, c.last_binary, &msg);
                            c.teardown(Some(r));
                            c.dirty = true;
                        }
                    }
                }
                if let Some(since) = c.write_stalled_since {
                    if now >= since + WRITE_TIMEOUT {
                        c.dead = true;
                        c.dirty = true;
                    }
                }
                if let Some(d) = c.drain_deadline {
                    if now >= d {
                        c.dead = true;
                        c.dirty = true;
                    }
                }
            }
        }
        // Pump only the connections something happened to; collect the
        // ones that ended so the pass stays O(dirty), not O(all).
        gone.clear();
        for (id, c) in conns.iter_mut() {
            if !c.dirty {
                continue;
            }
            c.dirty = false;
            pump(c, me, ev, client, ts, shared, config, pipeline);
            if c.dead || c.finished() {
                gone.push(*id);
                continue;
            }
            // Reconcile the kernel's interest with the connection's.
            // Only pumped connections can have changed their wants
            // (every want-changing event marks the connection dirty),
            // so this is the single point where `epoll_ctl` happens —
            // and only when the interest actually moved.
            let want = interest_of(c, pipeline);
            if want != c.interest {
                if ep.modify(c.stream.as_raw_fd(), want, *id).is_err() {
                    c.dead = true;
                    gone.push(*id);
                } else {
                    c.interest = want;
                }
            }
        }
        for id in gone.drain(..) {
            if let Some(mut c) = conns.remove(&id) {
                ev.live.fetch_sub(1, Ordering::SeqCst);
                // A parsed-but-unposted invoke still gets one posting
                // attempt so its outcome is counted like the old
                // writer's drained tickets; if the lane is still full
                // the op is dropped with the connection.
                if let Some(p) = c.pending.take() {
                    let _ = client.try_post_done(p.t, p.args, p.done);
                }
            }
        }
        if draining && conns.is_empty() && ev.accept_done.load(Ordering::SeqCst) {
            // One final take after observing `accept_done`: a handoff
            // mailed before thread 0's transition may still be parked
            // here. Completions need no processing (already counted).
            let last = ev.inboxes[me].take();
            if last.conns.is_empty() {
                break;
            }
            for (id, stream) in last.conns {
                let mut c = Conn::new(stream, id, config.auth.is_none());
                c.begin_drain(Instant::now() + DRAIN_TIMEOUT);
                if register(&ep, &mut c, pipeline).is_err() {
                    ev.live.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                conns.insert(id, c);
            }
            continue;
        }
        // Pre-wait scan: track the nearest deadline, which both bounds
        // the wait and gates the next iteration's reaping scan. (The
        // interest set itself lives in the kernel now — registered at
        // accept, reconciled after each pump — so unlike the poll(2)
        // incarnation of this loop, nothing per-connection is rebuilt
        // here.) A connection with empty interest is parked on inbox
        // mail (a completion or a space signal) and invisible to
        // `epoll_wait` — its socket errors surface on the write attempt
        // its next pump makes — so a thousand quiescent connections add
        // nothing to the wait.
        nearest = None;
        let consider = |nearest: &mut Option<Instant>, d: Instant| {
            *nearest = Some(match *nearest {
                Some(cur) => cur.min(d),
                None => d,
            });
        };
        for c in conns.values() {
            if !draining && c.read_open {
                if let Some(t) = config.idle_timeout {
                    consider(&mut nearest, c.last_rx + t);
                }
            }
            if let Some(s) = c.write_stalled_since {
                consider(&mut nearest, s + WRITE_TIMEOUT);
            }
            if let Some(d) = c.drain_deadline {
                consider(&mut nearest, d);
            }
        }
        let timeout_ms = match nearest {
            None => -1,
            Some(d) => {
                let ms = d.saturating_duration_since(Instant::now()).as_millis().min(60_000);
                i32::try_from(ms).unwrap_or(60_000) + 1
            }
        };
        let n = ep.wait(&mut events, timeout_ms).expect("epoll_wait failed");
        if n == 0 {
            continue;
        }
        for &e in &events[..n] {
            match e.token() {
                // Waker bytes are drained by the `take` at the loop
                // top; the event only needed to end the wait.
                TOK_WAKER => {}
                TOK_LISTEN => {
                    if !listening {
                        continue;
                    }
                    let Some(l) = listener else { continue };
                    if let Err(e) = accept_burst(l, me, &mut conns, &ep, pipeline, ev, config) {
                        // Fatal listener error: stop accepting, drain
                        // what was accepted, report after.
                        fatal = Some(e);
                        let _ = ep.delete(l.as_raw_fd());
                        listening = false;
                        ev.shutdown.store(true, Ordering::SeqCst);
                        ev.wake_all();
                    }
                }
                id => {
                    let Some(c) = conns.get_mut(&id) else { continue };
                    if e.failed() {
                        // Error or hangup on both directions; any
                        // unflushed reply is undeliverable.
                        c.dead = true;
                        c.dirty = true;
                        continue;
                    }
                    if e.ready(EPOLLIN) && c.read_open && !c.eof {
                        c.dirty = true;
                        match c.fill_read_buffer() {
                            ReadOutcome::Progress => {}
                            // Orderly EOF: `fill_read_buffer` set the
                            // eof flag; the pump keeps extracting what
                            // is already buffered and closes once the
                            // buffer runs dry — a half-closing
                            // pipeliner is owed every reply.
                            ReadOutcome::Eof => {}
                            ReadOutcome::Dead => c.dead = true,
                        }
                    }
                    if e.ready(EPOLLOUT) {
                        // The socket drained: the next iteration's
                        // pump writes.
                        c.dirty = true;
                    }
                }
            }
        }
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::token_eq;

    #[test]
    fn token_eq_agrees_with_equality() {
        assert!(token_eq("secret", "secret"));
        assert!(token_eq("", ""));
        assert!(!token_eq("secret", ""));
        assert!(!token_eq("secret", "secre"));
        assert!(!token_eq("secret", "secrets"));
        assert!(!token_eq("secret", "tercse"));
        assert!(!token_eq("aaaa", "aaab"));
        // Exhaustive one-byte space: no digest collisions among the
        // shortest tokens.
        for a in 0u8..=255 {
            for b in 0u8..=255 {
                let (sa, sb) = ([a], [b]);
                let (sa, sb) = (String::from_utf8_lossy(&sa), String::from_utf8_lossy(&sb));
                assert_eq!(token_eq(&sa, &sb), sa == sb);
            }
        }
    }
}
