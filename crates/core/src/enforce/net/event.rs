//! The poll-based event core: a fixed handful of I/O threads multiplex
//! every client socket.
//!
//! Each event thread owns a disjoint set of connections (assigned round
//! robin at accept) plus an **inbox** — a mutex-protected mailbox paired
//! with a self-pipe [`Waker`] that makes `epoll_wait` return when
//! something lands in it. Three kinds of mail arrive:
//!
//! * **Connection handoffs** from thread 0's accept handling.
//! * **Outcomes** decided on the admission side — an `invoke`'s
//!   admission, a `redefine`'s or `promote`'s verdict — counted where
//!   they are decided and mailed to the owning thread (`conn`, `seq`) so
//!   the reply lands in the right slot of the right connection. An
//!   `invoke` names that address as a plain
//!   [`Completion`](crate::enforce::ingress::Completion), which the
//!   ingress hands back to the one handler [`run`] registers.
//! * **Space signals**: the worker drained a block, so a connection
//!   parked on a full admission lane may retry its post.
//!
//! Every request takes one path, whichever dialect carries it:
//!
//! 1. **Extract** one text line or binary frame, borrowed from the
//!    connection's read buffer ([`ReadBuf::extract`](super::conn::ReadBuf::extract)).
//! 2. **Decode** it into a [`Command`]: the checks both dialects share
//!    (quotas, blank and `#` lines, the request count, the pre-auth
//!    gate) run first, then the dialect's one decoder
//!    ([`Env::decode_line`] or [`Env::decode_frame`]).
//! 3. **Execute** the command ([`Env::execute`]): post an `invoke` or an
//!    admin op, queue a `query` or `stats` to be answered when its slot
//!    reaches the front ([`Env::resolve`], after every earlier request of
//!    the connection), or answer at once.
//! 4. **Encode** the reply ([`Outcome::encode`]): immediate or mailed
//!    back, every reply is an [`Outcome`] put in the dialect its slot
//!    recorded, written straight into the write buffer when its slot
//!    flushes.
//!
//! The loop per thread: drain the inbox, fill the slots outcomes arrived
//! for, pump the **dirty** connections (retry parked posts, extract and
//! serve requests, flush ready replies, write), reap expired deadlines,
//! then `poll` the sockets whose interest survives the backpressure
//! gates ([`Conn::wants_read`]). Per-iteration work is proportional to
//! what actually happened: a connection nothing happened to is neither
//! pumped nor polled (one parked on admission mail leaves the poll set
//! entirely), and a burst of completions coalesces into one wakeup.
//! Thread count is O(`io_threads` + shards) — independent of the number
//! of connections, which is the point.

use super::conn::{Conn, Deferred, Dialect, Extracted, Pending, ReadOutcome, Request, Slot};
use super::{evolution, frame, parse_invocation, parse_query, stats_reply};
use super::{ServerConfig, ServerShared, MAX_LINE};
use crate::alphabet::RoleAlphabet;
use crate::enforce::ingress::{Completion, IngressClient};
use crate::enforce::repl::ReplicaCtl;
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

/// What a request came to, before it is put in a dialect: `ok`,
/// `violation` or `error`, plus text.
pub(super) enum Outcome {
    /// An `invoke` admitted: `ok` with no text.
    Admitted,
    /// `ok` and its text.
    Ok(String),
    /// `error` and its message.
    Error(String),
    /// A refusal from the admission side: a violation, or an error such
    /// as degraded mode. It renders only when encoded, on the event
    /// thread — a violation's diagnostic needs the alphabet, and the
    /// admission worker does not pay for it.
    Refused(EnforceError),
}

impl Outcome {
    /// Append the reply in `dialect` to `out`: the line `<word> <text>\n`
    /// (the bare word when there is no text), or a frame of the word's
    /// reply kind carrying the text, shortened to the frame cap. The
    /// text is written in place: a violation's can quote a pattern of
    /// tens of thousands of symbols.
    pub(super) fn encode(self, out: &mut Vec<u8>, dialect: Dialect, alphabet: &RoleAlphabet) {
        let (kind, word) = match &self {
            Outcome::Admitted | Outcome::Ok(_) => (frame::REP_OK, "ok"),
            Outcome::Refused(EnforceError::Violation(_)) => (frame::REP_VIOLATION, "violation"),
            Outcome::Error(_) | Outcome::Refused(_) => (frame::REP_ERROR, "error"),
        };
        let text = |out: &mut Vec<u8>| match &self {
            Outcome::Admitted => {}
            Outcome::Ok(text) | Outcome::Error(text) => out.extend_from_slice(text.as_bytes()),
            Outcome::Refused(EnforceError::Violation(v)) => v.write(out, alphabet),
            Outcome::Refused(e) => {
                let _ = write!(out, "{e}");
            }
        };
        match dialect {
            Dialect::Text => {
                out.extend_from_slice(word.as_bytes());
                out.push(b' ');
                let at = out.len();
                text(out);
                if out.len() == at {
                    out.pop();
                }
                out.push(b'\n');
            }
            Dialect::Binary => frame::encode_reply_with(out, kind, text),
        }
    }
}

/// An outcome on its way back to the event thread that owns its slot.
pub(super) struct Done {
    conn: u64,
    seq: u64,
    outcome: Outcome,
}

/// An inbox's mail. The owner takes it by swapping in its own emptied
/// buffers ([`Inbox::take`]), so both keep their capacity.
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

    /// Move the mail into `mail`, whose queues the caller emptied, and
    /// leave those emptied buffers here for the next deliveries.
    fn take(&self, mail: &mut InboxQ) {
        // Drain the pipe *before* taking the queue: a producer racing in
        // between leaves at worst a spurious wake byte behind, never a
        // push without one. Clearing `signaled` re-arms the next
        // producer's wake.
        self.waker.drain();
        let mut q = lock_q(self);
        std::mem::swap(&mut q.dones, &mut mail.dones);
        std::mem::swap(&mut q.conns, &mut mail.conns);
        mail.space = std::mem::take(&mut q.space);
        q.signaled = false;
    }
}

/// State shared by every event thread and (via `Arc` clones inside the
/// completion handler and admin callbacks) the admission worker.
/// `'static` on purpose: completions may outlive the event threads — a
/// force-closed connection's outcomes still count, they just have
/// nowhere to go.
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

    /// Count an outcome once, where it is decided — so the counters stay
    /// truthful when its connection closed before the reply arrived.
    fn count(&self, outcome: &Outcome) {
        let counter = match outcome {
            Outcome::Ok(_) => return,
            Outcome::Admitted => &self.admitted,
            Outcome::Refused(EnforceError::Violation(_)) => &self.rejected,
            Outcome::Refused(_) | Outcome::Error(_) => &self.errors,
        };
        counter.fetch_add(1, Ordering::SeqCst);
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

/// Split off a line's first whitespace-separated word; the rest comes
/// back trimmed.
fn split_word(line: &str) -> (&str, &str) {
    line.split_once(char::is_whitespace).map_or((line, ""), |(word, rest)| (word, rest.trim()))
}

/// One request, decoded from either dialect: the text verbs, of which
/// `invoke`, `redefine` and `query` also come as binary frames.
enum Command<'t> {
    Invoke(&'t Transaction, Assignment),
    /// `query` and `stats`, answered when their slot reaches the front.
    Read(Deferred),
    Redefine(ResiduePolicy, Inventory),
    Schema,
    Ping,
    Auth,
    Rearm,
    Promote,
    Quit,
    Shutdown,
}

/// An event thread's fixed environment: everything a request is served
/// with besides its connection.
struct Env<'a, 't, 's, 'i> {
    /// This thread's index: the inbox its connections' outcomes are
    /// mailed to.
    me: usize,
    ev: &'a Arc<EventShared>,
    client: &'a IngressClient<'t, 's, 'i>,
    ts: &'t TransactionSchema,
    shared: &'a ServerShared<'a>,
    config: &'a ServerConfig,
}

/// Run the event core: the calling thread becomes event thread 0 (which
/// also owns the listener); threads `1..io_threads` are spawned for the
/// duration. Returns once every thread drained — i.e. after `shutdown`
/// (or a fatal listener error, which is returned after the drain).
pub(super) fn run<'t>(
    listener: &TcpListener,
    client: &IngressClient<'t, '_, '_>,
    ts: &'t TransactionSchema,
    shared: &ServerShared<'_>,
    config: &ServerConfig,
    ev: &Arc<EventShared>,
) -> std::io::Result<()> {
    for i in 0..ev.inboxes.len() {
        let ev = Arc::clone(ev);
        client.on_space(move || ev.inboxes[i].signal_space());
    }
    // Every invoke's outcome: counted where it is decided, mailed to the
    // slot its completion names.
    let done_ev = Arc::clone(ev);
    client.on_done(move |done: Completion, outcome| {
        let outcome = outcome.map_or_else(Outcome::Refused, |()| Outcome::Admitted);
        done_ev.count(&outcome);
        done_ev.inboxes[done.thread].push_done(Done { conn: done.conn, seq: done.slot, outcome });
    });
    let env = |me| Env { me, ev, client, ts, shared, config };
    std::thread::scope(|scope| {
        for me in 1..ev.inboxes.len() {
            let env = env(me);
            std::thread::Builder::new()
                .name(format!("mig-event-{me}"))
                .spawn_scoped(scope, move || event_thread(&env, None))
                .expect("spawn an event thread");
        }
        event_thread(&env(0), Some(listener))
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

/// Take a connection on at this event thread: start its drain when the
/// server is draining, and register its socket with the thread's epoll
/// instance under its connection id. A connection whose interest is
/// currently empty stays registered with zero events — parked on inbox
/// mail, invisible to `epoll_wait` — and closing the socket later
/// deregisters it implicitly. A socket that cannot be registered (fd
/// table churn) can never be polled, so it is dropped as if the accept
/// had failed.
fn adopt<'t>(
    env: &Env<'_, 't, '_, '_>,
    conns: &mut HashMap<u64, Conn<'t>>,
    ep: &Epoll,
    (id, stream): (u64, TcpStream),
    draining: bool,
) {
    let mut c = Conn::new(stream, id, env.config.auth.is_none());
    if draining {
        c.begin_drain(Instant::now() + DRAIN_TIMEOUT);
    }
    c.interest = interest_of(&c, env.pipeline());
    if ep.add(c.stream.as_raw_fd(), c.interest, id).is_err() {
        env.ev.live.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    conns.insert(id, c);
}

/// Accept until the listener runs dry; returns the listener's fatal
/// error, if any (per-connection failures only skip that socket).
fn accept_burst<'t>(
    env: &Env<'_, 't, '_, '_>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn<'t>>,
    ep: &Epoll,
) -> std::io::Result<()> {
    let (ev, config) = (env.ev, env.config);
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
                    let msg = format!("server at connection capacity ({})", config.max_connections);
                    let mut line = Vec::new();
                    Outcome::Error(msg).encode(&mut line, Dialect::Text, env.shared.alphabet);
                    let _ = (&stream).write_all(&line);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                ev.live.fetch_add(1, Ordering::SeqCst);
                ev.connections.fetch_add(1, Ordering::SeqCst);
                let id = ev.next_conn_id.fetch_add(1, Ordering::SeqCst);
                let target = (id as usize) % ev.inboxes.len();
                if target == env.me {
                    // Not draining: the drain transition stops accepting.
                    adopt(env, conns, ep, (id, stream), false);
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

impl<'t> Env<'_, 't, '_, '_> {
    /// [`ServerConfig::pipeline`], at least 1.
    fn pipeline(&self) -> usize {
        self.config.pipeline.max(1)
    }

    /// Count an outcome decided here, on the event thread, as the slot
    /// that answers in `dialect`.
    fn reply(&self, dialect: Dialect, outcome: Outcome) -> Slot {
        self.ev.count(&outcome);
        Slot::Ready { dialect, outcome }
    }

    /// Queue a slot for an admin op's outcome, decided on the admission
    /// side, and return the one-shot that delivers it: it counts the
    /// outcome where it is decided and mails it here, where it is
    /// encoded in the dialect the slot recorded.
    fn await_outcome(
        &self,
        c: &mut Conn<'t>,
        dialect: Dialect,
    ) -> impl FnOnce(Outcome) + Send + 'static {
        let seq = c.push_slot(Slot::Waiting { dialect });
        let (ev, owner, conn) = (Arc::clone(self.ev), self.me, c.id);
        move |outcome| {
            ev.count(&outcome);
            ev.inboxes[owner].push_done(Done { conn, seq, outcome });
        }
    }

    /// The split-brain guard: a replica refuses data writes until
    /// promoted — two writable heads of the same chain must never
    /// coexist. Checked before the payload is decoded, so the refusal
    /// wins over any payload error.
    fn writable(&self, verb: &str) -> Result<(), String> {
        match self.shared.replica.as_ref().filter(|ctl| ctl.is_read_only()) {
            None => Ok(()),
            Some(ctl) => Err(format!(
                "replica is read-only: {verb} refused (following {}; `promote` to accept writes)",
                ctl.upstream()
            )),
        }
    }

    fn transaction(&self, name: &str) -> Result<&'t Transaction, String> {
        self.ts.get(name).ok_or_else(|| format!("unknown transaction `{name}`"))
    }

    /// Parse a `redefine`'s new inventory here, on the event thread: a
    /// hostile source is refused before it ever touches the admission
    /// worker.
    fn inventory(&self, src: &str) -> Result<Inventory, String> {
        Inventory::parse_init(self.shared.schema, self.shared.alphabet, src)
            .map_err(|e| format!("redefine refused: {e}"))
    }

    /// Serve one extracted request: the checks both dialects share, then
    /// decode, execute and answer. Returns `false` when extraction on
    /// this connection must stop (quit, shutdown, teardown).
    fn dispatch(&self, c: &mut Conn<'t>, req: Request<'_>, wire: u64) -> bool {
        let config = self.config;
        let dialect = match req {
            Request::Line(_) => Dialect::Text,
            Request::Frame(..) => Dialect::Binary,
        };
        c.last_dialect = dialect;
        c.bytes += wire;
        if config.max_conn_bytes > 0 && c.bytes > config.max_conn_bytes {
            let msg = format!(
                "connection byte quota exceeded ({} bytes); closing",
                config.max_conn_bytes
            );
            c.teardown(Some(self.reply(dialect, Outcome::Error(msg))));
            return false;
        }
        // Blank lines and comments get no reply (text dialect only — every
        // frame is a request).
        if let Request::Line(l) = req {
            let t = l.trim();
            if t.is_empty() || t.starts_with('#') {
                return true;
            }
        }
        self.ev.requests.fetch_add(1, Ordering::SeqCst);
        c.ops += 1;
        if config.max_conn_ops > 0 && c.ops > config.max_conn_ops {
            let msg = format!(
                "connection request quota exceeded ({} requests); closing",
                config.max_conn_ops
            );
            c.teardown(Some(self.reply(dialect, Outcome::Error(msg))));
            return false;
        }
        if !c.authed {
            // Nothing but the correct (text) handshake passes before auth —
            // not even error details that would confirm verb names, and no
            // binary traffic at all. The handshake is then served as `auth`.
            if let Request::Line(l) = req {
                let (verb, token) = split_word(l.trim());
                c.authed =
                    verb == "auth" && config.auth.as_deref().is_some_and(|t| token_eq(t, token));
            }
            if !c.authed {
                let msg = "authentication required (send `auth <token>` first)".to_owned();
                c.teardown(Some(self.reply(dialect, Outcome::Error(msg))));
                return false;
            }
        }
        let cmd = match req {
            Request::Line(line) => self.decode_line(line.trim()),
            Request::Frame(kind, payload) => self.decode_frame(kind, payload),
        };
        match cmd {
            Ok(cmd) => self.execute(c, dialect, cmd),
            Err(msg) => {
                c.push_slot(self.reply(dialect, Outcome::Error(msg)));
                true
            }
        }
    }

    /// The text dialect's decoder: `<verb> <rest>` into a command, or the
    /// error to answer.
    fn decode_line(&self, line: &str) -> Result<Command<'t>, String> {
        let (verb, rest) = split_word(line);
        Ok(match verb {
            "invoke" => {
                self.writable("invoke")?;
                let (name, args) = parse_invocation(rest)?;
                Command::Invoke(self.transaction(name)?, args)
            }
            "query" if rest.is_empty() => {
                return Err("usage: query <Class>[(Attr=value,...)]".to_owned());
            }
            "query" => {
                let (class, cond) = parse_query(self.shared.schema, rest)?;
                Command::Read(Deferred::Query(class, cond))
            }
            "redefine" => {
                // `redefine <quarantine|certify-and-reset> <inventory src>`:
                // policy token first, the rest of the line is the source.
                self.writable("redefine")?;
                let (policy, src) = split_word(rest);
                if policy.is_empty() || src.is_empty() {
                    return Err(
                        "usage: redefine <quarantine|certify-and-reset> <inventory source>"
                            .to_owned(),
                    );
                }
                let policy =
                    ResiduePolicy::parse(policy).map_err(|e| format!("redefine refused: {e}"))?;
                Command::Redefine(policy, self.inventory(src)?)
            }
            "schema" => Command::Schema,
            // `stats` is the flat test-locked line; `stats prom` is the
            // Prometheus exposition, length-prefixed. Anything else after
            // the verb is an error rather than silently flat.
            "stats" => match rest {
                "" => Command::Read(Deferred::Stats { prom: false }),
                "prom" => Command::Read(Deferred::Stats { prom: true }),
                other => return Err(format!("unknown stats form `{other}`")),
            },
            "ping" => Command::Ping,
            "auth" => Command::Auth,
            "rearm" => Command::Rearm,
            "promote" => Command::Promote,
            "quit" => Command::Quit,
            "shutdown" => Command::Shutdown,
            other => {
                return Err(format!(
                    "unknown verb `{other}` \
                     (invoke|query|schema|stats|ping|auth|redefine|promote|rearm|quit|shutdown)"
                ))
            }
        })
    }

    /// The binary dialect's decoder: a frame's kind and payload into a
    /// command, or the error to answer.
    fn decode_frame(&self, kind: u8, payload: &[u8]) -> Result<Command<'t>, String> {
        match kind {
            frame::REQ_INVOKE => {
                self.writable("invoke")?;
                let mut r = migratory_model::codec::Reader::new(payload);
                let (name, args) =
                    migratory_lang::codec::decode_invoke(&mut r).map_err(|e| e.to_string())?;
                if !r.is_exhausted() {
                    return Err("trailing bytes after invoke payload".to_owned());
                }
                Ok(Command::Invoke(self.transaction(name)?, args))
            }
            frame::REQ_REDEFINE => {
                self.writable("redefine")?;
                let (&policy, src) = payload.split_first().ok_or("empty redefine payload")?;
                let policy = ResiduePolicy::from_byte(policy)
                    .map_err(|e| format!("redefine refused: {e}"))?;
                let src = std::str::from_utf8(src).map_err(|_| "redefine payload is not UTF-8")?;
                Ok(Command::Redefine(policy, self.inventory(src)?))
            }
            frame::REQ_QUERY => {
                let body =
                    std::str::from_utf8(payload).map_err(|_| "query payload is not UTF-8")?;
                let (class, cond) = parse_query(self.shared.schema, body)?;
                Ok(Command::Read(Deferred::Query(class, cond)))
            }
            other => Err(format!(
                "unknown frame kind {other:#04x} (expected invoke {:#04x}, \
                 redefine {:#04x}, or query {:#04x})",
                frame::REQ_INVOKE,
                frame::REQ_REDEFINE,
                frame::REQ_QUERY
            )),
        }
    }

    /// Execute one decoded request and queue its reply slot. Returns
    /// `false` when extraction on this connection must stop (quit,
    /// shutdown).
    fn execute(&self, c: &mut Conn<'t>, dialect: Dialect, cmd: Command<'t>) -> bool {
        let outcome = match cmd {
            Command::Invoke(t, args) => {
                // A full lane parks the op as the connection's pending
                // post, which suppresses its read interest until a space
                // signal lets the retry through.
                let slot = c.push_slot(Slot::Waiting { dialect });
                let done = Completion { thread: self.me, conn: c.id, slot };
                if let Err(args) = self.client.try_post_done(t, args, done) {
                    c.pending = Some(Pending { t, args, done });
                }
                return true;
            }
            Command::Read(read) => {
                c.push_slot(Slot::Deferred { dialect, read });
                return true;
            }
            Command::Redefine(policy, inv) => {
                self.redefine(c, dialect, policy, inv);
                return true;
            }
            Command::Schema => Outcome::Ok(self.shared.schema_line.clone()),
            Command::Ping => Outcome::Ok("pong".to_owned()),
            // Re-authenticating (or authing with no token configured) is a
            // harmless no-op, so scripts can always send it first.
            Command::Auth => Outcome::Ok("authed".to_owned()),
            Command::Rearm => {
                // Operator action: leave degraded read-only mode. If the
                // fault persists, the next failing append re-degrades.
                self.shared.health.rearm();
                Outcome::Ok("armed".to_owned())
            }
            Command::Promote => match &self.shared.replica {
                Some(ctl) => {
                    self.promote(c, dialect, ctl);
                    return true;
                }
                None => Outcome::Error(
                    "not a replica (promote targets a server started with --replica-of)".to_owned(),
                ),
            },
            Command::Quit => {
                c.teardown(Some(self.reply(dialect, Outcome::Ok("bye".to_owned()))));
                return false;
            }
            Command::Shutdown => {
                c.push_slot(self.reply(dialect, Outcome::Ok("draining".to_owned())));
                c.read_open = false;
                self.ev.shutdown.store(true, Ordering::SeqCst);
                self.ev.wake_all();
                return false;
            }
        };
        c.push_slot(self.reply(dialect, outcome));
        true
    }

    /// Answer a deferred read as its slot reaches the front of the queue,
    /// so it sees every earlier request of its connection. A `query`
    /// scans under the ingress's shared monitor lock
    /// ([`IngressClient::read`]), between two of the admission worker's
    /// units of work, so it sees every acknowledged op and never a
    /// rejected op or part of a block. Replicas and degraded primaries
    /// serve it too.
    fn resolve(&self, out: &mut Vec<u8>, dialect: Dialect, read: Deferred) {
        let (class, cond) = match read {
            Deferred::Stats { prom } => return stats_reply(out, self.ev, self.shared, prom),
            Deferred::Query(class, cond) => (class, cond),
        };
        let oids = self.client.read(|m| m.db().sat(class, &cond));
        // `ok query count=<N> oids=<o1,o2,...>`, the first 32 oids,
        // written in place: well under the frame cap.
        let text = |out: &mut Vec<u8>| {
            let _ = write!(out, "query count={} oids=", oids.len());
            for (i, oid) in oids.iter().take(32).enumerate() {
                let _ = write!(out, "{}{oid}", if i > 0 { "," } else { "" });
            }
        };
        match dialect {
            Dialect::Text => {
                out.extend_from_slice(b"ok ");
                text(out);
                out.push(b'\n');
            }
            Dialect::Binary => frame::encode_with(out, frame::REP_OK, text),
        }
    }

    /// Post a `redefine` as an admin barrier op: it runs on the admission
    /// worker with exclusive monitor access, and its verdict is mailed
    /// back only once it is known *and* the write-ahead record is durable
    /// (or the attempt was refused or rolled back).
    fn redefine(&self, c: &mut Conn<'t>, dialect: Dialect, policy: ResiduePolicy, inv: Inventory) {
        let answer = self.await_outcome(c, dialect);
        let evo = Arc::clone(&self.shared.evo);
        let metrics = self.shared.metrics.clone();
        self.client.post_admin(Box::new(move |gate| {
            // Phase 1, on the admission worker between blocks: apply (or
            // learn why not). Totals are read while the monitor is still
            // exclusively ours — the durable flag arrives later.
            let attempt = gate.map(|m| (m.redefine(&inv, policy), evolution(m)));
            Box::new(move |durable: bool| {
                answer(match attempt {
                    Ok((Ok(out), totals)) if durable => {
                        evo.publish(metrics.as_deref(), totals);
                        Outcome::Ok(format!("epoch={} residue={}", out.epoch, out.residue))
                    }
                    // The record never became durable: the worker winds the
                    // monitor back to the durable image before admitting
                    // anything else, so the epoch this op minted is gone.
                    Ok((Ok(_), _)) => Outcome::Error(
                        "redefinition rolled back: write-ahead log degraded before it became \
                         durable"
                            .to_owned(),
                    ),
                    Ok((Err(e), _)) => Outcome::Refused(e),
                    Err(reason) => Outcome::Refused(EnforceError::Degraded(reason)),
                });
            })
        }));
    }

    /// Promote a replica to a writable primary. The pull loop is told to
    /// stop first; the flip itself rides an admin barrier op so it queues
    /// **behind** every apply batch the puller already posted — the
    /// shipped tail folds before the halt lands, and nothing of the acked
    /// stream is dropped. Phase 1 halts further applies and lifts the
    /// read-only refusal while the monitor is exclusively ours.
    fn promote(&self, c: &mut Conn<'t>, dialect: Dialect, ctl: &Arc<ReplicaCtl>) {
        let answer = self.await_outcome(c, dialect);
        let ctl = Arc::clone(ctl);
        let evo = Arc::clone(&self.shared.evo);
        let metrics = self.shared.metrics.clone();
        ctl.request_stop();
        self.client.post_admin(Box::new(move |gate| {
            let attempt = gate.map(|m| {
                ctl.halt();
                ctl.make_writable();
                // The shipped history may carry redefinitions this server
                // folded without going through its own `redefine` verb:
                // refresh the evolution gauges so the promoted primary's
                // `stats` tells the truth.
                evo.publish(metrics.as_deref(), evolution(m));
                (m.epoch(), ctl.applied())
            });
            Box::new(move |_durable: bool| {
                answer(match attempt {
                    Ok((epoch, applied)) => {
                        Outcome::Ok(format!("promoted epoch={epoch} applied={applied}"))
                    }
                    Err(reason) => Outcome::Refused(EnforceError::Degraded(reason)),
                });
            })
        }));
    }
}

/// Drive one connection as far as it will go: retry a parked post,
/// extract and serve buffered requests, flush resolved replies,
/// write. Loops while progress is made, because writing can re-open
/// the extraction gate (write-buffer high-water mark) for bytes that
/// are already buffered and would otherwise never see a poll event.
fn pump<'t>(env: &Env<'_, 't, '_, '_>, c: &mut Conn<'t>) {
    loop {
        if c.dead {
            return;
        }
        if let Some(p) = c.pending.take() {
            if let Err(args) = env.client.try_post_done(p.t, p.args, p.done) {
                c.pending = Some(Pending { args, ..p });
            }
        }
        let mut dispatched = false;
        let mut drained = false;
        // Requests are served borrowed from the read buffer, held apart
        // from the connection for the pass.
        let mut rbuf = std::mem::take(&mut c.rbuf);
        while c.may_extract(env.pipeline()) {
            match rbuf.extract() {
                Extracted::None => {
                    drained = true;
                    break;
                }
                Extracted::Some(req, wire) => {
                    dispatched = true;
                    if !env.dispatch(c, req, wire) {
                        break;
                    }
                }
                Extracted::LineTooLong => {
                    let msg = format!("request line exceeds {MAX_LINE} bytes");
                    c.teardown(Some(env.reply(Dialect::Text, Outcome::Error(msg))));
                    break;
                }
                Extracted::FrameOversized(len) => {
                    let msg = format!("frame length {len} exceeds {} bytes", frame::MAX_PAYLOAD);
                    c.teardown(Some(env.reply(Dialect::Binary, Outcome::Error(msg))));
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
        rbuf.compact();
        c.rbuf = rbuf;
        if drained && c.eof && c.read_open {
            c.teardown(None);
        }
        c.flush_slots(
            |out, dialect, outcome| outcome.encode(out, dialect, env.shared.alphabet),
            |out, dialect, read| env.resolve(out, dialect, read),
        );
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
fn event_thread<'t>(
    env: &Env<'_, 't, '_, '_>,
    listener: Option<&TcpListener>,
) -> std::io::Result<()> {
    let (me, ev, config) = (env.me, env.ev, env.config);
    let pipeline = env.pipeline();
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
    let mut mail = InboxQ::default();
    loop {
        ev.inboxes[me].take(&mut mail);
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
        for handoff in mail.conns.drain(..) {
            adopt(env, &mut conns, &ep, handoff, draining);
        }
        for d in mail.dones.drain(..) {
            // An outcome for a connection that died meanwhile was
            // already counted where it was decided; nothing else to do.
            if let Some(c) = conns.get_mut(&d.conn) {
                if let Some(dialect) = c.waiting_dialect(d.seq) {
                    c.fill_slot(d.seq, dialect, d.outcome);
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
                            c.teardown(Some(env.reply(c.last_dialect, Outcome::Error(msg))));
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
            pump(env, c);
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
                    let _ = env.client.try_post_done(p.t, p.args, p.done);
                }
            }
        }
        if draining && conns.is_empty() && ev.accept_done.load(Ordering::SeqCst) {
            // One final take after observing `accept_done`: a handoff
            // mailed before thread 0's transition may still be parked
            // here. Completions need no processing (already counted).
            ev.inboxes[me].take(&mut mail);
            mail.dones.clear();
            if mail.conns.is_empty() {
                break;
            }
            for handoff in mail.conns.drain(..) {
                adopt(env, &mut conns, &ep, handoff, true);
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
                    if let Err(e) = accept_burst(env, l, &mut conns, &ep) {
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
