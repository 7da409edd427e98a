//! Pipelined admission ingress: bounded per-shard queues in front of the
//! sharded monitor, so concurrent callers stop serializing on it.
//!
//! # Shape
//!
//! [`serve`] stands up two scoped threads around the
//! [`ShardedMonitor`]: one **admission worker** behind a set of bounded
//! FIFO **lanes** — one per shard when the monitor routes by
//! weakly-connected component (an object's component never changes, so
//! a transaction's traffic has a stable home lane), a single lane under
//! oid striping — and one **committer** that releases what the worker
//! admitted. Callers get an [`IngressClient`] (`Sync` — share it across
//! as many producer threads as you like) and either
//! [`IngressClient::submit`] synchronously or pipeline with
//! [`IngressClient::post`] / [`Ticket::wait`].
//!
//! The worker drains one lane at a time (round-robin over non-empty
//! lanes), admits the drained ops as **one block** through
//! [`ShardedMonitor::try_apply_batch`], answers the ops the monitor
//! refused, and hands the admitted ones to the committer in commit
//! order. Batching is therefore emergent: the deeper the queues, the
//! larger the blocks, and the per-block cohort sweep and write-ahead
//! record amortize over more letters — a block is a **group commit**,
//! one record for all its letters. Draining whole lanes keeps a block
//! inside one shard's traffic, and with per-shard letter clocks each
//! lane's blocks advance **only its own shard** — disjoint components
//! admit, log and checkpoint with no cross-lane coupling at all (their
//! objects never interact — Lemma 3.5 — and no shared step counter
//! exists any more).
//!
//! The write-ahead log is optional ([`IngressConfig::wal`]). With one,
//! the worker stages each block's record bytes and the committer
//! appends whatever has accumulated, issues **one** sync for the batch,
//! ships it to the standbys when a [`Replicator`] is attached, and only
//! then answers the batch's tickets: an ack implies durability, and the
//! sync overlaps the staging of the next blocks. Without one the
//! committer answers tickets in commit order as they arrive, and a
//! [`CommitSink`](super::CommitSink) the caller attached to the monitor
//! appends inside `try_apply_batch`, on the worker. The ingress also
//! keeps the log's checkpoint chain (see [`serve`]).
//!
//! # Backpressure
//!
//! Two forms, both deliberate:
//!
//! * **Capacity** — a lane holds at most
//!   [`IngressConfig::queue_capacity`] ops; `post` blocks until space
//!   frees, and an event loop's [`IngressClient::post_batch`] hands back
//!   the ops from the first one whose lane is full onward, to be posted
//!   again after a space signal. Producers can never outrun the monitor
//!   unboundedly.
//! * **Violations** — a rejected op answers its ticket with the
//!   [`Violation`](super::Violation) and *does not* consume a letter;
//!   ops queued behind it in the same drained block are re-queued at
//!   the front of their lane and re-admitted in the next block, so one
//!   caller's violation never discards a neighbour's pending work.
//!   (Inside a block the monitor commits the conforming prefix before
//!   the violator as one block, keeping byte-identical diagnostics.)
//!
//! Ordering: each producer's ops are admitted in its own program order
//! (`submit` is synchronous; `post` tickets enqueue in call order into
//! one lane). No order is promised *between* producers — they are
//! network-shaped concurrent callers. The violation re-queue preserves
//! this: survivors of a rejected block go back to the **front** of
//! their lane, in their original order, so they stay ahead of every op
//! posted *after* the block was drained — including ops a producer
//! pipelines in the window between the violator's ticket being
//! answered and the survivors landing back in the lane. Per-producer
//! FIFO order is therefore never inverted by a mid-block violation
//! (regression-tested below by a pipelined chain whose every reorder
//! is observable).
//!
//! # Reads
//!
//! The monitor sits behind one `RwLock`. The worker holds it exclusively
//! for each unit of work — a block's whole `try_apply_batch` (which
//! applies the block in place before validating it), an admin op's first
//! half, a resync, a checkpoint capture — and answers tickets only after
//! releasing it. [`IngressClient::read`] shares it on the caller's
//! thread. A read sees every op whose ticket was answered, may see ops
//! whose ticket is still pending, and never sees a rejected op or part
//! of a block. (Ops whose ticket a durability failure refused stay
//! visible until the resync that follows `rearm`.) It waits out at most
//! one exclusive section: usually one block; a resync after `rearm` and
//! a replica bootstrap are long.
//!
//! ```
//! use migratory_core::enforce::{ingress, IngressConfig, ShardedMonitor};
//! use migratory_core::{Inventory, PatternKind, RoleAlphabet};
//! use migratory_lang::{parse_transactions, Assignment};
//! use migratory_model::{schema::university_schema, Value};
//!
//! let s = university_schema();
//! let a = RoleAlphabet::new(&s, 0).unwrap();
//! let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
//! let ts = parse_transactions(&s, r#"
//!     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
//! "#).unwrap();
//! let mk = ts.get("Mk").unwrap();
//! let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
//! // Four concurrent producers, each pipelining eight creations.
//! let ((), stats) = ingress::serve(&mut m, &IngressConfig::default(), |client| {
//!     std::thread::scope(|scope| {
//!         for p in 0..4 {
//!             scope.spawn(move || {
//!                 for i in 0..8 {
//!                     let args = Assignment::new(vec![Value::str(&format!("{p}-{i}"))]);
//!                     client.submit(mk, args).expect("creation conforms");
//!                 }
//!             });
//!         }
//!     });
//! });
//! assert_eq!((stats.admitted, stats.rejected), (32, 0));
//! assert_eq!(m.db().num_objects(), 32);
//! ```

use super::health::Health;
use super::metrics::AdmissionMetrics;
use super::repl::Replicator;
use super::sharded::ShardedMonitor;
use super::wal::{self, CheckpointData, CheckpointJob, Snapshotter, Wal, WalError};
use super::{EnforceError, ResiduePolicy};
use migratory_lang::{Assignment, Transaction};
use migratory_model::Schema;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Tuning knobs and wiring of [`serve`]. The default is a volatile
/// ingress with a [`Health`] of its own: no write-ahead log, no
/// metrics, no checkpoints.
#[derive(Clone)]
pub struct IngressConfig {
    /// Per-lane queue bound; [`IngressClient::post`] blocks when its
    /// lane is full.
    pub queue_capacity: usize,
    /// Largest block drained into one
    /// [`ShardedMonitor::try_apply_batch`] call.
    pub max_block: usize,
    /// How failing write-ahead appends and syncs, and failing
    /// checkpoint jobs, are retried before the ingress gives up on them.
    pub durability: DurabilityPolicy,
    /// Degraded-mode flag: set when the [`DurabilityPolicy`] budget runs
    /// out, cleared by [`Health::rearm`]. Checkpoint outcomes are
    /// recorded here too.
    pub health: Arc<Health>,
    /// The write-ahead log the committer appends to, with its optional
    /// replication tee. The monitor's sink is replaced by a staging
    /// sink for the duration of the serve and restored on exit. `None`:
    /// the committer only answers tickets, in commit order.
    pub wal: Option<DurableLog>,
    /// Admission histograms: queue depths, block sizes and commit
    /// latencies; fsync batch sizes with a `wal`; checkpoint stalls
    /// with a checkpoint budget.
    pub metrics: Option<Arc<AdmissionMetrics>>,
    /// Log bytes written since the last checkpoint of the `wal`'s chain
    /// that trigger the next one; 0 = never checkpoint (see [`serve`]).
    /// Ignored without a `wal`.
    pub checkpoint_bytes: usize,
}

/// `migctl serve`'s [`IngressConfig::checkpoint_bytes`]: one increment
/// per 128 KiB of log. On `replica-mixed` it took captures from ~340 to
/// 20 a run and server CPU per op down by ~15%; 256 KiB saved less
/// (`docs/ARCHITECTURE.md`, "Claimed vs measured").
pub const DEFAULT_CHECKPOINT_BYTES: usize = 128 << 10;

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            queue_capacity: 1024,
            max_block: 256,
            durability: DurabilityPolicy::default(),
            health: Arc::default(),
            wal: None,
            metrics: None,
            checkpoint_bytes: 0,
        }
    }
}

impl std::fmt::Debug for IngressConfig {
    // Manual impl: `Wal` owns raw file handles; show presence only.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngressConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("max_block", &self.max_block)
            .field("durability", &self.durability)
            .field("health", &self.health)
            .field("wal", &self.wal.is_some())
            .field("repl", &self.wal.as_ref().is_some_and(|d| d.repl.is_some()))
            .field("metrics", &self.metrics.is_some())
            .field("checkpoint_bytes", &self.checkpoint_bytes)
            .finish()
    }
}

/// The write-ahead log behind a durable ingress ([`IngressConfig::wal`]).
#[derive(Clone)]
pub struct DurableLog {
    /// The log the committer appends to and syncs (one sync per batch
    /// under [`FsyncPolicy::Batch`](super::FsyncPolicy::Batch), per
    /// record under `Always`, never under `Off`) — the same handle the
    /// ingress checkpoints through.
    pub log: Arc<Mutex<Wal>>,
    /// Replication tee: every synced batch is also shipped
    /// ([`Replicator::ship_and_wait`]), and under
    /// [`AckPolicy::ReplicaK`](super::repl::AckPolicy::ReplicaK) its
    /// tickets are released only once enough standbys acknowledged it.
    pub repl: Option<Arc<Replicator>>,
}

/// How the ingress treats a failing write-ahead append or sync (see
/// [`serve`]): transient errors are retried with bounded linear
/// backoff; exhausting the budget flips the server into degraded
/// read-only mode ([`Health::degrade`]) instead of erroring op after op
/// against a dead disk — or worse, acking non-durable work.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityPolicy {
    /// Retries per block after a failed append before degrading.
    pub retries: u32,
    /// Base backoff: the n-th retry sleeps `n × backoff` first.
    pub backoff: Duration,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy { retries: 4, backoff: Duration::from_millis(20) }
    }
}

/// Counters reported by [`serve`] after the ingress drains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Ops accepted into a lane.
    pub submitted: usize,
    /// Ops admitted (committed a letter, or a null application under
    /// `OnlyChanging`).
    pub admitted: usize,
    /// Ops rejected (violation or language error).
    pub rejected: usize,
    /// Blocks fed to `try_apply_batch`.
    pub blocks: usize,
    /// Ops re-queued behind a violating neighbour.
    pub requeued: usize,
    /// Admission lanes.
    pub lanes: usize,
    /// High-water queue depth across lanes.
    pub max_queue_depth: usize,
    /// Ops refused because the server was in degraded read-only mode.
    pub refused: usize,
    /// Write-ahead append retries (transient durability faults absorbed
    /// by the [`DurabilityPolicy`]).
    pub retries: usize,
    /// The final checkpoint was written at drain (never without a
    /// checkpoint cadence; see [`serve`]).
    pub final_checkpoint: bool,
}

/// Where an event-driven caller (the `enforce::net` poll loop) wants an
/// op's outcome delivered: its event thread, connection and reply
/// slot. A plain value, so posting an op costs no allocation for its
/// reply: the ingress hands it back with the outcome to the one handler
/// the caller registered ([`IngressClient::on_done`]) — exactly once,
/// on the committer once the op's block committed (durably, with a
/// write-ahead log) or a failing log refused it, and on the admission
/// worker when the monitor rejected the op or the ingress was degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The caller's event thread.
    pub thread: usize,
    /// The connection on that thread.
    pub conn: u64,
    /// The connection's reply slot.
    pub slot: u64,
}

/// An application an event-driven caller queues for
/// [`IngressClient::post_batch`]: the transaction, its arguments and
/// where its outcome goes.
pub struct Invoke<'t> {
    /// The transaction to apply.
    pub t: &'t Transaction,
    /// Its argument assignment.
    pub args: Assignment,
    /// Where its outcome goes.
    pub done: Completion,
}

/// The handler [`IngressClient::on_done`] registers: a batch of
/// completions that share one outcome.
type DoneFn<'t> = Box<dyn Fn(&[Completion], Result<(), EnforceError>) + Send + Sync + 't>;

/// How an op's outcome travels back to its producer.
enum Answer {
    /// A synchronous caller parked on a [`Ticket`].
    Chan(mpsc::Sender<Result<(), EnforceError>>),
    /// An event-driven caller's address, for the registered handler.
    Done(Completion),
}

struct Op<'t> {
    t: &'t Transaction,
    args: Assignment,
    reply: Answer,
}

/// An administrative **barrier operation** (see
/// [`IngressClient::post_admin`]): runs on the admission worker under
/// the exclusive monitor lock, strictly between admitted blocks — every
/// op admitted before it has had its ticket answered (and, with a
/// write-ahead log, made durable) first. `Err(reason)` hands over a
/// degraded or broken pipeline instead of the monitor: answer your
/// caller with the refusal, touch nothing. Return the second-half
/// completion that releases the caller's reply.
pub type AdminOp<'t, 's> =
    Box<dyn FnOnce(Result<&mut ShardedMonitor<'s>, String>) -> AdminDone + Send + 't>;

/// Second half of an [`AdminOp`]: invoked by the worker once whatever
/// the op staged through the monitor's sink is durable (`true`), or
/// after the pipeline broke before it could be (`false` — tracking will
/// be wound back to the durable log, so the caller must be told the op
/// did not take). Release the caller's reply here, never earlier. It
/// runs outside the exclusive lock but before the worker's next unit of
/// work: disk writes the op must finish first belong here.
pub type AdminDone = Box<dyn FnOnce(bool) + Send>;

struct State<'t, 's> {
    lanes: Vec<VecDeque<Op<'t>>>,
    /// Administrative barrier ops, drained ahead of the lanes.
    admin: VecDeque<AdminOp<'t, 's>>,
    /// Set once the driver returns: drain what is queued, then exit.
    closed: bool,
    /// The worker is parked on `ready`: the next post must signal it.
    /// Cleared by whoever signals, so one park costs one wake-up.
    worker_parked: bool,
    /// Producers parked on `space` in [`Shared::enqueue`].
    producers_waiting: usize,
    /// A [`Shared::enqueue_batch`] met a full lane since the last drain:
    /// the next drain fires the space listeners.
    space_refused: bool,
    submitted: usize,
    max_queue_depth: usize,
}

impl<'t> State<'t, '_> {
    /// Queue `op` at the back of `lane`.
    fn push(&mut self, lane: usize, op: Op<'t>) {
        self.lanes[lane].push_back(op);
        self.submitted += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.lanes[lane].len());
    }
}

/// One unit of work pulled by the admission worker.
enum Work<'t, 's> {
    /// An administrative barrier op (runs before any queued block).
    Admin(AdminOp<'t, 's>),
    /// A block drained from this lane into the worker's block buffer.
    Block(usize),
    /// Closed and empty: exit.
    Drained,
}

struct Shared<'t, 's, 'm> {
    /// The monitor: held exclusively by the worker per unit of work
    /// ([`Shared::exclusive`]), shared by [`IngressClient::read`] in
    /// between (see the module docs, § Reads).
    monitor: RwLock<&'m mut ShardedMonitor<'s>>,
    state: Mutex<State<'t, 's>>,
    /// Worker wake-up: an op arrived or the ingress closed. Signalled
    /// only while [`State::worker_parked`] is set: a signal is a futex
    /// syscall even with no waiter (over ten times an uncontended lock
    /// round trip), and under load most posts find the worker busy.
    ready: Condvar,
    /// Producer wake-up: a lane was drained below capacity. Signalled
    /// only while [`State::producers_waiting`] is non-zero.
    space: Condvar,
    /// Non-parking producers ([`IngressClient::on_space`]): invoked by
    /// the worker at the first drain after an
    /// [`IngressClient::post_batch`] met a full lane, so an event loop
    /// learns that a retry may now succeed without dedicating a thread
    /// to the wait.
    space_listeners: Mutex<Vec<Box<dyn Fn() + Send + Sync + 't>>>,
    capacity: usize,
    schema: &'s Schema,
    /// Component → lane (empty: everything to lane 0).
    lane_of_component: Vec<usize>,
}

impl<'t, 's, 'm> Shared<'t, 's, 'm> {
    fn new(monitor: &'m mut ShardedMonitor<'s>, config: &IngressConfig) -> Shared<'t, 's, 'm> {
        let lanes = match monitor.component_lanes() {
            Some(_) => monitor.num_shards(),
            None => 1,
        };
        Shared {
            state: Mutex::new(State {
                lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
                admin: VecDeque::new(),
                closed: false,
                worker_parked: false,
                producers_waiting: 0,
                space_refused: false,
                submitted: 0,
                max_queue_depth: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            space_listeners: Mutex::new(Vec::new()),
            capacity: config.queue_capacity.max(1),
            schema: monitor.schema(),
            lane_of_component: monitor.component_lanes().map(<[usize]>::to_vec).unwrap_or_default(),
            monitor: RwLock::new(monitor),
        }
    }

    /// The monitor under the exclusive lock: the admission worker holds
    /// it for one unit of work and drops it before answering anyone.
    fn exclusive(&self) -> RwLockWriteGuard<'_, &'m mut ShardedMonitor<'s>> {
        self.monitor.write().expect("ingress poisoned")
    }

    fn lane_of(&self, t: &Transaction) -> usize {
        if self.lane_of_component.is_empty() {
            return 0;
        }
        // An SL/CSL transaction names concrete classes; route by the
        // first one — the same anchor the sharded monitor's fallback
        // routing uses ([`Transaction::first_named_class`]), so a
        // lane's blocks advance exactly that lane's shard.
        // (Transactions spanning several components admit correctly
        // from any lane — routing is a locality hint, the monitor
        // checks every touched shard per block regardless.)
        match t.first_named_class() {
            Some(c) => self.lane_of_component[self.schema.component_of(c) as usize],
            None => 0,
        }
    }

    fn enqueue(&self, op: Op<'t>) {
        let lane = self.lane_of(op.t);
        let mut st = self.state.lock().expect("ingress poisoned");
        while st.lanes[lane].len() >= self.capacity {
            st.producers_waiting += 1;
            st = self.space.wait(st).expect("ingress poisoned");
            st.producers_waiting -= 1;
        }
        st.push(lane, op);
        self.wake_worker(st);
    }

    /// Non-blocking [`Shared::enqueue`] of a batch, under one lock:
    /// queue `batch` from the front, in order, until an op meets a full
    /// lane, which leaves it and every later op in `batch` and arms the
    /// space listeners. Wakes the worker once if it queued anything.
    fn enqueue_batch(&self, batch: &mut VecDeque<Invoke<'t>>) {
        if batch.is_empty() {
            return;
        }
        let mut st = self.state.lock().expect("ingress poisoned");
        let before = st.submitted;
        while let Some(Invoke { t, args, done }) = batch.pop_front() {
            let lane = self.lane_of(t);
            if st.lanes[lane].len() >= self.capacity {
                batch.push_front(Invoke { t, args, done });
                st.space_refused = true;
                break;
            }
            st.push(lane, Op { t, args, reply: Answer::Done(done) });
        }
        if st.submitted > before {
            self.wake_worker(st);
        }
    }

    /// Release the lock and signal `ready` if the worker is parked on
    /// it. The flag is read under the lock the worker parks with, so a
    /// set flag means the worker is already waiting: no wake-up is lost.
    fn wake_worker(&self, mut st: MutexGuard<'_, State<'t, 's>>) {
        let parked = std::mem::take(&mut st.worker_parked);
        drop(st);
        if parked {
            self.ready.notify_one();
        }
    }

    fn post_admin(&self, op: AdminOp<'t, 's>) {
        let mut st = self.state.lock().expect("ingress poisoned");
        st.admin.push_back(op);
        self.wake_worker(st);
    }

    /// Pull the admission worker's next unit of work: a pending admin
    /// op (a barrier — served ahead of the lanes), else one block
    /// round-robin over non-empty lanes, drained into `block`, else park
    /// until either arrives. `Drained` fills the final stats fields on
    /// the way out.
    fn next_work(
        &self,
        cursor: usize,
        max_block: usize,
        block: &mut Vec<Op<'t>>,
        stats: &mut IngressStats,
        metrics: Option<&AdmissionMetrics>,
    ) -> Work<'t, 's> {
        let mut st = self.state.lock().expect("ingress poisoned");
        loop {
            if let Some(op) = st.admin.pop_front() {
                return Work::Admin(op);
            }
            let n = st.lanes.len();
            match (0..n).map(|i| (cursor + i) % n).find(|&l| !st.lanes[l].is_empty()) {
                Some(lane) => {
                    if let Some(h) = metrics.and_then(|m| m.queue_depth.get(lane)) {
                        h.record(st.lanes[lane].len() as u64);
                    }
                    let take = st.lanes[lane].len().min(max_block);
                    block.extend(st.lanes[lane].drain(..take));
                    // Wake only who waits for space: parked producers, and
                    // listeners if any post was refused since the last
                    // drain (a retry refused again re-arms the flag).
                    let wake_producers = st.producers_waiting > 0;
                    let fire_listeners = std::mem::take(&mut st.space_refused);
                    drop(st);
                    if wake_producers {
                        self.space.notify_all();
                    }
                    if fire_listeners {
                        for f in self.space_listeners.lock().expect("ingress poisoned").iter() {
                            f();
                        }
                    }
                    return Work::Block(lane);
                }
                None if st.closed => {
                    stats.lanes = st.lanes.len();
                    stats.submitted = st.submitted;
                    stats.max_queue_depth = st.max_queue_depth;
                    return Work::Drained;
                }
                None => {
                    st.worker_parked = true;
                    st = self.ready.wait(st).expect("ingress poisoned");
                    st.worker_parked = false;
                }
            }
        }
    }
}

/// A handle for feeding the ingress and reading its monitor. `Sync`:
/// share one reference across any number of producer threads.
pub struct IngressClient<'t, 's, 'sh> {
    shared: &'sh Shared<'t, 's, 'sh>,
    pipe: &'sh Pipeline<'sh, 't>,
}

/// A pending admission outcome (see [`IngressClient::post`]).
pub struct Ticket {
    rx: mpsc::Receiver<Result<(), EnforceError>>,
}

impl Ticket {
    /// Block until the op's block was admitted (durably, with a
    /// write-ahead log) or rejected.
    pub fn wait(self) -> Result<(), EnforceError> {
        self.rx.recv().expect("admission worker answers every ticket")
    }
}

impl<'t> IngressClient<'t, '_, '_> {
    /// Enqueue an application and return a [`Ticket`] for its outcome.
    /// Blocks only for lane capacity (backpressure), so one producer
    /// can pipeline many ops into a single admitted block.
    pub fn post(&self, t: &'t Transaction, args: Assignment) -> Ticket {
        let (tx, rx) = mpsc::channel();
        self.shared.enqueue(Op { t, args, reply: Answer::Chan(tx) });
        Ticket { rx }
    }

    /// Non-blocking [`IngressClient::post`] of a batch, for event-driven
    /// callers: takes the lane lock once and queues `batch` from the
    /// front, in order, until an op meets a full lane. That op and every
    /// later one, whatever its lane, stay in `batch` in order, for the
    /// caller to post again after an [`IngressClient::on_space`] wakeup —
    /// backpressure without a blocked thread, and per-lane FIFO across
    /// the retry. Wakes the worker at most once. Each queued op's outcome
    /// is handed, with its [`Completion`], to the handler registered
    /// with [`IngressClient::on_done`] exactly once.
    pub fn post_batch(&self, batch: &mut VecDeque<Invoke<'t>>) {
        self.shared.enqueue_batch(batch);
    }

    /// Register the handler that receives the outcomes of the ops posted
    /// with [`IngressClient::post_batch`]: each call hands over a batch
    /// of [`Completion`]s that share one outcome — every op of an fsync
    /// batch the committer released, every op one refusal answered, or
    /// the one op the monitor rejected. It runs on the admission worker
    /// and the committer: keep it to stashing the outcomes and waking
    /// their owners.
    ///
    /// # Panics
    /// Panics if a handler is already registered.
    pub fn on_done(&self, f: impl Fn(&[Completion], Result<(), EnforceError>) + Send + Sync + 't) {
        if self.pipe.on_done.set(Box::new(f)).is_err() {
            panic!("an ingress takes one completion handler");
        }
    }

    /// Register a persistent lane-space listener, fired by the admission
    /// worker at the first drain after an [`IngressClient::post_batch`]
    /// met a full lane (i.e. whenever a left-over op may now be
    /// queued). Listeners run on the worker thread: keep them to a
    /// wakeup signal.
    pub fn on_space(&self, f: impl Fn() + Send + Sync + 't) {
        self.shared.space_listeners.lock().expect("ingress poisoned").push(Box::new(f));
    }

    /// Enqueue an application and wait for its outcome: `Ok` once the
    /// op's block committed (and, with a write-ahead log, was logged).
    pub fn submit(&self, t: &'t Transaction, args: Assignment) -> Result<(), EnforceError> {
        self.post(t, args).wait()
    }

    /// The number of admission lanes: one per shard when the monitor
    /// routes by component, else one.
    pub fn lanes(&self) -> usize {
        self.shared.state.lock().expect("ingress poisoned").lanes.len()
    }
}

impl<'t, 's> IngressClient<'t, 's, '_> {
    /// Post an administrative **barrier op** — the seam the `redefine`,
    /// `promote` and replica-fold paths run through. The op jumps ahead
    /// of the lanes: the worker serves it between blocks, under the
    /// exclusive monitor lock, after every previously admitted op's
    /// ticket was answered — with a write-ahead log, after everything
    /// previously admitted is durable (a flush barrier runs first, and
    /// whatever the op stages through the monitor's sink is flushed
    /// again before its [`AdminDone`] is invoked). Never blocks:
    /// admin ops are rare and unbounded by lane capacity. Reads go
    /// through [`IngressClient::read`] instead.
    pub fn post_admin(&self, op: AdminOp<'t, 's>) {
        self.shared.post_admin(op);
    }

    /// Run `f` against the monitor under the shared lock, on the calling
    /// thread, without waking the worker (module docs, § Reads) — the
    /// `query` verb's path, up in degraded mode too. `f` must take no
    /// other lock.
    pub fn read<R>(&self, f: impl FnOnce(&ShardedMonitor<'s>) -> R) -> R {
        f(&self.shared.monitor.read().expect("ingress poisoned"))
    }
}

/// Run an ingress around `monitor`: spawn the admission worker and the
/// committer, hand the driver an [`IngressClient`], and when the driver
/// returns, drain the remaining queue and return the driver's result
/// plus [`IngressStats`]. The monitor is borrowed for the duration —
/// attach its policy (and, without [`IngressConfig::wal`], any
/// [`CommitSink`](super::CommitSink)) before serving.
///
/// Close-and-answer: once the driver returns, no new work can arrive
/// (every producer borrowed the client, which is gone), and the worker
/// keeps draining until every lane is empty — so **every posted op is
/// answered** before `serve` returns. That is the graceful-drain
/// primitive the network front end (`enforce::net`) builds on.
///
/// Durability failures degrade instead of lying. A block whose
/// write-ahead append or staging failed is retried on the worker with
/// bounded backoff (nothing past the committed prefix reached the log —
/// the rollback contract of [`ShardedMonitor::try_apply_batch`] makes
/// the retry safe); the committer retries its appends and syncs the
/// same way. When the [`DurabilityPolicy`] budget is exhausted the
/// ingress degrades [`IngressConfig::health`]: every queued and future
/// op is answered [`EnforceError::Degraded`] without touching the
/// engine until [`Health::rearm`] — reads stay up, writes refuse fast,
/// and nothing is ever acked that is not on disk. Because tracking
/// commits before the committer syncs, a committer failure leaves the
/// monitor ahead of the truncated log; the worker **resynchronizes** it
/// from the checkpoint chain and log tail at the first healthy block
/// after the rearm (and at drain-out), so recovery's byte-identity
/// contract holds at every fault site.
///
/// With a write-ahead log and a non-zero
/// [`IngressConfig::checkpoint_bytes`], the ingress keeps the log's
/// checkpoint chain. Its jobs run on a [`Snapshotter`] (retried on the
/// [`DurabilityPolicy`] budget, reported to [`IngressConfig::health`]);
/// the worker stages a full checkpoint while the log has no base (at
/// start, else at the next capture or at drain), otherwise an O(dirty)
/// [`CheckpointDelta`](super::CheckpointDelta). One rule decides when:
/// after every admitted block and every admin op, once the record bytes
/// the worker forwarded to the committer since the last capture reach
/// `checkpoint_bytes`, it captures — after the tickets went to the
/// committer and behind a flush barrier, so a capture never delays the
/// replies of the work that triggered it, and never covers records that
/// are not yet durable. Counting log bytes keeps the checkpoint work per
/// op flat whatever the block size, and covers a `--replica-of` standby,
/// which folds replicated records as admin ops and admits no blocks.
/// Once a background job failed (the chain must not continue past a
/// hole) the worker stops capturing and sealing, and at drain it writes
/// no final checkpoint; otherwise the drain writes one synchronously
/// ([`IngressStats::final_checkpoint`]) unless the monitor is ahead of
/// the durable log.
pub fn serve<'t, 'a, R>(
    monitor: &mut ShardedMonitor<'a>,
    config: &IngressConfig,
    drive: impl FnOnce(&IngressClient<'t, '_, '_>) -> R,
) -> (R, IngressStats) {
    let staged: Arc<Mutex<Staged>> = Arc::default();
    let restore = config.wal.as_ref().map(|_| {
        monitor.set_sink(Some(Arc::new(Mutex::new(StagedSink { staged: staged.clone() }))))
    });
    let pipe = Pipeline {
        log: config.wal.as_ref().map(|d| &*d.log),
        repl: config.wal.as_ref().and_then(|d| d.repl.as_deref()),
        health: &config.health,
        policy: config.durability,
        metrics: config.metrics.as_deref(),
        staged,
        on_done: OnceLock::new(),
        needs_resync: AtomicBool::new(false),
        refused: AtomicUsize::new(0),
        retries: AtomicUsize::new(0),
    };
    let shared = Shared::new(monitor, config);
    let (tx, rx) = mpsc::channel::<Msg>();
    let (out, mut stats) = std::thread::scope(|scope| {
        let pipe = &pipe;
        let committer = std::thread::Builder::new()
            .name("mig-commit".into())
            .spawn_scoped(scope, move || committer_loop(pipe, &rx))
            .expect("spawn the committer");
        let worker = {
            let (shared, worker_tx) = (&shared, tx.clone());
            std::thread::Builder::new()
                .name("mig-admit".into())
                .spawn_scoped(scope, move || worker_loop(shared, config, pipe, &worker_tx))
                .expect("spawn the admission worker")
        };
        // Close on unwind too: if the driver panics, the scope joins the
        // worker before propagating, and a worker parked on `ready` with
        // `closed` unset would deadlock the join forever.
        let guard = CloseGuard(&shared);
        let out = drive(&IngressClient { shared: &shared, pipe });
        drop(guard);
        let stats = worker.join().expect("admission worker panicked");
        // The worker's sender is gone; dropping ours closes the channel
        // and the committer (which answered everything pending at the
        // worker's final flush) exits.
        drop(tx);
        committer.join().expect("committer thread panicked");
        (out, stats)
    });
    if let Some(previous) = restore {
        monitor.set_sink(previous);
    }
    stats.refused += pipe.refused.load(Ordering::SeqCst);
    stats.retries += pipe.retries.load(Ordering::SeqCst);
    (out, stats)
}

/// Marks the ingress closed (and wakes everyone) when dropped — on the
/// driver's normal return *and* on its unwind.
struct CloseGuard<'g, 't, 's, 'm>(&'g Shared<'t, 's, 'm>);

impl Drop for CloseGuard<'_, '_, '_, '_> {
    fn drop(&mut self) {
        let mut st = match self.0.state.lock() {
            Ok(st) => st,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.closed = true;
        drop(st);
        self.0.ready.notify_all();
        self.0.space.notify_all();
    }
}

// ---------------------------------------------------------------------
// The two stages: admission worker and committer
// ---------------------------------------------------------------------

/// Poison-tolerant lock: a panic on the other side of the pipeline must
/// surface as that thread's join error, not cascade into a second
/// panic here.
fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The commit sink of an ingress with a write-ahead log: instead of
/// appending (and syncing) on the admission worker, each admitted
/// block's framed record bytes are accumulated in the [`Staged`]
/// hand-off — synchronously, inside `try_apply_batch` — and the
/// committer thread takes them after tracking commits. Encoding is the
/// only fallible step (a block past the record cap), so the admission
/// path itself can no longer block on the disk.
struct StagedSink {
    staged: Arc<Mutex<Staged>>,
}

impl wal::CommitSink for StagedSink {
    fn committed(&mut self, block: &wal::BlockRef<'_>) -> Result<(), WalError> {
        // `encode_record` leaves the buffer untouched on `Err`, so a
        // refused oversized block never poisons neighbouring records.
        wal::encode_record(&mut lock(&self.staged).bytes, block)
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        wal::encode_certify_record(&mut lock(&self.staged).bytes, steps);
        Ok(())
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        let out = &mut lock(&self.staged).bytes;
        wal::encode_redefine_record(out, epoch, policy, shards, inventory)
    }
}

/// The worker's hand-off to the committer besides its messages: record
/// bytes the [`StagedSink`] wrote and tickets of admitted blocks, both
/// in commit order. The first `claimed` bytes are already announced by
/// a [`Msg::Commit`]; the committer takes each round's share from the
/// front. Both buffers keep their capacity, so handing a block over
/// allocates nothing.
#[derive(Default)]
struct Staged {
    bytes: Vec<u8>,
    claimed: usize,
    answers: VecDeque<Answer>,
}

/// Worker → committer hand-off. One channel with one producer (the
/// admission worker), so message order **is** commit order.
enum Msg {
    /// An admitted block: how many record bytes (one record, also when
    /// a violation cut the block short — its conforming prefix commits
    /// as one block; none without a log) and how many tickets of the
    /// [`Staged`] hand-off are its own, the tickets to release once the
    /// bytes are durable.
    Commit { bytes: usize, answers: usize, lane: usize, t0: Instant },
    /// Barrier: reply once everything before it was appended and synced
    /// (or refused). `false` means a durability failure broke the
    /// pipeline and the worker must not checkpoint the monitor's
    /// tracking state as-is.
    Flush(mpsc::Sender<bool>),
    /// The worker resynchronized the monitor against the durable log:
    /// resume committing.
    Reset,
}

/// State shared between the admission worker, the committer and the
/// staging sink.
struct Pipeline<'w, 't> {
    /// The write-ahead log the committer appends to; `None` for a
    /// volatile ingress, whose committer only answers tickets.
    log: Option<&'w Mutex<Wal>>,
    /// When attached, every batch's record bytes are teed to the
    /// replicas after the local sync; under
    /// [`AckPolicy::ReplicaK`](super::repl::AckPolicy::ReplicaK) the
    /// batch's tickets are withheld until enough replicas acked.
    repl: Option<&'w Replicator>,
    health: &'w Health,
    policy: DurabilityPolicy,
    metrics: Option<&'w AdmissionMetrics>,
    /// The hand-off: the [`StagedSink`]'s bytes (always empty without a
    /// log) and the tickets of admitted blocks.
    staged: Arc<Mutex<Staged>>,
    /// The handler of [`Answer::Done`] outcomes
    /// ([`IngressClient::on_done`]).
    on_done: OnceLock<DoneFn<'t>>,
    /// Set by the committer when a failure dropped appended-but-unsynced
    /// records: monitor tracking ran ahead of the durable log and must
    /// be wound back before the next commit.
    needs_resync: AtomicBool,
    /// Ops refused on the committer (merged into
    /// [`IngressStats::refused`] on exit).
    refused: AtomicUsize,
    /// Append/sync retries absorbed on the committer (merged into
    /// [`IngressStats::retries`]).
    retries: AtomicUsize,
}

impl Pipeline<'_, '_> {
    /// The registered handler of [`Answer::Done`] outcomes.
    fn on_done(&self) -> &DoneFn<'_> {
        self.on_done.get().expect("on_done registered before post_batch")
    }

    /// Deliver one op's outcome to its producer: a one-op batch.
    fn answer(&self, answer: Answer, outcome: Result<(), EnforceError>) {
        match answer {
            // A producer that dropped its ticket simply doesn't care.
            Answer::Chan(tx) => drop(tx.send(outcome)),
            Answer::Done(done) => self.on_done()(std::slice::from_ref(&done), outcome),
        }
    }

    /// Deliver one outcome to every producer of `answers`: each ticket
    /// directly, and the event-driven completions, gathered in `dones`
    /// (left empty), in one call of the registered handler.
    fn answer_all(
        &self,
        answers: impl IntoIterator<Item = Answer>,
        outcome: Result<(), EnforceError>,
        dones: &mut Vec<Completion>,
    ) {
        for answer in answers {
            match answer {
                Answer::Chan(tx) => drop(tx.send(outcome.clone())),
                Answer::Done(done) => dones.push(done),
            }
        }
        if !dones.is_empty() {
            self.on_done()(dones, outcome);
            dones.clear();
        }
    }

    /// Announce the bytes staged since the last claim and queue
    /// `answers` behind the earlier blocks' tickets, for one
    /// [`Msg::Commit`]: returns how many of each.
    fn claim(&self, answers: impl IntoIterator<Item = Answer>) -> (usize, usize) {
        let mut st = lock(&self.staged);
        let bytes = st.bytes.len() - st.claimed;
        st.claimed = st.bytes.len();
        let queued = st.answers.len();
        st.answers.extend(answers);
        (bytes, st.answers.len() - queued)
    }

    /// Move the first `bytes` claimed bytes and `answers` tickets of the
    /// hand-off to the committer's buffers.
    fn take_claimed(
        &self,
        bytes: usize,
        answers: usize,
        into: (&mut Vec<u8>, &mut VecDeque<Answer>),
    ) {
        let mut st = lock(&self.staged);
        into.0.extend_from_slice(&st.bytes[..bytes]);
        st.bytes.drain(..bytes);
        st.claimed -= bytes;
        into.1.extend(st.answers.drain(..answers));
    }

    /// Run a WAL operation under the retry budget: transient faults are
    /// absorbed with bounded linear backoff. The lock is released
    /// across each backoff sleep — the worker may need it meanwhile.
    /// Without a log there is nothing to do.
    fn retry(&self, mut op: impl FnMut(&mut Wal) -> Result<(), WalError>) -> Result<(), WalError> {
        let Some(log) = self.log else { return Ok(()) };
        let mut attempts = 0u32;
        loop {
            match op(&mut lock(log)) {
                Ok(()) => return Ok(()),
                Err(_) if attempts < self.policy.retries => {
                    attempts += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.policy.backoff.saturating_mul(attempts));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Answer every ticket `Degraded` and count the refusals.
    fn refuse(&self, answers: impl IntoIterator<Item = Answer>, reason: &str) {
        let counted = answers.into_iter().inspect(|_| {
            self.refused.fetch_add(1, Ordering::Relaxed);
        });
        let outcome = Err(EnforceError::Degraded(reason.to_owned()));
        self.answer_all(counted, outcome, &mut Vec::new());
    }

    /// A durability failure on the committer: truncate the unsynced log
    /// suffix (acks for those records were never released, so a reopen
    /// must not replay them), degrade, flag the worker to resync — the
    /// monitor committed tracking for every forwarded block, so it now
    /// runs ahead of the durable log — and answer every affected
    /// ticket.
    fn fail_batch(&self, e: &WalError, site: &str, affected: impl IntoIterator<Item = Answer>) {
        let reason =
            format!("write-ahead {site} failed after {} retries: {e}", self.policy.retries);
        lock(self.log.expect("only a write-ahead log fails")).rollback_unsynced();
        self.needs_resync.store(true, Ordering::SeqCst);
        self.health.degrade(&reason);
        self.refuse(affected, &reason);
    }
}

/// The committer thread: drain the channel greedily, append every
/// pending block, issue **one** `fdatasync` for the whole batch (under
/// [`FsyncPolicy::Batch`](super::FsyncPolicy::Batch); per record under
/// `Always`, never under `Off`), and only then release the batch's
/// tickets — group commit, with the sync latency overlapping the
/// worker's staging of the next blocks. Without a log the batch is
/// released as it arrives, in commit order. An exhausted append or
/// sync rolls the unsynced suffix back, degrades the server, and
/// answers every affected ticket `Degraded`.
fn committer_loop(pipe: &Pipeline<'_, '_>, rx: &mpsc::Receiver<Msg>) {
    // Only a log can break the pipeline.
    let mut broken = pipe.log.is_some() && pipe.health.is_degraded();
    // Per-round buffers, kept across rounds: a round allocates nothing
    // once they reach their steady size.
    let mut msgs: Vec<Msg> = Vec::new();
    // The round's share of the hand-off: record bytes and tickets, in
    // commit order.
    let mut bytes: Vec<u8> = Vec::new();
    let mut answers: VecDeque<Answer> = VecDeque::new();
    // Blocks appended this round, awaiting the batch sync: each one's
    // lane and admission time; their tickets, in order.
    let mut appended: Vec<(usize, Instant)> = Vec::new();
    let mut held: Vec<Answer> = Vec::new();
    // The released batch's completions, handed over in one call.
    let mut dones: Vec<Completion> = Vec::new();
    let mut flushes: Vec<mpsc::Sender<bool>> = Vec::new();
    while let Ok(first) = rx.recv() {
        msgs.push(first);
        while let Ok(m) = rx.try_recv() {
            msgs.push(m);
        }
        let (nb, na) = msgs.iter().fold((0, 0), |(nb, na), m| match m {
            Msg::Commit { bytes, answers, .. } => (nb + bytes, na + answers),
            _ => (nb, na),
        });
        pipe.take_claimed(nb, na, (&mut bytes, &mut answers));
        // Record bytes appended this round, in commit order: the
        // replication tee ships exactly what the log carries. Appends
        // stop at a failure, so they are one run of `bytes`.
        let (mut at, mut shipped) = (0, None::<std::ops::Range<usize>>);
        for msg in msgs.drain(..) {
            match msg {
                Msg::Reset => broken = false,
                Msg::Flush(reply) => flushes.push(reply),
                Msg::Commit { bytes: n, answers: k, lane, t0 } => {
                    let record = at..at + n;
                    at += n;
                    let tickets = answers.drain(..k);
                    if broken {
                        pipe.refuse(tickets, &pipe.health.reason());
                        continue;
                    }
                    match pipe.retry(|w| w.append_bytes(&bytes[record.clone()])) {
                        Ok(()) => {
                            let from = shipped.map_or(record.start, |r| r.start);
                            shipped = Some(from..record.end);
                            held.extend(tickets);
                            appended.push((lane, t0));
                        }
                        Err(e) => {
                            broken = true;
                            appended.clear();
                            pipe.fail_batch(&e, "append", held.drain(..).chain(tickets));
                        }
                    }
                }
            }
        }
        if !appended.is_empty() {
            match pipe.retry(Wal::sync) {
                Ok(()) => {
                    // Local durability first, then the tee: under
                    // ack-on-replica-k the batch's acks are withheld
                    // until enough standbys confirmed the bytes. An
                    // exhausted wait is an **unknown outcome** — the
                    // records are on the local disk and must NOT be
                    // rolled back; the tickets are refused (the caller
                    // must treat the op as in doubt) and the server
                    // degrades until the operator rearms.
                    let tee = match (pipe.repl, shipped.filter(|r| !r.is_empty())) {
                        (Some(repl), Some(r)) => repl.ship_and_wait(&bytes[r]),
                        _ => Ok(()),
                    };
                    match tee {
                        Ok(()) => {
                            if let Some(m) = pipe.metrics.filter(|_| pipe.log.is_some()) {
                                m.fsync_batch.record(appended.len() as u64);
                            }
                            for (lane, t0) in appended.drain(..) {
                                if let Some(h) =
                                    pipe.metrics.and_then(|m| m.commit_latency_us.get(lane))
                                {
                                    h.record(
                                        u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                                    );
                                }
                            }
                            pipe.answer_all(held.drain(..), Ok(()), &mut dones);
                        }
                        Err(reason) => {
                            // The durable log keeps the records (no
                            // rollback — they synced); needs_resync is
                            // still flagged so the post-rearm protocol
                            // re-arms the committer through the usual
                            // resync → `Msg::Reset` path (the resync
                            // reloads an identical image — harmless).
                            broken = true;
                            pipe.needs_resync.store(true, Ordering::SeqCst);
                            pipe.health.degrade(&reason);
                            appended.clear();
                            pipe.refuse(held.drain(..), &reason);
                        }
                    }
                }
                Err(e) => {
                    broken = true;
                    appended.clear();
                    pipe.fail_batch(&e, "sync", held.drain(..));
                }
            }
        }
        bytes.clear();
        // Answered after the batch: everything posted before the
        // barrier is durable (the reply may over-cover later commits of
        // the same batch — harmless).
        for reply in flushes.drain(..) {
            let _ = reply.send(!broken);
        }
    }
}

/// Rebuild the monitor from the durable image (checkpoint chain + log
/// tail), in place. The image is read before the exclusive section,
/// which covers only the rebuild. `false` re-degrades and leaves the
/// resync pending: a log that cannot even be read back is operator
/// territory.
fn try_resync(shared: &Shared<'_, '_, '_>, pipe: &Pipeline<'_, '_>) -> bool {
    let log = pipe.log.expect("only a write-ahead log flags a resync");
    let dir = lock(log).dir().to_path_buf();
    match Wal::load(&dir).and_then(|(snap, tail)| shared.exclusive().resync(snap, tail)) {
        Ok(()) => true,
        Err(e) => {
            pipe.needs_resync.store(true, Ordering::SeqCst);
            pipe.health.degrade(&format!("resync against the durable log failed: {e}"));
            false
        }
    }
}

/// Healthy again after a committer failure (`rearm`): wind the monitor
/// back to the durable log before anything builds on it — tracking
/// committed blocks whose records were dropped — and resume the
/// committer.
fn resync_if_rearmed(shared: &Shared<'_, '_, '_>, pipe: &Pipeline<'_, '_>, tx: &mpsc::Sender<Msg>) {
    if pipe.needs_resync.load(Ordering::SeqCst) && !pipe.health.is_degraded() {
        let _ = flush_committer(tx);
        if pipe.needs_resync.swap(false, Ordering::SeqCst) && try_resync(shared, pipe) {
            let _ = tx.send(Msg::Reset);
        }
    }
}

/// Send a flush barrier and wait it out. `true` when the committer is
/// healthy (everything prior released, and durable with a log);
/// `false` on a broken pipeline or a committer that already exited.
fn flush_committer(tx: &mpsc::Sender<Msg>) -> bool {
    let (ftx, frx) = mpsc::channel();
    tx.send(Msg::Flush(ftx)).is_ok() && frx.recv() == Ok(true)
}

/// The admission worker: drain a block, admit it, answer the ops the
/// monitor rejected, and forward each admitted block's staged record
/// bytes plus its tickets to the committer, which releases them (only
/// once durable, with a log). Violations and language errors carry no
/// state change and are answered here directly.
fn worker_loop<'t, 'a>(
    shared: &Shared<'t, 'a, '_>,
    config: &IngressConfig,
    pipe: &Pipeline<'_, '_>,
    tx: &mpsc::Sender<Msg>,
) -> IngressStats {
    let max_block = config.max_block.max(1);
    let mut stats = IngressStats::default();
    let mut cursor = 0usize;
    // The drained block, kept across blocks with its capacity.
    let mut block = Vec::new();
    // Record bytes forwarded to the committer since the last capture.
    let mut logged = 0usize;
    // The checkpoint chain (see `serve`), with a base right away.
    let mut chain = pipe.log.filter(|_| config.checkpoint_bytes > 0).map(|log| {
        let mut jobs = Snapshotter::spawn_with(
            pipe.policy.retries,
            pipe.policy.backoff,
            Some(config.health.clone()),
        );
        if !lock(log).has_base() {
            checkpoint(log, pipe.health, &mut shared.exclusive(), |job| jobs.submit(job));
        }
        (log, jobs)
    });
    loop {
        match shared.next_work(cursor, max_block, &mut block, &mut stats, pipe.metrics) {
            Work::Drained => {
                // Drain barrier: every forwarded ticket must be
                // answered (durable or refused) before serve returns.
                let _ = flush_committer(tx);
                // Resolve a pending divergence even in degraded mode,
                // so the final checkpoint covers exactly the durable
                // state.
                if pipe.needs_resync.swap(false, Ordering::SeqCst) {
                    try_resync(shared, pipe);
                }
                if let Some((log, jobs)) = chain.take() {
                    // A failed background job left a hole the chain
                    // must not continue past.
                    let landed = jobs.finish().is_ok();
                    stats.final_checkpoint = landed
                        && !pipe.needs_resync.load(Ordering::SeqCst)
                        && checkpoint(log, pipe.health, &mut shared.exclusive(), |job| job.run());
                }
                return stats;
            }
            Work::Admin(op) => {
                // Barrier: everything forwarded before the op must be
                // released (durable, with a log) before the op sees the
                // monitor — and a monitor that ran ahead of a broken log
                // is wound back first, so the op never builds on
                // tracking the durable image contradicts.
                let flushed = flush_committer(tx);
                resync_if_rearmed(shared, pipe, tx);
                if flushed && !pipe.health.is_degraded() {
                    let done = op(Ok(&mut **shared.exclusive()));
                    // Whatever the op staged through the sink rides the
                    // committer like a block with no tickets; its reply
                    // is released only once the record is durable.
                    let (bytes, answers) = pipe.claim([]);
                    if bytes > 0 {
                        logged += bytes;
                        tx.send(Msg::Commit { bytes, answers, lane: 0, t0: Instant::now() })
                            .expect("committer outlives the worker");
                    }
                    done(flush_committer(tx));
                } else {
                    let reason = if pipe.health.is_degraded() {
                        pipe.health.reason()
                    } else {
                        "write-ahead committer unavailable".to_owned()
                    };
                    op(Err(reason))(true);
                }
            }
            Work::Block(lane) => {
                cursor = lane + 1;
                stats.blocks += 1;
                logged += admit_block(shared, pipe, tx, &mut stats, lane, &mut block);
            }
        }
        // The one cadence rule (see `serve`). The budget restarts
        // whenever it is reached, so a broken pipeline or a failing disk
        // is tried once per budget, not once per block. The capture
        // waits behind a flush barrier: it must neither capture tracking
        // state whose records a broken committer dropped, nor seal a log
        // whose unsynced tail it claims to cover. Once the snapshotter
        // gave up, no job can land: capturing and sealing would only
        // pile up sealed segments for recovery to replay.
        if let Some((log, jobs)) = chain.as_mut().filter(|_| logged >= config.checkpoint_bytes) {
            logged = 0;
            if !jobs.has_failed() && flush_committer(tx) {
                let m0 = Instant::now();
                checkpoint(log, pipe.health, &mut shared.exclusive(), |job| jobs.submit(job));
                if let Some(m) = pipe.metrics {
                    m.checkpoint_stall_us
                        .record(u64::try_from(m0.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
            }
        }
    }
}

/// Admit one drained block (see [`worker_loop`]), leaving `block` empty,
/// and return the record bytes it forwarded to the committer.
fn admit_block<'t>(
    shared: &Shared<'t, '_, '_>,
    pipe: &Pipeline<'_, '_>,
    tx: &mpsc::Sender<Msg>,
    stats: &mut IngressStats,
    lane: usize,
    block: &mut Vec<Op<'t>>,
) -> usize {
    resync_if_rearmed(shared, pipe, tx);
    if pipe.health.is_degraded() {
        // Degraded read-only mode: refuse before touching the engine.
        // Lanes keep draining so every producer is answered promptly
        // instead of backing up against a dead disk.
        pipe.refuse(block.drain(..).map(|op| op.reply), &pipe.health.reason());
        return 0;
    }
    let mut logged = 0;
    let t0 = Instant::now();
    let mut attempts = 0u32;
    loop {
        // The whole call is one exclusive section: it applies the
        // block in place before validating it.
        let (done, err) =
            shared.exclusive().try_apply_batch(block.iter().map(|op| (op.t, &op.args)));
        stats.admitted += done;
        let mut rest = block.drain(..);
        let (bytes, answers) = pipe.claim(rest.by_ref().take(done).map(|op| op.reply));
        if answers > 0 || bytes > 0 {
            if let Some(h) = pipe.metrics.and_then(|m| m.block_size.get(lane)) {
                h.record(done as u64);
            }
            logged += bytes;
            // The committer owns these acks now: released in commit
            // order, and with a log only once the bytes are durable.
            tx.send(Msg::Commit { bytes, answers, lane, t0 })
                .expect("committer outlives the worker");
        }
        match err {
            None => {
                debug_assert_eq!(rest.len(), 0, "without an error every op commits");
                break;
            }
            // The block's record was refused — staging past the
            // record cap, or an append by a sink the caller attached
            // to the monitor: nothing past `done` reached the log
            // and every survivor was rolled back, so re-admitting
            // them is safe. Retry with bounded backoff; an exhausted
            // budget degrades the server.
            Some(EnforceError::Durability(e)) => {
                if attempts < pipe.policy.retries {
                    let rest: Vec<Op<'t>> = rest.collect();
                    block.extend(rest);
                    attempts += 1;
                    stats.retries += 1;
                    std::thread::sleep(pipe.policy.backoff.saturating_mul(attempts));
                    continue;
                }
                let site = if pipe.log.is_some() { "staging" } else { "append" };
                let reason = format!("write-ahead {site} failed after {attempts} retries: {e}");
                pipe.health.degrade(&reason);
                pipe.refuse(rest.map(|op| op.reply), &reason);
                break;
            }
            Some(e) => {
                stats.rejected += 1;
                if let Some(op) = rest.next() {
                    pipe.answer(op.reply, Err(e));
                }
                // Ops behind the violator were rolled back
                // unattempted: back to the front of their lane,
                // order preserved.
                if rest.len() > 0 {
                    stats.requeued += rest.len();
                    let mut st = shared.state.lock().expect("ingress poisoned");
                    for op in rest.rev() {
                        st.lanes[lane].push_front(op);
                    }
                }
                break;
            }
        }
    }
    logged
}

/// Capture one checkpoint of `m` for `log`'s chain — a full base while
/// the log has none, else the increment since the last capture — stage
/// it, and hand the job to `run`. A failure is recorded in `health`; a
/// staging failure also re-marks the captured objects dirty, so the
/// next capture covers them. Returns whether `run` succeeded.
fn checkpoint(
    log: &Mutex<Wal>,
    health: &Health,
    m: &mut ShardedMonitor<'_>,
    run: impl FnOnce(CheckpointJob) -> Result<(), WalError>,
) -> bool {
    let (data, touched) = if lock(log).has_base() {
        let mut delta = m.checkpoint_delta();
        let touched = std::mem::take(&mut delta.oids);
        (CheckpointData::Incremental(delta), touched)
    } else {
        (CheckpointData::Full(m.checkpoint_full()), Vec::new())
    };
    let staged = lock(log).begin_checkpoint(data).inspect_err(|_| m.restore_dirty(&touched));
    match staged.and_then(run) {
        Ok(()) => true,
        Err(e) => {
            health.checkpoint_failed(&e);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforce::{MemoryWal, ShardedMonitor, StepPolicy};
    use crate::{Inventory, PatternKind, RoleAlphabet};
    use migratory_lang::parse_transactions;
    use migratory_model::{SchemaBuilder, Value};
    use std::sync::{Arc, Mutex};

    fn multi_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        for r in 0..3 {
            let root = b.class(&format!("R{r}"), &[&format!("K{r}")]).unwrap();
            b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn concurrent_producers_admit_everything_once() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
            transaction Mk2(x) { create(R2, { K2 = x }); }
        ",
        )
        .unwrap();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3)
            .with_policy(StepPolicy::OnlyChanging)
            .with_sink(wal.clone());
        let cfg = IngressConfig { queue_capacity: 8, max_block: 16, ..Default::default() };
        const PER: usize = 40;
        let ((), stats) = serve(&mut m, &cfg, |client| {
            std::thread::scope(|scope| {
                for name in ["Mk0", "Mk1", "Mk2"] {
                    let t = ts.get(name).unwrap();
                    scope.spawn(move || {
                        for i in 0..PER {
                            let args = Assignment::new(vec![Value::str(&format!("{name}-{i}"))]);
                            client.submit(t, args).expect("creation conforms");
                        }
                    });
                }
            });
        });
        assert_eq!(stats.submitted, 3 * PER);
        assert_eq!(stats.admitted, 3 * PER);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.lanes, 3, "one lane per component shard");
        assert_eq!(m.db().num_objects(), 3 * PER);
        assert_eq!(m.clocks(), vec![PER, PER, PER], "each shard read only its own letters");
        // Group commit: blocks ≤ submissions, and every letter logged.
        let logged: usize = wal.lock().unwrap().records().iter().map(|r| r.letters()).sum();
        assert_eq!(logged, 3 * PER);
        assert!(stats.blocks <= 3 * PER);
    }

    /// A durable ingress keeps its log's checkpoint chain: a base at
    /// start, an increment each time the log written since the last
    /// capture reaches `checkpoint_bytes` (each one a stamped capture)
    /// and a final checkpoint at drain — and the chain plus the tail
    /// recover the served monitor byte for byte. The expected captures
    /// come from the rule replayed over the same one-op blocks' records,
    /// logged through a sink.
    #[test]
    fn durable_ingress_checkpoints_every_budget_of_log() {
        use crate::enforce::Wal;
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
        let mk = ts.get("Mk0").unwrap();
        let key = |i: usize| Assignment::new(vec![Value::str(&format!("{i}"))]);
        const OPS: usize = 24;
        const BUDGET: usize = 100;
        let sink = Arc::new(Mutex::new(MemoryWal::new()));
        let mut dry =
            ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3).with_sink(sink.clone());
        let (mut logged, mut captures) = (0, 0);
        for i in 0..OPS {
            let before = sink.lock().unwrap().log_len();
            dry.try_apply(mk, &key(i)).unwrap();
            logged += sink.lock().unwrap().log_len() - before;
            if logged >= BUDGET {
                (logged, captures) = (0, captures + 1);
            }
        }
        assert!(captures >= 4, "the budget is reached mid-stream: {captures} captures");
        let dir = pipelined_temp_dir("cadence");
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap()));
        let metrics = Arc::new(AdmissionMetrics::new(3));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        let ((), stats) = serve(
            &mut m,
            &IngressConfig {
                queue_capacity: 4,
                max_block: 1,
                wal: Some(DurableLog { log: wal, repl: None }),
                metrics: Some(metrics.clone()),
                checkpoint_bytes: BUDGET,
                ..Default::default()
            },
            |client| {
                for i in 0..OPS {
                    client.submit(mk, key(i)).expect("creation conforms");
                }
            },
        );
        assert_eq!(stats.blocks, OPS, "max_block = 1: one block per op");
        assert!(stats.final_checkpoint, "the drain wrote the final checkpoint");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".bin"))
            .collect();
        files.sort();
        let deltas = files.iter().filter(|n| n.starts_with("delta-")).count();
        assert!(files.contains(&"snapshot.bin".to_owned()), "the base is on disk: {files:?}");
        assert_eq!(deltas, captures + 1, "{captures} increments and the final one: {files:?}");
        assert_eq!(metrics.checkpoint_stall_us.count(), captures as u64, "one stamp a capture");
        let (snap, tail) = Wal::load(&dir).unwrap();
        let r = ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 3, snap, tail).unwrap();
        assert_eq!(r.snapshot().encode(), m.snapshot().encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint work follows the log, not the block count: one op
    /// sequence served at `max_block` 1 and at `max_block` 64 takes
    /// captures at rates per logged byte within 2× of each other (a
    /// block cadence takes them 64 times as often per op at `max_block`
    /// 1). The worker is held while the sequence is queued, so each
    /// block holds `max_block` ops; a replicator with no standby counts
    /// every logged byte in its horizon.
    #[test]
    fn captures_per_logged_byte_do_not_depend_on_the_block_size() {
        use crate::enforce::Wal;
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
        let mk = ts.get("Mk0").unwrap();
        const OPS: usize = 4096;
        let run = |max_block: usize| -> (u64, u64) {
            let dir = pipelined_temp_dir(&format!("per-byte-{max_block}"));
            let repl = Arc::new(Replicator::bind("127.0.0.1:0").unwrap());
            let metrics = Arc::new(AdmissionMetrics::new(3));
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            let config = IngressConfig {
                queue_capacity: OPS,
                max_block,
                wal: Some(DurableLog {
                    log: Arc::new(Mutex::new(Wal::open(&dir).unwrap())),
                    repl: Some(repl.clone()),
                }),
                metrics: Some(metrics.clone()),
                checkpoint_bytes: 4 << 10,
                ..Default::default()
            };
            let ((), stats) = serve(&mut m, &config, |client| {
                let (held_tx, held_rx) = mpsc::channel();
                let (release_tx, release_rx) = mpsc::channel::<()>();
                client.post_admin(Box::new(move |_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Box::new(|_| {})
                }));
                held_rx.recv().unwrap();
                let tickets: Vec<_> = (0..OPS)
                    .map(|i| client.post(mk, Assignment::new(vec![Value::str(&format!("{i}"))])))
                    .collect();
                release_tx.send(()).unwrap();
                for t in tickets {
                    t.wait().expect("creation conforms");
                }
            });
            assert_eq!(stats.blocks, OPS.div_ceil(max_block), "full blocks of {max_block}");
            repl.close();
            let _ = std::fs::remove_dir_all(&dir);
            (metrics.checkpoint_stall_us.count(), repl.horizon())
        };
        let (c1, logged1) = run(1);
        let (c64, logged64) = run(64);
        assert!(c64 >= 4, "the budget is reached mid-stream at max_block 64: {c64} captures");
        #[allow(clippy::cast_precision_loss)]
        let (per1, per64) = (c1 as f64 / logged1 as f64, c64 as f64 / logged64 as f64);
        assert!(
            per1 <= 2.0 * per64 && per64 <= 2.0 * per1,
            "captures per logged byte: {c1} / {logged1} B at max_block 1, \
             {c64} / {logged64} B at max_block 64"
        );
    }

    #[test]
    fn panicking_driver_propagates_instead_of_deadlocking() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        // The close guard must fire on unwind; without it the admission
        // worker parks forever and the scope join never returns.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(&mut m, &IngressConfig::default(), |_client| panic!("driver died"));
        }));
        assert!(result.is_err(), "the driver's panic must propagate");
    }

    /// Satellite regression: a mid-block violation re-queues the
    /// surviving ops at the **front** of their lane, so a producer's
    /// pipelined ops are never admitted out of program order — even
    /// when more ops are posted after the block was drained (the racy
    /// window between the violator's ticket answer and the re-queue).
    /// Producer P's chain renames one object's key `v0 → v1 → … → vN`;
    /// every link selects the previous key, so *any* reorder (or drop)
    /// leaves the chain stuck at some `v_i` — observable in the final
    /// database. Producer Q injects specialize/generalize pairs that
    /// violate when they land adjacently in one block, forcing
    /// re-queues underneath P's chain. The first block is pinned to
    /// `[violator, first link]` (the worker is held in a barrier op
    /// while both are posted), so the re-queue path runs on every run,
    /// not only when the scheduler drains a violator mid-block.
    #[test]
    fn requeue_preserves_per_producer_fifo_under_violations() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        // Specialization is forbidden outright: every `Up0` violates
        // ([S0] ∉ [R0]*), deterministically, and rolls back without
        // poisoning any state — the rejected object keeps reading
        // conforming [R0] repeats.
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x)    { create(R0, { K0 = x }); }
            transaction Up0(x)    { specialize(R0, S0, { K0 = x }, {}); }
            transaction Ren0(x, y) { modify(R0, { K0 = x }, { K0 = y }); }
        ",
        )
        .unwrap();
        let key = |k: String| Assignment::new(vec![Value::str(&k)]);
        const CHAIN: usize = 200;
        const VIOLATORS: usize = 60;
        let mut m = ShardedMonitor::new(&s, &a, &inv, crate::PatternKind::All, 3);
        // Small blocks and a tight queue: violations land mid-block and
        // producers keep posting while survivors are being re-queued.
        let cfg = IngressConfig { queue_capacity: 8, max_block: 4, ..Default::default() };
        let rename = |i: usize| {
            Assignment::new(vec![Value::str(&format!("v{i}")), Value::str(&format!("v{}", i + 1))])
        };
        let ((), stats) = serve(&mut m, &cfg, |client| {
            // The chain object.
            client.submit(ts.get("Mk0").unwrap(), key("v0".into())).unwrap();
            client.submit(ts.get("Mk0").unwrap(), key("q".into())).unwrap();
            // Hold the worker until one violator and the chain's first
            // link sit in the lane, in that order: the first block is
            // then [violator, link], and the link is re-queued.
            let (held_tx, held_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let hold: AdminOp<'_, '_> = Box::new(move |_| {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Box::new(|_| {})
            });
            client.post_admin(hold);
            held_rx.recv().unwrap();
            let violator = client.post(ts.get("Up0").unwrap(), key("q".into()));
            let link = client.post(ts.get("Ren0").unwrap(), rename(0));
            release_tx.send(()).unwrap();
            assert!(
                matches!(violator.wait(), Err(EnforceError::Violation(_))),
                "specialization is forbidden by the inventory"
            );
            link.wait().expect("chain links conform ([R0] repeats)");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // P: every link must see its predecessor's write.
                    let tickets: Vec<_> = (1..CHAIN)
                        .map(|i| client.post(ts.get("Ren0").unwrap(), rename(i)))
                        .collect();
                    for t in tickets {
                        t.wait().expect("chain links conform ([R0] repeats)");
                    }
                });
                scope.spawn(|| {
                    // Q: a stream of guaranteed violators into the same
                    // lane — each rejection re-queues whatever P ops
                    // were drained behind it.
                    for _ in 1..VIOLATORS {
                        let t = client.post(ts.get("Up0").unwrap(), key("q".into()));
                        assert!(
                            matches!(t.wait(), Err(EnforceError::Violation(_))),
                            "specialization is forbidden by the inventory"
                        );
                    }
                });
            });
        });
        // The chain completed in order: the object's key walked the
        // whole ladder. Any FIFO inversion strands it at an earlier
        // link (the later rename selects a key that does not exist yet
        // and silently misses).
        use migratory_model::{Atom, Condition};
        let r0 = s.class_id("R0").unwrap();
        let k0 = s.attr_id("K0").unwrap();
        let hit = m.db().sat(r0, &Condition::from_atoms([Atom::eq_const(k0, format!("v{CHAIN}"))]));
        assert_eq!(hit.len(), 1, "the rename chain must complete in program order");
        assert_eq!(stats.submitted, 2 + CHAIN + VIOLATORS);
        assert_eq!(stats.rejected, VIOLATORS);
        assert!(
            stats.requeued > 0,
            "no block was re-queued — the violation/requeue path went unexercised"
        );
    }

    /// The small, scripted shape of the same property: block [violator,
    /// survivor] drained together, a third op posted the moment the
    /// violator's ticket resolves — the survivor must still be admitted
    /// first (it was posted first). Looped to push the post through the
    /// re-queue window.
    #[test]
    fn requeued_survivor_stays_ahead_of_later_posts() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x)   { create(R0, { K0 = x }); }
            transaction Up0(x)   { specialize(R0, S0, { K0 = x }, {}); }
        ",
        )
        .unwrap();
        let key = |k: String| Assignment::new(vec![Value::str(&k)]);
        for round in 0..50 {
            let mut m = ShardedMonitor::new(&s, &a, &inv, crate::PatternKind::All, 3);
            let cfg = IngressConfig { queue_capacity: 16, max_block: 4, ..Default::default() };
            let ((), _) = serve(&mut m, &cfg, |client| {
                client.submit(ts.get("Mk0").unwrap(), key("y".into())).unwrap();
                // A always violates; B usually shares its block and is
                // re-queued.
                let t_a = client.post(ts.get("Up0").unwrap(), key("y".into()));
                let t_b = client.post(ts.get("Mk0").unwrap(), key("b".into()));
                // The violator resolves as soon as its block was
                // admitted — post C in the re-queue window.
                assert!(matches!(t_a.wait(), Err(EnforceError::Violation(_))));
                let t_c = client.post(ts.get("Mk0").unwrap(), key("c".into()));
                t_b.wait().expect("survivor admits");
                t_c.wait().expect("later post admits");
            });
            // B was posted before C: FIFO requires B's object to be
            // minted first whenever both committed.
            use migratory_model::{Atom, Condition};
            let r0 = s.class_id("R0").unwrap();
            let k0 = s.attr_id("K0").unwrap();
            let oid_of =
                |k: &str| m.db().sat(r0, &Condition::from_atoms([Atom::eq_const(k0, k)]))[0];
            assert!(
                oid_of("b") < oid_of("c"),
                "round {round}: survivor B admitted after later-posted C"
            );
        }
    }

    /// Run `scenario` on a thread of its own and fail unless it finishes
    /// within ten seconds: a lost wake-up parks a thread forever, and
    /// must fail the test instead of hanging the suite.
    fn within_deadline(what: &str, scenario: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            scenario();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: stuck for 10 s (lost wake-up)"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: the scenario panicked"),
        }
    }

    /// Spin until the ingress state satisfies `cond`.
    fn until(client: &IngressClient<'_, '_, '_>, cond: impl Fn(&State<'_, '_>) -> bool) {
        while !cond(&client.shared.state.lock().unwrap()) {
            std::thread::yield_now();
        }
    }

    /// The tags of [`refused_post_hears_next_drain`]'s ops, by the slot
    /// their completion names.
    const TAGS: [&str; 4] = ["a", "b", "c", "d"];

    /// A completion addressed to slot `i`: the op tagged `TAGS[i]`.
    fn tagged(slot: u64) -> Completion {
        Completion { thread: 0, conn: 0, slot }
    }

    /// A batch of one-key applications of `t`, the `i`-th op keyed
    /// `keys[i]` and addressed to slot `first + i`.
    fn batch<'t>(t: &'t Transaction, keys: &[&str], first: u64) -> VecDeque<Invoke<'t>> {
        (first..)
            .zip(keys)
            .map(|(slot, k)| Invoke {
                t,
                args: Assignment::new(vec![Value::str(k)]),
                done: tagged(slot),
            })
            .collect()
    }

    /// Park the admission worker inside an admin barrier until the
    /// returned sender fires: the lanes hold still while the test
    /// arranges them. Returns once the worker is parked, so every op
    /// admitted before the barrier was answered first.
    fn hold_worker(client: &IngressClient<'_, '_, '_>) -> mpsc::Sender<()> {
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        client.post_admin(Box::new(move |_| {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            Box::new(|_| {})
        }));
        held_rx.recv().unwrap();
        release_tx
    }

    /// Every lane is empty: the worker has drained what was posted.
    fn drained(st: &State<'_, '_>) -> bool {
        st.lanes.iter().all(VecDeque::is_empty)
    }

    /// A producer blocked in `post` on a full lane returns once the
    /// worker drains that lane.
    #[test]
    fn blocked_post_returns_once_its_lane_drains() {
        within_deadline("blocked post", || {
            let s = multi_schema();
            let a = RoleAlphabet::new(&s, 0).unwrap();
            let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
            let ts =
                parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
            let mk = ts.get("Mk0").unwrap();
            let key = |k: &str| Assignment::new(vec![Value::str(k)]);
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            let cfg = IngressConfig { queue_capacity: 1, max_block: 1, ..Default::default() };
            let ((), stats) = serve(&mut m, &cfg, |client| {
                client.on_done(|_, r| r.expect("creation conforms"));
                let mut a = batch(mk, &["a"], 0);
                client.post_batch(&mut a);
                assert!(a.is_empty(), "empty lane accepts");
                until(client, drained);
                let gate_tx = hold_worker(client);
                let t_b = client.post(mk, key("b")); // fills the lane
                std::thread::scope(|scope| {
                    let c = scope.spawn(|| client.post(mk, key("c")).wait());
                    until(client, |st| st.producers_waiting == 1);
                    gate_tx.send(()).unwrap(); // the worker drains b, freeing c's slot
                    c.join().unwrap().expect("c admits");
                });
                t_b.wait().expect("b admits");
            });
            assert_eq!(stats.admitted, 3);
        });
    }

    /// The event-loop admission surface: `post_batch` leaves (rather
    /// than blocks on) an op whose lane is full, handing it back in the
    /// batch, and the `on_space` listeners fire at the next drain after
    /// the refusal — of the refused op's own lane, or of another lane the
    /// round-robin reaches first — so the caller knows to retry. A drain
    /// with no refusal before it fires nothing.
    #[test]
    fn post_batch_leaves_an_op_on_a_full_lane_and_space_listener_fires() {
        for other_lane in [false, true] {
            within_deadline("refused post_batch", move || {
                refused_post_hears_next_drain(other_lane)
            });
        }
    }

    fn refused_post_hears_next_drain(other_lane: bool) {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
        ",
        )
        .unwrap();
        let (mk0, mk1) = (ts.get("Mk0").unwrap(), ts.get("Mk1").unwrap());
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        let cfg = IngressConfig { queue_capacity: 1, max_block: 1, ..Default::default() };
        let log = Arc::new(Mutex::new(Vec::new()));
        let ((), stats) = serve(&mut m, &cfg, |client| {
            let (space_tx, space_rx) = mpsc::channel();
            let listener_log = log.clone();
            client.on_space(move || {
                listener_log.lock().unwrap().push("space");
                let _ = space_tx.send(());
            });
            // Each op logs its tag once admitted.
            let done_log = log.clone();
            client.on_done(move |dones, r| {
                r.expect("creation conforms");
                for done in dones {
                    done_log.lock().unwrap().push(TAGS[done.slot as usize]);
                }
            });
            let mut posted = batch(mk0, &["a"], 0);
            client.post_batch(&mut posted);
            assert!(posted.is_empty(), "empty lane accepts");
            until(client, drained);
            let gate_tx = hold_worker(client);
            posted = batch(mk0, &["b"], 1);
            client.post_batch(&mut posted);
            assert!(posted.is_empty(), "lane has space");
            let mut refused = batch(mk0, &["c"], 2);
            client.post_batch(&mut refused);
            assert_eq!(refused.len(), 1, "lane at capacity must refuse, not block");
            if other_lane {
                // The round-robin resumes after lane 0, so lane 1 drains
                // before b's lane does.
                posted = batch(mk1, &["d"], 3);
                client.post_batch(&mut posted);
                assert!(posted.is_empty(), "lane 1 is empty");
            }
            gate_tx.send(()).unwrap();
            space_rx.recv().unwrap();
            if other_lane {
                // d is answered on the committer: let it land before a
                // refused retry can fire the listeners a second time.
                while !log.lock().unwrap().contains(&"d") {
                    std::thread::yield_now();
                }
            }
            loop {
                client.post_batch(&mut refused);
                if refused.is_empty() {
                    break;
                }
                // Refused again: that re-arms the listeners.
                space_rx.recv().unwrap();
            }
        });
        let log = log.lock().unwrap().clone();
        if other_lane {
            assert_eq!(log[..3], ["a", "space", "d"], "lane 1's drain fired the listener");
            let lane0: Vec<_> = log.iter().filter(|t| ["a", "b", "c"].contains(t)).collect();
            assert_eq!(lane0, [&"a", &"b", &"c"], "per-producer FIFO held");
            assert_eq!(stats.admitted, 4);
        } else {
            assert_eq!(log, ["a", "space", "b", "c"], "one refusal, one firing");
            assert_eq!(stats.admitted, 3);
        }
    }

    /// One `post_batch` under one lock: a batch whose third op meets a
    /// full lane queues the first two, and leaves the third and every
    /// later op — another lane's too, whose lane has room — in the batch
    /// in order. The space listener fires once, at the next drain, and
    /// the remainder posted after it keeps each lane's order.
    #[test]
    fn post_batch_stops_at_the_first_full_lane_and_keeps_the_rest_in_order() {
        within_deadline("batch remainder", || {
            let s = multi_schema();
            let a = RoleAlphabet::new(&s, 0).unwrap();
            let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
            let ts = parse_transactions(
                &s,
                r"
                transaction Mk0(x) { create(R0, { K0 = x }); }
                transaction Mk1(x) { create(R1, { K1 = x }); }
            ",
            )
            .unwrap();
            let (mk0, mk1) = (ts.get("Mk0").unwrap(), ts.get("Mk1").unwrap());
            const TAGS: [&str; 6] = ["p", "a", "b", "c", "d", "e"];
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            let cfg = IngressConfig { queue_capacity: 2, ..Default::default() };
            let (log, spaces) = (Arc::new(Mutex::new(Vec::new())), Arc::new(AtomicUsize::new(0)));
            let ((), stats) = serve(&mut m, &cfg, |client| {
                let (space_tx, space_rx) = mpsc::channel();
                let fired = spaces.clone();
                client.on_space(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                    let _ = space_tx.send(());
                });
                let done_log = log.clone();
                client.on_done(move |dones, r| {
                    r.expect("creation conforms");
                    let mut log = done_log.lock().unwrap();
                    log.extend(dones.iter().map(|d| TAGS[d.slot as usize]));
                });
                let answered = |n: usize| {
                    while log.lock().unwrap().len() < n {
                        std::thread::yield_now();
                    }
                };
                let (lane0, lane1) = (client.shared.lane_of(mk0), client.shared.lane_of(mk1));
                assert_ne!(lane0, lane1, "two components, two lanes");
                let gate_tx = hold_worker(client);
                let mut ops = batch(mk0, &["p"], 0);
                client.post_batch(&mut ops);
                // a → lane 0 (now full), b → lane 1, c meets lane 0 full.
                let mut ops: VecDeque<_> =
                    [(mk0, "a"), (mk1, "b"), (mk0, "c"), (mk1, "d"), (mk0, "e")]
                        .into_iter()
                        .zip(1..)
                        .flat_map(|((t, k), slot)| batch(t, &[k], slot))
                        .collect();
                client.post_batch(&mut ops);
                let left: Vec<_> = ops.iter().map(|op| TAGS[op.done.slot as usize]).collect();
                assert_eq!(
                    left,
                    ["c", "d", "e"],
                    "the third op and every later one stay, in order"
                );
                {
                    let st = client.shared.state.lock().unwrap();
                    assert_eq!((st.lanes[lane0].len(), st.lanes[lane1].len()), (2, 1));
                    assert_eq!(st.submitted, 3, "p, a and b were queued");
                    assert!(st.space_refused, "the full lane armed the listeners");
                }
                gate_tx.send(()).unwrap();
                space_rx.recv().unwrap();
                answered(3);
                client.post_batch(&mut ops);
                assert!(ops.is_empty(), "both lanes drained: the remainder goes in whole");
                answered(6);
            });
            assert_eq!(spaces.load(Ordering::SeqCst), 1, "one refusal, one firing");
            assert_eq!(stats.admitted, 6);
            let log = log.lock().unwrap().clone();
            let lane = |tags: &[&str]| -> Vec<&str> {
                log.iter().copied().filter(|t| tags.contains(t)).collect()
            };
            assert_eq!(lane(&["p", "a", "c", "e"]), ["p", "a", "c", "e"], "lane 0 kept its order");
            assert_eq!(lane(&["b", "d"]), ["b", "d"], "lane 1 kept its order");
        });
    }

    /// A worker parked on empty lanes wakes for every way work arrives —
    /// `post`, `post_batch`, `post_admin` — and for close, while a
    /// `read` is answered without waking it.
    #[test]
    fn parked_worker_wakes_for_every_post_and_close() {
        within_deadline("parked worker", || {
            let s = multi_schema();
            let a = RoleAlphabet::new(&s, 0).unwrap();
            let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
            let ts =
                parse_transactions(&s, "transaction Mk0(x) { create(R0, { K0 = x }); }").unwrap();
            let mk = ts.get("Mk0").unwrap();
            let key = |k: &str| Assignment::new(vec![Value::str(k)]);
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            let ((), stats) = serve(&mut m, &IngressConfig::default(), |client| {
                let parked = |st: &State<'_, '_>| st.worker_parked;
                until(client, parked);
                client.post(mk, key("a")).wait().expect("post wakes the worker");
                until(client, parked);
                let (tx, rx) = mpsc::channel();
                client.on_done(move |dones, r| tx.send((dones.to_vec(), r)).unwrap());
                let mut b = batch(mk, &["b"], 1);
                client.post_batch(&mut b);
                assert!(b.is_empty(), "lane has space");
                let (dones, r) = rx.recv().unwrap();
                r.expect("post_batch wakes the worker");
                assert_eq!(dones, [tagged(1)], "the outcome comes back with its completion");
                until(client, parked);
                let (tx, rx) = mpsc::channel();
                client.post_admin(Box::new(move |gate| {
                    tx.send(gate.is_ok()).unwrap();
                    Box::new(|_| {})
                }));
                assert!(rx.recv().unwrap(), "admin op ran");
                // A read needs no wake-up: it is answered while the
                // worker stays parked, and leaves it parked.
                until(client, parked);
                assert_eq!(client.read(|m| m.db().num_objects()), 2, "read sees both admits");
                assert!(client.shared.state.lock().unwrap().worker_parked, "read woke the worker");
                // Returning closes the ingress; `serve` returns only once
                // the close has woken the parked worker.
                until(client, parked);
            });
            assert_eq!(stats.admitted, 2);
        });
    }

    /// A reader never sees a refused or partly admitted block.
    /// `try_apply_batch` applies a block's deltas in place before it
    /// validates them, so the exclusive section must cover the whole
    /// call: producers mix creations with specializations the inventory
    /// refuses, while two readers spin on `read`. A visible refused
    /// specialization shows up in `S0`; a visible creation that was
    /// later undone (it sat behind the violator) makes the count fall.
    #[test]
    fn readers_never_see_a_refused_or_partly_admitted_block() {
        for pipelined in [false, true] {
            within_deadline("reader visibility", move || reader_visibility(pipelined));
        }
    }

    fn reader_visibility(pipelined: bool) {
        use crate::enforce::{FsyncPolicy, Wal};
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
        let (mk, up) = (ts.get("Mk0").unwrap(), ts.get("Up0").unwrap());
        let s0 = s.class_id("S0").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        let cfg = IngressConfig { queue_capacity: 64, max_block: 16, ..Default::default() };
        let (seen, stats) = if pipelined {
            let dir = pipelined_temp_dir("visibility");
            let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap().with_fsync(FsyncPolicy::Batch)));
            let out = serve(
                &mut m,
                &IngressConfig { wal: Some(DurableLog { log: wal, repl: None }), ..cfg },
                |client| mixed_blocks_under_readers(client, mk, up, s0),
            );
            let _ = std::fs::remove_dir_all(&dir);
            out
        } else {
            serve(&mut m, &cfg, |client| mixed_blocks_under_readers(client, mk, up, s0))
        };
        let (creations, violators) =
            (VIS_PRODUCERS * VIS_ROUNDS * VIS_BATCH, VIS_PRODUCERS * VIS_ROUNDS);
        assert_eq!((stats.admitted, stats.rejected), (creations, violators));
        assert!(stats.requeued > 0, "no creation sat behind a violator");
        assert_eq!(seen, stats.admitted, "the last read saw every admitted op");
        assert_eq!(m.db().num_objects(), stats.admitted);
    }

    const VIS_PRODUCERS: usize = 2;
    const VIS_ROUNDS: usize = 40;
    const VIS_BATCH: usize = 8;

    /// Each producer pipelines rounds of `VIS_BATCH` creations with one
    /// refused specialization in the middle; two readers check every
    /// state they see. Returns the object count of a read taken after
    /// every ticket was answered.
    fn mixed_blocks_under_readers<'t>(
        client: &IngressClient<'t, '_, '_>,
        mk: &'t Transaction,
        up: &'t Transaction,
        s0: migratory_model::ClassId,
    ) -> usize {
        let key = |k: String| Assignment::new(vec![Value::str(&k)]);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last = 0;
                    loop {
                        let finished = done.load(Ordering::SeqCst);
                        let (students, objects) = client.read(|m| {
                            let all = migratory_model::Condition::empty();
                            (m.db().sat(s0, &all).len(), m.db().num_objects())
                        });
                        assert_eq!(students, 0, "a refused specialization was visible");
                        assert!(objects >= last, "count fell {last} → {objects}: undone ops seen");
                        last = objects;
                        if finished {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            let producers: Vec<_> = (0..VIS_PRODUCERS)
                .map(|p| {
                    scope.spawn(move || {
                        for r in 0..VIS_ROUNDS {
                            let mut tickets = Vec::new();
                            for i in 0..VIS_BATCH {
                                tickets.push((true, client.post(mk, key(format!("{p}-{r}-{i}")))));
                                if i == VIS_BATCH / 2 {
                                    let victim = key(format!("{p}-{r}-0"));
                                    tickets.push((false, client.post(up, victim)));
                                }
                            }
                            for (conforms, t) in tickets {
                                assert_eq!(t.wait().is_ok(), conforms, "only Up0 is refused");
                            }
                        }
                    })
                })
                .collect();
            let joined: Vec<_> = producers.into_iter().map(|p| p.join()).collect();
            done.store(true, Ordering::SeqCst);
            assert!(joined.iter().all(Result::is_ok), "a producer panicked");
        });
        client.read(|m| m.db().num_objects())
    }

    fn pipelined_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("migratory-pipelined-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The tentpole smoke: pipelined group commit admits everything the
    /// synchronous path would, acks only after durability, and what the
    /// log holds recovers byte-identically to the served monitor.
    #[test]
    fn pipelined_serve_acks_durably_and_recovers_byte_identically() {
        use crate::enforce::{FsyncPolicy, Wal};
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
            transaction Mk2(x) { create(R2, { K2 = x }); }
        ",
        )
        .unwrap();
        let dir = pipelined_temp_dir("smoke");
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap().with_fsync(FsyncPolicy::Batch)));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        const PER: usize = 40;
        let ((), stats) = serve(
            &mut m,
            &IngressConfig {
                queue_capacity: 8,
                max_block: 16,
                wal: Some(DurableLog { log: wal.clone(), repl: None }),
                ..Default::default()
            },
            |client| {
                std::thread::scope(|scope| {
                    for name in ["Mk0", "Mk1", "Mk2"] {
                        let t = ts.get(name).unwrap();
                        scope.spawn(move || {
                            for i in 0..PER {
                                let args =
                                    Assignment::new(vec![Value::str(&format!("{name}-{i}"))]);
                                client.submit(t, args).expect("creation conforms");
                            }
                        });
                    }
                });
            },
        );
        assert_eq!((stats.admitted, stats.rejected, stats.refused), (3 * PER, 0, 0));
        assert_eq!(m.db().num_objects(), 3 * PER);
        // Every acked op is on disk: the recovered monitor is
        // byte-identical to the served one.
        {
            let w = wal.lock().unwrap();
            assert_eq!(w.synced_len(), w.dir().join("wal.log").metadata().unwrap().len());
        }
        let (snap, tail) = Wal::load(&dir).unwrap();
        let r = ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 3, snap, tail).unwrap();
        assert_eq!(r.db(), m.db());
        assert_eq!(r.clocks(), m.clocks());
        assert_eq!(r.snapshot().encode(), m.snapshot().encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Violations are answered on the worker (no state change → no
    /// durability requirement) while admitted neighbours flow through
    /// the committer; the re-queue discipline is unchanged.
    #[test]
    fn pipelined_violation_rejects_and_requeues_like_the_sync_path() {
        use crate::enforce::{FsyncPolicy, Wal};
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* [S0] ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
        ",
        )
        .unwrap();
        let dir = pipelined_temp_dir("violation");
        let wal = Arc::new(Mutex::new(Wal::open(&dir).unwrap().with_fsync(FsyncPolicy::Batch)));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        let mk0 = ts.get("Mk0").unwrap();
        let up0 = ts.get("Up0").unwrap();
        let key = |k: &str| Assignment::new(vec![Value::str(k)]);
        let ((), stats) = serve(
            &mut m,
            &IngressConfig { wal: Some(DurableLog { log: wal, repl: None }), ..Default::default() },
            |client| {
                let t1 = client.post(mk0, key("x"));
                let t2 = client.post(up0, key("x"));
                let t3 = client.post(up0, key("x"));
                let t4 = client.post(mk0, key("y"));
                assert!(t1.wait().is_ok());
                assert!(t2.wait().is_ok());
                assert!(matches!(t3.wait(), Err(EnforceError::Violation(_))));
                assert!(t4.wait().is_err(), "y's creation gives x a second [S0] letter");
            },
        );
        assert_eq!((stats.admitted, stats.rejected), (2, 2));
        assert_eq!(m.db().num_objects(), 1, "only x exists; y was rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn violation_rejects_one_op_and_requeues_the_rest() {
        let s = multi_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        // One-way street: R0 may specialize, never come back, and the
        // pattern must end after [S0].
        let inv = Inventory::parse_init(&s, &a, "∅* [R0]* [S0] ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
        ",
        )
        .unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
        let mk0 = ts.get("Mk0").unwrap();
        let up0 = ts.get("Up0").unwrap();
        let key = |k: &str| Assignment::new(vec![Value::str(k)]);
        let ((), stats) = serve(&mut m, &IngressConfig::default(), |client| {
            // Pipelined into one lane: make, specialize, then a second
            // specialize that violates ([S0][S0] ∉ 𝔏 — wait, the
            // *letter* after [S0] must be ∅; re-specializing keeps x at
            // [S0] which 𝔏 forbids after the single [S0]), then a make
            // that must still admit afterwards.
            let t1 = client.post(mk0, key("x"));
            let t2 = client.post(up0, key("x"));
            let t3 = client.post(up0, key("x"));
            let t4 = client.post(mk0, key("y"));
            assert!(t1.wait().is_ok());
            assert!(t2.wait().is_ok());
            assert!(matches!(t3.wait(), Err(EnforceError::Violation(_))));
            assert!(t4.wait().is_err(), "y's creation gives x a second [S0] letter");
        });
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 2);
        assert_eq!(m.db().num_objects(), 1, "only x exists; y was rejected");
    }
}
