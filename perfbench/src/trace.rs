//! The traced in-process replay (`--trace 1`).
//!
//! It regenerates the workload's inputs from the same seed and store
//! size and drives them through each layer's public functions, one span
//! per call at each layer boundary:
//!
//! 1. `net`: decode every request as a binary frame and as a text line,
//!    parse every query, encode every reply;
//! 2. `ingress`: post every migration through an ingress and wait on its
//!    ticket, with the client's window of requests in flight;
//! 3. `sharded` + `wal` + `repl`: bulk-load the store and admit the
//!    migrations in per-lane blocks with `ShardedMonitor::try_apply_batch`
//!    through a `CommitSink` that encodes and appends each record, then
//!    syncs and ships once per block, so those spans nest inside the
//!    engine's; checkpoint every 16 blocks; ship to an in-process standby
//!    that folds each record with `replay_record`; answer the queries
//!    with `Instance::sat`; recover the log with `Wal::load` and
//!    `ShardedMonitor::recover`;
//! 4. `lang`: apply the same transactions to a bare `Instance`.
//!
//! Step 3 runs three times, spans off, on, off; the difference between
//! the traced pass's CPU time and the mean of the other two is the
//! tracing overhead. Spans stay in memory and are written
//! once, at the end, as CSV. Every verdict and count is checked as in
//! the end-to-end run.

use crate::e2e::Verdict;
use crate::gen::{self, Expect, Model, Op, Reader, Writer, COMPONENTS, LENIENT, STRICT};
use crate::report::{quantile, Report};
use crate::Spec;
use migratory_core::enforce::net::{self, frame};
use migratory_core::enforce::{
    ingress, wal, AckPolicy, BlockRef, CheckpointData, CommitSink, EnforceError, FsyncPolicy,
    IngressConfig, Replicator, ResiduePolicy, ShardedMonitor, Snapshot, Wal, WalError,
};
use migratory_core::{Inventory, PatternKind, RoleAlphabet};
use migratory_lang::{parse_transactions, Assignment, Transaction, TransactionSchema};
use migratory_model::text::parse_schema;
use migratory_model::{ClassId, Condition, Instance, Schema, Value};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Migrations replayed per run (plus the redefines they carry).
const MIGRATIONS: usize = 40_000;
/// Point queries answered per run.
const QUERIES: usize = 20_000;
/// Ops per admission block, per lane.
const BLOCK: usize = 64;
/// Blocks between incremental checkpoints (`migctl serve`'s default).
const CHECKPOINT_EVERY: usize = 16;
/// Requests timed together in one `net`/`lang`/`model` span.
const CHUNK: usize = 256;

const ROOT: u32 = u32::MAX;

#[derive(Clone)]
struct Span {
    name: &'static str,
    /// Request or block id (0 when the call serves no single one).
    id: u64,
    start: u64,
    end: u64,
    parent: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans in memory; a disabled tracer records nothing and reads no
/// clock.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new(on: bool, t0: Instant) -> Tracer {
        Tracer { on, t0, spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &'static str, id: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let idx = self.spans.len() as u32;
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, id, start, end: start, parent });
        self.open.push(idx);
        Some(idx)
    }

    fn exit(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            self.spans[i as usize].end = self.t0.elapsed().as_nanos() as u64;
            self.open.pop();
        }
    }
}

type Shared = Arc<Mutex<Tracer>>;

fn span<R>(t: &Shared, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let s = t.lock().expect("tracer poisoned").enter(name, id);
    let r = f();
    t.lock().expect("tracer poisoned").exit(s);
    r
}

/// The harness-side commit sink: `committed` encodes and appends each
/// record through the layers' public calls; [`TraceSink::flush`] syncs
/// and ships what the block appended, once per block as the server's
/// committer does per batch. Both run inside the engine span that
/// admitted the block, so the log and ship spans nest in it.
struct TraceSink {
    wal: Wal,
    repl: Arc<Replicator>,
    tracer: Shared,
    buf: Vec<u8>,
    /// Appended since the last flush: what the next ship sends.
    unsynced: Vec<u8>,
    logged_ops: u64,
    bytes: u64,
}

impl TraceSink {
    fn append(&mut self) -> Result<(), WalError> {
        let t = Arc::clone(&self.tracer);
        span(&t, "wal.append", 0, || self.wal.append_bytes(&self.buf))?;
        self.bytes += self.buf.len() as u64;
        self.unsynced.extend_from_slice(&self.buf);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), WalError> {
        if self.unsynced.is_empty() {
            return Ok(());
        }
        let t = Arc::clone(&self.tracer);
        span(&t, "wal.fsync", 0, || self.wal.sync())?;
        let shipped = span(&t, "repl.ship", 0, || self.repl.ship_and_wait(&self.unsynced));
        self.unsynced.clear();
        shipped.map_err(WalError::Mismatch)
    }
}

impl CommitSink for TraceSink {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        self.buf.clear();
        let t = Arc::clone(&self.tracer);
        span(&t, "wal.encode", 0, || wal::encode_record(&mut self.buf, block))?;
        self.logged_ops += block.deltas.len() as u64;
        self.append()
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        self.buf.clear();
        wal::encode_certify_record(&mut self.buf, steps);
        self.append()
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        self.buf.clear();
        wal::encode_redefine_record(&mut self.buf, epoch, policy, shards, inventory)?;
        self.append()
    }
}

/// Parsed schema, transactions and both inventories.
struct Ctx {
    schema: Schema,
    alphabet: RoleAlphabet,
    ts: TransactionSchema,
    lenient: Inventory,
    strict: Inventory,
    policy: ResiduePolicy,
}

impl Ctx {
    fn new() -> Result<Ctx, String> {
        let schema = parse_schema(&gen::schema_src()).map_err(|e| format!("schema: {e}"))?;
        let alphabet = RoleAlphabet::new(&schema, 0).map_err(|e| format!("alphabet: {e}"))?;
        let ts = parse_transactions(&schema, &gen::transactions_src())
            .map_err(|e| format!("transactions: {e}"))?;
        let inv = |src| Inventory::parse_init(&schema, &alphabet, src).map_err(|e| format!("{e}"));
        let (lenient, strict) = (inv(LENIENT)?, inv(STRICT)?);
        let policy = ResiduePolicy::parse(gen::REDEFINE_POLICY)?;
        Ok(Ctx { schema, alphabet, ts, lenient, strict, policy })
    }

    fn monitor(&self) -> ShardedMonitor<'_> {
        ShardedMonitor::new(&self.schema, &self.alphabet, &self.lenient, PatternKind::All, 4)
    }

    fn invoke(&self, op: &Op) -> (&Transaction, Assignment) {
        let Op::Invoke { name, key, .. } = op else { unreachable!("only invokes are applied") };
        (
            self.ts.get(name).expect("generated transactions exist"),
            Assignment::new(vec![Value::str(key)]),
        )
    }

    fn inventory(&self, src: &str) -> &Inventory {
        if src == STRICT {
            &self.strict
        } else {
            &self.lenient
        }
    }

    /// Members of each component's subclass, as `query <sub>` counts.
    fn counts(&self, db: &Instance) -> Vec<usize> {
        COMPONENTS
            .iter()
            .map(|c| {
                let (class, cond) = net::parse_query(&self.schema, c.sub).expect("subclass exists");
                db.sat(class, &cond).len()
            })
            .collect()
    }
}

/// The workload's generated inputs, in the order one producer sends them.
struct Inputs {
    /// Per-key creates, as the wire loads the store.
    load: Vec<Op>,
    /// The same store as one bulk transaction per component.
    bulk: Vec<Transaction>,
    migrations: Vec<Op>,
    queries: Vec<Op>,
    model: Model,
}

fn inputs(ctx: &Ctx, spec: &Spec, seed: u64) -> Inputs {
    let n = spec.objects;
    let load = gen::load_ops(n, 0, 1);
    let owners = if spec.replica { 1 } else { 2 };
    let mut writers: Vec<(Writer, Model)> = (0..owners)
        .map(|o| {
            (
                Writer::new(seed, n, o, owners, spec.redefine_every, spec.scrap_per_mille),
                Model::new(n),
            )
        })
        .collect();
    let mut migrations = Vec::with_capacity(MIGRATIONS + MIGRATIONS / 16);
    let mut sent = 0;
    while sent < MIGRATIONS {
        for (w, m) in &mut writers {
            let op = w.next(m);
            sent += usize::from(matches!(op, Op::Invoke { .. }));
            migrations.push(op);
        }
    }
    let mut model = Model::new(n);
    for (_, m) in &writers {
        model.absorb(m);
    }
    let mut reader = Reader::new(seed, n);
    let queries = (0..QUERIES).map(|_| reader.next()).collect();
    Inputs { load, bulk: bulk_load(ctx, n), migrations, queries, model }
}

/// The admission lane (= component) an invoke lands on.
fn lane_of(op: &Op) -> usize {
    match op {
        Op::Invoke { key, .. } => match key.as_bytes()[0] {
            b'd' => 1,
            b'r' => 2,
            b'p' => 3,
            _ => 0,
        },
        _ => 0,
    }
}

/// Step 1: the wire codecs.
fn net_phase(ctx: &Ctx, inp: &Inputs, t: &Shared, r: &mut Report, v: &mut Verdict) {
    let invokes: Vec<&Op> =
        inp.migrations.iter().filter(|o| matches!(o, Op::Invoke { .. })).collect();
    let mut frames = Vec::new();
    let mut lines = Vec::with_capacity(invokes.len());
    for op in &invokes {
        let Op::Invoke { name, key, .. } = op else { unreachable!("filtered to invokes") };
        frame::encode_invoke_frame(&mut frames, name, &[Value::str(key)]);
        lines.push(format!("{name}({key})"));
    }
    let (mut pos, mut bad) = (0usize, 0usize);
    for (c, chunk) in invokes.chunks(CHUNK).enumerate() {
        span(t, "net.decode_frame", c as u64, || {
            for op in chunk {
                let frame::Scan::Frame { payload_len, .. } = frame::scan(&frames[pos..]) else {
                    bad += 1;
                    continue;
                };
                let body = &frames[pos + frame::HEADER_LEN..pos + frame::HEADER_LEN + payload_len];
                let mut rd = migratory_model::codec::Reader::new(body);
                let ok = migratory_lang::codec::decode_invoke(&mut rd)
                    .is_ok_and(|(name, _)| matches!(op, Op::Invoke { name: n, .. } if *n == name));
                bad += usize::from(!ok);
                pos += frame::HEADER_LEN + payload_len;
            }
        });
    }
    for (c, chunk) in lines.chunks(CHUNK).enumerate() {
        span(t, "net.parse_line", c as u64, || {
            for l in chunk {
                bad += usize::from(std::hint::black_box(net::parse_invocation(l)).is_err());
            }
        });
    }
    let bodies: Vec<&str> = inp
        .queries
        .iter()
        .filter_map(|q| match q {
            Op::Query { body, .. } => Some(body.as_str()),
            _ => None,
        })
        .collect();
    for (c, chunk) in bodies.chunks(CHUNK).enumerate() {
        span(t, "net.parse_query", c as u64, || {
            for b in chunk {
                bad += usize::from(std::hint::black_box(net::parse_query(&ctx.schema, b)).is_err());
            }
        });
    }
    let mut out = Vec::with_capacity(CHUNK * frame::HEADER_LEN);
    for c in 0..invokes.len().div_ceil(CHUNK) {
        span(t, "net.encode_reply", c as u64, || {
            out.clear();
            for _ in 0..CHUNK {
                frame::encode(&mut out, frame::REP_OK, b"");
            }
            std::hint::black_box(&out);
        });
    }
    v.attempted += (2 * invokes.len() + bodies.len()) as u64;
    if bad > 0 {
        v.wrong(format!("{bad} requests failed to decode"));
    }
    let spans = &t.lock().expect("tracer poisoned").spans;
    let per = |name: &str, n: usize| total_ns(spans, name) as f64 / n as f64;
    let decode_ops = invokes.len();
    r.put("net.decode_frame_ns", "ns", per("net.decode_frame", decode_ops), Some(decode_ops));
    r.put("net.parse_line_ns", "ns", per("net.parse_line", decode_ops), Some(decode_ops));
    r.put("net.parse_query_ns", "ns", per("net.parse_query", bodies.len()), Some(bodies.len()));
    let replies = invokes.len().div_ceil(CHUNK) * CHUNK;
    r.put("net.encode_reply_ns", "ns", per("net.encode_reply", replies), Some(replies));
}

fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// One create-only transaction per component, together creating the
/// whole store: the bulk load.
fn bulk_load(ctx: &Ctx, objects: usize) -> Vec<Transaction> {
    use migratory_lang::AtomicUpdate;
    use migratory_model::Atom;
    COMPONENTS
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let class = ctx.schema.class_id(c.root).expect("root class exists");
            let key = ctx.schema.attr_id(c.key).expect("key attribute exists");
            let creates = (ci..objects)
                .step_by(4)
                .map(|i| AtomicUpdate::Create {
                    class,
                    gamma: Condition::from_atoms([Atom::eq_const(key, gen::key_of(i))]),
                })
                .collect();
            Transaction::sl(&format!("Load{}", c.root), &[], creates)
        })
        .collect()
}

/// Bulk-load the store into `m` in one block.
fn load(m: &mut ShardedMonitor<'_>, bulk: &[Transaction], objects: usize, v: &mut Verdict) {
    let none = Assignment::new(Vec::new());
    let (done, err) = m.try_apply_batch(bulk.iter().map(|t| (t, &none)));
    v.attempted += 1;
    if done != bulk.len() || err.is_some() || m.db().num_objects() != objects {
        v.wrong(format!("bulk load committed {done} of {}: {err:?}", bulk.len()));
    }
}

fn check_outcome(op: &Op, outcome: &Result<(), EnforceError>, ctx: &Ctx, v: &mut Verdict) {
    let Op::Invoke { expect, .. } = op else { return };
    v.attempted += 1;
    let ok = match (expect, outcome) {
        (Expect::Ok, Ok(())) => true,
        (Expect::Violation { epoch }, Err(EnforceError::Violation(vi))) => {
            vi.epoch == *epoch && vi.display(&ctx.alphabet).ends_with(&format!("[epoch {epoch}]"))
        }
        _ => false,
    };
    if !ok {
        v.wrong(format!("expected {expect:?}, got {outcome:?}"));
    }
}

fn check_redefine(expect: &Expect, got: Result<(u64, usize), String>, v: &mut Verdict) {
    v.attempted += 1;
    let Expect::Redefined { epoch, residue } = expect else { return };
    if got != Ok((*epoch, *residue)) {
        v.wrong(format!("redefine: expected epoch={epoch} residue={residue}, got {got:?}"));
    }
}

fn check_counts(what: &str, got: &[usize], model: &Model, v: &mut Verdict) {
    v.attempted += 1;
    if got != model.promoted_per_component() {
        v.wrong(format!(
            "{what}: subclass counts {got:?}, script says {:?}",
            model.promoted_per_component()
        ));
    }
}

type Posted<'o> = VecDeque<(Instant, ingress::Ticket, &'o Op)>;

/// Wait on the oldest tickets until at most `keep` are in flight.
fn settle<'o>(
    pending: &mut Posted<'o>,
    keep: usize,
    waits: &mut Vec<u64>,
    outcomes: &mut Vec<(&'o Op, Result<(), EnforceError>)>,
) {
    while pending.len() > keep {
        let (at, ticket, op) = pending.pop_front().expect("non-empty");
        let outcome = ticket.wait();
        waits.push(at.elapsed().as_nanos() as u64);
        outcomes.push((op, outcome));
    }
}

/// Step 2: every migration posted through an ingress, `window` in flight.
fn ingress_phase(ctx: &Ctx, spec: &Spec, inp: &Inputs, r: &mut Report, v: &mut Verdict) {
    let mut m = ctx.monitor();
    load(&mut m, &inp.bulk, spec.objects, v);
    // As many in flight as the untraced run's write connections keep.
    let window = if spec.replica { spec.window } else { 2 * spec.window };
    let config = IngressConfig::default();
    let mut outcomes = Vec::new();
    let (waits, stats) = ingress::serve(&mut m, &config, |client| {
        let mut waits: Vec<u64> = Vec::with_capacity(inp.migrations.len());
        let mut pending = VecDeque::new();
        let mut redefines = Vec::new();
        for op in &inp.migrations {
            match op {
                Op::Redefine { src, expect } => {
                    settle(&mut pending, 0, &mut waits, &mut outcomes);
                    let (tx, rx) = std::sync::mpsc::channel();
                    let (inv, policy) = (ctx.inventory(src).clone(), ctx.policy);
                    client.post_admin(Box::new(move |gate| {
                        let got = gate.and_then(|m| {
                            m.redefine(&inv, policy)
                                .map(|o| (o.epoch, o.residue))
                                .map_err(|e| e.to_string())
                        });
                        let _ = tx.send(got);
                        Box::new(|_| {})
                    }));
                    let got = rx.recv().unwrap_or_else(|_| Err("admin op dropped".into()));
                    redefines.push((expect, got));
                }
                Op::Invoke { .. } => {
                    settle(&mut pending, window - 1, &mut waits, &mut outcomes);
                    let (t, a) = ctx.invoke(op);
                    pending.push_back((Instant::now(), client.post(t, a), op));
                }
                Op::Query { .. } => {}
            }
        }
        settle(&mut pending, 0, &mut waits, &mut outcomes);
        (waits, redefines)
    });
    let (mut waits, redefines) = waits;
    for (op, outcome) in outcomes {
        check_outcome(op, &outcome, ctx, v);
    }
    for (expect, got) in redefines {
        check_redefine(expect, got, v);
    }
    check_counts("ingress replay", &ctx.counts(m.db()), &inp.model, v);
    let n = waits.len();
    r.put("ingress.wait_us.p50", "us", quantile(&mut waits, 0.50) / 1e3, Some(n));
    r.put("ingress.wait_us.p99", "us", quantile(&mut waits, 0.99) / 1e3, Some(n));
    let per_block = stats.submitted as f64 / stats.blocks.max(1) as f64;
    r.put("ingress.ops_per_block", "ops", per_block, Some(stats.blocks));
}

/// What the standby folded.
struct Standby {
    spans: Vec<Span>,
    counts: Vec<usize>,
    /// The stream offset it had read up to when the stream closed.
    horizon: u64,
}

/// The standby: bootstrap from the preamble's snapshot, fold every
/// shipped record with `replay_record`, ack each horizon.
fn standby(
    ctx: &Ctx,
    addr: &str,
    on: bool,
    t0: Instant,
    horizon: &AtomicU64,
) -> Result<Standby, String> {
    let io = |e: std::io::Error| format!("standby: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    let mut pre = [0u8; 22];
    s.read_exact(&mut pre).map_err(io)?;
    if &pre[..6] != migratory_core::enforce::repl::PREAMBLE {
        return Err("standby: bad preamble".into());
    }
    let mut at = u64::from_le_bytes(pre[6..14].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(pre[14..22].try_into().expect("8 bytes")) as usize;
    let mut snap = vec![0u8; len];
    s.read_exact(&mut snap).map_err(io)?;
    let snap = Snapshot::decode(&snap).map_err(|e| format!("standby snapshot: {e}"))?;
    let mut m = ShardedMonitor::recover(
        &ctx.schema,
        &ctx.alphabet,
        &ctx.lenient,
        PatternKind::All,
        4,
        Some(snap),
        Vec::new(),
    )
    .map_err(|e| format!("standby bootstrap: {e}"))?;
    let mut tr = Tracer::new(on, t0);
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    horizon.store(at, Ordering::SeqCst);
    loop {
        let n = match s.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        buf.extend_from_slice(&chunk[..n]);
        let (records, used) =
            wal::decode_stream(&buf).map_err(|e| format!("standby stream: {e}"))?;
        for rec in records {
            let sp = tr.enter("sharded.replay_record", at);
            m.replay_record(rec).map_err(|e| format!("standby fold: {e}"))?;
            tr.exit(sp);
        }
        buf.drain(..used);
        at += used as u64;
        if used > 0 {
            horizon.store(at, Ordering::SeqCst);
            if s.write_all(&at.to_le_bytes()).is_err() {
                break;
            }
        }
    }
    Ok(Standby { spans: tr.spans, counts: ctx.counts(m.db()), horizon: at })
}

/// What one run of step 3 measured.
struct Engine {
    wall_s: f64,
    /// CPU this process (engine, standby, replicator threads) spent.
    cpu_s: f64,
    /// When the bulk load ended: log and ship figures count only the
    /// migrations after it.
    load_end: u64,
    spans: Vec<Span>,
    standby: Vec<Span>,
    /// Ops in blocks without a scripted violation: what the
    /// `sharded.batch` spans admitted.
    clean_ops: u64,
    logged_ops: u64,
    /// Log bytes appended after the load.
    bytes: u64,
    /// Stream bytes the standby read after the load.
    repl_bytes: u64,
    chain_files: usize,
    snapshot_bytes: usize,
}

/// Step 3: engine, log, checkpoints, replication, queries and recovery.
#[allow(clippy::too_many_lines)]
fn engine_phase(
    ctx: &Ctx,
    spec: &Spec,
    inp: &Inputs,
    dir: &Path,
    on: bool,
    v: &mut Verdict,
) -> Result<Engine, String> {
    let walk = |e: WalError| e.to_string();
    let wal_dir = dir.join(if on { "trace-wal-on" } else { "trace-wal-off" });
    let _ = std::fs::remove_dir_all(&wal_dir);
    let t0 = Instant::now();
    let cpu0 = crate::report::cpu_s(std::process::id());
    let tracer: Shared = Arc::new(Mutex::new(Tracer::new(on, t0)));
    let t = &tracer;
    let wal = Wal::open(&wal_dir).map_err(walk)?.with_fsync(FsyncPolicy::Batch);
    let ack = if spec.replica { AckPolicy::ReplicaK(1) } else { AckPolicy::LocalFsync };
    let repl = Arc::new(
        Replicator::bind("127.0.0.1:0")
            .map_err(|e| e.to_string())?
            .with_policy(ack)
            .with_ack_timeout(Duration::from_secs(30)),
    );
    let sink = Arc::new(Mutex::new(TraceSink {
        wal,
        repl: Arc::clone(&repl),
        tracer: Arc::clone(&tracer),
        buf: Vec::new(),
        unsynced: Vec::new(),
        logged_ops: 0,
        bytes: 0,
    }));
    let flush = || sink.lock().expect("sink poisoned").flush().map_err(|e| e.to_string());
    let shared: migratory_core::enforce::SharedSink = sink.clone();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let acked = AtomicU64::new(0);
    let mut clean_ops = 0u64;
    std::thread::scope(|scope| -> Result<Engine, String> {
        let standby_thread = scope.spawn(|| standby(ctx, &addr, on, t0, &acked));
        let mut m = ctx.monitor().with_sink(shared);
        let base = m.checkpoint_full();
        sink.lock()
            .expect("sink poisoned")
            .wal
            .begin_checkpoint(CheckpointData::Full(base))
            .and_then(|j| j.run())
            .map_err(walk)?;
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        repl.register(stream, m.snapshot().encode());

        span(t, "sharded.load", 0, || {
            load(&mut m, &inp.bulk, spec.objects, v);
            flush()
        })?;
        let load_end = t0.elapsed().as_nanos() as u64;
        let shipped_at_load = repl.horizon();
        {
            let mut s = sink.lock().expect("sink poisoned");
            (s.logged_ops, s.bytes) = (0, 0);
        }
        // Per-lane blocks, flushed at every redefine (a barrier) and
        // whenever a lane fills.
        let mut lanes: [Vec<&Op>; 4] = Default::default();
        let mut blocks = 0usize;
        let mut apply =
            |m: &mut ShardedMonitor<'_>, block: &[&Op], v: &mut Verdict| -> Result<(), String> {
                let items: Vec<(&Transaction, Assignment)> =
                    block.iter().map(|o| ctx.invoke(o)).collect();
                let scripted = block
                    .iter()
                    .any(|o| matches!(o, Op::Invoke { expect: Expect::Violation { .. }, .. }));
                let name = if scripted { "sharded.violation_batch" } else { "sharded.batch" };
                let id = blocks as u64;
                span(t, name, id, || {
                    let mut pos = 0;
                    while pos < items.len() {
                        let (done, err) =
                            m.try_apply_batch(items[pos..].iter().map(|(t, a)| (*t, a)));
                        for op in &block[pos..pos + done] {
                            check_outcome(op, &Ok(()), ctx, v);
                        }
                        pos += done;
                        match err {
                            None => break,
                            Some(e) => {
                                check_outcome(block[pos], &Err(e), ctx, v);
                                pos += 1;
                            }
                        }
                    }
                    flush()
                })?;
                if !scripted {
                    clean_ops += block.len() as u64;
                }
                blocks += 1;
                if blocks.is_multiple_of(CHECKPOINT_EVERY) {
                    let delta = span(t, "sharded.checkpoint_delta", id, || m.checkpoint_delta());
                    let job = span(t, "wal.seal", id, || {
                        sink.lock()
                            .expect("sink poisoned")
                            .wal
                            .begin_checkpoint(CheckpointData::Incremental(delta))
                    })
                    .map_err(walk)?;
                    span(t, "wal.checkpoint_write", id, || job.run()).map_err(walk)?;
                }
                Ok(())
            };
        for op in &inp.migrations {
            match op {
                Op::Redefine { src, expect } => {
                    for lane in &mut lanes {
                        if !lane.is_empty() {
                            apply(&mut m, lane, v)?;
                            lane.clear();
                        }
                    }
                    let inv = ctx.inventory(src);
                    let got = span(t, "sharded.redefine", 0, || {
                        let got = m.redefine(inv, ctx.policy);
                        flush().map(|()| got)
                    })?;
                    check_redefine(
                        expect,
                        got.map(|o| (o.epoch, o.residue)).map_err(|e| e.to_string()),
                        v,
                    );
                }
                Op::Invoke { .. } => {
                    let lane = &mut lanes[lane_of(op)];
                    lane.push(op);
                    if lane.len() == BLOCK {
                        apply(&mut m, lane, v)?;
                        lane.clear();
                    }
                }
                Op::Query { .. } => {}
            }
        }
        for lane in &mut lanes {
            if !lane.is_empty() {
                apply(&mut m, lane, v)?;
            }
        }
        // Point reads, as the standby of `replica-mixed` answers them.
        let parsed: Vec<(ClassId, Condition, usize)> = inp
            .queries
            .iter()
            .filter_map(|q| match q {
                Op::Query { body, expect: Expect::Count(n) } => {
                    net::parse_query(&ctx.schema, body).ok().map(|(c, k)| (c, k, *n))
                }
                _ => None,
            })
            .collect();
        let mut wrong = 0;
        for (c, chunk) in parsed.chunks(CHUNK).enumerate() {
            span(t, "model.sat", c as u64, || {
                for (class, cond, n) in chunk {
                    wrong += usize::from(m.db().sat(*class, cond).len() != *n);
                }
            });
        }
        v.attempted += parsed.len() as u64;
        if wrong > 0 {
            v.wrong(format!("{wrong} point queries counted wrong"));
        }
        check_counts("replayed state", &ctx.counts(m.db()), &inp.model, v);
        let snapshot_bytes = span(t, "wal.snapshot_encode", 0, || m.snapshot().encode().len());
        drop(m);

        // The standby has folded everything once its acked horizon
        // reaches what was shipped.
        let deadline = Instant::now() + Duration::from_secs(60);
        while acked.load(Ordering::SeqCst) < repl.horizon() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        repl.close();
        let sb = standby_thread.join().expect("standby thread panicked")?;
        check_counts("standby state", &sb.counts, &inp.model, v);

        let chain_files = crate::e2e::count_checkpoint_files(&wal_dir);
        let (snap, tail) = span(t, "wal.load", 0, || Wal::load(&wal_dir)).map_err(walk)?;
        let recovered = span(t, "sharded.recover", 0, || {
            ShardedMonitor::recover(
                &ctx.schema,
                &ctx.alphabet,
                &ctx.lenient,
                PatternKind::All,
                4,
                snap,
                tail,
            )
        })
        .map_err(walk)?;
        check_counts("recovered state", &ctx.counts(recovered.db()), &inp.model, v);
        drop(recovered);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = crate::report::cpu_s(std::process::id()) - cpu0;
        let s = sink.lock().expect("sink poisoned");
        let (logged_ops, bytes) = (s.logged_ops, s.bytes);
        drop(s);
        let spans = std::mem::take(&mut tracer.lock().expect("tracer poisoned").spans);
        let _ = std::fs::remove_dir_all(&wal_dir);
        Ok(Engine {
            wall_s,
            cpu_s,
            load_end,
            spans,
            standby: sb.spans,
            clean_ops,
            logged_ops,
            bytes,
            repl_bytes: sb.horizon.saturating_sub(shipped_at_load),
            chain_files,
            snapshot_bytes,
        })
    })
}

/// Self time of every span: its duration minus its children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

fn report_engine(e: &Engine, off_cpu: f64, r: &mut Report) {
    let own = self_ns(&e.spans);
    let of = |name: &str| -> Vec<u64> {
        e.spans.iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, o)| *o).collect()
    };
    let durs = |name: &str| -> Vec<u64> {
        e.spans.iter().filter(|s| s.name == name && s.start >= e.load_end).map(Span::ns).collect()
    };
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let mut batch = of("sharded.batch");
    r.put(
        "sharded.batch_us_per_op",
        "us",
        batch.iter().sum::<u64>() as f64 / 1e3 / e.clean_ops.max(1) as f64,
        Some(batch.len()),
    );
    r.put("sharded.batch_us.p99", "us", quantile(&mut batch, 0.99) / 1e3, Some(batch.len()));
    let vb = of("sharded.violation_batch");
    if !vb.is_empty() {
        r.note("sharded.violation_batch_us", "us", mean(&vb) / 1e3, Some(vb.len()));
    }
    let rd = durs("sharded.redefine");
    if !rd.is_empty() {
        r.note("sharded.redefine_us", "us", mean(&rd) / 1e3, Some(rd.len()));
    }
    let cd = durs("sharded.checkpoint_delta");
    r.put("sharded.checkpoint_delta_ms", "ms", mean(&cd) / 1e6, Some(cd.len()));
    r.put("sharded.recover_s", "s", mean(&durs("sharded.recover")) / 1e9, None);
    r.put("sharded.load_s", "s", mean(&of("sharded.load")) / 1e9, None);
    let rr: Vec<u64> = e.standby.iter().filter(|s| s.start >= e.load_end).map(Span::ns).collect();
    r.put("sharded.replay_record_us", "us", mean(&rr) / 1e3, Some(rr.len()));
    let enc = durs("wal.encode");
    r.put(
        "wal.encode_ns_per_op",
        "ns",
        enc.iter().sum::<u64>() as f64 / e.logged_ops.max(1) as f64,
        Some(enc.len()),
    );
    let app = durs("wal.append");
    r.put("wal.append_us", "us", mean(&app) / 1e3, Some(app.len()));
    r.put("wal.bytes_per_op", "B", e.bytes as f64 / e.logged_ops.max(1) as f64, None);
    let mut fs = durs("wal.fsync");
    let nfs = fs.len();
    r.put("wal.fsync_us.p50", "us", quantile(&mut fs, 0.50) / 1e3, Some(nfs));
    r.put("wal.fsync_us.p99", "us", quantile(&mut fs, 0.99) / 1e3, Some(nfs));
    let seal = durs("wal.seal");
    r.put("wal.seal_ms", "ms", mean(&seal) / 1e6, Some(seal.len()));
    let cw = durs("wal.checkpoint_write");
    r.put("wal.checkpoint_write_ms", "ms", mean(&cw) / 1e6, Some(cw.len()));
    r.put("wal.chain_files", "count", e.chain_files as f64, None);
    r.put("wal.load_s", "s", mean(&durs("wal.load")) / 1e9, None);
    r.put("wal.snapshot_bytes", "B", e.snapshot_bytes as f64, None);
    let mut sw = durs("repl.ship");
    let nsw = sw.len();
    r.put("repl.ship_wait_us.p50", "us", quantile(&mut sw, 0.50) / 1e3, Some(nsw));
    r.put("repl.ship_wait_us.p99", "us", quantile(&mut sw, 0.99) / 1e3, Some(nsw));
    r.put("repl.bytes_per_op", "B", e.repl_bytes as f64 / e.logged_ops.max(1) as f64, None);

    // Self time per layer, and what no span accounts for.
    let mut layers: Vec<(&str, u64)> = Vec::new();
    for (s, o) in e.spans.iter().zip(&own) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += o,
            None => layers.push((layer, *o)),
        }
    }
    for (l, ns) in &layers {
        r.note(&format!("self_ms.{l}"), "ms", *ns as f64 / 1e6, None);
    }
    let roots: u64 = e.spans.iter().filter(|s| s.parent == ROOT).map(Span::ns).sum();
    r.note("self_ms.standby_replay", "ms", rr.iter().sum::<u64>() as f64 / 1e6, Some(rr.len()));
    r.note("unaccounted_ms", "ms", (e.wall_s * 1e9 - roots as f64) / 1e6, None);
    // In CPU time: the step's wall time follows the disk's fsync latency
    // far more than it follows the tracer.
    r.note("trace_overhead_share", "share", (e.cpu_s - off_cpu) / off_cpu, None);
}

/// Step 4: the interpreter alone, on a bare `Instance` of the same size.
fn lang_phase(ctx: &Ctx, inp: &Inputs, t: &Shared, r: &mut Report, v: &mut Verdict) {
    let mut db = Instance::empty();
    let mut failed = 0usize;
    for op in &inp.load {
        let (tx, a) = ctx.invoke(op);
        failed +=
            usize::from(migratory_lang::apply_transaction(&ctx.schema, &mut db, tx, &a).is_err());
    }
    // Scrapes would delete (no monitor refuses them here): leave them out.
    let ops: Vec<(&Transaction, Assignment)> = inp
        .migrations
        .iter()
        .filter(|o| matches!(o, Op::Invoke { name, .. } if *name != gen::SCRAP))
        .map(|o| ctx.invoke(o))
        .collect();
    for (c, chunk) in ops.chunks(CHUNK).enumerate() {
        span(t, "lang.apply", c as u64, || {
            for (tx, a) in chunk {
                failed += usize::from(
                    migratory_lang::apply_transaction(&ctx.schema, &mut db, tx, a).is_err(),
                );
            }
        });
    }
    v.attempted += (inp.load.len() + ops.len()) as u64;
    if failed > 0 {
        v.wrong(format!("{failed} interpreter applications failed"));
    }
    check_counts("bare interpreter state", &ctx.counts(&db), &inp.model, v);
    let spans = &t.lock().expect("tracer poisoned").spans;
    r.put(
        "lang.apply_ns",
        "ns",
        total_ns(spans, "lang.apply") as f64 / ops.len() as f64,
        Some(ops.len()),
    );
}

fn write_spans(path: &Path, groups: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "source,index,name,id,start_ns,end_ns,parent")?;
    for (src, spans) in groups {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{src},{i},{},{},{},{},{parent}", s.name, s.id, s.start, s.end)?;
        }
    }
    out.flush()
}

pub fn run(spec: &Spec, dir: &Path, seed: u64) -> Result<(Report, Verdict), String> {
    let mut r = Report::default();
    let mut v = Verdict::default();
    let ctx = Ctx::new()?;
    let inp = inputs(&ctx, spec, seed);
    let t0 = Instant::now();
    let front: Shared = Arc::new(Mutex::new(Tracer::new(true, t0)));

    net_phase(&ctx, &inp, &front, &mut r, &mut v);
    ingress_phase(&ctx, spec, &inp, &mut r, &mut v);
    // Spans off, on, off: a later pass runs slower whatever the tracer
    // does (the log directory it deletes is still being flushed), so the
    // traced pass is compared with the mean of the passes around it.
    let before = engine_phase(&ctx, spec, &inp, dir, false, &mut v)?;
    let on = engine_phase(&ctx, spec, &inp, dir, true, &mut v)?;
    let after = engine_phase(&ctx, spec, &inp, dir, false, &mut v)?;
    let off_cpu = (before.cpu_s + after.cpu_s) / 2.0;
    let off_wall = (before.wall_s + after.wall_s) / 2.0;
    report_engine(&on, off_cpu, &mut r);
    lang_phase(&ctx, &inp, &front, &mut r, &mut v);
    let sat: u64 = total_ns(&on.spans, "model.sat");
    r.put("model.sat_ns", "ns", sat as f64 / inp.queries.len() as f64, Some(inp.queries.len()));

    r.meta("migrations", inp.migrations.len());
    r.meta("block_ops", BLOCK);
    r.meta("checkpoint_every_blocks", CHECKPOINT_EVERY);
    r.meta("engine_wall_s_spans_on", format!("{:.3}", on.wall_s));
    r.meta("engine_wall_s_spans_off_mean", format!("{off_wall:.3}"));
    r.meta("engine_cpu_s_spans_on", format!("{:.3}", on.cpu_s));
    r.meta("engine_cpu_s_spans_off_mean", format!("{off_cpu:.3}"));
    let out = dir.parent().unwrap_or(dir).join(format!("trace-{}-seed{seed}.csv", spec.name));
    let front = front.lock().expect("tracer poisoned");
    write_spans(&out, &[("front", &front.spans), ("engine", &on.spans), ("standby", &on.standby)])
        .map_err(|e| format!("{}: {e}", out.display()))?;
    r.meta("spans_csv", out.display());
    Ok((r, v))
}
