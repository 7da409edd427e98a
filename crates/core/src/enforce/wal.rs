//! Durability for the enforcement engine: a write-ahead log of committed
//! [`Delta`] blocks plus **incremental, per-shard checkpoints** of the
//! cohort/RLE tracking state.
//!
//! # Why deltas are the right log record
//!
//! The paper's migration constraints are *histories*: the monitor's DFA
//! tracking state **is** the constraint (losing it is losing which
//! patterns have been consumed). A transaction application is not
//! replayable from its syntax alone — `Sat` depends on the whole
//! database — but its [`Delta`] change-set is exact and invertible, so a
//! log of committed deltas replays with [`Delta::redo`] in O(touched)
//! per record, independent of database size and with no interpreter in
//! the loop.
//!
//! # Shard-local letter clocks
//!
//! Every partition of the object population carries its **own letter
//! clock** (see `enforce::delta`), so a logged block no longer records
//! one global step offset: a [`WalBlock`] carries, per participating
//! shard, the shard-local clock before the block and *which* of the
//! block's deltas are letters for that shard ([`ShardLetters`]).
//! Recovery folds each shard's sub-log independently — a record is
//! skipped for a shard whose clock (restored from the checkpoint chain)
//! is already past it, and replayed at its original commit granularity
//! otherwise. Gap detection is per shard. For a one-shard monitor
//! everything lives on shard 0 and the shard-local clock *is* the
//! global step counter. Every record — at recovery, at
//! [`ShardedMonitor::resync`] and on a standby — folds through one path,
//! [`ShardedMonitor::replay_record`].
//!
//! # Durability contract
//!
//! A monitor with an attached [`CommitSink`] writes **ahead**: a block
//! of admitted letters reaches the sink after every shard has staged
//! (so only admissible blocks are ever logged) and *before* any
//! in-memory tracking state is written. If the sink fails, the database
//! application is rolled back and the monitor is unchanged — the log
//! never lags the engine. One sink call covers the whole block, so
//! batched admission **group-commits**: one record, one flush, per
//! block.
//!
//! # Incremental checkpoints and the background snapshotter
//!
//! A checkpoint no longer has to re-encode the world. The chain is:
//!
//! * a **base** [`Snapshot`] — the full database heap plus every
//!   shard's tracking state, written atomically (`snapshot.bin`);
//! * zero or more **increments** ([`CheckpointDelta`], `delta-N.bin`) —
//!   only the objects and records dirtied since the previous
//!   checkpoint, plus each shard's (small) cohort tables and clock.
//!   Each increment is a consistent point-in-time capture; folding
//!   base + increments in order ([`Wal::load`]) reproduces the full
//!   state byte-identically.
//!
//! Capturing an increment ([`ShardedMonitor::checkpoint_delta`])
//! costs O(dirty), not O(db), and is the *only* work on the admission
//! path: it encodes the increment's bytes once, in the capture's
//! exclusive section, reading each dirtied object's class set and
//! tuple in place from the heap and each dirtied record from its
//! shard's table — no object, tuple or record is cloned.
//! [`Wal::begin_checkpoint`] then rotates the live log (a rename) and
//! returns a [`CheckpointJob`] whose frame/write/fsync/prune runs
//! anywhere — inline, or handed to a [`Snapshotter`] thread; the job
//! writes the captured bytes as they are, and a full base's encoding
//! also happens there, so the admission path never pays the full
//! snapshot's encoding pause. The log is segmented:
//! rotation seals `wal.log` into `sealed-N.log`, and the job deletes
//! sealed segments once the checkpoint that covers them is durable.
//! WAL truncation cadence therefore no longer pays the full-snapshot
//! pause.
//!
//! Crash-safety of the chain, point by point:
//!
//! * checkpoint files are written to `*.tmp`, fsynced, renamed, and the
//!   directory fsynced — a stale temp file from a failed checkpoint is
//!   ignored (and cleaned) by [`Wal::open`]/[`Wal::load`];
//! * a crash after sealing the log but before the checkpoint lands
//!   leaves `sealed-N.log` without `delta-N.bin`: its records simply
//!   replay on top of the previous checkpoint;
//! * a crash after the checkpoint lands but before segment pruning
//!   leaves covered records on disk: recovery skips them **per shard by
//!   step offset**, so they are never double-applied;
//! * increments from before a newer base snapshot (stale sequence
//!   numbers) are ignored; a gap *inside* the chain is real corruption
//!   and reported as such.
//!
//! # Prefix-closedness and torn tails
//!
//! Records are length-prefixed and checksummed; a crash mid-append
//! leaves a torn final record, which [`Wal::load`] (and
//! [`decode_records`]) silently drop. That is *correct*, not merely
//! tolerated: inventories are prefix-closed (Definition 3.3), so the
//! state reached by any prefix of a committed run is itself a legal
//! monitor state — recovering "one block short" yields a monitor that
//! was valid the instant before the lost commit, and whose caller never
//! saw that commit acknowledged. The length header is **untrusted**: it
//! is capped at [`MAX_RECORD_LEN`] before any buffer is sized from it —
//! an oversized claim at the end of the log is torn-tail truncation, an
//! oversized claim with the bytes actually present is reported as
//! corruption instead of silently hiding every later record.
//!
//! ```
//! use migratory_core::enforce::{MemoryWal, ShardedMonitor};
//! use migratory_core::{Inventory, PatternKind, RoleAlphabet};
//! use migratory_lang::{parse_transactions, Assignment};
//! use migratory_model::{schema::university_schema, Value};
//! use std::sync::{Arc, Mutex};
//!
//! let s = university_schema();
//! let a = RoleAlphabet::new(&s, 0).unwrap();
//! let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
//! let ts = parse_transactions(&s, r#"
//!     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
//! "#).unwrap();
//! let wal = Arc::new(Mutex::new(MemoryWal::new()));
//! // Write-ahead: each admitted block is logged before tracking moves.
//! let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1).with_sink(wal.clone());
//! let mk = ts.get("Mk").unwrap();
//! m.try_apply(mk, &Assignment::new(vec![Value::str("1")])).unwrap();
//! m.try_apply(mk, &Assignment::new(vec![Value::str("2")])).unwrap();
//! // "Crash": rebuild from the log alone — byte-identical state.
//! let records = wal.lock().unwrap().records();
//! let r = ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 1, None, records).unwrap();
//! assert_eq!(r.snapshot().encode(), m.snapshot().encode());
//! assert_eq!(r.db().num_objects(), 2);
//! ```
//!
//! [`Delta`]: migratory_lang::Delta
//! [`ShardedMonitor::checkpoint_delta`]: super::ShardedMonitor::checkpoint_delta
//! [`ShardedMonitor::resync`]: super::ShardedMonitor::resync
//! [`ShardedMonitor::replay_record`]: super::ShardedMonitor::replay_record

use super::delta::{Cohort, DeltaState, DirtySet, ObjRecord, Records, Segments};
use super::faults::{FaultSite, IoFaults};
use super::health::Health;
use super::{ResiduePolicy, StepPolicy};
use migratory_lang::Delta;
use migratory_model::codec::{encode_idset, encode_tuple, encode_u64, Reader};
use migratory_model::{ClassSet, Instance, ModelError, Oid, Tuple};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Errors of the durability layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// An I/O failure from the backing store (message of the underlying
    /// `std::io::Error`).
    Io(String),
    /// A snapshot or log payload is malformed.
    Corrupt(String),
    /// Snapshot and WAL tail disagree (wrong shard count, a step gap
    /// between snapshot and first tail block, a block that does not
    /// admit).
    Mismatch(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Mismatch(m) => write!(f, "wal mismatch: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

impl From<ModelError> for WalError {
    fn from(e: ModelError) -> Self {
        WalError::Corrupt(e.to_string())
    }
}

/// When the log issues `fdatasync` — the meaning of an `ok` ack.
///
/// * [`FsyncPolicy::Off`] — never: an ack means the record reached the
///   OS page cache (survives a process crash, not power loss).
/// * [`FsyncPolicy::Batch`] — once per committer batch: acks are
///   released only after the `fdatasync` covering their records
///   returns, so an ack survives power loss, and one sync is amortized
///   over every block that arrived while the previous sync was in
///   flight (group commit).
/// * [`FsyncPolicy::Always`] — once per appended record: the strictest
///   (and slowest) policy; acks survive power loss with no batching
///   window at all.
///
/// `Batch` and `Always` give the *same* guarantee per acked op; they
/// differ only in how many ops share one disk round-trip.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncPolicy {
    /// Never `fdatasync` on the append path (flushed-to-OS acks).
    #[default]
    Off,
    /// One `fdatasync` per committer batch, acks released after it.
    Batch,
    /// One `fdatasync` per record.
    Always,
}

impl FsyncPolicy {
    /// Parse the CLI spelling (`off` | `batch` | `always`).
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "off" => Some(FsyncPolicy::Off),
            "batch" => Some(FsyncPolicy::Batch),
            "always" => Some(FsyncPolicy::Always),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Off => "off",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Always => "always",
        })
    }
}

/// One shard's view of a committed block: where its letter clock stood
/// before the block, and which of the block's deltas it read as
/// letters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardLetters {
    /// Shard index.
    pub shard: u32,
    /// The shard's letter clock before the block.
    pub steps0: usize,
    /// Ascending indices into the block's deltas — the shard reads one
    /// letter per entry, in order.
    pub letters: Vec<u32>,
}

/// A committed block as handed to a [`CommitSink`]: the effective
/// deltas plus each participating shard's clock and letter assignment.
#[derive(Clone, Copy)]
pub struct BlockRef<'a> {
    /// The change-sets the block's effective deltas are drawn from.
    pub deltas: &'a [Delta],
    /// The block's effective deltas, in commit order: indices into
    /// `deltas`.
    pub effective: &'a [u32],
    /// Participating shards, ascending by shard index.
    pub shards: &'a [ShardLetters],
}

/// Receiver of committed blocks — the pluggable seam between the
/// admission engines and durable storage. The engines call
/// [`CommitSink::committed`] once per admitted block, after staging
/// succeeds and **before** tracking state is written; an `Err` aborts
/// the commit (the application is rolled back). "No sink" is the no-op
/// default — an in-memory monitor pays nothing for the seam.
pub trait CommitSink: Send {
    /// A block is about to commit; `block` carries the effective deltas
    /// and every participating shard's clock + letter assignment.
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError>;

    /// The monitor certified its transaction schema at letter count
    /// `steps` (Corollary 3.3): tracking freezes here and later blocks
    /// are logged unchecked. Durable stores must record this — replay
    /// is wrong without it — so the marker is written through the same
    /// write-ahead discipline; an `Err` keeps the monitor uncertified.
    fn certified(&mut self, steps: usize) -> Result<(), WalError>;

    /// The monitor is about to redefine its inventory: `epoch` is the
    /// epoch the redefinition *moves to*, `shards` carries each
    /// participating shard's letter clock at the instant of the swap,
    /// and `inventory` is the canonical
    /// [`Inventory::encode`](crate::Inventory::encode) bytes of the new
    /// automaton. Written **ahead** of the tracking swap, like every
    /// other record — an `Err` leaves the old inventory in force.
    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError>;
}

/// One committed block as read back from a log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalBlock {
    /// The block's effective deltas, in commit order.
    pub deltas: Vec<Delta>,
    /// Participating shards: clock offsets and letter assignments.
    pub shards: Vec<ShardLetters>,
}

/// One log record as read back from a log: a committed block, or the
/// certification event (which freezes tracking from its step on).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// A committed block of effective letters.
    Block(WalBlock),
    /// [`ShardedMonitor::certify`](super::ShardedMonitor::certify)
    /// succeeded with the monitor at this letter count (shard 0's clock
    /// — only a one-shard monitor certifies).
    Certified {
        /// Letters emitted when certification took effect.
        steps: usize,
    },
    /// The inventory was redefined online
    /// ([`ShardedMonitor::redefine`](super::ShardedMonitor::redefine)): the epoch the
    /// monitor moved to, the residue policy, every participating
    /// shard's letter clock at the swap instant, and the canonical
    /// encoding of the new automaton. Replay re-runs the same
    /// deterministic viability split at the same clock positions.
    Redefined {
        /// The epoch this redefinition moves to (previous epoch + 1).
        epoch: u64,
        /// How non-viable residue was handled.
        policy: ResiduePolicy,
        /// `(shard, letter clock)` pairs, ascending by shard index.
        shards: Vec<(u32, usize)>,
        /// [`Inventory::encode`](crate::Inventory::encode) bytes of the
        /// new automaton.
        inventory: Vec<u8>,
    },
}

impl WalRecord {
    /// Effective deltas this record carries.
    #[must_use]
    pub fn letters(&self) -> usize {
        match self {
            WalRecord::Block(b) => b.deltas.len(),
            WalRecord::Certified { .. } | WalRecord::Redefined { .. } => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

/// IEEE CRC-32.
fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// Slicing-by-8 tables of the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the bytewise table, and `CRC_TABLES[k][i]` is the CRC step of
/// byte `i` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// IEEE CRC-32 of the concatenation of `parts`, without concatenating
/// them: eight bytes a step through [`CRC_TABLES`], and a part's last
/// few bytes one at a time.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xff) as usize]
                ^ t[6][(lo >> 8 & 0xff) as usize]
                ^ t[5][(lo >> 16 & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][(hi >> 8 & 0xff) as usize]
                ^ t[1][(hi >> 16 & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Record payload tags.
const TAG_BLOCK: u8 = 0;
const TAG_CERTIFY: u8 = 1;
const TAG_REDEFINE: u8 = 2;

/// Hard cap on a framed record's claimed payload length (256 MiB). The
/// 4-byte length header is **untrusted** input: without the cap, one
/// corrupted byte can claim a multi-GiB record and drive allocation or
/// file reads before the checksum is ever consulted. Real records are
/// orders of magnitude smaller (a 1M-object bulk-load block encodes to
/// a few tens of MiB).
pub const MAX_RECORD_LEN: usize = 1 << 28;

/// Append one framed record (`[len][crc][payload]`, little-endian
/// prefixes) for a committed block. Errs — leaving `out` untouched —
/// when the block encodes past [`MAX_RECORD_LEN`]: the caller's commit
/// rolls back cleanly (split the batch) instead of writing a record
/// recovery would refuse.
pub fn encode_record(out: &mut Vec<u8>, block: &BlockRef<'_>) -> Result<(), WalError> {
    framed(out, |payload| {
        payload.push(TAG_BLOCK);
        encode_u64(payload, block.effective.len() as u64);
        for &i in block.effective {
            migratory_lang::encode_delta(payload, &block.deltas[i as usize]);
        }
        encode_u64(payload, block.shards.len() as u64);
        for sl in block.shards {
            encode_u64(payload, u64::from(sl.shard));
            encode_u64(payload, sl.steps0 as u64);
            encode_u64(payload, sl.letters.len() as u64);
            for &i in &sl.letters {
                encode_u64(payload, u64::from(i));
            }
        }
    })
}

/// Append one framed certification-marker record.
pub fn encode_certify_record(out: &mut Vec<u8>, steps: usize) {
    framed(out, |payload| {
        payload.push(TAG_CERTIFY);
        encode_u64(payload, steps as u64);
    })
    .expect("a certification marker is a dozen bytes");
}

/// Append one framed redefinition record: the epoch moved to, the
/// residue policy, each participating shard's letter clock at the swap
/// instant, and the canonical new-inventory encoding.
pub fn encode_redefine_record(
    out: &mut Vec<u8>,
    epoch: u64,
    policy: ResiduePolicy,
    shards: &[(u32, usize)],
    inventory: &[u8],
) -> Result<(), WalError> {
    framed(out, |payload| {
        payload.push(TAG_REDEFINE);
        encode_u64(payload, epoch);
        payload.push(policy.as_byte());
        encode_u64(payload, shards.len() as u64);
        for &(shard, steps) in shards {
            encode_u64(payload, u64::from(shard));
            encode_u64(payload, steps as u64);
        }
        encode_u64(payload, inventory.len() as u64);
        payload.extend_from_slice(inventory);
    })
}

/// Append one framed record whose payload `write` appends to `out`: the
/// payload is written in place, behind room for the header, which is
/// filled in once the payload's length and checksum are known. A
/// payload over the record cap is taken back out, leaving `out`'s bytes
/// as they were.
fn framed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), WalError> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    write(out);
    let payload = &out[start + 8..];
    if payload.len() > MAX_RECORD_LEN {
        let len = payload.len();
        out.truncate(start);
        return Err(WalError::Io(format!(
            "block encodes to {len} bytes, over the {MAX_RECORD_LEN}-byte record cap — \
             split the batch"
        )));
    }
    let len = u32::try_from(payload.len()).expect("record fits u32").to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
    Ok(())
}

/// Decode a log byte stream into records. A torn final record — a
/// truncated header, a length claim running past the end of the input,
/// a checksum failure — ends the stream (the crash-truncation
/// semantics; see the module docs for why dropping the torn tail is
/// sound). A length claim over [`MAX_RECORD_LEN`] whose bytes *are*
/// present cannot be a torn append and is reported as corruption
/// instead of silently hiding every later record.
pub fn decode_records(mut bytes: &[u8]) -> Result<Vec<WalRecord>, WalError> {
    let mut records = Vec::new();
    loop {
        let Some((head, rest)) = bytes.split_at_checked(8) else { return Ok(records) };
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            if len > rest.len() {
                return Ok(records); // indistinguishable from a torn append
            }
            return Err(WalError::Corrupt(format!(
                "record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"
            )));
        }
        let Some((payload, rest)) = rest.split_at_checked(len) else { return Ok(records) };
        if crc32(payload) != crc {
            return Ok(records);
        }
        let Ok(record) = decode_record(payload) else { return Ok(records) };
        records.push(record);
        bytes = rest;
    }
}

/// Decode the longest valid record prefix of a **replication byte
/// stream** and report how many bytes it consumed, so a streaming
/// consumer (the replica puller in [`repl`](super::repl)) can carry the
/// torn tail forward into its next read instead of dropping it. The
/// framing is exactly the log's (`[len][crc][payload]`), so a stream cut
/// at any byte offset yields a whole-record prefix plus an incomplete
/// fragment — never a half-applied record.
///
/// # Errors
/// Only on an over-cap length claim whose bytes are present (mid-stream
/// corruption, not a tear): the connection must be dropped and resynced.
pub fn decode_stream(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize), WalError> {
    let consumed = valid_prefix_len(bytes)?;
    let records = decode_records(&bytes[..consumed])?;
    Ok((records, consumed))
}

/// Byte length of the longest prefix of whole, checksum-valid records —
/// where [`Wal::open`] truncates to before appending. Errors only on an
/// over-cap length claim whose bytes are present (mid-log corruption —
/// truncating there would silently drop valid later records).
fn valid_prefix_len(bytes: &[u8]) -> Result<usize, WalError> {
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        let Some((head, tail)) = rest.split_at_checked(8) else { return Ok(pos) };
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            if len > tail.len() {
                return Ok(pos);
            }
            return Err(WalError::Corrupt(format!(
                "record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"
            )));
        }
        let Some(payload) = tail.get(..len) else { return Ok(pos) };
        if crc32(payload) != crc || decode_record(payload).is_err() {
            return Ok(pos);
        }
        pos += 8 + len;
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut r = Reader::new(payload);
    let record = match r.byte()? {
        TAG_BLOCK => {
            let n = r.count()?;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                deltas.push(
                    migratory_lang::decode_delta(&mut r)
                        .map_err(|e| WalError::Corrupt(e.to_string()))?,
                );
            }
            let ns = r.count()?;
            let mut shards = Vec::with_capacity(ns);
            for _ in 0..ns {
                let shard = u32_of(r.u64()?, "shard")?;
                let steps0 = usize_of(r.u64()?, "shard clock")?;
                let nl = r.count()?;
                let mut letters = Vec::with_capacity(nl);
                for _ in 0..nl {
                    let i = u32_of(r.u64()?, "letter index")?;
                    if i as usize >= deltas.len() {
                        return Err(WalError::Corrupt("letter index out of range".into()));
                    }
                    if letters.last().is_some_and(|&p| i <= p) {
                        return Err(WalError::Corrupt("letter indices out of order".into()));
                    }
                    letters.push(i);
                }
                if letters.is_empty() {
                    return Err(WalError::Corrupt("participating shard reads no letter".into()));
                }
                if shards.last().is_some_and(|p: &ShardLetters| shard <= p.shard) {
                    return Err(WalError::Corrupt("shards out of order".into()));
                }
                shards.push(ShardLetters { shard, steps0, letters });
            }
            WalRecord::Block(WalBlock { deltas, shards })
        }
        TAG_CERTIFY => WalRecord::Certified {
            steps: usize::try_from(r.u64()?).map_err(|_| WalError::Corrupt("steps".into()))?,
        },
        TAG_REDEFINE => {
            let epoch = r.u64()?;
            let policy = ResiduePolicy::from_byte(r.byte()?).map_err(WalError::Corrupt)?;
            let n = r.count()?;
            let mut shards: Vec<(u32, usize)> = Vec::with_capacity(n);
            for _ in 0..n {
                let shard = u32_of(r.u64()?, "shard")?;
                let steps = usize_of(r.u64()?, "shard clock")?;
                if shards.last().is_some_and(|&(p, _)| shard <= p) {
                    return Err(WalError::Corrupt("shards out of order".into()));
                }
                shards.push((shard, steps));
            }
            if shards.is_empty() {
                return Err(WalError::Corrupt("redefinition touches no shard".into()));
            }
            let inventory = read_blob(&mut r)?;
            WalRecord::Redefined { epoch, policy, shards, inventory }
        }
        t => return Err(WalError::Corrupt(format!("unknown record tag {t}"))),
    };
    if !r.is_exhausted() {
        return Err(WalError::Corrupt("trailing bytes in record".into()));
    }
    Ok(record)
}

// ---------------------------------------------------------------------
// Snapshot (full checkpoint)
// ---------------------------------------------------------------------

/// Current snapshot format (v3: adds the [`Evolution`] block). v2
/// snapshots still decode — they predate online redefinition, so their
/// evolution state is [`Evolution::default`].
const SNAP_MAGIC: &[u8; 6] = b"MGSNP3";
const SNAP_MAGIC_V2: &[u8; 6] = b"MGSNP2";
/// Current incremental-checkpoint format (v2: adds the [`Evolution`]
/// block). v1 increments still decode with a default evolution.
const DELTA_MAGIC: &[u8; 6] = b"MGDLT2";
const DELTA_MAGIC_V1: &[u8; 6] = b"MGDLT1";

/// The constraint-evolution state a checkpoint carries: the epoch
/// clock, the lifetime counters behind `stats`, and the canonical
/// encoding of the inventory in force. Always captured whole (it is a
/// few dozen bytes plus the automaton) — an increment covering a
/// pruned segment that contained a redefinition record would otherwise
/// lose the upgrade.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Evolution {
    /// The epoch in force at the capture instant (0 = never redefined).
    pub epoch: u64,
    /// Lifetime count of admitted redefinitions.
    pub redefine_total: u64,
    /// Lifetime count of objects quarantined by redefinitions.
    pub quarantined_total: u64,
    /// [`Inventory::encode`](crate::Inventory::encode) bytes of the
    /// inventory in force; `None` only for pre-v3 snapshots (recovery
    /// falls back to the constructor inventory).
    pub inventory: Option<Vec<u8>>,
}

impl Evolution {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_u64(out, self.epoch);
        encode_u64(out, self.redefine_total);
        encode_u64(out, self.quarantined_total);
        match &self.inventory {
            Some(bytes) => {
                out.push(1);
                encode_u64(out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
            None => out.push(0),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Evolution, WalError> {
        let epoch = r.u64()?;
        let redefine_total = r.u64()?;
        let quarantined_total = r.u64()?;
        let inventory = match r.byte()? {
            0 => None,
            1 => Some(read_blob(r)?),
            t => return Err(WalError::Corrupt(format!("unknown inventory tag {t}"))),
        };
        Ok(Evolution { epoch, redefine_total, quarantined_total, inventory })
    }
}

/// A full checkpoint of everything a monitor cannot rebuild from its
/// constructor arguments: the database heap, the per-shard tracking
/// states (each carrying its **own letter clock**), and the
/// constraint-evolution state (epoch + inventory in force). Encoding is
/// canonical, so snapshot bytes decide state equality — the recovery
/// suite's "byte-identical" check is `encode()` equality.
#[derive(Clone)]
pub struct Snapshot {
    pub(crate) policy: StepPolicy,
    pub(crate) certified: bool,
    pub(crate) certified_at: Option<usize>,
    pub(crate) evolution: Evolution,
    pub(crate) db: Instance,
    pub(crate) shards: Vec<DeltaState>,
    /// Every shard's tracking records, one table indexed by oid.
    pub(crate) records: Records,
}

impl Snapshot {
    /// Sum of the per-shard letter clocks at the moment of the
    /// checkpoint — a monotone progress measure (for a one-shard
    /// monitor it is exactly the global step counter).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// The per-shard letter clocks at the moment of the checkpoint.
    #[must_use]
    pub fn clocks(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.steps).collect()
    }

    /// The checkpointed database.
    #[must_use]
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// Number of tracking shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The constraint-evolution state at the capture instant.
    #[must_use]
    pub fn evolution(&self) -> &Evolution {
        &self.evolution
    }

    /// Canonical binary encoding (current format, v3).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAP_MAGIC);
        out.push(flags_byte(self.policy, self.certified, self.certified_at));
        if let Some(at) = self.certified_at {
            encode_u64(&mut out, at as u64);
        }
        self.evolution.encode(&mut out);
        self.db.encode_snapshot(&mut out);
        encode_u64(&mut out, self.shards.len() as u64);
        for s in &self.shards {
            encode_state(&mut out, s, &self.records);
        }
        out
    }

    /// Decode [`Snapshot::encode`] bytes — the current v3 format, or a
    /// pre-evolution v2 snapshot (epoch 0, no stored inventory).
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, WalError> {
        let v3 = bytes.len() >= SNAP_MAGIC.len() && &bytes[..SNAP_MAGIC.len()] == SNAP_MAGIC;
        let v2 =
            bytes.len() >= SNAP_MAGIC_V2.len() && &bytes[..SNAP_MAGIC_V2.len()] == SNAP_MAGIC_V2;
        if !v3 && !v2 {
            return Err(WalError::Corrupt("bad snapshot magic".into()));
        }
        let mut r = Reader::new(&bytes[SNAP_MAGIC.len()..]);
        let (policy, certified, certified_at) = decode_flags(&mut r)?;
        let evolution = if v3 { Evolution::decode(&mut r)? } else { Evolution::default() };
        let db = Instance::decode_snapshot(&mut r)?;
        let n = r.count()?;
        let mut shards = Vec::with_capacity(n);
        let mut records = Records::default();
        for shard in 0..u32_of(n as u64, "shard count")? {
            shards.push(decode_state(&mut r, db.next_oid(), shard, &mut records)?);
        }
        if !r.is_exhausted() {
            return Err(WalError::Corrupt("trailing bytes in snapshot".into()));
        }
        Ok(Snapshot { policy, certified, certified_at, evolution, db, shards, records })
    }

    /// Fold one decoded incremental checkpoint into this snapshot:
    /// replace the dirtied objects and records, each shard's cohort
    /// tables and clock, and the monitor flags. The increment is a
    /// consistent capture taken *after* this snapshot's instant, so
    /// folding base + increments in order reproduces the live state
    /// byte-identically.
    pub(crate) fn apply(&mut self, d: DecodedDelta) -> Result<(), WalError> {
        // Objects are minted from o1 and lie below the counter. The
        // checksum vouches only for the bytes, so an increment breaking
        // this is corruption — not a panic in `set_next` below.
        let (first, last) = (d.objects.keys().next(), d.objects.keys().next_back());
        if d.next_oid == 0
            || first.is_some_and(|o| o.0 == 0)
            || last.is_some_and(|o| o.0 >= d.next_oid)
        {
            return Err(WalError::Corrupt(format!(
                "increment names an object outside o1 ≤ o < o{}",
                d.next_oid
            )));
        }
        // Records are kept only for minted objects, so the same bounds
        // hold for them.
        for &(o, _) in d.shards.iter().flat_map(|sd| &sd.records) {
            check_record_bound(o, Oid(d.next_oid), "increment")?;
        }
        if d.shards.len() != self.shards.len() {
            return Err(WalError::Mismatch(format!(
                "increment has {} shards, snapshot has {}",
                d.shards.len(),
                self.shards.len()
            )));
        }
        for (s, sd) in self.shards.iter_mut().zip(d.shards) {
            if sd.steps < s.steps {
                return Err(WalError::Mismatch(format!(
                    "stale increment: shard clock {} behind snapshot clock {}",
                    sd.steps, s.steps
                )));
            }
            // The increment's own records point into its own cohort
            // table (checked at decode), so an older record can point
            // past it only when a partial increment shortens the table.
            let shortened = !sd.full && sd.cohorts.len() < s.cohorts.len();
            s.steps = sd.steps;
            s.pre_state = sd.pre_state;
            s.pre_exempt = sd.pre_exempt;
            s.cohorts = sd.cohorts;
            s.by_key = sd.by_key;
            s.free = sd.free;
            if sd.full {
                self.records.clear_shard(s.shard);
                s.tracked = 0;
            }
            for (o, rec) in sd.records {
                let entry = self.records.try_entry(o).map_err(|_| too_many_slots())?;
                match entry {
                    Some(old) if old.shard != s.shard => return Err(claimed_twice(o)),
                    Some(_) => {}
                    None => s.tracked += 1,
                }
                *entry = Some(rec);
            }
            if shortened
                && self
                    .records
                    .of_shard(s.shard)
                    .any(|(_, rec)| rec.cohort as usize >= s.cohorts.len())
            {
                return Err(WalError::Corrupt("record points at missing cohort".into()));
            }
        }
        for (o, state) in d.objects {
            match state {
                Some((classes, tuple)) => self.db.put_object(o, classes, tuple),
                None => {
                    if self.db.occurs(o) {
                        self.db.delete_object(o);
                    }
                }
            }
        }
        // Base objects lie below the base's counter, so only a counter
        // that moved backwards needs the scan.
        if d.next_oid < self.db.next_oid().0 && self.db.objects().any(|o| o.0 >= d.next_oid) {
            return Err(WalError::Corrupt(format!(
                "increment counter o{} would recycle a live object",
                d.next_oid
            )));
        }
        self.db.set_next(d.next_oid);
        // A base record may sit at or above a counter that moved back;
        // the highest record settles it in O(1).
        if self.records.last_oid().is_some_and(|o| o.0 >= d.next_oid) {
            return Err(WalError::Corrupt(format!(
                "a tracking record is not below the counter o{}",
                d.next_oid
            )));
        }
        self.policy = d.policy;
        self.certified = d.certified;
        self.certified_at = d.certified_at;
        if d.evolution.epoch < self.evolution.epoch {
            return Err(WalError::Mismatch(format!(
                "stale increment: epoch {} behind snapshot epoch {}",
                d.evolution.epoch, self.evolution.epoch
            )));
        }
        // Pre-evolution (v1) increments carry no inventory; they can
        // only come from epoch-0 history, so keeping the base's
        // evolution state is exact.
        if d.evolution.inventory.is_some() || d.evolution != Evolution::default() {
            self.evolution = d.evolution;
        }
        Ok(())
    }
}

fn flags_byte(policy: StepPolicy, certified: bool, certified_at: Option<usize>) -> u8 {
    let mut flags = 0u8;
    if policy == StepPolicy::OnlyChanging {
        flags |= 1;
    }
    if certified {
        flags |= 2;
    }
    if certified_at.is_some() {
        flags |= 4;
    }
    flags
}

fn decode_flags(r: &mut Reader<'_>) -> Result<(StepPolicy, bool, Option<usize>), WalError> {
    let flags = r.byte()?;
    if flags & !0x07 != 0 {
        return Err(WalError::Corrupt(format!("unknown checkpoint flags {flags:#x}")));
    }
    let certified_at = if flags & 4 != 0 {
        Some(usize::try_from(r.u64()?).map_err(|_| WalError::Corrupt("horizon".into()))?)
    } else {
        None
    };
    let policy =
        if flags & 1 != 0 { StepPolicy::OnlyChanging } else { StepPolicy::EveryApplication };
    Ok((policy, flags & 2 != 0, certified_at))
}

// ---------------------------------------------------------------------
// Incremental checkpoints
// ---------------------------------------------------------------------

/// One shard's share of a decoded incremental checkpoint.
pub(crate) struct ShardDelta {
    pub(crate) steps: usize,
    pub(crate) pre_state: u32,
    pub(crate) pre_exempt: bool,
    /// `records` is the *complete* table (set after a compaction
    /// rewrote every record's cohort slot); otherwise only the dirtied
    /// records.
    pub(crate) full: bool,
    /// Ascending by oid.
    pub(crate) records: Vec<(Oid, ObjRecord)>,
    pub(crate) cohorts: Vec<Cohort>,
    pub(crate) by_key: BTreeMap<(u32, u32), u32>,
    pub(crate) free: Vec<u32>,
}

/// An incremental checkpoint: a consistent point-in-time capture of
/// everything dirtied since the previous checkpoint — changed database
/// objects, changed tracking records, and each shard's (small) cohort
/// tables and letter clock. Produced by
/// [`ShardedMonitor::checkpoint_delta`](super::ShardedMonitor::checkpoint_delta)
/// in O(dirty), which encodes it once, straight from the heap and the
/// records: the increment *is* its canonical bytes, and
/// [`CheckpointJob::run`] frames and writes them as they are.
/// [`Wal::load`] decodes and folds them back.
pub struct CheckpointDelta {
    /// The canonical encoding (current format, v2), in [`Pieces`].
    pieces: Vec<Vec<u8>>,
    /// The objects the increment covers, deletion tombstones included,
    /// ascending.
    pub(crate) oids: Vec<Oid>,
    /// Each shard's letter clock at the capture instant.
    clocks: Vec<usize>,
}

impl CheckpointDelta {
    /// Objects this increment re-encodes — the capture cost is
    /// proportional to this, never to the database size.
    #[must_use]
    pub fn num_dirty_objects(&self) -> usize {
        self.oids.len()
    }

    /// The oids this increment touches, deletion tombstones included,
    /// ascending. Capture these **before** staging the delta: if
    /// [`Wal::begin_checkpoint`] fails, hand them back via
    /// [`ShardedMonitor::restore_dirty`](super::ShardedMonitor::restore_dirty)
    /// so the next capture re-covers them and the chain has no hole.
    #[must_use]
    pub fn oids(&self) -> &[Oid] {
        &self.oids
    }

    /// The per-shard letter clocks at the capture instant.
    #[must_use]
    pub fn clocks(&self) -> &[usize] {
        &self.clocks
    }

    /// The canonical binary encoding (current format, v2): a copy of
    /// the bytes written at capture.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.pieces.concat()
    }

    /// Decode [`CheckpointDelta::encode`] bytes — the current v2
    /// format, or a pre-evolution v1 increment — into the structured
    /// form `Snapshot::apply` folds.
    pub(crate) fn decode(bytes: &[u8]) -> Result<DecodedDelta, WalError> {
        let v2 = bytes.len() >= DELTA_MAGIC.len() && &bytes[..DELTA_MAGIC.len()] == DELTA_MAGIC;
        let v1 =
            bytes.len() >= DELTA_MAGIC_V1.len() && &bytes[..DELTA_MAGIC_V1.len()] == DELTA_MAGIC_V1;
        if !v2 && !v1 {
            return Err(WalError::Corrupt("bad checkpoint-delta magic".into()));
        }
        let mut r = Reader::new(&bytes[DELTA_MAGIC.len()..]);
        let (policy, certified, certified_at) = decode_flags(&mut r)?;
        let evolution = if v2 { Evolution::decode(&mut r)? } else { Evolution::default() };
        let next_oid = r.u64()?;
        let n = r.count()?;
        let mut objects = BTreeMap::new();
        for _ in 0..n {
            let o = Oid(r.u64()?);
            let state = match r.byte()? {
                0 => None,
                1 => {
                    let classes: ClassSet = r.idset()?;
                    if classes.is_empty() {
                        return Err(WalError::Corrupt("object without classes".into()));
                    }
                    Some((classes, r.tuple()?))
                }
                t => return Err(WalError::Corrupt(format!("unknown object tag {t}"))),
            };
            objects.insert(o, state);
        }
        let n = r.count()?;
        let mut shards = Vec::with_capacity(n);
        for shard in 0..u32_of(n as u64, "shard count")? {
            let steps = usize_of(r.u64()?, "shard clock")?;
            let pre_state = u32_of(r.u64()?, "pre state")?;
            let bits = r.byte()?;
            if bits & !0x03 != 0 {
                return Err(WalError::Corrupt("unknown shard-delta bits".into()));
            }
            let records = decode_record_map(&mut r, shard)?;
            let (cohorts, by_key, free) = decode_cohort_tables(&mut r)?;
            for (_, rec) in &records {
                if (rec.cohort as usize) >= cohorts.len() {
                    return Err(WalError::Corrupt("record points at missing cohort".into()));
                }
            }
            shards.push(ShardDelta {
                steps,
                pre_state,
                pre_exempt: bits & 1 != 0,
                full: bits & 2 != 0,
                records,
                cohorts,
                by_key,
                free,
            });
        }
        if !r.is_exhausted() {
            return Err(WalError::Corrupt("trailing bytes in checkpoint delta".into()));
        }
        Ok(DecodedDelta { policy, certified, certified_at, evolution, next_oid, objects, shards })
    }
}

/// An increment decoded for `Snapshot::apply`: the only place its
/// structured form exists.
pub(crate) struct DecodedDelta {
    pub(crate) policy: StepPolicy,
    pub(crate) certified: bool,
    pub(crate) certified_at: Option<usize>,
    /// Always the complete evolution state, never a diff: an increment
    /// can cover (and prune) a sealed segment holding a redefinition
    /// record, so the chain itself must carry the upgrade.
    pub(crate) evolution: Evolution,
    pub(crate) next_oid: u64,
    /// Dirtied objects: current heap state, or `None` when deleted.
    pub(crate) objects: BTreeMap<Oid, Option<(ClassSet, Tuple)>>,
    pub(crate) shards: Vec<ShardDelta>,
}

#[cfg(test)]
impl DecodedDelta {
    /// The structured encoder, kept as the reference the capture's
    /// direct encoding is compared against (and to write edited
    /// increments in tests).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DELTA_MAGIC);
        out.push(flags_byte(self.policy, self.certified, self.certified_at));
        if let Some(at) = self.certified_at {
            encode_u64(&mut out, at as u64);
        }
        self.evolution.encode(&mut out);
        encode_u64(&mut out, self.next_oid);
        encode_u64(&mut out, self.objects.len() as u64);
        for (o, state) in &self.objects {
            encode_u64(&mut out, o.0);
            match state {
                Some((classes, tuple)) => {
                    out.push(1);
                    encode_idset(&mut out, *classes);
                    encode_tuple(&mut out, tuple);
                }
                None => out.push(0),
            }
        }
        encode_u64(&mut out, self.shards.len() as u64);
        for s in &self.shards {
            encode_u64(&mut out, s.steps as u64);
            encode_u64(&mut out, u64::from(s.pre_state));
            out.push(u8::from(s.pre_exempt) | (u8::from(s.full) << 1));
            encode_u64(&mut out, s.records.len() as u64);
            for (o, rec) in &s.records {
                encode_obj_record(&mut out, *o, rec);
            }
            encode_cohort_tables(&mut out, &s.cohorts, &s.by_key, &s.free);
        }
        out
    }
}

/// Capture an incremental checkpoint from a database plus its tracking
/// partitions, draining the monitor's dirty set — the implementation
/// behind
/// [`ShardedMonitor::checkpoint_delta`](super::ShardedMonitor::checkpoint_delta).
/// O(dirty) per shard, plus one walk of the set's bits: the v2 bytes
/// are written in one pass, each dirtied object's class set and tuple
/// read in place from the heap, each shard's dirtied records found by
/// looking every dirty oid up in the record table (only an object's own
/// shard marks it), plus the bounded cohort tables. Nothing is cloned.
/// A shard whose every record is dirty (after a compaction) is written
/// whole, O(table).
///
/// The bytes go into [`Pieces`], and a shard's dirty records are
/// counted and then encoded in a second walk, not collected, so no
/// buffer of a capture grows past glibc's 128 KiB mmap threshold with
/// the dirty set. Freeing a mapped chunk raises that threshold, and
/// later transients below the raised one then fragment the heap. The
/// covered oids stay one `Vec` (8 B each, kept for
/// [`ShardedMonitor::restore_dirty`](super::ShardedMonitor::restore_dirty)):
/// it reaches the threshold only in a capture of over 16,384 objects.
pub(crate) fn capture_delta(
    db: &Instance,
    shards: &mut [DeltaState],
    (records, dirty): (&Records, &mut DirtySet),
    policy: StepPolicy,
    certified: bool,
    certified_at: Option<usize>,
    evolution: &Evolution,
) -> CheckpointDelta {
    let oids = dirty.drain();
    let mut out = Pieces::new(64 + DELTA_BYTES_PER_OBJECT * oids.len());
    let head = out.next_item();
    head.extend_from_slice(DELTA_MAGIC);
    head.push(flags_byte(policy, certified, certified_at));
    if let Some(at) = certified_at {
        encode_u64(head, at as u64);
    }
    evolution.encode(head);
    encode_u64(head, db.next_oid().0);
    encode_u64(head, oids.len() as u64);
    for &o in &oids {
        let out = out.next_item();
        encode_u64(out, o.0);
        match db.tuple_ref(o) {
            Some(tuple) => {
                out.push(1);
                encode_idset(out, db.role_set(o));
                encode_tuple(out, tuple);
            }
            None => out.push(0),
        }
    }
    encode_u64(out.next_item(), shards.len() as u64);
    let mut clocks = Vec::with_capacity(shards.len());
    for s in shards.iter_mut() {
        let full = std::mem::replace(&mut s.all_dirty, false);
        let head = out.next_item();
        encode_u64(head, s.steps as u64);
        encode_u64(head, u64::from(s.pre_state));
        head.push(u8::from(s.pre_exempt) | (u8::from(full) << 1));
        if full {
            out.record_map(s.tracked, records.of_shard(s.shard));
        } else {
            let dirty = || oids.iter().filter_map(|&o| Some((o, records.get(s.shard, o)?)));
            out.record_map(dirty().count(), dirty());
        }
        encode_cohort_tables(out.next_item(), &s.cohorts, &s.by_key, &s.free);
        clocks.push(s.steps);
    }
    CheckpointDelta { pieces: out.done(), oids, clocks }
}

/// Bytes [`capture_delta`] reserves per dirty object: about what one
/// takes in an increment (object plus tracking record; `durable-1m`'s
/// chain averages about 30 B).
const DELTA_BYTES_PER_OBJECT: usize = 32;

/// The capacity of an increment's pieces. A piece that outgrew it would
/// double to 128 KiB, which glibc maps, so [`Pieces`] starts a new one
/// [`PIECE_SLACK`] before it is full.
const PIECE: usize = 64 << 10;

/// Room an item may take past the point where [`Pieces`] closes a
/// piece: more than an object or tracking record of ordinary size.
const PIECE_SLACK: usize = 4 << 10;

/// An increment's bytes as [`capture_delta`] writes them: pieces of at
/// most [`PIECE`] bytes, in order. The file's checksum runs over the
/// pieces and the job writes them one after another, so the file holds
/// the same bytes as from one buffer.
struct Pieces {
    done: Vec<Vec<u8>>,
    cur: Vec<u8>,
}

impl Pieces {
    /// Start with `estimate` bytes reserved, at most [`PIECE`].
    fn new(estimate: usize) -> Pieces {
        Pieces { done: Vec::new(), cur: Vec::with_capacity(estimate.min(PIECE)) }
    }

    /// The buffer the next item goes into: a fresh piece once the
    /// current one is within [`PIECE_SLACK`] of [`PIECE`].
    fn next_item(&mut self) -> &mut Vec<u8> {
        if self.cur.len() >= PIECE - PIECE_SLACK {
            let full = std::mem::replace(&mut self.cur, Vec::with_capacity(PIECE));
            self.done.push(full);
        }
        &mut self.cur
    }

    /// [`encode_record_map`], one record an item.
    fn record_map<'r>(&mut self, n: usize, records: impl Iterator<Item = (Oid, &'r ObjRecord)>) {
        encode_u64(self.next_item(), n as u64);
        let mut written = 0;
        for (o, rec) in records {
            encode_obj_record(self.next_item(), o, rec);
            written += 1;
        }
        debug_assert_eq!(written, n, "a record map's count matches its records");
    }

    fn done(mut self) -> Vec<Vec<u8>> {
        self.done.push(self.cur);
        self.done
    }
}

/// Encode one shard's tracking state verbatim — clock, records (a
/// filtered walk of `records`), slot table, key map, free list and all.
/// The engine is deterministic (ordered iteration everywhere), so replay
/// from a verbatim state reproduces slot assignment exactly; nothing
/// needs canonicalizing beyond the ordered maps themselves.
fn encode_state(out: &mut Vec<u8>, s: &DeltaState, records: &Records) {
    encode_u64(out, s.steps as u64);
    encode_u64(out, u64::from(s.pre_state));
    out.push(u8::from(s.pre_exempt));
    encode_record_map(out, s.tracked, records.of_shard(s.shard));
    encode_cohort_tables(out, &s.cohorts, &s.by_key, &s.free);
    // `last_touched` and the dirty set are deliberately NOT encoded:
    // diagnostics and checkpoint bookkeeping, not durable state.
}

/// Encode a record map: its count `n`, then its records, which ascend
/// by oid and number `n`.
fn encode_record_map<'r>(
    out: &mut Vec<u8>,
    n: usize,
    records: impl Iterator<Item = (Oid, &'r ObjRecord)>,
) {
    encode_u64(out, n as u64);
    let mut written = 0;
    for (o, rec) in records {
        encode_obj_record(out, o, rec);
        written += 1;
    }
    debug_assert_eq!(written, n, "a record map's count matches its records");
}

/// Encode one tracking record. Its creation step is written as its own
/// field, which is always its first segment's start.
fn encode_obj_record(out: &mut Vec<u8>, o: Oid, rec: &ObjRecord) {
    encode_u64(out, o.0);
    encode_u64(out, rec.creation_step() as u64);
    encode_u64(out, u64::from(rec.cohort));
    encode_u64(out, rec.segments.len() as u64);
    out.extend_from_slice(rec.segments.bytes());
}

fn encode_cohort_tables(
    out: &mut Vec<u8>,
    cohorts: &[Cohort],
    by_key: &BTreeMap<(u32, u32), u32>,
    free: &[u32],
) {
    encode_u64(out, cohorts.len() as u64);
    for c in cohorts {
        encode_u64(out, u64::from(c.state));
        encode_u64(out, u64::from(c.last_role));
        encode_u64(out, c.size as u64);
        encode_u64(out, u64::from(c.parent));
    }
    encode_u64(out, by_key.len() as u64);
    for (&(state, role), &id) in by_key {
        encode_u64(out, u64::from(state));
        encode_u64(out, u64::from(role));
        encode_u64(out, u64::from(id));
    }
    encode_u64(out, free.len() as u64);
    for &id in free {
        encode_u64(out, u64::from(id));
    }
}

fn u32_of(v: u64, what: &str) -> Result<u32, WalError> {
    u32::try_from(v).map_err(|_| WalError::Corrupt(format!("{what} out of range")))
}

/// Read a length-prefixed byte blob (the length is bounds-checked
/// against the remaining input by [`Reader::count`]).
fn read_blob(r: &mut Reader<'_>) -> Result<Vec<u8>, WalError> {
    let len = r.count()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.byte()?);
    }
    Ok(out)
}

fn usize_of(v: u64, what: &str) -> Result<usize, WalError> {
    usize::try_from(v).map_err(|_| WalError::Corrupt(format!("{what} out of range")))
}

/// Decode an increment's record map of shard `shard`.
fn decode_record_map(r: &mut Reader<'_>, shard: u32) -> Result<Vec<(Oid, ObjRecord)>, WalError> {
    let n = r.count()?;
    let mut entries: Vec<(Oid, ObjRecord)> = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_obj_record(r, shard, entries.last().map(|&(o, _)| o))?);
    }
    Ok(entries)
}

/// Decode one tracking record of shard `shard`, which must follow oid
/// `after` in its map. A record whose stored creation step is not its
/// first segment's start is corrupt: the table keeps the segment only.
/// Every segment is re-encoded, never adopted as read: the reader takes
/// a varint with redundant continuation bytes, and a record holds only
/// minimal ones, so that equal segments stay equal bytes.
fn decode_obj_record(
    r: &mut Reader<'_>,
    shard: u32,
    after: Option<Oid>,
) -> Result<(Oid, ObjRecord), WalError> {
    let o = Oid(r.u64()?);
    if after.is_some_and(|p| o <= p) {
        return Err(WalError::Corrupt("records out of oid order".into()));
    }
    let creation_step = r.u64()?;
    let cohort = u32_of(r.u64()?, "cohort")?;
    let m = r.count()?;
    if m == 0 {
        return Err(WalError::Corrupt(format!("record {o} has no segments")));
    }
    let mut segment = || -> Result<(u32, usize), WalError> {
        Ok((u32_of(r.u64()?, "letter")?, usize_of(r.u64()?, "segment start")?))
    };
    let first = segment()?;
    if creation_step != first.1 as u64 {
        return Err(WalError::Corrupt(format!(
            "record {o} is created at step {creation_step}, its first segment starts at {}",
            first.1
        )));
    }
    let mut segments = Segments::one(first);
    for _ in 1..m {
        segments.push(segment()?);
    }
    Ok((o, ObjRecord { segments, cohort, shard }))
}

/// Reject a tracking record of o0 or of an oid at or above the counter
/// `next`: an object never minted has no history.
fn check_record_bound(o: Oid, next: Oid, what: &str) -> Result<(), WalError> {
    if o.0 == 0 || o >= next {
        return Err(WalError::Corrupt(format!(
            "{what} has a tracking record outside o1 ≤ o < {next}"
        )));
    }
    Ok(())
}

fn too_many_slots() -> WalError {
    WalError::Corrupt("tracking records need more slots than fit".into())
}

fn claimed_twice(o: Oid) -> WalError {
    WalError::Corrupt(format!("two shards hold a tracking record of {o}"))
}

type CohortTables = (Vec<Cohort>, BTreeMap<(u32, u32), u32>, Vec<u32>);

fn decode_cohort_tables(r: &mut Reader<'_>) -> Result<CohortTables, WalError> {
    let n = r.count()?;
    let mut cohorts = Vec::with_capacity(n);
    for _ in 0..n {
        cohorts.push(Cohort {
            state: u32_of(r.u64()?, "cohort state")?,
            last_role: u32_of(r.u64()?, "cohort role")?,
            size: usize_of(r.u64()?, "cohort size")?,
            parent: u32_of(r.u64()?, "cohort parent")?,
        });
    }
    if cohorts.is_empty() {
        return Err(WalError::Corrupt("missing exempt sink cohort".into()));
    }
    let n = r.count()?;
    let mut by_key = BTreeMap::new();
    for _ in 0..n {
        let state = u32_of(r.u64()?, "key state")?;
        let role = u32_of(r.u64()?, "key role")?;
        let id = u32_of(r.u64()?, "key cohort")?;
        if (id as usize) >= cohorts.len() {
            return Err(WalError::Corrupt("key maps to missing cohort".into()));
        }
        by_key.insert((state, role), id);
    }
    let n = r.count()?;
    let mut free = Vec::with_capacity(n);
    for _ in 0..n {
        let id = u32_of(r.u64()?, "free slot")?;
        if (id as usize) >= cohorts.len() {
            return Err(WalError::Corrupt("free slot out of range".into()));
        }
        free.push(id);
    }
    Ok((cohorts, by_key, free))
}

/// Decode shard `shard`'s tracking state of a snapshot whose heap
/// counter is `next`, placing its records straight into `records`.
fn decode_state(
    r: &mut Reader<'_>,
    next: Oid,
    shard: u32,
    records: &mut Records,
) -> Result<DeltaState, WalError> {
    let steps = usize_of(r.u64()?, "shard clock")?;
    let pre_state = u32_of(r.u64()?, "pre state")?;
    let pre_exempt = match r.byte()? {
        0 => false,
        1 => true,
        b => return Err(WalError::Corrupt(format!("bad pre-exempt byte {b}"))),
    };
    let n = r.count()?;
    let (mut last, mut top_cohort) = (None, None);
    for _ in 0..n {
        let (o, rec) = decode_obj_record(r, shard, last)?;
        check_record_bound(o, next, "snapshot")?;
        top_cohort = top_cohort.max(Some(rec.cohort));
        let entry = records.try_entry(o).map_err(|_| too_many_slots())?;
        if entry.is_some() {
            return Err(claimed_twice(o));
        }
        *entry = Some(rec);
        last = Some(o);
    }
    let (cohorts, by_key, free) = decode_cohort_tables(r)?;
    if top_cohort.is_some_and(|c| c as usize >= cohorts.len()) {
        return Err(WalError::Corrupt("record points at missing cohort".into()));
    }
    Ok(DeltaState {
        shard,
        tracked: n,
        cohorts,
        by_key,
        free,
        steps,
        pre_state,
        pre_exempt,
        ..DeltaState::default()
    })
}

// ---------------------------------------------------------------------
// Backing stores
// ---------------------------------------------------------------------

const LIVE_LOG: &str = "wal.log";
const BASE_FILE: &str = "snapshot.bin";
/// Makes a base job's sequence check and its rename onto [`BASE_FILE`]
/// one step for every base writer of the process (see
/// [`CheckpointJob::run`]).
static BASE_RENAME: Mutex<()> = Mutex::new(());
/// A pre-created empty segment the next seal renames into place, so
/// the admission path pays two renames instead of a file creation
/// (which journals directory metadata synchronously on some
/// filesystems). Always empty; replenished off-path by the checkpoint
/// job. The name deliberately matches no recovery pattern — `load` and
/// `open` ignore it.
const SPARE_LOG: &str = "wal-next.log";

fn sealed_name(seq: u64) -> String {
    format!("sealed-{seq:08}.log")
}

fn delta_name(seq: u64) -> String {
    format!("delta-{seq:08}.bin")
}

fn seq_of(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The frame header of a checkpoint file whose body is `body`: a file
/// is `[len][crc][seq + body]`, where increments prepend the **parent**
/// checkpoint sequence they chain onto to the body, so the chain
/// survives sequence numbers swallowed by crashed jobs. The header ends
/// with those sequence numbers; `body` follows it unframed and uncopied.
fn checkpoint_header(seq: u64, parent: Option<u64>, body: &[&[u8]]) -> Vec<u8> {
    let mut seqs = Vec::with_capacity(20);
    encode_u64(&mut seqs, seq);
    if let Some(parent) = parent {
        encode_u64(&mut seqs, parent);
    }
    let body_len: usize = body.iter().map(|piece| piece.len()).sum();
    let len = u32::try_from(seqs.len() + body_len).expect("fits u32");
    let parts: Vec<&[u8]> = std::iter::once(seqs.as_slice()).chain(body.iter().copied()).collect();
    let mut head = Vec::with_capacity(8 + seqs.len());
    head.extend_from_slice(&len.to_le_bytes());
    head.extend_from_slice(&crc32_parts(&parts).to_le_bytes());
    head.extend_from_slice(&seqs);
    head
}

/// Unframe a checkpoint file into `(seq, body)`.
fn unframe_checkpoint<'a>(bytes: &'a [u8], what: &str) -> Result<(u64, &'a [u8]), WalError> {
    let Some((head, rest)) = bytes.split_at_checked(8) else {
        return Err(WalError::Corrupt(format!("{what} header truncated")));
    };
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    let Some(payload) = rest.get(..len) else {
        return Err(WalError::Corrupt(format!("{what} truncated")));
    };
    if crc32(payload) != crc {
        return Err(WalError::Corrupt(format!("{what} checksum mismatch")));
    }
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let body = &payload[payload.len() - r.remaining()..];
    Ok((seq, body))
}

/// Read just the sequence number from a checkpoint file's frame prefix
/// — `Wal::open` needs only this, and the base snapshot can be tens of
/// MiB ([`Wal::load`] validates the full payload when it matters).
fn peek_checkpoint_seq(path: &Path) -> Option<u64> {
    use std::io::Read as _;
    let mut f = std::fs::File::open(path).ok()?;
    let mut buf = [0u8; 24];
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => n += m,
            Err(_) => return None,
        }
    }
    if n < 9 {
        return None;
    }
    Reader::new(&buf[8..n]).u64().ok()
}

/// The data of one checkpoint: a full base snapshot, or an increment
/// over the previous checkpoint.
pub enum CheckpointData {
    /// A full [`Snapshot`] — becomes the new base; everything older is
    /// pruned once it is durable.
    Full(Snapshot),
    /// An increment — folded onto the chain at load time.
    Incremental(CheckpointDelta),
}

/// A staged checkpoint returned by [`Wal::begin_checkpoint`]: the
/// captured state plus the bookkeeping to make it durable. `run` does
/// the expensive part (encode, write, fsync, prune) and can execute
/// anywhere — inline for a synchronous checkpoint, or on a
/// [`Snapshotter`] thread to keep it off the admission path. Jobs of
/// one [`Wal`] must run **in order** (a single `Snapshotter` does).
#[must_use = "a checkpoint is not durable until the job runs"]
pub struct CheckpointJob {
    dir: PathBuf,
    seq: u64,
    /// The checkpoint this one chains onto (increments only): recorded
    /// in the file so a sequence number swallowed by a crashed job is
    /// not mistaken for a lost increment.
    parent: u64,
    data: CheckpointData,
    faults: IoFaults,
}

impl CheckpointJob {
    /// The checkpoint's sequence number in the chain.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Frame and durably write the checkpoint, then prune the log
    /// segments (and, for a full snapshot, the increments) it covers.
    /// An increment's bytes were encoded at capture and are written as
    /// they are; a full snapshot is encoded here. Takes `&self` so a
    /// failed run can be retried: every step is idempotent (`create`
    /// truncates the temp file, the rename and the prunes re-apply
    /// cleanly).
    ///
    /// A base never replaces a newer one: a full job that finds
    /// `snapshot.bin` at a higher sequence drops its file instead of
    /// renaming it into place. Two base writers can race on one
    /// directory — a `--replica-of` standby's start-time base job on the
    /// snapshotter, and the bootstrap writing the primary's snapshot
    /// inline — and the newer base covers every segment the older one
    /// would, so the prune below stays safe.
    pub fn run(&self) -> Result<(), WalError> {
        let encoded;
        let (body, parent, target): (Vec<&[u8]>, _, _) = match &self.data {
            CheckpointData::Full(snap) => {
                encoded = snap.encode();
                (vec![&encoded], None, self.dir.join(BASE_FILE))
            }
            CheckpointData::Incremental(delta) => (
                delta.pieces.iter().map(Vec::as_slice).collect(),
                Some(self.parent),
                self.dir.join(delta_name(self.seq)),
            ),
        };
        let head = checkpoint_header(self.seq, parent, &body);
        let tmp = self.dir.join(format!("checkpoint-{:08}.tmp", self.seq));
        {
            self.faults.check(FaultSite::CheckpointWrite)?;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&head)?;
            for piece in &body {
                f.write_all(piece)?;
            }
            self.faults.check(FaultSite::CheckpointSync)?;
            f.sync_all()?;
        }
        self.faults.check(FaultSite::CheckpointRename)?;
        if matches!(self.data, CheckpointData::Full(_)) {
            let _serial = BASE_RENAME.lock().unwrap_or_else(PoisonError::into_inner);
            if peek_checkpoint_seq(&target).is_some_and(|newer| newer > self.seq) {
                std::fs::remove_file(&tmp)?;
            } else {
                std::fs::rename(&tmp, &target)?;
            }
        } else {
            std::fs::rename(&tmp, &target)?;
        }
        // Persist the rename itself before dropping the records it
        // supersedes (directory fsync; best-effort where unsupported).
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Prune everything this checkpoint covers.
        self.faults.check(FaultSite::CheckpointPrune)?;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let covered = seq_of(name, "sealed-", ".log").is_some_and(|s| s <= self.seq)
                || (matches!(self.data, CheckpointData::Full(_))
                    && seq_of(name, "delta-", ".bin").is_some_and(|s| s <= self.seq));
            if covered {
                std::fs::remove_file(entry.path())?;
            }
        }
        // Replenish the spare segment off the admission path (best
        // effort — the next seal falls back to creating one inline).
        let _ = std::fs::File::create(self.dir.join(SPARE_LOG));
        Ok(())
    }
}

/// A background checkpoint writer: a single worker thread running
/// [`CheckpointJob`]s in submission order, so the admission path pays
/// only the O(dirty) capture and the log rotation — never the encode
/// and fsync. The first failing job stops the worker; later submissions
/// and [`Snapshotter::finish`] surface the error.
pub struct Snapshotter {
    tx: Option<mpsc::Sender<CheckpointJob>>,
    worker: Option<std::thread::JoinHandle<Result<(), WalError>>>,
    /// First failure, surfaced by every later `submit`/`finish`.
    error: Option<WalError>,
    /// Set by the worker when it gives up on a job, before it reports
    /// the failure to `health`.
    failed: Arc<AtomicBool>,
}

impl Snapshotter {
    /// Spawn the worker thread with no retries and no health reporting:
    /// `spawn_with(0, Duration::ZERO, None)`.
    #[must_use]
    pub fn spawn() -> Snapshotter {
        Snapshotter::spawn_with(0, Duration::ZERO, None)
    }

    /// Spawn the worker thread with a retry budget and optional health
    /// reporting. A failing job is re-run up to `retries` times (the
    /// n-th retry sleeps `n × backoff` first — [`CheckpointJob::run`]
    /// is idempotent); success is recorded in `health` as the last
    /// durable checkpoint. Exhausting the budget records the failure in
    /// `health` and stops the worker as before — the chain must not
    /// advance past a hole — but now the stop is *visible*: the `stats`
    /// verb reports `last_checkpoint=failed` instead of nothing.
    #[must_use]
    pub(crate) fn spawn_with(
        retries: u32,
        backoff: Duration,
        health: Option<Arc<Health>>,
    ) -> Snapshotter {
        let (tx, rx) = mpsc::channel::<CheckpointJob>();
        let failed = Arc::new(AtomicBool::new(false));
        let gave_up = Arc::clone(&failed);
        let worker = std::thread::Builder::new()
            .name("mig-snapshot".into())
            .spawn(move || {
                for job in rx {
                    let mut attempt = 0u32;
                    loop {
                        match job.run() {
                            Ok(()) => {
                                if let Some(h) = &health {
                                    h.checkpoint_ok(job.seq());
                                }
                                break;
                            }
                            Err(_) if attempt < retries => {
                                attempt += 1;
                                std::thread::sleep(backoff.saturating_mul(attempt));
                            }
                            Err(e) => {
                                gave_up.store(true, Ordering::SeqCst);
                                if let Some(h) = &health {
                                    h.checkpoint_failed(&e);
                                }
                                return Err(e);
                            }
                        }
                    }
                }
                Ok(())
            })
            .expect("spawn snapshotter thread");
        Snapshotter { tx: Some(tx), worker: Some(worker), error: None, failed }
    }

    /// Whether a job failed for good: every later `submit` is refused,
    /// so a caller can skip staging the job at all.
    pub(crate) fn has_failed(&self) -> bool {
        self.error.is_some() || self.failed.load(Ordering::SeqCst)
    }

    /// Queue a checkpoint job. Fails — and keeps failing, without
    /// panicking — once an earlier job failed (the checkpoint chain
    /// must not advance past a hole — write a full snapshot to
    /// re-establish it).
    pub fn submit(&mut self, job: CheckpointJob) -> Result<(), WalError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match &self.tx {
            Some(tx) if tx.send(job).is_ok() => Ok(()),
            // Worker exited early (a job failed): join and surface it.
            Some(_) => Err(self.join().expect_err("worker only exits early on failure")),
            None => Err(WalError::Io("snapshotter already finished".into())),
        }
    }

    /// Wait for every queued checkpoint to become durable.
    pub fn finish(mut self) -> Result<(), WalError> {
        self.join()
    }

    fn join(&mut self) -> Result<(), WalError> {
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let outcome = match w.join() {
                Ok(r) => r,
                Err(_) => Err(WalError::Io("snapshotter thread panicked".into())),
            };
            if let Err(e) = outcome {
                self.error = Some(e);
            }
        }
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// A directory-backed log: a live `wal.log` (appended records), sealed
/// segments rotated out by checkpoints, and a checkpoint chain — the
/// latest full `snapshot.bin` plus `delta-N.bin` increments. Writing a
/// checkpoint seals the live log; the checkpoint job prunes sealed
/// segments once it is durable, so recovery never replays history the
/// chain already covers.
pub struct Wal {
    dir: PathBuf,
    log: std::fs::File,
    policy: FsyncPolicy,
    /// End of the last whole record — the append position, and where a
    /// failed append rolls back to.
    end: u64,
    /// End of the durable prefix: everything at or below this offset
    /// has been covered by a successful `fdatasync` (or was on disk at
    /// open). Under [`FsyncPolicy::Off`] it tracks `end` — "as durable
    /// as the policy promises". [`Wal::rollback_unsynced`] truncates
    /// back to this horizon when a batched sync fails for good.
    synced: u64,
    /// Next checkpoint sequence number (one past everything on disk,
    /// sealed segments included — a crashed job's sequence is never
    /// reused).
    next_seq: u64,
    /// The checkpoint the next increment chains onto: the last one
    /// staged this session, or the last **durable** one found at open
    /// (a sealed segment whose checkpoint never landed does not count —
    /// its records replay instead).
    chain_seq: u64,
    /// A base snapshot exists or has been staged — increments may
    /// chain onto it.
    has_base: bool,
    /// Injectable error schedule; default is a no-op (see
    /// [`Wal::with_faults`]).
    faults: IoFaults,
}

impl Wal {
    /// Open (creating if needed) the log directory for appending. A
    /// torn tail left by a crash mid-append is truncated away first —
    /// appending after garbage would hide every later record from
    /// recovery (which stops at the first bad frame) — and stale
    /// `*.tmp` checkpoint files from crashed checkpoint jobs are
    /// removed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Wal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut max_seq = 0u64;
        let mut chain_seq = 0u64;
        let mut has_base = false;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // A checkpoint job died mid-write; the chain never
                // referenced this file.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some(s) = seq_of(name, "sealed-", ".log") {
                // A sealed segment's sequence must never be reused, but
                // its checkpoint may have died before landing — only
                // durable checkpoints enter the chain.
                max_seq = max_seq.max(s);
            }
            if let Some(s) = seq_of(name, "delta-", ".bin") {
                max_seq = max_seq.max(s);
                chain_seq = chain_seq.max(s);
            }
            if name == BASE_FILE {
                has_base = true;
                // Only the frame's sequence prefix is needed here (the
                // base can be tens of MiB); load() validates the full
                // payload.
                if let Some(s) = peek_checkpoint_seq(&entry.path()) {
                    max_seq = max_seq.max(s);
                    chain_seq = chain_seq.max(s);
                }
            }
        }
        let path = dir.join(LIVE_LOG);
        let valid = match std::fs::read(&path) {
            Ok(bytes) => valid_prefix_len(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        let log = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        log.set_len(valid as u64)?;
        Ok(Wal {
            dir,
            log,
            policy: FsyncPolicy::Off,
            end: valid as u64,
            synced: valid as u64,
            next_seq: max_seq + 1,
            chain_seq,
            has_base,
            faults: IoFaults::default(),
        })
    }

    /// Append `record` and sync it: the **synchronous** sink path (acked
    /// on return, so no later batch sync could cover it). A failed sync
    /// truncates the record again.
    fn append_synced(&mut self, record: &[u8]) -> Result<(), WalError> {
        self.append_bytes(record).and_then(|()| {
            self.sync().inspect_err(|_| {
                self.rollback_unsynced();
            })
        })
    }

    /// Append pre-framed record bytes **without** syncing (unless the
    /// policy is [`FsyncPolicy::Always`]) — the committer thread's
    /// write half of group commit. On failure the file is rolled back
    /// to the last whole record; on success the bytes are appended but
    /// *not durable* until the next [`Wal::sync`] returns.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let res = (|| -> Result<(), WalError> {
            self.faults.check(FaultSite::AppendWrite)?;
            self.log.write_all(bytes)?;
            self.log.flush()?;
            if self.policy == FsyncPolicy::Always {
                self.faults.check(FaultSite::AppendSync)?;
                self.log.sync_data()?;
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.end += bytes.len() as u64;
                if self.policy == FsyncPolicy::Always {
                    self.synced = self.end;
                }
                Ok(())
            }
            Err(e) => {
                let _ = self.log.set_len(self.end);
                Err(e)
            }
        }
    }

    /// Make every appended record durable: one `fdatasync` covering
    /// everything since the last sync — the committer's batch boundary.
    /// Under [`FsyncPolicy::Off`] this is a no-op that still advances
    /// the durable horizon (the policy's contract is flushed-to-OS).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.policy != FsyncPolicy::Off && self.synced != self.end {
            self.faults.check(FaultSite::AppendSync)?;
            self.log.sync_data()?;
        }
        self.synced = self.end;
        Ok(())
    }

    /// Truncate appended-but-never-synced records after a failed batch
    /// sync, so a later reopen cannot replay blocks whose acks were
    /// never released. Returns the bytes discarded.
    pub fn rollback_unsynced(&mut self) -> u64 {
        let lost = self.end.saturating_sub(self.synced);
        if lost > 0 {
            let _ = self.log.set_len(self.synced);
            self.end = self.synced;
        }
        lost
    }

    /// End of the durable prefix, in bytes (diagnostics/tests).
    #[must_use]
    pub fn synced_len(&self) -> u64 {
        self.synced
    }

    /// Set the [`FsyncPolicy`] (default [`FsyncPolicy::Off`]).
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Wal {
        self.policy = policy;
        self
    }

    /// The configured [`FsyncPolicy`].
    #[must_use]
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Attach an [`IoFaults`] error schedule: every append, seal and
    /// checkpoint of this log (and of the [`CheckpointJob`]s it stages)
    /// consults the plan before touching the disk. The default plan
    /// never fires.
    #[must_use]
    pub fn with_faults(mut self, faults: IoFaults) -> Wal {
        self.faults = faults;
        self
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a base snapshot exists (or has been staged) for
    /// increments to chain onto. `false` on a fresh directory — and
    /// after recovering from a crash that killed the base checkpoint
    /// job itself: the caller must write a full checkpoint before the
    /// first [`CheckpointData::Incremental`].
    #[must_use]
    pub fn has_base(&self) -> bool {
        self.has_base
    }

    /// Stage a checkpoint: assign it the next sequence number and seal
    /// the live log (a rename — the only admission-path cost besides
    /// the caller's O(dirty) capture). The returned [`CheckpointJob`]
    /// carries the expensive work; run it inline or hand it to a
    /// [`Snapshotter`]. Until the job completes the previous chain
    /// stays authoritative — a crash in between replays the sealed
    /// segment instead.
    ///
    /// An [`CheckpointData::Incremental`] requires a base snapshot
    /// (written or staged) to chain onto.
    pub fn begin_checkpoint(&mut self, data: CheckpointData) -> Result<CheckpointJob, WalError> {
        if matches!(data, CheckpointData::Incremental(_)) && !self.has_base {
            return Err(WalError::Mismatch(
                "incremental checkpoint without a base snapshot".into(),
            ));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.end > 0 {
            self.log.flush()?;
            if self.policy != FsyncPolicy::Off {
                self.log.sync_data()?;
            }
            self.faults.check(FaultSite::SealRename)?;
            let live = self.dir.join(LIVE_LOG);
            std::fs::rename(&live, self.dir.join(sealed_name(seq)))?;
            // Install the pre-created spare segment if the checkpoint
            // job has replenished one (always empty); fall back to
            // creating in place on the first seal.
            let _ = std::fs::rename(self.dir.join(SPARE_LOG), &live);
            self.log = std::fs::OpenOptions::new().create(true).append(true).open(&live)?;
            self.end = 0;
            self.synced = 0;
        }
        if matches!(data, CheckpointData::Full(_)) {
            self.has_base = true;
        }
        // The increment chains onto the previous checkpoint (or, after
        // a reopen, the last durable one — a sequence swallowed by a
        // crashed job leaves a gap in the numbering, which the recorded
        // parent link distinguishes from a genuinely lost increment).
        let parent = std::mem::replace(&mut self.chain_seq, seq);
        Ok(CheckpointJob { dir: self.dir.clone(), seq, parent, data, faults: self.faults.clone() })
    }

    /// Write `snap` as a new full checkpoint **synchronously**: stage
    /// it and run the job inline. Equivalent to
    /// `begin_checkpoint(Full)` + [`CheckpointJob::run`].
    pub fn write_snapshot(&mut self, snap: &Snapshot) -> Result<(), WalError> {
        self.begin_checkpoint(CheckpointData::Full(snap.clone()))?.run()
    }

    /// Read a directory's checkpoint chain and WAL tail: fold the base
    /// snapshot and every increment after it, then decode the sealed
    /// segments and the live log in order. Returns `None` for the
    /// snapshot when no checkpoint was ever written (recover from the
    /// empty monitor, replaying every record). Records already covered
    /// by the chain are *not* filtered here — recovery skips them per
    /// shard by step offset, which is what makes the
    /// crash-between-checkpoint-and-prune window safe. A torn final
    /// record per segment is dropped; a torn or checksum-failing
    /// checkpoint file is an error (checkpoints are written atomically,
    /// so a bad one is real corruption, not a crash artifact); an
    /// increment older than the base is a stale leftover and ignored.
    pub fn load(dir: impl AsRef<Path>) -> Result<(Option<Snapshot>, Vec<WalRecord>), WalError> {
        let dir = dir.as_ref();
        let (mut base_seq, mut snap) = (0u64, None);
        match std::fs::read(dir.join(BASE_FILE)) {
            Ok(bytes) => {
                let (seq, body) = unframe_checkpoint(&bytes, "snapshot")?;
                base_seq = seq;
                snap = Some(Snapshot::decode(body)?);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // Collect increments and sealed segments by sequence number.
        let mut delta_seqs: Vec<u64> = Vec::new();
        let mut sealed_seqs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(s) = seq_of(name, "delta-", ".bin") {
                delta_seqs.push(s);
            } else if let Some(s) = seq_of(name, "sealed-", ".log") {
                sealed_seqs.push(s);
            }
        }
        delta_seqs.sort_unstable();
        sealed_seqs.sort_unstable();
        // Fold the chain by recorded parent links: sequence numbers may
        // have holes (a crashed job's sealed segment keeps its number,
        // and its records replay below), but each increment must chain
        // onto exactly the previously folded checkpoint.
        let mut chained = base_seq;
        for &s in &delta_seqs {
            if s <= base_seq {
                continue; // stale increment from before the current base
            }
            let Some(base) = snap.as_mut() else {
                return Err(WalError::Corrupt(format!("increment {s} without a base snapshot")));
            };
            let bytes = std::fs::read(dir.join(delta_name(s)))?;
            let (seq, body) = unframe_checkpoint(&bytes, "checkpoint delta")?;
            if seq != s {
                return Err(WalError::Corrupt(format!(
                    "increment file {s} carries sequence {seq}"
                )));
            }
            let mut r = Reader::new(body);
            let parent = r.u64()?;
            let delta_bytes = &body[body.len() - r.remaining()..];
            if parent != chained {
                return Err(WalError::Corrupt(format!(
                    "checkpoint chain broken: increment {s} chains onto {parent}, \
                     last folded checkpoint is {chained}"
                )));
            }
            base.apply(CheckpointDelta::decode(delta_bytes)?)?;
            chained = s;
        }
        let mut records = Vec::new();
        for &s in &sealed_seqs {
            let bytes = std::fs::read(dir.join(sealed_name(s)))?;
            records.extend(decode_records(&bytes)?);
        }
        match std::fs::read(dir.join(LIVE_LOG)) {
            Ok(bytes) => records.extend(decode_records(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok((snap, records))
    }
}

impl CommitSink for Wal {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        let mut buf = Vec::new();
        encode_record(&mut buf, block)?;
        self.append_synced(&buf)
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        let mut buf = Vec::new();
        encode_certify_record(&mut buf, steps);
        self.append_synced(&buf)
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        let mut buf = Vec::new();
        encode_redefine_record(&mut buf, epoch, policy, shards, inventory)?;
        self.append_synced(&buf)
    }
}

/// An in-memory log holding the exact bytes a [`Wal`] would write —
/// the property-test and benchmark double, byte-compatible with the
/// file format (including torn-tail semantics via
/// [`MemoryWal::records_up_to`], and the incremental checkpoint chain
/// via [`MemoryWal::write_checkpoint_delta`]).
#[derive(Default)]
pub struct MemoryWal {
    log: Vec<u8>,
    base: Option<Vec<u8>>,
    deltas: Vec<Vec<u8>>,
    faults: IoFaults,
}

impl MemoryWal {
    /// An empty in-memory log.
    #[must_use]
    pub fn new() -> MemoryWal {
        MemoryWal::default()
    }

    /// Attach an [`IoFaults`] error schedule: `committed`/`certified`
    /// consult the [`FaultSite::AppendWrite`] site before encoding,
    /// mirroring the file-backed [`Wal`] — so ingress-level failure
    /// policies are testable without a real disk.
    #[must_use]
    pub fn with_faults(mut self, faults: IoFaults) -> MemoryWal {
        self.faults = faults;
        self
    }

    /// Size of the log in bytes.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Decode every complete record.
    #[must_use]
    pub fn records(&self) -> Vec<WalRecord> {
        decode_records(&self.log).expect("self-written log decodes")
    }

    /// Decode the records recoverable from the first `len` bytes — i.e.
    /// after a crash that persisted only a prefix of the log.
    #[must_use]
    pub fn records_up_to(&self, len: usize) -> Vec<WalRecord> {
        decode_records(&self.log[..len.min(self.log.len())]).expect("prefix decodes")
    }

    /// Store `snap` as the new base checkpoint, dropping earlier
    /// increments and truncating the log — mirroring a full
    /// [`Wal::begin_checkpoint`] whose job has completed.
    pub fn write_snapshot(&mut self, snap: &Snapshot) {
        self.base = Some(snap.encode());
        self.deltas.clear();
        self.log.clear();
    }

    /// Append an incremental checkpoint to the chain and truncate the
    /// log (the records it covers are "pruned").
    ///
    /// # Panics
    /// Panics if no base snapshot was ever written (mirrors
    /// [`Wal::begin_checkpoint`]'s error).
    pub fn write_checkpoint_delta(&mut self, delta: &CheckpointDelta) {
        assert!(self.base.is_some(), "incremental checkpoint without a base snapshot");
        self.deltas.push(delta.encode());
        self.log.clear();
    }

    /// The stored checkpoint chain, folded: base snapshot plus every
    /// increment in order.
    pub fn snapshot(&self) -> Result<Option<Snapshot>, WalError> {
        let Some(base) = &self.base else { return Ok(None) };
        let mut snap = Snapshot::decode(base)?;
        for bytes in &self.deltas {
            snap.apply(CheckpointDelta::decode(bytes)?)?;
        }
        Ok(Some(snap))
    }
}

impl CommitSink for MemoryWal {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        self.faults.check(FaultSite::AppendWrite)?;
        encode_record(&mut self.log, block)
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        self.faults.check(FaultSite::AppendWrite)?;
        encode_certify_record(&mut self.log, steps);
        Ok(())
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        self.faults.check(FaultSite::AppendWrite)?;
        encode_redefine_record(&mut self.log, epoch, policy, shards, inventory)
    }
}

/// A sink that fails on command — exercises the abort-on-sink-error
/// contract in tests.
#[doc(hidden)]
#[derive(Default)]
pub struct FailingSink {
    /// When true, every commit errors.
    pub fail: bool,
    /// Blocks accepted while `fail` was false.
    pub accepted: usize,
}

impl CommitSink for FailingSink {
    fn committed(&mut self, _block: &BlockRef<'_>) -> Result<(), WalError> {
        if self.fail {
            return Err(WalError::Io("injected sink failure".into()));
        }
        self.accepted += 1;
        Ok(())
    }

    fn certified(&mut self, _steps: usize) -> Result<(), WalError> {
        if self.fail {
            return Err(WalError::Io("injected sink failure".into()));
        }
        Ok(())
    }

    fn redefined(
        &mut self,
        _epoch: u64,
        _policy: ResiduePolicy,
        _shards: &[(u32, usize)],
        _inventory: &[u8],
    ) -> Result<(), WalError> {
        if self.fail {
            return Err(WalError::Io("injected sink failure".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the slicing one replaced, kept as its
    /// reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0u32, |c, &b| CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8))
    }

    /// Slicing-by-8 against the bytewise CRC on random bytes of random
    /// lengths up to 1 MiB, whole and cut into parts at random points
    /// (so words straddle the cuts), and on the check string.
    #[test]
    fn slicing_crc_agrees_with_the_bytewise_one() {
        use rand::{rngs::StdRng, Rng as _, RngExt as _, SeedableRng};
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        let mut rng = StdRng::seed_from_u64(0xedb8_8320);
        let lengths = (0..64).map(|i| match i % 3 {
            0 => i / 3,
            1 => rng.random_range(0..4096),
            _ => rng.random_range(0..(1 << 20) + 1),
        });
        for len in lengths.collect::<Vec<_>>() {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = crc32_bytewise(&bytes);
            assert_eq!(crc32(&bytes), want, "{len} bytes");
            let mut cuts: Vec<usize> = (0..3).map(|_| rng.random_range(0..len + 1)).collect();
            cuts.sort_unstable();
            let parts = [&bytes[..cuts[0]], &bytes[cuts[0]..cuts[1]], &bytes[cuts[1]..cuts[2]]];
            assert_eq!(crc32_parts(&[parts[0], parts[1], parts[2], &bytes[cuts[2]..]]), want);
        }
    }

    /// A record whose segment varints carry redundant continuation
    /// bytes — which the reader accepts — decodes equal to the minimal
    /// one, and encodes back minimal: the record re-encodes what it
    /// reads rather than adopting the bytes.
    #[test]
    fn a_non_minimal_segment_decodes_minimal() {
        // One record map of o1: created at step 1 in cohort 0, with the
        // segments (1, 1) and (2, 300).
        let minimal = [1, 1, 1, 0, 2, 1, 1, 2, 0xac, 0x02];
        let padded = [1, 1, 1, 0, 2, 0x81, 0x00, 0x81, 0x80, 0x00, 2, 0xac, 0x82, 0x00];
        let decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let records = decode_record_map(&mut r, 0).unwrap();
            assert!(r.is_exhausted());
            records
        };
        let (want, got) = (decode(&minimal), decode(&padded));
        assert_eq!(got, want);
        assert_eq!(got[0].1.segments.iter().collect::<Vec<_>>(), [(1, 1), (2, 300)]);
        let mut out = Vec::new();
        encode_record_map(&mut out, 1, got.iter().map(|(o, rec)| (*o, rec)));
        assert_eq!(out, minimal, "encoded minimal");
    }

    fn one_shard(steps0: usize, k: usize) -> Vec<ShardLetters> {
        vec![ShardLetters { shard: 0, steps0, letters: (0..k as u32).collect() }]
    }

    #[test]
    fn records_survive_round_trip_and_drop_torn_tail() {
        let s = migratory_model::schema::university_schema();
        let ts = migratory_lang::parse_transactions(
            &s,
            r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
        )
        .unwrap();
        let mut db = Instance::default();
        let mk = ts.get("Mk").unwrap();
        let deltas: Vec<Delta> = (0..3)
            .map(|i| {
                let args = migratory_lang::Assignment::new(vec![migratory_model::Value::str(
                    &format!("{i}"),
                )]);
                migratory_lang::apply_transaction_delta(&s, &mut db, mk, &args).unwrap()
            })
            .collect();
        let mut log = Vec::new();
        let s0 = one_shard(0, 1);
        let block =
            |effective: &'static [u32], shards| BlockRef { deltas: &deltas, effective, shards };
        encode_record(&mut log, &block(&[0], &s0)).unwrap();
        let s1 = one_shard(1, 2);
        encode_record(&mut log, &block(&[1, 2], &s1)).unwrap();
        let full = decode_records(&log).unwrap();
        assert_eq!(full.len(), 2);
        let WalRecord::Block(b0) = &full[0] else { panic!("block record") };
        assert_eq!(b0.deltas, vec![deltas[0].clone()]);
        assert_eq!(b0.shards, one_shard(0, 1));
        let WalRecord::Block(b1) = &full[1] else { panic!("block record") };
        assert_eq!((b1.shards[0].steps0, b1.deltas.len(), full[1].letters()), (1, 2, 2));
        // Certification markers frame through the same channel.
        let mut with_cert = log.clone();
        encode_certify_record(&mut with_cert, 3);
        let all = decode_records(&with_cert).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2], WalRecord::Certified { steps: 3 });
        assert_eq!(all[2].letters(), 0);
        // Every truncation point recovers a (possibly empty) prefix of
        // whole blocks — never an error, never a partial block.
        let first_len = {
            let mut one = Vec::new();
            encode_record(&mut one, &block(&[0], &s0)).unwrap();
            one.len()
        };
        for cut in 0..log.len() {
            let got = decode_records(&log[..cut]).unwrap();
            let want = usize::from(cut >= first_len);
            assert_eq!(got.len(), want, "cut at {cut}");
        }
        // A flipped payload byte fails the checksum and truncates there.
        let mut bad = log.clone();
        let idx = first_len + 10;
        bad[idx] ^= 0xff;
        assert_eq!(decode_records(&bad).unwrap().len(), 1);
    }

    #[test]
    fn oversized_length_claims_are_capped() {
        let mut log = Vec::new();
        encode_certify_record(&mut log, 7);
        let good_len = log.len();
        encode_certify_record(&mut log, 8);
        // Corrupt the second record's length header to claim ~3.4 GiB.
        log[good_len..good_len + 4].copy_from_slice(&0xccff_ffffu32.to_le_bytes());
        // The claimed bytes are NOT present: torn-tail semantics, the
        // first record survives, no multi-GiB buffer is ever sized.
        let got = decode_records(&log).unwrap();
        assert_eq!(got, vec![WalRecord::Certified { steps: 7 }]);
        assert_eq!(valid_prefix_len(&log).unwrap(), good_len);
        // With the claimed bytes present the claim cannot be a torn
        // append: corruption, loudly (one byte over the cap keeps the
        // test buffer as small as possible).
        let over = u32::try_from(MAX_RECORD_LEN + 1).unwrap();
        let mut padded = log[..good_len].to_vec();
        padded.extend_from_slice(&over.to_le_bytes());
        padded.extend_from_slice(&[0u8; 4]); // bogus crc, never consulted
        padded.resize(good_len + 8 + MAX_RECORD_LEN + 1, 0);
        assert!(matches!(decode_records(&padded), Err(WalError::Corrupt(_))));
        assert!(matches!(valid_prefix_len(&padded), Err(WalError::Corrupt(_))));
    }

    /// A checksum-valid increment whose next counter does not clear
    /// every object it leaves in the heap is corruption: folding it must
    /// fail with `Corrupt`, not panic in `Instance::set_next`.
    #[test]
    fn increment_with_oid_at_or_above_its_counter_is_corrupt() {
        let schema = migratory_model::schema::university_schema();
        let alphabet = crate::RoleAlphabet::new(&schema, 0).unwrap();
        let inv = crate::Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
        let ts = migratory_lang::parse_transactions(
            &schema,
            r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
        )
        .unwrap();
        let mk = ts.get("Mk").unwrap();
        let key = |k: &str| migratory_lang::Assignment::new(vec![migratory_model::Value::str(k)]);
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1);
        m.try_apply(mk, &key("a")).unwrap();
        m.try_apply(mk, &key("b")).unwrap();
        let base = m.checkpoint_full();
        m.try_apply(mk, &key("c")).unwrap();
        let good = m.checkpoint_delta().encode();
        let fold = |edit: &dyn Fn(&mut DecodedDelta)| {
            let mut d = CheckpointDelta::decode(&good).unwrap();
            edit(&mut d);
            // The edited increment encodes and decodes like any other.
            let d = CheckpointDelta::decode(&d.encode()).expect("structurally valid");
            base.clone().apply(d)
        };
        assert!(fold(&|_| {}).is_ok(), "the untouched increment folds");
        // The increment's own object o3 is not below its counter.
        assert!(matches!(fold(&|d| d.next_oid = 3), Err(WalError::Corrupt(_))));
        // o2 survives from the base, and the counter would recycle it.
        assert!(matches!(
            fold(&|d| {
                d.objects.clear();
                d.next_oid = 2;
            }),
            Err(WalError::Corrupt(_))
        ));
        // o0 is never minted.
        assert!(matches!(
            fold(&|d| {
                let state = d.objects.values().next().unwrap().clone();
                d.objects.insert(Oid(0), state);
            }),
            Err(WalError::Corrupt(_))
        ));
    }

    /// The university schema with `Mk`, `St` and `Rm` under
    /// `∅* [PERSON]* [STUDENT]* ∅*`.
    fn university() -> (
        migratory_model::Schema,
        crate::RoleAlphabet,
        crate::Inventory,
        migratory_lang::TransactionSchema,
    ) {
        let schema = migratory_model::schema::university_schema();
        let alphabet = crate::RoleAlphabet::new(&schema, 0).unwrap();
        let inv =
            crate::Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
        let ts = migratory_lang::parse_transactions(
            &schema,
            r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
               transaction St(x) {
                 specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
               }
               transaction Rm(x) { delete(PERSON, { SSN = x }); }"#,
        )
        .unwrap();
        (schema, alphabet, inv, ts)
    }

    fn key(k: &str) -> migratory_lang::Assignment {
        migratory_lang::Assignment::new(vec![migratory_model::Value::str(k)])
    }

    /// A snapshot holding a tracking record for an oid its heap counter
    /// has not minted is corruption: recovered, the record would become
    /// the history of the next fresh object.
    #[test]
    fn snapshot_record_at_or_above_its_counter_is_corrupt() {
        let (schema, alphabet, inv, ts) = university();
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1);
        m.try_apply(ts.get("Mk").unwrap(), &key("a")).unwrap();
        m.try_apply(ts.get("St").unwrap(), &key("a")).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.db.next_oid(), Oid(2));
        assert!(Snapshot::decode(&snap.encode()).is_ok(), "the untouched snapshot decodes");
        for o in [Oid(2), Oid(3)] {
            let mut bad = snap.clone();
            let rec = bad.records.find(Oid(1)).unwrap().clone();
            bad.records.insert(o, rec);
            bad.shards[0].tracked += 1;
            assert!(
                matches!(Snapshot::decode(&bad.encode()), Err(WalError::Corrupt(_))),
                "a record at {o} with the counter at o2"
            );
        }
    }

    /// An increment whose tracking records leave `o1 ≤ o < next_oid`,
    /// or whose counter falls to or below a record kept from the base,
    /// is corruption.
    #[test]
    fn increment_record_outside_its_counter_is_corrupt() {
        let (schema, alphabet, inv, ts) = university();
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1);
        m.try_apply(ts.get("Mk").unwrap(), &key("a")).unwrap();
        m.try_apply(ts.get("Mk").unwrap(), &key("b")).unwrap();
        m.try_apply(ts.get("Rm").unwrap(), &key("b")).unwrap();
        // o2 is deleted but keeps its record; the counter is o3.
        let base = m.checkpoint_full();
        m.try_apply(ts.get("St").unwrap(), &key("a")).unwrap();
        let good = m.checkpoint_delta().encode();
        let fold = |edit: &dyn Fn(&mut DecodedDelta)| {
            let mut d = CheckpointDelta::decode(&good).unwrap();
            edit(&mut d);
            let d = CheckpointDelta::decode(&d.encode()).expect("structurally valid");
            base.clone().apply(d)
        };
        assert!(fold(&|_| {}).is_ok(), "the untouched increment folds");
        // o1's record moved to the counter, then to o0.
        for o in [Oid(3), Oid(0)] {
            assert!(
                matches!(fold(&|d| d.shards[0].records[0].0 = o), Err(WalError::Corrupt(_))),
                "an increment record at {o}"
            );
        }
        // The counter falls onto the base's record of the deleted o2,
        // which no heap object guards.
        assert!(matches!(fold(&|d| d.next_oid = 2), Err(WalError::Corrupt(_))));
    }

    /// The capture writes an increment's bytes in one pass, straight
    /// from the heap and the records. On a four-shard (oid-striped)
    /// monitor with deletes, and once with an object marked dirty in
    /// two shards and every record table full (`restore_dirty`), the
    /// bytes must decode into exactly the dirtied state, re-encode
    /// byte for byte through the structured reference encoder, and fold
    /// onto the base into the live snapshot.
    #[test]
    fn captured_increment_matches_the_reference_encoder() {
        let (schema, alphabet, inv, ts) = university();
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 4);
        let (mk, st, rm) = (ts.get("Mk").unwrap(), ts.get("St").unwrap(), ts.get("Rm").unwrap());
        let keys: Vec<_> = (0..12).map(|i| key(&format!("k{i}"))).collect();
        assert_eq!(m.try_apply_batch(keys.iter().map(|k| (mk, k))), (12, None));
        let mut base = m.checkpoint_full();
        let check = |m: &mut super::super::ShardedMonitor<'_>, base: &mut Snapshot, full: bool| {
            let d = m.checkpoint_delta();
            let bytes = d.encode();
            let decoded = CheckpointDelta::decode(&bytes).unwrap();
            assert_eq!(decoded.encode(), bytes, "the reference encoder agrees");
            assert!(decoded.objects.keys().eq(d.oids()), "the covered oids");
            for (&o, state) in &decoded.objects {
                let live = m.db().occurs(o).then(|| (m.db().role_set(o), m.db().tuple_of(o)));
                assert_eq!(*state, live, "{o} as the heap holds it");
            }
            assert_eq!(d.clocks(), m.clocks());
            assert!(decoded.shards.iter().all(|s| s.full == full));
            base.apply(decoded).unwrap();
            assert_eq!(base.encode(), m.snapshot().encode(), "base + increment is the live state");
        };
        for k in ["k1", "k6", "k7"] {
            m.try_apply(st, &key(k)).unwrap();
        }
        for k in ["k2", "k11"] {
            m.try_apply(rm, &key(k)).unwrap();
        }
        m.try_apply(mk, &key("k12")).unwrap();
        check(&mut m, &mut base, false);
        m.try_apply(st, &key("k3")).unwrap();
        // o2 (deleted) and o5 belong to stripes 2 and 1; restoring them
        // marks them in stripe 0's set too, and every table full.
        m.restore_dirty(&[Oid(2), Oid(5)]);
        check(&mut m, &mut base, true);
    }

    /// An increment far past glibc's 128 KiB mmap threshold is captured
    /// in pieces that each stay below it — none needs more room than
    /// [`PIECE`] plus one item's — and written as one file's bytes: they
    /// decode, re-encode through the reference encoder and fold onto
    /// the base into the live state.
    #[test]
    fn large_increment_is_captured_in_pieces_below_the_mmap_threshold() {
        let (schema, alphabet, inv, ts) = university();
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 2);
        let mut base = m.checkpoint_full();
        let keys: Vec<_> = (0..20_000).map(|i| key(&format!("k{i}"))).collect();
        let mk = ts.get("Mk").unwrap();
        assert_eq!(m.try_apply_batch(keys.iter().map(|k| (mk, k))), (20_000, None));
        let d = m.checkpoint_delta();
        assert!(d.pieces.len() > 4, "{} pieces", d.pieces.len());
        for piece in &d.pieces {
            assert!(piece.len() < PIECE && piece.capacity() < 128 << 10, "{}", piece.capacity());
        }
        let dir = std::env::temp_dir().join(format!("migratory-pieces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.write_snapshot(&base).unwrap();
        let bytes = d.encode();
        wal.begin_checkpoint(CheckpointData::Incremental(d)).unwrap().run().unwrap();
        let decoded = CheckpointDelta::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes, "the reference encoder agrees");
        base.apply(decoded).unwrap();
        assert_eq!(base.encode(), m.snapshot().encode(), "base + increment is the live state");
        let (loaded, tail) = Wal::load(&dir).unwrap();
        assert!(tail.is_empty());
        assert_eq!(loaded.unwrap().encode(), m.snapshot().encode(), "the file folds alike");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same records built by staging (one block creates and
    /// specializes `a`, so its two segments are inserted together), by
    /// segment growth (one letter per block, so the second is appended
    /// to the first, held inline until then) and by `decode_record_map`
    /// compare equal, print alike and encode to the same bytes.
    #[test]
    fn records_built_three_ways_compare_and_encode_alike() {
        let (schema, alphabet, inv, ts) = university();
        let (mk, st) = (ts.get("Mk").unwrap(), ts.get("St").unwrap());
        let script = [(mk, key("a")), (st, key("a")), (mk, key("b"))];
        let monitor = || {
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1)
        };
        let mut staged = monitor();
        let (done, err) = staged.try_apply_batch(script.iter().map(|(t, a)| (*t, a)));
        assert_eq!((done, err.is_none()), (script.len(), true), "one block");
        let mut grown = monitor();
        for (t, a) in &script {
            grown.try_apply(t, a).unwrap();
        }
        let encode = |records: &Records| {
            let mut out = Vec::new();
            encode_record_map(&mut out, records.iter().count(), records.of_shard(0));
            out
        };
        let (staged, grown) = (staged.snapshot(), grown.snapshot());
        let (s, g) = (&staged.records, &grown.records);
        let segments = |o: u64| s.find(Oid(o)).unwrap().segments.len();
        assert_eq!((segments(1), segments(2)), (2, 1), "a changed role once, b never");
        assert_eq!(s, g);
        assert_eq!(format!("{s:?}"), format!("{g:?}"));
        let bytes = encode(s);
        assert_eq!(encode(g), bytes);
        let mut decoded = Records::default();
        for (o, rec) in decode_record_map(&mut Reader::new(&bytes), 0).unwrap() {
            decoded.insert(o, rec);
        }
        assert_eq!(&decoded, s);
        assert_eq!(format!("{decoded:?}"), format!("{s:?}"));
        assert_eq!(encode(&decoded), bytes);
    }

    /// A record whose stored creation step is not where its first
    /// segment starts is corrupt, in an increment as in a snapshot: the
    /// table keeps the segment alone, so such a record could not encode
    /// back to its bytes.
    #[test]
    fn record_created_off_its_first_segment_is_corrupt() {
        let (schema, alphabet, inv, ts) = university();
        let (mk, st) = (ts.get("Mk").unwrap(), ts.get("St").unwrap());
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1);
        m.try_apply(mk, &key("a")).unwrap();
        m.try_apply(mk, &key("b")).unwrap();
        let base = m.checkpoint_full();
        m.try_apply(st, &key("a")).unwrap();
        let good = m.checkpoint_delta().encode();
        let snap = m.snapshot().encode();
        // o1's record: created at step 1, specialized at step 3.
        let rec = m.records.find(Oid(1)).unwrap();
        assert_eq!((rec.creation_step(), rec.segments.len()), (1, 2));
        let mut want = Vec::new();
        encode_obj_record(&mut want, Oid(1), rec);
        let edit = |bytes: &[u8]| {
            let at: Vec<usize> = (0..bytes.len() - want.len())
                .filter(|&i| bytes[i..i + want.len()] == want[..])
                .collect();
            assert_eq!(at.len(), 1, "o1's record occurs once");
            let mut bad = bytes.to_vec();
            // The creation step's one varint byte follows o1's.
            bad[at[0] + 1] += 1;
            bad
        };
        assert!(base.clone().apply(CheckpointDelta::decode(&good).unwrap()).is_ok());
        assert!(matches!(CheckpointDelta::decode(&edit(&good)), Err(WalError::Corrupt(_))));
        assert!(Snapshot::decode(&snap).is_ok());
        assert!(matches!(Snapshot::decode(&edit(&snap)), Err(WalError::Corrupt(_))));
    }

    /// A partial increment that shortens a shard's cohort table below a
    /// cohort an older record — one the increment does not carry —
    /// points at breaks the chain; the untouched increment folds.
    #[test]
    fn partial_increment_shortening_cohorts_under_an_old_record_is_corrupt() {
        let (schema, alphabet, inv, ts) = university();
        let (mk, st) = (ts.get("Mk").unwrap(), ts.get("St").unwrap());
        let mut m =
            super::super::ShardedMonitor::new(&schema, &alphabet, &inv, crate::PatternKind::All, 1);
        m.try_apply(mk, &key("a")).unwrap();
        m.try_apply(mk, &key("b")).unwrap();
        m.try_apply(st, &key("a")).unwrap();
        let base = m.checkpoint_full();
        m.try_apply(mk, &key("c")).unwrap();
        let good = m.checkpoint_delta().encode();
        let fold = |cut: usize| {
            let mut d = CheckpointDelta::decode(&good).unwrap();
            let sd = &mut d.shards[0];
            assert!(!sd.full);
            sd.cohorts.truncate(cut);
            sd.by_key.retain(|_, id| (*id as usize) < cut);
            sd.free.retain(|&id| (id as usize) < cut);
            base.clone().apply(CheckpointDelta::decode(&d.encode()).expect("structurally valid"))
        };
        let d = CheckpointDelta::decode(&good).unwrap();
        let (own, len) = (&d.shards[0].records, d.shards[0].cohorts.len());
        // Cut the table just past the cohorts of the increment's own
        // records, and under the cohort of an older one.
        let cut = own.iter().map(|(_, rec)| rec.cohort as usize + 1).max().unwrap();
        assert!(cut < len, "the cut shortens the table");
        assert!(base.records.iter().any(|(_, rec)| rec.cohort as usize >= cut), "under a record");
        assert!(fold(len).is_ok(), "the untouched increment folds");
        assert_eq!(
            fold(cut).err(),
            Some(WalError::Corrupt("record points at missing cohort".into()))
        );
    }
}
