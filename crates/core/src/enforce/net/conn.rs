//! Per-connection state machine: nonblocking read/write buffers,
//! incremental request extraction (both dialects), and the seq-numbered
//! reply slot queue that keeps replies in request order while admission
//! outcomes arrive asynchronously. A slot waiting for such an outcome
//! records its request's [`Dialect`], so the outcome itself carries none
//! and is encoded only when it fills the slot.
//!
//! A connection owns no thread. The event loop (`super::event`) polls
//! its socket, feeds bytes in with [`Conn::fill_read_buffer`], pulls
//! requests out with [`ReadBuf::extract`], parks at most one parsed-but-
//! unposted invoke in [`Conn::pending`] when its admission lane is full
//! (backpressure as poll-interest suppression: a connection with a
//! pending post stops reading), and flushes the **ready prefix** of the
//! slot queue to the write buffer — so replies never overtake each
//! other within a connection, exactly the old reader/writer pair's
//! FIFO-channel guarantee, without the two threads.
//!
//! Neither direction copies a request or a reply: a request is decoded
//! from the read buffer it arrived in, and a decided reply waits in its
//! slot as an [`Outcome`] that is encoded straight into the write buffer
//! when the slot flushes.

use super::event::Outcome;
use super::frame;
use super::MAX_LINE;
use crate::enforce::ingress::Completion;
use migratory_lang::{Assignment, Transaction};
use migratory_model::{ClassId, Condition};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Write-buffer high-water mark: a connection whose unsent replies
/// exceed this stops having requests extracted (and its socket read) —
/// a peer that pipelines requests but never reads its replies stalls
/// itself, not the server.
pub(super) const WRITE_HIGH: usize = 256 * 1024;

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Reads absorbed per readiness event before yielding to other
/// connections (level-triggered poll re-reports leftover data).
const READ_BUDGET: usize = 4;

/// The wire dialect a request arrived in, and so the one its reply is
/// encoded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Dialect {
    /// Newline-terminated UTF-8 lines.
    Text,
    /// Length-prefixed [`frame`]s.
    Binary,
}

/// One reply slot, FIFO per connection.
pub(super) enum Slot {
    /// A request whose outcome is decided on the admission side and has
    /// not arrived yet (`invoke`, `redefine`, `promote`).
    Waiting {
        /// The request's dialect, which the reply must match.
        dialect: Dialect,
    },
    /// A decided reply, encoded in `dialect` when the slot flushes.
    Ready {
        /// The request's dialect, which the reply must match.
        dialect: Dialect,
        /// The reply.
        outcome: Outcome,
    },
    /// A read answered at *flush* time, after every earlier slot of this
    /// connection resolved — so it sees the effect of every earlier
    /// request of its connection, and a synchronously driven connection
    /// reads its own counters deterministically.
    Deferred {
        /// The request's dialect, which the reply must match.
        dialect: Dialect,
        /// The read to answer.
        read: Deferred,
    },
}

/// A request that reads server state, answered when its slot reaches
/// the front of the queue ([`Slot::Deferred`]).
pub(super) enum Deferred {
    /// `stats`; `prom` replies with the length-prefixed Prometheus
    /// exposition instead of the flat one-line form.
    Stats {
        /// The Prometheus form.
        prom: bool,
    },
    /// `query`: the objects of a class matching a condition.
    Query(ClassId, Condition),
}

/// A parsed invoke the admission lane refused (lane full): retried by
/// the event loop after an ingress space wakeup.
pub(super) struct Pending<'t> {
    /// The transaction to post.
    pub t: &'t Transaction,
    /// Its argument assignment.
    pub args: Assignment,
    /// Where its outcome goes.
    pub done: Completion,
}

/// One request extracted from the read buffer, borrowed from it.
pub(super) enum Request<'b> {
    /// A complete text line (raw, newline stripped, not yet trimmed).
    Line(&'b str),
    /// A complete binary frame: kind and payload.
    Frame(u8, &'b [u8]),
}

/// Result of one [`ReadBuf::extract`] call.
pub(super) enum Extracted<'b> {
    /// No complete request buffered; read more.
    None,
    /// One request, and the wire bytes it consumed (for byte quotas).
    Some(Request<'b>, u64),
    /// A text line crossed [`MAX_LINE`] without a newline — refused
    /// during accumulation, not after a full read.
    LineTooLong,
    /// A frame header declared a payload beyond the cap — refused as
    /// soon as the header parsed, before any payload accumulated.
    FrameOversized(u32),
    /// A complete text line was not valid UTF-8: silent teardown (the
    /// old reader's behaviour for undecodable bytes).
    BadUtf8,
}

/// Result of one socket read burst.
pub(super) enum ReadOutcome {
    /// Bytes may have arrived; the socket is still open.
    Progress,
    /// Orderly EOF from the peer.
    Eof,
    /// The socket is dead (reset, I/O error).
    Dead,
}

/// Per-connection state owned by exactly one event thread.
pub(super) struct Conn<'t> {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Server-wide connection id (routes completions back here).
    pub id: u64,
    /// Auth handshake passed (or no token configured).
    pub authed: bool,
    /// Still extracting requests; cleared by `quit`, teardown and
    /// drain.
    pub read_open: bool,
    /// The peer half-closed (orderly FIN): no further bytes will ever
    /// arrive, but requests already buffered still extract — a client
    /// that pipelines and then `shutdown(SHUT_WR)`s is owed every
    /// reply. Set by [`Conn::fill_read_buffer`]; the pump tears the
    /// connection down once the read buffer can yield nothing more.
    pub eof: bool,
    /// Dialect of the most recent request (text until the first one):
    /// server-initiated errors with no request to answer — the
    /// idle-timeout reap — are encoded in it, so a binary client
    /// blocked in `read_frame` gets a decodable frame, not bytes that
    /// fail its magic check.
    pub last_dialect: Dialect,
    /// Close the socket once every slot resolved and flushed.
    pub close_after_flush: bool,
    /// The socket failed: drop the connection without further I/O.
    pub dead: bool,
    /// Last moment traffic moved in either direction (idle-timeout
    /// clock): bytes received, or replies accepted by the peer.
    pub last_rx: Instant,
    /// Set while unsent reply bytes exist: the moment the current write
    /// stall began (write-stall reaping clock).
    pub write_stalled_since: Option<Instant>,
    /// Force-close deadline once draining.
    pub drain_deadline: Option<Instant>,
    /// Cumulative request wire bytes (quota clock).
    pub bytes: u64,
    /// Cumulative parsed requests (quota clock).
    pub ops: u64,
    /// At most one lane-refused invoke awaiting ingress space.
    pub pending: Option<Pending<'t>>,
    /// Something happened to this connection since its last pump (bytes
    /// read, a completion filled a slot, a space signal arrived while an
    /// op was parked, the socket became writable): the event loop pumps
    /// only dirty connections, so a quiescent one costs nothing per
    /// iteration.
    pub dirty: bool,
    /// The readiness interest this socket is currently registered for
    /// with the event thread's epoll instance. The loop reconciles it
    /// against the connection's wants after every pump, so `epoll_ctl`
    /// is called only when interest actually changes — a connection that
    /// stays in steady-state read mode costs no syscalls per iteration.
    pub interest: u32,
    /// Reply slots in request order; front is the next reply to write.
    pub slots: VecDeque<Slot>,
    /// Sequence number of the front slot (completions address slots by
    /// the sequence assigned at request parse).
    pub seq_base: u64,
    /// Bytes read and not yet extracted.
    pub rbuf: ReadBuf,
    wbuf: Vec<u8>,
    wpos: usize,
}

/// A connection's read buffer: bytes from the socket, of which the
/// first `pos` were extracted. Kept apart from the rest of the
/// connection so that a request borrowed from it can be served while
/// the connection changes: the event loop moves it out of the
/// connection for an extraction pass and back after.
#[derive(Default)]
pub(super) struct ReadBuf {
    bytes: Vec<u8>,
    pos: usize,
}

impl<'t> Conn<'t> {
    pub(super) fn new(stream: TcpStream, id: u64, authed: bool) -> Conn<'t> {
        let now = Instant::now();
        Conn {
            stream,
            id,
            authed,
            read_open: true,
            eof: false,
            last_dialect: Dialect::Text,
            close_after_flush: false,
            dead: false,
            last_rx: now,
            write_stalled_since: None,
            drain_deadline: None,
            bytes: 0,
            ops: 0,
            pending: None,
            dirty: true,
            interest: 0,
            slots: VecDeque::new(),
            seq_base: 0,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
        }
    }

    /// Absorb readable socket bytes into the read buffer (bounded burst;
    /// level-triggered poll re-reports any leftover).
    ///
    /// EOF sets [`Conn::eof`] rather than discarding anything: bytes
    /// buffered by earlier reads of the same burst (a pipeline that is
    /// an exact multiple of the chunk size, followed by FIN) are still
    /// there for extraction.
    pub(super) fn fill_read_buffer(&mut self) -> ReadOutcome {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..READ_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return ReadOutcome::Eof;
                }
                Ok(n) => {
                    self.rbuf.bytes.extend_from_slice(&chunk[..n]);
                    self.last_rx = Instant::now();
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Dead,
            }
        }
        ReadOutcome::Progress
    }

    /// Append a slot; returns the sequence number completions use to
    /// address it.
    pub(super) fn push_slot(&mut self, slot: Slot) -> u64 {
        let seq = self.seq_base + self.slots.len() as u64;
        self.slots.push_back(slot);
        seq
    }

    /// The dialect slot `seq` recorded, while it still waits: the
    /// caller encodes the reply in it, then calls [`Conn::fill_slot`].
    pub(super) fn waiting_dialect(&self, seq: u64) -> Option<Dialect> {
        let idx = usize::try_from(seq.checked_sub(self.seq_base)?).ok()?;
        match self.slots.get(idx) {
            Some(Slot::Waiting { dialect }) => Some(*dialect),
            _ => None,
        }
    }

    /// Fill the waiting slot `seq` (whose dialect
    /// [`Conn::waiting_dialect`] returned) with its outcome.
    pub(super) fn fill_slot(&mut self, seq: u64, dialect: Dialect, outcome: Outcome) {
        let idx = (seq - self.seq_base) as usize;
        debug_assert!(matches!(self.slots[idx], Slot::Waiting { .. }));
        self.slots[idx] = Slot::Ready { dialect, outcome };
    }

    /// Move the ready prefix of the slot queue into the write buffer:
    /// `encode` writes a decided outcome in its dialect, `resolve`
    /// answers a deferred read in its dialect at its flush moment. Both
    /// append to the write buffer they are given and own the framing.
    pub(super) fn flush_slots(
        &mut self,
        encode: impl Fn(&mut Vec<u8>, Dialect, Outcome),
        resolve: impl Fn(&mut Vec<u8>, Dialect, Deferred),
    ) {
        while let Some(front) = self.slots.front() {
            if let Slot::Waiting { .. } = front {
                break;
            }
            match self.slots.pop_front() {
                Some(Slot::Ready { dialect, outcome }) => encode(&mut self.wbuf, dialect, outcome),
                Some(Slot::Deferred { dialect, read }) => resolve(&mut self.wbuf, dialect, read),
                _ => unreachable!("the front slot is resolved"),
            }
            self.seq_base += 1;
        }
    }

    /// Unsent reply bytes.
    pub(super) fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Nonblocking write of buffered replies; tracks write-stall time
    /// and marks the connection dead on socket error.
    pub(super) fn try_write(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.write_stalled_since = None;
                    self.last_rx = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            self.write_stalled_since = None;
        } else if self.write_stalled_since.is_none() {
            self.write_stalled_since = Some(Instant::now());
        }
    }

    /// Whether the event loop should poll this socket for readability:
    /// suppressed while a pending post awaits lane space, while the
    /// reply pipeline is at depth, and while the write buffer is above
    /// its high-water mark — composed backpressure as poll-interest
    /// suppression — and permanently once the peer half-closed (a
    /// FIN'd socket stays level-triggered readable forever).
    pub(super) fn wants_read(&self, pipeline: usize) -> bool {
        !self.eof && self.may_extract(pipeline)
    }

    /// Whether buffered replies await a writable socket.
    pub(super) fn wants_write(&self) -> bool {
        self.unsent() > 0
    }

    /// Whether request extraction may proceed: the same backpressure
    /// gates as [`Conn::wants_read`], except that EOF does **not**
    /// close the gate — requests fully buffered before the peer's FIN
    /// still extract and get their replies.
    pub(super) fn may_extract(&self, pipeline: usize) -> bool {
        self.read_open
            && self.pending.is_none()
            && self.slots.len() < pipeline
            && self.unsent() < WRITE_HIGH
    }

    /// Answer-and-close: append a final reply (when given), stop
    /// extracting, and close once everything in flight has flushed.
    pub(super) fn teardown(&mut self, reply: Option<Slot>) {
        if let Some(slot) = reply {
            self.push_slot(slot);
        }
        self.read_open = false;
        self.close_after_flush = true;
    }

    /// Enter graceful drain: no more requests, answer what is in
    /// flight, force-close at `deadline` if the peer will not read.
    pub(super) fn begin_drain(&mut self, deadline: Instant) {
        self.read_open = false;
        self.close_after_flush = true;
        self.drain_deadline = Some(deadline);
    }

    /// Whether everything in flight has been answered and flushed, so a
    /// close-marked connection can actually close.
    pub(super) fn finished(&self) -> bool {
        self.close_after_flush
            && self.pending.is_none()
            && self.slots.is_empty()
            && self.unsent() == 0
    }
}

impl ReadBuf {
    /// Pull the next complete request off the read buffer. The dialect
    /// is decided per request by its first byte: [`frame::MAGIC`] (a
    /// UTF-8 continuation byte no text line can start with) selects the
    /// binary dialect, anything else the text dialect.
    pub(super) fn extract(&mut self) -> Extracted<'_> {
        let buf = &self.bytes[self.pos..];
        let Some(&first) = buf.first() else { return Extracted::None };
        if first == frame::MAGIC {
            return match frame::scan(buf) {
                frame::Scan::Incomplete => Extracted::None,
                frame::Scan::Oversized(len) => Extracted::FrameOversized(len),
                frame::Scan::Frame { kind, payload_len } => {
                    let wire = frame::HEADER_LEN + payload_len;
                    self.pos += wire;
                    Extracted::Some(
                        Request::Frame(kind, &buf[frame::HEADER_LEN..wire]),
                        wire as u64,
                    )
                }
            };
        }
        // Text: one newline-terminated line, capped *during*
        // accumulation — a cap's worth of bytes without a newline is
        // refused now, not after the line completes.
        let horizon = buf.len().min(MAX_LINE as usize);
        match buf[..horizon].iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let Ok(text) = std::str::from_utf8(&buf[..nl]) else {
                    return Extracted::BadUtf8;
                };
                self.pos += nl + 1;
                Extracted::Some(
                    Request::Line(text.strip_suffix('\r').unwrap_or(text)),
                    nl as u64 + 1,
                )
            }
            None if buf.len() >= MAX_LINE as usize => Extracted::LineTooLong,
            None => Extracted::None,
        }
    }

    /// Reclaim consumed read-buffer bytes (called once per event-loop
    /// iteration, not per request, to keep extraction O(request)).
    pub(super) fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        if self.pos == self.bytes.len() {
            self.bytes.clear();
        } else {
            self.bytes.drain(..self.pos);
        }
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn test_conn() -> (Conn<'static>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream, 0, true), peer)
    }

    /// Feed bytes directly into the read buffer (unit tests bypass the
    /// socket).
    fn feed(conn: &mut Conn<'_>, bytes: &[u8]) {
        conn.rbuf.bytes.extend_from_slice(bytes);
    }

    #[test]
    fn lines_and_frames_extract_across_arbitrary_split_boundaries() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"invoke Mk(1)\r\n");
        frame::encode_invoke_frame(&mut wire, "Mk", &[migratory_model::Value::int(2)]);
        wire.extend_from_slice(b"stats\n");
        for cut in 0..=wire.len() {
            let (mut conn, _peer) = test_conn();
            feed(&mut conn, &wire[..cut]);
            let mut got = Vec::new();
            loop {
                match conn.rbuf.extract() {
                    Extracted::Some(Request::Line(l), _) => got.push(format!("line:{l}")),
                    Extracted::Some(Request::Frame(k, p), _) => {
                        got.push(format!("frame:{k}:{}", p.len()));
                    }
                    Extracted::None => break,
                    _ => panic!("clean wire bytes never error"),
                }
            }
            feed(&mut conn, &wire[cut..]);
            loop {
                match conn.rbuf.extract() {
                    Extracted::Some(Request::Line(l), _) => got.push(format!("line:{l}")),
                    Extracted::Some(Request::Frame(k, p), _) => {
                        got.push(format!("frame:{k}:{}", p.len()));
                    }
                    Extracted::None => break,
                    _ => panic!("clean wire bytes never error"),
                }
            }
            conn.rbuf.compact();
            assert_eq!(got.len(), 3, "split at {cut}: {got:?}");
            assert_eq!(got[0], "line:invoke Mk(1)");
            assert!(got[1].starts_with(&format!("frame:{}:", frame::REQ_INVOKE)));
            assert_eq!(got[2], "line:stats");
        }
    }

    #[test]
    fn overlong_line_is_refused_during_accumulation() {
        let (mut conn, _peer) = test_conn();
        // Exactly the cap, no newline yet: refused immediately — the
        // peer could stream forever otherwise.
        feed(&mut conn, &vec![b'x'; MAX_LINE as usize]);
        assert!(matches!(conn.rbuf.extract(), Extracted::LineTooLong));
        // One byte under the cap is still awaiting its newline…
        let (mut conn, _peer) = test_conn();
        feed(&mut conn, &vec![b'x'; MAX_LINE as usize - 1]);
        assert!(matches!(conn.rbuf.extract(), Extracted::None));
        // …and the newline completes it: a line of cap-1 bytes + `\n`
        // totals MAX_LINE wire bytes, the longest accepted request.
        feed(&mut conn, b"\n");
        match conn.rbuf.extract() {
            Extracted::Some(Request::Line(l), wire) => {
                assert_eq!(wire, MAX_LINE);
                assert_eq!(l.len(), MAX_LINE as usize - 1);
            }
            _ => panic!("a cap-sized line is accepted"),
        }
    }

    #[test]
    fn oversized_frame_header_refused_before_payload_arrives() {
        let (mut conn, _peer) = test_conn();
        let mut header = vec![frame::MAGIC, frame::REQ_INVOKE];
        header.extend_from_slice(&(frame::MAX_PAYLOAD + 1).to_le_bytes());
        feed(&mut conn, &header);
        // Six header bytes and not one payload byte: already refused.
        assert!(matches!(conn.rbuf.extract(), Extracted::FrameOversized(_)));
    }

    #[test]
    fn non_utf8_line_reports_bad_utf8() {
        let (mut conn, _peer) = test_conn();
        feed(&mut conn, &[0xc3, 0x28, 0xff, 0xfe, b'\n']);
        assert!(matches!(conn.rbuf.extract(), Extracted::BadUtf8));
    }

    #[test]
    fn eof_preserves_buffered_requests_for_extraction() {
        use std::io::Write as _;
        let (mut conn, peer) = test_conn();
        // A pipeline that is an exact multiple of READ_CHUNK — one
        // 16 KiB comment line — followed by a ping and an immediate
        // half-close: the FIN can land in the same read burst as the
        // final bytes.
        let mut wire = vec![b'#'; 16 * 1024 - 1];
        *wire.last_mut().unwrap() = b'\n';
        wire.extend_from_slice(b"ping\n");
        (&peer).write_all(&wire).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        while !conn.eof {
            assert!(!matches!(conn.fill_read_buffer(), ReadOutcome::Dead));
        }
        // EOF closes the socket's read interest, not the extraction
        // gate: everything buffered before the FIN still comes out.
        assert!(conn.may_extract(8));
        assert!(!conn.wants_read(8));
        let mut lines = Vec::new();
        while let Extracted::Some(Request::Line(l), _) = conn.rbuf.extract() {
            lines.push(l.to_owned());
        }
        assert_eq!(lines.len(), 2, "both pre-FIN requests extract");
        assert_eq!(lines[1], "ping");
        assert!(matches!(conn.rbuf.extract(), Extracted::None));
    }

    #[test]
    fn reply_slots_flush_in_request_order_only() {
        let (mut conn, _peer) = test_conn();
        let s0 = conn.push_slot(Slot::Waiting { dialect: Dialect::Text });
        let s1 = conn.push_slot(Slot::Waiting { dialect: Dialect::Binary });
        let stats = Deferred::Stats { prom: false };
        conn.push_slot(Slot::Deferred { dialect: Dialect::Text, read: stats });
        // Out-of-order completion: slot 1 resolves first, but nothing
        // flushes past the still-waiting slot 0. Each outcome is written
        // in the dialect its slot recorded.
        let encode = |out: &mut Vec<u8>, dialect, outcome| {
            let Outcome::Ok(text) = outcome else { unreachable!("only oks here") };
            out.extend_from_slice(format!("{dialect:?}:{text}|").as_bytes());
        };
        assert_eq!(conn.waiting_dialect(s1), Some(Dialect::Binary));
        conn.fill_slot(s1, Dialect::Binary, Outcome::Ok("second".to_owned()));
        conn.flush_slots(encode, |_, _, _| unreachable!("stats cannot flush yet"));
        assert_eq!(conn.unsent(), 0);
        conn.fill_slot(s0, Dialect::Text, Outcome::Ok("first".to_owned()));
        conn.flush_slots(encode, |out, _, read| {
            let Deferred::Stats { prom } = read else { unreachable!() };
            assert!(!prom);
            out.extend_from_slice(b"ok stats\n");
        });
        assert_eq!(conn.wbuf, b"Text:first|Binary:second|ok stats\n");
        assert_eq!(conn.seq_base, 3);
        assert!(conn.slots.is_empty());
    }
}
