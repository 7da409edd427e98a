//! The client side of the wire: one blocking connection per thread, a
//! closed loop that keeps a fixed window of requests in flight, and the
//! check of every reply against the script's expectation.

use crate::gen::{Expect, Op, REDEFINE_POLICY};
use migratory_core::enforce::net::frame;
use migratory_model::Value;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply, by first token (text) or kind byte (binary), with the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Ok(String),
    Violation(String),
    Error(String),
}

/// Whether `reply` is exactly what `expect` asks for.
pub fn check(expect: &Expect, reply: &Reply) -> bool {
    match (expect, reply) {
        (Expect::Ok, Reply::Ok(d)) => d.is_empty(),
        (Expect::Violation { epoch }, Reply::Violation(d)) => {
            d.ends_with(&format!("[epoch {epoch}]"))
        }
        (Expect::Redefined { epoch, residue }, Reply::Ok(d)) => {
            *d == format!("epoch={epoch} residue={residue}")
        }
        (Expect::Count(n), Reply::Ok(d)) => {
            let Some(rest) = d.strip_prefix("query count=") else { return false };
            let Some((count, oids)) = rest.split_once(" oids=") else { return false };
            let shown = if oids.is_empty() { 0 } else { oids.split(',').count() };
            count.parse() == Ok(*n) && shown == (*n).min(32)
        }
        _ => false,
    }
}

/// Request classes, each with its own latency record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Invoke = 0,
    Query = 1,
    Redefine = 2,
}

/// One answered request: when its reply arrived and how long it took.
#[derive(Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub ns: u64,
}

/// What one connection sent and got back.
#[derive(Default)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    /// Requests that never got a reply.
    pub unanswered: u64,
    /// Wrong replies plus unanswered requests.
    pub failed: u64,
    /// Send-to-reply latencies of correctly answered requests, per
    /// [`Class`].
    pub lat: [Vec<Sample>; 3],
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Every request was answered or counted unanswered: nothing was
    /// lost and nothing counted twice.
    pub fn balanced(&self) -> bool {
        self.sent == self.answered + self.unanswered
    }

    pub fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.unanswered += other.unanswered;
        self.failed += other.failed;
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

struct Pending {
    at: Instant,
    class: Class,
    expect: Expect,
}

/// Resolve the oldest pending request with `reply` (or with its absence).
fn resolve(pending: &mut VecDeque<Pending>, reply: Option<&Reply>, now: Instant, t: &mut Tally) {
    let p = pending.pop_front().expect("a reply answers a pending request");
    match reply {
        None => {
            t.unanswered += 1;
            t.fail(format!("no reply to a {:?} request expecting {:?}", p.class, p.expect));
        }
        Some(r) => {
            t.answered += 1;
            if check(&p.expect, r) {
                t.lat[p.class as usize]
                    .push(Sample { at: now, ns: (now - p.at).as_nanos() as u64 });
            } else {
                t.fail(format!("expected {:?}, got {r:?}", p.expect));
            }
        }
    }
}

/// Couples two closed loops on different threads: one publishes how
/// many of its requests have been answered in the current phase; the
/// other sends its `n`-th request of the phase only while `n < per ×`
/// that count. The mix of the two streams is then fixed by the script,
/// not by how the host schedules them.
#[derive(Clone, Copy, Default)]
pub struct Pace<'a> {
    pub publish: Option<&'a AtomicU64>,
    pub follow: Option<(&'a AtomicU64, u64)>,
}

/// When a closed loop stops sending: once `n` requests have gone out
/// in total on its tally (or the stream ran dry).
#[derive(Clone, Copy)]
pub struct Until(pub u64);

pub struct Conn {
    s: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { s, buf: Vec::with_capacity(1 << 16), start: 0 })
    }

    /// Append `op` to `out` in the chosen dialect. A scripted violation
    /// always goes out as text: its reply quotes the object's whole
    /// pattern, ∅ prefix included, which outgrows the 64 KiB binary
    /// frame cap once the shard has read about 16k letters, and
    /// `migctl serve` panics encoding such a frame.
    pub fn encode(op: &Op, binary: bool, out: &mut Vec<u8>) {
        use migratory_core::enforce::ResiduePolicy;
        let violation = matches!(op, Op::Invoke { expect: Expect::Violation { .. }, .. });
        match (op, binary && !violation) {
            (Op::Invoke { name, key, .. }, true) => {
                frame::encode_invoke_frame(out, name, &[Value::str(key)]);
            }
            (Op::Invoke { name, key, .. }, false) => {
                out.extend_from_slice(format!("invoke {name}({key})\n").as_bytes());
            }
            (Op::Redefine { src, .. }, true) => {
                let policy = ResiduePolicy::parse(REDEFINE_POLICY).expect("known policy");
                frame::encode_redefine_frame(out, policy, src);
            }
            (Op::Redefine { src, .. }, false) => {
                out.extend_from_slice(format!("redefine {REDEFINE_POLICY} {src}\n").as_bytes());
            }
            (Op::Query { body, .. }, true) => frame::encode_query_frame(out, body),
            (Op::Query { body, .. }, false) => {
                out.extend_from_slice(format!("query {body}\n").as_bytes());
            }
        }
    }

    /// Parse one complete reply at the front of the buffer.
    fn take_reply(&mut self) -> Option<Reply> {
        let b = &self.buf[self.start..];
        if b.first() == Some(&frame::MAGIC) {
            let frame::Scan::Frame { kind, payload_len } = frame::scan(b) else { return None };
            let payload =
                String::from_utf8_lossy(&b[frame::HEADER_LEN..frame::HEADER_LEN + payload_len])
                    .into_owned();
            self.start += frame::HEADER_LEN + payload_len;
            return Some(match kind {
                frame::REP_OK => Reply::Ok(payload),
                frame::REP_VIOLATION => Reply::Violation(payload),
                _ => Reply::Error(payload),
            });
        }
        let nl = b.iter().position(|&c| c == b'\n')?;
        let line = String::from_utf8_lossy(&b[..nl]).trim_end_matches('\r').to_owned();
        self.start += nl + 1;
        let (tok, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        Some(match tok {
            "ok" => Reply::Ok(rest.to_owned()),
            "violation" => Reply::Violation(rest.to_owned()),
            _ => Reply::Error(rest.to_owned()),
        })
    }

    /// Block until at least one more reply is complete.
    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let n = self.s.read(&mut self.buf[len..]);
        self.buf.truncate(len + *n.as_ref().unwrap_or(&0));
        match n {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn next_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(r) = self.take_reply() {
                return Ok(r);
            }
            self.fill()?;
        }
    }

    /// One synchronous text request on a quiet connection.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.s.write_all(format!("{line}\n").as_bytes())?;
        self.next_reply()
    }

    /// `stats prom`: the length-prefixed exposition payload.
    pub fn prom(&mut self) -> io::Result<String> {
        self.s.write_all(b"stats prom\n")?;
        let Reply::Ok(head) = self.next_reply()? else {
            return Err(io::Error::other("stats prom refused"));
        };
        let len: usize = head
            .strip_prefix("prom ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad prom header `{head}`")))?;
        while self.buf.len() - self.start < len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[self.start..self.start + len]).into_owned();
        self.start += len;
        Ok(body)
    }

    /// Drive a closed loop: keep `window` requests in flight, send the
    /// next op as each reply arrives, check every reply, and pace against
    /// another loop as `pace` says. A `redefine` is a barrier: it goes
    /// out alone once the window has drained, and nothing follows it
    /// until it is answered. Returns once sending has stopped and every
    /// request is resolved.
    pub fn closed_loop(
        &mut self,
        next: &mut dyn FnMut() -> Option<Op>,
        binary: bool,
        window: usize,
        until: Until,
        t: &mut Tally,
        pace: Pace<'_>,
    ) {
        let mut pending: VecDeque<Pending> = VecDeque::with_capacity(window + 1);
        let mut held: Option<Op> = None;
        let mut out = Vec::with_capacity(window * 32);
        let mut stopping = false;
        let mut replies = 0usize;
        loop {
            let barrier = pending.front().is_some_and(|p| p.class == Class::Redefine);
            let now = Instant::now();
            let mut paced = false;
            while !stopping && !barrier && pending.len() < window {
                let stop = t.sent >= until.0;
                if let Some((c, per)) = pace.follow {
                    if !stop && t.sent >= per * c.load(Ordering::SeqCst) {
                        paced = true;
                        break;
                    }
                }
                let Some(op) = (if stop { None } else { held.take().or_else(&mut *next) }) else {
                    stopping = true;
                    break;
                };
                let (class, expect) = match &op {
                    Op::Invoke { expect, .. } => (Class::Invoke, expect.clone()),
                    Op::Query { expect, .. } => (Class::Query, expect.clone()),
                    Op::Redefine { expect, .. } => (Class::Redefine, expect.clone()),
                };
                if class == Class::Redefine && !pending.is_empty() {
                    held = Some(op);
                    break;
                }
                Conn::encode(&op, binary, &mut out);
                pending.push_back(Pending { at: now, class, expect });
                t.sent += 1;
                if class == Class::Redefine {
                    break;
                }
            }
            if !out.is_empty() {
                if let Err(e) = self.s.write_all(&out) {
                    t.note(format!("write failed: {e}"));
                    stopping = true;
                }
                out.clear();
            }
            if pending.is_empty() {
                if stopping {
                    return;
                }
                if paced {
                    std::thread::sleep(Duration::from_micros(50));
                }
                continue;
            }
            match self.fill() {
                Ok(()) => {
                    let now = Instant::now();
                    while let Some(r) = self.take_reply() {
                        if pending.is_empty() {
                            t.answered += 1;
                            t.sent += 1;
                            t.fail(format!("unsolicited reply {r:?}"));
                            continue;
                        }
                        resolve(&mut pending, Some(&r), now, t);
                        replies += 1;
                        if let Some(c) = pace.publish {
                            c.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                Err(e) => {
                    let now = Instant::now();
                    t.note(format!("reading replies after {replies}: {e}"));
                    while !pending.is_empty() {
                        resolve(&mut pending, None, now, t);
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    fn ok() -> Reply {
        Reply::Ok(String::new())
    }

    #[test]
    fn a_wrong_verdict_fails() {
        assert!(check(&Expect::Ok, &ok()));
        assert!(!check(&Expect::Ok, &Reply::Violation("x [epoch 0]".into())));
        assert!(check(&Expect::Violation { epoch: 3 }, &Reply::Violation("o1 … [epoch 3]".into())));
        assert!(!check(&Expect::Violation { epoch: 3 }, &Reply::Violation("o1 [epoch 2]".into())));
        assert!(!check(&Expect::Violation { epoch: 3 }, &ok()));
        assert!(!check(&Expect::Ok, &Reply::Error("degraded".into())));
    }

    #[test]
    fn a_wrong_query_count_fails() {
        let one = Reply::Ok("query count=1 oids=o7".into());
        assert!(check(&Expect::Count(1), &one));
        assert!(!check(&Expect::Count(2), &one));
        assert!(!check(&Expect::Count(0), &one));
        assert!(check(&Expect::Count(0), &Reply::Ok("query count=0 oids=".into())));
        assert!(!check(&Expect::Count(1), &Reply::Ok("query count=1 oids=".into())));
    }

    /// A fake server that answers `ok` to every line except the ones
    /// `answer` maps to something else (or to nothing: a dropped reply).
    fn fake(answer: impl Fn(usize) -> Option<&'static str> + Send + 'static) -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            for (i, line) in io::BufReader::new(s).lines().enumerate() {
                if line.is_err() {
                    break;
                }
                if let Some(r) = answer(i) {
                    w.write_all(r.as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    fn drive(addr: &str, n: usize) -> Tally {
        let mut c = Conn::connect(addr).unwrap();
        c.s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let mut ops = (0..n).map(|i| Op::Invoke {
            name: "Dispatch",
            key: format!("t{i}"),
            expect: Expect::Ok,
        });
        let mut t = Tally::default();
        c.closed_loop(&mut || ops.next(), false, 4, Until(n as u64), &mut t, Pace::default());
        t
    }

    #[test]
    fn every_request_answered_passes() {
        let t = drive(&fake(|_| Some("ok\n")), 20);
        assert_eq!((t.sent, t.answered, t.failed), (20, 20, 0));
        assert!(t.balanced());
    }

    #[test]
    fn a_dropped_reply_fails_the_run() {
        let t = drive(&fake(|i| (i != 13).then_some("ok\n")), 20);
        assert!(t.failed > 0, "a missing reply must count as failed");
        assert!(t.balanced());
    }

    #[test]
    fn a_wrong_verdict_over_the_wire_fails_the_run() {
        let t =
            drive(&fake(|i| Some(if i == 5 { "violation o1 [epoch 0]\n" } else { "ok\n" })), 20);
        assert_eq!((t.sent, t.answered, t.failed), (20, 20, 1));
    }
}
