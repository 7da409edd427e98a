//! A TCP client driver for the `migctl serve` text wire protocol
//! (`core::enforce::net`, `docs/PROTOCOL.md`), used by `experiments
//! tail-smoke`, the CI tail-latency gate.
//!
//! [`drive_tcp_mux`] runs one thread multiplexing every connection over
//! epoll with nonblocking sockets, mirroring the server's own event
//! core: each connection pipelines its pre-encoded `invoke` lines
//! ([`mux_text_scripts`]) and tallies its reply lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Reply tallies of one [`drive_tcp_mux`] run, summed over connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpDriveStats {
    /// Replies whose first token was `ok`.
    pub ok: usize,
    /// Replies whose first token was `violation`.
    pub violation: usize,
    /// Replies whose first token was `error` (or anything else).
    pub error: usize,
}

/// One pre-encoded request stream for [`drive_tcp_mux`]: the raw bytes
/// to pipeline down one connection and the reply lines they are owed.
pub struct MuxScript {
    /// The full request stream, ready for the wire.
    pub bytes: Vec<u8>,
    /// Replies owed (one per request line in `bytes`).
    pub expected: usize,
}

/// Split `ops` round-robin into `connections` [`MuxScript`]s of
/// `invoke Name(args…)` lines.
#[must_use]
pub fn mux_text_scripts(
    ops: &[(&'static str, migratory_lang::Assignment)],
    connections: usize,
) -> Vec<MuxScript> {
    let connections = connections.max(1);
    (0..connections)
        .map(|c| {
            let mut script = MuxScript { bytes: Vec::new(), expected: 0 };
            for (name, args) in ops.iter().skip(c).step_by(connections) {
                let rendered: Vec<String> = args
                    .values()
                    .map(|v| match v {
                        migratory_model::Value::Int(i) => i.to_string(),
                        other => format!("\"{other}\""),
                    })
                    .collect();
                script.bytes.extend_from_slice(
                    format!("invoke {name}({})\n", rendered.join(", ")).as_bytes(),
                );
                script.expected += 1;
            }
            script
        })
        .collect()
}

/// Tally one connection's buffered reply lines, consuming every
/// complete line off the front of `buf`; returns how many.
fn drain_replies(buf: &mut Vec<u8>, stats: &mut TcpDriveStats) -> usize {
    let mut consumed = 0usize;
    let mut got = 0usize;
    while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]);
        match line.split_whitespace().next() {
            Some("ok") => stats.ok += 1,
            Some("violation") => stats.violation += 1,
            _ => stats.error += 1,
        }
        consumed += nl + 1;
        got += 1;
    }
    buf.drain(..consumed);
    got
}

/// Drive every script over its own connection from a single thread:
/// nonblocking sockets multiplexed with epoll, requests written as the
/// socket drains, replies tallied as they arrive.
///
/// Each socket is registered once and its interest narrowed as it
/// progresses (write side dropped when the script is fully sent,
/// deregistered when the last reply lands), so a wakeup costs
/// O(ready connections).
///
/// # Errors
/// Fails on connect/write/read errors, or a connection closing before
/// its reply count is met.
pub fn drive_tcp_mux(
    addr: impl ToSocketAddrs,
    scripts: &[MuxScript],
) -> std::io::Result<TcpDriveStats> {
    use polling::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
    use std::os::fd::AsRawFd;

    struct ConnState {
        stream: TcpStream,
        wpos: usize,
        inbuf: Vec<u8>,
        got: usize,
        /// Currently registered epoll interest; 0 = finished and
        /// deregistered.
        interest: u32,
    }
    let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed early");
    let want_of = |c: &ConnState, s: &MuxScript| {
        let mut want = 0;
        if c.wpos < s.bytes.len() {
            want |= EPOLLOUT;
        }
        if c.got < s.expected {
            want |= EPOLLIN;
        }
        want
    };

    // Connect every socket up front so slow accept ramps are not billed
    // to the first measured request.
    let addr = addr.to_socket_addrs()?.next().ok_or_else(eof)?;
    let mut conns = Vec::with_capacity(scripts.len());
    for _ in scripts {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(ConnState { stream, wpos: 0, inbuf: Vec::new(), got: 0, interest: 0 });
    }

    let ep = Epoll::new()?;
    let mut remaining = 0usize;
    for (i, (c, s)) in conns.iter_mut().zip(scripts).enumerate() {
        let want = want_of(c, s);
        if want == 0 {
            continue; // empty script owed no replies
        }
        ep.add(c.stream.as_raw_fd(), want, i as u64)?;
        c.interest = want;
        remaining += 1;
    }

    let mut stats = TcpDriveStats::default();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    while remaining > 0 {
        let n = ep.wait(&mut events, -1)?;
        for &e in &events[..n] {
            let i = e.token() as usize;
            let c = &mut conns[i];
            let s = &scripts[i];
            if c.interest == 0 {
                continue;
            }
            if e.ready(EPOLLOUT) && c.wpos < s.bytes.len() {
                loop {
                    match (&c.stream).write(&s.bytes[c.wpos..]) {
                        Ok(0) => return Err(eof()),
                        Ok(n) => {
                            c.wpos += n;
                            if c.wpos == s.bytes.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            if e.ready(EPOLLIN) || e.failed() {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&c.stream).read(&mut chunk) {
                        Ok(0) => {
                            if c.got < s.expected {
                                return Err(eof());
                            }
                            break;
                        }
                        Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                c.got += drain_replies(&mut c.inbuf, &mut stats);
                if c.got > s.expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "more replies than requests on one connection",
                    ));
                }
            }
            // Narrow the registration as the connection progresses;
            // a connection owed nothing more leaves the set entirely.
            let want = want_of(c, s);
            if want == 0 {
                ep.delete(c.stream.as_raw_fd())?;
                c.interest = 0;
                remaining -= 1;
            } else if want != c.interest {
                ep.modify(c.stream.as_raw_fd(), want, i as u64)?;
                c.interest = want;
            }
        }
    }
    Ok(stats)
}

/// Ask a serving endpoint to drain and exit (the `shutdown` verb);
/// returns the server's reply line.
///
/// # Errors
/// Fails on connect/write/read errors.
pub fn shutdown_server(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let conn = TcpStream::connect(addr)?;
    let mut writer = conn.try_clone()?;
    writer.write_all(b"shutdown\n")?;
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply)?;
    Ok(reply.trim().to_owned())
}
