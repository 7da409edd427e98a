//! Length-prefixed binary framing — the wire protocol's hot-path
//! dialect (see `docs/PROTOCOL.md` § Binary framing, the normative
//! specification kept in lockstep with these constants by a conformance
//! test).
//!
//! A frame is a 6-byte header followed by `len` payload bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     MAGIC (0xB5)
//! 1       1     kind
//! 2       4     len — payload length, u32 little-endian
//! 6       len   payload
//! ```
//!
//! [`MAGIC`] is a UTF-8 *continuation* byte: no valid UTF-8 text line
//! can begin with it, so the server decides the dialect per request
//! from the first byte alone — text and binary frames interleave freely
//! on one connection, and each request is answered in its own dialect.
//!
//! Request payloads are [`migratory_lang::codec`] encodings
//! ([`encode_invoke_frame`]); reply payloads are UTF-8 diagnostics
//! (empty for [`REP_OK`]), carrying the same text a `violation …` /
//! `error …` line would after its first token. The payload length is
//! bounded by [`MAX_PAYLOAD`] — the same 64 KiB request cap as the text
//! dialect — and an oversized length prefix is refused as soon as the
//! header parses, before any payload accumulates. The server's replies
//! fit the cap by construction: it elides the middle of a longer text.

use migratory_model::Value;
use std::io::Read;

/// First byte of every frame. A UTF-8 continuation byte, so it can
/// never start a valid text request — dialect dispatch needs one byte.
pub const MAGIC: u8 = 0xB5;

/// Request frame: one transaction invocation; payload is
/// [`migratory_lang::codec::encode_invoke`] bytes.
pub const REQ_INVOKE: u8 = 0x01;

/// Request frame: redefine the constraint inventory online. Payload is
/// one residue-policy byte
/// ([`ResiduePolicy::as_byte`](crate::enforce::ResiduePolicy::as_byte))
/// followed by the new inventory in migratory-lang source form (UTF-8,
/// the rest of the payload). Answered [`REP_OK`] with payload
/// `epoch=<N> residue=<K>`, or [`REP_ERROR`] with the refusal.
pub const REQ_REDEFINE: u8 = 0x02;

/// Request frame: indexed query against the current database image.
/// Payload is the UTF-8 query text `Class` or `Class(Attr=value,...)` —
/// the text dialect's `query` verb body. Answered [`REP_OK`] with
/// payload `query count=<N> oids=<o1,o2,...>` (first 32 oids), or
/// [`REP_ERROR`] with the refusal. Served by replicas.
pub const REQ_QUERY: u8 = 0x03;

/// Reply frame: the invocation was admitted (durably, when a sink is
/// attached). Empty payload.
pub const REP_OK: u8 = 0x81;

/// Reply frame: the invocation was rejected; payload is the UTF-8
/// violation diagnostic (the text dialect's `violation ` line body).
pub const REP_VIOLATION: u8 = 0x82;

/// Reply frame: the request failed; payload is the UTF-8 error message
/// (the text dialect's `error ` line body).
pub const REP_ERROR: u8 = 0x83;

/// Header bytes before the payload: magic, kind, u32-LE length.
pub const HEADER_LEN: usize = 6;

/// Longest accepted frame payload — the binary dialect's request cap,
/// equal to the text dialect's [`MAX_LINE`](super::MAX_LINE).
pub const MAX_PAYLOAD: u32 = super::MAX_LINE as u32;

/// Result of [`scan`]ning a buffer that starts with [`MAGIC`].
#[derive(Debug, PartialEq, Eq)]
pub enum Scan {
    /// The buffer holds a frame prefix; more bytes are needed.
    Incomplete,
    /// The header declares a payload beyond [`MAX_PAYLOAD`]: refuse and
    /// tear the connection down *now*, without buffering the payload.
    Oversized(u32),
    /// A complete frame: `kind`, and `payload_len` bytes starting at
    /// [`HEADER_LEN`]. The frame occupies `HEADER_LEN + payload_len`
    /// buffer bytes.
    Frame {
        /// The frame's kind byte.
        kind: u8,
        /// Length of the payload following the header.
        payload_len: usize,
    },
}

/// Incrementally scan `buf` (which must start at a frame boundary with
/// [`MAGIC`]) for one complete frame. Total: any byte soup yields
/// [`Scan::Incomplete`], [`Scan::Oversized`] or a bounded frame.
#[must_use]
pub fn scan(buf: &[u8]) -> Scan {
    debug_assert_eq!(buf.first(), Some(&MAGIC), "scan starts at a frame boundary");
    if buf.len() < HEADER_LEN {
        return Scan::Incomplete;
    }
    let kind = buf[1];
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    if len > MAX_PAYLOAD {
        return Scan::Oversized(len);
    }
    let payload_len = len as usize;
    if buf.len() < HEADER_LEN + payload_len {
        return Scan::Incomplete;
    }
    Scan::Frame { kind, payload_len }
}

/// Append one frame (header + payload) to `out`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — request encoders must
/// respect the request cap, and the server's replies are shortened to
/// fit before they get here.
pub fn encode(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload fits a u32");
    assert!(len <= MAX_PAYLOAD, "frame payload exceeds the request cap");
    out.push(MAGIC);
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append one reply frame carrying `text`, shortened to fit
/// [`MAX_PAYLOAD`]. Reply texts have no bound of their own: a violation
/// diagnostic quotes the object's whole pattern, which grows with its
/// shard's letter clock, and an error may echo the request. An
/// over-cap text keeps its head and its tail, cut at char boundaries,
/// with ` … ` in place of the middle — so a violation keeps its
/// `(offending role set …) [epoch E]` ending, and the cut falls inside
/// the pattern.
pub(crate) fn encode_reply(out: &mut Vec<u8>, kind: u8, text: &str) {
    const MARK: &str = " … ";
    let max = MAX_PAYLOAD as usize;
    if text.len() <= max {
        return encode(out, kind, text.as_bytes());
    }
    let keep = (max - MARK.len()) / 2;
    let head = &text[..text.floor_char_boundary(keep)];
    let tail = &text[text.ceil_char_boundary(text.len() - keep)..];
    encode(out, kind, [head, MARK, tail].concat().as_bytes());
}

/// Append one [`REQ_INVOKE`] frame for `name(args…)` to `out` — the
/// client-side encoder used by `migctl client --binary` and the bench
/// driver.
pub fn encode_invoke_frame(out: &mut Vec<u8>, name: &str, args: &[Value]) {
    let mut payload = Vec::new();
    migratory_lang::codec::encode_invoke(&mut payload, name, args);
    encode(out, REQ_INVOKE, &payload);
}

/// Append one [`REQ_REDEFINE`] frame to `out` — the client-side encoder
/// used by `migctl client --binary` script lines and the fuzz suite.
pub fn encode_redefine_frame(
    out: &mut Vec<u8>,
    policy: crate::enforce::ResiduePolicy,
    source: &str,
) {
    let mut payload = Vec::with_capacity(1 + source.len());
    payload.push(policy.as_byte());
    payload.extend_from_slice(source.as_bytes());
    encode(out, REQ_REDEFINE, &payload);
}

/// Append one [`REQ_QUERY`] frame to `out` — the client-side encoder
/// used by `migctl client --binary` script lines and the replica tests.
pub fn encode_query_frame(out: &mut Vec<u8>, query: &str) {
    encode(out, REQ_QUERY, query.as_bytes());
}

/// Blocking client-side helper: read exactly one frame off `r`.
/// Refuses a bad magic byte or an oversized length prefix with
/// `InvalidData` — a client must never mirror the server's buffers.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0] != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected frame magic {MAGIC:#04x}, got {:#04x}", header[0]),
        ));
    }
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_PAYLOAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_PAYLOAD} bytes"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((header[1], payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_walks_partial_prefixes_to_a_frame() {
        let mut bytes = Vec::new();
        encode_invoke_frame(&mut bytes, "Mk", &[Value::int(7), Value::str("x")]);
        for cut in 1..bytes.len() {
            assert_eq!(scan(&bytes[..cut]), Scan::Incomplete, "prefix of {cut} bytes");
        }
        let Scan::Frame { kind, payload_len } = scan(&bytes) else {
            panic!("complete frame must scan");
        };
        assert_eq!(kind, REQ_INVOKE);
        assert_eq!(HEADER_LEN + payload_len, bytes.len());
        let mut r = migratory_model::codec::Reader::new(&bytes[HEADER_LEN..]);
        let (name, args) = migratory_lang::codec::decode_invoke(&mut r).unwrap();
        assert_eq!(name, "Mk");
        assert_eq!(args, vec![Value::int(7), Value::str("x")]);
    }

    #[test]
    fn oversized_length_prefix_is_refused_at_header_parse() {
        // The header alone is enough: no payload bytes are present, yet
        // the scan already refuses — the accumulation-cap bugfix.
        let mut buf = vec![MAGIC, REQ_INVOKE];
        buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(scan(&buf), Scan::Oversized(MAX_PAYLOAD + 1));
        assert_eq!(scan(&[MAGIC, REQ_INVOKE, 0xff, 0xff, 0xff, 0xff]), Scan::Oversized(u32::MAX));
    }

    #[test]
    fn encode_reply_fits_any_text_at_char_boundaries() {
        let max = MAX_PAYLOAD as usize;
        for len in [max - 1, max, max + 1, max + 2, 3 * max] {
            // Three-byte chars: a char boundary only every third byte.
            let text = "∅".repeat(len / 3) + &"x".repeat(len % 3);
            let mut out = Vec::new();
            encode_reply(&mut out, REP_ERROR, &text);
            let (_, payload) = read_frame(&mut &out[..]).expect("within the cap");
            let payload = String::from_utf8(payload).expect("cut at char boundaries");
            if text.len() <= max {
                assert_eq!(payload, text, "a text within the cap goes out verbatim");
            } else {
                let (head, tail) = payload.split_once(" … ").expect("the middle is elided");
                assert!(text.starts_with(head) && text.ends_with(tail));
                assert!(payload.len() > max - 8, "only the excess is cut");
            }
        }
    }

    #[test]
    fn read_frame_round_trips_and_rejects_garbage() {
        let mut bytes = Vec::new();
        encode(&mut bytes, REP_VIOLATION, "diag".as_bytes());
        let (kind, payload) = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!((kind, payload.as_slice()), (REP_VIOLATION, "diag".as_bytes()));
        // Bad magic.
        assert!(read_frame(&mut &b"not a frame"[..]).is_err());
        // Truncated payload.
        let mut cut = Vec::new();
        encode(&mut cut, REP_ERROR, b"boom");
        cut.truncate(cut.len() - 1);
        assert!(read_frame(&mut &cut[..]).is_err());
        // Oversized length prefix.
        let mut big = vec![MAGIC, REP_OK];
        big.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut &big[..]).is_err());
    }
}
