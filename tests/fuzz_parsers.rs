//! Failure-injection tests for every text front end: arbitrary input must
//! produce `Err`, never a panic, and valid output of the pretty-printers
//! must re-parse to the same meaning.

use migratory::automata::{parse_regex, Dfa, Nfa, Regex};
use migratory::core::RoleAlphabet;
use migratory::lang::parse_transactions;
use migratory::lang::pretty::{schema_to_text, transaction_to_text};
use migratory::model::schema::university_schema;
use migratory::model::text::parse_schema;
use proptest::prelude::*;

/// A character soup biased toward the grammars' own tokens.
fn soup() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_{}()\\[\\]*+?|=:;,!<>%∅∪λ \"\\-\n]{0,80}")
        .expect("valid generator regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schema_parser_never_panics(src in soup()) {
        let _ = parse_schema(&src);
    }

    #[test]
    fn transaction_parser_never_panics(src in soup()) {
        let schema = university_schema();
        let _ = parse_transactions(&schema, &src);
    }

    #[test]
    fn regex_parser_never_panics(src in soup()) {
        let schema = university_schema();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let _ = alphabet.parse_regex(&schema, &src);
    }
}

/// Random regex ASTs over a 4-symbol alphabet.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![Just(Regex::Epsilon), (0u32..4).prop_map(Regex::Sym),];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::union),
            inner.prop_map(Regex::star),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Display → parse is the identity up to language equivalence.
    #[test]
    fn regex_display_parse_roundtrip(r in regex_strategy()) {
        let text = r.to_string();
        let resolve = |name: &str| -> Option<u32> {
            name.strip_prefix('s').and_then(|d| d.parse().ok()).filter(|&v| v < 4)
        };
        let back = parse_regex(&text, &resolve)
            .unwrap_or_else(|e| panic!("pretty output `{text}` failed to parse: {e}"));
        let d1 = Dfa::from_nfa(&Nfa::from_regex(&r, 4)).minimize();
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&back, 4)).minimize();
        prop_assert!(d1.equivalent(&d2), "`{text}` re-parsed to a different language");
    }
}

/// Pretty-printed transactions re-parse to identical ASTs, for sources
/// covering every operator and guard form.
#[test]
fn transaction_pretty_parse_roundtrip() {
    let schema = university_schema();
    let sources = [
        r#"transaction Mk(x, n) { create(PERSON, { SSN = x, Name = n }); }"#,
        r#"transaction Rm(x) { delete(PERSON, { SSN = x }); }"#,
        r#"transaction Up(x, y) { modify(PERSON, { SSN = x, Name != "z" }, { Name = y }); }"#,
        r#"transaction St(x) {
             specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
           }"#,
        r#"transaction Un(x) { generalize(STUDENT, { SSN = x }); }"#,
        r#"transaction Guarded(x) {
             when PERSON(SSN = x), !EMPLOYEE(SSN = x) ->
               specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 0, WorksIn = "d" });
           }"#,
        r#"transaction Multi(x, y) {
             create(PERSON, { SSN = x, Name = "n" });
             when STUDENT() -> delete(PERSON, { SSN = y });
             modify(PERSON, { SSN = x }, { Name = y });
           }"#,
    ];
    for src in sources {
        let ts = parse_transactions(&schema, src).unwrap();
        let t = &ts.transactions()[0];
        let printed = transaction_to_text(&schema, t);
        let ts2 = parse_transactions(&schema, &printed)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {e}\n{printed}"));
        assert_eq!(
            ts.transactions()[0],
            ts2.transactions()[0],
            "round trip changed the AST for\n{printed}"
        );
    }
}

/// The whole-schema printer round-trips through the parser as well.
#[test]
fn schema_text_roundtrip() {
    let schema = university_schema();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction A(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction B(x) {
          when PERSON(SSN = x) -> generalize(STUDENT, { SSN = x });
        }
    "#,
    )
    .unwrap();
    let printed = schema_to_text(&schema, &ts);
    let back = parse_transactions(&schema, &printed).unwrap();
    assert_eq!(ts.transactions(), back.transactions());
}

// ---------------------------------------------------------------------
// Wire grammar (`enforce::net`)
// ---------------------------------------------------------------------

use migratory::core::enforce::net::{self, ServerConfig};
use migratory::core::enforce::ShardedMonitor;
use migratory::core::{Inventory, PatternKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire argument grammar returns `Err`, never panics.
    #[test]
    fn invocation_parser_never_panics(src in soup()) {
        let _ = net::parse_invocation(&src);
    }

    /// Byte-level mutations of valid invocations never panic either —
    /// the grammar must be byte-hostile, not just token-hostile.
    #[test]
    fn mutated_invocations_never_panic(
        pick in 0usize..4,
        flips in proptest::collection::vec((0usize..64, 0u16..256), 0..8),
    ) {
        const VALID: [&str; 4] = [
            r#"Mk(k1, "a name")"#,
            r#"St("quoted, with comma", 42)"#,
            "Rm(-17)",
            "Up(a, b, c, d)",
        ];
        let mut bytes = VALID[pick].as_bytes().to_vec();
        for (idx, b) in flips {
            let i = idx % bytes.len();
            bytes[i] = u8::try_from(b).expect("strategy range fits a byte");
        }
        let line = String::from_utf8_lossy(&bytes);
        let _ = net::parse_invocation(&line);
    }
}

/// Garbage over a live socket: every reply's first token is
/// `ok`/`violation`/`error`, a hostile connection never takes the
/// server down, and a fresh connection still gets clean service
/// afterwards. (CI runs this as its wire-fuzz smoke.)
#[test]
fn wire_soup_never_kills_the_server() {
    use std::io::{BufRead, BufReader, Write};
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        // A deterministic pile of hostile lines: truncations, splices,
        // reversals and byte noise around valid requests. None may start
        // with `quit`/`shutdown` — those would end the run early.
        let valid = ["invoke Mk(k)", "stats", "ping", "schema", r#"invoke Mk("q uo")"#];
        let mut lines: Vec<String> = Vec::new();
        for (i, v) in valid.iter().enumerate() {
            for cut in [1, v.len() / 2, v.len() - 1] {
                lines.push(v[..cut].to_owned());
            }
            lines.push(format!("{v}{v}"));
            lines.push(v.replace('(', "))((").replace(' ', "\t"));
            let mut twisted: Vec<u8> = v.bytes().rev().collect();
            let at = i % twisted.len();
            twisted[at] = 0xff_u8.wrapping_sub(i as u8);
            lines.push(String::from_utf8_lossy(&twisted).into_owned());
        }
        lines.extend(
            ["∅∪λ %!<>;;", "invoke", "invoke ", "auth", "rearm extra junk", "invoke Mk("]
                .map(str::to_owned),
        );
        let hostile = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = hostile.try_clone().unwrap();
        let mut replies = BufReader::new(hostile).lines();
        for line in &lines {
            let head = line.trim_start();
            assert!(
                !head.starts_with("quit") && !head.starts_with("shutdown"),
                "corpus bug: `{line}` would end the session"
            );
            writeln!(writer, "{line}").unwrap();
            if head.is_empty() || head.starts_with('#') {
                continue; // blanks and comments get no reply
            }
            let reply = replies.next().expect("a reply per request").expect("replies are UTF-8");
            let first = reply.split_whitespace().next().unwrap_or("");
            assert!(
                matches!(first, "ok" | "violation" | "error"),
                "unexpected reply `{reply}` to `{line}`"
            );
        }
        // Raw non-UTF-8 bytes end this connection cleanly…
        writer.write_all(&[0xc3, 0x28, 0xff, 0xfe, b'\n']).unwrap();
        writer.flush().unwrap();
        drop(writer);
        for _ in replies {} // drain to EOF: the server closed, not crashed
                            // …and a fresh connection still gets clean service.
        let fresh = std::net::TcpStream::connect(addr).unwrap();
        let mut w = fresh.try_clone().unwrap();
        let mut r = BufReader::new(fresh).lines();
        writeln!(w, "ping").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok pong");
        writeln!(w, "shutdown").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok draining");
        server.join().unwrap();
    });
}

// ---------------------------------------------------------------------
// Binary framing (`enforce::net::frame`)
// ---------------------------------------------------------------------

use migratory::core::enforce::net::frame;
use migratory::model::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frame scanner is total: any byte soup behind the magic byte
    /// yields `Incomplete`, `Oversized` or a bounded frame — never a
    /// panic, and never a frame larger than the buffer or the cap. The
    /// blocking client-side reader must be as hostile-input-proof.
    #[test]
    fn frame_scanner_never_panics(soup in proptest::collection::vec(0u16..256, 0..64)) {
        let mut bytes = vec![frame::MAGIC];
        bytes.extend(soup.iter().map(|&b| u8::try_from(b).expect("strategy range fits a byte")));
        match frame::scan(&bytes) {
            frame::Scan::Frame { payload_len, .. } => {
                prop_assert!(frame::HEADER_LEN + payload_len <= bytes.len());
                prop_assert!(payload_len as u64 <= u64::from(frame::MAX_PAYLOAD));
            }
            frame::Scan::Oversized(len) => prop_assert!(len > frame::MAX_PAYLOAD),
            frame::Scan::Incomplete => {}
        }
        let _ = frame::read_frame(&mut &bytes[..]);
    }

    /// Every truncation of a valid frame scans `Incomplete` (the
    /// incremental accumulator keeps waiting), and byte-mutating the
    /// frame behind its magic byte panics neither the scanner nor the
    /// payload decoder.
    #[test]
    fn mutated_frames_never_panic(
        flips in proptest::collection::vec((1usize..256, 0u16..256), 0..8),
        cut in 1usize..256,
    ) {
        let mut bytes = Vec::new();
        frame::encode_invoke_frame(&mut bytes, "Mk", &[Value::int(7), Value::str("a name")]);
        let cut = cut % bytes.len();
        if cut > 0 {
            prop_assert_eq!(frame::scan(&bytes[..cut]), frame::Scan::Incomplete);
        }
        for (idx, b) in flips {
            let i = 1 + idx % (bytes.len() - 1);
            bytes[i] = u8::try_from(b).expect("strategy range fits a byte");
        }
        if let frame::Scan::Frame { payload_len, .. } = frame::scan(&bytes) {
            let payload = &bytes[frame::HEADER_LEN..frame::HEADER_LEN + payload_len];
            let mut r = migratory::model::codec::Reader::new(payload);
            let _ = migratory::lang::codec::decode_invoke(&mut r);
        }
    }
}

/// Hostile binary frames and text lines interleaved on one socket: each
/// request is answered in its own dialect, malformed payloads get
/// binary errors without ending the session, an oversized length prefix
/// tears down only its own connection — and the server keeps serving.
/// (CI runs this as the frame half of its wire-fuzz smoke.)
#[test]
fn mixed_dialect_soup_never_kills_the_server() {
    use std::io::{BufRead, BufReader, Read as _, Write};
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        // One pipelined burst interleaving both dialects, hostile frames
        // included. Replies come back in order, each in its request's
        // dialect.
        let mut req = Vec::new();
        req.extend_from_slice(b"ping\n");
        frame::encode_invoke_frame(&mut req, "Mk", &[Value::int(1)]);
        frame::encode(&mut req, 0x7f, b"???"); // unknown kind
        frame::encode(&mut req, frame::REQ_INVOKE, &[0xff, 0xff, 0x00]); // undecodable payload
        frame::encode_invoke_frame(&mut req, "Nope", &[]); // unknown transaction
        req.extend_from_slice(b"invoke Mk(2)\n");
        let conn = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writer.write_all(&req).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok pong\n");
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!((kind, payload.len()), (frame::REP_OK, 0), "valid frame is admitted");
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::REP_ERROR);
        assert!(
            String::from_utf8_lossy(&payload).contains("unknown frame kind"),
            "got {:?}",
            String::from_utf8_lossy(&payload)
        );
        let (kind, _) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::REP_ERROR, "undecodable payload errors in-dialect");
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::REP_ERROR);
        assert!(String::from_utf8_lossy(&payload).contains("unknown transaction"));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok\n", "the session survives every hostile frame above");
        // An oversized length prefix is refused at the header — a binary
        // error reply, then teardown, before any payload accumulates.
        let mut bad = vec![frame::MAGIC, frame::REQ_INVOKE];
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        writer.write_all(&bad).unwrap();
        writer.flush().unwrap();
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::REP_ERROR);
        assert!(String::from_utf8_lossy(&payload).contains("exceeds"));
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server closed the hostile connection");
        // …and a fresh connection still gets clean service.
        let fresh = std::net::TcpStream::connect(addr).unwrap();
        let mut w = fresh.try_clone().unwrap();
        let mut r = BufReader::new(fresh).lines();
        writeln!(w, "ping").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok pong");
        writeln!(w, "shutdown").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok draining");
        let stats = server.join().unwrap();
        assert_eq!(stats.admitted, 2, "Mk(1) binary + Mk(2) text");
        assert_eq!(stats.connections, 2);
    });
}

/// Error values (not panics) for representative malformed inputs, each
/// with a position or message a user can act on.
#[test]
fn malformed_inputs_report_errors() {
    let schema = university_schema();
    for bad in [
        "transaction",
        "transaction X { create(PERSON, { SSN = 1 }",
        "transaction X() { create(NOPE, {}); }",
        "transaction X() { modify(PERSON, { Bogus = 1 }, {}); }",
        "transaction X() { specialize(PERSON, PERSON, {}, {}); }",
        "transaction X(x) { when -> delete(PERSON, {}); }",
    ] {
        let err = parse_transactions(&schema, bad).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
    for bad in ["schema", "schema S { class C", "schema S { class C { A } class C { B } }"] {
        let err = parse_schema(bad).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}

// ---------------------------------------------------------------------
// Constraint evolution (`redefine`) payloads, both dialects
// ---------------------------------------------------------------------

use migratory::core::enforce::ResiduePolicy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inventory source parser behind `redefine` is total: any soup
    /// yields `Err`, never a panic. (This is the exact server-side parse
    /// of a text `redefine` line's source operand.)
    #[test]
    fn inventory_parser_never_panics(src in soup()) {
        let schema = university_schema();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let _ = Inventory::parse_init(&schema, &alphabet, &src);
    }

    /// The binary `redefine` payload decode chain — policy byte, UTF-8
    /// check, inventory parse — never panics on arbitrary payloads.
    #[test]
    fn binary_redefine_payload_never_panics(
        payload in proptest::collection::vec(0u16..256, 0..256),
    ) {
        let schema = university_schema();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let bytes: Vec<u8> =
            payload.iter().map(|&b| u8::try_from(b).expect("strategy range fits a byte")).collect();
        if let Some((pb, src)) = bytes.split_first() {
            let _ = ResiduePolicy::from_byte(*pb);
            if let Ok(text) = std::str::from_utf8(src) {
                let _ = Inventory::parse_init(&schema, &alphabet, text);
            }
        }
    }
}

/// Hostile `redefine` payloads in both dialects against a live server:
/// malformed verbs, unknown policies, unparsable and oversized
/// inventory sources, non-UTF-8 and truncated binary frames — every
/// one refused in its own dialect, none degrading the server, and
/// well-formed redefinitions still admitted afterwards.
#[test]
fn redefine_soup_never_kills_the_server() {
    use std::io::{BufRead, BufReader, Read as _, Write};
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }"#,
    )
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
            net::serve(listener, &mut m, &ts, &ServerConfig::default()).unwrap()
        });
        let conn = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let text = |w: &mut std::net::TcpStream, r: &mut BufReader<_>, line: &str| {
            writeln!(w, "{line}").unwrap();
            let mut reply = String::new();
            r.read_line(&mut reply).unwrap();
            reply
        };
        // Text dialect: every malformed form is an `error`, never a
        // dropped connection.
        let big_class = format!("[{}]*", "A".repeat(4096));
        for (line, expect) in [
            ("redefine".to_owned(), "usage: redefine"),
            ("redefine quarantine".to_owned(), "usage: redefine"),
            ("redefine sideways ∅*".to_owned(), "unknown residue policy"),
            ("redefine quarantine ((((".to_owned(), "redefine refused"),
            ("redefine quarantine [NOSUCHCLASS]*".to_owned(), "redefine refused"),
            (format!("redefine quarantine {big_class}"), "redefine refused"),
        ] {
            let reply = text(&mut writer, &mut reader, &line);
            assert!(reply.starts_with("error "), "`{line}` got `{reply}`");
            assert!(reply.contains(expect), "`{line}` got `{reply}`");
        }
        // The server still serves and still admits a valid redefinition.
        assert_eq!(text(&mut writer, &mut reader, "invoke Mk(1)"), "ok\n");
        assert_eq!(
            text(&mut writer, &mut reader, "redefine certify-and-reset ∅* [PERSON]* ∅*"),
            "ok epoch=1 residue=0\n"
        );
        // Binary dialect: malformed payloads get binary errors on the
        // same (mixed-dialect) connection.
        let frame_err = |w: &mut std::net::TcpStream,
                         r: &mut BufReader<std::net::TcpStream>,
                         payload: &[u8],
                         expect: &str| {
            let mut req = Vec::new();
            frame::encode(&mut req, frame::REQ_REDEFINE, payload);
            w.write_all(&req).unwrap();
            let (kind, reply) = frame::read_frame(r).unwrap();
            let reply = String::from_utf8_lossy(&reply).into_owned();
            assert_eq!(kind, frame::REP_ERROR, "payload {payload:?} got `{reply}`");
            assert!(reply.contains(expect), "payload {payload:?} got `{reply}`");
        };
        frame_err(&mut writer, &mut reader, b"", "empty redefine payload");
        frame_err(&mut writer, &mut reader, &[9, b'*'], "unknown residue policy");
        frame_err(&mut writer, &mut reader, &[0, 0xc3, 0x28, 0xff], "UTF-8");
        frame_err(
            &mut writer,
            &mut reader,
            "\u{0}\u{2205}* [PERSON".as_bytes(),
            "redefine refused",
        );
        let huge = format!("\u{1}[{}]*", "B".repeat(60_000));
        frame_err(&mut writer, &mut reader, huge.as_bytes(), "redefine refused");
        // A well-formed binary redefinition is still admitted.
        let mut req = Vec::new();
        frame::encode_redefine_frame(
            &mut req,
            ResiduePolicy::Quarantine,
            "∅* ([PERSON] ∪ [STUDENT])* ∅*",
        );
        writer.write_all(&req).unwrap();
        let (kind, reply) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, frame::REP_OK);
        assert_eq!(String::from_utf8_lossy(&reply), "epoch=2 residue=0");
        assert_eq!(text(&mut writer, &mut reader, "invoke Mk(2)"), "ok\n");
        let stats = text(&mut writer, &mut reader, "stats");
        assert!(stats.contains("degraded=no"), "hostile payloads degraded the server: {stats}");
        assert!(stats.contains("epoch=2 redefines=2 quarantined=0"), "{stats}");
        // A truncated binary redefine frame never dispatches: half-close
        // with an incomplete frame buffered tears down only this
        // connection.
        let mut partial = Vec::new();
        frame::encode_redefine_frame(&mut partial, ResiduePolicy::Quarantine, "∅* [PERSON]* ∅*");
        writer.write_all(&partial[..partial.len() - 5]).unwrap();
        writer.flush().unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "truncated frame must not produce a reply");
        // An oversized redefine length prefix is refused at the header.
        let over = std::net::TcpStream::connect(addr).unwrap();
        let mut ow = over.try_clone().unwrap();
        let mut or = BufReader::new(over);
        let mut bad = vec![frame::MAGIC, frame::REQ_REDEFINE];
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        ow.write_all(&bad).unwrap();
        ow.flush().unwrap();
        let (kind, reply) = frame::read_frame(&mut or).unwrap();
        assert_eq!(kind, frame::REP_ERROR);
        assert!(String::from_utf8_lossy(&reply).contains("exceeds"));
        let mut rest = Vec::new();
        or.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server closed the oversized connection");
        // …and a fresh connection still gets clean service at epoch 2.
        let fresh = std::net::TcpStream::connect(addr).unwrap();
        let mut w = fresh.try_clone().unwrap();
        let mut r = BufReader::new(fresh).lines();
        writeln!(w, "ping").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok pong");
        writeln!(w, "shutdown").unwrap();
        assert_eq!(r.next().unwrap().unwrap(), "ok draining");
        let stats = server.join().unwrap();
        assert_eq!(stats.admitted, 2, "Mk(1) text + Mk(2) text");
        assert_eq!(stats.connections, 3);
    });
}
