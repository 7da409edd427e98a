//! Canonical serialization of transaction [`Delta`]s.
//!
//! A [`Delta`] is the exact, invertible change-set of one transaction
//! application (before- and after-images of precisely the touched
//! objects), which makes it the natural unit of durability: the
//! enforcement write-ahead log in `migratory-core` persists committed
//! deltas and replays them with [`Delta::redo`] — no transaction
//! re-execution, no history replay.
//!
//! Two interchange formats are provided, both round-tripping exactly:
//!
//! * a **compact binary** form ([`encode_delta`] / [`decode_delta`]) on
//!   top of the primitives of [`migratory_model::codec`] — canonical
//!   (objects in ascending oid order, tuples in attribute order), so
//!   equal deltas have identical bytes; this is the WAL record payload;
//! * a **text** form ([`delta_to_text`] / [`delta_from_text`]) — one
//!   line per touched object, `*` for "does not occur" — for durable
//!   logs meant to be read (or written) by people and external tools.
//!
//! Decoding either form is total: malformed input yields a
//! [`LangError`], never a panic. Structural well-formedness (ascending
//! oids, non-empty class sets on occurring sides) is validated on
//! decode, so a decoded delta upholds the same invariants a recorded
//! one does.

use crate::error::LangError;
use crate::interp::{Delta, ObjectDelta};
use migratory_model::codec::{
    encode_idset, encode_str, encode_tuple, encode_u64, encode_value, Reader as ByteReader,
};
use migratory_model::{ClassSet, ModelError, Oid, Tuple, Value};
use std::fmt::Write as _;

fn corrupt(msg: impl Into<String>) -> LangError {
    LangError::Model(ModelError::Corrupt(msg.into()))
}

// ---------------------------------------------------------------------
// Binary form
// ---------------------------------------------------------------------

/// Per-object flag bits of the binary form.
const HAS_BEFORE: u8 = 1;
const HAS_AFTER: u8 = 2;
const TUPLE_CHANGED: u8 = 4;

/// Append the canonical binary encoding of `d` to `out`.
pub fn encode_delta(out: &mut Vec<u8>, d: &Delta) {
    encode_u64(out, d.old_next);
    encode_u64(out, d.new_next);
    encode_u64(out, d.objects.len() as u64);
    for od in &d.objects {
        encode_u64(out, od.oid.0);
        let mut flags = 0u8;
        if od.before.is_some() {
            flags |= HAS_BEFORE;
        }
        if od.after.is_some() {
            flags |= HAS_AFTER;
        }
        if od.tuple_changed {
            flags |= TUPLE_CHANGED;
        }
        out.push(flags);
        if let Some((cs, t)) = &od.before {
            encode_idset(out, *cs);
            encode_tuple(out, t);
        }
        if let Some((cs, t)) = &od.after {
            encode_idset(out, *cs);
            encode_tuple(out, t);
        }
    }
}

/// Decode one delta from the reader (the inverse of [`encode_delta`]),
/// validating structural well-formedness.
pub fn decode_delta(r: &mut ByteReader<'_>) -> Result<Delta, LangError> {
    let old_next = r.u64()?;
    let new_next = r.u64()?;
    if new_next < old_next {
        return Err(corrupt("delta rewinds the object counter"));
    }
    let n = r.count()?;
    let mut objects: Vec<ObjectDelta> = Vec::with_capacity(n);
    for _ in 0..n {
        let oid = Oid(r.u64()?);
        if oid.0 == 0 {
            return Err(corrupt("delta names o0, which is never minted"));
        }
        if let Some(last) = objects.last() {
            if oid <= last.oid {
                return Err(corrupt("delta objects out of oid order"));
            }
        }
        let flags = r.byte()?;
        if flags & !(HAS_BEFORE | HAS_AFTER | TUPLE_CHANGED) != 0 {
            return Err(corrupt(format!("unknown delta flags {flags:#x}")));
        }
        let mut side = |present: bool| -> Result<Option<(ClassSet, Tuple)>, LangError> {
            if !present {
                return Ok(None);
            }
            let cs: ClassSet = r.idset()?;
            if cs.is_empty() {
                return Err(corrupt("occurring delta side has no classes"));
            }
            Ok(Some((cs, r.tuple()?)))
        };
        let before = side(flags & HAS_BEFORE != 0)?;
        let after = side(flags & HAS_AFTER != 0)?;
        objects.push(ObjectDelta { oid, before, after, tuple_changed: flags & TUPLE_CHANGED != 0 });
    }
    Ok(Delta { old_next, new_next, objects })
}

// ---------------------------------------------------------------------
// Invocation payloads (binary wire dialect)
// ---------------------------------------------------------------------

/// Append the binary encoding of one transaction invocation — the
/// payload of an `invoke` frame on the binary wire dialect: the
/// transaction name ([`encode_str`]), the argument count
/// ([`encode_u64`]), then each argument ([`encode_value`]).
pub fn encode_invoke(out: &mut Vec<u8>, name: &str, args: &[Value]) {
    encode_str(out, name);
    encode_u64(out, args.len() as u64);
    for v in args {
        encode_value(out, v);
    }
}

/// Decode one invocation payload (the inverse of [`encode_invoke`]).
///
/// Total over arbitrary bytes: truncation, a length-inflated argument
/// count, or a malformed value yields a [`LangError`], never a panic —
/// the [`ByteReader`] count primitive is bounds-checked against the
/// remaining input.
pub fn decode_invoke(r: &mut ByteReader<'_>) -> Result<(String, Vec<Value>), LangError> {
    let name = r.str()?.to_owned();
    if name.is_empty() {
        return Err(corrupt("empty transaction name"));
    }
    let n = r.count()?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(r.value()?);
    }
    Ok((name, args))
}

// ---------------------------------------------------------------------
// Text form
// ---------------------------------------------------------------------

/// Render `d` in the line-oriented text form. Schema-independent (dense
/// class/attribute indices, typed constants), so it parses back without
/// any context:
///
/// ```text
/// delta 3 -> 4
/// o1 [0 1]{0=s"1234" 1=s"Ann"} => [0 1 2]{0=s"1234" 1=s"Ann" 4=i1990} changed
/// o3 [0]{0=s"9"} => * changed
/// o4 * => [0]{0=s"x"} changed
/// ```
#[must_use]
pub fn delta_to_text(d: &Delta) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "delta {} -> {}", d.old_next, d.new_next);
    for od in &d.objects {
        let _ = write!(out, "o{} ", od.oid.0);
        write_side(&mut out, od.before.as_ref());
        out.push_str(" => ");
        write_side(&mut out, od.after.as_ref());
        out.push_str(if od.tuple_changed { " changed\n" } else { " unchanged\n" });
    }
    out
}

fn write_side(out: &mut String, side: Option<&(ClassSet, Tuple)>) {
    let Some((cs, t)) = side else {
        out.push('*');
        return;
    };
    out.push('[');
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{}", c.0);
    }
    out.push_str("]{");
    for (i, (a, v)) in t.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{}=", a.0);
        match v {
            Value::Int(x) => {
                let _ = write!(out, "i{x}");
            }
            Value::Str(s) => {
                out.push_str("s\"");
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Fresh(tag) => {
                let _ = write!(out, "f{tag}");
            }
        }
    }
    out.push('}');
}

/// Parse the text form produced by [`delta_to_text`].
pub fn delta_from_text(src: &str) -> Result<Delta, LangError> {
    let mut lines = src.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| corrupt("empty delta text"))?;
    let rest = header.strip_prefix("delta ").ok_or_else(|| corrupt("missing `delta` header"))?;
    let (old, new) = rest.split_once(" -> ").ok_or_else(|| corrupt("malformed header"))?;
    let old_next = old.trim().parse::<u64>().map_err(|_| corrupt("bad old counter"))?;
    let new_next = new.trim().parse::<u64>().map_err(|_| corrupt("bad new counter"))?;
    if new_next < old_next {
        return Err(corrupt("delta rewinds the object counter"));
    }
    let mut objects: Vec<ObjectDelta> = Vec::new();
    for line in lines {
        let mut p = TextCursor::new(line.trim());
        p.expect('o')?;
        let oid = Oid(p.number()?);
        if oid.0 == 0 {
            return Err(corrupt("delta names o0, which is never minted"));
        }
        if objects.last().is_some_and(|last| oid <= last.oid) {
            return Err(corrupt("delta objects out of oid order"));
        }
        p.expect(' ')?;
        let before = p.side()?;
        p.expect_str(" => ")?;
        let after = p.side()?;
        p.expect(' ')?;
        let tuple_changed = match p.rest() {
            "changed" => true,
            "unchanged" => false,
            other => return Err(corrupt(format!("expected change marker, got `{other}`"))),
        };
        objects.push(ObjectDelta { oid, before, after, tuple_changed });
    }
    Ok(Delta { old_next, new_next, objects })
}

/// Character cursor for the text form's object lines.
struct TextCursor<'a> {
    s: &'a str,
}

impl<'a> TextCursor<'a> {
    fn new(s: &'a str) -> TextCursor<'a> {
        TextCursor { s }
    }

    fn rest(&self) -> &'a str {
        self.s
    }

    fn peek(&self) -> Option<char> {
        self.s.chars().next()
    }

    fn bump(&mut self) -> Result<char, LangError> {
        let c = self.peek().ok_or_else(|| corrupt("unexpected end of line"))?;
        self.s = &self.s[c.len_utf8()..];
        Ok(c)
    }

    fn expect(&mut self, want: char) -> Result<(), LangError> {
        let got = self.bump()?;
        if got != want {
            return Err(corrupt(format!("expected `{want}`, got `{got}`")));
        }
        Ok(())
    }

    fn expect_str(&mut self, want: &str) -> Result<(), LangError> {
        match self.s.strip_prefix(want) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => Err(corrupt(format!("expected `{want}`"))),
        }
    }

    fn number(&mut self) -> Result<u64, LangError> {
        let end = self.s.find(|c: char| !c.is_ascii_digit()).unwrap_or(self.s.len());
        if end == 0 {
            return Err(corrupt("expected a number"));
        }
        let (digits, rest) = self.s.split_at(end);
        self.s = rest;
        digits.parse().map_err(|_| corrupt("number out of range"))
    }

    fn signed(&mut self) -> Result<i64, LangError> {
        let negative = self.peek() == Some('-');
        if negative {
            self.bump()?;
        }
        let n = self.number()?;
        if negative {
            // `-n` for 0 ≤ n ≤ 2⁶³ — covers i64::MIN exactly.
            i64::try_from(n)
                .map(|v| -v)
                .or(if n == 1 << 63 { Ok(i64::MIN) } else { Err(()) })
                .map_err(|()| corrupt("integer out of range"))
        } else {
            i64::try_from(n).map_err(|_| corrupt("integer out of range"))
        }
    }

    fn side(&mut self) -> Result<Option<(ClassSet, Tuple)>, LangError> {
        if self.peek() == Some('*') {
            self.bump()?;
            return Ok(None);
        }
        self.expect('[')?;
        let mut cs = ClassSet::empty();
        while self.peek() != Some(']') {
            if !cs.is_empty() {
                self.expect(' ')?;
            }
            let c = self.number()?;
            let c = usize::try_from(c)
                .ok()
                .filter(|&i| i < migratory_model::bitset::MAX_DENSE)
                .ok_or_else(|| corrupt("class index out of range"))?;
            cs = cs.union(ClassSet::singleton(migratory_model::ClassId(c as u32)));
        }
        self.expect(']')?;
        if cs.is_empty() {
            return Err(corrupt("occurring delta side has no classes"));
        }
        self.expect('{')?;
        let mut pairs: Vec<(migratory_model::AttrId, Value)> = Vec::new();
        while self.peek() != Some('}') {
            if !pairs.is_empty() {
                self.expect(' ')?;
            }
            let a = self.number()?;
            let a = u32::try_from(a).map_err(|_| corrupt("attribute index out of range"))?;
            self.expect('=')?;
            let v = match self.bump()? {
                'i' => Value::Int(self.signed()?),
                'f' => {
                    let t = self.number()?;
                    Value::Fresh(u32::try_from(t).map_err(|_| corrupt("fresh tag out of range"))?)
                }
                's' => {
                    self.expect('"')?;
                    let mut buf = String::new();
                    loop {
                        match self.bump()? {
                            '"' => break,
                            '\\' => match self.bump()? {
                                '"' => buf.push('"'),
                                '\\' => buf.push('\\'),
                                'n' => buf.push('\n'),
                                c => return Err(corrupt(format!("unknown escape `\\{c}`"))),
                            },
                            c => buf.push(c),
                        }
                    }
                    Value::str(&buf)
                }
                t => return Err(corrupt(format!("unknown value tag `{t}`"))),
            };
            if pairs.last().is_some_and(|(prev, _)| a <= prev.0) {
                return Err(corrupt("tuple attributes out of order"));
            }
            pairs.push((migratory_model::AttrId(a), v));
        }
        self.expect('}')?;
        Ok(Some((cs, Tuple::from_pairs(pairs))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Assignment, AtomicUpdate, Transaction};
    use crate::interp::apply_transaction_delta;
    use migratory_model::schema::university_schema;
    use migratory_model::{Atom, Condition, Instance};

    /// A delta with creation, migration, rename, deletion and an
    /// interesting value mix.
    fn sample_delta() -> Delta {
        let s = university_schema();
        let person = s.class_id("PERSON").unwrap();
        let student = s.class_id("STUDENT").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let name = s.attr_id("Name").unwrap();
        let major = s.attr_id("Major").unwrap();
        let fe = s.attr_id("FirstEnroll").unwrap();
        let mut db = Instance::empty();
        for (k, n) in [("1", "Ann \"A\"\n"), ("2", "Bob\\"), ("3", "Caz")] {
            db.create(
                migratory_model::ClassSet::singleton(person),
                std::collections::BTreeMap::from([
                    (ssn, Value::str(k)),
                    (name, Value::str(n)),
                    // Overwritten below to a legal tuple via modify… the
                    // point is only to exercise value variants.
                ]),
            );
        }
        let t = Transaction::sl(
            "mixed",
            &[],
            vec![
                AtomicUpdate::Specialize {
                    from: person,
                    to: student,
                    select: Condition::from_atoms([Atom::eq_const(ssn, "1")]),
                    set: Condition::from_atoms([
                        Atom::eq_const(major, "CS"),
                        Atom::eq_const(fe, 1990),
                    ]),
                },
                AtomicUpdate::Delete {
                    class: person,
                    gamma: Condition::from_atoms([Atom::eq_const(ssn, "2")]),
                },
                AtomicUpdate::Create {
                    class: person,
                    gamma: Condition::from_atoms([
                        Atom::eq_const(ssn, "4"),
                        Atom::eq_const(name, "Dee"),
                    ]),
                },
                AtomicUpdate::Modify {
                    class: person,
                    select: Condition::from_atoms([Atom::eq_const(ssn, "3")]),
                    set: Condition::from_atoms([Atom::eq_const(name, "Caz")]),
                },
            ],
        );
        apply_transaction_delta(&s, &mut db, &t, &Assignment::empty()).unwrap()
    }

    #[test]
    fn binary_round_trip_is_canonical() {
        let d = sample_delta();
        let mut bytes = Vec::new();
        encode_delta(&mut bytes, &d);
        let mut r = ByteReader::new(&bytes);
        let back = decode_delta(&mut r).unwrap();
        assert!(r.is_exhausted(), "self-delimiting");
        assert_eq!(back, d);
        let mut again = Vec::new();
        encode_delta(&mut again, &back);
        assert_eq!(again, bytes, "canonical bytes");
    }

    #[test]
    fn text_round_trip_with_escapes() {
        let d = sample_delta();
        let text = delta_to_text(&d);
        assert!(text.starts_with("delta "));
        assert!(text.contains("=> *"), "deletion renders as *");
        assert!(text.contains("\\\""), "quotes escaped");
        let back = delta_from_text(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(delta_to_text(&back), text);
    }

    #[test]
    fn binary_decode_rejects_corruption() {
        let d = sample_delta();
        let mut bytes = Vec::new();
        encode_delta(&mut bytes, &d);
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_delta(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
        // Unknown flag bits are rejected.
        let mut bad = Vec::new();
        encode_u64(&mut bad, 1);
        encode_u64(&mut bad, 1);
        encode_u64(&mut bad, 1);
        encode_u64(&mut bad, 1); // oid
        bad.push(0x40); // bogus flags
        assert!(decode_delta(&mut ByteReader::new(&bad)).is_err());
        // o0 is never minted: an instance has no slot to redo it into.
        let mut zero = Vec::new();
        encode_u64(&mut zero, 1);
        encode_u64(&mut zero, 1);
        encode_u64(&mut zero, 1);
        encode_u64(&mut zero, 0); // oid
        zero.push(0); // no sides
        assert!(decode_delta(&mut ByteReader::new(&zero)).is_err());
    }

    #[test]
    fn text_decode_rejects_malformed_lines() {
        for bad in [
            "",
            "delta 1 -> 0",
            "delta x -> 1",
            "delta 1 -> 2\no1 * => * maybe",
            "delta 1 -> 2\no1 [0]{0=z3} => * changed",
            "delta 1 -> 2\no2 * => [0]{} changed\no1 * => [0]{} changed",
            "delta 1 -> 2\no1 []{} => * changed",
            "delta 1 -> 2\no1 [0]{0=s\"oops} => * changed",
            "delta 1 -> 2\no0 * => [0]{} changed",
        ] {
            assert!(delta_from_text(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn invoke_payload_round_trips() {
        let args = vec![
            Value::Int(-17),
            Value::str("a \"quoted\" name\nwith newline"),
            Value::Fresh(9),
            Value::Int(i64::MIN),
        ];
        let mut bytes = Vec::new();
        encode_invoke(&mut bytes, "Promote", &args);
        let mut r = ByteReader::new(&bytes);
        let (name, back) = decode_invoke(&mut r).unwrap();
        assert!(r.is_exhausted(), "self-delimiting");
        assert_eq!(name, "Promote");
        assert_eq!(back, args);
    }

    #[test]
    fn invoke_payload_rejects_corruption() {
        let mut bytes = Vec::new();
        encode_invoke(&mut bytes, "Mk", &[Value::Int(1), Value::str("x")]);
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_invoke(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
        // An empty transaction name is structurally invalid.
        let mut empty = Vec::new();
        encode_invoke(&mut empty, "", &[]);
        assert!(decode_invoke(&mut ByteReader::new(&empty)).is_err());
        // A count far beyond the remaining input is refused, not allocated.
        let mut inflated = Vec::new();
        encode_str(&mut inflated, "Mk");
        encode_u64(&mut inflated, u64::MAX);
        assert!(decode_invoke(&mut ByteReader::new(&inflated)).is_err());
    }

    #[test]
    fn identity_delta_encodes_small() {
        let s = university_schema();
        let mut db = Instance::empty();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let t = Transaction::sl(
            "miss",
            &[],
            vec![AtomicUpdate::Delete {
                class: person,
                gamma: Condition::from_atoms([Atom::eq_const(ssn, "nope")]),
            }],
        );
        let d = apply_transaction_delta(&s, &mut db, &t, &Assignment::empty()).unwrap();
        assert!(d.is_identity());
        let mut bytes = Vec::new();
        encode_delta(&mut bytes, &d);
        assert!(bytes.len() <= 4, "identity deltas are a few header bytes");
        assert_eq!(decode_delta(&mut ByteReader::new(&bytes)).unwrap(), d);
    }
}
