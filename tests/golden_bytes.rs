//! Golden on-disk bytes: a small scripted [`ShardedMonitor`] on the
//! university schema, with its snapshot, its log records and its
//! incremental checkpoints compared against fixed hex fixtures.
//!
//! Every other recovery test compares bytes against bytes produced by the
//! same build, so a layout change that reorders objects the same way on
//! both sides would pass all of them. These fixtures were generated from
//! the `BTreeMap`-backed `Instance` heap, before the heap became a slab
//! indexed by oid; they must keep passing unedited. A deliberate format
//! change regenerates them and says so.
//!
//! The script covers the shapes a heap layout can get wrong: a bulk
//! create block, a specialization, a delete in the middle of the oid
//! range, deletes of the highest oid (so the counter runs past the last
//! live object), and an online `redefine`. The record bytes are exactly
//! what [`wal::encode_record`] and [`wal::encode_redefine_record`] emit
//! for the log and the replication stream.
//!
//! A second script pins a one-shard monitor: a three-object create, a
//! refused op, a `redefine`, a mid-run `certify` and certified blocks,
//! whose fixtures also cover the certification marker and the certified
//! snapshot and increment flags. They were generated from the former
//! single-partition monitor type, before it became a one-shard
//! [`ShardedMonitor`], and must keep passing unedited as well.

use migratory::core::enforce::{
    wal, BlockRef, CommitSink, EnforceError, ResiduePolicy, ShardedMonitor, SharedSink, WalError,
};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment};
use migratory::model::schema::university_schema;
use migratory::model::{Oid, Value};
use std::sync::{Arc, Mutex};

/// Appends every record the monitor hands it, framed as in the log.
#[derive(Default)]
struct RecordBytes(Vec<u8>);

impl CommitSink for RecordBytes {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        wal::encode_record(&mut self.0, block)
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        wal::encode_certify_record(&mut self.0, steps);
        Ok(())
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        wal::encode_redefine_record(&mut self.0, epoch, policy, shards, inventory)
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes the script produces: snapshot, log records, and the two
/// incremental checkpoints taken along the way.
struct Outputs {
    snapshot: Vec<u8>,
    records: Vec<u8>,
    first_increment: Vec<u8>,
    second_increment: Vec<u8>,
}

fn run_script() -> Outputs {
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let tighter = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    let records = Arc::new(Mutex::new(RecordBytes::default()));
    let sink: SharedSink = records.clone();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 2).with_sink(sink);
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let mk = ts.get("Mk").unwrap();
    let creates: Vec<Assignment> = (1..=6).map(|i| key(&format!("k{i}"))).collect();
    // o1..o6 in one block.
    assert_eq!(m.try_apply_batch(creates.iter().map(|a| (mk, a))), (6, None));
    m.try_apply(ts.get("St").unwrap(), &key("k2")).unwrap();
    let first_increment = m.checkpoint_delta().encode();
    // A delete in the middle of the range.
    m.try_apply(ts.get("Rm").unwrap(), &key("k3")).unwrap();
    let out = m.redefine(&tighter, ResiduePolicy::Quarantine).unwrap();
    assert_eq!(out.epoch, 1);
    // o7, then deletes of o6 (a hole below o7) and of o7 (the highest
    // oid): the counter ends two past the last live object.
    m.try_apply(mk, &key("k7")).unwrap();
    m.try_apply(ts.get("Rm").unwrap(), &key("k6")).unwrap();
    m.try_apply(ts.get("Rm").unwrap(), &key("k7")).unwrap();
    assert_eq!(m.db().num_objects(), 4);
    assert_eq!(m.db().next_oid().0, 8);
    let second_increment = m.checkpoint_delta().encode();
    let snapshot = m.snapshot().encode();
    let records = std::mem::take(&mut records.lock().unwrap().0);
    Outputs { snapshot, records, first_increment, second_increment }
}

const SNAPSHOT: &str = concat!(
    "4d47534e50330001010101890106000000050000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000020000000200000003000000020000000200000001040000000200",
    "00000200000002000000020000000200000008040101020001026b310101016e0205040001026b320101016e",
    "04010243530500020401020001026b340101016e0501020001026b350101016e020b00000302020202010203",
    "07040401010104060603020106000a040000000001010101030301020400010303010101030302040003000b",
    "0000040101010101010303020201030008050501010105070903020109000b04000001000101020104000000",
    "040001030201010104000300",
);
const RECORDS: &str = concat!(
    "750000004b8b2e4a0006010201010601020001026b310101016e020301020601020001026b320101016e0304",
    "01030601020001026b330101016e040501040601020001026b340101016e050601050601020001026b350101",
    "016e060701060601020001026b360101016e020000060001020304050100060001020304052e000000024885",
    "4c0001070701020701020001026b320101016e05040001026b320101016e0401024353050002020006010001",
    "0601001b0000004a55d9bb0001070701030501020001026b330101016e020007010001070100930000001261",
    "eea7020100020008010889010600000005000000000000000100000000010000000200000003000000020000",
    "0002000000010400000001000000020000000300000002000000020000000002000000020000000200000002",
    "0000000200000002000000010400000002000000020000000300000002000000020000000104000000020000",
    "00020000000200000002000000020000001b000000aff7cb9b0001070801070601020001026b370101016e02",
    "00080100010801001b00000066fe1c2f0001080801060501020001026b360101016e0200090100010901001b",
    "00000014df95960001080801070501020001026b370101016e02000a0100010a0100",
);
const FIRST_INCREMENT: &str = concat!(
    "4d47444c54320000000001a20106000000060000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000050000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000104000000050000000200000002000000020000000200000007",
    "06010101020001026b310101016e020105040001026b320101016e0401024353050002030101020001026b33",
    "0101016e040101020001026b340101016e050101020001026b350101016e060101020001026b360101016e02",
    "0700000302020202010203070404010101040606010101060300000000010102010303010202010101030302",
    "00070000030101010101010303010101030505010101050200000000010103010101010100",
);
const SECOND_INCREMENT: &str = concat!(
    "4d47444c54320001010101890106000000050000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000020000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000803030006000700020b000001060603020106000a0400000000",
    "01010101030301020400010303010101030302040003000b0000020303020201030008070903020109000b04",
    "000001000101020104000000040001030201010104000300",
);

#[test]
fn snapshot_bytes_match_golden() {
    assert_eq!(hex(&run_script().snapshot), SNAPSHOT);
}

#[test]
fn log_record_bytes_match_golden() {
    assert_eq!(hex(&run_script().records), RECORDS);
}

#[test]
fn checkpoint_increment_bytes_match_golden() {
    let out = run_script();
    assert_eq!(hex(&out.first_increment), FIRST_INCREMENT);
    assert_eq!(hex(&out.second_increment), SECOND_INCREMENT);
}

/// The one-partition script: a one-shard [`ShardedMonitor`] with a sink runs a
/// three-object create, a refused op, a `redefine`, a mid-run `certify`
/// and certified blocks after it. Besides the bytes of the 2-shard
/// script, this pins the certification marker, certified snapshot and
/// increment flags, and blocks logged without tracking.
fn run_one_shard_script() -> Outputs {
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let tighter = Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction Mk3(x, y, z) {
          create(PERSON, { SSN = x, Name = "n" });
          create(PERSON, { SSN = y, Name = "n" });
          create(PERSON, { SSN = z, Name = "n" });
        }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction Emp(x) {
          specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
        }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    // Every run of these stays in the tighter inventory.
    let certifiable = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
        }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    let records = Arc::new(Mutex::new(RecordBytes::default()));
    let sink: SharedSink = records.clone();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 1).with_sink(sink);
    let key = |k: &str| Assignment::new(vec![Value::str(k)]);
    let keys = |k: [&str; 3]| Assignment::new(k.iter().map(|k| Value::str(k)).collect());
    // o1..o3 in one application, then o4.
    m.try_apply(ts.get("Mk3").unwrap(), &keys(["k1", "k2", "k3"])).unwrap();
    m.try_apply(ts.get("Mk").unwrap(), &key("k4")).unwrap();
    m.try_apply(ts.get("St").unwrap(), &key("k2")).unwrap();
    // [EMPLOYEE] is outside the inventory: refused, nothing logged.
    match m.try_apply(ts.get("Emp").unwrap(), &key("k1")) {
        Err(EnforceError::Violation(v)) => assert_eq!(v.oid, Some(Oid(1))),
        other => panic!("expected a violation, got {other:?}"),
    }
    let first_increment = m.checkpoint_delta().encode();
    m.try_apply(ts.get("Rm").unwrap(), &key("k3")).unwrap();
    assert_eq!(m.redefine(&tighter, ResiduePolicy::Quarantine).unwrap().epoch, 1);
    assert!(m.certify(&certifiable).unwrap());
    // Certified blocks: logged, never tracked.
    m.try_apply(ts.get("Mk3").unwrap(), &keys(["k5", "k6", "k7"])).unwrap();
    m.try_apply(ts.get("St").unwrap(), &key("k5")).unwrap();
    m.try_apply(ts.get("Rm").unwrap(), &key("k4")).unwrap();
    m.try_apply(ts.get("Rm").unwrap(), &key("k7")).unwrap();
    assert_eq!(m.db().num_objects(), 4);
    assert_eq!(m.db().next_oid().0, 8);
    assert_eq!(m.pattern_of(Oid(2)).unwrap().len(), 4, "o2's pattern froze at certification");
    assert_eq!(m.pattern_of(Oid(5)), None, "o5 was created after certification");
    let second_increment = m.checkpoint_delta().encode();
    let snapshot = m.snapshot().encode();
    let records = std::mem::take(&mut records.lock().unwrap().0);
    Outputs { snapshot, records, first_increment, second_increment }
}

const ONE_SHARD_SNAPSHOT: &str = concat!(
    "4d47534e50330604010101018901060000000500000000000000010000000001000000020000000300000002",
    "0000000200000001040000000100000002000000030000000200000002000000000200000002000000020000",
    "0002000000020000000200000001040000000200000002000000030000000200000002000000010400000002",
    "0000000200000002000000020000000200000008040101020001026b310101016e0205040001026b32010101",
    "6e04010243530500020505040001026b350101016e04010243530500020601020001026b360101016e010800",
    "0004010101010101020102020101030303010302010100040402010101020400000100010102010303010204",
    "0000000201010103030200",
);
const ONE_SHARD_RECORDS: &str = concat!(
    "31000000c8f8e4d20001010403010601020001026b310101016e020601020001026b320101016e0306010200",
    "01026b330101016e010000010017000000d723ca680001040501040601020001026b340101016e0100010100",
    "2a0000007266fea80001050501020701020001026b320101016e05040001026b320101016e04010243530500",
    "02010002010017000000be3efca40001050501030501020001026b330101016e0100030100910000003dcb49",
    "1e02010001000489010600000005000000000000000100000000010000000200000003000000020000000200",
    "0000010400000001000000020000000300000002000000020000000002000000020000000200000002000000",
    "0200000002000000010400000002000000020000000300000002000000020000000104000000020000000200",
    "000002000000020000000200000002000000a7e7af5f010431000000620ff16e000105080305060102000102",
    "6b350101016e060601020001026b360101016e070601020001026b370101016e01000401002a000000513e7a",
    "390001080801050701020001026b350101016e05040001026b350101016e0401024353050002010005010017",
    "000000b66545bf0001080801040501020001026b340101016e010006010017000000e06936bf000108080107",
    "0501020001026b370101016e0100070100",
);
const ONE_SHARD_FIRST_INCREMENT: &str = concat!(
    "4d47444c54320000000001a20106000000060000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000050000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000104000000050000000200000002000000020000000200000005",
    "04010101020001026b310101016e020105040001026b320101016e0401024353050002030101020001026b33",
    "0101016e040101020001026b340101016e010300000401010101010102010202010103030301010101010402",
    "01010102030000000001010301030301020201010103030200",
);
const ONE_SHARD_SECOND_INCREMENT: &str = concat!(
    "4d47444c54320604010101018901060000000500000000000000010000000001000000020000000300000002",
    "0000000200000001040000000100000002000000030000000200000002000000000200000002000000020000",
    "0002000000020000000200000001040000000200000002000000030000000200000002000000010400000002",
    "00000002000000020000000200000002000000080503000400050105040001026b350101016e040102435305",
    "0002060101020001026b360101016e0700010800000203010302010100040402010101020400000100010102",
    "0103030102040000000201010103030200",
);

#[test]
fn one_shard_snapshot_bytes_match_golden() {
    assert_eq!(hex(&run_one_shard_script().snapshot), ONE_SHARD_SNAPSHOT);
}

#[test]
fn one_shard_log_record_bytes_match_golden() {
    assert_eq!(hex(&run_one_shard_script().records), ONE_SHARD_RECORDS);
}

#[test]
fn one_shard_checkpoint_increment_bytes_match_golden() {
    let out = run_one_shard_script();
    assert_eq!(hex(&out.first_increment), ONE_SHARD_FIRST_INCREMENT);
    assert_eq!(hex(&out.second_increment), ONE_SHARD_SECOND_INCREMENT);
}

/// Folding the one-shard log — certification marker and certified blocks
/// included — rebuilds the golden snapshot.
#[test]
fn one_shard_recovery_rebuilds_golden_snapshot() {
    let out = run_one_shard_script();
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let records = wal::decode_records(&out.records).unwrap();
    let m = ShardedMonitor::recover(&schema, &alphabet, &base, PatternKind::All, 1, None, records)
        .unwrap();
    assert_eq!(hex(&m.snapshot().encode()), ONE_SHARD_SNAPSHOT);
}

/// Keys on both sides of a string value's 22-byte inline bound: 22 and
/// 23 bytes, 40 bytes, and a 23-byte key whose last character, two
/// bytes of UTF-8, straddles the bound.
const KEY_22: &str = "twenty-two-bytes-key-a";
const KEY_23: &str = "twenty-three-bytes-keyb";
const KEY_40: &str = "a forty-byte key, held behind a pointer.";
const KEY_STRADDLE: &str = "twenty-one-bytes-key-é";

/// The long-key script: a two-shard monitor whose keys and string
/// constants sit on both sides of the inline bound. A create block, two
/// specializations, then modifies that move a long and a straddling
/// value into another attribute, and a delete. These fixtures were
/// generated before strings of up to 22 bytes were stored inside the
/// value, and must keep passing unedited.
fn run_long_key_script() -> Outputs {
    assert_eq!(
        [KEY_22, KEY_23, KEY_40, KEY_STRADDLE].map(str::len),
        [22, 23, 40, 23],
        "key lengths in bytes"
    );
    assert!(!KEY_STRADDLE.is_char_boundary(22), "the last character straddles the bound");
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let ts = parse_transactions(
        &schema,
        r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "a name longer than the inline bound" }); }
        transaction St(x) {
          specialize(PERSON, STUDENT, { SSN = x }, { Major = "Électrotechnique et réseaux", FirstEnroll = 1 });
        }
        transaction Rn(x, y) { modify(PERSON, { SSN = x }, { Name = y }); }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#,
    )
    .unwrap();
    let records = Arc::new(Mutex::new(RecordBytes::default()));
    let sink: SharedSink = records.clone();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &base, PatternKind::All, 2).with_sink(sink);
    let args = |ks: &[&str]| Assignment::new(ks.iter().map(|k| Value::str(k)).collect());
    let mk = ts.get("Mk").unwrap();
    let creates: Vec<Assignment> =
        [KEY_22, KEY_23, KEY_40, KEY_STRADDLE].iter().map(|k| args(&[k])).collect();
    assert_eq!(m.try_apply_batch(creates.iter().map(|a| (mk, a))), (4, None));
    m.try_apply(ts.get("St").unwrap(), &args(&[KEY_STRADDLE])).unwrap();
    m.try_apply(ts.get("St").unwrap(), &args(&[KEY_40])).unwrap();
    let first_increment = m.checkpoint_delta().encode();
    m.try_apply(ts.get("Rn").unwrap(), &args(&[KEY_23, KEY_40])).unwrap();
    m.try_apply(ts.get("Rn").unwrap(), &args(&[KEY_22, KEY_STRADDLE])).unwrap();
    m.try_apply(ts.get("Rm").unwrap(), &args(&[KEY_40])).unwrap();
    assert_eq!(m.db().num_objects(), 3);
    let second_increment = m.checkpoint_delta().encode();
    let snapshot = m.snapshot().encode();
    let records = std::mem::take(&mut records.lock().unwrap().0);
    Outputs { snapshot, records, first_increment, second_increment }
}

const LONG_KEY_SNAPSHOT: &str = concat!(
    "4d47534e50330000000001a20106000000060000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000050000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000104000000050000000200000002000000020000000200000005",
    "030101020001167477656e74792d74776f2d62797465732d6b65792d610101177477656e74792d6f6e652d62",
    "797465732d6b65792dc3a90201020001177477656e74792d74687265652d62797465732d6b65796201012861",
    "20666f7274792d62797465206b65792c2068656c6420626568696e64206120706f696e7465722e0405040001",
    "177477656e74792d6f6e652d62797465732d6b65792dc3a901012361206e616d65206c6f6e67657220746861",
    "6e2074686520696e6c696e6520626f756e6404011dc3896c656374726f746563686e697175652065742072c3",
    "a973656175780500020209000002020201010102040402020104030503000000000101010103030102020101",
    "0103030200090000020101010101010303020301030306000903000000000101010104000102020101010400",
    "0200",
);
const LONG_KEY_RECORDS: &str = concat!(
    "3d0100003946ee610004010201010601020001167477656e74792d74776f2d62797465732d6b65792d610101",
    "2361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e640203010206010200",
    "01177477656e74792d74687265652d62797465732d6b65796201012361206e616d65206c6f6e676572207468",
    "616e2074686520696e6c696e6520626f756e64030401030601020001286120666f7274792d62797465206b65",
    "792c2068656c6420626568696e64206120706f696e7465722e01012361206e616d65206c6f6e676572207468",
    "616e2074686520696e6c696e6520626f756e64040501040601020001177477656e74792d6f6e652d62797465",
    "732d6b65792dc3a901012361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f75",
    "6e64020000040001020301000400010203b7000000e495e0ed0001050501040701020001177477656e74792d",
    "6f6e652d62797465732d6b65792dc3a901012361206e616d65206c6f6e676572207468616e2074686520696e",
    "6c696e6520626f756e6405040001177477656e74792d6f6e652d62797465732d6b65792dc3a901012361206e",
    "616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e6404011dc3896c656374726f74",
    "6563686e697175652065742072c3a97365617578050002020004010001040100d9000000d473c47d00010505",
    "01030701020001286120666f7274792d62797465206b65792c2068656c6420626568696e64206120706f696e",
    "7465722e01012361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e640504",
    "0001286120666f7274792d62797465206b65792c2068656c6420626568696e64206120706f696e7465722e01",
    "012361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e6404011dc3896c65",
    "6374726f746563686e697175652065742072c3a9736561757805000202000501000105010099000000878527",
    "800001050501020701020001177477656e74792d74687265652d62797465732d6b65796201012361206e616d",
    "65206c6f6e676572207468616e2074686520696e6c696e6520626f756e6401020001177477656e74792d7468",
    "7265652d62797465732d6b6579620101286120666f7274792d62797465206b65792c2068656c642062656869",
    "6e64206120706f696e7465722e020006010001060100860000002a09c04e0001050501010701020001167477",
    "656e74792d74776f2d62797465732d6b65792d6101012361206e616d65206c6f6e676572207468616e207468",
    "6520696e6c696e6520626f756e6401020001167477656e74792d74776f2d62797465732d6b65792d61010117",
    "7477656e74792d6f6e652d62797465732d6b65792dc3a90200070100010701008600000041db2c9000010505",
    "01030505040001286120666f7274792d62797465206b65792c2068656c6420626568696e64206120706f696e",
    "7465722e01012361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e640401",
    "1dc3896c656374726f746563686e697175652065742072c3a97365617578050002020008010001080100",
);
const LONG_KEY_FIRST_INCREMENT: &str = concat!(
    "4d47444c54320000000001a20106000000060000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000050000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000104000000050000000200000002000000020000000200000005",
    "04010101020001167477656e74792d74776f2d62797465732d6b65792d6101012361206e616d65206c6f6e67",
    "6572207468616e2074686520696e6c696e6520626f756e64020101020001177477656e74792d74687265652d",
    "62797465732d6b65796201012361206e616d65206c6f6e676572207468616e2074686520696e6c696e652062",
    "6f756e64030105040001286120666f7274792d62797465206b65792c2068656c6420626568696e6420612070",
    "6f696e7465722e01012361206e616d65206c6f6e676572207468616e2074686520696e6c696e6520626f756e",
    "6404011dc3896c656374726f746563686e697175652065742072c3a973656175780500020401050400011774",
    "77656e74792d6f6e652d62797465732d6b65792dc3a901012361206e616d65206c6f6e676572207468616e20",
    "74686520696e6c696e6520626f756e6404011dc3896c656374726f746563686e697175652065742072c3a973",
    "6561757805000202060000020202010101020404020201040305030000000001010101030301020201010103",
    "030200060000020101010101010303020201030306030000000001010101030301020201010103030200",
);
const LONG_KEY_SECOND_INCREMENT: &str = concat!(
    "4d47444c54320000000001a20106000000060000000000000001000000000100000002000000030000000200",
    "0000020000000104000000010000000200000003000000020000000200000000020000000200000002000000",
    "0200000002000000020000000104000000050000000200000003000000020000000200000001040000000200",
    "0000020000000200000002000000020000000104000000050000000200000002000000020000000200000005",
    "03010101020001167477656e74792d74776f2d62797465732d6b65792d610101177477656e74792d6f6e652d",
    "62797465732d6b65792dc3a9020101020001177477656e74792d74687265652d62797465732d6b6579620101",
    "286120666f7274792d62797465206b65792c2068656c6420626568696e64206120706f696e7465722e030002",
    "0900000102020101010203000000000101010103030102020101010303020009000002010101010101030302",
    "03010303060009030000000001010101040001020201010104000200",
);

#[test]
fn long_key_snapshot_bytes_match_golden() {
    assert_eq!(hex(&run_long_key_script().snapshot), LONG_KEY_SNAPSHOT);
}

#[test]
fn long_key_log_record_bytes_match_golden() {
    assert_eq!(hex(&run_long_key_script().records), LONG_KEY_RECORDS);
}

#[test]
fn long_key_checkpoint_increment_bytes_match_golden() {
    let out = run_long_key_script();
    assert_eq!(hex(&out.first_increment), LONG_KEY_FIRST_INCREMENT);
    assert_eq!(hex(&out.second_increment), LONG_KEY_SECOND_INCREMENT);
}

/// Folding the long-key log rebuilds the golden snapshot: the decoder
/// reads each key back into the form its length calls for.
#[test]
fn long_key_recovery_rebuilds_golden_snapshot() {
    let out = run_long_key_script();
    let schema = university_schema();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let base =
        Inventory::parse_init(&schema, &alphabet, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
    let records = wal::decode_records(&out.records).unwrap();
    let m = ShardedMonitor::recover(&schema, &alphabet, &base, PatternKind::All, 2, None, records)
        .unwrap();
    assert_eq!(hex(&m.snapshot().encode()), LONG_KEY_SNAPSHOT);
}
