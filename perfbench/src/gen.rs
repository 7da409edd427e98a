//! Seeded inputs: the fleet schema, its transactions and inventories,
//! and every op stream a workload sends. The server receives only what
//! this module writes; the expected reply of every request is decided
//! here, from a model of the store the generator keeps as it goes.

use std::fmt::Write as _;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `true` with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.next_u64() % 1000 < per_mille
    }
}

/// One role component of the fleet schema: root class, its one
/// subclass, key attribute, and the transactions that create, promote
/// and demote an object of it.
pub struct Component {
    pub root: &'static str,
    pub sub: &'static str,
    pub key: &'static str,
    pub create: &'static str,
    pub up: &'static str,
    pub down: &'static str,
    pub prefix: &'static str,
}

/// Four weakly-connected role components, so `migctl serve` runs four
/// shards and four admission lanes.
pub const COMPONENTS: [Component; 4] = [
    Component {
        root: "TRUCK",
        sub: "IN_SERVICE",
        key: "Vin",
        create: "BuyTruck",
        up: "Dispatch",
        down: "Park",
        prefix: "t",
    },
    Component {
        root: "DRIVER",
        sub: "ON_SHIFT",
        key: "Badge",
        create: "HireDriver",
        up: "StartShift",
        down: "EndShift",
        prefix: "d",
    },
    Component {
        root: "ROUTE",
        sub: "ACTIVE",
        key: "RId",
        create: "OpenRoute",
        up: "Activate",
        down: "Deactivate",
        prefix: "r",
    },
    Component {
        root: "DEPOT",
        sub: "OPEN",
        key: "DId",
        create: "BuildDepot",
        up: "OpenDepot",
        down: "CloseDepot",
        prefix: "p",
    },
];

/// Deleting a truck. Sent only while the strict inventory is in force
/// and the truck is in service, so it is always a scripted violation.
pub const SCRAP: &str = "Scrap";

/// Trucks cycle between parked and in service and may leave the fleet
/// in either state; the other components read ∅ under component 0.
pub const LENIENT: &str = "∅* ([TRUCK] ∪ [IN_SERVICE])* ∅*";

/// As [`LENIENT`], but a truck must be parked before it leaves.
pub const STRICT: &str =
    "(∅* ([TRUCK] ∪ [IN_SERVICE])*) ∪ (∅* ([TRUCK] ∪ [IN_SERVICE])* [TRUCK] ∅*)";

/// The residue policy of every scripted `redefine`: each cohort restarts
/// at its current role, so a later violation depends only on what the
/// object did after the swap.
pub const REDEFINE_POLICY: &str = "certify-and-reset";

pub fn schema_src() -> String {
    let mut s = String::from("schema Fleet {\n");
    for c in &COMPONENTS {
        let _ = writeln!(s, "  class {} {{ {} }}", c.root, c.key);
        let _ = writeln!(s, "  class {} isa {} {{ }}", c.sub, c.root);
    }
    s.push_str("}\n");
    s
}

pub fn transactions_src() -> String {
    let mut s = String::new();
    for c in &COMPONENTS {
        let (r, sub, k) = (c.root, c.sub, c.key);
        let _ = writeln!(s, "transaction {}(x) {{ create({r}, {{ {k} = x }}); }}", c.create);
        let _ = writeln!(
            s,
            "transaction {}(x) {{ specialize({r}, {sub}, {{ {k} = x }}, {{}}); }}",
            c.up
        );
        let _ = writeln!(s, "transaction {}(x) {{ generalize({sub}, {{ {k} = x }}); }}", c.down);
    }
    let _ = writeln!(s, "transaction {SCRAP}(x) {{ delete(TRUCK, {{ Vin = x }}); }}");
    s
}

/// Object `i` of a store: component `i % 4`, key `<prefix><i / 4>`.
pub fn key_of(i: usize) -> String {
    format!("{}{}", COMPONENTS[i % 4].prefix, i / 4)
}

/// The reply a request must get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `ok` with no detail (an invoke).
    Ok,
    /// `violation …[epoch E]`.
    Violation { epoch: u64 },
    /// `ok epoch=E residue=R`.
    Redefined { epoch: u64, residue: usize },
    /// `ok query count=N …`.
    Count(usize),
}

/// One request of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `invoke name(key)`.
    Invoke { name: &'static str, key: String, expect: Expect },
    /// `redefine <policy> <src>`: a barrier the client sends alone.
    Redefine { src: &'static str, expect: Expect },
    /// `query <body>`.
    Query { body: String, expect: Expect },
}

/// The model of one store: which objects sit in their component's
/// subclass. Each object is written by exactly one stream, so the model
/// predicts every verdict however the streams interleave.
pub struct Model {
    pub objects: usize,
    pub promoted: Vec<bool>,
    /// Trucks bought during migrations (keys `v0…`) whose dispatch has
    /// been sent: each is then refused its scrap, so it stays in service.
    pub fresh_trucks: usize,
}

impl Model {
    pub fn new(objects: usize) -> Model {
        Model { objects, promoted: vec![false; objects], fresh_trucks: 0 }
    }

    /// Fold in the model of another stream's (disjoint) objects.
    pub fn absorb(&mut self, other: &Model) {
        for (p, q) in self.promoted.iter_mut().zip(&other.promoted) {
            *p |= *q;
        }
        self.fresh_trucks += other.fresh_trucks;
    }

    /// Subclass members per component: what `query <sub>` must count.
    pub fn promoted_per_component(&self) -> [usize; 4] {
        let mut n = [self.fresh_trucks, 0, 0, 0];
        for (i, &p) in self.promoted.iter().enumerate() {
            n[i % 4] += usize::from(p);
        }
        n
    }

    /// The four class queries that check a store's final state.
    pub fn state_queries(&self) -> Vec<Op> {
        let n = self.promoted_per_component();
        COMPONENTS
            .iter()
            .zip(n)
            .map(|(c, k)| Op::Query { body: c.sub.to_owned(), expect: Expect::Count(k) })
            .collect()
    }
}

/// Creates for the objects `owner` loads, in key order.
pub fn load_ops(objects: usize, owner: usize, owners: usize) -> Vec<Op> {
    (0..objects)
        .filter(|i| (i / 4) % owners == owner)
        .map(|i| Op::Invoke { name: COMPONENTS[i % 4].create, key: key_of(i), expect: Expect::Ok })
        .collect()
}

/// An endless stream of migrations over the objects one connection
/// owns, keys drawn uniformly. With `redefine_every > 0` it also
/// alternates the strict and lenient inventories every that many
/// migrations and, under the strict one, scripts a violation at
/// `scrap_per_mille`: buy a truck, dispatch it, scrap it in service.
pub struct Writer {
    rng: Rng,
    owned: Vec<u32>,
    redefine_every: usize,
    scrap_per_mille: u64,
    since_redefine: usize,
    strict: bool,
    epoch: u64,
    /// Fresh trucks bought so far: the next one's key number.
    bought: usize,
    queued: std::collections::VecDeque<Op>,
}

impl Writer {
    pub fn new(
        seed: u64,
        objects: usize,
        owner: usize,
        owners: usize,
        redefine_every: usize,
        scrap_per_mille: u64,
    ) -> Writer {
        let owned: Vec<u32> =
            (0..objects as u32).filter(|i| (*i as usize / 4) % owners == owner).collect();
        Writer {
            rng: Rng::new(seed, 1 + owner as u64),
            owned,
            redefine_every,
            scrap_per_mille,
            since_redefine: 0,
            strict: false,
            epoch: 0,
            bought: 0,
            queued: std::collections::VecDeque::new(),
        }
    }

    /// The next op, with `model` updated as if it had been admitted. A
    /// stream may stop after any op, so the model follows each op as it
    /// goes out, not each script as it is planned.
    pub fn next(&mut self, model: &mut Model) -> Op {
        if let Some(op) = self.queued.pop_front() {
            // Only a fresh truck's dispatch and scrap are ever queued.
            if matches!(&op, Op::Invoke { name, .. } if *name == COMPONENTS[0].up) {
                model.fresh_trucks += 1;
            }
            return op;
        }
        if self.redefine_every > 0 && self.since_redefine == self.redefine_every {
            self.since_redefine = 0;
            self.strict = !self.strict;
            self.epoch += 1;
            // Under certify-and-reset every live truck cohort restarts on
            // the way into the strict inventory; none does on the way out.
            let trucks = model.objects.div_ceil(4) + model.fresh_trucks;
            return Op::Redefine {
                src: if self.strict { STRICT } else { LENIENT },
                expect: Expect::Redefined {
                    epoch: self.epoch,
                    residue: if self.strict { trucks } else { 0 },
                },
            };
        }
        self.since_redefine += 1;
        if self.strict && self.rng.chance(self.scrap_per_mille) {
            let key = format!("v{}", self.bought);
            self.bought += 1;
            let c = &COMPONENTS[0];
            let violation = Expect::Violation { epoch: self.epoch };
            self.queued.extend([
                Op::Invoke { name: c.up, key: key.clone(), expect: Expect::Ok },
                Op::Invoke { name: SCRAP, key: key.clone(), expect: violation },
            ]);
            return Op::Invoke { name: c.create, key, expect: Expect::Ok };
        }
        let i = self.owned[self.rng.below(self.owned.len())] as usize;
        let c = &COMPONENTS[i % 4];
        let up = !model.promoted[i];
        model.promoted[i] = up;
        Op::Invoke { name: if up { c.up } else { c.down }, key: key_of(i), expect: Expect::Ok }
    }
}

/// An endless stream of point reads by key over the loaded store. Every
/// loaded object lives to the end (each scrape is refused), so every
/// read counts exactly one object.
pub struct Reader {
    rng: Rng,
    objects: usize,
}

impl Reader {
    pub fn new(seed: u64, objects: usize) -> Reader {
        Reader { rng: Rng::new(seed, 0x5eed), objects }
    }

    pub fn next(&mut self) -> Op {
        let i = self.rng.below(self.objects);
        let c = &COMPONENTS[i % 4];
        Op::Query { body: format!("{}({}={})", c.root, c.key, key_of(i)), expect: Expect::Count(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut m1 = Model::new(64);
        let mut m2 = Model::new(64);
        let mut a = Writer::new(7, 64, 0, 1, 10, 500);
        let mut b = Writer::new(7, 64, 0, 1, 10, 500);
        for _ in 0..500 {
            assert_eq!(a.next(&mut m1), b.next(&mut m2));
        }
        assert_eq!(m1.promoted, m2.promoted);
    }

    #[test]
    fn writers_touch_only_their_objects() {
        let mut m = Model::new(64);
        let mut w = Writer::new(3, 64, 1, 2, 0, 0);
        for _ in 0..200 {
            let Op::Invoke { key, .. } = w.next(&mut m) else { panic!("no redefines") };
            let k: usize = key[1..].parse().unwrap();
            assert_eq!(k % 2, 1, "{key}");
        }
        assert_eq!(load_ops(64, 0, 2).len() + load_ops(64, 1, 2).len(), 64);
    }

    #[test]
    fn scrapes_only_fresh_in_service_trucks_under_the_strict_inventory() {
        let mut m = Model::new(32);
        let mut w = Writer::new(11, 32, 0, 1, 20, 300);
        let (mut strict, mut scrapes, mut last) = (false, 0, Vec::new());
        for _ in 0..2000 {
            let op = w.next(&mut m);
            match &op {
                Op::Redefine { src, .. } => strict = *src == STRICT,
                Op::Invoke { name: SCRAP, key, expect } => {
                    assert!(strict && key.starts_with('v'));
                    assert!(matches!(expect, Expect::Violation { .. }));
                    let bought = |n: &str| {
                        last.iter().any(|o| matches!(o, Op::Invoke { name, key: k, .. } if *name == n && k == key))
                    };
                    assert!(bought("BuyTruck") && bought("Dispatch"));
                    scrapes += 1;
                }
                Op::Invoke { .. } | Op::Query { .. } => {}
            }
            last.push(op);
            if last.len() > 3 {
                last.remove(0);
            }
        }
        assert!(scrapes > 0);
        assert!(m.promoted_per_component()[0] >= m.fresh_trucks);
    }

    #[test]
    fn the_model_holds_wherever_the_stream_stops() {
        let mut m = Model::new(32);
        let mut w = Writer::new(5, 32, 0, 1, 20, 300);
        let mut dispatched = 0;
        for _ in 0..2000 {
            if let Op::Invoke { name: "Dispatch", key, .. } = w.next(&mut m) {
                dispatched += usize::from(key.starts_with('v'));
            }
            assert_eq!(m.fresh_trucks, dispatched);
        }
        assert!(dispatched > 0);
    }
}
