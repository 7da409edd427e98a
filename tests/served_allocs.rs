//! Allocations of the served path, counted across the server's threads:
//! steady-state creates of the fleet workload, pipelined over a real
//! socket into an in-process `net::serve`, in the binary and the text
//! dialect, on a volatile and on a durable server.
//!
//! The counting global allocator is process-wide, so this binary holds
//! one test: the test harness runs no other test beside it. The client
//! is the test thread itself, which marks itself so that its own
//! allocations (encoding requests, reading replies) are not counted;
//! every other thread is the server's (event threads, admission worker,
//! committer, snapshotter). A request is decoded from the connection's
//! read buffer, its completion is a plain value, its reply is encoded
//! straight into the write buffer, the interpreter reads `T[α]` in
//! place and a block's bookkeeping works in buffers the engine keeps,
//! so what remains is amortized: the growth of tables that keep their
//! capacity, and checkpoint captures.

use migratory::core::enforce::net::{self, frame, ServerConfig};
use migratory::core::enforce::{
    DurableLog, IngressConfig, ShardedMonitor, Wal, DEFAULT_CHECKPOINT_BYTES,
};
use migratory::core::{Inventory, PatternKind};
use migratory::model::Value;
use migratory_bench::workload::{fleet, FLEET_INVENTORY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The system allocator, counting each allocation of every thread but
/// the client's.
struct Counting;

/// Allocations made by the server's threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread is the client: its allocations are not counted. A
    /// `const`-initialized `Cell` needs no lazy initialization and no
    /// destructor, so reading it never allocates.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down; such an allocation counts.
    if !CLIENT.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments; counting touches only an atomic and a thread-local flag.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Creates per pipelined round: the client writes them in one go, then
/// reads their replies.
const ROUND: usize = 512;
/// Rounds before the measured ones: the server's buffers, queues and
/// tables reach their steady size.
const WARM_UP: usize = 16;
/// Measured rounds per dialect.
const MEASURED: usize = 16;
/// Allocations per served create, at most, on the server's threads.
/// Both profiles count 0.02 or less here (2-vCPU host); each create took
/// about 9 while every request was copied out of the read buffer, its
/// completion boxed, its reply given a vector of its own and `T[α]`
/// built, and about 0.5 to 4 (the more, the smaller the blocks) while
/// each block's bookkeeping still allocated some 20 times.
const PER_REQUEST_BUDGET: f64 = 1.0;

/// The fleet's four create transactions, sent in turn: each block holds
/// one component's creates.
const CREATES: [&str; 4] = ["BuyTruck", "HireDriver", "OpenRoute", "BuildDepot"];

#[derive(Clone, Copy, Debug)]
enum Dialect {
    Binary,
    Text,
}

/// The client side of one connection: sends pipelined rounds of
/// one-key creates under fresh keys and checks every reply.
struct Client {
    conn: TcpStream,
    next_key: usize,
    out: Vec<u8>,
}

impl Client {
    fn round(&mut self, dialect: Dialect) {
        self.out.clear();
        for _ in 0..ROUND {
            let (name, key) = (CREATES[self.next_key % 4], format!("k{}", self.next_key));
            self.next_key += 1;
            match dialect {
                Dialect::Binary => {
                    frame::encode_invoke_frame(&mut self.out, name, &[Value::str(&key)]);
                }
                Dialect::Text => {
                    self.out.extend_from_slice(format!("invoke {name}({key})\n").as_bytes());
                }
            }
        }
        self.conn.write_all(&self.out).unwrap();
        let (reply, want): (&[u8], _) = match dialect {
            Dialect::Binary => (&[frame::MAGIC, frame::REP_OK, 0, 0, 0, 0], frame::HEADER_LEN),
            Dialect::Text => (b"ok\n", 3),
        };
        let mut replies = vec![0u8; want * ROUND];
        self.conn.read_exact(&mut replies).unwrap();
        for got in replies.chunks(want) {
            assert_eq!(got, reply, "every create is admitted");
        }
    }
}

/// Serve the fleet on a fresh server and return the allocations per
/// create its threads made over the measured rounds, per dialect.
fn served(durable: bool) -> Vec<(Dialect, f64)> {
    let (schema, alphabet, ts) = fleet();
    let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
    let dir = std::env::temp_dir().join(format!("migratory-served-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = durable.then(|| Arc::new(Mutex::new(Wal::open(&dir).unwrap())));
    let config = ServerConfig {
        ingress: IngressConfig {
            wal: wal.map(|log| DurableLog { log, repl: None }),
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
            ..Default::default()
        },
        ..Default::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let per_request = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4);
            net::serve(listener, &mut m, &ts, &config).unwrap()
        });
        CLIENT.set(true);
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let mut client = Client { conn, next_key: 0, out: Vec::new() };
        let per_request: Vec<(Dialect, f64)> = [Dialect::Binary, Dialect::Text]
            .into_iter()
            .map(|dialect| {
                for _ in 0..WARM_UP {
                    client.round(dialect);
                }
                let before = ALLOCS.load(Ordering::SeqCst);
                for _ in 0..MEASURED {
                    client.round(dialect);
                }
                let n = ALLOCS.load(Ordering::SeqCst) - before;
                (dialect, n as f64 / (MEASURED * ROUND) as f64)
            })
            .collect();
        client.conn.write_all(b"shutdown\n").unwrap();
        let mut bye = [0u8; 12];
        client.conn.read_exact(&mut bye).unwrap();
        assert_eq!(&bye, b"ok draining\n");
        let stats = server.join().unwrap();
        assert_eq!(stats.admitted, 2 * (WARM_UP + MEASURED) * ROUND);
        CLIENT.set(false);
        per_request
    });
    let _ = std::fs::remove_dir_all(&dir);
    per_request
}

#[test]
fn a_served_create_stays_under_its_allocation_budget() {
    for durable in [false, true] {
        for (dialect, per_request) in served(durable) {
            assert!(
                per_request <= PER_REQUEST_BUDGET,
                "{dialect:?} creates on a {} server took {per_request:.2} allocations each \
                 on the server's threads",
                if durable { "durable" } else { "volatile" }
            );
            eprintln!("{dialect:?} durable={durable}: {per_request:.3} allocations per create");
        }
    }
}
