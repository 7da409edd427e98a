//! Allocation budgets of the admission worker's two hot paths, counted
//! by a counting global allocator whose counter is thread-local (each
//! test thread sees only its own allocations) and allocates nothing
//! itself:
//!
//! * capturing an increment of a four-shard monitor encodes straight
//!   from the heap and the records, so it takes a number of allocations
//!   that does not grow with the dirty count;
//! * a steady-state block of 64 toggles through `try_apply_batch`, with
//!   a sink that stages each record's bytes the way the durable ingress
//!   does, stays under a per-op budget;
//! * so does a steady-state block of 64 creates of the fleet workload,
//!   whose one-key tuples and one-segment records are held inline and
//!   whose class memberships are bits.
//!
//! Both count `alloc`, `alloc_zeroed` and `realloc` calls; frees are
//! not counted.

use migratory::core::enforce::{
    wal, BlockRef, CommitSink, ResiduePolicy, ShardedMonitor, SharedSink, WalError,
};
use migratory::core::{Inventory, PatternKind};
use migratory::lang::Assignment;
use migratory::model::Value;
use migratory_bench::workload::{
    bulk_create, fleet, toggle_step, toggle_transactions, university, FLEET_INVENTORY,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// The system allocator, counting each allocation on the calling
/// thread.
struct Counting;

thread_local! {
    /// Allocations made by this thread. A `const`-initialized `Cell`
    /// needs no lazy initialization and no destructor, so reading it
    /// never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while the thread's locals are
    // torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments; counting touches only a thread-local integer.
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

/// Run `f` and return its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Stages each record's framed bytes in one buffer, as the durable
/// ingress's sink does on the admission worker; the caller drains it
/// after each block.
#[derive(Default)]
struct Staging(Vec<u8>);

impl CommitSink for Staging {
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

/// Objects bulk-loaded before either measurement.
const OBJECTS: usize = 10_000;
/// Ops per admitted block, the ingress's default block size.
const BLOCK: usize = 64;

/// Apply toggle steps `from..to` in blocks of [`BLOCK`]; every step
/// conforms.
fn toggle(
    m: &mut ShardedMonitor<'_>,
    ts: &migratory::lang::TransactionSchema,
    from: usize,
    to: usize,
) {
    let steps: Vec<(&'static str, Assignment)> =
        (from..to).map(|i| toggle_step(i, OBJECTS)).collect();
    for block in steps.chunks(BLOCK) {
        let (done, err) = m.try_apply_batch(block.iter().map(|(t, a)| (ts.get(t).unwrap(), a)));
        assert_eq!((done, err.is_none()), (block.len(), true), "toggles conform");
    }
}

#[test]
fn capture_allocations_do_not_grow_with_the_dirty_count() {
    let (schema, alphabet, _) = university();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
    let ts = toggle_transactions(&schema);
    let load = bulk_create(&schema, OBJECTS);
    let capture = |dirty: usize| -> u64 {
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4);
        m.try_apply(&load, &Assignment::empty()).unwrap();
        drop(m.checkpoint_full());
        // Two toggles per object: `dirty` objects change.
        toggle(&mut m, &ts, 0, 2 * dirty);
        let (delta, n) = allocations(|| m.checkpoint_delta());
        assert_eq!(delta.num_dirty_objects(), dirty);
        n
    };
    let (small, large) = (capture(1_000), capture(8_000));
    // Eight times the bytes may cost the increment's one buffer three
    // more doublings; nothing else may depend on the dirty count.
    assert!(
        large <= small + 3,
        "capturing 8,000 dirty objects took {large} allocations, 1,000 took {small}"
    );
}

/// Allocations per admitted op of a steady-state toggle block, at most:
/// the debug build counts 696 in 64 ops (10.875).
const PER_OP_BUDGET: f64 = 10.88;

#[test]
fn a_steady_state_toggle_block_stays_under_its_per_op_budget() {
    let (schema, alphabet, _) = university();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
    let ts = toggle_transactions(&schema);
    let staging = Arc::new(Mutex::new(Staging::default()));
    let sink: SharedSink = staging.clone();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4).with_sink(sink);
    m.try_apply(&bulk_create(&schema, OBJECTS), &Assignment::empty()).unwrap();
    // Warm up: every buffer that persists across blocks reaches its
    // steady size.
    let mut at = 0;
    for _ in 0..32 {
        toggle(&mut m, &ts, at, at + BLOCK);
        staging.lock().unwrap().0.clear();
        at += BLOCK;
    }
    let steps: Vec<(&'static str, Assignment)> =
        (at..at + BLOCK).map(|i| toggle_step(i, OBJECTS)).collect();
    let ((done, err), n) =
        allocations(|| m.try_apply_batch(steps.iter().map(|(t, a)| (ts.get(t).unwrap(), a))));
    assert_eq!((done, err.is_none()), (BLOCK, true), "toggles conform");
    assert!(!staging.lock().unwrap().0.is_empty(), "the block was staged");
    let per_op = n as f64 / BLOCK as f64;
    assert!(
        per_op <= PER_OP_BUDGET,
        "a block of {BLOCK} toggles took {n} allocations, {per_op:.2} per op"
    );
}

/// Allocations per admitted create of a steady-state fleet block, at
/// most: the debug build counts 323 in 64 creates (5.05), against 335
/// while each class's members were a `BTreeSet` of oids and 591 while
/// every one-key tuple and one-segment record had an allocation of its
/// own.
const CREATE_BUDGET: f64 = 5.05;

#[test]
fn a_steady_state_fleet_create_block_stays_under_its_per_op_budget() {
    let (schema, alphabet, ts) = fleet();
    let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
    let staging = Arc::new(Mutex::new(Staging::default()));
    let sink: SharedSink = staging.clone();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4).with_sink(sink);
    // Creates of the four components in turn, each under a fresh key.
    let creates = |from: usize| -> Vec<(&'static str, Assignment)> {
        (from..from + BLOCK)
            .map(|i| {
                let name = ["BuyTruck", "HireDriver", "OpenRoute", "BuildDepot"][i % 4];
                (name, Assignment::new(vec![Value::str(&format!("k{i}"))]))
            })
            .collect()
    };
    let mut apply = |block: &[(&'static str, Assignment)]| {
        let (done, err) = m.try_apply_batch(block.iter().map(|(t, a)| (ts.get(t).unwrap(), a)));
        assert_eq!((done, err.is_none()), (BLOCK, true), "creates conform");
    };
    // Warm up to 2,560 objects: the measured block's 64 creates then
    // reach no doubling of the slab, the record tables or the key maps.
    for b in 0..40 {
        apply(&creates(b * BLOCK));
        staging.lock().unwrap().0.clear();
    }
    let block = creates(40 * BLOCK);
    let ((), n) = allocations(|| apply(&block));
    assert!(!staging.lock().unwrap().0.is_empty(), "the block was staged");
    let per_op = n as f64 / BLOCK as f64;
    assert!(
        per_op <= CREATE_BUDGET,
        "a block of {BLOCK} creates took {n} allocations, {per_op:.2} per op"
    );
}
