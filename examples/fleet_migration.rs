//! Fleet migration at scale: sharded, batched admission over a schema
//! with four independent weakly-connected role components — each on its
//! **own letter clock** — with an optional **durable mode** (write-ahead
//! log + background incremental checkpoints + crash recovery).
//!
//! A logistics operator runs four separate asset hierarchies — trucks,
//! drivers, routes and depots — in one store. The components are
//! weakly disconnected, so (Definition 2.2) no object ever crosses
//! between them, and (Lemma 3.5) their objects evolve independently:
//! the [`ShardedMonitor`] routes each component to its own shard, and
//! with per-shard letter clocks the shards share *no* mutable state —
//! a truck operation advances only the truck shard's clock.
//!
//! The example bulk-loads 100 000 objects (25 000 per component), then
//! admits a day of operations — blocks of single-object migrations —
//! through [`ShardedMonitor::try_apply_batch`], one cohort sweep per
//! participating shard per block, and prints per-shard tracking
//! statistics.
//!
//! ```text
//! cargo run --release --example fleet_migration                  # volatile
//! cargo run --release --example fleet_migration -- \
//!     --durable DIR [--snapshot-every N] [--crash-after N]       # log to DIR
//! cargo run --release --example fleet_migration -- \
//!     --durable DIR --recover                                    # resume
//! ```
//!
//! In durable mode every admitted block group-commits to `DIR/wal.log`
//! before the monitor's tracking state moves. Checkpoints are
//! **incremental and backgrounded**: every `N` blocks the admission
//! thread captures the dirtied state (O(dirty)) and seals the log (a
//! rename), while a [`Snapshotter`] thread encodes and writes the
//! checkpoint and prunes covered log segments — the admission path
//! never pays the full-snapshot pause. `--crash-after N` aborts the
//! process at the top of day-block `N` — immediately after a
//! checkpoint was handed to the snapshotter when `N` is a multiple of
//! `--snapshot-every`, so the crash lands **during an in-flight
//! checkpoint** and recovery must cope with whatever prefix of the
//! checkpoint job reached disk. `--recover` rebuilds the monitor from
//! the checkpoint chain + WAL tail (**without** replaying the fleet's
//! history), verifies the database invariants, prints recovery
//! statistics and finishes the remaining work durably. The CI
//! crash-recovery smoke job runs exactly this crash/recover pair.
//!
//! The rush-hour phase below drives the same `enforce::ingress` lanes
//! that `migctl serve` puts behind a TCP socket — to run this scenario
//! with callers that share nothing with the process but the wire
//! protocol, see `migctl serve`/`migctl client` (`docs/PROTOCOL.md`)
//! and the perfbench workloads (`perfbench/README.md`).

use migratory::core::enforce::{
    ingress, CheckpointData, IngressConfig, ShardedMonitor, Snapshotter, StepPolicy, Wal,
};
use migratory::core::{Inventory, PatternKind};
use migratory::lang::{Assignment, Transaction};
use migratory::model::Value;
use migratory_bench::{fleet, fleet_ops, FLEET_INVENTORY};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const PER_COMPONENT: usize = 25_000;
const BATCH: usize = 256;
const BATCHES: usize = 8;
/// Letters each shard reads per 256-op day block (per 8-op cycle:
/// Dispatch+Park the truck, StartShift+one effective EndShift for the
/// driver, one route activation, one depot opening; the two repeat
/// EndShifts are null applications under `OnlyChanging`).
const LETTERS_PER_BLOCK: [usize; 4] = [64, 64, 32, 32];

struct Options {
    durable: Option<String>,
    snapshot_every: usize,
    crash_after: Option<usize>,
    recover: bool,
}

fn parse_args() -> Options {
    let mut opts = Options { durable: None, snapshot_every: 4, crash_after: None, recover: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--durable" => opts.durable = Some(args.next().expect("--durable DIR")),
            "--snapshot-every" => {
                opts.snapshot_every =
                    args.next().and_then(|v| v.parse().ok()).expect("--snapshot-every N")
            }
            "--crash-after" => opts.crash_after = args.next().and_then(|v| v.parse().ok()),
            "--recover" => opts.recover = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    if (opts.recover || opts.crash_after.is_some()) && opts.durable.is_none() {
        panic!("--recover/--crash-after require --durable DIR");
    }
    opts
}

fn main() {
    let opts = parse_args();
    // The schema, transactions and day schedule are the shared fleet
    // workload from migratory-bench (also behind `experiments
    // tail-smoke`), so example and bench cannot drift apart.
    let (schema, alphabet, ts) = fleet();
    assert_eq!(schema.num_components(), 4);
    let inventory =
        Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).expect("inventory parses");

    let mut monitor;
    let mut blocks_done = 0usize; // day-blocks already durable before this run
    if opts.recover {
        let dir = opts.durable.as_deref().expect("checked in parse_args");
        let t0 = Instant::now();
        let (snap, tail) = Wal::load(dir).expect("load wal directory");
        let snap_clocks = snap.as_ref().map_or_else(Vec::new, |s| s.clocks());
        let tail_blocks = tail.len();
        let tail_letters: usize =
            tail.iter().map(migratory::core::enforce::WalRecord::letters).sum();
        monitor = ShardedMonitor::recover(
            &schema,
            &alphabet,
            &inventory,
            PatternKind::All,
            4,
            snap,
            tail,
        )
        .expect("recovery succeeds")
        .with_policy(StepPolicy::OnlyChanging);
        let dt = t0.elapsed();
        monitor.db().check_invariants(&schema).expect("recovered database is well-formed");
        let clocks = monitor.clocks();
        println!("fleet_migration: RECOVERED from {dir} in {dt:.2?}");
        println!(
            "  checkpoint chain at clocks {snap_clocks:?} + {tail_blocks} wal blocks \
             ({tail_letters} deltas) = clocks {clocks:?}, {} objects — no history replayed",
            monitor.db().num_objects()
        );
        // Everything the crashed run made durable is back; figure out
        // how much of the day was already admitted from each shard's
        // own clock (the bulk load put PER_COMPONENT letters on each).
        for (s, &c) in clocks.iter().enumerate() {
            assert!(c >= PER_COMPONENT, "shard {s}: the bulk load was durable before the crash");
            let day = c - PER_COMPONENT;
            // Clocks past the full day belong to the rush-hour phase of
            // a run that crashed (or finished) after its day completed.
            let blocks = (day / LETTERS_PER_BLOCK[s]).min(BATCHES);
            if blocks < BATCHES {
                assert_eq!(day % LETTERS_PER_BLOCK[s], 0, "shard {s}: crash at block boundary");
            }
            if s == 0 {
                blocks_done = blocks;
            } else {
                assert_eq!(blocks, blocks_done, "shard {s}: shards crashed at the same block");
            }
        }
        println!("  resuming the day at block {blocks_done}/{BATCHES}");
    } else {
        monitor = ShardedMonitor::new(&schema, &alphabet, &inventory, PatternKind::All, 4)
            .with_policy(StepPolicy::OnlyChanging);
    }
    assert!(monitor.routes_by_component(), "four components → four shards");

    // Attach the log (fresh runs and recovered runs alike) and stand up
    // the background snapshotter.
    let wal = match opts.durable.as_deref() {
        Some(dir) => {
            let wal = Arc::new(Mutex::new(Wal::open(dir).expect("open wal directory")));
            monitor = monitor.with_sink(wal.clone());
            Some(wal)
        }
        None => None,
    };
    let mut snapshotter = wal.as_ref().map(|_| Snapshotter::spawn());
    println!(
        "fleet_migration: {} shards (component-routed, independent letter clocks), batch size \
         {BATCH}{}",
        monitor.num_shards(),
        match &opts.durable {
            Some(dir) => format!(", durable in {dir}"),
            None => String::new(),
        }
    );

    if !opts.recover {
        // Bulk load: 25k single-create applications per component,
        // admitted in blocks — each application is one letter on its
        // own component's clock.
        let t0 = Instant::now();
        for (mk, prefix) in
            [("BuyTruck", "t"), ("HireDriver", "d"), ("OpenRoute", "r"), ("BuildDepot", "p")]
        {
            let t = ts.get(mk).expect("transaction exists");
            let bulk = bulk_of(t, prefix, PER_COMPONENT);
            let (done, err) = monitor.try_apply_batch(bulk.iter().map(|(t, a)| (*t, a)));
            assert_eq!((done, err), (PER_COMPONENT, None), "bulk load conforms");
        }
        println!(
            "loaded {} objects in {:.2?} (clocks {:?})",
            monitor.db().num_objects(),
            t0.elapsed(),
            monitor.clocks()
        );
    }
    if let (Some(wal), Some(snapshotter)) = (&wal, &mut snapshotter) {
        // Base checkpoint of the loaded (or recovered) fleet, written
        // in the background: the admission thread pays only the
        // capture. A recovered run re-establishes the base when the
        // crash killed the base checkpoint job itself — increments can
        // only chain onto an existing base.
        if !wal.lock().unwrap().has_base() {
            let t0 = Instant::now();
            let job = wal
                .lock()
                .unwrap()
                .begin_checkpoint(CheckpointData::Full(monitor.checkpoint_full()))
                .expect("stage base checkpoint");
            let stall = t0.elapsed();
            snapshotter.submit(job).expect("snapshotter accepts");
            println!("staged the base checkpoint in {stall:.2?} (encode/write backgrounded)");
        }
    }

    // A day of operations, admitted batch-wise; in durable mode every
    // block group-commits to the WAL and every `snapshot_every` blocks
    // the admission thread captures an O(dirty) incremental checkpoint
    // and hands it to the snapshotter (which prunes the covered log).
    let day = fleet_ops(BATCHES * BATCH, PER_COMPONENT);
    let resolved: Vec<(&Transaction, Assignment)> =
        day.iter().map(|(name, args)| (ts.get(name).expect("transaction"), args.clone())).collect();

    let t0 = Instant::now();
    let mut admitted = 0usize;
    let mut max_stall = std::time::Duration::ZERO;
    for (i, block) in resolved.chunks(BATCH).enumerate().skip(blocks_done) {
        if let Some(crash_at) = opts.crash_after {
            if i >= crash_at {
                println!(
                    "simulated CRASH before block {i}/{BATCHES} — clocks {:?} durable{}; \
                     run again with `--durable … --recover`",
                    monitor.clocks(),
                    if i % opts.snapshot_every == 0 && i > 0 {
                        " (a checkpoint is in flight)"
                    } else {
                        ""
                    }
                );
                // A real crash: no clean shutdown — the WAL is whatever
                // reached the OS, and the snapshotter thread dies
                // mid-write if a checkpoint job is still running
                // (std::process::exit runs no destructors).
                std::process::exit(0);
            }
        }
        let (done, err) = monitor.try_apply_batch(block.iter().map(|(t, a)| (*t, a)));
        assert!(err.is_none(), "the day's operations conform: {err:?}");
        admitted += done;
        if let (Some(wal), Some(snapshotter)) = (&wal, &mut snapshotter) {
            if (i + 1) % opts.snapshot_every == 0 {
                // The admission-path stall: capture the dirtied state
                // and seal the log. Encode + fsync + prune run on the
                // snapshotter thread.
                let t0 = Instant::now();
                let delta = monitor.checkpoint_delta();
                let job = wal
                    .lock()
                    .unwrap()
                    .begin_checkpoint(CheckpointData::Incremental(delta))
                    .expect("stage incremental checkpoint");
                max_stall = max_stall.max(t0.elapsed());
                snapshotter.submit(job).expect("snapshotter accepts");
            }
        }
    }
    let dt = t0.elapsed();
    println!(
        "admitted {admitted} applications in {} batches in {dt:.2?} ({:.0} apps/sec{})",
        BATCHES - blocks_done,
        admitted as f64 / dt.as_secs_f64(),
        if wal.is_some() {
            format!(", max checkpoint stall {max_stall:.2?}")
        } else {
            String::new()
        }
    );

    // An hour of concurrent traffic through the ingress lanes: four
    // producer threads (one per asset class) pipelining single-object
    // ops into the bounded per-shard queues — each lane's blocks
    // advance only its own shard's clock.
    let rush: Vec<(&Transaction, Assignment)> = resolved.iter().take(4 * BATCH).cloned().collect();
    let t0 = Instant::now();
    let cfg = IngressConfig { queue_capacity: 512, max_block: BATCH, ..Default::default() };
    let ((), stats) = ingress::serve(&mut monitor, &cfg, |client| {
        std::thread::scope(|scope| {
            for p in 0..4 {
                let rush = &rush;
                scope.spawn(move || {
                    let tickets: Vec<_> = rush
                        .iter()
                        .skip(p)
                        .step_by(4)
                        .map(|(t, a)| client.post(t, a.clone()))
                        .collect();
                    for t in tickets {
                        t.wait().expect("rush hour conforms");
                    }
                });
            }
        });
    });
    println!(
        "rush hour: {} ops from 4 producers over {} lanes in {:.2?} \
         ({} blocks, max queue depth {})",
        stats.submitted,
        stats.lanes,
        t0.elapsed(),
        stats.blocks,
        stats.max_queue_depth
    );

    println!("\nper-shard tracking statistics:");
    println!(
        "{:>6} {:>10} {:>16} {:>13} {:>15} {:>13}",
        "shard", "clock", "tracked objects", "live cohorts", "exempt objects", "last touched"
    );
    for s in monitor.shard_stats() {
        println!(
            "{:>6} {:>10} {:>16} {:>13} {:>15} {:>13}",
            s.shard, s.clock, s.tracked_objects, s.live_cohorts, s.exempt_objects, s.last_touched
        );
    }
    let total: usize = monitor.shard_stats().iter().map(|s| s.tracked_objects).sum();
    assert_eq!(total, monitor.db().num_objects(), "every live object is tracked in some shard");
    monitor.db().check_invariants(&schema).expect("database is well-formed");
    if let Some(snapshotter) = snapshotter {
        snapshotter.finish().expect("all background checkpoints durable");
    }
    if let Some(wal) = &wal {
        // Final incremental checkpoint, synchronous: the run is over.
        let delta = monitor.checkpoint_delta();
        wal.lock()
            .unwrap()
            .begin_checkpoint(CheckpointData::Incremental(delta))
            .expect("stage final checkpoint")
            .run()
            .expect("final checkpoint");
        println!("final checkpoint written");
    }
    println!(
        "\nclocks {:?} ({} letters read); database holds {} objects",
        monitor.clocks(),
        monitor.letters_read(),
        total
    );
}

/// `n` single-create applications of `t` with keys `prefix0..prefixN`.
fn bulk_of<'t>(t: &'t Transaction, prefix: &str, n: usize) -> Vec<(&'t Transaction, Assignment)> {
    (0..n).map(|i| (t, Assignment::new(vec![Value::str(&format!("{prefix}{i}"))]))).collect()
}
