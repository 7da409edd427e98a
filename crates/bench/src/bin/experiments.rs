//! Regenerate every experiment row of EXPERIMENTS.md.
//!
//! Usage: `cargo run -p migratory-bench --bin experiments --release [-- <id>]`
//! with ids: fig1-2, ex3.4, thm3.2, cor3.3, thm4.3, ex4.1, thm5.1,
//! baseline, enforce, enforce-large, sat-heavy, batch-admit, persist,
//! repl, serve, smoke, tail-smoke, flow, all (default).
//!
//! `enforce-large` additionally writes `BENCH_enforce.json` (throughput /
//! latency trajectory of the delta monitor vs the reference monitor,
//! the indexed-vs-scan `sat_heavy` comparison, and the sharded
//! `batch_admit` comparison, on 10k–1M-object databases) to the current
//! directory. `persist` writes `BENCH_persist.json` (time-to-recover
//! from the checkpoint chain + WAL tail vs full history replay at
//! 10k–1M objects, the admission-path checkpoint stall — O(dirty)
//! incremental capture vs the old full-snapshot encode pause — and
//! queued-ingress vs direct batch admission throughput).
//! `sat-heavy` and `batch-admit` print their rows without touching any
//! file; `smoke` runs tiny versions of all of them (the CI bench-smoke
//! entry point).

use migratory_bench::*;
use migratory_chomsky::turing::machines;
use migratory_core::tm_compile::{compile_tm, drive_word, standard_tm_schema, TmSpec};
use migratory_core::{
    analyze_families, decide_with_families, explore, AnalyzeOptions, ExploreConfig, Inventory,
    PatternKind,
};
use migratory_lang::Assignment;
use migratory_model::Instance;
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let all = which == "all";
    if all || which == "fig1-2" {
        fig1_2();
    }
    if all || which == "ex3.4" || which == "thm3.2" {
        thm3_2();
    }
    if all || which == "cor3.3" || which == "baseline" {
        cor3_3_baseline();
    }
    if all || which == "thm4.3" {
        thm4_3();
    }
    if all || which == "ex4.1" {
        ex4_1();
    }
    if all || which == "thm5.1" {
        thm5_1();
    }
    if all || which == "enforce" {
        enforce_row();
    }
    if all || which == "enforce-large" {
        enforce_large_row();
    }
    if which == "sat-heavy" {
        sat_heavy_rows(&[(100_000, 2_000, 100), (1_000_000, 2_000, 20)]);
    }
    if which == "batch-admit" {
        batch_admit_rows(&[(100_000, 1_024)]);
    }
    if which == "redefine-latency" {
        redefine_latency_rows(&[(10_000, 64), (100_000, 64), (1_000_000, 64)]);
    }
    if all || which == "persist" {
        // History scales with the store: a checkpointed monitor recovers
        // in O(snapshot + tail) no matter how long the run was, while
        // "recovery by replay" pays for every letter ever admitted.
        persist_row(
            &[(10_000, 16_384, 512), (100_000, 32_768, 512), (1_000_000, 131_072, 512)],
            &[(4_096, 16_384, 4)],
            &[(250_000, 16_384, 4)],
            &[(4_096, 65_536)],
            &[1, 16, 256, 1_024],
        );
    }
    if which == "repl" {
        // Prints the BENCH_persist.json `repl` fragment for splicing.
        println!("{}", repl_rows(&[(250_000, 16_384, 4)]));
    }
    if which == "serve" {
        serve_rows(&[(4_096, 65_536)], &[1, 16, 256, 1_024]);
    }
    if which == "tail-smoke" {
        tail_smoke();
    }
    if which == "smoke" {
        // Tiny versions of the new workloads — the CI bench-smoke entry.
        // `enforce_row` keeps the certified fast path compiled and run.
        enforce_row();
        sat_heavy_rows(&[(2_000, 400, 50)]);
        batch_admit_rows(&[(2_000, 256)]);
        redefine_latency_rows(&[(2_000, 16)]);
        recover_rows(&[(2_000, 200, 64)]);
        ingress_rows(&[(512, 2_048, 4)]);
        repl_rows(&[(512, 2_048, 4)]);
        serve_rows(&[(256, 2_048)], &[1, 4]);
    }
    if all || which == "flow" {
        flow_families_row();
    }
}

fn enforce_row() {
    println!("== perf-enforce: runtime enforcement vs static certification ==");
    let (schema, alphabet, ts) = university();
    let inv =
        Inventory::parse_init(&schema, &alphabet, "∅* ([STUDENT]+ [GRAD_ASSIST]*)* ∅*").unwrap();
    let n = 64usize;
    let t1 = ts.get("T1").unwrap();
    let t2 = ts.get("T2").unwrap();
    let t3 = ts.get("T3").unwrap();
    let t4 = ts.get("T4").unwrap();
    let mut script: Vec<(&migratory_lang::Transaction, Assignment)> = Vec::new();
    for i in 0..n {
        use migratory_model::Value;
        let ssn = Value::str(&format!("s{i}"));
        script.push((
            t1,
            Assignment::new(vec![
                Value::str(&format!("n{i}")),
                ssn.clone(),
                Value::int(1990),
                Value::str("CS"),
            ]),
        ));
        script.push((
            t2,
            Assignment::new(vec![ssn.clone(), Value::int(50), Value::int(1), Value::str("D")]),
        ));
        script.push((t3, Assignment::new(vec![ssn.clone()])));
        script.push((t4, Assignment::new(vec![ssn])));
    }

    let t0 = Instant::now();
    let mut db = Instance::empty();
    for (t, args) in &script {
        migratory_lang::apply_transaction(&schema, &mut db, t, args).unwrap();
    }
    let raw = t0.elapsed();

    let t0 = Instant::now();
    let mut m = migratory_core::ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    for (t, args) in &script {
        m.try_apply(t, args).expect("conforming");
    }
    let checked = t0.elapsed();

    let t0 = Instant::now();
    let mut m = migratory_core::ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
    assert!(m.certify(&ts).unwrap());
    let certify_once = t0.elapsed();
    let t0 = Instant::now();
    for (t, args) in &script {
        m.try_apply(t, args).expect("certified");
    }
    let certified = t0.elapsed();

    println!("  {} applications over {n} objects:", script.len());
    println!("{:>16}: {:>10.2?}", "raw interpreter", raw);
    println!(
        "{:>16}: {:>10.2?}  ({:.1}× raw)",
        "checked monitor",
        checked,
        checked.as_secs_f64() / raw.as_secs_f64()
    );
    println!(
        "{:>16}: {:>10.2?}  ({:.1}× raw; one-time certification {:?})",
        "certified",
        certified,
        certified.as_secs_f64() / raw.as_secs_f64(),
        certify_once
    );
    println!();
}

/// Large-database enforcement: bulk-load n objects in one step, then
/// measure steady-state single-object applications under (a) the raw
/// interpreter, (b) the delta/cohort monitor, (c) the reference monitor.
/// Writes `BENCH_enforce.json` with the throughput/latency trajectory.
fn enforce_large_row() {
    use migratory_core::enforce::{ReferenceMonitor, ShardedMonitor};

    println!("== perf-enforce-large: O(touched) monitor vs whole-db rescan ==");
    let configs: [(usize, usize, usize); 3] =
        [(10_000, 400, 100), (100_000, 400, 60), (1_000_000, 200, 5)];
    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>11}",
        "objects", "raw/s", "delta/s", "ref/s", "speedup", "p50 (µs)", "p99 (µs)", "p99.9 (µs)"
    );
    for &(n, steps_new, steps_ref) in &configs {
        let (schema, alphabet, _) = university();
        let inv =
            Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        let ts = toggle_transactions(&schema);
        let bulk = bulk_create(&schema, n);
        let no_args = migratory_lang::Assignment::empty();

        // (a) Raw interpreter: the irreducible cost of the applications
        // themselves (sat-scan included) — no enforcement.
        let mut db = Instance::empty();
        migratory_lang::apply_transaction(&schema, &mut db, &bulk, &no_args).unwrap();
        let t0 = Instant::now();
        for i in 0..steps_new {
            let (name, args) = toggle_step(i, n);
            migratory_lang::apply_transaction(&schema, &mut db, ts.get(name).unwrap(), &args)
                .unwrap();
        }
        let raw_rate = steps_new as f64 / t0.elapsed().as_secs_f64();
        // Free the raw-path instance before timing (b): holding a dead
        // 1M-object heap across the bulk load inflates its allocation
        // costs ~2× and measures memory pressure, not the load path.
        drop(db);

        // (b) Delta/cohort monitor with per-step latencies.
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        let t0 = Instant::now();
        m.try_apply(&bulk, &no_args).expect("bulk load conforms");
        let bulk_load = t0.elapsed();
        let mut lat: Vec<f64> = Vec::with_capacity(steps_new);
        let t_run = Instant::now();
        for i in 0..steps_new {
            let (name, args) = toggle_step(i, n);
            let t0 = Instant::now();
            m.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let delta_rate = steps_new as f64 / t_run.elapsed().as_secs_f64();
        assert_eq!(m.shard_stats()[0].last_touched, 1, "steady-state steps touch one object");
        // Throughput trajectory over ten equal segments of the run: flat
        // means per-step cost does not grow with run length.
        let seg = (steps_new / 10).max(1);
        let trajectory: Vec<f64> =
            lat.chunks(seg).map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e6)).collect();
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| sorted[(p * (sorted.len() - 1) as f64).round() as usize];
        let (p50, p99, p999) = (pct(0.50), pct(0.99), pct(0.999));

        // (c) Reference monitor (fewer steps: each one is O(|db|)).
        let mut r = ReferenceMonitor::new(&schema, &alphabet, &inv, PatternKind::All);
        r.try_apply(&bulk, &no_args).expect("bulk load conforms");
        let t0 = Instant::now();
        for i in 0..steps_ref {
            let (name, args) = toggle_step(i, n);
            r.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
        }
        let ref_rate = steps_ref as f64 / t0.elapsed().as_secs_f64();

        let speedup = delta_rate / ref_rate;
        println!(
            "{n:>10} {raw_rate:>12.0} {delta_rate:>12.0} {ref_rate:>12.1} {speedup:>8.1}× {p50:>10.1} {p99:>10.1} {p999:>11.1}"
        );
        let fmt_list =
            |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(", ");
        rows.push(format!(
            r#"    {{
      "objects": {n},
      "bulk_load_ms": {:.2},
      "raw": {{ "steps": {steps_new}, "apps_per_sec": {raw_rate:.1} }},
      "delta": {{
        "steps": {steps_new},
        "apps_per_sec": {delta_rate:.1},
        "latency_us": {{ "p50": {p50:.1}, "p99": {p99:.1}, "p99.9": {p999:.1} }},
        "throughput_trajectory_apps_per_sec": [{}],
        "touched_per_step": 1
      }},
      "reference": {{ "steps": {steps_ref}, "apps_per_sec": {ref_rate:.1} }},
      "speedup_vs_reference": {speedup:.1}
    }}"#,
            bulk_load.as_secs_f64() * 1e3,
            fmt_list(&trajectory),
        ));
    }
    let sat_heavy = sat_heavy_rows(&[(100_000, 2_000, 100), (1_000_000, 2_000, 20)]);
    let batch_admit = batch_admit_rows(&[(100_000, 1_024)]);
    let redefine_latency = redefine_latency_rows(&[(10_000, 64), (100_000, 64), (1_000_000, 64)]);
    let json = format!(
        r#"{{
  "bench": "enforce_large_db",
  "workload": "bulk-load n persons in one step, then alternating single-object specialize/generalize toggles",
  "inventory": "∅* ([PERSON] ∪ [STUDENT])* ∅*",
  "kind": "all",
  "engines": {{
    "raw": "interpreter only, no enforcement (indexed Sat planning)",
    "delta": "ShardedMonitor::new(.., 1) — incremental delta/cohort engine, one shard",
    "reference": "ReferenceMonitor::new — whole-database rescan per application"
  }},
  "sizes": [
{}
  ],
{sat_heavy},
{batch_admit},
{redefine_latency}
}}
"#,
        rows.join(",\n")
    );
    std::fs::write("BENCH_enforce.json", &json).expect("write BENCH_enforce.json");
    println!("  (wrote BENCH_enforce.json)");
    println!();
}

/// `sat_heavy`: point-condition `Sat` evaluation on a bulk-loaded store —
/// the index-backed planner vs the preserved full-scan oracle
/// ([`Instance::sat_scan`]) — plus the interpreter-level guarded-rename
/// throughput that rides on it. `(objects, indexed queries, scan queries)`
/// per config; returns the `sat_heavy` JSON fragment.
fn sat_heavy_rows(configs: &[(usize, usize, usize)]) -> String {
    println!("== perf-sat-heavy: indexed Sat planning vs full-scan baseline ==");
    println!(
        "{:>10} {:>14} {:>14} {:>9} {:>14}",
        "objects", "indexed µs/q", "scan µs/q", "speedup", "renames/s"
    );
    let mut rows = Vec::new();
    for &(n, q_indexed, q_scan) in configs {
        let (schema, _, _) = university();
        let bulk = bulk_create(&schema, n);
        let no_args = Assignment::empty();
        let mut db = Instance::empty();
        migratory_lang::apply_transaction(&schema, &mut db, &bulk, &no_args).unwrap();

        let queries = point_conditions(&schema, n, q_indexed);
        let t0 = Instant::now();
        let mut hits = 0usize;
        for (p, c) in &queries {
            hits += db.sat(*p, c).len();
        }
        let indexed_us = t0.elapsed().as_secs_f64() * 1e6 / q_indexed as f64;

        let t0 = Instant::now();
        let mut scan_hits = 0usize;
        for (p, c) in queries.iter().take(q_scan) {
            scan_hits += db.sat_scan(*p, c).len();
        }
        let scan_us = t0.elapsed().as_secs_f64() * 1e6 / q_scan as f64;
        // Same queries → same answers (the property suite proves it in
        // general; this guards the bench itself).
        assert_eq!(
            queries.iter().take(q_scan).map(|(p, c)| db.sat(*p, c).len()).sum::<usize>(),
            scan_hits
        );

        // Interpreter level: each guarded rename evaluates one guard
        // literal and one point select, both planned from the index.
        let ts = sat_heavy_transactions(&schema);
        let ren = ts.get("Ren").unwrap();
        let steps = q_indexed.min(2_000);
        let t0 = Instant::now();
        for i in 0..steps {
            let args = sat_heavy_step(i, n);
            migratory_lang::apply_transaction(&schema, &mut db, ren, &args).unwrap();
        }
        let renames = steps as f64 / t0.elapsed().as_secs_f64();

        let speedup = scan_us / indexed_us;
        println!("{n:>10} {indexed_us:>14.2} {scan_us:>14.1} {speedup:>8.0}× {renames:>14.0}");
        rows.push(format!(
            r#"      {{
        "objects": {n},
        "queries": {q_indexed},
        "hits": {hits},
        "indexed_us_per_query": {indexed_us:.2},
        "scan_us_per_query": {scan_us:.1},
        "speedup_vs_scan": {speedup:.1},
        "guarded_renames_per_sec": {renames:.0}
      }}"#
        ));
    }
    println!();
    format!(
        r#"  "sat_heavy": {{
    "workload": "point Sat conditions (indexed key hits, misses, eq+ne conjunctions) on a bulk-loaded store; guarded point renames on top",
    "engines": {{
      "indexed": "Instance::sat — planned from the condition via the value/class indexes",
      "scan": "Instance::sat_scan — the preserved full-heap-scan oracle"
    }},
    "sizes": [
{}
    ]
  }}"#,
        rows.join(
            ",
"
        )
    )
}

/// `batch_admit`: a deep "career ladder" inventory (`∅* ([PERSON]+
/// [STUDENT]+)^32 ∅*`, ~64 DFA states) over a bulk-loaded store, with
/// climber objects staggered across the ladder so the cohort table holds
/// ~60 live cohorts. Admission then pays a cohort sweep + re-key per
/// application — once per *application* on the PR 1 single-threaded
/// delta engine, once per *block* per shard under
/// `ShardedMonitor::try_apply_batch`. `(objects, steps)` per config;
/// returns the `batch_admit` JSON fragment. Engines are built, set up
/// and measured one at a time so no measurement inherits another's
/// allocator pressure.
fn batch_admit_rows(configs: &[(usize, usize)]) -> String {
    use migratory_core::enforce::ShardedMonitor;

    const PAIRS: usize = 32;
    const SPREAD: usize = 256;
    const MAX_DEPTH: usize = 56;

    println!("== perf-batch-admit: sharded batch admission vs per-application ==");
    println!(
        "{:>10} {:>8} {:>7} {:>7} {:>12} {:>12} {:>9}",
        "objects", "cohorts", "shards", "batch", "single/s", "batched/s", "speedup"
    );
    let mut rows = Vec::new();
    for &(n, steps) in configs {
        let (schema, alphabet, _) = university();
        let inv = Inventory::parse_init(&schema, &alphabet, &ladder_inventory_src(PAIRS))
            .expect("ladder inventory parses");
        let ts = toggle_transactions(&schema);
        let bulk = bulk_create(&schema, n);
        let no_args = Assignment::empty();
        let (setup, timed) = ladder_scripts(SPREAD, MAX_DEPTH, steps);
        let resolve = |script: &[(&'static str, Assignment)]| -> Vec<(String, Assignment)> {
            script.iter().map(|(name, a)| ((*name).to_owned(), a.clone())).collect()
        };
        let setup = resolve(&setup);
        let timed = resolve(&timed);

        // (a) PR 1 baseline: the single-threaded delta engine, one
        // admission (cohort sweep included) per application.
        let (single_rate, single_steps, single_objects, cohorts) = {
            let mut single = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
            single.try_apply(&bulk, &no_args).expect("bulk load conforms");
            for (name, args) in &setup {
                single.try_apply(ts.get(name).unwrap(), args).expect("setup conforms");
            }
            let t0 = Instant::now();
            for (name, args) in &timed {
                single.try_apply(ts.get(name).unwrap(), args).expect("toggle conforms");
            }
            let rate = steps as f64 / t0.elapsed().as_secs_f64();
            (rate, single.clock(0), single.db().num_objects(), MAX_DEPTH)
        };

        // (b) Sharded batch admission at several shard/batch shapes,
        // each on a freshly built and set-up monitor.
        let mut batch_rows = Vec::new();
        for &shards in &[2usize, 4] {
            for &batch in &[64usize, 256] {
                let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, shards);
                m.try_apply(&bulk, &no_args).expect("bulk load conforms");
                for block in setup.chunks(batch) {
                    let (done, err) =
                        m.try_apply_batch(block.iter().map(|(name, a)| (ts.get(name).unwrap(), a)));
                    assert_eq!((done, err), (block.len(), None), "setup conforms");
                }
                let t0 = Instant::now();
                for block in timed.chunks(batch) {
                    let (done, err) =
                        m.try_apply_batch(block.iter().map(|(name, a)| (ts.get(name).unwrap(), a)));
                    assert_eq!((done, err), (block.len(), None), "toggle batch conforms");
                }
                let rate = steps as f64 / t0.elapsed().as_secs_f64();
                // Single-component schema → oid striping: every stripe
                // reads every letter, in lockstep with the single engine.
                assert!(m.clocks().iter().all(|&c| c == single_steps), "same letters everywhere");
                assert_eq!(m.db().num_objects(), single_objects);
                let speedup = rate / single_rate;
                println!(
                    "{n:>10} {cohorts:>8} {shards:>7} {batch:>7} {single_rate:>12.0} {rate:>12.0} {speedup:>8.2}×"
                );
                batch_rows.push(format!(
                    r#"        {{ "shards": {shards}, "batch": {batch}, "apps_per_sec": {rate:.0}, "speedup_vs_single": {speedup:.2} }}"#
                ));
            }
        }
        rows.push(format!(
            r#"      {{
        "objects": {n},
        "steps": {steps},
        "ladder_pairs": {PAIRS},
        "staggered_climbers": {SPREAD},
        "single_delta_apps_per_sec": {single_rate:.0},
        "batched": [
{}
        ]
      }}"#,
            batch_rows.join(",\n")
        ));
    }
    println!();
    format!(
        r#"  "batch_admit": {{
    "workload": "deep career-ladder inventory (∅* ([PERSON]+ [STUDENT]+)^32 ∅*) over a bulk-loaded store, climbers staggered across ~56 ladder depths; single-object toggles admitted one-by-one (PR 1 engine, one cohort sweep per application) vs in blocks (sharded monitor, one cohort sweep per shard per block)",
    "sizes": [
{}
    ]
  }}"#,
        rows.join(",\n")
    )
}

/// `redefine-latency`: online constraint evolution on a bulk-loaded
/// store. Each measured step is one `ShardedMonitor::redefine` (one
/// shard) under live
/// toggle traffic, alternating between the base inventory and one that
/// appends a `[GRAD_ASSIST]*` retirement segment. The extra strings of
/// the wider language sit in their own DFA state that no live cohort
/// occupies, so every cohort stays viable in *both* directions (residue
/// 0) and the database keeps being checked across epochs. (A plain
/// superset like `([PERSON] ∪ [STUDENT] ∪ [GRAD_ASSIST])*` would NOT
/// work: tightening back merges grad-assist histories into the same
/// cohort state as the real population, and the conservative product
/// analysis quarantines everyone.) The cost of a redefinition is a
/// product construction over the *cohorts*, never a rescan of the
/// database — so the 1M-object p99 must stay within 10× of the
/// 10k-object p99. `(objects, redefines)` per config; returns the
/// `redefine_latency` JSON fragment.
fn redefine_latency_rows(configs: &[(usize, usize)]) -> String {
    use migratory_core::enforce::{ResiduePolicy, ShardedMonitor};

    println!("== perf-redefine: epoch-stamped redefinition under live traffic ==");
    println!(
        "{:>10} {:>10} {:>8} {:>10} {:>10}",
        "objects", "redefines", "epoch", "p50 (µs)", "p99 (µs)"
    );
    let mut rows = Vec::new();
    let mut p99_by_n: Vec<(usize, f64)> = Vec::new();
    for &(n, redefines) in configs {
        let (schema, alphabet, _) = university();
        let inv_a =
            Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        let inv_b = Inventory::parse_init(
            &schema,
            &alphabet,
            "∅* ([PERSON] ∪ [STUDENT])* [GRAD_ASSIST]* ∅*",
        )
        .unwrap();
        let ts = toggle_transactions(&schema);
        let bulk = bulk_create(&schema, n);
        let no_args = Assignment::empty();
        let mut m = ShardedMonitor::new(&schema, &alphabet, &inv_a, PatternKind::All, 1);
        m.try_apply(&bulk, &no_args).expect("bulk load conforms");
        // Spread the population across a few cohorts before evolving.
        for i in 0..64.min(n) {
            let (name, args) = toggle_step(i, n);
            m.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
        }
        let mut lat: Vec<f64> = Vec::with_capacity(redefines);
        for r in 0..redefines {
            let target = if r % 2 == 0 { &inv_b } else { &inv_a };
            let t0 = Instant::now();
            let out = m.redefine(target, ResiduePolicy::Quarantine).expect("alternation admits");
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(out.residue, 0, "both directions keep every cohort viable");
            // Live traffic between redefinitions: the monitor keeps
            // admitting (and checking) under the epoch just installed.
            for i in 0..4.min(n) {
                let (name, args) = toggle_step(i, n);
                m.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
            }
        }
        assert_eq!(m.epoch(), redefines as u64, "one epoch per redefinition");
        assert_eq!(m.quarantined_total(), 0, "nothing fell out of the inventory");
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| sorted[(p * (sorted.len() - 1) as f64).round() as usize];
        let (p50, p99) = (pct(0.50), pct(0.99));
        p99_by_n.push((n, p99));
        println!("{n:>10} {redefines:>10} {:>8} {p50:>10.1} {p99:>10.1}", m.epoch());
        rows.push(format!(
            r#"      {{ "objects": {n}, "redefines": {redefines}, "residue": 0, "latency_us": {{ "p50": {p50:.1}, "p99": {p99:.1} }} }}"#
        ));
    }
    let ratio = match (
        p99_by_n.iter().find(|&&(n, _)| n == 10_000),
        p99_by_n.iter().find(|&&(n, _)| n == 1_000_000),
    ) {
        (Some(&(_, small)), Some(&(_, large))) => {
            let ratio = large / small;
            assert!(
                ratio < 10.0,
                "1M-object redefine p99 ({large:.1}µs) exceeds 10× the 10k p99 ({small:.1}µs) \
                 — redefinition must be O(cohorts), never O(db)"
            );
            println!("  1M/10k p99 ratio: {ratio:.2}× (bound: 10×)");
            format!(",\n    \"p99_ratio_1m_vs_10k\": {ratio:.2}")
        }
        _ => String::new(),
    };
    println!();
    format!(
        r#"  "redefine_latency": {{
    "workload": "bulk-load n persons, spread 64 toggles, then alternate `redefine` between ∅* ([PERSON] ∪ [STUDENT])* ∅* and ∅* ([PERSON] ∪ [STUDENT])* [GRAD_ASSIST]* ∅* under live toggle traffic — every cohort viable in both directions, residue 0, one epoch per swap",
    "policy": "quarantine",
    "bound": "1M-object p99 within 10× of the 10k p99: redefinition is a product construction over cohorts, never a database rescan",
    "sizes": [
{}
    ]{ratio}
  }}"#,
        rows.join(",\n")
    )
}

/// `persist`: the durability ablation — writes `BENCH_persist.json`
/// with the `recover` (snapshot + WAL tail vs full history replay),
/// `ingress` (queued vs direct admission) and `serve` (admission over
/// TCP vs in-process ingress) comparisons.
fn persist_row(
    recover_cfgs: &[(usize, usize, usize)],
    ingress_cfgs: &[(usize, usize, usize)],
    repl_cfgs: &[(usize, usize, usize)],
    serve_cfgs: &[(usize, usize)],
    serve_conns: &[usize],
) {
    let recover = recover_rows(recover_cfgs);
    let ingress = ingress_rows(ingress_cfgs);
    let repl = repl_rows(repl_cfgs);
    let serve = serve_rows(serve_cfgs, serve_conns);
    let json = format!(
        r#"{{
  "bench": "persist",
{recover},
{ingress},
{repl},
{serve}
}}
"#
    );
    std::fs::write("BENCH_persist.json", &json).expect("write BENCH_persist.json");
    println!("  (wrote BENCH_persist.json)");
    println!();
}

/// `recover`: bulk-load n objects into a file-WAL-backed monitor, take
/// a **background** base checkpoint (the admission thread pays only the
/// state capture + log rotation), run `history` toggle letters, take a
/// **background incremental** checkpoint (O(dirty) capture), run `tail`
/// more letters, "crash", then time `Wal::load` +
/// `ShardedMonitor::recover` (one shard)
/// (folding the checkpoint chain and replaying only the tail) against
/// re-running the entire transaction history through a fresh monitor.
/// Recovered state must be byte-identical (canonical snapshot encoding)
/// to the crashed monitor's. The headline durability number is
/// `checkpoint_stall_ms`: the time the admission path is blocked to
/// produce the steady-state (incremental) checkpoint that gates WAL
/// truncation — formerly the full-snapshot encode pause.
/// `(objects, history, tail)` per config; returns the `recover` JSON
/// fragment.
fn recover_rows(configs: &[(usize, usize, usize)]) -> String {
    use migratory_core::enforce::{CheckpointData, ShardedMonitor, Snapshotter, Wal};
    use std::sync::{Arc, Mutex};

    println!("== perf-recover: checkpoint chain + wal tail vs full history replay ==");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "objects",
        "letters",
        "snap MB",
        "encode ms",
        "ckpt stall",
        "seal ms",
        "recover ms",
        "replay ms",
        "speedup"
    );
    let mut rows = Vec::new();
    for &(n, history, tail) in configs {
        let (schema, alphabet, _) = university();
        let inv =
            Inventory::parse_init(&schema, &alphabet, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        let ts = toggle_transactions(&schema);
        let bulk = bulk_create(&schema, n);
        let no_args = Assignment::empty();

        let dir = std::env::temp_dir()
            .join(format!("migratory-bench-recover-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Mutex::new(Wal::open(&dir).expect("wal dir")));
        let mut snapshotter = Snapshotter::spawn();
        let mut live = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1)
            .with_sink(wal.clone() as migratory_core::enforce::SharedSink);
        live.try_apply(&bulk, &no_args).expect("bulk load conforms");
        // Base checkpoint, backgrounded: the admission thread pays the
        // full-state capture (clone) + log rotation, not the encode.
        let snap = live.checkpoint_full();
        let snap_bytes_len = {
            // The old admission-path cost, for contrast: encoding the
            // full snapshot inline.
            let t0 = Instant::now();
            let bytes = snap.encode();
            let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
            (bytes.len(), encode_ms)
        };
        let (snap_bytes, encode_ms) = snap_bytes_len;
        let job = wal
            .lock()
            .unwrap()
            .begin_checkpoint(CheckpointData::Full(snap))
            .expect("stage base checkpoint");
        snapshotter.submit(job).expect("snapshotter accepts");
        for i in 0..history {
            let (name, args) = toggle_step(i, n);
            live.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
        }
        // The steady-state checkpoint that gates WAL truncation: an
        // O(dirty) capture + a log rotation on the admission path,
        // encode/fsync/prune on the snapshotter thread.
        let t0 = Instant::now();
        let delta = live.checkpoint_delta();
        let dirty = delta.num_dirty_objects();
        let capture_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let job = wal
            .lock()
            .unwrap()
            .begin_checkpoint(CheckpointData::Incremental(delta))
            .expect("stage incremental checkpoint");
        let seal_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stall_ms = capture_ms + seal_ms;
        snapshotter.submit(job).expect("snapshotter accepts");
        for i in history..history + tail {
            let (name, args) = toggle_step(i, n);
            live.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
        }
        let crash_state = live.snapshot().encode();
        snapshotter.finish().expect("background checkpoints durable");
        drop(wal); // crash

        // Recover: fold the checkpoint chain, replay only the WAL tail.
        let t0 = Instant::now();
        let (snap, blocks) = Wal::load(&dir).expect("load wal directory");
        let recovered =
            ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 1, snap, blocks)
                .expect("recovery succeeds");
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            recovered.snapshot().encode(),
            crash_state,
            "recovered state must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The alternative: replay the full transaction history.
        let t0 = Instant::now();
        let mut replayed = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 1);
        replayed.try_apply(&bulk, &no_args).expect("bulk load conforms");
        for i in 0..history + tail {
            let (name, args) = toggle_step(i, n);
            replayed.try_apply(ts.get(name).unwrap(), &args).expect("toggle conforms");
        }
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(replayed.snapshot().encode(), crash_state, "replay is deterministic");

        let letters = 1 + history + tail;
        let speedup = replay_ms / recover_ms;
        let mb = snap_bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{n:>10} {letters:>10} {mb:>12.2} {encode_ms:>12.2} {stall_ms:>12.2} {seal_ms:>12.3} {recover_ms:>12.2} {replay_ms:>12.2} {speedup:>8.1}×"
        );
        rows.push(format!(
            r#"      {{
        "objects": {n},
        "letters": {letters},
        "wal_tail_letters": {tail},
        "snapshot_bytes": {snap_bytes},
        "full_snapshot_encode_ms": {encode_ms:.2},
        "checkpoint_stall_ms": {stall_ms:.2},
        "checkpoint_capture_ms": {capture_ms:.2},
        "checkpoint_seal_ms": {seal_ms:.3},
        "checkpoint_dirty_objects": {dirty},
        "recover_ms": {recover_ms:.2},
        "full_replay_ms": {replay_ms:.2},
        "speedup_vs_replay": {speedup:.1},
        "byte_identical": true
      }}"#
        ));
    }
    println!();
    format!(
        r#"  "recover": {{
    "workload": "bulk-load n persons into a file-WAL monitor, background base checkpoint, toggle history, background O(dirty) incremental checkpoint (checkpoint_stall_ms = admission-path blockage = capture_ms, the O(dirty) state clone, + seal_ms, the begin_checkpoint log rotation, amortized by the pre-created spare segment; encode/fsync run on the Snapshotter thread), toggle a tail, crash; Wal::load + ShardedMonitor::recover with one shard (fold chain, replay tail) vs re-running every transaction through a fresh monitor; both must reproduce the crashed state byte-identically",
    "sizes": [
{}
    ]
  }}"#,
        rows.join(",\n")
    )
}

/// `ingress`: queued concurrent admission (`enforce::ingress`, per-shard
/// lanes, emergent batching, group commit) vs direct single-caller
/// batch admission on the four-component fleet workload.
/// `(objects per component, ops, producers)` per config; returns the
/// `ingress` JSON fragment.
fn ingress_rows(configs: &[(usize, usize, usize)]) -> String {
    use migratory_core::enforce::{
        ingress, AdmissionMetrics, DurableLog, FsyncPolicy, Histogram, IngressConfig,
        ShardedMonitor, StepPolicy, Wal,
    };
    use std::sync::{Arc, Mutex};

    println!("== perf-ingress: queued concurrent admission vs direct batches ==");
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>14} {:>14} {:>7}",
        "objects",
        "ops",
        "producers",
        "direct/s",
        "queued/s",
        "durable q/s",
        "pipelined/s",
        "blocks"
    );
    let mut rows = Vec::new();
    for &(per, ops, producers) in configs {
        let (schema, alphabet, ts) = fleet();
        let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
        let day = fleet_ops(ops, per);
        let load = |m: &mut ShardedMonitor<'_>| {
            for (mk, prefix) in
                [("BuyTruck", "t"), ("HireDriver", "d"), ("OpenRoute", "r"), ("BuildDepot", "p")]
            {
                let t = ts.get(mk).unwrap();
                let bulk: Vec<(&migratory_lang::Transaction, Assignment)> = (0..per)
                    .map(|i| {
                        (
                            t,
                            Assignment::new(vec![migratory_model::Value::str(&format!(
                                "{prefix}{i}"
                            ))]),
                        )
                    })
                    .collect();
                let (done, err) = m.try_apply_batch(bulk.iter().map(|(t, a)| (*t, a)));
                assert_eq!((done, err), (per, None), "bulk load conforms");
            }
        };

        // (a) Direct: one caller feeding try_apply_batch blocks of 256.
        let direct_rate = {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            load(&mut m);
            let t0 = Instant::now();
            for chunk in day.chunks(256) {
                let (done, err) =
                    m.try_apply_batch(chunk.iter().map(|(name, a)| (ts.get(name).unwrap(), a)));
                assert_eq!((done, err), (chunk.len(), None), "day conforms");
            }
            ops as f64 / t0.elapsed().as_secs_f64()
        };

        // (b/c) Queued: `producers` pipelining callers over per-shard
        // lanes, volatile and WAL-durable.
        let queued = |sink: Option<migratory_core::enforce::SharedSink>| -> (f64, usize) {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            if let Some(s) = sink {
                m = m.with_sink(s);
            }
            load(&mut m);
            let cfg = IngressConfig { queue_capacity: 1024, max_block: 256, ..Default::default() };
            let t0 = Instant::now();
            let ((), stats) = ingress::serve(&mut m, &cfg, |client| {
                std::thread::scope(|scope| {
                    for p in 0..producers {
                        let day = &day;
                        let ts = &ts;
                        scope.spawn(move || {
                            let tickets: Vec<_> = day
                                .iter()
                                .skip(p)
                                .step_by(producers)
                                .map(|(name, a)| client.post(ts.get(name).unwrap(), a.clone()))
                                .collect();
                            for t in tickets {
                                t.wait().expect("day conforms");
                            }
                        });
                    }
                });
            });
            assert_eq!(stats.admitted, ops);
            (ops as f64 / t0.elapsed().as_secs_f64(), stats.blocks)
        };
        let (queued_rate, blocks) = queued(None);
        let wal_dir =
            std::env::temp_dir().join(format!("migratory-bench-wal-{}-{per}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let wal = Wal::open(&wal_dir).expect("wal dir");
        let (durable_rate, _) = queued(Some(Arc::new(Mutex::new(wal))));
        let _ = std::fs::remove_dir_all(&wal_dir);

        // (d) Pipelined group commit: same producers, but the WAL
        // append + one-fsync-per-batch run on the committer thread and
        // acks are released only once durable (`FsyncPolicy::Batch`).
        // The (c) run above is the before-shape: append + sync inline
        // on the admission worker, serialized into every block.
        let (pipelined_rate, p50, p99, p999, amortization) = {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            load(&mut m);
            let pipe_dir = std::env::temp_dir()
                .join(format!("migratory-bench-pipe-{}-{per}", std::process::id()));
            let _ = std::fs::remove_dir_all(&pipe_dir);
            let wal = Arc::new(Mutex::new(
                Wal::open(&pipe_dir).expect("wal dir").with_fsync(FsyncPolicy::Batch),
            ));
            let metrics = Arc::new(AdmissionMetrics::new(4));
            let t0 = Instant::now();
            let ((), stats) = ingress::serve(
                &mut m,
                &IngressConfig {
                    queue_capacity: 1024,
                    max_block: 256,
                    wal: Some(DurableLog { log: wal, repl: None }),
                    metrics: Some(metrics.clone()),
                    ..Default::default()
                },
                |client| {
                    std::thread::scope(|scope| {
                        for p in 0..producers {
                            let day = &day;
                            let ts = &ts;
                            scope.spawn(move || {
                                let tickets: Vec<_> = day
                                    .iter()
                                    .skip(p)
                                    .step_by(producers)
                                    .map(|(name, a)| client.post(ts.get(name).unwrap(), a.clone()))
                                    .collect();
                                for t in tickets {
                                    t.wait().expect("day conforms");
                                }
                            });
                        }
                    });
                },
            );
            assert_eq!(stats.admitted, ops);
            let rate = ops as f64 / t0.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&pipe_dir);
            let agg = Histogram::new();
            for h in &metrics.commit_latency_us {
                agg.merge(h);
            }
            let batches = metrics.fsync_batch.count().max(1);
            #[allow(clippy::cast_precision_loss)]
            let amortization = metrics.fsync_batch.sum() as f64 / batches as f64;
            (
                rate,
                agg.quantile_bound(0.50),
                agg.quantile_bound(0.99),
                agg.quantile_bound(0.999),
                amortization,
            )
        };

        let objects = per * 4;
        println!(
            "{objects:>10} {ops:>8} {producers:>10} {direct_rate:>12.0} {queued_rate:>12.0} {durable_rate:>14.0} {pipelined_rate:>14.0} {blocks:>7}"
        );
        println!(
            "  pipelined commit latency ≤ p50 {p50}µs / p99 {p99}µs / p99.9 {p999}µs, \
             {amortization:.1} block(s)/sync"
        );
        rows.push(format!(
            r#"      {{
        "objects": {objects},
        "ops": {ops},
        "producers": {producers},
        "direct_batch_apps_per_sec": {direct_rate:.0},
        "queued_apps_per_sec": {queued_rate:.0},
        "queued_durable_apps_per_sec": {durable_rate:.0},
        "pipelined_durable_apps_per_sec": {pipelined_rate:.0},
        "pipelined_blocks_per_sync": {amortization:.1},
        "pipelined_commit_latency_us": {{ "p50": {p50}, "p99": {p99}, "p99.9": {p999} }},
        "queued_blocks": {blocks}
      }}"#
        ));
    }
    println!();
    format!(
        r#"  "ingress": {{
    "workload": "four-component fleet; a day of single-object ops admitted (a) by one caller in direct 256-blocks, (b) by N pipelining producers through the bounded per-shard ingress lanes (emergent batching), (c) same with a file WAL appended + synced inline on the admission worker, (d) same WAL behind the two-stage pipeline (committer thread, one fsync per batch, acks after durability; commit_latency_us = drain-to-durable-release, log2 bucket upper bounds)",
    "sizes": [
{}
    ]
  }}"#,
        rows.join(",\n")
    )
}

/// `repl`: the ack-policy dial — the same pipelined fleet day, with a
/// live replica attached over loopback TCP (snapshot bootstrap, then
/// every committed batch teed down the socket). `ack-on-local-fsync`
/// ships asynchronously (an ok promises the local fsync only, the
/// replica trails by its apply lag); `ack-on-replica-1` holds each
/// batch's tickets until the standby has applied the bytes and made
/// them durable in its own WAL — the ok now covers the survivor, and
/// the round trip shows up in `ship_wait_us`. Both runs end with the
/// replica's live state byte-identical to the primary's.
/// `(objects per component, ops, producers)` per config; returns the
/// `repl` JSON fragment.
fn repl_rows(configs: &[(usize, usize, usize)]) -> String {
    use migratory_core::enforce::repl::{acceptor, puller};
    use migratory_core::enforce::{
        ingress, AckPolicy, AdmissionMetrics, DurableLog, FsyncPolicy, Health, Histogram,
        IngressConfig, ReplicaCtl, Replicator, ShardedMonitor, StepPolicy, Wal,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    println!("== perf-repl: the replication ack-policy dial ==");
    println!(
        "{:>10} {:>8} {:>10} {:>14} {:>14}",
        "objects", "ops", "producers", "local-fsync/s", "replica-1/s"
    );

    struct Run {
        rate: f64,
        commit_p50: u64,
        ship_p50: u64,
    }
    let run = |per: usize, ops: usize, producers: usize, policy: AckPolicy, tag: &str| -> Run {
        let (schema, alphabet, ts) = fleet();
        let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
        let day = fleet_ops(ops + 1, per);
        let (warm, day) = day.split_first().expect("day is non-empty");
        let pid = std::process::id();
        let dir_p = std::env::temp_dir().join(format!("migratory-bench-repl-p-{pid}-{per}-{tag}"));
        let dir_r = std::env::temp_dir().join(format!("migratory-bench-repl-r-{pid}-{per}-{tag}"));
        let _ = std::fs::remove_dir_all(&dir_p);
        let _ = std::fs::remove_dir_all(&dir_r);
        let wal_p = Arc::new(Mutex::new(
            Wal::open(&dir_p).expect("primary wal").with_fsync(FsyncPolicy::Batch),
        ));
        let wal_r = Arc::new(Mutex::new(
            Wal::open(&dir_r).expect("replica wal").with_fsync(FsyncPolicy::Batch),
        ));
        let metrics = Arc::new(AdmissionMetrics::new(4));
        let repl = Arc::new(
            Replicator::bind("127.0.0.1:0")
                .expect("bind replicator")
                .with_policy(policy)
                .with_ack_timeout(Duration::from_secs(60))
                .with_metrics(metrics.clone()),
        );
        let repl_addr = repl.local_addr().to_string();
        let ctl = Arc::new(ReplicaCtl::new(&repl_addr));
        let stop_accept = AtomicBool::new(false);
        let cfg = IngressConfig { queue_capacity: 1024, max_block: 256, ..Default::default() };
        let elapsed = Mutex::new(0f64);

        let (primary_snap, replica_snap) = std::thread::scope(|scope| {
            let replica = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                    .with_policy(StepPolicy::OnlyChanging);
                let health = Arc::new(Health::new());
                ingress::serve(
                    &mut m,
                    &IngressConfig {
                        health: health.clone(),
                        wal: Some(DurableLog { log: wal_r.clone(), repl: None }),
                        ..cfg.clone()
                    },
                    |client| {
                        std::thread::scope(|ps| {
                            ps.spawn(|| puller(&repl_addr, &ctl, &wal_r, client, None));
                            while !ctl.stopped() {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        });
                    },
                );
                assert!(!health.is_degraded(), "replica degraded: {}", health.reason());
                m.snapshot().encode()
            });

            // The primary: bulk-load the fleet, base-checkpoint it (the
            // bootstrap snapshot ships from a barrier, so the replica
            // starts from exactly this state), then run the day.
            let mut pm = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            for (mk, prefix) in
                [("BuyTruck", "t"), ("HireDriver", "d"), ("OpenRoute", "r"), ("BuildDepot", "p")]
            {
                let t = ts.get(mk).unwrap();
                let bulk: Vec<(&migratory_lang::Transaction, Assignment)> = (0..per)
                    .map(|i| {
                        (
                            t,
                            Assignment::new(vec![migratory_model::Value::str(&format!(
                                "{prefix}{i}"
                            ))]),
                        )
                    })
                    .collect();
                let (done, err) = pm.try_apply_batch(bulk.iter().map(|(t, a)| (*t, a)));
                assert_eq!((done, err), (per, None), "bulk load conforms");
            }
            wal_p.lock().unwrap().write_snapshot(&pm.checkpoint_full()).expect("base checkpoint");
            let health = Arc::new(Health::new());
            ingress::serve(
                &mut pm,
                &IngressConfig {
                    health: health.clone(),
                    wal: Some(DurableLog { log: wal_p.clone(), repl: Some(repl.clone()) }),
                    metrics: Some(metrics.clone()),
                    ..cfg.clone()
                },
                |client| {
                    std::thread::scope(|ps| {
                        ps.spawn(|| acceptor(&repl, client, &stop_accept));
                        while repl.live_replicas() < 1 {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        // Warm-up: one op through the full tee, then
                        // drain the standby to the shipped horizon —
                        // the timed day below sees a warm, attached
                        // replica, not its bootstrap snapshot fold.
                        // (That fold is the warm-up batch's wait; it
                        // owns the histograms' max, so the row reports
                        // the p50 bound only.)
                        client
                            .post(ts.get(warm.0).unwrap(), warm.1.clone())
                            .wait()
                            .expect("warm-up conforms");
                        while ctl.stream_horizon() < repl.horizon() {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        let t0 = Instant::now();
                        std::thread::scope(|drivers| {
                            for p in 0..producers {
                                let (day, ts) = (&day, &ts);
                                drivers.spawn(move || {
                                    let tickets: Vec<_> = day
                                        .iter()
                                        .skip(p)
                                        .step_by(producers)
                                        .map(|(name, a)| {
                                            client.post(ts.get(name).unwrap(), a.clone())
                                        })
                                        .collect();
                                    for t in tickets {
                                        t.wait().expect("day conforms");
                                    }
                                });
                            }
                        });
                        *elapsed.lock().unwrap() = t0.elapsed().as_secs_f64();
                        // Let the standby drain to the shipped horizon
                        // (a no-op under replica-1, where every ack
                        // already covered it) so both live states can
                        // be compared byte for byte.
                        while ctl.stream_horizon() < repl.horizon() {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        ctl.request_stop();
                        stop_accept.store(true, Ordering::SeqCst);
                    });
                },
            );
            repl.close();
            assert!(!health.is_degraded(), "primary degraded: {}", health.reason());
            (pm.snapshot().encode(), replica.join().expect("replica thread"))
        });
        assert_eq!(primary_snap, replica_snap, "replica trails into byte-identity");
        let _ = std::fs::remove_dir_all(&dir_p);
        let _ = std::fs::remove_dir_all(&dir_r);

        let commit = Histogram::new();
        for h in &metrics.commit_latency_us {
            commit.merge(h);
        }
        let secs = *elapsed.lock().unwrap();
        Run {
            rate: ops as f64 / secs,
            commit_p50: commit.quantile_bound(0.50),
            ship_p50: metrics.repl_ship_wait_us.quantile_bound(0.50),
        }
    };

    let mut rows = Vec::new();
    for &(per, ops, producers) in configs {
        let local = run(per, ops, producers, AckPolicy::LocalFsync, "local");
        let replica1 = run(per, ops, producers, AckPolicy::ReplicaK(1), "replica1");
        let objects = per * 4;
        println!(
            "{objects:>10} {ops:>8} {producers:>10} {:>14.0} {:>14.0}",
            local.rate, replica1.rate
        );
        println!(
            "  replica-1 batch commit latency ≤ p50 {}µs (ship wait ≤ p50 {}µs)",
            replica1.commit_p50, replica1.ship_p50
        );
        rows.push(format!(
            r#"      {{
        "objects": {objects},
        "ops": {ops},
        "producers": {producers},
        "ack_local_fsync": {{ "apps_per_sec": {:.0}, "commit_latency_us_p50": {} }},
        "ack_replica_1": {{ "apps_per_sec": {:.0}, "commit_latency_us_p50": {}, "ship_wait_us_p50": {} }},
        "replica_byte_identical": true
      }}"#,
            local.rate,
            local.commit_p50,
            replica1.rate,
            replica1.commit_p50,
            replica1.ship_p50,
        ));
    }
    println!();
    format!(
        r#"  "repl": {{
    "workload": "four-component fleet behind the pipelined committer with a live replica attached over loopback TCP (snapshot bootstrap at a barrier, committed batches teed down the socket); a day of single-object ops from N pipelining producers, acked under ack-on-local-fsync (tee is asynchronous, ok promises the local fsync only) vs ack-on-replica-1 (tickets held until the standby applied the batch and made it durable in its own WAL; ship_wait_us = committer-side wait for the cumulative ack horizon, log2 bucket upper bound; p50 only — the dial's cost amortizes across a handful of emergent megabatches, so tails are single-sample noise and the warm-up batch, which pays the standby's bootstrap fold, owns the max); timed after a warm-up op + drain to the shipped horizon, and both runs end with the standby byte-identical to the primary",
    "sizes": [
{}
    ]
  }}"#,
        rows.join(",\n")
    )
}

/// `serve`: admission over the TCP wire front end (`enforce::net`,
/// `migctl serve`'s engine) vs the in-process ingress — the cost of
/// moving from linked callers to network-shaped callers that share
/// nothing with the engine but the protocol. `(objects per component,
/// ops)` per config; each config is measured at every connection count
/// in `conn_counts`, in both wire dialects (text `invoke` lines and
/// length-prefixed binary frames, `migratory-bench`'s epoll-multiplexed
/// [`drive_tcp_mux`] driver), plus one WAL-durable run at the middle
/// connection count. Returns the `serve` JSON fragment.
fn serve_rows(configs: &[(usize, usize)], conn_counts: &[usize]) -> String {
    use migratory_core::enforce::{
        net, AdmissionMetrics, DurableLog, FsyncPolicy, Histogram, IngressConfig, ShardedMonitor,
        StepPolicy, Wal,
    };
    use std::net::TcpListener;
    use std::sync::{mpsc, Arc, Mutex};

    println!("== perf-serve: admission over TCP vs in-process ingress ==");
    println!(
        "{:>10} {:>8} {:>6} {:>12} {:>12} {:>12}",
        "objects", "ops", "conns", "inproc/s", "tcp/s", "tcp bin/s"
    );
    let mut rows = Vec::new();
    for &(per, ops) in configs {
        let (schema, alphabet, ts) = fleet();
        let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
        let day = fleet_ops(ops, per);
        let load = |m: &mut ShardedMonitor<'_>| {
            for (mk, prefix) in
                [("BuyTruck", "t"), ("HireDriver", "d"), ("OpenRoute", "r"), ("BuildDepot", "p")]
            {
                let t = ts.get(mk).unwrap();
                let bulk: Vec<(&migratory_lang::Transaction, Assignment)> = (0..per)
                    .map(|i| {
                        (
                            t,
                            Assignment::new(vec![migratory_model::Value::str(&format!(
                                "{prefix}{i}"
                            ))]),
                        )
                    })
                    .collect();
                let (done, err) = m.try_apply_batch(bulk.iter().map(|(t, a)| (*t, a)));
                assert_eq!((done, err), (per, None), "bulk load conforms");
            }
        };
        let cfg = IngressConfig { queue_capacity: 1024, max_block: 256, ..Default::default() };

        // (a) In-process baseline: 4 pipelining producer threads over
        // the same lanes — the "callers link the crate" world.
        let inproc_rate = {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            load(&mut m);
            let t0 = Instant::now();
            let ((), stats) = migratory_core::enforce::ingress::serve(&mut m, &cfg, |client| {
                std::thread::scope(|scope| {
                    for p in 0..4 {
                        let day = &day;
                        let ts = &ts;
                        scope.spawn(move || {
                            let tickets: Vec<_> = day
                                .iter()
                                .skip(p)
                                .step_by(4)
                                .map(|(name, a)| client.post(ts.get(name).unwrap(), a.clone()))
                                .collect();
                            for t in tickets {
                                t.wait().expect("day conforms");
                            }
                        });
                    }
                });
            });
            assert_eq!(stats.admitted, ops);
            ops as f64 / t0.elapsed().as_secs_f64()
        };

        // (b) Over the wire, volatile and durable: stand the server up
        // in-process on an ephemeral port, drive it with `connections`
        // multiplexed nonblocking TCP clients in either dialect, shut
        // it down gracefully. A durable run hands the WAL to the
        // server config, which routes admission through the two-stage
        // pipeline (committer thread, one fsync per batch under
        // `FsyncPolicy::Batch`) and stamps the shared metrics.
        let serve_once = |connections: usize,
                          binary: bool,
                          durable: Option<(Arc<Mutex<Wal>>, Arc<AdmissionMetrics>)>|
         -> (f64, migratory_core::enforce::net::NetStats) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
            // Deepen the accept backlog before the driver exists:
            // `serve` re-arms it too, but on one core the connect burst
            // can outrun the server thread's first instruction, and any
            // SYN the default 128-deep queue drops costs a full second
            // of retransmit — the difference between a sweep that is
            // flat to 1024 connections and one that collapses.
            {
                use std::os::fd::AsRawFd;
                polling::set_backlog(listener.as_raw_fd(), 4096).expect("re-listen");
            }
            let addr = listener.local_addr().expect("bound address");
            let scripts = if binary {
                mux_binary_scripts(&day, connections)
            } else {
                mux_text_scripts(&day, connections)
            };
            let (ready_tx, ready_rx) = mpsc::channel();
            std::thread::scope(|scope| {
                let server = scope.spawn(|| {
                    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                        .with_policy(StepPolicy::OnlyChanging);
                    load(&mut m);
                    ready_tx.send(()).expect("driver listens");
                    let (wal, metrics) = match durable {
                        Some((log, mx)) => (Some(DurableLog { log, repl: None }), Some(mx)),
                        None => (None, None),
                    };
                    let config = net::ServerConfig {
                        ingress: IngressConfig { wal, metrics, ..cfg.clone() },
                        ..Default::default()
                    };
                    net::serve(listener, &mut m, &ts, &config).expect("serve")
                });
                ready_rx.recv().expect("server loads");
                let t0 = Instant::now();
                let stats = drive_tcp_mux(addr, &scripts).expect("tcp drive");
                let rate = ops as f64 / t0.elapsed().as_secs_f64();
                assert_eq!(stats.ok, ops, "the whole day admits over the wire");
                assert_eq!(shutdown_server(addr).expect("shutdown"), "ok draining");
                (rate, server.join().expect("server thread"))
            })
        };

        let mut tcp_rows = Vec::new();
        let durable_conns = conn_counts[conn_counts.len() / 2];
        for &conns in conn_counts {
            let (rate, nstats) = serve_once(conns, false, None);
            assert_eq!(nstats.admitted, ops);
            let (binary_rate, bstats) = serve_once(conns, true, None);
            assert_eq!(bstats.admitted, ops);
            println!(
                "{:>10} {ops:>8} {conns:>6} {inproc_rate:>12.0} {rate:>12.0} {binary_rate:>12.0}",
                per * 4
            );
            tcp_rows.push(format!(
                r#"          {{ "connections": {conns}, "apps_per_sec": {rate:.0}, "binary_apps_per_sec": {binary_rate:.0} }}"#
            ));
        }

        // Durable runs through the two-stage pipeline at the middle
        // connection count, one per fsync policy: `batch` (one
        // fdatasync per committer batch — the group-commit headline)
        // vs `always` (one per record — the price of the old
        // sync-per-block shape). Admission latency percentiles come
        // from the server-side commit histograms (drain → durable
        // release), not from client timestamps: the driver pipelines
        // everything up front, so client-side timing would measure its
        // own queueing.
        let mut durable_rows = Vec::new();
        for policy in [FsyncPolicy::Batch, FsyncPolicy::Always] {
            let wal_dir = std::env::temp_dir()
                .join(format!("migratory-bench-serve-{}-{per}-{policy}", std::process::id()));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let wal =
                Arc::new(Mutex::new(Wal::open(&wal_dir).expect("wal dir").with_fsync(policy)));
            let metrics = Arc::new(AdmissionMetrics::new(4));
            let (rate, _) = serve_once(durable_conns, false, Some((wal, metrics.clone())));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let agg = Histogram::new();
            for h in &metrics.commit_latency_us {
                agg.merge(h);
            }
            let (p50, p99, p999) =
                (agg.quantile_bound(0.50), agg.quantile_bound(0.99), agg.quantile_bound(0.999));
            let batches = metrics.fsync_batch.count().max(1);
            #[allow(clippy::cast_precision_loss)]
            let amortization = metrics.fsync_batch.sum() as f64 / batches as f64;
            println!(
                "  durable fsync={policy} @ {durable_conns} conns: {rate:.0}/s, commit latency \
                 ≤ p50 {p50}µs / p99 {p99}µs / p99.9 {p999}µs, {amortization:.1} block(s)/sync"
            );
            durable_rows.push(format!(
                r#"          {{ "fsync": "{policy}", "connections": {durable_conns}, "apps_per_sec": {rate:.0}, "blocks_per_sync": {amortization:.1}, "commit_latency_us": {{ "p50": {p50}, "p99": {p99}, "p99.9": {p999} }} }}"#
            ));
        }
        rows.push(format!(
            r#"      {{
        "objects": {},
        "ops": {ops},
        "inprocess_4producer_apps_per_sec": {inproc_rate:.0},
        "tcp": [
{}
        ],
        "tcp_durable": [
{}
        ]
      }}"#,
            per * 4,
            tcp_rows.join(",\n"),
            durable_rows.join(",\n")
        ));
    }
    println!();
    format!(
        r#"  "serve": {{
    "workload": "four-component fleet behind `enforce::net` on an ephemeral TCP port; a day of single-object ops pipelined by N concurrent connections from one epoll-multiplexed driver (migratory-bench drive_tcp_mux), every reply awaited — apps_per_sec = text `invoke` lines, binary_apps_per_sec = length-prefixed binary frames; vs the same day through the in-process ingress with 4 pipelining producers; tcp_durable rows = text dialect through the two-stage pipeline (admission worker + committer thread), acks released only after the batch fsync; commit_latency_us = server-side drain-to-durable-release histograms (log2 bucket upper bounds)",
    "sizes": [
{}
    ]
  }}"#,
        rows.join(",\n")
    )
}

/// `tail-smoke`: the CI tail-latency regression gate. Runs a fixed
/// small fleet day over TCP through the two-stage durable pipeline
/// (`FsyncPolicy::Batch`, the `--fsync batch` server shape), reads the
/// committed baseline from `ci/tail_baseline.json`, and exits nonzero
/// when the measured p99.9 commit latency exceeds 3× the baseline.
/// The budget is intentionally generous: quantiles are log2 bucket
/// upper bounds, so 3× only trips when the tail moves by at least two
/// buckets — machine noise does not, a reintroduced inline fsync or a
/// serialized committer does.
fn tail_smoke() {
    use migratory_core::enforce::{
        net, AdmissionMetrics, DurableLog, FsyncPolicy, Histogram, IngressConfig, ShardedMonitor,
        StepPolicy, Wal,
    };
    use std::net::TcpListener;
    use std::sync::{mpsc, Arc, Mutex};

    const PER: usize = 256;
    const OPS: usize = 8192;
    const CONNS: usize = 4;
    println!("== tail-smoke: p99.9 commit-latency regression gate ==");
    let (schema, alphabet, ts) = fleet();
    let inv = Inventory::parse_init(&schema, &alphabet, FLEET_INVENTORY).unwrap();
    let day = fleet_ops(OPS, PER);
    let scripts = mux_text_scripts(&day, CONNS);
    let wal_dir = std::env::temp_dir().join(format!("migratory-tail-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal =
        Arc::new(Mutex::new(Wal::open(&wal_dir).expect("wal dir").with_fsync(FsyncPolicy::Batch)));
    let metrics = Arc::new(AdmissionMetrics::new(4));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let (ready_tx, ready_rx) = mpsc::channel();
    let config = net::ServerConfig {
        ingress: IngressConfig {
            queue_capacity: 1024,
            max_block: 256,
            wal: Some(DurableLog { log: wal.clone(), repl: None }),
            metrics: Some(metrics.clone()),
            ..Default::default()
        },
        ..Default::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 4)
                .with_policy(StepPolicy::OnlyChanging);
            for (mk, prefix) in
                [("BuyTruck", "t"), ("HireDriver", "d"), ("OpenRoute", "r"), ("BuildDepot", "p")]
            {
                let t = ts.get(mk).unwrap();
                let bulk: Vec<(&migratory_lang::Transaction, Assignment)> = (0..PER)
                    .map(|i| {
                        (
                            t,
                            Assignment::new(vec![migratory_model::Value::str(&format!(
                                "{prefix}{i}"
                            ))]),
                        )
                    })
                    .collect();
                let (done, err) = m.try_apply_batch(bulk.iter().map(|(t, a)| (*t, a)));
                assert_eq!((done, err), (PER, None), "bulk load conforms");
            }
            ready_tx.send(()).expect("driver listens");
            net::serve(listener, &mut m, &ts, &config).expect("serve")
        });
        ready_rx.recv().expect("server loads");
        let stats = drive_tcp_mux(addr, &scripts).expect("tcp drive");
        assert_eq!(stats.ok, OPS, "the whole day admits over the wire");
        assert_eq!(shutdown_server(addr).expect("shutdown"), "ok draining");
        server.join().expect("server thread")
    });
    let _ = std::fs::remove_dir_all(&wal_dir);

    let agg = Histogram::new();
    for h in &metrics.commit_latency_us {
        agg.merge(h);
    }
    // One sample per admitted block (every op in a block observes its
    // block's drain-to-durable-release latency); max_block = 256 floors
    // the block count.
    assert!(agg.count() >= (OPS / 256) as u64, "commit histograms were stamped: {}", agg.count());
    let p999 = agg.quantile_bound(0.999);
    let baseline = read_tail_baseline("ci/tail_baseline.json");
    println!(
        "  p99.9 commit latency ≤ {p999}µs over {} samples (committed baseline {baseline}µs, \
         budget 3×)",
        agg.count()
    );
    if p999 > baseline.saturating_mul(3) {
        eprintln!(
            "tail-smoke FAILED: p99.9 commit latency ≤ {p999}µs exceeds 3× the committed \
             baseline ({baseline}µs) — the durable ack tail regressed"
        );
        std::process::exit(1);
    }
    println!("  tail-smoke OK");
    println!();
}

/// Parse `"commit_latency_p999_us": <n>` out of the committed baseline
/// file (no JSON dependency in the workspace — the key is extracted
/// textually).
fn read_tail_baseline(path: &str) -> u64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run from the repository root)"));
    let key = "\"commit_latency_p999_us\":";
    let at = text.find(key).unwrap_or_else(|| panic!("{path} lacks {key}"));
    text[at + key.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("baseline is a bare integer")
}

fn flow_families_row() {
    println!("== §5 remark / flow: inflow families stay regular and only restrict ==");
    let (schema, alphabet, ts) = slim_chain();
    let (_, plain) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
    let ordered = vec![("Mk", "Up"), ("Up", "Up"), ("Up", "Rm")];
    println!("{:>10} {:>6} {:>10}  patterns of length ≤ k, k = 0..6", "relation", "kind", "|DFA|");
    for (rel, flow) in [
        (
            "complete",
            migratory_behavior::FlowSchema::complete(
                ts.clone(),
                migratory_behavior::FlowKind::Inflow,
            ),
        ),
        (
            "ordered",
            migratory_behavior::FlowSchema::new(
                ts.clone(),
                &ordered,
                migratory_behavior::FlowKind::Inflow,
            )
            .unwrap(),
        ),
    ] {
        let fams = migratory_behavior::flow_families(
            &schema,
            &alphabet,
            &flow,
            &AnalyzeOptions::default(),
        )
        .unwrap();
        for kind in PatternKind::ALL {
            let dfa = fams.of(kind);
            assert!(dfa.is_subset_of(plain.of(kind)), "ordering only restricts");
            let counts = dfa.count_words(6);
            let series: Vec<u64> = (0..=6).map(|k| counts.iter().take(k + 1).sum()).collect();
            println!("{rel:>10} {kind:>6} {:>10}  {series:?}", dfa.num_states());
        }
    }
    println!("  (every family ⊆ the plain Theorem 3.2(1) family — asserted above)");
    println!();
}

fn fig1_2() {
    println!("== fig1-2 / perf-interp: interpreter throughput vs database size ==");
    println!("{:>10} {:>14} {:>16}", "objects", "apply (µs)", "applies/sec");
    for &n in &[100usize, 1_000, 10_000, 30_000] {
        let (schema, ts, db) = populated_university(n);
        let rounds = 20usize;
        let start = Instant::now();
        for i in 0..rounds {
            let mut db2 = db.clone();
            apply_round(&schema, &ts, &mut db2, i);
        }
        let per = start.elapsed().as_secs_f64() / rounds as f64;
        println!("{:>10} {:>14.1} {:>16.0}", n, per * 1e6, 1.0 / per);
    }
    println!();
}

fn thm3_2() {
    println!("== thm3.2(1) / ex3.4: separator analysis of Example 3.4 ==");
    let (schema, alphabet, ts) = university();
    for (mode, opts) in [
        ("reachable+seq", AnalyzeOptions::default()),
        ("reachable+par", AnalyzeOptions { parallel: true, ..Default::default() }),
    ] {
        let start = Instant::now();
        let (analysis, fams) = analyze_families(&schema, &alphabet, &ts, &opts).unwrap();
        let dt = start.elapsed();
        println!(
            "{mode:>14}: {:>5} vertices {:>6} edges {:>9} runs  {:>8.2?}  |imm DFA| = {}",
            analysis.stats.vertices,
            analysis.stats.edges,
            analysis.stats.runs,
            dt,
            fams.imm.num_states(),
        );
    }
    let (schema, alphabet, ts) = slim_chain();
    println!("-- ablation (slim chain): reachable-only vs full separator space --");
    for (mode, opts) in [
        ("reachable", AnalyzeOptions::default()),
        ("full-space", AnalyzeOptions { full_space: true, ..Default::default() }),
    ] {
        let start = Instant::now();
        let (analysis, _) = analyze_families(&schema, &alphabet, &ts, &opts).unwrap();
        println!(
            "{mode:>14}: {:>5} vertices {:>6} edges {:>9} runs  {:>8.2?}",
            analysis.stats.vertices,
            analysis.stats.edges,
            analysis.stats.runs,
            start.elapsed(),
        );
    }
    println!();
}

fn cor3_3_baseline() {
    println!("== cor3.3 / perf-baseline: graph decision vs bounded exploration ==");
    let (schema, alphabet, ts) = slim_chain();
    let inv = Inventory::parse_init(&schema, &alphabet, "∅* [P]* [S]* ([G] ∪ [S])* ∅*").unwrap();
    let start = Instant::now();
    let (_, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
    let d = decide_with_families(&fams, &inv, PatternKind::All);
    println!(
        "{:>22}: verdict(satisfies)={:<5} {:>10.2?}  (complete, sound)",
        "graph decision",
        d.satisfies.holds(),
        start.elapsed()
    );
    for depth in [2usize, 3, 4] {
        let start = Instant::now();
        let sets = explore(
            &schema,
            &alphabet,
            &ts,
            &ExploreConfig { max_steps: depth, ..Default::default() },
        );
        let refuted = sets.all.iter().any(|w| !inv.contains(w));
        println!(
            "{:>18} d={depth}: refuted={refuted:<5} {:>10.2?}  ({} patterns; bound-limited)",
            "explorer",
            start.elapsed(),
            sets.all.len()
        );
    }
    println!();
}

fn thm4_3() {
    println!("== thm4.3: TM-in-CSL⁺ simulation (aⁿbⁿ) ==");
    let (schema, alphabet, s_class, roles) = standard_tm_schema(2).unwrap();
    let tm = machines::anbn();
    let spec = TmSpec {
        letter_of: vec![Some(roles[0]), Some(roles[1]), Some(roles[0]), Some(roles[1]), None],
    };
    let compiled = compile_tm(&schema, &alphabet, s_class, &tm, &spec).unwrap();
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>12}",
        "n", "TM steps", "script len", "native (µs)", "CSL (µs)"
    );
    for n in [2usize, 4, 6, 8] {
        let mut word = vec![0u32; n];
        word.extend(vec![1u32; n]);
        let t0 = Instant::now();
        let outcome = tm.run(&word, 1_000_000);
        let native = t0.elapsed();
        let steps = match outcome {
            migratory_chomsky::Outcome::Accepted { steps, .. } => steps,
            _ => unreachable!("aⁿbⁿ accepted"),
        };
        let script = drive_word(&tm, &word, 1_000_000).unwrap();
        let t0 = Instant::now();
        let mut db = Instance::empty();
        for (name, args) in &script {
            let t = compiled.transactions.get(name).unwrap();
            migratory_lang::apply_transaction(&schema, &mut db, t, &Assignment::new(args.clone()))
                .unwrap();
        }
        let csl = t0.elapsed();
        println!(
            "{:>6} {:>12} {:>12} {:>14.1} {:>12.1}",
            n,
            steps,
            script.len(),
            native.as_secs_f64() * 1e6,
            csl.as_secs_f64() * 1e6
        );
    }
    println!();
}

fn ex4_1() {
    println!("== ex4.1 / thm4.8: CFG derivation machine (aⁱbⁱ) ==");
    let grammar = migratory_chomsky::cfg::grammars::anbn();
    let (schema, alphabet, s_class, roles) = migratory_core::standard_cfg_schema(2).unwrap();
    let compiled =
        migratory_core::compile_cfg(&schema, &alphabet, s_class, &grammar, &roles).unwrap();
    println!("GNF productions: {}", compiled.gnf.prods.len());
    println!("{:>6} {:>12} {:>12}", "n", "script len", "CSL (µs)");
    for n in [1usize, 2, 4, 8] {
        let mut word = vec![0u32; n];
        word.extend(vec![1u32; n]);
        let script = migratory_core::cfg_compile::drive_word(&compiled, &word).unwrap();
        let t0 = Instant::now();
        let mut db = Instance::empty();
        for (name, args) in &script {
            let t = compiled.transactions.get(name).unwrap();
            migratory_lang::apply_transaction(&schema, &mut db, t, &Assignment::new(args.clone()))
                .unwrap();
        }
        println!("{:>6} {:>12} {:>12.1}", n, script.len(), t0.elapsed().as_secs_f64() * 1e6);
    }
    println!();
}

fn thm5_1() {
    println!("== thm5.1/5.2: reachability decision ==");
    let (schema, alphabet, ts) = slim_chain();
    let src = migratory_behavior::Assertion::trivial(schema.class_id("P").unwrap());
    let tgt = migratory_behavior::Assertion::trivial(schema.class_id("G").unwrap());
    for (name, kind) in [
        ("inflow", migratory_behavior::FlowKind::Inflow),
        ("script", migratory_behavior::FlowKind::Script),
    ] {
        for (rel, edges) in
            [("complete", None), ("ordered", Some(vec![("Mk", "Up"), ("Up", "Up"), ("Up", "Rm")]))]
        {
            let flow = match &edges {
                None => migratory_behavior::FlowSchema::complete(ts.clone(), kind),
                Some(e) => migratory_behavior::FlowSchema::new(ts.clone(), e, kind).unwrap(),
            };
            let t0 = Instant::now();
            let r = migratory_behavior::decide_reachability(&schema, &alphabet, &flow, &src, &tgt)
                .unwrap();
            println!(
                "{name:>8} {rel:>9}: reach {}/{} sources  {:>9.2?}",
                r.reachable_sources,
                r.sources,
                t0.elapsed()
            );
        }
    }
    println!();
}
