//! The benchmark of `migctl serve`.
//!
//! ```text
//! perfbench --workload <wire-16k|durable-1m|replica-mixed> --seed N
//!           --seconds S --trace <0|1> --migctl PATH [--work-dir DIR]
//! ```
//!
//! With `--trace 0` it starts the release `migctl serve` binary, sets
//! the store up, drives a timed closed loop over at most two
//! connections, checks every reply, and prints the end-to-end metrics.
//! With `--trace 1` it replays the same generated inputs in-process
//! through each layer's public functions and prints the per-layer
//! metrics. Either way the last line of output is one JSON object.
//! See `README.md` beside this crate for the metric definitions.

mod e2e;
mod gen;
mod report;
mod trace;
mod wire;

use std::path::PathBuf;

/// One workload's shape.
pub struct Spec {
    pub name: &'static str,
    pub objects: usize,
    /// Requests each write connection keeps in flight during migrations.
    pub window: usize,
    /// Requests the read connection keeps in flight (`replica-mixed`).
    pub read_window: usize,
    /// Reads sent per answered write request (`replica-mixed`).
    pub reads_per_write: u64,
    /// Requests each connection keeps in flight while loading.
    pub load_window: usize,
    /// Dialect of the migrations (loads are always binary).
    pub binary: bool,
    pub durable: bool,
    pub replica: bool,
    /// Set-ups per run; `setup_s` is their median, the last one is kept.
    pub setups: usize,
    /// Migrations per write connection between load and timed phase.
    pub warmup_ops: u64,
    /// The timed phase ends once each write connection has sent this
    /// many requests per second of `--seconds`, not at a deadline: every
    /// run then does the same work, however fast the host admits it. A
    /// deadline would let a faster server do more work in the phase, and
    /// costlier work where costs grow with the history (`replica-mixed`'s
    /// violations, RSS that grows with the ops admitted). Each is about
    /// the workload's rate on a 2-vCPU host, so the phase lasts about
    /// `--seconds` there.
    pub timed_writes_per_s: u64,
    /// Migrations between scripted redefines (0: none).
    pub redefine_every: usize,
    /// Chance per migration, while the strict inventory is in force, of
    /// a scripted violation.
    pub scrap_per_mille: u64,
}

/// Wide windows batch more work per wakeup, which narrowed every
/// figure's run-to-run spread on a 2-vCPU host; `replica-mixed` keeps
/// fewer in flight because each write batch already waits on two syncs.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "wire-16k",
        objects: 16_384,
        window: 512,
        read_window: 0,
        reads_per_write: 0,
        load_window: 512,
        binary: true,
        durable: false,
        replica: false,
        setups: 5,
        warmup_ops: 20_000,
        timed_writes_per_s: 50_000,
        redefine_every: 0,
        scrap_per_mille: 0,
    },
    Spec {
        name: "durable-1m",
        objects: 1 << 20,
        window: 512,
        read_window: 0,
        reads_per_write: 0,
        load_window: 2048,
        binary: false,
        durable: true,
        replica: false,
        setups: 1,
        warmup_ops: 20_000,
        timed_writes_per_s: 16_000,
        redefine_every: 0,
        scrap_per_mille: 0,
    },
    Spec {
        name: "replica-mixed",
        objects: 16_384,
        window: 128,
        read_window: 16,
        // The median mix of seven runs with unpaced reads on a 2-vCPU
        // host (5.1 to 7.0 reads per write request; see README.md).
        reads_per_write: 6,
        load_window: 512,
        binary: true,
        durable: true,
        replica: true,
        setups: 5,
        warmup_ops: 5_000,
        timed_writes_per_s: 7_000,
        redefine_every: 5_000,
        scrap_per_mille: 40,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    migctl: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        migctl: PathBuf::new(),
        work_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|_| format!("{flag} takes a number, got `{v}`"));
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            "--migctl" => a.migctl = PathBuf::from(&v),
            "--work-dir" => a.work_dir = PathBuf::from(&v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (wire-16k|durable-1m|replica-mixed)",
            args.workload
        );
        std::process::exit(2);
    };
    let dir = e2e::RunDir(args.work_dir.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    )));
    let ready = std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("{}: {e}", dir.0.display()))
        .and_then(|()| e2e::write_inputs(&dir.0));
    let run = ready.and_then(|()| {
        if args.trace {
            trace::run(spec, &dir.0, args.seed)
        } else if spec.replica {
            e2e::run_replica(spec, &args.migctl, &dir.0, args.seed, args.seconds)
        } else {
            e2e::run_pair(spec, &args.migctl, &dir.0, args.seed, args.seconds)
        }
    });
    let (mut report, verdict) = match run {
        Ok(x) => x,
        Err(e) => {
            // Keep the server logs and data for inspection.
            eprintln!("perfbench: {}: {e} (run directory kept: {})", spec.name, dir.0.display());
            std::mem::forget(dir);
            std::process::exit(1);
        }
    };
    report.meta.splice(
        0..0,
        [
            ("workload", spec.name.to_owned()),
            ("seed", args.seed.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("git_rev", git_rev()),
            (
                "nproc",
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get).to_string(),
            ),
            ("objects", spec.objects.to_string()),
            ("connections", if args.trace { "0 (in-process)".to_owned() } else { "2".to_owned() }),
            ("write_window_per_connection", spec.window.to_string()),
            ("read_window", spec.read_window.to_string()),
            ("migration_dialect", if spec.binary { "binary" } else { "text" }.to_owned()),
            ("fsync", if spec.durable { "batch" } else { "none (volatile)" }.to_owned()),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );
    for w in &verdict.why {
        eprintln!("perfbench: check failed: {w}");
    }
    let correct = verdict.why.is_empty() && verdict.failed == 0;
    report.print(correct, verdict.attempted.max(1), verdict.failed);
    if !correct {
        eprintln!("perfbench: run directory kept: {}", dir.0.display());
        std::mem::forget(dir);
        std::process::exit(1);
    }
}
