//! The end-to-end run: start the release `migctl serve`, set the store
//! up, drive a timed closed loop from at most two connections (one
//! thread each), check every reply and the final state, and report.

use crate::gen::{self, Model, Reader, Writer, LENIENT};
use crate::report::{self, median_f, quantile, Report};
use crate::wire::{Conn, Pace, Reply, Sample, Tally, Until};
use crate::Spec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// A `migctl serve` child process, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    pub repl_addr: Option<String>,
}

impl Server {
    /// Start `migctl serve` and wait until it announces its address.
    pub fn spawn(bin: &Path, dir: &Path, name: &str, args: &[String]) -> Result<Server, String> {
        let log = dir.join(format!("{name}.log"));
        let out = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let mut full = vec![
            "serve".to_owned(),
            dir.join("fleet.mig").display().to_string(),
            dir.join("fleet.sl").display().to_string(),
            "--inventory".to_owned(),
            LENIENT.to_owned(),
            "--addr".to_owned(),
            "127.0.0.1:0".to_owned(),
        ];
        full.extend_from_slice(args);
        let primary = args.iter().any(|a| a == "--repl-addr");
        let child = Command::new(bin)
            .args(&full)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut s = Server { child, addr: String::new(), repl_addr: None };
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // Only whole lines: a read may catch the server mid-write.
            let find = |tag: &str| {
                text.split_inclusive('\n').filter(|l| l.ends_with('\n')).find_map(|l| {
                    l.split_once(tag)
                        .and_then(|(_, r)| r.split_whitespace().next().map(str::to_owned))
                })
            };
            // A primary announces its replication address on the line
            // after its client address.
            let repl = find("replicating on ");
            if let Some(a) = find("listening on ").filter(|_| !primary || repl.is_some()) {
                s.addr = a;
                s.repl_addr = repl;
                return Ok(s);
            }
            if let Ok(Some(st)) = s.child.try_wait() {
                return Err(format!("migctl serve exited with {st}: {text}"));
            }
            if t0.elapsed() > Duration::from_secs(120) {
                return Err(format!("migctl serve did not start: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// kill -9, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A run directory under the checkout, removed on drop.
pub struct RunDir(pub PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `a` on a second thread and `b` on this one.
fn both<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|s| {
        let h = s.spawn(a);
        let rb = b();
        (h.join().expect("client thread panicked"), rb)
    })
}

/// One write connection: its stream, the model of the objects it owns,
/// and what it sent.
struct Lane {
    conn: Conn,
    writer: Writer,
    model: Model,
    tally: Tally,
}

impl Lane {
    fn new(
        addr: &str,
        spec: &Spec,
        seed: u64,
        owner: usize,
        owners: usize,
    ) -> Result<Lane, String> {
        Ok(Lane {
            conn: Conn::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?,
            writer: Writer::new(
                seed,
                spec.objects,
                owner,
                owners,
                spec.redefine_every,
                spec.scrap_per_mille,
            ),
            model: Model::new(spec.objects),
            tally: Tally::default(),
        })
    }

    fn load(&mut self, spec: &Spec, owner: usize, owners: usize) {
        let mut ops = gen::load_ops(spec.objects, owner, owners).into_iter();
        self.conn.closed_loop(
            &mut || ops.next(),
            true,
            spec.load_window,
            Until(u64::MAX),
            &mut self.tally,
            Pace::default(),
        );
    }

    fn migrate(&mut self, spec: &Spec, until: Until, pace: Pace<'_>) {
        let (w, m) = (&mut self.writer, &mut self.model);
        let next = &mut || Some(w.next(m));
        self.conn.closed_loop(next, spec.binary, spec.window, until, &mut self.tally, pace);
    }
}

/// The read connection of `replica-mixed`.
struct ReadLane {
    conn: Conn,
    reader: Reader,
    tally: Tally,
}

impl ReadLane {
    /// Point reads, `spec.reads_per_write` for every write `writes` has
    /// seen answered.
    fn read(&mut self, spec: &Spec, until: Until, writes: &AtomicU64) {
        let r = &mut self.reader;
        let pace = Pace { publish: None, follow: Some((writes, spec.reads_per_write)) };
        self.conn.closed_loop(
            &mut || Some(r.next()),
            false,
            spec.read_window,
            until,
            &mut self.tally,
            pace,
        );
    }
}

/// `stats` fields as `key=value` pairs.
fn stats(conn: &mut Conn) -> Result<Vec<(String, String)>, String> {
    match conn.request("stats").map_err(|e| format!("stats: {e}"))? {
        Reply::Ok(line) => Ok(line
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect()),
        r => Err(format!("stats refused: {r:?}")),
    }
}

fn field(stats: &[(String, String)], key: &str) -> u64 {
    stats.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.parse().ok()).unwrap_or(0)
}

/// Send the final-state queries on `conn` and check each count.
fn check_state(conn: &mut Conn, model: &Model, t: &mut Tally) {
    let mut ops = model.state_queries().into_iter();
    conn.closed_loop(&mut || ops.next(), false, 4, Until(u64::MAX), t, Pace::default());
}

/// Poll `stats` on `conn` until `pred` holds (or fail after a minute).
fn wait_for(
    conn: &mut Conn,
    what: &str,
    mut pred: impl FnMut(&[(String, String)]) -> bool,
) -> Result<(), String> {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(60) {
        if pred(&stats(conn)?) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("timed out waiting for {what}"))
}

/// Sum of `<series>_sum` and `<series>_count` over every label set.
fn prom_sum_count(text: &str, series: &str) -> (f64, f64) {
    let (mut sum, mut count) = (0.0, 0.0);
    for l in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, v)) = l.rsplit_once(' ') else { continue };
        let base = name.split('{').next().unwrap_or("");
        let v: f64 = v.parse().unwrap_or(0.0);
        if base == format!("{series}_sum") {
            sum += v;
        } else if base == format!("{series}_count") {
            count += v;
        }
    }
    (sum, count)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Everything the timed phase measured.
struct Timed {
    t0: Instant,
    secs: f64,
    cpu_s: f64,
    steal: f64,
    invokes: Tally,
    reads: Tally,
}

/// Sample server CPU and host steal around `phase`.
fn timed(pids: &[u32], phase: impl FnOnce() -> (Tally, Tally)) -> Timed {
    let cpu0: f64 = pids.iter().map(|&p| report::cpu_s(p)).sum();
    let (st0, tot0) = report::host_cpu();
    let t0 = Instant::now();
    let (invokes, reads) = phase();
    let secs = t0.elapsed().as_secs_f64();
    let cpu1: f64 = pids.iter().map(|&p| report::cpu_s(p)).sum();
    let (st1, tot1) = report::host_cpu();
    Timed {
        t0,
        secs,
        cpu_s: cpu1 - cpu0,
        steal: ratio((st1 - st0) as f64, (tot1 - tot0) as f64),
        invokes,
        reads,
    }
}

/// The window of `admit_ops_s.window_median`.
const WINDOW: Duration = Duration::from_secs(1);

/// Rate, p50 and p99 of one request class over the timed phase, plus
/// the median rate over its one-second windows: where it runs well
/// above the whole-phase rate, stalls are eating the difference.
fn report_class(r: &mut Report, prefix: &str, t: &Timed, lat: &[Sample]) {
    let n = lat.len();
    let mut ns: Vec<u64> = lat.iter().map(|s| s.ns).collect();
    r.note(&format!("{prefix}_ops_s"), "1/s", n as f64 / t.secs, Some(n));
    r.note(&format!("{prefix}_p50_ms"), "ms", quantile(&mut ns, 0.50) / 1e6, Some(n));
    r.note(&format!("{prefix}_p99_ms"), "ms", quantile(&mut ns, 0.99) / 1e6, Some(n));
    let rate = report::window_rate(lat, t.t0, t.secs, WINDOW);
    r.note(&format!("{prefix}_ops_s.window_median"), "1/s", rate, None);
}

/// Report the timed phase's common metrics.
fn report_timed(r: &mut Report, t: &mut Timed) {
    report_class(r, "admit", t, &t.invokes.lat[0]);
    let requests = t.invokes.answered + t.reads.answered;
    r.put("server_cpu_us_per_op", "us", t.cpu_s * 1e6 / requests as f64, Some(requests as usize));
    r.meta("timed_s", format!("{:.3}", t.secs));
    r.meta("host_steal_share", format!("{:.4}", t.steal));
    r.meta("timed_requests", requests);
}

/// A run's accumulated requests and the first thing that went wrong.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub why: Vec<String>,
}

impl Verdict {
    fn add(&mut self, t: &Tally, phase: &str) {
        self.attempted += t.sent;
        self.failed += t.failed;
        if !t.balanced() {
            self.why.push(format!("{phase}: requests not accounted exactly once"));
        }
        if let Some(w) = &t.first_failure {
            self.why.push(format!("{phase}: {w}"));
        }
    }

    /// A failed check outside any request (a server-side counter).
    pub fn mismatch(&mut self, what: String) {
        self.attempted += 1;
        self.wrong(what);
    }

    /// A check already counted as attempted came out wrong.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.why.push(what);
    }
}

/// The set-up that was kept, and what each set-up cost.
struct SetUp<S> {
    kept: S,
    /// CPU seconds the server processes used, per set-up.
    cpu_s: Vec<f64>,
    /// Wall-clock seconds, per set-up.
    wall_s: Vec<f64>,
}

/// Set the store up `spec.setups` times and keep the last one. `once`
/// returns its servers and lanes with the CPU seconds its server
/// processes have used since they were spawned.
fn set_up<S>(
    spec: &Spec,
    v: &mut Verdict,
    mut once: impl FnMut(&mut Verdict) -> Result<(S, f64), String>,
) -> Result<SetUp<S>, String> {
    let (mut cpu_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut kept: Option<S> = None;
    for _ in 0..spec.setups {
        // Kill the previous set-up's servers before timing anew.
        drop(kept.take());
        let t0 = Instant::now();
        let (s, cpu) = once(v)?;
        wall_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push(cpu);
        kept = Some(s);
    }
    Ok(SetUp { kept: kept.expect("at least one set-up"), cpu_s, wall_s })
}

/// `setup_s` is the servers' CPU time. On a 2-vCPU host whose steal
/// swings, the median wall-clock set-up of `durable-1m` (one 1M load a
/// run) moved from 13.6 s to 18.8 s between two sets of ten runs of the
/// same code. The wall-clock time is printed beside it.
fn report_setup<S>(r: &mut Report, s: &SetUp<S>) {
    r.put("setup_s", "s", median_f(&s.cpu_s), Some(s.cpu_s.len()));
    r.note("setup_wall_s", "s", median_f(&s.wall_s), Some(s.wall_s.len()));
    r.meta("setup_runs_cpu_s", format!("{:.2?}", s.cpu_s));
    r.meta("setup_runs_wall_s", format!("{:.3?}", s.wall_s));
}

fn fresh_dir(p: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(p);
    std::fs::create_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))
}

/// Base and incremental checkpoint files in a durable directory.
pub fn count_checkpoint_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with("delta-") || n.starts_with("base")
            })
            .count()
    })
}

/// `wire-16k` and `durable-1m`: two write connections over disjoint
/// halves of the store.
pub fn run_pair(
    spec: &Spec,
    bin: &Path,
    dir: &Path,
    seed: u64,
    secs: u64,
) -> Result<(Report, Verdict), String> {
    let mut r = Report::default();
    let mut v = Verdict::default();
    let data = dir.join("data");
    let args: Vec<String> = if spec.durable {
        vec!["--durable".into(), data.display().to_string(), "--fsync".into(), "batch".into()]
    } else {
        Vec::new()
    };
    let setup = set_up(spec, &mut v, |v| {
        if spec.durable {
            fresh_dir(&data)?;
        }
        let server = Server::spawn(bin, dir, "server", &args)?;
        let mut a = Lane::new(&server.addr, spec, seed, 0, 2)?;
        let mut b = Lane::new(&server.addr, spec, seed, 1, 2)?;
        both(|| a.load(spec, 0, 2), || b.load(spec, 1, 2));
        let warm = Until(a.tally.sent + spec.warmup_ops);
        let warm_b = Until(b.tally.sent + spec.warmup_ops);
        let solo = Pace::default();
        both(|| a.migrate(spec, warm, solo), || b.migrate(spec, warm_b, solo));
        v.add(&std::mem::take(&mut a.tally), "set-up");
        v.add(&std::mem::take(&mut b.tally), "set-up");
        let cpu = report::cpu_s(server.pid());
        Ok(((server, a, b), cpu))
    })?;
    report_setup(&mut r, &setup);
    let (mut server, mut a, mut b) = setup.kept;
    r.meta("server_flags", if args.is_empty() { "(defaults)".to_owned() } else { args.join(" ") });
    r.note("server_rss_mb.setup", "MiB", report::peak_rss_mb(server.pid()), None);

    let until = Until(spec.timed_writes_per_s * secs);
    let mut t = timed(&[server.pid()], || {
        let solo = Pace::default();
        both(|| a.migrate(spec, until, solo), || b.migrate(spec, until, solo));
        let mut inv = std::mem::take(&mut a.tally);
        inv.absorb(std::mem::take(&mut b.tally));
        (inv, Tally::default())
    });
    v.add(&t.invokes, "timed");
    report_timed(&mut r, &mut t);
    // The peak over set-up and timed phase.
    r.put("server_rss_mb", "MiB", report::peak_rss_mb(server.pid()), None);

    // Counters from this untraced run, and the exactly-once check
    // against the server's own tally.
    let st = stats(&mut a.conn)?;
    let expect_admitted = spec.objects as u64 + 2 * spec.warmup_ops + t.invokes.answered;
    if field(&st, "admitted") != expect_admitted || field(&st, "rejected") != 0 {
        v.mismatch(format!(
            "server admitted={} rejected={}, client expected admitted={expect_admitted} rejected=0",
            field(&st, "admitted"),
            field(&st, "rejected")
        ));
    }
    let mut model = Model::new(spec.objects);
    model.absorb(&a.model);
    model.absorb(&b.model);
    if spec.durable {
        let prom = a.conn.prom().map_err(|e| format!("stats prom: {e}"))?;
        e2e_counters(&mut r, &prom);
        r.note("disk_mb", "MiB", report::dir_bytes(&data) as f64 / (1 << 20) as f64, None);
        r.note("wal.chain_files", "count", count_checkpoint_files(&data) as f64, None);
        drop((a, b));
        // kill -9, then time `--recover` until the server answers ping.
        let t0 = Instant::now();
        server.kill();
        let mut rargs = args.clone();
        rargs.push("--recover".into());
        let recovered = Server::spawn(bin, dir, "recovered", &rargs)?;
        let mut c = Conn::connect(&recovered.addr).map_err(|e| e.to_string())?;
        let pong = c.request("ping").map_err(|e| format!("ping: {e}"))?;
        r.note("recover_s", "s", t0.elapsed().as_secs_f64(), None);
        if pong != Reply::Ok("pong".into()) {
            v.mismatch(format!("recovered server answered ping with {pong:?}"));
        }
        let mut chk = Tally::default();
        check_state(&mut c, &model, &mut chk);
        v.add(&chk, "recovered state");
        r.note("recover_rss_mb", "MiB", report::peak_rss_mb(recovered.pid()), None);
        drop(recovered);
    } else {
        let mut chk = Tally::default();
        check_state(&mut a.conn, &model, &mut chk);
        v.add(&chk, "final state");
        drop((a, b));
        server.kill();
    }
    Ok((r, v))
}

/// `replica-mixed`: binary writes (with scripted violations and
/// redefines) to a primary under `--ack replica-1`, text point reads
/// from its standby.
pub fn run_replica(
    spec: &Spec,
    bin: &Path,
    dir: &Path,
    seed: u64,
    secs: u64,
) -> Result<(Report, Verdict), String> {
    let mut r = Report::default();
    let mut v = Verdict::default();
    let (d1, d2) = (dir.join("primary"), dir.join("standby"));
    let pargs: Vec<String> = [
        "--durable",
        &d1.display().to_string(),
        "--fsync",
        "batch",
        "--ack",
        "replica-1",
        "--repl-addr",
        "127.0.0.1:0",
    ]
    .map(str::to_owned)
    .to_vec();
    let setup = set_up(spec, &mut v, |v| {
        fresh_dir(&d1)?;
        fresh_dir(&d2)?;
        let primary = Server::spawn(bin, dir, "primary", &pargs)?;
        let upstream =
            primary.repl_addr.clone().ok_or("primary announced no replication address")?;
        let sargs: Vec<String> =
            ["--durable", &d2.display().to_string(), "--replica-of", &upstream]
                .map(str::to_owned)
                .to_vec();
        let standby = Server::spawn(bin, dir, "standby", &sargs)?;
        let mut w = Lane::new(&primary.addr, spec, seed, 0, 1)?;
        wait_for(&mut w.conn, "the standby to attach", |s| field(s, "replicas") >= 1)?;
        w.load(spec, 0, 1);
        let mut rd = ReadLane {
            conn: Conn::connect(&standby.addr).map_err(|e| e.to_string())?,
            reader: Reader::new(seed, spec.objects),
            tally: Tally::default(),
        };
        let shipped = field(&stats(&mut w.conn)?, "shipped");
        wait_for(&mut rd.conn, "the standby to catch up", |s| field(s, "horizon") >= shipped)?;
        let warm = Until(w.tally.sent + spec.warmup_ops);
        let writes = AtomicU64::new(0);
        let pace = Pace { publish: Some(&writes), ..Pace::default() };
        let reads = Until(spec.warmup_ops * spec.reads_per_write);
        both(|| rd.read(spec, reads, &writes), || w.migrate(spec, warm, pace));
        v.add(&std::mem::take(&mut w.tally), "set-up");
        v.add(&std::mem::take(&mut rd.tally), "set-up");
        let pc = Conn::connect(&primary.addr).map_err(|e| e.to_string())?;
        let cpu = report::cpu_s(primary.pid()) + report::cpu_s(standby.pid());
        Ok(((primary, standby, w, rd, pc), cpu))
    })?;
    report_setup(&mut r, &setup);
    let (mut primary, mut standby, mut w, mut rd, mut pc) = setup.kept;
    r.meta(
        "server_flags",
        format!("primary: {} / standby: --durable DIR --replica-of ADDR", pargs.join(" ")),
    );
    let rss = |p: &Server, s: &Server| report::peak_rss_mb(p.pid()) + report::peak_rss_mb(s.pid());
    r.note("server_rss_mb.setup", "MiB", rss(&primary, &standby), None);

    let writes_n = spec.timed_writes_per_s * secs;
    let (until, reads) = (Until(writes_n), Until(writes_n * spec.reads_per_write));
    let writes = AtomicU64::new(0);
    let pace = Pace { publish: Some(&writes), follow: None };
    let mut t = timed(&[primary.pid(), standby.pid()], || {
        both(|| rd.read(spec, reads, &writes), || w.migrate(spec, until, pace));
        (std::mem::take(&mut w.tally), std::mem::take(&mut rd.tally))
    });
    // The peak over set-up and timed phase.
    r.put("server_rss_mb", "MiB", rss(&primary, &standby), None);
    r.meta("reads_per_write", spec.reads_per_write);
    v.add(&t.invokes, "timed writes");
    v.add(&t.reads, "timed reads");
    report_timed(&mut r, &mut t);
    report_class(&mut r, "query", &t, &t.reads.lat[1]);
    let mut rdf: Vec<u64> = t.invokes.lat[2].iter().map(|s| s.ns).collect();
    r.note("redefine_ms", "ms", quantile(&mut rdf, 0.50) / 1e6, Some(rdf.len()));
    let prom = pc.prom().map_err(|e| format!("stats prom: {e}"))?;
    e2e_counters(&mut r, &prom);
    r.note("disk_mb", "MiB", report::dir_bytes(&d1) as f64 / (1 << 20) as f64, None);

    // The standby must converge on exactly the acked script.
    let shipped = field(&stats(&mut pc)?, "shipped");
    wait_for(&mut rd.conn, "the standby to catch up", |s| field(s, "horizon") >= shipped)?;
    let mut chk = Tally::default();
    check_state(&mut rd.conn, &w.model, &mut chk);
    check_state(&mut pc, &w.model, &mut chk);
    v.add(&chk, "final state");
    drop((w, rd, pc));
    standby.kill();
    primary.kill();
    Ok((r, v))
}

/// The *e2e* per-layer counters of an untraced run, from `stats prom`.
fn e2e_counters(r: &mut Report, prom: &str) {
    let (blocks_sum, blocks) = prom_sum_count(prom, "migratory_block_size");
    r.note("ingress.e2e_ops_per_block", "ops", ratio(blocks_sum, blocks), Some(blocks as usize));
    let (recs, syncs) = prom_sum_count(prom, "migratory_fsync_batch");
    r.note("wal.e2e_records_per_fsync", "records", ratio(recs, syncs), Some(syncs as usize));
    let (stall_us, stalls) = prom_sum_count(prom, "migratory_checkpoint_stall_us");
    r.note(
        "wal.e2e_checkpoint_stall_ms",
        "ms",
        ratio(stall_us, stalls) / 1e3,
        Some(stalls as usize),
    );
    let (ship_us, ships) = prom_sum_count(prom, "migratory_repl_ship_wait_us");
    if ships > 0.0 {
        r.note("repl.e2e_ship_wait_ms", "ms", ratio(ship_us, ships) / 1e3, Some(ships as usize));
    }
}

/// Write the generated schema and transaction files into `dir`.
pub fn write_inputs(dir: &Path) -> Result<(), String> {
    std::fs::write(dir.join("fleet.mig"), gen::schema_src()).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("fleet.sl"), gen::transactions_src()).map_err(|e| e.to_string())
}
