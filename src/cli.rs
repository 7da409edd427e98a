//! The `migctl` command-line interface: the paper's decision procedures,
//! analysis, synthesis and runtime enforcement over text-format schema,
//! transaction and script files.
//!
//! All subcommand logic lives here as string-in/string-out functions so
//! it can be unit-tested without touching the filesystem; the binary in
//! `src/bin/migctl.rs` only reads files and prints.

use migratory_core::enforce::{
    net, AckPolicy, AdmissionMetrics, DurabilityPolicy, DurableLog, EnforceError, FsyncPolicy,
    Health, IngressConfig, IoFaults, Replicator, ResiduePolicy, ShardedMonitor, StepPolicy, Wal,
    DEFAULT_CHECKPOINT_BYTES,
};
use migratory_core::{
    analyze_families, decide_with_families, AnalyzeOptions, Inventory, PatternKind, RoleAlphabet,
    Verdict,
};
use migratory_lang::pretty::transaction_to_text;
use migratory_lang::{parse_transactions, Assignment};
use migratory_model::text::parse_schema;
use migratory_model::Schema;

/// Usage text for the binary and the `help` subcommand.
pub const USAGE: &str = "\
migctl — dynamic constraints and object migration (Su, VLDB 1991)

USAGE:
  migctl families   <schema> <transactions> [--component N]
  migctl decide     <schema> <transactions> --inventory <regex> [--kind K] [--component N]
  migctl synthesize <schema> --inventory <regex> [--lazy] [--component N]
  migctl enforce    <schema> <transactions> --inventory <regex> --script <file> [--kind K]
  migctl serve      <schema> <transactions> --inventory <regex> [--kind K] [--component N]
                    [--addr HOST:PORT] [--shards N] [--policy P] [--queue N] [--max-block N]
                    [--durable DIR] [--fsync batch|always|off] [--recover] [--checkpoint-bytes B]
                    [--retries N] [--retry-backoff-ms MS] [--inject PLAN]
                    [--idle-timeout SECS] [--max-conn-bytes N] [--max-conn-ops N]
                    [--max-connections N] [--auth TOKEN] [--io-threads N]
                    [--repl-addr HOST:PORT] [--ack local-fsync|replica-K]
                    [--ack-timeout-ms MS] [--replica-of HOST:PORT]
  migctl client     [--addr HOST:PORT] [--script <file>] [--shutdown] [--auth TOKEN]
                    [--binary]
  migctl promote    [--addr HOST:PORT] [--auth TOKEN]
  migctl help

  Each subcommand takes the flags shown on its lines and refuses any other.

  <schema>        a `schema Name { class … }` file
  <transactions>  a `transaction Name(params) { … }` file (SL or CSL)
  <regex>         paper notation over role sets, e.g. \"∅* [PERSON]* [STUDENT]* ∅*\"
                  (Init — the prefix closure — is applied automatically)
  K               all | immediate-start | proper | lazy   (default: all)
  P               every | changing   (default: every — Definition 3.4 vs 4.6 semantics)
  --script        lines of `Name(arg, …)` applications; `#` comments allowed;
                  admin lines `redefine <policy> <regex>`, `rearm`, `stats`,
                  `stats prom`, `ping` ride along (policy: quarantine |
                  certify-and-reset)

families    prints the four pattern families of Theorem 3.2(1) as regexes
decide      checks satisfies/generates of Corollary 3.3, with counterexamples
synthesize  builds the SL schema characterizing the inventory (Lemma 3.4)
enforce     replays a script under the runtime monitor, reporting rejections;
            a `redefine` script line swaps the inventory mid-replay (epoch +1)
serve       admits transactions over TCP (docs/PROTOCOL.md) through the sharded
            ingress; --durable DIR write-ahead-logs every block through a
            pipelined committer thread (group commit) and runs background
            incremental checkpoints every B bytes of log, on a primary and
            on a --replica-of standby alike (default 131072; 0 = never);
            --fsync sets what an `ok` ack means: `batch` (default — one
            fdatasync per committer batch, acks survive power loss), `always`
            (one fdatasync per record), `off` (flushed to the OS only: acks
            survive a process crash, not power loss). --recover resumes from
            DIR's checkpoint chain + WAL tail; without it DIR must be absent
            or empty.
            Failing appends/checkpoints retry --retries times (default 4) with
            --retry-backoff-ms linear backoff (default 20); persistent failure
            degrades the server to read-only until an operator sends `rearm`.
            Connection supervision: --idle-timeout reaps silent peers,
            --max-conn-bytes/--max-conn-ops bound one connection's traffic,
            --max-connections caps live sockets, --auth requires a shared-secret
            `auth TOKEN` handshake. --io-threads sizes the poll-based event
            core that multiplexes every connection (default 2).
            --inject PLAN schedules deterministic I/O
            faults for testing (comma-separated site@N[:K|:persistent]; sites
            append|sync|seal|ckpt-write|ckpt-sync|ckpt-rename|ckpt-prune).
            Replication (docs/PROTOCOL.md § Replication stream): --repl-addr
            makes a durable server a primary that tees every committed record
            to connected replicas; --ack picks what an `ok` means (local-fsync:
            locally durable, default; replica-K: also applied and durable on K
            replicas, --ack-timeout-ms bounds the wait, default 5000).
            --replica-of makes a durable server a read-only replica following
            the primary's replication address; it serves query/schema/stats and
            refuses writes until `promote`.
            Runs until a client sends the `shutdown` verb.
client      drives a serve endpoint: --script sends each line as an `invoke`
            (pipelined, replies in order; request lines — query, redefine,
            rearm, stats [prom], ping — are forwarded as protocol requests),
            --shutdown asks the server to drain, --auth performs the handshake
            first; with neither script nor shutdown, forwards raw protocol
            lines from stdin. --binary sends script invocations (and query,
            redefine) as length-prefixed binary frames (docs/PROTOCOL.md
            § Binary framing) instead of text lines
promote     flips a replica to a writable primary: the replica finishes folding
            the shipped tail, stops pulling, and starts accepting writes
";

/// Parse a `--kind` value.
fn parse_kind(s: &str) -> Result<PatternKind, String> {
    match s {
        "all" => Ok(PatternKind::All),
        "immediate-start" | "imm" => Ok(PatternKind::ImmediateStart),
        "proper" | "pro" => Ok(PatternKind::Proper),
        "lazy" => Ok(PatternKind::Lazy),
        other => Err(format!("unknown pattern kind `{other}` (all|immediate-start|proper|lazy)")),
    }
}

/// A parsed flag set: positional arguments plus `--flag value` pairs.
pub struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut named = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if matches!(name, "lazy" | "recover" | "shutdown" | "binary") {
                named.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let v = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
            named.push((name.to_owned(), v.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags { positional, named })
}

/// The flags each subcommand reads. Any other flag is refused by name,
/// so a misspelled or renamed one (`--checkpoint-every`, since renamed
/// `--checkpoint-bytes`) fails at once instead of leaving a default in
/// force.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "families" => &["component"],
        "decide" => &["component", "inventory", "kind"],
        "synthesize" => &["component", "inventory", "lazy"],
        "enforce" => &["component", "inventory", "kind", "script"],
        "serve" => &[
            "component",
            "inventory",
            "kind",
            "policy",
            "addr",
            "shards",
            "queue",
            "max-block",
            "durable",
            "recover",
            "fsync",
            "checkpoint-bytes",
            "retries",
            "retry-backoff-ms",
            "inject",
            "idle-timeout",
            "max-conn-bytes",
            "max-conn-ops",
            "max-connections",
            "io-threads",
            "auth",
            "repl-addr",
            "replica-of",
            "ack",
            "ack-timeout-ms",
        ],
        "client" => &["addr", "auth", "script", "binary", "shutdown"],
        "promote" => &["addr", "auth"],
        _ => &[],
    }
}

impl Flags {
    /// Refuse the first flag `migctl cmd` does not read.
    fn check(&self, cmd: &str) -> Result<(), String> {
        let known = known_flags(cmd);
        match self.named.iter().find(|(name, _)| !known.contains(&name.as_str())) {
            None => Ok(()),
            Some((name, _)) => Err(format!(
                "unknown flag --{name} for `migctl {cmd}` (it takes --{})",
                known.join(", --")
            )),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn component(&self) -> Result<u32, String> {
        self.get("component").map_or(Ok(0), |v| {
            v.parse().map_err(|_| format!("--component takes a number, got `{v}`"))
        })
    }

    fn kind(&self) -> Result<PatternKind, String> {
        self.get("kind").map_or(Ok(PatternKind::All), parse_kind)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("--{name} takes a number, got `{v}`"))
        })
    }

    fn policy(&self) -> Result<StepPolicy, String> {
        match self.get("policy") {
            None | Some("every") => Ok(StepPolicy::EveryApplication),
            Some("changing" | "only-changing") => Ok(StepPolicy::OnlyChanging),
            Some(other) => Err(format!("unknown policy `{other}` (every|changing)")),
        }
    }
}

fn load(schema_src: &str, component: u32) -> Result<(Schema, RoleAlphabet), String> {
    let schema = parse_schema(schema_src).map_err(|e| format!("schema: {e}"))?;
    let alphabet = RoleAlphabet::new(&schema, component).map_err(|e| format!("alphabet: {e}"))?;
    Ok((schema, alphabet))
}

fn load_inventory(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    flags: &Flags,
) -> Result<Inventory, String> {
    let src = flags.get("inventory").ok_or("missing --inventory <regex>")?;
    Inventory::parse_init(schema, alphabet, src).map_err(|e| format!("inventory: {e}"))
}

/// `migctl families`: the four families as role-set regexes.
pub fn cmd_families(schema_src: &str, tx_src: &str, component: u32) -> Result<String, String> {
    let (schema, alphabet) = load(schema_src, component)?;
    let ts = parse_transactions(&schema, tx_src).map_err(|e| format!("transactions: {e}"))?;
    let (analysis, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default())
        .map_err(|e| format!("analysis: {e}"))?;
    let name = |s: u32| alphabet.name(s).to_owned();
    let mut out = format!(
        "migration graph: {} vertices, {} edges ({} ground runs)\n",
        analysis.stats.vertices, analysis.stats.edges, analysis.stats.runs
    );
    for kind in PatternKind::ALL {
        let dfa = fams.of(kind);
        let regex = migratory_automata::dfa_to_regex(dfa);
        out.push_str(&format!(
            "{kind:>16}: {}   ({} DFA states)\n",
            regex.display_with(&name),
            dfa.num_states()
        ));
    }
    Ok(out)
}

/// `migctl decide`: Corollary 3.3 verdicts with counterexamples.
pub fn cmd_decide(schema_src: &str, tx_src: &str, flags: &Flags) -> Result<String, String> {
    let (schema, alphabet) = load(schema_src, flags.component()?)?;
    let ts = parse_transactions(&schema, tx_src).map_err(|e| format!("transactions: {e}"))?;
    let inv = load_inventory(&schema, &alphabet, flags)?;
    let kind = flags.kind()?;
    let (_, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default())
        .map_err(|e| format!("analysis: {e}"))?;
    let d = decide_with_families(&fams, &inv, kind);
    let mut out = String::new();
    let show = |out: &mut String, label: &str, v: &Verdict| match v {
        Verdict::Holds => out.push_str(&format!("{label}: HOLDS\n")),
        Verdict::Fails { counterexample } => out.push_str(&format!(
            "{label}: FAILS — counterexample {}\n",
            alphabet.display_word(counterexample)
        )),
    };
    show(&mut out, "satisfies", &d.satisfies);
    show(&mut out, "generates", &d.generates);
    out.push_str(&format!("characterizes: {}\n", d.characterizes()));
    Ok(out)
}

/// `migctl synthesize`: Lemma 3.4's schema for a regular inventory.
pub fn cmd_synthesize(schema_src: &str, flags: &Flags) -> Result<String, String> {
    let (schema, alphabet) = load(schema_src, flags.component()?)?;
    let src = flags.get("inventory").ok_or("missing --inventory <regex>")?;
    let eta = alphabet.parse_regex(&schema, src).map_err(|e| format!("inventory: {e}"))?;
    let synthesis = if flags.get("lazy").is_some() {
        migratory_core::synthesize_lazy(&schema, &alphabet, &eta)
    } else {
        migratory_core::synthesize(&schema, &alphabet, &eta)
    }
    .map_err(|e| format!("synthesis: {e}"))?;
    let mut out = format!(
        "migration graph G_η: {} vertices, {} edges\n\n",
        synthesis.graph.num_vertices(),
        synthesis.graph.num_edges()
    );
    for t in synthesis.transactions.transactions() {
        out.push_str(&transaction_to_text(&schema, t));
        out.push('\n');
    }
    Ok(out)
}

/// One parsed script line. Most lines are transaction applications in
/// the wire protocol's `invoke` argument grammar
/// ([`net::parse_invocation`]), so any `enforce` script replays over
/// `migctl client` unchanged; a line whose first token is an admin verb
/// (`redefine`, `rearm`, `stats`, `ping`) is a protocol admin request
/// instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptLine {
    /// `Name(args…)`: invoke the named transaction.
    Invoke(String, Assignment),
    /// `redefine <quarantine|certify-and-reset> <inventory regex>`:
    /// swap the constraint inventory at this point of the script.
    Redefine(ResiduePolicy, String),
    /// A serve-side admin line forwarded verbatim: `rearm`, `stats`,
    /// `stats prom`, or `ping`.
    Admin(String),
}

/// Parse a script: one [`ScriptLine`] per non-blank line, `#` comments
/// allowed. Admin verbs are validated here (policy token, argument
/// arity) so a typo fails with its line number instead of a mid-run
/// server error.
pub fn parse_script(src: &str) -> Result<Vec<ScriptLine>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |e: String| format!("script line {}: {e}", lineno + 1);
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        out.push(match verb {
            "redefine" => {
                let (ptok, regex) = rest
                    .split_once(char::is_whitespace)
                    .map(|(p, r)| (p, r.trim()))
                    .filter(|(_, r)| !r.is_empty())
                    .ok_or_else(|| {
                        err("redefine needs <quarantine|certify-and-reset> <inventory regex>"
                            .to_owned())
                    })?;
                let policy = ResiduePolicy::parse(ptok).map_err(err)?;
                ScriptLine::Redefine(policy, regex.to_owned())
            }
            "rearm" | "ping" if rest.is_empty() => ScriptLine::Admin(verb.to_owned()),
            "rearm" | "ping" => return Err(err(format!("{verb} takes no arguments"))),
            "stats" if rest.is_empty() => ScriptLine::Admin("stats".to_owned()),
            "stats" if rest == "prom" => ScriptLine::Admin("stats prom".to_owned()),
            "stats" => return Err(err(format!("unknown stats form `{rest}`"))),
            _ => {
                let (name, args) = net::parse_invocation(line).map_err(err)?;
                ScriptLine::Invoke(name.to_owned(), args)
            }
        });
    }
    Ok(out)
}

/// `migctl enforce`: replay a script under the runtime monitor.
pub fn cmd_enforce(
    schema_src: &str,
    tx_src: &str,
    script_src: &str,
    flags: &Flags,
) -> Result<String, String> {
    let (schema, alphabet) = load(schema_src, flags.component()?)?;
    let ts = parse_transactions(&schema, tx_src).map_err(|e| format!("transactions: {e}"))?;
    let inv = load_inventory(&schema, &alphabet, flags)?;
    let kind = flags.kind()?;
    let script = parse_script(script_src)?;
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, kind, 1);
    let mut out = String::new();
    let (mut invoked, mut rejected) = (0usize, 0usize);
    for line in &script {
        let (name, args) = match line {
            ScriptLine::Invoke(name, args) => (name, args),
            ScriptLine::Redefine(policy, regex) => {
                let next = Inventory::parse_init(&schema, &alphabet, regex)
                    .map_err(|e| format!("redefine inventory: {e}"))?;
                match m.redefine(&next, *policy) {
                    Ok(o) => out.push_str(&format!(
                        "↻ redefine — epoch {}, residue {} ({} quarantined)\n",
                        o.epoch, o.residue, o.quarantined
                    )),
                    Err(e) => return Err(format!("{e}")),
                }
                continue;
            }
            ScriptLine::Admin(v) => {
                return Err(format!("`{v}` drives a live server — use `migctl client --script`"));
            }
        };
        invoked += 1;
        let t = ts.get(name).ok_or_else(|| format!("unknown transaction `{name}`"))?;
        match m.try_apply(t, args) {
            Ok(()) => out.push_str(&format!("✓ {name}\n")),
            Err(EnforceError::Violation(v)) => {
                rejected += 1;
                out.push_str(&format!("✗ {name} — {}\n", v.display(&alphabet)));
            }
            Err(EnforceError::Lang(e)) => {
                return Err(format!("applying {name}: {e}"));
            }
            Err(EnforceError::Durability(e)) => {
                return Err(format!("logging {name}: {e}"));
            }
            Err(e @ (EnforceError::Degraded(_) | EnforceError::Redefine(_))) => {
                return Err(format!("applying {name}: {e}"));
            }
        }
    }
    out.push_str(&format!(
        "committed {} of {} applications ({} rejected); {} object(s) live\n",
        invoked - rejected,
        invoked,
        rejected,
        m.db().num_objects()
    ));
    Ok(out)
}

/// Default `serve`/`client` endpoint.
const DEFAULT_ADDR: &str = "127.0.0.1:4191";

/// `migctl serve`: admit transactions over TCP through the sharded
/// ingress — each connection is one admission producer, every reply is
/// written only after its block committed (and, with `--durable`, was
/// write-ahead logged). Prints the bound address eagerly (so scripts
/// can connect) and returns a summary once a client's `shutdown`
/// drained the server.
pub fn cmd_serve(schema_src: &str, tx_src: &str, flags: &Flags) -> Result<String, String> {
    use std::path::Path;
    use std::sync::{Arc, Mutex};

    let (schema, alphabet) = load(schema_src, flags.component()?)?;
    let ts = parse_transactions(&schema, tx_src).map_err(|e| format!("transactions: {e}"))?;
    let inv = load_inventory(&schema, &alphabet, flags)?;
    let kind = flags.kind()?;
    let shards = flags.usize_or("shards", schema.num_components().max(1))?;
    let queue = flags.usize_or("queue", 1024)?;
    let max_block = flags.usize_or("max-block", 256)?;
    let checkpoint_bytes = flags.usize_or("checkpoint-bytes", DEFAULT_CHECKPOINT_BYTES)?;
    let retries = flags.usize_or("retries", 4)?;
    let backoff = std::time::Duration::from_millis(flags.usize_or("retry-backoff-ms", 20)? as u64);
    let idle_timeout = flags.usize_or("idle-timeout", 0)?;
    let max_conn_bytes = flags.usize_or("max-conn-bytes", 0)?;
    let max_conn_ops = flags.usize_or("max-conn-ops", 0)?;
    let max_connections = flags.usize_or("max-connections", 0)?;
    let io_threads = flags.usize_or("io-threads", 2)?.max(1);
    let auth = flags.get("auth").map(str::to_owned);
    let durable = flags.get("durable");
    let recover = flags.get("recover").is_some();
    if recover && durable.is_none() {
        return Err("--recover requires --durable DIR".to_owned());
    }
    let fsync = match flags.get("fsync") {
        Some(v) => {
            if durable.is_none() {
                return Err("--fsync requires --durable DIR".to_owned());
            }
            FsyncPolicy::parse(v)
                .ok_or_else(|| format!("unknown --fsync mode `{v}` (batch|always|off)"))?
        }
        // Durable serving defaults to group commit: acks survive power
        // loss, and the committer amortizes the fdatasync cost.
        None => FsyncPolicy::Batch,
    };
    let faults = match flags.get("inject") {
        Some(plan) => {
            if durable.is_none() {
                return Err("--inject requires --durable DIR (faults target the WAL)".to_owned());
            }
            Some(IoFaults::parse(plan).map_err(|e| format!("--inject: {e}"))?)
        }
        None => None,
    };
    let repl_addr = flags.get("repl-addr");
    let replica_of = flags.get("replica-of").map(str::to_owned);
    if repl_addr.is_some() && replica_of.is_some() {
        return Err(
            "a server is a primary (--repl-addr) or a replica (--replica-of), not both".to_owned()
        );
    }
    if (repl_addr.is_some() || replica_of.is_some()) && durable.is_none() {
        return Err("replication requires --durable DIR (the stream is the WAL)".to_owned());
    }
    let ack = match flags.get("ack") {
        Some(v) => {
            if repl_addr.is_none() {
                return Err("--ack requires --repl-addr HOST:PORT".to_owned());
            }
            AckPolicy::parse(v)?
        }
        None => AckPolicy::LocalFsync,
    };
    let ack_timeout =
        std::time::Duration::from_millis(flags.usize_or("ack-timeout-ms", 5000)? as u64);
    // A fresh monitor restarts every shard clock at 0, so a later
    // recovery would skip the records it logs as covered by an earlier
    // server's chain: only `--recover` may reopen a written log (a
    // replica's bootstrap writes its primary's snapshot as a new base).
    if let Some(dir) = durable.filter(|d| !recover && replica_of.is_none() && Path::new(d).exists())
    {
        let (snap, tail) = Wal::load(dir).map_err(|e| format!("loading {dir}: {e}"))?;
        if snap.is_some() || !tail.is_empty() {
            return Err(format!(
                "{dir} holds the log of an earlier server: resume it with --recover, \
                 or serve on an empty directory"
            ));
        }
    }

    // Build the monitor: fresh, or rebuilt from the checkpoint chain +
    // WAL tail (no history replay). Recovery restores the policy the
    // crashed server ran with; an explicit --policy still wins (it is
    // also what recovers the flag when the crash predates the first
    // checkpoint — logged blocks hold only effective letters, so the
    // replay itself is policy-independent either way).
    let mut monitor = if recover {
        let dir = durable.expect("checked above");
        let (snap, tail) = Wal::load(dir).map_err(|e| format!("loading {dir}: {e}"))?;
        let clocks = snap.as_ref().map_or_else(Vec::new, migratory_core::enforce::Snapshot::clocks);
        let mut m = ShardedMonitor::recover(&schema, &alphabet, &inv, kind, shards, snap, tail)
            .map_err(|e| format!("recovering from {dir}: {e}"))?;
        if flags.get("policy").is_some() {
            m = m.with_policy(flags.policy()?);
        }
        println!(
            "migctl serve: recovered from {dir} — checkpoint at clocks {clocks:?}, \
             now at {:?}, {} objects (no history replayed)",
            m.clocks(),
            m.db().num_objects()
        );
        m
    } else {
        ShardedMonitor::new(&schema, &alphabet, &inv, kind, shards).with_policy(flags.policy()?)
    };

    // Durable mode: open the log for the ingress. The admission worker
    // stages records, the committer appends, fsyncs per `--fsync`, and
    // releases the acks; the ingress also keeps the checkpoint chain.
    let wal = match durable {
        Some(dir) => {
            let mut w = Wal::open(dir).map_err(|e| format!("{dir}: {e}"))?;
            if let Some(faults) = &faults {
                w = w.with_faults(faults.clone());
            }
            Some(Arc::new(Mutex::new(w.with_fsync(fsync))))
        }
        None => None,
    };
    let metrics = Arc::new(AdmissionMetrics::new(monitor.num_shards()));
    let health = Arc::new(Health::new());

    // Primary role: bind the replication listener before announcing
    // anything, so a replica pointed at the printed address always
    // finds it open.
    let repl = match repl_addr {
        Some(addr) => {
            let r = Replicator::bind(addr)
                .map_err(|e| format!("binding replication address {addr}: {e}"))?
                .with_policy(ack)
                .with_ack_timeout(ack_timeout)
                .with_metrics(metrics.clone());
            Some(Arc::new(r))
        }
        None => None,
    };

    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR);
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "migctl serve: listening on {local} ({} shard(s), {} transaction(s){})",
        monitor.num_shards(),
        ts.len(),
        match durable {
            Some(dir) => format!(", durable in {dir}, fsync {fsync}"),
            None => String::new(),
        }
    );
    if let Some(repl) = &repl {
        println!("migctl serve: replicating on {} (ack {})", repl.local_addr(), repl.policy());
    }
    if let Some(upstream) = &replica_of {
        println!("migctl serve: replica of {upstream} (read-only until `promote`)");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until a client sends `shutdown`.
    let config = net::ServerConfig {
        ingress: IngressConfig {
            queue_capacity: queue,
            max_block,
            durability: DurabilityPolicy { retries: retries as u32, backoff },
            health: health.clone(),
            wal: wal.clone().map(|log| DurableLog { log, repl: repl.clone() }),
            metrics: Some(metrics.clone()),
            checkpoint_bytes,
        },
        idle_timeout: (idle_timeout > 0)
            .then(|| std::time::Duration::from_secs(idle_timeout as u64)),
        max_conn_bytes: max_conn_bytes as u64,
        max_conn_ops: max_conn_ops as u64,
        max_connections,
        auth,
        io_threads,
        replica_of: replica_of.clone(),
        ..Default::default()
    };
    let stats = net::serve(listener, &mut monitor, &ts, &config)
        .map_err(|e| format!("serving on {local}: {e}"))?;
    // Drained: the ingress wrote the final checkpoint unless a
    // checkpoint failed first.
    let final_checkpoint = stats.ingress.final_checkpoint;
    if wal.is_some() && checkpoint_bytes > 0 && !final_checkpoint {
        let why = health.checkpoint().failed.unwrap_or_else(|| health.reason());
        return Err(format!("final checkpoint: {why}"));
    }
    // Tail-latency recap from the admission histograms (log2-granular
    // upper bounds, hence "≤"): the worst lane at each quantile.
    let latency = if wal.is_some() && metrics.fsync_batch.count() > 0 {
        let q = |p: f64| {
            metrics.commit_latency_us.iter().map(|h| h.quantile_bound(p)).max().unwrap_or(0)
        };
        let batches = metrics.fsync_batch.count();
        #[allow(clippy::cast_precision_loss)]
        let amortization = metrics.fsync_batch.sum() as f64 / batches as f64;
        format!(
            "\ncommit latency ≤ p50 {}µs / p99 {}µs / p99.9 {}µs; \
             {batches} fsync batch(es), {amortization:.1} block(s)/sync",
            q(0.5),
            q(0.99),
            q(0.999),
        )
    } else {
        String::new()
    };
    let mut notes = latency;
    if health.is_degraded() {
        notes.push_str(&format!(
            "\nserver was DEGRADED (read-only) at shutdown: {}",
            health.reason()
        ));
    }
    if let Some(what) = health.checkpoint().failed {
        notes.push_str(&format!("\nbackground checkpointing had failed: {what}"));
    }
    Ok(format!(
        "drained: {} connection(s), {} request(s) — {} admitted, {} rejected, {} error(s)\n\
         {} block(s) over {} lane(s); {} refused while degraded, {} append retry(ies); \
         clocks {:?}; {} object(s) live{}{}\n",
        stats.connections,
        stats.requests,
        stats.admitted,
        stats.rejected,
        stats.errors,
        stats.ingress.blocks,
        stats.ingress.lanes,
        stats.ingress.refused,
        stats.ingress.retries,
        monitor.clocks(),
        monitor.db().num_objects(),
        if final_checkpoint { "; final checkpoint written" } else { "" },
        notes,
    ))
}

/// `migctl client`: drive a `migctl serve` endpoint. With `--script`,
/// send each script line as a pipelined `invoke` — request lines
/// (`query`, `redefine`, `rearm`, `stats [prom]`, `ping`) go out as
/// protocol requests instead — plus `shutdown` when `--shutdown` is
/// given, and return every reply in order plus a tally; with
/// `--shutdown` alone, just ask the server to drain; with neither,
/// forward raw protocol lines from stdin, printing each reply.
pub fn cmd_client(flags: &Flags, script: Option<&str>) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};

    /// How a request's reply is read back.
    #[derive(Clone, Copy)]
    enum Expect {
        Text,
        Frame,
        /// `stats prom`: an `ok prom <len>` header line followed by
        /// `len` payload bytes.
        Prom,
    }

    /// How the reply to a text request line is read back.
    fn text_expect(line: &str) -> Expect {
        if line.split_whitespace().eq(["stats", "prom"]) {
            Expect::Prom
        } else {
            Expect::Text
        }
    }

    /// One reply line, newline-stripped; EOF is an error (replies are
    /// owed for every request, even across a graceful drain).
    fn read_reply_line(r: &mut impl BufRead) -> Result<String, String> {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => Err("server closed before answering".to_owned()),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(line)
            }
            Err(e) => Err(format!("reading reply: {e}")),
        }
    }

    /// One whole reply as text: a line, a decoded frame, or a `stats
    /// prom` header line with its payload.
    fn read_reply(r: &mut impl BufRead, expect: Expect) -> Result<String, String> {
        match expect {
            Expect::Text => read_reply_line(r),
            Expect::Frame => {
                let (kind, payload) =
                    net::frame::read_frame(r).map_err(|e| format!("reading reply frame: {e}"))?;
                let text = String::from_utf8_lossy(&payload);
                Ok(match kind {
                    net::frame::REP_OK if payload.is_empty() => "ok".to_owned(),
                    net::frame::REP_OK => format!("ok {text}"),
                    net::frame::REP_VIOLATION => format!("violation {text}"),
                    _ => format!("error {text}"),
                })
            }
            Expect::Prom => {
                // An errored `stats prom` (quota, degraded handshake)
                // answers a plain line instead of the framed header; pass
                // it through.
                let header = read_reply_line(r)?;
                match header.strip_prefix("ok prom ").and_then(|len| len.parse::<usize>().ok()) {
                    Some(len) => {
                        let mut payload = vec![0u8; len];
                        r.read_exact(&mut payload)
                            .map_err(|e| format!("reading prom payload: {e}"))?;
                        Ok(format!("{header}\n{}", String::from_utf8_lossy(&payload)))
                    }
                    None => Ok(header),
                }
            }
        }
    }

    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR);
    let conn = std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let _ = conn.set_nodelay(true);
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = std::io::BufWriter::new(conn);

    // Shared-secret handshake first: everything but `auth` is refused
    // until the server has seen the token, so send it eagerly and fail
    // fast on a bad secret before pipelining real work.
    if let Some(token) = flags.get("auth") {
        writeln!(writer, "auth {token}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let reply = read_reply_line(&mut reader)?;
        if reply.split_whitespace().next() != Some("ok") {
            return Err(format!("auth failed: {reply}"));
        }
    }

    if let Some(src) = script {
        // Scripted: pipeline every request, then read the replies in
        // order — a writer thread keeps sending while we read, so a
        // long script cannot deadlock on full socket buffers. The whole
        // request stream is encoded up front: text `invoke` lines, or
        // with --binary one REQ_INVOKE frame per script line. Other
        // verbs (`query`, `redefine`, `rearm`, `stats [prom]`, `ping`)
        // ride along: `query` and `redefine` become REQ_QUERY and
        // REQ_REDEFINE frames under --binary, the rest stay text lines
        // in either dialect (like `shutdown`), and replies always answer
        // in their request's dialect — so the reader tracks what each
        // request expects.
        let binary = flags.get("binary").is_some();
        let shutdown = flags.get("shutdown").is_some();
        let lines: Vec<&str> = src
            .lines()
            .map(|raw| raw.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .collect();
        let mut bytes = Vec::new();
        let mut expects = Vec::with_capacity(lines.len() + 1);
        for (i, l) in lines.iter().enumerate() {
            let err = |e: String| format!("script line {}: {e}", i + 1);
            let (verb, rest) = match l.split_once(char::is_whitespace) {
                Some((v, r)) => (v, r.trim()),
                None => (*l, ""),
            };
            match verb {
                "redefine" if binary => {
                    let (ptok, regex) = rest
                        .split_once(char::is_whitespace)
                        .map(|(p, r)| (p, r.trim()))
                        .ok_or_else(|| {
                            err("redefine needs <policy> <inventory regex>".to_owned())
                        })?;
                    let policy = ResiduePolicy::parse(ptok).map_err(err)?;
                    net::frame::encode_redefine_frame(&mut bytes, policy, regex);
                    expects.push(Expect::Frame);
                }
                "query" if binary => {
                    net::frame::encode_query_frame(&mut bytes, rest);
                    expects.push(Expect::Frame);
                }
                "query" | "redefine" | "rearm" | "ping" | "stats" => {
                    bytes.extend_from_slice(format!("{l}\n").as_bytes());
                    expects.push(text_expect(l));
                }
                _ if binary => {
                    let (name, args) = net::parse_invocation(l).map_err(err)?;
                    net::frame::encode_invoke_frame(&mut bytes, name, args.as_slice());
                    expects.push(Expect::Frame);
                }
                _ => {
                    bytes.extend_from_slice(format!("invoke {l}\n").as_bytes());
                    expects.push(Expect::Text);
                }
            }
        }
        if shutdown {
            bytes.extend_from_slice(b"shutdown\n");
            expects.push(Expect::Text);
        }
        let (mut ok, mut violation, mut error) = (0usize, 0usize, 0usize);
        let mut out = String::new();
        std::thread::scope(|scope| -> Result<(), String> {
            scope.spawn(move || {
                let _ = writer.write_all(&bytes).and_then(|()| writer.flush());
            });
            for expect in &expects {
                let reply = read_reply(&mut reader, *expect)?;
                match reply.split_whitespace().next() {
                    Some("ok") => ok += 1,
                    Some("violation") => violation += 1,
                    _ => error += 1,
                }
                out.push_str(&reply);
                if !reply.ends_with('\n') {
                    out.push('\n');
                }
            }
            Ok(())
        })?;
        out.push_str(&format!("client: {ok} ok, {violation} violation(s), {error} error(s)\n"));
        Ok(out)
    } else if flags.get("shutdown").is_some() {
        writeln!(writer, "shutdown").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let reply = read_reply_line(&mut reader)?;
        Ok(format!("{reply}\n"))
    } else {
        // Interactive: forward raw protocol lines from stdin.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            writeln!(writer, "{line}").map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
            let Ok(reply) = read_reply(&mut reader, text_expect(&line)) else { break };
            println!("{}", reply.trim_end_matches('\n'));
            if line.trim() == "quit" {
                break;
            }
        }
        Ok(String::new())
    }
}

/// `migctl promote`: flip a replica into a writable primary. Sends the
/// `promote` verb (after the optional auth handshake); the replica
/// finishes folding the shipped tail before the flip lands, so nothing
/// it acknowledged to the old primary is lost.
pub fn cmd_promote(flags: &Flags) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};

    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR);
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut ask = |line: &str| -> Result<String, String> {
        writeln!(writer, "{line}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("server closed the connection".to_owned());
        }
        Ok(reply.trim_end().to_owned())
    };
    if let Some(token) = flags.get("auth") {
        let reply = ask(&format!("auth {token}"))?;
        if !reply.starts_with("ok") {
            return Err(format!("auth failed: {reply}"));
        }
    }
    let reply = ask("promote")?;
    reply
        .strip_prefix("ok ")
        .map(|body| format!("{addr} {body}\n"))
        .ok_or_else(|| format!("promote refused: {reply}"))
}

/// Dispatch a full argument vector (excluding the binary name). Used by
/// the binary with file contents read eagerly.
pub fn dispatch(
    args: &[String],
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Ok(USAGE.to_owned());
    };
    let flags = parse_flags(&args[1..])?;
    let pos = |i: usize, what: &str| -> Result<String, String> {
        flags.positional.get(i).cloned().ok_or_else(|| format!("missing {what}\n\n{USAGE}"))
    };
    if !known_flags(cmd).is_empty() {
        flags.check(cmd)?;
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        "families" => {
            let schema = read(&pos(0, "<schema> file")?)?;
            let tx = read(&pos(1, "<transactions> file")?)?;
            cmd_families(&schema, &tx, flags.component()?)
        }
        "decide" => {
            let schema = read(&pos(0, "<schema> file")?)?;
            let tx = read(&pos(1, "<transactions> file")?)?;
            cmd_decide(&schema, &tx, &flags)
        }
        "synthesize" => {
            let schema = read(&pos(0, "<schema> file")?)?;
            cmd_synthesize(&schema, &flags)
        }
        "enforce" => {
            let schema = read(&pos(0, "<schema> file")?)?;
            let tx = read(&pos(1, "<transactions> file")?)?;
            let script_path = flags.get("script").ok_or("missing --script <file>")?;
            let script = read(script_path)?;
            cmd_enforce(&schema, &tx, &script, &flags)
        }
        "serve" => {
            let schema = read(&pos(0, "<schema> file")?)?;
            let tx = read(&pos(1, "<transactions> file")?)?;
            cmd_serve(&schema, &tx, &flags)
        }
        "client" => {
            let script = match flags.get("script") {
                Some(path) => Some(read(path)?),
                None => None,
            };
            cmd_client(&flags, script.as_deref())
        }
        "promote" => cmd_promote(&flags),
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use migratory_model::Value;

    const SCHEMA: &str = r"
        schema Uni {
          class PERSON { SSN, Name }
          class STUDENT isa PERSON { Major }
        }";

    const TX: &str = r#"
        transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
        transaction St(x) { specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS" }); }
        transaction Rm(x) { delete(PERSON, { SSN = x }); }
    "#;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        Flags {
            positional: Vec::new(),
            named: pairs.iter().map(|(a, b)| ((*a).to_owned(), (*b).to_owned())).collect(),
        }
    }

    #[test]
    fn families_prints_four_rows() {
        let out = cmd_families(SCHEMA, TX, 0).unwrap();
        assert!(out.contains("migration graph"));
        for k in ["all", "immediate-start", "proper", "lazy"] {
            assert!(out.contains(k), "missing row {k}:\n{out}");
        }
        assert!(out.contains("[PERSON]"));
    }

    #[test]
    fn decide_reports_verdicts_and_counterexamples() {
        let f = flags(&[("inventory", "∅* [PERSON]* [STUDENT]* ∅*")]);
        let out = cmd_decide(SCHEMA, TX, &f).unwrap();
        assert!(out.contains("satisfies: HOLDS"), "{out}");
        assert!(out.contains("generates: FAILS"), "{out}");
        assert!(out.contains("counterexample"));

        // A narrower inventory is violated, with a counterexample word.
        let f = flags(&[("inventory", "[PERSON]*")]);
        let out = cmd_decide(SCHEMA, TX, &f).unwrap();
        assert!(out.contains("satisfies: FAILS"), "{out}");
    }

    #[test]
    fn synthesize_emits_a_transaction() {
        // Lemma 3.4 needs an isa-root with three attributes (A, B, C).
        let schema3 = r"
            schema Uni {
              class PERSON { SSN, Name, Tag }
              class STUDENT isa PERSON { Major }
            }";
        let f = flags(&[("inventory", "[PERSON] [STUDENT]*")]);
        let out = cmd_synthesize(schema3, &f).unwrap();
        assert!(out.contains("transaction"), "{out}");
        assert!(out.contains("create"), "{out}");

        // The two-attribute schema reports the Lemma 3.4 requirement.
        let err = cmd_synthesize(SCHEMA, &f).unwrap_err();
        assert!(err.contains("three attributes"), "{err}");
    }

    #[test]
    fn script_parsing_handles_values_and_comments() {
        let script = r#"
            # enroll two people
            Mk(1)
            Mk("two words")
            St(1)     # promote
            Rm(notanumber)
        "#;
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.len(), 4);
        let invoke = |name: &str, v| ScriptLine::Invoke(name.to_owned(), Assignment::new(vec![v]));
        assert_eq!(parsed[0], invoke("Mk", Value::int(1)));
        assert_eq!(parsed[1], invoke("Mk", Value::str("two words")));
        assert_eq!(parsed[3], invoke("Rm", Value::str("notanumber")));
        assert!(parse_script("Mk 1").is_err());
        assert!(parse_script("(1)").is_err());
    }

    #[test]
    fn script_parsing_accepts_admin_verbs() {
        let script = "
            Mk(1)
            redefine quarantine ∅* [PERSON]* ∅*   # tighten online
            rearm
            stats
            stats prom
            ping
        ";
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.len(), 6);
        assert_eq!(
            parsed[1],
            ScriptLine::Redefine(ResiduePolicy::Quarantine, "∅* [PERSON]* ∅*".to_owned())
        );
        assert_eq!(parsed[2], ScriptLine::Admin("rearm".to_owned()));
        assert_eq!(parsed[3], ScriptLine::Admin("stats".to_owned()));
        assert_eq!(parsed[4], ScriptLine::Admin("stats prom".to_owned()));
        assert_eq!(parsed[5], ScriptLine::Admin("ping".to_owned()));
        // Validation happens at parse time, with line numbers.
        let err = parse_script("redefine sometimes ∅*").unwrap_err();
        assert!(err.starts_with("script line 1:"), "{err}");
        assert!(parse_script("redefine quarantine").is_err());
        assert!(parse_script("rearm now").is_err());
        assert!(parse_script("stats loudly").is_err());
    }

    #[test]
    fn enforce_replays_and_reports() {
        let f = flags(&[("inventory", "∅* [PERSON]+ ∅*")]);
        let script = "Mk(1)\nSt(1)\nRm(1)\n";
        let out = cmd_enforce(SCHEMA, TX, script, &f).unwrap();
        assert!(out.contains("✓ Mk"));
        assert!(out.contains("✗ St"), "{out}");
        assert!(out.contains("✓ Rm"));
        assert!(out.contains("committed 2 of 3"), "{out}");
    }

    #[test]
    fn enforce_redefines_mid_script() {
        // The permissive inventory admits the specialization; after the
        // mid-script redefine to PERSON-only, the same step violates —
        // and the violation quotes the post-redefine epoch.
        let f = flags(&[("inventory", "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*")]);
        let script = "
            Mk(1)
            St(1)
            redefine quarantine ∅* [PERSON]* ∅*
            Mk(2)
            St(2)
        ";
        let out = cmd_enforce(SCHEMA, TX, script, &f).unwrap();
        assert!(out.contains("✓ St"), "{out}");
        assert!(out.contains("↻ redefine — epoch 1, residue 1 (1 quarantined)"), "{out}");
        assert!(out.contains("✗ St — "), "{out}");
        assert!(out.contains("[epoch 1]"), "{out}");
        assert!(out.contains("committed 3 of 4"), "{out}");

        // Serve-only admin verbs are refused offline.
        let err = cmd_enforce(SCHEMA, TX, "rearm\n", &f).unwrap_err();
        assert!(err.contains("live server"), "{err}");
    }

    #[test]
    fn dispatch_routes_and_reports_usage() {
        let files = |name: &str| -> Result<String, String> {
            match name {
                "s.mig" => Ok(SCHEMA.to_owned()),
                "t.sl" => Ok(TX.to_owned()),
                "run.txt" => Ok("Mk(1)\n".to_owned()),
                other => Err(format!("no such file {other}")),
            }
        };
        let ok = dispatch(&["families".to_owned(), "s.mig".to_owned(), "t.sl".to_owned()], &files)
            .unwrap();
        assert!(ok.contains("migration graph"));

        let usage = dispatch(&[], &files).unwrap();
        assert!(usage.contains("USAGE"));
        assert!(dispatch(&["bogus".to_owned()], &files).is_err());

        let enforce = dispatch(
            &[
                "enforce".to_owned(),
                "s.mig".to_owned(),
                "t.sl".to_owned(),
                "--inventory".to_owned(),
                "∅* [PERSON]* ∅*".to_owned(),
                "--script".to_owned(),
                "run.txt".to_owned(),
            ],
            &files,
        )
        .unwrap();
        assert!(enforce.contains("committed 1 of 1"));
    }

    #[test]
    fn serve_flag_validation() {
        // --recover without --durable is refused before any socket work.
        let f = flags(&[("inventory", "∅* [PERSON]* ∅*"), ("recover", "true")]);
        let err = cmd_serve(SCHEMA, TX, &f).unwrap_err();
        assert!(err.contains("--recover requires --durable"), "{err}");

        // --fsync only means something with a write-ahead log, and only
        // the three documented spellings parse.
        let f = flags(&[("inventory", "∅* [PERSON]* ∅*"), ("fsync", "batch")]);
        let err = cmd_serve(SCHEMA, TX, &f).unwrap_err();
        assert!(err.contains("--fsync requires --durable"), "{err}");
        let f = flags(&[
            ("inventory", "∅* [PERSON]* ∅*"),
            ("durable", "/nonexistent-dir-for-flag-test"),
            ("fsync", "sometimes"),
        ]);
        let err = cmd_serve(SCHEMA, TX, &f).unwrap_err();
        assert!(err.contains("unknown --fsync mode"), "{err}");

        // Unknown policies and non-numeric numbers are caught.
        let f = flags(&[("inventory", "∅* [PERSON]* ∅*"), ("policy", "sometimes")]);
        assert!(f.policy().is_err());
        let f = flags(&[("shards", "many")]);
        assert!(f.usize_or("shards", 4).is_err());
        let f = flags(&[]);
        assert_eq!(f.usize_or("shards", 4).unwrap(), 4);
        assert_eq!(f.policy().unwrap(), StepPolicy::EveryApplication);
        let f = flags(&[("policy", "changing")]);
        assert_eq!(f.policy().unwrap(), StepPolicy::OnlyChanging);
    }

    /// A flag the subcommand does not read is refused by name — the old
    /// `--checkpoint-every` spelling of `--checkpoint-bytes` no longer
    /// starts a server at the default cadence — while every flag the CI
    /// smoke jobs and the benchmark harness pass is still read.
    #[test]
    fn a_flag_the_subcommand_does_not_read_is_refused_by_name() {
        let files = |name: &str| -> Result<String, String> {
            match name {
                "s.mig" => Ok(SCHEMA.to_owned()),
                "t.sl" => Ok(TX.to_owned()),
                other => Err(format!("no such file {other}")),
            }
        };
        let args = |extra: &[&str]| -> Vec<String> {
            ["serve", "s.mig", "t.sl", "--inventory", "∅* [PERSON]* ∅*"]
                .iter()
                .chain(extra)
                .map(|a| (*a).to_owned())
                .collect()
        };
        let err =
            dispatch(&args(&["--durable", "w3", "--checkpoint-every", "4"]), &files).unwrap_err();
        assert!(err.starts_with("unknown flag --checkpoint-every for `migctl serve`"), "{err}");
        assert!(err.contains("--checkpoint-bytes"), "{err}");
        let err = dispatch(&args(&["--recover", "--durable"]), &files).unwrap_err();
        assert_eq!(err, "flag --durable needs a value");
        // Each subcommand reads its own flags only.
        let err =
            dispatch(&["families".into(), "s.mig".into(), "--script".into(), "x".into()], &files)
                .unwrap_err();
        assert!(err.starts_with("unknown flag --script for `migctl families`"), "{err}");
        let serve = flags(&[
            ("inventory", "i"),
            ("addr", "a"),
            ("shards", "2"),
            ("durable", "d"),
            ("checkpoint-bytes", "128"),
            ("recover", "true"),
            ("fsync", "batch"),
            ("inject", "append@1"),
            ("max-block", "1"),
            ("retries", "1"),
            ("retry-backoff-ms", "1"),
            ("repl-addr", "a"),
            ("replica-of", "a"),
            ("ack", "replica-1"),
            ("ack-timeout-ms", "1"),
        ]);
        serve.check("serve").unwrap();
        let client =
            flags(&[("addr", "a"), ("script", "s"), ("binary", "true"), ("shutdown", "true")]);
        client.check("client").unwrap();
        flags(&[("addr", "a")]).check("promote").unwrap();
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let parsed = parse_flags(&[
            "s.mig".to_owned(),
            "--recover".to_owned(),
            "--durable".to_owned(),
            "dir".to_owned(),
            "--shutdown".to_owned(),
        ])
        .unwrap();
        assert_eq!(parsed.positional, vec!["s.mig".to_owned()]);
        assert_eq!(parsed.get("recover"), Some("true"));
        assert_eq!(parsed.get("durable"), Some("dir"));
        assert_eq!(parsed.get("shutdown"), Some("true"));
    }

    #[test]
    fn kind_flag_parses_all_spellings() {
        for (s, k) in [
            ("all", PatternKind::All),
            ("imm", PatternKind::ImmediateStart),
            ("immediate-start", PatternKind::ImmediateStart),
            ("pro", PatternKind::Proper),
            ("proper", PatternKind::Proper),
            ("lazy", PatternKind::Lazy),
        ] {
            assert_eq!(parse_kind(s).unwrap(), k);
        }
        assert!(parse_kind("sometimes").is_err());
    }
}
