//! Deterministic I/O fault injection for the durability layer.
//!
//! Every storage-touching operation of the write-ahead pipeline —
//! appending a block, the group-commit fsync, sealing the live log,
//! writing/syncing/renaming/pruning a checkpoint — consults an
//! [`IoFaults`] handle *before* performing the real I/O. A plan built
//! with [`IoFaults::fail`] (or parsed from the `migctl serve --inject`
//! syntax by [`IoFaults::parse`]) makes any of those sites fail at an
//! exact call ordinal, transiently or persistently, so every durability
//! failure window is a deterministic unit test instead of a hope.
//!
//! The default handle ([`IoFaults::default`]) carries no rules and its
//! check compiles down to one uncontended mutex lock per I/O site call —
//! the production path pays essentially nothing for the seam.
//!
//! ```
//! use migratory_core::enforce::{FaultKind, FaultSite, IoFaults};
//!
//! // Fail the 3rd and 4th WAL appends, then recover.
//! let faults = IoFaults::new().fail(FaultSite::AppendWrite, 3, FaultKind::Transient(2));
//! assert!(faults.check(FaultSite::AppendWrite).is_ok()); // call #1
//! assert!(faults.check(FaultSite::AppendWrite).is_ok()); // call #2
//! assert!(faults.check(FaultSite::AppendWrite).is_err()); // call #3: injected
//! assert!(faults.check(FaultSite::AppendWrite).is_err()); // call #4: injected
//! assert!(faults.check(FaultSite::AppendWrite).is_ok()); // call #5: recovered
//! ```

use super::wal::WalError;
use std::sync::{Arc, Mutex, PoisonError};

/// An instrumented I/O site of the durability pipeline. Each site has
/// its own call counter, so a plan can target "the 3rd append" without
/// caring how many checkpoints ran in between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// Writing a framed record into the live log
    /// ([`Wal`](super::Wal) append, one call per group commit).
    AppendWrite,
    /// The group-commit `fdatasync` after an append (only reached when
    /// the log's [`FsyncPolicy`](super::FsyncPolicy) is not `off`; see
    /// [`Wal::with_fsync`](super::Wal::with_fsync)).
    AppendSync,
    /// Renaming the live log into a sealed segment when a checkpoint is
    /// staged ([`Wal::begin_checkpoint`](super::Wal::begin_checkpoint)).
    SealRename,
    /// Creating + writing a checkpoint's temp file
    /// ([`CheckpointJob::run`](super::CheckpointJob::run)).
    CheckpointWrite,
    /// `fsync` of the checkpoint temp file.
    CheckpointSync,
    /// Renaming the checkpoint temp file into place (the atomic-publish
    /// step).
    CheckpointRename,
    /// Pruning log segments and increments the checkpoint covers.
    CheckpointPrune,
}

impl FaultSite {
    /// Every site, for exhaustive fault matrices.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::AppendWrite,
        FaultSite::AppendSync,
        FaultSite::SealRename,
        FaultSite::CheckpointWrite,
        FaultSite::CheckpointSync,
        FaultSite::CheckpointRename,
        FaultSite::CheckpointPrune,
    ];

    /// The site's spelling in the [`IoFaults::parse`] plan syntax.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FaultSite::AppendWrite => "append",
            FaultSite::AppendSync => "sync",
            FaultSite::SealRename => "seal",
            FaultSite::CheckpointWrite => "ckpt-write",
            FaultSite::CheckpointSync => "ckpt-sync",
            FaultSite::CheckpointRename => "ckpt-rename",
            FaultSite::CheckpointPrune => "ckpt-prune",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::AppendWrite => 0,
            FaultSite::AppendSync => 1,
            FaultSite::SealRename => 2,
            FaultSite::CheckpointWrite => 3,
            FaultSite::CheckpointSync => 4,
            FaultSite::CheckpointRename => 5,
            FaultSite::CheckpointPrune => 6,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// How long an injected failure lasts once its site reaches the
/// triggering call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The next `n` calls at the site fail, then the site recovers —
    /// the shape a retry-with-backoff policy must absorb.
    Transient(u32),
    /// Every call from the trigger on fails — the shape that must flip
    /// the server into degraded read-only mode.
    Persistent,
}

struct Rule {
    site: FaultSite,
    /// 1-based call ordinal at which the rule arms.
    from_nth: u64,
    kind: FaultKind,
    /// Transient failures still owed (ignored for `Persistent`).
    remaining: u32,
}

#[derive(Default)]
struct Inner {
    rules: Vec<Rule>,
    counts: [u64; 7],
}

/// A cheap, cloneable error schedule shared by every instrumented I/O
/// site of one durability pipeline (see the [module docs](self)).
/// Clones share state: the counters a [`Wal`](super::Wal) advances are
/// the counters a test observes through its own handle.
#[derive(Clone, Default)]
pub struct IoFaults(Arc<Mutex<Inner>>);

impl IoFaults {
    /// An empty plan: every check passes.
    #[must_use]
    pub fn new() -> IoFaults {
        IoFaults::default()
    }

    /// Add a rule: starting with call number `from_nth` (1-based) at
    /// `site`, fail per `kind`. Chainable.
    #[must_use]
    pub fn fail(self, site: FaultSite, from_nth: u64, kind: FaultKind) -> IoFaults {
        let remaining = match kind {
            FaultKind::Transient(n) => n,
            FaultKind::Persistent => 0,
        };
        self.lock().rules.push(Rule { site, from_nth: from_nth.max(1), kind, remaining });
        self
    }

    /// Consult the plan at `site`: advance the site's call counter and
    /// fail if an armed rule says so. Instrumented I/O sites call this
    /// immediately before the real operation, so an injected failure
    /// never leaves partial bytes behind.
    ///
    /// # Errors
    /// [`WalError::Io`] naming the site and call ordinal when a rule
    /// fires.
    pub fn check(&self, site: FaultSite) -> Result<(), WalError> {
        let mut inner = self.lock();
        inner.counts[site.index()] += 1;
        let n = inner.counts[site.index()];
        for rule in &mut inner.rules {
            if rule.site != site || n < rule.from_nth {
                continue;
            }
            match rule.kind {
                FaultKind::Persistent => {
                    return Err(WalError::Io(format!("injected {site} failure (call #{n})")));
                }
                FaultKind::Transient(_) if rule.remaining > 0 => {
                    rule.remaining -= 1;
                    return Err(WalError::Io(format!("injected {site} failure (call #{n})")));
                }
                FaultKind::Transient(_) => {}
            }
        }
        Ok(())
    }

    /// Calls observed at `site` so far (failed and passed alike).
    #[must_use]
    pub fn count(&self, site: FaultSite) -> u64 {
        self.lock().counts[site.index()]
    }

    /// Drop every rule — the "operator replaced the disk" event. Call
    /// counters keep running.
    pub fn clear(&self) {
        self.lock().rules.clear();
    }

    /// Parse the `migctl serve --inject` plan syntax: comma-separated
    /// clauses `site@N`, `site@N:K` or `site@N:persistent`, where
    /// `site` is a [`FaultSite::token`], `N` the 1-based call ordinal
    /// the failure starts at, and `K` how many consecutive calls fail
    /// (default 1; `persistent` = every call from `N` on).
    ///
    /// `append@3:persistent` — every WAL append from the 3rd on fails.
    /// `ckpt-sync@1:2,seal@2` — the first two checkpoint fsyncs fail,
    /// and the 2nd log seal fails once.
    ///
    /// # Errors
    /// A message naming the malformed clause and the accepted grammar.
    pub fn parse(plan: &str) -> Result<IoFaults, String> {
        let mut faults = IoFaults::new();
        for clause in plan.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site_tok, rest) = clause.split_once('@').ok_or_else(|| {
                format!("fault clause `{clause}`: expected `site@N[:K|:persistent]`")
            })?;
            let site = FaultSite::ALL
                .into_iter()
                .find(|s| s.token() == site_tok.trim())
                .ok_or_else(|| {
                    format!(
                        "fault clause `{clause}`: unknown site `{site_tok}` (one of {})",
                        FaultSite::ALL.map(FaultSite::token).join("|")
                    )
                })?;
            let (nth, kind) = match rest.split_once(':') {
                None => (rest, FaultKind::Transient(1)),
                Some((n, "persistent" | "p")) => (n, FaultKind::Persistent),
                Some((n, k)) => {
                    let count: u32 = k.trim().parse().map_err(|_| {
                        format!(
                            "fault clause `{clause}`: `{k}` is neither a count nor `persistent`"
                        )
                    })?;
                    (n, FaultKind::Transient(count))
                }
            };
            let from_nth: u64 = nth
                .trim()
                .parse()
                .map_err(|_| format!("fault clause `{clause}`: `{nth}` is not a call ordinal"))?;
            faults = faults.fail(site, from_nth, kind);
        }
        Ok(faults)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for IoFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("IoFaults")
            .field("rules", &inner.rules.len())
            .field("counts", &inner.counts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_rule_fails_exactly_its_window() {
        let f = IoFaults::new().fail(FaultSite::AppendWrite, 2, FaultKind::Transient(2));
        assert!(f.check(FaultSite::AppendWrite).is_ok());
        assert!(f.check(FaultSite::AppendWrite).is_err());
        assert!(f.check(FaultSite::AppendWrite).is_err());
        assert!(f.check(FaultSite::AppendWrite).is_ok());
        assert_eq!(f.count(FaultSite::AppendWrite), 4);
        // Other sites are untouched.
        assert!(f.check(FaultSite::CheckpointSync).is_ok());
    }

    #[test]
    fn persistent_rule_fails_forever_until_cleared() {
        let f = IoFaults::new().fail(FaultSite::CheckpointRename, 1, FaultKind::Persistent);
        for _ in 0..5 {
            assert!(f.check(FaultSite::CheckpointRename).is_err());
        }
        f.clear();
        assert!(f.check(FaultSite::CheckpointRename).is_ok());
    }

    #[test]
    fn clones_share_counters_and_rules() {
        let f = IoFaults::new().fail(FaultSite::SealRename, 2, FaultKind::Transient(1));
        let g = f.clone();
        assert!(f.check(FaultSite::SealRename).is_ok());
        assert!(g.check(FaultSite::SealRename).is_err(), "clone sees call #2");
        assert_eq!(f.count(FaultSite::SealRename), 2);
    }

    #[test]
    fn plan_syntax_round_trips() {
        let f = IoFaults::parse("append@3:persistent, ckpt-sync@1:2 ,seal@2").unwrap();
        assert!(f.check(FaultSite::CheckpointSync).is_err());
        assert!(f.check(FaultSite::CheckpointSync).is_err());
        assert!(f.check(FaultSite::CheckpointSync).is_ok());
        assert!(f.check(FaultSite::SealRename).is_ok());
        assert!(f.check(FaultSite::SealRename).is_err());
        assert!(f.check(FaultSite::SealRename).is_ok(), "default transient count is 1");
        assert!(f.check(FaultSite::AppendWrite).is_ok());
        assert!(f.check(FaultSite::AppendWrite).is_ok());
        for _ in 0..4 {
            assert!(f.check(FaultSite::AppendWrite).is_err(), "persistent from #3");
        }
        assert!(IoFaults::parse("").unwrap().check(FaultSite::AppendWrite).is_ok());
        for bad in ["append", "nope@1", "append@x", "append@1:sometimes"] {
            assert!(IoFaults::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn injected_error_names_site_and_ordinal() {
        let f = IoFaults::new().fail(FaultSite::AppendSync, 1, FaultKind::Persistent);
        let e = f.check(FaultSite::AppendSync).unwrap_err();
        assert_eq!(e, WalError::Io("injected sync failure (call #1)".into()));
    }
}
