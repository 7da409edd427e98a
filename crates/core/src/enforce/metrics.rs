//! Admission-path observability: lock-free, log-bucketed latency and
//! size histograms, rendered in Prometheus text exposition format.
//!
//! Every histogram is a fixed array of power-of-two buckets updated
//! with relaxed atomics — recording is a couple of nanoseconds and
//! never takes a lock, so the admission worker and the committer
//! thread can stamp every block without perturbing the tail they are
//! supposed to measure. Per-shard series (queue depth, block size,
//! commit latency) carry a `shard` label; pipeline-global series
//! (fsync batch size, checkpoint stall) do not.
//!
//! The flat `stats` wire verb stays untouched (it is test-locked);
//! `stats prom` returns [`AdmissionMetrics::render_prometheus`] as a
//! length-prefixed payload.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: upper bounds `2^0 .. 2^30`, then `+Inf`.
const BUCKETS: usize = 32;

/// A lock-free histogram over `u64` samples with power-of-two bucket
/// bounds (`le = 1, 2, 4, …, 2^30, +Inf`). Recording is wait-free;
/// readers see a consistent-enough view for monitoring (relaxed loads —
/// a scrape racing a record may be one sample behind).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Index of the smallest bucket whose upper bound holds `v`.
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    // ceil(log2(v)) = bit length of v-1; clamp overflow into +Inf.
    (u64::BITS - (v - 1).leading_zeros()).min(BUCKETS as u32 - 1) as usize
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of every recorded sample.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bucket bound at or below which fraction `p` (`0.0..=1.0`)
    /// of the samples fall — a log2-granular percentile, good enough to
    /// see a tail move by an order of magnitude. Returns 0 when empty.
    #[must_use]
    pub fn quantile_bound(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bound(i);
            }
        }
        u64::MAX
    }

    /// Fold another histogram's samples into this one, bucket-wise —
    /// how a reader aggregates per-shard series into one distribution
    /// (quantiles of the merged histogram are quantiles of the union
    /// of the samples, at the same log2 granularity).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
    }

    /// Render one Prometheus histogram series (cumulative buckets,
    /// `_sum`, `_count`) with an optional label pair.
    fn render(&self, out: &mut String, name: &str, label: Option<(&str, usize)>) {
        use std::fmt::Write as _;
        let tail = |extra: &str| match label {
            Some((k, v)) if extra.is_empty() => format!("{{{k}=\"{v}\"}}"),
            Some((k, v)) => format!("{{{k}=\"{v}\",{extra}}}"),
            None if extra.is_empty() => String::new(),
            None => format!("{{{extra}}}"),
        };
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let le = if i == BUCKETS - 1 {
                "le=\"+Inf\"".to_owned()
            } else {
                format!("le=\"{}\"", bound(i))
            };
            let _ = writeln!(out, "{name}_bucket{} {cum}", tail(&le));
        }
        let _ = writeln!(out, "{name}_sum{} {}", tail(""), self.sum());
        let _ = writeln!(out, "{name}_count{} {}", tail(""), self.count());
    }
}

/// Upper bound of bucket `i` (`2^i`; the last bucket is `+Inf`,
/// reported here as `u64::MAX`).
fn bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Every histogram the admission pipeline maintains, shared (`Arc`)
/// between the ingress worker, the committer thread, and the wire
/// front end that serves `stats prom`.
#[derive(Debug)]
pub struct AdmissionMetrics {
    /// Per-lane queue depth sampled at each drain (`shard` label).
    pub queue_depth: Vec<Histogram>,
    /// Ops per admitted block, per lane (`shard` label).
    pub block_size: Vec<Histogram>,
    /// Microseconds from drain to durable release, per lane
    /// (`shard` label).
    pub commit_latency_us: Vec<Histogram>,
    /// Records covered by one committer `fdatasync` (group-commit
    /// amortization factor).
    pub fsync_batch: Histogram,
    /// Microseconds the admission worker spent in each cadence
    /// checkpoint (capture + log seal) — the stall every queued op
    /// behind it observes.
    pub checkpoint_stall_us: Histogram,
    /// Current constraint-inventory epoch (gauge; bumped by each
    /// durable `redefine`).
    pub epoch: AtomicU64,
    /// Online redefinitions applied over the monitor's history
    /// (counter).
    pub redefine_total: AtomicU64,
    /// Objects quarantined across every redefinition (gauge — residue
    /// whose consumed history the new inventory cannot absorb).
    pub quarantined_objects: AtomicU64,
    /// Microseconds the committer spent in the replication tee per
    /// batch (hand-off under `ack-on-local-fsync`, full wait for the
    /// k-th replica ack under `ack-on-replica-k`).
    pub repl_ship_wait_us: Histogram,
    /// Replication-stream bytes teed to the replicas (counter; one copy
    /// regardless of fan-out — the per-peer sends carry the same bytes).
    pub repl_shipped_bytes: AtomicU64,
    /// Batches teed to the replicas (counter).
    pub repl_shipped_batches: AtomicU64,
    /// Currently attached replication peers (gauge).
    pub repl_live_replicas: AtomicU64,
    /// Replication-stream records this replica folded into its monitor
    /// (counter; stays 0 on a primary).
    pub repl_applied_records: AtomicU64,
}

impl AdmissionMetrics {
    /// Metrics for `lanes` admission lanes (one per component shard).
    #[must_use]
    pub fn new(lanes: usize) -> AdmissionMetrics {
        let lanes = lanes.max(1);
        let mk = || (0..lanes).map(|_| Histogram::new()).collect();
        AdmissionMetrics {
            queue_depth: mk(),
            block_size: mk(),
            commit_latency_us: mk(),
            fsync_batch: Histogram::new(),
            checkpoint_stall_us: Histogram::new(),
            epoch: AtomicU64::new(0),
            redefine_total: AtomicU64::new(0),
            quarantined_objects: AtomicU64::new(0),
            repl_ship_wait_us: Histogram::new(),
            repl_shipped_bytes: AtomicU64::new(0),
            repl_shipped_batches: AtomicU64::new(0),
            repl_live_replicas: AtomicU64::new(0),
            repl_applied_records: AtomicU64::new(0),
        }
    }

    /// The Prometheus text exposition of every series.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let per_shard: [(&str, &str, &Vec<Histogram>); 3] = [
            ("migratory_queue_depth", "ops waiting in the lane at drain", &self.queue_depth),
            ("migratory_block_size", "ops per admitted block", &self.block_size),
            (
                "migratory_commit_latency_us",
                "microseconds from drain to durable release",
                &self.commit_latency_us,
            ),
        ];
        for (name, help, series) in per_shard {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            for (shard, h) in series.iter().enumerate() {
                h.render(&mut out, name, Some(("shard", shard)));
            }
        }
        for (name, help, h) in [
            (
                "migratory_fsync_batch",
                "records covered by one committer fdatasync",
                &self.fsync_batch,
            ),
            (
                "migratory_checkpoint_stall_us",
                "microseconds admission stalled for checkpoint capture and seal",
                &self.checkpoint_stall_us,
            ),
            (
                "migratory_repl_ship_wait_us",
                "microseconds the committer spent teeing a batch to the replicas",
                &self.repl_ship_wait_us,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            h.render(&mut out, name, None);
        }
        for (name, kind, help, v) in [
            ("migratory_epoch", "gauge", "current constraint-inventory epoch", &self.epoch),
            (
                "migratory_redefine_total",
                "counter",
                "online inventory redefinitions applied",
                &self.redefine_total,
            ),
            (
                "migratory_quarantined_objects",
                "gauge",
                "objects quarantined across every redefinition",
                &self.quarantined_objects,
            ),
            (
                "migratory_repl_shipped_bytes",
                "counter",
                "replication-stream bytes teed to the replicas",
                &self.repl_shipped_bytes,
            ),
            (
                "migratory_repl_shipped_batches",
                "counter",
                "batches teed to the replicas",
                &self.repl_shipped_batches,
            ),
            (
                "migratory_repl_live_replicas",
                "gauge",
                "currently attached replication peers",
                &self.repl_live_replicas,
            ),
            (
                "migratory_repl_applied_records",
                "counter",
                "replication-stream records folded by this replica",
                &self.repl_applied_records,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            out.push_str(&format!("{name} {}\n", v.load(Ordering::Relaxed)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 30), 30);
        assert_eq!(bucket_of((1 << 30) + 1), 31);
        assert_eq!(bucket_of(u64::MAX), 31);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 8, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1019);
        assert_eq!(h.quantile_bound(0.5), 1);
        assert_eq!(h.quantile_bound(0.8), 8);
        assert_eq!(h.quantile_bound(1.0), 1024);
        assert_eq!(Histogram::new().quantile_bound(0.99), 0);
    }

    #[test]
    fn merge_unions_the_samples() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 8] {
            a.record(v);
        }
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1009);
        assert_eq!(a.quantile_bound(1.0), 1024);
        assert_eq!(b.count(), 1, "the source histogram is untouched");
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_labelled() {
        let m = AdmissionMetrics::new(2);
        m.block_size[1].record(3);
        m.block_size[1].record(200);
        m.fsync_batch.record(7);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE migratory_block_size histogram"), "{text}");
        assert!(text.contains("migratory_block_size_bucket{shard=\"1\",le=\"4\"} 1"), "{text}");
        assert!(text.contains("migratory_block_size_bucket{shard=\"1\",le=\"256\"} 2"), "{text}");
        assert!(text.contains("migratory_block_size_bucket{shard=\"1\",le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("migratory_block_size_sum{shard=\"1\"} 203"), "{text}");
        assert!(text.contains("migratory_block_size_count{shard=\"0\"} 0"), "{text}");
        assert!(text.contains("migratory_fsync_batch_bucket{le=\"8\"} 1"), "{text}");
        assert!(text.contains("migratory_fsync_batch_count 1"), "{text}");
    }
}
