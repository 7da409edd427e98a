//! Quantiles, `/proc` readers, and the printed report.

use crate::wire::Sample;
use std::path::Path;
use std::time::{Duration, Instant};

/// The `q`-quantile (nearest rank) of `v`, sorting it in place.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

pub fn median_f(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The median, over the whole `win`-long windows of a phase that began
/// at `t0` and lasted `secs`, of the completions per second in each.
pub fn window_rate(samples: &[Sample], t0: Instant, secs: f64, win: Duration) -> f64 {
    let mut per = vec![0u64; (secs / win.as_secs_f64()).floor() as usize];
    for s in samples {
        let k = (s.at.saturating_duration_since(t0).as_secs_f64() / win.as_secs_f64()) as usize;
        if let Some(n) = per.get_mut(k) {
            *n += 1;
        }
    }
    let rates: Vec<f64> = per.iter().map(|&n| n as f64 / win.as_secs_f64()).collect();
    median_f(&rates)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`getconf
/// CLK_TCK`, 100 on every Linux this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of a whole process, exited threads
/// included.
pub fn cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0.0 };
    // Fields after the parenthesised command name: state is field 3,
    // utime 14, stime 15.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let f: Vec<u64> = rest.split_whitespace().map(|x| x.parse().unwrap_or(0)).collect();
    (f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)) as f64 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU counters from `/proc/stat`: (steal, total) jiffies.
pub fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Bytes in the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// One named figure of the report.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the figure, when it summarises many.
    pub samples: Option<usize>,
    /// Whether it goes into the final JSON object.
    pub json: bool,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// A metric of the final JSON object.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric { name: name.to_owned(), unit, value, samples, json: true });
    }

    /// A metric printed with the report but kept out of the JSON object:
    /// it exists on only some workloads, or is too unsteady to gate on.
    pub fn note(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric { name: name.to_owned(), unit, value, samples, json: false });
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    /// Print every metric and the metadata as readable lines, then the
    /// JSON object as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (k, v) in &self.meta {
            println!("meta {k} = {v}");
        }
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("metric {:<32} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        let share = if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 };
        println!("metric {:<32} {:>16.6} share  ({failed} of {attempted})", "failed_share", share);
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.json)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn this_process_has_cpu_and_rss() {
        let pid = std::process::id();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(host_cpu().1 > 0);
    }
}
