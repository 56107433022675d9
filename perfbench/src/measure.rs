//! Timing, memory and check bookkeeping shared by the workloads.

use std::time::{Duration, Instant};

use mcim_core::{CommStats, FrequencyTable};
use mcim_obs::Snapshot;

use crate::Result;

/// Tally of every output check and operation a run attempts. Its ratio is
/// the `error_rate` metric and the result line's
/// `attempted`/`failed`; any failure also makes the result `correct: false`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Prints a timing sample's size, median and extremes on stderr.
pub fn report_sample(what: &str, xs: &[f64]) {
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    eprintln!(
        "{what}: n={} median={:.4}s min={lo:.4}s max={hi:.4}s",
        xs.len(),
        median(xs)
    );
}

/// Wall seconds of one call.
pub fn time<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let start = Instant::now();
    let out = f()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// Calls `round(i)` for i = 0, 1, … until `budget` has elapsed and at
/// least `min_rounds` rounds ran; returns the number of rounds.
pub fn run_for(
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let start = Instant::now();
    let mut i = 0;
    while i < min_rounds || start.elapsed() < budget {
        round(i)?;
        i += 1;
    }
    Ok(i)
}

/// Runs `setup` `reps` times and returns the last output with the median
/// wall time. Earlier outputs are dropped untimed.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (out, secs) = time(&mut setup)?;
        times.push(secs);
        last = Some(out);
    }
    let out = last.ok_or("setup needs at least one repetition")?;
    Ok((out, median(&times)))
}

/// Resets the kernel's resident-set high-water mark of this process, so
/// `peak_rss_mib` covers only what runs afterwards (not the input
/// generator).
pub fn reset_peak_rss() -> Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the RSS high-water mark: {e}"))?;
    Ok(())
}

/// Peak resident set (`VmHWM`) of this process since the last reset, MiB.
pub fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs `f` with the `mcim-obs` registry recording and returns its output
/// with the snapshot of what it recorded.
pub fn observed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, Snapshot)> {
    mcim_obs::reset();
    mcim_obs::set_enabled(true);
    let out = f();
    mcim_obs::set_enabled(false);
    let snap = mcim_obs::snapshot();
    mcim_obs::reset();
    Ok((out?, snap))
}

/// A counter family summed over its label sets (e.g. every `worker`).
pub fn counter_sum(snap: &Snapshot, family: &str) -> u64 {
    let labeled = format!("{family}{{");
    snap.counters
        .iter()
        .filter(|(key, _)| *key == family || key.starts_with(&labeled))
        .map(|(_, v)| v)
        .sum()
}

/// Bit-for-bit equality of two estimates and their uplink accounting.
pub fn same_estimate(a: (&FrequencyTable, CommStats), b: (&FrequencyTable, CommStats)) -> bool {
    a.1 == b.1
        && a.0.values().len() == b.0.values().len()
        && a.0
            .values()
            .iter()
            .zip(b.0.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
