//! Timing helpers shared by the `repro bench-json` suites: sampled
//! wall-time with an untimed warm-up, medians, histogram percentiles and
//! the per-phase JSON breakdown.

use dscweaver_obs as obs;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] so bench files need one import.
pub use std::hint::black_box;

/// Shared configuration for the `repro bench-json` suites.
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// Restrict to the small cases with one sample each (the tier-1
    /// smoke run; timings in this mode are not meaningful).
    pub smoke: bool,
    /// Worker threads for the parallel engine runs (`0` = auto).
    pub threads: usize,
}

/// Renders a trace snapshot's per-phase totals as a JSON object
/// (`{"minimize": 12.345, ...}` — milliseconds, stable ordering), the
/// `"phases"` value attached to every bench-json case. Lines after the
/// first are prefixed with `indent`.
pub fn phases_json(snapshot: &obs::TraceSnapshot, indent: &str) -> String {
    let totals = snapshot.phase_totals_ms();
    if totals.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{\n");
    for (i, (name, ms)) in totals.iter().enumerate() {
        out.push_str(&format!("{indent}  \"{name}\": {ms:.3}"));
        out.push_str(if i + 1 == totals.len() { "\n" } else { ",\n" });
    }
    out.push_str(&format!("{indent}}}"));
    out
}

/// Runs `f` `samples` times (after one untimed warm-up call) and returns
/// the per-sample durations, sorted ascending.
pub fn sample<T>(samples: usize, mut f: impl FnMut() -> T) -> Vec<Duration> {
    black_box(f()); // warm-up
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times
}

/// Histogram-derived latency percentiles of a duration sample set, in
/// milliseconds: the samples feed a log₂ [`obs::Histogram`] and
/// `(p50, p99)` come from its deterministic quantile extraction — the
/// same estimator the daemon's `/metrics` histograms use, so artifact
/// percentiles and scraped percentiles are directly comparable.
pub fn percentiles_ms(samples: &[Duration]) -> (f64, f64) {
    let h = obs::Histogram::new();
    for d in samples {
        h.record(d.as_nanos() as u64);
    }
    let s = h.snapshot();
    (s.p50() as f64 / 1e6, s.p99() as f64 / 1e6)
}

/// Median of a sorted duration slice.
pub fn median(sorted: &[Duration]) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_sorted() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median(&[d(1), d(2), d(30)]), d(2));
        assert_eq!(median(&[d(1), d(3)]), d(2));
        assert_eq!(median(&[]), Duration::ZERO);
    }

    #[test]
    fn sample_counts_and_sorts() {
        let times = sample(5, || 1 + 1);
        assert_eq!(times.len(), 5);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn percentiles_come_from_the_histogram_estimator() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let (p50, p99) = percentiles_ms(&samples);
        // Log2-bucket upper bounds, clamped to the tracked max.
        assert!(p50 > 0.0 && p50 <= p99, "{p50} {p99}");
        assert!(p99 <= 0.1, "{p99}");
        assert_eq!(percentiles_ms(&[]), (0.0, 0.0));
    }
}
