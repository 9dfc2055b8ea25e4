//! Exact order statistics over raw samples, with the sample-count rule
//! every reported tail obeys.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile (one above the median).
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `sorted` (ascending):
/// the smallest sample with at least `⌈p·n⌉` samples at or below it.
///
/// A tail (`p > 0.5`) is refused unless at least [`MIN_BEYOND`] samples
/// rank beyond it, so a reported p99 always rests on ≥ 1000 samples.
pub fn percentile(sorted: &[i64], p: f64) -> Result<i64, String> {
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of an empty sample", p * 100.0));
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] accepts quantile `p`.
pub fn block_size(p: f64) -> usize {
    if p <= 0.5 {
        return 1;
    }
    let mut n = MIN_BEYOND;
    while n - ((p * n as f64).ceil() as usize) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Arithmetic mean (`0` for no samples).
pub fn mean(samples: &[i64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A measured window in reference time: each slice's samples scaled by
/// the calibration around that slice ([`crate::calib::Clock`]).
#[derive(Default)]
pub struct Scaled {
    /// Every operation's latency, reference nanoseconds.
    latencies: Vec<i64>,
    /// Each slice's operations per reference second.
    rates: Vec<f64>,
}

impl Scaled {
    /// Adds a slice's latencies, measured in wall nanoseconds, at `scale`
    /// reference time per wall time.
    pub fn add_latencies(&mut self, wall_ns: impl IntoIterator<Item = i64>, scale: f64) {
        self.latencies
            .extend(wall_ns.into_iter().map(|ns| (ns as f64 * scale) as i64));
    }

    /// Adds a slice that completed `ops` operations in `wall_ns`.
    pub fn add_rate(&mut self, ops: usize, wall_ns: i64, scale: f64) {
        self.rates
            .push(ops as f64 * 1e9 / (wall_ns.max(1) as f64 * scale));
    }

    /// Slices whose rate was added.
    pub fn slices(&self) -> usize {
        self.rates.len()
    }

    /// Operations whose latency was added.
    pub fn operations(&self) -> usize {
        self.latencies.len()
    }

    /// Operations per reference second: the median slice, so a slice the
    /// calibration failed to track moves nothing.
    pub fn throughput(&self) -> Result<f64, String> {
        if self.rates.is_empty() {
            return Err("no slice measured a rate".into());
        }
        Ok(median(self.rates.clone()))
    }

    /// The latency median over every operation, and the `tail` quantile
    /// as the median over blocks of [`block_size`]`(tail)` consecutive
    /// operations of each block's tail, so a burst of stalls moves only
    /// the blocks it overlaps. Returns both with the operation count.
    pub fn percentiles(&self, tail: f64) -> Result<(f64, f64, usize), String> {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let p50 = percentile(&sorted, 0.5)? as f64;
        let size = block_size(tail);
        let tails = self
            .latencies
            .chunks_exact(size)
            .map(|block| {
                let mut block = block.to_vec();
                block.sort_unstable();
                percentile(&block, tail).map(|t| t as f64)
            })
            .collect::<Result<Vec<f64>, String>>()?;
        if tails.is_empty() {
            return Err(format!(
                "{} operations do not fill one block of {size} for the p{} tail",
                sorted.len(),
                tail * 100.0
            ));
        }
        Ok((p50, median(tails), sorted.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_prng::Rng;

    /// Scalar reference: the smallest sample value `v` such that at least
    /// `p·n` samples are `<= v`, found by counting, without sorting.
    fn reference(samples: &[i64], p: f64) -> i64 {
        let n = samples.len() as f64;
        *samples
            .iter()
            .filter(|&&v| samples.iter().filter(|&&x| x <= v).count() as f64 >= p * n)
            .min()
            .expect("some sample reaches every quantile")
    }

    #[test]
    fn matches_the_scalar_reference() {
        let mut rng = Rng::seed_from_u64(7);
        for n in [20usize, 97, 1000, 1234, 2048] {
            let samples: Vec<i64> = (0..n).map(|_| (rng.next_u64() % 500) as i64).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
                match percentile(&sorted, p) {
                    Ok(v) => assert_eq!(v, reference(&samples, p), "n={n} p={p}"),
                    Err(_) => {
                        let beyond = n - (p * n as f64).ceil() as usize;
                        assert!(p > 0.5 && beyond < MIN_BEYOND, "n={n} p={p} refused");
                    }
                }
            }
        }
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(block_size(0.99), 1000);
        assert_eq!(block_size(0.95), 200);
        assert_eq!(block_size(0.5), 1);
        let sorted: Vec<i64> = (0..1000).collect();
        assert_eq!(percentile(&sorted, 0.99).unwrap(), 989);
        assert!(percentile(&sorted[..999], 0.99).is_err());
        assert!(percentile(&sorted[..199], 0.95).is_err());
        assert_eq!(percentile(&sorted[..200], 0.95).unwrap(), 189);
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&[5], 0.5).unwrap(), 5);
    }

    #[test]
    fn slices_are_scaled_to_reference_time() {
        // Ten slices of 100 operations of 1 ms each, run at the reference
        // speed, except slices 2, 5 and 7: the box ran at half speed, and
        // the calibration saw it.
        let mut s = Scaled::default();
        for slice in 0..10 {
            let slow = if [2, 5, 7].contains(&slice) { 2 } else { 1 };
            let scale = 1.0 / slow as f64;
            s.add_latencies(std::iter::repeat(1_000_000 * slow).take(100), scale);
            s.add_rate(100, 100_000_000 * slow, scale);
        }
        assert_eq!(s.slices(), 10);
        assert_eq!(s.throughput().unwrap(), 1000.0);
        assert_eq!(s.percentiles(0.9).unwrap(), (1e6, 1e6, 1000));
        assert!(s.percentiles(0.99).is_ok());
        assert!(
            s.percentiles(0.999).is_err(),
            "a p99.9 needs blocks of 10,000"
        );
        assert!(Scaled::default().throughput().is_err());
        assert!(Scaled::default().percentiles(0.5).is_err());
    }

    #[test]
    fn tails_are_the_median_block() {
        // Five blocks of 100 operations; blocks 1 and 3 hold a stall of
        // 50 ms in place of twenty 1 ms operations.
        let mut s = Scaled::default();
        for block in 0..5 {
            let stalls = if block % 2 == 1 { 20 } else { 0 };
            let lat = (0..100).map(|i| if i < stalls { 50_000_000 } else { 1_000_000 });
            s.add_latencies(lat, 1.0);
        }
        let (p50, p90, n) = s.percentiles(0.9).unwrap();
        assert_eq!((p50, p90, n), (1e6, 1e6, 500));
    }
}
