//! The estimators every reported number goes through.
//!
//! A run is a handful of identical rounds; each rate, latency and CPU
//! figure is computed per round and the reported value is the median of
//! the rounds, so one disturbed round moves nothing. Percentiles are
//! only reported when at least [`MIN_BEYOND`] samples lie beyond them
//! within a single round.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q` (0 < q < 1).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples would lie beyond it — the caller must
/// lengthen the round rather than report a tail it did not sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Nearest-rank percentile without the sample-count rule (`--quick`
/// runs, whose numbers are marked non-comparable).
pub fn percentile_unchecked(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of the values (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the benchmark contract's spread check uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// contract compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Percentile summary of one round's per-verdict latencies.
pub struct Latency {
    /// Median latency.
    pub p50: f64,
    /// 95th percentile latency.
    pub p95: f64,
    /// Samples the percentiles were taken from.
    pub samples: usize,
}

/// p50 and p95 of one round. With `strict`, fewer than [`MIN_BEYOND`]
/// samples beyond p95 is an error.
pub fn latency_summary(samples: &mut [f64], strict: bool) -> Result<Latency, String> {
    samples.sort_by(f64::total_cmp);
    if samples.is_empty() {
        return Err("a round produced no latency samples".to_string());
    }
    let p95 = match percentile(samples, 0.95) {
        Some(v) => v,
        None if strict => {
            return Err(format!(
                "{} samples leave {} beyond p95, need {MIN_BEYOND}",
                samples.len(),
                samples_beyond(samples.len(), 0.95)
            ))
        }
        None => percentile_unchecked(samples, 0.95),
    };
    Ok(Latency {
        p50: percentile_unchecked(samples, 0.50),
        p95,
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        let below: Vec<f64> = (0..199).map(f64::from).collect();
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(percentile(&below, 0.95).is_none());
        assert_eq!(percentile(&enough, 0.95), Some(189.0));
        // p99 of a 900-sample round has 9 beyond it: refused.
        assert_eq!(samples_beyond(900, 0.99), 9);
        let nine_hundred: Vec<f64> = (0..900).map(f64::from).collect();
        assert!(percentile(&nine_hundred, 0.99).is_none());
    }

    #[test]
    fn strict_summary_rejects_a_short_round() {
        let mut short: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(latency_summary(&mut short, true).is_err());
        let quick = latency_summary(&mut short, false).unwrap();
        assert_eq!((quick.p50, quick.p95, quick.samples), (24.0, 47.0, 50));
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        let calm = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1];
        let mut disturbed = calm;
        disturbed[3] = 55.0;
        assert!((median(&calm) - 10.05).abs() < 1e-9);
        assert!((median(&disturbed) - median(&calm)).abs() <= 0.051);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!(
            (iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) - 1.0).abs() < 1e-12
        );
    }
}
