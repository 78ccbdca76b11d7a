//! Order statistics for latency samples.
//!
//! The reporting rule: a timing is given as its median and as the
//! highest percentile that still has at least [`MIN_TAIL`] samples
//! beyond it, with the sample count. A named tail metric such as
//! `query_p99_ms` is therefore only computed when the run collected
//! enough samples to support the 99th percentile (≥ 1000).

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Samples per window for windowed medians and 99th percentiles.
pub const MEDIAN_WINDOW: usize = 100;
/// See [`MEDIAN_WINDOW`].
pub const P99_WINDOW: usize = 1000;

/// The highest percentile (as a fraction in `[0, 1)`) with at least
/// [`MIN_TAIL`] of `n` samples beyond it, or `None` when `n` is too
/// small to have any tail at all.
#[must_use]
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    (n > MIN_TAIL).then(|| 1.0 - MIN_TAIL as f64 / n as f64)
}

/// Whether `q` is supported by `n` samples under the tail rule.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    q <= 0.5 && n > 0 || highest_supported_quantile(n).is_some_and(|top| q <= top + 1e-12)
}

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample with at least a `q` share of the samples at or below it.
/// Returns `None` unless the tail rule supports `q` for this many
/// samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if !supports(samples.len(), q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps q·n that is an integer in exact arithmetic
    // (0.99 · 1000) from rounding up a rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// The median (nearest rank), `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The median, over consecutive full windows of `window` samples (in
/// the order taken), of each window's `q`-quantile. A burst of outside
/// load that slows a minority of the windows moves this much less than
/// it moves the quantile of the pooled samples. `None` unless there is
/// at least one full window and it supports `q`.
#[must_use]
pub fn windowed(samples: &[f64], window: usize, q: f64) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks_exact(window.max(1))
        .map(|w| quantile(w, q))
        .collect::<Option<_>>()?;
    median(&per_window)
}

/// Arithmetic mean, `0` for no samples (used for per-layer averages
/// where "no calls" honestly means no time).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_quantile(10), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        let top = highest_supported_quantile(1000).unwrap();
        assert!((top - 0.99).abs() < 1e-12);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(2000, 0.995));
        assert!(!supports(1999, 0.995));
    }

    #[test]
    fn p99_refused_below_a_thousand_samples() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), Some(990.0));
        // Exactly ten samples (991..=1000) lie beyond the reported one.
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), MIN_TAIL);
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn windowed_quantile_resists_a_minority_burst() {
        // Four windows of 100 steady samples and one of slow ones.
        let mut samples: Vec<f64> = (0..400).map(|i| 1.0 + f64::from(i % 10) / 100.0).collect();
        samples.extend(std::iter::repeat_n(50.0, 100));
        let pooled = median(&samples).unwrap();
        let windowed_median = windowed(&samples, 100, 0.5).unwrap();
        assert_eq!(windowed_median, 1.04);
        assert!(pooled >= windowed_median);
        // A partial window is dropped; no full window means no value.
        assert_eq!(windowed(&samples[..99], 100, 0.5), None);
        // p99 needs a thousand samples in every window.
        assert_eq!(windowed(&samples, 100, 0.99), None);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
