//! Order statistics over latency samples.

/// Samples a reported tail must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `q`-quantile among `len`
/// samples.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// The `q`-quantile of `samples` by the nearest-rank rule (sorts in
/// place); 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `len`.
pub fn beyond(len: usize, q: f64) -> usize {
    len.saturating_sub(rank(len, q))
}

/// Whether a `q` tail over `len` samples leaves at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_is_supported(len: usize, q: f64) -> bool {
    beyond(len, q) >= MIN_BEYOND
}

/// Mean of `samples`; 0 for an empty slice.
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
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile(&mut [3.5], 0.99), 3.5);
    }

    #[test]
    fn a_supported_tail_leaves_at_least_ten_samples_beyond_it() {
        for q in [0.5, 0.9, 0.99] {
            for len in 1..5_000 {
                let mut v: Vec<f64> = (0..len).map(|i| i as f64).collect();
                let value = quantile(&mut v, q);
                let strictly_above = v.iter().filter(|&&x| x > value).count();
                assert_eq!(strictly_above, beyond(len, q));
                assert_eq!(tail_is_supported(len, q), strictly_above >= MIN_BEYOND);
            }
        }
        assert!(tail_is_supported(1_000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert!(tail_is_supported(100, 0.9));
        assert!(!tail_is_supported(99, 0.9));
    }
}
