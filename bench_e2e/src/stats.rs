//! Order statistics for reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure never rests on one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// Median of `samples` (mean of the middle pair for an even count), or
/// `None` when empty. The median needs no tail rule: half the samples
/// always lie beyond it.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(100), 99.0), None);
    }

    #[test]
    fn p50_is_nearest_rank() {
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
        // Ten beyond rank 10 of 20; nine beyond rank 10 of 19.
        assert_eq!(percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn degenerate_inputs_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 100.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
