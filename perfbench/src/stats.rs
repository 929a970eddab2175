//! Order statistics for run samples, with the tail-size guard every
//! reported percentile must pass.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice (a workload that measured nothing is a
/// harness bug, not data).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, refused unless at
/// least [`MIN_TAIL`] samples lie beyond its rank.
///
/// # Errors
///
/// A description of the shortfall when the tail is too thin.
pub fn percentile(xs: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must lie in (0, 1)");
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{:.0} over {n} samples leaves {beyond} beyond it (need {MIN_TAIL})",
            p * 100.0
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Percentile { value: v[rank - 1], samples: n, beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(percentile(&xs, 0.95).is_err(), "199 samples leave 9 beyond p95");
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        let p = percentile(&xs, 0.95).unwrap();
        assert_eq!((p.samples, p.beyond, p.value), (200, 10, 189.0));
    }

    #[test]
    fn a_median_needs_twenty_samples_to_be_called_a_percentile() {
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert_eq!(percentile(&[1.0; 20], 0.5).unwrap().beyond, 10);
    }
}
