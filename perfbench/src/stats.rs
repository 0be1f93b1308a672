//! Summary statistics for the benchmark's samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank; with fewer, one slow sample would decide it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it.  Failed operations enter as
/// `f64::INFINITY`, so they count as missing every latency limit.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    if n == 0 {
        return Err("no samples".to_string());
    }
    let rank = nearest_rank(n, q);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted(values)[rank - 1])
}

/// Median (nearest rank) of a small sample, such as repeated set-ups.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sorted(values)[nearest_rank(values.len(), 0.5) - 1]
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Largest value; 0 for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5).unwrap(), 100.0);
        assert_eq!(percentile(&values, 0.95).unwrap(), 190.0);
        // Unsorted input gives the same answer.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.95).unwrap(), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_with_too_few_samples_beyond_is_refused() {
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        // Rank 190 of 199 leaves 9 beyond it.
        assert!(percentile(&values, 0.95).is_err());
        assert!(percentile(&values, 0.9).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5).unwrap(), 10.0);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut values: Vec<f64> = (1..=200).map(f64::from).collect();
        for v in values.iter_mut().take(15) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&values, 0.95).unwrap(), f64::INFINITY);
    }
}
