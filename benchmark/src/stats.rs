//! Order statistics over small samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values` (0 for none): what a repeated timing reports.
/// Repetitions do identical work, and this box's interference — neighbours on
/// the memory system, for seconds at a time — only ever adds time, so the
/// fastest repetition is the closest reading of what the code costs. Medians
/// over laps moved by 15–25 % between runs of unchanged code in the noisier
/// sessions; the repository's own `BENCH_*.json` records are min-of-reps for
/// the same reason.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The `q`-quantile (0..=1) of an ascending-sorted sample by nearest rank;
/// 0 for an empty sample.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Interquartile range over the median — the spread `BENCHMARK.json`'s
/// bounds are judged against. Quartiles by the exclusive method, as
/// Python's `statistics.quantiles(values, n=4)` computes them. 0 for fewer
/// than two values.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_is_the_minimum_and_zero_for_none() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.95), 95);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.95), 7);
    }

    #[test]
    fn iqr_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
