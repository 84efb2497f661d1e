//! Order statistics for latency samples and for repetition sets.

/// Tail percentiles a workload may report, in per-mille, highest first.
const TAIL_LADDER: [u32; 4] = [998, 990, 950, 900];

/// The tail a sample set of `n` supports: the highest rung of the ladder
/// that is not above the workload's `nominal` tail and still has ten
/// samples beyond it (the lowest rung when none has).
pub fn tail_permille(nominal: u32, n: usize) -> u32 {
    let supported = |p: u32| p <= nominal && n as u64 * (1000 - p) as u64 >= 10_000;
    TAIL_LADDER.into_iter().find(|&p| supported(p)).unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// The `permille`-th per-mille quantile (nearest-rank) of an ascending
/// slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], permille: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as u64 * permille as u64).div_ceil(1000).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `(p50, tail, tail per-mille used)` of unsorted nanosecond samples, in
/// microseconds; `nominal` is the tail the workload reports when it has
/// the samples for it.
pub fn mid_and_tail_us(samples: &mut [u64], nominal: u32) -> (f64, f64, u32) {
    samples.sort_unstable();
    let tail = tail_permille(nominal, samples.len());
    (percentile(samples, 500) as f64 / 1e3, percentile(samples, tail) as f64 / 1e3, tail)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median; quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them, which is what the driver computes over a set of runs.
/// 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let (j, delta) = ((i * (n + 1)) / 4, (i * (n + 1)) % 4);
        let j = j.clamp(1, n - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p95_below_a_thousand_samples() {
        assert_eq!(tail_permille(990, 999), 950);
        assert_eq!(tail_permille(990, 1000), 990);
        assert_eq!(tail_permille(998, 5000), 998);
        assert_eq!(tail_permille(998, 4999), 990);
        assert_eq!(tail_permille(950, 50_000), 950);
        assert_eq!(tail_permille(990, 20), 900);
        let mut few: Vec<u64> = (1..=200).map(|i| i * 1000).collect();
        assert_eq!(mid_and_tail_us(&mut few, 990), (100.0, 190.0, 950));
        let mut many: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        assert_eq!(mid_and_tail_us(&mut many, 990), (1000.0, 1980.0, 990));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 500), 20);
        assert_eq!(percentile(&s, 750), 30);
        assert_eq!(percentile(&s, 1000), 40);
        assert_eq!(percentile(&s, 1), 10);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // gives [3.5, 13.5, 31.0].
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(spread(&v), (31.0 - 3.5) / 13.5);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
