//! Order statistics used by every workload: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, medians.

/// The nearest-rank `q`-th percentile of ascending `sorted` samples: the
/// smallest sample such that at least `q`% of all samples are ≤ it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-th percentile among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    let r = (q / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest of the conventional tail percentiles (99.9, 99, 90, 50) that
/// still has at least ten samples beyond it among `n` samples; 50 when even
/// the median has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= 10)
        .unwrap_or(50.0)
}

/// Median of unsorted values (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample vector ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}
