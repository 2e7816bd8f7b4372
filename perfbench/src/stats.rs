//! Order statistics over latency samples.

/// The 1-based nearest rank of quantile `q` among `n` samples (the epsilon
/// keeps `0.9 * 100` at rank 90 despite binary rounding).
fn rank(n: usize, q: f64) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// The value at quantile `q` (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank(sorted.len(), q);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the nearest-rank quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// The highest quantile, in steps of 0.001, that leaves at least ten of
/// `nominal_ops` samples beyond it (never below the median).
pub fn tail_quantile(nominal_ops: usize) -> f64 {
    (500..=999)
        .rev()
        .map(|per_mille| f64::from(per_mille) / 1000.0)
        .find(|&q| beyond(nominal_ops, q) >= 10)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
    }
}
