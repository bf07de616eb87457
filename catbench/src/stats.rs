//! Percentiles over latency samples.

/// The `p`-th percentile (0–100) of `xs`, interpolating linearly
/// between the two nearest ranks. `None` when `xs` is empty. Infinite
/// samples (failed requests) sort last, so they land in the tail.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let w = rank - lo as f64;
    if w == 0.0 || v[hi] == v[lo] {
        return Some(v[lo]);
    }
    Some(v[lo] + (v[hi] - v[lo]) * w)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The arithmetic mean of `xs` (`None` when empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 100.0), Some(f64::INFINITY));
    }
}
