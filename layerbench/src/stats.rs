//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest value; 0 for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The median across windows of each non-empty window's `q`-quantile:
/// a tail percentile that one disturbed stretch of a run cannot move far.
pub fn windowed<W: AsRef<[f64]>>(windows: &[W], q: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .map(AsRef::as_ref)
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&v), 4.0);
        let windows = [vec![1.0, 2.0, 3.0], vec![], vec![10.0], vec![5.0]];
        assert_eq!(windowed(&windows, 0.5), 5.0);
    }
}
