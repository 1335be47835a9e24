//! Order statistics over the handful of samples one run collects.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
/// NaN for an empty slice, so a missing measurement can never read as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the acceptance rule for this benchmark is stated in those terms.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // Taken after the clamp, as Python does: outside 0..=4 it extrapolates.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_a_sorted_index_oracle() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
        // A fixed shuffle of 0..n (17 is coprime to every n below it): the
        // oracle is the sorted position itself.
        for n in 1..17usize {
            let values: Vec<f64> = (0..n).map(|i| ((i * 17 + 5) % n) as f64).collect();
            let mut seen = values.clone();
            seen.sort_by(f64::total_cmp);
            assert_eq!(seen, (0..n).map(|i| i as f64).collect::<Vec<_>>());
            let oracle = if n % 2 == 1 {
                (n / 2) as f64
            } else {
                (n - 1) as f64 / 2.0
            };
            assert_eq!(median(&values), oracle, "n = {n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartile_spread(&ten), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}
