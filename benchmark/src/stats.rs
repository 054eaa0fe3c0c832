//! Order statistics and the geometric mean.

/// Median of `xs`: the middle value, or the mean of the two middle values.
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`, so spreads computed here and
/// there agree. One value is its own quartiles; `NaN`s for none.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Mean of `xs` after dropping the lowest and the highest `share` of the
/// values (rounded down); `NaN` for an empty slice.
pub fn trimmed_mean(xs: &[f64], share: f64) -> f64 {
    let s = sorted(xs);
    let cut = (s.len() as f64 * share) as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&xs, 0.2), 4.5);
        assert_eq!(trimmed_mean(&[3.0, 5.0], 0.2), 4.0);
        assert!(trimmed_mean(&[], 0.2).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]), 4.0));
        assert!(geomean(&[]).is_nan());
    }
}
