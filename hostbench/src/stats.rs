//! Order statistics and the least-squares fit the benchmark reports.

/// The percentiles `op_tail_ms` may report, lowest first. A fixed ladder
/// keeps the reported percentile constant while the op count of a run
/// stays inside one band, so a run that completes one more pass than
/// another still reads the same order statistic.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples. The
/// epsilon keeps binary rounding (99.9 / 100 is not exact) from pushing
/// an exact rank up by one.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The value at percentile `pct` of `sorted` (nearest rank: always one
/// of the samples, never interpolated or extrapolated).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(pct, sorted.len()) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank among `n` samples, or `None` when
/// even the median has fewer than that beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| n - nearest_rank(pct, n) >= TAIL_MIN_BEYOND)
}

/// Median of `xs` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs`; infinite for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Ordinary least-squares line `y = intercept + slope · x` with its
/// coefficient of determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    pub intercept: f64,
    pub slope: f64,
    pub r2: f64,
}

/// Fits `y` against `x`; `None` with fewer than two points or no spread
/// in `x`.
pub fn fit_line(x: &[f64], y: &[f64]) -> Option<Fit> {
    let n = x.len().min(y.len());
    if n < 2 {
        return None;
    }
    let mx = x[..n].iter().sum::<f64>() / n as f64;
    let my = y[..n].iter().sum::<f64>() / n as f64;
    let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
    for (&xi, &yi) in x[..n].iter().zip(&y[..n]) {
        sxx += (xi - mx) * (xi - mx);
        sxy += (xi - mx) * (yi - my);
        syy += (yi - my) * (yi - my);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        sxy * sxy / (sxx * syy)
    };
    Some(Fit {
        intercept: my - slope * mx,
        slope,
        r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_ladder_percentile_with_ten_beyond() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let pct = tail_percentile(n).expect("n >= 20");
            assert!(n - nearest_rank(pct, n) >= TAIL_MIN_BEYOND, "n={n}");
            if let Some(&higher) = TAIL_LADDER.iter().find(|&&q| q > pct) {
                assert!(n - nearest_rank(higher, n) < TAIL_MIN_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn percentile_never_extrapolates() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 180.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Every reported value is one of the samples.
        for pct in TAIL_LADDER {
            assert!(xs.contains(&percentile(&xs, pct)));
        }
    }

    #[test]
    fn median_and_fit() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [12.0, 14.0, 16.0, 18.0];
        let f = fit_line(&x, &y).expect("spread in x");
        assert!((f.intercept - 10.0).abs() < 1e-12);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!(fit_line(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }
}
