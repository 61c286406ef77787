//! Order statistics for timing samples: medians, quartiles, and the
//! "median plus the highest percentile with at least ten samples beyond it"
//! summary every reported timing carries.

/// Percentiles a tail may be reported at, in tenths of a percent (integer,
/// so ranks are exact), lowest first.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`); both equal the sample when only one
/// exists, and 0 when empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// A timing summary: sample count, median, and the highest ladder
/// percentile with at least ten samples beyond it (`None` below 20
/// samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail: Option<(f64, f64)>,
}

/// Summarizes samples where larger is worse (durations).
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let n = v.len();
    let tail = LADDER.iter().rev().find_map(|&p| {
        // Nearest rank: the ceil(p/1000 * n)-th smallest sample.
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= BEYOND).then(|| (p as f64 / 10.0, v[rank - 1]))
    });
    Summary { n, median: median(xs), tail }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        if let Some((p, x)) = self.tail {
            write!(f, ", p{p} {x:.6}")?;
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(summarize(&ramp(19)).tail, None);
        assert_eq!(summarize(&ramp(20)).tail, Some((50.0, 10.0)));
        assert_eq!(summarize(&ramp(40)).tail, Some((75.0, 30.0)));
        assert_eq!(summarize(&ramp(100)).tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
        assert_eq!(summarize(&ramp(10_000)).tail, Some((99.9, 9990.0)));
        let s = summarize(&ramp(100));
        assert_eq!((s.n, s.median), (100, 50.5));
        assert_eq!(s.to_string(), "median 50.500000, p90 90.000000 (n=100)");
    }
}
