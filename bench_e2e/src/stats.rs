//! Order statistics and the regression verdict.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Does `a` read strictly better than `b`?
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this tool reports are the ones an outside check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (0..=100) by linear interpolation between ranks.
/// Only the tests use it, as the statistic [`tail_mean`] replaces.
#[cfg(test)]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let h = (v.len() - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// The tail percentile to report for `n` samples: the highest of p99, p95,
/// p90 and p75 that has at least ten samples beyond it, so the tail is
/// never one or two outliers. Falls back to p75 below 40 samples.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(75.0)
}

/// Mean of the values beyond the `p`-th percentile: the largest
/// ⌈n·(100 − p)/100⌉ of them. Unlike the percentile itself it moves
/// smoothly with every value in the tail, so it does not jump when the
/// percentile's rank falls in a gap between clusters of values.
pub fn tail_mean(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "tail mean of no samples");
    let k = ((v.len() as f64 * (100.0 - p) / 100.0).ceil() as usize).clamp(1, v.len());
    v[v.len() - k..].iter().sum::<f64>() / k as f64
}

/// Median and quartiles of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate samples `b` against baseline samples `a`. When either
/// side's run-to-run spread is wider than `bound`, the medians cannot
/// resolve a change of that size: the verdict is `unresolved` unless every
/// run on one side beats every run on the other. Otherwise `b` is `worse`
/// when its median is worse than `a`'s by more than `bound` (a share of
/// `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.spread().max(sb.spread()) > bound {
        let all =
            |x: &[f64], y: &[f64]| x.iter().all(|&xi| y.iter().all(|&yi| better.beats(xi, yi)));
        return if all(b, a) {
            Verdict::Ok
        } else if all(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    if worsening > bound * sa.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(252), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        // The TPC-H unit count: 44 engine-query runs → p75 (11 beyond).
        assert_eq!(tail_percentile(44), 75.0);
        assert_eq!(tail_percentile(3), 75.0);
    }

    #[test]
    fn tail_mean_averages_the_values_beyond_the_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p90 of 20 values: the top 2.
        assert_eq!(tail_mean(&v, 90.0), 19.5);
        // p75 of 44 values: the top 11.
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 75.0), 39.0);
        assert_eq!(tail_mean(&[7.0], 99.0), 7.0);
        // Two clusters with the percentile's rank at the gap between them:
        // one value crossing the gap moves the percentile by most of the
        // gap, but not the tail mean, whose top ten stay the same.
        let mut v = vec![10.0; 90];
        v.extend([100.0; 10]);
        let mut w = v.clone();
        w[89] = 100.0;
        let (p, tp) = (percentile(&v, 90.0), percentile(&w, 90.0));
        let (m, tm) = (tail_mean(&v, 90.0), tail_mean(&w, 90.0));
        assert!(tp - p > 80.0, "{p} {tp}");
        assert_eq!((m, tm), (100.0, 100.0));
    }

    #[test]
    fn verdict_ok_within_bound() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let b = [10.5, 10.6, 10.4, 10.5];
        assert_eq!(verdict(&a, &b, 0.10, Better::Lower), Verdict::Ok);
    }

    #[test]
    fn verdict_worse_beyond_bound() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let b = [11.5, 11.6, 11.4, 11.5];
        assert_eq!(verdict(&a, &b, 0.10, Better::Lower), Verdict::Worse);
        // Same numbers, but higher is better: a clear improvement.
        assert_eq!(verdict(&a, &b, 0.10, Better::Higher), Verdict::Ok);
        // Higher-is-better metric that dropped.
        assert_eq!(verdict(&b, &a, 0.10, Better::Higher), Verdict::Worse);
    }

    #[test]
    fn verdict_unresolved_when_spread_exceeds_bound() {
        let a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let b = [8.5, 10.5, 12.5, 9.5, 11.5];
        assert_eq!(verdict(&a, &b, 0.10, Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn wide_spread_resolves_when_one_side_beats_every_run() {
        let a = [8.0, 10.0, 12.0];
        let slower = [20.0, 25.0, 30.0];
        let faster = [4.0, 5.0, 6.0];
        assert_eq!(verdict(&a, &slower, 0.05, Better::Lower), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, 0.05, Better::Lower), Verdict::Ok);
    }

    #[test]
    fn zero_bound_flags_any_rise() {
        assert_eq!(verdict(&[0.0], &[0.0], 0.0, Better::Lower), Verdict::Ok);
        assert_eq!(verdict(&[0.0], &[0.5], 0.0, Better::Lower), Verdict::Worse);
    }
}
