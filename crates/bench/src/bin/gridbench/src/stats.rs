//! Order statistics over a handful of samples, and the regression bound
//! every end-to-end metric carries.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measured at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses, so a spread computed here reads
/// the same as one computed from the printed samples. Fewer than two
/// samples have no spread: both quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    // statistics.quantiles(method="exclusive"): quartile i sits at
    // position i·(n+1)/4 on a 1-based scale; the index is clamped into
    // the data and the offset is not, which extrapolates at the ends.
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Summary of one metric's samples within a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// How far a metric may move the wrong way before it counts as a
/// regression: a share of the baseline plus an absolute floor (in the
/// metric's own unit) under which differences are timer noise. An
/// `exact` metric is a count that repeats run to run, so any difference,
/// in either direction, is a change of behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub better: Better,
    pub rel: f64,
    pub abs_floor: f64,
    pub exact: bool,
}

/// One row of `gridbench compare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Regressed,
    Unresolved,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Regressed => "regressed",
            Outcome::Unresolved => "unresolved",
        }
    }
}

impl Bound {
    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self.better {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }

    /// Judges `new` against `base`. A worsening inside the bound (or under
    /// the absolute floor) is `Ok`. Beyond it, the pair is `Regressed`
    /// unless either side's own run-to-run spread is wider than the bound,
    /// in which case the samples cannot tell the two apart: `Unresolved`.
    pub fn judge(&self, base: &Summary, new: &Summary) -> Outcome {
        if self.exact {
            return if base.median == new.median { Outcome::Ok } else { Outcome::Regressed };
        }
        let worse_by = match self.better {
            Better::Lower => new.median - base.median,
            Better::Higher => base.median - new.median,
        };
        if worse_by <= self.abs_floor || self.worsening(base.median, new.median) <= self.rel {
            return Outcome::Ok;
        }
        if base.spread().max(new.spread()) > self.rel {
            Outcome::Unresolved
        } else {
            Outcome::Regressed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates past the ends of two samples.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    fn flat(x: f64) -> Summary {
        Summary::of(&[x, x, x])
    }

    #[test]
    fn bound_follows_the_metric_direction() {
        let lower = Bound { better: Better::Lower, rel: 0.10, abs_floor: 0.0, exact: false };
        assert_eq!(lower.judge(&flat(1.0), &flat(1.09)), Outcome::Ok);
        assert_eq!(lower.judge(&flat(1.0), &flat(1.11)), Outcome::Regressed);
        assert_eq!(lower.judge(&flat(1.0), &flat(0.5)), Outcome::Ok);
        let higher = Bound { better: Better::Higher, rel: 0.10, abs_floor: 0.0, exact: false };
        assert_eq!(higher.judge(&flat(100.0), &flat(91.0)), Outcome::Ok);
        assert_eq!(higher.judge(&flat(100.0), &flat(89.0)), Outcome::Regressed);
        assert_eq!(higher.judge(&flat(100.0), &flat(150.0)), Outcome::Ok);
    }

    #[test]
    fn absolute_floor_forgives_small_setups() {
        // setup_s: +10 % and +5 ms. A 20 ms set-up that grows by 4 ms is
        // 20 % worse and still inside the floor; by 6 ms it is not.
        let setup = Bound { better: Better::Lower, rel: 0.10, abs_floor: 0.005, exact: false };
        assert_eq!(setup.judge(&flat(0.020), &flat(0.024)), Outcome::Ok);
        assert_eq!(setup.judge(&flat(0.020), &flat(0.026)), Outcome::Regressed);
        // On a long set-up the relative part is the one that binds.
        assert_eq!(setup.judge(&flat(2.0), &flat(2.15)), Outcome::Ok);
        assert_eq!(setup.judge(&flat(2.0), &flat(2.3)), Outcome::Regressed);
    }

    #[test]
    fn wide_spread_makes_a_pair_unresolved_not_regressed() {
        let b = Bound { better: Better::Lower, rel: 0.10, abs_floor: 0.0, exact: false };
        let noisy = Summary::of(&[0.8, 1.0, 1.0, 1.0, 1.3]);
        assert!(noisy.spread() > 0.10);
        assert_eq!(b.judge(&noisy, &flat(1.2)), Outcome::Unresolved);
    }

    #[test]
    fn exact_counts_must_match_in_both_directions() {
        let exact = Bound { better: Better::Lower, rel: 0.0, abs_floor: 0.0, exact: true };
        assert_eq!(exact.judge(&flat(600_051.0), &flat(600_051.0)), Outcome::Ok);
        assert_eq!(exact.judge(&flat(600_051.0), &flat(600_052.0)), Outcome::Regressed);
        assert_eq!(exact.judge(&flat(600_051.0), &flat(600_050.0)), Outcome::Regressed);
    }
}
