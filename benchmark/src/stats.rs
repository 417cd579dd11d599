//! The few statistics the benchmark reports: minimum, median, quartiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the acceptance check
//! computes its spreads with — the README's noise study and `--aa` must
//! read the same number the gate reads.

use crate::json::Value;

/// Summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&s);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance check compares against a metric's bound.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("n", Value::Num(self.n as f64)),
            ("min", Value::Num(self.min)),
            ("q1", Value::Num(self.q1)),
            ("median", Value::Num(self.median)),
            ("q3", Value::Num(self.q3)),
            ("max", Value::Num(self.max)),
            ("iqr_share", Value::Num(self.iqr_share())),
        ])
    }
}

/// `(q1, median, q3)` of an ascending slice, Python-exclusive method. With
/// a single sample all three are that sample.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The smallest sample (host-time metrics are gated on it: interference on
/// a shared box only ever slows a run down).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolates)
        let s = Summary::of(&[1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
    }

    #[test]
    fn one_sample_and_none() {
        let s = Summary::of(&[4.2]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.2, 4.2, 4.2, 4.2, 4.2)
        );
        assert_eq!(s.iqr_share(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(median(&[3.0, 1.5, 2.0]), 2.0);
    }
}
