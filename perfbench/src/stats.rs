//! Sample summaries: median and quartiles by the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), and the
//! smallest sample.

/// Summary of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let median = if n % 2 == 1 {
            x[n / 2]
        } else {
            (x[n / 2 - 1] + x[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary::exact(x[0]);
        }
        let q = |i: usize| {
            let m = (n + 1) * i;
            let (j, delta) = (m / 4, (m % 4) as f64);
            if j < 1 {
                x[0]
            } else if j >= n {
                x[n - 1]
            } else {
                (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
            }
        };
        Summary {
            min: x[0],
            q1: q(1),
            median,
            q3: q(3),
            n,
        }
    }

    /// A single exact value (counts, which repeat exactly).
    pub fn exact(v: f64) -> Summary {
        Summary {
            min: v,
            q1: v,
            median: v,
            q3: v,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).min, 1.0);
    }
}
