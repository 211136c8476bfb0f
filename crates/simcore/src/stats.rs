//! Streaming summary statistics for experiment results.
//!
//! Each paper data point is "mean of 10 runs with stddev error bars"; the
//! harness feeds per-run measurements into a [`Summary`] and reports
//! mean ± std. Percentiles are available for latency-distribution ablations.

/// Online mean/variance (Welford) plus retained samples for percentiles.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Build a summary from an iterator of samples.
    #[expect(clippy::should_implement_trait, reason = "an inherent constructor keeps `Summary::from_iter(xs)` callable without importing `FromIterator`")]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.samples.push(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator), 0 for fewer than 2 samples.
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Coefficient of variation (std/mean), 0 when mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std() / m
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4} (n={})", self.mean(), self.std(), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn mean_and_std_match_known_values() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std of this classic set is sqrt(32/7).
        assert!((s.std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Summary::from_iter([3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn cv_is_relative_spread() {
        let s = Summary::from_iter([10.0, 10.0, 10.0]);
        assert_eq!(s.cv(), 0.0);
        let t = Summary::from_iter([5.0, 15.0]);
        assert!(t.cv() > 0.0);
    }

    #[test]
    fn display_formats() {
        let s = Summary::from_iter([1.0, 3.0]);
        assert_eq!(format!("{s}"), "2.0000 ± 1.4142 (n=2)");
    }
}
