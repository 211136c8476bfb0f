//! Deterministic randomness for service-time jitter.
//!
//! The paper reports each data point as the mean of 10 runs with error bars.
//! We reproduce that by giving every simulated service a small multiplicative
//! jitter drawn from a seeded RNG; different repetition seeds yield different
//! runs, identical seeds yield bit-identical simulations.

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Multiplicative jitter source around 1.0.
///
/// Draws factors uniformly from `[1 - spread, 1 + spread]`, plus an optional
/// heavy-tail component: with probability `tail_prob`, the factor is further
/// multiplied by a value in `[1, 1 + tail_mag]`. The tail models the
/// occasional straggler (lock revocation storms, server hiccups) responsible
/// for the large variance the paper observes at high concurrency.
#[derive(Debug, Clone)]
pub struct Jitter {
    rng: SmallRng,
    spread: f64,
    tail_prob: f64,
    tail_mag: f64,
}

impl Jitter {
    /// Jitter with uniform spread only.
    pub fn uniform(seed: u64, spread: f64) -> Self {
        Self::with_tail(seed, spread, 0.0, 0.0)
    }

    /// Jitter with uniform spread and a heavy-tail straggler component.
    pub fn with_tail(seed: u64, spread: f64, tail_prob: f64, tail_mag: f64) -> Self {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
        assert!((0.0..=1.0).contains(&tail_prob));
        assert!(tail_mag >= 0.0);
        Jitter {
            rng: SmallRng::seed_from_u64(seed),
            spread,
            tail_prob,
            tail_mag,
        }
    }

    /// A jitter that always returns exactly 1.0 (for deterministic tests).
    pub fn none(seed: u64) -> Self {
        Self::uniform(seed, 0.0)
    }

    /// Draw the next jitter factor.
    pub fn factor(&mut self) -> f64 {
        let mut f = if self.spread == 0.0 {
            1.0
        } else {
            self.rng.gen_range(1.0 - self.spread..=1.0 + self.spread)
        };
        if self.tail_prob > 0.0 && self.rng.gen_bool(self.tail_prob) {
            f *= 1.0 + self.rng.gen_range(0.0..=self.tail_mag);
        }
        f
    }

    /// Apply a fresh jitter factor to a duration.
    pub fn apply(&mut self, d: SimDuration) -> SimDuration {
        d.scale(self.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Jitter::uniform(42, 0.1);
        let mut b = Jitter::uniform(42, 0.1);
        for _ in 0..100 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Jitter::uniform(1, 0.1);
        let mut b = Jitter::uniform(2, 0.1);
        let same = (0..100).filter(|_| a.factor() == b.factor()).count();
        assert!(same < 100);
    }

    #[test]
    fn factors_stay_in_range_without_tail() {
        let mut j = Jitter::uniform(7, 0.05);
        for _ in 0..1000 {
            let f = j.factor();
            assert!((0.95..=1.05).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn none_is_identity() {
        let mut j = Jitter::none(0);
        let d = SimDuration::from_secs_f64(3.0);
        assert_eq!(j.apply(d), d);
    }

    #[test]
    fn tail_inflates_some_samples() {
        let mut j = Jitter::with_tail(9, 0.0, 0.5, 10.0);
        let inflated = (0..200).filter(|_| j.factor() > 1.5).count();
        assert!(inflated > 20, "expected tail events, got {inflated}");
    }
}
