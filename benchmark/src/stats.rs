//! Small statistics and process helpers the workloads share.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A bounded pool of latency samples, in nanoseconds.
///
/// Percentiles come from an exact sort of what is held. The pool holds
/// every sample up to its capacity and a uniform reservoir of them after
/// that, so a longer run neither grows the process (peak RSS is one of
/// the reported metrics) nor weights late rounds differently.
pub struct Samples {
    held: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Samples {
    /// A pool of at most `cap` samples, allocated and touched up front.
    pub fn new(cap: usize) -> Samples {
        let mut held = vec![1u64; cap];
        held.clear();
        Samples {
            held,
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.held.len() < self.cap {
            self.held.push(ns);
            return;
        }
        if self.cap == 0 {
            return;
        }
        // Algorithm R: keep the new sample with probability cap/seen.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if (slot as usize) < self.cap {
            self.held[slot as usize] = ns;
        }
    }

    pub fn extend(&mut self, other: &[u64]) {
        for &ns in other {
            self.push(ns);
        }
    }

    /// Samples offered so far (held or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// `(p50, p99)` in microseconds, by rank in an exact sort. Under a
    /// hundred samples the 99th percentile is the maximum.
    pub fn p50_p99_us(&mut self) -> (f64, f64) {
        assert!(!self.held.is_empty(), "no latency samples");
        self.held.sort_unstable();
        let n = self.held.len();
        let at = |q: f64| self.held[((n as f64 * q) as usize).min(n - 1)] as f64 / 1e3;
        (at(0.50), at(0.99))
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the load generators may use: the machine's, at most `want`.
pub fn threads(want: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, want)
}

/// SplitMix64: the benchmark's seed expander (payloads, name salts).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` pseudo-random bytes from `seed`.
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = Samples::new(1000);
        s.extend(&(1..=1000u64).map(|i| i * 1000).collect::<Vec<_>>());
        assert_eq!(s.p50_p99_us(), (501.0, 991.0));
    }

    #[test]
    fn reservoir_stays_bounded_and_representative() {
        let mut s = Samples::new(500);
        for i in 0..100_000u64 {
            s.push(i);
        }
        assert_eq!(s.seen(), 100_000);
        assert_eq!(s.held.len(), 500);
        let (p50, _) = s.p50_p99_us();
        assert!(
            (35.0..65.0).contains(&p50),
            "p50 {p50} of a uniform 0..100 us"
        );
    }

    #[test]
    fn seeded_bytes_repeat_per_seed() {
        assert_eq!(seeded_bytes(7, 100), seeded_bytes(7, 100));
        assert_ne!(seeded_bytes(7, 100), seeded_bytes(8, 100));
        assert!(peak_rss_mb() > 0.0 && threads(2) >= 1);
    }
}
