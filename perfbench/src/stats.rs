//! Pure helpers: order statistics, the tail-percentile rule, the
//! metric-name grammar, and the output digest.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried by [`tail_percentile`], highest first.
const TAIL_LADDER: [f64; 11] = [
    99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0,
];

/// Minimum number of samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Nearest rank of percentile `p` among `n` samples: the smallest
/// 1-based rank `k` with `k/n >= p/100`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond its nearest rank, or `None`
/// when even the median leaves fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| {
        let rank = nearest_rank(p, n);
        rank >= 1 && n - rank >= TAIL_BEYOND
    })
}

/// The nearest-rank `p`-th percentile of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(p, v.len()).clamp(1, v.len()) - 1]
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// FNV-1a 64 over the deterministic outputs of a replay. Kept local so
/// the benchmark's identity checks do not depend on the engine's codec.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Exact: folds the bit pattern, so any change in any digit shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), 10);

        // 1000 samples: p99 has 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000), Some(99.0));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);

        // 20 samples: only the median qualifies; 19 have no tail.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn tail_never_reports_a_rank_with_fewer_than_ten_beyond() {
        for n in 20..600u32 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let p = tail_percentile(v.len()).unwrap();
            let beyond = v.iter().filter(|&&x| x > percentile(&v, p)).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "core.steps",
            "9lives",
            "a-b_c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "req/s", "%", "count", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let run = |xs: &[f64]| {
            let mut d = Digest::default();
            xs.iter().for_each(|&x| d.f64(x));
            d.finish()
        };
        assert_eq!(run(&[1.0, 2.0]), run(&[1.0, 2.0]));
        assert_ne!(run(&[1.0, 2.0]), run(&[2.0, 1.0]));
        assert_ne!(run(&[0.1 + 0.2]), run(&[0.3]));
        assert_ne!(run(&[0.0]), run(&[-0.0]));
        assert_ne!(run(&[]), run(&[0.0]));
    }
}
