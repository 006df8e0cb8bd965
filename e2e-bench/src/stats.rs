//! The benchmark's own statistics: percentiles under the
//! ten-samples-beyond rule, sample counts, and the metric-name grammar.

/// Percentiles a timing may be summarised by, highest first.
const TAIL_LADDER: [u32; 3] = [99, 90, 50];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of ascending `sorted` (`p` in 1..=100).
///
/// # Panics
///
/// Panics on an empty slice or an out-of-range `p`.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (upper median for even counts, matching
/// [`percentile`] at 50).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// A set of timing samples of one kind (cell wall times, request latencies).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank `p`-th percentile.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn pct(&self, p: u32) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

/// Whether `name` is a valid metric or workload name: it starts with an
/// ASCII letter or digit, has at most 64 characters, and uses only
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 0..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(101, 90), 10);
        assert_eq!(beyond(110, 90), 11);
        assert_eq!(beyond(1, 50), 0);
    }

    #[test]
    fn samples_report_their_count() {
        let mut s = Samples::default();
        assert_eq!(s.len(), 0);
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.pct(50), 2.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["setup_s", "tensor.conv2d_fwd_ms", "rn20-cell", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".x", "a b", "x/y", "ünï", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
