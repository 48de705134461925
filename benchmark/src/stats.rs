//! Exact order statistics, the order-insensitive row digest the oracle
//! compares outputs with, and the process's peak memory.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Nearest-rank position (1-based) of percentile `p` in `n >= 1` samples.
/// Percentiles carry at most one decimal, so the rank is computed in
/// whole per-mille steps and never rounds the wrong way.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Exact nearest-rank percentile of an ascending-sorted sample: the
/// smallest value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest tail percentile an `n`-sample series supports: at least
/// ten samples must lie beyond it, or one outlier moves it.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Order-insensitive digest of a multiset of hashable items: the count
/// and the wrapping sum of per-item hashes. Two executors that return
/// the same rows in a different order digest equal; a missing, extra or
/// altered row does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: usize,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, item: &impl Hash) {
        // DefaultHasher::new() is keyed with constants, so digests
        // repeat across runs and processes.
        let mut h = DefaultHasher::new();
        item.hash(&mut h);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    pub fn of<'a, T: Hash + 'a>(items: impl IntoIterator<Item = &'a T>) -> Digest {
        let mut d = Digest::default();
        for item in items {
            d.add(item);
        }
        d
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own generator, so inputs depend on
/// `--seed` alone and not on the repository's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Nearest rank never interpolates: every result is a sample.
        assert_eq!(percentile(&[1.0, 10.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 10.0], 50.1), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![
            vec!["x".to_string()],
            vec!["y".to_string()],
            vec!["y".to_string()],
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(Digest::of(&a), Digest::of(&b));
        b.pop();
        assert_ne!(Digest::of(&a), Digest::of(&b));
        b.push(vec!["z".to_string()]);
        assert_ne!(Digest::of(&a), Digest::of(&b));
    }

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }
}
