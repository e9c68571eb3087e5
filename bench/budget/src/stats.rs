//! Order statistics, the FNV-64 fingerprint, and a tiny seeded generator.
//!
//! Percentiles are nearest-rank over the raw samples (no interpolation, no
//! histogram buckets), and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it — the rule that decides whether a
//! workload is long enough to quote a p99 at all.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is quoted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p * n)` (1-based). `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`nearest_rank`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond the rank — a p99 needs 1 000 samples, a p50 needs 20.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Median by nearest rank (sorts in place). `None` on an empty slice.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    nearest_rank(values, 0.5)
}

/// p50 / p99 / count of one latency series (milliseconds in, milliseconds out).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

/// Summarize a latency series under the [`MIN_BEYOND`] rule.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut samples = samples.to_vec();
    samples.sort_by(f64::total_cmp);
    Summary {
        count: samples.len(),
        p50: supported_percentile(&samples, 0.50),
        p99: supported_percentile(&samples, 0.99),
    }
}

/// FNV-1a, 64 bit: the corpus fingerprint and the per-read content check.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// SplitMix64: the benchmark's own seeded generator for sampling decisions
/// (which version to read, which pairs to check). Corpus *content* comes
/// from xysim; this only picks indices, so no product crate is involved.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for the
    /// index ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mix a stream of small integers into one seed (document, version, …).
/// Every part passes through the full mixer before the next is folded in, so
/// nearby inputs — seed 3 document 1, seed 1 document 3 — share nothing.
pub fn mix_seed(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x5eed, |acc, &part| SplitMix::new(acc ^ part).next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let s = series(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&series(1000), 0.99), Some(990.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1 000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(supported_percentile(&series(1000), 0.99), Some(990.0));
        // One sample fewer leaves rank 990 of 999: nine beyond.
        assert_eq!(supported_percentile(&series(999), 0.99), None);
        // The median needs twenty samples for the same reason.
        assert_eq!(supported_percentile(&series(20), 0.5), Some(10.0));
        assert_eq!(supported_percentile(&series(19), 0.5), None);
    }

    #[test]
    fn summary_drops_the_unsupported_tail_only() {
        let s = summarize(&series(500).into_iter().rev().collect::<Vec<_>>());
        assert_eq!(s.count, 500);
        assert_eq!(s.p50, Some(250.0));
        assert_eq!(s.p99, None);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let a: Vec<usize> = {
            let mut r = SplitMix::new(7);
            (0..50).map(|_| r.below(13)).collect()
        };
        let b: Vec<usize> = {
            let mut r = SplitMix::new(7);
            (0..50).map(|_| r.below(13)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 13));
        assert_ne!(mix_seed(&[1, 2]), mix_seed(&[2, 1]));
        assert_ne!(mix_seed(&[3, 1]), mix_seed(&[1, 3]));
        assert_ne!(mix_seed(&[201, 0]), mix_seed(&[203, 2]));
    }
}
