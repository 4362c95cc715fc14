//! Order statistics over latency samples.

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, which must be
/// ascending and non-empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of floats (the mean of the middle pair for even
/// counts); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples, in the same unit; 0 when empty.
pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

/// Mantissa bits of [`Hist`]'s buckets: values are kept to within
/// 1/512 (0.2%) of themselves.
const SUB_BITS: u32 = 10;
const HALF: usize = 1 << (SUB_BITS - 1);
/// Samples are clamped below 2^40 ns (about 18 minutes).
const MAX_BITS: u32 = 40;

/// A log-linear histogram of nanosecond samples in fixed memory, so the
/// benchmark's own footprint does not grow with the number of operations
/// (which would leak throughput into `peak_rss_mb`).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        // Small (66 KiB) so that it is never served by a fresh mmap whose
        // first touch would grow the resident set run by run.
        Hist { counts: vec![0; (MAX_BITS - SUB_BITS + 2) as usize * HALF], total: 0 }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        let v = v.min((1 << MAX_BITS) - 1);
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let shift = 64 - v.leading_zeros() - SUB_BITS;
        ((shift as usize) << (SUB_BITS - 1)) + (v >> shift) as usize
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < (1 << SUB_BITS) {
            return i as u64;
        }
        let shift = (i >> (SUB_BITS - 1)) - 1;
        let mantissa = (i - (shift << (SUB_BITS - 1))) as u64;
        (mantissa << shift) + ((1u64 << shift) >> 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let c = &mut self.counts[Hist::index(v)];
        *c = c.saturating_add(1);
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Hist::value(i);
            }
        }
        0
    }

    /// Samples in buckets above the `q`-quantile's bucket.
    pub fn above_quantile(&self, q: f64) -> u64 {
        let bucket = Hist::index(self.quantile(q));
        self.counts[bucket + 1..].iter().map(|&c| u64::from(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn hist_keeps_quantiles_within_its_precision() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        let mut x: u64 = 12345;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = 1_000 + (x >> 40) % 5_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let (got, want) = (h.quantile(q) as f64, quantile(&exact, q) as f64);
            assert!((got - want).abs() / want < 1.0 / 256.0, "q {q}: {got} vs {want}");
        }
        assert!(h.above_quantile(0.99) >= 900);
        for v in [0, 1, 1023, 1024, 1025, 1 << 30, (1 << 40) - 1] {
            let back = Hist::value(Hist::index(v)) as f64;
            assert!((back - v as f64).abs() <= v as f64 / 512.0 + 1.0, "{v}");
        }
        assert_eq!(Hist::index(u64::MAX), Hist::index((1 << 40) - 1));
    }
}
