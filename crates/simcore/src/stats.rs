//! Scalar statistics: running moments and latency histograms.

use crate::Picos;

/// Running mean/min/max/count accumulator (Welford variance).
///
/// ```
/// use simcore::Running;
/// let mut r = Running::new();
/// for x in [1.0, 2.0, 3.0] { r.push(x); }
/// assert_eq!(r.count(), 3);
/// assert_eq!(r.mean(), 2.0);
/// assert_eq!(r.min(), Some(1.0));
/// assert_eq!(r.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Reassembles an accumulator from the raw parts returned by
    /// [`raw_parts`](Running::raw_parts) — used by the run cache to restore
    /// a stored accumulator bit-for-bit (the mean and `m2` are
    /// order-dependent, so they must be persisted, not recomputed).
    pub fn from_raw_parts(
        count: u64,
        mean: f64,
        m2: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Running {
        Running {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// The complete internal state `(count, mean, m2, min, max)`; round-
    /// trips exactly through [`from_raw_parts`](Running::from_raw_parts).
    pub fn raw_parts(&self) -> (u64, f64, f64, Option<f64>, Option<f64>) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Logarithmically-bucketed histogram of durations, for packet latency.
///
/// Buckets double in width starting from `base`; values below `base` land
/// in bucket 0. Quantiles are approximated by the geometric midpoint of the
/// answering bucket, which is plenty for orders-of-magnitude latency plots.
#[derive(Debug, Clone)]
pub struct Histogram {
    base_ps: u64,
    counts: Vec<u64>,
    total: u64,
    sum_ps: u128,
}

impl Histogram {
    /// Creates a histogram with the given base bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero.
    pub fn new(base: Picos) -> Self {
        assert!(base > Picos::ZERO, "base bucket must be positive");
        Histogram {
            base_ps: base.as_ps(),
            counts: vec![0; 64],
            total: 0,
            sum_ps: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Picos) {
        let idx = Self::bucket_of(self.base_ps, d.as_ps());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ps += d.as_ps() as u128;
    }

    fn bucket_of(base: u64, ps: u64) -> usize {
        if ps < base {
            0
        } else {
            // floor(log2(ps / base)) + 1, capped to the table.
            let ratio = ps / base;
            ((63 - ratio.leading_zeros()) as usize + 1).min(63)
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean recorded duration.
    pub fn mean(&self) -> Picos {
        if self.total == 0 {
            Picos::ZERO
        } else {
            Picos::new((self.sum_ps / self.total as u128) as u64)
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, as the geometric midpoint of
    /// the bucket containing it. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Picos> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = if i == 0 { 0 } else { self.base_ps << (i - 1) };
                let hi = self.base_ps << i;
                return Some(Picos::new(lo / 2 + hi / 2));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert!((r.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_merge_equals_combined() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Running::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        // Seeded sweep against the naive mean/min/max, merged at a random
        // split point.
        let mut rng = crate::Xoshiro256::new(0x57a7);
        for _ in 0..200 {
            let n = 1 + rng.next_below(199) as usize;
            let xs: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
            let split = rng.next_below(n as u64 + 1) as usize;
            let push_all = |xs: &[f64]| {
                let mut r = Running::new();
                xs.iter().for_each(|&x| r.push(x));
                r
            };
            let all = push_all(&xs);
            let mut merged = push_all(&xs[..split]);
            merged.merge(&push_all(&xs[split..]));
            let mean = xs.iter().sum::<f64>() / n as f64;
            let tol = 1e-6 * (1.0 + mean.abs());
            assert!((all.mean() - mean).abs() < tol);
            assert!((merged.mean() - all.mean()).abs() < tol);
            assert_eq!(merged.count(), n as u64);
            assert_eq!(all.min(), xs.iter().copied().reduce(f64::min));
            assert_eq!(all.max(), xs.iter().copied().reduce(f64::max));
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&Running::new());
        assert_eq!(a.count(), before.count());
        let mut e = Running::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 3.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(Picos::from_ns(1));
        for ns in [1u64, 2, 4, 8, 16, 1000] {
            h.record(Picos::from_ns(ns));
        }
        assert_eq!(h.count(), 6);
        assert!(h.mean() > Picos::from_ns(100));
        let med = h.quantile(0.5).unwrap();
        assert!(med >= Picos::from_ns(1) && med <= Picos::from_ns(16));
        assert!(h.quantile(1.0).unwrap() >= Picos::from_ns(512));
        // Quantiles bracket arbitrary data: the single 1 ps sample a
        // property run once shrank a failure to, then a seeded sweep.
        let mut rng = crate::Xoshiro256::new(0x4157);
        let mut cases = vec![vec![1u64]];
        cases.extend((0..200).map(|_| {
            let n = 1 + rng.next_below(299);
            (0..n).map(|_| 1 + rng.next_below(9_999_999)).collect()
        }));
        for ds in cases {
            let mut h = Histogram::new(Picos::from_ns(1));
            ds.iter().for_each(|&d| h.record(Picos::new(d)));
            assert_eq!(h.count(), ds.len() as u64);
            let (min, max) = (*ds.iter().min().unwrap(), *ds.iter().max().unwrap());
            // Bucket midpoints are within a factor of 2 of the true
            // extremes — except inside bucket 0, which spans [0, base):
            // its midpoint (500 ps here) can exceed tiny minima.
            assert!(h.quantile(0.0).unwrap().as_ps() <= min.saturating_mul(2).max(500));
            assert!(h.quantile(1.0).unwrap().as_ps().saturating_mul(2) >= max);
            assert!((min..=max).contains(&h.mean().as_ps()));
        }
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = Histogram::new(Picos::from_ns(10));
        assert!(h.quantile(0.5).is_none());
        assert_eq!(h.mean(), Picos::ZERO);
    }

    #[test]
    fn histogram_small_values_bucket_zero() {
        let mut h = Histogram::new(Picos::from_ns(100));
        h.record(Picos::from_ns(3));
        h.record(Picos::ZERO);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.9).unwrap() < Picos::from_ns(100));
    }
}
