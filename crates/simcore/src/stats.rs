//! Scalar statistics: running moments.

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
}
