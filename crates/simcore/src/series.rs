//! Time-series recording primitives for the paper's plots.

use crate::Picos;

/// One rendered point of a series: bin start time and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Start of the bin, in microseconds.
    pub t_us: f64,
    /// Value (meaning depends on the series: bytes/ns, a count, ...).
    pub value: f64,
}

/// Accumulates scalar contributions into fixed-width time bins — used for
/// the throughput-vs-time curves (Figures 2, 3, 6): each delivered packet
/// adds its byte count to the bin of its delivery time, and rendering
/// divides by the bin width to obtain bytes/ns.
///
/// ```
/// use simcore::{BinnedSeries, Picos};
/// let mut s = BinnedSeries::new(Picos::from_us(5));
/// s.add(Picos::from_us(1), 64.0);
/// s.add(Picos::from_us(2), 64.0);
/// s.add(Picos::from_us(7), 64.0);
/// let pts = s.rate_per_ns(Picos::from_us(10));
/// assert_eq!(pts.len(), 2);
/// assert!((pts[0].value - 128.0 / 5_000.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin: Picos,
    sums: Vec<f64>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: Picos) -> Self {
        assert!(bin > Picos::ZERO, "bin width must be positive");
        BinnedSeries {
            bin,
            sums: Vec::new(),
        }
    }

    /// Bin width.
    pub fn bin(&self) -> Picos {
        self.bin
    }

    /// Adds `amount` at time `t`.
    pub fn add(&mut self, t: Picos, amount: f64) {
        let idx = t.div_duration(self.bin) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += amount;
    }

    /// Total accumulated across all bins.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }

    /// Allocated bin slots (capacity of the backing vector) — memory
    /// accounting for `peak_bytes_estimate`.
    pub fn bin_slots(&self) -> usize {
        self.sums.capacity()
    }

    /// Renders bins up to `horizon` as raw per-bin sums.
    pub fn sums_until(&self, horizon: Picos) -> Vec<SeriesPoint> {
        let nbins = horizon.div_duration(self.bin) as usize;
        (0..nbins)
            .map(|i| SeriesPoint {
                t_us: (self.bin * i as u64).as_us_f64(),
                value: self.sums.get(i).copied().unwrap_or(0.0),
            })
            .collect()
    }

    /// Renders bins up to `horizon` as rates in units-per-nanosecond
    /// (e.g. bytes/ns when `add` was fed byte counts).
    pub fn rate_per_ns(&self, horizon: Picos) -> Vec<SeriesPoint> {
        let ns_per_bin = self.bin.as_ns_f64();
        self.sums_until(horizon)
            .into_iter()
            .map(|p| SeriesPoint {
                t_us: p.t_us,
                value: p.value / ns_per_bin,
            })
            .collect()
    }
}

/// Samples a gauge (an instantaneous quantity such as "SAQs in use") and
/// records, per fixed-width bin, the **maximum** observed value — used for
/// the SAQ-utilization curves (Figures 4, 5, 6).
///
/// Between updates the gauge is assumed to hold its value, so a bin with no
/// update reports the value carried over from the previous update.
#[derive(Debug, Clone)]
pub struct GaugeSeries {
    bin: Picos,
    maxima: Vec<f64>,
    current: f64,
    last_bin_touched: usize,
}

impl GaugeSeries {
    /// Creates a gauge series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: Picos) -> Self {
        assert!(bin > Picos::ZERO, "bin width must be positive");
        GaugeSeries {
            bin,
            maxima: Vec::new(),
            current: 0.0,
            last_bin_touched: 0,
        }
    }

    /// Sets the gauge to `value` at time `t`.
    pub fn set(&mut self, t: Picos, value: f64) {
        let idx = t.div_duration(self.bin) as usize;
        // Carry the held value into any bins skipped since the last update.
        self.fill_through(idx);
        self.maxima[idx] = self.maxima[idx].max(value);
        self.current = value;
        self.last_bin_touched = idx;
    }

    /// Current gauge value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Allocated bin slots (capacity of the backing vector) — memory
    /// accounting for `peak_bytes_estimate`.
    pub fn bin_slots(&self) -> usize {
        self.maxima.capacity()
    }

    fn fill_through(&mut self, idx: usize) {
        if idx >= self.maxima.len() {
            let held = self.current;
            let start = self.maxima.len();
            self.maxima.resize(idx + 1, 0.0);
            for b in start..=idx {
                self.maxima[b] = held;
            }
            // Bins between last touched and start were created earlier;
            // nothing more to do.
        }
        for b in (self.last_bin_touched + 1)..=idx {
            if self.maxima[b] < self.current {
                self.maxima[b] = self.current;
            }
        }
    }

    /// Renders per-bin maxima up to `horizon`, carrying the held value into
    /// trailing bins that saw no update.
    pub fn maxima_until(&self, horizon: Picos) -> Vec<SeriesPoint> {
        let nbins = horizon.div_duration(self.bin) as usize;
        (0..nbins)
            .map(|i| {
                let value = if i < self.maxima.len() {
                    let mut v = self.maxima[i];
                    if i > self.last_bin_touched {
                        v = v.max(self.current);
                    }
                    v
                } else {
                    self.current
                };
                SeriesPoint {
                    t_us: (self.bin * i as u64).as_us_f64(),
                    value,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn binned_accumulates_by_bin() {
        let mut s = BinnedSeries::new(Picos::from_us(10));
        s.add(Picos::from_us(0), 1.0);
        s.add(Picos::from_us(9), 2.0);
        s.add(Picos::from_us(10), 4.0);
        s.add(Picos::from_us(35), 8.0);
        let pts = s.sums_until(Picos::from_us(40));
        let vals: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![3.0, 4.0, 0.0, 8.0]);
        assert_eq!(s.total(), 15.0);
    }

    #[test]
    fn rate_divides_by_ns() {
        let mut s = BinnedSeries::new(Picos::from_us(1));
        s.add(Picos::ZERO, 2_000.0); // 2000 bytes in 1000 ns = 2 bytes/ns
        let pts = s.rate_per_ns(Picos::from_us(1));
        assert!((pts[0].value - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_panics() {
        let _ = BinnedSeries::new(Picos::ZERO);
    }

    #[test]
    fn gauge_tracks_bin_maxima() {
        let mut g = GaugeSeries::new(Picos::from_us(10));
        g.set(Picos::from_us(1), 3.0);
        g.set(Picos::from_us(2), 1.0); // max in bin 0 stays 3
        g.set(Picos::from_us(25), 5.0); // bin 1 carries held value 1, bin 2 -> 5
        let pts = g.maxima_until(Picos::from_us(50));
        let vals: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![3.0, 1.0, 5.0, 5.0, 5.0]);
        assert_eq!(g.current(), 5.0);
    }

    #[test]
    fn gauge_carries_value_across_silent_bins() {
        let mut g = GaugeSeries::new(Picos::from_us(5));
        g.set(Picos::ZERO, 2.0);
        // No updates for a long time; every bin should report 2.
        let pts = g.maxima_until(Picos::from_us(25));
        assert!(pts.iter().all(|p| p.value == 2.0));
    }

    #[test]
    fn gauge_drop_is_visible_next_bin() {
        let mut g = GaugeSeries::new(Picos::from_us(5));
        g.set(Picos::from_us(1), 8.0);
        g.set(Picos::from_us(4), 0.0);
        let pts = g.maxima_until(Picos::from_us(15));
        assert_eq!(pts[0].value, 8.0); // peak within the bin
        assert_eq!(pts[1].value, 0.0); // dropped afterwards
        assert_eq!(pts[2].value, 0.0);
    }

    /// Seeded property: per-bin sums and the total agree with a plain
    /// array indexed by `t / bin`, for unordered samples (integer
    /// amounts, so every f64 sum is exact whatever the order).
    #[test]
    fn binned_series_matches_naive() {
        let bin = Picos::from_ns(1000);
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut s = BinnedSeries::new(bin);
            let mut naive = [0.0f64; 101];
            let mut total = 0.0;
            for _ in 0..rng.next_u64() % 200 {
                let t_ns = rng.next_u64() % 100_000;
                let v = (1 + rng.next_u64() % 999) as f64;
                s.add(Picos::from_ns(t_ns), v);
                naive[(t_ns / 1000) as usize] += v;
                total += v;
            }
            let rendered = s.sums_until(Picos::from_ns(101_000));
            let values: Vec<f64> = rendered.iter().map(|p| p.value).collect();
            assert_eq!(values, naive, "seed {seed}");
            assert_eq!(rendered[100].t_us, 100.0);
            assert_eq!(s.total(), total, "seed {seed}");
        }
    }

    /// Seeded property: per-bin maxima agree with replaying the step
    /// function — each bin reports the larger of the value held on entry
    /// and every update inside it, and bins past the last update report
    /// the held value.
    #[test]
    fn gauge_series_matches_naive() {
        let bin = Picos::from_ns(1000);
        let nbins = 60;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut updates: Vec<(u64, f64)> = (0..1 + rng.next_u64() % 99)
                .map(|_| (rng.next_u64() % 50_000, (rng.next_u64() % 100) as f64))
                .collect();
            updates.sort_by_key(|&(t, _)| t);
            let mut g = GaugeSeries::new(bin);
            for &(t_ns, v) in &updates {
                g.set(Picos::from_ns(t_ns), v);
            }
            let mut naive = Vec::with_capacity(nbins);
            let mut held = 0.0f64;
            let mut next = 0;
            for b in 0..nbins as u64 {
                let mut m = held;
                while next < updates.len() && updates[next].0 < (b + 1) * 1000 {
                    held = updates[next].1;
                    m = m.max(held);
                    next += 1;
                }
                naive.push(m);
            }
            let rendered = g.maxima_until(bin * nbins as u64);
            let values: Vec<f64> = rendered.iter().map(|p| p.value).collect();
            assert_eq!(values, naive, "seed {seed}");
        }
    }
}
