//! Time-series recording primitives for the paper's plots.
//!
//! A series is one value per fixed-width bin; bin `i` starts at `i · bin`.
//! The recorders keep values only — the time axis is the bin width — and
//! grow a bin at a time by [`growth`], so a series reserves within a
//! quarter of the bins it has touched.

use crate::{growth, Picos};

/// One rendered point of a series: bin start time and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Start of the bin, in microseconds.
    pub t_us: f64,
    /// Value (meaning depends on the series: bytes/ns, a count, ...).
    pub value: f64,
}

impl SeriesPoint {
    /// Renders per-bin `values` on the time axis of `bin`-wide bins: point
    /// `i` starts at `i · bin`. Every rendered series takes its `t_us` from
    /// here, so a series stored as values alone renders back bit for bit.
    ///
    /// ```
    /// use simcore::{Picos, SeriesPoint};
    /// let pts = SeriesPoint::on_axis(Picos::from_ns(2500), [7.0, 9.0]);
    /// assert_eq!((pts[1].t_us, pts[1].value), (2.5, 9.0));
    /// ```
    pub fn on_axis(bin: Picos, values: impl IntoIterator<Item = f64>) -> Vec<SeriesPoint> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, value)| SeriesPoint {
                t_us: (bin * i as u64).as_us_f64(),
                value,
            })
            .collect()
    }
}

/// Extends `bins` to `len` slots of `fill`, reserving by [`growth`] when it
/// is full.
fn extend_to<T: Copy>(bins: &mut Vec<T>, len: usize, fill: T) {
    if len > bins.capacity() {
        bins.reserve_exact((len - bins.len()).max(growth(bins.len())));
    }
    bins.resize(len, fill);
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
            extend_to(&mut self.sums, idx + 1, 0.0);
        }
        self.sums[idx] += amount;
    }

    /// Total accumulated across all bins.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }

    /// Bytes reserved for the bins (by capacity) — memory accounting for
    /// `peak_bytes_estimate`.
    pub fn backing_bytes(&self) -> usize {
        self.sums.capacity() * std::mem::size_of::<f64>()
    }

    /// Renders bins up to `horizon` as raw per-bin sums.
    pub fn sums_until(&self, horizon: Picos) -> Vec<SeriesPoint> {
        SeriesPoint::on_axis(self.bin, self.bins_until(horizon))
    }

    /// Renders bins up to `horizon` as rates in units-per-nanosecond
    /// (e.g. bytes/ns when `add` was fed byte counts).
    pub fn rate_per_ns(&self, horizon: Picos) -> Vec<SeriesPoint> {
        let ns_per_bin = self.bin.as_ns_f64();
        SeriesPoint::on_axis(self.bin, self.bins_until(horizon).map(|v| v / ns_per_bin))
    }

    fn bins_until(&self, horizon: Picos) -> impl Iterator<Item = f64> + '_ {
        let nbins = horizon.div_duration(self.bin) as usize;
        (0..nbins).map(|i| self.sums.get(i).copied().unwrap_or(0.0))
    }
}

/// Samples a gauge (an instantaneous count such as "SAQs in use") and
/// records, per fixed-width bin, the **maximum** observed value — used for
/// the SAQ-utilization curves (Figures 4, 5, 6). A bin costs one `u32`.
///
/// Between updates the gauge is assumed to hold its value, so a bin with no
/// update reports the value carried over from the previous update.
///
/// ```
/// use simcore::{GaugeSeries, Picos};
/// let mut g = GaugeSeries::new(Picos::from_us(10));
/// g.set(Picos::from_us(1), 3);
/// g.set(Picos::from_us(2), 1);
/// g.set(Picos::from_us(25), 5);
/// assert_eq!(g.maxima_until(Picos::from_us(40)), [3, 1, 5, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct GaugeSeries {
    bin: Picos,
    maxima: Vec<u32>,
    current: u32,
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
            current: 0,
        }
    }

    /// Sets the gauge to `value` at time `t`. Times must not decrease from
    /// one call to the next (a simulation's clock does not).
    pub fn set(&mut self, t: Picos, value: u32) {
        let idx = t.div_duration(self.bin) as usize;
        if idx >= self.maxima.len() {
            // The bins skipped since the last update held its value.
            extend_to(&mut self.maxima, idx + 1, self.current);
        }
        let max = &mut self.maxima[idx];
        *max = (*max).max(value);
        self.current = value;
    }

    /// Bin width.
    pub fn bin(&self) -> Picos {
        self.bin
    }

    /// Current gauge value.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Bytes reserved for the bins (by capacity) — memory accounting for
    /// `peak_bytes_estimate`.
    pub fn backing_bytes(&self) -> usize {
        self.maxima.capacity() * std::mem::size_of::<u32>()
    }

    /// Per-bin maxima up to `horizon`, carrying the held value into
    /// trailing bins that saw no update.
    pub fn maxima_until(&self, horizon: Picos) -> Vec<u32> {
        let nbins = horizon.div_duration(self.bin) as usize;
        (0..nbins)
            .map(|i| self.maxima.get(i).copied().unwrap_or(self.current))
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
        g.set(Picos::from_us(1), 3);
        g.set(Picos::from_us(2), 1); // max in bin 0 stays 3
        g.set(Picos::from_us(25), 5); // bin 1 carries held value 1, bin 2 -> 5
        assert_eq!(g.maxima_until(Picos::from_us(50)), [3, 1, 5, 5, 5]);
        assert_eq!(g.current(), 5);
    }

    #[test]
    fn gauge_carries_value_across_silent_bins() {
        let mut g = GaugeSeries::new(Picos::from_us(5));
        g.set(Picos::ZERO, 2);
        // No updates for a long time; every bin should report 2.
        assert_eq!(g.maxima_until(Picos::from_us(25)), [2; 5]);
    }

    #[test]
    fn gauge_drop_is_visible_next_bin() {
        let mut g = GaugeSeries::new(Picos::from_us(5));
        g.set(Picos::from_us(1), 8);
        g.set(Picos::from_us(4), 0);
        // Peak within the bin, dropped afterwards.
        assert_eq!(g.maxima_until(Picos::from_us(15)), [8, 0, 0]);
    }

    /// Both recorders grow by the quarter rule and count their bins by
    /// element size: after 20,000 one-bin steps a gauge reserves within a
    /// quarter of its 20,000 `u32`s, where doubling would hold 32,768.
    #[test]
    fn series_grow_by_a_quarter_and_count_their_element_size() {
        let bin = Picos::from_us(1);
        let (mut g, mut b) = (GaugeSeries::new(bin), BinnedSeries::new(bin));
        for i in 0..20_000u64 {
            g.set(bin * i, (i % 7) as u32);
            b.add(bin * i, 1.0);
        }
        let n = 20_000;
        for (bytes, size) in [(g.backing_bytes(), 4), (b.backing_bytes(), 8)] {
            assert!(
                (n * size..=(n + growth(n)) * size).contains(&bytes),
                "{bytes}"
            );
        }
        // A jump reserves what it needs, not a quarter more.
        let mut g = GaugeSeries::new(bin);
        g.set(bin * 999, 1);
        assert_eq!(g.backing_bytes(), 1000 * 4);
    }

    #[test]
    fn on_axis_matches_the_rendered_series() {
        let bin = Picos::new(1_300_001);
        let mut s = BinnedSeries::new(bin);
        s.add(bin * 3, 5.0);
        let sums = s.sums_until(bin * 40);
        let values = sums.iter().map(|p| p.value);
        assert_eq!(SeriesPoint::on_axis(bin, values), sums);
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
            let mut updates: Vec<(u64, u32)> = (0..1 + rng.next_u64() % 99)
                .map(|_| (rng.next_u64() % 50_000, (rng.next_u64() % 100) as u32))
                .collect();
            updates.sort_by_key(|&(t, _)| t);
            let mut g = GaugeSeries::new(bin);
            for &(t_ns, v) in &updates {
                g.set(Picos::from_ns(t_ns), v);
            }
            let mut naive = Vec::with_capacity(nbins);
            let mut held = 0u32;
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
            assert_eq!(g.maxima_until(bin * nbins as u64), naive, "seed {seed}");
        }
    }
}
