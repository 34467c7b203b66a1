//! # metrics — probes and reports for the RECN experiments
//!
//! Thin measurement layer between the `fabric` simulator and the
//! `experiments` harness:
//!
//! * [`Probe`] — a [`fabric::NetObserver`] that records everything the
//!   paper plots: delivered-throughput time series (Figures 2, 3, 6) and
//!   the SAQ census series (max per ingress port, max per egress port,
//!   network total — Figures 4, 5, 6) as one [`SaqSeries`]. Results are
//!   read back through the shared [`ProbeHandle`] after the run.
//! * [`report`] — plain-text table / CSV rendering of labeled series, in
//!   the shape of the paper's figures (one time column, one column per
//!   mechanism).
//!
//! ```
//! use metrics::Probe;
//! use simcore::Picos;
//!
//! let (probe, handle) = Probe::new(Picos::from_us(5));
//! // ... Network::new(..., Box::new(probe)) ... run ...
//! let series = handle.throughput(Picos::from_us(100));
//! assert_eq!(series.len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::cell::RefCell;
use std::rc::Rc;

use fabric::{HookSet, NetObserver, Packet};
use report::Labeled;
use simcore::{BinnedSeries, GaugeSeries, Picos, SeriesPoint};
use topology::HostId;

/// Per-flow completion-time summary for closed-loop transport workloads.
///
/// Quantiles use the nearest-rank definition on the sorted completion
/// times, so every reported value is an actual observed FCT and the
/// summary is bit-deterministic for a deterministic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctSummary {
    /// Flows that completed.
    pub flows: u64,
    /// Median completion time, ns.
    pub p50_ns: f64,
    /// 99th-percentile completion time, ns.
    pub p99_ns: f64,
    /// Slowest completion time, ns.
    pub max_ns: f64,
}

impl FctSummary {
    /// Summarizes a set of completion times; `None` when no flow finished.
    pub fn from_fcts(fcts: &[Picos]) -> Option<FctSummary> {
        if fcts.is_empty() {
            return None;
        }
        let mut ns: Vec<f64> = fcts.iter().map(|p| p.as_ns_f64()).collect();
        ns.sort_by(f64::total_cmp);
        let rank = |q: f64| ns[((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len()) - 1];
        Some(FctSummary {
            flows: ns.len() as u64,
            p50_ns: rank(0.50),
            p99_ns: rank(0.99),
            max_ns: *ns.last().expect("nonempty"),
        })
    }
}

/// The SAQ census per bin (Figures 4–6): the most SAQs at any switch input
/// port, at any switch output port, and in the whole network, each the
/// maximum its bin saw (zeros for schemes without SAQs). The three share one
/// time axis — bin `i` starts at `i · bin` — so a bin costs one `u32` per
/// series; [`points`](Self::points) renders a series for a figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaqSeries {
    /// Bin width.
    pub bin: Picos,
    /// Most SAQs at any switch input port, per bin.
    pub ingress: Vec<u32>,
    /// Most SAQs at any switch output port, per bin.
    pub egress: Vec<u32>,
    /// Network-wide SAQ total, per bin.
    pub total: Vec<u32>,
}

impl SaqSeries {
    /// `values` — one of the three series — as points on the bin axis.
    pub fn points(&self, values: &[u32]) -> Vec<SeriesPoint> {
        SeriesPoint::on_axis(self.bin, values.iter().map(|&v| f64::from(v)))
    }

    /// The three curves as the figures label them: `max_ingress`,
    /// `max_egress`, `total`.
    pub fn labeled(&self) -> Vec<Labeled> {
        [
            ("max_ingress", &self.ingress),
            ("max_egress", &self.egress),
            ("total", &self.total),
        ]
        .into_iter()
        .map(|(label, values)| Labeled::new(label, self.points(values)))
        .collect()
    }
}

/// Shared measurement state filled by a [`Probe`] during a run.
#[derive(Debug)]
pub struct ProbeState {
    delivered: BinnedSeries,
    saq_max_ingress: GaugeSeries,
    saq_max_egress: GaugeSeries,
    saq_total: GaugeSeries,
    peak_saq_total: u32,
    peak_saq_ingress: u32,
    peak_saq_egress: u32,
    root_events: Vec<(Picos, usize, usize, bool)>,
    fcts: Vec<Picos>,
}

/// Read side of a probe; alive after the network consumed the observer.
#[derive(Debug, Clone)]
pub struct ProbeHandle(Rc<RefCell<ProbeState>>);

/// The observer half: install into [`fabric::Network`] via
/// `Box::new(probe)`.
#[derive(Debug)]
pub struct Probe(Rc<RefCell<ProbeState>>);

impl Probe {
    /// Creates a probe with the given series bin width (the paper uses a
    /// few microseconds per point).
    pub fn new(bin: Picos) -> (Probe, ProbeHandle) {
        let state = Rc::new(RefCell::new(ProbeState {
            delivered: BinnedSeries::new(bin),
            saq_max_ingress: GaugeSeries::new(bin),
            saq_max_egress: GaugeSeries::new(bin),
            saq_total: GaugeSeries::new(bin),
            peak_saq_total: 0,
            peak_saq_ingress: 0,
            peak_saq_egress: 0,
            root_events: Vec::new(),
            fcts: Vec::new(),
        }));
        (Probe(state.clone()), ProbeHandle(state))
    }
}

impl NetObserver for Probe {
    /// The four hooks below: a probe-only run pays for no per-hop hook.
    /// Source drops are counted by `NetCounters`, not here.
    fn interests(&self) -> HookSet {
        HookSet::NONE
            .on_delivered()
            .on_saq_census()
            .on_root_change()
            .on_flow_complete()
    }

    fn on_delivered(&mut self, now: Picos, pkt: &Packet) {
        self.0.borrow_mut().delivered.add(now, pkt.size as f64);
    }

    fn on_saq_census(&mut self, now: Picos, max_ingress: u32, max_egress: u32, total: u32) {
        let mut s = self.0.borrow_mut();
        s.saq_max_ingress.set(now, max_ingress);
        s.saq_max_egress.set(now, max_egress);
        s.saq_total.set(now, total);
        s.peak_saq_total = s.peak_saq_total.max(total);
        s.peak_saq_ingress = s.peak_saq_ingress.max(max_ingress);
        s.peak_saq_egress = s.peak_saq_egress.max(max_egress);
    }

    fn on_root_change(&mut self, now: Picos, switch: usize, port: usize, active: bool) {
        self.0
            .borrow_mut()
            .root_events
            .push((now, switch, port, active));
    }

    fn on_flow_complete(&mut self, _now: Picos, _src: HostId, _dst: HostId, fct: Picos) {
        self.0.borrow_mut().fcts.push(fct);
    }
}

impl ProbeHandle {
    /// Delivered throughput in bytes/ns per bin, up to `horizon`.
    pub fn throughput(&self, horizon: Picos) -> Vec<SeriesPoint> {
        self.0.borrow().delivered.rate_per_ns(horizon)
    }

    /// Total bytes delivered.
    pub fn delivered_bytes(&self) -> f64 {
        self.0.borrow().delivered.total()
    }

    /// The SAQ census series up to `horizon`.
    pub fn saq_series(&self, horizon: Picos) -> SaqSeries {
        let s = self.0.borrow();
        SaqSeries {
            bin: s.saq_total.bin(),
            ingress: s.saq_max_ingress.maxima_until(horizon),
            egress: s.saq_max_egress.maxima_until(horizon),
            total: s.saq_total.maxima_until(horizon),
        }
    }

    /// Estimated bytes of backing storage behind the probe's state —
    /// simulation-model accounting for `peak_bytes_estimate`. The series
    /// part is one `f64` (throughput) and three `u32`s (SAQ census) per bin
    /// touched, so it grows with `horizon / bin` and not with the fabric.
    pub fn backing_bytes(&self) -> u64 {
        let s = self.0.borrow();
        let series = s.delivered.backing_bytes()
            + s.saq_max_ingress.backing_bytes()
            + s.saq_max_egress.backing_bytes()
            + s.saq_total.backing_bytes();
        (series
            + s.root_events.capacity() * std::mem::size_of::<(Picos, usize, usize, bool)>()
            + s.fcts.capacity() * std::mem::size_of::<Picos>()) as u64
    }

    /// Flow-completion-time summary across all completed flows (`None`
    /// when the run had none).
    pub fn fct_summary(&self) -> Option<FctSummary> {
        FctSummary::from_fcts(&self.0.borrow().fcts)
    }

    /// Highest values observed over the whole run:
    /// `(max ingress, max egress, max total)`.
    pub fn saq_peaks(&self) -> (u32, u32, u32) {
        let s = self.0.borrow();
        (s.peak_saq_ingress, s.peak_saq_egress, s.peak_saq_total)
    }

    /// Chronological root activations/clears: `(time, switch, port, active)`.
    pub fn root_events(&self) -> Vec<(Picos, usize, usize, bool)> {
        self.0.borrow().root_events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{HostId, Route};

    fn pkt(size: u32) -> Packet {
        Packet {
            id: 0,
            src: HostId::new(0),
            dst: HostId::new(1),
            size,
            route: Route::to_host(HostId::new(1), 4, 2),
            injected_at: Picos::ZERO,
            flow_seq: 0,
        }
    }

    #[test]
    fn probe_accumulates_throughput() {
        let (mut probe, handle) = Probe::new(Picos::from_us(1));
        let p = pkt(1000);
        probe.on_delivered(Picos::from_ns(100), &p);
        probe.on_delivered(Picos::from_ns(200), &p);
        let series = handle.throughput(Picos::from_us(2));
        assert_eq!(series.len(), 2);
        assert!((series[0].value - 2.0).abs() < 1e-12, "2000 B in 1000 ns");
        assert_eq!(series[1].value, 0.0);
        assert_eq!(handle.delivered_bytes(), 2000.0);
    }

    #[test]
    fn probe_tracks_saq_peaks() {
        let (mut probe, handle) = Probe::new(Picos::from_us(1));
        probe.on_saq_census(Picos::from_ns(10), 2, 1, 5);
        probe.on_saq_census(Picos::from_ns(20), 1, 3, 9);
        probe.on_saq_census(Picos::from_us(1) + Picos::from_ns(1), 0, 0, 0);
        assert_eq!(handle.saq_peaks(), (2, 3, 9));
        let saq = handle.saq_series(Picos::from_us(3));
        // The gauge holds 9 into bin 1 before the drop, so that bin's
        // maximum is still 9; the drop is visible from bin 2 on.
        assert_eq!(saq.total, [9, 9, 0]);
        assert_eq!(saq.ingress, [2, 1, 0]);
        assert_eq!(saq.egress, [3, 3, 0]);
        let labeled = saq.labeled();
        assert_eq!(labeled[2].label, "total");
        let total = &labeled[2].points;
        assert_eq!((total[1].t_us, total[1].value), (1.0, 9.0));
    }

    #[test]
    fn fct_summary_uses_nearest_rank() {
        assert_eq!(FctSummary::from_fcts(&[]), None);
        let fcts: Vec<Picos> = (1..=100).map(Picos::from_ns).collect();
        let s = FctSummary::from_fcts(&fcts).unwrap();
        assert_eq!(s.flows, 100);
        assert_eq!(s.p50_ns, 50.0);
        assert_eq!(s.p99_ns, 99.0);
        assert_eq!(s.max_ns, 100.0);
        // A single flow: every quantile is that flow.
        let s = FctSummary::from_fcts(&[Picos::from_us(3)]).unwrap();
        assert_eq!(
            (s.flows, s.p50_ns, s.p99_ns, s.max_ns),
            (1, 3000.0, 3000.0, 3000.0)
        );
    }

    #[test]
    fn probe_collects_fcts() {
        let (mut probe, handle) = Probe::new(Picos::from_us(1));
        for (src, us) in [(0, 2), (2, 3)] {
            probe.on_flow_complete(
                Picos::from_us(us),
                HostId::new(src),
                HostId::new(1),
                Picos::from_us(us),
            );
        }
        let expect = FctSummary::from_fcts(&[Picos::from_us(2), Picos::from_us(3)]);
        assert_eq!(handle.fct_summary(), expect);
        // A flowless run reports no FCT at all.
        let (_, empty_h) = Probe::new(Picos::from_us(1));
        assert_eq!(empty_h.fct_summary(), None);
    }

    #[test]
    fn probe_records_root_events() {
        let (mut probe, handle) = Probe::new(Picos::from_us(1));
        probe.on_root_change(Picos::from_ns(5), 3, 1, true);
        probe.on_root_change(Picos::from_ns(9), 3, 1, false);
        let ev = handle.root_events();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].3 && !ev[1].3);
    }
}
