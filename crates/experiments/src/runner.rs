//! Generic experiment runner: build a workload, run it under a scheme,
//! collect the probe series.

use std::time::Instant;

use fabric::{
    FabricConfig, FanoutObserver, Footprint, MessageSource, NetCounters, NetObserver, Network,
    SchemeKind, SilentSource, TraceHandle, TraceSink, ValidatingObserver,
};
use metrics::{FctSummary, Probe, ProbeHandle, SaqSeries};
use recn::RecnConfig;
use simcore::{Engine, EventModel, Picos, SeriesPoint};
use traffic::corner::CornerCase;
use traffic::san::SanParams;

use crate::spec::RunSpec;

/// Version of the run-output shape: the JSON sweep summaries and the run
/// cache's body format. Bump on any field addition/removal/meaning change;
/// cache entries written under another version are rejected on load.
///
/// Version 8 stores the cache body's series as one bin width plus a
/// values-only array per series, the SAQ census as integers (version 7
/// stored `[t_us, value]` pairs).
pub const OUTPUT_SCHEMA_VERSION: u32 = 8;

/// The workload of a run.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A Table-1 style corner case.
    Corner(CornerCase),
    /// The synthetic SAN traces at a compression factor.
    San(SanParams),
    /// Every host injecting fixed-size messages to uniformly random
    /// destinations (benchmark background traffic; no hotspot).
    Uniform {
        /// Offered load per host as a fraction of link rate, in `(0, 1]`.
        load: f64,
        /// Message size in bytes.
        msg_bytes: u32,
        /// Base PRNG seed; host `h` derives its stream from `seed + h`.
        seed: u64,
    },
    /// Closed-loop byte transfers driven by the transport layer (the
    /// incast of the FCT experiments). Hosts have no
    /// open-loop message sources; the flow set is installed directly into
    /// the network before priming.
    Flows(traffic::FlowSet),
}

impl Workload {
    fn sources(&self, hosts: u32, horizon: Picos) -> Vec<Box<dyn MessageSource>> {
        match self {
            Workload::Corner(c) => {
                debug_assert_eq!(c.hosts, hosts, "RunSpec::new checks the size");
                c.build_sources(horizon)
            }
            Workload::San(p) => p.build_sources(hosts, horizon),
            Workload::Uniform {
                load,
                msg_bytes,
                seed,
            } => (0..hosts)
                .map(|h| {
                    let src = traffic::RandomUniformSource::new(
                        hosts,
                        Some(topology::HostId::new(h)),
                        *msg_bytes,
                        *load,
                    )
                    .window(Picos::ZERO, horizon)
                    .seed(seed.wrapping_add(h as u64))
                    .build();
                    Box::new(src) as Box<dyn MessageSource>
                })
                .collect(),
            Workload::Flows(f) => {
                debug_assert_eq!(f.hosts, hosts, "RunSpec::new checks the size");
                (0..hosts)
                    .map(|_| Box::new(SilentSource) as Box<dyn MessageSource>)
                    .collect()
            }
        }
    }

    /// Host-side admittance buffering appropriate for the workload: the
    /// corner cases use a small stop threshold (a saturated hotspot should
    /// not accrue minutes of backlog — see DESIGN.md §6a), while the SAN
    /// traces carry multi-KB messages and need room for a few of them.
    fn admit_cap(&self) -> u64 {
        match self {
            Workload::Corner(_) | Workload::Uniform { .. } | Workload::Flows(_) => 4 * 1024,
            Workload::San(_) => 64 * 1024,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug)]
pub struct RunOutput {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Delivered throughput, bytes/ns per bin.
    pub throughput: Vec<SeriesPoint>,
    /// The SAQ census per bin, on the same bins (RECN only; zeros
    /// otherwise).
    pub saq: SaqSeries,
    /// Whole-run SAQ peaks `(ingress, egress, total)`.
    pub saq_peaks: (u32, u32, u32),
    /// Fabric counters at the end of the run.
    pub counters: NetCounters,
    /// Wall-clock seconds the simulation took.
    pub wall_secs: f64,
    /// Simulated events processed.
    pub events: u64,
    /// High-water mark of the event queue: the deepest the pending-event
    /// set ever got during the run (the engine's binding memory metric).
    pub peak_event_queue_depth: usize,
    /// Stable 64-bit digest of the run's event trace (only when the spec
    /// enabled tracing via [`RunSpec::with_trace`](crate::spec::RunSpec::with_trace)).
    pub trace_digest: Option<u64>,
    /// Estimated peak bytes of simulator backing storage for the run:
    /// network model ([`Network::memory_footprint`]) + the event queue's
    /// reserved backing
    /// ([`EventQueue::backing_bytes`](simcore::EventQueue::backing_bytes):
    /// delay lanes and heap) + the probe's series state; `recn scale`
    /// prints the split. Deterministic — derived from capacities, never from the
    /// allocator — so cached results replay it exactly.
    pub peak_bytes_estimate: u64,
    /// Per-flow completion-time summary (`None` unless the run completed
    /// closed-loop flows).
    pub fct: Option<FctSummary>,
}

/// The paper configuration ([`RecnConfig::default`]) with thresholds
/// divided by `div` — used by quick (time-compressed) runs so congestion
/// detection scales with the shrunken buffers-fill time and the curve
/// shapes are preserved.
pub fn scaled_recn_config(div: u64) -> RecnConfig {
    let base = RecnConfig::default();
    RecnConfig {
        detection_threshold: (base.detection_threshold / div).max(256),
        propagation_threshold: (base.propagation_threshold / div).max(128),
        xoff_threshold: (base.xoff_threshold / div).max(192),
        xon_threshold: (base.xon_threshold / div).max(64),
        root_clear_threshold: (base.root_clear_threshold / div).max(128),
        ..base
    }
}

/// Named scheme groups used by the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSet {
    /// All five mechanisms (Figure 2).
    All,
    /// VOQnet, VOQsw, 1Q, RECN (Figure 3).
    TraceComparison,
    /// VOQnet, VOQsw, RECN (Figure 6).
    Scalability,
    /// RECN alone (Figures 4 and 5).
    RecnOnly,
}

impl SchemeSet {
    /// The schemes in the set, in the paper's plotting order.
    pub fn schemes(self) -> Vec<SchemeKind> {
        self.schemes_scaled(1)
    }

    /// Like [`schemes`](Self::schemes) but with RECN thresholds divided by
    /// `div` (quick mode).
    pub fn schemes_scaled(self, div: u64) -> Vec<SchemeKind> {
        let recn = SchemeKind::Recn(scaled_recn_config(div));
        match self {
            SchemeSet::All => vec![
                SchemeKind::VoqNet,
                SchemeKind::VoqSw,
                SchemeKind::FourQ,
                SchemeKind::OneQ,
                recn,
            ],
            SchemeSet::TraceComparison => {
                vec![
                    SchemeKind::VoqNet,
                    SchemeKind::VoqSw,
                    SchemeKind::OneQ,
                    recn,
                ]
            }
            SchemeSet::Scalability => vec![SchemeKind::VoqNet, SchemeKind::VoqSw, recn],
            SchemeSet::RecnOnly => vec![recn],
        }
    }
}

/// Runs one fully-described simulation to its horizon, sampling series
/// into the spec's bin-wide buckets.
///
/// The run is self-contained and deterministic: the `Network` and its
/// `Probe` are constructed here, used only on the calling thread (`Probe`
/// is `Rc<RefCell>`-based and not `Send`), and dropped before returning —
/// only the plain-data [`RunOutput`] escapes, which is what lets
/// [`crate::sweep::Sweep`] fan runs out across threads.
pub fn run_one(spec: &RunSpec) -> RunOutput {
    run_with(spec, EventModel::Lazy).0
}

/// [`run_one`], plus where its [`RunOutput::peak_bytes_estimate`] goes —
/// what `recn scale` prints under its table. The parts are not part of
/// [`RunOutput`], so the run cache never stores them.
pub(crate) fn run_with_footprint(spec: &RunSpec) -> (RunOutput, RunFootprint) {
    run_with(spec, EventModel::Lazy)
}

/// [`run_one`] on the eager event model: the reference the differential
/// suites compare production runs against (DESIGN.md §6f). Not part of the
/// API — no command or library module calls it.
#[doc(hidden)]
pub fn run_one_eager_reference(spec: &RunSpec) -> RunOutput {
    run_with(spec, EventModel::Eager).0
}

/// A run's [`peak_bytes_estimate`](RunOutput::peak_bytes_estimate) by
/// part: the network model's [`Footprint`], the event queue's delay lanes
/// and heap, and the probe's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunFootprint {
    /// The network model's parts.
    pub network: Footprint,
    /// The event queue's delay lanes, by capacity.
    pub event_lanes: u64,
    /// The event queue's heap, by capacity.
    pub event_heap: u64,
    /// The probe's series state.
    pub probe: u64,
}

impl RunFootprint {
    /// Every part with its display name: the network's, then the event
    /// queue's and the probe's.
    pub fn parts(&self) -> Vec<(&'static str, u64)> {
        let mut parts = self.network.parts().to_vec();
        parts.extend([
            ("event lanes", self.event_lanes),
            ("event heap", self.event_heap),
            ("probe", self.probe),
        ]);
        parts
    }

    /// The run's `peak_bytes_estimate`: the parts' sum.
    pub fn total(&self) -> u64 {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

impl RunSpec {
    /// Builds the network of this run with `observer` attached — the one
    /// place a spec becomes a [`Network`]: the paper's fabric preset for
    /// the host count, the spec's routing and transport, the workload's
    /// admittance cap and message sources, and a flow workload's flows
    /// installed. [`run_one`] and the commands that drive a network by
    /// hand (`recn inspect`, the ablations' latency split) all start here.
    pub fn network(&self, observer: Box<dyn NetObserver>) -> Network {
        self.network_on(EventModel::Lazy, observer)
    }

    /// [`network`](Self::network) on either event model: the eager one is
    /// [`run_one_eager_reference`]'s, nothing else asks for it.
    fn network_on(&self, event_model: EventModel, observer: Box<dyn NetObserver>) -> Network {
        let hosts = self.params().hosts();
        let mut fabric_cfg = if hosts >= 512 {
            FabricConfig::paper_512(self.scheme())
        } else {
            FabricConfig::paper(self.scheme())
        }
        .with_routing(self.routing())
        .with_event_model(event_model)
        .with_transport(self.transport());
        fabric_cfg.admit_cap = self.workload().admit_cap();
        let sources = self.workload().sources(hosts, self.horizon());
        let mut net = Network::new(
            self.params(),
            fabric_cfg,
            self.packet_size(),
            sources,
            observer,
        );
        if let Workload::Flows(f) = self.workload() {
            net.install_flows(&f.build());
        }
        net
    }
}

fn run_with(spec: &RunSpec, event_model: EventModel) -> (RunOutput, RunFootprint) {
    let (probe, handle) = Probe::new(spec.bin());
    // Validator and tracer ride the same observer slot as the probe via a
    // fan-out; all three are Rc<RefCell>-based and constructed here, on the
    // worker thread, per the sweep's thread-locality contract.
    let mut fan = FanoutObserver::new().push(Box::new(probe));
    if spec.validation() {
        let (validator, _vhandle) = ValidatingObserver::new();
        fan = fan.push(Box::new(validator));
    }
    let mut trace: Option<TraceHandle> = None;
    if let Some(capacity) = spec.trace_capacity() {
        let (sink, thandle) = TraceSink::new(capacity, spec.label().to_owned());
        fan = fan.push(Box::new(sink));
        trace = Some(thandle);
    }
    let net = spec.network_on(event_model, Box::new(fan));
    let started = Instant::now();
    let mut engine = net.build_engine();
    engine.run_until(spec.horizon());
    let wall_secs = started.elapsed().as_secs_f64();
    let (mut out, footprint) = finish(spec.scheme(), engine, handle, spec.horizon(), wall_secs);
    out.trace_digest = trace.map(|t| t.digest());
    (out, footprint)
}

fn finish(
    scheme: SchemeKind,
    engine: Engine<Network>,
    handle: ProbeHandle,
    horizon: Picos,
    wall_secs: f64,
) -> (RunOutput, RunFootprint) {
    let events = engine.processed();
    let peak_event_queue_depth = engine.queue().peak_len();
    let (event_lanes, event_heap) = (engine.queue().lane_bytes(), engine.queue().heap_bytes());
    let model = engine.into_model();
    let footprint = RunFootprint {
        network: model.memory_footprint(),
        event_lanes: event_lanes as u64,
        event_heap: event_heap as u64,
        probe: handle.backing_bytes(),
    };
    let out = RunOutput {
        scheme: scheme.name(),
        throughput: handle.throughput(horizon),
        saq: handle.saq_series(horizon),
        saq_peaks: handle.saq_peaks(),
        counters: model.counters().clone(),
        wall_secs,
        events,
        peak_event_queue_depth,
        trace_digest: None,
        peak_bytes_estimate: footprint.total(),
        fct: handle.fct_summary(),
    };
    (out, footprint)
}

/// One-line run summary for the stdout tables. Deliberately omits wall
/// time, which varies run to run (and with `--jobs`), so the tables stay
/// byte-identical at any parallelism; timing lives in the sweep progress
/// lines and the JSON summary instead.
pub fn summarize(out: &RunOutput) -> String {
    format!(
        "{:>6}: {:>11} pkts delivered, mean latency {:>9.0} ns, peak SAQs {:?} ({} events)",
        out.scheme,
        out.counters.delivered_packets,
        out.counters.latency_ns.mean(),
        out.saq_peaks,
        out.events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::MinParams;

    #[test]
    fn scheme_sets_have_expected_members() {
        assert_eq!(SchemeSet::All.schemes().len(), 5);
        assert_eq!(SchemeSet::TraceComparison.schemes().len(), 4);
        assert_eq!(SchemeSet::Scalability.schemes().len(), 3);
        assert_eq!(SchemeSet::RecnOnly.schemes().len(), 1);
        assert_eq!(SchemeSet::All.schemes()[0].name(), "VOQnet");
        // Uncompressed, the scaled config is the paper's: callers need no
        // `div == 1` special case.
        assert_eq!(scaled_recn_config(1), RecnConfig::default());
    }

    #[test]
    fn quick_corner_run_produces_series() {
        let corner = CornerCase::case1_64().shrunk(40); // hotspot 20–24.25 µs
        let spec = RunSpec::corner(MinParams::paper_64(), SchemeKind::OneQ, corner)
            .with_horizon(Picos::from_us(40))
            .with_bin(Picos::from_us(2));
        let out = run_one(&spec);
        assert_eq!(out.throughput.len(), 20);
        assert!(out.counters.delivered_packets > 0);
        assert!(out.throughput.iter().any(|p| p.value > 1.0));
        assert!(!summarize(&out).is_empty());
    }

    #[test]
    fn recn_run_allocates_saqs_under_hotspot() {
        let corner = CornerCase::case2_64().shrunk(40);
        let spec = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::Recn(scaled_recn_config(40)),
            corner,
        )
        .with_horizon(Picos::from_us(40))
        .with_bin(Picos::from_us(2));
        let out = run_one(&spec);
        assert!(
            out.saq_peaks.2 > 0,
            "hotspot must allocate SAQs: {:?}",
            out.saq_peaks
        );
        assert!(out.counters.order_violations == 0);
    }
}
