//! The harness-owned event loop: the per-layer trace, recorded from outside
//! the program.
//!
//! `run_one` hides the event loop inside `simcore::Engine`. To time the
//! layers without touching them, this module builds the `Network` the way
//! `run_one` does, primes a default `EventQueue`, and pops and dispatches
//! the events itself, with a clock read around `pop` and around each
//! `handle`, keyed by `fabric::Event` kind. Spans are aggregated per
//! (simulated slice, kind) in memory and written out once at the end. The
//! loop must reproduce `run_one`'s counters and trace digest, so the
//! numbers describe the same program.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use experiments::{RunSpec, Workload};
use fabric::{
    Event, FabricConfig, FanoutObserver, MessageSource, NetCounters, NetObserver, Network, Packet,
    PortRef, QueueKind, SilentSource, TraceSink,
};
use metrics::Probe;
use simcore::{EventQueue, Picos, SimModel};
use topology::HostId;

use crate::observed::Observed;
use crate::workloads::Bench;

/// Handler kinds the spans are keyed by; `other` collects the rare ones
/// (SAQ idle checks, flow starts, transport acks and timeouts, sweeps).
pub const KINDS: [&str; 9] = [
    "next_message",
    "nic_transfer",
    "nic_arb",
    "deliver",
    "deliver_rev",
    "input_arb",
    "xbar_done",
    "output_arb",
    "other",
];

fn kind_of(event: &Event) -> usize {
    match event {
        Event::NextMessage { .. } => 0,
        Event::NicTransfer { .. } => 1,
        Event::NicArb { .. } => 2,
        Event::Deliver { .. } => 3,
        Event::DeliverRev { .. } => 4,
        Event::InputArb { .. } => 5,
        Event::XbarDone { .. } => 6,
        Event::OutputArb { .. } => 7,
        _ => 8,
    }
}

/// Observer-side counts of the fabric's fine-grained hooks.
#[derive(Debug, Default)]
pub struct HookCounts {
    pub hops: Cell<u64>,
    pub enqueues: Cell<u64>,
    pub dequeues: Cell<u64>,
    pub credit_changes: Cell<u64>,
    pub drop_attempts: Cell<u64>,
    pub retransmits: Cell<u64>,
}

/// The harness's own observer: counts hook calls and nothing else.
struct Counter(Rc<HookCounts>);

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl NetObserver for Counter {
    fn on_hop(&mut self, _: Picos, _: &Packet, _: usize) {
        bump(&self.0.hops);
    }
    fn on_enqueue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
        bump(&self.0.enqueues);
    }
    fn on_dequeue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
        bump(&self.0.dequeues);
    }
    fn on_credit_change(&mut self, _: Picos, _: usize, _: u16, _: i64, _: u64, _: Option<u64>) {
        bump(&self.0.credit_changes);
    }
    fn on_drop_attempt(&mut self, _: Picos, _: usize, _: HostId, _: u32) {
        bump(&self.0.drop_attempts);
    }
    fn on_retransmit(&mut self, _: Picos, _: usize, _: HostId, _: u64) {
        bump(&self.0.retransmits);
    }
}

/// Which observers ride the run besides the harness's counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// The counter alone (the baseline the probe's cost is read against).
    CounterOnly,
    /// `run_one`'s `Probe` beside the counter.
    Probe,
    /// Probe, counter and a `TraceSink`, for the digest check.
    ProbeAndDigest,
}

/// Spans of one slice of simulated time.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Host nanoseconds the slice took, clock reads included.
    pub wall_ns: u64,
    pub pop_ns: u64,
    /// Per kind: handler calls and host nanoseconds inside `handle`.
    pub kinds: [(u64, u64); KINDS.len()],
}

impl Slice {
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.0).sum()
    }
}

/// What one pass of the loop produced.
pub struct LoopRun {
    /// Host seconds of prime + loop (construction and collection excluded).
    pub wall_s: f64,
    pub events: u64,
    pub pushes: u64,
    pub peak_depth: usize,
    pub counters: NetCounters,
    pub hooks: Rc<HookCounts>,
    pub observed: Observed,
    /// One entry per slice when the pass ran with clocks.
    pub slices: Vec<Slice>,
}

/// Builds the network of `spec` exactly as `experiments::run_one` does,
/// through the same public constructors.
fn build_network(spec: &RunSpec, observer: Box<dyn NetObserver>) -> Network {
    let hosts = spec.params().hosts();
    let mut cfg = if hosts >= 512 {
        FabricConfig::paper_512(spec.scheme())
    } else {
        FabricConfig::paper(spec.scheme())
    }
    .with_routing(spec.routing())
    .with_transport(spec.transport());
    // run_one's admittance cap for corner, uniform and flow workloads.
    cfg.admit_cap = 4 * 1024;
    let sources: Vec<Box<dyn MessageSource>> = match spec.workload() {
        Workload::Corner(c) => c.build_sources(spec.horizon()),
        Workload::Uniform {
            load,
            msg_bytes,
            seed,
        } => (0..hosts)
            .map(|h| {
                Box::new(
                    traffic::RandomUniformSource::new(
                        hosts,
                        Some(HostId::new(h)),
                        *msg_bytes,
                        *load,
                    )
                    .window(Picos::ZERO, spec.horizon())
                    .seed(seed.wrapping_add(h as u64))
                    .build(),
                ) as Box<dyn MessageSource>
            })
            .collect(),
        Workload::Flows(_) => (0..hosts)
            .map(|_| Box::new(SilentSource) as Box<dyn MessageSource>)
            .collect(),
        Workload::San(_) => unreachable!("no benchmark workload replays SAN traces"),
    };
    let mut net = Network::new(spec.params(), cfg, spec.packet_size(), sources, observer);
    if let Workload::Flows(f) = spec.workload() {
        net.install_flows(&f.build());
    }
    net
}

/// Pops and dispatches every event up to the horizon, slice by slice. With
/// `CLOCKS` it reads the clock three times per event (before `pop`, after
/// `pop`, after `handle`) and twice per slice.
fn drive<const CLOCKS: bool>(
    net: &mut Network,
    q: &mut EventQueue<Event>,
    horizon: Picos,
    slice: Picos,
) -> (u64, Vec<Slice>) {
    let mut events = 0u64;
    let mut slices = Vec::new();
    let mut start = Picos::ZERO;
    while start < horizon && !q.is_empty() {
        let end = (start + slice).min(horizon);
        let mut s = Slice::default();
        let slice_started = CLOCKS.then(Instant::now);
        while q.peek_time().is_some_and(|t| t <= end) {
            if CLOCKS {
                let t0 = Instant::now();
                let ev = q.pop().expect("peeked event must exist");
                let t1 = Instant::now();
                let kind = kind_of(&ev.event);
                net.handle(ev.time, ev.event, q);
                let t2 = Instant::now();
                s.pop_ns += (t1 - t0).as_nanos() as u64;
                s.kinds[kind].0 += 1;
                s.kinds[kind].1 += (t2 - t1).as_nanos() as u64;
            } else {
                let ev = q.pop().expect("peeked event must exist");
                net.handle(ev.time, ev.event, q);
            }
            events += 1;
        }
        if let Some(t) = slice_started {
            s.wall_ns = t.elapsed().as_nanos() as u64;
            slices.push(s);
        }
        start = end;
    }
    (events, slices)
}

/// One pass of the harness-owned loop over `spec`.
pub fn run_loop(bench: &Bench, spec: &RunSpec, watch: Watch, clocks: bool) -> LoopRun {
    let hooks = Rc::new(HookCounts::default());
    let mut fan = FanoutObserver::new();
    let mut probe_handle = None;
    if watch != Watch::CounterOnly {
        let (probe, handle) = Probe::new(spec.bin());
        fan = fan.push(Box::new(probe));
        probe_handle = Some(handle);
    }
    fan = fan.push(Box::new(Counter(hooks.clone())));
    let mut trace_handle = None;
    if watch == Watch::ProbeAndDigest {
        let (sink, handle) = TraceSink::new(64, spec.label().to_owned());
        fan = fan.push(Box::new(sink));
        trace_handle = Some(handle);
    }
    let mut net = build_network(spec, Box::new(fan));

    let started = Instant::now();
    let mut q = EventQueue::new();
    net.prime(&mut q);
    let (events, slices) = if clocks {
        drive::<true>(&mut net, &mut q, spec.horizon(), bench.slice)
    } else {
        drive::<false>(&mut net, &mut q, spec.horizon(), bench.slice)
    };
    let wall_s = started.elapsed().as_secs_f64();

    let counters = net.counters().clone();
    let observed = Observed::new(
        &counters,
        probe_handle.as_ref().map_or((0, 0, 0), |h| h.saq_peaks()),
        probe_handle.as_ref().and_then(|h| h.fct_summary()),
        trace_handle.map(|t| t.digest()),
    );
    LoopRun {
        wall_s,
        events,
        pushes: q.scheduled_total(),
        peak_depth: q.peak_len(),
        counters,
        hooks,
        observed,
        slices,
    }
}

/// Whether the slice starting at `index * slice` lies inside the
/// workload's congested window.
pub fn is_hot(bench: &Bench, index: usize) -> bool {
    let start = bench.slice * index as u64;
    bench
        .hot_window
        .is_some_and(|(from, to)| start >= from && start < to)
}

/// Renders the aggregated spans: one header line, then one line per slice.
pub fn render_trace(
    bench: &Bench,
    seed: u64,
    run: &LoopRun,
    bare_wall_s: f64,
    overhead_pct: f64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workload\": \"{}\", \"seed\": {seed}, \"spec\": \"{}\", \"slice_ns\": {},\n",
        bench.name,
        bench.traced_spec().label(),
        bench.slice.as_ps() as f64 / 1000.0
    ));
    s.push_str(&format!(
        "  \"traced_wall_s\": {}, \"bare_wall_s\": {bare_wall_s}, \"trace_overhead_pct\": {overhead_pct},\n",
        run.wall_s
    ));
    s.push_str(&format!(
        "  \"events\": {}, \"pushes\": {}, \"peak_depth\": {},\n",
        run.events, run.pushes, run.peak_depth
    ));
    s.push_str("  \"slices\": [\n");
    for (i, slice) in run.slices.iter().enumerate() {
        let kinds: Vec<String> = KINDS
            .iter()
            .zip(&slice.kinds)
            .filter(|(_, k)| k.0 > 0)
            .map(|(name, k)| format!("\"{name}\": [{}, {}]", k.0, k.1))
            .collect();
        let sep = if i + 1 == run.slices.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"slice\": {i}, \"hot\": {}, \"wall_ns\": {}, \"events\": {}, \"pop_ns\": {}, \
             \"handlers\": {{{}}}}}{sep}\n",
            is_hot(bench, i),
            slice.wall_ns,
            slice.events(),
            slice.pop_ns,
            kinds.join(", ")
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
