//! The assembled network: its parts (switches, NICs, links), the
//! [`Network`] struct, and the event dispatcher. Behaviour lives in the
//! submodules: `build` (construction), `link` (control messages and
//! deliveries), `port` (a packet entering and leaving a queue set),
//! `switch` / `nic` / `egress` (the handlers), `recn_glue` and `arn`
//! (congestion protocols), `flow` (transport), `lazy` (scheduling),
//! `inspect` and `stats` (reporting).

/// Calls an observer hook — `observe!(self.on_hop(now, &pkt, link))` — if
/// someone asked for it ([`NetObserver::interests`]); otherwise not even the
/// arguments are evaluated. The only way `network/` reaches the observer.
macro_rules! observe {
    ($net:ident.$hook:ident($($arg:expr),* $(,)?)) => {
        if $net.interests.contains($crate::observer::HookSet::NONE.$hook()) {
            $net.observer.$hook($($arg),*);
        }
    };
}

mod arn;
mod build;
mod egress;
mod flow;
mod inspect;
mod lazy;
mod link;
mod nic;
mod port;
mod recn_glue;
mod seq;
mod stats;
mod switch;

use simcore::{EventQueue, Picos, SimModel};
use topology::Topology;

use crate::arn::ArnTable;
use crate::config::FabricConfig;
use crate::credit::CreditView;
use crate::observer::{HookSet, NetObserver};
use crate::packet::{Packet, Payload, RevPayload};
use crate::queue::QueueSet;

pub(crate) use flow::{FlowRx, FlowTx};
pub use lazy::SameTimeWork;
use lazy::{LazyState, Wakeup};
use nic::Nic;
use recn_glue::SaqCensus;

pub use build::paper_network;
pub use inspect::{render_port, Footprint, PortSnapshot, SaqSnapshot};
pub use recn_glue::assert_recn_idle;
pub use stats::{CounterMut, NetCounters};
pub use switch::ArbiterSummary;

/// Simulation events dispatched by [`Network::handle`].
#[derive(Debug)]
pub enum Event {
    /// The next message of `host`'s source is due.
    NextMessage {
        /// Generating host.
        host: usize,
    },
    /// Move packets from NIC admittance queues into the injection port.
    NicTransfer {
        /// The NIC.
        host: usize,
    },
    /// Egress arbitration of `host`'s injection link: try to transmit from
    /// the NIC injection port (same handler as [`Event::OutputArb`]).
    NicArb {
        /// The NIC.
        host: usize,
    },
    /// Forward-direction delivery at the downstream end of a link.
    Deliver {
        /// Link index.
        link: usize,
        /// What arrived.
        payload: Payload,
    },
    /// Reverse-direction delivery at the upstream end of a link.
    DeliverRev {
        /// Link index.
        link: usize,
        /// What arrived.
        payload: RevPayload,
    },
    /// Crossbar arbitration at a switch.
    InputArb {
        /// The switch.
        sw: usize,
    },
    /// A crossbar transfer completed.
    XbarDone {
        /// The switch.
        sw: usize,
        /// Source input port.
        input: usize,
        /// Destination output port.
        output: usize,
    },
    /// Egress arbitration of a switch output port's link (same handler as
    /// [`Event::NicArb`]: an egress port is the transmitter of a link).
    OutputArb {
        /// The switch.
        sw: usize,
        /// Output port.
        port: usize,
    },
    /// Idle-reclaim check for a possibly never-used SAQ.
    SaqIdleCheck {
        /// The port holding the SAQ.
        port: PortRef,
        /// The SAQ (generation-checked; stale handles are ignored).
        saq: recn::SaqId,
    },
    /// A closed-loop flow at `host` toward `dst` opens (transport layer;
    /// scheduled by [`Network::prime`] at the flow's start time).
    FlowStart {
        /// Sending host.
        host: usize,
        /// Destination host.
        dst: u32,
    },
    /// Out-of-band transport ack arriving at the *sender* `host` for its
    /// flow toward `dst`: cumulative receive point `cum`, plus an optional
    /// NACK rewind request (`nack == u64::MAX` means none).
    TransportAck {
        /// Sending host (the ack's recipient).
        host: usize,
        /// Destination the flow sends toward.
        dst: u32,
        /// Cumulative ack: every packet below this sequence arrived.
        cum: u64,
        /// Rewind request from a NACK receiver, or `u64::MAX`.
        nack: u64,
    },
    /// Retransmission timeout for `host`'s flow toward `dst`
    /// (generation-checked via [`simcore::TimerGen`]; stale events are
    /// ignored).
    TransportTimeout {
        /// Sending host.
        host: usize,
        /// Destination host.
        dst: u32,
        /// Timer generation stamped at arm time.
        gen: u32,
    },
    /// Runs the network's same-time work (lazy event model only): queued
    /// when a handler left work due now while queue events were still due
    /// now, so it pops after them, as eager's `(time, seq)` order runs them.
    Sweep,
}

/// Addresses one queue set in the network — the only port name inside
/// `network/`. An egress port (`SwitchOut`, `Nic`) is the transmitter of
/// exactly one link, which is how the transmit path reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRef {
    /// A switch input port.
    SwitchIn {
        /// Switch index.
        sw: usize,
        /// Input port index.
        port: usize,
    },
    /// A switch output port.
    SwitchOut {
        /// Switch index.
        sw: usize,
        /// Output port index.
        port: usize,
    },
    /// A NIC injection port.
    Nic {
        /// Host index.
        host: usize,
    },
}

/// Upstream endpoint of a link (the transmitter of the data direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkUp {
    Nic(usize),
    Switch { sw: usize, port: usize },
}

impl LinkUp {
    /// The egress port transmitting on this link.
    pub(crate) fn port(self) -> PortRef {
        match self {
            LinkUp::Nic(host) => PortRef::Nic { host },
            LinkUp::Switch { sw, port } => PortRef::SwitchOut { sw, port },
        }
    }
}

/// Downstream endpoint of a link (the receiver of the data direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkDown {
    Switch { sw: usize, port: usize },
    Host(usize),
}

impl LinkDown {
    /// The switch input port receiving from this link.
    pub(crate) fn port(self) -> PortRef {
        match self {
            LinkDown::Switch { sw, port } => PortRef::SwitchIn { sw, port },
            LinkDown::Host(_) => unreachable!("a host sink holds no queue set"),
        }
    }
}

#[derive(Debug)]
pub(crate) struct LinkState {
    pub fwd_busy_until: Picos,
    pub rev_busy_until: Picos,
    /// Accumulated forward-channel busy time (data + control), for link
    /// utilization reporting.
    pub fwd_busy_total: Picos,
    /// Sender-side view of the downstream input port's buffer space.
    pub credits: CreditView,
    /// PFC: the downstream input port paused this link's transmitter.
    /// Always `false` outside the PFC transport.
    pub paused: bool,
    /// Whether an egress-arbiter wakeup for this link's transmitter is
    /// already pending.
    pub arb_scheduled: bool,
    pub up: LinkUp,
    pub down: LinkDown,
}

/// A crossbar transfer in flight.
#[derive(Debug)]
pub(crate) struct XbarTransfer {
    pub pkt: Packet,
    /// Queue index the packet occupied at the input port (for the credit
    /// return message).
    pub from_queue: usize,
    pub to_output: usize,
    /// Reserved output queue (`None` under RECN: classified at commit).
    pub to_queue: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct Switch {
    pub inputs: Vec<QueueSet>,
    pub outputs: Vec<QueueSet>,
    /// In-flight crossbar transfer per input port.
    pub in_flight: Vec<Option<XbarTransfer>>,
    /// The arbiter's summary of the ports above (see `switch.rs`).
    pub arb: ArbiterSummary,
    pub input_arb_scheduled: bool,
    pub in_rr: usize,
    /// Link driven by each output port.
    pub out_link: Vec<usize>,
    /// Link feeding each input port.
    pub in_link: Vec<usize>,
    /// Output ports an adaptive up-phase turn may bind to (the topology's
    /// up-ports; empty on the MIN and at the fat tree's top level).
    pub up_ports: std::ops::Range<usize>,
    /// PFC: whether each input port currently holds its upstream link
    /// paused (high-water mark crossed, resume not yet sent).
    pub pause_sent: Vec<bool>,
}

/// The full fabric model: a [`Topology`] populated with switches, NICs
/// and links, driven by [`simcore::Engine`].
///
/// Construct with [`Network::new`], seed the initial traffic events with
/// [`Network::prime`] (or use [`Network::build_engine`]), then run.
pub struct Network {
    pub(crate) cfg: FabricConfig,
    pub(crate) topo: Topology,
    pub(crate) switches: Vec<Switch>,
    pub(crate) nics: Vec<Nic>,
    pub(crate) links: Vec<LinkState>,
    pub(crate) observer: Box<dyn NetObserver>,
    /// What `observer` asked for when the network was built (`observe!`).
    pub(crate) interests: HookSet,
    pub(crate) counters: NetCounters,
    /// Sender and receiver sequence numbers of every open-loop flow that
    /// has sent a packet.
    pub(crate) flow_seq: seq::FlowSeqTable,
    pub(crate) next_packet_id: u64,
    /// Prefix sums of per-switch port counts: flat per-port indices (SAQ
    /// sites, link ids, ARN state) are `port_base[sw] + port`. Port counts
    /// vary per switch on the fat tree (top-level switches have no
    /// up-ports), so `sw * radix + port` no longer works in general.
    pub(crate) port_base: Vec<usize>,
    /// Network-wide SAQ census (see `recn_glue`).
    pub(crate) census: SaqCensus,
    /// Scratch buffer for service-order computation.
    pub(crate) scratch: Vec<usize>,
    /// Scratch buffer for packets needing RECN notification requests
    /// (reused across input-arbiter ports to avoid per-port allocation).
    pub(crate) scratch_pkts: Vec<Packet>,
    /// Per-switch ARN notification tables (one entry per up-port), and
    /// the links each switch notifies when its own congestion state
    /// changes: the reverse channels of every child link (a link whose
    /// upstream end is an up-port of the switch one level down). All
    /// three vectors are empty unless `cfg.routing.is_arn()`, so the
    /// other policies pay nothing — not even in `memory_footprint`.
    pub(crate) arn_tables: Vec<ArnTable>,
    pub(crate) arn_child_links: Vec<Vec<usize>>,
    /// Non-RECN ARN trigger state: whether each switch output port
    /// (flat `port_base[sw] + port` index) is currently above the
    /// occupancy threshold and has an uncancelled `ArnHot` outstanding.
    pub(crate) arn_out_hot: Vec<bool>,
    /// Same-time work of the lazy event model (inert under eager).
    pub(crate) lazy: LazyState,
    /// Packet size used when splitting messages.
    pub(crate) packet_size: u32,
    /// Closed-loop receiver state keyed `(src << 32) | dst`. Entries stay
    /// after completion (marked done) so late duplicates are recognized.
    pub(crate) flow_rx: std::collections::BTreeMap<u64, FlowRx>,
    /// Fast gate: whether any flow was ever installed. `false` keeps every
    /// transport branch off the open-loop hot paths.
    pub(crate) has_flows: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("hosts", &self.topo.num_hosts())
            .field("scheme", &self.cfg.scheme.name())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Simulation counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// The topology this network was built on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration in force.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Packets injected but not yet delivered.
    pub fn packets_in_flight(&self) -> u64 {
        self.counters.injected_packets - self.counters.delivered_packets
    }

    /// Whether every buffer in the network has drained (useful at the end
    /// of tests: with sources exhausted this means every packet was
    /// delivered and no resource leaked).
    pub fn is_quiescent(&self) -> bool {
        self.packets_in_flight() == 0
            && self.ports().all(|(_, qs)| qs.is_drained())
            && self
                .switches
                .iter()
                .all(|s| s.in_flight.iter().all(Option::is_none))
            && self.nics.iter().all(|n| n.admit.is_empty())
    }

    /// Total SAQs allocated right now (switch ports + NIC injection ports).
    pub fn saq_total(&self) -> u32 {
        self.census.values().2
    }

    /// Current SAQ census: (max per switch-input port, max per
    /// switch-output port, network total).
    pub fn saq_census(&self) -> (u32, u32, u32) {
        self.census.values()
    }
}

impl SimModel for Network {
    type Event = Event;

    fn handle(&mut self, now: Picos, event: Event, q: &mut EventQueue<Event>) {
        self.dispatch(now, event, q);
        self.settle(now, q);
    }
}

impl Network {
    /// Runs `event`'s handler.
    fn dispatch(&mut self, now: Picos, event: Event, q: &mut EventQueue<Event>) {
        match event {
            Event::NextMessage { host } => self.on_next_message(now, q, host),
            Event::NicTransfer { host } => self.on_nic_transfer(now, q, host),
            Event::NicArb { host } => self.on_egress_arb(now, q, self.nics[host].link),
            Event::Deliver { link, payload } => self.on_deliver(now, q, link, payload),
            Event::DeliverRev { link, payload } => self.on_deliver_rev(now, q, link, payload),
            Event::InputArb { sw } => self.on_input_arb(now, q, sw),
            Event::XbarDone { sw, input, output } => self.on_xbar_done(now, q, sw, input, output),
            Event::OutputArb { sw, port } => {
                self.on_egress_arb(now, q, self.switches[sw].out_link[port])
            }
            Event::SaqIdleCheck { port, saq } => self.on_saq_idle_check(now, q, port, saq),
            Event::FlowStart { host, dst } => self.flow_pump(now, q, host, dst),
            Event::TransportAck {
                host,
                dst,
                cum,
                nack,
            } => self.on_transport_ack(now, q, host, dst, cum, nack),
            Event::TransportTimeout { host, dst, gen } => {
                self.on_transport_timeout(now, q, host, dst, gen)
            }
            Event::Sweep => self.drain(now, q),
        }
    }
}
