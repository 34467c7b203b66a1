//! The assembled network: switches, NICs, links, and the event dispatcher.

mod egress;
mod flow;
mod inspect;
mod nic;
mod recn_glue;
mod stats;
mod switch;

use simcore::{EventModel, EventQueue, Picos, SimModel};
use topology::{HostId, TopoParams, Topology};

use crate::arn::{ArnTable, ARN_COLD_BYTES, ARN_HOT_BYTES};
use crate::config::{FabricConfig, SchemeKind};
use crate::credit::CreditView;
use crate::observer::{NetObserver, NullObserver};
use crate::packet::{Packet, Payload, RevPayload};
use crate::queue::{PortSide, QueueSet};
use crate::source::{MessageSource, SourcedMessage};

pub(crate) use flow::{FlowRx, FlowTx};

pub use inspect::{render_port, PortSnapshot, SaqSnapshot};
pub use recn_glue::assert_recn_idle;
pub use stats::NetCounters;

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
    /// Drains one batch of coalesced same-time arbiter wakeups
    /// ([`EventModel::Lazy`] only — the eager model schedules each wakeup
    /// as its own event). The batch membership lives in the network's
    /// wakeup FIFO; the sweep occupies the queue position of the batch's
    /// first kick, so the wakeups fire in exactly the order their eager
    /// counterparts would have.
    Sweep,
}

/// One coalesced arbiter wakeup awaiting a [`Event::Sweep`] (lazy model).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wakeup {
    InputArb { sw: usize },
    EgressArb { link: usize },
    NicTransfer { host: usize },
}

/// Book-keeping of the lazy event model's wakeup coalescing.
///
/// Same-time kicks join *batches*: runs of wakeups whose eager events
/// would have been adjacent in the queue (no other same-time event
/// scheduled in between). Each batch is announced by one [`Event::Sweep`]
/// scheduled at the batch's first kick — so the sweep inherits that
/// kick's queue position — and the FIFO stores batch members separated by
/// `None` boundary markers. A batch closes (`open = false`) when a
/// handler schedules a *non-wakeup* event at the current time: a later
/// kick must then sort after that event, which a fresh sweep provides.
#[derive(Debug, Default)]
pub(crate) struct LazyState {
    /// Simulated time the FIFO belongs to; a kick at a later time resets it.
    round: Picos,
    /// Whether the FIFO's tail batch still accepts members.
    open: bool,
    /// Whether a sweep is currently dispatching (kicks during a drain may
    /// need a boundary marker even when the FIFO is momentarily empty).
    draining: bool,
    /// Pending wakeups; `None` separates batches.
    fifo: std::collections::VecDeque<Option<Wakeup>>,
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
    pub out_busy: Vec<bool>,
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

/// One destination's admittance FIFO: intrusive head/tail handles into
/// the NIC's `admit_pool` plus its byte occupancy (bounded by
/// `cfg.admit_cap`). Entries exist only while the destination has queued
/// packets, so per-NIC admittance cost scales with the live backlog, not
/// with the host count — the layout change that makes 4096-host fabrics
/// affordable (the dense `Vec<VecDeque>` form was `hosts²` queues).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmitFifo {
    pub head: crate::arena::Handle,
    pub tail: crate::arena::Handle,
    pub bytes: u64,
}

/// A packet queued in the admittance stage plus its intrusive link.
#[derive(Debug)]
pub(crate) struct AdmitNode {
    pub pkt: Packet,
    pub next: Option<crate::arena::Handle>,
}

pub(crate) struct Nic {
    /// Admittance VOQs, keyed by destination, present only while
    /// non-empty (the generation process itself is the depth bound).
    /// A `BTreeMap` keeps destinations in ascending order so the
    /// round-robin transfer scan visits exactly the sequence the dense
    /// layout produced.
    pub admit: std::collections::BTreeMap<u32, AdmitFifo>,
    /// Slab storing the packets queued across all admittance VOQs.
    pub admit_pool: crate::arena::Arena<AdmitNode>,
    pub admit_rr: usize,
    pub inject: QueueSet,
    pub link: usize,
    pub transfer_scheduled: bool,
    pub source: Box<dyn MessageSource>,
    pub pending: Option<SourcedMessage>,
    /// Next flow sequence number per destination.
    pub next_seq: Vec<u64>,
    /// Closed-loop sender state per destination (transport layer). Empty
    /// unless flows were installed; entries are removed on completion.
    pub flows: std::collections::BTreeMap<u32, FlowTx>,
}

impl Nic {
    /// Bytes queued toward `dst` in the admittance stage.
    pub fn admit_bytes(&self, dst: usize) -> u64 {
        self.admit.get(&(dst as u32)).map_or(0, |f| f.bytes)
    }

    /// Appends `pkt` to its destination's admittance FIFO.
    pub fn admit_push(&mut self, pkt: Packet) {
        let (dst, size) = (pkt.dst.index() as u32, pkt.size as u64);
        let h = self.admit_pool.insert(AdmitNode { pkt, next: None });
        match self.admit.entry(dst) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let f = e.get_mut();
                self.admit_pool.get_mut(f.tail).next = Some(h);
                f.tail = h;
                f.bytes += size;
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(AdmitFifo {
                    head: h,
                    tail: h,
                    bytes: size,
                });
            }
        }
    }

    /// The head packet of `dst`'s admittance FIFO, if any.
    pub fn admit_front(&self, dst: u32) -> Option<&Packet> {
        self.admit
            .get(&dst)
            .map(|f| &self.admit_pool.get(f.head).pkt)
    }

    /// Removes and returns the head packet of `dst`'s FIFO, dropping the
    /// FIFO entry when it empties.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty (callers check the front first).
    pub fn admit_pop(&mut self, dst: u32) -> Packet {
        let f = self.admit.get_mut(&dst).expect("pop from empty admit VOQ");
        let node = self.admit_pool.remove(f.head);
        f.bytes -= node.pkt.size as u64;
        match node.next {
            Some(next) => f.head = next,
            None => {
                debug_assert_eq!(f.bytes, 0, "byte accounting out of sync");
                self.admit.remove(&dst);
            }
        }
        node.pkt
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("admit_rr", &self.admit_rr)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
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
    pub(crate) counters: NetCounters,
    /// Expected next flow_seq at the receiver, indexed `src * hosts + dst`.
    pub(crate) expect_seq: Vec<u64>,
    pub(crate) next_packet_id: u64,
    /// Prefix sums of per-switch port counts: flat per-port arrays (SAQ
    /// census, link ids) index with `port_base[sw] + port`. Port counts
    /// vary per switch on the fat tree (top-level switches have no
    /// up-ports), so `sw * radix + port` no longer works in general.
    pub(crate) port_base: Vec<usize>,
    /// SAQ census (see `recn_glue`).
    pub(crate) saq_in: Vec<u16>,
    pub(crate) saq_out: Vec<u16>,
    pub(crate) saq_nic: Vec<u16>,
    pub(crate) saq_total: u32,
    pub(crate) max_saq_in: u32,
    pub(crate) max_saq_out: u32,
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
    /// Coalesced-wakeup state of the lazy event model (inert under eager).
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
    /// Builds the network.
    ///
    /// `sources[h]` generates host `h`'s traffic; `packet_size` is the
    /// packetization unit (64 or 512 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the host count, or the
    /// configuration is invalid.
    pub fn new(
        params: impl Into<TopoParams>,
        cfg: FabricConfig,
        packet_size: u32,
        sources: Vec<Box<dyn MessageSource>>,
        observer: Box<dyn NetObserver>,
    ) -> Network {
        cfg.validate();
        assert!(packet_size > 0, "packet size must be positive");
        let topo = params.into().build();
        let hosts = topo.num_hosts() as usize;
        assert_eq!(sources.len(), hosts, "one source per host required");

        let nswitches = topo.num_switches() as usize;
        // Per-switch port counts: uniform (`radix`) on the MIN, but on the
        // fat tree top-level switches have no up-ports.
        let ports: Vec<usize> = (0..nswitches)
            .map(|s| topo.ports(topology::SwitchId::new(s as u32)) as usize)
            .collect();
        let mut port_base = Vec::with_capacity(nswitches);
        let mut total_ports = 0usize;
        for &np in &ports {
            port_base.push(total_ports);
            total_ports += np;
        }
        // Links: 0..hosts are injection links; then one per switch output
        // port, in (switch, port) order.
        let nlinks = hosts + total_ports;

        let mut links: Vec<LinkState> = Vec::with_capacity(nlinks);
        // Injection links.
        for h in 0..hosts {
            let (sw, port) = topo.host_ingress(HostId::new(h as u32));
            links.push(LinkState {
                fwd_busy_until: Picos::ZERO,
                rev_busy_until: Picos::ZERO,
                fwd_busy_total: Picos::ZERO,
                credits: Self::input_credit_view(&cfg, ports[sw.index()], hosts),
                paused: false,
                arb_scheduled: false,
                up: LinkUp::Nic(h),
                down: LinkDown::Switch {
                    sw: sw.index(),
                    port: port.index(),
                },
            });
        }
        // Switch output links.
        for s in 0..nswitches {
            for p in 0..ports[s] {
                let down = match topo.next_hop(
                    topology::SwitchId::new(s as u32),
                    topology::PortId::new(p as u32),
                ) {
                    Ok((nsw, nport)) => LinkDown::Switch {
                        sw: nsw.index(),
                        port: nport.index(),
                    },
                    Err(host) => LinkDown::Host(host.index()),
                };
                let credits = match down {
                    LinkDown::Switch { sw, .. } => Self::input_credit_view(&cfg, ports[sw], hosts),
                    LinkDown::Host(_) => CreditView::Infinite,
                };
                links.push(LinkState {
                    fwd_busy_until: Picos::ZERO,
                    rev_busy_until: Picos::ZERO,
                    fwd_busy_total: Picos::ZERO,
                    credits,
                    paused: false,
                    arb_scheduled: false,
                    up: LinkUp::Switch { sw: s, port: p },
                    down,
                });
            }
        }

        let switches = (0..nswitches)
            .map(|s| {
                let np = ports[s];
                Switch {
                    inputs: (0..np)
                        .map(|_| {
                            QueueSet::new(
                                cfg.scheme,
                                PortSide::SwitchInput,
                                np as u32,
                                hosts as u32,
                                cfg.input_mem,
                            )
                        })
                        .collect(),
                    outputs: (0..np)
                        .map(|p| {
                            QueueSet::new(
                                cfg.scheme,
                                PortSide::SwitchOutput { turn: p as u8 },
                                np as u32,
                                hosts as u32,
                                cfg.output_mem,
                            )
                        })
                        .collect(),
                    in_flight: (0..np).map(|_| None).collect(),
                    out_busy: vec![false; np],
                    input_arb_scheduled: false,
                    in_rr: 0,
                    out_link: (0..np).map(|p| hosts + port_base[s] + p).collect(),
                    in_link: vec![usize::MAX; np],
                    up_ports: {
                        let r = topo.up_ports(topology::SwitchId::new(s as u32));
                        r.start as usize..r.end as usize
                    },
                    pause_sent: vec![false; np],
                }
            })
            .collect::<Vec<_>>();

        // The NIC injection queue set mirrors the ingress switch's port
        // count (VOQsw keeps one queue per downstream output port).
        let inject_ports: Vec<usize> = (0..hosts)
            .map(|h| ports[topo.host_ingress(HostId::new(h as u32)).0.index()])
            .collect();

        let mut network = Network {
            cfg,
            topo,
            switches,
            nics: sources
                .into_iter()
                .enumerate()
                .map(|(h, source)| Nic {
                    admit: std::collections::BTreeMap::new(),
                    admit_pool: crate::arena::Arena::new(),
                    admit_rr: 0,
                    inject: QueueSet::new(
                        cfg.scheme,
                        PortSide::NicInjection,
                        inject_ports[h] as u32,
                        hosts as u32,
                        cfg.nic_inject_mem,
                    ),
                    link: h,
                    transfer_scheduled: false,
                    source,
                    pending: None,
                    next_seq: vec![0; hosts],
                    flows: std::collections::BTreeMap::new(),
                })
                .collect(),
            links,
            observer,
            counters: NetCounters::default(),
            expect_seq: vec![0; hosts * hosts],
            next_packet_id: 0,
            port_base,
            saq_in: vec![0; total_ports],
            saq_out: vec![0; total_ports],
            saq_nic: vec![0; hosts],
            saq_total: 0,
            max_saq_in: 0,
            max_saq_out: 0,
            scratch: Vec::new(),
            scratch_pkts: Vec::new(),
            arn_tables: Vec::new(),
            arn_child_links: Vec::new(),
            arn_out_hot: Vec::new(),
            lazy: LazyState::default(),
            packet_size,
            flow_rx: std::collections::BTreeMap::new(),
            has_flows: false,
        };
        // Wire in_link back-pointers.
        for l in 0..network.links.len() {
            if let LinkDown::Switch { sw, port } = network.links[l].down {
                network.switches[sw].in_link[port] = l;
            }
        }
        // ARN plumbing: one notification table per switch (sized by its
        // up-ports) and, per switch, the set of child links to notify —
        // links arriving from an up-port of a switch one level down. On
        // the MIN no switch has up-ports, so every list stays empty and
        // ARN degrades to plain adaptive (itself deterministic there).
        if network.cfg.routing.is_arn() {
            network.arn_tables = network
                .switches
                .iter()
                .map(|s| ArnTable::new(s.up_ports.len()))
                .collect();
            let mut child_links = vec![Vec::new(); network.switches.len()];
            for (l, link) in network.links.iter().enumerate() {
                if let (LinkUp::Switch { sw: child, port }, LinkDown::Switch { sw: parent, .. }) =
                    (link.up, link.down)
                {
                    if network.switches[child].up_ports.contains(&port) {
                        child_links[parent].push(l);
                    }
                }
            }
            network.arn_child_links = child_links;
            network.arn_out_hot = vec![false; total_ports];
        }
        network
    }

    fn input_credit_view(cfg: &FabricConfig, ports: usize, hosts: usize) -> CreditView {
        // PFC replaces credit flow control entirely: senders transmit
        // whenever unpaused and the input port drops on overflow.
        if cfg.transport.is_pfc() {
            return CreditView::Infinite;
        }
        match cfg.scheme {
            SchemeKind::OneQ => CreditView::per_queue(cfg.input_mem, 1),
            SchemeKind::FourQ => CreditView::per_queue(cfg.input_mem, 4),
            SchemeKind::VoqSw => CreditView::per_queue(cfg.input_mem, ports),
            SchemeKind::VoqNet => CreditView::per_queue(cfg.input_mem, hosts),
            SchemeKind::Recn(_) => CreditView::pooled(cfg.input_mem),
        }
    }

    /// Seeds the initial traffic events (the first message of every
    /// source, plus a [`Event::FlowStart`] per installed flow). Call once
    /// before running the engine.
    pub fn prime(&mut self, q: &mut EventQueue<Event>) {
        for h in 0..self.nics.len() {
            if let Some(msg) = self.nics[h].source.next_message() {
                self.nics[h].pending = Some(msg);
                q.schedule(msg.at, Event::NextMessage { host: h });
            }
        }
        for h in 0..self.nics.len() {
            // Host then destination order, matching installation order.
            let starts: Vec<(u32, Picos)> = self.nics[h]
                .flows
                .iter()
                .map(|(&dst, f)| (dst, f.start))
                .collect();
            for (dst, start) in starts {
                q.schedule(start, Event::FlowStart { host: h, dst });
            }
        }
    }

    /// Convenience: wraps the network in a primed [`simcore::Engine`].
    pub fn build_engine(self) -> simcore::Engine<Network> {
        let mut engine = simcore::Engine::new(self);
        let mut queue = std::mem::take(engine.queue_mut());
        engine.model_mut().prime(&mut queue);
        *engine.queue_mut() = queue;
        engine
    }

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
            && self.switches.iter().all(|s| {
                s.inputs.iter().all(QueueSet::is_drained)
                    && s.outputs.iter().all(QueueSet::is_drained)
                    && s.in_flight.iter().all(Option::is_none)
            })
            && self
                .nics
                .iter()
                .all(|n| n.inject.is_drained() && n.admit.is_empty())
    }

    /// Estimated bytes of host-process backing storage behind this
    /// network model: queue-set slabs and per-queue arrays at their
    /// high-water allocation, NIC admittance pools, per-flow sequence
    /// arrays, link descriptors with their credit views, and the SAQ
    /// census arrays. This measures the *simulator's* memory, not
    /// simulated buffer capacity; it is deterministic for a given run
    /// (derived from slab high-water marks), so cached results replay it
    /// exactly.
    pub fn memory_footprint(&self) -> u64 {
        use std::mem::size_of;
        let mut total = 0u64;
        for s in &self.switches {
            for qs in s.inputs.iter().chain(&s.outputs) {
                total += qs.backing_bytes();
            }
            total += (s.in_flight.capacity() * size_of::<Option<XbarTransfer>>()) as u64;
            total += s.out_busy.capacity() as u64;
            total += ((s.out_link.capacity() + s.in_link.capacity()) * size_of::<usize>()) as u64;
        }
        for n in &self.nics {
            total += n.inject.backing_bytes();
            total += n.admit_pool.backing_bytes();
            // At most one admit-map entry per slab slot; charge the
            // high-water mark so a drained network still reports the peak.
            total += (n.admit_pool.slot_count()
                * (size_of::<AdmitFifo>() + size_of::<u32>() + 4 * size_of::<usize>()))
                as u64;
            total += (n.next_seq.capacity() * size_of::<u64>()) as u64;
        }
        for l in &self.links {
            total += size_of::<LinkState>() as u64 + l.credits.backing_bytes();
        }
        total += (self.expect_seq.capacity() * size_of::<u64>()) as u64;
        // Transport flow state (zero without installed flows).
        total += (self.flow_rx.len() * (size_of::<u64>() + size_of::<FlowRx>())) as u64;
        total += self
            .nics
            .iter()
            .map(|n| (n.flows.len() * (size_of::<u32>() + size_of::<FlowTx>())) as u64)
            .sum::<u64>();
        total += ((self.saq_in.capacity() + self.saq_out.capacity() + self.saq_nic.capacity())
            * size_of::<u16>()) as u64;
        total += (self.port_base.capacity() * size_of::<usize>()) as u64;
        // ARN notification state (all three vectors empty outside ArnUp,
        // so the other policies' footprints are untouched).
        total += self
            .arn_tables
            .iter()
            .map(|t| (t.len() * 16 + size_of::<ArnTable>()) as u64)
            .sum::<u64>();
        total += self
            .arn_child_links
            .iter()
            .map(|v| (v.capacity() * size_of::<usize>() + size_of::<Vec<usize>>()) as u64)
            .sum::<u64>();
        total += self.arn_out_hot.capacity() as u64;
        total
    }

    /// Mean forward-channel utilization over all links at `now`
    /// (busy-time fraction, data + control traffic).
    pub fn mean_link_utilization(&self, now: Picos) -> f64 {
        if now == Picos::ZERO || self.links.is_empty() {
            return 0.0;
        }
        let busy: f64 = self
            .links
            .iter()
            .map(|l| l.fwd_busy_total.as_ns_f64())
            .sum();
        busy / (self.links.len() as f64 * now.as_ns_f64())
    }

    /// Decimal digit count of the largest index in a sequence of `count`
    /// items — the zero-pad width that keeps labels like `sw2`/`sw10`
    /// aligned (and lexicographically ordered by index) on any topology.
    fn index_width(count: usize) -> usize {
        count.saturating_sub(1).to_string().len()
    }

    /// Label padding widths derived from the topology:
    /// `(switch, port, host)` index digit counts. Deep fabrics like the
    /// 4-ary 6-tree carry four-digit switch indices; deriving the widths
    /// here instead of hard-coding them keeps report columns aligned from
    /// `ft_64` all the way to `ft_4096d`.
    pub(crate) fn label_widths(&self) -> (usize, usize, usize) {
        (
            Self::index_width(self.switches.len()),
            Self::index_width(self.topo.max_ports() as usize),
            Self::index_width(self.nics.len()),
        )
    }

    /// The `top` most utilized links at `now`: `(description, fraction)`.
    /// Under adaptive routing every label carries an ` [adaptive]` suffix
    /// (` [arn]` under notification-driven routing), so link reports from
    /// the three policies are never mistaken for one another
    /// (deterministic labels are unchanged). Indices are zero-padded to
    /// the topology's own widths so the report stays column-aligned on
    /// deep trees.
    pub fn hottest_links(&self, now: Picos, top: usize) -> Vec<(String, f64)> {
        if now == Picos::ZERO {
            return Vec::new();
        }
        let suffix = match self.cfg.routing {
            crate::RoutingPolicy::Deterministic => "",
            crate::RoutingPolicy::AdaptiveUp { .. } => " [adaptive]",
            crate::RoutingPolicy::ArnUp { .. } => " [arn]",
        };
        let (sw_w, p_w, h_w) = self.label_widths();
        let mut all: Vec<(String, f64)> = self
            .links
            .iter()
            .map(|l| {
                let name = match (l.up, l.down) {
                    (LinkUp::Nic(h), _) => format!("inject h{h:0h_w$}{suffix}"),
                    (LinkUp::Switch { sw, port }, LinkDown::Host(h)) => {
                        format!("sw{sw:0sw_w$}.out{port:0p_w$}->h{h:0h_w$}{suffix}")
                    }
                    (LinkUp::Switch { sw, port }, LinkDown::Switch { sw: d, port: dp }) => {
                        format!("sw{sw:0sw_w$}.out{port:0p_w$}->sw{d:0sw_w$}.in{dp:0p_w$}{suffix}")
                    }
                };
                (name, l.fwd_busy_total.as_ns_f64() / now.as_ns_f64())
            })
            .collect();
        // Stable sort on a total order: equal-utilization links keep their
        // (deterministic) link-index order, so reports never flap between
        // runs.
        all.sort_by(|a, b| b.1.total_cmp(&a.1));
        all.truncate(top);
        all
    }

    /// Total SAQs allocated right now (switch ports + NIC injection ports).
    pub fn saq_total(&self) -> u32 {
        self.saq_total
    }

    /// Current SAQ census: (max per switch-input port, max per
    /// switch-output port, network total).
    pub fn saq_census(&self) -> (u32, u32, u32) {
        (self.max_saq_in, self.max_saq_out, self.saq_total)
    }

    /// Direct access to a port's queue set (tests/metrics).
    pub fn port(&self, port: PortRef) -> &QueueSet {
        match port {
            PortRef::SwitchIn { sw, port } => &self.switches[sw].inputs[port],
            PortRef::SwitchOut { sw, port } => &self.switches[sw].outputs[port],
            PortRef::Nic { host } => &self.nics[host].inject,
        }
    }

    pub(crate) fn port_mut(&mut self, port: PortRef) -> &mut QueueSet {
        match port {
            PortRef::SwitchIn { sw, port } => &mut self.switches[sw].inputs[port],
            PortRef::SwitchOut { sw, port } => &mut self.switches[sw].outputs[port],
            PortRef::Nic { host } => &mut self.nics[host].inject,
        }
    }

    /// Replaces the observer (e.g. to install probes between phases).
    pub fn set_observer(&mut self, observer: Box<dyn NetObserver>) {
        self.observer = observer;
    }

    // ------------------------------------------------------------------
    // Link helpers
    // ------------------------------------------------------------------

    /// Reports a credit consumption on `link` to the observer (no-op for
    /// infinite host-sink views, which have no meaningful balance).
    pub(crate) fn note_credit_consumed(&mut self, now: Picos, link: usize, queue: u16, bytes: u64) {
        if let Some(free) = self.links[link].credits.free_bytes(queue) {
            let cap = self.links[link].credits.queue_cap();
            self.observer
                .on_credit_change(now, link, queue, -(bytes as i64), free, cap);
        }
    }

    /// Reports a credit replenishment on `link` to the observer.
    pub(crate) fn note_credit_replenished(
        &mut self,
        now: Picos,
        link: usize,
        queue: u16,
        bytes: u64,
    ) {
        if let Some(free) = self.links[link].credits.free_bytes(queue) {
            let cap = self.links[link].credits.queue_cap();
            self.observer
                .on_credit_change(now, link, queue, bytes as i64, free, cap);
        }
    }

    /// Sends a control payload on the forward (data) channel of `link`.
    pub(crate) fn send_fwd_ctrl(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: Payload,
    ) {
        let bytes = payload.wire_bytes();
        let l = &mut self.links[link];
        let depart = l.fwd_busy_until.max(now);
        let ser = Picos::serialize_bytes(bytes, self.cfg.link_gbps);
        l.fwd_busy_until = depart + ser;
        l.fwd_busy_total += ser;
        let at = depart + ser + self.cfg.link_delay;
        if at == now {
            // Only reachable under degenerate zero-delay configs, but the
            // batch-close rule must hold for any same-time schedule.
            self.lazy_note_same_time_schedule(now);
        }
        q.schedule(at, Event::Deliver { link, payload });
    }

    /// Sends a control payload on the reverse channel of `link`.
    pub(crate) fn send_rev_ctrl(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: RevPayload,
    ) {
        let bytes = payload.wire_bytes();
        let l = &mut self.links[link];
        let depart = l.rev_busy_until.max(now);
        let ser = Picos::serialize_bytes(bytes, self.cfg.link_gbps);
        l.rev_busy_until = depart + ser;
        let at = depart + ser + self.cfg.link_delay;
        if at == now {
            self.lazy_note_same_time_schedule(now);
        }
        q.schedule(at, Event::DeliverRev { link, payload });
    }

    /// Schedules an `InputArb` for `sw` unless one is already pending.
    pub(crate) fn kick_input_arb(&mut self, now: Picos, q: &mut EventQueue<Event>, sw: usize) {
        if !self.switches[sw].input_arb_scheduled {
            self.switches[sw].input_arb_scheduled = true;
            if self.cfg.event_model == EventModel::Lazy {
                self.lazy_push(now, q, Wakeup::InputArb { sw });
            } else {
                q.schedule(now, Event::InputArb { sw });
            }
        }
    }

    /// Schedules a `NicTransfer` unless pending.
    pub(crate) fn kick_nic_transfer(&mut self, now: Picos, q: &mut EventQueue<Event>, host: usize) {
        if !self.nics[host].transfer_scheduled {
            self.nics[host].transfer_scheduled = true;
            if self.cfg.event_model == EventModel::Lazy {
                self.lazy_push(now, q, Wakeup::NicTransfer { host });
            } else {
                q.schedule(now, Event::NicTransfer { host });
            }
        }
    }

    // ------------------------------------------------------------------
    // Lazy event model: wakeup coalescing
    // ------------------------------------------------------------------

    /// Appends a same-time wakeup to the FIFO, opening a new batch (with
    /// its announcing [`Event::Sweep`]) if the tail batch is closed.
    fn lazy_push(&mut self, now: Picos, q: &mut EventQueue<Event>, w: Wakeup) {
        let lz = &mut self.lazy;
        if lz.round != now {
            debug_assert!(
                lz.fifo.is_empty() && !lz.draining,
                "wakeup FIFO must drain before time advances"
            );
            lz.round = now;
            lz.open = false;
        }
        if lz.open {
            lz.fifo.push_back(Some(w));
        } else {
            // A boundary marker keeps this batch out of a sweep that is
            // still draining an earlier batch (or mid-drain with the FIFO
            // momentarily empty) — the new batch's own sweep owns it.
            if lz.draining || !lz.fifo.is_empty() {
                lz.fifo.push_back(None);
            }
            lz.fifo.push_back(Some(w));
            lz.open = true;
            q.schedule(now, Event::Sweep);
        }
    }

    /// Hook for handlers that schedule a *non-wakeup* event at the current
    /// time (today: a source whose next message is due immediately). The
    /// open batch must close so that any later kick sorts after the event
    /// just scheduled, exactly as its eager counterpart would.
    pub(crate) fn lazy_note_same_time_schedule(&mut self, now: Picos) {
        if self.cfg.event_model == EventModel::Lazy && self.lazy.round == now {
            self.lazy.open = false;
        }
    }

    /// Dispatches one batch of coalesced wakeups. Each member runs through
    /// the same handler its eager event would have, in the same relative
    /// order; members kicked *during* the drain join the open tail batch
    /// (their eager events would also have sorted last).
    fn on_sweep(&mut self, now: Picos, q: &mut EventQueue<Event>) {
        debug_assert_eq!(self.lazy.round, now, "sweep outlived its round");
        self.lazy.draining = true;
        loop {
            match self.lazy.fifo.pop_front() {
                Some(Some(w)) => match w {
                    Wakeup::InputArb { sw } => self.on_input_arb(now, q, sw),
                    Wakeup::EgressArb { link } => self.on_egress_arb(now, q, link),
                    Wakeup::NicTransfer { host } => self.on_nic_transfer(now, q, host),
                },
                // Batch boundary: the next batch's sweep is already queued.
                Some(None) => break,
                None => {
                    // Drained the open tail batch; the next kick starts a
                    // fresh batch with a fresh sweep.
                    self.lazy.open = false;
                    break;
                }
            }
        }
        self.lazy.draining = false;
    }

    // ------------------------------------------------------------------
    // Deliveries
    // ------------------------------------------------------------------

    fn on_deliver(&mut self, now: Picos, q: &mut EventQueue<Event>, link: usize, payload: Payload) {
        match self.links[link].down {
            LinkDown::Host(h) => self.deliver_to_host(now, q, h, payload),
            LinkDown::Switch { sw, port } => match payload {
                Payload::Data { pkt, target_queue } => {
                    self.switch_input_arrival(now, q, sw, port, pkt, target_queue)
                }
                Payload::RecnAck { path, line } => {
                    self.ingress_recn_ack(now, q, sw, port, path, line)
                }
                Payload::RecnReject { path } => self.ingress_recn_reject(now, q, sw, port, path),
                Payload::RecnToken { path } => self.ingress_recn_token(now, q, sw, port, path),
            },
        }
    }

    fn deliver_to_host(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        host: usize,
        payload: Payload,
    ) {
        let Payload::Data { pkt, .. } = payload else {
            unreachable!("delivery links never carry RECN control traffic");
        };
        assert_eq!(
            pkt.dst.index(),
            host,
            "misrouted packet: {} at host {host}",
            pkt.dst
        );
        assert!(
            pkt.route.is_exhausted(),
            "packet delivered with unconsumed turns"
        );
        // Closed-loop flows bypass the expect_seq check: duplicates and
        // gaps are legal under retransmission, and the transport receiver
        // does its own sequence accounting.
        if self.has_flows && self.flow_rx.contains_key(&flow::flow_key(&pkt)) {
            self.transport_receive(now, q, pkt);
            return;
        }
        let hosts = self.topo.num_hosts() as usize;
        let flow = pkt.src.index() * hosts + pkt.dst.index();
        let expected = self.expect_seq[flow];
        if pkt.flow_seq != expected {
            self.counters.order_violations += 1;
            assert!(
                !self.cfg.strict_order,
                "out-of-order delivery on flow {}->{}: got {}, expected {expected}",
                pkt.src, pkt.dst, pkt.flow_seq
            );
            // Resynchronize past the gap.
            self.expect_seq[flow] = self.expect_seq[flow].max(pkt.flow_seq + 1);
        } else {
            self.expect_seq[flow] = expected + 1;
        }
        self.counters.delivered_packets += 1;
        self.counters.delivered_bytes += pkt.size as u64;
        let latency = now.saturating_sub(pkt.injected_at);
        self.counters.latency_ns.push(latency.as_ns_f64());
        self.observer.on_delivered(now, &pkt);
    }

    fn on_deliver_rev(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: RevPayload,
    ) {
        match payload {
            RevPayload::Credit { queue, bytes } => {
                self.links[link].credits.replenish(queue, bytes as u64);
                self.note_credit_replenished(now, link, queue, bytes as u64);
                self.kick_egress_arb(now, now, q, link);
            }
            RevPayload::RecnNotification { path } => {
                self.egress_recn_notification(now, q, link, path)
            }
            RevPayload::RecnXoff { path } => {
                self.counters.xoffs += 1;
                self.egress_set_remote_xoff(link, path, true);
            }
            RevPayload::RecnXon { path } => {
                self.counters.xons += 1;
                self.egress_set_remote_xoff(link, path, false);
                // The SAQ may transmit again.
                self.kick_egress_arb(now, now, q, link);
            }
            RevPayload::PfcPause => {
                self.links[link].paused = true;
                self.observer.on_pause_change(now, link, true);
            }
            RevPayload::PfcResume => {
                self.links[link].paused = false;
                self.observer.on_pause_change(now, link, false);
                // The transmitter may send again.
                self.kick_egress_arb(now, now, q, link);
            }
            RevPayload::ArnHot => self.on_arn_notification(now, link, true),
            RevPayload::ArnCold => self.on_arn_notification(now, link, false),
        }
    }

    // ------------------------------------------------------------------
    // ARN: congestion notifications (RoutingPolicy::ArnUp)
    // ------------------------------------------------------------------

    /// An ARN notification arrived at the upstream end of `link`: the
    /// switch one level up (reached through this link) gained (`hot`) or
    /// lost a congested root. The table entry of the up-port the link
    /// hangs off absorbs it; `select_up_port` reads the table on the next
    /// rebindable head-of-line packet — no rerouting event is needed.
    fn on_arn_notification(&mut self, now: Picos, link: usize, hot: bool) {
        let LinkUp::Switch { sw, port } = self.links[link].up else {
            unreachable!("ARN notifications only travel switch-to-switch links");
        };
        let slot = port - self.switches[sw].up_ports.start;
        if hot {
            self.arn_tables[sw].note_hot(slot, now);
        } else {
            self.arn_tables[sw].note_cold(slot);
        }
    }

    /// Broadcasts one ARN notification from `sw` to every child switch
    /// (the reverse channel of each child link, consuming modeled
    /// bandwidth like any other control message). No-op unless the run
    /// is under `RoutingPolicy::ArnUp`; leaf switches have no child
    /// switches and broadcast to nobody.
    pub(crate) fn arn_broadcast(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        hot: bool,
    ) {
        if self.arn_child_links.is_empty() {
            return;
        }
        for i in 0..self.arn_child_links[sw].len() {
            let link = self.arn_child_links[sw][i];
            let payload = if hot {
                RevPayload::ArnHot
            } else {
                RevPayload::ArnCold
            };
            self.send_rev_ctrl(now, q, link, payload);
            if hot {
                self.counters.arn_hot_notifications += 1;
            } else {
                self.counters.arn_cold_notifications += 1;
            }
        }
    }

    /// Non-RECN ARN trigger (the ARN paper's): output-port occupancy
    /// crossing [`ARN_HOT_BYTES`] upward broadcasts `ArnHot`, draining to
    /// [`ARN_COLD_BYTES`] broadcasts the matching `ArnCold`. Called after
    /// every output enqueue and dequeue; the hysteresis gap keeps a queue
    /// hovering at the threshold from spraying notification pairs. Under
    /// RECN the congested-root CAM itself drives notifications instead
    /// (see `note_root_change`), so this is a no-op there.
    pub(crate) fn arn_occupancy_check(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
    ) {
        if self.arn_out_hot.is_empty() || matches!(self.cfg.scheme, SchemeKind::Recn(_)) {
            return;
        }
        let used = self.switches[sw].outputs[port].used();
        let idx = self.port_base[sw] + port;
        if !self.arn_out_hot[idx] && used >= ARN_HOT_BYTES {
            self.arn_out_hot[idx] = true;
            self.arn_broadcast(now, q, sw, true);
        } else if self.arn_out_hot[idx] && used <= ARN_COLD_BYTES {
            self.arn_out_hot[idx] = false;
            self.arn_broadcast(now, q, sw, false);
        }
    }

    /// Sum over every switch of the live (unexpired) notification counts —
    /// nonzero while any ARN table would still bias an up-port choice.
    /// Always zero outside `RoutingPolicy::ArnUp`.
    pub fn arn_live_total(&self, now: Picos) -> u64 {
        self.arn_tables.iter().map(|t| t.live_total(now)).sum()
    }
}

impl SimModel for Network {
    type Event = Event;

    fn handle(&mut self, now: Picos, event: Event, q: &mut EventQueue<Event>) {
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
            Event::FlowStart { host, dst } => self.on_flow_start(now, q, host, dst),
            Event::TransportAck {
                host,
                dst,
                cum,
                nack,
            } => self.on_transport_ack(now, q, host, dst, cum, nack),
            Event::TransportTimeout { host, dst, gen } => {
                self.on_transport_timeout(now, q, host, dst, gen)
            }
            Event::Sweep => self.on_sweep(now, q),
        }
    }
}

/// A paper-configured network builder shortcut used across tests and
/// examples. Accepts any topology parameters (`MinParams`,
/// `FatTreeParams`, or `TopoParams`).
///
/// ```
/// use fabric::{paper_network, SchemeKind};
/// use topology::{FatTreeParams, MinParams};
///
/// let net = paper_network(MinParams::paper_64(), SchemeKind::VoqNet, 64);
/// assert_eq!(net.topology().params().hosts(), 64);
/// let ft = paper_network(FatTreeParams::ft_64(), SchemeKind::VoqNet, 64);
/// assert_eq!(ft.topology().params().name(), "fattree");
/// ```
pub fn paper_network(
    params: impl Into<TopoParams>,
    scheme: SchemeKind,
    packet_size: u32,
) -> Network {
    let params = params.into();
    let sources: Vec<Box<dyn MessageSource>> = (0..params.hosts())
        .map(|_| Box::new(crate::source::SilentSource) as Box<dyn MessageSource>)
        .collect();
    Network::new(
        params,
        FabricConfig::paper(scheme),
        packet_size,
        sources,
        Box::new(NullObserver),
    )
}
