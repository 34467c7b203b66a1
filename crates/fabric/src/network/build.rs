//! Construction: wiring a [`Topology`](topology::Topology) into switches,
//! NICs and links, and seeding the first events.

use simcore::{EventQueue, Picos};
use topology::{HostId, PortId, SwitchId, TopoParams};

use crate::arn::ArnTable;
use crate::config::{FabricConfig, SchemeKind};
use crate::credit::CreditView;
use crate::observer::{NetObserver, NullObserver};
use crate::queue::{PortSide, QueueSet};
use crate::source::MessageSource;

use super::{
    ArbiterSummary, Event, LinkDown, LinkState, LinkUp, NetCounters, Network, Nic, SaqCensus,
    Switch,
};

impl LinkState {
    fn new(credits: CreditView, up: LinkUp, down: LinkDown) -> LinkState {
        LinkState {
            fwd_busy_until: Picos::ZERO,
            rev_busy_until: Picos::ZERO,
            fwd_busy_total: Picos::ZERO,
            credits,
            paused: false,
            arb_scheduled: false,
            up,
            down,
        }
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
            .map(|s| topo.ports(SwitchId::new(s as u32)) as usize)
            .collect();
        let mut port_base = Vec::with_capacity(nswitches);
        let mut total_ports = 0usize;
        for &np in &ports {
            port_base.push(total_ports);
            total_ports += np;
        }

        // Links: 0..hosts are injection links; then one per switch output
        // port, in (switch, port) order.
        let mut links: Vec<LinkState> = Vec::with_capacity(hosts + total_ports);
        for h in 0..hosts {
            let (sw, port) = topo.host_ingress(HostId::new(h as u32));
            links.push(LinkState::new(
                Self::input_credit_view(&cfg, ports[sw.index()], hosts),
                LinkUp::Nic(h),
                LinkDown::Switch {
                    sw: sw.index(),
                    port: port.index(),
                },
            ));
        }
        for s in 0..nswitches {
            for p in 0..ports[s] {
                let (down, credits) =
                    match topo.next_hop(SwitchId::new(s as u32), PortId::new(p as u32)) {
                        Ok((nsw, nport)) => (
                            LinkDown::Switch {
                                sw: nsw.index(),
                                port: nport.index(),
                            },
                            Self::input_credit_view(&cfg, ports[nsw.index()], hosts),
                        ),
                        Err(host) => (LinkDown::Host(host.index()), CreditView::Infinite),
                    };
                links.push(LinkState::new(
                    credits,
                    LinkUp::Switch { sw: s, port: p },
                    down,
                ));
            }
        }

        let queue_set = |side, np: usize| {
            QueueSet::new(cfg.scheme, side, np as u32, hosts as u32, cfg.port_mem)
        };
        let switches = (0..nswitches)
            .map(|s| {
                let np = ports[s];
                Switch {
                    inputs: (0..np)
                        .map(|_| queue_set(PortSide::SwitchInput, np))
                        .collect(),
                    outputs: (0..np)
                        .map(|p| queue_set(PortSide::SwitchOutput { turn: p as u8 }, np))
                        .collect(),
                    in_flight: (0..np).map(|_| None).collect(),
                    arb: ArbiterSummary::new(),
                    input_arb_scheduled: false,
                    in_rr: 0,
                    out_link: (0..np).map(|p| hosts + port_base[s] + p).collect(),
                    in_link: vec![usize::MAX; np],
                    up_ports: {
                        let r = topo.up_ports(SwitchId::new(s as u32));
                        r.start as usize..r.end as usize
                    },
                    pause_sent: vec![false; np],
                }
            })
            .collect::<Vec<_>>();

        let nics = sources
            .into_iter()
            .enumerate()
            .map(|(h, source)| {
                // The injection queue set mirrors the ingress switch's port
                // count (VOQsw keeps one queue per downstream output port).
                let np = ports[topo.host_ingress(HostId::new(h as u32)).0.index()];
                Nic {
                    admit: Vec::new(),
                    admit_pool: crate::arena::Arena::new(),
                    admit_rr: 0,
                    inject: queue_set(PortSide::NicInjection, np),
                    link: h,
                    transfer_scheduled: false,
                    source,
                    pending: None,
                    flows: std::collections::BTreeMap::new(),
                }
            })
            .collect();

        let max_saqs = match cfg.scheme {
            SchemeKind::Recn(r) => r.max_saqs,
            _ => 0,
        };

        let mut network = Network {
            cfg,
            topo,
            switches,
            nics,
            links,
            interests: observer.interests(),
            observer,
            counters: NetCounters::default(),
            flow_seq: Default::default(),
            next_packet_id: 0,
            port_base,
            census: SaqCensus::new(total_ports, max_saqs),
            scratch: Vec::new(),
            scratch_pkts: Vec::new(),
            arn_tables: Vec::new(),
            arn_child_links: Vec::new(),
            arn_out_hot: Vec::new(),
            lazy: Default::default(),
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
            SchemeKind::Recn(_) => CreditView::pooled(cfg.port_mem),
            scheme => CreditView::per_queue(cfg.port_mem, scheme.queues_per_port(ports, hosts)),
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
        for (h, nic) in self.nics.iter().enumerate() {
            // Host then destination order, matching installation order.
            for (&dst, f) in &nic.flows {
                q.schedule(f.start, Event::FlowStart { host: h, dst });
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
