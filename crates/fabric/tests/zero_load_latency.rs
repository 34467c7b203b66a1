//! Exact zero-load latency. A packet alone in the fabric waits for nothing:
//! it takes, on every link, its serialisation at the link rate plus the
//! link delay, and in every switch its transfer through the crossbar. Its
//! latency is that sum, computed here from the fabric's rate constants,
//! [`FabricConfig`]'s link delay and the topology's shape in plain integer
//! picoseconds — no simulator time arithmetic — and asserted to the
//! picosecond for every packet on the paper's MINs and two fat trees, under
//! every routing policy and queueing scheme, for 64 B and 512 B packets.

use std::cell::RefCell;
use std::rc::Rc;

use fabric::{
    FabricConfig, HookSet, MessageSource, NetObserver, Network, Packet, RoutingPolicy, SchemeKind,
    ScriptSource, SourcedMessage, LINK_GBPS, XBAR_GBPS,
};
use recn::RecnConfig;
use simcore::Picos;
use topology::{FatTreeParams, HostId, MinParams, TopoParams};

/// Far longer than a packet's flight and its credit's return: each packet
/// has the fabric to itself.
const GAP: Picos = Picos::from_us(10);

/// Whole picoseconds to move `bytes` at `gbps`, rounded up.
fn serialisation_ps(bytes: u64, gbps: u64) -> u64 {
    (bytes * 8 * 1_000).div_ceil(gbps)
}

/// A lone packet's latency across `switches` switches, and so across one
/// more link than that.
fn zero_load_ps(cfg: &FabricConfig, bytes: u64, switches: u64) -> u64 {
    let link = serialisation_ps(bytes, LINK_GBPS) + cfg.link_delay.as_ps();
    let xbar = serialisation_ps(bytes, XBAR_GBPS);
    (switches + 1) * link + switches * xbar
}

/// How many switches a packet from `src` to `dst` crosses.
fn switches_on_path(params: TopoParams, src: u64, dst: u64) -> u64 {
    match params {
        // Every path crosses every stage.
        TopoParams::Min(p) => u64::from(p.stages()),
        // Up to the nearest common ancestor and down again: its level is
        // the highest base-k digit in which the two hosts differ.
        TopoParams::FatTree(p) => {
            let (k, n) = (u64::from(p.k()), p.n());
            let digit = |h: u64, i: u32| h / k.pow(i) % k;
            let nca = (0..n).rev().find(|&i| digit(src, i) != digit(dst, i));
            2 * u64::from(nca.unwrap_or(0)) + 1
        }
    }
}

/// Every delivered packet's source, destination and latency in ps.
#[derive(Clone, Default)]
struct Deliveries(Rc<RefCell<Vec<(u64, u64, u64)>>>);

impl NetObserver for Deliveries {
    fn on_delivered(&mut self, now: Picos, pkt: &Packet) {
        let (src, dst) = (pkt.src.index() as u64, pkt.dst.index() as u64);
        let latency = (now - pkt.injected_at).as_ps();
        self.0.borrow_mut().push((src, dst, latency));
    }

    fn interests(&self) -> HookSet {
        HookSet::NONE.on_delivered()
    }
}

/// Two one-packet messages per host, one `GAP` apart each in turn: to a
/// scattered host and to the mirror-image one, which between them reach
/// every level of a fat tree.
fn lone_packets(hosts: u64, bytes: u32) -> Vec<Box<dyn MessageSource>> {
    (0..hosts)
        .map(|h| {
            let dsts = [(h * 37 + 11) % hosts, hosts - 1 - h];
            let script = (0..2)
                .map(|j| SourcedMessage {
                    at: Picos::new(GAP.as_ps() * (2 * h + j + 1)),
                    dst: HostId::new(dsts[j as usize] as u32),
                    bytes,
                })
                .collect();
            Box::new(ScriptSource::new(script)) as Box<dyn MessageSource>
        })
        .collect()
}

fn schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::OneQ,
        SchemeKind::FourQ,
        SchemeKind::VoqSw,
        SchemeKind::VoqNet,
        SchemeKind::Recn(RecnConfig::default()),
    ]
}

fn routings() -> [RoutingPolicy; 3] {
    [
        RoutingPolicy::Deterministic,
        RoutingPolicy::adaptive(),
        RoutingPolicy::arn(),
    ]
}

/// Runs every scheme × routing policy × packet size on `params` and checks
/// each packet's latency against the sum of its hops.
fn assert_zero_load_latency(params: TopoParams, paper: fn(SchemeKind) -> FabricConfig) {
    let hosts = u64::from(params.hosts());
    for scheme in schemes() {
        for routing in routings() {
            for bytes in [64, 512] {
                let cfg = paper(scheme).with_routing(routing);
                if scheme == SchemeKind::VoqNet && cfg.port_mem / hosts < u64::from(bytes) {
                    // A queue per destination smaller than one packet is
                    // never granted one (VOQnet's 512 B packets on 512
                    // hosts).
                    continue;
                }
                let seen = Deliveries::default();
                let sources = lone_packets(hosts, bytes);
                let net = Network::new(params, cfg, bytes, sources, Box::new(seen.clone()));
                let mut engine = net.build_engine();
                engine.run_to_completion();
                let seen = seen.0.take();
                let case = format!("{} {} {bytes} B", scheme.name(), routing.name());
                assert_eq!(seen.len() as u64, 2 * hosts, "{case}: delivered");
                for (src, dst, latency) in seen {
                    let switches = switches_on_path(params, src, dst);
                    let expect = zero_load_ps(&cfg, u64::from(bytes), switches);
                    assert_eq!(latency, expect, "{case}: {src} → {dst}");
                }
            }
        }
    }
}

#[test]
fn the_hop_sum_on_the_paper_constants() {
    // 8 Gbps links with 20 ns of delay, a 12 Gbps crossbar: 84 ns a link
    // and 42.667 ns a switch for 64 B, so 464.001 ns across MIN-64.
    let cfg = FabricConfig::paper(SchemeKind::OneQ);
    assert_eq!(zero_load_ps(&cfg, 64, 3), 4 * 84_000 + 3 * 42_667);
    assert_eq!(zero_load_ps(&cfg, 512, 1), 2 * 532_000 + 341_334);
    let ft = TopoParams::from(FatTreeParams::ft_64());
    assert_eq!(switches_on_path(ft, 5, 5), 1);
    assert_eq!(switches_on_path(ft, 4, 7), 1);
    assert_eq!(switches_on_path(ft, 4, 8), 3);
    assert_eq!(switches_on_path(ft, 4, 63), 5);
}

#[test]
fn min64_zero_load_latency_is_the_hop_sum() {
    assert_zero_load_latency(MinParams::paper_64().into(), FabricConfig::paper);
}

#[test]
fn min256_zero_load_latency_is_the_hop_sum() {
    assert_zero_load_latency(MinParams::paper_256().into(), FabricConfig::paper);
}

#[test]
fn ft64_zero_load_latency_is_the_hop_sum() {
    assert_zero_load_latency(FatTreeParams::ft_64().into(), FabricConfig::paper);
}

#[test]
fn ft512_zero_load_latency_is_the_hop_sum() {
    assert_zero_load_latency(FatTreeParams::ft_512().into(), FabricConfig::paper_512);
}
