//! End-to-end fabric tests: every scheme must deliver all traffic, keep
//! per-flow order (except 4Q), never overflow a buffer (asserted inside the
//! model), and — for RECN — reclaim every SAQ once congestion subsides.
//!
//! Every run here also rides a [`ValidatingObserver`], so the full set of
//! lossless invariants (packet conservation, credit ledgers, SAQ lifecycle
//! balance, monotone time) is cross-checked event by event.
//!
//! Most scenarios are scripted; `random_scripts_conserve_balance_and_replay`
//! drives seeded random bursty scripts through every scheme.

use fabric::{
    assert_recn_idle, ConstantRateSource, Event, EventModel, FabricConfig, FanoutObserver, HookSet,
    MessageSource, NetObserver, Network, Packet, PortRef, QueueItem, QueueKind, QueueSet,
    RoutingPolicy, SaqSite, SchemeKind, ScriptSource, SilentSource, SourcedMessage, TraceSink,
    ValidatingObserver, ValidatorHandle,
};
use recn::RecnConfig;
use simcore::{EventQueue, Picos, SimModel, Xoshiro256};
use std::cell::RefCell;
use std::rc::Rc;
use topology::{FatTreeParams, HostId, MinParams, PathSpec, SwitchId, TopoParams};

/// An online invariant checker for one run: panics mid-simulation on the
/// first violation, and the handle lets drained runs assert emptiness.
fn validator() -> (Box<dyn NetObserver>, ValidatorHandle) {
    let (v, h) = ValidatingObserver::new();
    (Box::new(v), h)
}

fn schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::OneQ,
        SchemeKind::FourQ,
        SchemeKind::VoqSw,
        SchemeKind::VoqNet,
        SchemeKind::Recn(test_recn_config()),
    ]
}

/// RECN thresholds scaled down so small tests actually exercise the
/// protocol (the paper-scale defaults need tens of KB of queue buildup).
fn test_recn_config() -> RecnConfig {
    RecnConfig {
        max_saqs: 8,
        detection_threshold: 2 * 1024,
        propagation_threshold: 512,
        xoff_threshold: 1024,
        xon_threshold: 256,
        drain_boost_pkts: 2,
        root_clear_threshold: 1024,
    }
}

/// Uniform random message scripts: every host sends `msgs` messages of
/// `bytes` bytes to random destinations at `rate_bytes_per_ns`.
fn random_sources(
    hosts: u32,
    msgs: usize,
    bytes: u32,
    rate_bytes_per_ns: f64,
    seed: u64,
) -> Vec<Box<dyn MessageSource>> {
    let mut rng = Xoshiro256::new(seed);
    (0..hosts)
        .map(|_| {
            let mut r = rng.fork();
            let interval = Picos::new((bytes as f64 / rate_bytes_per_ns * 1000.0) as u64);
            let mut at = Picos::ZERO;
            let script: Vec<SourcedMessage> = (0..msgs)
                .map(|_| {
                    let dst = HostId::new(r.next_below(hosts as u64) as u32);
                    let m = SourcedMessage { at, dst, bytes };
                    at += interval;
                    m
                })
                .collect();
            Box::new(ScriptSource::new(script)) as Box<dyn MessageSource>
        })
        .collect()
}

fn run_to_drain(net: Network) -> Network {
    let mut engine = net.build_engine();
    engine.run_to_completion();
    engine.into_model()
}

#[test]
fn all_schemes_deliver_uniform_traffic() {
    for scheme in schemes() {
        let params = MinParams::new(16, 4, 2);
        let sources = random_sources(16, 200, 64, 0.5, 42);
        let (obs, vh) = validator();
        let net = Network::new(params, FabricConfig::paper(scheme), 64, sources, obs);
        let net = run_to_drain(net);
        vh.assert_drained();
        let c = net.counters();
        assert_eq!(c.injected_packets, 16 * 200, "{}", scheme.name());
        assert_eq!(c.delivered_packets, c.injected_packets, "{}", scheme.name());
        assert!(net.is_quiescent(), "{} left residue", scheme.name());
        if scheme.preserves_order() {
            assert_eq!(c.order_violations, 0, "{} reordered", scheme.name());
        }
        assert!(c.latency_ns.mean() > 0.0);
    }
}

/// Counts six hooks — `[injected, hop, enqueue, dequeue, credit,
/// delivered]` — and asks for the set it was given.
struct Asks(HookSet, Rc<RefCell<[u64; 6]>>);

impl NetObserver for Asks {
    fn on_injected(&mut self, _: Picos, _: &Packet) {
        self.1.borrow_mut()[0] += 1;
    }
    fn on_hop(&mut self, _: Picos, _: &Packet, _: usize) {
        self.1.borrow_mut()[1] += 1;
    }
    fn on_enqueue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
        self.1.borrow_mut()[2] += 1;
    }
    fn on_dequeue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
        self.1.borrow_mut()[3] += 1;
    }
    fn on_credit_change(&mut self, _: Picos, _: usize, _: u16, _: i64, _: u64, _: Option<u64>) {
        self.1.borrow_mut()[4] += 1;
    }
    fn on_delivered(&mut self, _: Picos, _: &Packet) {
        self.1.borrow_mut()[5] += 1;
    }
    fn interests(&self) -> HookSet {
        self.0
    }
}

#[test]
fn the_network_calls_the_hooks_its_observer_asked_for_and_no_other() {
    let calls_with = |asked: HookSet| {
        let calls = Rc::new(RefCell::new([0; 6]));
        // Inside a fan-out, as every run's observer is.
        let fan = FanoutObserver::new().push(Box::new(Asks(asked, calls.clone())));
        let params = MinParams::new(16, 4, 2);
        let sources = random_sources(16, 50, 64, 0.5, 7);
        let cfg = FabricConfig::paper(SchemeKind::Recn(test_recn_config()));
        let net = run_to_drain(Network::new(params, cfg, 64, sources, Box::new(fan)));
        assert_eq!(net.counters().delivered_packets, 16 * 50);
        let calls = *calls.borrow();
        calls
    };
    let all = calls_with(HookSet::ALL);
    assert_eq!((all[0], all[5]), (800, 800));
    assert!(all.iter().all(|&n| n >= 800), "{all:?}");
    let [_, hops, _, _, credits, _] = all;
    assert_eq!(calls_with(HookSet::NONE), [0; 6]);
    assert_eq!(
        calls_with(HookSet::NONE.on_delivered()),
        [0, 0, 0, 0, 0, 800]
    );
    assert_eq!(
        calls_with(HookSet::NONE.on_hop().on_credit_change()),
        [0, hops, 0, 0, credits, 0]
    );
}

#[test]
fn all_schemes_deliver_with_512_byte_packets() {
    for scheme in schemes() {
        let params = MinParams::new(16, 4, 2);
        // 2 KB messages packetized into 512-byte packets.
        let sources = random_sources(16, 50, 2048, 0.5, 7);
        let (obs, vh) = validator();
        let net = Network::new(params, FabricConfig::paper(scheme), 512, sources, obs);
        let net = run_to_drain(net);
        vh.assert_drained();
        let c = net.counters();
        assert_eq!(c.injected_packets, 16 * 50 * 4, "{}", scheme.name());
        assert_eq!(c.delivered_packets, c.injected_packets, "{}", scheme.name());
        assert!(net.is_quiescent());
    }
}

#[test]
fn three_stage_network_delivers() {
    for scheme in [SchemeKind::VoqSw, SchemeKind::Recn(test_recn_config())] {
        let params = MinParams::paper_64();
        let sources = random_sources(64, 50, 64, 0.5, 99);
        let (obs, vh) = validator();
        let net = Network::new(params, FabricConfig::paper(scheme), 64, sources, obs);
        let net = run_to_drain(net);
        vh.assert_drained();
        assert_eq!(net.counters().delivered_packets, 64 * 50);
        assert_eq!(net.counters().order_violations, 0);
        assert!(net.is_quiescent());
    }
}

/// Builds the HOL-blocking scenario: congestors swamp one destination while
/// a victim flow shares queues with them but targets an idle destination.
fn hotspot_sources(
    hosts: u32,
    congestors: &[u32],
    hot_dst: u32,
    victim: u32,
    victim_dst: u32,
    until: Picos,
) -> Vec<Box<dyn MessageSource>> {
    (0..hosts)
        .map(|h| {
            if congestors.contains(&h) {
                Box::new(ConstantRateSource::new(
                    HostId::new(hot_dst),
                    64,
                    Picos::from_ns(64), // full link rate
                    Picos::ZERO,
                    until,
                )) as Box<dyn MessageSource>
            } else if h == victim {
                Box::new(ConstantRateSource::new(
                    HostId::new(victim_dst),
                    64,
                    Picos::from_ns(64),
                    Picos::ZERO,
                    until,
                )) as Box<dyn MessageSource>
            } else {
                Box::new(SilentSource) as Box<dyn MessageSource>
            }
        })
        .collect()
}

/// Victim throughput per scheme under a sustained hotspot. dst 12 and the
/// hotspot dst 15 share the same last-stage switch, so the victim's packets
/// cross the congestion tree's region without contributing to it.
fn victim_delivered(scheme: SchemeKind) -> u64 {
    let params = MinParams::new(16, 4, 2);
    let horizon = Picos::from_us(300);
    let sources = hotspot_sources(16, &[0, 1, 2, 3, 4, 5], 15, 8, 12, horizon);
    struct VictimCount(std::rc::Rc<std::cell::Cell<u64>>);
    impl fabric::NetObserver for VictimCount {
        fn on_delivered(&mut self, _now: Picos, pkt: &fabric::Packet) {
            if pkt.dst == HostId::new(12) {
                self.0.set(self.0.get() + pkt.size as u64);
            }
        }
    }
    let count = std::rc::Rc::new(std::cell::Cell::new(0));
    let (obs, _vh) = validator();
    let fan = FanoutObserver::new()
        .push(obs)
        .push(Box::new(VictimCount(count.clone())));
    let net = Network::new(
        params,
        FabricConfig::paper(scheme),
        64,
        sources,
        Box::new(fan),
    );
    let mut engine = net.build_engine();
    engine.run_until(horizon);
    count.get()
}

#[test]
fn recn_shields_victim_from_hotspot() {
    let recn = victim_delivered(SchemeKind::Recn(test_recn_config()));
    let oneq = victim_delivered(SchemeKind::OneQ);
    let voqnet = victim_delivered(SchemeKind::VoqNet);
    // RECN must decisively beat 1Q and come close to the VOQnet bound.
    assert!(
        recn as f64 > 2.0 * oneq as f64,
        "RECN {recn} should be well above 1Q {oneq}"
    );
    assert!(
        recn as f64 > 0.8 * voqnet as f64,
        "RECN {recn} should approach VOQnet {voqnet}"
    );
}

#[test]
fn recn_reclaims_all_resources_after_congestion() {
    let params = MinParams::new(16, 4, 2);
    let burst_end = Picos::from_us(150);
    let sources = hotspot_sources(16, &[0, 1, 2, 3, 4, 5], 15, 8, 12, burst_end);
    let (obs, vh) = validator();
    let net = Network::new(
        params,
        FabricConfig::paper(SchemeKind::Recn(test_recn_config())),
        64,
        sources,
        obs,
    );
    let net = run_to_drain(net);
    vh.assert_drained();
    let (va, vd) = vh.saq_balance();
    assert!(
        va > 0 && va == vd,
        "validator saw {va} allocs / {vd} deallocs"
    );
    let c = net.counters();
    assert!(c.root_activations > 0, "the hotspot must trigger detection");
    assert!(c.saq_allocs > 0, "SAQs must be allocated");
    assert_eq!(c.saq_allocs, c.saq_deallocs, "every SAQ must be reclaimed");
    assert_eq!(c.root_activations, c.root_clears, "every root must clear");
    assert_eq!(c.delivered_packets, c.injected_packets);
    assert_eq!(c.order_violations, 0);
    assert!(net.is_quiescent());
    assert_recn_idle(&net);
    assert_eq!(
        net.saq_census(),
        (net.saq_census().0, net.saq_census().1, 0)
    );
}

#[test]
fn recn_tracks_saq_census_peaks() {
    let params = MinParams::new(16, 4, 2);
    let burst_end = Picos::from_us(100);
    let sources = hotspot_sources(16, &[0, 1, 2, 3, 4, 5], 15, 8, 12, burst_end);
    struct Peak {
        max_total: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl fabric::NetObserver for Peak {
        fn on_saq_census(&mut self, _now: Picos, _mi: u32, _me: u32, total: u32) {
            if total > self.max_total.get() {
                self.max_total.set(total);
            }
        }
    }
    let peak = std::rc::Rc::new(std::cell::Cell::new(0));
    let (obs, vh) = validator();
    let fan = FanoutObserver::new().push(obs).push(Box::new(Peak {
        max_total: peak.clone(),
    }));
    let net = Network::new(
        params,
        FabricConfig::paper(SchemeKind::Recn(test_recn_config())),
        64,
        sources,
        Box::new(fan),
    );
    let net = run_to_drain(net);
    vh.assert_drained();
    assert!(peak.get() > 0, "census must observe allocations");
    assert_eq!(net.saq_total(), 0, "census returns to zero");
}

#[test]
fn saturating_uniform_traffic_is_lossless_everywhere() {
    // All hosts at 100% injection — the network saturates internally; the
    // lossless asserts inside the model are the real check here.
    for scheme in schemes() {
        let params = MinParams::new(16, 4, 2);
        let sources = random_sources(16, 400, 64, 1.0, 1234);
        let (obs, vh) = validator();
        let net = Network::new(params, FabricConfig::paper(scheme), 64, sources, obs);
        let net = run_to_drain(net);
        vh.assert_drained();
        assert_eq!(
            net.counters().delivered_packets,
            16 * 400,
            "{}",
            scheme.name()
        );
        assert!(net.is_quiescent());
    }
}

#[test]
fn recn_exhaustion_degrades_gracefully() {
    // Only 1 SAQ per port: multiple hotspots force rejections; traffic must
    // still flow and clean up.
    let cfg = RecnConfig {
        max_saqs: 1,
        ..test_recn_config()
    };
    let params = MinParams::new(16, 4, 2);
    let until = Picos::from_us(120);
    let sources: Vec<Box<dyn MessageSource>> = (0..16)
        .map(|h| match h {
            0..=2 => Box::new(ConstantRateSource::new(
                HostId::new(15),
                64,
                Picos::from_ns(64),
                Picos::ZERO,
                until,
            )) as Box<dyn MessageSource>,
            3..=5 => Box::new(ConstantRateSource::new(
                HostId::new(14),
                64,
                Picos::from_ns(64),
                Picos::ZERO,
                until,
            )),
            6..=8 => Box::new(ConstantRateSource::new(
                HostId::new(13),
                64,
                Picos::from_ns(64),
                Picos::ZERO,
                until,
            )),
            _ => Box::new(SilentSource),
        })
        .collect();
    let (obs, vh) = validator();
    let net = Network::new(
        params,
        FabricConfig::paper(SchemeKind::Recn(cfg)),
        64,
        sources,
        obs,
    );
    let net = run_to_drain(net);
    vh.assert_drained();
    let c = net.counters();
    assert_eq!(c.delivered_packets, c.injected_packets);
    assert_eq!(c.order_violations, 0);
    assert_eq!(c.saq_allocs, c.saq_deallocs);
    assert!(net.is_quiescent());
    assert_recn_idle(&net);
}

#[test]
fn self_traffic_roundtrips_through_network() {
    // A host sending to itself still traverses every stage.
    let params = MinParams::new(16, 4, 2);
    let sources: Vec<Box<dyn MessageSource>> = (0..16)
        .map(|h| {
            if h == 5 {
                Box::new(ScriptSource::new(vec![SourcedMessage {
                    at: Picos::ZERO,
                    dst: HostId::new(5),
                    bytes: 64,
                }])) as Box<dyn MessageSource>
            } else {
                Box::new(SilentSource)
            }
        })
        .collect();
    let (obs, vh) = validator();
    let net = Network::new(
        params,
        FabricConfig::paper(SchemeKind::OneQ),
        64,
        sources,
        obs,
    );
    let net = run_to_drain(net);
    vh.assert_drained();
    assert_eq!(net.counters().delivered_packets, 1);
    // Two stages + injection/delivery: latency well above zero.
    assert!(net.counters().latency_ns.mean() > 100.0);
}

#[test]
fn hottest_links_order_is_deterministic_on_ties() {
    // With zero traffic every link ties at 0.0 utilization; the report must
    // fall back to link-index order (injection links first, in host order)
    // and be identical across calls — equal-utilization ordering is part of
    // the determinism contract, not an accident of the sort.
    let net = fabric::paper_network(MinParams::paper_64(), SchemeKind::OneQ, 64);
    let now = Picos::from_us(1);
    let a = net.hottest_links(now, 8);
    let b = net.hottest_links(now, 8);
    assert_eq!(a, b);
    let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        // 64 hosts: labels zero-pad host indices to two digits.
        (0..8)
            .map(|h| format!("inject h{h:02}"))
            .collect::<Vec<_>>(),
        "tied links must report in stable link-index order"
    );
    assert!(a.iter().all(|&(_, u)| u == 0.0));
}

/// Seeded random scripts on a 16-host network with a small admittance cap
/// (so the source-drop path runs too), every scheme: conservation, order
/// and cleanliness hold; under RECN the validator's independently tracked
/// SAQ ledger balances and agrees with the fabric's counters; and the same
/// script replays to identical counters. The first three seeds are the
/// pinned replay corpus of the retired property suite.
#[test]
fn random_scripts_conserve_balance_and_replay() {
    const PINNED: [u64; 3] = [
        0x3918_70ce_130b_01d3,
        0x7dcc_83ab_dc56_b61c,
        0xcaba_95b3_b5d8_7127,
    ];
    let run = |scheme: SchemeKind, seed: u64| {
        let mut rng = Xoshiro256::new(seed);
        // Bursty (everything inside 5 us) and skewed (half of all traffic
        // to one host), so trees form and the admittance cap drops.
        let hot = rng.next_below(16);
        let sources: Vec<Box<dyn MessageSource>> = (0..16)
            .map(|_| {
                let mut script: Vec<SourcedMessage> = (0..rng.next_below(60))
                    .map(|_| {
                        let at = Picos::from_ns(rng.next_below(5_000));
                        let anywhere = rng.next_below(16);
                        let dst = if rng.chance(0.5) { hot } else { anywhere };
                        SourcedMessage {
                            at,
                            dst: HostId::new(dst as u32),
                            bytes: 1 + rng.next_below(399) as u32,
                        }
                    })
                    .collect();
                script.sort_by_key(|m| m.at);
                Box::new(ScriptSource::new(script)) as Box<dyn MessageSource>
            })
            .collect();
        let mut cfg = FabricConfig::paper(scheme);
        cfg.admit_cap = 256;
        let (obs, vh) = validator();
        let net = run_to_drain(Network::new(
            MinParams::new(16, 4, 2),
            cfg,
            64,
            sources,
            obs,
        ));
        vh.assert_drained();
        (net, vh)
    };
    let (mut total_allocs, mut total_drops) = (0, 0);
    for seed in PINNED.into_iter().chain(0..21) {
        for scheme in schemes() {
            let (net, vh) = run(scheme, seed);
            let c = net.counters();
            total_allocs += c.saq_allocs;
            total_drops += c.source_dropped_messages;
            let who = format!("{} seed {seed}", scheme.name());
            // Every admitted packet is delivered; drops only at the source.
            assert_eq!(c.delivered_packets, c.injected_packets, "{who}");
            assert_eq!(vh.conservation(), (c.injected_packets, c.delivered_packets));
            assert_eq!(vh.drop_attempts().0, c.source_dropped_messages, "{who}");
            assert!(net.is_quiescent(), "{who} left residue");
            if scheme.preserves_order() {
                assert_eq!(c.order_violations, 0, "{who} reordered");
            }
            if matches!(scheme, SchemeKind::Recn(_)) {
                assert_eq!(c.saq_allocs, c.saq_deallocs, "{who}");
                assert_eq!(c.root_activations, c.root_clears, "{who}");
                assert_recn_idle(&net);
                let (allocs, deallocs) = vh.saq_balance();
                assert_eq!(allocs, deallocs, "observer ledger must balance");
                assert_eq!(allocs, c.saq_allocs, "hooks must see every CAM alloc");
                // No hidden nondeterminism: the same script replays.
                let (again, _) = run(scheme, seed);
                let key = |n: &Network| {
                    let c = n.counters();
                    (
                        c.delivered_bytes,
                        c.saq_allocs,
                        c.recn_notifications,
                        c.markers,
                    )
                };
                assert_eq!(key(&net), key(&again), "{who}");
            }
        }
    }
    assert!(
        total_allocs > 0 && total_drops > 0,
        "the sweep went vacuous"
    );
}

/// Counts, per [`SaqSite`], the SAQs deallocated without ever having
/// stored a packet — only the idle-reclaim timer (`Event::SaqIdleCheck`)
/// frees those — on the 16-host 4-port MIN (flat index `sw * 4 + port`).
#[derive(Default)]
struct UnusedSaqs {
    /// `(site, flat index, CAM line)` of every live SAQ → stored a packet.
    live: std::collections::BTreeMap<(usize, usize, usize), bool>,
    /// Never-used deallocs at `[ingress, egress, NIC]`.
    reclaimed: std::rc::Rc<std::cell::Cell<[u32; 3]>>,
}

fn site_slot(site: SaqSite) -> usize {
    match site {
        SaqSite::SwitchIngress => 0,
        SaqSite::SwitchEgress => 1,
        SaqSite::NicInjection => 2,
    }
}

impl NetObserver for UnusedSaqs {
    fn on_saq_alloc(&mut self, _: Picos, site: SaqSite, idx: usize, line: usize, _: &PathSpec) {
        self.live.insert((site_slot(site), idx, line), false);
    }

    fn on_enqueue(&mut self, _: Picos, port: PortRef, queue: usize, kind: QueueKind, _: &Packet) {
        if kind == QueueKind::Saq {
            let (slot, idx) = match port {
                PortRef::SwitchIn { sw, port } => (0, sw * 4 + port),
                PortRef::SwitchOut { sw, port } => (1, sw * 4 + port),
                PortRef::Nic { host } => (2, host),
            };
            *self
                .live
                .get_mut(&(slot, idx, queue - 1))
                .expect("live SAQ") = true;
        }
    }

    fn on_saq_dealloc(&mut self, _: Picos, site: SaqSite, idx: usize, line: usize, _: &PathSpec) {
        let slot = site_slot(site);
        if !self.live.remove(&(slot, idx, line)).expect("live SAQ") {
            let mut n = self.reclaimed.get();
            n[slot] += 1;
            self.reclaimed.set(n);
        }
    }
}

/// A 5 µs hotspot burst, short enough that notifications outrun the
/// traffic: SAQs are allocated upstream (switch outputs, NICs) after the
/// last matching packet has passed. Returns the drained network, the
/// never-used deallocs per site and the trace digest.
fn idle_reclaim_run(timeout: Picos, model: EventModel) -> (Network, [u32; 3], u64) {
    let sources = hotspot_sources(16, &[0, 1, 2, 3, 4, 5], 15, 8, 12, Picos::from_us(5));
    let mut cfg = FabricConfig::paper(SchemeKind::Recn(test_recn_config())).with_event_model(model);
    cfg.saq_idle_timeout = timeout;
    let unused = UnusedSaqs::default();
    let reclaimed = unused.reclaimed.clone();
    let (obs, vh) = validator();
    let (sink, trace) = TraceSink::new(1, "idle");
    let fan = FanoutObserver::new()
        .push(obs)
        .push(Box::new(unused))
        .push(Box::new(sink));
    let net = Network::new(MinParams::new(16, 4, 2), cfg, 64, sources, Box::new(fan));
    let net = run_to_drain(net);
    vh.assert_drained();
    (net, reclaimed.get(), trace.digest())
}

#[test]
fn idle_timer_reclaims_never_used_saqs_at_every_site() {
    let (net, unused, _) = idle_reclaim_run(Picos::from_us(1), EventModel::Lazy);
    assert!(
        unused.iter().all(|&n| n > 0),
        "never-used SAQs reclaimed at [ingress, egress, NIC]: {unused:?}"
    );
    let c = net.counters();
    assert_eq!(c.saq_allocs, c.saq_deallocs, "every SAQ must be reclaimed");
    assert!(net.is_quiescent());
    assert_recn_idle(&net);

    // Zero timeout: the check lands at the time it was scheduled, so it is
    // a same-time non-wakeup event and must close the lazy model's open
    // wakeup batch exactly as the eager reference orders it.
    let (lazy_net, lazy_unused, lazy) = idle_reclaim_run(Picos::ZERO, EventModel::Lazy);
    let (_, eager_unused, eager) = idle_reclaim_run(Picos::ZERO, EventModel::Eager);
    assert!(lazy_unused.iter().sum::<u32>() > 0, "{lazy_unused:?}");
    assert_eq!(lazy_unused, eager_unused);
    assert_eq!(lazy, eager, "lazy digest {lazy:#x} != eager {eager:#x}");
    assert_recn_idle(&lazy_net);
}

/// Packets stored per `(port, queue)`, counted from the enqueue/dequeue
/// hooks alone — markers fire neither, so this is the packet count the
/// RECN state machine must agree with.
#[derive(Default)]
struct StoredPackets(std::rc::Rc<std::cell::RefCell<std::collections::BTreeMap<QueueKey, u32>>>);

/// `(site, switch or host, port, queue)`.
type QueueKey = (usize, usize, usize, usize);

fn queue_key(port: PortRef, queue: usize) -> QueueKey {
    match port {
        PortRef::SwitchIn { sw, port } => (0, sw, port, queue),
        PortRef::SwitchOut { sw, port } => (1, sw, port, queue),
        PortRef::Nic { host } => (2, host, 0, queue),
    }
}

impl NetObserver for StoredPackets {
    fn on_enqueue(&mut self, _: Picos, port: PortRef, queue: usize, _: QueueKind, _: &Packet) {
        *self
            .0
            .borrow_mut()
            .entry(queue_key(port, queue))
            .or_default() += 1;
    }

    fn on_dequeue(&mut self, _: Picos, port: PortRef, queue: usize, _: QueueKind, _: &Packet) {
        *self
            .0
            .borrow_mut()
            .get_mut(&queue_key(port, queue))
            .expect("dequeue from a queue that stored a packet") -= 1;
    }
}

/// Every port of `net`'s topology, by name.
fn all_ports(net: &Network) -> Vec<PortRef> {
    let topo = net.topology();
    let mut ports = Vec::new();
    for sw in 0..topo.num_switches() as usize {
        for port in 0..topo.ports(SwitchId::new(sw as u32)) as usize {
            ports.push(PortRef::SwitchIn { sw, port });
            ports.push(PortRef::SwitchOut { sw, port });
        }
    }
    ports.extend((0..topo.num_hosts() as usize).map(|host| PortRef::Nic { host }));
    ports
}

/// A shortened corner case 2 on 64 hosts: uniform background at half rate
/// from three hosts in four, and from the fourth a full-rate burst at host
/// 32 between 10 and 40 µs.
fn short_corner_case_sources() -> Vec<Box<dyn MessageSource>> {
    let mut sources = random_sources(64, 450, 64, 0.5, 17);
    for h in (1..64).step_by(4) {
        sources[h] = Box::new(ConstantRateSource::new(
            HostId::new(32),
            64,
            Picos::from_ns(64),
            Picos::from_us(10),
            Picos::from_us(40),
        ));
    }
    sources
}

/// The shortened corner case, driven event by event and stopped every 200
/// events (and after the last) to check what the one store/take pair and the CAM-derived census
/// must keep true at every port; returns the sampled ingress maxima.
fn check_port_bookkeeping(params: TopoParams, routing: RoutingPolicy) -> Vec<u32> {
    let sources = short_corner_case_sources();
    let stored = StoredPackets::default();
    let tally = stored.0.clone();
    let (obs, vh) = validator();
    let fan = FanoutObserver::new().push(obs).push(Box::new(stored));
    let cfg = FabricConfig::paper(SchemeKind::Recn(test_recn_config())).with_routing(routing);
    let mut net = Network::new(params, cfg, 64, sources, Box::new(fan));
    let ports = all_ports(&net);

    let mut q = EventQueue::new();
    net.prime(&mut q);
    let mut maxima = Vec::new();
    let mut events = 0u64;
    while let Some(ev) = q.pop() {
        net.handle(ev.time, ev.event, &mut q);
        events += 1;
        if !events.is_multiple_of(200) && !q.is_empty() {
            continue;
        }
        let (mut max_in, mut max_out, mut total) = (0, 0, 0);
        for &port in &ports {
            let qs = net.port(port);
            let recn = qs.recn().expect("RECN scheme");
            for saq in recn.iter_saqs() {
                let queue = QueueSet::saq_queue(saq);
                assert_eq!(
                    recn.occupancy(saq),
                    qs.queue_bytes(queue),
                    "{port:?} queue {queue}: SAQ occupancy vs stored bytes"
                );
                let stored = tally.borrow().get(&queue_key(port, queue)).copied();
                assert_eq!(
                    recn.packets(saq),
                    stored.unwrap_or(0),
                    "{port:?} queue {queue}: SAQ packets vs stored packets"
                );
            }
            let held = recn.saqs_in_use() as u32;
            total += held;
            match port {
                PortRef::SwitchIn { .. } => max_in = max_in.max(held),
                PortRef::SwitchOut { .. } => max_out = max_out.max(held),
                PortRef::Nic { .. } => {}
            }
        }
        assert_eq!(net.saq_census(), (max_in, max_out, total), "event {events}");
        maxima.push(max_in);
    }
    vh.assert_drained();
    assert_recn_idle(&net);
    maxima
}

#[test]
fn saq_bookkeeping_and_census_match_the_ports_at_every_sample() {
    for (params, routing) in [
        (MinParams::paper_64().into(), RoutingPolicy::Deterministic),
        (FatTreeParams::ft_64().into(), RoutingPolicy::adaptive()),
    ] {
        let maxima = check_port_bookkeeping(params, routing);
        // The samples cross allocations and a dealloc at the port that
        // defined the maximum: it rose above one and fell all the way back.
        let peak = *maxima.iter().max().expect("the run was sampled");
        let at = maxima.iter().position(|&m| m == peak).expect("peak exists");
        assert!(peak >= 2, "{params:?}: ingress maximum peaked at {peak}");
        assert!(
            maxima[at..].windows(2).any(|w| w[1] < w[0]) && maxima.last() == Some(&0),
            "{params:?}: the maximum never fell"
        );
    }
}

/// What the arbiter summary of `sw` must read, recomputed from the switch's
/// queue sets and in-flight transfers: `(in_items, in_flight, out_busy,
/// out_notify, requests)`.
fn summary_from_ports(net: &Network, sw: usize) -> (u64, u64, u64, u64, Vec<Option<usize>>) {
    let ports = net.topology().ports(SwitchId::new(sw as u32)) as usize;
    let (mut items, mut in_flight, mut busy, mut notify) = (0u64, 0u64, 0u64, 0u64);
    let mut requests = Vec::new();
    for port in 0..ports {
        let input = net.port(PortRef::SwitchIn { sw, port });
        items |= u64::from(input.has_items()) << port;
        if let Some(out) = net.xbar_in_flight(sw, port) {
            in_flight |= 1 << port;
            busy |= 1 << out;
        }
        // Known only when queue 0 holds every stored item and its head is
        // a packet committed to its next turn.
        let stored: usize = (0..input.num_queues()).map(|q| input.queue_len(q)).sum();
        requests.push(match input.head(0) {
            Some(QueueItem::Packet(p))
                if input.queue_len(0) == stored && !p.route.next_turn_rebindable() =>
            {
                Some(p.route.next_turn() as usize)
            }
            _ => None,
        });
        let output = net.port(PortRef::SwitchOut { sw, port });
        let notifies = output
            .recn()
            .is_some_and(|r| r.is_root() || r.saqs_in_use() > 0);
        notify |= u64::from(notifies) << port;
    }
    (items, in_flight, busy, notify, requests)
}

/// Samples of one [`check_arbiter_summary`] run, by what the arbiter could
/// do with them.
#[derive(Debug, Default)]
struct SummarySamples {
    /// Ready inputs whose known request was a busy, silent output — the
    /// examinations the arbiter skips.
    skippable: u64,
    /// Ready inputs with no known request (SAQ traffic, adaptive heads).
    unknown: u64,
    /// Outputs seen able to notify (root or CAM non-empty).
    notifying: u64,
    /// Arbitration rounds whose grants were compared with the per-port
    /// scan's visit order, and how many of them granted to two inputs or
    /// more (where the order shows).
    rounds: u64,
    ordered_rounds: u64,
}

/// The inputs of `sw` one arbitration round examines, in order, as the
/// arbiter's scan of all its ports found them: from the round-robin pointer
/// `start`, every port that holds an item and has no transfer in flight.
fn visit_order_by_port_scan(net: &Network, sw: usize, start: usize) -> Vec<usize> {
    let arb = net.arbiter_summary(sw);
    let nports = net.topology().ports(SwitchId::new(sw as u32)) as usize;
    (0..nports)
        .map(|off| (start + off) % nports)
        .filter(|&i| (arb.in_items & !arb.in_flight) >> i & 1 == 1)
        .collect()
}

/// Records the switch inputs packets leave, in order: an input port is
/// only ever emptied by a crossbar grant.
struct Grants(Rc<RefCell<Vec<(usize, usize)>>>);

impl NetObserver for Grants {
    fn on_dequeue(&mut self, _: Picos, port: PortRef, _: usize, _: QueueKind, _: &Packet) {
        if let PortRef::SwitchIn { sw, port } = port {
            self.0.borrow_mut().push((sw, port));
        }
    }
}

/// The shortened corner case once more, stopped every 200 events to
/// compare every switch's arbiter summary with its ports. On the eager
/// event model, where every arbitration round is an event of its own (so
/// the round-robin pointer can be counted from outside), each round's
/// grants are also checked against the order a scan of all ports would
/// have examined the inputs in. Returns what the samples covered, the
/// run's trace digest and its headline counters.
fn check_arbiter_summary(
    params: TopoParams,
    scheme: SchemeKind,
    routing: RoutingPolicy,
    model: EventModel,
) -> (SummarySamples, u64, [u64; 5]) {
    let (obs, vh) = validator();
    let (sink, trace) = TraceSink::new(16, "summary");
    let grants = Rc::new(RefCell::new(Vec::new()));
    let fan = FanoutObserver::new()
        .push(obs)
        .push(Box::new(sink))
        .push(Box::new(Grants(grants.clone())));
    let cfg = FabricConfig::paper(scheme)
        .with_routing(routing)
        .with_event_model(model);
    let mut net = Network::new(params, cfg, 64, short_corner_case_sources(), Box::new(fan));
    let switches = net.topology().num_switches() as usize;

    let mut q = EventQueue::new();
    net.prime(&mut q);
    let mut seen = SummarySamples::default();
    let mut events = 0u64;
    // Arbitration rounds per switch so far: the round-robin pointer.
    let mut rounds = vec![0usize; switches];
    while let Some(ev) = q.pop() {
        let round = match ev.event {
            Event::InputArb { sw } if model == EventModel::Eager => {
                let nports = net.topology().ports(SwitchId::new(sw as u32)) as usize;
                let start = rounds[sw] % nports;
                rounds[sw] += 1;
                Some((sw, visit_order_by_port_scan(&net, sw, start)))
            }
            _ => None,
        };
        grants.borrow_mut().clear();
        net.handle(ev.time, ev.event, &mut q);
        events += 1;
        if let Some((sw, visited)) = round {
            // Granted inputs are examined inputs, in examination order.
            let mut rest = visited.iter();
            for &(at, input) in grants.borrow().iter() {
                assert_eq!(at, sw, "event {events}: a grant at another switch");
                assert!(
                    rest.any(|&i| i == input),
                    "event {events}, switch {sw}: granted {:?}, a port scan visits {visited:?}",
                    grants.borrow()
                );
            }
            seen.rounds += 1;
            seen.ordered_rounds += u64::from(grants.borrow().len() > 1);
        }
        if !events.is_multiple_of(200) && !q.is_empty() {
            continue;
        }
        for sw in 0..switches {
            let (items, in_flight, busy, notify, requests) = summary_from_ports(&net, sw);
            let arb = net.arbiter_summary(sw);
            let at = format!("event {events}, switch {sw}");
            assert_eq!(arb.in_items, items, "{at}: inputs with items");
            assert_eq!(arb.in_flight, in_flight, "{at}: inputs in flight");
            assert_eq!(arb.out_busy, busy, "{at}: busy outputs");
            assert_eq!(arb.out_notify, notify, "{at}: notifying outputs");
            for (port, &request) in requests.iter().enumerate() {
                assert_eq!(arb.request(port), request, "{at}: request of input {port}");
                if (items & !in_flight) >> port & 1 == 1 {
                    match request {
                        Some(out) if (busy & !notify) >> out & 1 == 1 => seen.skippable += 1,
                        Some(_) => {}
                        None => seen.unknown += 1,
                    }
                }
            }
            seen.notifying += notify.count_ones() as u64;
        }
    }
    vh.assert_drained();
    let c = net.counters();
    let counters = [
        c.injected_packets,
        c.delivered_packets,
        c.order_violations,
        c.saq_allocs,
        c.recn_notifications,
    ];
    (seen, trace.digest(), counters)
}

#[test]
fn arbiter_summary_matches_the_ports_at_every_sample() {
    let recn = SchemeKind::Recn(test_recn_config());
    let min: TopoParams = MinParams::paper_64().into();
    let ft: TopoParams = FatTreeParams::ft_64().into();
    // Digest and counters as pinned at the commit before the summary
    // existed, when the arbiter examined every ready head: skipping the
    // blocked ones changed nothing an observer or a counter can see.
    let lazy = EventModel::Lazy;
    let (seen, digest, counters) =
        check_arbiter_summary(min, recn, RoutingPolicy::Deterministic, lazy);
    assert!(
        seen.skippable > 0 && seen.unknown > 0 && seen.notifying > 0,
        "MIN RECN: {seen:?}"
    );
    assert_eq!(digest, 0x39c3_498f_8006_7a1f, "MIN RECN digest {digest:#x}");
    assert_eq!(counters, [24416, 24416, 0, 2792, 2792], "MIN RECN");

    let (seen, digest, counters) =
        check_arbiter_summary(min, SchemeKind::OneQ, RoutingPolicy::Deterministic, lazy);
    assert!(seen.skippable > 0, "MIN 1Q: {seen:?}");
    assert_eq!(
        (seen.unknown, seen.notifying),
        (0, 0),
        "1Q: one queue, no RECN"
    );
    assert_eq!(digest, 0x44a4_d00e_0247_05b7, "MIN 1Q digest {digest:#x}");
    assert_eq!(counters, [29104, 29104, 0, 0, 0], "MIN 1Q");

    let (seen, digest, counters) = check_arbiter_summary(ft, recn, RoutingPolicy::adaptive(), lazy);
    assert!(
        seen.skippable > 0 && seen.unknown > 0 && seen.notifying > 0,
        "fat tree RECN adaptive: {seen:?}"
    );
    assert_eq!(
        digest, 0xe7da_9909_8d70_a2d3,
        "fat tree RECN adaptive digest {digest:#x}"
    );
    assert_eq!(
        counters,
        [28162, 28162, 4580, 548, 548],
        "fat tree RECN adaptive"
    );

    // The same two RECN runs with every arbitration round an event: the
    // inputs granted in a round are a subsequence of the order the scan of
    // all ports visited ready inputs in, and nothing observable moved.
    let eager = EventModel::Eager;
    for (params, routing, pinned) in [
        (min, RoutingPolicy::Deterministic, 0x39c3_498f_8006_7a1f),
        (ft, RoutingPolicy::adaptive(), 0xe7da_9909_8d70_a2d3),
    ] {
        let (seen, digest, _) = check_arbiter_summary(params, recn, routing, eager);
        assert!(
            seen.rounds > 10_000 && seen.ordered_rounds > 1_000,
            "{params:?}: {seen:?}"
        );
        assert_eq!(digest, pinned, "{params:?} eager digest {digest:#x}");
    }
}

/// The reorder detector's positive case. Adaptive up-turns let packets of
/// one flow overtake each other, and so does 4Q's lowest-occupancy queue
/// choice; deterministic routing through one queue cannot. The counts are
/// pinned because they hold the resynchronization rule: a packet arriving
/// early is one violation and moves the expectation past the gap
/// (`max(seq + 1)`), each packet it overtook is one more when it arrives
/// and leaves the expectation where it is.
#[test]
fn reorder_detector_counts_overtaking_and_resynchronizes_past_the_gap() {
    let violations = |scheme: SchemeKind, routing: RoutingPolicy| {
        let cfg = FabricConfig::paper(scheme).with_routing(routing);
        let (obs, vh) = validator();
        let ft = FatTreeParams::ft_64();
        let net = run_to_drain(Network::new(ft, cfg, 64, short_corner_case_sources(), obs));
        vh.assert_drained();
        let c = net.counters();
        assert_eq!((c.injected_packets, c.delivered_packets), (29104, 29104));
        c.order_violations
    };
    assert_eq!(
        violations(SchemeKind::OneQ, RoutingPolicy::Deterministic),
        0
    );
    assert_eq!(
        violations(SchemeKind::OneQ, RoutingPolicy::adaptive()),
        3884
    );
    assert_eq!(
        violations(SchemeKind::FourQ, RoutingPolicy::Deterministic),
        5702
    );
}
