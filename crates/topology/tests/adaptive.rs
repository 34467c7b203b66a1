//! Adaptive up-routing validity: every way of binding the rebindable
//! up-turns of a [`route_adaptive`](topology::FatTreeTopology::route_adaptive)
//! route must still be a valid up*/down* path — the climb stays within the
//! switch's real up-ports, peaks exactly at the NCA level, the fixed
//! down-phase digits are untouched, and the walk delivers to the
//! destination.
//!
//! A seeded-LCG sweep over random k-ary n-tree shapes, plus
//! `REGRESSION_SEEDS` replaying specific `(shape, pair, selector seed)`
//! cases that shook out of property runs.

use topology::{FatTreeParams, FatTreeTopology, HostId, PortId, Route};

/// LCG step (same constants as the roundtrip suite) deriving
/// pseudo-random but reproducible up-port picks.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Binds every rebindable up-turn of the adaptive route using picks drawn
/// from `seed`, walks the cabling, and checks the up*/down* contract.
fn check_adaptive_walk(topo: &FatTreeTopology, src: HostId, dst: HostId, seed: u64) {
    let det = topo.route(src, dst);
    let mut route = topo.route_adaptive(src, dst);
    let up_len = route.up_len();
    let m = topo.nca_level(src, dst);
    // m <= 1 routes are fully deterministic (the only up-turn is the
    // dedicated leaf port); otherwise the whole climb is the up-phase.
    assert_eq!(up_len, if m <= 1 { 0 } else { m as usize });

    let mut rng = seed;
    let (mut sw, _) = topo.host_ingress(src);
    let mut levels = vec![];
    let mut bound = 0;
    loop {
        if route.next_turn_rebindable() {
            let ports = topo.up_ports(sw);
            assert!(!ports.is_empty(), "rebindable turn above the top level");
            let span = ports.end - ports.start;
            let pick = ports.start + (lcg(&mut rng) % span as u64) as u32;
            route.bind_next_turn(pick as u8);
            bound += 1;
        }
        levels.push(topo.level_of(sw));
        let out = PortId::new(route.advance() as u32);
        assert!(
            (out.index() as u32) < topo.ports(sw),
            "turn out of range at {sw}"
        );
        match topo.next_hop(sw, out) {
            Ok((next, _)) => sw = next,
            Err(host) => {
                assert_eq!(host, dst, "adaptive binding misrouted {src}->{dst}");
                assert!(route.is_exhausted(), "turns left over after delivery");
                break;
            }
        }
    }
    // The first up-turn is pinned, the rest were bound by the walk.
    assert_eq!(bound, up_len.saturating_sub(1));
    // Valid up*/down*: levels climb 0..=m then descend back to 0, peaking
    // exactly at the NCA level.
    let peak = *levels.iter().max().unwrap();
    assert_eq!(peak, m, "climb must stop at the NCA level");
    let up: Vec<u32> = (0..=peak).collect();
    let down: Vec<u32> = (0..peak).rev().collect();
    assert_eq!(levels, [up, down].concat(), "not an up*/down* path");
    // The fixed down-phase digits are exactly the deterministic ones.
    assert_eq!(
        &route.all_turns()[up_len..],
        &det.all_turns()[up_len..],
        "down-phase digits must be untouched by adaptivity"
    );
}

/// `(k, n, src, dst, selector seed)` cases replayed on every run.
const REGRESSION_SEEDS: &[(u32, u32, u32, u32, u64)] = &[
    (4, 3, 0, 63, 0x5eed_0001),    // full diameter, ft_64
    (4, 3, 63, 0, 0x5eed_0002),    // and its mirror
    (4, 3, 21, 23, 0x5eed_0003),   // same leaf: no rebindable turns
    (4, 3, 27, 54, 0x5eed_0004),   // distinct digits at every level
    (4, 3, 3, 60, 0x5eed_0005),    // attacker-slot source, fattree_64 gang
    (2, 3, 0, 7, 0x5eed_0006),     // minimal arity
    (3, 3, 5, 22, 0x5eed_0007),    // non-power-of-two arity
    (8, 3, 257, 256, 0x5eed_0008), // ft_512 mid-range pair
    (8, 3, 448, 63, 0x5eed_0009),
    (4, 4, 3, 250, 0x5eed_000a), // ft_256: three rebindable levels
];

#[test]
fn regression_seeds_stay_valid_up_down_paths() {
    for &(k, n, s, d, seed) in REGRESSION_SEEDS {
        let topo = FatTreeTopology::new(FatTreeParams::new(k, n));
        check_adaptive_walk(&topo, HostId::new(s), HostId::new(d), seed);
    }
}

#[test]
fn random_shapes_and_bindings_stay_valid_up_down_paths() {
    // Seeded sweep over random tree shapes: for each, every source tries
    // several random destinations with random up-port bindings.
    let mut rng = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..24 {
        // k in 2..=8; MAX_STAGES caps routes at 2n-1 turns, and shapes
        // stay <= 512 hosts.
        let k = 2 + (lcg(&mut rng) % 7) as u32;
        let n_max = if k == 2 { 4 } else { 3 };
        let mut n = 1 + (lcg(&mut rng) % n_max as u64) as u32;
        while k.pow(n) > 512 {
            n -= 1;
        }
        let params = FatTreeParams::new(k, n);
        let topo = FatTreeTopology::new(params);
        let hosts = params.hosts() as u64;
        for s in 0..hosts {
            for _ in 0..4 {
                let d = lcg(&mut rng) % hosts;
                let seed = lcg(&mut rng);
                check_adaptive_walk(&topo, HostId::new(s as u32), HostId::new(d as u32), seed);
            }
        }
    }
}

#[test]
fn every_binding_exhaustive_on_a_small_tree() {
    // 2-ary 3-tree: enumerate ALL possible bindings of the one rebindable
    // turn for every pair (k^(m-1) choices) — not just sampled ones.
    let topo = FatTreeTopology::new(FatTreeParams::new(2, 3));
    for s in 0..8u32 {
        for d in 0..8u32 {
            let src = HostId::new(s);
            let dst = HostId::new(d);
            if topo.nca_level(src, dst) < 2 {
                check_adaptive_walk(&topo, src, dst, 0);
                continue;
            }
            for pick in topo.up_ports(topo.host_ingress(src).0) {
                let mut route = topo.route_adaptive(src, dst);
                let (mut sw, _) = topo.host_ingress(src);
                loop {
                    if route.next_turn_rebindable() {
                        route.bind_next_turn(pick as u8);
                    }
                    let out = PortId::new(route.advance() as u32);
                    match topo.next_hop(sw, out) {
                        Ok((next, _)) => sw = next,
                        Err(host) => {
                            assert_eq!(host, dst);
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn deterministic_routes_unchanged_by_adaptive_constructor() {
    // A deterministic route and an adaptive one print the same digits once
    // bound, and `Route::from_turns` never marks turns rebindable — the
    // golden-digest guarantee for `RoutingPolicy::Deterministic`.
    let topo = FatTreeTopology::new(FatTreeParams::ft_64());
    for (s, d) in [(0u32, 63u32), (17, 42), (21, 23)] {
        let det = topo.route(HostId::new(s), HostId::new(d));
        let mut probe = Route::from_turns(HostId::new(d), det.all_turns());
        while !probe.is_exhausted() {
            assert!(!probe.next_turn_rebindable());
            probe.advance();
        }
    }
}
