//! Route/wiring round-trip: following `route()` hop by hop through
//! `next_hop` must land on the destination, and must agree with `trace()`.
//!
//! `REGRESSION_SEEDS` replays pairs that shook out of property-test runs
//! (plus hand-picked corner pairs), the sampled sweeps cover every source
//! on both backends, and a seeded sweep walks random shapes of both
//! families.

use simcore::{Canon, CanonWriter};
use topology::{FatTreeParams, HostId, MinParams, PortId, Route, TopoParams, Topology};

/// Walks `route(src, dst)` turn by turn through the wiring and asserts it
/// delivers to `dst`, mirrors `trace()`, and keeps port indices in range.
fn roundtrip(topo: &Topology, src: HostId, dst: HostId) {
    let mut route = topo.route(src, dst);
    let (mut sw, mut in_port) = topo.host_ingress(src);
    let mut hops = Vec::new();
    loop {
        let turn = route.advance();
        assert!(
            (turn as u32) < topo.ports(sw),
            "turn {turn} out of range at sw{sw} ({} ports)",
            topo.ports(sw)
        );
        let out = PortId::new(turn as u32);
        hops.push((sw, in_port, out));
        match topo.next_hop(sw, out) {
            Ok((nsw, nport)) => {
                assert!(!route.is_exhausted(), "route exhausted before delivery");
                sw = nsw;
                in_port = nport;
            }
            Err(h) => {
                assert_eq!(h, dst, "delivered to the wrong host");
                assert!(route.is_exhausted(), "turns left over after delivery");
                break;
            }
        }
    }
    assert_eq!(hops, topo.trace(src, dst), "trace() disagrees with walk");
}

fn both_topologies() -> Vec<Topology> {
    vec![
        Topology::new(MinParams::paper_64()),
        Topology::new(MinParams::paper_512()),
        Topology::new(FatTreeParams::ft_64()),
        Topology::new(FatTreeParams::ft_512()),
    ]
}

/// (hosts, src, dst) triples replayed on every matching topology.
const REGRESSION_SEEDS: &[(u32, u32, u32)] = &[
    (64, 0, 0),    // self-traffic, NCA level 0
    (64, 0, 63),   // full-diameter pair
    (64, 63, 0),   // and its mirror
    (64, 21, 23),  // same leaf switch (one-hop route on the fat tree)
    (64, 27, 54),  // distinct digits at every level
    (512, 0, 511), // full diameter at paper scale
    (512, 257, 256),
    (512, 448, 63),
];

#[test]
fn regression_seeds_roundtrip() {
    for topo in both_topologies() {
        for &(hosts, s, d) in REGRESSION_SEEDS {
            if topo.num_hosts() == hosts {
                roundtrip(&topo, HostId::new(s), HostId::new(d));
            }
        }
    }
}

#[test]
fn sampled_pairs_roundtrip_on_both_backends() {
    // Deterministic LCG sample: every source appears, destinations spread
    // over the whole host range (including src == dst).
    for topo in both_topologies() {
        let hosts = topo.num_hosts() as u64;
        let mut x = 0x9e37_79b9u64;
        for s in 0..hosts {
            for _ in 0..8 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let d = (x >> 33) % hosts;
                roundtrip(&topo, HostId::new(s as u32), HostId::new(d as u32));
            }
        }
    }
}

#[test]
fn min_route_ignores_source_fattree_route_uses_it() {
    let min = Topology::new(MinParams::paper_64());
    let ft = Topology::new(FatTreeParams::ft_64());
    let dst = HostId::new(42);
    let a = min.route(HostId::new(0), dst);
    let b = min.route(HostId::new(63), dst);
    assert_eq!(a.remaining(), b.remaining(), "MIN routes are dest-tag only");
    // On the fat tree the upturn digits come from the source, so two
    // sources in different subtrees must take different turns.
    let a = ft.route(HostId::new(0), dst);
    let b = ft.route(HostId::new(63), dst);
    assert_ne!(
        a.remaining(),
        b.remaining(),
        "fat-tree upturns are source-picked"
    );

    let params: TopoParams = FatTreeParams::ft_64().into();
    assert_eq!(params.name(), "fattree");
}

#[test]
fn random_shapes_roundtrip_with_bijective_ingress() {
    let mut x = 0x5eed_5a9e_u64;
    let mut lcg = move |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % bound) as u32
    };
    // The shape an earlier property run shrank a misdelivery to is not a
    // delta network, and the constructor has refused it since.
    assert!(MinParams::checked(6, 2, 3).is_err());
    // Random shapes: MINs of radix 2 or 4 with up to two redundant
    // stages, k-ary n-trees.
    let mut shapes: Vec<TopoParams> = Vec::new();
    for _ in 0..24 {
        let radix = [2u32, 4][lcg(2) as usize];
        let hosts = radix << lcg(7);
        let minimal = (1..).find(|&s| radix.pow(s) >= hosts).expect("finite");
        if hosts <= 256 {
            shapes.push(MinParams::new(hosts, radix, (minimal + lcg(3)).min(8)).into());
        }
        let (k, n) = (2 + lcg(7), 1 + lcg(3));
        if k.pow(n) <= 512 {
            shapes.push(FatTreeParams::new(k, n).into());
        }
    }
    for params in shapes {
        let topo = params.build();
        let hosts = params.hosts();
        // Host ingress is a bijection onto (switch, port) pairs.
        let ingress: std::collections::HashSet<_> = (0..hosts)
            .map(|h| topo.host_ingress(HostId::new(h)))
            .collect();
        assert_eq!(ingress.len() as u32, hosts, "{params:?}");
        // Every pair on small networks, a diagonal walk on larger ones.
        for s in 0..hosts {
            let dsts = if hosts <= 16 {
                (0..hosts).collect()
            } else {
                vec![(s * 7 + 3) % hosts]
            };
            for d in dsts {
                roundtrip(&topo, HostId::new(s), HostId::new(d));
            }
        }
        // MIN destination tags: one in-radix digit per stage, and the
        // digits spell the destination.
        if let TopoParams::Min(p) = params {
            for d in 0..hosts {
                let r = Route::to_host(HostId::new(d), p.radix(), p.stages() as usize);
                assert_eq!(r.stages(), p.stages() as usize);
                let value = r.all_turns().iter().fold(0u64, |v, &t| {
                    assert!((t as u32) < p.radix());
                    v * p.radix() as u64 + t as u64
                });
                assert_eq!(value, d as u64, "{params:?}");
            }
        }
    }
}

#[test]
fn switches_wider_than_a_port_mask_are_refused() {
    // The fabric and RECN keep one bit per switch port in a u64. At the
    // limit: 32-ary trees (64-port inner switches) and radix-64 MINs.
    let widest = FatTreeParams::checked(32, 2).expect("64-port switches fit");
    assert_eq!(Topology::new(widest).max_ports(), 64);
    assert!(MinParams::checked(64, 64, 1).is_ok());
    // One past it: the 33-ary 2-tree, whose 66-port leaf switches used to
    // be accepted here and overflow a mask mid-run.
    let err = FatTreeParams::checked(33, 2).unwrap_err();
    assert!(err.contains("66 ports"), "{err}");
    assert!(FatTreeParams::checked(128, 1).is_err());
    let err = MinParams::checked(65, 65, 1).unwrap_err();
    assert!(err.contains("radix-65"), "{err}");
    // The canonical bytes of a shape are its family's tag, then its
    // parameters as little-endian u32s, so no two shapes share bytes.
    let bytes = |tag: u8, words: &[u32]| {
        let mut w = CanonWriter::new();
        w.u8(tag);
        words.iter().for_each(|&v| w.u32(v));
        w.finish()
    };
    let shapes = [
        (TopoParams::from(widest), bytes(1, &[32, 2])),
        (FatTreeParams::ft_64().into(), bytes(1, &[4, 3])),
        (
            MinParams::checked(64, 64, 1).unwrap().into(),
            bytes(0, &[64, 64, 1]),
        ),
        (MinParams::paper_64().into(), bytes(0, &[64, 4, 3])),
        (MinParams::paper_256().into(), bytes(0, &[256, 4, 4])),
    ];
    for (params, want) in shapes {
        assert_eq!(params.canon_bytes(), want, "{params:?}");
    }
}
