//! Exhaustive routing verification for the paper's network shapes.

use topology::{FatTreeParams, HostId, MinParams, Topology};

#[test]
fn paper_64_all_pairs_route_correctly() {
    Topology::new(MinParams::paper_64()).verify_routes(); // 4096 traces
}

#[test]
fn paper_256_all_pairs_route_correctly() {
    Topology::new(MinParams::paper_256()).verify_routes(); // 65 536 traces
}

#[test]
fn paper_512_all_pairs_route_correctly() {
    // 512² = 262 144 full traces — every source × destination pair of the
    // paper's largest network walks the wiring end to end.
    let topo = Topology::new(MinParams::paper_512());
    topo.verify_routes();
    // Spot-check the hop count too: 5 radix-8 stages.
    assert_eq!(topo.trace(HostId::new(0), HostId::new(511)).len(), 5);
}

#[test]
fn fattree_presets_all_pairs_route_correctly() {
    Topology::new(FatTreeParams::ft_64()).verify_routes(); // 4096
    Topology::new(FatTreeParams::ft_256()).verify_routes(); // 65 536
}

#[test]
fn ft_512_all_pairs_route_correctly() {
    // 512² up*/down* traces on the 8-ary 3-tree.
    Topology::new(FatTreeParams::ft_512()).verify_routes();
}

#[test]
fn topology_enum_verifies_both_backends() {
    Topology::new(MinParams::paper_64()).verify_routes();
    Topology::new(FatTreeParams::ft_64()).verify_routes();
}

#[test]
fn paper_shapes_have_unique_paths_per_pair() {
    // Deterministic routing: tracing the same pair twice yields the same
    // hop list (a tautology today, but guards against future adaptive
    // extensions accidentally leaking nondeterminism into trace()).
    let topo = Topology::new(MinParams::paper_64());
    for (s, d) in [(0u32, 63u32), (17, 42), (63, 0), (32, 32)] {
        let a = topo.trace(HostId::new(s), HostId::new(d));
        let b = topo.trace(HostId::new(s), HostId::new(d));
        assert_eq!(a, b);
    }
}

#[test]
fn redundant_stage_networks_still_deliver() {
    // More stages than strictly needed (like the paper's 512-host net,
    // which has one redundant-capacity stage): 16 hosts on 3 radix-4
    // stages instead of the minimal 2.
    let topo = Topology::new(MinParams::new(16, 4, 3));
    topo.verify_routes();
    // Routes carry one turn per stage, so the extra stage costs one hop.
    assert_eq!(topo.trace(HostId::new(0), HostId::new(15)).len(), 3);
}
