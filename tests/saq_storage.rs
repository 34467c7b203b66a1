//! SAQ storage follows the congestion tree, not the fabric: a RECN port
//! builds its CAM lines at the first accepted notification and its SAQ
//! records at the first store to one, so the ports that hold any are the
//! ports a tree has reached — a few on a hotspot run, none on an idle
//! fabric or under another scheme.

use std::mem::size_of;

use experiments::runner::scaled_recn_config;
use experiments::RunSpec;
use fabric::{paper_network, Network, NullObserver, PortRef, QueueSet, SchemeKind};
use recn::{RecnConfig, RecnPort};
use simcore::Picos;
use topology::{FatTreeParams, MinParams, TopoParams};
use traffic::corner::CornerCase;

/// The hotspot run `recn validate` makes, 40× compressed.
const DIV: u64 = 40;

fn hotspot(params: impl Into<TopoParams>, scheme: SchemeKind, corner: CornerCase) -> Network {
    let spec = RunSpec::corner(params, scheme, corner.shrunk(DIV))
        .with_horizon(Picos::from_us(1600 / DIV))
        .with_bin(Picos::from_us(2));
    let mut engine = spec.network(Box::new(NullObserver)).build_engine();
    engine.run_until(spec.horizon());
    engine.into_model()
}

fn ports_with_storage(net: &Network) -> Vec<PortRef> {
    let holding = net.ports().filter(|(_, qs)| qs.queue_storage_bytes() > 0);
    holding.map(|(port, _)| port).collect()
}

#[test]
fn a_port_outside_every_tree_is_three_and_a_half_cache_lines() {
    assert!(size_of::<QueueSet>() <= 224, "{}", size_of::<QueueSet>());
    assert!(size_of::<RecnPort>() <= 72, "{}", size_of::<RecnPort>());
}

#[test]
fn no_tree_no_storage() {
    let recn = SchemeKind::Recn(RecnConfig::default());
    let idle = paper_network(MinParams::paper_64(), recn, 64);
    assert!(idle.ports().all(|(_, qs)| qs.recn().is_some()));
    assert_eq!(ports_with_storage(&idle), []);

    let one_q = hotspot(
        MinParams::paper_64(),
        SchemeKind::OneQ,
        CornerCase::case2_64(),
    );
    assert!(one_q.counters().delivered_packets > 0);
    assert_eq!(ports_with_storage(&one_q), []);
}

#[test]
fn storage_is_where_the_tree_went() {
    let recn = SchemeKind::Recn(scaled_recn_config(DIV));
    let runs = [
        hotspot(MinParams::paper_64(), recn, CornerCase::case2_64()),
        hotspot(FatTreeParams::ft_64(), recn, CornerCase::fattree_64()),
    ];
    for net in &runs {
        let name = net.topology().params().name();
        assert!(net.counters().saq_allocs > 0, "{name}: a tree formed");
        let reached = net.ports().filter(|(_, qs)| {
            let port = qs.recn().expect("a RECN fabric");
            port.peak_saqs() > 0
        });
        let reached: Vec<PortRef> = reached.map(|(port, _)| port).collect();
        assert_eq!(ports_with_storage(net), reached, "{name}");
        let all = net.ports().count();
        assert!(
            !reached.is_empty() && reached.len() < all,
            "{name}: {} of {all} ports in a tree",
            reached.len()
        );
    }
}
