//! Conservation at quiescence: once the sources stop and the fabric drains,
//! every byte that started across a link arrived at its far end, and every
//! sender's credit view is back at its capacity.
//!
//! The ledger is kept outside the fabric, from three hooks only: `on_hop`
//! puts a packet's bytes on a link, and the packet's next `on_enqueue` at a
//! switch input — or its `on_delivered` at a host — takes them off. Nothing
//! here reads the fabric's own counters except to check the ledger saw
//! every packet.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use experiments::runner::scaled_recn_config;
use experiments::{RunSpec, Workload};
use fabric::{CreditView, HookSet, NetObserver, Network, Packet, PortRef, QueueKind, SchemeKind};
use simcore::Picos;
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;

/// Bytes per link, by the hooks.
#[derive(Default)]
struct Ledger {
    sent: HashMap<usize, u64>,
    arrived: HashMap<usize, u64>,
    /// Packet id → the link it is crossing and its bytes.
    crossing: HashMap<u64, (usize, u64)>,
    delivered: u64,
    delivered_bytes: u64,
}

impl Ledger {
    fn arrive(&mut self, pkt: &Packet) {
        let (link, bytes) = self
            .crossing
            .remove(&pkt.id)
            .unwrap_or_else(|| panic!("packet {} arrived without crossing a link", pkt.id));
        *self.arrived.entry(link).or_default() += bytes;
    }
}

struct Attribution(Rc<RefCell<Ledger>>);

impl NetObserver for Attribution {
    fn on_hop(&mut self, _: Picos, pkt: &Packet, link: usize) {
        let mut l = self.0.borrow_mut();
        let bytes = u64::from(pkt.size);
        let before = l.crossing.insert(pkt.id, (link, bytes));
        assert!(before.is_none(), "packet {} on two links at once", pkt.id);
        *l.sent.entry(link).or_default() += bytes;
    }

    fn on_enqueue(&mut self, _: Picos, port: PortRef, _: usize, _: QueueKind, pkt: &Packet) {
        if matches!(port, PortRef::SwitchIn { .. }) {
            self.0.borrow_mut().arrive(pkt);
        }
    }

    fn on_delivered(&mut self, _: Picos, pkt: &Packet) {
        let mut l = self.0.borrow_mut();
        l.arrive(pkt);
        l.delivered += 1;
        l.delivered_bytes += u64::from(pkt.size);
    }

    fn interests(&self) -> HookSet {
        HookSet::NONE.on_hop().on_enqueue().on_delivered()
    }
}

/// Runs `spec`'s sources to their end and the fabric until no event is
/// left; returns the drained network and the ledger.
fn drain(spec: &RunSpec) -> (Network, Ledger) {
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let net = spec.network(Box::new(Attribution(Rc::clone(&ledger))));
    let mut engine = net.build_engine();
    engine.run_to_completion();
    assert!(engine.now() > spec.horizon(), "ran past the sources' end");
    let ledger = std::mem::take(&mut *ledger.borrow_mut());
    (engine.into_model(), ledger)
}

fn at_cap(view: &CreditView) -> bool {
    match view {
        CreditView::Pooled { free, cap } => free == cap,
        CreditView::PerQueue { free, cap } => free.iter().all(|f| f == cap),
        CreditView::Infinite => true,
    }
}

fn assert_conserved(name: &str, spec: &RunSpec) -> Network {
    let (net, ledger) = drain(spec);
    let c = net.counters();
    assert!(c.delivered_packets > 1_000, "{name}: {c:?}");
    assert_eq!(c.delivered_packets, c.injected_packets, "{name}");
    assert_eq!(ledger.delivered, c.delivered_packets, "{name}");
    assert_eq!(ledger.delivered_bytes, c.delivered_bytes, "{name}");
    assert!(ledger.crossing.is_empty(), "{name}: packets left on links");
    assert!(
        ledger.sent.len() > 100,
        "{name}: {} links used",
        ledger.sent.len()
    );
    for (link, sent) in &ledger.sent {
        assert_eq!(ledger.arrived.get(link), Some(sent), "{name}: link {link}");
    }
    assert_eq!(ledger.arrived.len(), ledger.sent.len(), "{name}");
    assert!(net.is_quiescent(), "{name}: residue");
    let short: Vec<usize> = net
        .credit_views()
        .enumerate()
        .filter(|(_, v)| !at_cap(v))
        .map(|(link, _)| link)
        .collect();
    assert_eq!(short, [], "{name}: credit views short of their cap");
    net
}

#[test]
fn uniform_traffic_under_1q_on_the_64_host_min() {
    let uniform = Workload::Uniform {
        load: 0.6,
        msg_bytes: 64,
        seed: 2005,
    };
    let spec = RunSpec::new(MinParams::paper_64(), SchemeKind::OneQ, uniform)
        .with_horizon(Picos::from_us(20));
    assert_conserved("MIN-64 1Q uniform", &spec);
}

#[test]
fn corner_case_2_under_recn_on_the_64_host_fat_tree() {
    const DIV: u64 = 40;
    let recn = SchemeKind::Recn(scaled_recn_config(DIV));
    let corner = CornerCase::case2_64().shrunk(DIV);
    let spec = RunSpec::corner(FatTreeParams::ft_64(), recn, corner)
        .with_horizon(Picos::from_us(1600 / DIV));
    let net = assert_conserved("ft_64 RECN corner case 2", &spec);
    let c = net.counters();
    assert!(c.saq_allocs > 0, "a congestion tree formed");
    assert_eq!(c.saq_allocs, c.saq_deallocs, "and was torn down");
}
