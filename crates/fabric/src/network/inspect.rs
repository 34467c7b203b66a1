//! Reporting: structured snapshots of queue occupancies and RECN state
//! (for debugging, `recn inspect`, and tests), the link-utilization
//! report, and the simulator's own memory footprint.

use simcore::Picos;
use topology::PathSpec;

use crate::arn::ArnTable;
use crate::config::RoutingPolicy;
use crate::credit::CreditView;
use crate::queue::QueueSet;

use super::nic::{AdmitFifo, Nic};
use super::{FlowRx, FlowTx, LinkDown, LinkState, LinkUp, Network, PortRef, Switch, XbarTransfer};

/// Snapshot of one SAQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaqSnapshot {
    /// Tree path in this port's coordinates.
    pub path: PathSpec,
    /// Bytes stored.
    pub bytes: u64,
    /// Packets stored.
    pub packets: u32,
    /// Still waiting for in-order markers.
    pub blocked: bool,
    /// Allowed to transmit (unblocked and not Xoff'ed).
    pub may_transmit: bool,
}

/// Snapshot of one port (input, output or NIC injection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Total bytes accounted at the port (stored + crossbar reservations).
    pub used_bytes: u64,
    /// Port memory.
    pub capacity: u64,
    /// Items in the normal queue (queue 0).
    pub normal_items: usize,
    /// Bytes in the normal queue.
    pub normal_bytes: u64,
    /// Whether this egress port is currently a congestion-tree root
    /// (always `false` for input ports and non-RECN schemes).
    pub is_root: bool,
    /// Live SAQs (empty for non-RECN schemes).
    pub saqs: Vec<SaqSnapshot>,
}

/// Where [`Network::memory_footprint`] goes: the simulator's backing
/// storage behind a network model, in bytes, by part.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Every port's [`QueueSet`] record: queue 0, the accounting and the
    /// RECN port, whatever the port holds.
    pub queue_sets: u64,
    /// Every port's item slab at its high-water allocation.
    pub item_slabs: u64,
    /// Queue records past queue 0 and CAM lines: the CAM/SAQ storage of the
    /// RECN ports a congestion tree reached, the static queues of 4Q, VOQsw
    /// and VOQnet ([`QueueSet::queue_storage_bytes`]).
    pub queue_storage: u64,
    /// Link descriptors and their credit views.
    pub links: u64,
    /// Per-flow state: the sequence table and the transports' sender and
    /// receiver records.
    pub flow_table: u64,
    /// NIC admittance: the pools and FIFOs of messages not yet injected.
    pub nic_admittance: u64,
    /// Switch and NIC records, crossbar slots, port maps and ARN state.
    pub switches: u64,
}

impl Footprint {
    /// The parts with their display names, in field order.
    pub fn parts(&self) -> [(&'static str, u64); 7] {
        [
            ("queue sets", self.queue_sets),
            ("item slabs", self.item_slabs),
            ("CAM/SAQ storage", self.queue_storage),
            ("links", self.links),
            ("flow table", self.flow_table),
            ("NIC admittance", self.nic_admittance),
            ("switches", self.switches),
        ]
    }

    /// The whole network model's estimate: the parts' sum.
    pub fn total(&self) -> u64 {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

fn snapshot_of(qs: &QueueSet) -> PortSnapshot {
    let saqs = match qs.recn() {
        Some(r) => r
            .iter_saqs()
            .map(|saq| SaqSnapshot {
                path: r.path_of(saq),
                bytes: r.occupancy(saq),
                packets: r.packets(saq),
                blocked: r.is_blocked(saq),
                may_transmit: r.may_transmit(saq),
            })
            .collect(),
        None => Vec::new(),
    };
    PortSnapshot {
        used_bytes: qs.used(),
        capacity: qs.capacity(),
        normal_items: qs.queue_len(0),
        normal_bytes: qs.queue_bytes(0),
        is_root: qs.recn().is_some_and(|r| r.is_root()),
        saqs,
    }
}

impl Network {
    /// Snapshot of one port.
    pub fn snapshot(&self, port: PortRef) -> PortSnapshot {
        snapshot_of(self.port(port))
    }

    /// The ports holding the most bytes right now: up to `top` entries of
    /// `(description, snapshot)`, most loaded first. Useful to find where
    /// a congestion tree lives. Indices are zero-padded to the topology's
    /// own digit widths, so the equal-bytes tie-break below (a plain
    /// string compare) agrees with numeric index order and the report
    /// stays column-aligned on deep trees like the 4-ary 6-tree.
    pub fn hottest_ports(&self, top: usize) -> Vec<(String, PortSnapshot)> {
        let tag = self.topo.stage_tag();
        let (sw_w, p_w, h_w) = self.label_widths();
        let mut all: Vec<(String, PortSnapshot)> = self
            .ports()
            .map(|(port, qs)| {
                let stage = |sw| self.topo.stage_of(topology::SwitchId::new(sw as u32));
                let name = match port {
                    PortRef::SwitchIn { sw, port } => {
                        format!("sw{sw:0sw_w$}({tag}{}).in{port:0p_w$}", stage(sw))
                    }
                    PortRef::SwitchOut { sw, port } => {
                        format!("sw{sw:0sw_w$}({tag}{}).out{port:0p_w$}", stage(sw))
                    }
                    PortRef::Nic { host } => format!("nic{host:0h_w$}"),
                };
                (name, snapshot_of(qs))
            })
            .collect();
        all.sort_by(|a, b| b.1.used_bytes.cmp(&a.1.used_bytes).then(a.0.cmp(&b.0)));
        all.truncate(top);
        all
    }

    /// Peak buffer occupancy (bytes) ever reached by any port, by class:
    /// `(switch inputs, switch outputs, NIC injection)`.
    pub fn peak_occupancies(&self) -> (u64, u64, u64) {
        let mut peaks = (0, 0, 0);
        for (port, qs) in self.ports() {
            let class = match port {
                PortRef::SwitchIn { .. } => &mut peaks.0,
                PortRef::SwitchOut { .. } => &mut peaks.1,
                PortRef::Nic { .. } => &mut peaks.2,
            };
            *class = qs.peak_used().max(*class);
        }
        peaks
    }

    /// Estimated bytes of host-process backing storage behind this
    /// network model, by [part](Footprint). This measures the
    /// *simulator's* memory, not simulated buffer capacity; it is
    /// deterministic for a given run (derived from slab high-water marks
    /// and capacities, never from the allocator), so cached results replay
    /// it exactly.
    pub fn memory_footprint(&self) -> Footprint {
        use std::mem::size_of;
        let mut f = Footprint::default();
        for (_, qs) in self.ports() {
            f.queue_sets += size_of::<QueueSet>() as u64;
            f.item_slabs += qs.item_slab_bytes();
            f.queue_storage += qs.queue_storage_bytes();
        }
        for l in &self.links {
            f.links += size_of::<LinkState>() as u64 + l.credits.backing_bytes();
        }
        f.flow_table = self.flow_seq.backing_bytes()
            + (self.flow_rx.len() * (size_of::<u64>() + size_of::<FlowRx>())) as u64;
        for n in &self.nics {
            // Transport flow state (zero without installed flows).
            f.flow_table += (n.flows.len() * (size_of::<u32>() + size_of::<FlowTx>())) as u64;
            // By capacity: a drained network still reports the peak.
            f.nic_admittance += n.admit_pool.backing_bytes()
                + (n.admit.capacity() * size_of::<(u32, AdmitFifo)>()) as u64;
        }
        f.switches = (self.switches.capacity() * size_of::<Switch>()) as u64
            // A NIC's injection queue set is one of the queue sets.
            + (self.nics.capacity() * (size_of::<Nic>() - size_of::<QueueSet>())) as u64
            + (self.port_base.capacity() * size_of::<usize>()) as u64;
        for s in &self.switches {
            f.switches += (s.in_flight.capacity() * size_of::<Option<XbarTransfer>>()) as u64;
            f.switches +=
                ((s.out_link.capacity() + s.in_link.capacity()) * size_of::<usize>()) as u64;
        }
        // ARN notification state (all three vectors empty outside ArnUp,
        // so the other policies' footprints are untouched).
        f.switches += self
            .arn_tables
            .iter()
            .map(|t| (t.len() * 16 + size_of::<ArnTable>()) as u64)
            .sum::<u64>();
        f.switches += self
            .arn_child_links
            .iter()
            .map(|v| (v.capacity() * size_of::<usize>() + size_of::<Vec<usize>>()) as u64)
            .sum::<u64>();
        f.switches += self.arn_out_hot.capacity() as u64;
        f
    }

    /// Every link's sender-side credit view, in link order: at quiescence
    /// each is back at its capacity.
    pub fn credit_views(&self) -> impl Iterator<Item = &CreditView> {
        self.links.iter().map(|l| &l.credits)
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
            RoutingPolicy::Deterministic => "",
            RoutingPolicy::AdaptiveUp => " [adaptive]",
            RoutingPolicy::ArnUp => " [arn]",
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
}

/// Renders a snapshot as one human-readable line.
pub fn render_port(name: &str, s: &PortSnapshot) -> String {
    let mut line = format!(
        "{name}: {}B/{}B, normal {} items ({}B){}",
        s.used_bytes,
        s.capacity,
        s.normal_items,
        s.normal_bytes,
        if s.is_root { ", ROOT" } else { "" }
    );
    for saq in &s.saqs {
        line.push_str(&format!(
            " | {} {}B/{}p{}{}",
            saq.path,
            saq.bytes,
            saq.packets,
            if saq.blocked { " blocked" } else { "" },
            if saq.may_transmit { "" } else { " xoff" }
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_network, SchemeKind};
    use recn::RecnConfig;
    use topology::MinParams;

    #[test]
    fn snapshots_of_idle_network_are_empty() {
        let net = paper_network(MinParams::new(16, 4, 2), SchemeKind::OneQ, 64);
        let s = net.snapshot(PortRef::SwitchIn { sw: 0, port: 0 });
        assert_eq!(s.used_bytes, 0);
        assert_eq!(s.capacity, 128 * 1024);
        assert!(!s.is_root);
        assert!(s.saqs.is_empty());
        assert_eq!(net.peak_occupancies(), (0, 0, 0));
    }

    #[test]
    fn label_widths_derive_from_topology() {
        // A 2-ary 6-tree: six levels and 192 switches — the deep-tree
        // shape whose three-digit switch indices the old fixed-width
        // labels misaligned on. Every index must pad to the topology's
        // own maximum so tied ports sort in numeric order.
        let net = paper_network(topology::FatTreeParams::new(2, 6), SchemeKind::OneQ, 64);
        let hot = net.hottest_ports(3);
        let names: Vec<&str> = hot.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["nic00", "nic01", "nic02"], "64 hosts pad to 2");
        let all = net.hottest_ports(usize::MAX);
        let topo = net.topology();
        let switch_ports: u32 = topo.switches().map(|s| topo.ports(s)).sum();
        assert_eq!(all.len() as u32, 2 * switch_ports + 64, "every port listed");
        assert!(
            all.iter().any(|(n, _)| n == "sw000(lv0).in0"),
            "192 switches pad to 3 digits, 4 ports to 1"
        );
        let links = net.hottest_links(simcore::Picos::from_us(1), usize::MAX);
        assert!(
            links.iter().any(|(n, _)| n == "inject h00"),
            "link labels share the derived widths"
        );
        let sw_links = links.iter().filter(|(n, _)| n.starts_with("sw"));
        let mut lens: Vec<usize> = sw_links.map(|(n, _)| n.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        assert_eq!(lens.len(), 2, "sw->sw and sw->host lines each align");
    }

    #[test]
    fn hottest_ports_sorted_and_bounded() {
        let net = paper_network(
            MinParams::new(16, 4, 2),
            SchemeKind::Recn(RecnConfig::default()),
            64,
        );
        let hot = net.hottest_ports(5);
        assert_eq!(hot.len(), 5);
        assert!(hot
            .windows(2)
            .all(|w| w[0].1.used_bytes >= w[1].1.used_bytes));
        let line = render_port(&hot[0].0, &hot[0].1);
        assert!(line.contains("B/"), "{line}");
    }
}
