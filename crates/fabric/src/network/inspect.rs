//! Port-state inspection: structured snapshots of queue occupancies and
//! RECN state, for debugging, `recn inspect`, and tests.

use topology::PathSpec;

use crate::queue::QueueSet;

use super::{Network, PortRef};

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
        let mut all: Vec<(String, PortSnapshot)> = Vec::new();
        for (s, sw) in self.switches.iter().enumerate() {
            let stage = self.topo.stage_of(topology::SwitchId::new(s as u32));
            for p in 0..sw.inputs.len() {
                all.push((
                    format!("sw{s:0sw_w$}({tag}{stage}).in{p:0p_w$}"),
                    snapshot_of(&sw.inputs[p]),
                ));
                all.push((
                    format!("sw{s:0sw_w$}({tag}{stage}).out{p:0p_w$}"),
                    snapshot_of(&sw.outputs[p]),
                ));
            }
        }
        for (h, nic) in self.nics.iter().enumerate() {
            all.push((format!("nic{h:0h_w$}"), snapshot_of(&nic.inject)));
        }
        all.sort_by(|a, b| b.1.used_bytes.cmp(&a.1.used_bytes).then(a.0.cmp(&b.0)));
        all.truncate(top);
        all
    }

    /// Peak buffer occupancy (bytes) ever reached by any port, by class:
    /// `(switch inputs, switch outputs, NIC injection)`.
    pub fn peak_occupancies(&self) -> (u64, u64, u64) {
        let mut pin = 0;
        let mut pout = 0;
        for sw in &self.switches {
            for p in 0..sw.inputs.len() {
                pin = pin.max(sw.inputs[p].peak_used());
                pout = pout.max(sw.outputs[p].peak_used());
            }
        }
        let pnic = self
            .nics
            .iter()
            .map(|n| n.inject.peak_used())
            .max()
            .unwrap_or(0);
        (pin, pout, pnic)
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
