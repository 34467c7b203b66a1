//! Ports: the one place a packet enters ([`Network::port_store`]) and
//! leaves ([`Network::port_take`]) a queue set, whichever of the three
//! roles — switch input, switch output, NIC injection — the port plays.
//! The handlers pick the queue and kick arbiters; the observer hooks, SAQ
//! occupancy and its threshold signals, marker drain, deallocation, root
//! detection and the PFC watermarks all live here, keyed by [`PortRef`].

use simcore::{EventQueue, Picos};

use crate::config::SchemeKind;
use crate::observer::QueueKind;
use crate::packet::{Packet, QueueItem, RevPayload};
use crate::queue::QueueSet;

use super::{Event, Network, PortRef, Wakeup};

/// How the bytes of a packet being stored were accounted at its port.
#[derive(Debug, Clone, Copy)]
pub(super) enum Reserved {
    /// Not yet (link arrival, NIC transfer): the store charges them.
    Direct,
    /// On the target queue, at crossbar grant time (baseline schemes).
    Queue,
    /// In the port's pool, at crossbar grant time (RECN: the queue is only
    /// known at commit).
    Pooled,
}

/// Queue classification for observer events: under RECN every non-zero
/// queue index is a SAQ slot; baseline schemes have only normal queues.
fn kind_of(is_recn: bool, queue: usize) -> QueueKind {
    if is_recn && queue != 0 {
        QueueKind::Saq
    } else {
        QueueKind::Normal
    }
}

impl Network {
    /// Direct access to a port's queue set (tests/metrics).
    pub fn port(&self, port: PortRef) -> &QueueSet {
        match port {
            PortRef::SwitchIn { sw, port } => &self.switches[sw].inputs[port],
            PortRef::SwitchOut { sw, port } => &self.switches[sw].outputs[port],
            PortRef::Nic { host } => &self.nics[host].inject,
        }
    }

    pub(crate) fn port_mut(&mut self, port: PortRef) -> &mut QueueSet {
        match port {
            PortRef::SwitchIn { sw, port } => &mut self.switches[sw].inputs[port],
            PortRef::SwitchOut { sw, port } => &mut self.switches[sw].outputs[port],
            PortRef::Nic { host } => &mut self.nics[host].inject,
        }
    }

    /// Every queue set in the network with its name (tests/metrics).
    pub fn ports(&self) -> impl Iterator<Item = (PortRef, &QueueSet)> {
        let switches = self.switches.iter().enumerate().flat_map(|(sw, s)| {
            let inputs = s.inputs.iter().enumerate();
            let outputs = s.outputs.iter().enumerate();
            inputs
                .map(move |(port, qs)| (PortRef::SwitchIn { sw, port }, qs))
                .chain(outputs.map(move |(port, qs)| (PortRef::SwitchOut { sw, port }, qs)))
        });
        let nics = self.nics.iter().enumerate();
        switches.chain(nics.map(|(host, n)| (PortRef::Nic { host }, &n.inject)))
    }

    /// The link an egress `port` transmits on.
    pub(crate) fn egress_link(&self, port: PortRef) -> usize {
        match port {
            PortRef::SwitchOut { sw, port } => self.switches[sw].out_link[port],
            PortRef::Nic { host } => self.nics[host].link,
            PortRef::SwitchIn { .. } => unreachable!("input ports drive no link"),
        }
    }

    /// The link feeding an ingress `port` (whose reverse channel carries
    /// the port's credits, notifications and Xon/Xoff upstream).
    fn ingress_link(&self, port: PortRef) -> usize {
        match port {
            PortRef::SwitchIn { sw, port } => self.switches[sw].in_link[port],
            _ => unreachable!("only switch input ports have an upstream link"),
        }
    }

    /// Stores `pkt` into `queue` of `port` and runs everything an arrival
    /// implies for that port.
    pub(super) fn port_store(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        queue: usize,
        pkt: Packet,
        reserved: Reserved,
    ) {
        let is_recn = matches!(self.cfg.scheme, SchemeKind::Recn(_));
        let qs = self.port_mut(port);
        match reserved {
            Reserved::Direct => qs.push_direct(queue, QueueItem::Packet(pkt)),
            Reserved::Queue => qs.commit_reserved(queue, QueueItem::Packet(pkt)),
            Reserved::Pooled => qs.commit_pooled(queue, QueueItem::Packet(pkt)),
        }
        observe!(self.on_enqueue(now, port, queue, kind_of(is_recn, queue), &pkt));
        if is_recn && queue != 0 {
            let qs = self.port_mut(port);
            let saq = qs.saq_at_queue(queue).expect("packet stored in a live SAQ");
            let recn = qs.recn_mut().expect("RECN scheme");
            // Only an ingress SAQ ever signals: egress SAQs switch to
            // notify-on-forward mode internally, and NIC injection is
            // terminal — but occupancy is tracked everywhere, for Xoff
            // bookkeeping and deallocation.
            let path = recn.path_of(saq);
            let signals = recn.saq_enqueued(saq, pkt.size as u64);
            if let Some(path) = signals.propagate {
                let in_link = self.ingress_link(port);
                self.counters.recn_notifications += 1;
                self.send_rev_ctrl(now, q, in_link, RevPayload::RecnNotification { path });
            }
            if signals.xoff {
                let in_link = self.ingress_link(port);
                self.counters.xoffs += 1;
                self.send_rev_ctrl(now, q, in_link, RevPayload::RecnXoff { path });
            }
        }
        match port {
            PortRef::SwitchIn { sw, port } => {
                self.input_changed(sw, port);
                self.pfc_check(now, q, sw, port, true)
            }
            PortRef::SwitchOut { sw, port } => {
                self.output_occupancy_changed(now, q, sw, port, queue)
            }
            PortRef::Nic { .. } => {}
        }
    }

    /// Input `port` of `sw` stored, released or drained an item: its words
    /// of the arbiter summary follow.
    pub(super) fn input_changed(&mut self, sw: usize, port: usize) {
        let switch = &mut self.switches[sw];
        switch.arb.input_changed(port, &switch.inputs[port]);
    }

    /// Removes and returns the head packet of `queue` at `port` and runs
    /// everything a departure implies for that port.
    pub(super) fn port_take(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        queue: usize,
    ) -> Packet {
        let is_recn = matches!(self.cfg.scheme, SchemeKind::Recn(_));
        let QueueItem::Packet(pkt) = self.port_mut(port).pop(queue) else {
            unreachable!("markers are drained before reaching arbitration");
        };
        observe!(self.on_dequeue(now, port, queue, kind_of(is_recn, queue), &pkt));
        match port {
            PortRef::SwitchOut { sw, port } => {
                self.output_occupancy_changed(now, q, sw, port, queue)
            }
            // Kept for bit-exact event order: a NIC re-arms itself at `now`
            // after a queue-0 transmit under the baseline schemes too (under
            // RECN the marker drain below does it for every egress port),
            // which fixes the queue position of its retry at `busy`.
            PortRef::Nic { host } if !is_recn && queue == 0 => {
                let link = self.nics[host].link;
                self.kick(now, now, q, Wakeup::EgressArb { link });
            }
            _ => {}
        }
        if is_recn && queue == 0 {
            self.drain_markers(now, q, port, 0);
        } else if is_recn {
            let qs = self.port_mut(port);
            let saq = qs
                .saq_at_queue(queue)
                .expect("popped from a live SAQ queue");
            let recn = qs.recn_mut().expect("RECN scheme");
            let path = recn.path_of(saq);
            let signals = recn.saq_dequeued(saq, pkt.size as u64);
            // Markers of younger nested SAQs may now head this queue.
            self.drain_markers(now, q, port, queue);
            if signals.xon {
                // Ingress only: egress SAQs have no upstream Xoff.
                let in_link = self.ingress_link(port);
                self.counters.xons += 1;
                self.send_rev_ctrl(now, q, in_link, RevPayload::RecnXon { path });
            }
            if signals.deallocatable {
                self.dealloc(now, q, port, saq);
            }
        }
        if let PortRef::SwitchIn { sw, port } = port {
            // Under RECN the marker drain above already did this.
            if !is_recn {
                self.input_changed(sw, port);
            }
            self.pfc_check(now, q, sw, port, false);
        }
        pkt
    }

    /// Congestion detection watches switch outputs only: after a store to
    /// or a take from `queue` of output `port`, the RECN root detector runs
    /// on the normal queue and the ARN occupancy trigger (a no-op under
    /// RECN) on the whole port.
    fn output_occupancy_changed(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        queue: usize,
    ) {
        if queue == 0 && matches!(self.cfg.scheme, SchemeKind::Recn(_)) {
            let qs = self.port_mut(PortRef::SwitchOut { sw, port });
            let occ = qs.queue_bytes(0);
            let change = qs
                .recn_mut()
                .expect("RECN scheme")
                .normal_occupancy_changed(occ);
            self.note_root_change(now, q, sw, port, change);
        }
        self.arn_occupancy_check(now, q, sw, port);
    }

    /// PFC watermarks at input `port`: an arrival that leaves occupancy at
    /// or above the high-water mark pauses the upstream link, a departure
    /// that drains it to the low-water mark resumes it. No-op outside the
    /// PFC transport.
    fn pfc_check(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        arrival: bool,
    ) {
        let Some(pfc) = self.cfg.transport.pfc() else {
            return;
        };
        let used = self.switches[sw].inputs[port].used();
        let msg = match (arrival, self.switches[sw].pause_sent[port]) {
            (true, false) if used >= pfc.pause_threshold => {
                self.counters.pfc_pauses += 1;
                RevPayload::PfcPause
            }
            (false, true) if used <= pfc.resume_threshold => {
                self.counters.pfc_resumes += 1;
                RevPayload::PfcResume
            }
            _ => return,
        };
        self.switches[sw].pause_sent[port] = arrival;
        let in_link = self.switches[sw].in_link[port];
        self.send_rev_ctrl(now, q, in_link, msg);
    }
}
