//! Links: control messages on either channel, credit reporting, and the
//! two delivery handlers (what arrives at each end of a link).

use simcore::{EventQueue, Picos};

use crate::config::LINK_GBPS;
use crate::observer::HookSet;
use crate::packet::{Packet, Payload, RevPayload};

use super::{Event, LinkDown, Network, Wakeup};

impl Network {
    /// Reports a change of `delta` bytes (negative: consumed, positive:
    /// replenished) in `link`'s credit view to the observer (no-op for
    /// infinite host-sink views, which have no meaningful balance, and
    /// when nobody listens: reading the view back is the hook's cost).
    pub(crate) fn note_credit(&mut self, now: Picos, link: usize, queue: u16, delta: i64) {
        if !self.interests.contains(HookSet::NONE.on_credit_change()) {
            return;
        }
        if let Some(free) = self.links[link].credits.free_bytes(queue) {
            let cap = self.links[link].credits.queue_cap();
            observe!(self.on_credit_change(now, link, queue, delta, free, cap));
        }
    }

    /// Sends a control payload on the forward (data) channel of `link`.
    pub(crate) fn send_fwd_ctrl(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: Payload,
    ) {
        let bytes = payload.wire_bytes();
        let l = &mut self.links[link];
        let depart = l.fwd_busy_until.max(now);
        let ser = Picos::serialize_bytes(bytes, LINK_GBPS);
        l.fwd_busy_until = depart + ser;
        l.fwd_busy_total += ser;
        let at = depart + ser + self.cfg.link_delay;
        self.schedule(now, q, at, Event::Deliver { link, payload });
    }

    /// Sends a control payload on the reverse channel of `link`.
    pub(crate) fn send_rev_ctrl(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: RevPayload,
    ) {
        let bytes = payload.wire_bytes();
        let l = &mut self.links[link];
        let depart = l.rev_busy_until.max(now);
        let ser = Picos::serialize_bytes(bytes, LINK_GBPS);
        l.rev_busy_until = depart + ser;
        let at = depart + ser + self.cfg.link_delay;
        self.schedule(now, q, at, Event::DeliverRev { link, payload });
    }

    /// `Event::Deliver` — something arrived at the downstream end of
    /// `link`: a host sink, or the switch input port the link feeds.
    pub(super) fn on_deliver(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: Payload,
    ) {
        match self.links[link].down {
            LinkDown::Host(h) => {
                let Payload::Data { pkt, .. } = payload else {
                    unreachable!("delivery links never carry RECN control traffic");
                };
                self.deliver_to_host(now, q, h, pkt)
            }
            LinkDown::Switch { sw, port } => match payload {
                Payload::Data { pkt, target_queue } => {
                    self.switch_input_arrival(now, q, sw, port, pkt, target_queue)
                }
                ctrl => self.on_recn_control(now, q, link, ctrl),
            },
        }
    }

    fn deliver_to_host(&mut self, now: Picos, q: &mut EventQueue<Event>, host: usize, pkt: Packet) {
        assert_eq!(
            pkt.dst.index(),
            host,
            "misrouted packet: {} at host {host}",
            pkt.dst
        );
        assert!(
            pkt.route.is_exhausted(),
            "packet delivered with unconsumed turns"
        );
        // Closed-loop flows bypass the sequence check: duplicates and
        // gaps are legal under retransmission, and the transport receiver
        // does its own sequence accounting.
        if self.has_flows && self.transport_receive(now, q, &pkt) {
            return;
        }
        let flow = self.flow_seq.entry(pkt.src, pkt.dst);
        let expected = flow.next_expected;
        if pkt.flow_seq != expected {
            self.counters.order_violations += 1;
            assert!(
                !self.cfg.strict_order(),
                "out-of-order delivery on flow {}->{}: got {}, expected {expected}",
                pkt.src,
                pkt.dst,
                pkt.flow_seq
            );
        }
        // In order: one past it. Otherwise resynchronize past the gap.
        flow.next_expected = expected.max(pkt.flow_seq + 1);
        self.counters.delivered_packets += 1;
        self.counters.delivered_bytes += pkt.size as u64;
        let latency = now.saturating_sub(pkt.injected_at);
        self.counters.latency_ns.push(latency.as_ns_f64());
        observe!(self.on_delivered(now, &pkt));
    }

    /// `Event::DeliverRev` — something arrived at the upstream end of
    /// `link`, i.e. at the egress port transmitting on it.
    pub(super) fn on_deliver_rev(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: RevPayload,
    ) {
        match payload {
            RevPayload::Credit { queue, bytes } => {
                self.links[link].credits.replenish(queue, bytes as u64);
                self.note_credit(now, link, queue, bytes as i64);
                self.kick(now, now, q, Wakeup::EgressArb { link });
            }
            RevPayload::RecnNotification { path } => {
                self.egress_recn_notification(now, q, link, path)
            }
            RevPayload::RecnXoff { path } => {
                self.counters.xoffs += 1;
                self.egress_set_remote_xoff(link, path, true);
            }
            RevPayload::RecnXon { path } => {
                self.counters.xons += 1;
                self.egress_set_remote_xoff(link, path, false);
                // The SAQ may transmit again.
                self.kick(now, now, q, Wakeup::EgressArb { link });
            }
            RevPayload::PfcPause => {
                self.links[link].paused = true;
                observe!(self.on_pause_change(now, link, true));
            }
            RevPayload::PfcResume => {
                self.links[link].paused = false;
                observe!(self.on_pause_change(now, link, false));
                // The transmitter may send again.
                self.kick(now, now, q, Wakeup::EgressArb { link });
            }
            RevPayload::ArnHot => self.on_arn_notification(now, link, true),
            RevPayload::ArnCold => self.on_arn_notification(now, link, false),
        }
    }
}
