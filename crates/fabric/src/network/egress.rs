//! Egress ports: the transmitter of a link. A switch output port and a
//! NIC injection port are the same thing — a queue set feeding exactly one
//! link — so both arbitrate through one handler keyed by that link.

use simcore::{EventQueue, Picos};

use crate::config::SchemeKind;
use crate::credit::{CreditView, POOLED_QUEUE};
use crate::packet::{Packet, Payload, QueueItem};

use super::{Event, LinkDown, LinkUp, Network, Wakeup};

impl Network {
    /// `Event::OutputArb` / `Event::NicArb` — transmit one packet from the
    /// egress port feeding `link`.
    pub(crate) fn on_egress_arb(&mut self, now: Picos, q: &mut EventQueue<Event>, link: usize) {
        self.links[link].arb_scheduled = false;
        let busy = self.links[link].fwd_busy_until;
        if busy > now {
            // The busy retry happens before any emptiness check — eager
            // semantics re-arm an idle-but-busy port the same way.
            self.kick(now, busy, q, Wakeup::EgressArb { link });
            return;
        }
        // PFC: a paused link transmits nothing; the resume message kicks
        // this arbiter again. (Never true outside the PFC transport.)
        if self.links[link].paused {
            return;
        }
        let up = self.links[link].up;
        let port = up.port();
        // Work-elision fast paths (both event models): with nothing queued,
        // or a pooled downstream view out of credit, the scan below grants
        // nothing and mutates nothing — skip it.
        if !self.port(port).has_items() {
            return;
        }
        if let CreditView::Pooled { free: 0, .. } = self.links[link].credits {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let qs = self.port(port);
        qs.service_order(&mut scratch);
        let mut granted: Option<(usize, u16)> = None;
        for &qidx in &scratch {
            let QueueItem::Packet(p) = qs.head(qidx).expect("listed queue") else {
                unreachable!("markers are drained before reaching arbitration");
            };
            let tq = self.downstream_queue(link, p);
            if self.links[link].credits.has_room(tq, p.size as u64) {
                granted = Some((qidx, tq));
                break;
            }
        }
        self.scratch = scratch;
        let Some((qidx, tq)) = granted else { return };
        let pkt = self.port_take(now, q, port, qidx);
        let size = pkt.size as u64;
        self.links[link].credits.consume(tq, size);
        self.note_credit(now, link, tq, -(size as i64));
        observe!(self.on_hop(now, &pkt, link));
        let ser = self.cfg.link_time(size);
        self.links[link].fwd_busy_until = now + ser;
        self.links[link].fwd_busy_total += ser;
        let payload = Payload::Data {
            pkt,
            target_queue: tq,
        };
        let at = now + ser + self.cfg.link_delay;
        self.schedule(now, q, at, Event::Deliver { link, payload });
        let qs = self.port_mut(port);
        qs.rr_granted(qidx);
        if qs.has_items() {
            self.kick(now, now + ser, q, Wakeup::EgressArb { link });
        }
        // Buffer space freed at this port: whatever feeds it may proceed.
        match up {
            LinkUp::Switch { sw, .. } => self.kick(now, now, q, Wakeup::InputArb { sw }),
            LinkUp::Nic(host) => self.kick(now, now, q, Wakeup::NicTransfer { host }),
        }
    }

    /// The queue index a packet will occupy at the downstream switch input
    /// port, as reserved by the sender's credit view.
    pub(crate) fn downstream_queue(&self, link: usize, pkt: &Packet) -> u16 {
        match self.links[link].down {
            LinkDown::Host(_) => 0,
            LinkDown::Switch { sw, port } => match self.cfg.scheme {
                SchemeKind::OneQ => 0,
                // PFC replaces the credit view with an infinite one; mirror
                // the receiver's lowest-occupancy rule by inspecting the
                // input port directly instead of the (absent) credit state.
                SchemeKind::FourQ if self.cfg.transport.is_pfc() => {
                    let inp = &self.switches[sw].inputs[port];
                    (0..inp.num_queues())
                        .min_by_key(|&qi| inp.queue_bytes(qi))
                        .expect("4Q port has queues") as u16
                }
                SchemeKind::FourQ => self.links[link].credits.roomiest_queue(),
                SchemeKind::VoqSw => pkt.route.remaining().first().copied().unwrap_or(0) as u16,
                SchemeKind::VoqNet => pkt.dst.index() as u16,
                SchemeKind::Recn(_) => POOLED_QUEUE,
            },
        }
    }
}
