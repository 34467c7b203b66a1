//! Egress ports: the transmitter of a link. A switch output port and a
//! NIC injection port are the same thing — a queue set feeding exactly one
//! link — so both arbitrate through one handler keyed by that link.

use simcore::{EventModel, EventQueue, Picos};

use crate::config::SchemeKind;
use crate::credit::{CreditView, POOLED_QUEUE};
use crate::packet::{Packet, Payload, QueueItem};

use super::switch::kind_of;
use super::{Event, LinkDown, LinkUp, Network, Wakeup};

impl Network {
    /// Schedules the egress arbiter of `link`'s transmitter at `at` unless
    /// one is already pending. `now` is the current time: same-time kicks
    /// may coalesce under the lazy model, future ones (busy retries,
    /// post-transmit self-kicks) always get a dedicated event.
    pub(crate) fn kick_egress_arb(
        &mut self,
        now: Picos,
        at: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
    ) {
        if !self.links[link].arb_scheduled {
            self.links[link].arb_scheduled = true;
            if at == now && self.cfg.event_model == EventModel::Lazy {
                self.lazy_push(now, q, Wakeup::EgressArb { link });
            } else {
                let event = match self.links[link].up {
                    LinkUp::Nic(host) => Event::NicArb { host },
                    LinkUp::Switch { sw, port } => Event::OutputArb { sw, port },
                };
                q.schedule(at, event);
            }
        }
    }

    /// `Event::OutputArb` / `Event::NicArb` — transmit one packet from the
    /// egress port feeding `link`.
    pub(crate) fn on_egress_arb(&mut self, now: Picos, q: &mut EventQueue<Event>, link: usize) {
        self.links[link].arb_scheduled = false;
        let busy = self.links[link].fwd_busy_until;
        if busy > now {
            // The busy retry happens before any emptiness check — eager
            // semantics re-arm an idle-but-busy port the same way.
            self.kick_egress_arb(now, busy, q, link);
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
        let is_recn = matches!(self.cfg.scheme, SchemeKind::Recn(_));
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
        let QueueItem::Packet(pkt) = self.port_mut(port).pop(qidx) else {
            unreachable!("head was a packet");
        };
        self.observer
            .on_dequeue(now, port, qidx, kind_of(is_recn, qidx), &pkt);
        let size = pkt.size as u64;
        match up {
            // Congestion detection watches switch outputs only: the RECN
            // root detector on the normal queue, and the ARN occupancy
            // trigger (a no-op under RECN) on the whole port.
            LinkUp::Switch { sw, port: out } => {
                if is_recn && qidx == 0 {
                    let qs = self.port_mut(port);
                    let occ = qs.queue_bytes(0);
                    let change = qs
                        .recn_mut()
                        .expect("RECN scheme")
                        .normal_occupancy_changed(occ);
                    self.note_root_change(now, q, sw, out, change);
                }
                self.arn_occupancy_check(now, q, sw, out);
            }
            // Kept for bit-exact event order: a NIC re-arms itself at `now`
            // after a queue-0 transmit under the baseline schemes too (under
            // RECN the marker drain below does it for every egress port),
            // which fixes the queue position of its retry at `busy`.
            LinkUp::Nic(_) => {
                if !is_recn && qidx == 0 {
                    self.kick_egress_arb(now, now, q, link);
                }
            }
        }
        if is_recn {
            if qidx != 0 {
                let qs = self.port_mut(port);
                let saq = qs.saq_at_queue(qidx).expect("popped from a live SAQ queue");
                let signals = qs.recn_mut().expect("RECN scheme").saq_dequeued(saq, size);
                debug_assert!(!signals.xon, "egress SAQs have no upstream Xoff");
                self.drain_markers(now, q, port, qidx);
                if signals.deallocatable {
                    self.dealloc(now, q, port, saq);
                }
            } else {
                self.drain_markers(now, q, port, 0);
            }
        }
        self.links[link].credits.consume(tq, size);
        self.note_credit_consumed(now, link, tq, size);
        self.observer.on_hop(now, &pkt, link);
        let ser = self.cfg.link_time(size);
        self.links[link].fwd_busy_until = now + ser;
        self.links[link].fwd_busy_total += ser;
        let at = now + ser + self.cfg.link_delay;
        if at == now {
            self.lazy_note_same_time_schedule(now);
        }
        q.schedule(
            at,
            Event::Deliver {
                link,
                payload: Payload::Data {
                    pkt,
                    target_queue: tq,
                },
            },
        );
        let qs = self.port_mut(port);
        qs.rr_granted(qidx);
        if qs.has_items() {
            self.kick_egress_arb(now, now + ser, q, link);
        }
        // Buffer space freed at this port: whatever feeds it may proceed.
        match up {
            LinkUp::Switch { sw, .. } => self.kick_input_arb(now, q, sw),
            LinkUp::Nic(host) => self.kick_nic_transfer(now, q, host),
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
