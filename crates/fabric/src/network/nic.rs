//! NIC behaviour: message admittance, packetization, and transfer to the
//! injection port (which transmits like any other egress port, see
//! `egress.rs`).

use simcore::{EventQueue, Picos};

use crate::observer::QueueKind;
use crate::packet::{Packet, QueueItem};

use super::{Event, Network, PortRef};

impl Network {
    /// `Event::NextMessage` — a source's message is due: packetize it into
    /// the admittance VOQ and schedule the following message.
    pub(crate) fn on_next_message(&mut self, now: Picos, q: &mut EventQueue<Event>, host: usize) {
        let hosts = self.topo.num_hosts() as usize;
        let msg = self.nics[host]
            .pending
            .take()
            .expect("NextMessage without pending message");
        debug_assert_eq!(msg.at, now, "message fired at the wrong time");
        let dst = msg.dst;
        assert!(dst.index() < hosts, "message to nonexistent host {dst}");
        let src = topology::HostId::new(host as u32);
        let route = if self.cfg.routing.is_adaptive() {
            // Fat-tree up-turns come back late-bound; switches pick them at
            // forwarding time. The NIC itself never selects.
            self.topo.route_adaptive(src, dst)
        } else {
            self.topo.route(src, dst)
        };
        if self.nics[host].admit_bytes(dst.index()) >= self.cfg.admit_cap {
            // Admittance VOQ full: the message is dropped at the source
            // (application back-pressure); it never enters the network.
            self.counters.source_dropped_messages += 1;
            self.counters.source_dropped_bytes += msg.bytes as u64;
            self.observer.on_drop_attempt(now, host, dst, msg.bytes);
        } else {
            let mut remaining = msg.bytes;
            while remaining > 0 {
                let size = remaining.min(self.packet_size);
                let seq = self.nics[host].next_seq[dst.index()];
                self.nics[host].next_seq[dst.index()] += 1;
                let pkt = Packet {
                    id: self.next_packet_id,
                    src: topology::HostId::new(host as u32),
                    dst,
                    size,
                    route,
                    injected_at: now,
                    flow_seq: seq,
                };
                self.next_packet_id += 1;
                self.counters.injected_packets += 1;
                self.counters.injected_bytes += size as u64;
                self.observer.on_injected(now, &pkt);
                self.nics[host].admit_push(pkt);
                remaining -= size;
            }
        }
        if let Some(next) = self.nics[host].source.next_message() {
            assert!(next.at >= now, "source times must be non-decreasing");
            self.nics[host].pending = Some(next);
            if next.at == now {
                // A same-time non-wakeup event enters the queue: close the
                // open wakeup batch so later kicks sort after it, exactly as
                // their dedicated events would under the eager model.
                self.lazy_note_same_time_schedule(now);
            }
            q.schedule(next.at, Event::NextMessage { host });
        }
        self.kick_nic_transfer(now, q, host);
    }

    /// `Event::NicTransfer` — move packets from the admittance VOQs into
    /// the injection port while buffer space allows, round-robin across
    /// destinations (paper §4.1).
    pub(crate) fn on_nic_transfer(&mut self, now: Picos, q: &mut EventQueue<Event>, host: usize) {
        self.nics[host].transfer_scheduled = false;
        let hosts = self.topo.num_hosts() as usize;
        if self.nics[host].admit_pool.is_empty() {
            // Nothing admitted: the full scan below would make no progress
            // and schedule nothing. The round-robin pointer still advances,
            // exactly as the unguarded loop would leave it.
            self.nics[host].admit_rr = (self.nics[host].admit_rr + 1) % hosts;
            // An empty admittance stage is a closed-loop pump trigger: a
            // flow stalled on the admit cap (notably open-loop flows, whose
            // only pump driver is this drain) may refill now.
            self.pump_host_flows(now, q, host);
            return;
        }
        let mut moved_any = false;
        // Circular ascending scan over the *non-empty* destinations,
        // starting at the round-robin pointer — the same visit sequence
        // the dense 0..hosts loop produced, since empty VOQs were no-ops
        // there. The snapshot is re-taken each pass because a pop may
        // drop a destination's entry mid-pass.
        let mut order = std::mem::take(&mut self.scratch);
        loop {
            order.clear();
            let rr = self.nics[host].admit_rr as u32;
            order.extend(self.nics[host].admit.range(rr..).map(|(&d, _)| d as usize));
            order.extend(self.nics[host].admit.range(..rr).map(|(&d, _)| d as usize));
            let mut progress = false;
            for &d in &order {
                let Some(front) = self.nics[host].admit_front(d as u32) else {
                    continue;
                };
                let size = front.size as u64;
                let queue = self.nics[host].inject.classify(front);
                if !self.nics[host].inject.has_room(queue, size) {
                    continue;
                }
                // An injection SAQ past its Xoff threshold stops pulling
                // from the admittance stage — the same per-SAQ flow control
                // that bounds SAQs inside the fabric. The admittance VOQ
                // then backs up and the admit-cap drop applies source
                // back-pressure; otherwise a congested source would spool
                // its entire backlog into the injection SAQ and keep the
                // congestion tree alive long after the burst ends.
                if queue != 0 {
                    if let Some(saq) = self.nics[host].inject.saq_at_queue(queue) {
                        let recn = self.nics[host].inject.recn().expect("SAQ implies RECN");
                        if recn.occupancy(saq) >= recn.config().xoff_threshold {
                            continue;
                        }
                    }
                }
                let pkt = self.nics[host].admit_pop(d as u32);
                self.nics[host]
                    .inject
                    .push_direct(queue, QueueItem::Packet(pkt));
                let kind = if queue != 0 && self.nics[host].inject.is_saq_queue(queue) {
                    QueueKind::Saq
                } else {
                    QueueKind::Normal
                };
                self.observer
                    .on_enqueue(now, PortRef::Nic { host }, queue, kind, &pkt);
                if queue != 0 {
                    if let Some(saq) = self.nics[host].inject.saq_at_queue(queue) {
                        // NIC injection is terminal: enqueue signals never
                        // propagate further upstream, but occupancy must be
                        // tracked for Xoff bookkeeping and deallocation.
                        let _ = self.nics[host]
                            .inject
                            .recn_mut()
                            .expect("SAQ queue implies RECN")
                            .saq_enqueued(saq, size);
                    }
                }
                progress = true;
                moved_any = true;
            }
            if !progress {
                break;
            }
        }
        self.scratch = order;
        self.nics[host].admit_rr = (self.nics[host].admit_rr + 1) % hosts;
        if moved_any {
            self.kick_egress_arb(now, now, q, self.nics[host].link);
        }
        // Admittance space may have freed: refill stalled flows.
        self.pump_host_flows(now, q, host);
    }
}
