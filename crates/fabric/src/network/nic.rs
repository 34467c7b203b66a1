//! NIC behaviour: message admittance, packetization, and transfer to the
//! injection port (which transmits like any other egress port, see
//! `egress.rs`).

use simcore::{EventQueue, Picos};
use topology::{HostId, Route};

use crate::packet::Packet;
use crate::queue::QueueSet;
use crate::source::{MessageSource, SourcedMessage};

use super::port::Reserved;
use super::{Event, FlowTx, Network, PortRef, Wakeup};

/// One destination's admittance FIFO: intrusive head/tail handles into
/// the NIC's `admit_pool` plus its byte occupancy (bounded by
/// `cfg.admit_cap`). Entries exist only while the destination has queued
/// packets, so per-NIC admittance cost scales with the live backlog, not
/// with the host count — the layout change that makes 4096-host fabrics
/// affordable (the dense `Vec<VecDeque>` form was `hosts²` queues).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmitFifo {
    pub head: crate::arena::Handle,
    pub tail: crate::arena::Handle,
    pub bytes: u64,
}

/// A packet queued in the admittance stage plus its intrusive link.
#[derive(Debug)]
pub(crate) struct AdmitNode {
    pub pkt: Packet,
    pub next: Option<crate::arena::Handle>,
}

pub(crate) struct Nic {
    /// Admittance VOQs as `(destination, FIFO)`, present only while
    /// non-empty (the generation process itself is the depth bound) and
    /// kept in ascending destination order, so the round-robin transfer
    /// scan visits exactly the sequence the dense layout produced. Most of
    /// the time it holds nothing or one entry; a `Vec` keeps its capacity
    /// across that churn where a map allocates and frees a node per
    /// message.
    pub admit: Vec<(u32, AdmitFifo)>,
    /// Slab storing the packets queued across all admittance VOQs.
    pub admit_pool: crate::arena::Arena<AdmitNode>,
    pub admit_rr: usize,
    pub inject: QueueSet,
    pub link: usize,
    pub transfer_scheduled: bool,
    pub source: Box<dyn MessageSource>,
    pub pending: Option<SourcedMessage>,
    /// Closed-loop sender state per destination (transport layer). Empty
    /// unless flows were installed; entries are removed on completion.
    pub flows: std::collections::BTreeMap<u32, FlowTx>,
}

impl Nic {
    /// Where `dst`'s FIFO is in `admit`, or where it would go.
    fn admit_slot(&self, dst: u32) -> Result<usize, usize> {
        self.admit.binary_search_by_key(&dst, |&(d, _)| d)
    }

    /// Bytes queued toward `dst` in the admittance stage.
    pub fn admit_bytes(&self, dst: usize) -> u64 {
        self.admit_slot(dst as u32)
            .map_or(0, |at| self.admit[at].1.bytes)
    }

    /// Appends `pkt` to its destination's admittance FIFO.
    pub fn admit_push(&mut self, pkt: Packet) {
        let (dst, size) = (pkt.dst.index() as u32, pkt.size as u64);
        let h = self.admit_pool.insert(AdmitNode { pkt, next: None });
        match self.admit_slot(dst) {
            Ok(at) => {
                let f = &mut self.admit[at].1;
                self.admit_pool.get_mut(f.tail).next = Some(h);
                f.tail = h;
                f.bytes += size;
            }
            Err(at) => {
                let fifo = AdmitFifo {
                    head: h,
                    tail: h,
                    bytes: size,
                };
                self.admit.insert(at, (dst, fifo));
            }
        }
    }

    /// The head packet of `dst`'s admittance FIFO, if any.
    pub fn admit_front(&self, dst: u32) -> Option<&Packet> {
        let at = self.admit_slot(dst).ok()?;
        Some(&self.admit_pool.get(self.admit[at].1.head).pkt)
    }

    /// Removes and returns the head packet of `dst`'s FIFO, dropping the
    /// FIFO entry when it empties.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty (callers check the front first).
    pub fn admit_pop(&mut self, dst: u32) -> Packet {
        let at = self.admit_slot(dst).expect("pop from empty admit VOQ");
        let f = &mut self.admit[at].1;
        let node = self.admit_pool.remove(f.head);
        f.bytes -= node.pkt.size as u64;
        match node.next {
            Some(next) => f.head = next,
            None => {
                debug_assert_eq!(f.bytes, 0, "byte accounting out of sync");
                self.admit.remove(at);
            }
        }
        node.pkt
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("admit_rr", &self.admit_rr)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// The route a packet from `host` to `dst` is injected with. Under the
    /// adaptive policies fat-tree up-turns come back late-bound: switches
    /// pick them at forwarding time, the NIC itself never selects.
    pub(crate) fn route(&self, host: usize, dst: HostId) -> Route {
        let src = HostId::new(host as u32);
        if self.cfg.routing.is_adaptive() {
            self.topo.route_adaptive(src, dst)
        } else {
            self.topo.route(src, dst)
        }
    }

    /// Creates packet `seq` of `host`'s flow toward `dst` and queues it in
    /// the admittance stage.
    pub(crate) fn admit_packet(
        &mut self,
        now: Picos,
        host: usize,
        dst: HostId,
        size: u32,
        route: Route,
        seq: u64,
    ) {
        let pkt = Packet {
            id: self.next_packet_id,
            src: HostId::new(host as u32),
            dst,
            size,
            route,
            injected_at: now,
            flow_seq: seq,
        };
        self.next_packet_id += 1;
        self.counters.injected_packets += 1;
        self.counters.injected_bytes += size as u64;
        observe!(self.on_injected(now, &pkt));
        self.nics[host].admit_push(pkt);
    }

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
        let route = self.route(host, dst);
        if self.nics[host].admit_bytes(dst.index()) >= self.cfg.admit_cap {
            // Admittance VOQ full: the message is dropped at the source
            // (application back-pressure); it never enters the network.
            self.counters.source_dropped_messages += 1;
            self.counters.source_dropped_bytes += msg.bytes as u64;
            observe!(self.on_drop_attempt(now, host, dst, msg.bytes));
        } else {
            let flow = self.flow_seq.entry(HostId::new(host as u32), dst);
            let mut seq = flow.next_send;
            flow.next_send += msg.bytes.div_ceil(self.packet_size) as u64;
            let mut remaining = msg.bytes;
            while remaining > 0 {
                let size = remaining.min(self.packet_size);
                self.admit_packet(now, host, dst, size, route, seq);
                seq += 1;
                remaining -= size;
            }
        }
        if let Some(next) = self.nics[host].source.next_message() {
            assert!(next.at >= now, "source times must be non-decreasing");
            self.nics[host].pending = Some(next);
            self.schedule(now, q, next.at, Event::NextMessage { host });
        }
        self.kick(now, now, q, Wakeup::NicTransfer { host });
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
            let nic = &self.nics[host];
            let wrap = nic
                .admit
                .partition_point(|&(d, _)| (d as usize) < nic.admit_rr);
            let (below, from_rr) = nic.admit.split_at(wrap);
            order.extend(from_rr.iter().chain(below).map(|&(d, _)| d as usize));
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
                self.port_store(now, q, PortRef::Nic { host }, queue, pkt, Reserved::Direct);
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
            let link = self.nics[host].link;
            self.kick(now, now, q, Wakeup::EgressArb { link });
        }
        // Admittance space may have freed: refill stalled flows.
        self.pump_host_flows(now, q, host);
    }
}
