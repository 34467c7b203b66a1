//! Closed-loop flow machinery: the sender window/retransmission state at
//! each NIC, the receiver sequence accounting, and the out-of-band
//! ack/timeout event handlers. See `crate::transport` for the knobs
//! and DESIGN.md §6g for the model.
//!
//! Everything here is gated on `Network::has_flows` (or on per-map
//! lookups that miss when no flows exist), so the open-loop default
//! executes none of it — that is the bit-exactness contract.

use std::ops::Bound;

use simcore::{EventQueue, Picos, TimerGen};
use topology::HostId;

use crate::packet::Packet;
use crate::transport::{FlowDesc, TransportKind};

use super::{Event, Network, Wakeup};

/// Sentinel for "no NACK" in [`Event::TransportAck`] (`Option<u64>` would
/// not change event size, but a sentinel keeps the variant `Copy`-simple
/// and the dispatch arm flat).
pub(crate) const NO_NACK: u64 = u64::MAX;

/// Sender-side state of one closed-loop flow (lives in `Nic::flows`,
/// keyed by destination; removed on completion).
#[derive(Debug)]
pub(crate) struct FlowTx {
    /// Total flow size in bytes.
    pub bytes: u64,
    /// When the flow opens (pumping before this instant is refused).
    pub start: Picos,
    /// Total packets the flow splits into.
    pub total_pkts: u64,
    /// Window base: every packet below this sequence is acknowledged.
    pub base: u64,
    /// Next sequence to (re)send.
    pub send_next: u64,
    /// Highest sequence ever sent + 1; sending below this counts as a
    /// retransmission.
    pub high_sent: u64,
    /// Generation-checked retransmission timer.
    pub timer: TimerGen,
}

/// Receiver-side state of one closed-loop flow (lives in
/// `Network::flow_rx`; kept after completion so late duplicates are
/// recognized).
#[derive(Debug)]
pub(crate) struct FlowRx {
    /// Total packets expected.
    pub total_pkts: u64,
    /// When the flow opened (for FCT).
    pub start: Picos,
    /// Cumulative receive point (windowed transports): every packet below
    /// this sequence arrived in order.
    pub rcv_next: u64,
    /// Distinct packets received (open-loop flows, which never duplicate).
    pub received: u64,
    /// The `rcv_next` value the last NACK was sent at (dedup: one NACK per
    /// stalled receive point). `u64::MAX` = none sent yet.
    pub last_nack_at: u64,
    /// Whether the flow completed (FCT recorded).
    pub done: bool,
}

/// Receiver map key for a packet's flow.
pub(crate) fn flow_key(pkt: &Packet) -> u64 {
    key(pkt.src.index() as u32, pkt.dst.index() as u32)
}

/// A flow's identity as one word: `src` in the upper half, `dst` below.
pub(crate) fn key(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

impl Network {
    /// Installs closed-loop flows. Call before [`Network::prime`] (or
    /// [`Network::build_engine`]), which schedules each flow's
    /// [`Event::FlowStart`].
    ///
    /// At most one flow per `(src, dst)` pair — the pair *is* the flow
    /// identity on the wire, so the receiver can attribute packets without
    /// growing [`Packet`]. A pair carrying a flow must not also carry
    /// message-source traffic (its packets would be misattributed to the
    /// flow); workloads built from flow generators use silent sources.
    ///
    /// # Panics
    ///
    /// Panics on an invalid host, a self-targeting flow, an empty flow, or
    /// a duplicate `(src, dst)` pair.
    pub fn install_flows(&mut self, flows: &[FlowDesc]) {
        let hosts = self.topo.num_hosts() as usize;
        for f in flows {
            assert!(
                (f.src as usize) < hosts && (f.dst as usize) < hosts,
                "flow {} -> {} names a nonexistent host ({hosts} hosts)",
                f.src,
                f.dst
            );
            assert_ne!(f.src, f.dst, "flow {} targets its own host", f.src);
            assert!(f.bytes > 0, "flow {} -> {} is empty", f.src, f.dst);
            let total_pkts = f.bytes.div_ceil(self.packet_size as u64);
            let prev = self.nics[f.src as usize].flows.insert(
                f.dst,
                FlowTx {
                    bytes: f.bytes,
                    start: f.start,
                    total_pkts,
                    base: 0,
                    send_next: 0,
                    high_sent: 0,
                    timer: TimerGen::new(),
                },
            );
            assert!(
                prev.is_none(),
                "duplicate flow {} -> {}: one flow per (src, dst) pair",
                f.src,
                f.dst
            );
            self.flow_rx.insert(
                key(f.src, f.dst),
                FlowRx {
                    total_pkts,
                    start: f.start,
                    rcv_next: 0,
                    received: 0,
                    last_nack_at: NO_NACK,
                    done: false,
                },
            );
        }
        if !flows.is_empty() {
            self.has_flows = true;
        }
    }

    /// Pushes as many of the flow's packets into the admittance stage as
    /// the send window and the admittance cap allow, then (re)arms the
    /// retransmission timer (`Event::FlowStart` opens the flow by filling
    /// its window). The closed-loop counterpart of `on_next_message`'s
    /// packetization loop.
    pub(crate) fn flow_pump(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        host: usize,
        dst: u32,
    ) {
        let transport = self.cfg.transport.config().copied();
        let window = transport.map(|c| u64::from(c.window_pkts));
        let mut pushed = false;
        loop {
            let Some(f) = self.nics[host].flows.get(&dst) else {
                return; // completed (or never existed)
            };
            if now < f.start || f.send_next >= f.total_pkts {
                break;
            }
            if let Some(w) = window {
                if f.send_next - f.base >= w {
                    break;
                }
            }
            let seq = f.send_next;
            let offset = seq * self.packet_size as u64;
            let size = (f.bytes - offset).min(self.packet_size as u64) as u32;
            let retransmit = seq < f.high_sent;
            if self.nics[host].admit_bytes(dst as usize) >= self.cfg.admit_cap {
                break; // admittance back-pressure; the transfer stage re-pumps
            }
            let dst_host = HostId::new(dst);
            let route = self.route(host, dst_host);
            if retransmit {
                self.counters.retransmitted_packets += 1;
                observe!(self.on_retransmit(now, host, dst_host, seq));
            }
            self.admit_packet(now, host, dst_host, size, route, seq);
            let f = self.nics[host].flows.get_mut(&dst).expect("flow exists");
            f.send_next = seq + 1;
            f.high_sent = f.high_sent.max(f.send_next);
            pushed = true;
        }
        if let Some(timeout) = transport.map(|c| c.timeout) {
            let f = self.nics[host].flows.get_mut(&dst).expect("flow exists");
            if !f.timer.is_armed() && f.base < f.send_next {
                let gen = f.timer.arm();
                let fire = Event::TransportTimeout { host, dst, gen };
                self.schedule(now, q, now + timeout, fire);
            }
        } else {
            // Open loop: no acks will ever arrive; the sender is done once
            // everything entered the admittance stage.
            let done = self.nics[host]
                .flows
                .get(&dst)
                .is_some_and(|f| f.send_next >= f.total_pkts);
            if done {
                self.nics[host].flows.remove(&dst);
            }
        }
        if pushed {
            self.kick(now, now, q, Wakeup::NicTransfer { host });
        }
    }

    /// Re-pumps every flow of `host` (called when the admittance stage
    /// drains — the only pump trigger an open-loop flow has, and the
    /// admit-cap stall release for closed-loop ones).
    pub(crate) fn pump_host_flows(&mut self, now: Picos, q: &mut EventQueue<Event>, host: usize) {
        if !self.has_flows || self.nics[host].flows.is_empty() {
            return;
        }
        // By successor key: a pump removes at most its own flow (an open
        // loop one that is done) and adds none.
        let mut next = self.nics[host].flows.keys().next().copied();
        while let Some(dst) = next {
            self.flow_pump(now, q, host, dst);
            let later = (Bound::Excluded(dst), Bound::Unbounded);
            next = self.nics[host].flows.range(later).next().map(|(&d, _)| d);
        }
    }

    /// `pkt` reached its destination host: if it belongs to a closed-loop
    /// flow, receiver sequence accounting, ack generation and completion
    /// detection, and `true`; otherwise nothing, and `false`.
    pub(crate) fn transport_receive(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        pkt: &Packet,
    ) -> bool {
        let Some(rx) = self.flow_rx.get_mut(&flow_key(pkt)) else {
            return false;
        };
        self.counters.delivered_packets += 1;
        self.counters.delivered_bytes += pkt.size as u64;
        let latency = now.saturating_sub(pkt.injected_at);
        self.counters.latency_ns.push(latency.as_ns_f64());
        observe!(self.on_delivered(now, pkt));

        let Some(ack_delay) = self.cfg.transport.config().map(|c| c.ack_delay) else {
            // Open loop: no retransmission, so every arrival is distinct.
            if !rx.done {
                rx.received += 1;
                if rx.received >= rx.total_pkts {
                    rx.done = true;
                    let start = rx.start;
                    self.flow_complete(now, pkt.src, pkt.dst, start);
                }
            }
            return true;
        };
        let mut nack = NO_NACK;
        let mut completed = None;
        if rx.done {
            // Late duplicate after completion: re-ack so a sender stuck in
            // a timeout loop learns the flow is fully delivered.
        } else if pkt.flow_seq == rx.rcv_next {
            rx.rcv_next += 1;
            if rx.rcv_next >= rx.total_pkts {
                rx.done = true;
                completed = Some(rx.start);
            }
        } else if pkt.flow_seq > rx.rcv_next {
            // Gap: a go-back-N receiver discards out-of-order arrivals and
            // keeps acking the stall point; a NACK receiver additionally
            // asks for a rewind, once per distinct stall point.
            if matches!(self.cfg.transport, TransportKind::Nack(_))
                && rx.last_nack_at != rx.rcv_next
            {
                rx.last_nack_at = rx.rcv_next;
                nack = rx.rcv_next;
                self.counters.transport_nacks += 1;
            }
        }
        // else: duplicate below rcv_next — the cumulative ack covers it.
        let cum = rx.rcv_next;
        self.counters.transport_acks += 1;
        // Acks are out-of-band (fixed delay, no wire contention): the MIN
        // is unidirectional for data, and modeling the response path would
        // change credit/control semantics for all five schemes.
        let ack = Event::TransportAck {
            host: pkt.src.index(),
            dst: pkt.dst.index() as u32,
            cum,
            nack,
        };
        self.schedule(now, q, now + ack_delay, ack);
        if let Some(start) = completed {
            self.flow_complete(now, pkt.src, pkt.dst, start);
        }
        true
    }

    /// `Event::TransportAck` — cumulative ack (and optional NACK rewind)
    /// arriving back at the sender.
    pub(crate) fn on_transport_ack(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        host: usize,
        dst: u32,
        cum: u64,
        nack: u64,
    ) {
        let Some(f) = self.nics[host].flows.get_mut(&dst) else {
            return; // flow already completed at the sender
        };
        let mut advanced = false;
        if cum > f.base {
            f.base = cum;
            f.timer.cancel();
            advanced = true;
        }
        if f.base >= f.total_pkts {
            // Fully acknowledged: sender state retires. Any armed timer
            // event is orphaned and will miss the map lookup above.
            self.nics[host].flows.remove(&dst);
            return;
        }
        let mut rewound = false;
        if nack != NO_NACK && nack >= f.base && nack < f.send_next {
            f.send_next = nack;
            f.timer.cancel();
            rewound = true;
        }
        if advanced || rewound {
            self.flow_pump(now, q, host, dst);
        }
    }

    /// `Event::TransportTimeout` — go-back-N rewind, unless the timer was
    /// cancelled (ack advanced the base) since this event was scheduled.
    pub(crate) fn on_transport_timeout(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        host: usize,
        dst: u32,
        gen: u32,
    ) {
        let Some(f) = self.nics[host].flows.get_mut(&dst) else {
            return; // flow completed; event is stale
        };
        if !f.timer.fires(gen) {
            return; // superseded by an ack since scheduling
        }
        if f.base >= f.send_next {
            return; // nothing outstanding (window empty)
        }
        self.counters.transport_timeouts += 1;
        f.send_next = f.base;
        self.flow_pump(now, q, host, dst);
    }

    fn flow_complete(&mut self, now: Picos, src: HostId, dst: HostId, start: Picos) {
        self.counters.flows_completed += 1;
        let fct = now.saturating_sub(start);
        observe!(self.on_flow_complete(now, src, dst, fct));
    }
}
