//! Switch behaviour: input arrival, crossbar arbitration and transfer
//! (output ports transmit through `egress.rs`).

use simcore::{EventQueue, Picos};

use crate::config::{RoutingPolicy, SchemeKind};
use crate::credit::POOLED_QUEUE;
use crate::packet::{Packet, QueueItem, RevPayload};
use crate::queue::QueueSet;

use super::port::Reserved;
use super::{Event, Network, PortRef, Wakeup, XbarTransfer};

/// What a switch's crossbar arbiter works from: a few words summarizing
/// its ports, kept where the ports change, so that arbitration does not
/// re-read a queue set to learn its head is still blocked (DESIGN.md §4).
/// One bit per port: the topology constructors refuse switches of more
/// than 64 ports.
#[derive(Debug, Clone)]
pub struct ArbiterSummary {
    /// Input ports holding at least one stored item.
    pub in_items: u64,
    /// Input ports with a crossbar transfer in flight.
    pub in_flight: u64,
    /// Output ports a crossbar transfer is in flight to.
    pub out_busy: u64,
    /// Output ports whose RECN state could answer a request with a
    /// notification: root active or CAM non-empty (zero outside RECN).
    pub out_notify: u64,
    /// Per input port, the output its head requests, or `NO_REQUEST`.
    request: [u8; 64],
}

/// Whether `port`'s bit is set in `mask`.
fn has(mask: u64, port: usize) -> bool {
    mask >> port & 1 == 1
}

/// Sets or clears `port`'s bit in `mask`.
fn set(mask: &mut u64, port: usize, on: bool) {
    *mask = (*mask & !(1 << port)) | (u64::from(on) << port);
}

/// Whether the RECN state of the output port behind `qs` could answer a
/// request with a notification: it is a root or its CAM holds a line
/// (never outside RECN).
fn can_notify(qs: &QueueSet) -> bool {
    qs.recn()
        .is_some_and(|r| r.is_root() || r.saqs_in_use() > 0)
}

impl ArbiterSummary {
    const NO_REQUEST: u8 = u8::MAX;

    pub(super) fn new() -> ArbiterSummary {
        ArbiterSummary {
            in_items: 0,
            in_flight: 0,
            out_busy: 0,
            out_notify: 0,
            request: [Self::NO_REQUEST; 64],
        }
    }

    /// The output `input`'s head requests, when that is the only request
    /// the port can make: every stored item sits in queue 0 and its head
    /// is a packet committed to its next turn. `None` otherwise (empty
    /// port, items in other queues, adaptive head): the arbiter then
    /// examines the queue set itself.
    pub fn request(&self, input: usize) -> Option<usize> {
        let out = self.request[input];
        (out != Self::NO_REQUEST).then_some(out as usize)
    }

    /// The lowest ready input in `from..to`: one holding an item and not
    /// mid-transfer — the one a scan over every port would stop at next.
    fn next_ready(&self, from: usize, to: usize) -> Option<usize> {
        let ready = self.in_items & !self.in_flight;
        let below = |port: usize| if port >= 64 { !0 } else { (1u64 << port) - 1 };
        let next = ready & below(to) & !below(from);
        let next = (next != 0).then(|| next.trailing_zeros() as usize);
        debug_assert_eq!(next, (from..to).find(|&i| has(ready, i)));
        next
    }

    /// Re-derives `input`'s words after its queue set `qs` changed.
    pub(super) fn input_changed(&mut self, input: usize, qs: &QueueSet) {
        set(&mut self.in_items, input, qs.has_items());
        self.request[input] = match qs.sole_head() {
            Some(p) if !p.route.next_turn_rebindable() => p.route.next_turn(),
            _ => Self::NO_REQUEST,
        };
    }

    /// Re-derives `output`'s notify bit after the root detector or the CAM
    /// occupancy of its queue set `qs` changed.
    pub(super) fn output_recn_changed(&mut self, output: usize, qs: &QueueSet) {
        set(&mut self.out_notify, output, can_notify(qs));
    }
}

impl Network {
    /// One switch's arbiter summary (tests compare it with the ports).
    pub fn arbiter_summary(&self, sw: usize) -> &ArbiterSummary {
        &self.switches[sw].arb
    }

    /// The output the crossbar transfer in flight from `input` of `sw`
    /// goes to, if one is in flight.
    pub fn xbar_in_flight(&self, sw: usize, input: usize) -> Option<usize> {
        self.switches[sw].in_flight[input]
            .as_ref()
            .map(|t| t.to_output)
    }

    /// What the full examination of ready input `i` would find when the
    /// summary says its head waits on busy, non-notifying output `out`:
    /// the normal queue is the only one to serve, its head is committed to
    /// `out`, a transfer to `out` is in flight, and `out` holds no RECN
    /// state that answers a request — so the scan ends at the busy check
    /// with nothing granted and nothing to notify.
    fn examination_is_inert(&self, sw: usize, i: usize, out: usize) -> bool {
        let switch = &self.switches[sw];
        let mut order = Vec::new();
        switch.inputs[i].service_order(&mut order);
        let Some(QueueItem::Packet(p)) = switch.inputs[i].head(0) else {
            return false;
        };
        order == [0]
            && !p.route.next_turn_rebindable()
            && p.route.next_turn() as usize == out
            && switch
                .in_flight
                .iter()
                .flatten()
                .any(|t| t.to_output == out)
            && !can_notify(&switch.outputs[out])
    }

    /// A data packet arrived at a switch input port.
    pub(crate) fn switch_input_arrival(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        pkt: Packet,
        target_queue: u16,
    ) {
        let input = PortRef::SwitchIn { sw, port };
        let size = pkt.size as u64;
        let qs = self.port(input);
        let queue = match self.cfg.scheme {
            SchemeKind::Recn(_) => qs.classify(&pkt),
            _ => target_queue as usize,
        };
        if self.cfg.transport.is_pfc() && !qs.has_room(queue, size) {
            // PFC fabric: no credits protect this buffer, so an arrival
            // beyond capacity is dropped (the lossy baseline's defining
            // event). The pause threshold is what keeps this rare.
            self.counters.pfc_dropped_packets += 1;
            self.counters.pfc_dropped_bytes += size;
            return;
        }
        self.port_store(now, q, input, queue, pkt, Reserved::Direct);
        self.kick(now, now, q, Wakeup::InputArb { sw });
    }

    /// `Event::InputArb` — grant crossbar transfers at `sw`.
    pub(crate) fn on_input_arb(&mut self, now: Picos, q: &mut EventQueue<Event>, sw: usize) {
        self.switches[sw].input_arb_scheduled = false;
        let nports = self.switches[sw].inputs.len();
        let start = self.switches[sw].in_rr;
        self.switches[sw].in_rr = (start + 1) % nports;
        let is_recn = matches!(self.cfg.scheme, SchemeKind::Recn(_));

        // Round-robin from `start` over the ready inputs only (`start..`,
        // then the wrap): an empty port or one mid-transfer can neither
        // grant nor notify. The masks are re-read at every step, so these
        // are exactly the inputs a scan of all ports would find ready.
        let (mut from, mut to) = (start, nports);
        loop {
            let arb = &self.switches[sw].arb;
            let Some(i) = arb.next_ready(from, to) else {
                if to == start {
                    break;
                }
                (from, to) = (0, start);
                continue;
            };
            from = i + 1;
            // Decided on the summary alone: an input whose only request is
            // a busy output with no RECN state to notify from — the full
            // examination below would end with no mutation and no observer
            // call.
            if let Some(out) = arb.request(i) {
                if has(arb.out_busy & !arb.out_notify, out) {
                    debug_assert!(self.examination_is_inert(sw, i, out));
                    continue;
                }
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            self.switches[sw].inputs[i].service_order(&mut scratch);
            // (queue, output, reserved output queue)
            let mut grant: Option<(usize, usize, Option<usize>)> = None;
            // Up-port an adaptive head packet must bind before advancing.
            let mut bind: Option<u8> = None;
            // RECN: every *examined* head packet counts as the input port
            // "sending a packet to" its egress port, so congestion
            // notifications fire at request time — crucially also when the
            // request is blocked by a full egress SAQ, otherwise the very
            // packets suffering HOL blocking would never trigger the
            // notification that removes it. The buffer is owned by the
            // network and reused across ports/calls.
            let mut notify_pending = std::mem::take(&mut self.scratch_pkts);
            debug_assert!(notify_pending.is_empty());
            for &qidx in &scratch {
                let switch = &self.switches[sw];
                let QueueItem::Packet(p) = switch.inputs[i].head(qidx).expect("listed queue")
                else {
                    unreachable!("markers are drained before reaching arbitration");
                };
                if p.route.next_turn_rebindable() {
                    // Adaptive up-phase: the packet has not committed to an
                    // egress port, so it cannot sit in a SAQ, fires no
                    // request-time notification (there is no "requested"
                    // port yet — up-port congestion is dissolved by routing
                    // around it, not by building a tree toward it), and a
                    // blocked candidate set just means re-selection at the
                    // next arbitration round.
                    let head = *p;
                    if let Some((out, oq)) = self.select_up_port(now, sw, &head, is_recn) {
                        grant = Some((qidx, out, oq));
                        bind = Some(out as u8);
                        break;
                    }
                    continue;
                }
                let out = p.route.next_turn() as usize;
                let size = p.size as u64;
                if is_recn {
                    // A request to a port that is no root and holds no SAQ
                    // triggers nothing; only the others are queued.
                    if has(switch.arb.out_notify, out) {
                        notify_pending.push(*p);
                    } else {
                        debug_assert!(!can_notify(&switch.outputs[out]));
                    }
                    if has(switch.arb.out_busy, out) {
                        continue;
                    }
                    if !switch.outputs[out].has_room(0, size) {
                        continue;
                    }
                    // Per-SAQ internal backpressure — Xon/Xoff governs
                    // transmission *between SAQs* only (paper §3.7): an
                    // ingress SAQ must not feed an egress SAQ past its Xoff
                    // threshold, but normal-queue packets always flow (the
                    // pooled-memory check above bounds them), otherwise a
                    // congested packet at the normal queue's head would
                    // freeze the queue and the in-order markers behind it.
                    if qidx != 0 {
                        let after_turn = p.route.resolved_remaining(1);
                        if switch.outputs[out]
                            .recn()
                            .expect("RECN scheme")
                            .internal_xoff(after_turn)
                        {
                            continue;
                        }
                    }
                    grant = Some((qidx, out, None));
                } else {
                    if has(switch.arb.out_busy, out) {
                        continue;
                    }
                    let mut advanced = *p;
                    advanced.route.advance();
                    let oq = switch.outputs[out].classify(&advanced);
                    if !switch.outputs[out].has_room(oq, size) {
                        continue;
                    }
                    grant = Some((qidx, out, Some(oq)));
                }
                break;
            }
            self.scratch = scratch;
            for pending in &notify_pending {
                self.request_notifications(now, q, sw, i, pending);
            }
            notify_pending.clear();
            self.scratch_pkts = notify_pending;
            let Some((qidx, out, to_queue)) = grant else {
                continue;
            };

            let input = PortRef::SwitchIn { sw, port: i };
            let mut pkt = self.port_take(now, q, input, qidx);
            let size = pkt.size as u64;
            if let Some(up) = bind {
                pkt.route.bind_next_turn(up);
            }
            pkt.route.advance();
            let output = self.port_mut(PortRef::SwitchOut { sw, port: out });
            match to_queue {
                None => output.reserve_pooled(size),
                Some(oq) => output.reserve_queue(oq, size),
            }
            self.port_mut(input).rr_granted(qidx);
            self.switches[sw].in_flight[i] = Some(XbarTransfer {
                pkt,
                from_queue: qidx,
                to_output: out,
                to_queue,
            });
            set(&mut self.switches[sw].arb.in_flight, i, true);
            set(&mut self.switches[sw].arb.out_busy, out, true);
            let done = Event::XbarDone {
                sw,
                input: i,
                output: out,
            };
            self.schedule(now, q, now + self.cfg.xbar_time(size), done);
        }
    }

    /// Picks the best admissible up-port for a head packet whose next turn
    /// is a late-bound adaptive placeholder, or `None` when every candidate
    /// is blocked (busy crossbar output or no buffer/credit admissibility) —
    /// the packet then simply re-selects at the next arbitration round.
    ///
    /// Scoring is credit-weighted: bytes accounted at
    /// the candidate output port plus downstream credit already consumed on
    /// its link, minimized with a stable `(score, port)` tie-break — fully
    /// deterministic, so runs stay bit-identical per policy. Returns the
    /// chosen output and, for per-queue (non-RECN) schemes, the output queue
    /// to reserve.
    ///
    /// Under [`RoutingPolicy::ArnUp`] the comparison key grows a leading
    /// component: the number of *live* congested roots reported through each
    /// candidate up-port ([`crate::ArnTable::live_count`] at `now`). The
    /// minimum is lexicographic `(live roots, credit score, port)`, so ARN
    /// penalizes notified subtrees without hard-filtering them (every
    /// candidate hot still routes somewhere), and with zero live
    /// notifications the decision collapses to exactly the `AdaptiveUp` one.
    fn select_up_port(
        &self,
        now: Picos,
        sw: usize,
        p: &Packet,
        is_recn: bool,
    ) -> Option<(usize, Option<usize>)> {
        let arn = match self.cfg.routing {
            RoutingPolicy::AdaptiveUp => false,
            RoutingPolicy::ArnUp => true,
            RoutingPolicy::Deterministic => {
                unreachable!("rebindable turn under deterministic routing")
            }
        };
        let size = p.size as u64;
        let switch = &self.switches[sw];
        let mut best: Option<(u32, u64, usize, Option<usize>)> = None;
        for out in switch.up_ports.clone() {
            if has(switch.arb.out_busy, out) {
                continue;
            }
            // The committed copy: bind the candidate and advance exactly as
            // the grant path will, so output classification and downstream
            // queue mapping see the route the packet would actually carry.
            let mut committed = *p;
            committed.route.bind_next_turn(out as u8);
            committed.route.advance();
            let oq = if is_recn {
                if !switch.outputs[out].has_room(0, size) {
                    continue;
                }
                None
            } else {
                let oq = switch.outputs[out].classify(&committed);
                if !switch.outputs[out].has_room(oq, size) {
                    continue;
                }
                Some(oq)
            };
            let link = switch.out_link[out];
            let credits = &self.links[link].credits;
            let tq = self.downstream_queue(link, &committed);
            let consumed = match (credits.queue_cap(), credits.free_bytes(tq)) {
                (Some(cap), Some(free)) => cap - free,
                _ => 0,
            };
            let live = if arn {
                self.arn_tables[sw].live_count(out - switch.up_ports.start, now)
            } else {
                0
            };
            let score = switch.outputs[out].used() + consumed;
            if best.is_none_or(|(bl, bs, _, _)| (live, score) < (bl, bs)) {
                best = Some((live, score, out, oq));
            }
        }
        best.map(|(_, _, out, oq)| (out, oq))
    }

    /// Runs the RECN request-time notification hook for a head packet at
    /// input `i` toward its requested egress port: if that port is a root
    /// (or holds a propagating SAQ the packet maps to) and this input has
    /// not been notified yet, the notification is delivered immediately.
    fn request_notifications(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        i: usize,
        pkt: &Packet,
    ) {
        let out = pkt.route.next_turn() as usize;
        let recn = self
            .port_mut(PortRef::SwitchOut { sw, port: out })
            .recn_mut()
            .expect("RECN scheme");
        let class = recn.classify(pkt.route.resolved_remaining(1));
        let notifs = recn.on_forward_from_input(i, class);
        for path in notifs.iter() {
            self.deliver_internal_notification(now, q, sw, i, path);
        }
    }

    /// `Event::XbarDone` — a packet finished crossing the crossbar: commit
    /// it to the output port, run RECN egress hooks, and return the credit
    /// upstream.
    pub(crate) fn on_xbar_done(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        input: usize,
        output: usize,
    ) {
        let t = self.switches[sw].in_flight[input]
            .take()
            .expect("transfer in flight");
        debug_assert_eq!(t.to_output, output);
        set(&mut self.switches[sw].arb.in_flight, input, false);
        set(&mut self.switches[sw].arb.out_busy, output, false);
        let size = t.pkt.size as u64;
        let port = PortRef::SwitchOut { sw, port: output };
        match t.to_queue {
            Some(oq) => self.port_store(now, q, port, oq, t.pkt, Reserved::Queue),
            None => {
                // RECN: classify at commit time so packets never land behind
                // a marker they logically precede.
                let class = self
                    .port(port)
                    .recn()
                    .expect("pooled reservation implies RECN")
                    .classify(t.pkt.route.resolved_remaining(0));
                let queue = match class {
                    recn::Classify::Normal => 0,
                    recn::Classify::Saq(s) => QueueSet::saq_queue(s),
                };
                self.port_store(now, q, port, queue, t.pkt, Reserved::Pooled);
                let notifs = self
                    .port_mut(port)
                    .recn_mut()
                    .expect("RECN scheme")
                    .on_forward_from_input(input, class);
                for path in notifs.iter() {
                    self.deliver_internal_notification(now, q, sw, input, path);
                }
            }
        }

        // Credit for the freed input-port bytes flows upstream — except
        // under PFC, which has no credits (pause/resume is the only
        // backpressure; the sender-side views are all Infinite).
        if !self.cfg.transport.is_pfc() {
            let in_link = self.switches[sw].in_link[input];
            let queue = match self.cfg.scheme {
                SchemeKind::Recn(_) => POOLED_QUEUE,
                _ => t.from_queue as u16,
            };
            self.send_rev_ctrl(
                now,
                q,
                in_link,
                RevPayload::Credit {
                    queue,
                    bytes: size as u32,
                },
            );
        }

        let link = self.switches[sw].out_link[output];
        self.kick(now, now, q, Wakeup::EgressArb { link });
        self.kick(now, now, q, Wakeup::InputArb { sw });
    }
}
