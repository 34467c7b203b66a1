//! Per-port queue sets implementing the five queueing schemes.

use recn::{Classify, RecnPort, SaqId};

use crate::arena::{Arena, Handle};
use crate::config::SchemeKind;
use crate::packet::{Packet, QueueItem};

/// Which side of which element a queue set serves (determines the queue
/// mapping rules of the scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSide {
    /// Switch input (ingress) port.
    SwitchInput,
    /// Switch output (egress) port; `turn` is the port index, needed by
    /// RECN to extend notification paths.
    SwitchOutput {
        /// Output port index within the switch.
        turn: u8,
    },
    /// NIC injection port (egress-like; paths are full routes).
    NicInjection,
}

/// Head/tail/length descriptor of one intrusive FIFO. The order links
/// live inside the shared node slab ([`Node::next`]), so an empty queue
/// costs these few words and nothing else — the layout that lets VOQnet
/// instantiate thousands of queues per port without per-queue heap
/// allocations (DESIGN.md §4b).
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    head: Option<Handle>,
    tail: Option<Handle>,
    len: usize,
}

/// A stored item plus its intrusive successor link.
#[derive(Debug)]
struct Node {
    item: QueueItem,
    next: Option<Handle>,
}

/// The queues of one port: a fixed array for the baseline schemes, or the
/// normal queue plus SAQ slots for RECN (queue `0` is the normal queue and
/// queue `1 + line` holds the SAQ at CAM line `line`).
///
/// Byte accounting supports two-phase insertion for crossbar transfers:
/// [`reserve_queue`](Self::reserve_queue) / [`reserve_pooled`](Self::reserve_pooled)
/// at grant time and [`commit_reserved`](Self::commit_reserved) /
/// [`commit_pooled`](Self::commit_pooled) at completion, so buffer
/// space is never oversubscribed while a packet is in flight through the
/// crossbar.
///
/// Storage is structure-of-arrays: all items of all queues share one
/// [`Arena`] slab and each queue is an intrusive singly-linked list
/// threaded through it, so queue churn reuses slots and per-queue
/// overhead is a constant few words regardless of depth.
#[derive(Debug)]
pub struct QueueSet {
    /// Per-queue FIFO descriptors; item order lives in `items` via the
    /// intrusive `next` links.
    queues: Vec<Fifo>,
    items: Arena<Node>,
    queue_bytes: Vec<u64>,
    used: u64,
    total_cap: u64,
    per_queue_cap: Option<u64>,
    recn: Option<RecnPort>,
    scheme: SchemeKind,
    side: PortSide,
    rr: usize,
    peak_used: u64,
    /// Consecutive grants won by the normal queue (RECN WRR state).
    normal_streak: u32,
}

impl QueueSet {
    /// Builds the queue set for `scheme` at `side` with `mem` bytes of
    /// port memory. `radix` and `hosts` size the VOQsw/VOQnet layouts.
    pub fn new(scheme: SchemeKind, side: PortSide, radix: u32, hosts: u32, mem: u64) -> QueueSet {
        let (nqueues, per_queue_cap, recn) = match scheme {
            SchemeKind::OneQ => (1usize, Some(mem), None),
            SchemeKind::FourQ => (4, Some(mem / 4), None),
            SchemeKind::VoqSw => (radix as usize, Some(mem / radix as u64), None),
            SchemeKind::VoqNet => (hosts as usize, Some(mem / hosts as u64), None),
            SchemeKind::Recn(cfg) => {
                let port = match side {
                    PortSide::SwitchInput => RecnPort::new_ingress(cfg),
                    PortSide::SwitchOutput { turn } => RecnPort::new_egress(cfg, turn),
                    PortSide::NicInjection => RecnPort::new_nic_injection(cfg),
                };
                (1 + cfg.max_saqs, None, Some(port))
            }
        };
        QueueSet {
            queues: vec![Fifo::default(); nqueues],
            items: Arena::new(),
            queue_bytes: vec![0; nqueues],
            used: 0,
            total_cap: mem,
            per_queue_cap,
            recn,
            scheme,
            side,
            rr: 0,
            peak_used: 0,
            normal_streak: 0,
        }
    }

    /// RECN weighted round-robin: the normal queue is preferred, but after
    /// this many consecutive normal grants a serviceable SAQ goes first, so
    /// congested flows keep a guaranteed service share and congestion trees
    /// can drain (the paper's "weighted round-robin scheme in such a way
    /// that normal queues have preference over SAQs").
    const NORMAL_WRR_WEIGHT: u32 = 7;

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The RECN state machine, when the scheme is RECN.
    pub fn recn(&self) -> Option<&RecnPort> {
        self.recn.as_ref()
    }

    /// Mutable RECN state machine.
    pub fn recn_mut(&mut self) -> Option<&mut RecnPort> {
        self.recn.as_mut()
    }

    /// Queue index of a SAQ.
    pub fn saq_queue(saq: SaqId) -> usize {
        1 + saq.line()
    }

    /// Bytes currently accounted at this port (stored + reserved).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever accounted.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Total port memory.
    pub fn capacity(&self) -> u64 {
        self.total_cap
    }

    /// Bytes accounted in one queue (stored + reserved).
    pub fn queue_bytes(&self, queue: usize) -> u64 {
        self.queue_bytes[queue]
    }

    /// Items currently stored in one queue.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.queues[queue].len
    }

    /// Estimated bytes of backing storage for this queue set: the shared
    /// node slab (at its high-water allocation) plus the per-queue SoA
    /// arrays. Simulation-model accounting, not simulated port memory —
    /// see [`capacity`](Self::capacity) for the latter.
    pub fn backing_bytes(&self) -> u64 {
        self.items.backing_bytes()
            + (self.queues.capacity() * std::mem::size_of::<Fifo>()) as u64
            + (self.queue_bytes.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Appends `item` to the tail of `queue` (storage + intrusive link).
    fn push_node(&mut self, queue: usize, item: QueueItem) {
        let h = self.items.insert(Node { item, next: None });
        match self.queues[queue].tail {
            Some(tail) => self.items.get_mut(tail).next = Some(h),
            None => self.queues[queue].head = Some(h),
        }
        let fifo = &mut self.queues[queue];
        fifo.tail = Some(h);
        fifo.len += 1;
    }

    /// Removes and returns the head item of `queue`, if any.
    fn pop_node(&mut self, queue: usize) -> Option<QueueItem> {
        let h = self.queues[queue].head?;
        let node = self.items.remove(h);
        let fifo = &mut self.queues[queue];
        fifo.head = node.next;
        fifo.len -= 1;
        if fifo.head.is_none() {
            fifo.tail = None;
        }
        Some(node.item)
    }

    /// Whether any queue holds a stored item — O(1) via the item slab.
    /// Reserved-but-uncommitted bytes do not count: nothing is
    /// transmittable until the in-flight crossbar transfer commits.
    pub fn has_items(&self) -> bool {
        !self.items.is_empty()
    }

    /// The queue an arriving/locally-stored packet belongs in, per the
    /// scheme's mapping rule. For 4Q this inspects live occupancies
    /// (lowest-occupancy rule); for RECN it consults the CAM.
    pub fn classify(&self, pkt: &Packet) -> usize {
        match self.scheme {
            SchemeKind::OneQ => 0,
            SchemeKind::FourQ => {
                let (idx, _) = self
                    .queue_bytes
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                    .expect("4Q has queues");
                idx
            }
            SchemeKind::VoqSw => match self.side {
                // Input side: by the output port requested at this switch.
                PortSide::SwitchInput => pkt.route.next_turn() as usize,
                // Output/injection side: by the port requested at the next
                // switch (last hop: single class).
                PortSide::SwitchOutput { .. } | PortSide::NicInjection => {
                    pkt.route.remaining().first().copied().unwrap_or(0) as usize
                }
            },
            SchemeKind::VoqNet => pkt.dst.index(),
            SchemeKind::Recn(_) => {
                let recn = self.recn.as_ref().expect("RECN scheme has a port");
                // Only the *resolved* prefix of the route is matchable: a
                // packet whose next turns are still adaptive placeholders
                // has not committed to any congestion-tree path yet.
                match recn.classify(pkt.route.resolved_remaining(0)) {
                    Classify::Normal => 0,
                    Classify::Saq(saq) => Self::saq_queue(saq),
                }
            }
        }
    }

    /// Whether `bytes` more can be stored toward `queue` right now.
    pub fn has_room(&self, queue: usize, bytes: u64) -> bool {
        if self.used + bytes > self.total_cap {
            return false;
        }
        match self.per_queue_cap {
            Some(cap) => self.queue_bytes[queue] + bytes <= cap,
            None => true,
        }
    }

    /// Reserves pooled bytes (RECN crossbar grant; the queue is chosen at
    /// commit time by the CAM).
    ///
    /// # Panics
    ///
    /// Panics if the pool would overflow — callers must check
    /// [`has_room`](Self::has_room) first.
    pub fn reserve_pooled(&mut self, bytes: u64) {
        self.used += bytes;
        self.peak_used = self.peak_used.max(self.used);
        assert!(
            self.used <= self.total_cap,
            "buffer overflow: lossless invariant violated"
        );
    }

    /// Reserves bytes on a specific queue (baseline crossbar grant).
    ///
    /// # Panics
    ///
    /// Panics if the queue or pool would overflow.
    pub fn reserve_queue(&mut self, queue: usize, bytes: u64) {
        self.used += bytes;
        self.queue_bytes[queue] += bytes;
        self.peak_used = self.peak_used.max(self.used);
        assert!(
            self.used <= self.total_cap,
            "buffer overflow: lossless invariant violated"
        );
        if let Some(cap) = self.per_queue_cap {
            assert!(
                self.queue_bytes[queue] <= cap,
                "queue overflow: lossless invariant violated"
            );
        }
    }

    /// Stores an item whose bytes were reserved via
    /// [`reserve_queue`](Self::reserve_queue).
    pub fn commit_reserved(&mut self, queue: usize, item: QueueItem) {
        self.push_node(queue, item);
    }

    /// Stores an item whose bytes were reserved via
    /// [`reserve_pooled`](Self::reserve_pooled), charging them to `queue`.
    pub fn commit_pooled(&mut self, queue: usize, item: QueueItem) {
        self.queue_bytes[queue] += item.bytes();
        self.push_node(queue, item);
    }

    /// Stores an item directly (link arrival — the sender's credit view
    /// guaranteed room).
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows: that would mean the credit protocol
    /// lost the lossless property.
    pub fn push_direct(&mut self, queue: usize, item: QueueItem) {
        let bytes = item.bytes();
        self.used += bytes;
        self.queue_bytes[queue] += bytes;
        self.peak_used = self.peak_used.max(self.used);
        assert!(
            self.used <= self.total_cap,
            "buffer overflow: lossless invariant violated"
        );
        if let Some(cap) = self.per_queue_cap {
            assert!(
                self.queue_bytes[queue] <= cap,
                "queue overflow: lossless invariant violated"
            );
        }
        self.push_node(queue, item);
    }

    /// The head item of a queue.
    pub fn head(&self, queue: usize) -> Option<&QueueItem> {
        self.queues[queue].head.map(|h| &self.items.get(h).item)
    }

    /// The head packet of queue 0 when every stored item sits in that
    /// queue: it is then the one packet the port can offer, whatever the
    /// scheme's service order. `None` otherwise (empty port, an item in
    /// another queue, a marker at the head).
    pub(crate) fn sole_head(&self) -> Option<&Packet> {
        if self.items.len() != self.queues[0].len {
            return None;
        }
        match self.head(0)? {
            QueueItem::Packet(p) => Some(p),
            QueueItem::Marker(_) => None,
        }
    }

    /// Removes and returns the head of a queue, releasing its bytes.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn pop(&mut self, queue: usize) -> QueueItem {
        let item = self.pop_node(queue).expect("pop from empty queue");
        let bytes = item.bytes();
        self.queue_bytes[queue] -= bytes;
        self.used -= bytes;
        item
    }

    /// Appends the queue indices to try for transmission, in priority
    /// order, to `out` (cleared first):
    ///
    /// * RECN: drain-boost SAQs, then the normal queue, then remaining
    ///   SAQs round-robin — the paper's arbitration (§4.1 + §3.8).
    /// * Baselines: all queues round-robin.
    ///
    /// Only non-empty queues are listed; RECN SAQs that may not transmit
    /// (marker-blocked or Xoff'ed) are skipped.
    pub fn service_order(&self, out: &mut Vec<usize>) {
        out.clear();
        let n = self.queues.len();
        match &self.recn {
            Some(recn) => {
                // Fast path: every stored item sits in the normal queue, so
                // no SAQ pass can contribute and the WRR rotation cannot
                // trigger (it needs a serviceable SAQ behind the normal
                // queue). This is the common case outside congestion trees.
                if self.items.len() == self.queues[0].len {
                    if self.queues[0].len > 0 {
                        out.push(0);
                    }
                    return;
                }
                // Pass 1: drain-boost SAQs (highest priority).
                for saq in recn.iter_saqs() {
                    let q = Self::saq_queue(saq);
                    if self.queues[q].len > 0 && recn.drain_boost(saq) && recn.may_transmit(saq) {
                        out.push(q);
                    }
                }
                // Pass 2 & 3: normal queue and remaining SAQs. Normal goes
                // first unless it has exhausted its WRR weight and some SAQ
                // is serviceable.
                let normal_pos = out.len();
                if self.queues[0].len > 0 {
                    out.push(0);
                }
                let saq_start = out.len();
                let start = self.rr.max(1);
                for off in 0..n - 1 {
                    let q = 1 + (start - 1 + off) % (n - 1);
                    if self.queues[q].len == 0 || out.contains(&q) {
                        continue;
                    }
                    if let Some(saq) = self.saq_at_queue(q) {
                        if recn.may_transmit(saq) && !recn.drain_boost(saq) {
                            out.push(q);
                        }
                    }
                }
                if self.normal_streak >= Self::NORMAL_WRR_WEIGHT
                    && out.len() > saq_start
                    && saq_start > normal_pos
                {
                    // Rotate the normal queue behind the SAQs for one round.
                    out.remove(normal_pos);
                    out.push(0);
                }
            }
            None => {
                for off in 0..n {
                    let q = (self.rr + off) % n;
                    if self.queues[q].len > 0 {
                        out.push(q);
                    }
                }
            }
        }
    }

    /// The live SAQ handle stored at queue slot `queue`, if any.
    pub fn saq_at_queue(&self, queue: usize) -> Option<SaqId> {
        if queue == 0 {
            return None;
        }
        self.recn
            .as_ref()
            .and_then(|r| r.cam().id_at_line(queue - 1))
    }

    /// Advances the round-robin pointer past the queue that was just
    /// granted.
    pub fn rr_granted(&mut self, queue: usize) {
        self.rr = (queue + 1) % self.queues.len().max(1);
        if queue == 0 {
            self.normal_streak += 1;
        } else {
            self.normal_streak = 0;
        }
    }

    /// Whether every queue is empty and nothing is reserved.
    pub fn is_drained(&self) -> bool {
        self.used == 0 && self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recn::RecnConfig;
    use simcore::Picos;
    use topology::{HostId, Route};

    fn pkt(dst: u32, advanced: usize) -> Packet {
        let mut route = Route::to_host(HostId::new(dst), 4, 3);
        for _ in 0..advanced {
            route.advance();
        }
        Packet {
            id: 0,
            src: HostId::new(0),
            dst: HostId::new(dst),
            size: 64,
            route,
            injected_at: Picos::ZERO,
            flow_seq: 0,
        }
    }

    #[test]
    fn one_q_maps_everything_to_zero() {
        let qs = QueueSet::new(SchemeKind::OneQ, PortSide::SwitchInput, 4, 64, 1024);
        assert_eq!(qs.num_queues(), 1);
        assert_eq!(qs.classify(&pkt(7, 0)), 0);
        assert_eq!(qs.classify(&pkt(63, 0)), 0);
    }

    #[test]
    fn four_q_picks_lowest_occupancy() {
        let mut qs = QueueSet::new(SchemeKind::FourQ, PortSide::SwitchInput, 4, 64, 4096);
        assert_eq!(qs.classify(&pkt(1, 0)), 0);
        qs.push_direct(0, QueueItem::Packet(pkt(1, 0)));
        assert_eq!(qs.classify(&pkt(2, 0)), 1);
        qs.push_direct(1, QueueItem::Packet(pkt(2, 0)));
        qs.push_direct(2, QueueItem::Packet(pkt(3, 0)));
        qs.push_direct(3, QueueItem::Packet(pkt(4, 0)));
        qs.pop(2);
        assert_eq!(qs.classify(&pkt(5, 0)), 2);
    }

    #[test]
    fn voqsw_maps_by_turn() {
        // dst 27 = turns [1,2,3]
        let qs_in = QueueSet::new(SchemeKind::VoqSw, PortSide::SwitchInput, 4, 64, 4096);
        assert_eq!(qs_in.classify(&pkt(27, 0)), 1);
        let qs_out = QueueSet::new(
            SchemeKind::VoqSw,
            PortSide::SwitchOutput { turn: 1 },
            4,
            64,
            4096,
        );
        assert_eq!(qs_out.classify(&pkt(27, 1)), 2, "next-switch turn");
        assert_eq!(qs_out.classify(&pkt(27, 3)), 0, "exhausted route: class 0");
    }

    #[test]
    fn voqnet_maps_by_destination() {
        let qs = QueueSet::new(SchemeKind::VoqNet, PortSide::SwitchInput, 4, 64, 64 * 128);
        assert_eq!(qs.num_queues(), 64);
        assert_eq!(qs.classify(&pkt(27, 0)), 27);
        assert_eq!(qs.classify(&pkt(5, 1)), 5);
    }

    #[test]
    fn recn_classifies_via_cam() {
        let cfg = RecnConfig::default().with_max_saqs(4);
        let mut qs = QueueSet::new(
            SchemeKind::Recn(cfg),
            PortSide::SwitchInput,
            4,
            64,
            128 * 1024,
        );
        assert_eq!(qs.num_queues(), 5);
        assert_eq!(qs.classify(&pkt(27, 0)), 0);
        let saq = match qs
            .recn_mut()
            .unwrap()
            .alloc_on_notification(topology::PathSpec::from_turns(&[1]))
        {
            recn::NotifOutcome::Accepted { saq } => saq,
            other => panic!("{other:?}"),
        };
        // dst 27 route [1,2,3] matches path [1].
        assert_eq!(qs.classify(&pkt(27, 0)), QueueSet::saq_queue(saq));
        // dst 5 = [0,1,1] does not.
        assert_eq!(qs.classify(&pkt(5, 0)), 0);
        assert_eq!(qs.saq_at_queue(QueueSet::saq_queue(saq)), Some(saq));
    }

    #[test]
    fn room_accounting_per_queue() {
        let mut qs = QueueSet::new(SchemeKind::FourQ, PortSide::SwitchInput, 4, 64, 256);
        // per-queue cap = 64
        assert!(qs.has_room(0, 64));
        qs.reserve_queue(0, 64);
        assert!(!qs.has_room(0, 1));
        assert!(qs.has_room(1, 64));
        qs.commit_reserved(0, QueueItem::Packet(pkt(1, 0)));
        assert_eq!(qs.queue_bytes(0), 64);
        let _ = qs.pop(0);
        assert!(qs.has_room(0, 64));
        assert_eq!(qs.used(), 0);
        assert!(qs.is_drained());
        assert_eq!(qs.peak_used(), 64);
    }

    #[test]
    #[should_panic(expected = "lossless invariant violated")]
    fn overflow_is_fatal() {
        let mut qs = QueueSet::new(SchemeKind::OneQ, PortSide::SwitchInput, 4, 64, 32);
        qs.push_direct(0, QueueItem::Packet(pkt(1, 0)));
    }

    #[test]
    fn service_order_round_robin_baseline() {
        let mut qs = QueueSet::new(SchemeKind::FourQ, PortSide::SwitchInput, 4, 64, 4096);
        qs.push_direct(0, QueueItem::Packet(pkt(1, 0)));
        qs.push_direct(2, QueueItem::Packet(pkt(2, 0)));
        let mut order = Vec::new();
        qs.service_order(&mut order);
        assert_eq!(order, vec![0, 2]);
        qs.rr_granted(0);
        qs.service_order(&mut order);
        assert_eq!(order, vec![2, 0]);
    }

    #[test]
    fn service_order_recn_priorities() {
        let cfg = RecnConfig {
            max_saqs: 4,
            detection_threshold: 1 << 30,
            propagation_threshold: 1 << 30,
            xoff_threshold: 1 << 30,
            xon_threshold: 0,
            drain_boost_pkts: 1,
            root_clear_threshold: 1 << 20,
        };
        let mut qs = QueueSet::new(
            SchemeKind::Recn(cfg),
            PortSide::SwitchInput,
            4,
            64,
            128 * 1024,
        );
        // Allocate two SAQs: paths [1] and [2].
        let s1 = match qs
            .recn_mut()
            .unwrap()
            .alloc_on_notification(topology::PathSpec::from_turns(&[1]))
        {
            recn::NotifOutcome::Accepted { saq } => saq,
            o => panic!("{o:?}"),
        };
        let s2 = match qs
            .recn_mut()
            .unwrap()
            .alloc_on_notification(topology::PathSpec::from_turns(&[2]))
        {
            recn::NotifOutcome::Accepted { saq } => saq,
            o => panic!("{o:?}"),
        };
        qs.recn_mut().unwrap().marker_consumed(s1);
        qs.recn_mut().unwrap().marker_consumed(s2);

        // Normal packet + one packet in each SAQ.
        qs.push_direct(0, QueueItem::Packet(pkt(5, 0)));
        qs.recn_mut().unwrap().saq_enqueued(s1, 64);
        qs.push_direct(QueueSet::saq_queue(s1), QueueItem::Packet(pkt(27, 0)));
        qs.recn_mut().unwrap().saq_enqueued(s2, 64);
        qs.recn_mut().unwrap().saq_enqueued(s2, 64);
        qs.push_direct(QueueSet::saq_queue(s2), QueueItem::Packet(pkt(42, 0)));
        qs.push_direct(QueueSet::saq_queue(s2), QueueItem::Packet(pkt(42, 0)));

        let mut order = Vec::new();
        qs.service_order(&mut order);
        // s1 has 1 pkt (<= drain_boost_pkts) and owns its token: boosted first.
        // Then the normal queue, then s2.
        assert_eq!(order[0], QueueSet::saq_queue(s1));
        assert_eq!(order[1], 0);
        assert_eq!(order[2], QueueSet::saq_queue(s2));
    }

    #[test]
    fn pooled_reserve_commit_cycle() {
        let cfg = RecnConfig::default().with_max_saqs(2);
        let mut qs = QueueSet::new(
            SchemeKind::Recn(cfg),
            PortSide::SwitchOutput { turn: 0 },
            4,
            64,
            128,
        );
        assert!(qs.has_room(0, 64));
        qs.reserve_pooled(64);
        qs.reserve_pooled(64);
        assert!(!qs.has_room(0, 1));
        qs.commit_pooled(0, QueueItem::Packet(pkt(1, 1)));
        assert_eq!(qs.queue_bytes(0), 64);
        let _ = qs.pop(0);
        assert!(qs.has_room(0, 64));
    }
}
