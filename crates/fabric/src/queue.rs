//! Per-port queue sets implementing the five queueing schemes.
//!
//! A [`QueueSet`] is one record per queue (`head`, `tail`, `len`, `bytes`)
//! over one item slab. Queue 0's record sits inside the set, beside the
//! pool accounting and the slab header, and the records of queues `1..`
//! in one `Vec`: every scheme's common case — the only queue of 1Q, the
//! normal queue of a RECN port outside a congestion tree — stores and
//! takes by touching the head of the `QueueSet` and the item's slab slot
//! and nothing else, which at fabric sizes that leave the cache is what an
//! operation costs (DESIGN.md §4). A RECN set's SAQ records, like its CAM
//! lines, exist from the first store to one of them on: a port no
//! congestion tree has reached owns neither. A baseline set also keeps one
//! bit per queue past queue 0 — set while the queue holds an item — so its
//! round-robin service order reads a word per 64 queues, not a record per
//! queue.

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

/// One queue's record: the ends of its intrusive FIFO, its length and the
/// bytes accounted to it (stored + reserved). The order links live inside
/// the shared node slab ([`Node::next`]), so an empty queue costs these few
/// words and nothing else — the layout that lets VOQnet instantiate
/// thousands of queues per port without per-queue heap allocations
/// (DESIGN.md §4b).
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    head: Option<Handle>,
    tail: Option<Handle>,
    len: usize,
    bytes: u64,
}

/// What a SAQ record reads as before the set has built any.
const EMPTY_FIFO: Fifo = Fifo {
    head: None,
    tail: None,
    len: 0,
    bytes: 0,
};

/// A stored item plus its intrusive successor link.
#[derive(Debug)]
struct Node {
    item: QueueItem,
    next: Option<Handle>,
}

/// The scheme's queue-mapping rule, as [`QueueSet::classify`] dispatches
/// on it (the RECN parameters live in the port's [`RecnPort`]).
#[derive(Debug, Clone, Copy)]
enum Mapping {
    OneQ,
    FourQ,
    VoqSw,
    VoqNet,
    Recn,
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
/// All items of all queues share one [`Arena`] slab and each queue is an
/// intrusive singly-linked list threaded through it, so queue churn reuses
/// slots and per-queue overhead is one 32-byte record regardless of depth.
/// Queue 0's record is a field of the set, next to the pool accounting and
/// the slab header: a store to or a take from the normal queue of a port
/// whose CAM is empty reads and writes the leading fields of this struct
/// and the item's slab slot, and no other memory (DESIGN.md §4). `repr(C)`
/// keeps the fields in the order written, hottest first.
#[derive(Debug)]
#[repr(C)]
pub struct QueueSet {
    /// Queue 0 (the only queue of 1Q, the normal queue of RECN).
    q0: Fifo,
    /// Items of every queue; order lives in the intrusive `next` links.
    items: Arena<Node>,
    used: u64,
    total_cap: u64,
    peak_used: u64,
    per_queue_cap: Option<u64>,
    mapping: Mapping,
    side: PortSide,
    /// Consecutive grants won by the normal queue (RECN WRR state).
    normal_streak: u32,
    rr: u32,
    /// Queues the scheme defines, built or not.
    nqueues: u32,
    recn: Option<RecnPort>,
    /// Queues `1..`: record `q - 1` is queue `q`'s. All of them for a
    /// baseline scheme; under RECN none until the first store to a SAQ,
    /// `max_saqs` from then on.
    rest: Box<[Fifo]>,
    /// Baseline schemes: bit `q - 1` is set while queue `q` holds an item,
    /// one word per 64 records of `rest`. Empty under RECN, whose service
    /// order asks the CAM.
    nonempty: Bits,
}

/// A bitmap that costs no allocation until it outgrows a word (every
/// baseline set but VOQnet's past 65 hosts fits one).
#[derive(Debug)]
enum Bits {
    Word(u64),
    Words(Box<[u64]>),
}

impl Bits {
    fn new(bits: usize) -> Bits {
        match bits.div_ceil(64) {
            0 => Bits::Words(Box::default()),
            1 => Bits::Word(0),
            words => Bits::Words(vec![0; words].into()),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Bits::Word(_) => 0,
            Bits::Words(words) => std::mem::size_of_val(&**words),
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Word(word) => std::slice::from_ref(word),
            Bits::Words(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bits::Word(word) => std::slice::from_mut(word),
            Bits::Words(words) => words,
        }
    }
}

impl QueueSet {
    /// Builds the queue set for `scheme` at `side` with `mem` bytes of
    /// port memory. `radix` and `hosts` size the VOQsw/VOQnet layouts.
    pub fn new(scheme: SchemeKind, side: PortSide, radix: u32, hosts: u32, mem: u64) -> QueueSet {
        let (mapping, recn) = match scheme {
            SchemeKind::OneQ => (Mapping::OneQ, None),
            SchemeKind::FourQ => (Mapping::FourQ, None),
            SchemeKind::VoqSw => (Mapping::VoqSw, None),
            SchemeKind::VoqNet => (Mapping::VoqNet, None),
            SchemeKind::Recn(cfg) => {
                let port = match side {
                    PortSide::SwitchInput => RecnPort::new_ingress(cfg),
                    PortSide::SwitchOutput { turn } => RecnPort::new_egress(cfg, turn),
                    PortSide::NicInjection => RecnPort::new_nic_injection(cfg),
                };
                (Mapping::Recn, Some(port))
            }
        };
        let nqueues = scheme.queues_per_port(radix as usize, hosts as usize);
        // A baseline scheme splits the memory evenly; RECN pools it.
        let per_queue_cap = recn.is_none().then_some(mem / nqueues as u64);
        // A baseline scheme's queues all exist; SAQ records come with a tree.
        let built = if recn.is_some() { 0 } else { nqueues - 1 };
        QueueSet {
            q0: Fifo::default(),
            items: Arena::new(),
            used: 0,
            total_cap: mem,
            peak_used: 0,
            per_queue_cap,
            mapping,
            side,
            normal_streak: 0,
            rr: 0,
            nqueues: u32::try_from(nqueues).expect("queue count fits 32 bits"),
            rest: vec![Fifo::default(); built].into(),
            nonempty: Bits::new(built),
            recn,
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
        self.nqueues as usize
    }

    #[inline]
    fn fifo(&self, queue: usize) -> &Fifo {
        match queue {
            0 => &self.q0,
            q => self.rest.get(q - 1).unwrap_or_else(|| {
                assert!(q < self.num_queues(), "no queue {q}");
                &EMPTY_FIFO
            }),
        }
    }

    /// The record a store or a take changes: the first one to a SAQ of a
    /// RECN set builds the set's SAQ records, which it keeps.
    #[inline]
    fn fifo_mut(&mut self, queue: usize) -> &mut Fifo {
        match queue {
            0 => &mut self.q0,
            q => {
                if self.rest.is_empty() {
                    self.build_saq_records();
                }
                &mut self.rest[q - 1]
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn build_saq_records(&mut self) {
        self.rest = vec![Fifo::default(); self.num_queues() - 1].into();
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
        self.fifo(queue).bytes
    }

    /// Items currently stored in one queue.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.fifo(queue).len
    }

    /// Heap bytes of the node slab the set's queues share, at its
    /// high-water allocation. Simulation-model accounting, not simulated
    /// port memory — see [`capacity`](Self::capacity) for the latter.
    pub fn item_slab_bytes(&self) -> u64 {
        self.items.backing_bytes()
    }

    /// Heap bytes behind the queues past queue 0: their records and, under
    /// RECN, the port's CAM lines. Zero for 1Q, and for a RECN port until
    /// a congestion tree reaches it.
    pub fn queue_storage_bytes(&self) -> u64 {
        (std::mem::size_of_val(&*self.rest) + self.nonempty.heap_bytes()) as u64
            + self.recn.as_ref().map_or(0, RecnPort::backing_bytes)
    }

    /// Charges `bytes` more to the port's pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool would overflow.
    #[inline]
    fn charge_pool(&mut self, bytes: u64) {
        self.used += bytes;
        self.peak_used = self.peak_used.max(self.used);
        assert!(
            self.used <= self.total_cap,
            "buffer overflow: lossless invariant violated"
        );
    }

    /// Charges `bytes` more to `queue`.
    ///
    /// # Panics
    ///
    /// Panics if the queue would overflow its share of the port memory.
    #[inline]
    fn charge_queue(&mut self, queue: usize, bytes: u64) {
        let per_queue_cap = self.per_queue_cap;
        let fifo = self.fifo_mut(queue);
        fifo.bytes += bytes;
        if let Some(cap) = per_queue_cap {
            assert!(
                fifo.bytes <= cap,
                "queue overflow: lossless invariant violated"
            );
        }
    }

    /// Appends `item` to the tail of `queue` (storage + intrusive link).
    fn push_node(&mut self, queue: usize, item: QueueItem) {
        let h = self.items.insert(Node { item, next: None });
        let fifo = self.fifo_mut(queue);
        let tail = fifo.tail.replace(h);
        fifo.len += 1;
        match tail {
            Some(tail) => self.items.get_mut(tail).next = Some(h),
            None => {
                fifo.head = Some(h);
                self.mark_nonempty(queue, true);
            }
        }
    }

    /// Queue `queue` gained its first item or lost its last: its bit
    /// follows, if it has one (a baseline queue past queue 0).
    #[inline]
    fn mark_nonempty(&mut self, queue: usize, nonempty: bool) {
        let Some(bit) = queue.checked_sub(1) else {
            return;
        };
        if let Some(word) = self.nonempty.words_mut().get_mut(bit / 64) {
            let mask = 1 << (bit % 64);
            if nonempty {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        }
    }

    /// Removes and returns the head item of `queue`, if any.
    fn pop_node(&mut self, queue: usize) -> Option<QueueItem> {
        let h = self.fifo(queue).head?;
        let node = self.items.remove(h);
        let fifo = self.fifo_mut(queue);
        fifo.head = node.next;
        fifo.len -= 1;
        if fifo.head.is_none() {
            fifo.tail = None;
            self.mark_nonempty(queue, false);
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
        match self.mapping {
            Mapping::OneQ => 0,
            Mapping::FourQ => {
                // Lowest occupancy, lowest index on ties.
                let mut best = (self.q0.bytes, 0);
                for (i, fifo) in self.rest.iter().enumerate() {
                    best = best.min((fifo.bytes, i + 1));
                }
                best.1
            }
            Mapping::VoqSw => match self.side {
                // Input side: by the output port requested at this switch.
                PortSide::SwitchInput => pkt.route.next_turn() as usize,
                // Output/injection side: by the port requested at the next
                // switch (last hop: single class).
                PortSide::SwitchOutput { .. } | PortSide::NicInjection => {
                    pkt.route.remaining().first().copied().unwrap_or(0) as usize
                }
            },
            Mapping::VoqNet => pkt.dst.index(),
            Mapping::Recn => {
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
            Some(cap) => self.fifo(queue).bytes + bytes <= cap,
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
        self.charge_pool(bytes);
    }

    /// Reserves bytes on a specific queue (baseline crossbar grant).
    ///
    /// # Panics
    ///
    /// Panics if the queue or pool would overflow.
    pub fn reserve_queue(&mut self, queue: usize, bytes: u64) {
        self.charge_pool(bytes);
        self.charge_queue(queue, bytes);
    }

    /// Stores an item whose bytes were reserved via
    /// [`reserve_queue`](Self::reserve_queue).
    pub fn commit_reserved(&mut self, queue: usize, item: QueueItem) {
        self.push_node(queue, item);
    }

    /// Stores an item whose bytes were reserved via
    /// [`reserve_pooled`](Self::reserve_pooled), charging them to `queue`.
    pub fn commit_pooled(&mut self, queue: usize, item: QueueItem) {
        self.fifo_mut(queue).bytes += item.bytes();
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
        self.charge_pool(item.bytes());
        self.charge_queue(queue, item.bytes());
        self.push_node(queue, item);
    }

    /// The head item of a queue.
    pub fn head(&self, queue: usize) -> Option<&QueueItem> {
        self.fifo(queue).head.map(|h| &self.items.get(h).item)
    }

    /// The head packet of queue 0 when every stored item sits in that
    /// queue: it is then the one packet the port can offer, whatever the
    /// scheme's service order. `None` otherwise (empty port, an item in
    /// another queue, a marker at the head).
    pub(crate) fn sole_head(&self) -> Option<&Packet> {
        if self.items.len() != self.q0.len {
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
        self.fifo_mut(queue).bytes -= bytes;
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
        let n = self.num_queues();
        if !matches!(self.mapping, Mapping::Recn) {
            // Round-robin from `rr`: `rr..n`, then the wrap — queue 0 by
            // its record, the others by their bits.
            let first = if self.rr == 0 { n } else { self.rr as usize };
            self.list_nonempty(first, n, out);
            if self.q0.len > 0 {
                out.push(0);
            }
            self.list_nonempty(1, first, out);
            return;
        }
        // Fast path: every stored item sits in the normal queue, so no SAQ
        // pass can contribute and the WRR rotation cannot trigger (it needs
        // a serviceable SAQ behind the normal queue). This is the common
        // case outside congestion trees, decided without reading the CAM.
        if self.items.len() == self.q0.len {
            if self.q0.len > 0 {
                out.push(0);
            }
            return;
        }
        let recn = self.recn.as_ref().expect("RECN scheme has a port");
        // Pass 1: drain-boost SAQs (highest priority).
        for saq in recn.iter_saqs() {
            let q = Self::saq_queue(saq);
            if self.fifo(q).len > 0 && recn.drain_boost(saq) && recn.may_transmit(saq) {
                out.push(q);
            }
        }
        // Pass 2 & 3: normal queue and remaining SAQs. Normal goes first
        // unless it has exhausted its WRR weight and some SAQ is
        // serviceable.
        let normal_pos = out.len();
        if self.q0.len > 0 {
            out.push(0);
        }
        let saq_start = out.len();
        let start = (self.rr as usize).max(1);
        for q in (start..n).chain(1..start) {
            if self.fifo(q).len == 0 || out.contains(&q) {
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

    /// Appends the non-empty queues among `from..to` (`from >= 1`), in
    /// ascending order, to `out`: the set bits `from - 1..to - 1`.
    fn list_nonempty(&self, from: usize, to: usize, out: &mut Vec<usize>) {
        let (lo, hi) = (from - 1, to - 1);
        for wi in lo / 64..hi.div_ceil(64) {
            let base = wi * 64;
            let mut word = self.nonempty.words()[wi];
            if base < lo {
                word &= !0 << (lo - base);
            }
            if hi < base + 64 {
                word &= (1 << (hi - base)) - 1;
            }
            while word != 0 {
                out.push(base + word.trailing_zeros() as usize + 1);
                word &= word - 1;
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
        self.rr = if queue + 1 == self.num_queues() {
            0
        } else {
            queue as u32 + 1
        };
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
    use std::collections::VecDeque;
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
            xon_threshold: 1,
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

    /// The queue set as plain containers: a deque and a byte count per
    /// queue, the pool, and the two service pointers.
    struct Model {
        queues: Vec<VecDeque<QueueItem>>,
        bytes: Vec<u64>,
        used: u64,
        peak_used: u64,
        rr: usize,
        normal_streak: u32,
    }

    impl Model {
        fn push(&mut self, queue: usize, item: QueueItem, charge_pool: bool, charge_queue: bool) {
            let bytes = item.bytes();
            self.used += if charge_pool { bytes } else { 0 };
            self.bytes[queue] += if charge_queue { bytes } else { 0 };
            self.peak_used = self.peak_used.max(self.used);
            self.queues[queue].push_back(item);
        }

        fn stored(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }

        /// `service_order` as it was written over per-queue arrays, with a
        /// division per queue visited; `qs` lends its RECN port.
        fn service_order(&self, qs: &QueueSet) -> Vec<usize> {
            let n = self.queues.len();
            let len = |q: usize| self.queues[q].len();
            let mut out = Vec::new();
            let Some(recn) = qs.recn() else {
                out.extend(
                    (0..n)
                        .map(|off| (self.rr + off) % n)
                        .filter(|&q| len(q) > 0),
                );
                return out;
            };
            for saq in recn.iter_saqs() {
                let q = QueueSet::saq_queue(saq);
                if len(q) > 0 && recn.drain_boost(saq) && recn.may_transmit(saq) {
                    out.push(q);
                }
            }
            let normal_pos = out.len();
            if len(0) > 0 {
                out.push(0);
            }
            let saq_start = out.len();
            let start = self.rr.max(1);
            for off in 0..n - 1 {
                let q = 1 + (start - 1 + off) % (n - 1);
                let Some(saq) = qs.saq_at_queue(q) else {
                    continue;
                };
                if len(q) > 0
                    && !out.contains(&q)
                    && recn.may_transmit(saq)
                    && !recn.drain_boost(saq)
                {
                    out.push(q);
                }
            }
            if self.normal_streak >= QueueSet::NORMAL_WRR_WEIGHT
                && out.len() > saq_start
                && saq_start > normal_pos
            {
                out.remove(normal_pos);
                out.push(0);
            }
            out
        }

        /// Everything the queue set lets a caller see must be what the
        /// containers say.
        fn assert_matches(&self, qs: &QueueSet, per_queue_cap: Option<u64>, at: &str) {
            let id = |item: Option<&QueueItem>| match item {
                Some(QueueItem::Packet(p)) => Some(Ok(p.id)),
                Some(QueueItem::Marker(saq)) => Some(Err(saq.line())),
                None => None,
            };
            assert_eq!(qs.num_queues(), self.queues.len());
            for (q, queue) in self.queues.iter().enumerate() {
                assert_eq!(qs.queue_len(q), queue.len(), "{at}: length of queue {q}");
                assert_eq!(qs.queue_bytes(q), self.bytes[q], "{at}: bytes of queue {q}");
                assert_eq!(id(qs.head(q)), id(queue.front()), "{at}: head of queue {q}");
                let room = self.used + 64 <= qs.capacity()
                    && per_queue_cap.is_none_or(|cap| self.bytes[q] + 64 <= cap);
                assert_eq!(qs.has_room(q, 64), room, "{at}: room in queue {q}");
            }
            assert_eq!(
                (qs.used(), qs.peak_used()),
                (self.used, self.peak_used),
                "{at}"
            );
            assert_eq!(qs.has_items(), self.stored() > 0, "{at}");
            assert_eq!(
                qs.is_drained(),
                self.used == 0 && self.stored() == 0,
                "{at}"
            );
            let sole = match self.queues[0].front() {
                Some(QueueItem::Packet(p)) if self.queues[0].len() == self.stored() => Some(p.id),
                _ => None,
            };
            assert_eq!(qs.sole_head().map(|p| p.id), sole, "{at}: sole head");
            let mut order = vec![usize::MAX];
            qs.service_order(&mut order);
            assert_eq!(order, self.service_order(qs), "{at}: service order");
        }
    }

    /// A seeded sequence of every mutating call, on every scheme, against
    /// [`Model`]: direct stores, two-phase stores whose commit comes later,
    /// takes in service order, and under RECN SAQs allocated (marker into
    /// the normal queue), filled, drained and freed along the way. VOQnet
    /// runs at 64, 65 and 130 queues: the non-empty bits of queues `1..`
    /// then fill one word short of a bit, one word exactly, and two words
    /// and a bit, and the round-robin pointer starts a listing on either
    /// side of each word boundary.
    #[test]
    fn random_operations_match_plain_containers() {
        let recn = RecnConfig {
            drain_boost_pkts: 2,
            ..RecnConfig::default().with_max_saqs(4)
        };
        for (scheme, hosts, mem) in [
            (SchemeKind::OneQ, 64, 1024),
            (SchemeKind::FourQ, 64, 4 * 256),
            (SchemeKind::VoqSw, 64, 4 * 256),
            (SchemeKind::VoqNet, 64, 64 * 192),
            (SchemeKind::VoqNet, 65, 65 * 192),
            (SchemeKind::VoqNet, 130, 130 * 192),
            (SchemeKind::Recn(recn), 64, 2048),
        ] {
            let mut rng = simcore::SplitMix64::new(0x9e7 + mem);
            let mut qs = QueueSet::new(scheme, PortSide::SwitchInput, 4, hosts, mem);
            let n = qs.num_queues();
            let mut rr_seen = vec![false; n];
            let is_recn = qs.recn().is_some();
            let per_queue_cap = (!is_recn).then_some(mem / n as u64);
            let mut model = Model {
                queues: vec![VecDeque::new(); n],
                bytes: vec![0; n],
                used: 0,
                peak_used: 0,
                rr: 0,
                normal_streak: 0,
            };
            // Reserved at "grant time", committed by a later operation.
            let mut in_flight: VecDeque<(usize, Packet)> = VecDeque::new();
            let (mut next_id, mut takes, mut saq_takes) = (0, 0, 0);
            for step in 0..20_000 {
                let at = format!("{} x {n} step {step}", scheme.name());
                // The route is the 64-host fabric's; only VOQnet reads `dst`.
                let dst = (rng.next_u64() % hosts as u64) as u32;
                let mut p = pkt(dst % 64, 0);
                p.dst = HostId::new(dst);
                p.id = next_id;
                next_id += 1;
                let queue = qs.classify(&p);
                match scheme {
                    SchemeKind::OneQ => assert_eq!(queue, 0),
                    SchemeKind::FourQ => {
                        let least = model.bytes.iter().min().expect("four queues");
                        assert_eq!(Some(queue), model.bytes.iter().position(|b| b == least));
                    }
                    SchemeKind::VoqSw => assert_eq!(queue, p.route.next_turn() as usize),
                    SchemeKind::VoqNet => assert_eq!(queue, p.dst.index()),
                    SchemeKind::Recn(_) => assert!(queue == 0 || qs.saq_at_queue(queue).is_some()),
                }
                match rng.next_u64() % 8 {
                    0 | 1 if qs.has_room(queue, 64) => {
                        if let Some(saq) = qs.saq_at_queue(queue) {
                            qs.recn_mut().unwrap().saq_enqueued(saq, 64);
                        }
                        qs.push_direct(queue, QueueItem::Packet(p));
                        model.push(queue, QueueItem::Packet(p), true, true);
                    }
                    2 if qs.has_room(queue, 64) => {
                        if is_recn {
                            qs.reserve_pooled(64);
                        } else {
                            qs.reserve_queue(queue, 64);
                            model.bytes[queue] += 64;
                        }
                        model.used += 64;
                        model.peak_used = model.peak_used.max(model.used);
                        in_flight.push_back((queue, p));
                    }
                    3 => {
                        let Some((reserved, p)) = in_flight.pop_front() else {
                            continue;
                        };
                        if is_recn {
                            // Classified at commit, as the crossbar does.
                            let queue = qs.classify(&p);
                            if let Some(saq) = qs.saq_at_queue(queue) {
                                qs.recn_mut().unwrap().saq_enqueued(saq, 64);
                            }
                            qs.commit_pooled(queue, QueueItem::Packet(p));
                            model.push(queue, QueueItem::Packet(p), false, true);
                        } else {
                            qs.commit_reserved(reserved, QueueItem::Packet(p));
                            model.push(reserved, QueueItem::Packet(p), false, false);
                        }
                    }
                    4 if is_recn && step % 16 == 4 => {
                        // A notification for a one-turn path: a new SAQ,
                        // blocked until its marker leaves the normal queue.
                        let turn = (rng.next_u64() % 4) as u8;
                        let path = topology::PathSpec::from_turns(&[turn]);
                        let outcome = qs.recn_mut().unwrap().alloc_on_notification(path);
                        if let recn::NotifOutcome::Accepted { saq } = outcome {
                            qs.push_direct(0, QueueItem::Marker(saq));
                            model.push(0, QueueItem::Marker(saq), true, true);
                        }
                    }
                    _ => {
                        let order = model.service_order(&qs);
                        let Some(&queue) = order.first() else {
                            continue;
                        };
                        let item = qs.pop(queue);
                        let expected = model.queues[queue].pop_front().expect("listed queue");
                        assert_eq!(item.bytes(), expected.bytes());
                        model.bytes[queue] -= item.bytes();
                        model.used -= item.bytes();
                        takes += 1;
                        match item {
                            QueueItem::Marker(saq) => {
                                qs.recn_mut().unwrap().marker_consumed(saq);
                                continue;
                            }
                            QueueItem::Packet(_) => {}
                        }
                        if let Some(saq) = qs.saq_at_queue(queue) {
                            saq_takes += 1;
                            let port = qs.recn_mut().unwrap();
                            if port.saq_dequeued(saq, 64).deallocatable {
                                port.dealloc(saq);
                            }
                        }
                        qs.rr_granted(queue);
                        model.rr = (queue + 1) % n;
                        rr_seen[model.rr] = true;
                        model.normal_streak = if queue == 0 {
                            model.normal_streak + 1
                        } else {
                            0
                        };
                    }
                }
                model.assert_matches(&qs, per_queue_cap, &at);
            }
            assert!(takes > 2_000, "{}: {takes} takes", scheme.name());
            // Queue `q` is bit `q - 1`: listings started at the last bit of
            // a word, the first of the next, and wrapped past the last queue.
            for rr in (64..n).step_by(64).flat_map(|q| [q, q + 1]) {
                assert!(rr_seen[rr % n], "{} x {n}: rr {rr}", scheme.name());
            }
            assert_eq!(
                is_recn,
                saq_takes > 200,
                "{}: {saq_takes} from SAQs",
                scheme.name()
            );
        }
    }
}
