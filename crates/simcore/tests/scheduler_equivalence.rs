//! Differential tests: the event queue and the heap reference model below
//! must pop identical `(time, seq, event)` sequences for identical
//! schedules — including FIFO stability at equal times and interleaved
//! pops.
//!
//! The queue keeps what its delay lanes refuse in std's `BinaryHeap`, as
//! the model does, so what these tests check is the lanes and the merge of
//! lanes and heap; `heap_model_pops_a_hand_written_sequence` anchors the
//! order itself.
//!
//! Driven by the crate's own seeded PRNG.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simcore::{EventQueue, Picos, SplitMix64};

/// The oracle: a binary min-heap of `(time, seq, payload)` with its own
/// sequence counter and depth high-water mark — it shares no code with the
/// queue it checks. `(time, seq)` is unique, so the payload never decides
/// an ordering.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Picos, u64, u64)>>,
    next_seq: u64,
    peak_len: usize,
}

impl HeapModel {
    fn schedule(&mut self, time: Picos, payload: u64) {
        self.heap.push(Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(Picos, u64, u64)> {
        self.heap.pop().map(|Reverse(key)| key)
    }

    fn peek_time(&self) -> Option<Picos> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

/// Before the model is trusted as the oracle: a schedule small enough to
/// order by hand, with ties, an interleaved pop and a schedule earlier
/// than everything pending.
#[test]
fn heap_model_pops_a_hand_written_sequence() {
    let mut m = HeapModel::default();
    for (ns, payload) in [(30, 10), (10, 11), (30, 12), (20, 13)] {
        m.schedule(Picos::from_ns(ns), payload);
    }
    assert_eq!(m.peek_time(), Some(Picos::from_ns(10)));
    assert_eq!(m.pop(), Some((Picos::from_ns(10), 1, 11)));
    // Same instant as seq 0 and 2, scheduled later: after both. Then one
    // before the current head.
    m.schedule(Picos::from_ns(30), 14);
    m.schedule(Picos::from_ns(5), 15);
    assert_eq!((m.len(), m.peak_len, m.scheduled_total()), (5, 5, 6));
    let rest: Vec<(u64, u64)> = std::iter::from_fn(|| m.pop())
        .map(|(time, seq, _)| (time.as_ps() / 1_000, seq))
        .collect();
    assert_eq!(rest, [(5, 5), (20, 3), (30, 0), (30, 2), (30, 4)]);
    assert_eq!((m.len(), m.peek_time(), m.peak_len), (0, None, 5));
}

/// One randomized op-sequence driven through the queue and the model.
///
/// `time_range_ps` shapes the schedule: small ranges force heavy same-time
/// tie-breaking; huge ranges spread the schedules over decades.
fn drive(seed: u64, ops: usize, time_range_ps: u64, pop_bias_percent: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut heap = HeapModel::default();
    let mut payload = 0u64;
    for _ in 0..ops {
        if rng.next_u64() % 100 < pop_bias_percent {
            let a = queue.pop().map(|e| (e.time, e.seq, e.event));
            let b = heap.pop();
            assert_eq!(a, b, "pop diverged (seed {seed})");
            assert_eq!(
                queue.peek_time(),
                heap.peek_time(),
                "peek diverged (seed {seed})"
            );
        } else {
            // Quantize times so equal instants are common.
            let t = Picos::new((rng.next_u64() % time_range_ps) / 64 * 64);
            queue.schedule(t, payload);
            heap.schedule(t, payload);
            payload += 1;
        }
        assert_eq!(queue.len(), heap.len(), "len diverged (seed {seed})");
    }
    // Drain both completely: a stable priority queue yields time order,
    // ties in insertion (seq) order.
    let mut last = None;
    loop {
        let a = queue.pop().map(|e| (e.time, e.seq, e.event));
        let b = heap.pop();
        assert_eq!(a, b, "drain diverged (seed {seed})");
        if a.is_none() {
            break;
        }
        assert!(last < a, "drain out of order (seed {seed})");
        last = a;
    }
    assert_eq!(queue.scheduled_total(), heap.scheduled_total());
    assert_eq!(
        queue.peak_len(),
        heap.peak_len,
        "peak depth diverged (seed {seed})"
    );
}

#[test]
fn dense_schedules_match() {
    // Tight time range: many ties. (The out-of-range seeds here and below
    // are the pinned replay corpus of the retired property suite, one per
    // schedule shape.)
    for seed in (0..8).chain([0xa927_3d54_f80c_1be6]) {
        drive(seed, 4_000, 50_000, 40);
    }
}

#[test]
fn sparse_schedules_match() {
    // Times across four decades.
    for seed in (100..108).chain([0x1c88_f06e_b3a5_92d0]) {
        drive(seed, 4_000, 10_000_000_000, 40);
    }
}

#[test]
fn pop_heavy_schedules_match() {
    // Mostly pops: the queue repeatedly empties.
    for seed in (200..204).chain([0x5b1e_43a0_c2f8_d617]) {
        drive(seed, 4_000, 1_000_000, 70);
    }
}

#[test]
fn monotone_engine_like_schedules_match() {
    // The engine's usage pattern: times never before the last pop, with
    // deltas resembling link/crossbar latencies (0, ~43 ns, ~64+20 ns).
    for seed in 300..304 {
        let mut rng = SplitMix64::new(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut now = Picos::ZERO;
        let deltas = [
            Picos::ZERO,
            Picos::new(42_667),
            Picos::from_ns(84),
            Picos::from_ns(512),
        ];
        for i in 0..20_000u64 {
            if rng.next_u64().is_multiple_of(3) && !queue.is_empty() {
                let a = queue.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!((a.time, a.seq, a.event), b);
                assert!(a.time >= now, "popped an event from the past");
                now = a.time;
            } else {
                let d = deltas[(rng.next_u64() % 4) as usize];
                queue.schedule(now + d, i);
                heap.schedule(now + d, i);
            }
        }
        while let Some(a) = queue.pop() {
            let b = heap.pop().unwrap();
            assert_eq!((a.time, a.seq, a.event), b);
        }
        assert!(heap.pop().is_none());
    }
}

/// The queue and the heap oracle side by side: every pop is checked.
struct Pair {
    queue: EventQueue<u64>,
    heap: HeapModel,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            heap: HeapModel::default(),
        }
    }

    fn schedule(&mut self, time: Picos) {
        let payload = self.queue.scheduled_total();
        self.queue.schedule(time, payload);
        self.heap.schedule(time, payload);
        assert_eq!(self.queue.peek_time(), self.heap.peek_time());
        assert_eq!(self.queue.len(), self.heap.len());
    }

    fn pop(&mut self) -> Option<Picos> {
        self.pop_key().map(|(time, _)| time)
    }

    /// [`pop`](Self::pop), returning the popped event's `(time, seq)`.
    fn pop_key(&mut self) -> Option<(Picos, u64)> {
        let a = self.queue.pop().map(|e| (e.time, e.seq, e.event));
        let b = self.heap.pop();
        assert_eq!(a, b, "pop diverged");
        assert_eq!(self.queue.peek_time(), self.heap.peek_time());
        assert_eq!(self.queue.len(), self.heap.len());
        a.map(|(time, seq, _)| (time, seq))
    }

    /// Fills every delay lane of a fresh queue: after one pop at t = 0,
    /// schedules an event at each of `far`, `far` − 1 ps, … — every one a
    /// delay after that pop no other schedule uses — until one lands in the
    /// heap, and pops that one, the earliest. Until the parked events are
    /// popped, every lane holds one and every other schedule reaches the
    /// heap. Returns how many are parked.
    fn occupy_every_lane(&mut self, far: Picos) -> usize {
        assert_eq!(self.queue.scheduled_total(), 0, "a fresh queue");
        self.schedule(Picos::ZERO);
        self.pop();
        let mut parked = 0;
        loop {
            let lanes = self.queue.work().lane_schedules;
            self.schedule(far.saturating_sub(Picos::new(parked as u64)));
            if self.queue.work().lane_schedules == lanes {
                assert!(self.pop() < Some(far), "the one the lanes refused");
                return parked;
            }
            parked += 1;
        }
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.queue.peak_len(), self.heap.peak_len);
    }

    /// What the queue may hold reserved at this peak depth: each of the
    /// eight lanes at most a quarter (and one event) past the peak, the
    /// quarter rule of `simcore::growth`; the heap at most double the peak,
    /// four events at least (std's `Vec` growth).
    fn assert_memory_follows_depth(&self) {
        let event = std::mem::size_of::<simcore::ScheduledEvent<u64>>();
        let peak = self.queue.peak_len();
        let lanes = 8 * (peak + simcore::growth(peak)) * event;
        let heap = (2 * peak).max(4) * event;
        let (lane_bytes, heap_bytes) = (self.queue.lane_bytes(), self.queue.heap_bytes());
        assert!(
            lane_bytes <= lanes,
            "lanes reserve {lane_bytes} B, bound {lanes} B"
        );
        assert!(
            heap_bytes <= heap,
            "heap reserves {heap_bytes} B, bound {heap} B"
        );
        assert_eq!(self.queue.backing_bytes(), lane_bytes + heap_bytes);
    }
}

#[test]
fn memory_follows_depth_not_simulated_time() {
    // The hotspot profile that once held 222 MiB for 6.4 k events: a hold
    // model of 50 same-picosecond bursts of 20 events, each re-scheduled
    // whole 43–512 ns ahead, one in 64 as a timer 50 µs out — ~1 k pending
    // events for 20 k bursts × ~4 ns, ~80 µs of simulated time. What is
    // held reserved must follow the depth, not the time simulated.
    //
    // The bursts are due a few fixed hops after the burst before, which the
    // queue's delay lanes would take; lanes parked a second ahead send
    // them all to the heap.
    let mut rng = SplitMix64::new(0xca1e_0da2);
    let mut q = Pair::new();
    let parked = q.occupy_every_lane(Picos::from_us(1_000_000));
    let lanes = q.queue.work().lane_schedules;
    for burst in 0..50 {
        for _ in 0..20 {
            q.schedule(Picos::new(burst * 7_919));
        }
    }
    let mut after_warm_up = 0;
    for round in 0..20_000 {
        let now = q.queue.peek_time().expect("a hold model never drains");
        let mut burst = 0;
        while q.queue.peek_time() == Some(now) {
            q.pop();
            burst += 1;
        }
        let hop = match rng.next_u64() % 64 {
            0 => 50_000_000, // a timer, far behind everything else
            r => [42_667, 84_000, 512_000][(r % 3) as usize],
        };
        let at = now + Picos::new(hop + rng.next_u64() % 997);
        for _ in 0..burst {
            q.schedule(at);
        }
        if round == 2_500 {
            after_warm_up = q.queue.backing_bytes();
        }
    }
    assert!(
        q.queue.peek_time() > Some(Picos::from_us(9)),
        "held for 9+ µs"
    );
    assert!(q.queue.peak_len() <= 1_000 + parked);
    assert_eq!(
        q.queue.work().lane_schedules,
        lanes,
        "the heap took every burst"
    );
    let bytes = q.queue.backing_bytes();
    assert!(
        bytes <= after_warm_up,
        "{after_warm_up} B after the first 2,500 rounds grew to {bytes} B"
    );
    q.assert_memory_follows_depth();
    q.drain();
}

#[test]
fn insert_heavy_schedules_match() {
    // The incast/go-back-N profile: ~1 k pending events 300 ps apart, two
    // thirds of them scheduled a fixed ack or serialization time ahead —
    // a delay lane's case — and a third at a random nearer offset, which
    // goes to the heap and is due before events already in the lanes.
    for seed in 400..404 {
        let mut rng = SplitMix64::new(seed);
        let mut q = Pair::new();
        for i in 0..1_000 {
            q.schedule(Picos::new(i * 300));
        }
        for _ in 0..60_000 {
            let now = q.pop().expect("a hold model never drains");
            let ahead = match rng.next_u64() % 3 {
                0 => rng.next_u64() % 300_000,
                _ => 300_000,
            };
            q.schedule(now + Picos::new(ahead));
        }
        q.assert_memory_follows_depth();
        q.drain();
    }
}

#[test]
fn slab_is_reused_across_rebuilds_that_resize_the_index() {
    // A sawtooth: grow to 4096 pending (two schedules per pop), fall back
    // to 32, four times over, at alternately fine and coarse time scales.
    // What the queue reserves is set by the first tooth and reused by the
    // others.
    let mut rng = SplitMix64::new(0x51ab);
    let mut q = Pair::new();
    let mut now = Picos::ZERO;
    q.schedule(now);
    for range in [10_000, 10_000_000, 10_000, 1_000_000_000] {
        while q.queue.len() < 4_096 {
            now = q.pop().expect("never empty while growing");
            q.schedule(now + Picos::new(rng.next_u64() % range));
            q.schedule(now + Picos::new(rng.next_u64() % range));
        }
        q.assert_memory_follows_depth();
        while q.queue.len() > 32 {
            now = q.pop().expect("len > 32");
            if rng.next_u64().is_multiple_of(4) {
                q.schedule(now + Picos::new(rng.next_u64() % range));
            }
        }
        assert_eq!(q.queue.peak_len(), 4_096);
        q.assert_memory_follows_depth();
    }
    q.drain();
}

#[test]
fn same_time_schedules_match() {
    // What a handler does: wake something up "now". Over a third of the
    // schedules are due at the time of the last pop, alone or in blocks,
    // and take the queue's lane of delay 0; the rest land a link time or
    // less ahead, or far ahead. One op in sixteen is what only a standalone
    // queue sees: between two same-time blocks — so with that lane occupied
    // — a schedule *earlier* than the last pop, which the next pop must
    // deliver before the waiting lane, after which "delay 0" means an
    // earlier time than the waiting lane's tail. `Pair` compares the popped
    // event, `peek_time` and `len` with the heap's at every step.
    let mut rng = SplitMix64::new(0x1a9e_5a3e);
    let mut q = Pair::new();
    let mut now = Picos::from_us(1);
    let (mut schedules, mut same_time, mut rewinds) = (0u64, 0u64, 0u64);
    q.schedule(now);
    for _ in 0..120_000 {
        let r = rng.next_u64();
        let arg = r >> 8;
        match r % 16 {
            0..=5 => now = q.pop().unwrap_or(now),
            6..=8 => {
                let n = 1 + arg % 6;
                block(&mut q, now, n as usize);
                same_time += n;
                schedules += n;
            }
            9..=13 => {
                // Quantized, so later same-time schedules find company.
                q.schedule(now + Picos::new(arg % 4_096 * 100));
                schedules += 1;
            }
            14 => {
                q.schedule(now + Picos::from_us(20 + arg % 64));
                schedules += 1;
            }
            _ => {
                block(&mut q, now, 2);
                q.schedule(now.saturating_sub(Picos::new(1 + arg % 50_000)));
                block(&mut q, now, 2);
                same_time += 4;
                schedules += 5;
                rewinds += 1;
            }
        }
    }
    assert!(q.queue.scheduled_total() > 100_000);
    assert!(
        3 * same_time >= schedules && rewinds > 5_000,
        "{same_time} of {schedules} schedules at the time of the last pop, {rewinds} rewinds"
    );
    q.drain();
    assert_eq!(q.queue.len(), 0);
}

#[test]
fn delay_lane_schedules_match() {
    // What the fabric's handlers do: schedule most events a fixed delay
    // after the event they handle. The delays here are twelve, more than
    // the queue keeps lanes for, so lanes are re-keyed as they drain and
    // some schedules find none. The rest are at random offsets. One op in
    // sixteen is a rewind below the last pop, which must go to the heap
    // (and moves the next delays' origin back). The fixed delays are
    // multiples of 21 ns, so events due at one time arrive through
    // different lanes and the merge must order them by `seq`. `Pair`
    // compares the popped event, `peek_time` and `len` with the heap's at
    // every step.
    const DELAYS_NS: [u64; 12] = [0, 21, 42, 63, 84, 105, 126, 168, 252, 336, 504, 20_160];
    const RANDOM: u64 = u64::MAX;
    let mut rng = SplitMix64::new(0xde1a_7a9e);
    let mut q = Pair::new();
    let mut now = Picos::from_us(1);
    // The delay class of each schedule, by `seq`.
    let mut class = vec![RANDOM];
    let (mut rewinds, mut mixed_ties) = (0u64, 0u64);
    let mut last: Option<(Picos, u64)> = None;
    q.schedule(now);
    for _ in 0..120_000 {
        let r = rng.next_u64();
        let arg = r >> 8;
        let (time, c) = match r % 16 {
            0..=7 => {
                if let Some((time, seq)) = q.pop_key() {
                    // Due with the event before, from a different delay.
                    let c = class[seq as usize];
                    if last.is_some_and(|(t, lc)| t == time && lc != c) {
                        mixed_ties += 1;
                    }
                    last = Some((time, c));
                    now = time;
                }
                continue;
            }
            8..=12 => {
                let ns = DELAYS_NS[(arg % 12) as usize];
                (now + Picos::from_ns(ns), ns)
            }
            13 | 14 => (now + Picos::new(arg % 1_000_000), RANDOM),
            _ => {
                rewinds += 1;
                (now.saturating_sub(Picos::new(1 + arg % 50_000)), RANDOM)
            }
        };
        q.schedule(time);
        class.push(c);
    }
    let schedules = q.queue.scheduled_total();
    let in_lanes = q.queue.work().lane_schedules;
    assert!(
        schedules > 50_000 && rewinds > 5_000,
        "{schedules} schedules, {rewinds} rewinds"
    );
    assert!(
        in_lanes * 4 > schedules && schedules - in_lanes > rewinds + 10_000,
        "lanes took {in_lanes} of {schedules} schedules ({rewinds} rewinds)"
    );
    assert!(mixed_ties > 1_000, "{mixed_ties} ties across delays");
    q.drain();
    assert_eq!(q.queue.len(), 0);
}

/// `n` events due at `time`: one block of a lock-step schedule.
fn block(q: &mut Pair, time: Picos, n: usize) {
    for _ in 0..n {
        q.schedule(time);
    }
}

#[test]
fn lock_step_blocks_and_rewinds_below_a_half_popped_head_match() {
    // Every host acts on the same clock edge: blocks of 4,096 events due at
    // one picosecond, a few picoseconds apart, scheduled out of order, then
    // blocks landing before, between and into pending blocks while the
    // earliest is half popped.
    //
    // Past the first pop the blocks are due a few picoseconds after the last
    // pop, which the queue's delay lanes would take: lanes parked a second
    // ahead send them all to the heap.
    let t = |ps: u64| Picos::from_ns(100) + Picos::new(ps);
    let mut q = Pair::new();
    q.occupy_every_lane(Picos::from_us(1_000_000));
    let lanes = q.queue.work().lane_schedules;
    block(&mut q, t(10), 4_096);
    block(&mut q, t(30), 4_096);
    block(&mut q, t(20), 4_096); // before a pending block
    for _ in 0..2_048 {
        assert_eq!(q.pop(), Some(t(10)));
    }
    block(&mut q, t(10), 100); // into the block being drained: behind it
    block(&mut q, t(25), 100); // between two pending blocks
    block(&mut q, t(20), 100); // onto a pending block
                               // A rewind below the current head while its block is half popped, then
                               // the same again once the rewound block is itself half popped.
    block(&mut q, t(5), 64);
    for _ in 0..32 {
        assert_eq!(q.pop(), Some(t(5)));
    }
    block(&mut q, t(0), 64);
    block(&mut q, t(5), 1);
    // A block larger than everything pending while the head block is half
    // popped.
    block(&mut q, t(40), 8_192);
    for _ in 0..64 + 16 {
        q.pop();
    }
    block(&mut q, t(5), 3);
    assert_eq!(
        q.queue.work().lane_schedules,
        lanes,
        "the heap took every block"
    );
    q.drain();
}

#[test]
fn far_future_blocks_scheduled_among_near_traffic_match() {
    // Two lock-step blocks a second ahead of everything else, scheduled in
    // alternation with near-term traffic before the first pop, so every
    // event is in the heap. The near traffic drains, and schedules keep
    // landing in, between and behind the two blocks while they drain.
    let far = |ps: u64| Picos::from_us(1_000_000) + Picos::new(ps);
    let mut rng = SplitMix64::new(0x319);
    let mut q = Pair::new();
    for i in 0..2_000u64 {
        q.schedule(Picos::new(rng.next_u64() % 1_000_000));
        q.schedule(far(8 * (i % 2)));
    }
    for _ in 0..2_000 {
        assert!(q.pop() < Some(far(0)));
    }
    for _ in 0..500 {
        assert_eq!(q.pop(), Some(far(0)));
    }
    block(&mut q, far(0), 10); // the block being drained
    block(&mut q, far(4), 10); // between the two blocks
    block(&mut q, far(8), 10); // the pending one
    block(&mut q, far(16), 10); // behind both
    q.drain();
}
