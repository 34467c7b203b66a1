//! Stable event priority queue: one FIFO lane per delay after the last pop,
//! and a binary heap for what no lane takes.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;

use crate::{growth, Picos};

/// How many delays the queue keeps a lane for at once. The fabric's hops
/// are a handful of fixed delays (a link hop, a crossbar transfer, a credit
/// on the reverse channel, an egress port's self-kick, a same-time wakeup,
/// a transport timer); chosen by measurement, see CHANGES.md.
const LANES: usize = 8;

/// `(time, seq)` packed into one integer that orders the same way, so
/// a pop compares lane fronts and the heap's top without branching on the
/// tie.
fn key(time: Picos, seq: u64) -> u128 {
    u128::from(time.as_ps()) << 64 | u128::from(seq)
}

/// The front key of an empty lane or heap: after every pending event's.
const EMPTY: u128 = u128::MAX;

/// An event with its scheduled delivery time and a tie-breaking sequence
/// number assigned at insertion (the queue counts schedules).
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: Picos,
    /// Insertion sequence; earlier insertions fire first at equal times.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    fn key(&self) -> u128 {
        key(self.time, self.seq)
    }
}

/// A heap entry: ordered by [`key`], reversed, so std's max-heap pops the
/// earliest `(time, seq)`. The key is unique, so the payload never decides.
#[derive(Debug)]
struct Pending<E>(ScheduledEvent<E>);

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<E> Eq for Pending<E> {}

/// Exact counts of the work the queue did, for a schedule rather than a
/// host: the same schedule replays them bit for bit anywhere, so a change
/// in them is a change in how the queue lays a run out, never noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Schedules a delay lane took; the heap took the rest of
    /// [`EventQueue::scheduled_total`].
    pub lane_schedules: u64,
}

/// A stable priority queue of simulation events.
///
/// Events are delivered in nondecreasing time order; events scheduled for
/// the same instant are delivered in the order they were scheduled. This
/// stability is what makes multi-component simulations reproducible.
///
/// Almost every event a fabric handler schedules is due a fixed delay after
/// the event it handles — a link hop, a crossbar transfer, a credit, a
/// wakeup "now" — and with time moving forward the events of one delay
/// arrive already sorted. So the queue files a schedule by its delay from
/// the time of the last pop: it joins the FIFO *lane* keyed to that delay
/// if that lane's tail is due no later, or else claims an empty lane
/// (re-keyed to the delay), or else — and always before the first pop, or
/// for a time below the last pop — goes to a binary heap.
///
/// The lanes are exact, not a heuristic:
/// 1. a lane appends only behind a tail due no later, and one counter
///    numbers every schedule, so each lane is sorted by `(time, seq)`;
/// 2. the heap is sorted by `(time, seq)`;
/// 3. `pop` takes the smallest `(time, seq)` among the lane fronts and the
///    heap's top, and a merge of sorted sequences is sorted.
///
/// Which lane takes a schedule decides cost, never order. The whole queue
/// is checked op for op against a binary-heap reference model in
/// `tests/scheduler_equivalence.rs`.
///
/// ```
/// use simcore::{EventQueue, Picos};
/// let mut q = EventQueue::new();
/// q.schedule(Picos::from_ns(5), "b");
/// q.schedule(Picos::from_ns(1), "a");
/// q.schedule(Picos::from_ns(5), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// What no lane takes.
    heap: BinaryHeap<Pending<E>>,
    /// The [`key`] of each lane's front, `EMPTY` for an empty lane: what a
    /// pop compares, packed apart from the events.
    fronts: [u128; LANES],
    /// The delay after the last pop each lane is keyed to.
    delays: [Picos; LANES],
    /// When each lane's tail is due (stale while the lane is empty).
    tails: [Picos; LANES],
    /// Bit `i` set ⇔ lane `i` holds an event.
    occupied: u32,
    /// Each lane's pending events, in `(time, seq)` order; a full lane
    /// grows by [`growth`], not by doubling.
    lanes: [VecDeque<ScheduledEvent<E>>; LANES],
    /// Time of the last pop (`None` before the first).
    last_pop: Option<Picos>,
    /// The `seq` of the next schedule: the number made so far.
    next_seq: u64,
    lane_len: usize,
    lane_schedules: u64,
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            fronts: [EMPTY; LANES],
            delays: [Picos::ZERO; LANES],
            tails: [Picos::ZERO; LANES],
            occupied: 0,
            lanes: std::array::from_fn(|_| VecDeque::new()),
            last_pop: None,
            next_seq: 0,
            lane_len: 0,
            lane_schedules: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn schedule(&mut self, time: Picos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.lane_for(time) {
            Some(i) => {
                let lane = &mut self.lanes[i];
                debug_assert!(lane.back().is_none_or(|t| (t.time, t.seq) < (time, seq)));
                if lane.is_empty() {
                    self.fronts[i] = key(time, seq);
                    self.occupied |= 1 << i;
                }
                if lane.len() == lane.capacity() {
                    lane.reserve_exact(growth(lane.len()));
                }
                lane.push_back(ScheduledEvent { time, seq, event });
                self.tails[i] = time;
                self.lane_len += 1;
                self.lane_schedules += 1;
            }
            None => self.heap.push(Pending(ScheduledEvent { time, seq, event })),
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The lane a schedule due at `time` joins: one keyed to its delay
    /// after the last pop whose tail is due no later, or else an empty
    /// lane, re-keyed. `None`: the heap takes it.
    fn lane_for(&mut self, time: Picos) -> Option<usize> {
        let last_pop = self.last_pop?;
        if time < last_pop {
            return None;
        }
        let delay = time - last_pop;
        let mut keyed = 0u32;
        for (i, &d) in self.delays.iter().enumerate() {
            keyed |= u32::from(d == delay) << i;
        }
        while keyed != 0 {
            let i = keyed.trailing_zeros() as usize;
            if self.occupied & 1 << i == 0 || self.tails[i] <= time {
                return Some(i);
            }
            keyed &= keyed - 1;
        }
        let empty = !self.occupied & ((1 << LANES) - 1);
        if empty == 0 {
            return None;
        }
        let i = empty.trailing_zeros() as usize;
        self.delays[i] = delay;
        Some(i)
    }

    /// The lane whose front has the smallest [`key`], and that key
    /// (`EMPTY` when every lane is).
    fn first_lane(&self) -> (usize, u128) {
        let (mut first, mut min) = (0, self.fronts[0]);
        for (i, &front) in self.fronts.iter().enumerate().skip(1) {
            let less = front < min;
            first = if less { i } else { first };
            min = if less { front } else { min };
        }
        (first, min)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_due(Picos::MAX)
    }

    /// [`pop`](Self::pop) unless the earliest event is due after `deadline`:
    /// the engine's step, with one merge of lanes and heap where
    /// `peek_time` then `pop` make two.
    pub(crate) fn pop_due(&mut self, deadline: Picos) -> Option<ScheduledEvent<E>> {
        let (i, front) = self.first_lane();
        let top = self.heap.peek().map_or(EMPTY, |p| p.0.key());
        let first = front.min(top);
        if first == EMPTY || first >> 64 > u128::from(deadline.as_ps()) {
            return None;
        }
        let ev = if top < front {
            self.heap.pop().expect("a top").0
        } else {
            let lane = &mut self.lanes[i];
            let ev = lane.pop_front().expect("a lane with a front");
            match lane.front() {
                Some(next) => self.fronts[i] = next.key(),
                None => {
                    self.fronts[i] = EMPTY;
                    self.occupied &= !(1 << i);
                }
            }
            self.lane_len -= 1;
            ev
        };
        self.last_pop = Some(ev.time);
        Some(ev)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Picos> {
        let top = self.heap.peek().map_or(EMPTY, |p| p.0.key());
        let first = self.first_lane().1.min(top);
        (first != EMPTY).then(|| Picos::new((first >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane_len
    }

    /// Bytes of backing store the queue currently holds reserved — the
    /// heap and every lane, re-keyed or not, by capacity. Deterministic for
    /// a given schedule, unlike resident-set size, and bounded by the
    /// deepest the queue ever got, not by how long the run was.
    pub fn backing_bytes(&self) -> usize {
        self.lane_bytes() + self.heap_bytes()
    }

    /// The lanes' part of [`backing_bytes`](Self::backing_bytes). A lane
    /// grows by [`growth`] when full, so each holds at most a quarter (plus
    /// one event) more than the deepest it got.
    pub fn lane_bytes(&self) -> usize {
        let lanes: usize = self.lanes.iter().map(VecDeque::capacity).sum();
        lanes * size_of::<ScheduledEvent<E>>()
    }

    /// The heap's part of [`backing_bytes`](Self::backing_bytes), grown by
    /// std's doubling.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * size_of::<ScheduledEvent<E>>()
    }

    /// What the queue has done so far.
    pub fn work(&self) -> QueueWork {
        QueueWork {
            lane_schedules: self.lane_schedules,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for engine statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of [`len`](Self::len): the deepest the pending-event
    /// set ever got. The binding memory metric of a run — reported in
    /// `RunOutput` and the `--json` sweep summaries.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(30), 3);
        q.schedule(Picos::from_ns(10), 1);
        q.schedule(Picos::from_ns(20), 2);
        assert_eq!(q.peek_time(), Some(Picos::from_ns(10)));
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Picos::from_ns(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            let ev = q.pop().unwrap();
            assert_eq!(ev.event, i);
            assert_eq!(ev.time, t);
        }
    }

    #[test]
    fn counters_track_inserts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Picos::ZERO, 0);
        q.schedule(Picos::ZERO, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(5), 50);
        q.schedule(Picos::from_ns(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        // Scheduled later but same time as the remaining one: must come
        // after.
        q.schedule(Picos::from_ns(5), 51);
        assert_eq!(q.pop().unwrap().event, 50);
        assert_eq!(q.pop().unwrap().event, 51);
    }

    #[test]
    fn schedule_before_current_head_rewinds() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_us(100), 2);
        q.pop();
        // An earlier time than anything seen so far (standalone-queue
        // usage; the engine forbids this but the queue supports it).
        q.schedule(Picos::from_ns(1), 1);
        q.schedule(Picos::from_us(200), 3);
        assert_eq!(q.peek_time(), Some(Picos::from_ns(1)));
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn schedules_a_fixed_delay_after_the_last_pop_share_a_lane() {
        let ns = Picos::from_ns;
        let mut q = EventQueue::new();
        q.schedule(ns(1), 'a');
        q.schedule(ns(85), 'b');
        assert_eq!(q.work().lane_schedules, 0, "nothing popped yet: no delays");
        assert_eq!(q.pop().unwrap().event, 'a');
        q.schedule(ns(85), 'c'); // 84 ns after the last pop
        q.schedule(ns(85), 'd'); // the same lane
        q.schedule(ns(1), 'e'); // due now: the lane of delay 0
        q.schedule(ns(43), 'f'); // a third lane
        assert_eq!(q.work().lane_schedules, 4);
        assert_eq!((q.len(), q.peak_len(), q.scheduled_total()), (5, 5, 6));
        assert_eq!(q.peek_time(), Some(ns(1)));
        assert_eq!(q.pop().unwrap().event, 'e');
        assert_eq!(q.pop().unwrap().event, 'f');
        // 42 ns after the last pop: the lane 'f' left empty, due with 'c'.
        q.schedule(ns(85), 'g');
        assert_eq!(q.work().lane_schedules, 5);
        // One time reached through the heap and two lanes: `seq` order.
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.event))).collect();
        assert_eq!(order, [(1, 'b'), (2, 'c'), (3, 'd'), (6, 'g')]);
        assert!(q.backing_bytes() >= 3 * size_of::<ScheduledEvent<char>>());
    }

    #[test]
    fn a_lane_grows_by_a_quarter_of_what_it_holds() {
        let mut q = EventQueue::new();
        q.schedule(Picos::ZERO, 0);
        q.pop();
        for n in 1..=200 {
            q.schedule(Picos::from_ns(84), n); // every one in the lane of 84 ns
            let reserved = q.lanes[0].capacity();
            assert!(
                (n..=n + growth(n)).contains(&reserved),
                "{n} held, {reserved} reserved"
            );
        }
        assert_eq!(q.work().lane_schedules, 200);
    }

    #[test]
    fn a_rewind_below_the_last_pop_goes_to_the_calendar() {
        let ns = Picos::from_ns;
        let mut q = EventQueue::new();
        q.schedule(ns(10), 0);
        q.pop();
        q.schedule(ns(10), 1); // delay 0
        q.schedule(ns(30), 2); // delay 20 ns
        q.schedule(ns(5), 3); // below the last pop: the heap
        assert_eq!(q.work().lane_schedules, 2);
        assert_eq!(q.peek_time(), Some(ns(5)));
        assert_eq!(q.pop().unwrap().event, 3);
        // The last pop went back to 5 ns. Delays 0 and 20 ns now mean 5 and
        // 25 ns, before the tails of their lanes: each claims an empty lane.
        q.schedule(ns(5), 4);
        q.schedule(ns(25), 5);
        q.schedule(ns(30), 6);
        assert_eq!(q.work().lane_schedules, 5);
        assert_eq!(q.occupied.count_ones(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, [4, 1, 5, 2, 6]);
        assert!(q.fronts.iter().all(|&f| f == EMPTY));
    }

    #[test]
    fn a_delay_without_a_lane_goes_to_the_calendar() {
        let ns = Picos::from_ns;
        let mut q = EventQueue::new();
        q.schedule(Picos::ZERO, 0);
        q.pop();
        for d in 1..=LANES as u64 {
            q.schedule(ns(d), d);
        }
        q.schedule(ns(LANES as u64 + 1), 100); // every lane holds another delay
        q.schedule(ns(1), 101); // behind the lane of 1 ns
        assert_eq!(q.work().lane_schedules, LANES as u64 + 1);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 101);
        // The lane of 1 ns drained: a new delay re-keys it.
        q.schedule(ns(1 + 100), 102);
        assert_eq!(q.work().lane_schedules, LANES as u64 + 2);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        let mut expect: Vec<u64> = (2..=LANES as u64).collect();
        expect.extend([100, 102]);
        assert_eq!(rest, expect);
    }

    #[test]
    fn unpopped_schedules_across_a_wide_span_pop_in_order() {
        // Before the first pop there is no delay to file by: every schedule
        // goes to the heap, here 2,000 of them spread over a millisecond.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..2000 {
            // Deliberately non-monotone and spanning ns..ms.
            let t = Picos::new((i * 2_654_435_761) % 1_000_000_007);
            q.schedule(t, i as i32);
            expect.push((t, i));
        }
        expect.sort();
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time, e.seq));
        }
        assert_eq!(popped, expect);
        assert_eq!(q.peak_len(), 2000);
        assert_eq!(q.work().lane_schedules, 0);
    }
}
