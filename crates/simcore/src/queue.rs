//! Stable event priority queue: the calendar queue and the same-time lane
//! beside it, behind their counters.

use std::collections::VecDeque;
use std::mem::size_of;

use crate::calendar::CalendarQueue;
use crate::Picos;

/// An event with its scheduled delivery time and a tie-breaking sequence
/// number assigned at insertion (by the calendar: it counts schedules).
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: Picos,
    /// Insertion sequence; earlier insertions fire first at equal times.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Exact counts of the work the queue's cold paths did, for a schedule
/// rather than a host: the same schedule replays them bit for bit
/// anywhere, so a change in them is a change in the queue's geometry (see
/// `calendar.rs`, "Mechanics"), never noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Times the day width and bucket count were re-derived.
    pub rebuilds: u64,
    /// Times the drained window was re-anchored at the overflow tier's
    /// earliest event.
    pub migrations: u64,
    /// Events sorted by those rebuilds and migrations, in total.
    pub events_sorted: u64,
    /// Timestamps stepped over, in total, by schedules that were due
    /// earlier than the latest event of their day.
    pub steps_walked: u64,
}

/// A stable priority queue of simulation events.
///
/// Events are delivered in nondecreasing time order; events scheduled for
/// the same instant are delivered in the order they were scheduled. This
/// stability is what makes multi-component simulations reproducible. The
/// storage is a calendar queue (see `calendar.rs`; O(1) amortized for the
/// clustered event times the fabric model produces) and, beside it, a
/// *same-time lane*: an event scheduled for the time of the last pop — a
/// handler waking something up "now" — is due before anything the calendar
/// holds for a later time, so it waits in a FIFO and never enters a day
/// that already holds later timestamps.
///
/// The lane is exact, not a heuristic. Its entries share one time (the
/// time it accepts only changes while it is empty) and carry ascending
/// `seq`s (one counter numbers every schedule), so it is sorted by
/// `(time, seq)`; so is the calendar; `pop` takes the smaller of the two
/// fronts by that key, and a merge of two sorted sequences is sorted
/// whichever of them an event was put in. A tie of times goes to the
/// calendar: while the lane accepts a time every schedule for it takes the
/// lane, so what the calendar holds for that time is older. None of this
/// assumes an engine — a standalone queue that schedules below the last
/// pop and comes back stays exact — and the whole queue is checked op for
/// op against a binary-heap reference model in
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
    calendar: CalendarQueue<E>,
    /// The same-time lane: pending events due at `lane_time`, in `seq`
    /// order.
    lane: VecDeque<ScheduledEvent<E>>,
    /// What a schedule must be due at to take the lane: the time of the
    /// last pop made while the lane was empty (`None` before the first).
    lane_time: Option<Picos>,
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: CalendarQueue::new(),
            lane: VecDeque::new(),
            lane_time: None,
            peak_len: 0,
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn schedule(&mut self, time: Picos, event: E) {
        if self.lane_time == Some(time) {
            let seq = self.calendar.take_seq();
            self.lane.push_back(ScheduledEvent { time, seq, event });
        } else {
            self.calendar.schedule(time, event);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The time of the lane's front, if that is the earliest pending event.
    /// When the calendar's head is due at the same time it goes first: it
    /// was scheduled before the lane last began to accept that time, so
    /// before everything now in the lane.
    fn lane_next(&self) -> Option<Picos> {
        let &ScheduledEvent { time, seq, .. } = self.lane.front()?;
        let first = self.calendar.peek_time().is_none_or(|head| {
            debug_assert!(head != time || self.calendar.head_seq() < seq);
            time < head
        });
        first.then_some(time)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_due(Picos::MAX)
    }

    /// [`pop`](Self::pop) unless the earliest event is due after `deadline`:
    /// the engine's step, with one comparison of lane and calendar where
    /// `peek_time` then `pop` make two.
    pub(crate) fn pop_due(&mut self, deadline: Picos) -> Option<ScheduledEvent<E>> {
        if let Some(time) = self.lane_next() {
            if time > deadline {
                return None;
            }
            return self.lane.pop_front();
        }
        if self.calendar.peek_time()? > deadline {
            return None;
        }
        let ev = self.calendar.pop()?;
        if self.lane.is_empty() {
            self.lane_time = Some(ev.time);
        }
        Some(ev)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Picos> {
        let lane = self.lane.front().map(|e| e.time);
        match (lane, self.calendar.peek_time()) {
            (Some(lane), Some(head)) => Some(lane.min(head)),
            (lane, head) => lane.or(head),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len() + self.lane.len()
    }

    /// Bytes of backing store the queue currently holds reserved — node
    /// slab, bucket index, occupancy bitmap, overflow tier and same-time
    /// lane by capacity. Deterministic for a given schedule, unlike
    /// resident-set size, and bounded by the deepest the queue ever got
    /// plus the index, not by how long the run was.
    pub fn backing_bytes(&self) -> usize {
        self.calendar.backing_bytes() + self.lane.capacity() * size_of::<ScheduledEvent<E>>()
    }

    /// What the queue's cold paths have done so far.
    pub fn work(&self) -> QueueWork {
        self.calendar.work()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for engine statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.calendar.scheduled_total()
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
    fn schedules_at_the_time_of_the_last_pop_take_the_lane() {
        let (t1, t2) = (Picos::from_ns(1), Picos::from_ns(2));
        let mut q = EventQueue::new();
        q.schedule(t1, 'a');
        q.schedule(t1, 'b');
        assert!(q.lane.is_empty(), "nothing popped yet: no lane time");
        assert_eq!(q.pop().unwrap().event, 'a');
        q.schedule(t2, 'x');
        q.schedule(t1, 'c'); // the time of the last pop
        q.schedule(t1, 'd');
        assert_eq!((q.lane.len(), q.len(), q.peak_len()), (2, 4, 4));
        assert_eq!(q.scheduled_total(), 5);
        assert_eq!(q.peek_time(), Some(t1));
        // 'b' waits in the calendar for the same instant: it is older.
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.event))).collect();
        assert_eq!(order, [(1, 'b'), (3, 'c'), (4, 'd'), (2, 'x')]);
        assert!(q.backing_bytes() >= 2 * size_of::<ScheduledEvent<char>>());
    }

    #[test]
    fn a_rewind_below_a_waiting_lane_stays_exact() {
        let ns = Picos::from_ns;
        let mut q = EventQueue::new();
        q.schedule(ns(10), 0);
        q.pop();
        q.schedule(ns(10), 1); // lane
        q.schedule(ns(5), 2); // below the last pop, lane waiting
        q.schedule(ns(10), 3); // lane again: it still accepts 10 ns
        assert_eq!(q.lane.len(), 2);
        assert_eq!(q.peek_time(), Some(ns(5)));
        assert_eq!(q.pop().unwrap().event, 2);
        // The lane was not empty at that pop, so it still accepts 10 ns,
        // not 5 ns.
        q.schedule(ns(5), 4);
        q.schedule(ns(10), 5);
        assert_eq!(q.lane.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, [4, 1, 3, 5]);
        // Drained at 10 ns, where the lane's last entry was due.
        q.schedule(ns(10), 6);
        assert_eq!(q.lane.len(), 1);
    }

    #[test]
    fn wide_time_span_resizes_correctly() {
        // Push enough events across a huge span to force calendar rebuilds
        // (growth past 2× buckets) and the sparse direct-search fallback.
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
    }
}
