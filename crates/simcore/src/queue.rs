//! Stable event priority queue: the calendar queue behind its counters.

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
/// clustered event times the fabric model produces), checked op for op
/// against a binary-heap reference model in
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
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: CalendarQueue::new(),
            peak_len: 0,
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn schedule(&mut self, time: Picos, event: E) {
        self.calendar.schedule(time, event);
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.calendar.pop()
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Picos> {
        self.calendar.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Bytes of backing store the queue currently holds reserved — node
    /// slab, bucket index, occupancy bitmap and overflow tier by capacity.
    /// Deterministic for a given schedule, unlike resident-set size, and
    /// bounded by the deepest the queue ever got plus the index, not by
    /// how long the run was.
    pub fn backing_bytes(&self) -> usize {
        self.calendar.backing_bytes()
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
