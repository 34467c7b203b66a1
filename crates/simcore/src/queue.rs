//! Stable event priority queue: the calendar queue, plus the binary heap
//! it is tested against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::calendar::CalendarQueue;
use crate::Picos;

/// An event with its scheduled delivery time and a tie-breaking sequence
/// number assigned at insertion.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: Picos,
    /// Insertion sequence; earlier insertions fire first at equal times.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Which scheduler backend an [`EventQueue`] runs on.
///
/// Every simulation runs on the calendar queue ([`EventQueue::new`]; O(1)
/// amortized for the clustered event times the fabric model produces). The
/// binary heap is the test oracle the calendar is checked against, op for
/// op, by `tests/scheduler_equivalence.rs`: both deliver the exact same
/// `(time, seq)` order. Nothing above this crate selects a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Calendar queue / timing wheel (see `calendar.rs`).
    Calendar,
    /// `BinaryHeap` reference implementation.
    Heap,
}

/// Min-heap wrapper ordered by `(time, seq)`.
struct Entry<E>(ScheduledEvent<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest first.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("time", &self.0.time)
            .field("seq", &self.0.seq)
            .finish()
    }
}

// One queue exists per engine, so the header-size asymmetry between the
// calendar (bucket array + bitmap + overflow bookkeeping) and the bare
// heap is irrelevant — and boxing the calendar would cost a pointer chase
// on the hottest path in the simulator.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend<E> {
    Calendar(CalendarQueue<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A stable priority queue of simulation events.
///
/// Events are delivered in nondecreasing time order; events scheduled for
/// the same instant are delivered in the order they were scheduled. This
/// stability is what makes multi-component simulations reproducible, and
/// it holds identically on every [`SchedulerKind`] backend.
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
    backend: Backend<E>,
    next_seq: u64,
    scheduled_total: u64,
    peak_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (on the calendar queue).
    pub fn new() -> Self {
        EventQueue::with_scheduler(SchedulerKind::Calendar)
    }

    /// Creates an empty queue on the given backend (the equivalence tests'
    /// way to reach the heap oracle).
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Calendar => Backend::Calendar(CalendarQueue::new()),
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            next_seq: 0,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn schedule(&mut self, time: Picos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let ev = ScheduledEvent { time, seq, event };
        match &mut self.backend {
            Backend::Calendar(c) => c.schedule(ev),
            Backend::Heap(h) => h.push(Entry(ev)),
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        match &mut self.backend {
            Backend::Calendar(c) => c.pop(),
            Backend::Heap(h) => h.pop().map(|e| e.0),
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Picos> {
        match &self.backend {
            Backend::Calendar(c) => c.peek().map(|(t, _)| t),
            Backend::Heap(h) => h.peek().map(|e| e.0.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Calendar(c) => c.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// Bytes of backing store the queue currently holds reserved — node
    /// slab, bucket index, occupancy bitmap and overflow tier by capacity
    /// (the heap oracle: its one array). Deterministic for a given
    /// schedule, unlike resident-set size, and bounded by the deepest the
    /// queue ever got plus the index, not by how long the run was.
    pub fn backing_bytes(&self) -> usize {
        match &self.backend {
            Backend::Calendar(c) => c.backing_bytes(),
            Backend::Heap(h) => h.capacity() * std::mem::size_of::<Entry<E>>(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for engine statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
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

    /// Every unit test runs against both backends: the contract is
    /// backend-independent.
    fn both(test: impl Fn(EventQueue<i32>)) {
        test(EventQueue::with_scheduler(SchedulerKind::Calendar));
        test(EventQueue::with_scheduler(SchedulerKind::Heap));
    }

    #[test]
    fn delivers_in_time_order() {
        both(|mut q| {
            q.schedule(Picos::from_ns(30), 3);
            q.schedule(Picos::from_ns(10), 1);
            q.schedule(Picos::from_ns(20), 2);
            assert_eq!(q.peek_time(), Some(Picos::from_ns(10)));
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.pop().unwrap().event, 2);
            assert_eq!(q.pop().unwrap().event, 3);
            assert!(q.pop().is_none());
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn equal_times_are_fifo() {
        both(|mut q| {
            let t = Picos::from_ns(7);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for i in 0..100 {
                let ev = q.pop().unwrap();
                assert_eq!(ev.event, i);
                assert_eq!(ev.time, t);
            }
        });
    }

    #[test]
    fn counters_track_inserts() {
        both(|mut q| {
            assert!(q.is_empty());
            q.schedule(Picos::ZERO, 0);
            q.schedule(Picos::ZERO, 0);
            assert_eq!(q.len(), 2);
            assert_eq!(q.scheduled_total(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert_eq!(q.scheduled_total(), 2);
            assert_eq!(q.peak_len(), 2);
        });
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        both(|mut q| {
            q.schedule(Picos::from_ns(5), 50);
            q.schedule(Picos::from_ns(1), 1);
            assert_eq!(q.pop().unwrap().event, 1);
            // Scheduled later but same time as the remaining one: must come
            // after.
            q.schedule(Picos::from_ns(5), 51);
            assert_eq!(q.pop().unwrap().event, 50);
            assert_eq!(q.pop().unwrap().event, 51);
        });
    }

    #[test]
    fn schedule_before_current_head_rewinds() {
        both(|mut q| {
            q.schedule(Picos::from_us(100), 2);
            q.pop();
            // An earlier time than anything seen so far (standalone-queue
            // usage; the engine forbids this but the queue supports it).
            q.schedule(Picos::from_ns(1), 1);
            q.schedule(Picos::from_us(200), 3);
            assert_eq!(q.peek_time(), Some(Picos::from_ns(1)));
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.pop().unwrap().event, 3);
        });
    }

    #[test]
    fn wide_time_span_resizes_correctly() {
        // Push enough events across a huge span to force calendar rebuilds
        // (growth past 2× buckets) and the sparse direct-search fallback.
        both(|mut q| {
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
        });
    }

    /// Pins the production backend: the two are bit-exact, so no other
    /// test would notice `new()` building the heap.
    #[test]
    fn default_scheduler_is_calendar() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(matches!(q.backend, Backend::Calendar(_)));
        let q: EventQueue<()> = EventQueue::default();
        assert!(matches!(q.backend, Backend::Calendar(_)));
        let q: EventQueue<()> = EventQueue::with_scheduler(SchedulerKind::Heap);
        assert!(matches!(q.backend, Backend::Heap(_)));
    }
}
