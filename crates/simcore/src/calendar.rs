//! Calendar-queue event scheduler.
//!
//! A classic calendar queue (Brown 1988) adapted to the simulator's
//! integer-picosecond time base: pending events live in a circular array
//! of "day" buckets, each bucket a sorted run of `(time, seq)` keys. For
//! the near-uniform event-time distributions a cycle-ish switch model
//! produces (most events land within a couple of link times of `now`),
//! `schedule` and `pop` are O(1) amortized, versus the O(log n) of a
//! binary heap.
//!
//! ## Ordering contract
//!
//! Delivery order is *exactly* nondecreasing `(time, seq)` — identical,
//! event for event, to a binary heap ordered by that key. This is
//! load-bearing: the golden-trace digests pin whole-run event sequences, so
//! nothing the scheduler does may be visible at the per-event level. The
//! differential tests in `tests/scheduler_equivalence.rs` drive random
//! schedules through this queue and a heap reference model of their own and
//! assert identical pop sequences, including FIFO stability at equal times.
//!
//! ## Mechanics
//!
//! * A *day* is `1 << width_shift` picoseconds; day `d` lives in bucket
//!   `d % nbuckets`. Every bucketed event sits in one node slab, and a
//!   bucket is a `(head, tail)` pair of slab indices: a doubly linked run
//!   kept ascending by `(time, seq)` (Brown's original layout). The common
//!   append (later key into its day) and the common removal (pop the
//!   front) are O(1); an out-of-order insert walks back from the tail.
//!   Freed nodes go on a LIFO free list, so the slab's size follows the
//!   peak number of bucketed events — however many buckets the window
//!   sweeps over a run — and the node reused next is the one freed last.
//! * An occupancy bitmap (one bit per bucket) mirrors which buckets are
//!   non-empty, so head relocation skips runs of empty buckets a word at
//!   a time instead of touching every bucket's index entry.
//! * `cur_day` tracks the day being drained. A pop takes the cached head;
//!   relocating the next head scans the bitmap forward from `cur_day`,
//!   visiting each *occupied* bucket at most once per lap. If a whole lap
//!   finds nothing due (events clustered laps ahead), a direct search
//!   over the occupied bucket fronts finds the global minimum and jumps
//!   `cur_day` to it, which keeps sparse queues correct (just not O(1)).
//! * Scheduling *earlier* than the current head simply rewinds `cur_day`.
//! * Buckets only hold events inside the current *window* of
//!   `nbuckets` days; events due past it go to an unsorted *overflow*
//!   tier (à la the ladder queue). Without it, far-future events wrap
//!   around the circular array and sit in the same buckets as the dense
//!   cluster near `now`, turning the majority of near-term schedules
//!   into out-of-order mid-run inserts — the dominant cost in hotspot
//!   workloads. Every overflow key is strictly greater than every
//!   bucketed key, so the head always lives in the buckets; when the
//!   window drains, a cheap migration (sort the mostly-sorted overflow,
//!   append the next cohort) re-anchors it at the overflow minimum.
//! * A rebuild (bucket overload, an insert walking [`LONG_RUN`] nodes, or
//!   a migration finding mostly tail) re-derives the geometry: the day
//!   width is the *coarsest* one whose longest same-day run stays within
//!   [`RUN_LIMIT`] (so a mid-run insert walks few nodes — same-time
//!   events can't be split by any width, but they arrive in `seq` order
//!   and append), and the bucket count gives ~2 buckets per event *and*
//!   a window reaching the last pending event's day (capped), so only
//!   the far tail overflows.

use std::mem::size_of;

use crate::queue::ScheduledEvent;
use crate::Picos;

/// Lower bound on the day width: a single picosecond (the time base's
/// resolution). Hotspot workloads really do reach >1 event/ps near the
/// head — clamping coarser than this packs hundreds of events per day
/// and turns same-day schedules into long walks back from the tail.
const MIN_WIDTH_SHIFT: u32 = 0;
/// Upper bound on the day width (2²⁰ ps ≈ 1.05 µs): events further apart
/// than this are rare enough that coarse buckets suffice.
const MAX_WIDTH_SHIFT: u32 = 20;
/// Bucket-count bounds (powers of two).
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 20;
/// Day-width selection: the rebuild picks the coarsest width whose
/// longest same-day run stays within this bound, so a mid-run insert
/// walks at most this many nodes.
const RUN_LIMIT: usize = 16;
/// An out-of-order insert walking this many nodes between rebuilds (the
/// workload got denser than the last width choice) forces an early
/// re-width.
const LONG_RUN: usize = 4 * RUN_LIMIT;
/// "No node": an empty bucket's head and tail, the ends of a run, the
/// end of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event linked into its bucket's run, or a
/// free slot linked (through `next`) into the free list.
#[derive(Debug)]
struct Node<E> {
    ev: Option<ScheduledEvent<E>>,
    prev: u32,
    next: u32,
}

/// A calendar queue over [`ScheduledEvent`]s; see the module docs.
///
/// The key `(time, seq)` is strictly unique (`seq` is an insertion
/// counter), which is what makes the total order — and therefore FIFO
/// stability at equal times — exact.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    /// Every bucketed event. Grows only when the free list is empty, so
    /// its length is the peak number of events the buckets ever held.
    nodes: Vec<Node<E>>,
    /// Most recently freed node (LIFO, so reuse stays cache-hot), or `NIL`.
    free: u32,
    /// `(head, tail)` of each bucket's ascending run; `(NIL, NIL)` if empty.
    buckets: Vec<(u32, u32)>,
    /// Bit `b` set ⇔ `buckets[b]` is non-empty.
    occupied: Vec<u64>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// log2 of the day width in picoseconds.
    width_shift: u32,
    /// Day currently being drained; no pending event has an earlier day.
    cur_day: u64,
    /// First day of the calendar window `[epoch_day, epoch_day + nbuckets)`.
    /// Events due past the window live in `overflow`, not in buckets.
    epoch_day: u64,
    /// Far-future events (day ≥ `epoch_day + nbuckets`), unsorted. Every
    /// overflow key is strictly greater than every bucketed key, so the
    /// head always lives in the buckets; when they drain, `rebuild`
    /// re-anchors the window at the overflow minimum and pulls the next
    /// cohort in.
    overflow: Vec<ScheduledEvent<E>>,
    /// Cached head `(time, seq, bucket)`, kept valid between mutations.
    head: Option<(Picos, u64, usize)>,
    /// Events resident in buckets (excludes `overflow`).
    cal_len: usize,
    len: usize,
    /// Schedules since the last rebuild (cooldown for early re-widths).
    sched_since_rebuild: usize,
}

/// Longest run of events (in a `(time, seq)`-sorted slice) sharing a day
/// at the given width shift. Monotone nondecreasing in `shift`.
fn max_run<E>(events: &[ScheduledEvent<E>], shift: u32) -> usize {
    let mut best = 1;
    let mut cur = 1;
    for pair in events.windows(2) {
        if pair[0].time.as_ps() >> shift == pair[1].time.as_ps() >> shift {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 1;
        }
    }
    best
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![(NIL, NIL); MIN_BUCKETS],
            occupied: vec![0; MIN_BUCKETS / 64],
            mask: (MIN_BUCKETS - 1) as u64,
            width_shift: 13, // 8.2 ns: a fraction of a 64 B serialization time
            cur_day: 0,
            epoch_day: 0,
            overflow: Vec::new(),
            head: None,
            cal_len: 0,
            len: 0,
            sched_since_rebuild: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn peek(&self) -> Option<(Picos, u64)> {
        self.head.map(|(t, s, _)| (t, s))
    }

    /// Bytes of backing store currently reserved: capacities, not
    /// residency, so the figure is deterministic. The slab and the
    /// overflow tier never shrink; the bucket index and its bitmap are
    /// re-sized by [`rebuild`](Self::rebuild).
    pub(crate) fn backing_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node<E>>()
            + self.buckets.capacity() * size_of::<(u32, u32)>()
            + self.occupied.capacity() * size_of::<u64>()
            + self.overflow.capacity() * size_of::<ScheduledEvent<E>>()
    }

    fn day_of(&self, time: Picos) -> u64 {
        time.as_ps() >> self.width_shift
    }

    /// Key of the event in linked node `n`.
    #[inline]
    fn key(&self, n: u32) -> (Picos, u64) {
        let ev = self.nodes[n as usize].ev.as_ref().expect("linked node");
        (ev.time, ev.seq)
    }

    /// Stores `ev` in a slab slot (the most recently freed one, if any)
    /// with the given links.
    fn alloc(&mut self, ev: ScheduledEvent<E>, prev: u32, next: u32) -> u32 {
        let ev = Some(ev);
        let node = Node { ev, prev, next };
        if self.free == NIL {
            let n = u32::try_from(self.nodes.len()).ok().filter(|&n| n != NIL);
            self.nodes.push(node);
            n.expect("fewer than 2^32 - 1 bucketed events")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        }
    }

    /// Empties the slab. Only valid while no bucket holds an event; the
    /// next cohort then lands in the slab in key order, front to back.
    fn reset_slab(&mut self) {
        debug_assert!(self.nodes.iter().all(|n| n.ev.is_none()));
        self.nodes.clear();
        self.free = NIL;
    }

    /// Appends `ev` to bucket `b`'s run; its key exceeds the tail's.
    fn push_back(&mut self, b: usize, ev: ScheduledEvent<E>) {
        let tail = self.buckets[b].1;
        let n = self.alloc(ev, tail, NIL);
        if tail == NIL {
            self.buckets[b].0 = n;
            self.occupied[b >> 6] |= 1 << (b & 63);
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.buckets[b].1 = n;
    }

    /// Links `ev` into non-empty bucket `b` ahead of every later key,
    /// walking back from the tail (whose key exceeds `ev`'s). Returns the
    /// number of nodes walked.
    fn insert_before_tail(&mut self, b: usize, ev: ScheduledEvent<E>) -> usize {
        let key = (ev.time, ev.seq);
        let mut after = self.buckets[b].1;
        let mut before = self.nodes[after as usize].prev;
        let mut walked = 1;
        while before != NIL && self.key(before) > key {
            after = before;
            before = self.nodes[before as usize].prev;
            walked += 1;
        }
        let n = self.alloc(ev, before, after);
        self.nodes[after as usize].prev = n;
        if before == NIL {
            self.buckets[b].0 = n;
        } else {
            self.nodes[before as usize].next = n;
        }
        walked
    }

    /// Unlinks and frees the front of non-empty bucket `b`.
    fn pop_front(&mut self, b: usize) -> ScheduledEvent<E> {
        let n = self.buckets[b].0;
        let node = &mut self.nodes[n as usize];
        let ev = node.ev.take().expect("linked node");
        let next = node.next;
        node.next = self.free;
        self.free = n;
        self.buckets[b].0 = next;
        if next == NIL {
            self.buckets[b].1 = NIL;
            self.occupied[b >> 6] &= !(1 << (b & 63));
        } else {
            self.nodes[next as usize].prev = NIL;
        }
        ev
    }

    /// Circular distance from bucket `start` to the next occupied bucket
    /// (0 if `start` itself is occupied); `None` if the bitmap is empty.
    fn next_occupied_offset(&self, start: usize) -> Option<u64> {
        let nb = self.buckets.len();
        let nw = self.occupied.len(); // power of two (nb is, and nb >= 64)
        let mut wi = start >> 6;
        let mut w = self.occupied[wi] & (!0u64 << (start & 63));
        for _ in 0..=nw {
            if w != 0 {
                let b = (wi << 6) + w.trailing_zeros() as usize;
                return Some(((b + nb - start) & (nb - 1)) as u64);
            }
            wi = (wi + 1) & (nw - 1);
            w = self.occupied[wi];
        }
        None
    }

    pub(crate) fn schedule(&mut self, ev: ScheduledEvent<E>) {
        let key = (ev.time, ev.seq);
        let day = self.day_of(ev.time);
        if self.len == 0 {
            // Empty queue: re-anchor the window at this event.
            self.epoch_day = day;
        } else if day >= self.epoch_day + self.buckets.len() as u64 {
            // Past the window: park it in the overflow tier. Every
            // overflow key exceeds every bucketed key, so the cached head
            // is untouched, and the window stays dense — far-future
            // events never pollute the near buckets with mid-run inserts.
            self.overflow.push(ev);
            self.len += 1;
            return;
        }
        let b = (day & self.mask) as usize;
        let tail = self.buckets[b].1;
        let mut long_run = false;
        if tail == NIL || self.key(tail) < key {
            // Fast path: the day's first event, or one extending its
            // bucket's ascending run.
            self.push_back(b, ev);
        } else {
            // Out of order for this bucket: walk back to its slot.
            long_run = self.insert_before_tail(b, ev) >= LONG_RUN;
        }
        self.len += 1;
        self.cal_len += 1;
        self.sched_since_rebuild += 1;
        match self.head {
            Some((ht, hs, _)) if (ht, hs) < key => {}
            // New earliest event (or empty queue): rewind to its day.
            _ => {
                self.cur_day = day;
                self.head = Some((key.0, key.1, b));
            }
        }
        if self.cal_len > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        } else if long_run
            && self.width_shift > MIN_WIDTH_SHIFT
            && self.sched_since_rebuild > self.len
        {
            // The workload got denser than the last width choice: inserts
            // into this run walk LONG_RUN nodes. Re-derive the width
            // (cooldown: at most one early re-width per queue's-worth of
            // schedules).
            self.rebuild();
        }
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, _, b) = self.head?;
        let ev = self.pop_front(b);
        self.len -= 1;
        self.cal_len -= 1;
        // Fast path: the drained bucket's next front is due the same day —
        // it is the new head, and the bucket is already in cache.
        let front = self.buckets[b].0;
        if front != NIL {
            let (t, s) = self.key(front);
            if self.day_of(t) == self.cur_day {
                self.head = Some((t, s, b));
                return Some(ev);
            }
        }
        if self.cal_len == 0 && !self.overflow.is_empty() {
            self.migrate(); // window drained: re-anchor at the overflow min
        } else {
            self.locate_head();
        }
        Some(ev)
    }

    /// Recomputes the cached head: scan the occupancy bitmap one lap
    /// forward from `cur_day`, falling back to a direct search over the
    /// occupied fronts when the lap comes up empty.
    fn locate_head(&mut self) {
        if self.cal_len == 0 {
            // `pop` migrates the overflow before the window can run dry.
            debug_assert!(self.overflow.is_empty());
            self.head = None;
            return;
        }
        let nb = self.buckets.len() as u64;
        let mut off = 0u64;
        while off < nb {
            let from = ((self.cur_day + off) & self.mask) as usize;
            let Some(extra) = self.next_occupied_offset(from) else {
                break;
            };
            off += extra;
            if off >= nb {
                break;
            }
            let day = self.cur_day + off;
            let b = (day & self.mask) as usize;
            let (t, s) = self.key(self.buckets[b].0);
            if self.day_of(t) == day {
                self.cur_day = day;
                self.head = Some((t, s, b));
                return;
            }
            // Front belongs to a later lap: skip this bucket for now.
            off += 1;
        }
        // Sparse tail: nothing due within a lap. Take the minimum over the
        // occupied bucket fronts (each front is its bucket's minimum).
        let mut best: Option<(Picos, u64, usize)> = None;
        for (wi, &word) in self.occupied.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let key = self.key(self.buckets[b].0);
                if best.is_none_or(|(t, s, _)| key < (t, s)) {
                    best = Some((key.0, key.1, b));
                }
            }
        }
        let (t, s, b) = best.expect("len > 0 implies some bucket is non-empty");
        self.cur_day = self.day_of(t);
        self.head = Some((t, s, b));
    }

    /// Advances the drained window to the overflow minimum: sort the
    /// overflow (mostly sorted already — the suffix left by the previous
    /// migration is, only since-pushed events aren't) and move the
    /// in-window prefix into the (all empty) buckets as O(1) appends.
    /// No reallocation, no re-derived width: orders of magnitude cheaper
    /// than a full [`rebuild`](Self::rebuild), which matters because a
    /// fine-grained width migrates often. A nearly-empty prefix means the
    /// width is too fine for what's left, so fall through to `rebuild`.
    fn migrate(&mut self) {
        debug_assert!(self.cal_len == 0 && !self.overflow.is_empty());
        self.overflow.sort_unstable_by_key(|e| (e.time, e.seq));
        let first_day = self.day_of(self.overflow[0].time);
        let limit = first_day + self.buckets.len() as u64;
        let split = self
            .overflow
            .partition_point(|e| self.day_of(e.time) < limit);
        if split * 16 < self.overflow.len() {
            self.rebuild(); // re-derive the width for the sparser tail
            return;
        }
        self.epoch_day = first_day;
        self.cur_day = first_day;
        self.cal_len = split;
        let first = &self.overflow[0];
        self.head = Some((first.time, first.seq, (first_day & self.mask) as usize));
        self.reset_slab();
        let mut overflow = std::mem::take(&mut self.overflow);
        for ev in overflow.drain(..split) {
            let b = (self.day_of(ev.time) & self.mask) as usize;
            self.push_back(b, ev);
        }
        self.overflow = overflow;
    }

    /// Resizes the calendar to the current population: ~2 buckets per
    /// event, with the day width re-derived from the inter-event gaps of
    /// the events nearest the head (robust against far-future stragglers
    /// stretching the span — see the module docs).
    fn rebuild(&mut self) {
        self.sched_since_rebuild = 0;
        let mut events: Vec<ScheduledEvent<E>> = Vec::with_capacity(self.len);
        // Drain via the bitmap: empty buckets (the vast majority in a
        // sparse calendar) aren't even touched.
        for (wi, word) in self.occupied.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                let b = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let mut n = std::mem::replace(&mut self.buckets[b], (NIL, NIL)).0;
                while n != NIL {
                    let node = &mut self.nodes[n as usize];
                    events.extend(node.ev.take());
                    n = node.next;
                }
            }
        }
        self.reset_slab();
        events.append(&mut self.overflow);
        debug_assert_eq!(events.len(), self.len);
        events.sort_unstable_by_key(|e| (e.time, e.seq));

        // Coarsest day width whose longest same-day run stays within
        // RUN_LIMIT (max_run is monotone in the shift, so binary search).
        // Wider days mean a larger window (fewer overflow migrations);
        // the run bound keeps every mid-run walk short. Events at the
        // *identical* picosecond can't be split by any width; if even
        // 1 ps days exceed the bound, take them anyway (same-time events
        // arrive in seq order, so they append rather than walk).
        if events.len() > 1 {
            if max_run(&events, MIN_WIDTH_SHIFT) > RUN_LIMIT {
                self.width_shift = MIN_WIDTH_SHIFT;
            } else {
                let (mut lo, mut hi) = (MIN_WIDTH_SHIFT, MAX_WIDTH_SHIFT);
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if max_run(&events, mid) <= RUN_LIMIT {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                self.width_shift = lo;
            }
        }

        // Bucket count: enough for ~2 buckets per event AND for the
        // window to reach the 90th-percentile event's day, so only the
        // far tail overflows. Dense workloads with a wide reach get big
        // sparse arrays — that's fine, the occupancy bitmap makes empty
        // buckets nearly free, while a too-narrow window would drain and
        // migrate constantly.
        let nbuckets = {
            let pop = (2 * self.len).next_power_of_two();
            let cover = if events.is_empty() {
                0
            } else {
                let last = &events[events.len() - 1];
                let days = (last.time.as_ps() >> self.width_shift)
                    .saturating_sub(events[0].time.as_ps() >> self.width_shift)
                    + 1;
                days.min(MAX_BUCKETS as u64).next_power_of_two() as usize
            };
            pop.max(cover).clamp(MIN_BUCKETS, MAX_BUCKETS)
        };

        if self.buckets.len() != nbuckets {
            self.buckets = vec![(NIL, NIL); nbuckets];
            self.mask = (nbuckets - 1) as u64;
            self.occupied = vec![0; nbuckets / 64];
        }
        // Re-anchor the window at the earliest event and redistribute in
        // ascending key order: every in-window push is the O(1) append
        // fast path, and the (sorted) past-window tail returns to the
        // overflow tier.
        self.epoch_day = events.first().map(|e| self.day_of(e.time)).unwrap_or(0);
        self.cur_day = self.epoch_day;
        self.head = events
            .first()
            .map(|e| (e.time, e.seq, ((self.day_of(e.time)) & self.mask) as usize));
        let limit = self.epoch_day + nbuckets as u64;
        self.cal_len = 0;
        for ev in events {
            let day = self.day_of(ev.time);
            if day < limit {
                self.push_back((day & self.mask) as usize, ev);
                self.cal_len += 1;
            } else {
                self.overflow.push(ev);
            }
        }
        debug_assert!(self.cal_len > 0 || self.len == 0);
    }
}

#[cfg(test)]
mod tests;
