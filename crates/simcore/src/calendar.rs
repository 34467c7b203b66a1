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
//! `seq` is assigned here, one per `schedule`, so a newly scheduled event's
//! `seq` exceeds that of every pending one: among events due at the same
//! time the new one is always last. Everything below that treats the events
//! of one timestamp as a FIFO rests on this.
//!
//! ## Mechanics
//!
//! * A *day* is `1 << width_shift` picoseconds; day `d` lives in bucket
//!   `d % nbuckets`. Every bucketed event sits in one node slab, and a
//!   bucket is a `(head, tail)` pair of slab indices: a singly linked run
//!   kept ascending by `(time, seq)`. The events due at one timestamp are
//!   adjacent in it — a *block*, in `seq` order — and the last node of each
//!   block also points back at the last node of the block before
//!   ([`Node::back`]). The common append (a time at or after its day's
//!   latest, however many events share it) and the common removal (pop the
//!   front) are O(1) and touch what a plain list would; an out-of-order
//!   insert walks back from the tail one *timestamp* per step, stepping
//!   over a block of any size in O(1), and leaves a hint behind: the next
//!   schedule, if due at the same time (the rest of a lock-step block),
//!   goes right behind it without walking. So the cost of a run is its
//!   number of distinct timestamps, and that — not its number of events — is what
//!   the geometry below bounds: traffic that moves in lock step (every host
//!   starting at t = 0, every port of a switch acting on one clock edge)
//!   gets days as coarse as its timestamps allow.
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
//! * Buckets only hold events inside the current *window*: the
//!   `nbuckets` days from where it was last anchored, or from the day being
//!   drained while nothing is parked behind it. Events due past it go to
//!   an unsorted *overflow* tier (à la the ladder queue), so that
//!   far-future events — timers, the tail of a sparse schedule — do not
//!   wrap around the circular array into the buckets of the dense cluster
//!   near `now` and turn its appends into walks. A rebuild sizes the window
//!   to reach the last pending event — as far as [`REACH`] times the
//!   buckets the population itself asks for will go — and an empty
//!   overflow tier lets it slide, so the tier is for what is scheduled more
//!   than a window ahead of `now`; it is *not* used for near-term events,
//!   whatever their number per timestamp, and a run whose reach fits the
//!   window never migrates. Every overflow key is strictly greater than every bucketed
//!   key, so the head always lives in the buckets; once something is
//!   parked the window stays put until it drains, and a migration (sort
//!   the overflow, append the next cohort) re-anchors it at the overflow
//!   minimum.
//! * A rebuild (bucket overload, an insert walking [`LONG_RUN`] timestamps,
//!   or a migration finding mostly tail) re-derives the geometry: the day
//!   width is the *coarsest* one whose busiest day holds at most
//!   [`RUN_LIMIT`] distinct timestamps (so a mid-run insert walks few
//!   steps), and the bucket count gives ~2 buckets per event *and* a
//!   window reaching the last pending event's day, so only what is
//!   scheduled later can overflow — up to [`REACH`] times the former: a
//!   cluster of timestamps a few picoseconds apart (the end of a hotspot
//!   burst) makes the days that fine, and a few thousand pending events
//!   with a timer 20 µs out would otherwise get the 2²⁰-bucket ceiling, 8 MiB
//!   of index. The index follows the depth; the timers wait in the
//!   overflow tier and the window migrates to them.
//! * [`QueueWork`] counts the work of the cold paths exactly (rebuilds,
//!   migrations, events sorted by them, steps walked by out-of-order
//!   inserts): a schedule replays them bit for bit on any host.

use std::mem::size_of;

use crate::queue::{QueueWork, ScheduledEvent};
use crate::Picos;

/// Lower bound on the day width: a single picosecond (the time base's
/// resolution).
const MIN_WIDTH_SHIFT: u32 = 0;
/// Upper bound on the day width (2²⁰ ps ≈ 1.05 µs): events further apart
/// than this are rare enough that coarse buckets suffice.
const MAX_WIDTH_SHIFT: u32 = 20;
/// Bucket-count bounds (powers of two).
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 20;
/// Day-width selection: the rebuild picks the coarsest width whose busiest
/// day holds at most this many distinct timestamps, so a mid-run insert
/// walks at most this many steps.
const RUN_LIMIT: usize = 16;
/// An out-of-order insert walking this many timestamps between rebuilds
/// (the workload got denser than the last width choice) forces an early
/// re-width.
const LONG_RUN: usize = 4 * RUN_LIMIT;
/// A rebuild's window reaches the last pending event only as far as this
/// many times the buckets the population asks for (~2 per event) go; what
/// lies beyond waits in the overflow tier.
const REACH: usize = 2;
/// "No node": an empty bucket's head and tail, the end of a run, the end
/// of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event linked into its bucket's run, or a
/// free slot linked (through `next`) into the free list.
#[derive(Debug)]
struct Node<E> {
    ev: Option<ScheduledEvent<E>>,
    next: u32,
    /// On the last node of a timestamp's block: the last node of the block
    /// before it in the run. Not maintained on other nodes, nor on the
    /// run's first block (it has no predecessor; what it holds is stale).
    back: u32,
}

/// Where the latest out-of-order insert went: the next schedule, if due
/// at the same time, belongs right behind it (its `seq` is the next one)
/// and need not walk there again. Lock-step traffic schedules its blocks
/// back to back, so this is what most mid-run inserts find.
#[derive(Debug, Clone, Copy)]
struct Hint {
    /// Key of the inserted event, which ends its timestamp's block.
    time: Picos,
    seq: u64,
    /// Its node, and the last node of the block after it. Both hold while
    /// the event is pending and nothing else has been scheduled since.
    node: u32,
    after: u32,
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
    /// End of the calendar window: events due on or after this day live in
    /// `overflow`, not in buckets. It is `nbuckets` days past where the
    /// window was last anchored; while the overflow tier is empty it
    /// slides along `nbuckets` days ahead of `cur_day`, and it never moves
    /// back, so it is past every bucketed event.
    window_end: u64,
    /// Far-future events (day ≥ `window_end` when scheduled), unsorted. Every
    /// overflow key is strictly greater than every bucketed key, so the
    /// head always lives in the buckets; when they drain, `migrate`
    /// re-anchors the window at the overflow minimum and pulls the next
    /// cohort in.
    overflow: Vec<ScheduledEvent<E>>,
    /// Cached head `(time, bucket)`, kept valid between mutations. The
    /// head is the front of its bucket, and the earliest-scheduled of the
    /// events due at that time.
    head: Option<(Picos, usize)>,
    /// Events resident in buckets (excludes `overflow`).
    cal_len: usize,
    len: usize,
    /// The `seq` of the next scheduled event.
    next_seq: u64,
    /// Schedules since the last rebuild (cooldown for early re-widths).
    sched_since_rebuild: usize,
    /// Set by an out-of-order insert, taken by the next schedule.
    hint: Option<Hint>,
    work: QueueWork,
}

/// Most distinct timestamps (in a `(time, seq)`-sorted slice) sharing a
/// day at the given width shift. Monotone nondecreasing in `shift`, and 1
/// at 1 ps days.
fn max_run<E>(events: &[ScheduledEvent<E>], shift: u32) -> usize {
    let mut best = 1;
    let mut cur = 1;
    for pair in events.windows(2) {
        let (a, b) = (pair[0].time.as_ps(), pair[1].time.as_ps());
        if a == b {
            continue;
        }
        cur = if a >> shift == b >> shift { cur + 1 } else { 1 };
        best = best.max(cur);
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
            window_end: MIN_BUCKETS as u64,
            overflow: Vec::new(),
            head: None,
            cal_len: 0,
            len: 0,
            next_seq: 0,
            sched_since_rebuild: 0,
            hint: None,
            work: QueueWork::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn peek_time(&self) -> Option<Picos> {
        self.head.map(|(t, _)| t)
    }

    /// Events ever scheduled: the next one's `seq`.
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Numbers one schedule. [`schedule`](Self::schedule) does it for the
    /// events stored here; the queue's delay lanes draw from the same
    /// counter, so `seq` orders every pending event wherever it waits.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The `seq` of the head event: what the queue compares when a lane's
    /// front is due at the same time. Panics on an empty calendar.
    pub(crate) fn head_seq(&self) -> u64 {
        let (_, b) = self.head.expect("a pending event");
        let front = &self.nodes[self.buckets[b].0 as usize];
        front.ev.as_ref().expect("linked node").seq
    }

    pub(crate) fn work(&self) -> QueueWork {
        self.work
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

    /// Due time of the event in linked node `n`.
    #[inline]
    fn time(&self, n: u32) -> Picos {
        self.nodes[n as usize]
            .ev
            .as_ref()
            .expect("linked node")
            .time
    }

    /// Stores `ev` in a slab slot (the most recently freed one, if any)
    /// with the given links.
    fn alloc(&mut self, ev: ScheduledEvent<E>, next: u32, back: u32) -> u32 {
        let ev = Some(ev);
        let node = Node { ev, next, back };
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
        self.hint = None;
    }

    /// Appends `ev` to bucket `b`'s run: it is due no earlier than the tail.
    fn push_back(&mut self, b: usize, ev: ScheduledEvent<E>) {
        let tail = self.buckets[b].1;
        if tail == NIL {
            let n = self.alloc(ev, NIL, NIL);
            self.buckets[b] = (n, n);
            self.occupied[b >> 6] |= 1 << (b & 63);
            return;
        }
        // Joining the tail's block hands its back link on; a new block
        // points back at the tail.
        let last = &self.nodes[tail as usize];
        let tail_time = last.ev.as_ref().expect("linked node").time;
        debug_assert!(tail_time <= ev.time);
        let back = if tail_time == ev.time {
            last.back
        } else {
            tail
        };
        let n = self.alloc(ev, NIL, back);
        self.nodes[tail as usize].next = n;
        self.buckets[b].1 = n;
    }

    /// Links `ev` into non-empty bucket `b`, whose tail is due later:
    /// walks back from the tail, one timestamp per step, to the last block
    /// due no later than `ev`, and puts `ev` behind it. Returns the number
    /// of steps walked.
    fn insert_before_tail(&mut self, b: usize, ev: ScheduledEvent<E>) -> usize {
        let (head, tail) = self.buckets[b];
        // The run's first block is known by its time: its back link is not
        // maintained (a pop cannot reach it to clear it).
        let head_time = self.time(head);
        // `last` ends a block due later than `ev`.
        let (mut last, mut last_time) = (tail, self.time(tail));
        let mut walked = 1;
        while last_time != head_time {
            let before = self.nodes[last as usize].back;
            let before_node = &self.nodes[before as usize];
            let before_time = before_node.ev.as_ref().expect("linked node").time;
            if before_time <= ev.time {
                // Behind `before`: as the new end of its block (same time,
                // later seq) or as a block of its own.
                let next = before_node.next;
                let back = if before_time == ev.time {
                    before_node.back
                } else {
                    before
                };
                self.link_behind(ev, before, next, back, last);
                return walked;
            }
            (last, last_time) = (before, before_time);
            walked += 1;
        }
        // Earlier than the whole run: `ev` goes in front of its first block.
        let n = self.link_behind(ev, NIL, head, NIL, last);
        self.buckets[b].0 = n;
        walked
    }

    /// Stores `ev` as the end of a block between node `before` (`NIL`: the
    /// run's front) and node `next`, the start of the block that `after`
    /// ends; leaves the hint for a same-time schedule to follow.
    fn link_behind(
        &mut self,
        ev: ScheduledEvent<E>,
        before: u32,
        next: u32,
        back: u32,
        after: u32,
    ) -> u32 {
        let (time, seq) = (ev.time, ev.seq);
        let node = self.alloc(ev, next, back);
        if before != NIL {
            self.nodes[before as usize].next = node;
        }
        self.nodes[after as usize].back = node;
        self.hint = Some(Hint {
            time,
            seq,
            node,
            after,
        });
        node
    }

    /// Whether an event due at `time` belongs right behind the one `hint`
    /// names: that one is due then too, and still pending.
    fn follows(&self, hint: &Hint, time: Picos) -> bool {
        hint.time == time && {
            let pending = self.nodes[hint.node as usize].ev.as_ref();
            pending.is_some_and(|e| e.seq == hint.seq)
        }
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

    /// Schedules `event` at `time` behind every pending event due then.
    pub(crate) fn schedule(&mut self, time: Picos, event: E) {
        let seq = self.take_seq();
        let ev = ScheduledEvent { time, seq, event };
        let hint = self.hint.take();
        let day = self.day_of(time);
        let nbuckets = self.buckets.len() as u64;
        if self.len == 0 {
            // Empty queue: re-anchor the window at this event.
            self.window_end = day + nbuckets;
        } else {
            if self.overflow.is_empty() {
                // Nothing is parked behind the window: it can follow the
                // day being drained.
                self.window_end = self.window_end.max(self.cur_day + nbuckets);
            }
            if day >= self.window_end {
                // Past the window: park it in the overflow tier. Every
                // overflow key exceeds every bucketed key, so the cached
                // head is untouched, and the window stays dense —
                // far-future events never pollute the near buckets with
                // mid-run inserts.
                self.overflow.push(ev);
                self.len += 1;
                return;
            }
        }
        let b = (day & self.mask) as usize;
        let tail = self.buckets[b].1;
        let mut long_run = false;
        if tail == NIL || self.time(tail) <= time {
            // Fast path: the day's first event, or one due no earlier
            // than the latest in its bucket's run.
            self.push_back(b, ev);
        } else if let Some(hint) = hint.filter(|hint| self.follows(hint, time)) {
            // Out of order for this bucket, but right behind the previous
            // schedule, which walked to its slot: no need to walk again.
            let node = &self.nodes[hint.node as usize];
            self.link_behind(ev, hint.node, node.next, node.back, hint.after);
        } else {
            // Out of order for this bucket: walk back to its slot.
            let walked = self.insert_before_tail(b, ev);
            self.work.steps_walked += walked as u64;
            long_run = walked >= LONG_RUN;
        }
        self.len += 1;
        self.cal_len += 1;
        self.sched_since_rebuild += 1;
        match self.head {
            Some((head_time, _)) if head_time <= time => {}
            // New earliest event (or empty queue): rewind to its day.
            _ => {
                self.cur_day = day;
                self.head = Some((time, b));
            }
        }
        if self.cal_len > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        } else if long_run
            && self.width_shift > MIN_WIDTH_SHIFT
            && self.sched_since_rebuild > self.len
        {
            // The workload got denser than the last width choice: inserts
            // into this run walk LONG_RUN timestamps. Re-derive the width
            // (cooldown: at most one early re-width per queue's-worth of
            // schedules).
            self.rebuild();
        }
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, b) = self.head?;
        let ev = self.pop_front(b);
        self.len -= 1;
        self.cal_len -= 1;
        // Fast path: the drained bucket's next front is due the same day —
        // it is the new head, and the bucket is already in cache.
        let front = self.buckets[b].0;
        if front != NIL {
            let t = self.time(front);
            if self.day_of(t) == self.cur_day {
                self.head = Some((t, b));
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
            let t = self.time(self.buckets[b].0);
            if self.day_of(t) == day {
                self.cur_day = day;
                self.head = Some((t, b));
                return;
            }
            // Front belongs to a later lap: skip this bucket for now.
            off += 1;
        }
        // Sparse tail: nothing due within a lap. Take the minimum over the
        // occupied bucket fronts (each front is its bucket's minimum, and
        // no two buckets hold the same time).
        let mut best: Option<(Picos, usize)> = None;
        for (wi, &word) in self.occupied.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let t = self.time(self.buckets[b].0);
                if best.is_none_or(|(best_time, _)| t < best_time) {
                    best = Some((t, b));
                }
            }
        }
        let (t, b) = best.expect("len > 0 implies some bucket is non-empty");
        self.cur_day = self.day_of(t);
        self.head = Some((t, b));
    }

    /// Advances the drained window to the overflow minimum: sort the
    /// overflow (mostly sorted already — the suffix left by the previous
    /// migration is, only since-pushed events aren't) and move the
    /// in-window prefix into the (all empty) buckets as O(1) appends.
    /// No reallocation, no re-derived width: orders of magnitude cheaper
    /// than a full [`rebuild`](Self::rebuild). A nearly-empty prefix means
    /// the width is too fine for what's left, so fall through to `rebuild`.
    fn migrate(&mut self) {
        debug_assert!(self.cal_len == 0 && !self.overflow.is_empty());
        self.work.migrations += 1;
        self.work.events_sorted += self.overflow.len() as u64;
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
        self.window_end = limit;
        self.cur_day = first_day;
        self.cal_len = split;
        self.head = Some((self.overflow[0].time, (first_day & self.mask) as usize));
        self.reset_slab();
        let mut overflow = std::mem::take(&mut self.overflow);
        for ev in overflow.drain(..split) {
            let b = (self.day_of(ev.time) & self.mask) as usize;
            self.push_back(b, ev);
        }
        self.overflow = overflow;
    }

    /// Resizes the calendar to the current population: ~2 buckets per
    /// event and a window that reaches the last of them, with the day
    /// width re-derived from how the pending timestamps cluster (see the
    /// module docs).
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
        self.work.rebuilds += 1;
        self.work.events_sorted += events.len() as u64;
        events.sort_unstable_by_key(|e| (e.time, e.seq));

        // Coarsest day width whose busiest day stays within RUN_LIMIT
        // distinct timestamps (max_run is monotone in the shift and 1 at
        // 1 ps days, so binary search). Wider days mean a larger window
        // (fewer overflow migrations); the bound keeps every mid-run walk
        // short. Events due at the *identical* picosecond don't count:
        // they arrive in seq order, append, and are stepped over as one.
        if events.len() > 1 {
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

        // Bucket count: enough for ~2 buckets per event AND for the
        // window to reach the last pending event's day, so only later
        // schedules overflow. A wide reach gets a sparse array — the
        // occupancy bitmap makes empty buckets nearly free, while a
        // too-narrow window would drain and migrate constantly — but no
        // more than REACH times what the population asks for: days made
        // picoseconds wide by one dense cluster must not buy an index
        // the size of the ceiling for a few thousand events.
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
            pop.max(cover.min(REACH * pop))
                .clamp(MIN_BUCKETS, MAX_BUCKETS)
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
        self.cur_day = events.first().map(|e| self.day_of(e.time)).unwrap_or(0);
        self.head = events
            .first()
            .map(|e| (e.time, (self.cur_day & self.mask) as usize));
        self.window_end = self.cur_day + nbuckets as u64;
        self.cal_len = 0;
        for ev in events {
            let day = self.day_of(ev.time);
            if day < self.window_end {
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
