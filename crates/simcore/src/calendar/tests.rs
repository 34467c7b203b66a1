//! Structural tests: what the calendar does internally on the schedule
//! shapes the fabric model produces (the pop *order* is pinned against the
//! heap oracle in `tests/scheduler_equivalence.rs`).

use super::*;
use crate::SplitMix64;

/// Pops everything, returning the `(time, seq)` keys in delivery order.
fn drain(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq))).collect()
}

/// The blocks of bucket `b`'s run, front to back: `(time, events)` per
/// distinct timestamp — after checking that the run ascends by
/// `(time, seq)` and that every block's last node points back at the last
/// node of the block before it.
fn blocks(q: &CalendarQueue<u64>, b: usize) -> Vec<(u64, usize)> {
    let mut out: Vec<(u64, usize)> = Vec::new();
    let (mut n, mut prev, mut prev_block_last) = (q.buckets[b].0, NIL, NIL);
    let mut last_key = None;
    while n != NIL {
        let node = &q.nodes[n as usize];
        let ev = node.ev.as_ref().expect("linked node");
        assert!(last_key < Some((ev.time, ev.seq)), "run out of order");
        last_key = Some((ev.time, ev.seq));
        match out.last_mut() {
            Some((time, events)) if *time == ev.time.as_ps() => *events += 1,
            _ => {
                prev_block_last = prev;
                out.push((ev.time.as_ps(), 1));
            }
        }
        let ends_block = node.next == NIL || q.time(node.next) != ev.time;
        if ends_block && out.len() > 1 {
            assert_eq!(node.back, prev_block_last, "back link of block {out:?}");
        }
        (prev, n) = (n, node.next);
    }
    assert_eq!(prev, q.buckets[b].1, "tail of bucket {b}");
    out
}

/// The claim DESIGN §6d makes for the geometry: on a hotspot-shaped
/// schedule — a hold model of 200 same-picosecond bursts of 32 events
/// (every port of a switch acting on one clock edge), each re-scheduled
/// whole a link or crossbar time ahead, one in 64 as a far-future timer —
/// the queue counts a burst as one timestamp, so it settles on days many
/// picoseconds wide and a window that holds the timers too (nothing
/// overflows, nothing migrates); a burst landing mid-run walks to its slot
/// once, not once per event; ≥ 95 % of pops come from the cached same-day
/// fast path; and the slab tops out at the depth.
#[test]
fn hotspot_shaped_schedule_appends_and_pops_fast() {
    const DEPTH: usize = 200 * 32;
    let mut rng = SplitMix64::new(2005);
    let mut q = CalendarQueue::new();
    let (mut pops, mut fast, mut bursts) = (0u64, 0u64, 0u64);
    for burst in 0..200 {
        for _ in 0..32 {
            q.schedule(Picos::new(burst * 5_333), 0);
        }
    }
    let mut last = None;
    while pops < 1_000_000 {
        let now = q.peek_time().expect("a hold model never drains");
        let mut burst = 0;
        while q.peek_time() == Some(now) {
            let day = q.cur_day;
            let ev = q.pop().expect("peeked");
            assert!(last < Some((ev.time, ev.seq)));
            last = Some((ev.time, ev.seq));
            fast += u64::from(q.head.is_some() && q.cur_day == day);
            burst += 1;
        }
        pops += burst;
        bursts += 1;
        let hop = match rng.next_u64() % 64 {
            0 => 100_000_000,
            r => [42_667, 84_000, 512_000][(r % 3) as usize],
        };
        let at = Picos::new(now.as_ps() + hop + rng.next_u64() % 997);
        for _ in 0..burst {
            q.schedule(at, 0);
        }
    }
    let work = q.work();
    assert!(q.width_shift >= 10, "days of 2^{} ps", q.width_shift);
    assert_eq!((work.migrations, q.overflow.len()), (0, 0), "{work:?}");
    assert!(
        work.steps_walked <= bursts * RUN_LIMIT as u64,
        "{bursts} bursts walked {} steps",
        work.steps_walked
    );
    assert!(fast * 100 >= pops * 95, "{fast} fast of {pops} pops");
    assert!(q.nodes.len() <= DEPTH, "{} nodes", q.nodes.len());
}

/// Lock-step traffic gets coarse days: 5,000 events due at one picosecond
/// (every host's first message) are one timestamp to the geometry, however
/// many rebuilds their arrival forces, and the spread traffic that follows
/// decides the width — where counting events per day could only answer
/// "1 ps" and keep it. Draining the block and refilling behind it leaves
/// the slab at its peak.
#[test]
fn a_same_time_burst_does_not_pin_the_width_at_one_picosecond() {
    let mut rng = SplitMix64::new(7919);
    let mut q = CalendarQueue::new();
    for _ in 0..5_000 {
        q.schedule(Picos::ZERO, 0);
    }
    assert_eq!(blocks(&q, 0), [(0, 5_000)]);
    let rebuilds = q.work().rebuilds;
    assert!(rebuilds > 0, "5,000 events outgrow 64 buckets");
    for _ in 0..20_000 {
        let now = q.pop().expect("a hold model never drains").time;
        q.schedule(
            Picos::new(now.as_ps() + 40_000 + rng.next_u64() % 90_000),
            0,
        );
    }
    assert!(
        q.work().rebuilds > rebuilds,
        "spread traffic re-derived the width"
    );
    assert!(q.width_shift > MIN_WIDTH_SHIFT, "1 ps days");
    assert_eq!(q.work().migrations, 0);
    assert_eq!(q.nodes.len(), 5_000, "slab at peak depth");
}

/// Out-of-order keys inside one bucket land in sorted position wherever
/// they fall — front, middle, back, into a pending block — and freed slots
/// are reused LIFO.
#[test]
fn mid_run_inserts_keep_runs_sorted_and_reuse_slots() {
    let mut q = CalendarQueue::new();
    // Day width 2^13 ps: all of these share day 0.
    for time in [500, 100, 300, 900, 300, 0, 900, 300] {
        q.schedule(Picos::new(time), 0);
    }
    assert_eq!(q.nodes.len(), 8);
    assert_eq!(
        blocks(&q, 0),
        [(0, 1), (100, 1), (300, 3), (500, 1), (900, 2)]
    );
    // Walks, in timestamps: 100 over 500; 300 over 500; the second 300
    // over 900 and 500; 0 over all four pending then; the second 900
    // appends; the third 300 over 900 (two events, one step) and 500.
    assert_eq!(q.work().steps_walked, 1 + 1 + 2 + 4 + 2);
    assert_eq!(
        drain(&mut q),
        [
            (0, 5),
            (100, 1),
            (300, 2),
            (300, 4),
            (300, 7),
            (500, 0),
            (900, 3),
            (900, 6)
        ]
    );
    // Last freed is first reused, and nothing new is allocated.
    let last_freed = q.free;
    q.schedule(Picos::new(1_000), 0);
    assert_eq!(q.buckets[0], (last_freed, last_freed));
    assert_eq!(q.nodes.len(), 8);
}
