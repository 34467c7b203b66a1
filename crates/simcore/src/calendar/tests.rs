//! Structural tests: what the calendar does internally on the schedule
//! shapes the fabric model produces (the pop *order* is pinned against the
//! heap oracle in `tests/scheduler_equivalence.rs`).

use super::*;
use crate::SplitMix64;

fn event(time: u64, seq: u64) -> ScheduledEvent<u64> {
    let time = Picos::new(time);
    ScheduledEvent {
        time,
        seq,
        event: seq,
    }
}

/// Whether scheduling at `time` now would land mid-run (behind a later
/// key already in its bucket) rather than append.
fn lands_mid_run(q: &CalendarQueue<u64>, time: u64) -> bool {
    let day = q.day_of(Picos::new(time));
    if q.len == 0 || day >= q.epoch_day + q.buckets.len() as u64 {
        return false;
    }
    let tail = q.buckets[(day & q.mask) as usize].1;
    tail != NIL && q.key(tail).0.as_ps() > time
}

/// The claim DESIGN §6d makes for the geometry: on a hotspot-shaped
/// schedule — a hold model of 200 same-picosecond bursts of 32 events
/// (every port of a switch acting on one clock edge), each re-scheduled
/// whole a link or crossbar time ahead, one in 64 as a far-future timer —
/// the queue settles on 1 ps days, never inserts mid-run, and serves
/// ≥ 95 % of pops from the cached same-day fast path; and its slab follows
/// the depth while the window sweeps the bucket array many times over.
#[test]
fn hotspot_shaped_schedule_appends_and_pops_fast() {
    const DEPTH: usize = 200 * 32;
    let mut rng = SplitMix64::new(2005);
    let mut q = CalendarQueue::new();
    let mut seq = 0;
    let (mut pops, mut fast, mut mid_run) = (0u64, 0u64, 0u64);
    for burst in 0..200 {
        for _ in 0..32 {
            q.schedule(event(burst * 5_333, seq));
            seq += 1;
        }
    }
    let mut last = None;
    while pops < 1_000_000 {
        let now = q.peek().expect("a hold model never drains").0;
        let mut burst = 0;
        while q.peek().is_some_and(|(t, _)| t == now) {
            let day = q.cur_day;
            let ev = q.pop().expect("peeked");
            assert!(last < Some((ev.time, ev.seq)));
            last = Some((ev.time, ev.seq));
            fast += u64::from(q.head.is_some() && q.cur_day == day);
            burst += 1;
        }
        pops += burst;
        let hop = match rng.next_u64() % 64 {
            0 => 100_000_000,
            r => [42_667, 84_000, 512_000][(r % 3) as usize],
        };
        let at = now.as_ps() + hop + rng.next_u64() % 997;
        for _ in 0..burst {
            mid_run += u64::from(lands_mid_run(&q, at));
            q.schedule(event(at, seq));
            seq += 1;
        }
    }
    assert_eq!(
        q.width_shift, MIN_WIDTH_SHIFT,
        "same-ps bursts need 1 ps days"
    );
    assert_eq!(mid_run, 0, "steady state never inserts mid-run");
    assert!(fast * 100 >= pops * 95, "{fast} fast of {pops} pops");
    let days = last.expect("popped").0.as_ps() >> q.width_shift;
    assert!(days > 8 * q.buckets.len() as u64, "swept {days} days");
    assert!(q.nodes.len() <= DEPTH, "{} nodes", q.nodes.len());
}

/// Out-of-order keys inside one bucket land in sorted position wherever
/// they fall — front, middle, back — and freed slots are reused LIFO.
#[test]
fn mid_run_inserts_keep_runs_sorted_and_reuse_slots() {
    let mut q = CalendarQueue::new();
    // Day width 2^13 ps: all of these share day 0.
    for (seq, time) in [(0, 500), (1, 100), (2, 300), (3, 900), (4, 300), (5, 0)] {
        q.schedule(event(time, seq));
    }
    assert_eq!(q.nodes.len(), 6);
    let keys: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq))).collect();
    assert_eq!(
        keys,
        [(0, 5), (100, 1), (300, 2), (300, 4), (500, 0), (900, 3)]
    );
    // Last freed is first reused, and nothing new is allocated.
    let last_freed = q.free;
    q.schedule(event(1_000, 6));
    assert_eq!(q.buckets[0], (last_freed, last_freed));
    assert_eq!(q.nodes.len(), 6);
}
