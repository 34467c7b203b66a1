//! Differential tests: the calendar queue and the legacy heap must pop
//! identical `(time, seq, event)` sequences for identical schedules —
//! including FIFO stability at equal times and interleaved pops.
//!
//! Driven by the crate's own seeded PRNG.

use simcore::{EventQueue, Picos, SchedulerKind, SplitMix64};

/// One randomized op-sequence driven through both backends.
///
/// `time_range_ps` shapes the schedule: small ranges force dense buckets
/// and heavy same-time tie-breaking; huge ranges force calendar rebuilds
/// and the sparse direct-search fallback.
fn drive(seed: u64, ops: usize, time_range_ps: u64, pop_bias_percent: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut cal: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Calendar);
    let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap);
    let mut payload = 0u64;
    for _ in 0..ops {
        if rng.next_u64() % 100 < pop_bias_percent {
            let a = cal.pop().map(|e| (e.time, e.seq, e.event));
            let b = heap.pop().map(|e| (e.time, e.seq, e.event));
            assert_eq!(a, b, "pop diverged (seed {seed})");
            assert_eq!(
                cal.peek_time(),
                heap.peek_time(),
                "peek diverged (seed {seed})"
            );
        } else {
            // Quantize times so equal instants are common.
            let t = Picos::new((rng.next_u64() % time_range_ps) / 64 * 64);
            cal.schedule(t, payload);
            heap.schedule(t, payload);
            payload += 1;
        }
        assert_eq!(cal.len(), heap.len(), "len diverged (seed {seed})");
    }
    // Drain both completely: a stable priority queue yields time order,
    // ties in insertion (seq) order.
    let mut last = None;
    loop {
        let a = cal.pop().map(|e| (e.time, e.seq, e.event));
        let b = heap.pop().map(|e| (e.time, e.seq, e.event));
        assert_eq!(a, b, "drain diverged (seed {seed})");
        if a.is_none() {
            break;
        }
        assert!(last < a, "drain out of order (seed {seed})");
        last = a;
    }
    assert_eq!(cal.scheduled_total(), heap.scheduled_total());
    assert_eq!(
        cal.peak_len(),
        heap.peak_len(),
        "peak depth diverged (seed {seed})"
    );
}

#[test]
fn dense_schedules_match() {
    // Tight time range: many ties per bucket, little bucket spread. (The
    // out-of-range seeds here and below are the pinned replay corpus of
    // the retired property suite, one per schedule shape.)
    for seed in (0..8).chain([0xa927_3d54_f80c_1be6]) {
        drive(seed, 4_000, 50_000, 40);
    }
}

#[test]
fn sparse_schedules_match() {
    // Times across four decades: rebuilds + direct-search fallback.
    for seed in (100..108).chain([0x1c88_f06e_b3a5_92d0]) {
        drive(seed, 4_000, 10_000_000_000, 40);
    }
}

#[test]
fn pop_heavy_schedules_match() {
    // Mostly pops: the queue repeatedly empties and re-anchors.
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
        let mut cal: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Calendar);
        let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap);
        let mut now = Picos::ZERO;
        let deltas = [
            Picos::ZERO,
            Picos::new(42_667),
            Picos::from_ns(84),
            Picos::from_ns(512),
        ];
        for i in 0..20_000u64 {
            if rng.next_u64().is_multiple_of(3) && !cal.is_empty() {
                let a = cal.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!((a.time, a.seq, a.event), (b.time, b.seq, b.event));
                assert!(a.time >= now, "popped an event from the past");
                now = a.time;
            } else {
                let d = deltas[(rng.next_u64() % 4) as usize];
                cal.schedule(now + d, i);
                heap.schedule(now + d, i);
            }
        }
        while let Some(a) = cal.pop() {
            let b = heap.pop().unwrap();
            assert_eq!((a.time, a.seq, a.event), (b.time, b.seq, b.event));
        }
        assert!(heap.pop().is_none());
    }
}
