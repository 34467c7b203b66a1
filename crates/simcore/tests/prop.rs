//! Property tests for the simulation core: the event queue must behave as
//! a stable priority queue, and the summary types must agree with naive
//! reference implementations. (The series properties run always-on,
//! seeded, in `src/series.rs`.)

// Gated: the offline build has no proptest dependency; re-add it and
// run with `--features slow-proptests` to exercise these.
#![cfg(feature = "slow-proptests")]

use proptest::prelude::*;
use simcore::{EventQueue, Histogram, Picos, Running, SchedulerKind};

/// An op for the scheduler differential property: schedule at a (possibly
/// colliding) time, or pop.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Time quantization to 64 ps makes same-instant collisions common, so
    // shrunk counterexamples exercise the FIFO tie-break.
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..10_000_000u64).prop_map(|t| Op::Schedule(t / 64 * 64)),
            2 => Just(Op::Pop),
        ],
        0..2_000,
    )
}

proptest! {
    /// The scheduler stability contract: pop order — times, tie-breaking
    /// seqs, and payloads — is identical on the calendar-queue and legacy
    /// heap backends for any interleaved schedule. (The always-on
    /// PRNG-driven variant lives in `tests/scheduler_equivalence.rs`.)
    #[test]
    fn calendar_matches_heap(ops in ops()) {
        let mut cal: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Calendar);
        let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap);
        let mut payload = 0u64;
        for op in &ops {
            match op {
                Op::Schedule(t) => {
                    cal.schedule(Picos::new(*t), payload);
                    heap.schedule(Picos::new(*t), payload);
                    payload += 1;
                }
                Op::Pop => {
                    let a = cal.pop().map(|e| (e.time, e.seq, e.event));
                    let b = heap.pop().map(|e| (e.time, e.seq, e.event));
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let a = cal.pop().map(|e| (e.time, e.seq, e.event));
            let b = heap.pop().map(|e| (e.time, e.seq, e.event));
            let done = a.is_none();
            prop_assert_eq!(a, b);
            if done { break; }
        }
        prop_assert_eq!(cal.peak_len(), heap.peak_len());
    }

    /// Popping everything yields time order; ties keep insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in prop::collection::vec(0u64..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Picos::from_ns(t), i);
        }
        // Reference: stable sort by time.
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t);
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push((ev.time.as_ns(), ev.event));
        }
        prop_assert_eq!(got, expected);
    }

    /// Interleaved schedule/pop never yields an event earlier than one
    /// already delivered.
    #[test]
    fn event_queue_monotone_under_interleaving(
        ops in prop::collection::vec((0u64..1000, prop::bool::ANY), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut last = 0u64;
        let mut floor = 0u64; // delivered events set the floor for inserts we make afterwards
        for (t, do_pop) in ops {
            if do_pop {
                if let Some(ev) = q.pop() {
                    prop_assert!(ev.time.as_ns() >= last);
                    last = ev.time.as_ns();
                    floor = last;
                }
            } else {
                // Schedule in the "future" only, like the engine does.
                q.schedule(Picos::from_ns(floor + t), ());
            }
        }
    }

    /// Running matches exact mean/min/max and merge is consistent.
    #[test]
    fn running_matches_reference(xs in prop::collection::vec(-1e6f64..1e6, 1..200), split in 0usize..200) {
        let mut all = Running::new();
        for &x in &xs { all.push(x); }
        let k = split.min(xs.len());
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((all.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((a.mean() - all.mean()).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(a.count(), xs.len() as u64);
        prop_assert_eq!(all.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(all.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Histogram count/mean/quantile-bounds sanity on arbitrary durations.
    #[test]
    fn histogram_quantiles_bracket_data(ds in prop::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = Histogram::new(Picos::from_ns(1));
        for &d in &ds {
            h.record(Picos::new(d));
        }
        prop_assert_eq!(h.count(), ds.len() as u64);
        let min = *ds.iter().min().unwrap();
        let max = *ds.iter().max().unwrap();
        let q0 = h.quantile(0.0).unwrap().as_ps();
        let q100 = h.quantile(1.0).unwrap().as_ps();
        // Bucket midpoints are within a factor of 2 of the true extremes —
        // except inside bucket 0, which spans [0, base): its midpoint
        // (base/2 = 500 ps here) can exceed tiny minima arbitrarily.
        prop_assert!(q0 <= min.saturating_mul(2).max(500));
        prop_assert!(q100.saturating_mul(2) >= max);
        let mean = h.mean().as_ps();
        prop_assert!(mean >= min && mean <= max);
    }
}
