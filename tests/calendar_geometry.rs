//! The event queue's geometry on the three shapes of schedule the fabric
//! produces, pinned as exact work counts ([`simcore::QueueWork`]): how often
//! the calendar re-derived its day width, how often its window drained into
//! the overflow tier, how many events those sorted, and how many timestamps
//! out-of-order schedules stepped over.
//!
//! The counts belong to the schedule, not the host: they replay bit for bit
//! anywhere, so they are asserted *at equality*. A change that moves one has
//! changed how the queue lays a run out — look at `calendar.rs`,
//! "Mechanics", before re-pinning. The runs are the benchmark's
//! `ft4096_recn`, `hotspot256_recn` and `uniform64_1q` workloads at seed
//! 2005 (`benchmark/src/workloads.rs`); all three start with one
//! `NextMessage` per host at t = 0, the lock-step block that used to pin
//! the calendar at 1 ps days (23, 23 and 2,960 migrations respectively;
//! none now).

use experiments::runner::{scaled_recn_config, Workload};
use experiments::RunSpec;
use fabric::{NullObserver, SchemeKind};
use simcore::{Picos, QueueWork};
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;

const SEED: u64 = 2005;

fn recn() -> SchemeKind {
    SchemeKind::Recn(scaled_recn_config(16))
}

/// A corner case with its hotspot burst moved to `[start, end)`.
fn windowed(mut corner: CornerCase, start: Picos, end: Picos) -> CornerCase {
    corner.hotspot_start = start;
    corner.hotspot_end = end;
    corner.with_seed(SEED)
}

/// Runs `spec` to its horizon; returns the events handled, the queue's
/// peak depth and its work counts.
fn work_of(spec: &RunSpec) -> (u64, usize, QueueWork) {
    let mut engine = spec.network(Box::new(NullObserver)).build_engine();
    engine.run_until(spec.horizon());
    let q = engine.queue();
    (engine.processed(), q.peak_len(), q.work())
}

fn work(rebuilds: u64, migrations: u64, events_sorted: u64, steps_walked: u64) -> QueueWork {
    QueueWork {
        rebuilds,
        migrations,
        events_sorted,
        steps_walked,
    }
}

#[test]
fn ft4096_hotspot_needs_no_migration() {
    let corner = windowed(CornerCase::fattree_4096(), Picos::ZERO, Picos::from_us(2));
    let spec = RunSpec::corner(FatTreeParams::ft_4096(), recn(), corner)
        .with_horizon(Picos::from_ns(2500))
        .with_bin(Picos::from_us(1));
    // 82 k pending events in lock step, 2.8 M schedules: seven rebuilds as
    // the queue fills (they sort 165 k events between them), a window that
    // reaches the horizon — nothing overflows, nothing migrates — and most
    // out-of-order schedules land right behind the previous one, so the
    // walks to a slot add up to 0.3 timestamps per schedule.
    assert_eq!(
        work_of(&spec),
        (2_729_123, 82_507, work(7, 0, 165_203, 819_777))
    );
}

#[test]
fn min256_hotspot_window_follows_the_run() {
    let corner = windowed(
        CornerCase::case2_256(),
        Picos::from_us(12),
        Picos::from_us(15),
    );
    let spec = RunSpec::corner(MinParams::paper_256(), recn(), corner)
        .with_horizon(Picos::from_us(25))
        .with_bin(Picos::from_us(1));
    // 16,384 days of 1 ns are 17 µs of a 25 µs run, but nothing is ever
    // scheduled that far ahead, so the window follows the day being
    // drained and never has to be re-anchored.
    assert_eq!(
        work_of(&spec),
        (1_490_736, 6_296, work(5, 0, 7_729, 3_012_846))
    );
}

#[test]
fn uniform64_one_queue_follows_its_sources() {
    let uniform = Workload::Uniform {
        load: 0.6,
        msg_bytes: 64,
        seed: SEED,
    };
    let spec = RunSpec::new(MinParams::paper_64(), SchemeKind::OneQ, uniform)
        .with_horizon(Picos::from_us(400))
        .with_bin(Picos::from_us(1));
    // No lock step after t = 0 and only ~600 events pending: three
    // rebuilds while the queue fills, then 1,024 days of 16 ns that the
    // 400 µs run laps 23 times without a migration. Days this coarse for so
    // few events cost walks: 1.4 timestamps per event.
    assert_eq!(work_of(&spec), (3_703_886, 594, work(3, 0, 711, 5_320_651)));
}
