//! The event queue's geometry on the four shapes of schedule the fabric
//! produces, pinned as exact work counts ([`simcore::QueueWork`]): how often
//! the calendar re-derived its day width, how often its window drained into
//! the overflow tier, how many events those sorted, and how many timestamps
//! out-of-order schedules stepped over.
//!
//! The counts belong to the schedule, not the host: they replay bit for bit
//! anywhere, so they are asserted *at equality*. A change that moves one has
//! changed how the queue lays a run out — look at `calendar.rs`,
//! "Mechanics", before re-pinning. The runs are the benchmark's
//! `ft4096_recn`, `hotspot256_recn`, `uniform64_1q` and `incast64_gbn`
//! workloads at seed 2005 (`benchmark/src/workloads.rs`); the first three
//! start with one `NextMessage` per host at t = 0, the lock-step block that
//! used to pin the calendar at 1 ps days (23, 23 and 2,960 migrations
//! respectively; none, 17 of another kind — see the test — and none now).
//!
//! Events scheduled for the time of the last pop wait in the queue's
//! same-time lane and never reach the calendar, so `steps_walked` counts
//! near-future inserts only. Before the lane the four runs walked 819,777,
//! 3,012,846, 5,320,651 and 12,808,686 timestamps.

use experiments::runner::{scaled_recn_config, Workload};
use experiments::RunSpec;
use fabric::{NullObserver, SchemeKind, TransportConfig, TransportKind};
use simcore::{Picos, QueueWork};
use topology::{FatTreeParams, MinParams};
use traffic::corner::{CornerCase, GangLayout};
use traffic::flows::FlowPattern;
use traffic::FlowSet;

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
    // walks to a slot add up to 0.3 timestamps per schedule. (The one run
    // the lane costs walks, +3.7 %: without the same-time events the
    // rebuilds see fewer events and settle on slightly coarser days.)
    assert_eq!(
        work_of(&spec),
        (2_729_123, 82_507, work(7, 0, 154_382, 850_497))
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
    // The burst ends in thousands of timestamps a few picoseconds apart:
    // the rebuild that follows (an insert walked 64 of them) settles on
    // 16 ps days, at which the idle timers 20 µs out are a million days
    // away. The index stays at twice what 4 k events ask for (32,768
    // buckets, half a microsecond), the timers wait in the overflow tier,
    // and the window migrates to them 17 times, sorting what is pending —
    // 6 % of the run's events in all — where an index at the 2²⁰-bucket
    // ceiling (8 MiB for this run's 9 MiB) would have held them.
    assert_eq!(
        work_of(&spec),
        (1_490_736, 6_296, work(5, 17, 99_233, 1_455_437))
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
    // few events cost walks: 0.56 timestamps per event, all of them by
    // near-future inserts (1.4 while same-time events walked too).
    assert_eq!(work_of(&spec), (3_703_886, 594, work(3, 0, 867, 2_086_713)));
}

#[test]
fn incast64_go_back_n_walks_only_for_the_near_future() {
    let flows = FlowSet {
        pattern: FlowPattern::Incast {
            fanin: 16,
            victim: (SEED % 48) as u32,
            layout: GangLayout::TailRange,
        },
        ..FlowSet::incast64().with_flow_bytes(768 * 1024 - 64 * (SEED % 256))
    };
    let spec = RunSpec::flows(MinParams::paper_64(), recn(), flows)
        .with_transport(TransportKind::GoBackN(TransportConfig::default()))
        .with_horizon(Picos::from_us(20_000))
        .with_bin(Picos::from_us(1));
    // 27.7 events per delivered packet and never 300 of them pending: 38 %
    // are sweeps due at once, which take the lane. What still walks are the
    // acks, credits and retries due a fraction of a link time ahead, one
    // timestamp per schedule on average.
    assert_eq!(
        work_of(&spec),
        (5_353_396, 1_137, work(3, 1, 1_362, 5_444_275))
    );
}
