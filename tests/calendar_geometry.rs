//! The event queue's geometry on the four shapes of schedule the fabric
//! produces, pinned as exact work counts ([`simcore::QueueWork`]): how often
//! the calendar re-derived its day width, how often its window drained into
//! the overflow tier, how many events those sorted, how many timestamps
//! out-of-order schedules stepped over, and how many schedules a delay lane
//! took instead of the calendar.
//!
//! The counts belong to the schedule, not the host: they replay bit for bit
//! anywhere, so they are asserted *at equality*. A change that moves one has
//! changed how the queue lays a run out — look at `queue.rs` and
//! `calendar.rs`, "Mechanics", before re-pinning. The runs are the
//! benchmark's `ft4096_recn`, `hotspot256_recn`, `uniform64_1q` and
//! `incast64_gbn` workloads at seed 2005 (`benchmark/src/workloads.rs`); the
//! first three start with one `NextMessage` per host at t = 0.
//!
//! A schedule due a fixed delay after the last pop — a link hop, a crossbar
//! transfer, a credit, a wakeup "now" — joins the FIFO lane of that delay,
//! so the calendar holds what is left: the first messages, primed before
//! the first pop, and whatever finds every lane keyed to another delay.
//! The only rebuilds left are the ones that size the index while those
//! first messages are primed; no day width is re-derived after the first
//! pop. Before the lanes (with only a lane for events due at once) the four
//! runs read `(rebuilds, migrations, events_sorted, steps_walked)` of
//! `(7, 0, 154382, 850497)`, `(5, 17, 99233, 1455437)`,
//! `(3, 0, 867, 2086713)` and `(3, 1, 1362, 5444275)`.

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
/// peak depth, the schedules made and the queue's work counts.
fn work_of(spec: &RunSpec) -> (u64, usize, u64, QueueWork) {
    let mut engine = spec.network(Box::new(NullObserver)).build_engine();
    engine.run_until(spec.horizon());
    let q = engine.queue();
    (
        engine.processed(),
        q.peak_len(),
        q.scheduled_total(),
        q.work(),
    )
}

fn work(
    rebuilds: u64,
    migrations: u64,
    events_sorted: u64,
    steps_walked: u64,
    lane_schedules: u64,
) -> QueueWork {
    QueueWork {
        rebuilds,
        migrations,
        events_sorted,
        steps_walked,
        lane_schedules,
    }
}

#[test]
fn ft4096_hotspot_needs_no_migration() {
    let corner = windowed(CornerCase::fattree_4096(), Picos::ZERO, Picos::from_us(2));
    let spec = RunSpec::corner(FatTreeParams::ft_4096(), recn(), corner)
        .with_horizon(Picos::from_ns(2500))
        .with_bin(Picos::from_us(1));
    // 82 k pending events in lock step, 2.8 M schedules, and all but the
    // 4,096 first messages take a lane (99.85 %): the calendar rebuilds
    // three times while those are primed, then only drains — no walk, no
    // migration.
    assert_eq!(
        work_of(&spec),
        (
            2_729_123,
            82_507,
            2_802_073,
            work(3, 0, 1_347, 0, 2_797_977)
        )
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
    // Lanes take 97.7 % of the schedules. The calendar keeps the 256 first
    // messages (one rebuild, at 1 µs days, while they are primed) and 34 k
    // schedules that found every lane keyed to another delay: wakeups due
    // at once (32.6 k), arbiter retries and credits a jittered fraction of
    // a link time ahead. A wakeup lands in a 1 µs day that holds later
    // timestamps and walks: 4.7 timestamps per calendar schedule. The idle
    // timers 20 µs out, which used to wait in the overflow tier behind 16 ps
    // days and migrate 17 times, take a lane of their own.
    assert_eq!(
        work_of(&spec),
        (
            1_490_736,
            6_296,
            1_496_485,
            work(1, 0, 65, 161_970, 1_461_856)
        )
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
    // Lanes take 81.5 % of the schedules. The calendar keeps what no fixed
    // delay describes: source arrivals (106.666 or 106.667 ns apart, two
    // delays), arbiter retries at whatever a busy output has left, and the
    // wakeups due at once that find every lane taken — 685 k schedules.
    // Its one rebuild, while the first messages are primed, chose 1 µs
    // days, and it never again holds more events than buckets, so it never
    // re-derives them: at that width its walks *rise*, 4.1 timestamps per
    // calendar schedule, 2.8 M in all where the calendar of every schedule
    // but the wakeups walked 2.1 M.
    assert_eq!(
        work_of(&spec),
        (
            3_703_886,
            594,
            3_704_215,
            work(1, 0, 65, 2_835_567, 3_019_418)
        )
    );
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
    // 27.7 events per delivered packet and never 300 of them pending, all
    // but 3,992 in a lane (99.93 %): packets, acks, credits and
    // retransmission timers each keep to a delay. The calendar gets the 16
    // flow starts and, mostly, wakeups due at once that found all eight
    // lanes keyed to other delays; it never holds more than its 64 buckets,
    // so it never rebuilds, and it walks 137 timestamps in all.
    assert_eq!(
        work_of(&spec),
        (5_353_396, 1_137, 5_353_396, work(0, 0, 0, 137, 5_349_404))
    );
}
