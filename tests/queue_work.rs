//! The event queue's work on the four shapes of schedule the fabric
//! produces, pinned as exact counts: events handled, the queue's peak
//! depth, schedules made and how many of those a delay lane took
//! ([`simcore::QueueWork`]). The binary heap takes the complement.
//!
//! A schedule due a fixed delay after the last pop — a link hop, a crossbar
//! transfer, a credit, a wakeup "now" — joins the FIFO lane of that delay
//! in O(1). The heap takes what is left: the first messages, primed before
//! the first pop, and whatever finds every lane keyed to another delay. So
//! the lane share is what keeps a run off the heap's O(log n) path, and a
//! change that lowers it moves work onto that path.
//!
//! The counts belong to the schedule, not the host: they replay bit for bit
//! anywhere, so they are asserted *at equality*. A change that moves one has
//! changed how the queue lays a run out — look at `queue.rs` before
//! re-pinning. The runs are the benchmark's `ft4096_recn`,
//! `hotspot256_recn`, `uniform64_1q` and `incast64_gbn` workloads at seed
//! 2005 (`benchmark/src/workloads.rs`); the first three start with one
//! `NextMessage` per host at t = 0.
//!
//! Each run's reserved memory, [`RunOutput::peak_bytes_estimate`], is
//! pinned beside its queue work, also at equality: it is summed from the
//! capacities the run reserved (network, event queue, probe), never asked
//! of the allocator, so it replays as exactly as the counts do, and a
//! change that reserves more fails here.
//!
//! [`RunOutput::peak_bytes_estimate`]: experiments::RunOutput::peak_bytes_estimate

use experiments::runner::{scaled_recn_config, Workload};
use experiments::RunSpec;
use fabric::{NullObserver, SchemeKind, TransportConfig, TransportKind};
use simcore::Picos;
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

/// `spec`'s reserved memory, as [`experiments::run_one`] estimates it.
fn reserved_bytes(spec: &RunSpec) -> u64 {
    experiments::run_one(spec).peak_bytes_estimate
}

/// Runs `spec` to its horizon; returns the events handled, the queue's
/// peak depth, the schedules made and how many of them a delay lane took.
fn work_of(spec: &RunSpec) -> (u64, usize, u64, u64) {
    let mut engine = spec.network(Box::new(NullObserver)).build_engine();
    engine.run_until(spec.horizon());
    let q = engine.queue();
    (
        engine.processed(),
        q.peak_len(),
        q.scheduled_total(),
        q.work().lane_schedules,
    )
}

#[test]
fn ft4096_hotspot_leaves_the_heap_its_first_messages() {
    let corner = windowed(CornerCase::fattree_4096(), Picos::ZERO, Picos::from_us(2));
    let spec = RunSpec::corner(FatTreeParams::ft_4096(), recn(), corner)
        .with_horizon(Picos::from_ns(2500))
        .with_bin(Picos::from_us(1));
    // 82 k pending events in lock step, 2.8 M schedules, and all but the
    // 4,096 first messages take a lane (99.85 %): the heap is filled while
    // those are primed, then only drains.
    assert_eq!(work_of(&spec), (2_729_123, 82_507, 2_802_073, 2_797_977));
    assert_eq!(reserved_bytes(&spec), 39_145_676);
}

#[test]
fn min256_hotspot_leaves_the_heap_wakeups_and_jittered_hops() {
    let corner = windowed(
        CornerCase::case2_256(),
        Picos::from_us(12),
        Picos::from_us(15),
    );
    let spec = RunSpec::corner(MinParams::paper_256(), recn(), corner)
        .with_horizon(Picos::from_us(25))
        .with_bin(Picos::from_us(1));
    // Lanes take 97.7 % of the schedules. The heap gets the 256 first
    // messages and 34 k schedules that found every lane keyed to another
    // delay: wakeups due at once (32.6 k), arbiter retries and credits a
    // jittered fraction of a link time ahead. The idle timers 20 µs out
    // take a lane of their own.
    assert_eq!(work_of(&spec), (1_490_736, 6_296, 1_496_485, 1_461_856));
    assert_eq!(reserved_bytes(&spec), 5_066_724);
}

#[test]
fn uniform64_one_queue_leaves_the_heap_its_sources() {
    let uniform = Workload::Uniform {
        load: 0.6,
        msg_bytes: 64,
        seed: SEED,
    };
    let spec = RunSpec::new(MinParams::paper_64(), SchemeKind::OneQ, uniform)
        .with_horizon(Picos::from_us(400))
        .with_bin(Picos::from_us(1));
    // Lanes take 81.5 % of the schedules. The heap gets what no fixed
    // delay describes: source arrivals (106.666 or 106.667 ns apart, two
    // delays), arbiter retries at whatever a busy output has left, and the
    // wakeups due at once that find every lane taken — 685 k schedules, the
    // most of the four, into a heap never more than 594 deep.
    assert_eq!(work_of(&spec), (3_703_886, 594, 3_704_215, 3_019_418));
    assert_eq!(reserved_bytes(&spec), 543_960);
}

#[test]
fn incast64_go_back_n_keeps_to_its_delays() {
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
    // 27.7 events per delivered packet, all but 3,992 schedules in a lane
    // (99.93 %): packets, acks, credits and retransmission timers each keep
    // to a delay. The heap gets the 16 flow starts and, mostly, wakeups due
    // at once that found all eight lanes keyed to other delays.
    assert_eq!(work_of(&spec), (5_353_396, 1_137, 5_353_396, 5_349_404));
    assert_eq!(reserved_bytes(&spec), 818_608);
}
