//! The event queue's work on the four shapes of schedule the fabric
//! produces, pinned as exact counts: events handled, the queue's peak
//! depth, schedules made and how many of those a delay lane took
//! ([`simcore::QueueWork`]). The binary heap takes the complement.
//!
//! A schedule due a fixed delay after the last pop — a link hop, a crossbar
//! transfer, a credit, a retransmission timer — joins the FIFO lane of that
//! delay in O(1). The heap takes what is left: the first messages, primed
//! before the first pop, and whatever finds every lane keyed to another
//! delay. So the lane share is what keeps a run off the heap's O(log n)
//! path, and a change that lowers it moves work onto that path.
//!
//! Same-time work never enters the queue: under the lazy event model a
//! wakeup or event a handler schedules for the instant it runs at joins the
//! network's same-time FIFO and runs in place (DESIGN §6f). Its three counts
//! — wakeups and other events run in place, `Sweep`s queued to run them
//! after queue events still due — are pinned beside the queue's.
//!
//! The counts belong to the schedule, not the host: they replay bit for bit
//! anywhere, so they are asserted *at equality*. A change that moves one has
//! changed how the queue lays a run out — look at `queue.rs` and `lazy.rs`
//! before re-pinning. The runs are the benchmark's `ft4096_recn`,
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

/// Events handled, peak depth, schedules, lane schedules.
type QueueWork = (u64, usize, u64, u64);
/// Wakeups and other events run in place, `Sweep`s queued.
type InPlace = (u64, u64, u64);

/// Runs `spec` to its horizon; returns the events handled, the queue's
/// peak depth, the schedules made and how many of them a delay lane took,
/// then the same-time work run in place: wakeups, other events, and the
/// `Sweep`s queued to run it ([`fabric::SameTimeWork`]).
fn work_of(spec: &RunSpec) -> (QueueWork, InPlace) {
    let mut engine = spec.network(Box::new(NullObserver)).build_engine();
    engine.run_until(spec.horizon());
    let q = engine.queue();
    let now = engine.model().same_time_work();
    (
        (
            engine.processed(),
            q.peak_len(),
            q.scheduled_total(),
            q.work().lane_schedules,
        ),
        (now.wakeups, now.events, now.sweeps),
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
    // those are primed, then only drains. 2.2 M wakeups run in place.
    assert_eq!(
        work_of(&spec),
        (
            (2_728_796, 82_507, 2_801_746, 2_797_650),
            (2_221_412, 0, 7_731)
        )
    );
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
    // Lanes take 98.4 % of the schedules. The heap gets the 256 first
    // messages and 23 k schedules that found every lane keyed to another
    // delay: arbiter retries and credits a jittered fraction of a link
    // time ahead. The idle timers 20 µs out take a lane of their own.
    assert_eq!(
        work_of(&spec),
        (
            (1_440_562, 6_296, 1_446_311, 1_422_916),
            (1_520_179, 0, 97_261)
        )
    );
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
    // Lanes take 83.0 % of the schedules. The heap gets what no fixed
    // delay describes: source arrivals (106.666 or 106.667 ns apart, two
    // delays) and arbiter retries at whatever a busy output has left —
    // 617 k schedules, the most of the four, into a heap never more than
    // 594 deep.
    assert_eq!(
        work_of(&spec),
        (
            (3_634_342, 594, 3_634_671, 3_017_616),
            (3_178_710, 0, 237_374)
        )
    );
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
    // 18.0 events per delivered packet, all but 1,133 schedules in a lane
    // (99.97 %): packets, acks, credits and retransmission timers each keep
    // to a delay. The heap gets the 16 flow starts and what found all
    // eight lanes keyed to other delays; 4.4 M wakeups run in place.
    assert_eq!(
        work_of(&spec),
        (
            (3_488_257, 1_137, 3_488_257, 3_487_124),
            (4_375_946, 0, 193_750)
        )
    );
    assert_eq!(reserved_bytes(&spec), 818_608);
}
