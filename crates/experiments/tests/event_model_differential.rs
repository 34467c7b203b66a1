//! Differential proof that the production (lazy) event model is bit-exact
//! with the eager reference.
//!
//! The lazy model (DESIGN.md §6f) — the only one `run_one` and every command
//! use — coalesces same-time arbiter wakeups into sweep batches and elides
//! provably-no-op arbiter scans; it schedules far fewer events than the
//! eager reference (`run_one_eager_reference`, which exists for this suite)
//! but must execute the *same observable handler sequence*. The trace
//! digest folds every observer hook of a run into one 64-bit FNV value, so
//! digest equality is equality of the whole event-level behaviour —
//! injections, hops, queue ops, credit flow, SAQ lifecycle — not just of
//! the headline counters.
//!
//! Three layers of evidence:
//!
//! * a fixed matrix — all five schemes × {MIN corner 2, fat-tree hotspot}
//!   × {deterministic, adaptive, ARN up-routing} at golden-trace scale
//!   with the online invariant validator on,
//! * the closed-loop cell — incast64 on RECN under go-back-N, NACK and
//!   PFC, where acks, RTO timers and retransmissions join the schedule, and
//! * an LCG-seeded property suite over uniform random traffic on small
//!   MIN and fat-tree instances, with the seeds of past failures pinned in
//!   [`REGRESSION_SEEDS`] so they rerun forever.
//!
//! Every cell also asserts the lazy run scheduled *strictly fewer* events:
//! the fast path must actually elide work, not just match.

use experiments::runner::{run_one, run_one_eager_reference, RunOutput, SchemeSet, Workload};
use experiments::RunSpec;
use fabric::{RoutingPolicy, SchemeKind, TransportKind};
use recn::RecnConfig;
use simcore::Picos;
use topology::{FatTreeParams, MinParams, TopoParams};
use traffic::corner::CornerCase;
use traffic::FlowSet;

/// Golden-trace scale: corner case time-compressed 40×, every scheme,
/// validation and tracing on (same shape as `golden_trace.rs`).
fn matrix_specs(params: impl Into<TopoParams>, corner: CornerCase) -> Vec<RunSpec> {
    let params = params.into();
    let corner = corner.shrunk(40);
    SchemeSet::All
        .schemes_scaled(40)
        .into_iter()
        .map(|scheme| {
            RunSpec::corner(params, scheme, corner)
                .with_horizon(Picos::from_us(40))
                .with_bin(Picos::from_us(2))
                .with_label("diff")
                .with_validation(true)
                .with_trace(64)
        })
        .collect()
}

/// Runs `spec` on the eager reference and on production (`run_one`, lazy)
/// and asserts the production run is observably identical and schedules
/// strictly fewer events. Returns the `(eager, lazy)` event totals for
/// callers that pin absolute counts.
fn assert_bit_exact(spec: RunSpec) -> (u64, u64) {
    let ctx = format!(
        "{} on {:?} ({} routing)",
        spec.scheme().name(),
        spec.params(),
        spec.routing().name(),
    );
    let eager = run_one_eager_reference(&spec);
    let lazy = run_one(&spec);
    assert_outputs_equal(&eager, &lazy, &ctx);
    assert!(
        lazy.events < eager.events,
        "{ctx}: lazy must schedule strictly fewer events \
         (eager {} vs lazy {})",
        eager.events,
        lazy.events,
    );
    (eager.events, lazy.events)
}

/// Field-by-field equality of everything observable. Event totals, queue
/// depths and wall time are *excluded* by design: scheduling fewer events
/// is the whole point.
fn assert_outputs_equal(eager: &RunOutput, lazy: &RunOutput, ctx: &str) {
    assert_eq!(
        eager.trace_digest, lazy.trace_digest,
        "{ctx}: trace digests diverged — the lazy model changed the \
         observable event sequence"
    );
    assert_eq!(
        format!("{:?}", eager.counters),
        format!("{:?}", lazy.counters),
        "{ctx}: fabric counters diverged"
    );
    assert_eq!(
        eager.throughput, lazy.throughput,
        "{ctx}: throughput series"
    );
    assert_eq!(eager.saq, lazy.saq, "{ctx}: SAQ series");
    assert_eq!(eager.saq_peaks, lazy.saq_peaks, "{ctx}: SAQ peaks");
    assert_eq!(eager.fct, lazy.fct, "{ctx}: flow completion times");
    assert_eq!(eager.scheme, lazy.scheme);
}

#[test]
fn min_corner2_all_schemes_are_bit_exact() {
    for spec in matrix_specs(MinParams::paper_64(), CornerCase::case2_64()) {
        assert_bit_exact(spec);
    }
}

#[test]
fn fattree_hotspot_all_schemes_are_bit_exact() {
    for spec in matrix_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()) {
        assert_bit_exact(spec);
    }
}

#[test]
fn fattree_adaptive_all_schemes_are_bit_exact() {
    for spec in matrix_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()) {
        assert_bit_exact(spec.with_routing(RoutingPolicy::adaptive()));
    }
}

#[test]
fn fattree_arn_all_schemes_are_bit_exact() {
    for spec in matrix_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()) {
        assert_bit_exact(spec.with_routing(RoutingPolicy::arn()));
    }
}

/// The closed-loop cell: a small incast64 (16 senders × 2 KiB to host 32)
/// on RECN under every closed-loop transport, run to completion.
#[test]
fn closed_loop_incast_is_bit_exact() {
    for transport in ["gbn", "nack", "pfc"] {
        let spec = RunSpec::flows(
            MinParams::paper_64(),
            SchemeKind::Recn(RecnConfig::default()),
            FlowSet::incast64().with_flow_bytes(2048),
        )
        .with_transport(TransportKind::parse(transport).expect("known transport"))
        .with_horizon(Picos::from_us(2000))
        .with_bin(Picos::from_us(10))
        .with_label("diff")
        .with_trace(64);
        assert_bit_exact(spec);
    }
}

/// Event-count accounting at golden-trace scale: the reduction is pinned,
/// not just "strictly fewer", so a regression that quietly erodes the fast
/// path (while staying bit-exact) still fails loudly. Regenerate from the
/// assertion message if a behaviour change legitimately moves the totals.
#[test]
fn recn_event_reduction_is_pinned() {
    let spec = matrix_specs(MinParams::paper_64(), CornerCase::case2_64())
        .pop()
        .expect("RECN is the last scheme in the set");
    assert_eq!(spec.scheme().name(), "RECN");
    let (eager, lazy) = assert_bit_exact(spec);
    assert_eq!(
        (eager, lazy),
        (EAGER_RECN_EVENTS, LAZY_RECN_EVENTS),
        "event totals drifted; update the pins if the change is intended"
    );
    assert!(
        lazy * 10 <= eager * 9,
        "the lazy model should elide at least 10% of events on the RECN \
         corner run (eager {eager}, lazy {lazy})"
    );
}

/// Pinned event totals for the RECN MIN corner-2 golden-scale run.
const EAGER_RECN_EVENTS: u64 = 951_977;
const LAZY_RECN_EVENTS: u64 = 552_301;

// ---- LCG-seeded property suite ---------------------------------------

/// Deterministic splitmix-style LCG used to derive workload seeds (same
/// generator as the adaptive-routing property tests).
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Seeds that found (or nearly found) divergences in the past; they run
/// on every invocation, before the fresh sweep.
const REGRESSION_SEEDS: &[u64] = &[0x5eed_0001, 0x5eed_0002, 0x5eed_0003];

/// One random-uniform property case: scheme, topology, load, message size
/// and PRNG seed all derived from `draw`.
fn property_spec(draw: &mut u64) -> RunSpec {
    let params: TopoParams = if lcg(draw).is_multiple_of(2) {
        MinParams::new(16, 4, 2).into()
    } else {
        FatTreeParams::new(4, 2).into()
    };
    let schemes = SchemeSet::All.schemes_scaled(40);
    let scheme = schemes[(lcg(draw) as usize) % schemes.len()];
    let load = 0.3 + 0.1 * ((lcg(draw) % 7) as f64); // 0.3..=0.9
    let msg_bytes = [64, 256, 1500][(lcg(draw) as usize) % 3];
    let seed = lcg(draw);
    let routing = if matches!(params, TopoParams::FatTree(_)) && lcg(draw).is_multiple_of(2) {
        RoutingPolicy::adaptive()
    } else {
        RoutingPolicy::Deterministic
    };
    RunSpec::new(
        params,
        scheme,
        Workload::Uniform {
            load,
            msg_bytes,
            seed,
        },
    )
    .with_horizon(Picos::from_us(20))
    .with_bin(Picos::from_us(2))
    .with_label("prop")
    .with_routing(routing)
    .with_validation(true)
    .with_trace(64)
}

#[test]
fn random_uniform_traffic_is_bit_exact() {
    for &seed in REGRESSION_SEEDS {
        let mut draw = seed;
        assert_bit_exact(property_spec(&mut draw));
    }
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..8 {
        assert_bit_exact(property_spec(&mut draw));
    }
}
