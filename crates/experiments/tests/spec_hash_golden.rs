//! Pinned `spec_v1` hashes: the content addresses of the run cache.
//!
//! These constants are the contract that makes cache directories portable
//! across builds: if any hash here drifts, old cache entries silently stop
//! matching. A failure means the canonical encoding changed — that
//! requires bumping `SPEC_VERSION` and re-pinning every table here in the
//! same change (last done for version 7, which dropped the metrics-mode
//! tag byte); entries of any other version are then cache misses, which
//! `tests/run_cache.rs` pins.

use experiments::spec::RunSpec;
use fabric::{RoutingPolicy, SchemeKind};
use recn::RecnConfig;
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;

/// The five schemes of the paper's comparison, paper-exact RECN config.
fn schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::OneQ,
        SchemeKind::FourQ,
        SchemeKind::VoqSw,
        SchemeKind::VoqNet,
        SchemeKind::Recn(RecnConfig::default()),
    ]
}

/// Corner case 2 on the 64-host MIN, spec defaults (64 B packets, 1600 µs
/// horizon, deterministic routing) — one hash per scheme.
const GOLDEN_MIN: [u64; 5] = [
    0xa1dc8ceb8550dc2d,
    0xf96b58638bb98b4a,
    0xee188b3bea1f0ddf,
    0xec39591528bbc0b4,
    0x7afc47767aca039b,
];

/// The fat-tree hotspot under the same five schemes with adaptive
/// up-routing and 512-byte packets.
const GOLDEN_FATTREE_ADAPTIVE: [u64; 5] = [
    0xea769e54f0265d45,
    0xd7fca3f3a2a48eac,
    0x3803c3da147bc8a3,
    0xe6da3b517033b8fa,
    0xe2d50ac315ec737b,
];

/// Closed-loop incast64 on RECN under each non-open transport.
const GOLDEN_MIN_TRANSPORT: [u64; 3] = [
    0xba3b83b9121c3818, // go-back-N
    0x4a151ffea3b6ff09, // NACK
    0x46faf7b98141060a, // PFC
];

/// The fat-tree hotspot under ARN routing.
const GOLDEN_FATTREE_ARN: [u64; 5] = [
    0x90386c57569a9780,
    0x3640c70111d43d01,
    0x1d41ec615b197b8a,
    0x721bedfefcf692d3,
    0xf034b1b4193ccf62,
];

/// A SAN-trace run (Figures 3 and 5's parameters) and a uniform-load run
/// (the benchmark's background traffic). Their parameters are plain
/// numbers, so two writes swapped inside an encoder would keep every
/// injectivity test green and still move these hashes. The SAN run's mean
/// hot-spell length is moved off the think time it equals in the preset,
/// so no two of its fields encode the same bytes and any swap shows.
const GOLDEN_SAN: u64 = 0xf9b60d5b885447f6;
const GOLDEN_UNIFORM: u64 = 0x6f6cb8f5e5a5697a;

fn min_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(MinParams::paper_64(), scheme, CornerCase::case2_64())
}

fn fattree_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(FatTreeParams::ft_64(), scheme, CornerCase::fattree_64())
        .with_packet_size(512)
        .with_routing(RoutingPolicy::adaptive())
}

#[test]
fn min_spec_hashes_are_pinned() {
    for (scheme, golden) in schemes().into_iter().zip(GOLDEN_MIN) {
        let spec = min_spec(scheme);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: spec_v1 encoding drifted (hash {:#018x}); this breaks \
             existing cache directories — bump SPEC_VERSION instead",
            scheme.name(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn fattree_adaptive_spec_hashes_are_pinned() {
    for (scheme, golden) in schemes().into_iter().zip(GOLDEN_FATTREE_ADAPTIVE) {
        let spec = fattree_spec(scheme);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: fat-tree spec_v1 encoding drifted (hash {:#018x})",
            scheme.name(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn fattree_arn_spec_hashes_are_pinned_and_distinct() {
    for ((scheme, golden), adaptive) in schemes()
        .into_iter()
        .zip(GOLDEN_FATTREE_ARN)
        .zip(GOLDEN_FATTREE_ADAPTIVE)
    {
        let spec = fattree_spec(scheme).with_routing(RoutingPolicy::arn());
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: ARN spec_v1 encoding drifted (hash {:#018x}); this breaks \
             existing cache directories — bump SPEC_VERSION instead",
            scheme.name(),
            spec.spec_hash(),
        );
        assert_ne!(
            golden,
            adaptive,
            "{}: the two adaptive policies must have distinct content addresses",
            scheme.name(),
        );
    }
}

#[test]
fn transport_spec_hashes_are_pinned_and_distinct() {
    use fabric::{PfcConfig, TransportConfig, TransportKind};
    use traffic::FlowSet;

    let base = || {
        RunSpec::flows(
            MinParams::paper_64(),
            SchemeKind::Recn(RecnConfig::default()),
            FlowSet::incast64(),
        )
    };
    let specs = [
        base().with_transport(TransportKind::GoBackN(TransportConfig::default())),
        base().with_transport(TransportKind::Nack(TransportConfig::default())),
        base().with_transport(TransportKind::Pfc(
            TransportConfig::default(),
            PfcConfig::default(),
        )),
    ];
    for (spec, golden) in specs.into_iter().zip(GOLDEN_MIN_TRANSPORT) {
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: transport spec_v1 encoding drifted (hash {:#018x}); this \
             breaks existing cache directories — bump SPEC_VERSION instead",
            spec.transport().name(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn san_and_uniform_spec_hashes_are_pinned() {
    use experiments::runner::Workload;
    use traffic::san::SanParams;

    let san = RunSpec::san(
        SchemeKind::Recn(RecnConfig::default()),
        SanParams {
            hot_duration_xm_ns: 5e6,
            ..SanParams::cello_like(20.0)
        },
    );
    let uniform = RunSpec::new(
        MinParams::paper_64(),
        SchemeKind::OneQ,
        Workload::Uniform {
            load: 0.6,
            msg_bytes: 64,
            seed: 2005,
        },
    );
    for (spec, golden) in [(san, GOLDEN_SAN), (uniform, GOLDEN_UNIFORM)] {
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{:?}: spec_v1 encoding drifted (hash {:#018x}); this breaks \
             existing cache directories — bump SPEC_VERSION instead",
            spec.workload(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn observers_do_not_move_the_content_address() {
    let base = min_spec(SchemeKind::VoqNet);
    let decorated = min_spec(SchemeKind::VoqNet)
        .with_label("renamed")
        .with_validation(true)
        .with_trace(128);
    assert_eq!(base.spec_hash(), decorated.spec_hash());
}

#[test]
fn every_scheme_gets_a_distinct_address() {
    let mut hashes: Vec<u64> = GOLDEN_MIN
        .iter()
        .chain(GOLDEN_FATTREE_ADAPTIVE.iter())
        .chain(GOLDEN_FATTREE_ARN.iter())
        .chain(GOLDEN_MIN_TRANSPORT.iter())
        .chain([GOLDEN_SAN, GOLDEN_UNIFORM].iter())
        .copied()
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 20, "all twenty golden hashes are distinct");
}
