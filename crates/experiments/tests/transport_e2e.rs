//! End-to-end acceptance for the transport layer: closed-loop incast
//! completes on every scheme × transport combination, reports per-flow
//! FCTs, and stays bit-deterministic across sweep parallelism (the
//! eager-vs-lazy cell lives in `event_model_differential.rs`).

use experiments::sweep::Sweep;
use experiments::{run_one, RunSpec, SchemeSet};
use fabric::TransportKind;
use simcore::Picos;
use topology::MinParams;
use traffic::FlowSet;

/// A small incast64: 16 senders × 2 KiB (32 packets each) to host 32.
fn incast_spec(scheme: fabric::SchemeKind, transport: TransportKind) -> RunSpec {
    RunSpec::flows(
        MinParams::paper_64(),
        scheme,
        FlowSet::incast64().with_flow_bytes(2048),
    )
    .with_transport(transport)
    .with_horizon(Picos::from_us(2000))
    .with_bin(Picos::from_us(10))
}

#[test]
fn incast_completes_on_every_scheme_and_transport() {
    let transports = [
        TransportKind::parse("gbn").unwrap(),
        TransportKind::parse("nack").unwrap(),
        TransportKind::parse("pfc").unwrap(),
    ];
    for scheme in SchemeSet::All.schemes() {
        for transport in transports {
            let out = run_one(&incast_spec(scheme, transport));
            let label = format!("{} / {}", scheme.name(), transport.name());
            assert_eq!(
                out.counters.flows_completed, 16,
                "{label}: all 16 flows complete"
            );
            let fct = out.fct.unwrap_or_else(|| panic!("{label}: fct summary"));
            assert_eq!(fct.flows, 16);
            assert!(fct.p50_ns > 0.0 && fct.p50_ns <= fct.p99_ns && fct.p99_ns <= fct.max_ns);
            assert!(
                out.counters.transport_acks > 0,
                "{label}: closed loop acked"
            );
            // 16 flows × 32 packets of payload all arrive (possibly plus
            // retransmits: GBN may rewind spuriously when congestion
            // delays acks past the RTO, and PFC retransmits real losses).
            assert!(out.counters.delivered_packets >= 512, "{label}");
            if !transport.is_pfc() {
                assert_eq!(out.counters.pfc_dropped_packets, 0, "{label}: lossless");
            }
        }
    }
}

#[test]
fn pfc_drops_and_recovers_under_incast() {
    // Pause thresholds far above the 128 KiB port capacity disable PAUSE
    // entirely, leaving the pure lossy-Ethernet baseline: overflow drops
    // and go-back-N recovery at the hosts. 16 senders × 1024-packet
    // windows put up to 1 MiB in flight at a single victim.
    let aggressive = fabric::TransportConfig {
        window_pkts: 1024,
        ..fabric::TransportConfig::default()
    };
    let no_pause = fabric::PfcConfig {
        pause_threshold: 8 << 20,
        resume_threshold: 4 << 20,
    };
    let spec = RunSpec::flows(
        MinParams::paper_64(),
        fabric::SchemeKind::OneQ,
        FlowSet::incast64().with_flow_bytes(65536),
    )
    .with_transport(TransportKind::Pfc(aggressive, no_pause))
    .with_horizon(Picos::from_us(20_000))
    .with_bin(Picos::from_us(100));
    let out = run_one(&spec);
    assert_eq!(out.counters.flows_completed, 16);
    assert!(
        out.counters.pfc_dropped_packets > 0,
        "16-to-1 at full rate must overflow somewhere: {:?}",
        out.counters
    );
    assert!(out.counters.retransmitted_packets > 0);
    assert!(out.counters.transport_timeouts > 0);
    assert_eq!(out.counters.pfc_pauses, 0, "thresholds above capacity");
}

#[test]
fn pfc_pause_resume_keeps_tight_fabric_lossless() {
    // Conservative thresholds (pause at 8 KiB of a 128 KiB port) pause
    // upstream links long before overflow: PFC does its job and the run
    // stays drop-free even with large windows.
    let aggressive = fabric::TransportConfig {
        window_pkts: 128,
        ..fabric::TransportConfig::default()
    };
    let tight = fabric::PfcConfig {
        pause_threshold: 8 * 1024,
        resume_threshold: 4 * 1024,
    };
    let spec = RunSpec::flows(
        MinParams::paper_64(),
        fabric::SchemeKind::OneQ,
        FlowSet::incast64().with_flow_bytes(8192),
    )
    .with_transport(TransportKind::Pfc(aggressive, tight))
    .with_horizon(Picos::from_us(20_000))
    .with_bin(Picos::from_us(100));
    let out = run_one(&spec);
    assert_eq!(out.counters.flows_completed, 16);
    assert!(out.counters.pfc_pauses > 0, "{:?}", out.counters);
    assert!(out.counters.pfc_resumes > 0);
    assert_eq!(out.counters.pfc_dropped_packets, 0, "pause prevents loss");
}

#[test]
fn open_loop_flows_complete_without_acks() {
    // The counting-receiver mode: flows are legal without a closed-loop
    // transport; completion is observed with zero control traffic.
    let out = run_one(&incast_spec(
        fabric::SchemeKind::VoqNet,
        TransportKind::OpenLoop,
    ));
    assert_eq!(out.counters.flows_completed, 16);
    assert!(out.fct.is_some());
    assert_eq!(out.counters.transport_acks, 0);
    assert_eq!(out.counters.retransmitted_packets, 0);
}

#[test]
fn sweep_parallelism_does_not_change_closed_loop_results() {
    let specs = |transport: &str| {
        SchemeSet::Scalability
            .schemes()
            .into_iter()
            .map(|s| incast_spec(s, TransportKind::parse(transport).unwrap()).with_trace(64))
            .collect::<Vec<_>>()
    };
    for transport in ["gbn", "pfc"] {
        let serial = Sweep::new(specs(transport)).jobs(1).run();
        let parallel = Sweep::new(specs(transport)).jobs(4).run();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.trace_digest, b.trace_digest, "{transport}");
            assert_eq!(a.fct, b.fct, "{transport}");
            assert_eq!(a.events, b.events, "{transport}");
        }
    }
}
