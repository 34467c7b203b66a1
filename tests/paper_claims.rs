//! Workspace-level integration tests: exercise the public API the way the
//! paper's evaluation does and check its headline claims end to end.
//!
//! These use 16×-time-compressed scenarios so the whole file runs in
//! seconds; the full-scale reproduction is `recn fig all`.

use experiments::runner::{run_one, scaled_recn_config, Workload};
use experiments::sweep::RunSpec;
use experiments::table1;
use fabric::SchemeKind;
use metrics::report::window_stats;
use simcore::Picos;
use topology::MinParams;
use traffic::corner::CornerCase;
use traffic::san::SanParams;

const DIV: u64 = 16;

fn corner(case: u8) -> Workload {
    let base = match case {
        1 => CornerCase::case1_64(),
        _ => CornerCase::case2_64(),
    };
    Workload::Corner(base.shrunk(DIV))
}

fn horizon() -> Picos {
    Picos::from_us(1600 / DIV)
}

fn recn() -> SchemeKind {
    SchemeKind::Recn(scaled_recn_config(DIV))
}

fn spec(params: MinParams, scheme: SchemeKind, workload: &Workload) -> RunSpec {
    // validate(true): every claim below is also checked event-by-event
    // against the lossless invariants by a fabric::ValidatingObserver.
    RunSpec::new(params, scheme, workload.clone())
        .with_horizon(horizon())
        .with_bin(Picos::from_us(1))
        .with_validation(true)
}

fn run(scheme: SchemeKind, workload: &Workload) -> experiments::RunOutput {
    run_one(&spec(MinParams::paper_64(), scheme, workload))
}

/// Mean throughput inside the (compressed) congestion window.
fn window_mean(out: &experiments::RunOutput) -> f64 {
    window_stats(&out.throughput, 810.0 / DIV as f64, 960.0 / DIV as f64).0
}

/// Figure 2 (case 1), paper §4.2: RECN is "identical to VOQnet except a
/// <1 B/ns dip lasting <50 µs" while 1Q collapses. The full-scale
/// reproduction (EXPERIMENTS.md, Figure 2 table) measures RECN inside
/// the window at 23.6–26.5 B/ns vs VOQnet's 24.7 and 1Q's 19–21 before
/// its post-window collapse to ~5; the 0.88 factor here leaves room for
/// the ~4 % gap plus the 16×-compression transient (our detection
/// threshold must fill before the tree forms — EXPERIMENTS.md, Fig. 2c
/// note).
#[test]
fn claim_recn_tracks_voqnet_under_congestion() {
    let w = corner(1);
    let recn_out = run(recn(), &w);
    let voqnet = run(SchemeKind::VoqNet, &w);
    let one_q = run(SchemeKind::OneQ, &w);
    let (r, v, q) = (
        window_mean(&recn_out),
        window_mean(&voqnet),
        window_mean(&one_q),
    );
    assert!(r > 0.88 * v, "RECN {r:.1} should track VOQnet {v:.1}");
    assert!(r > q, "RECN {r:.1} should beat 1Q {q:.1}");
}

/// Figure 4, paper §4.2: 8 SAQs per port remove all HOL blocking — case 2
/// needs "the 8 SAQs at a particular input port" at its worst. Full scale
/// (EXPERIMENTS.md, Figure 4) measures case-2 peaks of (7 ingress,
/// 5 egress), inside the pool; the ablation section shows the knee of the
/// pool-size curve sits at 4–8 SAQs, so `pi <= 8` is the load-bearing
/// bound, not slack.
#[test]
fn claim_small_saq_pool_suffices() {
    let out = run(recn(), &corner(2));
    let (pi, pe, _total) = out.saq_peaks;
    assert!(pi >= 1, "congestion must allocate ingress SAQs");
    assert!(
        pi <= 8 && pe <= 8,
        "per-port demand within 8: {:?}",
        out.saq_peaks
    );
    assert_eq!(
        out.counters.order_violations, 0,
        "in-order delivery preserved"
    );
}

/// Paper §3.6–§3.8: SAQs deallocate when trees dissolve, so RECN's cost
/// is transient. EXPERIMENTS.md (Figure 4 note and deviation 3) records
/// the two rules this leans on: SAQ counts "decay as the standing backlog
/// drains", and idle reclaim is needed because the paper's bare
/// "becomes empty" rule either livelocks or leaks.
#[test]
fn claim_resources_fully_reclaimed() {
    // Run the corner case until every source is exhausted and the fabric
    // drains completely: nothing may leak.
    let sources = CornerCase::case2_64().shrunk(DIV).build_sources(horizon());
    let (validator, vh) = fabric::ValidatingObserver::new();
    let net = fabric::Network::new(
        MinParams::paper_64(),
        fabric::FabricConfig::paper(recn()),
        64,
        sources,
        Box::new(validator),
    );
    let mut engine = net.build_engine();
    engine.run_to_completion();
    vh.assert_drained();
    let model = engine.model();
    let c = model.counters();
    assert!(c.saq_allocs > 0);
    assert_eq!(
        c.saq_allocs, c.saq_deallocs,
        "every SAQ returns to the pool"
    );
    assert_eq!(c.root_activations, c.root_clears, "every tree dissolves");
    assert!(model.is_quiescent());
    fabric::assert_recn_idle(model);
}

/// Figure 6, paper §4.4: per-port SAQ demand "only depends on the number
/// of concurrent overlapping congestion trees, and not on the size of the
/// network". The full-scale 256-host run (EXPERIMENTS.md, Figure 6)
/// measures RECN riding at ~164 B/ns vs VOQsw's unrecovered ~147 with
/// per-port peaks (5, 4); at 512 hosts the peaks are (4, 4) — flat from
/// 64 to 512 hosts. The 0.95 factor mirrors the measured RECN ≥ VOQsw
/// ordering, not parity with VOQnet (RECN holds a ~15 % gap there while
/// the standing tree drains). The demand is read under a 64-SAQ pool: under
/// the paper's pool of 8 a peak of at most 8 is the cap, not a finding.
#[test]
fn claim_scales_to_larger_networks() {
    let w = Workload::Corner(CornerCase::case2_256().shrunk(DIV));
    let recn_out = run_one(&spec(MinParams::paper_256(), recn(), &w));
    let voqsw = run_one(&spec(MinParams::paper_256(), SchemeKind::VoqSw, &w));
    let roomy = SchemeKind::Recn(scaled_recn_config(DIV).with_max_saqs(64));
    let (ingress, egress, _) = run_one(&spec(MinParams::paper_256(), roomy, &w)).saq_peaks;
    assert!(
        ingress <= 8 && egress <= 8,
        "per-port SAQ demand at 256 hosts ({ingress}, {egress}) fits the paper's pool of 8"
    );
    let (r, s) = (window_mean(&recn_out), window_mean(&voqsw));
    assert!(
        r > 0.95 * s,
        "RECN {r:.1} at least matches VOQsw {s:.1} at 256 hosts"
    );
}

/// Figure 3, paper §4.3: the SAN traces run under every compared scheme
/// with in-order delivery. The trace files are synthetic `cello`
/// look-alikes (EXPERIMENTS.md, Figure 3 and deviation 5), so this
/// asserts the mechanics — delivery and ordering — not the paper's
/// absolute VOQsw gap, which the synthetic traces reproduce only weakly.
#[test]
fn san_traces_run_under_all_trace_schemes() {
    let w = Workload::San(SanParams::cello_like(40.0));
    for scheme in [SchemeKind::VoqNet, SchemeKind::OneQ, recn()] {
        let out = run_one(&spec(MinParams::paper_64(), scheme, &w).with_packet_size(512));
        assert!(
            out.counters.delivered_packets > 0,
            "{} must deliver SAN traffic",
            scheme.name()
        );
        assert_eq!(out.counters.order_violations, 0);
    }
}

/// Table 1, paper §4.1: corner-case generator rates. EXPERIMENTS.md
/// (Table 1) records the audited full-scale rates — background 0.500 and
/// hotspot 0.999 B/ns per source against specs of 0.5 and 1.0 — and the
/// 5 % tolerance here covers the shrunken window's edge bins.
#[test]
fn table1_spec_and_generators_agree() {
    let rows = table1::spec();
    assert_eq!(rows.len(), 4);
    let (bg, hot) = table1::audit_rates(&CornerCase::case1_64().shrunk(DIV), horizon());
    assert!((bg - 0.5).abs() < 0.05, "background rate {bg}");
    assert!((hot - 1.0).abs() < 0.05, "hotspot rate {hot}");
}

/// EXPERIMENTS.md, environment of record: "all runs deterministic (fixed
/// seeds)" — every number in its tables is reproducible bit for bit,
/// which this checks at the per-event level via the trace digest.
#[test]
fn figure_runs_are_deterministic() {
    let collect = || {
        // trace(16): the comparison includes the whole-run event digest, so
        // determinism is checked at the per-event level, not just summaries.
        let out = run_one(&spec(MinParams::paper_64(), recn(), &corner(1)).with_trace(16));
        (
            out.counters.delivered_packets,
            out.counters.saq_allocs,
            out.saq_peaks,
            out.trace_digest.expect("tracing was requested"),
            out.throughput.iter().enumerate().fold(0u64, |acc, (i, p)| {
                acc ^ p.value.to_bits().rotate_left(i as u32)
            }),
        )
    };
    assert_eq!(collect(), collect(), "same inputs, bit-identical outputs");
}
