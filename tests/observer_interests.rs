//! A hook costs nothing unless someone listens — and changes nothing when
//! someone does: what an observer asks for ([`NetObserver::interests`])
//! decides which hooks the network calls, never what the run does.

use experiments::runner::scaled_recn_config;
use experiments::RunSpec;
use fabric::{
    FanoutObserver, HookSet, NetObserver, NullObserver, SchemeKind, TraceSink, TransportConfig,
    TransportKind,
};
use metrics::{Probe, ProbeHandle};
use simcore::Picos;
use topology::MinParams;
use traffic::FlowSet;

/// Implements no hook and, by default, asks for all of them.
struct Listener;

impl NetObserver for Listener {}

fn probe_hooks() -> HookSet {
    HookSet::NONE
        .on_delivered()
        .on_saq_census()
        .on_root_change()
        .on_flow_complete()
}

#[test]
fn a_fan_out_asks_for_what_its_members_ask_for() {
    let bin = Picos::from_us(1);
    let probe = || Box::new(Probe::new(bin).0);
    assert_eq!(probe().interests(), probe_hooks());
    assert!(!probe_hooks().contains(HookSet::NONE.on_hop()));

    let alone = FanoutObserver::new().push(probe());
    assert_eq!(alone.interests(), probe_hooks());
    let with_null = FanoutObserver::new()
        .push(probe())
        .push(Box::new(NullObserver));
    assert_eq!(with_null.interests(), probe_hooks());
    assert_eq!(FanoutObserver::new().interests(), HookSet::NONE);

    let traced = FanoutObserver::new()
        .push(probe())
        .push(Box::new(TraceSink::new(8, "t".to_owned()).0));
    assert_eq!(traced.interests(), HookSet::ALL);
    let listened = FanoutObserver::new().push(probe()).push(Box::new(Listener));
    assert_eq!(listened.interests(), HookSet::ALL);
    // A fan-out inside a fan-out passes its members' union on.
    let nested = FanoutObserver::new().push(Box::new(alone));
    assert_eq!(nested.interests(), probe_hooks());
}

/// Everything a probe collected over a run, and the run's counters.
fn collected(spec: &RunSpec, listener: bool) -> String {
    let (probe, handle): (Probe, ProbeHandle) = Probe::new(spec.bin());
    let mut fan = FanoutObserver::new().push(Box::new(probe));
    if listener {
        fan = fan.push(Box::new(Listener));
    }
    let mut engine = spec.network(Box::new(fan)).build_engine();
    engine.run_until(spec.horizon());
    let h = spec.horizon();
    format!(
        "{:?}\n{} events, depth {}\n{:?}\n{:?}\n{:?} {:?} {:?}",
        engine.model().counters(),
        engine.processed(),
        engine.queue().peak_len(),
        handle.throughput(h),
        handle.saq_series(h),
        handle.saq_peaks(),
        handle.fct_summary(),
        handle.root_events(),
    )
}

#[test]
fn a_run_is_the_same_whether_or_not_per_hop_hooks_are_called() {
    // A 16-to-1 incast of go-back-N flows over RECN: SAQ census changes,
    // root changes, deliveries and flow completions all reach the probe,
    // and the hooks it does not ask for (seven per hop) fire by the
    // thousand when the listener is fanned in.
    let flows = FlowSet::incast64().with_flow_bytes(16 * 1024);
    let spec = RunSpec::flows(
        MinParams::paper_64(),
        SchemeKind::Recn(scaled_recn_config(16)),
        flows,
    )
    .with_transport(TransportKind::GoBackN(TransportConfig::default()))
    .with_horizon(Picos::from_us(400))
    .with_bin(Picos::from_us(1));
    let probe_only = collected(&spec, false);
    assert!(probe_only.contains("flows_completed: 16"), "{probe_only}");
    assert_eq!(probe_only, collected(&spec, true));
}
