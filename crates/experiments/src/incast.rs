//! Incast flow-completion-time comparison: the five lossless schemes of
//! the paper under the end-host transports (`--transport open|gbn|nack|pfc`)
//! on the 64-host MIN.
//!
//! The workload is [`FlowSet::incast64`]: 16 senders each push one flow to
//! a single victim host. FCT (not throughput) is the figure of merit — it
//! is the end-user view of congestion-tree damage: RECN keeps the
//! *innocent* traffic flowing, which the per-flow p99 makes visible where
//! mean throughput hides it.

use metrics::FctSummary;
use simcore::Picos;
use topology::MinParams;
use traffic::FlowSet;

use crate::opts::Opts;
use crate::runner::SchemeSet;
use crate::spec::RunSpec;

/// One row of the incast table: a scheme under the sweep's transport.
#[derive(Debug, Clone)]
pub struct IncastRow {
    /// Queueing scheme name (e.g. "RECN").
    pub scheme: &'static str,
    /// Transport name ("open", "gbn", "nack" or "pfc").
    pub transport: &'static str,
    /// Flows that completed inside the horizon (out of 16).
    pub flows_completed: u64,
    /// Per-flow completion-time summary (`None` if no flow finished).
    pub fct: Option<FctSummary>,
    /// Packets retransmitted by the closed-loop senders.
    pub retransmits: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
    /// Packets dropped at switch inputs (PFC transport only).
    pub drops: u64,
    /// Order-sensitive trace digest (for parallelism/determinism checks).
    pub digest: u64,
}

/// The incast64 flow set at the sweep's time scale: quick mode shrinks
/// each flow by the time divisor so the whole table stays in the seconds
/// range.
pub fn incast_flows(opts: &Opts) -> FlowSet {
    let base = FlowSet::incast64();
    base.with_flow_bytes((16384 / opts.time_div()).max(1024))
}

/// Runs incast64 across the five schemes in one sweep (the transport and
/// routing come from `opts`, like every other command) and folds each run into an [`IncastRow`].
pub fn incast_sweep(opts: &Opts) -> Vec<IncastRow> {
    let flows = incast_flows(opts);
    let specs: Vec<RunSpec> = SchemeSet::All
        .schemes_scaled(opts.time_div())
        .into_iter()
        .map(|scheme| {
            // The horizon does NOT shrink with the time divisor: closed-loop
            // recovery under 4Q's packet reordering (go-back-N rewind
            // storms) needs wall-clock slack, and an open-loop run stops
            // when its events drain anyway.
            RunSpec::flows(MinParams::paper_64(), scheme, flows)
                .with_horizon(Picos::from_us(2000))
                .with_bin(Picos::from_us((5 / opts.time_div()).max(1)))
                .with_trace(64)
                .with_label("incast64")
        })
        .collect();
    opts.sweep("incast64", specs)
        .into_iter()
        .map(|out| IncastRow {
            scheme: out.scheme,
            transport: opts.transport.name(),
            flows_completed: out.counters.flows_completed,
            fct: out.fct,
            retransmits: out.counters.retransmitted_packets,
            timeouts: out.counters.transport_timeouts,
            drops: out.counters.pfc_dropped_packets,
            digest: out.trace_digest.expect("incast specs enable tracing"),
        })
        .collect()
}

/// Renders the incast rows as an aligned table (FCT in microseconds).
pub fn render_rows(rows: &[IncastRow]) -> String {
    let mut out = String::from("# incast64: 16-to-1 flow completion times\n");
    out.push_str(&format!(
        "{:>8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7} {:>18}\n",
        "scheme",
        "trans",
        "flows",
        "p50(us)",
        "p99(us)",
        "max(us)",
        "rexmit",
        "timeout",
        "drops",
        "digest"
    ));
    for r in rows {
        let us = |ns: f64| ns / 1000.0;
        let (p50, p99, max) = r.fct.map_or((f64::NAN, f64::NAN, f64::NAN), |f| {
            (us(f.p50_ns), us(f.p99_ns), us(f.max_ns))
        });
        out.push_str(&format!(
            "{:>8} {:>6} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>8} {:>7} {:#018x}\n",
            r.scheme,
            r.transport,
            r.flows_completed,
            p50,
            p99,
            max,
            r.retransmits,
            r.timeouts,
            r.drops,
            r.digest,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::TransportKind;

    fn quick(transport: &str) -> Opts {
        Opts {
            quick: true,
            transport: TransportKind::parse(transport).unwrap(),
            ..Opts::default()
        }
    }

    #[test]
    fn incast_table_completes_under_every_transport() {
        for transport in ["open", "gbn", "nack", "pfc"] {
            let rows = incast_sweep(&quick(transport));
            assert_eq!(rows.len(), 5, "{transport}: one row per scheme");
            for r in &rows {
                assert_eq!(r.flows_completed, 16, "{transport}/{}", r.scheme);
                assert!(r.fct.is_some(), "{transport}/{}", r.scheme);
            }
            let text = render_rows(&rows);
            assert!(text.contains("RECN") && text.contains(transport));
        }
    }

    #[test]
    fn incast_rows_are_deterministic_across_jobs() {
        let serial = incast_sweep(&Opts {
            jobs: Some(1),
            ..quick("gbn")
        });
        let parallel = incast_sweep(&Opts {
            jobs: Some(4),
            ..quick("gbn")
        });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.digest, b.digest, "{}", a.scheme);
            assert_eq!(render_rows(&serial), render_rows(&parallel));
        }
    }
}
