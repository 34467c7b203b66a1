//! Incast flow-completion-time comparison: the five lossless schemes of
//! the paper under the end-host transports (`--transport open|gbn|nack|pfc`)
//! on the 64-host MIN.
//!
//! The workload is [`FlowSet::incast64`]: 16 senders each push one flow to
//! a single victim host. FCT (not throughput) is the figure of merit — it
//! is the end-user view of congestion-tree damage: RECN keeps the
//! *innocent* traffic flowing, which the per-flow p99 makes visible where
//! mean throughput hides it.

use simcore::Picos;
use topology::MinParams;
use traffic::FlowSet;

use crate::opts::Opts;
use crate::runner::{RunOutput, SchemeSet};
use crate::spec::RunSpec;

/// The incast64 flow set at the sweep's time scale: quick mode shrinks
/// each flow by the time divisor so the whole table stays in the seconds
/// range.
pub fn incast_flows(opts: &Opts) -> FlowSet {
    let base = FlowSet::incast64();
    base.with_flow_bytes((16384 / opts.time_div()).max(1024))
}

/// Runs incast64 across the five schemes in one sweep (the transport and
/// routing come from `opts`, like every other command), traced so each run
/// carries its order-sensitive digest.
pub fn incast_sweep(opts: &Opts) -> Vec<RunOutput> {
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
                .with_bin(opts.bin())
                .with_trace(64)
                .with_label("incast64")
        })
        .collect();
    opts.sweep("incast64", specs)
}

/// Renders the incast runs as an aligned table (FCT in microseconds): per
/// scheme, the flows completed out of 16, the completion-time percentiles,
/// retransmissions, timeouts, PFC drops and the trace digest.
pub fn render_rows(runs: &[RunOutput], opts: &Opts) -> String {
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
    for r in runs {
        let us = |ns: f64| ns / 1000.0;
        let (p50, p99, max) = r.fct.map_or((f64::NAN, f64::NAN, f64::NAN), |f| {
            (us(f.p50_ns), us(f.p99_ns), us(f.max_ns))
        });
        let digest = r
            .trace_digest
            .map_or("-".to_owned(), |d| format!("{d:#018x}"));
        let c = &r.counters;
        out.push_str(&format!(
            "{:>8} {:>6} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>8} {:>7} {:>18}\n",
            r.scheme,
            opts.transport.name(),
            c.flows_completed,
            p50,
            p99,
            max,
            c.retransmitted_packets,
            c.transport_timeouts,
            c.pfc_dropped_packets,
            digest,
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
            let opts = quick(transport);
            let runs = incast_sweep(&opts);
            assert_eq!(runs.len(), 5, "{transport}: one row per scheme");
            for r in &runs {
                assert_eq!(r.counters.flows_completed, 16, "{transport}/{}", r.scheme);
                assert!(r.fct.is_some(), "{transport}/{}", r.scheme);
            }
            let text = render_rows(&runs, &opts);
            assert!(text.contains("RECN") && text.contains(transport));
        }
    }

    #[test]
    fn incast_rows_are_deterministic_across_jobs() {
        let opts = quick("gbn");
        let serial = incast_sweep(&Opts {
            jobs: Some(1),
            ..opts.clone()
        });
        let parallel = incast_sweep(&Opts {
            jobs: Some(4),
            ..opts.clone()
        });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.trace_digest, b.trace_digest, "{}", a.scheme);
            assert_eq!(render_rows(&serial, &opts), render_rows(&parallel, &opts));
        }
    }
}
