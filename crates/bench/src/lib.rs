//! # bench — wall-clock benchmark harness for the RECN reproduction
//!
//! Each benchmark regenerates one of the paper's tables/figures on a
//! time-compressed (quick-mode) kernel, so `cargo bench` both exercises the
//! full experiment pipeline and reports the simulation cost of each
//! mechanism. The full-scale reproduction lives in the `experiments`
//! binaries (`cargo run -p experiments --bin all_figures --release`).
//!
//! The harness is self-contained (the offline build has no criterion):
//! every kernel is described as an [`experiments::sweep::RunSpec`], the
//! bench mains fan the whole set out over an
//! [`experiments::sweep::Sweep`] worker pool, and per-kernel wall seconds
//! and events/sec come straight from the [`RunOutput`]s. Each kernel
//! still asserts the figure's headline *shape* (who wins), so
//! `cargo bench` doubles as a regression harness for the reproduction.
//!
//! Benchmarks (see `benches/`):
//!
//! * `figures` — `fig2_corner_case{1,2}`, `fig3_san`, `fig4_saq_census`,
//!   `fig6_scale256`: one kernel per paper figure.
//! * `ablations` — design-choice sweeps DESIGN.md calls out: SAQ pool
//!   size, detection threshold, and the drain-boost rule.
//!
//! Kernels are plain [`RunSpec`]s, so they compose with everything the
//! experiments crate offers:
//!
//! ```
//! use bench::{corner_spec, BENCH_TIME_DIV};
//! use fabric::SchemeKind;
//!
//! let spec = corner_spec(2, SchemeKind::OneQ);
//! assert_eq!(spec.label(), "case2");
//! assert_eq!(spec.horizon(), simcore::Picos::from_us(1600 / BENCH_TIME_DIV));
//! // bench::corner_kernel(2, SchemeKind::OneQ) runs it and sanity-checks
//! // the output; the bench mains fan many such specs over a Sweep.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::runner::{run_one, RunOutput};
use experiments::sweep::RunSpec;
use fabric::SchemeKind;
use recn::RecnConfig;
use simcore::Picos;
use topology::MinParams;
use traffic::corner::CornerCase;

/// Time compression used by the bench kernels (stronger than `--quick`
/// so a full `cargo bench` stays in the minutes range on one core).
pub const BENCH_TIME_DIV: u64 = 16;

/// The RECN config the bench kernels use (thresholds scaled with time).
pub fn bench_recn_config() -> RecnConfig {
    experiments::runner::scaled_recn_config(BENCH_TIME_DIV)
}

fn bench_horizon() -> Picos {
    Picos::from_us(1600 / BENCH_TIME_DIV)
}

/// The corner-case kernel as a spec (fan these out with a `Sweep`).
pub fn corner_spec(case: u8, scheme: SchemeKind) -> RunSpec {
    let corner = match case {
        1 => CornerCase::case1_64(),
        _ => CornerCase::case2_64(),
    }
    .shrunk(BENCH_TIME_DIV);
    RunSpec::corner(MinParams::paper_64(), scheme, corner)
        .with_horizon(bench_horizon())
        .with_bin(Picos::from_us(1))
        .with_label(format!("case{case}"))
}

/// The SAN-trace kernel as a spec.
pub fn san_spec(compression: f64, scheme: SchemeKind) -> RunSpec {
    RunSpec::san(scheme, traffic::san::SanParams::cello_like(compression))
        .with_horizon(bench_horizon())
        .with_bin(Picos::from_us(1))
        .with_label(format!("san_c{}", compression as u32))
}

/// The closed-loop transport kernel as a spec: incast64 (16-to-1 flows)
/// under a go-back-N transport. Rates the ack/timer machinery — window
/// bookkeeping, cumulative acks, generation-checked retransmission
/// timers — on top of packet forwarding, rather than forwarding alone.
pub fn incast_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::flows(MinParams::paper_64(), scheme, traffic::FlowSet::incast64())
        .with_transport(fabric::TransportKind::GoBackN(
            fabric::TransportConfig::default(),
        ))
        .with_horizon(Picos::from_us(2000))
        .with_bin(Picos::from_us(1))
        .with_label("incast64")
}

/// The 256-host scalability kernel as a spec.
pub fn scale_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(
        MinParams::paper_256(),
        scheme,
        CornerCase::case2_256().shrunk(BENCH_TIME_DIV),
    )
    .with_horizon(bench_horizon())
    .with_bin(Picos::from_us(1))
    .with_label("scale256")
}

/// The 4096-host fat-tree scalability kernel as a spec (16-ary 3-tree,
/// one attacker per leaf switch).
pub fn scale4096_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(
        topology::FatTreeParams::ft_4096(),
        scheme,
        CornerCase::fattree_4096().shrunk(BENCH_TIME_DIV),
    )
    .with_horizon(bench_horizon())
    .with_bin(Picos::from_us(1))
    .with_label("scale4096")
}

/// Runs the corner-case kernel under a scheme and returns the output
/// (checked, so benches also act as regression tests).
pub fn corner_kernel(case: u8, scheme: SchemeKind) -> RunOutput {
    let out = run_one(&corner_spec(case, scheme));
    assert!(out.counters.delivered_packets > 0);
    out
}

/// Runs the SAN-trace kernel.
pub fn san_kernel(compression: f64, scheme: SchemeKind) -> RunOutput {
    let out = run_one(&san_spec(compression, scheme));
    assert!(out.counters.delivered_packets > 0);
    out
}

/// Runs the 256-host scalability kernel.
pub fn scale_kernel(scheme: SchemeKind) -> RunOutput {
    let out = run_one(&scale_spec(scheme));
    assert!(out.counters.delivered_packets > 0);
    out
}

/// RECN with a different SAQ pool size (ablation).
pub fn recn_with_saqs(max_saqs: usize) -> SchemeKind {
    SchemeKind::Recn(bench_recn_config().with_max_saqs(max_saqs))
}

/// RECN with a different detection threshold (ablation).
pub fn recn_with_detection(bytes: u64) -> SchemeKind {
    SchemeKind::Recn(bench_recn_config().with_detection_threshold(bytes))
}

/// RECN with the drain-boost rule disabled (ablation; `pkts = 0` means no
/// SAQ ever qualifies for the boost).
pub fn recn_without_drain_boost() -> SchemeKind {
    SchemeKind::Recn(bench_recn_config().with_drain_boost(0))
}

/// Mean throughput (bytes/ns) inside the congestion window of a kernel run.
pub fn window_mean(out: &RunOutput) -> f64 {
    let from = 810.0 / BENCH_TIME_DIV as f64;
    let to = 960.0 / BENCH_TIME_DIV as f64;
    metrics::report::window_stats(&out.throughput, from, to).0
}

/// Audit that the traffic generators realize Table 1's rates within 5%
/// on the compressed kernel (shared by the `figures` bench main).
pub fn audit_table1() {
    let corner = CornerCase::case1_64().shrunk(BENCH_TIME_DIV);
    let (bg, hot) = experiments::table1::audit_rates(&corner, bench_horizon());
    assert!((bg - 0.5).abs() < 0.05, "background rate {bg}");
    assert!((hot - 1.0).abs() < 0.05, "hotspot rate {hot}");
}

/// Renders the per-kernel result table the bench mains print: name, wall
/// seconds, events/sec, window-mean throughput, delivered packets.
pub fn render_bench_table(title: &str, rows: &[(String, &RunOutput)]) -> String {
    let mut s = format!("# {title}\n");
    s.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>13} {:>12}\n",
        "kernel", "wall(s)", "events/s", "win-thr(B/ns)", "delivered"
    ));
    for (name, out) in rows {
        let rate = match experiments::sweep::events_per_sec(out) {
            Some(r) => format!("{r:.2e}"),
            None => "n/a".to_owned(),
        };
        s.push_str(&format!(
            "{:<28} {:>9.2} {:>12} {:>13.2} {:>12}\n",
            name,
            out.wall_secs,
            rate,
            window_mean(out),
            out.counters.delivered_packets,
        ));
    }
    s
}

/// Parses the argument list cargo passes to a bench main: `--jobs N` is
/// honored, the standard `--bench`/filter arguments are ignored.
pub fn bench_jobs(args: impl IntoIterator<Item = String>) -> usize {
    let mut jobs = 0; // 0 = available parallelism
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            if let Some(v) = it.next() {
                jobs = v.parse().unwrap_or(0);
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_report() {
        let out = corner_kernel(1, SchemeKind::OneQ);
        assert!(window_mean(&out) > 1.0);
        let out = corner_kernel(2, recn_with_saqs(8));
        assert!(out.saq_peaks.2 > 0);
    }

    #[test]
    fn ablation_configs_differ() {
        assert_ne!(recn_with_saqs(2), recn_with_saqs(8));
        assert_ne!(recn_with_detection(1024), recn_with_detection(4096));
        if let SchemeKind::Recn(c) = recn_without_drain_boost() {
            assert_eq!(c.drain_boost_pkts, 0);
        } else {
            panic!("expected RECN scheme");
        }
    }

    #[test]
    fn bench_table_renders() {
        let out = corner_kernel(1, SchemeKind::OneQ);
        let rows = vec![("case1_1Q".to_owned(), &out)];
        let text = render_bench_table("smoke", &rows);
        assert!(text.contains("case1_1Q") && text.contains("events/s"));
        assert_eq!(
            bench_jobs(["--bench".into(), "--jobs".into(), "3".into()]),
            3
        );
        assert_eq!(bench_jobs(["--bench".into()]), 0);
    }
}
