//! # bench — kernel specs for the simulator-core perf tracker
//!
//! The `bench_core` binary (`src/bin/bench_core.rs`) times a fixed matrix
//! of time-compressed kernels and checks their deterministic event totals
//! against `baseline.json`; this library holds the kernels it runs. Each
//! is a plain [`RunSpec`], so it composes with everything the experiments
//! crate offers:
//!
//! ```
//! use bench::{corner_spec, BENCH_TIME_DIV};
//! use fabric::SchemeKind;
//!
//! let spec = corner_spec(2, SchemeKind::OneQ);
//! assert_eq!(spec.label(), "case2");
//! assert_eq!(spec.horizon(), simcore::Picos::from_us(1600 / BENCH_TIME_DIV));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::sweep::RunSpec;
use fabric::SchemeKind;
use recn::RecnConfig;
use simcore::Picos;
use topology::MinParams;
use traffic::corner::CornerCase;

/// Time compression used by the bench kernels (stronger than `--quick`
/// so a full `bench_core` run stays in the minutes range on one core).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_report() {
        let out = experiments::run_one(&corner_spec(2, SchemeKind::Recn(bench_recn_config())));
        assert!(out.counters.delivered_packets > 0);
        assert!(out.saq_peaks.2 > 0);
    }
}
