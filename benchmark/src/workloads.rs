//! The five benchmark workloads, each a pure function of `--seed`.
//!
//! The seed reaches `CornerCase::with_seed`, `Workload::Uniform.seed` and
//! the incast flow set (victim and flow size) and nothing else in the
//! program. Every other knob a
//! spec has (scheduler, event model, metrics mode) is left at whatever the
//! library defaults to, so the benchmark measures the defaults and keeps
//! compiling when those axes are collapsed.

use experiments::runner::scaled_recn_config;
use experiments::{RunSpec, Workload};
use fabric::{RoutingPolicy, SchemeKind, TransportConfig, TransportKind};
use simcore::Picos;
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;
use traffic::flows::FlowPattern;
use traffic::FlowSet;

/// Seed used when none is given, and the first pinned row of
/// `expected.json`.
pub const DEFAULT_SEED: u64 = 2005;
/// The second pinned seed: never used while tuning a change, so a PR that
/// claims a gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Workload names in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "hotspot256_recn",
    "uniform64_1q",
    "ft4096_recn",
    "incast64_gbn",
    "matrix_ft64_sweep",
];

/// Worker threads of the sweep workload (the only threads the benchmark
/// ever starts).
pub const SWEEP_JOBS: usize = 2;

/// What one repetition of a workload runs.
pub enum Job {
    /// One `run_one` call.
    Single(Box<RunSpec>),
    /// One `Sweep::run_report` over these specs on [`SWEEP_JOBS`] workers.
    Sweep(Vec<RunSpec>),
}

/// A workload instance for one seed.
pub struct Bench {
    pub name: &'static str,
    pub job: Job,
    /// Simulated window `[start, end)` in which the fabric is congested
    /// (splits the traced spans into quiet and hot); `None` without a
    /// hotspot.
    pub hot_window: Option<(Picos, Picos)>,
    /// Width of one traced slice of simulated time.
    pub slice: Picos,
}

impl Bench {
    /// Every spec a repetition runs.
    pub fn specs(&self) -> &[RunSpec] {
        match &self.job {
            Job::Single(spec) => std::slice::from_ref(spec),
            Job::Sweep(specs) => specs,
        }
    }

    /// The spec the per-layer trace follows: the workload itself, or the
    /// sweep's RECN x ARN cell.
    pub fn traced_spec(&self) -> &RunSpec {
        match &self.job {
            Job::Single(spec) => spec,
            Job::Sweep(specs) => specs
                .iter()
                .find(|s| s.routing().is_arn() && s.scheme().recn().is_some())
                .expect("the matrix has a RECN x ARN cell"),
        }
    }
}

fn recn() -> SchemeKind {
    SchemeKind::Recn(scaled_recn_config(16))
}

/// A corner case with its hotspot burst moved to `[start, end)`.
fn windowed(mut corner: CornerCase, seed: u64, start: Picos, end: Picos) -> CornerCase {
    corner.hotspot_start = start;
    corner.hotspot_end = end;
    corner.with_seed(seed)
}

/// Builds workload `name` for `seed`; `None` for an unknown name.
///
/// Horizons are a quarter to a third of the sizes ISSUE 11 measured (one
/// repetition is 0.8-2.4 s here instead of 3.8-8 s) so that five or more
/// timed repetitions fit the benchmark contract's time cap; the shape of
/// each scenario — quiet, hot and recovery phases in the same proportion —
/// is kept.
pub fn build(name: &str, seed: u64) -> Option<Bench> {
    let us = Picos::from_us;
    let name: &'static str = NAMES.iter().find(|n| **n == name)?;
    let bench = match name {
        "hotspot256_recn" => {
            let corner = windowed(CornerCase::case2_256(), seed, us(12), us(15));
            Bench {
                name,
                job: Job::Single(Box::new(
                    RunSpec::corner(MinParams::paper_256(), recn(), corner)
                        .with_horizon(us(25))
                        .with_bin(us(1))
                        .with_label("hotspot256_recn"),
                )),
                hot_window: Some((us(12), us(15))),
                slice: us(1),
            }
        }
        "uniform64_1q" => Bench {
            name,
            job: Job::Single(Box::new(
                RunSpec::new(
                    MinParams::paper_64(),
                    SchemeKind::OneQ,
                    Workload::Uniform {
                        load: 0.6,
                        msg_bytes: 64,
                        seed,
                    },
                )
                .with_horizon(us(400))
                .with_bin(us(1))
                .with_label("uniform64_1q"),
            )),
            hot_window: None,
            slice: us(4),
        },
        "ft4096_recn" => {
            // The burst starts at once: the 256 attackers need about 2 us to
            // fill the root port past the detection threshold, and a later
            // start would leave RECN idle for the whole run.
            let (start, end) = (Picos::ZERO, us(2));
            let corner = windowed(CornerCase::fattree_4096(), seed, start, end);
            Bench {
                name,
                job: Job::Single(Box::new(
                    RunSpec::corner(FatTreeParams::ft_4096(), recn(), corner)
                        .with_horizon(Picos::from_ns(2500))
                        .with_bin(us(1))
                        .with_label("ft4096_recn"),
                )),
                hot_window: Some((start, end)),
                slice: Picos::from_ns(100),
            }
        }
        "incast64_gbn" => {
            // The flow set has no generator to seed, so the seed picks the
            // victim and trims the flows by up to 255 packets. The
            // tail-range gang is hosts 48..63: any victim below 48 keeps
            // the 16 senders and the fan-in unchanged.
            let flows = FlowSet {
                pattern: FlowPattern::Incast {
                    fanin: 16,
                    victim: (seed % 48) as u32,
                    layout: traffic::corner::GangLayout::TailRange,
                },
                ..FlowSet::incast64().with_flow_bytes(768 * 1024 - 64 * (seed % 256))
            };
            // 16 x 768 KiB drain through one 1 B/ns link in 12.6 ms; the
            // horizon only has to be later than that.
            let horizon = us(20_000);
            Bench {
                name,
                job: Job::Single(Box::new(
                    RunSpec::flows(MinParams::paper_64(), recn(), flows)
                        .with_transport(TransportKind::GoBackN(TransportConfig::default()))
                        .with_horizon(horizon)
                        .with_bin(us(1))
                        .with_label("incast64_gbn"),
                )),
                hot_window: Some((Picos::ZERO, horizon)),
                slice: us(50),
            }
        }
        "matrix_ft64_sweep" => {
            let corner = windowed(CornerCase::fattree_64(), seed, us(12), us(15));
            let routings = [
                RoutingPolicy::Deterministic,
                RoutingPolicy::adaptive(),
                RoutingPolicy::arn(),
            ];
            let schemes = [
                SchemeKind::VoqNet,
                SchemeKind::VoqSw,
                SchemeKind::FourQ,
                SchemeKind::OneQ,
                recn(),
            ];
            let specs = routings
                .iter()
                .flat_map(|routing| {
                    schemes.iter().map(move |scheme| {
                        RunSpec::corner(FatTreeParams::ft_64(), *scheme, corner)
                            .with_routing(*routing)
                            .with_horizon(us(25))
                            .with_bin(us(1))
                            .with_label(format!("matrix/{}/{}", routing.name(), scheme.name()))
                    })
                })
                .collect();
            Bench {
                name,
                job: Job::Sweep(specs),
                hot_window: Some((us(12), us(15))),
                slice: us(1),
            }
        }
        _ => unreachable!("every name in NAMES has a workload"),
    };
    Some(bench)
}
