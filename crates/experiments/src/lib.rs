//! # experiments — the paper's evaluation, re-runnable
//!
//! One entry point per table/figure of the paper (§4), all behind the one
//! binary `recn` (`cargo run -p experiments --release -- <command>`; the
//! command table is [`cli::COMMANDS`]):
//!
//! | paper item | function | command |
//! |------------|----------|---------|
//! | Table 1    | [`table1::spec`] | `recn table1` |
//! | Figure 2 (a–d) | [`figures::fig2`] | `recn fig 2` |
//! | Figure 3   | [`figures::fig3`] | `recn fig 3` |
//! | Figure 4   | [`figures::fig4`] | `recn fig 4` |
//! | Figure 5   | [`figures::fig5`] | `recn fig 5` |
//! | Figure 6   | [`figures::fig6`] | `recn fig 6` (`recn fig all` runs 2–6) |
//!
//! Beyond the paper, [`ablations`] sweeps the design parameters (SAQ pool
//! size, detection threshold, drain boost) and measures the per-class
//! latency split (`recn ablations`); `recn hotspot`, `incast`, `validate`,
//! `inspect` and `scale` cover the routing × scheme matrix, flow
//! completion times, the invariant checker, mid-run state and the
//! 4096-host memory ladder.
//!
//! Each run simulates the exact scenario of the paper (64/256/512-host
//! perfect-shuffle MINs, 8 Gbps links, 12 Gbps crossbars, 128 KB port
//! memories, corner-case or SAN-trace traffic) under the mechanisms being
//! compared, and prints the figure's series as aligned text tables (or CSV
//! via `--csv <dir>`). Pass `--quick` for an 8× time-compressed variant
//! used by the benchmark harness and CI.
//!
//! Since every figure is a sweep of independent simulations, the harness
//! describes each run as a [`sweep::RunSpec`] and fans batches out over a
//! [`sweep::Sweep`] worker pool (`--jobs N`, default = available
//! parallelism). Results return in submission order, so tables and CSVs
//! are bit-identical to serial runs, and each sweep writes a
//! machine-readable JSON summary under `results/` (`--json DIR|none`).
//! A figure is a list of panels — a name, a title, the panel's specs and
//! whether it plots each run's throughput or its three SAQ curves — and
//! one function in [`figures`], `run_panels`, submits all of a figure's
//! panels as one sweep and splits the outputs back into one
//! [`figures::Figure`] per panel. Fig. 2's zoom, fig. 4's peaks, fig. 6's
//! SAQ panel and `recn hotspot`'s routing comparisons are derived from
//! those figures; the ablation and incast tables render straight from the
//! [`RunOutput`]s, and [`Opts`] says the time compression (horizon, bin,
//! congestion window) once.
//!
//! [`RunSpec`] is the single description of "one simulation run" shared by
//! the figures, the benches, the golden-trace suite and the run cache —
//! see [`spec`] for its builder API and canonical `spec_v1` encoding:
//!
//! ```
//! use experiments::RunSpec;
//! use fabric::{RoutingPolicy, SchemeKind};
//! use simcore::Picos;
//! use topology::FatTreeParams;
//! use traffic::corner::CornerCase;
//!
//! // The fat-tree hotspot under 1Q with adaptive up-routing, 8× shrunk.
//! let spec = RunSpec::corner(
//!     FatTreeParams::ft_64(),
//!     SchemeKind::OneQ,
//!     CornerCase::fattree_64().shrunk(8),
//! )
//! .with_horizon(Picos::from_us(200))
//! .with_routing(RoutingPolicy::adaptive())
//! .with_label("example");
//! assert_eq!(spec.routing().name(), "adaptive");
//! // `experiments::run_one(&spec)` (or a `Sweep` of many specs) runs it;
//! // `spec.spec_hash()` is the content address the run cache files it
//! // under (`Sweep::cache`).
//! ```
//!
//! The run cache ([`cache`]) files each output as `<spec_hash>.run`, text
//! of `key values…` lines; it is the only file the crate reads back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `print!` for a command's output: evaluates to `Result<(), String>`, the
/// `Err` saying stdout could not be written ([`cli::write_stdout`]).
macro_rules! out {
    ($($arg:tt)*) => { $crate::cli::write_stdout(format_args!($($arg)*)) };
}

/// [`out!`] with a newline, as `println!` is to `print!`.
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

pub mod ablations;
pub mod cache;
pub mod cli;
pub mod figures;
pub mod incast;
mod json;
pub mod opts;
pub mod runner;
pub mod scale;
pub mod spec;
pub mod sweep;
pub mod table1;

pub use cache::{CacheStatus, RunCache};
pub use opts::Opts;
pub use runner::{run_one, RunOutput, SchemeSet, Workload, OUTPUT_SCHEMA_VERSION};
pub use spec::RunSpec;
pub use sweep::{Sweep, SweepReport};
