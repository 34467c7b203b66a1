//! # recn-suite — reproduction of the RECN paper (HPCA 2005)
//!
//! Umbrella crate tying together the workspace that reproduces
//! *“A New Scalable and Cost-Effective Congestion Management Strategy for
//! Lossless Multistage Interconnection Networks”* (Duato, Johnson, Flich,
//! Naven, García, Nachiondo):
//!
//! * [`simcore`] — deterministic discrete-event engine.
//! * [`topology`] — perfect-shuffle MINs, destination-tag routing,
//!   turnpool paths.
//! * [`recn`] — the paper's contribution: per-port CAM + set-aside-queue
//!   state machines.
//! * [`fabric`] — the switch/NIC/link simulator with all five queueing
//!   schemes.
//! * [`traffic`] — corner-case and synthetic-SAN workloads.
//! * [`metrics`] — probes and report rendering.
//! * [`experiments`] — one runner per paper table/figure, and the `recn`
//!   binary that fronts them all.
//!
//! See the repository `README.md` for a guided tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//! Runnable walkthroughs live in `examples/`:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example hotspot_storm
//! cargo run --release --example san_workload
//! cargo run --release --example scale_sweep
//! cargo run --release --example fattree_hotspot
//! ```

#![forbid(unsafe_code)]

pub use experiments;
pub use fabric;
pub use metrics;
pub use recn;
pub use simcore;
pub use topology;
pub use traffic;
