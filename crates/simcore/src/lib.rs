//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate for the RECN reproduction:
//!
//! * [`Picos`]: an integer picosecond time base. All model timing (link
//!   serialization, crossbar transfers, thresholds) is computed in integer
//!   picoseconds so runs are exactly reproducible across platforms.
//! * [`EventQueue`] and [`Engine`]: a stable priority queue of events and a
//!   driver loop. Events scheduled for the same instant are delivered in
//!   insertion order, which makes the simulation deterministic even when many
//!   components act "simultaneously". The queue is one FIFO lane per fixed
//!   delay after the last pop, with a binary heap for the rest;
//!   `tests/scheduler_equivalence.rs` checks it op for op against a
//!   binary-heap reference model.
//! * [`growth`]: the one growth rule of the stores a run fills (a quarter
//!   of what they hold), so reserved memory follows what a run holds.
//! * [`SplitMix64`] / [`Xoshiro256`]: small, dependency-free PRNGs with
//!   explicit seeding, so traffic generation is reproducible.
//! * [`Canon`], [`CanonWriter`], [`CanonReader`], [`fnv1a64`] / [`Fnv1a64`]:
//!   the stable canonical byte encoding that content-addressed run caching
//!   (`spec_v1`) and trace digests are built on.
//! * [`BinnedSeries`], [`GaugeSeries`], [`Running`]: light
//!   measurement primitives used to build the paper's time-series plots.
//!
//! ## Example
//!
//! ```
//! use simcore::{Engine, EventQueue, Picos, SimModel};
//!
//! struct Counter { fired: u32 }
//!
//! impl SimModel for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: Picos, ev: u32, q: &mut EventQueue<u32>) {
//!         self.fired += ev;
//!         if ev < 4 {
//!             q.schedule(now + Picos::from_ns(10), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.queue_mut().schedule(Picos::ZERO, 1);
//! engine.run_until(Picos::from_ns(100));
//! assert_eq!(engine.model().fired, 1 + 2 + 3 + 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod engine;
mod growth;
mod queue;
mod rng;
mod series;
mod stats;
mod time;
mod timer;

pub use canon::{fnv1a64, Canon, CanonError, CanonReader, CanonWriter, Fnv1a64};
pub use engine::{Engine, EventModel, SimModel};
pub use growth::growth;
pub use queue::{EventQueue, QueueWork, ScheduledEvent};
pub use rng::{SplitMix64, Xoshiro256};
pub use series::{BinnedSeries, GaugeSeries, SeriesPoint};
pub use stats::Running;
pub use time::Picos;
pub use timer::TimerGen;
