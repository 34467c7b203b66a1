//! # traffic — workload generators for the RECN evaluation
//!
//! Three workload families drive the paper's experiments:
//!
//! * [`RandomUniformSource`] — constant-rate injection to uniformly random
//!   destinations (the background traffic of every scenario).
//! * [`corner`] — the two *corner cases* of Table 1: background random
//!   traffic plus a synchronized hotspot burst (16 of 64 sources sending to
//!   destination 32 at full rate from 800 µs to 970 µs), generalized to the
//!   256- and 512-host networks of Figure 6.
//! * [`san`] — a synthetic reconstruction of the Hewlett-Packard `cello`
//!   I/O traces used in Figures 3 and 5. The original 1999 traces are not
//!   redistributable; the generator reproduces the structural features RECN
//!   is sensitive to — client/disk request/reply asymmetry, heavy-tailed
//!   bursts, destination locality, and transient gang-ups on hot disks —
//!   and exposes the paper's *time compression factor* knob.
//!
//! All generators are deterministic given a seed and implement
//! [`fabric::MessageSource`], so complete experiments are reproducible
//! bit-for-bit:
//!
//! ```
//! use fabric::MessageSource;
//! use simcore::Picos;
//! use traffic::RandomUniformSource;
//!
//! // Host 3's background source from the corner cases: 64 B messages to
//! // uniformly random other hosts at half the link rate.
//! let mut src = RandomUniformSource::new(64, Some(topology::HostId::new(3)), 64, 0.5)
//!     .window(Picos::ZERO, Picos::from_us(1))
//!     .seed(7)
//!     .build();
//! let m = src.next_message().expect("window is open");
//! assert_ne!(m.dst.index(), 3, "never sends to itself");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corner;
pub mod flows;
pub mod san;

mod random;

pub use flows::{FlowPattern, FlowSet};
pub use random::RandomUniformSource;
