//! # recn — Regional Explicit Congestion Notification
//!
//! The core contribution of *“A New Scalable and Cost-Effective Congestion
//! Management Strategy for Lossless Multistage Interconnection Networks”*
//! (Duato et al., HPCA 2005), implemented as a pure, simulator-independent
//! library.
//!
//! ## The mechanism
//!
//! Congestion trees are harmless if the head-of-line (HOL) blocking they
//! induce is removed. RECN removes it by giving every switch port a small
//! pool of **set-aside queues (SAQs)**, dynamically allocated per congestion
//! tree:
//!
//! 1. **Detection** — an output port whose (normal) queue crosses a
//!    threshold becomes the **root** of a congestion tree.
//! 2. **Notification** — the root notifies each input port the first time it
//!    forwards a packet to it; the input port allocates a SAQ plus a **CAM
//!    line** holding the *path* (turn sequence, [`topology::PathSpec`]) from
//!    itself to the root. Incoming packets whose remaining route has that
//!    path as a prefix are segregated into the SAQ.
//! 3. **Propagation** — when a SAQ itself fills beyond a threshold, the
//!    notification travels one hop further upstream (input port → upstream
//!    output port across the link; output port → same-switch input ports,
//!    extending the path by one turn), so queue isolation always runs ahead
//!    of the growing tree.
//! 4. **Deallocation** — notifications carry **tokens** marking the tree's
//!    leaves. A token comes home to the port that sent it in one of two ways
//!    ([`Returned`]): the notified port rejects the notification, or the
//!    SAQ it created drains empty and deallocates. Branch points wait for
//!    all branch tokens. When the root's queue drains below the threshold
//!    and all tokens came home, the tree is gone and every resource has
//!    been reclaimed.
//! 5. **In-order delivery** — a freshly allocated SAQ stays *blocked* behind
//!    a marker placed in the normal queue, so packets that entered the
//!    normal queue before the SAQ existed still leave first.
//! 6. **SAQ flow control** — per-SAQ Xon/Xoff toward the matching upstream
//!    SAQ bounds SAQ growth; port-level credits stay global.
//!
//! This crate contains the complete per-port protocol state machine
//! ([`RecnPort`]), the CAM ([`CamTable`]) and the tunables ([`RecnConfig`]).
//! It owns *control state and occupancy counters* only — actual packet
//! storage and the control messages on the wire live in the `fabric`
//! crate, which drives these state machines, one call per message, and
//! obeys the signals they emit ([`EnqueueSignals`], [`DequeueSignals`]).
//!
//! ## Example: one notification hop
//!
//! ```
//! use recn::{Classify, NotifOutcome, RecnConfig, RecnPort};
//! use topology::PathSpec;
//!
//! let cfg = RecnConfig::default();
//! let mut ingress = RecnPort::new_ingress(cfg);
//!
//! // The output port at turn 2 became a root and notifies this input port.
//! let outcome = ingress.alloc_on_notification(PathSpec::from_turns(&[2]));
//! let saq = match outcome {
//!     NotifOutcome::Accepted { saq, .. } => saq,
//!     other => panic!("expected acceptance, got {other:?}"),
//! };
//! ingress.marker_consumed(saq); // fabric consumed the in-order marker
//!
//! // Packets heading through output 2 now classify into the SAQ...
//! assert_eq!(ingress.classify(&[2, 1, 3]), Classify::Saq(saq));
//! // ...while everything else stays in the normal queue.
//! assert_eq!(ingress.classify(&[0, 1, 3]), Classify::Normal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cam;
mod config;
mod port;

pub use cam::{CamTable, SaqId};
pub use config::RecnConfig;
pub use port::{
    Classify, DequeueSignals, EnqueueSignals, ForwardNotifications, NotifOutcome, RecnPort,
    Returned, RootChange,
};
