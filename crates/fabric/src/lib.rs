//! # fabric — lossless MIN simulator
//!
//! Register-transfer-ish, packet-granularity model of the interconnection
//! fabric evaluated by the RECN paper (§4.1):
//!
//! * **Switches** with input and output buffering, a 12 Gbps multiplexed
//!   crossbar (one transfer per input and per output at a time), and
//!   weighted-round-robin output arbitration where normal queues have
//!   preference over SAQs.
//! * **Links** at 8 Gbps, full-duplex and pipelined. Data flows downstream;
//!   credits and RECN notifications share the reverse channel; RECN acks
//!   and tokens share the data channel — all control traffic consumes
//!   modeled bandwidth.
//! * **NICs** with per-destination admittance VOQs and injection queues
//!   that follow the same scheme as switch output ports (including SAQs).
//! * **Credit-based flow control** at the port level — the lossless
//!   invariant (no buffer ever overflows) is *asserted* at every enqueue —
//!   plus per-SAQ Xon/Xoff under RECN.
//! * **Slab-backed buffering**: buffered packets and queue nodes live in
//!   generational [`Arena`] slabs, so steady-state queue churn recycles
//!   storage instead of allocating per packet.
//! * The five queueing schemes of the paper's comparison:
//!   [`SchemeKind::OneQ`], [`SchemeKind::FourQ`], [`SchemeKind::VoqSw`],
//!   [`SchemeKind::VoqNet`] and [`SchemeKind::Recn`].
//!
//! ## Quick start
//!
//! ```
//! use fabric::{FabricConfig, Network, NullObserver, SchemeKind};
//! use fabric::{ConstantRateSource, MessageSource, SilentSource};
//! use simcore::Picos;
//! use topology::{HostId, MinParams};
//!
//! // 16-host network, host 0 sends to host 9 at half link rate for 10 µs.
//! let params = MinParams::new(16, 4, 2);
//! let mut sources: Vec<Box<dyn MessageSource>> = Vec::new();
//! sources.push(Box::new(ConstantRateSource::new(
//!     HostId::new(9), 64, Picos::from_ns(128), Picos::ZERO, Picos::from_us(10),
//! )));
//! for _ in 1..16 {
//!     sources.push(Box::new(SilentSource));
//! }
//! let net = Network::new(
//!     params,
//!     FabricConfig::paper(SchemeKind::OneQ),
//!     64,
//!     sources,
//!     Box::new(NullObserver),
//! );
//! let mut engine = net.build_engine();
//! engine.run_until(Picos::from_us(50));
//! let c = engine.model().counters();
//! assert_eq!(c.delivered_packets, c.injected_packets);
//! assert!(engine.model().is_quiescent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod arn;
mod config;
mod credit;
mod network;
mod observer;
mod packet;
mod queue;
mod source;
mod trace;
mod transport;
mod validate;

pub use arena::{Arena, Handle};
pub use arn::{ArnTable, ARN_COLD_BYTES, ARN_HOT_BYTES, ARN_TTL};
pub use config::{FabricConfig, RoutingPolicy, SchemeKind, LINK_GBPS, XBAR_GBPS};
pub use credit::{CreditView, POOLED_QUEUE};
pub use network::{
    assert_recn_idle, paper_network, render_port, ArbiterSummary, CounterMut, Event, Footprint,
    NetCounters, Network, PortRef, PortSnapshot, SaqSnapshot,
};
pub use observer::{FanoutObserver, HookSet, NetObserver, NullObserver, QueueKind, SaqSite};
pub use packet::{Packet, Payload, QueueItem, RevPayload};
pub use queue::{PortSide, QueueSet};
pub use simcore::EventModel;
pub use source::{ConstantRateSource, MessageSource, ScriptSource, SilentSource, SourcedMessage};
pub use trace::{json_escape, TraceHandle, TraceSink};
pub use transport::{FlowDesc, PfcConfig, TransportConfig, TransportKind};
pub use validate::{ValidatingObserver, ValidatorHandle};
