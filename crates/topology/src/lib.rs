//! # topology — multistage interconnection networks
//!
//! Builds the networks evaluated in the RECN paper and its follow-ups, and
//! provides the routing-related encodings everything else relies on:
//!
//! * [`Topology`]/[`TopoParams`]: the abstraction the fabric is built
//!   against — host attachment, per-switch port counts, per-port cabling
//!   (`next_hop`), and a deterministic per-hop turn sequence (`route`).
//!   Enum dispatch, so the MIN hot path pays no indirection.
//! * [`MinTopology`]: the paper's unidirectional perfect-shuffle (delta)
//!   MIN with destination-tag self-routing.
//! * [`FatTreeTopology`]: a k-ary n-tree fat-tree (bidirectional MIN) with
//!   deterministic up*/down* self-routing — up-turns chosen from the
//!   source digits up to the nearest common ancestor, destination digits
//!   down.
//! * [`Route`]: the turn sequence a packet carries (one output-port digit
//!   per hop, most significant first).
//! * [`PathSpec`]: a *subpath* of turns from a given port to the root of a
//!   congestion tree — the paper's "turnpool subset" stored in each CAM
//!   line. A packet belongs to a congestion tree exactly when the tree's
//!   `PathSpec` is a prefix of the packet's remaining turns. Turns are
//!   opaque port digits, so the same encoding covers the MIN's stage
//!   digits and the fat tree's up/down ports.
//!
//! The paper's three network configurations, their fat-tree equivalents,
//! and 4096-host scale-up variants are available as presets:
//!
//! ```
//! use topology::{FatTreeParams, MinParams};
//! assert_eq!(MinParams::paper_64().total_switches(), 48);
//! assert_eq!(MinParams::paper_256().total_switches(), 256);
//! assert_eq!(MinParams::paper_512().total_switches(), 640);
//! assert_eq!(MinParams::min_4096().total_switches(), 6144);
//! assert_eq!(FatTreeParams::ft_64().total_switches(), 48);
//! assert_eq!(FatTreeParams::ft_256().total_switches(), 256);
//! assert_eq!(FatTreeParams::ft_512().total_switches(), 192);
//! assert_eq!(FatTreeParams::ft_4096().total_switches(), 768);
//! assert_eq!(FatTreeParams::ft_4096d().total_switches(), 6144);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fattree;
mod ids;
mod min;
mod path;
mod route;
mod topo;

pub use fattree::{FatTreeParams, FatTreeTopology};
pub use ids::{HostId, PortId, SwitchId};
pub use min::{MinParams, MinTopology, SwitchCoords};
pub use path::PathSpec;
pub use route::{Route, MAX_STAGES};
pub use topo::{TopoParams, Topology, TopologyKind};

/// Most ports a switch may have: the fabric's crossbar arbiter and RECN's
/// notified-input sets keep one bit per port in a `u64`, so the parameter
/// constructors refuse anything wider.
pub(crate) const MAX_PORTS: u32 = 64;
