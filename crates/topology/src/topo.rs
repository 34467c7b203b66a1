//! The topology abstraction: one enum over every concrete network shape.
//!
//! RECN itself is topology-agnostic — it reasons about *paths* (turnpool
//! prefixes), not about where the cables go — so the fabric only needs a
//! small routing interface: host attachment, per-switch port counts, the
//! cable leaving each output port, and a deterministic per-hop turn
//! sequence for every `(src, dst)` pair. [`Topology`] packages that
//! interface as an enum with inline `match` dispatch (no `dyn` indirection
//! on the simulation hot path), and [`TopoParams`] is its cheap, copyable
//! description used by run specs and CLIs.

use simcore::{Canon, CanonWriter};

use crate::{
    FatTreeParams, FatTreeTopology, HostId, MinParams, MinTopology, PortId, Route, SwitchId,
};

/// Which concrete topology a parameter set or network describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// Unidirectional perfect-shuffle (delta) MIN (the paper's, and the
    /// commands' default).
    #[default]
    Min,
    /// k-ary n-tree fat-tree (bidirectional MIN).
    FatTree,
}

impl TopologyKind {
    /// Parses a `--topology` value.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s {
            "min" => Some(TopologyKind::Min),
            "fattree" | "fat-tree" => Some(TopologyKind::FatTree),
            _ => None,
        }
    }

    /// The CLI / JSON name (`"min"` or `"fattree"`).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Min => "min",
            TopologyKind::FatTree => "fattree",
        }
    }
}

/// Parameters of any supported topology — the copyable description carried
/// by run specs. `MinParams` and `FatTreeParams` convert with `.into()`:
///
/// ```
/// use topology::{MinParams, TopoParams};
/// let p: TopoParams = MinParams::paper_64().into();
/// assert_eq!(p.hosts(), 64);
/// assert_eq!(p.name(), "min");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoParams {
    /// A perfect-shuffle MIN shape.
    Min(MinParams),
    /// A k-ary n-tree shape.
    FatTree(FatTreeParams),
}

impl From<MinParams> for TopoParams {
    fn from(p: MinParams) -> TopoParams {
        TopoParams::Min(p)
    }
}

impl From<FatTreeParams> for TopoParams {
    fn from(p: FatTreeParams) -> TopoParams {
        TopoParams::FatTree(p)
    }
}

impl TopoParams {
    /// Which topology family this describes.
    pub fn kind(&self) -> TopologyKind {
        match self {
            TopoParams::Min(_) => TopologyKind::Min,
            TopoParams::FatTree(_) => TopologyKind::FatTree,
        }
    }

    /// The CLI / JSON name of the topology family.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> u32 {
        match self {
            TopoParams::Min(p) => p.hosts(),
            TopoParams::FatTree(p) => p.hosts(),
        }
    }

    /// Total switch count.
    pub fn total_switches(&self) -> u32 {
        match self {
            TopoParams::Min(p) => p.total_switches(),
            TopoParams::FatTree(p) => p.total_switches(),
        }
    }

    /// Builds the wired topology.
    pub fn build(&self) -> Topology {
        match self {
            TopoParams::Min(p) => Topology::Min(MinTopology::new(*p)),
            TopoParams::FatTree(p) => Topology::FatTree(FatTreeTopology::new(*p)),
        }
    }
}

impl Canon for TopoParams {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            TopoParams::Min(p) => {
                w.u8(0);
                p.encode_canon(w);
            }
            TopoParams::FatTree(p) => {
                w.u8(1);
                p.encode_canon(w);
            }
        }
    }
}

/// A fully-wired network of any supported topology. All methods dispatch
/// with an inline `match` so the MIN fast path compiles to the same code it
/// did before the abstraction existed.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Perfect-shuffle MIN wiring.
    Min(MinTopology),
    /// k-ary n-tree wiring.
    FatTree(FatTreeTopology),
}

impl Topology {
    /// Builds the topology described by `params`.
    pub fn new(params: impl Into<TopoParams>) -> Topology {
        params.into().build()
    }

    /// Which topology family this is.
    pub fn kind(&self) -> TopologyKind {
        match self {
            Topology::Min(_) => TopologyKind::Min,
            Topology::FatTree(_) => TopologyKind::FatTree,
        }
    }

    /// The copyable shape description.
    pub fn params(&self) -> TopoParams {
        match self {
            Topology::Min(t) => TopoParams::Min(*t.params()),
            Topology::FatTree(t) => TopoParams::FatTree(*t.params()),
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.params().hosts()
    }

    /// Total switch count.
    pub fn num_switches(&self) -> u32 {
        self.params().total_switches()
    }

    /// Port count of switch `sw`. Uniform (`radix`) on the MIN; on the fat
    /// tree, `2k` for inner levels and `k` at the top.
    pub fn ports(&self, sw: SwitchId) -> u32 {
        match self {
            Topology::Min(t) => {
                let _ = t.coords(sw); // range check
                t.params().radix()
            }
            Topology::FatTree(t) => t.ports(sw),
        }
    }

    /// The largest per-switch port count in the network.
    pub fn max_ports(&self) -> u32 {
        match self {
            Topology::Min(t) => t.params().radix(),
            Topology::FatTree(t) => {
                let p = t.params();
                if p.n() == 1 {
                    p.k()
                } else {
                    2 * p.k()
                }
            }
        }
    }

    /// Where host `h`'s injection link lands: `(switch, input port)`.
    pub fn host_ingress(&self, h: HostId) -> (SwitchId, PortId) {
        match self {
            Topology::Min(t) => t.host_ingress(h),
            Topology::FatTree(t) => t.host_ingress(h),
        }
    }

    /// The cable leaving `(switch, output port)`: `Ok((next switch, input
    /// port))`, or `Err(host)` for a port that delivers directly.
    pub fn next_hop(&self, sw: SwitchId, out_port: PortId) -> Result<(SwitchId, PortId), HostId> {
        match self {
            Topology::Min(t) => t.next_hop(sw, out_port),
            Topology::FatTree(t) => t.next_hop(sw, out_port),
        }
    }

    /// The deterministic per-hop turn sequence from `src` to `dst`. MIN
    /// routes are destination-tag only (the source is ignored); fat-tree
    /// routes pick their upturns from the source digits.
    pub fn route(&self, src: HostId, dst: HostId) -> Route {
        match self {
            Topology::Min(t) => t.route(dst),
            Topology::FatTree(t) => t.route(src, dst),
        }
    }

    /// The adaptive-routing variant of [`Topology::route`]: on a fat tree
    /// the up-phase turns come back late-bound
    /// ([`Route::next_turn_rebindable`]) so switches can pick among
    /// equivalent up-ports at forwarding time. The MIN has a single path
    /// per `(src, dst)` pair, so this degrades to the deterministic route.
    pub fn route_adaptive(&self, src: HostId, dst: HostId) -> Route {
        match self {
            Topology::Min(t) => t.route(dst),
            Topology::FatTree(t) => t.route_adaptive(src, dst),
        }
    }

    /// The up-port numbers of switch `sw` — the candidate set an adaptive
    /// up-phase turn may bind to. Empty on the MIN (no path diversity) and
    /// at the fat tree's top level.
    pub fn up_ports(&self, sw: SwitchId) -> std::ops::Range<u32> {
        match self {
            Topology::Min(t) => {
                let _ = t.coords(sw); // range check
                0..0
            }
            Topology::FatTree(t) => t.up_ports(sw),
        }
    }

    /// Walks the route from `src` to `dst` through the wiring and returns
    /// the `(switch, in_port, out_port)` hops.
    ///
    /// # Panics
    ///
    /// Panics if the walk would not deliver to `dst` with its route used
    /// up — that would be a topology construction bug (on the MIN, a
    /// violation of the delta property).
    pub fn trace(&self, src: HostId, dst: HostId) -> Vec<(SwitchId, PortId, PortId)> {
        let mut hops = Vec::new();
        let mut route = self.route(src, dst);
        let (mut sw, mut in_port) = self.host_ingress(src);
        loop {
            let out = PortId::new(route.advance() as u32);
            hops.push((sw, in_port, out));
            match self.next_hop(sw, out) {
                Ok(next) => (sw, in_port) = next,
                Err(delivered) => {
                    assert_eq!(
                        delivered, dst,
                        "routing violated: {src}->{dst} delivered to {delivered}"
                    );
                    assert!(route.is_exhausted(), "route not exhausted at delivery");
                    return hops;
                }
            }
        }
    }

    /// The pipeline position of `sw` for diagnostics: the stage on a MIN,
    /// the level on a fat tree (see [`Topology::stage_tag`]).
    pub fn stage_of(&self, sw: SwitchId) -> u32 {
        match self {
            Topology::Min(t) => t.coords(sw).stage,
            Topology::FatTree(t) => t.level_of(sw),
        }
    }

    /// Short label prefix for [`Topology::stage_of`] in reports:
    /// `"st"` (stage) on a MIN, `"lv"` (level) on a fat tree.
    pub fn stage_tag(&self) -> &'static str {
        match self {
            Topology::Min(_) => "st",
            Topology::FatTree(_) => "lv",
        }
    }

    /// Iterates over all switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.num_switches()).map(SwitchId::new)
    }

    /// Iterates over all host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.num_hosts()).map(HostId::new)
    }

    /// Exhaustively verifies that every source reaches every destination
    /// (`hosts²` [`trace`](Self::trace)s — intended for tests).
    pub fn verify_routes(&self) {
        for s in self.hosts() {
            for d in self.hosts() {
                let _ = self.trace(s, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_roundtrip_through_build() {
        for params in [
            TopoParams::from(MinParams::paper_64()),
            TopoParams::from(FatTreeParams::ft_64()),
        ] {
            let topo = params.build();
            assert_eq!(topo.params(), params);
            assert_eq!(topo.num_hosts(), 64);
            assert_eq!(topo.num_switches(), 48);
            assert_eq!(topo.kind(), params.kind());
        }
    }

    #[test]
    fn names_are_cli_stable() {
        assert_eq!(TopoParams::from(MinParams::paper_64()).name(), "min");
        assert_eq!(TopoParams::from(FatTreeParams::ft_64()).name(), "fattree");
    }

    #[test]
    fn min_dispatch_matches_direct_calls() {
        let direct = MinTopology::new(MinParams::paper_64());
        let topo = Topology::new(MinParams::paper_64());
        for h in topo.hosts() {
            assert_eq!(topo.host_ingress(h), direct.host_ingress(h));
            // MIN routes ignore the source.
            assert_eq!(topo.route(HostId::new(0), h), direct.route(h));
            assert_eq!(topo.route(HostId::new(63), h), direct.route(h));
        }
        for sw in topo.switches() {
            assert_eq!(topo.ports(sw), 4);
            assert_eq!(topo.stage_of(sw), direct.coords(sw).stage);
            for p in 0..4 {
                assert_eq!(
                    topo.next_hop(sw, PortId::new(p)),
                    direct.next_hop(sw, PortId::new(p))
                );
            }
        }
    }

    #[test]
    fn fattree_port_counts_vary_by_level() {
        let topo = Topology::new(FatTreeParams::ft_64());
        assert_eq!(topo.max_ports(), 8);
        let counts: Vec<u32> = topo.switches().map(|sw| topo.ports(sw)).collect();
        assert_eq!(counts.iter().filter(|&&c| c == 8).count(), 32);
        assert_eq!(counts.iter().filter(|&&c| c == 4).count(), 16);
        assert_eq!(topo.stage_tag(), "lv");
    }

    #[test]
    fn both_topologies_verify() {
        Topology::new(MinParams::new(16, 4, 2)).verify_routes();
        Topology::new(FatTreeParams::new(2, 3)).verify_routes();
    }
}
