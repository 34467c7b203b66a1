//! Perfect-shuffle (delta) multistage network construction.

use simcore::{Canon, CanonWriter};

use crate::{HostId, PortId, Route, SwitchId, MAX_PORTS, MAX_STAGES};

/// Shape of a unidirectional perfect-shuffle MIN.
///
/// The paper builds its networks from 8-port bidirectional switches used as
/// radix-4 unidirectional elements (4 inputs + 4 outputs), wired with the
/// perfect shuffle between stages:
///
/// * 64 hosts — 3 stages × 16 switches = 48 switches
/// * 256 hosts — 4 stages × 64 switches = 256 switches
/// * 512 hosts — 5 stages × 128 switches = 640 switches
/// * 4096 hosts — 6 stages × 1024 switches = 6144 switches
///   ([`MinParams::min_4096`], 8× beyond the paper's largest net)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MinParams {
    hosts: u32,
    radix: u32,
    stages: u32,
}

impl MinParams {
    /// Creates explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ radix ≤ 64` divides `hosts`,
    /// `radix^stages ≥ hosts`, and `stages ≤ MAX_STAGES`.
    pub fn new(hosts: u32, radix: u32, stages: u32) -> MinParams {
        match MinParams::checked(hosts, radix, stages) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor with the same invariants as [`MinParams::new`],
    /// for callers that want the violated rule as an error rather than a
    /// panic.
    pub fn checked(hosts: u32, radix: u32, stages: u32) -> Result<MinParams, String> {
        if radix < 2 {
            return Err("radix must be at least 2".to_owned());
        }
        if radix > MAX_PORTS {
            return Err(format!(
                "radix-{radix} switches have more ports than the {MAX_PORTS} a port mask holds"
            ));
        }
        if hosts < radix || !hosts.is_multiple_of(radix) {
            return Err("radix must divide hosts".to_owned());
        }
        if stages as usize > MAX_STAGES {
            return Err("too many stages".to_owned());
        }
        let capacity = (radix as u64).checked_pow(stages).unwrap_or(u64::MAX);
        if capacity < hosts as u64 {
            return Err(format!(
                "{stages} base-{radix} stages address only {capacity} < {hosts} hosts"
            ));
        }
        if !capacity.is_multiple_of(hosts as u64) {
            return Err(format!(
                "hosts must divide radix^stages ({hosts} ∤ {capacity}): destination-tag              routing over the perfect shuffle is only a delta network then"
            ));
        }
        Ok(MinParams {
            hosts,
            radix,
            stages,
        })
    }

    /// Minimal parameters for `hosts` endpoints with the given switch radix:
    /// `stages = ceil(log_radix hosts)`.
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2` or does not divide `hosts`.
    pub fn for_hosts(hosts: u32, radix: u32) -> MinParams {
        assert!(radix >= 2, "radix must be at least 2");
        let mut stages = 0;
        let mut capacity = 1u64;
        while capacity < hosts as u64 {
            capacity *= radix as u64;
            stages += 1;
        }
        MinParams::new(hosts, radix, stages.max(1))
    }

    /// The paper's 64-host network (48 switches, 3 stages).
    pub fn paper_64() -> MinParams {
        MinParams::new(64, 4, 3)
    }

    /// The paper's 256-host network (256 switches, 4 stages).
    pub fn paper_256() -> MinParams {
        MinParams::new(256, 4, 4)
    }

    /// The paper's 512-host network (640 switches, 5 stages).
    pub fn paper_512() -> MinParams {
        MinParams::new(512, 4, 5)
    }

    /// A 4096-host network (6144 switches, 6 radix-4 stages) — the scale-up
    /// preset, 8× beyond the paper's largest configuration.
    pub fn min_4096() -> MinParams {
        MinParams::new(4096, 4, 6)
    }

    /// Number of hosts (network inputs = outputs).
    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Switch radix (inputs = outputs per switch).
    pub fn radix(&self) -> u32 {
        self.radix
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Switches per stage.
    pub fn switches_per_stage(&self) -> u32 {
        self.hosts / self.radix
    }

    /// Total switch count.
    pub fn total_switches(&self) -> u32 {
        self.switches_per_stage() * self.stages
    }
}

impl Canon for MinParams {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.hosts);
        w.u32(self.radix);
        w.u32(self.stages);
    }
}

/// Position of a switch as (stage, index within stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchCoords {
    /// Pipeline stage, 0 at the host-injection side.
    pub stage: u32,
    /// Index within the stage.
    pub index: u32,
}

/// A fully-wired MIN: switch identity, inter-stage links, host attachments,
/// and deterministic routing.
///
/// Wire positions between stages are numbered `0..hosts`; the `radix`-way
/// perfect shuffle `x ↦ (x mod (hosts/radix))·radix + x div (hosts/radix)`
/// is applied in front of every stage (including stage 0, fed by the
/// hosts). An output position `p` of the last stage delivers to host `p`.
/// Destination-tag routing then reaches host `d` by turning to digit `s`
/// of `d` at stage `s` (see [`Route`]);
/// [`Topology::verify_routes`](crate::Topology::verify_routes) checks this property exhaustively and is exercised by the tests.
#[derive(Debug, Clone)]
pub struct MinTopology {
    params: MinParams,
}

impl MinTopology {
    /// Builds the topology.
    pub fn new(params: MinParams) -> MinTopology {
        MinTopology { params }
    }

    /// The shape parameters.
    pub fn params(&self) -> &MinParams {
        &self.params
    }

    /// The perfect shuffle applied in front of every stage.
    fn shuffle(&self, pos: u32) -> u32 {
        let m = self.params.hosts / self.params.radix;
        (pos % m) * self.params.radix + pos / m
    }

    /// Flat switch id from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn switch_id(&self, coords: SwitchCoords) -> SwitchId {
        assert!(coords.stage < self.params.stages, "stage out of range");
        assert!(
            coords.index < self.params.switches_per_stage(),
            "index out of range"
        );
        SwitchId::new(coords.stage * self.params.switches_per_stage() + coords.index)
    }

    /// Coordinates of a flat switch id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn coords(&self, id: SwitchId) -> SwitchCoords {
        let per = self.params.switches_per_stage();
        let raw = id.index() as u32;
        assert!(raw < self.params.total_switches(), "switch id out of range");
        SwitchCoords {
            stage: raw / per,
            index: raw % per,
        }
    }

    /// Where host `h`'s injection link lands: `(switch, input port)` at
    /// stage 0 (through the leading shuffle).
    ///
    /// # Panics
    ///
    /// Panics if the host id is out of range.
    pub fn host_ingress(&self, h: HostId) -> (SwitchId, PortId) {
        assert!((h.index() as u32) < self.params.hosts, "host out of range");
        let pos = self.shuffle(h.index() as u32);
        let sw = self.switch_id(SwitchCoords {
            stage: 0,
            index: pos / self.params.radix,
        });
        (sw, PortId::new(pos % self.params.radix))
    }

    /// The downstream connection of `(switch, output port)`:
    /// `Ok((next switch, input port))` for inner stages, or
    /// `Err(host)` when the output belongs to the last stage and delivers
    /// directly to a host.
    pub fn next_hop(&self, sw: SwitchId, out_port: PortId) -> Result<(SwitchId, PortId), HostId> {
        let c = self.coords(sw);
        assert!(
            (out_port.index() as u32) < self.params.radix,
            "port out of range"
        );
        let pos = c.index * self.params.radix + out_port.index() as u32;
        if c.stage + 1 == self.params.stages {
            return Err(HostId::new(pos));
        }
        let next_pos = self.shuffle(pos);
        let next = self.switch_id(SwitchCoords {
            stage: c.stage + 1,
            index: next_pos / self.params.radix,
        });
        Ok((next, PortId::new(next_pos % self.params.radix)))
    }

    /// The route a packet to `dest` must carry.
    ///
    /// # Panics
    ///
    /// Panics if the destination is out of range.
    pub fn route(&self, dest: HostId) -> Route {
        assert!(
            (dest.index() as u32) < self.params.hosts,
            "destination out of range"
        );
        Route::to_host(dest, self.params.radix, self.params.stages as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn paper_presets_match_table() {
        let p64 = MinParams::paper_64();
        assert_eq!(
            (p64.hosts(), p64.stages(), p64.total_switches()),
            (64, 3, 48)
        );
        let p256 = MinParams::paper_256();
        assert_eq!(
            (p256.hosts(), p256.stages(), p256.total_switches()),
            (256, 4, 256)
        );
        let p512 = MinParams::paper_512();
        assert_eq!(
            (p512.hosts(), p512.stages(), p512.total_switches()),
            (512, 5, 640)
        );
        let p4k = MinParams::min_4096();
        assert_eq!(
            (p4k.hosts(), p4k.stages(), p4k.total_switches()),
            (4096, 6, 6144)
        );
    }

    #[test]
    fn for_hosts_minimal_stages() {
        assert_eq!(MinParams::for_hosts(64, 4).stages(), 3);
        assert_eq!(MinParams::for_hosts(256, 4).stages(), 4);
        assert_eq!(MinParams::for_hosts(512, 4).stages(), 5);
        assert_eq!(MinParams::for_hosts(8, 2).stages(), 3);
        assert_eq!(MinParams::for_hosts(4, 4).stages(), 1);
    }

    #[test]
    #[should_panic(expected = "radix must divide hosts")]
    fn radix_must_divide() {
        let _ = MinParams::new(10, 4, 2);
    }

    #[test]
    #[should_panic(expected = "hosts must divide radix^stages")]
    fn non_delta_shapes_rejected() {
        // 6 ∤ 2^3: destination-tag routing would misdeliver.
        let _ = MinParams::new(6, 2, 3);
    }

    #[test]
    fn delta_property_small_networks() {
        for params in [
            MinParams::new(4, 4, 1),
            MinParams::new(16, 4, 2),
            MinParams::new(8, 2, 3),
            MinParams::paper_64(),
        ] {
            Topology::new(params).verify_routes();
        }
    }

    #[test]
    fn delta_property_non_power_network() {
        // 512 is not a power of 4; the 5-stage wiring must still deliver.
        let topo = Topology::new(MinParams::paper_512());
        // Exhaustive is 512^2 traces; sample a grid instead.
        for s in (0..512).step_by(17) {
            for d in (0..512).step_by(13) {
                let _ = topo.trace(HostId::new(s), HostId::new(d));
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let topo = MinTopology::new(MinParams::paper_64());
        for sw in (0..48).map(SwitchId::new) {
            let c = topo.coords(sw);
            assert_eq!(topo.switch_id(c), sw);
        }
    }

    #[test]
    fn trace_has_one_hop_per_stage() {
        let topo = Topology::new(MinParams::paper_64());
        let hops = topo.trace(HostId::new(5), HostId::new(42));
        assert_eq!(hops.len(), 3);
        for (i, (sw, _, _)) in hops.iter().enumerate() {
            assert_eq!(topo.stage_of(*sw) as usize, i);
        }
    }

    #[test]
    fn ingress_spreads_hosts() {
        // Every stage-0 input port receives exactly one host.
        let topo = MinTopology::new(MinParams::paper_64());
        let mut seen = std::collections::HashSet::new();
        for h in (0..64).map(HostId::new) {
            let (sw, port) = topo.host_ingress(h);
            assert_eq!(topo.coords(sw).stage, 0);
            assert!(seen.insert((sw, port)), "two hosts on one port");
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn last_stage_outputs_cover_all_hosts() {
        let topo = MinTopology::new(MinParams::paper_64());
        let per = topo.params().switches_per_stage();
        let mut delivered = std::collections::HashSet::new();
        for idx in 0..per {
            let sw = topo.switch_id(SwitchCoords {
                stage: 2,
                index: idx,
            });
            for p in 0..4 {
                match topo.next_hop(sw, PortId::new(p)) {
                    Err(h) => {
                        delivered.insert(h);
                    }
                    Ok(_) => panic!("last stage must deliver to hosts"),
                }
            }
        }
        assert_eq!(delivered.len(), 64);
    }

    #[test]
    fn inner_links_are_a_permutation() {
        let topo = MinTopology::new(MinParams::paper_256());
        let per = topo.params().switches_per_stage();
        let mut targets = std::collections::HashSet::new();
        for idx in 0..per {
            let sw = topo.switch_id(SwitchCoords {
                stage: 1,
                index: idx,
            });
            for p in 0..4 {
                let (next, port) = topo.next_hop(sw, PortId::new(p)).unwrap();
                assert_eq!(topo.coords(next).stage, 2);
                assert!(targets.insert((next, port)), "two links to one input");
            }
        }
        assert_eq!(targets.len(), 256);
    }
}
