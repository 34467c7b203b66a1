//! k-ary n-tree fat-tree construction (a bidirectional MIN).
//!
//! A k-ary n-tree connects `k^n` hosts through `n` levels of `k^(n-1)`
//! switches each. Level 0 is the leaf level (host-attached), level `n-1`
//! the top. Every switch is identified by `(level, label)` where the label
//! is an `(n-1)`-digit base-`k` number; a level-`l` switch is cabled to the
//! level-`l+1` switches whose labels agree with its own in every digit
//! except digit `l`.
//!
//! Port numbering per switch: ports `0..k` point **down** (towards hosts),
//! ports `k..2k` point **up**. Top-level switches have only the `k` down
//! ports, so per-switch port counts vary — the property that forces the
//! rest of the stack to stop assuming one global radix.
//!
//! Routing is deterministic up*/down* self-routing: a packet climbs to the
//! nearest common ancestor level `m` (the highest base-`k` digit where
//! source and destination host addresses differ), choosing up-port
//! `k + s_j` at level `j` from the **source** digits, then descends taking
//! down-port `d_j` at level `j+1 → j` from the **destination** digits; the
//! final level-0 down-turn `d_0` delivers to the host. Source-digit upturns
//! make the route a pure function of `(src, dst)` — deterministic, so a
//! congestion tree's turnpool prefix identifies the same set of paths on
//! every run.
use simcore::{Canon, CanonWriter};

use crate::{HostId, PortId, Route, SwitchId, MAX_PORTS, MAX_STAGES};

/// Shape of a k-ary n-tree: `k^n` hosts, `n` levels of `k^(n-1)` switches.
///
/// Presets mirror the paper's MIN host counts so the corner-case scenarios
/// carry over unchanged:
///
/// * [`FatTreeParams::ft_64`] — 4-ary 3-tree: 64 hosts, 48 switches
/// * [`FatTreeParams::ft_256`] — 4-ary 4-tree: 256 hosts, 256 switches
/// * [`FatTreeParams::ft_512`] — 8-ary 3-tree: 512 hosts, 192 switches
/// * [`FatTreeParams::ft_4096`] — 16-ary 3-tree: 4096 hosts, 768 switches
/// * [`FatTreeParams::ft_4096d`] — 4-ary 6-tree: 4096 hosts, 6144 switches
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FatTreeParams {
    k: u32,
    n: u32,
}

impl FatTreeParams {
    /// Creates explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 2`, `n ≥ 1`, the longest route (`2n − 1` turns)
    /// fits in [`MAX_STAGES`], and a switch's `2k` ports fit the 64-bit
    /// port masks the fabric and RECN keep (`k ≤ 32`).
    pub fn new(k: u32, n: u32) -> FatTreeParams {
        match FatTreeParams::checked(k, n) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor with the same invariants as
    /// [`FatTreeParams::new`], for callers that want the violated rule as
    /// an error rather than a panic.
    pub fn checked(k: u32, n: u32) -> Result<FatTreeParams, String> {
        if k < 2 {
            return Err("arity must be at least 2".to_owned());
        }
        if n < 1 {
            return Err("need at least one level".to_owned());
        }
        if n as usize > MAX_STAGES || (2 * n - 1) as usize > MAX_STAGES {
            return Err(format!(
                "{n} levels need {} turns > MAX_STAGES ({MAX_STAGES})",
                2 * n - 1
            ));
        }
        if 2 * k as u64 > MAX_PORTS as u64 {
            return Err(format!(
                "{k}-ary switches have {} ports, more than the {MAX_PORTS} a port mask holds",
                2 * k as u64
            ));
        }
        Ok(FatTreeParams { k, n })
    }

    /// 4-ary 3-tree: 64 hosts, 3 levels × 16 switches.
    pub fn ft_64() -> FatTreeParams {
        FatTreeParams::new(4, 3)
    }

    /// 4-ary 4-tree: 256 hosts, 4 levels × 64 switches.
    pub fn ft_256() -> FatTreeParams {
        FatTreeParams::new(4, 4)
    }

    /// 8-ary 3-tree: 512 hosts, 3 levels × 64 switches.
    pub fn ft_512() -> FatTreeParams {
        FatTreeParams::new(8, 3)
    }

    /// 16-ary 3-tree: 4096 hosts, 3 levels × 256 switches. The shallow
    /// high-radix variant — shortest routes (5 turns), 32-port inner
    /// switches.
    pub fn ft_4096() -> FatTreeParams {
        FatTreeParams::new(16, 3)
    }

    /// 4-ary 6-tree: 4096 hosts, 6 levels × 1024 switches. The deep
    /// low-radix variant — same host count as [`FatTreeParams::ft_4096`]
    /// through 8-port switches and 11-turn routes, exercising label
    /// widths and route lengths past the paper's 3-level fabrics.
    pub fn ft_4096d() -> FatTreeParams {
        FatTreeParams::new(4, 6)
    }

    /// Tree arity (down-ports per switch; inner switches add `k` up-ports).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of levels.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of hosts (`k^n`).
    pub fn hosts(&self) -> u32 {
        self.k.pow(self.n)
    }

    /// Switches per level (`k^(n-1)`).
    pub fn switches_per_level(&self) -> u32 {
        self.k.pow(self.n - 1)
    }

    /// Total switch count (`n · k^(n-1)`).
    pub fn total_switches(&self) -> u32 {
        self.n * self.switches_per_level()
    }

    /// Port count of a switch at `level`: `2k` for inner levels, `k` at
    /// the top (no up-ports above the root level).
    ///
    /// # Panics
    ///
    /// Panics if the level is out of range.
    pub fn ports_at_level(&self, level: u32) -> u32 {
        assert!(level < self.n, "level out of range");
        if level + 1 == self.n {
            self.k
        } else {
            2 * self.k
        }
    }

    /// Length of the longest route (`2n − 1` turns: `n − 1` up, `n` down).
    pub fn max_route_turns(&self) -> u32 {
        2 * self.n - 1
    }
}

impl Canon for FatTreeParams {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.k);
        w.u32(self.n);
    }
}

/// A fully-wired k-ary n-tree: switch identity, cabling, host attachment,
/// and deterministic up*/down* routing. See the [crate docs](crate) for the
/// labelling scheme.
#[derive(Debug, Clone)]
pub struct FatTreeTopology {
    params: FatTreeParams,
}

impl FatTreeTopology {
    /// Builds the topology.
    pub fn new(params: FatTreeParams) -> FatTreeTopology {
        FatTreeTopology { params }
    }

    /// The shape parameters.
    pub fn params(&self) -> &FatTreeParams {
        &self.params
    }

    /// Base-`k` digit `i` of `x` (digit 0 least significant).
    fn digit(&self, x: u32, i: u32) -> u32 {
        (x / self.params.k.pow(i)) % self.params.k
    }

    /// `x` with base-`k` digit `i` replaced by `v`.
    fn with_digit(&self, x: u32, i: u32, v: u32) -> u32 {
        let p = self.params.k.pow(i);
        x - self.digit(x, i) * p + v * p
    }

    /// Flat switch id from `(level, label)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn switch_id(&self, level: u32, label: u32) -> SwitchId {
        assert!(level < self.params.n, "level out of range");
        assert!(
            label < self.params.switches_per_level(),
            "label out of range"
        );
        SwitchId::new(level * self.params.switches_per_level() + label)
    }

    /// Level of a flat switch id (0 = leaf, `n-1` = top).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn level_of(&self, sw: SwitchId) -> u32 {
        let raw = sw.index() as u32;
        assert!(raw < self.params.total_switches(), "switch id out of range");
        raw / self.params.switches_per_level()
    }

    /// Label of a flat switch id (an `(n-1)`-digit base-`k` number).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn label_of(&self, sw: SwitchId) -> u32 {
        let raw = sw.index() as u32;
        assert!(raw < self.params.total_switches(), "switch id out of range");
        raw % self.params.switches_per_level()
    }

    /// Port count of switch `sw` (`2k` inner, `k` at the top level).
    pub fn ports(&self, sw: SwitchId) -> u32 {
        self.params.ports_at_level(self.level_of(sw))
    }

    /// Where host `h` attaches: down-port `h mod k` of leaf switch
    /// `h div k`.
    ///
    /// # Panics
    ///
    /// Panics if the host id is out of range.
    pub fn host_ingress(&self, h: HostId) -> (SwitchId, PortId) {
        let h = h.index() as u32;
        assert!(h < self.params.hosts(), "host out of range");
        let sw = self.switch_id(0, h / self.params.k);
        (sw, PortId::new(h % self.params.k))
    }

    /// The cable leaving `(switch, output port)`: `Ok((next switch, input
    /// port))`, or `Err(host)` for a leaf down-port (direct delivery).
    ///
    /// A level-`l` up-port `k + u` reaches the level-`l+1` switch whose
    /// label has digit `l` replaced by `u`, arriving at that switch's
    /// down-port `digit_l(label)`; a level-`l+1` down-port `p` inverts
    /// this exactly (see the `up_down_ports_are_inverse` test).
    pub fn next_hop(&self, sw: SwitchId, out_port: PortId) -> Result<(SwitchId, PortId), HostId> {
        let k = self.params.k;
        let level = self.level_of(sw);
        let label = self.label_of(sw);
        let p = out_port.index() as u32;
        assert!(p < self.ports(sw), "port out of range");
        if p < k {
            // Down. At the leaf level this delivers to a host.
            if level == 0 {
                return Err(HostId::new(label * k + p));
            }
            let below = level - 1;
            let lower = self.with_digit(label, below, p);
            Ok((
                self.switch_id(below, lower),
                PortId::new(k + self.digit(label, below)),
            ))
        } else {
            // Up: only inner levels have up-ports, so level + 1 < n here.
            let u = p - k;
            let upper = self.with_digit(label, level, u);
            Ok((
                self.switch_id(level + 1, upper),
                PortId::new(self.digit(label, level)),
            ))
        }
    }

    /// Level of the nearest common ancestor switches of `src` and `dst`:
    /// the highest base-`k` digit where the two host addresses differ
    /// (0 when they share a leaf switch, including `src == dst`).
    pub fn nca_level(&self, src: HostId, dst: HostId) -> u32 {
        let (s, d) = (src.index() as u32, dst.index() as u32);
        let mut m = 0;
        for i in 0..self.params.n {
            if self.digit(s, i) != self.digit(d, i) {
                m = i;
            }
        }
        m
    }

    /// The deterministic route from `src` to `dst`: up-turns `k + s_j` for
    /// levels `j = 0..m` chosen from the source digits, then down-turns
    /// `d_m, …, d_0` from the destination digits (`m` = NCA level). Length
    /// `2m + 1`.
    ///
    /// # Panics
    ///
    /// Panics if either host id is out of range.
    pub fn route(&self, src: HostId, dst: HostId) -> Route {
        let hosts = self.params.hosts();
        assert!((src.index() as u32) < hosts, "source out of range");
        assert!((dst.index() as u32) < hosts, "destination out of range");
        let k = self.params.k;
        let (s, d) = (src.index() as u32, dst.index() as u32);
        let m = self.nca_level(src, dst);
        let mut turns = [0u8; MAX_STAGES];
        let mut len = 0;
        for j in 0..m {
            turns[len] = (k + self.digit(s, j)) as u8;
            len += 1;
        }
        for j in (0..=m).rev() {
            turns[len] = self.digit(d, j) as u8;
            len += 1;
        }
        Route::from_turns(dst, &turns[..len])
    }

    /// Like [`FatTreeTopology::route`], but the up-turns **above the leaf
    /// level** are built as a late-bound up-phase
    /// ([`Route::from_turns_adaptive`]): any of the `k` up-ports at each
    /// climbing switch reaches the NCA set, so switches may rebind them at
    /// forwarding time. The stored placeholders are the deterministic
    /// source-digit turns, and the down-phase is fixed — a bound route is
    /// always a valid up*/down* path.
    ///
    /// The **first** up-turn stays pinned to its deterministic value: under
    /// source-digit self-routing, leaf up-port `k + s_0` is dedicated to the
    /// one host attached at down-port `s_0`, so the level-0 climb is
    /// contention-free by construction and rebinding it could only merge
    /// otherwise-independent injection streams into shared queues. Upper
    /// levels aggregate many hosts, which is where load-aware selection
    /// pays off.
    ///
    /// ```
    /// use topology::{FatTreeParams, FatTreeTopology, HostId};
    /// let topo = FatTreeTopology::new(FatTreeParams::ft_64());
    /// let mut r = topo.route_adaptive(HostId::new(0), HostId::new(63));
    /// assert_eq!(r.up_len(), 2);
    /// assert!(!r.next_turn_rebindable()); // leaf up-turn stays pinned
    /// assert_eq!(r.all_turns(), topo.route(HostId::new(0), HostId::new(63)).all_turns());
    /// r.advance();
    /// assert!(r.next_turn_rebindable()); // the level-1 up-turn adapts
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either host id is out of range.
    pub fn route_adaptive(&self, src: HostId, dst: HostId) -> Route {
        let det = self.route(src, dst);
        let m = self.nca_level(src, dst) as usize;
        if m <= 1 {
            // Zero or one climbing level: the only up-turn (if any) is the
            // dedicated leaf port, so the route is fully deterministic.
            return det;
        }
        let mut r = Route::from_turns_adaptive(dst, det.all_turns(), m);
        r.bind_next_turn(det.all_turns()[0]);
        r
    }

    /// The up-port numbers of switch `sw` (`k..2k`; empty at the top
    /// level). Any of them is a valid next hop for a packet still in its
    /// up*/down* climbing phase.
    pub fn up_ports(&self, sw: SwitchId) -> std::ops::Range<u32> {
        let k = self.params.k;
        if self.level_of(sw) + 1 == self.params.n {
            k..k
        } else {
            k..2 * k
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    /// Every switch id of `topo`, level by level.
    fn switches(topo: &FatTreeTopology) -> impl Iterator<Item = SwitchId> {
        (0..topo.params().total_switches()).map(SwitchId::new)
    }

    #[test]
    fn presets_match_shape() {
        let t64 = FatTreeParams::ft_64();
        assert_eq!((t64.hosts(), t64.n(), t64.total_switches()), (64, 3, 48));
        let t256 = FatTreeParams::ft_256();
        assert_eq!(
            (t256.hosts(), t256.n(), t256.total_switches()),
            (256, 4, 256)
        );
        let t512 = FatTreeParams::ft_512();
        assert_eq!(
            (t512.hosts(), t512.n(), t512.total_switches()),
            (512, 3, 192)
        );
        assert_eq!(t512.max_route_turns(), 5);
        let t4k = FatTreeParams::ft_4096();
        assert_eq!((t4k.hosts(), t4k.n(), t4k.total_switches()), (4096, 3, 768));
        assert_eq!(t4k.max_route_turns(), 5);
        let t4kd = FatTreeParams::ft_4096d();
        assert_eq!(
            (t4kd.hosts(), t4kd.n(), t4kd.total_switches()),
            (4096, 6, 6144)
        );
        assert_eq!(t4kd.max_route_turns(), 11);
    }

    #[test]
    fn top_level_has_only_down_ports() {
        let p = FatTreeParams::ft_64();
        assert_eq!(p.ports_at_level(0), 8);
        assert_eq!(p.ports_at_level(1), 8);
        assert_eq!(p.ports_at_level(2), 4);
    }

    #[test]
    #[should_panic(expected = "MAX_STAGES")]
    fn too_many_levels_rejected() {
        // 7 levels need 13 turns, one past MAX_STAGES (12).
        let _ = FatTreeParams::new(2, 7);
    }

    #[test]
    fn host_attachment_is_a_bijection() {
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        let mut seen = std::collections::HashSet::new();
        for h in (0..64).map(HostId::new) {
            let (sw, port) = topo.host_ingress(h);
            assert_eq!(topo.level_of(sw), 0);
            assert!((port.index() as u32) < topo.params().k(), "not a down-port");
            assert!(seen.insert((sw, port)), "two hosts on one port");
            // The down-port delivers back to the same host.
            assert_eq!(topo.next_hop(sw, port), Err(h));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn up_down_ports_are_inverse() {
        // Climbing any up-port and then descending through the arrival
        // port's mirror returns to the starting switch — the cabling is a
        // consistent set of bidirectional links.
        for params in [
            FatTreeParams::ft_64(),
            FatTreeParams::ft_256(),
            FatTreeParams::new(2, 4),
        ] {
            let topo = FatTreeTopology::new(params);
            let k = params.k();
            for sw in switches(&topo) {
                if topo.level_of(sw) + 1 == params.n() {
                    continue;
                }
                for u in 0..k {
                    let (upper, arrive) = topo.next_hop(sw, PortId::new(k + u)).unwrap();
                    assert!((arrive.index() as u32) < k, "must arrive on a down-port");
                    let (back, back_port) = topo.next_hop(upper, arrive).unwrap();
                    assert_eq!(back, sw);
                    assert_eq!(back_port, PortId::new(k + u));
                }
            }
        }
    }

    #[test]
    fn down_links_form_complete_trees() {
        // Every switch's down-port p at level l>0 reaches a distinct
        // level-(l-1) switch; collectively each level's down-links touch
        // every switch of the level below.
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        let k = topo.params().k();
        for level in 1..topo.params().n() {
            let mut reached = std::collections::HashSet::new();
            for label in 0..topo.params().switches_per_level() {
                let sw = topo.switch_id(level, label);
                for p in 0..k {
                    let (lower, port) = topo.next_hop(sw, PortId::new(p)).unwrap();
                    assert_eq!(topo.level_of(lower), level - 1);
                    assert!(reached.insert((lower, port)), "two cables to one input");
                }
            }
            assert_eq!(reached.len(), 64);
        }
    }

    #[test]
    fn route_shape_follows_nca() {
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        // Same leaf switch: single down-turn.
        let r = topo.route(HostId::new(5), HostId::new(6));
        assert_eq!(r.all_turns(), &[2]);
        // Self-route: deliver straight back down.
        let r = topo.route(HostId::new(5), HostId::new(5));
        assert_eq!(r.all_turns(), &[1]);
        // Full-height route: src 0 (digits 0,0,0) to dst 63 (3,3,3).
        let r = topo.route(HostId::new(0), HostId::new(63));
        assert_eq!(r.all_turns(), &[4, 4, 3, 3, 3]);
        assert_eq!(topo.nca_level(HostId::new(0), HostId::new(63)), 2);
    }

    #[test]
    fn up_turns_use_source_digits() {
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        // src 27 = digits (3, 2, 1); dst 54 = digits (2, 1, 3): NCA level 2.
        let r = topo.route(HostId::new(27), HostId::new(54));
        assert_eq!(r.all_turns(), &[4 + 3, 4 + 2, 3, 1, 2]);
    }

    #[test]
    fn adaptive_route_placeholders_match_deterministic() {
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        for (s, d) in [(0u32, 63u32), (27, 54), (5, 6), (5, 5), (17, 40), (0, 5)] {
            let det = topo.route(HostId::new(s), HostId::new(d));
            let ada = topo.route_adaptive(HostId::new(s), HostId::new(d));
            assert_eq!(det.all_turns(), ada.all_turns());
            let m = topo.nca_level(HostId::new(s), HostId::new(d)) as usize;
            // One climbing level means the only up-turn is the dedicated
            // leaf port, so the route degrades to fully deterministic.
            assert_eq!(ada.up_len(), if m <= 1 { 0 } else { m });
            // The leaf up-turn is never rebindable.
            assert!(!ada.next_turn_rebindable());
        }
        // Same-leaf routes have no up-phase and stay fully deterministic.
        let r = topo.route_adaptive(HostId::new(5), HostId::new(6));
        assert!(!r.next_turn_rebindable());
        assert_eq!(r.up_len(), 0);
    }

    #[test]
    fn up_ports_cover_inner_levels_only() {
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        for sw in switches(&topo) {
            let ports = topo.up_ports(sw);
            if topo.level_of(sw) + 1 == topo.params().n() {
                assert!(ports.is_empty());
            } else {
                assert_eq!(ports, 4..8);
                for u in ports {
                    // Every up-port is cabled one level up.
                    let (upper, _) = topo.next_hop(sw, PortId::new(u)).unwrap();
                    assert_eq!(topo.level_of(upper), topo.level_of(sw) + 1);
                }
            }
        }
    }

    #[test]
    fn any_up_port_binding_still_delivers() {
        // Replace every rebindable up-turn of an adaptive route with an
        // arbitrary (non-deterministic) choice and walk the cabling:
        // up*/down* must still deliver to the destination.
        let topo = FatTreeTopology::new(FatTreeParams::ft_64());
        for (s, d, picks) in [(0u32, 63u32, [7u32]), (27, 54, [4]), (3, 60, [6])] {
            let mut route = topo.route_adaptive(HostId::new(s), HostId::new(d));
            let (mut sw, _) = topo.host_ingress(HostId::new(s));
            let mut up = 0;
            loop {
                if route.next_turn_rebindable() {
                    let pick = picks[up];
                    assert!(topo.up_ports(sw).contains(&pick));
                    route.bind_next_turn(pick as u8);
                    up += 1;
                }
                let out = PortId::new(route.advance() as u32);
                match topo.next_hop(sw, out) {
                    Ok((next, _)) => sw = next,
                    Err(host) => {
                        assert_eq!(host, HostId::new(d), "adaptive binding misrouted");
                        assert!(route.is_exhausted());
                        break;
                    }
                }
            }
            assert_eq!(up, 1, "the level-1 up-turn should have been rebindable");
        }
    }

    #[test]
    fn exhaustive_small_trees_deliver() {
        for params in [
            FatTreeParams::new(2, 2),
            FatTreeParams::new(2, 4),
            FatTreeParams::new(3, 3),
            FatTreeParams::ft_64(),
        ] {
            Topology::new(params).verify_routes();
        }
    }

    #[test]
    fn ft_512_sampled_routes_deliver() {
        // Exhaustive is 512² traces (done by tests/exhaustive.rs); keep a
        // fast coprime-stride sample in the unit suite.
        let topo = Topology::new(FatTreeParams::ft_512());
        for s in (0..512).step_by(17) {
            for d in (0..512).step_by(13) {
                let hops = topo.trace(HostId::new(s), HostId::new(d));
                assert!(hops.len() <= 5);
            }
        }
    }

    #[test]
    fn trace_levels_rise_then_fall() {
        let topo = Topology::new(FatTreeParams::ft_256());
        let hops = topo.trace(HostId::new(3), HostId::new(250));
        let levels: Vec<u32> = hops.iter().map(|&(sw, _, _)| topo.stage_of(sw)).collect();
        let peak = *levels.iter().max().unwrap();
        let up: Vec<u32> = (0..=peak).collect();
        let down: Vec<u32> = (0..peak).rev().collect();
        assert_eq!(levels, [up, down].concat());
    }
}
