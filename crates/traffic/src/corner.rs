//! The corner-case scenarios of Table 1 (and their Figure-6 scaling).
//!
//! Both corner cases run background random traffic on most sources for the
//! whole simulation while a subset of sources gang up on one destination at
//! full link rate during a 170 µs window, forming a congestion tree:
//!
//! | case | random sources | random rate | hotspot sources | window |
//! |------|----------------|-------------|-----------------|--------|
//! | 1    | 48 of 64       | 50 %        | 16 → host 32    | 800–970 µs |
//! | 2    | 48 of 64       | 100 %       | 16 → host 32    | 800–970 µs |
//!
//! Figure 6 scales case 2: 192 random + 64 hotspot sources (256 hosts) and
//! 384 random + 128 hotspot sources (512 hosts).

use fabric::{ConstantRateSource, MessageSource};
use simcore::{Canon, CanonWriter, Picos};
use topology::HostId;

use crate::RandomUniformSource;

/// How the hotspot gang is picked from the host range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GangLayout {
    /// The gang is the last `hosts - random_sources` hosts — the paper's
    /// MIN scenarios, where host numbering has no locality structure.
    TailRange,
    /// One gang member out of every `stride` consecutive hosts (those with
    /// `h % stride == stride - 1`). On a k-ary n-tree with `stride == k`
    /// this plants exactly one attacker under every leaf switch, so the
    /// congestion tree's branches climb through all levels of the fat tree
    /// instead of staying inside one subtree.
    Strided {
        /// Gang spacing; must divide `hosts` with `hosts / stride` equal
        /// to the gang size.
        stride: u32,
    },
}

impl Canon for GangLayout {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            GangLayout::TailRange => w.u8(0),
            GangLayout::Strided { stride } => {
                w.u8(1);
                w.u32(*stride);
            }
        }
    }
}

/// Parameters of a corner-case scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerCase {
    /// Total hosts in the network.
    pub hosts: u32,
    /// Number of sources injecting background random traffic (the rest
    /// form the hotspot gang).
    pub random_sources: u32,
    /// Background injection rate as a fraction of link bandwidth.
    pub random_rate: f64,
    /// The hotspot destination.
    pub hotspot_dst: HostId,
    /// Hotspot burst window start.
    pub hotspot_start: Picos,
    /// Hotspot burst window end.
    pub hotspot_end: Picos,
    /// Message/packet size in bytes.
    pub msg_bytes: u32,
    /// Seed for the random-destination streams.
    pub seed: u64,
    /// How the gang members are distributed over the host range.
    pub gang: GangLayout,
}

impl CornerCase {
    /// Table 1, corner case 1: 48 random sources at 50%, 16 hotspot
    /// sources to host 32 at 100% during 800–970 µs.
    pub fn case1_64() -> CornerCase {
        CornerCase {
            hosts: 64,
            random_sources: 48,
            random_rate: 0.5,
            hotspot_dst: HostId::new(32),
            hotspot_start: Picos::from_us(800),
            hotspot_end: Picos::from_us(970),
            msg_bytes: 64,
            seed: 2005,
            gang: GangLayout::TailRange,
        }
    }

    /// Table 1, corner case 2: like case 1 but background at 100%.
    pub fn case2_64() -> CornerCase {
        CornerCase {
            random_rate: 1.0,
            ..CornerCase::case1_64()
        }
    }

    /// Figure 6(a): 256-host network, 192 random sources at 100%, 64
    /// hotspot sources during 170 µs.
    pub fn case2_256() -> CornerCase {
        CornerCase {
            hosts: 256,
            random_sources: 192,
            random_rate: 1.0,
            hotspot_dst: HostId::new(128),
            ..CornerCase::case1_64()
        }
    }

    /// Figure 6(b): 512-host network, 384 random sources at 100%, 128
    /// hotspot sources during 170 µs.
    pub fn case2_512() -> CornerCase {
        CornerCase {
            hosts: 512,
            random_sources: 384,
            random_rate: 1.0,
            hotspot_dst: HostId::new(256),
            ..CornerCase::case1_64()
        }
    }

    /// Fat-tree hotspot scenario (64 hosts, 4-ary 3-tree): like corner
    /// case 2, but the 16-member gang is strided so each of the 16 leaf
    /// switches hosts exactly one attacker — the congestion tree reaches
    /// the hotspot's full up/down path set rather than one subtree.
    pub fn fattree_64() -> CornerCase {
        CornerCase {
            // 21 ≡ 1 (mod 4): off the gang stride, so membership needs no
            // substitution, and off the hosts' own leaf ports of gang
            // members (digits of 21 are (1,1,1)).
            hotspot_dst: HostId::new(21),
            gang: GangLayout::Strided { stride: 4 },
            ..CornerCase::case2_64()
        }
    }

    /// Fat-tree hotspot scenario at 512 hosts (8-ary 3-tree): one attacker
    /// under every leaf switch (64 of 512 hosts), background at 100%.
    pub fn fattree_512() -> CornerCase {
        CornerCase {
            hosts: 512,
            random_sources: 448,
            hotspot_dst: HostId::new(257),
            gang: GangLayout::Strided { stride: 8 },
            ..CornerCase::case2_64()
        }
    }

    /// Fat-tree hotspot at 4096 hosts (16-ary 3-tree): one attacker under
    /// every one of the 256 leaf switches, background at 100%.
    pub fn fattree_4096() -> CornerCase {
        CornerCase {
            hosts: 4096,
            random_sources: 3840,
            // 2049 ≡ 1 (mod 16): off the gang stride, so membership needs
            // no substitution.
            hotspot_dst: HostId::new(2049),
            gang: GangLayout::Strided { stride: 16 },
            ..CornerCase::case2_64()
        }
    }

    /// Overrides the message/packet size (the paper also runs 512 bytes).
    pub fn with_msg_bytes(mut self, bytes: u32) -> CornerCase {
        self.msg_bytes = bytes;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> CornerCase {
        self.seed = seed;
        self
    }

    /// Scales the whole scenario's time axis (useful for fast test runs):
    /// the hotspot window becomes `start/f .. end/f`.
    pub fn shrunk(mut self, factor: u64) -> CornerCase {
        self.hotspot_start = self.hotspot_start / factor;
        self.hotspot_end = self.hotspot_end / factor;
        self
    }

    /// Number of hotspot sources.
    pub fn hotspot_sources(&self) -> u32 {
        self.hosts - self.random_sources
    }

    /// Whether host `h` belongs to the hotspot gang (see [`GangLayout`]).
    /// The hotspot destination never attacks itself: if it falls on a
    /// nominal gang slot, a neighbouring host joins instead (host
    /// `random_sources - 1` for [`GangLayout::TailRange`], `dst - 1` for
    /// [`GangLayout::Strided`]), keeping the gang size constant.
    pub fn is_hotspot_source(&self, h: u32) -> bool {
        let dst = self.hotspot_dst.index() as u32;
        match self.gang {
            GangLayout::TailRange => {
                let gang_start = self.random_sources;
                if dst >= gang_start {
                    // The destination sits inside the nominal gang range:
                    // it stays a random source and the host just below the
                    // range joins.
                    if h == dst {
                        return false;
                    }
                    if h == gang_start - 1 {
                        return true;
                    }
                }
                h >= gang_start
            }
            GangLayout::Strided { stride } => {
                let on_slot = |x: u32| x % stride == stride - 1;
                if on_slot(dst) {
                    if h == dst {
                        return false;
                    }
                    if h + 1 == dst {
                        return true;
                    }
                }
                on_slot(h)
            }
        }
    }

    /// Builds the per-host message sources (index = host id), `sim_end`
    /// bounding the background traffic.
    pub fn build_sources(&self, sim_end: Picos) -> Vec<Box<dyn MessageSource>> {
        (0..self.hosts)
            .map(|h| {
                if self.is_hotspot_source(h) {
                    let interval = Picos::from_ns(self.msg_bytes as u64); // 100% of 1 B/ns
                    Box::new(ConstantRateSource::new(
                        self.hotspot_dst,
                        self.msg_bytes,
                        interval,
                        self.hotspot_start,
                        self.hotspot_end,
                    )) as Box<dyn MessageSource>
                } else {
                    Box::new(
                        RandomUniformSource::new(
                            self.hosts,
                            Some(HostId::new(h)),
                            self.msg_bytes,
                            self.random_rate,
                        )
                        .window(Picos::ZERO, sim_end)
                        .seed(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(h as u64))
                        .build(),
                    ) as Box<dyn MessageSource>
                }
            })
            .collect()
    }
}

impl Canon for CornerCase {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.hosts);
        w.u32(self.random_sources);
        w.f64(self.random_rate);
        w.u32(self.hotspot_dst.index() as u32);
        self.hotspot_start.encode_canon(w);
        self.hotspot_end.encode_canon(w);
        w.u32(self.msg_bytes);
        w.u64(self.seed);
        self.gang.encode_canon(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gang layouts are pinned byte for byte, and every field of a
    /// corner case reaches the bytes: a case that differs from Table 1's
    /// first in any one field encodes differently from it and from every
    /// other such variant.
    #[test]
    fn every_field_changes_the_canonical_bytes() {
        assert_eq!(GangLayout::TailRange.canon_bytes(), [0]);
        assert_eq!(
            GangLayout::Strided { stride: 4 }.canon_bytes(),
            [1, 4, 0, 0, 0]
        );
        let edits: [fn(&mut CornerCase); 10] = [
            |c| c.hosts += 1,
            |c| c.random_sources += 1,
            |c| c.random_rate /= 2.0,
            |c| c.hotspot_dst = HostId::new(33),
            |c| c.hotspot_start = Picos::from_us(801),
            |c| c.hotspot_end = Picos::from_us(971),
            |c| c.msg_bytes += 1,
            |c| c.seed += 1,
            |c| c.gang = GangLayout::Strided { stride: 4 },
            |c| c.gang = GangLayout::Strided { stride: 2 },
        ];
        let base = CornerCase::case1_64();
        let mut encodings = vec![base.canon_bytes()];
        for edit in edits {
            let mut c = base;
            edit(&mut c);
            encodings.push(c.canon_bytes());
        }
        for (i, bytes) in encodings.iter().enumerate() {
            for (j, other) in encodings[..i].iter().enumerate() {
                assert_ne!(bytes, other, "variants {i} and {j}");
            }
        }
    }

    #[test]
    fn table1_parameters() {
        let c1 = CornerCase::case1_64();
        assert_eq!(c1.hosts, 64);
        assert_eq!(c1.random_sources, 48);
        assert_eq!(c1.hotspot_sources(), 16);
        assert_eq!(c1.random_rate, 0.5);
        assert_eq!(c1.hotspot_dst, HostId::new(32));
        assert_eq!(c1.hotspot_start, Picos::from_us(800));
        assert_eq!(c1.hotspot_end, Picos::from_us(970));
        let c2 = CornerCase::case2_64();
        assert_eq!(c2.random_rate, 1.0);
    }

    #[test]
    fn figure6_scaling() {
        let a = CornerCase::case2_256();
        assert_eq!(
            (a.hosts, a.random_sources, a.hotspot_sources()),
            (256, 192, 64)
        );
        let b = CornerCase::case2_512();
        assert_eq!(
            (b.hosts, b.random_sources, b.hotspot_sources()),
            (512, 384, 128)
        );
        // Window length stays 170 µs.
        assert_eq!(b.hotspot_end - b.hotspot_start, Picos::from_us(170));
    }

    #[test]
    fn gang_membership_avoids_destination() {
        // dst 32 lies within hosts 48..64? No — within 0..48, so the gang
        // is simply the last 16 hosts.
        let c = CornerCase::case1_64();
        let gang: Vec<u32> = (0..64).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), 16);
        assert!(gang.iter().all(|&h| h >= 48));
        assert!(!gang.contains(&32));

        // Force the destination inside the gang range: membership shifts.
        let c = CornerCase {
            hotspot_dst: HostId::new(60),
            ..c
        };
        let gang: Vec<u32> = (0..64).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), 16);
        assert!(!gang.contains(&60));
        assert!(gang.contains(&47));
    }

    #[test]
    fn strided_gang_covers_every_leaf() {
        let c = CornerCase::fattree_64();
        let gang: Vec<u32> = (0..64).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), c.hotspot_sources() as usize);
        assert_eq!(gang, (0..16).map(|i| 4 * i + 3).collect::<Vec<u32>>());
        // One attacker under each of the 16 leaf switches.
        let leaves: std::collections::HashSet<u32> = gang.iter().map(|h| h / 4).collect();
        assert_eq!(leaves.len(), 16);
        assert!(!gang.contains(&c.hotspot_dst.index().try_into().unwrap()));

        let c = CornerCase::fattree_512();
        let gang: Vec<u32> = (0..512).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), 64);
        let leaves: std::collections::HashSet<u32> = gang.iter().map(|h| h / 8).collect();
        assert_eq!(leaves.len(), 64);

        // 16-ary 3-tree: one attacker under each of the 256 leaf switches.
        let c = CornerCase::fattree_4096();
        let gang: Vec<u32> = (0..4096).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), 256);
        let leaves: std::collections::HashSet<u32> = gang.iter().map(|h| h / 16).collect();
        assert_eq!(leaves.len(), 256);
        assert!(!gang.contains(&c.hotspot_dst.index().try_into().unwrap()));
    }

    #[test]
    fn strided_gang_skips_destination_on_slot() {
        // Force the destination onto a gang slot: it stays a random
        // source and its left neighbour joins, keeping the size constant.
        let c = CornerCase {
            hotspot_dst: HostId::new(23), // 23 % 4 == 3
            ..CornerCase::fattree_64()
        };
        let gang: Vec<u32> = (0..64).filter(|&h| c.is_hotspot_source(h)).collect();
        assert_eq!(gang.len(), 16);
        assert!(!gang.contains(&23));
        assert!(gang.contains(&22));
    }

    // Property test over the full victim range and both layouts: the gang
    // always has exactly `hotspot_sources()` members, every member is a
    // valid host, and the destination never attacks itself.
    #[test]
    fn gang_assignment_always_valid() {
        let shapes = [
            (64u32, 48u32, GangLayout::TailRange),
            (64, 48, GangLayout::Strided { stride: 4 }),
            (256, 192, GangLayout::Strided { stride: 4 }),
            (512, 448, GangLayout::Strided { stride: 8 }),
        ];
        for (hosts, random_sources, gang) in shapes {
            for dst in 0..hosts {
                let c = CornerCase {
                    hosts,
                    random_sources,
                    hotspot_dst: HostId::new(dst),
                    gang,
                    ..CornerCase::case2_64()
                };
                let members: Vec<u32> = (0..hosts).filter(|&h| c.is_hotspot_source(h)).collect();
                assert_eq!(
                    members.len(),
                    c.hotspot_sources() as usize,
                    "gang size constant for dst {dst} under {gang:?}"
                );
                assert!(members.iter().all(|&h| h < hosts), "members are hosts");
                assert!(
                    !members.contains(&dst),
                    "dst {dst} never attacks itself under {gang:?}"
                );
            }
        }
    }

    #[test]
    fn sources_match_spec() {
        let c = CornerCase::case1_64().shrunk(100); // hotspot at 8–9.7 µs
        let mut sources = c.build_sources(Picos::from_us(20));
        // Host 0: background random at 50%.
        let m = sources[0].next_message().unwrap();
        assert_eq!(m.at, Picos::ZERO);
        assert_eq!(m.bytes, 64);
        // Host 63: hotspot source, first message at the window start.
        let m = sources[63].next_message().unwrap();
        assert_eq!(m.at, Picos::from_us(8));
        assert_eq!(m.dst, HostId::new(32));
        // Full rate: next message 64 ns later.
        let m2 = sources[63].next_message().unwrap();
        assert_eq!(m2.at, Picos::from_us(8) + Picos::from_ns(64));
    }

    #[test]
    fn message_size_override() {
        let c = CornerCase::case2_64().with_msg_bytes(512);
        let mut sources = c.build_sources(Picos::from_us(1));
        let m = sources[0].next_message().unwrap();
        assert_eq!(m.bytes, 512);
    }
}
