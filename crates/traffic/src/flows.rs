//! Closed-loop flow workloads for the transport layer.
//!
//! Unlike the open-loop generators (which push messages at a configured
//! rate regardless of fabric state), a [`FlowSet`] describes a finite set
//! of byte transfers between host pairs. The fabric's transport layer
//! paces them against its send window and reports per-flow completion
//! times, so these are the workloads behind the FCT experiments. The one
//! pattern is [`FlowPattern::Incast`]: N sources send to one victim at
//! once, the canonical congestion-tree trigger in closed-loop form. The
//! gang is picked with the same [`GangLayout`] rules as the corner cases,
//! so the strided fat-tree geometry carries over.
//!
//! Flow sets are pure data: [`FlowSet::build`] expands them into
//! `fabric::FlowDesc` records deterministically (no randomness at all),
//! and the [`Canon`] encoding makes them spec-hashable.

use fabric::FlowDesc;
use simcore::{Canon, CanonWriter, Picos};

use crate::corner::GangLayout;

/// The shape of a [`FlowSet`]'s source/destination assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowPattern {
    /// `fanin` sources all send to one `victim` host.
    Incast {
        /// Number of attacking sources.
        fanin: u32,
        /// The victim host; never a source itself.
        victim: u32,
        /// How the attackers are distributed over the host range. A
        /// [`GangLayout::Strided`] stride must satisfy
        /// `hosts / stride == fanin`.
        layout: GangLayout,
    },
}

/// A finite, deterministic set of closed-loop flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSet {
    /// Total hosts in the network.
    pub hosts: u32,
    /// Source/destination assignment.
    pub pattern: FlowPattern,
    /// Bytes carried by each flow.
    pub flow_bytes: u64,
    /// Start time shared by all flows (a synchronized burst).
    pub start: Picos,
}

impl FlowSet {
    /// The FCT experiment's standard incast: 16 of 64 hosts send 16 KiB
    /// each to host 32, tail-range gang, starting at t = 0.
    pub fn incast64() -> FlowSet {
        FlowSet {
            hosts: 64,
            pattern: FlowPattern::Incast {
                fanin: 16,
                victim: 32,
                layout: GangLayout::TailRange,
            },
            flow_bytes: 16 * 1024,
            start: Picos::ZERO,
        }
    }

    /// Overrides the per-flow byte count.
    pub fn with_flow_bytes(mut self, bytes: u64) -> FlowSet {
        self.flow_bytes = bytes;
        self
    }

    /// Number of flows the set expands to.
    pub fn num_flows(&self) -> u32 {
        let FlowPattern::Incast { fanin, .. } = self.pattern;
        fanin
    }

    /// Checks the structural invariants [`validate`](FlowSet::validate)
    /// enforces. Returns a message describing the first violation.
    fn check(&self) -> Result<(), &'static str> {
        if self.hosts < 2 {
            return Err("flow set needs at least two hosts");
        }
        if self.flow_bytes == 0 {
            return Err("flow bytes must be positive");
        }
        let FlowPattern::Incast {
            fanin,
            victim,
            layout,
        } = self.pattern;
        if victim >= self.hosts {
            return Err("incast victim outside host range");
        }
        if fanin == 0 || fanin >= self.hosts {
            return Err("incast fanin must be in 1..hosts");
        }
        if let GangLayout::Strided { stride } = layout {
            if stride == 0 || !self.hosts.is_multiple_of(stride) || self.hosts / stride != fanin {
                return Err("incast stride must satisfy hosts / stride == fanin");
            }
        }
        Ok(())
    }

    /// Panics if the set violates a structural invariant. Binaries call
    /// this right after flag parsing.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// Whether host `h` attacks in an incast (same substitution rules as
    /// [`CornerCase::is_hotspot_source`](crate::corner::CornerCase::is_hotspot_source):
    /// a victim on a nominal gang slot is skipped and its neighbour joins,
    /// keeping the fan-in constant).
    pub fn is_incast_source(&self, h: u32) -> bool {
        let FlowPattern::Incast {
            fanin,
            victim,
            layout,
        } = self.pattern;
        match layout {
            GangLayout::TailRange => {
                let gang_start = self.hosts - fanin;
                if victim >= gang_start {
                    if h == victim {
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
                if on_slot(victim) {
                    if h == victim {
                        return false;
                    }
                    if h + 1 == victim {
                        return true;
                    }
                }
                on_slot(h)
            }
        }
    }

    /// Expands the set into per-flow descriptors, ordered by source.
    pub fn build(&self) -> Vec<FlowDesc> {
        self.validate();
        let FlowPattern::Incast { victim, .. } = self.pattern;
        (0..self.hosts)
            .filter(|&h| self.is_incast_source(h))
            .map(|src| FlowDesc {
                src,
                dst: victim,
                bytes: self.flow_bytes,
                start: self.start,
            })
            .collect()
    }
}

impl Canon for FlowPattern {
    /// A leading tag byte (0, the incast) stays in the encoding of the
    /// one pattern, so spec hashes and cache keys over a flow set hold.
    fn encode_canon(&self, w: &mut CanonWriter) {
        let FlowPattern::Incast {
            fanin,
            victim,
            layout,
        } = self;
        w.u8(0);
        w.u32(*fanin);
        w.u32(*victim);
        layout.encode_canon(w);
    }
}

impl Canon for FlowSet {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.hosts);
        self.pattern.encode_canon(w);
        w.u64(self.flow_bytes);
        self.start.encode_canon(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fat-tree incast geometry: one attacker under each of the 16
    /// leaf switches, victim host 21 off the stride.
    fn strided() -> FlowSet {
        FlowSet {
            pattern: FlowPattern::Incast {
                fanin: 16,
                victim: 21,
                layout: GangLayout::Strided { stride: 4 },
            },
            ..FlowSet::incast64()
        }
    }

    #[test]
    fn incast_presets_expand_correctly() {
        let f = FlowSet::incast64();
        let flows = f.build();
        assert_eq!(flows.len(), 16);
        assert!(flows.iter().all(|d| d.dst == 32 && d.src >= 48));
        assert!(flows.iter().all(|d| d.bytes == 16 * 1024));

        let flows = strided().build();
        assert_eq!(flows.len(), 16);
        assert!(flows.iter().all(|d| d.dst == 21 && d.src % 4 == 3));
        // One attacker under each 4-host leaf switch.
        let leaves: std::collections::HashSet<u32> = flows.iter().map(|d| d.src / 4).collect();
        assert_eq!(leaves.len(), 16);
    }

    /// The incast is pinned byte for byte, and every field of a set
    /// reaches the bytes: two sets that differ anywhere encode differently.
    #[test]
    fn canon_bytes_pin_the_patterns_and_differ_by_field() {
        let incast = FlowPattern::Incast {
            fanin: 16,
            victim: 32,
            layout: GangLayout::TailRange,
        };
        assert_eq!(incast.canon_bytes(), [0, 16, 0, 0, 0, 32, 0, 0, 0, 0]);

        let base = FlowSet::incast64();
        let incast = |fanin, victim, layout| FlowSet {
            pattern: FlowPattern::Incast {
                fanin,
                victim,
                layout,
            },
            ..base
        };
        let sets = [
            base,
            FlowSet { hosts: 128, ..base },
            base.with_flow_bytes(1024),
            FlowSet {
                start: Picos::from_us(1),
                ..base
            },
            incast(8, 32, GangLayout::TailRange),
            incast(16, 33, GangLayout::TailRange),
            strided(),
            incast(16, 21, GangLayout::Strided { stride: 8 }),
        ];
        let encodings: Vec<Vec<u8>> = sets.iter().map(Canon::canon_bytes).collect();
        for (i, bytes) in encodings.iter().enumerate() {
            for (j, other) in encodings[..i].iter().enumerate() {
                assert_ne!(bytes, other, "{:?} and {:?}", sets[i], sets[j]);
            }
        }
    }

    #[test]
    fn check_rejects_bad_geometry() {
        let bad = [
            FlowSet {
                hosts: 64,
                pattern: FlowPattern::Incast {
                    fanin: 16,
                    victim: 64, // outside host range
                    layout: GangLayout::TailRange,
                },
                flow_bytes: 1024,
                start: Picos::ZERO,
            },
            FlowSet {
                hosts: 64,
                pattern: FlowPattern::Incast {
                    fanin: 16,
                    victim: 0,
                    layout: GangLayout::Strided { stride: 8 }, // 64/8 != 16
                },
                flow_bytes: 1024,
                start: Picos::ZERO,
            },
            FlowSet {
                hosts: 64,
                pattern: FlowPattern::Incast {
                    fanin: 64, // every host, the victim included
                    victim: 0,
                    layout: GangLayout::TailRange,
                },
                flow_bytes: 1024,
                start: Picos::ZERO,
            },
        ];
        for f in bad {
            assert!(f.check().is_err(), "{f:?}");
        }
    }

    // Satellite property test: for every preset-shaped incast across both
    // layouts and a spread of victims, each expanded flow must name valid
    // hosts and the victim must never attack itself.
    #[test]
    fn incast_geometry_always_valid() {
        for hosts in [16u32, 64, 256] {
            let fanin = hosts / 4;
            for victim in 0..hosts {
                for layout in [GangLayout::TailRange, GangLayout::Strided { stride: 4 }] {
                    let f = FlowSet {
                        hosts,
                        pattern: FlowPattern::Incast {
                            fanin,
                            victim,
                            layout,
                        },
                        flow_bytes: 1024,
                        start: Picos::ZERO,
                    };
                    let flows = f.build();
                    assert_eq!(flows.len(), fanin as usize, "gang size is constant");
                    let srcs: std::collections::HashSet<u32> =
                        flows.iter().map(|d| d.src).collect();
                    assert_eq!(srcs.len(), fanin as usize, "sources are distinct");
                    for d in &flows {
                        assert!(d.src < hosts, "source {} is a valid host", d.src);
                        assert!(d.dst < hosts, "destination {} is a valid host", d.dst);
                        assert_ne!(d.src, d.dst, "victim never attacks itself");
                    }
                }
            }
        }
    }
}
