//! Congestion-tree path specifications (turnpool subsets).

use std::fmt;

use crate::route::MAX_STAGES;
use crate::Route;

/// The path from a given switch port to the root of a congestion tree,
/// encoded as the sequence of turns (output-port digits) a packet takes
/// from that port to reach the root.
///
/// This is what a RECN CAM line stores. Because routing is deterministic,
/// a packet sitting at that port will cross the root **iff** this sequence
/// is a prefix of the packet's remaining turns:
///
/// ```
/// use topology::{HostId, PathSpec, Route};
/// let pkt = Route::to_host(HostId::new(27), 4, 3); // turns [1, 2, 3]
/// let tree = PathSpec::from_turns(&[1, 2]);        // root 2 hops away
/// assert!(tree.matches(&pkt));
/// assert!(!PathSpec::from_turns(&[2]).matches(&pkt));
/// ```
///
/// An **empty** path is valid and matches every packet: it denotes a root
/// located at the very port holding the CAM line (used by a NIC injection
/// port whose own link is the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathSpec {
    turns: [u8; MAX_STAGES],
    len: u8,
}

impl PathSpec {
    /// The empty path (root at this very port).
    pub const EMPTY: PathSpec = PathSpec {
        turns: [0; MAX_STAGES],
        len: 0,
    };

    /// Builds a path from explicit turns.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_STAGES`] turns are given.
    pub fn from_turns(turns: &[u8]) -> PathSpec {
        assert!(turns.len() <= MAX_STAGES, "path too long");
        let mut t = [0u8; MAX_STAGES];
        t[..turns.len()].copy_from_slice(turns);
        PathSpec {
            turns: t,
            len: turns.len() as u8,
        }
    }

    /// The turns, root-most last.
    pub fn turns(&self) -> &[u8] {
        &self.turns[..self.len as usize]
    }

    /// Number of hops to the root.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the root is at this very port.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path seen from one hop further upstream: the upstream port first
    /// takes `turn`, then follows `self`. This is the paper's "extend the
    /// path information with the turn corresponding to the current switch"
    /// performed when a notification moves from an output port to the input
    /// ports of the same switch.
    ///
    /// # Panics
    ///
    /// Panics if the path is already [`MAX_STAGES`] turns long.
    pub fn prepend(&self, turn: u8) -> PathSpec {
        assert!((self.len as usize) < MAX_STAGES, "path at maximum length");
        let mut t = [0u8; MAX_STAGES];
        t[0] = turn;
        t[1..=self.len as usize].copy_from_slice(self.turns());
        PathSpec {
            turns: t,
            len: self.len + 1,
        }
    }

    /// Path seen from one hop downstream (drops the leading turn), the
    /// inverse of [`prepend`](Self::prepend). Returns the dropped turn and
    /// the shortened path, or `None` if empty.
    pub fn split_first(&self) -> Option<(u8, PathSpec)> {
        if self.is_empty() {
            return None;
        }
        let mut t = [0u8; MAX_STAGES];
        t[..self.len as usize - 1].copy_from_slice(&self.turns[1..self.len as usize]);
        Some((
            self.turns[0],
            PathSpec {
                turns: t,
                len: self.len - 1,
            },
        ))
    }

    /// Whether a packet carrying `route` (at the port owning this path)
    /// will cross the root: true iff `self` is a prefix of the packet's
    /// remaining turns.
    pub fn matches(&self, route: &Route) -> bool {
        self.matches_turns(route.remaining())
    }

    /// Prefix test against an explicit remaining-turn slice.
    pub fn matches_turns(&self, remaining: &[u8]) -> bool {
        let t = self.turns();
        remaining.len() >= t.len() && &remaining[..t.len()] == t
    }

    /// Whether `self` is a (non-strict) prefix of `other` — true when
    /// `other`'s tree root lies beyond `self`'s along the same path, i.e.
    /// `other` describes a subtree nested inside `self`'s region.
    pub fn is_prefix_of(&self, other: &PathSpec) -> bool {
        other.len() >= self.len() && &other.turns()[..self.len()] == self.turns()
    }
}

impl fmt::Display for PathSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path[")?;
        for d in self.turns() {
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostId;

    #[test]
    fn prefix_matching() {
        let p = PathSpec::from_turns(&[2, 1]);
        assert!(p.matches_turns(&[2, 1]));
        assert!(p.matches_turns(&[2, 1, 3]));
        assert!(!p.matches_turns(&[2]));
        assert!(!p.matches_turns(&[1, 2, 1]));
        assert!(!p.matches_turns(&[]));
        // Seeded sweep: matching is exactly the naive slice-prefix test,
        // and prepend/split_first round-trip on every path with room.
        let mut rng = simcore::Xoshiro256::new(0x9a7b);
        let turns = |rng: &mut simcore::Xoshiro256| -> Vec<u8> {
            (0..rng.next_below(8))
                .map(|_| rng.next_below(4) as u8)
                .collect()
        };
        for _ in 0..2000 {
            let (path, remaining) = (turns(&mut rng), turns(&mut rng));
            let p = PathSpec::from_turns(&path);
            assert_eq!(p.turns(), &path[..]);
            assert_eq!(p.matches_turns(&remaining), remaining.starts_with(&path));
            let extra = rng.next_below(4) as u8;
            let (head, rest) = p.prepend(extra).split_first().unwrap();
            assert_eq!((head, rest), (extra, p));
        }
    }

    #[test]
    fn empty_path_matches_everything() {
        let p = PathSpec::EMPTY;
        assert!(p.matches_turns(&[]));
        assert!(p.matches_turns(&[3, 3, 3]));
        assert!(p.is_empty());
    }

    #[test]
    fn prepend_and_split_are_inverse() {
        let p = PathSpec::from_turns(&[1, 2]);
        let q = p.prepend(3);
        assert_eq!(q.turns(), &[3, 1, 2]);
        assert_eq!(q.len(), 3);
        let (turn, rest) = q.split_first().unwrap();
        assert_eq!(turn, 3);
        assert_eq!(rest, p);
        assert!(PathSpec::EMPTY.split_first().is_none());
    }

    #[test]
    fn matches_route_semantics() {
        let mut route = Route::to_host(HostId::new(27), 4, 3); // [1,2,3]
        let at_injection = PathSpec::from_turns(&[1, 2, 3]);
        let at_stage1_in = PathSpec::from_turns(&[2, 3]);
        assert!(at_injection.matches(&route));
        assert!(!at_stage1_in.matches(&route));
        route.advance(); // consumed the stage-0 turn
        assert!(at_stage1_in.matches(&route));
        assert!(!at_injection.matches(&route));
        // At every point of every route: each prefix of the remaining
        // turns matches, a wrong first turn never does.
        for dst in 0..64 {
            let mut route = Route::to_host(HostId::new(dst), 4, 3);
            while !route.is_exhausted() {
                let rem = route.remaining().to_vec();
                for take in 0..=rem.len() {
                    assert!(PathSpec::from_turns(&rem[..take]).matches(&route));
                }
                assert!(!PathSpec::from_turns(&[(rem[0] + 1) % 4]).matches(&route));
                route.advance();
            }
        }
    }

    #[test]
    fn nested_trees_prefix_relation() {
        let big = PathSpec::from_turns(&[1]); // root one hop away
        let sub = PathSpec::from_turns(&[1, 2]); // deeper root, same direction
        assert!(big.is_prefix_of(&sub));
        assert!(!sub.is_prefix_of(&big));
        assert!(big.is_prefix_of(&big));
        assert!(PathSpec::EMPTY.is_prefix_of(&big));
    }

    #[test]
    #[should_panic(expected = "path at maximum length")]
    fn prepend_overflow_panics() {
        let mut p = PathSpec::EMPTY;
        for _ in 0..=MAX_STAGES {
            p = p.prepend(0);
        }
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(PathSpec::from_turns(&[3, 0, 1]).to_string(), "path[301]");
        assert_eq!(PathSpec::EMPTY.to_string(), "path[]");
    }
}
