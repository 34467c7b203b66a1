//! The per-port CAM: path → SAQ association with longest-prefix lookup.

use std::fmt;

use topology::{PathSpec, Route};

/// Handle to an allocated SAQ (CAM line). Carries a generation counter so a
/// stale handle (marker for a line that was deallocated and reallocated)
/// can be detected and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaqId {
    line: u8,
    generation: u32,
}

impl SaqId {
    /// The CAM line index, used by the fabric to index its parallel queue
    /// storage.
    pub fn line(self) -> usize {
        self.line as usize
    }

    /// The allocation generation of the line this handle refers to.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for SaqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "saq{}#{}", self.line, self.generation)
    }
}

/// One CAM line and the control state of its SAQ.
#[derive(Debug, Clone)]
pub(crate) struct CamLine {
    pub path: PathSpec,
    pub generation: u32,
    /// Bytes currently stored in the SAQ (mirrors fabric storage).
    pub occupancy: u64,
    /// Packets currently stored.
    pub packets: u32,
    /// In-order markers not yet consumed. A fresh SAQ places one marker in
    /// the normal queue plus one in every existing SAQ whose path is a
    /// proper prefix of its own (those queues may hold older packets that
    /// will reclassify into this SAQ); it may not transmit until all of
    /// them reached the head of their queues.
    pub markers_outstanding: u8,
    /// Ingress: upward-crossing detector. Propagation fires only when
    /// occupancy crosses the threshold from below while armed; re-armed
    /// when the occupancy dips below the threshold, or when a released
    /// token comes home, so the tree can regrow.
    pub armed: bool,
    /// Ingress: a notification was sent upstream (flag of §3.4).
    pub notified_upstream: bool,
    /// Ingress: the upstream egress acked the notification, so Xoff has a
    /// SAQ to address.
    pub acked: bool,
    /// Ingress: Xoff currently asserted toward the upstream SAQ.
    pub xoff_sent: bool,
    /// Egress: Xoff received from the downstream SAQ — must not transmit.
    pub remote_xoff: bool,
    /// Egress: has reached the propagation threshold — notify inputs on
    /// forward. Never cleared while the line lives.
    pub propagating: bool,
    /// Egress: bitmask of same-switch input ports already notified.
    pub notified_inputs: u64,
    /// Whether the SAQ has ever held a packet. Deallocation is triggered
    /// by the nonempty→empty *transition* (paper §3.5 "becomes empty");
    /// never-used SAQs are reclaimed by the fabric's idle timer instead,
    /// which prevents an allocate/deallocate livelock when a notification
    /// races an empty normal queue.
    pub ever_used: bool,
    /// Tokens handed to upstream children (accepted notifications).
    pub tokens_sent: u32,
    /// Tokens returned by upstream children.
    pub tokens_returned: u32,
}

impl CamLine {
    fn new(path: PathSpec, generation: u32) -> Self {
        CamLine {
            path,
            generation,
            occupancy: 0,
            packets: 0,
            markers_outstanding: 0,
            armed: true,
            notified_upstream: false,
            acked: false,
            xoff_sent: false,
            remote_xoff: false,
            propagating: false,
            notified_inputs: 0,
            ever_used: false,
            tokens_sent: 0,
            tokens_returned: 0,
        }
    }

    /// A leaf owns its token: every child token has come home (or none were
    /// ever sent).
    pub fn is_leaf(&self) -> bool {
        self.tokens_sent == self.tokens_returned
    }

    /// Whether the SAQ is still waiting for in-order markers.
    pub fn is_blocked(&self) -> bool {
        self.markers_outstanding > 0
    }

    /// An empty, unblocked leaf: no packet stored, no marker outstanding,
    /// every child token home. The state `RecnPort::dealloc` requires and
    /// the idle-reclaim timer looks for.
    pub fn is_empty_leaf(&self) -> bool {
        self.packets == 0 && self.is_leaf() && !self.is_blocked()
    }

    /// An empty leaf that has held a packet: it deallocates the moment a
    /// marker or a token completes the condition. A never-used one is left
    /// to the idle timer (see `ever_used`).
    pub fn is_drained_leaf(&self) -> bool {
        self.ever_used && self.is_empty_leaf()
    }
}

/// The content-addressable memory of one port: up to `max_saqs` lines, each
/// binding a [`PathSpec`] to SAQ control state, with longest-prefix-match
/// lookup over a packet's remaining turns.
///
/// The lines are the paper's dynamically allocated resource, and the table
/// treats them so: a table owns no line storage until its first
/// [`allocate`](Self::allocate) — the moment a congestion tree reaches the
/// port — and then keeps the storage for good, so a tree that comes and goes
/// at one port allocates once ([`backing_bytes`](Self::backing_bytes)).
///
/// ```
/// use recn::CamTable;
/// use topology::PathSpec;
///
/// let mut cam = CamTable::new(4);
/// let big = cam.allocate(PathSpec::from_turns(&[2])).unwrap();
/// let sub = cam.allocate(PathSpec::from_turns(&[2, 1])).unwrap();
/// // Longest match wins: packets deeper into the nested tree use `sub`.
/// assert_eq!(cam.longest_match(&[2, 1, 3]), Some(sub));
/// assert_eq!(cam.longest_match(&[2, 0, 3]), Some(big));
/// assert_eq!(cam.longest_match(&[0, 1, 3]), None);
/// ```
#[derive(Debug, Clone)]
pub struct CamTable {
    /// Empty until the first `allocate`, `capacity` lines from then on.
    lines: Box<[Option<CamLine>]>,
    next_generation: u32,
    capacity: u8,
    in_use: u8,
    /// High-water mark of simultaneously allocated lines.
    peak_in_use: u8,
}

impl CamTable {
    /// Creates a CAM with `max_saqs` lines.
    ///
    /// # Panics
    ///
    /// Panics if `max_saqs` is zero or exceeds 64.
    pub fn new(max_saqs: usize) -> CamTable {
        assert!((1..=64).contains(&max_saqs), "CAM size must be in 1..=64");
        CamTable {
            lines: Box::default(),
            next_generation: 0,
            capacity: max_saqs as u8,
            in_use: 0,
            peak_in_use: 0,
        }
    }

    /// Number of lines currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use as usize
    }

    /// Highest number of lines ever allocated simultaneously.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use as usize
    }

    /// Total number of lines.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Bytes of line storage this table owns on the heap: zero until the
    /// first [`allocate`](Self::allocate), every line from then on.
    pub fn backing_bytes(&self) -> u64 {
        std::mem::size_of_val(&*self.lines) as u64
    }

    /// Allocates a line for `path`. Returns `None` if the CAM is full.
    ///
    /// The caller must ensure no line with the same path exists
    /// (see [`find_path`](Self::find_path)).
    pub fn allocate(&mut self, path: PathSpec) -> Option<SaqId> {
        debug_assert!(self.find_path(&path).is_none(), "duplicate path in CAM");
        if self.lines.is_empty() {
            self.lines = vec![None; self.capacity()].into_boxed_slice();
        }
        let free = self.lines.iter().position(Option::is_none)?;
        let generation = self.next_generation;
        self.next_generation = self.next_generation.wrapping_add(1);
        self.lines[free] = Some(CamLine::new(path, generation));
        self.in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Some(SaqId {
            line: free as u8,
            generation,
        })
    }

    /// Frees a line.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or the line is free.
    pub fn free(&mut self, id: SaqId) {
        let line = self.lines[id.line()]
            .as_ref()
            .expect("freeing an unallocated CAM line");
        assert_eq!(line.generation, id.generation, "stale SAQ handle");
        self.lines[id.line()] = None;
        self.in_use -= 1;
    }

    /// The line with exactly this path, if any.
    pub fn find_path(&self, path: &PathSpec) -> Option<SaqId> {
        if self.in_use == 0 {
            return None;
        }
        self.iter_ids().find(|id| self.get(*id).path == *path)
    }

    /// Longest-prefix match of the allocated paths against a packet's
    /// remaining turns. Ties are impossible (paths are unique).
    pub fn longest_match(&self, remaining: &[u8]) -> Option<SaqId> {
        // Nearly every port's CAM is empty nearly always: answer without
        // walking the free lines.
        if self.in_use == 0 {
            return None;
        }
        let mut best: Option<SaqId> = None;
        let mut best_len = 0usize;
        for id in self.iter_ids() {
            let line = self.get(id);
            if line.path.matches_turns(remaining) && (best.is_none() || line.path.len() > best_len)
            {
                best_len = line.path.len();
                best = Some(id);
            }
        }
        best
    }

    /// Longest-prefix match against the **resolved** remaining turns of a
    /// route — the route-aware entry point for classification. Equivalent
    /// to `longest_match(route.resolved_remaining(0))`: turns of a
    /// late-bound adaptive up-phase that no switch has committed to yet are
    /// invisible to the CAM, so a packet still free to re-route is never
    /// pinned to a congestion-tree path ([`PathSpec::matches_turns`]
    /// requires the whole stored path to be present).
    ///
    /// ```
    /// use recn::CamTable;
    /// use topology::{HostId, PathSpec, Route};
    ///
    /// let mut cam = CamTable::new(4);
    /// let saq = cam.allocate(PathSpec::from_turns(&[4])).unwrap();
    ///
    /// // A deterministic route climbing through port 4 matches the line.
    /// let det = Route::from_turns(HostId::new(63), &[4, 3, 3]);
    /// assert_eq!(cam.lookup(&det), Some(saq));
    ///
    /// // The same turns as an unbound adaptive up-phase do not: the packet
    /// // has not committed to climbing through port 4 yet.
    /// let ada = Route::from_turns_adaptive(HostId::new(63), &[4, 3, 3], 2);
    /// assert_eq!(cam.lookup(&ada), None);
    ///
    /// // Once the switch binds the choice, the CAM sees the real path.
    /// let mut bound = ada;
    /// bound.bind_next_turn(4);
    /// assert_eq!(cam.lookup(&bound), Some(saq));
    /// ```
    pub fn lookup(&self, route: &Route) -> Option<SaqId> {
        self.longest_match(route.resolved_remaining(0))
    }

    /// Checks a handle is current.
    pub fn is_live(&self, id: SaqId) -> bool {
        self.lines
            .get(id.line())
            .and_then(Option::as_ref)
            .is_some_and(|l| l.generation == id.generation)
    }

    /// Iterates over handles of all allocated lines.
    pub fn iter_ids(&self) -> impl Iterator<Item = SaqId> + '_ {
        self.lines.iter().enumerate().filter_map(|(i, l)| {
            l.as_ref().map(|line| SaqId {
                line: i as u8,
                generation: line.generation,
            })
        })
    }

    /// The path stored in a line.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn path_of(&self, id: SaqId) -> PathSpec {
        self.get(id).path
    }

    pub(crate) fn get(&self, id: SaqId) -> &CamLine {
        let line = self.lines[id.line()]
            .as_ref()
            .expect("unallocated CAM line");
        assert_eq!(line.generation, id.generation, "stale SAQ handle");
        line
    }

    pub(crate) fn get_mut(&mut self, id: SaqId) -> &mut CamLine {
        let line = self.lines[id.line()]
            .as_mut()
            .expect("unallocated CAM line");
        assert_eq!(line.generation, id.generation, "stale SAQ handle");
        line
    }

    /// Line handle by raw line index, if allocated (used to resolve
    /// compressed flow-control addressing).
    pub fn id_at_line(&self, line: usize) -> Option<SaqId> {
        self.lines
            .get(line)
            .and_then(Option::as_ref)
            .map(|l| SaqId {
                line: line as u8,
                generation: l.generation,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_free_cycle() {
        let mut cam = CamTable::new(2);
        let a = cam.allocate(PathSpec::from_turns(&[1])).unwrap();
        let b = cam.allocate(PathSpec::from_turns(&[2])).unwrap();
        assert_eq!(cam.in_use(), 2);
        assert!(cam.allocate(PathSpec::from_turns(&[3])).is_none(), "full");
        cam.free(a);
        assert_eq!(cam.in_use(), 1);
        let c = cam.allocate(PathSpec::from_turns(&[3])).unwrap();
        assert_eq!(c.line(), a.line(), "reuses the freed slot");
        assert_ne!(c.generation(), a.generation(), "new generation");
        assert!(cam.is_live(b));
        assert!(cam.is_live(c));
        assert!(!cam.is_live(a), "stale handle detected");
        assert_eq!(cam.peak_in_use(), 2);
    }

    #[test]
    #[should_panic(expected = "stale SAQ handle")]
    fn freeing_stale_handle_panics() {
        let mut cam = CamTable::new(1);
        let a = cam.allocate(PathSpec::from_turns(&[1])).unwrap();
        cam.free(a);
        let _b = cam.allocate(PathSpec::from_turns(&[2])).unwrap();
        cam.free(a);
    }

    #[test]
    fn longest_match_prefers_deeper_tree() {
        let mut cam = CamTable::new(4);
        let short = cam.allocate(PathSpec::from_turns(&[2])).unwrap();
        let long = cam.allocate(PathSpec::from_turns(&[2, 1, 0])).unwrap();
        let mid = cam.allocate(PathSpec::from_turns(&[2, 1])).unwrap();
        assert_eq!(cam.longest_match(&[2, 1, 0, 3]), Some(long));
        assert_eq!(cam.longest_match(&[2, 1, 1, 3]), Some(mid));
        assert_eq!(cam.longest_match(&[2, 0, 0, 3]), Some(short));
        assert_eq!(cam.longest_match(&[3, 1, 0, 3]), None);
    }

    #[test]
    fn empty_path_matches_all() {
        let mut cam = CamTable::new(2);
        let root_here = cam.allocate(PathSpec::EMPTY).unwrap();
        assert_eq!(cam.longest_match(&[]), Some(root_here));
        assert_eq!(cam.longest_match(&[1, 2]), Some(root_here));
        // A specific path still wins over the catch-all.
        let specific = cam.allocate(PathSpec::from_turns(&[1])).unwrap();
        assert_eq!(cam.longest_match(&[1, 2]), Some(specific));
        assert_eq!(cam.longest_match(&[0, 2]), Some(root_here));
    }

    #[test]
    fn find_path_exact_only() {
        let mut cam = CamTable::new(2);
        let a = cam.allocate(PathSpec::from_turns(&[1, 2])).unwrap();
        assert_eq!(cam.find_path(&PathSpec::from_turns(&[1, 2])), Some(a));
        assert_eq!(cam.find_path(&PathSpec::from_turns(&[1])), None);
    }

    #[test]
    fn id_at_line_resolves() {
        let mut cam = CamTable::new(2);
        let a = cam.allocate(PathSpec::from_turns(&[0])).unwrap();
        assert_eq!(cam.id_at_line(a.line()), Some(a));
        assert_eq!(cam.id_at_line(1), None);
        assert_eq!(cam.id_at_line(99), None);
    }

    /// The states that tell the two leaf predicates apart.
    #[test]
    fn leaf_predicates_by_state() {
        let fresh = CamLine::new(PathSpec::from_turns(&[1]), 0);
        let line = |edit: fn(&mut CamLine)| {
            let mut l = fresh.clone();
            edit(&mut l);
            l
        };
        // (state, line, empty leaf, drained leaf)
        let table = [
            ("never used", fresh.clone(), true, false),
            ("used and drained", line(|l| l.ever_used = true), true, true),
            (
                "holds a packet",
                line(|l| {
                    l.ever_used = true;
                    l.packets = 1;
                }),
                false,
                false,
            ),
            (
                "marker-blocked",
                line(|l| {
                    l.ever_used = true;
                    l.markers_outstanding = 1;
                }),
                false,
                false,
            ),
            (
                "child token out",
                line(|l| {
                    l.ever_used = true;
                    l.tokens_sent = 1;
                }),
                false,
                false,
            ),
            (
                "child token home",
                line(|l| {
                    l.ever_used = true;
                    l.tokens_sent = 1;
                    l.tokens_returned = 1;
                }),
                true,
                true,
            ),
        ];
        for (state, l, empty, drained) in table {
            assert_eq!(l.is_empty_leaf(), empty, "{state}");
            assert_eq!(l.is_drained_leaf(), drained, "{state}");
        }
    }

    #[test]
    fn display_of_saq_id() {
        let mut cam = CamTable::new(1);
        let a = cam.allocate(PathSpec::EMPTY).unwrap();
        assert_eq!(a.to_string(), "saq0#0");
    }
}
