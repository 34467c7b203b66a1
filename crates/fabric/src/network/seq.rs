//! Per-flow sequence numbers, sized by the flows a run touches rather than
//! by `hosts²`: one open-addressed table keyed by `(src, dst)`.

use topology::HostId;

/// Sequence state of one `(src, dst)` flow. A flow the table has never
/// seen reads as all zeros, which is also how a fresh flow starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FlowSeq {
    /// Sequence number the sender stamps on the flow's next packet.
    pub next_send: u64,
    /// Sequence number the receiver expects next.
    pub next_expected: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The flow's key plus one; zero marks a free slot, so fresh zeroed
    /// storage is an empty table.
    tag: u64,
    seq: FlowSeq,
}

/// Linear-probing hash table from `(src, dst)` to [`FlowSeq`]. Entries
/// are created on first use and never removed; nothing is allocated until
/// the first one.
///
/// The dense arrays this replaces cost 16 bytes per *possible* flow, so a
/// 24-byte slot only pays off if the table stays tight and growing it
/// never holds two copies. Hence the slots live in fixed-size chunks that
/// are only ever added ([`simcore::growth`]: a quarter more at a time,
/// keeping the table between 70 % and 7/8 full) and the entries are
/// rehashed in place.
#[derive(Debug, Default)]
pub(crate) struct FlowSeqTable {
    chunks: Vec<Box<[Slot]>>,
    len: usize,
}

impl FlowSeqTable {
    /// Slots per chunk.
    const CHUNK: usize = 256;

    fn tag(src: HostId, dst: HostId) -> u64 {
        super::flow::key(src.index() as u32, dst.index() as u32) + 1
    }

    fn slots(&self) -> usize {
        self.chunks.len() * Self::CHUNK
    }

    fn slot(&self, i: usize) -> &Slot {
        &self.chunks[i / Self::CHUNK][i % Self::CHUNK]
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        &mut self.chunks[i / Self::CHUNK][i % Self::CHUNK]
    }

    /// First slot at or after `tag`'s home that `stop` accepts, wrapping.
    /// The home is a two-round multiply–fold hash, because the keys are
    /// structured (a hotspot is thousands of flows differing only in
    /// `src`, the upper half), scaled from its top bits onto the slots.
    fn probe(&self, tag: u64, stop: impl Fn(usize, &Slot) -> bool) -> usize {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = tag.wrapping_mul(GOLDEN);
        let h = (h ^ (h >> 32)).wrapping_mul(GOLDEN);
        let slots = self.slots();
        let mut i = ((h as u128 * slots as u128) >> 64) as usize;
        while !stop(i, self.slot(i)) {
            i = if i + 1 == slots { 0 } else { i + 1 };
        }
        i
    }

    /// The flow's state for update, created as zeros on first use.
    pub fn entry(&mut self, src: HostId, dst: HostId) -> &mut FlowSeq {
        let tag = Self::tag(src, dst);
        if self.chunks.is_empty() {
            self.grow();
        }
        let found = |_, s: &Slot| s.tag == tag || s.tag == 0;
        let mut i = self.probe(tag, found);
        if self.slot(i).tag == 0 {
            // A new flow: the table stays at most 7/8 full, so a probe
            // always ends.
            if (self.len + 1) * 8 > self.slots() * 7 {
                self.grow();
                i = self.probe(tag, found);
            }
            self.slot_mut(i).tag = tag;
            self.len += 1;
        }
        &mut self.slot_mut(i).seq
    }

    /// Adds a quarter more chunks and moves every entry to where the new
    /// slot count puts it, without a second copy: an entry not yet moved
    /// is `pending`; a moving entry probes past settled ones only and
    /// takes the first free or pending slot, in the latter case carrying
    /// the displaced entry onward. Settled entries never move again, so
    /// every probe path stays unbroken.
    fn grow(&mut self) {
        let old = self.slots();
        for _ in 0..simcore::growth(self.chunks.len()) {
            self.chunks
                .push(vec![Slot::default(); Self::CHUNK].into_boxed_slice());
        }
        let mut pending: Vec<bool> = (0..old).map(|i| self.slot(i).tag != 0).collect();
        // Downwards: homes scale up with the slot count, so most entries
        // move into space already cleared above them.
        for i in (0..old).rev() {
            if !std::mem::take(&mut pending[i]) {
                continue;
            }
            let mut moving = std::mem::take(self.slot_mut(i));
            while moving.tag != 0 {
                let to = self.probe(moving.tag, |j, s| {
                    s.tag == 0 || pending.get(j).is_some_and(|&p| p)
                });
                std::mem::swap(self.slot_mut(to), &mut moving);
                if let Some(p) = pending.get_mut(to) {
                    *p = false;
                }
            }
        }
    }

    /// Bytes of backing storage at its allocated capacity.
    pub fn backing_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.slots() * size_of::<Slot>() + self.chunks.capacity() * size_of::<Box<[Slot]>>())
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn absent_flow_reads_zero_and_nothing_is_allocated_before_it() {
        let mut t = FlowSeqTable::default();
        assert_eq!(t.backing_bytes(), 0);
        assert_eq!(*t.entry(h(3), h(9)), FlowSeq::default());
        t.entry(h(3), h(9)).next_send = 5;
        assert_eq!(*t.entry(h(3), h(8)), FlowSeq::default(), "a neighbour");
        assert_eq!(t.entry(h(3), h(9)).next_send, 5);
        assert_eq!(t.len, 2);
    }

    #[test]
    fn direction_is_part_of_the_key() {
        let mut t = FlowSeqTable::default();
        t.entry(h(1), h(2)).next_send = 7;
        t.entry(h(2), h(1)).next_expected = 9;
        let (ab, ba) = (*t.entry(h(1), h(2)), *t.entry(h(2), h(1)));
        assert_eq!((ab.next_send, ab.next_expected), (7, 0));
        assert_eq!((ba.next_send, ba.next_expected), (0, 9));
        // Flow 0 -> 0 is a key like any other, not the free-slot tag.
        t.entry(h(0), h(0)).next_send = 1;
        assert_eq!(t.len, 3);
    }

    #[test]
    fn growth_keeps_every_entry() {
        // A hotspot's key shape (every source to one destination) plus a
        // full mesh among the first hosts, across several doublings.
        let mut t = FlowSeqTable::default();
        let flows = (0..4096)
            .map(|s| (s, 32))
            .chain((0..64).flat_map(|s| (0..64).map(move |d| (s, d))));
        let mut seen = std::collections::BTreeMap::new();
        for (s, d) in flows {
            let times = seen.entry((s, d)).or_insert(0u64);
            let e = t.entry(h(s), h(d));
            assert_eq!(e.next_expected, *times, "{s}->{d}");
            e.next_send = 1 + ((s as u64) << 20 | d as u64);
            e.next_expected += 1;
            *times += 1;
        }
        assert_eq!(t.len, seen.len());
        assert!(t.len * 8 <= t.slots() * 7, "at most 7/8 full");
        for (&(s, d), &times) in &seen {
            let e = *t.entry(h(s), h(d));
            assert_eq!(e.next_send, 1 + ((s as u64) << 20 | d as u64));
            assert_eq!(e.next_expected, times);
        }
        assert_eq!(t.len, seen.len(), "reading back created nothing");
    }
}
