//! A safe generational slab allocator for hot-path objects.
//!
//! Buffered packets and queue nodes are inserted and removed millions of
//! times per run; an [`Arena`] keeps them in one contiguous `Vec` and
//! recycles slots through a free list threaded through the vacant slots
//! themselves, so queue churn performs no per-item heap allocation after
//! warm-up and an insert or remove touches the arena's header and the one
//! slot, nothing else. Handles carry a generation counter: accessing a
//! slot after its item was removed (and possibly reused) is detected and
//! panics instead of silently aliasing — the same class of bug a
//! use-after-free would be in an unsafe pool.
//!
//! The arena is deliberately minimal (insert / remove / get) because the
//! queue structures built on top ([`crate::queue::QueueSet`], the NIC
//! admittance VOQs) own all ordering; the arena only owns storage.

use std::num::NonZeroU32;

/// A generation-tagged reference to a slot in an [`Arena`].
///
/// Handles are `Copy` and order-free: they identify storage, not
/// position. A handle is invalidated by [`Arena::remove`]; using it
/// afterwards panics ("stale handle").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    /// Slot index plus one: the zero niche makes `Option<Handle>` (the
    /// intrusive links of every queue node) the size of a `Handle`.
    slot: NonZeroU32,
    gen: u32,
}

impl Handle {
    fn new(idx: u32, gen: u32) -> Handle {
        let slot = NonZeroU32::new(idx.wrapping_add(1)).expect("arena exceeds u32 slots");
        Handle { slot, gen }
    }

    /// Slot index (for diagnostics only — never use to index storage
    /// directly).
    pub fn index(self) -> u32 {
        self.slot.get() - 1
    }

    /// Generation of the slot at the time the handle was issued.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// "No slot": the end of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Slot<T> {
    Occupied {
        gen: u32,
        value: T,
    },
    /// Vacant slot remembering the generation to issue on next reuse and
    /// the slot freed before it (or `NIL`).
    Vacant {
        next_gen: u32,
        next_free: u32,
    },
}

/// Generational slab: O(1) insert/remove/get, stable handles, recycled
/// storage.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Most recently vacated slot (reuse is LIFO), or `NIL`.
    free_head: u32,
    /// Occupied slots (at most `u32::MAX`, like the handles' slot index).
    len: u32,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Arena<T> {
        Arena::with_capacity(0)
    }

    /// Creates an empty arena with room for `cap` items before the
    /// backing storage reallocates.
    pub fn with_capacity(cap: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no items are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + recyclable).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Estimated bytes of backing storage: the slot array at its allocated
    /// capacity (the high-water mark the process actually paid for, not
    /// the live item count). The free list lives inside the vacant slots.
    pub fn backing_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Slot<T>>()) as u64
    }

    /// Stores `value`, returning its handle. Reuses the most recently
    /// freed slot when one exists; grows the backing storage otherwise, by
    /// [`simcore::growth`] when it is full: a slab that never holds more
    /// than one item reserves one slot.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        if self.free_head == NIL {
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
            if self.slots.len() == self.slots.capacity() {
                self.slots.reserve_exact(simcore::growth(self.slots.len()));
            }
            self.slots.push(Slot::Occupied { gen: 0, value });
            return Handle::new(idx, 0);
        }
        let idx = self.free_head;
        let slot = &mut self.slots[idx as usize];
        let Slot::Vacant {
            next_gen: gen,
            next_free,
        } = *slot
        else {
            unreachable!("free list points at occupied slot");
        };
        self.free_head = next_free;
        *slot = Slot::Occupied { gen, value };
        Handle::new(idx, gen)
    }

    /// Removes and returns the item behind `h`, freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale (already removed, possibly reused).
    pub fn remove(&mut self, h: Handle) -> T {
        let slot = &mut self.slots[h.index() as usize];
        match slot {
            Slot::Occupied { gen, .. } if *gen == h.gen => {}
            _ => panic!("stale arena handle {h:?}"),
        }
        // Generations wrap; a handle surviving 2^32 reuses of one slot is
        // not a realistic hazard for simulation-length lifetimes.
        let next = Slot::Vacant {
            next_gen: h.gen.wrapping_add(1),
            next_free: self.free_head,
        };
        let Slot::Occupied { value, .. } = std::mem::replace(slot, next) else {
            unreachable!("checked occupied above");
        };
        self.free_head = h.index();
        self.len -= 1;
        value
    }

    /// Shared access to the item behind `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale.
    pub fn get(&self, h: Handle) -> &T {
        match &self.slots[h.index() as usize] {
            Slot::Occupied { gen, value } if *gen == h.gen => value,
            _ => panic!("stale arena handle {h:?}"),
        }
    }

    /// Mutable access to the item behind `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale.
    pub fn get_mut(&mut self, h: Handle) -> &mut T {
        match &mut self.slots[h.index() as usize] {
            Slot::Occupied { gen, value } if *gen == h.gen => value,
            _ => panic!("stale arena handle {h:?}"),
        }
    }

    /// Whether `h` still refers to a live item.
    pub fn contains(&self, h: Handle) -> bool {
        matches!(&self.slots[h.index() as usize], Slot::Occupied { gen, .. } if *gen == h.gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(*a.get(h1), "one");
        assert_eq!(*a.get(h2), "two");
        assert_eq!(a.remove(h1), "one");
        assert_eq!(a.len(), 1);
        assert!(!a.contains(h1));
        assert!(a.contains(h2));
    }

    #[test]
    fn slots_are_recycled_with_new_generation() {
        let mut a = Arena::new();
        let h1 = a.insert(10u32);
        a.remove(h1);
        let h2 = a.insert(20u32);
        assert_eq!(h2.index(), h1.index(), "slot reused");
        assert_ne!(h2.generation(), h1.generation(), "generation bumped");
        assert_eq!(a.slot_count(), 1);
        assert_eq!(*a.get(h2), 20);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_get_panics() {
        let mut a = Arena::new();
        let h = a.insert(1u8);
        a.remove(h);
        let _ = a.get(h);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_remove_panics_even_after_reuse() {
        let mut a = Arena::new();
        let h = a.insert(1u8);
        a.remove(h);
        let _fresh = a.insert(2u8);
        let _ = a.remove(h);
    }

    #[test]
    fn backing_bytes_tracks_high_water() {
        let mut a = Arena::new();
        assert_eq!(a.backing_bytes(), 0);
        let h = a.insert(0u64);
        a.remove(h);
        assert!(a.backing_bytes() > 0, "high-water storage persists");
    }

    #[test]
    fn storage_grows_by_a_quarter_of_what_it_holds() {
        let slot = std::mem::size_of::<Slot<u64>>() as u64;
        let mut a = Arena::new();
        for n in 1..=200u64 {
            a.insert(n);
            let reserved = a.backing_bytes() / slot;
            let most = n + (n / 4).max(1);
            assert!(
                (n..=most).contains(&reserved),
                "{n} held, {reserved} reserved"
            );
        }
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut a = Arena::new();
        let h = a.insert(vec![1, 2]);
        a.get_mut(h).push(3);
        assert_eq!(a.get(h).len(), 3);
    }

    #[test]
    fn many_inserts_and_removes_keep_len_consistent() {
        let mut a = Arena::with_capacity(8);
        let mut live = Vec::new();
        for round in 0..100u32 {
            for i in 0..16u32 {
                live.push((a.insert(round * 100 + i), round * 100 + i));
            }
            // Remove every other item, oldest first.
            let drain: Vec<_> = live.iter().step_by(2).copied().collect();
            live.retain(|(h, _)| !drain.iter().any(|(d, _)| d == h));
            for (h, v) in drain {
                assert_eq!(a.remove(h), v);
            }
        }
        assert_eq!(a.len(), live.len());
        // Storage stayed bounded by the high-water mark, not total churn.
        assert!(a.slot_count() <= 16 * 100);
        for (h, v) in live {
            assert_eq!(*a.get(h), v);
        }
    }

    /// Interleaved inserts and removes against the layout the arena used
    /// to have — a `Vec<Option<T>>` of slots, a generation per slot and an
    /// explicit LIFO stack of freed indices: the free list threaded through
    /// the vacant slots hands out the same indices with the same
    /// generations, and a handle the model calls stale panics.
    #[test]
    fn matches_a_slot_vector_with_an_explicit_lifo_stack() {
        let mut rng = simcore::SplitMix64::new(0xa2e7a);
        let mut arena = Arena::new();
        let (mut slots, mut gens, mut free) = (Vec::new(), Vec::<u32>::new(), Vec::<u32>::new());
        let (mut live, mut stale) = (Vec::<Handle>::new(), Vec::<Handle>::new());
        let mut deepest_stack = 0;
        for step in 0..30_000u64 {
            // Phases of net growth and net shrinkage, so the free stack
            // gets deep and is emptied again.
            let grow = if (step / 2_000).is_multiple_of(2) {
                65
            } else {
                35
            };
            if live.is_empty() || rng.next_u64() % 100 < grow {
                let h = arena.insert(step);
                let idx = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    gens.push(0);
                    slots.len() as u32 - 1
                });
                slots[idx as usize] = Some(step);
                assert_eq!((h.index(), h.generation()), (idx, gens[idx as usize]));
                live.push(h);
            } else {
                let h = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                let idx = h.index() as usize;
                assert_eq!(Some(arena.remove(h)), slots[idx].take());
                gens[idx] += 1;
                free.push(idx as u32);
                stale.push(h);
            }
            assert_eq!(arena.len(), live.len());
            assert_eq!(arena.slot_count(), slots.len());
            deepest_stack = deepest_stack.max(free.len());
        }
        assert!(
            deepest_stack > 100 && live.len() > 100,
            "both paths exercised"
        );
        for h in &live {
            assert_eq!(Some(*arena.get(*h)), slots[h.index() as usize]);
        }
        assert!(stale.iter().all(|h| !arena.contains(*h)));
        for h in stale.iter().rev().take(4) {
            let get = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| *arena.get(*h)));
            assert!(get.is_err(), "stale {h:?} still reads");
        }
        assert_eq!(
            arena.backing_bytes(),
            (arena.slots.capacity() * std::mem::size_of::<Slot<u64>>()) as u64,
            "the free list costs no storage of its own"
        );
    }
}
