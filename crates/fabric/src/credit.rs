//! Sender-side credit views of downstream buffer space.
//!
//! Credit-based flow control at the port level (paper §3.7/§4.1): a sender
//! never transmits unless its *view* of the downstream buffer has room.
//! Views are conservative — they decrement at transmit time and recover
//! only when the downstream credit message arrives — so the receiver can
//! never overflow (the lossless invariant, asserted at every enqueue).

/// Sender-side model of the downstream input port's free space.
#[derive(Debug, Clone)]
pub enum CreditView {
    /// One shared byte pool (RECN: memory dynamically shared by the normal
    /// queue and all SAQs).
    Pooled {
        /// Free bytes remaining in the view.
        free: u64,
        /// Static capacity of the pool.
        cap: u64,
    },
    /// Statically split per-queue pools (1Q/4Q/VOQsw/VOQnet).
    PerQueue {
        /// Free bytes per queue.
        free: Vec<u64>,
        /// Static capacity of each queue.
        cap: u64,
    },
    /// Infinite sink (host delivery links — the host consumes at link
    /// rate, modeled by the link serialization itself).
    Infinite,
}

/// Marker value for "no specific queue" in data payloads (pooled schemes).
pub const POOLED_QUEUE: u16 = u16::MAX;

impl CreditView {
    /// A pooled view of `total` bytes.
    pub fn pooled(total: u64) -> CreditView {
        CreditView::Pooled {
            free: total,
            cap: total,
        }
    }

    /// A per-queue view: `queues` pools of `total / queues` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn per_queue(total: u64, queues: usize) -> CreditView {
        assert!(queues > 0, "need at least one queue");
        let cap = total / queues as u64;
        CreditView::PerQueue {
            free: vec![cap; queues],
            cap,
        }
    }

    /// Whether `bytes` can be sent toward `queue` right now.
    ///
    /// # Panics
    ///
    /// Panics if a packet can *never* fit (larger than the static queue
    /// capacity) — that would deadlock silently otherwise.
    pub fn has_room(&self, queue: u16, bytes: u64) -> bool {
        match self {
            CreditView::Pooled { free, .. } => *free >= bytes,
            CreditView::PerQueue { free, cap } => {
                assert!(
                    bytes <= *cap,
                    "packet of {bytes} B can never fit a {cap} B queue; \
                     increase port memory or reduce packet size"
                );
                free[queue as usize] >= bytes
            }
            CreditView::Infinite => true,
        }
    }

    /// Consumes credit for a transmission.
    ///
    /// # Panics
    ///
    /// Panics if the room was not checked first.
    pub fn consume(&mut self, queue: u16, bytes: u64) {
        match self {
            CreditView::Pooled { free, .. } => {
                assert!(*free >= bytes, "credit underflow");
                *free -= bytes;
            }
            CreditView::PerQueue { free, .. } => {
                let f = &mut free[queue as usize];
                assert!(*f >= bytes, "credit underflow");
                *f -= bytes;
            }
            CreditView::Infinite => {}
        }
    }

    /// Returns credit (a credit message arrived).
    ///
    /// # Panics
    ///
    /// Panics if the credit would exceed the pool capacity (protocol bug).
    pub fn replenish(&mut self, queue: u16, bytes: u64) {
        match self {
            CreditView::Pooled { free, cap } => {
                *free += bytes;
                assert!(
                    *free <= *cap,
                    "credit overflow: more returned than consumed"
                );
            }
            CreditView::PerQueue { free, cap } => {
                let f = &mut free[queue as usize];
                *f += bytes;
                assert!(*f <= *cap, "credit overflow: more returned than consumed");
            }
            CreditView::Infinite => {}
        }
    }

    /// Free bytes currently in the view toward `queue` (`None` for
    /// infinite host sinks, where the question is meaningless).
    pub fn free_bytes(&self, queue: u16) -> Option<u64> {
        match self {
            CreditView::Pooled { free, .. } => Some(*free),
            CreditView::PerQueue { free, .. } => Some(free[queue as usize]),
            CreditView::Infinite => None,
        }
    }

    /// Static capacity of the pool backing `queue` (`None` for infinite).
    pub fn queue_cap(&self) -> Option<u64> {
        match self {
            CreditView::Pooled { cap, .. } => Some(*cap),
            CreditView::PerQueue { cap, .. } => Some(*cap),
            CreditView::Infinite => None,
        }
    }

    /// Estimated bytes of backing storage behind this view: the per-queue
    /// free array (pooled and infinite views are inline). Simulation-model
    /// accounting for `peak_bytes_estimate`, not simulated buffer space.
    pub fn backing_bytes(&self) -> u64 {
        match self {
            CreditView::PerQueue { free, .. } => {
                (free.capacity() * std::mem::size_of::<u64>()) as u64
            }
            CreditView::Pooled { .. } | CreditView::Infinite => 0,
        }
    }

    /// For 4Q: the queue with the most free space in the view (ties to the
    /// lowest index), i.e. the one the receiver (lowest occupancy rule)
    /// will effectively use.
    ///
    /// # Panics
    ///
    /// Panics on pooled/infinite views.
    pub fn roomiest_queue(&self) -> u16 {
        match self {
            CreditView::PerQueue { free, .. } => {
                let (idx, _) = free
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .expect("no queues");
                idx as u16
            }
            _ => panic!("roomiest_queue only applies to per-queue views"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_consume_replenish() {
        let mut v = CreditView::pooled(100);
        assert!(v.has_room(POOLED_QUEUE, 100));
        v.consume(POOLED_QUEUE, 60);
        assert!(!v.has_room(POOLED_QUEUE, 50));
        v.replenish(POOLED_QUEUE, 30);
        assert!(v.has_room(POOLED_QUEUE, 70));
    }

    #[test]
    fn per_queue_is_isolated() {
        let mut v = CreditView::per_queue(100, 4); // 25 each
        assert!(v.has_room(0, 25));
        v.consume(0, 25);
        assert!(!v.has_room(0, 1));
        assert!(v.has_room(1, 25));
        v.replenish(0, 25);
        assert!(v.has_room(0, 25));
    }

    #[test]
    #[should_panic(expected = "can never fit")]
    fn oversized_packet_detected() {
        let v = CreditView::per_queue(100, 4);
        let _ = v.has_room(0, 26);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn over_replenish_detected() {
        let mut v = CreditView::per_queue(100, 4);
        v.replenish(0, 1);
    }

    #[test]
    fn roomiest_prefers_lowest_index_on_tie() {
        let mut v = CreditView::per_queue(100, 4);
        assert_eq!(v.roomiest_queue(), 0);
        v.consume(0, 10);
        assert_eq!(v.roomiest_queue(), 1);
        v.consume(1, 20);
        v.consume(2, 20);
        v.consume(3, 20);
        assert_eq!(v.roomiest_queue(), 0);
    }

    #[test]
    fn accessors_report_free_and_cap() {
        let mut pooled = CreditView::pooled(100);
        assert_eq!(pooled.free_bytes(POOLED_QUEUE), Some(100));
        assert_eq!(pooled.queue_cap(), Some(100));
        pooled.consume(POOLED_QUEUE, 40);
        assert_eq!(pooled.free_bytes(POOLED_QUEUE), Some(60));

        let per_q = CreditView::per_queue(100, 4);
        assert_eq!(per_q.free_bytes(2), Some(25));
        assert_eq!(per_q.queue_cap(), Some(25));

        assert_eq!(CreditView::Infinite.free_bytes(0), None);
        assert_eq!(CreditView::Infinite.queue_cap(), None);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn pooled_over_replenish_detected() {
        let mut v = CreditView::pooled(100);
        v.replenish(POOLED_QUEUE, 1);
    }

    #[test]
    fn infinite_always_has_room() {
        let mut v = CreditView::Infinite;
        assert!(v.has_room(0, u64::MAX));
        v.consume(0, 1 << 40);
        v.replenish(0, 1);
        assert!(v.has_room(7, 1 << 50));
    }
}
