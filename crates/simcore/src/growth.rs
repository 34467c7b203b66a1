//! The one growth rule of the stores a run fills.
//!
//! A simulation's stores — a port's item slab, an event-queue delay lane,
//! the per-flow sequence table — grow once to the deepest the run makes
//! them and then keep that capacity. std's `Vec`/`VecDeque` double, and
//! start at four, so a store ends between one and two times its peak and a
//! store that ever holds one item reserves four. Growing by a quarter keeps
//! every store within a quarter of its peak (plus one) for about four times
//! the copying of doubling: a store grows once per run, so only the set-up
//! of a very short run notices (an incast's, by about a tenth).

/// How many more slots a full store holding `len` reserves: a quarter of
/// `len`, at least one. The store reserves exactly this (`reserve_exact`)
/// when it is full, so its capacity stays within `len + growth(len)`.
///
/// ```
/// assert_eq!(simcore::growth(0), 1);
/// assert_eq!(simcore::growth(7), 1);
/// assert_eq!(simcore::growth(100), 25);
/// ```
pub fn growth(len: usize) -> usize {
    (len / 4).max(1)
}
