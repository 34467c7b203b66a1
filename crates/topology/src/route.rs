//! Destination-tag routes.

use std::fmt;

use crate::HostId;

/// Maximum number of stages supported (fixed so routes are inline/`Copy`).
/// Twelve turns cover every preset fabric: radix-4 MINs to 16M hosts and
/// k-ary n-trees up to six levels (`2n − 1 = 11` turns for `ft_4096d`).
pub const MAX_STAGES: usize = 12;

/// The turn sequence a packet carries: one output-port digit per stage,
/// most significant first, plus a cursor over the digits already consumed.
///
/// In a delta MIN with deterministic routing the turns are exactly the
/// base-`k` digits of the destination address, so the "turnpool" in a packet
/// header is derived from the destination — this type materializes it once
/// at injection.
///
/// ```
/// use topology::{HostId, Route};
/// // Destination 27 in a 3-stage radix-4 MIN: 27 = 1*16 + 2*4 + 3.
/// let r = Route::to_host(HostId::new(27), 4, 3);
/// assert_eq!(r.remaining(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    digits: [u8; MAX_STAGES],
    len: u8,
    pos: u8,
    /// Turns `0..up_len` form a late-bound up-phase: they hold placeholder
    /// digits (the deterministic source-digit choice) until a switch binds
    /// them at forwarding time. Deterministic routes have `up_len == 0`.
    up_len: u8,
    /// How many of the up-phase turns have been bound so far. A position
    /// `i` is *resolved* iff `i < bound || i >= up_len`.
    bound: u8,
    dest: HostId,
}

impl Route {
    /// Builds the route to `dest` for a MIN with the given switch radix and
    /// stage count: digit *s* is `(dest / radix^(stages-1-s)) % radix`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` exceeds [`MAX_STAGES`], `radix < 2`, or the
    /// destination is not addressable in `stages` digits.
    pub fn to_host(dest: HostId, radix: u32, stages: usize) -> Route {
        assert!(stages <= MAX_STAGES, "too many stages");
        assert!(radix >= 2, "radix must be at least 2");
        let capacity = (radix as u64).pow(stages as u32);
        assert!(
            (dest.index() as u64) < capacity,
            "destination {dest} not addressable in {stages} base-{radix} digits"
        );
        let mut digits = [0u8; MAX_STAGES];
        let mut v = dest.index() as u64;
        for s in (0..stages).rev() {
            digits[s] = (v % radix as u64) as u8;
            v /= radix as u64;
        }
        Route {
            digits,
            len: stages as u8,
            pos: 0,
            up_len: 0,
            bound: 0,
            dest,
        }
    }

    /// Builds a route from an explicit per-hop turn sequence. Used by
    /// topologies whose turns are not destination digits — the fat tree's
    /// up*/down* self-routing picks up-turns from the *source* address —
    /// while [`Route::to_host`] stays the MIN destination-tag constructor.
    ///
    /// # Panics
    ///
    /// Panics if `turns` is empty (delivery always takes at least the final
    /// down/output turn) or longer than [`MAX_STAGES`].
    pub fn from_turns(dest: HostId, turns: &[u8]) -> Route {
        assert!(!turns.is_empty(), "route needs at least one turn");
        assert!(turns.len() <= MAX_STAGES, "too many turns");
        let mut digits = [0u8; MAX_STAGES];
        digits[..turns.len()].copy_from_slice(turns);
        Route {
            digits,
            len: turns.len() as u8,
            pos: 0,
            up_len: 0,
            bound: 0,
            dest,
        }
    }

    /// Builds a route whose first `up_len` turns form a **late-bound
    /// up-phase**: the stored digits are deterministic placeholders (the
    /// source-digit choice) that a switch may rebind at forwarding time via
    /// [`Route::bind_next_turn`]. The remaining turns (the down-phase) are
    /// fixed at construction. With `up_len == 0` this is identical to
    /// [`Route::from_turns`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Route::from_turns`], or if
    /// `up_len >= turns.len()` (the down-phase needs at least the final
    /// delivery turn).
    pub fn from_turns_adaptive(dest: HostId, turns: &[u8], up_len: usize) -> Route {
        assert!(
            up_len < turns.len(),
            "up-phase must leave at least one fixed down-turn"
        );
        let mut r = Route::from_turns(dest, turns);
        r.up_len = up_len as u8;
        r
    }

    /// The destination host.
    pub fn dest(&self) -> HostId {
        self.dest
    }

    /// Total number of turns (network stages).
    pub fn stages(&self) -> usize {
        self.len as usize
    }

    /// How many turns have been consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos as usize
    }

    /// The turns not yet taken; the first element is the output port the
    /// packet will request at the switch it is currently entering.
    pub fn remaining(&self) -> &[u8] {
        &self.digits[self.pos as usize..self.len as usize]
    }

    /// The full turn sequence regardless of progress.
    pub fn all_turns(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    /// The next turn (output port at the current switch).
    ///
    /// # Panics
    ///
    /// Panics if the route is exhausted.
    pub fn next_turn(&self) -> u8 {
        self.remaining()
            .first()
            .copied()
            .expect("route already exhausted")
    }

    /// Consumes one turn, returning it. Called when the packet is switched
    /// from an input port to the chosen output port.
    ///
    /// # Panics
    ///
    /// Panics if the route is exhausted, or if the next turn is a
    /// still-unbound up-phase placeholder (bind it first with
    /// [`Route::bind_next_turn`]).
    pub fn advance(&mut self) -> u8 {
        let t = self.next_turn();
        assert!(
            !self.next_turn_rebindable(),
            "advancing past an unbound adaptive turn"
        );
        self.pos += 1;
        t
    }

    /// Number of late-bound up-phase turns (0 for deterministic routes).
    pub fn up_len(&self) -> usize {
        self.up_len as usize
    }

    /// Whether the next turn is an up-phase placeholder that the current
    /// switch may still rebind. False once the route is exhausted, past the
    /// up-phase, or the turn has already been bound.
    pub fn next_turn_rebindable(&self) -> bool {
        self.pos >= self.bound && self.pos < self.up_len
    }

    /// Binds the next turn to `port`, fixing the adaptive choice the switch
    /// just made. The digit becomes part of the resolved prefix that RECN's
    /// CAM matching may inspect.
    ///
    /// # Panics
    ///
    /// Panics if the next turn is not rebindable.
    pub fn bind_next_turn(&mut self, port: u8) {
        assert!(self.next_turn_rebindable(), "next turn is not rebindable");
        self.digits[self.pos as usize] = port;
        self.bound = self.pos + 1;
    }

    /// The *resolved* prefix of `remaining()[skip..]`: the turns from
    /// position `pos + skip` up to (not including) the first still-unbound
    /// up-phase placeholder. For deterministic routes this is exactly
    /// `&remaining()[skip..]`. RECN path matching uses this slice so a CAM
    /// line can never claim turns the switch has not committed to yet.
    pub fn resolved_remaining(&self, skip: usize) -> &[u8] {
        let len = self.len as usize;
        let from = (self.pos as usize + skip).min(len);
        let (bound, up_len) = (self.bound as usize, self.up_len as usize);
        if bound >= up_len || from >= up_len {
            // No unbound placeholders at or after `from`.
            &self.digits[from..len]
        } else if from < bound {
            &self.digits[from..bound]
        } else {
            &[]
        }
    }

    /// Whether all turns have been consumed (packet is at its last-stage
    /// output, about to be delivered).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.len
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "->{}[", self.dest)?;
        for (i, d) in self.all_turns().iter().enumerate() {
            if i == self.pos as usize {
                write!(f, "*")?;
            }
            if i >= self.bound as usize && i < self.up_len as usize {
                write!(f, "?")?;
            } else {
                write!(f, "{d}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_msb_first() {
        let r = Route::to_host(HostId::new(57), 4, 3); // 57 = 3*16 + 2*4 + 1
        assert_eq!(r.remaining(), &[3, 2, 1]);
        assert_eq!(r.dest(), HostId::new(57));
        assert_eq!(r.stages(), 3);
    }

    #[test]
    fn leading_digit_small_for_non_power() {
        // 512 hosts, 5 radix-4 stages: leading digit is dest/256 in {0,1}.
        let r = Route::to_host(HostId::new(511), 4, 5);
        assert_eq!(r.remaining(), &[1, 3, 3, 3, 3]);
        let r0 = Route::to_host(HostId::new(0), 4, 5);
        assert_eq!(r0.remaining(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn advance_consumes_in_order() {
        let mut r = Route::to_host(HostId::new(27), 4, 3);
        assert_eq!(r.next_turn(), 1);
        assert_eq!(r.advance(), 1);
        assert_eq!(r.consumed(), 1);
        assert_eq!(r.remaining(), &[2, 3]);
        assert_eq!(r.advance(), 2);
        assert_eq!(r.advance(), 3);
        assert!(r.is_exhausted());
        assert_eq!(r.remaining(), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "route already exhausted")]
    fn advance_past_end_panics() {
        let mut r = Route::to_host(HostId::new(0), 2, 1);
        r.advance();
        r.advance();
    }

    #[test]
    #[should_panic(expected = "not addressable")]
    fn unaddressable_destination_panics() {
        let _ = Route::to_host(HostId::new(64), 4, 3);
    }

    #[test]
    fn display_marks_cursor() {
        let mut r = Route::to_host(HostId::new(27), 4, 3);
        r.advance();
        let s = r.to_string();
        assert!(s.contains('*'), "{s}");
        assert!(!s.is_empty());
    }

    #[test]
    fn from_turns_preserves_sequence() {
        let mut r = Route::from_turns(HostId::new(9), &[6, 1, 2]);
        assert_eq!(r.dest(), HostId::new(9));
        assert_eq!(r.stages(), 3);
        assert_eq!(r.remaining(), &[6, 1, 2]);
        assert_eq!(r.advance(), 6);
        assert_eq!(r.remaining(), &[1, 2]);
    }

    #[test]
    fn from_turns_matches_to_host_on_min_digits() {
        for d in 0..64u32 {
            let via_digits = Route::to_host(HostId::new(d), 4, 3);
            let via_turns = Route::from_turns(HostId::new(d), via_digits.all_turns());
            assert_eq!(via_digits, via_turns);
        }
    }

    #[test]
    #[should_panic(expected = "route needs at least one turn")]
    fn from_turns_rejects_empty() {
        let _ = Route::from_turns(HostId::new(0), &[]);
    }

    #[test]
    fn adaptive_with_zero_up_len_is_deterministic() {
        let det = Route::from_turns(HostId::new(9), &[6, 1, 2]);
        let ada = Route::from_turns_adaptive(HostId::new(9), &[6, 1, 2], 0);
        assert_eq!(det, ada);
        assert!(!ada.next_turn_rebindable());
        assert_eq!(ada.resolved_remaining(0), &[6, 1, 2]);
        assert_eq!(ada.resolved_remaining(1), &[1, 2]);
    }

    #[test]
    fn bind_resolves_placeholders_in_order() {
        // 2 up-turns (placeholders 4, 5), then fixed down-turns 3, 1, 2.
        let mut r = Route::from_turns_adaptive(HostId::new(54), &[4, 5, 3, 1, 2], 2);
        assert!(r.next_turn_rebindable());
        // Nothing resolved at the cursor yet; skipping past the up-phase
        // reveals the fixed down-phase.
        assert_eq!(r.resolved_remaining(0), &[] as &[u8]);
        assert_eq!(r.resolved_remaining(2), &[3, 1, 2]);
        // Placeholder digit still drives next_turn() for storage mapping.
        assert_eq!(r.next_turn(), 4);

        r.bind_next_turn(7);
        assert!(!r.next_turn_rebindable());
        assert_eq!(r.resolved_remaining(0), &[7]);
        assert_eq!(r.advance(), 7);

        assert!(r.next_turn_rebindable());
        r.bind_next_turn(6);
        assert_eq!(r.advance(), 6);
        // Fully bound: the rest of the route is the fixed down-phase.
        assert!(!r.next_turn_rebindable());
        assert_eq!(r.resolved_remaining(0), &[3, 1, 2]);
        assert_eq!(r.all_turns(), &[7, 6, 3, 1, 2]);
    }

    #[test]
    fn resolved_remaining_stops_at_first_unbound_turn() {
        let mut r = Route::from_turns_adaptive(HostId::new(0), &[4, 4, 3, 3, 3], 2);
        r.bind_next_turn(5);
        // Position 0 bound, position 1 not: the resolved prefix is one turn.
        assert_eq!(r.resolved_remaining(0), &[5]);
        assert_eq!(r.resolved_remaining(1), &[] as &[u8]);
        assert_eq!(r.resolved_remaining(2), &[3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "unbound adaptive turn")]
    fn advance_refuses_unbound_turn() {
        let mut r = Route::from_turns_adaptive(HostId::new(0), &[4, 3], 1);
        r.advance();
    }

    #[test]
    #[should_panic(expected = "not rebindable")]
    fn bind_refuses_fixed_turn() {
        let mut r = Route::from_turns_adaptive(HostId::new(0), &[4, 3], 1);
        r.bind_next_turn(5);
        r.advance();
        r.bind_next_turn(2);
    }

    #[test]
    #[should_panic(expected = "at least one fixed down-turn")]
    fn adaptive_needs_a_down_phase() {
        let _ = Route::from_turns_adaptive(HostId::new(0), &[4], 1);
    }

    #[test]
    fn display_marks_unbound_turns() {
        let mut r = Route::from_turns_adaptive(HostId::new(0), &[4, 4, 3, 3, 3], 2);
        assert!(r.to_string().contains("??"), "{r}");
        r.bind_next_turn(6);
        let s = r.to_string();
        assert!(s.contains('6') && s.contains('?'), "{s}");
    }

    #[test]
    fn reconstructs_destination() {
        for d in 0..64u32 {
            let r = Route::to_host(HostId::new(d), 4, 3);
            let mut v = 0u32;
            for &t in r.all_turns() {
                v = v * 4 + t as u32;
            }
            assert_eq!(v, d);
        }
    }
}
