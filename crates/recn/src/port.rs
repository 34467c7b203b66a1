//! The per-port RECN protocol state machine.
//!
//! A [`RecnPort`] lives at every switch input port ("ingress"), every switch
//! output port ("egress") and every NIC injection port (an egress that never
//! has same-switch inputs to notify). The fabric drives it with protocol
//! events (packet enqueued/dequeued, notification received, token returned,
//! marker consumed…) and obeys the signals it returns (propagate a
//! notification, assert Xoff, deallocate and return a token…).
//!
//! ## Tree bookkeeping
//!
//! Parent/child edges of a congestion tree, following the paper's §3.5:
//!
//! * a **root** (egress, no SAQ) or an **egress SAQ** spawns children at the
//!   *input ports of the same switch* via forward-triggered notifications;
//! * an **ingress SAQ** spawns at most one child: the *egress port across
//!   its upstream link* (switch output port or NIC injection port).
//!
//! Tokens mark the leaves. A leaf SAQ that drains empty deallocates and
//! returns its token to its parent; parents wait for all branch tokens, so
//! deallocation sweeps leaf-to-root and resources are reclaimed exactly
//! once.

use std::cell::RefCell;
use std::sync::Arc;

use topology::PathSpec;

use crate::cam::{CamTable, SaqId};
use crate::RecnConfig;

/// Where an arriving packet must be stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classify {
    /// The shared queue for non-congested flows.
    Normal,
    /// The set-aside queue of a congestion tree this packet contributes to.
    Saq(SaqId),
}

/// Result of delivering a congestion notification to a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifOutcome {
    /// A SAQ + CAM line were allocated. The fabric must (a) place an
    /// in-order marker in this port's normal queue and (b) acknowledge to
    /// the sender when the notification crossed a link.
    Accepted {
        /// The new SAQ.
        saq: SaqId,
    },
    /// A SAQ for this exact path already exists (protocol race); the token
    /// must be returned to the sender as if rejected.
    AlreadyPresent {
        /// The existing SAQ.
        saq: SaqId,
    },
    /// No free SAQ/CAM line (paper §3.8): the token returns to the sender
    /// and some HOL blocking is tolerated.
    Rejected,
}

/// Signals produced by a SAQ enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnqueueSignals {
    /// Ingress only: send a `Notification { path }` to the upstream egress
    /// across the link (the SAQ crossed the propagation threshold).
    pub propagate: Option<PathSpec>,
    /// Ingress only: send `Xoff` for this tree to the upstream SAQ.
    pub xoff: bool,
}

/// Signals produced by a SAQ dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DequeueSignals {
    /// Ingress only: send `Xon` for this tree to the upstream SAQ.
    pub xon: bool,
    /// The SAQ is now an empty, unblocked leaf: the fabric should call
    /// [`RecnPort::dealloc`].
    pub deallocatable: bool,
}

/// How a notification's token came home to the port that sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Returned {
    /// The notified port refused the notification: no free SAQ, or a SAQ
    /// for the path already exists (paper §3.8).
    Rejected,
    /// The SAQ the notification created deallocated (paper §3.5).
    Released,
}

/// Notifications triggered by forwarding a packet into an egress port
/// (up to two: the port's own root tree, and a propagating SAQ tree).
/// Paths are already in the *input port's* coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForwardNotifications {
    /// Notify the input port about the tree rooted at this egress port.
    pub root: Option<PathSpec>,
    /// Notify the input port about a deeper tree this packet contributes to.
    pub tree: Option<PathSpec>,
}

impl ForwardNotifications {
    /// Iterates over the notifications to deliver.
    pub fn iter(&self) -> impl Iterator<Item = PathSpec> {
        self.root.into_iter().chain(self.tree)
    }

    /// Whether nothing has to be sent.
    pub fn is_empty(&self) -> bool {
        self.root.is_none() && self.tree.is_none()
    }
}

/// Root detector state at an egress port.
#[derive(Debug, Clone, Default)]
struct RootState {
    active: bool,
    notified_inputs: u64,
    tokens_sent: u32,
    tokens_returned: u32,
}

/// Change of the root detector reported to the fabric (informational; used
/// by metrics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootChange {
    /// The port's normal queue crossed the detection threshold.
    BecameRoot,
    /// Congestion subsided and every token returned.
    ClearedRoot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Ingress,
    /// Egress of a switch: `turn` is this output port's index, prepended to
    /// paths when notifying same-switch input ports.
    Egress {
        turn: u8,
    },
    /// NIC injection port: egress-like, but terminal (never notifies
    /// further; packets originate here).
    NicInjection,
}

/// The RECN state machine of one port. See the [crate docs](crate) for the
/// protocol overview and an end-to-end example.
///
/// A port costs what the congestion trees through it cost. Inline are the
/// words the normal-queue path reads — the root detector, the role, the
/// CAM's counts — in 72 bytes, written hottest first (`repr(C)`). The CAM
/// lines with their per-SAQ state live on the heap from the first accepted
/// notification on ([`CamTable`]), and the configuration, equal at every
/// port of a fabric, is one shared copy (`shared_config`).
#[derive(Debug, Clone)]
#[repr(C)]
pub struct RecnPort {
    cfg: Arc<RecnConfig>,
    normal_occupancy: u64,
    root: RootState,
    role: Role,
    cam: CamTable,
}

/// One `Arc` for equal configurations built in a row on one thread: a
/// fabric constructs its ports back to back from one [`RecnConfig`] value,
/// so they all share the first port's copy instead of carrying 56 bytes
/// each. Only the latest configuration is remembered.
fn shared_config(cfg: RecnConfig) -> Arc<RecnConfig> {
    thread_local! {
        static LATEST: RefCell<Option<Arc<RecnConfig>>> = const { RefCell::new(None) };
    }
    LATEST.with_borrow_mut(|latest| match latest {
        Some(shared) if **shared == cfg => Arc::clone(shared),
        _ => Arc::clone(latest.insert(Arc::new(cfg))),
    })
}

impl RecnPort {
    fn new(cfg: RecnConfig, role: Role) -> RecnPort {
        cfg.validate();
        RecnPort {
            cfg: shared_config(cfg),
            normal_occupancy: 0,
            root: RootState::default(),
            role,
            cam: CamTable::new(cfg.max_saqs),
        }
    }

    /// Creates the state machine for a switch input port.
    pub fn new_ingress(cfg: RecnConfig) -> RecnPort {
        RecnPort::new(cfg, Role::Ingress)
    }

    /// Creates the state machine for a switch output port at index `turn`.
    pub fn new_egress(cfg: RecnConfig, turn: u8) -> RecnPort {
        RecnPort::new(cfg, Role::Egress { turn })
    }

    /// Creates the state machine for a NIC injection port.
    pub fn new_nic_injection(cfg: RecnConfig) -> RecnPort {
        RecnPort::new(cfg, Role::NicInjection)
    }

    /// The configuration in force.
    pub fn config(&self) -> &RecnConfig {
        &self.cfg
    }

    /// Bytes this port owns on the heap: its CAM's line storage, which
    /// exists once a congestion tree has reached the port.
    pub fn backing_bytes(&self) -> u64 {
        self.cam.backing_bytes()
    }

    fn is_egress_like(&self) -> bool {
        matches!(self.role, Role::Egress { .. } | Role::NicInjection)
    }

    // ------------------------------------------------------------------
    // Classification
    // ------------------------------------------------------------------

    /// Chooses the queue for a packet whose remaining turns (from this
    /// port's viewpoint) are `remaining`: longest CAM match, or the normal
    /// queue. Blocked SAQs still receive packets — they just cannot
    /// transmit until their marker is consumed.
    pub fn classify(&self, remaining: &[u8]) -> Classify {
        match self.cam.longest_match(remaining) {
            Some(saq) => Classify::Saq(saq),
            None => Classify::Normal,
        }
    }

    // ------------------------------------------------------------------
    // Notification handling (SAQ allocation)
    // ------------------------------------------------------------------

    /// Handles an incoming congestion notification for `path` (in this
    /// port's coordinates). On acceptance the new SAQ is *blocked*; the
    /// fabric must place one in-order marker in **each** queue named by
    /// [`marker_plan`](Self::marker_plan) and call
    /// [`marker_consumed`](Self::marker_consumed) as each reaches the head
    /// of its queue.
    pub fn alloc_on_notification(&mut self, path: PathSpec) -> NotifOutcome {
        if let Some(existing) = self.cam.find_path(&path) {
            return NotifOutcome::AlreadyPresent { saq: existing };
        }
        match self.cam.allocate(path) {
            Some(saq) => {
                let markers = 1 + self.proper_prefix_saqs(saq).count();
                self.cam.get_mut(saq).markers_outstanding = markers as u8;
                NotifOutcome::Accepted { saq }
            }
            None => NotifOutcome::Rejected,
        }
    }

    /// The queues that must receive an in-order marker for freshly
    /// allocated `saq`: the normal queue (always) plus every existing SAQ
    /// whose path is a *proper prefix* of the new path. Those queues may
    /// currently hold packets that will reclassify into the new SAQ
    /// (nested congestion trees); the new SAQ stays blocked until all of
    /// its markers have been consumed, so those older packets depart first.
    ///
    /// Call immediately after an [`Accepted`](NotifOutcome::Accepted)
    /// outcome, before any other CAM mutation.
    pub fn marker_plan(&self, saq: SaqId) -> Vec<SaqId> {
        self.proper_prefix_saqs(saq).collect()
    }

    fn proper_prefix_saqs(&self, saq: SaqId) -> impl Iterator<Item = SaqId> + '_ {
        let path = self.cam.path_of(saq);
        self.cam.iter_ids().filter(move |&other| {
            other != saq && {
                let p = self.cam.path_of(other);
                p.len() < path.len() && p.is_prefix_of(&path)
            }
        })
    }

    /// The fabric consumed one in-order marker of `saq`. When the last
    /// outstanding marker is consumed the SAQ may transmit; returns `true`
    /// if it is then immediately deallocatable (empty leaf).
    ///
    /// A stale handle (the SAQ was deallocated meanwhile — impossible in
    /// the current protocol but tolerated for robustness) is ignored.
    pub fn marker_consumed(&mut self, saq: SaqId) -> bool {
        if !self.cam.is_live(saq) {
            return false;
        }
        let line = self.cam.get_mut(saq);
        assert!(
            line.markers_outstanding > 0,
            "consumed more markers than placed"
        );
        line.markers_outstanding -= 1;
        line.is_drained_leaf()
    }

    /// Whether `saq` is an empty, unblocked leaf right now — the fabric's
    /// idle-reclaim timer uses this to garbage-collect SAQs that never
    /// received a packet (their congestion subsided before any matching
    /// traffic arrived). Stale handles return `false`.
    pub fn is_empty_leaf(&self, saq: SaqId) -> bool {
        self.cam.is_live(saq) && self.cam.get(saq).is_empty_leaf()
    }

    // ------------------------------------------------------------------
    // SAQ occupancy
    // ------------------------------------------------------------------

    /// Records a packet entering `saq` and returns the control actions the
    /// crossing thresholds demand.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn saq_enqueued(&mut self, saq: SaqId, bytes: u64) -> EnqueueSignals {
        let is_ingress = matches!(self.role, Role::Ingress);
        let prop_threshold = self.cfg.propagation_threshold;
        let xoff_threshold = self.cfg.xoff_threshold;
        let line = self.cam.get_mut(saq);
        line.occupancy += bytes;
        line.packets += 1;
        line.ever_used = true;
        let mut signals = EnqueueSignals::default();
        if line.occupancy >= prop_threshold {
            if !is_ingress {
                // Egress: notify-on-forward from now on (a latch).
                line.propagating = true;
            } else if line.armed {
                line.armed = false;
                if !line.notified_upstream {
                    line.notified_upstream = true;
                    line.tokens_sent += 1;
                    signals.propagate = Some(line.path);
                }
            }
        }
        if is_ingress && line.occupancy >= xoff_threshold && !line.xoff_sent && line.acked {
            line.xoff_sent = true;
            signals.xoff = true;
        }
        signals
    }

    /// Records a packet leaving `saq` and returns the resulting actions.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle, on byte/packet underflow, or if the SAQ
    /// was blocked (blocked SAQs must not transmit).
    pub fn saq_dequeued(&mut self, saq: SaqId, bytes: u64) -> DequeueSignals {
        let is_ingress = matches!(self.role, Role::Ingress);
        let prop_threshold = self.cfg.propagation_threshold;
        let xon_threshold = self.cfg.xon_threshold;
        let line = self.cam.get_mut(saq);
        assert!(!line.is_blocked(), "a blocked SAQ transmitted a packet");
        assert!(
            line.occupancy >= bytes && line.packets >= 1,
            "SAQ accounting underflow"
        );
        line.occupancy -= bytes;
        line.packets -= 1;
        let mut signals = DequeueSignals::default();
        if is_ingress && line.occupancy < prop_threshold {
            line.armed = true;
        }
        if is_ingress && line.xoff_sent && line.occupancy < xon_threshold {
            line.xoff_sent = false;
            signals.xon = true;
        }
        signals.deallocatable = line.is_empty_leaf();
        signals
    }

    // ------------------------------------------------------------------
    // Egress-side: root detection and forward-triggered notifications
    // ------------------------------------------------------------------

    /// Updates the egress normal-queue occupancy (bytes now stored) and
    /// runs the root detector.
    ///
    /// # Panics
    ///
    /// Panics when called on an ingress port.
    pub fn normal_occupancy_changed(&mut self, bytes_now: u64) -> Option<RootChange> {
        assert!(
            self.is_egress_like(),
            "root detection is an egress-side mechanism"
        );
        self.normal_occupancy = bytes_now;
        if !self.root.active && bytes_now >= self.cfg.detection_threshold {
            self.root.active = true;
            return Some(RootChange::BecameRoot);
        }
        if self.root.active {
            return self.try_clear_root();
        }
        None
    }

    fn try_clear_root(&mut self) -> Option<RootChange> {
        if self.root.active
            && self.normal_occupancy < self.cfg.root_clear_threshold
            && self.root.tokens_sent == self.root.tokens_returned
        {
            self.root.active = false;
            self.root.notified_inputs = 0;
            self.root.tokens_sent = 0;
            self.root.tokens_returned = 0;
            return Some(RootChange::ClearedRoot);
        }
        None
    }

    /// Called by the fabric when a packet coming from same-switch input
    /// port `input` is stored into this egress port under `class`. Returns
    /// the notifications (already in the input port's coordinates) that
    /// must be delivered to that input port — each carries a token, so the
    /// fabric must hand it back through
    /// [`token_from_input`](Self::token_from_input) when the input rejects
    /// the notification or later deallocates the SAQ.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-switch-egress port or for `input ≥ 64`.
    pub fn on_forward_from_input(&mut self, input: usize, class: Classify) -> ForwardNotifications {
        let turn = match self.role {
            Role::Egress { turn } => turn,
            _ => panic!("forward notifications only exist at switch egress ports"),
        };
        assert!(input < 64, "input port index too large for the notify mask");
        let bit = 1u64 << input;
        let mut out = ForwardNotifications::default();
        if self.root.active && self.root.notified_inputs & bit == 0 {
            self.root.notified_inputs |= bit;
            self.root.tokens_sent += 1;
            out.root = Some(PathSpec::EMPTY.prepend(turn));
        }
        if let Classify::Saq(saq) = class {
            let line = self.cam.get_mut(saq);
            if line.propagating && line.notified_inputs & bit == 0 {
                line.notified_inputs |= bit;
                line.tokens_sent += 1;
                out.tree = Some(line.path.prepend(turn));
            }
        }
        out
    }

    /// Whether this egress port is currently a congestion-tree root.
    pub fn is_root(&self) -> bool {
        self.root.active
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    /// A same-switch input port returned the token of the notification it
    /// got for the tree `path_at_egress` (empty ⇒ this port's root tree).
    /// A [`Released`](Returned::Released) token clears the input's notified
    /// bit, so re-congestion can notify it again; a
    /// [`Rejected`](Returned::Rejected) one does not, so an input with no
    /// free line is not notified at every packet (paper §3.8).
    ///
    /// Returns `(root_change, saq_deallocatable)` — at most one is
    /// meaningful per call.
    ///
    /// # Panics
    ///
    /// Panics when called on an ingress port.
    pub fn token_from_input(
        &mut self,
        input: usize,
        path_at_egress: PathSpec,
        how: Returned,
    ) -> (Option<RootChange>, Option<SaqId>) {
        assert!(
            self.is_egress_like(),
            "tokens from inputs arrive at egress ports"
        );
        let released = how == Returned::Released;
        let clear = if released { 1u64 << input } else { 0 };
        if path_at_egress.is_empty() {
            self.root.tokens_returned += 1;
            debug_assert!(self.root.tokens_returned <= self.root.tokens_sent);
            self.root.notified_inputs &= !clear;
            return (self.try_clear_root(), None);
        }
        if let Some(saq) = self.cam.find_path(&path_at_egress) {
            let line = self.cam.get_mut(saq);
            line.tokens_returned += 1;
            debug_assert!(line.tokens_returned <= line.tokens_sent);
            line.notified_inputs &= !clear;
            if line.is_drained_leaf() {
                return (None, Some(saq));
            }
        }
        (None, None)
    }

    /// Ingress only: the upstream egress across the link accepted our
    /// notification for `path`, so it has a SAQ that Xoff can address.
    /// Returns `true` if Xoff must be sent right away (occupancy already
    /// past the threshold when the ack arrived).
    pub fn on_upstream_ack(&mut self, path: PathSpec) -> bool {
        assert!(
            matches!(self.role, Role::Ingress),
            "acks arrive at ingress ports"
        );
        let xoff_threshold = self.cfg.xoff_threshold;
        if let Some(saq) = self.cam.find_path(&path) {
            let line = self.cam.get_mut(saq);
            line.acked = true;
            if line.occupancy >= xoff_threshold && !line.xoff_sent {
                line.xoff_sent = true;
                return true;
            }
        }
        false
    }

    /// Ingress only: the token of our notification came back from the
    /// upstream egress across the link, which rejected the notification
    /// (or reported a duplicate) or deallocated the SAQ it created. The
    /// upstream-notified flag is cleared either way; a
    /// [`Released`](Returned::Released) token also re-arms propagation at
    /// once, while after a [`Rejected`](Returned::Rejected) one the tree
    /// regrows only once the SAQ dips below and crosses the propagation
    /// threshold again. Returns the SAQ if it is now deallocatable itself.
    pub fn token_from_upstream(&mut self, path: PathSpec, how: Returned) -> Option<SaqId> {
        assert!(
            matches!(self.role, Role::Ingress),
            "upstream tokens arrive at ingress ports"
        );
        let saq = self.cam.find_path(&path)?;
        let line = self.cam.get_mut(saq);
        line.tokens_returned += 1;
        debug_assert!(line.tokens_returned <= line.tokens_sent);
        line.notified_upstream = false;
        line.acked = false;
        line.xoff_sent = false;
        line.armed |= how == Returned::Released;
        line.is_drained_leaf().then_some(saq)
    }

    // ------------------------------------------------------------------
    // Deallocation
    // ------------------------------------------------------------------

    /// Deallocates `saq` (which must be an empty, unblocked leaf). The
    /// port's side names the parent its token goes to: an ingress SAQ's is
    /// the same-switch egress port its path's first turn names, an egress or
    /// NIC SAQ's the ingress port across its link. No Xon is owed: the
    /// dequeue that emptied the SAQ fell below the (positive)
    /// `xon_threshold` and released any Xoff.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle or if the SAQ is not an empty unblocked
    /// leaf — the fabric must only call this when told to.
    pub fn dealloc(&mut self, saq: SaqId) {
        let line = self.cam.get(saq);
        assert!(line.is_empty_leaf(), "SAQ not ready to dealloc");
        debug_assert!(!line.xoff_sent, "an empty SAQ still asserts Xoff");
        self.cam.free(saq);
    }

    // ------------------------------------------------------------------
    // Remote Xon/Xoff
    // ------------------------------------------------------------------

    /// Egress only: the downstream SAQ asserted (`true`) or released
    /// (`false`) Xoff for the tree at `path`. Unknown paths (line already
    /// deallocated — message crossed the token in flight) are ignored.
    pub fn set_remote_xoff(&mut self, path: PathSpec, xoff: bool) {
        assert!(self.is_egress_like(), "remote Xoff lands on egress ports");
        if let Some(saq) = self.cam.find_path(&path) {
            self.cam.get_mut(saq).remote_xoff = xoff;
        }
    }

    // ------------------------------------------------------------------
    // Arbiter queries
    // ------------------------------------------------------------------

    /// Whether `saq` may transmit: not marker-blocked and not Xoff'ed.
    pub fn may_transmit(&self, saq: SaqId) -> bool {
        let line = self.cam.get(saq);
        !line.is_blocked() && !line.remote_xoff
    }

    /// Paper §3.8 fast-drain rule: a token-owning SAQ holding only a few
    /// packets gets highest arbitration priority so it empties and
    /// deallocates quickly.
    pub fn drain_boost(&self, saq: SaqId) -> bool {
        let line = self.cam.get(saq);
        !line.is_blocked()
            && line.is_leaf()
            && line.packets > 0
            && line.packets <= self.cfg.drain_boost_pkts
    }

    /// Egress only: internal per-SAQ backpressure. An ingress SAQ of the
    /// same switch must not forward a packet into this port when the
    /// packet's matching egress SAQ is beyond the Xoff threshold.
    pub fn internal_xoff(&self, remaining_after_turn: &[u8]) -> bool {
        match self.cam.longest_match(remaining_after_turn) {
            Some(saq) => self.cam.get(saq).occupancy >= self.cfg.xoff_threshold,
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// SAQs currently allocated at this port.
    pub fn saqs_in_use(&self) -> usize {
        self.cam.in_use()
    }

    /// Highest number of SAQs ever allocated simultaneously at this port.
    pub fn peak_saqs(&self) -> usize {
        self.cam.peak_in_use()
    }

    /// Bytes stored in `saq`.
    pub fn occupancy(&self, saq: SaqId) -> u64 {
        self.cam.get(saq).occupancy
    }

    /// Packets stored in `saq`.
    pub fn packets(&self, saq: SaqId) -> u32 {
        self.cam.get(saq).packets
    }

    /// The tree path of `saq`.
    pub fn path_of(&self, saq: SaqId) -> PathSpec {
        self.cam.get(saq).path
    }

    /// Whether the handle refers to a currently-allocated SAQ.
    pub fn is_live(&self, saq: SaqId) -> bool {
        self.cam.is_live(saq)
    }

    /// Whether the SAQ is still blocked behind its in-order marker.
    pub fn is_blocked(&self, saq: SaqId) -> bool {
        self.cam.get(saq).is_blocked()
    }

    /// Iterates over the currently allocated SAQ handles.
    pub fn iter_saqs(&self) -> impl Iterator<Item = SaqId> + '_ {
        self.cam.iter_ids()
    }

    /// Direct access to the CAM (read-only), e.g. for assertions in tests.
    pub fn cam(&self) -> &CamTable {
        &self.cam
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RecnConfig {
        // Byte-sized thresholds so tests can cross them with few packets.
        RecnConfig {
            max_saqs: 4,
            detection_threshold: 100,
            propagation_threshold: 50,
            xoff_threshold: 80,
            xon_threshold: 20,
            drain_boost_pkts: 2,
            root_clear_threshold: 40,
        }
    }

    fn accepted(o: NotifOutcome) -> SaqId {
        match o {
            NotifOutcome::Accepted { saq } => saq,
            other => panic!("expected Accepted, got {other:?}"),
        }
    }

    #[test]
    fn ingress_lifecycle_without_propagation() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[2])));
        assert!(p.is_blocked(saq));
        assert_eq!(p.classify(&[2, 1]), Classify::Saq(saq));
        assert_eq!(p.classify(&[1, 1]), Classify::Normal);

        let sig = p.saq_enqueued(saq, 30);
        assert_eq!(sig, EnqueueSignals::default());
        assert!(
            !p.marker_consumed(saq),
            "holds a packet: not yet deallocatable"
        );
        let sig = p.saq_dequeued(saq, 30);
        assert!(sig.deallocatable);
        p.dealloc(saq);
        assert!(!p.is_live(saq));
        assert_eq!(p.peak_saqs(), 1);
    }

    #[test]
    fn marker_consumed_on_empty_saq_is_deallocatable() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[1])));
        p.saq_enqueued(saq, 10);
        assert!(!p.marker_consumed(saq), "has a packet, not deallocatable");
        let mut q = RecnPort::new_ingress(small_cfg());
        let empty = accepted(q.alloc_on_notification(PathSpec::from_turns(&[1])));
        assert!(
            !q.marker_consumed(empty),
            "a never-used SAQ is not deallocated at unblock (idle reclaim handles it)"
        );
        assert!(q.is_empty_leaf(empty), "but it is reported reclaimable");
        // Once used and drained, it deallocates normally.
        q.saq_enqueued(empty, 10);
        assert!(q.saq_dequeued(empty, 10).deallocatable);
    }

    #[test]
    fn propagation_fires_once_per_crossing() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[2, 1])));
        p.marker_consumed(saq);
        let s1 = p.saq_enqueued(saq, 40);
        assert!(s1.propagate.is_none(), "below threshold");
        let s2 = p.saq_enqueued(saq, 20); // 60 >= 50
        assert_eq!(s2.propagate, Some(PathSpec::from_turns(&[2, 1])));
        let s3 = p.saq_enqueued(saq, 20); // stays above: no repeat
        assert!(s3.propagate.is_none());
        // Drain below and refill: still no repeat while notified_upstream.
        p.saq_dequeued(saq, 60);
        let s4 = p.saq_enqueued(saq, 60);
        assert!(
            s4.propagate.is_none(),
            "flag prevents repeat while child alive"
        );
    }

    #[test]
    fn xoff_requires_ack_then_fires() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[3])));
        p.marker_consumed(saq);
        let s = p.saq_enqueued(saq, 90); // crosses both prop (50) and xoff (80)
        assert!(s.propagate.is_some());
        assert!(!s.xoff, "xoff deferred until the upstream line is known");
        // Ack arrives while already past the threshold: xoff immediately.
        assert!(p.on_upstream_ack(PathSpec::from_turns(&[3])));
        // Drain below xon threshold: xon.
        let d = p.saq_dequeued(saq, 80); // occupancy 10 < 20
        assert!(d.xon);
        assert!(!d.deallocatable, "child still outstanding");
    }

    #[test]
    fn xoff_fires_directly_when_ack_already_known() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[3])));
        p.marker_consumed(saq);
        let s = p.saq_enqueued(saq, 60);
        assert!(s.propagate.is_some());
        assert!(
            !p.on_upstream_ack(PathSpec::from_turns(&[3])),
            "below xoff at ack time"
        );
        let s2 = p.saq_enqueued(saq, 30); // 90 >= 80
        assert!(s2.xoff);
    }

    #[test]
    fn token_return_reenables_growth_and_deallocs() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let path = PathSpec::from_turns(&[1, 2]);
        let saq = accepted(p.alloc_on_notification(path));
        p.marker_consumed(saq);
        p.saq_enqueued(saq, 60);
        assert!(!p.saq_dequeued(saq, 60).deallocatable, "child outstanding");
        // Upstream child deallocates and returns the token.
        let dealloc_now = p.token_from_upstream(path, Returned::Released);
        assert_eq!(dealloc_now, Some(saq), "empty leaf after token return");
        p.dealloc(saq);
        assert!(!p.is_live(saq));
    }

    #[test]
    fn upstream_reject_returns_token_and_rearms_later() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let path = PathSpec::from_turns(&[0]);
        let saq = accepted(p.alloc_on_notification(path));
        p.marker_consumed(saq);
        p.saq_enqueued(saq, 60);
        assert!(
            p.token_from_upstream(path, Returned::Rejected).is_none(),
            "not empty yet"
        );
        // Still above the threshold: the armed flag is down, no immediate renotify.
        let s = p.saq_enqueued(saq, 5);
        assert!(s.propagate.is_none());
        // Dip below and cross again: renotify.
        p.saq_dequeued(saq, 40); // 25 < 50 -> re-arm
        let s2 = p.saq_enqueued(saq, 40); // 65 >= 50
        assert_eq!(s2.propagate, Some(path));
    }

    #[test]
    fn egress_root_detection_and_clear() {
        let mut e = RecnPort::new_egress(small_cfg(), 2);
        assert_eq!(e.normal_occupancy_changed(99), None);
        assert_eq!(
            e.normal_occupancy_changed(100),
            Some(RootChange::BecameRoot)
        );
        assert!(e.is_root());
        // Forward from input 3: notify once with path [2].
        let n = e.on_forward_from_input(3, Classify::Normal);
        assert_eq!(n.root, Some(PathSpec::from_turns(&[2])));
        assert!(n.tree.is_none());
        let n2 = e.on_forward_from_input(3, Classify::Normal);
        assert!(n2.is_empty(), "flag prevents repeats");
        // Queue drains but token still out: root stays.
        assert_eq!(e.normal_occupancy_changed(10), None);
        assert!(e.is_root());
        // Token returns: root clears.
        let (rc, _) = e.token_from_input(3, PathSpec::EMPTY, Returned::Released);
        assert_eq!(rc, Some(RootChange::ClearedRoot));
        assert!(!e.is_root());
        // Re-congestion re-detects and re-notifies.
        assert_eq!(
            e.normal_occupancy_changed(150),
            Some(RootChange::BecameRoot)
        );
        let n3 = e.on_forward_from_input(3, Classify::Normal);
        assert_eq!(n3.root, Some(PathSpec::from_turns(&[2])));
    }

    #[test]
    fn egress_saq_propagates_via_forward() {
        let mut e = RecnPort::new_egress(small_cfg(), 1);
        let path = PathSpec::from_turns(&[3]);
        let saq = accepted(e.alloc_on_notification(path));
        e.marker_consumed(saq);
        e.saq_enqueued(saq, 60); // crosses propagation threshold -> propagating
        let n = e.on_forward_from_input(0, Classify::Saq(saq));
        assert_eq!(
            n.tree,
            Some(PathSpec::from_turns(&[1, 3])),
            "path extended by turn"
        );
        assert!(n.root.is_none());
        assert!(e.on_forward_from_input(0, Classify::Saq(saq)).is_empty());
        // A different input gets its own notification.
        let n2 = e.on_forward_from_input(2, Classify::Saq(saq));
        assert_eq!(n2.tree, Some(PathSpec::from_turns(&[1, 3])));
    }

    #[test]
    fn egress_saq_dealloc_waits_for_all_branch_tokens() {
        let mut e = RecnPort::new_egress(small_cfg(), 1);
        let path = PathSpec::from_turns(&[3]);
        let saq = accepted(e.alloc_on_notification(path));
        e.marker_consumed(saq);
        e.saq_enqueued(saq, 60);
        e.on_forward_from_input(0, Classify::Saq(saq));
        e.on_forward_from_input(2, Classify::Saq(saq));
        let d = e.saq_dequeued(saq, 60);
        assert!(!d.deallocatable, "two branch tokens outstanding");
        let (_, dealloc) = e.token_from_input(0, path, Returned::Released);
        assert_eq!(dealloc, None);
        let (_, dealloc) = e.token_from_input(2, path, Returned::Released);
        assert_eq!(dealloc, Some(saq));
        e.dealloc(saq);
    }

    #[test]
    fn root_and_tree_notification_together() {
        let mut e = RecnPort::new_egress(small_cfg(), 0);
        let path = PathSpec::from_turns(&[2, 2]);
        let saq = accepted(e.alloc_on_notification(path));
        e.marker_consumed(saq);
        e.saq_enqueued(saq, 60);
        e.normal_occupancy_changed(120);
        let n = e.on_forward_from_input(1, Classify::Saq(saq));
        assert_eq!(n.root, Some(PathSpec::from_turns(&[0])));
        assert_eq!(n.tree, Some(PathSpec::from_turns(&[0, 2, 2])));
        assert_eq!(n.iter().count(), 2);
    }

    #[test]
    fn rejection_when_cam_full() {
        let cfg = RecnConfig {
            max_saqs: 1,
            ..small_cfg()
        };
        let mut p = RecnPort::new_ingress(cfg);
        let _a = accepted(p.alloc_on_notification(PathSpec::from_turns(&[1])));
        assert_eq!(
            p.alloc_on_notification(PathSpec::from_turns(&[2])),
            NotifOutcome::Rejected
        );
        // Same path: AlreadyPresent, not a fresh allocation.
        match p.alloc_on_notification(PathSpec::from_turns(&[1])) {
            NotifOutcome::AlreadyPresent { .. } => {}
            other => panic!("expected AlreadyPresent, got {other:?}"),
        }
    }

    #[test]
    fn remote_xoff_gates_transmission() {
        let mut e = RecnPort::new_egress(small_cfg(), 0);
        let path = PathSpec::from_turns(&[1]);
        let saq = accepted(e.alloc_on_notification(path));
        e.marker_consumed(saq);
        assert!(e.may_transmit(saq));
        e.set_remote_xoff(path, true);
        assert!(!e.may_transmit(saq));
        e.set_remote_xoff(path, false);
        assert!(e.may_transmit(saq));
        // Unknown path: silently ignored.
        e.set_remote_xoff(PathSpec::from_turns(&[3]), true);
        assert!(e.may_transmit(saq));
    }

    #[test]
    fn drain_boost_only_for_small_token_owning_saqs() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let path = PathSpec::from_turns(&[1]);
        let saq = accepted(p.alloc_on_notification(path));
        p.saq_enqueued(saq, 10);
        assert!(!p.drain_boost(saq), "still blocked");
        p.marker_consumed(saq);
        assert!(p.drain_boost(saq), "1 packet, owns token");
        p.saq_enqueued(saq, 60); // propagate -> child outstanding
        assert!(!p.drain_boost(saq), "no longer a leaf");
        p.token_from_upstream(path, Returned::Released);
        // 2 packets <= drain_boost_pkts
        assert!(p.drain_boost(saq));
        p.saq_enqueued(saq, 10);
        assert!(!p.drain_boost(saq), "3 packets > boost limit");
    }

    #[test]
    fn internal_xoff_follows_matching_saq_occupancy() {
        let mut e = RecnPort::new_egress(small_cfg(), 0);
        let saq = accepted(e.alloc_on_notification(PathSpec::from_turns(&[1])));
        e.marker_consumed(saq);
        assert!(!e.internal_xoff(&[1, 2]));
        e.saq_enqueued(saq, 85); // >= xoff threshold 80
        assert!(e.internal_xoff(&[1, 2]));
        assert!(!e.internal_xoff(&[0, 2]), "other flows unaffected");
        e.saq_dequeued(saq, 70);
        assert!(!e.internal_xoff(&[1, 2]));
    }

    #[test]
    fn nic_injection_is_terminal_leaf() {
        let mut nic = RecnPort::new_nic_injection(small_cfg());
        let path = PathSpec::from_turns(&[2, 1, 0]);
        let saq = accepted(nic.alloc_on_notification(path));
        nic.marker_consumed(saq);
        nic.saq_enqueued(saq, 200); // far past every threshold: nothing propagates
        let d = nic.saq_dequeued(saq, 200);
        assert!(d.deallocatable, "NIC SAQ is always a leaf");
        nic.dealloc(saq);
    }

    #[test]
    #[should_panic(expected = "a blocked SAQ transmitted")]
    fn blocked_saq_cannot_dequeue() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[1])));
        p.saq_enqueued(saq, 10);
        let _ = p.saq_dequeued(saq, 10);
    }

    #[test]
    #[should_panic(expected = "SAQ not ready to dealloc")]
    fn dealloc_nonempty_panics() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let saq = accepted(p.alloc_on_notification(PathSpec::from_turns(&[1])));
        p.marker_consumed(saq);
        p.saq_enqueued(saq, 10);
        p.dealloc(saq);
    }

    #[test]
    #[should_panic(expected = "root detection is an egress-side mechanism")]
    fn ingress_cannot_be_root() {
        let mut p = RecnPort::new_ingress(small_cfg());
        let _ = p.normal_occupancy_changed(1000);
    }
}
