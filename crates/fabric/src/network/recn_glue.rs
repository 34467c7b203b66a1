//! Fabric-side plumbing of the RECN protocol: delivering notifications,
//! routing tokens through dealloc cascades, consuming in-order markers and
//! maintaining the network-wide SAQ census.

use recn::{NotifOutcome, Returned, RootChange, SaqId};
use simcore::{EventQueue, Picos};
use topology::PathSpec;

use crate::observer::SaqSite;
use crate::packet::{Payload, QueueItem, RevPayload};
use crate::queue::QueueSet;

use super::{Event, Network, PortRef, Wakeup};

impl Network {
    // ------------------------------------------------------------------
    // Notifications
    // ------------------------------------------------------------------

    /// Runs the allocation a notification for `path` asks of `port`: an
    /// accepted SAQ is booked and returned, a refused one (duplicate path or
    /// no free line) is counted.
    fn alloc_on_notification(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        path: PathSpec,
    ) -> Option<SaqId> {
        let recn = self.port_mut(port).recn_mut().expect("RECN scheme");
        match recn.alloc_on_notification(path) {
            NotifOutcome::Accepted { saq } => {
                self.saq_allocated(now, q, port, saq, &path);
                return Some(saq);
            }
            NotifOutcome::AlreadyPresent { .. } => self.counters.recn_duplicates += 1,
            NotifOutcome::Rejected => self.counters.recn_rejects += 1,
        }
        None
    }

    /// An egress port of switch `sw` notified input port `input` about the
    /// congestion tree at `path` (input-port coordinates, so its first turn
    /// is the egress port). Internal wiring: processed immediately.
    pub(crate) fn deliver_internal_notification(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        input: usize,
        path: PathSpec,
    ) {
        self.counters.recn_notifications += 1;
        let notified = PortRef::SwitchIn { sw, port: input };
        if self.alloc_on_notification(now, q, notified, path).is_none() {
            // The token bounces straight back to the notifying egress port.
            self.token_to_egress(now, q, sw, input, path, Returned::Rejected);
        }
    }

    /// A notification arrived over a link's reverse channel at its upstream
    /// egress port (switch output or NIC injection), which answers on the
    /// data channel: an ack, or a reject.
    pub(crate) fn egress_recn_notification(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        path: PathSpec,
    ) {
        let port = self.links[link].up.port();
        let reply = match self.alloc_on_notification(now, q, port, path) {
            Some(_) => Payload::RecnAck { path },
            None => Payload::RecnReject { path },
        };
        self.send_fwd_ctrl(now, q, link, reply);
    }

    /// A RECN ack, reject or token arrived over `link`'s data channel at
    /// the switch input port the link feeds; an Xoff the ack triggers goes
    /// straight back on the same link.
    pub(crate) fn on_recn_control(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        payload: Payload,
    ) {
        let port = self.links[link].down.port();
        let recn = self.port_mut(port).recn_mut().expect("RECN scheme");
        let dealloc = match payload {
            Payload::RecnAck { path } => {
                if recn.on_upstream_ack(path) {
                    self.counters.xoffs += 1;
                    self.send_rev_ctrl(now, q, link, RevPayload::RecnXoff { path });
                }
                None
            }
            Payload::RecnReject { path } => recn.token_from_upstream(path, Returned::Rejected),
            Payload::RecnToken { path } => recn.token_from_upstream(path, Returned::Released),
            Payload::Data { .. } => unreachable!("data is stored, not handled as control"),
        };
        if let Some(saq) = dealloc {
            self.dealloc(now, q, port, saq);
        }
    }

    // ------------------------------------------------------------------
    // Deallocation cascades
    // ------------------------------------------------------------------

    /// Deallocates `saq` at `port` and delivers its token to the parent
    /// the port's side names: an ingress SAQ hands it to the egress port of
    /// the same switch (which may clear its root or cascade), an egress or
    /// NIC SAQ sends it downstream across the port's link.
    pub(crate) fn dealloc(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        saq: SaqId,
    ) {
        let recn = self.port_mut(port).recn_mut().expect("RECN scheme");
        let path = recn.path_of(saq);
        recn.dealloc(saq);
        self.counters.saq_deallocs += 1;
        let (site, idx) = self.saq_site(port);
        observe!(self.on_saq_dealloc(now, site, idx, saq.line(), &path));
        self.census_change(now, port, false);
        if let PortRef::SwitchIn { sw, port: input } = port {
            self.token_to_egress(now, q, sw, input, path, Returned::Released);
        } else {
            let link = self.egress_link(port);
            self.counters.recn_tokens += 1;
            self.send_fwd_ctrl(now, q, link, Payload::RecnToken { path });
        }
    }

    /// Input port `input` of switch `sw` hands back the token of the
    /// notification it got for the tree at `path` (its own coordinates) to
    /// the egress port the path's first turn names: that port may stop
    /// being a root, or its SAQ deallocate in turn.
    fn token_to_egress(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        input: usize,
        path: PathSpec,
        how: Returned,
    ) {
        let (out_port, path_at_egress) = path
            .split_first()
            .expect("a path from an input port starts at an egress port");
        let out_port = out_port as usize;
        let egress = PortRef::SwitchOut { sw, port: out_port };
        let (change, dealloc) = self
            .port_mut(egress)
            .recn_mut()
            .expect("RECN scheme")
            .token_from_input(input, path_at_egress, how);
        self.note_root_change(now, q, sw, out_port, change);
        if let Some(saq) = dealloc {
            self.dealloc(now, q, egress, saq);
        }
    }

    // ------------------------------------------------------------------
    // Allocation & in-order markers
    // ------------------------------------------------------------------

    /// Books a freshly allocated `saq` at `port` (counter, observer,
    /// census) and places its in-order markers: one in the normal queue
    /// plus one in the queue slot of every proper-prefix SAQ.
    fn saq_allocated(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        saq: SaqId,
        path: &PathSpec,
    ) {
        self.counters.saq_allocs += 1;
        let (site, idx) = self.saq_site(port);
        observe!(self.on_saq_alloc(now, site, idx, saq.line(), path));
        self.census_change(now, port, true);
        let plan = self
            .port(port)
            .recn()
            .expect("RECN scheme")
            .marker_plan(saq);
        for target in std::iter::once(0).chain(plan.into_iter().map(QueueSet::saq_queue)) {
            self.counters.markers += 1;
            self.port_mut(port)
                .push_direct(target, QueueItem::Marker(saq));
            self.drain_markers(now, q, port, target);
        }
    }

    /// Consumes markers at the head of `queue` at `port`, unblocking (and
    /// possibly deallocating) the SAQs they reference, then wakes the
    /// port's arbiter: unblocked SAQs may now compete.
    pub(crate) fn drain_markers(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        queue: usize,
    ) {
        while let Some(QueueItem::Marker(_)) = self.port(port).head(queue) {
            let QueueItem::Marker(saq) = self.port_mut(port).pop(queue) else {
                unreachable!("head was a marker");
            };
            let recn = self.port_mut(port).recn_mut().expect("RECN scheme");
            if recn.marker_consumed(saq) {
                self.dealloc(now, q, port, saq);
            } else if recn.is_empty_leaf(saq) {
                // Never used so far: check again after the idle timeout.
                let at = now + self.cfg.saq_idle_timeout;
                self.schedule(now, q, at, Event::SaqIdleCheck { port, saq });
            }
        }
        let arbiter = match port {
            PortRef::SwitchIn { sw, port } => {
                self.input_changed(sw, port);
                Wakeup::InputArb { sw }
            }
            _ => Wakeup::EgressArb {
                link: self.egress_link(port),
            },
        };
        self.kick(now, now, q, arbiter);
    }

    // ------------------------------------------------------------------
    // Remote Xon/Xoff
    // ------------------------------------------------------------------

    pub(crate) fn egress_set_remote_xoff(&mut self, link: usize, path: PathSpec, xoff: bool) {
        self.port_mut(self.links[link].up.port())
            .recn_mut()
            .expect("RECN scheme")
            .set_remote_xoff(path, xoff);
    }

    // ------------------------------------------------------------------
    // Census & root bookkeeping
    // ------------------------------------------------------------------

    pub(crate) fn note_root_change(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        change: Option<RootChange>,
    ) {
        match change {
            Some(RootChange::BecameRoot) => {
                self.counters.root_activations += 1;
                observe!(self.on_root_change(now, sw, port, true));
                // ARN: a fresh congested root is the RECN-side trigger —
                // tell the children so their up-phase can route around
                // this subtree (no-op unless routing is `ArnUp`).
                self.arn_broadcast(now, q, sw, true);
            }
            Some(RootChange::ClearedRoot) => {
                self.counters.root_clears += 1;
                observe!(self.on_root_change(now, sw, port, false));
                self.arn_broadcast(now, q, sw, false);
            }
            None => return,
        }
        self.output_recn_changed(sw, port);
    }

    /// Output `port` of `sw` became or ceased to be a root, or its CAM
    /// gained or lost a line: the arbiter summary's notify bit follows.
    fn output_recn_changed(&mut self, sw: usize, port: usize) {
        let switch = &mut self.switches[sw];
        switch.arb.output_recn_changed(port, &switch.outputs[port]);
    }

    /// `Event::SaqIdleCheck` — reclaim the SAQ if it is still an empty,
    /// unblocked leaf (stale or busy handles are ignored).
    pub(crate) fn on_saq_idle_check(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        saq: SaqId,
    ) {
        let recn = self.port(port).recn().expect("RECN scheme");
        if recn.is_empty_leaf(saq) {
            self.dealloc(now, q, port, saq);
        }
    }

    /// `port` as the observer names it: the site plus the flat per-site
    /// index.
    fn saq_site(&self, port: PortRef) -> (SaqSite, usize) {
        match port {
            PortRef::SwitchIn { sw, port } => (SaqSite::SwitchIngress, self.port_base[sw] + port),
            PortRef::SwitchOut { sw, port } => (SaqSite::SwitchEgress, self.port_base[sw] + port),
            PortRef::Nic { host } => (SaqSite::NicInjection, host),
        }
    }

    /// Books the SAQ just allocated (or deallocated) at `port` in the
    /// census and reports the new census to the observer.
    fn census_change(&mut self, now: Picos, port: PortRef, allocated: bool) {
        let held = self.port(port).recn().expect("RECN scheme").saqs_in_use();
        let was = if allocated { held - 1 } else { held + 1 };
        self.census.moved(port, was, held);
        if let PortRef::SwitchOut { sw, port } = port {
            self.output_recn_changed(sw, port);
        }
        let (max_in, max_out, total) = self.census.values();
        observe!(self.on_saq_census(now, max_in, max_out, total));
    }
}

/// Network-wide SAQ census. A port's own count is its CAM occupancy
/// (`RecnPort::saqs_in_use`); what is kept here, per switch site, is only
/// how many ports hold exactly `k` SAQs — enough to maintain the per-site
/// maximum in O(1) when the port that defined it shrinks.
#[derive(Debug)]
pub(crate) struct SaqCensus {
    /// `[ingress, egress][k]`: ports of the site holding exactly `k` SAQs.
    holding: [Vec<u32>; 2],
    /// Highest per-port count over the switch input / output ports.
    max: [u32; 2],
    /// SAQs allocated network-wide (NIC injection ports included).
    total: u32,
}

impl SaqCensus {
    /// The census of `ports` idle ports per switch site, each able to hold
    /// up to `max_saqs` SAQs.
    pub(crate) fn new(ports: usize, max_saqs: usize) -> SaqCensus {
        let mut holding = vec![0; max_saqs + 1];
        holding[0] = ports as u32;
        SaqCensus {
            holding: [holding.clone(), holding],
            max: [0; 2],
            total: 0,
        }
    }

    /// `(max per switch-input port, max per switch-output port, total)`.
    pub(crate) fn values(&self) -> (u32, u32, u32) {
        (self.max[0], self.max[1], self.total)
    }

    /// `port` went from holding `was` SAQs to `held` (one apart).
    fn moved(&mut self, port: PortRef, was: usize, held: usize) {
        self.total = self.total + held as u32 - was as u32;
        let i = match port {
            PortRef::SwitchIn { .. } => 0,
            PortRef::SwitchOut { .. } => 1,
            PortRef::Nic { .. } => return,
        };
        self.holding[i][was] -= 1;
        self.holding[i][held] += 1;
        // Growing past the maximum raises it; the last port at the maximum
        // shrinking lowers it by exactly one (that port is now at `held`).
        if held as u32 > self.max[i] || (was as u32 == self.max[i] && self.holding[i][was] == 0) {
            self.max[i] = held as u32;
        }
    }
}

/// Sanity helper: asserts that no RECN resource is still allocated anywhere
/// in `net` (used by tests after congestion has fully subsided).
pub fn assert_recn_idle(net: &Network) {
    for (port, qs) in net.ports() {
        if let Some(r) = qs.recn() {
            assert_eq!(r.saqs_in_use(), 0, "leaked SAQ at {port:?}");
            assert!(!r.is_root(), "stale root at {port:?}");
        }
    }
    assert_eq!(net.saq_total(), 0, "census out of sync");
}
