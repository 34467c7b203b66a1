//! Fabric-side plumbing of the RECN protocol: delivering notifications,
//! routing tokens through dealloc cascades, consuming in-order markers and
//! maintaining the network-wide SAQ census.

use recn::{NotifOutcome, RootChange, SaqId, TokenDest};
use simcore::{EventQueue, Picos};
use topology::PathSpec;

use crate::observer::SaqSite;
use crate::packet::{Payload, QueueItem, RevPayload};
use crate::queue::QueueSet;

use super::{Event, Network, PortRef};

impl Network {
    // ------------------------------------------------------------------
    // Notifications
    // ------------------------------------------------------------------

    /// An egress port notified same-switch input port `input` about the
    /// congestion tree at `path` (input-port coordinates). Internal wiring:
    /// processed immediately.
    pub(crate) fn deliver_internal_notification(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        egress_port: usize,
        input: usize,
        path: PathSpec,
    ) {
        self.counters.recn_notifications += 1;
        let outcome = self.switches[sw].inputs[input]
            .recn_mut()
            .expect("RECN scheme")
            .alloc_on_notification(path);
        match outcome {
            NotifOutcome::Accepted { saq } => {
                self.saq_allocated(now, q, PortRef::SwitchIn { sw, port: input }, saq, &path);
            }
            NotifOutcome::AlreadyPresent { .. } | NotifOutcome::Rejected => {
                if matches!(outcome, NotifOutcome::Rejected) {
                    self.counters.recn_rejects += 1;
                } else {
                    self.counters.recn_duplicates += 1;
                }
                // The token bounces straight back to the notifying egress
                // port; its notified flag stays set (§3.8).
                let (_, path_at_egress) = path
                    .split_first()
                    .expect("internal notification paths are nonempty");
                let (change, dealloc) = self.switches[sw].outputs[egress_port]
                    .recn_mut()
                    .expect("RECN scheme")
                    .on_token_rejected_from_input(input, path_at_egress);
                self.note_root_change(now, q, sw, egress_port, change);
                if let Some(saq) = dealloc {
                    let port = PortRef::SwitchOut {
                        sw,
                        port: egress_port,
                    };
                    self.dealloc(now, q, port, saq);
                }
            }
        }
    }

    /// A notification arrived over a link's reverse channel at its upstream
    /// egress port (switch output or NIC injection).
    pub(crate) fn egress_recn_notification(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        link: usize,
        path: PathSpec,
    ) {
        let port = self.links[link].up.port();
        let outcome = self
            .port_mut(port)
            .recn_mut()
            .expect("RECN scheme")
            .alloc_on_notification(path);
        match outcome {
            NotifOutcome::Accepted { saq } => {
                self.saq_allocated(now, q, port, saq, &path);
                self.send_fwd_ctrl(
                    now,
                    q,
                    link,
                    Payload::RecnAck {
                        path,
                        line: saq.line() as u8,
                    },
                );
            }
            NotifOutcome::AlreadyPresent { .. } => {
                self.counters.recn_duplicates += 1;
                self.send_fwd_ctrl(now, q, link, Payload::RecnReject { path });
            }
            NotifOutcome::Rejected => {
                self.counters.recn_rejects += 1;
                self.send_fwd_ctrl(now, q, link, Payload::RecnReject { path });
            }
        }
    }

    // ------------------------------------------------------------------
    // Acks / rejects / tokens arriving at ingress ports
    // ------------------------------------------------------------------

    pub(crate) fn ingress_recn_ack(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        path: PathSpec,
        line: u8,
    ) {
        let xoff_now = self.switches[sw].inputs[port]
            .recn_mut()
            .expect("RECN scheme")
            .on_upstream_ack(path, line);
        if xoff_now {
            let in_link = self.switches[sw].in_link[port];
            self.counters.xoffs += 1;
            self.send_rev_ctrl(now, q, in_link, RevPayload::RecnXoff { path });
        }
    }

    pub(crate) fn ingress_recn_reject(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        path: PathSpec,
    ) {
        let dealloc = self.switches[sw].inputs[port]
            .recn_mut()
            .expect("RECN scheme")
            .on_upstream_reject(path);
        if let Some(saq) = dealloc {
            self.dealloc(now, q, PortRef::SwitchIn { sw, port }, saq);
        }
    }

    pub(crate) fn ingress_recn_token(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
        path: PathSpec,
    ) {
        let dealloc = self.switches[sw].inputs[port]
            .recn_mut()
            .expect("RECN scheme")
            .on_token_from_upstream(path);
        if let Some(saq) = dealloc {
            self.dealloc(now, q, PortRef::SwitchIn { sw, port }, saq);
        }
    }

    // ------------------------------------------------------------------
    // Deallocation cascades
    // ------------------------------------------------------------------

    /// Deallocates `saq` at `port` and delivers its token to the parent:
    /// an ingress SAQ hands it to the egress port of the same switch (which
    /// may clear its root or cascade), an egress or NIC SAQ sends it
    /// downstream across the port's link.
    pub(crate) fn dealloc(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        saq: SaqId,
    ) {
        let recn = self.port_mut(port).recn_mut().expect("RECN scheme");
        let path = recn.path_of(saq);
        let action = recn.dealloc(saq);
        self.counters.saq_deallocs += 1;
        let (site, idx) = self.saq_site(port);
        self.observer
            .on_saq_dealloc(now, site, idx, saq.line(), &path);
        self.census_change(now, site, idx, -1);
        match action.token_to {
            TokenDest::EgressSameSwitch {
                out_port,
                path_at_egress,
            } => {
                let PortRef::SwitchIn { sw, port: input } = port else {
                    unreachable!("only ingress SAQ tokens stay within the switch");
                };
                if action.xon_needed {
                    let in_link = self.switches[sw].in_link[input];
                    let path = path_at_egress.prepend(out_port);
                    self.counters.xons += 1;
                    self.send_rev_ctrl(now, q, in_link, RevPayload::RecnXon { path });
                }
                let out_port = out_port as usize;
                let (change, dealloc) = self.switches[sw].outputs[out_port]
                    .recn_mut()
                    .expect("RECN scheme")
                    .on_token_from_input(input, path_at_egress);
                self.note_root_change(now, q, sw, out_port, change);
                if let Some(next) = dealloc {
                    let parent = PortRef::SwitchOut { sw, port: out_port };
                    self.dealloc(now, q, parent, next);
                }
            }
            TokenDest::DownstreamLink { path } => {
                let link = self.egress_link(port);
                self.counters.recn_tokens += 1;
                self.send_fwd_ctrl(now, q, link, Payload::RecnToken { path });
            }
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
        self.observer.on_saq_alloc(now, site, idx, saq.line(), path);
        self.census_change(now, site, idx, 1);
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
                self.schedule_idle_check(now, q, port, saq);
            }
        }
        match port {
            PortRef::SwitchIn { sw, .. } => self.kick_input_arb(now, q, sw),
            _ => self.kick_egress_arb(now, now, q, self.egress_link(port)),
        }
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
                self.observer.on_root_change(now, sw, port, true);
                // ARN: a fresh congested root is the RECN-side trigger —
                // tell the children so their up-phase can route around
                // this subtree (no-op unless routing is `ArnUp`).
                self.arn_broadcast(now, q, sw, true);
            }
            Some(RootChange::ClearedRoot) => {
                self.counters.root_clears += 1;
                self.observer.on_root_change(now, sw, port, false);
                self.arn_broadcast(now, q, sw, false);
            }
            None => {}
        }
    }

    /// Schedules a deferred reclaim check for a never-used SAQ.
    fn schedule_idle_check(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        port: PortRef,
        saq: SaqId,
    ) {
        let at = now + self.cfg.saq_idle_timeout;
        if at == now {
            // Degenerate zero-timeout config: a same-time non-wakeup event
            // must close the open wakeup batch (see `lazy_push`).
            self.lazy_note_same_time_schedule(now);
        }
        q.schedule(at, Event::SaqIdleCheck { port, saq });
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

    /// The link an egress `port` transmits on.
    fn egress_link(&self, port: PortRef) -> usize {
        match port {
            PortRef::SwitchOut { sw, port } => self.switches[sw].out_link[port],
            PortRef::Nic { host } => self.nics[host].link,
            PortRef::SwitchIn { .. } => unreachable!("input ports drive no link"),
        }
    }

    /// `port` as the observer and the census name it: the site plus the
    /// flat per-site index.
    fn saq_site(&self, port: PortRef) -> (SaqSite, usize) {
        match port {
            PortRef::SwitchIn { sw, port } => (SaqSite::SwitchIngress, self.port_base[sw] + port),
            PortRef::SwitchOut { sw, port } => (SaqSite::SwitchEgress, self.port_base[sw] + port),
            PortRef::Nic { host } => (SaqSite::NicInjection, host),
        }
    }

    fn census_change(&mut self, now: Picos, site: SaqSite, idx: usize, delta: i32) {
        let (vec, max_tracker) = match site {
            SaqSite::SwitchIngress => (&mut self.saq_in, Some(&mut self.max_saq_in)),
            SaqSite::SwitchEgress => (&mut self.saq_out, Some(&mut self.max_saq_out)),
            SaqSite::NicInjection => (&mut self.saq_nic, None),
        };
        let old = vec[idx];
        let new = (old as i32 + delta).max(0) as u16;
        vec[idx] = new;
        self.saq_total = (self.saq_total as i64 + delta as i64).max(0) as u32;
        if let Some(max) = max_tracker {
            if new as u32 > *max {
                *max = new as u32;
            } else if delta < 0 && old as u32 == *max {
                // The port that defined the max shrank: recompute.
                let recomputed = vec.iter().copied().max().unwrap_or(0) as u32;
                *max = recomputed;
            }
        }
        let (mi, mo, tot) = (self.max_saq_in, self.max_saq_out, self.saq_total);
        self.observer.on_saq_census(now, mi, mo, tot);
    }
}

/// Sanity helper: asserts that no RECN resource is still allocated anywhere
/// in `net` (used by tests after congestion has fully subsided).
pub fn assert_recn_idle(net: &Network) {
    for (s, sw) in net.switches.iter().enumerate() {
        for p in 0..sw.inputs.len() {
            if let Some(r) = sw.inputs[p].recn() {
                assert_eq!(r.saqs_in_use(), 0, "leaked ingress SAQ at sw{s} port {p}");
            }
            if let Some(r) = sw.outputs[p].recn() {
                assert_eq!(r.saqs_in_use(), 0, "leaked egress SAQ at sw{s} port {p}");
                assert!(!r.is_root(), "stale root at sw{s} port {p}");
            }
        }
    }
    for (h, nic) in net.nics.iter().enumerate() {
        if let Some(r) = nic.inject.recn() {
            assert_eq!(r.saqs_in_use(), 0, "leaked NIC SAQ at host {h}");
        }
    }
    assert_eq!(net.saq_total(), 0, "census out of sync");
}
