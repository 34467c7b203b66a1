//! Event scheduling: the arbiter wakeups ([`Network::kick`]), their coalescing
//! under the lazy event model, and the one point every other event a
//! handler schedules goes through — which is what keeps lazy ≡ eager.

use simcore::{EventModel, EventQueue, Picos};

use super::{Event, LinkUp, Network};

/// One coalesced arbiter wakeup awaiting a [`Event::Sweep`] (lazy model).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wakeup {
    InputArb { sw: usize },
    EgressArb { link: usize },
    NicTransfer { host: usize },
}

/// Book-keeping of the lazy event model's wakeup coalescing.
///
/// Same-time kicks join *batches*: runs of wakeups whose eager events
/// would have been adjacent in the queue (no other same-time event
/// scheduled in between). Each batch is announced by one [`Event::Sweep`]
/// scheduled at the batch's first kick — so the sweep inherits that
/// kick's queue position — and the FIFO stores batch members separated by
/// `None` boundary markers. A batch closes (`open = false`) when a
/// handler schedules a *non-wakeup* event at the current time
/// ([`Network::schedule`]): a later kick must then sort after that event,
/// which a fresh sweep provides.
#[derive(Debug, Default)]
pub(crate) struct LazyState {
    /// Simulated time the FIFO belongs to; a kick at a later time resets it.
    round: Picos,
    /// Whether the FIFO's tail batch still accepts members.
    open: bool,
    /// Whether a sweep is currently dispatching (kicks during a drain may
    /// need a boundary marker even when the FIFO is momentarily empty).
    draining: bool,
    /// Pending wakeups; `None` separates batches.
    fifo: std::collections::VecDeque<Option<Wakeup>>,
}

impl Network {
    /// Schedules `ev` at `at` on behalf of a handler running at `now` —
    /// the only way a handler schedules anything but an arbiter wakeup.
    /// An event landing at the current time (a source whose next message
    /// is due immediately, or any delay configured to zero) closes the
    /// open wakeup batch, so a later kick sorts after it exactly as its
    /// dedicated event would under the eager model.
    pub(crate) fn schedule(&mut self, now: Picos, q: &mut EventQueue<Event>, at: Picos, ev: Event) {
        if at == now && self.lazy.round == now {
            self.lazy.open = false;
        }
        q.schedule(at, ev);
    }

    /// Schedules arbiter wakeup `w` at `at` unless it is already pending.
    /// `now` is the current time: same-time kicks may coalesce under the
    /// lazy model, future ones (an egress port's busy retry and
    /// post-transmit self-kick) always get a dedicated event.
    pub(crate) fn kick(&mut self, now: Picos, at: Picos, q: &mut EventQueue<Event>, w: Wakeup) {
        let pending = match w {
            Wakeup::InputArb { sw } => &mut self.switches[sw].input_arb_scheduled,
            Wakeup::EgressArb { link } => &mut self.links[link].arb_scheduled,
            Wakeup::NicTransfer { host } => &mut self.nics[host].transfer_scheduled,
        };
        if std::mem::replace(pending, true) {
            return;
        }
        if at == now && self.cfg.event_model == EventModel::Lazy {
            return self.lazy_push(now, q, w);
        }
        let event = match w {
            Wakeup::InputArb { sw } => Event::InputArb { sw },
            Wakeup::NicTransfer { host } => Event::NicTransfer { host },
            Wakeup::EgressArb { link } => match self.links[link].up {
                LinkUp::Nic(host) => Event::NicArb { host },
                LinkUp::Switch { sw, port } => Event::OutputArb { sw, port },
            },
        };
        q.schedule(at, event);
    }

    /// Appends a same-time wakeup to the FIFO, opening a new batch (with
    /// its announcing [`Event::Sweep`]) if the tail batch is closed.
    fn lazy_push(&mut self, now: Picos, q: &mut EventQueue<Event>, w: Wakeup) {
        let lz = &mut self.lazy;
        if lz.round != now {
            debug_assert!(
                lz.fifo.is_empty() && !lz.draining,
                "wakeup FIFO must drain before time advances"
            );
            lz.round = now;
            lz.open = false;
        }
        if lz.open {
            lz.fifo.push_back(Some(w));
        } else {
            // A boundary marker keeps this batch out of a sweep that is
            // still draining an earlier batch (or mid-drain with the FIFO
            // momentarily empty) — the new batch's own sweep owns it.
            if lz.draining || !lz.fifo.is_empty() {
                lz.fifo.push_back(None);
            }
            lz.fifo.push_back(Some(w));
            lz.open = true;
            q.schedule(now, Event::Sweep);
        }
    }

    /// Dispatches one batch of coalesced wakeups. Each member runs through
    /// the same handler its eager event would have, in the same relative
    /// order; members kicked *during* the drain join the open tail batch
    /// (their eager events would also have sorted last).
    pub(super) fn on_sweep(&mut self, now: Picos, q: &mut EventQueue<Event>) {
        debug_assert_eq!(self.lazy.round, now, "sweep outlived its round");
        self.lazy.draining = true;
        loop {
            match self.lazy.fifo.pop_front() {
                Some(Some(w)) => match w {
                    Wakeup::InputArb { sw } => self.on_input_arb(now, q, sw),
                    Wakeup::EgressArb { link } => self.on_egress_arb(now, q, link),
                    Wakeup::NicTransfer { host } => self.on_nic_transfer(now, q, host),
                },
                // Batch boundary: the next batch's sweep is already queued.
                Some(None) => break,
                None => {
                    // Drained the open tail batch; the next kick starts a
                    // fresh batch with a fresh sweep.
                    self.lazy.open = false;
                    break;
                }
            }
        }
        self.lazy.draining = false;
    }
}
