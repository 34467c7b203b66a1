//! Event scheduling: the one way a handler schedules ([`Network::schedule`],
//! [`Network::kick`]) and the lazy event model's same-time FIFO, run in
//! place, which keeps lazy ≡ eager (DESIGN §6f).

use std::collections::VecDeque;

use simcore::{EventModel, EventQueue, Picos};

use super::{Event, LinkUp, Network};

/// An arbiter wakeup: an event of its own unless the lazy model runs it in
/// place.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wakeup {
    InputArb { sw: usize },
    EgressArb { link: usize },
    NicTransfer { host: usize },
}

/// One item of same-time work; `Event` stands for the front of
/// [`LazyState::events`], kept apart so an item is 16 B.
#[derive(Debug, Clone, Copy)]
enum Due {
    Wakeup(Wakeup),
    Event,
}

/// The lazy event model's same-time work (empty under eager).
///
/// What a handler schedules for the instant it runs at joins `due` in
/// schedule order, never the event queue. So every queue event due now was
/// scheduled before the first item, and eager's `(time, seq)` order runs it
/// first: [`Network::settle`] drains the FIFO once no queue event is due
/// now, and until then one [`Event::Sweep`] queued behind them stands in.
#[derive(Debug, Default)]
pub(crate) struct LazyState {
    due: VecDeque<Due>,
    events: VecDeque<Event>,
    sweep_queued: bool,
    work: SameTimeWork,
}

/// What the lazy event model ran in place ([`Network::same_time_work`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SameTimeWork {
    /// Arbiter wakeups.
    pub wakeups: u64,
    /// Other events (a zero delay, a message due at once).
    pub events: u64,
    /// [`Event::Sweep`]s queued to run them behind queue events due.
    pub sweeps: u64,
}

impl Network {
    /// Schedules `ev` at `at` on behalf of a handler running at `now`.
    pub(crate) fn schedule(&mut self, now: Picos, q: &mut EventQueue<Event>, at: Picos, ev: Event) {
        if at == now && self.cfg.event_model == EventModel::Lazy {
            self.lazy.events.push_back(ev);
            self.lazy.due.push_back(Due::Event);
        } else {
            q.schedule(at, ev);
        }
    }

    /// Schedules arbiter wakeup `w` at `at` unless it is already pending.
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
            return self.lazy.due.push_back(Due::Wakeup(w));
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

    /// Runs the same-time work a handler left at `now` in place, or, while
    /// queue events are still due now, queues one sweep behind them.
    #[inline]
    pub(super) fn settle(&mut self, now: Picos, q: &mut EventQueue<Event>) {
        if self.lazy.due.is_empty() || self.lazy.sweep_queued {
            return;
        }
        if q.peek_time() == Some(now) {
            self.lazy.sweep_queued = true;
            self.lazy.work.sweeps += 1;
            q.schedule(now, Event::Sweep);
        } else {
            self.drain(now, q);
        }
    }

    /// Runs the FIFO to empty, each item through the handler its eager
    /// event would have; what an item schedules for now joins the tail.
    pub(super) fn drain(&mut self, now: Picos, q: &mut EventQueue<Event>) {
        self.lazy.sweep_queued = false;
        while let Some(due) = self.lazy.due.pop_front() {
            match due {
                Due::Wakeup(w) => {
                    self.lazy.work.wakeups += 1;
                    match w {
                        Wakeup::InputArb { sw } => self.on_input_arb(now, q, sw),
                        Wakeup::EgressArb { link } => self.on_egress_arb(now, q, link),
                        Wakeup::NicTransfer { host } => self.on_nic_transfer(now, q, host),
                    }
                }
                Due::Event => {
                    self.lazy.work.events += 1;
                    let ev = self.lazy.events.pop_front().expect("one event per item");
                    self.dispatch(now, ev, q);
                }
            }
        }
    }

    /// What the lazy event model has run in place so far.
    pub fn same_time_work(&self) -> SameTimeWork {
        self.lazy.work
    }
}
