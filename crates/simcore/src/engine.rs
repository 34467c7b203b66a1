//! The simulation driver loop.

use crate::{EventQueue, Picos};

/// How a model turns state changes into scheduled events.
///
/// The engine itself is agnostic — it drains whatever the model schedules.
/// The type lives here because it names a contract *between* models and
/// observers: [`EventModel::Lazy`], the model every run uses, may run
/// same-time work in place of events and elide no-op work, but it must
/// produce the exact same observable behaviour (observer hook sequence,
/// counters, series) as [`EventModel::Eager`], the reference the
/// differential suite checks it against. Only bookkeeping internals — the
/// number of events processed and the queue depth — are allowed to differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventModel {
    /// Reference implementation: one dedicated event per wakeup, arbiters
    /// polled whenever a kick arrives, no elision. Every behaviour claim
    /// is defined against this model; only tests run it.
    Eager,
    /// The production model: work due at the instant it is scheduled runs
    /// in place, idle arbiters return without scanning, and no-op
    /// wakeups are elided at execution time. Bit-exact with `Eager` by
    /// construction (see DESIGN.md §6f); proven by the differential suite.
    #[default]
    Lazy,
}

/// A simulation model driven by [`Engine`].
///
/// The model receives each event together with the current simulated time
/// and may schedule further events through the queue. Models are plain
/// state machines; all timing lives in the event queue.
pub trait SimModel {
    /// Event payload type dispatched to the model.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: Picos, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Discrete-event simulation engine: owns the model and the event queue and
/// advances time by draining events in order.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct Engine<M: SimModel> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Picos,
    processed: u64,
}

impl<M: SimModel> Engine<M> {
    /// Creates an engine around `model` with an empty event queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: Picos::ZERO,
            processed: 0,
        }
    }

    /// Shared access to the event queue (e.g. to read `peak_len`).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to install probes between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Mutable access to the event queue (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs until the queue is empty or the next event is strictly after
    /// `deadline`. Events exactly at `deadline` are processed. Returns the
    /// number of events processed by this call.
    ///
    /// Time never moves backwards: an event scheduled in the past (a model
    /// bug) is detected and panics.
    ///
    /// # Panics
    ///
    /// Panics if an event is scheduled before the current simulated time.
    pub fn run_until(&mut self, deadline: Picos) -> u64 {
        let mut n = 0;
        while let Some(ev) = self.queue.pop_due(deadline) {
            assert!(
                ev.time >= self.now,
                "event scheduled in the past: {} < {}",
                ev.time,
                self.now
            );
            self.now = ev.time;
            self.model.handle(self.now, ev.event, &mut self.queue);
            self.processed += 1;
            n += 1;
        }
        // Even if no event landed at the deadline itself, the simulation
        // has logically reached it.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Runs until the event queue drains completely.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(Picos::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records `(time, tag)` pairs and optionally re-schedules.
    struct Recorder {
        log: Vec<(Picos, u32)>,
        chain: u32,
    }

    impl SimModel for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Picos, ev: u32, q: &mut EventQueue<u32>) {
            self.log.push((now, ev));
            if ev < self.chain {
                q.schedule(now + Picos::from_ns(1), ev + 1);
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng = Engine::new(Recorder {
            log: vec![],
            chain: 100,
        });
        eng.queue_mut().schedule(Picos::ZERO, 0);
        let n = eng.run_until(Picos::from_ns(10));
        assert_eq!(n, 11); // events at 0..=10 ns
        assert_eq!(eng.now(), Picos::from_ns(10));
        assert_eq!(eng.processed(), 11);
        // The chain continues afterwards.
        let n2 = eng.run_until(Picos::from_ns(20));
        assert_eq!(n2, 10);
    }

    #[test]
    fn deadline_advances_time_even_without_events() {
        let mut eng = Engine::new(Recorder {
            log: vec![],
            chain: 0,
        });
        eng.run_until(Picos::from_us(5));
        assert_eq!(eng.now(), Picos::from_us(5));
        assert_eq!(eng.processed(), 0);
    }

    #[test]
    fn run_to_completion_drains() {
        let mut eng = Engine::new(Recorder {
            log: vec![],
            chain: 5,
        });
        eng.queue_mut().schedule(Picos::from_ns(3), 0);
        eng.run_to_completion();
        assert_eq!(eng.model().log.len(), 6);
        assert_eq!(eng.model().log[0], (Picos::from_ns(3), 0));
        assert_eq!(eng.model().log[5], (Picos::from_ns(8), 5));
    }

    #[test]
    fn into_model_returns_state() {
        let mut eng = Engine::new(Recorder {
            log: vec![],
            chain: 1,
        });
        eng.queue_mut().schedule(Picos::ZERO, 0);
        eng.run_to_completion();
        let model = eng.into_model();
        assert_eq!(model.log.len(), 2);
    }
}
