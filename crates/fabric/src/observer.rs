//! Observation hooks for measurement without coupling the simulator to a
//! particular metrics stack.
//!
//! [`NetObserver`] started as the four coarse events the plotting probe
//! needs; it now also carries fine-grained hooks (hops, enqueues/dequeues,
//! credit changes, SAQ allocation lifecycle, drop attempts) so tracing
//! ([`crate::trace::TraceSink`]) and online invariant checking
//! ([`crate::validate::ValidatingObserver`]) can ride on the same channel.
//! Every method has an empty default body, so observers implement only
//! what they need and new hooks never break existing implementations.
//!
//! [`FanoutObserver`] drives several observers at once behind the single
//! `Box<dyn NetObserver>` slot [`crate::Network::new`] accepts, so a probe,
//! a tracer and a validator can all watch one run.

use simcore::Picos;
use topology::{HostId, PathSpec};

use crate::network::PortRef;
use crate::packet::Packet;

/// Where a SAQ-count change happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaqSite {
    /// A switch input port.
    SwitchIngress,
    /// A switch output port.
    SwitchEgress,
    /// A NIC injection port.
    NicInjection,
}

/// Classification of the queue an enqueue/dequeue event touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// A baseline-scheme queue or RECN's normal queue.
    Normal,
    /// A RECN set-aside queue (SAQ).
    Saq,
}

/// The hook list, said once: expands to [`NetObserver`] — every hook with
/// its documentation and an empty default body, and `interests` — to
/// [`HookSet`]'s one bit per hook, and to [`FanoutObserver`]'s forwarding of
/// each hook to its observers. A new hook is one entry here (plus its row in
/// `trace.rs`'s kind table if it is traced).
macro_rules! net_observer_hooks {
    ($($(#[$doc:meta])* fn $hook:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
        /// Receives simulation events of interest. All methods have empty
        /// default bodies so observers implement only what they need.
        pub trait NetObserver {
            $(
                $(#[$doc])*
                #[allow(unused_variables)]
                fn $hook(&mut self, $($arg: $ty),*) {}
            )*

            /// The hooks this observer wants called. [`crate::Network`]
            /// reads the set once, when it is built, and never calls a hook
            /// outside it — nor does the work of preparing its arguments —
            /// so a hook costs nothing unless someone listens. The default
            /// asks for every hook; an observer on the hot path of every
            /// run names the ones it implements
            /// (`HookSet::NONE.on_delivered().on_saq_census()`).
            fn interests(&self) -> HookSet {
                HookSet::ALL
            }
        }

        /// One bit position per hook, in list order.
        #[allow(non_camel_case_types)]
        enum HookBit {
            $($hook),*
        }

        impl HookSet {
            /// Every hook.
            pub const ALL: HookSet = HookSet(0 $(| 1 << HookBit::$hook as u16)*);

            $(
                /// This set plus the hook of the same name.
                #[must_use]
                pub const fn $hook(self) -> HookSet {
                    HookSet(self.0 | 1 << HookBit::$hook as u16)
                }
            )*
        }

        impl NetObserver for FanoutObserver {
            $(
                fn $hook(&mut self, $($arg: $ty),*) {
                    for o in &mut self.observers {
                        o.$hook($($arg),*);
                    }
                }
            )*

            /// Whatever any member asks for.
            fn interests(&self) -> HookSet {
                let members = self.observers.iter();
                members.fold(HookSet::NONE, |set, o| set.union(o.interests()))
            }
        }
    };
}

/// A set of [`NetObserver`] hooks: what an observer
/// [asks to be called for](NetObserver::interests). Built from
/// [`HookSet::NONE`] by the methods named after the hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookSet(u16);

impl HookSet {
    /// No hook.
    pub const NONE: HookSet = HookSet(0);

    /// The hooks in either set.
    #[must_use]
    pub const fn union(self, other: HookSet) -> HookSet {
        HookSet(self.0 | other.0)
    }

    /// Whether every hook of `other` is in this set.
    pub const fn contains(self, other: HookSet) -> bool {
        self.0 & other.0 == other.0
    }
}

net_observer_hooks! {
    /// A packet entered a NIC admittance queue.
    fn on_injected(now: Picos, pkt: &Packet);

    /// A packet was delivered to its destination host.
    fn on_delivered(now: Picos, pkt: &Packet);

    /// The network-wide SAQ census changed. `max_ingress` / `max_egress`
    /// are the highest per-port counts over all switch input / output
    /// ports; `total` includes NIC injection ports.
    fn on_saq_census(now: Picos, max_ingress: u32, max_egress: u32, total: u32);

    /// An egress port became (`true`) or stopped being (`false`) a
    /// congestion-tree root.
    fn on_root_change(now: Picos, switch: usize, port: usize, active: bool);

    /// A data packet started crossing `link` (injection or switch output).
    fn on_hop(now: Picos, pkt: &Packet, link: usize);

    /// A data packet was stored into queue `queue` of `port`.
    fn on_enqueue(now: Picos, port: PortRef, queue: usize, kind: QueueKind, pkt: &Packet);

    /// A data packet left queue `queue` of `port`.
    fn on_dequeue(now: Picos, port: PortRef, queue: usize, kind: QueueKind, pkt: &Packet);

    /// The sender-side credit view of `link` changed: `delta` bytes were
    /// consumed (negative) or replenished (positive) toward `queue`,
    /// leaving `free_after` bytes in the view. `cap` is the static pool
    /// capacity the view must never exceed (`None` for infinite host
    /// sinks).
    fn on_credit_change(
        now: Picos,
        link: usize,
        queue: u16,
        delta: i64,
        free_after: u64,
        cap: Option<u64>,
    );

    /// A SAQ was allocated at CAM line `line` of the port identified by
    /// `(site, index)` (`index` is `sw * radix + port` for switch sites and
    /// the host index for NIC injection). `path` is the congestion-tree
    /// path stored in the CAM, in the port's own turn coordinates.
    fn on_saq_alloc(now: Picos, site: SaqSite, index: usize, line: usize, path: &PathSpec);

    /// The SAQ at CAM line `line` of `(site, index)` was deallocated and
    /// its token released. Every `on_saq_alloc` must eventually be balanced
    /// by exactly one `on_saq_dealloc` for the same port.
    fn on_saq_dealloc(now: Picos, site: SaqSite, index: usize, line: usize, path: &PathSpec);

    /// A message of `bytes` bytes from `host` toward `dst` was refused at
    /// the NIC admittance stage (application back-pressure). This is the
    /// only place the model may ever discard traffic: packets already
    /// inside the network are never dropped — that is the lossless
    /// invariant [`crate::validate::ValidatingObserver`] enforces.
    /// (Exception: under the PFC transport, switch input ports drop on
    /// overflow by design; those drops are counted separately and the
    /// validator is not used with PFC runs.)
    fn on_drop_attempt(now: Picos, host: usize, dst: HostId, bytes: u32);

    /// A closed-loop flow at `host` re-sent packet `seq` toward `dst`
    /// (go-back-N rewind after a timeout or NACK).
    fn on_retransmit(now: Picos, host: usize, dst: HostId, seq: u64);

    /// PFC pause state of `link` changed: the upstream transmitter paused
    /// (`true`) or resumed (`false`).
    fn on_pause_change(now: Picos, link: usize, paused: bool);

    /// A closed-loop flow `src → dst` completed: every byte was delivered,
    /// `fct` after the flow opened.
    fn on_flow_complete(now: Picos, src: HostId, dst: HostId, fct: Picos);
}

/// An observer that records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl NetObserver for NullObserver {
    fn interests(&self) -> HookSet {
        HookSet::NONE
    }
}

/// Drives several observers from one `Box<dyn NetObserver>` slot, in the
/// order they were added — so a [`metrics`-style probe](NetObserver), a
/// [`crate::trace::TraceSink`] and a
/// [`crate::validate::ValidatingObserver`] can watch the same run without
/// changing the [`crate::Network::new`] construction API.
#[derive(Default)]
pub struct FanoutObserver {
    observers: Vec<Box<dyn NetObserver>>,
}

impl FanoutObserver {
    /// An empty fan-out (equivalent to [`NullObserver`]).
    pub fn new() -> FanoutObserver {
        FanoutObserver {
            observers: Vec::new(),
        }
    }

    /// Builds a fan-out over `observers`, dispatched in `Vec` order.
    pub fn over(observers: Vec<Box<dyn NetObserver>>) -> FanoutObserver {
        FanoutObserver { observers }
    }

    /// Appends `observer`; events reach it after all earlier observers.
    pub fn push(mut self, observer: Box<dyn NetObserver>) -> FanoutObserver {
        self.observers.push(observer);
        self
    }

    /// Number of fanned-out observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl std::fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutObserver")
            .field("observers", &self.observers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use topology::Route;

    #[test]
    fn null_observer_accepts_everything() {
        let mut o = NullObserver;
        o.on_saq_census(Picos::ZERO, 1, 2, 3);
        o.on_root_change(Picos::ZERO, 0, 0, true);
        o.on_credit_change(Picos::ZERO, 0, 0, -64, 100, Some(128));
        o.on_drop_attempt(Picos::ZERO, 0, HostId::new(1), 64);
        o.on_retransmit(Picos::ZERO, 0, HostId::new(1), 7);
        o.on_pause_change(Picos::ZERO, 3, true);
        o.on_flow_complete(
            Picos::ZERO,
            HostId::new(0),
            HostId::new(1),
            Picos::from_us(2),
        );
    }

    type Log = Rc<RefCell<Vec<(u32, &'static str)>>>;

    /// Logs `(its tag, hook name)` for every hook of the trait, so fan-out
    /// coverage and ordering are checkable.
    struct Tagged(u32, Log);

    impl Tagged {
        fn log(&self, hook: &'static str) {
            self.1.borrow_mut().push((self.0, hook));
        }
    }

    impl NetObserver for Tagged {
        fn on_injected(&mut self, _: Picos, _: &Packet) {
            self.log("injected");
        }
        fn on_delivered(&mut self, _: Picos, _: &Packet) {
            self.log("delivered");
        }
        fn on_saq_census(&mut self, _: Picos, _: u32, _: u32, _: u32) {
            self.log("census");
        }
        fn on_root_change(&mut self, _: Picos, _: usize, _: usize, _: bool) {
            self.log("root");
        }
        fn on_hop(&mut self, _: Picos, _: &Packet, _: usize) {
            self.log("hop");
        }
        fn on_enqueue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
            self.log("enqueue");
        }
        fn on_dequeue(&mut self, _: Picos, _: PortRef, _: usize, _: QueueKind, _: &Packet) {
            self.log("dequeue");
        }
        fn on_credit_change(&mut self, _: Picos, _: usize, _: u16, _: i64, _: u64, _: Option<u64>) {
            self.log("credit");
        }
        fn on_saq_alloc(&mut self, _: Picos, _: SaqSite, _: usize, _: usize, _: &PathSpec) {
            self.log("alloc");
        }
        fn on_saq_dealloc(&mut self, _: Picos, _: SaqSite, _: usize, _: usize, _: &PathSpec) {
            self.log("dealloc");
        }
        fn on_drop_attempt(&mut self, _: Picos, _: usize, _: HostId, _: u32) {
            self.log("drop");
        }
        fn on_retransmit(&mut self, _: Picos, _: usize, _: HostId, _: u64) {
            self.log("rtx");
        }
        fn on_pause_change(&mut self, _: Picos, _: usize, _: bool) {
            self.log("pause");
        }
        fn on_flow_complete(&mut self, _: Picos, _: HostId, _: HostId, _: Picos) {
            self.log("fct");
        }
    }

    /// A fan-out over observers tagged `1..=n`, and their shared log.
    fn tagged_fanout(n: u32) -> (FanoutObserver, Log) {
        let log = Log::default();
        let fan = (1..=n).fold(FanoutObserver::new(), |fan, tag| {
            fan.push(Box::new(Tagged(tag, log.clone())))
        });
        (fan, log)
    }

    /// `hooks` as logged by observers `1..=n`, each hook reaching them in
    /// push order before the next hook fires.
    fn in_push_order(n: u32, hooks: &[&'static str]) -> Vec<(u32, &'static str)> {
        hooks
            .iter()
            .flat_map(|&hook| (1..=n).map(move |tag| (tag, hook)))
            .collect()
    }

    /// Every hook of the trait is forwarded: the generated fan-out cannot
    /// leave one on its empty default.
    #[test]
    fn fanout_forwards_every_hook_to_every_observer_in_push_order() {
        let (mut fan, log) = tagged_fanout(2);
        let (t, h) = (Picos::ZERO, HostId::new(1));
        let pkt = Packet {
            id: 0,
            src: HostId::new(0),
            dst: h,
            size: 64,
            route: Route::to_host(h, 4, 2),
            injected_at: t,
            flow_seq: 0,
        };
        let port = PortRef::SwitchIn { sw: 0, port: 1 };
        let path = PathSpec::from_turns(&[2, 1]);
        fan.on_injected(t, &pkt);
        fan.on_delivered(t, &pkt);
        fan.on_saq_census(t, 1, 2, 3);
        fan.on_root_change(t, 0, 0, true);
        fan.on_hop(t, &pkt, 7);
        fan.on_enqueue(t, port, 0, QueueKind::Normal, &pkt);
        fan.on_dequeue(t, port, 0, QueueKind::Saq, &pkt);
        fan.on_credit_change(t, 0, 0, -64, 100, Some(128));
        fan.on_saq_alloc(t, SaqSite::SwitchIngress, 4, 0, &path);
        fan.on_saq_dealloc(t, SaqSite::SwitchIngress, 4, 0, &path);
        fan.on_drop_attempt(t, 0, h, 64);
        fan.on_retransmit(t, 0, h, 3);
        fan.on_pause_change(t, 5, false);
        fan.on_flow_complete(t, HostId::new(0), h, Picos::from_ns(9));
        let hooks = [
            "injected",
            "delivered",
            "census",
            "root",
            "hop",
            "enqueue",
            "dequeue",
            "credit",
            "alloc",
            "dealloc",
            "drop",
            "rtx",
            "pause",
            "fct",
        ];
        assert_eq!(*log.borrow(), in_push_order(2, &hooks));
    }

    #[test]
    fn hook_sets_are_one_bit_per_hook() {
        let each = [
            HookSet::NONE.on_injected(),
            HookSet::NONE.on_delivered(),
            HookSet::NONE.on_saq_census(),
            HookSet::NONE.on_root_change(),
            HookSet::NONE.on_hop(),
            HookSet::NONE.on_enqueue(),
            HookSet::NONE.on_dequeue(),
            HookSet::NONE.on_credit_change(),
            HookSet::NONE.on_saq_alloc(),
            HookSet::NONE.on_saq_dealloc(),
            HookSet::NONE.on_drop_attempt(),
            HookSet::NONE.on_retransmit(),
            HookSet::NONE.on_pause_change(),
            HookSet::NONE.on_flow_complete(),
        ];
        for (i, &one) in each.iter().enumerate() {
            assert!(HookSet::ALL.contains(one) && !HookSet::NONE.contains(one));
            assert_eq!(one.0.count_ones(), 1);
            assert!(each[..i].iter().all(|other| !other.contains(one)));
        }
        let all = each.iter().fold(HookSet::NONE, |set, &one| set.union(one));
        assert_eq!(all, HookSet::ALL);
        assert!(HookSet::NONE.on_hop().on_enqueue().contains(each[4]));
    }

    #[test]
    fn observers_ask_for_everything_unless_they_say_otherwise() {
        let (fan, _) = tagged_fanout(2);
        assert_eq!(fan.interests(), HookSet::ALL);
        assert_eq!(NullObserver.interests(), HookSet::NONE);
        assert_eq!(FanoutObserver::new().interests(), HookSet::NONE);
        let quiet = FanoutObserver::new().push(Box::new(NullObserver));
        assert_eq!(quiet.interests(), HookSet::NONE);
        assert_eq!(quiet.push(Box::new(fan)).interests(), HookSet::ALL);
    }

    #[test]
    fn fanout_dispatches_transport_hooks() {
        let (mut fan, log) = tagged_fanout(2);
        fan.on_retransmit(Picos::ZERO, 0, HostId::new(1), 3);
        fan.on_pause_change(Picos::ZERO, 5, false);
        fan.on_flow_complete(
            Picos::ZERO,
            HostId::new(0),
            HostId::new(1),
            Picos::from_ns(9),
        );
        assert_eq!(*log.borrow(), in_push_order(2, &["rtx", "pause", "fct"]));
    }

    #[test]
    fn fanout_dispatches_in_push_order() {
        let (mut fan, log) = tagged_fanout(3);
        assert_eq!(fan.len(), 3);
        assert!(!fan.is_empty());
        fan.on_saq_census(Picos::ZERO, 0, 0, 1);
        fan.on_root_change(Picos::ZERO, 0, 0, true);
        assert_eq!(
            *log.borrow(),
            vec![
                (1, "census"),
                (2, "census"),
                (3, "census"),
                (1, "root"),
                (2, "root"),
                (3, "root")
            ]
        );
    }

    #[test]
    fn fanout_over_builds_from_vec() {
        let log = Log::default();
        let mut fan = FanoutObserver::over(vec![
            Box::new(Tagged(7, log.clone())) as Box<dyn NetObserver>,
            Box::new(NullObserver),
        ]);
        fan.on_saq_census(Picos::ZERO, 0, 0, 0);
        assert_eq!(*log.borrow(), vec![(7, "census")]);
        assert!(FanoutObserver::new().is_empty());
    }
}
