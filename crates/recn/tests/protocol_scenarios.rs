//! Scripted end-to-end protocol scenarios over *pure* RECN state machines:
//! a miniature two-switch pipeline is wired out of `RecnPort`s with no
//! simulator underneath, and complete congestion-tree lifecycles are
//! driven through it — growth across both hop types, Xoff/Xon chains,
//! branch-token collection, rejection handling, and teardown ordering.
//!
//! The fabric crate tests the same protocol with timing and buffering; the
//! value here is that every step is explicit, so a regression pinpoints
//! the exact protocol transition that broke.
//!
//! The last test drives one ingress port with seeded *random* protocol
//! traffic against a shadow model instead of a script.

use recn::{Classify, NotifOutcome, RecnConfig, RecnPort, Returned, SaqId};
use simcore::Xoshiro256;
use topology::PathSpec;

fn cfg() -> RecnConfig {
    RecnConfig {
        max_saqs: 4,
        detection_threshold: 1000,
        propagation_threshold: 300,
        xoff_threshold: 600,
        xon_threshold: 150,
        drain_boost_pkts: 2,
        root_clear_threshold: 500,
    }
}

fn accept(o: NotifOutcome) -> SaqId {
    match o {
        NotifOutcome::Accepted { saq } => saq,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

/// Local stand-in for the fabric crate's `ValidatingObserver` (this crate
/// sits below fabric and cannot depend on it): a per-scenario ledger of
/// SAQ allocations keyed by `(port, line)` that enforces the same
/// lifecycle invariants — no double allocation, no dealloc without a
/// matching alloc, and exact alloc/dealloc balance at teardown.
#[derive(Default)]
struct InvariantLedger {
    live: std::collections::HashSet<(usize, usize)>,
    allocs: u64,
    deallocs: u64,
}

impl InvariantLedger {
    fn alloc(&mut self, port: usize, saq: SaqId) -> SaqId {
        assert!(
            self.live.insert((port, saq.line())),
            "invariant violation: double allocation of line {} at port {port}",
            saq.line()
        );
        self.allocs += 1;
        saq
    }

    fn dealloc(&mut self, port: usize, saq: SaqId) {
        assert!(
            self.live.remove(&(port, saq.line())),
            "invariant violation: dealloc of line {} at port {port} without an allocation",
            saq.line()
        );
        self.deallocs += 1;
    }

    fn assert_balanced(&self) {
        assert!(self.live.is_empty(), "SAQs leaked: {:?}", self.live);
        assert_eq!(self.allocs, self.deallocs, "alloc/dealloc imbalance");
    }
}

/// A two-switch pipeline around one congested egress port:
///
/// ```text
/// NIC ─▶ [up_in ─ up_eg] ─link─ [down_in ─ down_eg(=hotspot root)]
/// ```
///
/// Only the RECN control state is modeled; "packets" are byte counts fed
/// to the enqueue/dequeue hooks.
struct Pipeline {
    nic: RecnPort,
    up_in: RecnPort,
    up_eg: RecnPort,
    down_in: RecnPort,
    down_eg: RecnPort,
}

impl Pipeline {
    fn new() -> Pipeline {
        Pipeline {
            nic: RecnPort::new_nic_injection(cfg()),
            up_in: RecnPort::new_ingress(cfg()),
            // The upstream egress is port 1 of its switch; the packets'
            // turn toward the root at the downstream switch is 2.
            up_eg: RecnPort::new_egress(cfg(), 1),
            down_in: RecnPort::new_ingress(cfg()),
            down_eg: RecnPort::new_egress(cfg(), 2),
        }
    }
}

/// Full lifecycle: detection at the root, notification hop by hop to the
/// NIC, Xoff chain, then teardown leaf-to-root with token accounting.
#[test]
fn full_tree_lifecycle_across_two_switches() {
    let mut p = Pipeline::new();
    // Ledger ports: 0 = nic, 1 = up_in, 2 = up_eg, 3 = down_in.
    let mut ledger = InvariantLedger::default();

    // 1. Root detection at the downstream egress.
    assert!(p.down_eg.normal_occupancy_changed(1000).is_some());
    assert!(p.down_eg.is_root());

    // 2. A packet forwarded from down_in (input 0) triggers the internal
    //    notification with path [2] (the root's turn).
    let n = p.down_eg.on_forward_from_input(0, Classify::Normal);
    let path_at_down_in = n.root.expect("root notifies first forwarder");
    assert_eq!(path_at_down_in, PathSpec::from_turns(&[2]));
    let down_saq = ledger.alloc(3, accept(p.down_in.alloc_on_notification(path_at_down_in)));
    // The marker plan for a first SAQ is just the normal queue.
    assert!(p.down_in.marker_plan(down_saq).is_empty());
    assert!(!p.down_in.marker_consumed(down_saq), "never-used SAQ stays");

    // 3. The ingress SAQ fills past the propagation threshold and notifies
    //    the upstream egress across the link (path unchanged).
    let sig = p.down_in.saq_enqueued(down_saq, 350);
    assert_eq!(sig.propagate, Some(PathSpec::from_turns(&[2])));
    let up_saq = ledger.alloc(
        2,
        accept(p.up_eg.alloc_on_notification(PathSpec::from_turns(&[2]))),
    );
    assert!(!p.down_in.on_upstream_ack(PathSpec::from_turns(&[2])));

    // 4. The upstream egress SAQ fills and switches to notify-on-forward;
    //    forwarding from up_in extends the path with the egress turn (1).
    assert!(!p.up_eg.marker_consumed(up_saq));
    p.up_eg.saq_enqueued(up_saq, 350);
    let n = p.up_eg.on_forward_from_input(3, Classify::Saq(up_saq));
    let path_at_up_in = n.tree.expect("propagating SAQ notifies");
    assert_eq!(path_at_up_in, PathSpec::from_turns(&[1, 2]));
    let up_in_saq = ledger.alloc(1, accept(p.up_in.alloc_on_notification(path_at_up_in)));

    // 5. And one more hop to the NIC injection port.
    p.up_in.marker_consumed(up_in_saq);
    let sig = p.up_in.saq_enqueued(up_in_saq, 400);
    assert_eq!(sig.propagate, Some(PathSpec::from_turns(&[1, 2])));
    let nic_saq = ledger.alloc(
        0,
        accept(p.nic.alloc_on_notification(PathSpec::from_turns(&[1, 2]))),
    );
    assert!(!p.up_in.on_upstream_ack(PathSpec::from_turns(&[1, 2])));

    // 6. Xoff chain: down_in crosses its Xoff threshold.
    let sig = p.down_in.saq_enqueued(down_saq, 300); // 650 >= 600
    assert!(sig.xoff, "must throttle the upstream SAQ");
    p.up_eg.set_remote_xoff(PathSpec::from_turns(&[2]), true);
    assert!(!p.up_eg.may_transmit(up_saq));

    // 7. Drain downstream (already unblocked in step 2); Xon released when
    //    occupancy falls below the threshold.
    let sig = p.down_in.saq_dequeued(down_saq, 550); // 100 < 150
    assert!(sig.xon);
    p.up_eg.set_remote_xoff(PathSpec::from_turns(&[2]), false);
    assert!(p.up_eg.may_transmit(up_saq));

    // 8. Teardown, leaf to root. The NIC SAQ is used then drains empty.
    p.nic.marker_consumed(nic_saq);
    p.nic.saq_enqueued(nic_saq, 64);
    assert!(p.nic.saq_dequeued(nic_saq, 64).deallocatable);
    ledger.dealloc(0, nic_saq);
    p.nic.dealloc(nic_saq);

    // up_in receives the token across the link (same path), drains, and
    // deallocates toward up_eg, the egress its path's first turn names.
    let ready = p
        .up_in
        .token_from_upstream(PathSpec::from_turns(&[1, 2]), Returned::Released);
    assert!(ready.is_none(), "still holds 400 bytes");
    assert!(p.up_in.saq_dequeued(up_in_saq, 400).deallocatable);
    ledger.dealloc(1, up_in_saq);
    let up_in_path = p.up_in.path_of(up_in_saq);
    p.up_in.dealloc(up_in_saq);
    let (out_port, path_at_egress) = up_in_path.split_first().unwrap();
    assert_eq!(out_port, 1);
    assert_eq!(path_at_egress, PathSpec::from_turns(&[2]));

    // up_eg collects the branch token, drains, deallocates across the link.
    let (_, dealloc) = p
        .up_eg
        .token_from_input(3, path_at_egress, Returned::Released);
    assert!(dealloc.is_none(), "up_eg still holds bytes");
    assert!(p.up_eg.saq_dequeued(up_saq, 350).deallocatable);
    ledger.dealloc(2, up_saq);
    p.up_eg.dealloc(up_saq);

    // down_in gets the token back, drains the rest, returns to the root.
    assert!(p
        .down_in
        .token_from_upstream(PathSpec::from_turns(&[2]), Returned::Released)
        .is_none());
    assert!(p.down_in.saq_dequeued(down_saq, 100).deallocatable);
    ledger.dealloc(3, down_saq);
    let down_path = p.down_in.path_of(down_saq);
    p.down_in.dealloc(down_saq);
    assert_eq!(down_path.split_first(), Some((2, PathSpec::EMPTY)));

    // Root: token home + queue drained = tree gone.
    let (change, _) = p
        .down_eg
        .token_from_input(0, PathSpec::EMPTY, Returned::Released);
    assert!(
        change.is_none(),
        "occupancy still above the clear threshold"
    );
    assert!(
        p.down_eg.normal_occupancy_changed(100).is_some(),
        "root clears"
    );
    assert!(!p.down_eg.is_root());

    // Everything reclaimed, and the ledger agrees event by event.
    ledger.assert_balanced();
    for port in [&p.nic, &p.up_in, &p.up_eg, &p.down_in, &p.down_eg] {
        assert_eq!(port.saqs_in_use(), 0);
    }
}

/// Two roots on different egress ports of one switch: the shared input
/// port holds one SAQ per tree and classifies by first turn.
#[test]
fn parallel_trees_share_an_input_port() {
    let mut input = RecnPort::new_ingress(cfg());
    let mut eg_a = RecnPort::new_egress(cfg(), 0);
    let mut eg_b = RecnPort::new_egress(cfg(), 3);
    eg_a.normal_occupancy_changed(1200);
    eg_b.normal_occupancy_changed(1200);

    let na = eg_a
        .on_forward_from_input(1, Classify::Normal)
        .root
        .unwrap();
    let nb = eg_b
        .on_forward_from_input(1, Classify::Normal)
        .root
        .unwrap();
    let sa = accept(input.alloc_on_notification(na));
    let sb = accept(input.alloc_on_notification(nb));
    // Disjoint paths: no nesting, each gets only the normal-queue marker.
    assert!(input.marker_plan(sa).is_empty());
    assert!(input.marker_plan(sb).is_empty());
    assert_eq!(input.classify(&[0, 2]), Classify::Saq(sa));
    assert_eq!(input.classify(&[3, 2]), Classify::Saq(sb));
    assert_eq!(input.classify(&[1, 2]), Classify::Normal);

    // Independent teardown.
    input.marker_consumed(sa);
    input.saq_enqueued(sa, 10);
    assert!(input.saq_dequeued(sa, 10).deallocatable);
    input.dealloc(sa);
    assert_eq!(input.classify(&[0, 2]), Classify::Normal, "tree A gone");
    assert_eq!(
        input.classify(&[3, 2]),
        Classify::Saq(sb),
        "tree B unaffected"
    );
}

/// Nested trees: allocating the deeper path after the shallower one makes
/// the marker plan include the prefix SAQ; classification prefers the
/// longest match while both live and falls back after teardown.
#[test]
fn nested_trees_marker_plan_and_fallback() {
    let mut input = RecnPort::new_ingress(cfg());
    let shallow = accept(input.alloc_on_notification(PathSpec::from_turns(&[2])));
    input.marker_consumed(shallow);
    let deep = accept(input.alloc_on_notification(PathSpec::from_turns(&[2, 1])));
    assert_eq!(
        input.marker_plan(deep),
        vec![shallow],
        "prefix SAQ gets a marker"
    );

    // Two markers outstanding: normal queue + the shallow SAQ's queue.
    assert!(input.is_blocked(deep));
    assert!(!input.marker_consumed(deep), "one marker left");
    assert!(input.is_blocked(deep));
    assert!(!input.marker_consumed(deep), "unblocked but never used");
    assert!(!input.is_blocked(deep));

    assert_eq!(input.classify(&[2, 1, 0]), Classify::Saq(deep));
    assert_eq!(input.classify(&[2, 0, 0]), Classify::Saq(shallow));

    // Tear down the deep tree; its flows fall back to the shallow SAQ.
    input.saq_enqueued(deep, 64);
    assert!(input.saq_dequeued(deep, 64).deallocatable);
    input.dealloc(deep);
    assert_eq!(input.classify(&[2, 1, 0]), Classify::Saq(shallow));
}

/// Rejection at a full CAM returns the token without disturbing the tree,
/// and the egress keeps its notified flag so there is no notification
/// storm.
#[test]
fn rejection_keeps_tree_consistent() {
    let small = RecnConfig {
        max_saqs: 1,
        ..cfg()
    };
    let mut input = RecnPort::new_ingress(small);
    let mut egress = RecnPort::new_egress(small, 0);
    egress.normal_occupancy_changed(1200);

    // First tree takes the only line.
    let other = accept(input.alloc_on_notification(PathSpec::from_turns(&[3])));
    let path = egress
        .on_forward_from_input(2, Classify::Normal)
        .root
        .unwrap();
    assert_eq!(input.alloc_on_notification(path), NotifOutcome::Rejected);
    // Token returns as a rejection: flag stays, no re-notify on the next
    // forward from the same input.
    let (change, dealloc) = egress.token_from_input(2, PathSpec::EMPTY, Returned::Rejected);
    assert!(change.is_none() && dealloc.is_none());
    assert!(egress.on_forward_from_input(2, Classify::Normal).is_empty());
    // A different input still gets notified.
    assert!(egress
        .on_forward_from_input(3, Classify::Normal)
        .root
        .is_some());

    // The unrelated tree is untouched.
    assert!(input.is_live(other));
}

/// Re-congestion while a tree is tearing down: the flag cleared by a token
/// return allows a fresh notification and a fresh SAQ generation. The
/// egress turn (2) and the input (1) differ, so the token must clear the
/// bit of the input it came from, not of the turn.
#[test]
fn recongestion_after_token_return() {
    const INPUT: usize = 1;
    let mut input = RecnPort::new_ingress(cfg());
    let mut egress = RecnPort::new_egress(cfg(), 2);
    egress.normal_occupancy_changed(1200);

    let path = egress
        .on_forward_from_input(INPUT, Classify::Normal)
        .root
        .unwrap();
    assert_eq!(path, PathSpec::from_turns(&[2]));
    let saq1 = accept(input.alloc_on_notification(path));
    input.marker_consumed(saq1);
    input.saq_enqueued(saq1, 64);
    assert!(input.saq_dequeued(saq1, 64).deallocatable);
    input.dealloc(saq1);
    let (_, path_at_egress) = path.split_first().unwrap();
    let (change, _) = egress.token_from_input(INPUT, path_at_egress, Returned::Released);
    assert!(change.is_none(), "queue still above clear threshold");

    // Congestion persists: the next forward re-notifies the input.
    let n2 = egress.on_forward_from_input(INPUT, Classify::Normal);
    let saq2 = accept(input.alloc_on_notification(n2.root.unwrap()));
    assert_ne!(saq1, saq2, "fresh generation");
    assert!(!input.is_live(saq1));
    assert!(input.is_live(saq2));
}

/// A branch token that comes home released lets its input be notified
/// about the same tree again; one that comes home rejected leaves the
/// input's notified bit set, so a port with no free line is not notified
/// at every packet (§3.8).
#[test]
fn egress_saq_renotifies_an_input_only_after_a_released_token() {
    let mut egress = RecnPort::new_egress(cfg(), 1);
    let at_egress = PathSpec::from_turns(&[3]);
    let tree = accept(egress.alloc_on_notification(at_egress));
    egress.marker_consumed(tree);
    egress.saq_enqueued(tree, 400); // propagating
    let at_input = Some(PathSpec::from_turns(&[1, 3]));
    for input in [0, 2] {
        let n = egress.on_forward_from_input(input, Classify::Saq(tree));
        assert_eq!(n.tree, at_input);
    }

    let (_, d) = egress.token_from_input(0, at_egress, Returned::Rejected);
    assert!(d.is_none());
    assert!(egress
        .on_forward_from_input(0, Classify::Saq(tree))
        .is_empty());

    let (_, d) = egress.token_from_input(2, at_egress, Returned::Released);
    assert!(d.is_none(), "still holds bytes");
    let n = egress.on_forward_from_input(2, Classify::Saq(tree));
    assert_eq!(n.tree, at_input, "a fresh branch for the same tree");
}

/// The token of an ingress SAQ's upstream child comes home either way with
/// the upstream flag cleared, but only a released one re-arms propagation
/// at once: a SAQ still past the threshold notifies upstream again at its
/// next packet. After a rejection it must dip below the threshold first.
#[test]
fn ingress_regrows_at_once_only_after_a_released_token() {
    let mut input = RecnPort::new_ingress(cfg());
    let path = PathSpec::from_turns(&[2]);
    let saq = accept(input.alloc_on_notification(path));
    input.marker_consumed(saq);
    assert_eq!(input.saq_enqueued(saq, 400).propagate, Some(path));

    assert!(input
        .token_from_upstream(path, Returned::Rejected)
        .is_none());
    assert_eq!(input.saq_enqueued(saq, 64).propagate, None, "not re-armed");
    input.saq_dequeued(saq, 400); // 64 B, below the threshold: re-armed
    assert_eq!(input.saq_enqueued(saq, 400).propagate, Some(path));

    assert!(input
        .token_from_upstream(path, Returned::Released)
        .is_none());
    assert_eq!(input.saq_enqueued(saq, 64).propagate, Some(path));
}

/// A SAQ never deallocates with Xoff asserted upstream, so `dealloc` owes
/// no Xon: an acked SAQ that went past Xoff (the propagation threshold out
/// of reach, so it stays a leaf) releases Xoff on the dequeue that drains
/// it below the positive `xon_threshold` — which `check` requires, since
/// under a threshold of 0 the SAQ would drain empty with Xoff still up.
#[test]
fn dealloc_owes_an_xon_only_if_the_saq_drained_with_xoff_asserted() {
    let path = PathSpec::from_turns(&[2]);
    let config = RecnConfig {
        propagation_threshold: u64::MAX,
        xon_threshold: 150,
        ..cfg()
    };
    assert!(RecnConfig {
        xon_threshold: 0,
        ..config
    }
    .check()
    .is_err());
    let mut input = RecnPort::new_ingress(config);
    let saq = accept(input.alloc_on_notification(path));
    input.marker_consumed(saq);
    assert!(!input.on_upstream_ack(path), "empty at ack time");
    assert!(input.saq_enqueued(saq, 700).xoff, "past Xoff (600)");
    let drained = input.saq_dequeued(saq, 700);
    assert!(drained.xon, "the draining dequeue releases Xoff");
    assert!(drained.deallocatable);
    input.dealloc(saq);
}

/// Branch tokens: an egress SAQ that notified several inputs only
/// deallocates after every branch returned its token — mixed acceptance
/// and rejection included.
#[test]
fn branch_tokens_with_mixed_outcomes() {
    let small = RecnConfig {
        max_saqs: 1,
        ..cfg()
    };
    let mut egress = RecnPort::new_egress(cfg(), 1);
    let mut in_full = RecnPort::new_ingress(small);
    let mut in_free = RecnPort::new_ingress(cfg());
    // Make in_full's CAM full.
    let _occupier = accept(in_full.alloc_on_notification(PathSpec::from_turns(&[0])));

    let tree = accept(egress.alloc_on_notification(PathSpec::from_turns(&[3])));
    assert!(!egress.marker_consumed(tree));
    egress.saq_enqueued(tree, 400); // propagating

    let n0 = egress
        .on_forward_from_input(0, Classify::Saq(tree))
        .tree
        .unwrap();
    let n1 = egress
        .on_forward_from_input(1, Classify::Saq(tree))
        .tree
        .unwrap();
    assert_eq!(n0, PathSpec::from_turns(&[1, 3]));

    // Input 0 rejects; input 1 accepts.
    assert_eq!(in_full.alloc_on_notification(n0), NotifOutcome::Rejected);
    let (_, d) = egress.token_from_input(0, PathSpec::from_turns(&[3]), Returned::Rejected);
    assert!(d.is_none());
    let child = accept(in_free.alloc_on_notification(n1));

    // Egress drains empty but must wait for input 1's token.
    assert!(!egress.saq_dequeued(tree, 400).deallocatable);

    // Input 1 tears down (used once) and returns its token.
    in_free.marker_consumed(child);
    in_free.saq_enqueued(child, 64);
    assert!(in_free.saq_dequeued(child, 64).deallocatable);
    in_free.dealloc(child);
    let (_, path_at_egress) = n1.split_first().unwrap();
    let (_, dealloc) = egress.token_from_input(1, path_at_egress, Returned::Released);
    assert_eq!(dealloc, Some(tree), "all branches home, empty: tear down");
    egress.dealloc(tree);
}

/// The drain-boost rule kicks in exactly when a lingering SAQ owns its
/// token and holds at most `drain_boost_pkts` packets.
#[test]
fn drain_boost_window() {
    let mut input = RecnPort::new_ingress(cfg());
    let saq = accept(input.alloc_on_notification(PathSpec::from_turns(&[2])));
    input.marker_consumed(saq);
    for _ in 0..3 {
        input.saq_enqueued(saq, 64);
    }
    assert!(!input.drain_boost(saq), "3 packets > boost window of 2");
    input.saq_dequeued(saq, 64);
    assert!(input.drain_boost(saq), "2 packets, token owned");
    // Spawning an upstream child suspends the boost until the token is home.
    input.saq_enqueued(saq, 400); // crosses propagation threshold
    assert!(!input.drain_boost(saq));
    input.token_from_upstream(PathSpec::from_turns(&[2]), Returned::Released);
    input.saq_dequeued(saq, 400);
    assert!(input.drain_boost(saq));
}

/// One live SAQ of the shadow model in
/// [`ingress_port_protocol_invariants`].
struct Shadow {
    saq: SaqId,
    /// Queued packet sizes, oldest first.
    queue: Vec<u64>,
    /// Markers not yet consumed (the SAQ is blocked while nonzero).
    markers: usize,
    /// Whether an upstream child SAQ is outstanding.
    child: bool,
}

/// Random single-port protocol driving: an ingress port receives
/// notifications, packets, token returns and marker consumptions in
/// arbitrary order; the shadow model's invariants must hold throughout
/// and every SAQ must be reclaimable at the end. Seeds: the case the
/// retired property suite pinned (marker consumption racing token
/// returns), then a fixed range.
#[test]
fn ingress_port_protocol_invariants() {
    let cfg = RecnConfig {
        max_saqs: 8,
        detection_threshold: 4000,
        propagation_threshold: 1500,
        xoff_threshold: 3000,
        xon_threshold: 500,
        drain_boost_pkts: 2,
        root_clear_threshold: 2000,
    };
    for seed in std::iter::once(0x1cea_9f0e_f492_67ea).chain(0..400) {
        let mut rng = Xoshiro256::new(seed);
        let mut port = RecnPort::new_ingress(cfg);
        let mut live: Vec<Shadow> = Vec::new();
        for _ in 0..1 + rng.next_below(120) {
            let op = rng.next_below(5);
            if op == 0 {
                let len = 1 + rng.next_below(3);
                let path: Vec<u8> = (0..len).map(|_| rng.next_below(4) as u8).collect();
                match port.alloc_on_notification(PathSpec::from_turns(&path)) {
                    NotifOutcome::Accepted { saq } => live.push(Shadow {
                        saq,
                        queue: Vec::new(),
                        markers: 1 + port.marker_plan(saq).len(),
                        child: false,
                    }),
                    NotifOutcome::AlreadyPresent { saq } => assert!(port.is_live(saq)),
                    NotifOutcome::Rejected => assert_eq!(port.saqs_in_use(), 8),
                }
            } else if !live.is_empty() {
                let idx = rng.next_below(8) as usize % live.len();
                let s = &mut live[idx];
                // Whether the op left the SAQ reclaimable (then it must be
                // empty, unblocked and childless, and is deallocated).
                let reclaim = match op {
                    1 => {
                        let bytes = 1 + rng.next_below(1999);
                        s.queue.push(bytes);
                        if port.saq_enqueued(s.saq, bytes).propagate.is_some() {
                            assert!(!s.child, "no double propagation (seed {seed})");
                            s.child = true;
                        }
                        false
                    }
                    // Only unblocked, nonempty SAQs may transmit.
                    2 if s.markers == 0 && !s.queue.is_empty() => {
                        let bytes = s.queue.remove(0);
                        port.saq_dequeued(s.saq, bytes).deallocatable
                    }
                    3 if s.markers > 0 => {
                        s.markers -= 1;
                        port.marker_consumed(s.saq)
                    }
                    4 if s.child => {
                        s.child = false;
                        let back =
                            port.token_from_upstream(port.path_of(s.saq), Returned::Released);
                        assert!(back.is_none_or(|d| d == s.saq), "seed {seed}");
                        back.is_some()
                    }
                    _ => false,
                };
                if reclaim {
                    let s = live.remove(idx);
                    assert!(
                        s.queue.is_empty() && s.markers == 0 && !s.child,
                        "reclaimed a busy SAQ (seed {seed})"
                    );
                    port.dealloc(s.saq);
                }
            }
            assert_eq!(port.saqs_in_use(), live.len(), "seed {seed}");
        }

        // Drain everything: consume markers, return tokens, dequeue.
        for mut s in live {
            for _ in 0..s.markers {
                port.marker_consumed(s.saq);
            }
            if s.child {
                port.token_from_upstream(port.path_of(s.saq), Returned::Released);
            }
            while let Some(bytes) = s.queue.pop() {
                port.saq_dequeued(s.saq, bytes);
            }
            // Idle (never-used) or freshly drained: both must satisfy the
            // reclaim predicate now.
            assert!(port.is_empty_leaf(s.saq), "not reclaimable (seed {seed})");
            port.dealloc(s.saq);
        }
        assert_eq!(port.saqs_in_use(), 0, "seed {seed}");
    }
}
