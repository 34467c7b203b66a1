//! Fabric configuration: queueing scheme and physical parameters.

use recn::RecnConfig;
use simcore::{Canon, CanonWriter, EventModel, Picos};

use crate::transport::TransportKind;

/// The queueing scheme installed at every port — the five mechanisms
/// compared in the paper's §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// `1Q` — one queue per input and output port (the HOL-blocking
    /// worst case).
    OneQ,
    /// `4Q` — four queues per port, packets stored in the queue with the
    /// lowest occupancy (a virtual-channel-style mechanism). Note that 4Q
    /// does not preserve per-flow order.
    FourQ,
    /// `VOQsw` — VOQ at the switch level: as many queues per input port as
    /// switch output ports, mapped by the output port requested at the
    /// current (for inputs) or next (for outputs) switch.
    VoqSw,
    /// `VOQnet` — VOQ at the network level: one queue per destination host
    /// at every port. The paper's upper bound (and scalability strawman).
    VoqNet,
    /// `RECN` — the paper's mechanism: one shared queue for non-congested
    /// flows plus dynamically allocated SAQs.
    Recn(RecnConfig),
}

impl SchemeKind {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::OneQ => "1Q",
            SchemeKind::FourQ => "4Q",
            SchemeKind::VoqSw => "VOQsw",
            SchemeKind::VoqNet => "VOQnet",
            SchemeKind::Recn(_) => "RECN",
        }
    }

    /// Queues one *port unit* (one input or one output) holds under the
    /// scheme, in a network of `hosts` endnodes built from switches of
    /// `radix` ports — the per-port row of the paper's scalability
    /// comparison: constant for 1Q, 4Q and RECN (one normal queue plus the
    /// SAQ pool), radix-bound for VOQsw, `hosts`-bound for VOQnet.
    pub fn queues_per_port(&self, radix: usize, hosts: usize) -> usize {
        match self {
            SchemeKind::OneQ => 1,
            SchemeKind::FourQ => 4,
            SchemeKind::VoqSw => radix,
            SchemeKind::VoqNet => hosts,
            SchemeKind::Recn(cfg) => 1 + cfg.max_saqs,
        }
    }

    /// Whether this scheme guarantees per-flow in-order delivery.
    /// (4Q spreads one flow over several queues and may reorder.)
    pub fn preserves_order(&self) -> bool {
        !matches!(self, SchemeKind::FourQ)
    }

    /// The RECN configuration, when the scheme is RECN.
    pub fn recn(&self) -> Option<&RecnConfig> {
        match self {
            SchemeKind::Recn(cfg) => Some(cfg),
            _ => None,
        }
    }
}

impl Canon for SchemeKind {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            SchemeKind::OneQ => w.u8(0),
            SchemeKind::FourQ => w.u8(1),
            SchemeKind::VoqSw => w.u8(2),
            SchemeKind::VoqNet => w.u8(3),
            SchemeKind::Recn(cfg) => {
                w.u8(4);
                cfg.encode_canon(w);
            }
        }
    }
}

/// Routing policy threaded from the run spec into NIC injection and
/// per-switch forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// The paper's deterministic self-routing: one fixed path per
    /// `(src, dst)` pair (source-digit up-turns on the fat tree).
    #[default]
    Deterministic,
    /// Adaptive up-phase routing: fat-tree routes are injected with a
    /// late-bound up-phase and each climbing switch binds the next up-turn
    /// at forwarding time. Every candidate up-port is scored by local
    /// output occupancy plus consumed downstream credit (bytes in flight
    /// or queued downstream) and the minimum wins with a stable
    /// `(score, port)` tie-break — no RNG, so runs stay bit-identical per
    /// policy and the golden-trace digests remain meaningful. Topologies
    /// without path diversity (the MIN) fall back to deterministic routes.
    AdaptiveUp,
    /// Notification-driven adaptive routing (ARN, Rocher-Gonzalez et al.):
    /// like [`AdaptiveUp`](Self::AdaptiveUp), but each switch also keeps a
    /// per-up-port table of live congestion notifications received from
    /// the switch above, and up-ports leading toward congested subtrees
    /// are penalized before the credit score applies. Under RECN
    /// the notifications are driven by SAQ (congested-root CAM entry)
    /// allocation and deallocation; other schemes fall back to an
    /// output-queue occupancy threshold. With zero live notifications the
    /// policy is decision-for-decision identical to `AdaptiveUp`.
    ArnUp,
}

impl RoutingPolicy {
    /// The adaptive policy.
    pub fn adaptive() -> RoutingPolicy {
        RoutingPolicy::AdaptiveUp
    }

    /// The notification-driven policy.
    ///
    /// ```
    /// use fabric::RoutingPolicy;
    /// let arn = RoutingPolicy::arn();
    /// assert!(arn.is_arn() && arn.is_adaptive());
    /// assert_eq!(RoutingPolicy::parse("arn"), Some(arn));
    /// ```
    pub fn arn() -> RoutingPolicy {
        RoutingPolicy::ArnUp
    }

    /// The CLI / JSON name (`"deterministic"`, `"adaptive"` or `"arn"`).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Deterministic => "deterministic",
            RoutingPolicy::AdaptiveUp => "adaptive",
            RoutingPolicy::ArnUp => "arn",
        }
    }

    /// Parses a policy from its [`name`](Self::name) (case-insensitive).
    /// Round-trips with `name()`.
    pub fn parse(s: &str) -> Option<RoutingPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "deterministic" => Some(RoutingPolicy::Deterministic),
            "adaptive" => Some(RoutingPolicy::adaptive()),
            "arn" => Some(RoutingPolicy::arn()),
            _ => None,
        }
    }

    /// Whether this policy ever rebinds turns at forwarding time (true
    /// for both the locally-adaptive and the notification-driven policy).
    pub fn is_adaptive(&self) -> bool {
        matches!(self, RoutingPolicy::AdaptiveUp | RoutingPolicy::ArnUp)
    }

    /// Whether this policy consumes congestion notifications (the ARN
    /// table, [`crate::ArnTable`], is only maintained when this is true).
    pub fn is_arn(&self) -> bool {
        matches!(self, RoutingPolicy::ArnUp)
    }
}

/// Canonical tag of the one up-port selector the adaptive policies ever
/// had (credit-weighted). The byte stays in the encoding so every spec
/// hash and cache key keeps its value.
const UP_SELECTOR_TAG: u8 = 0;

impl Canon for RoutingPolicy {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            RoutingPolicy::Deterministic => w.u8(0),
            RoutingPolicy::AdaptiveUp => {
                w.u8(1);
                w.u8(UP_SELECTOR_TAG);
            }
            RoutingPolicy::ArnUp => {
                w.u8(2);
                w.u8(UP_SELECTOR_TAG);
            }
        }
    }
}

/// Link bandwidth in Gbps (paper §4.1: 8 Gbps serial links).
pub const LINK_GBPS: u64 = 8;

/// Crossbar per-transfer bandwidth in Gbps (paper §4.1: 12 Gbps).
pub const XBAR_GBPS: u64 = 12;

/// Physical and architectural parameters of the fabric (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Queueing scheme at every port.
    pub scheme: SchemeKind,
    /// Memory per port, bytes: every switch input, switch output and NIC
    /// injection port (paper: 128 KB; 192 KB for the 512-host network).
    pub port_mem: u64,
    /// Link propagation delay (pipelined serial links).
    pub link_delay: Picos,
    /// Stop threshold of each NIC admittance VOQ, in bytes: once a queue
    /// holds at least this much, further messages to that destination are
    /// dropped *at the source* (the
    /// application is back-pressured), so a saturated destination cannot
    /// accumulate an unbounded injection backlog. Only that destination's
    /// queue is affected — other traffic from the host keeps flowing,
    /// matching the paper's observation that sources keep generating to
    /// uncongested endnodes.
    pub admit_cap: u64,
    /// Idle-reclaim timeout for SAQs that were allocated but never
    /// received a packet (their tree subsided first): after this long they
    /// deallocate and return their token, so stale trees cannot pin CAM
    /// lines. See `recn::CamTable` docs on `ever_used`.
    pub saq_idle_timeout: Picos,
    /// Output-port selection policy at forwarding time. Defaults to the
    /// paper's deterministic self-routing; `AdaptiveUp` lets fat-tree
    /// switches pick among equivalent up-ports (which relaxes
    /// [`strict_order`](Self::strict_order)).
    pub routing: RoutingPolicy,
    /// How wakeups become scheduled events: `Lazy` (every run — same-time
    /// kicks coalesce into sweep events and idle arbiters are elided) or
    /// `Eager` (the test reference — one event per kick). Behaviour is
    /// bit-exact either way; only event counts differ. See DESIGN.md §6f.
    pub event_model: EventModel,
    /// End-host transport: open-loop passthrough (the default — bit-exact
    /// with the pre-transport fabric), windowed go-back-N, NACK, or the
    /// PFC pause/drop switch mode. See DESIGN.md §6g.
    pub transport: TransportKind,
}

impl FabricConfig {
    /// The paper's parameters with the given scheme (64/256-host networks).
    pub fn paper(scheme: SchemeKind) -> FabricConfig {
        FabricConfig {
            scheme,
            port_mem: 128 * 1024,
            link_delay: Picos::from_ns(20),
            admit_cap: 4 * 1024,
            saq_idle_timeout: Picos::from_us(20),
            routing: RoutingPolicy::Deterministic,
            event_model: EventModel::default(),
            transport: TransportKind::OpenLoop,
        }
    }

    /// Installs a routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> FabricConfig {
        self.routing = routing;
        self
    }

    /// Whether a per-flow order violation is a bug in the model (and
    /// panics) rather than something the configuration allows: the scheme
    /// keeps a flow in one queue, routing gives it one path, and no
    /// transport re-sends or drops its packets (retransmission legitimately
    /// re-delivers and reorders; PFC drops break sequence continuity).
    /// Violations are counted either way.
    pub fn strict_order(&self) -> bool {
        self.scheme.preserves_order()
            && !self.routing.is_adaptive()
            && self.transport.is_open_loop()
    }

    /// Installs an event model: how the differential suites reach the
    /// eager reference. Nothing outside tests calls this.
    pub fn with_event_model(mut self, model: EventModel) -> FabricConfig {
        self.event_model = model;
        self
    }

    /// Installs an end-host transport.
    pub fn with_transport(mut self, transport: TransportKind) -> FabricConfig {
        self.transport = transport;
        self
    }

    /// The paper's parameters for the 512-host network (192 KB per port so
    /// VOQnet still fits one packet per queue).
    pub fn paper_512(scheme: SchemeKind) -> FabricConfig {
        let mut cfg = FabricConfig::paper(scheme);
        cfg.port_mem = 192 * 1024;
        cfg
    }

    /// Serialization time of `bytes` on a link.
    pub fn link_time(&self, bytes: u64) -> Picos {
        Picos::serialize_bytes(bytes, LINK_GBPS)
    }

    /// Serialization time of `bytes` through the crossbar.
    pub fn xbar_time(&self, bytes: u64) -> Picos {
        Picos::serialize_bytes(bytes, XBAR_GBPS)
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on an empty port memory or an inconsistent RECN or
    /// transport configuration.
    pub fn validate(&self) {
        assert!(self.port_mem > 0, "port memory must be positive");
        if let SchemeKind::Recn(r) = &self.scheme {
            r.validate();
        }
        self.transport.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = FabricConfig::paper(SchemeKind::OneQ);
        cfg.validate();
        assert_eq!(cfg.port_mem, 128 * 1024);
        assert_eq!(cfg.link_time(64), Picos::from_ns(64));
        assert_eq!(cfg.xbar_time(64), Picos::new(42_667));
        assert_eq!(cfg.event_model, EventModel::Lazy);
    }

    #[test]
    fn paper_512_uses_bigger_ram() {
        let cfg = FabricConfig::paper_512(SchemeKind::VoqNet);
        assert_eq!(cfg.port_mem, 192 * 1024);
    }

    #[test]
    fn scheme_names_match_figures() {
        assert_eq!(SchemeKind::OneQ.name(), "1Q");
        assert_eq!(SchemeKind::FourQ.name(), "4Q");
        assert_eq!(SchemeKind::VoqSw.name(), "VOQsw");
        assert_eq!(SchemeKind::VoqNet.name(), "VOQnet");
        assert_eq!(SchemeKind::Recn(RecnConfig::default()).name(), "RECN");
    }

    #[test]
    fn routing_policy_parse_round_trips() {
        for p in [
            RoutingPolicy::Deterministic,
            RoutingPolicy::adaptive(),
            RoutingPolicy::arn(),
        ] {
            assert_eq!(RoutingPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            RoutingPolicy::parse("Adaptive"),
            Some(RoutingPolicy::adaptive())
        );
        assert_eq!(RoutingPolicy::parse("ARN"), Some(RoutingPolicy::arn()));
        assert_eq!(RoutingPolicy::parse("oblivious"), None);
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::Deterministic);
    }

    /// A scheme encodes as its tag, and RECN's tag is followed by its full
    /// config.
    #[test]
    fn scheme_canon_is_a_tag_then_recn_config() {
        let recn = RecnConfig::default();
        let schemes = [
            SchemeKind::OneQ,
            SchemeKind::FourQ,
            SchemeKind::VoqSw,
            SchemeKind::VoqNet,
            SchemeKind::Recn(recn),
        ];
        for (tag, scheme) in schemes.iter().enumerate() {
            assert_eq!(scheme.canon_bytes()[..1], [tag as u8], "{}", scheme.name());
        }
        assert_eq!(schemes[4].canon_bytes()[1..], recn.canon_bytes());
    }

    /// The adaptive policies keep the selector byte the one-variant
    /// `UpSelector` used to write, so spec hashes and cache keys hold, and
    /// the three policies encode to three different byte strings.
    #[test]
    fn routing_policy_canon_keeps_the_selector_byte() {
        let cases: [(RoutingPolicy, &[u8]); 3] = [
            (RoutingPolicy::Deterministic, &[0]),
            (RoutingPolicy::adaptive(), &[1, 0]),
            (RoutingPolicy::arn(), &[2, 0]),
        ];
        for (policy, bytes) in cases {
            assert_eq!(policy.canon_bytes(), bytes, "{}", policy.name());
        }
    }

    #[test]
    fn adaptive_routing_relaxes_order() {
        let cfg = FabricConfig::paper(SchemeKind::OneQ).with_routing(RoutingPolicy::adaptive());
        assert!(!cfg.strict_order());
        assert!(cfg.routing.is_adaptive());
        let det = FabricConfig::paper(SchemeKind::OneQ).with_routing(RoutingPolicy::Deterministic);
        assert!(det.strict_order());
        // ARN is adaptive-with-notifications: same order relaxation, and
        // only it maintains the notification table.
        let arn = FabricConfig::paper(SchemeKind::OneQ).with_routing(RoutingPolicy::arn());
        assert!(!arn.strict_order());
        assert!(arn.routing.is_adaptive() && arn.routing.is_arn());
        assert!(!RoutingPolicy::adaptive().is_arn());
        // Computed, not stored: a field assigned directly cannot leave it
        // stale.
        let mut direct = FabricConfig::paper(SchemeKind::OneQ);
        direct.routing = RoutingPolicy::adaptive();
        assert!(!direct.strict_order());
    }

    #[test]
    fn transport_defaults_open_and_clears_order_when_closed() {
        let cfg = FabricConfig::paper(SchemeKind::OneQ);
        assert!(cfg.transport.is_open_loop());
        assert!(cfg.strict_order());
        let gbn = cfg.with_transport(TransportKind::parse("gbn").unwrap());
        assert!(!gbn.strict_order(), "retransmission may reorder");
        gbn.validate();
        let pfc = FabricConfig::paper(SchemeKind::OneQ)
            .with_transport(TransportKind::parse("pfc").unwrap());
        assert!(pfc.transport.is_pfc());
        assert!(!pfc.strict_order(), "PFC drops break sequence continuity");
        pfc.validate();
        // Back on open loop the scheme's guarantee holds again.
        assert!(gbn.with_transport(TransportKind::OpenLoop).strict_order());
    }

    #[test]
    fn order_guarantees() {
        assert!(SchemeKind::OneQ.preserves_order());
        assert!(!SchemeKind::FourQ.preserves_order());
        assert!(SchemeKind::Recn(RecnConfig::default()).preserves_order());
        assert!(!FabricConfig::paper(SchemeKind::FourQ).strict_order());
    }
}
