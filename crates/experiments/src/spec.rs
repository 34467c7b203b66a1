//! The run specification and its canonical `spec_v1` encoding.
//!
//! [`RunSpec`] is the single description of "one simulation run" shared by
//! the figures, the benches, the golden-trace suite and the run cache. This
//! module is the API-redesign core of the caching layer:
//!
//! * **Private fields, builder-only construction.** Specs are built through
//!   the constructors ([`RunSpec::new`], [`RunSpec::corner`],
//!   [`RunSpec::san`]) and chainable `with_*` setters, and read through
//!   noun getters. Nothing outside this module can put a spec into a state
//!   the encoding does not cover.
//! * **Canonical encoding.** [`RunSpec::encode`] produces the stable,
//!   versioned `spec_v1` byte string covering every behaviour-affecting
//!   field — topology parameters, scheme (including the full
//!   [`recn::RecnConfig`]), workload, routing, packet size, horizon, bin
//!   and transport — and **excluding** observers and
//!   presentation (label, `validate`, trace capacity, jobs, progress). Two
//!   specs with equal encodings produce bit-identical simulations.
//! * **Content address.** [`RunSpec::spec_hash`] is the FNV-1a 64 digest of
//!   the encoding; `results/cache/<hash>.json` is keyed on it.
//!
//! ```
//! use experiments::RunSpec;
//! use fabric::SchemeKind;
//! use traffic::corner::CornerCase;
//! use topology::MinParams;
//!
//! let spec = RunSpec::corner(MinParams::paper_64(), SchemeKind::OneQ, CornerCase::case1_64());
//! let bytes = spec.encode();
//! assert_eq!(bytes[..3], *b"RS\x07", "magic, then the version byte");
//! // The label is presentation, not behaviour: changing it keeps the hash.
//! assert_eq!(spec.clone().with_label("renamed").spec_hash(), spec.spec_hash());
//! // The packet size is behaviour: changing it moves the hash.
//! assert_ne!(spec.clone().with_packet_size(512).spec_hash(), spec.spec_hash());
//! ```
//!
//! Specs are only ever encoded: the cache compares encodings and never
//! reads a spec back from bytes.

use fabric::{RoutingPolicy, SchemeKind, TransportKind};
use simcore::{fnv1a64, Canon, CanonWriter, Picos};
use topology::TopoParams;
use traffic::corner::CornerCase;
use traffic::san::SanParams;
use traffic::FlowSet;

use crate::runner::Workload;

/// Magic prefix of every `spec_v1` byte string (`"RS"` + version byte).
const SPEC_MAGIC: [u8; 2] = *b"RS";
/// Version byte of the spec encoding. There is one layout: the common
/// fields, then the [`TransportKind`] block, always present. Bump it
/// whenever a behaviour-affecting field is added, removed or reordered:
/// every spec hash then moves at once (`tests/spec_hash_golden.rs` is
/// re-pinned) and the cache entries of every other version stop matching
/// (DESIGN.md §6e).
pub const SPEC_VERSION: u8 = 7;

impl Canon for Workload {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            Workload::Corner(c) => {
                w.u8(0);
                c.encode_canon(w);
            }
            Workload::San(p) => {
                w.u8(1);
                p.encode_canon(w);
            }
            Workload::Uniform {
                load,
                msg_bytes,
                seed,
            } => {
                w.u8(2);
                w.f64(*load);
                w.u32(*msg_bytes);
                w.u64(*seed);
            }
            Workload::Flows(f) => {
                w.u8(3);
                f.encode_canon(w);
            }
        }
    }
}

/// A fully-described simulation run: what [`crate::run_one`] executes.
///
/// Fields are private; construct through [`RunSpec::new`] /
/// [`RunSpec::corner`] / [`RunSpec::san`] plus the chainable `with_*`
/// setters, and read through the getters. See the [module docs](self) for
/// why: the canonical encoding must cover every state a spec can reach.
///
/// ```
/// use experiments::sweep::RunSpec;
/// use fabric::SchemeKind;
/// use simcore::Picos;
/// use topology::MinParams;
/// use traffic::corner::CornerCase;
///
/// let spec = RunSpec::corner(
///     MinParams::paper_64(),
///     SchemeKind::OneQ,
///     CornerCase::case1_64().shrunk(40),
/// )
/// .with_horizon(Picos::from_us(40))
/// .with_bin(Picos::from_us(2))
/// .with_label("quickcheck");
/// assert_eq!(spec.packet_size(), 64);
/// assert_eq!(spec.label(), "quickcheck");
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    label: String,
    params: TopoParams,
    scheme: SchemeKind,
    workload: Workload,
    packet_size: u32,
    horizon: Picos,
    bin: Picos,
    validate: bool,
    trace_capacity: Option<usize>,
    routing: RoutingPolicy,
    transport: TransportKind,
}

impl RunSpec {
    /// A run of `workload` under `scheme` on a `params`-shaped network,
    /// with the paper's defaults (64-byte packets, 1600 µs horizon, 5 µs
    /// bins).
    ///
    /// # Panics
    ///
    /// Panics if a corner case or a flow set is sized for a network with
    /// another host count: such a spec could never run.
    pub fn new(params: impl Into<TopoParams>, scheme: SchemeKind, workload: Workload) -> RunSpec {
        let params = params.into();
        match &workload {
            Workload::Corner(c) => assert_eq!(
                c.hosts,
                params.hosts(),
                "corner case sized for a different network"
            ),
            Workload::Flows(f) => assert_eq!(
                f.hosts,
                params.hosts(),
                "flow set sized for a different network"
            ),
            Workload::San(_) | Workload::Uniform { .. } => {}
        }
        RunSpec {
            label: scheme.name().to_owned(),
            params,
            scheme,
            workload,
            packet_size: 64,
            horizon: Picos::from_us(1600),
            bin: Picos::from_us(5),
            validate: false,
            trace_capacity: None,
            routing: RoutingPolicy::Deterministic,
            transport: TransportKind::default(),
        }
    }

    /// A corner-case run (Table 1 traffic).
    pub fn corner(
        params: impl Into<TopoParams>,
        scheme: SchemeKind,
        corner: CornerCase,
    ) -> RunSpec {
        RunSpec::new(params, scheme, Workload::Corner(corner))
    }

    /// A SAN-trace run on the paper's 64-host network.
    pub fn san(scheme: SchemeKind, san: SanParams) -> RunSpec {
        RunSpec::new(topology::MinParams::paper_64(), scheme, Workload::San(san))
    }

    /// A closed-loop flow run (incast byte transfers driven by the
    /// transport layer — see [`RunSpec::with_transport`]).
    pub fn flows(params: impl Into<TopoParams>, scheme: SchemeKind, flows: FlowSet) -> RunSpec {
        RunSpec::new(params, scheme, Workload::Flows(flows))
    }

    // ---- setters ------------------------------------------------------

    /// Returns the spec with a different packet size in bytes.
    pub fn with_packet_size(mut self, bytes: u32) -> RunSpec {
        self.packet_size = bytes;
        self
    }

    /// Returns the spec with a different simulated horizon.
    pub fn with_horizon(mut self, horizon: Picos) -> RunSpec {
        self.horizon = horizon;
        self
    }

    /// Returns the spec with a different series bucket width.
    pub fn with_bin(mut self, bin: Picos) -> RunSpec {
        self.bin = bin;
        self
    }

    /// Returns the spec with a different context label (shown in progress
    /// lines and JSON summaries; excluded from the canonical encoding).
    pub fn with_label(mut self, label: impl Into<String>) -> RunSpec {
        self.label = label.into();
        self
    }

    /// Enables or disables online invariant checking for this run (see
    /// [`fabric::ValidatingObserver`]). An observer, not behaviour:
    /// excluded from the canonical encoding.
    pub fn with_validation(mut self, on: bool) -> RunSpec {
        self.validate = on;
        self
    }

    /// Enables event tracing with a ring buffer of `capacity` records; the
    /// stable run digest is returned in
    /// [`RunOutput::trace_digest`](crate::runner::RunOutput::trace_digest).
    pub fn with_trace(mut self, capacity: usize) -> RunSpec {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects the routing policy (deterministic by default; adaptive lets
    /// fat-tree switches pick up-ports at forwarding time).
    pub fn with_routing(mut self, routing: RoutingPolicy) -> RunSpec {
        self.routing = routing;
        self
    }

    /// Selects the end-host transport (open-loop passthrough by default;
    /// the closed-loop kinds pace flows against a send window and recover
    /// losses — go-back-N on timeout, NACK-assisted, or PFC pause/drop).
    pub fn with_transport(mut self, transport: TransportKind) -> RunSpec {
        self.transport = transport;
        self
    }

    // ---- getters ------------------------------------------------------

    /// Context tag for progress lines and JSON summaries (e.g. `fig2a`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Network topology parameters.
    pub fn params(&self) -> TopoParams {
        self.params
    }

    /// Queueing scheme under test.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Traffic offered to the network.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Packet size in bytes (paper headline figures: 64).
    pub fn packet_size(&self) -> u32 {
        self.packet_size
    }

    /// Simulated time to run to.
    pub fn horizon(&self) -> Picos {
        self.horizon
    }

    /// Series bucket width for the probe.
    pub fn bin(&self) -> Picos {
        self.bin
    }

    /// Whether the run cross-checks every event against the
    /// lossless-network invariants.
    pub fn validation(&self) -> bool {
        self.validate
    }

    /// Trace ring capacity, when event tracing is enabled.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.trace_capacity
    }

    /// Routing policy for the run.
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// End-host transport for the run.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    // ---- canonical encoding -------------------------------------------

    /// Encodes the spec's behaviour-affecting fields as the canonical,
    /// versioned `spec_v1` byte string (see the [module docs](self) for
    /// what is covered and what is deliberately excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CanonWriter::new();
        w.u8(SPEC_MAGIC[0]);
        w.u8(SPEC_MAGIC[1]);
        w.u8(SPEC_VERSION);
        self.params.encode_canon(&mut w);
        self.scheme.encode_canon(&mut w);
        self.workload.encode_canon(&mut w);
        self.routing.encode_canon(&mut w);
        w.u32(self.packet_size);
        self.horizon.encode_canon(&mut w);
        self.bin.encode_canon(&mut w);
        self.transport.encode_canon(&mut w);
        w.finish()
    }

    /// The spec's content address: FNV-1a 64 over [`encode`](Self::encode).
    /// Equal hashes ⇒ equal behaviour (labels and observers excluded).
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(&self.encode())
    }

    /// [`encode`](Self::encode) as lowercase hex — the form a cache entry
    /// stores and compares.
    pub fn encode_hex(&self) -> String {
        to_hex(&self.encode())
    }
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SchemeSet;
    use recn::RecnConfig;
    use topology::{FatTreeParams, MinParams};

    fn sample_specs() -> Vec<RunSpec> {
        let mut specs: Vec<RunSpec> = SchemeSet::All
            .schemes()
            .into_iter()
            .map(|s| RunSpec::corner(MinParams::paper_64(), s, CornerCase::case1_64()))
            .collect();
        specs.push(
            RunSpec::corner(
                FatTreeParams::ft_64(),
                SchemeKind::Recn(RecnConfig::default()),
                CornerCase::fattree_64(),
            )
            .with_routing(RoutingPolicy::adaptive())
            .with_packet_size(512),
        );
        specs.push(
            RunSpec::corner(
                FatTreeParams::ft_64(),
                SchemeKind::VoqNet,
                CornerCase::fattree_64(),
            )
            .with_routing(RoutingPolicy::arn()),
        );
        specs.push(RunSpec::san(SchemeKind::VoqSw, SanParams::cello_like(20.0)));
        specs.push(RunSpec::new(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            Workload::Uniform {
                load: 0.6,
                msg_bytes: 64,
                seed: 7,
            },
        ));
        specs.push(
            RunSpec::flows(
                MinParams::paper_64(),
                SchemeKind::Recn(RecnConfig::default()),
                FlowSet::incast64(),
            )
            .with_transport(TransportKind::GoBackN(fabric::TransportConfig::default())),
        );
        specs.push(
            RunSpec::flows(
                MinParams::paper_64(),
                SchemeKind::OneQ,
                FlowSet::incast64().with_flow_bytes(4 * 1024),
            )
            .with_transport(TransportKind::Pfc(
                fabric::TransportConfig::default(),
                fabric::PfcConfig::default(),
            )),
        );
        specs
    }

    #[test]
    fn every_spec_encodes_under_the_one_version_and_layout() {
        for spec in sample_specs() {
            assert_eq!(spec.encode()[2], SPEC_VERSION, "{spec:?}");
        }
        let base = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        // The transport block is always present: open-loop is one tag
        // byte, and a closed-loop transport only extends the tail.
        let full = base.encode();
        assert_eq!(full[full.len() - 1], 0, "OpenLoop");
        let gbn = base
            .clone()
            .with_transport(TransportKind::GoBackN(fabric::TransportConfig::default()))
            .encode();
        assert_eq!(gbn[..full.len() - 1], full[..full.len() - 1]);
        assert!(gbn.len() > full.len());
    }

    /// A flow set sized for another network is refused when the run is
    /// built, before anything is simulated; open-loop flows are legal (the
    /// counting-receiver mode).
    #[test]
    fn flows_workload_requires_matching_hosts() {
        let spec = RunSpec::flows(MinParams::paper_64(), SchemeKind::OneQ, FlowSet::incast64());
        assert_eq!(spec.transport(), TransportKind::OpenLoop);
        spec.network(Box::new(fabric::NullObserver));
        let wrong = || {
            RunSpec::flows(
                MinParams::paper_256(),
                SchemeKind::OneQ,
                FlowSet::incast64(),
            )
        };
        assert_refused(wrong, "flow set sized for a different network");
    }

    #[test]
    fn corner_workload_requires_matching_hosts() {
        let spec = RunSpec::corner(
            MinParams::paper_256(),
            SchemeKind::OneQ,
            CornerCase::case2_256(),
        );
        spec.network(Box::new(fabric::NullObserver));
        let wrong = || {
            RunSpec::corner(
                MinParams::paper_256(),
                SchemeKind::OneQ,
                CornerCase::case1_64(),
            )
        };
        assert_refused(wrong, "corner case sized for a different network");
    }

    /// `build` panics while the spec is built — before any network or
    /// sweep exists — with `message`.
    fn assert_refused(build: impl FnOnce() -> RunSpec + std::panic::UnwindSafe, message: &str) {
        let err = std::panic::catch_unwind(build).expect_err("a spec sized for another network");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("");
        assert!(msg.contains(message), "{msg}");
    }

    #[test]
    fn observers_and_labels_do_not_affect_the_hash() {
        let base = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let h = base.spec_hash();
        assert_eq!(base.clone().with_label("other").spec_hash(), h);
        assert_eq!(base.clone().with_validation(true).spec_hash(), h);
        assert_eq!(base.clone().with_trace(4096).spec_hash(), h);
    }

    /// One variant per encoded field and per workload, scheme, routing and
    /// transport kind: every one hashes differently from the base and from
    /// every other.
    #[test]
    fn every_behaviour_field_changes_the_hash() {
        let base = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let uniform = |load, msg_bytes, seed| {
            RunSpec::new(
                MinParams::paper_64(),
                SchemeKind::OneQ,
                Workload::Uniform {
                    load,
                    msg_bytes,
                    seed,
                },
            )
        };
        let gbn = fabric::TransportConfig::default();
        let variants = [
            base.clone(),
            RunSpec::corner(
                FatTreeParams::ft_64(),
                SchemeKind::OneQ,
                CornerCase::case1_64(),
            ),
            RunSpec::corner(
                MinParams::paper_64(),
                SchemeKind::FourQ,
                CornerCase::case1_64(),
            ),
            RunSpec::corner(
                MinParams::paper_64(),
                SchemeKind::OneQ,
                CornerCase::case2_64(),
            ),
            RunSpec::san(SchemeKind::OneQ, SanParams::cello_like(20.0)),
            uniform(0.6, 64, 7),
            uniform(0.5, 64, 7),
            uniform(0.6, 512, 7),
            uniform(0.6, 64, 8),
            RunSpec::flows(MinParams::paper_64(), SchemeKind::OneQ, FlowSet::incast64()),
            base.clone().with_routing(RoutingPolicy::adaptive()),
            base.clone().with_routing(RoutingPolicy::arn()),
            base.clone().with_packet_size(512),
            base.clone().with_horizon(Picos::from_us(40)),
            base.clone().with_bin(Picos::from_us(2)),
            base.clone().with_transport(TransportKind::GoBackN(gbn)),
            base.clone().with_transport(TransportKind::Nack(gbn)),
            base.clone()
                .with_transport(TransportKind::Pfc(gbn, fabric::PfcConfig::default())),
        ];
        let hashes: Vec<u64> = variants.iter().map(RunSpec::spec_hash).collect();
        for (i, h) in hashes.iter().enumerate() {
            for (j, other) in hashes[..i].iter().enumerate() {
                assert_ne!(h, other, "{:?} and {:?}", variants[i], variants[j]);
            }
        }
        // A workload encodes as its kind's tag, then its parameters.
        let corner = CornerCase::case2_64();
        let san = SanParams::cello_like(20.0);
        let flows = FlowSet::incast64();
        let mut uniform = CanonWriter::new();
        uniform.f64(0.6);
        uniform.u32(64);
        uniform.u64(7);
        let workloads = [
            (variants[3].workload(), 0, corner.canon_bytes()),
            (variants[4].workload(), 1, san.canon_bytes()),
            (variants[5].workload(), 2, uniform.finish()),
            (variants[9].workload(), 3, flows.canon_bytes()),
        ];
        for (workload, tag, params) in workloads {
            assert_eq!(workload.canon_bytes(), [&[tag][..], &params].concat());
        }
        // Distinct RECN configs are distinct behaviours.
        let recn = |cfg: recn::RecnConfig| {
            RunSpec::corner(
                MinParams::paper_64(),
                SchemeKind::Recn(cfg),
                CornerCase::case1_64(),
            )
            .spec_hash()
        };
        assert_ne!(
            recn(RecnConfig::default()),
            recn(RecnConfig::default().with_max_saqs(64)),
        );
    }
}
