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
//! let back = RunSpec::decode(&bytes).unwrap();
//! assert_eq!(back.spec_hash(), spec.spec_hash());
//! // The label is presentation, not behaviour: changing it keeps the hash.
//! assert_eq!(spec.clone().with_label("renamed").spec_hash(), spec.spec_hash());
//! ```

use fabric::{RoutingPolicy, SchemeKind, TransportKind};
use simcore::{fnv1a64, Canon, CanonError, CanonReader, CanonWriter, Picos};
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
/// re-pinned, old cache entries stop matching) and [`RunSpec::decode`]
/// rejects every other version (DESIGN.md §6e).
pub const SPEC_VERSION: u8 = 7;

/// Most bins (`horizon / bin`) a spec may ask the probe to record. Every
/// run allocates and renders that many points for each of its four series
/// whatever the traffic, so [`RunSpec::decode`] refuses foreign bytes that
/// would make the process abort on allocation; 50× the longest series any
/// preset uses (20,000 bins).
pub const MAX_SERIES_BINS: u64 = 1 << 20;

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

    fn decode_canon(r: &mut CanonReader<'_>) -> Result<Self, CanonError> {
        match r.u8()? {
            0 => Ok(Workload::Corner(CornerCase::decode_canon(r)?)),
            1 => Ok(Workload::San(SanParams::decode_canon(r)?)),
            2 => {
                let (load, msg_bytes, seed) = (r.f64()?, r.u32()?, r.u64()?);
                if !(load.is_finite() && load > 0.0 && load <= 1.0) {
                    return Err(CanonError::new("uniform load outside (0, 1]"));
                }
                if msg_bytes == 0 {
                    return Err(CanonError::new("uniform message size must be positive"));
                }
                Ok(Workload::Uniform {
                    load,
                    msg_bytes,
                    seed,
                })
            }
            3 => Ok(Workload::Flows(FlowSet::decode_canon(r)?)),
            t => Err(CanonError::new(format!("unknown workload tag {t}"))),
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
    pub fn new(params: impl Into<TopoParams>, scheme: SchemeKind, workload: Workload) -> RunSpec {
        RunSpec {
            label: scheme.name().to_owned(),
            params: params.into(),
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

    /// A closed-loop flow run (incast/shuffle/permutation byte transfers
    /// driven by the transport layer — see [`RunSpec::with_transport`]).
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

    /// Decodes a `spec_v1` byte string back into a spec. Exact inverse of
    /// [`encode`](RunSpec::encode) for the encoded fields; the excluded
    /// fields come back at their defaults (label = scheme name, no
    /// validation, no trace). Rejects wrong magic/version, truncated or
    /// trailing bytes, values that violate the types' invariants, and
    /// series longer than [`MAX_SERIES_BINS`].
    pub fn decode(bytes: &[u8]) -> Result<RunSpec, CanonError> {
        let mut r = CanonReader::new(bytes);
        let magic = [r.u8()?, r.u8()?];
        if magic != SPEC_MAGIC {
            return Err(CanonError::new(format!(
                "bad spec magic {magic:02x?} (expected \"RS\")"
            )));
        }
        let version = r.u8()?;
        if version != SPEC_VERSION {
            return Err(CanonError::new(format!(
                "unsupported spec version {version} (this build reads version {SPEC_VERSION} only)"
            )));
        }
        let params = TopoParams::decode_canon(&mut r)?;
        let scheme = SchemeKind::decode_canon(&mut r)?;
        let workload = Workload::decode_canon(&mut r)?;
        let routing = RoutingPolicy::decode_canon(&mut r)?;
        let packet_size = r.u32()?;
        let horizon = Picos::decode_canon(&mut r)?;
        let bin = Picos::decode_canon(&mut r)?;
        let transport = TransportKind::decode_canon(&mut r)?;
        r.finish()?;
        if packet_size == 0 {
            return Err(CanonError::new("packet size must be positive"));
        }
        if bin == Picos::ZERO {
            return Err(CanonError::new("series bin must be positive"));
        }
        let bins = horizon.div_duration(bin);
        if bins > MAX_SERIES_BINS {
            return Err(CanonError::new(format!(
                "horizon / bin asks for {bins} series bins (at most {MAX_SERIES_BINS})"
            )));
        }
        if let Workload::Corner(c) = &workload {
            if c.hosts != params.hosts() {
                return Err(CanonError::new(format!(
                    "corner case sized for {} hosts on a {}-host network",
                    c.hosts,
                    params.hosts()
                )));
            }
        }
        if let Workload::Flows(f) = &workload {
            if f.hosts != params.hosts() {
                return Err(CanonError::new(format!(
                    "flow set sized for {} hosts on a {}-host network",
                    f.hosts,
                    params.hosts()
                )));
            }
        }
        Ok(RunSpec::new(params, scheme, workload)
            .with_routing(routing)
            .with_packet_size(packet_size)
            .with_horizon(horizon)
            .with_bin(bin)
            .with_transport(transport))
    }

    /// The spec's content address: FNV-1a 64 over [`encode`](Self::encode).
    /// Equal hashes ⇒ equal behaviour (labels and observers excluded).
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(&self.encode())
    }

    /// [`encode`](Self::encode) as lowercase hex — the line format `recn
    /// serve` reads from spool files and stdin.
    pub fn encode_hex(&self) -> String {
        to_hex(&self.encode())
    }

    /// Decodes a spec from the hex form produced by
    /// [`encode_hex`](Self::encode_hex).
    pub fn decode_hex(s: &str) -> Result<RunSpec, CanonError> {
        RunSpec::decode(&from_hex(s)?)
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

/// Inverse of [`to_hex`]; rejects odd lengths and non-hex digits.
pub fn from_hex(s: &str) -> Result<Vec<u8>, CanonError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CanonError::new("odd-length hex string"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(
                s.get(i..i + 2)
                    .ok_or_else(|| CanonError::new("hex string split inside a character"))?,
                16,
            )
            .map_err(|_| CanonError::new(format!("invalid hex at offset {i}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{paper_recn_config, SchemeSet};
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
                SchemeKind::Recn(paper_recn_config()),
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
                SchemeKind::Recn(paper_recn_config()),
                FlowSet::incast64(),
            )
            .with_transport(TransportKind::GoBackN(fabric::TransportConfig::default())),
        );
        specs.push(
            RunSpec::flows(
                MinParams::paper_64(),
                SchemeKind::OneQ,
                FlowSet::shuffle64(),
            )
            .with_transport(TransportKind::Pfc(
                fabric::TransportConfig::default(),
                fabric::PfcConfig::default(),
            )),
        );
        specs
    }

    #[test]
    fn encode_decode_round_trips() {
        for spec in sample_specs() {
            let bytes = spec.encode();
            let back = RunSpec::decode(&bytes).expect("decode");
            assert_eq!(back.encode(), bytes, "re-encode must be identical");
            assert_eq!(back.spec_hash(), spec.spec_hash());
            assert_eq!(back.params(), spec.params());
            assert_eq!(back.scheme(), spec.scheme());
            assert_eq!(back.packet_size(), spec.packet_size());
            assert_eq!(back.horizon(), spec.horizon());
            assert_eq!(back.bin(), spec.bin());
            assert_eq!(back.routing(), spec.routing());
            assert_eq!(back.transport(), spec.transport());
        }
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
        // A future version byte is refused by name (the pre-collapse ones
        // are covered on real bytes by `tests/spec_hash_golden.rs`).
        let mut next = full.clone();
        next[2] = SPEC_VERSION + 1;
        let err = RunSpec::decode(&next).unwrap_err().to_string();
        let want = format!("unsupported spec version {}", SPEC_VERSION + 1);
        assert!(err.contains(&want), "{err}");
    }

    /// `spec`'s canonical bytes with the topology swapped for `params` —
    /// an inconsistency the builders cannot express but foreign bytes can.
    fn encode_on(params: impl Into<TopoParams>, spec: &RunSpec) -> Vec<u8> {
        let mut w = CanonWriter::new();
        w.u8(SPEC_MAGIC[0]);
        w.u8(SPEC_MAGIC[1]);
        w.u8(SPEC_VERSION);
        params.into().encode_canon(&mut w);
        spec.scheme().encode_canon(&mut w);
        spec.workload().encode_canon(&mut w);
        spec.routing().encode_canon(&mut w);
        w.u32(spec.packet_size());
        spec.horizon().encode_canon(&mut w);
        spec.bin().encode_canon(&mut w);
        spec.transport().encode_canon(&mut w);
        w.finish()
    }

    #[test]
    fn flows_workload_requires_matching_hosts() {
        let spec = RunSpec::flows(MinParams::paper_64(), SchemeKind::OneQ, FlowSet::incast64());
        let bytes = spec.encode();
        assert_eq!(encode_on(MinParams::paper_64(), &spec), bytes);
        // Same workload bytes on a 256-host network: rejected.
        let err = RunSpec::decode(&encode_on(MinParams::paper_256(), &spec)).unwrap_err();
        assert!(err.to_string().contains("flow set sized"), "{err}");
        // The well-formed encoding round-trips (open-loop flows are legal:
        // the counting-receiver mode).
        let back = RunSpec::decode(&bytes).unwrap();
        assert_eq!(back.spec_hash(), spec.spec_hash());
        assert_eq!(back.transport(), TransportKind::OpenLoop);
        assert!(
            RunSpec::decode(&bytes[..bytes.len() - 1]).is_err(),
            "truncation"
        );
    }

    #[test]
    fn hex_round_trips() {
        let spec = sample_specs().remove(0);
        let hex = spec.encode_hex();
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        let back = RunSpec::decode_hex(&hex).unwrap();
        assert_eq!(back.encode_hex(), hex);
        assert!(RunSpec::decode_hex("zz").is_err());
        assert!(RunSpec::decode_hex("abc").is_err(), "odd length rejected");
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

    #[test]
    fn every_behaviour_field_changes_the_hash() {
        let base = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let h = base.spec_hash();
        let variants = [
            base.clone().with_packet_size(512),
            base.clone().with_horizon(Picos::from_us(40)),
            base.clone().with_bin(Picos::from_us(2)),
            base.clone().with_routing(RoutingPolicy::adaptive()),
            base.clone().with_routing(RoutingPolicy::arn()),
            base.clone()
                .with_transport(TransportKind::GoBackN(fabric::TransportConfig::default())),
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
        ];
        for v in variants {
            assert_ne!(v.spec_hash(), h, "{v:?} must hash differently");
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
            recn(paper_recn_config()),
            recn(paper_recn_config().with_max_saqs(64)),
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RunSpec::decode(&[]).is_err());
        assert!(RunSpec::decode(b"XX\x01").is_err(), "bad magic");
        assert!(RunSpec::decode(b"RS\x09").is_err(), "future version");
        let mut bytes = sample_specs().remove(0).encode();
        bytes.push(0);
        assert!(RunSpec::decode(&bytes).is_err(), "trailing bytes");
        bytes.pop();
        bytes.pop();
        assert!(RunSpec::decode(&bytes).is_err(), "truncation");
    }

    #[test]
    fn decode_bounds_the_series_length() {
        let base = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case2_64(),
        );
        // The default 1.6 ms horizon in 1 ps bins: 1.6e9 points per series.
        let err = RunSpec::decode(&base.clone().with_bin(Picos::new(1)).encode()).unwrap_err();
        assert!(err.to_string().contains("1600000000 series bins"), "{err}");
        // The bound itself is legal, one bin more is not.
        let at_bound = base
            .with_bin(Picos::from_ns(1))
            .with_horizon(Picos::from_ns(MAX_SERIES_BINS));
        assert!(RunSpec::decode(&at_bound.encode()).is_ok());
        let over = at_bound.with_horizon(Picos::from_ns(MAX_SERIES_BINS + 1));
        assert!(RunSpec::decode(&over.encode()).is_err());
    }

    #[test]
    fn decode_rejects_inconsistent_specs() {
        // A corner case sized for 64 hosts on a 256-host network.
        let spec = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let err = RunSpec::decode(&encode_on(MinParams::paper_256(), &spec)).unwrap_err();
        assert!(err.to_string().contains("corner case sized"), "{err}");
    }
}
