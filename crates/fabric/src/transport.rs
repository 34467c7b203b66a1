//! End-host transport layer: closed-loop flows over the fabric.
//!
//! Every workload used to be open-loop injection — sources emit messages
//! on a schedule and the only backpressure is the NIC admittance cap.
//! This module adds the closed-loop alternative: a *flow* is a fixed
//! number of bytes from one host to another, sent under a per-flow
//! window and acknowledged by the receiver, so the injection rate is a
//! *response* to fabric behaviour instead of an input. That unlocks
//! flow-completion time (FCT) as a metric and retransmission-based
//! baselines to compare against the lossless schemes:
//!
//! * [`TransportKind::OpenLoop`] — the default. No windows, no acks, no
//!   timers; flows (when present) are pushed as fast as the admittance
//!   cap allows. With no flows installed this is **bit-exactly** today's
//!   behaviour: the transport layer generates zero events and touches no
//!   state, so every golden trace digest and spec hash is unchanged.
//! * [`TransportKind::GoBackN`] — per-flow send window, cumulative acks,
//!   and go-back-N retransmission on timeout. The receiver discards
//!   out-of-order packets; a timeout rewinds the sender to the lowest
//!   unacknowledged sequence.
//! * [`TransportKind::Nack`] — go-back-N plus receiver NACKs: the first
//!   out-of-order arrival at a given receive point asks the sender to
//!   rewind immediately instead of waiting out the timeout (the timeout
//!   remains as a backstop).
//! * [`TransportKind::Pfc`] — the lossy/paused baseline: link-level
//!   PAUSE/RESUME replaces credit flow control (switch input ports drop
//!   on overflow, pause their upstream link at a high-water mark and
//!   resume at a low-water mark), with go-back-N recovery at the hosts.
//!   This composes with all five queueing schemes, so RECN can be
//!   compared against the datacenter-standard PFC fabric on equal
//!   workloads.
//!
//! ## Determinism contract
//!
//! Acks are modeled out-of-band with a fixed configurable delay
//! ([`TransportConfig::ack_delay`]) rather than as reverse-path packets —
//! the MIN is unidirectional for data, and an out-of-band ack keeps the
//! reverse channel semantics (credits, RECN control) untouched. All
//! transport events are scheduled strictly in the future (`ack_delay`
//! and `timeout` are validated positive), so none joins the lazy event
//! model's same-time FIFO, and runs remain bit-identical at any `--jobs`
//! and under either event model.
//! Retransmission timers are generation-checked ([`simcore::TimerGen`]):
//! rearming bumps the generation and stale timeout events are ignored,
//! so no timer bookkeeping depends on event-queue removal.

use simcore::{Canon, CanonWriter, Picos};

/// Parameters of the closed-loop sender/receiver machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Per-flow send window, in packets: at most this many packets may be
    /// unacknowledged at once.
    pub window_pkts: u32,
    /// Retransmission timeout: after this long without the window's base
    /// advancing, the sender rewinds to the lowest unacknowledged packet.
    pub timeout: Picos,
    /// Fixed latency of the out-of-band ack path (receiver → sender).
    pub ack_delay: Picos,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            window_pkts: 32,
            timeout: Picos::from_us(50),
            ack_delay: Picos::from_ns(500),
        }
    }
}

impl TransportConfig {
    /// The first violated rule, if any: a positive window, and strictly
    /// positive timers (a same-time transport event would break the lazy
    /// event model's ordering contract). [`TransportKind::validate`]
    /// panics with it.
    fn check(&self) -> Result<(), &'static str> {
        if self.window_pkts == 0 {
            return Err("transport window must be positive");
        }
        if self.timeout == Picos::ZERO || self.ack_delay == Picos::ZERO {
            return Err("transport timers must be strictly positive");
        }
        Ok(())
    }
}

impl Canon for TransportConfig {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.window_pkts);
        self.timeout.encode_canon(w);
        self.ack_delay.encode_canon(w);
    }
}

/// PFC link-level flow-control thresholds (bytes accounted at a switch
/// input port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcConfig {
    /// Occupancy at or above which the port pauses its upstream link.
    pub pause_threshold: u64,
    /// Occupancy at or below which a paused upstream link resumes.
    pub resume_threshold: u64,
}

impl Default for PfcConfig {
    fn default() -> PfcConfig {
        PfcConfig {
            pause_threshold: 96 * 1024,
            resume_threshold: 64 * 1024,
        }
    }
}

impl PfcConfig {
    /// The threshold rule, `pause_threshold > resume_threshold > 0`, for
    /// [`TransportKind::validate`] to panic with.
    fn check(&self) -> Result<(), &'static str> {
        if self.resume_threshold == 0 || self.pause_threshold <= self.resume_threshold {
            return Err("PFC thresholds must satisfy pause > resume > 0");
        }
        Ok(())
    }
}

impl Canon for PfcConfig {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u64(self.pause_threshold);
        w.u64(self.resume_threshold);
    }
}

/// The end-host transport installed at every NIC (plus, for
/// [`Pfc`](TransportKind::Pfc), the switch-level pause variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Open-loop passthrough — today's behaviour, bit-exactly.
    #[default]
    OpenLoop,
    /// Windowed sender with go-back-N retransmission on timeout.
    GoBackN(TransportConfig),
    /// Go-back-N plus receiver NACKs on out-of-order arrival.
    Nack(TransportConfig),
    /// PFC pause/drop switch mode with go-back-N host recovery.
    Pfc(TransportConfig, PfcConfig),
}

impl TransportKind {
    /// The CLI / JSON name (`"open"`, `"gbn"`, `"nack"`, `"pfc"`).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::OpenLoop => "open",
            TransportKind::GoBackN(_) => "gbn",
            TransportKind::Nack(_) => "nack",
            TransportKind::Pfc(..) => "pfc",
        }
    }

    /// Parses a transport from its [`name`](Self::name)
    /// (case-insensitive), with default configs. Round-trips with
    /// `name()` for every kind.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s.to_ascii_lowercase().as_str() {
            "open" => Some(TransportKind::OpenLoop),
            "gbn" => Some(TransportKind::GoBackN(TransportConfig::default())),
            "nack" => Some(TransportKind::Nack(TransportConfig::default())),
            "pfc" => Some(TransportKind::Pfc(
                TransportConfig::default(),
                PfcConfig::default(),
            )),
            _ => None,
        }
    }

    /// Whether this is the open-loop passthrough.
    pub fn is_open_loop(&self) -> bool {
        matches!(self, TransportKind::OpenLoop)
    }

    /// The PFC thresholds, when the kind is PFC.
    pub fn pfc(&self) -> Option<PfcConfig> {
        match self {
            TransportKind::Pfc(_, p) => Some(*p),
            _ => None,
        }
    }

    /// Whether the fabric runs in PFC pause/drop mode.
    pub fn is_pfc(&self) -> bool {
        matches!(self, TransportKind::Pfc(..))
    }

    /// The closed-loop sender/receiver config, when there is one.
    pub fn config(&self) -> Option<&TransportConfig> {
        match self {
            TransportKind::OpenLoop => None,
            TransportKind::GoBackN(c) | TransportKind::Nack(c) | TransportKind::Pfc(c, _) => {
                Some(c)
            }
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid windows, timers, or PFC thresholds.
    pub fn validate(&self) {
        if let Some(Err(e)) = self.config().map(TransportConfig::check) {
            panic!("{e}");
        }
        if let Some(Err(e)) = self.pfc().map(|p| p.check()) {
            panic!("{e}");
        }
    }
}

impl Canon for TransportKind {
    fn encode_canon(&self, w: &mut CanonWriter) {
        match self {
            TransportKind::OpenLoop => w.u8(0),
            TransportKind::GoBackN(c) => {
                w.u8(1);
                c.encode_canon(w);
            }
            TransportKind::Nack(c) => {
                w.u8(2);
                c.encode_canon(w);
            }
            TransportKind::Pfc(c, p) => {
                w.u8(3);
                c.encode_canon(w);
                p.encode_canon(w);
            }
        }
    }
}

/// One closed-loop flow: `bytes` from `src` to `dst`, starting at
/// `start`. The traffic crate's generators produce these; the network
/// installs them via `Network::install_flows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDesc {
    /// Sending host.
    pub src: u32,
    /// Receiving host.
    pub dst: u32,
    /// Flow size in bytes.
    pub bytes: u64,
    /// When the flow opens.
    pub start: Picos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in [
            TransportKind::OpenLoop,
            TransportKind::GoBackN(TransportConfig::default()),
            TransportKind::Nack(TransportConfig::default()),
            TransportKind::Pfc(TransportConfig::default(), PfcConfig::default()),
        ] {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            TransportKind::parse("GBN"),
            TransportKind::parse("gbn"),
            "case-insensitive"
        );
        assert_eq!(TransportKind::parse("tcp"), None);
        assert!(TransportKind::default().is_open_loop());
        // The knobs the network reads: no config means no window, acks or
        // timers; PFC recovers with the same go-back-N config at the hosts.
        assert_eq!(TransportKind::OpenLoop.config(), None);
        let pfc = TransportKind::parse("pfc").unwrap();
        assert_eq!(pfc.config(), TransportKind::parse("gbn").unwrap().config());
        assert_eq!(pfc.config().map(|c| c.window_pkts), Some(32));
        assert!(pfc.is_pfc() && pfc.pfc().is_some());
    }

    /// Every kind and every config field reaches the bytes: two transports
    /// that differ anywhere encode differently, and the kind is the first
    /// byte.
    #[test]
    fn canon_bytes_differ_by_kind_and_by_field() {
        let c = TransportConfig::default();
        let p = PfcConfig::default();
        let kinds = [
            TransportKind::OpenLoop,
            TransportKind::GoBackN(c),
            TransportKind::Nack(c),
            TransportKind::Pfc(c, p),
        ];
        for (tag, kind) in kinds.iter().enumerate() {
            assert_eq!(kind.canon_bytes()[0], tag as u8, "{kind:?}");
        }
        let configs = [
            TransportConfig {
                window_pkts: 8,
                ..c
            },
            TransportConfig {
                timeout: Picos::from_us(7),
                ..c
            },
            TransportConfig {
                ack_delay: Picos::from_ns(7),
                ..c
            },
        ];
        let thresholds = [
            PfcConfig {
                pause_threshold: p.pause_threshold + 64,
                ..p
            },
            PfcConfig {
                resume_threshold: p.resume_threshold - 64,
                ..p
            },
        ];
        let variants: Vec<TransportKind> = kinds
            .into_iter()
            .chain(configs.map(TransportKind::GoBackN))
            .chain(configs.map(TransportKind::Nack))
            .chain(configs.map(|c| TransportKind::Pfc(c, p)))
            .chain(thresholds.map(|p| TransportKind::Pfc(c, p)))
            .collect();
        let encodings: Vec<Vec<u8>> = variants.iter().map(Canon::canon_bytes).collect();
        for (i, bytes) in encodings.iter().enumerate() {
            for (j, other) in encodings[..i].iter().enumerate() {
                assert_ne!(bytes, other, "{:?} and {:?}", variants[i], variants[j]);
            }
        }
    }

    /// `check` names the rule `validate` panics with.
    #[test]
    fn check_names_the_rule_validate_panics_with() {
        let zero_timeout = TransportConfig {
            timeout: Picos::ZERO,
            ..TransportConfig::default()
        };
        let zero_window = TransportConfig {
            window_pkts: 0,
            ..TransportConfig::default()
        };
        let inverted = PfcConfig {
            pause_threshold: 1024,
            resume_threshold: 4096,
        };
        let cases = [
            (zero_timeout.check(), "strictly positive"),
            (zero_window.check(), "window must be positive"),
            (inverted.check(), "pause > resume"),
        ];
        for (result, rule) in cases {
            let err = result.unwrap_err();
            assert!(err.contains(rule), "{rule}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_timeout_rejected() {
        TransportKind::GoBackN(TransportConfig {
            timeout: Picos::ZERO,
            ..TransportConfig::default()
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "pause > resume")]
    fn inverted_pfc_thresholds_rejected() {
        let inverted = PfcConfig {
            pause_threshold: 1024,
            resume_threshold: 4096,
        };
        TransportKind::Pfc(TransportConfig::default(), inverted).validate();
    }
}
