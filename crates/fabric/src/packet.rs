//! Data packets and link payloads.

use simcore::Picos;
use topology::{HostId, PathSpec, Route};

use recn::SaqId;

/// A data packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique id (injection order).
    pub id: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload size in bytes (64 or 512 in the paper's runs).
    pub size: u32,
    /// Remaining-turn route, advanced at every switch traversal.
    pub route: Route,
    /// When the carrying message entered the NIC admittance queue.
    pub injected_at: Picos,
    /// Per-(src, dst) sequence number, used to verify in-order delivery.
    pub flow_seq: u64,
}

/// An entry in a port queue: either a packet or a RECN in-order marker.
///
/// A marker occupies no buffer space; when it reaches the head of the
/// normal queue it is consumed and the referenced SAQ is unblocked
/// (paper §3.8).
#[derive(Debug, Clone)]
pub enum QueueItem {
    /// A buffered data packet.
    Packet(Packet),
    /// RECN in-order marker for a freshly allocated SAQ.
    Marker(SaqId),
}

impl QueueItem {
    /// Buffer bytes this item occupies.
    pub fn bytes(&self) -> u64 {
        match self {
            QueueItem::Packet(p) => p.size as u64,
            QueueItem::Marker(_) => 0,
        }
    }
}

/// Payload travelling in the data (downstream) direction of a link.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A data packet, with the queue index the sender reserved at the
    /// receiving input port (`u16::MAX` under RECN, where the receiver
    /// classifies locally and credits are pooled).
    Data {
        /// The packet.
        pkt: Packet,
        /// Reserved downstream queue.
        target_queue: u16,
    },
    /// RECN: notification accepted; the upstream SAQ exists.
    RecnAck {
        /// Path the ack answers.
        path: PathSpec,
    },
    /// RECN: notification rejected (or duplicate); token returns.
    RecnReject {
        /// Path the rejection answers.
        path: PathSpec,
    },
    /// RECN: a leaf SAQ upstream deallocated; its token returns.
    RecnToken {
        /// Path identifying the tree at the receiver.
        path: PathSpec,
    },
}

impl Payload {
    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Data { pkt, .. } => pkt.size as u64,
            Payload::RecnAck { path }
            | Payload::RecnReject { path }
            | Payload::RecnToken { path } => 8 + path.len() as u64,
        }
    }
}

/// Payload travelling in the reverse (upstream) direction of a link:
/// flow control and RECN notifications. The MIN is unidirectional for
/// data, so these never compete with data packets — but they do occupy
/// the reverse channel, which is modeled.
#[derive(Debug, Clone)]
pub enum RevPayload {
    /// Credit return: `bytes` freed at the downstream input port
    /// (`queue` identifies the per-queue pool for VOQ schemes).
    Credit {
        /// Queue index at the downstream port (`u16::MAX` = pooled).
        queue: u16,
        /// Freed bytes.
        bytes: u32,
    },
    /// RECN congestion notification propagating upstream.
    RecnNotification {
        /// Path from the receiving (upstream) port to the root.
        path: PathSpec,
    },
    /// RECN per-SAQ Xoff.
    RecnXoff {
        /// Tree path at the receiver.
        path: PathSpec,
    },
    /// RECN per-SAQ Xon.
    RecnXon {
        /// Tree path at the receiver.
        path: PathSpec,
    },
    /// PFC: downstream input port crossed its high-water mark; the
    /// upstream transmitter must pause this link.
    PfcPause,
    /// PFC: occupancy fell to the low-water mark; the upstream
    /// transmitter may resume.
    PfcResume,
    /// ARN congestion notification: the downstream switch (reached
    /// through this link's forward direction) became congested — under
    /// RECN it allocated a congested-root CAM entry, under the other
    /// schemes an output queue crossed the occupancy threshold. The
    /// upstream receiver bumps the ARN-table entry of the up-port this
    /// link hangs off (`RoutingPolicy::ArnUp` only).
    ArnHot,
    /// ARN decongestion notification: the downstream switch cleared a
    /// congested root (RECN) or an output queue drained below the low
    /// threshold. The upstream receiver decrements the matching
    /// ARN-table entry.
    ArnCold,
}

impl RevPayload {
    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RevPayload::Credit { .. } => 8,
            RevPayload::RecnNotification { path } => 8 + path.len() as u64,
            RevPayload::RecnXoff { .. } | RevPayload::RecnXon { .. } => 8,
            RevPayload::PfcPause | RevPayload::PfcResume => 8,
            RevPayload::ArnHot | RevPayload::ArnCold => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> Packet {
        Packet {
            id: 1,
            src: HostId::new(3),
            dst: HostId::new(9),
            size: 64,
            route: Route::to_host(HostId::new(9), 4, 3),
            injected_at: Picos::from_ns(5),
            flow_seq: 0,
        }
    }

    #[test]
    fn queue_item_bytes() {
        let p = sample_packet();
        assert_eq!(QueueItem::Packet(p).bytes(), 64);
    }

    #[test]
    fn payload_sizes() {
        let p = sample_packet();
        assert_eq!(
            Payload::Data {
                pkt: p,
                target_queue: 0
            }
            .wire_bytes(),
            64
        );
        let path = PathSpec::from_turns(&[1, 2]);
        assert_eq!(Payload::RecnAck { path }.wire_bytes(), 10);
        assert_eq!(Payload::RecnToken { path }.wire_bytes(), 10);
        assert_eq!(
            RevPayload::Credit {
                queue: 0,
                bytes: 64
            }
            .wire_bytes(),
            8
        );
        assert_eq!(RevPayload::RecnNotification { path }.wire_bytes(), 10);
        assert_eq!(RevPayload::RecnXoff { path }.wire_bytes(), 8);
        assert_eq!(RevPayload::PfcPause.wire_bytes(), 8);
        assert_eq!(RevPayload::PfcResume.wire_bytes(), 8);
        assert_eq!(RevPayload::ArnHot.wire_bytes(), 8);
        assert_eq!(RevPayload::ArnCold.wire_bytes(), 8);
    }
}
