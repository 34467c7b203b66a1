//! Control messages exchanged across links by the RECN protocol.

use topology::PathSpec;

/// A RECN control message travelling on a link (upstream or downstream).
/// These share link bandwidth with data and flow-control packets, exactly
/// as modeled in the paper's simulator; [`RecnMsg::wire_bytes`] gives the
/// size the fabric charges for them.
///
/// Direction conventions (relative to data flow):
/// * `Notification` travels **upstream** (input port → upstream output port).
/// * `Ack` and `Reject` travel **downstream**, answering a notification.
/// * `Token` travels **downstream** when a leaf SAQ deallocates.
/// * `Xoff` / `Xon` travel **upstream**, throttling the matching SAQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecnMsg {
    /// Allocate a SAQ for `path` at the receiving (upstream) output port;
    /// carries the token that marks the new leaf.
    Notification {
        /// Path from the *receiving* port to the congestion root.
        path: PathSpec,
    },
    /// The notification was accepted; `line` is the CAM line id allocated at
    /// the upstream port, usable for compressed Xon/Xoff addressing.
    Ack {
        /// Path the ack answers.
        path: PathSpec,
        /// CAM line id at the accepting port.
        line: u8,
    },
    /// The notification was rejected (no free SAQ); the token comes back.
    Reject {
        /// Path the rejection answers.
        path: PathSpec,
    },
    /// A leaf SAQ deallocated; its token returns toward the root.
    Token {
        /// Path identifying the tree at the receiving port.
        path: PathSpec,
    },
    /// Stop transmitting from the SAQ matching `path`.
    Xoff {
        /// Path identifying the tree at the receiving port.
        path: PathSpec,
    },
    /// Resume transmitting from the SAQ matching `path`.
    Xon {
        /// Path identifying the tree at the receiving port.
        path: PathSpec,
    },
}

impl RecnMsg {
    /// Bytes this message occupies on the wire.
    ///
    /// Notifications carry the full subpath (the paper encodes it as a
    /// turnpool subset); answers and flow control are compact because they
    /// can use the CAM line id (§3.8). We charge 8 bytes of framing plus one
    /// byte per carried turn for path-bearing messages.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RecnMsg::Notification { path } => 8 + path.len() as u64,
            RecnMsg::Ack { path, .. } => 8 + path.len() as u64,
            RecnMsg::Reject { path } => 8 + path.len() as u64,
            RecnMsg::Token { path } => 8 + path.len() as u64,
            RecnMsg::Xoff { .. } | RecnMsg::Xon { .. } => 8,
        }
    }

    /// The path the message refers to.
    pub fn path(&self) -> PathSpec {
        match self {
            RecnMsg::Notification { path }
            | RecnMsg::Ack { path, .. }
            | RecnMsg::Reject { path }
            | RecnMsg::Token { path }
            | RecnMsg::Xoff { path }
            | RecnMsg::Xon { path } => *path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_path() {
        let short = RecnMsg::Notification {
            path: PathSpec::from_turns(&[1]),
        };
        let long = RecnMsg::Notification {
            path: PathSpec::from_turns(&[1, 2, 3]),
        };
        assert_eq!(short.wire_bytes(), 9);
        assert_eq!(long.wire_bytes(), 11);
        assert_eq!(
            RecnMsg::Xoff {
                path: PathSpec::from_turns(&[1, 2, 3])
            }
            .wire_bytes(),
            8
        );
    }

    #[test]
    fn path_accessor_covers_all_variants() {
        let p = PathSpec::from_turns(&[2, 0]);
        for m in [
            RecnMsg::Notification { path: p },
            RecnMsg::Ack { path: p, line: 3 },
            RecnMsg::Reject { path: p },
            RecnMsg::Token { path: p },
            RecnMsg::Xoff { path: p },
            RecnMsg::Xon { path: p },
        ] {
            assert_eq!(m.path(), p);
        }
    }
}
