//! RECN tunables.

use simcore::{Canon, CanonWriter};

/// Configuration of the RECN mechanism at every port.
///
/// The paper specifies the *structure* of the thresholds (detection,
/// propagation, Xon/Xoff, drain boost) but not concrete byte values. The
/// [default](RecnConfig::default) is the configuration every paper-scale
/// experiment runs: thresholds as fractions of the paper's 128 KB per-port
/// memory, chosen so that the reproduction's curves match the paper's.
///
/// Construct with [`RecnConfig::default`] and override fields through the
/// with-methods:
///
/// ```
/// use recn::RecnConfig;
/// let cfg = RecnConfig::default().with_max_saqs(64).with_detection_threshold(16 * 1024);
/// assert_eq!(cfg.max_saqs, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecnConfig {
    /// SAQs (= CAM lines) per port. The paper evaluates 8 and states that 64
    /// fit in the reclaimed VOQ RAM of their switch design.
    pub max_saqs: usize,
    /// Output-port normal-queue occupancy (bytes) at which the port becomes
    /// the root of a congestion tree.
    pub detection_threshold: u64,
    /// SAQ occupancy (bytes) at which the congestion notification is
    /// propagated one hop further upstream.
    pub propagation_threshold: u64,
    /// SAQ occupancy (bytes) at which Xoff is sent to the upstream SAQ.
    /// Must be at least `xon_threshold`.
    pub xoff_threshold: u64,
    /// SAQ occupancy (bytes) below which Xon re-enables the upstream SAQ.
    /// Must be positive, so the dequeue that empties a SAQ has released
    /// its Xoff before the SAQ may deallocate.
    pub xon_threshold: u64,
    /// A SAQ holding at most this many packets *and* owning its token gets
    /// highest arbitration priority, so lingering SAQs drain and deallocate
    /// quickly (paper §3.8).
    pub drain_boost_pkts: u32,
    /// Root clears when its normal queue drops below this many bytes (and
    /// all tokens have returned). Usually below `detection_threshold` to
    /// give the root detector hysteresis.
    pub root_clear_threshold: u64,
}

impl Default for RecnConfig {
    fn default() -> Self {
        RecnConfig {
            max_saqs: 8,
            detection_threshold: 16 * 1024,
            propagation_threshold: 2 * 1024,
            xoff_threshold: 4 * 1024,
            xon_threshold: 1024,
            drain_boost_pkts: 2,
            root_clear_threshold: 8 * 1024,
        }
    }
}

impl RecnConfig {
    /// Returns the config with a different SAQ pool size.
    pub fn with_max_saqs(mut self, n: usize) -> Self {
        self.max_saqs = n;
        self
    }

    /// Returns the config with a different detection threshold (bytes).
    pub fn with_detection_threshold(mut self, bytes: u64) -> Self {
        self.detection_threshold = bytes;
        self.root_clear_threshold = self.root_clear_threshold.min(bytes);
        self
    }

    /// Returns the config with a different drain-boost packet count.
    pub fn with_drain_boost(mut self, pkts: u32) -> Self {
        self.drain_boost_pkts = pkts;
        self
    }

    /// Checks internal consistency, returning the first violated invariant
    /// as an error message (the non-panicking form of
    /// [`validate`](RecnConfig::validate)).
    pub fn check(&self) -> Result<(), String> {
        if self.max_saqs < 1 {
            return Err("need at least one SAQ".into());
        }
        if self.max_saqs > 64 {
            return Err("paper hardware bounds the CAM at 64 lines".into());
        }
        if self.xon_threshold == 0 {
            return Err("xon threshold must be positive".into());
        }
        if self.xoff_threshold < self.xon_threshold {
            return Err("xoff threshold must be at least xon threshold".into());
        }
        if self.root_clear_threshold > self.detection_threshold {
            return Err("root hysteresis must not exceed the detection threshold".into());
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are inconsistent (xon = 0, xoff < xon, clear >
    /// detect, or an empty SAQ pool).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Canon for RecnConfig {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u64(self.max_saqs as u64);
        w.u64(self.detection_threshold);
        w.u64(self.propagation_threshold);
        w.u64(self.xoff_threshold);
        w.u64(self.xon_threshold);
        w.u32(self.drain_boost_pkts);
        w.u64(self.root_clear_threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field reaches the canonical bytes: a config that differs from
    /// the default in any one field encodes differently from it and from
    /// every other such config.
    #[test]
    fn every_field_changes_the_canonical_bytes() {
        let edits: [fn(&mut RecnConfig); 7] = [
            |c| c.max_saqs += 1,
            |c| c.detection_threshold += 1,
            |c| c.propagation_threshold += 1,
            |c| c.xoff_threshold += 1,
            |c| c.xon_threshold += 1,
            |c| c.drain_boost_pkts += 1,
            |c| c.root_clear_threshold += 1,
        ];
        let mut encodings = vec![RecnConfig::default().canon_bytes()];
        for edit in edits {
            let mut c = RecnConfig::default();
            edit(&mut c);
            encodings.push(c.canon_bytes());
        }
        for (i, bytes) in encodings.iter().enumerate() {
            for (j, other) in encodings[..i].iter().enumerate() {
                assert_ne!(bytes, other, "variants {i} and {j}");
            }
        }
    }

    #[test]
    fn default_is_valid() {
        RecnConfig::default().validate();
    }

    #[test]
    fn builders_compose() {
        let cfg = RecnConfig::default()
            .with_max_saqs(16)
            .with_detection_threshold(1024)
            .with_drain_boost(4);
        assert_eq!(cfg.max_saqs, 16);
        assert_eq!(cfg.detection_threshold, 1024);
        assert_eq!(cfg.drain_boost_pkts, 4);
        cfg.validate();
    }

    #[test]
    fn detection_override_keeps_hysteresis_consistent() {
        let cfg = RecnConfig::default().with_detection_threshold(1000);
        assert!(cfg.root_clear_threshold <= cfg.detection_threshold);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "xoff threshold must be at least xon")]
    fn inverted_xoff_xon_panics() {
        RecnConfig {
            xoff_threshold: 10,
            xon_threshold: 20,
            ..RecnConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one SAQ")]
    fn zero_saqs_invalid() {
        RecnConfig::default().with_max_saqs(0).validate();
    }
}
