//! Constant-rate random-destination traffic.

use fabric::{MessageSource, SourcedMessage};
use simcore::{Picos, Xoshiro256};
use topology::HostId;

/// A host injecting fixed-size messages to uniformly random destinations
/// at a fraction of the link bandwidth, within a time window.
///
/// ```
/// use fabric::MessageSource;
/// use simcore::Picos;
/// use traffic::RandomUniformSource;
///
/// let mut src = RandomUniformSource::new(64, Some(topology::HostId::new(3)), 64, 0.5)
///     .window(Picos::ZERO, Picos::from_us(1))
///     .seed(7)
///     .build();
/// let m = src.next_message().unwrap();
/// assert_ne!(m.dst.index(), 3, "self-traffic excluded");
/// assert_eq!(m.bytes, 64);
/// ```
#[derive(Debug, Clone)]
pub struct RandomUniformSource {
    hosts: u32,
    exclude: Option<HostId>,
    msg_bytes: u32,
    interval_ps: f64,
    start: Picos,
    end: Picos,
    seed: u64,
}

impl RandomUniformSource {
    /// Starts building a source over `hosts` destinations (optionally
    /// excluding `exclude`, typically the sender itself), with `msg_bytes`
    /// messages at `rate` × link bandwidth (1 byte/ns at rate 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`, or `hosts < 2` while excluding.
    pub fn new(hosts: u32, exclude: Option<HostId>, msg_bytes: u32, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        assert!(msg_bytes > 0, "message size must be positive");
        assert!(
            hosts >= 2 || exclude.is_none(),
            "cannot exclude the only destination"
        );
        RandomUniformSource {
            hosts,
            exclude,
            msg_bytes,
            interval_ps: msg_bytes as f64 * 1_000.0 / rate,
            start: Picos::ZERO,
            end: Picos::MAX,
            seed: 0,
        }
    }

    /// Sets the active window (default: forever).
    pub fn window(mut self, start: Picos, end: Picos) -> Self {
        self.start = start;
        self.end = end;
        self
    }

    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the generator.
    pub fn build(self) -> RandomUniformStream {
        RandomUniformStream {
            rng: Xoshiro256::new(self.seed),
            next_at_ps: self.start.as_ps() as f64,
            cfg: self,
        }
    }
}

/// The running state of a [`RandomUniformSource`].
#[derive(Debug, Clone)]
pub struct RandomUniformStream {
    cfg: RandomUniformSource,
    rng: Xoshiro256,
    next_at_ps: f64,
}

impl MessageSource for RandomUniformStream {
    fn next_message(&mut self) -> Option<SourcedMessage> {
        let at = Picos::new(self.next_at_ps as u64);
        if at >= self.cfg.end {
            return None;
        }
        let dst = loop {
            let d = HostId::new(self.rng.next_below(self.cfg.hosts as u64) as u32);
            if Some(d) != self.cfg.exclude {
                break d;
            }
        };
        self.next_at_ps += self.cfg.interval_ps.max(1.0);
        Some(SourcedMessage {
            at,
            dst,
            bytes: self.cfg.msg_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_matches_request() {
        // 0.5 byte/ns with 64-byte messages: one message per 128 ns.
        let mut s = RandomUniformSource::new(16, None, 64, 0.5)
            .window(Picos::ZERO, Picos::from_us(1))
            .build();
        let mut n = 0;
        let mut last = Picos::ZERO;
        while let Some(m) = s.next_message() {
            assert!(m.at >= last);
            last = m.at;
            n += 1;
        }
        assert_eq!(n, 1_000_000 / 128_000 + 1); // messages at 0, 128ns, ...
    }

    #[test]
    fn destinations_cover_space_excluding_self() {
        let me = HostId::new(5);
        let mut s = RandomUniformSource::new(8, Some(me), 64, 1.0)
            .seed(3)
            .build();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let m = s.next_message().unwrap();
            assert_ne!(m.dst, me);
            seen.insert(m.dst);
        }
        assert_eq!(seen.len(), 7, "all other hosts hit");
    }

    #[test]
    fn window_respected() {
        let mut s = RandomUniformSource::new(16, None, 64, 1.0)
            .window(Picos::from_us(800), Picos::from_us(801))
            .build();
        let first = s.next_message().unwrap();
        assert_eq!(first.at, Picos::from_us(800));
        let mut last = first.at;
        while let Some(m) = s.next_message() {
            last = m.at;
        }
        assert!(last < Picos::from_us(801));
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn zero_rate_rejected() {
        let _ = RandomUniformSource::new(16, None, 64, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut s = RandomUniformSource::new(32, None, 64, 1.0)
                .window(Picos::ZERO, Picos::from_ns(6400))
                .seed(seed)
                .build();
            let mut v = Vec::new();
            while let Some(m) = s.next_message() {
                v.push((m.at, m.dst));
            }
            v
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
