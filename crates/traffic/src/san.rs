//! Synthetic SAN I/O traces (substitute for the HP Labs `cello` traces).
//!
//! The paper replays I/O traces collected in 1999 at the disk interface of
//! HP's `cello` timesharing system (23 disks), time-compressed by factors
//! of 20 and 40 to match year-2005 device speeds. Those traces are not
//! publicly redistributable, so this module *synthesizes* traces with the
//! structural properties the experiment depends on:
//!
//! * a client/storage split — the last [`SanParams::disks`] hosts act as
//!   disks, the rest as clients;
//! * request/reply asymmetry — writes carry heavy-tailed payloads toward
//!   disks, reads are small requests answered by heavy-tailed replies;
//! * bursty, heavy-tailed client activity (Pareto burst lengths over
//!   exponential think times) with per-burst destination locality;
//! * transient **hot-disk events** during which many clients converge on
//!   one disk — the congestion trees of Figures 3 and 5;
//! * a **compression factor** that divides every time gap, exactly like
//!   the paper's knob.
//!
//! Generation is offline and deterministic: [`SanParams::build_scripts`]
//! produces the complete per-host message lists, which replay through
//! [`fabric::ScriptSource`].

use fabric::{MessageSource, ScriptSource, SourcedMessage};
use simcore::{Canon, CanonWriter, Picos, Xoshiro256};
use topology::HostId;

/// Parameters of the synthetic SAN workload. Time-valued fields are in
/// *original trace time*; everything is divided by `compression` during
/// generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SanParams {
    /// Number of storage endpoints (the `cello` system had 23).
    pub disks: u32,
    /// Time compression factor (the paper evaluates 20 and 40).
    pub compression: f64,
    /// Master seed.
    pub seed: u64,
    /// Mean client think time between bursts, nanoseconds (original time).
    pub think_ns: f64,
    /// Pareto scale/shape of the burst length (requests per burst).
    pub burst_xm: f64,
    /// Pareto shape of the burst length.
    pub burst_alpha: f64,
    /// Mean gap between requests inside a burst, nanoseconds.
    pub intra_gap_ns: f64,
    /// Fraction of requests that are writes (data flows client → disk).
    pub write_fraction: f64,
    /// Pareto scale of payload sizes, bytes.
    pub payload_xm: f64,
    /// Pareto shape of payload sizes.
    pub payload_alpha: f64,
    /// Payload cap, bytes.
    pub payload_cap: u32,
    /// Size of a bare request/command message, bytes.
    pub request_bytes: u32,
    /// Mean disk service time before a read reply departs, nanoseconds.
    pub service_ns: f64,
    /// Mean gap between hot-disk events, nanoseconds.
    pub hot_gap_ns: f64,
    /// Pareto scale of hot-event durations, nanoseconds.
    pub hot_duration_xm_ns: f64,
    /// Probability that a burst starting during a hot event targets the
    /// hot disk.
    pub hot_affinity: f64,
}

impl SanParams {
    /// The workload used for Figures 3 and 5 at the given compression
    /// factor (20 or 40 in the paper).
    pub fn cello_like(compression: f64) -> SanParams {
        SanParams {
            disks: 23,
            compression,
            seed: 1999,
            think_ns: 4_000_000.0, // 4 ms between bursts
            burst_xm: 4.0,
            burst_alpha: 1.2,       // heavy tail, mean ≈ 24 requests
            intra_gap_ns: 40_000.0, // 40 µs between requests in a burst
            write_fraction: 0.6,
            payload_xm: 1_024.0,
            payload_alpha: 1.3,
            payload_cap: 16 * 1024,
            request_bytes: 512,
            service_ns: 150_000.0,
            hot_gap_ns: 12_000_000.0,
            hot_duration_xm_ns: 4_000_000.0,
            hot_affinity: 0.85,
        }
    }

    /// The disk hosts for a network of `hosts` endpoints (the tail range).
    pub fn disk_hosts(&self, hosts: u32) -> std::ops::Range<u32> {
        assert!(self.disks < hosts, "need at least one client");
        (hosts - self.disks)..hosts
    }

    /// Generates the complete per-host message scripts for a run of
    /// `horizon` (compressed time).
    ///
    /// # Panics
    ///
    /// Panics if the network is too small for the configured disk count.
    pub fn build_scripts(&self, hosts: u32, horizon: Picos) -> Vec<Vec<SourcedMessage>> {
        assert!(self.compression > 0.0, "compression must be positive");
        let disks = self.disk_hosts(hosts);
        let horizon_orig_ns = horizon.as_ns_f64() * self.compression;
        let mut rng = Xoshiro256::new(self.seed);

        // 1. The shared hot-disk event schedule.
        let mut hot_events: Vec<(f64, f64, u32)> = Vec::new(); // (start, end, disk)
        {
            let mut t = rng.next_exp(self.hot_gap_ns);
            while t < horizon_orig_ns {
                let dur = rng.next_pareto(self.hot_duration_xm_ns, 1.5);
                let disk = disks.start + rng.next_below(self.disks as u64) as u32;
                hot_events.push((t, t + dur, disk));
                t += dur + rng.next_exp(self.hot_gap_ns);
            }
        }
        let hot_disk_at = |t: f64| -> Option<u32> {
            hot_events
                .iter()
                .find(|&&(s, e, _)| t >= s && t < e)
                .map(|&(_, _, d)| d)
        };

        let mut scripts: Vec<Vec<SourcedMessage>> = vec![Vec::new(); hosts as usize];
        let compress = |t_ns: f64| Picos::new((t_ns / self.compression * 1000.0) as u64);

        // 2. Per-client burst processes, writes toward disks, read replies
        //    generated into the disks' scripts.
        for client in 0..disks.start {
            let mut r = rng.fork();
            let mut t = r.next_exp(self.think_ns);
            while t < horizon_orig_ns {
                // Pick the burst's disk: hot disk with affinity, else a
                // locality-skewed random disk.
                let disk = match hot_disk_at(t) {
                    Some(hot) if r.chance(self.hot_affinity) => hot,
                    _ => {
                        let u = r.next_f64();
                        disks.start + ((u * u) * self.disks as f64) as u32
                    }
                };
                let burst_len = r.next_pareto(self.burst_xm, self.burst_alpha).min(200.0) as u32;
                for _ in 0..burst_len.max(1) {
                    if t >= horizon_orig_ns {
                        break;
                    }
                    let payload = r
                        .next_pareto(self.payload_xm, self.payload_alpha)
                        .min(self.payload_cap as f64) as u32;
                    if r.chance(self.write_fraction) {
                        // Write: data travels client -> disk.
                        scripts[client as usize].push(SourcedMessage {
                            at: compress(t),
                            dst: HostId::new(disk),
                            bytes: payload.max(self.request_bytes),
                        });
                    } else {
                        // Read: small request now, heavy reply later.
                        scripts[client as usize].push(SourcedMessage {
                            at: compress(t),
                            dst: HostId::new(disk),
                            bytes: self.request_bytes,
                        });
                        let reply_t = t + r.next_exp(self.service_ns);
                        if reply_t < horizon_orig_ns {
                            scripts[disk as usize].push(SourcedMessage {
                                at: compress(reply_t),
                                dst: HostId::new(client),
                                bytes: payload.max(self.request_bytes),
                            });
                        }
                    }
                    t += r.next_exp(self.intra_gap_ns);
                }
                t += r.next_exp(self.think_ns);
            }
        }

        // Disk scripts accumulated out of order (many clients): sort.
        for s in &mut scripts {
            s.sort_by_key(|m| m.at);
        }
        scripts
    }

    /// Like [`build_scripts`](Self::build_scripts) but wrapped as ready
    /// [`MessageSource`]s.
    pub fn build_sources(&self, hosts: u32, horizon: Picos) -> Vec<Box<dyn MessageSource>> {
        self.build_scripts(hosts, horizon)
            .into_iter()
            .map(|script| Box::new(ScriptSource::new(script)) as Box<dyn MessageSource>)
            .collect()
    }
}

impl Canon for SanParams {
    fn encode_canon(&self, w: &mut CanonWriter) {
        w.u32(self.disks);
        w.f64(self.compression);
        w.u64(self.seed);
        w.f64(self.think_ns);
        w.f64(self.burst_xm);
        w.f64(self.burst_alpha);
        w.f64(self.intra_gap_ns);
        w.f64(self.write_fraction);
        w.f64(self.payload_xm);
        w.f64(self.payload_alpha);
        w.u32(self.payload_cap);
        w.u32(self.request_bytes);
        w.f64(self.service_ns);
        w.f64(self.hot_gap_ns);
        w.f64(self.hot_duration_xm_ns);
        w.f64(self.hot_affinity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field reaches the canonical bytes: parameters that differ from
    /// the preset in any one field encode differently from it and from
    /// every other such variant.
    #[test]
    fn every_field_changes_the_canonical_bytes() {
        let edits: [fn(&mut SanParams); 16] = [
            |p| p.disks += 1,
            |p| p.compression *= 2.0,
            |p| p.seed += 1,
            |p| p.think_ns *= 2.0,
            |p| p.burst_xm *= 2.0,
            |p| p.burst_alpha *= 2.0,
            |p| p.intra_gap_ns *= 2.0,
            |p| p.write_fraction /= 2.0,
            |p| p.payload_xm *= 2.0,
            |p| p.payload_alpha *= 2.0,
            |p| p.payload_cap += 1,
            |p| p.request_bytes += 1,
            |p| p.service_ns *= 2.0,
            |p| p.hot_gap_ns *= 2.0,
            |p| p.hot_duration_xm_ns *= 2.0,
            |p| p.hot_affinity /= 2.0,
        ];
        let base = SanParams::cello_like(20.0);
        let mut encodings = vec![base.canon_bytes()];
        for edit in edits {
            let mut p = base.clone();
            edit(&mut p);
            encodings.push(p.canon_bytes());
        }
        for (i, bytes) in encodings.iter().enumerate() {
            for (j, other) in encodings[..i].iter().enumerate() {
                assert_ne!(bytes, other, "variants {i} and {j}");
            }
        }
    }

    #[test]
    fn disk_range_is_tail() {
        let p = SanParams::cello_like(20.0);
        assert_eq!(p.disk_hosts(64), 41..64);
        assert_eq!(p.disk_hosts(64).len(), 23);
    }

    #[test]
    fn scripts_are_time_ordered_and_deterministic() {
        let p = SanParams::cello_like(20.0);
        let a = p.build_scripts(64, Picos::from_us(200));
        let b = p.build_scripts(64, Picos::from_us(200));
        assert_eq!(a, b, "same seed, same trace");
        for s in &a {
            assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn compression_scales_offered_load() {
        let horizon = Picos::from_us(500);
        let lo = SanParams::cello_like(10.0).build_scripts(64, horizon);
        let hi = SanParams::cello_like(40.0).build_scripts(64, horizon);
        let offered = |scripts: &[Vec<SourcedMessage>]| -> f64 {
            scripts.iter().flatten().map(|m| m.bytes as f64).sum()
        };
        let (lo_bytes, hi_bytes) = (offered(&lo), offered(&hi));
        // 4x compression squeezes ~4x the original-time traffic into the
        // same horizon (heavy tails add noise; accept a broad band).
        let ratio = hi_bytes / lo_bytes.max(1.0);
        assert!((2.0..8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn clients_talk_to_disks_only() {
        let p = SanParams::cello_like(20.0);
        let scripts = p.build_scripts(64, Picos::from_us(300));
        let disks = p.disk_hosts(64);
        for client in 0..41u32 {
            for m in &scripts[client as usize] {
                assert!(
                    disks.contains(&(m.dst.index() as u32)),
                    "client wrote to {}",
                    m.dst
                );
            }
        }
        // Disks only reply to clients.
        for d in disks.clone() {
            for m in &scripts[d as usize] {
                assert!((m.dst.index() as u32) < disks.start);
            }
        }
    }

    #[test]
    fn hot_events_concentrate_traffic() {
        // With hot affinity 1.0 and an always-on hot schedule, bursts hit
        // few disks; with affinity 0 traffic spreads.
        let mut p = SanParams::cello_like(20.0);
        p.hot_gap_ns = 1.0; // events essentially back-to-back
        p.hot_duration_xm_ns = 50_000_000.0;
        p.hot_affinity = 1.0;
        let focused = p.build_scripts(64, Picos::from_us(300));
        let mut hot = std::collections::HashMap::new();
        for s in &focused[..41] {
            for m in s {
                *hot.entry(m.dst).or_insert(0u64) += m.bytes as u64;
            }
        }
        let total: u64 = hot.values().sum();
        let max = hot.values().copied().max().unwrap_or(0);
        assert!(
            max as f64 > 0.3 * total as f64,
            "one disk should dominate: max {max} of {total}"
        );
    }

    #[test]
    fn sources_replay_scripts() {
        let p = SanParams::cello_like(20.0);
        let mut sources = p.build_sources(64, Picos::from_us(100));
        assert_eq!(sources.len(), 64);
        // At least one host must produce traffic over 100 µs.
        let any = sources.iter_mut().any(|s| s.next_message().is_some());
        assert!(any);
    }
}
