//! Parallel sweep executor.
//!
//! Every paper figure is a sweep of independent `(workload, scheme,
//! network-size)` simulations, so the harness fans them out over a worker
//! pool instead of running them back to back:
//!
//! * [`RunSpec`] — a fully-described simulation run (see [`crate::spec`]
//!   for the builder API and its canonical `spec_v1` encoding).
//! * [`Sweep`] — takes a `Vec<RunSpec>`, runs them on a
//!   [`std::thread::scope`] pool (`--jobs N`, default = available
//!   parallelism), and returns the [`RunOutput`]s **in submission order**
//!   regardless of completion order, so tables and CSVs are bit-identical
//!   to a serial run.
//!
//! ## Caching
//!
//! [`Sweep::cache`] routes every run through a content-addressed
//! [`RunCache`]: specs whose `spec_v1` hash already has a verified entry
//! are served from disk (bit-identical outputs, original wall time
//! replayed), everything else runs and is stored atomically. Interrupt a
//! sweep anywhere and re-submit it — completed runs are skipped and the
//! final tables are byte-identical to an uninterrupted sweep.
//!
//! ## Thread-locality contract
//!
//! The measurement [`metrics::Probe`] is `Rc<RefCell>`-based and not
//! `Send`, and neither is the event engine. The executor therefore never
//! shares simulation state across threads: each worker claims a spec index,
//! constructs its *own* `Network` + `Probe` locally, runs it to completion,
//! and only the plain-data [`RunOutput`] crosses the thread boundary. One
//! probe per worker per run, never shared.
//!
//! ## Machine-readable summaries
//!
//! [`Sweep::json`] writes a JSON summary of the sweep (per run: scheme,
//! delivered packets/bytes, mean latency, SAQ peaks, wall seconds,
//! events/sec, cache status) under a directory — the `recn` commands default
//! this to `results/`. The shape is versioned by
//! [`OUTPUT_SCHEMA_VERSION`] and
//! documented in DESIGN.md §6e.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::cache::{CacheStatus, RunCache};
use crate::json;
use crate::runner::{run_one, RunOutput, OUTPUT_SCHEMA_VERSION};

pub use crate::spec::RunSpec;

/// A batch of independent simulation runs fanned out over a worker pool.
///
/// Results come back in **submission order** regardless of completion
/// order; a `jobs(1)` sweep and a `jobs(N)` sweep of the same specs return
/// bit-identical outputs (each run constructs its own seeded, deterministic
/// simulation — see the module docs for the thread-locality contract).
#[derive(Debug)]
pub struct Sweep {
    specs: Vec<RunSpec>,
    jobs: usize,
    progress: bool,
    json: Option<(PathBuf, String)>,
    cache: Option<RunCache>,
}

/// Everything a finished [`Sweep`] knows: the specs, their outputs in
/// submission order, how each was satisfied, and the sweep's own timing.
#[derive(Debug)]
pub struct SweepReport {
    /// The specs, in submission order.
    pub specs: Vec<RunSpec>,
    /// One output per spec, same order.
    pub outputs: Vec<RunOutput>,
    /// How each spec was satisfied (cache hit/miss, or `Off`).
    pub cache: Vec<CacheStatus>,
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Wall-clock seconds the whole sweep took.
    pub total_wall_secs: f64,
}

impl SweepReport {
    /// Number of cache hits in the sweep.
    pub fn cache_hits(&self) -> usize {
        self.cache
            .iter()
            .filter(|s| **s == CacheStatus::Hit)
            .count()
    }
}

impl Sweep {
    /// A sweep over `specs` using all available parallelism, silent, with
    /// no JSON summary and no cache.
    pub fn new(specs: Vec<RunSpec>) -> Sweep {
        Sweep {
            specs,
            jobs: default_jobs(),
            progress: false,
            json: None,
            cache: None,
        }
    }

    /// Sets the worker count (`0` or `None`-like values fall back to the
    /// available parallelism; the pool never exceeds the number of specs).
    pub fn jobs(mut self, jobs: usize) -> Sweep {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// Enables per-job progress lines on stderr:
    /// `[3/20] RECN fig2a … 4.1s wall, 2.1M events/s`.
    pub fn progress(mut self, on: bool) -> Sweep {
        self.progress = on;
        self
    }

    /// Writes a machine-readable JSON summary named `<name>.sweep.json`
    /// under `dir` after the run.
    pub fn json(mut self, dir: impl Into<PathBuf>, name: impl Into<String>) -> Sweep {
        self.json = Some((dir.into(), name.into()));
        self
    }

    /// Routes every run through a content-addressed [`RunCache`] rooted at
    /// `dir` (see the module docs on crash-safe resumption).
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Sweep {
        self.cache = Some(RunCache::new(dir));
        self
    }

    /// Runs every spec and returns the outputs in submission order.
    pub fn run(self) -> Vec<RunOutput> {
        self.run_report().outputs
    }

    /// Runs every spec and returns the full [`SweepReport`] (outputs plus
    /// per-run cache statuses and sweep timing).
    pub fn run_report(self) -> SweepReport {
        let Sweep {
            specs,
            jobs,
            progress,
            json,
            cache,
        } = self;
        let n = specs.len();
        let workers = jobs.clamp(1, n.max(1));
        let started = Instant::now();

        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(RunOutput, CacheStatus)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // The worker builds Network + Probe thread-locally inside
            // run_one; only the Send-able RunOutput leaves this closure.
            let (out, status) = match &cache {
                None => (run_one(&specs[i]), CacheStatus::Off),
                Some(c) => match c.load(&specs[i]) {
                    Some(out) => (out, CacheStatus::Hit),
                    None => {
                        let out = run_one(&specs[i]);
                        if let Err(e) = c.store(&specs[i], &out) {
                            eprintln!("cache entry for {} not stored: {e}", specs[i].label());
                        }
                        (out, CacheStatus::Miss)
                    }
                },
            };
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                let rate = match events_per_sec(&out) {
                    Some(eps) => format!("{:.1}M events/s", eps / 1e6),
                    None => "events/s n/a".to_owned(),
                };
                let tag = match status {
                    CacheStatus::Hit => " (cached)",
                    _ => "",
                };
                eprintln!(
                    "[{finished}/{n}] {} {} … {:.1}s wall, {rate}{tag}",
                    out.scheme,
                    specs[i].label(),
                    out.wall_secs,
                );
            }
            // Cannot be poisoned: a lock is held only for this store, which
            // cannot panic.
            *slots[i].lock().expect("result slot poisoned") = Some((out, status));
        };

        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(work);
                }
            });
        }

        // Unreachable `expect`s: the slots are never poisoned (above), and
        // every index below `n` is claimed once and stored by its worker
        // unless that worker panicked — which `thread::scope` (or the serial
        // call) re-raises here, before any slot is read.
        let (outputs, statuses): (Vec<RunOutput>, Vec<CacheStatus>) = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed spec stores an output")
            })
            .unzip();

        let report = SweepReport {
            specs,
            outputs,
            cache: statuses,
            jobs: workers,
            total_wall_secs: started.elapsed().as_secs_f64(),
        };

        if let Some((dir, name)) = json {
            match write_summary(&dir, &name, &report) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("sweep summary not written: {e}"),
            }
        }
        report
    }
}

/// Worker count used when none is requested: the machine's available
/// parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Wall clock below which an events/sec rate is meaningless (a fully
/// cached or degenerate run): the quotient would explode toward infinity.
const MIN_RATE_WALL_SECS: f64 = 1e-9;

/// Simulated events per wall-clock second of a finished run, or `None`
/// when the wall time is too small (or not finite) to divide by — JSON
/// renders that as `null` instead of `inf`/`NaN`.
pub fn events_per_sec(out: &RunOutput) -> Option<f64> {
    if !out.wall_secs.is_finite() || out.wall_secs < MIN_RATE_WALL_SECS {
        return None;
    }
    let rate = out.events as f64 / out.wall_secs;
    rate.is_finite().then_some(rate)
}

/// Writes the JSON sweep summary and returns its path.
fn write_summary(dir: &Path, name: &str, report: &SweepReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.sweep.json"));
    std::fs::write(&path, render_summary(name, report))?;
    Ok(path)
}

/// Renders the machine-readable summary (hand-rolled JSON: the workspace
/// has no external dependencies, and the shape is small and stable). The
/// shape is versioned by the top-level `schema_version` field and
/// documented in DESIGN.md §6e.
pub fn render_summary(name: &str, report: &SweepReport) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"sweep\": {},\n", json::string(name)));
    s.push_str(&format!("  \"schema_version\": {OUTPUT_SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", report.jobs));
    s.push_str(&format!(
        "  \"total_wall_secs\": {},\n",
        json::num(report.total_wall_secs)
    ));
    s.push_str("  \"runs\": [\n");
    let n = report.outputs.len();
    for (i, (spec, out)) in report.specs.iter().zip(&report.outputs).enumerate() {
        let sep = if i + 1 == n { "" } else { "," };
        let status = report.cache.get(i).copied().unwrap_or(CacheStatus::Off);
        s.push_str(&format!(
            "    {{\"label\": {}, \"scheme\": {}, \"topology\": {}, \
             \"routing\": {}, \"hosts\": {}, \
             \"packet_size\": {}, \
             \"spec_hash\": {}, \"cache\": {}, \
             \"delivered_packets\": {}, \"delivered_bytes\": {}, \"mean_latency_ns\": {}, \
             \"saq_peaks\": [{}, {}, {}], \"wall_secs\": {}, \"events\": {}, \
             \"events_per_sec\": {}, \"peak_event_queue_depth\": {}, \
             \"peak_bytes_estimate\": {}, \
             \"transport\": {}, \"fct\": {}, \"retransmitted_packets\": {}, \
             \"transport_timeouts\": {}, \"pfc_dropped_packets\": {}, \
             \"arn_hot_notifications\": {}, \"arn_cold_notifications\": {}}}{sep}\n",
            json::string(spec.label()),
            json::string(out.scheme),
            json::string(spec.params().name()),
            json::string(spec.routing().name()),
            spec.params().hosts(),
            spec.packet_size(),
            json::string(&format!("{:016x}", spec.spec_hash())),
            json::string(status.name()),
            out.counters.delivered_packets,
            out.counters.delivered_bytes,
            json::num(out.counters.latency_ns.mean()),
            out.saq_peaks.0,
            out.saq_peaks.1,
            out.saq_peaks.2,
            json::num(out.wall_secs),
            out.events,
            json::opt(events_per_sec(out)),
            out.peak_event_queue_depth,
            out.peak_bytes_estimate,
            json::string(spec.transport().name()),
            json::fct(&out.fct),
            out.counters.retransmitted_packets,
            out.counters.transport_timeouts,
            out.counters.pfc_dropped_packets,
            out.counters.arn_hot_notifications,
            out.counters.arn_cold_notifications,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SchemeSet;
    use fabric::SchemeKind;
    use simcore::{Picos, SeriesPoint};
    use topology::MinParams;
    use traffic::corner::CornerCase;

    /// Quick corner sweep of every scheme (tiny 40 µs horizon).
    fn quick_specs() -> Vec<RunSpec> {
        let corner = CornerCase::case1_64().shrunk(40);
        SchemeSet::All
            .schemes_scaled(40)
            .into_iter()
            .map(|scheme| {
                RunSpec::corner(MinParams::paper_64(), scheme, corner)
                    .with_horizon(Picos::from_us(40))
                    .with_bin(Picos::from_us(2))
                    .with_label("quick")
            })
            .collect()
    }

    fn series_eq(a: &[SeriesPoint], b: &[SeriesPoint]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.t_us.to_bits() == y.t_us.to_bits() && x.value.to_bits() == y.value.to_bits()
            })
    }

    /// The tentpole determinism contract: a 4-job parallel sweep returns
    /// outputs bit-identical (same series values, same order) to the
    /// serial sweep.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let serial = Sweep::new(quick_specs()).jobs(1).run();
        let parallel = Sweep::new(quick_specs()).jobs(4).run();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scheme, p.scheme, "submission order must be preserved");
            assert!(series_eq(&s.throughput, &p.throughput), "{}", s.scheme);
            assert_eq!(s.saq, p.saq, "{}", s.scheme);
            assert_eq!(s.saq_peaks, p.saq_peaks);
            assert_eq!(s.counters.delivered_packets, p.counters.delivered_packets);
            assert_eq!(s.counters.delivered_bytes, p.counters.delivered_bytes);
            assert_eq!(s.events, p.events);
        }
    }

    #[test]
    fn oversized_job_count_is_clamped() {
        let outs = Sweep::new(quick_specs()).jobs(64).run();
        assert_eq!(outs.len(), 5);
        assert!(outs.iter().all(|o| o.counters.delivered_packets > 0));
    }

    #[test]
    fn summary_json_is_well_formed() {
        let specs = quick_specs();
        let mut report = Sweep::new(specs.clone()).jobs(2).run_report();
        assert_eq!(report.jobs, 2);
        assert!(report.cache.iter().all(|s| *s == CacheStatus::Off));
        report.total_wall_secs = 1.25;
        let json = render_summary("smoke", &report);
        assert!(json.contains("\"sweep\": \"smoke\""));
        assert!(json.contains(&format!("\"schema_version\": {OUTPUT_SCHEMA_VERSION}")));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\"total_wall_secs\": 1.25"));
        assert!(json.contains("\"wall_secs\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"topology\": \"min\""));
        assert!(json.contains("\"routing\": \"deterministic\""));
        assert!(json.contains("\"cache\": \"off\""));
        assert!(json.contains("\"spec_hash\": \""));
        assert!(json.contains("\"peak_event_queue_depth\""));
        assert!(json.contains("\"peak_bytes_estimate\""));
        // ARN counters are present (and zero) even for non-ARN sweeps, so
        // matrix post-processing never needs key-existence checks.
        assert!(json.contains("\"arn_hot_notifications\": 0"));
        assert!(json.contains("\"arn_cold_notifications\": 0"));
        // One runs-array entry per spec, comma-separated except the last.
        assert_eq!(json.matches("\"label\"").count(), specs.len());
        assert_eq!(json.matches("},\n").count(), specs.len() - 1);
        // Balanced braces/brackets (cheap well-formedness check without
        // pulling the cache's JSON parser into this test).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The routing tag in the summary JSON follows the spec: an ARN
    /// fat-tree sweep renders `"routing": "arn"` (not the deterministic
    /// default), so downstream tooling can split the scheme matrix by
    /// policy without re-deriving it from the spec hash.
    #[test]
    fn summary_json_carries_arn_routing_tag() {
        let spec = RunSpec::corner(
            topology::FatTreeParams::new(4, 3),
            SchemeKind::OneQ,
            CornerCase::fattree_64().shrunk(40),
        )
        .with_horizon(Picos::from_us(20))
        .with_bin(Picos::from_us(2))
        .with_label("arn-json")
        .with_routing(fabric::RoutingPolicy::arn());
        let mut report = Sweep::new(vec![spec]).jobs(1).run_report();
        report.total_wall_secs = 0.5;
        let json = render_summary("arn-json", &report);
        assert!(json.contains("\"routing\": \"arn\""));
        assert!(!json.contains("\"routing\": \"deterministic\""));
        assert!(json.contains("\"arn_hot_notifications\": "));
    }

    /// The events/sec bug fix (satellite c): a near-zero wall clock must
    /// report `None` (JSON `null`), never `inf`/`NaN`.
    #[test]
    fn events_per_sec_clamps_degenerate_wall_clock() {
        let corner = CornerCase::case1_64().shrunk(40);
        let spec = RunSpec::corner(MinParams::paper_64(), SchemeKind::OneQ, corner)
            .with_horizon(Picos::from_us(40))
            .with_bin(Picos::from_us(2));
        let mut out = run_one(&spec);
        assert!(events_per_sec(&out).is_some(), "a real run has a rate");
        for degenerate in [0.0, 1e-12, -1.0, f64::NAN, f64::INFINITY] {
            out.wall_secs = degenerate;
            assert_eq!(events_per_sec(&out), None, "wall={degenerate}");
        }
        out.wall_secs = 2.0;
        assert_eq!(events_per_sec(&out), Some(out.events as f64 / 2.0));
    }
}
