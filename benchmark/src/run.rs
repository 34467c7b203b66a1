//! Running one repetition of a workload, checking it, and the simulated
//! (model-level) metrics read off its outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use experiments::{run_one, RunOutput, RunSpec, Sweep, Workload};
use simcore::Picos;

use crate::observed::Observed;
use crate::workloads::{Bench, Job, SWEEP_JOBS};

/// One repetition: the whole call a user of the library makes.
pub struct Rep {
    /// Host seconds of the whole `run_one` / `Sweep::run_report` call.
    pub wall_s: f64,
    pub outputs: Vec<RunOutput>,
}

impl Rep {
    /// Share of the call spent inside the runs' event loops:
    /// sum of the runs' own wall time / (workers x call wall time).
    pub fn efficiency(&self, job: &Job) -> f64 {
        let workers = match job {
            Job::Single(_) => 1,
            Job::Sweep(_) => SWEEP_JOBS,
        };
        let inner: f64 = self.outputs.iter().map(|o| o.wall_secs).sum();
        inner / (workers as f64 * self.wall_s)
    }
}

/// Runs `job` once. A panic anywhere inside (a tripped
/// `ValidatingObserver`, a broken invariant) comes back as `Err`.
pub fn run_job(job: &Job) -> Result<Rep, String> {
    let result = match job {
        Job::Single(spec) => {
            let started = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| run_one(spec)));
            (started.elapsed(), out.map(|o| vec![o]))
        }
        Job::Sweep(specs) => {
            let sweep = Sweep::new(specs.clone()).jobs(SWEEP_JOBS);
            let started = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| sweep.run_report()));
            (started.elapsed(), report.map(|r| r.outputs))
        }
    };
    match result {
        (wall, Ok(outputs)) => Ok(Rep {
            wall_s: wall.as_secs_f64(),
            outputs,
        }),
        (_, Err(panic)) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "run panicked".to_owned())),
    }
}

/// `job` with every spec changed by `f`.
pub fn map_job(job: &Job, f: impl Fn(RunSpec) -> RunSpec) -> Job {
    match job {
        Job::Single(spec) => Job::Single(Box::new(f((**spec).clone()))),
        Job::Sweep(specs) => Job::Sweep(specs.iter().cloned().map(f).collect()),
    }
}

/// The untimed correctness variant of a job: trace digest on, every event
/// cross-checked against the lossless-network invariants.
pub fn checked_job(job: &Job) -> Job {
    map_job(job, |s| s.with_trace(64).with_validation(true))
}

/// Tally of runs attempted and runs that failed a check.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Records one attempted run; `problem` says what was wrong with it.
    pub fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("FAILED {what}: {problem}");
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What is wrong with a repetition's outputs, if anything: a flow left
/// incomplete, or counters that differ from the reference row. `digest`
/// also compares the trace digests.
pub fn problem_with(
    bench: &Bench,
    outputs: &[RunOutput],
    reference: &Observed,
    digest: bool,
) -> Option<String> {
    for (spec, out) in bench.specs().iter().zip(outputs) {
        if let Workload::Flows(f) = spec.workload() {
            if out.counters.flows_completed != f.num_flows() as u64 {
                return Some(format!(
                    "{} of {} flows completed",
                    out.counters.flows_completed,
                    f.num_flows()
                ));
            }
        }
    }
    let got = Observed::fold(outputs);
    let same = if digest {
        got == *reference
    } else {
        got.same_counters(reference)
    };
    (!same).then(|| format!("outputs {got:?} differ from the reference {reference:?}"))
}

/// Simulated nanoseconds a run covered: its horizon, or for a run of
/// closed-loop flows (which ends when they complete) the completion time
/// of the last one.
fn simulated_ns(spec: &RunSpec, out: &RunOutput) -> f64 {
    match (spec.workload(), out.fct) {
        (Workload::Flows(_), Some(fct)) => fct.max_ns,
        _ => spec.horizon().as_ns_f64(),
    }
}

/// Simulated: delivered bytes / simulated nanoseconds, averaged over the
/// repetition's runs.
pub fn sim_throughput(bench: &Bench, outputs: &[RunOutput]) -> f64 {
    let per_run = bench
        .specs()
        .iter()
        .zip(outputs)
        .map(|(spec, out)| out.counters.delivered_bytes as f64 / simulated_ns(spec, out));
    per_run.sum::<f64>() / outputs.len() as f64
}

/// Simulated: 99th-percentile flow completion time in microseconds (0 on
/// workloads without flows).
pub fn sim_fct_p99_us(outputs: &[RunOutput]) -> f64 {
    outputs
        .iter()
        .find_map(|o| o.fct)
        .map_or(0.0, |f| f.p99_ns / 1000.0)
}

/// Simulated: RECN / VOQnet mean throughput inside the hotspot window
/// under deterministic routing — the paper's headline "RECN tracks
/// VOQnet" (0 on workloads that do not run both).
pub fn sim_recn_over_voqnet(bench: &Bench, outputs: &[RunOutput]) -> f64 {
    let Some((from, to)) = bench.hot_window else {
        return 0.0;
    };
    let window_mean = |scheme: &str| {
        bench
            .specs()
            .iter()
            .zip(outputs)
            .find(|(spec, _)| !spec.routing().is_adaptive() && spec.scheme().name() == scheme)
            .map(|(_, out)| {
                metrics::report::window_stats(&out.throughput, from.as_us_f64(), to.as_us_f64()).0
            })
    };
    match (window_mean("RECN"), window_mean("VOQnet")) {
        (Some(recn), Some(voqnet)) if voqnet > 0.0 => recn / voqnet,
        _ => 0.0,
    }
}

/// The same job with nothing to simulate: what is left is building the
/// network, priming the queue and collecting the output.
pub fn setup_job(job: &Job) -> Job {
    map_job(job, |s| s.with_horizon(Picos::ZERO))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
