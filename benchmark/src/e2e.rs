//! The end-to-end pass (`--trace 0`): what a user of the library sees.
//! Tracing and validation are off while anything is timed.

use std::time::Instant;

use crate::json::Metric;
use crate::observed::{pinned, Observed};
use crate::run::{
    checked_job, median, problem_with, run_job, setup_job, sim_fct_p99_us, sim_recn_over_voqnet,
    sim_throughput, Gate,
};
use crate::workloads::Bench;

/// Fewest timed repetitions a run reports on, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up calls are batched until a batch takes this long, so the
/// millisecond cases are timed over many calls.
const SETUP_BATCH_SECS: f64 = 0.25;
const SETUP_BATCHES: usize = 5;

/// `VmHWM` of this process in MiB: the most resident memory it held since
/// the mark was last reset.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib / 1024.0
}

/// Resets the kernel's resident-memory high-water mark to what the process
/// holds now, so each repetition's peak can be read on its own. Where the
/// kernel refuses, the readings are the process's running peak instead.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Host seconds of one set-up call, from one batch of calls.
fn setup_batch(bench: &Bench, gate: &mut Gate) -> f64 {
    let job = setup_job(&bench.job);
    let started = Instant::now();
    let mut calls = 0u32;
    while started.elapsed().as_secs_f64() < SETUP_BATCH_SECS {
        if let Err(panic) = run_job(&job) {
            gate.record("set-up call", Some(panic));
        }
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Runs the end-to-end pass and returns its metrics in `BENCHMARK.json`
/// order.
pub fn run(bench: &Bench, seed: u64, seconds: f64, gate: &mut Gate) -> Vec<Metric> {
    // One discarded warm-up: it first-touches the memory the timed
    // repetitions then reuse, and fixes the reference row for seeds that
    // have no pinned one.
    let warm = run_job(&bench.job).unwrap_or_else(|panic| {
        gate.record("warm-up", Some(panic));
        crate::finish(gate, &[]);
    });
    let reference =
        pinned(crate::EXPECTED, bench.name, seed).unwrap_or_else(|| Observed::fold(&warm.outputs));
    gate.record(
        "warm-up",
        problem_with(bench, &warm.outputs, &reference, false),
    );

    // Each repetition's wall time and resident peak. The peak is taken per
    // repetition because which of the sweep's runs overlap, and how soon a
    // worker's freed memory is reused, differs from one to the next.
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut last = warm;
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        match run_job(&bench.job) {
            Ok(rep) => {
                peaks.push(peak_rss_mib());
                gate.record(
                    "timed repetition",
                    problem_with(bench, &rep.outputs, &reference, false),
                );
                walls.push(rep.wall_s);
                last = rep;
            }
            Err(panic) => {
                gate.record("timed repetition", Some(panic));
                crate::finish(gate, &[]);
            }
        }
    }
    let setups: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| setup_batch(bench, gate))
        .collect();

    // The untimed correctness run: every event validated, and the trace
    // digest compared with the pinned one where there is one.
    match run_job(&checked_job(&bench.job)) {
        Ok(rep) => {
            let with_digest = reference.digest.is_some();
            gate.record(
                "validated run",
                problem_with(bench, &rep.outputs, &reference, with_digest),
            );
        }
        Err(panic) => gate.record("validated run", Some(panic)),
    }

    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!("wall_s repetitions: {walls:.4?}");
    eprintln!("peak_rss_mib repetitions: {peaks:.1?}");
    eprintln!(
        "wall_s: n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}",
        sorted.len(),
        sorted[0],
        sorted[sorted.len() / 4],
        median(&sorted),
        sorted[sorted.len() * 3 / 4],
        sorted[sorted.len() - 1],
    );
    eprintln!(
        "sim_fct_p99_us = {} us, sim_recn_over_voqnet = {}, failed_share = {} \
         (reported with --trace 1)",
        sim_fct_p99_us(&last.outputs),
        sim_recn_over_voqnet(bench, &last.outputs),
        gate.failed_share(),
    );
    vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mib", median(&peaks), "MiB"),
        Metric::new(
            "sim_throughput_b_per_ns",
            sim_throughput(bench, &last.outputs),
            "B/ns",
        ),
        Metric::new(
            "sim_latency_mean_ns",
            Observed::fold(&last.outputs).latency_mean_ns,
            "ns",
        ),
    ]
}
