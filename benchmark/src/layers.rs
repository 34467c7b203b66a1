//! The traced pass (`--trace 1`): where a run's host time goes, layer by
//! layer (the layers are the crates), plus the per-layer micro-kernels.
//!
//! Everything here is measured from the benchmark's own files through
//! public API; spans inside the program are a later change.

use std::time::Instant;

use experiments::{run_one, RunCache};

use crate::json::Metric;
use crate::micro::{self, Micro};
use crate::observed::{pinned, Observed};
use crate::run::{median, problem_with, run_job, sim_fct_p99_us, sim_recn_over_voqnet, Gate, Rep};
use crate::traced::{is_hot, render_trace, run_loop, LoopRun, Watch, KINDS};
use crate::workloads::Bench;
use crate::{fnv, FNV_OFFSET};

/// What is wrong with a pass of the harness-owned loop, if anything.
/// A pass without the probe has no SAQ peaks or FCTs to compare.
fn loop_problem(pass: &LoopRun, watch: Watch, reference: &Observed) -> Option<String> {
    let got = &pass.observed;
    let same = match watch {
        Watch::ProbeAndDigest => got == reference,
        Watch::Probe => got.same_counters(reference),
        Watch::CounterOnly => {
            got.delivered_packets == reference.delivered_packets
                && got.delivered_bytes == reference.delivered_bytes
                && got.latency_mean_ns == reference.latency_mean_ns
        }
    };
    (!same).then(|| format!("loop outputs {got:?} differ from run_one's {reference:?}"))
}

/// Stores and reloads the repetition's outputs through a `RunCache` in a
/// scratch directory until each side has run for 0.2 s; returns
/// `(store, load)` in milliseconds per entry.
fn cache_round_trip(bench: &Bench, rep: &Rep, gate: &mut Gate) -> (f64, f64) {
    let dir = crate::out_dir().join(format!("cache-{}", std::process::id()));
    let cache = RunCache::new(&dir);
    let (mut store_s, mut load_s, mut entries) = (0.0, 0.0, 0u64);
    let mut problem = None;
    while store_s < 0.2 || load_s < 0.2 {
        for (spec, out) in bench.specs().iter().zip(&rep.outputs) {
            let t0 = Instant::now();
            let stored = cache.store(spec, out);
            let t1 = Instant::now();
            let loaded = cache.load(spec);
            load_s += t1.elapsed().as_secs_f64();
            store_s += (t1 - t0).as_secs_f64();
            entries += 1;
            if let Err(e) = stored {
                problem = Some(format!("cache store: {e}"));
            }
            if loaded.map(|l| Observed::of(&l)) != Some(Observed::of(out)) {
                problem = Some("cache load returned a different output".to_owned());
            }
        }
        if problem.is_some() {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    gate.record("cache round trip", problem);
    (
        store_s * 1e3 / entries as f64,
        load_s * 1e3 / entries as f64,
    )
}

/// Host microseconds per `RunSpec::spec_hash` over the workload's specs.
fn spec_hash_us(bench: &Bench) -> f64 {
    let started = Instant::now();
    let mut hashes = 0u64;
    let mut sum = FNV_OFFSET;
    while started.elapsed().as_secs_f64() < 0.2 {
        for spec in bench.specs() {
            sum = fnv(sum, std::hint::black_box(spec).spec_hash());
            hashes += 1;
        }
    }
    assert_ne!(sum, FNV_OFFSET, "spec hashes folded into the checksum");
    started.elapsed().as_secs_f64() * 1e6 / hashes as f64
}

/// Runs the traced pass and returns its metrics.
pub fn run(bench: &Bench, seed: u64, seconds: f64, gate: &mut Gate) -> Vec<Metric> {
    // The first run of a fresh process pays for first-touching its memory;
    // reported on its own because it swings with the machine's state.
    let first = run_job(&bench.job).unwrap_or_else(|panic| {
        gate.record("first run", Some(panic));
        crate::finish(gate, &[]);
    });
    let job_reference =
        pinned(crate::EXPECTED, bench.name, seed).unwrap_or_else(|| Observed::fold(&first.outputs));
    gate.record(
        "first run",
        problem_with(bench, &first.outputs, &job_reference, false),
    );
    // A second, warm repetition for the share of the call spent in the
    // event loops (and the sweep pool's efficiency).
    let warm = run_job(&bench.job).unwrap_or_else(|panic| {
        gate.record("warm run", Some(panic));
        crate::finish(gate, &[]);
    });
    gate.record(
        "warm run",
        problem_with(bench, &warm.outputs, &job_reference, false),
    );

    // The traced spec under run_one with its digest: what the
    // harness-owned loop has to reproduce.
    let spec = bench.traced_spec();
    eprintln!("tracing {}", spec.label());
    let reference = Observed::of(&run_one(&spec.clone().with_trace(64)));
    let digest_pass = run_loop(bench, spec, Watch::ProbeAndDigest, false);
    gate.record(
        "harness loop with digest",
        loop_problem(&digest_pass, Watch::ProbeAndDigest, &reference),
    );

    // Rounds of: run_one, the bare loop, the loop with clocks, the loop
    // without the probe. Medians over the rounds.
    let (mut collect, mut bare, mut no_probe) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced: Vec<LoopRun> = Vec::new();
    let mut estimate = 0u64;
    let started = Instant::now();
    // Another round starts only if half of it still fits the budget.
    while traced.is_empty()
        || started.elapsed().as_secs_f64() * (1.0 + 0.5 / traced.len() as f64) < seconds
    {
        let t = Instant::now();
        let out = run_one(spec);
        // The run's own timer covers priming and the event loop; the rest
        // of the call is construction, collection and drop.
        collect.push(t.elapsed().as_secs_f64() - out.wall_secs);
        estimate = out.peak_bytes_estimate;
        gate.record(
            "run_one of the traced spec",
            (!Observed::of(&out).same_counters(&reference))
                .then(|| "counters differ from the traced reference".to_owned()),
        );
        for (watch, clocks) in [
            (Watch::Probe, false),
            (Watch::Probe, true),
            (Watch::CounterOnly, false),
        ] {
            let pass = run_loop(bench, spec, watch, clocks);
            gate.record("harness loop", loop_problem(&pass, watch, &reference));
            match (watch, clocks) {
                (Watch::Probe, true) => traced.push(pass),
                (Watch::Probe, false) => bare.push(pass.wall_s),
                _ => no_probe.push(pass.wall_s),
            }
        }
    }
    // Report the traced pass with the median wall time, whole, so that
    // pop + handlers + loop self time add up to its wall by construction.
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let t = &traced[traced.len() / 2];
    let bare_s = median(&bare);
    let overhead_pct = (t.wall_s - bare_s) / bare_s * 100.0;
    let trace_path = crate::out_dir().join(format!("trace_{}.json", bench.name));
    std::fs::create_dir_all(crate::out_dir()).expect("create benchmark/out");
    std::fs::write(
        &trace_path,
        render_trace(bench, seed, t, bare_s, overhead_pct),
    )
    .expect("write the trace file");
    eprintln!("wrote {}", trace_path.display());

    let secs = |ns: u64| ns as f64 / 1e9;
    let pop_s = secs(t.slices.iter().map(|s| s.pop_ns).sum());
    let kind_totals: Vec<(u64, u64)> = (0..KINDS.len())
        .map(|k| {
            t.slices.iter().fold((0, 0), |acc, s| {
                (acc.0 + s.kinds[k].0, acc.1 + s.kinds[k].1)
            })
        })
        .collect();
    let handlers_s: f64 = kind_totals.iter().map(|k| secs(k.1)).sum();
    let phase_ns_per_event = |hot: bool| {
        let (ns, events) = t
            .slices
            .iter()
            .enumerate()
            .filter(|(i, _)| is_hot(bench, *i) == hot)
            .fold((0u64, 0u64), |acc, (_, s)| {
                (acc.0 + s.wall_ns, acc.1 + s.events())
            });
        if events == 0 {
            0.0
        } else {
            ns as f64 / events as f64
        }
    };

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric::new(name, value, unit));
    };
    let count = |v: u64| v as f64;

    put("trace_overhead_pct", overhead_pct, "%");
    put("simcore.events", count(t.events), "count");
    put("simcore.pushes", count(t.pushes), "count");
    put("simcore.peak_depth", t.peak_depth as f64, "count");
    put("simcore.pop_s", pop_s, "s");
    put("simcore.loop_self_s", t.wall_s - handlers_s - pop_s, "s");
    for (name, (n, ns)) in KINDS.iter().zip(&kind_totals) {
        put(&format!("fabric.{name}_n"), count(*n), "count");
        put(&format!("fabric.{name}_s"), secs(*ns), "s");
    }
    put("fabric.quiet_ns_per_event", phase_ns_per_event(false), "ns");
    put("fabric.hot_ns_per_event", phase_ns_per_event(true), "ns");
    put("fabric.hops", count(t.hooks.hops.get()), "count");
    put("fabric.enqueues", count(t.hooks.enqueues.get()), "count");
    put("fabric.dequeues", count(t.hooks.dequeues.get()), "count");
    put(
        "fabric.credit_changes",
        count(t.hooks.credit_changes.get()),
        "count",
    );
    put(
        "fabric.drop_attempts",
        count(t.hooks.drop_attempts.get()),
        "count",
    );
    put(
        "fabric.retransmits",
        count(t.hooks.retransmits.get()),
        "count",
    );
    let c = &t.counters;
    put("fabric.timeouts", count(c.transport_timeouts), "count");
    put("fabric.arn_hot", count(c.arn_hot_notifications), "count");
    put("recn.saq_allocs", count(c.saq_allocs), "count");
    put("recn.saq_deallocs", count(c.saq_deallocs), "count");
    put("recn.notifications", count(c.recn_notifications), "count");
    put("recn.rejects", count(c.recn_rejects), "count");
    put("recn.xoffs", count(c.xoffs), "count");
    let peaks = t.observed.saq_peaks;
    put("recn.peak_saqs_port", peaks.0.max(peaks.1) as f64, "count");
    put("recn.peak_saqs_total", peaks.2 as f64, "count");
    // Every workload here sends one-packet messages, so the messages the
    // sources offered are the packets admitted plus the messages refused.
    put(
        "traffic.messages",
        count(c.injected_packets + c.source_dropped_messages),
        "count",
    );
    put("metrics.probe_cost_s", bare_s - median(&no_probe), "s");
    put("experiments.collect_s", median(&collect), "s");
    put("experiments.first_run_s", first.wall_s, "s");
    put("experiments.peak_bytes_estimate", count(estimate), "B");
    put(
        "experiments.sweep_efficiency",
        warm.efficiency(&bench.job),
        "ratio",
    );
    put("experiments.spec_hash_us", spec_hash_us(bench), "us");
    let (store_ms, load_ms) = cache_round_trip(bench, &warm, gate);
    put("experiments.cache_store_ms", store_ms, "ms");
    put("experiments.cache_load_ms", load_ms, "ms");

    let mut kernel = |name: &str, k: Micro| {
        eprintln!("micro {name}: {} operations", k.ops);
        m.push(Metric::new(name, k.ns_per_op, "ns"));
    };
    kernel("simcore.hold_ns_1k", micro::hold(1_000, seed));
    kernel("simcore.hold_ns_10k", micro::hold(10_000, seed));
    kernel("simcore.hold_ns_100k", micro::hold(100_000, seed));
    kernel("fabric.queueset_ns_per_op", micro::queueset());
    kernel("fabric.arn_select_ns", micro::arn_select());
    kernel("recn.cam_lookup_ns", micro::cam_lookup());
    kernel("recn.port_enq_deq_ns", micro::port_enq_deq());
    let (route, next_hop) = micro::route_walk();
    kernel("topology.route_ns", route);
    kernel("topology.next_hop_ns", next_hop);
    kernel("traffic.source_ns_per_msg", micro::sources(seed));
    kernel("metrics.probe_ns_per_call", micro::probe());
    let build = micro::topology_build();
    eprintln!("micro topology.build_s: {} operations", build.ops);
    m.push(Metric::new("topology.build_s", build.ns_per_op / 1e9, "s"));

    // The model-level metrics that exist on one workload only, and the
    // share of this pass's runs that failed a check.
    m.push(Metric::new(
        "sim_fct_p99_us",
        sim_fct_p99_us(&first.outputs),
        "us",
    ));
    m.push(Metric::new(
        "sim_recn_over_voqnet",
        sim_recn_over_voqnet(bench, &first.outputs),
        "ratio",
    ));
    m.push(Metric::new("failed_share", gate.failed_share(), "ratio"));
    m
}
