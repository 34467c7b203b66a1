//! Criterion-free simulator-core benchmark: the repo's perf trajectory.
//!
//! Runs the corner-case hotspot, uniform-random and incast workloads per
//! scheme plus the pure routing walks, and writes `BENCH_simcore.json` in a
//! stable, flat, line-oriented schema (`bench_core/v2`): one JSON object
//! per kernel with its event total, peak event-queue depth, wall seconds
//! and events/sec.
//!
//! ```text
//! bench_core [--quick] [--only SUBSTR] [--repeat N] [--out FILE]
//!            [--check BASELINE] [--tolerance F]
//! ```
//!
//! * `--quick`      CI subset (a few 64-host kernels; minutes not tens).
//!   `--small` is the deprecated spelling and still works.
//! * `--only S`     keep only kernels whose name contains `S`.
//! * `--repeat N`   run each kernel N times, keep the fastest wall time
//!   (default 1; the minimum is the least noisy estimator on a busy
//!   machine).
//! * `--out FILE`   where to write the JSON (default `BENCH_simcore.json`).
//! * `--check F`    compare against a baseline JSON (same schema); exit
//!   nonzero if any kernel's events/sec regressed more than the tolerance
//!   (default 0.25) below the baseline, or if any simulation kernel's
//!   deterministic event total differs from the baseline's at all — count
//!   drift is a behavior change, not noise.
//! * `--tolerance F` fractional allowed regression for `--check`.
//!
//! Before the first timed row one fixed sub-second kernel (`hotspot64/1Q`,
//! whatever `--only` selects) runs once, discarded: the run that first
//! touches the event queue's memory in a process reads 8–50 % slow, so row
//! order would otherwise be measured.

use bench::BENCH_TIME_DIV;
use experiments::opts::{is_help, parse_flags, render_help, FlagDef, Value};
use experiments::runner::{run_one, RunOutput, SchemeSet, Workload};
use experiments::sweep::{events_per_sec, RunSpec};
use fabric::ArnTable;
use simcore::Picos;
use topology::{FatTreeParams, HostId, MinParams, PortId, Topology};

/// What a kernel measures.
enum KernelKind {
    /// A full simulation run.
    Sim(Box<RunSpec>),
    /// Pure route computation + wiring walk on the 8-ary 3-tree (no
    /// simulator): all-pairs `route()`/`next_hop` with an FNV checksum so
    /// the work cannot be optimized away. `events` = routed pairs. See
    /// [`RouteMode`] for the three up-phase selector variants.
    RouteFatTree { passes: u32, mode: RouteMode },
}

/// Which up-port selector the routing kernel exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RouteMode {
    /// Fixed `route()` digits, no rebinding.
    Deterministic,
    /// `route_adaptive()` with every rebindable up-turn bound from an LCG
    /// pick over the switch's up-ports — the cost of the late-bound
    /// up-phase relative to the fixed one.
    Adaptive,
    /// `route_adaptive()` with the bind preceded by an [`ArnTable`] scan
    /// of every candidate up-port (pre-seeded with a deterministic mix of
    /// live and expired notifications), mimicking `select_up_port`'s
    /// lexicographic `(live notifications, tie-break)` read under
    /// `RoutingPolicy::ArnUp` — the table-read overhead on top of
    /// adaptive.
    Arn,
}

/// One cell of the benchmark matrix.
struct Kernel {
    /// Stable identifier, e.g. `hotspot64/RECN` (the `--check` join key).
    name: String,
    kind: KernelKind,
    workload: &'static str,
    hosts: u32,
}

/// Measurements of one kernel.
struct Sample {
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    peak_depth: usize,
}

fn sample(out: &RunOutput) -> Sample {
    Sample {
        wall_secs: out.wall_secs,
        events: out.events,
        // A degenerate wall clock reports as rate 0, never infinity.
        events_per_sec: events_per_sec(out).unwrap_or(0.0),
        peak_depth: out.peak_event_queue_depth,
    }
}

/// Routes every (src, dst) pair of the 512-host fat tree `passes` times,
/// walking each route hop by hop through the wiring and folding every turn
/// into an FNV-1a checksum (verified, so the walk cannot be elided). In
/// `Adaptive` mode the route's rebindable up-turns are bound mid-walk from
/// a deterministic LCG pick over the current switch's up-ports, mimicking
/// what a switch does under `RoutingPolicy::AdaptiveUp`; `Arn` mode
/// additionally reads every candidate's live notification count from a
/// pre-seeded per-switch [`ArnTable`] and binds the lexicographic minimum
/// `(live, LCG tie-break)`, mimicking `RoutingPolicy::ArnUp`.
fn run_route_fattree(passes: u32, mode: RouteMode) -> Sample {
    let topo = Topology::new(FatTreeParams::ft_512());
    let hosts = topo.num_hosts();
    // Pre-seeded ARN tables: roughly a third of the slots carry an early
    // (aged-out by mid-walk) notification and a seventh a late one, so the
    // scan reads a deterministic mix of live, expired and empty entries.
    let tables: Vec<ArnTable> = topo
        .switches()
        .map(|sw| {
            let ports = topo.up_ports(sw);
            let mut t = ArnTable::new((ports.end - ports.start) as usize);
            for slot in 0..t.len() {
                if (sw.index() + slot).is_multiple_of(3) {
                    t.note_hot(slot, Picos::from_us(1));
                }
                if (sw.index() + slot).is_multiple_of(7) {
                    t.note_hot(slot, Picos::from_us(30));
                }
            }
            t
        })
        .collect();
    let start = std::time::Instant::now();
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut rng = 0x5eed_c0de_u64;
    let mut pairs = 0u64;
    for _ in 0..passes {
        for s in 0..hosts {
            for d in 0..hosts {
                // The read clock sweeps 10..50 µs per pair, crossing the
                // 20 µs TTL of both seeding stamps.
                let now = Picos::from_us(10 + (pairs % 40));
                let mut route = if mode == RouteMode::Deterministic {
                    topo.route(HostId::new(s), HostId::new(d))
                } else {
                    topo.route_adaptive(HostId::new(s), HostId::new(d))
                };
                let (mut sw, _) = topo.host_ingress(HostId::new(s));
                loop {
                    if route.next_turn_rebindable() {
                        let ports = topo.up_ports(sw);
                        let pick = if mode == RouteMode::Arn {
                            let table = &tables[sw.index()];
                            let mut best = None;
                            for port in ports.clone() {
                                let slot = (port - ports.start) as usize;
                                let live = table.live_count(slot, now);
                                rng = rng
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                let tie = rng >> 33;
                                if best.is_none_or(|(bl, bt, _)| (live, tie) < (bl, bt)) {
                                    best = Some((live, tie, port));
                                }
                            }
                            let (live, _, port) = best.expect("switch has up-ports");
                            checksum = (checksum ^ live as u64).wrapping_mul(0x100_0000_01b3);
                            port
                        } else {
                            rng = rng
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let span = (ports.end - ports.start) as u64;
                            ports.start + ((rng >> 33) % span) as u32
                        };
                        route.bind_next_turn(pick as u8);
                    }
                    let turn = route.advance();
                    checksum = (checksum ^ turn as u64).wrapping_mul(0x100_0000_01b3);
                    match topo.next_hop(sw, PortId::new(turn as u32)) {
                        Ok((nsw, _)) => sw = nsw,
                        Err(h) => {
                            assert_eq!(h.index(), d as usize, "misrouted pair");
                            break;
                        }
                    }
                }
                pairs += 1;
            }
        }
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    // One pass over 512² pairs always folds the same turns, whatever the
    // pass count — a drifting checksum means the routing itself changed.
    assert_ne!(checksum, 0, "checksum must consume every turn");
    Sample {
        wall_secs,
        events: pairs,
        events_per_sec: pairs as f64 / wall_secs,
        peak_depth: 0,
    }
}

fn uniform_spec(params: MinParams, scheme: fabric::SchemeKind) -> RunSpec {
    RunSpec::new(
        params,
        scheme,
        Workload::Uniform {
            load: 0.6,
            msg_bytes: 64,
            seed: 0xBE7C,
        },
    )
    .with_horizon(Picos::from_us(1600 / BENCH_TIME_DIV))
    .with_bin(Picos::from_us(1))
    .with_label("uniform")
}

/// The benchmark matrix. `small` restricts to the CI smoke subset.
fn kernels(small: bool) -> Vec<Kernel> {
    let mut v = Vec::new();
    let schemes = if small {
        vec![
            fabric::SchemeKind::OneQ,
            fabric::SchemeKind::Recn(bench::bench_recn_config()),
        ]
    } else {
        SchemeSet::All.schemes_scaled(BENCH_TIME_DIV)
    };
    for scheme in &schemes {
        v.push(Kernel {
            name: format!("hotspot64/{}", scheme.name()),
            kind: KernelKind::Sim(Box::new(bench::corner_spec(2, *scheme))),
            workload: "corner_hotspot",
            hosts: 64,
        });
    }
    let uniform_schemes: &[fabric::SchemeKind] = if small { &schemes[..1] } else { &schemes[..] };
    for scheme in uniform_schemes {
        v.push(Kernel {
            name: format!("uniform64/{}", scheme.name()),
            kind: KernelKind::Sim(Box::new(uniform_spec(MinParams::paper_64(), *scheme))),
            workload: "uniform",
            hosts: 64,
        });
    }
    // Closed-loop transport kernel (both modes): incast64 under go-back-N
    // on RECN rates the ack/timer machinery on top of forwarding.
    v.push(Kernel {
        name: "incast64/RECN".to_owned(),
        kind: KernelKind::Sim(Box::new(bench::incast_spec(fabric::SchemeKind::Recn(
            bench::bench_recn_config(),
        )))),
        workload: "incast_flows",
        hosts: 64,
    });
    if !small {
        for scheme in [
            fabric::SchemeKind::VoqSw,
            fabric::SchemeKind::Recn(bench::bench_recn_config()),
        ] {
            v.push(Kernel {
                name: format!("hotspot256/{}", scheme.name()),
                kind: KernelKind::Sim(Box::new(bench::scale_spec(scheme))),
                workload: "corner_hotspot",
                hosts: 256,
            });
        }
        // The order-of-magnitude rung: ~60M events on the 16-ary 3-tree.
        // RECN only (VOQnet's per-destination queues are the strawman the
        // `recn scale` quantifies analytically) and never in --quick.
        v.push(Kernel {
            name: "hotspot4096/RECN".to_owned(),
            kind: KernelKind::Sim(Box::new(bench::scale4096_spec(fabric::SchemeKind::Recn(
                bench::bench_recn_config(),
            )))),
            workload: "corner_hotspot",
            hosts: 4096,
        });
    }
    // Pure routing-layer kernels (all three selector modes): track the
    // cost of the topology abstraction itself, independent of the
    // simulator, the overhead of the late-bound adaptive up-phase
    // relative to it, and the ARN table-scan overhead on top of that.
    for (mode, name) in [
        (RouteMode::Deterministic, "route_fattree/ft512"),
        (RouteMode::Adaptive, "route_fattree_adaptive/ft512"),
        (RouteMode::Arn, "route_fattree_arn/ft512"),
    ] {
        v.push(Kernel {
            name: name.to_owned(),
            kind: KernelKind::RouteFatTree {
                passes: if small { 4 } else { 16 },
                mode,
            },
            workload: "routing",
            hosts: 512,
        });
    }
    v
}

/// One flat JSON object per kernel, one per line — trivially greppable
/// and parseable without a JSON library (the offline serde is a stub).
fn render(mode: &str, rows: &[(Kernel, Sample)]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"bench_core/v2\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"time_div\": {BENCH_TIME_DIV},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, (k, m)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"hosts\": {}, \
             \"events\": {}, \"peak_event_queue_depth\": {}, \
             \"wall_secs\": {:.4}, \"events_per_sec\": {:.1}}}{sep}\n",
            k.name, k.workload, k.hosts, m.events, m.peak_depth, m.wall_secs, m.events_per_sec,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `"key": <number>` from a flat kernel line.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts `"key": "<string>"` from a flat kernel line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    Some(&rest[..rest.find('"')?])
}

/// One baseline kernel row: the perf floor plus the deterministic event
/// total that `--check` enforces exactly.
struct BaselineRow {
    name: String,
    workload: String,
    events_per_sec: f64,
    events: u64,
}

/// Baseline kernel rows, parsed line-by-line.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    text.lines()
        .filter_map(|l| {
            Some(BaselineRow {
                name: field_str(l, "name")?.to_owned(),
                workload: field_str(l, "workload")?.to_owned(),
                events_per_sec: field_f64(l, "events_per_sec")?,
                events: field_f64(l, "events")? as u64,
            })
        })
        .collect()
}

/// Markdown twin of `render` for CI step summaries: one row per kernel,
/// with baseline-comparison columns when a baseline is loaded.
fn render_markdown(
    mode: &str,
    rows: &[(Kernel, Sample)],
    baseline: Option<&[BaselineRow]>,
) -> String {
    let mut s = format!("### bench_core ({mode})\n\n");
    s.push_str("| kernel | events | ev/s |");
    if baseline.is_some() {
        s.push_str(" baseline ev/s | delta |");
    }
    s.push('\n');
    s.push_str("|:--|--:|--:|");
    if baseline.is_some() {
        s.push_str("--:|--:|");
    }
    s.push('\n');
    for (k, m) in rows {
        s.push_str(&format!(
            "| {} | {} | {:.2e} |",
            k.name, m.events, m.events_per_sec
        ));
        if let Some(base) = baseline {
            match base.iter().find(|b| b.name == k.name) {
                Some(b) if b.events_per_sec > 0.0 => {
                    let delta = (m.events_per_sec - b.events_per_sec) / b.events_per_sec * 100.0;
                    s.push_str(&format!(" {:.2e} | {delta:+.1}% |", b.events_per_sec));
                }
                _ => s.push_str(" - | - |"),
            }
        }
        s.push('\n');
    }
    s
}

/// The flag table (shared parser machinery from `experiments::opts`;
/// `--small` rides along as the deprecated spelling of `--quick`).
const BENCH_FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--quick",
        aliases: &["--small"],
        value: None,
        help: "CI subset (a few 64-host kernels; minutes not tens)",
    },
    FlagDef {
        name: "--only",
        aliases: &[],
        value: Some(Value::Text("SUBSTR", "a substring")),
        help: "keep only kernels whose name contains SUBSTR",
    },
    FlagDef {
        name: "--repeat",
        aliases: &[],
        value: Some(Value::Count("N", "a count")),
        help: "run each kernel N times, keep the fastest (default 1)",
    },
    FlagDef {
        name: "--out",
        aliases: &[],
        value: Some(Value::Text("FILE", "a file")),
        help: "where to write the JSON (default BENCH_simcore.json)",
    },
    FlagDef {
        name: "--check",
        aliases: &[],
        value: Some(Value::Text("BASELINE", "a baseline file")),
        help: "fail if events/sec regressed below BASELINE",
    },
    FlagDef {
        name: "--tolerance",
        aliases: &[],
        value: Some(Value::Text("F", "a fraction")),
        help: "allowed fractional regression for --check (default 0.25)",
    },
    FlagDef {
        name: "--md",
        aliases: &[],
        value: Some(Value::Text("FILE", "a file")),
        help: "append a markdown result table to FILE (e.g. $GITHUB_STEP_SUMMARY)",
    },
];

fn usage_error(e: String) -> ! {
    eprintln!("{e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| is_help(a)) {
        println!("{}", render_help(BENCH_FLAGS));
        return;
    }
    let f = parse_flags(args, BENCH_FLAGS).unwrap_or_else(|e| usage_error(e));
    let small = f.has("--quick");
    let only = f.get("--only");
    let repeat: usize = f
        .num("--repeat")
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or(1);
    let out_path = f.get("--out").unwrap_or("BENCH_simcore.json");
    let check = f.get("--check");
    let tolerance: f64 = f
        .num("--tolerance")
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or(0.25);
    let md = f.get("--md");

    let mode = if small { "small" } else { "full" };
    let mut ks = kernels(small);
    if let Some(pat) = only {
        ks.retain(|k| k.name.contains(pat));
        assert!(!ks.is_empty(), "--only {pat} matches no kernel");
    }
    // Discarded warm-up (see the module docs): a fixed sub-second kernel,
    // whatever `--only` selected.
    run_one(&bench::corner_spec(2, fabric::SchemeKind::OneQ));
    let n = ks.len();
    let mut rows: Vec<(Kernel, Sample)> = Vec::with_capacity(n);
    for (i, k) in ks.into_iter().enumerate() {
        // Serial, best-of-`repeat` wall time: the minimum discards
        // scheduler/dvfs noise spikes.
        let run = || match &k.kind {
            KernelKind::Sim(spec) => sample(&run_one(spec)),
            KernelKind::RouteFatTree { passes, mode } => run_route_fattree(*passes, *mode),
        };
        let mut best = run();
        for _ in 1..repeat {
            let next = run();
            if next.wall_secs < best.wall_secs {
                best = next;
            }
        }
        eprintln!(
            "[{}/{n}] {:<18} {:>10} events  {:>9.2e} ev/s",
            i + 1,
            k.name,
            best.events,
            best.events_per_sec,
        );
        rows.push((k, best));
    }

    let json = render(mode, &rows);
    std::fs::write(out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");

    // Load the baseline before the check so the markdown summary can
    // carry the comparison columns even when the check then fails.
    let baseline: Option<Vec<BaselineRow>> = check.map(|p| {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"));
        parse_baseline(&text)
    });
    if let Some(md_path) = md {
        use std::io::Write as _;
        let table = render_markdown(mode, &rows, baseline.as_deref());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(md_path)
            .unwrap_or_else(|e| panic!("cannot open {md_path}: {e}"));
        f.write_all(table.as_bytes())
            .expect("append markdown table");
        eprintln!("appended markdown table to {md_path}");
    }

    if let Some(baseline) = baseline {
        let mut failures = Vec::new();
        let mut compared = 0;
        for (k, m) in &rows {
            let Some(base) = baseline.iter().find(|b| b.name == k.name) else {
                eprintln!("note: kernel {} not in baseline, skipping", k.name);
                continue;
            };
            compared += 1;
            let floor = base.events_per_sec * (1.0 - tolerance);
            if m.events_per_sec < floor {
                failures.push(format!(
                    "{}: {:.0} events/s < {:.0} (baseline {:.0} - {:.0}% tolerance)",
                    k.name,
                    m.events_per_sec,
                    floor,
                    base.events_per_sec,
                    tolerance * 100.0
                ));
            }
            // Event totals are deterministic, so they compare exactly — an
            // event-count drift is a behavior change, caught here like a
            // perf regression. Routing kernels are exempt: their "events"
            // is a pass count that legitimately differs between --quick
            // and full modes.
            if base.workload == "routing" {
                continue;
            }
            if m.events != base.events {
                failures.push(format!(
                    "{}: {} events != baseline {} (deterministic count drifted)",
                    k.name, m.events, base.events
                ));
            }
        }
        assert!(
            compared > 0,
            "no kernels in common with baseline {}",
            check.unwrap_or_default()
        );
        if failures.is_empty() {
            eprintln!(
                "perf check OK: {compared} kernels within {:.0}% of baseline",
                tolerance * 100.0
            );
        } else {
            eprintln!("perf regression detected:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
