//! Standalone benchmark harness for the RECN reproduction.
//!
//! ```text
//! recn-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! recn-benchmark --suite [--twice] [--seed N] [--seconds S]
//! recn-benchmark --pin > benchmark/expected.json
//! ```
//!
//! * `--workload` runs one workload in this process (clean allocator state,
//!   its own `VmHWM`) and prints one JSON result line last on stdout:
//!   the end-to-end metrics with `--trace 0`, the per-layer metrics with
//!   `--trace 1`. This is the command `BENCHMARK.json` names.
//! * `--suite` runs every workload, both passes, one child process each,
//!   one after the other, and prints every metric by name with its unit.
//!   `--twice` does it again and fails unless every end-to-end metric of
//!   the two sets agrees within its own bound.
//! * `--pin` prints the `expected.json` rows for the two pinned seeds.
//!
//! See `README.md` beside this package for the metric and workload tables.

mod e2e;
mod json;
mod layers;
mod micro;
mod observed;
mod run;
mod suite;
mod traced;
mod workloads;

use std::path::PathBuf;

use json::Metric;
use run::Gate;

/// The pinned model-level outputs (see `observed.rs`).
pub const EXPECTED: &str = include_str!("../expected.json");

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a style fold step over a 64-bit word.
pub fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x100_0000_01b3)
}

/// `benchmark/out` in the checkout this binary was built from: the only
/// place the benchmark writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Prints the result line and exits: 0 when every run passed its checks,
/// 1 otherwise.
pub fn finish(gate: &Gate, metrics: &[Metric]) -> ! {
    for m in metrics {
        eprintln!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        json::result_line(gate.attempted, gate.failed, metrics)
    );
    std::process::exit(if gate.failed == 0 { 0 } else { 1 });
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    suite: bool,
    twice: bool,
    pin: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: recn-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      recn-benchmark --suite [--twice] [--seed N] [--seconds S]\n\
         \x20      recn-benchmark --pin\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        suite: false,
        twice: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--suite" => args.suite = true,
            "--twice" => args.twice = true,
            "--pin" => args.pin = true,
            _ => usage(),
        }
    }
    args
}

/// Prints the `expected.json` document: one untimed, traced and validated
/// run per workload and pinned seed.
fn pin() {
    println!("{{");
    println!("  \"schema\": \"recn-benchmark/expected/v1\",");
    println!("  \"rows\": [");
    let seeds = [workloads::DEFAULT_SEED, workloads::HELD_OUT_SEED];
    let total = workloads::NAMES.len() * seeds.len();
    let mut done = 0;
    for name in workloads::NAMES {
        for seed in seeds {
            let bench = workloads::build(name, seed).expect("a listed workload");
            let rep = run::run_job(&run::checked_job(&bench.job))
                .unwrap_or_else(|panic| panic!("{name} seed {seed}: {panic}"));
            done += 1;
            let sep = if done == total { "" } else { "," };
            let row = observed::Observed::fold(&rep.outputs).render_row(name, seed);
            println!("    {row}{sep}");
        }
    }
    println!("  ]\n}}");
}

fn main() {
    let args = parse_args();
    if args.pin {
        return pin();
    }
    if args.suite {
        std::process::exit(suite::run(args.seed, args.seconds, args.twice));
    }
    let Some(name) = args.workload else { usage() };
    let Some(bench) = workloads::build(&name, args.seed) else {
        eprintln!("unknown workload {name:?}");
        usage();
    };
    eprintln!(
        "{name}: seed {}, {} s, {} pass, {} hardware threads",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "end-to-end" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut gate = Gate::default();
    let metrics = if args.trace {
        layers::run(&bench, args.seed, args.seconds, &mut gate)
    } else {
        e2e::run(&bench, args.seed, args.seconds, &mut gate)
    };
    finish(&gate, &metrics);
}
