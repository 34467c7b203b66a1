//! The full set: every workload, both passes, one child process each, run
//! one after the other so nothing competes with the workload being timed
//! (the sweep's two workers are the only threads ever started).

use std::process::{Command, Stdio};

use crate::json::{field_num, field_str, metric_value};
use crate::workloads::NAMES;

/// `BENCHMARK.json` at the root of the checkout this binary was built
/// from; it keeps one metric per line.
fn manifest() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(name, unit, bound)` of every metric `BENCHMARK.json` declares, in
/// file order; per-layer metrics have no bound.
fn declared(manifest: &str) -> Vec<(String, String, Option<f64>)> {
    manifest
        .lines()
        .filter_map(|l| {
            let unit = field_str(l, "unit")?;
            Some((
                field_str(l, "name")?.to_owned(),
                unit.to_owned(),
                field_num(l, "bound"),
            ))
        })
        .collect()
}

/// Runs one pass of one workload in a child process; returns its result
/// line, or `None` if the child failed.
fn child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this binary");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child benchmark process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?.to_owned();
    (output.status.success() && line.contains("\"correct\": true")).then_some(line)
}

/// One full set: `results[workload] = (end-to-end line, per-layer line)`.
fn one_set(seed: u64, seconds: f64) -> Option<Vec<(String, String)>> {
    NAMES
        .iter()
        .map(|name| {
            Some((
                child(name, seed, seconds, 0)?,
                child(name, seed, seconds, 1)?,
            ))
        })
        .collect()
}

fn print_set(set: &[(String, String)], metrics: &[(String, String, Option<f64>)]) {
    for (name, (e2e, layers)) in NAMES.iter().zip(set) {
        println!("## {name}");
        for (metric, unit, bound) in metrics {
            let line = if bound.is_some() { e2e } else { layers };
            if let Some(value) = metric_value(line, metric) {
                println!("{metric:<34} {value:>18.6} {unit}");
            }
        }
        println!();
    }
}

/// Runs the suite; returns the process exit code.
pub fn run(seed: u64, seconds: f64, twice: bool) -> i32 {
    let manifest = manifest();
    let metrics = declared(&manifest);
    let Some(first) = one_set(seed, seconds) else {
        eprintln!("a workload failed; see above");
        return 1;
    };
    print_set(&first, &metrics);
    let lines: Vec<String> = first
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let path = crate::out_dir().join("suite.jsonl");
    std::fs::create_dir_all(crate::out_dir()).expect("create benchmark/out");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write the suite results");
    eprintln!("wrote {}", path.display());
    if !twice {
        return 0;
    }

    let Some(second) = one_set(seed, seconds) else {
        eprintln!("a workload failed in the second set; see above");
        return 1;
    };
    print_set(&second, &metrics);
    let mut disagreements = 0;
    println!("## second set against the first");
    for (name, ((a, _), (b, _))) in NAMES.iter().zip(first.iter().zip(&second)) {
        for (metric, _, bound) in &metrics {
            let (Some(bound), Some(x), Some(y)) =
                (bound, metric_value(a, metric), metric_value(b, metric))
            else {
                continue;
            };
            let change = (y - x) / x;
            let ok = change.abs() <= *bound;
            println!(
                "{name:<18} {metric:<26} {x:>14.6} -> {y:>14.6}  {:+7.2}% (bound {:.0}%) {}",
                change * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREES" }
            );
            disagreements += u32::from(!ok);
        }
    }
    if disagreements > 0 {
        eprintln!("{disagreements} end-to-end metrics differ by more than their bound");
        return 1;
    }
    0
}
