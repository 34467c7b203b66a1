//! `recn serve` — a small batch-serving daemon over the run cache.
//!
//! Watches a spool directory for `*.jsonl` files of canonical run specs
//! (or, with no `--spool`, reads one batch from stdin), schedules every
//! spec across `--jobs` workers through the content-addressed run cache,
//! and streams one JSONL result line per run to stdout: spec hash, cache
//! hit/miss, wall seconds, events and events/sec. Processed spool files
//! are renamed `<name>.done` (`<name>.err` if any line was rejected) so a
//! crash-restarted daemon never re-runs — and never loses — work: results
//! are re-served from the cache byte-identically. A batch whose result
//! lines could not be written (stdout closed or full) keeps its name and
//! ends the command with that error; the next drain serves it again.
//!
//! Each input line is a JSON object:
//!
//! ```text
//! {"spec_v1": "<hex of the canonical spec encoding>", "label": "optional"}
//! ```
//!
//! Produce such lines from any `RunSpec` via `spec.encode_hex()` — or ask
//! the daemon itself for a sample batch with `--demo N`.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use crate::json::{self, parse_json};
use crate::opts::flag::{flag, JOBS};
use crate::opts::{FlagDef, Parsed, Value};
use crate::runner::OUTPUT_SCHEMA_VERSION;
use crate::sweep::{events_per_sec, RunSpec, Sweep, SweepReport};

/// The flag table of `recn serve`.
pub const SERVE_FLAGS: &[FlagDef] = &[
    flag(
        "--spool",
        Some(Value::Text("DIR", "a directory")),
        "watch DIR for *.jsonl spec batches (absent: one batch from stdin)",
    ),
    flag(
        "--cache",
        Some(Value::Text("DIR|none", "a directory (or `none`)")),
        "content-addressed run cache (default results/cache; `none` disables)",
    ),
    JOBS,
    flag(
        "--once",
        None,
        "drain the spool once and exit instead of watching",
    ),
    flag(
        "--poll-ms",
        Some(Value::Text("MS", "a duration in milliseconds")),
        "spool polling interval (default 500)",
    ),
    flag(
        "--demo",
        Some(Value::Text("N", "a count")),
        "print N sample spec lines (for smoke tests) and exit",
    ),
];

struct Args {
    spool: Option<PathBuf>,
    cache: Option<PathBuf>,
    jobs: usize,
    once: bool,
    poll_ms: u64,
    demo: Option<usize>,
}

fn read_args(f: &Parsed<'_>) -> Result<Args, String> {
    Ok(Args {
        spool: f.get("--spool").map(PathBuf::from),
        cache: f.dir_or("--cache", Some("results/cache")),
        jobs: f.num("--jobs")?.unwrap_or(0),
        once: f.has("--once"),
        poll_ms: f.num("--poll-ms")?.unwrap_or(500),
        demo: f.num("--demo")?,
    })
}

/// Parses one spool line into a spec. Lines are JSON objects with a
/// `spec_v1` hex field and an optional `label` override.
fn parse_line(line: &str) -> Result<RunSpec, String> {
    let j = parse_json(line)?;
    let hex = j
        .get("spec_v1")
        .and_then(|v| v.str())
        .ok_or("missing \"spec_v1\" field")?;
    let spec = RunSpec::decode_hex(hex).map_err(|e| format!("bad spec_v1: {e}"))?;
    Ok(match j.get("label").and_then(|v| v.str()) {
        Some(label) => spec.with_label(label),
        None => spec,
    })
}

/// Runs a batch of specs through the (optionally cached) sweep and writes
/// one JSONL result line per run. `Err` is why the lines could not be
/// written; the runs themselves are in the cache by then.
fn serve_batch(specs: Vec<RunSpec>, args: &Args, out: &mut impl Write) -> Result<(), String> {
    if specs.is_empty() {
        return Ok(());
    }
    let hashes: Vec<u64> = specs.iter().map(|s| s.spec_hash()).collect();
    let mut sweep = Sweep::new(specs).jobs(args.jobs).progress(false);
    if let Some(dir) = &args.cache {
        sweep = sweep.cache(dir.clone());
    }
    let report: SweepReport = sweep.run_report();
    for (i, run) in report.outputs.iter().enumerate() {
        let rate = json::opt(events_per_sec(run));
        let line = format!(
            "{{\"spec_hash\": \"{:016x}\", \"label\": {}, \"scheme\": {}, \"cache\": {}, \
             \"delivered_packets\": {}, \"wall_secs\": {}, \"events\": {}, \
             \"events_per_sec\": {rate}, \"schema_version\": {}}}",
            hashes[i],
            json::string(report.specs[i].label()),
            json::string(run.scheme),
            json::string(report.cache[i].name()),
            run.counters.delivered_packets,
            run.wall_secs,
            run.events,
            OUTPUT_SCHEMA_VERSION,
        );
        writeln!(out, "{line}").map_err(cannot_write)?;
    }
    out.flush().map_err(cannot_write)?;
    eprintln!(
        "serve: batch of {} done, {} cache hits, {:.2}s",
        report.outputs.len(),
        report.cache_hits(),
        report.total_wall_secs,
    );
    Ok(())
}

fn cannot_write(e: std::io::Error) -> String {
    format!("cannot write results: {e}")
}

/// Reads a batch (a spool file, or stdin) as `name`: every non-blank line
/// must be readable and parse, or the whole batch is rejected with
/// `name:line: why` — a half-run batch would be confusing.
fn read_batch(name: &str, input: impl BufRead) -> Result<Vec<RunSpec>, String> {
    let mut specs = Vec::new();
    for (no, line) in input.lines().enumerate() {
        let at = |e: String| format!("{name}:{}: {e}", no + 1);
        let line = line.map_err(|e| at(e.to_string()))?;
        if !line.trim().is_empty() {
            specs.push(parse_line(&line).map_err(at)?);
        }
    }
    Ok(specs)
}

/// One spool scan: process every `*.jsonl` file in name order. `Err` is a
/// batch whose results could not be written; it is not renamed.
fn drain_spool(dir: &Path, args: &Args, out: &mut impl Write) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("serve: cannot read spool {}", dir.display());
        return Ok(());
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    for path in files {
        let name = path.display().to_string();
        let batch = std::fs::File::open(&path)
            .map_err(|e| format!("read {name}: {e}"))
            .and_then(|f| read_batch(&name, std::io::BufReader::new(f)));
        match batch {
            Ok(specs) => {
                eprintln!("serve: {name} ({} specs)", specs.len());
                serve_batch(specs, args, out)?;
                let _ = std::fs::rename(&path, path.with_extension("jsonl.done"));
            }
            Err(e) => {
                eprintln!("serve: rejecting batch: {e}");
                let _ = std::fs::rename(&path, path.with_extension("jsonl.err"));
            }
        }
    }
    Ok(())
}

/// The `--demo` batch: one quick corner-case spec per scheme, small
/// enough for CI smoke tests (milliseconds each).
fn demo_lines(n: usize) -> String {
    use crate::runner::SchemeSet;
    use simcore::Picos;
    use topology::MinParams;
    use traffic::corner::CornerCase;

    let corner = CornerCase::case2_64().shrunk(40);
    let mut s = String::new();
    for (i, scheme) in SchemeSet::All
        .schemes_scaled(40)
        .into_iter()
        .cycle()
        .take(n)
        .enumerate()
    {
        let spec = RunSpec::corner(MinParams::paper_64(), scheme, corner)
            .with_horizon(Picos::from_us(40))
            .with_bin(Picos::from_us(2));
        s.push_str(&format!(
            "{{\"spec_v1\": \"{}\", \"label\": \"demo{i}\"}}\n",
            spec.encode_hex()
        ));
    }
    s
}

/// `recn serve`: drains the spool (or one stdin batch) through the cache.
pub fn command(f: &Parsed<'_>) -> Result<(), String> {
    let args = read_args(f)?;
    let mut out = std::io::stdout().lock();
    if let Some(n) = args.demo {
        return out
            .write_all(demo_lines(n).as_bytes())
            .map_err(cannot_write);
    }
    match &args.spool {
        None => {
            // Stdin mode: one batch, then exit.
            let specs = read_batch("stdin", std::io::stdin().lock())?;
            serve_batch(specs, &args, &mut out)?;
        }
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create spool {}: {e}", dir.display()))?;
            loop {
                drain_spool(dir, &args, &mut out)?;
                if args.once {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(args.poll_ms.max(10)));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed pipe: every write fails.
    struct Closed;

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn unreadable_and_unwritable_streams_are_errors_not_panics() {
        let demo = demo_lines(1);
        let specs = read_batch("stdin", demo.as_bytes()).unwrap();
        assert_eq!(specs.len(), 1);

        // Line 2 is not UTF-8: the batch is refused by line number.
        let bytes = [demo.as_bytes(), b"\xff\n"].concat();
        let err = read_batch("stdin", &bytes[..]).unwrap_err();
        assert!(
            err.starts_with("stdin:2: ") && err.contains("UTF-8"),
            "{err}"
        );

        let args = Args {
            spool: None,
            cache: None,
            jobs: 1,
            once: true,
            poll_ms: 0,
            demo: None,
        };
        let err = serve_batch(specs, &args, &mut Closed).unwrap_err();
        assert!(err.starts_with("cannot write results: "), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn a_spec_of_switches_too_wide_for_a_port_mask_is_a_refused_line() {
        use crate::runner::Workload;
        let workload = Workload::Uniform {
            load: 0.5,
            msg_bytes: 64,
            seed: 1,
        };
        let scheme = fabric::SchemeKind::Recn(recn::RecnConfig::default());
        let spec = RunSpec::new(topology::FatTreeParams::new(32, 2), scheme, workload);
        let line = |bytes: &[u8]| format!("{{\"spec_v1\": \"{}\"}}\n", crate::spec::to_hex(bytes));
        let mut bytes = spec.encode();
        assert!(read_batch("stdin", line(&bytes).as_bytes()).is_ok());
        // The arity is the first word after magic, version and topology
        // tag. A 33-ary 2-tree has 66-port leaf switches: it used to
        // decode, start, and panic on RECN's notify mask mid-run.
        assert_eq!(bytes[4], 32);
        bytes[4] = 33;
        let batch = demo_lines(1) + &line(&bytes);
        let err = read_batch("stdin", batch.as_bytes()).unwrap_err();
        assert!(
            err.starts_with("stdin:2: bad spec_v1: ") && err.contains("66 ports"),
            "{err}"
        );
    }
}
