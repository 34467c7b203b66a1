//! Command-line options shared by the `recn` commands.
//!
//! Two layers:
//!
//! * A reusable declarative flag parser — [`FlagDef`], [`parse_flags`],
//!   [`usage_line`], [`render_help`] — used by every command of the `recn`
//!   binary (see [`crate::cli`]). One table per
//!   command, one `--help` renderer, `Result` errors instead of panics;
//!   the table states each value's legal set, so a bad value is rejected
//!   with the usage line before any command code runs.
//! * [`Opts`], the typed option set of the figure/validation commands,
//!   built on that parser.

use std::path::PathBuf;
use std::str::FromStr;

use metrics::report::window_stats;
use simcore::{Picos, SeriesPoint};
use topology::TopologyKind;

use crate::runner::RunOutput;
use crate::sweep::{RunSpec, Sweep};

/// One command-line flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// The flag as typed, e.g. `--jobs`.
    pub name: &'static str,
    /// What follows the flag; `None` for a switch.
    pub value: Option<Value>,
    /// One-line help text.
    pub help: &'static str,
}

/// The value a flag takes. [`parse_flags`] rejects anything outside it.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Free text — a path, or a name the typed layer parses: the metavar
    /// of the usage line and the description used in error messages.
    Text(&'static str, &'static str),
    /// A positive integer (metavar, description).
    Count(&'static str, &'static str),
    /// One of a closed set of integers; the usage line renders it `a|b`.
    OneOf(&'static [u64]),
}

impl Value {
    fn metavar(&self) -> String {
        match self {
            Value::Text(metavar, _) | Value::Count(metavar, _) => (*metavar).to_owned(),
            Value::OneOf(set) => set.iter().map(u64::to_string).collect::<Vec<_>>().join("|"),
        }
    }

    /// The description error messages use ("needs …", "expects …").
    fn what(&self) -> String {
        match self {
            Value::Text(_, what) | Value::Count(_, what) => (*what).to_owned(),
            Value::OneOf(_) => format!("one of {}", self.metavar()),
        }
    }

    fn admits(&self, v: &str) -> bool {
        match self {
            Value::Text(..) => true,
            Value::Count(..) => v.parse::<u64>().is_ok_and(|n| n > 0),
            Value::OneOf(set) => v.parse().is_ok_and(|n| set.contains(&n)),
        }
    }
}

/// A parsed argument list: `(name, value)` pairs in argument
/// order, read back through the table that admitted them.
#[derive(Debug)]
pub struct Parsed<'a> {
    defs: &'a [FlagDef],
    flags: Vec<(&'static str, Option<String>)>,
}

impl Parsed<'_> {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name` (the last one, when repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// The directory a `DIR|none` flag selects: `none` switches the output
    /// off, an absent flag means `default`.
    pub fn dir_or(&self, name: &str, default: Option<&str>) -> Option<PathBuf> {
        let dir = self.get(name).or(default).filter(|d| *d != "none");
        dir.map(PathBuf::from)
    }

    /// The value of `name` read through `parse`; `None` from `parse` is
    /// the "`name` expects …, got …" error with the usage line attached.
    pub fn named<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| parse(v).ok_or_else(|| expects(self.defs, name, v)))
            .transpose()
    }

    /// The value of `name` parsed as a number.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.named(name, |v| v.parse().ok())
    }
}

fn expects(defs: &[FlagDef], name: &str, v: &str) -> String {
    let what = defs
        .iter()
        .find(|d| d.name == name)
        .and_then(|d| d.value)
        .map_or(String::from("no value"), |value| value.what());
    format!("{name} expects {what}, got {v:?}; {}", usage_line(defs))
}

/// Whether `arg` asks for help (`--help` / `-h`); callers check this
/// before parsing and render [`render_help`].
pub fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// Parses `args` against a flag table. Errors (with the usage line
/// attached) on unknown flags, missing values and values outside the
/// table's [`Value`] for the flag.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    defs: &[FlagDef],
) -> Result<Parsed<'_>, String> {
    let usage = usage_line(defs);
    let mut flags = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let def = defs
            .iter()
            .find(|d| d.name == arg)
            .ok_or_else(|| format!("unknown option {arg}; {usage}"))?;
        let value = match def.value {
            None => None,
            Some(value) => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{} needs {}; {usage}", def.name, value.what()))?;
                if !value.admits(&v) {
                    return Err(expects(defs, def.name, &v));
                }
                Some(v)
            }
        };
        flags.push((def.name, value));
    }
    Ok(Parsed { defs, flags })
}

/// The one-line usage summary for a flag table:
/// `options: [--quick] [--jobs N] …`.
pub fn usage_line(defs: &[FlagDef]) -> String {
    let mut s = String::from("options:");
    for d in defs {
        s.push_str(&format!(" [{}]", left_column(d)));
    }
    s
}

fn left_column(d: &FlagDef) -> String {
    match d.value {
        None => d.name.to_owned(),
        Some(value) => format!("{} {}", d.name, value.metavar()),
    }
}

/// The full `--help` text for a flag table: the usage line plus one
/// aligned line per flag.
pub fn render_help(defs: &[FlagDef]) -> String {
    let mut s = usage_line(defs);
    s.push('\n');
    let left: Vec<String> = defs.iter().map(left_column).collect();
    let width = left.iter().map(|l| l.len()).max().unwrap_or(0);
    for (d, l) in defs.iter().zip(&left) {
        s.push_str(&format!("  {l:width$}  {}\n", d.help));
    }
    s
}

/// The flags [`Opts::from_flags`] reads, one constant each: a command's
/// table lists exactly the ones the command acts on (see
/// [`crate::cli::COMMANDS`]), so a flag it would ignore is an unknown
/// option there rather than a silent no-op.
pub(crate) mod flag {
    use super::{FlagDef, Value};

    /// A table row: every command's flag table is written with this.
    pub(crate) const fn flag(
        name: &'static str,
        value: Option<Value>,
        help: &'static str,
    ) -> FlagDef {
        FlagDef { name, value, help }
    }

    pub const QUICK: FlagDef = flag(
        "--quick",
        None,
        "8x time compression (benches/CI; curve shapes preserved)",
    );
    pub const PKT: FlagDef = flag(
        "--pkt",
        Some(Value::OneOf(&[64, 512])),
        "packet size in bytes (default 64)",
    );
    pub const CSV: FlagDef = flag(
        "--csv",
        Some(Value::Text("DIR", "a directory")),
        "also write CSV files under DIR",
    );
    pub const JSON: FlagDef = flag(
        "--json",
        Some(Value::Text("DIR|none", "a directory (or `none`)")),
        "JSON sweep summaries under DIR (default results/; `none` disables)",
    );
    pub const CACHE: FlagDef = flag(
        "--cache",
        Some(Value::Text("DIR|none", "a directory (or `none`)")),
        "content-addressed run cache under DIR (resumes interrupted sweeps)",
    );
    pub const JOBS: FlagDef = flag(
        "--jobs",
        Some(Value::Count("N", "a worker count")),
        "sweep worker count (default = available parallelism)",
    );
    /// `--net`, admitting the sizes in `sizes` — each command runs its own
    /// set of networks.
    pub const fn net(sizes: &'static [u64]) -> FlagDef {
        flag(
            "--net",
            Some(Value::OneOf(sizes)),
            "network size for fig 6 (both when absent) and the fat-tree \
             hotspot (512 swaps in the 8-ary 3-tree)",
        )
    }
    pub const STRIDE: FlagDef = flag(
        "--stride",
        Some(Value::Count("N", "a row count")),
        "print every Nth series row (default 4)",
    );
    pub const TRACE: FlagDef = flag(
        "--trace",
        Some(Value::Text("FILE", "a file")),
        "write an event-trace JSONL file",
    );
    pub const TRACE_LAST: FlagDef = flag(
        "--trace-last",
        Some(Value::Count("N", "a record count")),
        "trace ring capacity (default 4096; digest covers the whole run)",
    );
    pub const TOPOLOGY: FlagDef = flag(
        "--topology",
        Some(Value::Text("min|fattree", "min or fattree")),
        "topology family to build (MIN default)",
    );
    pub const ROUTING: FlagDef = flag(
        "--routing",
        Some(Value::Text(
            "deterministic|adaptive|arn",
            "deterministic, adaptive or arn",
        )),
        "routing policy (deterministic default; arn = notification-driven adaptive)",
    );
    pub const TRANSPORT: FlagDef = flag(
        "--transport",
        Some(Value::Text("open|gbn|nack|pfc", "open, gbn, nack or pfc")),
        "end-host transport (open default; gbn/nack window+retransmit, pfc pause/drop)",
    );
}

/// Options common to the figure/validation commands.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// 8× time compression: shorter warm-up, earlier hotspot, shorter run.
    /// Used by benches/CI; the shapes of all curves are preserved.
    pub quick: bool,
    /// Packet size override (64 default; the paper also reports 512).
    pub pkt: Option<u32>,
    /// Write CSV files into this directory in addition to stdout tables.
    pub csv_dir: Option<PathBuf>,
    /// Write machine-readable JSON sweep summaries into this directory.
    /// [`Opts::from_flags`] defaults it to `results/` (`--json none` disables);
    /// the programmatic `Opts::default()` leaves it off.
    pub json_dir: Option<PathBuf>,
    /// Content-addressed run cache directory (`--cache DIR`; off by
    /// default — completed runs are then served from disk and interrupted
    /// sweeps resume where they stopped).
    pub cache_dir: Option<PathBuf>,
    /// Sweep worker count (`--jobs N`; default = available parallelism).
    pub jobs: Option<usize>,
    /// Network size selector (`fig 6`: 256 or 512, both when `None`;
    /// `hotspot`: 64, or 512 on the fat tree).
    pub net: Option<u32>,
    /// Print every Nth series row (default 4; 1 = all rows).
    pub stride: usize,
    /// Write an event-trace JSONL file here (`--trace FILE`; commands that
    /// support it install a [`fabric::TraceSink`]).
    pub trace_file: Option<PathBuf>,
    /// Ring-buffer capacity for `--trace`: how many of the run's last
    /// events the JSONL retains (`--trace-last N`, default 4096; the
    /// digest always covers the whole run).
    pub trace_last: usize,
    /// Topology family to build (`--topology min|fattree`; MIN default).
    pub topology: TopologyKind,
    /// Routing policy for every run of the sweep
    /// (`--routing deterministic|adaptive|arn`; deterministic default — the
    /// paper's self-routing; adaptive lets fat-tree switches pick up-ports
    /// at forwarding time; arn additionally steers them away from subtrees
    /// with live congestion notifications).
    pub routing: fabric::RoutingPolicy,
    /// End-host transport for every run of the sweep
    /// (`--transport open|gbn|nack|pfc`; open-loop default — today's
    /// behaviour bit-exactly. gbn/nack add windowed senders with
    /// retransmission; pfc swaps credits for pause/drop at the switches).
    pub transport: fabric::TransportKind,
}

impl Opts {
    /// Reads the options out of a parsed argument list (a command's table
    /// of these flags; one the table leaves out keeps its default).
    /// Returns `Err` with a message that includes the usage text on a name
    /// `--topology`/`--routing`/`--transport` do not know; everything else
    /// the table already checked.
    pub fn from_flags(f: &Parsed<'_>) -> Result<Opts, String> {
        let path = |name| f.get(name).map(PathBuf::from);
        Ok(Opts {
            quick: f.has("--quick"),
            pkt: f.num("--pkt")?,
            csv_dir: path("--csv"),
            json_dir: f.dir_or("--json", Some("results")),
            cache_dir: f.dir_or("--cache", None),
            jobs: f.num("--jobs")?,
            net: f.num("--net")?,
            stride: f.num("--stride")?.unwrap_or(4),
            trace_file: path("--trace"),
            trace_last: f.num("--trace-last")?.unwrap_or(4096),
            topology: f
                .named("--topology", TopologyKind::parse)?
                .unwrap_or_default(),
            routing: f
                .named("--routing", fabric::RoutingPolicy::parse)?
                .unwrap_or_default(),
            transport: f
                .named("--transport", fabric::TransportKind::parse)?
                .unwrap_or_default(),
        })
    }

    /// The trace ring capacity when tracing is on (always at least 1; the
    /// programmatic `Opts::default()` leaves `trace_last` at 0).
    pub fn trace_capacity(&self) -> usize {
        self.trace_last.max(1)
    }

    /// Packet size to use (default 64, per the paper's headline figures).
    pub fn packet_size(&self) -> u32 {
        self.pkt.unwrap_or(64)
    }

    /// Time scale divisor (8 in quick mode, 1 otherwise).
    pub fn time_div(&self) -> u64 {
        if self.quick {
            8
        } else {
            1
        }
    }

    /// A figure run's horizon: the paper's 1600 µs, compressed.
    pub fn horizon(&self) -> Picos {
        Picos::from_us(1600 / self.time_div())
    }

    /// A series bin: 5 µs at paper scale, shrunk with the time axis (never
    /// below 1 µs).
    pub fn bin(&self) -> Picos {
        Picos::from_us((5 / self.time_div()).max(1))
    }

    /// The mean of `points` inside the congestion window, 810–960 µs at
    /// paper scale (compressed with the time axis): the headline number
    /// behind the paper's abstract.
    pub fn window_mean(&self, points: &[SeriesPoint]) -> f64 {
        let div = self.time_div() as f64;
        window_stats(points, 810.0 / div, 960.0 / div).0
    }

    /// `spec` under the command line's `--routing` and `--transport`: what
    /// [`sweep`](Opts::sweep) does to every spec it runs, for the commands
    /// that drive a network by hand.
    pub(crate) fn applied_to(&self, spec: RunSpec) -> RunSpec {
        spec.with_routing(self.routing)
            .with_transport(self.transport)
    }

    /// Runs `specs` through a [`Sweep`] configured from these options:
    /// `--jobs` workers (default = available parallelism), progress lines
    /// on stderr, a JSON summary named after the sweep when `--json` is
    /// active, and the content-addressed run cache when `--cache` is.
    pub fn sweep(&self, name: &str, specs: Vec<RunSpec>) -> Vec<RunOutput> {
        let specs: Vec<RunSpec> = specs.into_iter().map(|s| self.applied_to(s)).collect();
        let mut sweep = Sweep::new(specs)
            .jobs(self.jobs.unwrap_or(0))
            .progress(true);
        if let Some(dir) = &self.json_dir {
            sweep = sweep.json(dir.clone(), name);
        }
        if let Some(dir) = &self.cache_dir {
            sweep = sweep.cache(dir.clone());
        }
        sweep.run()
    }

    /// Writes a CSV file if `--csv` was given.
    ///
    /// # Errors
    ///
    /// The directory cannot be created or the file cannot be written.
    pub fn maybe_write_csv(&self, name: &str, content: &str) -> Result<(), String> {
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, content))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(words: &[&str], defs: &[FlagDef]) -> Result<Opts, String> {
        Opts::from_flags(&parse_flags(words.iter().map(|s| s.to_string()), defs)?)
    }

    /// Every flag [`Opts::from_flags`] reads (no command takes them all).
    const ALL: [FlagDef; 13] = [
        flag::QUICK,
        flag::PKT,
        flag::CSV,
        flag::JSON,
        flag::CACHE,
        flag::JOBS,
        flag::net(&[64, 256, 512]),
        flag::STRIDE,
        flag::TRACE,
        flag::TRACE_LAST,
        flag::TOPOLOGY,
        flag::ROUTING,
        flag::TRANSPORT,
    ];

    fn parse(words: &[&str]) -> Result<Opts, String> {
        parse_with(words, &ALL)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert!(!o.quick);
        assert_eq!(o.packet_size(), 64);
        assert_eq!(o.time_div(), 1);
        assert_eq!(o.stride, 4);
        assert_eq!(o.jobs, None);
        // CLI parsing defaults the JSON summaries on, under results/.
        assert_eq!(o.json_dir, Some(PathBuf::from("results")));
        // ... while the programmatic default leaves them off.
        assert_eq!(Opts::default().json_dir, None);
        // The run cache is opt-in either way.
        assert_eq!(o.cache_dir, None);
    }

    /// The time compression is said once: horizon, bin and congestion
    /// window at paper scale and under `--quick`.
    #[test]
    fn time_axis_at_paper_scale_and_quick() {
        let full = Opts::default();
        let quick = Opts {
            quick: true,
            ..Opts::default()
        };
        assert_eq!(full.horizon(), Picos::from_us(1600));
        assert_eq!(quick.horizon(), Picos::from_us(200));
        assert_eq!(full.bin(), Picos::from_us(5));
        assert_eq!(quick.bin(), Picos::from_us(1));
        // One point on each side of both window bounds, valued by its own
        // time: only bounds [810, 960) µs, divided by the time divisor,
        // take in exactly the middle two.
        let edges = |div: f64| -> Vec<SeriesPoint> {
            [809.75, 810.0, 959.75, 960.0]
                .map(|t| SeriesPoint {
                    t_us: t / div,
                    value: t / div,
                })
                .into()
        };
        assert_eq!(full.window_mean(&edges(1.0)), (810.0 + 959.75) / 2.0);
        assert_eq!(quick.window_mean(&edges(8.0)), (101.25 + 119.968_75) / 2.0);
        // Paper-scale bounds on the quick axis see none of its points.
        assert_eq!(full.window_mean(&edges(8.0)), 0.0);
    }

    #[test]
    fn flags_parse() {
        let o = parse(&[
            "--quick", "--pkt", "512", "--net", "256", "--stride", "2", "--jobs", "4", "--json",
            "out",
        ])
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.packet_size(), 512);
        assert_eq!(o.time_div(), 8);
        assert_eq!(o.net, Some(256));
        assert_eq!(o.stride, 2);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.json_dir, Some(PathBuf::from("out")));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown option --bogus"), "{err}");
        assert!(err.contains("--jobs"), "usage text attached: {err}");
    }

    /// The table states each value's legal set, so a value outside it is
    /// an error carrying the usage line — never a panic further in, and
    /// never a silently different run. `--net` is checked against the
    /// running command's networks.
    #[test]
    fn values_outside_the_table_are_errors() {
        let flags_of = |name: &str| {
            let cmd = crate::cli::COMMANDS.iter().find(|c| c.name == name);
            cmd.expect("command exists").flags
        };
        let cases: [(&str, [&str; 2]); 16] = [
            ("fig", ["--pkt", "0"]),
            ("fig", ["--pkt", "100"]),
            ("fig", ["--pkt", "tiny"]),
            ("fig", ["--net", "100"]),
            ("fig", ["--net", "64"]),
            ("hotspot", ["--net", "256"]),
            ("scale", ["--net", "100"]),
            ("scale", ["--time-div", "0"]),
            ("scale", ["--time-div", "fast"]),
            ("fig", ["--jobs", "0"]),
            ("validate", ["--jobs", "zero"]),
            ("fig", ["--stride", "0"]),
            ("fig", ["--stride", "-1"]),
            ("inspect", ["--trace-last", "0"]),
            ("inspect", ["--trace-last", "many"]),
            ("validate", ["--topology", "torus"]),
        ];
        for (cmd, words) in cases {
            let defs = flags_of(cmd);
            let err = parse_with(&words, defs).expect_err(&words.join(" "));
            assert!(err.contains(&format!("{} expects", words[0])), "{err}");
            assert!(err.contains(&usage_line(defs)), "usage attached: {err}");
        }
        let fig = flags_of("fig");
        assert_eq!(parse_with(&["--net", "512"], fig).unwrap().net, Some(512));
        assert!(usage_line(fig).contains("[--net 256|512]"));
        assert!(usage_line(flags_of("hotspot")).contains("[--net 64|512]"));
        assert!(parse(&["--jobs"]).unwrap_err().contains("--jobs needs"));
    }

    /// A command's table lists only the flags it reads: the others keep
    /// their defaults and are unknown options on that command line.
    #[test]
    fn a_table_without_a_flag_leaves_its_default_and_rejects_it() {
        let defs = [flag::QUICK, flag::JOBS];
        let o = parse_with(&["--quick", "--jobs", "2"], &defs).unwrap();
        assert!(o.quick && o.jobs == Some(2));
        assert_eq!(
            (o.packet_size(), o.stride, o.trace_capacity()),
            (64, 4, 4096)
        );
        assert_eq!(o.json_dir, Some(PathBuf::from("results")));
        assert_eq!(o.routing, fabric::RoutingPolicy::Deterministic);
        assert_eq!(o.transport, fabric::TransportKind::OpenLoop);
        let err = parse_with(&["--pkt", "512"], &defs).unwrap_err();
        assert_eq!(err, "unknown option --pkt; options: [--quick] [--jobs N]");
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&["--trace", "out.jsonl", "--trace-last", "100"]).unwrap();
        assert_eq!(o.trace_file, Some(PathBuf::from("out.jsonl")));
        assert_eq!(o.trace_capacity(), 100);
        // Any count parses: the ring grows with what a run records, so
        // the flag bounds its memory without sizing it.
        let o = parse(&["--trace-last", "99999999999"]).unwrap();
        assert_eq!(o.trace_capacity(), 99_999_999_999);
        // Defaults: tracing off, generous ring.
        let o = parse(&[]).unwrap();
        assert_eq!(o.trace_file, None);
        assert_eq!(o.trace_capacity(), 4096);
        // The programmatic default still holds at least one record.
        assert_eq!(Opts::default().trace_capacity(), 1);
        assert!(parse(&["--trace"]).unwrap_err().contains("--trace needs"));
    }

    /// The engine has one configuration and the probe one storage: the
    /// scheduler, event-model and metrics-mode selectors are gone, not
    /// merely hidden.
    #[test]
    fn removed_flags_are_rejected_as_unknown() {
        for words in [
            ["--event-model", "lazy"],
            ["--scheduler", "heap"],
            ["--metrics", "full"],
        ] {
            let err = parse(&words).unwrap_err();
            assert!(
                err.contains(&format!("unknown option {}", words[0])),
                "{err}"
            );
            assert!(err.contains(&usage_line(&ALL)), "usage: {err}");
        }
    }

    #[test]
    fn topology_flag_parses() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.topology, TopologyKind::Min);
        let o = parse(&["--topology", "fattree"]).unwrap();
        assert_eq!(o.topology, TopologyKind::FatTree);
        let o = parse(&["--topology", "fat-tree"]).unwrap();
        assert_eq!(o.topology, TopologyKind::FatTree);
        let o = parse(&["--topology", "min"]).unwrap();
        assert_eq!(o.topology, TopologyKind::Min);
        assert!(parse(&["--topology", "torus"])
            .unwrap_err()
            .contains("--topology expects min or fattree"));
        assert!(parse(&["--topology"])
            .unwrap_err()
            .contains("--topology needs"));
    }

    #[test]
    fn routing_flag_parses() {
        use fabric::RoutingPolicy;
        let o = parse(&[]).unwrap();
        assert_eq!(o.routing, RoutingPolicy::Deterministic);
        let o = parse(&["--routing", "adaptive"]).unwrap();
        assert_eq!(o.routing, RoutingPolicy::adaptive());
        let o = parse(&["--routing", "deterministic"]).unwrap();
        assert_eq!(o.routing, RoutingPolicy::Deterministic);
        let o = parse(&["--routing", "arn"]).unwrap();
        assert_eq!(o.routing, RoutingPolicy::arn());
        assert!(parse(&["--routing", "random"])
            .unwrap_err()
            .contains("--routing expects deterministic, adaptive or arn"));
        assert!(parse(&["--routing"])
            .unwrap_err()
            .contains("--routing needs"));
    }

    #[test]
    fn transport_flag_parses() {
        use fabric::TransportKind;
        let o = parse(&[]).unwrap();
        assert_eq!(o.transport, TransportKind::OpenLoop);
        let o = parse(&["--transport", "gbn"]).unwrap();
        assert!(matches!(o.transport, TransportKind::GoBackN(_)));
        let o = parse(&["--transport", "nack"]).unwrap();
        assert!(matches!(o.transport, TransportKind::Nack(_)));
        let o = parse(&["--transport", "pfc"]).unwrap();
        assert!(matches!(o.transport, TransportKind::Pfc(..)));
        let o = parse(&["--transport", "open"]).unwrap();
        assert_eq!(o.transport, TransportKind::OpenLoop);
        assert!(parse(&["--transport", "tcp"])
            .unwrap_err()
            .contains("--transport expects open, gbn, nack or pfc"));
        assert!(parse(&["--transport"])
            .unwrap_err()
            .contains("--transport needs"));
    }

    #[test]
    fn none_disables_summaries_and_cache() {
        let o = parse(&["--json", "none"]).unwrap();
        assert_eq!(o.json_dir, None);
        let o = parse(&["--cache", "results/cache"]).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("results/cache")));
        let o = parse(&["--cache", "none"]).unwrap();
        assert_eq!(o.cache_dir, None);
        assert!(parse(&["--cache"]).unwrap_err().contains("--cache needs"));
    }

    #[test]
    fn flag_machinery_renders_usage_and_help() {
        let u = usage_line(&ALL);
        assert!(u.starts_with("options:"));
        assert!(u.contains("[--jobs N]"));
        assert!(
            u.contains("[--pkt 64|512]"),
            "closed sets render themselves"
        );
        assert!(u.contains("[--cache DIR|none]"));
        assert!(u.contains("[--quick]"), "boolean flags have no metavar");
        let help = render_help(&ALL);
        for d in &ALL {
            assert!(help.contains(d.name), "{} in help", d.name);
            assert!(help.contains(d.help), "{} help text present", d.name);
        }
    }
}
