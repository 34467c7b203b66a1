//! Command-line options shared by the `recn` commands.
//!
//! A [`Flag`] is one command-line flag: its name, what follows it, its help
//! line, and the one `match` arm that checks a value and stores it in its
//! [`Opts`] field. Each command lists the flags it reads (see
//! [`crate::cli::COMMANDS`]) and [`Opts::parse`] reads its arguments once
//! against that list, so an unknown flag, a missing value or a value
//! outside the flag's legal set is an `Err` carrying the usage line before
//! any command code runs.

use std::path::PathBuf;

use metrics::report::window_stats;
use simcore::{Picos, SeriesPoint};
use topology::TopologyKind;

use crate::runner::RunOutput;
use crate::sweep::{RunSpec, Sweep};

/// One command-line flag. A command's table lists exactly the flags it
/// acts on, so a flag it would ignore is an unknown option there rather
/// than a silent no-op.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--quick`: [`Opts::quick`].
    Quick,
    /// `--pkt 64|512`: [`Opts::pkt`].
    Pkt,
    /// `--csv DIR`: [`Opts::csv_dir`].
    Csv,
    /// `--json DIR|none`: [`Opts::json_dir`].
    Json,
    /// `--cache DIR|none`: [`Opts::cache_dir`].
    Cache,
    /// `--jobs N`: [`Opts::jobs`].
    Jobs,
    /// `--net`, admitting the sizes given — each command runs its own set
    /// of networks: [`Opts::net`].
    Net(&'static [u64]),
    /// `--stride N`: [`Opts::stride`].
    Stride,
    /// `--trace FILE`: [`Opts::trace_file`].
    Trace,
    /// `--trace-last N`: [`Opts::trace_last`].
    TraceLast,
    /// `--topology min|fattree`: [`Opts::topology`].
    Topology,
    /// `--routing deterministic|adaptive|arn`: [`Opts::routing`].
    Routing,
    /// `--transport open|gbn|nack|pfc`: [`Opts::transport`].
    Transport,
    /// `recn scale`'s `--net 64|512|4096`, one rung of its ladder:
    /// [`Opts::net`].
    Rung,
    /// `recn scale`'s `--time-div D`: [`Opts::scale_div`].
    TimeDiv,
    /// `recn scale`'s `--json FILE`: [`Opts::json_file`].
    JsonFile,
    /// `recn scale`'s `--budget BYTES`: [`Opts::budget`].
    Budget,
}

impl Flag {
    /// The flag as typed, the metavar of its value (`""` for a switch or a
    /// closed set, which renders itself), what error messages call the
    /// value ("needs …", "expects …"), and the help line.
    fn row(self) -> [&'static str; 4] {
        match self {
            Flag::Quick => ["--quick", "", "", "8x time compression (benches/CI; curve shapes preserved)"],
            Flag::Pkt => ["--pkt", "", "", "packet size in bytes (default 64)"],
            Flag::Csv => ["--csv", "DIR", "a directory", "also write CSV files under DIR"],
            Flag::Json => ["--json", "DIR|none", "a directory (or `none`)", "JSON sweep summaries under DIR (default results/; `none` disables)"],
            Flag::Cache => ["--cache", "DIR|none", "a directory (or `none`)", "content-addressed run cache under DIR (resumes interrupted sweeps)"],
            Flag::Jobs => ["--jobs", "N", "a worker count", "sweep worker count (default = available parallelism)"],
            Flag::Net(_) => ["--net", "", "", "network size for fig 6 (both when absent) and the fat-tree hotspot (512 swaps in the 8-ary 3-tree)"],
            Flag::Stride => ["--stride", "N", "a row count", "print every Nth series row (default 4)"],
            Flag::Trace => ["--trace", "FILE", "a file", "write an event-trace JSONL file"],
            Flag::TraceLast => ["--trace-last", "N", "a record count", "trace ring capacity (default 4096; digest covers the whole run)"],
            Flag::Topology => ["--topology", "min|fattree", "min or fattree", "topology family to build (MIN default)"],
            Flag::Routing => ["--routing", "deterministic|adaptive|arn", "deterministic, adaptive or arn", "routing policy (deterministic default; arn = notification-driven adaptive)"],
            Flag::Transport => ["--transport", "open|gbn|nack|pfc", "open, gbn, nack or pfc", "end-host transport (open default; gbn/nack window+retransmit, pfc pause/drop)"],
            Flag::Rung => ["--net", "", "", "run only the N-host rung of the ladder (default: all)"],
            Flag::TimeDiv => ["--time-div", "D", "a divisor", "time compression for the measured runs (default 16)"],
            Flag::JsonFile => ["--json", "FILE", "a file", "write the table as flat JSON to FILE"],
            Flag::Budget => ["--budget", "BYTES", "a byte count", "exit nonzero if any run's peak_bytes_estimate exceeds BYTES"],
        }
    }

    /// The flag as typed, e.g. `--jobs`.
    pub fn name(self) -> &'static str {
        self.row()[0]
    }

    /// The closed set of values the flag admits, if it has one.
    pub fn sizes(self) -> Option<&'static [u64]> {
        match self {
            Flag::Pkt => Some(&[64, 512]),
            Flag::Net(sizes) => Some(sizes),
            Flag::Rung => Some(&[64, 512, 4096]),
            _ => None,
        }
    }

    /// What follows the flag in the usage line (`""` for a switch).
    fn metavar(self) -> String {
        self.sizes().map_or(self.row()[1].to_owned(), |set| {
            set.iter().map(u64::to_string).collect::<Vec<_>>().join("|")
        })
    }

    /// What error messages call the flag's value.
    fn what(self) -> String {
        match self.sizes() {
            Some(_) => format!("one of {}", self.metavar()),
            None => self.row()[2].to_owned(),
        }
    }

    fn left_column(self) -> String {
        match self {
            Flag::Quick => self.name().to_owned(),
            _ => format!("{} {}", self.name(), self.metavar()),
        }
    }

    /// Checks `v` and stores it in the flag's field of `o`: `None` when `v`
    /// is outside the flag's legal set.
    fn store(self, v: &str, o: &mut Opts) -> Option<()> {
        let count = || v.parse().ok().filter(|&n: &usize| n > 0);
        let member = || {
            let n: u64 = v.parse().ok()?;
            self.sizes()?.contains(&n).then_some(n as u32)
        };
        let dir = || Some(PathBuf::from(v)).filter(|_| v != "none");
        match self {
            Flag::Quick => o.quick = true,
            Flag::Pkt => o.pkt = Some(member()?),
            Flag::Net(_) | Flag::Rung => o.net = Some(member()?),
            Flag::Csv => o.csv_dir = Some(v.into()),
            Flag::Json => o.json_dir = dir(),
            Flag::Cache => o.cache_dir = dir(),
            Flag::Jobs => o.jobs = Some(count()?),
            Flag::Stride => o.stride = count()?,
            Flag::Trace => o.trace_file = Some(v.into()),
            Flag::TraceLast => o.trace_last = count()?,
            Flag::Topology => o.topology = TopologyKind::parse(v)?,
            Flag::Routing => o.routing = fabric::RoutingPolicy::parse(v)?,
            Flag::Transport => o.transport = fabric::TransportKind::parse(v)?,
            Flag::TimeDiv => o.scale_div = count()? as u64,
            Flag::JsonFile => o.json_file = Some(v.into()),
            Flag::Budget => o.budget = Some(v.parse().ok()?),
        }
        Some(())
    }
}

/// The one-line usage summary for a flag table:
/// `options: [--quick] [--jobs N] …`.
pub fn usage_line(flags: &[Flag]) -> String {
    let columns: String = flags
        .iter()
        .map(|f| format!(" [{}]", f.left_column()))
        .collect();
    format!("options:{columns}")
}

/// The full `--help` text for a flag table: the usage line plus one
/// aligned line per flag.
pub fn render_help(flags: &[Flag]) -> String {
    let mut s = usage_line(flags);
    s.push('\n');
    let left: Vec<String> = flags.iter().map(|f| f.left_column()).collect();
    let width = left.iter().map(|l| l.len()).max().unwrap_or(0);
    for (f, l) in flags.iter().zip(&left) {
        s.push_str(&format!("  {l:width$}  {}\n", f.row()[3]));
    }
    s
}

/// The options of every `recn` command; a command's flag table sets the
/// ones it reads and the rest keep their defaults.
#[derive(Debug, Clone)]
pub struct Opts {
    /// 8× time compression: shorter warm-up, earlier hotspot, shorter run.
    /// Used by benches/CI; the shapes of all curves are preserved.
    pub quick: bool,
    /// Packet size override (64 default; the paper also reports 512).
    pub pkt: Option<u32>,
    /// Write CSV files into this directory in addition to stdout tables.
    pub csv_dir: Option<PathBuf>,
    /// Write machine-readable JSON sweep summaries into this directory.
    /// [`Opts::parse`] defaults it to `results/` (`--json none` disables);
    /// the programmatic `Opts::default()` leaves it off.
    pub json_dir: Option<PathBuf>,
    /// Content-addressed run cache directory (`--cache DIR`; off by
    /// default — completed runs are then served from disk and interrupted
    /// sweeps resume where they stopped).
    pub cache_dir: Option<PathBuf>,
    /// Sweep worker count (`--jobs N`; default = available parallelism).
    pub jobs: Option<usize>,
    /// Network size selector (`fig 6`: 256 or 512, both when `None`;
    /// `hotspot`: 64, or 512 on the fat tree; `scale`: one rung).
    pub net: Option<u32>,
    /// Print every Nth series row (default 4; 1 = all rows).
    pub stride: usize,
    /// Write an event-trace JSONL file here (`--trace FILE`; commands that
    /// support it install a [`fabric::TraceSink`]).
    pub trace_file: Option<PathBuf>,
    /// Ring-buffer capacity for a traced run: how many of the run's last
    /// events the JSONL retains (`--trace-last N`, default 4096, at least
    /// 1; the digest always covers the whole run).
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
    /// `recn scale`'s time compression for its measured runs
    /// (`--time-div D`, default 16).
    pub scale_div: u64,
    /// `recn scale`'s flat JSON table (`--json FILE`; off by default).
    pub json_file: Option<PathBuf>,
    /// `recn scale`'s memory budget: the command fails if a run's
    /// `peak_bytes_estimate` exceeds it (`--budget BYTES`).
    pub budget: Option<u64>,
}

impl Default for Opts {
    /// The command line's defaults, except that the JSON summaries stay
    /// off ([`Opts::parse`] turns them on under `results/`).
    fn default() -> Opts {
        Opts {
            quick: false,
            pkt: None,
            csv_dir: None,
            json_dir: None,
            cache_dir: None,
            jobs: None,
            net: None,
            stride: 4,
            trace_file: None,
            trace_last: 4096,
            topology: TopologyKind::default(),
            routing: fabric::RoutingPolicy::default(),
            transport: fabric::TransportKind::default(),
            scale_div: 16,
            json_file: None,
            budget: None,
        }
    }
}

impl Opts {
    /// Reads `args` once against a command's flag table; a flag the table
    /// leaves out keeps its default. Returns `Err` with the usage line
    /// attached on an unknown flag, a missing value, or a value outside the
    /// flag's legal set.
    pub fn parse(args: impl IntoIterator<Item = String>, flags: &[Flag]) -> Result<Opts, String> {
        let mut opts = Opts {
            json_dir: Some(PathBuf::from("results")),
            ..Opts::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let usage = || usage_line(flags);
            let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
                return Err(format!("unknown option {arg}; {}", usage()));
            };
            let v = match flag {
                Flag::Quick => String::new(),
                _ => args
                    .next()
                    .ok_or_else(|| format!("{arg} needs {}; {}", flag.what(), usage()))?,
            };
            flag.store(&v, &mut opts)
                .ok_or_else(|| format!("{arg} expects {}, got {v:?}; {}", flag.what(), usage()))?;
        }
        Ok(opts)
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

    fn parse_with(words: &[&str], flags: &[Flag]) -> Result<Opts, String> {
        Opts::parse(words.iter().map(|s| s.to_string()), flags)
    }

    /// Every flag the figure commands read (no command takes them all).
    const ALL: [Flag; 13] = [
        Flag::Quick,
        Flag::Pkt,
        Flag::Csv,
        Flag::Json,
        Flag::Cache,
        Flag::Jobs,
        Flag::Net(&[64, 256, 512]),
        Flag::Stride,
        Flag::Trace,
        Flag::TraceLast,
        Flag::Topology,
        Flag::Routing,
        Flag::Transport,
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
        // ... while the programmatic default leaves them off, and is the
        // command line's everywhere else.
        let lib = Opts::default();
        assert_eq!(lib.json_dir, None);
        assert_eq!(
            format!("{lib:?}"),
            format!(
                "{:?}",
                Opts {
                    json_dir: None,
                    ..o.clone()
                }
            )
        );
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
        let defs = [Flag::Quick, Flag::Jobs];
        let o = parse_with(&["--quick", "--jobs", "2"], &defs).unwrap();
        assert!(o.quick && o.jobs == Some(2));
        assert_eq!((o.packet_size(), o.stride, o.trace_last), (64, 4, 4096));
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
        assert_eq!(o.trace_last, 100);
        // Any count parses: the ring grows with what a run records, so
        // the flag bounds its memory without sizing it.
        let o = parse(&["--trace-last", "99999999999"]).unwrap();
        assert_eq!(o.trace_last, 99_999_999_999);
        // Defaults: tracing off, generous ring.
        let o = parse(&[]).unwrap();
        assert_eq!(o.trace_file, None);
        assert_eq!(o.trace_last, 4096);
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
        for f in ALL {
            assert!(help.contains(f.name()), "{} in help", f.name());
            assert!(help.contains(f.row()[3]), "{} help text present", f.name());
        }
    }
}
