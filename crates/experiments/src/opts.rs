//! Command-line options shared by the experiment binaries.
//!
//! Two layers:
//!
//! * A reusable declarative flag parser — [`FlagDef`], [`parse_flags`],
//!   [`usage_line`], [`render_help`] — used by every binary in the
//!   workspace (the figure binaries through [`Opts`], and `bench_core` /
//!   `sweepd` with their own flag tables). One table per binary, one
//!   `--help` renderer, `Result` errors instead of panics, and deprecated
//!   flag spellings ride along as aliases.
//! * [`Opts`], the typed option set of the figure/validation binaries,
//!   built on that parser.

use std::path::PathBuf;

use topology::{FatTreeParams, MinParams, TopoParams};

use crate::runner::RunOutput;
use crate::sweep::{RunSpec, Sweep, SweepReport};

/// One command-line flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// Canonical spelling, e.g. `--jobs`.
    pub name: &'static str,
    /// Deprecated spellings that still parse (mapped to `name`).
    pub aliases: &'static [&'static str],
    /// `Some((metavar, description))` when the flag takes a value — the
    /// metavar lands in the usage line, the description in "needs" errors.
    pub value: Option<(&'static str, &'static str)>,
    /// One-line help text.
    pub help: &'static str,
}

/// Parses `args` against a flag table. Returns `(canonical name, value)`
/// pairs in argument order; `--help`/`-h` come back as a `"--help"` entry
/// for the caller to render. Errors (with the usage line attached) on
/// unknown flags and on missing values — value *syntax* is the caller's
/// to check, so typed errors stay next to the typed fields.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    defs: &[FlagDef],
) -> Result<Vec<(&'static str, Option<String>)>, String> {
    let usage = usage_line(defs);
    let mut out = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            out.push(("--help", None));
            continue;
        }
        let def = defs
            .iter()
            .find(|d| d.name == arg || d.aliases.contains(&arg.as_str()))
            .ok_or_else(|| format!("unknown option {arg}; {usage}"))?;
        let value = match def.value {
            None => None,
            Some((_, what)) => Some(
                it.next()
                    .ok_or_else(|| format!("{} needs {what}; {usage}", def.name))?,
            ),
        };
        out.push((def.name, value));
    }
    Ok(out)
}

/// The one-line usage summary for a flag table:
/// `options: [--quick] [--jobs N] …`.
pub fn usage_line(defs: &[FlagDef]) -> String {
    let mut s = String::from("options:");
    for d in defs {
        match d.value {
            None => s.push_str(&format!(" [{}]", d.name)),
            Some((metavar, _)) => s.push_str(&format!(" [{} {metavar}]", d.name)),
        }
    }
    s
}

/// The full `--help` text for a flag table: the usage line plus one
/// aligned line per flag (aliases marked deprecated).
pub fn render_help(defs: &[FlagDef]) -> String {
    let mut s = usage_line(defs);
    s.push('\n');
    let left: Vec<String> = defs
        .iter()
        .map(|d| match d.value {
            None => d.name.to_owned(),
            Some((metavar, _)) => format!("{} {metavar}", d.name),
        })
        .collect();
    let width = left.iter().map(|l| l.len()).max().unwrap_or(0);
    for (d, l) in defs.iter().zip(&left) {
        s.push_str(&format!("  {l:width$}  {}", d.help));
        if !d.aliases.is_empty() {
            s.push_str(&format!(" (deprecated alias: {})", d.aliases.join(", ")));
        }
        s.push('\n');
    }
    s
}

/// The flag table of the figure/validation binaries (what [`Opts::parse`]
/// accepts).
pub const OPTS_FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--quick",
        aliases: &[],
        value: None,
        help: "8x time compression (benches/CI; curve shapes preserved)",
    },
    FlagDef {
        name: "--pkt",
        aliases: &[],
        value: Some(("64|512", "a value")),
        help: "packet size in bytes (default 64)",
    },
    FlagDef {
        name: "--csv",
        aliases: &[],
        value: Some(("DIR", "a directory")),
        help: "also write CSV files under DIR",
    },
    FlagDef {
        name: "--json",
        aliases: &[],
        value: Some(("DIR|none", "a directory (or `none`)")),
        help: "JSON sweep summaries under DIR (default results/; `none` disables)",
    },
    FlagDef {
        name: "--cache",
        aliases: &[],
        value: Some(("DIR|none", "a directory (or `none`)")),
        help: "content-addressed run cache under DIR (resumes interrupted sweeps)",
    },
    FlagDef {
        name: "--jobs",
        aliases: &[],
        value: Some(("N", "a worker count")),
        help: "sweep worker count (default = available parallelism)",
    },
    FlagDef {
        name: "--net",
        aliases: &[],
        value: Some(("256|512", "256 or 512")),
        help: "network size for fig6 (both when absent) and the fat-tree \
               hotspot (512 swaps in the 8-ary 3-tree)",
    },
    FlagDef {
        name: "--stride",
        aliases: &[],
        value: Some(("N", "a value")),
        help: "print every Nth series row (default 4)",
    },
    FlagDef {
        name: "--trace",
        aliases: &[],
        value: Some(("FILE", "a file")),
        help: "write an event-trace JSONL file",
    },
    FlagDef {
        name: "--trace-last",
        aliases: &[],
        value: Some(("N", "a record count")),
        help: "trace ring capacity (default 4096; digest covers the whole run)",
    },
    FlagDef {
        name: "--topology",
        aliases: &[],
        value: Some(("min|fattree", "min or fattree")),
        help: "topology family to build (MIN default)",
    },
    FlagDef {
        name: "--routing",
        aliases: &[],
        value: Some((
            "deterministic|adaptive|arn",
            "deterministic, adaptive or arn",
        )),
        help: "routing policy (deterministic default; arn = notification-driven adaptive)",
    },
    FlagDef {
        name: "--transport",
        aliases: &[],
        value: Some(("open|gbn|nack|pfc", "open, gbn, nack or pfc")),
        help: "end-host transport (open default; gbn/nack window+retransmit, pfc pause/drop)",
    },
];

/// The usage text attached to parse errors (generated from [`OPTS_FLAGS`]).
pub fn usage() -> String {
    usage_line(OPTS_FLAGS)
}

/// Which topology family the binaries should build (`--topology`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyChoice {
    /// The paper's perfect-shuffle MIN (default).
    #[default]
    Min,
    /// The k-ary n-tree fat tree.
    FatTree,
}

impl TopologyChoice {
    /// Parses a `--topology` value.
    pub fn parse(s: &str) -> Result<TopologyChoice, String> {
        match s {
            "min" => Ok(TopologyChoice::Min),
            "fattree" | "fat-tree" => Ok(TopologyChoice::FatTree),
            other => Err(format!("unknown topology {other:?} (min|fattree)")),
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyChoice::Min => "min",
            TopologyChoice::FatTree => "fattree",
        }
    }

    /// The preset topology parameters for a preset host count (64, 256,
    /// 512 or 4096 — the sizes the experiment binaries sweep).
    ///
    /// # Panics
    ///
    /// Panics on a host count without a preset.
    pub fn params_for(&self, hosts: u32) -> TopoParams {
        match (self, hosts) {
            (TopologyChoice::Min, 64) => MinParams::paper_64().into(),
            (TopologyChoice::Min, 256) => MinParams::paper_256().into(),
            (TopologyChoice::Min, 512) => MinParams::paper_512().into(),
            (TopologyChoice::Min, 4096) => MinParams::min_4096().into(),
            (TopologyChoice::FatTree, 64) => FatTreeParams::ft_64().into(),
            (TopologyChoice::FatTree, 256) => FatTreeParams::ft_256().into(),
            (TopologyChoice::FatTree, 512) => FatTreeParams::ft_512().into(),
            (TopologyChoice::FatTree, 4096) => FatTreeParams::ft_4096().into(),
            (t, h) => panic!("no {} preset for {h} hosts", t.name()),
        }
    }
}

/// Options common to every experiment binary.
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
    /// [`Opts::parse`] defaults it to `results/` (`--json none` disables);
    /// the programmatic `Opts::default()` leaves it off.
    pub json_dir: Option<PathBuf>,
    /// Content-addressed run cache directory (`--cache DIR`; off by
    /// default — completed runs are then served from disk and interrupted
    /// sweeps resume where they stopped).
    pub cache_dir: Option<PathBuf>,
    /// Sweep worker count (`--jobs N`; default = available parallelism).
    pub jobs: Option<usize>,
    /// Network size selector for `fig6` (256 or 512; both when `None`).
    pub net: Option<u32>,
    /// Print every Nth series row (default 4; 1 = all rows).
    pub stride: usize,
    /// Write an event-trace JSONL file here (`--trace FILE`; binaries that
    /// support it install a [`fabric::TraceSink`]).
    pub trace_file: Option<PathBuf>,
    /// Ring-buffer capacity for `--trace`: how many of the run's last
    /// events the JSONL retains (`--trace-last N`, default 4096; the
    /// digest always covers the whole run).
    pub trace_last: usize,
    /// Topology family to build (`--topology min|fattree`; MIN default).
    pub topology: TopologyChoice,
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
    /// Parses `args` (without the program name).
    ///
    /// Returns `Err` with a message that includes the usage text on
    /// unknown flags or missing/invalid values. `--help` still prints the
    /// full help and exits successfully.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut opts = Opts {
            stride: 4,
            json_dir: Some(PathBuf::from("results")),
            trace_last: 4096,
            ..Opts::default()
        };
        for (name, value) in parse_flags(args, OPTS_FLAGS)? {
            // Flags with a value always carry Some(..) here (parse_flags
            // enforced it); unwrap via expect to keep the match readable.
            let v = || value.clone().expect("value enforced by parse_flags");
            match name {
                "--quick" => opts.quick = true,
                "--pkt" => {
                    let v = v();
                    opts.pkt = Some(
                        v.parse()
                            .map_err(|_| format!("--pkt expects bytes, got {v:?}"))?,
                    );
                }
                "--csv" => opts.csv_dir = Some(PathBuf::from(v())),
                "--json" => {
                    let v = v();
                    opts.json_dir = if v == "none" {
                        None
                    } else {
                        Some(PathBuf::from(v))
                    };
                }
                "--cache" => {
                    let v = v();
                    opts.cache_dir = if v == "none" {
                        None
                    } else {
                        Some(PathBuf::from(v))
                    };
                }
                "--jobs" => {
                    let v = v();
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs expects a count, got {v:?}"))?;
                    opts.jobs = Some(n.max(1));
                }
                "--net" => {
                    let v = v();
                    opts.net = Some(
                        v.parse()
                            .map_err(|_| format!("--net expects a host count, got {v:?}"))?,
                    );
                }
                "--stride" => {
                    let v = v();
                    opts.stride = v
                        .parse()
                        .map_err(|_| format!("--stride expects a count, got {v:?}"))?;
                }
                "--trace" => opts.trace_file = Some(PathBuf::from(v())),
                "--trace-last" => {
                    let v = v();
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--trace-last expects a count, got {v:?}"))?;
                    opts.trace_last = n.max(1);
                }
                "--topology" => {
                    opts.topology =
                        TopologyChoice::parse(&v()).map_err(|e| format!("{e}; {}", usage()))?;
                }
                "--routing" => {
                    let v = v();
                    opts.routing = fabric::RoutingPolicy::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown routing policy {v:?} (deterministic|adaptive|arn); {}",
                            usage()
                        )
                    })?;
                }
                "--transport" => {
                    let v = v();
                    opts.transport = fabric::TransportKind::parse(&v).ok_or_else(|| {
                        format!("unknown transport {v:?} (open|gbn|nack|pfc); {}", usage())
                    })?;
                }
                "--help" => {
                    println!("{}", render_help(OPTS_FLAGS));
                    std::process::exit(0);
                }
                other => unreachable!("flag {other} in table but not matched"),
            }
        }
        if opts.stride == 0 {
            opts.stride = 1;
        }
        Ok(opts)
    }

    /// The trace ring capacity when tracing is on (always at least 1).
    pub fn trace_capacity(&self) -> usize {
        self.trace_last.max(1)
    }

    /// Parses the process arguments; prints the error and exits with
    /// status 2 on bad input (the binaries' entry point).
    pub fn from_env() -> Opts {
        Opts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
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

    /// Runs `specs` through a [`Sweep`] configured from these options:
    /// `--jobs` workers (default = available parallelism), progress lines
    /// on stderr, a JSON summary named after the sweep when `--json` is
    /// active, and the content-addressed run cache when `--cache` is.
    pub fn sweep(&self, name: &str, specs: Vec<RunSpec>) -> Vec<RunOutput> {
        self.sweep_report(name, specs).outputs
    }

    /// Like [`sweep`](Opts::sweep) but returning the full [`SweepReport`]
    /// (per-run cache statuses, sweep timing).
    pub fn sweep_report(&self, name: &str, specs: Vec<RunSpec>) -> SweepReport {
        let specs: Vec<RunSpec> = specs
            .into_iter()
            .map(|s| s.with_routing(self.routing).with_transport(self.transport))
            .collect();
        let mut sweep = Sweep::new(specs)
            .jobs(self.jobs.unwrap_or(0))
            .progress(true);
        if let Some(dir) = &self.json_dir {
            sweep = sweep.json(dir.clone(), name);
        }
        if let Some(dir) = &self.cache_dir {
            sweep = sweep.cache(dir.clone());
        }
        sweep.run_report()
    }

    /// Writes a CSV file if `--csv` was given.
    pub fn maybe_write_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, content).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Opts, String> {
        Opts::parse(words.iter().map(|s| s.to_string()))
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

    #[test]
    fn zero_stride_coerced() {
        let o = parse(&["--stride", "0"]).unwrap();
        assert_eq!(o.stride, 1);
    }

    #[test]
    fn missing_or_bad_values_are_errors() {
        assert!(parse(&["--jobs"]).unwrap_err().contains("--jobs needs"));
        assert!(parse(&["--pkt", "tiny"])
            .unwrap_err()
            .contains("--pkt expects bytes"));
        assert!(parse(&["--jobs", "zero"])
            .unwrap_err()
            .contains("--jobs expects a count"));
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&["--trace", "out.jsonl", "--trace-last", "100"]).unwrap();
        assert_eq!(o.trace_file, Some(PathBuf::from("out.jsonl")));
        assert_eq!(o.trace_capacity(), 100);
        // Defaults: tracing off, generous ring.
        let o = parse(&[]).unwrap();
        assert_eq!(o.trace_file, None);
        assert_eq!(o.trace_capacity(), 4096);
        // A zero ring is coerced to hold at least one record.
        let o = parse(&["--trace-last", "0"]).unwrap();
        assert_eq!(o.trace_capacity(), 1);
        assert!(parse(&["--trace"]).unwrap_err().contains("--trace needs"));
        assert!(parse(&["--trace-last", "many"])
            .unwrap_err()
            .contains("--trace-last expects a count"));
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
            assert!(err.contains(&usage()), "usage text attached: {err}");
        }
    }

    #[test]
    fn topology_flag_parses() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.topology, TopologyChoice::Min);
        let o = parse(&["--topology", "fattree"]).unwrap();
        assert_eq!(o.topology, TopologyChoice::FatTree);
        assert_eq!(o.topology.params_for(64), FatTreeParams::ft_64().into());
        assert_eq!(o.topology.params_for(512).total_switches(), 192);
        let o = parse(&["--topology", "min"]).unwrap();
        assert_eq!(o.topology.params_for(256), MinParams::paper_256().into());
        assert!(parse(&["--topology", "torus"])
            .unwrap_err()
            .contains("unknown topology"));
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
            .contains("unknown routing policy"));
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
            .contains("unknown transport"));
        assert!(parse(&["--transport"])
            .unwrap_err()
            .contains("--transport needs"));
    }

    #[test]
    fn json_none_disables_summaries() {
        let o = parse(&["--json", "none"]).unwrap();
        assert_eq!(o.json_dir, None);
        // --jobs 0 is coerced to 1 rather than an empty pool.
        let o = parse(&["--jobs", "0"]).unwrap();
        assert_eq!(o.jobs, Some(1));
    }

    #[test]
    fn cache_flag_parses() {
        let o = parse(&["--cache", "results/cache"]).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("results/cache")));
        let o = parse(&["--cache", "none"]).unwrap();
        assert_eq!(o.cache_dir, None);
        assert!(parse(&["--cache"]).unwrap_err().contains("--cache needs"));
    }

    #[test]
    fn flag_machinery_renders_usage_and_help() {
        let u = usage();
        assert!(u.starts_with("options:"));
        assert!(u.contains("[--jobs N]"));
        assert!(u.contains("[--cache DIR|none]"));
        assert!(u.contains("[--quick]"), "boolean flags have no metavar");
        let help = render_help(OPTS_FLAGS);
        for d in OPTS_FLAGS {
            assert!(help.contains(d.name), "{} in help", d.name);
            assert!(help.contains(d.help), "{} help text present", d.name);
        }
    }

    #[test]
    fn flag_aliases_map_to_canonical_names() {
        const DEFS: &[FlagDef] = &[FlagDef {
            name: "--quick",
            aliases: &["--small"],
            value: None,
            help: "short run",
        }];
        let parsed =
            parse_flags(["--small".to_owned()], DEFS).expect("deprecated alias still parses");
        assert_eq!(parsed, vec![("--quick", None)]);
        assert!(render_help(DEFS).contains("deprecated alias: --small"));
        let err = parse_flags(["--tiny".to_owned()], DEFS).unwrap_err();
        assert!(err.contains("unknown option --tiny"), "{err}");
    }
}
