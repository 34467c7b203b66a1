//! The `recn` command line: one table of commands, one dispatcher.
//!
//! `recn <command> [options]` — each [`Command`] carries its name, a
//! one-line description, the flag table [`Opts::parse`] reads its
//! arguments against, and the function that runs it. `recn --help` lists
//! the table, `recn <command> --help` renders that command's flags, and
//! an unknown command, flag or value is an `Err` carrying the usage text
//! (the binary prints it and exits 2).

use std::io::Write;

use fabric::{
    render_port, FanoutObserver, RoutingPolicy, SchemeKind, TraceSink, ValidatingObserver,
};
use simcore::Picos;
use topology::{FatTreeParams, MinParams, TopoParams, TopologyKind};
use traffic::corner::CornerCase;

use crate::figures::{self, FIGURES};
use crate::opts::Flag::{
    self, Budget, Cache, Csv, Jobs, Json, JsonFile, Net, Pkt, Quick, Routing, Rung, Stride,
    TimeDiv, Topology, Trace, TraceLast, Transport,
};
use crate::opts::{render_help, usage_line, Opts};
use crate::runner::{scaled_recn_config, summarize, RunOutput, SchemeSet};
use crate::spec::RunSpec;
use crate::sweep::Sweep;
use crate::{ablations, incast, scale, table1};

/// One `recn` command.
pub struct Command {
    /// The word after `recn`.
    pub name: &'static str,
    /// The words the command's positional operand may be (empty: none).
    pub operand: &'static [&'static str],
    /// One-line description for `recn --help`.
    pub about: &'static str,
    /// The flags the command accepts.
    pub flags: &'static [Flag],
    /// Runs the command on its operand (`""` without one) and options.
    pub run: fn(&str, &Opts) -> Result<(), String>,
}

// Each command's table is the flags it reads: anything else is an unknown
// option, not a flag accepted and silently ignored. `fig 6` runs 256 and 512
// hosts, `hotspot` 64 (or 512 on the fat tree).
const FIG_NET: Flag = Net(&[256, 512]);
const HOT_NET: Flag = Net(&[64, 512]);
const FIG_FLAGS: &[Flag] = &[
    Quick, Pkt, Csv, Json, Cache, Jobs, FIG_NET, Stride, Routing, Transport,
];
const HOTSPOT_FLAGS: &[Flag] = &[
    Quick, Pkt, Csv, Json, Cache, Jobs, HOT_NET, Stride, Topology, Routing, Transport,
];

/// Every command of the binary, in `recn --help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "fig",
        operand: &["2", "3", "4", "5", "6", "all"],
        about: "regenerate one of the paper's figures (or all, back to back)",
        flags: FIG_FLAGS,
        run: fig,
    },
    Command {
        name: "table1",
        operand: &[],
        about: "print Table 1 and audit the generators' injection rates",
        flags: &[],
        run: |_, _| table1_audit(),
    },
    Command {
        name: "hotspot",
        operand: &[],
        about:
            "five-scheme hotspot table on --topology min|fattree (routing matrix with --routing)",
        flags: HOTSPOT_FLAGS,
        run: |_, opts| hotspot(opts),
    },
    Command {
        name: "incast",
        operand: &[],
        about: "incast64 flow-completion times, five schemes under --transport",
        flags: &[Quick, Json, Cache, Jobs, Routing, Transport],
        run: |_, opts| out!("{}", incast::render_rows(&incast::incast_sweep(opts), opts)),
    },
    Command {
        name: "ablations",
        operand: &[],
        about: "RECN design ablations and the per-class latency split",
        flags: &[Quick, Pkt, Json, Cache, Jobs, Routing, Transport],
        run: |_, opts| ablation_tables(opts),
    },
    Command {
        name: "validate",
        operand: &[],
        about: "one hotspot run per scheme with the invariant checker on",
        flags: &[Quick, Jobs, Topology, Routing],
        run: |_, opts| validate(opts),
    },
    Command {
        name: "inspect",
        operand: &[],
        about: "mid-congestion port/SAQ state of corner case 2 under RECN",
        flags: &[Quick, Pkt, Trace, TraceLast],
        run: |_, opts| inspect(opts),
    },
    Command {
        name: "scale",
        operand: &[],
        about: "queue-memory scaling ladder ft_64 -> ft_512 -> ft_4096",
        flags: &[Rung, TimeDiv, JsonFile, Budget],
        run: |_, opts| scale::command(opts),
    },
];

impl Command {
    /// `usage: recn <name> [operand]` plus the rendered flag table.
    pub fn help(&self) -> String {
        format!("{}\n{}", self.usage(), render_help(self.flags))
    }

    fn usage(&self) -> String {
        let operand = if self.operand.is_empty() {
            String::new()
        } else {
            format!(" {}", self.operand.join("|"))
        };
        format!("usage: recn {}{operand} [options]", self.name)
    }
}

/// The command list `recn --help` prints.
pub fn overview() -> String {
    let mut s = String::from("usage: recn <command> [options]\ncommands:\n");
    for c in COMMANDS {
        s.push_str(&format!("  {:<10} {}\n", c.name, c.about));
    }
    s.push_str("`recn <command> --help` lists a command's options");
    s
}

/// Writes to the process's stdout for [`out!`] and [`outln!`], the one
/// way a command prints: a reader that went away (`recn table1 | head
/// -c0`) is an `Err` like any other output that cannot be written, not
/// the panic `println!` makes of it.
pub(crate) fn write_stdout(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    std::io::stdout()
        .lock()
        .write_fmt(text)
        .map_err(cannot_write_stdout)
}

fn cannot_write_stdout(e: std::io::Error) -> String {
    format!("cannot write to stdout: {e}")
}

/// Runs `recn` on `args` (without the program name). `Err` is the message
/// to print before exiting with status 2: a usage error, or an input or
/// output the command could not read or write.
pub fn run(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    dispatch(args.into_iter().collect())?;
    // Output that did not end in a newline is still buffered.
    std::io::stdout().flush().map_err(cannot_write_stdout)
}

fn dispatch(args: Vec<String>) -> Result<(), String> {
    match parse(args)? {
        Line::Help(text) => outln!("{text}"),
        Line::Run(cmd, operand, opts) => (cmd.run)(&operand, &opts),
    }
}

/// What a command line asks for, read and checked but not acted on.
enum Line {
    /// Print this help text.
    Help(String),
    /// Run the command on its operand and options.
    Run(&'static Command, String, Box<Opts>),
}

/// Reads a command line without running anything: every usage error is
/// found here.
fn parse(mut args: Vec<String>) -> Result<Line, String> {
    let is_help = |arg: &str| arg == "--help" || arg == "-h";
    if args.is_empty() {
        return Err(overview());
    }
    let name = args.remove(0);
    if is_help(&name) {
        return Ok(Line::Help(overview()));
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name}; {}", overview()))?;
    if args.iter().any(|a| is_help(a)) {
        return Ok(Line::Help(cmd.help()));
    }
    let operand = match args.first() {
        _ if cmd.operand.is_empty() => String::new(),
        Some(word) if cmd.operand.contains(&word.as_str()) => args.remove(0),
        _ => return Err(cmd.usage()),
    };
    let opts = Opts::parse(args, cmd.flags)?;
    // Only fig 6 runs more than one network size.
    if cmd.name == "fig" && opts.net.is_some() && !["6", "all"].contains(&&*operand) {
        let usage = usage_line(cmd.flags);
        return Err(format!(
            "--net is for fig 6 and all, not fig {operand}; {usage}"
        ));
    }
    Ok(Line::Run(cmd, operand, Box::new(opts)))
}

fn fig(which: &str, opts: &Opts) -> Result<(), String> {
    for (n, figure) in FIGURES {
        if which == "all" {
            eprintln!("== Figure {n} ==");
        } else if which != n {
            continue;
        }
        for fig in figure(opts) {
            fig.print(opts)?;
        }
    }
    Ok(())
}

/// Table 1, plus an audit that the generators realize the specified
/// injection rates.
fn table1_audit() -> Result<(), String> {
    out!("{}", table1::render(&table1::spec()))?;
    for (case, corner) in figures::table1_cases() {
        let (bg, hot) = table1::audit_rates(&corner, Picos::from_us(1600));
        outln!(
            "audit case {case}: background {bg:.3} B/ns per source, hotspot {hot:.3} B/ns per source"
        )?;
    }
    Ok(())
}

/// The RECN design ablations and the per-class latency measurement.
fn ablation_tables(opts: &Opts) -> Result<(), String> {
    type Sweep = fn(&Opts) -> Vec<(String, RunOutput)>;
    let tables: [(&str, Sweep); 3] = [
        (
            "SAQ pool size sweep (corner case 2)",
            ablations::saq_pool_sweep,
        ),
        (
            "detection threshold sweep (corner case 2)",
            ablations::detection_sweep,
        ),
        (
            "drain-boost rule (paper §3.8)",
            ablations::drain_boost_ablation,
        ),
    ];
    for (title, sweep) in tables {
        outln!("{}", ablations::render_rows(title, &sweep(opts), opts))?;
    }
    let splits: Vec<_> = [
        SchemeKind::VoqNet,
        SchemeKind::OneQ,
        SchemeKind::Recn(scaled_recn_config(opts.time_div())),
    ]
    .into_iter()
    .map(|s| ablations::latency_split(opts, s))
    .collect();
    outln!("{}", ablations::render_latency(&splits))
}

/// Cross-topology headline table: the five-scheme hotspot comparison on
/// the selected topology — the throughput-over-time table plus the mean
/// throughput inside the congestion window. With `--routing adaptive` the
/// hotspot also runs under deterministic self-routing and the two figures
/// print as the deterministic-vs-adaptive comparison; with `--routing arn`
/// it runs under *both* other policies and the three print as the full
/// {deterministic, adaptive, arn} × scheme matrix (the EXPERIMENTS.md
/// fat-tree headline tables). Each policy runs once.
fn hotspot(opts: &Opts) -> Result<(), String> {
    let fig = figures::topology_hotspot(opts)
        .map_err(|no_preset| format!("{no_preset}; {}", usage_line(HOTSPOT_FLAGS)))?;
    fig.print(opts)?;
    outln!("mean throughput inside the congestion window:")?;
    for l in &fig.series {
        let mean = opts.window_mean(&l.points);
        outln!("  {:>7}: {mean:.3} bytes/ns", l.label)?;
    }
    let under = |routing| {
        figures::topology_hotspot(&Opts {
            routing,
            ..opts.clone()
        })
    };
    if opts.routing.is_arn() {
        let det = under(RoutingPolicy::Deterministic)?;
        let ada = under(RoutingPolicy::adaptive())?;
        outln!()?;
        let matrix = figures::render_scheme_matrix([&det, &ada, &fig], opts);
        out!("{matrix}")?;
    } else if opts.routing.is_adaptive() {
        let det = under(RoutingPolicy::Deterministic)?;
        outln!()?;
        out!("{}", figures::render_routing_comparison(&det, &fig, opts))?;
    }
    Ok(())
}

/// Validation smoke: one corner-case hotspot run per scheme with the
/// online [`ValidatingObserver`] fanned in. The validator panics on the
/// first invariant violation, so finishing at all means every scheme
/// completed its run with zero violations; each run's stable trace digest
/// is printed for eyeballing against the golden-trace suite. `--quick`
/// shortens the run 8× further, `--topology fattree` validates the same
/// matrix on the 64-host 4-ary 3-tree, and `--routing adaptive|arn`
/// reruns it under the late-bound up-port selectors.
fn validate(opts: &Opts) -> Result<(), String> {
    // Time-compressed hotspot: the corner case exercises every RECN path
    // (SAQ allocation, markers, Xon/Xoff, dealloc cascades) while staying
    // fast enough for a CI gate.
    let div = 40 * opts.time_div();
    let horizon = Picos::from_us(1600 / div);
    let (params, corner) = match opts.topology {
        TopologyKind::Min => (
            TopoParams::from(MinParams::paper_64()),
            CornerCase::case2_64(),
        ),
        TopologyKind::FatTree => (
            TopoParams::from(FatTreeParams::ft_64()),
            CornerCase::fattree_64(),
        ),
    };
    let corner = corner.shrunk(div);
    let specs: Vec<RunSpec> = SchemeSet::All
        .schemes_scaled(div)
        .into_iter()
        .map(|scheme| {
            RunSpec::corner(params, scheme, corner)
                .with_horizon(horizon)
                .with_bin(Picos::from_us(2))
                .with_label("validate")
                .with_routing(opts.routing)
                .with_validation(true)
                .with_trace(opts.trace_last)
        })
        .collect();
    let n = specs.len();
    let outs = Sweep::new(specs).jobs(opts.jobs.unwrap_or(0)).run();
    for out in &outs {
        let digest = out
            .trace_digest
            .ok_or("validate: a traced run returned no trace digest")?;
        outln!("{}  trace digest {digest:#018x}", summarize(out))?;
    }
    outln!("{n} schemes validated: zero invariant violations")
}

/// Mid-congestion state inspector: runs corner case 2 under RECN to the
/// middle of the congestion window and prints the most loaded ports with
/// their SAQ state — a window into how the congestion tree is isolated.
/// With `--trace FILE` the run records an event trace (ring capacity
/// `--trace-last N`, digest over the whole run) and writes it to FILE as
/// JSONL; every run also rides a [`ValidatingObserver`], so reaching the
/// report at all means no lossless invariant broke on the way there.
fn inspect(opts: &Opts) -> Result<(), String> {
    let div = opts.time_div();
    let spec = ablations::corner2_spec(opts, SchemeKind::Recn(scaled_recn_config(div)));

    let (validator, vhandle) = ValidatingObserver::new();
    let mut fan = FanoutObserver::new().push(Box::new(validator));
    let mut trace = None;
    if opts.trace_file.is_some() {
        let (sink, handle) = TraceSink::new(opts.trace_last, "inspect case2_64 RECN");
        fan = fan.push(Box::new(sink));
        trace = Some(handle);
    }

    let net = spec.network(Box::new(fan));
    let mut engine = net.build_engine();
    // Halt in the middle of the congestion window (paper: 800–970 µs).
    engine.run_until(Picos::from_us(885 / div));
    let net = engine.model();
    let c = net.counters();
    outln!(
        "t = {} — census {:?} | allocs {} deallocs {} rejects {} markers {} xoff/xon {}/{} roots {}/{}",
        engine.now(),
        net.saq_census(),
        c.saq_allocs,
        c.saq_deallocs,
        c.recn_rejects,
        c.markers,
        c.xoffs,
        c.xons,
        c.root_activations,
        c.root_clears,
    )?;
    outln!(
        "validated {} events: {} in flight, {} SAQs live, {} source drops",
        vhandle.events_checked(),
        vhandle.in_flight(),
        vhandle.live_saqs(),
        vhandle.drop_attempts().0,
    )?;
    let (pi, po, pn) = net.peak_occupancies();
    outln!("peak buffer occupancy: inputs {pi}B, outputs {po}B, NICs {pn}B\n")?;
    for (name, snap) in net.hottest_ports(24) {
        outln!("{}", render_port(&name, &snap))?;
    }
    if let (Some(handle), Some(path)) = (trace, &opts.trace_file) {
        std::fs::write(path, handle.render_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "wrote {} ({} of {} events retained, digest {:#018x})",
            path.display(),
            handle.retained(),
            handle.recorded(),
            handle.digest(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flag names each command's `--help` lists are exactly the ones
    /// the command reads.
    #[test]
    fn flag_surface_is_the_binaries() {
        let expected: [(&str, &[&str]); 8] = [
            (
                "fig",
                &[
                    "--quick",
                    "--pkt",
                    "--csv",
                    "--json",
                    "--cache",
                    "--jobs",
                    "--net",
                    "--stride",
                    "--routing",
                    "--transport",
                ],
            ),
            ("table1", &[]),
            (
                "hotspot",
                &[
                    "--quick",
                    "--pkt",
                    "--csv",
                    "--json",
                    "--cache",
                    "--jobs",
                    "--net",
                    "--stride",
                    "--topology",
                    "--routing",
                    "--transport",
                ],
            ),
            (
                "incast",
                &[
                    "--quick",
                    "--json",
                    "--cache",
                    "--jobs",
                    "--routing",
                    "--transport",
                ],
            ),
            (
                "ablations",
                &[
                    "--quick",
                    "--pkt",
                    "--json",
                    "--cache",
                    "--jobs",
                    "--routing",
                    "--transport",
                ],
            ),
            (
                "validate",
                &["--quick", "--jobs", "--topology", "--routing"],
            ),
            ("inspect", &["--quick", "--pkt", "--trace", "--trace-last"]),
            ("scale", &["--net", "--time-div", "--json", "--budget"]),
        ];
        assert_eq!(COMMANDS.len(), expected.len());
        for (cmd, (name, flags)) in COMMANDS.iter().zip(expected) {
            assert_eq!(cmd.name, name);
            let names: Vec<&str> = cmd.flags.iter().map(|f| f.name()).collect();
            assert_eq!(names, flags, "{name}");
            let help = cmd.help();
            for flag in flags {
                assert!(help.contains(flag), "{name} --help lists {flag}");
            }
            assert!(overview().contains(cmd.about));
        }
    }

    /// Usage errors surface as `Err` with a usage line, before any
    /// simulation starts — never as a panic.
    #[test]
    fn bad_commands_and_operands_are_usage_errors() {
        let run = |words: &[&str]| run(words.iter().map(|s| s.to_string()));
        let cases: [(&[&str], &str); 11] = [
            (&[], "usage: recn <command>"),
            (&["nosuch"], "unknown command nosuch; usage: recn <command>"),
            (&["fig"], "usage: recn fig 2|3|4|5|6|all"),
            (&["fig", "7"], "usage: recn fig 2|3|4|5|6|all"),
            (&["table1", "--quick"], "unknown option --quick; options:"),
            // A flag another command reads is not silently ignored here.
            (
                &["validate", "--transport", "pfc"],
                "unknown option --transport; options: [--quick] [--jobs N]",
            ),
            (
                &["incast", "--pkt", "512"],
                "unknown option --pkt; options: [--quick] [--json DIR|none]",
            ),
            (
                &["inspect", "--routing", "arn"],
                "unknown option --routing; options: [--quick] [--pkt 64|512]",
            ),
            (
                &["hotspot", "--net", "512"],
                "--net 512 needs --topology fattree; options:",
            ),
            // Only fig 6 (and all) reads --net.
            (
                &["fig", "2", "--net", "256"],
                "--net is for fig 6 and all, not fig 2; options: [--quick]",
            ),
            (
                &["fig", "5", "--quick", "--net", "512"],
                "--net is for fig 6 and all, not fig 5; options: [--quick]",
            ),
        ];
        for (words, needle) in cases {
            let err = run(words).expect_err(&words.join(" "));
            assert!(err.contains(needle), "{words:?}: {err}");
        }
    }

    /// Mutants of real command lines — words dropped, repeated or swapped,
    /// values replaced by odd numbers, set non-members or other flags'
    /// names — read by the parse half only (nothing runs): each is a usage
    /// error carrying its usage line, or options holding admitted values.
    #[test]
    fn mutated_command_lines_are_usage_errors_or_admitted_values() {
        let lines = [
            "fig 6 --quick --pkt 512 --net 256 --jobs 2",
            "fig all --stride 3 --csv c --json none --net 512",
            "hotspot --topology fattree --net 512 --routing arn",
            "incast --quick --transport gbn --cache c --jobs 4",
            "ablations --pkt 64 --routing adaptive --json j",
            "validate --quick --jobs 1 --topology min",
            "inspect --pkt 512 --trace t --trace-last 100",
            "scale --net 4096 --time-div 256 --json s --budget 9",
        ];
        let odd = ["", "0", "-1", "18446744073709551616", "100", "256", "4096"];
        let names: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags)
            .map(|f| f.name())
            .collect();
        let mut rng = simcore::Xoshiro256::new(43);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let (mut refused, mut admitted) = (0, 0);
        for _ in 0..2000 {
            let line = lines[pick(lines.len())];
            let mut words: Vec<String> = line.split(' ').map(str::to_owned).collect();
            for _ in 0..1 + pick(2) {
                let (i, j) = (pick(words.len()), pick(words.len()));
                // A value follows a flag that takes one.
                let values: Vec<usize> = (1..words.len())
                    .filter(|&k| words[k - 1].starts_with("--") && words[k - 1] != "--quick")
                    .collect();
                let v = values.get(pick(values.len().max(1))).copied().unwrap_or(i);
                match pick(5) {
                    0 => drop(words.remove(i)),
                    1 => words.insert(i, words[j].clone()),
                    2 => words.swap(i, j),
                    3 => words[v] = odd[pick(odd.len())].to_owned(),
                    _ => words[v] = names[pick(names.len())].to_owned(),
                }
                if words.is_empty() {
                    break;
                }
            }
            let cmd = COMMANDS
                .iter()
                .find(|c| words.first().is_some_and(|w| w == c.name));
            match parse(words.clone()) {
                Err(e) => {
                    refused += 1;
                    let fixed = ["unknown command ", "unknown option ", "usage: recn "];
                    let known = fixed.iter().any(|k| e.starts_with(k))
                        || e.starts_with("--net is for fig ")
                        || names.iter().any(|n| {
                            e.starts_with(&format!("{n} needs "))
                                || e.starts_with(&format!("{n} expects "))
                        });
                    assert!(known, "{words:?}: {e}");
                    let usage = match cmd {
                        None => overview(),
                        Some(c) if e.starts_with("usage: ") => c.usage(),
                        Some(c) => usage_line(c.flags),
                    };
                    assert!(e.ends_with(&usage), "{words:?}: {e}");
                }
                Ok(Line::Help(_)) => panic!("{words:?} asked for help"),
                Ok(Line::Run(cmd, operand, o)) => {
                    admitted += 1;
                    let net = cmd.flags.iter().find(|f| f.name() == "--net");
                    let nets = net.and_then(|f| f.sizes()).unwrap_or_default();
                    assert!(o.net.is_none_or(|n| nets.contains(&n.into())), "{words:?}");
                    let fig_net = cmd.name == "fig" && o.net.is_some();
                    assert!(!fig_net || ["6", "all"].contains(&&*operand), "{words:?}");
                    assert!(o.pkt.is_none_or(|p| p == 64 || p == 512), "{words:?}");
                    let counts = [o.jobs.unwrap_or(1), o.stride, o.trace_last];
                    assert!(counts.iter().all(|&n| n >= 1) && o.scale_div >= 1, "{o:?}");
                }
            }
        }
        assert!(
            refused > 1000 && admitted > 100,
            "{refused} refused, {admitted} admitted"
        );
    }

    /// Every `--topology` × `--net` pair `recn hotspot`'s parser admits
    /// either has a preset or is the command's `Err` before any run: no
    /// pair reaches a run without a network.
    #[test]
    fn every_hotspot_topology_and_net_has_a_preset_or_an_error() {
        let nets = HOTSPOT_FLAGS
            .iter()
            .find_map(|f| match f {
                Net(set) => Some(*set),
                _ => None,
            })
            .expect("hotspot takes --net");
        assert_eq!(nets, [64, 512]);
        let mut refused = Vec::new();
        for topology in ["min", "fattree"] {
            for net in [None].into_iter().chain(nets.iter().map(Some)) {
                let mut words = vec!["--topology".to_owned(), topology.to_owned()];
                words.extend(
                    net.map(|n| ["--net".to_owned(), n.to_string()])
                        .into_iter()
                        .flatten(),
                );
                let opts = Opts::parse(words.clone(), HOTSPOT_FLAGS).expect("in the table");
                let hosts = opts.net.unwrap_or(64);
                if let Err(e) = figures::hotspot_preset(opts.topology, hosts) {
                    let command = ["hotspot".to_owned()].into_iter().chain(words.clone());
                    let err = run(command).expect_err("no preset, no run");
                    assert!(err.starts_with(&format!("{e}; options:")), "{err}");
                    refused.push(words.join(" "));
                }
            }
        }
        assert_eq!(refused, ["--topology min --net 512"]);
        let parsed = Opts::parse(["--net".to_owned(), "256".to_owned()], HOTSPOT_FLAGS);
        assert!(
            parsed.is_err(),
            "the parser refuses sizes outside its table"
        );
        let cases = figures::table1_cases().map(|(case, corner)| (case, corner.hosts));
        assert_eq!(
            cases,
            [(1, 64), (2, 64)],
            "fig 2 and 4 run both corner cases"
        );
    }

    /// An output path that cannot be written is the command's `Err` (one
    /// line, nonzero exit), not a panic after the sweep has run.
    #[test]
    fn unwritable_csv_dir_is_an_error_not_a_panic() {
        // A regular file where `--csv` wants a directory.
        let blocker = std::env::temp_dir().join(format!("recn_cli_csv_{}", std::process::id()));
        std::fs::write(&blocker, "").expect("temp dir is writable");
        let words = ["fig", "4", "--quick", "--json", "none", "--csv"];
        let csv = blocker.to_string_lossy().into_owned();
        let result = run(words.iter().map(|s| s.to_string()).chain([csv]));
        std::fs::remove_file(&blocker).expect("blocker still a file");
        let err = result.expect_err("fig 4 wrote CSVs under a regular file");
        assert!(err.starts_with("cannot write "), "{err}");
    }
}
