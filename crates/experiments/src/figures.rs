//! One function per figure of the paper ([`FIGURES`] is the table `recn fig`
//! dispatches through).
//!
//! A figure is a list of panels: each panel names its runs as [`RunSpec`]s
//! and says what it plots of them (one throughput curve per run, or a run's
//! three SAQ curves). One function, `run_panels`, submits every panel of a
//! figure in a single [`Sweep`](crate::sweep::Sweep) (via [`Opts::sweep`]),
//! so the whole figure is bound by its slowest simulation instead of the sum
//! of all of them, and splits the outputs back into one [`Figure`] per
//! panel. Outputs come back in submission order, which keeps the tables and
//! CSVs bit-identical to a serial run. Whatever else a figure shows (fig 2's
//! zoom, fig 4's peaks, fig 6's SAQ panel, the routing comparisons of `recn
//! hotspot`) is derived from the returned figures, never from another run.

use metrics::report::{render_csv, render_table, thin, Labeled};
use topology::{FatTreeParams, MinParams, TopoParams, TopologyKind};
use traffic::corner::CornerCase;
use traffic::san::SanParams;

use crate::opts::Opts;
use crate::runner::{summarize, RunOutput, SchemeSet};
use crate::sweep::RunSpec;

/// A figure regenerator: runs the figure's sweep and returns its panels.
pub type FigureFn = fn(&Opts) -> Vec<Figure>;

/// The paper's figures by number: what `recn fig N` runs, and `recn fig
/// all` walks in order.
pub const FIGURES: [(&str, FigureFn); 5] = [
    ("2", fig2),
    ("3", fig3),
    ("4", fig4),
    ("5", fig5),
    ("6", fig6),
];

/// A reproduced figure: its labeled series plus run summaries.
#[derive(Debug)]
pub struct Figure {
    /// Figure identifier (e.g. "fig2a").
    pub name: String,
    /// Human title.
    pub title: String,
    /// The curves.
    pub series: Vec<Labeled>,
    /// Per-run outputs, for summaries and assertions.
    pub runs: Vec<RunOutput>,
}

impl Figure {
    /// Prints the figure as a text table (thinned by `opts.stride`) and
    /// optionally CSV, plus per-run summaries.
    ///
    /// # Errors
    ///
    /// Stdout is closed, or `--csv` names a directory that cannot be
    /// written.
    pub fn print(&self, opts: &Opts) -> Result<(), String> {
        let thinned: Vec<Labeled> = self
            .series
            .iter()
            .map(|l| Labeled::new(l.label.clone(), thin(&l.points, opts.stride)))
            .collect();
        outln!(
            "{}",
            render_table(&format!("{} — {}", self.name, self.title), &thinned)
        )?;
        for r in &self.runs {
            outln!("  {}", summarize(r))?;
        }
        outln!()?;
        opts.maybe_write_csv(&self.name, &render_csv(&self.series))
    }
}

/// What a panel plots of each of its runs.
#[derive(Clone, Copy)]
enum Plot {
    /// One throughput curve per run, labelled by its scheme.
    Throughput,
    /// The run's three SAQ curves: max at any ingress port, max at any
    /// egress port, network total.
    Saq,
}

/// One panel of a figure: its runs and what it plots of them.
struct Panel {
    name: String,
    title: String,
    specs: Vec<RunSpec>,
    plot: Plot,
}

/// Runs every panel in one sweep named `sweep` and splits the outputs back
/// into one [`Figure`] per panel, in panel order: the one place a figure's
/// outputs are split.
fn run_panels(opts: &Opts, sweep: &str, panels: Vec<Panel>) -> Vec<Figure> {
    let specs = panels
        .iter()
        .flat_map(|p| p.specs.iter().cloned())
        .collect();
    let mut outs = opts.sweep(sweep, specs).into_iter();
    panels
        .into_iter()
        .map(|p| {
            let runs: Vec<RunOutput> = outs.by_ref().take(p.specs.len()).collect();
            let series = runs
                .iter()
                .flat_map(|r| match p.plot {
                    Plot::Throughput => vec![Labeled::new(r.scheme, r.throughput.clone())],
                    Plot::Saq => r.saq.labeled(),
                })
                .collect();
            Figure {
                name: p.name,
                title: p.title,
                series,
                runs,
            }
        })
        .collect()
}

/// Table 1's two corner cases on the paper's 64-host MIN, by number.
pub(crate) fn table1_cases() -> [(u8, CornerCase); 2] {
    [(1, CornerCase::case1_64()), (2, CornerCase::case2_64())]
}

/// Corner case `base` on `params` under `scheme`, at the command line's
/// packet size and time compression (horizon and bin from [`Opts`]): the
/// run every corner-case figure, the hotspot table, the ablations and `recn
/// inspect` are made of.
pub(crate) fn corner_spec(
    opts: &Opts,
    params: impl Into<TopoParams>,
    scheme: fabric::SchemeKind,
    base: CornerCase,
) -> RunSpec {
    let corner = base
        .with_msg_bytes(opts.packet_size())
        .shrunk(opts.time_div());
    RunSpec::corner(params, scheme, corner)
        .with_packet_size(opts.packet_size())
        .with_horizon(opts.horizon())
        .with_bin(opts.bin())
}

/// Figure 2: network throughput over time for corner cases 1 and 2 under
/// all five mechanisms (64-host MIN, 64-byte packets), plus the
/// RECN-vs-VOQnet zoom of Figures 2c/2d around the congestion-tree window.
pub fn fig2(opts: &Opts) -> Vec<Figure> {
    let schemes = SchemeSet::All.schemes_scaled(opts.time_div());
    let panels = table1_cases()
        .into_iter()
        .zip(['a', 'b'])
        .map(|((case, base), sub)| {
            let name = format!("fig2{sub}");
            Panel {
                title: format!(
                    "network throughput (bytes/ns), corner case {case}, {}B packets",
                    opts.packet_size()
                ),
                specs: schemes
                    .iter()
                    .map(|&s| corner_spec(opts, MinParams::paper_64(), s, base).with_label(&name))
                    .collect(),
                name,
                plot: Plot::Throughput,
            }
        })
        .collect();
    let mut figures = run_panels(opts, "fig2", panels);
    // 2c/2d: zoom of RECN vs VOQnet around the hotspot window.
    let from = 750.0 / opts.time_div() as f64;
    let to = 1100.0 / opts.time_div() as f64;
    let zoom = |l: &Labeled| {
        let points = l.points.iter().copied();
        let points = points.filter(|p| p.t_us >= from && p.t_us < to).collect();
        Labeled::new(l.label.clone(), points)
    };
    let zoomed: Vec<Figure> = figures
        .iter()
        .zip(['c', 'd'])
        .enumerate()
        .map(|(idx, (f, sub))| Figure {
            name: format!("fig2{sub}"),
            title: format!("zoom on the congestion window, corner case {}", idx + 1),
            series: f
                .series
                .iter()
                .filter(|l| l.label == "RECN" || l.label == "VOQnet")
                .map(zoom)
                .collect(),
            runs: Vec::new(),
        })
        .collect();
    figures.extend(zoomed);
    figures
}

/// Figure 3: throughput over time replaying the (synthetic) SAN traces at
/// compression factors 20 and 40.
pub fn fig3(opts: &Opts) -> Vec<Figure> {
    san_figures(
        opts,
        SchemeSet::TraceComparison,
        "fig3",
        "network throughput (bytes/ns)",
        Plot::Throughput,
    )
}

/// Figure 4: SAQ utilization over time for the corner cases (RECN):
/// max at any ingress port, max at any egress port, network total.
pub fn fig4(opts: &Opts) -> Vec<Figure> {
    let recn = SchemeSet::RecnOnly.schemes_scaled(opts.time_div())[0];
    let panels = table1_cases()
        .into_iter()
        .map(|(case, base)| {
            let name = format!("fig4_case{case}");
            Panel {
                title: format!("SAQ utilization, corner case {case}"),
                specs: vec![corner_spec(opts, MinParams::paper_64(), recn, base).with_label(&name)],
                name,
                plot: Plot::Saq,
            }
        })
        .collect();
    let mut figures = run_panels(opts, "fig4", panels);
    for f in &mut figures {
        let peaks = f.runs[0].saq_peaks;
        f.title = format!("{} (peaks {peaks:?})", f.title);
    }
    figures
}

/// Figure 5: SAQ utilization over time for the SAN traces (RECN).
pub fn fig5(opts: &Opts) -> Vec<Figure> {
    san_figures(
        opts,
        SchemeSet::RecnOnly,
        "fig5",
        "SAQ utilization",
        Plot::Saq,
    )
}

fn san_figures(opts: &Opts, set: SchemeSet, prefix: &str, what: &str, plot: Plot) -> Vec<Figure> {
    let schemes = set.schemes_scaled(opts.time_div());
    let panels = [20.0, 40.0]
        .into_iter()
        .map(|compression| {
            let name = format!("{prefix}_c{}", compression as u32);
            let spec = |scheme| {
                RunSpec::san(scheme, SanParams::cello_like(compression))
                    .with_packet_size(opts.packet_size())
                    .with_horizon(opts.horizon())
                    .with_bin(opts.bin())
                    .with_label(&name)
            };
            Panel {
                title: format!("{what}, SAN traces, compression {compression}x"),
                specs: schemes.iter().map(|&s| spec(s)).collect(),
                name,
                plot,
            }
        })
        .collect();
    run_panels(opts, prefix, panels)
}

/// Figure 6: throughput and RECN SAQ utilization on the 256- and 512-host
/// networks under the scaled corner case 2.
pub fn fig6(opts: &Opts) -> Vec<Figure> {
    let nets: Vec<(u32, MinParams, CornerCase)> = [
        (256, MinParams::paper_256(), CornerCase::case2_256()),
        (512, MinParams::paper_512(), CornerCase::case2_512()),
    ]
    .into_iter()
    .filter(|(hosts, ..)| opts.net.is_none_or(|n| n == *hosts))
    .collect();
    // Threshold scaling is capped at 2x for the large networks: their
    // saturated uniform traffic legitimately builds multi-KB queues, so
    // fully time-scaled (sub-KB) detection thresholds would flag every
    // transient as a congestion tree. The hotspot still fills an 8 KB
    // root queue within the compressed window.
    let schemes = SchemeSet::Scalability.schemes_scaled(opts.time_div().min(2));
    let panels = nets
        .iter()
        .map(|&(hosts, params, base)| Panel {
            name: format!("fig6_{hosts}_throughput"),
            title: format!("network throughput (bytes/ns), {hosts}-host MIN, corner case 2"),
            specs: schemes
                .iter()
                .map(|&s| corner_spec(opts, params, s, base).with_label(format!("fig6_{hosts}")))
                .collect(),
            plot: Plot::Throughput,
        })
        .collect();
    run_panels(opts, "fig6", panels)
        .into_iter()
        .zip(&nets)
        .flat_map(|(throughput, (hosts, ..))| {
            let saq = Figure {
                name: format!("fig6_{hosts}_saq"),
                title: format!("RECN SAQ utilization, {hosts}-host MIN"),
                series: throughput
                    .runs
                    .iter()
                    .filter(|r| r.scheme == "RECN")
                    .flat_map(|r| r.saq.labeled())
                    .collect(),
                runs: Vec::new(),
            };
            [throughput, saq]
        })
        .collect()
}

/// The five-scheme hotspot comparison on the topology selected by
/// `--topology`: corner case 2 on the paper's 64-host MIN, or the strided
/// hotspot scenario on the 4-ary 3-tree (one attacker per leaf switch, so
/// the congestion tree spans every level). `--net 512` on the fat tree
/// swaps in the 8-ary 3-tree and its strided-gang hotspot — the scale the
/// EXPERIMENTS.md routing-matrix tables are produced at. One throughput
/// curve per scheme — `recn hotspot` renders this as the cross-topology
/// headline table, and one such figure per routing policy as
/// [`render_routing_comparison`] and [`render_scheme_matrix`].
///
/// A `(topology, net)` pair without a preset is an `Err`, before any run.
pub fn topology_hotspot(opts: &Opts) -> Result<Figure, String> {
    let hosts = opts.net.unwrap_or(64);
    let (params, base, desc) = hotspot_preset(opts.topology, hosts)?;
    // Each routing policy gets its own summary file, so the figures of one
    // routing comparison never overwrite each other; a non-default network
    // size gets its own file too.
    let mut name = format!("hotspot_{}", opts.topology.name());
    if hosts != 64 {
        name += &hosts.to_string();
    }
    if opts.routing.is_adaptive() {
        name += &format!("_{}", opts.routing.name());
    }
    let panel = Panel {
        title: format!(
            "network throughput (bytes/ns), {desc}, {}B packets",
            opts.packet_size()
        ),
        specs: SchemeSet::All
            .schemes_scaled(opts.time_div())
            .into_iter()
            .map(|s| corner_spec(opts, params, s, base).with_label(&name))
            .collect(),
        name: name.clone(),
        plot: Plot::Throughput,
    };
    Ok(run_panels(opts, &name, vec![panel]).remove(0))
}

/// The network, hotspot and description [`topology_hotspot`] runs for a
/// topology family at `hosts` endnodes; `Err` for a pair without one.
pub(crate) fn hotspot_preset(
    topology: TopologyKind,
    hosts: u32,
) -> Result<(TopoParams, CornerCase, &'static str), String> {
    Ok(match (topology, hosts) {
        (TopologyKind::Min, 64) => (
            TopoParams::from(MinParams::paper_64()),
            CornerCase::case2_64(),
            "64-host MIN, corner case 2",
        ),
        (TopologyKind::FatTree, 64) => (
            TopoParams::from(FatTreeParams::ft_64()),
            CornerCase::fattree_64(),
            "64-host 4-ary 3-tree, one-attacker-per-leaf hotspot",
        ),
        (TopologyKind::FatTree, 512) => (
            TopoParams::from(FatTreeParams::ft_512()),
            CornerCase::fattree_512(),
            "512-host 8-ary 3-tree, one-attacker-per-leaf hotspot",
        ),
        (TopologyKind::Min, 512) => return Err("--net 512 needs --topology fattree".to_owned()),
        (topology, _) => {
            let name = topology.name();
            return Err(format!("no {name} hotspot preset at {hosts} hosts"));
        }
    })
}

/// The full {deterministic, adaptive, arn} × scheme matrix of three
/// [`topology_hotspot`] figures of one network, in that routing order: one
/// row per scheme, the congestion-window mean throughput under each policy,
/// the network-wide SAQ peaks and the ARN notification count.
pub fn render_scheme_matrix([det, ada, arn]: [&Figure; 3], opts: &Opts) -> String {
    let mut s =
        String::from("congestion-window mean throughput (bytes/ns), routing × scheme matrix\n");
    s.push_str(
        "scheme   deterministic   adaptive        arn   peak SAQs (det/ada/arn)   arn-notifs\n",
    );
    let runs = det.runs.iter().zip(&ada.runs).zip(&arn.runs);
    for ((d, a), n) in runs {
        s.push_str(&format!(
            "{:>6}   {:>13.2}   {:>8.2}   {:>8.2}   {:>9}   {:>10}\n",
            d.scheme,
            opts.window_mean(&d.throughput),
            opts.window_mean(&a.throughput),
            opts.window_mean(&n.throughput),
            format!("{}/{}/{}", d.saq_peaks.2, a.saq_peaks.2, n.saq_peaks.2),
            n.counters.arn_hot_notifications,
        ));
    }
    s
}

/// The deterministic-vs-adaptive comparison of two [`topology_hotspot`]
/// figures of one network: one row per scheme, the congestion-window means,
/// their difference and the network-wide SAQ peaks.
pub fn render_routing_comparison(det: &Figure, ada: &Figure, opts: &Opts) -> String {
    let mut s =
        String::from("congestion-window mean throughput (bytes/ns), deterministic vs adaptive\n");
    s.push_str("scheme   deterministic   adaptive      delta   peak SAQs (det -> adaptive)\n");
    for (d, a) in det.runs.iter().zip(&ada.runs) {
        let (d_mean, a_mean) = (
            opts.window_mean(&d.throughput),
            opts.window_mean(&a.throughput),
        );
        s.push_str(&format!(
            "{:>6}   {:>13.2}   {:>8.2}   {:>+8.2}   {:>9} -> {}\n",
            d.scheme,
            d_mean,
            a_mean,
            a_mean - d_mean,
            d.saq_peaks.2,
            a.saq_peaks.2,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Opts {
        Opts {
            quick: true,
            stride: 8,
            ..Opts::default()
        }
    }

    /// A figure prints under the library's default options, which are
    /// the command line's (row stride 4), not a zero stride.
    #[test]
    fn a_figure_prints_under_the_default_options() {
        let points = [0.0, 5.0].map(|t_us| simcore::SeriesPoint { t_us, value: 1.0 });
        let fig = Figure {
            name: "hand".to_owned(),
            title: "two points".to_owned(),
            series: vec![Labeled::new("RECN", points.into())],
            runs: Vec::new(),
        };
        fig.print(&Opts::default()).expect("stdout is writable");
    }

    /// The run of `scheme` in a figure.
    fn run<'a>(fig: &'a Figure, scheme: &str) -> &'a RunOutput {
        fig.runs.iter().find(|r| r.scheme == scheme).unwrap()
    }

    /// The congestion-window mean of `scheme`'s curve in a figure.
    fn mean(fig: &Figure, scheme: &str) -> f64 {
        let curve = fig.series.iter().find(|l| l.label == scheme).unwrap();
        quick_opts().window_mean(&curve.points)
    }

    /// The quick fat-tree hotspot figure under `routing`.
    fn fattree_hotspot(routing: fabric::RoutingPolicy) -> Figure {
        let opts = Opts {
            topology: TopologyKind::FatTree,
            routing,
            ..quick_opts()
        };
        topology_hotspot(&opts).expect("a preset")
    }

    #[test]
    fn fig2_quick_shapes_hold() {
        let figs = fig2(&quick_opts());
        assert_eq!(figs.len(), 4);
        let f2a = &figs[0];
        assert_eq!(f2a.series.len(), 5);
        let get = |name: &str| mean(f2a, name);
        let means: Vec<(&str, f64)> = ["VOQnet", "1Q", "RECN"].map(|s| (s, get(s))).into();
        // The paper's ordering inside the congestion window:
        // RECN ≈ VOQnet, both above 1Q. (The 8× time compression leaves the
        // tree only ~21 µs to develop, so the 1Q degradation is milder than
        // at paper scale — the assertions check ordering, not magnitude.)
        assert!(get("RECN") > 0.9 * get("VOQnet"), "{means:?}");
        assert!(get("RECN") > get("1Q") + 1.0, "{means:?}");
        assert!(get("VOQnet") > get("1Q") + 1.0, "{means:?}");
        // Zoom figures carry only the two reference curves.
        assert_eq!(figs[2].series.len(), 2);
    }

    #[test]
    fn fattree_hotspot_quick_recn_wins() {
        let fig = fattree_hotspot(fabric::RoutingPolicy::Deterministic);
        assert_eq!(fig.name, "hotspot_fattree");
        assert_eq!(fig.series.len(), 5);
        let get = |name: &str| mean(&fig, name);
        let means: Vec<(&str, f64)> = ["VOQnet", "1Q", "RECN"].map(|s| (s, get(s))).into();
        // The fat tree has full bisection bandwidth, so the congestion tree
        // only costs the blocking schemes ~1 byte/ns inside the window — but
        // the HOL-blocking ordering still holds: RECN recovers the ideal
        // VOQnet throughput while 1Q pays for sharing queues with the
        // hotspot flows.
        assert!(get("RECN") > 0.97 * get("VOQnet"), "{means:?}");
        assert!(get("RECN") > get("1Q") + 0.4, "{means:?}");
        assert!(get("VOQnet") > get("1Q") + 0.4, "{means:?}");
        // RECN must actually have built a congestion tree to earn the win.
        assert!(
            run(&fig, "RECN").saq_peaks.2 > 0,
            "hotspot must allocate SAQs"
        );
    }

    #[test]
    fn fattree_adaptive_quick_beats_deterministic_where_it_should() {
        let ada = fattree_hotspot(fabric::RoutingPolicy::adaptive());
        assert_eq!(ada.name, "hotspot_fattree_adaptive");
        let det = fattree_hotspot(fabric::RoutingPolicy::Deterministic);
        let table = render_routing_comparison(&det, &ada, &quick_opts());
        assert_eq!(table.lines().count(), 2 + 5, "{table}");
        // The acceptance shape of the adaptive experiment: spreading the
        // victims' climbs across roots helps exactly the scheme that
        // shares queues with the hotspot (1Q), while RECN+adaptive holds
        // the ideal VOQnet throughput and segregates *less* (the rebound
        // climbs dodge the roots the gang saturates, so fewer upstream
        // ports ever cross the detection threshold).
        assert!(
            mean(&ada, "1Q") > mean(&det, "1Q"),
            "adaptive 1Q must strictly improve: {table}"
        );
        assert!(
            mean(&ada, "RECN") >= 0.95 * mean(&ada, "VOQnet"),
            "RECN+adaptive must stay within 5% of VOQnet: {table}"
        );
        let (det_saqs, ada_saqs) = (run(&det, "RECN").saq_peaks.2, run(&ada, "RECN").saq_peaks.2);
        assert!(
            ada_saqs < det_saqs,
            "adaptivity must reduce SAQ allocations: {det_saqs} -> {ada_saqs}"
        );
    }

    #[test]
    fn fattree_arn_quick_matrix_holds() {
        let arn = fattree_hotspot(fabric::RoutingPolicy::arn());
        assert_eq!(arn.name, "hotspot_fattree_arn");
        let det = fattree_hotspot(fabric::RoutingPolicy::Deterministic);
        let ada = fattree_hotspot(fabric::RoutingPolicy::adaptive());
        let table = render_scheme_matrix([&det, &ada, &arn], &quick_opts());
        assert_eq!(
            table.lines().count(),
            2 + 5,
            "full five-scheme matrix: {table}"
        );
        let hot = |r: &RunOutput| r.counters.arn_hot_notifications;
        for ((d, a), n) in det.runs.iter().zip(&ada.runs).zip(&arn.runs) {
            // Notifications exist only under ARN routing...
            assert_eq!(hot(d), 0, "{}: {table}", d.scheme);
            assert_eq!(hot(a), 0, "{}: {table}", a.scheme);
            assert!(mean(&arn, n.scheme) > 0.0, "{}: {table}", n.scheme);
        }
        // ...and the RECN run's come from the congested-root CAM trigger
        // (roots demonstrably formed: nonzero SAQ peak).
        let recn = run(&arn, "RECN");
        assert!(hot(recn) > 0, "{table}");
        assert!(recn.saq_peaks.2 > 0, "{table}");
        // The occupancy trigger covers at least one non-RECN scheme even
        // in the mild quick-mode hotspot.
        assert!(
            arn.runs.iter().any(|r| r.scheme != "RECN" && hot(r) > 0),
            "{table}"
        );
        // The headline verdict must survive the extra signal: RECN+ARN
        // stays within 5% of the ideal VOQnet under the same routing.
        assert!(mean(&arn, "RECN") >= 0.95 * mean(&arn, "VOQnet"), "{table}");
        assert!(table.contains("RECN"));
    }

    #[test]
    fn fig4_quick_saq_counts_small() {
        let figs = fig4(&quick_opts());
        assert_eq!(figs.len(), 2);
        for f in &figs {
            let run = &f.runs[0];
            assert!(run.saq_peaks.2 > 0, "hotspot must allocate SAQs");
            assert!(
                run.saq_peaks.0 <= 8 && run.saq_peaks.1 <= 8,
                "per-port SAQ demand stays within the 8 configured: {:?}",
                run.saq_peaks
            );
        }
    }
}
