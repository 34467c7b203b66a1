//! Ablation studies of RECN's design choices (beyond the paper's figures,
//! but directly supporting its §3 arguments):
//!
//! * **SAQ pool size** — the paper uses 8 SAQs/port and says 64 fit in the
//!   reclaimed VOQ RAM. How few are enough, and what do rejections cost?
//! * **Detection threshold** — reaction latency vs spurious trees.
//! * **Drain boost (§3.8)** — how much faster do lingering SAQs empty?
//! * **Victim latency** — per-class packet latency (hotspot vs innocent
//!   flows), the end-user view of HOL blocking.

use std::cell::RefCell;
use std::rc::Rc;

use fabric::{NetObserver, Packet, SchemeKind};
use recn::RecnConfig;
use simcore::{Picos, Running};
use topology::{HostId, MinParams};
use traffic::corner::CornerCase;

use crate::figures::corner_spec;
use crate::opts::Opts;
use crate::runner::{scaled_recn_config, RunOutput};
use crate::sweep::RunSpec;

/// Corner case 2 on the 64-host MIN under `scheme`, sized and compressed
/// by `opts` — the run every table of this module, and `recn inspect`, is
/// made of.
pub(crate) fn corner2_spec(opts: &Opts, scheme: SchemeKind) -> RunSpec {
    corner_spec(opts, MinParams::paper_64(), scheme, CornerCase::case2_64())
}

/// Fans the RECN configurations out over one parallel sweep (corner case
/// 2 for all of them), each output beside its setting.
fn run_recn_sweep(
    opts: &Opts,
    name: &str,
    settings: Vec<(String, RecnConfig)>,
) -> Vec<(String, RunOutput)> {
    let specs = settings
        .iter()
        .map(|(setting, cfg)| {
            corner2_spec(opts, SchemeKind::Recn(*cfg)).with_label(format!("{name}:{setting}"))
        })
        .collect();
    let settings = settings.into_iter().map(|(setting, _)| setting);
    settings.zip(opts.sweep(name, specs)).collect()
}

/// Sweep the SAQ pool size (corner case 2).
pub fn saq_pool_sweep(opts: &Opts) -> Vec<(String, RunOutput)> {
    let settings = [1usize, 2, 4, 8, 16, 64]
        .into_iter()
        .map(|n| {
            (
                format!("saqs={n}"),
                scaled_recn_config(opts.time_div()).with_max_saqs(n),
            )
        })
        .collect();
    run_recn_sweep(opts, "ablation_saq_pool", settings)
}

/// Sweep the detection threshold (corner case 2).
pub fn detection_sweep(opts: &Opts) -> Vec<(String, RunOutput)> {
    let settings = [2u64, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|kb| {
            let base = scaled_recn_config(opts.time_div());
            let detection = (kb * 1024 / opts.time_div().max(1)).max(256);
            let cfg = RecnConfig {
                detection_threshold: detection,
                root_clear_threshold: base.root_clear_threshold.min(detection),
                ..base
            };
            (format!("detect={kb}KB"), cfg)
        })
        .collect();
    run_recn_sweep(opts, "ablation_detection", settings)
}

/// Drain boost on vs off (corner case 2).
pub fn drain_boost_ablation(opts: &Opts) -> Vec<(String, RunOutput)> {
    let settings = [("boost=on", 2u32), ("boost=off", 0)]
        .into_iter()
        .map(|(label, pkts)| {
            (
                label.to_owned(),
                scaled_recn_config(opts.time_div()).with_drain_boost(pkts),
            )
        })
        .collect();
    run_recn_sweep(opts, "ablation_drain_boost", settings)
}

/// Renders an ablation sweep as an aligned table: per setting, the mean
/// throughput inside the congestion window, the SAQ peaks, rejected
/// notifications and SAQ allocations.
pub fn render_rows(title: &str, rows: &[(String, RunOutput)], opts: &Opts) -> String {
    let mut out = format!("# {title}\n");
    out.push_str(&format!(
        "{:>14} {:>12} {:>16} {:>9} {:>8}\n",
        "setting", "win-thr(B/ns)", "peaks(in,eg,tot)", "rejects", "allocs"
    ));
    for (setting, r) in rows {
        out.push_str(&format!(
            "{:>14} {:>12.2} {:>16} {:>9} {:>8}\n",
            setting,
            opts.window_mean(&r.throughput),
            format!("{:?}", r.saq_peaks),
            r.counters.recn_rejects,
            r.counters.saq_allocs
        ));
    }
    out
}

/// Per-class latency: mean/max end-to-end latency of hotspot-destined vs
/// innocent packets under a scheme (corner case 2).
#[derive(Debug, Clone)]
pub struct LatencySplit {
    /// Scheme name.
    pub scheme: &'static str,
    /// Latency of packets to the hotspot destination (ns).
    pub hotspot: Running,
    /// Latency of everything else (ns).
    pub innocent: Running,
}

/// The run [`latency_split`] measures: the sweeps' corner case, under the
/// command line's routing and transport as theirs are.
fn latency_spec(opts: &Opts, scheme: SchemeKind) -> RunSpec {
    opts.applied_to(corner2_spec(opts, scheme))
}

/// Measures the latency split for `scheme`.
pub fn latency_split(opts: &Opts, scheme: SchemeKind) -> LatencySplit {
    struct SplitObserver {
        hot: HostId,
        state: Rc<RefCell<(Running, Running)>>,
    }
    impl NetObserver for SplitObserver {
        fn on_delivered(&mut self, now: Picos, pkt: &Packet) {
            let lat = now.saturating_sub(pkt.injected_at).as_ns_f64();
            let mut s = self.state.borrow_mut();
            if pkt.dst == self.hot {
                s.0.push(lat);
            } else {
                s.1.push(lat);
            }
        }
    }
    let spec = latency_spec(opts, scheme);
    let state = Rc::new(RefCell::new((Running::new(), Running::new())));
    let net = spec.network(Box::new(SplitObserver {
        hot: HostId::new(32),
        state: state.clone(),
    }));
    let mut engine = net.build_engine();
    engine.run_until(spec.horizon());
    let (hotspot, innocent) = state.borrow().clone();
    LatencySplit {
        scheme: scheme.name(),
        hotspot,
        innocent,
    }
}

/// Renders latency splits.
pub fn render_latency(splits: &[LatencySplit]) -> String {
    let mut out = String::from(
        "# per-class latency under corner case 2 (ns)\n\
         scheme   innocent-mean  innocent-max   hotspot-mean   hotspot-max\n",
    );
    for s in splits {
        out.push_str(&format!(
            "{:>6} {:>14.0} {:>13.0} {:>14.0} {:>13.0}\n",
            s.scheme,
            s.innocent.mean(),
            s.innocent.max().unwrap_or(0.0),
            s.hotspot.mean(),
            s.hotspot.max().unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Opts {
        Opts {
            quick: true,
            stride: 8,
            ..Opts::default()
        }
    }

    #[test]
    fn saq_sweep_shows_monotone_isolation() {
        let rows = saq_pool_sweep(&quick());
        assert_eq!(rows.len(), 6);
        // A pool of one SAQ must reject far more notifications than eight.
        let (one, eight) = (&rows[0].1.counters, &rows[3].1.counters);
        assert!(
            one.recn_rejects > eight.recn_rejects,
            "{} vs {}",
            one.recn_rejects,
            eight.recn_rejects
        );
        // And more SAQs never hurt window throughput much.
        let window = |i: usize| quick().window_mean(&rows[i].1.throughput);
        assert!(window(3) >= window(0) * 0.95);
        // SAQ conservation, with and without the drain boost: every
        // deallocation matches an allocation. (Not equality — at the
        // compressed horizon a few trees are still live at the cutoff.)
        for (setting, r) in drain_boost_ablation(&quick()) {
            let (allocs, deallocs) = (r.counters.saq_allocs, r.counters.saq_deallocs);
            assert!(
                allocs > 0 && deallocs <= allocs,
                "{setting}: {allocs} {deallocs}"
            );
        }
    }

    #[test]
    fn latency_split_separates_classes() {
        let splits = [
            latency_split(&quick(), SchemeKind::OneQ),
            latency_split(&quick(), SchemeKind::Recn(scaled_recn_config(8))),
        ];
        for s in &splits {
            assert!(s.hotspot.count() > 0 && s.innocent.count() > 0);
            // Congested flows queue behind the hotspot link: slower.
            assert!(s.hotspot.mean() > s.innocent.mean());
        }
        let text = render_latency(&splits);
        assert!(text.contains("RECN") && text.contains("1Q"));
        // `--pkt 512` sizes the messages too: the same byte rates then
        // take an eighth of the packets (64-byte messages in 512-byte
        // packetization would deliver as many packets as `--pkt 64`).
        let big = Opts {
            pkt: Some(512),
            ..quick()
        };
        let packets = |s: &LatencySplit| s.hotspot.count() + s.innocent.count();
        let big = latency_split(&big, SchemeKind::OneQ);
        assert!(packets(&big) * 4 < packets(&splits[0]), "{big:?}");
    }

    /// `recn ablations --transport pfc --routing …` reaches the latency
    /// table too: it used to print credit-fabric, deterministic runs under
    /// every flag value.
    #[test]
    fn latency_split_runs_under_the_command_lines_transport_and_routing() {
        let pfc = Opts {
            transport: fabric::TransportKind::parse("pfc").expect("a transport name"),
            routing: fabric::RoutingPolicy::arn(),
            ..quick()
        };
        let spec = latency_spec(&pfc, SchemeKind::OneQ);
        assert_eq!(spec.transport(), pfc.transport);
        assert_eq!(spec.routing(), pfc.routing);
        let open = latency_split(&quick(), SchemeKind::OneQ);
        let paused = latency_split(&pfc, SchemeKind::OneQ);
        let summary = |s: &LatencySplit| (s.hotspot.count(), s.hotspot.mean(), s.innocent.mean());
        assert_ne!(summary(&paused), summary(&open));
    }
}
