//! Queue-memory scaling: the paper's cost argument made concrete.
//!
//! The paper's case for RECN (§1, §6) is not a throughput curve — it is
//! a *memory* curve: VOQnet needs one queue per destination host at
//! every port, so its control state grows with `ports × hosts`
//! (superlinear in `N`, since port count itself grows with `N`), while
//! RECN caps every port at one cold queue plus a fixed SAQ pool
//! regardless of network size. This module computes that comparison
//! analytically for the fat-tree ladder `ft_64 → ft_512 → ft_4096`, and
//! `recn scale` ([`command`]) attaches *measured* numbers (network-wide
//! peak SAQs and the simulator's own [`peak_bytes_estimate`]) from real
//! hotspot runs — serially, since the memory high-water mark is the
//! measurement and runs must not overlap — and prints the estimate of
//! each run by part under the table.
//!
//! ```text
//! recn scale [--net N] [--time-div D] [--json FILE] [--budget BYTES]
//! ```
//!
//! `--budget BYTES` is the CI scale gate: the command fails (after its
//! table and `--json` file are written) if any measured run's
//! `peak_bytes_estimate` exceeds the budget (CI passes the checked-in
//! `ci/scale_budget.txt`).
//!
//! The analytic side is deliberately small: it only counts queue
//! *descriptors* (head/tail/occupancy — the control state a hardware
//! implementation must keep per queue, and what the simulator's queue
//! records keep per queue), not data memory, because data memory is a
//! budget shared by however many queues exist, whereas descriptor count
//! is the quantity that scales with the scheme.
//!
//! [`peak_bytes_estimate`]: crate::runner::RunOutput::peak_bytes_estimate

use fabric::SchemeKind;
use simcore::Picos;
use topology::FatTreeParams;
use traffic::corner::CornerCase;

use crate::opts::Opts;
use crate::runner::{run_with_footprint, scaled_recn_config, summarize, RunFootprint};
use crate::spec::RunSpec;

/// Bytes of control state per queue in the analytic model: head, tail
/// and occupancy, three 64-bit words — the simulator's queue record
/// (`fabric`'s queue slabs keep `head`/`tail`/`len` per queue, and the
/// queue's byte count as a fourth word).
pub const QUEUE_DESCRIPTOR_BYTES: u64 = 24;

/// The fat-tree ladder the scaling table walks, each rung with its
/// one-attacker-per-leaf hotspot: 64 → 512 → 4096 hosts, all 3-level
/// trees so only `N` (and radix) varies between rows.
fn ladder() -> Vec<(FatTreeParams, CornerCase)> {
    vec![
        (FatTreeParams::ft_64(), CornerCase::fattree_64()),
        (FatTreeParams::ft_512(), CornerCase::fattree_512()),
        (FatTreeParams::ft_4096(), CornerCase::fattree_4096()),
    ]
}

/// Total physical switch ports in the tree (hosts attach to `k` down
/// ports of level-0 switches; inner levels have `2k` ports, the root
/// level `k`).
pub fn switch_ports(p: &FatTreeParams) -> u64 {
    (0..p.n())
        .map(|l| p.switches_per_level() as u64 * p.ports_at_level(l) as u64)
        .sum()
}

/// One row of the scaling table: a `(network size, scheme)` cell.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Endnode count of the network.
    pub hosts: u32,
    /// Scheme display name.
    pub scheme: &'static str,
    /// Queues per port unit (analytic; see [`SchemeKind::queues_per_port`]).
    pub queues_per_port: u64,
    /// Total queues across the network: port units × queues per port.
    /// Every physical port contributes an input and an output unit.
    pub network_queues: u64,
    /// Control-state bytes for those queues
    /// (`network_queues × QUEUE_DESCRIPTOR_BYTES`).
    pub queue_state_bytes: u64,
    /// Measured peak of simultaneously allocated SAQs at any single
    /// port, when a real run backs the row (RECN rows only). This is
    /// the paper's scalability claim: bounded by the configured pool
    /// (8) however large the network grows.
    pub peak_port_saqs: Option<u32>,
    /// Measured network-wide peak of simultaneously allocated SAQs.
    /// Grows with port count (each port owns an independent pool) —
    /// linear in `N`, unlike VOQnet's queue state.
    pub total_saqs: Option<u32>,
    /// Measured simulator memory high-water mark
    /// ([`RunOutput::peak_bytes_estimate`]) when a real run backs the
    /// row.
    ///
    /// [`RunOutput::peak_bytes_estimate`]: crate::runner::RunOutput::peak_bytes_estimate
    pub peak_bytes_estimate: Option<u64>,
}

/// Builds the analytic table: one row per `(point, scheme)`. The radix
/// used for VOQsw is the inner-switch port count (`2k`), the worst port
/// in the tree.
pub fn analytic_rows(points: &[FatTreeParams], schemes: &[SchemeKind]) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for p in points {
        // Input and output units per physical port.
        let port_units = 2 * switch_ports(p);
        for scheme in schemes {
            let qpp = scheme.queues_per_port(2 * p.k() as usize, p.hosts() as usize) as u64;
            let network_queues = port_units * qpp;
            rows.push(ScaleRow {
                hosts: p.hosts(),
                scheme: scheme.name(),
                queues_per_port: qpp,
                network_queues,
                queue_state_bytes: network_queues * QUEUE_DESCRIPTOR_BYTES,
                peak_port_saqs: None,
                total_saqs: None,
                peak_bytes_estimate: None,
            });
        }
    }
    rows
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Renders the scaling table. Analytic columns always print; the
/// measured columns print `-` for rows without a backing run.
pub fn render_scale_table(rows: &[ScaleRow]) -> String {
    let mut s = String::from("queue control state vs network size (fat-tree ladder)\n");
    s.push_str(&format!(
        "{:>6} {:>7} {:>8} {:>14} {:>12} {:>14} {:>10} {:>12}\n",
        "hosts",
        "scheme",
        "q/port",
        "queues(net)",
        "q-state",
        "SAQs/port pk",
        "SAQs net",
        "sim peak"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>7} {:>8} {:>14} {:>12} {:>14} {:>10} {:>12}\n",
            r.hosts,
            r.scheme,
            r.queues_per_port,
            r.network_queues,
            human_bytes(r.queue_state_bytes),
            r.peak_port_saqs.map_or("-".to_owned(), |v| v.to_string()),
            r.total_saqs.map_or("-".to_owned(), |v| v.to_string()),
            r.peak_bytes_estimate.map_or("-".to_owned(), human_bytes),
        ));
    }
    s
}

/// Renders where each measured run's `sim peak` goes: one column per run,
/// one row per [`RunFootprint`] part, and the total, which is the table's
/// `sim peak`.
fn render_footprints(runs: &[(u32, RunFootprint)]) -> String {
    let mut s = format!("{:<17}", "sim peak by part");
    for (hosts, _) in runs {
        s.push_str(&format!(" {:>12}", format!("{hosts} hosts")));
    }
    s.push('\n');
    let columns: Vec<_> = runs
        .iter()
        .map(|(_, f)| [f.parts(), vec![("total", f.total())]].concat())
        .collect();
    let names = columns.first().map_or(&[][..], Vec::as_slice);
    for (i, (name, _)) in names.iter().enumerate() {
        s.push_str(&format!("  {name:<15}"));
        for column in &columns {
            s.push_str(&format!(" {:>12}", human_bytes(column[i].1)));
        }
        s.push('\n');
    }
    s
}

fn render_json(rows: &[ScaleRow], time_div: u64, budget: Option<u64>) -> String {
    fn opt<T: ToString>(v: Option<T>) -> String {
        v.map_or("null".to_owned(), |v| v.to_string())
    }
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"scale/v2\",\n");
    s.push_str(&format!("  \"time_div\": {time_div},\n"));
    s.push_str(&format!("  \"budget_bytes\": {},\n", opt(budget)));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"hosts\": {}, \"scheme\": \"{}\", \"queues_per_port\": {}, \
             \"network_queues\": {}, \"queue_state_bytes\": {}, \
             \"peak_port_saqs\": {}, \"total_saqs\": {}, \"peak_bytes_estimate\": {}}}{sep}\n",
            r.hosts,
            r.scheme,
            r.queues_per_port,
            r.network_queues,
            r.queue_state_bytes,
            opt(r.peak_port_saqs),
            opt(r.total_saqs),
            opt(r.peak_bytes_estimate),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `recn scale`: runs the strided fat-tree hotspot under RECN on each
/// rung and prints the scaling table with the measured columns filled in.
pub fn command(opts: &Opts) -> Result<(), String> {
    let (div, budget) = (opts.scale_div, opts.budget);
    let mut rungs = ladder();
    rungs.retain(|(p, _)| opts.net.is_none_or(|n| n == p.hosts()));
    let recn = SchemeKind::Recn(scaled_recn_config(div));
    let schemes = [SchemeKind::VoqNet, SchemeKind::VoqSw, recn];
    let points: Vec<FatTreeParams> = rungs.iter().map(|(p, _)| *p).collect();
    let mut rows = analytic_rows(&points, &schemes);

    let mut over_budget = Vec::new();
    let mut footprints = Vec::new();
    for (p, corner) in rungs {
        let hosts = p.hosts();
        let spec = RunSpec::corner(p, recn, corner.shrunk(div))
            .with_horizon(Picos::from_us(1600 / div))
            .with_bin(Picos::from_us(1))
            .with_label(format!("scale_{hosts}"));
        eprintln!("running {hosts}-host RECN hotspot (time/{div})...");
        let (out, footprint) = run_with_footprint(&spec);
        footprints.push((hosts, footprint));
        eprintln!(
            "  {} [peak {} bytes, {:.1}s wall]",
            summarize(&out),
            out.peak_bytes_estimate,
            out.wall_secs
        );
        // `analytic_rows` made one row per (rung, scheme), and `schemes`
        // holds `recn`: this rung's RECN row exists.
        let row = rows
            .iter_mut()
            .find(|r| r.hosts == hosts && r.scheme == "RECN")
            .expect("RECN row exists for every rung");
        row.peak_port_saqs = Some(out.saq_peaks.0.max(out.saq_peaks.1));
        row.total_saqs = Some(out.saq_peaks.2);
        row.peak_bytes_estimate = Some(out.peak_bytes_estimate);
        if let Some(budget) = budget.filter(|b| out.peak_bytes_estimate > *b) {
            over_budget.push(format!(
                "{hosts}-host run: peak_bytes_estimate {} > budget {budget}",
                out.peak_bytes_estimate
            ));
        }
    }

    outln!("{}", render_scale_table(&rows))?;
    outln!("{}", render_footprints(&footprints))?;
    if let Some(path) = &opts.json_file {
        std::fs::write(path, render_json(&rows, div, budget))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if !over_budget.is_empty() {
        return Err(format!(
            "memory budget exceeded:\n  {}",
            over_budget.join("\n  ")
        ));
    }
    if let Some(budget) = budget {
        eprintln!("memory budget OK: all runs under {budget} bytes");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::scaled_recn_config;

    fn schemes() -> Vec<SchemeKind> {
        vec![
            SchemeKind::VoqNet,
            SchemeKind::VoqSw,
            SchemeKind::Recn(scaled_recn_config(1)),
        ]
    }

    #[test]
    fn port_counts_match_topology() {
        // ft_64: two inner levels of 16×8-port switches plus a root
        // level of 16×4-port switches.
        assert_eq!(switch_ports(&FatTreeParams::ft_64()), 16 * 8 * 2 + 16 * 4);
        // ft_4096: 256 switches per level, 32-port inner, 16-port root.
        assert_eq!(
            switch_ports(&FatTreeParams::ft_4096()),
            256 * 32 * 2 + 256 * 16
        );
    }

    /// The network sizes of the ladder.
    fn scale_points() -> Vec<FatTreeParams> {
        ladder().into_iter().map(|(p, _)| p).collect()
    }

    #[test]
    fn voqnet_grows_superlinearly_recn_stays_flat() {
        let rows = analytic_rows(&scale_points(), &schemes());
        let get = |hosts: u32, scheme: &str| {
            rows.iter()
                .find(|r| r.hosts == hosts && r.scheme == scheme)
                .unwrap()
        };
        let host_ratio = 4096 / 64;
        // VOQnet: per-port queues grow with N *and* the port count grows
        // with N, so total queue state grows superlinearly.
        let voqnet_ratio = get(4096, "VOQnet").network_queues / get(64, "VOQnet").network_queues;
        assert!(
            voqnet_ratio > host_ratio as u64,
            "VOQnet must scale superlinearly: {voqnet_ratio}x queues for {host_ratio}x hosts"
        );
        // RECN: per-port queues are constant (1 cold + 8 SAQs), so the
        // table's q/port column is flat across the ladder and total
        // state grows only with the port count.
        for p in scale_points() {
            assert_eq!(get(p.hosts(), "RECN").queues_per_port, 9);
        }
        let recn_ratio = get(4096, "RECN").network_queues / get(64, "RECN").network_queues;
        let port_ratio =
            switch_ports(&FatTreeParams::ft_4096()) / switch_ports(&FatTreeParams::ft_64());
        assert_eq!(recn_ratio, port_ratio, "RECN scales with ports, not hosts");
    }

    #[test]
    fn table_renders_all_cells() {
        let mut rows = analytic_rows(&scale_points(), &schemes());
        rows[2].peak_port_saqs = Some(7);
        rows[2].total_saqs = Some(137);
        rows[2].peak_bytes_estimate = Some(5 << 20);
        let t = render_scale_table(&rows);
        assert!(t.contains("VOQnet") && t.contains("RECN"));
        assert!(t.contains("137") && t.contains("5.0 MiB"));
        // Every (point, scheme) pair got a row.
        assert_eq!(rows.len(), 9);
    }

    /// The parts `recn scale` prints add up to the `peak_bytes_estimate`
    /// a run reports (and the cache stores): the split moves nothing.
    #[test]
    fn footprint_parts_sum_to_the_estimate() {
        let (p, corner) = ladder().swap_remove(0);
        let div = 256;
        let recn = SchemeKind::Recn(scaled_recn_config(div));
        let spec = RunSpec::corner(p, recn, corner.shrunk(div))
            .with_horizon(Picos::from_us(1600 / div))
            .with_bin(Picos::from_us(1));
        let (out, footprint) = run_with_footprint(&spec);
        let parts = footprint.parts();
        assert_eq!(parts.len(), 10);
        let sum: u64 = parts.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(sum, out.peak_bytes_estimate);
        assert_eq!(footprint.total(), out.peak_bytes_estimate);
        let network: u64 = footprint.network.parts().iter().map(|&(_, b)| b).sum();
        assert_eq!(network, footprint.network.total());
        assert_eq!(
            crate::run_one(&spec).peak_bytes_estimate,
            out.peak_bytes_estimate
        );
        // A hotspot under RECN fills every part: a tree formed, so some
        // ports hold SAQ storage, and the lanes took most schedules.
        for (name, bytes) in &parts {
            assert!(*bytes > 0, "{name} is empty");
        }
        let table = render_footprints(&[(p.hosts(), footprint)]);
        let total = table.lines().last().expect("a total row");
        assert!(total.starts_with("  total "), "{table}");
        assert!(
            total.ends_with(&human_bytes(out.peak_bytes_estimate)),
            "{table}"
        );
        assert_eq!(table.lines().count(), 1 + parts.len() + 1);
    }

    /// An over-budget run is the command's `Err` (the binary's one error
    /// status), raised after the table and the `--json` file are out —
    /// not an exit from inside the library.
    #[test]
    fn an_over_budget_run_is_the_commands_error() {
        let json = std::env::temp_dir().join(format!("recn_scale_{}.json", std::process::id()));
        let words = ["scale", "--net", "64", "--time-div", "256", "--json"];
        let run = |budget: &str| {
            let tail = [
                json.to_string_lossy().into_owned(),
                "--budget".into(),
                budget.into(),
            ];
            crate::cli::run(words.iter().map(|s| s.to_string()).chain(tail))
        };
        let err = run("1").expect_err("no run fits in one byte");
        let written = std::fs::read_to_string(&json).expect("the JSON file was written first");
        assert!(written.contains("\"budget_bytes\": 1,"), "{written}");
        let (first, rest) = err
            .split_once('\n')
            .expect("a headline and one line per run");
        assert_eq!(first, "memory budget exceeded:");
        assert!(
            rest.starts_with("  64-host run: peak_bytes_estimate "),
            "{err}"
        );
        assert!(
            rest.ends_with(" > budget 1") && !rest.contains('\n'),
            "{err}"
        );
        run("1000000000").expect("a 64-host run fits in a gigabyte");
        std::fs::remove_file(&json).expect("the JSON file is ours to remove");
    }
}
