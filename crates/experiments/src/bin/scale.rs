//! The queue-memory scaling ladder: RECN hotspots on ft_64 → ft_512 →
//! ft_4096, next to the analytic per-scheme queue-state table.
//!
//! For each network size this runs the strided fat-tree hotspot under
//! RECN (serially — the memory high-water mark is the measurement, so
//! runs must not overlap) and prints the scaling table from
//! [`experiments::scale`]: VOQnet's queue state growing superlinearly
//! with `N` while RECN's per-port queues stay flat, with the measured
//! network-wide peak SAQs and the simulator's
//! [`peak_bytes_estimate`](experiments::RunOutput::peak_bytes_estimate)
//! attached to the RECN rows.
//!
//! ```text
//! scale [--net N] [--time-div D] [--json FILE] [--budget BYTES]
//! ```
//!
//! `--budget BYTES` is the CI scale gate: the process exits nonzero if
//! any measured run's `peak_bytes_estimate` exceeds the budget (CI
//! passes the checked-in `ci/scale_budget.txt`).

use experiments::opts::{parse_flags, render_help, FlagDef};
use experiments::runner::{run_one, scaled_recn_config, summarize};
use experiments::scale::{analytic_rows, render_scale_table, scale_points, ScaleRow};
use experiments::RunSpec;
use fabric::SchemeKind;
use simcore::Picos;
use traffic::corner::CornerCase;

const SCALE_FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--net",
        aliases: &[],
        value: Some(("N", "a host count (64, 512 or 4096)")),
        help: "run only the N-host rung of the ladder (default: all)",
    },
    FlagDef {
        name: "--time-div",
        aliases: &[],
        value: Some(("D", "a divisor")),
        help: "time compression for the measured runs (default 16)",
    },
    FlagDef {
        name: "--json",
        aliases: &[],
        value: Some(("FILE", "a file")),
        help: "write the table as flat JSON to FILE",
    },
    FlagDef {
        name: "--budget",
        aliases: &[],
        value: Some(("BYTES", "a byte count")),
        help: "exit nonzero if any run's peak_bytes_estimate exceeds BYTES",
    },
];

struct ScaleArgs {
    net: Option<u32>,
    time_div: u64,
    json: Option<String>,
    budget: Option<u64>,
    help: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ScaleArgs, String> {
    let mut cfg = ScaleArgs {
        net: None,
        time_div: 16,
        json: None,
        budget: None,
        help: false,
    };
    for (name, value) in parse_flags(args, SCALE_FLAGS)? {
        let v = || value.clone().expect("value enforced by parse_flags");
        match name {
            "--net" => {
                let v = v();
                cfg.net = Some(
                    v.parse()
                        .map_err(|_| format!("--net expects a host count, got {v:?}"))?,
                );
            }
            "--time-div" => {
                let v = v();
                cfg.time_div = v
                    .parse::<u64>()
                    .map_err(|_| format!("--time-div expects a divisor, got {v:?}"))?
                    .max(1);
            }
            "--json" => cfg.json = Some(v()),
            "--budget" => {
                let v = v();
                cfg.budget = Some(
                    v.parse()
                        .map_err(|_| format!("--budget expects a byte count, got {v:?}"))?,
                );
            }
            "--help" => cfg.help = true,
            other => unreachable!("flag {other} in table but not matched"),
        }
    }
    Ok(cfg)
}

fn corner_for(hosts: u32) -> CornerCase {
    match hosts {
        64 => CornerCase::fattree_64(),
        512 => CornerCase::fattree_512(),
        4096 => CornerCase::fattree_4096(),
        other => panic!("no fat-tree hotspot preset for {other} hosts"),
    }
}

fn render_json(rows: &[ScaleRow], time_div: u64, budget: Option<u64>) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"scale/v2\",\n");
    s.push_str(&format!("  \"time_div\": {time_div},\n"));
    s.push_str(&format!(
        "  \"budget_bytes\": {},\n",
        budget.map_or("null".to_owned(), |b| b.to_string())
    ));
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
            r.peak_port_saqs
                .map_or("null".to_owned(), |v| v.to_string()),
            r.total_saqs.map_or("null".to_owned(), |v| v.to_string()),
            r.peak_bytes_estimate
                .map_or("null".to_owned(), |v| v.to_string()),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if args.help {
        println!("{}", render_help(SCALE_FLAGS));
        return;
    }
    let div = args.time_div;
    let mut points = scale_points();
    if let Some(n) = args.net {
        points.retain(|p| p.hosts() == n);
        assert!(!points.is_empty(), "--net {n} is not a ladder rung");
    }
    let recn = SchemeKind::Recn(scaled_recn_config(div));
    let schemes = [SchemeKind::VoqNet, SchemeKind::VoqSw, recn];
    let mut rows = analytic_rows(&points, &schemes);

    let mut over_budget = Vec::new();
    for p in &points {
        let hosts = p.hosts();
        let spec = RunSpec::corner(*p, recn, corner_for(hosts).shrunk(div))
            .with_horizon(Picos::from_us(1600 / div))
            .with_bin(Picos::from_us(1))
            .with_label(format!("scale_{hosts}"));
        eprintln!("running {hosts}-host RECN hotspot (time/{div})...");
        let out = run_one(&spec);
        eprintln!(
            "  {} [peak {} bytes, {:.1}s wall]",
            summarize(&out),
            out.peak_bytes_estimate,
            out.wall_secs
        );
        let row = rows
            .iter_mut()
            .find(|r| r.hosts == hosts && r.scheme == "RECN")
            .expect("RECN row exists for every rung");
        row.peak_port_saqs = Some(out.saq_peaks.0.max(out.saq_peaks.1));
        row.total_saqs = Some(out.saq_peaks.2);
        row.peak_bytes_estimate = Some(out.peak_bytes_estimate);
        if let Some(budget) = args.budget {
            if out.peak_bytes_estimate > budget {
                over_budget.push(format!(
                    "{hosts}-host run: peak_bytes_estimate {} > budget {budget}",
                    out.peak_bytes_estimate
                ));
            }
        }
    }

    println!("{}", render_scale_table(&rows));
    if let Some(path) = &args.json {
        let json = render_json(&rows, div, args.budget);
        std::fs::write(path, &json).expect("write scale JSON");
        eprintln!("wrote {path}");
    }
    if !over_budget.is_empty() {
        eprintln!("memory budget exceeded:");
        for f in &over_budget {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if let Some(budget) = args.budget {
        eprintln!("memory budget OK: all runs under {budget} bytes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::opts::usage_line;

    /// `scale` runs the one probe storage there is: the metrics-mode
    /// selector is gone from its flag table too.
    #[test]
    fn removed_metrics_flag_is_rejected_as_unknown() {
        let err = parse_args(["--metrics".to_owned(), "full".to_owned()])
            .err()
            .expect("--metrics must not parse");
        assert!(err.contains("unknown option --metrics"), "{err}");
        assert!(err.contains(&usage_line(SCALE_FLAGS)), "{err}");
    }
}
