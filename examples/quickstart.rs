//! Quickstart: build a 64-host perfect-shuffle MIN, slam one destination
//! with a hotspot, and watch RECN remove the head-of-line blocking that
//! cripples a single-queue switch.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::error::Error;

use experiments::runner::{run_one, scaled_recn_config};
use experiments::RunSpec;
use fabric::SchemeKind;
use metrics::report::{render_table, thin, window_stats, Labeled};
use simcore::Picos;
use topology::MinParams;
use traffic::corner::CornerCase;

fn main() -> Result<(), Box<dyn Error>> {
    // The paper's corner case 1 (Table 1), time-compressed 4x so this
    // example finishes in a few seconds: 48 hosts send random traffic at
    // 50% of link rate; 16 hosts gang up on host 32 at 100% during a
    // 42.5 µs window.
    let corner = CornerCase::case1_64().shrunk(4);
    let mut curves = Vec::new();
    for scheme in [SchemeKind::OneQ, SchemeKind::Recn(scaled_recn_config(4))] {
        let out = run_one(
            &RunSpec::corner(MinParams::paper_64(), scheme, corner)
                .with_horizon(Picos::from_us(400))
                .with_bin(Picos::from_us(5)),
        );
        println!(
            "{:>5}: delivered {} packets, mean latency {:.1} us, SAQ peaks {:?}",
            out.scheme,
            out.counters.delivered_packets,
            out.counters.latency_ns.mean() / 1000.0,
            out.saq_peaks,
        );
        curves.push(Labeled::new(out.scheme, out.throughput));
    }

    println!();
    let thinned: Vec<Labeled> = curves
        .iter()
        .map(|l| Labeled::new(l.label.clone(), thin(&l.points, 8)))
        .collect();
    println!(
        "{}",
        render_table("network throughput (bytes/ns)", &thinned)
    );

    // Inside the congestion window RECN should stay near the no-hotspot
    // level while 1Q suffers HOL blocking.
    let (one_q, _, _) = window_stats(&curves[0].points, 205.0, 240.0);
    let (recn, _, _) = window_stats(&curves[1].points, 205.0, 240.0);
    println!("congestion-window mean: 1Q {one_q:.1} B/ns vs RECN {recn:.1} B/ns");
    assert!(recn > one_q, "RECN should beat 1Q under the hotspot");
    Ok(())
}
