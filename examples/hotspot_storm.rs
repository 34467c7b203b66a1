//! Hotspot storm: several congestion trees at once, overlapping in the
//! fabric. Demonstrates dynamic SAQ allocation/deallocation, the CAM's
//! longest-prefix isolation of nested trees, and full resource reclamation
//! once the storm passes.
//!
//! ```bash
//! cargo run --release --example hotspot_storm
//! ```

use std::error::Error;

use fabric::{
    assert_recn_idle, ConstantRateSource, FabricConfig, MessageSource, Network, SchemeKind,
};
use metrics::Probe;
use simcore::Picos;
use topology::{HostId, MinParams};
use traffic::RandomUniformSource;

fn main() -> Result<(), Box<dyn Error>> {
    let params = MinParams::paper_64();
    let horizon = Picos::from_us(500);
    // Three staggered hotspots at hosts 10, 33 and 57, each hit by six
    // sources at full rate, over a background of 40 random senders.
    let storms: [(u32, &[u32], u64, u64); 3] = [
        (10, &[48, 49, 50, 51, 52, 53], 50, 200),
        (33, &[54, 55, 56, 58, 59, 60], 120, 280),
        (57, &[61, 62, 63, 48, 49, 50], 210, 380),
    ];

    let sources: Vec<Box<dyn MessageSource>> = (0..64u32)
        .map(|h| {
            // A host may participate in several storms: chain its windows.
            let mut windows: Vec<(u32, u64, u64)> = storms
                .iter()
                .filter(|(_, gang, _, _)| gang.contains(&h))
                .map(|&(dst, _, s, e)| (dst, s, e))
                .collect();
            if windows.is_empty() {
                if h < 40 {
                    Box::new(
                        RandomUniformSource::new(64, Some(HostId::new(h)), 64, 0.4)
                            .window(Picos::ZERO, horizon)
                            .seed(h as u64)
                            .build(),
                    ) as Box<dyn MessageSource>
                } else {
                    Box::new(fabric::SilentSource) as Box<dyn MessageSource>
                }
            } else {
                // Use the first window only (keeps the example simple).
                let (dst, s, e) = windows.remove(0);
                Box::new(ConstantRateSource::new(
                    HostId::new(dst),
                    64,
                    Picos::from_ns(64),
                    Picos::from_us(s),
                    Picos::from_us(e),
                )) as Box<dyn MessageSource>
            }
        })
        .collect();

    let recn_cfg = experiments::runner::scaled_recn_config(8);
    let (probe, handle) = Probe::new(Picos::from_us(5));
    let net = Network::new(
        params,
        FabricConfig::paper(SchemeKind::Recn(recn_cfg)),
        64,
        sources,
        Box::new(probe),
    );
    let mut engine = net.build_engine();
    engine.run_to_completion();

    let model = engine.model();
    let c = model.counters();
    println!(
        "delivered {} packets ({} dropped at sources)",
        c.delivered_packets, c.source_dropped_messages
    );
    println!(
        "congestion trees: {} roots formed, {} cleared; SAQs: {} allocated, {} reclaimed, {} rejections",
        c.root_activations, c.root_clears, c.saq_allocs, c.saq_deallocs, c.recn_rejects
    );
    println!(
        "SAQ peaks (max ingress, max egress, total): {:?}",
        handle.saq_peaks()
    );

    println!("\nSAQ total over time:");
    let saq = handle.saq_series(horizon);
    for p in metrics::report::thin(&saq.points(&saq.total), 4) {
        let bar = "#".repeat(p.value as usize / 4);
        println!("{:>6.0}us {:>5.0} {bar}", p.t_us, p.value);
    }

    println!("\nroot events (first 12):");
    for (t, sw, port, active) in handle.root_events().into_iter().take(12) {
        println!(
            "  {:>9.2}us sw{sw} port {port}: {}",
            t.as_us_f64(),
            if active {
                "tree formed"
            } else {
                "tree cleared"
            }
        );
    }

    // After the storm everything must be reclaimed.
    assert!(model.is_quiescent(), "network must drain");
    assert_recn_idle(model);
    println!("\nall SAQs reclaimed, all roots cleared — fabric is clean.");
    Ok(())
}
