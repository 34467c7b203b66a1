//! Scalability sweep: the paper's central claim is that RECN's resource
//! demand depends on the number of concurrent congestion trees, *not* on
//! network size. This example sweeps 16-, 64- and 256-host MINs under an
//! equivalent hotspot scenario and reports the per-port SAQ peaks, marking
//! a rung whose peak reaches the paper's pool of 8 SAQs per port (there
//! the pool, not the demand, sets the reading).
//!
//! ```bash
//! cargo run --release --example scale_sweep
//! ```

use std::error::Error;

use experiments::runner::{run_one, scaled_recn_config};
use experiments::RunSpec;
use fabric::SchemeKind;
use simcore::Picos;
use topology::{HostId, MinParams};
use traffic::corner::CornerCase;

fn main() -> Result<(), Box<dyn Error>> {
    let recn = scaled_recn_config(8);
    let pool = recn.max_saqs as u32;
    println!("hosts  switches  stages  max-SAQ/ingress  max-SAQ/egress  peak-total  total/ports");
    for hosts in [16u32, 64, 256] {
        let params = MinParams::for_hosts(hosts, 4);
        // The last quarter of the hosts gang up on host hosts/2 during
        // 100–200 µs; the rest send random traffic at 80%.
        let corner = CornerCase {
            hosts,
            random_sources: hosts - hosts / 4,
            random_rate: 0.8,
            hotspot_dst: HostId::new(hosts / 2),
            hotspot_start: Picos::from_us(100),
            hotspot_end: Picos::from_us(200),
            ..CornerCase::case1_64()
        };
        let out = run_one(
            &RunSpec::corner(params, SchemeKind::Recn(recn), corner)
                .with_horizon(Picos::from_us(300))
                .with_bin(Picos::from_us(5)),
        );
        let (pi, pe, pt) = out.saq_peaks;
        let ports = params.total_switches() * params.radix() * 2;
        let saturated = if pi == pool || pe == pool {
            "  pool saturated"
        } else {
            ""
        };
        println!(
            "{:>5}  {:>8}  {:>6}  {:>15}  {:>14}  {:>10}  {:>11.3}{saturated}",
            hosts,
            params.total_switches(),
            params.stages(),
            pi,
            pe,
            pt,
            pt as f64 / ports as f64,
        );
        assert!(
            pi <= pool && pe <= pool,
            "a port holds at most its pool of {pool} SAQs"
        );
    }
    println!(
        "\nPer-port SAQ peaks grow with the network in this sweep until the\n\
         256-host rung fills the pool (a 64-SAQ pool reads 19 and 17 there).\n\
         Flat per-port demand is figure 6's measurement (EXPERIMENTS.md);\n\
         this sweep does not show it."
    );
    Ok(())
}
