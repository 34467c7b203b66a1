//! SAN workload: replay the synthetic `cello`-like I/O traces (clients ↔
//! 23 disks, heavy-tailed bursts, transient hot-disk gang-ups) at several
//! time-compression factors and compare mechanisms — the scenario of the
//! paper's Figures 3 and 5, with the admittance cap `recn fig 3` uses.
//!
//! ```bash
//! cargo run --release --example san_workload
//! ```

use std::error::Error;

use experiments::runner::{run_one, scaled_recn_config};
use experiments::RunSpec;
use fabric::SchemeKind;
use simcore::Picos;
use traffic::san::SanParams;

fn main() -> Result<(), Box<dyn Error>> {
    let horizon = Picos::from_us(400);

    println!("compression  scheme   delivered(MB)  mean-thr(B/ns)  mean-latency(us)  SAQ-peaks");
    for compression in [10.0, 20.0, 40.0] {
        for scheme in [
            SchemeKind::VoqNet,
            SchemeKind::OneQ,
            SchemeKind::Recn(scaled_recn_config(4)),
        ] {
            let out = run_one(
                &RunSpec::san(scheme, SanParams::cello_like(compression))
                    .with_packet_size(512)
                    .with_horizon(horizon)
                    .with_bin(Picos::from_us(5)),
            );
            let c = &out.counters;
            println!(
                "{:>11}  {:>6}  {:>13.2}  {:>14.2}  {:>16.1}  {:?}",
                format!("{compression}x"),
                out.scheme,
                c.delivered_bytes as f64 / 1e6,
                c.mean_throughput(horizon.as_ns_f64()),
                c.latency_ns.mean() / 1000.0,
                out.saq_peaks,
            );
        }
    }

    println!(
        "\nHigher compression squeezes more I/O into the same wall-clock window;\n\
         hot-disk gang-ups then form congestion trees, where 1Q loses throughput\n\
         to HOL blocking while RECN stays close to the VOQnet bound."
    );
    Ok(())
}
