//! Model-level outputs of a run: what the correctness gate pins and what
//! every repetition, and the harness-owned loop, must reproduce.

use experiments::RunOutput;
use fabric::NetCounters;
use metrics::FctSummary;

/// The deterministic outputs of one repetition. For a sweep the rows of
/// its runs are folded into one (sums, maxima, a digest of digests).
///
/// The event count is deliberately absent: it may change when the default
/// event model does, without the modelled design changing.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    /// Mean packet latency; on a sweep the mean of the runs' means.
    pub latency_mean_ns: f64,
    /// Whole-run SAQ peaks `(ingress, egress, total)`.
    pub saq_peaks: (u32, u32, u32),
    pub flows_completed: u64,
    /// Flow completion times `(p50, p99, max)` in ns, when flows ran.
    pub fct_ns: Option<(f64, f64, f64)>,
    /// Trace digest; `None` when the run was not traced.
    pub digest: Option<u64>,
}

impl Observed {
    pub fn new(
        counters: &NetCounters,
        saq_peaks: (u32, u32, u32),
        fct: Option<FctSummary>,
        digest: Option<u64>,
    ) -> Observed {
        Observed {
            delivered_packets: counters.delivered_packets,
            delivered_bytes: counters.delivered_bytes,
            latency_mean_ns: counters.latency_ns.mean(),
            saq_peaks,
            flows_completed: counters.flows_completed,
            fct_ns: fct.map(|f| (f.p50_ns, f.p99_ns, f.max_ns)),
            digest,
        }
    }

    pub fn of(out: &RunOutput) -> Observed {
        Observed::new(&out.counters, out.saq_peaks, out.fct, out.trace_digest)
    }

    /// Folds the outputs of one repetition (one run, or a sweep's runs in
    /// submission order) into one row.
    pub fn fold(outputs: &[RunOutput]) -> Observed {
        let rows: Vec<Observed> = outputs.iter().map(Observed::of).collect();
        if let [row] = rows.as_slice() {
            return row.clone();
        }
        let max3 = |f: fn(&Observed) -> u32| rows.iter().map(f).max().unwrap_or(0);
        Observed {
            delivered_packets: rows.iter().map(|r| r.delivered_packets).sum(),
            delivered_bytes: rows.iter().map(|r| r.delivered_bytes).sum(),
            latency_mean_ns: rows.iter().map(|r| r.latency_mean_ns).sum::<f64>()
                / rows.len() as f64,
            saq_peaks: (
                max3(|r| r.saq_peaks.0),
                max3(|r| r.saq_peaks.1),
                max3(|r| r.saq_peaks.2),
            ),
            flows_completed: rows.iter().map(|r| r.flows_completed).sum(),
            fct_ns: None,
            digest: rows
                .iter()
                .map(|r| r.digest)
                .collect::<Option<Vec<u64>>>()
                .map(|ds| ds.iter().fold(crate::FNV_OFFSET, |h, d| crate::fnv(h, *d))),
        }
    }

    /// Equality on everything but the digest (timed repetitions run with
    /// tracing off and so have none).
    pub fn same_counters(&self, other: &Observed) -> bool {
        Observed {
            digest: other.digest,
            ..self.clone()
        } == *other
    }

    /// One `expected.json` row.
    pub fn render_row(&self, workload: &str, seed: u64) -> String {
        let fct = |pick: fn((f64, f64, f64)) -> f64| match self.fct_ns {
            Some(f) => format!("{}", pick(f)),
            None => "null".to_owned(),
        };
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"delivered_packets\": {}, \"delivered_bytes\": {}, \"latency_mean_ns\": {}, \
             \"saq_peak_ingress\": {}, \"saq_peak_egress\": {}, \"saq_peak_total\": {}, \
             \"flows_completed\": {}, \"fct_p50_ns\": {}, \"fct_p99_ns\": {}, \"fct_max_ns\": {}, \
             \"trace_digest\": \"{:016x}\"}}",
            self.delivered_packets,
            self.delivered_bytes,
            self.latency_mean_ns,
            self.saq_peaks.0,
            self.saq_peaks.1,
            self.saq_peaks.2,
            self.flows_completed,
            fct(|f| f.0),
            fct(|f| f.1),
            fct(|f| f.2),
            self.digest.expect("pinned rows come from traced runs"),
        )
    }

    /// Parses a row written by [`render_row`](Self::render_row).
    pub fn parse_row(line: &str) -> Option<Observed> {
        use crate::json::{field_num, field_str};
        let int = |key| field_num(line, key).map(|v| v as u64);
        let fct = match (
            field_num(line, "fct_p50_ns"),
            field_num(line, "fct_p99_ns"),
            field_num(line, "fct_max_ns"),
        ) {
            (Some(p50), Some(p99), Some(max)) => Some((p50, p99, max)),
            _ => None,
        };
        Some(Observed {
            delivered_packets: int("delivered_packets")?,
            delivered_bytes: int("delivered_bytes")?,
            latency_mean_ns: field_num(line, "latency_mean_ns")?,
            saq_peaks: (
                int("saq_peak_ingress")? as u32,
                int("saq_peak_egress")? as u32,
                int("saq_peak_total")? as u32,
            ),
            flows_completed: int("flows_completed")?,
            fct_ns: fct,
            digest: Some(u64::from_str_radix(field_str(line, "trace_digest")?, 16).ok()?),
        })
    }
}

/// The pinned row for `(workload, seed)` in `expected.json`, if there is
/// one. Seeds other than the two pinned ones have no row: their runs are
/// checked against each other and against the harness-owned loop instead.
pub fn pinned(expected: &str, workload: &str, seed: u64) -> Option<Observed> {
    use crate::json::{field_num, field_str};
    expected
        .lines()
        .find(|l| {
            field_str(l, "workload") == Some(workload) && field_num(l, "seed") == Some(seed as f64)
        })
        .map(|l| Observed::parse_row(l).expect("malformed expected.json row"))
}
