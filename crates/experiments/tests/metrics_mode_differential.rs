//! Differential proof that streaming metrics are fold-exact.
//!
//! [`MetricsMode::Streaming`] replaces the probe's full time-series
//! storage with O(1) accumulators; it must not change the *simulation*
//! at all, and its summaries must equal — bit for bit, no epsilon — the
//! left-fold of the series the full probe would have rendered. Each cell
//! runs the same spec twice (full, then streaming) and asserts:
//!
//! * trace digests, counters, SAQ peaks, event totals and queue depths
//!   are identical (the mode is storage-only; behaviour cannot move),
//! * the streaming run renders *no* series and carries a
//!   [`StreamSummary`], the full run the reverse,
//! * every `StreamSummary` field equals [`StreamStats::from_points`] of
//!   the corresponding full-mode series — bin counts, sums, maxima and
//!   the derived means all match exactly.
//!
//! The matrix covers every corner-case preset the repo ships: the
//! 64/256/512-host MINs and the 64/512-host fat trees (deterministic and
//! adaptive).

use experiments::runner::{run_one, RunOutput, SchemeSet};
use experiments::RunSpec;
use fabric::RoutingPolicy;
use metrics::StreamSummary;
use simcore::{MetricsMode, Picos, SeriesPoint, StreamStats};
use topology::{FatTreeParams, MinParams, TopoParams};
use traffic::corner::CornerCase;

/// Golden-trace scale: corner case time-compressed 40×, validation and
/// tracing on (same shape as `golden_trace.rs`).
fn matrix_specs(params: impl Into<TopoParams>, corner: CornerCase) -> Vec<RunSpec> {
    let params = params.into();
    let corner = corner.shrunk(40);
    SchemeSet::All
        .schemes_scaled(40)
        .into_iter()
        .map(|scheme| {
            RunSpec::corner(params, scheme, corner)
                .with_horizon(Picos::from_us(40))
                .with_bin(Picos::from_us(2))
                .with_label("metrics_diff")
                .with_validation(true)
                .with_trace(64)
        })
        .collect()
}

/// One large-preset spec (RECN only — the full scheme matrix runs on the
/// 64-host fabrics; the bigger presets check the fold across deeper
/// trees and longer series without quintupling the suite's wall time).
fn recn_spec(params: impl Into<TopoParams>, corner: CornerCase) -> RunSpec {
    matrix_specs(params, corner)
        .pop()
        .expect("RECN is the last scheme in the set")
}

fn summary_matches_series(s: StreamStats, series: &[SeriesPoint], what: &str, ctx: &str) {
    let folded = StreamStats::from_points(series);
    assert_eq!(
        s, folded,
        "{ctx}: streaming {what} summary diverged from the full series fold"
    );
    // `mean()` is derived, but compare it anyway: it is the field the
    // figures quote, and NaN != NaN would slip through a struct compare.
    assert!(
        s.mean() == folded.mean() && s.mean().is_finite(),
        "{ctx}: {what} mean diverged or went non-finite"
    );
}

fn assert_fold_exact(spec: RunSpec) -> (RunOutput, StreamSummary) {
    let ctx = format!("{} on {:?}", spec.scheme().name(), spec.params());
    let full = run_one(&spec.clone().with_metrics(MetricsMode::Full));
    let streaming = run_one(&spec.with_metrics(MetricsMode::Streaming));

    // Storage-only: nothing about the simulation itself may move.
    assert_eq!(
        full.trace_digest, streaming.trace_digest,
        "{ctx}: trace digests diverged — the metrics mode changed behaviour"
    );
    assert_eq!(
        format!("{:?}", full.counters),
        format!("{:?}", streaming.counters),
        "{ctx}: fabric counters diverged"
    );
    assert_eq!(full.saq_peaks, streaming.saq_peaks, "{ctx}: SAQ peaks");
    assert_eq!(full.events, streaming.events, "{ctx}: event totals");
    assert_eq!(
        full.peak_event_queue_depth, streaming.peak_event_queue_depth,
        "{ctx}: peak event-queue depth"
    );

    // Output shape: series XOR summary.
    assert!(full.stream.is_none(), "{ctx}: full run grew a summary");
    assert!(
        streaming.throughput.is_empty()
            && streaming.saq_ingress.is_empty()
            && streaming.saq_egress.is_empty()
            && streaming.saq_total.is_empty(),
        "{ctx}: streaming run rendered series"
    );
    let s = streaming
        .stream
        .expect("streaming run must carry a summary");

    // Fold-exactness: each summary equals the left-fold of the series
    // the full probe rendered.
    summary_matches_series(s.throughput, &full.throughput, "throughput", &ctx);
    summary_matches_series(s.saq_max_ingress, &full.saq_ingress, "SAQ ingress", &ctx);
    summary_matches_series(s.saq_max_egress, &full.saq_egress, "SAQ egress", &ctx);
    summary_matches_series(s.saq_total, &full.saq_total, "SAQ total", &ctx);
    (full, s)
}

#[test]
fn min_corner2_all_schemes_fold_exactly() {
    for spec in matrix_specs(MinParams::paper_64(), CornerCase::case2_64()) {
        assert_fold_exact(spec);
    }
}

#[test]
fn min_corner1_all_schemes_fold_exactly() {
    for spec in matrix_specs(MinParams::paper_64(), CornerCase::case1_64()) {
        assert_fold_exact(spec);
    }
}

#[test]
fn fattree_hotspot_all_schemes_fold_exactly() {
    for spec in matrix_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()) {
        assert_fold_exact(spec);
    }
}

#[test]
fn fattree_adaptive_folds_exactly() {
    for spec in matrix_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()) {
        assert_fold_exact(spec.with_routing(RoutingPolicy::adaptive()));
    }
}

// Release-only: the 256/512-host cells would dominate the debug-mode
// workspace test pass. CI's differential job (and tier1) run this suite
// with --release, where the three cells cost a few minutes.
#[cfg_attr(debug_assertions, ignore = "release-only: large presets")]
#[test]
fn larger_presets_fold_exactly() {
    let cells: [(TopoParams, CornerCase); 3] = [
        (MinParams::paper_256().into(), CornerCase::case2_256()),
        (MinParams::paper_512().into(), CornerCase::case2_512()),
        (FatTreeParams::ft_512().into(), CornerCase::fattree_512()),
    ];
    for (params, corner) in cells {
        let (full, s) = assert_fold_exact(recn_spec(params, corner));
        // A hotspot run must actually have traffic for the fold to
        // summarize — an all-zero series would pass vacuously.
        assert!(full.counters.delivered_packets > 0);
        assert!(s.throughput.sum > 0.0);
    }
}
