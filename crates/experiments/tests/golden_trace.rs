//! Golden-trace regression suite.
//!
//! Each scheme runs the 64-host corner-case-2 hotspot with tracing (and the
//! online invariant validator) on; the trace digest folds every observer
//! event of the run — injections, hops, queue ops, credit flow, SAQ
//! lifecycle — into one stable 64-bit FNV value. The digests below are
//! checked in: any behavioural drift in the simulator (event order, credit
//! accounting, SAQ decisions) shows up as a digest mismatch even when the
//! headline counters still agree.
//!
//! The same specs run through a serial and a 4-worker sweep, which extends
//! the bit-identical determinism contract down to the per-event level.

use experiments::runner::SchemeSet;
use experiments::{RunSpec, Sweep};
use simcore::Picos;
use topology::{FatTreeParams, MinParams, TopoParams};
use traffic::corner::CornerCase;

/// Scheme name → expected whole-run trace digest for the spec built by
/// [`golden_specs`]. Regenerate by running this test and copying the
/// digests from the failure message — but first convince yourself the
/// behaviour change is intended.
const GOLDEN: &[(&str, u64)] = &[
    ("VOQnet", 0xbbd0_e177_5201_b3cd),
    ("VOQsw", 0x907a_0f2f_5fd1_ad98),
    ("4Q", 0xba4c_8034_2b71_446d),
    ("1Q", 0xb7f9_c468_9067_a8a6),
    ("RECN", 0x8ccd_b1f1_e7cb_4c5d),
];

/// Scheme name → expected whole-run trace digest for the fat-tree spec
/// built by [`golden_specs`]: the same scheme matrix on the 64-host 4-ary
/// 3-tree with the one-attacker-per-leaf strided hotspot.
const GOLDEN_FATTREE: &[(&str, u64)] = &[
    ("VOQnet", 0x7560_caeb_6845_f39c),
    ("VOQsw", 0xe599_77e5_e15f_6063),
    ("4Q", 0xac91_3765_ab20_65b1),
    ("1Q", 0xe22c_0994_a3e2_737e),
    ("RECN", 0x4fea_8599_fe14_b8e5),
];

/// Scheme name → expected whole-run trace digest for the fat-tree spec
/// under `--routing adaptive` (credit-weighted up-port selection with the
/// leaf turn pinned). The selector is deterministic, so adaptive runs pin
/// to a digest of their own exactly like the deterministic rows above.
const GOLDEN_FATTREE_ADAPTIVE: &[(&str, u64)] = &[
    ("VOQnet", 0x35c2_25f6_9bdd_8ac0),
    ("VOQsw", 0x591b_449b_9e44_0707),
    ("4Q", 0xf5a0_7b9e_f64d_2fa4),
    ("1Q", 0x4794_be48_152f_869b),
    ("RECN", 0xd73d_c2fb_3983_78a9),
];

/// Scheme name → expected whole-run trace digest for the fat-tree spec
/// under `--routing arn` (notification-driven up-port selection layered on
/// the credit-weighted tie-break). Notifications ride the modeled reverse
/// channels and age out at read time, so ARN runs are exactly as
/// deterministic as the other two policies — one pinned digest each.
///
/// The four non-RECN rows equal [`GOLDEN_FATTREE_ADAPTIVE`] on purpose: at
/// this 40×-compressed scale no output queue ever crosses the occupancy
/// trigger, zero notifications are sent, and with an empty ARN table the
/// selector is decision-for-decision the adaptive one — the "ARN degrades
/// to adaptive" contract, pinned at the event level. Only RECN diverges:
/// its congested-root CAM trigger does fire here.
const GOLDEN_FATTREE_ARN: &[(&str, u64)] = &[
    ("VOQnet", 0x35c2_25f6_9bdd_8ac0),
    ("VOQsw", 0x591b_449b_9e44_0707),
    ("4Q", 0xf5a0_7b9e_f64d_2fa4),
    ("1Q", 0x4794_be48_152f_869b),
    ("RECN", 0xdfbf_854a_9743_3802),
];

/// The corner-case hotspot run the digests are pinned to: time-compressed
/// hotspot (all-to-hotspot plus victim flows), every scheme, validation on.
/// On the MIN this is the paper's corner case 2; on the fat tree it is the
/// strided-gang variant that plants one attacker under every leaf switch.
fn golden_specs(params: impl Into<TopoParams>, corner: CornerCase) -> Vec<RunSpec> {
    let params = params.into();
    let corner = corner.shrunk(40);
    SchemeSet::All
        .schemes_scaled(40)
        .into_iter()
        .map(|scheme| {
            RunSpec::corner(params, scheme, corner)
                .with_horizon(Picos::from_us(40))
                .with_bin(Picos::from_us(2))
                .with_label("golden")
                .with_validation(true)
                .with_trace(64)
        })
        .collect()
}

/// Runs the spec list serially and with 4 workers, asserts the two agree
/// per event, and pins the serial digests against `golden`.
fn check_golden(specs: impl Fn() -> Vec<RunSpec>, golden: &[(&str, u64)]) {
    let serial = Sweep::new(specs()).jobs(1).run();
    let parallel = Sweep::new(specs()).jobs(4).run();
    assert_eq!(serial.len(), golden.len());

    let digests: Vec<(&str, u64)> = serial
        .iter()
        .map(|o| (o.scheme, o.trace_digest.expect("tracing was requested")))
        .collect();

    // Per-event determinism: a 4-worker sweep replays the exact same event
    // sequence as the serial one, not merely the same summary numbers.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.scheme, p.scheme, "submission order must be preserved");
        assert_eq!(
            s.trace_digest, p.trace_digest,
            "{}: parallel sweep diverged from serial at the event level",
            s.scheme
        );
    }

    // Regression pin: digests must match the checked-in golden values.
    assert_eq!(
        digests, golden,
        "trace digests drifted from the checked-in golden values; if the \
         behaviour change is intended, update the golden table in this test"
    );
}

#[test]
fn trace_digests_match_golden_and_are_parallel_stable() {
    check_golden(
        || golden_specs(MinParams::paper_64(), CornerCase::case2_64()),
        GOLDEN,
    );
}

#[test]
fn fattree_trace_digests_match_golden_and_are_parallel_stable() {
    check_golden(
        || golden_specs(FatTreeParams::ft_64(), CornerCase::fattree_64()),
        GOLDEN_FATTREE,
    );
}

#[test]
fn fattree_adaptive_trace_digests_match_golden_and_are_parallel_stable() {
    check_golden(
        || {
            golden_specs(FatTreeParams::ft_64(), CornerCase::fattree_64())
                .into_iter()
                .map(|s| s.with_routing(fabric::RoutingPolicy::adaptive()))
                .collect()
        },
        GOLDEN_FATTREE_ADAPTIVE,
    );
}

#[test]
fn fattree_arn_trace_digests_match_golden_and_are_parallel_stable() {
    check_golden(
        || {
            golden_specs(FatTreeParams::ft_64(), CornerCase::fattree_64())
                .into_iter()
                .map(|s| s.with_routing(fabric::RoutingPolicy::arn()))
                .collect()
        },
        GOLDEN_FATTREE_ARN,
    );
}

/// Expected digest for the 512-host ARN cell pinned below.
const GOLDEN_FATTREE_512_ARN_RECN: u64 = 0x0195_c546_7d47_6c93;

/// The acceptance-level 512-host pin: the hardest cell of the routing ×
/// scheme matrix — RECN under `--routing arn` on the 8-ary 3-tree with
/// one attacker per leaf switch — is bit-deterministic: serial ≡
/// 4-worker, digest checked in. One cell rather than the whole
/// matrix on purpose: RECN×ARN is the only row where CAM churn drives
/// the notifications, and the full 3×5 table at this scale lives in
/// EXPERIMENTS.md (regenerated by `figures --net 512 --routing arn`).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 512-host preset")]
fn fattree_512_arn_recn_digest_is_pinned() {
    let specs = || -> Vec<RunSpec> {
        golden_specs(FatTreeParams::ft_512(), CornerCase::fattree_512())
            .into_iter()
            .skip(4) // RECN is the last scheme in SchemeSet::All order
            .map(|s| s.with_routing(fabric::RoutingPolicy::arn()))
            .collect()
    };
    check_golden(specs, &[("RECN", GOLDEN_FATTREE_512_ARN_RECN)]);
}
