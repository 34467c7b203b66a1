//! CAM turnpool generalization checks.
//!
//! The turnpool used to assume MIN destination-tag routes: one turn per
//! stage, every digit below the (single, global) switch radix. The
//! topology abstraction widened that to variable-radix digits (a fat-tree
//! switch has up to `2k` ports and up-turns live in `k..2k`). These tests
//! pin two facts:
//!
//! 1. **Differential on the MIN**: the old encoding
//!    (`Route::to_host(dst, radix, stages)`) and the new topology-driven
//!    one (`Topology::route(src, dst)`) produce identical turn sequences,
//!    so every CAM path and longest-prefix match is bit-identical on MIN
//!    paths before and after the generalization.
//! 2. **Variable radix**: longest-prefix matching is pure digit-sequence
//!    comparison — digits up to 15 (an 8-ary tree's up-turns) behave
//!    exactly like the MIN's 0..8 digits.
//!
//! Plus the model differential: under seeded random allocate/free/match
//! sequences the CAM agrees with a naive `Vec<(path, id)>` matcher and its
//! occupancy always equals allocations minus frees.

use recn::{CamTable, SaqId};
use simcore::Xoshiro256;
use topology::{FatTreeParams, HostId, MinParams, PathSpec, Route, Topology};

#[test]
fn min_routes_identical_under_old_and_new_encoding() {
    let params = MinParams::paper_64();
    let topo = Topology::new(params);
    for s in 0..params.hosts() {
        for d in 0..params.hosts() {
            let old = Route::to_host(HostId::new(d), params.radix(), params.stages() as usize);
            let new = topo.route(HostId::new(s), HostId::new(d));
            assert_eq!(
                old.all_turns(),
                new.all_turns(),
                "MIN route for {s}->{d} changed under the topology abstraction"
            );
        }
    }
}

/// Builds a CAM whose lines are every proper prefix (depth ≥ 1) of the
/// route to `dst`, the way nested congestion trees allocate SAQs.
fn cam_of_route_prefixes(turns: &[u8]) -> CamTable {
    let mut cam = CamTable::new(8);
    for depth in 1..=turns.len() {
        cam.allocate(PathSpec::from_turns(&turns[..depth])).unwrap();
    }
    cam
}

#[test]
fn lpm_identical_on_min_paths_before_and_after_generalization() {
    let params = MinParams::paper_64();
    let topo = Topology::new(params);
    // A handful of destinations spanning the digit space; for each, build
    // the prefix CAM from both encodings and compare every lookup a packet
    // could make (all suffix lengths of all-pairs routes).
    for d in [0u32, 1, 21, 42, 63] {
        let old = Route::to_host(HostId::new(d), params.radix(), params.stages() as usize);
        let cam_old = cam_of_route_prefixes(old.all_turns());
        let cam_new = cam_of_route_prefixes(topo.route(HostId::new(0), HostId::new(d)).all_turns());
        for s in 0..params.hosts() {
            for probe_dst in 0..params.hosts() {
                let route = topo.route(HostId::new(s), HostId::new(probe_dst));
                for consumed in 0..=route.stages() {
                    let remaining = &route.all_turns()[consumed..];
                    let o = cam_old.longest_match(remaining);
                    let n = cam_new.longest_match(remaining);
                    assert_eq!(
                        o.map(|id| cam_old.path_of(id)),
                        n.map(|id| cam_new.path_of(id)),
                        "LPM diverged for remaining={remaining:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn lpm_handles_variable_radix_digits() {
    // An 8-ary 3-tree route uses up-turn digits in 8..16 and down-turn
    // digits in 0..8; nested prefixes of a real route must match deepest-
    // first exactly as on the MIN.
    let ft = Topology::new(FatTreeParams::ft_512());
    let route = ft.route(HostId::new(448), HostId::new(63));
    let turns = route.all_turns();
    assert!(
        turns.iter().any(|&t| t >= 8),
        "route must exercise digits above the MIN radix: {turns:?}"
    );
    assert!(turns.iter().all(|&t| t < 16), "8-ary digits fit in 0..16");

    let cam = cam_of_route_prefixes(turns);
    // A packet on the same route matches the deepest allocated prefix at
    // every point along its life.
    for consumed in 0..turns.len() {
        let remaining = &turns[consumed..];
        let hit = cam.longest_match(remaining);
        if consumed == 0 {
            let id = hit.expect("full route must match");
            assert_eq!(cam.path_of(id).turns(), turns, "deepest prefix wins");
        } else {
            // Suffixes no longer start at the tree root: they only match if
            // some allocated prefix happens to be a prefix of the suffix.
            let naive = (1..=turns.len())
                .filter(|&depth| remaining.starts_with(&turns[..depth]))
                .max();
            assert_eq!(hit.map(|id| cam.path_of(id).len()), naive);
        }
    }

    // Digit 8 and digit 15 are distinct CAM keys (the old all-digits-
    // below-radix assumption would have aliased or rejected them).
    let mut cam = CamTable::new(4);
    let low = cam.allocate(PathSpec::from_turns(&[8, 0])).unwrap();
    let high = cam.allocate(PathSpec::from_turns(&[15, 0])).unwrap();
    assert_eq!(cam.longest_match(&[8, 0, 3]), Some(low));
    assert_eq!(cam.longest_match(&[15, 0, 3]), Some(high));
    assert_eq!(cam.longest_match(&[9, 0, 3]), None);
}

/// Seeds every CAM property run replays first: the corpus the retired
/// property suite pinned (leading 64 bits of each recorded case hash).
const PINNED_SEEDS: [u64; 2] = [0xd49c_ddc2_1f56_271b, 0xef17_a354_62b2_041c];

enum CamOp {
    Alloc(Vec<u8>),
    FreeNth(usize),
    Match(Vec<u8>),
}

/// 1..=80 ops over paths of radix-4 turns, short enough that duplicates
/// and nested prefixes are common, and allocation-heavy enough that the
/// 8-line table fills.
fn cam_ops(seed: u64) -> Vec<CamOp> {
    let mut rng = Xoshiro256::new(seed);
    let n = 1 + rng.next_below(80);
    (0..n)
        .map(|_| {
            let kind = rng.next_below(4);
            let len = rng.next_below(if kind < 2 { 5 } else { 6 });
            let turns = (0..len).map(|_| rng.next_below(4) as u8).collect();
            match kind {
                0 | 1 => CamOp::Alloc(turns),
                2 => CamOp::FreeNth(rng.next_below(16) as usize),
                _ => CamOp::Match(turns),
            }
        })
        .collect()
}

fn seeds() -> impl Iterator<Item = u64> {
    PINNED_SEEDS.into_iter().chain(0..400)
}

/// `CamTable` versus a naive `Vec<(path, id)>` model.
#[test]
fn cam_matches_naive_model() {
    for seed in seeds() {
        let mut cam = CamTable::new(8);
        let mut model: Vec<(Vec<u8>, SaqId)> = Vec::new();
        for op in cam_ops(seed) {
            match op {
                CamOp::Alloc(path) => {
                    let spec = PathSpec::from_turns(&path);
                    if model.iter().any(|(p, _)| *p == path) {
                        assert!(cam.find_path(&spec).is_some(), "seed {seed}");
                        continue;
                    }
                    match cam.allocate(spec) {
                        Some(id) => {
                            assert!(model.len() < 8, "seed {seed}");
                            model.push((path, id));
                        }
                        None => assert_eq!(model.len(), 8, "seed {seed}"),
                    }
                }
                CamOp::FreeNth(n) => {
                    if !model.is_empty() {
                        let (_, id) = model.remove(n % model.len());
                        cam.free(id);
                        assert!(!cam.is_live(id), "seed {seed}");
                    }
                }
                CamOp::Match(rem) => {
                    let naive = model
                        .iter()
                        .filter(|(p, _)| rem.starts_with(p))
                        .max_by_key(|(p, _)| p.len())
                        .map(|(_, id)| *id);
                    assert_eq!(cam.longest_match(&rem), naive, "seed {seed}");
                }
            }
            assert_eq!(cam.in_use(), model.len(), "seed {seed}");
        }
    }
}

/// CAM alloc/free balance — the invariant the fabric's validating
/// observer enforces online via its `on_saq_alloc`/`on_saq_dealloc`
/// hooks, checked here at the CAM layer directly: `in_use` always equals
/// allocations minus frees, a freed slot is immediately reusable, and a
/// fully drained table offers its whole pool again.
#[test]
fn cam_alloc_free_balance() {
    for seed in seeds() {
        let mut cam = CamTable::new(8);
        let mut live: Vec<(Vec<u8>, SaqId)> = Vec::new();
        let (mut allocs, mut frees) = (0u64, 0u64);
        for op in cam_ops(seed) {
            match op {
                CamOp::Alloc(path) => {
                    if live.iter().any(|(p, _)| *p == path) {
                        continue;
                    }
                    match cam.allocate(PathSpec::from_turns(&path)) {
                        Some(id) => {
                            allocs += 1;
                            live.push((path, id));
                        }
                        None => assert_eq!(live.len(), 8, "reject only when full"),
                    }
                }
                CamOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (_, id) = live.remove(n % live.len());
                        cam.free(id);
                        frees += 1;
                    }
                }
                // Lookups must never perturb the balance.
                CamOp::Match(rem) => _ = cam.longest_match(&rem),
            }
            assert_eq!(cam.in_use() as u64, allocs - frees, "seed {seed}");
            assert_eq!(cam.in_use(), live.len(), "seed {seed}");
        }
        for (_, id) in live.drain(..) {
            cam.free(id);
        }
        assert_eq!(cam.in_use(), 0, "drained table must be empty");
        // The full pool is reusable after a drain.
        for i in 0..8u8 {
            let path = PathSpec::from_turns(&[i % 4, i / 4]);
            assert!(cam.allocate(path).is_some(), "seed {seed}");
        }
        assert_eq!(cam.in_use(), 8);
    }
}
