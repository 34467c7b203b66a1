//! RECN at the SAQ cap: seeded allocate/free/lookup churn over a
//! [`CamTable`] and a [`RecnPort`] of eight lines, with long stretches in
//! which the CAM is full, checked step by step against [`EagerCam`] — the
//! table with every line built up front, written here in the plainest form
//! it has. The table under test builds its lines on the first `allocate`;
//! nothing a caller can see may tell the two apart: the same line and
//! generation for every allocation, the same accepted / already present /
//! rejected, the same longest match.

use recn::{CamTable, Classify, NotifOutcome, RecnConfig, RecnPort, SaqId};
use simcore::SplitMix64;
use topology::PathSpec;

const LINES: usize = 8;

/// Every line exists from the start; the lowest free one is taken first;
/// one generation counter per table.
struct EagerCam {
    lines: Vec<Option<(PathSpec, u32)>>,
    next_generation: u32,
}

impl EagerCam {
    fn new() -> EagerCam {
        EagerCam {
            lines: vec![None; LINES],
            next_generation: 0,
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, PathSpec, u32)> + '_ {
        let line = |(i, l): (usize, &Option<(PathSpec, u32)>)| l.map(|(p, g)| (i, p, g));
        self.lines.iter().enumerate().filter_map(line)
    }

    fn find(&self, path: PathSpec) -> Option<(usize, u32)> {
        let hit = self.live().find(|(_, p, _)| *p == path);
        hit.map(|(i, _, g)| (i, g))
    }

    fn allocate(&mut self, path: PathSpec) -> Option<(usize, u32)> {
        let free = self.lines.iter().position(Option::is_none)?;
        self.lines[free] = Some((path, self.next_generation));
        self.next_generation += 1;
        Some((free, self.next_generation - 1))
    }

    fn longest_match(&self, remaining: &[u8]) -> Option<(usize, u32)> {
        let matching = self
            .live()
            .filter(|(_, p, _)| remaining.starts_with(p.turns()));
        matching
            .max_by_key(|(_, p, _)| p.len())
            .map(|(i, _, g)| (i, g))
    }
}

fn key(id: SaqId) -> (usize, u32) {
    (id.line(), id.generation())
}

/// What the churn does next. Paths are one to three radix-4 turns (84 of
/// them for 8 lines); the mix leans on allocation for 3,000 steps, then on
/// freeing for 1,000, so the table sits full for most of each cycle.
enum Op {
    Alloc(PathSpec),
    Free(usize),
    Lookup(Vec<u8>),
}

fn next_op(rng: &mut SplitMix64, step: usize) -> Op {
    let mut turns = |max_len: u64| -> Vec<u8> {
        let len = 1 + rng.next_u64() % max_len;
        (0..len).map(|_| (rng.next_u64() % 4) as u8).collect()
    };
    let (path, route) = (turns(3), turns(5));
    let filling = step % 4_000 < 3_000;
    match (rng.next_u64() % 20, filling) {
        (0..=9, true) | (0..=1, false) => Op::Alloc(PathSpec::from_turns(&path)),
        (10, true) | (2..=11, false) => Op::Free(rng.next_u64() as usize),
        _ => Op::Lookup(route),
    }
}

const STEPS: usize = 120_000;

#[test]
fn cam_table_matches_the_eager_table_through_exhaustion() {
    let mut rng = SplitMix64::new(0x5a9_c4a3);
    let (mut cam, mut model) = (CamTable::new(LINES), EagerCam::new());
    assert_eq!(cam.backing_bytes(), 0, "no line storage before a tree");
    let mut built = 0;
    let (mut refused, mut full_steps) = (0, 0);
    for step in 0..STEPS {
        match next_op(&mut rng, step) {
            Op::Alloc(path) => {
                let present = cam.find_path(&path).map(key);
                assert_eq!(present, model.find(path), "step {step}");
                if present.is_none() {
                    let got = cam.allocate(path).map(key);
                    assert_eq!(got, model.allocate(path), "step {step}");
                    refused += got.is_none() as usize;
                }
            }
            Op::Free(nth) => {
                let live: Vec<SaqId> = cam.iter_ids().collect();
                if let Some(&id) = live.get(nth % live.len().max(1)) {
                    cam.free(id);
                    model.lines[id.line()] = None;
                    assert!(!cam.is_live(id), "step {step}");
                }
            }
            Op::Lookup(route) => {
                let got = cam.longest_match(&route).map(key);
                assert_eq!(got, model.longest_match(&route), "step {step}");
            }
        }
        assert_eq!(cam.in_use(), model.live().count(), "step {step}");
        assert_eq!(cam.capacity(), LINES, "step {step}");
        full_steps += (cam.in_use() == LINES) as usize;
        // Built by the first allocation, then kept: emptying the table
        // gives nothing back and refilling it takes nothing more.
        if model.next_generation > 0 && built == 0 {
            built = cam.backing_bytes();
            assert!(built > 0, "step {step}");
        }
        assert_eq!(cam.backing_bytes(), built, "step {step}");
    }
    assert_eq!(cam.peak_in_use(), LINES);
    assert!(refused > 10_000, "{refused} allocations met a full table");
    assert!(
        full_steps > STEPS / 2,
        "{full_steps} steps with the CAM full"
    );
}

#[test]
fn recn_port_matches_the_eager_table_through_exhaustion() {
    let cfg = RecnConfig::default().with_max_saqs(LINES);
    let mut rng = SplitMix64::new(0xe6_0a57);
    let (mut port, mut model) = (RecnPort::new_ingress(cfg), EagerCam::new());
    assert_eq!(port.backing_bytes(), 0, "no line storage before a tree");
    let (mut accepted, mut duplicate, mut rejected, mut full_steps) = (0, 0, 0, 0);
    for step in 0..STEPS {
        match next_op(&mut rng, step) {
            Op::Alloc(path) => match port.alloc_on_notification(path) {
                NotifOutcome::Accepted { saq } => {
                    assert_eq!(model.find(path), None, "step {step}");
                    assert_eq!(Some(key(saq)), model.allocate(path), "step {step}");
                    accepted += 1;
                    // One marker in the normal queue and one in every SAQ
                    // whose path is a proper prefix: consumed at once, the
                    // SAQ is free to transmit and to be reclaimed.
                    let nested = model
                        .live()
                        .filter(|(_, p, _)| p.len() < path.len() && p.is_prefix_of(&path));
                    let markers = 1 + nested.count();
                    assert_eq!(port.marker_plan(saq).len() + 1, markers, "step {step}");
                    for _ in 0..markers {
                        assert!(port.is_blocked(saq), "step {step}");
                        port.marker_consumed(saq);
                    }
                    assert!(port.may_transmit(saq), "step {step}");
                }
                NotifOutcome::AlreadyPresent { saq } => {
                    assert_eq!(Some(key(saq)), model.find(path), "step {step}");
                    duplicate += 1;
                }
                NotifOutcome::Rejected => {
                    assert_eq!(model.find(path), None, "step {step}");
                    assert_eq!(model.live().count(), LINES, "rejected with a free line");
                    rejected += 1;
                }
            },
            Op::Free(nth) => {
                let live: Vec<SaqId> = port.iter_saqs().collect();
                if let Some(&saq) = live.get(nth % live.len().max(1)) {
                    // Every other one carries a packet first, so both ways
                    // out are taken: drained, and reclaimed never used.
                    if nth % 2 == 0 {
                        port.saq_enqueued(saq, 64);
                        assert!(port.saq_dequeued(saq, 64).deallocatable, "step {step}");
                    }
                    assert!(port.is_empty_leaf(saq), "step {step}");
                    port.dealloc(saq);
                    model.lines[saq.line()] = None;
                }
            }
            Op::Lookup(route) => {
                let got = match port.classify(&route) {
                    Classify::Normal => None,
                    Classify::Saq(saq) => Some(key(saq)),
                };
                assert_eq!(got, model.longest_match(&route), "step {step}");
            }
        }
        assert_eq!(port.saqs_in_use(), model.live().count(), "step {step}");
        assert_eq!(port.cam().capacity(), LINES, "step {step}");
        assert_eq!(port.backing_bytes() > 0, accepted > 0, "step {step}");
        full_steps += (port.saqs_in_use() == LINES) as usize;
    }
    assert_eq!(port.peak_saqs(), LINES);
    assert!(
        accepted > 5_000 && duplicate > 1_000,
        "{accepted} {duplicate}"
    );
    assert!(rejected > 10_000, "{rejected} notifications met a full CAM");
    assert!(
        full_steps > STEPS / 2,
        "{full_steps} steps with the CAM full"
    );
}
