//! Per-layer micro-kernels: one hot operation of each crate, driven through
//! its public API, so a regression localises to a layer.
//!
//! Every kernel runs for at least [`MIN_SECS`], rebuilds its state before
//! each batch (untimed) and folds what the batch computed into a checksum
//! that must repeat from batch to batch, so the work can be neither elided
//! nor silently changed. Results are host nanoseconds per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use experiments::runner::scaled_recn_config;
use fabric::{
    ArnTable, Event, FabricConfig, MessageSource, NetObserver, Packet, Payload, PortSide,
    QueueItem, QueueSet, SchemeKind,
};
use metrics::Probe;
use recn::{CamTable, NotifOutcome, RecnPort};
use simcore::{EventQueue, Picos, Xoshiro256};
use topology::{FatTreeParams, HostId, PathSpec, PortId, Route, Topology};
use traffic::corner::CornerCase;

use crate::{fnv, FNV_OFFSET};

const MIN_SECS: f64 = 0.2;

/// One micro-kernel's result.
pub struct Micro {
    pub ns_per_op: f64,
    pub ops: u64,
}

/// Runs `batch` on fresh `setup()` state until [`MIN_SECS`] of batch time
/// has accumulated. A batch returns `(operations, checksum)`.
fn kernel<S>(mut setup: impl FnMut() -> S, mut batch: impl FnMut(&mut S) -> (u64, u64)) -> Micro {
    let mut spent = Duration::ZERO;
    let mut ops = 0u64;
    let mut first = None;
    while spent.as_secs_f64() < MIN_SECS {
        let mut state = setup();
        let started = Instant::now();
        let (n, sum) = black_box(batch(black_box(&mut state)));
        spent += started.elapsed();
        ops += n;
        assert_ne!(sum, FNV_OFFSET, "kernel folded nothing into its checksum");
        assert_eq!(
            *first.get_or_insert(sum),
            sum,
            "kernel checksum changed between identical batches"
        );
    }
    Micro {
        ns_per_op: spent.as_secs_f64() * 1e9 / ops as f64,
        ops,
    }
}

fn packet(id: u64, route: Route) -> Packet {
    Packet {
        id,
        src: HostId::new(0),
        dst: route.dest(),
        size: 64,
        route,
        injected_at: Picos::ZERO,
        flow_seq: id,
    }
}

/// `simcore`: pop one event, push it back later — the classic hold model —
/// on a queue of `fabric::Event`s kept at `depth`. The increments are the
/// fabric's own: a 64-byte link hop, a 64-byte crossbar transfer, and a
/// same-time arbiter kick, picked by a seeded generator.
pub fn hold(depth: usize, seed: u64) -> Micro {
    let cfg = FabricConfig::paper(SchemeKind::OneQ);
    let increments = [
        cfg.link_time(64) + cfg.link_delay,
        cfg.xbar_time(64),
        Picos::ZERO,
    ];
    let route = Route::to_host(HostId::new(27), 4, 3);
    kernel(
        || {
            let mut rng = Xoshiro256::new(seed);
            let mut q = EventQueue::new();
            for i in 0..depth {
                let at = Picos::new(rng.next_below(128_000));
                let event = match i % 4 {
                    0 | 1 => Event::Deliver {
                        link: i,
                        payload: Payload::Data {
                            pkt: packet(i as u64, route),
                            target_queue: 0,
                        },
                    },
                    2 => Event::InputArb { sw: i },
                    _ => Event::XbarDone {
                        sw: i,
                        input: 1,
                        output: 2,
                    },
                };
                q.schedule(at, event);
            }
            (q, rng)
        },
        |(q, rng)| {
            const OPS: u64 = 200_000;
            let mut sum = FNV_OFFSET;
            let mut last = Picos::ZERO;
            for _ in 0..OPS {
                let ev = q.pop().expect("the hold model never drains");
                assert!(ev.time >= last, "event queue went back in time");
                last = ev.time;
                sum = fnv(sum, ev.time.as_ps());
                let later = ev.time + increments[rng.next_below(3) as usize];
                q.schedule(later, ev.event);
            }
            (OPS, sum)
        },
    )
}

/// `fabric`: `QueueSet::push_direct` / `pop` over the shared arena of a
/// RECN switch-input queue set (8-port switch, 8 SAQs + the normal queue).
pub fn queueset() -> Micro {
    let scheme = SchemeKind::Recn(scaled_recn_config(16));
    let route = Route::to_host(HostId::new(27), 8, 2);
    kernel(
        || QueueSet::new(scheme, PortSide::SwitchInput, 8, 64, 128 * 1024),
        |qs| {
            const ROUNDS: u64 = 2_000;
            const BURST: u64 = 32;
            let mut sum = FNV_OFFSET;
            for round in 0..ROUNDS {
                for i in 0..BURST {
                    let pkt = packet(round * BURST + i, route);
                    qs.push_direct((i % 3) as usize, QueueItem::Packet(pkt));
                }
                for i in 0..BURST {
                    if let QueueItem::Packet(p) = qs.pop((i % 3) as usize) {
                        sum = fnv(sum, p.id);
                    }
                }
            }
            assert!(qs.is_drained(), "every pushed packet was popped");
            (2 * ROUNDS * BURST, sum)
        },
    )
}

/// Pre-seeded ARN tables for the 512-host fat tree: a deterministic mix of
/// live, aged-out and empty entries, as in `bench_core`'s route walk.
fn arn_tables(topo: &Topology) -> Vec<ArnTable> {
    topo.switches()
        .map(|sw| {
            let ports = topo.up_ports(sw);
            let mut t = ArnTable::new((ports.end - ports.start) as usize);
            for slot in 0..t.len() {
                if (sw.index() + slot) % 3 == 0 {
                    t.note_hot(slot, Picos::from_us(1));
                }
                if (sw.index() + slot) % 7 == 0 {
                    t.note_hot(slot, Picos::from_us(30));
                }
            }
            t
        })
        .collect()
}

/// `fabric`: the up-port choice under notification-driven adaptive
/// routing — scan every candidate's `ArnTable::live_count`, take the
/// lexicographic minimum `(live, tie-break)`, bind the turn — at the
/// first unbound up-turn of every pair of the 512-host fat tree that has one.
pub fn arn_select() -> Micro {
    let topo = Topology::new(FatTreeParams::ft_512());
    let tables = arn_tables(&topo);
    let hosts = topo.num_hosts();
    kernel(
        || {
            // The unbound routes, built outside the timed batch.
            let mut climbing = Vec::new();
            for s in (0..hosts).step_by(8) {
                for d in 0..hosts {
                    // Walk each route to its first unbound up-turn, if any
                    // (the leaf's own up-turn is bound at injection).
                    let mut route = topo.route_adaptive(HostId::new(s), HostId::new(d));
                    let (mut sw, _) = topo.host_ingress(HostId::new(s));
                    while !route.next_turn_rebindable() && !route.is_exhausted() {
                        match topo.next_hop(sw, PortId::new(route.advance() as u32)) {
                            Ok((next, _)) => sw = next,
                            Err(_) => break,
                        }
                    }
                    if route.next_turn_rebindable() {
                        climbing.push((sw, route));
                    }
                }
            }
            assert!(!climbing.is_empty(), "the fat tree has climbing routes");
            climbing
        },
        |climbing| {
            let mut sum = FNV_OFFSET;
            let mut tie = 0x5eed_c0de_u64;
            for (i, (sw, route)) in climbing.iter_mut().enumerate() {
                let ports = topo.up_ports(*sw);
                let table = &tables[sw.index()];
                // The read clock sweeps 10..50 us, across the 20 us
                // lifetime of both seeding stamps.
                let now = Picos::from_us(10 + i as u64 % 40);
                let mut best: Option<(u32, u64, u32)> = None;
                for port in ports.clone() {
                    let live = table.live_count((port - ports.start) as usize, now);
                    tie = tie
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = (live, tie >> 33, port);
                    if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                        best = Some(key);
                    }
                }
                let (live, _, port) = best.expect("a climbing switch has up-ports");
                route.bind_next_turn(port as u8);
                sum = fnv(fnv(sum, live as u64), route.advance() as u64);
            }
            (climbing.len() as u64, sum)
        },
    )
}

/// `recn`: `CamTable::lookup` with 0, 4 and 8 of 8 lines allocated, over a
/// route mix of which about half match a line.
pub fn cam_lookup() -> Micro {
    let routes: Vec<Route> = (0..64u32)
        .map(|i| {
            let turns = [(i % 8) as u8, ((i / 8) % 4) as u8, (i % 3) as u8];
            Route::from_turns(HostId::new(i), &turns)
        })
        .collect();
    kernel(
        || {
            [0usize, 4, 8].map(|live| {
                let mut cam = CamTable::new(8);
                for line in 0..live {
                    // Lines 0..4 hold one-turn paths, 4..8 nested two-turn
                    // paths under them.
                    let path = if line < 4 {
                        PathSpec::from_turns(&[line as u8])
                    } else {
                        PathSpec::from_turns(&[(line - 4) as u8, 1])
                    };
                    cam.allocate(path).expect("eight lines fit");
                }
                cam
            })
        },
        |cams| {
            const ROUNDS: u64 = 2_000;
            let mut sum = FNV_OFFSET;
            for cam in cams.iter() {
                for _ in 0..ROUNDS {
                    for route in &routes {
                        let line = cam.lookup(black_box(route)).map_or(0xff, |id| id.line());
                        sum = fnv(sum, line as u64);
                    }
                }
            }
            (3 * ROUNDS * routes.len() as u64, sum)
        },
    )
}

/// `recn`: `RecnPort::saq_enqueued` / `saq_dequeued` on one live SAQ of an
/// ingress port, in bursts that cross the propagation threshold both ways.
pub fn port_enq_deq() -> Micro {
    let cfg = scaled_recn_config(16);
    kernel(
        || {
            let mut port = RecnPort::new_ingress(cfg);
            let NotifOutcome::Accepted { saq } =
                port.alloc_on_notification(PathSpec::from_turns(&[2]))
            else {
                panic!("an empty CAM accepts a notification");
            };
            port.marker_consumed(saq);
            (port, saq)
        },
        |(port, saq)| {
            const ROUNDS: u64 = 20_000;
            const BURST: u64 = 8;
            let mut sum = FNV_OFFSET;
            for _ in 0..ROUNDS {
                for _ in 0..BURST {
                    let s = port.saq_enqueued(*saq, 64);
                    sum = fnv(sum, s.propagate.is_some() as u64);
                }
                for _ in 0..BURST {
                    let s = port.saq_dequeued(*saq, 64);
                    sum = fnv(sum, s.deallocatable as u64);
                }
            }
            (2 * ROUNDS * BURST, fnv(sum, port.occupancy(*saq)))
        },
    )
}

/// `topology`: `route()` for every pair of the 512-host fat tree, and the
/// hop-by-hop `next_hop` walk of those routes, timed apart. Returns
/// `(route, next_hop)`.
pub fn route_walk() -> (Micro, Micro) {
    let topo = Topology::new(FatTreeParams::ft_512());
    let hosts = topo.num_hosts();
    let (mut route_t, mut hop_t) = (Duration::ZERO, Duration::ZERO);
    let (mut routes_n, mut hops_n) = (0u64, 0u64);
    let mut first = None;
    let mut row: Vec<Route> = Vec::with_capacity(hosts as usize);
    while route_t.as_secs_f64() < MIN_SECS || hop_t.as_secs_f64() < MIN_SECS {
        let mut sum = FNV_OFFSET;
        for s in 0..hosts {
            row.clear();
            let t0 = Instant::now();
            row.extend((0..hosts).map(|d| topo.route(HostId::new(s), black_box(HostId::new(d)))));
            let t1 = Instant::now();
            for route in &mut row {
                let (mut sw, _) = topo.host_ingress(HostId::new(s));
                loop {
                    let turn = route.advance();
                    sum = fnv(sum, turn as u64);
                    hops_n += 1;
                    match topo.next_hop(sw, PortId::new(turn as u32)) {
                        Ok((next, _)) => sw = next,
                        Err(host) => {
                            assert_eq!(host, route.dest(), "misrouted pair");
                            break;
                        }
                    }
                }
            }
            hop_t += t1.elapsed();
            route_t += t1 - t0;
            routes_n += hosts as u64;
        }
        assert_eq!(
            *first.get_or_insert(sum),
            sum,
            "route walk checksum changed between identical passes"
        );
    }
    let micro = |t: Duration, n: u64| Micro {
        ns_per_op: t.as_secs_f64() * 1e9 / n as f64,
        ops: n,
    };
    (micro(route_t, routes_n), micro(hop_t, hops_n))
}

/// `topology`: `Topology::new` for the 4096-host fat tree.
pub fn topology_build() -> Micro {
    kernel(
        || (),
        |()| {
            const BUILDS: u64 = 1_000;
            let mut sum = FNV_OFFSET;
            for _ in 0..BUILDS {
                let topo = Topology::new(black_box(FatTreeParams::ft_4096()));
                sum = fnv(sum, black_box(&topo).num_switches() as u64);
            }
            (BUILDS, sum)
        },
    )
}

/// `traffic`: drains the 256-host corner case's sources (random background
/// plus the constant-rate gang) and a lone `RandomUniformSource`, with no
/// network attached.
pub fn sources(seed: u64) -> Micro {
    let horizon = Picos::from_us(25);
    let corner = CornerCase::case2_256().shrunk(64).with_seed(seed);
    kernel(
        || {
            let mut all = corner.build_sources(horizon);
            let lone = traffic::RandomUniformSource::new(64, Some(HostId::new(0)), 64, 0.6)
                .window(Picos::ZERO, Picos::from_us(400))
                .seed(seed)
                .build();
            all.push(Box::new(lone) as Box<dyn MessageSource>);
            all
        },
        |all| {
            let mut sum = FNV_OFFSET;
            let mut messages = 0u64;
            for source in all.iter_mut() {
                while let Some(m) = source.next_message() {
                    sum = fnv(sum, m.at.as_ps() ^ m.dst.index() as u64);
                    messages += 1;
                }
            }
            (messages, sum)
        },
    )
}

/// `metrics`: the `Probe`'s two per-packet hooks and its census hook, at
/// advancing simulated times across 400 one-microsecond bins.
pub fn probe() -> Micro {
    let pkt = packet(1, Route::to_host(HostId::new(27), 4, 3));
    kernel(
        || Probe::new(Picos::from_us(1)),
        |(probe, handle)| {
            const CALLS: u64 = 400_000;
            for i in 0..CALLS / 4 {
                let now = Picos::from_ns(i * 4);
                probe.on_injected(now, &pkt);
                probe.on_delivered(now, &pkt);
                probe.on_delivered(now, &pkt);
                probe.on_saq_census(now, (i % 5) as u32, (i % 3) as u32, (i % 17) as u32);
            }
            let peaks = handle.saq_peaks();
            let sum = fnv(FNV_OFFSET, handle.delivered_bytes() as u64);
            (CALLS, fnv(sum, peaks.2 as u64))
        },
    )
}
