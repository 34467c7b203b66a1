//! The content-addressed run cache, end to end: populate → hit →
//! byte-identical replay, resume after a partial sweep, and corrupt-entry
//! eviction. Everything runs on a 40×-compressed corner case so the whole
//! file stays in the seconds range.

use experiments::cache::{CacheStatus, RunCache};
use experiments::runner::{scaled_recn_config, summarize};
use experiments::spec::RunSpec;
use experiments::sweep::{render_summary, Sweep};
use fabric::{CounterMut, SchemeKind};
use simcore::{fnv1a64, Picos, SeriesPoint};
use topology::MinParams;
use traffic::corner::CornerCase;

/// A fresh scratch directory under the target dir (unique per test so
/// the suite can run in parallel).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `entry` with its body replaced by `body`, sealed under `body`'s own
/// checksum (the header's last line): the reader, not the checksum, has to
/// judge it.
fn reseal(entry: &str, body: &[u8]) -> Vec<u8> {
    let head = entry
        .split_once("\n\n")
        .expect("header, blank line, body")
        .0;
    let (head, _) = head.rsplit_once("\nchecksum ").expect("checksum line");
    let head = format!("{head}\nchecksum {:016x}\n\n", fnv1a64(body));
    [head.as_bytes(), body].concat()
}

fn quick_specs() -> Vec<RunSpec> {
    [
        SchemeKind::OneQ,
        SchemeKind::VoqNet,
        SchemeKind::Recn(scaled_recn_config(40)),
    ]
    .into_iter()
    .map(|scheme| {
        RunSpec::corner(
            MinParams::paper_64(),
            scheme,
            CornerCase::case2_64().shrunk(40),
        )
        .with_horizon(Picos::from_us(40))
        .with_bin(Picos::from_us(2))
    })
    .collect()
}

#[test]
fn store_then_load_round_trips_every_field() {
    let dir = scratch("cache_round_trip");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(2); // RECN: exercises every counter
    let out = experiments::run_one(&spec);

    assert!(cache.load(&spec).is_none(), "cold cache must miss");
    let path = cache.store(&spec, &out).expect("store");
    assert!(path.exists());
    let back = cache.load(&spec).expect("hit after store");

    // The replay must agree field for field, bit for bit.
    assert_eq!(back.scheme, out.scheme);
    assert_eq!(back.throughput, out.throughput);
    assert_eq!(back.saq, out.saq);
    assert_eq!(back.saq_peaks, out.saq_peaks);
    assert_eq!(back.events, out.events);
    assert_eq!(back.peak_event_queue_depth, out.peak_event_queue_depth);
    assert_eq!(back.wall_secs.to_bits(), out.wall_secs.to_bits());
    assert_eq!(back.trace_digest, out.trace_digest);
    assert_eq!(
        format!("{:?}", back.counters),
        format!("{:?}", out.counters)
    );
    assert_eq!(summarize(&back), summarize(&out));

    // A real run leaves most counters at 0, so a swapped column would
    // round-trip unnoticed. Give every counter its own value and check
    // each stored name against the struct's own field names, which
    // `derive(Debug)` prints without going through the table.
    let mut synthetic = back;
    for (i, (_, field)) in synthetic.counters.fields_mut().into_iter().enumerate() {
        match field {
            CounterMut::Count(c) => *c = 1000 + i as u64,
            CounterMut::Stat(r) => [1.5, -2.0, 0.1].into_iter().for_each(|x| r.push(x)),
        }
    }
    let debug = format!("{:?}", synthetic.counters);
    let path = cache.store(&spec, &synthetic).expect("store");
    let text = std::fs::read_to_string(path).unwrap();
    for (name, field) in synthetic.counters.fields_mut() {
        if let CounterMut::Count(v) = field {
            assert!(
                debug.contains(&format!(" {name}: {v}")),
                "{name} in {debug}"
            );
            assert!(
                text.contains(&format!("\n{name} {v}\n")),
                "{name} in {text}"
            );
        }
    }
    let back = cache.load(&spec).expect("hit after store");
    assert_eq!(format!("{:?}", back.counters), debug);
}

/// A RECN run's throughput and SAQ series, on bins that are not a whole
/// number of microseconds: the body stores one bin width and the values,
/// and loading rebuilds every point bit for bit. A body whose series is
/// one bin short is corrupt even under a valid checksum.
#[test]
fn recn_series_round_trip_bit_for_bit() {
    let dir = scratch("cache_series");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(2).with_bin(Picos::from_ns(1_300));
    let out = experiments::run_one(&spec);
    assert!(out.saq.total.iter().any(|&n| n > 0), "{:?}", out.saq);
    assert!(out.throughput.iter().any(|p| p.value > 0.0));
    let path = cache.store(&spec, &out).expect("store");
    let back = cache.load(&spec).expect("hit after store");
    let bits = |pts: &[SeriesPoint]| -> Vec<(u64, u64)> {
        pts.iter()
            .map(|p| (p.t_us.to_bits(), p.value.to_bits()))
            .collect()
    };
    assert_eq!(bits(&back.throughput), bits(&out.throughput));
    assert_eq!(back.saq, out.saq);
    assert_eq!(back.saq.total.len(), 30, "40 µs of 1.3 µs bins");

    let text = std::fs::read_to_string(&path).expect("read entry");
    assert!(text.contains("\n\nbin_ps 1300000\n"), "{text}");
    let body = text.split_once("\n\n").expect("header and body").1;
    let first = format!("\nsaq_total {} ", back.saq.total[0]);
    let short = body.replacen(&first, "\nsaq_total ", 1);
    assert_ne!(short, body, "one bin dropped");
    std::fs::write(&path, reseal(&text, short.as_bytes())).expect("rewrite entry");
    assert!(cache.load(&spec).is_none(), "a short series is corrupt");
    assert!(!path.exists(), "and evicted");
}

#[test]
fn cached_sweep_is_byte_identical_and_all_hits() {
    let dir = scratch("cache_sweep_twice");
    let first = Sweep::new(quick_specs()).jobs(2).cache(&dir).run_report();
    assert_eq!(first.cache, vec![CacheStatus::Miss; 3]);

    let second = Sweep::new(quick_specs()).jobs(2).cache(&dir).run_report();
    assert_eq!(second.cache, vec![CacheStatus::Hit; 3], "warm cache serves");
    assert_eq!(second.cache_hits(), 3);

    // Replayed outputs are byte-identical to the originals — including
    // wall seconds and event totals, which are stored, not re-measured.
    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        assert_eq!(summarize(a), summarize(b));
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        assert_eq!(a.events, b.events);
    }
    // The JSON summaries agree except for the per-run cache status and
    // the sweep's own wall time (masked here by fixing both).
    let mask = |mut r: experiments::SweepReport| {
        r.cache = vec![CacheStatus::Off; r.cache.len()];
        r.total_wall_secs = 0.0;
        r
    };
    assert_eq!(
        render_summary("t", &mask(first)),
        render_summary("t", &mask(second)),
        "cached replay must reproduce the summary byte for byte"
    );
}

#[test]
fn interrupted_sweep_resumes_without_rerunning() {
    let dir = scratch("cache_resume");
    let specs = quick_specs();

    // "Interrupted" sweep: only the first two runs completed and were
    // cached before the crash.
    let partial = Sweep::new(specs[..2].to_vec()).cache(&dir).run_report();
    assert_eq!(partial.cache, vec![CacheStatus::Miss; 2]);

    // The resumed full sweep re-serves those two from disk and only runs
    // the remaining spec.
    let resumed = Sweep::new(quick_specs()).cache(&dir).run_report();
    assert_eq!(
        resumed.cache,
        vec![CacheStatus::Hit, CacheStatus::Hit, CacheStatus::Miss]
    );
    for (a, b) in partial.outputs.iter().zip(&resumed.outputs) {
        assert_eq!(summarize(a), summarize(b));
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
    }

    // An uninterrupted cold run elsewhere produces the same outputs the
    // resumed sweep stitched together (determinism across resume).
    let cold = Sweep::new(quick_specs())
        .cache(scratch("cache_resume_cold"))
        .run_report();
    for (a, b) in cold.outputs.iter().zip(&resumed.outputs) {
        assert_eq!(summarize(a), summarize(b));
        assert_eq!(a.events, b.events);
        assert_eq!(a.trace_digest, b.trace_digest);
    }
}

#[test]
fn corrupt_entries_are_evicted_and_rerun() {
    let dir = scratch("cache_corrupt");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(0);
    let out = experiments::run_one(&spec);
    let path = cache.store(&spec, &out).expect("store");

    // Flip bytes in the middle of the entry: the checksum catches it, the
    // loader evicts the file and reports a miss.
    let mut text = std::fs::read(&path).expect("read entry");
    let mid = text.len() / 2;
    text[mid] ^= 0xFF;
    std::fs::write(&path, &text).expect("rewrite corrupted");
    assert!(cache.load(&spec).is_none(), "corrupt entry must miss");
    assert!(!path.exists(), "corrupt entry must be evicted from disk");

    // Truncation is likewise fatal, not a panic.
    cache.store(&spec, &out).expect("store again");
    let text = std::fs::read_to_string(&path).expect("read entry");
    std::fs::write(&path, &text[..text.len() / 3]).expect("truncate");
    assert!(cache.load(&spec).is_none(), "truncated entry must miss");
    assert!(!path.exists());

    // And the sweep recovers transparently: one miss, entry re-stored.
    let report = Sweep::new(vec![quick_specs().remove(0)])
        .cache(&dir)
        .run_report();
    assert_eq!(report.cache, vec![CacheStatus::Miss]);
    assert!(path.exists(), "sweep repopulated the evicted entry");
}

/// An entry whose body holds one key line twice, under a valid checksum,
/// is corrupt like any other: evicted, re-run, and the sweep's results are
/// those of a cold pass.
#[test]
fn a_duplicated_key_line_is_evicted_and_rerun() {
    let dir = scratch("cache_duplicate");
    let cold = Sweep::new(quick_specs()).cache(&dir).run_report();
    let path = RunCache::new(&dir).path_for(&quick_specs()[1]);
    let text = std::fs::read_to_string(&path).expect("read entry");
    let body = text.split_once("\n\n").expect("header and body").1;
    let events = body
        .lines()
        .find(|l| l.starts_with("events "))
        .expect("events line");
    let twice = format!("{body}{events}\n");
    std::fs::write(&path, reseal(&text, twice.as_bytes())).expect("rewrite entry");

    let warm = Sweep::new(quick_specs()).cache(&dir).run_report();
    assert_eq!(
        warm.cache,
        vec![CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Hit]
    );
    for (a, b) in cold.outputs.iter().zip(&warm.outputs) {
        assert_eq!(summarize(a), summarize(b));
        assert_eq!(a.events, b.events);
        assert_eq!(a.trace_digest, b.trace_digest);
    }
    let text = std::fs::read_to_string(&path).expect("entry re-stored");
    assert_eq!(
        text.matches("\nevents ").count(),
        1,
        "the re-run overwrote it"
    );
}

#[test]
fn stale_schema_or_foreign_spec_is_ignored_not_evicted() {
    let dir = scratch("cache_stale");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(0);
    let out = experiments::run_one(&spec);
    let path = cache.store(&spec, &out).expect("store");

    // Rewriting the entry with a bumped cache schema version makes it a
    // plain miss (a future version's file is not corruption).
    let text = std::fs::read_to_string(&path).expect("read entry");
    let bumped = text.replace("recn-cache 2\n", "recn-cache 999\n");
    assert_ne!(text, bumped, "schema field must be present to patch");
    // Recompute nothing: the checksum only covers the body, so the
    // header patch leaves the entry internally consistent.
    std::fs::write(&path, &bumped).expect("rewrite");
    assert!(cache.load(&spec).is_none(), "future schema is a miss");
    assert!(path.exists(), "future schema must not be evicted");

    // A hash collision with a different spec (simulated by planting the
    // other spec's entry under this spec's path) is caught by the
    // embedded spec_v1 bytes: a miss, and then a normal overwrite.
    let other = quick_specs().remove(1);
    let other_out = experiments::run_one(&other);
    cache.store(&other, &other_out).expect("store other");
    std::fs::copy(cache.path_for(&other), &path).expect("plant collision");
    assert!(cache.load(&spec).is_none(), "foreign spec bytes are a miss");
    assert!(path.exists(), "foreign entry must not be evicted");
    cache
        .store(&spec, &out)
        .expect("overwrite repairs the slot");
    assert!(cache.load(&spec).is_some());
}

/// A file left behind by an older build (output schema 5 with a version-2
/// spec string in its envelope, or schema 6 with a version-6 one) at the
/// path a current spec maps to is a plain miss: not an error, not evicted,
/// and the re-run overwrites it. The fixtures are real entries the old
/// builds wrote for this spec.
#[test]
fn pre_collapse_cache_entries_are_misses_and_are_overwritten() {
    let fixtures = [
        (5, include_str!("fixtures/pre_collapse_cache_entry.json")),
        (6, include_str!("fixtures/pre_collapse_cache_entry_v6.json")),
    ];
    let spec = RunSpec::corner(
        MinParams::paper_64(),
        SchemeKind::OneQ,
        CornerCase::case2_64().shrunk(40),
    )
    .with_horizon(Picos::from_us(4))
    .with_bin(Picos::from_us(2));
    for (schema, old) in fixtures {
        let dir = scratch(&format!("cache_pre_collapse_{schema}"));
        let cache = RunCache::new(&dir);
        let path = cache.path_for(&spec);
        assert!(old.contains(&format!("\"output_schema\": {schema}")));
        std::fs::write(&path, old).expect("plant the old entry");

        assert!(cache.load(&spec).is_none(), "old schema is a miss");
        assert!(path.exists(), "an intact old entry is not corruption");

        let report = Sweep::new(vec![spec.clone()]).cache(&dir).run_report();
        assert_eq!(report.cache, vec![CacheStatus::Miss]);
        let back = cache.load(&spec).expect("the re-run replaced the entry");
        // Same simulation as the old builds ran; the schema-5 build still
        // scheduled eager events (76,206), the schema-6 one today's 44,264.
        assert_eq!(back.counters.delivered_packets, 2462);
        assert_eq!(back.events, 44_264);
    }
}

#[test]
fn transport_specs_never_alias_open_loop_and_fct_replays() {
    use fabric::TransportKind;
    use traffic::FlowSet;

    let dir = scratch("cache_transport");
    let cache = RunCache::new(&dir);
    let flows = |transport: TransportKind| {
        RunSpec::flows(
            MinParams::paper_64(),
            SchemeKind::Recn(scaled_recn_config(40)),
            FlowSet::incast64().with_flow_bytes(2048),
        )
        .with_transport(transport)
        .with_horizon(Picos::from_us(2000))
        .with_bin(Picos::from_us(10))
    };
    let open = flows(TransportKind::OpenLoop);
    let gbn = flows(TransportKind::parse("gbn").unwrap());
    let pfc = flows(TransportKind::parse("pfc").unwrap());

    // Distinct content addresses: an open-loop entry can never serve a
    // closed-loop spec, and the closed-loop variants never serve each
    // other.
    assert_ne!(open.spec_hash(), gbn.spec_hash());
    assert_ne!(gbn.spec_hash(), pfc.spec_hash());
    let open_out = experiments::run_one(&open);
    cache.store(&open, &open_out).expect("store open");
    assert!(
        cache.load(&gbn).is_none(),
        "an open-loop entry must not serve a closed-loop spec"
    );
    assert!(cache.load(&pfc).is_none());

    // A closed-loop entry replays byte for byte — including per-flow FCT
    // percentiles and the transport counters.
    let gbn_out = experiments::run_one(&gbn);
    assert!(gbn_out.fct.is_some(), "closed-loop run reports FCT");
    cache.store(&gbn, &gbn_out).expect("store gbn");
    let back = cache.load(&gbn).expect("hit after store");
    assert_eq!(back.fct, gbn_out.fct);
    assert_eq!(
        back.counters.flows_completed,
        gbn_out.counters.flows_completed
    );
    assert_eq!(
        format!("{:?}", back.counters),
        format!("{:?}", gbn_out.counters)
    );
    assert_eq!(summarize(&back), summarize(&gbn_out));
    // The open-loop entry still hits independently (with its own FCT —
    // counting-receiver flows complete without a closed loop).
    let open_back = cache.load(&open).expect("open entry intact");
    assert_eq!(open_back.fct, open_out.fct);
}

#[test]
fn arn_specs_never_alias_adaptive_and_counters_replay() {
    use fabric::RoutingPolicy;
    use topology::FatTreeParams;

    let dir = scratch("cache_arn");
    let cache = RunCache::new(&dir);
    let fattree = |routing: RoutingPolicy| {
        RunSpec::corner(
            FatTreeParams::ft_64(),
            SchemeKind::Recn(scaled_recn_config(40)),
            CornerCase::fattree_64().shrunk(40),
        )
        .with_horizon(Picos::from_us(40))
        .with_bin(Picos::from_us(2))
        .with_routing(routing)
    };
    let adaptive = fattree(RoutingPolicy::adaptive());
    let arn = fattree(RoutingPolicy::arn());

    // Distinct content addresses: an adaptive entry can never serve an ARN
    // spec (the ARN run consults notification state the adaptive run never
    // built), and vice versa.
    assert_ne!(adaptive.spec_hash(), arn.spec_hash());
    assert_ne!(cache.path_for(&adaptive), cache.path_for(&arn));
    let adaptive_out = experiments::run_one(&adaptive);
    cache
        .store(&adaptive, &adaptive_out)
        .expect("store adaptive");
    assert!(
        cache.load(&arn).is_none(),
        "an adaptive entry must not serve the ARN spec"
    );

    // An ARN entry replays byte for byte — including the notification
    // counters.
    let arn_out = experiments::run_one(&arn);
    assert!(
        arn_out.counters.arn_hot_notifications > 0,
        "the RECN hotspot must trigger congested-root notifications"
    );
    cache.store(&arn, &arn_out).expect("store arn");
    let back = cache.load(&arn).expect("hit after store");
    assert_eq!(
        back.counters.arn_hot_notifications,
        arn_out.counters.arn_hot_notifications
    );
    assert_eq!(
        back.counters.arn_cold_notifications,
        arn_out.counters.arn_cold_notifications
    );
    assert_eq!(
        format!("{:?}", back.counters),
        format!("{:?}", arn_out.counters)
    );
    assert_eq!(summarize(&back), summarize(&arn_out));
    // The adaptive entry still hits independently — and replays with its
    // notification counters pinned at zero.
    let adaptive_back = cache.load(&adaptive).expect("adaptive entry intact");
    assert_eq!(adaptive_back.counters.arn_hot_notifications, 0);
}

#[test]
fn trace_digest_rules() {
    let dir = scratch("cache_trace");
    let cache = RunCache::new(&dir);
    let plain = quick_specs().remove(0);
    let traced = quick_specs().remove(0).with_trace(64);

    // A digest-less entry cannot serve a spec that wants the digest...
    let out = experiments::run_one(&plain);
    assert_eq!(out.trace_digest, None);
    cache.store(&plain, &out).expect("store");
    assert!(
        cache.load(&traced).is_none(),
        "traced spec needs the digest"
    );

    // ...but a digest-bearing entry serves both (masked for the plain
    // spec, so cached and uncached runs stay indistinguishable).
    let out = experiments::run_one(&traced);
    assert!(out.trace_digest.is_some());
    cache.store(&traced, &out).expect("store traced");
    let for_traced = cache.load(&traced).expect("hit");
    assert_eq!(for_traced.trace_digest, out.trace_digest);
    let for_plain = cache.load(&plain).expect("hit");
    assert_eq!(for_plain.trace_digest, None, "digest masked off");
}

/// Floats are written in their shortest round-tripping form, so each one
/// reads back bit for bit, negative zero and 1e-300 included.
#[test]
fn float_tokens_parse_exactly() {
    let dir = scratch("cache_floats");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(0);
    let mut out = experiments::run_one(&spec);
    let xs = [0.1f64, 1.0 / 3.0, 1e-300, -0.0, 123_456_789.123_456_79];
    for (p, x) in out.throughput.iter_mut().zip(xs) {
        p.value = x;
    }
    cache.store(&spec, &out).expect("store");
    let back = cache.load(&spec).expect("hit after store");
    for (p, x) in back.throughput.iter().zip(xs) {
        assert_eq!(p.value.to_bits(), x.to_bits(), "{x}");
    }
}

/// Two sweeps of the same specs on one cache directory at once (a barrier
/// starts them together): both return a cold run's results, every entry
/// they leave loads, and no temp file is left behind.
#[test]
fn concurrent_sweeps_on_one_cache_agree_with_a_cold_run() {
    let dir = scratch("cache_concurrent");
    let cold = Sweep::new(quick_specs()).run_report();
    let start = std::sync::Barrier::new(2);
    let reports = std::thread::scope(|s| {
        let sweep = || {
            s.spawn(|| {
                start.wait();
                Sweep::new(quick_specs()).jobs(2).cache(&dir).run_report()
            })
        };
        [sweep(), sweep()].map(|h| h.join().expect("sweep thread"))
    });
    for report in &reports {
        for (a, b) in cold.outputs.iter().zip(&report.outputs) {
            assert_eq!(summarize(a), summarize(b));
            assert_eq!(a.events, b.events);
            assert_eq!(a.trace_digest, b.trace_digest);
        }
    }
    let cache = RunCache::new(&dir);
    for spec in quick_specs() {
        assert!(cache.load(&spec).is_some(), "{} loads", spec.label());
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let entries: Vec<String> = quick_specs()
        .iter()
        .map(|s| format!("{:016x}.run", s.spec_hash()))
        .collect();
    assert!(names.iter().all(|n| entries.contains(n)), "{names:?}");
    assert_eq!(names.len(), 3, "{names:?}");
}

/// Mutation fuzzer over a real RECN entry. Each mutant body — a flipped
/// byte; a dropped, duplicated or swapped line; a truncation; one value or
/// a line's values replaced by `-`, `NaN`, `inf`, 2^32 or 2^64 — is
/// resealed under a correct checksum, so the reader has to judge it.
/// `load` never panics, and either refuses and evicts the entry or returns
/// an output that (a) is what the body says: written again, it is the
/// mutant's lines in some order, and (b) has one value per bin of the spec
/// in every series.
#[test]
fn mutated_entries_are_refused_or_load_as_written() {
    use simcore::Xoshiro256;

    let dir = scratch("cache_fuzz");
    let cache = RunCache::new(&dir);
    let spec = quick_specs().remove(2);
    let out = experiments::run_one(&spec);
    let path = cache.store(&spec, &out).expect("store");
    let entry = std::fs::read_to_string(&path).expect("read entry");
    let body = entry.split_once("\n\n").expect("header and body").1;
    let lines: Vec<&str> = body.lines().collect();
    let sorted_lines = |text: &[u8]| {
        let mut l: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        l.sort();
        l
    };
    const TOKENS: [&str; 5] = ["-", "NaN", "inf", "4294967296", "18446744073709551616"];

    let mut rng = Xoshiro256::new(0x5eed_cac4e);
    let mut below = |n: usize| rng.next_below(n as u64) as usize;
    let (mut refused, mut loaded) = ([0u32; 7], [0u32; 7]);
    for i in 0..2_400 {
        // 0 flips a byte; 1, 2 and 3 drop, duplicate and swap lines; 4
        // truncates; 5 replaces one value and 6 a line's values.
        let kind = i % 7;
        let mut ls: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let mutant: Vec<u8> = match kind {
            0 => {
                let mut b = body.as_bytes().to_vec();
                let at = below(b.len());
                b[at] ^= 1 + below(255) as u8;
                b
            }
            1..=3 => {
                let (a, b) = (below(ls.len()), below(ls.len()));
                match kind {
                    1 => drop(ls.remove(a)),
                    2 => ls.insert(b, ls[a].clone()),
                    _ => ls.swap(a, b),
                }
                (ls.join("\n") + "\n").into_bytes()
            }
            4 => body.as_bytes()[..below(body.len())].to_vec(),
            _ => {
                let at = below(ls.len());
                let mut words: Vec<&str> = ls[at].split(' ').collect();
                let token = TOKENS[below(TOKENS.len())];
                if kind == 5 && words.len() > 1 {
                    let w = 1 + below(words.len() - 1);
                    words[w] = token;
                } else {
                    words.truncate(1);
                    words.push(token);
                }
                ls[at] = words.join(" ");
                (ls.join("\n") + "\n").into_bytes()
            }
        };
        std::fs::write(&path, reseal(&entry, &mutant)).expect("write mutant");
        match cache.load(&spec) {
            None => {
                assert!(
                    !path.exists(),
                    "mutant {i} (kind {kind}) refused but not evicted"
                );
                refused[kind] += 1;
            }
            Some(back) => {
                for (name, n) in [
                    ("throughput", back.throughput.len()),
                    ("saq_ingress", back.saq.ingress.len()),
                    ("saq_egress", back.saq.egress.len()),
                    ("saq_total", back.saq.total.len()),
                ] {
                    assert_eq!(n, out.throughput.len(), "mutant {i} (kind {kind}): {name}");
                }
                cache.store(&spec, &back).expect("store the loaded output");
                let again = std::fs::read_to_string(&path).expect("read entry");
                let again = again.split_once("\n\n").expect("header and body").1;
                assert!(
                    sorted_lines(again.as_bytes()) == sorted_lines(&mutant),
                    "mutant {i} (kind {kind}) loaded as something else:\n{}",
                    String::from_utf8_lossy(&mutant)
                );
                loaded[kind] += 1;
            }
        }
    }
    // Every kind ran; the refusals are most of them, and swaps always load.
    let counts = format!("refused {refused:?}, loaded {loaded:?}");
    assert!(
        refused.iter().zip(&loaded).all(|(r, l)| r + l > 300),
        "{counts}"
    );
    assert_eq!(refused[3], 0, "a swap changes nothing the reader reads");
    assert!(refused.iter().sum::<u32>() > 1_500, "{counts}");
}
