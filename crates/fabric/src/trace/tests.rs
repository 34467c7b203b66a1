use super::*;

fn pkt(id: u64) -> Packet {
    Packet {
        id,
        src: HostId::new(3),
        dst: HostId::new(60),
        size: 64,
        route: topology::Route::from_turns(HostId::new(60), &[3, 3, 0]),
        injected_at: Picos::ZERO,
        flow_seq: 0,
    }
}

/// Records hop `i` of the fixed sequence the digest tests share.
fn hop(sink: &mut TraceSink, at_ns: u64, i: u64) {
    sink.on_hop(Picos::from_ns(at_ns), &pkt(i), (i % 7) as usize);
}

/// Fires every hook at least once (every `side` and `site` name, an empty
/// path, the extreme time): 14 records over the 11 kinds.
fn every_kind(sink: &mut TraceSink) {
    let p = pkt(0x1_0000_0007);
    let path = PathSpec::from_turns(&[2, 0, 3]);
    let ns = Picos::from_ns;
    sink.on_injected(ns(1), &p);
    sink.on_delivered(ns(2), &p);
    sink.on_hop(ns(3), &p, 70_000);
    sink.on_enqueue(
        ns(4),
        PortRef::SwitchIn { sw: 5, port: 2 },
        300,
        QueueKind::Normal,
        &p,
    );
    sink.on_dequeue(ns(5), PortRef::Nic { host: 9 }, 1, QueueKind::Saq, &p);
    sink.on_enqueue(
        ns(5),
        PortRef::SwitchOut { sw: 40, port: 7 },
        0,
        QueueKind::Saq,
        &p,
    );
    sink.on_credit_change(ns(6), 9, u16::MAX, -64, 1 << 40, Some(128));
    sink.on_saq_alloc(ns(7), SaqSite::SwitchEgress, 1234, 5, &path);
    sink.on_saq_dealloc(ns(8), SaqSite::NicInjection, 9, 0, &PathSpec::EMPTY);
    sink.on_saq_alloc(ns(8), SaqSite::SwitchIngress, 0, 255, &path);
    sink.on_drop_attempt(ns(9), 3, HostId::new(8), 512);
    sink.on_saq_census(ns(10), 8, 7, 137);
    sink.on_root_change(ns(11), 2, 1, true);
    sink.on_root_change(Picos::new(u64::MAX), 2, 1, false);
}

/// The JSONL text the parent commit's enum-based `render_jsonl` produced
/// for `every_kind` under the label below, captured verbatim.
const EVERY_KIND_JSONL: &str = r#"{"trace":"all \"kinds\"\n\\","events":14,"retained":14,"digest":"0x47c9d5780ac2f202"}
{"seq":0,"t_ps":1000,"ev":"inject","id":4294967303,"src":3,"dst":60,"size":64}
{"seq":1,"t_ps":2000,"ev":"deliver","id":4294967303,"src":3,"dst":60,"size":64}
{"seq":2,"t_ps":3000,"ev":"hop","id":4294967303,"link":70000}
{"seq":3,"t_ps":4000,"ev":"enq","side":"in","elem":5,"port":2,"queue":300,"saq":false,"id":4294967303}
{"seq":4,"t_ps":5000,"ev":"deq","side":"nic","elem":9,"port":0,"queue":1,"saq":true,"id":4294967303}
{"seq":5,"t_ps":5000,"ev":"enq","side":"out","elem":40,"port":7,"queue":0,"saq":true,"id":4294967303}
{"seq":6,"t_ps":6000,"ev":"credit","link":9,"queue":65535,"delta":-64,"free":1099511627776}
{"seq":7,"t_ps":7000,"ev":"saq_alloc","site":"egress","index":1234,"line":5,"path":[2, 0, 3]}
{"seq":8,"t_ps":8000,"ev":"saq_dealloc","site":"nic","index":9,"line":0,"path":[]}
{"seq":9,"t_ps":8000,"ev":"saq_alloc","site":"ingress","index":0,"line":255,"path":[2, 0, 3]}
{"seq":10,"t_ps":9000,"ev":"drop_attempt","host":3,"dst":8,"bytes":512}
{"seq":11,"t_ps":10000,"ev":"census","max_ingress":8,"max_egress":7,"total":137}
{"seq":12,"t_ps":11000,"ev":"root","sw":2,"port":1,"active":true}
{"seq":13,"t_ps":18446744073709551615,"ev":"root","sw":2,"port":1,"active":false}
"#;

#[test]
fn jsonl_renders_one_line_per_retained_record() {
    let (mut sink, handle) = TraceSink::new(64, "all \"kinds\"\n\\");
    every_kind(&mut sink);
    assert_eq!(handle.render_jsonl(), EVERY_KIND_JSONL);
}

#[test]
fn every_hook_writes_exactly_what_its_row_describes() {
    let (mut sink, handle) = TraceSink::new(64, "");
    every_kind(&mut sink);
    let mut state = handle.0.borrow_mut();
    let mut seen = Vec::new();
    for record in records(state.ring.make_contiguous()) {
        let (tag, mut rest) = (record[8], &record[9..]);
        let Kind(_, name, fields) = KINDS.iter().find(|k| k.0 == tag).unwrap();
        // The row's widths walk the fields to exactly the record's end.
        for (key, ty) in *fields {
            let width = match ty {
                U8 | Bool | Name(_) => 1,
                U16 => 2,
                U32 => 4,
                U64 | I64 => 8,
                Path => 1 + rest[0] as usize,
            };
            assert!(rest.len() >= width, "{name}.{key} overruns the record");
            rest = &rest[width..];
        }
        assert!(rest.is_empty(), "{name}: {} bytes past its row", rest.len());
        render_record(&mut String::new(), 0, record).unwrap();
        seen.push(tag);
    }
    seen.sort_unstable();
    seen.dedup();
    let tags: Vec<u8> = KINDS.iter().map(|k| k.0).collect();
    assert_eq!(seen, tags, "a kind no hook wrote, or a tag without a row");
    assert_eq!(tags, (1..=11).collect::<Vec<u8>>());
}

#[test]
fn a_record_its_row_does_not_describe_is_a_decode_error() {
    let (mut sink, handle) = TraceSink::new(1, "");
    hop(&mut sink, 1, 1);
    let state = handle.0.borrow();
    let record: Vec<u8> = state.ring.iter().skip(1).copied().collect();
    let render = |bytes: &[u8]| render_record(&mut String::new(), 0, bytes);
    render(&record).unwrap();
    assert!(render(&record[..record.len() - 1]).is_err(), "truncated");
    assert!(
        render(&[&record[..], &[0]].concat()).is_err(),
        "trailing byte"
    );
    let mut unknown = record.clone();
    unknown[8] = 12;
    assert!(render(&unknown).is_err(), "tag without a row");
}

/// The `"seq"` of every record line of `jsonl`.
fn seqs(jsonl: &str) -> Vec<u64> {
    let seq = |l: &str| l["{\"seq\":".len()..].split(',').next().unwrap().parse();
    jsonl.lines().skip(1).map(|l| seq(l).unwrap()).collect()
}

#[test]
fn ring_buffer_wraps_at_capacity() {
    let (mut sink, handle) = TraceSink::new(4, "wrap");
    for i in 0..10 {
        hop(&mut sink, i, i);
    }
    assert_eq!(handle.recorded(), 10);
    assert_eq!(handle.retained(), 4);
    // Oldest retained record is seq 6; order is preserved.
    assert_eq!(seqs(&handle.render_jsonl()), [6, 7, 8, 9]);
    // The ring holds those four records and nothing older.
    let per_record = 1 + 8 + 1 + 8 + 4;
    assert_eq!(handle.0.borrow().ring.len(), 4 * per_record);
}

#[test]
fn a_huge_capacity_allocates_nothing_up_front() {
    let (mut sink, handle) = TraceSink::new(usize::MAX, "");
    assert_eq!(handle.0.borrow().ring.capacity(), 0);
    every_kind(&mut sink);
    assert_eq!(handle.retained(), 14);
    assert_eq!(seqs(&handle.render_jsonl()), (0..14).collect::<Vec<u64>>());
    // Memory follows what was recorded (14 records of at most 32 bytes,
    // rounded up by the ring's doubling), not the capacity asked for.
    assert!(handle.0.borrow().ring.capacity() <= 1024);
}

#[test]
fn digest_is_stable_for_fixed_sequence_and_ignores_capacity() {
    let run = |cap: usize| {
        let (mut sink, handle) = TraceSink::new(cap, "x");
        for i in 0..50 {
            hop(&mut sink, i * 3, i);
        }
        handle.digest()
    };
    let d1 = run(4);
    let d2 = run(4);
    let d3 = run(1024);
    assert_eq!(d1, d2, "same sequence, same digest");
    assert_eq!(
        d1, d3,
        "digest covers all events, not just the retained window"
    );
    // Pinned: any change to the canonical encoding is a breaking
    // change for checked-in golden digests and must be deliberate.
    assert_eq!(run(4), 0x2ef0_f20e_de83_e865, "canonical encoding changed");
}

#[test]
fn digest_distinguishes_event_order_and_time() {
    let seq = |times: &[u64]| {
        let (mut sink, handle) = TraceSink::new(8, "x");
        for (i, &t) in times.iter().enumerate() {
            hop(&mut sink, t, i as u64);
        }
        handle.digest()
    };
    assert_ne!(seq(&[1, 2]), seq(&[2, 1]));
    assert_ne!(seq(&[1, 2]), seq(&[1, 3]));
}

#[test]
fn jsonl_escapes_labels() {
    let (_sink, handle) = TraceSink::new(2, "evil \"label\"\nwith\tctrl\u{1}");
    let jsonl = handle.render_jsonl();
    let header = jsonl.lines().next().unwrap();
    assert!(
        header.contains("evil \\\"label\\\"\\nwith\\tctrl\\u0001"),
        "{header}"
    );
    assert_eq!(json_escape("plain"), "plain");
    assert_eq!(json_escape("a\\b"), "a\\\\b");
    assert_eq!(json_escape("\r"), "\\r");
}
