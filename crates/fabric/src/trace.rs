//! Structured event tracing: a bounded ring of canonical event records
//! with a stable 64-bit digest.
//!
//! [`TraceSink`] is a [`NetObserver`] whose every hook writes its event
//! once, as canonical bytes (`time ‖ tag ‖ fields`, through
//! [`simcore::CanonWriter`]), laid out by the hook's row in the kind table
//! below — the one place a kind's tag, JSON name, field widths and keys are
//! written down. The bytes feed a running [`Fnv1a64::trace_variant`] digest and the last
//! `capacity` records are retained; [`TraceHandle::render_jsonl`] decodes
//! them through the same rows (`inspect --trace FILE --trace-last N`).
//!
//! The digest covers **every** event ever recorded (not just the retained
//! window), so two runs producing the same digest processed bit-identical
//! event streams — the property the golden-trace regression suite pins
//! down, on any platform, compiler version or `--jobs` count.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write;
use std::rc::Rc;

use simcore::{CanonError, CanonReader, CanonWriter, Fnv1a64, Picos};
use topology::{HostId, PathSpec};

use crate::network::PortRef;
use crate::observer::{NetObserver, QueueKind, SaqSite};
use crate::packet::Packet;

/// Wire type of one event field.
#[derive(Debug, Clone, Copy)]
enum Ty {
    U8,
    U16,
    U32,
    U64,
    I64,
    Bool,
    /// A one-byte index, rendered as the quoted name at that index.
    Name(&'static [&'static str]),
    /// A turn list: one length byte, then the turns.
    Path,
}
use Ty::{Bool, Name, Path, I64, U16, U32, U64, U8};

type Fields = &'static [(&'static str, Ty)];

/// One record kind: the tag byte that follows the time, the JSONL `"ev"`
/// name, and the fields as `(JSON key, wire type)` in wire order. Tags and
/// layouts are part of every checked-in digest: append, never renumber.
struct Kind(u8, &'static str, Fields);

const PACKET: Fields = &[("id", U64), ("src", U32), ("dst", U32), ("size", U32)];
const QUEUE_OP: Fields = &[
    ("side", Name(&["in", "out", "nic"])),
    ("elem", U32),
    ("port", U32),
    ("queue", U16),
    ("saq", Bool),
    ("id", U64),
];
const SAQ: Fields = &[
    ("site", Name(&["ingress", "egress", "nic"])),
    ("index", U32),
    ("line", U8),
    ("path", Path),
];
const CREDIT_FIELDS: Fields = &[("link", U32), ("queue", U16), ("delta", I64), ("free", U64)];
const CENSUS_FIELDS: Fields = &[("max_ingress", U32), ("max_egress", U32), ("total", U32)];

const INJECT: Kind = Kind(1, "inject", PACKET);
const DELIVER: Kind = Kind(2, "deliver", PACKET);
const HOP: Kind = Kind(3, "hop", &[("id", U64), ("link", U32)]);
const ENQ: Kind = Kind(4, "enq", QUEUE_OP);
const DEQ: Kind = Kind(5, "deq", QUEUE_OP);
const CREDIT: Kind = Kind(6, "credit", CREDIT_FIELDS);
const SAQ_ALLOC: Kind = Kind(7, "saq_alloc", SAQ);
const SAQ_DEALLOC: Kind = Kind(8, "saq_dealloc", SAQ);
const DROP: Kind = Kind(
    9,
    "drop_attempt",
    &[("host", U32), ("dst", U32), ("bytes", U32)],
);
const CENSUS: Kind = Kind(10, "census", CENSUS_FIELDS);
const ROOT: Kind = Kind(11, "root", &[("sw", U32), ("port", U32), ("active", Bool)]);
const KINDS: [Kind; 11] = [
    INJECT,
    DELIVER,
    HOP,
    ENQ,
    DEQ,
    CREDIT,
    SAQ_ALLOC,
    SAQ_DEALLOC,
    DROP,
    CENSUS,
    ROOT,
];

/// Decodes one record (`time ‖ tag ‖ fields`) into its JSONL line.
fn render_record(out: &mut String, seq: u64, record: &[u8]) -> Result<(), CanonError> {
    let mut r = CanonReader::new(record);
    let (t_ps, tag) = (r.u64()?, r.u8()?);
    let Kind(_, name, fields) = KINDS
        .iter()
        .find(|k| k.0 == tag)
        .ok_or_else(|| CanonError::new(format!("unknown record tag {tag}")))?;
    let _ = write!(out, "{{\"seq\":{seq},\"t_ps\":{t_ps},\"ev\":\"{name}\"");
    for &(key, ty) in *fields {
        let _ = write!(out, ",\"{key}\":");
        let _ = match ty {
            U8 => write!(out, "{}", r.u8()?),
            U16 => write!(out, "{}", r.u16()?),
            U32 => write!(out, "{}", r.u32()?),
            U64 => write!(out, "{}", r.u64()?),
            I64 => write!(out, "{}", r.i64()?),
            Bool => write!(out, "{}", r.bool()?),
            Name(names) => match names.get(r.u8()? as usize) {
                Some(name) => write!(out, "\"{name}\""),
                None => return Err(CanonError::new(format!("{key:?} index out of range"))),
            },
            Path => {
                let len = r.u8()? as usize;
                write!(out, "{:?}", r.bytes(len)?)
            }
        };
    }
    out.push_str("}\n");
    r.finish()
}

/// Splits ring bytes (`length byte ‖ record`, repeated) into records.
fn records(mut ring: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (&len, rest) = ring.split_first()?;
        let (record, rest) = rest.split_at(len as usize);
        ring = rest;
        Some(record)
    })
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Shared state behind a [`TraceSink`] / [`TraceHandle`] pair.
#[derive(Debug)]
struct TraceState {
    /// The retained records, oldest first, each behind its length byte.
    /// Grows with what is recorded, never ahead of it.
    ring: VecDeque<u8>,
    retained: usize,
    capacity: usize,
    recorded: u64,
    digest: Fnv1a64,
    /// The record being written; reused so recording does not allocate.
    scratch: CanonWriter,
    label: String,
}

/// The observer half of a trace: install into [`crate::Network::new`] (or a
/// [`crate::FanoutObserver`]) via `Box::new(sink)`; read results back
/// through the [`TraceHandle`] after the run.
#[derive(Debug)]
pub struct TraceSink(Rc<RefCell<TraceState>>);

/// Read side of a trace; alive after the network consumed the sink.
#[derive(Debug, Clone)]
pub struct TraceHandle(Rc<RefCell<TraceState>>);

impl TraceSink {
    /// Creates a sink retaining the last `capacity` records (the digest
    /// still covers every event). `label` identifies the run in the JSONL
    /// header and may contain arbitrary characters (it is escaped).
    pub fn new(capacity: usize, label: impl Into<String>) -> (TraceSink, TraceHandle) {
        assert!(
            capacity > 0,
            "trace ring needs room for at least one record"
        );
        let state = Rc::new(RefCell::new(TraceState {
            ring: VecDeque::new(),
            retained: 0,
            capacity,
            recorded: 0,
            digest: Fnv1a64::trace_variant(),
            scratch: CanonWriter::new(),
            label: label.into(),
        }));
        (TraceSink(state.clone()), TraceHandle(state))
    }

    /// Records one event: `vals` in the row's field order, each written at
    /// the width the row gives it; `turns` is the row's `Path` field.
    fn record(&mut self, at: Picos, kind: &Kind, vals: &[u64], turns: &[u8]) {
        let &Kind(tag, name, fields) = kind;
        let s = &mut *self.0.borrow_mut();
        let w = &mut s.scratch;
        w.clear();
        w.u64(at.as_ps());
        w.u8(tag);
        let mut vals = vals.iter();
        for (_, ty) in fields {
            let mut val = || *vals.next().expect("a value per non-path field");
            match ty {
                U8 | Bool | Name(_) => w.u8(val() as u8),
                U16 => w.u16(val() as u16),
                U32 => w.u32(val() as u32),
                U64 => w.u64(val()),
                I64 => w.i64(val() as i64),
                Path => {
                    w.u8(turns.len() as u8);
                    w.bytes(turns);
                }
            }
        }
        debug_assert!(vals.next().is_none(), "more values than {name} has fields");
        s.digest.write(w.as_bytes());
        if s.retained == s.capacity {
            let oldest = 1 + s.ring[0] as usize;
            s.ring.drain(..oldest);
            s.retained -= 1;
        }
        s.ring
            .push_back(u8::try_from(w.len()).expect("a record is a few dozen bytes"));
        s.ring.extend(w.as_bytes());
        s.retained += 1;
        s.recorded += 1;
    }
}

fn packet(pkt: &Packet) -> [u64; 4] {
    let (src, dst) = (pkt.src.index() as u64, pkt.dst.index() as u64);
    [pkt.id, src, dst, pkt.size as u64]
}

fn queue_op(port: PortRef, queue: usize, kind: QueueKind, pkt: &Packet) -> [u64; 6] {
    let (side, elem, index) = match port {
        PortRef::SwitchIn { sw, port } => (0, sw, port),
        PortRef::SwitchOut { sw, port } => (1, sw, port),
        PortRef::Nic { host } => (2, host, 0),
    };
    let saq = kind == QueueKind::Saq;
    [
        side,
        elem as u64,
        index as u64,
        queue as u64,
        saq as u64,
        pkt.id,
    ]
}

fn saq(site: SaqSite, index: usize, line: usize) -> [u64; 3] {
    let site = match site {
        SaqSite::SwitchIngress => 0,
        SaqSite::SwitchEgress => 1,
        SaqSite::NicInjection => 2,
    };
    [site, index as u64, line as u64]
}

impl NetObserver for TraceSink {
    fn on_injected(&mut self, at: Picos, pkt: &Packet) {
        self.record(at, &INJECT, &packet(pkt), &[]);
    }

    fn on_delivered(&mut self, at: Picos, pkt: &Packet) {
        self.record(at, &DELIVER, &packet(pkt), &[]);
    }

    fn on_hop(&mut self, at: Picos, pkt: &Packet, link: usize) {
        self.record(at, &HOP, &[pkt.id, link as u64], &[]);
    }

    fn on_enqueue(&mut self, at: Picos, port: PortRef, q: usize, kind: QueueKind, pkt: &Packet) {
        self.record(at, &ENQ, &queue_op(port, q, kind, pkt), &[]);
    }

    fn on_dequeue(&mut self, at: Picos, port: PortRef, q: usize, kind: QueueKind, pkt: &Packet) {
        self.record(at, &DEQ, &queue_op(port, q, kind, pkt), &[]);
    }

    fn on_credit_change(
        &mut self,
        at: Picos,
        link: usize,
        queue: u16,
        delta: i64,
        free_after: u64,
        _cap: Option<u64>,
    ) {
        let vals = [link as u64, queue as u64, delta as u64, free_after];
        self.record(at, &CREDIT, &vals, &[]);
    }

    fn on_saq_alloc(&mut self, at: Picos, site: SaqSite, index: usize, line: usize, p: &PathSpec) {
        self.record(at, &SAQ_ALLOC, &saq(site, index, line), p.turns());
    }

    fn on_saq_dealloc(
        &mut self,
        at: Picos,
        site: SaqSite,
        index: usize,
        line: usize,
        p: &PathSpec,
    ) {
        self.record(at, &SAQ_DEALLOC, &saq(site, index, line), p.turns());
    }

    fn on_drop_attempt(&mut self, at: Picos, host: usize, dst: HostId, bytes: u32) {
        let vals = [host as u64, dst.index() as u64, bytes as u64];
        self.record(at, &DROP, &vals, &[]);
    }

    fn on_saq_census(&mut self, at: Picos, max_ingress: u32, max_egress: u32, total: u32) {
        let vals = [max_ingress as u64, max_egress as u64, total as u64];
        self.record(at, &CENSUS, &vals, &[]);
    }

    fn on_root_change(&mut self, at: Picos, switch: usize, port: usize, active: bool) {
        self.record(at, &ROOT, &[switch as u64, port as u64, active as u64], &[]);
    }
}

impl TraceHandle {
    /// Total events recorded over the whole run (including those that have
    /// rotated out of the ring).
    pub fn recorded(&self) -> u64 {
        self.0.borrow().recorded
    }

    /// Records currently retained (at most the construction capacity).
    pub fn retained(&self) -> usize {
        self.0.borrow().retained
    }

    /// Stable FNV-1a 64 digest over every event recorded so far.
    pub fn digest(&self) -> u64 {
        self.0.borrow().digest.finish()
    }

    /// Renders the retained window as JSONL: a header line with the
    /// (escaped) label, total event count and digest, then one line per
    /// retained record.
    pub fn render_jsonl(&self) -> String {
        let mut s = self.0.borrow_mut();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"trace\":\"{}\",\"events\":{},\"retained\":{},\"digest\":\"{:#018x}\"}}",
            json_escape(&s.label),
            s.recorded,
            s.retained,
            s.digest.finish(),
        );
        let first = s.recorded - s.retained as u64;
        for (seq, record) in (first..).zip(records(s.ring.make_contiguous())) {
            render_record(&mut out, seq, record).expect("the ring holds what the hooks wrote");
        }
        out
    }
}

#[cfg(test)]
mod tests;
