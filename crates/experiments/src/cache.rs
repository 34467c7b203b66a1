//! Content-addressed run cache: `results/cache/<spec_hash>.json`.
//!
//! Every cache entry stores one [`RunOutput`] under the FNV-1a 64 content
//! address of its spec's canonical `spec_v1` encoding
//! ([`RunSpec::spec_hash`]). The entry is written atomically (temp file +
//! rename), schema-versioned, and checksummed; loading re-verifies the
//! checksum and **evicts** entries that fail it, so a torn write (crash
//! mid-sweep) degrades to a cache miss, never to corrupt results. That is
//! what makes a [`crate::sweep::Sweep`] with a cache directory crash-safe
//! resumable: re-submitting the same sweep skips every completed spec and
//! reproduces byte-identical tables.
//!
//! Entries replay the original run's `wall_secs` and event counts, so a
//! fully-cached sweep summary is byte-identical to the summary of the
//! sweep that populated it (apart from the per-run `"cache"` marker and
//! the sweep's own total wall time).
//!
//! The workspace has no external dependencies, so both directions are
//! hand-rolled: a one-line JSON body plus a tiny recursive-descent parser
//! that keeps number tokens as text (`u64` and `f64` parse exactly —
//! Rust's shortest-representation float formatting round-trips).

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fabric::{CounterMut, NetCounters};
use metrics::SaqSeries;
use simcore::{fnv1a64, Running, SeriesPoint};

use crate::json::{self, parse_json, Json};
use crate::runner::{RunOutput, OUTPUT_SCHEMA_VERSION};
use crate::spec::RunSpec;

/// Version of the cache *entry envelope* (the fields around the body).
/// Bumped independently of [`OUTPUT_SCHEMA_VERSION`], which versions the
/// body/JSON-summary shape; a mismatch in either rejects the entry.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// How a sweep satisfied one spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory was configured.
    Off,
    /// Served from the cache without running the simulation.
    Hit,
    /// Ran the simulation (and stored the result).
    Miss,
}

impl CacheStatus {
    /// The JSON name (`"off"`, `"hit"` or `"miss"`).
    pub fn name(&self) -> &'static str {
        match self {
            CacheStatus::Off => "off",
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// A content-addressed store of run outputs under one directory.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> RunCache {
        RunCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `spec`: `<dir>/<16-hex spec hash>.json`.
    pub fn path_for(&self, spec: &RunSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.json", spec.spec_hash()))
    }

    /// Loads the cached output for `spec`, verifying the entry end to end
    /// (schema versions, full `spec_v1` bytes against hash collisions, and
    /// the body checksum). Corrupt entries are evicted and report a miss.
    /// An entry without a trace digest does not satisfy a spec that
    /// requests tracing (the run is repeated and the entry upgraded);
    /// conversely a digest is masked off when the spec does not ask for
    /// one, so hits are indistinguishable from fresh runs.
    pub fn load(&self, spec: &RunSpec) -> Option<RunOutput> {
        let path = self.path_for(spec);
        let bytes = std::fs::read(&path).ok()?;
        // A file that exists but is not UTF-8 is corruption, same as a bad
        // checksum — treat both through the eviction path below.
        let text = String::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_owned());
        match text.and_then(|t| parse_entry(&t, spec)) {
            Ok(Some(mut out)) => {
                if spec.trace_capacity().is_some() && out.trace_digest.is_none() {
                    return None; // needs a digest the entry lacks: re-run
                }
                if spec.trace_capacity().is_none() {
                    out.trace_digest = None;
                }
                Some(out)
            }
            Ok(None) => None, // stale schema or foreign spec: overwrite later
            Err(e) => {
                eprintln!("evicting corrupt cache entry {}: {e}", path.display());
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores `out` as the entry for `spec`, atomically: the entry is
    /// written to a temp file in the same directory and renamed into
    /// place, so readers only ever observe complete entries.
    pub fn store(&self, spec: &RunSpec, out: &RunOutput) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(spec);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, render_entry(spec, out))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

// ---- entry rendering ---------------------------------------------------

/// Renders the complete cache entry for `spec`/`out`.
pub fn render_entry(spec: &RunSpec, out: &RunOutput) -> String {
    let body = render_body(out);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"cache_schema\": {CACHE_SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"output_schema\": {OUTPUT_SCHEMA_VERSION},\n"));
    s.push_str(&format!(
        "  \"spec_hash\": \"{:016x}\",\n",
        spec.spec_hash()
    ));
    s.push_str(&format!("  \"spec_v1\": \"{}\",\n", spec.encode_hex()));
    s.push_str(&format!(
        "  \"checksum\": \"{:016x}\",\n",
        fnv1a64(body.as_bytes())
    ));
    s.push_str("  \"body\": ");
    s.push_str(&body);
    s.push_str("\n}\n");
    s
}

/// A series as a values-only array: its time axis is the body's `bin_ps`.
fn values_json(values: impl IntoIterator<Item = impl std::fmt::Display>) -> String {
    let mut s = String::from("[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}"); // a String takes every write
    }
    s.push(']');
    s
}

fn render_body(out: &RunOutput) -> String {
    // `fields_mut` is the one walk over the counters; rendering reads
    // through it on a copy.
    let mut counters = out.counters.clone();
    let counters: Vec<String> = counters
        .fields_mut()
        .into_iter()
        .map(|(name, field)| match field {
            CounterMut::Count(v) => format!("\"{name}\":{v}"),
            CounterMut::Stat(r) => {
                let (count, mean, m2, min, max) = r.raw_parts();
                let (mean, m2) = (json::num(mean), json::num(m2));
                let (min, max) = (json::opt(min), json::opt(max));
                format!("\"{name}\":[{count},{mean},{m2},{min},{max}]")
            }
        })
        .collect();
    // Throughput and the SAQ census share the probe's bins: the body stores
    // one bin width and the values; loading rebuilds the time axis.
    let saq = &out.saq;
    debug_assert!(
        out.throughput == SeriesPoint::on_axis(saq.bin, out.throughput.iter().map(|p| p.value)),
        "throughput is on the SAQ series' bins"
    );
    format!(
        "{{\"scheme\":\"{}\",\"bin_ps\":{},\"throughput\":{},\"saq_ingress\":{},\
         \"saq_egress\":{},\"saq_total\":{},\"saq_peaks\":[{},{},{}],\"counters\":{{{}}},\
         \"wall_secs\":{},\"events\":{},\"peak_event_queue_depth\":{},\"trace_digest\":{},\
         \"peak_bytes_estimate\":{},\"fct\":{}}}",
        out.scheme,
        saq.bin.as_ps(),
        values_json(out.throughput.iter().map(|p| json::num(p.value))),
        values_json(&saq.ingress),
        values_json(&saq.egress),
        values_json(&saq.total),
        out.saq_peaks.0,
        out.saq_peaks.1,
        out.saq_peaks.2,
        counters.join(","),
        json::num(out.wall_secs),
        out.events,
        out.peak_event_queue_depth,
        match out.trace_digest {
            Some(d) => format!("\"{d:016x}\""),
            None => "null".to_owned(),
        },
        out.peak_bytes_estimate,
        json::fct(&out.fct, ","),
    )
}

/// Inverse of [`json::fct`].
fn parse_fct(v: &Json) -> Result<Option<metrics::FctSummary>, String> {
    match v {
        Json::Null => Ok(None),
        v => {
            let a = v.arr().filter(|a| a.len() == 4).ok_or("bad fct")?;
            Ok(Some(metrics::FctSummary {
                flows: a[0].u64().ok_or("bad fct flows")?,
                p50_ns: a[1].f64().ok_or("bad fct p50")?,
                p99_ns: a[2].f64().ok_or("bad fct p99")?,
                max_ns: a[3].f64().ok_or("bad fct max")?,
            }))
        }
    }
}

/// Inverse of the five-number array a [`CounterMut::Stat`] renders to.
fn parse_running(v: &Json) -> Option<Running> {
    let a = v.arr().filter(|a| a.len() == 5)?;
    Some(Running::from_raw_parts(
        a[0].u64()?,
        a[1].f64()?,
        a[2].f64()?,
        a[3].f64_or_null()?,
        a[4].f64_or_null()?,
    ))
}

// ---- entry parsing -----------------------------------------------------

/// Parses and verifies a cache entry against `spec`. `Ok(None)` means the
/// entry is intact but does not apply (stale schema version, or a
/// different spec landed on the same hash); `Err` means corruption.
fn parse_entry(text: &str, spec: &RunSpec) -> Result<Option<RunOutput>, String> {
    // Only the envelope ahead of the body is parsed before the checksum is
    // compared on the body's raw text: a torn or corrupt body fails there,
    // and the parser never sees it.
    const MARKER: &str = "\n  \"body\": ";
    let idx = text.find(MARKER).ok_or("no body field")?;
    let body_text = text[idx + MARKER.len()..]
        .strip_suffix("\n}\n")
        .ok_or("entry does not end with the envelope's closing brace")?;
    let head = text[..idx]
        .strip_suffix(',')
        .ok_or("no comma before the body field")?;
    let envelope_text = format!("{head}\n}}");
    let envelope = parse_json(&envelope_text)?;
    let field = |k: &str| {
        envelope
            .get(k)
            .ok_or_else(|| format!("missing {k:?} field"))
    };
    let cache_schema = field("cache_schema")?.u64().ok_or("bad cache_schema")?;
    let output_schema = field("output_schema")?.u64().ok_or("bad output_schema")?;
    let checksum = field("checksum")?.str().ok_or("bad checksum")?;

    if checksum != format!("{:016x}", fnv1a64(body_text.as_bytes())) {
        return Err("body checksum mismatch".into());
    }
    if cache_schema != CACHE_SCHEMA_VERSION as u64 || output_schema != OUTPUT_SCHEMA_VERSION as u64
    {
        return Ok(None);
    }
    // Full-encoding comparison: the 64-bit filename alone would serve a
    // colliding spec's results.
    if field("spec_v1")?.str() != Some(spec.encode_hex().as_str()) {
        return Ok(None);
    }

    let body = parse_json(body_text)?;
    // Every series has one value per bin of the spec's horizon.
    let bin = spec.bin();
    if body.get("bin_ps").and_then(|v| v.u64()) != Some(bin.as_ps()) {
        return Err("bin_ps is not the spec's bin width".into());
    }
    let bins = spec.horizon().div_duration(bin) as usize;
    let values = |k: &str| -> Result<&[Json], String> {
        body.get(k)
            .and_then(|v| v.arr())
            .filter(|a| a.len() == bins)
            .ok_or_else(|| format!("missing series {k:?}, or not {bins} bins long"))
    };
    let throughput = values("throughput")?
        .iter()
        .map(|v| v.f64().ok_or("bad throughput value"))
        .collect::<Result<Vec<f64>, _>>()?;
    let counts = |k: &str| -> Result<Vec<u32>, String> {
        values(k)?
            .iter()
            .map(|v| {
                v.u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("bad {k} value"))
            })
            .collect()
    };
    let peaks = body
        .get("saq_peaks")
        .and_then(|v| v.arr())
        .filter(|a| a.len() == 3)
        .ok_or("bad saq_peaks")?;
    let peak = |i: usize| -> Result<u32, String> {
        peaks[i]
            .u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| "bad saq peak".into())
    };

    let stored = body.get("counters").ok_or("missing counters")?;
    let mut counters = NetCounters::default();
    for (name, field) in counters.fields_mut() {
        let v = stored.get(name);
        let bad = || format!("missing or malformed counter {name:?}");
        match field {
            CounterMut::Count(c) => *c = v.and_then(|v| v.u64()).ok_or_else(bad)?,
            CounterMut::Stat(r) => *r = v.and_then(parse_running).ok_or_else(bad)?,
        }
    }

    let out = RunOutput {
        schema_version: output_schema as u32,
        scheme: spec.scheme().name(),
        throughput: SeriesPoint::on_axis(bin, throughput),
        saq: SaqSeries {
            bin,
            ingress: counts("saq_ingress")?,
            egress: counts("saq_egress")?,
            total: counts("saq_total")?,
        },
        saq_peaks: (peak(0)?, peak(1)?, peak(2)?),
        counters,
        wall_secs: body
            .get("wall_secs")
            .and_then(|v| v.f64())
            .ok_or("bad wall_secs")?,
        events: body
            .get("events")
            .and_then(|v| v.u64())
            .ok_or("bad events")?,
        peak_event_queue_depth: body
            .get("peak_event_queue_depth")
            .and_then(|v| v.u64())
            .and_then(|v| usize::try_from(v).ok())
            .ok_or("bad peak_event_queue_depth")?,
        trace_digest: match body.get("trace_digest").ok_or("missing trace_digest")? {
            Json::Null => None,
            v => Some(
                u64::from_str_radix(v.str().ok_or("bad trace_digest")?, 16)
                    .map_err(|_| "bad trace_digest hex")?,
            ),
        },
        peak_bytes_estimate: body
            .get("peak_bytes_estimate")
            .and_then(|v| v.u64())
            .ok_or("bad peak_bytes_estimate")?,
        fct: parse_fct(body.get("fct").ok_or("missing fct")?)?,
    };
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::SchemeKind;
    use topology::MinParams;
    use traffic::corner::CornerCase;

    /// An entry whose envelope is intact but whose body is neither what
    /// the checksum names nor JSON: the checksum refuses it before the body
    /// reaches the parser.
    #[test]
    fn the_checksum_is_compared_before_the_body_is_parsed() {
        let spec = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let entry = format!(
            "{{\n  \"cache_schema\": {CACHE_SCHEMA_VERSION},\n  \
             \"output_schema\": {OUTPUT_SCHEMA_VERSION},\n  \"spec_hash\": \"{:016x}\",\n  \
             \"spec_v1\": \"{}\",\n  \"checksum\": \"0123456789abcdef\",\n  \
             \"body\": {{\"scheme\": [[[ not json\n}}\n",
            spec.spec_hash(),
            spec.encode_hex(),
        );
        assert_eq!(
            parse_entry(&entry, &spec).err().as_deref(),
            Some("body checksum mismatch")
        );
    }

    #[test]
    fn status_names() {
        assert_eq!(CacheStatus::Off.name(), "off");
        assert_eq!(CacheStatus::Hit.name(), "hit");
        assert_eq!(CacheStatus::Miss.name(), "miss");
    }
}
