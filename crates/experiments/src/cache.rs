//! Content-addressed run cache: `results/cache/<spec_hash>.run`.
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
//! An entry is text: one `key values…` line per field, values separated by
//! one space. A header (`recn-cache 2`, `output_schema`, `spec_hash`,
//! `spec_v1`, `checksum`) and a blank line come before the body the
//! checksum covers. Numbers are written as Rust displays them (floats in
//! their shortest round-tripping form) and `-` stands for an absent value.
//! The reader takes a value only in exactly that spelling and each key
//! once, so a body loads only if it is what the writer writes for the
//! output it returns.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use fabric::{CounterMut, NetCounters};
use metrics::{FctSummary, SaqSeries};
use simcore::{fnv1a64, Running, SeriesPoint};

use crate::runner::{RunOutput, OUTPUT_SCHEMA_VERSION};
use crate::spec::RunSpec;

/// Version of the cache *entry layout* (the header and the line format),
/// the number on an entry's first line. Bumped independently of
/// [`OUTPUT_SCHEMA_VERSION`], which versions the body/JSON-summary shape;
/// a mismatch in either makes the entry a miss.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

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

    /// The entry path for `spec`: `<dir>/<16-hex spec hash>.run`.
    pub fn path_for(&self, spec: &RunSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.run", spec.spec_hash()))
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
            Ok(None) => None, // another layout, stale schema or foreign spec: overwrite later
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

// ---- entry writing -----------------------------------------------------

/// Renders the complete cache entry for `spec`/`out`.
fn render_entry(spec: &RunSpec, out: &RunOutput) -> String {
    let body = render_body(out);
    format!(
        "recn-cache {CACHE_SCHEMA_VERSION}\noutput_schema {OUTPUT_SCHEMA_VERSION}\n\
         spec_hash {:016x}\nspec_v1 {}\nchecksum {:016x}\n\n{body}",
        spec.spec_hash(),
        spec.encode_hex(),
        fnv1a64(body.as_bytes()),
    )
}

/// An optional value as written: `-` for `None`.
struct Dash<T>(Option<T>);

impl<T: Display> Display for Dash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

/// Appends the line `key v1 v2 …`.
fn line<T: Display>(s: &mut String, key: &str, values: impl IntoIterator<Item = T>) {
    s.push_str(key);
    for v in values {
        let _ = write!(s, " {v}"); // a String takes every write
    }
    s.push('\n');
}

fn render_body(out: &RunOutput) -> String {
    // Throughput and the SAQ census share the probe's bins: the body stores
    // one bin width and the values; loading rebuilds the time axis.
    let saq = &out.saq;
    debug_assert!(
        out.throughput == SeriesPoint::on_axis(saq.bin, out.throughput.iter().map(|p| p.value)),
        "throughput is on the SAQ series' bins"
    );
    let mut s = String::new();
    line(&mut s, "bin_ps", [saq.bin.as_ps()]);
    line(&mut s, "throughput", out.throughput.iter().map(|p| p.value));
    line(&mut s, "saq_ingress", &saq.ingress);
    line(&mut s, "saq_egress", &saq.egress);
    line(&mut s, "saq_total", &saq.total);
    let (ingress, egress, total) = out.saq_peaks;
    line(&mut s, "saq_peaks", [ingress, egress, total]);
    // `fields_mut` is the one walk over the counters; writing reads
    // through it on a copy.
    let mut counters = out.counters.clone();
    for (name, field) in counters.fields_mut() {
        match field {
            CounterMut::Count(v) => line(&mut s, name, [*v]),
            CounterMut::Stat(r) => {
                let (count, mean, m2, min, max) = r.raw_parts();
                let parts: [&dyn Display; 5] = [&count, &mean, &m2, &Dash(min), &Dash(max)];
                line(&mut s, name, parts);
            }
        }
    }
    let digest = Dash(out.trace_digest.map(|d| format!("{d:016x}")));
    let fct = Dash(
        out.fct
            .as_ref()
            .map(|f| format!("{} {} {} {}", f.flows, f.p50_ns, f.p99_ns, f.max_ns)),
    );
    let _ = write!(
        s,
        "wall_secs {}\nevents {}\npeak_event_queue_depth {}\ntrace_digest {digest}\n\
         peak_bytes_estimate {}\nfct {fct}\n",
        out.wall_secs, out.events, out.peak_event_queue_depth, out.peak_bytes_estimate,
    );
    s
}

// ---- entry reading -----------------------------------------------------

/// An entry's header or body: each line's values by its key.
struct Record<'a>(BTreeMap<&'a str, &'a str>);

/// Reads one value.
type Parse<T> = fn(&str) -> Result<T, String>;

impl<'a> Record<'a> {
    /// Reads `text`'s `\n`-separated lines, refusing a key that appears
    /// twice.
    fn parse(text: &'a str) -> Result<Record<'a>, String> {
        let mut lines = BTreeMap::new();
        for line in text.split('\n') {
            // The rest of the line keeps its leading space, so a line with
            // no values and one ending in a space stay apart.
            let (key, rest) = line.split_at(line.find(' ').unwrap_or(line.len()));
            if lines.insert(key, rest).is_some() {
                return Err(format!("key {key:?} appears twice"));
            }
        }
        Ok(Record(lines))
    }

    /// The values on `key`'s line, taking the line out of the record.
    fn take(&mut self, key: &str) -> Result<Vec<&'a str>, String> {
        let rest = self.0.remove(key);
        let rest = rest.ok_or_else(|| format!("no {key:?} line"))?;
        Ok(rest.split(' ').skip(1).collect())
    }

    /// The `N` values on `key`'s line.
    fn tokens<const N: usize>(&mut self, key: &str) -> Result<[&'a str; N], String> {
        let values = self.take(key)?;
        <[&str; N]>::try_from(values).map_err(|_| format!("{key:?} does not hold {N} values"))
    }

    /// `key`'s one value.
    fn one<T>(&mut self, key: &str, parse: Parse<T>) -> Result<T, String> {
        let [v] = self.tokens(key)?;
        parse(v)
    }

    /// `key`'s values, one per bin of a `bins`-long series.
    fn series<T>(&mut self, key: &str, bins: usize, parse: Parse<T>) -> Result<Vec<T>, String> {
        let values = self.take(key)?;
        if values.len() != bins {
            return Err(format!("series {key:?} is not {bins} bins long"));
        }
        values.into_iter().map(parse).collect()
    }
}

/// Whether `args` writes exactly `tok`, compared piece by piece as it is
/// written.
fn spelled(tok: &str, args: fmt::Arguments<'_>) -> bool {
    struct Rest<'a>(&'a str);
    impl Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(tok);
    rest.write_fmt(args).is_ok() && rest.0.is_empty()
}

/// `tok` as an unsigned integer, if it is spelled as the writer spells
/// one: ASCII digits only, and no leading zero unless the value is `0`.
fn num<T: FromStr>(tok: &str) -> Result<T, String> {
    let digits = !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit());
    let v = (digits && (tok == "0" || !tok.starts_with('0'))).then(|| tok.parse().ok());
    v.flatten().ok_or_else(|| format!("bad value {tok:?}"))
}

/// `tok` as a finite float, if it is spelled as the writer spells that
/// value.
fn float(tok: &str) -> Result<f64, String> {
    let x = tok.parse::<f64>().ok();
    let x = x.filter(|x| x.is_finite() && spelled(tok, format_args!("{x}")));
    x.ok_or_else(|| format!("bad float {tok:?}"))
}

/// `tok` as 16 lower-case hex digits.
fn hex(tok: &str) -> Result<u64, String> {
    let v = u64::from_str_radix(tok, 16).ok();
    let v = v.filter(|v| spelled(tok, format_args!("{v:016x}")));
    v.ok_or_else(|| format!("bad hex {tok:?}"))
}

/// `None` for `-`, else `tok` read by `parse`.
fn opt<T>(tok: &str, parse: Parse<T>) -> Result<Option<T>, String> {
    (tok != "-").then(|| parse(tok)).transpose()
}

/// Reads and verifies a cache entry for `spec`. `Ok(None)` means the entry
/// is intact but does not apply (another layout version, a stale output
/// schema, or a different spec landed on the same hash); `Err` means
/// corruption.
fn parse_entry(text: &str, spec: &RunSpec) -> Result<Option<RunOutput>, String> {
    let Some(text) = text.strip_prefix(&format!("recn-cache {CACHE_SCHEMA_VERSION}\n")) else {
        return Ok(None); // an older build's JSON entry, or another layout
    };
    let (head, body) = text
        .split_once("\n\n")
        .ok_or("no blank line after the header")?;
    let mut head = Record::parse(head)?;
    // The checksum is compared on the body's raw text before the body is
    // read: a torn or corrupt body fails here.
    if head.one("checksum", hex)? != fnv1a64(body.as_bytes()) {
        return Err("body checksum mismatch".into());
    }
    // Full-encoding comparison: the 64-bit filename alone would serve a
    // colliding spec's results.
    if head.one("output_schema", num::<u32>)? != OUTPUT_SCHEMA_VERSION
        || head.take("spec_v1")? != [spec.encode_hex().as_str()]
    {
        return Ok(None);
    }

    let body = body
        .strip_suffix('\n')
        .ok_or("the body does not end with a newline")?;
    let mut rec = Record::parse(body)?;
    let bin = spec.bin();
    if rec.one("bin_ps", num::<u64>)? != bin.as_ps() {
        return Err("bin_ps is not the spec's bin width".into());
    }
    // Every series has one value per bin of the spec's horizon.
    let bins = spec.horizon().div_duration(bin) as usize;
    let throughput = rec.series("throughput", bins, float)?;
    let saq = SaqSeries {
        bin,
        ingress: rec.series("saq_ingress", bins, num)?,
        egress: rec.series("saq_egress", bins, num)?,
        total: rec.series("saq_total", bins, num)?,
    };
    let [ingress, egress, total] = rec.tokens("saq_peaks")?;
    let saq_peaks = (num(ingress)?, num(egress)?, num(total)?);
    let mut counters = NetCounters::default();
    for (name, field) in counters.fields_mut() {
        match field {
            CounterMut::Count(c) => *c = rec.one(name, num)?,
            CounterMut::Stat(r) => {
                let [count, mean, m2, min, max] = rec.tokens(name)?;
                let (mean, m2) = (float(mean)?, float(m2)?);
                let (min, max) = (opt(min, float)?, opt(max, float)?);
                *r = Running::from_raw_parts(num(count)?, mean, m2, min, max);
            }
        }
    }
    let out = RunOutput {
        scheme: spec.scheme().name(),
        throughput: SeriesPoint::on_axis(bin, throughput),
        saq,
        saq_peaks,
        counters,
        wall_secs: rec.one("wall_secs", float)?,
        events: rec.one("events", num)?,
        peak_event_queue_depth: rec.one("peak_event_queue_depth", num)?,
        trace_digest: rec.one("trace_digest", |t| opt(t, hex))?,
        peak_bytes_estimate: rec.one("peak_bytes_estimate", num)?,
        fct: match rec.take("fct")?[..] {
            ["-"] => None,
            [flows, p50, p99, max] => Some(FctSummary {
                flows: num(flows)?,
                p50_ns: float(p50)?,
                p99_ns: float(p99)?,
                max_ns: float(max)?,
            }),
            _ => return Err("fct is neither - nor four values".into()),
        },
    };
    match rec.0.keys().next() {
        Some(key) => Err(format!("unknown key {key:?}")),
        None => Ok(Some(out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::SchemeKind;
    use topology::MinParams;
    use traffic::corner::CornerCase;

    /// An entry whose header is intact but whose body is neither what the
    /// checksum names nor a body: the checksum refuses it before the body
    /// is read.
    #[test]
    fn the_checksum_is_compared_before_the_body_is_parsed() {
        let spec = RunSpec::corner(
            MinParams::paper_64(),
            SchemeKind::OneQ,
            CornerCase::case1_64(),
        );
        let entry = format!(
            "recn-cache {CACHE_SCHEMA_VERSION}\noutput_schema {OUTPUT_SCHEMA_VERSION}\n\
             spec_hash {:016x}\nspec_v1 {}\nchecksum 0123456789abcdef\n\n\
             bin_ps\nbin_ps [[[ not a body\n",
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
