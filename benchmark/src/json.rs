//! Flat, line-oriented JSON: every file the benchmark reads keeps one
//! object per line, so fields are found by key without a JSON library (the
//! offline build has none — the same idiom as `bench_core`).

/// The text after `"key": ` in `line`.
fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    Some(&line[line.find(&pat)? + pat.len()..])
}

/// `"key": <number>` in a flat object; `None` for a missing key or `null`.
pub fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = after(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// `"key": "<string>"` in a flat object.
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after(line, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

/// The result line the benchmark contract asks for, last on stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Reads `"name": {"value": <number>` back out of a result line.
pub fn metric_value(result: &str, name: &str) -> Option<f64> {
    field_num(after(result, name)?, "value")
}
