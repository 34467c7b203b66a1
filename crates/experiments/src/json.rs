//! The crate's hand-rolled JSON writers, shared by the sweep summaries
//! (the workspace has no external dependencies, and nothing reads JSON
//! back: the run cache has its own line format).

/// `s` as a quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", fabric::json_escape(s))
}

/// A finite float as its shortest round-tripping decimal form; a
/// non-finite one as `null`, which JSON can hold.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// [`num`] for an optional value (`None` renders as `null`).
pub fn opt(x: Option<f64>) -> String {
    x.map_or("null".to_owned(), num)
}

/// A flow-completion-time summary as `[flows, p50, p99, max]` (ns), or
/// `null` for a run with no completed flows.
pub fn fct(fct: &Option<metrics::FctSummary>) -> String {
    match fct {
        Some(f) => format!(
            "[{}, {}, {}, {}]",
            f.flows,
            num(f.p50_ns),
            num(f.p99_ns),
            num(f.max_ns)
        ),
        None => "null".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_escape_and_null_out() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(opt(None), "null");
        assert_eq!(opt(Some(0.5)), "0.5");
    }
}
