//! The crate's hand-rolled JSON: the writers every renderer shares and a
//! minimal reader (the workspace has no external dependencies).
//!
//! The reader keeps number tokens as slices of the parsed text, so `u64`
//! and `f64` parse exactly — Rust's shortest-representation float
//! formatting round-trips — and a number costs no allocation.

/// `s` as a quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", fabric::json_escape(s))
}

/// A finite float as its shortest round-tripping decimal form; a
/// non-finite one as `null` (it cannot appear in stored outputs, so a
/// cache entry holding it fails verification honestly instead of being
/// bad JSON).
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
/// `null` for a run with no completed flows. `sep` is the element
/// separator: `","` in cache bodies, `", "` in sweep summaries.
pub fn fct(fct: &Option<metrics::FctSummary>, sep: &str) -> String {
    match fct {
        Some(f) => {
            let cells = [
                f.flows.to_string(),
                num(f.p50_ns),
                num(f.p99_ns),
                num(f.max_ns),
            ];
            format!("[{}]", cells.join(sep))
        }
        None => "null".to_owned(),
    }
}

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Numbers keep their raw token so integers parse as exact `u64` and floats
/// as the exact shortest-representation `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw token.
    Num(&'a str),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in source order.
    Obj(Vec<(String, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, when a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64`, when an integer token.
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, when a (finite) number token.
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }

    /// Like [`f64`](Json::f64) but mapping `null` to `Some(None)`.
    pub fn f64_or_null(&self) -> Option<Option<f64>> {
        match self {
            Json::Null => Some(None),
            v => v.f64().map(Some),
        }
    }

    /// The elements, when an array.
    pub fn arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. Cache
/// entries nest 4 deep; the bound keeps the recursive parser's stack small
/// whatever a corrupt file holds.
pub const MAX_NESTING: usize = 32;

/// Parses one JSON document (rejecting trailing garbage and nesting deeper
/// than [`MAX_NESTING`]). Supports the subset this crate writes: objects,
/// arrays, strings with basic escapes, number tokens, `true`/`false`/`null`.
pub fn parse_json(text: &str) -> Result<Json<'_>, String> {
    let mut p = JsonParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' if self.eat_word("true") => Ok(Json::Bool(true)),
            b'f' if self.eat_word("false") => Ok(Json::Bool(false)),
            b'n' if self.eat_word("null") => Ok(Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
        }
    }

    /// Runs `parse` on the array or object at `pos`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json<'a>, String>,
    ) -> Result<Json<'a>, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        c => return Err(format!("unknown escape \\{}", c as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 character: every token before it
                    // is ASCII, so `pos` is on a character boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        // `start` is on an ASCII byte and every byte taken is ASCII, so both
        // ends are character boundaries.
        let token = &self.text[start..self.pos];
        if token.parse::<f64>().is_err() {
            return Err(format!("bad number token {token:?}"));
        }
        Ok(Json::Num(token))
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

    #[test]
    fn json_parser_round_trips_the_shapes_we_write() {
        let v = parse_json(r#"{"a": [1, 2.5, null], "b": "x\"y", "c": {"d": true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().arr().unwrap()[0].u64(), Some(1));
        assert_eq!(v.get("a").unwrap().arr().unwrap()[1].f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().arr().unwrap()[2], Json::Null);
        assert_eq!(v.get("b").unwrap().str(), Some("x\"y"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2] tail").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_NESTING)).is_ok());
        let err = parse_json(&nest(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far deeper than any stack holds: an error, not an overflow.
        let err = parse_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse_json(&"{\"a\": ".repeat(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    /// String parsing is linear in the string's length.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é".repeat(2 << 20); // 4 MiB of two-byte characters
        let start = std::time::Instant::now();
        let text = format!("[\"{body}\"]");
        let v = parse_json(&text).unwrap();
        assert_eq!(v.arr().unwrap()[0].str(), Some(body.as_str()));
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 5.0, "a 4 MiB string took {secs:.2} s");
    }

    #[test]
    fn float_tokens_parse_exactly() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, -0.0, 123_456_789.123_456_79] {
            let text = format!("[{x}]");
            let v = parse_json(&text).unwrap();
            assert_eq!(
                v.arr().unwrap()[0].f64().unwrap().to_bits(),
                x.to_bits(),
                "{text}"
            );
        }
    }
}
