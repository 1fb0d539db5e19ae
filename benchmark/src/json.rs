//! The result line's JSON emitter, and the small parser the suite mode
//! reads child results back with. No dependency: the container has no
//! serde, and the shapes involved are tiny.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// The object a run prints as the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Queries whose output was checked.
    pub attempted: u64,
    /// Queries that errored or returned a wrong result.
    pub failed: u64,
    /// The metrics of this run's pass (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

/// Escapes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit needed to read it back
/// exactly (Rust's shortest round-trip form). JSON has no NaN or
/// infinity, so a non-finite value is a harness bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v}")
}

impl RunResult {
    /// The single-line JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line printed by [`RunResult::to_json`] (or any JSON
    /// object of the same shape).
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let value = Parser { bytes: line.as_bytes(), pos: 0 }.document()?;
        let field = |name: &str| value.get(name).ok_or_else(|| format!("missing key {name:?}"));
        let whole = |name: &str| match field(name)? {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{name} is not a whole number: {other:?}")),
        };
        let correct = match field("correct")? {
            Value::Bool(b) => *b,
            other => return Err(format!("correct is not a boolean: {other:?}")),
        };
        let Value::Object(entries) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            match (entry.get("value"), entry.get("unit")) {
                (Some(Value::Number(value)), Some(Value::String(unit))) => {
                    metrics.push(Metric { name: name.clone(), value: *value, unit: unit.clone() })
                }
                _ => return Err(format!("metric {name:?} lacks a numeric value or a unit")),
            }
        }
        Ok(RunResult { correct, attempted: whole("attempted")?, failed: whole("failed")?, metrics })
    }
}

/// A parsed JSON value — the kinds a result line holds (objects keep
/// their key order).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Bool(bool),
    Number(f64),
    String(String),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn document(mut self) -> Result<Value, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(format!("expected , or }} at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Value::Number)
                    .map_err(|_| format!("bad number {text:?} at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escaped {
                        b'"' | b'\\' | b'/' => out.push(escaped),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric { name: "query_p50_ms".into(), value: 1.2034, unit: "ms".into() },
                Metric { name: "queries_per_s".into(), value: 812.25, unit: "1/s".into() },
                Metric {
                    name: "topbuckets.candidates".into(),
                    value: 59319.0,
                    unit: "count".into(),
                },
            ],
        }
    }

    #[test]
    fn emits_the_contract_shape_on_one_line() {
        let json = sample().to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"query_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"queries_per_s\": {\"value\": 812.25, \"unit\": \"1/s\"}, \
             \"topbuckets.candidates\": {\"value\": 59319, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn round_trips_through_the_parser() {
        let result = sample();
        assert_eq!(RunResult::parse(&result.to_json()).unwrap(), result);
        let failed = RunResult { correct: false, attempted: 3, failed: 2, metrics: vec![] };
        assert_eq!(RunResult::parse(&failed.to_json()).unwrap(), failed);
    }

    #[test]
    fn numbers_keep_every_digit() {
        for v in [0.1 + 0.2, 1e-9, 123456789.125, 5e-324, 1.7976931348623157e308] {
            assert_eq!(number(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(number(3.0), "3");
    }

    #[test]
    #[should_panic(expected = "not a JSON number")]
    fn non_finite_values_are_refused() {
        number(f64::NAN);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        let parsed = Parser { bytes: b"\"a\\\"b\\\\c\\n\\u0041\"", pos: 0 }.document().unwrap();
        assert_eq!(parsed, Value::String("a\"b\\c\nA".into()));
    }

    #[test]
    fn parser_rejects_malformed_results() {
        assert!(RunResult::parse("").is_err());
        assert!(RunResult::parse("{\"correct\": true}").is_err(), "missing keys");
        assert!(RunResult::parse(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(RunResult::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(RunResult::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": \"fast\", \"unit\": \"ms\"}}}"
        )
        .is_err());
        let ok = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x";
        assert!(RunResult::parse(ok).is_err(), "trailing bytes");
    }

    #[test]
    fn parser_reads_nested_objects_and_rejects_other_kinds() {
        let v = Parser { bytes: b" {\"a\": {\"x\": -2.5e1, \"y\": false}, \"b\": {}} ", pos: 0 }
            .document()
            .unwrap();
        assert_eq!(v.get("a").and_then(|a| a.get("x")), Some(&Value::Number(-25.0)));
        assert_eq!(v.get("a").and_then(|a| a.get("y")), Some(&Value::Bool(false)));
        assert_eq!(v.get("b"), Some(&Value::Object(vec![])));
        assert!(Parser { bytes: b"[1]", pos: 0 }.document().is_err(), "no arrays in a result");
        assert!(Parser { bytes: b"null", pos: 0 }.document().is_err());
    }
}
