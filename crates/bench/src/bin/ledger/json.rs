//! A small JSON scanner and writer: enough to read `BENCHMARK.json`
//! and a benchmark run's result line, and to write the ledger file,
//! without a dependency.

use std::fmt::Write as _;

/// One parsed JSON value. Object members keep their order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; trailing bytes other than whitespace
    /// are an error.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut scanner = Scanner {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = scanner.value(0)?;
        scanner.skip_space();
        if scanner.at != scanner.bytes.len() {
            return Err(format!("trailing bytes at offset {}", scanner.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Scanner<'_> {
    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at offset {}", self.at)
    }

    /// Consume `b` after optional whitespace.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.error("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown word"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    /// A string literal starting at the cursor.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            // A surrogate half stands alone here: the
                            // files this reads are ASCII.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    let mut buf = [0; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

/// `s` as a JSON string literal.
pub(crate) fn quote(s: &str) -> String {
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

/// `v` as a JSON number; JSON has no NaN or infinity, so those are
/// `null`.
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_benchmark_result_line() {
        let line = r#"{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, "read_p90_us": {"value": 19.5, "unit": "us"}, "ops_per_s": {"value": 1.5e4, "unit": "1/s"}}}"#;
        let json = Json::parse(line).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(120.0));
        let metrics = json.get("metrics").and_then(Json::as_object).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["setup_s", "read_p90_us", "ops_per_s"]);
        let value = |name: &str| {
            json.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("read_p90_us"), Some(19.5));
        assert_eq!(value("ops_per_s"), Some(15000.0));
    }

    #[test]
    fn reads_the_benchmark_declaration_shape() {
        let text = r#"{
  "command": ["cargo", "run", "--", "x\"y"],
  "paths": [],
  "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
  "nothing": null, "neg": -0.5
}"#;
        let json = Json::parse(text).unwrap();
        let command: Vec<&str> = json
            .get("command")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command, ["cargo", "run", "--", "x\"y"]);
        assert_eq!(json.get("paths"), Some(&Json::Arr(Vec::new())));
        let metric = &json.get("end_to_end").and_then(Json::as_array).unwrap()[0];
        assert_eq!(metric.get("bound").and_then(Json::as_f64), Some(0.25));
        assert_eq!(json.get("nothing"), Some(&Json::Null));
        assert_eq!(json.get("neg").and_then(Json::as_f64), Some(-0.5));
    }

    #[test]
    fn refuses_what_is_not_one_json_document() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1, 2",
            "\"open",
            "{\"a\": 1} x",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "{\"a\": [1,]}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn what_it_writes_it_reads_back() {
        let s = "a \"quoted\" \\ line\nwith\ttabs and \u{1}";
        assert_eq!(Json::parse(&quote(s)).unwrap(), Json::Str(s.to_string()));
        assert_eq!(Json::parse(&number(12.25)).unwrap(), Json::Num(12.25));
        assert_eq!(Json::parse(&number(f64::NAN)).unwrap(), Json::Null);
    }
}
