//! The workspace's one JSON codec.
//!
//! Every JSON document the workspace reads or writes is a [`Value`]:
//! the `qzserved` wire protocol, ingest item lines, Chrome traces,
//! `BENCH_uarch.json`, the design-space artifact and the CI checks
//! over them (`json_gate`), with no external dependency (DESIGN.md §5).
//! The parser is strict recursive descent over the JSON grammar with a
//! depth bound; the serialiser ([`Value::dump`], [`Value::dump_into`])
//! is deterministic and the only JSON string escaper in the workspace.
//! Numbers are `f64`, so integers are exact up to 2^53.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (also kept as `u64` when integral and in range).
    Num(f64),
    /// String (escapes resolved).
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object (sorted keys; duplicate keys keep the last value).
    Object(BTreeMap<String, Value>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on any deviation from the JSON grammar.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Member of an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, so the bound is exclusive.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            // `i64::MAX as f64` rounds up to 2^63, so the bound is exclusive.
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n < i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialises the value as a compact JSON document.
    ///
    /// The output is **deterministic**: object keys come out in sorted
    /// order (they are stored in a `BTreeMap`), integral numbers in the
    /// `f64`-exact range print without a fractional part, and no
    /// whitespace is emitted. `Value::parse(v.dump())` round-trips for
    /// every finite value; non-finite numbers (which JSON cannot
    /// represent) serialise as `null`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    /// Appends [`Value::dump`]'s output to `out`, allocating no string
    /// of its own.
    pub fn dump_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => dump_number(*n, out),
            Value::Str(s) => dump_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.dump_into(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, val)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    dump_string(key, out);
                    out.push(':');
                    val.dump_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Integers that `f64` represents exactly (|n| ≤ 2^53) print without a
/// fractional part; everything else uses Rust's shortest-round-trip
/// float formatting. Non-finite values serialise as `null`.
fn dump_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= EXACT {
        write!(out, "{}", n as i64).expect("write to String");
    } else {
        write!(out, "{n}").expect("write to String");
    }
}

/// Escapes `"`, `\` and control bytes, copying each run of bytes
/// between them with one `push_str`. Only ASCII bytes are escaped, so
/// every cut falls on a char boundary.
fn dump_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => write!(out, "\\u{b:04x}").expect("write to String"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

impl<const N: usize> From<[(&str, Value); N]> for Value {
    fn from(fields: [(&str, Value); N]) -> Value {
        fields.into_iter().collect()
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Value {
        Value::Object(iter.into_iter().collect())
    }
}

impl<'a> FromIterator<(&'a str, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (&'a str, Value)>>(iter: I) -> Value {
        Value::Object(iter.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte at once. Those bytes are ASCII, hence char boundaries
            // of the source `&str`.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let chunk = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
            out.push_str(chunk);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad hex digit")),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 alone or nonzero-led digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err("unrepresentable number"))?;
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            Value::parse(r#"{"a": [1, 2.5, -3e2, true, false, null], "b": {"c": "x\ny \u00e9"}}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny é")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"\\q\"",
            "nul",
            "[1]]",
            "\"\u{1}\"",
            "\"\\ud800\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn surrogate_pair_decodes() {
        let v = Value::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{}  ").is_ok());
    }

    #[test]
    fn dump_round_trips() {
        for doc in [
            r#"{"a":[1,2.5,-300,true,false,null],"b":{"c":"x\ny é 😀"}}"#,
            "[]",
            "{}",
            r#""quote \" backslash \\ tab \t""#,
            "-9007199254740992",
            "0.125",
            "[[[1]]]",
        ] {
            let v = Value::parse(doc).unwrap();
            let dumped = v.dump();
            assert_eq!(Value::parse(&dumped).unwrap(), v, "doc: {doc}");
        }
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let v = Value::parse(r#"{"zeta": 1, "alpha": {"y": [2, 3], "x": "s"}}"#).unwrap();
        assert_eq!(v.dump(), r#"{"alpha":{"x":"s","y":[2,3]},"zeta":1}"#);
    }

    #[test]
    fn dump_prints_exact_integers_without_fraction() {
        assert_eq!(Value::from(42u64).dump(), "42");
        assert_eq!(Value::from(-7i64).dump(), "-7");
        assert_eq!(Value::from(0.5f64).dump(), "0.5");
        assert_eq!(Value::Num(f64::NAN).dump(), "null");
        assert_eq!(Value::Num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn dump_escapes_control_characters() {
        let v = Value::Str("a\u{1}b\u{8}c".to_string());
        let dumped = v.dump();
        assert_eq!(dumped, "\"a\\u0001b\\bc\"");
        assert_eq!(Value::parse(&dumped).unwrap(), v);
    }

    #[test]
    fn integers_one_past_the_range_are_refused() {
        let num = |text| Value::parse(text).unwrap();
        assert_eq!(num("18446744073709551616").as_u64(), None); // 2^64
        assert_eq!(num("18446744073709549568").as_u64(), Some(u64::MAX - 2047));
        assert_eq!(num("9223372036854775808").as_i64(), None); // 2^63
        assert_eq!(num("-9223372036854775808").as_i64(), Some(i64::MIN));
    }

    /// The per-`char` escaper the run-copying `dump_string` replaced:
    /// the oracle for its bytes.
    fn oracle_dump_string(s: &str, out: &mut String) {
        use std::fmt::Write as _;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("write to String");
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The per-byte string parser the run-copying `Parser::string`
    /// replaced: the oracle for its values, errors and end positions.
    fn oracle_string(p: &mut Parser) -> Result<String, ParseError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = p.peek() else {
                return Err(p.err("unterminated string"));
            };
            p.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = p.peek() else {
                        return Err(p.err("unterminated escape"));
                    };
                    p.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = p.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if p.peek() != Some(b'\\') {
                                    return Err(p.err("lone high surrogate"));
                                }
                                p.pos += 1;
                                p.expect(b'u')?;
                                let lo = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(p.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| p.err("bad code point"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(p.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| p.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(p.err("invalid escape")),
                    }
                }
                b if b < 0x20 => return Err(p.err("raw control character in string")),
                _ => {
                    let start = p.pos - 1;
                    let mut end = p.pos;
                    while end < p.bytes.len() && p.bytes[end] >= 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&p.bytes[start..end])
                        .map_err(|_| p.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    p.pos = end;
                }
            }
        }
    }

    /// Both string parsers over one literal: their results and the
    /// positions they stopped at.
    fn both_parsers(literal: &str) -> [(Result<String, ParseError>, usize); 2] {
        let parser = || Parser {
            bytes: literal.as_bytes(),
            pos: 0,
        };
        let (mut new, mut old) = (parser(), parser());
        [(new.string(), new.pos), (oracle_string(&mut old), old.pos)]
    }

    /// SplitMix64, so the differential inputs repeat exactly.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random char from one of the classes the codec treats apart:
    /// ASCII letters, every control byte, the escaped and unescaped
    /// punctuation, DEL, and 2-, 3- and 4-byte UTF-8.
    fn random_char(state: &mut u64) -> char {
        let pick =
            |state: &mut u64, lo: u32, hi: u32| lo + (next(state) % u64::from(hi - lo)) as u32;
        let cp = match next(state) % 8 {
            0 | 1 => pick(state, u32::from(b'a'), u32::from(b'z') + 1),
            2 => pick(state, 0, 0x20),
            3 => [b'"', b'\\', b'/', 0x7f][(next(state) % 4) as usize].into(),
            4 => pick(state, 0x80, 0x800),
            5 => pick(state, 0x800, 0xD800),
            6 => pick(state, 0xE000, 0x1_0000),
            _ => pick(state, 0x1_0000, 0x11_0000),
        };
        char::from_u32(cp).expect("no class holds a surrogate")
    }

    #[test]
    fn run_copying_codec_matches_the_per_char_oracle() {
        let mut state = 0x5EED;
        for _ in 0..2000 {
            let len = (next(&mut state) % 40) as usize;
            let s: String = (0..len).map(|_| random_char(&mut state)).collect();
            let (mut dumped, mut want) = (String::new(), String::new());
            dump_string(&s, &mut dumped);
            oracle_dump_string(&s, &mut want);
            assert_eq!(dumped, want, "dump of {s:?}");
            assert_eq!(Value::parse(&dumped), Ok(Value::Str(s.clone())));
            let [new, old] = both_parsers(&dumped);
            assert_eq!(new, old, "parse of {dumped:?}");
        }
    }

    #[test]
    fn escaped_and_malformed_strings_parse_as_the_oracle_does() {
        // Literals in escaped form: every short escape, `\uXXXX` in both
        // hex cases over the BMP, and surrogate pairs.
        let mut state = 0xE5C;
        let mut parsed = 0;
        for _ in 0..1000 {
            let mut literal = String::from("\"");
            for _ in 0..(next(&mut state) % 12) {
                match next(&mut state) % 5 {
                    0 => {
                        let esc = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
                        literal.push_str(esc[(next(&mut state) % 8) as usize]);
                    }
                    1 => {
                        let cp = next(&mut state) % 0xD800;
                        literal.push_str(&format!("\\u{cp:04x}"));
                    }
                    2 => {
                        let cp = 0xE000 + next(&mut state) % 0x2000;
                        literal.push_str(&format!("\\u{cp:04X}"));
                    }
                    3 => {
                        let hi = 0xD800 + next(&mut state) % 0x400;
                        let lo = 0xDC00 + next(&mut state) % 0x400;
                        literal.push_str(&format!("\\u{hi:04x}\\u{lo:04X}"));
                    }
                    _ => literal.push(random_char(&mut state)),
                }
            }
            literal.push('"');
            let [new, old] = both_parsers(&literal);
            // Raw control characters make some literals malformed; the
            // oracle decides which, and the errors must agree too.
            assert_eq!(new, old, "parse of {literal:?}");
            parsed += usize::from(old.0.is_ok());
        }
        assert!((100..900).contains(&parsed), "{parsed} of 1000 parsed");
        for bad in [
            "\"\\q\"",
            "\"\u{1}\"",
            "\"abc\u{1f}def\"",
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\ud800\\n\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"é😀",
            "\"abc\\",
            "\"",
            "x\"",
        ] {
            let [new, old] = both_parsers(bad);
            assert!(old.0.is_err(), "the oracle accepted {bad:?}");
            assert_eq!(new, old, "parse of {bad:?}");
        }
    }

    #[test]
    fn object_builds_from_iterator() {
        let v: Value = [
            ("b".to_string(), Value::from(2u64)),
            ("a".to_string(), Value::from("x")),
        ]
        .into_iter()
        .collect();
        assert_eq!(v.dump(), r#"{"a":"x","b":2}"#);
        let fields = Value::from([("b", Value::from(2u64)), ("a", Value::from("x"))]);
        assert_eq!(fields, v);
    }
}
