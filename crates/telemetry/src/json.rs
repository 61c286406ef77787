//! Minimal JSON support for the telemetry layer: an escaping writer used by
//! the event serializer and a recursive-descent parser used by the `report`
//! renderer and the JSONL round-trip tests.
//!
//! Hand-rolled because the workspace builds offline (no serde) and the event
//! schema is tiny; the parser accepts all of RFC 8259. Non-negative integer
//! literals that fit a `u64` are kept exact (RNG seeds use all 64 bits);
//! every other number is read as `f64`.

use std::fmt;

/// A parsed JSON value. Objects preserve key order (the schema is
/// hand-written, so order is meaningful to human readers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    UInt(u64),
    /// Any other number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Deepest array/object nesting [`Json::parse`] accepts. A deeper
    /// document is a [`JsonError`] rather than a stack overflow, and no
    /// deeper value is ever built, so recursive walks over a parsed value
    /// (drop, clone, comparison) stay bounded too.
    pub const MAX_DEPTH: usize = 256;

    /// Parses one complete JSON document. Trailing non-whitespace is an
    /// error (each JSONL line must be exactly one value), and so is nesting
    /// deeper than [`Json::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after value"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and whole. Integer
    /// literals come back exactly, whatever their size.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The unsigned integer under `key`; the error names the field and
    /// `what` was being read.
    pub fn field_u64(&self, key: &str, what: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what}: missing or non-integer `{key}`"))
    }

    /// The number under `key`, like [`Json::field_u64`].
    pub fn field_f64(&self, key: &str, what: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{what}: missing or non-numeric `{key}`"))
    }

    /// The string under `key`, like [`Json::field_u64`].
    pub fn field_str(&self, key: &str, what: &str) -> Result<&str, String> {
        self.get(key).and_then(Json::as_str).ok_or_else(|| format!("{what}: missing `{key}`"))
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == Json::MAX_DEPTH {
                    return Err(self.error("arrays and objects nest deeper than Json::MAX_DEPTH"));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: peek for a low half.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10) as u32
                                        + (low - 0xDC00) as u32;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code as u32)
                            };
                            out.push(ch.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid; find the char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.error("bad \\u escape")),
            };
            code = code << 4 | u16::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.error("invalid number"))
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

/// Renders an `f64` as a JSON number. Non-finite values (unrepresentable in
/// JSON) are rendered as `null` — the sinks never emit them, but a corrupt
/// measurement must not corrupt the whole log line.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's float Display is always plain decimal — valid JSON.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"type":"x","n":1.5,"neg":-2,"arr":[1,true,null,"s"],"o":{"k":"v"}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-2.0));
        let arr = v.get("arr").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n));
        let mixed = |n: usize| format!("{}0{}", "{\"k\":[".repeat(n), "]}".repeat(n));
        let half = Json::MAX_DEPTH / 2;
        for doc in [arrays(Json::MAX_DEPTH), objects(Json::MAX_DEPTH), mixed(half)] {
            assert!(Json::parse(&doc).is_ok(), "the limit itself parses");
        }
        let deeper = format!("[{}]", mixed(half));
        for doc in [arrays(Json::MAX_DEPTH + 1), objects(Json::MAX_DEPTH + 1), deeper] {
            let err = Json::parse(&doc).unwrap_err();
            assert!(err.message.contains("MAX_DEPTH"), "{err}");
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}f");
        let parsed = Json::parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn non_finite_floats_render_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn integer_literals_stay_exact_beyond_f64_precision() {
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let parsed = Json::parse(&n.to_string()).unwrap();
            assert_eq!(parsed, Json::UInt(n));
            assert_eq!(parsed.as_u64(), Some(n));
            assert_eq!(parsed.as_f64(), Some(n as f64));
        }
        // Literals a `u64` cannot hold fall back to floats.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_f64(), Some(2f64.powi(64)));
        assert_eq!(Json::parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(Json::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1_000));
    }
}
