//! A minimal JSON value, parser and renderer for the line protocol.
//!
//! The workspace deliberately carries no serialization dependency, so the
//! characterization service hand-rolls the small JSON subset it needs:
//! objects, arrays, strings (with escapes), finite numbers, booleans and
//! null. Numbers are rendered with Rust's shortest round-trip formatting,
//! so every `f64` that crosses the wire parses back to the identical bit
//! pattern — the foundation of the service's bit-identity guarantee.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error (the line protocol sends exactly one value per line).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&render_f64(*v)),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders a finite `f64` as a JSON number that parses back bit-identically:
/// integers in ±2^53 print without an exponent, everything else uses Rust's
/// shortest round-trip scientific form. Non-finite input renders as `null`
/// (JSON has no NaN/∞; the protocol never produces them).
#[must_use]
pub fn render_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && v.abs() < EXACT {
        let mut s = String::new();
        let _ = write!(s, "{v:.0}");
        s
    } else {
        format!("{v:e}")
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.fail("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.fail("unterminated escape"));
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.fail("invalid escape")),
                    }
                }
                _ => {
                    // Re-sync on UTF-8 boundaries: step back and take the
                    // full character from the source text. A character is
                    // at most 4 bytes, so validating only that window keeps
                    // string parsing linear in the string's length.
                    self.pos -= 1;
                    let window = &self.bytes[self.pos..self.bytes.len().min(self.pos + 4)];
                    let valid = match std::str::from_utf8(window) {
                        Ok(text) => text,
                        Err(e) => std::str::from_utf8(&window[..e.valid_up_to()]).unwrap_or(""),
                    };
                    let Some(c) = valid.chars().next() else {
                        return Err(self.fail("invalid UTF-8 in string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let Some(hex) = self.bytes.get(self.pos..end) else {
            return Err(self.fail("truncated \\u escape"));
        };
        let text = std::str::from_utf8(hex).map_err(|_| self.fail("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.fail("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.fail("lone high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.fail("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.fail("lone low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.fail("invalid \\u escape"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number"))?;
        let v: f64 = text.parse().map_err(|_| self.fail("invalid number"))?;
        if !v.is_finite() {
            return Err(self.fail("number out of range"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"op":"characterize","cells":["INV_X1","NAND2_X1"],
                      "years":10.0,"nested":{"a":[1,2.5,-3e-2],"b":null,"c":true}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("characterize"));
        assert_eq!(v.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("years").and_then(Json::as_f64), Some(10.0));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-3e-2));
        assert_eq!(nested.get("b"), Some(&Json::Null));
        assert_eq!(nested.get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{} extra", "1e999"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t unicode µ≠";
        let mut rendered = String::new();
        push_escaped(&mut rendered, original);
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""µ""#).unwrap().as_str(), Some("µ"));
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        let values = [0.0, -0.0, 1.0, -1.5, 5e-12, 947e-12, 2.0e-3, 1.0 / 3.0, f64::MIN_POSITIVE];
        for v in values {
            let text = render_f64(v);
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
        assert_eq!(render_f64(42.0), "42");
        assert_eq!(render_f64(f64::NAN), "null");
    }

    #[test]
    fn render_parses_back() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Str("r-1".into())),
            ("ok".into(), Json::Bool(true)),
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
