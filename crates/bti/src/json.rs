//! The workspace's one JSON codec: a value type, a strict parser and the
//! two layouts every JSON document here is written in.
//!
//! The workspace carries no serialization dependency, so the serve line
//! protocol and every record the bench binaries archive go through this
//! module. It alone decides:
//!
//! - **escaping** — `"`, `\` and control characters ([`push_escaped`]);
//! - **numbers** — integers of magnitude below 2^53 print plain, every
//!   other finite number in Rust's shortest round-trip `e` notation, so
//!   each `f64` parses back to the identical bit pattern (the foundation
//!   of the service's bit-identity guarantee); non-finite values print as
//!   `null` ([`render_f64`]);
//! - **integers** — a `u64` crosses exactly only up to [`MAX_SAFE_INT`];
//!   [`Json::as_u64`] refuses every other number;
//! - **nesting** — [`Json::parse`] refuses documents nested deeper than
//!   [`MAX_DEPTH`], so a hostile line cannot exhaust the stack;
//! - **layout** — [`Json::render`] writes one compact line (the wire),
//!   [`Json::render_pretty`] the layout of files.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// The largest integer (2^53 − 1) a JSON number carries exactly; integers
/// up to it print without an exponent.
pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
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
    /// Returns a message naming the byte offset of the first problem,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// An object with `fields` in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
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

    /// The number as an integer, if it is one in `[0, MAX_SAFE_INT]`: the
    /// range in which a `u64` crosses JSON unchanged.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && (0.0..=MAX_SAFE_INT as f64).contains(v) => {
                Some(*v as u64)
            }
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

    /// Renders the value as compact single-line JSON: the wire layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value in the file layout, ending in a newline. A
    /// container goes on one line when none of its members is a non-empty
    /// container; otherwise each member gets its own line, indented by two
    /// spaces per level. Separators are `": "` and `", "`.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the value: compact when `depth` is `None`, else in the file
    /// layout at nesting depth `depth`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&render_f64(*v)),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, ['{', '}'], members);
            }
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let (comma, colon) = if depth.is_some() { (", ", ": ") } else { (",", ":") };
    let nested = |v: &Json| {
        matches!(v, Json::Arr(a) if !a.is_empty()) || matches!(v, Json::Obj(o) if !o.is_empty())
    };
    // Set when this container puts each member on its own line.
    let block = depth.filter(|_| members.clone().any(|(_, v)| nested(v)));
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if let Some(depth) = block {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push_str(comma);
        }
        if let Some(key) = key {
            push_escaped(out, key);
            out.push_str(colon);
        }
        value.write(out, block.map_or(depth, |d| Some(d + 1)));
    }
    if let Some(depth) = block {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        /// Integers are exact up to [`MAX_SAFE_INT`]; larger ones round.
        #[allow(clippy::cast_lossless)] // one cast for all four types
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Renders an `f64` as a JSON number that parses back bit-identically:
/// integers in ±2^53 print without an exponent, everything else uses Rust's
/// shortest round-trip scientific form. Non-finite input renders as `null`
/// (JSON has no NaN/∞).
#[must_use]
pub fn render_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_owned()
    } else if v.fract() == 0.0 && v.abs() <= MAX_SAFE_INT as f64 {
        format!("{v:.0}")
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

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let value = self.value(depth)?;
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

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
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

    /// Parses a number by RFC 8259's grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: no leading
    /// zeros, and a digit on both sides of the point and after the `e`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let at = |p: &Self| p.bytes.get(p.pos).copied();
        if at(self) == Some(b'-') {
            self.pos += 1;
        }
        match at(self) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.fail("invalid number")),
        }
        if at(self) == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.fail("invalid number"));
            }
        }
        if matches!(at(self), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(at(self), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.fail("invalid number"));
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

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
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
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{} extra",
            "1e999",
            "01",
            "00.5",
            "1.",
            "-.5",
            "1.e3",
        ] {
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

    #[test]
    fn quoting_escapes_specials() {
        let quote = |s: &str| {
            let mut out = String::new();
            push_escaped(&mut out, s);
            out
        };
        assert_eq!(quote("plain"), r#""plain""#);
        assert_eq!(quote("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(quote("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(quote("\u{1}"), r#""\u0001""#);
        assert_eq!(quote("λ≥½"), "\"λ≥½\"");
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&past).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn integers_cross_exactly_below_2_pow_53() {
        for v in [0, 42, MAX_SAFE_INT] {
            let text = Json::from(v).render();
            assert_eq!(text, v.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
        for bad in ["9007199254740992", "9007199254740993", "-5", "2.7", "1e300", "\"7\""] {
            assert_eq!(Json::parse(bad).unwrap().as_u64(), None, "{bad}");
        }
    }

    #[test]
    fn pretty_layout_breaks_only_containers_with_nested_members() {
        let doc = Json::obj([
            ("tool", "relialint".into()),
            ("errors", 1u64.into()),
            ("diagnostics", Json::Arr(vec![])),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
            ("cache", Json::obj([("misses", 0u64.into()), ("rate", f64::INFINITY.into())])),
            (
                "rows",
                [Json::obj([("kind", "net".into()), ("net", "n\"1".into())])].into_iter().collect(),
            ),
        ]);
        let expected = r#"{
  "tool": "relialint",
  "errors": 1,
  "diagnostics": [],
  "empty": {},
  "cache": {"misses": 0, "rate": null},
  "rows": [
    {"kind": "net", "net": "n\"1"}
  ]
}
"#;
        assert_eq!(doc.render_pretty(), expected);
        assert_eq!(Json::parse(expected).unwrap().render(), doc.render());
        assert_eq!(Json::Num(0.5).render_pretty(), "5e-1\n");
    }
}
