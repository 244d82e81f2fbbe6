//! A minimal, serde-free JSON value: the wire format of the scenario
//! server and the canonical form behind `ScenarioSpec::canonical_hash`.
//!
//! The workspace deliberately has no crates.io access, so JSON is
//! hand-rolled in the same spirit as `ci/check_bench.rs` — but the
//! scenario wire format nests (workload and thermostat are objects), so
//! this module is a real recursive parser instead of a flat field
//! scanner. It is small on purpose: exactly the subset the repo's
//! byte-deterministic artifacts need.
//!
//! Two properties matter to callers:
//!
//! 1. **Deterministic rendering.** [`Value::render`] emits no
//!    whitespace, objects preserve their insertion order, non-negative
//!    integers stay integers, and floats go through Rust's shortest
//!    round-trip `Display` — so the same value always renders to the
//!    same bytes, on every platform. Canonicalization (sorted keys) is
//!    the *caller's* job when building an object to be hashed; the
//!    scenario spec emits its fields in a fixed order.
//! 2. **Lossless integers.** Seeds are `u64`; routing them through f64
//!    would corrupt values above 2⁵³. Non-negative integer tokens
//!    parse to [`Value::Uint`] and round-trip exactly.
//!
//! ```
//! use wafer_md::json::Value;
//!
//! let v = Value::parse(r#"{"seed": 18446744073709551615, "dt": 2e-3}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(Value::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("dt").and_then(Value::as_f64), Some(0.002));
//! assert_eq!(v.render(), r#"{"seed":18446744073709551615,"dt":0.002}"#);
//! ```

use std::fmt::{self, Write as _};

/// How deep arrays and objects may nest. Scenario specs nest about
/// three levels; the cap keeps the recursive parser from exhausting
/// its thread's stack on hostile input such as 50,000 `[` bytes.
pub const MAX_DEPTH: usize = 64;

/// Why [`Value::parse`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Not well-formed JSON: a human-readable hint (byte offset + what
    /// was expected).
    Syntax(String),
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] levels.
    TooDeep {
        /// Byte offset of the bracket that crossed the cap.
        at: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax(hint) => f.write_str(hint),
            Self::TooDeep { at } => {
                write!(f, "nested deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(hint: String) -> Self {
        Self::Syntax(hint)
    }
}

impl From<&str> for ParseError {
    fn from(hint: &str) -> Self {
        Self::Syntax(hint.into())
    }
}

/// A parsed JSON value.
///
/// Objects are ordered key/value vectors, not maps: insertion order is
/// preserved through [`Value::render`] so callers control (and can
/// canonicalize) the byte layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (lossless for the full `u64` range).
    Uint(u64),
    /// Any other number (negative, fractional, or exponent-form).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one JSON document; trailing non-whitespace is an error.
    /// Errors render as human-readable hints (byte offset + what was
    /// expected) — the scenario server surfaces them verbatim in its
    /// 400 responses.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos).into());
        }
        Ok(v)
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, accepting integral floats.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An object with its fields sorted by key — the canonical layout
    /// of every server-rendered document (`GET /stats`, trace events),
    /// where the field set is assembled from multiple sources and the
    /// byte layout must not depend on assembly order. Sorting is
    /// stable, but callers are expected to supply unique keys.
    pub fn sorted_obj(mut fields: Vec<(String, Value)>) -> Value {
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Obj(fields)
    }

    /// Render compactly (no whitespace), preserving object field order.
    /// Floats use Rust's shortest round-trip `Display`; non-finite
    /// floats render as `null` (the spec layer rejects them earlier).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos).into())
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos).into())
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos).into()),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parse an array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        // Non-negative integer tokens stay lossless over the full u64
        // range; everything else goes through f64.
        if !tok.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = tok.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        tok.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{tok}' at byte {start}").into())
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for this
                            // ASCII-oriented wire format.
                            s.push(
                                char::from_u32(code)
                                    .ok_or(format!("unpaired surrogate \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char).into()),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key '{key}'").into());
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos).into()),
            }
        }
    }
}

/// 64-bit FNV-1a over a byte string: the content-address hash of the
/// result cache. Stable by construction (no per-process seeding), fast,
/// and entirely dependency-free; collisions across the handful of
/// scenario specs a deployment sees are not a realistic concern, and a
/// collision would be caught by the spec file stored next to every
/// cached artifact.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, expect) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("0", Value::Uint(0)),
            ("18446744073709551615", Value::Uint(u64::MAX)),
            ("-3", Value::Num(-3.0)),
            ("2e-3", Value::Num(0.002)),
            ("1.5", Value::Num(1.5)),
            (r#""a\"b\n""#, Value::Str("a\"b\n".into())),
        ] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v, expect, "{text}");
            assert_eq!(Value::parse(&v.render()).unwrap(), expect, "{text}");
        }
    }

    #[test]
    fn nested_structure_preserves_field_order() {
        let text = r#" { "b" : [1, 2.5, "x"] , "a" : { "k" : true } } "#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.render(), r#"{"b":[1,2.5,"x"],"a":{"k":true}}"#);
        assert_eq!(
            v.get("a").and_then(|a| a.get("k")).and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    fn errors_are_descriptive() {
        for (text, needle) in [
            ("{", "expected '\"'"),
            ("[1,", "unexpected end"),
            ("[1 2]", "expected ','"),
            (r#"{"a":1,"a":2}"#, "duplicate key"),
            ("tru", "invalid literal"),
            ("{}x", "trailing characters"),
        ] {
            let err = Value::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest =
            |open: &str, close: &str, n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
        assert!(Value::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest(r#"{"a":"#, "}", MAX_DEPTH)).is_ok());
        assert_eq!(
            Value::parse(&nest("[", "]", MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { at: MAX_DEPTH })
        );
        assert_eq!(
            Value::parse(&nest(r#"{"a":"#, "}", MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { at: 5 * MAX_DEPTH })
        );
        // The body that used to overflow the parsing thread's stack.
        let err = Value::parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(err, ParseError::TooDeep { at: MAX_DEPTH });
        assert!(
            err.to_string().contains("nested deeper than 64 levels"),
            "{err}"
        );
    }

    #[test]
    fn sorted_obj_canonicalizes_assembly_order() {
        let a = Value::sorted_obj(vec![
            ("b".into(), Value::Uint(2)),
            ("a".into(), Value::Uint(1)),
        ]);
        let b = Value::sorted_obj(vec![
            ("a".into(), Value::Uint(1)),
            ("b".into(), Value::Uint(2)),
        ]);
        assert_eq!(a.render(), r#"{"a":1,"b":2}"#);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Value::parse(r#""å → β""#).unwrap();
        assert_eq!(v, Value::Str("å → β".into()));
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"acb"));
    }
}
