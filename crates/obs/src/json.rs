//! The workspace's one JSON implementation: the [`Writer`] every emitter
//! (wire lines, HTTP bodies, trace and stats files) renders through, a
//! small [`Value`] parser the serve and delta layers read requests with,
//! and a syntax validator tests and CI check emitted files with.

use std::fmt::Write as _;

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` escaped: `"` and `\` backslashed, control characters as
/// `\n`, `\r`, `\t` or `\u00XX`, everything else (non-ASCII included)
/// verbatim.
fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// A JSON leaf the [`Writer`] can emit: a string, a number, a bool, or
/// `None` as `null`.
pub trait Scalar {
    /// Append this value's JSON token.
    fn write_to(&self, out: &mut String);
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

/// Non-finite floats have no JSON token and render as `null`; finite
/// ones in Rust's shortest round-trip form.
impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// Integers and bools: their `Display` form is their JSON token.
macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(bool, u8, u32, u64, u128, usize, i64);

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// Appends one JSON document to a `String`: compact (no whitespace),
/// members in call order. Separators are the writer's job, so callers
/// only say what comes next:
///
/// ```
/// let mut w = rzen_obs::json::Writer::new();
/// w.arr(|w| {
///     w.obj(|w| {
///         w.field("op", "reach").field("ok", true).field("n", None::<u64>);
///         w.key("xs").arr(|w| {
///             w.value(-1i64).value(0.5).value(f64::NAN);
///         });
///     });
///     w.obj(|_| {});
/// });
/// assert_eq!(
///     w.line(),
///     "[{\"op\":\"reach\",\"ok\":true,\"n\":null,\"xs\":[-1,0.5,null]},{}]\n"
/// );
/// ```
#[derive(Default)]
pub struct Writer {
    out: String,
    /// The next value or key follows a sibling and needs a comma.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `bytes` of output.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Start an object member: the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.sep();
        key.write_to(&mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Write one leaf value (an array element, or a member's after [`Writer::key`]).
    pub fn value(&mut self, v: impl Scalar) -> &mut Writer {
        self.sep();
        v.write_to(&mut self.out);
        self.comma = true;
        self
    }

    /// Write one object member with a leaf value.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Writer {
        self.key(key).value(v)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Write an object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nest('{', '}', body)
    }

    /// Write an array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nest('[', ']', body)
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// The document as one NDJSON line (newline-terminated).
    pub fn line(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Validate that `s` is a single well-formed JSON value (syntax only —
/// no schema). Returns the byte offset and a message on failure.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// A parsed JSON value. Numbers are kept as `f64` (every value this
/// repo's protocols exchange fits losslessly).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse `s` as a single JSON value. Returns the byte offset and a
/// message on failure.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: u32 = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c);
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push(0x08);
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push(0x0c);
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push(b'\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push(b'\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push(b'\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code = 0u32;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => {
                                        code = code * 16 + (c as char).to_digit(16).unwrap();
                                        self.pos += 1;
                                    }
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                            // Surrogates would need pairing; the repo's own
                            // exporters never emit them, so reject rather
                            // than silently mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for s in [
            "null",
            "true",
            "-12.5e3",
            "\"a\\nb\\u00e9\"",
            "[]",
            "{}",
            "[1, {\"a\": [true, null]}, \"x\"]",
            "{\"k\": {\"nested\": [1.0, 2e-2]}}",
        ] {
            validate(s).unwrap_or_else(|e| panic!("{s:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01abc",
            "\"unterminated",
            "[1] trailing",
            "{'single': 1}",
            "1.",
            "nul",
        ] {
            assert!(validate(s).is_err(), "{s:?} accepted");
        }
    }

    #[test]
    fn parse_builds_values() {
        let v = parse("{\"op\":\"reach\",\"n\":3,\"ok\":true,\"s\":\"a\\nb\",\"xs\":[1,null]}")
            .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("reach"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\nb"));
        assert_eq!(
            v.get("xs"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Null]))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let json = format!("\"{}\"", escape(nasty));
        validate(&json).unwrap();
    }
}
