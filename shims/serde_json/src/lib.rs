//! Offline shim for the `serde_json` 1.x API surface this workspace
//! uses: rendering the shim `serde::Value` tree as JSON text, and parsing
//! JSON text back into a [`Value`] tree (the golden-data comparisons of
//! `simcore::fidelity` diff in the `Value` domain, so the shim does not
//! need typed deserialization).

use std::error;
use std::fmt::{self, Write as _};

use serde::{Serialize, Value};

/// Serialization error (the shim never produces one; the type exists so
/// call sites' `Result` handling compiles unchanged).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl error::Error for Error {}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Never errors in the shim; the signature matches serde_json.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as human-readable, 2-space-indented JSON.
///
/// # Errors
///
/// Never errors in the shim; the signature matches serde_json.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts — serde_json's
/// default recursion limit. The parser recurses once per level, so
/// without a bound one line of `[` overflows the thread's stack, and a
/// stack overflow aborts the whole process.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree (the shim's stand-in for
/// `serde_json::from_str::<Value>`).
///
/// # Errors
///
/// Returns an [`Error`] naming the byte offset of the first syntax error,
/// of nesting deeper than 128 levels (serde_json's default limit), or
/// of trailing non-whitespace after the document.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(entries));
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: the goldens never contain
                            // astral characters, but parse them correctly
                            // anyway.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let Some(slice) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        let _ = self.eat(b'-');
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            Ok(Value::Float(f))
        } else if text.starts_with('-') {
            let i: i64 = text.parse().map_err(|_| self.err("invalid number"))?;
            Ok(Value::Int(i))
        } else {
            let u: u64 = text.parse().map_err(|_| self.err("invalid number"))?;
            Ok(Value::UInt(u))
        }
    }
}

fn render(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                // `{}` on f64 is shortest-roundtrip in modern Rust, like
                // serde_json's float formatting; keep a trailing `.0` for
                // integral values so the output stays typed as a float.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => render_seq(
            items.iter(),
            items.len(),
            indent,
            depth,
            out,
            ('[', ']'),
            render,
        ),
        Value::Object(entries) => render_seq(
            entries.iter(),
            entries.len(),
            indent,
            depth,
            out,
            ('{', '}'),
            |(k, v), ind, d, o| {
                render_string(k, o);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                render(v, ind, d, o);
            },
        ),
    }
}

fn render_seq<I, T>(
    items: I,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    brackets: (char, char),
    mut each: impl FnMut(T, Option<usize>, usize, &mut String),
) where
    I: Iterator<Item = T>,
{
    out.push(brackets.0);
    if len == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        each(item, indent, depth + 1, out);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(brackets.1);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip_shapes() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("fig3".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::UInt(1), Value::Float(2.5)]),
            ),
            ("ok".into(), Value::Bool(true)),
        ]);
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        assert_eq!(
            to_string(&Wrap(v.clone())).unwrap(),
            r#"{"name":"fig3","xs":[1,2.5],"ok":true}"#
        );
        let pretty = to_string_pretty(&Wrap(v)).unwrap();
        assert!(pretty.contains("\n  \"name\": \"fig3\""));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parser_handles_the_scalar_kinds() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" 42 ").unwrap(), Value::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("2.5e3").unwrap(), Value::Float(2500.0));
        assert_eq!(
            from_str(r#""a\n\"bA""#).unwrap(),
            Value::Str("a\n\"bA".to_string())
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_an_abort() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(from_str(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(from_str(&nest(MAX_DEPTH, r#"{"a":"#, "}").replace(":}", ":1}")).is_ok());
        for bomb in [
            nest(MAX_DEPTH + 1, "[", "]"),
            nest(MAX_DEPTH + 1, r#"{"a":"#, "}"),
            // Unterminated and far deeper than any stack can recurse.
            "[".repeat(1_000_000),
        ] {
            let err = from_str(&bomb).expect_err("too deep");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn render_parse_roundtrip_is_identity() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("fig12".into())),
            (
                "vals".into(),
                Value::Array(vec![
                    Value::Float(0.1234567890123),
                    Value::Float(-3.0),
                    Value::UInt(65536),
                    Value::Int(-1),
                    Value::Null,
                ]),
            ),
            ("nested".into(), Value::Object(vec![])),
        ]);
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        for text in [
            to_string(&Wrap(v.clone())).unwrap(),
            to_string_pretty(&Wrap(v.clone())).unwrap(),
        ] {
            let parsed = from_str(&text).unwrap();
            // Floats rendered with `{}` are shortest-roundtrip, so parsing
            // recovers them bit-exactly; `-3.0` comes back as Float, and
            // unsigned/signed integers keep their kinds.
            assert_eq!(parsed, v);
        }
    }
}
