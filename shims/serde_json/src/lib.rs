//! Offline stand-in for `serde_json`: renders and parses JSON text
//! through the serde shim's [`serde::Value`] tree. Integers round-trip
//! exactly (`u64`/`i64` stay integers; floats only when the text has a
//! fraction or exponent), matching what the workspace's wire-format
//! tests rely on.

use std::fmt;

use serde::{de::DeserializeOwned, Serialize, Value};

/// JSON (de)serialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Result alias matching real serde_json.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest representation that round-trips, and
        // always includes a `.` or exponent so it re-parses as a float.
        out.push_str(&format!("{:?}", x));
    } else {
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = serde::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_compact(&mut out, &v);
    Ok(out)
}

/// Serializes `value` to human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = serde::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_pretty(&mut out, &v, 0);
    Ok(out)
}

/// Serializes `value` into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde::to_value(value).map_err(|e| Error(e.to_string()))
}

/// Deserializes a `T` from a [`Value`] tree.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::from_value(value).map_err(|e| Error(e.to_string()))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{} at byte {}", msg, self.pos)))
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    self.err("invalid literal")
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    self.err("invalid literal")
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    self.err("invalid literal")
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar: its length is in the
                    // lead byte, so only those (at most four) bytes are
                    // looked at — never the rest of the input.
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| Error("invalid UTF-8".into()))?;
                    out.push_str(scalar);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
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
            .map_err(|_| Error("invalid number".into()))?;
        if text.is_empty() || text == "-" {
            return self.err("invalid number");
        }
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::I64)
                        .map_err(|_| Error(format!("integer out of range: {text}")));
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::U64(x));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| Error(format!("invalid number: {text}")))
    }
}

/// Parses JSON text into a `T`.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    serde::from_value(v).map_err(|e| Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(from_str::<String>("\"a\\\"b\\n\"").unwrap(), "a\"b\n");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u64, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);

        let o: Option<u64> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
    }

    #[test]
    fn big_u64_exact() {
        let x = u64::MAX;
        let s = to_string(&x).unwrap();
        assert_eq!(from_str::<u64>(&s).unwrap(), x);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u64], vec![2, 3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u64>>>(&s).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(from_str::<Vec<u64>>(" [ 1 , 2 ] ").unwrap(), vec![1, 2]);
    }

    /// One scalar of each UTF-8 width above ASCII.
    const WIDE: [char; 3] = ['é', '€', '😀'];

    #[test]
    fn multibyte_scalars_roundtrip_in_every_position() {
        let escapes = ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f", "\\u00e9"];
        let unescaped = ["\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}", "é"];
        for c in WIDE {
            // On its own, which is also "last before the closing quote".
            let alone = c.to_string();
            assert_eq!(from_str::<String>(&to_string(&alone).unwrap()).unwrap(), alone);
            assert_eq!(from_str::<String>(&format!("\"{c}\"")).unwrap(), alone);
            // Last character behind ASCII, and first in front of it.
            assert_eq!(from_str::<String>(&format!("\"ab{c}\"")).unwrap(), format!("ab{c}"));
            assert_eq!(from_str::<String>(&format!("\"{c}ab\"")).unwrap(), format!("{c}ab"));
            // On both sides of every escape.
            for (esc, plain) in escapes.iter().zip(unescaped) {
                let text = format!("\"{c}{esc}{c}\"");
                assert_eq!(from_str::<String>(&text).unwrap(), format!("{c}{plain}{c}"), "{text}");
            }
        }
        let all: String = WIDE.iter().collect();
        assert_eq!(from_str::<String>(&to_string(&all).unwrap()).unwrap(), all);
    }

    #[test]
    fn truncated_scalar_is_an_error_not_a_panic() {
        // `from_str` only ever sees valid UTF-8; the parser itself must
        // still refuse a scalar cut short by the end of its input.
        for c in WIDE {
            let mut bytes = vec![b'"'];
            bytes.extend_from_slice(&c.to_string().as_bytes()[..c.len_utf8() - 1]);
            let mut p = Parser { bytes: &bytes, pos: 0 };
            assert!(p.parse_string().is_err(), "{c}");
        }
        let mut p = Parser { bytes: b"\"\x80\"", pos: 0 };
        assert!(p.parse_string().is_err(), "a bare continuation byte");
    }

    /// About `bytes` bytes of short strings, each ending in a wide
    /// scalar: every character goes through `parse_string`.
    fn string_heavy(bytes: usize) -> (Vec<String>, String) {
        let doc: Vec<String> =
            (0..bytes / 19).map(|i| format!("rule-{i:08}-{}", WIDE[i % 3])).collect();
        let text = to_string(&doc).unwrap();
        (doc, text)
    }

    #[test]
    fn a_mebibyte_of_strings_parses_in_linear_time() {
        // Re-validating the rest of the input per character made this
        // quadratic: seconds for 1 MiB in release, minutes in a debug
        // build. Linear, it is milliseconds in either, so the bound
        // only has to tell the two apart on a loaded machine.
        let (doc, text) = string_heavy(1 << 20);
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        let t0 = std::time::Instant::now();
        let back = from_str::<Vec<String>>(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(back, doc);
        assert!(took < std::time::Duration::from_secs(3), "1 MiB took {took:?}");
    }
}
