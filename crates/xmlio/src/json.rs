//! A minimal JSON parser and writer.
//!
//! Used by the JSON-lines schedule format (`jsonl`) and by the CLI's stats
//! output. Supports the full JSON grammar except that numbers are always
//! represented as `f64`. Arrays and objects nest at most
//! [`xml::MAX_DEPTH`](crate::xml::MAX_DEPTH) levels deep, the XML
//! readers' cap, so a hostile document is a positioned error, never a
//! stack overflow.

use crate::error::{IoError, Pos};
use crate::xml::MAX_DEPTH;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Serializes compactly.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

/// Convenience: builds an object from pairs.
pub fn obj<I, S>(pairs: I) -> Json
where
    I: IntoIterator<Item = (S, Json)>,
    S: Into<String>,
{
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Parses a JSON document.
pub fn parse(src: &str) -> Result<Json, IoError> {
    let mut p = P {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i < p.b.len() {
        return Err(IoError::xml("trailing JSON content", p.pos()));
    }
    Ok(v)
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> P<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, IoError> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            for _ in 0..s.len() {
                self.bump();
            }
            Ok(v)
        } else {
            Err(IoError::xml(format!("expected {s}"), self.pos()))
        }
    }

    fn value(&mut self) -> Result<Json, IoError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(IoError::xml(
                        format!("JSON nested deeper than {MAX_DEPTH} levels"),
                        self.pos(),
                    ));
                }
                self.depth += 1;
                let v = if c == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(IoError::xml("expected a JSON value", self.pos())),
        }
    }

    fn array(&mut self) -> Result<Json, IoError> {
        self.bump(); // [
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(out)),
                _ => return Err(IoError::xml("expected ',' or ']'", self.pos())),
            }
        }
    }

    fn object(&mut self) -> Result<Json, IoError> {
        self.bump(); // {
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return Err(IoError::xml("expected object key string", self.pos()));
            }
            let k = self.string()?;
            self.ws();
            if self.bump() != Some(b':') {
                return Err(IoError::xml("expected ':'", self.pos()));
            }
            self.ws();
            let v = self.value()?;
            out.insert(k, v);
            self.ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(out)),
                _ => return Err(IoError::xml("expected ',' or '}'", self.pos())),
            }
        }
    }

    fn string(&mut self) -> Result<String, IoError> {
        let at = self.pos();
        self.bump(); // "
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(IoError::xml("unterminated string", at)),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| (c as char).to_digit(16))
                                .ok_or_else(|| IoError::xml("bad \\u escape", at))?;
                            v = v * 16 + d;
                        }
                        // Surrogate pairs.
                        if (0xd800..0xdc00).contains(&v) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(IoError::xml("lone high surrogate", at));
                            }
                            let mut lo = 0u32;
                            for _ in 0..4 {
                                let d = self
                                    .bump()
                                    .and_then(|c| (c as char).to_digit(16))
                                    .ok_or_else(|| IoError::xml("bad \\u escape", at))?;
                                lo = lo * 16 + d;
                            }
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(IoError::xml("invalid low surrogate", at));
                            }
                            v = 0x10000 + ((v - 0xd800) << 10) + (lo - 0xdc00);
                        }
                        out.push(
                            char::from_u32(v)
                                .ok_or_else(|| IoError::xml("invalid code point", at))?,
                        );
                    }
                    _ => return Err(IoError::xml("bad escape", at)),
                },
                Some(c) if c < 0x20 => {
                    return Err(IoError::xml("raw control character in string", at))
                }
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let len = if c >= 0xf0 {
                            4
                        } else if c >= 0xe0 {
                            3
                        } else {
                            2
                        };
                        let start = self.i - 1;
                        for _ in 1..len {
                            self.bump();
                        }
                        let s = std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| IoError::xml("invalid UTF-8", at))?;
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, IoError> {
        let at = self.pos();
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
        txt.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| IoError::xml(format!("bad number {txt:?}"), at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("d"));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\nb\t\"c\"A😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"c\"A😀");
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse("\"héllo wörld ✓\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo wörld ✓");
    }

    #[test]
    fn roundtrip() {
        let src = r#"{"arr":[1,2.5,"x"],"nested":{"t":true},"z":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{a:1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        // The error points at the bracket that opens level MAX_DEPTH + 1.
        let col = MAX_DEPTH as u32 + 1;
        for (deep, col) in [
            (nested(MAX_DEPTH + 1), col),
            (format!("{{\"k\":{}}}", nested(MAX_DEPTH)), col + 4),
        ] {
            match parse(&deep) {
                Err(IoError::Xml { msg, pos }) => {
                    assert!(msg.contains("nested deeper"), "{msg}");
                    assert_eq!((pos.line, pos.col), (1, col));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn obj_builder() {
        let v = obj([("x", Json::Num(1.0)), ("y", Json::Str("s".into()))]);
        assert_eq!(v.to_string_compact(), r#"{"x":1,"y":"s"}"#);
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }
}
