//! A JSON value with a writer — enough for the result files — and, for the
//! tests, a parser to read them (and `BENCHMARK.json`) back.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Member `key` of an object.
    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders on one line. Numbers print with every digit they carry
    /// (shortest text that reads back to the same `f64`); a number that is
    /// not finite prints as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document. Only the tests read JSON back: the
    /// result-line round trip, and `BENCHMARK.json` against the tables here.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first thing that is not JSON.
    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_space();
        if p.at != p.bytes.len() {
            return Err(p.fail("trailing characters"));
        }
        Ok(value)
    }
}

fn render_str(s: &str, out: &mut String) {
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
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at).copied() {
            None => Err(self.fail("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.fail("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = match self.bytes.get(self.at).copied() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            hex
                        }
                        _ => return Err(self.fail("bad escape")),
                    };
                    self.at += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) => {
                    self.at += 1;
                    out.push(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values_and_every_digit() {
        let value = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1_000_000.0)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.25e-7)),
            (
                "name",
                Json::str("quote \" slash \\ newline \n tab \t bell \u{7} é"),
            ),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Num(-3.5), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj::<String>(vec![])),
        ]);
        let text = value.render();
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), value);
        assert!(text.contains("\"attempted\": 1000000,"), "{text}");
        assert!(text.contains("0.30000000000000004"), "{text}");
    }

    #[test]
    fn lookups() {
        let v = Json::parse(r#" {"a": {"b": [1, 2.5, "x"]}, "c": null} "#).unwrap();
        let b = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(b[1].as_f64(), Some(2.5));
        assert_eq!(b[2].as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
