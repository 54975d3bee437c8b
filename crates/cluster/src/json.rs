//! The one place this repo decides how JSON is written and read.
//!
//! Three artifacts carry the paper's numbers as JSON — the campaign report
//! (`BENCH_campaign.json`), its `--trace-out` JSONL and the drills'
//! Perfetto trace — and each is a byte-for-byte oracle. Their renderers
//! keep only their own layout templates: every free-text string goes
//! through [`str()`] and every float through [`fixed`]. Both return
//! `impl Display`, so a template formats them in place without allocating.
//!
//! The reader is a minimal structural parser (the workspace is
//! dependency-free, so it stands in for serde) behind
//! [`validate_trace_json`](crate::validate_trace_json). It accepts exactly
//! the RFC 8259 grammar: no leading `+`, `0` or `.` on a number, no raw
//! control character inside a string, and four hex digits after `\u`.

use std::fmt::{self, Display, Write as _};

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped (`\n` by name, the rest as `\u00XX`).
pub fn str(s: &str) -> impl Display + '_ {
    fmt::from_fn(move |f| {
        f.write_char('"')?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    })
}

/// `v` with exactly `precision` decimals — the deterministic float rule.
///
/// Prints `v + 0.0`, so a sum that cancels to `-0.0` renders as `0.000…`
/// rather than `-0.000…`, a byte difference with no change in value. A
/// non-finite `v` has no JSON number and prints `null`.
pub fn fixed(v: f64, precision: usize) -> impl Display {
    fmt::from_fn(move |f| {
        if v.is_finite() {
            write!(f, "{:.*}", precision, v + 0.0)
        } else {
            f.write_str("null")
        }
    })
}

/// A parsed JSON value. Scalars the validators never inspect keep no
/// payload.
pub(crate) enum Value {
    Null,
    Bool,
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Parses one complete JSON document; anything but whitespace after the
/// value is an error.
pub(crate) fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let doc = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(doc)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b't' => self.parse_lit("true", Value::Bool),
            b'f' => self.parse_lit("false", Value::Bool),
            b'n' => self.parse_lit("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| is_json_number(s))
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| {
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                                })
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                b if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos - 1))
                }
                _ => out.push(b as char),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — the JSON
/// number grammar. `f64::from_str` also takes a leading `+`, `.5`, `1.`
/// and `01`, which JSON does not.
fn is_json_number(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let (mantissa, exp) = s.split_once(['e', 'E']).unwrap_or((s, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    digits(int) && (int == "0" || !int.starts_with('0')) && digits(frac) && digits(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_prints_negative_zero_as_zero_and_non_finite_as_null() {
        assert_eq!(fixed(-0.0, 3).to_string(), "0.000");
        assert_eq!(fixed(0.0012345, 6).to_string(), "0.001234");
        assert_eq!(fixed(-1.5, 1).to_string(), "-1.5");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fixed(v, 6).to_string(), "null");
        }
    }

    #[test]
    fn str_escapes_what_json_requires() {
        assert_eq!(str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(str("\t\u{1}").to_string(), "\"\\u0009\\u0001\"");
        let text = format!("{{\"k\": {}}}", str("tab\there \u{1f} é"));
        assert!(parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn the_reader_takes_exactly_the_json_grammar() {
        let accepted = [
            "0",
            "-0",
            "1",
            "-12",
            "0.5",
            "-0.125",
            "1e9",
            "1E+9",
            "2.5e-3",
            "\"\"",
            "\"a\\u00e9\\/\"",
            "[]",
            "{}",
            " [1, {\"a\": null}] ",
            "true",
            "false",
        ];
        for text in accepted {
            assert!(parse(text).is_ok(), "{text:?} is JSON");
        }
        let rejected = [
            "-",
            "1e",
            "1e+",
            "--1",
            "0x1",
            "1.5.2",
            "\"\\u00g0\"",
            "\"\\u12\"",
            "\"\\x\"",
            "\"\u{1f}\"",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "",
        ];
        for text in rejected {
            assert!(parse(text).is_err(), "{text:?} is not JSON");
        }
    }
}
