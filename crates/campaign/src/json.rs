//! A minimal hand-rolled JSON value, parser and writer.
//!
//! The build environment is offline (no `serde`), and the campaign
//! report schema is small and stable, so the crate carries its own
//! ~200-line JSON kernel: integer-exact numbers (`i128` for counts, an
//! `f64` branch for rates), insertion-ordered objects (stable
//! serialisation), and byte-offset parse errors.

use crate::error::CampaignError;
use scdp_obs::write_json_string;
use std::fmt::Write as _;

/// A JSON value with insertion-ordered object members.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without decimal point or exponent).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object member.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert losslessly up to 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value compactly (no whitespace).
    #[must_use]
    pub fn write_compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `f` in Rust's shortest round-trip form, forcing a decimal
/// point so the value re-parses as [`Json::Float`].
///
/// JSON has no representation for non-finite numbers (`format!` would
/// produce `inf`/`NaN`, which no parser — including [`parse`] —
/// accepts), so non-finite input is a caller bug: it debug-asserts,
/// and in release builds degrades to `null` so the emitted document
/// still re-parses instead of poisoning every consumer downstream.
pub fn write_f64(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "non-finite {f} cannot be serialised as JSON");
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Maximum container nesting depth the parser accepts. The parser is
/// recursive-descent, so unbounded nesting in an untrusted checkpoint
/// file would overflow the stack; well-formed campaign reports nest
/// four levels deep, leaving enormous headroom.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`CampaignError::Parse`] with the byte offset of the first
/// offending character, or [`CampaignError::Schema`] (field `json`)
/// when containers nest deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, CampaignError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> CampaignError {
        CampaignError::Parse {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// Bumps the container nesting depth, rejecting documents that
    /// would exhaust the recursion stack.
    fn descend(&mut self) -> Result<(), CampaignError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(CampaignError::Schema {
                field: "json",
                message: format!("containers nest deeper than {MAX_DEPTH} levels"),
            });
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), CampaignError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, CampaignError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, CampaignError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, CampaignError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, CampaignError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CampaignError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote,
            // backslash or control byte as one slice: both ends sit on
            // ASCII bytes (or the end of input), so the run is whole
            // UTF-8 scalars.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            // `unicode_escape` consumes through the last
                            // hex digit itself (it may span two `\uXXXX`
                            // units for a surrogate pair).
                            s.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    s.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // RFC 8259: control characters must be escaped. Raw
                    // ones in untrusted input are rejected, not smuggled
                    // into a string that would not round-trip.
                    return Err(self.error("raw control character in string"));
                }
            }
        }
    }

    /// Decodes one `\uXXXX` escape with `self.pos` on the `u`,
    /// consuming through the final hex digit. UTF-16 surrogate pairs —
    /// the default output of every `ensure_ascii` JSON emitter for
    /// astral-plane characters — are combined into one scalar; lone or
    /// mismatched surrogates are typed parse errors.
    fn unicode_escape(&mut self) -> Result<char, CampaignError> {
        let hi = self.hex4()?;
        match hi {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.error("unpaired high surrogate in \\u escape"));
                }
                self.pos += 1; // now on the `u` of the low half
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.error("expected low surrogate after high surrogate"));
                }
                let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(scalar).ok_or_else(|| self.error("bad \\u escape"))
            }
            0xDC00..=0xDFFF => Err(self.error("lone low surrogate in \\u escape")),
            v => char::from_u32(v).ok_or_else(|| self.error("bad \\u escape")),
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape with `self.pos`
    /// on the `u`, leaving it past the last digit. Exactly four ASCII
    /// hex digits — `from_str_radix`'s tolerance for a leading `+` must
    /// not leak into the JSON grammar.
    fn hex4(&mut self) -> Result<u32, CampaignError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 5;
        Ok(digits)
    }

    fn number(&mut self) -> Result<Json, CampaignError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let overflow = |message: &str| CampaignError::Parse {
            offset: start,
            message: message.to_string(),
        };
        if float {
            let f = text
                .parse::<f64>()
                .map_err(|e| self.error(&format!("bad number: {e}")))?;
            // `1e999` parses to infinity, which `write_f64` could never
            // re-serialise as JSON — reject it here so parse/serialise
            // stays a fixpoint even on adversarial input.
            if !f.is_finite() {
                return Err(overflow("number overflows the f64 range"));
            }
            Ok(Json::Float(f))
        } else {
            text.parse::<i128>().map(Json::Int).map_err(|e| {
                // A digitless token (`-` alone) is a syntax error; with
                // digits present the only way i128 parsing fails is
                // overflow.
                if text.bytes().any(|b| b.is_ascii_digit()) {
                    overflow("integer overflows the i128 range")
                } else {
                    self.error(&format!("bad number: {e}"))
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.write_compact(), text, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\"y","d":[-1.25,true]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.write_compact(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn integers_stay_exact() {
        let big = (1u64 << 62) + 3;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn floats_force_a_decimal_point() {
        let mut s = String::new();
        write_f64(&mut s, 1.0);
        assert_eq!(s, "1.0");
        assert_eq!(parse("1.0").unwrap(), Json::Float(1.0));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // A 10k-deep array must come back as a typed error; before the
        // depth guard this overflowed the recursion stack and aborted
        // the process — fatal for a resumable campaign reading an
        // untrusted checkpoint file.
        let deep = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
        match parse(&deep) {
            Err(CampaignError::Schema {
                field: "json",
                message,
            }) => {
                assert!(message.contains("128"), "{message}");
            }
            other => panic!("expected depth error, got {other:?}"),
        }
        // Same guard for objects.
        let deep_obj = format!("{}1{}", "{\"k\":".repeat(10_000), "}".repeat(10_000));
        assert!(matches!(
            parse(&deep_obj),
            Err(CampaignError::Schema { field: "json", .. })
        ));
        // The limit is generous: a report-shaped document passes.
        let nested = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&nested).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // The default `ensure_ascii` encoding of U+1F600 (the grinning
        // emoji), e.g. Python's `json.dumps`.
        let v = parse(r#"{"a":"\ud83d\ude00"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("\u{1f600}"));
        // The escaped and raw spellings parse to the same value...
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            parse("\"\u{1f600}\"").unwrap()
        );
        // ...and the round trip lands on the raw spelling.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().write_compact(),
            format!("\"\u{1f600}\"")
        );
        // Boundary pairs of the astral range.
        assert_eq!(
            parse(r#""\ud800\udc00""#).unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            parse(r#""\udbff\udfff""#).unwrap().as_str(),
            Some("\u{10ffff}")
        );
        // Escaped BMP scalars (no pair) still decode as before.
        assert_eq!(
            parse(r#""\u0041\u00e9""#).unwrap().as_str(),
            Some("A\u{e9}")
        );
    }

    #[test]
    fn lone_and_mismatched_surrogates_are_typed_errors() {
        for text in [
            r#""\ud800""#,       // unpaired high at end of string
            r#""\ud800x""#,      // high followed by a plain char
            r#""\ud800\ud800""#, // high followed by another high
            r#""\udc00""#,       // lone low
            r#""\ude00\ud83d""#, // pair in the wrong order
            r#""\ud83d\ude0""#,  // truncated low half
            r#""\u+123""#,       // from_str_radix sign tolerance
            r#""\uDEFG""#,       // non-hex digits
        ] {
            assert!(
                matches!(parse(text), Err(CampaignError::Parse { .. })),
                "{text} must be a typed parse error, got {:?}",
                parse(text)
            );
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        assert!(matches!(
            parse("\"a\u{0}b\""),
            Err(CampaignError::Parse { .. })
        ));
        assert!(matches!(
            parse("\"a\nb\""),
            Err(CampaignError::Parse { .. })
        ));
        // Their escaped spellings stay valid and round-trip.
        let v = parse(r#""a\u0000b\nc\bd\fe""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{0}b\nc\u{8}d\u{c}e"));
        assert!(parse(&v.write_compact()).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected_at_parse_time() {
        // 1e308 is the largest finite decade and must stay accepted.
        assert_eq!(parse("1e308").unwrap(), Json::Float(1e308));
        assert_eq!(
            parse("-1.7976931348623157e308").unwrap(),
            Json::Float(f64::MIN)
        );
        for text in ["1e999", "-1e999", "1e99999", "[1e400]", "123e999999999"] {
            match parse(text) {
                Err(CampaignError::Parse { message, .. }) => {
                    assert!(message.contains("overflow"), "{text}: {message}");
                }
                other => panic!("{text}: expected overflow error, got {other:?}"),
            }
        }
        // Oversized integers overflow i128 with a typed error too.
        let huge = "9".repeat(50);
        assert!(matches!(parse(&huge), Err(CampaignError::Parse { .. })));
    }

    #[test]
    fn finite_floats_round_trip_and_non_finite_never_serialise_as_inf() {
        for f in [1e308, -1e308, 5e-324, 0.1, -2.5e17] {
            let mut s = String::new();
            write_f64(&mut s, f);
            assert_eq!(parse(&s).unwrap(), Json::Float(f), "{f}");
        }
        // Release-mode fallback: a non-finite value degrades to null,
        // which still re-parses (debug builds assert instead).
        if !cfg!(debug_assertions) {
            let mut s = String::new();
            write_f64(&mut s, f64::INFINITY);
            assert_eq!(parse(&s).unwrap(), Json::Null);
        }
    }

    /// Multi-byte scalars are copied in runs between escapes; each run
    /// must end exactly on the ASCII byte that stops it.
    #[test]
    fn multi_byte_runs_next_to_escapes_and_string_ends() {
        for (text, want) in [
            ("\"\u{e9}\"", "\u{e9}"),
            ("\"\u{20ac}\"", "\u{20ac}"),
            ("\"\u{1f600}\"", "\u{1f600}"),
            (
                "\"\u{e9}\\n\u{20ac}\\t\u{1f600}\"",
                "\u{e9}\n\u{20ac}\t\u{1f600}",
            ),
            (
                "\"\\\"\u{e9}\u{20ac}\u{1f600}\\\\\"",
                "\"\u{e9}\u{20ac}\u{1f600}\\",
            ),
            (
                "\"\\u00e9\u{e9}\\u20ac\u{20ac}\"",
                "\u{e9}\u{e9}\u{20ac}\u{20ac}",
            ),
            ("\"a\u{1f600}\\/\u{10ffff}\"", "a\u{1f600}/\u{10ffff}"),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_str(), Some(want), "{text}");
            assert_eq!(parse(&v.write_compact()).unwrap(), v, "{text}");
        }
        // Multi-byte keys and a scalar right before the closing quote
        // of a key.
        let v = parse("{\"k\u{e9}\u{1f600}\":\"\u{20ac}\"}").unwrap();
        assert_eq!(
            v.get("k\u{e9}\u{1f600}").and_then(Json::as_str),
            Some("\u{20ac}")
        );
    }

    /// A raw control byte is still reported at its own byte offset,
    /// after multi-byte runs and after escapes alike.
    #[test]
    fn raw_control_offsets_count_bytes() {
        for (text, offset) in [
            ("\"\u{1}\"", 1),
            ("\"\u{e9}\u{20ac}\u{1}x\"", 6),
            ("\"\u{1f600}\\n\u{1f}\"", 7),
            ("[\"ok\",\"\u{e9}\n\"]", 9),
        ] {
            match parse(text) {
                Err(CampaignError::Parse {
                    offset: at,
                    message,
                }) => {
                    assert_eq!(at, offset, "{text:?}");
                    assert!(message.contains("control"), "{message}");
                }
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
        // Unterminated strings still point at the end of input.
        match parse("\"\u{e9}\u{20ac}") {
            Err(CampaignError::Parse { offset, .. }) => assert_eq!(offset, 6),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_between_raw_scalars() {
        let v = parse("\"\u{1f600}\\ud83d\\ude00\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}\u{1f600}\u{e9}"));
    }

    /// A 256 KiB string parses to itself. Scanning the rest of the
    /// document once per character would be ~1e10 byte checks here.
    #[test]
    fn quarter_mebibyte_string_parses() {
        let unit = "ab\u{e9}\u{20ac}\u{1f600}"; // 11 bytes
        let body = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(body.len() >= 256 * 1024);
        let doc = format!("{{\"s\":\"{body}\",\"n\":1}}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(body.as_str()));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn errors_carry_offsets() {
        match parse("{\"k\": }") {
            Err(CampaignError::Parse { offset, .. }) => assert_eq!(offset, 6),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("[1,2").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
