//! The one JSON codec of the workspace, dependency-free: a
//! deterministic object writer ([`JsonObj`]) for the JSONL event sink
//! and metrics dumps, a small recursive-descent parser
//! ([`JsonValue`]), and the [`ToJson`]/[`FromJson`] trait pair (with
//! the [`json_struct!`](crate::json_struct) and
//! [`json_enum!`](crate::json_enum) helpers) that every persisted type
//! — store rows, profile records, trace files — serialises through.
//!
//! The writer emits keys in call order, floats via Rust's shortest
//! round-trip formatting, and maps non-finite floats to `null` — output
//! is byte-deterministic for identical inputs, so telemetry files diff
//! cleanly across runs and a value re-read from disk re-serialises to
//! the bytes it was read from.
//!
//! Wire shape of the derived impls: struct fields in declaration
//! order, unit enum variants as bare strings, data-carrying variants
//! externally tagged (`{"Variant":…}`), `Option` as `null`/value.
//! Unknown object members are ignored on read; a missing member reads
//! as `null` (so only `Option` fields may be absent). Numbers read
//! leniently: `2` and `2.0` are the same `f64`, and an integral float
//! is accepted where an integer is expected.

use std::collections::BTreeMap;

/// Escape a string into a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    s.write_json(&mut out);
    out
}

/// Format a float as a JSON number (`null` for NaN/±inf). `{}` prints
/// the shortest text that parses back to the same bits (integral
/// floats without a dot, which the parser reads back as the same
/// value).
pub fn fmt_f64(v: f64) -> String {
    let mut s = String::new();
    v.write_json(&mut s);
    s
}

/// Incremental JSON object writer with deterministic key order (the
/// order of the `field_*` calls).
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Start an object.
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&escape(k));
        self.buf.push(':');
    }

    /// String field.
    pub fn field_str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Unsigned integer field.
    pub fn field_u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Signed integer field.
    pub fn field_i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Float field (`null` when non-finite).
    pub fn field_f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Boolean field.
    pub fn field_bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Pre-serialised JSON (nested object/array) field.
    pub fn field_raw(mut self, k: &str, raw: &str) -> Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, kept exact (an
    /// `f64` would round a `u64` above 2⁵³).
    Int(i128),
    /// Any other number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object (key-sorted).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// As float, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As exact integer, if an integral number (`2.0` counts).
    fn as_i128(&self) -> Option<i128> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(64) => Some(*n as i128),
            _ => None,
        }
    }

    /// As unsigned integer, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|n| u64::try_from(n).ok())
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// As object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at offset {pos}", pos = *pos))
    }
}

/// Deepest nesting the parser follows. Persisted types nest under ten
/// levels; the cap keeps a hostile line from overflowing the stack.
const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| JsonValue::Null),
        Some(b't') => expect(b, pos, "true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(out));
            }
            loop {
                out.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut out = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                out.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        // Surrogate pairs are not needed for our own
                        // output (we never escape above U+001F).
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    // An integer token stays exact; `-0` is the float negative zero.
    if let Ok(n) = text.parse::<i128>() {
        if n != 0 || !text.starts_with('-') {
            return Ok(JsonValue::Int(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

/// Serialise a value to JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parse JSON text into a value.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::read_json(&JsonValue::parse(text)?)
}

/// A type with a deterministic JSON encoding.
pub trait ToJson {
    /// Append this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// A type that can be rebuilt from its [`ToJson`] encoding.
pub trait FromJson: Sized {
    /// Rebuild a value from a parsed document.
    fn read_json(v: &JsonValue) -> Result<Self, String>;
}

/// Read member `name` of object `v`; an absent member reads as `null`.
pub fn field<T: FromJson>(v: &JsonValue, name: &str) -> Result<T, String> {
    let members = v
        .as_obj()
        .ok_or_else(|| format!("expected an object with member {name:?}"))?;
    T::read_json(members.get(name).unwrap_or(&JsonValue::Null)).map_err(|e| format!("{name}: {e}"))
}

/// Split an enum encoding into its variant name and (for data-carrying
/// variants) its body.
pub fn variant(v: &JsonValue) -> Result<(&str, Option<&JsonValue>), String> {
    match v {
        JsonValue::Str(tag) => Ok((tag, None)),
        JsonValue::Obj(m) if m.len() == 1 => {
            let (tag, body) = m.iter().next().expect("one member");
            Ok((tag, Some(body)))
        }
        _ => Err("expected a variant name or a single-member object".into()),
    }
}

/// The body of data-carrying variant `tag`.
pub fn variant_body<'a>(body: Option<&'a JsonValue>, tag: &str) -> Result<&'a JsonValue, String> {
    body.ok_or_else(|| format!("variant {tag} needs a body"))
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn read_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        if self.is_finite() {
            write!(out, "{self}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }
}

impl FromJson for f64 {
    /// `null` is what a non-finite float was written as.
    fn read_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| "expected a number".into()),
        }
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                use std::fmt::Write;
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }

        impl FromJson for $t {
            fn read_json(v: &JsonValue) -> Result<Self, String> {
                v.as_i128()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| concat!("expected a ", stringify!($t)).into())
            }
        }
    )*};
}
json_int!(u8, u32, u64, usize);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn read_json(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".into())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            _ => T::read_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(v: &JsonValue) -> Result<Self, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(T::read_json)
            .collect()
    }
}

/// Implement [`ToJson`]/[`FromJson`] for a struct with named fields,
/// written as an object in the order listed (list them in declaration
/// order; leaving one out is a compile error).
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($f:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let Self { $($f),+ } = self;
                $crate::__json_members!(out, $($f),+);
            }
        }

        impl $crate::json::FromJson for $ty {
            fn read_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok(Self { $($f: $crate::json::field(v, stringify!($f))?),+ })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for an enum. Unit variants are
/// listed bare and written as their name; `Variant(x)` and
/// `Variant { a, b }` are written `{"Variant":…}`. Leaving a variant
/// out is a compile error.
#[macro_export]
macro_rules! json_enum {
    ($ty:ty { $($v:ident $(($n:ident))? $({ $($f:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                match self {$(
                    Self::$v $(($n))? $({ $($f),+ })? => {
                        $crate::__json_unit!(out, $v $(($n))? $({ $($f),+ })?);
                        $(
                            out.push_str(concat!("{\"", stringify!($v), "\":"));
                            $crate::json::ToJson::write_json($n, out);
                            out.push('}');
                        )?
                        $(
                            out.push_str(concat!("{\"", stringify!($v), "\":"));
                            $crate::__json_members!(out, $($f),+);
                            out.push('}');
                        )?
                    }
                )+}
            }
        }

        impl $crate::json::FromJson for $ty {
            fn read_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                let (tag, body) = $crate::json::variant(v)?;
                $(
                    if tag == stringify!($v) {
                        return Ok(Self::$v
                            $(({
                                let $n = $crate::json::variant_body(body, tag)?;
                                $crate::json::FromJson::read_json($n)?
                            }))?
                            $({$(
                                $f: $crate::json::field(
                                    $crate::json::variant_body(body, tag)?,
                                    stringify!($f),
                                )?
                            ),+})?
                        );
                    }
                )+
                let _ = body;
                Err(format!("unknown variant {tag:?}"))
            }
        }
    };
}

/// Write `{"a":…,"b":…}` from bindings named like the members.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_members {
    ($out:ident, $($f:ident),+) => {
        $out.push('{');
        $(
            $out.push_str(concat!("\"", stringify!($f), "\":"));
            $crate::json::ToJson::write_json($f, $out);
            $out.push(',');
        )+
        $out.pop();
        $out.push('}');
    };
}

/// Write a unit variant's name; nothing for a data-carrying one.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_unit {
    ($out:ident, $v:ident) => {
        $out.push_str(concat!("\"", stringify!($v), "\""));
    };
    ($out:ident, $v:ident $($data:tt)+) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_roundtrip() {
        let line = JsonObj::new()
            .field_str("msg", "torn \"row\"\nskipped")
            .field_u64("line", 42)
            .field_f64("secs", 1.5)
            .field_f64("nan", f64::NAN)
            .field_bool("ok", true)
            .field_raw("nested", "[1,2,3]")
            .finish();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(
            v.get("msg").unwrap().as_str(),
            Some("torn \"row\"\nskipped")
        );
        assert_eq!(v.get("line").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("secs").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("nested").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{}extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn integers_stay_exact_and_numbers_read_leniently() {
        let max = u64::MAX.to_string();
        assert_eq!(JsonValue::parse(&max).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(from_str::<u64>(&max), Ok(u64::MAX));
        assert_eq!(to_string(&u64::MAX), max);
        // `2`, `2.0` and `2e0` are the same number to every reader.
        for text in ["2", "2.0", "2e0"] {
            assert_eq!(from_str::<f64>(text), Ok(2.0));
            assert_eq!(from_str::<u32>(text), Ok(2));
        }
        assert!(from_str::<u32>("2.5").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for v in [
            0.1 + 0.2,
            1e-7,
            1e300,
            -0.0,
            2.0,
            f64::MIN_POSITIVE,
            123456.789e3,
        ] {
            let back: f64 = from_str(&to_string(&v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        id: u32,
        label: String,
        weight: Option<f64>,
        shape: Shape,
    }
    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u32),
        Box { w: u32, h: u32 },
    }
    crate::json_struct!(Probe {
        id,
        label,
        weight,
        shape
    });
    crate::json_enum!(Shape {
        Dot,
        Line(len),
        Box { w, h }
    });

    #[test]
    fn derived_impls_write_the_serde_shape_and_read_it_back() {
        let cases = [
            (Shape::Dot, r#""Dot""#),
            (Shape::Line(3), r#"{"Line":3}"#),
            (Shape::Box { w: 1, h: 2 }, r#"{"Box":{"w":1,"h":2}}"#),
        ];
        for (shape, text) in cases {
            assert_eq!(to_string(&shape), text);
            assert_eq!(from_str::<Shape>(text), Ok(shape));
        }
        let probe = Probe {
            id: 7,
            label: "a\"b".into(),
            weight: None,
            shape: Shape::Dot,
        };
        let text = to_string(&probe);
        assert_eq!(
            text,
            r#"{"id":7,"label":"a\"b","weight":null,"shape":"Dot"}"#
        );
        assert_eq!(from_str::<Probe>(&text).as_ref(), Ok(&probe));
        // Member order and unknown members do not matter; only an
        // `Option` member may be absent.
        let loose = r#"{"shape":"Dot","extra":[1],"label":"a\"b","id":7.0}"#;
        assert_eq!(from_str::<Probe>(loose), Ok(probe));
        let err = from_str::<Probe>(r#"{"id":7,"shape":"Dot"}"#).unwrap_err();
        assert!(err.starts_with("label:"), "{err}");
        assert!(from_str::<Shape>(r#""Line""#).is_err());
        assert!(from_str::<Shape>(r#"{"Oval":1}"#).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let deep = "[".repeat(10_000);
        assert!(JsonValue::parse(&deep).unwrap_err().contains("nested"));
        let ok = format!("{}{}", "[".repeat(32), "]".repeat(32));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn deterministic_output() {
        let mk = || {
            JsonObj::new()
                .field_str("a", "x")
                .field_u64("b", 1)
                .finish()
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk(), "{\"a\":\"x\",\"b\":1}");
    }
}
