//! A JSON emitter, just large enough for the benchmark's records. Kept here
//! so the benchmark does not depend on `rld-bench`'s `Json`, which a later
//! change may move or delete.

/// A JSON value. Objects keep insertion order, so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact rendering: no whitespace at all, so one value is one line and
    /// [`crate::suite`] can scan a child's record without a parser.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering with `": "` separators.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // JSON has no NaN or infinity; a non-finite measurement is null.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{}` prints the shortest digits that round-trip, never an
            // exponent, and a whole number without a fraction: all valid JSON.
            Json::Num(x) => out.push_str(&x.to_string()),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_against_hand_written_strings() {
        let value = Json::obj([
            ("a", Json::Int(3)),
            (
                "b",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("c", Json::obj([("d", Json::str("x"))])),
            ("e", Json::Arr(vec![])),
            ("f", Json::Obj(vec![])),
        ]);
        assert_eq!(
            value.render(),
            r#"{"a":3,"b":[1.5,null,true],"c":{"d":"x"},"e":[],"f":{}}"#
        );
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": 3,\n  \"b\": [\n    1.5,\n    null,\n    true\n  ],\n  \"c\": {\n    \"d\": \"x\"\n  },\n  \"e\": [],\n  \"f\": {}\n}\n"
        );
    }

    #[test]
    fn escapes_strings() {
        let input: String = ['q', '"', 'b', '\\', '\n', '\t', '\r', '\u{1}', '\u{e9}']
            .iter()
            .collect();
        assert_eq!(
            Json::str(input).render(),
            "\"q\\\"b\\\\\\n\\t\\r\\u0001\u{e9}\""
        );
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
        assert_eq!(Json::Num(1.2034).render(), "1.2034");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Int(u64::MAX).render(), "18446744073709551615");
    }
}
