//! Minimal JSON emission helpers.
//!
//! The exporters hand-roll their JSON so that byte layout is fully under
//! this crate's control (the determinism contract is *byte* identity, so
//! the serializer's formatting choices are part of the contract). Only
//! emission is needed here — consumers parse with a real JSON parser.

use std::fmt::Write;

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
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

/// Append `[["k","v"],...]` for a field list.
pub fn push_field_array(out: &mut String, fields: &[(&'static str, String)]) {
    out.push('[');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_str_literal(out, k);
        out.push(',');
        push_str_literal(out, v);
        out.push(']');
    }
    out.push(']');
}

/// Append `{"k":"v",...}` merging one or more field lists (Chrome `args`
/// objects).
pub fn push_field_object(out: &mut String, groups: &[&[(&'static str, String)]]) {
    out.push('{');
    let mut first = true;
    for fields in groups {
        for (k, v) in fields.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            push_str_literal(out, k);
            out.push(':');
            push_str_literal(out, v);
        }
    }
    out.push('}');
}

/// Append a JSON array of integers.
pub fn push_int_array<I: IntoIterator<Item = i64>>(out: &mut String, values: I) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_literals_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn field_array_and_object_shapes() {
        let fields = vec![
            ("url", "http://x/?a=1".to_string()),
            ("kind", "dns".to_string()),
        ];
        let mut arr = String::new();
        push_field_array(&mut arr, &fields);
        assert_eq!(arr, r#"[["url","http://x/?a=1"],["kind","dns"]]"#);

        let extra = vec![("worker", "3".to_string())];
        let mut obj = String::new();
        push_field_object(&mut obj, &[&fields, &extra]);
        assert_eq!(obj, r#"{"url":"http://x/?a=1","kind":"dns","worker":"3"}"#);

        let mut ints = String::new();
        push_int_array(&mut ints, [1i64, -2, 30]);
        assert_eq!(ints, "[1,-2,30]");
    }
}
