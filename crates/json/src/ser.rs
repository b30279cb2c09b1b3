//! The writer: [`Serialize`] appends compact JSON to a `String`, and
//! [`prettify`] re-indents it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write;

/// Write `self` as compact JSON.
pub trait Serialize {
    /// Append the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// Append `s` as a JSON string literal.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append `f` the way `serde_json` (through `ryu`) prints it: the shortest
/// digits that read back to `f`, in plain decimal for magnitudes in
/// `[1e-5, 1e16)` and in scientific form (`1e16`, `1.5e-7`) outside; an
/// integral value keeps a `.0`. Rust's `{:?}` makes the same choice except
/// in `[1e-5, 1e-4)`, which it already prints in scientific form, so that
/// band goes through `{}` (plain decimal, shortest digits). NaN and the
/// infinities, which JSON lacks, become `null`.
pub(crate) fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if (1e-5..1e-4).contains(&f.abs()) {
        let _ = write!(out, "{f}");
    } else {
        let _ = write!(out, "{f:?}");
    }
}

/// Re-indent compact JSON the way `serde_json`'s pretty printer does (two
/// spaces, `": "` separators, empty containers kept inline).
pub(crate) fn prettify(compact: &str) -> String {
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let newline = |out: &mut String, indent: usize| {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        let c = compact[i..].chars().next().expect("in bounds");
        let len = c.len_utf8();
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            i += len;
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                let close = if c == '{' { b'}' } else { b']' };
                if bytes.get(i + 1) == Some(&close) {
                    out.push(c);
                    out.push(close as char);
                    i += 2;
                    continue;
                }
                out.push(c);
                indent += 1;
                newline(&mut out, indent);
            }
            '}' | ']' => {
                indent -= 1;
                newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(',');
                newline(&mut out, indent);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
        i += len;
    }
    out
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{}", self);
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out)
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                let mut first = true;
                out.push('[');
                $(
                    if !std::mem::take(&mut first) {
                        out.push(',');
                    }
                    self.$n.write_json(out);
                )+
                out.push(']');
            }
        }
    )*};
}
tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Map keys are written as JSON strings: string-like keys as they are,
/// numeric keys quoted (`serde_json`'s convention).
fn write_key<K: Serialize>(out: &mut String, k: &K) {
    let start = out.len();
    k.write_json(out);
    if !out[start..].starts_with('"') {
        out.insert(start, '"');
        out.push('"');
    }
}

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out)
    }
}
