//! The reader: [`Deserialize`] builds a value straight from JSON bytes
//! through the pull parser [`Deserializer`], with no intermediate tree.

use crate::value::{Map, Number, Value};
use crate::Error;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

/// Build `Self` straight from JSON bytes.
pub trait Deserialize: Sized {
    /// Read one value of this type.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent.
    fn missing_field(name: &'static str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{name}`")))
    }

    /// Build `Self` from a JSON object key: as a string first, then as a
    /// number (numeric map keys are written quoted).
    fn from_key(k: String) -> Result<Self, Error> {
        let mut quoted = String::with_capacity(k.len() + 2);
        crate::ser::write_str(&mut quoted, &k);
        Self::deserialize(&mut Deserializer::new(quoted.as_bytes()))
            .or_else(|e| Self::deserialize(&mut Deserializer::new(k.as_bytes())).map_err(|_| e))
    }
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 128;

/// A pull parser over JSON bytes. Strings are checked for UTF-8 as they
/// are read; everything else in JSON is ASCII by grammar.
pub struct Deserializer<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Deserializer<'a> {
    /// A parser at the start of `b`.
    pub fn new(b: &'a [u8]) -> Deserializer<'a> {
        Deserializer { b, i: 0, depth: 0 }
    }

    /// An error naming the current byte offset.
    pub fn err(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.i))
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.b.get(self.i) {
            self.i += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    /// Fail unless only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters")),
        }
    }

    fn expect(&mut self, c: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), Error> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Consume a `null` if one comes next.
    pub(crate) fn null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.eat("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Read `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.eat("true").map(|_| true),
            Some(b'f') => self.eat("false").map(|_| false),
            _ => Err(self.err("expected bool")),
        }
    }

    /// The text of the next number and whether it has a fraction or an
    /// exponent. The grammar is RFC 8259's: no leading zero, and at least
    /// one digit after a `.` and in an exponent.
    pub(crate) fn number(&mut self) -> Result<(&'a str, bool), Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected number"));
        }
        let start = self.i;
        if self.b[self.i] == b'-' {
            self.i += 1;
        }
        if self.b.get(self.i) == Some(&b'0') {
            // A leading zero is the whole integer part: a digit after it
            // is left over and fails whatever reads next.
            self.i += 1;
        } else if self.digits() == 0 {
            return Err(self.err("expected digit"));
        }
        let mut float = false;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digit"));
            }
        }
        if let Some(b'e' | b'E') = self.b.get(self.i) {
            self.i += 1;
            float = true;
            if let Some(b'+' | b'-') = self.b.get(self.i) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digit"));
            }
        }
        let b: &'a [u8] = self.b;
        let text = std::str::from_utf8(&b[start..self.i]).expect("ascii digits");
        Ok((text, float))
    }

    /// Consume a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while let Some(b'0'..=b'9') = self.b.get(self.i) {
            self.i += 1;
        }
        self.i - start
    }

    fn enter(&mut self, open: u8, what: &str) -> Result<(), Error> {
        self.expect(open, what)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Open an array; then call [`Self::next_element`] before each item.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.enter(b'[', "expected array")
    }

    /// True if another array item follows (consuming the `,`), false
    /// after consuming the closing `]`. `first` is true before the first.
    pub fn next_element(&mut self, first: bool) -> Result<bool, Error> {
        match self.peek() {
            Some(b']') => {
                self.i += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.i += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(self.err("expected , or ]")),
        }
    }

    /// Open an object; then call [`Self::next_key`] before each entry.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.enter(b'{', "expected object")
    }

    /// The next key (with its `:` consumed), or `None` after consuming the
    /// closing `}`. Borrowed from the input unless it has an escape.
    pub fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, Error> {
        match self.peek() {
            Some(b'}') => {
                self.i += 1;
                self.depth -= 1;
                return Ok(None);
            }
            Some(b',') if !first => self.i += 1,
            Some(b'"') if first => {}
            _ => return Err(self.err("expected , or }")),
        }
        let k = self.str()?;
        self.expect(b':', "expected :")?;
        Ok(Some(k))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let h = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("EOF in escape"))?;
        let h = std::str::from_utf8(h).map_err(|_| self.err("invalid escape"))?;
        let v = u32::from_str_radix(h, 16).map_err(|_| self.err("invalid escape"))?;
        self.i += 4;
        Ok(v)
    }

    /// Read a string: borrowed from the input when it has no escape,
    /// decoded into an owned `String` when it has one.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        // Every escape pushes a char, so `out` stays empty (and
        // unallocated) until the first one.
        let mut out = String::new();
        loop {
            let start = self.i;
            while let Some(&c) = self.b.get(self.i) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.i += 1;
            }
            let b: &'a [u8] = self.b;
            let run =
                std::str::from_utf8(&b[start..self.i]).map_err(|_| self.err("invalid UTF-8"))?;
            match self.b.get(self.i) {
                Some(b'"') if out.is_empty() => {
                    self.i += 1;
                    return Ok(Cow::Borrowed(run));
                }
                Some(b'"') => {
                    self.i += 1;
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.i += 1;
                    let esc = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| self.err("EOF in escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.b.get(self.i..self.i + 2) != Some(b"\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid surrogate pair"));
                                }
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            }
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("EOF while parsing a string")),
            }
        }
    }

    /// Parse the next value into a [`Value`] tree.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("EOF while parsing a value")),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => self.str().map(|s| Value::String(s.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut map = Map::new();
                let mut first = true;
                while let Some(k) = self.next_key(first)? {
                    first = false;
                    let v = self.value()?;
                    map.insert(k.into_owned(), v);
                }
                Ok(Value::Object(map))
            }
            Some(b'-' | b'0'..=b'9') => {
                let (text, float) = self.number()?;
                let n = if float {
                    text.parse::<f64>().ok().map(Number::Float)
                } else if let Ok(i) = text.parse::<i128>() {
                    Some(Number::Int(i))
                } else {
                    text.parse::<u128>().ok().map(Number::UInt)
                };
                n.map(Value::Number)
                    .ok_or_else(|| self.err("invalid number"))
            }
            Some(_) => Err(self.err("expected value")),
        }
    }

    /// Skip the next value without building it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.str().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.value().map(drop),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.value()
    }
    fn missing_field(_: &'static str) -> Result<Self, Error> {
        Ok(Value::Null)
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.bool()
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                match de.number()? {
                    (text, false) => text.parse::<$t>().ok(),
                    _ => None,
                }
                .ok_or_else(|| de.err(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Deserialize for f64 {
    /// `null` (how a non-finite float is written) reads back as NaN.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.null()? {
            return Ok(f64::NAN);
        }
        let (text, _) = de.number()?;
        text.parse::<f64>().map_err(|_| de.err("expected f64"))
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.str().map(Cow::into_owned)
    }
    fn from_key(k: String) -> Result<Self, Error> {
        Ok(k)
    }
}

impl Deserialize for () {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.skip_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(de).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.null()? {
            return Ok(None);
        }
        T::deserialize(de).map(Some)
    }
    fn missing_field(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn read_seq<T: Deserialize, C: Default + Extend<T>>(de: &mut Deserializer<'_>) -> Result<C, Error> {
    let mut out = C::default();
    de.begin_array()?;
    let mut first = true;
    while de.next_element(first)? {
        first = false;
        out.extend(Some(T::deserialize(de)?));
    }
    Ok(out)
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let items: Vec<T> = read_seq(de)?;
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of {N}")))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_seq(de)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_seq(de)
    }
}

macro_rules! tuple_impls {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.begin_array()?;
                let mut first = true;
                let v = ($({
                    if !de.next_element(std::mem::take(&mut first))? {
                        return Err(de.err("tuple too short"));
                    }
                    $t::deserialize(de)?
                },)+);
                if de.next_element(false)? {
                    return Err(de.err("tuple too long"));
                }
                Ok(v)
            }
        }
    )*};
}
tuple_impls! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

fn read_map<K: Deserialize, V: Deserialize, C: Default + Extend<(K, V)>>(
    de: &mut Deserializer<'_>,
) -> Result<C, Error> {
    let mut out = C::default();
    de.begin_object()?;
    let mut first = true;
    while let Some(k) = de.next_key(first)? {
        first = false;
        let k = K::from_key(k.into_owned())?;
        out.extend(Some((k, V::deserialize(de)?)));
    }
    Ok(out)
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_map(de)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_map(de)
    }
}
