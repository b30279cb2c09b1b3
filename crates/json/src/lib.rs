//! JSON for the CrawlerBox reproduction: crawl logs, store records,
//! telemetry exports and the daemon's wire format.
//!
//! Types derive [`Serialize`] (compact JSON straight into a `String`) and
//! [`Deserialize`] (built straight from bytes through the pull parser
//! [`Deserializer`], with no intermediate tree). The shapes, the float
//! layout and the pretty printer are `serde_json`'s, so files written by
//! either read the same; the derives honour serde's `#[serde(skip)]`,
//! `#[serde(default)]` and `#[serde(default = "path")]` spellings.
//! [`Value`] is the dynamic tree for ad-hoc documents, built with [`json!`].
//!
//! # Example
//!
//! ```
//! use cb_json::{json, Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, Debug, PartialEq)]
//! struct Visit {
//!     url: String,
//!     status: u16,
//!     #[serde(default)]
//!     retries: u32,
//! }
//!
//! let v: Visit = cb_json::from_str(r#"{"url":"https://x.example/","status":200}"#).unwrap();
//! assert_eq!(v.retries, 0);
//! assert_eq!(cb_json::to_string(&v).unwrap(), r#"{"url":"https://x.example/","status":200,"retries":0}"#);
//! assert_eq!(json!({ "status": v.status })["status"], 200);
//! ```

// The derives name `::cb_json`, which must also resolve inside this crate.
extern crate self as cb_json;

mod de;
mod ser;
mod value;

pub use cb_json_derive::{Deserialize, Serialize};
pub use de::{Deserialize, Deserializer};
pub use ser::Serialize;
pub use value::{Index, Map, Number, Value};

use std::fmt;
use std::io;

/// A serialization or parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error carrying `msg`.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Indented JSON text: two spaces, `": "` separators.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(ser::prettify(&to_string(value)?))
}

/// Indented JSON bytes.
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

/// Write compact JSON to `writer`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(Error::custom)
}

/// The [`Value`] tree of `value` (by value or by reference).
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    from_str(&to_string(&value)?)
}

/// Build `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    from_str(&to_string(&value)?)
}

/// Parse `T` from JSON text; only whitespace may follow it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Parse `T` from JSON bytes; only whitespace may follow it.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut de = Deserializer::new(bytes);
    let v = T::deserialize(&mut de)?;
    de.end()?;
    Ok(v)
}

#[doc(hidden)]
pub fn __to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    to_value(value).expect("serializable value")
}

/// Build a [`Value`] from JSON-like syntax. Object keys are string
/// literals; values are nested `{..}` or `[..]`, `null`, or any
/// expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __map = $crate::Map::new();
        $crate::__json_object!(__map; $($tt)+);
        $crate::Value::Object(__map)
    }};
    ([ $($e:expr),* $(,)? ]) => { $crate::Value::Array(vec![$($crate::json!($e)),*]) };
    ($e:expr) => { $crate::__to_value(&$e) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($m:ident;) => {};
    ($m:ident; $k:literal : null $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::Value::Null);
        $crate::__json_object!($m; $($($rest)*)?);
    };
    ($m:ident; $k:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!({ $($v)* }));
        $crate::__json_object!($m; $($($rest)*)?);
    };
    ($m:ident; $k:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!([ $($v)* ]));
        $crate::__json_object!($m; $($($rest)*)?);
    };
    ($m:ident; $k:literal : $v:expr $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!($v));
        $crate::__json_object!($m; $($($rest)*)?);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn f(x: f64) -> String {
        to_string(&x).unwrap()
    }

    #[test]
    fn floats_print_as_serde_json_prints_them() {
        // ryu's layout: plain decimal from 1e-5 up to 1e16, scientific
        // outside, shortest round-trip digits, `.0` on integral values.
        assert_eq!(f(0.00005), "0.00005");
        assert_eq!(f(1e-5), "0.00001");
        assert_eq!(f(-0.00005), "-0.00005");
        assert_eq!(f(9.99e-5), "0.0000999");
        assert_eq!(f(0.0001), "0.0001");
        assert_eq!(f(9e-6), "9e-6");
        assert_eq!(f(1e16), "1e16");
        assert_eq!(f(1e15), "1000000000000000.0");
        assert_eq!(f(1.5e-7), "1.5e-7");
        assert_eq!(f(0.1), "0.1");
        assert_eq!(f(1.0), "1.0");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(1.7976931348623157e308), "1.7976931348623157e308");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
        assert_eq!(f(f64::NEG_INFINITY), "null");
        for x in [0.00005, 1e-5, 1e16, 1.5e-7, 0.1, 1.0, 12345.678] {
            assert_eq!(from_str::<f64>(&f(x)).unwrap(), x);
        }
    }

    #[test]
    fn strings_escape_as_json() {
        assert_eq!(
            to_string("a\"b\\c\n\u{1}\u{e9}").unwrap(),
            r#""a\"b\\c\n\u0001é""#
        );
        assert_eq!(from_str::<String>(r#""😀\/""#).unwrap(), "\u{1f600}/");
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00""#).unwrap(),
            "\u{1f600}"
        );
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
    }

    #[test]
    fn strings_borrow_from_the_input_unless_escaped() {
        use std::borrow::Cow;
        let mut de = Deserializer::new(br#"{"plain":"a b","k\u00e9":"x\ny","t":"end\t"}"#);
        de.begin_object().unwrap();
        assert!(matches!(
            de.next_key(true).unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        assert!(matches!(de.str().unwrap(), Cow::Borrowed("a b")));
        assert!(matches!(de.next_key(false).unwrap(), Some(Cow::Owned(k)) if k == "k\u{e9}"));
        assert!(matches!(de.str().unwrap(), Cow::Owned(s) if s == "x\ny"));
        assert!(matches!(
            de.next_key(false).unwrap(),
            Some(Cow::Borrowed("t"))
        ));
        assert!(matches!(de.str().unwrap(), Cow::Owned(s) if s == "end\t"));
        assert!(de.next_key(false).unwrap().is_none());
        de.end().unwrap();
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for bad in [
            "02048", "00", "-01", "1.", "-.5", "1.e5", "1e", "1e+", "-", "+1", ".5",
        ] {
            assert!(from_str::<u64>(bad).is_err(), "{bad} as u64");
            assert!(from_str::<i64>(bad).is_err(), "{bad} as i64");
            assert!(from_str::<f64>(bad).is_err(), "{bad} as f64");
            assert!(from_str::<Value>(bad).is_err(), "{bad} as Value");
            assert!(from_str::<()>(bad).is_err(), "{bad} skipped");
            assert!(
                from_str::<Vec<Value>>(&format!("[{bad}]")).is_err(),
                "[{bad}]"
            );
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("2048", 2048.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.0005),
            ("1E+2", 100.0),
            ("10e0", 10.0),
        ] {
            assert_eq!(from_str::<f64>(good).unwrap(), want, "{good}");
            assert!(from_str::<()>(good).is_ok(), "{good} skipped");
        }
        assert_eq!(from_str::<u64>("2048").unwrap(), 2048);
        assert_eq!(from_str::<i64>("-0").unwrap(), 0);
        assert_eq!(from_str::<Value>("-10").unwrap(), -10);
    }

    #[test]
    fn values_index_compare_and_pretty_print() {
        let mut v = json!({ "a": [1, "x"], "b": { "c": null }, "d": true, "e": 2.5 });
        assert_eq!(v["a"][1], "x");
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["d"], true);
        assert_eq!(v["e"], json!(2.5));
        assert_eq!(v["missing"]["deeper"], Value::Null);
        v.as_object_mut().unwrap().insert("f".into(), json!([]));
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    \"x\"\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \
             \"d\": true,\n  \"e\": 2.5,\n  \"f\": []\n}"
        );
        assert_eq!(from_str::<Value>(&v.to_string()).unwrap(), v);
        assert_eq!(to_value(v.clone()).unwrap(), v);
    }

    fn three() -> u32 {
        3
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Default)]
    struct Inner(u8, String);

    #[derive(Serialize, Deserialize, Debug, PartialEq, Default)]
    struct Wrapper(u128);

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum Kind {
        Plain,
        Wrapped(f64),
        Pair(i32, bool),
        Named { id: u64, tags: Vec<String> },
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Outer {
        name: String,
        kinds: Vec<Kind>,
        by_id: BTreeMap<u32, Inner>,
        counts: HashMap<String, i64>,
        maybe: Option<Inner>,
        big: Wrapper,
        #[serde(default)]
        absent: Vec<u8>,
        #[serde(default = "three")]
        limit: u32,
        #[serde(skip)]
        cache: Option<u8>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    #[serde(default)]
    struct Defaults {
        a: u32,
        b: String,
    }

    impl Default for Defaults {
        fn default() -> Self {
            Defaults {
                a: 7,
                b: "b".into(),
            }
        }
    }

    #[test]
    fn derived_types_round_trip_through_bytes() {
        let v = Outer {
            name: "a \"q\" \u{e9} \n".into(),
            kinds: vec![
                Kind::Plain,
                Kind::Wrapped(-1.5e-3),
                Kind::Pair(-7, true),
                Kind::Named {
                    id: u64::MAX,
                    tags: vec!["x".into()],
                },
            ],
            by_id: [(7, Inner(1, "one".into()))].into_iter().collect(),
            counts: [("k".to_string(), -2)].into_iter().collect(),
            maybe: Some(Inner(2, String::new())),
            big: Wrapper(u128::MAX),
            absent: vec![1],
            limit: 9,
            cache: None,
        };
        let text = to_string(&v).unwrap();
        assert_eq!(
            text,
            concat!(
                r#"{"name":"a \"q\" é \n","kinds":["Plain",{"Wrapped":-0.0015},"#,
                r#"{"Pair":[-7,true]},{"Named":{"id":18446744073709551615,"tags":["x"]}}],"#,
                r#""by_id":{"7":[1,"one"]},"counts":{"k":-2},"maybe":[2,""],"#,
                r#""big":340282366920938463463374607431768211455,"absent":[1],"limit":9}"#
            )
        );
        assert_eq!(from_str::<Outer>(&text).unwrap(), v);
        assert_eq!(from_value::<Outer>(to_value(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn missing_and_unknown_keys() {
        let text = r#"{"extra":{"deep":[1,{"x":null}]},"name":"n","kinds":["Plain"],
            "by_id":{},"counts":{},"big":0,"cache":5}"#;
        let v: Outer = from_slice(text.as_bytes()).unwrap();
        assert_eq!(
            (v.maybe, v.absent, v.limit, v.cache),
            (None, vec![], 3, None)
        );
        assert!(from_str::<Outer>(r#"{"name":"n"}"#).is_err());
        let twice = text.replacen(r#""name":"n""#, r#""name":"n","name":"m""#, 1);
        assert!(from_str::<Outer>(&twice)
            .unwrap_err()
            .to_string()
            .contains("duplicate field `name`"));
        assert!(from_str::<Inner>(r#"[1,"a"] x"#).is_err());
        assert!(from_str::<Inner>(r#"[1,"a",2]"#).is_err());
        assert!(from_str::<Kind>(r#""Other""#).is_err());
        assert_eq!(
            from_str::<Defaults>(r#"{"a":1}"#).unwrap(),
            Defaults {
                a: 1,
                b: "b".into()
            }
        );
    }
}
