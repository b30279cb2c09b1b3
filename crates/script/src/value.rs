//! MJS runtime values.

use std::fmt;

/// A runtime value. `Ref` names a host object (e.g. `"navigator"`, or an
//  anonymous handle minted by a host method); all property/method semantics
/// on refs are delegated to the [`crate::Host`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` / `undefined`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (f64, like JS).
    Num(f64),
    /// String.
    Str(String),
    /// Handle to a host object.
    Ref(String),
}

impl Value {
    /// JS-style truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Ref(_) => true,
        }
    }

    /// Coerce to a display string (JS `String(x)` semantics, simplified).
    pub fn as_str(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Ref(tag) => format!("[object {tag}]"),
        }
    }

    /// Numeric coercion; `None` when not meaningfully numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Loose equality (`==`), close enough to JS for cloaking scripts:
    /// same-type compares directly; numbers and numeric strings compare
    /// numerically; null only equals null.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Ref(a), Value::Ref(b)) => a == b,
            (Value::Num(_), Value::Str(_)) | (Value::Str(_), Value::Num(_)) => {
                match (self.as_num(), other.as_num()) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                }
            }
            (Value::Bool(_), _) | (_, Value::Bool(_)) => match (self.as_num(), other.as_num()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Num(-1.0).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(Value::Ref("navigator".into()).truthy());
    }

    #[test]
    fn string_coercion() {
        assert_eq!(Value::Num(42.0).as_str(), "42");
        assert_eq!(Value::Num(2.5).as_str(), "2.5");
        assert_eq!(Value::Bool(true).as_str(), "true");
        assert_eq!(Value::Null.as_str(), "null");
        assert_eq!(Value::Ref("console".into()).as_str(), "[object console]");
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Str(" 12 ".into()).as_num(), Some(12.0));
        assert_eq!(Value::Bool(true).as_num(), Some(1.0));
        assert_eq!(Value::Null.as_num(), None);
        assert_eq!(Value::Str("abc".into()).as_num(), None);
    }

    #[test]
    fn loose_equality() {
        assert!(Value::Num(5.0).loose_eq(&Value::Str("5".into())));
        assert!(Value::Bool(true).loose_eq(&Value::Num(1.0)));
        assert!(!Value::Null.loose_eq(&Value::Num(0.0)));
        assert!(Value::Null.loose_eq(&Value::Null));
        assert!(!Value::Str("a".into()).loose_eq(&Value::Str("b".into())));
    }
}
