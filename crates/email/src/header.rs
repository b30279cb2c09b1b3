//! Message header block: parsing, folding/unfolding, ordered multi-map.
//!
//! Header field names are case-insensitive; values may be *folded* across
//! lines (continuation lines start with whitespace, RFC 5322 §2.2.3). The
//! paper's taxonomy notes "email header manipulation" as a stage-1 evasion
//! tactic, so the map preserves order and duplicates — exactly what arrived
//! on the wire.

use std::fmt;

/// An ordered, case-insensitive multi-map of header fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderMap {
    fields: Vec<(String, String)>,
}

/// Errors from parsing a header block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseHeaderError {
    /// A line had no `:` separator and was not a continuation.
    MissingColon {
        /// Zero-based line number of the offending line.
        line: usize,
    },
    /// A header field name contained an illegal character.
    InvalidFieldName {
        /// Zero-based line number of the offending line.
        line: usize,
        /// The illegal byte.
        byte: u8,
    },
    /// The first line of the block was a continuation line.
    LeadingContinuation,
}

impl fmt::Display for ParseHeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHeaderError::MissingColon { line } => {
                write!(f, "header line {line} has no colon")
            }
            ParseHeaderError::InvalidFieldName { line, byte } => {
                write!(f, "header line {line} has invalid name byte 0x{byte:02x}")
            }
            ParseHeaderError::LeadingContinuation => {
                write!(f, "header block starts with a continuation line")
            }
        }
    }
}

impl std::error::Error for ParseHeaderError {}

impl HeaderMap {
    /// An empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a header block (everything before the blank line separating
    /// headers from body). Folded lines are unfolded with a single space.
    ///
    /// Thin materializing wrapper over [`crate::view::HeaderIter`]: the
    /// borrowed iterator does the line walk and validation; this collects
    /// each field into owned strings.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHeaderError`] on malformed lines.
    pub fn parse(block: &str) -> Result<Self, ParseHeaderError> {
        let mut map = HeaderMap::new();
        for field in crate::view::HeaderIter::new(block) {
            let field = field?;
            map.fields
                .push((field.name().to_string(), field.value().into_owned()));
        }
        Ok(map)
    }

    /// Append a field, preserving insertion order.
    pub fn append(&mut self, name: &str, value: &str) {
        self.fields.push((name.to_string(), value.to_string()));
    }

    /// First value for `name` (case-insensitive), if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in order of appearance.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.fields
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// `true` if a field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` if the map holds no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate `(name, value)` pairs in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Serialize back to wire format with CRLF line endings, folding long
    /// values at 78 columns.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.fields {
            let line = format!("{name}: {value}");
            if line.len() <= 78 {
                out.push_str(&line);
                out.push_str("\r\n");
            } else {
                // naive folding on spaces
                let mut col = 0usize;
                for (i, word) in line.split(' ').enumerate() {
                    if i > 0 {
                        if col + 1 + word.len() > 78 {
                            out.push_str("\r\n ");
                            col = 1;
                        } else {
                            out.push(' ');
                            col += 1;
                        }
                    }
                    out.push_str(word);
                    col += word.len();
                }
                out.push_str("\r\n");
            }
        }
        out
    }
}

impl FromIterator<(String, String)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        HeaderMap {
            fields: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_block() {
        let h = HeaderMap::parse("From: a@x.example\r\nTo: b@y.example\r\nSubject: hi").unwrap();
        assert_eq!(h.get("from"), Some("a@x.example"));
        assert_eq!(h.get("SUBJECT"), Some("hi"));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn folded_value_unfolds() {
        let h = HeaderMap::parse("Subject: a very\r\n long subject\r\n\tfolded twice").unwrap();
        assert_eq!(h.get("Subject"), Some("a very long subject folded twice"));
    }

    #[test]
    fn duplicate_received_headers_kept_in_order() {
        let h = HeaderMap::parse("Received: hop2\r\nReceived: hop1").unwrap();
        let all: Vec<_> = h.get_all("Received").collect();
        assert_eq!(all, vec!["hop2", "hop1"]);
    }

    #[test]
    fn missing_colon_is_error() {
        assert_eq!(
            HeaderMap::parse("this is not a header"),
            Err(ParseHeaderError::MissingColon { line: 0 })
        );
    }

    #[test]
    fn leading_continuation_is_error() {
        assert_eq!(
            HeaderMap::parse(" folded from nothing"),
            Err(ParseHeaderError::LeadingContinuation)
        );
    }

    #[test]
    fn invalid_name_byte_is_error() {
        let err = HeaderMap::parse("Bad Name: value").unwrap_err();
        assert!(matches!(err, ParseHeaderError::InvalidFieldName { .. }));
    }

    #[test]
    fn wire_round_trip() {
        let mut h = HeaderMap::new();
        h.append("From", "a@x.example");
        h.append("Subject", "short");
        let reparsed = HeaderMap::parse(&h.to_wire()).unwrap();
        assert_eq!(h, reparsed);
    }

    #[test]
    fn long_header_folds_and_unfolds() {
        let mut h = HeaderMap::new();
        let long = "word ".repeat(40);
        h.append("X-Long", long.trim());
        let wire = h.to_wire();
        assert!(wire.split("\r\n").all(|l| l.len() <= 78));
        let reparsed = HeaderMap::parse(&wire).unwrap();
        assert_eq!(reparsed.get("X-Long"), Some(long.trim()));
    }

    #[test]
    fn lf_only_input_accepted() {
        let h = HeaderMap::parse("A: 1\nB: 2\n").unwrap();
        assert_eq!(h.get("B"), Some("2"));
    }

    #[test]
    fn name_with_trailing_space_before_colon_is_rejected() {
        // RFC 5322 §3.6.8: ftext excludes WSP, so `"Subject : x"` is a
        // malformed name, not a field named "Subject " or "Subject".
        assert_eq!(
            HeaderMap::parse("Subject : trailing space"),
            Err(ParseHeaderError::InvalidFieldName {
                line: 0,
                byte: b' '
            })
        );
    }

    #[test]
    fn name_with_trailing_tab_before_colon_is_rejected() {
        assert_eq!(
            HeaderMap::parse("From: a@x.example\r\nSubject\t: tabbed"),
            Err(ParseHeaderError::InvalidFieldName {
                line: 1,
                byte: b'\t'
            })
        );
    }
}
