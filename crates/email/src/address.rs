//! Email address model.
//!
//! Parsing supports the two forms seen in headers: bare `local@domain` and
//! display-name form `Name <local@domain>`. Domain extraction feeds SPF/DMARC
//! alignment checks and the pipeline's sender analysis.

use std::fmt;
use std::str::FromStr;

/// A structurally valid email address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmailAddress {
    display_name: Option<String>,
    local: String,
    domain: String,
}

/// Error returned when an address cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddressError {
    /// What was wrong, in human terms.
    pub reason: &'static str,
}

impl fmt::Display for ParseAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid email address: {}", self.reason)
    }
}

impl std::error::Error for ParseAddressError {}

fn valid_local(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'+' | b'='))
        && !s.starts_with('.')
        && !s.ends_with('.')
}

fn valid_domain(s: &str) -> bool {
    !s.is_empty()
        && s.contains('.')
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-')
        && !s.starts_with('.')
        && !s.ends_with('.')
        && !s.contains("..")
}

impl EmailAddress {
    /// Construct from validated parts.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAddressError`] if either part is structurally invalid.
    pub fn new(local: &str, domain: &str) -> Result<Self, ParseAddressError> {
        if !valid_local(local) {
            return Err(ParseAddressError {
                reason: "invalid local part",
            });
        }
        if !valid_domain(domain) {
            return Err(ParseAddressError {
                reason: "invalid domain",
            });
        }
        Ok(EmailAddress {
            display_name: None,
            local: local.to_string(),
            domain: domain.to_ascii_lowercase(),
        })
    }

    /// Attach a display name (`"Billing Dept" <x@y.example>`).
    pub fn with_display_name(mut self, name: &str) -> Self {
        self.display_name = Some(name.to_string());
        self
    }

    /// The part before `@`.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// The domain after `@`, lowercased.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The display name, if any.
    pub fn display_name(&self) -> Option<&str> {
        self.display_name.as_deref()
    }

    /// `local@domain` without any display name.
    pub fn bare(&self) -> String {
        format!("{}@{}", self.local, self.domain)
    }
}

impl FromStr for EmailAddress {
    type Err = ParseAddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        // Display-name form: anything '<' addr '>'
        let (name, addr) = match (s.find('<'), s.rfind('>')) {
            (Some(lt), Some(gt)) if lt < gt => {
                let name = s[..lt].trim().trim_matches('"').to_string();
                (
                    if name.is_empty() { None } else { Some(name) },
                    &s[lt + 1..gt],
                )
            }
            (None, None) => (None, s),
            _ => {
                return Err(ParseAddressError {
                    reason: "mismatched angle brackets",
                })
            }
        };
        let (local, domain) = addr.rsplit_once('@').ok_or(ParseAddressError {
            reason: "missing @",
        })?;
        let mut parsed = EmailAddress::new(local, domain)?;
        parsed.display_name = name;
        Ok(parsed)
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.display_name {
            Some(name) => write!(f, "\"{}\" <{}@{}>", name, self.local, self.domain),
            None => write!(f, "{}@{}", self.local, self.domain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_address() {
        let a: EmailAddress = "alice@corp.example".parse().unwrap();
        assert_eq!(a.local(), "alice");
        assert_eq!(a.domain(), "corp.example");
        assert_eq!(a.display_name(), None);
    }

    #[test]
    fn parses_display_name_form() {
        let a: EmailAddress = "\"Billing Dept\" <billing@partner.example>"
            .parse()
            .unwrap();
        assert_eq!(a.display_name(), Some("Billing Dept"));
        assert_eq!(a.bare(), "billing@partner.example");
    }

    #[test]
    fn domain_is_lowercased() {
        let a: EmailAddress = "x@CORP.Example".parse().unwrap();
        assert_eq!(a.domain(), "corp.example");
    }

    #[test]
    fn rejects_missing_at() {
        assert!("no-at-sign".parse::<EmailAddress>().is_err());
    }

    #[test]
    fn rejects_bad_domains() {
        for bad in ["x@", "x@nodot", "x@.leading", "x@trail.", "x@dou..ble"] {
            assert!(bad.parse::<EmailAddress>().is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_bad_local() {
        for bad in [
            "@y.example",
            ".x@y.example",
            "x.@y.example",
            "a b@y.example",
        ] {
            assert!(bad.parse::<EmailAddress>().is_err(), "{bad}");
        }
    }

    #[test]
    fn display_round_trips() {
        for s in ["a@b.example", "\"A Name\" <a@b.example>"] {
            let a: EmailAddress = s.parse().unwrap();
            let again: EmailAddress = a.to_string().parse().unwrap();
            assert_eq!(a, again);
        }
    }

    #[test]
    fn mismatched_brackets_rejected() {
        assert!("Name <x@y.example".parse::<EmailAddress>().is_err());
    }
}
