//! URLs and domain names.
//!
//! [`Url`] carries what the pipeline analyzes: scheme, host, path, query —
//! and the path *token* that tokenized phishing URLs key on
//! (`https://evil-site.com/dhfYWfH`, §III-B). [`DomainName`] adds the
//! registrable-domain and TLD splits Table II is built from.

use cb_json::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A parsed absolute http(s) URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Lowercased host.
    pub host: String,
    /// Path beginning with `/` (never empty).
    pub path: String,
    /// Query string without the leading `?` (empty when absent).
    pub query: String,
}

/// Failure to parse a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUrlError {
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid url: {}", self.reason)
    }
}

impl std::error::Error for ParseUrlError {}

impl Url {
    /// Parse an absolute URL.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError`] for non-http(s) schemes or empty hosts.
    pub fn parse(s: &str) -> Result<Url, ParseUrlError> {
        let (scheme, rest) = s.split_once("://").ok_or(ParseUrlError {
            reason: "missing scheme",
        })?;
        if scheme != "http" && scheme != "https" {
            return Err(ParseUrlError {
                reason: "unsupported scheme",
            });
        }
        // The host ends at the first '/', '?' or '#': "https://h?a=1" is a
        // query on the implicit "/" path, not part of the host.
        let (host_part, suffix) = match rest.find(['/', '?', '#']) {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        if host_part.is_empty() {
            return Err(ParseUrlError {
                reason: "empty host",
            });
        }
        let path_query = if suffix.starts_with('/') {
            suffix.to_string()
        } else {
            format!("/{suffix}")
        };
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path_query, String::new()),
        };
        Ok(Url {
            scheme: scheme.to_string(),
            host: host_part.to_ascii_lowercase(),
            path,
            query,
        })
    }

    /// The host as a [`DomainName`].
    pub fn domain(&self) -> DomainName {
        DomainName::new(&self.host)
    }

    /// The first path segment when it looks like an access token: a single
    /// segment of 6+ alphanumeric characters with no file extension. This is
    /// the tokenized-URL pattern used for server-side cloaking (§III-B).
    pub fn path_token(&self) -> Option<&str> {
        let seg = self.path.trim_start_matches('/');
        let seg = seg.split('/').next().unwrap_or("");
        if seg.len() >= 6 && seg.bytes().all(|b| b.is_ascii_alphanumeric()) {
            Some(seg)
        } else {
            None
        }
    }

    /// Value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", self.query)?;
        }
        Ok(())
    }
}

/// A DNS domain name with registrable-domain/TLD accessors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DomainName(String);

/// Multi-label public suffixes we recognize (the corpus uses `.com.br`
/// under Table II's `.br` rank).
const MULTI_LABEL_SUFFIXES: &[&str] = &["com.br", "co.uk", "com.au"];

impl DomainName {
    /// Construct (lowercases).
    pub fn new(name: &str) -> DomainName {
        DomainName(name.to_ascii_lowercase())
    }

    /// The full name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The public-suffix/TLD part, with the leading dot (e.g. `.com`,
    /// `.br` for `x.com.br`).
    pub fn tld(&self) -> String {
        for suffix in MULTI_LABEL_SUFFIXES {
            if self.0.ends_with(&format!(".{suffix}")) {
                // Table II reports ccTLD rank by final label.
                let last = suffix.rsplit('.').next().expect("nonempty suffix");
                return format!(".{last}");
            }
        }
        match self.0.rfind('.') {
            Some(i) => self.0[i..].to_string(),
            None => String::new(),
        }
    }

    /// The registrable domain (eTLD+1): `login.evil.example` → `evil.example`.
    pub fn registrable(&self) -> String {
        let labels: Vec<&str> = self.0.split('.').collect();
        for suffix in MULTI_LABEL_SUFFIXES {
            if self.0.ends_with(&format!(".{suffix}")) || self.0 == *suffix {
                let n = suffix.split('.').count() + 1;
                if labels.len() >= n {
                    return labels[labels.len() - n..].join(".");
                }
            }
        }
        if labels.len() >= 2 {
            labels[labels.len() - 2..].join(".")
        } else {
            self.0.clone()
        }
    }

    /// `true` for punycode (IDNA `xn--`) labels — the paper found **zero**
    /// of these among 522 landing domains.
    pub fn has_punycode(&self) -> bool {
        self.0.split('.').any(|l| l.starts_with("xn--"))
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DomainName {
    fn from(s: &str) -> Self {
        DomainName::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://Login.Evil.example/dhfYWfH?user=bob&x=1").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "login.evil.example");
        assert_eq!(u.path, "/dhfYWfH");
        assert_eq!(u.query_param("user"), Some("bob"));
        assert_eq!(u.query_param("x"), Some("1"));
        assert_eq!(u.query_param("nope"), None);
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = Url::parse("http://x.example").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.to_string(), "http://x.example/");
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "https://a.example/",
            "https://a.example/p/q",
            "https://a.example/p?x=1&y=2",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_urls() {
        assert!(Url::parse("ftp://x.example/").is_err());
        assert!(Url::parse("no-scheme").is_err());
        assert!(Url::parse("https:///path").is_err());
    }

    #[test]
    fn path_token_detection() {
        assert_eq!(
            Url::parse("https://e.example/dhfYWfH")
                .unwrap()
                .path_token(),
            Some("dhfYWfH")
        );
        // short, non-alphanumeric, or structured paths are not tokens
        assert_eq!(
            Url::parse("https://e.example/login").unwrap().path_token(),
            None
        );
        assert_eq!(
            Url::parse("https://e.example/a.html").unwrap().path_token(),
            None
        );
        assert_eq!(Url::parse("https://e.example/").unwrap().path_token(), None);
        assert_eq!(
            Url::parse("https://e.example/Abc123XY/page")
                .unwrap()
                .path_token(),
            Some("Abc123XY")
        );
    }

    #[test]
    fn tld_extraction() {
        assert_eq!(DomainName::new("evil.com").tld(), ".com");
        assert_eq!(DomainName::new("a.b.evil.ru").tld(), ".ru");
        assert_eq!(DomainName::new("shop.evil.com.br").tld(), ".br");
        assert_eq!(DomainName::new("localhost").tld(), "");
    }

    #[test]
    fn registrable_domain() {
        assert_eq!(
            DomainName::new("login.evil.example").registrable(),
            "evil.example"
        );
        assert_eq!(
            DomainName::new("evil.example").registrable(),
            "evil.example"
        );
        assert_eq!(
            DomainName::new("a.b.evil.com.br").registrable(),
            "evil.com.br"
        );
    }

    #[test]
    fn punycode_detection() {
        assert!(DomainName::new("xn--pple-43d.com").has_punycode());
        assert!(DomainName::new("login.xn--e1awd7f.ru").has_punycode());
        assert!(!DomainName::new("apple.com").has_punycode());
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;

    #[test]
    fn query_without_path_does_not_pollute_host() {
        let u = Url::parse("https://evil.example?a=1").unwrap();
        assert_eq!(u.host, "evil.example");
        assert_eq!(u.path, "/");
        assert_eq!(u.query_param("a"), Some("1"));
    }

    #[test]
    fn fragment_without_path_does_not_pollute_host() {
        let u = Url::parse("https://evil.example#frag").unwrap();
        assert_eq!(u.host, "evil.example");
        assert!(u.path.starts_with("/#") || u.path == "/");
    }
}
