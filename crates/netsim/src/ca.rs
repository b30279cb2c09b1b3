//! Certificate authority and Certificate Transparency log.
//!
//! Figure 3's `timedeltaB` measures TLS-certificate issuance time against
//! message delivery; prior work the paper cites scanned CT logs for
//! deceptive domain names. The CA issues 90-day certificates (the ACME
//! norm) and appends every issuance to an ordered CT log.

use crate::url::DomainName;
use cb_json::{Deserialize, Serialize};
use cb_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Standard ACME-style validity window.
pub const VALIDITY: SimDuration = SimDuration::days(90);

/// An issued leaf certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// Serial number (CT log index + 1).
    pub serial: u64,
    /// Subject domain.
    pub domain: DomainName,
    /// Issuance instant (`notBefore`).
    pub issued_at: SimTime,
    /// Expiry instant (`notAfter`).
    pub not_after: SimTime,
}

impl Certificate {
    /// `true` if the certificate is valid at `t`.
    pub fn valid_at(&self, t: SimTime) -> bool {
        t >= self.issued_at && t < self.not_after
    }
}

/// The simulated CA with its transparency log.
#[derive(Debug, Clone, Default)]
pub struct CertificateAuthority {
    log: Vec<Certificate>,
    latest: BTreeMap<DomainName, usize>,
}

impl CertificateAuthority {
    /// A CA with an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue a certificate for `domain` at `when`, appending to the CT log.
    pub fn issue(&mut self, domain: &str, when: SimTime) -> &Certificate {
        let name = DomainName::new(domain);
        let cert = Certificate {
            serial: self.log.len() as u64 + 1,
            domain: name.clone(),
            issued_at: when,
            not_after: when + VALIDITY,
        };
        self.log.push(cert);
        self.latest.insert(name, self.log.len() - 1);
        self.log.last().expect("just pushed")
    }

    /// The most recently issued certificate for `domain`.
    pub fn latest_for(&self, domain: &str) -> Option<&Certificate> {
        self.latest
            .get(&DomainName::new(domain))
            .map(|&i| &self.log[i])
    }

    /// The *first* issuance for `domain` — what CT-log-based timeline
    /// analysis actually measures.
    pub fn first_for(&self, domain: &str) -> Option<&Certificate> {
        let name = DomainName::new(domain);
        self.log.iter().find(|c| c.domain == name)
    }

    /// The full CT log in issuance order.
    pub fn ct_log(&self) -> &[Certificate] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_and_lookup() {
        let mut ca = CertificateAuthority::new();
        let t = SimTime::from_ymd(2024, 1, 10);
        ca.issue("evil.example", t);
        let c = ca.latest_for("EVIL.example").unwrap();
        assert_eq!(c.issued_at, t);
        assert_eq!(c.not_after, t + VALIDITY);
        assert_eq!(c.serial, 1);
    }

    #[test]
    fn validity_window() {
        let mut ca = CertificateAuthority::new();
        let t = SimTime::from_ymd(2024, 1, 10);
        let c = ca.issue("x.example", t).clone();
        assert!(!c.valid_at(t - SimDuration::seconds(1)));
        assert!(c.valid_at(t));
        assert!(c.valid_at(t + SimDuration::days(89)));
        assert!(!c.valid_at(t + SimDuration::days(90)));
    }

    #[test]
    fn renewal_tracks_first_and_latest() {
        let mut ca = CertificateAuthority::new();
        let t1 = SimTime::from_ymd(2023, 10, 1);
        let t2 = SimTime::from_ymd(2024, 1, 1);
        ca.issue("site.example", t1);
        ca.issue("site.example", t2);
        assert_eq!(ca.first_for("site.example").unwrap().issued_at, t1);
        assert_eq!(ca.latest_for("site.example").unwrap().issued_at, t2);
    }

    #[test]
    fn ct_log_preserves_order() {
        let mut ca = CertificateAuthority::new();
        ca.issue("a.example", SimTime::from_ymd(2024, 1, 1));
        ca.issue("b.example", SimTime::from_ymd(2024, 1, 2));
        let serials: Vec<u64> = ca.ct_log().iter().map(|c| c.serial).collect();
        assert_eq!(serials, [1, 2]);
    }

    #[test]
    fn unknown_domain_has_no_certificate() {
        assert!(CertificateAuthority::new()
            .latest_for("x.example")
            .is_none());
    }
}
