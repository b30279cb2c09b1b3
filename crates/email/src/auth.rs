//! Email authentication results: SPF, DKIM, DMARC.
//!
//! The paper's striking finding (§V-C1): **all** user-reported malicious
//! messages passed the three authentication methods — attackers send from
//! legitimate, compromised, or purpose-made accounts whose infrastructure is
//! properly configured. We model the verdict triple and a simplified
//! evaluator over the message's envelope: SPF checks that the sending IP is
//! authorized for the envelope domain, DKIM that the signature domain signed
//! the body, DMARC that one of the two aligns with the `From:` domain.

use crate::EmailAddress;
use cb_json::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One mechanism's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AuthVerdict {
    /// The check passed.
    Pass,
    /// The check failed.
    Fail,
    /// The domain publishes no policy for this mechanism.
    None,
}

impl fmt::Display for AuthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuthVerdict::Pass => "pass",
            AuthVerdict::Fail => "fail",
            AuthVerdict::None => "none",
        })
    }
}

/// The SPF + DKIM + DMARC result triple for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthResults {
    /// Sender Policy Framework verdict.
    pub spf: AuthVerdict,
    /// DomainKeys Identified Mail verdict.
    pub dkim: AuthVerdict,
    /// Domain-based Message Authentication verdict.
    pub dmarc: AuthVerdict,
}

impl AuthResults {
    /// The triple observed on every message in the paper's dataset.
    pub fn all_pass() -> Self {
        AuthResults {
            spf: AuthVerdict::Pass,
            dkim: AuthVerdict::Pass,
            dmarc: AuthVerdict::Pass,
        }
    }

    /// `true` if all three mechanisms passed.
    pub fn fully_authenticated(&self) -> bool {
        self.spf == AuthVerdict::Pass
            && self.dkim == AuthVerdict::Pass
            && self.dmarc == AuthVerdict::Pass
    }
}

impl fmt::Display for AuthResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spf={} dkim={} dmarc={}",
            self.spf, self.dkim, self.dmarc
        )
    }
}

/// Simplified sender-domain authentication database: which IPs may send for
/// a domain (SPF) and which domains have DKIM keys deployed.
#[derive(Debug, Clone, Default)]
pub struct AuthPolicyDb {
    spf_records: BTreeSet<(String, u32)>,
    dkim_domains: BTreeSet<String>,
}

impl AuthPolicyDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Authorize `ip` (an opaque IPv4 as u32) to send mail for `domain`.
    pub fn authorize_sender(&mut self, domain: &str, ip: u32) {
        self.spf_records.insert((domain.to_ascii_lowercase(), ip));
    }

    /// Register a DKIM signing key for `domain`.
    pub fn deploy_dkim(&mut self, domain: &str) {
        self.dkim_domains.insert(domain.to_ascii_lowercase());
    }

    /// Evaluate the triple for a message sent from `sending_ip`, with
    /// envelope-from `mail_from`, signed by `dkim_domain` (if any), and
    /// header `From:` `header_from`.
    ///
    /// DMARC passes when SPF or DKIM passes *and* the passing identifier's
    /// domain matches the header-from domain (relaxed alignment: exact or
    /// parent-domain match).
    pub fn evaluate(
        &self,
        sending_ip: u32,
        mail_from: &EmailAddress,
        dkim_domain: Option<&str>,
        header_from: &EmailAddress,
    ) -> AuthResults {
        let spf = if self
            .spf_records
            .contains(&(mail_from.domain().to_string(), sending_ip))
        {
            AuthVerdict::Pass
        } else {
            AuthVerdict::Fail
        };
        let dkim = match dkim_domain {
            Some(d) if self.dkim_domains.contains(&d.to_ascii_lowercase()) => AuthVerdict::Pass,
            Some(_) => AuthVerdict::Fail,
            None => AuthVerdict::None,
        };
        let aligned = |d: &str| {
            let from = header_from.domain();
            d == from || from.ends_with(&format!(".{d}")) || d.ends_with(&format!(".{from}"))
        };
        let dmarc_pass = (spf == AuthVerdict::Pass && aligned(mail_from.domain()))
            || (dkim == AuthVerdict::Pass && dkim_domain.map(aligned).unwrap_or(false));
        AuthResults {
            spf,
            dkim,
            dmarc: if dmarc_pass {
                AuthVerdict::Pass
            } else {
                AuthVerdict::Fail
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> EmailAddress {
        s.parse().unwrap()
    }

    #[test]
    fn legitimate_sender_passes_all() {
        let mut db = AuthPolicyDb::new();
        db.authorize_sender("partner.example", 0x0A00_0001);
        db.deploy_dkim("partner.example");
        let r = db.evaluate(
            0x0A00_0001,
            &addr("billing@partner.example"),
            Some("partner.example"),
            &addr("billing@partner.example"),
        );
        assert!(r.fully_authenticated());
    }

    #[test]
    fn wrong_ip_fails_spf_but_dkim_can_carry_dmarc() {
        let mut db = AuthPolicyDb::new();
        db.authorize_sender("partner.example", 1);
        db.deploy_dkim("partner.example");
        let r = db.evaluate(
            2,
            &addr("x@partner.example"),
            Some("partner.example"),
            &addr("x@partner.example"),
        );
        assert_eq!(r.spf, AuthVerdict::Fail);
        assert_eq!(r.dkim, AuthVerdict::Pass);
        assert_eq!(r.dmarc, AuthVerdict::Pass);
    }

    #[test]
    fn spoofed_from_fails_dmarc_despite_spf_pass() {
        // Attacker controls evil.example infrastructure but spoofs the
        // header From to the impersonated brand: SPF passes for the envelope
        // domain yet DMARC alignment with the From domain fails.
        let mut db = AuthPolicyDb::new();
        db.authorize_sender("evil.example", 9);
        let r = db.evaluate(
            9,
            &addr("bounce@evil.example"),
            None,
            &addr("security@corp.example"),
        );
        assert_eq!(r.spf, AuthVerdict::Pass);
        assert_eq!(r.dmarc, AuthVerdict::Fail);
        assert!(!r.fully_authenticated());
    }

    #[test]
    fn relaxed_alignment_accepts_subdomain() {
        let mut db = AuthPolicyDb::new();
        db.authorize_sender("mail.partner.example", 7);
        let r = db.evaluate(
            7,
            &addr("x@mail.partner.example"),
            None,
            &addr("x@partner.example"),
        );
        assert_eq!(r.dmarc, AuthVerdict::Pass);
    }

    #[test]
    fn unsigned_message_has_dkim_none() {
        let db = AuthPolicyDb::new();
        let r = db.evaluate(1, &addr("a@b.example"), None, &addr("a@b.example"));
        assert_eq!(r.dkim, AuthVerdict::None);
        assert_eq!(r.dmarc, AuthVerdict::Fail);
    }

    #[test]
    fn all_pass_constructor() {
        assert!(AuthResults::all_pass().fully_authenticated());
        assert_eq!(
            AuthResults::all_pass().to_string(),
            "spf=pass dkim=pass dmarc=pass"
        );
    }
}
