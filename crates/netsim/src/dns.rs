//! DNS resolution and the passive-DNS ledger (Cisco Umbrella substitute).
//!
//! §V-A verifies the "low-volume targeted attacks" hypothesis by examining
//! per-domain DNS query volumes over the 30 days before message delivery.
//! [`PassiveDnsLedger`] records every resolution with its timestamp and
//! answers exactly the queries the paper asks: maximum queries per day and
//! total queries in a window.

use crate::ip::IpAddress;
use crate::url::DomainName;
use cb_json::{Deserialize, Serialize};
use cb_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-domain volume summary over a window, mirroring the paper's Umbrella
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryVolume {
    /// Maximum queries observed in any single day of the window.
    pub max_per_day: u64,
    /// Total queries in the window.
    pub total: u64,
}

/// Records every resolution (domain, day) with a count.
#[derive(Debug, Clone, Default)]
pub struct PassiveDnsLedger {
    counts: BTreeMap<(DomainName, i64), u64>,
}

impl PassiveDnsLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` queries for `domain` at `when`.
    pub fn record(&mut self, domain: &DomainName, when: SimTime, n: u64) {
        let day = when.as_unix().div_euclid(86_400);
        *self.counts.entry((domain.clone(), day)).or_insert(0) += n;
    }

    /// Volume summary for the `window` ending at `end` (the paper uses the
    /// 30 days before message reception).
    pub fn volume(&self, domain: &DomainName, end: SimTime, window: SimDuration) -> QueryVolume {
        let end_day = end.as_unix().div_euclid(86_400);
        // the window covers `window` whole days ending at (and including)
        // `end`'s day — exclusive of the day exactly `window` before
        let start_day = (end - window).as_unix().div_euclid(86_400) + 1;
        let mut max_per_day = 0;
        let mut total = 0;
        for (&(_, day), &n) in self
            .counts
            .range((domain.clone(), start_day)..=(domain.clone(), end_day))
        {
            let _ = day;
            max_per_day = max_per_day.max(n);
            total += n;
        }
        QueryVolume { max_per_day, total }
    }
}

/// Authoritative DNS: domain → address bindings.
#[derive(Debug, Clone, Default)]
pub struct DnsService {
    bindings: BTreeMap<DomainName, IpAddress>,
}

/// Resolution failure: NXDOMAIN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NxDomain {
    /// The name that failed to resolve.
    pub domain: DomainName,
}

impl std::fmt::Display for NxDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NXDOMAIN: {}", self.domain)
    }
}

impl std::error::Error for NxDomain {}

impl DnsService {
    /// An empty zone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `domain` to `ip` (overwrites).
    pub fn bind(&mut self, domain: &str, ip: IpAddress) {
        self.bindings.insert(DomainName::new(domain), ip);
    }

    /// Remove a binding (site takedown / deactivation).
    pub fn unbind(&mut self, domain: &str) -> bool {
        self.bindings.remove(&DomainName::new(domain)).is_some()
    }

    /// Resolve a name.
    ///
    /// # Errors
    ///
    /// Returns [`NxDomain`] for unbound names.
    pub fn resolve(&self, domain: &str) -> Result<IpAddress, NxDomain> {
        let name = DomainName::new(domain);
        self.bindings
            .get(&name)
            .copied()
            .ok_or(NxDomain { domain: name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolve_unbind() {
        let mut dns = DnsService::new();
        dns.bind("evil.example", IpAddress(1));
        assert_eq!(dns.resolve("EVIL.example"), Ok(IpAddress(1)));
        assert!(dns.unbind("evil.example"));
        assert!(dns.resolve("evil.example").is_err());
        assert!(!dns.unbind("evil.example"));
    }

    #[test]
    fn volume_windows() {
        let mut ledger = PassiveDnsLedger::new();
        let d = DomainName::new("quiet.example");
        let day0 = SimTime::from_ymd(2024, 3, 1);
        ledger.record(&d, day0, 5);
        ledger.record(&d, day0 + SimDuration::days(10), 30);
        ledger.record(&d, day0 + SimDuration::days(10), 12); // same day accumulates
        ledger.record(&d, day0 + SimDuration::days(40), 100); // outside 30d window

        let v = ledger.volume(&d, day0 + SimDuration::days(29), SimDuration::days(30));
        assert_eq!(v.total, 47);
        assert_eq!(v.max_per_day, 42);
    }

    #[test]
    fn volume_of_unknown_domain_is_zero() {
        let ledger = PassiveDnsLedger::new();
        let v = ledger.volume(
            &DomainName::new("ghost.example"),
            SimTime::from_ymd(2024, 1, 1),
            SimDuration::days(30),
        );
        assert_eq!(
            v,
            QueryVolume {
                max_per_day: 0,
                total: 0
            }
        );
    }

    #[test]
    fn volumes_are_per_domain() {
        let mut ledger = PassiveDnsLedger::new();
        let a = DomainName::new("a.example");
        let b = DomainName::new("b.example");
        let t = SimTime::from_ymd(2024, 5, 5);
        ledger.record(&a, t, 7);
        ledger.record(&b, t, 3);
        assert_eq!(ledger.volume(&a, t, SimDuration::days(1)).total, 7);
        assert_eq!(ledger.volume(&b, t, SimDuration::days(1)).total, 3);
    }

    #[test]
    fn window_boundaries_inclusive_of_end_day() {
        let mut ledger = PassiveDnsLedger::new();
        let d = DomainName::new("x.example");
        let t = SimTime::from_ymd_hms(2024, 6, 1, 23, 0, 0);
        ledger.record(&d, t, 9);
        // query at an earlier hour of the same day still sees the count
        let v = ledger.volume(
            &DomainName::new("x.example"),
            SimTime::from_ymd_hms(2024, 6, 1, 1, 0, 0),
            SimDuration::days(30),
        );
        assert_eq!(v.total, 9);
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;

    #[test]
    fn thirty_day_window_spans_exactly_thirty_days() {
        let mut ledger = PassiveDnsLedger::new();
        let d = DomainName::new("w.example");
        let end = SimTime::from_ymd_hms(2024, 6, 30, 12, 0, 0);
        // exactly 30 days before `end`: outside the window
        ledger.record(&d, end - SimDuration::days(30), 1000);
        assert_eq!(ledger.volume(&d, end, SimDuration::days(30)).total, 0);
        // 29 days before: inside
        ledger.record(&d, end - SimDuration::days(29), 7);
        assert_eq!(ledger.volume(&d, end, SimDuration::days(30)).total, 7);
        // the end day itself: inside
        ledger.record(&d, end, 3);
        assert_eq!(ledger.volume(&d, end, SimDuration::days(30)).total, 10);
    }
}
