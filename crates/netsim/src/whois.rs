//! The domain registry (WHOIS).
//!
//! Figure 3's `timedeltaA` is "the time difference between the registration
//! of the domain and the average delivery time of the messages" — which
//! requires registration timestamps with realistic provenance. The registry
//! records who registered what and when, including the `.ru` registrars the
//! paper lists (REGRU-RU, R01-RU, RU-CENTER-RU, REGTIME-RU, OPENPROV-RU).

use crate::url::DomainName;
use cb_json::{Deserialize, Serialize};
use cb_sim::SimTime;
use std::collections::BTreeMap;

/// One WHOIS record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhoisRecord {
    /// The registered domain.
    pub domain: DomainName,
    /// Registration instant.
    pub registered_at: SimTime,
    /// Sponsoring registrar.
    pub registrar: String,
    /// Whether the domain was later marked compromised (legitimate domain
    /// taken over to host phishing — §V-A outliers).
    pub compromised: bool,
}

/// The registry of all registered domains.
#[derive(Debug, Clone, Default)]
pub struct DomainRegistry {
    records: BTreeMap<DomainName, WhoisRecord>,
}

impl DomainRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `domain` at `when` through `registrar`. Re-registration
    /// keeps the original record (matching WHOIS creation-date semantics)
    /// and returns `false`.
    pub fn register(&mut self, domain: &str, when: SimTime, registrar: &str) -> bool {
        let key = DomainName::new(domain);
        if self.records.contains_key(&key) {
            return false;
        }
        self.records.insert(
            key.clone(),
            WhoisRecord {
                domain: key,
                registered_at: when,
                registrar: registrar.to_string(),
                compromised: false,
            },
        );
        true
    }

    /// Mark an existing domain as compromised.
    pub fn mark_compromised(&mut self, domain: &str) -> bool {
        match self.records.get_mut(&DomainName::new(domain)) {
            Some(r) => {
                r.compromised = true;
                true
            }
            None => false,
        }
    }

    /// WHOIS lookup.
    pub fn lookup(&self, domain: &str) -> Option<&WhoisRecord> {
        self.records.get(&DomainName::new(domain))
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate all records in name order.
    pub fn iter(&self) -> impl Iterator<Item = &WhoisRecord> {
        self.records.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = DomainRegistry::new();
        let t = SimTime::from_ymd(2023, 12, 1);
        assert!(reg.register("evil-site.example", t, "REGRU-RU"));
        let r = reg.lookup("EVIL-SITE.example").unwrap();
        assert_eq!(r.registered_at, t);
        assert_eq!(r.registrar, "REGRU-RU");
        assert!(!r.compromised);
    }

    #[test]
    fn reregistration_keeps_creation_date() {
        let mut reg = DomainRegistry::new();
        let t1 = SimTime::from_ymd(2020, 1, 1);
        let t2 = SimTime::from_ymd(2024, 1, 1);
        assert!(reg.register("old.example", t1, "R01-RU"));
        assert!(!reg.register("old.example", t2, "OTHER"));
        assert_eq!(reg.lookup("old.example").unwrap().registered_at, t1);
    }

    #[test]
    fn compromised_marking() {
        let mut reg = DomainRegistry::new();
        reg.register("smallbiz.example", SimTime::from_ymd(2019, 5, 5), "GENERIC");
        assert!(reg.mark_compromised("smallbiz.example"));
        assert!(reg.lookup("smallbiz.example").unwrap().compromised);
        assert!(!reg.mark_compromised("ghost.example"));
    }

    #[test]
    fn unknown_domain_lookup_is_none() {
        assert!(DomainRegistry::new().lookup("nope.example").is_none());
    }

    #[test]
    fn iteration_in_name_order() {
        let mut reg = DomainRegistry::new();
        let t = SimTime::EPOCH;
        reg.register("b.example", t, "X");
        reg.register("a.example", t, "X");
        let names: Vec<String> = reg.iter().map(|r| r.domain.to_string()).collect();
        assert_eq!(names, ["a.example", "b.example"]);
    }
}
