//! The IPv4 space, partitioned into ASN classes with reputations.
//!
//! Bot-detection services "identify bots by checking whether the associated
//! IP address is associated with cloud providers, proxies, or VPNs" (§IV-C);
//! NotABot evades this by egressing through a 4G modem on a commercial
//! mobile plan. [`IpClass`] encodes exactly that distinction, and
//! [`IpSpace`] hands out addresses from class-specific prefixes so every
//! connection carries a classifiable source.

use cb_json::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IpAddress(pub u32);

impl fmt::Display for IpAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// The ASN class an address belongs to — the signal IP-reputation systems
/// consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpClass {
    /// Cloud/hosting providers: the default for crawler farms, heavily
    /// penalized by bot detection.
    Datacenter,
    /// Commercial VPN / proxy egress ranges.
    VpnProxy,
    /// Consumer broadband.
    Residential,
    /// Cellular carrier ranges (NotABot's 4G modem).
    MobileCarrier,
}

impl IpClass {
    /// Every egress class, in a fixed canonical order. The adaptive
    /// crawler's arm space and the phishkit's per-class reputation memory
    /// both index off this ordering, so it must never be reordered.
    pub const ALL: [IpClass; 4] = [
        IpClass::Datacenter,
        IpClass::VpnProxy,
        IpClass::Residential,
        IpClass::MobileCarrier,
    ];

    /// Reputation penalty this class contributes to bot-likelihood scoring
    /// (0 = human-typical, higher = more suspicious).
    pub fn reputation_penalty(self) -> u32 {
        match self {
            IpClass::Datacenter => 40,
            IpClass::VpnProxy => 30,
            IpClass::Residential => 0,
            IpClass::MobileCarrier => 0,
        }
    }

    /// Class prefix (top octet) in the simulated space.
    pub fn prefix(self) -> u32 {
        match self {
            IpClass::Datacenter => 10,
            IpClass::VpnProxy => 45,
            IpClass::Residential => 78,
            IpClass::MobileCarrier => 100,
        }
    }

    /// A deterministic egress address of this class for one request: a pure
    /// function of `(class, key, attempt)`, where `key` is the request
    /// target (URL). Unlike [`IpSpace::allocate`], which hands out
    /// addresses in arrival order, the address a crawl presents here does
    /// not depend on how many requests ran before it — the property that
    /// keeps concurrent batch scans bit-identical to serial ones even when
    /// servers echo the client address back into response bodies.
    pub fn egress_ip(self, key: &str, attempt: u32) -> IpAddress {
        // FNV-1a over the key and attempt; low 24 bits become the host
        // part, the class prefix stays in the top octet so
        // [`IpSpace::classify`] round-trips.
        let mut h: u32 = 0x811c_9dc5;
        for b in key.bytes().chain(attempt.to_be_bytes()) {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        IpAddress((self.prefix() << 24) | (h & 0x00FF_FFFF) | 1)
    }
}

impl fmt::Display for IpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IpClass::Datacenter => "datacenter",
            IpClass::VpnProxy => "vpn-proxy",
            IpClass::Residential => "residential",
            IpClass::MobileCarrier => "mobile-carrier",
        })
    }
}

/// Allocator of addresses from class-specific prefixes.
#[derive(Debug, Default)]
pub struct IpSpace {
    counters: [AtomicU32; 4],
}

impl IpSpace {
    /// A fresh space.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(class: IpClass) -> usize {
        match class {
            IpClass::Datacenter => 0,
            IpClass::VpnProxy => 1,
            IpClass::Residential => 2,
            IpClass::MobileCarrier => 3,
        }
    }

    /// Allocate the next address of `class`.
    pub fn allocate(&self, class: IpClass) -> IpAddress {
        let n = self.counters[Self::slot(class)].fetch_add(1, Ordering::Relaxed);
        IpAddress((class.prefix() << 24) | (n + 1))
    }

    /// Classify an address by its prefix. Unknown prefixes read as
    /// datacenter — the conservative default real reputation feeds use.
    pub fn classify(ip: IpAddress) -> IpClass {
        match ip.0 >> 24 {
            45 => IpClass::VpnProxy,
            78 => IpClass::Residential,
            100 => IpClass::MobileCarrier,
            _ => IpClass::Datacenter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dotted_quad() {
        assert_eq!(IpAddress(0x0A00_0001).to_string(), "10.0.0.1");
        assert_eq!(IpAddress(0x6400_002A).to_string(), "100.0.0.42");
    }

    #[test]
    fn allocation_round_trips_class() {
        let space = IpSpace::new();
        for class in [
            IpClass::Datacenter,
            IpClass::VpnProxy,
            IpClass::Residential,
            IpClass::MobileCarrier,
        ] {
            let ip = space.allocate(class);
            assert_eq!(IpSpace::classify(ip), class, "{ip}");
        }
    }

    #[test]
    fn allocations_are_unique() {
        let space = IpSpace::new();
        let a = space.allocate(IpClass::Residential);
        let b = space.allocate(IpClass::Residential);
        assert_ne!(a, b);
    }

    #[test]
    fn reputation_penalties_order() {
        assert!(IpClass::Datacenter.reputation_penalty() > IpClass::VpnProxy.reputation_penalty());
        assert_eq!(IpClass::MobileCarrier.reputation_penalty(), 0);
        assert_eq!(IpClass::Residential.reputation_penalty(), 0);
    }

    #[test]
    fn unknown_prefix_reads_as_datacenter() {
        assert_eq!(
            IpSpace::classify(IpAddress(0xC0A8_0001)),
            IpClass::Datacenter
        );
    }

    #[test]
    fn egress_ip_is_pure_and_round_trips_class() {
        for class in [
            IpClass::Datacenter,
            IpClass::VpnProxy,
            IpClass::Residential,
            IpClass::MobileCarrier,
        ] {
            let a = class.egress_ip("https://kit.example/land", 0);
            let b = class.egress_ip("https://kit.example/land", 0);
            assert_eq!(a, b, "pure function of (class, key, attempt)");
            assert_eq!(IpSpace::classify(a), class, "{a}");
        }
        // Different keys and attempts vary the host part.
        let base = IpClass::Residential.egress_ip("https://kit.example/a", 0);
        assert_ne!(
            base,
            IpClass::Residential.egress_ip("https://kit.example/b", 0)
        );
        assert_ne!(
            base,
            IpClass::Residential.egress_ip("https://kit.example/a", 1)
        );
        // Never the network address of the prefix.
        assert_ne!(base.0 & 0x00FF_FFFF, 0);
    }
}
