//! Deterministic transient-fault injection.
//!
//! The live Internet the paper's CrawlerBox crawled is unreliable: DNS
//! lookups time out, origins reset connections, rate-limiters answer
//! 429/503, kits stall or truncate responses. This module reproduces that
//! adversity *deterministically*: whether a request faults is a pure
//! function of `(plan seed, host, path, query, attempt)`, so parallel and
//! serial scans observe identical faults, and a supervisor that retries
//! with a fresh attempt index is guaranteed to converge on a fault-free
//! request once the per-URL consecutive-failure count is exhausted.
//!
//! Faults are decided **before any side effect** — before DNS resolution,
//! passive-DNS recording or handler dispatch — so a faulted request leaves
//! the world untouched and a retry observes pristine state. This is what
//! makes exact recovery of the §V class mix possible under fault sweeps.

use crate::http::{HttpRequest, HttpResponse};
use cb_json::{Deserialize, Serialize};
use cb_sim::{SeedFork, SimDuration};
use std::collections::HashMap;
use std::fmt;

/// Response header marking a synthesized fault response (429/503/truncated
/// bodies). Never emitted by real site handlers, so its presence is
/// reliable transient-failure evidence for the crawl supervisor.
pub const FAULT_HEADER: &str = "X-Injected-Fault";

/// Response header carrying simulated first-byte latency in whole seconds,
/// charged against the visitor's time budget.
pub const LATENCY_HEADER: &str = "X-Sim-Latency-Secs";

/// The transient fault taxonomy (DESIGN.md "Fault model & resilience").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The DNS lookup never answered.
    DnsTimeout,
    /// TCP connection reset by peer.
    ConnectionReset,
    /// TLS handshake failure.
    TlsHandshake,
    /// HTTP 429 with a `Retry-After` header.
    RateLimited,
    /// HTTP 503 with a `Retry-After` header.
    ServiceUnavailable,
    /// The first byte stalls past the client's patience; the connection is
    /// abandoned after the stall is charged to the time budget.
    SlowFirstByte,
    /// A 200 whose body is cut short of its declared `Content-Length`.
    TruncatedBody,
}

impl FaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::DnsTimeout,
        FaultKind::ConnectionReset,
        FaultKind::TlsHandshake,
        FaultKind::RateLimited,
        FaultKind::ServiceUnavailable,
        FaultKind::SlowFirstByte,
        FaultKind::TruncatedBody,
    ];

    /// Stable kebab-case label (used in log provenance and fault headers).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DnsTimeout => "dns-timeout",
            FaultKind::ConnectionReset => "connection-reset",
            FaultKind::TlsHandshake => "tls-handshake",
            FaultKind::RateLimited => "rate-limited",
            FaultKind::ServiceUnavailable => "service-unavailable",
            FaultKind::SlowFirstByte => "slow-first-byte",
            FaultKind::TruncatedBody => "truncated-body",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A transport-level failure: the request never produced an HTTP response.
/// Only ever produced by the fault injector — a genuine NXDOMAIN still
/// surfaces as a status-0 response, so the two are never confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetError {
    /// What failed.
    pub kind: FaultKind,
    /// Simulated time the client lost before giving up.
    pub latency: SimDuration,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {}", self.kind, self.latency)
    }
}

impl std::error::Error for NetError {}

/// Fault behaviour for one host (or the plan-wide default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Fraction of URLs that are flaky, in `[0, 1]`.
    pub rate: f64,
    /// A flaky URL fails its first 1..=`max_consecutive` attempts (the
    /// exact count is drawn deterministically per URL), then succeeds.
    /// Recovery is guaranteed for supervisors allowing at least this many
    /// retries.
    pub max_consecutive: u32,
    /// Which fault kinds this profile draws from.
    pub kinds: Vec<FaultKind>,
    /// Stall charged by [`FaultKind::SlowFirstByte`].
    pub slow_latency: SimDuration,
    /// `Retry-After` value on 429/503 responses, in seconds.
    pub retry_after_secs: u32,
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile {
            rate: 0.0,
            max_consecutive: 2,
            kinds: FaultKind::ALL.to_vec(),
            slow_latency: SimDuration::seconds(30),
            retry_after_secs: 5,
        }
    }
}

impl FaultProfile {
    /// The default profile at the given fault rate.
    pub fn with_rate(rate: f64) -> FaultProfile {
        assert!((0.0..=1.0).contains(&rate), "fault rate in [0, 1]");
        FaultProfile {
            rate,
            ..FaultProfile::default()
        }
    }
}

/// A seeded fault plan: a default profile plus per-host overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    default: FaultProfile,
    hosts: HashMap<String, FaultProfile>,
}

impl FaultPlan {
    /// A plan applying `profile` to every host.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan {
            seed,
            default: profile,
            hosts: HashMap::new(),
        }
    }

    /// A plan with the default profile at `rate` for every host.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(seed, FaultProfile::with_rate(rate))
    }

    /// Override the profile for one host.
    pub fn with_host(mut self, host: &str, profile: FaultProfile) -> FaultPlan {
        self.hosts.insert(host.to_ascii_lowercase(), profile);
        self
    }

    /// The profile governing `host`.
    pub fn profile_for(&self, host: &str) -> &FaultProfile {
        self.hosts
            .get(&host.to_ascii_lowercase())
            .unwrap_or(&self.default)
    }

    /// Decide the fate of `req`. `None` means no fault: dispatch normally.
    /// `Some(Err(_))` is a transport-level failure, `Some(Ok(_))` a
    /// synthesized fault response (429/503/truncated body). The decision is
    /// a pure function of the plan seed, the URL and `req.attempt`.
    pub fn decide(&self, req: &HttpRequest) -> Option<Result<HttpResponse, NetError>> {
        let profile = self.profile_for(&req.url.host);
        if profile.rate <= 0.0 || profile.kinds.is_empty() {
            return None;
        }
        let fork = SeedFork::new(self.seed);
        let key = format!("{}{}?{}", req.url.host, req.url.path, req.url.query);
        // Flakiness, failure count and kind come from independent label
        // hashes so the three draws do not correlate.
        let flaky = (fork.seed(&key) % 10_000) as f64 / 10_000.0 < profile.rate;
        if !flaky {
            return None;
        }
        let consecutive = 1
            + (fork.seed(&format!("{key}#count")) % u64::from(profile.max_consecutive.max(1)))
                as u32;
        if req.attempt >= consecutive {
            return None;
        }
        let kind =
            profile.kinds[(fork.seed(&format!("{key}#kind")) as usize) % profile.kinds.len()];
        Some(synthesize(kind, profile))
    }
}

/// Materialize one fault as what the client observes.
fn synthesize(kind: FaultKind, profile: &FaultProfile) -> Result<HttpResponse, NetError> {
    let err = |latency_secs: i64| NetError {
        kind,
        latency: SimDuration::seconds(latency_secs),
    };
    match kind {
        FaultKind::DnsTimeout => Err(err(5)),
        FaultKind::ConnectionReset => Err(err(1)),
        FaultKind::TlsHandshake => Err(err(1)),
        FaultKind::SlowFirstByte => Err(NetError {
            kind,
            latency: profile.slow_latency,
        }),
        FaultKind::RateLimited | FaultKind::ServiceUnavailable => {
            let status = if kind == FaultKind::RateLimited {
                429
            } else {
                503
            };
            Ok(HttpResponse {
                status,
                headers: vec![
                    (
                        "Retry-After".to_string(),
                        profile.retry_after_secs.to_string(),
                    ),
                    (FAULT_HEADER.to_string(), kind.label().to_string()),
                    (LATENCY_HEADER.to_string(), "1".to_string()),
                ],
                body: format!("{status} try later").into_bytes(),
            })
        }
        FaultKind::TruncatedBody => {
            let body = b"<html><head><title>loadi".to_vec();
            Ok(HttpResponse {
                status: 200,
                headers: vec![
                    ("Content-Type".to_string(), "text/html".to_string()),
                    ("Content-Length".to_string(), "4096".to_string()),
                    (FAULT_HEADER.to_string(), kind.label().to_string()),
                    (LATENCY_HEADER.to_string(), "2".to_string()),
                ],
                body,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(url: &str, attempt: u32) -> HttpRequest {
        let mut r = HttpRequest::get(url);
        r.attempt = attempt;
        r
    }

    #[test]
    fn zero_rate_never_faults() {
        let plan = FaultPlan::uniform(1, 0.0);
        for i in 0..200 {
            assert!(plan
                .decide(&req(&format!("https://h{i}.example/p"), 0))
                .is_none());
        }
    }

    #[test]
    fn full_rate_faults_every_first_attempt() {
        let plan = FaultPlan::uniform(1, 1.0);
        for i in 0..50 {
            assert!(plan
                .decide(&req(&format!("https://h{i}.example/p"), 0))
                .is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::uniform(7, 0.3);
        let b = FaultPlan::uniform(7, 0.3);
        for i in 0..100 {
            let r = req(&format!("https://host{i}.example/x?q={i}"), 0);
            assert_eq!(a.decide(&r).is_some(), b.decide(&r).is_some());
        }
    }

    #[test]
    fn different_seeds_pick_different_urls() {
        let a = FaultPlan::uniform(1, 0.3);
        let b = FaultPlan::uniform(2, 0.3);
        let differs = (0..200).any(|i| {
            let r = req(&format!("https://host{i}.example/x"), 0);
            a.decide(&r).is_some() != b.decide(&r).is_some()
        });
        assert!(differs);
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let plan = FaultPlan::uniform(42, 0.2);
        let faulted = (0..1000)
            .filter(|i| {
                plan.decide(&req(&format!("https://h{i}.example/p"), 0))
                    .is_some()
            })
            .count();
        assert!((130..=270).contains(&faulted), "{faulted}/1000 at rate 0.2");
    }

    #[test]
    fn flaky_urls_recover_within_max_consecutive() {
        let plan = FaultPlan::uniform(3, 1.0);
        for i in 0..50 {
            let url = format!("https://h{i}.example/p");
            assert!(plan.decide(&req(&url, 0)).is_some(), "attempt 0 faults");
            let max = plan.profile_for("any").max_consecutive;
            assert!(
                plan.decide(&req(&url, max)).is_none(),
                "attempt {max} must be clean"
            );
        }
    }

    #[test]
    fn per_host_overrides_apply() {
        let plan =
            FaultPlan::uniform(5, 0.0).with_host("flaky.example", FaultProfile::with_rate(1.0));
        assert!(plan.decide(&req("https://flaky.example/a", 0)).is_some());
        assert!(plan.decide(&req("https://solid.example/a", 0)).is_none());
    }

    #[test]
    fn synthesized_responses_are_marked() {
        let profile = FaultProfile::with_rate(1.0);
        for kind in [FaultKind::RateLimited, FaultKind::ServiceUnavailable] {
            let resp = synthesize(kind, &profile).unwrap();
            assert_eq!(resp.header(FAULT_HEADER), Some(kind.label()));
            assert_eq!(resp.header("Retry-After"), Some("5"));
        }
        let trunc = synthesize(FaultKind::TruncatedBody, &profile).unwrap();
        let declared: usize = trunc.header("Content-Length").unwrap().parse().unwrap();
        assert!(trunc.body.len() < declared, "body really is short");
        for kind in [FaultKind::DnsTimeout, FaultKind::SlowFirstByte] {
            let err = synthesize(kind, &profile).unwrap_err();
            assert_eq!(err.kind, kind);
            assert!(err.latency > SimDuration::ZERO);
        }
    }
}
