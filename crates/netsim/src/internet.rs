//! The shared world: clock + registries + hosted sites, behind one
//! thread-safe facade.

use crate::ca::{Certificate, CertificateAuthority};
use crate::dns::{DnsService, PassiveDnsLedger, QueryVolume};
use crate::faults::{FaultPlan, NetError, FAULT_HEADER};
use crate::http::{HttpRequest, HttpResponse};
use crate::ip::{IpAddress, IpClass, IpSpace};
use crate::url::DomainName;
use crate::whois::{DomainRegistry, WhoisRecord};
use cb_sim::{Clock, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-only view handed to site handlers: what a server can see of the
/// world (time, and the requesting client's classification).
#[derive(Debug)]
pub struct NetContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// ASN class of the requesting client.
    pub client_class: IpClass,
    /// The domain the request was routed to.
    pub domain: &'a DomainName,
}

/// A hosted site: takes requests, returns responses. Handlers use interior
/// mutability for state (visit counters, token burn lists) because crawls
/// run concurrently.
pub trait SiteHandler: Send + Sync {
    /// Serve one request.
    fn handle(&self, req: &HttpRequest, ctx: &NetContext<'_>) -> HttpResponse;
}

impl<F> SiteHandler for F
where
    F: Fn(&HttpRequest, &NetContext<'_>) -> HttpResponse + Send + Sync,
{
    fn handle(&self, req: &HttpRequest, ctx: &NetContext<'_>) -> HttpResponse {
        self(req, ctx)
    }
}

/// The §IV-C enrichment bundle for one host: everything the logging phase
/// looks up about a landing domain, fetched in one call so callers can
/// memoize it per scan. Every field is a pure function of the registries at
/// lookup time — crawling never mutates WHOIS, CT or banner state, and the
/// crawler's own requests are never recorded in the passive-DNS ledger
/// (see [`Internet::try_request`]).
#[derive(Debug, Clone, PartialEq, Eq, cb_json::Serialize, cb_json::Deserialize)]
pub struct HostEnrichment {
    /// WHOIS record of the host's domain, if registered.
    pub whois: Option<WhoisRecord>,
    /// First CT-log certificate for the host, if any was issued.
    pub first_certificate: Option<Certificate>,
    /// Passive-DNS query volume over the requested window.
    pub dns_volume: QueryVolume,
    /// Shodan-style service banner, if published.
    pub banner: Option<String>,
}

/// Shared read access to one of the world's registries. A poisoned lock is
/// recovered, not propagated: every guarded update is a single map or
/// ledger operation, so the data stays consistent, and one panicking
/// thread must not fail every later request.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to one of the world's registries; see [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The simulated internet.
pub struct Internet {
    clock: Arc<Clock>,
    ip_space: IpSpace,
    registry: RwLock<DomainRegistry>,
    ca: RwLock<CertificateAuthority>,
    dns: RwLock<DnsService>,
    passive_dns: RwLock<PassiveDnsLedger>,
    sites: RwLock<HashMap<DomainName, Arc<dyn SiteHandler>>>,
    banners: RwLock<HashMap<DomainName, String>>,
    fault_plan: RwLock<Option<FaultPlan>>,
}

impl std::fmt::Debug for Internet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Internet")
            .field("now", &self.clock.now())
            .field("domains", &read(&self.registry).len())
            .field("sites", &read(&self.sites).len())
            .finish()
    }
}

impl Internet {
    /// A world starting at `t0`.
    pub fn new(t0: SimTime) -> Internet {
        Internet {
            clock: Arc::new(Clock::starting_at(t0)),
            ip_space: IpSpace::new(),
            registry: RwLock::new(DomainRegistry::new()),
            ca: RwLock::new(CertificateAuthority::new()),
            dns: RwLock::new(DnsService::new()),
            passive_dns: RwLock::new(PassiveDnsLedger::new()),
            sites: RwLock::new(HashMap::new()),
            banners: RwLock::new(HashMap::new()),
            fault_plan: RwLock::new(None),
        }
    }

    /// Install a transient-fault plan. Subsequent requests pass through the
    /// injector before DNS resolution or handler dispatch, so faulted
    /// requests leave no trace in the world.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *write(&self.fault_plan) = Some(plan);
    }

    /// Remove the fault plan (the network becomes perfectly reliable again).
    pub fn clear_fault_plan(&self) {
        *write(&self.fault_plan) = None;
    }

    /// `true` when a fault plan is installed.
    pub fn fault_plan_active(&self) -> bool {
        read(&self.fault_plan).is_some()
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance simulated time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        self.clock.advance(d)
    }

    /// Allocate a client address of the given class.
    pub fn allocate_ip(&self, class: IpClass) -> IpAddress {
        self.ip_space.allocate(class)
    }

    /// Register `domain` now through `registrar`; also binds it in DNS to a
    /// fresh datacenter address. Returns `false` if already registered.
    pub fn register_domain(&self, domain: &str, registrar: &str) -> bool {
        self.register_domain_at(domain, registrar, self.now())
    }

    /// Register with an explicit timestamp (corpus generation backdates
    /// registrations — the paper's median is 24 days before delivery).
    pub fn register_domain_at(&self, domain: &str, registrar: &str, when: SimTime) -> bool {
        let fresh = write(&self.registry).register(domain, when, registrar);
        if fresh {
            let ip = self.ip_space.allocate(IpClass::Datacenter);
            write(&self.dns).bind(domain, ip);
        }
        fresh
    }

    /// Mark a registered domain as a compromised legitimate site.
    pub fn mark_compromised(&self, domain: &str) -> bool {
        write(&self.registry).mark_compromised(domain)
    }

    /// Issue a TLS certificate for `domain` now.
    pub fn issue_certificate(&self, domain: &str) -> Certificate {
        self.issue_certificate_at(domain, self.now())
    }

    /// Issue with an explicit timestamp.
    pub fn issue_certificate_at(&self, domain: &str, when: SimTime) -> Certificate {
        write(&self.ca).issue(domain, when).clone()
    }

    /// WHOIS lookup.
    pub fn whois(&self, domain: &str) -> Option<WhoisRecord> {
        read(&self.registry).lookup(domain).cloned()
    }

    /// First CT-log certificate for `domain`.
    pub fn first_certificate(&self, domain: &str) -> Option<Certificate> {
        read(&self.ca).first_for(domain).cloned()
    }

    /// Attach a site handler to `domain`.
    pub fn host<H: SiteHandler + 'static>(&self, domain: &str, handler: H) {
        write(&self.sites).insert(DomainName::new(domain), Arc::new(handler));
    }

    /// Detach the site (take-down); DNS stays bound, requests 404.
    pub fn take_down(&self, domain: &str) -> bool {
        write(&self.sites)
            .remove(&DomainName::new(domain))
            .is_some()
    }

    /// Remove the DNS binding entirely (NXDOMAIN thereafter).
    pub fn unbind_dns(&self, domain: &str) -> bool {
        write(&self.dns).unbind(domain)
    }

    /// Publish a Shodan-style service banner for a host (the enrichment
    /// source §IV-C names alongside WHOIS and Umbrella).
    pub fn set_banner(&self, domain: &str, banner: &str) {
        write(&self.banners).insert(DomainName::new(domain), banner.to_string());
    }

    /// The service banner Shodan-style scanning would report for `domain`.
    pub fn banner(&self, domain: &str) -> Option<String> {
        read(&self.banners).get(&DomainName::new(domain)).cloned()
    }

    /// Record background DNS traffic for a domain (victim visits observed
    /// by the passive-DNS feed).
    pub fn record_dns_traffic(&self, domain: &str, when: SimTime, queries: u64) {
        write(&self.passive_dns).record(&DomainName::new(domain), when, queries);
    }

    /// Umbrella-style volume lookup.
    pub fn dns_volume(&self, domain: &str, end: SimTime, window: SimDuration) -> QueryVolume {
        read(&self.passive_dns).volume(&DomainName::new(domain), end, window)
    }

    /// The full enrichment bundle for `host`: WHOIS, first CT certificate,
    /// passive-DNS volume over `window` ending at `end` and service banner,
    /// exactly as the logging phase issues them individually. One call
    /// takes (and releases) each registry lock once, and the returned value
    /// is self-contained — safe to memoize by host for any fixed
    /// `(end, window)`.
    pub fn enrich(&self, host: &str, end: SimTime, window: SimDuration) -> HostEnrichment {
        let e = HostEnrichment {
            whois: self.whois(host),
            first_certificate: self.first_certificate(host),
            dns_volume: self.dns_volume(host, end, window),
            banner: self.banner(host),
        };
        // Registries are immutable during a scan, so this lookup — and
        // therefore the event — is deterministic per (host, end, window).
        cb_telemetry::with_active(|t| {
            t.instant(
                "net.enrich",
                vec![
                    ("host", host.to_string()),
                    ("whois", e.whois.is_some().to_string()),
                    ("ct", e.first_certificate.is_some().to_string()),
                    ("dns_total", e.dns_volume.total.to_string()),
                ],
            );
        });
        e
    }

    /// Issue a request as a victim's browser would: resolve DNS (recorded
    /// in the passive ledger), dispatch to the hosted site.
    ///
    /// * unresolvable name → status **0** (the "NXDomain error, page
    ///   unreachable" class of §V)
    /// * resolvable but unhosted → 404
    ///
    /// Transport-level injected faults surface as a status-0 response
    /// tagged with [`FAULT_HEADER`]; fault-aware clients should call
    /// [`Internet::try_request`] instead.
    pub fn request(&self, req: HttpRequest) -> HttpResponse {
        self.dispatch(req, true).unwrap_or_else(|err| HttpResponse {
            status: 0,
            headers: vec![(FAULT_HEADER.to_string(), err.kind.label().to_string())],
            body: err.to_string().into_bytes(),
        })
    }

    /// Like [`Internet::request`], but transport-level injected faults
    /// (DNS timeout, connection reset, TLS failure, first-byte stall) come
    /// back as `Err(NetError)`. The fault decision happens **before** DNS
    /// resolution, passive-DNS recording and handler dispatch — a faulted
    /// request has no side effects, so a retry observes pristine state.
    ///
    /// This is the crawler's entry point, and the crawler resolves through
    /// its own resolver, which the passive-DNS feed does not see (the
    /// paper's Umbrella data never includes CrawlerBox's lookups). Its
    /// requests are therefore not recorded in the ledger: the `dns_volume`
    /// an enrichment reads cannot depend on which scans ran before it.
    pub fn try_request(&self, req: HttpRequest) -> Result<HttpResponse, NetError> {
        self.dispatch(req, false)
    }

    /// Fault injection, DNS resolution and handler dispatch for both entry
    /// points; `passive` records the resolution in the passive-DNS ledger.
    fn dispatch(&self, req: HttpRequest, passive: bool) -> Result<HttpResponse, NetError> {
        if let Some(plan) = read(&self.fault_plan).as_ref() {
            if let Some(fate) = plan.decide(&req) {
                // `decide` is pure in (plan seed, URL, attempt), so fault
                // provenance is a deterministic trace field.
                cb_telemetry::with_active(|t| {
                    let kind = match &fate {
                        Err(e) => e.kind.label().to_string(),
                        Ok(resp) => resp
                            .headers
                            .iter()
                            .find(|(k, _)| k == FAULT_HEADER)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_else(|| format!("http-{}", resp.status)),
                    };
                    t.instant(
                        "net.fault",
                        vec![
                            ("url", req.url.to_string()),
                            ("attempt", req.attempt.to_string()),
                            ("kind", kind),
                        ],
                    );
                });
                return fate;
            }
        }
        let domain = DomainName::new(&req.url.host);
        let now = self.now();
        if read(&self.dns).resolve(domain.as_str()).is_err() {
            return Ok(HttpResponse {
                status: 0,
                headers: Vec::new(),
                body: b"NXDOMAIN".to_vec(),
            });
        }
        if passive {
            write(&self.passive_dns).record(&domain, now, 1);
        }
        let handler = read(&self.sites).get(&domain).cloned();
        Ok(match handler {
            Some(h) => {
                let ctx = NetContext {
                    now,
                    client_class: IpSpace::classify(req.client_ip),
                    domain: &domain,
                };
                h.handle(&req, &ctx)
            }
            None => HttpResponse::not_found(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_site(body: &'static str) -> impl SiteHandler {
        move |_req: &HttpRequest, _ctx: &NetContext<'_>| HttpResponse::html(body)
    }

    #[test]
    fn end_to_end_request() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("site.example", "REG");
        net.host("site.example", static_site("<html>hello</html>"));
        let resp = net.request(HttpRequest::get("https://site.example/"));
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("hello"));
    }

    #[test]
    fn unregistered_domain_is_unreachable() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let resp = net.request(HttpRequest::get("https://ghost.example/"));
        assert_eq!(resp.status, 0);
    }

    #[test]
    fn registered_but_unhosted_is_404() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("parked.example", "REG");
        assert_eq!(
            net.request(HttpRequest::get("https://parked.example/"))
                .status,
            404
        );
    }

    #[test]
    fn take_down_and_unbind() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("ephemeral.example", "REG");
        net.host("ephemeral.example", static_site("up"));
        assert_eq!(
            net.request(HttpRequest::get("https://ephemeral.example/"))
                .status,
            200
        );
        assert!(net.take_down("ephemeral.example"));
        assert_eq!(
            net.request(HttpRequest::get("https://ephemeral.example/"))
                .status,
            404
        );
        assert!(net.unbind_dns("ephemeral.example"));
        assert_eq!(
            net.request(HttpRequest::get("https://ephemeral.example/"))
                .status,
            0
        );
    }

    #[test]
    fn requests_feed_passive_dns() {
        let net = Internet::new(SimTime::from_ymd(2024, 2, 1));
        net.register_domain("watched.example", "REG");
        net.host("watched.example", static_site("x"));
        for _ in 0..5 {
            net.request(HttpRequest::get("https://watched.example/"));
        }
        // The crawler's own lookups stay out of the feed.
        for _ in 0..3 {
            net.try_request(HttpRequest::get("https://watched.example/"))
                .expect("no fault plan installed");
        }
        let v = net.dns_volume("watched.example", net.now(), SimDuration::days(30));
        assert_eq!(v.total, 5);
        assert_eq!(v.max_per_day, 5);
    }

    #[test]
    fn handler_sees_client_class_and_time() {
        let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
        net.register_domain("filter.example", "REG");
        net.host(
            "filter.example",
            |req: &HttpRequest, ctx: &NetContext<'_>| {
                let _ = req;
                if ctx.client_class == IpClass::Datacenter {
                    HttpResponse::forbidden()
                } else {
                    HttpResponse::html("welcome human")
                }
            },
        );
        let mut from_dc = HttpRequest::get("https://filter.example/");
        from_dc.client_ip = net.allocate_ip(IpClass::Datacenter);
        assert_eq!(net.request(from_dc).status, 403);
        let mut from_mobile = HttpRequest::get("https://filter.example/");
        from_mobile.client_ip = net.allocate_ip(IpClass::MobileCarrier);
        assert_eq!(net.request(from_mobile).status, 200);
    }

    #[test]
    fn banners_enrich_hosts() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.set_banner("kit.example", "nginx/1.24.0 (Ubuntu)");
        assert_eq!(
            net.banner("KIT.example").as_deref(),
            Some("nginx/1.24.0 (Ubuntu)")
        );
        assert_eq!(net.banner("other.example"), None);
    }

    #[test]
    fn whois_and_ct_queries() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let reg_time = SimTime::from_ymd(2023, 12, 8);
        net.register_domain_at("planned.example", "REGRU-RU", reg_time);
        let cert_time = SimTime::from_ymd(2023, 12, 24);
        net.issue_certificate_at("planned.example", cert_time);
        assert_eq!(
            net.whois("planned.example").unwrap().registered_at,
            reg_time
        );
        assert_eq!(
            net.first_certificate("planned.example").unwrap().issued_at,
            cert_time
        );
    }

    #[test]
    fn enrich_bundles_the_individual_lookups() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let reg_time = SimTime::from_ymd(2023, 12, 8);
        net.register_domain_at("bundle.example", "REGRU-RU", reg_time);
        net.issue_certificate_at("bundle.example", SimTime::from_ymd(2023, 12, 24));
        net.set_banner("bundle.example", "nginx/1.24.0");
        net.record_dns_traffic("bundle.example", SimTime::from_ymd(2023, 12, 30), 7);
        let end = SimTime::from_ymd(2024, 1, 1);
        let window = SimDuration::days(30);
        let e = net.enrich("bundle.example", end, window);
        assert_eq!(e.whois, net.whois("bundle.example"));
        assert_eq!(e.first_certificate, net.first_certificate("bundle.example"));
        assert_eq!(e.dns_volume, net.dns_volume("bundle.example", end, window));
        assert_eq!(e.banner.as_deref(), Some("nginx/1.24.0"));
        assert_eq!(e.dns_volume.total, 7);
        // An unknown host enriches to an all-empty bundle, not an error.
        let empty = net.enrich("ghost.example", end, window);
        assert!(empty.whois.is_none() && empty.first_certificate.is_none());
        assert!(empty.banner.is_none());
        assert_eq!(empty.dns_volume.total, 0);
    }

    #[test]
    fn faulted_requests_have_no_side_effects() {
        use crate::faults::FaultPlan;
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("flaky.example", "REG");
        net.host("flaky.example", static_site("eventually"));
        net.set_fault_plan(FaultPlan::uniform(11, 1.0));
        assert!(net.fault_plan_active());
        // Attempt 0 always faults at rate 1.0; whatever the outcome shape,
        // the passive-DNS ledger must not have recorded the request (the
        // recording entry point is the victim-side `request`).
        let mut req = HttpRequest::get("https://flaky.example/page");
        req.attempt = 0;
        let resp = net.request(req);
        assert!(
            resp.header(FAULT_HEADER).is_some(),
            "rate-1.0 plan faults the first attempt"
        );
        assert_eq!(
            net.dns_volume("flaky.example", net.now(), SimDuration::days(1))
                .total,
            0,
            "faulted request left a passive-DNS trace"
        );
        // A late-enough attempt gets through and is recorded.
        let mut retry = HttpRequest::get("https://flaky.example/page");
        retry.attempt = 8;
        let resp = net.request(retry);
        assert_eq!(resp.status, 200);
        assert_eq!(
            net.dns_volume("flaky.example", net.now(), SimDuration::days(1))
                .total,
            1
        );
        net.clear_fault_plan();
        assert!(!net.fault_plan_active());
        let resp = net.request(HttpRequest::get("https://flaky.example/page"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn request_maps_net_errors_to_tagged_status_zero() {
        use crate::faults::FaultKind;
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("reset.example", "REG");
        net.host("reset.example", static_site("up"));
        net.set_fault_plan(FaultPlan::uniform(1, 0.0).with_host(
            "reset.example",
            crate::faults::FaultProfile {
                rate: 1.0,
                kinds: vec![FaultKind::ConnectionReset],
                ..Default::default()
            },
        ));
        let resp = net.request(HttpRequest::get("https://reset.example/"));
        assert_eq!(resp.status, 0);
        assert_eq!(resp.header(FAULT_HEADER), Some("connection-reset"));
    }

    #[test]
    fn concurrent_requests_are_safe() {
        let net = Arc::new(Internet::new(SimTime::from_ymd(2024, 1, 1)));
        net.register_domain("busy.example", "REG");
        net.host("busy.example", static_site("ok"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let n = net.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    assert_eq!(
                        n.request(HttpRequest::get("https://busy.example/")).status,
                        200
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            net.dns_volume("busy.example", net.now(), SimDuration::days(1))
                .total,
            200
        );
    }
}
