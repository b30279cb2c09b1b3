//! Impersonated brands and their legitimate login pages.
//!
//! The study covers five companies (one multinational travel-tech firm and
//! four it protects) whose *legitimate* login pages CrawlerBox compares
//! screenshots against (§V-A), plus the commodity services non-targeted
//! campaigns impersonate (§V-B). Each brand renders a distinctive login
//! page; lookalikes reuse the template with attacker modifications.

use cb_json::{Deserialize, Serialize};
use cb_netsim::{HttpRequest, HttpResponse, NetContext, SiteHandler};
use std::fmt;

/// An impersonation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Brand {
    /// The multinational travel-technology corporation (the study's host).
    Amadora,
    /// Travel platform subsidiary.
    SkyBook,
    /// Revenue-management subsidiary.
    FareLogic,
    /// Payments subsidiary.
    PayRoute,
    /// Content-aggregation subsidiary.
    TripAggregate,
    /// Generic fake Microsoft login (44 messages in §V-B).
    Microsoft,
    /// Microsoft Excel lure (20 messages).
    Excel,
    /// OneDrive lure (12 messages).
    OneDrive,
    /// Office 365 lure (11 messages).
    Office365,
    /// DocuSign lure (1 message).
    DocuSign,
    /// The long tail (42 messages).
    Other,
}

impl Brand {
    /// The five studied companies — the spear-phishing reference set.
    pub fn companies() -> [Brand; 5] {
        [
            Brand::Amadora,
            Brand::SkyBook,
            Brand::FareLogic,
            Brand::PayRoute,
            Brand::TripAggregate,
        ]
    }

    /// Commodity services used by non-targeted campaigns, with the §V-B
    /// message counts.
    pub fn commodity_services() -> [(Brand, usize); 6] {
        [
            (Brand::Microsoft, 44),
            (Brand::Excel, 20),
            (Brand::OneDrive, 12),
            (Brand::Office365, 11),
            (Brand::DocuSign, 1),
            (Brand::Other, 42),
        ]
    }

    /// The brand's legitimate domain.
    pub fn legit_domain(self) -> &'static str {
        match self {
            Brand::Amadora => "login.amadora.example",
            Brand::SkyBook => "sso.skybook.example",
            Brand::FareLogic => "portal.farelogic.example",
            Brand::PayRoute => "secure.payroute.example",
            Brand::TripAggregate => "id.tripaggregate.example",
            Brand::Microsoft => "login.microsoftonline.example",
            Brand::Excel => "excel.office.example",
            Brand::OneDrive => "onedrive.live.example",
            Brand::Office365 => "office365.example",
            Brand::DocuSign => "account.docusign.example",
            Brand::Other => "sso.generic-saas.example",
        }
    }

    /// Display name shown on the login page.
    pub fn display_name(self) -> &'static str {
        match self {
            Brand::Amadora => "Amadora",
            Brand::SkyBook => "SkyBook",
            Brand::FareLogic => "FareLogic",
            Brand::PayRoute => "PayRoute",
            Brand::TripAggregate => "TripAggregate",
            Brand::Microsoft => "Microsoft",
            Brand::Excel => "Microsoft Excel",
            Brand::OneDrive => "OneDrive",
            Brand::Office365 => "Office 365",
            Brand::DocuSign => "DocuSign",
            Brand::Other => "CloudPortal",
        }
    }

    /// Brand colour (header band), making each template visually distinct.
    pub fn color(self) -> &'static str {
        match self {
            Brand::Amadora => "#1033a0",
            Brand::SkyBook => "#0b7a4b",
            Brand::FareLogic => "#7a0b5e",
            Brand::PayRoute => "#a05a10",
            Brand::TripAggregate => "#106ba0",
            Brand::Microsoft => "#00a4ef",
            Brand::Excel => "#1d6f42",
            Brand::OneDrive => "#0364b8",
            Brand::Office365 => "#d83b01",
            Brand::DocuSign => "#4c00ff",
            Brand::Other => "#555555",
        }
    }

    /// URL of the brand's logo on its own infrastructure — the resource
    /// lookalikes hotlink (§V-A: 29.8% load the logo and background from
    /// the impersonated organization's domains).
    pub fn logo_url(self) -> String {
        format!("https://{}/assets/logo.png", self.legit_domain())
    }

    /// URL of the brand's background image.
    pub fn background_url(self) -> String {
        format!("https://{}/assets/background.jpg", self.legit_domain())
    }

    /// `true` for the five studied companies.
    pub fn is_company(self) -> bool {
        Brand::companies().contains(&self)
    }

    /// Shared page template: the brand's login page parameterized by where
    /// the form posts, which assets it loads, and attacker extras. The
    /// legitimate site and the lookalike generator both render through this,
    /// which is exactly why lookalikes hash close to their originals. Each
    /// company has a structurally distinct layout (as real corporate SSO
    /// pages do), so the classifier can tell the five references apart.
    #[allow(clippy::too_many_arguments)]
    pub fn page_template(
        self,
        form_action: &str,
        logo: &str,
        background: Option<&str>,
        head_extra: &str,
        body_attr: &str,
        extra_body: &str,
    ) -> String {
        let name = self.display_name();
        let color = self.color();
        let bg_img = background
            .map(|b| format!("<img src=\"{b}\">\n"))
            .unwrap_or_default();
        let form = format!(
            r#"<form action="{form_action}" method="post">
  <input type="text" name="username">
  <input type="password" name="password">
  <input type="submit" value="Sign in">
</form>"#
        );
        let body = match self {
            Brand::Amadora => format!(
                r#"<header style="background-color: {color}">{name} Single Sign-On</header>
<img src="{logo}">
{form}
<p>Use your {name} corporate account</p>
{bg_img}"#
            ),
            Brand::SkyBook => format!(
                r#"<header style="background-color: {color}">{name}</header>
<p>Welcome back. Sign in to continue to {name}.</p>
{form}
<img src="{logo}">
<p>Trouble signing in? Contact your administrator.</p>
<hr>
{bg_img}"#
            ),
            Brand::FareLogic => format!(
                r#"<img src="{logo}">
<header style="background-color: {color}">{name} Portal</header>
<p>Revenue management suite</p>
<hr>
{form}
<p>All activity is monitored.</p>
<p>© {name}</p>
{bg_img}"#
            ),
            Brand::PayRoute => format!(
                r#"<header style="background-color: {color}">{name} Secure Payments</header>
<h2>Operator sign-in</h2>
{form}
<hr>
<img src="{logo}">
<p>PCI-DSS compliant environment</p>
{bg_img}"#
            ),
            Brand::TripAggregate => format!(
                r#"<p>{name} partner network</p>
<img src="{logo}">
<header style="background-color: {color}">{name} ID</header>
{form}
<hr>
<p>One identity for every integration.</p>
<p>Need access? Request an account.</p>
<hr>
{bg_img}"#
            ),
            // Commodity services share the generic cloud-login skeleton.
            _ => format!(
                r#"<p>{name}</p>
<p>One account. One place to manage it all.</p>
<hr>
<form action="{form_action}" method="post">
  <input type="text" name="email">
  <hr>
  <input type="password" name="password">
  <hr>
  <input type="submit" value="Next">
</form>
<p>No account? Create one now</p>
<p>Privacy and cookies - Terms of use</p>
<img src="{logo}">
{bg_img}"#
            ),
        };
        format!(
            "<html><head><title>{name} - Sign in</title>{head_extra}</head>\n<body{body_attr}>\n{body}\n{extra_body}\n</body></html>"
        )
    }

    /// The brand's legitimate login page HTML.
    pub fn login_html(self, extra_body: &str) -> String {
        self.page_template(
            &format!("https://{}/session", self.legit_domain()),
            &self.logo_url(),
            None,
            "",
            "",
            extra_body,
        )
    }
}

impl fmt::Display for Brand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// The brand's legitimate site: serves the login page and its asset
/// resources. Host this on [`Brand::legit_domain`] so hotlinked requests
/// resolve — and record asset-request referrals, the paper's §V-A
/// early-detection defence: "by identifying referrals in requests made for
/// the aforementioned web resources within their own systems, organizations
/// can track, at early stages, pages impersonating their login sites."
#[derive(Debug, Clone)]
pub struct LegitSite {
    /// The brand served.
    pub brand: Brand,
    referrals: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
}

impl LegitSite {
    /// A legit site for `brand` with an empty referral log.
    pub fn new(brand: Brand) -> LegitSite {
        LegitSite {
            brand,
            referrals: std::sync::Arc::default(),
        }
    }

    /// Foreign Referer values observed on asset requests — each one is a
    /// page hotlinking this organization's resources.
    pub fn foreign_referrals(&self) -> Vec<String> {
        self.referrals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl SiteHandler for LegitSite {
    fn handle(&self, req: &HttpRequest, _ctx: &NetContext<'_>) -> HttpResponse {
        if req.url.path.starts_with("/assets/") {
            if let Some(referer) = req.header("Referer") {
                if !referer.contains(self.brand.legit_domain()) {
                    self.referrals
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(referer.to_string());
                }
            }
        }
        match req.url.path.as_str() {
            "/assets/logo.png" => HttpResponse::ok(
                "image/png",
                vec![0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A],
            ),
            "/assets/background.jpg" => {
                HttpResponse::ok("image/jpeg", vec![0xFF, 0xD8, 0xFF, 0xE0])
            }
            "/session" => HttpResponse::html("<p>Signed in</p>"),
            _ => HttpResponse::html(&self.brand.login_html("")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_companies_and_six_services() {
        assert_eq!(Brand::companies().len(), 5);
        let total: usize = Brand::commodity_services().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 130, "§V-B: 130 unique non-targeted pages");
    }

    #[test]
    fn domains_are_distinct() {
        use std::collections::HashSet;
        let mut all: Vec<Brand> = Brand::companies().to_vec();
        all.extend(Brand::commodity_services().iter().map(|(b, _)| *b));
        let domains: HashSet<&str> = all.iter().map(|b| b.legit_domain()).collect();
        assert_eq!(domains.len(), all.len());
    }

    #[test]
    fn login_page_has_credential_form_and_hotlinks() {
        let doc = cb_web::Document::parse(&Brand::Amadora.login_html(""));
        assert!(doc.has_password_field());
        assert!(doc.resource_urls().contains(&Brand::Amadora.logo_url()));
        assert_eq!(doc.title(), Some("Amadora - Sign in".to_string()));
    }

    #[test]
    fn legit_site_serves_assets() {
        use cb_sim::SimTime;
        let net = cb_netsim::Internet::new(SimTime::from_ymd(2024, 1, 1));
        let brand = Brand::SkyBook;
        net.register_domain(brand.legit_domain(), "CORP-REG");
        net.host(brand.legit_domain(), LegitSite::new(brand));
        let page = net.request(HttpRequest::get(&format!(
            "https://{}/",
            brand.legit_domain()
        )));
        assert_eq!(page.status, 200);
        assert!(page.body_text().contains("SkyBook"));
        let logo = net.request(HttpRequest::get(&brand.logo_url()));
        assert_eq!(logo.status, 200);
        assert_eq!(logo.header("Content-Type"), Some("image/png"));
    }

    #[test]
    fn brand_pages_render_distinctly() {
        use cb_imagehash::HashPair;
        use cb_web::{render, Document};
        let a = render::rasterize(&Document::parse(&Brand::Amadora.login_html("")), 480, 320);
        let m = render::rasterize(&Document::parse(&Brand::Microsoft.login_html("")), 480, 320);
        // same structural template ⇒ some similarity, but header text and
        // colours must not be pixel-identical
        assert_ne!(a, m);
        let self_dist = HashPair::of(&a).distance(&HashPair::of(&a));
        assert_eq!(self_dist, 0);
    }
}
