#![warn(missing_docs)]

//! Browsers and crawlers: the fingerprint surface bot detection probes, the
//! eight crawler profiles of the paper's Table I, and the page-visiting
//! engine CrawlerBox drives.
//!
//! The centrepiece is [`profiles`]: each open-source crawler the paper
//! benchmarked (Kangooroo, Lacus, Puppeteer + stealth, Selenium + stealth,
//! undetected_chromedriver, Nodriver, Selenium-Driverless) plus **NotABot**
//! is encoded by its documented tells — `navigator.webdriver` visibility,
//! `HeadlessChrome` UA markers, chromedriver `cdc_` artifacts, CDP
//! `Runtime.enable` leakage, the request-interception `Cache-Control` /
//! `Pragma` anomaly the paper discovered, TLS stack, event `isTrusted`,
//! synthetic mouse movement, and egress IP class.
//!
//! [`Browser`] executes visits against the [`cb_netsim::Internet`]: it
//! issues requests (attaching the truthful client attestation that
//! challenge scripts would measure — see `DESIGN.md` §4), parses HTML, runs
//! inline MJS with a faithful host environment, follows redirects, loads
//! subresources, and captures the final page as a lazy [`Screenshot`].

pub mod engine;
pub mod fingerprint;
pub mod hostimpl;
pub mod profiles;

pub use engine::{Browser, Screenshot, Visit, VisitOutcome, DEFAULT_VISIT_BUDGET};
pub use fingerprint::{BrowserFingerprint, ChallengeReport};
pub use profiles::CrawlerProfile;
