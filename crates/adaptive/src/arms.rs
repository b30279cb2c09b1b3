//! The structured arm space: every arm is a concrete crawler profile the
//! adaptive policy can field, built by mutating NotABot along four axes.
//!
//! The axes mirror the cloaking layers the kits actually filter on:
//!
//! * **UA family** — desktop vs mobile Chrome (QR campaigns serve mobile
//!   only, and the UA is part of the kit-side device signature);
//! * **IP egress class** — all four [`IpClass`]es (IP blocklists and the
//!   per-class reputation memory);
//! * **patience** — how long a meta-refresh delay the browser waits out
//!   (delayed-reveal holding pages);
//! * **interaction** — whether synthetic input is trusted-event grade
//!   (challenge attestation).
//!
//! Patience is the one axis the kit-side device signature
//! ([`cb_botdetect::report_signature`]) cannot see — a patient revisit
//! looks like the same returning device, while a UA or egress mutation
//! reads as a fresh one. The bandit discovers this, it is not told.

use cb_browser::{Browser, CrawlerProfile};
use cb_json::{Deserialize, Serialize};
use cb_netsim::IpClass;

/// Mobile-Chrome UA used by the mobile arms. Contains `Android`/`Mobile`
/// (passes kit-side mobile filters) while still claiming Chrome, so the
/// WAF heuristics treat it as a real browser.
pub const MOBILE_UA: &str = "Mozilla/5.0 (Linux; Android 14; Pixel 8) AppleWebKit/537.36 \
                             (KHTML, like Gecko) Chrome/121.0.0.0 Mobile Safari/537.36";

/// Patience levels (seconds) the timing axis sweeps: NotABot's stock 60 s
/// and a patient 300 s that outwaits every delayed reveal the corpus
/// generates.
pub const PATIENCE_LEVELS: [u32; 2] = [60, 300];

/// User-Agent family of an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UaFamily {
    /// Desktop Chrome on Windows (NotABot stock).
    Desktop,
    /// Mobile Chrome on Android ([`MOBILE_UA`]).
    Mobile,
}

impl UaFamily {
    fn label(self) -> &'static str {
        match self {
            UaFamily::Desktop => "desktop",
            UaFamily::Mobile => "mobile",
        }
    }
}

/// One point in the arm space: a complete visit profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arm {
    /// User-Agent family.
    pub ua: UaFamily,
    /// IP egress class of the visit.
    pub egress: IpClass,
    /// Meta-refresh patience in seconds.
    pub patience_secs: u32,
    /// Trusted-event-grade synthetic interaction on or off.
    pub interact: bool,
}

impl Arm {
    /// The full arm space in its fixed canonical order:
    /// `ua × egress (IpClass::ALL order) × patience × interact`,
    /// 2 × 4 × 2 × 2 = 32 arms. [`Arm::index`] inverts this ordering;
    /// never reorder.
    pub fn space() -> Vec<Arm> {
        let mut arms = Vec::with_capacity(32);
        for ua in [UaFamily::Desktop, UaFamily::Mobile] {
            for egress in IpClass::ALL {
                for patience_secs in PATIENCE_LEVELS {
                    for interact in [true, false] {
                        arms.push(Arm {
                            ua,
                            egress,
                            patience_secs,
                            interact,
                        });
                    }
                }
            }
        }
        arms
    }

    /// This arm's position in [`Arm::space`].
    pub fn index(&self) -> usize {
        let ua = match self.ua {
            UaFamily::Desktop => 0,
            UaFamily::Mobile => 1,
        };
        let egress = IpClass::ALL
            .iter()
            .position(|c| *c == self.egress)
            .expect("IpClass::ALL is exhaustive");
        let patience = PATIENCE_LEVELS
            .iter()
            .position(|p| *p == self.patience_secs)
            .expect("arm patience comes from PATIENCE_LEVELS");
        let interact = usize::from(!self.interact);
        ua * 16 + egress * 4 + patience * 2 + interact
    }

    /// The fixed baseline: exactly NotABot's stock posture (desktop
    /// Chrome, 4G mobile-carrier egress, 60 s patience, trusted
    /// interaction). The "fixed NotABot" strategy fields this arm on
    /// every visit.
    pub fn notabot() -> Arm {
        Arm {
            ua: UaFamily::Desktop,
            egress: IpClass::MobileCarrier,
            patience_secs: 60,
            interact: true,
        }
    }

    /// Stable human-readable label, e.g.
    /// `desktop/mobile-carrier/60s/interact`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}s/{}",
            self.ua.label(),
            self.egress,
            self.patience_secs,
            if self.interact {
                "interact"
            } else {
                "no-interact"
            },
        )
    }

    /// Build the arm's browser: NotABot with the fingerprint mutated
    /// along this arm's axes. Everything not on an axis (TLS stack,
    /// automation tells, locale) stays NotABot-grade — the point of the
    /// race is that the *same* high-quality crawler rotates its visible
    /// identity, not that it degrades.
    pub fn browser(&self) -> Browser {
        let mut fp = CrawlerProfile::NotABot.fingerprint();
        if self.ua == UaFamily::Mobile {
            fp.user_agent = MOBILE_UA.to_string();
            fp.screen = (412, 915);
        }
        fp.ip_class = self.egress;
        if !self.interact {
            fp.trusted_events = false;
            fp.mouse_movement = false;
        }
        Browser::new(CrawlerProfile::NotABot)
            .with_patience(self.patience_secs)
            .with_fingerprint(fp)
    }
}

/// The canonical probe sweep: the curated arms a fresh policy tries
/// first, in this order, before epsilon-greedy takes over. Six probes
/// cover every axis the cloaking layers key on — baseline, a UA flip, a
/// patience flip, two egress rotations and a deliberately bad egress
/// (datacenter) so the policy also *learns* what gets blocked.
pub fn canonical_probes() -> Vec<usize> {
    [
        Arm::notabot(),
        Arm {
            ua: UaFamily::Mobile,
            ..Arm::notabot()
        },
        Arm {
            patience_secs: 300,
            ..Arm::notabot()
        },
        Arm {
            egress: IpClass::Residential,
            ..Arm::notabot()
        },
        Arm {
            ua: UaFamily::Mobile,
            egress: IpClass::Residential,
            patience_secs: 300,
            interact: true,
        },
        Arm {
            egress: IpClass::Datacenter,
            ..Arm::notabot()
        },
    ]
    .iter()
    .map(Arm::index)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_32_arms_and_index_inverts_it() {
        let space = Arm::space();
        assert_eq!(space.len(), 32);
        for (i, arm) in space.iter().enumerate() {
            assert_eq!(arm.index(), i, "index() must invert space() order");
        }
    }

    #[test]
    fn notabot_arm_matches_the_stock_profile() {
        let stock = CrawlerProfile::NotABot.fingerprint();
        let b = Arm::notabot().browser();
        assert_eq!(b.fingerprint().user_agent, stock.user_agent);
        assert_eq!(b.fingerprint().ip_class, stock.ip_class);
        assert_eq!(b.patience_secs(), CrawlerProfile::NotABot.patience_secs());
    }

    #[test]
    fn canonical_probes_are_distinct_and_start_at_the_baseline() {
        let probes = canonical_probes();
        assert_eq!(probes[0], Arm::notabot().index());
        let mut dedup = probes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), probes.len(), "probes must be distinct arms");
    }

    #[test]
    fn mobile_arm_reads_as_mobile_but_keeps_notabot_tells() {
        let arm = Arm {
            ua: UaFamily::Mobile,
            ..Arm::notabot()
        };
        let fp = arm.browser().fingerprint().clone();
        assert!(fp.user_agent.contains("Android"));
        assert!(!fp.webdriver_visible);
        assert!(fp.trusted_events);
    }
}
