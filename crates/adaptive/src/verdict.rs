//! The cloaking-verdict taxonomy: what one supervised visit told the
//! adaptive crawler about the campaign's posture towards this profile.

use cb_browser::engine::VisitOutcome;
use cb_json::{Deserialize, Serialize};
use crawlerbox::VisitLog;

/// What a visit revealed. This is the bandit's reward signal: only
/// [`CloakVerdict::Uncloaked`] counts as a win, but the distinction
/// between the three failure modes is kept — it is forensic evidence
/// (which cloaking layer fired?) and it feeds the telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CloakVerdict {
    /// Nothing usable came back: transport failure, HTTP error, redirect
    /// loop, an exhausted visit budget, or an open circuit breaker.
    BlockPage,
    /// A page rendered, but it was the decoy: no credential form.
    BenignDecoy,
    /// The final page demands interaction this profile cannot perform —
    /// the challenge layer fired and was not satisfied.
    FingerprintChallenge,
    /// The credential-harvesting page itself: the campaign de-cloaked.
    Uncloaked,
}

impl CloakVerdict {
    /// Stable lowercase label (used in telemetry fields, counters and the
    /// experiment table).
    pub fn label(self) -> &'static str {
        match self {
            CloakVerdict::BlockPage => "block-page",
            CloakVerdict::BenignDecoy => "benign-decoy",
            CloakVerdict::FingerprintChallenge => "fingerprint-challenge",
            CloakVerdict::Uncloaked => "uncloaked",
        }
    }
}

/// Collapse a supervised visit into its cloaking verdict.
///
/// The login form is the ground truth for de-cloaking: a kit that decided
/// to serve the phish always renders the credential form (that is what a
/// phishing page *is*), and every decoy — benign page, holding page,
/// burned-profile page — does not.
pub fn classify(log: &VisitLog) -> CloakVerdict {
    if log.login_form {
        return CloakVerdict::Uncloaked;
    }
    match log.outcome {
        VisitOutcome::InteractionRequired => CloakVerdict::FingerprintChallenge,
        VisitOutcome::Loaded | VisitOutcome::Download => CloakVerdict::BenignDecoy,
        VisitOutcome::Unreachable
        | VisitOutcome::HttpError(_)
        | VisitOutcome::RedirectLoop
        | VisitOutcome::Timeout
        | VisitOutcome::NetError(_)
        | VisitOutcome::Truncated => CloakVerdict::BlockPage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(outcome: VisitOutcome, login_form: bool) -> VisitLog {
        VisitLog {
            requested_url: "https://x.example/".to_string(),
            chain: Vec::new(),
            outcome,
            status: 200,
            login_form,
            screenshot_hash: None,
            spear: None,
            subresources: Vec::new(),
            exfil: Vec::new(),
            console_hijacked: false,
            debugger_hits: 0,
            gates_solved: Vec::new(),
            domain_registered_at: None,
            registrar: None,
            cert_issued_at: None,
            dns_volume: None,
            banner: None,
            cert_fingerprint: None,
            hue_rotated: false,
            attempts: Vec::new(),
            elapsed: Default::default(),
            error: None,
        }
    }

    #[test]
    fn login_form_wins_over_outcome() {
        assert_eq!(
            classify(&log(VisitOutcome::Loaded, true)),
            CloakVerdict::Uncloaked
        );
    }

    #[test]
    fn decoy_and_challenge_and_block_are_distinguished() {
        assert_eq!(
            classify(&log(VisitOutcome::Loaded, false)),
            CloakVerdict::BenignDecoy
        );
        assert_eq!(
            classify(&log(VisitOutcome::InteractionRequired, false)),
            CloakVerdict::FingerprintChallenge
        );
        assert_eq!(
            classify(&log(VisitOutcome::Unreachable, false)),
            CloakVerdict::BlockPage
        );
        assert_eq!(
            classify(&log(VisitOutcome::Timeout, false)),
            CloakVerdict::BlockPage
        );
    }
}
