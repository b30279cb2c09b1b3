//! Landing-domain synthesis: names (Table II TLD mix, §V-A lexical
//! properties), registration and certificate timelines (Figure 3), and the
//! compromised/abused-service outlier classes.

use crate::spec::CorpusSpec;
use cb_json::{Deserialize, Serialize};
use cb_sim::rng::Rng;
use cb_sim::rng::StdRng;
use cb_sim::{SimDuration, SimTime};

/// How a landing domain came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainOrigin {
    /// Registered from scratch by the attacker.
    Fresh,
    /// A legitimate small-business domain, compromised.
    Compromised,
    /// A legitimate hosting service abused (vercel.app-style platforms).
    AbusedService,
}

/// One synthesized landing domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LandingDomain {
    /// Fully qualified name.
    pub name: String,
    /// Provenance class.
    pub origin: DomainOrigin,
    /// Registration instant (WHOIS creation date).
    pub registered_at: SimTime,
    /// TLS certificate issuance instant.
    pub cert_issued_at: SimTime,
    /// Sponsoring registrar.
    pub registrar: String,
    /// Whether the name uses a deceptive lexical trick (82 of 522 do).
    pub deceptive_name: bool,
}

/// Neutral word pools for unremarkable domain names — most landing domains
/// "do not use any of these tricks" and thereby dodge CT-log scanners.
const NEUTRAL_WORDS: &[&str] = &[
    "cloud", "portal", "secure", "online", "account", "service", "update", "notify", "sync", "hub",
    "platform", "connect", "digital", "system", "access", "center", "zone", "apex", "nimbus",
    "quartz", "stream", "vault", "matrix", "prime", "orbit", "pulse", "nova", "echo",
];

/// Deceptive-name generators (§V-A: combosquatting, target embedding,
/// homoglyphs, keyword stuffing, typosquatting — and **zero** punycode).
fn deceptive_name(rng: &mut StdRng, idx: usize, tld: &str) -> String {
    let brands = [
        "amadora",
        "skybook",
        "farelogic",
        "payroute",
        "tripaggregate",
    ];
    let brand = brands[idx % brands.len()];
    let serial = idx / 5; // keeps repeated patterns unique
    match idx % 5 {
        // combosquatting: brand + keyword
        0 => format!("{brand}-login{serial}{tld}"),
        // target embedding: brand inside a larger name
        1 => format!("sso-{brand}-accounts-verify{serial}{tld}"),
        // homoglyph (ASCII-only lookalike substitution, not punycode)
        2 => format!("{}{serial}{tld}", brand.replace('o', "0").replace('l', "1")),
        // keyword stuffing
        3 => format!("secure-login-verify-{brand}{serial}{tld}"),
        // typosquatting: dropped character
        _ => {
            let mut s = brand.to_string();
            let drop = rng.gen_range(1..s.len());
            s.remove(drop);
            format!("{s}{serial}{tld}")
        }
    }
}

fn neutral_name(rng: &mut StdRng, idx: usize, tld: &str) -> String {
    let a = NEUTRAL_WORDS[rng.gen_range(0..NEUTRAL_WORDS.len())];
    let b = NEUTRAL_WORDS[rng.gen_range(0..NEUTRAL_WORDS.len())];
    format!("{a}-{b}-{idx}{tld}")
}

/// Abused legitimate platforms (the paper lists vercel.app,
/// cloudflare-ipfs.com, workers.dev, r2.dev, oraclecloud.com,
/// cloudfront.net).
const ABUSED_PLATFORMS: &[&str] = &[
    "vercel.app.example",
    "cloudflare-ipfs.example",
    "workers.dev.example",
    "r2.dev.example",
    "oraclecloud.example",
    "cloudfront.example",
];

/// The `.ru` registrars the paper enumerates.
const RU_REGISTRARS: &[&str] = &[
    "REGRU-RU",
    "R01-RU",
    "RU-CENTER-RU",
    "REGTIME-RU",
    "OPENPROV-RU",
];

fn registrar_for(tld: &str, rng: &mut StdRng) -> String {
    if tld == ".ru" {
        RU_REGISTRARS[rng.gen_range(0..RU_REGISTRARS.len())].to_string()
    } else {
        ["NameBay", "GlobalReg", "HostPort", "DomainDesk"][rng.gen_range(0..4)].to_string()
    }
}

/// Draw `timedeltaA` (registration → delivery) in days: a right-skewed
/// body on [0, 90) covering ~80.5% of domains, plus an exponential tail
/// beyond 90 days. Calibrated so the median lands near 24 days (575 h) and
/// the tail share matches 102/522.
fn draw_tdelta_a_days(rng: &mut StdRng, tail_share: f64) -> f64 {
    if rng.gen_bool(tail_share) {
        // tail: 90 days + Exp(mean 90 d), capped — calibrated so the full
        // distribution's excess kurtosis lands near the paper's 8.4
        let u: f64 = rng.gen_range(1e-6..1.0);
        (90.0 - 90.0 * u.ln()).min(500.0)
    } else {
        // body: 90 · u^2.774 has its 62nd percentile at ≈ 24 days, which is
        // the overall median once the 19.5% tail sits above it.
        let u: f64 = rng.gen();
        90.0 * u.powf(2.774)
    }
}

/// Draw `timedeltaB` (certificate → delivery) in days: tighter — attackers
/// obtain certificates closer to launch. Median ≈ 7.7 days; ~1% beyond 90.
fn draw_tdelta_b_days(rng: &mut StdRng, tail_share: f64) -> f64 {
    if rng.gen_bool(tail_share) {
        let u: f64 = rng.gen_range(1e-6..1.0);
        (90.0 - 120.0 * u.ln()).min(1200.0)
    } else {
        let u: f64 = rng.gen();
        90.0 * u.powf(3.5)
    }
}

/// Generate the landing-domain set. `mean_delivery` anchors the timedeltas
/// (the paper measures against each domain's average message delivery
/// time; generation uses the window centre and the per-message schedule
/// refines it).
pub fn generate_domains(
    spec: &CorpusSpec,
    rng: &mut StdRng,
    mean_delivery: SimTime,
) -> Vec<LandingDomain> {
    let total = spec.scaled(spec.landing_domains);
    let deceptive_target = spec.scaled(spec.lexical_deceptive_domains);
    let compromised_target = spec.scaled(spec.compromised_domains);
    let abused_target = spec.scaled(spec.abused_service_domains);
    // The >90-day class includes the compromised/abused old domains; the
    // fresh-domain tail covers only the remainder.
    let tail_a = (spec
        .tdelta_a_over_90d
        .saturating_sub(spec.compromised_domains + spec.abused_service_domains))
        as f64
        / (spec.landing_domains - spec.compromised_domains - spec.abused_service_domains) as f64;
    let tail_b = spec.tdelta_b_over_90d as f64 / spec.landing_domains as f64;

    // Expand the TLD histogram into a scaled list of TLD slots.
    let mut tld_slots: Vec<&str> = Vec::with_capacity(total);
    for (tld, count) in &spec.tld_distribution {
        let scaled = (*count as f64 * total as f64 / spec.landing_domains as f64).round() as usize;
        for _ in 0..scaled {
            tld_slots.push(tld.as_str());
        }
    }
    while tld_slots.len() < total {
        tld_slots.push(".com");
    }
    tld_slots.truncate(total);

    let mut out = Vec::with_capacity(total);
    for (i, tld) in tld_slots.iter().enumerate() {
        let origin = if i < abused_target {
            DomainOrigin::AbusedService
        } else if i < abused_target + compromised_target {
            DomainOrigin::Compromised
        } else {
            DomainOrigin::Fresh
        };
        let deceptive = origin == DomainOrigin::Fresh
            && out
                .iter()
                .filter(|d: &&LandingDomain| d.deceptive_name)
                .count()
                < deceptive_target;
        let name = match origin {
            DomainOrigin::AbusedService => format!(
                "campaign-{i}.{}",
                ABUSED_PLATFORMS[i % ABUSED_PLATFORMS.len()]
            ),
            DomainOrigin::Compromised => format!("smallbiz-{i}{tld}"),
            DomainOrigin::Fresh => {
                if deceptive {
                    deceptive_name(rng, i, tld)
                } else {
                    neutral_name(rng, i, tld)
                }
            }
        };

        let (registered_at, cert_issued_at) = match origin {
            DomainOrigin::Fresh => {
                let a_days = draw_tdelta_a_days(rng, tail_a);
                // The certificate comes after registration and close to
                // launch: tdB = min(tdA, 90·u^2.1) puts the overall tdB
                // median at ≈ 7.9 days (185 h) given tdA's distribution,
                // with no fresh-domain certificates older than 90 days —
                // the >90-day tdB outliers are the compromised sites.
                let _ = tail_b;
                let u: f64 = rng.gen();
                let b_days = (90.0 * u.powf(2.1)).min(a_days);
                (
                    mean_delivery - SimDuration::seconds((a_days * 86_400.0) as i64),
                    mean_delivery - SimDuration::seconds((b_days * 86_400.0) as i64),
                )
            }
            DomainOrigin::Compromised => {
                // Legitimate domains registered years ago; most renewed
                // their certificates recently, a few (the timedeltaB
                // outliers) hold long-lived certificates.
                let age_days = rng.gen_range(200.0..600.0);
                let cert_days = if rng.gen_bool(0.2) {
                    rng.gen_range(100.0..300.0)
                } else {
                    draw_tdelta_b_days(rng, 0.0)
                };
                (
                    mean_delivery - SimDuration::seconds((age_days * 86_400.0) as i64),
                    mean_delivery - SimDuration::seconds((cert_days * 86_400.0) as i64),
                )
            }
            DomainOrigin::AbusedService => {
                // The *subdomain* inherits the platform's registration, but
                // the measurable timeline is the campaign deployment on the
                // platform: a few months to a couple of years back.
                let age_days = rng.gen_range(250.0..700.0);
                let cert_days = rng.gen_range(1.0..45.0);
                (
                    mean_delivery - SimDuration::seconds((age_days * 86_400.0) as i64),
                    mean_delivery - SimDuration::seconds((cert_days * 86_400.0) as i64),
                )
            }
        };

        let registrar = registrar_for(tld, rng);
        out.push(LandingDomain {
            name,
            origin,
            registered_at,
            cert_issued_at,
            registrar,
            deceptive_name: deceptive,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_netsim::DomainName;
    use cb_sim::SeedFork;
    use cb_stats::Describe;

    fn generate_full() -> Vec<LandingDomain> {
        let spec = CorpusSpec::paper();
        let mut rng = SeedFork::new(7).rng("domains");
        generate_domains(&spec, &mut rng, SimTime::from_ymd(2024, 6, 1))
    }

    #[test]
    fn count_and_tld_mix() {
        let domains = generate_full();
        assert_eq!(domains.len(), 522);
        let com = domains
            .iter()
            .filter(|d| DomainName::new(&d.name).tld() == ".com")
            .count();
        // .com target 262 (the compromised/abused classes replace a few)
        assert!((230..=290).contains(&com), "{com} .com domains");
        let ru = domains
            .iter()
            .filter(|d| DomainName::new(&d.name).tld() == ".ru")
            .count();
        assert!((38..=58).contains(&ru), "{ru} .ru domains");
    }

    #[test]
    fn names_are_unique() {
        let domains = generate_full();
        let set: std::collections::HashSet<&str> =
            domains.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(set.len(), domains.len());
    }

    #[test]
    fn no_punycode_anywhere() {
        for d in generate_full() {
            assert!(!DomainName::new(&d.name).has_punycode(), "{}", d.name);
        }
    }

    #[test]
    fn deceptive_share_is_about_82() {
        let domains = generate_full();
        let deceptive = domains.iter().filter(|d| d.deceptive_name).count();
        assert_eq!(deceptive, 82);
    }

    #[test]
    fn origin_classes_match_spec() {
        let domains = generate_full();
        let compromised = domains
            .iter()
            .filter(|d| d.origin == DomainOrigin::Compromised)
            .count();
        let abused = domains
            .iter()
            .filter(|d| d.origin == DomainOrigin::AbusedService)
            .count();
        assert_eq!(compromised, 20);
        assert_eq!(abused, 9);
    }

    #[test]
    fn tdelta_a_distribution_shape() {
        let domains = generate_full();
        let anchor = SimTime::from_ymd(2024, 6, 1);
        let days: Vec<f64> = domains
            .iter()
            .map(|d| (anchor - d.registered_at).as_days_f64())
            .collect();
        let desc = Describe::of(&days);
        // median near 24 days (575 h)
        assert!(
            (15.0..=35.0).contains(&desc.median),
            "median {} d",
            desc.median
        );
        // fat right tail
        assert!(desc.skewness > 1.5, "skewness {}", desc.skewness);
        assert!(
            desc.kurtosis_excess > 3.0,
            "kurtosis {}",
            desc.kurtosis_excess
        );
        // over-90-day share near 102/522 — compromised+abused domains are
        // all old, adding ~29 to the ~0.195·493 fresh tail
        let over90 = days.iter().filter(|&&d| d > 90.0).count();
        assert!((85..=165).contains(&over90), "{over90} over 90d");
    }

    #[test]
    fn tdelta_b_distribution_shape() {
        let domains = generate_full();
        let anchor = SimTime::from_ymd(2024, 6, 1);
        let days: Vec<f64> = domains
            .iter()
            .map(|d| (anchor - d.cert_issued_at).as_days_f64())
            .collect();
        let desc = Describe::of(&days);
        // median near 7.7 days (185 h)
        assert!(
            (4.0..=14.0).contains(&desc.median),
            "median {} d",
            desc.median
        );
        // far fewer certificates than registrations are old
        let over90 = days.iter().filter(|&&d| d > 90.0).count();
        assert!(over90 <= 20, "{over90} certs over 90d");
    }

    #[test]
    fn certificates_never_precede_registration() {
        for d in generate_full() {
            assert!(
                d.cert_issued_at >= d.registered_at,
                "{}: cert {} before registration {}",
                d.name,
                d.cert_issued_at,
                d.registered_at
            );
        }
    }

    #[test]
    fn ru_domains_use_ru_registrars() {
        for d in generate_full() {
            if DomainName::new(&d.name).tld() == ".ru" && d.origin == DomainOrigin::Fresh {
                assert!(
                    d.registrar.ends_with("-RU"),
                    "{} via {}",
                    d.name,
                    d.registrar
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec::paper();
        let anchor = SimTime::from_ymd(2024, 6, 1);
        let a = generate_domains(&spec, &mut SeedFork::new(9).rng("d"), anchor);
        let b = generate_domains(&spec, &mut SeedFork::new(9).rng("d"), anchor);
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_generation_shrinks() {
        let spec = CorpusSpec::paper().with_scale(0.1);
        let mut rng = SeedFork::new(1).rng("d");
        let domains = generate_domains(&spec, &mut rng, SimTime::from_ymd(2024, 6, 1));
        assert_eq!(domains.len(), 52);
    }
}
