//! §V-A lexical analysis of landing domains: deceptive-naming detection
//! (combosquatting, target embedding, homoglyphs, keyword stuffing,
//! typosquatting) and the punycode check.

use cb_json::{Deserialize, Serialize};
use cb_netsim::DomainName;

/// The deceptive technique detected, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeceptiveNaming {
    /// Brand combined with keywords (`amadora-login.com`).
    Combosquatting,
    /// Brand embedded inside a longer name.
    TargetEmbedding,
    /// ASCII homoglyph substitution (`amad0ra`).
    Homoglyph,
    /// Keyword-stuffed name (`secure-login-verify-…`).
    KeywordStuffing,
    /// Edit-distance-1 typo of a brand.
    Typosquatting,
    /// IDNA punycode label.
    Punycode,
}

/// Lexical summary of a domain set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LexicalStats {
    /// Total domains analyzed.
    pub total: usize,
    /// Domains flagged with any deceptive technique.
    pub deceptive: usize,
    /// Punycode domains (the paper found zero).
    pub punycode: usize,
    /// `(domain, technique)` for every flag.
    pub flagged: Vec<(String, DeceptiveNaming)>,
}

/// The protected brand tokens the detector knows.
const BRANDS: &[&str] = &[
    "amadora",
    "skybook",
    "farelogic",
    "payroute",
    "tripaggregate",
    "microsoft",
    "onedrive",
    "office",
    "docusign",
];

/// Phishing keywords for the stuffing heuristic.
const KEYWORDS: &[&str] = &[
    "login", "secure", "verify", "account", "signin", "auth", "update",
];

/// Strip digits (serial suffixes do not change the lexical technique).
fn strip_digits(s: &str) -> String {
    s.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Undo common ASCII homoglyph substitutions.
fn unhomoglyph(s: &str) -> String {
    s.replace('0', "o")
        .replace('1', "l")
        .replace('3', "e")
        .replace('5', "s")
}

/// Damerau-free edit distance (insert/delete/substitute).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Classify one domain name. Returns the first matching technique.
pub fn classify_domain(domain: &str) -> Option<DeceptiveNaming> {
    let name = DomainName::new(domain);
    if name.has_punycode() {
        return Some(DeceptiveNaming::Punycode);
    }
    let full = name.as_str().to_string();
    let registrable = name.registrable();
    let label = registrable.split('.').next().unwrap_or("");
    let stripped = strip_digits(label);

    // keyword stuffing: 3+ keywords in the name
    let keyword_hits = KEYWORDS.iter().filter(|k| full.contains(*k)).count();

    let unglyphed = strip_digits(&unhomoglyph(label));
    for brand in BRANDS {
        let contains_brand = stripped.contains(brand);
        if contains_brand {
            // exact brand plus keyword separators -> combosquatting
            if KEYWORDS.iter().any(|k| stripped.contains(k)) {
                return Some(if keyword_hits >= 3 {
                    DeceptiveNaming::KeywordStuffing
                } else {
                    DeceptiveNaming::Combosquatting
                });
            }
            return Some(DeceptiveNaming::TargetEmbedding);
        }
        // subdomain labels can embed the brand too
        if full.contains(brand) && !contains_brand {
            return Some(DeceptiveNaming::TargetEmbedding);
        }
        if !stripped.contains(brand) && unglyphed.contains(brand) {
            return Some(DeceptiveNaming::Homoglyph);
        }
        // typosquatting on the bare label
        let bare: String = stripped.replace('-', "");
        if !bare.contains(brand) && edit_distance(&bare, brand) == 1 {
            return Some(DeceptiveNaming::Typosquatting);
        }
    }
    if keyword_hits >= 3 {
        return Some(DeceptiveNaming::KeywordStuffing);
    }
    None
}

/// Analyze a set of domains.
pub fn analyze_domains<'a, I: IntoIterator<Item = &'a str>>(domains: I) -> LexicalStats {
    let mut stats = LexicalStats::default();
    for d in domains {
        stats.total += 1;
        if let Some(technique) = classify_domain(d) {
            if technique == DeceptiveNaming::Punycode {
                stats.punycode += 1;
            }
            stats.deceptive += 1;
            stats.flagged.push((d.to_string(), technique));
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_each_technique() {
        assert_eq!(
            classify_domain("amadora-login3.com"),
            Some(DeceptiveNaming::Combosquatting)
        );
        assert_eq!(
            classify_domain("sso-skybook-accounts-verify1.ru"),
            Some(DeceptiveNaming::Combosquatting)
        );
        assert_eq!(
            classify_domain("amad0ra2.dev"),
            Some(DeceptiveNaming::Homoglyph)
        );
        assert_eq!(
            classify_domain("secure-login-verify-payroute4.buzz"),
            Some(DeceptiveNaming::KeywordStuffing)
        );
        assert_eq!(
            classify_domain("amadra7.com"),
            Some(DeceptiveNaming::Typosquatting)
        );
        assert_eq!(
            classify_domain("xn--amadra-bva.com"),
            Some(DeceptiveNaming::Punycode)
        );
    }

    #[test]
    fn neutral_names_are_clean() {
        for clean in [
            "cloud-portal-17.com",
            "nimbus-quartz-203.ru",
            "stream-vault-88.dev",
            "smallbiz-12.com",
        ] {
            assert_eq!(classify_domain(clean), None, "{clean}");
        }
    }

    #[test]
    fn brand_inside_subdomain_is_target_embedding() {
        assert_eq!(
            classify_domain("amadora.evil-host.com"),
            Some(DeceptiveNaming::TargetEmbedding)
        );
    }

    #[test]
    fn analyze_counts() {
        let stats = analyze_domains(
            ["amadora-login1.com", "cloud-hub-2.com", "xn--foo.com"]
                .iter()
                .copied(),
        );
        assert_eq!(stats.total, 3);
        assert_eq!(stats.deceptive, 2);
        assert_eq!(stats.punycode, 1);
    }

    #[test]
    fn corpus_domains_hit_the_82_target() {
        use cb_phishgen::{domains::generate_domains, CorpusSpec};
        use cb_sim::{SeedFork, SimTime};
        let spec = CorpusSpec::paper();
        let domains = generate_domains(
            &spec,
            &mut SeedFork::new(7).rng("domains"),
            SimTime::from_ymd(2024, 6, 1),
        );
        let stats = analyze_domains(domains.iter().map(|d| d.name.as_str()));
        assert_eq!(stats.total, 522);
        assert_eq!(stats.punycode, 0, "paper: zero punycode");
        // generator marks 82 deceptive; detector should agree closely
        assert!(
            (75..=95).contains(&stats.deceptive),
            "detected {} deceptive",
            stats.deceptive
        );
        // detector recall against generator labels
        let truth: usize = domains.iter().filter(|d| d.deceptive_name).count();
        assert_eq!(truth, 82);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", "ab"), 1);
        assert_eq!(edit_distance("", "xyz"), 3);
    }
}
