//! Campaign assembly: domains × messages × cloaking configurations.
//!
//! A campaign is one landing domain with its kit configuration and its
//! share of reported messages. Assignment reproduces the §V-A volume
//! findings (median one message per domain, one 58-message outlier, mean
//! ≈ 2.6–3) and the §V-C2 cloaking prevalences via greedy quota filling.

use crate::domains::LandingDomain;
use crate::spec::CorpusSpec;
use cb_json::{Deserialize, Serialize};
use cb_phishkit::{Brand, ClientCloak, CloakConfig, ServerCloak};
use cb_sim::rng::Rng;
use cb_sim::rng::StdRng;

/// Which shared victim-check script (if any) a campaign deploys — the two
/// obfuscated scripts the paper found shared across 38 and 57 domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimCheckScript {
    /// Script A: 38 domains / 151 messages, C2 `c2-alpha.example`.
    A,
    /// Script B: 57 domains / 143 messages, C2 `c2-beta.example`.
    B,
}

/// One campaign: a landing domain plus everything deployed on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    /// The landing domain.
    pub domain: LandingDomain,
    /// Impersonated brand.
    pub brand: Brand,
    /// `true` for spear phishing against the five companies.
    pub spear: bool,
    /// Whether this campaign's pages harvest credentials (all spear
    /// campaigns do; 130 of the non-targeted messages do).
    pub credential_harvesting: bool,
    /// Number of reported messages pointing at this campaign.
    pub message_count: usize,
    /// Distinct tokenized landing URLs used by those messages.
    pub landing_urls: Vec<String>,
    /// Kit configuration.
    pub cloak: CloakConfig,
    /// Shared victim-check script, if any.
    pub victim_check: Option<VictimCheckScript>,
    /// The C2 base URL this campaign exfiltrates to.
    pub c2_base: String,
    /// Campaign launch anchor (set during corpus assembly).
    pub launch: cb_sim::SimTime,
}

impl Campaign {
    /// The URL a given message of this campaign carries.
    pub fn url_for_message(&self, msg_idx: usize) -> &str {
        &self.landing_urls[msg_idx % self.landing_urls.len()]
    }
}

/// Draw a random URL token. Lowercase + digits only: OCR-extracted URLs
/// are case-folded, and tokens must survive that round trip.
pub fn random_token(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..8)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Message-count assignment: `domains` entries summing to `messages`, with
/// median 1, one `max_count` outlier, and a skewed middle.
pub fn message_counts(
    rng: &mut StdRng,
    domains: usize,
    messages: usize,
    max_count: usize,
) -> Vec<usize> {
    assert!(domains >= 1, "need at least one domain");
    assert!(messages >= domains, "at least one message per domain");
    let mut counts = vec![1usize; domains];
    let mut remaining = messages - domains;
    if domains >= 3 {
        // The outlier takes up to max_count messages.
        let extra_top = (max_count - 1).min(remaining);
        counts[0] += extra_top;
        remaining -= extra_top;
        // Enough singles to pin the median at 1; the rest form the middle.
        let singles = (domains * 58 / 100).max(domains / 2 + 1).min(domains - 2);
        let middle = domains - singles - 1;
        let mut i = 0usize;
        while remaining > 0 && middle > 0 {
            let idx = 1 + (i % middle);
            let add = rng.gen_range(1..=4).min(remaining);
            counts[idx] += add;
            remaining -= add;
            i += 1;
        }
        // middle == 0 fallthrough: pile on the outlier
        counts[0] += remaining;
    } else {
        counts[0] += remaining;
    }
    counts
}

/// Build all campaigns for the corpus.
pub fn generate_campaigns(
    spec: &CorpusSpec,
    rng: &mut StdRng,
    domains: Vec<LandingDomain>,
) -> Vec<Campaign> {
    let total_messages = spec.scaled(spec.active_phish);
    let spear_messages = spec.scaled(spec.spear);
    let nontargeted_domains = spec.scaled(111).min(domains.len().saturating_sub(1)).max(1);
    let spear_domains = domains.len() - nontargeted_domains;

    // --- message counts -------------------------------------------------
    // Non-targeted campaigns carry the big outlier; spear campaigns skew
    // small ("low-volume operations").
    let nt_messages = total_messages - spear_messages;
    let nt_counts = message_counts(
        rng,
        nontargeted_domains,
        nt_messages,
        spec.scaled(spec.max_messages_per_domain).max(3),
    );
    let spear_counts = message_counts(rng, spear_domains, spear_messages, 6);

    // --- brands ----------------------------------------------------------
    let companies = Brand::companies();
    let commodity: Vec<Brand> = Brand::commodity_services()
        .iter()
        .flat_map(|(b, n)| std::iter::repeat_n(*b, *n))
        .collect();

    let mut campaigns = Vec::with_capacity(domains.len());
    let mut domain_iter = domains.into_iter();

    for (i, count) in nt_counts.iter().enumerate() {
        let domain = domain_iter.next().expect("enough domains");
        let brand = commodity[i % commodity.len()];
        campaigns.push(Campaign {
            domain,
            brand,
            spear: false,
            credential_harvesting: false, // quota below flips 130-worth on
            message_count: *count,
            landing_urls: Vec::new(),
            cloak: CloakConfig::none(),
            victim_check: None,
            c2_base: String::new(),
            launch: cb_sim::SimTime::EPOCH,
        });
    }
    for (i, count) in spear_counts.iter().enumerate() {
        let domain = domain_iter.next().expect("enough domains");
        let brand = companies[i % companies.len()];
        campaigns.push(Campaign {
            domain,
            brand,
            spear: true,
            credential_harvesting: true,
            message_count: *count,
            landing_urls: Vec::new(),
            cloak: CloakConfig::none(),
            victim_check: None,
            c2_base: String::new(),
            launch: cb_sim::SimTime::EPOCH,
        });
    }

    // Non-targeted credential harvesting: flip campaigns on (small first)
    // until ~`nontargeted_unique_pages` messages are covered.
    let nt_cred_quota = spec.scaled(spec.nontargeted_unique_pages);
    {
        let mut covered = 0;
        let mut order: Vec<usize> = (0..nontargeted_domains).collect();
        order.sort_by_key(|&i| campaigns[i].message_count);
        for i in order {
            if covered >= nt_cred_quota {
                break;
            }
            campaigns[i].credential_harvesting = true;
            covered += campaigns[i].message_count;
        }
    }

    // --- landing URLs ----------------------------------------------------
    // 1,438 distinct URLs over 1,551 messages: start with one URL per
    // message, then merge inside multi-message campaigns until the distinct
    // total matches the target.
    let url_target = spec.scaled(1438).min(total_messages);
    {
        let mut distinct: Vec<usize> = campaigns.iter().map(|c| c.message_count).collect();
        let mut total: usize = distinct.iter().sum();
        let mut i = 0usize;
        while total > url_target {
            let idx = i % distinct.len();
            if distinct[idx] > 1 {
                distinct[idx] -= 1;
                total -= 1;
            }
            i += 1;
        }
        for (c, d) in campaigns.iter_mut().zip(distinct) {
            let mut urls = Vec::with_capacity(d);
            for _ in 0..d {
                urls.push(format!("https://{}/{}", c.domain.name, random_token(rng)));
            }
            c.landing_urls = urls;
        }
    }

    // --- cloaking quotas ---------------------------------------------------
    // Greedy fill over credential-harvesting campaigns, large first, then
    // singles (which allow exact completion).
    let mut cred_idx: Vec<usize> = campaigns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.credential_harvesting)
        .map(|(i, _)| i)
        .collect();
    cred_idx.sort_by_key(|&i| std::cmp::Reverse(campaigns[i].message_count));

    let fill = |campaigns: &mut Vec<Campaign>,
                idx: &[usize],
                quota: usize,
                offset: usize,
                set: &dyn Fn(&mut Campaign)| {
        let mut covered = 0usize;
        for &i in idx.iter().cycle().skip(offset).take(idx.len()) {
            if covered >= quota {
                break;
            }
            if campaigns[i].message_count + covered <= quota + 2 {
                set(&mut campaigns[i]);
                covered += campaigns[i].message_count;
            }
        }
    };

    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.turnstile_messages),
        0,
        &|c| c.cloak.client.turnstile = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.recaptcha_messages),
        0,
        &|c| c.cloak.client.recaptcha_v3 = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.console_hijack_messages),
        1,
        &|c| c.cloak.client.console_hijack = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.hue_rotate_messages),
        2,
        &|c| c.cloak.client.hue_rotate = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.httpbin_messages),
        3,
        &|c| c.cloak.client.exfil_visitor_data = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.ipapi_messages),
        3,
        &|c| {
            // geo enrichment rides on the exfil subset (same offset ⇒ the
            // ipapi users are a prefix of the httpbin users, as observed)
            if c.cloak.client.exfil_visitor_data {
                c.cloak.client.exfil_with_geo = true;
            }
        },
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.otp_gate_messages),
        4,
        &|c| c.cloak.client.otp_gate = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.devtools_block_messages),
        5,
        &|c| c.cloak.client.block_devtools = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.env_gate_messages),
        6,
        &|c| c.cloak.client.env_gate = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.math_challenge_messages),
        7,
        &|c| c.cloak.client.math_challenge = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.debugger_timer_messages),
        8,
        &|c| c.cloak.client.debugger_timer = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.fingerprint_lib_messages),
        9,
        &|c| c.cloak.client.fingerprint_library = true,
    );
    fill(
        &mut campaigns,
        &cred_idx,
        spec.scaled(spec.hotlink_messages),
        10,
        &|c| c.cloak.client.hotlink_brand_resources = true,
    );

    // Victim-check scripts: A on ~38 domains / 151 messages (mean ≈ 4 per
    // domain), B on ~57 / 143 (mean ≈ 2.5). Pick campaigns whose message
    // count sits closest to each script's mean so both quotas land.
    {
        let assign = |campaigns: &mut Vec<Campaign>,
                      cred_idx: &[usize],
                      dom_quota: usize,
                      msg_quota: usize,
                      script: VictimCheckScript| {
            let mean = msg_quota as f64 / dom_quota.max(1) as f64;
            let mut order: Vec<usize> = cred_idx
                .iter()
                .copied()
                .filter(|&i| campaigns[i].victim_check.is_none())
                .collect();
            order.sort_by(|&a, &b| {
                let da = (campaigns[a].message_count as f64 - mean).abs();
                let db = (campaigns[b].message_count as f64 - mean).abs();
                da.partial_cmp(&db).expect("finite")
            });
            let mut domains = 0usize;
            let mut msgs = 0usize;
            #[allow(clippy::explicit_counter_loop)] // counter gates the quota, not the iteration
            for i in order {
                if domains >= dom_quota || msgs >= msg_quota {
                    break;
                }
                campaigns[i].victim_check = Some(script);
                campaigns[i].cloak.client.victim_db_check = true;
                domains += 1;
                msgs += campaigns[i].message_count;
            }
        };
        assign(
            &mut campaigns,
            &cred_idx,
            spec.scaled(38),
            spec.scaled(spec.victim_check_a_messages),
            VictimCheckScript::A,
        );
        assign(
            &mut campaigns,
            &cred_idx,
            spec.scaled(57),
            spec.scaled(spec.victim_check_b_messages),
            VictimCheckScript::B,
        );
    }

    // C2 endpoints: shared per victim-check script, else campaign-local.
    for c in campaigns.iter_mut() {
        c.c2_base = match c.victim_check {
            Some(VictimCheckScript::A) => "https://c2-alpha.example".to_string(),
            Some(VictimCheckScript::B) => "https://c2-beta.example".to_string(),
            None => format!("https://{}", c.domain.name),
        };
        // Tokenized URLs imply server-side token checks for a subset.
        if rng.gen_bool(0.35) {
            c.cloak.server.valid_tokens = c
                .landing_urls
                .iter()
                .filter_map(|u| u.rsplit('/').next().map(str::to_string))
                .collect();
        }
        let _ = ServerCloak::default(); // (field type referenced for clarity)
        let _ = ClientCloak::default();
    }
    campaigns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::generate_domains;
    use cb_sim::{SeedFork, SimTime};
    use cb_stats::describe::median;

    fn build(scale: f64) -> (CorpusSpec, Vec<Campaign>) {
        let spec = CorpusSpec::paper().with_scale(scale);
        let fork = SeedFork::new(11);
        let domains = generate_domains(
            &spec,
            &mut fork.rng("domains"),
            SimTime::from_ymd(2024, 6, 1),
        );
        let campaigns = generate_campaigns(&spec, &mut fork.rng("campaigns"), domains);
        (spec, campaigns)
    }

    #[test]
    fn message_totals_match_spec() {
        let (spec, campaigns) = build(1.0);
        let total: usize = campaigns.iter().map(|c| c.message_count).sum();
        assert_eq!(total, spec.scaled(spec.active_phish));
        let spear: usize = campaigns
            .iter()
            .filter(|c| c.spear)
            .map(|c| c.message_count)
            .sum();
        assert_eq!(spear, spec.scaled(spec.spear));
    }

    #[test]
    fn per_domain_volume_shape() {
        let (_, campaigns) = build(1.0);
        let counts: Vec<f64> = campaigns.iter().map(|c| c.message_count as f64).collect();
        assert_eq!(median(&counts), 1.0, "median messages per domain");
        let max = counts.iter().cloned().fold(0.0, f64::max);
        assert_eq!(max, 58.0, "one 58-message outlier");
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!((2.4..=3.2).contains(&mean), "mean {mean}");
    }

    #[test]
    fn distinct_urls_near_1438() {
        let (_, campaigns) = build(1.0);
        let urls: usize = campaigns.iter().map(|c| c.landing_urls.len()).sum();
        assert!((1380..=1500).contains(&urls), "{urls} distinct URLs");
    }

    #[test]
    fn turnstile_quota_hits_74_percent() {
        let (spec, campaigns) = build(1.0);
        let turnstile_msgs: usize = campaigns
            .iter()
            .filter(|c| c.cloak.client.turnstile)
            .map(|c| c.message_count)
            .sum();
        let target = spec.turnstile_messages;
        assert!(
            (target.saturating_sub(20)..=target + 20).contains(&turnstile_msgs),
            "{turnstile_msgs} vs {target}"
        );
        // prevalence over credential-harvesting messages ≈ 74.4%
        let cred: usize = campaigns
            .iter()
            .filter(|c| c.credential_harvesting)
            .map(|c| c.message_count)
            .sum();
        let rate = turnstile_msgs as f64 / cred as f64;
        assert!((0.70..=0.79).contains(&rate), "turnstile rate {rate}");
    }

    #[test]
    fn small_quotas_land_close() {
        let (spec, campaigns) = build(1.0);
        for (name, target, get) in [
            (
                "otp",
                spec.otp_gate_messages,
                Box::new(|c: &Campaign| c.cloak.client.otp_gate) as Box<dyn Fn(&Campaign) -> bool>,
            ),
            (
                "math",
                spec.math_challenge_messages,
                Box::new(|c: &Campaign| c.cloak.client.math_challenge),
            ),
            (
                "devtools",
                spec.devtools_block_messages,
                Box::new(|c: &Campaign| c.cloak.client.block_devtools),
            ),
            (
                "fingerprint",
                spec.fingerprint_lib_messages,
                Box::new(|c: &Campaign| c.cloak.client.fingerprint_library),
            ),
        ] {
            let msgs: usize = campaigns
                .iter()
                .filter(|c| get(c))
                .map(|c| c.message_count)
                .sum();
            assert!(
                msgs.abs_diff(target) <= 6,
                "{name}: {msgs} vs target {target}"
            );
        }
    }

    #[test]
    fn victim_check_scripts_share_c2() {
        let (_, campaigns) = build(1.0);
        let a: Vec<&Campaign> = campaigns
            .iter()
            .filter(|c| c.victim_check == Some(VictimCheckScript::A))
            .collect();
        let b: Vec<&Campaign> = campaigns
            .iter()
            .filter(|c| c.victim_check == Some(VictimCheckScript::B))
            .collect();
        assert!(
            (30..=40).contains(&a.len()),
            "script A domains: {}",
            a.len()
        );
        assert!(
            (45..=60).contains(&b.len()),
            "script B domains: {}",
            b.len()
        );
        assert!(a.iter().all(|c| c.c2_base == "https://c2-alpha.example"));
        assert!(b.iter().all(|c| c.c2_base == "https://c2-beta.example"));
        let a_msgs: usize = a.iter().map(|c| c.message_count).sum();
        assert!((130..=170).contains(&a_msgs), "script A messages: {a_msgs}");
    }

    #[test]
    fn spear_campaigns_use_company_brands() {
        let (_, campaigns) = build(1.0);
        for c in &campaigns {
            if c.spear {
                assert!(Brand::companies().contains(&c.brand), "{:?}", c.brand);
            } else {
                assert!(!Brand::companies().contains(&c.brand), "{:?}", c.brand);
            }
        }
    }

    #[test]
    fn message_counts_invariants_hold_at_small_scale() {
        let (spec, campaigns) = build(0.05);
        let total: usize = campaigns.iter().map(|c| c.message_count).sum();
        assert_eq!(total, spec.scaled(spec.active_phish));
        assert!(campaigns.iter().all(|c| c.message_count >= 1));
        assert!(campaigns.iter().all(|c| !c.landing_urls.is_empty()));
    }

    #[test]
    fn url_for_message_cycles() {
        let (_, campaigns) = build(0.05);
        let c = campaigns.iter().find(|c| c.message_count > 1).unwrap();
        assert_eq!(c.url_for_message(0), c.landing_urls[0].as_str());
        let wrapped = c.url_for_message(c.landing_urls.len());
        assert_eq!(wrapped, c.landing_urls[0].as_str());
    }

    #[test]
    fn counts_helper_properties() {
        let mut rng = SeedFork::new(4).rng("mc");
        let counts = message_counts(&mut rng, 100, 300, 58);
        assert_eq!(counts.iter().sum::<usize>(), 300);
        assert_eq!(counts.len(), 100);
        assert_eq!(*counts.iter().max().unwrap(), 58);
        let singles = counts.iter().filter(|&&c| c == 1).count();
        assert!(singles > 50, "median must be 1 ({singles} singles)");
    }
}
