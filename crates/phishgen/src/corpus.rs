//! Corpus orchestration: build the world, deploy the attacker
//! infrastructure, and synthesize every reported message with ground truth.

use crate::campaigns::{generate_campaigns, Campaign, VictimCheckScript};
use crate::domains::generate_domains;
use crate::messages::{Carrier, MessageDraft};
use crate::spec::CorpusSpec;
use crate::timeline;
use cb_json::{Deserialize, Serialize};
use cb_netsim::{HttpRequest, HttpResponse, Internet, NetContext};
use cb_phishkit::brand::LegitSite;
use cb_phishkit::{Brand, C2Server, PhishingSite};
use cb_sim::rng::Rng;
use cb_sim::rng::SliceRandom;
use cb_sim::rng::StdRng;
use cb_sim::{SimDuration, SimTime};

/// The §V class of a message (ground truth; the pipeline must re-derive it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MessageClass {
    /// No embedded web resource (49.6%).
    NoResource,
    /// Leads to an error page / dead infrastructure (15.9%).
    ErrorPage,
    /// Leads to a page demanding interaction (4.5%).
    InteractionRequired,
    /// Leads to a file download (0.1%).
    Download,
    /// Leads to an active phishing page (29.9%).
    ActivePhish,
}

/// Ground truth attached to each generated message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The §V class.
    pub class: MessageClass,
    /// Index into [`Corpus::campaigns`] for active-phish messages.
    pub campaign: Option<usize>,
    /// URL carrier shape.
    pub carrier: Carrier,
    /// Spear (company lookalike) vs non-targeted.
    pub spear: bool,
    /// Noise-padded body.
    pub noise_padded: bool,
    /// The embedded URL (when any).
    pub url: Option<String>,
}

/// One user-reported message.
#[derive(Debug, Clone)]
pub struct ReportedMessage {
    /// Stable index within the corpus.
    pub id: usize,
    /// Wire-format MIME.
    pub raw: String,
    /// Delivery instant.
    pub delivered_at: SimTime,
    /// The recipient who reported it.
    pub victim: String,
    /// Ground truth for validation.
    pub truth: GroundTruth,
}

/// The generated corpus plus the world it lives in.
pub struct Corpus {
    /// The generating specification.
    pub spec: CorpusSpec,
    /// The simulated internet with everything deployed.
    pub world: Internet,
    /// All campaigns (sites are live in `world`).
    pub campaigns: Vec<Campaign>,
    /// The deployed site handles, parallel to `campaigns`.
    pub sites: Vec<PhishingSite>,
    /// The five companies' legitimate sites (their referral logs implement
    /// the §V-A early-detection defence).
    pub legit_sites: Vec<(Brand, cb_phishkit::brand::LegitSite)>,
    /// All reported messages, delivery-ordered (empty from
    /// [`Corpus::stream`] and [`Corpus::world`]).
    pub messages: Vec<ReportedMessage>,
    /// Shared C2 of victim-check script A.
    pub c2_alpha: C2Server,
    /// Shared C2 of victim-check script B.
    pub c2_beta: C2Server,
    /// The C2 used by every other campaign.
    pub c2_shared: C2Server,
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corpus")
            .field("messages", &self.messages.len())
            .field("campaigns", &self.campaigns.len())
            .finish()
    }
}

/// Largest-remainder apportionment of `total` across the monthly weights.
fn apportion(total: usize, weights: &[usize; 10]) -> [usize; 10] {
    let wsum: usize = weights.iter().sum();
    let mut out = [0usize; 10];
    let mut fractions: Vec<(usize, f64)> = Vec::new();
    let mut assigned = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * w as f64 / wsum as f64;
        out[i] = exact.floor() as usize;
        assigned += out[i];
        fractions.push((i, exact - exact.floor()));
    }
    fractions.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (i, _) in fractions.into_iter().take(total - assigned) {
        out[i] += 1;
    }
    out
}

impl Corpus {
    /// Generate the corpus at `spec` with deterministic `seed`.
    ///
    /// This is exactly [`Corpus::stream`] collected into a `Vec` — the
    /// eager and lazy generators share one synthesis path, so their
    /// messages are bit-identical by construction.
    pub fn generate(spec: &CorpusSpec, seed: u64) -> Corpus {
        let (mut corpus, stream) = Corpus::stream(spec, seed);
        corpus.messages = stream.collect();
        corpus
    }

    /// The world of [`Corpus::generate`] without its messages.
    ///
    /// Makes every draw the messages need — month shuffles, delivery
    /// instants, message drafts — and every victim-check C2 registration,
    /// in the generator's order, but renders no MIME: the returned corpus
    /// has an empty `messages` vector and its world in the state
    /// [`Corpus::generate`] leaves it in. This is what a scanner of
    /// messages that arrive from elsewhere (the `crawlboxd` daemon) needs.
    pub fn world(spec: &CorpusSpec, seed: u64) -> Corpus {
        let (corpus, mut stream) = Corpus::stream(spec, seed);
        while stream.next_draft().is_some() {}
        corpus
    }

    /// Build the world eagerly but yield the reported messages lazily.
    ///
    /// The returned [`Corpus`] has everything deployed (domains, sites,
    /// C2s, DNS history — that part is O(campaigns), not O(messages)) and
    /// an **empty** `messages` vector; the companion [`MessageStream`]
    /// synthesizes each [`ReportedMessage`] on demand with the same RNG
    /// discipline as the eager generator, so `stream(..).1.collect()` is
    /// bit-identical to the `messages` of [`Corpus::generate`]. Peak
    /// memory for the message payloads is whatever the consumer retains —
    /// a streaming scan pipeline can hold a bounded window instead of the
    /// whole corpus.
    ///
    /// Each message is made in two steps: a draft that makes all of its
    /// RNG draws and registers its victim with a victim-check C2, then a
    /// pure render of the MIME. Registration happens at draft time, so a
    /// message's own victim is registered before the message is returned,
    /// and scanning message *i* before message *j* is generated observes
    /// the same world state as a scan after full generation. Until the
    /// stream is drained, later messages' victims are not registered: a
    /// scan of a message that arrives from elsewhere needs the fully
    /// drafted world of [`Corpus::world`].
    pub fn stream(spec: &CorpusSpec, seed: u64) -> (Corpus, MessageStream) {
        let fork = cb_sim::SeedFork::new(seed);
        let world = Internet::new(timeline::world_epoch());

        // --- the legitimate web -----------------------------------------
        let mut legit_sites = Vec::new();
        for brand in Brand::companies()
            .into_iter()
            .chain(Brand::commodity_services().iter().map(|(b, _)| *b))
        {
            world.register_domain_at(brand.legit_domain(), "CORP-REG", timeline::world_epoch());
            world.issue_certificate_at(
                brand.legit_domain(),
                timeline::study_start() - SimDuration::days(30),
            );
            let site = LegitSite::new(brand);
            world.host(brand.legit_domain(), site.clone());
            legit_sites.push((brand, site));
        }
        for svc in [
            cb_phishkit::infrastructure::HTTPBIN_HOST,
            cb_phishkit::infrastructure::IPAPI_HOST,
            "freeimages.example",
            "gyazo.example",
            cb_phishkit::infrastructure::TURNSTILE_HOST,
            cb_phishkit::infrastructure::RECAPTCHA_HOST,
        ] {
            world.register_domain_at(svc, "CORP-REG", timeline::world_epoch());
            world.host(svc, |req: &HttpRequest, ctx: &NetContext<'_>| {
                let body = if ctx.domain.as_str() == cb_phishkit::infrastructure::HTTPBIN_HOST {
                    format!("{}", req.client_ip)
                } else if ctx.domain.as_str() == cb_phishkit::infrastructure::IPAPI_HOST {
                    format!("FR;AS{};{}", 2000, ctx.client_class)
                } else {
                    "binary-image-data".to_string()
                };
                HttpResponse::ok("text/plain", body.into_bytes())
            });
        }

        // --- attacker shared infrastructure ------------------------------
        let c2_alpha = C2Server::new();
        let c2_beta = C2Server::new();
        let c2_shared = C2Server::new();
        for (domain, c2) in [
            ("c2-alpha.example", &c2_alpha),
            ("c2-beta.example", &c2_beta),
            ("c2-shared.example", &c2_shared),
        ] {
            world.register_domain_at(
                domain,
                "REGRU-RU",
                timeline::study_start() - SimDuration::days(120),
            );
            world.host(domain, c2.clone());
        }

        // --- campaigns ----------------------------------------------------
        let global_anchor = SimTime::from_ymd(2024, 6, 1);
        let domains = generate_domains(spec, &mut fork.rng("domains"), global_anchor);
        let mut campaigns = generate_campaigns(spec, &mut fork.rng("campaigns"), domains);
        // Non-victim-check campaigns exfiltrate to the shared C2.
        for c in campaigns.iter_mut() {
            if c.victim_check.is_none() {
                c.c2_base = "https://c2-shared.example".to_string();
            }
        }

        // --- class / month layout -----------------------------------------
        // The error / interaction / download classes are apportioned across
        // months; campaigns are placed against each month's remaining
        // capacity; NoResource absorbs whatever is left, so each month's
        // total matches Figure 2 exactly.
        let monthly = timeline::scaled_monthly(spec);
        let error_count = spec.scaled(spec.error_pages());
        let interaction_count = spec.scaled(spec.interaction_required);
        let download_count = spec.scaled(spec.downloads);
        let per_month_error = apportion(error_count, &monthly);
        let per_month_interaction = apportion(interaction_count, &monthly);
        let per_month_download = apportion(download_count, &monthly);

        let mut rng = fork.rng("layout");
        let mut campaign_order: Vec<usize> = (0..campaigns.len()).collect();
        campaign_order.shuffle(&mut rng);
        let mut campaign_month = vec![0usize; campaigns.len()];
        let mut active_in_month = [0usize; 10];
        {
            // Active capacity per month before NoResource absorbs the rest:
            // aim for the active class's proportional share.
            let active_total: usize = campaigns.iter().map(|c| c.message_count).sum();
            let capacity = apportion(active_total, &monthly);
            let mut month = 0usize;
            for &ci in &campaign_order {
                while month < 9 && active_in_month[month] >= capacity[month] {
                    month += 1;
                }
                campaign_month[ci] = month;
                active_in_month[month] += campaigns[ci].message_count;
            }
        }
        let mut per_month_noresource = [0usize; 10];
        for m in 0..10 {
            let others = per_month_error[m]
                + per_month_interaction[m]
                + per_month_download[m]
                + active_in_month[m];
            per_month_noresource[m] = monthly[m].saturating_sub(others);
        }

        // --- deploy campaign infrastructure --------------------------------
        let mut sites = Vec::with_capacity(campaigns.len());
        let mut msg_rng = fork.rng("messages");
        for (ci, c) in campaigns.iter_mut().enumerate() {
            let (y, mo) = timeline::months_2024()[campaign_month[ci]];
            let campaign_anchor = SimTime::from_ymd(y, mo, 15);
            c.launch = campaign_anchor;
            let shift = campaign_anchor - global_anchor;
            c.domain.registered_at = c.domain.registered_at + shift;
            c.domain.cert_issued_at = c.domain.cert_issued_at + shift;

            world.register_domain_at(&c.domain.name, &c.domain.registrar, c.domain.registered_at);
            if c.domain.origin == crate::domains::DomainOrigin::Compromised {
                world.mark_compromised(&c.domain.name);
            }
            world.issue_certificate_at(&c.domain.name, c.domain.cert_issued_at);

            let site = PhishingSite::new(c.brand, &c.c2_base, c.cloak.clone());
            world.host(&c.domain.name, site.clone());
            // Shodan-style banner: commodity kit hosting stacks.
            let banners = [
                "nginx/1.24.0",
                "Apache/2.4.58 (Ubuntu)",
                "cloudflare",
                "LiteSpeed",
            ];
            world.set_banner(&c.domain.name, banners[ci % banners.len()]);
            sites.push(site);

            // Background DNS traffic: 30 days of activity before the
            // campaign anchor, volume by message count (§V-A medians).
            let (background, burst): (u64, u64) = if c.message_count == 1 {
                (msg_rng.gen_range(1..=2), msg_rng.gen_range(12..=25))
            } else {
                (msg_rng.gen_range(2..=3), msg_rng.gen_range(40..=60))
            };
            for day in 0..30 {
                world.record_dns_traffic(
                    &c.domain.name,
                    campaign_anchor - SimDuration::days(day),
                    background,
                );
            }
            world.record_dns_traffic(
                &c.domain.name,
                campaign_anchor - SimDuration::days(3),
                burst,
            );
        }
        // The three headline DNS-volume domains (§V-A): the most-reported
        // campaign carries enormous traffic; a 5-message campaign comes
        // second; a single-message domain holds the third slot.
        {
            let max_ci = (0..campaigns.len())
                .max_by_key(|&i| campaigns[i].message_count)
                .expect("campaigns nonempty");
            let anchor_of = |ci: usize| {
                let (y, mo) = timeline::months_2024()[campaign_month[ci]];
                SimTime::from_ymd(y, mo, 15)
            };
            let spread = |total: u64, ci: usize, world: &Internet| {
                let per_day = total / 30;
                for day in 0..30 {
                    world.record_dns_traffic(
                        &campaigns[ci].domain.name,
                        anchor_of(ci) - SimDuration::days(day),
                        per_day,
                    );
                }
            };
            spread(665_126_135, max_ci, &world);
            if let Some(five_ci) =
                (0..campaigns.len()).find(|&i| i != max_ci && campaigns[i].message_count == 5)
            {
                spread(37_623_107, five_ci, &world);
            }
            if let Some(single_ci) = (0..campaigns.len()).find(|&i| campaigns[i].message_count == 1)
            {
                spread(15_362, single_ci, &world);
            }
        }

        // --- non-active infrastructure --------------------------------------
        // Error-page targets: half NXDOMAIN (never registered), half
        // registered but taken down (404).
        let error_total = error_count;
        let mut error_urls = Vec::with_capacity(error_total);
        for i in 0..error_total {
            match i % 5 {
                0 | 1 => {
                    // never registered: NXDOMAIN
                    error_urls.push(format!("https://gone-{i}.example/{}", i * 7 + 11));
                }
                2 | 3 => {
                    // registered, resolvable, but no site hosted -> 404
                    let d = format!("expired-{i}.example");
                    world.register_domain_at(
                        &d,
                        "NameBay",
                        timeline::study_start() - SimDuration::days(40),
                    );
                    error_urls.push(format!("https://{d}/landing"));
                }
                _ => {
                    // live but mobile-UA-filtered: the desktop crawler sees a
                    // benign page — the paper's hypothesis for part of its
                    // error class ("server-side filtering mechanisms, such
                    // as … User-Agent filtering").
                    let d = format!("mobile-only-{i}.example");
                    world.register_domain_at(
                        &d,
                        "REGRU-RU",
                        timeline::study_start() - SimDuration::days(25),
                    );
                    let cloak = cb_phishkit::CloakConfig {
                        server: cb_phishkit::ServerCloak {
                            mobile_ua_only: true,
                            ..Default::default()
                        },
                        client: Default::default(),
                        counter: cb_phishkit::CounterCloak::default(),
                    };
                    world.host(
                        &d,
                        PhishingSite::new(Brand::Microsoft, "https://c2-shared.example", cloak),
                    );
                    error_urls.push(format!("https://{d}/doc"));
                }
            }
        }
        // Interaction-required targets: document-share / CAPTCHA pages.
        let interaction_total = interaction_count;
        let interaction_domains = (interaction_total / 6).max(1);
        let mut interaction_urls = Vec::with_capacity(interaction_total);
        for i in 0..interaction_domains {
            let d = format!("doc-share-{i}.example");
            world.register_domain_at(
                &d,
                "NameBay",
                timeline::study_start() - SimDuration::days(20),
            );
            world.host(&d, |_req: &HttpRequest, _ctx: &NetContext<'_>| {
                HttpResponse::html(
                    r#"<html><body><h2>Shared document</h2>
<div data-requires-interaction="captcha">Complete the puzzle to continue</div>
</body></html>"#,
                )
            });
        }
        for i in 0..interaction_total {
            interaction_urls.push(format!(
                "https://doc-share-{}.example/d/{}",
                i % interaction_domains,
                i
            ));
        }
        // Download targets: ZIP served over HTTP (→ HTA inside).
        let download_total = download_count;
        if download_total > 0 {
            world.register_domain_at(
                "file-drop.example",
                "REGRU-RU",
                timeline::study_start() - SimDuration::days(10),
            );
            world.host("file-drop.example", |_req: &HttpRequest, _ctx: &NetContext<'_>| {
                let mut zip = cb_artifacts::ZipArchive::new();
                zip.add(
                    "invoice.hta",
                    b"<html><hta:application/><script>new ActiveXObject('WScript.Shell');</script></html>",
                );
                HttpResponse::ok("application/zip", zip.to_bytes())
            });
        }

        // --- plan message slots ---------------------------------------------
        // Carrier quotas over the active messages.
        let qr_quota = spec.scaled(spec.qr_messages);
        let quotas = CarrierQuotas {
            qr: qr_quota,
            faulty: spec.scaled(spec.faulty_qr_messages).min(qr_quota),
            image: spec.scaled(spec.image_url_messages),
            pdf: spec.scaled(spec.pdf_messages),
            eml: spec.scaled(spec.eml_messages),
            html: spec.scaled(spec.html_attachment_messages),
            noise: spec.scaled(spec.noise_padded_messages),
        };

        // Per-campaign message emission order: campaigns grouped by month.
        let mut campaigns_by_month: Vec<Vec<usize>> = vec![Vec::new(); 10];
        for (ci, &m) in campaign_month.iter().enumerate() {
            campaigns_by_month[m].push(ci);
        }

        // The slot plan is the eager loop's pre-shuffle state: one entry per
        // message, in deterministic construction order. Everything that
        // depends on the RNG (the per-month shuffle, delivery instants, the
        // message drafts) is deferred to the stream so the draws happen in
        // exactly the order the eager generator made them.
        let mut months = Vec::with_capacity(10);
        let mut remaining = 0usize;
        for m in 0..10 {
            let (year, month) = timeline::months_2024()[m];
            let mut slots: Vec<Slot> = Vec::new();
            for &ci in &campaigns_by_month[m] {
                let c = &campaigns[ci];
                for k in 0..c.message_count {
                    slots.push(Slot {
                        class: MessageClass::ActivePhish,
                        campaign: Some(ci),
                        url_base: Some(c.url_for_message(k).to_string()),
                        spear: c.spear,
                        victim_db_check: c.cloak.client.victim_db_check,
                        otp_gate: c.cloak.client.otp_gate,
                        victim_check: c.victim_check,
                    });
                }
            }
            for (class, count) in [
                (MessageClass::NoResource, per_month_noresource[m]),
                (MessageClass::ErrorPage, per_month_error[m]),
                (MessageClass::InteractionRequired, per_month_interaction[m]),
                (MessageClass::Download, per_month_download[m]),
            ] {
                for _ in 0..count {
                    slots.push(Slot::bare(class));
                }
            }
            remaining += slots.len();
            months.push(MonthPlan { year, month, slots });
        }

        // The world's clock advances to the end of the window: analysis is
        // retrospective. Message synthesis never reads the clock, so
        // advancing before the stream is drained is observationally
        // identical to advancing after eager generation.
        world.advance_to_end();

        // Transient-fault injection, when the spec asks for it. The plan
        // seed is a label hash — it consumes nothing from the generation
        // RNG stream, so faulted and fault-free corpora from the same seed
        // are otherwise identical.
        if spec.transient_fault_rate > 0.0 {
            world.set_fault_plan(cb_netsim::FaultPlan::new(
                fork.seed("fault-plan"),
                cb_netsim::FaultProfile {
                    rate: spec.transient_fault_rate,
                    max_consecutive: spec.fault_max_consecutive.max(1),
                    ..Default::default()
                },
            ));
        }

        let stream = MessageStream {
            months: months.into_iter(),
            current: None,
            msg_rng,
            error_urls,
            interaction_urls,
            quotas,
            c2_alpha: c2_alpha.clone(),
            c2_beta: c2_beta.clone(),
            id: 0,
            victim_no: 0,
            active_emitted: 0,
            noise_emitted: 0,
            remaining,
        };

        let corpus = Corpus {
            spec: spec.clone(),
            world,
            campaigns,
            sites,
            legit_sites,
            messages: Vec::new(),
            c2_alpha,
            c2_beta,
            c2_shared,
        };
        (corpus, stream)
    }
}

/// Running carrier quotas over the active messages (§IV shapes).
#[derive(Debug, Clone, Copy)]
struct CarrierQuotas {
    qr: usize,
    faulty: usize,
    image: usize,
    pdf: usize,
    eml: usize,
    html: usize,
    noise: usize,
}

/// One planned message: everything knowable before the RNG-dependent parts
/// (shuffle position, delivery instant, message draft) are drawn.
#[derive(Debug, Clone)]
struct Slot {
    class: MessageClass,
    campaign: Option<usize>,
    /// The campaign landing URL for active slots (victim token appended at
    /// emission time when the kit runs a victim-DB check).
    url_base: Option<String>,
    spear: bool,
    victim_db_check: bool,
    otp_gate: bool,
    victim_check: Option<VictimCheckScript>,
}

impl Slot {
    fn bare(class: MessageClass) -> Slot {
        Slot {
            class,
            campaign: None,
            url_base: None,
            spear: false,
            victim_db_check: false,
            otp_gate: false,
            victim_check: None,
        }
    }
}

/// One month's planned slots, pre-shuffle.
#[derive(Debug)]
struct MonthPlan {
    year: i64,
    month: u32,
    slots: Vec<Slot>,
}

/// In-flight state for the month currently being emitted.
#[derive(Debug)]
struct CurrentMonth {
    year: i64,
    month: u32,
    slots: std::vec::IntoIter<Slot>,
}

/// Lazy message generator returned by [`Corpus::stream`].
///
/// Yields the corpus's [`ReportedMessage`]s one at a time, in delivery
/// order, consuming the `"messages"` RNG stream with exactly the same
/// sequence of draws as the eager generator: each month's slots are
/// shuffled when the month is entered, then each slot draws its delivery
/// instant and its [`MessageDraft`]; rendering the draft into MIME draws
/// nothing. The stream is `Send`, so a producer thread can feed a bounded
/// scan pipeline while the consumer holds only a fixed window of messages
/// in memory.
pub struct MessageStream {
    months: std::vec::IntoIter<MonthPlan>,
    current: Option<CurrentMonth>,
    msg_rng: StdRng,
    error_urls: Vec<String>,
    interaction_urls: Vec<String>,
    quotas: CarrierQuotas,
    c2_alpha: C2Server,
    c2_beta: C2Server,
    id: usize,
    victim_no: usize,
    active_emitted: usize,
    noise_emitted: usize,
    remaining: usize,
}

impl std::fmt::Debug for MessageStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageStream")
            .field("emitted", &self.id)
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// A message with its draws made and its victim registered, not yet
/// rendered.
struct DraftedMessage {
    id: usize,
    draft: MessageDraft,
    truth: GroundTruth,
}

impl MessageStream {
    /// Make every draw and world registration for one slot, replicating the
    /// eager loop body up to (not including) the MIME render.
    fn emit(&mut self, slot: Slot, year: i64, month: u32) -> DraftedMessage {
        let Slot {
            class,
            campaign,
            url_base,
            spear: slot_spear,
            victim_db_check,
            otp_gate,
            victim_check,
        } = slot;

        let delivered = timeline::delivery_instant(&mut self.msg_rng, year, month);
        let victim = format!("victim-{}@corp.example", self.victim_no);
        self.victim_no += 1;
        let id = self.id;
        let q = self.quotas;

        let (carrier, url, spear, noise) = match class {
            MessageClass::NoResource => (Carrier::None, None, false, false),
            MessageClass::ErrorPage => {
                let u = self.error_urls[id % self.error_urls.len().max(1)].clone();
                (Carrier::BodyLink, Some(u), false, false)
            }
            MessageClass::InteractionRequired => {
                let u = self.interaction_urls[id % self.interaction_urls.len().max(1)].clone();
                (Carrier::BodyLink, Some(u), false, false)
            }
            MessageClass::Download => (
                Carrier::BodyLink,
                Some(format!("https://file-drop.example/archive-{id}.zip")),
                false,
                false,
            ),
            MessageClass::ActivePhish => {
                let mut url = url_base.expect("active slot has url");
                if victim_db_check {
                    url.push_str(&format!("?victim={victim}"));
                }
                // carrier by running quota
                let carrier = if self.active_emitted < q.qr {
                    Carrier::QrCode {
                        faulty: self.active_emitted < q.faulty,
                    }
                } else if self.active_emitted < q.qr + q.image {
                    Carrier::ImageText
                } else if self.active_emitted < q.qr + q.image + q.pdf {
                    if self.active_emitted.is_multiple_of(3) {
                        Carrier::PdfText
                    } else {
                        Carrier::PdfLink
                    }
                } else if self.active_emitted < q.qr + q.image + q.pdf + q.eml {
                    Carrier::NestedEml
                } else if !slot_spear
                    && self.active_emitted < q.qr + q.image + q.pdf + q.eml + q.html
                {
                    Carrier::HtmlAttachment
                } else {
                    Carrier::BodyLink
                };
                self.active_emitted += 1;
                let noise =
                    matches!(carrier, Carrier::BodyLink) && self.noise_emitted < q.noise && {
                        self.noise_emitted += 1;
                        true
                    };
                (carrier, Some(url), slot_spear, noise)
            }
        };

        // Victim-check campaigns know their targets. Registration happens
        // before the message is yielded, so a streaming scanner always sees
        // the same C2 state for message *i* as a batch scanner would.
        match victim_check {
            Some(VictimCheckScript::A) => {
                self.c2_alpha.add_victim(&victim);
            }
            Some(VictimCheckScript::B) => {
                self.c2_beta.add_victim(&victim);
            }
            None => {}
        }

        let otp = otp_gate.then_some(cb_phishkit::site::DEFAULT_OTP_CODE);
        let draft = MessageDraft::draw(
            &mut self.msg_rng,
            carrier,
            url.as_deref(),
            &victim,
            delivered,
            noise,
            otp,
            id as u64,
        );
        self.id += 1;
        self.remaining -= 1;
        DraftedMessage {
            id,
            draft,
            truth: GroundTruth {
                class,
                campaign,
                carrier,
                spear,
                noise_padded: noise,
                url,
            },
        }
    }

    /// Draft the next message in delivery order: every draw and victim
    /// registration of [`Iterator::next`], without the render.
    fn next_draft(&mut self) -> Option<DraftedMessage> {
        loop {
            if self.current.is_none() {
                let plan = self.months.next()?;
                let mut slots = plan.slots;
                // The eager generator shuffled each month's slots just
                // before emitting them; drawing here keeps the RNG call
                // sequence identical.
                slots.shuffle(&mut self.msg_rng);
                self.current = Some(CurrentMonth {
                    year: plan.year,
                    month: plan.month,
                    slots: slots.into_iter(),
                });
            }
            let cur = self.current.as_mut().expect("just installed");
            let (year, month) = (cur.year, cur.month);
            match cur.slots.next() {
                Some(slot) => return Some(self.emit(slot, year, month)),
                None => {
                    self.current = None;
                }
            }
        }
    }
}

impl Iterator for MessageStream {
    type Item = ReportedMessage;

    fn next(&mut self) -> Option<ReportedMessage> {
        let DraftedMessage { id, draft, truth } = self.next_draft()?;
        let raw = draft.render();
        Some(ReportedMessage {
            id,
            raw,
            delivered_at: draft.delivered,
            victim: draft.victim,
            truth,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MessageStream {}

/// Extension to advance the world's clock past the study window.
trait AdvanceToEnd {
    fn advance_to_end(&self);
}

impl AdvanceToEnd for Internet {
    fn advance_to_end(&self) {
        self.clock().advance_to(timeline::study_end());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(&CorpusSpec::paper().with_scale(0.04), 42)
    }

    #[test]
    fn totals_and_class_mix() {
        let c = small_corpus();
        let spec = &c.spec;
        let expected: usize = timeline::scaled_monthly(spec).iter().sum();
        assert_eq!(c.messages.len(), expected);
        let actives = c
            .messages
            .iter()
            .filter(|m| m.truth.class == MessageClass::ActivePhish)
            .count();
        let campaign_total: usize = c.campaigns.iter().map(|x| x.message_count).sum();
        assert_eq!(actives, campaign_total);
    }

    #[test]
    fn messages_parse_and_carry_auth_results() {
        let c = small_corpus();
        for m in c.messages.iter().take(30) {
            let parsed = cb_email::MimeEntity::parse(&m.raw).unwrap();
            assert!(parsed
                .header("Authentication-Results")
                .unwrap()
                .contains("dmarc=pass"));
        }
    }

    #[test]
    fn campaign_domains_are_live_with_whois_and_certs() {
        let c = small_corpus();
        for camp in &c.campaigns {
            let whois = c.world.whois(&camp.domain.name).expect("registered");
            assert_eq!(whois.registered_at, camp.domain.registered_at);
            let cert = c.world.first_certificate(&camp.domain.name).expect("cert");
            assert_eq!(cert.issued_at, camp.domain.cert_issued_at);
        }
    }

    #[test]
    fn active_message_urls_point_at_live_campaign_sites() {
        let c = small_corpus();
        let sample = c
            .messages
            .iter()
            .find(|m| {
                m.truth.class == MessageClass::ActivePhish && m.truth.carrier == Carrier::BodyLink
            })
            .expect("an active body-link message");
        let url = sample.truth.url.as_ref().unwrap();
        let ci = sample.truth.campaign.unwrap();
        assert!(url.contains(&c.campaigns[ci].domain.name));
    }

    #[test]
    fn error_class_urls_are_dead() {
        let c = small_corpus();
        let err = c
            .messages
            .iter()
            .find(|m| m.truth.class == MessageClass::ErrorPage)
            .unwrap();
        let resp = c
            .world
            .request(cb_netsim::HttpRequest::get(err.truth.url.as_ref().unwrap()));
        assert!(
            resp.status == 0 || resp.status == 404,
            "status {}",
            resp.status
        );
    }

    #[test]
    fn download_class_serves_zip() {
        let c = small_corpus();
        if let Some(dl) = c
            .messages
            .iter()
            .find(|m| m.truth.class == MessageClass::Download)
        {
            let resp = c
                .world
                .request(cb_netsim::HttpRequest::get(dl.truth.url.as_ref().unwrap()));
            assert_eq!(resp.header("Content-Type"), Some("application/zip"));
            assert_eq!(
                cb_artifacts::magic::sniff(&resp.body),
                cb_artifacts::magic::FileKind::Zip
            );
        }
    }

    #[test]
    fn delivery_months_follow_figure_2_shape() {
        let c = small_corpus();
        let mut per_month = [0usize; 10];
        for m in &c.messages {
            let (_, month) = m.delivered_at.year_month();
            per_month[(month - 1) as usize] += 1;
        }
        let scaled = timeline::scaled_monthly(&c.spec);
        assert_eq!(per_month, scaled);
    }

    #[test]
    fn stream_is_bit_identical_to_generate_and_lazy() {
        let spec = CorpusSpec::paper().with_scale(0.02);
        let eager = Corpus::generate(&spec, 7);
        let (lazy, stream) = Corpus::stream(&spec, 7);
        assert!(
            lazy.messages.is_empty(),
            "stream leaves messages unmaterialized"
        );
        assert_eq!(stream.len(), eager.messages.len());
        let mut emitted = 0usize;
        for (n, msg) in stream.enumerate() {
            let e = &eager.messages[n];
            assert_eq!(msg.id, e.id);
            assert_eq!(msg.raw, e.raw);
            assert_eq!(msg.delivered_at, e.delivered_at);
            assert_eq!(msg.victim, e.victim);
            assert_eq!(msg.truth, e.truth);
            emitted = n + 1;
        }
        assert_eq!(emitted, eager.messages.len());

        // The exact-size hint tracks consumption one message at a time.
        let (_, mut partial) = Corpus::stream(&spec, 7);
        let total = partial.len();
        let first = partial.next().expect("nonempty corpus");
        assert_eq!(first.id, 0);
        assert_eq!(partial.len(), total - 1);
    }

    #[test]
    fn stream_registers_victims_before_yield() {
        let spec = CorpusSpec::paper().with_scale(0.2);
        let (lazy, stream) = Corpus::stream(&spec, 13);
        for msg in stream {
            if let Some(ci) = msg.truth.campaign {
                if lazy.campaigns[ci].victim_check == Some(VictimCheckScript::A) {
                    // The C2 must already answer "yes" for this victim even
                    // though later messages are not generated yet.
                    let resp = lazy.world.request(cb_netsim::HttpRequest::post(
                        "https://c2-alpha.example/check-victim",
                        msg.victim.as_bytes(),
                    ));
                    assert_eq!(resp.body_text(), "yes");
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&CorpusSpec::paper().with_scale(0.02), 7);
        let b = Corpus::generate(&CorpusSpec::paper().with_scale(0.02), 7);
        assert_eq!(a.messages.len(), b.messages.len());
        for (x, y) in a.messages.iter().zip(&b.messages) {
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.delivered_at, y.delivered_at);
        }
    }

    #[test]
    fn victim_check_c2s_know_their_targets() {
        let spec = CorpusSpec::paper().with_scale(0.2);
        let c = Corpus::generate(&spec, 13);
        // The world-only corpus registers every victim too; a stream that
        // was never drained has registered none.
        let world = Corpus::world(&spec, 13);
        assert!(world.messages.is_empty(), "the world renders no messages");
        let (undrafted, _stream) = Corpus::stream(&spec, 13);
        let mut checked = 0;
        for m in &c.messages {
            let c2 = match m.truth.campaign.and_then(|ci| c.campaigns[ci].victim_check) {
                Some(VictimCheckScript::A) => "c2-alpha",
                Some(VictimCheckScript::B) => "c2-beta",
                None => continue,
            };
            let check = |corpus: &Corpus| {
                corpus
                    .world
                    .request(cb_netsim::HttpRequest::post(
                        &format!("https://{c2}.example/check-victim"),
                        m.victim.as_bytes(),
                    ))
                    .body_text()
            };
            assert_eq!(check(&c), "yes", "{} unknown to {c2}", m.victim);
            assert_eq!(
                check(&world),
                "yes",
                "{} unknown to the world's {c2}",
                m.victim
            );
            assert_eq!(
                check(&undrafted),
                "no",
                "an undrafted stream registered {}",
                m.victim
            );
            checked += 1;
        }
        assert!(checked > 0, "no victim-check messages at this scale");
    }

    #[test]
    fn dns_volumes_separate_single_from_multi() {
        let c = Corpus::generate(&CorpusSpec::paper().with_scale(0.3), 21);
        let mut singles = Vec::new();
        let mut multis = Vec::new();
        for camp in &c.campaigns {
            let v = c
                .world
                .dns_volume(&camp.domain.name, camp.launch, SimDuration::days(31))
                .total;
            if camp.message_count == 1 {
                singles.push(v);
            } else {
                multis.push(v);
            }
        }
        let med = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        if !singles.is_empty() && !multis.is_empty() {
            assert!(
                med(&mut singles) < med(&mut multis),
                "single-message campaigns must show lower DNS volume"
            );
        }
    }
}
