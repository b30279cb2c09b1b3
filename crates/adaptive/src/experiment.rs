//! The `repro adaptive` experiment: adaptive bandit vs fixed NotABot over
//! a grid of cloaking families and visit budgets.
//!
//! Each **cell** is `(family, budget, strategy)` and is entirely
//! self-contained: fresh worlds, a cell-local policy and a cell-local
//! seeded RNG. Cells fan out over the shared `run_stealing` pool —
//! results land at their cell index, counters are order-independent sums
//! and traces merge into `(task, stage)` order — which is what makes the
//! final table byte-identical at every worker count for a fixed seed.
//!
//! Within a cell, campaigns run sequentially and *share* the policy: the
//! bandit carries what campaign `k` taught it into campaign `k + 1`, so
//! later campaigns converge in two or three visits where the first spent
//! its whole budget sweeping. A campaign is **won** when the crawler
//! captures the de-cloaked phish [`AdaptiveConfig::uncloaks_needed`]
//! times — the second capture is the forensic re-confirmation that the
//! kits' counter-memory (burned profiles, burned egress classes) denies
//! to any fixed-profile crawler.

use crate::arms::Arm;
use crate::bandit::{Policy, PolicyMemory, RaceState};
use crate::verdict::{classify, CloakVerdict};
use cb_json::{Deserialize, Serialize};
use cb_netsim::{FaultPlan, Internet};
use cb_phishkit::{Brand, C2Server, CloakConfig, CounterCloak, PhishingSite, ServerCloak};
use cb_sim::{SeedFork, SimTime};
use cb_telemetry::{Determinism, MetricsRegistry, Trace};
use crawlerbox::CrawlerBox;
use std::fmt::Write as _;
use std::sync::Arc;

/// Domain every synthetic campaign serves from.
const CAMPAIGN_DOMAIN: &str = "campaign.example";
/// Exfiltration endpoint base.
const C2_BASE: &str = "https://c2.example";

/// One cloaking family of the grid: a named kit posture.
#[derive(Debug, Clone)]
pub struct FamilySpec {
    /// Stable family name (table rows, policy-memory keys, seeds).
    pub name: &'static str,
    /// Whether the kit also sits behind the AnonWAF-style bot filter.
    pub waf: bool,
    /// The kit's cloaking configuration.
    pub cloak: CloakConfig,
}

/// The six campaign families the experiment races, spanning every
/// cloaking layer the reproduction implements. Order is fixed: it is the
/// table row order and feeds the per-family seeds.
pub fn families() -> Vec<FamilySpec> {
    let base = CloakConfig::none();
    vec![
        // No cloaking at all: the control row where fixed NotABot ties.
        FamilySpec {
            name: "open-door",
            waf: false,
            cloak: base.clone(),
        },
        // QR-code campaign: mobile User-Agents only.
        FamilySpec {
            name: "qr-mobile-gate",
            waf: false,
            cloak: CloakConfig {
                server: ServerCloak {
                    mobile_ua_only: true,
                    ..ServerCloak::default()
                },
                ..base.clone()
            },
        },
        // Delayed reveal: a holding page out-waits impatient crawlers.
        FamilySpec {
            name: "patient-reveal",
            waf: false,
            cloak: CloakConfig {
                counter: CounterCloak {
                    reveal_delay_secs: 120,
                    ..CounterCloak::default()
                },
                ..base.clone()
            },
        },
        // Mobile filter and scanner-IP blocklist stacked.
        FamilySpec {
            name: "mobile-ip-filter",
            waf: false,
            cloak: CloakConfig {
                server: ServerCloak {
                    mobile_ua_only: true,
                    block_datacenter_ips: true,
                    ..ServerCloak::default()
                },
                ..base.clone()
            },
        },
        // Challenge stack plus a returning-device blocklist: the first
        // capture burns the device signature.
        FamilySpec {
            name: "fingerprint-burn",
            waf: true,
            cloak: CloakConfig {
                client: cb_phishkit::ClientCloak {
                    turnstile: true,
                    ..cb_phishkit::ClientCloak::default()
                },
                counter: CounterCloak {
                    profile_burn_after: 1,
                    ..CounterCloak::default()
                },
                ..base.clone()
            },
        },
        // Egress reputation: the first capture burns the whole IP class.
        FamilySpec {
            name: "egress-burn",
            waf: false,
            cloak: CloakConfig {
                counter: CounterCloak {
                    egress_burn_after: 1,
                    ..CounterCloak::default()
                },
                ..base
            },
        },
    ]
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Master seed (forks every per-cell RNG and fault plan).
    pub seed: u64,
    /// Visit budgets to sweep, ascending.
    pub budgets: Vec<u32>,
    /// Campaigns raced per cell.
    pub campaigns_per_family: u32,
    /// Transient-fault rate injected into every campaign world.
    pub fault_rate: f64,
    /// Worker threads for the cell fan-out.
    pub parallelism: usize,
    /// Captures required to win a campaign (2 = detection plus the
    /// forensic re-capture the counter-memory tries to deny).
    pub uncloaks_needed: u32,
    /// Collect sim-time span traces.
    pub tracing: bool,
}

impl AdaptiveConfig {
    /// The stock configuration at `seed`: budgets 2/4/8/16, six campaigns
    /// per family, no faults, two captures to win.
    pub fn new(seed: u64) -> AdaptiveConfig {
        AdaptiveConfig {
            seed,
            budgets: vec![2, 4, 8, 16],
            campaigns_per_family: 6,
            fault_rate: 0.0,
            parallelism: 4,
            uncloaks_needed: 2,
            tracing: false,
        }
    }

    /// Pin the sweep to a single visit budget.
    pub fn with_budget(mut self, budget: u32) -> AdaptiveConfig {
        self.budgets = vec![budget];
        self
    }
}

/// One cell's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Family name.
    pub family: String,
    /// Visit budget per campaign.
    pub budget: u32,
    /// `"fixed"` or `"adaptive"`.
    pub strategy: String,
    /// Campaigns raced.
    pub campaigns: u32,
    /// Campaigns that reached the required capture count.
    pub wins: u32,
    /// Total visits that came back de-cloaked.
    pub uncloak_visits: u32,
    /// Total visits spent.
    pub visits: u32,
    /// Every visit's `c<campaign>:<arm>=<verdict>`, in order — the
    /// byte-comparable selection transcript the determinism tests diff.
    pub arm_sequence: Vec<String>,
}

/// The experiment's serializable result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Master seed.
    pub seed: u64,
    /// Injected transient-fault rate.
    pub fault_rate: f64,
    /// Campaigns per cell.
    pub campaigns_per_family: u32,
    /// Captures required to win a campaign.
    pub uncloaks_needed: u32,
    /// Budgets swept.
    pub budgets: Vec<u32>,
    /// Cell results, fixed order: family-major, budget, then
    /// fixed-before-adaptive.
    pub cells: Vec<CellOutcome>,
}

/// Everything one experiment run produced.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// The table.
    pub report: AdaptiveReport,
    /// The learned per-cell policies (persist with
    /// [`PolicyMemory::save`] to resume the race later).
    pub memory: PolicyMemory,
    /// Merged sim-time trace (empty unless `tracing` was on).
    pub trace: Trace,
    /// The shared metrics registry the run's counters live in.
    pub metrics: Arc<MetricsRegistry>,
}

impl AdaptiveReport {
    /// Paired `(fixed, adaptive)` outcomes for each `(family, budget)`.
    pub fn pairs(&self) -> Vec<(&CellOutcome, &CellOutcome)> {
        self.cells
            .chunks(2)
            .map(|pair| (&pair[0], &pair[1]))
            .collect()
    }

    /// Families where adaptive wins strictly more campaigns than fixed at
    /// `budget`.
    pub fn adaptive_ahead(&self, budget: u32) -> Vec<&str> {
        self.pairs()
            .into_iter()
            .filter(|(f, a)| f.budget == budget && a.wins > f.wins)
            .map(|(f, _)| f.family.as_str())
            .collect()
    }

    /// Render the fixed-format table. Byte-identical at every worker count
    /// for a fixed seed — this string is what the determinism tests and
    /// the CI golden check compare.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "seed {} | fault rate {:.2} | {} campaigns/family | {} captures to win | {} arms",
            self.seed,
            self.fault_rate,
            self.campaigns_per_family,
            self.uncloaks_needed,
            Arm::space().len(),
        );
        let _ = writeln!(
            s,
            "{:<18} {:>6} {:>7} {:>9} {:>16} {:>9}",
            "family", "budget", "fixed", "adaptive", "visits/campaign", "winner"
        );
        for (fixed, adaptive) in self.pairs() {
            let winner = match adaptive.wins.cmp(&fixed.wins) {
                std::cmp::Ordering::Greater => "adaptive",
                std::cmp::Ordering::Less => "fixed",
                std::cmp::Ordering::Equal => "tie",
            };
            let mean_visits = f64::from(adaptive.visits) / f64::from(adaptive.campaigns.max(1));
            let _ = writeln!(
                s,
                "{:<18} {:>6} {:>7} {:>9} {:>16.1} {:>9}",
                fixed.family,
                fixed.budget,
                format!("{}/{}", fixed.wins, fixed.campaigns),
                format!("{}/{}", adaptive.wins, adaptive.campaigns),
                mean_visits,
                winner,
            );
        }
        let families = self
            .cells
            .iter()
            .map(|c| &c.family)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        for &budget in &self.budgets {
            let ahead = self.adaptive_ahead(budget);
            let _ = writeln!(
                s,
                "budget {budget:>2}: adaptive strictly ahead on {}/{families} families{}{}",
                ahead.len(),
                if ahead.is_empty() { "" } else { ": " },
                ahead.join(", "),
            );
        }
        s
    }
}

impl std::fmt::Display for AdaptiveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A fresh campaign world for one race: registrar, C2 and the kit.
fn campaign_world(spec: &FamilySpec, fault_seed: u64, fault_rate: f64) -> Internet {
    let net = Internet::new(SimTime::from_ymd(2024, 2, 1));
    net.register_domain(CAMPAIGN_DOMAIN, "REGRU-RU");
    net.register_domain("c2.example", "REGRU-RU");
    net.host("c2.example", C2Server::new());
    let mut site = PhishingSite::new(Brand::Amadora, C2_BASE, spec.cloak.clone());
    if spec.waf {
        site = site.with_waf();
    }
    net.host(CAMPAIGN_DOMAIN, site);
    if fault_rate > 0.0 {
        net.set_fault_plan(FaultPlan::uniform(fault_seed, fault_rate));
    }
    net
}

/// Run the experiment. `resume` carries previously learned policies
/// (empty for a cold start); the returned [`AdaptiveRun::memory`] holds
/// the updated ones.
pub fn run(cfg: &AdaptiveConfig, resume: &PolicyMemory) -> AdaptiveRun {
    assert!(
        !cfg.budgets.is_empty(),
        "adaptive experiment needs at least one budget"
    );
    let fams = families();
    let space = Arm::space();
    let metrics = Arc::new(MetricsRegistry::new());
    let cells_n = fams.len() * cfg.budgets.len() * 2;

    let run_cell = |cell: usize| -> (CellOutcome, Vec<Trace>, Option<(String, Policy)>) {
        let per_family = cfg.budgets.len() * 2;
        let spec = &fams[cell / per_family];
        let budget = cfg.budgets[(cell % per_family) / 2];
        let adaptive = cell % 2 == 1;
        let fork = SeedFork::new(cfg.seed).child("adaptive");
        let key = PolicyMemory::key(spec.name, budget);
        let mut policy = if adaptive {
            resume.cells.get(&key).cloned().unwrap_or_default()
        } else {
            Policy::new()
        };
        let mut rng = fork.rng(&format!("bandit/{}/{budget}", spec.name));
        let m_visits = metrics.counter("adaptive.visits", Determinism::Deterministic);
        let m_wins = metrics.counter("adaptive.wins", Determinism::Deterministic);
        let mut out = CellOutcome {
            family: spec.name.to_string(),
            budget,
            strategy: if adaptive { "adaptive" } else { "fixed" }.to_string(),
            campaigns: cfg.campaigns_per_family,
            wins: 0,
            uncloak_visits: 0,
            visits: 0,
            arm_sequence: Vec::new(),
        };
        let mut traces = Vec::new();
        for campaign in 0..cfg.campaigns_per_family {
            // The fault stream is keyed off (family, budget, campaign)
            // only, so both strategies race the same weather.
            let fault_seed = fork.seed(&format!("faults/{}/{budget}/{campaign}", spec.name));
            let net = campaign_world(spec, fault_seed, cfg.fault_rate);
            let cbx = CrawlerBox::new(&net)
                .with_tracing(cfg.tracing)
                .with_metrics(Arc::clone(&metrics));
            let mut session = cbx.probe_session();
            let guard = cbx.trace_task(cell * 1000 + campaign as usize);
            let mut race = RaceState::default();
            for visit in 0..budget {
                let arm_idx = if adaptive {
                    policy.select(&race, &mut rng)
                } else {
                    Arm::notabot().index()
                };
                let arm = space[arm_idx];
                cb_telemetry::with_active(|t| {
                    t.instant(
                        "adaptive.arm",
                        vec![
                            ("visit", visit.to_string()),
                            ("arm", arm.label()),
                            ("strategy", out.strategy.clone()),
                        ],
                    );
                });
                let url = format!("https://{CAMPAIGN_DOMAIN}/");
                let log = cbx.probe(&mut session, &arm.browser(), &url, "");
                let verdict = classify(&log);
                cb_telemetry::with_active(|t| {
                    t.instant(
                        "adaptive.verdict",
                        vec![("verdict", verdict.label().to_string())],
                    );
                });
                m_visits.incr();
                metrics
                    .counter(
                        match verdict {
                            CloakVerdict::BlockPage => "adaptive.verdict.block_page",
                            CloakVerdict::BenignDecoy => "adaptive.verdict.benign_decoy",
                            CloakVerdict::FingerprintChallenge => {
                                "adaptive.verdict.fingerprint_challenge"
                            }
                            CloakVerdict::Uncloaked => "adaptive.verdict.uncloaked",
                        },
                        Determinism::Deterministic,
                    )
                    .incr();
                if adaptive {
                    policy.observe(arm_idx, verdict);
                }
                race.note(arm_idx, verdict);
                out.visits += 1;
                if verdict == CloakVerdict::Uncloaked {
                    out.uncloak_visits += 1;
                }
                out.arm_sequence
                    .push(format!("c{campaign}:{}={}", arm.label(), verdict.label()));
                if race.uncloaks >= cfg.uncloaks_needed {
                    break;
                }
            }
            if race.uncloaks >= cfg.uncloaks_needed {
                out.wins += 1;
                m_wins.incr();
            }
            drop(guard);
            if cfg.tracing {
                traces.push(cbx.take_trace());
            }
        }
        let learned = adaptive.then_some((key, policy));
        (out, traces, learned)
    };

    // Results land at their cell index at every worker count.
    let slots = crawlerbox::run_stealing(cfg.parallelism, cells_n, |_, i| run_cell(i));

    let mut cells = Vec::with_capacity(cells_n);
    let mut memory = resume.clone();
    let mut traces = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let (out, cell_traces, learned) =
            slot.unwrap_or_else(|| panic!("adaptive cell {i} worker died"));
        cells.push(out);
        traces.extend(cell_traces);
        if let Some((key, policy)) = learned {
            memory.cells.insert(key, policy);
        }
    }
    AdaptiveRun {
        report: AdaptiveReport {
            seed: cfg.seed,
            fault_rate: cfg.fault_rate,
            campaigns_per_family: cfg.campaigns_per_family,
            uncloaks_needed: cfg.uncloaks_needed,
            budgets: cfg.budgets.clone(),
            cells,
        },
        memory,
        trace: Trace::merge(traces),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> AdaptiveConfig {
        let mut cfg = AdaptiveConfig::new(seed).with_budget(4);
        cfg.campaigns_per_family = 2;
        cfg
    }

    #[test]
    fn cells_come_back_in_grid_order_at_every_worker_count() {
        for workers in [1, 4] {
            let mut cfg = tiny(11);
            cfg.parallelism = workers;
            let out = run(&cfg, &PolicyMemory::default());
            let fams: Vec<String> = families().iter().map(|f| f.name.to_string()).collect();
            assert_eq!(out.report.cells.len(), fams.len() * 2);
            for (i, cell) in out.report.cells.iter().enumerate() {
                assert_eq!(cell.family, fams[i / 2]);
                assert_eq!(cell.strategy, if i % 2 == 0 { "fixed" } else { "adaptive" });
            }
        }
    }

    #[test]
    fn open_door_is_a_tie_and_burn_families_deny_the_fixed_crawler() {
        let out = run(
            &AdaptiveConfig::new(5).with_budget(8),
            &PolicyMemory::default(),
        );
        for (fixed, adaptive) in out.report.pairs() {
            match fixed.family.as_str() {
                "open-door" => {
                    assert_eq!(fixed.wins, fixed.campaigns, "open door: fixed wins all");
                    assert_eq!(
                        adaptive.wins, adaptive.campaigns,
                        "open door: adaptive wins all"
                    );
                }
                "fingerprint-burn" | "egress-burn" => {
                    assert_eq!(
                        fixed.wins, 0,
                        "{}: counter-memory must deny the fixed crawler a re-capture",
                        fixed.family
                    );
                    assert!(
                        adaptive.wins > 0,
                        "{}: rotation must recover a re-capture",
                        fixed.family
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn resumed_memory_resumes_instead_of_restarting() {
        let mut cfg = AdaptiveConfig::new(23).with_budget(8);
        cfg.campaigns_per_family = 2;
        let first = run(&cfg, &PolicyMemory::default());
        let again = run(&cfg, &PolicyMemory::default());
        assert_eq!(first.report, again.report, "same seed, same table");
        // A resumed run starts from the learned policies: later campaigns'
        // knowledge is available from visit one, so the adaptive side
        // holds its ground and skips the cold probe sweep.
        let resumed = run(&cfg, &first.memory);
        for ((_, warm), (_, cold)) in resumed.report.pairs().into_iter().zip(first.report.pairs()) {
            assert!(
                warm.wins >= cold.wins,
                "{}: resuming must not lose ground",
                warm.family
            );
        }
    }
}
