//! The adaptive arms race (DESIGN.md §16), end to end: the `repro
//! adaptive` experiment must be byte-identical at worker counts 1 and 4,
//! at 0% and 20% fault rates (arm-selection transcripts, the
//! rendered table AND the canonical metrics export); the adaptive bandit
//! must beat the fixed NotABot baseline on at least three cloaking
//! families at every budget ≥ 4 at seeds 42 and 2024 (the headline
//! acceptance claim); policy
//! memory persisted into a crawl store must survive a reopen and resume
//! the race; and the `repro adaptive` CLI must reject malformed
//! invocations with exit 2 + usage.
//!
//! Environment knobs (mirroring `tests/telemetry.rs`):
//! * `CB_SEED` — experiment seed for the determinism property (default 2024)

use cb_adaptive::{AdaptiveConfig, PolicyMemory};
use cb_store::Store;
use cb_telemetry::ExportMode;
use std::process::Command;

/// The fault sweep's rate: 20% of URLs flaky.
const FAULT_RATE: f64 = 0.2;

fn seed_from_env() -> u64 {
    std::env::var("CB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024)
}

/// A determinism-property configuration small enough to run at every
/// (worker count × fault rate) point but still covering two budgets and the
/// cross-campaign policy carryover.
fn property_config(seed: u64, fault_rate: f64, workers: usize) -> AdaptiveConfig {
    let mut cfg = AdaptiveConfig::new(seed);
    cfg.budgets = vec![2, 8];
    cfg.campaigns_per_family = 3;
    cfg.fault_rate = fault_rate;
    cfg.parallelism = workers;
    cfg
}

/// The tier-1 determinism contract for the arms race: for one seed, the
/// arm-selection transcripts, the rendered table and the canonical
/// metrics export are byte-identical whether one worker or four fanned the
/// cells out — with and without injected transient faults.
#[test]
fn adaptive_table_is_byte_identical_across_worker_counts() {
    let seed = seed_from_env();
    for fault_rate in [0.0, FAULT_RATE] {
        let reference = cb_adaptive::experiment::run(
            &property_config(seed, fault_rate, 1),
            &PolicyMemory::default(),
        );
        let ref_table = reference.report.render();
        let ref_metrics = reference.metrics.export_json(ExportMode::Canonical);
        assert!(
            ref_table.contains("adaptive strictly ahead"),
            "one-worker reference rendered no summary:\n{ref_table}"
        );
        let out = cb_adaptive::experiment::run(
            &property_config(seed, fault_rate, 4),
            &PolicyMemory::default(),
        );
        for (ours, theirs) in out.report.cells.iter().zip(&reference.report.cells) {
            assert_eq!(
                ours.arm_sequence, theirs.arm_sequence,
                "{}/{}/{} arm-selection transcript diverged between 1 and 4 workers: \
                 fault_rate {fault_rate}, seed {seed}",
                ours.family, ours.budget, ours.strategy
            );
        }
        assert_eq!(
            out.report.render(),
            ref_table,
            "rendered table diverged between 1 and 4 workers: \
             fault_rate {fault_rate}, seed {seed}"
        );
        assert_eq!(
            out.metrics.export_json(ExportMode::Canonical),
            ref_metrics,
            "canonical metrics diverged between 1 and 4 workers: \
             fault_rate {fault_rate}, seed {seed}"
        );
    }
}

/// The acceptance claim, at the CI golden seed (42) and the telemetry
/// golden seed (2024): the adaptive crawler wins strictly more campaigns
/// than fixed NotABot on at least 3 cloaking families at every budget ≥ 4,
/// and never fewer on any family.
#[test]
fn adaptive_beats_fixed_notabot_on_at_least_three_families() {
    for seed in [42u64, 2024] {
        let out =
            cb_adaptive::experiment::run(&AdaptiveConfig::new(seed), &PolicyMemory::default());
        for (fixed, adaptive) in out.report.pairs() {
            assert!(
                adaptive.wins >= fixed.wins,
                "seed {seed}, {}/{}: the bandit must never lose ground to its own baseline arm",
                fixed.family,
                fixed.budget
            );
        }
        for &budget in &[4u32, 8, 16] {
            let ahead = out.report.adaptive_ahead(budget);
            assert!(
                ahead.len() >= 3,
                "seed {seed}, budget {budget}: adaptive must be strictly ahead on >= 3 \
                 families, got {ahead:?}"
            );
        }
    }
}

/// Policy state rides the crawl store: memory saved into a store is
/// returned byte-equal by a *reopened* store, and a run resumed from it
/// holds the ground the cold run gained.
#[test]
fn policy_memory_survives_a_store_reopen_and_resumes_the_race() {
    let dir = std::env::temp_dir().join(format!("cb-adaptive-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = AdaptiveConfig::new(23).with_budget(8);
    cfg.campaigns_per_family = 2;
    let cold = cb_adaptive::experiment::run(&cfg, &PolicyMemory::default());
    assert!(
        !cold.memory.cells.is_empty(),
        "the adaptive side must learn policies"
    );

    {
        let store = Store::open(&dir).expect("open store");
        cold.memory.save(&store).expect("persist policy memory");
    }
    let reopened = Store::open(&dir).expect("reopen store");
    assert_eq!(
        reopened.len(),
        0,
        "policy state must not masquerade as crawl records"
    );
    let resume = PolicyMemory::load(&reopened);
    assert_eq!(
        resume, cold.memory,
        "memory must round-trip through the reopened store"
    );

    let warm = cb_adaptive::experiment::run(&cfg, &resume);
    for ((_, w), (_, c)) in warm.report.pairs().into_iter().zip(cold.report.pairs()) {
        assert!(
            w.wins >= c.wins,
            "{}: resuming from persisted memory must not lose ground",
            w.family
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- repro adaptive CLI ------------------------------------------------

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_cli(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("spawn repro");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_adaptive_rejects_unknown_flags_with_usage() {
    let (code, _, stderr) = run_cli(repro().args(["adaptive", "--wat"]));
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag --wat"), "stderr: {stderr}");
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn repro_adaptive_rejects_out_of_range_budgets() {
    for budget in ["0", "100", "-3", "nope"] {
        let (code, _, stderr) = run_cli(repro().args(["adaptive", "--budget", budget]));
        assert_eq!(code, 2, "--budget {budget} must be a usage error");
        assert!(stderr.contains("--budget"), "stderr: {stderr}");
        assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
    }
}

#[test]
fn repro_adaptive_rejects_out_of_range_fault_rates() {
    for rate in ["1.5", "-0.1"] {
        let (code, _, stderr) = run_cli(repro().args(["adaptive", "--fault-rate", rate]));
        assert_eq!(code, 2, "--fault-rate {rate} must be a usage error");
        assert!(stderr.contains("--fault-rate"), "stderr: {stderr}");
    }
}

#[test]
fn repro_rejects_budget_outside_the_adaptive_experiment() {
    let (code, _, stderr) = run_cli(repro().args(["classmix", "--budget", "8"]));
    assert_eq!(code, 2);
    assert!(stderr.contains("--budget"), "stderr: {stderr}");
    assert!(stderr.contains("adaptive"), "stderr: {stderr}");
}

#[test]
fn repro_adaptive_rejects_corpus_flags() {
    let (code, _, stderr) = run_cli(repro().args(["adaptive", "--scale", "0.5"]));
    assert_eq!(code, 2);
    assert!(stderr.contains("adaptive"), "stderr: {stderr}");
}

/// End-to-end smoke: a pinned tiny budget runs to completion, prints the
/// table and the per-budget summary on stdout.
#[test]
fn repro_adaptive_prints_the_table() {
    let (code, stdout, stderr) =
        run_cli(repro().args(["adaptive", "--budget", "2", "--seed", "3"]));
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("== Adaptive vs fixed NotABot =="),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("open-door"), "stdout: {stdout}");
    assert!(
        stdout.contains("budget  2: adaptive strictly ahead on"),
        "stdout: {stdout}"
    );
}
