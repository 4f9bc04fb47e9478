//! Seeded crash campaign: hundreds of randomized fault schedules, each
//! driven through checkpoint → crash → recover → restore, asserting
//! after every crash that (1) the recovered store scrubs clean and
//! (2) every surviving checkpoint restores to exactly the state
//! captured at its barrier.
//!
//! The campaign size defaults to 200 schedules per profile and scales
//! through `AURORA_CRASH_ITERS` (CI nightly runs set it much higher).
//!
//! The three sweeps at the end run rows of the scenario driver's table
//! (`campaign::run`, DESIGN §9) at their full width. A sweep whose cuts
//! never land on a target its scenario declares is a violation, so
//! `passed()` also says the cuts hit what they were aimed at.

use aurora::core::campaign::{run, run_campaign, schedules_from_env, CampaignConfig, Scenario};
use aurora::hw::FaultRates;

#[test]
fn campaign_flaky_device() {
    let cfg = CampaignConfig {
        seed: 0xa070_5175,
        schedules: schedules_from_env(200),
        rounds: 6,
        rates: FaultRates::flaky(),
    };
    let report = run_campaign(&cfg);
    assert!(
        report.passed(),
        "campaign violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.schedules, cfg.schedules);
    // The schedule rates must actually exercise the pipeline: some
    // checkpoints abort, some crashes land mid-flush, retries absorb
    // transient errors, and every surviving checkpoint is re-verified.
    assert!(report.committed > report.schedules, "baselines + survivors");
    assert!(report.aborted > 0, "no checkpoint ever aborted");
    assert!(report.crashes > report.schedules, "no mid-schedule crash");
    assert!(report.transient_absorbed > 0, "retries never exercised");
    assert!(report.restores_verified > report.schedules);
}

#[test]
fn campaign_hostile_device() {
    // Adds silent bit corruption on top of the flaky profile; the CRC
    // journal and scrub must keep every surviving state bit-exact.
    let cfg = CampaignConfig {
        seed: 0x5c2b_0b5e,
        schedules: schedules_from_env(200),
        rounds: 6,
        rates: FaultRates::hostile(),
    };
    let report = run_campaign(&cfg);
    assert!(
        report.passed(),
        "campaign violations:\n{}",
        report.violations.join("\n")
    );
    assert!(report.aborted > 0);
    assert!(report.restores_verified > 0);
}

#[test]
fn campaign_delta_append_power_cut_sweep() {
    // Walks a power cut through every device-write ordinal of a delta
    // flush: each survivor must scrub clean and restore to the same
    // memory digest as a fault-free twin run.
    let report = run(&Scenario::delta_cut(), 1..=18);
    assert!(
        report.passed(),
        "delta sweep violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.crashes, 18);
    assert!(report.restores_verified > 0);
}

#[test]
fn campaign_chain_compaction_power_cut_sweep() {
    // Same walk through the checkpoint that commits the capping delta
    // and auto-folds every chain back into base images.
    let report = run(&Scenario::compaction_cut(), 1..=14);
    assert!(
        report.passed(),
        "compaction sweep violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.crashes, 14);
    assert!(report.restores_verified > 0);
}

#[test]
fn campaign_fleet_interleave_power_cut_sweep() {
    // Walks a power cut through every device-write ordinal of a round
    // where two tenants' checkpoint cycles pipeline through the fleet
    // scheduler — the cut lands while tenant A flushes and tenant B's
    // cycle queues behind A's commit. Both tenants must recover scrub-
    // clean, and every survivor must digest-match a fault-free twin of
    // the same interleaving.
    let report = run(&Scenario::fleet_cut(), 1..=16);
    assert!(
        report.passed(),
        "fleet sweep violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.crashes, 16);
    assert!(report.restores_verified > 0);
}

#[test]
fn campaign_is_reproducible_from_its_seed() {
    let cfg = CampaignConfig {
        seed: 7,
        schedules: 16,
        rounds: 6,
        rates: FaultRates::flaky(),
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.aborted, b.aborted);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.restores_verified, b.restores_verified);
    assert_eq!(a.transient_absorbed, b.transient_absorbed);
}
