//! Seeded crash campaign: hundreds of randomized fault schedules, each
//! driven through checkpoint → crash → recover → restore, asserting
//! after every crash that (1) the recovered store scrubs clean, (2)
//! every surviving checkpoint restores to exactly the state captured at
//! its barrier and (3) every acknowledged checkpoint survived. The
//! hostile device may lie: damage to the blocks it says it corrupted as
//! written is excused, and nothing else.
//!
//! The flaky and hostile campaigns are two rows of the scenario
//! driver's table (`campaign::run`, DESIGN §9) on a materialized store:
//! point `n` is random schedule `n`. Each defaults to 200 schedules and
//! scales through `AURORA_CRASH_ITERS` (CI nightly runs set it much
//! higher) and prints its summary, the hit histogram included.
//!
//! The three sweeps after them run further rows at their full width. A
//! row whose faults never land on a target its scenario declares is a
//! violation, so `passed()` also says the faults hit what they were
//! aimed at.

use aurora::core::campaign::{run, schedules_from_env, CampaignReport, Hit, Scenario};

/// Runs `schedules_from_env(200)` schedules of a random row, prints its
/// summary and requires it to pass.
fn campaign(row: Scenario) -> CampaignReport {
    let schedules = schedules_from_env(200);
    let report = run(&row, 0..schedules);
    println!("{}", report.summary());
    assert!(
        report.passed(),
        "campaign violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.schedules, schedules);
    report
}

#[test]
fn campaign_flaky_device() {
    let report = campaign(Scenario::flaky(0xa070_5175));
    // The schedule rates must actually exercise the pipeline: some
    // checkpoints abort, some crashes land mid-flush, some faults reach
    // a data write, retries absorb transient errors, and every surviving
    // checkpoint is re-verified.
    assert!(report.committed > report.schedules, "baselines + survivors");
    assert!(report.aborted > 0, "no checkpoint ever aborted");
    assert!(report.crashes > report.schedules, "no mid-schedule crash");
    assert!(report.hits_on(Hit::Data) > 0, "no fault reached a data write");
    assert!(report.transient_absorbed > 0, "retries never exercised");
    assert!(report.restores_verified > report.schedules);
}

#[test]
fn campaign_hostile_device() {
    // Adds silent bit corruption on top of the flaky profile; the CRC
    // journal and scrub must keep every surviving state bit-exact.
    let report = campaign(Scenario::hostile(0x5c2b_0b5e));
    assert!(report.aborted > 0);
    assert!(report.restores_verified > 0);
}

#[test]
fn campaign_delta_append_power_cut_sweep() {
    // Walks a power cut through every device-write ordinal of a delta
    // round: its commit record, then the history GC's delete behind
    // it. Each survivor must scrub clean and restore exactly the arena
    // recorded before its attempt.
    let report = run(&Scenario::delta_cut(), 1..=2);
    assert!(
        report.passed(),
        "delta sweep violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.crashes, 2);
    assert_eq!(report.hits_on(Hit::Journal), 2, "every cut fires: {}", report.summary());
    // The two baselines survive both cuts; the cut on the commit drops
    // the delta round and the cut on the delete behind it keeps it.
    assert_eq!(report.restores_verified, 2 + 3, "{}", report.summary());
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
    // scheduler — tenant A's commit record, then tenant B's, queued
    // behind it. Both tenants must recover scrub-clean, and every
    // survivor must restore exactly the arena recorded before its
    // attempt.
    let report = run(&Scenario::fleet_cut(), 1..=2);
    assert!(
        report.passed(),
        "fleet sweep violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.crashes, 2);
    assert_eq!(report.hits_on(Hit::Journal), 2, "every cut fires: {}", report.summary());
    // Four baselines survive both cuts; the cut on B's record keeps A's
    // round.
    assert_eq!(report.restores_verified, 4 + 5, "{}", report.summary());
}

#[test]
fn campaign_is_reproducible_from_its_seed() {
    let (a, b) = (run(&Scenario::flaky(7), 0..16), run(&Scenario::flaky(7), 0..16));
    assert_eq!(a.summary(), b.summary());
    assert_eq!((a.hits, a.violations), (b.hits, b.violations));
}
