//! Differential test for the fleet scheduler's pipelined checkpoints.
//!
//! For random fleets — tenant count, activity waves, ops per wake, and
//! the master seed all drawn by proptest — N tenants interleaved on one
//! host through [`Host::checkpoint_pipelined`] must restore to exactly
//! the KV state of N isolated hosts, each running a single tenant
//! through the same op stream with the cycles fully serialized. The
//! scheduler only reorders *when* flushes complete in virtual time; any
//! divergence in restored state is a correctness bug in the barrier
//! narrowing, the order of commits on the shared store, or the capture
//! itself.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_apps::pool::TenantFleet;
use aurora_core::fleet::TenantHealth;
use aurora_core::Host;
use aurora_hw::ModelDev;
use aurora_objstore::StoreConfig;
use aurora_sim::SimClock;
use proptest::prelude::*;

/// Keys per tenant (small: the point is many tenants, not big stores).
const KEYS: u64 = 16;
/// Value bytes — sub-page, so incremental cycles ride the delta path.
const VALUE_LEN: usize = 48;
/// Heap bytes per tenant server.
const HEAP: u64 = 256 * 1024;

fn new_host() -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 256 * 1024));
    Host::boot("fleet-diff", dev, StoreConfig::default()).unwrap()
}

/// Runs the interleaved fleet: waves of zipfian-active tenants touch
/// their streams, each wave checkpoints through the pipelined
/// scheduler, and cycles from consecutive waves overlap in virtual
/// time. Returns each tenant's post-crash restored digest plus the
/// touch schedule (which rounds woke which tenant) for the isolated
/// replay.
fn run_interleaved(
    seed: u64,
    tenants: usize,
    rounds: u32,
    wave_k: usize,
    ops: usize,
) -> (Vec<u64>, Vec<Vec<u32>>) {
    let mut host = new_host();
    let mut fleet = TenantFleet::start(&mut host, tenants, seed, HEAP, KEYS, VALUE_LEN).unwrap();
    let mut schedule: Vec<Vec<u32>> = vec![Vec::new(); tenants];
    for round in 0..rounds {
        let wave = fleet.wave(wave_k);
        for &t in &wave {
            fleet.touch(&mut host, t, ops).unwrap();
            schedule[t].push(round);
        }
        fleet.checkpoint_wave(&mut host, &wave, round).unwrap();
    }
    host.fleet_drain();
    let mut host = host.crash_and_reboot().unwrap();
    let digests = (0..tenants)
        .map(|t| fleet.restore_tenant(&mut host, t).unwrap())
        .collect();
    (digests, schedule)
}

/// Replays one tenant alone on a fresh host: same global index, same
/// seed, so `start_subset` hands it the identical op stream; the
/// recorded schedule drives the same touches and checkpoint names, but
/// every cycle is serialized — nothing else runs on the host.
fn run_isolated(seed: u64, index: usize, schedule: &[u32], ops: usize) -> u64 {
    let mut host = new_host();
    let mut fleet =
        TenantFleet::start_subset(&mut host, seed, &[index], HEAP, KEYS, VALUE_LEN).unwrap();
    for &round in schedule {
        fleet.touch(&mut host, 0, ops).unwrap();
        fleet.checkpoint_wave(&mut host, &[0], round).unwrap();
        host.fleet_drain();
    }
    let mut host = host.crash_and_reboot().unwrap();
    fleet.restore_tenant(&mut host, 0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interleaved fleet state == isolated per-tenant state, for every
    /// tenant, across random fleet shapes and seeds.
    #[test]
    fn interleaved_fleet_matches_isolated_tenants(
        seed in any::<u64>(),
        tenants in 2usize..6,
        rounds in 1u32..4,
        wave_k in 1usize..5,
        ops in 1usize..10,
    ) {
        let (interleaved, schedule) = run_interleaved(seed, tenants, rounds, wave_k, ops);
        for (t, digest) in interleaved.iter().enumerate() {
            let isolated = run_isolated(seed, t, &schedule[t], ops);
            prop_assert_eq!(
                *digest, isolated,
                "tenant {} diverged between interleaved and isolated runs", t
            );
        }
    }
}

/// Rounds in the quarantine scenario: two healthy, two skipped under
/// quarantine, a re-admission probe, one healthy tail round.
const Q_ROUNDS: u32 = 6;

/// Runs a full-width fleet where tenant 0 is operator-quarantined
/// before round 2 and re-admitted at round 4 (the clock is advanced to
/// its probe window; the shared store is healthy, so the probe commits
/// on time). Touches land every round for every tenant — the
/// quarantined rounds' writes simply ride along in the re-admission
/// checkpoint. Returns the post-crash restored digests plus each
/// tenant's committed-checkpoint rounds for the isolated replay.
fn run_quarantined_interleaved(
    seed: u64,
    tenants: usize,
    ops: usize,
) -> (Vec<u64>, Vec<Vec<u32>>) {
    let mut host = new_host();
    let mut fleet = TenantFleet::start(&mut host, tenants, seed, HEAP, KEYS, VALUE_LEN).unwrap();
    let gid0 = fleet.tenants[0].gid;
    let mut committed: Vec<Vec<u32>> = vec![Vec::new(); tenants];
    let mut skips = 0u32;
    for round in 0..Q_ROUNDS {
        if round == 2 {
            let now = host.clock.now();
            host.sls.fleet.quarantine(gid0.0, now, "fleet-diff round-trip");
        }
        if round == 4 {
            let probe_at = host.tenant_domain(gid0).next_probe;
            host.clock.advance_to(probe_at);
        }
        let wave: Vec<usize> = (0..tenants).collect();
        for &t in &wave {
            fleet.touch(&mut host, t, ops).unwrap();
        }
        let cycles = fleet.checkpoint_wave(&mut host, &wave, round).unwrap();
        for (i, cycle) in cycles.iter().enumerate() {
            match &cycle.result {
                Ok(bd) if bd.outcome.committed() => committed[wave[i]].push(round),
                Ok(_) => skips += 1,
                Err(e) => panic!("healthy-store cycle failed: {e}"),
            }
        }
    }
    assert!(skips >= 1, "quarantine never skipped a cycle");
    let d = host.tenant_domain(gid0);
    assert_eq!(
        d.health,
        TenantHealth::Healthy,
        "tenant 0 was not re-admitted"
    );
    assert!(d.readmissions >= 1);
    host.fleet_drain();
    let mut host = host.crash_and_reboot().unwrap();
    let digests = (0..tenants)
        .map(|t| fleet.restore_tenant(&mut host, t).unwrap())
        .collect();
    (digests, committed)
}

/// Replays one tenant alone, touching every round but checkpointing
/// only at the rounds where the interleaved run committed — exactly
/// the schedule a quarantined tenant experiences.
fn run_isolated_sparse(seed: u64, index: usize, ckpts: &[u32], ops: usize) -> u64 {
    let mut host = new_host();
    let mut fleet =
        TenantFleet::start_subset(&mut host, seed, &[index], HEAP, KEYS, VALUE_LEN).unwrap();
    for round in 0..Q_ROUNDS {
        fleet.touch(&mut host, 0, ops).unwrap();
        if ckpts.contains(&round) {
            fleet.checkpoint_wave(&mut host, &[0], round).unwrap();
            host.fleet_drain();
        }
    }
    let mut host = host.crash_and_reboot().unwrap();
    fleet.restore_tenant(&mut host, 0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Quarantine → re-admission round-trips keep digest equality: a
    /// tenant that lost cycles to quarantine restores to exactly the
    /// state of an isolated run that only checkpointed at the committed
    /// rounds, and the healthy tenants never lose a round.
    #[test]
    fn quarantine_roundtrip_keeps_digest_equality(
        seed in any::<u64>(),
        tenants in 2usize..5,
        ops in 1usize..8,
    ) {
        let (digests, committed) = run_quarantined_interleaved(seed, tenants, ops);
        prop_assert!(
            committed[0].len() < Q_ROUNDS as usize,
            "tenant 0 never lost a round to quarantine"
        );
        for t in 1..tenants {
            prop_assert_eq!(committed[t].len(), Q_ROUNDS as usize);
        }
        for t in 0..tenants {
            let isolated = run_isolated_sparse(seed, t, &committed[t], ops);
            prop_assert_eq!(
                digests[t], isolated,
                "tenant {} diverged across the quarantine round-trip", t
            );
        }
    }
}

/// Deterministic anchor: a full-width fleet really does overlap cycles
/// (the proptest can't assert engagement per case — a one-tenant wave
/// with long gaps may drain between admissions).
#[test]
fn interleaved_run_engages_the_scheduler() {
    let mut host = new_host();
    let mut fleet = TenantFleet::start(&mut host, 4, 0xd1ff, HEAP, KEYS, VALUE_LEN).unwrap();
    for round in 0..2u32 {
        let wave = fleet.wave(4);
        for &t in &wave {
            fleet.touch(&mut host, t, 4).unwrap();
        }
        fleet.checkpoint_wave(&mut host, &wave, round).unwrap();
    }
    assert!(
        host.sls.fleet.stats.overlapped > 0,
        "full-width waves must overlap cycles"
    );
    assert!(host.sls.fleet.stats.admitted >= 8);
    host.fleet_drain();
}
