//! Seeded crash campaigns: randomized fault schedules driven through a
//! checkpoint → crash → recover → restore loop.
//!
//! A campaign expands one seed into hundreds of fault schedules (see
//! [`aurora_hw::fault::FaultPlan::random`]) and runs each against a
//! fresh host. Every schedule checkpoints a small workload under
//! injected power cuts, transient I/O errors and latency spikes, then
//! crashes the machine and checks two invariants after recovery:
//!
//! 1. **Consistency** — [`aurora_objstore::ObjectStore::scrub`] reports
//!    no problems: metadata is intact and every page of every surviving
//!    checkpoint matches its recorded content hash.
//! 2. **Atomicity** — every checkpoint that survived recovery restores
//!    to exactly the memory state captured at its barrier; recovery
//!    never surfaces a torn or mixed state.
//!
//! The harness records the expected state *before* each checkpoint
//! attempt: a crash can land after the commit record but before the
//! call returns, so a checkpoint may be durable even though the caller
//! saw an abort. Whatever subset of attempts survives, each survivor
//! must match its recorded state bit-for-bit.
//!
//! Faults are armed only while the workload runs; the plan is cleared
//! before each simulated reboot so recovery and verification execute on
//! healthy hardware (the model for "the operator replaced the cable").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use aurora_hw::{
    BlockDev, DevHealth, FaultPlan, FaultRates, LinkFaultRates, MirrorDev, ModelDev, ReplicaState,
    ResilientDev,
};
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::page_hash;
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

use crate::fleet::TenantHealth;
use crate::replicate::{promote_to_host, ReplConfig};
use crate::restore::RestoreMode;
use crate::{CheckpointOutcome, GroupId, Host};

/// Golden-ratio multiplier for deriving per-schedule seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Parameters of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; schedule `i` uses `seed ^ (i * GOLDEN)`.
    pub seed: u64,
    /// Number of independent fault schedules to run.
    pub schedules: u64,
    /// Checkpoint rounds per schedule (round 0 is a fault-free
    /// baseline so recovery always has a durable state to land on).
    pub rounds: u32,
    /// Fault rates applied from round 1 onward.
    pub rates: FaultRates,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xa070_5175,
            schedules: 200,
            rounds: 6,
            rates: FaultRates::flaky(),
        }
    }
}

/// Aggregate results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Schedules completed.
    pub schedules: u64,
    /// Checkpoints that committed (including degraded-to-full).
    pub committed: u64,
    /// Checkpoints that degraded from incremental to full.
    pub degraded: u64,
    /// Checkpoints that committed with a degraded mirror (a replica
    /// detached, rebuilding, or unhealthy).
    pub degraded_mirror: u64,
    /// Checkpoints aborted by exhausted retries or a dead device.
    pub aborted: u64,
    /// Simulated whole-machine crashes (and recoveries).
    pub crashes: u64,
    /// Surviving checkpoints restored and compared against their
    /// recorded expected state.
    pub restores_verified: u64,
    /// Transient write errors absorbed by retries across all schedules.
    pub transient_absorbed: u64,
    /// Writes that needed at least one retry across all schedules.
    pub writes_retried: u64,
    /// Mirror read failovers (a preferred replica failed mid-read and a
    /// twin served the data) across all schedules.
    pub failovers: u64,
    /// Blocks the mirror rewrote from a twin during read repair.
    pub read_repairs: u64,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// True when no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} schedules: {} committed ({} degraded, {} degraded-mirror), \
             {} aborted, {} crashes, {} restores verified, \
             {} transient errors absorbed, {} violations",
            self.schedules,
            self.committed,
            self.degraded,
            self.degraded_mirror,
            self.aborted,
            self.crashes,
            self.restores_verified,
            self.transient_absorbed,
            self.violations.len()
        )
    }
}

/// Reads the campaign size from `AURORA_CRASH_ITERS`, falling back to
/// `default`. CI runs a short fixed-seed campaign on every push and
/// scales up through this variable on nightly runs.
pub fn schedules_from_env(default: u64) -> u64 {
    std::env::var("AURORA_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs a full campaign: `cfg.schedules` independent fault schedules,
/// each on a fresh host. Schedule failures that prevent the loop itself
/// from making progress (boot errors, recovery errors) are recorded as
/// violations rather than panics so one bad seed cannot hide the rest.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    for idx in 0..cfg.schedules {
        if let Err(e) = run_schedule(cfg, idx, &mut report) {
            report
                .violations
                .push(format!("schedule {idx}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// Boots a host on a fresh simulated NVMe device.
fn boot_host() -> Result<Host> {
    boot_host_config(StoreConfig {
        journal_blocks: 512,
        ..StoreConfig::default()
    })
}

/// Boots a campaign host with an explicit store configuration.
fn boot_host_config(config: StoreConfig) -> Result<Host> {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 64 * 1024));
    Host::boot("campaign", dev, config)
}

/// Arms a randomized fault schedule on the primary device.
fn arm_faults(host: &mut Host, seed: u64, rates: FaultRates) {
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::random(seed, rates));
}

/// Clears any armed fault plan so recovery runs on healthy hardware.
fn disarm_faults(host: &mut Host) {
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
}

/// Runs one fault schedule end to end.
fn run_schedule(cfg: &CampaignConfig, idx: u64, report: &mut CampaignReport) -> Result<()> {
    let schedule_seed = cfg.seed ^ idx.wrapping_mul(GOLDEN);
    let mut host = boot_host()?;
    let mut pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4 * 4096, false)?;
    let mut gid = host.persist("app", pid)?;

    // Expected memory state per checkpoint name, recorded BEFORE each
    // attempt (the commit record may survive a crash mid-call).
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    // Bumped on every re-arm so a schedule that keeps crashing at the
    // same write does not replay the identical decision forever.
    let mut segment: u64 = 0;

    for round in 0..cfg.rounds {
        let tag = format!("s{idx:04}-r{round:03}");
        host.kernel.mem_write(pid, addr, tag.as_bytes())?;
        let name = format!("r{round}");
        expected.insert(name.clone(), tag.into_bytes());

        let result = host.checkpoint(gid, round == 0, Some(&name));
        let crash_now = match result {
            Ok(bd) => {
                match bd.outcome {
                    CheckpointOutcome::Committed => report.committed += 1,
                    CheckpointOutcome::DegradedToFull => {
                        report.committed += 1;
                        report.degraded += 1;
                    }
                    CheckpointOutcome::DegradedMirror => {
                        report.committed += 1;
                        report.degraded_mirror += 1;
                    }
                    // No standby is attached on this path; the arm keeps
                    // the match exhaustive.
                    CheckpointOutcome::DegradedReplication => report.committed += 1,
                    CheckpointOutcome::Aborted => report.aborted += 1,
                    // This path drives `Host::checkpoint` directly, not
                    // the fleet scheduler, so quarantine never fires;
                    // the arm keeps the match exhaustive.
                    CheckpointOutcome::Quarantined => report.aborted += 1,
                }
                if bd.outcome.committed() {
                    host.clock.advance_to(bd.durable_at);
                }
                // A power cut mid-flush leaves the device dead; that is
                // the machine crashing, not an error to report.
                host.sls.primary.borrow().device().health() == DevHealth::Dead
            }
            Err(e) => {
                let dead = host.sls.primary.borrow().device().health() == DevHealth::Dead;
                if !dead {
                    report.violations.push(format!(
                        "schedule {idx} round {round}: checkpoint error on live device: {e}"
                    ));
                }
                report.aborted += 1;
                true
            }
        };

        if round == 0 {
            // Baseline is durable; arm the randomized schedule.
            arm_faults(&mut host, schedule_seed, cfg.rates);
        }

        if crash_now || round + 1 == cfg.rounds {
            disarm_faults(&mut host);
            host = host.crash_and_reboot()?;
            report.crashes += 1;
            verify_recovered(&mut host, addr, &expected, idx, report);

            // Resume the workload from the newest surviving checkpoint.
            let store = host.sls.primary.clone();
            let head = store
                .borrow()
                .head()
                .ok_or_else(|| Error::internal("no durable checkpoint after reboot"))?;
            let r = host.restore(&store, head, RestoreMode::Eager)?;
            pid = r
                .root_pid()
                .ok_or_else(|| Error::internal("restore returned no root pid"))?;
            drop(store);
            gid = host.persist("app", pid)?;

            if round + 1 < cfg.rounds {
                segment += 1;
                arm_faults(
                    &mut host,
                    schedule_seed ^ segment.wrapping_mul(GOLDEN),
                    cfg.rates,
                );
            }
        }
    }

    let rs = host.sls.primary.borrow().device().retry_stats();
    report.transient_absorbed += rs.transient_absorbed;
    report.writes_retried += rs.writes_retried;
    Ok(())
}

/// Power-cut sweep across the parallel coalesced flush.
///
/// The randomized campaign samples the fault space; this sweep walks it
/// exhaustively for the failure mode write coalescing introduces: a cut
/// *inside* a multi-block extent write. Each iteration boots a
/// materialized store (page bytes really go through the device), takes
/// a durable baseline, dirties a working set wide enough to coalesce
/// into several extents, then arms a power cut at exactly the `n`-th
/// device write and checkpoints with the 4-worker parallel flush. After
/// the crash, recovery must find a consistent store (`scrub` re-hashes
/// every surviving page, so a torn extent that leaked into a committed
/// checkpoint cannot hide) and every surviving checkpoint must restore
/// to its recorded pre-checkpoint state.
///
/// `pages` sizes the working set and `cuts` lists the write ordinals to
/// cut at. A materialized extent burns one ordinal per block, so with
/// nothing deduplicated write `k` is page `k` of the plan, and a working
/// set wider than `FLUSH_BATCH_PAGES` puts cuts between the streamed
/// flush's batches.
pub fn run_power_cut_sweep(
    pages: u64,
    cuts: impl IntoIterator<Item = u64>,
    workers: usize,
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in cuts {
        if let Err(e) = run_power_cut_iteration(n, pages, workers, &mut report) {
            report
                .violations
                .push(format!("power-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// Pages dirtied per round of the dense sweeps — enough to span several
/// coalesced extents even after dedup.
const SWEEP_PAGES: u64 = 96;

/// One sweep iteration: cut power at device write `n` mid-flush.
fn run_power_cut_iteration(
    n: u64,
    pages: u64,
    workers: usize,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = boot_host_config(StoreConfig {
        journal_blocks: 512,
        materialize_data: true,
        ..StoreConfig::default()
    })?;
    host.sls.flush_workers = workers;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false)?;
    let gid = host.persist("app", pid)?;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    for round in 0..2u32 {
        let tag = format!("cut{n:04}-r{round}");
        // Whole pages, so the incremental round stores images and not
        // delta records; distinct contents per page so nothing dedups
        // away and the flush plan really spans multiple extents.
        for p in 0..pages {
            let mut body = format!("{tag}-p{p:04}").into_bytes();
            body.resize(4096, b'.');
            host.kernel.mem_write(pid, addr + p * 4096, &body)?;
        }
        expected.insert(format!("r{round}"), format!("{tag}-p0000").into_bytes());

        if round == 1 {
            arm_faults_cut(&mut host, n);
        }
        let name = format!("r{round}");
        match host.checkpoint(gid, round == 0, Some(&name)) {
            Ok(bd) => {
                if bd.outcome.committed() {
                    report.committed += 1;
                    host.clock.advance_to(bd.durable_at);
                } else {
                    report.aborted += 1;
                }
            }
            Err(e) => {
                let dead = host.sls.primary.borrow().device().health() == DevHealth::Dead;
                if !dead {
                    report.violations.push(format!(
                        "power-cut {n}: checkpoint error on live device: {e}"
                    ));
                }
                report.aborted += 1;
            }
        }
    }

    disarm_faults(&mut host);
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;
    verify_recovered(&mut host, addr, &expected, n, report);
    Ok(())
}

/// Power-cut sweep across the batched restore read pipeline.
///
/// The flush sweep proves a cut inside a coalesced *write* cannot tear
/// the store; this sweep proves the same for coalesced *reads*. Each
/// iteration boots a materialized store, commits a durable baseline
/// wide enough to span several read extents, drops every cached page so
/// the restore really hits the device, then cuts power at exactly the
/// `n`-th device read of an eager batched restore. Reads mutate
/// nothing, so after the machine reboots the store must scrub clean and
/// the baseline must restore byte-for-byte.
///
/// `pages` sizes the image and `cuts` lists the read ordinals to cut
/// at. Only page reads burn ordinals, one per block of an extent, and
/// the sweep's pages are all distinct — so read `k` is block `k` of the
/// read plan, and an image wider than `RESTORE_BATCH_BLOCKS` puts cuts
/// between and inside the streamed page-in's later batches, after
/// earlier batches were already verified and admitted to the read cache.
pub fn run_restore_power_cut_sweep(
    pages: u64,
    cuts: impl IntoIterator<Item = u64>,
    workers: usize,
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in cuts {
        if let Err(e) = run_restore_cut_iteration(n, pages, workers, &mut report) {
            report
                .violations
                .push(format!("restore-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: cut power at device read `n` mid-restore.
fn run_restore_cut_iteration(
    n: u64,
    pages: u64,
    workers: usize,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = boot_host_config(StoreConfig {
        journal_blocks: 512,
        materialize_data: true,
        ..StoreConfig::default()
    })?;
    host.sls.restore_workers = workers;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false)?;
    let gid = host.persist("app", pid)?;

    let tag = format!("rcut{n:04}");
    for p in 0..pages {
        let body = format!("{tag}-p{p:04}");
        host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
    }
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    expected.insert("r0".to_string(), format!("{tag}-p0000").into_bytes());
    let bd = host.checkpoint(gid, true, Some("r0"))?;
    host.clock.advance_to(bd.durable_at);
    report.committed += 1;
    let ckpt = bd
        .ckpt
        .ok_or_else(|| Error::internal("baseline did not commit"))?;

    // Cold start: every cached page is dropped, so the batched restore
    // must read the device — and the cut lands mid-pipeline.
    host.sls.primary.borrow_mut().drop_caches()?;
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::power_cut_on_read(n));
    let restore_result = {
        let store = host.sls.primary.clone();
        host.restore(&store, ckpt, RestoreMode::Eager)
    };
    if restore_result.is_err() {
        // The cut landed inside the restore's reads; the machine is
        // dead and the attempt is abandoned.
        report.aborted += 1;
    }

    disarm_faults(&mut host);
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;
    verify_recovered(&mut host, addr, &expected, n, report);
    Ok(())
}

/// Pages in the delta sweeps' working set — small on purpose: the point
/// is many sub-page records per round, not extent width.
const DELTA_SWEEP_PAGES: u64 = 24;

/// Rounds per delta-sweep iteration: r0 is a full baseline, r1 a
/// fault-free delta round (proving the path engages at all), r2 the
/// delta round run under the armed power cut.
const DELTA_ROUNDS: u32 = 3;

/// Chain cap used by the compaction sweep: short enough that four delta
/// rounds hit it and the final checkpoint triggers the auto-compactor.
const COMPACT_CHAIN_CAP: u32 = 4;

/// Rounds per compaction-sweep iteration: r0 base plus four delta
/// rounds; the fourth reaches [`COMPACT_CHAIN_CAP`] and its checkpoint
/// folds every chain while the cut is armed.
const COMPACT_ROUNDS: u32 = 5;

/// Boots a materialized host for the delta sweeps, optionally
/// overriding the delta chain cap.
fn delta_sweep_host(workers: usize, chain_cap: Option<u32>) -> Result<Host> {
    let mut config = StoreConfig {
        journal_blocks: 512,
        materialize_data: true,
        ..StoreConfig::default()
    };
    if let Some(cap) = chain_cap {
        config.delta_max_chain = cap;
    }
    let mut host = boot_host_config(config)?;
    host.sls.flush_workers = workers;
    Ok(host)
}

/// Page-0-anchored body written to page `p` in round `round`. Round 0
/// fills fresh pages (no committed base, so the full path applies);
/// later rounds overwrite the same small prefix so every round stages
/// one sub-page delta per page and chains grow by one per round.
fn delta_page_body(tag: &str, round: u32, p: u64) -> String {
    if round == 0 {
        format!("{tag}-base-p{p:04}")
    } else {
        format!("{tag}-r{round}-p{p:02}")
    }
}

/// Applies round `round` of the delta-sweep workload.
fn delta_round_writes(
    host: &mut Host,
    pid: aurora_posix::Pid,
    addr: u64,
    round: u32,
    tag: &str,
) -> Result<()> {
    for p in 0..DELTA_SWEEP_PAGES {
        let body = delta_page_body(tag, round, p);
        host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
    }
    Ok(())
}

/// Restores checkpoint `id` from the primary store, digests the whole
/// restored memory region, and tears the restored process back down.
fn restore_digest(host: &mut Host, id: CkptId, addr: u64, bytes: usize) -> Result<u64> {
    let store = host.sls.primary.clone();
    restore_digest_on(host, &store, id, addr, bytes)
}

/// Like [`restore_digest`] but restores from an explicit store — the
/// fault-domain sweep's tenants each checkpoint to their own store.
fn restore_digest_on(
    host: &mut Host,
    store: &StoreHandle,
    id: CkptId,
    addr: u64,
    bytes: usize,
) -> Result<u64> {
    let r = host.restore(store, id, RestoreMode::Eager)?;
    let np = r
        .root_pid()
        .ok_or_else(|| Error::internal("restore returned no root pid"))?;
    let mut buf = vec![0u8; bytes];
    host.kernel.mem_read(np, addr, &mut buf)?;
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    Ok(page_hash(&buf))
}

/// Runs the delta workload on a fault-free twin host and returns the
/// full-region digest of every workload checkpoint, keyed by name. The
/// twin reboots before digesting so both sides of the comparison go
/// through the same journal-replay recovery path.
fn delta_twin_digests(
    tag: &str,
    workers: usize,
    rounds: u32,
    chain_cap: Option<u32>,
    expect_compaction: bool,
) -> Result<HashMap<String, u64>> {
    let mut host = delta_sweep_host(workers, chain_cap)?;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, DELTA_SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;
    for round in 0..rounds {
        delta_round_writes(&mut host, pid, addr, round, tag)?;
        let bd = host.checkpoint(gid, round == 0, Some(&format!("r{round}")))?;
        host.clock.advance_to(bd.durable_at);
    }
    {
        let store = host.sls.primary.borrow();
        let stats = &store.stats;
        if stats.delta_records == 0 {
            return Err(Error::internal(
                "fault-free twin never staged a delta record",
            ));
        }
        if expect_compaction && stats.chains_compacted == 0 {
            return Err(Error::internal(
                "fault-free twin never triggered the chain compactor",
            ));
        }
    }
    let mut host = host.crash_and_reboot()?;
    let named: Vec<(CkptId, String)> = host
        .sls
        .primary
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect();
    let mut out = HashMap::new();
    for (id, name) in named {
        // Internal checkpoints (e.g. the compactor's) are not workload
        // rounds; scrub validates them, the twin map skips them.
        if !name.starts_with('r') {
            continue;
        }
        let digest = restore_digest(&mut host, id, addr, (DELTA_SWEEP_PAGES * 4096) as usize)?;
        out.insert(name, digest);
    }
    Ok(out)
}

/// Compares every surviving workload checkpoint of a freshly recovered
/// host against the fault-free twin's digest of the same name: replay
/// of the delta log after a cut must reconstruct byte-identical memory.
fn verify_against_twin(
    host: &mut Host,
    twin: &HashMap<String, u64>,
    addr: u64,
    label: &str,
    report: &mut CampaignReport,
) {
    let survivors: Vec<(CkptId, String)> = host
        .sls
        .primary
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect();
    for (id, name) in survivors {
        let Some(&want) = twin.get(&name) else {
            continue;
        };
        match restore_digest(host, id, addr, (DELTA_SWEEP_PAGES * 4096) as usize) {
            Ok(got) if got == want => report.restores_verified += 1,
            Ok(got) => report.violations.push(format!(
                "{label}: checkpoint {name} digest {got:#018x} diverges from fault-free twin {want:#018x}"
            )),
            Err(e) => report.violations.push(format!(
                "{label}: digesting surviving checkpoint {name} failed: {e}"
            )),
        }
    }
}

/// Power-cut sweep across the delta-log append path.
///
/// The flush sweep proves a cut inside a coalesced full-image write
/// cannot tear the store; this sweep proves the same for the sub-page
/// delta path, where a committed checkpoint's pages are reconstructed
/// by replaying journal-resident delta records over a base image. Each
/// iteration takes a full baseline, commits one fault-free delta round
/// (and fails if the delta path never engaged), then arms a power cut
/// at exactly the `n`-th device write of a second delta round. After
/// the crash, recovery must scrub clean, every surviving checkpoint
/// must restore to its recorded state, and every survivor's full
/// restored-memory digest must match a fault-free twin run — replay
/// equivalence, not just prefix equality.
pub fn run_delta_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    let twin = match delta_twin_digests("delta", workers, DELTA_ROUNDS, None, false) {
        Ok(t) => t,
        Err(e) => {
            report
                .violations
                .push(format!("delta-cut twin: harness error: {e}"));
            return report;
        }
    };
    for n in 1..=cuts {
        if let Err(e) = run_delta_cut_iteration(n, workers, &twin, &mut report) {
            report
                .violations
                .push(format!("delta-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: cut power at device write `n` mid-delta-flush.
fn run_delta_cut_iteration(
    n: u64,
    workers: usize,
    twin: &HashMap<String, u64>,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = delta_sweep_host(workers, None)?;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, DELTA_SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    for round in 0..DELTA_ROUNDS {
        delta_round_writes(&mut host, pid, addr, round, "delta")?;
        let name = format!("r{round}");
        expected.insert(name.clone(), delta_page_body("delta", round, 0).into_bytes());

        if round + 1 == DELTA_ROUNDS {
            arm_faults_cut(&mut host, n);
        }
        match host.checkpoint(gid, round == 0, Some(&name)) {
            Ok(bd) => {
                if bd.outcome.committed() {
                    report.committed += 1;
                    host.clock.advance_to(bd.durable_at);
                } else {
                    report.aborted += 1;
                }
            }
            Err(e) => {
                let dead = host.sls.primary.borrow().device().health() == DevHealth::Dead;
                if !dead {
                    report.violations.push(format!(
                        "delta-cut {n}: checkpoint error on live device: {e}"
                    ));
                }
                report.aborted += 1;
            }
        }
        if round == 1 && host.sls.primary.borrow().stats.delta_records == 0 {
            report.violations.push(format!(
                "delta-cut {n}: fault-free delta round never staged a delta record"
            ));
        }
    }

    disarm_faults(&mut host);
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;
    verify_recovered(&mut host, addr, &expected, n, report);
    verify_against_twin(&mut host, twin, addr, &format!("delta-cut {n}"), report);
    Ok(())
}

/// Power-cut sweep across the background chain compactor.
///
/// Compaction folds a delta chain back into a full base image through
/// an ordinary committed checkpoint, so a cut anywhere inside it must
/// leave either the old chain or the folded image — never a mix. Each
/// iteration builds chains up to [`COMPACT_CHAIN_CAP`] over fault-free
/// rounds, then arms a cut at device write `n` of the final round,
/// whose checkpoint both commits the capping delta and auto-triggers
/// the compactor: the ordinal walks the cut through the delta seal,
/// the superblock flip, and every write of the fold itself. Recovery
/// must scrub clean and every survivor must match the fault-free twin.
pub fn run_compact_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    let twin = match delta_twin_digests(
        "compact",
        workers,
        COMPACT_ROUNDS,
        Some(COMPACT_CHAIN_CAP),
        true,
    ) {
        Ok(t) => t,
        Err(e) => {
            report
                .violations
                .push(format!("compact-cut twin: harness error: {e}"));
            return report;
        }
    };
    for n in 1..=cuts {
        if let Err(e) = run_compact_cut_iteration(n, workers, &twin, &mut report) {
            report
                .violations
                .push(format!("compact-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: cut power at device write `n` while the final
/// checkpoint commits the capping delta and folds every chain.
fn run_compact_cut_iteration(
    n: u64,
    workers: usize,
    twin: &HashMap<String, u64>,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = delta_sweep_host(workers, Some(COMPACT_CHAIN_CAP))?;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, DELTA_SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    for round in 0..COMPACT_ROUNDS {
        delta_round_writes(&mut host, pid, addr, round, "compact")?;
        let name = format!("r{round}");
        expected.insert(name.clone(), delta_page_body("compact", round, 0).into_bytes());

        if round + 1 == COMPACT_ROUNDS {
            arm_faults_cut(&mut host, n);
        }
        match host.checkpoint(gid, round == 0, Some(&name)) {
            Ok(bd) => {
                if bd.outcome.committed() {
                    report.committed += 1;
                    host.clock.advance_to(bd.durable_at);
                } else {
                    report.aborted += 1;
                }
            }
            Err(e) => {
                let dead = host.sls.primary.borrow().device().health() == DevHealth::Dead;
                if !dead {
                    report.violations.push(format!(
                        "compact-cut {n}: checkpoint error on live device: {e}"
                    ));
                }
                report.aborted += 1;
            }
        }
        if round + 2 == COMPACT_ROUNDS {
            // The penultimate round ran fault-free: chains must be one
            // short of the cap, poised for the final round to fold.
            let high = host.sls.primary.borrow().stats.chain_len_max;
            if high + 1 < u64::from(COMPACT_CHAIN_CAP) {
                report.violations.push(format!(
                    "compact-cut {n}: chains only reached {high} before the final round"
                ));
            }
        }
    }

    disarm_faults(&mut host);
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;
    verify_recovered(&mut host, addr, &expected, n, report);
    verify_against_twin(&mut host, twin, addr, &format!("compact-cut {n}"), report);
    Ok(())
}

/// Rounds per fleet-sweep iteration: r0 is a serialized full baseline
/// for both tenants, r1 a fault-free pipelined round (proving cycles
/// actually overlap), r2 the pipelined round run under the armed cut.
const FLEET_ROUNDS: u32 = 3;

/// Spawns the two fleet-sweep tenants on `host`, each with its own
/// persisted group and a [`DELTA_SWEEP_PAGES`]-page arena. Both arenas
/// land at the same per-process virtual address (fresh address spaces),
/// which lets the single-address verification helpers serve both
/// tenants.
fn fleet_tenant_setup(host: &mut Host) -> Result<((aurora_posix::Pid, GroupId), (aurora_posix::Pid, GroupId), u64)> {
    let pid_a = host.kernel.spawn("tenant-a");
    let addr_a = host.kernel.mmap_anon(pid_a, DELTA_SWEEP_PAGES * 4096, false)?;
    let gid_a = host.persist("tenant-a", pid_a)?;
    let pid_b = host.kernel.spawn("tenant-b");
    let addr_b = host.kernel.mmap_anon(pid_b, DELTA_SWEEP_PAGES * 4096, false)?;
    let gid_b = host.persist("tenant-b", pid_b)?;
    if addr_a != addr_b {
        return Err(Error::internal(
            "fleet sweep tenants mapped their arenas at different addresses",
        ));
    }
    Ok(((pid_a, gid_a), (pid_b, gid_b), addr_a))
}

/// Runs the two-tenant fleet workload fault-free and returns the
/// full-region digest of every tenant checkpoint, keyed by name. Like
/// [`delta_twin_digests`], the twin reboots before digesting so both
/// sides of the comparison recover through journal replay.
fn fleet_twin_digests(workers: usize) -> Result<HashMap<String, u64>> {
    let mut host = delta_sweep_host(workers, None)?;
    let ((pid_a, gid_a), (pid_b, gid_b), addr) = fleet_tenant_setup(&mut host)?;
    for round in 0..FLEET_ROUNDS {
        delta_round_writes(&mut host, pid_a, addr, round, "a")?;
        delta_round_writes(&mut host, pid_b, addr, round, "b")?;
        if round == 0 {
            for (gid, name) in [(gid_a, "a-r0"), (gid_b, "b-r0")] {
                let bd = host.checkpoint(gid, true, Some(name))?;
                host.clock.advance_to(bd.durable_at);
            }
        } else {
            host.checkpoint_pipelined(gid_a, false, Some(&format!("a-r{round}")))?;
            host.checkpoint_pipelined(gid_b, false, Some(&format!("b-r{round}")))?;
            host.fleet_drain();
        }
    }
    if host.sls.primary.borrow().stats.delta_records == 0 {
        return Err(Error::internal(
            "fleet twin never staged a delta record",
        ));
    }
    if host.sls.fleet.stats.overlapped == 0 {
        return Err(Error::internal(
            "fleet twin never overlapped two tenants' cycles",
        ));
    }
    let mut host = host.crash_and_reboot()?;
    let named: Vec<(CkptId, String)> = host
        .sls
        .primary
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect();
    let mut out = HashMap::new();
    for (id, name) in named {
        // Only the tenants' own rounds belong in the twin map.
        if !name.starts_with("a-") && !name.starts_with("b-") {
            continue;
        }
        let digest = restore_digest(&mut host, id, addr, (DELTA_SWEEP_PAGES * 4096) as usize)?;
        out.insert(name, digest);
    }
    Ok(out)
}

/// Records the outcome of one fleet-sweep checkpoint attempt, treating
/// an error on a dead device as an expected abort (the cut landed).
fn fleet_ckpt_attempt(
    host: &mut Host,
    gid: GroupId,
    full: bool,
    name: &str,
    pipelined: bool,
    label: &str,
    report: &mut CampaignReport,
) {
    let res = if pipelined {
        host.checkpoint_pipelined(gid, full, Some(name))
    } else {
        host.checkpoint(gid, full, Some(name))
    };
    match res {
        Ok(bd) => {
            if bd.outcome.committed() {
                report.committed += 1;
                if !pipelined {
                    host.clock.advance_to(bd.durable_at);
                }
            } else {
                report.aborted += 1;
            }
        }
        Err(e) => {
            let dead = host.sls.primary.borrow().device().health() == DevHealth::Dead;
            if !dead {
                report
                    .violations
                    .push(format!("{label}: checkpoint error on live device: {e}"));
            }
            report.aborted += 1;
        }
    }
}

/// Power-cut sweep across two tenants' interleaved checkpoint cycles.
///
/// The delta sweep proves a cut inside one tenant's flush cannot tear
/// the store; this sweep proves the same while the fleet scheduler
/// pipelines two tenants. Each iteration takes serialized full
/// baselines, runs one fault-free pipelined round (and fails if the
/// scheduler never overlapped the two cycles), then arms a power cut
/// at exactly the `n`-th device write of a final pipelined round —
/// the ordinal walks the cut through tenant A's capture and flush and
/// on into tenant B's, so some iterations die while A flushes and B's
/// capture is queued behind A's commit. After the crash, recovery must
/// scrub clean, every surviving checkpoint of either tenant must
/// restore to its recorded state, and every survivor's full digest
/// must match a fault-free twin run of the same interleaving.
pub fn run_fleet_power_cut_sweep(cuts: u64, workers: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    let twin = match fleet_twin_digests(workers) {
        Ok(t) => t,
        Err(e) => {
            report
                .violations
                .push(format!("fleet-cut twin: harness error: {e}"));
            return report;
        }
    };
    for n in 1..=cuts {
        if let Err(e) = run_fleet_cut_iteration(n, workers, &twin, &mut report) {
            report
                .violations
                .push(format!("fleet-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: cut power at device write `n` while the two
/// tenants' final cycles interleave.
fn run_fleet_cut_iteration(
    n: u64,
    workers: usize,
    twin: &HashMap<String, u64>,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = delta_sweep_host(workers, None)?;
    let ((pid_a, gid_a), (pid_b, gid_b), addr) = fleet_tenant_setup(&mut host)?;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    let label = format!("fleet-cut {n}");
    for round in 0..FLEET_ROUNDS {
        delta_round_writes(&mut host, pid_a, addr, round, "a")?;
        delta_round_writes(&mut host, pid_b, addr, round, "b")?;
        for tag in ["a", "b"] {
            expected.insert(
                format!("{tag}-r{round}"),
                delta_page_body(tag, round, 0).into_bytes(),
            );
        }

        let cut_round = round + 1 == FLEET_ROUNDS;
        if cut_round {
            arm_faults_cut(&mut host, n);
        }
        let pipelined = round > 0;
        let name_a = format!("a-r{round}");
        let name_b = format!("b-r{round}");
        fleet_ckpt_attempt(&mut host, gid_a, round == 0, &name_a, pipelined, &label, report);
        fleet_ckpt_attempt(&mut host, gid_b, round == 0, &name_b, pipelined, &label, report);
        if pipelined && !cut_round {
            host.fleet_drain();
            if host.sls.fleet.stats.overlapped == 0 {
                report.violations.push(format!(
                    "{label}: fault-free round never overlapped the two tenants' cycles"
                ));
            }
        }
        if round == 1 && host.sls.primary.borrow().stats.delta_records == 0 {
            report.violations.push(format!(
                "{label}: fault-free rounds never staged a delta record"
            ));
        }
    }

    disarm_faults(&mut host);
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;
    verify_recovered(&mut host, addr, &expected, n, report);
    verify_against_twin(&mut host, twin, addr, &label, report);
    Ok(())
}

/// Tenants in the fault-domain sweep. Tenant 0 is the poisoned one;
/// the other three prove the blast radius stays contained.
const FD_TENANTS: usize = 4;

/// Rounds per fault-domain iteration: r0 pipelined full baselines, r1 a
/// fault-free incremental round (the fleet must overlap), r2..r4 under
/// tenant 0's hostile fault plan (three consecutive failures quarantine
/// it), r5 while quarantined (the healthy fleet proceeds on schedule;
/// tenant 0's cycle is skipped), r6 and r7 after revival. A probe right
/// after revival may legitimately still fail — a latency-poisoned
/// device is draining its stalled queue — which doubles the backoff;
/// by r7 the retried probe must land and re-admit the tenant.
const FD_ROUNDS: u32 = 8;

/// First round run under the armed fault plan.
const FD_FAULT_ROUND: u32 = 2;

/// Round at whose start tenant 0's hardware is revived.
const FD_REVIVE_ROUND: u32 = 6;

/// The hostile per-tenant fault plans the sweep walks through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TenantFault {
    /// Power is cut on the tenant store's next write and never
    /// restored: every cycle aborts until the device is replaced.
    DeadDevice,
    /// Every write stalls far past the fleet's cycle deadline: cycles
    /// commit but chronically late.
    LatencySpike,
    /// Every read from the store's data region returns a flipped bit:
    /// the incremental pre-pass sees a damaged base each cycle.
    ReadCorruption,
}

impl TenantFault {
    fn label(self) -> &'static str {
        match self {
            TenantFault::DeadDevice => "dead-device",
            TenantFault::LatencySpike => "latency-spike",
            TenantFault::ReadCorruption => "read-corruption",
        }
    }
}

/// One fault-domain tenant: its process, its persistence group, and the
/// private store the group was rehomed onto.
struct FdTenant {
    pid: aurora_posix::Pid,
    gid: GroupId,
    store: StoreHandle,
}

/// Formats a private store for fault-domain tenant `i` on its own
/// simulated NVMe device (sharing the host's clock).
fn fd_tenant_store(host: &Host, i: usize) -> Result<StoreHandle> {
    let dev = Box::new(ModelDev::nvme(
        host.clock.clone(),
        &format!("tenant{i}"),
        64 * 1024,
    ));
    let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(dev));
    let store = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )?;
    Ok(Rc::new(RefCell::new(store)))
}

/// Spawns the fault-domain tenants, each persisted and rehomed onto its
/// own store so a device fault is confined to one tenant. All arenas
/// land at the same per-process virtual address (fresh address spaces).
fn fd_setup(host: &mut Host) -> Result<(Vec<FdTenant>, u64)> {
    let mut tenants = Vec::new();
    let mut arena = None;
    for i in 0..FD_TENANTS {
        let name = format!("tenant-{i}");
        let pid = host.kernel.spawn(&name);
        let addr = host.kernel.mmap_anon(pid, DELTA_SWEEP_PAGES * 4096, false)?;
        let gid = host.persist(&name, pid)?;
        let store = fd_tenant_store(host, i)?;
        host.rehome_group(gid, store.clone())?;
        match arena {
            None => arena = Some(addr),
            Some(a) if a != addr => {
                return Err(Error::internal(
                    "fault-domain tenants mapped their arenas at different addresses",
                ));
            }
            Some(_) => {}
        }
        tenants.push(FdTenant { pid, gid, store });
    }
    let addr = arena.ok_or_else(|| Error::internal("no fault-domain tenants"))?;
    Ok((tenants, addr))
}

/// Runs the fault-domain workload fault-free and returns the digest of
/// every tenant checkpoint (keyed by name) plus the longest observed
/// admission-to-durable cycle span — the poisoned runs derive their
/// per-cycle deadline from it so healthy tenants never miss.
fn fd_twin_digests(workers: usize) -> Result<(HashMap<String, u64>, SimDuration)> {
    let mut host = delta_sweep_host(workers, None)?;
    let (tenants, addr) = fd_setup(&mut host)?;
    let mut max_span = SimDuration::ZERO;
    for round in 0..FD_ROUNDS {
        for (i, t) in tenants.iter().enumerate() {
            delta_round_writes(&mut host, t.pid, addr, round, &format!("t{i}"))?;
        }
        for (i, t) in tenants.iter().enumerate() {
            let before = host.clock.now();
            let name = format!("t{i}-r{round}");
            let bd = host.checkpoint_pipelined(t.gid, round == 0, Some(&name))?;
            if !bd.outcome.committed() {
                return Err(Error::internal(format!(
                    "fault-domain twin cycle {name} did not commit: {:?}",
                    bd.fault
                )));
            }
            max_span = max_span.max(bd.durable_at - before);
        }
        host.fleet_drain();
    }
    if host.sls.fleet.stats.overlapped == 0 {
        return Err(Error::internal(
            "fault-domain twin never overlapped two tenants' cycles",
        ));
    }
    let mut out = HashMap::new();
    for (i, t) in tenants.iter().enumerate() {
        let named: Vec<(CkptId, String)> = t
            .store
            .borrow()
            .checkpoints()
            .iter()
            .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
            .collect();
        let store = t.store.clone();
        for (id, name) in named {
            if !name.starts_with(&format!("t{i}-")) {
                continue;
            }
            let digest =
                restore_digest_on(&mut host, &store, id, addr, (DELTA_SWEEP_PAGES * 4096) as usize)?;
            out.insert(name, digest);
        }
    }
    Ok((out, max_span))
}

/// Per-tenant fault-domain sweep: quarantine, deadlines, blast radius.
///
/// Each iteration runs an [`FD_TENANTS`]-tenant pipelined fleet where
/// every tenant checkpoints to its own store, then poisons tenant 0
/// with one hostile [`TenantFault`] plan. The poisoned tenant must walk
/// `Healthy → Degraded → Quarantined` within [`QUARANTINE_AFTER`]
/// failed cycles and be re-admitted by a probe after its hardware is
/// revived — committing or aborting without ever damaging its store —
/// while the healthy tenants' cycles commit on schedule every round,
/// record zero failures, and restore digest-equal to a fault-free twin
/// of the same interleaving. Any fault attributed to a healthy tenant
/// is a blast-radius violation.
///
/// [`QUARANTINE_AFTER`]: crate::fleet::QUARANTINE_AFTER
pub fn run_fleet_fault_domain_sweep(workers: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    let (twin, max_span) = match fd_twin_digests(workers) {
        Ok(t) => t,
        Err(e) => {
            report
                .violations
                .push(format!("fleet-domain twin: harness error: {e}"));
            return report;
        }
    };
    for fault in [
        TenantFault::DeadDevice,
        TenantFault::LatencySpike,
        TenantFault::ReadCorruption,
    ] {
        if let Err(e) = run_fd_iteration(fault, workers, &twin, max_span, &mut report) {
            report.violations.push(format!(
                "fleet-domain {}: harness error: {e}",
                fault.label()
            ));
        }
        report.schedules += 1;
    }
    report
}

/// Revives tenant 0's hardware before the probe round. A dead device is
/// "replaced": the store is remounted through journal-replay recovery
/// (the group rehomed onto the remounted handle); for the other plans
/// clearing the fault plan models the repaired fabric.
fn fd_revive(host: &mut Host, tenants: &mut [FdTenant], fault: TenantFault) -> Result<()> {
    let t0 = tenants
        .first_mut()
        .ok_or_else(|| Error::internal("no poisoned tenant"))?;
    if fault != TenantFault::DeadDevice {
        t0.store
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::default());
        return Ok(());
    }
    // Release the group's handle first so the store can be unwrapped
    // and taken through recovery.
    let placeholder = host.sls.primary.clone();
    host.rehome_group(t0.gid, placeholder)?;
    let old = std::mem::replace(&mut t0.store, host.sls.primary.clone());
    let inner = Rc::try_unwrap(old)
        .map_err(|_| Error::internal("tenant store still shared at remount"))?
        .into_inner();
    let mut recovered = inner.recover()?;
    recovered.device_mut().install_fault_plan(FaultPlan::default());
    let fresh: StoreHandle = Rc::new(RefCell::new(recovered));
    host.rehome_group(t0.gid, fresh.clone())?;
    t0.store = fresh;
    Ok(())
}

/// One fault-domain iteration: poison tenant 0 with `fault`, drive the
/// fleet through quarantine and re-admission, verify blast radius and
/// digest equality against the twin.
fn run_fd_iteration(
    fault: TenantFault,
    workers: usize,
    twin: &HashMap<String, u64>,
    max_span: SimDuration,
    report: &mut CampaignReport,
) -> Result<()> {
    let mut host = delta_sweep_host(workers, None)?;
    let (mut tenants, addr) = fd_setup(&mut host)?;
    let label = format!("fleet-domain {}", fault.label());
    let gid0 = tenants
        .first()
        .map(|t| t.gid)
        .ok_or_else(|| Error::internal("no poisoned tenant"))?;

    // Deadline calibrated from the twin's slowest fault-free cycle:
    // generous headroom for healthy tenants, far under the spike.
    let deadline = (max_span * 8).max(SimDuration::from_millis(1));
    host.sls.fleet.cycle_deadline = deadline;

    for round in 0..FD_ROUNDS {
        if round == FD_REVIVE_ROUND {
            fd_revive(&mut host, &mut tenants, fault)?;
        }
        // Once the hardware is revived, let each round's probe actually
        // fire: idle between rounds until the backoff elapses.
        if round >= FD_REVIVE_ROUND
            && host.tenant_domain(gid0).health == TenantHealth::Quarantined
        {
            let probe_at = host.tenant_domain(gid0).next_probe;
            if host.clock.now() < probe_at {
                host.clock.advance_to(probe_at);
            }
        }
        for (i, t) in tenants.iter().enumerate() {
            delta_round_writes(&mut host, t.pid, addr, round, &format!("t{i}"))?;
        }
        if round == FD_FAULT_ROUND {
            let plan = match fault {
                TenantFault::DeadDevice => FaultPlan::power_cut(1),
                TenantFault::LatencySpike => {
                    FaultPlan::latency_spike(1, 1_000_000, deadline.as_nanos() * 4)
                }
                // The data region starts right past the journal
                // (JOURNAL_START + 512 journal blocks = LBA 514); every
                // read from it lies. Superblock and journal reads stay
                // clean so recovery itself is never the victim.
                TenantFault::ReadCorruption => {
                    FaultPlan::corrupt_read_blocks(514, 64 * 1024, 11, 2)
                }
            };
            if let Some(t0) = tenants.first() {
                t0.store.borrow_mut().device_mut().install_fault_plan(plan);
            }
        }
        for (i, t) in tenants.iter().enumerate() {
            let name = format!("t{i}-r{round}");
            match host.checkpoint_pipelined(t.gid, round == 0, Some(&name)) {
                Ok(bd) if bd.outcome == CheckpointOutcome::Quarantined => {
                    report.aborted += 1;
                    if i != 0 {
                        report.violations.push(format!(
                            "{label}: healthy tenant cycle {name} was quarantine-skipped"
                        ));
                    }
                }
                Ok(bd) if bd.outcome.committed() => report.committed += 1,
                Ok(_) => {
                    report.aborted += 1;
                    if i != 0 {
                        report
                            .violations
                            .push(format!("{label}: healthy tenant cycle {name} aborted"));
                    }
                }
                Err(e) => {
                    report.aborted += 1;
                    let dead = t.store.borrow().device().health() == DevHealth::Dead;
                    if i != 0 || !dead {
                        report.violations.push(format!(
                            "{label}: cycle {name} error on live device: {e}"
                        ));
                    }
                }
            }
        }
        // Every fault the sweep surfaced must belong to the poisoned
        // tenant: a fault attributed to anyone else escaped its domain.
        for (g, f) in host.fleet_drain() {
            if g != gid0.0 {
                report.violations.push(format!(
                    "{label}: blast radius: fault recorded for healthy tenant {g}: {f}"
                ));
            }
        }
        let health0 = host.tenant_domain(gid0).health;
        if round >= FD_FAULT_ROUND + 2 && round < FD_REVIVE_ROUND
            && health0 != TenantHealth::Quarantined
        {
            report.violations.push(format!(
                "{label}: poisoned tenant not quarantined after round {round} ({})",
                health0.as_str()
            ));
        }
    }

    fd_verify(&mut host, &tenants, fault, twin, addr, &label, report);
    Ok(())
}

/// End-of-iteration checks: health outcomes, per-tenant store
/// consistency, and digest equality against the fault-free twin.
fn fd_verify(
    host: &mut Host,
    tenants: &[FdTenant],
    fault: TenantFault,
    twin: &HashMap<String, u64>,
    addr: u64,
    label: &str,
    report: &mut CampaignReport,
) {
    let d0 = tenants
        .first()
        .map(|t| host.tenant_domain(t.gid))
        .unwrap_or_default();
    if d0.health != TenantHealth::Healthy {
        report.violations.push(format!(
            "{label}: poisoned tenant not re-admitted: {}",
            d0.health.as_str()
        ));
    }
    if d0.quarantines == 0 || d0.readmissions == 0 {
        report.violations.push(format!(
            "{label}: expected a quarantine and a re-admission, saw {} / {}",
            d0.quarantines, d0.readmissions
        ));
    }
    if fault == TenantFault::DeadDevice && d0.cycles_skipped == 0 {
        report.violations.push(format!(
            "{label}: no cycle was skipped while the tenant sat quarantined"
        ));
    }
    for (i, t) in tenants.iter().enumerate().skip(1) {
        let d = host.tenant_domain(t.gid);
        if d.health != TenantHealth::Healthy
            || d.failures != 0
            || d.deadline_misses != 0
            || d.cycles_skipped != 0
        {
            report.violations.push(format!(
                "{label}: healthy tenant {i} damaged: health {} failures {} \
                 deadline misses {} skipped {}",
                d.health.as_str(),
                d.failures,
                d.deadline_misses,
                d.cycles_skipped
            ));
        }
    }
    for (i, t) in tenants.iter().enumerate() {
        let problems = t.store.borrow_mut().scrub();
        if !problems.is_empty() {
            report.violations.push(format!(
                "{label}: tenant {i} store scrub: {}",
                problems.join("; ")
            ));
        }
        let named: Vec<(CkptId, String)> = t
            .store
            .borrow()
            .checkpoints()
            .iter()
            .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
            .collect();
        let mut present: Vec<String> = Vec::new();
        let store = t.store.clone();
        for (id, name) in named {
            if !name.starts_with(&format!("t{i}-")) {
                continue;
            }
            match restore_digest_on(host, &store, id, addr, (DELTA_SWEEP_PAGES * 4096) as usize) {
                Ok(d) => match twin.get(&name) {
                    Some(&td) if td == d => {}
                    Some(_) => report.violations.push(format!(
                        "{label}: checkpoint {name} diverged from the fault-free twin"
                    )),
                    None => report.violations.push(format!(
                        "{label}: checkpoint {name} has no twin digest"
                    )),
                },
                Err(e) => report
                    .violations
                    .push(format!("{label}: restore of {name} failed: {e}")),
            }
            present.push(name);
        }
        // Healthy tenants keep every round; the poisoned tenant must at
        // least keep its pre-fault checkpoints and its post-re-admission
        // one (whether the first post-revival probe landed is
        // plan-dependent).
        let required: Vec<u32> = if i == 0 {
            vec![0, 1, FD_ROUNDS - 1]
        } else {
            (0..FD_ROUNDS).collect()
        };
        for r in required {
            let name = format!("t{i}-r{r}");
            if !present.contains(&name) {
                report
                    .violations
                    .push(format!("{label}: required checkpoint {name} missing"));
            }
        }
    }
}

/// Boots a campaign host whose primary store sits on a `width`-way
/// mirror of simulated NVMe devices sharing one clock.
fn boot_mirror_host(width: usize, config: StoreConfig) -> Result<Host> {
    let clock = SimClock::new();
    let members: Vec<Box<dyn BlockDev>> = (0..width)
        .map(|i| {
            Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), 64 * 1024))
                as Box<dyn BlockDev>
        })
        .collect();
    Host::boot_mirrored("campaign", members, config)
}

/// Runs `f` against the primary store's mirror device.
fn with_mirror<T>(host: &Host, f: impl FnOnce(&mut MirrorDev) -> T) -> Result<T> {
    let mut store = host.sls.primary.borrow_mut();
    let m = store
        .device_mut()
        .as_mirror_mut()
        .ok_or_else(|| Error::internal("campaign host has no mirror"))?;
    Ok(f(m))
}

/// Replica-death sweep across the checkpoint flush.
///
/// Iteration `n` kills one replica (rotating through all of them) at
/// exactly its `n`-th device write while a multi-extent checkpoint is
/// flushing. The mirror must absorb the death: the checkpoint commits
/// (flagged `DegradedMirror`), no data is lost, and after reviving and
/// resilvering the victim the whole store must verify when served by
/// the *resilvered replica alone* — proving the rebuild copied every
/// live extent, not just the ones the failed write touched.
pub fn run_mirror_kill_sweep(cuts: u64, width: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in 1..=cuts {
        if let Err(e) = run_mirror_kill_iteration(n, width, &mut report) {
            report
                .violations
                .push(format!("mirror-kill {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: replica `n % width` dies at its `n`-th write.
fn run_mirror_kill_iteration(n: u64, width: usize, report: &mut CampaignReport) -> Result<()> {
    let mut host = boot_mirror_host(
        width,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )?;
    host.sls.flush_workers = 4;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;
    let victim = (n as usize - 1) % width;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    for round in 0..2u32 {
        let tag = format!("mkill{n:04}-r{round}");
        for p in 0..SWEEP_PAGES {
            let body = format!("{tag}-p{p:04}");
            host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
        }
        expected.insert(format!("r{round}"), format!("{tag}-p0000").into_bytes());

        if round == 1 {
            with_mirror(&host, |m| m.install_replica_fault_plan(victim, FaultPlan::power_cut(n)))??;
        }
        let bd = host.checkpoint(gid, round == 0, Some(&format!("r{round}")))?;
        match bd.outcome {
            CheckpointOutcome::DegradedMirror => {
                report.committed += 1;
                report.degraded_mirror += 1;
            }
            o if o.committed() => report.committed += 1,
            _ => {
                report.aborted += 1;
                report.violations.push(format!(
                    "mirror-kill {n}: checkpoint aborted despite {} surviving replica(s): {:?}",
                    width - 1,
                    bd.fault,
                ));
            }
        }
        if bd.outcome.committed() {
            host.clock.advance_to(bd.durable_at);
        }
    }

    // Revive the victim and rebuild it from the survivors.
    let degraded = with_mirror(&host, |m| m.is_degraded())?;
    if degraded {
        with_mirror(&host, |m| {
            m.install_replica_fault_plan(victim, FaultPlan::default())?;
            m.revive_replica(victim)
        })??;
        host.resilver()?;
    }
    verify_recovered(&mut host, addr, &expected, n, report);

    // Zero-data-loss proof: detach every *other* replica and verify the
    // whole store — scrub and both restores — from the rebuilt one.
    if degraded {
        with_mirror(&host, |m| -> Result<()> {
            for i in (0..width).filter(|&i| i != victim) {
                m.kill_replica(i)?;
            }
            Ok(())
        })??;
        verify_recovered(&mut host, addr, &expected, n, report);
    }
    let (f, rr) = with_mirror(&host, |m| {
        let ms = m.mirror_stats();
        (ms.failovers, ms.read_repairs)
    })?;
    report.failovers += f;
    report.read_repairs += rr;
    Ok(())
}

/// Replica-death sweep across the batched restore.
///
/// Iteration `n` cuts the *preferred* replica's power at exactly its
/// `n`-th device read while an eager cold-cache restore is running. The
/// mirror must fail over mid-restore: the restore succeeds from a twin
/// (no abort — reads are the whole point of redundancy), the victim is
/// detached, and the store verifies clean afterwards.
pub fn run_mirror_restore_failover_sweep(cuts: u64, width: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in 1..=cuts {
        if let Err(e) = run_mirror_restore_iteration(n, width, &mut report) {
            report
                .violations
                .push(format!("mirror-restore {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: the preferred replica dies at its `n`-th read.
fn run_mirror_restore_iteration(n: u64, width: usize, report: &mut CampaignReport) -> Result<()> {
    let mut host = boot_mirror_host(
        width,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )?;
    host.sls.restore_workers = 4;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;

    let tag = format!("mrest{n:04}");
    for p in 0..SWEEP_PAGES {
        let body = format!("{tag}-p{p:04}");
        host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
    }
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    expected.insert("r0".to_string(), format!("{tag}-p0000").into_bytes());
    let bd = host.checkpoint(gid, true, Some("r0"))?;
    host.clock.advance_to(bd.durable_at);
    report.committed += 1;
    let ckpt = bd
        .ckpt
        .ok_or_else(|| Error::internal("baseline did not commit"))?;

    // Cold cache, then kill the read-preferred replica mid-restore.
    host.sls.primary.borrow_mut().drop_caches()?;
    with_mirror(&host, |m| {
        m.install_replica_fault_plan(0, FaultPlan::power_cut_on_read(n))
    })??;
    let restore_result = {
        let store = host.sls.primary.clone();
        host.restore(&store, ckpt, RestoreMode::Eager)
    };
    match restore_result {
        Ok(r) => {
            if let Some(np) = r.root_pid() {
                let want = format!("{tag}-p0000").into_bytes();
                let mut buf = vec![0u8; want.len()];
                host.kernel.mem_read(np, addr, &mut buf)?;
                if buf != want {
                    report.violations.push(format!(
                        "mirror-restore {n}: failover restore returned torn memory"
                    ));
                }
                let _ = host.kernel.exit(np, 0);
                host.kernel.procs.remove(&np);
            }
        }
        Err(e) => {
            report.aborted += 1;
            report.violations.push(format!(
                "mirror-restore {n}: restore failed despite {} surviving replica(s): {e}",
                width - 1
            ));
        }
    }
    with_mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::default()))??;
    verify_recovered(&mut host, addr, &expected, n, report);
    report.failovers += with_mirror(&host, |m| m.mirror_stats().failovers)?;
    Ok(())
}

/// Power-cut sweep across the background resilver.
///
/// Iteration `n` rebuilds a revived replica and cuts its power at
/// exactly its `n`-th resilver write, then crashes and reboots the
/// whole machine. The half-copied replica must come back *rebuilding* —
/// never trusted for reads — so recovery sees only complete replicas;
/// re-running the resilver finishes the copy, after which the store
/// must verify served by the once-half-copied replica alone.
pub fn run_resilver_power_cut_sweep(cuts: u64, width: usize) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in 1..=cuts {
        if let Err(e) = run_resilver_cut_iteration(n, width, &mut report) {
            report
                .violations
                .push(format!("resilver-cut {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// One sweep iteration: the rebuild target dies at resilver write `n`.
fn run_resilver_cut_iteration(n: u64, width: usize, report: &mut CampaignReport) -> Result<()> {
    let mut host = boot_mirror_host(
        width,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )?;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;
    let victim = width - 1;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    let tag0 = format!("rsc{n:04}-r0");
    for p in 0..SWEEP_PAGES {
        let body = format!("{tag0}-p{p:04}");
        host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
    }
    expected.insert("r0".to_string(), format!("{tag0}-p0000").into_bytes());
    let bd = host.checkpoint(gid, true, Some("r0"))?;
    host.clock.advance_to(bd.durable_at);
    report.committed += 1;

    // The victim dies cleanly; the next checkpoint runs degraded, so the
    // victim's contents are genuinely stale when it comes back.
    with_mirror(&host, |m| m.kill_replica(victim))??;
    let tag1 = format!("rsc{n:04}-r1");
    for p in 0..SWEEP_PAGES {
        let body = format!("{tag1}-p{p:04}");
        host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
    }
    expected.insert("r1".to_string(), format!("{tag1}-p0000").into_bytes());
    let bd = host.checkpoint(gid, false, Some("r1"))?;
    if bd.outcome != CheckpointOutcome::DegradedMirror {
        report.violations.push(format!(
            "resilver-cut {n}: degraded checkpoint reported {:?}, expected DegradedMirror",
            bd.outcome
        ));
    }
    report.committed += 1;
    report.degraded_mirror += 1;
    host.clock.advance_to(bd.durable_at);

    // Revive the victim and cut its power mid-rebuild.
    with_mirror(&host, |m| {
        m.revive_replica(victim)?;
        m.install_replica_fault_plan(victim, FaultPlan::power_cut(n))
    })??;
    let resilver_result = host.resilver();
    let cut_fired = resilver_result.is_err();
    if cut_fired {
        report.aborted += 1;
    }

    // Whole-machine crash with the replica half-copied.
    with_mirror(&host, |m| m.install_replica_fault_plan(victim, FaultPlan::default()))??;
    let mut host = host.crash_and_reboot()?;
    report.crashes += 1;

    // A half-copied replica must never come back authoritative.
    let state = with_mirror(&host, |m| m.replica_state(victim))?;
    if cut_fired && state != Some(ReplicaState::Rebuilding) {
        report.violations.push(format!(
            "resilver-cut {n}: half-copied replica rebooted as {state:?}, not rebuilding"
        ));
    }
    verify_recovered(&mut host, addr, &expected, n, report);

    // Finish the rebuild, then verify from the rebuilt replica alone.
    if with_mirror(&host, |m| m.needs_resilver())? {
        host.resilver()?;
    }
    with_mirror(&host, |m| -> Result<()> {
        for i in (0..width).filter(|&i| i != victim) {
            m.kill_replica(i)?;
        }
        Ok(())
    })??;
    verify_recovered(&mut host, addr, &expected, n, report);
    Ok(())
}

/// Arms a single scheduled power cut at the `n`-th device write.
/// Replication kill sweep: walk the primary's death through **every
/// frame ordinal** of a continuously replicated run.
///
/// Iteration `n` attaches a hot standby behind a faulty link (drops,
/// duplicates, reordering, transient partitions — all seeded), runs
/// several checkpoint epochs, and kills the primary immediately after
/// it offers its `n`-th replication frame (retransmissions count, so
/// the cut also lands inside recovery traffic). Because epochs span
/// multiple frames, sweeping `n` covers every epoch ordinal and every
/// frame ordinal within an epoch, including mid-partition and
/// mid-retransmit deaths. Iterations whose budget exceeds the run's
/// frame count kill nobody and must converge completely.
///
/// After the kill the standby is promoted and three invariants checked:
///
/// 1. **No torn epoch** — the promoted store's head restores a state in
///    which *every* page carries the same epoch's tag; a mix of epochs
///    (or a partially applied epoch) is a violation.
/// 2. **The watermark is honoured** — the promoted epoch is at least
///    the acked watermark at death (promote may do better: frames
///    already in flight still count), and zero only if nothing was
///    ever acked.
/// 3. **Zero corruption** — the promoted store scrubs clean and every
///    standby-side import applied without error.
pub fn run_replication_kill_sweep(kills: u64, rates: LinkFaultRates) -> CampaignReport {
    let mut report = CampaignReport::default();
    for n in 1..=kills {
        if let Err(e) = run_replication_kill_iteration(n, rates, &mut report) {
            report
                .violations
                .push(format!("repl-kill {n}: harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// Pages in the replicated workload — small enough to keep the sweep
/// fast, large enough that every epoch spans several frames.
const REPL_SWEEP_PAGES: u64 = 6;

/// Checkpoint epochs per sweep iteration.
const REPL_SWEEP_ROUNDS: u32 = 4;

/// One sweep iteration: kill the primary after replication frame `n`.
fn run_replication_kill_iteration(
    n: u64,
    rates: LinkFaultRates,
    report: &mut CampaignReport,
) -> Result<()> {
    let store_cfg = StoreConfig {
        journal_blocks: 512,
        materialize_data: true,
        ..StoreConfig::default()
    };
    let mut host = boot_host_config(store_cfg.clone())?;
    host.attach_standby(ReplConfig {
        seed: 0xC0FF_EE00 ^ n.wrapping_mul(GOLDEN),
        rates,
        frame_bytes: 4096,
        // The sweep measures watermark honesty, not lag policy: never
        // degrade, so every checkpoint outcome stays Committed.
        max_lag_epochs: u64::MAX,
        kill_after_data_frames: Some(n),
        standby_store: store_cfg,
        ..ReplConfig::default()
    })?;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, REPL_SWEEP_PAGES * 4096, false)?;
    let gid = host.persist("app", pid)?;

    // epoch -> tag stamped into every page before that epoch's
    // checkpoint. The no-torn-epoch check demands the promoted state be
    // uniformly one of these.
    let mut expected: HashMap<u64, String> = HashMap::new();
    for round in 0..REPL_SWEEP_ROUNDS {
        let epoch = u64::from(round) + 1;
        let tag = format!("kill{n:04}-e{epoch:02}");
        for p in 0..REPL_SWEEP_PAGES {
            let body = format!("{tag}-p{p:02}");
            host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes())?;
        }
        expected.insert(epoch, tag);
        let bd = host.checkpoint(gid, round == 0, Some(&format!("e{epoch}")))?;
        if bd.outcome.committed() {
            report.committed += 1;
            host.clock.advance_to(bd.durable_at);
        } else {
            report.aborted += 1;
        }
        host.replication_pump();
        if host.replication().is_some_and(|r| r.primary_dead()) {
            break;
        }
    }

    let survived = !host.replication().is_some_and(|r| r.primary_dead());
    if survived {
        // The kill budget exceeded the run: the session must converge.
        if let Some(r) = host.replication_mut() {
            if !r.run_until_idle(100_000) {
                report.violations.push(format!(
                    "repl-kill {n}: surviving session failed to converge"
                ));
            }
        }
    }
    let (acked, shipped) = host
        .replication()
        .map(|r| (r.acked_epoch(), r.shipped_epoch()))
        .unwrap_or((0, 0));
    let repl = host
        .detach_standby()
        .ok_or_else(|| Error::internal("replication session vanished"))?;
    report.crashes += 1; // the simulated loss of the primary machine

    let (mut standby, pr) = promote_to_host(repl, "standby")?;
    if pr.apply_errors > 0 {
        report.violations.push(format!(
            "repl-kill {n}: {} standby import error(s)",
            pr.apply_errors
        ));
    }
    if pr.promoted_epoch < acked {
        report.violations.push(format!(
            "repl-kill {n}: promoted epoch {} below acked watermark {acked}",
            pr.promoted_epoch
        ));
    }
    if survived && pr.promoted_epoch != shipped {
        report.violations.push(format!(
            "repl-kill {n}: converged standby promoted {} of {shipped} epochs",
            pr.promoted_epoch
        ));
    }

    // Invariant 3: zero corruption on the promoted store.
    let store = standby.sls.primary.clone();
    let problems = store.borrow().scrub();
    if !problems.is_empty() {
        report.violations.push(format!(
            "repl-kill {n}: promoted store scrub found {} problem(s): {}",
            problems.len(),
            problems.join("; ")
        ));
    }

    if pr.promoted_epoch == 0 {
        // Nothing ever completed: an empty standby is only legitimate
        // when nothing was acked — checked above via promoted >= acked.
        return Ok(());
    }

    // Invariants 1 + 2: the head restores exactly the promoted epoch's
    // state on every page — never a mix of epochs.
    let Some(tag) = expected.get(&pr.promoted_epoch) else {
        report.violations.push(format!(
            "repl-kill {n}: promoted unknown epoch {}",
            pr.promoted_epoch
        ));
        return Ok(());
    };
    let head = store
        .borrow()
        .head()
        .ok_or_else(|| Error::internal("promoted store has no head"))?;
    let r = standby.restore(&store, head, RestoreMode::Eager)?;
    let np = r
        .root_pid()
        .ok_or_else(|| Error::internal("promoted restore returned no root pid"))?;
    let mut clean = true;
    for p in 0..REPL_SWEEP_PAGES {
        let want = format!("{tag}-p{p:02}");
        let mut buf = vec![0u8; want.len()];
        standby.kernel.mem_read(np, addr + p * 4096, &mut buf)?;
        if buf != want.as_bytes() {
            clean = false;
            report.violations.push(format!(
                "repl-kill {n}: torn epoch — page {p} restored {:?}, expected {:?}",
                String::from_utf8_lossy(&buf),
                want
            ));
        }
    }
    if clean {
        report.restores_verified += 1;
    }
    Ok(())
}

fn arm_faults_cut(host: &mut Host, n: u64) {
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::power_cut(n));
}

/// Checks both campaign invariants on a freshly recovered host.
fn verify_recovered(
    host: &mut Host,
    addr: u64,
    expected: &HashMap<String, Vec<u8>>,
    idx: u64,
    report: &mut CampaignReport,
) {
    let store = host.sls.primary.clone();

    // Invariant 1: the recovered store is internally consistent and
    // every surviving page matches its recorded hash.
    let problems = store.borrow_mut().scrub();
    if !problems.is_empty() {
        report.violations.push(format!(
            "schedule {idx}: scrub found {} problem(s) after recovery: {}",
            problems.len(),
            problems.join("; ")
        ));
    }

    // Invariant 2: every surviving checkpoint restores to exactly the
    // state recorded at its barrier.
    let survivors: Vec<(CkptId, String)> = store
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect();
    for (id, name) in survivors {
        let Some(want) = expected.get(&name) else {
            // Internal checkpoints (e.g. SLSFS bookkeeping) are not part
            // of the workload; scrub already validated their contents.
            continue;
        };
        let restored = match host.restore(&store, id, RestoreMode::Eager) {
            Ok(r) => r,
            Err(e) => {
                report.violations.push(format!(
                    "schedule {idx}: surviving checkpoint {name} failed to restore: {e}"
                ));
                continue;
            }
        };
        let Some(np) = restored.root_pid() else {
            report.violations.push(format!(
                "schedule {idx}: checkpoint {name} restored without a root pid"
            ));
            continue;
        };
        let mut buf = vec![0u8; want.len()];
        match host.kernel.mem_read(np, addr, &mut buf) {
            Ok(()) if &buf == want => report.restores_verified += 1,
            Ok(()) => report.violations.push(format!(
                "schedule {idx}: checkpoint {name} restored {:?}, expected {:?}",
                String::from_utf8_lossy(&buf),
                String::from_utf8_lossy(want)
            )),
            Err(e) => report.violations.push(format!(
                "schedule {idx}: reading restored memory of {name} failed: {e}"
            )),
        }
        let _ = host.kernel.exit(np, 0);
        host.kernel.procs.remove(&np);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_campaign_passes_both_invariants() {
        let cfg = CampaignConfig {
            schedules: 8,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 8);
        assert!(report.committed >= 8, "every schedule has a baseline");
        assert!(report.crashes >= 8, "every schedule ends in a crash");
        assert!(report.restores_verified >= 8);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            schedules: 4,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.restores_verified, b.restores_verified);
    }

    #[test]
    fn hostile_rates_still_pass() {
        let cfg = CampaignConfig {
            schedules: 4,
            rates: FaultRates::hostile(),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn power_cut_sweep_mid_parallel_flush_recovers_clean() {
        let report = run_power_cut_sweep(SWEEP_PAGES, 1..=18, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 18, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the coalesced flush"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn power_cut_sweep_between_flush_batches_recovers_clean() {
        // Three full batches and a partial one. Per batch, a cut at its
        // first write (everything before it is whole batches already on
        // the device) and one mid-extent; then the writes of the commit
        // that follows the last batch.
        let batch = crate::flush::FLUSH_BATCH_PAGES as u64;
        let pages = 3 * batch + batch / 4;
        let cuts: Vec<u64> = (0..4)
            .flat_map(|k| [k * batch + 1, k * batch + batch / 8 + 7])
            .chain(pages + 1..=pages + 3)
            .collect();
        let report = run_power_cut_sweep(pages, cuts.iter().copied(), 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, cuts.len() as u64);
        assert!(
            report.aborted >= 8,
            "every cut inside the data writes aborts: {report:?}"
        );
        assert!(
            report.restores_verified >= cuts.len() as u64,
            "the baseline survives every cut: {report:?}"
        );
    }

    #[test]
    fn power_cut_sweep_mid_batched_restore_leaves_store_intact() {
        // One worker runs the same pipeline: same reads, same ordinals,
        // so the same cuts land inside it.
        let [one, four] = [1, 4].map(|workers| {
            let report = run_restore_power_cut_sweep(SWEEP_PAGES, 1..=12, workers);
            assert!(report.passed(), "violations: {:?}", report.violations);
            assert_eq!(report.crashes, 12, "every iteration ends in a crash");
            assert!(
                report.aborted > 0,
                "cuts must land inside the batched restore's reads"
            );
            assert_eq!(
                report.restores_verified, 12,
                "a read-side cut can never damage the baseline"
            );
            report.aborted
        });
        assert_eq!(one, four, "aborted restores at 1 worker vs 4");
    }

    #[test]
    fn power_cut_sweep_between_restore_batches_leaves_store_intact() {
        // Two full batches and a partial one. In each later batch, a cut
        // at its first read (every batch before it is verified and in
        // the read cache) and one mid-extent.
        let batch = crate::restore::RESTORE_BATCH_BLOCKS as u64;
        let pages = 2 * batch + batch / 4;
        let cuts: Vec<u64> = (1..3)
            .flat_map(|k| [k * batch + 1, k * batch + batch / 8 + 7])
            .collect();
        let report = run_restore_power_cut_sweep(pages, cuts.iter().copied(), 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, cuts.len() as u64);
        assert_eq!(
            report.aborted,
            cuts.len() as u64,
            "every cut lands inside the page-in's reads: {report:?}"
        );
        assert_eq!(
            report.restores_verified,
            cuts.len() as u64,
            "a read-side cut can never damage the baseline: {report:?}"
        );
    }

    #[test]
    fn delta_power_cut_sweep_replays_identically() {
        let report = run_delta_power_cut_sweep(14, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 14, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the delta flush"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn fleet_fault_domain_sweep_contains_the_blast() {
        let report = run_fleet_fault_domain_sweep(4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 3, "one iteration per fault plan");
        assert!(
            report.aborted > 0,
            "the poisoned tenant must abort or skip some cycles"
        );
        assert!(
            report.committed > 0,
            "healthy tenants must keep committing throughout"
        );
    }

    #[test]
    fn fleet_power_cut_sweep_recovers_both_tenants() {
        let report = run_fleet_power_cut_sweep(8, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 8, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the interleaved cycles"
        );
        assert!(
            report.restores_verified > 0,
            "both tenants' baselines must survive every cut"
        );
    }

    #[test]
    fn compaction_power_cut_sweep_never_tears_a_chain() {
        let report = run_compact_power_cut_sweep(12, 4);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 12, "every iteration ends in a crash");
        assert!(
            report.aborted > 0,
            "some cuts must land inside the capping round or the fold"
        );
        assert!(
            report.restores_verified > 0,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn mirror_kill_sweep_mid_flush_loses_nothing() {
        let report = run_mirror_kill_sweep(12, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.degraded_mirror > 0,
            "some kills must land inside the flush and degrade the mirror"
        );
        assert!(
            report.restores_verified >= 12,
            "every surviving checkpoint must verify, including from the rebuilt replica alone"
        );
    }

    #[test]
    fn mirror_kill_sweep_width_three() {
        let report = run_mirror_kill_sweep(6, 3);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.degraded_mirror > 0);
    }

    #[test]
    fn mirror_restore_sweep_fails_over_instead_of_aborting() {
        let report = run_mirror_restore_failover_sweep(10, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.aborted, 0, "a mirrored restore never aborts on one dead replica");
        assert!(
            report.failovers > 0,
            "some cuts must land inside the restore's reads and fail over"
        );
    }

    #[test]
    fn resilver_power_cut_never_promotes_a_half_copied_replica() {
        let report = run_resilver_power_cut_sweep(8, 2);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.aborted > 0,
            "some cuts must land inside the resilver copy"
        );
        assert_eq!(report.crashes, 8, "every iteration reboots mid-rebuild");
        assert!(
            report.restores_verified >= 16,
            "both rounds verify after reboot and again from the rebuilt replica alone"
        );
    }

    #[test]
    fn replication_kill_sweep_never_promotes_torn_epoch() {
        // Lossy link: drops, duplicates, reorders and partitions are all
        // in play while the kill walks through the frame stream.
        let report = run_replication_kill_sweep(24, LinkFaultRates::lossy());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.crashes, 24, "every iteration loses the primary");
        assert!(
            report.restores_verified > 0,
            "later kills must leave promotable epochs"
        );
    }

    #[test]
    fn replication_kill_sweep_clean_link_converges_past_the_stream() {
        let report = run_replication_kill_sweep(10, LinkFaultRates::clean());
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn replication_kill_sweep_is_deterministic() {
        let a = run_replication_kill_sweep(6, LinkFaultRates::lossy());
        let b = run_replication_kill_sweep(6, LinkFaultRates::lossy());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.restores_verified, b.restores_verified);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn env_override_parses() {
        // Not set in the test environment: default flows through.
        assert_eq!(schedules_from_env(123), 123);
    }
}
