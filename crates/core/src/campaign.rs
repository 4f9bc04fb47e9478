//! Crash campaigns: one fault-scenario driver and a seeded randomized
//! campaign, both driven through checkpoint → fault → recover → restore.
//!
//! A single level store promises that whatever instant the machine
//! dies, recovery lands on a committed checkpoint. [`run`] proves it
//! exhaustively: a [`Scenario`] names a host, a workload and *where* a
//! fault is injected, and point `n` of a sweep injects it at the `n`-th
//! request of that site on a fresh host. [`run_campaign`] samples the
//! same space: one seed expands into hundreds of randomized schedules
//! ([`aurora_hw::fault::FaultPlan::random`]). Both go through one
//! outcome tally and one oracle. After recovery:
//!
//! 1. **Consistency** — [`aurora_objstore::ObjectStore::scrub`] reports
//!    no problems: metadata is intact and every page of every surviving
//!    checkpoint matches its recorded content hash.
//! 2. **Atomicity** — every checkpoint that survived recovery restores
//!    to exactly the memory state captured at its barrier; recovery
//!    never surfaces a torn or mixed state.
//! 3. **Replay equivalence** (scenarios with a twin) — every survivor's
//!    whole restored region digests equal to a fault-free run of the
//!    same scenario, which is [`run`] with no points.
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
//! Before clearing it the driver asks the device where the plan last
//! fired and files the [`Hit`]; a scenario whose faults never land on a
//! target it declares fails, so a sweep cannot pass by missing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use aurora_hw::{
    BlockDev, DevHealth, FaultPlan, FaultRates, LinkFaultRates, MirrorDev, ModelDev, ReplicaState,
    ResilientDev,
};
use aurora_objstore::layout::JOURNAL_START;
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_posix::Pid;
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::page_hash;
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

use crate::fleet::TenantHealth;
use crate::replicate::{promote_to_host, ReplConfig};
use crate::restore::RestoreMode;
use crate::{CheckpointBreakdown, CheckpointOutcome, GroupId, Host};

/// Golden-ratio multiplier for deriving per-schedule seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Blocks on every simulated campaign device.
const DEV_BLOCKS: u64 = 64 * 1024;

/// Parameters of one randomized campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; schedule `i` uses `seed ^ (i * GOLDEN)`.
    pub seed: u64,
    /// Number of independent fault schedules to run.
    pub schedules: u64,
    /// Checkpoint rounds per schedule; round 0 is a fault-free baseline
    /// so recovery always has a durable state to land on.
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

/// What an injected fault landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Hit {
    /// A write to one of the two superblock slots.
    Superblock,
    /// A write into the journal region (records, delta sections).
    Journal,
    /// A request in the data region (page images, fold writes).
    Data,
    /// A request on one replica of a mirror.
    Replica,
    /// A replication frame offered to the standby link.
    LinkFrame,
    /// A device read issued by the eager restore's read plan.
    PlannedRead,
    /// A device read issued by a lazy restore's page fault.
    LazyRead,
}

/// Aggregate results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Schedules (sweep points) completed.
    pub schedules: u64,
    /// Checkpoints that committed (including degraded-to-full).
    pub committed: u64,
    /// Checkpoints that degraded from incremental to full.
    pub degraded: u64,
    /// Pages committed checkpoints rewrote from memory because a scrub
    /// step found their stored copy damaged.
    pub rewritten: u64,
    /// Checkpoints that committed with a replica detached or rebuilding.
    pub degraded_mirror: u64,
    /// Checkpoints, restores and resilvers given up to exhausted
    /// retries, a quarantine or a dead device.
    pub aborted: u64,
    /// Simulated whole-machine crashes (and recoveries).
    pub crashes: u64,
    /// Oracle checks passed: a surviving checkpoint restored its
    /// recorded bytes, or digested equal to the fault-free twin.
    pub restores_verified: u64,
    /// Transient write errors absorbed by retries across all schedules.
    pub transient_absorbed: u64,
    /// Writes that needed at least one retry across all schedules.
    pub writes_retried: u64,
    /// Mirror reads a twin served after the preferred replica failed.
    pub failovers: u64,
    /// Blocks the mirror rewrote from a twin during read repair.
    pub read_repairs: u64,
    /// Where the faults landed: one count per schedule whose fault
    /// fired (per crash, in the randomized campaign).
    pub hits: BTreeMap<Hit, u64>,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// True when no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Faults that landed on `target`.
    pub fn hits_on(&self, target: Hit) -> u64 {
        self.hits.get(&target).copied().unwrap_or(0)
    }

    /// One-line summary for logs and the CLI, hit histogram included.
    pub fn summary(&self) -> String {
        format!(
            "{} schedules: {} committed ({} degraded, {} degraded-mirror, \
             {} pages rewritten), {} aborted, {} crashes, {} restores verified, \
             {} transient errors absorbed, hits {:?}, {} violations",
            self.schedules,
            self.committed,
            self.degraded,
            self.degraded_mirror,
            self.rewritten,
            self.aborted,
            self.crashes,
            self.restores_verified,
            self.transient_absorbed,
            self.hits,
            self.violations.len()
        )
    }

    fn hit(&mut self, hit: Hit) {
        *self.hits.entry(hit).or_default() += 1;
    }

    /// Records a violation at `label` (a sweep point, a schedule).
    fn fail(&mut self, label: &str, what: impl std::fmt::Display) {
        self.violations.push(format!("{label}: {what}"));
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

/// What the store under test sits on: simulated NVMe, one clock.
#[derive(Debug, Clone, Copy)]
enum HostShape {
    Single,
    /// A mirror of this many devices.
    Mirror(usize),
    /// Every tenant rehomed onto a private store on its own device, so
    /// a device fault is confined to one tenant.
    TenantStores,
    /// A primary shipping epochs to a hot standby over a link with
    /// these fault rates; recovery is promoting the standby.
    Standby(LinkFaultRates),
}

/// Where point `n` injects its fault. On a mirror the fault hits one
/// replica, the failure a mirror exists to absorb: writes rotate the
/// victim through every replica (`(n - 1) % width`), reads hit the
/// read-preferred one, the resilver its last.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// Power cut at the device's `n`-th write of `round`.
    Write { round: u32 },
    /// After the rounds: drop every cached page, restore the newest
    /// checkpoint in this mode reading every page, and cut power at the
    /// `n`-th device read.
    RestoreRead(RestoreMode),
    /// The same cold lazy restore, but read request `n` alone comes back
    /// with one bit flipped and nothing dies.
    LazyReadFlip,
    /// The last replica is detached before the final round (so it is
    /// truly stale), revived after it, and dies at its `n`-th resilver
    /// write.
    ResilverWrite,
    /// The primary dies right after offering its `n`-th replication
    /// frame (retransmissions count).
    LinkFrame,
    /// Tenant 0's private store gets hostile plan `n` (1 dead device,
    /// 2 latency spikes past the cycle deadline, 3 read corruption over
    /// the data region) from [`POISON_ROUND`] until [`REVIVE_ROUND`].
    TenantStore,
}

/// The round the poisoned tenant's hostile plan is armed before.
const POISON_ROUND: u32 = 2;
/// The round its hardware is repaired before.
const REVIVE_ROUND: u32 = 6;
/// Pages per round of the dense sweeps: several coalesced extents wide.
const SWEEP_PAGES: u64 = 96;
/// Pages of the sub-page sweeps, small on purpose: the point is many
/// delta records per round, not extent width.
const DELTA_PAGES: u64 = 24;
/// What a torn cut lands of its write: past a frame header, short of
/// its CRC.
const TORN_BYTES: usize = 100;
/// Journal blocks of the half-switch sweeps.
const SMALL_JOURNAL_BLOCKS: u64 = 12;
/// The round of those sweeps whose commit switches halves first.
const SWITCH_ROUND: u32 = 4;
/// Rounds of the stale-generation sweep: the last one appends to the
/// first half after its reuse (the second switch is in round 6).
const STALE_ROUNDS: u32 = 8;

/// How a [`Site::Write`] point's power cut treats the interrupted write.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Nothing of it lands.
    Clean,
    /// Its first this many bytes land. At `usize::MAX` it lands whole
    /// while every earlier unflushed write is lost: the device persisted
    /// out of order.
    Torn(usize),
}

/// A code path the fault-free run must show it reached — or the sweep
/// cuts something other than what it claims.
#[derive(Debug, Clone, Copy)]
enum Engage {
    DeltaStaged,
    Overlapped,
    ChainFolded,
}

impl Engage {
    fn reached(self, host: &Host) -> bool {
        match self {
            Engage::DeltaStaged => host.sls.primary.borrow().stats.delta_records > 0,
            Engage::Overlapped => host.sls.fleet.stats.overlapped > 0,
            Engage::ChainFolded => host.sls.primary.borrow().stats.chains_compacted > 0,
        }
    }
}

/// One row of the fault matrix: a host, a workload, a fault site, a
/// recovery and what the oracle must see. Point `n` of a sweep boots the
/// host fresh and injects the fault at the site's `n`-th request.
#[derive(Debug, Clone)]
pub struct Scenario {
    label: &'static str,
    host: HostShape,
    /// One process, group and arena per tag; checkpoints `{tag}-r{round}`.
    tenants: &'static [&'static str],
    pages: u64,
    rounds: u32,
    /// Rounds write 4096 distinct bytes per page (increments store
    /// images, the plan spans several extents), not a short prefix
    /// (later rounds stage one sub-page delta per page; chains grow).
    whole_pages: bool,
    /// Rounds from this one on go through the fleet scheduler's
    /// pipelined cycle; earlier ones (and `None`) checkpoint inline.
    pipelined_from: Option<u32>,
    /// Flush and restore worker count.
    workers: usize,
    chain_cap: Option<u32>,
    /// Journal region blocks (both halves).
    journal_blocks: u64,
    /// Each group's history window: past it, every checkpoint GCs the
    /// oldest. `None` keeps the group default, which no sweep reaches.
    history_window: Option<usize>,
    site: Site,
    cut: Cut,
    /// Recover by whole-machine crash and journal replay; else the
    /// machine never went down and the live host is judged.
    reboot: bool,
    /// After judging the degraded mirror, revive and resilver the
    /// victim and judge again served by the rebuilt replica alone.
    rebuild: bool,
    /// Run fault-free first and hold every survivor of every point to
    /// that run's whole-region digest. On where memory is rebuilt by
    /// replaying deltas, which the recorded prefix cannot vouch for.
    twin: bool,
    engage: &'static [Engage],
    /// The hits this scenario exists to produce; none is a violation.
    targets: &'static [Hit],
}

/// Two prefix rounds of one tenant on one device, power cut in the
/// second; every scenario is this with its differences spelled out.
const BASE: Scenario = Scenario {
    label: "",
    host: HostShape::Single,
    tenants: &["app"],
    pages: SWEEP_PAGES,
    rounds: 2,
    whole_pages: false,
    pipelined_from: None,
    workers: 4,
    chain_cap: None,
    journal_blocks: 512,
    history_window: None,
    site: Site::Write { round: 1 },
    cut: Cut::Clean,
    reboot: true,
    rebuild: false,
    twin: false,
    engage: &[],
    targets: &[Hit::Data],
};

impl Scenario {
    /// Power cut inside the parallel coalesced flush: the failure write
    /// coalescing introduces, a cut *inside* a multi-block extent write.
    /// A materialized extent burns one write ordinal per block, so with
    /// nothing deduplicated write `k` is page `k` of the plan, and
    /// `pages` wider than `FLUSH_BATCH_PAGES` puts cuts between the
    /// streamed flush's batches. Scrub re-hashes every surviving page,
    /// so a torn extent cannot hide in a survivor.
    pub fn flush_cut(pages: u64) -> Scenario {
        Scenario {
            label: "flush_cut",
            pages,
            whole_pages: true,
            ..BASE
        }
    }

    /// The same proof for coalesced *reads*: a power cut inside the
    /// batched restore pipeline. Only page reads burn read ordinals, one
    /// per block, and every page is distinct, so read `k` is block `k`
    /// of the plan; `pages` wider than `RESTORE_BATCH_BLOCKS` puts cuts
    /// in the streamed page-in's later batches, after earlier ones were
    /// verified and cached. Reads mutate nothing: the baseline survives.
    pub fn restore_cut(pages: u64, workers: usize) -> Scenario {
        Scenario {
            label: "restore_cut",
            pages,
            workers,
            rounds: 1,
            site: Site::RestoreRead(RestoreMode::Eager),
            targets: &[Hit::PlannedRead],
            ..BASE
        }
    }

    /// Power cut at every device read of a *lazy* restore, one per page
    /// fault. Every other sweep cuts at write or planned-read ordinals,
    /// which is how a lazy-path bug (reads trusting the device) sat
    /// unseen from PR 4 to PR 17.
    pub fn lazy_read_cut() -> Scenario {
        Scenario {
            label: "lazy_read_cut",
            site: Site::RestoreRead(RestoreMode::Lazy),
            twin: true,
            targets: &[Hit::LazyRead],
            ..Scenario::restore_cut(DELTA_PAGES, 4)
        }
    }

    /// One flipped bit in one lazy read request, clean on the re-read:
    /// the checked reader's single re-read must clear it — the right
    /// bytes reach the application, the heal path is never entered and
    /// nothing about the store's recorded hashes changes.
    pub fn lazy_read_flip() -> Scenario {
        Scenario {
            label: "lazy_read_flip",
            site: Site::LazyReadFlip,
            reboot: false,
            ..Scenario::lazy_read_cut()
        }
    }

    /// Power cut inside the delta-log append, where a checkpoint's pages
    /// are rebuilt by replaying journal-resident delta records over a
    /// base image: a full baseline, a fault-free delta round, the cut
    /// round. Survivors must match the fault-free twin — replay
    /// equivalence, not just prefix equality. The round's commits are
    /// journal records alone: no superblock is written.
    pub fn delta_cut() -> Scenario {
        Scenario {
            label: "delta_cut",
            tenants: &["delta"],
            pages: DELTA_PAGES,
            rounds: 3,
            site: Site::Write { round: 2 },
            twin: true,
            engage: &[Engage::DeltaStaged],
            targets: &[Hit::Journal],
            ..BASE
        }
    }

    /// The delta round's cuts, each landing the first bytes of the
    /// interrupted write — inside a journal record, a frame whose header
    /// made it and whose CRC did not. The tail scan must stop there.
    pub fn tail_torn() -> Scenario {
        Scenario {
            label: "tail_torn",
            cut: Cut::Torn(TORN_BYTES),
            ..Scenario::delta_cut()
        }
    }

    /// The reordering cut inside a whole-page flush: the interrupted
    /// write reaches the platter and every unflushed write before it is
    /// lost. Landed on a commit record, that is a record durable over
    /// data that is not; recovery's page-digest check must drop it and
    /// land on the old head, and the oracle's scrub is what would see
    /// the lost pages if it did not.
    pub fn tail_data_lost() -> Scenario {
        Scenario {
            label: "tail_data_lost",
            cut: Cut::Torn(usize::MAX),
            targets: &[Hit::Data, Hit::Journal],
            ..Scenario::flush_cut(SWEEP_PAGES)
        }
    }

    /// A journal small enough that the rounds switch halves twice, so
    /// the first half is reused with its previous generation's records
    /// behind the new tail — CRC-valid, and never to be replayed. A
    /// history window of two makes them matter: each round GCs, so a
    /// stale `Commit` would resurrect a deleted checkpoint over freed
    /// blocks and a stale `Delete` would delete one twice. The cut walks
    /// the last round. No twin: the twin's GC deletes checkpoints a cut
    /// round keeps.
    pub fn stale_generation() -> Scenario {
        Scenario {
            label: "stale_generation",
            journal_blocks: SMALL_JOURNAL_BLOCKS,
            history_window: Some(2),
            rounds: STALE_ROUNDS,
            site: Site::Write {
                round: STALE_ROUNDS - 1,
            },
            twin: false,
            engage: &[],
            ..Scenario::delta_cut()
        }
    }

    /// The same small journal, cut through the round whose commit does
    /// not fit and switches halves: the snapshot write, the superblock
    /// flip's two slots — the only superblock writes after format — and
    /// the record appended to the new half.
    pub fn journal_switch_cut() -> Scenario {
        Scenario {
            label: "journal_switch_cut",
            rounds: SWITCH_ROUND + 1,
            site: Site::Write {
                round: SWITCH_ROUND,
            },
            targets: &[Hit::Journal, Hit::Superblock],
            ..Scenario::stale_generation()
        }
    }

    /// Power cut inside the chain compactor, which folds a delta chain
    /// into a base image through an ordinary committed checkpoint: a
    /// cut must leave the old chain or the folded image, never a mix.
    /// The fourth delta round reaches the cap of 4, so its checkpoint
    /// commits the capping delta and auto-folds: the ordinal walks the
    /// delta record and every write of the fold.
    pub fn compaction_cut() -> Scenario {
        Scenario {
            label: "compaction_cut",
            tenants: &["compact"],
            rounds: 5,
            chain_cap: Some(4),
            site: Site::Write { round: 4 },
            engage: &[Engage::DeltaStaged, Engage::ChainFolded],
            targets: &[Hit::Journal, Hit::Data],
            ..Scenario::delta_cut()
        }
    }

    /// Power cut while the fleet scheduler pipelines two tenants on one
    /// store: serialized baselines, one fault-free pipelined round, then
    /// the cut walks through tenant A's capture and flush and on into
    /// B's, so some points die with B's cycle queued behind A's commit.
    pub fn fleet_cut() -> Scenario {
        Scenario {
            label: "fleet_cut",
            tenants: &["a", "b"],
            pipelined_from: Some(1),
            engage: &[Engage::DeltaStaged, Engage::Overlapped],
            ..Scenario::delta_cut()
        }
    }

    /// Per-tenant fault domains: quarantine, deadlines, blast radius.
    /// Four pipelined tenants, each on its own store; tenant 0 is
    /// poisoned at r2 with hostile plan `n`. It must walk `Healthy →
    /// Degraded → Quarantined` within [`crate::fleet::QUARANTINE_AFTER`]
    /// failed cycles, be skipped while quarantined (r5) and re-admitted
    /// by a probe once its hardware is revived at r6 (the first probe
    /// may still fail on a draining queue; by r7 it lands), its store
    /// never damaged — while the healthy tenants commit every round on
    /// a deadline calibrated from the twin, with zero failures. It
    /// declares no target because every plan must fire, wherever its
    /// first request lands: a point whose plan never did is a violation.
    pub fn fault_domain() -> Scenario {
        Scenario {
            label: "fault_domain",
            host: HostShape::TenantStores,
            tenants: &["t0", "t1", "t2", "t3"],
            rounds: 8,
            pipelined_from: Some(0),
            site: Site::TenantStore,
            reboot: false,
            engage: &[Engage::Overlapped],
            targets: &[],
            ..Scenario::delta_cut()
        }
    }

    /// Replica death mid-flush. The mirror must absorb it: the
    /// checkpoint commits flagged `DegradedMirror`, and after resilver
    /// the store verifies served by the *rebuilt replica alone* — the
    /// rebuild copied every live extent, not just the failed write's.
    /// Every round rewrites whole pages, so each round's flush fans a
    /// data extent out to the replicas and every kill lands in one.
    pub fn mirror_kill(width: usize) -> Scenario {
        Scenario {
            label: "mirror_kill",
            host: HostShape::Mirror(width),
            reboot: false,
            rebuild: true,
            whole_pages: true,
            targets: &[Hit::Replica],
            ..BASE
        }
    }

    /// The read-preferred replica of a two-way mirror dies mid-restore.
    /// Reads are the whole point of redundancy: the restore must fail
    /// over to a twin and succeed, never abort.
    pub fn mirror_restore() -> Scenario {
        Scenario {
            label: "mirror_restore",
            rounds: 1,
            site: Site::RestoreRead(RestoreMode::Eager),
            rebuild: false,
            ..Scenario::mirror_kill(2)
        }
    }

    /// Power cut inside a two-way mirror's resilver, then a whole-machine
    /// crash. The half-copied replica must come back *rebuilding* —
    /// never trusted for reads — so recovery sees only complete
    /// replicas; finishing the resilver must leave it able to serve the
    /// store alone.
    pub fn resilver_cut() -> Scenario {
        Scenario {
            label: "resilver_cut",
            site: Site::ResilverWrite,
            reboot: true,
            ..Scenario::mirror_kill(2)
        }
    }

    /// The primary's death at every frame ordinal of a replicated run
    /// behind a seeded faulty link (drops, duplicates, reorders,
    /// partitions). Epochs span several frames, so the kill lands on
    /// epoch boundaries, mid-epoch, mid-partition and mid-retransmit; a
    /// point past the stream kills nobody and must converge. The
    /// promoted standby must restore one epoch's tag on *every* page (no
    /// torn epoch), be at or past the acked watermark at death, and
    /// scrub clean with zero import errors.
    pub fn replication_kill(rates: LinkFaultRates) -> Scenario {
        Scenario {
            label: "replication_kill",
            host: HostShape::Standby(rates),
            pages: 6,
            rounds: 4,
            site: Site::LinkFrame,
            targets: &[Hit::LinkFrame],
            ..BASE
        }
    }

    /// The body round `round` writes to page `p` of tenant `tag`.
    fn body(&self, tag: &str, round: u32, p: u64) -> Vec<u8> {
        let mut body = match round {
            0 => format!("{tag}-base-p{p:04}"),
            _ => format!("{tag}-r{round}-p{p:02}"),
        }
        .into_bytes();
        if self.whole_pages {
            body.resize(4096, b'.');
        }
        body
    }
}

/// What a fault-free run leaves for the faulted runs to be judged by:
/// every workload checkpoint's whole-region digest, by name, and the
/// longest admission-to-durable span of a pipelined cycle, which the
/// fault-domain deadline is calibrated from.
#[derive(Debug, Default)]
struct Twin {
    digests: HashMap<String, u64>,
    max_span: SimDuration,
}

/// Runs `sc` once per point, each on a fresh host, through one tally
/// and one oracle. With `sc.twin` the scenario first runs fault-free —
/// which is all an empty `points` does — and every survivor of every
/// point must digest-equal that run. Errors that stop a point are
/// recorded as violations rather than panics so one bad point cannot
/// hide the rest; a declared target no point hit is a violation too.
pub fn run(sc: &Scenario, points: impl IntoIterator<Item = u64>) -> CampaignReport {
    let mut twin = None;
    if sc.twin {
        // The fault-free run is the yardstick, not a schedule: its
        // report is dropped unless it is itself in violation.
        let mut clean = CampaignReport::default();
        twin = run_point(sc, None, None, &mut clean);
        if !clean.passed() {
            return clean;
        }
    }
    let mut report = CampaignReport::default();
    for n in points {
        run_point(sc, Some(n), twin.as_ref(), &mut report);
        report.schedules += 1;
    }
    for &target in sc.targets {
        if report.schedules > 0 && report.hits_on(target) == 0 {
            let what = format!("no fault landed on its declared target {target:?}");
            report.fail(sc.label, what);
        }
    }
    report
}

fn run_point(
    sc: &Scenario,
    n: Option<u64>,
    twin: Option<&Twin>,
    report: &mut CampaignReport,
) -> Option<Twin> {
    let label = match n {
        Some(n) => format!("{} {n}", sc.label),
        None => format!("{} twin", sc.label),
    };
    let point = World::boot(sc, n, twin, label.clone(), report).and_then(|mut world| {
        world.workload()?;
        world.recover()
    });
    point
        .map_err(|e| report.fail(&label, format!("harness error: {e}")))
        .ok()
}

fn nvme(clock: &std::sync::Arc<SimClock>, name: &str) -> Box<dyn BlockDev> {
    Box::new(ModelDev::nvme(clock.clone(), name, DEV_BLOCKS))
}

fn is_dead(store: &StoreHandle) -> bool {
    store.borrow().device().health() == DevHealth::Dead
}

fn install(store: &StoreHandle, plan: FaultPlan) {
    store.borrow_mut().device_mut().install_fault_plan(plan);
}

fn head(store: &StoreHandle) -> Result<CkptId> {
    let head = store.borrow().head();
    head.ok_or_else(|| Error::internal("store has no durable checkpoint"))
}

fn named_checkpoints(store: &StoreHandle) -> Vec<(CkptId, String)> {
    let store = store.borrow();
    let named = store.checkpoints().into_iter();
    named
        .filter_map(|c| Some((c.id, c.name.clone()?)))
        .collect()
}

/// Where `store`'s device last fired its plan, by on-disk region.
fn last_fault(store: &StoreHandle) -> Option<Hit> {
    let store = store.borrow();
    let lba = store.device().last_fault_lba()?;
    Some(match lba {
        _ if lba < JOURNAL_START => Hit::Superblock,
        _ if lba < store.data_start() => Hit::Journal,
        _ => Hit::Data,
    })
}

/// One tenant; `own` is a `TenantStores` private store.
struct Tenant {
    tag: &'static str,
    pid: Pid,
    gid: GroupId,
    own: Option<StoreHandle>,
}

/// One point's machine and what the harness knows about it.
struct World<'a> {
    sc: &'a Scenario,
    /// The fault point; `None` is the fault-free run.
    n: Option<u64>,
    twin: Option<&'a Twin>,
    report: &'a mut CampaignReport,
    label: String,
    host: Host,
    tenants: Vec<Tenant>,
    /// Every tenant's arena: address (fresh address spaces agree), size.
    region: (u64, usize),
    /// Page-0 bytes per checkpoint name, recorded before each attempt.
    expected: HashMap<String, Vec<u8>>,
    /// Checkpoints acknowledged as committed: each must survive.
    acked: Vec<String>,
    /// The replica of a mirror the point's fault is aimed at.
    victim: usize,
    /// The armed fault actually fired.
    fired: bool,
    max_span: SimDuration,
}

impl<'a> World<'a> {
    fn boot(
        sc: &'a Scenario,
        n: Option<u64>,
        twin: Option<&'a Twin>,
        label: String,
        report: &'a mut CampaignReport,
    ) -> Result<Self> {
        let mut config = StoreConfig {
            journal_blocks: sc.journal_blocks,
            materialize_data: true,
            ..StoreConfig::default()
        };
        config.delta_max_chain = sc.chain_cap.unwrap_or(config.delta_max_chain);
        let clock = SimClock::new();
        let mut host = match sc.host {
            HostShape::Mirror(width) => {
                let names = (0..width).map(|i| format!("nvme{i}"));
                let members = names.map(|name| nvme(&clock, &name)).collect();
                Host::boot_mirrored("campaign", members, config.clone())?
            }
            _ => Host::boot("campaign", nvme(&clock, "nvme0"), config.clone())?,
        };
        host.sls.flush_workers = sc.workers;
        host.sls.restore_workers = sc.workers;
        if let HostShape::Standby(rates) = sc.host {
            host.attach_standby(ReplConfig {
                seed: 0xC0FF_EE00 ^ n.unwrap_or(0).wrapping_mul(GOLDEN),
                rates,
                frame_bytes: 4096,
                // The sweep measures watermark honesty, not lag policy:
                // never degrade, so every outcome stays Committed.
                max_lag_epochs: u64::MAX,
                kill_after_data_frames: n,
                standby_store: config.clone(),
                ..ReplConfig::default()
            })?;
        }
        if let (HostShape::TenantStores, Some(twin)) = (sc.host, twin) {
            // Headroom over the twin's slowest cycle, far under the spike.
            host.sls.fleet.cycle_deadline = (twin.max_span * 8).max(SimDuration::from_millis(1));
        }
        let mut tenants = Vec::new();
        let mut arena = None;
        for (i, &tag) in sc.tenants.iter().enumerate() {
            let pid = host.kernel.spawn(tag);
            let addr = host.kernel.mmap_anon(pid, sc.pages * 4096, false)?;
            let gid = host.persist(tag, pid)?;
            if let Some(window) = sc.history_window {
                host.sls.group_mut(gid)?.history_window = window;
            }
            let mut own = None;
            if let HostShape::TenantStores = sc.host {
                let dev = ResilientDev::with_defaults(nvme(&host.clock, &format!("tenant{i}")));
                let store = ObjectStore::format(Box::new(dev), config.clone())?;
                let store = Rc::new(RefCell::new(store));
                host.rehome_group(gid, store.clone())?;
                own = Some(store);
            }
            if *arena.get_or_insert(addr) != addr {
                return Err(Error::internal(
                    "tenants' arenas mapped at different addresses",
                ));
            }
            tenants.push(Tenant { tag, pid, gid, own });
        }
        let arena = arena.ok_or_else(|| Error::internal("scenario has no tenants"))?;
        let width = host.sls.mirror_width();
        let victim = match sc.site {
            Site::Write { .. } => (n.unwrap_or(1).max(1) as usize - 1) % width,
            Site::ResilverWrite => width - 1,
            _ => 0,
        };
        Ok(World {
            sc,
            n,
            twin,
            report,
            label,
            host,
            tenants,
            region: (arena, (sc.pages * 4096) as usize),
            expected: HashMap::new(),
            acked: Vec::new(),
            victim,
            fired: false,
            max_span: SimDuration::ZERO,
        })
    }

    fn mirror<T>(&self, f: impl FnOnce(&mut MirrorDev) -> T) -> Result<T> {
        let mut store = self.host.sls.primary.borrow_mut();
        match store.device_mut().as_mirror_mut() {
            Some(m) => Ok(f(m)),
            None => Err(Error::internal("campaign host has no mirror")),
        }
    }

    /// The store the point's fault is installed on.
    fn faulted_store(&self) -> StoreHandle {
        let poisoned = self.tenants.first().and_then(|t| t.own.clone());
        poisoned.unwrap_or_else(|| self.host.sls.primary.clone())
    }

    /// Installs `plan` on a mirror's victim replica, else the faulted store.
    fn install_fault(&mut self, plan: FaultPlan) -> Result<()> {
        if let HostShape::Mirror(_) = self.sc.host {
            return self.mirror(|m| m.install_replica_fault_plan(self.victim, plan))?;
        }
        install(&self.faulted_store(), plan);
        Ok(())
    }

    /// Records `what` as a violation unless `ok`.
    fn require(&mut self, ok: bool, what: String) {
        if !ok {
            self.report.fail(&self.label, what);
        }
    }

    /// The plan point `n` arms while the workload runs.
    fn plan(&self, n: u64) -> Result<FaultPlan> {
        let Site::TenantStore = self.sc.site else {
            return Ok(match self.sc.cut {
                Cut::Clean => FaultPlan::power_cut(n),
                Cut::Torn(bytes) => FaultPlan::torn_write(n, bytes),
            });
        };
        Ok(match n {
            1 => FaultPlan::power_cut(1),
            2 => {
                let stall = self.host.sls.fleet.cycle_deadline.as_nanos() * 4;
                FaultPlan::latency_spike(1, 1_000_000, stall)
            }
            3 => {
                // Metadata reads stay clean: recovery is never the victim.
                let data_start = self.faulted_store().borrow().data_start();
                FaultPlan::corrupt_read_blocks(data_start, DEV_BLOCKS, 11, 2)
            }
            _ => return Err(Error::invalid(format!("no tenant fault plan {n}"))),
        })
    }

    /// Files where the armed plan fired, if it did, before it is cleared.
    fn file_hit(&mut self) {
        let Some(region) = last_fault(&self.faulted_store()) else {
            return;
        };
        self.fired = true;
        self.report.hit(match (self.sc.host, self.sc.site) {
            (HostShape::Mirror(_), _) => Hit::Replica,
            (_, Site::RestoreRead(RestoreMode::Eager)) => Hit::PlannedRead,
            (_, Site::RestoreRead(_) | Site::LazyReadFlip) => Hit::LazyRead,
            _ => region,
        });
    }

    /// Repairs tenant 0's hardware: the plan is cleared, and a dead
    /// device is "replaced" — its store remounted through journal-replay
    /// recovery and the group rehomed onto it.
    fn revive_poisoned(&mut self) -> Result<()> {
        let missing = || Error::internal("no poisoned tenant store");
        let primary = self.host.sls.primary.clone();
        let t0 = self.tenants.first_mut().ok_or_else(missing)?;
        let mut store = t0.own.take().ok_or_else(missing)?;
        if is_dead(&store) {
            // Release the group's handle so the store can be unwrapped.
            self.host.rehome_group(t0.gid, primary)?;
            let Ok(inner) = Rc::try_unwrap(store) else {
                return Err(Error::internal("tenant store still shared"));
            };
            store = Rc::new(RefCell::new(inner.into_inner().recover()?));
        }
        install(&store, FaultPlan::default());
        self.host.rehome_group(t0.gid, store.clone())?;
        t0.own = Some(store);
        Ok(())
    }

    /// What the site does to the machine before `round` is written.
    fn before_round(&mut self, round: u32) -> Result<()> {
        match self.sc.site {
            Site::ResilverWrite if round + 1 == self.sc.rounds => {
                self.mirror(|m| m.kill_replica(self.victim))??;
            }
            Site::TenantStore if round >= REVIVE_ROUND => {
                if round == REVIVE_ROUND {
                    self.file_hit();
                    self.revive_poisoned()?;
                }
                // Idle until the quarantine backoff elapses, so each
                // round's probe actually fires.
                let t0 = self.tenants.first();
                let domain = t0.map(|t0| self.host.tenant_domain(t0.gid));
                if let Some(d) = domain.filter(|d| d.health == TenantHealth::Quarantined) {
                    self.host.clock.advance_to(d.next_probe);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The rounds, then the site's post-round fault phase.
    fn workload(&mut self) -> Result<()> {
        let sc = self.sc;
        let armed_round = match sc.site {
            Site::Write { round } => Some(round),
            Site::TenantStore => Some(POISON_ROUND),
            _ => None,
        };
        for round in 0..sc.rounds {
            if self.n.is_some() {
                self.before_round(round)?;
            }
            for t in &self.tenants {
                for p in 0..sc.pages {
                    let (addr, body) = (self.region.0 + p * 4096, sc.body(t.tag, round, p));
                    self.host.kernel.mem_write(t.pid, addr, &body)?;
                }
                let name = format!("{}-r{round}", t.tag);
                self.expected.insert(name, sc.body(t.tag, round, 0));
            }
            let armed = self.n.filter(|_| armed_round == Some(round));
            if let Some(n) = armed {
                let plan = self.plan(n)?;
                self.install_fault(plan)?;
            }
            let pipelined = sc.pipelined_from.is_some_and(|k| round >= k);
            for i in 0..self.tenants.len() {
                self.attempt(i, round, pipelined);
            }
            // Checkpoints the workload's own GC deleted are not owed.
            if sc.history_window.is_some() {
                let live = named_checkpoints(&self.host.sls.primary);
                self.acked.retain(|a| live.iter().any(|(_, name)| name == a));
            }
            // The tenant-store plan stays armed until the revival.
            if armed.is_some() && !matches!(sc.site, Site::TenantStore) {
                self.file_hit();
            }
            // A cut machine is never drained: in-flight cycles die with it.
            if pipelined && !(armed.is_some() && sc.reboot) {
                self.drain(round);
            }
            // A standby host ships the epoch; the run ends with its primary.
            self.host.replication_pump();
            if self.host.replication().is_some_and(|r| r.primary_dead()) {
                break;
            }
        }
        if self.n.is_none() {
            for engage in sc.engage {
                let reached = engage.reached(&self.host);
                self.require(
                    reached,
                    format!("the fault-free run never reached {engage:?}"),
                );
            }
        }
        match (sc.site, self.n) {
            (Site::RestoreRead(mode), _) => self.read_phase(mode, false)?,
            (Site::LazyReadFlip, _) => self.read_phase(RestoreMode::Lazy, true)?,
            (Site::ResilverWrite, Some(n)) => {
                // Revive the stale replica and cut its power mid-rebuild.
                self.mirror(|m| m.revive_replica(self.victim))??;
                self.install_fault(FaultPlan::power_cut(n))?;
                self.report.aborted += u64::from(self.host.resilver().is_err());
                self.file_hit();
            }
            _ => {}
        }
        Ok(())
    }

    fn attempt(&mut self, i: usize, round: u32, pipelined: bool) {
        let Some(t) = self.tenants.get(i) else { return };
        let (gid, own) = (t.gid, t.own.clone());
        let name = format!("{}-r{round}", t.tag);
        let before = self.host.clock.now();
        let attempt = match pipelined {
            true => self.host.checkpoint_pipelined(gid, round == 0, Some(&name)),
            false => self.host.checkpoint(gid, round == 0, Some(&name)),
        };
        let dead = is_dead(&own.unwrap_or_else(|| self.host.sls.primary.clone()));
        let poisoned = i == 0 && matches!(self.sc.site, Site::TenantStore);
        let label = format!("{} {name}", self.label);
        if let Some(bd) = tally(self.report, &label, attempt, dead, dead || poisoned) {
            if pipelined {
                self.max_span = self.max_span.max(bd.durable_at - before);
            } else {
                self.host.clock.advance_to(bd.durable_at);
            }
            self.acked.push(name);
        }
    }

    /// Drains the fleet. Every fault it surfaces must be the poisoned
    /// tenant's — anyone else's escaped its domain — and that tenant
    /// sits quarantined from two rounds after the poisoning to revival.
    fn drain(&mut self, round: u32) {
        let faults = self.host.fleet_drain();
        let (Site::TenantStore, Some(_)) = (self.sc.site, self.n) else {
            return;
        };
        let Some(gid0) = self.tenants.first().map(|t0| t0.gid) else {
            return;
        };
        for (g, f) in faults.iter().filter(|(g, _)| *g != gid0.0) {
            let escaped = format!("blast radius: fault recorded for healthy tenant {g}: {f}");
            self.require(false, escaped);
        }
        let health = self.host.tenant_domain(gid0).health;
        let must_sit = (POISON_ROUND + 2..REVIVE_ROUND).contains(&round);
        self.require(
            !must_sit || health == TenantHealth::Quarantined,
            format!("poisoned tenant is {health:?}, not quarantined, after round {round}"),
        );
    }

    /// The pages of `memory` that do not start with what `round` wrote.
    fn torn_pages(&self, memory: &[u8], round: u32) -> Vec<usize> {
        let tag = self.tenants.first().map_or("", |t| t.tag);
        let pages = memory.chunks(4096).enumerate();
        let torn =
            pages.filter(|(p, page)| !page.starts_with(&self.sc.body(tag, round, *p as u64)));
        torn.map(|(p, _)| p).collect()
    }

    /// Cold-cache restore of the newest checkpoint under a read fault,
    /// reading every page. Only a dead machine excuses its failing.
    fn read_phase(&mut self, mode: RestoreMode, flip: bool) -> Result<()> {
        let store = self.host.sls.primary.clone();
        let ckpt = head(&store)?;
        store.borrow_mut().drop_caches()?;
        let heals = store.borrow().stats.repair_path_entries.get();
        match self.n {
            // Byte 4 is inside the prefix every page is checked for.
            Some(n) if flip => self.install_fault(FaultPlan::corrupt_reads(n, 1, 4, 3))?,
            Some(n) => self.install_fault(FaultPlan::power_cut_on_read(n))?,
            None => {}
        }
        match restore_region(&mut self.host, &store, ckpt, mode, self.region) {
            Ok(memory) => {
                let torn = self.torn_pages(&memory, self.sc.rounds - 1);
                self.require(
                    torn.is_empty(),
                    format!("restore served torn pages {torn:?}"),
                );
            }
            Err(e) => {
                self.report.aborted += 1;
                self.require(
                    is_dead(&store),
                    format!("restore failed on a live device: {e}"),
                );
            }
        }
        let healed = store.borrow().stats.repair_path_entries.get() != heals;
        self.require(
            !(flip && healed),
            "a one-request flip reached the heal path".into(),
        );
        self.file_hit();
        Ok(())
    }

    /// Clears the fault, recovers the scenario's way, judges the result.
    fn recover(mut self) -> Result<Twin> {
        let (sc, victim) = (self.sc, self.victim);
        self.install_fault(FaultPlan::default())?;
        if let HostShape::Standby(_) = sc.host {
            return self.promote().map(|()| Twin::default());
        }
        let half_copied = self.fired && sc.rebuild;
        if sc.reboot {
            self.host = self.host.crash_and_reboot()?;
            self.report.crashes += 1;
            // A half-copied replica must never come back authoritative.
            let state = self.mirror(|m| m.replica_state(victim)).ok().flatten();
            self.require(
                !half_copied || state == Some(ReplicaState::Rebuilding),
                format!("half-copied replica rebooted as {state:?}, not rebuilding"),
            );
        }
        let digests = self.judge();
        if half_copied {
            // Zero-data-loss proof: finish the rebuild, detach every
            // *other* replica, judge the store from the rebuilt one.
            self.mirror(|m| m.revive_replica(victim))??;
            self.host.resilver()?;
            let mut others = (0..self.host.sls.mirror_width()).filter(|&i| i != victim);
            self.mirror(|m| others.try_for_each(|i| m.kill_replica(i)))??;
            self.judge();
        }
        if let Ok(ms) = self.mirror(|m| m.mirror_stats()) {
            self.report.failovers += ms.failovers;
            self.report.read_repairs += ms.read_repairs;
        }
        if let (Site::TenantStore, Some(n)) = (sc.site, self.n) {
            self.health_walk(n == 1);
        }
        Ok(Twin {
            digests,
            max_span: self.max_span,
        })
    }

    /// The oracle over every store, plus durability: what was acked survives.
    fn judge(&mut self) -> HashMap<String, u64> {
        let own = self.tenants.iter().filter_map(|t| t.own.clone());
        let mut stores: Vec<StoreHandle> = own.collect();
        if stores.is_empty() {
            stores.push(self.host.sls.primary.clone());
        }
        let twin = self.twin.filter(|_| self.sc.twin).map(|t| &t.digests);
        let (expected, label) = (&self.expected, &self.label);
        let digests = oracle(
            &mut self.host,
            &stores,
            self.region,
            expected,
            twin,
            label,
            self.report,
        );
        let lost = self
            .acked
            .iter()
            .filter(|name| !digests.contains_key(*name));
        for name in lost {
            let what = format!("acknowledged checkpoint {name} did not survive");
            self.report.fail(label, what);
        }
        digests
    }

    /// Fault-domain extras: the plan fired, the poisoned tenant was
    /// quarantined (and, its device `dead`, skipped) and re-admitted;
    /// nobody else noticed.
    fn health_walk(&mut self, dead: bool) {
        self.require(self.fired, "the hostile plan never fired".into());
        let gids: Vec<GroupId> = self.tenants.iter().map(|t| t.gid).collect();
        for (i, gid) in gids.into_iter().enumerate() {
            let d = self.host.tenant_domain(gid);
            let ended = format!("tenant {i} ended {:?}", d.health);
            self.require(d.health == TenantHealth::Healthy, ended);
            let trouble = (d.failures, d.deadline_misses, d.cycles_skipped);
            if i > 0 {
                let damaged = format!("healthy tenant {i} failed, missed, skipped {trouble:?}");
                self.require(trouble == (0, 0, 0), damaged);
                continue;
            }
            let walked = (d.quarantines, d.readmissions);
            self.require(
                d.quarantines > 0 && d.readmissions > 0,
                format!("expected a quarantine and a re-admission, saw {walked:?}"),
            );
            let skipped = !dead || d.cycles_skipped > 0;
            self.require(skipped, "no cycle was skipped while quarantined".into());
        }
    }

    /// The primary is lost: promote the standby; check the watermark,
    /// the import log and that no epoch is torn.
    fn promote(mut self) -> Result<()> {
        let gone = || Error::internal("replication session vanished");
        let session = self.host.replication_mut().ok_or_else(gone)?;
        let survived = !session.primary_dead();
        // A kill budget past the run's last frame: the session must converge.
        let converged = !survived || session.run_until_idle(100_000);
        let (acked, shipped) = (session.acked_epoch(), session.shipped_epoch());
        self.require(converged, "surviving session failed to converge".into());
        if !survived {
            self.report.hit(Hit::LinkFrame);
        }
        let repl = self.host.detach_standby().ok_or_else(gone)?;
        self.report.crashes += 1;
        let (mut standby, pr) = promote_to_host(repl, "standby")?;
        let promoted = pr.promoted_epoch;
        let errors = pr.apply_errors;
        self.require(errors == 0, format!("{errors} standby import error(s)"));
        self.require(
            promoted >= acked,
            format!("promoted epoch {promoted} below acked watermark {acked}"),
        );
        self.require(
            !survived || promoted == shipped,
            format!("converged standby promoted {promoted} of {shipped} epochs"),
        );
        let store = standby.sls.primary.clone();
        let problems = store.borrow().scrub().join("; ");
        self.require(
            problems.is_empty(),
            format!("promoted store scrub: {problems}"),
        );
        // An empty standby is legitimate only if nothing was acked (above).
        let Some(round) = promoted.checked_sub(1) else {
            return Ok(());
        };
        let newest = head(&store)?;
        let memory = restore_region(
            &mut standby,
            &store,
            newest,
            RestoreMode::Eager,
            self.region,
        )?;
        let torn = self.torn_pages(&memory, round as u32);
        self.require(
            torn.is_empty(),
            format!("torn epoch {promoted}: pages {torn:?} carry another epoch"),
        );
        self.report.restores_verified += u64::from(torn.is_empty());
        Ok(())
    }
}

/// The one outcome tally: files a checkpoint attempt, returning its
/// breakdown if it committed. An `Err` is legitimate only on a `dead`
/// device, an abort or quarantine only when `may_abort`.
fn tally(
    report: &mut CampaignReport,
    label: &str,
    attempt: Result<CheckpointBreakdown>,
    dead: bool,
    may_abort: bool,
) -> Option<CheckpointBreakdown> {
    let (bd, excused) = match attempt {
        Ok(bd) => (bd, may_abort),
        Err(e) => {
            let bd = CheckpointBreakdown {
                outcome: CheckpointOutcome::Aborted,
                fault: Some(format!("checkpoint error: {e}")),
                ..Default::default()
            };
            (bd, dead)
        }
    };
    match bd.outcome {
        // A lagging standby degrades replication, not durability.
        CheckpointOutcome::Committed | CheckpointOutcome::DegradedReplication => {}
        CheckpointOutcome::DegradedToFull => report.degraded += 1,
        CheckpointOutcome::DegradedMirror => report.degraded_mirror += 1,
        CheckpointOutcome::Aborted | CheckpointOutcome::Quarantined => {
            report.aborted += 1;
            if !excused {
                let what = format!("{:?} on healthy hardware: {:?}", bd.outcome, bd.fault);
                report.fail(label, what);
            }
            return None;
        }
    }
    report.committed += 1;
    report.rewritten += bd.rewritten;
    Some(bd)
}

/// Restores `id` from `store` in `mode`, copies out `bytes` of memory at
/// `addr` (faulting a lazy restore's pages in, in order) and tears the
/// restored process back down.
fn restore_region(
    host: &mut Host,
    store: &StoreHandle,
    id: CkptId,
    mode: RestoreMode,
    (addr, bytes): (u64, usize),
) -> Result<Vec<u8>> {
    let restored = host.restore(store, id, mode)?;
    let no_root = || Error::internal("restore returned no root pid");
    let np = restored.root_pid().ok_or_else(no_root)?;
    let mut memory = vec![0u8; bytes];
    let read = host.kernel.mem_read(np, addr, &mut memory);
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    read.map(|()| memory)
}

/// The one oracle, on a recovered host: every store scrubs clean, and
/// every surviving checkpoint named in `expected` restores memory that
/// starts with its recorded bytes and, given a `twin`, digests equal to
/// the fault-free run's. Internal checkpoints (SLSFS's, the compactor's)
/// are scrub's to validate. Returns the survivors' digests.
fn oracle(
    host: &mut Host,
    stores: &[StoreHandle],
    region: (u64, usize),
    expected: &HashMap<String, Vec<u8>>,
    twin: Option<&HashMap<String, u64>>,
    label: &str,
    report: &mut CampaignReport,
) -> HashMap<String, u64> {
    let mut digests = HashMap::new();
    for store in stores {
        let problems = store.borrow().scrub();
        if !problems.is_empty() {
            let (count, list) = (problems.len(), problems.join("; "));
            report.fail(
                label,
                format!("scrub found {count} problem(s) after recovery: {list}"),
            );
        }
        for (id, name) in named_checkpoints(store) {
            let Some(want) = expected.get(&name) else {
                continue;
            };
            let memory = match restore_region(host, store, id, RestoreMode::Eager, region) {
                Ok(memory) => memory,
                Err(e) => {
                    report.fail(
                        label,
                        format!("surviving checkpoint {name} failed to restore: {e}"),
                    );
                    continue;
                }
            };
            let digest = page_hash(&memory);
            if memory.starts_with(want) {
                report.restores_verified += 1;
            } else {
                report.fail(
                    label,
                    format!("checkpoint {name} restored other than its recorded bytes"),
                );
            }
            match twin.map(|t| t.get(&name)) {
                None => {}
                Some(Some(&clean)) if clean == digest => report.restores_verified += 1,
                Some(clean) => {
                    let what =
                        format!("checkpoint {name} digest {digest:#x}, the twin's {clean:x?}");
                    report.fail(label, what);
                }
            }
            digests.insert(name, digest);
        }
    }
    digests
}

/// Runs a full randomized campaign: `cfg.schedules` independent fault
/// schedules, each on a fresh host. Failures that stop the loop itself
/// (boot errors, recovery errors) are recorded as violations rather
/// than panics so one bad seed cannot hide the rest.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    for idx in 0..cfg.schedules {
        if let Err(e) = run_schedule(cfg, idx, &mut report) {
            report.fail(&format!("schedule {idx}"), format!("harness error: {e}"));
        }
        report.schedules += 1;
    }
    report
}

/// Runs one randomized fault schedule end to end: a fault-free
/// baseline, then every later round under the seeded plan, crashing
/// whenever the device dies and resuming from the newest survivor.
fn run_schedule(cfg: &CampaignConfig, idx: u64, report: &mut CampaignReport) -> Result<()> {
    let label = format!("schedule {idx}");
    let schedule_seed = cfg.seed ^ idx.wrapping_mul(GOLDEN);
    let config = StoreConfig {
        journal_blocks: 512,
        ..StoreConfig::default()
    };
    let mut host = Host::boot("campaign", nvme(&SimClock::new(), "nvme0"), config)?;
    let mut pid = host.kernel.spawn("app");
    let region = (host.kernel.mmap_anon(pid, 4 * 4096, false)?, 4 * 4096);
    let mut gid = host.persist("app", pid)?;

    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    // Bumped on every re-arm so a schedule that keeps crashing at the
    // same write does not replay the identical decision forever.
    let mut segment: u64 = 0;
    for round in 0..cfg.rounds {
        let tag = format!("s{idx:04}-r{round:03}");
        host.kernel.mem_write(pid, region.0, tag.as_bytes())?;
        let name = format!("r{round}");
        expected.insert(name.clone(), tag.into_bytes());

        let attempt = host.checkpoint(gid, round == 0, Some(&name));
        let errored = attempt.is_err();
        // A power cut mid-flush leaves the device dead: the machine
        // crashed, no error to report. Exhausted retries abort on a live
        // device: the pipeline working.
        let dead = is_dead(&host.sls.primary);
        let attempt_label = format!("{label} round {round}");
        if let Some(bd) = tally(report, &attempt_label, attempt, dead, true) {
            host.clock.advance_to(bd.durable_at);
        }
        if round == 0 {
            // Baseline is durable; arm the randomized schedule.
            let plan = FaultPlan::random(schedule_seed, cfg.rates);
            install(&host.sls.primary, plan);
        }
        if !(errored || dead || round + 1 == cfg.rounds) {
            continue;
        }

        if let Some(hit) = last_fault(&host.sls.primary) {
            report.hit(hit);
        }
        install(&host.sls.primary, FaultPlan::default());
        host = host.crash_and_reboot()?;
        report.crashes += 1;
        let store = host.sls.primary.clone();
        // A lying device may lose an acked checkpoint: only survivors are judged.
        let stores = std::slice::from_ref(&store);
        oracle(&mut host, stores, region, &expected, None, &label, report);

        // Resume the workload from the newest surviving checkpoint.
        let restored = host.restore(&store, head(&store)?, RestoreMode::Eager)?;
        let no_root = || Error::internal("restore returned no root pid");
        pid = restored.root_pid().ok_or_else(no_root)?;
        drop(store);
        gid = host.persist("app", pid)?;
        if round + 1 < cfg.rounds {
            segment += 1;
            let seed = schedule_seed ^ segment.wrapping_mul(GOLDEN);
            install(&host.sls.primary, FaultPlan::random(seed, cfg.rates));
        }
    }

    let rs = host.sls.primary.borrow().device().retry_stats();
    report.transient_absorbed += rs.transient_absorbed;
    report.writes_retried += rs.writes_retried;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLUSH_BATCH: u64 = crate::flush::FLUSH_BATCH_PAGES as u64;
    const RESTORE_BATCH: u64 = crate::restore::RESTORE_BATCH_BLOCKS as u64;

    /// Runs one row of the table; it must pass before its own checks.
    fn sweep(sc: Scenario, points: impl IntoIterator<Item = u64>) -> CampaignReport {
        let report = run(&sc, points);
        assert!(
            report.passed(),
            "{}: {:#?}",
            report.summary(),
            report.violations
        );
        report
    }

    fn campaign(schedules: u64, rates: FaultRates) -> CampaignReport {
        run_campaign(&CampaignConfig {
            schedules,
            rates,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn short_campaign_passes_both_invariants() {
        let report = campaign(8, FaultRates::flaky());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 8);
        assert!(report.committed >= 8, "every schedule has a baseline");
        assert!(report.crashes >= 8, "every schedule ends in a crash");
        assert!(report.restores_verified >= 8);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = campaign(4, FaultRates::flaky());
        let b = campaign(4, FaultRates::flaky());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.restores_verified, b.restores_verified);
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn hostile_rates_still_pass() {
        let report = campaign(4, FaultRates::hostile());
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn power_cut_sweep_mid_parallel_flush_recovers_clean() {
        let r = sweep(Scenario::flush_cut(SWEEP_PAGES), 1..=18);
        assert_eq!(r.crashes, 18);
        assert_eq!(r.hits_on(Hit::Data), 18, "every cut lands inside the flush");
        assert!(
            r.restores_verified >= 18,
            "baselines must survive every cut"
        );
    }

    #[test]
    fn power_cut_sweep_between_flush_batches_recovers_clean() {
        // Three full batches and a partial one. Per batch, a cut at its
        // first write (all before it is whole batches on the device) and
        // one mid-extent; then the writes of the commit after the last.
        let pages = 3 * FLUSH_BATCH + FLUSH_BATCH / 4;
        let in_batches =
            (0..4).flat_map(|k| [k * FLUSH_BATCH + 1, k * FLUSH_BATCH + FLUSH_BATCH / 8 + 7]);
        let r = sweep(
            Scenario::flush_cut(pages),
            in_batches.chain(pages + 1..=pages + 3),
        );
        assert_eq!(r.crashes, 11);
        assert_eq!(
            r.hits_on(Hit::Data),
            8,
            "every cut inside the data writes: {r:?}"
        );
        assert!(
            r.hits_on(Hit::Journal) > 0,
            "and the commit's own writes: {r:?}"
        );
        assert!(
            r.restores_verified >= 11,
            "the baseline survives every cut: {r:?}"
        );
    }

    #[test]
    fn tail_torn_sweep_stops_the_scan_at_the_torn_record() {
        let r = sweep(Scenario::tail_torn(), 1..=4);
        assert_eq!(r.hits_on(Hit::Journal), 1, "the delta round's one record: {r:?}");
        assert!(r.restores_verified >= 8, "twin-equal survivors: {r:?}");
    }

    #[test]
    fn tail_data_lost_sweep_drops_the_record_and_lands_on_the_old_head() {
        // Cuts on the last data blocks of the round's extents, then on
        // its commit record and past it.
        let r = sweep(
            Scenario::tail_data_lost(),
            SWEEP_PAGES - 2..=SWEEP_PAGES + 2,
        );
        assert_eq!(r.hits_on(Hit::Data), 3, "{r:?}");
        assert_eq!(r.hits_on(Hit::Journal), 1, "the record lands over lost data: {r:?}");
        assert_eq!(r.crashes, 5);
        assert_eq!(r.aborted, 4, "no point whose cut fired commits its round: {r:?}");
    }

    #[test]
    fn stale_generation_sweep_never_replays_the_half_s_previous_use() {
        // The fault-free run reaches the state the sweep needs: two
        // switches, the GC that makes stale records matter, and the cut
        // round's appends landing in the reused half.
        let sc = Scenario::stale_generation();
        let mut report = CampaignReport::default();
        let mut world = World::boot(&sc, None, None, "clean".into(), &mut report).unwrap();
        world.workload().unwrap();
        let stats = world.host.sls.primary.borrow().stats.clone();
        assert_eq!(stats.superblock_flips, 2, "{stats:?}");
        assert!(stats.gc_runs > 0, "{stats:?}");

        let r = sweep(sc, 1..=3);
        assert_eq!(r.hits_on(Hit::Journal), 2, "the commit and its GC delete: {r:?}");
        assert_eq!(r.crashes, 3);
    }

    #[test]
    fn journal_switch_cut_sweep_covers_the_superblock_flip() {
        let r = sweep(Scenario::journal_switch_cut(), 1..=4);
        assert_eq!(r.hits_on(Hit::Superblock), 2, "the flip's two slots: {r:?}");
        assert_eq!(r.hits_on(Hit::Journal), 2, "the snapshot and the record: {r:?}");
    }

    #[test]
    fn power_cut_sweep_mid_batched_restore_leaves_store_intact() {
        // One worker runs the same pipeline: same reads, same ordinals,
        // so the same cuts land inside it.
        for workers in [1, 4] {
            let r = sweep(Scenario::restore_cut(SWEEP_PAGES, workers), 1..=12);
            assert_eq!((r.crashes, r.aborted), (12, 12), "every restore dies");
            assert_eq!(r.hits_on(Hit::PlannedRead), 12, "cuts land in the page-in");
            assert_eq!(
                r.restores_verified, 12,
                "a read-side cut can never damage the baseline"
            );
        }
    }

    #[test]
    fn power_cut_sweep_between_restore_batches_leaves_store_intact() {
        // Two full batches and a partial one. In each later batch, a cut
        // at its first read (every batch before it is verified and in
        // the read cache) and one mid-extent.
        let pages = 2 * RESTORE_BATCH + RESTORE_BATCH / 4;
        let cuts = (1..3).flat_map(|k| {
            [
                k * RESTORE_BATCH + 1,
                k * RESTORE_BATCH + RESTORE_BATCH / 8 + 7,
            ]
        });
        let r = sweep(Scenario::restore_cut(pages, 4), cuts);
        assert_eq!((r.crashes, r.aborted), (4, 4), "every restore dies: {r:?}");
        assert_eq!(r.hits_on(Hit::PlannedRead), 4, "inside the page-in: {r:?}");
        assert_eq!(
            r.restores_verified, 4,
            "a read-side cut can never damage the baseline: {r:?}"
        );
    }

    #[test]
    fn lazy_read_cut_at_every_fault_leaves_store_intact() {
        let r = sweep(Scenario::lazy_read_cut(), 1..=DELTA_PAGES);
        assert_eq!(
            r.hits_on(Hit::LazyRead),
            DELTA_PAGES,
            "one device read per page fault"
        );
        assert_eq!((r.aborted, r.crashes), (DELTA_PAGES, DELTA_PAGES));
        assert_eq!(
            r.restores_verified,
            2 * DELTA_PAGES,
            "bytes and twin digest after every cut"
        );
    }

    #[test]
    fn lazy_read_flip_is_cleared_by_the_one_re_read() {
        let r = sweep(Scenario::lazy_read_flip(), 1..=DELTA_PAGES);
        assert_eq!(r.hits_on(Hit::LazyRead), DELTA_PAGES);
        assert_eq!(
            (r.aborted, r.crashes),
            (0, 0),
            "a transient flip fails nothing"
        );
    }

    #[test]
    fn fleet_fault_domain_sweep_contains_the_blast() {
        let r = sweep(Scenario::fault_domain(), 1..=3);
        assert_eq!(r.schedules, 3, "one iteration per fault plan");
        assert!(
            r.aborted > 0,
            "the poisoned tenant must abort or skip some cycles"
        );
        assert!(
            r.committed > 0,
            "healthy tenants must keep committing throughout"
        );
        assert!(
            r.rewritten > 0,
            "the read-corruption plan's damage is rewritten from memory: {}",
            r.summary()
        );
    }

    /// Two pipelined tenants share one materialized store, and a block
    /// under tenant A's head pages rots. A's scrub step finds it after
    /// A's incremental commits, which degrades A's fault domain; B's
    /// step reads B's own pages, so B stays healthy. A's next cycle
    /// rewrites the page from memory, incrementally, and A is healthy
    /// again.
    #[test]
    fn fleet_fault_domain_shared_store_keeps_rot_in_its_tenant() {
        let config = StoreConfig {
            materialize_data: true,
            ..StoreConfig::default()
        };
        let mut host = Host::boot("shared", nvme(&SimClock::new(), "nvme0"), config).unwrap();
        let tenants = ["tenant-a", "tenant-b"].map(|tag| {
            let pid = host.kernel.spawn(tag);
            let addr = host.kernel.mmap_anon(pid, 8 * 4096, false).unwrap();
            for p in 0..8 {
                let body = format!("{tag} page {p}");
                host.kernel.mem_write(pid, addr + p * 4096, body.as_bytes()).unwrap();
            }
            let gid = host.persist(tag, pid).unwrap();
            host.checkpoint_pipelined(gid, true, None).unwrap();
            (pid, addr, gid)
        });
        host.fleet_drain();

        let [(_, _, a), (_, _, b)] = tenants;
        let store = host.sls.primary.clone();
        let lba = {
            let s = store.borrow();
            let image = s.image_at(head(&store).unwrap()).unwrap();
            let mut blocks = image.refs(a.objects()).filter_map(|(_, r)| match r {
                aurora_objstore::PageRef::Full(ptr) => Some(ptr.0),
                aurora_objstore::PageRef::Delta(_) => None,
            });
            s.data_start() + blocks.next().expect("tenant A has a page image")
        };
        install(&store, FaultPlan::corrupt_read_blocks(lba, lba + 1, 11, 2));
        for &(pid, addr, _) in &tenants {
            host.kernel.mem_write(pid, addr, b"dirty").unwrap();
        }

        let bd = host.checkpoint_pipelined(b, false, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
        assert!(!bd.holds_damage() && !bd.full);
        let bd = host.checkpoint_pipelined(a, false, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
        assert!(bd.scrub_damaged == 1 && !bd.full, "{:?}", bd.fault);
        host.fleet_drain();
        assert_eq!(host.tenant_domain(b).health, TenantHealth::Healthy);
        assert_eq!(host.tenant_domain(a).health, TenantHealth::Degraded);

        host.clock.advance_to(bd.scrub_ready_at);
        let (pid, addr, _) = tenants[0];
        host.kernel.mem_write(pid, addr, b"dirty again").unwrap();
        let bd = host.checkpoint_pipelined(a, false, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
        assert!(
            bd.rewritten == 1 && !bd.holds_damage() && !bd.full,
            "{:?}",
            bd.fault
        );
        host.fleet_drain();
        assert_eq!(host.tenant_domain(a).health, TenantHealth::Healthy);
    }

    #[test]
    fn mirror_kill_sweep_mid_flush_loses_nothing() {
        let r = sweep(Scenario::mirror_kill(2), 1..=12);
        assert!(
            r.degraded_mirror > 0,
            "some kills must land inside the flush"
        );
        assert_eq!(r.hits_on(Hit::Replica), 12, "every kill lands:\n{}", r.summary());
        assert_eq!(
            r.degraded_mirror,
            r.hits_on(Hit::Replica),
            "a landed kill degrades the mirror"
        );
        assert!(
            r.restores_verified >= 12,
            "every survivor verifies, also from the rebuilt replica"
        );
    }

    #[test]
    fn mirror_kill_sweep_width_three() {
        let r = sweep(Scenario::mirror_kill(3), 1..=6);
        assert!(r.degraded_mirror > 0);
    }

    #[test]
    fn mirror_restore_sweep_fails_over_instead_of_aborting() {
        let r = sweep(Scenario::mirror_restore(), 1..=10);
        assert_eq!(
            r.aborted, 0,
            "a mirrored restore never aborts on one dead replica"
        );
        assert_eq!(
            r.failovers,
            r.hits_on(Hit::Replica),
            "every landed cut fails over"
        );
    }

    #[test]
    fn resilver_power_cut_never_promotes_a_half_copied_replica() {
        let r = sweep(Scenario::resilver_cut(), 1..=8);
        assert_eq!(r.hits_on(Hit::Replica), 8, "every cut lands in the copy");
        assert_eq!(r.crashes, 8, "and every point reboots");
        assert_eq!(
            r.degraded_mirror, 8,
            "the round run with a replica detached says so"
        );
        assert!(
            r.restores_verified >= 16,
            "both rounds verify, also from the rebuilt replica"
        );
    }

    #[test]
    fn replication_kill_sweep_never_promotes_torn_epoch() {
        // Drops, duplicates, reorders and partitions while the kill walks.
        let r = sweep(Scenario::replication_kill(LinkFaultRates::lossy()), 1..=24);
        assert_eq!(r.crashes, 24, "every iteration loses the primary");
        assert!(
            r.restores_verified > 0,
            "later kills must leave promotable epochs"
        );
    }

    #[test]
    fn replication_kill_sweep_clean_link_converges_past_the_stream() {
        let clean = Scenario::replication_kill(LinkFaultRates::clean());
        let r = sweep(clean, (1..=10).chain([10_000]));
        assert_eq!(
            r.hits_on(Hit::LinkFrame),
            10,
            "the point past the stream kills nobody: {r:?}"
        );
    }

    #[test]
    fn replication_kill_sweep_is_deterministic() {
        let lossy = Scenario::replication_kill(LinkFaultRates::lossy());
        let (a, b) = (run(&lossy, 1..=6), run(&lossy, 1..=6));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.restores_verified, b.restores_verified);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn oracle_rejects_a_wrong_recorded_body() {
        // The oracle is not vacuous: the same run, judged against a
        // body the workload never wrote, is a violation.
        let (sc, mut report) = (Scenario::flush_cut(8), CampaignReport::default());
        let mut world = World::boot(&sc, Some(3), None, "wrong body".into(), &mut report).unwrap();
        world.workload().unwrap();
        world
            .expected
            .insert("app-r0".into(), b"never written".to_vec());
        world.recover().unwrap();
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
        assert!(
            report.violations.concat().contains("app-r0 restored other"),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn a_point_past_the_last_write_hits_nothing_and_fails() {
        let report = run(&Scenario::flush_cut(8), [10_000]);
        assert!(report.hits.is_empty(), "{report:#?}");
        assert_eq!(report.violations.len(), 1, "{report:#?}");
        assert!(
            report.violations.concat().contains("declared target Data"),
            "{report:#?}"
        );
    }

    #[test]
    fn env_override_parses() {
        // Not set in the test environment: default flows through.
        assert_eq!(schedules_from_env(123), 123);
    }
}
