//! Differential test for the streamed incremental-base check.
//!
//! Before an incremental checkpoint the host re-reads its base and
//! compares every block with its recorded content hash, each batch of
//! reads on the flush workers while the device reads the next. The
//! worker count may change when the check ends and nothing else: for a
//! clean base and for every kind of damage, the checkpoint's outcome,
//! fault, `base_damaged` and `base_verify_blocks`, the bytes the device
//! read and the store's read repairs are the same at 1, 2 and 4
//! workers, and more workers never end the check later.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_core::{CheckpointOutcome, GroupId, Host};
use aurora_hw::{BlockDev, FaultPlan, ModelDev, RetryPolicy};
use aurora_objstore::read::{extent_batches, runs, RESTORE_BATCH_BLOCKS};
use aurora_objstore::{StoreConfig, EXTENT_BLOCKS};
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages of the base: a little over two read batches, every page
/// distinct, so the check streams three batches.
const PAGES: u64 = 2 * RESTORE_BATCH_BLOCKS as u64 + 100;

/// Where a rotten block sits in the check's read schedule.
#[derive(Debug, Clone, Copy)]
enum Spot {
    /// The first block of the second batch.
    BatchFirst,
    /// The last block of the second batch.
    BatchLast,
    /// A block inside a multi-block extent of the third batch.
    InsideExtent,
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// Damaged media: every read of the block returns the same flipped
    /// bit, so the re-read cannot clear it.
    Rot(Spot),
    /// The first extent's request fails through every retry, and so
    /// does its first block read alone; the rest of the extent reads
    /// clean block by block.
    Unreadable,
    /// Replica 0 of a two-way mirror holds every base block rotten; the
    /// check heals each from replica 1.
    RottenMirror,
}

/// What the check decided, and what it cost in bytes.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: CheckpointOutcome,
    fault: Option<String>,
    base_damaged: bool,
    base_verify_blocks: u64,
    bytes_read: u64,
    read_repairs: u64,
}

fn config() -> StoreConfig {
    StoreConfig {
        journal_blocks: 1024,
        materialize_data: true,
        ..StoreConfig::default()
    }
}

fn boot(mirrored: bool) -> Host {
    let clock = SimClock::new();
    if mirrored {
        let members: Vec<Box<dyn BlockDev>> = (0..2)
            .map(|i| {
                Box::new(ModelDev::nvme(
                    clock.clone(),
                    &format!("nvme{i}"),
                    DEV_BLOCKS,
                )) as Box<dyn BlockDev>
            })
            .collect();
        Host::boot_mirrored("diff", members, config()).unwrap()
    } else {
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        Host::boot("diff", dev, config()).unwrap()
    }
}

/// Installs `plan` on replica 0 of the primary store's mirror.
fn replica0_plan(host: &Host, plan: FaultPlan) {
    let mut store = host.sls.primary.borrow_mut();
    let mirror = store.device_mut().as_mirror_mut().expect("mirrored host");
    mirror.install_replica_fault_plan(0, plan).unwrap();
}

/// LBA of the block at `spot` in the base check's schedule: the
/// group's blocks at the head, ascending, cut into extents and batches
/// the way the check cuts them.
fn spot_lba(host: &Host, gid: GroupId, spot: Spot) -> u64 {
    let store = host.sls.primary.borrow();
    let head = store.head().unwrap();
    let mut blocks = Vec::new();
    let problems = store.walk_base_blocks(head, gid.objects(), &mut |_, _, b| blocks.push(b));
    assert!(problems.is_empty(), "{problems:?}");
    blocks.sort_unstable();
    blocks.dedup();
    let extents = runs(&blocks, EXTENT_BLOCKS);
    let batches = extent_batches(&extents, RESTORE_BATCH_BLOCKS);
    assert_eq!(batches.len(), 3, "the base streams three batches");
    let block = match spot {
        Spot::BatchFirst => blocks[extents[batches[1].start].0],
        Spot::BatchLast => {
            let (off, len) = extents[batches[1].end - 1];
            blocks[off + len - 1]
        }
        Spot::InsideExtent => {
            let &(off, len) = extents[batches[2].clone()]
                .iter()
                .find(|&&(_, len)| len >= 3)
                .expect("a multi-block extent in the third batch");
            blocks[off + len / 2]
        }
    };
    store.data_start() + block
}

/// Commits a full base of `PAGES` distinct pages, installs `damage`,
/// dirties one page and takes an incremental checkpoint at `workers`
/// flush workers. Returns what the base check decided and how long it
/// took.
fn run(damage: Damage, workers: usize) -> (Observed, SimDuration) {
    let mirrored = matches!(damage, Damage::RottenMirror);
    let mut host = boot(mirrored);
    host.sls.flush_workers = workers;
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, PAGES * 4096, false).unwrap();
    for p in 0..PAGES {
        let body = format!("base-page-{p:04}");
        host.kernel
            .mem_write(pid, addr + p * 4096, body.as_bytes())
            .unwrap();
    }
    let gid = host.persist("app", pid).unwrap();
    if mirrored {
        let ds = host.sls.primary.borrow().data_start();
        replica0_plan(&host, FaultPlan::corrupt_blocks(ds, u64::MAX, 100, 3));
    }
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    if mirrored {
        // Healthy electronics again; the damage is at rest.
        replica0_plan(&host, FaultPlan::default());
    }

    let plan = match damage {
        Damage::Rot(spot) => {
            let lba = spot_lba(&host, gid, spot);
            Some(FaultPlan::corrupt_read_blocks(lba, lba + 1, 100, 3))
        }
        Damage::Unreadable => {
            let attempts = u64::from(RetryPolicy::default().max_attempts);
            Some(FaultPlan::transient_reads(1, 2 * attempts))
        }
        Damage::None | Damage::RottenMirror => None,
    };
    host.kernel.mem_write(pid, addr, b"dirty").unwrap();
    let store = host.sls.primary.clone();
    if let Some(plan) = plan {
        store.borrow_mut().device_mut().install_fault_plan(plan);
    }
    let read_before = store.borrow().device().stats().bytes_read;
    let repairs_before = store.borrow().stats.read_repairs.get();
    let bd = host.checkpoint(gid, false, None).unwrap();
    let store = store.borrow();
    let observed = Observed {
        outcome: bd.outcome,
        fault: bd.fault,
        base_damaged: bd.base_damaged,
        base_verify_blocks: bd.base_verify_blocks,
        bytes_read: store.device().stats().bytes_read - read_before,
        read_repairs: store.stats.read_repairs.get() - repairs_before,
    };
    (observed, bd.base_verify)
}

/// What each case must decide, whatever the worker count.
fn check_verdict(damage: Damage, o: &Observed) {
    let fault = o.fault.clone().unwrap_or_default();
    match damage {
        Damage::None => {
            assert_eq!(o.outcome, CheckpointOutcome::Committed, "{fault}");
            assert!(!o.base_damaged);
            assert_eq!(o.base_verify_blocks, PAGES, "every base block, once");
        }
        Damage::Rot(_) => {
            assert_eq!(o.outcome, CheckpointOutcome::DegradedToFull);
            assert!(o.base_damaged);
            assert!(fault.contains("content hash mismatch"), "{fault}");
        }
        Damage::Unreadable => {
            assert_eq!(o.outcome, CheckpointOutcome::DegradedToFull);
            assert!(o.base_damaged);
            assert!(fault.contains("unreadable"), "{fault}");
        }
        Damage::RottenMirror => {
            assert_eq!(o.outcome, CheckpointOutcome::Committed, "{fault}");
            assert!(!o.base_damaged);
            assert!(
                o.read_repairs >= PAGES,
                "every rotten block healed: {}",
                o.read_repairs
            );
        }
    }
}

#[test]
fn base_check_verdicts_do_not_depend_on_the_worker_count() {
    let cases = [
        Damage::None,
        Damage::Rot(Spot::BatchFirst),
        Damage::Rot(Spot::BatchLast),
        Damage::Rot(Spot::InsideExtent),
        Damage::Unreadable,
        Damage::RottenMirror,
    ];
    for damage in cases {
        let (reference, mut took) = run(damage, 1);
        check_verdict(damage, &reference);
        for workers in [2, 4] {
            let (observed, base_verify) = run(damage, workers);
            assert_eq!(observed, reference, "{damage:?} at {workers} workers");
            assert!(
                base_verify <= took,
                "{damage:?}: {workers} workers end the check at {base_verify}, later than {took}"
            );
            took = base_verify;
        }
    }
}
