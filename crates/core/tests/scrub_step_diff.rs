//! Differential test for the post-commit scrub step.
//!
//! After every commit the host checks one read batch of the group's
//! head on every backend, comparing each block with its recorded content
//! hash on the flush workers, and the damage it finds joins the group's
//! rewrite set at the first checkpoint after its verdicts are in. The
//! worker count may change when a step's verdicts are in and nothing
//! else: for a clean head and for every kind of damage, each cycle's
//! outcome, the pages each step found damaged, the pages the next
//! cycles rewrote and left in the rewrite set, the bytes the device read
//! and the store's read repairs are the same at 1, 2 and 4 workers, and
//! more workers never put a step's verdicts later.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use aurora_core::{CheckpointOutcome, GroupId, Host};
use aurora_hw::{BlockDev, FaultPlan, ModelDev, RetryPolicy};
use aurora_objstore::read::{runs, RESTORE_BATCH_BLOCKS};
use aurora_objstore::{ObjId, StoreConfig, EXTENT_BLOCKS};
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages of the head: a little over two read batches, every page
/// distinct, so the steps walk it in three.
const PAGES: u64 = 2 * RESTORE_BATCH_BLOCKS as u64 + 100;

/// Incremental cycles after the base: one step per batch and one that
/// wraps, the last rewriting what the step before it found.
const CYCLES: usize = 4;

/// Where a rotten block sits in the steps' read schedule.
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
    /// The first extent the first incremental's step reads fails
    /// through every retry, and so does its first block read alone; the
    /// rest of the extent reads clean block by block.
    Unreadable,
    /// Replica 0 of a two-way mirror holds every block rotten; the
    /// steps heal each from replica 1.
    RottenMirror,
}

/// What one incremental cycle decided.
#[derive(Debug, PartialEq)]
struct Cycle {
    outcome: CheckpointOutcome,
    full: bool,
    /// Pages its step found damaged, as the step names them.
    found: Vec<String>,
    /// Pages it rewrote from memory.
    rewritten: u64,
    /// The rewrite set after it.
    rewrite: BTreeSet<(ObjId, u64)>,
}

/// What the cycles decided, and what they cost in bytes.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: Vec<Cycle>,
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

/// The blocks of each scrub step over the group's head, in the order
/// the steps take them: the pages in key order cut into runs of
/// `RESTORE_BATCH_BLOCKS` distinct blocks, each ascending.
fn step_batches(host: &Host, gid: GroupId) -> Vec<Vec<u64>> {
    let store = host.sls.primary.borrow();
    let head = store.head().unwrap();
    let mut batches: Vec<BTreeSet<u64>> = vec![BTreeSet::new()];
    let problems = store.walk_base_blocks(head, gid.objects(), &mut |_, _, b| {
        let last = batches.last_mut().unwrap();
        if last.len() == RESTORE_BATCH_BLOCKS && !last.contains(&b) {
            batches.push(BTreeSet::from([b]));
        } else {
            last.insert(b);
        }
    });
    assert!(problems.is_empty(), "{problems:?}");
    batches
        .into_iter()
        .map(|b| b.into_iter().collect())
        .collect()
}

/// LBA of the block at `spot` in the steps' schedule.
fn spot_lba(host: &Host, gid: GroupId, spot: Spot) -> u64 {
    let batches = step_batches(host, gid);
    assert_eq!(batches.len(), 3, "the head takes three steps");
    let block = match spot {
        Spot::BatchFirst => batches[1][0],
        Spot::BatchLast => *batches[1].last().unwrap(),
        Spot::InsideExtent => {
            let extents = runs(&batches[2], EXTENT_BLOCKS);
            let &(off, len) = extents
                .iter()
                .find(|&&(_, len)| len >= 3)
                .expect("a multi-block extent in the third batch");
            batches[2][off + len / 2]
        }
    };
    host.sls.primary.borrow().data_start() + block
}

/// Commits a full base of `PAGES` distinct pages, whose own step checks
/// the first batch, installs `damage`, and takes `CYCLES` incremental
/// checkpoints at `workers` flush workers, each dirtying one page and
/// waiting for its commit and for its step's verdicts. Returns what the
/// cycles decided and, per cycle, how long after its durable instant
/// its step's verdicts were in.
fn run(damage: Damage, workers: usize) -> (Observed, Vec<SimDuration>) {
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
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));
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
    let store = host.sls.primary.clone();
    if let Some(plan) = plan {
        store.borrow_mut().device_mut().install_fault_plan(plan);
    }
    let read_before = store.borrow().device().stats().bytes_read;
    let repairs_before = store.borrow().stats.read_repairs.get();
    let mut cycles = Vec::new();
    let mut spans = Vec::new();
    for c in 0..CYCLES {
        let body = format!("dirty-{c}");
        host.kernel.mem_write(pid, addr, body.as_bytes()).unwrap();
        let bd = host.checkpoint(gid, false, None).unwrap();
        // A failed read's retries back off on the issuer's clock, and a
        // heal from the twin rewrites the bad copy in place (the device
        // layers' policies); every other step leaves the clock alone.
        let waited = match damage {
            Damage::Unreadable => c == 0,
            Damage::RottenMirror => true,
            _ => false,
        };
        assert!(
            (waited || host.clock.now() < bd.durable_at) && bd.durable_at < bd.scrub_ready_at,
            "{damage:?} cycle {c}: the step reads after the commit and the caller does not \
             wait for it: now {}, durable {}, ready {}",
            host.clock.now(),
            bd.durable_at,
            bd.scrub_ready_at
        );
        spans.push(bd.scrub_ready_at.since(bd.durable_at));
        host.clock.advance_to(bd.scrub_ready_at);
        let group = host.sls.group_ref(gid).unwrap();
        let found = group.backends[0]
            .scrub_findings
            .iter()
            .flat_map(|f| &f.damaged)
            .map(ToString::to_string)
            .collect();
        cycles.push(Cycle {
            outcome: bd.outcome,
            full: bd.full,
            found,
            rewritten: bd.rewritten,
            rewrite: group.rewrite.clone(),
        });
    }
    let store = store.borrow();
    let observed = Observed {
        cycles,
        bytes_read: store.device().stats().bytes_read - read_before,
        read_repairs: store.stats.read_repairs.get() - repairs_before,
    };
    (observed, spans)
}

/// What each case must decide, whatever the worker count.
fn check_verdict(damage: Damage, o: &Observed) {
    for (c, cycle) in o.cycles.iter().enumerate() {
        assert_eq!(cycle.outcome, CheckpointOutcome::Committed, "cycle {c}");
        assert!(!cycle.full, "no damage makes a cycle full: cycle {c}");
        assert!(
            cycle.rewrite.is_empty(),
            "memory heals every page: cycle {c}"
        );
    }
    let found: Vec<(usize, &String)> = o
        .cycles
        .iter()
        .enumerate()
        .flat_map(|(c, cycle)| cycle.found.iter().map(move |f| (c, f)))
        .collect();
    let rewritten: Vec<u64> = o.cycles.iter().map(|c| c.rewritten).collect();
    match damage {
        Damage::None | Damage::RottenMirror => {
            assert!(found.is_empty(), "{found:?}");
            assert_eq!(rewritten, vec![0; CYCLES]);
        }
        Damage::Rot(spot) => {
            // The second and third batches are the first two cycles'.
            let at = if matches!(spot, Spot::InsideExtent) {
                1
            } else {
                0
            };
            assert_eq!(found.len(), 1, "{found:?}");
            assert_eq!(found[0].0, at, "{spot:?} is found by cycle {at}'s step");
            assert!(found[0].1.contains("content hash mismatch"), "{found:?}");
            let mut want = vec![0; CYCLES];
            want[at + 1] = 1;
            assert_eq!(rewritten, want, "the next cycle rewrites the page");
        }
        Damage::Unreadable => {
            assert_eq!(found.len(), 1, "{found:?}");
            assert_eq!(found[0].0, 0);
            assert!(found[0].1.contains("unreadable"), "{found:?}");
            assert_eq!(rewritten, vec![0, 1, 0, 0]);
        }
    }
    if let Damage::None = damage {
        assert_eq!(
            o.bytes_read,
            (PAGES + RESTORE_BATCH_BLOCKS as u64) * 4096,
            "the steps read every block of the head once, then wrap to the first batch"
        );
    }
    if let Damage::RottenMirror = damage {
        assert!(
            o.read_repairs >= PAGES - RESTORE_BATCH_BLOCKS as u64,
            "every rotten block the steps read is healed: {}",
            o.read_repairs
        );
    }
}

#[test]
fn scrub_step_verdicts_do_not_depend_on_the_worker_count() {
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
            let (observed, spans) = run(damage, workers);
            assert_eq!(observed, reference, "{damage:?} at {workers} workers");
            for (c, (span, before)) in spans.iter().zip(&took).enumerate() {
                assert!(
                    span <= before,
                    "{damage:?} cycle {c}: {workers} workers take {span} after the commit, \
                     more than {before}"
                );
            }
            took = spans;
        }
    }
}
