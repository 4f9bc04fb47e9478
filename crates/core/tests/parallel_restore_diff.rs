//! Differential test for the restore page-in pipeline.
//!
//! Every eager page-in — any worker count, any plan size — runs the one
//! streamed pipeline (read plan, extent-coalesced reads, hash stage).
//! For random workloads, restoring a checkpoint at 1, 2 and 8 workers
//! must agree on *everything*: the memory image, `pages_prefetched` and
//! the store's whole `StoreStats`, in every restore mode. The reference
//! image is the lazy one, built fault by fault through the store's
//! per-page read path, which shares no planning, batching or wiring
//! code with the pipeline: once all pages are touched, eager and
//! lazy-prefetch restores must hold exactly its bytes. Worker count,
//! extent batching and the read cache are pure performance knobs — any
//! divergence here is a correctness bug.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use aurora_core::restore::RestoreMode;
use aurora_core::Host;
use aurora_hw::ModelDev;
use aurora_objstore::{StoreConfig, StoreStats};
use aurora_sim::hash::{page_hash, Fnv64};
use aurora_sim::SimClock;
use proptest::prelude::*;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages in the workload's mapped region: enough that the hash stage
/// really shards an eager restore over its workers.
const REGION_PAGES: u64 = 96;

/// One workload entry: (page index, content seed). Low seed cardinality
/// on purpose so identical pages (and dedup-shared blocks) are common.
type Write = (u64, u64);

fn write_strategy() -> impl Strategy<Value = Write> {
    (0u64..REGION_PAGES, 0u64..8)
}

/// What one restore left behind: (restored memory digest,
/// pages_prefetched, the rebooted store's counters right after the
/// restore, before the digest's faults add theirs).
type Restored = (u64, u64, StoreStats);

/// Builds the deterministic world — the base pattern on the region's
/// first `based` pages, then `writes` — checkpoints it, crashes the
/// machine, and restores with `mode` at `workers`.
///
/// Every variant rebuilds the world from scratch: the workload is
/// deterministic, so the checkpoint images are identical and the
/// restored memory may be compared across variants byte for byte.
fn run_variant(based: u64, writes: &[Write], mode: RestoreMode, workers: usize) -> Restored {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot(
        "diff",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let pid = host.kernel.spawn("workload");
    let addr = host
        .kernel
        .mmap_anon(pid, REGION_PAGES * 4096, false)
        .unwrap();
    // Deterministic base pattern, then the random writes.
    for i in 0..based {
        let base = [(i % 251) as u8; 32];
        host.kernel.mem_write(pid, addr + i * 4096, &base).unwrap();
    }
    for &(idx, seed) in writes {
        let marker = [0xB0 + (seed as u8), (idx % 250) as u8, 0x5E, seed as u8];
        host.kernel
            .mem_write(pid, addr + idx * 4096 + 64 + seed * 8, &marker)
            .unwrap();
    }
    let gid = host.persist("workload", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("snap")).unwrap();
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.unwrap();

    // The machine dies: the frame index, pagers and processes are gone,
    // so every variant starts from the same cold store.
    let mut host = host.crash_and_reboot().unwrap();
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, mode).unwrap();
    let stats = store.borrow().stats.clone();
    let new_pid = r.restored_pid(pid.0).unwrap();

    (memory_digest(&mut host, new_pid, addr, REGION_PAGES), r.pages_prefetched, stats)
}

/// Restores with `mode` at 1, 2 and 8 workers and returns what they
/// agreed on.
fn agreed(mode: RestoreMode, run: impl Fn(RestoreMode, usize) -> Restored) -> Restored {
    let one = run(mode, 1);
    for workers in [2usize, 8] {
        assert_eq!(
            format!("{:?}", run(mode, workers)),
            format!("{one:?}"),
            "{workers} workers vs 1 in {mode:?}: (digest, pages_prefetched, StoreStats)"
        );
    }
    one
}

/// Touches every page of the region (lazy modes fault the remainder in)
/// and returns a digest of its pages.
fn memory_digest(host: &mut Host, pid: aurora_posix::Pid, addr: u64, pages: u64) -> u64 {
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 4096];
    for i in 0..pages {
        host.kernel.mem_read(pid, addr + i * 4096, &mut buf).unwrap();
        h.update_u64(page_hash(&buf));
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pipeline at 1, 2 and 8 workers agrees exactly (digest,
    /// prefetch count, store counters) in every mode, and every mode
    /// converges on the bytes the lazy path faulted in one by one.
    #[test]
    fn parallel_restore_matches_serial(
        writes in proptest::collection::vec(write_strategy(), 1..80)
    ) {
        let run = |mode, workers| run_variant(REGION_PAGES, &writes, mode, workers);
        let (lazy, faulted_eagerly, _) = agreed(RestoreMode::Lazy, run);
        prop_assert_eq!(faulted_eagerly, 0, "the reference pages nothing in up front");
        let (eager, ..) = agreed(RestoreMode::Eager, run);
        prop_assert_eq!(eager, lazy, "eager vs the fault-by-fault image");
        // The recorded hot set is at most 32 pages an object: a plan far
        // below a hash shard, streamed like any other.
        let (prefetch, hot, _) = agreed(RestoreMode::LazyPrefetch, run);
        prop_assert!((1..64).contains(&hot), "hot set of {} pages", hot);
        prop_assert_eq!(prefetch, lazy, "lazy-prefetch vs the fault-by-fault image");
    }
}

/// Plans of 1 and 63 targets — a single page, and one short of what the
/// hash stage shards — go through the same pipeline at any worker
/// count: extents are planned, the counters agree, and the image is the
/// lazy path's.
#[test]
fn tiny_plans_take_the_pipeline_too() {
    for pages in [1u64, 63] {
        let run = |mode, workers| run_variant(pages, &[], mode, workers);
        let (lazy, ..) = agreed(RestoreMode::Lazy, run);
        let (eager, prefetched, stats) = agreed(RestoreMode::Eager, run);
        assert_eq!(prefetched, pages, "one target per written page");
        assert_eq!(eager, lazy, "{pages}-page plan vs the fault-by-fault image");
        assert_eq!(stats.read_blocks_coalesced, pages, "the planner read the whole plan");
    }
}

/// Pages in the streamed-restore image's region: after holes and dedup
/// twins it still holds 2½ batches of unique blocks.
const WIDE_PAGES: u64 = 1200;

/// How page `i` of the wide image is written: every fifth page is a
/// hole, every third of the rest one of 8 shared bodies.
fn wide_body(i: u64) -> Option<[u8; 4096]> {
    if i % 5 == 4 {
        return None;
    }
    let mut page = [0u8; 4096];
    if i % 3 == 0 {
        page.fill(0xD0 + (i % 8) as u8);
    } else {
        page.fill(0x11);
        page[..8].copy_from_slice(&i.to_le_bytes());
    }
    Some(page)
}

/// Builds the wide image — a full checkpoint, then two incremental
/// rounds of 16-byte pokes that leave delta chains of length 1 and 2 —
/// reboots, and restores the last checkpoint with `mode` at `workers`.
fn run_wide(mode: RestoreMode, workers: usize) -> Restored {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot(
        "wide",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let pid = host.kernel.spawn("workload");
    let addr = host.kernel.mmap_anon(pid, WIDE_PAGES * 4096, false).unwrap();
    for i in 0..WIDE_PAGES {
        if let Some(page) = wide_body(i) {
            host.kernel.mem_write(pid, addr + i * 4096, &page).unwrap();
        }
    }
    let gid = host.persist("workload", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    let mut ckpt = bd.ckpt.unwrap();
    for (round, step) in [(1u8, 7usize), (2, 14)] {
        for i in (0..WIDE_PAGES).step_by(step).filter(|&i| wide_body(i).is_some()) {
            host.kernel
                .mem_write(pid, addr + i * 4096 + 128 * round as u64, &[round; 16])
                .unwrap();
        }
        let bd = host.checkpoint(gid, false, None).unwrap();
        assert!(bd.pages_hashed < bd.pages, "pokes are delta records");
        host.clock.advance_to(bd.durable_at);
        ckpt = bd.ckpt.unwrap();
    }

    let mut host = host.crash_and_reboot().unwrap();
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, mode).unwrap();
    let stats = store.borrow().stats.clone();
    if mode == RestoreMode::Eager {
        let batch = aurora_core::restore::RESTORE_BATCH_BLOCKS as u64;
        assert!(r.pages_hashed >= 2 * batch + batch / 4, "{} blocks", r.pages_hashed);
    }
    let new_pid = r.restored_pid(pid.0).unwrap();
    let digest = memory_digest(&mut host, new_pid, addr, WIDE_PAGES);
    (digest, r.pages_prefetched, stats)
}

/// The streamed page-in over several batches — dedup twins fanned out
/// across batches, holes, delta chains replayed over batched bases —
/// installs the image the lazy path faults in page by page, in every
/// mode, and reads the same extents at any worker count.
#[test]
fn streamed_restore_matches_serial_loop() {
    let (lazy, ..) = agreed(RestoreMode::Lazy, run_wide);
    for mode in [RestoreMode::Eager, RestoreMode::LazyPrefetch] {
        let (digest, ..) = agreed(mode, run_wide);
        assert_eq!(digest, lazy, "{mode:?} vs the fault-by-fault image");
    }
}

/// Pages of the holey image.
const HOLEY_PAGES: u64 = 600;

/// Body of page `i` of the holey image as of `round`: distinct per page
/// and per round, so nothing dedups and every overwrite takes a fresh
/// block.
fn holey_body(i: u64, round: u8) -> [u8; 4096] {
    let mut page = [round; 4096];
    page[..8].copy_from_slice(&i.to_le_bytes());
    page
}

/// Builds an image whose blocks are scattered on purpose — a full
/// checkpoint, then two rounds that rewrite a strided subset of the
/// pages whole while the history window of 1 collects the checkpoint
/// before, so the survivors sit between freed blocks and the rewrites
/// land wherever the allocator found room — reboots, and restores the
/// last checkpoint with `mode` at `workers`. Returns what the restore
/// left behind and how many holes cut the eager plan's blocks.
fn run_holey(mode: RestoreMode, workers: usize) -> (Restored, usize) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot(
        "holey",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let pid = host.kernel.spawn("workload");
    let addr = host.kernel.mmap_anon(pid, HOLEY_PAGES * 4096, false).unwrap();
    for i in 0..HOLEY_PAGES {
        host.kernel.mem_write(pid, addr + i * 4096, &holey_body(i, 1)).unwrap();
    }
    let gid = host.persist("workload", pid).unwrap();
    host.sls.group_mut(gid).unwrap().history_window = 1;
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    let mut ckpt = bd.ckpt.unwrap();
    for (round, stride, phase) in [(2u8, 4u64, 1u64), (3, 6, 0)] {
        for i in (0..HOLEY_PAGES).filter(|i| i % stride == phase) {
            host.kernel
                .mem_write(pid, addr + i * 4096, &holey_body(i, round))
                .unwrap();
        }
        let bd = host.checkpoint(gid, false, None).unwrap();
        assert_eq!(bd.pages_hashed, bd.pages, "whole-page rewrites are full images");
        host.clock.advance_to(bd.durable_at);
        ckpt = bd.ckpt.unwrap();
    }
    assert_eq!(host.sls.primary.borrow().checkpoints().len(), 1, "history collected");

    let mut host = host.crash_and_reboot().unwrap();
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();
    let holes = {
        let st = store.borrow();
        let targets: Vec<_> = st
            .live_object_ids()
            .into_iter()
            .flat_map(|oid| {
                st.object_refs_at(ckpt, oid)
                    .into_iter()
                    .map(move |(idx, _)| (oid, idx))
            })
            .collect();
        let plan = st.plan_reads_at(ckpt, &targets);
        plan.blocks.windows(2).filter(|w| w[1] - w[0] > 1).count()
    };
    let r = host.restore(&store, ckpt, mode).unwrap();
    let stats = store.borrow().stats.clone();
    let new_pid = r.restored_pid(pid.0).unwrap();
    let digest = memory_digest(&mut host, new_pid, addr, HOLEY_PAGES);
    ((digest, r.pages_prefetched, stats), holes)
}

/// On a layout full of holes, the restored image is the one the lazy
/// path faults in block by block, and the pipeline leaves the store's
/// counters — extents, planned blocks, cache traffic — the same at 1, 2
/// and 8 workers.
#[test]
fn holey_layout_restores_identically_at_any_worker_count() {
    let (_, holes) = run_holey(RestoreMode::Eager, 1);
    assert!(holes > 0, "the layout must scatter the image");
    let (digest, _, stats) = agreed(RestoreMode::Eager, |mode, w| run_holey(mode, w).0);
    let ((lazy, ..), _) = run_holey(RestoreMode::Lazy, 1);
    assert_eq!(digest, lazy, "eager vs the fault-by-fault image");
    assert!(
        stats.read_blocks_coalesced >= HOLEY_PAGES
            && stats.read_extents_coalesced * 2 < stats.read_blocks_coalesced,
        "{} extents for {} planned blocks",
        stats.read_extents_coalesced,
        stats.read_blocks_coalesced
    );
}

/// The batched path actually engages: an eager 4-worker restore of a
/// REGION_PAGES image reports coalesced extent reads and a populated
/// read cache, and a sibling restore wires straight from the shared
/// frame index without device reads.
#[test]
fn batched_restore_reports_extents_and_shares_frames() {
    let writes: Vec<Write> = (0..REGION_PAGES).map(|i| (i, i % 5)).collect();
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot(
        "batched",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let pid = host.kernel.spawn("workload");
    let addr = host
        .kernel
        .mmap_anon(pid, REGION_PAGES * 4096, false)
        .unwrap();
    for &(idx, seed) in &writes {
        host.kernel
            .mem_write(pid, addr + idx * 4096, &[seed as u8 + 1; 16])
            .unwrap();
    }
    let gid = host.persist("workload", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.unwrap();
    let mut host = host.crash_and_reboot().unwrap();
    host.sls.restore_workers = 4;
    let store = host.sls.primary.clone();

    let first = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    assert_eq!(first.restore_workers, 4);
    assert!(first.pages_prefetched >= REGION_PAGES);
    assert!(first.extents_read > 0, "device reads must be extent-coalesced");
    assert!(
        first.cache_misses > first.extents_read,
        "extents carry multiple blocks: {} misses over {} extents",
        first.cache_misses,
        first.extents_read
    );

    // A sibling instance restored from the same image shares frames
    // through the frame index: no further device reads at all.
    let second = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    assert!(second.pages_prefetched >= REGION_PAGES);
    assert_eq!(second.extents_read, 0, "sibling restore must not touch the device");
    assert_eq!(second.cache_misses, 0);
}

/// The read-cache capacity knob is part of the store's runtime config:
/// a capacity set before a crash governs the rebooted store too, and
/// residency stays bounded by it across warm restores.
#[test]
fn read_cache_capacity_knob_survives_reboot() {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let host = Host::boot(
        "knob",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    host.sls.primary.borrow_mut().set_read_cache_capacity(17);
    let host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.borrow();
    assert_eq!(store.read_cache_capacity(), 17);
    assert!(store.read_cache_len() <= 17);
}
