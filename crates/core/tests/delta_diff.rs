//! Differential test for the delta-checkpoint path.
//!
//! For random mixed workloads — sub-page pokes that qualify for delta
//! records interleaved with wide writes that force full images — a host
//! whose store runs the delta path (default policy) and a host with the
//! path disabled (`delta_max_bytes: 0`, every flush writes full 4 KiB
//! images) must converge on byte-identical restored memory for every
//! checkpoint, including after a crash and journal replay. The delta
//! log is a pure flush-bandwidth optimization — any divergence here is
//! a correctness bug in record staging, chain replay, or recovery.
//!
//! The second half pins the flush's partition-before-hash order: a
//! group flushing to two backends whose delta policies differ must
//! leave each backend exactly as a host that flushes to that backend
//! alone does, while hashing each page at most once.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use aurora_core::restore::RestoreMode;
use aurora_core::{BackendKind, CheckpointBreakdown, Host};
use aurora_hw::ModelDev;
use aurora_objstore::{ObjectStore, StoreConfig};
use aurora_sim::hash::{page_hash, Fnv64};
use aurora_sim::{cost, PageData, SimClock};
use aurora_slsfs::StoreHandle;
use proptest::prelude::*;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages in the workload's mapped region.
const REGION_PAGES: u64 = 8;

/// Writes applied between consecutive checkpoints.
const WRITES_PER_ROUND: usize = 6;

/// One workload entry: (page index, byte offset, length, fill byte).
/// Lengths span the sub-page delta budget and beyond it, so each round
/// mixes delta records with full-image writes; offsets and lengths are
/// clamped to the page at apply time.
type Poke = (u64, u32, u32, u8);

fn poke_strategy() -> impl Strategy<Value = Poke> {
    (0u64..REGION_PAGES, 0u32..4096, 1u32..2048, any::<u8>())
}

fn boot(delta_on: bool) -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot(
        "diff",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            materialize_data: true,
            delta_max_bytes: if delta_on {
                StoreConfig::default().delta_max_bytes
            } else {
                0
            },
            ..StoreConfig::default()
        },
    )
    .unwrap();
    host.sls.flush_workers = 4;
    host
}

/// Applies the workload round by round with a checkpoint after each,
/// crashes the machine so recovery replays the journal (and, on the
/// delta side, the delta log), then restores every surviving workload
/// checkpoint and digests its full memory region. Returns the digests
/// keyed by checkpoint name, plus the count of delta records staged.
fn run_variant(pokes: &[Poke], delta_on: bool) -> (BTreeMap<String, u64>, u64) {
    let mut host = boot(delta_on);
    let pid = host.kernel.spawn("workload");
    let addr = host
        .kernel
        .mmap_anon(pid, REGION_PAGES * 4096, false)
        .unwrap();
    let gid = host.persist("workload", pid).unwrap();

    for (round, batch) in pokes.chunks(WRITES_PER_ROUND).enumerate() {
        for &(p, off, len, fill) in batch {
            let off = off.min(4095) as u64;
            let len = (len as u64).clamp(1, 4096 - off);
            let body = vec![fill; len as usize];
            host.kernel
                .mem_write(pid, addr + p * 4096 + off, &body)
                .unwrap();
        }
        let name = format!("r{round}");
        let bd = host.checkpoint(gid, round == 0, Some(&name)).unwrap();
        host.clock.advance_to(bd.durable_at);
    }

    let staged = host.sls.primary.borrow().stats.delta_records;
    let mut host = host.crash_and_reboot().unwrap();

    let named: Vec<(aurora_objstore::CkptId, String)> = host
        .sls
        .primary
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .collect();
    let mut digests = BTreeMap::new();
    for (id, name) in named {
        if !name.starts_with('r') {
            continue;
        }
        let store = host.sls.primary.clone();
        let r = host.restore(&store, id, RestoreMode::Eager).unwrap();
        let np = r.root_pid().unwrap();
        let mut buf = vec![0u8; (REGION_PAGES * 4096) as usize];
        host.kernel.mem_read(np, addr, &mut buf).unwrap();
        let _ = host.kernel.exit(np, 0);
        host.kernel.procs.remove(&np);

        digests.insert(name, page_hash(&buf));
    }
    (digests, staged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The delta-path store and the full-image store restore every
    /// checkpoint of a random mixed workload to identical memory.
    #[test]
    fn delta_path_matches_full_images(
        pokes in proptest::collection::vec(poke_strategy(), 1..48)
    ) {
        let (with_deltas, _) = run_variant(&pokes, true);
        let (full_images, staged_off) = run_variant(&pokes, false);
        prop_assert_eq!(staged_off, 0, "disabled path must stage nothing");
        prop_assert_eq!(with_deltas, full_images);
    }
}

/// Deterministic anchor: a workload of pure sub-page pokes really does
/// drive the delta path (the proptest can't assert engagement per case,
/// since a random batch may exceed the delta budget on every page).
#[test]
fn sub_page_workload_engages_the_delta_path() {
    let pokes: Vec<Poke> = (0..24)
        .map(|i| ((i % REGION_PAGES), 64 * (i as u32 % 8), 48, i as u8))
        .collect();
    let (with_deltas, staged) = run_variant(&pokes, true);
    let (full_images, _) = run_variant(&pokes, false);
    assert!(staged > 0, "sub-page pokes must stage delta records");
    assert_eq!(with_deltas, full_images);
}

// --- Partition differential: two backends, two delta policies. -----------

/// Device size of the partition differential (small: images are
/// digested block by block).
const PART_DEV_BLOCKS: u64 = 4096;

/// Pages of the first mapping: past `aurora_vm::PARALLEL_THRESHOLD`, so the
/// 2- and 8-worker runs shard the hash stage.
const ARENA_PAGES: u64 = 96;

/// Pages of the mapping created mid-run (a fresh store object).
const LATE_PAGES: u64 = 8;

fn part_config(delta_on: bool) -> StoreConfig {
    StoreConfig {
        journal_blocks: 1024,
        materialize_data: true,
        delta_max_bytes: if delta_on {
            StoreConfig::default().delta_max_bytes
        } else {
            0
        },
        // Short chains: three rounds of pokes reach the cap.
        delta_max_chain: 2,
        ..StoreConfig::default()
    }
}

/// What one backend looks like after the run.
#[derive(Debug, PartialEq, Eq)]
struct BackendState {
    device_digest: u64,
    /// `pages_written`, `dedup_hits`, `delta_records`, `delta_bytes`,
    /// `extents_coalesced`.
    stats: [u64; 5],
    /// Post-crash restore digest of every named checkpoint.
    restores: BTreeMap<String, u64>,
}

fn state_of(
    host: &mut Host,
    store: &StoreHandle,
    stats: [u64; 5],
    regions: &[(u64, u64)],
) -> BackendState {
    let named: Vec<(aurora_objstore::CkptId, String)> = store
        .borrow()
        .checkpoints()
        .iter()
        .filter_map(|c| c.name.clone().map(|n| (c.id, n)))
        .filter(|(_, n)| n.starts_with('p'))
        .collect();
    let mut restores = BTreeMap::new();
    for (id, name) in named {
        let r = host.restore(store, id, RestoreMode::Eager).unwrap();
        let np = r.root_pid().unwrap();
        let mut h = Fnv64::new();
        for &(addr, pages) in regions {
            let mut buf = vec![0u8; (pages * 4096) as usize];
            // The late mapping does not exist in early checkpoints.
            if host.kernel.mem_read(np, addr, &mut buf).is_ok() {
                h.update_u64(page_hash(&buf));
            }
        }
        let _ = host.kernel.exit(np, 0);
        host.kernel.procs.remove(&np);
        restores.insert(name, h.finish());
    }
    let mut device_digest = Fnv64::new();
    let mut buf = PageData::Zero;
    let mut store = store.borrow_mut();
    for lba in 0..PART_DEV_BLOCKS {
        if store.device_mut().read_blocks(lba, std::slice::from_mut(&mut buf)).is_ok() {
            device_digest.update_u64(buf.content_hash());
        }
    }
    BackendState {
        device_digest: device_digest.finish(),
        stats,
        restores,
    }
}

fn stats_of(store: &StoreHandle) -> [u64; 5] {
    let s = &store.borrow().stats;
    [
        s.pages_written,
        s.dedup_hits,
        s.delta_records,
        s.delta_bytes,
        s.extents_coalesced,
    ]
}

/// Runs the mixed workload on a group whose backends run the delta path
/// (`true`) or store full images only (`false`), one entry per backend,
/// primary first. Returns each backend's final state and the breakdown
/// of every checkpoint.
fn run_partitioned(
    workers: usize,
    backends: &[bool],
) -> (Vec<BackendState>, Vec<CheckpointBreakdown>) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", PART_DEV_BLOCKS));
    let (&primary, attached) = backends.split_first().unwrap();
    let mut host = Host::boot("part", dev, part_config(primary)).unwrap();
    host.sls.flush_workers = workers;
    let pid = host.kernel.spawn("workload");
    let arena = host
        .kernel
        .mmap_anon(pid, ARENA_PAGES * 4096, false)
        .unwrap();
    let gid = host.persist("workload", pid).unwrap();
    let mut extra: Vec<StoreHandle> = Vec::new();
    for (i, &delta_on) in attached.iter().enumerate() {
        let dev = Box::new(ModelDev::nvme(
            host.clock.clone(),
            &format!("nvme{}", i + 1),
            PART_DEV_BLOCKS,
        ));
        let store: StoreHandle = Rc::new(RefCell::new(
            ObjectStore::format(dev, part_config(delta_on)).unwrap(),
        ));
        host.attach_backend(gid, BackendKind::Memory, store.clone())
            .unwrap();
        extra.push(store);
    }

    let mut bds = Vec::new();
    let mut checkpoint = |host: &mut Host, full: bool| {
        let name = format!("p{}", bds.len());
        let bd = host.checkpoint(gid, full, Some(&name)).unwrap();
        host.clock.advance_to(bd.durable_at);
        bds.push(bd);
    };
    let rewrite = |host: &mut Host, addr: u64, page: u64, fill: u8| {
        host.kernel
            .mem_write(pid, addr + page * 4096, &[fill; 4096])
            .unwrap();
    };
    let poke = |host: &mut Host, addr: u64, page: u64, fill: u8| {
        host.kernel
            .mem_write(pid, addr + page * 4096 + 128, &[fill; 48])
            .unwrap();
    };

    // p0, full: every page an image; one body in twelve repeats.
    for page in 0..ARENA_PAGES {
        rewrite(&mut host, arena, page, 1 + (page % 12) as u8);
    }
    checkpoint(&mut host, true);
    // p1..p3, incremental: pages 0..40 take small pokes (a delta record
    // where the policy allows, until the chain reaches its cap), pages
    // 40..80 are rewritten whole (an image everywhere), the rest rest.
    let mut late = 0;
    for round in 1..=3u8 {
        for page in 0..40 {
            poke(&mut host, arena, page, 0x40 + round);
        }
        for page in 40..80 {
            rewrite(&mut host, arena, page, 0x80 + round + (page % 7) as u8);
        }
        if round == 2 {
            // A fresh object: no base image yet, so images everywhere.
            late = host
                .kernel
                .mmap_anon(pid, LATE_PAGES * 4096, false)
                .unwrap();
            for page in 0..LATE_PAGES {
                poke(&mut host, late, page, 0x20 + page as u8);
            }
        }
        if round == 3 {
            for page in 0..LATE_PAGES {
                poke(&mut host, late, page, 0x30);
            }
        }
        checkpoint(&mut host, false);
    }
    // p4, full: truncates every chain.
    for page in 0..10 {
        poke(&mut host, arena, page, 0x55);
    }
    checkpoint(&mut host, true);
    // p5, incremental on the fresh bases.
    for page in 5..25 {
        poke(&mut host, arena, page, 0x66);
    }
    rewrite(&mut host, arena, 90, 0x77);
    checkpoint(&mut host, false);

    let regions = [(arena, ARENA_PAGES), (late, LATE_PAGES)];
    let mut stats = vec![stats_of(&host.sls.primary)];
    stats.extend(extra.iter().map(stats_of));
    let mut host = host.crash_and_reboot().unwrap();
    let mut stores = vec![host.sls.primary.clone()];
    for store in extra {
        // The crash dropped the group: this handle is the last one.
        let store = Rc::try_unwrap(store).ok().unwrap().into_inner();
        stores.push(Rc::new(RefCell::new(store.recover().unwrap())));
    }
    let states = stores
        .iter()
        .zip(stats)
        .map(|(store, stats)| state_of(&mut host, store, stats, &regions))
        .collect();
    (states, bds)
}

/// A group flushing to a delta backend and a full-image backend leaves
/// each exactly as a group without the other policy does — the delta
/// primary as a host that flushes to it alone (and hashes only what it
/// stores as images), the full-image secondary as the secondary of an
/// all-image group (the reference that hashes every page) — at any
/// worker count, and never hashes a page twice.
#[test]
fn partitioned_flush_matches_single_policy_references() {
    let (delta_only, delta_bds) = run_partitioned(1, &[true]);
    let (image_only, image_bds) = run_partitioned(1, &[false, false]);
    let [delta_ref] = &delta_only[..] else {
        panic!("one backend")
    };
    let [_, image_ref] = &image_only[..] else {
        panic!("two backends")
    };
    assert_eq!(delta_ref.restores, image_ref.restores);
    assert_eq!(delta_ref.restores.len(), 6);
    assert!(delta_ref.stats[2] > 0, "the delta reference staged records");
    assert_eq!(image_ref.stats[2], 0);

    // The all-image reference hashes every page; the delta reference
    // skips exactly the pages it staged as records.
    for bd in &image_bds {
        assert_eq!(bd.pages, bd.pages_hashed);
    }
    for (bd, image_bd) in delta_bds.iter().zip(&image_bds).skip(1).take(3) {
        assert!(bd.pages_hashed < image_bd.pages_hashed);
    }

    for workers in [1usize, 2, 8] {
        let (both, bds) = run_partitioned(workers, &[true, false]);
        let [on_delta, on_image] = &both[..] else {
            panic!("two backends")
        };
        assert_eq!(on_delta, delta_ref, "delta backend at {workers} workers");
        assert_eq!(on_image, image_ref, "image backend at {workers} workers");
        for (bd, image_bd) in bds.iter().zip(&image_bds) {
            assert_eq!(
                bd.hash_stage,
                cost::hash_stage(bd.pages_hashed, workers as u64)
            );
            // Every page is an image on the second backend, so each is
            // hashed exactly once — also the pages that are a delta
            // record on the first.
            assert_eq!(
                (bd.pages, bd.pages_hashed),
                (image_bd.pages, image_bd.pages)
            );
        }
    }
}
