//! Differential test for the parallel flush pipeline.
//!
//! For random workloads, the coalesced parallel path (`hash_plan` at
//! 1/2/8 workers feeding `write_pages_coalesced`) must leave the store
//! in *exactly* the state the serial `write_page` loop does: the same
//! bytes on the device, the same dedup hit count, the same number of
//! live blocks. Worker count and extent batching are pure performance
//! knobs — any divergence here is a correctness bug. A fixed case wider
//! than two flush batches holds `Host::checkpoint`'s streamed loop to
//! the same reference.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::{BTreeMap, BTreeSet};

use aurora_core::{flush, Host};
use aurora_hw::ModelDev;
use aurora_objstore::{ObjId, ObjectStore, StoreConfig};
use aurora_sim::hash::Fnv64;
use aurora_sim::SimClock;
use aurora_vm::PageData;
use proptest::prelude::*;

/// Device size in blocks (small: images are digested block by block).
const DEV_BLOCKS: u64 = 4096;

/// Objects the workload spreads writes across.
const OBJECTS: u64 = 3;

fn new_store() -> ObjectStore {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 256,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    for obj in 0..OBJECTS {
        s.create_object(ObjId(obj), 64).unwrap();
    }
    s.commit(None).unwrap();
    s
}

/// Digest of the device image the store can reach: every block below
/// the data region from `from` on, then each referenced data block with
/// its index. Unreferenced data blocks are left out on purpose: the
/// serial loop writes a block that a later write in the same batch
/// frees, while the coalesced path never writes it, and the allocator's
/// frontier leaves such a block unoverwritten until it wraps.
fn device_digest(store: &mut ObjectStore, from: u64) -> u64 {
    let data_start = store.data_start();
    let referenced: BTreeSet<u64> = store
        .checkpoints()
        .iter()
        .flat_map(|c| c.pages.values().map(|p| data_start + p.0))
        .collect();
    let mut h = Fnv64::new();
    let mut buf = PageData::Zero;
    let dev = store.device_mut();
    for lba in (from..data_start).chain(referenced) {
        if dev.read_blocks(lba, std::slice::from_mut(&mut buf)).is_err() {
            continue;
        }
        h.update_u64(lba);
        h.update_u64(buf.content_hash());
    }
    h.finish()
}

/// One workload entry: (object, page index, content seed). Low seed
/// cardinality on purpose so dedup hits are common.
type Write = (u64, u64, u64);

fn write_strategy() -> impl Strategy<Value = Write> {
    (0u64..OBJECTS, 0u64..64, 0u64..12)
}

/// Applies the workload in checkpoint-sized batches and returns
/// (device digest, dedup_hits, blocks_in_use).
fn run_variant(writes: &[Write], workers: Option<usize>) -> (u64, u64, u64) {
    let mut store = new_store();
    for batch in writes.chunks(24) {
        match workers {
            // Serial reference: the pre-pipeline write_page loop.
            None => {
                for &(obj, idx, seed) in batch {
                    store
                        .write_page(ObjId(obj), idx, &PageData::Seeded(seed))
                        .unwrap();
                }
            }
            // Parallel pipeline: hash stage + coalesced apply.
            Some(w) => {
                let plan: Vec<flush::PlanPage> = batch
                    .iter()
                    .map(|&(obj, idx, seed)| (ObjId(obj), idx, PageData::Seeded(seed)))
                    .collect();
                let hashed = flush::hash_plan(plan, w);
                store.write_pages_coalesced(&hashed).unwrap();
            }
        }
        store.commit(None).unwrap();
    }
    let dedup_hits = store.stats.dedup_hits;
    let blocks = store.blocks_in_use();
    (device_digest(&mut store, 0), dedup_hits, blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial write_page, and the coalesced pipeline at 1, 2 and 8
    /// workers, all converge on byte-identical device images with
    /// identical dedup and allocation counters.
    #[test]
    fn parallel_flush_matches_serial(
        writes in proptest::collection::vec(write_strategy(), 1..120)
    ) {
        let reference = run_variant(&writes, None);
        let mut results = BTreeMap::new();
        for workers in [1usize, 2, 8] {
            results.insert(workers, run_variant(&writes, Some(workers)));
        }
        for (workers, got) in results {
            prop_assert_eq!(
                got, reference,
                "divergence at {} workers: (digest, dedup_hits, blocks_in_use)",
                workers
            );
        }
    }
}

/// Pages of the host-level case: two full flush batches and a partial
/// third.
const HOST_PAGES: u64 = 2 * flush::FLUSH_BATCH_PAGES as u64 + 64;

/// Contents of page `p`: every third page repeats one of eight bodies
/// (dedup hits, some across a batch boundary), the rest are distinct.
fn host_page(p: u64) -> [u8; 4096] {
    let mut page = [0xA5u8; 4096];
    let tag = if p.is_multiple_of(3) { p % 8 } else { 1000 + p };
    page[..8].copy_from_slice(&tag.to_le_bytes());
    page
}

fn boot_host() -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    Host::boot(
        "diff",
        dev,
        StoreConfig {
            journal_blocks: 256,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

/// (data-region digest, pages_written, dedup_hits, blocks_in_use) of
/// the host's primary store. The journal carries the checkpoint's
/// metadata blobs, which the `write_page` reference does not write, so
/// only the data region is digested.
fn data_state(host: &Host) -> (u64, u64, u64, u64) {
    let mut store = host.sls.primary.borrow_mut();
    let (written, hits) = (store.stats.pages_written, store.stats.dedup_hits);
    let blocks = store.blocks_in_use();
    let data_start = store.data_start();
    (device_digest(&mut store, data_start), written, hits, blocks)
}

/// The host-level flush loop — resolve, partition, then hash and write
/// batch by batch — leaves the store's data exactly as the pre-pipeline
/// `write_page` loop over the same pages does: same blocks, same bytes,
/// same dedup decisions, for any worker count, with the coalescer
/// really batching.
#[test]
fn streamed_host_flush_matches_write_page_loop() {
    // Reference: the same boot-time store, each page written one at a
    // time in plan order (ascending page index).
    let reference = {
        let host = boot_host();
        {
            let mut store = host.sls.primary.borrow_mut();
            let oid = ObjId(1 << 40);
            store.create_object(oid, HOST_PAGES).unwrap();
            for p in 0..HOST_PAGES {
                store
                    .write_page(oid, p, &PageData::from_bytes(&host_page(p)))
                    .unwrap();
            }
            store.commit(None).unwrap();
        }
        data_state(&host)
    };
    assert!(reference.2 > 0, "the workload must exercise dedup");

    for workers in [1usize, 2, 8] {
        let mut host = boot_host();
        host.sls.flush_workers = workers;
        let pid = host.kernel.spawn("app");
        let addr = host.kernel.mmap_anon(pid, HOST_PAGES * 4096, false).unwrap();
        for p in 0..HOST_PAGES {
            host.kernel
                .mem_write(pid, addr + p * 4096, &host_page(p))
                .unwrap();
        }
        let gid = host.persist("app", pid).unwrap();
        let bd = host.checkpoint(gid, true, None).unwrap();
        assert!(bd.outcome.committed());
        assert_eq!((bd.pages, bd.pages_hashed), (HOST_PAGES, HOST_PAGES));
        assert_eq!(
            data_state(&host),
            reference,
            "divergence at {workers} workers: (data digest, pages_written, dedup_hits, blocks_in_use)"
        );
        let store = host.sls.primary.borrow();
        assert!(
            store.stats.blocks_coalesced > store.stats.extents_coalesced,
            "adjacent fresh blocks must share extents: {} extents / {} blocks",
            store.stats.extents_coalesced,
            store.stats.blocks_coalesced
        );
    }
}
