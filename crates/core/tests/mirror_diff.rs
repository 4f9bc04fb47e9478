//! Differential test for the mirrored object store.
//!
//! For random workloads, a width-2 or width-3 mirror in which exactly
//! one replica misbehaves (seeded random write faults while the
//! checkpoint flushes, then transient read errors while the restore
//! runs) must converge on *exactly* the post-restore memory image and
//! live-object census of an unmirrored, fault-free store. Replication,
//! failover, retry and read-repair are pure availability machinery —
//! any divergence in restored bytes or object counts is a correctness
//! bug in the mirror.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_core::restore::RestoreMode;
use aurora_core::Host;
use aurora_hw::{BlockDev, FaultPlan, FaultRates, ModelDev};
use aurora_objstore::StoreConfig;
use aurora_sim::hash::{page_hash, Fnv64};
use aurora_sim::SimClock;
use proptest::prelude::*;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages in the workload's mapped region. Above the batched pipeline's
/// threshold so eager restores take the device-reading extent path —
/// the one that performs read-repair.
const REGION_PAGES: u64 = 96;

/// One workload entry: (page index, content seed). Low seed cardinality
/// on purpose so identical pages (and dedup-shared blocks) are common.
type Write = (u64, u64);

fn write_strategy() -> impl Strategy<Value = Write> {
    (0u64..REGION_PAGES, 0u64..8)
}

fn store_config() -> StoreConfig {
    StoreConfig {
        journal_blocks: 2048,
        // Data extents must carry real bytes: read-repair compares and
        // rewrites medium contents, not timing charges.
        materialize_data: true,
        ..StoreConfig::default()
    }
}

/// A single-replica misbehavior profile: frequent transient write
/// errors, a real rate of silent write corruption, occasional stalls
/// and a small chance the replica dies outright. The mirror must hide
/// all of it.
fn victim_rates() -> FaultRates {
    FaultRates {
        power_cut_ppm: 10_000,      // 1%
        transient_ppm: 100_000,     // 10%
        corrupt_ppm: 50_000,        // 5%
        latency_spike_ppm: 20_000,  // 2%
    }
}

/// Builds the deterministic world for `writes`, checkpoints it, crashes
/// the machine and eagerly restores at 4 workers. With `width == 1` the
/// store is unmirrored and fault-free (the reference). With `width >=
/// 2` one seeded replica misbehaves throughout. Returns (restored
/// memory digest, live object count, pages_prefetched).
fn run_variant(writes: &[Write], width: usize, seed: u64) -> (u64, usize, u64) {
    let clock = SimClock::new();
    let mut host = if width == 1 {
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        Host::boot("diff", dev, store_config()).unwrap()
    } else {
        let members: Vec<Box<dyn BlockDev>> = (0..width)
            .map(|i| {
                Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), DEV_BLOCKS))
                    as Box<dyn BlockDev>
            })
            .collect();
        Host::boot_mirrored("diff", members, store_config()).unwrap()
    };
    let pid = host.kernel.spawn("workload");
    let addr = host
        .kernel
        .mmap_anon(pid, REGION_PAGES * 4096, false)
        .unwrap();
    // Deterministic base pattern on every page, then the random writes.
    for i in 0..REGION_PAGES {
        let base = [(i % 251) as u8; 32];
        host.kernel.mem_write(pid, addr + i * 4096, &base).unwrap();
    }
    for &(idx, wseed) in writes {
        let marker = [0xB0 + (wseed as u8), (idx % 250) as u8, 0x5E, wseed as u8];
        host.kernel
            .mem_write(pid, addr + idx * 4096 + 64 + wseed * 8, &marker)
            .unwrap();
    }

    // One replica starts misbehaving before the flush touches the
    // medium; every other replica (and the unmirrored reference) is
    // perfect.
    let victim = (seed as usize) % width;
    if width >= 2 {
        let mut st = host.sls.primary.borrow_mut();
        let m = st.device_mut().as_mirror_mut().unwrap();
        m.install_replica_fault_plan(victim, FaultPlan::random(seed, victim_rates()))
            .unwrap();
    }

    let gid = host.persist("workload", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("snap")).unwrap();
    assert!(bd.outcome.committed(), "one sick replica must not abort");
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.unwrap();

    // The machine dies and reboots cold. The restore then runs while
    // the victim fails its first reads, forcing live failover.
    let mut host = host.crash_and_reboot().unwrap();
    if width >= 2 {
        let mut st = host.sls.primary.borrow_mut();
        let m = st.device_mut().as_mirror_mut().unwrap();
        m.install_replica_fault_plan(victim, FaultPlan::transient_reads(1, 4))
            .unwrap();
    }
    host.sls.restore_workers = 4;
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let new_pid = r.restored_pid(pid.0).unwrap();

    // Digest the restored region page by page.
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 4096];
    for i in 0..REGION_PAGES {
        host.kernel
            .mem_read(new_pid, addr + i * 4096, &mut buf)
            .unwrap();
        h.update_u64(page_hash(&buf));
    }

    // After the dust settles the medium itself must be sound: scrub
    // repairs any remaining at-rest damage from a healthy twin and
    // reports nothing it could not fix.
    if width >= 2 {
        let problems = store.borrow_mut().scrub();
        assert!(problems.is_empty(), "unhealable damage: {problems:?}");
    }
    let objects = store.borrow().live_object_ids().len();
    (h.finish(), objects, r.pages_prefetched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Width-2 and width-3 mirrors with one seeded sick replica restore
    /// to the same bytes and object census as the fault-free unmirrored
    /// reference.
    #[test]
    fn mirrored_store_converges_with_unmirrored_reference(
        writes in proptest::collection::vec(write_strategy(), 1..80),
        seed in 0u64..1_000_000,
    ) {
        let reference = run_variant(&writes, 1, 0);
        for width in [2usize, 3] {
            let got = run_variant(&writes, width, seed);
            prop_assert_eq!(
                got, reference,
                "width-{} mirror diverged under seed {}: \
                 (digest, live objects, pages_prefetched)",
                width, seed
            );
        }
    }
}
