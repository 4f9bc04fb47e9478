//! Differential test for continuous checkpoint replication.
//!
//! For random workloads checkpointed over several epochs, a standby fed
//! through a *misbehaving* link (seeded drops, duplicates, reordering
//! and transient partitions) must — once the ack watermark catches up —
//! promote to *exactly* the restored memory image and live-object
//! census of the primary itself. Retransmission, reassembly and
//! cumulative acking are pure transport machinery; any divergence in
//! the promoted bytes or object table is a correctness bug in the
//! replication protocol.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_core::restore::RestoreMode;
use aurora_core::{Host, ReplConfig};
use aurora_hw::{LinkFaultRates, ModelDev};
use aurora_objstore::StoreConfig;
use aurora_sim::hash::{page_hash, Fnv64};
use aurora_sim::SimClock;
use proptest::prelude::*;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages in the workload's mapped region — small enough to keep many
/// epochs fast, large enough that every epoch spans several frames.
const REGION_PAGES: u64 = 16;

/// Checkpoint epochs per case.
const EPOCHS: u32 = 5;

/// One workload entry: (epoch, page index, content seed).
type Write = (u32, u64, u64);

fn write_strategy() -> impl Strategy<Value = Write> {
    (0u32..EPOCHS, 0u64..REGION_PAGES, 0u64..8)
}

fn store_config() -> StoreConfig {
    StoreConfig {
        journal_blocks: 2048,
        materialize_data: true,
        ..StoreConfig::default()
    }
}

/// Digest of the restored region, page by page.
fn digest_region(host: &mut Host, pid: aurora_posix::Pid, addr: u64) -> u64 {
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 4096];
    for i in 0..REGION_PAGES {
        host.kernel.mem_read(pid, addr + i * 4096, &mut buf).unwrap();
        h.update_u64(page_hash(&buf));
    }
    h.finish()
}

/// Runs the workload with a standby behind a hostile link, converges,
/// and returns ((primary digest, census), (promoted digest, census)).
fn run_case(writes: &[Write], seed: u64) -> ((u64, usize), (u64, usize)) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut host = Host::boot("primary", dev, store_config()).unwrap();
    host.attach_standby(ReplConfig {
        seed,
        rates: LinkFaultRates::hostile(),
        frame_bytes: 2048,
        max_lag_epochs: u64::MAX, // convergence is asserted, not policed
        standby_store: store_config(),
        ..ReplConfig::default()
    })
    .unwrap();

    let pid = host.kernel.spawn("workload");
    let addr = host
        .kernel
        .mmap_anon(pid, REGION_PAGES * 4096, false)
        .unwrap();
    let gid = host.persist("workload", pid).unwrap();

    for epoch in 0..EPOCHS {
        // Deterministic per-epoch base so every epoch dirties pages,
        // then this epoch's slice of the random writes.
        let base = [0xE0 + epoch as u8; 16];
        host.kernel.mem_write(pid, addr, &base).unwrap();
        for &(e, idx, wseed) in writes.iter().filter(|(e, _, _)| *e == epoch) {
            let marker = [0xB0 + wseed as u8, (idx % 250) as u8, e as u8, 0x5E];
            host.kernel
                .mem_write(pid, addr + idx * 4096 + 64 + wseed * 8, &marker)
                .unwrap();
        }
        let bd = host
            .checkpoint(gid, epoch == 0, Some(&format!("e{epoch}")))
            .unwrap();
        assert!(bd.outcome.committed());
        host.clock.advance_to(bd.durable_at);
    }

    // The misbehaving link must still converge: retransmission and
    // cumulative acks are the whole point.
    {
        let repl = host.replication_mut().unwrap();
        assert!(
            repl.run_until_idle(1_000_000),
            "hostile link failed to converge (seed {seed})"
        );
        assert_eq!(repl.acked_epoch(), u64::from(EPOCHS));
        assert_eq!(repl.lag_epochs(), 0);
    }

    // Reference: the primary restored from its own head.
    let repl = host.detach_standby().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let ppid = r.restored_pid(pid.0).unwrap();
    let primary = (
        digest_region(&mut host, ppid, addr),
        store.borrow().live_object_ids().len(),
    );
    drop(store);
    drop(host);

    // Candidate: the standby promoted and restored from *its* head.
    let (mut standby, pr) = aurora_core::promote_to_host(repl, "standby").unwrap();
    assert_eq!(pr.apply_errors, 0, "no import may fail (seed {seed})");
    assert_eq!(pr.promoted_epoch, u64::from(EPOCHS));
    let sstore = standby.sls.primary.clone();
    let problems = sstore.borrow().scrub();
    assert!(problems.is_empty(), "promoted store unsound: {problems:?}");
    let shead = sstore.borrow().head().unwrap();
    let r = standby.restore(&sstore, shead, RestoreMode::Eager).unwrap();
    let spid = r.restored_pid(pid.0).unwrap();
    let promoted = (
        digest_region(&mut standby, spid, addr),
        sstore.borrow().live_object_ids().len(),
    );
    (primary, promoted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A standby fed through a hostile link converges on the exact
    /// digest and object census of the primary.
    #[test]
    fn standby_converges_with_primary(
        writes in proptest::collection::vec(write_strategy(), 1..60),
        seed in 0u64..1_000_000,
    ) {
        let (primary, promoted) = run_case(&writes, seed);
        prop_assert_eq!(
            promoted, primary,
            "standby diverged under seed {}: (digest, live objects)",
            seed
        );
    }
}
