//! The restore breakdown's identities and the page-in's overlap rule.
//!
//! A restore submits its page-in, rebuilds processes, descriptors and
//! IPC while the device streams the pages and the restore workers verify
//! them, then waits once for whichever finishes last. Its breakdown must
//! still add up, in every mode, cold or warm, at any worker count:
//!
//! * the three phases sum to `total`, and `total` is the clock delta of
//!   the call;
//! * the exposed read and verify waits fit in the memory phase;
//! * the stream is the part the metadata phase hid plus the exposed
//!   part.
//!
//! And the overlap must cost what it promises: a page-in shorter than
//! the metadata phase costs nothing over a lazy restore of the same
//! image, and a longer one costs the stream, not the stream plus the
//! metadata phase. Only work off the caller's core hides: the caller is
//! one of the hash lanes, so at one restore worker the verification
//! waits for the metadata phase and only the device reads hide under it.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use aurora_core::restore::{RestoreMode, RESTORE_BATCH_BLOCKS};
use aurora_core::{Host, RestoreBreakdown};
use aurora_hw::ModelDev;
use aurora_objstore::{CkptId, StoreConfig};
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;

const DEV_BLOCKS: u64 = 64 * 1024;

/// Pages the image heats before its checkpoint, so that it records a
/// hot set for `LazyPrefetch` to page in.
const HOT_PAGES: u64 = 8;

/// A host rebooted cold over a committed image of `pages` distinct
/// pages, the first [`HOT_PAGES`] of them heated, with the image's
/// checkpoint.
fn image_host(pages: u64) -> (Host, CkptId) {
    let dev = Box::new(ModelDev::nvme(SimClock::new(), "restore-dev", DEV_BLOCKS));
    let config = StoreConfig {
        journal_blocks: 2048,
        ..StoreConfig::default()
    };
    let mut host = Host::boot("restore", dev, config).unwrap();
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
    for p in 0..pages {
        host.kernel
            .mem_write(pid, addr + p * 4096, format!("page {p}").as_bytes())
            .unwrap();
    }
    let mut buf = [0u8; 8];
    for p in 0..HOT_PAGES.min(pages) {
        for _ in 0..3 {
            host.kernel.mem_read(pid, addr + p * 4096, &mut buf).unwrap();
        }
    }
    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));
    (host.crash_and_reboot().unwrap(), bd.ckpt.unwrap())
}

/// Restores `ckpt` with `mode` and checks every identity of its
/// breakdown.
fn checked_restore(host: &mut Host, ckpt: CkptId, mode: RestoreMode) -> RestoreBreakdown {
    let store = host.sls.primary.clone();
    let before = host.clock.now();
    let bd = host.restore(&store, ckpt, mode).unwrap();
    let what = format!("{mode:?} at {} workers: {bd:?}", bd.restore_workers);
    assert_eq!(host.clock.now().since(before), bd.total, "clock delta, {what}");
    assert_eq!(
        bd.objstore_read + bd.memory_state + bd.metadata_state,
        bd.total,
        "phases, {what}"
    );
    assert!(bd.read_stage + bd.hash_stage <= bd.memory_state, "exposed waits, {what}");
    assert_eq!(
        bd.stream.total(),
        bd.stream.hidden + bd.read_stage + bd.hash_stage,
        "stream, {what}"
    );
    assert!(bd.stream.hidden <= bd.metadata_state, "hidden part, {what}");
    bd
}

#[test]
fn breakdown_identities_hold_in_every_mode_cold_and_warm() {
    // Wider than two read batches: an eager stream outlasts the
    // metadata phase, a prefetch of the hot set does not.
    let pages = 2 * RESTORE_BATCH_BLOCKS as u64 + 88;
    for workers in [1usize, 2, 4] {
        for mode in [RestoreMode::Eager, RestoreMode::Lazy, RestoreMode::LazyPrefetch] {
            let (mut host, ckpt) = image_host(pages);
            host.sls.restore_workers = workers;
            let cold = checked_restore(&mut host, ckpt, mode);
            // The second instance finds the first one's frames resident
            // and its records in the read cache.
            let warm = checked_restore(&mut host, ckpt, mode);
            assert!(warm.total <= cold.total, "{mode:?} at {workers}: warm {warm:?}");
            match mode {
                RestoreMode::Eager => {
                    assert!(cold.stream.total() > cold.metadata_state);
                    assert_eq!(cold.stream.hidden, cold.metadata_state);
                    assert!(cold.read_stage + cold.hash_stage > SimDuration::ZERO);
                    assert!(cold.pages_prefetched >= pages);
                }
                RestoreMode::Lazy => {
                    assert_eq!(cold.stream.total(), SimDuration::ZERO);
                    assert_eq!(cold.pages_prefetched, 0);
                }
                RestoreMode::LazyPrefetch if workers == 1 => {
                    // The caller hashes the prefetch once its metadata
                    // phase is done; only the reads ran under the phase.
                    assert!(cold.pages_prefetched >= HOT_PAGES);
                    assert!(cold.hash_work > SimDuration::ZERO);
                    assert_eq!(cold.stream.hidden, cold.stream.read);
                    assert_eq!(cold.read_stage, SimDuration::ZERO);
                    assert_eq!(cold.hash_stage, cold.hash_work);
                }
                RestoreMode::LazyPrefetch => {
                    assert!(cold.pages_prefetched >= HOT_PAGES);
                    assert!(cold.stream.total() > SimDuration::ZERO);
                    assert_eq!(cold.stream.hidden, cold.stream.total());
                    assert_eq!(cold.read_stage + cold.hash_stage, SimDuration::ZERO);
                }
            }
            // A warm instance reads nothing off the device: what its
            // siblings faulted in is wired, and nothing is left exposed
            // beyond that wiring.
            assert_eq!(warm.cache_misses, 0, "{mode:?} at {workers}: warm {warm:?}");
            assert_eq!(warm.hash_stage, SimDuration::ZERO);
            assert_eq!(warm.stream.hidden, SimDuration::ZERO);
            assert_eq!(warm.read_stage, warm.stream.read);
        }
    }
}

/// Cold restores of twin images with `Eager` and `Lazy` on `workers`
/// restore workers.
fn eager_and_lazy(pages: u64, workers: usize) -> (RestoreBreakdown, RestoreBreakdown) {
    let (mut host, ckpt) = image_host(pages);
    host.sls.restore_workers = workers;
    let eager = checked_restore(&mut host, ckpt, RestoreMode::Eager);
    let (mut host, ckpt) = image_host(pages);
    host.sls.restore_workers = workers;
    let lazy = checked_restore(&mut host, ckpt, RestoreMode::Lazy);
    assert_eq!(eager.objstore_read, lazy.objstore_read);
    assert_eq!(eager.metadata_state, lazy.metadata_state);
    (eager, lazy)
}

#[test]
fn a_page_in_shorter_than_the_metadata_phase_costs_a_lazy_restore() {
    for workers in [2, 4] {
        let (eager, lazy) = eager_and_lazy(16, workers);
        assert!(eager.pages_prefetched >= 16);
        assert!(eager.stream.total() > SimDuration::ZERO);
        assert!(eager.stream.total() < eager.metadata_state);
        assert_eq!(eager.stream.hidden, eager.stream.total());
        assert_eq!(eager.total, lazy.total, "{workers}: eager {eager:?} vs lazy {lazy:?}");
        assert_eq!(eager.memory_state, lazy.memory_state);
    }
    // One worker is the caller: the reads hide, the hash follows the
    // metadata phase.
    let (eager, lazy) = eager_and_lazy(16, 1);
    assert!(eager.stream.total() < eager.metadata_state);
    assert_eq!(eager.stream.hidden, eager.stream.read);
    assert_eq!(eager.hash_stage, eager.hash_work);
    assert_eq!(eager.total, lazy.total + eager.hash_work, "eager {eager:?} vs lazy {lazy:?}");
}

#[test]
fn a_longer_page_in_costs_the_stream_not_the_stream_plus_metadata() {
    let (eager, lazy) = eager_and_lazy(4 * RESTORE_BATCH_BLOCKS as u64, 2);
    let stream = eager.stream.total();
    assert!(stream > eager.metadata_state);
    assert_eq!(eager.stream.hidden, eager.metadata_state);
    // The eager restore is the lazy one with its metadata phase swapped
    // for the stream: what the lazy restore does before its metadata
    // phase, then the whole stream.
    assert_eq!(eager.total, lazy.objstore_read + lazy.memory_state + stream);
    assert!(eager.total < lazy.total + stream);
}

/// A rebooted host over an image of `pages` pages whose process held
/// `/sls/f` open at the checkpoint. With `drop_file`, a later commit
/// closes and unlinks the file, so restoring the image fails in its
/// metadata phase, when it reopens the file.
fn image_with_file(pages: u64, drop_file: bool) -> (Host, CkptId) {
    let dev = Box::new(ModelDev::nvme(SimClock::new(), "restore-dev", DEV_BLOCKS));
    let config = StoreConfig {
        journal_blocks: 2048,
        ..StoreConfig::default()
    };
    let mut host = Host::boot("restore", dev, config).unwrap();
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
    for p in 0..pages {
        host.kernel
            .mem_write(pid, addr + p * 4096, format!("page {p}").as_bytes())
            .unwrap();
    }
    let fd = host.kernel.open(pid, "/sls/f", true).unwrap();
    host.kernel.write(pid, fd, b"data").unwrap();
    let gid = host.persist("app", pid).unwrap();
    let image = host.checkpoint(gid, true, None).unwrap();
    if drop_file {
        host.kernel.close(pid, fd).unwrap();
        host.kernel.unlink_path(pid, "/sls/f").unwrap();
    }
    let later = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(later.durable_at.max(later.scrub_ready_at));
    (host.crash_and_reboot().unwrap(), image.ckpt.unwrap())
}

#[test]
fn a_restore_whose_metadata_phase_fails_still_waits_for_its_page_in() {
    let pages = 4 * RESTORE_BATCH_BLOCKS as u64;
    let (mut twin, ckpt) = image_with_file(pages, false);
    let ok = checked_restore(&mut twin, ckpt, RestoreMode::Eager);
    assert!(ok.stream.total() > ok.objstore_read + ok.metadata_state);

    // The failed restore published its frames before its metadata phase
    // failed, so it returns no earlier than the stream they came from.
    let (mut host, ckpt) = image_with_file(pages, true);
    let store = host.sls.primary.clone();
    let before = host.clock.now();
    assert!(host.restore(&store, ckpt, RestoreMode::Eager).is_err());
    assert!(host.clock.now().since(before) >= ok.stream.total());
}
