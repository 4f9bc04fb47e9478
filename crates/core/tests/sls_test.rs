//! End-to-end SLS tests: transparent persistence, crash recovery,
//! incremental checkpointing, external consistency, lazy restore,
//! rollback, migration, ntlogs and speculation.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::cell::RefCell;
use std::rc::Rc;

use aurora_core::restore::RestoreMode;
use aurora_core::{BackendKind, Host, RestoreBreakdown};
use aurora_hw::dev::{CostModel, QUEUE_DEPTH};
use aurora_hw::ModelDev;
use aurora_objstore::{ObjectStore, StoreConfig};
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

const DEV_BLOCKS: u64 = 128 * 1024;

/// A `ModelDev` constructor: the medium a host's primary store sits on.
type Medium = fn(std::sync::Arc<SimClock>, &str, u64) -> ModelDev;

fn new_host(name: &str) -> Host {
    host_on(name, ModelDev::nvme)
}

fn host_on(name: &str, medium: Medium) -> Host {
    let dev = Box::new(medium(SimClock::new(), &format!("{name}-dev"), DEV_BLOCKS));
    Host::boot(
        name,
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

fn memory_backend(host: &Host) -> StoreHandle {
    let dev = Box::new(ModelDev::ramdisk(host.clock.clone(), "md0", DEV_BLOCKS));
    Rc::new(RefCell::new(
        ObjectStore::format(dev, StoreConfig::default()).unwrap(),
    ))
}

#[test]
fn checkpoint_restore_roundtrips_full_process_state() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("app");
    // Memory, registers, a file on SLSFS, and an unread pipe.
    let addr = host.kernel.mmap_anon(pid, 8 * 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"precious state").unwrap();
    host.kernel.set_reg(pid, 0, 0xFEED).unwrap();
    host.kernel.set_reg(pid, 1, addr).unwrap();
    let file_fd = host.kernel.open(pid, "/sls/db", true).unwrap();
    host.kernel.write(pid, file_fd, b"file contents").unwrap();
    let (rfd, wfd) = host.kernel.pipe(pid).unwrap();
    host.kernel.write(pid, wfd, b"in flight").unwrap();

    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("snap")).unwrap();
    assert!(bd.pages >= 1, "resident memory captured");
    assert!(bd.metadata_bytes > 0);

    // Restore a second incarnation on the same host.
    let store = host.sls.primary.clone();
    let ckpt = bd.ckpt.unwrap();
    let restored = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let new_pid = restored.restored_pid(pid.0).unwrap();
    assert_ne!(new_pid, pid);

    // Registers and memory round-tripped.
    assert_eq!(host.kernel.get_reg(new_pid, 0).unwrap(), 0xFEED);
    let mut buf = [0u8; 14];
    host.kernel.mem_read(new_pid, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"precious state");
    // The file descriptor works and the offset survived.
    host.kernel.lseek(new_pid, file_fd, 0).unwrap();
    assert_eq!(host.kernel.read(new_pid, file_fd, 64).unwrap(), b"file contents");
    // The pipe still holds the unread bytes.
    assert_eq!(host.kernel.read(new_pid, rfd, 64).unwrap(), b"in flight");
}

#[test]
fn transparent_persistence_survives_machine_crash() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("survivor");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"before crash").unwrap();
    host.kernel.set_reg(pid, 7, 42).unwrap();
    let gid = host.persist("survivor", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);

    // Dirty more state that will be LOST (no checkpoint).
    host.kernel.mem_write(pid, addr, b"lost forever").unwrap();

    // Machine dies; store recovers; application restored.
    let mut host = host.crash_and_reboot().unwrap();
    assert!(host.kernel.procs.is_empty(), "crash killed everything");
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let restored = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let new_pid = restored.restored_pid(pid.0).unwrap();
    let mut buf = [0u8; 12];
    host.kernel.mem_read(new_pid, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"before crash");
    assert_eq!(host.kernel.get_reg(new_pid, 7).unwrap(), 42);
}

#[test]
fn incremental_checkpoints_capture_only_dirty_pages() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("writer");
    let addr = host.kernel.mmap_anon(pid, 64 * 4096, false).unwrap();
    for i in 0..64u64 {
        host.kernel
            .mem_write(pid, addr + i * 4096, format!("page {i}").as_bytes())
            .unwrap();
    }
    let gid = host.persist("writer", pid).unwrap();
    let full = host.checkpoint(gid, true, None).unwrap();
    assert_eq!((full.pages, full.pages_hashed), (64, 64));

    // Touch 3 pages; the incremental captures exactly those.
    for i in [5u64, 17, 42] {
        host.kernel
            .mem_write(pid, addr + i * 4096, b"dirty")
            .unwrap();
    }
    let incr = host.checkpoint(gid, false, None).unwrap();
    assert_eq!(incr.pages, 3);
    // Five-byte pokes over a committed base are delta records: no hash.
    assert_eq!(incr.pages_hashed, 0);
    assert_eq!(incr.hash_stage, aurora_sim::time::SimDuration::ZERO);
    assert!(incr.lazy_data_copy < full.lazy_data_copy);
    assert!(incr.stop_time < full.stop_time);

    // Restoring the incremental still yields every page (chain read).
    let store = host.sls.primary.clone();
    let restored = host
        .restore(&store, incr.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let new_pid = restored.restored_pid(pid.0).unwrap();
    let mut buf = [0u8; 7];
    host.kernel.mem_read(new_pid, addr + 9 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"page 9\0");
    let mut buf = [0u8; 5];
    host.kernel.mem_read(new_pid, addr + 17 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"dirty");
}

#[test]
fn all_delta_flush_does_not_queue_behind_a_busy_hash_lane() {
    const BIG: u64 = 2048;
    let mut host = new_host("h");
    host.sls.fleet.hash_lanes = 1;

    // Tenant A: a region of identical pages wide enough that its hash
    // stage outlasts B's whole commit — and (after dedup) next to
    // nothing for the device to write.
    let a = host.kernel.spawn("wide");
    let a_addr = host.kernel.mmap_anon(a, BIG * 4096, false).unwrap();
    for i in 0..BIG {
        host.kernel.mem_write(a, a_addr + i * 4096, b"same").unwrap();
    }
    let gid_a = host.persist("wide", a).unwrap();

    // Tenant B: one page with a committed base.
    let b = host.kernel.spawn("small");
    let b_addr = host.kernel.mmap_anon(b, 4096, false).unwrap();
    host.kernel.mem_write(b, b_addr, b"base").unwrap();
    let gid_b = host.persist("small", b).unwrap();
    host.checkpoint_pipelined(gid_b, true, None).unwrap();
    host.fleet_drain();

    // A's full flush books the only lane for its whole hash stage.
    let wide = host.checkpoint_pipelined(gid_a, true, None).unwrap();
    assert_eq!(wide.pages_hashed, BIG);
    let lane_busy_until = wide.durable_at;

    // B's 4-byte poke is a delta record: nothing to hash, so it neither
    // waits for the lane nor pushes its horizon.
    host.kernel.mem_write(b, b_addr, b"poke").unwrap();
    let small = host.checkpoint_pipelined(gid_b, false, None).unwrap();
    assert!(small.outcome.committed());
    assert_eq!((small.pages, small.pages_hashed), (1, 0));
    assert_eq!(small.hash_stage, aurora_sim::time::SimDuration::ZERO);
    assert!(
        small.durable_at < lane_busy_until,
        "all-delta flush durable at {:?}, lane busy until {:?}",
        small.durable_at,
        lane_busy_until
    );
    host.fleet_drain();
}

/// A base checkpoint, then a whole-page rewrite of 4 batches of
/// distinct pages flushed to `medium` at `workers`; returns the
/// rewrite's breakdown.
fn rewrite_flush(
    medium: Medium,
    workers: usize,
    pipelined: bool,
) -> aurora_core::CheckpointBreakdown {
    const PAGES: u64 = 4 * aurora_core::flush::FLUSH_BATCH_PAGES as u64;
    let mut host = host_on("h", medium);
    host.sls.flush_workers = workers;
    let pid = host.kernel.spawn("bulk");
    let addr = host.kernel.mmap_anon(pid, PAGES * 4096, false).unwrap();
    let gid = host.persist("bulk", pid).unwrap();
    let rewrite = |host: &mut Host, generation: u8| {
        for p in 0..PAGES {
            let mut page = [generation; 4096];
            page[..8].copy_from_slice(&p.to_le_bytes());
            host.kernel.mem_write(pid, addr + p * 4096, &page).unwrap();
        }
    };
    rewrite(&mut host, 1);
    let base = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(base.durable_at);

    rewrite(&mut host, 2);
    let bd = if pipelined {
        let bd = host.checkpoint_pipelined(gid, false, None).unwrap();
        host.fleet_drain();
        bd
    } else {
        host.checkpoint(gid, false, None).unwrap()
    };
    assert!(bd.outcome.committed());
    assert_eq!((bd.pages, bd.pages_hashed), (PAGES, PAGES));
    assert_eq!(bd.hash_stage, aurora_sim::cost::hash_stage(PAGES, workers as u64));
    bd
}

#[test]
fn streamed_flush_span_is_the_longer_of_hash_and_write_plus_one_batch() {
    use aurora_sim::cost::hash_stage;
    let batch = aurora_core::flush::FLUSH_BATCH_PAGES as u64;
    // The medium's own time for this plan's writes and commit: a
    // pipelined cycle charges no hash to the clock, so every batch is
    // submitted at flush start and the device never idles. The writes
    // do not depend on the worker count.
    let device_time = |medium: Medium| rewrite_flush(medium, 8, true).flush_span;

    // Device-bound: one core already out-hashes the NVMe, so at every
    // worker count the device starts after the first batch's hash and is
    // busy from then on.
    let device = device_time(ModelDev::nvme);
    for workers in [1, 2, 8] {
        let fast_hash = rewrite_flush(ModelDev::nvme, workers, false);
        assert!(fast_hash.hash_stage < device, "{workers} workers out-hash the NVMe");
        assert!(fast_hash.flush_span > device);
        assert!(
            fast_hash.flush_span <= device + hash_stage(batch, workers as u64),
            "span {:?} exceeds write {:?} by more than one batch's hash at {workers} workers",
            fast_hash.flush_span,
            device
        );
        assert_eq!(fast_hash.flush_span, fast_hash.hash_stage + fast_hash.write_wait);
    }

    // Hash-bound: an NVDIMM out-runs one core, so it drains each batch
    // under the next one's hash and only the tail of the write is left
    // after the last hash.
    let device = device_time(ModelDev::nvdimm);
    let slow_hash = rewrite_flush(ModelDev::nvdimm, 1, false);
    assert!(slow_hash.hash_stage > device, "one worker trails the NVDIMM");
    assert!(slow_hash.flush_span >= slow_hash.hash_stage);
    assert!(
        slow_hash.flush_span < slow_hash.hash_stage + device,
        "span {:?} is hash {:?} + write {:?} run back to back",
        slow_hash.flush_span,
        slow_hash.hash_stage,
        device
    );
    assert_eq!(slow_hash.flush_span, slow_hash.hash_stage + slow_hash.write_wait);
    assert!(slow_hash.write_wait < device);
}

/// A host rebooted cold over a committed image of 4 restore batches of
/// distinct pages on `medium`, with the image's checkpoint.
fn wide_image_host(medium: Medium) -> (Host, aurora_objstore::CkptId) {
    const PAGES: u64 = 4 * aurora_core::restore::RESTORE_BATCH_BLOCKS as u64;
    let mut host = host_on("h", medium);
    let pid = host.kernel.spawn("wide");
    let addr = host.kernel.mmap_anon(pid, PAGES * 4096, false).unwrap();
    for p in 0..PAGES {
        host.kernel
            .mem_write(pid, addr + p * 4096, format!("wide page {p}").as_bytes())
            .unwrap();
    }
    let gid = host.persist("wide", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    (host.crash_and_reboot().unwrap(), bd.ckpt.unwrap())
}

/// The read plan an eager restore of `ckpt` executes: every page of
/// every object.
fn image_read_plan(store: &ObjectStore, ckpt: aurora_objstore::CkptId) -> aurora_objstore::ReadPlan {
    let targets: Vec<_> = store
        .live_object_ids()
        .into_iter()
        .flat_map(|oid| {
            store
                .object_refs_at(ckpt, oid)
                .into_iter()
                .map(move |(idx, _)| (oid, idx))
        })
        .collect();
    store.plan_reads_at(ckpt, &targets)
}

/// What the device's queue rule charges the extents `batch` of `plan`
/// on `model`, submitted back to back to an idle queue: the whole access
/// latency for the first, a queue-depth share for each one behind it,
/// and every extent's transfer.
fn back_to_back(
    plan: &aurora_objstore::ReadPlan,
    batch: std::ops::Range<usize>,
    model: CostModel,
) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for (i, &(_, len)) in plan.extents[batch].iter().enumerate() {
        let latency = match i {
            0 => model.latency_ns,
            _ => model.latency_ns / QUEUE_DEPTH,
        };
        let bytes = (len * aurora_hw::BLOCK_SIZE) as u64;
        total += SimDuration::from_nanos(latency) + SimDuration::for_bytes(bytes, model.read_bw);
    }
    total
}

/// The first batch's read time on `medium` (charged as `model`), and a
/// checked eager restore of the wide image there at `workers`.
fn streamed_restore(
    (medium, model): (Medium, CostModel),
    workers: usize,
) -> (SimDuration, RestoreBreakdown) {
    use aurora_sim::cost::hash_stage;
    let batch = aurora_core::restore::RESTORE_BATCH_BLOCKS;

    // What a restore of this image costs besides paging in: a lazy
    // restore builds the same shells and map entries and reads no page.
    let (mut lazy_host, ckpt) = wide_image_host(medium);
    let store = lazy_host.sls.primary.clone();
    let wire = lazy_host.restore(&store, ckpt, RestoreMode::Lazy).unwrap().memory_state;
    // The first batch's read alone, on the same (still cold) store: the
    // reads move no clock, and complete when the rule says.
    let first_batch_read = {
        let mut st = store.borrow_mut();
        let plan = image_read_plan(&st, ckpt);
        let first = plan.extent_batches(batch).remove(0);
        let before = lazy_host.clock.now();
        let out = st.execute_read_plan_range(&plan, first.clone()).unwrap();
        assert_eq!(lazy_host.clock.now(), before);
        let read = out.done.since(before);
        assert_eq!(read, back_to_back(&plan, first, model));
        read
    };

    // The whole plan read in one shot on a twin store.
    let (twin, ckpt) = wide_image_host(medium);
    let (one_shot, one_shot_read) = {
        let mut st = twin.sls.primary.borrow_mut();
        let plan = image_read_plan(&st, ckpt);
        assert!(plan.extent_batches(batch).len() >= 4, "the image spans 4 batches");
        let before = twin.clock.now();
        let out = st.execute_read_plan(&plan).unwrap();
        let read = out.done.since(before);
        assert_eq!(read, back_to_back(&plan, 0..plan.extents.len(), model));
        (out, read)
    };

    let (mut host, ckpt) = wide_image_host(medium);
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();
    let bd = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    // The streamed reads are the one-shot reads: every batch's extents
    // go back to back, so only the first pays the whole latency.
    assert_eq!(bd.read_stage, one_shot_read);
    assert_eq!(bd.extents_read, one_shot.extents_read);
    assert_eq!(
        (bd.cache_hits, bd.cache_misses),
        (one_shot.cache_hits, one_shot.cache_misses)
    );
    assert_eq!(bd.pages_hashed, one_shot.fetched.len() as u64);
    assert_eq!(bd.hash_work, hash_stage(bd.pages_hashed, workers as u64));
    // The read stage, the verify tail and the wiring partition memory
    // state.
    assert_eq!(bd.read_stage + bd.hash_stage + wire, bd.memory_state);
    let page_in = bd.read_stage + bd.hash_stage;
    assert!(bd.read_stage.max(bd.hash_work) <= page_in);
    assert!(
        page_in < bd.read_stage + bd.hash_work,
        "page-in {page_in:?} is read {:?} + hash {:?} run back to back",
        bd.read_stage,
        bd.hash_work
    );
    (first_batch_read, bd)
}

#[test]
fn streamed_restore_page_in_is_the_longer_of_read_and_hash_plus_one_batch() {
    use aurora_sim::cost::dev::{NVDIMM_BW, NVDIMM_LAT_NS};
    use aurora_sim::cost::hash_stage;
    let batch = aurora_core::restore::RESTORE_BATCH_BLOCKS as u64;
    let nvdimm = CostModel {
        latency_ns: NVDIMM_LAT_NS,
        read_bw: NVDIMM_BW,
        write_bw: NVDIMM_BW,
    };

    // Read-bound: one core already verifies faster than the NVMe reads
    // (683 ns a block against 1648 ns a block for a 64-block extent
    // queued behind the first: 625 ns of latency share plus 64 × 1638.4
    // ns of transfer), so at every worker count each batch is verified
    // under the next one's read and only the last batch's hash is left
    // after the last read.
    for workers in [1, 2, 8] {
        let (_, fast_hash) = streamed_restore((ModelDev::nvme, CostModel::NVME), workers);
        assert!(
            fast_hash.hash_work < fast_hash.read_stage,
            "{workers} workers outrun the NVMe"
        );
        assert_eq!(fast_hash.hash_stage, hash_stage(batch, workers as u64));
    }

    // Verify-bound: an NVDIMM out-reads one core (512 ns a block for a
    // queued 64-block extent against 683 ns of hashing), so the hash
    // worker starts after the first batch's read and is busy from then
    // on.
    let (first_batch_read, slow_hash) = streamed_restore((ModelDev::nvdimm, nvdimm), 1);
    assert!(slow_hash.hash_work > slow_hash.read_stage, "one worker trails the NVDIMM");
    assert_eq!(
        slow_hash.read_stage + slow_hash.hash_stage,
        first_batch_read + slow_hash.hash_work
    );
}

#[test]
fn fork_tree_with_shared_memory_roundtrips() {
    let mut host = new_host("h");
    let parent = host.kernel.spawn("parent");
    host.kernel.shmget(99, 4096).unwrap();
    let shm_addr = host.kernel.shmat(parent, 99).unwrap();
    let child = host.kernel.fork(parent).unwrap();
    host.kernel
        .mem_write(parent, shm_addr, b"shared before ckpt")
        .unwrap();

    let gid = host.persist("tree", parent).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();

    let store = host.sls.primary.clone();
    let restored = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let new_parent = restored.restored_pid(parent.0).unwrap();
    let new_child = restored.restored_pid(child.0).unwrap();

    // Shared memory is STILL shared in the restored incarnation.
    host.kernel
        .mem_write(new_child, shm_addr, b"written by child!!")
        .unwrap();
    let mut buf = [0u8; 18];
    host.kernel.mem_read(new_parent, shm_addr, &mut buf).unwrap();
    assert_eq!(&buf, b"written by child!!");
    // Parent/child relationship restored.
    assert_eq!(host.kernel.proc_ref(new_child).unwrap().ppid, new_parent);
}

#[test]
fn fd_passing_in_flight_survives_checkpoint() {
    // The CRIU-took-7-years case: a descriptor parked inside a Unix
    // socket message at checkpoint time.
    let mut host = new_host("h");
    let pid = host.kernel.spawn("passer");
    let (sa, sb) = host.kernel.socketpair(pid).unwrap();
    let f = host.kernel.open(pid, "/sls/passed", true).unwrap();
    host.kernel.write(pid, f, b"hello through the socket").unwrap();
    host.kernel.sendmsg(pid, sa, b"take this", &[f]).unwrap();
    host.kernel.close(pid, f).unwrap();

    let gid = host.persist("passer", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();
    let restored = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let np = restored.restored_pid(pid.0).unwrap();

    // Receive the message in the restored incarnation: the descriptor
    // must come out working.
    let (bytes, fds) = host.kernel.recvmsg(np, sb).unwrap();
    assert_eq!(bytes, b"take this");
    assert_eq!(fds.len(), 1);
    host.kernel.lseek(np, fds[0], 0).unwrap();
    assert_eq!(
        host.kernel.read(np, fds[0], 64).unwrap(),
        b"hello through the socket"
    );
}

#[test]
fn unlinked_open_file_survives_crash_restore() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("anon");
    let fd = host.kernel.open(pid, "/sls/tmpfile", true).unwrap();
    host.kernel.write(pid, fd, b"anonymous data").unwrap();
    host.kernel.unlink_path(pid, "/sls/tmpfile").unwrap();

    let gid = host.persist("anon", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);

    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let restored = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = restored.restored_pid(pid.0).unwrap();
    // The name is gone but the restored process reads its data.
    assert!(host.kernel.open(np, "/sls/tmpfile", false).is_err());
    host.kernel.lseek(np, fd, 0).unwrap();
    assert_eq!(host.kernel.read(np, fd, 64).unwrap(), b"anonymous data");
}

#[test]
fn external_consistency_blocks_until_durable() {
    let mut host = new_host("h");
    let server = host.kernel.spawn("server");
    let client = host.kernel.spawn("client");
    let lfd = host.kernel.tcp_listen(server, 6379).unwrap();
    let cfd = host.kernel.tcp_connect(client, 6379).unwrap();
    let sfd = host.kernel.tcp_accept(server, lfd).unwrap();

    let gid = host.persist("server", server).unwrap();
    // Server replies to the outside world: held.
    host.kernel.write(server, sfd, b"reply").unwrap();
    assert!(host.kernel.read(client, cfd, 64).is_err(), "held");

    // Checkpoint; before durability the data is still held.
    let bd = host.checkpoint(gid, true, None).unwrap();
    // Advance past durability; the next poll releases.
    host.clock.advance_to(bd.durable_at);
    host.poll_durability();
    assert_eq!(host.kernel.read(client, cfd, 64).unwrap(), b"reply");
}

#[test]
fn fdctl_bypasses_external_consistency() {
    let mut host = new_host("h");
    let server = host.kernel.spawn("server");
    let client = host.kernel.spawn("client");
    let lfd = host.kernel.tcp_listen(server, 6379).unwrap();
    let cfd = host.kernel.tcp_connect(client, 6379).unwrap();
    let sfd = host.kernel.tcp_accept(server, lfd).unwrap();
    let _gid = host.persist("server", server).unwrap();
    host.sls_fdctl(server, sfd, false).unwrap();
    host.kernel.write(server, sfd, b"fast reply").unwrap();
    assert_eq!(host.kernel.read(client, cfd, 64).unwrap(), b"fast reply");
}

#[test]
fn lazy_restore_faults_pages_on_demand() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("lazyapp");
    let addr = host.kernel.mmap_anon(pid, 256 * 4096, false).unwrap();
    for i in 0..256u64 {
        host.kernel
            .mem_write(pid, addr + i * 4096, &[i as u8; 64])
            .unwrap();
    }
    let gid = host.persist("lazyapp", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();
    // Drain the device queue so the two restores compete fairly.
    host.clock.advance_to(bd.durable_at);

    let t0 = host.clock.now();
    let lazy = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy)
        .unwrap();
    let lazy_time = host.clock.now().since(t0);
    assert_eq!(lazy.pages_prefetched, 0);

    // Pages come back on demand with the right contents.
    let np = lazy.restored_pid(pid.0).unwrap();
    let majors_before = host.kernel.vm.stats.major_faults;
    let mut buf = [0u8; 64];
    host.kernel.mem_read(np, addr + 100 * 4096, &mut buf).unwrap();
    assert_eq!(buf, [100u8; 64]);
    assert!(host.kernel.vm.stats.major_faults > majors_before);

    // Eager restore of the same image costs much more restore time.
    let t1 = host.clock.now();
    let eager = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let eager_time = host.clock.now().since(t1);
    assert!(eager.pages_prefetched >= 256);
    assert!(
        eager_time > lazy_time,
        "eager {eager_time} should exceed lazy {lazy_time}"
    );
}

/// A warm image's restore reads its metadata records from the read
/// cache. The first lazy restore after a commit reads every record off
/// the device; the second hits on each one, so its object-store read
/// is exactly the records' hit cost, and it restores the same memory.
/// Once the image is released and the caches dropped, a third restore
/// is cold again, phase for phase.
#[test]
fn a_warm_restore_reads_its_records_from_the_read_cache() {
    let dev = Box::new(ModelDev::nvme(SimClock::new(), "warm-dev", DEV_BLOCKS));
    let config = StoreConfig {
        journal_blocks: 2048,
        materialize_data: true,
        ..StoreConfig::default()
    };
    let mut host = Host::boot("warm", dev, config).unwrap();
    let pid = host.kernel.spawn("fn");
    let pages = 16u64;
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
    for i in 0..pages {
        host.kernel
            .mem_write(pid, addr + i * 4096, &[i as u8 + 1; 32])
            .unwrap();
    }
    let gid = host.persist("fn", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.unwrap();
    let store = host.sls.primary.clone();

    let digest = |host: &mut Host, r: &RestoreBreakdown| {
        let np = r.restored_pid(pid.0).unwrap();
        let mut h = aurora_sim::hash::Fnv64::new();
        let mut buf = vec![0u8; 4096];
        for i in 0..pages {
            host.kernel.mem_read(np, addr + i * 4096, &mut buf).unwrap();
            h.update(&buf);
        }
        h.finish()
    };
    let retire = |host: &mut Host, r: &RestoreBreakdown| {
        let np = r.restored_pid(pid.0).unwrap();
        host.kernel.exit(np, 0).unwrap();
        host.kernel.procs.remove(&np);
    };
    let phases = |r: &RestoreBreakdown| {
        let mut r = r.clone();
        r.pid_map.clear();
        format!("{r:?}")
    };
    // A cold lazy restore reads nothing but records: their blocks are
    // what the device read.
    let device_bytes = |host: &Host| host.sls.primary.borrow().device().stats().bytes_read;
    let stats = |host: &Host| {
        let st = host.sls.primary.borrow();
        (st.stats.read_cache_hits, st.stats.read_cache_misses)
    };

    let (bytes0, probes0) = (device_bytes(&host), stats(&host));
    let first = host.restore(&store, ckpt, RestoreMode::Lazy).unwrap();
    let record_blocks = (device_bytes(&host) - bytes0) / aurora_hw::BLOCK_SIZE as u64;
    let records = stats(&host).1 - probes0.1;
    assert!(records >= 2 && record_blocks >= records, "{records} records, {record_blocks} blocks");
    assert_eq!(stats(&host).0, probes0.0, "no record was resident");
    let want = digest(&mut host, &first);

    let (bytes1, probes1) = (device_bytes(&host), stats(&host));
    let second = host.restore(&store, ckpt, RestoreMode::Lazy).unwrap();
    assert_eq!(
        second.objstore_read,
        aurora_sim::time::SimDuration::from_nanos(
            aurora_sim::cost::RESTORE_CACHE_HIT_NS * record_blocks
        ),
        "a warm restore's object-store read is its records' hit cost"
    );
    assert_eq!(device_bytes(&host), bytes1, "the warm restore read nothing");
    assert_eq!(stats(&host), (probes1.0 + records, probes1.1));
    assert_eq!(digest(&mut host, &second), want);

    retire(&mut host, &first);
    retire(&mut host, &second);
    host.release_image(&store, ckpt);
    store.borrow_mut().drop_caches().unwrap();
    let third = host.restore(&store, ckpt, RestoreMode::Lazy).unwrap();
    assert_eq!(phases(&third), phases(&first), "a dropped image restores cold");
    assert_eq!(digest(&mut host, &third), want);
}

#[test]
fn restored_instances_share_frames_and_warm_each_other() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("fn-runtime");
    let addr = host.kernel.mmap_anon(pid, 64 * 4096, false).unwrap();
    for i in 0..64u64 {
        host.kernel
            .mem_write(pid, addr + i * 4096, &[7u8; 32])
            .unwrap();
    }
    let gid = host.persist("fn", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();

    // Two lazy instances from the same image.
    let r1 = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy)
        .unwrap();
    let r2 = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy)
        .unwrap();
    let p1 = r1.root_pid().unwrap();
    let p2 = r2.root_pid().unwrap();

    // Instance 1 faults a page in (major fault).
    let mut buf = [0u8; 32];
    let majors0 = host.kernel.vm.stats.major_faults;
    host.kernel.mem_read(p1, addr + 5 * 4096, &mut buf).unwrap();
    assert_eq!(host.kernel.vm.stats.major_faults, majors0 + 1);

    // Instance 2 reading the same page takes a MINOR fault: warmed up.
    let minors0 = host.kernel.vm.stats.minor_faults;
    host.kernel.mem_read(p2, addr + 5 * 4096, &mut buf).unwrap();
    assert_eq!(host.kernel.vm.stats.major_faults, majors0 + 1, "no new major");
    assert!(host.kernel.vm.stats.minor_faults > minors0);
    assert_eq!(buf, [7u8; 32]);

    // Writes diverge per instance (COW).
    host.kernel.mem_write(p2, addr + 5 * 4096, b"mine").unwrap();
    host.kernel.mem_read(p1, addr + 5 * 4096, &mut buf).unwrap();
    assert_eq!(buf, [7u8; 32]);
}

/// Resident frames are shared by stored block *and* recorded content
/// hash. History GC frees the blocks of a checkpoint whose restored
/// instance is still running — its pager registered, its frames
/// resident — and the next checkpoint writes new bytes into them: a
/// restore of that checkpoint reads the new bytes, never the old
/// instance's frames, and the old instance keeps its own. The data
/// region holds two checkpoints' pages, so the third one's allocations
/// wrap the write frontier onto the freed blocks.
#[test]
fn a_reused_block_never_serves_the_frame_of_its_old_contents() {
    const PAGES: u64 = 8;
    const JOURNAL_BLOCKS: u64 = 2048;
    let dev = Box::new(ModelDev::nvme(
        SimClock::new(),
        "h-dev",
        aurora_objstore::layout::JOURNAL_START + JOURNAL_BLOCKS + 2 * PAGES,
    ));
    let config = StoreConfig {
        journal_blocks: JOURNAL_BLOCKS,
        ..StoreConfig::default()
    };
    let mut host = Host::boot("h", dev, config).unwrap();
    let pid = host.kernel.spawn("gc");
    let addr = host.kernel.mmap_anon(pid, PAGES * 4096, false).unwrap();
    let gid = host.persist("gc", pid).unwrap();
    let store = host.sls.primary.clone();
    let commit = |host: &mut Host, tag: u8| {
        for i in 0..PAGES {
            host.kernel
                .mem_write(pid, addr + i * 4096, &[tag + i as u8; 64])
                .unwrap();
        }
        let bd = host.checkpoint(gid, true, None).unwrap();
        host.clock.advance_to(bd.durable_at);
        bd.ckpt.unwrap()
    };
    let blocks = |c| -> std::collections::HashSet<u64> {
        let st = store.borrow();
        st.checkpoint(c).unwrap().pages.values().map(|p| p.0).collect()
    };

    let old = commit(&mut host, 0x10);
    let old_blocks = blocks(old);
    let r = host.restore(&store, old, RestoreMode::Lazy).unwrap();
    let old_pid = r.root_pid().unwrap();
    let mut buf = [0u8; 64];
    for i in 0..PAGES {
        host.kernel.mem_read(old_pid, addr + i * 4096, &mut buf).unwrap();
    }

    commit(&mut host, 0x20);
    store.borrow_mut().delete_checkpoint(old).unwrap();
    let new = commit(&mut host, 0x30);
    assert!(
        !old_blocks.is_disjoint(&blocks(new)),
        "the new checkpoint must reuse a freed block for the test to bite"
    );

    let r = host.restore(&store, new, RestoreMode::Lazy).unwrap();
    let new_pid = r.root_pid().unwrap();
    for i in 0..PAGES {
        host.kernel.mem_read(new_pid, addr + i * 4096, &mut buf).unwrap();
        assert_eq!(buf, [0x30 + i as u8; 64], "page {i} of the new checkpoint");
        host.kernel.mem_read(old_pid, addr + i * 4096, &mut buf).unwrap();
        assert_eq!(buf, [0x10 + i as u8; 64], "page {i} of the old instance");
    }
}

#[test]
fn rollback_reverts_and_notifies() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("spec");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"commit me").unwrap();
    let gid = host.persist("spec", pid).unwrap();

    let token = host.speculate_begin(gid).unwrap();
    host.kernel.mem_write(pid, addr, b"gamble!!!").unwrap();

    // The gamble fails: abort reverts memory and notifies.
    let rb = host.speculate_abort(token).unwrap();
    let np = rb.root_pid().unwrap();
    let mut buf = [0u8; 9];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"commit me");
    assert!(host.sls_rollback_pending(np));
    assert!(!host.sls_rollback_pending(np), "notification consumed");

    // The group continues: members are the restored incarnation.
    assert_eq!(host.group_members(gid), vec![np]);
    // And it can checkpoint again.
    host.checkpoint(gid, false, None).unwrap();
}

#[test]
fn time_travel_across_named_checkpoints() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("history");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    let gid = host.persist("history", pid).unwrap();

    let mut snaps = Vec::new();
    for ver in 0..5u8 {
        host.kernel
            .mem_write(pid, addr, format!("version {ver}").as_bytes())
            .unwrap();
        let bd = host
            .checkpoint(gid, false, Some(&format!("v{ver}")))
            .unwrap();
        snaps.push(bd.ckpt.unwrap());
    }
    // Bisect: restore version 2 without disturbing the live group.
    let store = host.sls.primary.clone();
    let r = host.restore(&store, snaps[2], RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 9];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"version 2");
    // The live process still has the latest state.
    host.kernel.mem_read(pid, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"version 4");
    // Named lookup works.
    assert_eq!(
        store.borrow().checkpoint_by_name("v2").unwrap().id,
        snaps[2]
    );
}

#[test]
fn send_recv_between_hosts() {
    let mut src = new_host("src");
    let mut dst = new_host("dst");
    let pid = src.kernel.spawn("traveler");
    let addr = src.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    src.kernel.mem_write(pid, addr, b"emigrating state").unwrap();
    src.kernel.set_reg(pid, 3, 777).unwrap();
    let gid = src.persist("traveler", pid).unwrap();
    src.checkpoint(gid, true, Some("to-ship")).unwrap();

    let stream = src.send_checkpoint(gid, None).unwrap();
    let ckpt = dst.recv_checkpoint(&stream).unwrap();
    let store = dst.sls.primary.clone();
    let r = dst.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 16];
    dst.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"emigrating state");
    assert_eq!(dst.kernel.get_reg(np, 3).unwrap(), 777);
}

#[test]
fn live_migration_moves_a_running_app() {
    let mut src = new_host("src");
    let mut dst = new_host("dst");
    let pid = src.kernel.spawn("migrant");
    let addr = src.kernel.mmap_anon(pid, 32 * 4096, false).unwrap();
    for i in 0..32u64 {
        src.kernel
            .mem_write(pid, addr + i * 4096, &[i as u8; 16])
            .unwrap();
    }
    let gid = src.persist("migrant", pid).unwrap();

    let mut link = aurora_hw::LinkModel::ten_gbe(src.clock.clone());
    let stats = aurora_core::migrate::live_migrate(&mut src, &mut dst, gid, &mut link, 5).unwrap();
    assert!(stats.rounds >= 2);
    assert!(stats.total_bytes > 0);
    // Deltas shrink after the full round.
    assert!(stats.round_bytes[1] < stats.round_bytes[0]);

    // Source incarnation gone; destination has the state.
    assert!(src.group_members(gid).is_empty());
    let np = stats.restore.root_pid().unwrap();
    let mut buf = [0u8; 16];
    dst.kernel.mem_read(np, addr + 9 * 4096, &mut buf).unwrap();
    assert_eq!(buf, [9u8; 16]);
}

#[test]
fn multi_backend_replication() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("replicated");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"replicate").unwrap();
    let gid = host.persist("replicated", pid).unwrap();

    let mem = memory_backend(&host);
    host.attach_backend(gid, BackendKind::Memory, mem.clone())
        .unwrap();
    host.checkpoint(gid, true, Some("both")).unwrap();

    // The memory backend holds a complete, independently restorable copy.
    let mem_ckpt = mem.borrow().head().unwrap();
    let r = host.restore(&mem, mem_ckpt, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 9];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"replicate");
    // Detach works; primary cannot be detached.
    assert!(host.detach_backend(gid, 0).is_err());
    host.detach_backend(gid, 1).unwrap();
}

#[test]
fn ntflush_log_survives_crash_without_checkpoint() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("kv");
    let gid = host.persist("kv", pid).unwrap();
    host.checkpoint(gid, true, None).unwrap();
    let (fd, log_id) = host.ntlog_create(gid, pid).unwrap();
    host.sls_ntflush(gid, pid, fd, b"put k1=v1;").unwrap();
    host.sls_ntflush(gid, pid, fd, b"put k2=v2;").unwrap();

    // Crash WITHOUT another checkpoint: the log was synchronously
    // durable, so it must survive.
    let mut host = host.crash_and_reboot().unwrap();
    let pid2 = host.kernel.spawn("kv");
    let gid2 = host.persist("kv", pid2).unwrap();
    // Reboots never reuse group ids (the allocator is durable), so the
    // log is addressed by its ORIGINAL group's namespace.
    assert_ne!(gid2.0, gid.0, "group ids are never reused");
    let fd2 = host.install_ntlog_fd(pid2, log_id).unwrap();
    let log = host.ntlog_read(gid, pid2, fd2).unwrap();
    assert_eq!(log, b"put k1=v1;put k2=v2;");

    // Truncation after the application checkpoints its state.
    host.ntlog_truncate(gid, pid2, fd2).unwrap();
    assert!(host.ntlog_read(gid, pid2, fd2).unwrap().is_empty());
}

#[test]
fn periodic_checkpointing_at_100hz() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("periodic");
    let addr = host.kernel.mmap_anon(pid, 16 * 4096, false).unwrap();
    let gid = host.persist("periodic", pid).unwrap();
    host.checkpoint(gid, true, None).unwrap();

    // Simulate 100 ms of runtime with writes; ticks fire every 10 ms.
    let mut taken = 0;
    for step in 0..1000u64 {
        host.kernel
            .mem_write(pid, addr + (step % 16) * 4096, &step.to_le_bytes())
            .unwrap();
        host.clock
            .charge(aurora_sim::time::SimDuration::from_micros(100));
        if host.checkpoint_tick(gid).unwrap().is_some() {
            taken += 1;
        }
    }
    assert!(
        (8..=12).contains(&taken),
        "≈10 checkpoints in 100 ms, got {taken}"
    );
    let history = host.sls.group_ref(gid).unwrap().history().len();
    assert!(history >= 8);
}

#[test]
fn ps_lists_groups_and_history() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("visible");
    let gid = host.persist("visible", pid).unwrap();
    host.checkpoint(gid, true, Some("first")).unwrap();
    host.checkpoint(gid, false, None).unwrap();
    let ps = host.ps();
    assert_eq!(ps.len(), 1);
    assert_eq!(ps[0].name, "visible");
    assert_eq!(ps[0].members, vec![pid]);
    assert_eq!(ps[0].checkpoints.len(), 2);
    assert_eq!(ps[0].backends, vec![BackendKind::Disk]);
}

#[test]
fn history_window_gc_bounds_store_growth() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("churner");
    let addr = host.kernel.mmap_anon(pid, 8 * 4096, false).unwrap();
    let gid = host.persist("churner", pid).unwrap();
    {
        host.sls.group_mut(gid).unwrap().history_window = 4;
    }
    for round in 0..20u64 {
        host.kernel
            .mem_write(pid, addr + (round % 8) * 4096, &round.to_le_bytes())
            .unwrap();
        host.checkpoint(gid, round == 0, None).unwrap();
    }
    assert_eq!(host.sls.group_ref(gid).unwrap().history().len(), 4);
    // The store's checkpoint table is bounded too (plus ntlog slack).
    assert!(host.sls.primary.borrow().checkpoints().len() <= 6);
    // The latest state is still fully restorable.
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 8];
    host.kernel.mem_read(np, addr + 3 * 4096, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 19);
}

#[test]
fn mctl_excluded_regions_not_captured() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("scratchy");
    let keep = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    let scratch = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    host.kernel.mem_write(pid, keep, b"keep me").unwrap();
    host.kernel.mem_write(pid, scratch, b"scratch").unwrap();
    host.sls_mctl(
        pid,
        scratch,
        aurora_vm::SlsPolicy {
            exclude: true,
            ..Default::default()
        },
    )
    .unwrap();
    let gid = host.persist("scratchy", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    assert_eq!(bd.pages, 1, "only the kept region's page");
}

#[test]
fn sysv_msgq_and_posix_shm_roundtrip() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("ipc-user");
    // POSIX shm, mapped and written.
    host.kernel.posix_shm_open("/cache", 4096).unwrap();
    let shm_addr = host.kernel.posix_shm_map(pid, "/cache").unwrap();
    host.kernel.mem_write(pid, shm_addr, b"posix shm bytes").unwrap();
    // SysV message queue with queued messages, registered with the group.
    host.kernel.msgget(42).unwrap();
    host.kernel.msgsnd(42, 1, b"first message").unwrap();
    host.kernel.msgsnd(42, 9, b"second message").unwrap();

    let gid = host.persist("ipc-user", pid).unwrap();
    host.group_add_msgq(gid, 42).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);

    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();

    // POSIX shm contents and mapping wiring survived.
    let mut buf = [0u8; 15];
    host.kernel.mem_read(np, shm_addr, &mut buf).unwrap();
    assert_eq!(&buf, b"posix shm bytes");
    assert!(host.kernel.posix_shms.contains_key("/cache"));
    // The queue and both messages survived, order and types intact.
    let m = host.kernel.msgrcv(42, 9).unwrap();
    assert_eq!(m.data, b"second message");
    let m = host.kernel.msgrcv(42, 0).unwrap();
    assert_eq!(m.data, b"first message");
}

#[test]
fn remote_backend_replication_over_the_network() {
    // Attach a Remote backend (an object store behind a 10 GbE link),
    // replicate checkpoints to it, then restore from the remote copy —
    // the paper's "sending an application's incremental checkpoints to
    // both a local disk and a remote machine for replication".
    use aurora_hw::{LinkModel, RemoteDev};

    let mut host = new_host("h");
    let pid = host.kernel.spawn("replicated");
    let addr = host.kernel.mmap_anon(pid, 16 * 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"replica me").unwrap();
    let gid = host.persist("replicated", pid).unwrap();

    let remote_store: StoreHandle = {
        let link = LinkModel::ten_gbe(host.clock.clone());
        let inner = ModelDev::nvme(host.clock.clone(), "remote-nvme", DEV_BLOCKS);
        let dev = Box::new(RemoteDev::new(link, inner));
        Rc::new(RefCell::new(
            ObjectStore::format(
                dev,
                StoreConfig {
                    journal_blocks: 1024,
                    ..StoreConfig::default()
                },
            )
            .unwrap(),
        ))
    };
    host.attach_backend(gid, BackendKind::Remote, remote_store.clone())
        .unwrap();

    // A full then an incremental checkpoint replicate to both backends.
    let t0 = host.clock.now();
    let bd1 = host.checkpoint(gid, true, None).unwrap();
    host.kernel.mem_write(pid, addr + 4096, b"delta").unwrap();
    let bd2 = host.checkpoint(gid, false, Some("replicated")).unwrap();
    // Remote durability includes network time: strictly later than local
    // submission time.
    assert!(bd1.durable_at > t0 && bd2.durable_at > t0);
    assert_eq!(remote_store.borrow().checkpoints().len(), 2);

    // Disaster: the whole primary machine is gone. Restore on a *new*
    // host from the remote copy alone.
    drop(host);
    let mut dr = new_host("dr-site");
    let remote_head = remote_store.borrow().head().unwrap();
    let r = dr
        .restore(&remote_store, remote_head, RestoreMode::Eager)
        .unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 10];
    dr.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"replica me");
    let mut buf = [0u8; 5];
    dr.kernel.mem_read(np, addr + 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"delta");
}

#[test]
fn signals_survive_checkpoint_restore() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("sighandler");
    host.kernel.mmap_anon(pid, 4096, false).unwrap();
    // Install a handler and leave a signal pending at checkpoint time.
    host.kernel.proc_mut(pid).unwrap().sig.actions[10] =
        aurora_posix::types::SigAction::Handler(0xCAFE);
    host.kernel.proc_mut(pid).unwrap().sig.blocked = 1 << 10;
    host.kernel.kill(pid, 10).unwrap();
    host.kernel.kill(pid, 2).unwrap();

    let gid = host.persist("sighandler", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();
    let r = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let np = r.root_pid().unwrap();
    let sig = &host.kernel.proc_ref(np).unwrap().sig;
    assert_eq!(sig.pending, (1 << 10) | (1 << 2));
    assert_eq!(sig.blocked, 1 << 10);
    assert_eq!(
        sig.actions[10],
        aurora_posix::types::SigAction::Handler(0xCAFE)
    );
    // Delivery semantics preserved: signal 2 deliverable, 10 blocked.
    assert_eq!(host.kernel.proc_mut(np).unwrap().sig.take_pending(), Some(2));
    assert_eq!(host.kernel.proc_mut(np).unwrap().sig.take_pending(), None);
}

#[test]
fn mctl_restore_hints_steer_paging() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("hinted");
    // Two regions: one hinted Eager, one hinted Lazy.
    let eager_region = host.kernel.mmap_anon(pid, 16 * 4096, false).unwrap();
    let lazy_region = host.kernel.mmap_anon(pid, 16 * 4096, false).unwrap();
    host.kernel
        .mem_write(pid, eager_region, &[1u8; 16 * 4096])
        .unwrap();
    host.kernel
        .mem_write(pid, lazy_region, &[2u8; 16 * 4096])
        .unwrap();
    host.sls_mctl(
        pid,
        eager_region,
        aurora_vm::SlsPolicy {
            exclude: false,
            restore: aurora_vm::map::RestoreHint::Eager,
        },
    )
    .unwrap();
    host.sls_mctl(
        pid,
        lazy_region,
        aurora_vm::SlsPolicy {
            exclude: false,
            restore: aurora_vm::map::RestoreHint::Lazy,
        },
    )
    .unwrap();
    let gid = host.persist("hinted", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();

    // Lazy restore still pages the Eager-hinted region in fully.
    let r = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy)
        .unwrap();
    assert!(
        r.pages_prefetched >= 16,
        "eager-hinted region paged in ({} pages)",
        r.pages_prefetched
    );
    // Eager restore skips the Lazy-hinted region.
    let r = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let np = r.root_pid().unwrap();
    assert!(r.pages_prefetched < 40, "lazy-hinted region not paged in");
    // Its contents still arrive on demand.
    let mut buf = [0u8; 8];
    host.kernel.mem_read(np, lazy_region, &mut buf).unwrap();
    assert_eq!(buf, [2u8; 8]);
}

#[test]
fn zero_copy_container_fs_clone() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("app");
    // A container-like directory tree on SLSFS.
    let fd = host.kernel.open(pid, "/sls/image-root", true).unwrap();
    host.kernel
        .write(pid, fd, &vec![0x5Au8; 64 * 1024])
        .unwrap();
    host.kernel.close(pid, fd).unwrap();

    let before = host.sls.primary.borrow().blocks_in_use();
    host.clone_sls_path("/sls/image-root", "/sls/instance-1").unwrap();
    host.clone_sls_path("/sls/image-root", "/sls/instance-2").unwrap();
    assert_eq!(
        host.sls.primary.borrow().blocks_in_use(),
        before,
        "clones cost zero data blocks"
    );
    // Clones are real, independent files.
    let fd = host.kernel.open(pid, "/sls/instance-1", false).unwrap();
    assert_eq!(host.kernel.read(pid, fd, 16).unwrap(), vec![0x5Au8; 16]);
    host.kernel.write(pid, fd, b"diverged").unwrap();
    let fd2 = host.kernel.open(pid, "/sls/instance-2", false).unwrap();
    assert_eq!(host.kernel.read(pid, fd2, 8).unwrap(), vec![0x5Au8; 8]);
    // Cloning onto an existing name fails; tmpfs paths refused.
    assert!(host
        .clone_sls_path("/sls/image-root", "/sls/instance-1")
        .is_err());
    assert!(host.clone_sls_path("/sls/image-root", "/elsewhere").is_err());
}

#[test]
fn eviction_of_restored_images_drops_clean_and_pins_dirty() {
    // Lazily restored instances share a read-only image pager; under
    // memory pressure their CLEAN pages are dropped (re-faultable from
    // the image) while DIRTY pages stay pinned until a checkpoint
    // captures them — never written back through the shared pager,
    // which would leak one sibling's writes into another.
    let mut host = new_host("h");
    let pid = host.kernel.spawn("swappy");
    let addr = host.kernel.mmap_anon(pid, 32 * 4096, false).unwrap();
    for i in 0..32u64 {
        host.kernel
            .mem_write(pid, addr + i * 4096, format!("page-{i:02}").as_bytes())
            .unwrap();
    }
    let gid = host.persist("swappy", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);

    // Two sibling incarnations, lazy.
    let store = host.sls.primary.clone();
    let ra = host.restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy).unwrap();
    let rb = host.restore(&store, bd.ckpt.unwrap(), RestoreMode::Lazy).unwrap();
    let a = ra.root_pid().unwrap();
    let b = rb.root_pid().unwrap();
    let mut buf = [0u8; 7];
    for i in 0..32u64 {
        host.kernel.mem_read(a, addr + i * 4096, &mut buf).unwrap();
    }
    // A dirties two pages, then faces memory pressure.
    host.kernel.mem_write(a, addr, b"dirty-0").unwrap();
    host.kernel.mem_write(a, addr + 9 * 4096, b"dirty-9").unwrap();
    let obj = host.kernel.proc_ref(a).unwrap().map.find(addr).unwrap().object;
    host.kernel.vm.clear_referenced(obj);
    let ev = host.kernel.vm.evict_pages(obj, 32).unwrap();
    assert!(ev.evicted > 0, "clean pages dropped under pressure");
    assert!(ev.pinned >= 2, "dirty pages pinned, not written back");

    // A's dirty contents are intact; its dropped clean pages re-fault
    // from the image.
    host.kernel.mem_read(a, addr + 9 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"dirty-9");
    host.kernel.mem_read(a, addr + 20 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"page-20");
    // Sibling B never sees A's writes.
    host.kernel.mem_read(b, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"page-00");
    host.kernel.mem_read(b, addr + 9 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"page-09");

    // A checkpoint of A captures the pinned dirty pages; a restore of
    // that checkpoint reproduces A exactly.
    let gid2 = host.persist("swappy-2", a).unwrap();
    let bd2 = host.checkpoint(gid2, true, None).unwrap();
    host.clock.advance_to(bd2.durable_at);
    let r2 = host.restore(&store, bd2.ckpt.unwrap(), RestoreMode::Eager).unwrap();
    let fin = r2.root_pid().unwrap();
    host.kernel.mem_read(fin, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"dirty-0");
    host.kernel.mem_read(fin, addr + 9 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"dirty-9");
    host.kernel.mem_read(fin, addr + 20 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"page-20");
}

#[test]
fn zombie_children_are_not_captured() {
    let mut host = new_host("h");
    let parent = host.kernel.spawn("parent");
    host.kernel.mmap_anon(parent, 4096, false).unwrap();
    let child = host.kernel.fork(parent).unwrap();
    let gid = host.persist("family", parent).unwrap();
    // The child dies before the checkpoint (zombie, not yet reaped).
    host.kernel.exit(child, 3).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();

    let store = host.sls.primary.clone();
    let r = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    assert_eq!(r.pid_map.len(), 1, "only the live parent restored");
    assert!(r.restored_pid(child.0).is_none());
    // The original parent can still reap its zombie afterwards.
    assert_eq!(host.kernel.waitpid(parent, child).unwrap(), 3);
}

#[test]
fn import_collision_is_rejected_cleanly() {
    let mut src = new_host("src");
    let pid = src.kernel.spawn("app");
    src.kernel.mmap_anon(pid, 4096, false).unwrap();
    let gid = src.persist("app", pid).unwrap();
    src.checkpoint(gid, true, None).unwrap();
    let stream = src.send_checkpoint(gid, None).unwrap();

    let mut dst = new_host("dst");
    dst.recv_checkpoint(&stream).unwrap();
    // Importing the same image again collides on object ids and must
    // fail without corrupting the store.
    assert!(dst.recv_checkpoint(&stream).is_err());
    assert!(dst.sls.primary.borrow().fsck().is_empty());
}

#[test]
fn orphan_reaping_respects_restored_references() {
    let mut host = new_host("h");
    let pid = host.kernel.spawn("anon-user");
    let kept = host.kernel.open(pid, "/sls/kept", true).unwrap();
    host.kernel.write(pid, kept, b"still referenced").unwrap();
    host.kernel.unlink_path(pid, "/sls/kept").unwrap();
    // A second unlinked-open file whose owner will NOT be restored.
    let orphan_owner = host.kernel.spawn("doomed");
    let orphan = host.kernel.open(orphan_owner, "/sls/orphan", true).unwrap();
    host.kernel.write(orphan_owner, orphan, b"abandoned").unwrap();
    host.kernel.unlink_path(orphan_owner, "/sls/orphan").unwrap();

    // Only the first process is persisted.
    let gid = host.persist("anon-user", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at);

    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();

    let blocks_before = host.sls.primary.borrow().blocks_in_use();
    host.reap_fs_orphans().unwrap();
    // The restored process's file survives and reads correctly...
    host.kernel.lseek(np, kept, 0).unwrap();
    assert_eq!(host.kernel.read(np, kept, 64).unwrap(), b"still referenced");
    // ...while the abandoned orphan's space was reclaimed.
    assert!(host.sls.primary.borrow().blocks_in_use() <= blocks_before);
}

#[test]
fn listener_backlog_survives_checkpoint() {
    // Pending (not yet accepted) connections are kernel state too.
    let mut host = new_host("h");
    let server = host.kernel.spawn("server");
    let lfd = host.kernel.tcp_listen(server, 7000).unwrap();
    let c1 = host.kernel.spawn("c1");
    host.kernel.tcp_connect(c1, 7000).unwrap();

    let gid = host.persist("server", server).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    let store = host.sls.primary.clone();
    let r = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let ns = r.root_pid().unwrap();
    // The pending connection came from OUTSIDE the group: it is reset at
    // restore (the standard checkpoint/restore semantics for half-open
    // external connections), so accept reports nothing pending.
    assert!(host.kernel.tcp_accept(ns, lfd).is_err());
    // Kill the original; a fresh restore CAN rebind the port.
    host.kernel.exit(server, 0).unwrap();
    host.kernel.procs.remove(&server);
    host.kernel.ports.remove(&7000);
    let r2 = host
        .restore(&store, bd.ckpt.unwrap(), RestoreMode::Eager)
        .unwrap();
    let ns2 = r2.root_pid().unwrap();
    let c2 = host.kernel.spawn("c2");
    let cfd = host.kernel.tcp_connect(c2, 7000).unwrap();
    let conn2 = host.kernel.tcp_accept(ns2, lfd).unwrap();
    host.kernel.write(c2, cfd, b"fresh").unwrap();
    assert_eq!(host.kernel.read(ns2, conn2, 16).unwrap(), b"fresh");
}

#[test]
fn checkpoint_advances_commit_phase_metrics() {
    // One checkpoint is one typestate commit on the checkpointing
    // store: exactly one journal record and one flush, and no
    // superblock flip — only a journal half switch writes one —
    // counted by that store's own `StoreStats`.
    let mut host = new_host("phase-metrics");
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"tick").unwrap();
    let gid = host.persist("app", pid).unwrap();
    let phases = |host: &Host| {
        let s = &host.sls.primary.borrow().stats;
        (s.journal_seals, s.extent_barriers, s.superblock_flips)
    };
    let before = phases(&host);
    host.checkpoint(gid, true, None).unwrap();
    let after = phases(&host);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (1, 1, 0),
        "record, flush and flip deltas of one checkpoint"
    );
}

#[test]
fn fleet_sweep_survives_one_tenant_hard_error() {
    // Regression: `checkpoint_all` used to abort the remaining tenants
    // when one cycle returned a hard error. A sweep over two live
    // groups with a nonexistent group wedged between them must still
    // checkpoint both live tenants and report the error per-tenant.
    let mut host = new_host("sweep");
    let mut gids = Vec::new();
    for name in ["alpha", "omega"] {
        let pid = host.kernel.spawn(name);
        let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
        host.kernel.mem_write(pid, addr, name.as_bytes()).unwrap();
        gids.push(host.persist(name, pid).unwrap());
    }
    let bogus = aurora_core::GroupId(9_999);
    let sweep = host.checkpoint_all(&[gids[0], bogus, gids[1]], true);
    assert_eq!(sweep.cycles.len(), 3);
    assert_eq!(sweep.committed(), 2, "live tenants must still checkpoint");
    assert_eq!(sweep.skipped(), 0);
    let errors = sweep.errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].0, bogus);
    // The sweep order is the request order: the error sits between the
    // two commits, proving the first error did not end the loop.
    assert!(sweep.cycles[0].result.is_ok());
    assert!(sweep.cycles[1].result.is_err());
    assert!(sweep.cycles[2].result.is_ok());
}
