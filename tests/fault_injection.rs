//! Crash-consistency sweep: cut device power at every interesting write
//! during checkpoint flushes and verify that recovery always lands on a
//! consistent committed state — never a torn or mixed one.

use aurora::core::restore::RestoreMode;
use aurora::core::Host;
use aurora::hw::{FaultPlan, ModelDev};
use aurora::objstore::layout::Superblock;
use aurora::objstore::StoreConfig;
use aurora::sim::{PageData, SimClock};

fn boot() -> Host {
    boot_with_journal(512)
}

fn boot_with_journal(journal_blocks: u64) -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 64 * 1024));
    Host::boot(
        "fault",
        dev,
        StoreConfig {
            journal_blocks,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

/// Runs the scenario with power cut at metadata write `cut_at` of the
/// second checkpoint; returns the value recovered after reboot.
fn run_with_cut(cut_at: u64, torn: usize) -> Vec<u8> {
    let mut host = boot();
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"state-v1").unwrap();
    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("v1")).unwrap();
    host.clock.advance_to(bd.durable_at);

    // Second checkpoint, with the device set to die mid-flush.
    host.kernel.mem_write(pid, addr, b"state-v2").unwrap();
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(if torn > 0 {
            FaultPlan::torn_write(cut_at, torn)
        } else {
            FaultPlan::power_cut(cut_at)
        });
    // The cut may land before, inside, or after the commit record; the
    // call's success says nothing about what survived on the platter.
    let _ = host.checkpoint(gid, false, Some("v2"));

    // Reboot and restore whatever survived.
    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().expect("v1 at minimum");
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 8];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();

    // Whichever checkpoint recovery chose, it must be one of the two
    // committed states — never a mixture.
    assert!(
        &buf == b"state-v1" || &buf == b"state-v2",
        "recovered garbage {buf:?} (cut at {cut_at})"
    );
    buf.to_vec()
}

#[test]
fn power_cut_sweep_over_checkpoint_writes() {
    let mut recovered_v1 = 0;
    let mut recovered_v2 = 0;
    // The second checkpoint issues a handful of metadata writes
    // (its journal records) — cut at each of the first eight.
    for cut_at in 1..=8 {
        let v = run_with_cut(cut_at, 0);
        if v == b"state-v1" {
            recovered_v1 += 1;
        } else {
            recovered_v2 += 1;
        }
    }
    // Early cuts must lose v2; late cuts may keep it. Both classes must
    // appear across the sweep for it to be meaningful.
    assert!(recovered_v1 > 0, "some cut should drop the torn checkpoint");
    assert!(
        recovered_v2 > 0,
        "some cut should land after the commit point"
    );
}

#[test]
fn torn_writes_are_detected_by_crcs() {
    for cut_at in 1..=4 {
        // Tear the interrupted write halfway: CRCs must reject the torn
        // record and recovery must fall back cleanly.
        let v = run_with_cut(cut_at, 2048);
        assert!(v == b"state-v1" || v == b"state-v2");
    }
}

#[test]
fn repeated_crashes_never_lose_committed_history() {
    let mut host = boot();
    let mut pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    let mut gid = host.persist("app", pid).unwrap();

    let mut committed = Vec::new();
    for round in 0..5u32 {
        host.kernel
            .mem_write(pid, addr, format!("round-{round}").as_bytes())
            .unwrap();
        let bd = host
            .checkpoint(gid, round == 0, Some(&format!("r{round}")))
            .unwrap();
        host.clock.advance_to(bd.durable_at);
        committed.push((round, bd.ckpt.unwrap()));

        // Crash, reboot, verify EVERY committed checkpoint.
        host = host.crash_and_reboot().unwrap();
        let store = host.sls.primary.clone();
        for &(r_no, ckpt) in &committed {
            let r = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
            let np = r.root_pid().unwrap();
            let mut buf = [0u8; 7];
            host.kernel.mem_read(np, addr, &mut buf).unwrap();
            assert_eq!(&buf, format!("round-{r_no}").as_bytes());
            let _ = host.kernel.exit(np, 0);
            host.kernel.procs.remove(&np);
        }
        // Resume the app from the newest state for the next round.
        let r = host
            .restore(&store, committed.last().unwrap().1, RestoreMode::Eager)
            .unwrap();
        pid = r.root_pid().unwrap();
        gid = host.persist("app", pid).unwrap();
    }

    // Silent-corruption detection: flip a bit in the next journal write;
    // the CRC rejects the record at recovery and the prior state stands.
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt(1, 100, 3));
    let _ = host.checkpoint(gid, false, Some("corrupted"));
    let host = host.crash_and_reboot().unwrap();
    assert!(host.sls.primary.borrow().head().is_some());
}

/// A permanent run of transient faults exhausts the retry budget: the
/// checkpoint must abort WITHOUT touching the previous durable snapshot,
/// and the pipeline must recover with a full checkpoint once the device
/// heals.
#[test]
fn aborted_checkpoint_leaves_previous_snapshot_restorable() {
    use aurora::core::CheckpointOutcome;
    use aurora::hw::DevHealth;

    let mut host = boot();
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"state-v1").unwrap();
    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("v1")).unwrap();
    host.clock.advance_to(bd.durable_at);
    let v1 = bd.ckpt.unwrap();

    // Every write fails with a transient error for longer than the retry
    // budget: a permanent fault as far as the pipeline can tell.
    host.kernel.mem_write(pid, addr, b"state-v2").unwrap();
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::transient(1, 10_000));
    let bd = host.checkpoint(gid, false, Some("v2")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Aborted);
    assert!(bd.fault.is_some(), "abort reports its cause");
    assert!(bd.ckpt.is_none(), "no checkpoint id for an aborted attempt");
    assert_eq!(host.sls.stats.checkpoints_aborted, 1);

    // Each aborted flush surfaces one exhausted retry; after three in a
    // row with no intervening success the device is marked degraded.
    for _ in 0..2 {
        let bd = host.checkpoint(gid, true, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Aborted);
    }
    assert_eq!(host.sls.stats.checkpoints_aborted, 3);
    assert_eq!(
        host.sls.primary.borrow().device().health(),
        DevHealth::Degraded,
        "repeated failures degrade the device"
    );

    // The previous snapshot is untouched and restorable right now.
    let store = host.sls.primary.clone();
    assert_eq!(store.borrow().head(), Some(v1), "head still the old snapshot");
    assert!(store.borrow().fsck().is_empty(), "store consistent after abort");
    let r = host.restore(&store, v1, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 8];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"state-v1");
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);

    // Device heals; the next checkpoint degrades to full and commits.
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
    host.kernel.mem_write(pid, addr, b"state-v3").unwrap();
    let bd = host.checkpoint(gid, false, Some("v3")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::DegradedToFull);
    assert!(bd.full, "abort forces the next checkpoint full");
    assert_eq!(host.sls.stats.checkpoints_degraded, 1);
    host.clock.advance_to(bd.durable_at);
    assert_eq!(
        host.sls.primary.borrow().device().health(),
        DevHealth::Healthy,
        "a successful write heals the device"
    );

    // And the committed chain survives a crash.
    drop(store);
    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    assert!(store.borrow_mut().scrub().is_empty());
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"state-v3");
}

/// The streamed flush puts whole batches on the device before the rest
/// of the plan is hashed. A write fault in a later batch must abort the
/// way a fault in a later extent of one big batch did: nothing
/// committed, the previous snapshot intact, no cached block the medium
/// does not hold, and a full checkpoint next that commits.
#[test]
fn write_fault_in_a_later_batch_aborts_without_damage() {
    use aurora::core::CheckpointOutcome;

    const BATCH: u64 = aurora::core::flush::FLUSH_BATCH_PAGES as u64;
    const PAGES: u64 = 3 * BATCH + BATCH / 4;
    const POKED: u64 = 8;
    let mut host = boot_materialized();
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, PAGES * 4096, false).unwrap();
    let gid = host.persist("app", pid).unwrap();
    let rewrite = |host: &mut Host, generation: u8| {
        for p in POKED..PAGES {
            let mut page = [generation; 4096];
            page[..8].copy_from_slice(&p.to_le_bytes());
            host.kernel.mem_write(pid, addr + p * 4096, &page).unwrap();
        }
        // The first pages of batch 0 take a small poke instead: delta
        // records staged before the fault.
        for p in 0..POKED {
            host.kernel.mem_write(pid, addr + p * 4096, &[generation; 16]).unwrap();
        }
    };
    let region = |host: &mut Host, pid| {
        let mut buf = vec![0u8; (PAGES * 4096) as usize];
        host.kernel.mem_read(pid, addr, &mut buf).unwrap();
        buf
    };

    rewrite(&mut host, 1);
    let v1_state = region(&mut host, pid);
    let bd = host.checkpoint(gid, true, Some("v1")).unwrap();
    host.clock.advance_to(bd.durable_at);
    let v1 = bd.ckpt.unwrap();

    // With nothing deduplicated, data write k is the k-th image of the
    // plan: this window opens inside batch 2 and outlasts the retries.
    rewrite(&mut host, 2);
    let v2_state = region(&mut host, pid);
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::transient(2 * BATCH + 5, 10_000));
    let written = |host: &Host| host.sls.primary.borrow().device().stats().bytes_written;
    let before = written(&host);
    let bd = host.checkpoint(gid, false, Some("v2")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Aborted, "{:?}", bd.fault);
    assert!(bd.ckpt.is_none());
    let landed = (written(&host) - before) / 4096;
    assert!(
        (2 * BATCH - POKED..3 * BATCH).contains(&landed),
        "{landed} pages landed: the fault hit after two whole batches"
    );
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());

    // Batches 0 and 1 reached the device; nothing of them is committed.
    let store = host.sls.primary.clone();
    assert_eq!(store.borrow().head(), Some(v1), "head still the old snapshot");
    assert!(store.borrow().fsck().is_empty(), "store consistent after abort");
    let r = host.restore(&store, v1, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    assert!(region(&mut host, np) == v1_state, "v1 restores byte for byte");
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);

    // The next checkpoint is full, over unchanged memory: every page of
    // the failed batch probes the dedup index with the contents the
    // fault bounced. Had the cache kept such a block, this commit would
    // reference bytes that never reached the medium.
    let bd = host.checkpoint(gid, false, Some("v3")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::DegradedToFull);
    assert!(bd.full, "abort forces the next checkpoint full");
    assert_eq!(bd.flush_span, bd.hash_stage + bd.write_wait);
    host.clock.advance_to(bd.durable_at);
    assert!(!store.borrow().has_pending(), "nothing staged outlives the commit");

    drop(store);
    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    assert!(store.borrow_mut().scrub().is_empty(), "every block holds its page");
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    assert!(region(&mut host, np) == v2_state, "v3 restores the rewritten state");
}

/// Power-cut sweep during journal garbage collection: compaction writes
/// its snapshot into the idle journal half, so a cut at ANY write during
/// GC must leave a durable superblock pointing at an intact journal.
#[test]
fn power_cut_sweep_during_journal_gc() {
    use aurora::objstore::{ObjId, ObjectStore};
    use aurora::vm::PageData;

    fn small_store() -> ObjectStore {
        let clock = SimClock::new();
        let dev = Box::new(aurora::hw::ModelDev::nvme(clock, "nvme0", 64 * 1024));
        ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: 8, // tiny: half = 16 KiB, compacts quickly
                materialize_data: false,
                ..StoreConfig::default()
            },
        )
        .unwrap()
    }

    // Probe: find the commit that triggers the first compaction.
    let trigger = {
        let mut s = small_store();
        s.create_object(ObjId(1), 4).unwrap();
        let mut n = 0u64;
        loop {
            s.write_page(ObjId(1), n % 4, &PageData::Seeded(n)).unwrap();
            s.commit(Some(&format!("c{n}"))).unwrap();
            n += 1;
            if s.stats.compactions > 0 {
                break n;
            }
            assert!(n < 10_000, "compaction never triggered");
        }
    };

    // Sweep: cut power at each of the writes the compacting commit
    // issues (snapshot, both superblock slots, journal record).
    for cut_at in 1..=6u64 {
        let mut s = small_store();
        s.create_object(ObjId(1), 4).unwrap();
        for n in 0..trigger - 1 {
            s.write_page(ObjId(1), n % 4, &PageData::Seeded(n)).unwrap();
            s.commit(Some(&format!("c{n}"))).unwrap();
        }
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut_at));
        s.write_page(ObjId(1), (trigger - 1) % 4, &PageData::Seeded(trigger - 1))
            .unwrap();
        let _ = s.commit(Some(&format!("c{}", trigger - 1)));

        let s = s.recover().unwrap();
        let problems = s.scrub();
        assert!(
            problems.is_empty(),
            "cut at {cut_at} during GC left damage: {problems:?}"
        );
        let head = s.head().expect("committed history survives GC cut");
        // The head must be a complete committed state: its page readable
        // and matching the round that committed it.
        let name = s.checkpoint(head).unwrap().name.clone().unwrap();
        let round: u64 = name[1..].parse().unwrap();
        assert!(
            s.read_page(ObjId(1), round % 4)
                .unwrap()
                .unwrap()
                .content_eq(&PageData::Seeded(round)),
            "cut at {cut_at}: head {name} torn"
        );
    }
}

/// Power-cut sweep while SLSFS file writes are being checkpointed: after
/// reboot the file must hold the old or the new contents, never a mix,
/// and the store must scrub clean.
#[test]
fn power_cut_sweep_during_slsfs_file_writes() {
    for cut_at in 1..=8u64 {
        let mut host = boot();
        let pid = host.kernel.spawn("app");
        let fd = host.kernel.open(pid, "/sls/data.txt", true).unwrap();
        host.kernel.write(pid, fd, b"file-v1").unwrap();
        let gid = host.persist("app", pid).unwrap();
        let bd = host.checkpoint(gid, true, Some("v1")).unwrap();
        host.clock.advance_to(bd.durable_at);

        // Append more file data, then cut power mid-checkpoint.
        host.kernel.write(pid, fd, b"file-v2").unwrap();
        host.sls
            .primary
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::power_cut(cut_at));
        let _ = host.checkpoint(gid, false, Some("v2"));

        let mut host = host.crash_and_reboot().unwrap();
        assert!(
            host.sls.primary.borrow_mut().scrub().is_empty(),
            "cut at {cut_at}: store damaged"
        );
        let reader = host.kernel.spawn("reader");
        let fd = host.kernel.open(reader, "/sls/data.txt", false).unwrap();
        let content = host.kernel.read(reader, fd, 64).unwrap();
        assert!(
            content == b"file-v1" || content == b"file-v1file-v2",
            "cut at {cut_at}: torn file contents {:?}",
            String::from_utf8_lossy(&content)
        );
    }
}

/// A corrupted superblock slot must not take the store down. From the
/// fourth round on, every write to slot 0 is silently corrupted, and the
/// journal is small enough that those rounds switch halves — a half
/// switch is the only superblock write after format, and it writes both
/// slots. Recovery rejects slot 0 (CRC), takes slot 1, and lands on the
/// last committed round.
#[test]
fn corrupted_superblock_falls_back_to_the_other_slot() {
    let mut host = boot_with_journal(8);
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4096, false).unwrap();
    let gid = host.persist("app", pid).unwrap();

    let mut committed = Vec::new();
    for round in 0..3u64 {
        host.kernel
            .mem_write(pid, addr, format!("round-{round}").as_bytes())
            .unwrap();
        let bd = host
            .checkpoint(gid, round == 0, Some(&format!("r{round}")))
            .unwrap();
        host.clock.advance_to(bd.durable_at);
        committed.push(format!("round-{round}"));
    }

    // From now on every write to superblock slot 0 (LBA 0) is silently
    // corrupted on the platter (byte 10 is inside its CRC-covered
    // epoch); slot 1 stays good.
    let flips = host.sls.primary.borrow().stats.superblock_flips;
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt_blocks(0, 1, 10, 2));
    for round in 3..6u64 {
        host.kernel
            .mem_write(pid, addr, format!("round-{round}").as_bytes())
            .unwrap();
        let bd = host
            .checkpoint(gid, false, Some(&format!("r{round}")))
            .unwrap();
        host.clock.advance_to(bd.durable_at);
        committed.push(format!("round-{round}"));
    }
    {
        let mut store = host.sls.primary.borrow_mut();
        assert!(
            store.stats.superblock_flips > flips,
            "the armed rounds switch halves"
        );
        let mut block = PageData::Zero;
        store.device_mut().read_blocks(0, std::slice::from_mut(&mut block)).unwrap();
        assert!(Superblock::from_block(&block.bytes()).is_err(), "the plan corrupted slot 0");
        store.device_mut().read_blocks(1, std::slice::from_mut(&mut block)).unwrap();
        let slot1 = Superblock::from_block(&block.bytes()).expect("slot 1 is whole");
        assert!(slot1.epoch > 1, "slot 1 carries the switch");
    }

    // Recovery must reject the corrupt slot (CRC) and pick the other.
    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    assert!(store.borrow_mut().scrub().is_empty());
    let head = store.borrow().head().expect("fallback slot recovers history");
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 7];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert!(
        committed.iter().any(|c| c.as_bytes() == buf),
        "recovered state {:?} is not a committed round",
        String::from_utf8_lossy(&buf)
    );
    assert_eq!(
        committed.last().map(String::as_bytes),
        Some(&buf[..]),
        "slot 1 carries the switch: no committed round is lost"
    );
}

fn boot_materialized() -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 64 * 1024));
    Host::boot(
        "materialized",
        dev,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

/// Boots a host on a materialized store (page bytes really live on the
/// device) with a wide workload committed, ready for restore-path fault
/// injection. Returns (host, addr, ckpt).
fn boot_materialized_with_baseline() -> (Host, u64, aurora::objstore::CkptId) {
    let mut host = boot_materialized();
    let pid = host.kernel.spawn("app");
    let pages = 96u64;
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
    for p in 0..pages {
        let body = format!("read-fault-p{p:04}");
        host.kernel
            .mem_write(pid, addr + p * 4096, body.as_bytes())
            .unwrap();
    }
    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("base")).unwrap();
    host.clock.advance_to(bd.durable_at);
    let ckpt = bd.ckpt.unwrap();
    // Cold store: the restore must read the device.
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    (host, addr, ckpt)
}

/// Transient read errors during a batched restore are absorbed by the
/// resilient device's bounded retries: the restore succeeds, the
/// restored memory is exact, and the retry counters prove the faults
/// actually fired.
#[test]
fn transient_read_errors_absorbed_during_batched_restore() {
    let (mut host, addr, ckpt) = boot_materialized_with_baseline();
    host.sls.restore_workers = 4;
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::transient_reads(3, 2));

    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 15];
    host.kernel.mem_read(np, addr + 17 * 4096, &mut buf).unwrap();
    assert_eq!(&buf, b"read-fault-p001".as_slice().get(0..15).unwrap());
    let mut buf = [0u8; 15];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf[..14], b"read-fault-p00");

    let rs = host.sls.primary.borrow().device().retry_stats();
    assert!(
        rs.reads_retried > 0,
        "the transient window must force read retries"
    );
    assert!(rs.transient_absorbed > 0);
}

// ---------------------------------------------------------------------------
// Mirrored store: read-repair, failover, resilver.

use aurora::core::CheckpointOutcome;
use aurora::hw::{BlockDev, MirrorDev, ReplicaState};

/// Boots a host whose primary store sits on a `width`-way mirror of
/// simulated NVMe devices, with page bytes materialized on the platter.
fn boot_mirrored(width: usize) -> Host {
    let clock = SimClock::new();
    let members: Vec<Box<dyn BlockDev>> = (0..width)
        .map(|i| {
            Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), 64 * 1024))
                as Box<dyn BlockDev>
        })
        .collect();
    Host::boot_mirrored(
        "fault-mirror",
        members,
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

/// Runs `f` on the primary store's mirror.
fn mirror<T>(host: &Host, f: impl FnOnce(&mut MirrorDev) -> T) -> T {
    let mut store = host.sls.primary.borrow_mut();
    f(store.device_mut().as_mirror_mut().expect("mirrored host"))
}

const MPAGES: u64 = 96;

/// Checkpoints a `MPAGES`-page workload while replica 0's platter
/// silently corrupts every data-region write, so replica 0 holds damaged
/// bytes at rest and replica 1 holds the truth. Returns (host, addr,
/// pid, gid).
fn boot_with_rotten_replica0() -> (Host, u64, aurora::posix::Pid, aurora::core::GroupId) {
    let mut host = boot_mirrored(2);
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, MPAGES * 4096, false).unwrap();
    for p in 0..MPAGES {
        let body = format!("mirror-page-{p:04}");
        host.kernel
            .mem_write(pid, addr + p * 4096, body.as_bytes())
            .unwrap();
    }
    let gid = host.persist("app", pid).unwrap();
    let ds = host.sls.primary.borrow().data_start();
    mirror(&host, |m| {
        m.install_replica_fault_plan(0, FaultPlan::corrupt_blocks(ds, u64::MAX, 100, 3))
    })
    .unwrap();
    let bd = host.checkpoint(gid, true, Some("base")).unwrap();
    host.clock.advance_to(bd.durable_at);
    // Electronics healthy again — but the damage is already at rest.
    mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::default())).unwrap();
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    (host, addr, pid, gid)
}

/// Restores every page of the named baseline and checks its contents.
fn verify_baseline(host: &mut Host, addr: u64) {
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    for p in 0..MPAGES {
        let want = format!("mirror-page-{p:04}");
        let mut buf = vec![0u8; want.len()];
        host.kernel.mem_read(np, addr + p * 4096, &mut buf).unwrap();
        assert_eq!(buf, want.into_bytes(), "page {p} damaged");
    }
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
}

/// At-rest corruption on the preferred replica is healed transparently
/// by the restore's read path: every damaged block is rewritten from
/// the twin, the restore sees only verified bytes, and afterwards the
/// once-rotten replica alone can serve the whole store.
#[test]
fn at_rest_corruption_is_read_repaired_from_the_twin() {
    let (mut host, addr, ..) = boot_with_rotten_replica0();
    verify_baseline(&mut host, addr);

    let repairs = host.sls.primary.borrow().stats.read_repairs.get();
    assert!(repairs > 0, "the restore must have repaired damaged blocks");
    let ms = mirror(&host, |m| m.mirror_stats());
    assert!(ms.read_repairs > 0, "repairs go through the mirror twin");

    // The platter itself was healed, not just the returned bytes:
    // detach the good twin and serve everything from replica 0.
    mirror(&host, |m| m.kill_replica(1)).unwrap();
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    assert!(
        host.sls.primary.borrow_mut().scrub().is_empty(),
        "healed replica must scrub clean on its own"
    );
    verify_baseline(&mut host, addr);
}

/// `scrub` performs the same read-repair: walking the checkpoints heals
/// every damaged at-rest block from the twin instead of reporting it.
#[test]
fn scrub_heals_at_rest_corruption_via_the_mirror() {
    let (mut host, addr, ..) = boot_with_rotten_replica0();
    let problems = host.sls.primary.borrow_mut().scrub();
    assert!(
        problems.is_empty(),
        "scrub repairs from the twin instead of reporting: {problems:?}"
    );
    let ms = mirror(&host, |m| m.mirror_stats());
    assert!(ms.read_repairs > 0, "scrub healed blocks through the mirror");

    mirror(&host, |m| m.kill_replica(1)).unwrap();
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    assert!(host.sls.primary.borrow_mut().scrub().is_empty());
    verify_baseline(&mut host, addr);
}

/// Power cut in the middle of a read-repair rewrite: the half-repaired
/// replica is detached, never read, and stays untrusted across a
/// reboot; only a completed resilver readmits it.
#[test]
fn power_cut_during_read_repair_rewrite_never_trusts_the_torn_copy() {
    let (mut host, addr, ..) = boot_with_rotten_replica0();
    // Replica 0 dies at its first write — which is the first repair
    // rewrite, since restores issue no other writes.
    mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::power_cut(1))).unwrap();
    verify_baseline(&mut host, addr);
    assert_eq!(
        mirror(&host, |m| m.replica_state(0)),
        Some(ReplicaState::Detached),
        "the replica that died mid-rewrite must be detached"
    );

    // The detachment survives the machine crashing and rebooting: the
    // rotten, half-repaired copy is never authoritative.
    mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::default())).unwrap();
    let mut host = host.crash_and_reboot().unwrap();
    assert_eq!(
        mirror(&host, |m| m.replica_state(0)),
        Some(ReplicaState::Detached)
    );
    assert!(host.sls.primary.borrow_mut().scrub().is_empty());
    verify_baseline(&mut host, addr);

    // Readmission is only through a full resilver — after which the
    // once-rotten replica alone serves the whole store.
    mirror(&host, |m| m.revive_replica(0)).unwrap();
    let report = host.resilver().unwrap();
    assert_eq!(report.replicas_promoted, 1);
    assert!(report.blocks > 0);
    mirror(&host, |m| m.kill_replica(1)).unwrap();
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    assert!(host.sls.primary.borrow_mut().scrub().is_empty());
    verify_baseline(&mut host, addr);
}

/// Degraded-mode checkpoints keep flowing and say so: with a replica
/// dead the outcome is `DegradedMirror` (still durable), and a
/// completed resilver restores `Committed`. The outcomes are per call,
/// so the test holds while other mirror tests run in parallel.
#[test]
fn degraded_mirror_checkpoints_commit_and_report() {
    let mut host = boot_mirrored(2);
    let pid = host.kernel.spawn("app");
    let addr = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
    host.kernel.mem_write(pid, addr, b"state-v1").unwrap();
    let gid = host.persist("app", pid).unwrap();
    let bd = host.checkpoint(gid, true, Some("v1")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed);
    host.clock.advance_to(bd.durable_at);

    mirror(&host, |m| m.kill_replica(1)).unwrap();
    host.kernel.mem_write(pid, addr, b"state-v2").unwrap();
    let bd = host.checkpoint(gid, false, Some("v2")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::DegradedMirror);
    assert!(bd.outcome.committed(), "a degraded-mirror checkpoint is durable");
    assert!(
        bd.fault.as_deref().unwrap_or_default().contains("mirror degraded"),
        "fault names the cause: {:?}",
        bd.fault
    );
    host.clock.advance_to(bd.durable_at);

    mirror(&host, |m| m.revive_replica(1)).unwrap();
    host.resilver().unwrap();
    host.kernel.mem_write(pid, addr, b"state-v3").unwrap();
    let bd = host.checkpoint(gid, false, Some("v3")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "healed mirror commits clean");
}

/// Damaged media during a batched restore: every read in the data
/// region returns a flipped bit. The restore must refuse the data
/// (content-hash mismatch) instead of wiring garbage — and because
/// reads mutate nothing, disarming the fault leaves a fully intact
/// store behind.
#[test]
fn read_corruption_aborts_restore_and_store_survives() {
    let (mut host, addr, ckpt) = boot_materialized_with_baseline();
    host.sls.restore_workers = 4;
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(0, u64::MAX, 100, 3));

    let store = host.sls.primary.clone();
    let err = host.restore(&store, ckpt, RestoreMode::Eager).unwrap_err();
    assert!(
        err.to_string().contains("content hash mismatch"),
        "restore must surface the corruption, got: {err}"
    );

    // Healthy electronics again: the store is untouched and the same
    // checkpoint restores exactly.
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
    assert!(store.borrow_mut().scrub().is_empty(), "platter never damaged");
    let r = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = [0u8; 14];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"read-fault-p00");
}

// ---------------------------------------------------------------------------
// Streamed page-in: damage in a batch after the first.

use aurora::core::restore::RESTORE_BATCH_BLOCKS;
use aurora::hw::dev::{CostModel, QUEUE_DEPTH};
use aurora::objstore::read::runs;
use aurora::objstore::CkptId;
use aurora::objstore::EXTENT_BLOCKS;
use aurora::sim::error::ErrorKind;
use aurora::sim::hash::Fnv64;
use aurora::sim::time::SimDuration;

/// Pages of the wide image: 2¼ restore batches, every page distinct.
const WIDE_PAGES: u64 = (2 * RESTORE_BATCH_BLOCKS + RESTORE_BATCH_BLOCKS / 4) as u64;

fn wide_page(p: u64) -> Vec<u8> {
    format!("wide-page-{p:04}").into_bytes()
}

/// The wide image, committed and cold.
struct WideImage {
    pid: aurora::posix::Pid,
    gid: aurora::core::GroupId,
    addr: u64,
    ckpt: CkptId,
}

/// Writes and checkpoints the wide image, then drops every cached page
/// so a restore must read the device.
///
/// The layout is holey on purpose. Every fourth page is first written
/// with a throwaway body and rewritten whole for a second, incremental
/// checkpoint; with a history window of 1 that collects the first
/// checkpoint, so each run of three surviving blocks is followed by a
/// freed one and the rewrites sit in a dense tail. The read planner
/// cuts it into extents of adjacent blocks, most of them three long.
fn commit_wide_image(host: &mut Host) -> WideImage {
    let pid = host.kernel.spawn("wide");
    let addr = host.kernel.mmap_anon(pid, WIDE_PAGES * 4096, false).unwrap();
    let rewritten = |p: u64| p % 4 == 3;
    for p in 0..WIDE_PAGES {
        let mut body = wide_page(p);
        if rewritten(p) {
            // Distinct, so it takes a block of its own to free later.
            body.resize(4096, 0xEE);
        }
        host.kernel.mem_write(pid, addr + p * 4096, &body).unwrap();
    }
    let gid = host.persist("wide", pid).unwrap();
    host.sls.group_mut(gid).unwrap().history_window = 1;
    let bd = host.checkpoint(gid, true, Some("wide-base")).unwrap();
    host.clock.advance_to(bd.durable_at);
    for p in (0..WIDE_PAGES).filter(|&p| rewritten(p)) {
        let mut body = wide_page(p);
        body.resize(4096, 0);
        host.kernel.mem_write(pid, addr + p * 4096, &body).unwrap();
    }
    let bd = host.checkpoint(gid, false, Some("wide")).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    host.clock.advance_to(bd.durable_at);
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    WideImage {
        pid,
        gid,
        addr,
        ckpt: bd.ckpt.unwrap(),
    }
}

/// The eager restore's read plan for `ckpt`, and the LBA of data block 0.
fn restore_plan(host: &Host, ckpt: CkptId) -> (aurora::objstore::store::ReadPlan, u64) {
    let store = host.sls.primary.borrow();
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
    (store.plan_reads_at(ckpt, &targets), store.data_start())
}

/// LBAs of the blocks of the first extent of batch `batch` of the
/// eager restore's read plan for `ckpt` — a run of adjacent blocks
/// longer than one.
fn planned_extent(host: &Host, ckpt: CkptId, batch: usize) -> Vec<u64> {
    let (plan, data_start) = restore_plan(host, ckpt);
    let batches = plan.extent_batches(RESTORE_BATCH_BLOCKS);
    assert!(batches.len() >= 3, "the image spans {} batches", batches.len());
    let (off, len) = plan.extents[batches[batch].start];
    let lbas: Vec<u64> = plan.blocks[off..off + len]
        .iter()
        .map(|b| data_start + b)
        .collect();
    assert!(len > 1, "a multi-block extent: {lbas:?}");
    assert_eq!(
        lbas[len - 1] - lbas[0],
        len as u64 - 1,
        "adjacent blocks: {lbas:?}"
    );
    lbas
}

/// LBA of a block in the middle of an extent of the second batch of
/// the eager restore of `ckpt`.
fn second_batch_lba(host: &Host, ckpt: CkptId) -> u64 {
    let lbas = planned_extent(host, ckpt, 1);
    lbas[lbas.len() / 2]
}

/// Restores the wide image eagerly and checks every page.
fn verify_wide_image(host: &mut Host, addr: u64, ckpt: CkptId) {
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    for p in 0..WIDE_PAGES {
        let want = wide_page(p);
        let mut buf = vec![0u8; want.len()];
        host.kernel.mem_read(np, addr + p * 4096, &mut buf).unwrap();
        assert_eq!(buf, want, "page {p} damaged");
    }
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
}

/// Digest of the part of the data region the wide image can
/// occupy, block by block, and the store's write-side counters.
fn store_fingerprint(host: &Host) -> (u64, [u64; 5]) {
    let mut store = host.sls.primary.borrow_mut();
    let ds = store.data_start();
    let mut h = Fnv64::new();
    let mut buf = PageData::Zero;
    for lba in ds..ds + 2 * WIDE_PAGES {
        store.device_mut().read_blocks(lba, std::slice::from_mut(&mut buf)).unwrap();
        h.update_u64(buf.content_hash());
    }
    let s = &store.stats;
    (
        h.finish(),
        [
            s.pages_written,
            s.blocks_coalesced,
            s.bytes_journaled,
            s.commits,
            s.read_repairs.get(),
        ],
    )
}

/// Restores `ckpt` lazily on a cold host: it reads the image's metadata
/// records and no page, so what it leaves in the read cache is their
/// share of it. Returns that share in blocks.
fn image_records_resident(host: &mut Host, ckpt: aurora::objstore::CkptId) -> usize {
    let store = host.sls.primary.clone();
    assert_eq!(store.borrow().read_cache_len(), 0, "the cache starts empty");
    let lazy = host.restore(&store, ckpt, RestoreMode::Lazy).unwrap();
    assert_eq!(lazy.pages_prefetched, 0, "a cold lazy restore reads no page");
    let records = store.borrow().read_cache_len();
    assert!(records > 0, "the image's records are resident");
    records
}

/// One damaged block in the page-in's second batch, no mirror: the
/// first batch is already verified and in the read cache when the
/// damaged extent comes back, and the restore still aborts with
/// `Corrupt` before anything of that extent is admitted — leaving the
/// store exactly as it was.
#[test]
fn corrupt_block_in_a_later_restore_batch_aborts_without_damage() {
    let mut host = boot_materialized();
    let WideImage { addr, ckpt, .. } = commit_wide_image(&mut host);
    host.sls.restore_workers = 4;
    let victim = second_batch_lba(&host, ckpt);
    let before = store_fingerprint(&host);
    let store = host.sls.primary.clone();
    let records = image_records_resident(&mut host, ckpt);

    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(victim, victim + 1, 100, 3));
    let err = host.restore(&store, ckpt, RestoreMode::Eager).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
    let (plan, _) = restore_plan(&host, ckpt);
    let first_batch = plan.extent_batches(RESTORE_BATCH_BLOCKS).remove(0);
    let first_batch: usize = plan.extents[first_batch].iter().map(|&(_, len)| len).sum();
    assert_eq!(
        store.borrow().read_cache_len(),
        records + first_batch,
        "admitted: the first batch's blocks, nothing of the damaged extent"
    );

    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
    assert_eq!(store_fingerprint(&host), before, "a failed restore writes nothing");
    assert!(store.borrow().fsck().is_empty());
    assert!(store.borrow_mut().scrub().is_empty(), "platter never damaged");
    verify_wide_image(&mut host, addr, ckpt);
}

/// The same damage at rest on one side of a width-2 mirror: the read
/// of the second batch heals it from the twin (read-repair), the
/// restore is exact, and afterwards the healed replica serves the
/// image alone.
#[test]
fn corrupt_block_in_a_later_restore_batch_is_healed_by_the_mirror() {
    // Allocation is deterministic: a fault-free twin tells which block
    // the restore will read in its second batch.
    let victim = {
        let mut twin = boot_mirrored(2);
        let ckpt = commit_wide_image(&mut twin).ckpt;
        second_batch_lba(&twin, ckpt)
    };

    let mut host = boot_mirrored(2);
    mirror(&host, |m| {
        m.install_replica_fault_plan(0, FaultPlan::corrupt_blocks(victim, victim + 1, 100, 3))
    })
    .unwrap();
    let WideImage { addr, ckpt, .. } = commit_wide_image(&mut host);
    mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::default())).unwrap();
    host.sls.restore_workers = 4;
    assert_eq!(second_batch_lba(&host, ckpt), victim);

    // A scrub step after one of the image's checkpoints already found
    // the damage, but its rewrite went through the same rotten
    // electronics.
    // The store counts that heal too: `read_repairs` is every block
    // healed from a twin, whichever read found it.
    let before = mirror(&host, |m| m.mirror_stats()).read_repairs;
    let counted = host.sls.primary.borrow().stats.read_repairs.get();
    assert_eq!(counted, 1, "the scrub step's heal");
    verify_wide_image(&mut host, addr, ckpt);
    assert_eq!(host.sls.primary.borrow().stats.read_repairs.get(), counted + 1);
    assert_eq!(mirror(&host, |m| m.mirror_stats()).read_repairs, before + 1);

    mirror(&host, |m| m.kill_replica(1)).unwrap();
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    assert!(
        host.sls.primary.borrow_mut().scrub().is_empty(),
        "healed replica must scrub clean on its own"
    );
    verify_wide_image(&mut host, addr, ckpt);
}

// ---------------------------------------------------------------------------
// A power cut inside a multi-block extent.

/// Power dies while the device is moving the second block of the first
/// planned extent: the restore fails with the device dead and nothing
/// admitted, and the rebooted store is fsck- and scrub-clean and
/// restores the image exactly.
#[test]
fn power_cut_inside_a_planned_extent_kills_the_device_and_recovery_is_clean() {
    let mut host = boot_materialized();
    let WideImage { addr, ckpt, .. } = commit_wide_image(&mut host);
    host.sls.restore_workers = 4;
    planned_extent(&host, ckpt, 0);
    let store = host.sls.primary.clone();
    let records = image_records_resident(&mut host, ckpt);
    // The page-in's first device read is this extent, block by block.
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::power_cut_on_read(2));

    let err = host.restore(&store, ckpt, RestoreMode::Eager).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::DeviceDead, "{err}");
    assert!(!store.borrow().device().powered());
    assert_eq!(
        store.borrow().read_cache_len(),
        records,
        "nothing of a failed extent is kept"
    );
    drop(store);

    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
    let mut host = host.crash_and_reboot().unwrap();
    assert!(host.sls.primary.borrow().fsck().is_empty());
    assert!(host.sls.primary.borrow().scrub().is_empty());
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    verify_wide_image(&mut host, addr, ckpt);
}

// ---------------------------------------------------------------------------
// The post-commit scrub step reads extents too.

/// Dirties one page of the wide image past the bytes its check reads,
/// takes an incremental checkpoint and waits for its commit and for its
/// scrub step's verdicts.
fn incremental_over_wide_image(
    host: &mut Host,
    img: &WideImage,
) -> aurora::core::CheckpointBreakdown {
    host.kernel
        .mem_write(img.pid, img.addr + 2048, b"dirty")
        .unwrap();
    let bd = host.checkpoint(img.gid, false, None).unwrap();
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));
    bd
}

/// The blocks the next scrub step over `gid`'s head reads, ascending:
/// from the primary backend's cursor on, the first
/// `RESTORE_BATCH_BLOCKS` distinct blocks under the pages in key order.
fn next_step_blocks(host: &Host, gid: aurora::core::GroupId) -> Vec<u64> {
    let from = host.sls.group_ref(gid).unwrap().backends[0].scrub_from;
    let store = host.sls.primary.borrow();
    let head = store.head().unwrap();
    let mut blocks = std::collections::BTreeSet::new();
    let mut done = false;
    store.walk_base_blocks(head, gid.objects(), &mut |oid, idx, b| {
        if done || from.is_some_and(|from| (oid, idx) < from) {
            return;
        }
        done = blocks.len() == RESTORE_BATCH_BLOCKS && !blocks.contains(&b);
        if !done {
            blocks.insert(b);
        }
    });
    blocks.into_iter().collect()
}

/// When reads of `extents` complete, submitted back to back from an
/// idle queue (`idle`) or behind a busy one, counted by the device's
/// one rule: a request on an idle queue pays the whole access latency,
/// each one queued behind another a `QUEUE_DEPTH` share, and every
/// request its transfer.
fn queued_reads(extents: &[(usize, usize)], idle: bool) -> SimDuration {
    let nvme = CostModel::NVME;
    let share = nvme.latency_ns / QUEUE_DEPTH;
    let mut done = SimDuration::from_nanos(if idle { nvme.latency_ns - share } else { 0 });
    for &(_, len) in extents {
        done += SimDuration::from_nanos(share)
            + SimDuration::for_bytes(len as u64 * 4096, nvme.read_bw);
    }
    done
}

/// Damage under a block in the middle of a multi-block extent of a
/// scrub step is found by that step, after the commit it follows: the
/// checkpoint stays an incremental, and the next one rewrites exactly
/// the damaged page from memory into a fresh block, so the head
/// restores from a cold cache with the damaged block still on the
/// platter.
#[test]
fn scrub_step_condemns_damage_inside_an_extent() {
    let mut host = boot_materialized();
    let img = commit_wide_image(&mut host);
    let blocks = next_step_blocks(&host, img.gid);
    let extents = runs(&blocks, EXTENT_BLOCKS);
    let &(off, len) = extents
        .iter()
        .find(|&&(_, len)| len >= 3)
        .expect("a multi-block extent in the step");
    let block = blocks[off + len / 2];
    let lba = host.sls.primary.borrow().data_start() + block;
    host.sls
        .primary
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(lba, lba + 1, 100, 3));
    let bd = incremental_over_wide_image(&mut host, &img);
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    assert!(!bd.full && bd.rewritten == 0);
    assert_eq!(bd.scrub_damaged, 1, "{:?}", bd.fault);
    let fault = bd.fault.unwrap_or_default();
    assert!(
        fault.contains(&format!("block {block} content hash mismatch")),
        "{fault}"
    );

    let bd = incremental_over_wide_image(&mut host, &img);
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    assert!(!bd.full && !bd.holds_damage(), "{:?}", bd.fault);
    assert_eq!(bd.rewritten, 1, "exactly the damaged page");
    let head = bd.ckpt.unwrap();
    let mut referenced = false;
    host.sls
        .primary
        .borrow()
        .walk_base_blocks(head, img.gid.objects(), &mut |_, _, b| {
            referenced |= b == block
        });
    assert!(
        !referenced,
        "the head no longer restores from block {block}"
    );
    host.sls.primary.borrow_mut().drop_caches().unwrap();
    verify_wide_image(&mut host, img.addr, head);
}

/// On a mirror the scrub step heals what it finds. A rotten copy on the
/// preferred replica is rewritten from its twin, block by block, once
/// the extent read shows a mismatch; a preferred replica that dies
/// under the step's extent read is failed over, and the next cycle
/// reports the mirror degraded. Neither damages the head.
#[test]
fn base_check_repairs_a_rotten_mirror_copy_and_fails_over_a_dead_one() {
    let (mut host, addr, pid, gid) = boot_with_rotten_replica0();
    host.kernel.mem_write(pid, addr, b"dirty").unwrap();
    let bd = host.checkpoint(gid, false, None).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    assert!(!bd.holds_damage(), "{:?}", bd.fault);
    let healed = mirror(&host, |m| m.mirror_stats()).read_repairs;
    assert!(healed >= MPAGES, "every rotten block rewritten: {healed}");
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));

    // Replica 0 dies at its next read — the next step's first extent,
    // after the commit it follows.
    mirror(&host, |m| m.install_replica_fault_plan(0, FaultPlan::power_cut_on_read(1))).unwrap();
    host.kernel.mem_write(pid, addr, b"dirty again").unwrap();
    let bd = host.checkpoint(gid, false, None).unwrap();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    assert!(
        !bd.holds_damage() && !bd.full,
        "the twin served the whole step"
    );
    assert_eq!(
        mirror(&host, |m| m.replica_state(0)),
        Some(ReplicaState::Detached)
    );
    assert!(mirror(&host, |m| m.mirror_stats()).failovers >= 1);
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));

    host.kernel
        .mem_write(pid, addr, b"dirty once more")
        .unwrap();
    let bd = host.checkpoint(gid, false, None).unwrap();
    assert_eq!(
        bd.outcome,
        CheckpointOutcome::DegradedMirror,
        "{:?}",
        bd.fault
    );
}

/// A head of N pages over U < N unique blocks is scrubbed with reads
/// that cover U blocks: a dedup-shared block is compared once, not once
/// per page that maps it. The step is one batch, queued behind the
/// commit: its verdicts are in when its last read completes plus the
/// flush workers' hash of the U blocks, and the caller's clock does not
/// wait for them.
#[test]
fn base_check_reads_each_shared_block_once() {
    let mut host = boot_materialized();
    let pid = host.kernel.spawn("dup");
    let (pages, bodies) = (192u64, 8u64);
    let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
    for p in 0..pages {
        let body = vec![0xA0 + (p % bodies) as u8; 4096];
        host.kernel.mem_write(pid, addr + p * 4096, &body).unwrap();
    }
    let gid = host.persist("dup", pid).unwrap();
    let bd = host.checkpoint(gid, true, None).unwrap();
    host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));
    let unique = host.sls.primary.borrow().blocks_in_use();
    assert!(unique < pages / 2, "{unique} blocks back {pages} pages");
    let blocks = next_step_blocks(&host, gid);
    assert_eq!(blocks.len() as u64, unique);
    let reads = queued_reads(&runs(&blocks, EXTENT_BLOCKS), false);
    let workers = host.sls.flush_workers as u64;

    host.kernel.mem_write(pid, addr, b"dirty").unwrap();
    let before = host.sls.primary.borrow().device().stats().clone();
    let bd = host.checkpoint(gid, false, None).unwrap();
    let after = host.sls.primary.borrow().device().stats().clone();
    assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
    assert!(host.clock.now() < bd.durable_at, "the caller does not wait");
    assert_eq!(
        bd.scrub_ready_at,
        bd.durable_at + reads + aurora::sim::cost::hash_stage(unique, workers),
        "the reads queued behind the commit, then {workers} workers hashing U blocks"
    );
    assert_eq!(after.bytes_read - before.bytes_read, unique * 4096);
    assert!(
        after.reads - before.reads <= unique.div_ceil(64) + 1,
        "{} requests for {unique} blocks",
        after.reads - before.reads
    );
}

/// A head of two batches takes two steps, the first after the full
/// checkpoint that writes it and the second after the next incremental.
/// Each is one batch: its verdicts are in one batch's hash on the flush
/// workers — `hash_stage(n, workers)` for its n blocks — after its last
/// read, which queues behind the commit. `scrub` streams the whole
/// store's reads from an idle queue (the store holds only this group's
/// blocks) and compares each batch on one core whatever the flush
/// workers, so it ends the one-core tail after its last read.
#[test]
fn base_check_ends_one_batch_hash_after_its_last_read() {
    let pages = (RESTORE_BATCH_BLOCKS + 3 * EXTENT_BLOCKS) as u64;
    for workers in [1u64, 4] {
        let mut host = boot_materialized();
        host.sls.flush_workers = workers as usize;
        let pid = host.kernel.spawn("wide");
        let addr = host.kernel.mmap_anon(pid, pages * 4096, false).unwrap();
        for p in 0..pages {
            host.kernel
                .mem_write(pid, addr + p * 4096, &wide_page(p))
                .unwrap();
        }
        let gid = host.persist("wide", pid).unwrap();
        let bd = host.checkpoint(gid, true, None).unwrap();
        host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));

        let store = host.sls.primary.borrow();
        let mut blocks = Vec::new();
        store.walk_base_blocks(store.head().unwrap(), gid.objects(), &mut |_, _, b| {
            blocks.push(b)
        });
        drop(store);
        blocks.sort_unstable();
        blocks.dedup();
        let extents = runs(&blocks, EXTENT_BLOCKS);
        let batches = aurora::objstore::read::extent_batches(&extents, RESTORE_BATCH_BLOCKS);
        assert_eq!(batches.len(), 2, "{workers} workers: two batches");
        let last: u64 = extents[batches[1].clone()]
            .iter()
            .map(|&(_, len)| len as u64)
            .sum();
        let hash = |n: u64, w: u64| aurora::sim::cost::hash_stage(n, w);
        let tail = hash(pages, 1).saturating_sub(hash(pages - last, 1));
        let before = host.clock.now();
        let problems = host.sls.primary.borrow().scrub();
        assert!(problems.is_empty(), "{problems:?}");
        let scrub = host.clock.now().since(before);
        assert_eq!(
            scrub,
            queued_reads(&extents, true) + tail,
            "scrub at {workers} flush workers"
        );

        let step = next_step_blocks(&host, gid);
        assert_eq!(
            step.len() as u64,
            pages - RESTORE_BATCH_BLOCKS as u64,
            "the second step"
        );
        let reads = queued_reads(&runs(&step, EXTENT_BLOCKS), false);
        host.kernel.mem_write(pid, addr + 2048, b"dirty").unwrap();
        let bd = host.checkpoint(gid, false, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
        assert!(host.clock.now() < bd.durable_at, "the caller does not wait");
        assert_eq!(
            bd.scrub_ready_at,
            bd.durable_at + reads + hash(step.len() as u64, workers),
            "{workers} workers: the last read plus the batch's hash"
        );
    }
}

/// Pages of the rot-at-rest row's image, every page distinct: one step
/// covers them.
const ROT_PAGES: u64 = 64;
/// The page whose block rots.
const ROT_PAGE: u64 = 17;

/// One run of the rot-at-rest row: a base and an incremental of
/// `ROT_PAGES` pages, then — with `rot` — the block under `ROT_PAGE` at
/// the head rots on the platter, and three more incrementals follow,
/// each dirtying page 0 and waiting for its commit and its scrub step.
/// Returns a digest of the head restored eagerly from a cold cache, and
/// per incremental after the rot whether it was full, what its step
/// found damaged, what it rewrote and the pages it captured.
fn rot_at_rest_run(rot: bool) -> (u64, Vec<(bool, u64, u64, u64)>) {
    let mut host = boot_materialized();
    let pid = host.kernel.spawn("rot");
    let addr = host.kernel.mmap_anon(pid, ROT_PAGES * 4096, false).unwrap();
    for p in 0..ROT_PAGES {
        host.kernel
            .mem_write(pid, addr + p * 4096, format!("rot-page-{p:04}").as_bytes())
            .unwrap();
    }
    let gid = host.persist("rot", pid).unwrap();
    let cycle = |host: &mut Host, full: bool, n: u64| {
        let body = format!("cycle-{n}");
        host.kernel
            .mem_write(pid, addr + 2048, body.as_bytes())
            .unwrap();
        let bd = host.checkpoint(gid, full, None).unwrap();
        assert!(bd.outcome.committed(), "{:?}", bd.fault);
        host.clock.advance_to(bd.durable_at.max(bd.scrub_ready_at));
        bd
    };
    cycle(&mut host, true, 0);
    cycle(&mut host, false, 1);
    if rot {
        let store = host.sls.primary.borrow();
        let head = store.head().unwrap();
        let Some((aurora::objstore::PageRef::Full(ptr), _)) = store.page_ref_at(
            head,
            aurora::objstore::ObjId(gid.objects().start().0 | 1),
            ROT_PAGE,
        ) else {
            panic!("page {ROT_PAGE} is a full image at the head");
        };
        let lba = store.data_start() + ptr.0;
        drop(store);
        host.sls
            .primary
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::corrupt_read_blocks(lba, lba + 1, 100, 3));
    }
    let cycles = (2..5)
        .map(|n| {
            let bd = cycle(&mut host, false, n);
            (bd.full, bd.scrub_damaged, bd.rewritten, bd.pages)
        })
        .collect();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    store.borrow_mut().drop_caches().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let np = r.root_pid().unwrap();
    let mut buf = vec![0u8; (ROT_PAGES * 4096) as usize];
    host.kernel.mem_read(np, addr, &mut buf).unwrap();
    let mut h = Fnv64::new();
    h.update(&buf);
    (h.finish(), cycles)
}

/// Rot at rest between two incrementals: a block under the head goes
/// bad on the platter after it was written. The next incremental's
/// scrub step finds it; the checkpoint after that — the next one due
/// once the step's verdicts are in — rewrites exactly that page from
/// memory, into a fresh block rather than a dedup hit on the bad one.
/// No checkpoint is full, and the head restores from a cold cache
/// digest-equal to the same run without the rot.
#[test]
fn rot_at_rest_between_incrementals_is_rewritten_from_memory() {
    let (twin, twin_cycles) = rot_at_rest_run(false);
    assert_eq!(
        twin_cycles,
        vec![(false, 0, 0, 1); 3],
        "the fault-free twin captures page 0 alone"
    );
    let (digest, cycles) = rot_at_rest_run(true);
    assert_eq!(
        cycles,
        vec![(false, 1, 0, 1), (false, 0, 1, 2), (false, 0, 0, 1)],
        "found, then page {ROT_PAGE} rewritten beside page 0, then clean"
    );
    assert_eq!(digest, twin, "the head restores the twin's bytes");
}

/// Post-commit maintenance never turns a durable checkpoint into an
/// error. A fault plan fails the history GC's delete record through
/// every retry: the checkpoint that ran the GC is committed, the head
/// advanced, the victim stays in the history, and the next cycle's GC
/// deletes it. The store is consistent throughout.
#[test]
fn failed_history_gc_keeps_the_committed_checkpoint() {
    let setup = || {
        let mut host = boot();
        let pid = host.kernel.spawn("gc");
        let addr = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
        let gid = host.persist("gc", pid).unwrap();
        host.sls.group_mut(gid).unwrap().history_window = 2;
        let mut ids = Vec::new();
        for v in 0..2u8 {
            host.kernel.mem_write(pid, addr, &[v + 1; 64]).unwrap();
            let bd = host.checkpoint(gid, v == 0, None).unwrap();
            host.clock.advance_to(bd.durable_at);
            ids.push(bd.ckpt.unwrap());
        }
        host.kernel.mem_write(pid, addr, &[3; 64]).unwrap();
        (host, pid, addr, gid, ids)
    };
    let mut gc_failed = 0;
    // The third checkpoint's commit and its GC delete write a handful
    // of journal blocks: fail each in turn through every retry.
    for n in 1..=6u64 {
        let (mut host, pid, addr, gid, ids) = setup();
        let store = host.sls.primary.clone();
        store
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::transient(n, 10_000));
        let bd = host.checkpoint(gid, false, None).unwrap();
        store
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::default());
        assert!(
            store.borrow().fsck().is_empty(),
            "{:?}",
            store.borrow().fsck()
        );
        let fault = bd.fault.clone().unwrap_or_default();
        if bd.outcome == CheckpointOutcome::Aborted {
            assert_eq!(
                store.borrow().head(),
                Some(ids[1]),
                "write {n}: nothing committed"
            );
            continue;
        }
        assert_eq!(
            bd.outcome,
            CheckpointOutcome::Committed,
            "write {n}: {fault}"
        );
        let head = bd.ckpt.unwrap();
        assert_eq!(
            store.borrow().head(),
            Some(head),
            "write {n}: the head advanced"
        );
        if !fault.contains("history GC failed") {
            continue;
        }
        gc_failed += 1;
        let history = host.sls.group_ref(gid).unwrap().history().to_vec();
        assert_eq!(
            history,
            vec![ids[0], ids[1], head],
            "write {n}: the victim stays"
        );
        assert!(store.borrow().checkpoint(ids[0]).is_ok());
        host.clock.advance_to(bd.durable_at);

        host.kernel.mem_write(pid, addr, &[4; 64]).unwrap();
        let bd = host.checkpoint(gid, false, None).unwrap();
        assert_eq!(bd.outcome, CheckpointOutcome::Committed, "{:?}", bd.fault);
        let next = bd.ckpt.unwrap();
        let history = host.sls.group_ref(gid).unwrap().history().to_vec();
        assert_eq!(
            history,
            vec![head, next],
            "write {n}: the next GC caught up"
        );
        assert!(
            store.borrow().checkpoint(ids[0]).is_err(),
            "the victim is deleted"
        );
        assert!(
            store.borrow().fsck().is_empty(),
            "{:?}",
            store.borrow().fsck()
        );
    }
    assert!(gc_failed > 0, "some write of the sweep is the GC's delete");
}

// ---------------------------------------------------------------------------
// Lazy faults go through the same checked reader.

/// Damaged media under a lazy restore: every fault reads one block off
/// the device, and a block whose bytes do not match its recorded hash
/// must fail the faulting access — not hand the application a flipped
/// bit, and not re-record the hash of what it just read. Disarmed, the
/// same process faults the same page in clean and the committed store
/// is intact.
#[test]
fn lazy_fault_on_damaged_media_errors_instead_of_serving_garbage() {
    let (mut host, addr, ckpt) = boot_materialized_with_baseline();
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Lazy).unwrap();
    assert_eq!(r.pages_prefetched, 0, "pure lazy: every page is a fault away");
    let np = r.root_pid().unwrap();

    store
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(0, u64::MAX, 100, 3));
    let mut page = vec![0u8; 4096];
    let err = host.kernel.mem_read(np, addr + 5 * 4096, &mut page).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");

    store
        .borrow_mut()
        .device_mut()
        .install_fault_plan(FaultPlan::default());
    assert!(store.borrow().scrub().is_empty(), "the recorded hashes survived the bad read");
    host.kernel.mem_read(np, addr + 5 * 4096, &mut page).unwrap();
    let mut want = b"read-fault-p0005".to_vec();
    want.resize(4096, 0);
    assert_eq!(page, want);
    assert!(store.borrow().fsck().is_empty());
}

/// The same faults on a mirror whose preferred replica is rotten at
/// rest: each lazy fault heals its block from the twin and serves the
/// right bytes, and afterwards the once-rotten replica alone scrubs
/// clean — read-repair no longer needs an eager restore or a scrub to
/// find the damage.
#[test]
fn lazy_faults_heal_a_rotten_replica_from_its_twin() {
    let (mut host, addr, ..) = boot_with_rotten_replica0();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Lazy).unwrap();
    let np = r.root_pid().unwrap();
    let mut page = vec![0u8; 4096];
    for p in 0..MPAGES {
        host.kernel.mem_read(np, addr + p * 4096, &mut page).unwrap();
        let mut want = format!("mirror-page-{p:04}").into_bytes();
        want.resize(4096, 0);
        assert_eq!(page, want, "page {p} damaged");
    }
    assert!(store.borrow().stats.read_repairs.get() >= MPAGES, "every fault healed its block");

    mirror(&host, |m| m.kill_replica(1)).unwrap();
    store.borrow_mut().drop_caches().unwrap();
    assert!(store.borrow().scrub().is_empty(), "healed replica must scrub clean on its own");
}
