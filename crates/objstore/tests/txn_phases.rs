//! Phase-boundary crash tests for the typestate commit protocol
//! (`objstore::txn`): every write ordinal inside a commit must be a
//! valid power-cut point, a cut on the half switch's superblock flip
//! must redo cleanly, a transient failure on the last write of any
//! journal record's commit step must change nothing, and an ordinary
//! commit must pass its phases once and write no superblock. The *compile-time* half
//! of the protocol — skipped or reordered tokens failing to typecheck —
//! lives in the `compile_fail` doctests on `objstore::txn` and
//! `aurora_hw::mirror::ResilverBarrier`.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use aurora_hw::{FaultPlan, ModelDev};
use aurora_objstore::layout::Superblock;
use aurora_objstore::{ObjId, ObjectStore, StoreConfig};
use aurora_sim::SimClock;
use aurora_vm::PageData;

const DEV_BLOCKS: u64 = 64 * 1024;

fn page(fill: u8) -> PageData {
    let mut b = vec![0u8; aurora_vm::PAGE_SIZE];
    b.iter_mut().for_each(|x| *x = fill);
    PageData::from_bytes(&b)
}

/// A store with one durable checkpoint (`page(1)` at slot 0, named
/// "base") and a staged-but-uncommitted overwrite (`page(2)`). The
/// second commit's device writes start at ordinal 1 once a fault plan
/// is installed here.
fn staged_store() -> (ObjectStore, aurora_objstore::CkptId) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 1024,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    let (c1, _) = s.commit(Some("base")).unwrap();
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    (s, c1)
}

/// The number of device writes a clean second commit issues. The last
/// ordinal is always the journal record, the commit point once flushed
/// (the staged data extents were already submitted by `write_page`).
fn commit_write_count() -> u64 {
    let (mut s, _) = staged_store();
    let before = s.device().stats().writes;
    s.commit(Some("clean")).unwrap();
    let w = s.device().stats().writes - before;
    assert!(w >= 1, "a commit writes at least its journal record, got {w}");
    w
}

/// The sweep: cut power on every write ordinal of the commit. A cut on
/// the record write is the "Submitted reached, Committed not" boundary:
/// the record never reached the platter, so the tail scan stops before
/// it. In every case recovery must land exactly on the old head with a
/// clean fsck, and the torn checkpoint must not exist.
#[test]
fn every_commit_write_ordinal_is_a_valid_cut_point() {
    let w = commit_write_count();
    for cut in 1..=w {
        let (mut s, c1) = staged_store();
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut));
        match s.commit(Some("torn")) {
            Ok((c2, _)) => {
                // The cut fired after the durable instant (not expected
                // for any ordinal ≤ w, but tolerated like the existing
                // campaign tests): the new head must survive reboot.
                s.device_mut().install_fault_plan(FaultPlan::default());
                let s = s.recover().unwrap();
                assert_eq!(s.head(), Some(c2), "durable commit survives, cut {cut}");
            }
            Err(_) => {
                let s = s.recover().unwrap();
                assert_eq!(s.head(), Some(c1), "old head after cut at write {cut}");
                assert!(
                    s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)),
                    "old contents after cut at write {cut}"
                );
                assert!(
                    s.checkpoint_by_name("torn").is_none(),
                    "torn checkpoint invisible after cut at write {cut}"
                );
                assert!(s.fsck().is_empty(), "cut {cut}: {:?}", s.fsck());
            }
        }
    }
}

/// A record longer than one block is one write ordinal per block, so a
/// cut can land inside it: the blocks ahead of the cut are lost with the
/// volatile cache, the cut block lands torn, and the blocks after it
/// never reach the device. That torn tail fails the frame's CRC, so for
/// a cut on every block of the record recovery must land on the old
/// head.
#[test]
fn a_cut_on_any_block_of_a_multi_block_record_leaves_the_old_head() {
    // Enough page-table entries that the commit record spans blocks.
    const PAGES: u64 = 1024;
    let staged = || {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        let config = StoreConfig {
            journal_blocks: 1024,
            ..StoreConfig::default()
        };
        let mut s = ObjectStore::format(dev, config).unwrap();
        s.create_object(ObjId(1), PAGES).unwrap();
        for i in 0..PAGES {
            s.write_page(ObjId(1), i, &page(1)).unwrap();
        }
        let (c1, _) = s.commit(Some("base")).unwrap();
        for i in 0..PAGES {
            s.write_page(ObjId(1), i, &page(2)).unwrap();
        }
        (s, c1)
    };
    // On a clean run the commit's one write is the record.
    let (mut s, _) = staged();
    let before = s.device().stats().clone();
    s.commit(Some("clean")).unwrap();
    let after = s.device().stats().clone();
    assert_eq!(
        after.writes,
        before.writes + 1,
        "the record is the only write"
    );
    let blocks = (after.bytes_written - before.bytes_written) / aurora_hw::BLOCK_SIZE as u64;
    assert!(blocks > 1, "the record spans {blocks} block(s)");

    for cut in 1..=blocks {
        let (mut s, c1) = staged();
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut));
        s.commit(Some("torn"))
            .expect_err("a cut inside the record fails the commit");
        let mut s = s.recover().unwrap();
        s.device_mut().install_fault_plan(FaultPlan::default());
        assert_eq!(
            s.head(),
            Some(c1),
            "cut on block {cut} of {blocks}: old head"
        );
        assert!(
            s.checkpoint_by_name("torn").is_none(),
            "cut on block {cut}: the torn record is invisible"
        );
        assert!(s
            .read_page(ObjId(1), 7)
            .unwrap()
            .unwrap()
            .content_eq(&page(1)));
        assert!(s.fsck().is_empty(), "cut on block {cut}: {:?}", s.fsck());
    }
}

/// The flip boundary: a power cut on either of the half switch's
/// superblock writes happens with the snapshot flushed into the idle
/// half — `SnapshotDurable` in token terms — and the commit that needed
/// the room not yet appended. A cut on the first copy leaves the old
/// half current, a cut on the second the new one; either way recovery
/// must land on the old head, and redoing the commit afterwards must
/// produce the new state: the flip is idempotent with respect to a
/// crash between the snapshot's flush and the superblock.
#[test]
fn cut_on_superblock_flip_then_redo() {
    let flip = Record::CompactingCommit.flip_ordinal(false);
    for (cut, switched) in [(flip, false), (flip + 1, true)] {
        let mut s = Record::CompactingCommit.store(false);
        let old_head = s.head().unwrap();
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut));
        s.commit(Some("torn")).expect_err("cut on a flip write fails the commit");

        let mut s = s.recover().unwrap();
        s.device_mut().install_fault_plan(FaultPlan::default());
        assert_eq!(s.head(), Some(old_head), "cut {cut}: the commit never appended");

        // Redo: recovery dropped the staged delta, so stage it again and
        // commit. With the first copy cut, the redo switches halves and
        // rewrites the snapshot the cut run left in the idle half; with
        // the second cut, the switch was already durable.
        s.write_page(ObjId(1), 0, &page(0x42)).unwrap();
        let (c2, _) = s.commit(Some("redo")).unwrap();
        let flips = u64::from(!switched);
        assert_eq!(s.stats.superblock_flips, flips, "cut {cut}: redo flips");
        let s = s.recover().unwrap();
        assert_eq!(s.head(), Some(c2), "cut {cut}: redone commit is durable");
        assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(0x42)));
        assert!(s.fsck().is_empty(), "cut {cut}: {:?}", s.fsck());
    }
}

/// The record kinds that go through the commit step, each set up so
/// that one call writes it.
#[derive(Debug, Clone, Copy)]
enum Record {
    /// A checkpoint `Commit` of a staged overwrite.
    Commit,
    /// A GC `Delete` of the head's parent.
    GcDelete,
    /// A `Commit` that does not fit in the active journal half, so the
    /// step first writes a compaction `Snapshot` and switches halves.
    /// The fault lands on the switch's superblock flip.
    CompactingCommit,
}

impl Record {
    /// A store ready for the record: one or more durable checkpoints
    /// and, for the commits, a staged overwrite.
    fn store(self, materialize_data: bool) -> ObjectStore {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        let journal_blocks = match self {
            // Two halves of four blocks: four one-block commits fill one.
            Record::CompactingCommit => 8,
            _ => 1024,
        };
        let mut s = ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks,
                materialize_data,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        s.create_object(ObjId(1), 4).unwrap();
        let commits = match self {
            Record::Commit => 1,
            Record::GcDelete => 2,
            Record::CompactingCommit => 4,
        };
        for fill in 1..=commits {
            s.write_page(ObjId(1), 0, &page(fill)).unwrap();
            s.commit(None).unwrap();
        }
        if !matches!(self, Record::GcDelete) {
            s.write_page(ObjId(1), 0, &page(commits + 1)).unwrap();
        }
        s
    }

    /// Writes the record.
    fn write(self, s: &mut ObjectStore) -> aurora_sim::error::Result<()> {
        match self {
            Record::Commit | Record::CompactingCommit => s.commit(None).map(|_| ()),
            Record::GcDelete => {
                let head = s.head().unwrap();
                let parent = s.checkpoint(head).unwrap().parent.unwrap();
                s.delete_checkpoint(parent)
            }
        }
    }

    /// The ordinal of the step's last durable-making write among the
    /// call's device writes, counted on a fault-free run: the record of
    /// a `Commit` or `Delete`, the superblock of a half switch.
    fn flip_ordinal(self, materialize_data: bool) -> u64 {
        let mut s = self.store(materialize_data);
        let (writes, compactions) = (s.device().stats().writes, s.stats.compactions);
        self.write(&mut s).unwrap();
        let w = s.device().stats().writes - writes;
        match self {
            Record::Commit | Record::GcDelete => w,
            Record::CompactingCommit => {
                assert_eq!(s.stats.compactions, compactions + 1, "the commit compacts");
                // The switch writes both superblock slots, slot 0 first;
                // the commit's own record follows.
                w - 2
            }
        }
    }
}

/// The checkpoint table, without the in-memory durable instants.
fn table(s: &ObjectStore) -> Vec<String> {
    s.checkpoints()
        .into_iter()
        .map(|c| {
            let mut c = c.clone();
            c.durable_at = aurora_sim::time::SimTime::ZERO;
            format!("{c:?}")
        })
        .collect()
}

/// The newest valid superblock on the medium.
fn durable_superblock(s: &mut ObjectStore) -> Superblock {
    let mut block = PageData::Zero;
    (0..2)
        .filter_map(|slot| {
            s.device_mut().read_blocks(slot, std::slice::from_mut(&mut block)).unwrap();
            Superblock::from_block(&block.bytes()).ok()
        })
        .max_by_key(|sb| sb.epoch)
        .unwrap()
}

/// Stages one more page and commits it.
fn commit_once_more(s: &mut ObjectStore) {
    s.write_page(ObjId(1), 1, &page(0xEE)).unwrap();
    s.commit(Some("after")).unwrap();
}

/// A *transient* failure on the last write of any journal record's
/// step — a checkpoint commit's record, a GC delete's record, a
/// compaction's superblock flip — changes nothing: the tail only moves
/// after the flush, the flip restores the superblock, and the caller
/// touches memory only after the step succeeds. The in-memory table is
/// the one before the call, and the next commit rewrites the same
/// journal offset under the same epoch as a twin that never made the
/// call.
/// A failure on the flip's slot-1 write comes after slot 0 made the
/// switch durable: the call still fails and changes no table, slot 1
/// keeps the previous superblock, and the next commit appends to the
/// new half just where the twin's own switch puts its record.
/// Recovery then lands on the in-memory table with a clean fsck and
/// scrub, on timing-only and materialized stores alike.
#[test]
fn transient_flip_failure_retries_at_same_journal_offset() {
    let cases = [
        (Record::Commit, 0),
        (Record::GcDelete, 0),
        (Record::CompactingCommit, 0),
        (Record::CompactingCommit, 1),
    ];
    for (record, past_flip) in cases {
        for materialize in [false, true] {
            let case = format!("{record:?} + {past_flip}, materialize_data {materialize}");
            let flip = record.flip_ordinal(materialize) + past_flip;

            let mut faulty = record.store(materialize);
            let before = table(&faulty);
            faulty.device_mut().install_fault_plan(FaultPlan::transient(flip, 1));
            record
                .write(&mut faulty)
                .expect_err("transient fault on the step's last write");
            faulty.device_mut().install_fault_plan(FaultPlan::default());
            assert_eq!(table(&faulty), before, "{case}: a failed flip changes no table");
            commit_once_more(&mut faulty);

            let mut twin = record.store(materialize);
            commit_once_more(&mut twin);
            assert_eq!(table(&faulty), table(&twin), "{case}: same table as the twin");
            let durable = durable_superblock(&mut faulty);
            assert_eq!(
                durable,
                durable_superblock(&mut twin),
                "{case}: the retry rewrote the same journal offset under the same epoch"
            );
            if past_flip == 1 {
                let mut block = PageData::Zero;
                faulty.device_mut().read_blocks(1, std::slice::from_mut(&mut block)).unwrap();
                let slot1 = Superblock::from_block(&block.bytes()).unwrap();
                assert_eq!(slot1.epoch + 1, durable.epoch, "{case}: slot 1 kept the previous one");
            }

            let live = table(&faulty);
            let s = faulty.recover().unwrap();
            assert_eq!(table(&s), live, "{case}: recovery lands on the in-memory table");
            assert!(s.fsck().is_empty(), "{case}: {:?}", s.fsck());
            assert!(s.scrub().is_empty(), "{case}: {:?}", s.scrub());
        }
    }
}

/// Each successful commit appends one record and flushes once, and
/// writes no superblock: only a half switch flips one.
#[test]
fn phase_counters_tick_once_per_commit() {
    let (mut s, _) = staged_store();
    let (seals, barriers, flips) = (
        s.stats.journal_seals,
        s.stats.extent_barriers,
        s.stats.superblock_flips,
    );
    let (flushes, writes) = (s.device().stats().flushes, s.device().stats().writes);
    s.commit(None).unwrap();
    assert_eq!(s.stats.journal_seals, seals + 1, "one record per commit");
    assert_eq!(s.stats.extent_barriers, barriers + 1, "one flush per commit");
    assert_eq!(s.stats.superblock_flips, flips, "no flip per commit");
    assert_eq!(s.device().stats().flushes, flushes + 1, "one device flush");
    assert_eq!(s.device().stats().writes, writes + 1, "the record is the only write");

    // The baseline itself went through the protocol too: format does
    // not count (it predates the store), so two commits → two of each.
    assert_eq!(s.stats.journal_seals, 2);
    assert_eq!(s.stats.extent_barriers, 2);
    assert_eq!(s.stats.superblock_flips, 0);

    // A half switch is the one flip: its snapshot and flush, the
    // superblock in both slots, then the commit's own record and flush.
    let mut s = Record::CompactingCommit.store(false);
    let (seals, barriers, flips) = (
        s.stats.journal_seals,
        s.stats.extent_barriers,
        s.stats.superblock_flips,
    );
    let (flushes, writes) = (s.device().stats().flushes, s.device().stats().writes);
    s.commit(None).unwrap();
    assert_eq!(s.device().stats().writes, writes + 4, "snapshot, both slots, record");
    assert_eq!(s.device().stats().flushes, flushes + 4, "one flush behind each");
    assert_eq!(s.stats.journal_seals, seals + 2);
    assert_eq!(s.stats.extent_barriers, barriers + 2);
    assert_eq!(s.stats.superblock_flips, flips + 1);
}
