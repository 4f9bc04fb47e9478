//! Typestate tokens for the commit protocol.
//!
//! The store's durability contract hinges on one ordering: a journal
//! record is committed when the flush queued behind it completes, and
//! that one flush also makes every data extent submitted before the
//! record durable. Each phase yields a distinct token whose only
//! constructors are the phase-transition methods below, so *skipping or
//! reordering a phase does not typecheck* (SquirrelFS's trick, applied
//! to the Aurora commit path).
//!
//! The state machine (DESIGN.md §15):
//!
//! ```text
//! DirtyTxn ──append_record──▶ Submitted ──commit_flush──▶ Committed
//! DirtyTxn ──write_snapshot──▶ SnapshotDurable ──flip_superblock──▶ Committed
//! ```
//!
//! * [`DirtyTxn`] — staged mutations exist only in memory and in
//!   unflushed device queues. Minted by [`ObjectStore::begin_txn`];
//!   crashing here loses exactly the pending delta.
//! * [`Submitted`] — the record has been *submitted* at the tail of the
//!   active journal half (and nowhere else — the transition checks the
//!   LBAs). Not yet durable: a cut here recovers the old state, or — on
//!   a device that persists the record before its data — a record whose
//!   page digest recovery rejects.
//! * [`Committed`] — the flush behind the record completed: the record
//!   and every data extent before it are on the platter, and recovery's
//!   tail scan replays the record.
//! * [`SnapshotDurable`] — compaction's snapshot is flushed into the
//!   idle half. Only the half switch's superblock flip consumes it, so
//!   the superblock never points at a half whose snapshot is not
//!   durable.
//!
//! Every appended record — a checkpoint `Commit`, a GC `Delete` — takes
//! the first path through one private commit step in `commit.rs`;
//! compaction's `Snapshot` takes the second. The tail only advances
//! when the flush succeeds, so a failed step leaves the journal geometry
//! as it was and a retry rewrites the same offset. The flip owns its
//! rollback: a superblock write that never reaches the queue restores
//! the previous superblock. Callers change their in-memory state
//! (checkpoint table, refcounts, delta log) only after the step returns
//! `Ok`.
//!
//! Each token is consumed **by value** by the next transition, so a
//! token can be used at most once, and only the transition that does the
//! corresponding device I/O can mint the next one. The `commit_phase`
//! lint (crates/lint) closes the remaining hole: raw `write_blocks`/
//! `repair_block`/`discard` calls are forbidden outside the functions
//! allowlisted in `lint-allow.toml`.
//!
//! A valid sequence compiles and runs (this is `ObjectStore::commit`):
//!
//! ```
//! use aurora_hw::ModelDev;
//! use aurora_objstore::{ObjId, ObjectStore, StoreConfig};
//! use aurora_sim::SimClock;
//!
//! let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", 64 * 1024));
//! let mut s = ObjectStore::format(dev, StoreConfig::default()).unwrap();
//! s.create_object(ObjId(1), 4).unwrap();
//! s.write_page(ObjId(1), 0, &aurora_vm::PageData::Seeded(7)).unwrap();
//! let txn = s.begin_txn();
//! let (ckpt, _durable) = s.commit_txn(txn, Some("typed")).unwrap();
//! assert_eq!(s.checkpoint_by_name("typed").unwrap().id, ckpt);
//! ```
//!
//! No record is committed without its flush — a [`Submitted`] record
//! is not a [`Committed`] one:
//!
//! ```compile_fail,E0308
//! use aurora_objstore::{txn::{Committed, DirtyTxn}, ObjectStore};
//!
//! fn skip_flush(s: &mut ObjectStore, txn: DirtyTxn, frame: &[u8]) -> Committed {
//!     s.append_record(txn, frame).unwrap() // expected `Committed`, found `Submitted`
//! }
//! ```
//!
//! No superblock flips from an unflushed snapshot — or from an appended
//! record, or straight from a dirty transaction:
//!
//! ```compile_fail,E0308
//! use aurora_objstore::{txn::Submitted, ObjectStore};
//!
//! fn flip_unflushed(s: &mut ObjectStore, submitted: Submitted) {
//!     let _ = s.flip_superblock(submitted); // expected `SnapshotDurable`
//! }
//! ```
//!
//! ```compile_fail,E0308
//! use aurora_objstore::ObjectStore;
//!
//! fn flip_first(s: &mut ObjectStore) {
//!     let txn = s.begin_txn();
//!     let _ = s.flip_superblock(txn); // expected `SnapshotDurable`, found `DirtyTxn`
//! }
//! ```
//!
//! Tokens cannot be forged outside this module (private fields):
//!
//! ```compile_fail,E0451
//! let fake = aurora_objstore::txn::SnapshotDurable { used: 4096 };
//! ```
//!
//! ```compile_fail,E0451
//! let fake = aurora_objstore::txn::Committed { _sealed: () };
//! ```
//!
//! And a consumed token cannot be replayed (moved value):
//!
//! ```compile_fail,E0382
//! use aurora_objstore::{txn::Submitted, ObjectStore};
//!
//! fn double_flush(s: &mut ObjectStore, tok: Submitted) {
//!     let _ = s.commit_flush(tok);
//!     let _ = s.commit_flush(tok); // use of moved value
//! }
//! ```

use aurora_hw::BLOCK_SIZE;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_vm::PageData;

use crate::layout::JOURNAL_START;
use crate::store::ObjectStore;

/// Phase 0: staged mutations, nothing journaled. See the module docs.
#[must_use = "a transaction token does nothing until driven through the phases"]
#[derive(Debug)]
pub struct DirtyTxn {
    _sealed: (),
}

/// Phase 1: the record is submitted at the journal tail (not yet
/// durable). Carries where the tail moves once it is.
#[must_use = "a submitted record is not durable until its flush"]
#[derive(Debug)]
pub struct Submitted {
    end: u64,
}

/// Phase 2: the record's flush completed — the record and every data
/// extent submitted before it are durable.
#[derive(Debug)]
pub struct Committed {
    _sealed: (),
}

/// Compaction's snapshot is durable in the idle half, `used` bytes long;
/// the superblock still points at the active one.
#[must_use = "a durable snapshot is invisible until the superblock flips"]
#[derive(Debug)]
pub struct SnapshotDurable {
    used: u64,
}

impl ObjectStore {
    /// Opens a commit transaction over the staged delta, minting the
    /// phase-0 token. Purely a typestate operation — no I/O.
    pub fn begin_txn(&mut self) -> DirtyTxn {
        DirtyTxn { _sealed: () }
    }

    /// Phase transition `DirtyTxn → Submitted`: submits one encoded frame
    /// at the tail of the active journal half. A frame that would run
    /// past the half is refused — making room is the caller's job.
    pub fn append_record(&mut self, txn: DirtyTxn, frame: &[u8]) -> Result<Submitted> {
        let DirtyTxn { _sealed: () } = txn;
        let end = self.sb.journal_used + frame.len() as u64;
        if end > self.sb.journal_half_bytes() {
            return Err(Error::no_space(format!(
                "a {}-byte record does not fit the journal half ({} of {} bytes used)",
                frame.len(),
                self.sb.journal_used,
                self.sb.journal_half_bytes()
            )));
        }
        let lba = self.sb.journal_base + self.sb.journal_used / BLOCK_SIZE as u64;
        self.submit_journal(lba, frame)?;
        Ok(Submitted { end })
    }

    /// Phase transition `Submitted → Committed`: the one flush that makes
    /// the record *and every data extent submitted before it* durable.
    /// Its completion is the durable instant returned (the caller's clock
    /// is not advanced). Only now does the journal tail move past the
    /// record: a failed flush leaves it where a retry rewrites it.
    pub fn commit_flush(&mut self, submitted: Submitted) -> Result<(Committed, SimTime)> {
        let Submitted { end } = submitted;
        let durable = self.dev.get_mut().flush()?;
        self.stats.extent_barriers += 1;
        self.sb.journal_used = end;
        Ok((Committed { _sealed: () }, durable))
    }

    /// Phase transition `DirtyTxn → SnapshotDurable`: writes compaction's
    /// snapshot frame at the start of the idle half and flushes it. The
    /// frame must carry the generation the flip will give that half, the
    /// superblock epoch plus one.
    pub fn write_snapshot(&mut self, txn: DirtyTxn, frame: &[u8]) -> Result<SnapshotDurable> {
        let DirtyTxn { _sealed: () } = txn;
        let used = frame.len() as u64;
        if used > self.sb.journal_half_bytes() {
            return Err(Error::no_space("journal too small for metadata snapshot"));
        }
        self.submit_journal(self.sb.journal_other_half(), frame)?;
        self.dev.get_mut().flush()?;
        self.stats.extent_barriers += 1;
        Ok(SnapshotDurable { used })
    }

    /// Phase transition `SnapshotDurable → Committed`: switches journal
    /// halves. Points the superblock at the idle half and its snapshot,
    /// bumps the epoch (the half's new generation), and writes it to
    /// slot 0, flushes, then to slot 1, flushes. Returns the virtual
    /// instant at which both copies are power-loss-safe (the caller's
    /// clock is not advanced). The only superblock writes after format.
    ///
    /// The first flushed copy is the switch. The second is there because
    /// the superblock is now written once per half switch, not once per
    /// commit: a silently damaged copy would otherwise stand until the
    /// next switch, and recovery's fallback to the other slot would
    /// lose every record since this one — or find its half overwritten
    /// by the next switch's snapshot. With both slots written, either
    /// one carries the switch.
    ///
    /// The flip owns its rollback. A first write that never reaches the
    /// queue restores the previous superblock, so a retry writes the
    /// same snapshot under the same generation. Any failure after it was
    /// queued keeps the new superblock: it may or may not be on the
    /// platter, which is a crash, and recovery decides. A failure of the
    /// slot-1 write or of its flush comes after slot 0 made the switch
    /// durable: the flip still returns the error, and slot 1 keeps the
    /// previous superblock until the next switch writes both. Until then
    /// the switch rests on slot 0 alone — a damaged slot 0 falls back to
    /// the previous half and loses the records appended since.
    pub fn flip_superblock(&mut self, snapshot: SnapshotDurable) -> Result<(Committed, SimTime)> {
        let SnapshotDurable { used } = snapshot;
        let prev = self.sb.clone();
        self.sb.journal_base = self.sb.journal_other_half();
        self.sb.journal_used = used;
        self.sb.epoch += 1;
        let block = [PageData::from_bytes(&self.sb.to_block())];
        if let Err(e) = self.dev.get_mut().write_blocks(0, &block) {
            self.sb = prev;
            return Err(e);
        }
        self.dev.get_mut().flush()?;
        self.dev.get_mut().write_blocks(1, &block)?;
        let durable = self.dev.get_mut().flush()?;
        self.stats.superblock_flips += 1;
        Ok((Committed { _sealed: () }, durable))
    }

    /// The only licensed journal writer, private to the two transitions
    /// above. Every block must land in one journal half — checked, so a
    /// stray LBA is an error instead of a corrupted block.
    fn submit_journal(&mut self, lba: u64, frame: &[u8]) -> Result<()> {
        let blocks = (frame.len() as u64).div_ceil(BLOCK_SIZE as u64);
        let half = self.sb.journal_half_blocks();
        let halves = [JOURNAL_START, JOURNAL_START + half];
        if !halves.iter().any(|&h| lba >= h && lba + blocks <= h + half) {
            return Err(Error::internal(format!(
                "journal write at lba {lba} (+{blocks} blocks) crosses a journal half"
            )));
        }
        if !frame.len().is_multiple_of(BLOCK_SIZE) {
            return Err(Error::internal(format!(
                "journal frame of {} bytes is not whole blocks",
                frame.len()
            )));
        }
        let chunks: Vec<PageData> = frame.chunks(BLOCK_SIZE).map(PageData::from_bytes).collect();
        self.dev.get_mut().write_blocks(lba, &chunks)?;
        self.stats.journal_seals += 1;
        Ok(())
    }
}
