//! Typestate tokens for the commit protocol.
//!
//! The store's durability contract hinges on one ordering: journal
//! record → flush barrier → superblock flip → flush. Before this module
//! that ordering was enforced by tests and review; now each phase yields
//! a distinct zero-sized token whose only constructors are the
//! phase-transition methods below, so *skipping or reordering a phase
//! does not typecheck* (SquirrelFS's trick, applied to the Aurora
//! commit path).
//!
//! The state machine (DESIGN.md §15):
//!
//! ```text
//! DirtyTxn ──seal_journal──▶ JournalSealed ──extent_barrier──▶
//!     ExtentsDurable ──flip_superblock──▶ Committed
//! ```
//!
//! * [`DirtyTxn`] — staged mutations exist only in memory and in
//!   unflushed device queues. Minted by [`ObjectStore::begin_txn`];
//!   crashing here loses exactly the pending delta.
//! * [`JournalSealed`] — the delta's journal record has been *submitted*
//!   to the journal region (and nowhere else — the transition checks the
//!   LBAs). Not yet durable: a cut here replays the old state.
//! * [`ExtentsDurable`] — the flush barrier completed, so the journal
//!   record **and every previously submitted data extent** are on the
//!   platter. The superblock still points at the old journal length, so
//!   recovery still serves the old head; a retried transaction rewrites
//!   the same journal offset, which is what makes the flip idempotent.
//! * [`Committed`] — the alternating superblock carrying the new epoch
//!   is durable; recovery now replays the new record.
//!
//! Every journal record — a checkpoint `Commit`, a GC `Delete`, a
//! compaction `Snapshot` — takes this sequence through one private
//! commit step in `store.rs`. The flip receives the new journal geometry
//! from that step as a closure and owns the rollback: a superblock write
//! that never reaches the queue restores the previous superblock, so a
//! retry rewrites the same journal offset. Callers change their
//! in-memory state (checkpoint table, refcounts, delta log) only after
//! the step returns `Ok`.
//!
//! Each token is consumed **by value** by the next transition, so a
//! token can be used at most once, and only the transition that does the
//! corresponding device I/O can mint the next one. The `commit_phase`
//! lint (crates/lint) closes the remaining hole: raw `submit_write`/
//! `write_blocks`/`repair_block` calls are forbidden outside the
//! token-bearing functions allowlisted in `lint-allow.toml`.
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
//! Skipping the flush barrier is a type error — `flip_superblock` wants
//! [`ExtentsDurable`], not [`JournalSealed`]:
//!
//! ```compile_fail,E0308
//! use aurora_objstore::{txn::JournalSealed, ObjectStore};
//!
//! fn skip_barrier(s: &mut ObjectStore, sealed: JournalSealed) {
//!     let _ = s.flip_superblock(sealed, |_| {}); // expected `ExtentsDurable`
//! }
//! ```
//!
//! Reordering — flipping the superblock straight from a dirty
//! transaction — is equally rejected:
//!
//! ```compile_fail,E0308
//! use aurora_objstore::ObjectStore;
//!
//! fn flip_first(s: &mut ObjectStore) {
//!     let txn = s.begin_txn();
//!     let _ = s.flip_superblock(txn, |_| {}); // expected `ExtentsDurable`, found `DirtyTxn`
//! }
//! ```
//!
//! Tokens cannot be forged outside this module (private field):
//!
//! ```compile_fail,E0451
//! let fake = aurora_objstore::txn::ExtentsDurable { _sealed: () };
//! ```
//!
//! And a consumed token cannot be replayed (moved value):
//!
//! ```compile_fail,E0382
//! use aurora_objstore::{txn::ExtentsDurable, ObjectStore};
//!
//! fn double_flip(s: &mut ObjectStore, tok: ExtentsDurable) {
//!     let _ = s.flip_superblock(tok, |_| {});
//!     let _ = s.flip_superblock(tok, |_| {}); // use of moved value
//! }
//! ```

use aurora_hw::BLOCK_SIZE;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;

use crate::layout::{Superblock, JOURNAL_START};
use crate::store::ObjectStore;

/// Phase 0: staged mutations, nothing journaled. See the module docs.
#[must_use = "a transaction token does nothing until driven through the phases"]
#[derive(Debug)]
pub struct DirtyTxn {
    _sealed: (),
}

/// Phase 1: the journal record is submitted (not yet durable).
#[must_use = "a sealed journal is not durable until the extent barrier"]
#[derive(Debug)]
pub struct JournalSealed {
    _sealed: (),
}

/// Phase 2: journal record and all prior data extents are on the
/// platter; the superblock still points at the old state.
#[must_use = "durable extents are invisible until the superblock flips"]
#[derive(Debug)]
pub struct ExtentsDurable {
    _sealed: (),
}

/// Phase 3: the flipped superblock is durable — the transaction is the
/// recovered state from here on.
#[derive(Debug)]
pub struct Committed {
    _sealed: (),
}

impl ObjectStore {
    /// Opens a commit transaction over the staged delta, minting the
    /// phase-0 token. Purely a typestate operation — no I/O.
    pub fn begin_txn(&mut self) -> DirtyTxn {
        DirtyTxn { _sealed: () }
    }

    /// Phase transition `DirtyTxn → JournalSealed`: submits the
    /// transaction's records to the journal region.
    ///
    /// Every write must target the journal (`JOURNAL_START ..
    /// data_start`) — this transition is the only licensed journal
    /// writer, so the check turns a stray LBA into an error instead of
    /// a corrupted data block.
    pub fn seal_journal(
        &mut self,
        txn: DirtyTxn,
        writes: &[(u64, &[u8])],
    ) -> Result<JournalSealed> {
        let DirtyTxn { _sealed: () } = txn;
        let journal_end = self.sb.data_start();
        for &(lba, bytes) in writes {
            let blocks = (bytes.len() as u64).div_ceil(BLOCK_SIZE as u64);
            if lba < JOURNAL_START || lba + blocks > journal_end {
                return Err(Error::internal(format!(
                    "seal_journal write at lba {lba} (+{blocks} blocks) is outside \
                     the journal region [{JOURNAL_START}, {journal_end})"
                )));
            }
            self.dev.get_mut().submit_write(lba, bytes)?;
        }
        self.stats.journal_seals += 1;
        Ok(JournalSealed { _sealed: () })
    }

    /// Phase transition `JournalSealed → ExtentsDurable`: the flush
    /// barrier that makes the sealed record *and every data extent
    /// submitted before it* durable.
    pub fn extent_barrier(&mut self, sealed: JournalSealed) -> Result<ExtentsDurable> {
        let JournalSealed { _sealed: () } = sealed;
        self.dev.get_mut().flush()?;
        self.stats.extent_barriers += 1;
        Ok(ExtentsDurable { _sealed: () })
    }

    /// Phase transition `ExtentsDurable → Committed`: applies `next` (the
    /// caller's new journal geometry) to the superblock, bumps the epoch,
    /// writes the alternating superblock slot and flushes. Returns the
    /// virtual instant at which the transaction is power-loss-safe (the
    /// caller's clock is not advanced).
    ///
    /// Consumes the barrier evidence **by value** — there is no way to
    /// flip the superblock twice from one barrier, or without one.
    ///
    /// The flip owns its rollback. A superblock write that never reaches
    /// the queue restores the previous superblock, so a retry rewrites
    /// the same journal offset under the same epoch. A flush that fails
    /// after the write was queued keeps the new superblock: it may or may
    /// not be on the platter, which is a crash, and recovery decides.
    pub fn flip_superblock(
        &mut self,
        tok: ExtentsDurable,
        next: impl FnOnce(&mut Superblock),
    ) -> Result<(Committed, SimTime)> {
        let ExtentsDurable { _sealed: () } = tok;
        let prev = self.sb.clone();
        next(&mut self.sb);
        self.sb.epoch += 1;
        let slot = self.sb.epoch % 2;
        if let Err(e) = self.dev.get_mut().submit_write(slot, &self.sb.to_block()) {
            self.sb = prev;
            return Err(e);
        }
        let durable = self.dev.get_mut().flush()?;
        self.stats.superblock_flips += 1;
        Ok((Committed { _sealed: () }, durable))
    }
}
