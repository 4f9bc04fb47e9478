//! The commit step of the object store: checkpoint commits, GC deletes
//! and journal compaction all append their record and flush once
//! through one private step, and memory changes only after it returns
//! `Ok`. Dropping the staged delta lives here too.

use std::collections::BTreeMap;

use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;

use crate::alloc::BlockAlloc;
use crate::checkpoint::{Checkpoint, CkptId};
use crate::deltalog::{DeltaRecord, Lsn};
use crate::journal::{self, JournalRecord};
use crate::read::CacheKey;
use crate::store::{committed_refs, ObjectStore};
use crate::txn::DirtyTxn;
use crate::ObjId;

impl ObjectStore {
    /// Commits the pending delta as a checkpoint.
    ///
    /// Returns the checkpoint id and the virtual instant at which it is
    /// durable. The caller's clock is *not* advanced to that instant.
    ///
    /// Failure atomicity: the pending delta, refcounts and checkpoint
    /// table are only mutated after every device write has succeeded. A
    /// commit that fails mid-flush (transient fault, dead device) leaves
    /// the store exactly as it was — still consistent, still holding the
    /// staged delta — so the caller can retry or abandon it.
    pub fn commit(&mut self, name: Option<&str>) -> Result<(CkptId, SimTime)> {
        let txn = self.begin_txn();
        self.commit_txn(txn, name)
    }

    /// [`ObjectStore::commit`] with a caller-minted [`DirtyTxn`] — the
    /// entry point for paths (stream import, replication apply) that
    /// open the transaction before staging their writes, so the token
    /// witnesses the whole mutation, not just its tail.
    pub fn commit_txn(
        &mut self,
        txn: DirtyTxn,
        name: Option<&str>,
    ) -> Result<(CkptId, SimTime)> {
        let id = CkptId(self.sb.next_ckpt);
        // Assign LSNs to the staged delta records in key order (the
        // staging map is a BTreeMap, so the order — and therefore the
        // journal image — is deterministic across worker counts).
        let mut new_records: Vec<(Lsn, DeltaRecord)> = Vec::new();
        let mut delta_heads: BTreeMap<(ObjId, u64), Lsn> = BTreeMap::new();
        let mut lsn = self.delta.next_lsn();
        for (&key, rec) in &self.pending_deltas {
            delta_heads.insert(key, lsn);
            new_records.push((lsn, rec.clone()));
            lsn += 1;
        }
        let ck = Checkpoint {
            id,
            parent: self.head(),
            name: name.map(str::to_string),
            new_objects: self.pending_new_objects.clone(),
            deleted_objects: self.pending_deleted.clone(),
            pages: self.pending_pages.clone(),
            deltas: delta_heads,
            blobs: self.pending_blobs.clone(),
            durable_at: SimTime::ZERO,
        };

        // The digest covers the blocks the record names, from the hashes
        // dedup recorded when they were written.
        let digest = {
            let cache = self.cache.borrow();
            journal::page_digest(ck.pages.values().map(|p| cache.block_hash.get(&p.0).copied()))
        };
        let record = JournalRecord::Commit {
            ckpt: ck.clone(),
            deltas: new_records.clone(),
            digest,
        };
        let (durable, journaled) = self.commit_record(txn, &record)?;

        // The record is durable: consume the pending delta and publish.
        self.sb.next_ckpt = id.0 + 1;
        self.stats.bytes_journaled += journaled;
        self.pending_new_objects.clear();
        self.pending_deleted.clear();
        self.pending_pages.clear();
        self.pending_blobs.clear();
        self.pending_deltas.clear();
        // Each staged page's reference passes to the checkpoint. The
        // delta records are committed, and the head image now reads
        // through them.
        for (l, rec) in new_records {
            self.stats.delta_records += 1;
            self.stats.delta_bytes += rec.encoded_len() as u64;
            self.stats.chain_len_max = self.stats.chain_len_max.max(rec.chain_len as u64);
            self.delta.insert(l, rec)?;
        }
        ck.deltas.values().for_each(|&head| self.delta.hold(head));
        let mut ck = ck;
        ck.durable_at = durable;
        self.head_image.apply(&ck, ..);
        self.ckpts.insert(id.0, ck);
        self.stats.commits += 1;
        Ok((id, durable))
    }

    /// The one commit step every appended record takes: make room,
    /// append the record at the active half's tail, flush once. Returns
    /// the durable instant — the flush's completion — and the record's
    /// encoded length.
    ///
    /// A record that does not fit first compacts: the snapshot lands in
    /// the *idle* half and only the superblock flip switches halves, so a
    /// power cut at any point leaves a durable superblock over an intact
    /// half — the old records or the complete snapshot, never a
    /// half-overwritten mix. Frames carry the active half's generation,
    /// the superblock epoch.
    ///
    /// The tail moves only when the flush succeeds, so a failed step
    /// leaves the journal geometry as it was and a retry rewrites the
    /// same offset. Callers change their in-memory state only after `Ok`.
    fn commit_record(&mut self, txn: DirtyTxn, record: &JournalRecord) -> Result<(SimTime, u64)> {
        let mut frame = journal::encode_frame(record, self.sb.epoch);
        let len = frame.len() as u64;
        if self.sb.journal_used + len > self.sb.journal_half_bytes() {
            // A record that still does not fit is refused by the append.
            self.compact()?;
            frame = journal::encode_frame(record, self.sb.epoch);
        }
        let submitted = self.append_record(txn, &frame)?;
        let (_committed, durable) = self.commit_flush(submitted)?;
        Ok((durable, len))
    }

    /// Rewrites the checkpoint table as one snapshot record in the idle
    /// journal half and switches halves.
    fn compact(&mut self) -> Result<()> {
        let list: Vec<Checkpoint> = self.ckpts.values().cloned().collect();
        // The snapshot carries every still-reachable delta record: "the
        // log is the checkpoint", so compaction must not orphan chains
        // that committed checkpoints still replay through.
        let records: Vec<(Lsn, DeltaRecord)> =
            self.delta.iter().map(|(l, r)| (l, r.clone())).collect();
        // The flip gives the idle half the next epoch as its generation.
        let frame = journal::encode_frame(&JournalRecord::Snapshot(list, records), self.sb.epoch + 1);
        let txn = self.begin_txn();
        let snapshot = self.write_snapshot(txn, &frame)?;
        let (_committed, done) = self.flip_superblock(snapshot)?;
        self.dev.get_mut().clock().advance_to(done);
        self.stats.compactions += 1;
        Ok(())
    }

    /// Garbage-collects a checkpoint in place: still-needed pointers move
    /// to its sole child (metadata only), the rest are released.
    ///
    /// The `Delete` record is durable before anything in memory changes:
    /// a failed write leaves the checkpoint, its blocks and the delta log
    /// exactly as they were.
    pub fn delete_checkpoint(&mut self, id: CkptId) -> Result<()> {
        if self.head() == Some(id) {
            return Err(Error::invalid("cannot GC the head checkpoint"));
        }
        self.checkpoint(id)?;
        let children = self.ckpts.values().filter(|c| c.parent == Some(id)).count();
        if children > 1 {
            return Err(Error::invalid(format!(
                "checkpoint {} has {children} children; GC requires a linear chain",
                id.0
            )));
        }
        let txn = self.begin_txn();
        let (done, _) = self.commit_record(txn, &JournalRecord::Delete(id))?;
        self.dev.get_mut().clock().advance_to(done);
        // The victim's records move to its child or go: their read-cache
        // entries name a checkpoint that no longer exists.
        if let Some(victim) = self.ckpts.get(&id.0) {
            let read = &mut self.cache.get_mut().read;
            for key in victim.blobs.keys() {
                read.forget(&CacheKey::Record(id, key.clone()));
            }
        }
        let dropped = journal::apply_delete(&mut self.ckpts, id)?;
        for ptr in dropped.blocks {
            self.release_block(ptr);
        }
        // Only the chains under the heads the merge dropped can die: the
        // release walks each one down while its counts reach zero.
        for head in dropped.heads {
            self.delta.release(head);
        }
        // A staged record's `prev` is the head image's entry: a head some
        // checkpoint holds, which the merge moves but never drops.
        debug_assert!(
            self.pending_deltas
                .values()
                .filter_map(|r| r.prev)
                .all(|p| self.delta.refs(p) > 0),
            "GC freed a delta record a staged record chains onto"
        );
        self.stats.gc_runs += 1;
        Ok(())
    }

    /// True if an uncommitted delta is staged (pages, blobs, object
    /// births or deletions since the last commit).
    pub fn has_pending(&self) -> bool {
        !self.pending_pages.is_empty()
            || !self.pending_blobs.is_empty()
            || !self.pending_new_objects.is_empty()
            || !self.pending_deleted.is_empty()
            || !self.pending_deltas.is_empty()
    }

    /// Discards the staged (uncommitted) delta and rebuilds refcounts
    /// (checkpoint page entries only, now nothing is staged) and the
    /// dedup index, from the recorded hashes of the blocks still held —
    /// the store-side half of aborting a failed checkpoint.
    ///
    /// Afterwards the store is indistinguishable from one freshly
    /// recovered at the current head: [`ObjectStore::fsck`] is clean and
    /// every committed checkpoint restores. Callers that share the store
    /// with live clients holding uncommitted state (SLSFS file writes on
    /// the primary store) must resynchronize those clients; the SLS
    /// checkpoint pipeline therefore aborts by forcing the next
    /// checkpoint full instead of rolling the primary store back.
    pub fn rollback_pending(&mut self) -> Result<()> {
        self.pending_pages.clear();
        self.pending_blobs.clear();
        self.pending_new_objects.clear();
        self.pending_deleted.clear();
        self.pending_deltas.clear();
        let refs = committed_refs(&self.ckpts);
        self.alloc = BlockAlloc::from_refs(self.sb.data_blocks(), &refs);
        self.cache.get_mut().keep_allocated(&self.alloc);
        Ok(())
    }
}
