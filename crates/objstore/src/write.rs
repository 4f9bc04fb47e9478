//! The write side of the object store: object births, deaths and
//! clones, the live-page resolver, sub-page delta staging and the one
//! page-image writer, [`ObjectStore::write_pages_coalesced`] (a single
//! `write_page` is a one-page batch of it). A failed write stages
//! nothing.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use aurora_hw::BLOCK_SIZE;
use aurora_sim::error::{Error, Result};
use aurora_vm::PageData;

use crate::checkpoint::{page_keys, take_object, PageRef};
use crate::deltalog::DeltaRecord;
use crate::read::runs;
use crate::store::{ObjectStore, EXTENT_BLOCKS};
use crate::{BlockPtr, ObjId};

/// One page write with its content hash already computed (by the
/// flush's parallel hash stage, or by `write_page`) — the unit of
/// [`ObjectStore::write_pages_coalesced`].
#[derive(Debug, Clone)]
pub struct PageWrite {
    /// Destination object.
    pub oid: ObjId,
    /// Page index within the object.
    pub idx: u64,
    /// Page contents.
    pub page: PageData,
    /// Content hash of `page`.
    pub hash: u64,
}

/// Each page's staged block and delta record before a writer call
/// first wrote it.
type Prior = BTreeMap<(ObjId, u64), (Option<BlockPtr>, Option<DeltaRecord>)>;

/// How the live state holds one page.
pub(crate) enum LivePage<'a> {
    /// A delta record staged this epoch: the newest state of all.
    Staged(&'a DeltaRecord),
    /// A staged page or a head-image entry.
    Ref(PageRef),
}

impl ObjectStore {
    /// Creates an object under a caller-chosen id (the SLS assigns ids so
    /// that checkpoint metadata can reference objects stably across
    /// machines).
    pub fn create_object(&mut self, oid: ObjId, size_pages: u64) -> Result<()> {
        if self.object_exists(oid) {
            return Err(Error::already_exists(format!("object {}", oid.0)));
        }
        self.pending_new_objects.push((oid, size_pages));
        Ok(())
    }

    /// Whether the head image speaks for `oid` in the live state: not
    /// when the object was deleted or created this epoch.
    fn head_covers(&self, oid: ObjId) -> bool {
        !self.pending_deleted.contains(&oid)
            && !self.pending_new_objects.iter().any(|(o, _)| *o == oid)
    }

    /// A live object's declared size in pages.
    fn object_size(&self, oid: ObjId) -> Option<u64> {
        match self.pending_new_objects.iter().find(|(o, _)| *o == oid) {
            Some(&(_, size)) => Some(size),
            None if self.pending_deleted.contains(&oid) => None,
            None => self.head_image.objects.get(&oid).copied(),
        }
    }

    /// True if the object exists in the live state.
    pub fn object_exists(&self, oid: ObjId) -> bool {
        self.object_size(oid).is_some()
    }

    /// Live object ids (optionally filtered to a namespace via the
    /// caller). Used by the SLS to prune superseded incarnations.
    pub fn live_object_ids(&self) -> Vec<ObjId> {
        let mut ids: BTreeSet<ObjId> = self
            .head_image
            .objects
            .keys()
            .filter(|oid| !self.pending_deleted.contains(oid))
            .copied()
            .collect();
        ids.extend(self.pending_new_objects.iter().map(|(oid, _)| *oid));
        ids.into_iter().collect()
    }

    /// How the live state holds page `(oid, idx)`: the staged delta
    /// record, else the staged page, else the head image's delta head or
    /// page. `None` for a hole or a missing object.
    pub(crate) fn live_page(&self, oid: ObjId, idx: u64) -> Option<LivePage<'_>> {
        let key = (oid, idx);
        if let Some(rec) = self.pending_deltas.get(&key) {
            return Some(LivePage::Staged(rec));
        }
        if let Some(&ptr) = self.pending_pages.get(&key) {
            return Some(LivePage::Ref(PageRef::Full(ptr)));
        }
        if !self.head_covers(oid) {
            return None;
        }
        if let Some(&lsn) = self.head_image.deltas.get(&key) {
            return Some(LivePage::Ref(PageRef::Delta(lsn)));
        }
        let ptr = self.head_image.pages.get(&key)?;
        Some(LivePage::Ref(PageRef::Full(*ptr)))
    }

    /// Deletes an object from the live state (history stays readable
    /// through older checkpoints).
    pub fn delete_object(&mut self, oid: ObjId) -> Result<()> {
        if !self.object_exists(oid) {
            return Err(Error::not_found(format!("object {}", oid.0)));
        }
        // Pages written this epoch can never be read: drop their staged
        // entries and references. If the object was also born this
        // epoch, it never existed as far as the next checkpoint is
        // concerned.
        for ptr in take_object(&mut self.pending_pages, oid) {
            self.release_block(ptr);
        }
        self.pending_deltas.retain(|(o, _), _| *o != oid);
        if let Some(pos) = self.pending_new_objects.iter().position(|(o, _)| *o == oid) {
            self.pending_new_objects.remove(pos);
        } else {
            self.pending_deleted.push(oid);
        }
        Ok(())
    }

    /// Clones `src` into a new object `dst` without copying any data:
    /// every page pointer is shared and reference counted — the substrate
    /// for SLSFS's zero-copy file/subtree clones and for `sls restore`
    /// images branching off a running application.
    pub fn clone_object(&mut self, src: ObjId, dst: ObjId) -> Result<()> {
        if self.object_exists(dst) {
            return Err(Error::already_exists(format!("object {}", dst.0)));
        }
        let size_pages = self
            .object_size(src)
            .ok_or_else(|| Error::not_found(format!("object {}", src.0)))?;
        let keys = page_keys(src..=src);
        let mut idxs: BTreeSet<u64> =
            self.pending_pages.range(keys).map(|(k, _)| k.1).collect();
        idxs.extend(self.pending_deltas.range(keys).map(|(k, _)| k.1));
        if self.head_covers(src) {
            idxs.extend(self.head_image.pages.range(keys).map(|(k, _)| k.1));
            idxs.extend(self.head_image.deltas.range(keys).map(|(k, _)| k.1));
        }
        self.pending_new_objects.push((dst, size_pages));
        // Pages under a redo chain (committed or staged this epoch)
        // can't be pointer-shared — the share would lose the chain.
        // Materialize those few into full pages for `dst`.
        let mut chained = Vec::new();
        for idx in idxs {
            match self.live_page(src, idx) {
                Some(LivePage::Ref(PageRef::Full(ptr))) => {
                    self.alloc.incref(ptr);
                    self.pending_pages.insert((dst, idx), ptr);
                }
                Some(_) => chained.push(idx),
                None => {}
            }
        }
        for idx in chained {
            let page = self.read_page(src, idx)?.ok_or_else(|| {
                Error::internal(format!("chained page {}/{idx} vanished during clone", src.0))
            })?;
            self.write_page(dst, idx, &page)?;
        }
        Ok(())
    }

    /// Drops one reference on `ptr`, evicting its body at the last.
    pub(crate) fn release_block(&mut self, ptr: BlockPtr) {
        if self.alloc.decref(ptr) {
            self.cache.get_mut().evict(ptr);
        }
    }

    /// Writes one page of an object: a one-page batch of
    /// [`ObjectStore::write_pages_coalesced`], so a dedup hit is a
    /// refcount bump and a miss is one single-block extent. Failure
    /// atomic, like every batch.
    pub fn write_page(&mut self, oid: ObjId, idx: u64, page: &PageData) -> Result<()> {
        let hash = page.content_hash();
        let write = PageWrite { oid, idx, page: page.clone(), hash };
        self.write_pages_coalesced([&write])
    }

    /// Writes a batch of pages: the store's one page-image writer.
    ///
    /// Dedup decisions, allocations and staging happen in plan order,
    /// and the last write of a page wins. The fresh blocks still
    /// referenced then sort into runs of adjacent lbas, each submitted
    /// as one [`BlockDev::write_blocks`] extent of at most
    /// [`EXTENT_BLOCKS`] (a timing-only charge on a store that does not
    /// materialize data).
    ///
    /// A failed call stages nothing. Whatever failed — a missing object,
    /// a full data region, a refused extent — every page gets its
    /// previous staged entry and delta record back, every reference the
    /// call took is dropped and a body that loses its last one is
    /// evicted, so no later dedup hit or cache read can serve bytes the
    /// medium does not hold. Only the allocator's placement cursor, a
    /// hint, stays where the call moved it.
    ///
    /// [`BlockDev::write_blocks`]: aurora_hw::BlockDev::write_blocks
    pub fn write_pages_coalesced<'a>(
        &mut self,
        writes: impl IntoIterator<Item = &'a PageWrite>,
    ) -> Result<()> {
        let mut prior = Prior::new();
        let result = self.stage_writes(writes, &mut prior);
        for (key, (old, rec)) in prior {
            if result.is_err() {
                // Drop the call's reference and put the page back.
                if let Some(ptr) = self.pending_pages.remove(&key) {
                    self.release_block(ptr);
                }
                if let Some(old) = old {
                    self.pending_pages.insert(key, old);
                }
                if let Some(rec) = rec {
                    self.pending_deltas.insert(key, rec);
                }
            } else if let Some(old) = old {
                // The block the call replaced loses its staged reference.
                self.release_block(old);
            }
        }
        result
    }

    /// The writer's staging and extent passes. Records in `prior` what
    /// each page staged before its first write of the call; a block the
    /// call staged and replaced itself is released at once.
    fn stage_writes<'a>(
        &mut self,
        writes: impl IntoIterator<Item = &'a PageWrite>,
        prior: &mut Prior,
    ) -> Result<()> {
        // Plan-order pass: dedup, allocation, staging. A full image
        // truncates the page's redo chain.
        let mut fresh: BTreeMap<u64, &PageData> = BTreeMap::new();
        for w in writes {
            if !self.object_exists(w.oid) {
                return Err(Error::not_found(format!("object {}", w.oid.0)));
            }
            self.stats.pages_written += 1;
            let ptr = match self.find_dedup(&w.page, w.hash) {
                Some(existing) => {
                    self.alloc.incref(existing);
                    self.stats.dedup_hits += 1;
                    existing
                }
                None => {
                    let ptr = self.alloc.alloc()?;
                    self.cache.get_mut().install(ptr, &w.page, w.hash);
                    fresh.insert(ptr.0, &w.page);
                    ptr
                }
            };
            let key = (w.oid, w.idx);
            let rec = self.pending_deltas.remove(&key);
            let old = self.pending_pages.insert(key, ptr);
            if let Entry::Vacant(first) = prior.entry(key) {
                first.insert((old, rec));
            } else if let Some(old) = old {
                self.release_block(old);
            }
        }
        // A block allocated for an early write can be released by a
        // later write in the same batch (and reallocated within it only
        // once the allocator's frontier wraps); only blocks still
        // referenced go to the device.
        fresh.retain(|&b, _| self.alloc.refs(BlockPtr(b)) > 0);

        // Extent pass: each run of adjacent blocks becomes one
        // vectored write.
        let fresh: Vec<(u64, &PageData)> = fresh.into_iter().collect();
        let blocks: Vec<u64> = fresh.iter().map(|&(b, _)| b).collect();
        for (off, len) in runs(&blocks, EXTENT_BLOCKS) {
            let Some(run) = fresh.get(off..off + len) else {
                continue;
            };
            self.write_extent(run)?;
            self.stats.extents_coalesced += 1;
            self.stats.blocks_coalesced += len as u64;
        }
        Ok(())
    }

    /// Submits one run of adjacent fresh blocks as a vectored write. A
    /// materialized store hands the device the staged bodies by
    /// reference: the medium shares them with the page cache and the
    /// frames they came from.
    fn write_extent(&mut self, run: &[(u64, &PageData)]) -> Result<()> {
        let Some(&(first, _)) = run.first() else {
            return Ok(());
        };
        if self.config.materialize_data {
            let bodies: Vec<PageData> = run.iter().map(|&(_, page)| page.clone()).collect();
            let lba = self.sb.data_start() + first;
            self.dev.get_mut().write_blocks(lba, &bodies)?;
        } else {
            self.dev
                .get_mut()
                .submit_write_timing((run.len() * BLOCK_SIZE) as u64)?;
        }
        Ok(())
    }

    fn find_dedup(&self, page: &PageData, hash: u64) -> Option<BlockPtr> {
        let cache = self.cache.borrow();
        for &cand in cache.dedup.get(&hash)? {
            if let Some(existing) = cache.data.get(&cand.0) {
                if existing.content_eq(page) {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// Whether a delta record may be staged for `(oid, idx)`: requires
    /// the delta path enabled and a live base image to chain onto.
    /// Returns the page's current chain length (0 = no chain yet) so
    /// the caller can apply the `delta_max_chain` bound.
    pub fn can_delta(&self, oid: ObjId, idx: u64) -> Option<u32> {
        if self.config.delta_max_bytes == 0 {
            return None;
        }
        match self.live_page(oid, idx)? {
            LivePage::Staged(rec) => Some(rec.chain_len),
            LivePage::Ref(PageRef::Delta(head)) => self.delta.chain_len(head).ok(),
            LivePage::Ref(PageRef::Full(_)) => Some(0),
        }
    }

    /// Stages a sub-page delta for the next commit: `runs` are the dirty
    /// `(offset, len)` byte ranges of `page` (the page's complete new
    /// contents). The record chains onto the page's current state —
    /// caller must have checked [`ObjectStore::can_delta`].
    ///
    /// No device write happens here: the record rides in the commit's
    /// journal payload, so its durability ordering is the sealed
    /// journal's (the same typestate-checked path as the checkpoint
    /// metadata itself).
    pub fn stage_delta(
        &mut self,
        oid: ObjId,
        idx: u64,
        page: &PageData,
        runs: &[(u32, u32)],
    ) -> Result<()> {
        let mut extents = Vec::with_capacity(runs.len());
        for &(off, len) in runs {
            if off as usize + len as usize > BLOCK_SIZE || len == 0 {
                return Err(Error::invalid(format!(
                    "dirty run {off}+{len} outside the page"
                )));
            }
            let mut buf = vec![0u8; len as usize];
            page.read(off as usize, &mut buf);
            extents.push((off, buf));
        }
        self.stats.pages_written += 1;
        // Fold into an already-staged record for this page: extents
        // apply in order, so appending preserves last-writer-wins.
        if let Some(rec) = self.pending_deltas.get_mut(&(oid, idx)) {
            rec.extents.extend(extents);
            return Ok(());
        }
        if !self.object_exists(oid) {
            return Err(Error::not_found(format!("object {}", oid.0)));
        }
        let (base, prev, chain_len) = match self.live_page(oid, idx) {
            Some(LivePage::Ref(PageRef::Delta(head))) => {
                let head_rec = self.delta.get(head).ok_or_else(|| {
                    Error::corrupt(format!("delta head {head} missing from log"))
                })?;
                (head_rec.base, Some(head), head_rec.chain_len + 1)
            }
            Some(LivePage::Ref(PageRef::Full(ptr))) => (ptr, None, 1),
            Some(LivePage::Staged(_)) | None => {
                return Err(Error::invalid(format!(
                    "delta for {}/{idx} without a base image",
                    oid.0
                )));
            }
        };
        self.pending_deltas.insert(
            (oid, idx),
            DeltaRecord {
                oid,
                idx,
                epoch: self.sb.next_ckpt,
                base,
                prev,
                chain_len,
                extents,
            },
        );
        Ok(())
    }
}
