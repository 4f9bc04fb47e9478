//! The object store proper: the live state, dedup, commits, recovery,
//! GC.
//!
//! The live state is the staged delta over the kept head image: a page
//! resolves to its staged delta record, else its staged page, else the
//! head image's delta head or page (skipped for an object deleted or
//! created this epoch). A block's refcount is its checkpoint page
//! entries plus its staged page entries; a commit hands each staged
//! reference to the new checkpoint.
//!
//! See the crate docs for the design overview. The durability contract:
//! [`ObjectStore::commit`] appends the delta to the journal, flushes,
//! updates the alternating superblock and flushes again, returning the
//! virtual instant at which the checkpoint is power-loss-safe — without
//! advancing the caller's clock, so the SLS overlaps flushing with
//! application execution. Anything not yet committed is discarded by
//! [`ObjectStore::recover`], exactly like a real crash.

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use aurora_hw::{Access, BlockDev, BLOCK_SIZE};
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_vm::PageData;

use crate::alloc::BlockAlloc;
use crate::checkpoint::{self, object_keys, take_object, Checkpoint, CkptId, Image, PageRef};
use crate::deltalog::{DeltaLog, DeltaRecord, Lsn};
use crate::journal::{self, JournalRecord};
use crate::layout::{Superblock, JOURNAL_START};
use crate::read::ReadCache;
use crate::txn::DirtyTxn;
pub use crate::read::{runs, ReadOutcome, ReadPlan};
use crate::{BlockPtr, ObjId};

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Journal region size in blocks.
    pub journal_blocks: u64,
    /// Enable content-hash page deduplication.
    pub dedup: bool,
    /// Write real page bytes through the device (needed when the store
    /// must be reopened from the medium alone, e.g. the CLI's file-backed
    /// worlds). Off for simulation-scale benchmarks.
    pub materialize_data: bool,
    /// Largest dirty footprint (bytes per page) the flush pipeline may
    /// record as a sub-page delta instead of a full image. 0 disables
    /// the delta path entirely.
    pub delta_max_bytes: u32,
    /// Longest redo chain before a page must take the full-image path
    /// (which truncates its chain).
    pub delta_max_chain: u32,
}

/// Bounded read-cache capacity: 4096 pages = 16 MiB of DRAM.
pub const READ_CACHE_PAGES: usize = 4096;

/// Default delta-vs-full threshold: a quarter page. Above this, the
/// record overhead stops paying for itself against a 4 KiB image.
pub const DEFAULT_DELTA_MAX_BYTES: u32 = 1024;

/// Default chain-length bound before full-image truncation.
pub const DEFAULT_DELTA_MAX_CHAIN: u32 = 8;

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            journal_blocks: 16 * 1024, // 64 MiB of metadata journal
            dedup: true,
            materialize_data: false,
            delta_max_bytes: DEFAULT_DELTA_MAX_BYTES,
            delta_max_chain: DEFAULT_DELTA_MAX_CHAIN,
        }
    }
}

/// Store activity counters.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// Pages accepted by `write_page`.
    pub pages_written: u64,
    /// Writes satisfied by dedup (no device I/O).
    pub dedup_hits: u64,
    /// Commits performed.
    pub commits: u64,
    /// Journal compactions.
    pub compactions: u64,
    /// Checkpoints garbage collected.
    pub gc_runs: u64,
    /// Journal bytes written.
    pub bytes_journaled: u64,
    /// Vectored extent writes issued by the batch flush path.
    pub extents_coalesced: u64,
    /// Blocks carried by those extents.
    pub blocks_coalesced: u64,
    /// Vectored extent reads issued by the batched restore path.
    pub read_extents_coalesced: u64,
    /// Planned blocks those extent reads fetched.
    pub read_blocks_coalesced: u64,
    /// Batched-read probes served by the bounded read cache.
    pub read_cache_hits: u64,
    /// Batched-read probes that charged device time.
    pub read_cache_misses: u64,
    /// Blocks healed by read-repair: a copy failed content-hash
    /// verification and was rewritten from a good mirror twin —
    /// whichever read found it (lazy fault, batched plan, base check or
    /// scrub). A `Cell` because the checked reader runs under `&self`.
    pub read_repairs: Cell<u64>,
    /// Commit-protocol phase transitions: `DirtyTxn → JournalSealed`
    /// (journal records submitted).
    pub journal_seals: u64,
    /// Phase transitions `JournalSealed → ExtentsDurable` (flush
    /// barriers covering the record and all prior data extents).
    pub extent_barriers: u64,
    /// Phase transitions `ExtentsDurable → Committed` (durable
    /// alternating-superblock flips).
    pub superblock_flips: u64,
    /// Sub-page delta records committed to the journal.
    pub delta_records: u64,
    /// Encoded journal bytes of those records (the flush-byte savings
    /// baseline: each record stands in for a 4 KiB image).
    pub delta_bytes: u64,
    /// Redo chains folded back into full base images by the compactor.
    pub chains_compacted: u64,
    /// Longest redo chain ever committed (high-water mark).
    pub chain_len_max: u64,
    /// Entries into the device-redundancy repair path, healed or not.
    pub repair_path_entries: Cell<u64>,
}

/// Outcome of one [`ObjectStore::resilver`] pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResilverReport {
    /// Extent batches copied to rebuilding replicas.
    pub extents: u64,
    /// Blocks carried by those extents (metadata region + live data).
    pub blocks: u64,
    /// Replicas promoted from `Rebuilding` to `Active` at the end.
    pub replicas_promoted: usize,
}

/// Expected block refcounts for committed state: one per checkpoint
/// page entry.
fn committed_refs(ckpts: &BTreeMap<u64, Checkpoint>) -> HashMap<u64, u32> {
    let mut refs: HashMap<u64, u32> = HashMap::new();
    for ptr in ckpts.values().flat_map(|ck| ck.pages.values()) {
        *refs.entry(ptr.0).or_insert(0) += 1;
    }
    refs
}

/// Most blocks one vectored device request covers, read or written:
/// the span of an extent, first block to last.
pub const EXTENT_BLOCKS: usize = 64;

/// Page contents plus the dedup index and the bounded read cache, in
/// one cell so the read paths can stay `&self`: a cache fill is not a
/// logical mutation.
pub(crate) struct PageCache {
    /// Authoritative page contents by block (compact representation).
    pub(crate) data: HashMap<u64, PageData>,
    /// Content-hash dedup index: hash -> candidate blocks, in insertion
    /// order (rebuilds insert in ascending block order).
    dedup: HashMap<u64, Vec<BlockPtr>>,
    /// Block -> content hash (reverse index for release): the recorded
    /// hash the read side compares what the medium returns with.
    pub(crate) block_hash: HashMap<u64, u64>,
    /// Bounded LRU over recently read blocks.
    pub(crate) read: ReadCache,
}

impl PageCache {
    fn new(data: HashMap<u64, PageData>) -> Self {
        PageCache {
            data,
            dedup: HashMap::new(),
            block_hash: HashMap::new(),
            read: ReadCache::new(READ_CACHE_PAGES),
        }
    }

    /// Rebuilds the dedup index over the current contents, walking
    /// blocks in ascending id order: candidate lists come out identical
    /// no matter the `HashMap` iteration order or how many flush
    /// workers produced the hashes.
    fn rebuild_dedup(&mut self) {
        self.dedup.clear();
        self.block_hash.clear();
        let mut blocks: Vec<u64> = self.data.keys().copied().collect();
        blocks.sort_unstable();
        for b in blocks {
            if let Some(page) = self.data.get(&b) {
                let h = page.content_hash();
                self.dedup.entry(h).or_default().push(BlockPtr(b));
                self.block_hash.insert(b, h);
            }
        }
    }

    /// Caches freshly written contents and indexes them for dedup.
    pub(crate) fn install(&mut self, ptr: BlockPtr, page: &PageData, hash: Option<u64>) {
        self.data.insert(ptr.0, page.clone());
        if let Some(h) = hash {
            self.dedup.entry(h).or_default().push(ptr);
            self.block_hash.insert(ptr.0, h);
        }
    }

    /// Drops a freed block's contents and index entries.
    fn evict(&mut self, ptr: BlockPtr) {
        self.data.remove(&ptr.0);
        if let Some(h) = self.block_hash.remove(&ptr.0) {
            if let Some(cands) = self.dedup.get_mut(&h) {
                cands.retain(|&c| c != ptr);
                if cands.is_empty() {
                    self.dedup.remove(&h);
                }
            }
        }
        self.read.forget(ptr.0);
    }
}

/// One page of a flush plan with its content hash already computed (by
/// the parallel hash stage) — the unit of
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

/// How the live state holds one page.
enum LivePage<'a> {
    /// A delta record staged this epoch: the newest state of all.
    Staged(&'a DeltaRecord),
    /// A staged page or a head-image entry.
    Ref(PageRef),
}

/// The object store.
pub struct ObjectStore {
    /// `pub(crate)` for `txn.rs`, the commit protocol's only licensed
    /// journal/superblock writer.
    pub(crate) dev: RefCell<Box<dyn BlockDev>>,
    pub(crate) config: StoreConfig,
    pub(crate) sb: Superblock,
    alloc: BlockAlloc,
    /// Committed checkpoints by id.
    pub(crate) ckpts: BTreeMap<u64, Checkpoint>,
    /// The head's image, kept current by `commit`: the fold of the
    /// head's chain without walking it. GC never deletes the head and
    /// its merge preserves every descendant's image, so nothing else
    /// changes it.
    head_image: Image,
    /// The staged delta since the last commit, in key order: the live
    /// state is these over the head image. Each staged page holds one
    /// reference on its block.
    pending_pages: BTreeMap<(ObjId, u64), BlockPtr>,
    pending_blobs: BTreeMap<String, Vec<u8>>,
    pending_new_objects: Vec<(ObjId, u64)>,
    pending_deleted: Vec<ObjId>,
    /// Sub-page delta records staged this epoch, keyed by page. LSNs
    /// are assigned at commit in key order; the records enter `delta`
    /// only after the superblock flip succeeds.
    pending_deltas: BTreeMap<(ObjId, u64), DeltaRecord>,
    /// Committed delta records (rebuilt from the journal on recovery).
    pub(crate) delta: DeltaLog,
    /// Page contents, the dedup index and the bounded read cache.
    pub(crate) cache: RefCell<PageCache>,
    /// Counters.
    pub stats: StoreStats,
}

impl ObjectStore {
    /// Formats a device and returns an empty store.
    pub fn format(mut dev: Box<dyn BlockDev>, config: StoreConfig) -> Result<Self> {
        let total_blocks = dev.info().blocks;
        let min = JOURNAL_START + config.journal_blocks + 16;
        if total_blocks < min {
            return Err(Error::invalid(format!(
                "device too small: {total_blocks} blocks < {min}"
            )));
        }
        let sb = Superblock {
            epoch: 1,
            journal_blocks: config.journal_blocks,
            journal_used: 0,
            journal_base: JOURNAL_START,
            total_blocks,
            next_ckpt: 1,
            next_obj: 1,
        };
        dev.submit_write(0, &sb.to_block())?;
        dev.submit_write(1, &sb.to_block())?;
        let done = dev.flush()?;
        dev.clock().advance_to(done);
        let data_blocks = sb.data_blocks();
        let cache = PageCache::new(HashMap::new());
        Ok(ObjectStore {
            dev: RefCell::new(dev),
            config,
            sb,
            alloc: BlockAlloc::new(data_blocks),
            ckpts: BTreeMap::new(),
            head_image: Image::default(),
            pending_pages: BTreeMap::new(),
            pending_blobs: BTreeMap::new(),
            pending_new_objects: Vec::new(),
            pending_deleted: Vec::new(),
            pending_deltas: BTreeMap::new(),
            delta: DeltaLog::default(),
            cache: RefCell::new(cache),
            stats: StoreStats::default(),
        })
    }

    /// Opens an existing store from the device (full recovery).
    ///
    /// Page contents are only recoverable when the store was written with
    /// `materialize_data` (or via [`ObjectStore::recover`], which keeps
    /// the in-memory page table across the simulated crash).
    pub fn open(dev: Box<dyn BlockDev>, config: StoreConfig) -> Result<Self> {
        Self::open_with_data(dev, config, HashMap::new())
    }

    /// Simulates a reboot: power-cycles the device and rebuilds all
    /// metadata from the medium. Uncommitted state is lost; committed
    /// page contents are retained (they stand for what is on disk).
    pub fn recover(self) -> Result<Self> {
        let mut dev = self.dev.into_inner();
        dev.power_on();
        Self::open_with_data(dev, self.config, self.cache.into_inner().data)
    }

    fn open_with_data(
        mut dev: Box<dyn BlockDev>,
        config: StoreConfig,
        data: HashMap<u64, PageData>,
    ) -> Result<Self> {
        // Pick the valid superblock with the highest epoch.
        let mut block = vec![0u8; BLOCK_SIZE];
        let mut best: Option<Superblock> = None;
        for slot in 0..2u64 {
            dev.read(slot, &mut block)?;
            if let Ok(sb) = Superblock::from_block(&block) {
                if best.as_ref().is_none_or(|b| sb.epoch > b.epoch) {
                    best = Some(sb);
                }
            }
        }
        let sb = best.ok_or_else(|| Error::corrupt("no valid superblock"))?;

        // Replay the journal.
        let used = sb.journal_used as usize;
        let mut journal_bytes = vec![0u8; used.div_ceil(BLOCK_SIZE) * BLOCK_SIZE];
        if !journal_bytes.is_empty() {
            dev.read(sb.journal_base, &mut journal_bytes)?;
        }
        let records = journal::decode_records(&journal_bytes, sb.journal_used);
        let (ckpts, mut delta) = journal::replay_lossy(records);
        // Drop chain segments no committed checkpoint can reach (stale
        // tails from GC merges folded into the replayed table).
        let heads: Vec<Lsn> = ckpts
            .values()
            .flat_map(|c| c.deltas.values().copied())
            .collect();
        delta.prune(heads);

        // Rebuild the head's image (the newest checkpoint's) by folding
        // its chain once; the live state starts as that image.
        let head_image = match ckpts.keys().next_back() {
            Some(&h) => Image::fold(&ckpts, CkptId(h))?,
            None => Image::default(),
        };

        // Rebuild refcounts: one per checkpoint page entry.
        let refs = committed_refs(&ckpts);
        let alloc = BlockAlloc::from_refs(sb.data_blocks(), &refs);

        // Retain contents only for referenced blocks; rebuild dedup in
        // ascending block order (deterministic candidate lists).
        let mut cache = PageCache::new(data);
        cache.data.retain(|b, _| refs.contains_key(b));
        if config.dedup {
            cache.rebuild_dedup();
        }

        Ok(ObjectStore {
            dev: RefCell::new(dev),
            config,
            sb,
            alloc,
            ckpts,
            head_image,
            pending_pages: BTreeMap::new(),
            pending_blobs: BTreeMap::new(),
            pending_new_objects: Vec::new(),
            pending_deleted: Vec::new(),
            pending_deltas: BTreeMap::new(),
            delta,
            cache: RefCell::new(cache),
            stats: StoreStats::default(),
        })
    }

    /// The device (stats, fault injection in tests).
    pub fn device(&self) -> Ref<'_, dyn BlockDev> {
        Ref::map(self.dev.borrow(), |d| d.as_ref())
    }

    /// Mutable device access (fault injection in tests).
    pub fn device_mut(&mut self) -> &mut dyn BlockDev {
        self.dev.get_mut().as_mut()
    }

    /// First LBA of the data region (page extents live at and above
    /// this; everything below is superblocks, allocator and journal).
    pub fn data_start(&self) -> u64 {
        self.sb.data_start()
    }

    /// Data blocks currently referenced.
    pub fn blocks_in_use(&self) -> u64 {
        self.alloc.in_use()
    }

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
    fn live_page(&self, oid: ObjId, idx: u64) -> Option<LivePage<'_>> {
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
        let keys = object_keys(src);
        let mut idxs: BTreeSet<u64> =
            self.pending_pages.range(keys.clone()).map(|(k, _)| k.1).collect();
        idxs.extend(self.pending_deltas.range(keys.clone()).map(|(k, _)| k.1));
        if self.head_covers(src) {
            idxs.extend(self.head_image.pages.range(keys.clone()).map(|(k, _)| k.1));
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

    fn release_block(&mut self, ptr: BlockPtr) {
        if self.alloc.decref(ptr) {
            self.cache.get_mut().evict(ptr);
        }
    }

    /// Writes one page of an object.
    ///
    /// Dedup hit: refcount bump, no device traffic. Miss: allocates a
    /// block and submits the 4 KiB payload asynchronously (the commit's
    /// flush barrier covers it).
    pub fn write_page(&mut self, oid: ObjId, idx: u64, page: &PageData) -> Result<()> {
        self.write_page_hashed(oid, idx, page, None)
    }

    /// Like [`ObjectStore::write_page`] with the content hash already
    /// computed — the parallel flush pipeline hashes pages off-thread
    /// before touching the store. `hash` is ignored when dedup is off
    /// and computed here when dedup is on but `None` was passed, so the
    /// resulting state never depends on which variant the caller used.
    pub fn write_page_hashed(
        &mut self,
        oid: ObjId,
        idx: u64,
        page: &PageData,
        hash: Option<u64>,
    ) -> Result<()> {
        if !self.object_exists(oid) {
            return Err(Error::not_found(format!("object {}", oid.0)));
        }
        self.stats.pages_written += 1;
        let hash = if self.config.dedup {
            hash.or_else(|| Some(page.content_hash()))
        } else {
            None
        };
        let ptr = match self.find_dedup(page, hash) {
            Some(existing) => {
                self.alloc.incref(existing);
                self.stats.dedup_hits += 1;
                existing
            }
            None => {
                let ptr = self.alloc.alloc()?;
                if self.config.materialize_data {
                    let lba = self.sb.data_start() + ptr.0;
                    self.dev.get_mut().submit_write(lba, &page.materialize())?;
                } else {
                    self.dev.get_mut().submit_write_timing(BLOCK_SIZE as u64)?;
                }
                self.cache.get_mut().install(ptr, page, hash);
                ptr
            }
        };
        self.stage_page(oid, idx, ptr);
        Ok(())
    }

    /// Stages a full image of `(oid, idx)` at `ptr`, whose reference the
    /// caller took. It truncates the page's redo chain, and only a staged
    /// block it replaces loses a reference: a head-image block keeps its
    /// checkpoint's.
    fn stage_page(&mut self, oid: ObjId, idx: u64, ptr: BlockPtr) {
        self.pending_deltas.remove(&(oid, idx));
        if let Some(old) = self.pending_pages.insert((oid, idx), ptr) {
            self.release_block(old);
        }
    }

    /// Writes a batch of pages, coalescing adjacent fresh blocks into
    /// extent-sized vectored device writes.
    ///
    /// Dedup decisions, allocations and staging happen in plan
    /// order — exactly the sequence a `write_page` loop produces — so
    /// the resulting store state (and, for materialized stores, the
    /// device image) is identical to the serial path; only the shape of
    /// the device traffic changes. Fresh blocks then sort into runs of
    /// adjacent lbas, each submitted with one
    /// [`BlockDev::write_blocks`] extent of at most [`EXTENT_BLOCKS`].
    ///
    /// If an extent write fails, contents that never reached the
    /// platter are dropped from the page cache before the error
    /// surfaces, so no later dedup hit or cache read can serve bytes
    /// the medium does not hold. The checkpoint pipeline then aborts
    /// without committing and forces the next checkpoint full.
    pub fn write_pages_coalesced<'a>(
        &mut self,
        writes: impl IntoIterator<Item = &'a PageWrite>,
    ) -> Result<()> {
        // Plan-order pass: dedup, allocation, staging.
        let mut fresh: BTreeMap<u64, PageData> = BTreeMap::new();
        for w in writes {
            if !self.object_exists(w.oid) {
                return Err(Error::not_found(format!("object {}", w.oid.0)));
            }
            self.stats.pages_written += 1;
            let hash = self.config.dedup.then_some(w.hash);
            let ptr = match self.find_dedup(&w.page, hash) {
                Some(existing) => {
                    self.alloc.incref(existing);
                    self.stats.dedup_hits += 1;
                    existing
                }
                None => {
                    let ptr = self.alloc.alloc()?;
                    self.cache.get_mut().install(ptr, &w.page, hash);
                    fresh.insert(ptr.0, w.page.clone());
                    ptr
                }
            };
            self.stage_page(w.oid, w.idx, ptr);
        }
        // A block allocated for an early write can be released by a
        // later write in the same batch (and reallocated within it only
        // once the allocator's frontier wraps); only blocks still
        // referenced go to the device.
        fresh.retain(|&b, _| self.alloc.refs(BlockPtr(b)) > 0);

        // Extent pass: each run of adjacent blocks becomes one
        // vectored write.
        let blocks: Vec<u64> = fresh.keys().copied().collect();
        for (off, len) in runs(&blocks, EXTENT_BLOCKS) {
            let Some(&start) = blocks.get(off) else {
                continue;
            };
            if let Err(e) = self.write_extent(&fresh, start, len) {
                // Nothing from this run onward reached the platter:
                // drop the unbacked contents so the cache never claims
                // bytes the medium does not hold.
                for &b in blocks.iter().skip(off) {
                    self.cache.get_mut().evict(BlockPtr(b));
                }
                return Err(e);
            }
            self.stats.extents_coalesced += 1;
            self.stats.blocks_coalesced += len as u64;
        }
        Ok(())
    }

    /// Submits one run of adjacent fresh blocks as a vectored write.
    fn write_extent(
        &mut self,
        fresh: &BTreeMap<u64, PageData>,
        start: u64,
        len: usize,
    ) -> Result<()> {
        if self.config.materialize_data {
            let bufs: Vec<Vec<u8>> = (start..start + len as u64)
                .map(|b| {
                    fresh
                        .get(&b)
                        .map(PageData::materialize)
                        .ok_or_else(|| Error::internal(format!("extent block {b} missing")))
                })
                .collect::<Result<_>>()?;
            let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
            let lba = self.sb.data_start() + start;
            self.dev.get_mut().write_blocks(lba, &refs)?;
        } else {
            self.dev
                .get_mut()
                .submit_write_timing((len * BLOCK_SIZE) as u64)?;
        }
        Ok(())
    }

    fn find_dedup(&self, page: &PageData, hash: Option<u64>) -> Option<BlockPtr> {
        let h = hash?;
        let cache = self.cache.borrow();
        for &cand in cache.dedup.get(&h)? {
            if let Some(existing) = cache.data.get(&cand.0) {
                if existing.content_eq(page) {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// The store's delta-vs-full policy: `(max dirty bytes, max chain
    /// length)`. `max_bytes == 0` means the delta path is disabled.
    pub fn delta_policy(&self) -> (u32, u32) {
        (self.config.delta_max_bytes, self.config.delta_max_chain)
    }

    /// The committed delta records (audits resolve chain bases here).
    pub fn delta_log(&self) -> &DeltaLog {
        &self.delta
    }

    /// Committed delta records currently live in the journal.
    pub fn delta_log_len(&self) -> usize {
        self.delta.len()
    }

    /// Encoded journal bytes of the live delta records.
    pub fn delta_log_bytes(&self) -> u64 {
        self.delta.bytes()
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

    /// Materializes a page by replaying the chain ending at `head` over
    /// its base image. Charges one base-block read.
    pub fn apply_chain(&self, base: &PageData, head: Lsn) -> Result<PageData> {
        self.delta.materialize(base, head)
    }

    /// Materializes one resolved page reference.
    pub(crate) fn materialize_ref(&self, r: PageRef) -> Result<PageData> {
        match r {
            PageRef::Full(ptr) => self.fetch_block(ptr),
            PageRef::Delta(lsn) => {
                let base = self
                    .delta
                    .get(lsn)
                    .ok_or_else(|| {
                        Error::corrupt(format!("delta head {lsn} missing from log"))
                    })?
                    .base;
                let base_page = self.fetch_block(base)?;
                self.delta.materialize(&base_page, lsn)
            }
        }
    }

    /// Reads a page from the live state, charging device time.
    pub fn read_page(&self, oid: ObjId, idx: u64) -> Result<Option<PageData>> {
        if !self.object_exists(oid) {
            return Err(Error::not_found(format!("object {}", oid.0)));
        }
        match self.live_page(oid, idx) {
            // A record staged this epoch is the newest state: its chain
            // (if any) replays first, then its own extents.
            Some(LivePage::Staged(rec)) => {
                let base_page = self.fetch_block(rec.base)?;
                let chained = match rec.prev {
                    Some(prev) => self.delta.materialize(&base_page, prev)?,
                    None => base_page,
                };
                Ok(Some(rec.apply(&chained)))
            }
            Some(LivePage::Ref(r)) => self.materialize_ref(r).map(Some),
            None => Ok(None),
        }
    }

    /// Reads a page as of a checkpoint, charging device time. Pages
    /// under a redo chain are materialized (base image + chain replay).
    pub fn read_page_at(&self, ckpt: CkptId, oid: ObjId, idx: u64) -> Result<Option<PageData>> {
        match checkpoint::resolve_ref(&self.ckpts, ckpt, oid, idx) {
            Some(r) => self.materialize_ref(r).map(Some),
            None => Ok(None),
        }
    }

    /// How checkpoint `ckpt` stores page `(oid, idx)` — a full image or
    /// a delta-chain head — with the content hash on record for a full
    /// image's block, if any. Reads nothing and charges nothing; `None`
    /// when the checkpoint has no page there.
    pub fn page_ref_at(
        &self,
        ckpt: CkptId,
        oid: ObjId,
        idx: u64,
    ) -> Option<(PageRef, Option<u64>)> {
        let r = checkpoint::resolve_ref(&self.ckpts, ckpt, oid, idx)?;
        let hash = match r {
            PageRef::Full(ptr) => self.cache.borrow().block_hash.get(&ptr.0).copied(),
            PageRef::Delta(_) => None,
        };
        Some((r, hash))
    }

    /// The effective page map of an object at a checkpoint, each page a
    /// full image or a delta-chain head (materialize the latter with
    /// [`ObjectStore::read_page_at`] or [`ObjectStore::apply_chain`]).
    /// Empty when the checkpoint does not exist. A walk over many
    /// objects takes [`ObjectStore::image_at`] once instead.
    pub fn object_refs_at(&self, ckpt: CkptId, oid: ObjId) -> Vec<(u64, PageRef)> {
        self.image_at(ckpt)
            .map(|image| image.object_refs(oid).collect())
            .unwrap_or_default()
    }

    /// The image of a checkpoint: the kept head image for the head,
    /// else one fold of the checkpoint's chain.
    pub fn image_at(&self, ckpt: CkptId) -> Result<Cow<'_, Image>> {
        if self.head() == Some(ckpt) {
            return Ok(Cow::Borrowed(&self.head_image));
        }
        Image::fold(&self.ckpts, ckpt).map(Cow::Owned)
    }

    /// Stages a metadata blob for the next checkpoint.
    pub fn put_blob(&mut self, key: &str, bytes: Vec<u8>) {
        self.pending_blobs.insert(key.to_string(), bytes);
    }

    /// Reads a blob as of a checkpoint, charging device time for its
    /// size (blobs live in journal blocks).
    pub fn get_blob(&self, ckpt: CkptId, key: &str) -> Result<Option<Vec<u8>>> {
        let found = checkpoint::resolve_blob(&self.ckpts, ckpt, key).map(<[u8]>::to_vec);
        if let Some(v) = &found {
            let bytes = v.len().div_ceil(BLOCK_SIZE) as u64 * BLOCK_SIZE as u64;
            self.dev
                .borrow_mut()
                .charge_read_timing(bytes, Access::Waited)?;
        }
        Ok(found)
    }

    /// Finds the blob key with `suffix` written *nearest* to `ckpt` in
    /// its chain (the checkpoint's own delta first, then ancestors).
    ///
    /// This is how a restore locates the manifest of the group that
    /// committed a checkpoint when several groups share one store: each
    /// group's checkpoint carries its own manifest in its delta, while
    /// chain-visible blobs of *other* groups sit in unrelated ancestors.
    pub fn nearest_blob_key(&self, ckpt: CkptId, suffix: &str) -> Option<String> {
        let mut cur = Some(ckpt);
        while let Some(c) = cur {
            let ck = self.ckpts.get(&c.0)?;
            let mut hits: Vec<&String> =
                ck.blobs.keys().filter(|k| k.ends_with(suffix)).collect();
            hits.sort();
            if let Some(k) = hits.first() {
                return Some((*k).clone());
            }
            cur = ck.parent;
        }
        None
    }

    /// Blob keys visible at a checkpoint with a given prefix.
    pub fn blob_keys_at(&self, ckpt: CkptId, prefix: &str) -> Vec<String> {
        let mut keys = std::collections::BTreeSet::new();
        let mut cur = Some(ckpt);
        while let Some(c) = cur {
            let Some(ck) = self.ckpts.get(&c.0) else { break };
            for k in ck.blobs.keys() {
                if k.starts_with(prefix) {
                    keys.insert(k.clone());
                }
            }
            cur = ck.parent;
        }
        keys.into_iter().collect()
    }

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

        let record = JournalRecord::Commit(ck.clone(), new_records.clone());
        let (durable, journaled) = self.commit_record(txn, &record)?;

        // Every write landed: consume the pending delta and publish.
        self.stats.bytes_journaled += journaled;
        self.pending_new_objects.clear();
        self.pending_deleted.clear();
        self.pending_pages.clear();
        self.pending_blobs.clear();
        self.pending_deltas.clear();
        // Each staged page's reference passes to the checkpoint. The
        // sealed journal record is durable: the delta records are
        // committed, and the head image now reads through them.
        for (l, rec) in new_records {
            self.stats.delta_records += 1;
            self.stats.delta_bytes += rec.encoded_len() as u64;
            self.stats.chain_len_max = self.stats.chain_len_max.max(rec.chain_len as u64);
            self.delta.insert(l, rec)?;
        }
        let mut ck = ck;
        ck.durable_at = durable;
        self.head_image.apply(&ck);
        self.ckpts.insert(id.0, ck);
        self.stats.commits += 1;
        Ok((id, durable))
    }

    /// The one commit step every journal record takes: make room, seal
    /// the record, run the extent barrier, flip the superblock. Returns
    /// the durable instant and the record's encoded length.
    ///
    /// A `Commit` or `Delete` appends to the active journal half; when it
    /// does not fit, the step first compacts, which takes this same step
    /// with a `Snapshot`. A `Snapshot` lands in the *idle* half and only
    /// the flip switches halves, so a power cut at any point leaves a
    /// durable superblock over an intact journal — the old records or the
    /// complete snapshot, never a half-overwritten mix.
    ///
    /// The flip restores the superblock when its write never reaches the
    /// queue, so a failed step leaves the journal geometry as it was and
    /// a retry rewrites the same offset. Callers change their in-memory
    /// state only after `Ok`.
    fn commit_record(&mut self, txn: DirtyTxn, record: &JournalRecord) -> Result<(SimTime, u64)> {
        let bytes = journal::encode_record(record);
        let len = bytes.len() as u64;
        let capacity = self.sb.journal_half_blocks() * BLOCK_SIZE as u64;
        let snapshot = matches!(record, JournalRecord::Snapshot(..));
        let (base, used) = if snapshot {
            // Snapshot + one guard block + room to grow.
            if len + BLOCK_SIZE as u64 > capacity {
                return Err(Error::no_space("journal too small for metadata snapshot"));
            }
            (self.sb.journal_other_half(), 0)
        } else {
            if self.sb.journal_used + len > capacity {
                self.compact()?;
                if self.sb.journal_used + len > capacity {
                    return Err(Error::no_space("journal cannot hold this record"));
                }
            }
            (self.sb.journal_base, self.sb.journal_used)
        };
        // A zero guard block after a snapshot stops recovery from
        // replaying stale records that happen to align after it.
        let guard = [0u8; BLOCK_SIZE];
        let mut writes = vec![(base + used / BLOCK_SIZE as u64, bytes.as_slice())];
        if snapshot {
            writes.push((base + len / BLOCK_SIZE as u64, &guard));
        }
        let sealed = self.seal_journal(txn, &writes)?;
        let barrier = self.extent_barrier(sealed)?;
        let (_committed, durable) = self.flip_superblock(barrier, |sb| {
            sb.journal_base = base;
            sb.journal_used = used + len;
            if let JournalRecord::Commit(ck, _) = record {
                sb.next_ckpt = ck.id.0 + 1;
            }
        })?;
        Ok((durable, len))
    }

    /// Rewrites the checkpoint table as one snapshot record in the idle
    /// journal half, resetting the journal.
    fn compact(&mut self) -> Result<()> {
        let list: Vec<Checkpoint> = self.ckpts.values().cloned().collect();
        // The snapshot carries every still-reachable delta record: "the
        // log is the checkpoint", so compaction must not orphan chains
        // that committed checkpoints still replay through.
        let records: Vec<(Lsn, DeltaRecord)> =
            self.delta.iter().map(|(l, r)| (l, r.clone())).collect();
        let txn = self.begin_txn();
        let (done, _) = self.commit_record(txn, &JournalRecord::Snapshot(list, records))?;
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
        let dropped = journal::apply_delete(&mut self.ckpts, id)?;
        for ptr in dropped {
            self.release_block(ptr);
        }
        // The merge may have dropped delta heads; chain segments no
        // surviving head reaches are dead. Staged records chain onto
        // committed heads, so their links root the walk too.
        let mut heads: Vec<Lsn> = self
            .ckpts
            .values()
            .flat_map(|c| c.deltas.values().copied())
            .collect();
        heads.extend(self.pending_deltas.values().filter_map(|r| r.prev));
        self.delta.prune(heads);
        self.stats.gc_runs += 1;
        Ok(())
    }

    /// Issues an ordered flush barrier against the device and waits for
    /// it — the extra data/metadata ordering point a filesystem fsync
    /// pays that Aurora's log flush does not.
    pub fn barrier_flush(&mut self) -> Result<()> {
        let dev = self.dev.get_mut();
        let done = dev.flush()?;
        dev.clock().advance_to(done);
        Ok(())
    }

    /// All committed checkpoints, oldest first.
    pub fn checkpoints(&self) -> Vec<&Checkpoint> {
        self.ckpts.values().collect()
    }

    /// Looks up one checkpoint.
    pub fn checkpoint(&self, id: CkptId) -> Result<&Checkpoint> {
        self.ckpts
            .get(&id.0)
            .ok_or_else(|| Error::not_found(format!("checkpoint {}", id.0)))
    }

    /// Finds a checkpoint by name (newest match).
    pub fn checkpoint_by_name(&self, name: &str) -> Option<&Checkpoint> {
        self.ckpts
            .values()
            .rev()
            .find(|c| c.name.as_deref() == Some(name))
    }

    /// The most recent checkpoint: ids only grow, and GC refuses the
    /// head.
    pub fn head(&self) -> Option<CkptId> {
        self.ckpts.keys().next_back().map(|&id| CkptId(id))
    }

    /// Logical (uncompressed) size of a checkpoint's chain-merged state:
    /// what actually crosses a wire when the image moves, regardless of
    /// how compactly pages encode. Pages count 4 KiB each.
    pub fn logical_size(&self, ckpt: CkptId) -> Result<u64> {
        let mut total = self.image_at(ckpt)?.refs().count() as u64 * BLOCK_SIZE as u64;
        for key in self.blob_keys_at(ckpt, "") {
            if let Some(v) = checkpoint::resolve_blob(&self.ckpts, ckpt, &key) {
                total += v.len() as u64;
            }
        }
        Ok(total)
    }

    /// Logical size of one checkpoint's *delta* alone. A delta-chained
    /// page counts a full 4 KiB: materialized, that is what crosses a
    /// wire (a key in both maps — post-GC-merge — counts once).
    pub fn delta_logical_size(&self, ckpt: CkptId) -> Result<u64> {
        let ck = self.checkpoint(ckpt)?;
        let chained_only = ck
            .deltas
            .keys()
            .filter(|k| !ck.pages.contains_key(k))
            .count() as u64;
        Ok((ck.pages.len() as u64 + chained_only) * BLOCK_SIZE as u64
            + ck.blobs.values().map(|v| v.len() as u64).sum::<u64>())
    }

    /// Audits the store's invariants (an online `fsck`):
    ///
    /// * every block referenced by a checkpoint page entry or a staged
    ///   page is allocated, and its refcount equals the number of those
    ///   entries;
    /// * no allocated block is unreachable, and every unreferenced data
    ///   block is allocatable (no space leak);
    /// * every reachable block has recoverable contents;
    /// * every checkpoint's parent link resolves.
    ///
    /// Returns the list of violations (empty = healthy). Used by tests
    /// after crash-recovery sweeps and exposed through `sls info`.
    pub fn fsck(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut expected: HashMap<u64, u32> = HashMap::new();
        for ck in self.ckpts.values() {
            for ptr in ck.pages.values() {
                *expected.entry(ptr.0).or_insert(0) += 1;
            }
            if let Some(parent) = ck.parent {
                if !self.ckpts.contains_key(&parent.0) {
                    problems.push(format!(
                        "checkpoint {} has dangling parent {}",
                        ck.id.0, parent.0
                    ));
                }
            }
        }
        for ptr in self.pending_pages.values() {
            *expected.entry(ptr.0).or_insert(0) += 1;
        }
        for (&block, &refs) in &expected {
            let actual = self.alloc.refs(BlockPtr(block));
            if actual != refs {
                problems.push(format!(
                    "block {block}: refcount {actual}, {refs} referents"
                ));
            }
            if !self.cache.borrow().data.contains_key(&block) && !self.config.materialize_data {
                problems.push(format!("block {block}: contents unrecoverable"));
            }
        }
        if self.alloc.in_use() != expected.len() as u64 {
            problems.push(format!(
                "space leak: {} blocks allocated, {} reachable",
                self.alloc.in_use(),
                expected.len()
            ));
        }
        let stranded: Vec<u64> = self.alloc.stranded().collect();
        if let Some(first) = stranded.first() {
            problems.push(format!(
                "space leak: {} unreferenced blocks are not allocatable (first: block {first})",
                stranded.len()
            ));
        }
        // Delta-log invariants: every head a checkpoint names must walk
        // to its base without a dangling prev link, each chain's base
        // block must itself be reachable, and no record may survive in
        // the log without a head rooting it (a log leak).
        let mut reachable: HashSet<Lsn> = HashSet::new();
        let heads = self
            .ckpts
            .values()
            .flat_map(|c| c.deltas.iter().map(|(k, l)| (*k, *l)));
        for ((oid, idx), head) in heads {
            match self.delta.chain(head) {
                Ok(chain) => {
                    for rec in &chain {
                        if rec.oid != oid || rec.idx != idx {
                            problems.push(format!(
                                "delta lsn {head}: chain record keyed ({}, {}), \
                                 head keyed ({}, {idx})",
                                rec.oid.0, rec.idx, oid.0
                            ));
                        }
                    }
                    if let Some(base) = chain.first() {
                        if !expected.contains_key(&base.base.0) {
                            problems.push(format!(
                                "object {} page {idx}: delta chain base block {} \
                                 not referenced by any checkpoint or staged page",
                                oid.0, base.base.0
                            ));
                        }
                    }
                    let mut cur = Some(head);
                    while let Some(l) = cur {
                        reachable.insert(l);
                        cur = self.delta.get(l).and_then(|r| r.prev);
                    }
                }
                Err(e) => problems.push(format!(
                    "object {} page {idx}: delta chain at lsn {head} broken: {e}",
                    oid.0
                )),
            }
        }
        for (lsn, _) in self.delta.iter() {
            if !reachable.contains(&lsn) {
                problems.push(format!("delta log leak: lsn {lsn} unreachable"));
            }
        }
        problems
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
    /// (checkpoint page entries only, now nothing is staged) and dedup
    /// state — the store-side half of aborting a failed checkpoint.
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
        let cache = self.cache.get_mut();
        cache.data.retain(|b, _| refs.contains_key(b));
        if self.config.dedup {
            cache.rebuild_dedup();
        } else {
            cache.dedup.clear();
            cache.block_hash.clear();
        }
        Ok(())
    }

    /// Background chain compactor: folds every live delta chain of at
    /// least `min_len` records back into a full base image, committed
    /// through the typestate protocol as its own checkpoint
    /// (`chain-compact`). The full write truncates the chain — later
    /// incremental flushes start a fresh chain from the new base — while
    /// older checkpoints keep reading the folded records until GC drops
    /// them.
    ///
    /// Returns the number of chains folded (0 = nothing to do, no
    /// checkpoint committed). Refuses to run with a staged delta
    /// pending: the compaction commit must not smuggle unrelated
    /// uncommitted work into its checkpoint.
    pub fn compact_chains(&mut self, min_len: u32) -> Result<usize> {
        if self.has_pending() {
            return Err(Error::invalid(
                "cannot compact chains with a staged delta pending",
            ));
        }
        let min_len = min_len.max(1);
        // Nothing is staged, so the head image is the live state; its
        // chains fold in key order.
        let mut victims: Vec<((ObjId, u64), Lsn)> = Vec::new();
        for (&key, &head) in &self.head_image.deltas {
            if self.delta.chain_len(head)? >= min_len {
                victims.push((key, head));
            }
        }
        if victims.is_empty() {
            return Ok(0);
        }
        let folded = victims.len();
        for ((oid, idx), head) in victims {
            let page = self.materialize_ref(PageRef::Delta(head))?;
            // A full write truncates the chain.
            self.write_page(oid, idx, &page)?;
        }
        self.commit(Some("chain-compact"))?;
        self.stats.chains_compacted += folded as u64;
        Ok(folded)
    }

    /// Background resilver: rebuilds every `Rebuilding` mirror replica
    /// from the live allocation maps, in extent-sized batches charged to
    /// the virtual clock, then promotes the rebuilt replicas to active
    /// behind a flush barrier.
    ///
    /// The walk covers the whole metadata region (superblocks plus both
    /// journal halves — always real bytes on the medium) and every
    /// allocated data block. Data extents move real bytes on
    /// materialized stores and timing-only charges otherwise (the
    /// authoritative contents live above the device). A crash at any
    /// point is safe: the replica stays `Rebuilding` across the reboot
    /// and a rerun repeats the idempotent copies.
    ///
    /// No-op (an empty report) on a device without a rebuilding mirror.
    pub fn resilver(&mut self) -> Result<ResilverReport> {
        let mut report = ResilverReport::default();
        if !self
            .dev
            .get_mut()
            .as_mirror()
            .is_some_and(|m| m.needs_resilver())
        {
            return Ok(report);
        }
        // Metadata region: blocks 0..data_start, extent-sized batches.
        let meta_end = self.sb.data_start();
        let mut copies: Vec<(u64, usize, bool)> = Vec::new(); // (lba, count, real bytes)
        let mut lba = 0u64;
        while lba < meta_end {
            let count = (meta_end - lba).min(EXTENT_BLOCKS as u64) as usize;
            copies.push((lba, count, true));
            lba += count as u64;
        }
        // Live data blocks, adjacent ids coalesced into extents.
        let data_start = self.sb.data_start();
        let materialized = self.config.materialize_data;
        let live: Vec<u64> = self.alloc.allocated().collect();
        for (off, count) in runs(&live, EXTENT_BLOCKS) {
            if let Some(&start) = live.get(off) {
                copies.push((data_start + start, count, materialized));
            }
        }
        for (lba, count, real) in copies {
            let dev = self.dev.get_mut();
            let m = dev.as_mirror_mut().ok_or_else(|| {
                Error::internal("resilver target vanished mid-walk")
            })?;
            let copied = if real {
                m.resilver_extent(lba, count)?
            } else {
                m.resilver_extent_timing(count)?
            };
            report.blocks += copied;
            report.extents += 1;
        }
        let dev = self.dev.get_mut();
        let m = dev
            .as_mirror_mut()
            .ok_or_else(|| Error::internal("resilver target vanished mid-walk"))?;
        // The barrier token is the only license to promote: rustc
        // rejects a promotion that skipped the durability flush.
        let barrier = m.resilver_barrier()?;
        report.replicas_promoted = m.promote_rebuilt(barrier)?;
        Ok(report)
    }

    /// Internal: the checkpoint table (export path).
    pub(crate) fn table(&self) -> &BTreeMap<u64, Checkpoint> {
        &self.ckpts
    }
}

impl core::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.live_object_ids().len())
            .field("checkpoints", &self.ckpts.len())
            .field("blocks_in_use", &self.alloc.in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_hw::ModelDev;
    use aurora_sim::SimClock;

    /// Re-reading an indexed block off the medium — every `drop_caches`
    /// followed by a lazy fault, once a round in a cold-start loop —
    /// leaves the dedup index and the recorded hashes exactly as the
    /// write left them: no duplicate candidate, no replaced hash.
    #[test]
    fn rereading_an_indexed_block_leaves_the_dedup_index_alone() {
        let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", 64 * 1024));
        let config = StoreConfig {
            journal_blocks: 1024,
            materialize_data: true,
            ..StoreConfig::default()
        };
        let mut s = ObjectStore::format(dev, config).unwrap();
        s.create_object(ObjId(1), 8).unwrap();
        let pages: Vec<PageData> = (0..4).map(|i| PageData::Seeded(300 + i)).collect();
        for (i, page) in pages.iter().enumerate() {
            s.write_page(ObjId(1), i as u64, page).unwrap();
        }
        let (ck, _) = s.commit(None).unwrap();
        let recorded = s.cache.borrow().block_hash.clone();
        assert_eq!(recorded.len(), 4);

        for cycle in 0..5 {
            s.drop_caches().unwrap();
            for (i, page) in pages.iter().enumerate() {
                let got = s.read_page_at(ck, ObjId(1), i as u64).unwrap().unwrap();
                assert!(got.content_eq(page));
            }
            let cache = s.cache.borrow();
            assert_eq!(cache.block_hash, recorded, "cycle {cycle}");
            for page in &pages {
                let candidates = cache.dedup.get(&page.content_hash()).unwrap();
                assert_eq!(candidates.len(), 1, "cycle {cycle}: {candidates:?}");
            }
        }
    }
}
