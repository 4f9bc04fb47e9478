//! The object store proper: its state, formatting and recovery, the
//! page reads that resolve through it, and the audits. The write side
//! lives in `write.rs`, the commit step in `commit.rs`, the read
//! planner and the checked reader in `read.rs`.
//!
//! The live state is the staged delta over the kept head image: a page
//! resolves to its staged delta record, else its staged page, else the
//! head image's delta head or page (skipped for an object deleted or
//! created this epoch). A block's refcount is its checkpoint page
//! entries plus its staged page entries; a commit hands each staged
//! reference to the new checkpoint. Anything not yet committed is
//! discarded by [`ObjectStore::recover`], exactly like a real crash.

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::RangeBounds;

use aurora_hw::{BlockDev, BLOCK_SIZE};
use aurora_sim::cost::RESTORE_CACHE_HIT_NS;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimDuration;
use aurora_vm::PageData;

use crate::alloc::BlockAlloc;
use crate::checkpoint::{self, page_keys, Checkpoint, CkptId, Image, PageRef};
use crate::deltalog::{DeltaLog, DeltaRecord, Lsn};
use crate::journal::{self, JournalRecord};
use crate::layout::{Superblock, JOURNAL_START};
use crate::read::{CacheKey, ReadCache};
pub use crate::read::{runs, ReadOutcome, ReadPlan};
use crate::write::LivePage;
use crate::{BlockPtr, ObjId};

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Journal region size in blocks.
    pub journal_blocks: u64,
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
            materialize_data: false,
            delta_max_bytes: DEFAULT_DELTA_MAX_BYTES,
            delta_max_chain: DEFAULT_DELTA_MAX_CHAIN,
        }
    }
}

/// Store activity counters.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// Pages handed to the writer (one per `PageWrite`, a `write_page`
    /// included, dedup hits too) plus sub-page deltas staged.
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
    /// Extent writes the page writer issued: every data write, a lone
    /// `write_page`'s single-block extent included.
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
    /// whichever read found it (lazy fault, batched plan, scrub step or
    /// scrub). A `Cell` because the checked reader runs under `&self`.
    pub read_repairs: Cell<u64>,
    /// Journal frames submitted: appended records and compaction
    /// snapshots.
    pub journal_seals: u64,
    /// Commit-protocol flushes: each makes a record (or a snapshot) and
    /// every data extent submitted before it durable.
    pub extent_barriers: u64,
    /// Journal half switches: the only superblock writes after format.
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
pub(crate) fn committed_refs(ckpts: &BTreeMap<u64, Checkpoint>) -> HashMap<u64, u32> {
    let mut refs: HashMap<u64, u32> = HashMap::new();
    for ptr in ckpts.values().flat_map(|ck| ck.pages.values()) {
        *refs.entry(ptr.0).or_insert(0) += 1;
    }
    refs
}

/// Whether the data a tail record references reached the medium: the
/// content hashes of a `Commit`'s full-page blocks, read back, must fold
/// to its page digest. Only a materialized store's medium holds page
/// bytes; a timing-only store's page table *is* its medium, and a
/// timing-only write cannot be lost. A digest of
/// [`journal::UNCHECKED`] has nothing to compare with.
fn tail_backed(
    dev: &mut dyn BlockDev,
    config: &StoreConfig,
    data_start: u64,
    record: &JournalRecord,
) -> Result<bool> {
    let JournalRecord::Commit { ckpt, digest, .. } = record else {
        return Ok(true);
    };
    if !config.materialize_data || *digest == journal::UNCHECKED {
        return Ok(true);
    }
    // Every block is known up front: submit their extents back to back
    // in block order, wait once for the last, then fold their hashes in
    // key order.
    let mut blocks: Vec<u64> = ckpt.pages.values().map(|p| p.0).collect();
    blocks.sort_unstable();
    blocks.dedup();
    let mut hashes: HashMap<u64, u64> = HashMap::with_capacity(blocks.len());
    let mut done = dev.clock().now();
    for (off, len) in runs(&blocks, EXTENT_BLOCKS) {
        let Some(run @ [first, ..]) = blocks.get(off..off + len) else {
            continue;
        };
        let mut bodies = vec![PageData::Zero; len];
        done = done.max(dev.read_blocks(data_start + first, &mut bodies)?);
        hashes.extend(run.iter().zip(&bodies).map(|(&b, body)| (b, body.content_hash())));
    }
    dev.clock().advance_to(done);
    let read_back = ckpt.pages.values().map(|p| hashes.get(&p.0).copied());
    Ok(journal::page_digest(read_back) == *digest)
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
    pub(crate) dedup: HashMap<u64, Vec<BlockPtr>>,
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
    pub(crate) fn rebuild_dedup(&mut self) {
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
    pub(crate) fn install(&mut self, ptr: BlockPtr, page: &PageData, hash: u64) {
        self.data.insert(ptr.0, page.clone());
        self.dedup.entry(hash).or_default().push(ptr);
        self.block_hash.insert(ptr.0, hash);
    }

    /// Drops a freed block's contents and index entries.
    pub(crate) fn evict(&mut self, ptr: BlockPtr) {
        self.data.remove(&ptr.0);
        if let Some(h) = self.block_hash.remove(&ptr.0) {
            self.unindex(ptr, h);
        }
        self.read.forget(&CacheKey::Block(ptr.0));
    }

    /// Takes `ptr` out of the dedup candidates for `hash`.
    fn unindex(&mut self, ptr: BlockPtr, hash: u64) {
        if let Some(cands) = self.dedup.get_mut(&hash) {
            cands.retain(|&c| c != ptr);
            if cands.is_empty() {
                self.dedup.remove(&hash);
            }
        }
    }
}

/// The object store.
pub struct ObjectStore {
    /// `pub(crate)` for `txn.rs`, the commit protocol's only licensed
    /// journal/superblock writer.
    pub(crate) dev: RefCell<Box<dyn BlockDev>>,
    pub(crate) config: StoreConfig,
    pub(crate) sb: Superblock,
    pub(crate) alloc: BlockAlloc,
    /// Committed checkpoints by id.
    pub(crate) ckpts: BTreeMap<u64, Checkpoint>,
    /// The head's image, kept current by `commit`: the fold of the
    /// head's chain without walking it. GC never deletes the head and
    /// its merge preserves every descendant's image, so nothing else
    /// changes it.
    pub(crate) head_image: Image,
    /// The staged delta since the last commit, in key order: the live
    /// state is these over the head image. Each staged page holds one
    /// reference on its block.
    pub(crate) pending_pages: BTreeMap<(ObjId, u64), BlockPtr>,
    pub(crate) pending_blobs: BTreeMap<String, Vec<u8>>,
    pub(crate) pending_new_objects: Vec<(ObjId, u64)>,
    pub(crate) pending_deleted: Vec<ObjId>,
    /// Sub-page delta records staged this epoch, keyed by page. LSNs
    /// are assigned at commit in key order; the records enter `delta`
    /// only after the commit's flush succeeds.
    pub(crate) pending_deltas: BTreeMap<(ObjId, u64), DeltaRecord>,
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
        // Start above every generation an earlier store left on the
        // device — its superblocks' epochs, plus one for a snapshot
        // written ahead of a flip that never landed, and the first frame
        // of each half — so none of its frames passes the tail scan.
        let mut last = 0;
        let mut block = PageData::Zero;
        for slot in 0..2u64 {
            let done = dev.read_blocks(slot, std::slice::from_mut(&mut block))?;
            dev.clock().advance_to(done);
            if let Ok(old) = Superblock::from_block(&block.bytes()) {
                last = last.max(old.epoch + 1);
            }
        }
        let half_blocks = config.journal_blocks / 2;
        let half_bytes = half_blocks * BLOCK_SIZE as u64;
        for base in [JOURNAL_START, JOURNAL_START + half_blocks] {
            if let Some(generation) = journal::first_generation(dev.as_mut(), base, half_bytes)? {
                last = last.max(generation);
            }
        }
        let sb = Superblock {
            epoch: last + 1,
            journal_blocks: config.journal_blocks,
            journal_used: 0,
            journal_base: JOURNAL_START,
            total_blocks,
            next_ckpt: 1,
            next_obj: 1,
        };
        let slot = [PageData::from_bytes(&sb.to_block())];
        dev.write_blocks(0, &slot)?;
        dev.write_blocks(1, &slot)?;
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
        let mut block = PageData::Zero;
        let mut best: Option<Superblock> = None;
        for slot in 0..2u64 {
            let done = dev.read_blocks(slot, std::slice::from_mut(&mut block))?;
            dev.clock().advance_to(done);
            if let Ok(sb) = Superblock::from_block(&block.bytes()) {
                if best.as_ref().is_none_or(|b| sb.epoch > b.epoch) {
                    best = Some(sb);
                }
            }
        }
        let sb = best.ok_or_else(|| Error::corrupt("no valid superblock"))?;

        // Scan the active half frame by frame. The superblock vouches for
        // its first `journal_used` bytes (the snapshot the half switch
        // wrote); past them, each record whose frame checks out was
        // committed by its own flush.
        let half = sb.journal_half_bytes();
        let mut frames = journal::scan(dev.as_mut(), sb.journal_base, half, sb.epoch)?;
        let end = |frames: &[journal::Frame]| frames.last().map_or(0, |f| f.end);
        if end(&frames) < sb.journal_used {
            return Err(Error::corrupt(format!(
                "journal half at block {} ends at byte {}, inside the {} bytes the \
                 superblock vouches for",
                sb.journal_base,
                end(&frames),
                sb.journal_used
            )));
        }
        // Only the tail record can have been persisted ahead of its data:
        // every earlier one was followed in the queue by its own flush.
        if let Some(tail) = frames.last().filter(|f| f.end > sb.journal_used) {
            if !tail_backed(dev.as_mut(), &config, sb.data_start(), &tail.record)? {
                frames.pop();
            }
        }
        let mut sb = sb;
        sb.journal_used = end(&frames);
        let records = frames.into_iter().map(|f| f.record).collect();
        let (ckpts, delta) = journal::replay(records)
            .map_err(|e| Error::corrupt(format!("journal replay: {e}")))?;
        if let Some(&head) = ckpts.keys().next_back() {
            sb.next_ckpt = sb.next_ckpt.max(head + 1);
        }

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
        cache.rebuild_dedup();

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
                let mut page = match rec.prev {
                    Some(prev) => self.delta.materialize(&base_page, prev)?,
                    None => base_page,
                };
                rec.apply(&mut page);
                Ok(Some(page))
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

    /// Reads a metadata record (blob) as of a checkpoint: the one in
    /// the nearest checkpoint of its chain whose delta holds `key`.
    /// Records live in journal blocks, and this is the one reader of
    /// them — a cache policy over the bounded read cache, where a record
    /// is named by the checkpoint holding it plus its key and occupies
    /// its length in blocks. A resident record costs
    /// [`RESTORE_CACHE_HIT_NS`] per block and no device I/O; a miss waits
    /// for a read of its blocks and admits it. A commit admits
    /// nothing, so a record's first read after its commit, a
    /// `drop_caches` or a reboot pays the device. Each read is one
    /// probe in `read_cache_{hits,misses}`.
    pub fn get_blob(&mut self, ckpt: CkptId, key: &str) -> Result<Option<Vec<u8>>> {
        let Some((owner, found)) = checkpoint::resolve_blob(&self.ckpts, ckpt, key) else {
            return Ok(None);
        };
        let found = found.to_vec();
        let blocks = found.len().div_ceil(BLOCK_SIZE);
        let entry = CacheKey::Record(owner, key.to_string());
        if self.cache.get_mut().read.probe(&entry) {
            self.stats.read_cache_hits += 1;
            let hit = SimDuration::from_nanos(RESTORE_CACHE_HIT_NS * blocks as u64);
            self.dev.get_mut().clock().charge(hit);
        } else {
            self.stats.read_cache_misses += 1;
            let dev = self.dev.get_mut();
            let done = dev.charge_read_timing((blocks * BLOCK_SIZE) as u64)?;
            dev.clock().advance_to(done);
            self.cache.get_mut().read.admit(entry, blocks);
        }
        Ok(Some(found))
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
        let mut total = self.image_at(ckpt)?.refs(..).count() as u64 * BLOCK_SIZE as u64;
        for key in self.blob_keys_at(ckpt, "") {
            if let Some((_, v)) = checkpoint::resolve_blob(&self.ckpts, ckpt, &key) {
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
        for ck in self.ckpts.values() {
            if let Some(parent) = ck.parent.filter(|p| !self.ckpts.contains_key(&p.0)) {
                problems.push(format!(
                    "checkpoint {} has dangling parent {}",
                    ck.id.0, parent.0
                ));
            }
        }
        let mut expected = committed_refs(&self.ckpts);
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
        // One audit map at a time keeps fsck's peak memory at one.
        drop(reachable);
        // Each record's count is its in-degree: the heads naming it plus
        // the live records whose `prev` names it.
        let mut referents: HashMap<Lsn, u32> = HashMap::new();
        let named = self.ckpts.values().flat_map(|c| c.deltas.values().copied());
        for lsn in named.chain(self.delta.iter().filter_map(|(_, r)| r.prev)) {
            *referents.entry(lsn).or_insert(0) += 1;
        }
        for (lsn, _) in self.delta.iter() {
            let (actual, want) = (
                self.delta.refs(lsn),
                referents.get(&lsn).copied().unwrap_or(0),
            );
            if actual != want {
                problems.push(format!(
                    "delta lsn {lsn}: refcount {actual}, {want} referents"
                ));
            }
        }
        problems
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
    pub fn compact_chains(
        &mut self,
        objects: impl RangeBounds<ObjId>,
        min_len: u32,
    ) -> Result<usize> {
        if self.has_pending() {
            return Err(Error::invalid(
                "cannot compact chains with a staged delta pending",
            ));
        }
        let min_len = min_len.max(1);
        // Nothing is staged, so the head image is the live state; the
        // chains of `objects` fold in key order.
        let mut victims: Vec<((ObjId, u64), Lsn)> = Vec::new();
        for (&key, &head) in self.head_image.deltas.range(page_keys(objects)) {
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

    /// Takes `block`, whose platter copy failed a check, out of the
    /// dedup index, so a later write of the same bytes gets a fresh
    /// block instead of a reference to the bad one. Its contents and
    /// recorded hash stay: older checkpoints still restore from it, and
    /// the hash is the witness their reads are checked against.
    pub fn condemn_block(&mut self, block: u64) {
        let cache = self.cache.get_mut();
        if let Some(&h) = cache.block_hash.get(&block) {
            cache.unindex(BlockPtr(block), h);
        }
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
            report.blocks += m.resilver_extent(lba, count, real)?;
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

    /// Formatting over an earlier store leaves its CRC-valid records in
    /// the journal. None of them may replay: not on the next open, not
    /// behind the new store's first record, and not when the earlier
    /// store's superblocks are gone (a store whose open failed).
    #[test]
    fn format_over_a_used_store_replays_none_of_its_records() {
        let config = StoreConfig {
            journal_blocks: 64,
            materialize_data: true,
            ..StoreConfig::default()
        };
        let used = || {
            let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", 4096));
            let mut s = ObjectStore::format(dev, config.clone()).unwrap();
            s.create_object(ObjId(1), 8).unwrap();
            for i in 0..4 {
                s.write_page(ObjId(1), i, &PageData::Seeded(700 + i)).unwrap();
                s.commit(None).unwrap();
            }
            assert_eq!(s.sb.epoch, 1, "no half switch: the records are generation 1");
            s.dev.into_inner()
        };
        let wiped = || {
            let mut dev = used();
            for slot in 0..2 {
                dev.write_blocks(slot, &[PageData::Zero]).unwrap();
            }
            dev.flush().unwrap();
            dev
        };
        for (case, dev) in [("superblocks intact", used()), ("superblocks wiped", wiped())] {
            let s = ObjectStore::format(dev, config.clone()).unwrap();
            let s = ObjectStore::open(s.dev.into_inner(), config.clone()).unwrap();
            assert!(s.checkpoints().is_empty(), "{case}: {:?}", s.checkpoints());

            let mut s = s;
            s.create_object(ObjId(2), 1).unwrap();
            s.write_page(ObjId(2), 0, &PageData::Seeded(9)).unwrap();
            let (ck, _) = s.commit(None).unwrap();
            let s = ObjectStore::open(s.dev.into_inner(), config.clone()).unwrap();
            let ids: Vec<CkptId> = s.checkpoints().iter().map(|c| c.id).collect();
            assert_eq!(ids, [ck], "{case}: only the new store's record replays");
            assert!(s.fsck().is_empty(), "{case}: {:?}", s.fsck());
        }
    }

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

    /// fsck recounts every delta record's in-degree — the heads naming
    /// it plus the records whose `prev` names it — and reports a count
    /// that drifted from it in the block check's form.
    #[test]
    fn fsck_reports_a_skewed_delta_refcount() {
        let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", 64 * 1024));
        let config = StoreConfig {
            journal_blocks: 1024,
            ..StoreConfig::default()
        };
        let mut s = ObjectStore::format(dev, config).unwrap();
        s.create_object(ObjId(1), 8).unwrap();
        s.write_page(ObjId(1), 0, &PageData::Seeded(10)).unwrap();
        s.commit(None).unwrap();
        let mut page = PageData::Seeded(10).materialize();
        for byte in [7u8, 8] {
            page.iter_mut().take(8).for_each(|b| *b = byte);
            s.stage_delta(ObjId(1), 0, &PageData::from_bytes(&page), &[(0, 8)])
                .unwrap();
            s.commit(None).unwrap();
        }
        // The first record is a head and the second record's `prev`.
        let (first, _) = s.delta.iter().next().unwrap();
        assert_eq!(s.delta.refs(first), 2);
        assert!(s.fsck().is_empty(), "{:?}", s.fsck());

        s.delta.hold(first);
        assert_eq!(
            s.fsck(),
            vec![format!("delta lsn {first}: refcount 3, 2 referents")]
        );
    }
}
