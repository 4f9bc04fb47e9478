//! The object store proper: live maps, dedup, commits, recovery, GC.
//!
//! See the crate docs for the design overview. The durability contract:
//! [`ObjectStore::commit`] appends the delta to the journal, flushes,
//! updates the alternating superblock and flushes again, returning the
//! virtual instant at which the checkpoint is power-loss-safe — without
//! advancing the caller's clock, so the SLS overlaps flushing with
//! application execution. Anything not yet committed is discarded by
//! [`ObjectStore::recover`], exactly like a real crash.

use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

use aurora_hw::{BlockDev, BLOCK_SIZE};
use aurora_sim::cost::RESTORE_CACHE_HIT_NS;
use aurora_sim::error::{Error, Result};
use aurora_sim::lockdep::{OrderedMutex, RANK_PAGE_CACHE};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_vm::PageData;

use crate::alloc::BlockAlloc;
use crate::checkpoint::{self, Checkpoint, CkptId, PageRef};
use crate::deltalog::{DeltaLog, DeltaRecord, Lsn};
use crate::journal::{self, JournalRecord};
use crate::layout::{Superblock, JOURNAL_START};
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
    /// Capacity of the bounded read cache in pages (0 disables it).
    pub read_cache_pages: usize,
    /// Largest dirty footprint (bytes per page) the flush pipeline may
    /// record as a sub-page delta instead of a full image. 0 disables
    /// the delta path entirely.
    pub delta_max_bytes: u32,
    /// Longest redo chain before a page must take the full-image path
    /// (which truncates its chain).
    pub delta_max_chain: u32,
}

/// Default bounded read-cache capacity: 4096 pages = 16 MiB of DRAM.
pub const DEFAULT_READ_CACHE_PAGES: usize = 4096;

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
            read_cache_pages: DEFAULT_READ_CACHE_PAGES,
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
    /// Planned blocks those extent reads fetched (bridged filler is in
    /// the device's `bytes_read` only).
    pub read_blocks_coalesced: u64,
    /// Batched-read probes served by the bounded read cache.
    pub read_cache_hits: u64,
    /// Batched-read probes that charged device time.
    pub read_cache_misses: u64,
    /// Hits served through the content index: the probed block's bytes
    /// were already resident under a different block id.
    pub read_cache_content_hits: u64,
    /// Blocks healed by read-repair: a copy failed content-hash
    /// verification and was rewritten from a good mirror twin.
    pub read_repairs: u64,
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
    /// Entries into the device-redundancy repair path (read-repair and
    /// scrub healing). A `Cell` because scrub-path repair runs under
    /// `&self`.
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

/// One live object.
#[derive(Debug, Default, Clone)]
struct LiveObject {
    map: BTreeMap<u64, BlockPtr>,
    /// Delta overlay: pages whose live contents are a redo chain over
    /// the base image still held in `map`. A head here outranks the
    /// `map` entry; a full write clears it (chain truncation). Entries
    /// hold no block refs — the base's ref lives in `map`.
    deltas: BTreeMap<u64, Lsn>,
    size_pages: u64,
}

/// Folds the committed chain ending at `head` into live object maps —
/// the authoritative reconstruction used by recovery and by
/// [`ObjectStore::rollback_pending`].
fn fold_live(
    ckpts: &BTreeMap<u64, Checkpoint>,
    head: Option<CkptId>,
) -> Result<HashMap<ObjId, LiveObject>> {
    let mut live: HashMap<ObjId, LiveObject> = HashMap::new();
    let Some(h) = head else {
        return Ok(live);
    };
    let mut chain = Vec::new();
    let mut cur = Some(h);
    while let Some(c) = cur {
        let ck = ckpts
            .get(&c.0)
            .ok_or_else(|| Error::corrupt(format!("dangling parent {}", c.0)))?;
        chain.push(c.0);
        cur = ck.parent;
    }
    for id in chain.iter().rev() {
        let ck = ckpts
            .get(id)
            .ok_or_else(|| Error::corrupt(format!("checkpoint {id} vanished mid-fold")))?;
        for (oid, size) in &ck.new_objects {
            live.insert(
                *oid,
                LiveObject {
                    map: BTreeMap::new(),
                    deltas: BTreeMap::new(),
                    size_pages: *size,
                },
            );
        }
        // Pages before delta heads: a full image truncates the chain,
        // and a checkpoint carrying both for one key (post-GC-merge) has
        // the chain's base in `pages` with the newer head in `deltas`.
        for ((oid, idx), ptr) in &ck.pages {
            if let Some(obj) = live.get_mut(oid) {
                obj.map.insert(*idx, *ptr);
                obj.deltas.remove(idx);
            }
        }
        for ((oid, idx), lsn) in &ck.deltas {
            if let Some(obj) = live.get_mut(oid) {
                obj.deltas.insert(*idx, *lsn);
            }
        }
        for oid in &ck.deleted_objects {
            live.remove(oid);
        }
    }
    Ok(live)
}

/// Expected block refcounts for committed state: one per
/// checkpoint-delta pointer plus one per live-map pointer.
fn committed_refs(
    ckpts: &BTreeMap<u64, Checkpoint>,
    live: &HashMap<ObjId, LiveObject>,
) -> HashMap<u64, u32> {
    let mut refs: HashMap<u64, u32> = HashMap::new();
    for ck in ckpts.values() {
        for ptr in ck.pages.values() {
            *refs.entry(ptr.0).or_insert(0) += 1;
        }
    }
    for obj in live.values() {
        for ptr in obj.map.values() {
            *refs.entry(ptr.0).or_insert(0) += 1;
        }
    }
    refs
}

/// Number of shards in the dedup index — a power of two so a shard is
/// selected by masking the content hash.
pub const DEDUP_SHARDS: usize = 16;

/// Most blocks one vectored device request covers, read or written:
/// the span of an extent, first block to last.
pub const EXTENT_BLOCKS: usize = 64;

/// Cuts ascending, unique block ids into extents: `(offset, len)` runs
/// into `blocks`. A run keeps growing while the next block lies at most
/// `gap` unwanted blocks past the previous one and the span from the
/// run's first block to that one stays within `cap`. `gap == 0` yields
/// runs of strictly adjacent ids — what writes and resilver need, since
/// neither may touch a block outside its set; the read planner passes
/// the device's [`BlockDev::read_gap_blocks`].
pub fn runs(blocks: &[u64], gap: u64, cap: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut it = blocks.iter().copied().enumerate();
    let Some((mut off, mut first)) = it.next() else {
        return out;
    };
    let mut prev = first;
    for (at, b) in it {
        let bridged = b - prev - 1 <= gap && b - first < cap as u64;
        if !bridged {
            out.push((off, at - off));
            (off, first) = (at, b);
        }
        prev = b;
    }
    out.push((off, blocks.len() - off));
    out
}

/// Reads `run` — ascending blocks of one extent, `lba0` the data
/// region's first LBA — with a single vectored request over the span
/// from its first block to its last, and returns the wanted blocks'
/// bytes aligned with `run`. The filler between them is dropped here,
/// unseen by any caller: it has no recorded hash to be checked against
/// and no referent to serve.
fn read_span(dev: &mut dyn BlockDev, lba0: u64, run: &[u64]) -> Result<Vec<Vec<u8>>> {
    let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
        return Ok(Vec::new());
    };
    let mut span = vec![vec![0u8; BLOCK_SIZE]; (last - first + 1) as usize];
    dev.read_blocks(lba0 + first, &mut span)?;
    run.iter()
        .map(|&b| {
            span.get_mut((b - first) as usize)
                .map(std::mem::take)
                .ok_or_else(|| Error::internal(format!("extent block {b} outside its span")))
        })
        .collect()
}

/// The content-hash dedup index, partitioned into fixed shards by hash.
///
/// Sharding mirrors the parallel hash stage's partitioning of a flush
/// plan, so a shard's candidate lists are only ever touched for hashes
/// it owns. All mutation still happens on the store's owning thread;
/// determinism across worker counts comes from rebuilds walking blocks
/// in ascending id order, which fixes candidate-list order regardless
/// of who computed the hashes.
struct DedupIndex {
    shards: Vec<HashMap<u64, Vec<BlockPtr>>>,
}

impl DedupIndex {
    fn new() -> Self {
        DedupIndex {
            shards: (0..DEDUP_SHARDS).map(|_| HashMap::new()).collect(),
        }
    }

    /// The shard owning hash `h` (mask — always in range).
    fn shard_of(h: u64) -> usize {
        (h as usize) & (DEDUP_SHARDS - 1)
    }

    /// Candidate blocks for hash `h`, in insertion order.
    fn candidates(&self, h: u64) -> Option<&[BlockPtr]> {
        self.shards
            .get(Self::shard_of(h))
            .and_then(|s| s.get(&h))
            .map(Vec::as_slice)
    }

    fn insert(&mut self, h: u64, ptr: BlockPtr) {
        if let Some(s) = self.shards.get_mut(Self::shard_of(h)) {
            s.entry(h).or_default().push(ptr);
        }
    }

    fn remove(&mut self, h: u64, ptr: BlockPtr) {
        if let Some(s) = self.shards.get_mut(Self::shard_of(h)) {
            if let Some(cands) = s.get_mut(&h) {
                cands.retain(|&c| c != ptr);
                if cands.is_empty() {
                    s.remove(&h);
                }
            }
        }
    }

    fn clear(&mut self) {
        for s in &mut self.shards {
            s.clear();
        }
    }
}

/// The bounded LRU read cache with a content-hash index.
///
/// This models the DRAM the paged-in working set occupies: a probe for a
/// recently read block — or, through the content index, for a block whose
/// *bytes* are already resident under a different block id — is an index
/// lookup plus a frame adoption, not a device access. Page contents stay
/// in the unbounded authoritative table ([`PageCache::data`]); the bound
/// governs what the cost model treats as resident, never what the
/// simulation can recall.
///
/// Eviction order is a deterministic LRU: a monotonic stamp counter
/// replaces wall-clock recency, so runs are reproducible byte-for-byte.
struct ReadCache {
    /// Capacity in pages; 0 disables the cache.
    capacity: usize,
    /// block -> LRU stamp (higher = touched more recently).
    stamps: HashMap<u64, u64>,
    /// stamp -> block: oldest-first iteration drives eviction.
    by_stamp: BTreeMap<u64, u64>,
    /// block -> content hash of the resident bytes.
    hashes: HashMap<u64, u64>,
    /// content hash -> resident blocks holding those bytes.
    by_hash: HashMap<u64, Vec<u64>>,
    next_stamp: u64,
    /// Lifetime evictions (capacity pressure, not explicit removal).
    evictions: u64,
}

impl ReadCache {
    fn new(capacity: usize) -> Self {
        ReadCache {
            capacity,
            stamps: HashMap::new(),
            by_stamp: BTreeMap::new(),
            hashes: HashMap::new(),
            by_hash: HashMap::new(),
            next_stamp: 0,
            evictions: 0,
        }
    }

    /// Refreshes a resident block's LRU position.
    fn touch(&mut self, block: u64) {
        if let Some(stamp) = self.stamps.get(&block).copied() {
            self.by_stamp.remove(&stamp);
            self.next_stamp += 1;
            self.stamps.insert(block, self.next_stamp);
            self.by_stamp.insert(self.next_stamp, block);
        }
    }

    /// Whether `block` is resident; refreshes its LRU position if so.
    fn probe(&mut self, block: u64) -> bool {
        if self.stamps.contains_key(&block) {
            self.touch(block);
            true
        } else {
            false
        }
    }

    /// Admits `block` (with its content hash when known), evicting the
    /// least recently used entries past capacity.
    fn admit(&mut self, block: u64, hash: Option<u64>) {
        if self.capacity == 0 {
            return;
        }
        if self.stamps.contains_key(&block) {
            self.touch(block);
        } else {
            self.next_stamp += 1;
            self.stamps.insert(block, self.next_stamp);
            self.by_stamp.insert(self.next_stamp, block);
        }
        if let Some(h) = hash {
            self.set_hash(block, h);
        }
        self.evict_overflow();
    }

    /// Records or updates the content hash of a resident block.
    fn set_hash(&mut self, block: u64, h: u64) {
        if !self.stamps.contains_key(&block) {
            return;
        }
        if self.hashes.get(&block) == Some(&h) {
            return;
        }
        self.drop_hash(block);
        self.hashes.insert(block, h);
        self.by_hash.entry(h).or_default().push(block);
    }

    /// A resident block holding bytes with content hash `h`, if any.
    fn resident_with_hash(&self, h: u64) -> Option<u64> {
        self.by_hash.get(&h).and_then(|l| l.first()).copied()
    }

    /// Unlinks a block from the content index.
    fn drop_hash(&mut self, block: u64) {
        if let Some(h) = self.hashes.remove(&block) {
            if let Some(list) = self.by_hash.get_mut(&h) {
                list.retain(|&b| b != block);
                if list.is_empty() {
                    self.by_hash.remove(&h);
                }
            }
        }
    }

    /// Removes a block entirely (freed block, stale entry).
    fn forget(&mut self, block: u64) {
        if let Some(stamp) = self.stamps.remove(&block) {
            self.by_stamp.remove(&stamp);
        }
        self.drop_hash(block);
    }

    fn evict_overflow(&mut self) {
        while self.stamps.len() > self.capacity {
            let Some((&stamp, &block)) = self.by_stamp.iter().next() else {
                break;
            };
            self.by_stamp.remove(&stamp);
            self.stamps.remove(&block);
            self.drop_hash(block);
            self.evictions += 1;
        }
    }

    /// Drops every entry; the eviction counter is cumulative and stays.
    fn clear(&mut self) {
        self.stamps.clear();
        self.by_stamp.clear();
        self.hashes.clear();
        self.by_hash.clear();
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.clear();
        } else {
            self.evict_overflow();
        }
    }

    fn len(&self) -> usize {
        self.stamps.len()
    }
}

/// One probe against the read cache, resolved under a single lock hold.
enum ReadProbe {
    /// The block itself is resident; its contents ride along.
    Hit(PageData),
    /// A different resident block holds identical bytes.
    ContentHit(PageData),
    /// Device read required.
    Miss,
}

/// Page contents plus the dedup index and the bounded read cache,
/// behind one lock so the read paths can stay `&self`: a cache fill is
/// not a logical mutation. The lock carries lockdep rank `page_cache`
/// because flushes take it from inside their group's barrier.
struct PageCache {
    /// Authoritative page contents by block (compact representation).
    data: HashMap<u64, PageData>,
    /// Content-hash index: hash -> candidate blocks, sharded by hash.
    dedup: DedupIndex,
    /// Block -> content hash (reverse index for release).
    block_hash: HashMap<u64, u64>,
    /// Bounded LRU over recently read blocks.
    read: ReadCache,
}

impl PageCache {
    fn new(data: HashMap<u64, PageData>, read_cache_pages: usize) -> Self {
        PageCache {
            data,
            dedup: DedupIndex::new(),
            block_hash: HashMap::new(),
            read: ReadCache::new(read_cache_pages),
        }
    }

    /// Probes the read cache for `block`: identity hit, content hit, or
    /// miss. Hits hand back the resident bytes; a content hit also
    /// adopts them under the probed block id so later probes hit
    /// directly.
    fn probe_read(&mut self, block: u64) -> ReadProbe {
        if self.read.probe(block) {
            if let Some(page) = self.data.get(&block).cloned() {
                return ReadProbe::Hit(page);
            }
            // Contents vanished without eviction bookkeeping (e.g. a
            // rollback rebuilt the table): drop the stale entry.
            self.read.forget(block);
        }
        if let Some(&h) = self.block_hash.get(&block) {
            if let Some(twin) = self.read.resident_with_hash(h) {
                if let Some(page) = self.data.get(&twin).cloned() {
                    // Guard against hash collisions when the probed
                    // block's own bytes are recallable.
                    let collision = self
                        .data
                        .get(&block)
                        .is_some_and(|own| !own.content_eq(&page));
                    if !collision {
                        self.data.insert(block, page.clone());
                        self.read.admit(block, Some(h));
                        return ReadProbe::ContentHit(page);
                    }
                }
            }
        }
        ReadProbe::Miss
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
                self.dedup.insert(h, BlockPtr(b));
                self.block_hash.insert(b, h);
            }
        }
    }

    /// Caches freshly written contents and indexes them for dedup.
    fn install(&mut self, ptr: BlockPtr, page: &PageData, hash: Option<u64>) {
        self.data.insert(ptr.0, page.clone());
        if let Some(h) = hash {
            self.dedup.insert(h, ptr);
            self.block_hash.insert(ptr.0, h);
        }
    }

    /// Drops a freed block's contents and index entries.
    fn evict(&mut self, ptr: BlockPtr) {
        self.data.remove(&ptr.0);
        if let Some(h) = self.block_hash.remove(&ptr.0) {
            self.dedup.remove(h, ptr);
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
    /// FNV-1a content hash of `page`.
    pub hash: u64,
}

/// A batched read plan: per-target block resolutions plus an extent
/// schedule over the unique blocks. Built by
/// [`ObjectStore::plan_reads_at`], executed by
/// [`ObjectStore::execute_read_plan`].
#[derive(Debug, Clone, Default)]
pub struct ReadPlan {
    /// Per-target resolved block, aligned with the target slice handed
    /// to the planner; `None` is a hole (the page restores as zeros).
    /// A target under a redo chain resolves to its chain's *base*
    /// block — the batched device read fetches bases, and the entry in
    /// [`ReadPlan::chains`] says which chain to replay on top.
    pub resolved: Vec<Option<BlockPtr>>,
    /// Per-target delta-chain head, aligned with `resolved`; `None`
    /// means the resolved block is the page's full image.
    pub chains: Vec<Option<Lsn>>,
    /// Unique referenced blocks, ascending. Dedup-shared blocks appear
    /// once no matter how many targets they serve — they are read once
    /// and fanned out.
    pub blocks: Vec<u64>,
    /// Extent schedule: `(offset, len)` runs into `blocks`, each read
    /// with one request spanning its first block to its last — at most
    /// [`EXTENT_BLOCKS`], holes no longer than the device's
    /// [`BlockDev::read_gap_blocks`] read through and discarded.
    pub extents: Vec<(usize, usize)>,
}

impl ReadPlan {
    /// Cuts the extent schedule into consecutive batches of whole
    /// extents, each carrying at most `max_blocks` blocks: index ranges
    /// into [`ReadPlan::extents`] for
    /// [`ObjectStore::execute_read_plan_range`].
    pub fn extent_batches(&self, max_blocks: usize) -> Vec<Range<usize>> {
        let mut batches = Vec::new();
        let (mut first, mut blocks) = (0usize, 0usize);
        for (at, &(_, len)) in self.extents.iter().enumerate() {
            if at > first && blocks + len > max_blocks {
                batches.push(first..at);
                (first, blocks) = (at, 0);
            }
            blocks += len;
        }
        if first < self.extents.len() {
            batches.push(first..self.extents.len());
        }
        batches
    }
}

/// What executing a [`ReadPlan`] produced.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Contents for every planned block.
    pub pages: HashMap<u64, PageData>,
    /// Blocks whose contents came off the device (or the timing-mode
    /// page table) rather than the read cache — the ones the restore
    /// pipeline still owes a content-hash pass.
    pub fetched: Vec<u64>,
    /// Aligned with `fetched`: the block's content hash where the read
    /// already computed it to check the bytes against the recorded one
    /// (materialized stores), `None` where the hash pass still has to.
    pub fetched_hashes: Vec<Option<u64>>,
    /// Probes served by the bounded read cache (identity or content).
    pub cache_hits: u64,
    /// Probes that charged device time.
    pub cache_misses: u64,
    /// The subset of hits served through the content index.
    pub content_hits: u64,
    /// Vectored extent reads issued.
    pub extents_read: u64,
}

/// The object store.
pub struct ObjectStore {
    /// `pub(crate)` for `txn.rs`, the commit protocol's only licensed
    /// journal/superblock writer.
    pub(crate) dev: RefCell<Box<dyn BlockDev>>,
    config: StoreConfig,
    pub(crate) sb: Superblock,
    alloc: BlockAlloc,
    /// Committed checkpoints by id.
    ckpts: BTreeMap<u64, Checkpoint>,
    head: Option<CkptId>,
    /// Live object state (committed head + pending writes).
    live: HashMap<ObjId, LiveObject>,
    /// Pending delta since the last commit.
    pending_pages: HashMap<(ObjId, u64), BlockPtr>,
    pending_blobs: BTreeMap<String, Vec<u8>>,
    pending_new_objects: Vec<(ObjId, u64)>,
    pending_deleted: Vec<ObjId>,
    /// Sub-page delta records staged this epoch, keyed by page. LSNs
    /// are assigned at commit in key order; the records enter `delta`
    /// only after the superblock flip succeeds.
    pending_deltas: BTreeMap<(ObjId, u64), DeltaRecord>,
    /// Committed delta records (rebuilt from the journal on recovery).
    delta: DeltaLog,
    /// Page contents, the dedup index and the bounded read cache.
    cache: OrderedMutex<PageCache>,
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
        let cache = PageCache::new(HashMap::new(), config.read_cache_pages);
        Ok(ObjectStore {
            dev: RefCell::new(dev),
            config,
            sb,
            alloc: BlockAlloc::new(data_blocks),
            ckpts: BTreeMap::new(),
            head: None,
            live: HashMap::new(),
            pending_pages: HashMap::new(),
            pending_blobs: BTreeMap::new(),
            pending_new_objects: Vec::new(),
            pending_deleted: Vec::new(),
            pending_deltas: BTreeMap::new(),
            delta: DeltaLog::default(),
            cache: OrderedMutex::new(RANK_PAGE_CACHE, "page_cache", cache),
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

        // Rebuild live state by folding the chain from the head (the
        // newest checkpoint).
        let head = ckpts.keys().next_back().map(|&id| CkptId(id));
        let live = fold_live(&ckpts, head)?;

        // Rebuild refcounts: one per checkpoint-delta pointer plus one per
        // live-map pointer.
        let refs = committed_refs(&ckpts, &live);
        let mut alloc = BlockAlloc::new(sb.data_blocks());
        for (&b, &r) in &refs {
            alloc.set_refs(BlockPtr(b), r);
        }

        // Retain contents only for referenced blocks; rebuild dedup in
        // ascending block order (deterministic candidate lists).
        let mut cache = PageCache::new(data, config.read_cache_pages);
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
            head,
            live,
            pending_pages: HashMap::new(),
            pending_blobs: BTreeMap::new(),
            pending_new_objects: Vec::new(),
            pending_deleted: Vec::new(),
            pending_deltas: BTreeMap::new(),
            delta,
            cache: OrderedMutex::new(RANK_PAGE_CACHE, "page_cache", cache),
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
        if self.live.contains_key(&oid) {
            return Err(Error::already_exists(format!("object {}", oid.0)));
        }
        self.live.insert(
            oid,
            LiveObject {
                map: BTreeMap::new(),
                deltas: BTreeMap::new(),
                size_pages,
            },
        );
        self.pending_new_objects.push((oid, size_pages));
        Ok(())
    }

    /// True if the object exists in the live state.
    pub fn object_exists(&self, oid: ObjId) -> bool {
        self.live.contains_key(&oid)
    }

    /// Declared size (in pages) of a live object.
    pub fn object_size(&self, oid: ObjId) -> Result<u64> {
        Ok(self
            .live
            .get(&oid)
            .ok_or_else(|| Error::not_found(format!("object {}", oid.0)))?
            .size_pages)
    }

    /// Live object ids (optionally filtered to a namespace via the
    /// caller). Used by the SLS to prune superseded incarnations.
    pub fn live_object_ids(&self) -> Vec<ObjId> {
        let mut ids: Vec<ObjId> = self.live.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Deletes an object from the live state (history stays readable
    /// through older checkpoints).
    pub fn delete_object(&mut self, oid: ObjId) -> Result<()> {
        let obj = self
            .live
            .remove(&oid)
            .ok_or_else(|| Error::not_found(format!("object {}", oid.0)))?;
        for (_, ptr) in obj.map {
            self.release_block(ptr);
        }
        // Pages written this epoch can never be read: drop their pending
        // delta entries. If the object was also born this epoch, it never
        // existed as far as the next checkpoint is concerned.
        self.pending_pages.retain(|(o, _), _| *o != oid);
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
        if self.live.contains_key(&dst) {
            return Err(Error::already_exists(format!("object {}", dst.0)));
        }
        let src_obj = self
            .live
            .get(&src)
            .ok_or_else(|| Error::not_found(format!("object {}", src.0)))?
            .clone();
        // Pages under a redo chain (committed overlay or staged this
        // epoch) can't be pointer-shared — the share would lose the
        // chain. Materialize those few into full pages for `dst`.
        let mut chained: std::collections::BTreeSet<u64> =
            src_obj.deltas.keys().copied().collect();
        chained.extend(
            self.pending_deltas
                .keys()
                .filter(|(o, _)| *o == src)
                .map(|(_, i)| *i),
        );
        let mut shared = src_obj.clone();
        shared.deltas.clear();
        shared.map.retain(|i, _| !chained.contains(i));
        for ptr in shared.map.values() {
            self.alloc.incref(*ptr);
        }
        for (idx, ptr) in shared.map.iter().map(|(i, p)| (*i, *p)) {
            self.pending_pages.insert((dst, idx), ptr);
        }
        self.pending_new_objects.push((dst, src_obj.size_pages));
        self.live.insert(dst, shared);
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
        if !self.live.contains_key(&oid) {
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
        let obj = self
            .live
            .get_mut(&oid)
            .ok_or_else(|| Error::internal(format!("object {} vanished during write", oid.0)))?;
        let old = obj.map.insert(idx, ptr);
        // A full image truncates the page's redo chain.
        obj.deltas.remove(&idx);
        self.pending_deltas.remove(&(oid, idx));
        if let Some(old) = old {
            self.release_block(old);
        }
        self.pending_pages.insert((oid, idx), ptr);
        Ok(())
    }

    /// Writes a batch of pages, coalescing adjacent fresh blocks into
    /// extent-sized vectored device writes.
    ///
    /// Dedup decisions, allocations and live-map updates happen in plan
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
        // Plan-order pass: dedup, allocation, live-map publication.
        let mut fresh: BTreeMap<u64, PageData> = BTreeMap::new();
        for w in writes {
            if !self.live.contains_key(&w.oid) {
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
            let obj = self
                .live
                .get_mut(&w.oid)
                .ok_or_else(|| {
                    Error::internal(format!("object {} vanished during write", w.oid.0))
                })?;
            let old = obj.map.insert(w.idx, ptr);
            // A full image truncates the page's redo chain.
            obj.deltas.remove(&w.idx);
            self.pending_deltas.remove(&(w.oid, w.idx));
            if let Some(old) = old {
                self.release_block(old);
            }
            self.pending_pages.insert((w.oid, w.idx), ptr);
        }
        // A block allocated for an early write can be released (and
        // even reallocated) by a later write in the same batch; only
        // blocks still referenced go to the device.
        fresh.retain(|&b, _| self.alloc.refs(BlockPtr(b)) > 0);

        // Extent pass: each run of adjacent blocks becomes one
        // vectored write.
        let blocks: Vec<u64> = fresh.keys().copied().collect();
        for (off, len) in runs(&blocks, 0, EXTENT_BLOCKS) {
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
        let cache = self.cache.lock();
        for &cand in cache.dedup.candidates(h)? {
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
        let obj = self.live.get(&oid)?;
        if let Some(rec) = self.pending_deltas.get(&(oid, idx)) {
            return Some(rec.chain_len);
        }
        if let Some(&head) = obj.deltas.get(&idx) {
            return self.delta.chain_len(head).ok();
        }
        obj.map.get(&idx).map(|_| 0)
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
        let obj = self
            .live
            .get(&oid)
            .ok_or_else(|| Error::not_found(format!("object {}", oid.0)))?;
        let (base, prev, chain_len) = if let Some(&head) = obj.deltas.get(&idx) {
            let head_rec = self.delta.get(head).ok_or_else(|| {
                Error::corrupt(format!("delta head {head} missing from log"))
            })?;
            (head_rec.base, Some(head), head_rec.chain_len + 1)
        } else if let Some(&ptr) = obj.map.get(&idx) {
            (ptr, None, 1)
        } else {
            return Err(Error::invalid(format!(
                "delta for {}/{idx} without a base image",
                oid.0
            )));
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
        let obj = self
            .live
            .get(&oid)
            .ok_or_else(|| Error::not_found(format!("object {}", oid.0)))?;
        // A record staged this epoch is the newest state: its chain (if
        // any) replays first, then its own extents.
        if let Some(rec) = self.pending_deltas.get(&(oid, idx)) {
            let base_page = self.fetch_block(rec.base)?;
            let chained = match rec.prev {
                Some(prev) => self.delta.materialize(&base_page, prev)?,
                None => base_page,
            };
            return Ok(Some(rec.apply(&chained)));
        }
        if let Some(&head) = obj.deltas.get(&idx) {
            return self.materialize_ref(PageRef::Delta(head)).map(Some);
        }
        match obj.map.get(&idx) {
            Some(&p) => self.fetch_block(p).map(Some),
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

    /// True if the live state holds a page at `(oid, idx)` (no charge).
    pub fn has_page(&self, oid: ObjId, idx: u64) -> bool {
        self.pending_deltas.contains_key(&(oid, idx))
            || self.live.get(&oid).is_some_and(|obj| {
                obj.map.contains_key(&idx) || obj.deltas.contains_key(&idx)
            })
    }

    /// True if checkpoint `ckpt` resolves a page at `(oid, idx)`.
    pub fn has_page_at(&self, ckpt: CkptId, oid: ObjId, idx: u64) -> bool {
        checkpoint::resolve_ref(&self.ckpts, ckpt, oid, idx).is_some()
    }

    fn fetch_block(&self, ptr: BlockPtr) -> Result<PageData> {
        // One lock hold covers lookup, the medium fill-in, and the
        // read-cache touch, so a concurrent batched restore can never
        // observe a half-installed block.
        let mut cache = self.cache.lock();
        if let Some(page) = cache.data.get(&ptr.0).cloned() {
            let hash = cache.block_hash.get(&ptr.0).copied();
            cache.read.admit(ptr.0, hash);
            drop(cache);
            self.dev.borrow_mut().charge_read_timing(BLOCK_SIZE as u64)?;
            return Ok(page);
        }
        if self.config.materialize_data {
            let lba = self.sb.data_start() + ptr.0;
            let mut buf = vec![0u8; BLOCK_SIZE];
            self.dev.borrow_mut().read(lba, &mut buf)?;
            let page = PageData::from_bytes(&buf);
            let hash = if self.config.dedup {
                Some(page.content_hash())
            } else {
                None
            };
            cache.install(ptr, &page, hash);
            cache.read.admit(ptr.0, hash);
            return Ok(page);
        }
        Err(Error::corrupt(format!(
            "block {} has no recoverable contents",
            ptr.0
        )))
    }

    /// Resolves a set of `(object, page)` targets as of a checkpoint
    /// into a batched read plan: per-target block pointers, the unique
    /// block set (dedup-shared blocks once), and that set cut into
    /// extents by [`runs`] at the device's read break-even.
    pub fn plan_reads_at(&self, ckpt: CkptId, targets: &[(ObjId, u64)]) -> ReadPlan {
        let mut resolved = Vec::with_capacity(targets.len());
        let mut chains = Vec::with_capacity(targets.len());
        let mut uniq = std::collections::BTreeSet::new();
        for &(oid, idx) in targets {
            // A chained page plans a read of its *base* block — chain
            // replay happens after the batched fetch, and twin bases
            // are still read once and fanned out.
            let (ptr, head) = match checkpoint::resolve_ref(&self.ckpts, ckpt, oid, idx) {
                Some(PageRef::Full(p)) => (Some(p), None),
                Some(PageRef::Delta(lsn)) => (
                    self.delta.get(lsn).map(|rec| rec.base),
                    Some(lsn),
                ),
                None => (None, None),
            };
            if let Some(p) = ptr {
                uniq.insert(p.0);
            }
            resolved.push(ptr);
            chains.push(head);
        }
        let blocks: Vec<u64> = uniq.into_iter().collect();
        let extents = runs(&blocks, self.dev.borrow().read_gap_blocks(), EXTENT_BLOCKS);
        ReadPlan {
            resolved,
            chains,
            blocks,
            extents,
        }
    }

    /// Executes a read plan: probes the bounded read cache per block,
    /// issues one vectored device read per extent that missed, and
    /// returns contents for every planned block.
    ///
    /// Charging: an all-hit extent costs [`RESTORE_CACHE_HIT_NS`] per
    /// block (index probe + frame adoption); an extent with any miss
    /// charges one vectored read — a single access latency amortized
    /// over the run. Materialized reads are verified against the
    /// recorded content hashes; damaged bytes get exactly one re-read
    /// (transient electronics) before the plan aborts with
    /// `ErrorKind::Corrupt`, leaving the store intact.
    pub fn execute_read_plan(&mut self, plan: &ReadPlan) -> Result<ReadOutcome> {
        self.execute_read_plan_range(plan, 0..plan.extents.len())
    }

    /// Executes the extents `extents` (a range into
    /// [`ReadPlan::extents`], e.g. one of [`ReadPlan::extent_batches`])
    /// of a read plan and returns the contents of their blocks. Probes,
    /// charging and verification are per extent, so executing a plan
    /// range by range costs and reads exactly what one
    /// [`ObjectStore::execute_read_plan`] call does.
    pub fn execute_read_plan_range(
        &mut self,
        plan: &ReadPlan,
        extents: Range<usize>,
    ) -> Result<ReadOutcome> {
        let Some(extents) = plan.extents.get(extents) else {
            return Err(Error::invalid("read plan extent range out of bounds"));
        };
        let mut out = ReadOutcome::default();
        for &(off, len) in extents {
            let Some(run) = plan.blocks.get(off..off + len) else {
                return Err(Error::invalid("read plan extent out of range"));
            };
            self.read_extent(run, &mut out)?;
        }
        self.stats.read_cache_hits += out.cache_hits;
        self.stats.read_cache_misses += out.cache_misses;
        self.stats.read_cache_content_hits += out.content_hits;
        Ok(out)
    }

    /// Reads one extent of a plan — `run`, its wanted blocks ascending —
    /// for [`ObjectStore::execute_read_plan`]. Only `run`'s blocks are
    /// probed, checked, admitted to the read cache and returned; a hole
    /// the planner bridged costs its transfer time and nothing else.
    fn read_extent(&mut self, run: &[u64], out: &mut ReadOutcome) -> Result<()> {
        let (Some(&start), Some(&last)) = (run.first(), run.last()) else {
            return Ok(());
        };
        let mut missed = false;
        {
            let mut cache = self.cache.lock();
            for &b in run {
                match cache.probe_read(b) {
                    ReadProbe::Hit(page) => {
                        out.cache_hits += 1;
                        out.pages.insert(b, page);
                    }
                    ReadProbe::ContentHit(page) => {
                        out.cache_hits += 1;
                        out.content_hits += 1;
                        out.pages.insert(b, page);
                    }
                    ReadProbe::Miss => {
                        out.cache_misses += 1;
                        missed = true;
                    }
                }
            }
        }
        if !missed {
            let dur = SimDuration::from_nanos(RESTORE_CACHE_HIT_NS * run.len() as u64);
            self.dev.borrow().clock().charge(dur);
            return Ok(());
        }
        // Any miss reads the whole span: the vectored request covers the
        // extent either way, and hits in it ride along for free.
        out.extents_read += 1;
        self.stats.read_extents_coalesced += 1;
        self.stats.read_blocks_coalesced += run.len() as u64;
        if self.config.materialize_data {
            let lba0 = self.sb.data_start();
            let mut bufs = read_span(self.dev.get_mut().as_mut(), lba0, run)?;
            let mut checked = self.check_extent(run, &bufs);
            if checked.is_none() {
                // Damaged bytes came back. One re-read gives transient
                // electronics the benefit of the doubt; damaged media
                // re-reads identically, and then a mirror twin gets a
                // chance to heal the damaged copy (read-repair) before
                // the restore aborts with the committed store untouched.
                // Healed bytes are checked like any others.
                bufs = read_span(self.dev.get_mut().as_mut(), lba0, run)?;
                checked = self.check_extent(run, &bufs);
                if checked.is_none() && self.repair_extent(run, &mut bufs)? {
                    checked = self.check_extent(run, &bufs);
                }
            }
            let Some(checked) = checked else {
                return Err(Error::corrupt(format!(
                    "extent at block {start}: content hash mismatch on read"
                )));
            };
            let mut cache = self.cache.lock();
            for (&b, (page, hash)) in run.iter().zip(checked) {
                if out.pages.contains_key(&b) {
                    continue; // probe already served it
                }
                cache.data.insert(b, page.clone());
                cache.read.admit(b, hash);
                out.fetched.push(b);
                out.fetched_hashes.push(hash);
                out.pages.insert(b, page);
            }
        } else {
            {
                let mut cache = self.cache.lock();
                for &b in run {
                    if out.pages.contains_key(&b) {
                        continue;
                    }
                    let Some(page) = cache.data.get(&b).cloned() else {
                        return Err(Error::corrupt(format!(
                            "block {b} has no recoverable contents"
                        )));
                    };
                    let hash = cache.block_hash.get(&b).copied();
                    cache.read.admit(b, hash);
                    out.fetched.push(b);
                    out.fetched_hashes.push(None);
                    out.pages.insert(b, page);
                }
            }
            self.dev
                .get_mut()
                .charge_read_timing((last - start + 1) * BLOCK_SIZE as u64)?;
        }
        Ok(())
    }

    /// Read-repair: asks the device layer to heal every block in `run`
    /// whose bytes in `bufs` fail content-hash verification, patching
    /// the healed bytes back into `bufs`. Returns `true` only if every
    /// damaged block was repaired from a verified twin copy (a device
    /// without redundancy repairs nothing and returns `false`).
    fn repair_extent(&mut self, run: &[u64], bufs: &mut [Vec<u8>]) -> Result<bool> {
        // (position in run, block id, expected hash) of damaged blocks.
        let damaged: Vec<(usize, u64, u64)> = {
            let cache = self.cache.lock();
            run.iter()
                .zip(bufs.iter())
                .enumerate()
                .filter_map(|(i, (&b, buf))| {
                    cache.block_hash.get(&b).and_then(|&h| {
                        (PageData::from_bytes(buf).content_hash() != h).then_some((i, b, h))
                    })
                })
                .collect()
        };
        for (i, b, expect) in damaged {
            let lba = self.sb.data_start() + b;
            self.stats
                .repair_path_entries
                .set(self.stats.repair_path_entries.get() + 1);
            let golden = self
                .dev
                .get_mut()
                .repair_block(lba, &mut |bytes: &[u8]| {
                    PageData::from_bytes(bytes).content_hash() == expect
                })?;
            let Some(golden) = golden else {
                return Ok(false);
            };
            if let Some(slot) = bufs.get_mut(i) {
                *slot = golden;
            }
            self.stats.read_repairs += 1;
        }
        Ok(true)
    }

    /// Decodes the bytes the medium returned for `run` and compares
    /// every block whose content hash is recorded with it: `None` if
    /// any differs, else each block's page with the hash computed for
    /// the comparison (`None` for a block with no recorded hash).
    fn check_extent(&self, run: &[u64], bufs: &[Vec<u8>]) -> Option<Vec<(PageData, Option<u64>)>> {
        let cache = self.cache.lock();
        run.iter()
            .zip(bufs)
            .map(|(b, buf)| {
                let page = PageData::from_bytes(buf);
                match cache.block_hash.get(b) {
                    Some(&recorded) => {
                        (page.content_hash() == recorded).then_some((page, Some(recorded)))
                    }
                    None => Some((page, None)),
                }
            })
            .collect()
    }

    /// Records content hashes computed by the restore pipeline's
    /// parallel hash stage for blocks a read plan fetched: they feed
    /// the read cache's content index (and, for stores without a
    /// write-time hash record, the per-block reverse index the
    /// corruption check and content probes rely on).
    pub fn note_read_hashes(&mut self, pairs: &[(u64, u64)]) {
        let cache = self.cache.get_mut();
        for &(block, h) in pairs {
            cache.block_hash.entry(block).or_insert(h);
            cache.read.set_hash(block, h);
        }
    }

    /// Sets the bounded read cache's capacity in pages (0 disables it),
    /// evicting down if needed.
    pub fn set_read_cache_capacity(&mut self, pages: usize) {
        self.config.read_cache_pages = pages;
        self.cache.get_mut().read.set_capacity(pages);
    }

    /// The bounded read cache's capacity in pages.
    pub fn read_cache_capacity(&self) -> usize {
        self.config.read_cache_pages
    }

    /// Current read-cache occupancy in pages.
    pub fn read_cache_len(&self) -> usize {
        self.cache.lock().read.len()
    }

    /// Lifetime read-cache evictions (capacity pressure).
    pub fn read_cache_evictions(&self) -> u64 {
        self.cache.lock().read.evictions
    }

    /// Drops the read cache alone — the cold-start state for a
    /// measurement run. Contents and indices are untouched.
    pub fn clear_read_cache(&mut self) {
        self.cache.get_mut().read.clear();
    }

    /// Drops every cached page body and the read cache, forcing
    /// subsequent reads back to the medium — the state after an image
    /// lands on a machine that has never run it. Only materialized
    /// stores can re-read contents; for timing-only stores the page
    /// table *is* the medium, so dropping it would destroy data.
    ///
    /// Recorded content hashes and the dedup index survive: the hashes
    /// are the read path's corruption check, and the index entries go
    /// inert until their blocks are re-read.
    pub fn drop_caches(&mut self) -> Result<()> {
        if !self.config.materialize_data {
            return Err(Error::unsupported(
                "drop_caches requires materialized data; the page table is the only copy",
            ));
        }
        let cache = self.cache.get_mut();
        cache.data.clear();
        cache.read.clear();
        Ok(())
    }

    /// The live page map of an object (restore / export walks).
    pub fn object_map(&self, oid: ObjId) -> Result<Vec<(u64, BlockPtr)>> {
        Ok(self
            .live
            .get(&oid)
            .ok_or_else(|| Error::not_found(format!("object {}", oid.0)))?
            .map
            .iter()
            .map(|(i, p)| (*i, *p))
            .collect())
    }

    /// The effective page map of an object at a checkpoint, each page a
    /// full image or a delta-chain head (materialize the latter with
    /// [`ObjectStore::read_page_at`] or [`ObjectStore::apply_chain`]).
    pub fn object_refs_at(&self, ckpt: CkptId, oid: ObjId) -> Vec<(u64, PageRef)> {
        checkpoint::effective_refs(&self.ckpts, ckpt, oid)
            .into_iter()
            .collect()
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
            self.dev
                .borrow_mut()
                .charge_read_timing(v.len().div_ceil(BLOCK_SIZE) as u64 * BLOCK_SIZE as u64)?;
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
        txn: crate::txn::DirtyTxn,
        name: Option<&str>,
    ) -> Result<(CkptId, SimTime)> {
        let id = CkptId(self.sb.next_ckpt);
        // Assign LSNs to the staged delta records in key order (the
        // staging map is a BTreeMap, so the order — and therefore the
        // journal image — is deterministic across worker counts).
        let mut new_records: Vec<(Lsn, DeltaRecord)> = Vec::new();
        let mut delta_heads: HashMap<(ObjId, u64), Lsn> = HashMap::new();
        let mut lsn = self.delta.next_lsn();
        for (&key, rec) in &self.pending_deltas {
            delta_heads.insert(key, lsn);
            new_records.push((lsn, rec.clone()));
            lsn += 1;
        }
        let ck = Checkpoint {
            id,
            parent: self.head,
            name: name.map(str::to_string),
            new_objects: self.pending_new_objects.clone(),
            deleted_objects: self.pending_deleted.clone(),
            pages: self.pending_pages.clone(),
            deltas: delta_heads,
            blobs: self.pending_blobs.clone(),
            durable_at: SimTime::ZERO,
        };

        let bytes = journal::encode_record(&JournalRecord::Commit(ck.clone(), new_records.clone()));
        let journal_capacity = self.sb.journal_half_blocks() * BLOCK_SIZE as u64;
        if self.sb.journal_used + bytes.len() as u64 > journal_capacity {
            self.compact()?;
            if self.sb.journal_used + bytes.len() as u64 > journal_capacity {
                return Err(Error::no_space("journal cannot hold this checkpoint"));
            }
        }
        let lba = self.sb.journal_base + self.sb.journal_used / BLOCK_SIZE as u64;
        let sealed = self.seal_journal(txn, &[(lba, &bytes)])?;
        let barrier = self.extent_barrier(sealed)?;
        // The record is on the platter; account for it only now so a
        // failed attempt rewrites the same journal offset on retry.
        self.stats.bytes_journaled += bytes.len() as u64;
        self.sb.journal_used += bytes.len() as u64;
        self.sb.next_ckpt += 1;

        let (_committed, durable) = match self.flip_superblock(barrier) {
            Ok(done) => done,
            Err(flip) => {
                if !flip.submitted {
                    // The record sits in the journal but no durable
                    // superblock covers it; roll the in-memory geometry
                    // back so a retried commit overwrites it.
                    self.stats.bytes_journaled -= bytes.len() as u64;
                    self.sb.journal_used -= bytes.len() as u64;
                    self.sb.next_ckpt -= 1;
                }
                return Err(flip.error);
            }
        };

        // Every write landed: consume the pending delta and publish.
        self.pending_new_objects.clear();
        self.pending_deleted.clear();
        self.pending_pages.clear();
        self.pending_blobs.clear();
        self.pending_deltas.clear();
        // Checkpoint references on every delta block.
        for ptr in ck.pages.values() {
            self.alloc.incref(*ptr);
        }
        // The sealed journal record is durable: the delta records are
        // committed, and the live overlay now reads through them.
        for (l, rec) in new_records {
            self.stats.delta_records += 1;
            self.stats.delta_bytes += rec.encoded_len() as u64;
            self.stats.chain_len_max = self.stats.chain_len_max.max(rec.chain_len as u64);
            let key_idx = (rec.oid, rec.idx);
            self.delta.insert(l, rec)?;
            if let Some(obj) = self.live.get_mut(&key_idx.0) {
                obj.deltas.insert(key_idx.1, l);
            }
        }
        let mut ck = ck;
        ck.durable_at = durable;
        self.ckpts.insert(id.0, ck);
        self.head = Some(id);
        self.stats.commits += 1;
        Ok((id, durable))
    }

    /// Rewrites the checkpoint table as one snapshot record, resetting
    /// the journal.
    ///
    /// Crash safety: the snapshot lands in the *idle* journal half and
    /// only the subsequent superblock write switches halves. A power cut
    /// at any point leaves a durable superblock pointing at an intact
    /// journal — either the old records or the complete snapshot, never
    /// a half-overwritten mix.
    fn compact(&mut self) -> Result<()> {
        let txn = self.begin_txn();
        let list: Vec<Checkpoint> = self.ckpts.values().cloned().collect();
        // The snapshot carries every still-reachable delta record: "the
        // log is the checkpoint", so compaction must not orphan chains
        // that committed checkpoints still replay through.
        let records: Vec<(Lsn, DeltaRecord)> =
            self.delta.iter().map(|(l, r)| (l, r.clone())).collect();
        let bytes = journal::encode_record(&JournalRecord::Snapshot(list, records));
        let capacity = self.sb.journal_half_blocks() * BLOCK_SIZE as u64;
        // Snapshot + one guard block + room to grow.
        if bytes.len() as u64 + BLOCK_SIZE as u64 > capacity {
            return Err(Error::no_space("journal too small for metadata snapshot"));
        }
        let base = self.sb.journal_other_half();
        // A zero guard block stops recovery from replaying stale records
        // that happen to align after the snapshot.
        let guard_lba = base + (bytes.len() / BLOCK_SIZE) as u64;
        let guard = vec![0u8; BLOCK_SIZE];
        let sealed = self.seal_journal(txn, &[(base, &bytes), (guard_lba, &guard)])?;
        let barrier = self.extent_barrier(sealed)?;
        let (old_base, old_used) = (self.sb.journal_base, self.sb.journal_used);
        self.sb.journal_base = base;
        self.sb.journal_used = bytes.len() as u64;
        let (_committed, done) = match self.flip_superblock(barrier) {
            Ok(done) => done,
            Err(flip) => {
                if !flip.submitted {
                    // The snapshot sits in the idle half but no durable
                    // superblock points at it; keep describing the old
                    // half so a retry rewrites the snapshot.
                    self.sb.journal_base = old_base;
                    self.sb.journal_used = old_used;
                }
                return Err(flip.error);
            }
        };
        self.dev.get_mut().clock().advance_to(done);
        self.stats.compactions += 1;
        Ok(())
    }

    /// Garbage-collects a checkpoint in place: still-needed pointers move
    /// to its sole child (metadata only), the rest are released.
    pub fn delete_checkpoint(&mut self, id: CkptId) -> Result<()> {
        if self.head == Some(id) {
            return Err(Error::invalid("cannot GC the head checkpoint"));
        }
        let dropped = journal::apply_delete(&mut self.ckpts, id)?;
        for ptr in dropped {
            self.release_block(ptr);
        }
        // The merge may have dropped delta heads; chain segments no
        // surviving head reaches are dead. Prune before any compaction
        // below snapshots the log.
        let mut heads: Vec<Lsn> = self
            .ckpts
            .values()
            .flat_map(|c| c.deltas.values().copied())
            .collect();
        // Live overlay heads are always covered by a committed
        // checkpoint's heads, but root the walk on them too so a
        // bookkeeping slip can only leak, never dangle.
        heads.extend(self.live.values().flat_map(|o| o.deltas.values().copied()));
        heads.extend(self.pending_deltas.values().filter_map(|r| r.prev));
        self.delta.prune(heads);
        let bytes = journal::encode_record(&JournalRecord::Delete(id));
        let capacity = self.sb.journal_half_blocks() * BLOCK_SIZE as u64;
        if self.sb.journal_used + bytes.len() as u64 > capacity {
            self.compact()?;
            // The compacted snapshot already reflects the deletion.
            self.stats.gc_runs += 1;
            return Ok(());
        }
        let txn = self.begin_txn();
        let lba = self.sb.journal_base + self.sb.journal_used / BLOCK_SIZE as u64;
        let sealed = self.seal_journal(txn, &[(lba, &bytes)])?;
        let barrier = self.extent_barrier(sealed)?;
        self.sb.journal_used += bytes.len() as u64;
        let (_committed, done) = match self.flip_superblock(barrier) {
            Ok(done) => done,
            Err(flip) => {
                if !flip.submitted {
                    self.sb.journal_used -= bytes.len() as u64;
                }
                return Err(flip.error);
            }
        };
        self.dev.get_mut().clock().advance_to(done);
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

    /// The most recent checkpoint.
    pub fn head(&self) -> Option<CkptId> {
        self.head
    }

    /// Objects visible at a checkpoint (born in its chain, not deleted
    /// by a newer chain entry).
    fn objects_at(&self, ckpt: CkptId) -> Result<Vec<ObjId>> {
        let mut objects: Vec<ObjId> = Vec::new();
        let mut dead: Vec<ObjId> = Vec::new();
        let mut chain = Vec::new();
        let mut cur = Some(ckpt);
        while let Some(c) = cur {
            let ck = self.checkpoint(c)?;
            chain.push(c);
            cur = ck.parent;
        }
        for c in chain.iter().rev() {
            let ck = self.checkpoint(*c)?;
            for oid in &ck.deleted_objects {
                dead.push(*oid);
            }
            for (oid, _) in &ck.new_objects {
                if !dead.contains(oid) {
                    objects.push(*oid);
                }
            }
        }
        Ok(objects)
    }

    /// Logical (uncompressed) size of a checkpoint's chain-merged state:
    /// what actually crosses a wire when the image moves, regardless of
    /// how compactly pages encode. Pages count 4 KiB each.
    pub fn logical_size(&self, ckpt: CkptId) -> Result<u64> {
        let mut total = 0u64;
        for oid in self.objects_at(ckpt)? {
            total += self.object_refs_at(ckpt, oid).len() as u64 * BLOCK_SIZE as u64;
        }
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
    /// * every block referenced by a checkpoint delta or a live map is
    ///   allocated, and its refcount equals the number of referents;
    /// * no allocated block is unreachable (a space leak);
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
        for obj in self.live.values() {
            for ptr in obj.map.values() {
                *expected.entry(ptr.0).or_insert(0) += 1;
            }
        }
        // Pending (uncommitted) deltas will incref at commit; they do not
        // add to the current expected counts.
        for (&block, &refs) in &expected {
            let actual = self.alloc.refs(BlockPtr(block));
            if actual != refs {
                problems.push(format!(
                    "block {block}: refcount {actual}, {refs} referents"
                ));
            }
            if !self.cache.lock().data.contains_key(&block) && !self.config.materialize_data {
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
        // Delta-log invariants: every head a checkpoint or live overlay
        // names must walk to its base without a dangling prev link, each
        // chain's base block must itself be reachable, and no record may
        // survive in the log without a head rooting it (a log leak).
        let mut reachable: HashSet<Lsn> = HashSet::new();
        let heads = self
            .ckpts
            .values()
            .flat_map(|c| c.deltas.iter().map(|(k, l)| (*k, *l)))
            .chain(self.live.iter().flat_map(|(&oid, o)| {
                o.deltas.iter().map(move |(&idx, &l)| ((oid, idx), l))
            }));
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
                                 not referenced by any checkpoint or live map",
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

    /// Discards the staged (uncommitted) delta and rebuilds live maps,
    /// refcounts and dedup state from the committed chain — the
    /// store-side half of aborting a failed checkpoint.
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
        let live = fold_live(&self.ckpts, self.head)?;
        let refs = committed_refs(&self.ckpts, &live);
        let mut alloc = BlockAlloc::new(self.sb.data_blocks());
        for (&b, &r) in &refs {
            alloc.set_refs(BlockPtr(b), r);
        }
        self.alloc = alloc;
        let cache = self.cache.get_mut();
        cache.data.retain(|b, _| refs.contains_key(b));
        if self.config.dedup {
            cache.rebuild_dedup();
        } else {
            cache.dedup.clear();
            cache.block_hash.clear();
        }
        self.live = live;
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
        let mut victims: Vec<(ObjId, u64, Lsn)> = Vec::new();
        for (&oid, obj) in &self.live {
            for (&idx, &head) in &obj.deltas {
                if self.delta.chain_len(head)? >= min_len {
                    victims.push((oid, idx, head));
                }
            }
        }
        if victims.is_empty() {
            return Ok(0);
        }
        let folded = victims.len();
        for (oid, idx, head) in victims {
            let page = self.materialize_ref(PageRef::Delta(head))?;
            // A full write truncates the chain: write_page drops the
            // live overlay entry for the key.
            self.write_page(oid, idx, &page)?;
        }
        self.commit(Some("chain-compact"))?;
        self.stats.chains_compacted += folded as u64;
        Ok(folded)
    }

    /// Verifies that one committed checkpoint is fully restorable:
    ///
    /// * its parent chain resolves;
    /// * every block its effective object maps reference has recoverable
    ///   contents (in the page table, or readable from the medium with a
    ///   matching content hash when data is materialized).
    ///
    /// Returns the violations (empty = restorable) and the number of
    /// blocks whose platter copy was hashed for the comparison (zero on
    /// timing-only stores): the device charges the reads itself, the
    /// caller owns the clock the hashing is charged to. The checkpoint
    /// pipeline runs this on the incremental base and degrades to a full
    /// checkpoint when the base is damaged.
    pub fn verify_checkpoint(&self, ckpt: CkptId) -> (Vec<String>, u64) {
        let (problems, hashed) = self.verify_checkpoints(&[ckpt]);
        (problems.into_iter().map(|(_, p)| p).collect(), hashed)
    }

    /// [`ObjectStore::verify_checkpoint`] over several checkpoints at
    /// once, each violation tagged with the checkpoint it belongs to. A
    /// block is read and compared once however many pages and
    /// checkpoints share it; its verdict is reported under every one of
    /// them. The second value counts the blocks hashed.
    fn verify_checkpoints(&self, ids: &[CkptId]) -> (Vec<(CkptId, String)>, u64) {
        let mut problems = Vec::new();
        if !self.config.materialize_data {
            // The page table is the only copy, so the walk is the whole
            // check: one lock hold, nothing collected.
            let table = self.cache.lock();
            for &ckpt in ids {
                let mut lost = Vec::new();
                let walk = self.walk_base_blocks(ckpt, &mut |oid, idx, block| {
                    if !table.data.contains_key(&block) {
                        lost.push(format!(
                            "object {} page {idx}: block {block} unrecoverable",
                            oid.0
                        ));
                    }
                });
                problems.extend(walk.into_iter().chain(lost).map(|p| (ckpt, p)));
            }
            return (problems, 0);
        }
        // Materialized stores check the platter copy even when a clean
        // copy is cached in memory: a write-time corruption would
        // otherwise hide until the cache is dropped.
        let mut blocks = std::collections::BTreeSet::new();
        for &ckpt in ids {
            let walk = self.walk_base_blocks(ckpt, &mut |_, _, block| {
                blocks.insert(block);
            });
            problems.extend(walk.into_iter().map(|p| (ckpt, p)));
        }
        let blocks: Vec<u64> = blocks.into_iter().collect();
        let gap = self.dev.borrow().read_gap_blocks();
        let mut bad: BTreeMap<u64, String> = BTreeMap::new();
        let mut hashed = 0u64;
        for (off, len) in runs(&blocks, gap, EXTENT_BLOCKS) {
            if let Some(run) = blocks.get(off..off + len) {
                hashed += self.verify_extent(run, &mut bad);
            }
        }
        if !bad.is_empty() {
            // Name every page that restores from a bad block.
            for &ckpt in ids {
                self.walk_base_blocks(ckpt, &mut |oid, idx, block| {
                    if let Some(what) = bad.get(&block) {
                        problems.push((
                            ckpt,
                            format!("object {} page {idx}: block {block} {what}", oid.0),
                        ));
                    }
                });
            }
        }
        (problems, hashed)
    }

    /// Walks what restoring `ckpt` depends on: `visit(object, page, block)`
    /// for the block under every page of its effective object maps — a
    /// delta-backed page's chain base, since the chain replays over it.
    /// Returns what is wrong with the walk itself: a parent chain that
    /// does not resolve (nothing is visited then) or a delta chain with
    /// records missing.
    fn walk_base_blocks(
        &self,
        ckpt: CkptId,
        visit: &mut dyn FnMut(ObjId, u64, u64),
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let mut cur = Some(ckpt);
        while let Some(c) = cur {
            match self.ckpts.get(&c.0) {
                Some(ck) => cur = ck.parent,
                None => {
                    problems.push(format!("checkpoint {} missing from the table", c.0));
                    return problems;
                }
            }
        }
        let objects = match self.objects_at(ckpt) {
            Ok(o) => o,
            Err(e) => {
                problems.push(format!("object walk failed: {e}"));
                return problems;
            }
        };
        for oid in objects {
            for (idx, page_ref) in checkpoint::effective_refs(&self.ckpts, ckpt, oid) {
                match page_ref {
                    PageRef::Full(ptr) => visit(oid, idx, ptr.0),
                    PageRef::Delta(lsn) => match self.delta.chain(lsn).and_then(|chain| {
                        chain.first().map(|r| r.base).ok_or_else(|| {
                            Error::corrupt(format!("delta chain at lsn {lsn} is empty"))
                        })
                    }) {
                        Ok(base) => visit(oid, idx, base.0),
                        Err(e) => problems.push(format!(
                            "object {} page {idx}: delta chain at lsn {lsn} broken: {e}",
                            oid.0
                        )),
                    },
                }
            }
        }
        problems
    }

    /// Compares the platter copies of `run` (one extent, ascending) with
    /// their recorded content hashes, adds the blocks that fail to `bad`,
    /// each with what is wrong with it, and returns how many blocks it
    /// hashed. The read is one vectored request
    /// past the read cache — a clean cached copy says nothing about the
    /// medium. Only when that request fails or some block mismatches does
    /// the run go block by block, so each block gets its own verdict and
    /// its own chance at repair from a mirror twin.
    fn verify_extent(&self, run: &[u64], bad: &mut BTreeMap<u64, String>) -> u64 {
        let expect: Vec<Option<u64>> = {
            let cache = self.cache.lock();
            run.iter().map(|b| cache.block_hash.get(b).copied()).collect()
        };
        let hashed = expect.iter().flatten().count() as u64;
        let matches = |buf: &[u8], h: u64| PageData::from_bytes(buf).content_hash() == h;
        let lba0 = self.sb.data_start();
        // Bound the device borrow to the read itself: the repair arms
        // below need to borrow the device again.
        let span = read_span(self.dev.borrow_mut().as_mut(), lba0, run);
        if span.is_ok_and(|bufs| {
            bufs.iter()
                .zip(&expect)
                .all(|(buf, e)| e.is_none_or(|h| matches(buf, h)))
        }) {
            return hashed;
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (&b, &expect) in run.iter().zip(&expect) {
            let lba = lba0 + b;
            let read = self.dev.borrow_mut().read(lba, &mut buf);
            match (read, expect) {
                (Ok(()), None) => {}
                (Ok(()), Some(h)) => {
                    if !matches(&buf, h) && !self.try_repair(lba, h) {
                        bad.insert(b, "content hash mismatch".to_string());
                    }
                }
                // A dead preferred copy may still have a healthy twin:
                // repair before declaring the block lost.
                (Err(e), expect) => {
                    if expect.is_none_or(|h| !self.try_repair(lba, h)) {
                        bad.insert(b, format!("unreadable: {e}"));
                    }
                }
            }
        }
        hashed
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
        for (off, count) in runs(&live, 0, EXTENT_BLOCKS) {
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

    /// Scrub-path read-repair: asks the device layer to heal `lba` from
    /// redundancy, accepting a copy whose content hash is `expect`.
    /// Returns `true` if a verified copy now backs the block.
    fn try_repair(&self, lba: u64, expect: u64) -> bool {
        self.stats
            .repair_path_entries
            .set(self.stats.repair_path_entries.get() + 1);
        self.dev
            .borrow_mut()
            .repair_block(lba, &mut |bytes: &[u8]| {
                PageData::from_bytes(bytes).content_hash() == expect
            })
            .ok()
            .flatten()
            .is_some()
    }

    /// Full offline-quality audit: [`ObjectStore::fsck`] invariants plus
    /// a restorability check of every committed checkpoint — one pass
    /// over the union of their blocks, each problem reported under every
    /// checkpoint it affects. Backs the `sls scrub` CLI command and the
    /// crash campaign's per-iteration invariant.
    pub fn scrub(&self) -> Vec<String> {
        let mut problems = self.fsck();
        let ids: Vec<CkptId> = self.ckpts.keys().map(|&i| CkptId(i)).collect();
        problems.extend(
            self.verify_checkpoints(&ids)
                .0
                .into_iter()
                .map(|(id, p)| format!("ckpt {}: {p}", id.0)),
        );
        problems.sort();
        problems.dedup();
        problems
    }

    /// Internal: the checkpoint table (export path).
    pub(crate) fn table(&self) -> &BTreeMap<u64, Checkpoint> {
        &self.ckpts
    }
}

impl core::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.live.len())
            .field("checkpoints", &self.ckpts.len())
            .field("blocks_in_use", &self.alloc.in_use())
            .finish()
    }
}
