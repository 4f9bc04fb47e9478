//! The read side of the object store: the one checked reader of page
//! bytes, the cache policies over it, the batched read planner and the
//! restorability audits.
//!
//! Exactly one function here moves page data off the medium:
//! `ObjectStore::read_checked`. It owns the whole policy for bytes
//! leaving the platter — one vectored request over the run, every
//! wanted block compared with its recorded content hash, one re-read
//! for transient electronics, then a per-block heal from a mirror twin
//! (the single `BlockDev::repair_block` call site) — and hands back a
//! verdict per block. Everything else is a *cache policy*, over it or,
//! for metadata records, over the device charge alone:
//!
//! * a lazy fault (`fetch_block`) reads a one-block run and admits it
//!   — and waits for it, since the faulting access cannot proceed
//!   without it;
//! * the planner (`read_extent`) probes the bounded read cache, reads
//!   the extent on any miss and admits what it fetched — without
//!   waiting: the whole plan is known before its first read, so its
//!   extents go to the device back to back and the caller waits once;
//! * the audits (`verify_extent`) bypass the cache — a clean cached
//!   copy says nothing about the medium — and collect the verdicts,
//!   submitted back to back like the planner's reads and compared batch
//!   by batch behind them, as the restore's page-in hashes;
//! * a metadata-record read (`ObjectStore::get_blob`) probes the same
//!   bounded cache under the record's name — the checkpoint whose delta
//!   holds it plus its key — and on a miss waits for a read of the
//!   record's journal blocks and admits it. The record's bytes come
//!   from the checkpoint table, so what the cache decides is what the
//!   read costs.
//!
//! A check is only enforceable when one function is licensed to do the
//! I/O (the argument `txn.rs` makes for writes). In particular no read
//! may replace a recorded hash with the hash of what it just read: the
//! recorded hash is the only witness against the medium, and a reader
//! that believes its own read turns one flipped bit into a store that
//! fails its own scrub for good.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Bound, Range, RangeBounds};

use aurora_sim::cost::{HashTrail, RESTORE_CACHE_HIT_NS};
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::Words;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_vm::{hash_pages, PageData};

use crate::checkpoint::{page_keys, CkptId, PageRef};
use crate::deltalog::Lsn;
use crate::store::{ObjectStore, PageCache, EXTENT_BLOCKS};
use crate::{BlockPtr, ObjId};

/// Cuts ascending, unique block ids into extents: `(offset, len)` runs
/// of strictly adjacent ids into `blocks`, each at most `cap` long. No
/// run touches a block outside the set — what writes and resilver need,
/// and at queue depth what reads want too: a queued request's share of
/// the access latency is less than one block's transfer, so reading
/// through a hole never pays for the request it saves.
pub fn runs(blocks: &[u64], cap: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut it = blocks.iter().copied().enumerate();
    let Some((mut off, mut first)) = it.next() else {
        return out;
    };
    for (at, b) in it {
        if b - first != (at - off) as u64 || at - off >= cap {
            out.push((off, at - off));
            (off, first) = (at, b);
        }
    }
    out.push((off, blocks.len() - off));
    out
}

/// Blocks read per batch of a two-stage stream, a batch being whole
/// extents: 4 × `EXTENT_BLOCKS`, the flush's batch. The restore's
/// page-in and the audits hash batch *k* while the device reads batch
/// *k+1*, so each is done one batch's hash after its last read — a
/// smaller batch shortens both — and one post-commit scrub step checks
/// one batch. But `cost::hash_stage` divides a batch
/// evenly over the workers, and below 4 × `PARALLEL_THRESHOLD` the
/// default four workers no longer get a shard worth a thread each
/// (DESIGN §12 has the sweep).
pub const RESTORE_BATCH_BLOCKS: usize = 256;

/// Cuts an extent schedule — `(offset, len)` runs — into consecutive
/// batches of whole extents, each carrying at most `max_blocks` blocks
/// (an extent longer than that is a batch of its own): index ranges
/// into `extents`.
pub fn extent_batches(extents: &[(usize, usize)], max_blocks: usize) -> Vec<Range<usize>> {
    let mut batches = Vec::new();
    let (mut first, mut blocks) = (0usize, 0usize);
    for (at, &(_, len)) in extents.iter().enumerate() {
        if at > first && blocks + len > max_blocks {
            batches.push(first..at);
            (first, blocks) = (at, 0);
        }
        blocks += len;
    }
    if first < extents.len() {
        batches.push(first..extents.len());
    }
    batches
}

/// What one read-cache entry names: a data block, or a metadata record
/// — the checkpoint whose delta holds it plus its key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    Block(u64),
    Record(CkptId, String),
}

/// The bounded LRU read cache.
///
/// This models the DRAM the paged-in working set and the restored
/// images' metadata records occupy: a probe for a recently read block
/// or record is an index lookup plus a frame adoption, not a device
/// access. The bytes of a resident block are its body in the page table
/// ([`PageCache::data`]), a cache of the medium, and a record's are in
/// the checkpoint table; the bound governs what the cost model treats
/// as resident, never what the simulation can recall.
///
/// Eviction order is a deterministic LRU: a monotonic stamp counter
/// replaces wall-clock recency, so runs are reproducible byte-for-byte.
pub(crate) struct ReadCache {
    /// Capacity in blocks.
    capacity: usize,
    /// Blocks the resident entries occupy: one per data block, a
    /// record's length in blocks per record.
    used: usize,
    /// entry -> (LRU stamp, blocks it occupies); a higher stamp was
    /// touched more recently.
    stamps: HashMap<CacheKey, (u64, usize), Words>,
    /// stamp -> entry: oldest-first iteration drives eviction.
    by_stamp: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
}

impl ReadCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ReadCache {
            capacity,
            used: 0,
            stamps: HashMap::default(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
        }
    }

    /// Whether `key` is resident; refreshes its LRU position if so.
    pub(crate) fn probe(&mut self, key: &CacheKey) -> bool {
        let Some((stamp, _)) = self.stamps.get_mut(key) else {
            return false;
        };
        self.next_stamp += 1;
        let old = std::mem::replace(stamp, self.next_stamp);
        if let Some(key) = self.by_stamp.remove(&old) {
            self.by_stamp.insert(self.next_stamp, key);
        }
        true
    }

    /// Admits `key` occupying `blocks` blocks, evicting the least
    /// recently used entries past capacity. An entry larger than the
    /// whole cache is not admitted: it would only evict everything else.
    pub(crate) fn admit(&mut self, key: CacheKey, blocks: usize) {
        if blocks > self.capacity || self.probe(&key) {
            return;
        }
        self.next_stamp += 1;
        self.used += blocks;
        self.by_stamp.insert(self.next_stamp, key.clone());
        self.stamps.insert(key, (self.next_stamp, blocks));
        while self.used > self.capacity {
            let Some((_, oldest)) = self.by_stamp.pop_first() else {
                break;
            };
            if let Some((_, n)) = self.stamps.remove(&oldest) {
                self.used -= n;
            }
        }
    }

    /// Removes an entry entirely (freed block, GC'd record, stale entry).
    pub(crate) fn forget(&mut self, key: &CacheKey) {
        if let Some((stamp, n)) = self.stamps.remove(key) {
            self.by_stamp.remove(&stamp);
            self.used -= n;
        }
    }

    /// Drops every entry.
    fn clear(&mut self) {
        self.stamps.clear();
        self.by_stamp.clear();
        self.used = 0;
    }

    /// Occupancy in blocks.
    fn len(&self) -> usize {
        self.used
    }
}

impl PageCache {
    /// Probes the read cache for `block`: a hit hands back the resident
    /// bytes.
    fn probe_read(&mut self, block: u64) -> Option<PageData> {
        if !self.read.probe(&CacheKey::Block(block)) {
            return None;
        }
        let page = self.data.get(&block).cloned();
        if page.is_none() {
            // Contents vanished without eviction bookkeeping (e.g. a
            // rollback rebuilt the table): drop the stale entry.
            self.read.forget(&CacheKey::Block(block));
        }
        page
    }
}

/// A batched read plan: per-target block resolutions plus an extent
/// schedule over the unique blocks. Built by
/// [`ObjectStore::plan_reads_at`] or [`ObjectStore::plan_reads`],
/// executed by [`ObjectStore::execute_read_plan`].
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
    /// Extent schedule: `(offset, len)` runs of adjacent blocks into
    /// `blocks`, at most [`EXTENT_BLOCKS`] each, each read with one
    /// request.
    pub extents: Vec<(usize, usize)>,
}

impl ReadPlan {
    /// Cuts the extent schedule into consecutive batches of whole
    /// extents, each carrying at most `max_blocks` blocks: index ranges
    /// into [`ReadPlan::extents`] for
    /// [`ObjectStore::execute_read_plan_range`].
    pub fn extent_batches(&self, max_blocks: usize) -> Vec<Range<usize>> {
        extent_batches(&self.extents, max_blocks)
    }
}

/// What executing a [`ReadPlan`] produced.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Contents for every planned block.
    pub pages: HashMap<u64, PageData>,
    /// Blocks whose contents came off the device rather than the read
    /// cache — the ones the restore pipeline still owes a content-hash
    /// pass.
    pub fetched: Vec<u64>,
    /// Aligned with `fetched`: the block's content hash where the read
    /// already computed it to check the bytes against the recorded one,
    /// `None` where the block had none on record and the hash pass still
    /// has to.
    pub fetched_hashes: Vec<Option<u64>>,
    /// Probes served by the bounded read cache.
    pub cache_hits: u64,
    /// Probes that charged device time.
    pub cache_misses: u64,
    /// Vectored extent reads issued.
    pub extents_read: u64,
    /// When the last device read issued completes; `SimTime::ZERO` when
    /// none was. The clock is not advanced: a caller that needs the
    /// pages waits for this instant.
    pub done: SimTime,
}

/// One wanted block as the checked reader found it: its page and the
/// recorded content hash the bytes were compared with (`None` for a
/// block with no hash on record, which nothing can vouch for), or
/// `None` when the bytes still differ from the recorded hash after the
/// re-read and the heal.
type Verdict = Option<(PageData, Option<u64>)>;

/// What checking the blocks of a walk found: each block the checked
/// reader could not vouch for with what is wrong with it, whether the
/// walk itself resolved, and when the verdicts are in.
struct WalkCheck {
    bad: BTreeMap<u64, String>,
    clean: bool,
    done: SimTime,
}

/// One problem [`ObjectStore::scrub`] found.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScrubFinding {
    /// The problem, as `scrub` reports it.
    pub what: String,
    /// The checkpoint it is reported under, if any.
    pub ckpt: Option<CkptId>,
    /// The damaged data block (relative to the data region), if the
    /// problem is one.
    pub block: Option<u64>,
}

/// A page of the head that cannot be restored as recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDamage {
    /// The page's object.
    pub oid: ObjId,
    /// The page's index in it.
    pub idx: u64,
    /// The block it restores from, `None` when its delta chain does not
    /// resolve to one.
    pub block: Option<u64>,
    /// What is wrong.
    pub what: String,
}

impl std::fmt::Display for PageDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.block {
            Some(block) => {
                let (oid, idx, what) = (self.oid.0, self.idx, &self.what);
                write!(f, "object {oid} page {idx}: block {block} {what}")
            }
            // A broken chain's message names its page already.
            None => f.write_str(&self.what),
        }
    }
}

/// What one [`ObjectStore::scrub_step`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubStep {
    /// The damaged pages, in key order.
    pub damaged: Vec<PageDamage>,
    /// Distinct blocks the step checked.
    pub blocks: u64,
    /// The page key the next step resumes from; `None` when this step
    /// reached the end of its objects, so the next one starts over.
    pub next: Option<(ObjId, u64)>,
    /// When the step's verdicts are in: its last read plus the last
    /// batch's hash on a materialized store, the instant it was taken
    /// on one whose audits do not read the medium.
    pub ready_at: SimTime,
}

impl ObjectStore {
    /// The one reader of page bytes. Reads `run` — adjacent ascending
    /// blocks, one extent — with a single vectored request and compares
    /// every block that has a recorded content hash with it, hashing on
    /// `workers` threads through [`hash_pages`]. Damaged bytes get
    /// exactly one re-read,
    /// submitted behind the first: transient electronics clear, damaged
    /// media re-reads identically, and then each block still damaged
    /// gets its chance at a mirror twin. A block that passed keeps its
    /// first verdict, so every block is decoded and hashed once per
    /// read. Returns the verdicts and when the last read completes; the
    /// clock is the caller's to advance.
    ///
    /// `Err` means a request itself failed (dead device, retries
    /// exhausted); damage is a `None` verdict for that block alone.
    /// Nothing is cached, recorded or indexed here: what a verdict is
    /// worth is the calling policy's decision.
    fn read_checked(&self, run: &[u64], workers: usize) -> Result<(Vec<Verdict>, SimTime)> {
        let mut done = SimTime::ZERO;
        let Some(&first) = run.first() else {
            return Ok((Vec::new(), done));
        };
        let recorded: Vec<Option<u64>> = {
            let cache = self.cache.borrow();
            run.iter().map(|b| cache.block_hash.get(b).copied()).collect()
        };
        let lba0 = self.sb.data_start();
        let mut verdicts: Vec<Verdict> = vec![None; run.len()];
        for _ in 0..2 {
            let mut bodies = vec![PageData::Zero; run.len()];
            done = done.max(self.dev.borrow_mut().read_blocks(lba0 + first, &mut bodies)?);
            // A block with no hash on record is taken as read; the
            // others still undecided are compared. Each verdict keeps
            // the body the device returned.
            let mut checked = Vec::with_capacity(run.len());
            for ((verdict, page), &want) in verdicts.iter_mut().zip(bodies).zip(&recorded) {
                if verdict.is_none() {
                    match want {
                        None => *verdict = Some((page, None)),
                        Some(h) => checked.push((verdict, page, h)),
                    }
                }
            }
            let hashes = hash_pages(&checked, |(_, page, _)| page, workers);
            for ((verdict, page, want), h) in checked.into_iter().zip(hashes) {
                if h == want {
                    *verdict = Some((page, Some(want)));
                }
            }
            if verdicts.iter().all(Option::is_some) {
                return Ok((verdicts, done));
            }
        }
        for ((verdict, &b), &want) in verdicts.iter_mut().zip(run).zip(&recorded) {
            if let (None, Some(h)) = (&verdict, want) {
                *verdict = self.heal_block(lba0 + b, h)?.map(|golden| (golden, want));
            }
        }
        Ok((verdicts, done))
    }

    /// Read-repair: asks the device layer to heal `lba` from redundancy,
    /// accepting only a copy whose content hash is `expect`, and returns
    /// the verified body that now backs the block (a device without
    /// redundancy heals nothing and returns `None`).
    fn heal_block(&self, lba: u64, expect: u64) -> Result<Option<PageData>> {
        let stats = &self.stats;
        stats.repair_path_entries.set(stats.repair_path_entries.get() + 1);
        let golden = self
            .dev
            .borrow_mut()
            .repair_block(lba, &mut |body: &PageData| body.content_hash() == expect)?;
        if golden.is_some() {
            stats.read_repairs.set(stats.read_repairs.get() + 1);
        }
        Ok(golden)
    }

    /// The lazy-fault policy: reads the block off the medium through the
    /// checked reader as a one-block run, waits for it and admits it.
    /// The bounded read cache is not probed, so a block the planner
    /// would count as a hit costs a device read here. Probing it is not
    /// a free win: chain compaction reads through this function
    /// too, and its waits are what drains the device queue between
    /// `fleet_16`'s tenant commits (ROADMAP item 4, group commit): at
    /// `--seed 42` its `durable_us_mean` is 76.9 µs (p90 104.9 µs), and
    /// probing the cache first takes it to 103.3 µs (p90 176.2 µs). A
    /// block with a recorded hash is served only if its bytes match it,
    /// and the record is left alone; a block with none (a store reopened
    /// from the medium) is recorded and indexed on this first read, as
    /// its write would have.
    pub(crate) fn fetch_block(&self, ptr: BlockPtr) -> Result<PageData> {
        let (mut verdicts, done) = self.read_checked(&[ptr.0], 1)?;
        self.dev.borrow().clock().advance_to(done);
        let Some((page, recorded)) = verdicts.pop().flatten() else {
            return Err(Error::corrupt(format!(
                "block {}: content hash mismatch on read",
                ptr.0
            )));
        };
        let mut cache = self.cache.borrow_mut();
        match recorded {
            Some(_) => {
                cache.data.insert(ptr.0, page.clone());
            }
            None => cache.install(ptr, &page, page.content_hash()),
        }
        cache.read.admit(CacheKey::Block(ptr.0), 1);
        Ok(page)
    }

    /// Resolves a set of `(object, page)` targets as of a checkpoint
    /// into a batched read plan (see [`ObjectStore::plan_reads`]). The
    /// checkpoint's image folds once, over the span of the targets'
    /// objects; a checkpoint whose chain does not resolve plans every
    /// target as a hole.
    pub fn plan_reads_at(&self, ckpt: CkptId, targets: &[(ObjId, u64)]) -> ReadPlan {
        let oids = targets.iter().map(|&(oid, _)| oid);
        let (Some(lo), Some(hi)) = (oids.clone().min(), oids.max()) else {
            return self.plan_reads(&[]);
        };
        let refs: Vec<Option<PageRef>> = match self.image_at(ckpt, lo..=hi) {
            Ok(image) => targets.iter().map(|&(oid, idx)| image.page_ref(oid, idx)).collect(),
            Err(_) => vec![None; targets.len()],
        };
        self.plan_reads(&refs)
    }

    /// Plans reads of pages already resolved against their checkpoint,
    /// one [`PageRef`] per target (`None` for a hole): per-target block
    /// pointers, the unique block set (dedup-shared blocks once), and
    /// that set cut into extents of adjacent blocks by [`runs`].
    pub fn plan_reads(&self, refs: &[Option<PageRef>]) -> ReadPlan {
        let mut resolved = Vec::with_capacity(refs.len());
        let mut chains = Vec::with_capacity(refs.len());
        let mut uniq = std::collections::BTreeSet::new();
        for &page_ref in refs {
            // A chained page plans a read of its *base* block — chain
            // replay happens after the batched fetch, and twin bases
            // are still read once and fanned out.
            let (ptr, head) = match page_ref {
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
        let extents = runs(&blocks, EXTENT_BLOCKS);
        ReadPlan {
            resolved,
            chains,
            blocks,
            extents,
        }
    }

    /// Executes a read plan: probes the bounded read cache per block,
    /// submits one vectored device read per extent that missed, and
    /// returns contents for every planned block.
    ///
    /// Charging: an all-hit extent costs [`RESTORE_CACHE_HIT_NS`] per
    /// block (index probe + frame adoption) on the clock; an extent with
    /// any miss is one vectored read, submitted behind the plan's
    /// earlier ones and not waited for — [`ReadOutcome::done`] says when
    /// the last completes. On an idle device the first read pays the
    /// whole access latency and each one behind it a queue-depth share.
    /// Reads come through the checked reader (compare, one re-read, heal
    /// from a twin); a block it cannot vouch for aborts the plan with
    /// `ErrorKind::Corrupt`, leaving the store intact.
    pub fn execute_read_plan(&mut self, plan: &ReadPlan) -> Result<ReadOutcome> {
        self.execute_read_plan_range(plan, 0..plan.extents.len())
    }

    /// Executes the extents `extents` (a range into
    /// [`ReadPlan::extents`], e.g. one of [`ReadPlan::extent_batches`])
    /// of a read plan and returns the contents of their blocks. Probes,
    /// charging and verification are per extent, so executing a plan
    /// range by range without waiting in between costs and reads exactly
    /// what one [`ObjectStore::execute_read_plan`] call does.
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
        Ok(out)
    }

    /// The planner's policy for one extent of a plan — `run`, adjacent
    /// blocks ascending: probe the bounded read cache, read the extent
    /// on any miss, admit what was fetched.
    fn read_extent(&mut self, run: &[u64], out: &mut ReadOutcome) -> Result<()> {
        let Some(&start) = run.first() else {
            return Ok(());
        };
        let mut missed = false;
        {
            let mut cache = self.cache.borrow_mut();
            for &b in run {
                match cache.probe_read(b) {
                    Some(page) => {
                        out.cache_hits += 1;
                        out.pages.insert(b, page);
                    }
                    None => {
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
        // All or nothing: one damaged block the reader could not heal
        // aborts the plan with `Corrupt` before anything of its extent is
        // admitted, leaving the committed store untouched.
        let (verdicts, done) = self.read_checked(run, 1)?;
        out.done = out.done.max(done);
        let Some(checked) = verdicts.into_iter().collect::<Option<Vec<_>>>() else {
            return Err(Error::corrupt(format!(
                "extent at block {start}: content hash mismatch on read"
            )));
        };
        let mut cache = self.cache.borrow_mut();
        for (&b, (page, hash)) in run.iter().zip(checked) {
            if out.pages.contains_key(&b) {
                continue; // probe already served it
            }
            cache.data.insert(b, page.clone());
            cache.read.admit(CacheKey::Block(b), 1);
            out.fetched.push(b);
            out.fetched_hashes.push(hash);
            out.pages.insert(b, page);
        }
        Ok(())
    }

    /// Records content hashes computed by the restore pipeline's
    /// parallel hash stage for blocks a read plan fetched, for blocks
    /// that had none on record (a store without a write-time hash
    /// record): later reads of those blocks are checked against them.
    /// A recorded hash is never replaced.
    pub fn note_read_hashes(&mut self, pairs: &[(u64, u64)]) {
        let cache = self.cache.get_mut();
        for &(block, h) in pairs {
            cache.block_hash.entry(block).or_insert(h);
        }
    }

    /// Current read-cache occupancy in blocks: one per data block, a
    /// record's length in blocks per record.
    pub fn read_cache_len(&self) -> usize {
        self.cache.borrow().read.len()
    }

    /// Drops every cached page body and the read cache, record entries
    /// included, forcing subsequent reads back to the medium — the
    /// state after an image lands on a machine that has never run it.
    /// Works on every store: the medium holds every body, and no audit
    /// asks the page table. Always `Ok`.
    ///
    /// Recorded content hashes and the dedup index survive: the hashes
    /// are the read path's corruption check, and the index entries go
    /// inert until their blocks are re-read.
    pub fn drop_caches(&mut self) -> Result<()> {
        let cache = self.cache.get_mut();
        cache.data.clear();
        cache.read.clear();
        Ok(())
    }

    /// One step of the background scrub of the objects in `objects` at
    /// the head: checks the blocks under their pages from page key
    /// `from` on (the start of `objects` for `None`), at most one
    /// [`RESTORE_BATCH_BLOCKS`] batch of distinct blocks, and names
    /// every page of `objects` at the head whose block failed, plus each
    /// page of the step whose delta chain does not resolve.
    ///
    /// On a materialized store the step is the audits' stream: the
    /// batch's extents go to the device queued behind whatever it holds,
    /// past the read cache, compared on `workers` threads. On a
    /// timing-only store, whose audits do not read the medium, only the
    /// walk is checked. Either way the step does not advance the
    /// clock (only the device layers' own waits do:
    /// a transient read's retry backoff, a mirror heal's rewrite):
    /// [`ScrubStep::ready_at`] says when the verdicts are in, and a
    /// caller must not act on them before.
    pub fn scrub_step(
        &self,
        objects: impl RangeBounds<ObjId> + Clone,
        from: Option<(ObjId, u64)>,
        workers: usize,
    ) -> ScrubStep {
        let keys = page_keys(objects.clone());
        let start = from.map_or(keys.start_bound().cloned(), Bound::Included);
        let mut blocks = BTreeSet::new();
        let mut damaged = Vec::new();
        let mut next = None;
        for ((oid, idx), page_ref) in self.head_image.refs_in((start, keys.end_bound().cloned())) {
            match self.base_block(oid, idx, page_ref) {
                Ok(block) if blocks.len() == RESTORE_BATCH_BLOCKS && !blocks.contains(&block) => {
                    next = Some((oid, idx));
                    break;
                }
                Ok(block) => {
                    blocks.insert(block);
                }
                Err(what) => damaged.push(PageDamage {
                    oid,
                    idx,
                    block: None,
                    what,
                }),
            }
        }
        let checked = self.verify_walk(workers, |visit| {
            blocks.iter().for_each(|&b| visit(b));
            true
        });
        if !checked.bad.is_empty() {
            // Name every page the bad blocks back, in or out of the step.
            for ((oid, idx), page_ref) in self.head_image.refs(objects) {
                let Ok(block) = self.base_block(oid, idx, page_ref) else {
                    continue;
                };
                if let Some(what) = checked.bad.get(&block) {
                    damaged.push(PageDamage {
                        oid,
                        idx,
                        block: Some(block),
                        what: what.clone(),
                    });
                }
            }
            damaged.sort_by_key(|d| (d.oid, d.idx));
        }
        ScrubStep {
            damaged,
            blocks: blocks.len() as u64,
            next,
            ready_at: checked.done,
        }
    }

    /// Checks every block `walk` visits — a walk that returns whether it
    /// resolved cleanly — reading and comparing each block once however
    /// many pages and checkpoints share it, and returns the blocks the
    /// checked reader could not vouch for, whether the walk was clean
    /// and when the verdicts are in. The clock does not move.
    ///
    /// On a materialized store every extent goes to the device back to
    /// back, and the extents are cut into [`RESTORE_BATCH_BLOCKS`]
    /// batches, the restore's stream. Each extent is compared on
    /// `workers` threads as its read returns (a damaged extent's re-read
    /// follows its own first read); a batch's compare starts when its
    /// reads complete, beside the next batch's reads, so the verdicts
    /// are in one batch's hash after the last read. A timing-only store
    /// takes the medium's bodies on trust: the walk is the whole check,
    /// and its verdicts are in at once.
    fn verify_walk(
        &self,
        workers: usize,
        walk: impl FnOnce(&mut dyn FnMut(u64)) -> bool,
    ) -> WalkCheck {
        let start = self.dev.borrow().clock().now();
        if !self.config.materialize_data {
            return WalkCheck {
                bad: BTreeMap::new(),
                clean: walk(&mut |_| {}),
                done: start,
            };
        }
        let mut bad: BTreeMap<u64, String> = BTreeMap::new();
        // Materialized stores check the platter copy even when a clean
        // copy is cached in memory: a write-time corruption would
        // otherwise hide until the cache is dropped.
        let mut blocks = BTreeSet::new();
        let clean = walk(&mut |block| {
            blocks.insert(block);
        });
        let blocks: Vec<u64> = blocks.into_iter().collect();
        let extents = runs(&blocks, EXTENT_BLOCKS);
        let mut trail = HashTrail::new(start, workers as u64);
        for batch in extent_batches(&extents, RESTORE_BATCH_BLOCKS) {
            let (mut read_done, mut compared) = (start, 0u64);
            for &(off, len) in extents.get(batch).unwrap_or_default() {
                if let Some(run) = blocks.get(off..off + len) {
                    compared += self.verify_extent(run, &mut bad, &mut read_done, workers);
                }
            }
            trail.fold(read_done, compared);
        }
        WalkCheck {
            bad,
            clean,
            done: trail.done(),
        }
    }

    /// Walks what restoring the objects in `objects` at `ckpt` depends
    /// on: `visit(object, page, block)` for the block under every page of
    /// those objects in its image — a delta-backed page's chain base,
    /// since the chain replays over it. The head's image is kept current;
    /// any other checkpoint's chain folds once, over `objects` only.
    /// Returns what is wrong with the walk itself: a parent chain that
    /// does not resolve (nothing is visited then) or a delta chain of
    /// those pages with records missing.
    pub fn walk_base_blocks(
        &self,
        ckpt: CkptId,
        objects: impl RangeBounds<ObjId> + Clone,
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
        let image = match self.image_at(ckpt, objects.clone()) {
            Ok(image) => image,
            Err(e) => {
                problems.push(format!("object walk failed: {e}"));
                return problems;
            }
        };
        for ((oid, idx), page_ref) in image.refs(objects) {
            match self.base_block(oid, idx, page_ref) {
                Ok(block) => visit(oid, idx, block),
                Err(p) => problems.push(p),
            }
        }
        problems
    }

    /// Visits every block some checkpoint's image reaches, without
    /// folding one. Each image entry is the own entry of one checkpoint,
    /// its owner, and is visible in the owner's own image; so the own
    /// entries of every checkpoint, kept where their object is alive at
    /// it, cover every image. Returns false when a parent chain or a
    /// delta chain does not resolve.
    fn walk_owned_blocks(&self, visit: &mut dyn FnMut(u64)) -> bool {
        let mut clean = true;
        // Objects alive at each checkpoint whose chain resolves. Ids grow
        // with every commit, so a parent precedes its children.
        let mut alive: HashMap<u64, BTreeSet<ObjId>> = HashMap::new();
        for (&id, ck) in &self.ckpts {
            let mut objects = match ck.parent {
                None => BTreeSet::new(),
                Some(p) => match alive.get(&p.0) {
                    Some(objects) => objects.clone(),
                    None => {
                        clean = false;
                        continue;
                    }
                },
            };
            for oid in ck.ended_objects() {
                objects.remove(&oid);
            }
            objects.extend(ck.new_objects.iter().map(|(oid, _)| *oid));
            for ((oid, idx), page_ref) in ck.own_refs() {
                if objects.contains(&oid) {
                    match self.base_block(oid, idx, page_ref) {
                        Ok(block) => visit(block),
                        Err(_) => clean = false,
                    }
                }
            }
            alive.insert(id, objects);
        }
        clean
    }

    /// The block a page restores from — a delta-backed page's chain
    /// base — or what is wrong with its chain.
    fn base_block(
        &self,
        oid: ObjId,
        idx: u64,
        page_ref: PageRef,
    ) -> std::result::Result<u64, String> {
        match page_ref {
            PageRef::Full(ptr) => Ok(ptr.0),
            PageRef::Delta(lsn) => self
                .delta
                .chain(lsn)
                .and_then(|chain| {
                    chain.first().map(|r| r.base.0).ok_or_else(|| {
                        Error::corrupt(format!("delta chain at lsn {lsn} is empty"))
                    })
                })
                .map_err(|e| {
                    format!("object {} page {idx}: delta chain at lsn {lsn} broken: {e}", oid.0)
                }),
        }
    }

    /// The audits' policy: compares the platter copies of `run` (one
    /// extent, adjacent and ascending, submitted without waiting like the
    /// planner's) with their recorded content hashes on `workers`
    /// threads, past the read cache — a clean cached copy says nothing
    /// about the medium — adds the
    /// blocks the reader could not vouch for to `bad`, each with what is
    /// wrong with it, raises `done` to when its reads complete, and
    /// returns how many blocks were hashed. Nothing is admitted. Only
    /// when the request itself fails does the run go block by block, so
    /// one unreadable block does not condemn its neighbours.
    fn verify_extent(
        &self,
        run: &[u64],
        bad: &mut BTreeMap<u64, String>,
        done: &mut SimTime,
        workers: usize,
    ) -> u64 {
        match self.read_checked(run, workers) {
            Ok((verdicts, at)) => {
                *done = (*done).max(at);
                let damaged = run.iter().zip(&verdicts).filter(|(_, v)| v.is_none());
                bad.extend(damaged.map(|(&b, _)| (b, "content hash mismatch".to_string())));
                // Every block but those with no hash on record was hashed.
                verdicts.iter().filter(|v| !matches!(v, Some((_, None)))).count() as u64
            }
            Err(_) if run.len() > 1 => run
                .iter()
                .map(|b| self.verify_extent(std::slice::from_ref(b), bad, done, workers))
                .sum(),
            Err(e) => {
                bad.extend(run.iter().map(|&b| (b, format!("unreadable: {e}"))));
                0
            }
        }
    }

    /// Full offline-quality audit: [`ObjectStore::fsck`] invariants plus
    /// a restorability check of every committed checkpoint — one pass
    /// over the union of their blocks, gathered from each checkpoint's
    /// own entries, each problem reported under every checkpoint it
    /// affects. Backs the `sls scrub` CLI command and the crash
    /// campaign's per-iteration invariant. A store method has no worker
    /// pool, so the stream's compare runs on one core, trailing the
    /// reads, and the clock waits for it.
    pub fn scrub(&self) -> Vec<String> {
        let findings = self.scrub_findings().into_iter();
        findings.map(|f| f.what).collect()
    }

    /// [`ObjectStore::scrub`]'s problems with what each is about: damage
    /// to a stored block names the block and the checkpoint it is
    /// reported under, so a caller can tell one block's damage from
    /// another's without reading the text.
    pub fn scrub_findings(&self) -> Vec<ScrubFinding> {
        let finding = |ckpt, block, what| ScrubFinding { what, ckpt, block };
        let fsck = self.fsck().into_iter();
        let mut findings: Vec<ScrubFinding> = fsck.map(|p| finding(None, None, p)).collect();
        let checked = self.verify_walk(1, |visit| self.walk_owned_blocks(visit));
        self.dev.borrow().clock().advance_to(checked.done);
        if !checked.clean || !checked.bad.is_empty() {
            // Name the damage under every checkpoint it affects.
            for &id in self.ckpts.keys() {
                let at = Some(CkptId(id));
                let walk = self.walk_base_blocks(CkptId(id), .., &mut |oid, idx, block| {
                    if let Some(what) = checked.bad.get(&block) {
                        let what = format!("object {} page {idx}: block {block} {what}", oid.0);
                        findings.push(finding(at, Some(block), format!("ckpt {id}: {what}")));
                    }
                });
                findings.extend(walk.into_iter().map(|p| finding(at, None, format!("ckpt {id}: {p}"))));
            }
        }
        findings.sort();
        findings.dedup();
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_hw::{FaultPlan, ModelDev};
    use aurora_sim::SimClock;

    use crate::store::StoreConfig;

    /// A store whose audits read the medium when `materialize_data`.
    fn store(materialize_data: bool) -> ObjectStore {
        let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", 64 * 1024));
        let config = StoreConfig {
            journal_blocks: 1024,
            materialize_data,
            ..StoreConfig::default()
        };
        ObjectStore::format(dev, config).unwrap()
    }

    /// Residency never exceeds the capacity, and eviction is a
    /// deterministic LRU: admitting four blocks in ascending order into
    /// a two-page cache leaves the two highest resident, and a probe
    /// refreshes its block so the other one goes next.
    #[test]
    fn read_cache_capacity_bounds_residency_with_deterministic_lru() {
        let mut cache = ReadCache::new(2);
        for b in 0..4 {
            cache.admit(CacheKey::Block(b), 1);
        }
        let probe = |cache: &mut ReadCache, b: u64| cache.probe(&CacheKey::Block(b));
        assert_eq!(cache.len(), 2, "capacity caps residency");
        assert!(!probe(&mut cache, 0) && !probe(&mut cache, 1), "the two lowest are out");
        assert!(probe(&mut cache, 2) && probe(&mut cache, 3), "the two highest are in");

        // Probing 2 again makes 3 the least recently used.
        assert!(probe(&mut cache, 2));
        cache.admit(CacheKey::Block(0), 1);
        assert!(probe(&mut cache, 2) && probe(&mut cache, 0) && !probe(&mut cache, 3));
    }

    /// A record occupies its length in blocks: admitting a two-block
    /// record into a three-block cache holding three blocks evicts the
    /// two oldest, and a record larger than the cache is not admitted.
    #[test]
    fn a_record_occupies_its_length_in_blocks() {
        let mut cache = ReadCache::new(3);
        for b in 0..3 {
            cache.admit(CacheKey::Block(b), 1);
        }
        let record = CacheKey::Record(CkptId(1), "g1/manifest".to_string());
        cache.admit(record.clone(), 2);
        assert_eq!(cache.len(), 3);
        assert!(cache.probe(&record) && cache.probe(&CacheKey::Block(2)));
        assert!(!cache.probe(&CacheKey::Block(0)) && !cache.probe(&CacheKey::Block(1)));

        cache.forget(&record);
        assert_eq!(cache.len(), 1);
        let huge = CacheKey::Record(CkptId(1), "g1/vmo/1".to_string());
        cache.admit(huge.clone(), 4);
        assert!(!cache.probe(&huge) && cache.probe(&CacheKey::Block(2)));
    }

    /// The scrub reads each block once, from the union of every
    /// checkpoint's own entries, yet still names a lost block — one the
    /// medium no longer holds — under every checkpoint whose image
    /// restores from it, in the words the per-checkpoint walk used.
    #[test]
    fn scrub_names_a_shared_lost_block_under_every_checkpoint() {
        let mut s = store(true);
        s.create_object(ObjId(1), 8).unwrap();
        s.write_page(ObjId(1), 0, &PageData::Seeded(10)).unwrap();
        let (c1, _) = s.commit(None).unwrap();
        s.write_page(ObjId(1), 1, &PageData::Seeded(11)).unwrap();
        let (c2, _) = s.commit(None).unwrap();
        assert!(s.scrub().is_empty(), "{:?}", s.scrub());

        let block = match s.page_ref_at(c2, ObjId(1), 0).unwrap() {
            Some((PageRef::Full(ptr), _)) => ptr.0,
            other => panic!("page 0 resolves to {other:?}"),
        };
        let lba = s.data_start() + block;
        s.device_mut().discard(lba, 1);
        let problems = s.scrub();
        for ckpt in [c1, c2] {
            let want = format!(
                "ckpt {}: object 1 page 0: block {block} content hash mismatch",
                ckpt.0
            );
            assert!(problems.contains(&want), "{want} missing from {problems:?}");
        }
        let named = problems.iter().filter(|p| p.starts_with("ckpt ")).count();
        assert_eq!(named, 2, "{problems:?}");
        // A scrub step over the head names the same page.
        let step = s.scrub_step(.., None, 1);
        let named: Vec<String> = step.damaged.iter().map(ToString::to_string).collect();
        assert_eq!(
            named,
            vec![format!("object 1 page 0: block {block} content hash mismatch")]
        );
    }

    /// A scrub step over a range of objects, the check of the base the
    /// next incremental of their group extends, names a block the medium
    /// returns flipped under a page in the range and says nothing of one
    /// outside it.
    #[test]
    fn a_ranged_base_check_sees_only_damage_in_its_range() {
        let mut s = store(true);
        for oid in [ObjId(1), ObjId(2)] {
            s.create_object(oid, 4).unwrap();
            for idx in 0..4 {
                s.write_page(oid, idx, &PageData::Seeded(oid.0 * 10 + idx)).unwrap();
            }
        }
        let (head, _) = s.commit(None).unwrap();
        let block = match s.page_ref_at(head, ObjId(2), 3).unwrap() {
            Some((PageRef::Full(ptr), _)) => ptr.0,
            other => panic!("page 3 resolves to {other:?}"),
        };
        let lba = s.data_start() + block;
        let flip = FaultPlan::corrupt_read_blocks(lba, lba + 1, 100, 3);
        s.device_mut().install_fault_plan(flip);

        assert_eq!(s.head(), Some(head));
        let flipped = vec![format!("object 2 page 3: block {block} content hash mismatch")];
        let named = |objects: (Bound<ObjId>, Bound<ObjId>)| -> Vec<String> {
            let step = s.scrub_step(objects, None, 1);
            assert_eq!(step.next, None, "one step covers the range");
            step.damaged.iter().map(ToString::to_string).collect()
        };
        use Bound::{Excluded, Included, Unbounded};
        let (one, two, three) = (ObjId(1), ObjId(2), ObjId(3));
        assert_eq!(named((Included(two), Included(two))), flipped);
        assert_eq!(named((Included(two), Unbounded)), flipped);
        assert_eq!(named((Unbounded, Unbounded)), flipped);
        assert!(named((Included(one), Included(one))).is_empty());
        assert!(named((Unbounded, Excluded(two))).is_empty());
        assert!(named((Included(three), Unbounded)).is_empty());
    }

    /// The scrub step walks its range one batch of distinct blocks at a
    /// time: each step resumes where the last stopped, a dedup-shared
    /// block counts once, and the step that reaches the end hands back
    /// no cursor, so the next one starts over.
    #[test]
    fn scrub_steps_walk_their_range_one_batch_at_a_time() {
        let mut s = store(false);
        let pages = RESTORE_BATCH_BLOCKS as u64 + 10;
        s.create_object(ObjId(1), pages).unwrap();
        for idx in 0..pages {
            // Page 1 is a second copy of page 0 and shares its block.
            s.write_page(ObjId(1), idx, &PageData::Seeded(idx.max(1) - 1))
                .unwrap();
        }
        s.commit(None).unwrap();
        let first = s.scrub_step(.., None, 1);
        assert_eq!(first.blocks, RESTORE_BATCH_BLOCKS as u64);
        let resume = RESTORE_BATCH_BLOCKS as u64 + 1;
        assert_eq!(
            first.next,
            Some((ObjId(1), resume)),
            "pages 0 and 1 are one block"
        );
        let second = s.scrub_step(.., first.next, 1);
        assert_eq!(second.blocks, pages - resume);
        assert_eq!(second.next, None);
        assert!(first.damaged.is_empty() && second.damaged.is_empty());
    }

    /// A delta chain with its records gone is reported under each
    /// checkpoint whose image holds its head, and under no other.
    #[test]
    fn scrub_names_a_broken_delta_chain_under_every_checkpoint() {
        let mut s = store(false);
        s.create_object(ObjId(1), 8).unwrap();
        s.write_page(ObjId(1), 0, &PageData::Seeded(10)).unwrap();
        s.commit(None).unwrap();
        let mut page = PageData::Seeded(10).materialize();
        page.iter_mut().take(8).for_each(|b| *b = 7);
        s.stage_delta(ObjId(1), 0, &PageData::from_bytes(&page), &[(0, 8)])
            .unwrap();
        let (c2, _) = s.commit(None).unwrap();
        s.write_page(ObjId(1), 1, &PageData::Seeded(11)).unwrap();
        let (c3, _) = s.commit(None).unwrap();
        assert!(s.scrub().is_empty(), "{:?}", s.scrub());

        let lsn = *s.checkpoint(c2).unwrap().deltas.get(&(ObjId(1), 0)).unwrap();
        s.delta.lose_records();
        let problems = s.scrub();
        let prefix = |ckpt: CkptId| {
            format!("ckpt {}: object 1 page 0: delta chain at lsn {lsn} broken: ", ckpt.0)
        };
        for ckpt in [c2, c3] {
            let want = prefix(ckpt);
            assert!(
                problems.iter().any(|p| p.starts_with(&want)),
                "{want} missing from {problems:?}"
            );
        }
        let named = problems.iter().filter(|p| p.starts_with("ckpt ")).count();
        assert_eq!(named, 2, "{problems:?}");
    }
}
