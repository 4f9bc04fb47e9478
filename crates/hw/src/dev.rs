//! The block-device model.
//!
//! A [`ModelDev`] charges every request by one service rule
//! (`CostModel::serve`) against a single service queue (`busy_until`),
//! the way a real NVMe submission queue pipelines back-to-back requests:
//! a request that finds the queue idle pays the whole access latency plus
//! its transfer, and a request submitted behind a busy queue has its
//! latency overlapped by the requests in flight, so it pays
//! `latency / QUEUE_DEPTH` plus its transfer. The device applies the rule
//! itself, to every read and write, a timing-only read included. No data call
//! moves the clock: each returns its completion instant, and a caller
//! that needs the bytes waits with `clock.advance_to(done)`. A `flush` is
//! a barrier and completes one whole access latency after everything
//! queued.
//!
//! Durability semantics mirror real hardware:
//!
//! * Devices with a **volatile write cache** (NVMe flash) acknowledge
//!   writes when they reach the cache; the data only becomes
//!   power-loss-safe once a subsequent `flush` *completes*.
//! * Devices in the **persistence domain** (NVDIMM, battery-backed) make
//!   writes durable at their completion instant; `flush` is a no-op
//!   barrier.
//! * Volatile devices (ramdisk) never persist across power failure; they
//!   model the paper's in-memory ephemeral checkpoint backend.
//!
//! The unit of data is a page body ([`PageData`]): a write hands the
//! device the bodies the caller holds, the device keeps them by
//! reference, and a read returns the body the medium holds. Bodies are
//! shared, never mutated: a torn write and a bit flip, at write or read
//! time, each build a new body from a copy of the old one.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aurora_sim::cost::dev as costdev;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::{PageData, SimClock};

use crate::fault::{FaultAction, FaultPlan};
use crate::mirror::MirrorDev;
use crate::retry::{DevHealth, RetryStats};
use crate::BLOCK_SIZE;

/// Static device description.
#[derive(Debug, Clone)]
pub struct DevInfo {
    /// Human-readable device name (`nvme0`, `nvd0`, ...).
    pub name: String,
    /// Capacity in blocks.
    pub blocks: u64,
    /// Whether data survives power failure at all.
    pub persistent: bool,
    /// Whether completed-but-unflushed writes survive power failure.
    pub persistence_domain: bool,
}

impl DevInfo {
    /// Checks an extent of `bodies` at `lba`: each body one block, the
    /// whole extent on the device. Returns its bytes.
    pub(crate) fn check_extent(&self, lba: u64, bodies: &[PageData]) -> Result<u64> {
        let mut blocks = 0u64;
        for body in bodies {
            let len = body.byte_len();
            if len != BLOCK_SIZE {
                let name = &self.name;
                return Err(Error::invalid(format!(
                    "extent block is {len} bytes on {name}"
                )));
            }
            blocks += 1;
        }
        if lba + blocks > self.blocks {
            return Err(Error::no_space(format!(
                "i/o beyond device end: lba {lba} + {blocks} > {}",
                self.blocks
            )));
        }
        Ok(blocks * BLOCK_SIZE as u64)
    }
}

/// Operation counters for a device.
#[derive(Debug, Default, Clone)]
pub struct DevStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Flush barriers issued.
    pub flushes: u64,
    /// Blocks handed to [`BlockDev::discard`].
    pub blocks_discarded: u64,
}

/// Cost model for a device.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-request access latency (ns).
    pub latency_ns: u64,
    /// Read bandwidth (bytes/sec).
    pub read_bw: u64,
    /// Write bandwidth (bytes/sec).
    pub write_bw: u64,
}

/// Submission-queue depth: how many requests in flight overlap their
/// access latency.
pub const QUEUE_DEPTH: u64 = 16;

impl CostModel {
    /// An Optane 900P-class NVMe device.
    pub const NVME: CostModel = CostModel {
        latency_ns: costdev::NVME_LAT_NS,
        read_bw: costdev::NVME_READ_BW,
        write_bw: costdev::NVME_WRITE_BW,
    };

    /// The one service rule: a request of `bytes` at `bw`, arriving at
    /// `now`, starts when the queue drains (`*queue`). On an idle queue
    /// (`now >= *queue`) it pays the whole access latency; behind a busy
    /// one its latency overlaps the requests in flight, so it pays a
    /// `QUEUE_DEPTH` share. Either way its transfer follows. Advances
    /// `*queue` to the completion instant and returns it.
    pub(crate) fn serve(&self, queue: &mut SimTime, now: SimTime, bytes: u64, bw: u64) -> SimTime {
        let latency = if now >= *queue {
            self.latency_ns
        } else {
            self.latency_ns / QUEUE_DEPTH
        };
        *queue =
            now.max(*queue) + SimDuration::from_nanos(latency) + SimDuration::for_bytes(bytes, bw);
        *queue
    }

    /// A flush barrier: completes one whole access latency after
    /// everything queued. Advances `*queue` to that instant and returns
    /// it.
    pub(crate) fn barrier(&self, queue: &mut SimTime, now: SimTime) -> SimTime {
        *queue = now.max(*queue) + SimDuration::from_nanos(self.latency_ns);
        *queue
    }
}

/// A copy of `body` with bit `bit` of byte `byte` (both wrapped into
/// range) flipped. The body itself is left alone: others may share it.
fn flipped(body: &PageData, byte: usize, bit: u8) -> PageData {
    let mut buf = body.materialize();
    let idx = byte % buf.len().max(1);
    if let Some(target) = buf.get_mut(idx) {
        *target ^= 1 << (bit % 8);
    }
    PageData::from_bytes(&buf)
}

/// The block-device interface used by the object store and backends.
pub trait BlockDev {
    /// Device description.
    fn info(&self) -> &DevInfo;

    /// Operation counters.
    fn stats(&self) -> &DevStats;

    /// Submits a run of adjacent blocks starting at `lba` as one vectored
    /// request; returns the completion instant of the whole extent. Does
    /// not advance the caller's clock — this is how checkpoint data is
    /// flushed in the background while the application keeps running; a
    /// caller that must wait advances its clock to the returned instant.
    ///
    /// Every block is one body of `BLOCK_SIZE` bytes, which the device
    /// may keep by reference (never mutating it), and is one write
    /// ordinal of an installed fault plan, so a power cut or a transient
    /// error can land on any block of the extent (see [`crate::fault`]).
    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime>;

    /// Submits a run of adjacent blocks starting at `lba` as one vectored
    /// read request, replacing each body in `bufs` with one block's, and
    /// returns the request's completion instant. Does not advance the
    /// caller's clock: a caller that needs the bytes before it goes on
    /// advances its clock to the returned instant, and one that has more
    /// requests to issue submits them first, behind this one. Every block
    /// is one read ordinal of an installed fault plan.
    ///
    /// # Partial-failure contract (all-or-error)
    ///
    /// On `Err`, **no body in `bufs` holds authoritative data** — a
    /// mid-extent fault must not leave earlier bodies ambiguously
    /// filled. [`ModelDev`] upholds this by consulting every per-block
    /// fault before filling any body; the stripe and the file device
    /// fill `bufs` only once the whole extent is in; and
    /// [`crate::retry::ResilientDev`] (which every store-facing device
    /// and every mirror replica sits behind) zeroes the bodies on a
    /// failed extent. Callers must treat `bufs` as unspecified after an
    /// error and never consume it.
    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime>;

    /// Issues a flush barrier; returns the instant at which every write
    /// submitted so far is durable. Does not advance the caller's clock.
    fn flush(&mut self) -> Result<SimTime>;

    /// Submits a *timing-only* read of `nbytes` as one request: occupies
    /// the device queue and returns the completion instant, but moves no
    /// data. Like every data call, it does not advance the clock. The
    /// object store charges its metadata-record reads this way; page
    /// bodies are always read with [`BlockDev::read_blocks`].
    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime>;

    /// Forgets the bodies of the `count` blocks from `lba` on: the
    /// caller has freed them, and nothing it will read names them again
    /// before it writes them anew. A discarded block reads zero.
    ///
    /// Charges nothing and is not a fault-plan ordinal: the object store
    /// discards a block only once the record that frees it is durable,
    /// off every measured path, so the call costs the model nothing a
    /// real TRIM would make it wait for. Its only job is to keep the
    /// medium no larger than what the store references.
    ///
    /// Default: a no-op — a device that keeps its bodies elsewhere (a
    /// host file) may keep stale bytes. [`ModelDev`] drops them, unless
    /// it is unpowered: a dead device takes no command.
    fn discard(&mut self, _lba: u64, _count: u64) {}

    /// Cuts power: loses the volatile cache (torn interrupted write) and
    /// makes the device fail until [`BlockDev::power_on`].
    fn power_fail(&mut self);

    /// Restores power after a failure.
    fn power_on(&mut self);

    /// Whether the device is currently powered.
    fn powered(&self) -> bool;

    /// The virtual clock this device charges.
    fn clock(&self) -> &Arc<SimClock>;

    /// Installs a fault-injection plan, if the device supports one.
    ///
    /// Default: ignored. [`ModelDev`] honours it; see [`crate::fault`].
    fn install_fault_plan(&mut self, _plan: FaultPlan) {}

    /// LBA of the last request the installed fault plan acted on, `None`
    /// while the plan has fired nothing. A campaign reads it to file
    /// where its fault landed (superblock, journal, data).
    ///
    /// Default: `None` — only [`ModelDev`] injects faults.
    fn last_fault_lba(&self) -> Option<u64> {
        None
    }

    /// LBAs whose durable body is a write an installed fault plan
    /// silently corrupted, ascending; a later clean write of the block
    /// takes it off the list. A campaign excuses damage to these blocks,
    /// which the device lied about, and to no others.
    ///
    /// Default: empty — only [`ModelDev`] injects faults.
    fn corrupted_lbas(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Device health as judged by the resilience layer.
    ///
    /// Default: bare devices report [`DevHealth::Dead`] when unpowered
    /// and [`DevHealth::Healthy`] otherwise; [`crate::retry::ResilientDev`]
    /// refines this with failure-history tracking.
    fn health(&self) -> DevHealth {
        if self.powered() {
            DevHealth::Healthy
        } else {
            DevHealth::Dead
        }
    }

    /// Retry/fault-absorption counters, if the device tracks them.
    ///
    /// Default: all zero (bare devices do not retry).
    fn retry_stats(&self) -> RetryStats {
        RetryStats::default()
    }

    /// Attempts to repair block `lba` from redundancy: reads each stored
    /// copy, and if one passes `verify`, rewrites the copies that do not
    /// and returns the verified body.
    ///
    /// Default: `Ok(None)` — a single device has no twin to repair from.
    /// [`MirrorDev`] implements real read-repair; the object store calls
    /// this when a block fails content-hash verification, turning a
    /// one-replica corruption into a rewrite instead of an error.
    fn repair_block(
        &mut self,
        _lba: u64,
        _verify: &mut dyn FnMut(&PageData) -> bool,
    ) -> Result<Option<PageData>> {
        Ok(None)
    }

    /// The underlying [`MirrorDev`], if this device is (or wraps) one.
    fn as_mirror(&self) -> Option<&MirrorDev> {
        None
    }

    /// Mutable access to the underlying [`MirrorDev`], if any.
    fn as_mirror_mut(&mut self) -> Option<&mut MirrorDev> {
        None
    }
}

/// A pending cached block write (acknowledged, not yet durable).
#[derive(Debug, Clone)]
struct CachedWrite {
    lba: u64,
    data: PageData,
    /// The fault plan corrupted it.
    lied: bool,
}

/// The standard modelled device. See module docs for semantics.
pub struct ModelDev {
    info: DevInfo,
    model: CostModel,
    clock: Arc<SimClock>,
    busy_until: SimTime,
    /// Durable contents, by block number: the bodies written, shared
    /// with their writers. Sparse: absent blocks read zero.
    stable: HashMap<u64, PageData>,
    /// Writes acknowledged but not yet flushed (volatile-cache devices).
    cache: Vec<CachedWrite>,
    powered: bool,
    stats: DevStats,
    fault: Option<FaultPlan>,
    writes_seen: u64,
    reads_seen: u64,
    last_fault_lba: Option<u64>,
    /// Stable blocks whose body is a corrupted write; see
    /// [`BlockDev::corrupted_lbas`].
    lied: BTreeSet<u64>,
}

impl ModelDev {
    /// Creates a device with an explicit model.
    pub fn new(clock: Arc<SimClock>, info: DevInfo, model: CostModel) -> Self {
        ModelDev {
            info,
            model,
            clock,
            busy_until: SimTime::ZERO,
            stable: HashMap::new(),
            cache: Vec::new(),
            powered: true,
            stats: DevStats::default(),
            fault: None,
            writes_seen: 0,
            reads_seen: 0,
            last_fault_lba: None,
            lied: BTreeSet::new(),
        }
    }

    /// An Optane 900P-class NVMe flash device (volatile write cache).
    pub fn nvme(clock: Arc<SimClock>, name: &str, blocks: u64) -> Self {
        ModelDev::new(
            clock,
            DevInfo {
                name: name.to_string(),
                blocks,
                persistent: true,
                persistence_domain: false,
            },
            CostModel::NVME,
        )
    }

    /// An NVDIMM: byte-class latency, writes durable at completion.
    pub fn nvdimm(clock: Arc<SimClock>, name: &str, blocks: u64) -> Self {
        ModelDev::new(
            clock,
            DevInfo {
                name: name.to_string(),
                blocks,
                persistent: true,
                persistence_domain: true,
            },
            CostModel {
                latency_ns: costdev::NVDIMM_LAT_NS,
                read_bw: costdev::NVDIMM_BW,
                write_bw: costdev::NVDIMM_BW,
            },
        )
    }

    /// A DRAM-backed ephemeral device (lost on power failure).
    pub fn ramdisk(clock: Arc<SimClock>, name: &str, blocks: u64) -> Self {
        ModelDev::new(
            clock,
            DevInfo {
                name: name.to_string(),
                blocks,
                persistent: false,
                persistence_domain: false,
            },
            CostModel {
                latency_ns: costdev::RAM_LAT_NS,
                read_bw: costdev::RAM_BW,
                write_bw: costdev::RAM_BW,
            },
        )
    }

    /// Installs a fault-injection plan. Request counting restarts at the
    /// installation point, so `power_cut(1)` hits the next write and
    /// `power_cut_on_read(1)` the next read.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.writes_seen = 0;
        self.reads_seen = 0;
        self.last_fault_lba = None;
    }

    fn check_powered(&self) -> Result<()> {
        if self.powered {
            Ok(())
        } else {
            Err(Error::device_dead(self.info.name.clone()))
        }
    }

    /// Computes a request's completion instant and occupies the queue.
    fn service(&mut self, bytes: u64, bw: u64) -> SimTime {
        self.model
            .serve(&mut self.busy_until, self.clock.now(), bytes, bw)
    }

    /// A firmware stall: the queue blocks for `extra_ns` before the next
    /// request is serviced.
    fn stall(&mut self, extra_ns: u64) {
        self.busy_until = self.clock.now().max(self.busy_until) + SimDuration::from_nanos(extra_ns);
    }

    /// Lands one block on stable storage; `lied` says the fault plan
    /// corrupted it.
    fn apply_stable(&mut self, lba: u64, data: PageData, lied: bool) {
        self.stable.insert(lba, data);
        if lied {
            self.lied.insert(lba);
        } else {
            self.lied.remove(&lba);
        }
    }

    /// Lands the first `torn_at` bytes of `data` on block `lba`, the rest
    /// keeping the old stable contents: a new body, built from a copy of
    /// the old one. A torn block keeps its place on the corrupted list:
    /// the old body's tail survives.
    fn apply_torn(&mut self, lba: u64, data: &PageData, torn_at: usize) {
        if torn_at >= BLOCK_SIZE {
            self.apply_stable(lba, data.clone(), false);
            return;
        }
        let mut torn = self
            .stable
            .get(&lba)
            .map_or_else(|| vec![0u8; BLOCK_SIZE], PageData::materialize);
        if let (Some(dst), Some(src)) = (torn.get_mut(..torn_at), data.bytes().get(..torn_at)) {
            dst.copy_from_slice(src);
        }
        self.stable.insert(lba, PageData::from_bytes(&torn));
    }

    /// Checks the fault plan before a write; returns the fault action.
    fn fault_action(&mut self, lba: u64) -> FaultAction {
        self.writes_seen += 1;
        let action = match &self.fault {
            Some(plan) => plan.action_for_write(self.writes_seen, lba),
            None => FaultAction::None,
        };
        self.note_fault(action, lba)
    }

    /// Checks the fault plan before reading block `lba` and acts on it
    /// before any data moves: a transient bounces the request, a power
    /// cut kills the device (reads never mutate media), a stall occupies
    /// the queue, and a flip comes back as the `(byte, bit)` to apply to
    /// the returned data — never to the medium; whether a re-read sees
    /// it again is the plan's call. Reads burn their own ordinal space,
    /// so a read-side schedule does not shift write faults (and vice
    /// versa).
    fn read_fault(&mut self, lba: u64) -> Result<Option<(usize, u8)>> {
        self.reads_seen += 1;
        let action = match &self.fault {
            Some(plan) => plan.action_for_read(self.reads_seen, lba),
            None => FaultAction::None,
        };
        match self.note_fault(action, lba) {
            FaultAction::None => Ok(None),
            FaultAction::TransientError => Err(Error::io(format!(
                "{}: transient read error at lba {lba}",
                self.info.name
            ))),
            FaultAction::LatencySpike { extra_ns } => {
                self.stall(extra_ns);
                Ok(None)
            }
            FaultAction::PowerCut { .. } => {
                self.power_fail();
                Err(Error::device_dead(format!(
                    "{}: power cut during read",
                    self.info.name
                )))
            }
            FaultAction::CorruptBit { byte, bit } => Ok(Some((byte, bit))),
        }
    }

    /// Remembers where the plan last fired; see
    /// [`BlockDev::last_fault_lba`].
    fn note_fault(&mut self, action: FaultAction, lba: u64) -> FaultAction {
        if action != FaultAction::None {
            self.last_fault_lba = Some(lba);
        }
        action
    }

    /// The body of `block`: its newest cached write, else its stable
    /// contents, else zero.
    fn body(&self, block: u64) -> PageData {
        let cached = self.cache.iter().rev().find(|w| w.lba == block);
        cached
            .map(|w| &w.data)
            .or_else(|| self.stable.get(&block))
            .cloned()
            .unwrap_or(PageData::Zero)
    }

    fn drain_cache_to_stable(&mut self) {
        let cache = core::mem::take(&mut self.cache);
        for w in cache {
            self.apply_stable(w.lba, w.data, w.lied);
        }
    }

    /// Test/introspection hook: bytes currently sitting in the volatile
    /// write cache.
    pub fn cached_bytes(&self) -> usize {
        self.cache.iter().map(|w| w.data.byte_len()).sum()
    }

    /// Writes byte blocks as one extent: wraps each block in a body
    /// ([`PageData::from_bytes`]) and submits the extent through
    /// [`BlockDev::write_blocks`], which charges and faults it. For
    /// callers that hold their blocks as byte buffers, such as a host
    /// cost probe timing a write of ready-made blocks.
    pub fn write_blocks(&mut self, lba: u64, blocks: &[&[u8]]) -> Result<SimTime> {
        if let Some(b) = blocks.iter().find(|b| b.len() != BLOCK_SIZE) {
            return Err(Error::invalid(format!(
                "extent block is {} bytes on {}",
                b.len(),
                self.info.name
            )));
        }
        let bodies: Vec<PageData> = blocks.iter().map(|b| PageData::from_bytes(b)).collect();
        BlockDev::write_blocks(self, lba, &bodies)
    }
}

impl BlockDev for ModelDev {
    fn info(&self) -> &DevInfo {
        &self.info
    }

    fn stats(&self) -> &DevStats {
        &self.stats
    }

    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime> {
        self.check_powered()?;
        if bufs.is_empty() {
            return Ok(self.clock.now());
        }
        let total = self.info.check_extent(lba, bufs)?;
        // The fault plan is consulted once per block — one read ordinal
        // each — before any data moves, so a transient error bounces the
        // whole extent atomically and a retry may resubmit the identical
        // request.
        let mut corrupt: Vec<(usize, usize, u8)> = Vec::new();
        for i in 0..bufs.len() {
            if let Some((byte, bit)) = self.read_fault(lba + i as u64)? {
                corrupt.push((i, byte, bit));
            }
        }
        // One queue occupancy for the whole extent — one request's
        // access latency plus the extent's bytes. This is the coalescing
        // win.
        let done = self.service(total, self.model.read_bw);
        for (i, buf) in bufs.iter_mut().enumerate() {
            *buf = self.body(lba + i as u64);
        }
        for (i, byte, bit) in corrupt {
            if let Some(buf) = bufs.get_mut(i) {
                *buf = flipped(buf, byte, bit);
            }
        }
        self.stats.reads += 1;
        self.stats.bytes_read += total;
        Ok(done)
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        self.check_powered()?;
        if blocks.is_empty() {
            return Ok(self.clock.now());
        }
        let total = self.info.check_extent(lba, blocks)?;
        // The fault plan is consulted once per block — one write ordinal
        // each — so a schedule that cuts power on write N lands
        // mid-extent here.
        let mut payload: Vec<(u64, PageData, bool)> = Vec::with_capacity(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            let blba = lba + i as u64;
            match self.fault_action(blba) {
                FaultAction::None => payload.push((blba, b.clone(), false)),
                FaultAction::TransientError => {
                    // The whole extent bounces atomically: nothing before
                    // the faulting block has landed, so a retry may
                    // resubmit the identical extent.
                    return Err(Error::io(format!(
                        "{}: transient write error at lba {blba}",
                        self.info.name
                    )));
                }
                FaultAction::LatencySpike { extra_ns } => {
                    self.stall(extra_ns);
                    payload.push((blba, b.clone(), false));
                }
                FaultAction::PowerCut { torn_bytes } => {
                    // Blocks ahead of the interrupted one are durable
                    // inside the persistence domain and lost with the
                    // volatile cache otherwise. The interrupted block
                    // itself lands torn (it raced the capacitors).
                    if self.info.persistent {
                        if self.info.persistence_domain {
                            for (plba, pdata, lied) in payload {
                                self.apply_stable(plba, pdata, lied);
                            }
                        }
                        self.apply_torn(blba, b, torn_bytes);
                    }
                    self.power_fail();
                    return Err(Error::device_dead(format!(
                        "{}: power cut during write",
                        self.info.name
                    )));
                }
                FaultAction::CorruptBit { byte, bit } => {
                    payload.push((blba, flipped(b, byte, bit), true));
                }
            }
        }
        // One queue occupancy for the whole extent — a single access
        // latency plus the extent's bytes. This is the coalescing win.
        let done = self.service(total, self.model.write_bw);
        if self.info.persistence_domain {
            for (blba, data, lied) in payload {
                self.apply_stable(blba, data, lied);
            }
        } else {
            for (lba, data, lied) in payload {
                self.cache.push(CachedWrite { lba, data, lied });
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += total;
        Ok(done)
    }

    fn flush(&mut self) -> Result<SimTime> {
        self.check_powered()?;
        self.stats.flushes += 1;
        // A flush is a barrier behind everything queued, plus one access
        // latency for the cache drain itself.
        let done = self.model.barrier(&mut self.busy_until, self.clock.now());
        self.drain_cache_to_stable();
        Ok(done)
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        self.check_powered()?;
        let done = self.service(nbytes, self.model.read_bw);
        self.stats.reads += 1;
        self.stats.bytes_read += nbytes;
        Ok(done)
    }

    fn discard(&mut self, lba: u64, count: u64) {
        if !self.powered {
            return; // a dead device takes no command
        }
        let range = lba..lba.saturating_add(count);
        for block in range.clone() {
            self.stable.remove(&block);
            self.lied.remove(&block);
        }
        self.cache.retain(|w| !range.contains(&w.lba));
        self.stats.blocks_discarded += count;
    }

    fn power_fail(&mut self) {
        // Everything in the volatile cache is lost. The interrupted write,
        // if any, was handled by the fault path. Completed-but-cached
        // writes whose completion lies in the future never happened.
        self.cache.clear();
        if !self.info.persistent {
            self.stable.clear();
            self.lied.clear();
        }
        self.powered = false;
        self.busy_until = SimTime::ZERO;
    }

    fn power_on(&mut self) {
        self.powered = true;
        self.writes_seen = 0;
        self.reads_seen = 0;
    }

    fn powered(&self) -> bool {
        self.powered
    }

    fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.set_fault_plan(plan);
    }

    fn last_fault_lba(&self) -> Option<u64> {
        self.last_fault_lba
    }

    fn corrupted_lbas(&self) -> Vec<u64> {
        self.lied.iter().copied().collect()
    }
}

impl core::fmt::Debug for ModelDev {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModelDev")
            .field("name", &self.info.name)
            .field("blocks", &self.info.blocks)
            .field("powered", &self.powered)
            .field("cached", &self.cache.len())
            .finish()
    }
}

/// Test shorthand over the extent calls: a write of whole blocks as one
/// extent and an extent read into one contiguous buffer, each waited for.
#[cfg(test)]
pub(crate) mod test_io {
    use super::*;

    /// The body of one chunk: a page when the chunk is one, else a
    /// body of the chunk's own length, which every device rejects.
    pub(crate) fn body(chunk: &[u8]) -> PageData {
        match chunk.len() {
            BLOCK_SIZE => PageData::from_bytes(chunk),
            _ => PageData::Bytes(Arc::from(chunk)),
        }
    }

    /// Writes `data` at `lba` as one extent of its `BLOCK_SIZE` chunks and
    /// waits for its completion.
    pub(crate) fn write<D: BlockDev + ?Sized>(d: &mut D, lba: u64, data: &[u8]) -> Result<()> {
        let blocks: Vec<PageData> = data.chunks(BLOCK_SIZE).map(body).collect();
        let done = d.write_blocks(lba, &blocks)?;
        d.clock().advance_to(done);
        Ok(())
    }

    /// Reads `buf.len()` bytes at `lba` as one extent and waits for it.
    pub(crate) fn read<D: BlockDev + ?Sized>(d: &mut D, lba: u64, buf: &mut [u8]) -> Result<()> {
        let mut bufs: Vec<PageData> = buf.chunks(BLOCK_SIZE).map(body).collect();
        let done = d.read_blocks(lba, &mut bufs)?;
        d.clock().advance_to(done);
        for (dst, src) in buf.chunks_mut(BLOCK_SIZE).zip(&bufs) {
            dst.copy_from_slice(&src.bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_io::{read, write};

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    fn page(fill: u8) -> PageData {
        PageData::from_bytes(&block(fill))
    }

    fn pages(n: usize) -> Vec<PageData> {
        vec![PageData::Zero; n]
    }

    #[test]
    fn write_read_roundtrip() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        write(&mut d, 3, &block(0xAA)).unwrap();
        let mut buf = block(0);
        read(&mut d, 3, &mut buf).unwrap();
        assert_eq!(buf, block(0xAA));
        // Unwritten blocks read zero.
        read(&mut d, 4, &mut buf).unwrap();
        assert_eq!(buf, block(0));
    }

    #[test]
    fn read_charges_latency_and_bandwidth() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock.clone(), "nvme0", 128);
        let before = clock.now();
        let mut buf = block(0);
        read(&mut d, 0, &mut buf).unwrap();
        let elapsed = clock.now().since(before);
        // At least the 10us access latency.
        assert!(elapsed.as_micros() >= 10);
    }

    #[test]
    fn submitted_writes_do_not_advance_clock() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock.clone(), "nvme0", 128);
        let before = clock.now();
        let done = d.write_blocks(0, &[&block(1)]).unwrap();
        assert_eq!(clock.now(), before);
        assert!(done > before);
    }

    #[test]
    fn queueing_serializes_requests() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        let first = d.write_blocks(0, &[&block(1)]).unwrap();
        let second = d.write_blocks(1, &[&block(2)]).unwrap();
        assert!(second > first, "second request queues behind the first");
    }

    #[test]
    fn unflushed_writes_lost_on_power_failure() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        write(&mut d, 0, &block(0x11)).unwrap();
        let flush_done = d.flush().unwrap();
        d.clock().advance_to(flush_done);
        write(&mut d, 1, &block(0x22)).unwrap(); // never flushed
        d.power_fail();
        d.power_on();
        let mut buf = block(0);
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, block(0x11), "flushed block survives");
        read(&mut d, 1, &mut buf).unwrap();
        assert_eq!(buf, block(0), "unflushed block lost");
    }

    #[test]
    fn nvdimm_durable_without_flush() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvdimm(clock, "nvd0", 128);
        write(&mut d, 0, &block(0x33)).unwrap();
        d.power_fail();
        d.power_on();
        let mut buf = block(0);
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, block(0x33));
    }

    #[test]
    fn ramdisk_loses_everything() {
        let clock = SimClock::new();
        let mut d = ModelDev::ramdisk(clock, "md0", 128);
        write(&mut d, 0, &block(0x44)).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        d.power_fail();
        d.power_on();
        let mut buf = block(9);
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, block(0));
    }

    #[test]
    fn full_length_torn_cut_lands_the_newest_write_and_loses_the_earlier_cached_ones() {
        let mut d = ModelDev::nvme(SimClock::new(), "nvme0", 128);
        write(&mut d, 1, &block(0x11)).unwrap();
        d.flush().unwrap();
        d.set_fault_plan(crate::fault::FaultPlan::torn_write(3, usize::MAX));
        write(&mut d, 1, &block(0x22)).unwrap(); // cached over the flushed 0x11
        // Writes 2 and 3: the cut lands on 0x55.
        d.write_blocks(4, &[&block(0x44), &block(0x55)]).unwrap_err();
        assert!(!d.powered(), "the third write cuts power");
        d.power_on();
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 5, &mut buf).unwrap();
        assert_eq!(buf, block(0x55), "the cut write landed whole");
        read(&mut d, 4, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; BLOCK_SIZE], "its extent's earlier block was lost");
        read(&mut d, 1, &mut buf).unwrap();
        assert_eq!(buf, block(0x11), "the earlier cached write was lost, the flushed one kept");
    }

    #[test]
    fn reads_see_cached_writes() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        write(&mut d, 5, &block(0x55)).unwrap(); // still in cache, no flush
        let mut buf = block(0);
        read(&mut d, 5, &mut buf).unwrap();
        assert_eq!(buf, block(0x55));
    }

    #[test]
    fn out_of_range_and_unaligned_rejected() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 4);
        assert!(write(&mut d, 4, &block(0)).is_err());
        assert!(write(&mut d, 0, &[0u8; 100]).is_err());
        let mut small = [0u8; 7];
        assert!(read(&mut d, 0, &mut small).is_err());
    }

    #[test]
    fn dead_device_errors() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 4);
        d.power_fail();
        assert!(write(&mut d, 0, &block(0)).is_err());
        let mut buf = block(0);
        assert!(read(&mut d, 0, &mut buf).is_err());
        assert!(d.flush().is_err());
        d.power_on();
        assert!(write(&mut d, 0, &block(0)).is_ok());
    }

    #[test]
    fn write_blocks_lands_every_block() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        let bufs = [block(0x10), block(0x11), block(0x12), block(0x13)];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let done = d.write_blocks(8, &refs).unwrap();
        d.clock().advance_to(done);
        let flushed = d.flush().unwrap();
        d.clock().advance_to(flushed);
        for (i, expect) in bufs.iter().enumerate() {
            let mut buf = block(0);
            read(&mut d, 8 + i as u64, &mut buf).unwrap();
            assert_eq!(&buf, expect, "block {i}");
        }
        assert_eq!(d.stats().writes, 1, "one request for the whole extent");
        assert_eq!(d.stats().bytes_written, 4 * BLOCK_SIZE as u64);
    }

    #[test]
    fn write_blocks_charges_one_access_latency() {
        let clock = SimClock::new();
        let mut serial = ModelDev::nvme(clock.clone(), "serial", 128);
        let mut vectored = ModelDev::nvme(clock, "vectored", 128);
        let bufs: Vec<Vec<u8>> = (0..8u8).map(block).collect();
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let mut serial_done = SimTime::ZERO;
        for (i, b) in bufs.iter().enumerate() {
            serial_done = serial_done.max(serial.write_blocks(i as u64, &[b]).unwrap());
        }
        let vectored_done = vectored.write_blocks(0, &refs).unwrap();
        assert!(
            vectored_done < serial_done,
            "extent {vectored_done:?} should beat serial {serial_done:?}"
        );
    }

    #[test]
    fn write_blocks_power_cut_tears_mid_extent() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        // Durable old contents on the block the cut will tear.
        write(&mut d, 2, &block(0xAA)).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        // The first block of the extent is write ordinal 1 post-install.
        d.set_fault_plan(FaultPlan::torn_write(1, 100));
        let bufs = [block(0xB0), block(0xB1), block(0xB2)];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let err = d.write_blocks(0, &refs).unwrap_err();
        assert!(!d.powered());
        assert!(err.to_string().contains("power cut"), "{err}");
        d.power_on();
        // Torn block: 100-byte prefix of the new data over zeroes (the
        // block had never been written); blocks 1 and 2 never landed —
        // block 2 keeps its old durable contents.
        let mut buf = block(0);
        read(&mut d, 0, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 0xB0), "torn prefix landed");
        assert!(buf[100..].iter().all(|&b| b == 0), "suffix untouched");
        read(&mut d, 1, &mut buf).unwrap();
        assert_eq!(buf, block(0), "block behind the cut never landed");
        read(&mut d, 2, &mut buf).unwrap();
        assert_eq!(buf, block(0xAA), "old durable data survives");
    }

    #[test]
    fn write_blocks_transient_bounces_whole_extent() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        d.set_fault_plan(FaultPlan::transient(2, 1));
        let bufs = [block(1), block(2), block(3)];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        assert!(d.write_blocks(0, &refs).is_err());
        // Nothing landed: the extent bounces atomically, so the retry
        // below rewrites all three blocks.
        assert_eq!(d.cached_bytes(), 0);
        let done = d.write_blocks(0, &refs).unwrap();
        d.clock().advance_to(done);
        let flushed = d.flush().unwrap();
        d.clock().advance_to(flushed);
        let mut buf = block(0);
        read(&mut d, 1, &mut buf).unwrap();
        assert_eq!(buf, block(2));
    }

    #[test]
    fn write_blocks_nvdimm_durable_at_completion() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvdimm(clock, "nvd0", 128);
        let bufs = [block(0x61), block(0x62)];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        d.write_blocks(4, &refs).unwrap();
        d.power_fail();
        d.power_on();
        let mut buf = block(0);
        read(&mut d, 4, &mut buf).unwrap();
        assert_eq!(buf, block(0x61));
        read(&mut d, 5, &mut buf).unwrap();
        assert_eq!(buf, block(0x62));
    }

    #[test]
    fn write_blocks_rejects_bad_geometry() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 4);
        let short = [PageData::Zero, test_io::body(&[0u8; 100])];
        assert!(BlockDev::write_blocks(&mut d, 0, &short).is_err());
        assert!(d.write_blocks(0, &[&block(0), &[0u8; 100]]).is_err());
        // Extent running past the device end.
        let bufs: Vec<PageData> = (0..3u8).map(page).collect();
        assert!(BlockDev::write_blocks(&mut d, 2, &bufs).is_err());
        // Empty extent is a no-op.
        assert!(BlockDev::write_blocks(&mut d, 0, &[]).is_ok());
    }

    #[test]
    fn read_blocks_returns_every_block() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        let bufs = [block(0x20), block(0x21), block(0x22)];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let done = d.write_blocks(8, &refs).unwrap();
        d.clock().advance_to(done);
        let reads_before = d.stats().reads;
        let mut out = pages(3);
        d.read_blocks(8, &mut out).unwrap();
        assert_eq!(out, [page(0x20), page(0x21), page(0x22)]);
        assert_eq!(
            d.stats().reads,
            reads_before + 1,
            "one request for the whole extent"
        );
    }

    #[test]
    fn read_blocks_charges_one_access_latency() {
        let clock = SimClock::new();
        let mut serial = ModelDev::nvme(clock.clone(), "serial", 128);
        let mut vectored = ModelDev::nvme(clock, "vectored", 128);
        let serial_clock = serial.clock().clone();
        let before = serial_clock.now();
        let mut buf = block(0);
        for i in 0..8u64 {
            read(&mut serial, i, &mut buf).unwrap();
        }
        let serial_elapsed = serial_clock.now().since(before);
        let before = vectored.clock().now();
        let mut out = pages(8);
        let vectored_elapsed = vectored.read_blocks(0, &mut out).unwrap().since(before);
        assert!(
            vectored_elapsed < serial_elapsed,
            "extent read {vectored_elapsed:?} should beat serial {serial_elapsed:?}"
        );
    }

    #[test]
    fn queued_requests_pay_a_queue_depth_share_of_the_latency() {
        // 4 KiB at 2.5 GB/s is 1638.4 ns, charged rounded up.
        let transfer = SimDuration::for_bytes(BLOCK_SIZE as u64, costdev::NVME_READ_BW);
        assert_eq!(transfer.as_nanos(), 1_639);
        let write_transfer = SimDuration::for_bytes(BLOCK_SIZE as u64, costdev::NVME_WRITE_BW);
        let (whole, share) = (
            SimDuration::from_nanos(10_000),
            SimDuration::from_nanos(625),
        );
        // Back to back on one clock instant: the first request finds the
        // queue idle and pays the whole latency; each one behind it pays
        // the queue-depth share, vectored or timing-only, read or write.
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock.clone(), "nvme0", 128);
        let first = d.read_blocks(0, &mut pages(1)).unwrap();
        assert_eq!(first.since(SimTime::ZERO), whole + transfer);
        let timed = d.charge_read_timing(BLOCK_SIZE as u64).unwrap();
        assert_eq!(timed.since(first), share + transfer);
        let vectored = d.read_blocks(1, &mut pages(1)).unwrap();
        assert_eq!(vectored.since(timed), share + transfer);
        let written = d.write_blocks(2, &[&block(1)]).unwrap();
        assert_eq!(written.since(vectored), share + write_transfer);
        assert_eq!(clock.now(), SimTime::ZERO, "no request moved the clock");
        // Once the caller waits the queue out, the next request, of
        // either kind, finds it idle again.
        clock.advance_to(written);
        let again = d.write_blocks(3, &[&block(2)]).unwrap();
        assert_eq!(again.since(written), whole + write_transfer);
        clock.advance_to(again);
        let timed = d.charge_read_timing(BLOCK_SIZE as u64).unwrap();
        assert_eq!(timed.since(again), whole + transfer);
        // So reading through even a one-block hole costs more than the
        // queued request it would save, on every modelled device: the
        // read break-even is under one block.
        for model in [
            CostModel::NVME,
            ModelDev::nvdimm(SimClock::new(), "nvd0", 1).model,
            ModelDev::ramdisk(SimClock::new(), "md0", 1).model,
        ] {
            let share = SimDuration::from_nanos(model.latency_ns / QUEUE_DEPTH);
            assert!(share < SimDuration::for_bytes(BLOCK_SIZE as u64, model.read_bw));
        }
    }

    #[test]
    fn read_blocks_transient_bounces_whole_extent_then_recovers() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        write(&mut d, 3, &block(0x77)).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        d.set_fault_plan(crate::fault::FaultPlan::transient_reads(1, 2));
        let mut out = pages(4);
        // Each bounced attempt burns one read ordinal (the faulting first
        // block); the third attempt clears the window and succeeds.
        assert!(d.read_blocks(0, &mut out).is_err());
        assert!(d.read_blocks(0, &mut out).is_err());
        d.read_blocks(0, &mut out).unwrap();
        assert_eq!(out.get(3), Some(&page(0x77)));
        assert!(d.powered());
    }

    #[test]
    fn read_blocks_power_cut_kills_device() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        d.set_fault_plan(crate::fault::FaultPlan::power_cut_on_read(2));
        let mut out = pages(4);
        let err = d.read_blocks(0, &mut out).unwrap_err();
        assert!(err.to_string().contains("power cut"), "{err}");
        assert!(!d.powered());
        d.power_on();
        // Ordinals restart on power-on and the plan is still armed, so
        // only the first read is safe.
        d.read_blocks(0, &mut pages(1)).unwrap();
    }

    #[test]
    fn read_blocks_region_corruption_flips_returned_bit() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 128);
        write(&mut d, 5, &block(0)).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        d.set_fault_plan(crate::fault::FaultPlan::corrupt_read_blocks(5, 6, 10, 3));
        let mut out = pages(2);
        d.read_blocks(4, &mut out).unwrap();
        assert_eq!(out.first(), Some(&PageData::Zero), "block outside region clean");
        let hit = out.get(1).map(PageData::materialize).unwrap_or_default();
        assert_eq!(hit.get(10), Some(&(1u8 << 3)), "one bit flipped");
        assert_eq!(hit.iter().filter(|&&b| b != 0).count(), 1);
        // A retry re-reads the same damaged media.
        let mut again = pages(2);
        d.read_blocks(4, &mut again).unwrap();
        assert_eq!(again.get(1).map(PageData::materialize), Some(hit));
    }

    #[test]
    fn read_blocks_rejects_bad_geometry() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 4);
        let mut short = vec![PageData::Zero, test_io::body(&[0u8; 100])];
        assert!(d.read_blocks(0, &mut short).is_err());
        assert!(d.read_blocks(2, &mut pages(3)).is_err());
        assert!(d.read_blocks(0, &mut []).is_ok());
    }

    #[test]
    fn discard_forgets_a_block_everywhere_and_charges_nothing() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock.clone(), "nvme0", 16);
        // Block 2 is stable and the plan lied about it; block 3 sits in
        // the volatile cache; block 4 is stable and clean.
        d.set_fault_plan(crate::fault::FaultPlan::corrupt(1, 0, 0));
        write(&mut d, 2, &block(0x22)).unwrap();
        write(&mut d, 4, &block(0x44)).unwrap();
        let done = d.flush().unwrap();
        clock.advance_to(done);
        write(&mut d, 3, &block(0x33)).unwrap();
        assert_eq!(d.corrupted_lbas(), vec![2]);
        assert!(d.cached_bytes() > 0);

        let (now, busy) = (clock.now(), d.busy_until);
        d.discard(2, 2);
        assert_eq!(
            (clock.now(), d.busy_until),
            (now, busy),
            "a discard is free"
        );
        assert!(!d.stable.contains_key(&2), "the stable body is gone");
        assert_eq!(d.cached_bytes(), 0, "the cached write is gone");
        assert!(d.corrupted_lbas().is_empty(), "off the corrupted list");
        assert_eq!(d.stats().blocks_discarded, 2);
        let mut out = pages(3);
        d.read_blocks(2, &mut out).unwrap();
        assert_eq!(out, vec![PageData::Zero, PageData::Zero, page(0x44)]);

        // A later write of the block lands normally.
        write(&mut d, 2, &block(0x55)).unwrap();
        let done = d.flush().unwrap();
        clock.advance_to(done);
        let mut buf = block(0);
        read(&mut d, 2, &mut buf).unwrap();
        assert_eq!(buf, block(0x55));
    }

    #[test]
    fn stats_accumulate() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 16);
        write(&mut d, 0, &block(1)).unwrap();
        write(&mut d, 1, &block(2)).unwrap();
        let mut buf = block(0);
        read(&mut d, 0, &mut buf).unwrap();
        d.flush().unwrap();
        assert_eq!(d.stats().writes, 2);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().flushes, 1);
        assert_eq!(d.stats().bytes_written, 2 * BLOCK_SIZE as u64);
    }
}
