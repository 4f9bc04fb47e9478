//! Continuous checkpoint shipping to a hot standby (`sls standby` /
//! `sls promote`).
//!
//! The paper's single level store makes whole-application state a
//! first-class shippable object; PR 5's mirror survives *replica* loss
//! but not the machine itself. This module closes that gap: every
//! committed checkpoint epoch is streamed — as sequence-numbered,
//! digest-sealed frames — over a lossy simulated link to a standby host
//! that rebuilds the primary's object store commit by commit.
//!
//! Protocol invariants:
//!
//! * **Epochs apply atomically and in order.** The standby buffers
//!   frames per epoch and applies an epoch only when every frame of it
//!   has arrived *and* every earlier epoch has been applied. A partially
//!   received epoch never touches the standby store.
//! * **The acked-epoch watermark only advances.** Acks are cumulative
//!   ("I have applied everything through epoch E"), so stale, duplicated
//!   or reordered acks are harmless.
//! * **Commits never block on the standby.** A standby that falls more
//!   than [`ReplConfig::max_lag_epochs`] behind degrades the checkpoint
//!   outcome to [`CheckpointOutcome::DegradedReplication`]; it never
//!   delays or aborts the local commit.
//! * **Promote is deterministic.** [`Replicator::promote`] drains
//!   deliveries already in flight, discards any partial epoch tail, and
//!   hands back a store whose head is the last fully received epoch —
//!   which is always at or past the primary's acked watermark.
//!
//! Loss recovery is ack + retransmit with exponential backoff: the
//! primary re-offers every unacked epoch's frames when the retransmit
//! timer fires, doubling the timer until the watermark advances again.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use aurora_hw::{BlockDev, LinkFaultRates, LinkModel, LinkStats, ModelDev, ReplLink, ResilientDev};
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::fnv64;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

use crate::metrics::{CheckpointBreakdown, CheckpointOutcome};
use crate::Host;

/// Replication frame magic ("SLSREPL1").
pub const REPL_MAGIC: u64 = 0x534C_5352_4550_4C31;

/// Replication frame format version.
pub const REPL_VERSION: u16 = 1;

/// Payload of one replication frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    /// One chunk of an epoch's checkpoint stream. `index`/`count` place
    /// the chunk; `full` marks a self-contained stream (epoch 1) as
    /// opposed to a delta on the previous epoch.
    Data {
        /// Epoch number (1-based; one per shipped checkpoint).
        epoch: u64,
        /// Chunk ordinal within the epoch.
        index: u32,
        /// Total chunks in the epoch.
        count: u32,
        /// Self-contained stream (`import_stream`) vs delta
        /// (`import_delta`).
        full: bool,
        /// Chunk bytes.
        chunk: Vec<u8>,
    },
    /// Cumulative acknowledgement: the standby has applied every epoch
    /// through `epoch`.
    Ack {
        /// Highest contiguously applied epoch.
        epoch: u64,
    },
}

/// One sequence-numbered, digest-sealed message on the replication link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplFrame {
    /// Monotonic sequence number (diagnostics; ordering authority is the
    /// epoch/index addressing inside the payload).
    pub seq: u64,
    /// The frame body.
    pub payload: FramePayload,
}

impl ReplFrame {
    /// Encodes the frame: magic, version, FNV-64 digest of the body,
    /// then the body itself.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Encoder::new();
        body.u64(self.seq);
        match &self.payload {
            FramePayload::Data {
                epoch,
                index,
                count,
                full,
                chunk,
            } => {
                body.u8(0);
                body.u64(*epoch);
                body.u32(*index);
                body.u32(*count);
                body.bool(*full);
                body.bytes(chunk);
            }
            FramePayload::Ack { epoch } => {
                body.u8(1);
                body.u64(*epoch);
            }
        }
        let body = body.into_vec();
        let mut e = Encoder::new();
        e.u64(REPL_MAGIC);
        e.u16(REPL_VERSION);
        e.u64(fnv64(&body));
        e.bytes(&body);
        e.into_vec()
    }

    /// Decodes and verifies a frame. Typed errors: `BadImage` for a
    /// foreign stream, `Unsupported` (naming both versions) for a frame
    /// from a newer protocol, `Corrupt` for a digest mismatch.
    pub fn decode(bytes: &[u8]) -> Result<ReplFrame> {
        let mut d = Decoder::new(bytes);
        if d.u64()? != REPL_MAGIC {
            return Err(Error::bad_image("not a replication frame"));
        }
        let version = d.u16()?;
        if version != REPL_VERSION {
            return Err(Error::unsupported(format!(
                "replication frame version {version}, this binary speaks {REPL_VERSION}"
            )));
        }
        let digest = d.u64()?;
        let body = d.bytes()?;
        if fnv64(body) != digest {
            return Err(Error::corrupt("replication frame digest mismatch"));
        }
        let mut b = Decoder::new(body);
        let seq = b.u64()?;
        let payload = match b.u8()? {
            0 => FramePayload::Data {
                epoch: b.u64()?,
                index: b.u32()?,
                count: b.u32()?,
                full: b.bool()?,
                chunk: b.bytes()?.to_vec(),
            },
            1 => FramePayload::Ack { epoch: b.u64()? },
            t => return Err(Error::corrupt(format!("bad replication frame kind {t}"))),
        };
        Ok(ReplFrame { seq, payload })
    }
}

/// Configuration of a replication session.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Seed for the link fault model (both directions derive from it).
    pub seed: u64,
    /// Fault rates applied to both link directions.
    pub rates: LinkFaultRates,
    /// Maximum payload bytes per data frame.
    pub frame_bytes: usize,
    /// Epochs the standby may lag before checkpoints report
    /// [`CheckpointOutcome::DegradedReplication`].
    pub max_lag_epochs: u64,
    /// Initial retransmit timeout (doubles up to `backoff_cap` while the
    /// watermark is stalled; resets on progress).
    pub retransmit_after: SimDuration,
    /// Upper bound of the exponential retransmit backoff.
    pub backoff_cap: SimDuration,
    /// Standby device capacity in blocks.
    pub standby_blocks: u64,
    /// Standby store configuration. Every store keeps its page bodies on
    /// its medium, so promoted state survives reopening whatever its
    /// `materialize_data`; match the primary's so the standby's audits
    /// read the medium when the primary's do.
    pub standby_store: StoreConfig,
    /// Test/campaign hook: the primary "dies" immediately after offering
    /// its N-th data frame (retransmissions count); no frame after the
    /// N-th is ever sent.
    pub kill_after_data_frames: Option<u64>,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            seed: 0x5245_504C,
            rates: LinkFaultRates::clean(),
            frame_bytes: 8 * 1024,
            max_lag_epochs: 8,
            retransmit_after: SimDuration::from_nanos(1_000_000),
            backoff_cap: SimDuration::from_nanos(64_000_000),
            standby_blocks: 64 * 1024,
            standby_store: StoreConfig::default(),
            kill_after_data_frames: None,
        }
    }
}

/// Protocol-level counters of one replication session.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplStats {
    /// Epochs the primary started shipping.
    pub epochs_shipped: u64,
    /// Data frames offered as first transmissions.
    pub frames_sent: u64,
    /// Data frames re-offered after a retransmit timeout.
    pub frames_retransmitted: u64,
    /// Ack frames the primary received.
    pub acks_received: u64,
    /// Acks at or below the current watermark (duplicates, reorders).
    pub stale_acks: u64,
    /// Checkpoint-stream payload bytes across all shipped epochs.
    pub bytes_shipped: u64,
    /// Exports that failed on the primary (the checkpoint still commits).
    pub ship_errors: u64,
    /// Standby-side import failures (an epoch that would not apply).
    pub apply_errors: u64,
    /// Frames that failed to decode or arrived on the wrong channel.
    pub bad_frames: u64,
}

/// What [`Replicator::promote`] did.
#[derive(Debug, Clone, Copy)]
pub struct PromoteReport {
    /// The epoch the standby is authoritative from (its store head).
    pub promoted_epoch: u64,
    /// The primary's acked watermark at promote time; `promoted_epoch`
    /// is always at least this.
    pub acked_epoch: u64,
    /// Epochs the primary had started shipping; `shipped - promoted` is
    /// the epochs lost to the failover (the RPO, in epochs).
    pub shipped_epochs: u64,
    /// Partially received epochs discarded by the promote.
    pub discarded_partial_epochs: u64,
    /// Frames inside those discarded partial epochs.
    pub discarded_frames: u64,
    /// Standby import failures observed over the session (must be zero
    /// for the promoted store to be trusted).
    pub apply_errors: u64,
}

/// Direction of an in-flight delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Primary -> standby (data frames).
    Data,
    /// Standby -> primary (ack frames).
    Ack,
}

/// An epoch's frames retained for retransmission until acked.
#[derive(Debug, Clone)]
struct EpochBuffer {
    frames: Vec<Vec<u8>>,
    payload_bytes: u64,
}

/// An epoch the standby has partially received.
#[derive(Debug)]
struct PartialEpoch {
    count: u32,
    full: bool,
    chunks: BTreeMap<u32, Vec<u8>>,
}

impl PartialEpoch {
    fn complete(&self) -> bool {
        (0..self.count).all(|i| self.chunks.contains_key(&i))
    }
}

/// The standby half of the session: its own object store plus the
/// reassembly state.
struct Standby {
    store: StoreHandle,
    /// Highest contiguously applied epoch (what the standby acks).
    applied_epoch: u64,
    partial: BTreeMap<u64, PartialEpoch>,
}

/// A replication session: primary-side protocol state, both fault-model
/// link directions, and the simulated standby they connect.
pub struct Replicator {
    cfg: ReplConfig,
    clock: Arc<SimClock>,
    data_link: ReplLink,
    ack_link: ReplLink,
    standby: Standby,
    /// Deliveries scheduled but not yet processed, ordered by arrival
    /// instant (ties broken by enqueue order).
    inflight: BTreeMap<(SimTime, u64), (Dir, Vec<u8>)>,
    delivery_seq: u64,
    next_seq: u64,
    shipped_epoch: u64,
    acked_epoch: u64,
    /// Frames of every epoch above the watermark, for retransmission.
    unacked: BTreeMap<u64, EpochBuffer>,
    next_retx_at: SimTime,
    backoff: SimDuration,
    data_frames_offered: u64,
    primary_dead: bool,
    /// Protocol counters.
    pub stats: ReplStats,
}

impl Replicator {
    /// Creates a session: formats a fresh standby store on its own
    /// simulated NVMe device and wires both link directions.
    pub fn new(clock: Arc<SimClock>, cfg: ReplConfig) -> Result<Replicator> {
        let dev: Box<dyn BlockDev> = Box::new(ModelDev::nvme(
            clock.clone(),
            "standby-nvme",
            cfg.standby_blocks,
        ));
        let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(dev));
        let store: StoreHandle = Rc::new(RefCell::new(ObjectStore::format(
            dev,
            cfg.standby_store.clone(),
        )?));
        Replicator::with_store(clock, cfg, store)
    }

    /// Creates a session over an existing standby store (the CLI's
    /// file-backed standby world).
    pub fn with_store(
        clock: Arc<SimClock>,
        cfg: ReplConfig,
        store: StoreHandle,
    ) -> Result<Replicator> {
        let data_link = ReplLink::new(LinkModel::ten_gbe(clock.clone()), cfg.rates, cfg.seed);
        let ack_link = ReplLink::new(
            LinkModel::ten_gbe(clock.clone()),
            cfg.rates,
            cfg.seed ^ 0x4143_4B5F_4C49_4E4B, // "ACK_LINK"
        );
        let backoff = cfg.retransmit_after;
        Ok(Replicator {
            cfg,
            clock,
            data_link,
            ack_link,
            standby: Standby {
                store,
                applied_epoch: 0,
                partial: BTreeMap::new(),
            },
            inflight: BTreeMap::new(),
            delivery_seq: 0,
            next_seq: 1,
            shipped_epoch: 0,
            acked_epoch: 0,
            unacked: BTreeMap::new(),
            next_retx_at: SimTime::ZERO,
            backoff,
            data_frames_offered: 0,
            primary_dead: false,
            stats: ReplStats::default(),
        })
    }

    /// The session configuration.
    pub fn cfg(&self) -> &ReplConfig {
        &self.cfg
    }

    /// Highest epoch the primary started shipping.
    pub fn shipped_epoch(&self) -> u64 {
        self.shipped_epoch
    }

    /// The acked-epoch watermark: the standby has applied everything
    /// through this epoch, and the primary knows it.
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch
    }

    /// Replication lag in epochs (shipped minus acked).
    pub fn lag_epochs(&self) -> u64 {
        self.shipped_epoch.saturating_sub(self.acked_epoch)
    }

    /// Replication lag in unacked checkpoint-stream payload bytes.
    pub fn lag_bytes(&self) -> u64 {
        self.unacked.values().map(|b| b.payload_bytes).sum()
    }

    /// True once the kill hook has fired: no further frame leaves the
    /// primary and the session only awaits promotion.
    pub fn primary_dead(&self) -> bool {
        self.primary_dead
    }

    /// Fault counters of the primary -> standby link.
    pub fn data_link_stats(&self) -> LinkStats {
        self.data_link.stats
    }

    /// Fault counters of the standby -> primary link.
    pub fn ack_link_stats(&self) -> LinkStats {
        self.ack_link.stats
    }

    /// Ships checkpoint `ckpt` as the next epoch: exports it (a
    /// self-contained stream for the first epoch, a delta afterwards),
    /// splits it into sealed frames, offers them to the link, and
    /// retains them for retransmission until acked.
    pub fn ship_epoch(&mut self, store: &StoreHandle, ckpt: CkptId) -> Result<()> {
        if self.primary_dead {
            return Ok(());
        }
        let epoch = self.shipped_epoch + 1;
        let full = epoch == 1;
        let payload = if full {
            store.borrow().export_checkpoint(ckpt)?
        } else {
            store.borrow().export_delta(ckpt)?
        };
        // The epoch exists as soon as shipping starts: a kill mid-epoch
        // counts it as lost (conservative RPO accounting).
        self.shipped_epoch = epoch;
        self.stats.epochs_shipped += 1;
        self.stats.bytes_shipped += payload.len() as u64;
        let chunk_len = self.cfg.frame_bytes.max(1);
        let count = payload.len().div_ceil(chunk_len).max(1) as u32;
        let mut frames = Vec::with_capacity(count as usize);
        for (index, chunk) in payload.chunks(chunk_len).enumerate() {
            let frame = ReplFrame {
                seq: self.next_seq,
                payload: FramePayload::Data {
                    epoch,
                    index: index as u32,
                    count,
                    full,
                    chunk: chunk.to_vec(),
                },
            };
            self.next_seq += 1;
            frames.push(frame.encode());
        }
        if payload.is_empty() {
            // An empty payload still ships one (empty) chunk so the
            // epoch completes on the standby.
            let frame = ReplFrame {
                seq: self.next_seq,
                payload: FramePayload::Data {
                    epoch,
                    index: 0,
                    count,
                    full,
                    chunk: Vec::new(),
                },
            };
            self.next_seq += 1;
            frames.push(frame.encode());
        }
        for f in &frames {
            self.send_data(f.clone(), false);
        }
        self.unacked.insert(
            epoch,
            EpochBuffer {
                frames,
                payload_bytes: payload.len() as u64,
            },
        );
        self.arm_retransmit();
        Ok(())
    }

    /// (Re)arms the retransmit timer from now.
    fn arm_retransmit(&mut self) {
        self.next_retx_at = self.clock.now() + self.backoff;
    }

    /// Offers one data frame to the link, honouring the kill hook.
    fn send_data(&mut self, frame: Vec<u8>, retransmit: bool) {
        if self.primary_dead {
            return;
        }
        self.data_frames_offered += 1;
        if retransmit {
            self.stats.frames_retransmitted += 1;
        } else {
            self.stats.frames_sent += 1;
        }
        for d in self.data_link.send(&frame) {
            self.delivery_seq += 1;
            self.inflight.insert((d.at, self.delivery_seq), (Dir::Data, d.bytes));
        }
        if self
            .cfg
            .kill_after_data_frames
            .is_some_and(|k| self.data_frames_offered >= k)
        {
            // The primary dies right after offering its k-th frame.
            self.primary_dead = true;
        }
    }

    /// Sends a cumulative ack from the standby.
    fn send_ack(&mut self, epoch: u64) {
        if self.primary_dead {
            // Nobody is listening; promote discards acks anyway.
            return;
        }
        let frame = ReplFrame {
            seq: self.next_seq,
            payload: FramePayload::Ack { epoch },
        };
        self.next_seq += 1;
        let bytes = frame.encode();
        for d in self.ack_link.send(&bytes) {
            self.delivery_seq += 1;
            self.inflight.insert((d.at, self.delivery_seq), (Dir::Ack, d.bytes));
        }
    }

    /// Processes every delivery due at the current virtual instant, then
    /// retransmits unacked epochs if the timer expired.
    pub fn pump(&mut self) {
        let now = self.clock.now();
        self.deliver_due(now);
        if !self.primary_dead && self.acked_epoch < self.shipped_epoch && now >= self.next_retx_at {
            let pending: Vec<Vec<Vec<u8>>> = self
                .unacked
                .values()
                .map(|b| b.frames.clone())
                .collect();
            for frames in pending {
                for f in frames {
                    self.send_data(f, true);
                }
            }
            // Release a reorder-held tail so a lone retransmit can land.
            let held: Vec<_> = self.data_link.flush_held();
            for d in held {
                self.delivery_seq += 1;
                self.inflight.insert((d.at, self.delivery_seq), (Dir::Data, d.bytes));
            }
            self.backoff = (self.backoff * 2).min(self.cfg.backoff_cap);
            self.next_retx_at = now + self.backoff;
            self.deliver_due(now);
        }
    }

    /// Delivers every in-flight message whose arrival instant has passed.
    fn deliver_due(&mut self, now: SimTime) {
        while let Some(((at, ds), (dir, bytes))) = self.inflight.pop_first() {
            if at > now {
                self.inflight.insert((at, ds), (dir, bytes));
                break;
            }
            match dir {
                Dir::Data => self.standby_receive(&bytes),
                Dir::Ack => self.primary_receive_ack(&bytes),
            }
        }
    }

    /// Standby-side frame handling: buffer, apply complete in-order
    /// epochs, ack cumulatively (re-acking duplicates heals lost acks).
    fn standby_receive(&mut self, bytes: &[u8]) {
        let frame = match ReplFrame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                self.stats.bad_frames += 1;
                return;
            }
        };
        let FramePayload::Data {
            epoch,
            index,
            count,
            full,
            chunk,
        } = frame.payload
        else {
            self.stats.bad_frames += 1;
            return;
        };
        if epoch > self.standby.applied_epoch {
            let p = self
                .standby
                .partial
                .entry(epoch)
                .or_insert_with(|| PartialEpoch {
                    count,
                    full,
                    chunks: BTreeMap::new(),
                });
            if p.count == count && p.full == full && index < count {
                p.chunks.insert(index, chunk);
            } else {
                self.stats.bad_frames += 1;
            }
            self.standby_try_apply();
        }
        self.send_ack(self.standby.applied_epoch);
    }

    /// Applies every complete epoch contiguous with the applied prefix.
    fn standby_try_apply(&mut self) {
        loop {
            let next = self.standby.applied_epoch + 1;
            match self.standby.partial.get(&next) {
                Some(p) if p.complete() => {}
                _ => break,
            }
            let Some(p) = self.standby.partial.remove(&next) else {
                break;
            };
            let mut payload = Vec::new();
            for chunk in p.chunks.values() {
                payload.extend_from_slice(chunk);
            }
            let res = if p.full {
                self.standby.store.borrow_mut().import_stream(&payload)
            } else {
                self.standby.store.borrow_mut().import_delta(&payload)
            };
            match res {
                Ok(_) => self.standby.applied_epoch = next,
                Err(_) => {
                    self.stats.apply_errors += 1;
                    break;
                }
            }
        }
    }

    /// Primary-side ack handling: advance the watermark, drop acked
    /// retransmit buffers, reset the backoff on progress.
    fn primary_receive_ack(&mut self, bytes: &[u8]) {
        if self.primary_dead {
            return;
        }
        let frame = match ReplFrame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                self.stats.bad_frames += 1;
                return;
            }
        };
        let FramePayload::Ack { epoch } = frame.payload else {
            self.stats.bad_frames += 1;
            return;
        };
        self.stats.acks_received += 1;
        if epoch > self.acked_epoch {
            self.acked_epoch = epoch;
            self.unacked = self.unacked.split_off(&(epoch + 1));
            self.backoff = self.cfg.retransmit_after;
            self.arm_retransmit();
        } else {
            self.stats.stale_acks += 1;
        }
    }

    /// Drives the session until the watermark catches up with every
    /// shipped epoch and nothing is in flight, advancing the virtual
    /// clock to each next event (delivery arrival or retransmit timer).
    /// Returns false if `max_steps` events were not enough — with any
    /// retransmission at all this only happens for genuinely absurd
    /// fault rates.
    pub fn run_until_idle(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            let drained = self.inflight.is_empty();
            let caught_up = self.acked_epoch >= self.shipped_epoch;
            if drained && (caught_up || self.primary_dead) {
                return true;
            }
            let next_arrival = self.inflight.keys().next().map(|&(at, _)| at);
            let target = match (next_arrival, caught_up || self.primary_dead) {
                (Some(at), true) => at,
                (Some(at), false) => at.min(self.next_retx_at),
                (None, false) => self.next_retx_at,
                (None, true) => return true,
            };
            self.clock.advance_to(target);
            self.pump();
        }
        false
    }

    /// Fails over to the standby: drains every delivery already in
    /// flight (acks go nowhere — the primary is gone), discards any
    /// partially received epoch, and returns the standby store with a
    /// report. The store's head is the last fully received epoch.
    pub fn promote(mut self) -> (StoreHandle, PromoteReport) {
        self.primary_dead = true;
        // Release reorder-held messages: they were serialized onto the
        // wire before the failover.
        let held: Vec<_> = self.data_link.flush_held();
        for d in held {
            self.delivery_seq += 1;
            self.inflight.insert((d.at, self.delivery_seq), (Dir::Data, d.bytes));
        }
        while let Some(((at, _), (dir, bytes))) = self.inflight.pop_first() {
            self.clock.advance_to(at);
            if dir == Dir::Data {
                self.standby_receive(&bytes);
            }
        }
        let discarded_partial_epochs = self.standby.partial.len() as u64;
        let discarded_frames = self
            .standby
            .partial
            .values()
            .map(|p| p.chunks.len() as u64)
            .sum();
        let report = PromoteReport {
            promoted_epoch: self.standby.applied_epoch,
            acked_epoch: self.acked_epoch,
            shipped_epochs: self.shipped_epoch,
            discarded_partial_epochs,
            discarded_frames,
            apply_errors: self.stats.apply_errors,
        };
        (self.standby.store, report)
    }
}

impl Host {
    /// Attaches a hot standby: every subsequent committed checkpoint is
    /// shipped to it continuously over the configured (possibly faulty)
    /// link.
    pub fn attach_standby(&mut self, cfg: ReplConfig) -> Result<()> {
        if self.sls.replicator.is_some() {
            return Err(Error::invalid("a standby is already attached"));
        }
        self.sls.replicator = Some(Box::new(Replicator::new(self.clock.clone(), cfg)?));
        Ok(())
    }

    /// Attaches a hot standby over an existing store (CLI world files).
    pub fn attach_standby_store(&mut self, cfg: ReplConfig, store: StoreHandle) -> Result<()> {
        if self.sls.replicator.is_some() {
            return Err(Error::invalid("a standby is already attached"));
        }
        self.sls.replicator = Some(Box::new(Replicator::with_store(
            self.clock.clone(),
            cfg,
            store,
        )?));
        Ok(())
    }

    /// The attached replication session, if any.
    pub fn replication(&self) -> Option<&Replicator> {
        self.sls.replicator.as_deref()
    }

    /// Mutable access to the replication session.
    pub fn replication_mut(&mut self) -> Option<&mut Replicator> {
        self.sls.replicator.as_deref_mut()
    }

    /// Detaches the replication session (the step before
    /// [`promote_to_host`]).
    pub fn detach_standby(&mut self) -> Option<Box<Replicator>> {
        self.sls.replicator.take()
    }

    /// Processes due deliveries and retransmissions outside a
    /// checkpoint (periodic drivers call this after advancing time).
    pub fn replication_pump(&mut self) {
        if let Some(r) = self.sls.replicator.as_deref_mut() {
            r.pump();
        }
    }

    /// Post-commit replication hook: ship the epoch, drain acks, and
    /// degrade the outcome if the standby lags too far. Never blocks or
    /// aborts the commit.
    pub(crate) fn replicate_after_checkpoint(&mut self, bd: &mut CheckpointBreakdown) {
        let Some(mut repl) = self.sls.replicator.take() else {
            return;
        };
        if let Some(ckpt) = bd.ckpt {
            if bd.outcome.committed() && !repl.primary_dead() {
                if let Err(e) = repl.ship_epoch(&self.sls.primary, ckpt) {
                    repl.stats.ship_errors += 1;
                    if bd.outcome == CheckpointOutcome::Committed {
                        bd.outcome = CheckpointOutcome::DegradedReplication;
                        bd.note_fault(format!("replication export failed: {e}"));
                    }
                }
            }
        }
        repl.pump();
        let lag = repl.lag_epochs();
        if lag > repl.cfg.max_lag_epochs && bd.outcome == CheckpointOutcome::Committed {
            bd.outcome = CheckpointOutcome::DegradedReplication;
            bd.note_fault(format!(
                "replication lag {lag} epochs exceeds max {}: standby falling behind",
                repl.cfg.max_lag_epochs
            ));
        }
        self.sls.replicator = Some(repl);
    }

    /// Boots a host over an already-open store handle — the promote
    /// path's final step (the standby store never went through a crash,
    /// so there is nothing to recover).
    pub fn boot_from_store(name: &str, store: StoreHandle) -> Result<Host> {
        Host::assemble(name, store, Default::default())
    }
}

/// Promotes a detached replication session to a full host: drains the
/// link, discards partial epochs, and boots a kernel over the standby
/// store. The returned host restores applications exactly as a rebooted
/// primary would.
pub fn promote_to_host(repl: Box<Replicator>, name: &str) -> Result<(Host, PromoteReport)> {
    let (store, report) = repl.promote();
    let host = Host::boot_from_store(name, store)?;
    Ok((host, report))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::restore::RestoreMode;
    use aurora_objstore::StoreConfig;

    #[test]
    fn repl_frame_data_roundtrips() {
        let frame = ReplFrame {
            seq: 42,
            payload: FramePayload::Data {
                epoch: 7,
                index: 3,
                count: 9,
                full: false,
                chunk: vec![0xAB; 1234],
            },
        };
        let bytes = frame.encode();
        let out = ReplFrame::decode(&bytes).unwrap();
        assert_eq!(out, frame);
    }

    #[test]
    fn repl_frame_ack_roundtrips() {
        let frame = ReplFrame {
            seq: 9000,
            payload: FramePayload::Ack { epoch: 17 },
        };
        let out = ReplFrame::decode(&frame.encode()).unwrap();
        assert_eq!(out, frame);
    }

    #[test]
    fn repl_frame_wire_bytes_are_pinned() {
        let data = ReplFrame {
            seq: 42,
            payload: FramePayload::Data {
                epoch: 7,
                index: 3,
                count: 9,
                full: true,
                chunk: b"aurora".to_vec(),
            },
        };
        let ack = ReplFrame {
            seq: 9000,
            payload: FramePayload::Ack { epoch: 17 },
        };
        // Header: magic "SLSREPL1" (LE u64), version 1 (LE u16).
        let header = [0x31, 0x4C, 0x50, 0x45, 0x52, 0x53, 0x4C, 0x53, 1, 0];
        let mut want = header.to_vec();
        want.extend([0xA7, 0x81, 0x48, 0x01, 0x29, 0xB3, 0x53, 0xB4]); // digest
        want.push(33); // body length
        want.extend([42, 0, 0, 0, 0, 0, 0, 0]); // seq
        want.push(0); // kind: data
        want.extend([7, 0, 0, 0, 0, 0, 0, 0]); // epoch
        want.extend([3, 0, 0, 0, 9, 0, 0, 0]); // index, count
        want.push(1); // full
        want.push(6); // chunk length
        want.extend(b"aurora");
        assert_eq!(data.encode(), want);

        let mut want = header.to_vec();
        want.extend([0x36, 0x8A, 0xB6, 0xFF, 0x44, 0x64, 0xB0, 0x40]); // digest
        want.push(17); // body length
        want.extend([0x28, 0x23, 0, 0, 0, 0, 0, 0]); // seq 9000
        want.push(1); // kind: ack
        want.extend([17, 0, 0, 0, 0, 0, 0, 0]); // epoch
        assert_eq!(ack.encode(), want);
    }

    #[test]
    fn repl_frame_rejects_corruption_and_foreign_magic() {
        let frame = ReplFrame {
            seq: 1,
            payload: FramePayload::Ack { epoch: 2 },
        };
        let mut bytes = frame.encode();
        // Flip a byte in the body: digest must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = ReplFrame::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), aurora_sim::error::ErrorKind::Corrupt);
        // Foreign magic.
        let err = ReplFrame::decode(&[0u8; 32]).unwrap_err();
        assert_eq!(err.kind(), aurora_sim::error::ErrorKind::BadImage);
    }

    #[test]
    fn repl_frame_version_error_names_both_versions() {
        let frame = ReplFrame {
            seq: 1,
            payload: FramePayload::Ack { epoch: 2 },
        };
        let mut bytes = frame.encode();
        // The version field sits right after the 8-byte magic.
        bytes[8] = 0x63; // version 99 (little-endian u16)
        bytes[9] = 0;
        let err = ReplFrame::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), aurora_sim::error::ErrorKind::Unsupported);
        let msg = err.to_string();
        assert!(msg.contains("99"), "names the frame's version: {msg}");
        assert!(
            msg.contains(&REPL_VERSION.to_string()),
            "names the supported version: {msg}"
        );
    }

    fn repl_host(cfg: ReplConfig) -> (Host, aurora_posix::Pid, u64, crate::GroupId) {
        let clock = SimClock::new();
        let dev = Box::new(aurora_hw::ModelDev::nvme(clock, "nvme0", 64 * 1024));
        let mut host = Host::boot(
            "primary",
            dev,
            StoreConfig {
                journal_blocks: 512,
                materialize_data: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        host.attach_standby(cfg).unwrap();
        let pid = host.kernel.spawn("app");
        let addr = host.kernel.mmap_anon(pid, 4 * 4096, false).unwrap();
        let gid = host.persist("app", pid).unwrap();
        (host, pid, addr, gid)
    }

    fn materialized() -> StoreConfig {
        StoreConfig {
            journal_blocks: 512,
            materialize_data: true,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn clean_link_converges_and_promotes_latest_epoch() {
        let cfg = ReplConfig {
            standby_store: materialized(),
            frame_bytes: 2048,
            ..ReplConfig::default()
        };
        let (mut host, pid, addr, gid) = repl_host(cfg);
        for round in 0..3u32 {
            let tag = format!("epoch-{}", round + 1);
            host.kernel.mem_write(pid, addr, tag.as_bytes()).unwrap();
            let bd = host
                .checkpoint(gid, round == 0, Some(&format!("e{}", round + 1)))
                .unwrap();
            assert_eq!(bd.outcome, CheckpointOutcome::Committed);
            host.clock.advance_to(bd.durable_at);
        }
        let repl = host.replication_mut().unwrap();
        assert!(repl.run_until_idle(1_000), "clean link must converge");
        assert_eq!(repl.acked_epoch(), 3);
        assert_eq!(repl.lag_epochs(), 0);
        assert_eq!(repl.lag_bytes(), 0);

        let repl = host.detach_standby().unwrap();
        let (mut standby, pr) = promote_to_host(repl, "standby").unwrap();
        assert_eq!(pr.promoted_epoch, 3);
        assert_eq!(pr.apply_errors, 0);
        assert_eq!(pr.discarded_partial_epochs, 0);
        let store = standby.sls.primary.clone();
        assert!(store.borrow().scrub().is_empty());
        let head = store.borrow().head().unwrap();
        let r = standby.restore(&store, head, RestoreMode::Eager).unwrap();
        let np = r.root_pid().unwrap();
        let mut buf = vec![0u8; 7];
        standby.kernel.mem_read(np, addr, &mut buf).unwrap();
        assert_eq!(&buf, b"epoch-3");
    }

    #[test]
    fn lossy_link_retransmits_until_acked() {
        let cfg = ReplConfig {
            standby_store: materialized(),
            rates: LinkFaultRates::hostile(),
            frame_bytes: 1024,
            seed: 11,
            ..ReplConfig::default()
        };
        let (mut host, pid, addr, gid) = repl_host(cfg);
        for round in 0..6u32 {
            host.kernel
                .mem_write(pid, addr, format!("r{round}").as_bytes())
                .unwrap();
            let bd = host.checkpoint(gid, round == 0, None).unwrap();
            host.clock.advance_to(bd.durable_at);
        }
        let repl = host.replication_mut().unwrap();
        assert!(repl.run_until_idle(100_000), "lossy link must converge");
        assert_eq!(repl.acked_epoch(), 6);
        let dropped = repl.data_link_stats().dropped + repl.ack_link_stats().dropped;
        assert!(dropped > 0, "hostile link must actually drop something");
        assert!(
            repl.stats.frames_retransmitted > 0,
            "drops must force retransmissions"
        );
    }

    #[test]
    fn severed_link_degrades_checkpoints_instead_of_blocking() {
        let cfg = ReplConfig {
            standby_store: materialized(),
            rates: LinkFaultRates {
                drop_ppm: 1_000_000, // the wire eats everything
                ..LinkFaultRates::clean()
            },
            max_lag_epochs: 1,
            ..ReplConfig::default()
        };
        let (mut host, pid, addr, gid) = repl_host(cfg);
        let mut outcomes = Vec::new();
        for round in 0..3u32 {
            host.kernel
                .mem_write(pid, addr, format!("r{round}").as_bytes())
                .unwrap();
            let bd = host.checkpoint(gid, round == 0, None).unwrap();
            outcomes.push(bd.outcome);
            host.clock.advance_to(bd.durable_at);
        }
        assert_eq!(outcomes[0], CheckpointOutcome::Committed, "lag 1 is fine");
        assert_eq!(
            outcomes[2],
            CheckpointOutcome::DegradedReplication,
            "a severed link must surface as degraded replication: {outcomes:?}"
        );
        let repl = host.replication().unwrap();
        assert_eq!(repl.acked_epoch(), 0);
        assert_eq!(repl.lag_epochs(), 3, "every shipped epoch is still unacked");
    }

    #[test]
    fn kill_mid_epoch_promotes_only_complete_epochs() {
        let cfg = ReplConfig {
            standby_store: materialized(),
            frame_bytes: 1024,
            // Die three frames into shipping (epoch 1 spans many more).
            kill_after_data_frames: Some(3),
            ..ReplConfig::default()
        };
        let (mut host, pid, addr, gid) = repl_host(cfg);
        host.kernel.mem_write(pid, addr, b"doomed").unwrap();
        let bd = host.checkpoint(gid, true, None).unwrap();
        host.clock.advance_to(bd.durable_at);
        let repl = host.detach_standby().unwrap();
        assert!(repl.primary_dead());
        let (standby, pr) = promote_to_host(repl, "standby").unwrap();
        assert_eq!(pr.promoted_epoch, 0, "a torn epoch never promotes");
        assert_eq!(pr.acked_epoch, 0);
        assert!(pr.discarded_frames > 0, "the partial tail was discarded");
        assert!(standby.sls.primary.borrow().scrub().is_empty());
    }
}
