//! N-way mirrored block device with self-healing.
//!
//! [`MirrorDev`] presents N replica devices as one [`BlockDev`]. Every
//! replica sits behind its own [`ResilientDev`] retry layer and can carry
//! its own independent [`FaultPlan`], so a single replica can die, flake,
//! or corrupt while the mirror as a whole keeps serving.
//!
//! Semantics:
//!
//! * **Writes** fan out to every attached replica via the existing
//!   vectored ops; the mirror's completion instant is the slowest
//!   replica's. If at least one replica accepts the write the mirror
//!   succeeds; replicas that failed it are *detached* (they missed data
//!   and may no longer serve reads).
//! * **Reads** come from a preferred replica and fail over to a twin on
//!   error. A replica whose read fails permanently while a twin can still
//!   serve is detached — same reasoning: its contents are no longer
//!   trusted.
//! * **Read-repair** ([`MirrorDev::repair_block`]) is driven from above:
//!   the object store verifies content hashes, and a block that fails
//!   verification on one replica is rewritten from a twin whose copy
//!   passes, instead of surfacing a corruption error.
//! * **Resilver** rebuilds a revived or replaced replica: it re-enters in
//!   the `Rebuilding` state, receiving all new writes but serving no
//!   reads, while [`MirrorDev::resilver_extent`] copies live extents from
//!   a good twin. Only [`MirrorDev::promote_rebuilt`] (after a flush
//!   barrier) makes it readable again — so a crash mid-resilver can never
//!   expose a half-rebuilt replica as authoritative.
//!
//! Replica states survive a whole-machine power cycle: `power_on` keeps a
//! `Rebuilding` replica rebuilding and a `Detached` replica detached. On
//! real hardware this information would live in an on-disk mirror label;
//! here the device object itself persists across the simulated reboot.

use std::collections::BTreeSet;
use std::sync::Arc;

use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_sim::{PageData, SimClock};

use crate::dev::{BlockDev, DevInfo, DevStats};
use crate::fault::FaultPlan;
use crate::retry::{DevHealth, ResilientDev, RetryStats};

/// Lifecycle of one replica inside a mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// In sync: serves reads, receives writes.
    Active,
    /// Being rebuilt: receives all new writes, serves no reads. Promoted
    /// to `Active` only by a completed resilver.
    Rebuilding,
    /// Out of service: no reads, no writes. A replica is detached when it
    /// fails an operation the mirror as a whole survived (it missed data)
    /// or when an operator kills it.
    Detached,
}

impl ReplicaState {
    /// Short lowercase label for logs and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaState::Active => "active",
            ReplicaState::Rebuilding => "rebuilding",
            ReplicaState::Detached => "detached",
        }
    }

    /// Parses the label written by [`ReplicaState::as_str`].
    pub fn parse(s: &str) -> Option<ReplicaState> {
        match s {
            "active" => Some(ReplicaState::Active),
            "rebuilding" => Some(ReplicaState::Rebuilding),
            "detached" => Some(ReplicaState::Detached),
            _ => None,
        }
    }
}

/// Self-healing counters for a mirror.
#[derive(Debug, Default, Clone, Copy)]
pub struct MirrorStats {
    /// Reads served by a twin after the preferred replica failed.
    pub failovers: u64,
    /// Blocks rewritten on a replica from a verified twin copy.
    pub read_repairs: u64,
    /// Blocks copied to rebuilding replicas by resilver.
    pub resilvered_blocks: u64,
    /// Extent batches issued by resilver.
    pub resilvered_extents: u64,
    /// Writes that committed with at least one replica missing.
    pub degraded_writes: u64,
    /// Replicas detached after failing an operation a twin survived.
    pub replicas_detached: u64,
}

/// A [`BlockDev`] mirroring its contents across N replicas.
pub struct MirrorDev {
    replicas: Vec<ResilientDev>,
    states: Vec<ReplicaState>,
    info: DevInfo,
    stats: DevStats,
    clock: Arc<SimClock>,
    preferred: usize,
    mstats: MirrorStats,
}

impl MirrorDev {
    /// Builds a mirror over `members`, wrapping each in its own
    /// [`ResilientDev`] retry layer. Fails on an empty member list.
    pub fn new(members: Vec<Box<dyn BlockDev>>) -> Result<MirrorDev> {
        let Some(first) = members.first() else {
            return Err(Error::invalid("a mirror needs at least one replica"));
        };
        let clock = Arc::clone(first.clock());
        let blocks = members.iter().map(|m| m.info().blocks).min().unwrap_or(0);
        let persistent = members.iter().all(|m| m.info().persistent);
        let persistence_domain = members.iter().all(|m| m.info().persistence_domain);
        let names: Vec<String> = members.iter().map(|m| m.info().name.clone()).collect();
        let info = DevInfo {
            name: format!("mirror[{}]", names.join("+")),
            blocks,
            persistent,
            persistence_domain,
        };
        let states = vec![ReplicaState::Active; members.len()];
        let replicas: Vec<ResilientDev> =
            members.into_iter().map(ResilientDev::with_defaults).collect();
        Ok(MirrorDev {
            replicas,
            states,
            info,
            stats: DevStats::default(),
            clock,
            preferred: 0,
            mstats: MirrorStats::default(),
        })
    }

    /// Number of replicas (attached or not).
    pub fn width(&self) -> usize {
        self.replicas.len()
    }

    /// Number of replicas currently serving reads.
    pub fn active_width(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == ReplicaState::Active)
            .count()
    }

    /// True when any replica is missing, rebuilding, or unhealthy.
    pub fn is_degraded(&self) -> bool {
        self.states.iter().any(|s| *s != ReplicaState::Active)
            || self
                .replicas
                .iter()
                .any(|r| r.health() != DevHealth::Healthy)
    }

    /// State of replica `i`.
    pub fn replica_state(&self, i: usize) -> Option<ReplicaState> {
        self.states.get(i).copied()
    }

    /// Health of replica `i` as judged by its retry layer.
    pub fn replica_health(&self, i: usize) -> Option<DevHealth> {
        self.replicas.get(i).map(|r| r.health())
    }

    /// Name of replica `i`'s underlying device.
    pub fn replica_name(&self, i: usize) -> Option<String> {
        self.replicas.get(i).map(|r| r.info().name.clone())
    }

    /// Self-healing counters.
    pub fn mirror_stats(&self) -> MirrorStats {
        self.mstats
    }

    /// Installs a fault plan on replica `i` only (the whole-device
    /// [`BlockDev::install_fault_plan`] fans the same plan to every
    /// replica instead, preserving whole-machine fault semantics).
    pub fn install_replica_fault_plan(&mut self, i: usize, plan: FaultPlan) -> Result<()> {
        self.replicas
            .get_mut(i)
            .map(|r| r.install_fault_plan(plan))
            .ok_or_else(|| Error::invalid(format!("mirror has no replica {i}")))
    }

    /// Cuts power to replica `i` and detaches it (operator action or
    /// simulated replica death).
    pub fn kill_replica(&mut self, i: usize) -> Result<()> {
        let Some(r) = self.replicas.get_mut(i) else {
            return Err(Error::invalid(format!("mirror has no replica {i}")));
        };
        r.power_fail();
        if let Some(s) = self.states.get_mut(i) {
            *s = ReplicaState::Detached;
        }
        Ok(())
    }

    /// Returns a detached or dead replica to service in the `Rebuilding`
    /// state: it receives all new writes but serves no reads until a
    /// resilver promotes it. This is also how a *replaced* (blank)
    /// replica enters — its prior contents are simply never trusted.
    pub fn revive_replica(&mut self, i: usize) -> Result<()> {
        let Some(r) = self.replicas.get_mut(i) else {
            return Err(Error::invalid(format!("mirror has no replica {i}")));
        };
        r.power_on();
        if let Some(s) = self.states.get_mut(i) {
            if *s != ReplicaState::Active {
                *s = ReplicaState::Rebuilding;
            }
        }
        Ok(())
    }

    /// Restores a persisted replica state (used when reopening a mirror
    /// world from disk; not an operational transition).
    pub fn restore_replica_state(&mut self, i: usize, state: ReplicaState) -> Result<()> {
        self.states
            .get_mut(i)
            .map(|s| *s = state)
            .ok_or_else(|| Error::invalid(format!("mirror has no replica {i}")))
    }

    /// True when some replica is waiting to be resilvered.
    pub fn needs_resilver(&self) -> bool {
        self.states.iter().any(|s| *s == ReplicaState::Rebuilding)
    }

    /// Active replica indices in read-preference order.
    fn read_order(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for k in 0..n {
            let i = (self.preferred + k) % n;
            if self.states.get(i).copied() == Some(ReplicaState::Active) {
                order.push(i);
            }
        }
        order
    }

    /// Detaches every replica in `failed`, counting the demotions. Only
    /// called when the operation as a whole succeeded on a twin; when
    /// every replica fails together (a whole-machine power cut) states
    /// are left alone so recovery sees the mirror it had.
    fn detach_failed(&mut self, failed: &[usize]) {
        for &i in failed {
            if let Some(s) = self.states.get_mut(i) {
                if *s != ReplicaState::Detached {
                    *s = ReplicaState::Detached;
                    self.mstats.replicas_detached += 1;
                }
            }
        }
    }

    /// Runs `op` against active replicas in preference order, failing
    /// over until one succeeds. On success after failures, the failed
    /// replicas are detached and the survivor becomes preferred.
    fn read_with_failover<T>(
        &mut self,
        mut op: impl FnMut(&mut ResilientDev) -> Result<T>,
    ) -> Result<T> {
        let order = self.read_order();
        if order.is_empty() {
            return Err(Error::device_dead("mirror has no active replica"));
        }
        let mut failed: Vec<usize> = Vec::new();
        let mut last_err: Option<Error> = None;
        for i in order {
            let Some(r) = self.replicas.get_mut(i) else {
                continue;
            };
            match op(r) {
                Ok(v) => {
                    if !failed.is_empty() {
                        self.mstats.failovers += 1;
                        self.detach_failed(&failed);
                    }
                    self.preferred = i;
                    return Ok(v);
                }
                Err(e) => {
                    failed.push(i);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| Error::device_dead("mirror has no active replica")))
    }

    /// Runs `op` against every attached (active or rebuilding) replica.
    /// Succeeds with the slowest completion if at least one replica
    /// accepted the operation; failed replicas are then detached. Fails
    /// without changing any state when every replica failed.
    fn fan_out(
        &mut self,
        mut op: impl FnMut(&mut ResilientDev) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let mut done = self.clock.now();
        let mut successes = 0usize;
        let mut participants = 0usize;
        let mut failed: Vec<usize> = Vec::new();
        let mut last_err: Option<Error> = None;
        for (i, (r, s)) in self.replicas.iter_mut().zip(self.states.iter()).enumerate() {
            if *s == ReplicaState::Detached {
                continue;
            }
            participants += 1;
            match op(r) {
                Ok(t) => {
                    done = done.max(t);
                    successes += 1;
                }
                Err(e) => {
                    failed.push(i);
                    last_err = Some(e);
                }
            }
        }
        if participants == 0 {
            return Err(Error::device_dead("mirror has no attached replica"));
        }
        if successes == 0 {
            return Err(last_err
                .unwrap_or_else(|| Error::device_dead("mirror has no attached replica")));
        }
        if !failed.is_empty() {
            self.detach_failed(&failed);
        }
        if successes < self.replicas.len() {
            self.mstats.degraded_writes += 1;
        }
        Ok(done)
    }

    /// Copies `count` blocks starting at `lba` from a good active replica
    /// onto every rebuilding replica: one vectored read, then, once its
    /// bytes are in, one vectored write per target, and the copy waits
    /// for the writes. Returns the number of blocks copied (0 if nothing
    /// is rebuilding).
    pub fn resilver_extent(&mut self, lba: u64, count: usize) -> Result<u64> {
        if !self.needs_resilver() || count == 0 {
            return Ok(0);
        }
        let mut bufs = vec![PageData::Zero; count];
        let mut done = self.read_with_failover(|r| r.read_blocks(lba, &mut bufs))?;
        self.clock.advance_to(done);
        for (r, s) in self.replicas.iter_mut().zip(self.states.iter()) {
            if *s == ReplicaState::Rebuilding {
                done = done.max(r.write_blocks(lba, &bufs)?);
            }
        }
        self.clock.advance_to(done);
        self.mstats.resilvered_extents += 1;
        self.mstats.resilvered_blocks += count as u64;
        Ok(count as u64)
    }

    /// Runs the resilver durability barrier: flushes every attached
    /// replica so the copied extents are on each platter, and mints the
    /// token [`MirrorDev::promote_rebuilt`] demands. This is the *only*
    /// constructor of [`ResilverBarrier`], so a promotion that skipped
    /// the flush does not typecheck.
    pub fn resilver_barrier(&mut self) -> Result<ResilverBarrier> {
        let done = self.fan_out(|r| r.flush())?;
        self.clock.advance_to(done);
        Ok(ResilverBarrier { _sealed: () })
    }

    /// Promotes every rebuilding replica to active, consuming the proof
    /// that a flush barrier made the copied data durable. Returns how
    /// many were promoted.
    pub fn promote_rebuilt(&mut self, barrier: ResilverBarrier) -> Result<usize> {
        let ResilverBarrier { _sealed: () } = barrier;
        let mut promoted = 0;
        for (r, s) in self.replicas.iter_mut().zip(self.states.iter_mut()) {
            if *s == ReplicaState::Rebuilding && r.powered() {
                *s = ReplicaState::Active;
                promoted += 1;
            }
        }
        Ok(promoted)
    }

    /// Reads every active replica's copy of block `lba` and verifies
    /// each against `verify`. Returns the first passing copy as a
    /// [`GoldenCopy`] — the only license to rewrite the failed replicas
    /// — plus the indices whose copies failed (a read error or a
    /// verification failure). `None` when no replica has a good copy.
    fn acquire_golden(
        &mut self,
        lba: u64,
        verify: &mut dyn FnMut(&PageData) -> bool,
    ) -> Option<(GoldenCopy, Vec<usize>)> {
        let mut golden: Option<GoldenCopy> = None;
        let mut failed: Vec<usize> = Vec::new();
        for (i, (r, s)) in self.replicas.iter_mut().zip(self.states.iter()).enumerate() {
            if *s != ReplicaState::Active {
                continue;
            }
            // Each verdict waits for its copy's bytes.
            let mut buf = PageData::Zero;
            let read = r.read_blocks(lba, std::slice::from_mut(&mut buf));
            read.iter().for_each(|&done| self.clock.advance_to(done));
            match read {
                Ok(_) if verify(&buf) => {
                    if golden.is_none() {
                        golden = Some(GoldenCopy { lba, body: buf });
                    }
                }
                _ => failed.push(i),
            }
        }
        golden.map(|g| (g, failed))
    }

    /// Rewrites the replicas in `failed` from a verified golden copy,
    /// consuming the token and returning its body. Each replica gets the
    /// golden body by reference; none is written into. Replicas that
    /// reject the rewrite are detached (they missed data).
    fn rewrite_from_golden(&mut self, golden: GoldenCopy, failed: &[usize]) -> PageData {
        let GoldenCopy { lba, body } = golden;
        let mut detach: Vec<usize> = Vec::new();
        for &i in failed {
            let Some(r) = self.replicas.get_mut(i) else {
                continue;
            };
            match r.write_blocks(lba, std::slice::from_ref(&body)) {
                Ok(done) => {
                    self.clock.advance_to(done);
                    self.mstats.read_repairs += 1;
                }
                Err(_) => detach.push(i),
            }
        }
        self.detach_failed(&detach);
        body
    }

    /// Read-repair entry point: if any active replica's copy of `lba`
    /// passes `verify`, rewrites the replicas whose copies failed from
    /// that golden copy. Returns the golden body, or `None` when no
    /// replica has a good copy. The two phases are bridged by a
    /// [`GoldenCopy`] token, so a rewrite without a verified source
    /// does not typecheck.
    pub fn repair_block_from_twin(
        &mut self,
        lba: u64,
        verify: &mut dyn FnMut(&PageData) -> bool,
    ) -> Result<Option<PageData>> {
        let Some((golden, failed)) = self.acquire_golden(lba, verify) else {
            return Ok(None);
        };
        Ok(Some(self.rewrite_from_golden(golden, &failed)))
    }
}

/// Proof that [`MirrorDev::resilver_barrier`] flushed every replica:
/// the only value [`MirrorDev::promote_rebuilt`] accepts, consumed by
/// value so one barrier licenses at most one promotion.
///
/// Cannot be forged (private field):
///
/// ```compile_fail
/// let fake = aurora_hw::mirror::ResilverBarrier { _sealed: () };
/// ```
///
/// And a promotion without the barrier does not typecheck:
///
/// ```compile_fail
/// fn promote(m: &mut aurora_hw::MirrorDev) {
///     let _ = m.promote_rebuilt(); // missing the `ResilverBarrier` argument
/// }
/// ```
#[must_use = "the barrier token exists to be consumed by promote_rebuilt"]
#[derive(Debug)]
pub struct ResilverBarrier {
    _sealed: (),
}

/// A block copy that passed content verification — the only source the
/// read-repair rewrite phase accepts, so unverified bytes can never be
/// written over a twin.
#[derive(Debug)]
pub struct GoldenCopy {
    lba: u64,
    body: PageData,
}

impl BlockDev for MirrorDev {
    fn info(&self) -> &DevInfo {
        &self.info
    }

    fn stats(&self) -> &DevStats {
        &self.stats
    }

    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime> {
        // The per-replica ResilientDev guarantees all-or-error extent
        // reads (failed attempts leave the bodies zeroed), so failing
        // over a whole extent to a twin never mixes replicas.
        let done = self.read_with_failover(|r| r.read_blocks(lba, bufs))?;
        self.stats.reads += 1;
        self.stats.bytes_read += bufs.iter().map(|b| b.byte_len() as u64).sum::<u64>();
        Ok(done)
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        // Every replica keeps the same bodies by reference.
        let done = self.fan_out(|r| r.write_blocks(lba, blocks))?;
        self.stats.writes += 1;
        self.stats.bytes_written += blocks.iter().map(|b| b.byte_len() as u64).sum::<u64>();
        Ok(done)
    }

    fn flush(&mut self) -> Result<SimTime> {
        let done = self.fan_out(|r| r.flush())?;
        self.stats.flushes += 1;
        Ok(done)
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let done = self.read_with_failover(|r| r.charge_read_timing(nbytes))?;
        self.stats.reads += 1;
        self.stats.bytes_read += nbytes;
        Ok(done)
    }

    fn discard(&mut self, lba: u64, count: u64) {
        // Every replica, whatever its state: a detached or rebuilding one
        // must not keep a body the store freed either.
        for r in self.replicas.iter_mut() {
            r.discard(lba, count);
        }
        self.stats.blocks_discarded += count;
    }

    fn power_fail(&mut self) {
        for r in self.replicas.iter_mut() {
            r.power_fail();
        }
    }

    fn power_on(&mut self) {
        // Replica states deliberately survive the power cycle: a replica
        // that was rebuilding stays rebuilding (its contents are still
        // partial), a detached replica stays detached.
        for r in self.replicas.iter_mut() {
            r.power_on();
        }
    }

    fn powered(&self) -> bool {
        self.replicas
            .iter()
            .zip(self.states.iter())
            .any(|(r, s)| *s == ReplicaState::Active && r.powered())
    }

    fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        // Whole-machine semantics: every replica sees the same schedule,
        // so a power cut at write N kills the machine, not one replica.
        // Per-replica faults go through `install_replica_fault_plan`.
        for r in self.replicas.iter_mut() {
            r.install_fault_plan(plan.clone());
        }
    }

    fn last_fault_lba(&self) -> Option<u64> {
        // Mirrored replicas share one LBA space, so whichever replica's
        // plan fired names the block.
        self.replicas.iter().find_map(|r| r.last_fault_lba())
    }

    fn corrupted_lbas(&self) -> Vec<u64> {
        // A block any replica lied about.
        let lied = self.replicas.iter().flat_map(|r| r.corrupted_lbas());
        lied.collect::<BTreeSet<u64>>().into_iter().collect()
    }

    fn health(&self) -> DevHealth {
        if !self.powered() {
            return DevHealth::Dead;
        }
        if self.is_degraded() {
            DevHealth::Degraded
        } else {
            DevHealth::Healthy
        }
    }

    fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for r in &self.replicas {
            let s = r.retry_stats();
            total.writes_retried += s.writes_retried;
            total.reads_retried += s.reads_retried;
            total.transient_absorbed += s.transient_absorbed;
            total.failures_surfaced += s.failures_surfaced;
        }
        total
    }

    fn repair_block(
        &mut self,
        lba: u64,
        verify: &mut dyn FnMut(&PageData) -> bool,
    ) -> Result<Option<PageData>> {
        self.repair_block_from_twin(lba, verify)
    }

    fn as_mirror(&self) -> Option<&MirrorDev> {
        Some(self)
    }

    fn as_mirror_mut(&mut self) -> Option<&mut MirrorDev> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{body, read, write};
    use crate::dev::ModelDev;
    use crate::fault::FaultPlan;
    use crate::BLOCK_SIZE;

    fn mirror(width: usize, blocks: u64) -> MirrorDev {
        let clock = SimClock::new();
        let members: Vec<Box<dyn BlockDev>> = (0..width)
            .map(|i| {
                Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), blocks))
                    as Box<dyn BlockDev>
            })
            .collect();
        MirrorDev::new(members).unwrap()
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn empty_mirror_is_rejected() {
        assert!(MirrorDev::new(Vec::new()).is_err());
    }

    #[test]
    fn writes_land_on_every_replica_and_roundtrip() {
        let mut m = mirror(3, 128);
        let data = block(0xA5);
        write(&mut m, 7, &data).unwrap();
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        let mut buf = block(0);
        read(&mut m, 7, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(m.active_width(), 3);
        assert_eq!(m.health(), DevHealth::Healthy);
    }

    #[test]
    fn replica_death_mid_write_degrades_but_survives() {
        let mut m = mirror(2, 128);
        // Replica 0 dies at its 2nd write; replica 1 keeps going.
        m.install_replica_fault_plan(0, FaultPlan::power_cut(2)).unwrap();
        write(&mut m, 1, &block(0x11)).unwrap();
        write(&mut m, 2, &block(0x22)).unwrap();
        write(&mut m, 3, &block(0x33)).unwrap();
        assert_eq!(m.replica_state(0), Some(ReplicaState::Detached));
        assert_eq!(m.active_width(), 1);
        assert_eq!(m.health(), DevHealth::Degraded);
        assert!(m.mirror_stats().degraded_writes >= 1);
        // All three blocks still readable from the survivor.
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        for (lba, fill) in [(1, 0x11u8), (2, 0x22), (3, 0x33)] {
            let mut buf = block(0);
            read(&mut m, lba, &mut buf).unwrap();
            assert_eq!(buf, block(fill), "lba {lba}");
        }
    }

    #[test]
    fn read_fails_over_to_twin_and_detaches_the_failed_replica() {
        let mut m = mirror(2, 128);
        write(&mut m, 5, &block(0x5A)).unwrap();
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        // Preferred replica (0) loses power on its next read.
        m.install_replica_fault_plan(0, FaultPlan::power_cut_on_read(1)).unwrap();
        let mut buf = block(0);
        read(&mut m, 5, &mut buf).unwrap();
        assert_eq!(buf, block(0x5A));
        assert_eq!(m.mirror_stats().failovers, 1);
        assert_eq!(m.replica_state(0), Some(ReplicaState::Detached));
        // Subsequent reads go straight to the survivor.
        let mut buf = block(0);
        read(&mut m, 5, &mut buf).unwrap();
        assert_eq!(buf, block(0x5A));
    }

    #[test]
    fn whole_machine_power_cut_keeps_replica_states() {
        let mut m = mirror(2, 128);
        write(&mut m, 1, &block(0xBB)).unwrap();
        // Same plan on every replica: the machine dies at the next write.
        m.install_fault_plan(FaultPlan::power_cut(1));
        assert!(write(&mut m, 2, &block(0xCC)).is_err());
        assert_eq!(m.health(), DevHealth::Dead);
        assert!(!m.powered());
        // No replica was singled out: both stay Active for recovery.
        assert_eq!(m.replica_state(0), Some(ReplicaState::Active));
        assert_eq!(m.replica_state(1), Some(ReplicaState::Active));
        m.power_on();
        assert!(m.powered());
    }

    #[test]
    fn repair_block_rewrites_a_corrupt_replica_from_its_twin() {
        let mut m = mirror(2, 128);
        let good = block(0x77);
        write(&mut m, 9, &good).unwrap();
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        // Replica 0 serves corrupted reads of every block.
        m.install_replica_fault_plan(0, FaultPlan::corrupt_read_blocks(0, u64::MAX, 100, 3))
            .unwrap();
        let expect = body(&good);
        let golden = m
            .repair_block_from_twin(9, &mut |b: &PageData| b == &expect)
            .unwrap()
            .expect("twin had a good copy");
        assert_eq!(golden, expect);
        assert_eq!(m.mirror_stats().read_repairs, 1);
        // The rewrite went through; disarm the read corruption and check.
        m.install_replica_fault_plan(0, FaultPlan::default()).unwrap();
        let mut buf = block(0);
        read(&mut m, 9, &mut buf).unwrap();
        assert_eq!(buf, good);
        // Both replicas still active: corruption was healed, not fatal.
        assert_eq!(m.active_width(), 2);
    }

    #[test]
    fn resilver_rebuilds_a_revived_replica() {
        let mut m = mirror(2, 256);
        for lba in 0..8u64 {
            write(&mut m, lba, &block(lba as u8 + 1)).unwrap();
        }
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        m.kill_replica(0).unwrap();
        // Writes while degraded only land on replica 1.
        write(&mut m, 8, &block(0x99)).unwrap();
        m.revive_replica(0).unwrap();
        assert_eq!(m.replica_state(0), Some(ReplicaState::Rebuilding));
        assert!(m.needs_resilver());
        // A rebuilding replica receives new writes...
        write(&mut m, 9, &block(0xAA)).unwrap();
        // ...but serves no reads until promoted.
        assert_eq!(m.active_width(), 1);
        let copied = m.resilver_extent(0, 10).unwrap();
        assert_eq!(copied, 10);
        let barrier = m.resilver_barrier().unwrap();
        assert_eq!(m.promote_rebuilt(barrier).unwrap(), 1);
        assert_eq!(m.active_width(), 2);
        assert!(!m.needs_resilver());
        // Kill the twin: the rebuilt replica must now serve everything.
        m.kill_replica(1).unwrap();
        for (lba, fill) in (0..8u64).map(|l| (l, l as u8 + 1)).chain([(8, 0x99), (9, 0xAA)]) {
            let mut buf = block(0);
            read(&mut m, lba, &mut buf).unwrap();
            assert_eq!(buf, block(fill), "lba {lba} after resilver");
        }
    }

    #[test]
    fn rebuilding_replica_survives_power_cycle_without_promotion() {
        let mut m = mirror(2, 128);
        write(&mut m, 0, &block(0x42)).unwrap();
        m.kill_replica(0).unwrap();
        m.revive_replica(0).unwrap();
        assert_eq!(m.replica_state(0), Some(ReplicaState::Rebuilding));
        // Whole-machine crash mid-resilver: on power-up the replica is
        // still rebuilding — never silently promoted.
        m.power_fail();
        m.power_on();
        assert_eq!(m.replica_state(0), Some(ReplicaState::Rebuilding));
        assert!(m.needs_resilver());
        assert_eq!(m.health(), DevHealth::Degraded);
    }

    #[test]
    fn vectored_ops_mirror_across_replicas() {
        let mut m = mirror(3, 128);
        let bufs: Vec<PageData> = (1..=4u8).map(|i| body(&block(i))).collect();
        let done = m.write_blocks(10, &bufs).unwrap();
        m.clock().advance_to(done);
        let done = m.flush().unwrap();
        m.clock().advance_to(done);
        // Kill two replicas; the third serves the whole extent.
        m.kill_replica(0).unwrap();
        m.kill_replica(1).unwrap();
        let mut out = vec![PageData::Zero; 4];
        m.read_blocks(10, &mut out).unwrap();
        assert_eq!(out, bufs);
    }
}
