//! Retry, backoff and device-health tracking.
//!
//! Real NVMe devices bounce requests transiently — firmware GC pauses,
//! thermal throttling, link resets — and a storage stack that treats
//! every `EIO` as fatal aborts checkpoints it could have completed. This
//! module classifies errors into *transient* (worth retrying) and
//! *permanent* (power loss, corruption, out of space), and wraps any
//! [`BlockDev`] in a [`ResilientDev`] that absorbs transient faults with
//! bounded exponential backoff.
//!
//! Backoff delays are charged to the device's [`SimClock`] — never
//! wall-clock — and jitter is derived from `mix64`, so a run with a given
//! fault schedule is exactly reproducible. The backoff is the issuer's
//! own wait before it resubmits, so it is the one clock charge a data
//! call can make, and only after a transient fault bounced a request.
//!
//! The wrapper also tracks health: consecutive failures mark the device
//! [`DevHealth::Degraded`]; power loss or a dead inner device marks it
//! [`DevHealth::Dead`] until power returns. The checkpoint pipeline reads
//! this to decide between retrying, degrading to a full checkpoint, or
//! aborting while the previous snapshot stays intact.

use aurora_sim::error::{Error, ErrorKind, Result};
use aurora_sim::rng::mix64;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::{PageData, SimClock};
use std::sync::Arc;

use crate::dev::{BlockDev, DevInfo, DevStats};
use crate::fault::FaultPlan;

/// Transient-vs-permanent classification of an [`ErrorKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Worth resubmitting the same request.
    Transient,
    /// Retrying cannot cure it; surface to the caller.
    Permanent,
}

/// Classifies every error kind for the retry layer.
///
/// `Io` models a request the device bounced (it may succeed on retry);
/// `WouldBlock` models a momentarily full queue. Everything else —
/// power loss, corruption, out-of-space, invalid arguments — will not be
/// cured by resubmitting the same request.
///
/// The match is deliberately exhaustive with no `_` arm and `aurora-lint`
/// keeps it that way: adding an `ErrorKind` variant without deciding its
/// class is a compile error, never a silent fall-through.
pub fn classify(kind: ErrorKind) -> FaultClass {
    match kind {
        ErrorKind::Io | ErrorKind::WouldBlock => FaultClass::Transient,
        ErrorKind::NotFound
        | ErrorKind::AlreadyExists
        | ErrorKind::InvalidArgument
        | ErrorKind::BadDescriptor
        | ErrorKind::NotPermitted
        | ErrorKind::NoMemory
        | ErrorKind::NoSpace
        | ErrorKind::Fault
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected
        | ErrorKind::NotEmpty
        | ErrorKind::IsDirectory
        | ErrorKind::NotDirectory
        | ErrorKind::CrossDevice
        | ErrorKind::DeviceDead
        | ErrorKind::Corrupt
        | ErrorKind::BadImage
        | ErrorKind::Unsupported
        | ErrorKind::Internal => FaultClass::Permanent,
    }
}

/// Whether an error is worth retrying at the device layer.
pub fn is_transient(kind: ErrorKind) -> bool {
    classify(kind) == FaultClass::Transient
}

/// Device health as judged by the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DevHealth {
    /// Operating normally.
    #[default]
    Healthy,
    /// Recent consecutive failures; still accepting requests.
    Degraded,
    /// Powered off or failed permanently; requests will not succeed.
    Dead,
}

impl DevHealth {
    /// Short lowercase label for logs and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            DevHealth::Healthy => "healthy",
            DevHealth::Degraded => "degraded",
            DevHealth::Dead => "dead",
        }
    }
}

/// Counters kept by the resilience layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Write retry attempts issued (each resubmission counts once).
    pub writes_retried: u64,
    /// Read retry attempts issued (each resubmission counts once).
    pub reads_retried: u64,
    /// Transient faults masked by an eventually-successful retry.
    pub transient_absorbed: u64,
    /// Errors returned to the caller after retries were exhausted or the
    /// error was permanent.
    pub failures_surfaced: u64,
    /// Current run of consecutive failed requests.
    pub consecutive_failures: u32,
}

/// Bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (ns); doubles per attempt.
    pub base_backoff_ns: u64,
    /// Backoff ceiling (ns).
    pub max_backoff_ns: u64,
    /// Seed for the jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 4 attempts, 50 µs base, 10 ms ceiling: enough to ride out a
    /// several-write transient window without stalling a checkpoint
    /// noticeably.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 50_000,
            max_backoff_ns: 10_000_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based) of request `salt`.
    ///
    /// Exponential in the attempt with a ±50% deterministic jitter, so
    /// retries from different requests decorrelate without any shared
    /// RNG state.
    pub fn backoff_ns(&self, attempt: u32, salt: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_backoff_ns
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_ns);
        // Jitter in [50%, 150%) of the exponential value.
        let j = mix64(self.jitter_seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt));
        exp / 2 + j % exp.max(1)
    }
}

/// How many consecutive failures flip a device to [`DevHealth::Degraded`].
const DEGRADE_THRESHOLD: u32 = 3;

/// A [`BlockDev`] wrapper that retries transient write/flush failures
/// with backoff and tracks device health.
pub struct ResilientDev {
    inner: Box<dyn BlockDev>,
    policy: RetryPolicy,
    health: DevHealth,
    retry_stats: RetryStats,
    /// Monotonic request counter, used as the jitter salt.
    requests: u64,
}

impl ResilientDev {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: Box<dyn BlockDev>, policy: RetryPolicy) -> Self {
        ResilientDev {
            inner,
            policy,
            health: DevHealth::Healthy,
            retry_stats: RetryStats::default(),
            requests: 0,
        }
    }

    /// Wraps `inner` with the default policy.
    pub fn with_defaults(inner: Box<dyn BlockDev>) -> Self {
        ResilientDev::new(inner, RetryPolicy::default())
    }

    fn note_success(&mut self, retries_used: u32) {
        if retries_used > 0 {
            self.retry_stats.transient_absorbed += u64::from(retries_used);
        }
        self.retry_stats.consecutive_failures = 0;
        if self.health == DevHealth::Degraded {
            self.health = DevHealth::Healthy;
        }
    }

    fn note_failure(&mut self, err: &Error) {
        self.retry_stats.failures_surfaced += 1;
        self.retry_stats.consecutive_failures =
            self.retry_stats.consecutive_failures.saturating_add(1);
        if err.kind() == ErrorKind::DeviceDead || !self.inner.powered() {
            self.health = DevHealth::Dead;
        } else if self.retry_stats.consecutive_failures >= DEGRADE_THRESHOLD {
            self.health = DevHealth::Degraded;
        }
    }

    /// Runs `op` against the inner device with retry/backoff. Backoff is
    /// charged to the device clock between attempts. `is_read` routes the
    /// per-resubmission counter to [`RetryStats::reads_retried`].
    fn with_retries<T>(
        &mut self,
        is_read: bool,
        mut op: impl FnMut(&mut dyn BlockDev) -> Result<T>,
    ) -> Result<T> {
        self.requests += 1;
        let salt = self.requests;
        let mut attempt: u32 = 1;
        loop {
            match op(self.inner.as_mut()) {
                Ok(v) => {
                    self.note_success(attempt - 1);
                    return Ok(v);
                }
                Err(e) if is_transient(e.kind()) && attempt < self.policy.max_attempts => {
                    if is_read {
                        self.retry_stats.reads_retried += 1;
                    } else {
                        self.retry_stats.writes_retried += 1;
                    }
                    let backoff = self.policy.backoff_ns(attempt, salt);
                    self.inner
                        .clock()
                        .charge(SimDuration::from_nanos(backoff));
                    attempt += 1;
                }
                Err(e) => {
                    self.note_failure(&e);
                    return Err(e);
                }
            }
        }
    }
}

impl BlockDev for ResilientDev {
    fn info(&self) -> &DevInfo {
        self.inner.info()
    }

    fn stats(&self) -> &DevStats {
        self.inner.stats()
    }

    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime> {
        // One retry scope per extent: reads are idempotent and the model
        // device bounces a transient extent atomically (nothing is
        // filled), so resubmitting the whole extent is safe. Corruption
        // is *not* retried here: the model flips bits in the returned
        // data of a successful read, so detection belongs to the
        // content-hash verification above the device layer.
        //
        // All-or-error contract (see `BlockDev::read_blocks`): zero
        // every body on failure, whatever the device behind this layer
        // left in them, so no caller can mistake a partially-filled
        // extent for data — and so a mirror failing over to a twin
        // starts from clean bodies.
        let r = self.with_retries(true, |d| d.read_blocks(lba, bufs));
        if r.is_err() {
            bufs.fill(PageData::Zero);
        }
        r
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        // One retry scope per extent: the model device bounces a
        // transient extent atomically (nothing lands), so resubmitting
        // the whole extent is idempotent.
        self.with_retries(false, |d| d.write_blocks(lba, blocks))
    }

    fn flush(&mut self) -> Result<SimTime> {
        self.with_retries(false, |d| d.flush())
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        self.inner.charge_read_timing(nbytes)
    }

    fn discard(&mut self, lba: u64, count: u64) {
        self.inner.discard(lba, count);
    }

    fn power_fail(&mut self) {
        self.inner.power_fail();
        self.health = DevHealth::Dead;
    }

    fn power_on(&mut self) {
        self.inner.power_on();
        self.health = DevHealth::Healthy;
        self.retry_stats.consecutive_failures = 0;
    }

    fn powered(&self) -> bool {
        self.inner.powered()
    }

    fn clock(&self) -> &Arc<SimClock> {
        self.inner.clock()
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.install_fault_plan(plan);
    }

    fn last_fault_lba(&self) -> Option<u64> {
        self.inner.last_fault_lba()
    }

    fn corrupted_lbas(&self) -> Vec<u64> {
        self.inner.corrupted_lbas()
    }

    fn health(&self) -> DevHealth {
        // Dead is sticky until power returns, even if the store has not
        // issued a request since the failure.
        if !self.inner.powered() {
            DevHealth::Dead
        } else {
            self.health
        }
    }

    fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    fn repair_block(
        &mut self,
        lba: u64,
        verify: &mut dyn FnMut(&PageData) -> bool,
    ) -> Result<Option<PageData>> {
        // No retry wrapper: a mirror underneath runs its own per-replica
        // retries, and repair is already a recovery path.
        self.inner.repair_block(lba, verify)
    }

    fn as_mirror(&self) -> Option<&crate::mirror::MirrorDev> {
        self.inner.as_mirror()
    }

    fn as_mirror_mut(&mut self) -> Option<&mut crate::mirror::MirrorDev> {
        self.inner.as_mirror_mut()
    }
}

impl core::fmt::Debug for ResilientDev {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ResilientDev")
            .field("name", &self.inner.info().name)
            .field("health", &self.health)
            .field("retry_stats", &self.retry_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{body, read, write};
    use crate::dev::ModelDev;
    use crate::fault::FaultRates;
    use crate::BLOCK_SIZE;

    fn resilient(blocks: u64) -> ResilientDev {
        let clock = SimClock::new();
        ResilientDev::with_defaults(Box::new(ModelDev::nvme(clock, "nvme0", blocks)))
    }

    #[test]
    fn classification_matches_retryability() {
        assert!(is_transient(ErrorKind::Io));
        assert!(is_transient(ErrorKind::WouldBlock));
        assert!(!is_transient(ErrorKind::DeviceDead));
        assert!(!is_transient(ErrorKind::Corrupt));
        assert!(!is_transient(ErrorKind::NoSpace));
        // The only transient kinds are the two the device model bounces;
        // everything else must surface so callers can degrade or abort.
        assert_eq!(classify(ErrorKind::Io), FaultClass::Transient);
        assert_eq!(classify(ErrorKind::Internal), FaultClass::Permanent);
        assert_eq!(classify(ErrorKind::BadImage), FaultClass::Permanent);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_ns: 1000,
            max_backoff_ns: 8000,
            jitter_seed: 3,
        };
        // Jitter keeps each value in [exp/2, 3*exp/2).
        for attempt in 1..8 {
            let exp = (1000u64 << (attempt - 1)).min(8000);
            let b = p.backoff_ns(attempt, 17);
            assert!(b >= exp / 2 && b < exp + exp / 2, "attempt {attempt}: {b}");
        }
        // Deterministic for the same (attempt, salt).
        assert_eq!(p.backoff_ns(3, 17), p.backoff_ns(3, 17));
    }

    #[test]
    fn transient_faults_absorbed_by_retry() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::transient(1, 2));
        // Two bounces, then success — the caller never sees an error.
        write(&mut d, 0, &vec![0x5Au8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.retry_stats().writes_retried, 2);
        assert_eq!(d.retry_stats().transient_absorbed, 2);
        assert_eq!(d.retry_stats().failures_surfaced, 0);
        assert_eq!(d.health(), DevHealth::Healthy);
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0x5Au8; BLOCK_SIZE]);
    }

    #[test]
    fn backoff_charges_sim_time() {
        let mut d = resilient(64);
        let clock = d.clock().clone();
        d.install_fault_plan(FaultPlan::transient(1, 1));
        let before = clock.now();
        write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let elapsed = clock.now().since(before);
        // At least the base backoff's jitter floor.
        assert!(elapsed.as_nanos() >= 25_000, "backoff charged: {elapsed:?}");
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let mut d = resilient(64);
        // Longer than max_attempts; the error escapes.
        d.install_fault_plan(FaultPlan::transient(1, 100));
        let err = write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert_eq!(d.retry_stats().writes_retried, 3);
        assert_eq!(d.retry_stats().failures_surfaced, 1);
    }

    #[test]
    fn repeated_failures_degrade_then_recover() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::transient(1, 1000));
        for _ in 0..DEGRADE_THRESHOLD {
            assert!(write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).is_err());
        }
        assert_eq!(d.health(), DevHealth::Degraded);
        // Clear the plan: the next success restores health.
        d.install_fault_plan(FaultPlan::default());
        write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.health(), DevHealth::Healthy);
        assert_eq!(d.retry_stats().consecutive_failures, 0);
    }

    #[test]
    fn transient_extent_fault_absorbed_by_retry() {
        let mut d = resilient(64);
        // The second per-block fault consultation bounces: mid-extent.
        d.install_fault_plan(FaultPlan::transient(2, 1));
        let bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        let done = d.write_blocks(0, &refs).unwrap();
        d.clock().advance_to(done);
        assert_eq!(d.retry_stats().writes_retried, 1);
        assert_eq!(d.retry_stats().failures_surfaced, 0);
        let flushed = d.flush().unwrap();
        d.clock().advance_to(flushed);
        for (i, expect) in bufs.iter().enumerate() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            read(&mut d, i as u64, &mut buf).unwrap();
            assert_eq!(&buf, expect, "block {i} after extent retry");
        }
    }

    #[test]
    fn extent_power_cut_surfaces_and_marks_dead() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::power_cut(3));
        let bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        let err = d.write_blocks(0, &refs).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeviceDead);
        assert_eq!(d.retry_stats().writes_retried, 0);
        assert_eq!(d.health(), DevHealth::Dead);
    }

    #[test]
    fn power_cut_is_permanent_and_marks_dead() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::power_cut(1));
        let err = write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeviceDead);
        // No retries burned on a permanent fault.
        assert_eq!(d.retry_stats().writes_retried, 0);
        assert_eq!(d.health(), DevHealth::Dead);
        d.power_on();
        assert_eq!(d.health(), DevHealth::Healthy);
    }

    #[test]
    fn transient_read_faults_absorbed_by_retry() {
        let mut d = resilient(64);
        write(&mut d, 0, &vec![0x5Au8; BLOCK_SIZE]).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        d.install_fault_plan(FaultPlan::transient_reads(1, 2));
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0x5Au8; BLOCK_SIZE]);
        assert_eq!(d.retry_stats().reads_retried, 2);
        assert_eq!(d.retry_stats().writes_retried, 0);
        assert_eq!(d.retry_stats().transient_absorbed, 2);
        assert_eq!(d.health(), DevHealth::Healthy);
    }

    #[test]
    fn transient_read_extent_fault_absorbed_by_retry() {
        let mut d = resilient(64);
        let bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        let done = d.write_blocks(0, &refs).unwrap();
        d.clock().advance_to(done);
        let flushed = d.flush().unwrap();
        d.clock().advance_to(flushed);
        // Mid-extent bounce on the second per-block consultation.
        d.install_fault_plan(FaultPlan::transient_reads(2, 1));
        let mut out = vec![PageData::Zero; 4];
        d.read_blocks(0, &mut out).unwrap();
        assert_eq!(out, refs);
        assert_eq!(d.retry_stats().reads_retried, 1);
        assert_eq!(d.retry_stats().failures_surfaced, 0);
    }

    #[test]
    fn read_power_cut_surfaces_and_marks_dead() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::power_cut_on_read(1));
        let mut buf = vec![0u8; BLOCK_SIZE];
        let err = read(&mut d, 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeviceDead);
        assert_eq!(d.retry_stats().reads_retried, 0);
        assert_eq!(d.health(), DevHealth::Dead);
    }

    #[test]
    fn exhausted_read_retries_surface_the_error() {
        let mut d = resilient(64);
        d.install_fault_plan(FaultPlan::transient_reads(1, 100));
        let mut buf = vec![0u8; BLOCK_SIZE];
        let err = read(&mut d, 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert_eq!(d.retry_stats().reads_retried, 3);
        assert_eq!(d.retry_stats().failures_surfaced, 1);
    }

    #[test]
    fn randomized_flaky_device_still_makes_progress() {
        let mut d = resilient(4096);
        let rates = FaultRates {
            transient_ppm: 120_000,
            latency_spike_ppm: 30_000,
            ..FaultRates::default()
        };
        d.install_fault_plan(FaultPlan::random(11, rates));
        let mut ok = 0u32;
        for i in 0..500u64 {
            if write(&mut d, i % 4096, &vec![i as u8; BLOCK_SIZE]).is_ok() {
                ok += 1;
            }
        }
        // With 12% per-attempt failure and 4 attempts, nearly every write
        // succeeds.
        assert!(ok >= 495, "only {ok}/500 writes succeeded");
        assert!(d.retry_stats().transient_absorbed > 0);
    }

    /// Writes 4 distinct blocks, flushes, and returns their contents.
    fn seed_extent(d: &mut ResilientDev) -> Vec<Vec<u8>> {
        let bufs: Vec<Vec<u8>> = (1..=4u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        let done = d.write_blocks(0, &refs).unwrap();
        d.clock().advance_to(done);
        let flushed = d.flush().unwrap();
        d.clock().advance_to(flushed);
        bufs
    }

    #[test]
    fn failed_extent_read_leaves_no_partial_buffers() {
        // All-or-error contract: a mid-extent fault that exhausts the
        // retry budget must not leave buffers 0..n-1 filled with real
        // data — callers treat Err as "nothing was read".
        let mut d = resilient(64);
        seed_extent(&mut d);
        // The 3rd per-block consultation bounces on every one of the 4
        // attempts, so the whole extent fails after retries.
        d.install_fault_plan(FaultPlan::transient_reads(3, 8));
        let mut out = vec![body(&[0x5Au8; BLOCK_SIZE]); 4];
        assert!(d.read_blocks(0, &mut out).is_err());
        for (i, b) in out.iter().enumerate() {
            assert!(
                b.is_zero(),
                "buffer {i} holds data after a failed extent read"
            );
        }
        assert!(d.retry_stats().failures_surfaced >= 1);
    }

    #[test]
    fn power_cut_mid_extent_read_leaves_no_partial_buffers() {
        let mut d = resilient(64);
        seed_extent(&mut d);
        // Power dies at the 2nd per-block consultation of the extent.
        d.install_fault_plan(FaultPlan::power_cut_on_read(2));
        let mut out = vec![body(&[0xA5u8; BLOCK_SIZE]); 4];
        let err = d.read_blocks(0, &mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeviceDead);
        assert_eq!(d.health(), DevHealth::Dead);
        for (i, b) in out.iter().enumerate() {
            assert!(
                b.is_zero(),
                "buffer {i} holds data after a power-cut extent read"
            );
        }
    }
}
