//! Fault-injection plans for crash-consistency and resilience testing.
//!
//! The object store's recovery path (dual superblocks, CRC-protected
//! journal records, torn-tail tolerance) and the checkpoint pipeline's
//! retry/degradation machinery only earn trust if they are exercised
//! against real failures. A [`FaultPlan`] is installed on a device and
//! decides, per written block, whether power is cut (optionally tearing
//! the interrupted block), a bit is silently corrupted, the write fails
//! with a transient I/O error, or the device stalls. Ordinals count
//! blocks: the `nth` write (or read) is the nth block written (or read)
//! since installation, whatever extent request carried it.
//!
//! Plans are **stateless**: the decision for the `nth` write is a pure
//! function of the plan, so replaying the same schedule against the same
//! workload reproduces the same failure — the property the seeded crash
//! campaign (`aurora-core::campaign`) is built on. Randomized schedules
//! ([`FaultPlan::random`]) derive every decision from `mix64(seed ^ nth)`
//! rather than mutating RNG state.

use aurora_sim::rng::mix64;

/// What happens to one written block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The write proceeds normally.
    None,
    /// Power is cut during this write; only `torn_bytes` of it land.
    PowerCut {
        /// Bytes of the interrupted write that reach stable media.
        torn_bytes: usize,
    },
    /// A single bit of the written data is flipped silently.
    CorruptBit {
        /// Byte offset (taken modulo the write length).
        byte: usize,
        /// Bit index within the byte (taken modulo 8).
        bit: u8,
    },
    /// The write fails with a transient I/O error; no data lands and the
    /// device stays up. A retry of the same write may succeed.
    TransientError,
    /// The write succeeds but the device stalls for `extra_ns` first
    /// (firmware GC pause, link retraining, thermal throttle).
    LatencySpike {
        /// Extra service delay in nanoseconds.
        extra_ns: u64,
    },
}

/// Corruption scoped to a block region: every write that starts inside
/// `[start_lba, end_lba)` has one bit flipped. Models a bad flash die or
/// a damaged region of media rather than a single cosmic-ray event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRegion {
    /// First affected block.
    pub start_lba: u64,
    /// One past the last affected block.
    pub end_lba: u64,
    /// Byte offset flipped (taken modulo the write length).
    pub byte: usize,
    /// Bit index within the byte.
    pub bit: u8,
}

/// Per-million fault probabilities for a randomized schedule.
///
/// Each write draws independently per fault class; a draw below the
/// class's rate triggers that fault. Power cuts are checked first, then
/// transient errors, corruption, and latency spikes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Probability (ppm) that a write cuts power.
    pub power_cut_ppm: u32,
    /// Probability (ppm) that a write fails transiently.
    pub transient_ppm: u32,
    /// Probability (ppm) that a write is silently corrupted.
    pub corrupt_ppm: u32,
    /// Probability (ppm) that a write hits a latency spike.
    pub latency_spike_ppm: u32,
}

impl FaultRates {
    /// A profile of a flaky-but-honest device: frequent transient errors
    /// and stalls, occasional power loss, no silent corruption.
    pub fn flaky() -> Self {
        FaultRates {
            power_cut_ppm: 20_000,     // 2%
            transient_ppm: 150_000,    // 15%
            corrupt_ppm: 0,
            latency_spike_ppm: 50_000, // 5%
        }
    }

    /// A profile of failing media: everything `flaky` does, plus silent
    /// corruption the CRC/scrub machinery must catch.
    pub fn hostile() -> Self {
        FaultRates {
            power_cut_ppm: 20_000,
            transient_ppm: 150_000,
            corrupt_ppm: 10_000, // 1%
            latency_spike_ppm: 50_000,
        }
    }
}

/// A seeded randomized fault schedule. Stateless: write `n` always
/// resolves to the same action for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFaults {
    /// Seed mixed into every per-write draw.
    pub seed: u64,
    /// Per-class fault probabilities.
    pub rates: FaultRates,
}

/// Domain-separation constants for the per-class hash draws, so the
/// classes trigger independently rather than on the same writes.
const DRAW_POWER_CUT: u64 = 0x9e37_79b9_7f4a_7c15;
const DRAW_TRANSIENT: u64 = 0xbf58_476d_1ce4_e5b9;
const DRAW_CORRUPT: u64 = 0x94d0_49bb_1331_11eb;
const DRAW_LATENCY: u64 = 0x2545_f491_4f6c_dd1d;
const DRAW_PARAMS: u64 = 0xd6e8_feb8_6659_fd93;

impl RandomFaults {
    fn draw(&self, nth: u64, class: u64) -> u64 {
        mix64(self.seed ^ nth.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ class)
    }

    fn triggers(&self, nth: u64, class: u64, ppm: u32) -> bool {
        ppm > 0 && self.draw(nth, class) % 1_000_000 < u64::from(ppm)
    }

    /// Resolves the action for the `nth` write.
    pub fn action_for_write(&self, nth: u64) -> FaultAction {
        let params = self.draw(nth, DRAW_PARAMS);
        if self.triggers(nth, DRAW_POWER_CUT, self.rates.power_cut_ppm) {
            // Tear anywhere in the first 4 KiB of the interrupted write.
            return FaultAction::PowerCut {
                torn_bytes: (params % 4096) as usize,
            };
        }
        if self.triggers(nth, DRAW_TRANSIENT, self.rates.transient_ppm) {
            return FaultAction::TransientError;
        }
        if self.triggers(nth, DRAW_CORRUPT, self.rates.corrupt_ppm) {
            return FaultAction::CorruptBit {
                byte: (params % 4096) as usize,
                bit: (params >> 13) as u8 % 8,
            };
        }
        if self.triggers(nth, DRAW_LATENCY, self.rates.latency_spike_ppm) {
            // 0.1–6.5 ms stall: firmware GC pause territory.
            return FaultAction::LatencySpike {
                extra_ns: 100_000 + (params % 64) * 100_000,
            };
        }
        FaultAction::None
    }
}

/// A deterministic fault-injection plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Cut power on the Nth write (1-based) after installation.
    pub power_cut_on_write: Option<u64>,
    /// Bytes of the interrupted write that land (torn write). Only
    /// meaningful with `power_cut_on_write`.
    pub torn_bytes: usize,
    /// Corrupt one bit of the Nth write (1-based).
    pub corrupt_on_write: Option<(u64, usize, u8)>,
    /// Fail writes `first..first + count` (1-based) with transient I/O
    /// errors; writes after the window succeed again.
    pub transient_window: Option<(u64, u64)>,
    /// Stall writes `first..first + count` (1-based) by `extra_ns` each:
    /// `(first, count, extra_ns)`.
    pub latency_window: Option<(u64, u64, u64)>,
    /// Corrupt every write landing in a block region.
    pub corrupt_region: Option<CorruptRegion>,
    /// Seeded randomized schedule, consulted after the deterministic
    /// fields above.
    pub random: Option<RandomFaults>,
    /// Cut power on the Nth *read* (1-based): the restore pipeline's
    /// mid-page-in crash. No media changes — reads never mutate state.
    pub power_cut_on_read: Option<u64>,
    /// Fail reads `first..first + count` (1-based) with transient I/O
    /// errors; reads after the window succeed again.
    pub transient_read_window: Option<(u64, u64)>,
    /// Flip bit `bit` of byte `byte` in the data *returned* by reads
    /// `first..first + count` (1-based), clean afterwards:
    /// `(first, count, byte, bit)`. The read-side twin of
    /// `corrupt_on_write` — transient electronics, which a re-read
    /// clears, where `corrupt_read_region` is damaged media.
    pub corrupt_on_read: Option<(u64, u64, usize, u8)>,
    /// Flip one bit in the data *returned* by every read landing in a
    /// block region: damaged media that a retry re-reads unchanged, so
    /// only end-to-end content verification catches it.
    pub corrupt_read_region: Option<CorruptRegion>,
}

impl FaultPlan {
    /// A plan that cuts power cleanly (no torn data) on write `n`.
    pub fn power_cut(n: u64) -> Self {
        FaultPlan {
            power_cut_on_write: Some(n),
            ..FaultPlan::default()
        }
    }

    /// A plan that cuts power on write `n`, landing only `torn` bytes.
    /// With `torn` at least the write's length it lands whole while every
    /// earlier write still in the volatile cache is lost: the device
    /// persisted its writes out of order.
    pub fn torn_write(n: u64, torn: usize) -> Self {
        FaultPlan {
            power_cut_on_write: Some(n),
            torn_bytes: torn,
            ..FaultPlan::default()
        }
    }

    /// A plan that flips bit `bit` of byte `byte` in write `n`.
    pub fn corrupt(n: u64, byte: usize, bit: u8) -> Self {
        FaultPlan {
            corrupt_on_write: Some((n, byte, bit)),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails writes `n..n + count` with transient I/O errors.
    pub fn transient(n: u64, count: u64) -> Self {
        FaultPlan {
            transient_window: Some((n, count)),
            ..FaultPlan::default()
        }
    }

    /// A plan that stalls writes `n..n + count` by `extra_ns` each.
    pub fn latency_spike(n: u64, count: u64, extra_ns: u64) -> Self {
        FaultPlan {
            latency_window: Some((n, count, extra_ns)),
            ..FaultPlan::default()
        }
    }

    /// A plan that corrupts every write into `[start_lba, end_lba)`.
    pub fn corrupt_blocks(start_lba: u64, end_lba: u64, byte: usize, bit: u8) -> Self {
        FaultPlan {
            corrupt_region: Some(CorruptRegion {
                start_lba,
                end_lba,
                byte,
                bit,
            }),
            ..FaultPlan::default()
        }
    }

    /// A seeded randomized multi-fault schedule.
    pub fn random(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            random: Some(RandomFaults { seed, rates }),
            ..FaultPlan::default()
        }
    }

    /// A plan that cuts power on read `n` (1-based).
    pub fn power_cut_on_read(n: u64) -> Self {
        FaultPlan {
            power_cut_on_read: Some(n),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails reads `n..n + count` with transient I/O errors.
    pub fn transient_reads(n: u64, count: u64) -> Self {
        FaultPlan {
            transient_read_window: Some((n, count)),
            ..FaultPlan::default()
        }
    }

    /// A plan that flips bit `bit` of byte `byte` in the data returned
    /// by reads `n..n + count`; later reads are clean.
    pub fn corrupt_reads(n: u64, count: u64, byte: usize, bit: u8) -> Self {
        FaultPlan {
            corrupt_on_read: Some((n, count, byte, bit)),
            ..FaultPlan::default()
        }
    }

    /// A plan that corrupts the data returned by every read of a block
    /// in `[start_lba, end_lba)`.
    pub fn corrupt_read_blocks(start_lba: u64, end_lba: u64, byte: usize, bit: u8) -> Self {
        FaultPlan {
            corrupt_read_region: Some(CorruptRegion {
                start_lba,
                end_lba,
                byte,
                bit,
            }),
            ..FaultPlan::default()
        }
    }

    /// Resolves the action for the `nth` write (1-based) starting at
    /// block `lba`.
    pub fn action_for_write(&self, nth: u64, lba: u64) -> FaultAction {
        if let Some(cut) = self.power_cut_on_write {
            if nth == cut {
                return FaultAction::PowerCut {
                    torn_bytes: self.torn_bytes,
                };
            }
        }
        if let Some((n, byte, bit)) = self.corrupt_on_write {
            if nth == n {
                return FaultAction::CorruptBit { byte, bit };
            }
        }
        if let Some((first, count)) = self.transient_window {
            if nth >= first && nth < first.saturating_add(count) {
                return FaultAction::TransientError;
            }
        }
        if let Some((first, count, extra_ns)) = self.latency_window {
            if nth >= first && nth < first.saturating_add(count) {
                return FaultAction::LatencySpike { extra_ns };
            }
        }
        if let Some(region) = self.corrupt_region {
            if lba >= region.start_lba && lba < region.end_lba {
                return FaultAction::CorruptBit {
                    byte: region.byte,
                    bit: region.bit,
                };
            }
        }
        if let Some(random) = &self.random {
            return random.action_for_write(nth);
        }
        FaultAction::None
    }

    /// Resolves the action for the `nth` read (1-based) of block `lba`.
    ///
    /// Reads have their own ordinal space and their own deterministic
    /// fields; the seeded `random` schedule only covers writes, since
    /// its rates are calibrated against write traffic.
    pub fn action_for_read(&self, nth: u64, lba: u64) -> FaultAction {
        if let Some(cut) = self.power_cut_on_read {
            if nth == cut {
                return FaultAction::PowerCut { torn_bytes: 0 };
            }
        }
        if let Some((first, count)) = self.transient_read_window {
            if nth >= first && nth < first.saturating_add(count) {
                return FaultAction::TransientError;
            }
        }
        if let Some((first, count, byte, bit)) = self.corrupt_on_read {
            if nth >= first && nth < first.saturating_add(count) {
                return FaultAction::CorruptBit { byte, bit };
            }
        }
        if let Some(region) = self.corrupt_read_region {
            if lba >= region.start_lba && lba < region.end_lba {
                return FaultAction::CorruptBit {
                    byte: region.byte,
                    bit: region.bit,
                };
            }
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{read, write};
    use crate::dev::{BlockDev, ModelDev};
    use crate::BLOCK_SIZE;
    use aurora_sim::error::ErrorKind;
    use aurora_sim::SimClock;

    #[test]
    fn power_cut_triggers_on_exact_write() {
        let plan = FaultPlan::power_cut(3);
        assert_eq!(plan.action_for_write(1, 0), FaultAction::None);
        assert_eq!(plan.action_for_write(2, 0), FaultAction::None);
        assert_eq!(
            plan.action_for_write(3, 0),
            FaultAction::PowerCut { torn_bytes: 0 }
        );
    }

    #[test]
    fn device_dies_at_planned_write() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 64);
        d.set_fault_plan(FaultPlan::power_cut(2));
        write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert!(write(&mut d, 1, &vec![2u8; BLOCK_SIZE]).is_err());
        assert!(!d.powered());
    }

    #[test]
    fn torn_write_lands_prefix_only() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 64);
        // First write flushed to make it durable, then a torn second write.
        write(&mut d, 0, &vec![0xAAu8; BLOCK_SIZE]).unwrap();
        let done = d.flush().unwrap();
        d.clock().advance_to(done);
        d.set_fault_plan(FaultPlan::torn_write(1, 100));
        assert!(write(&mut d, 0, &vec![0xBBu8; BLOCK_SIZE]).is_err());
        d.power_on();
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 0xBB), "prefix landed");
        assert!(buf[100..].iter().all(|&b| b == 0xAA), "suffix is old data");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 64);
        d.set_fault_plan(FaultPlan::corrupt(1, 10, 3));
        write(&mut d, 0, &vec![0u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        let flipped: Vec<usize> = buf.iter().enumerate().filter(|(_, &b)| b != 0).map(|(i, _)| i).collect();
        assert_eq!(flipped, vec![10]);
        assert_eq!(buf[10], 1 << 3);
    }

    #[test]
    fn transient_window_fails_then_recovers() {
        let plan = FaultPlan::transient(2, 3);
        assert_eq!(plan.action_for_write(1, 0), FaultAction::None);
        for n in 2..5 {
            assert_eq!(plan.action_for_write(n, 0), FaultAction::TransientError);
        }
        assert_eq!(plan.action_for_write(5, 0), FaultAction::None);
    }

    #[test]
    fn transient_error_is_io_and_device_stays_up() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock, "nvme0", 64);
        d.set_fault_plan(FaultPlan::transient(1, 2));
        let err = write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(d.powered(), "transient errors do not kill the device");
        // Second write still inside the window, third succeeds.
        assert!(write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).is_err());
        write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; BLOCK_SIZE]);
    }

    #[test]
    fn latency_spike_stalls_but_succeeds() {
        let clock = SimClock::new();
        let mut d = ModelDev::nvme(clock.clone(), "nvme0", 64);
        d.set_fault_plan(FaultPlan::latency_spike(1, 1, 5_000_000));
        let before = clock.now();
        write(&mut d, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let spiked = clock.now().since(before);
        assert!(spiked.as_nanos() >= 5_000_000, "spike charged: {spiked:?}");
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut d, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; BLOCK_SIZE], "data landed despite stall");
    }

    #[test]
    fn region_corruption_hits_only_the_region() {
        let plan = FaultPlan::corrupt_blocks(10, 20, 0, 0);
        assert_eq!(plan.action_for_write(1, 9), FaultAction::None);
        assert_eq!(
            plan.action_for_write(2, 10),
            FaultAction::CorruptBit { byte: 0, bit: 0 }
        );
        assert_eq!(
            plan.action_for_write(77, 19),
            FaultAction::CorruptBit { byte: 0, bit: 0 }
        );
        assert_eq!(plan.action_for_write(78, 20), FaultAction::None);
    }

    #[test]
    fn random_schedule_is_deterministic() {
        let a = FaultPlan::random(42, FaultRates::hostile());
        let b = FaultPlan::random(42, FaultRates::hostile());
        for n in 1..2000 {
            assert_eq!(a.action_for_write(n, 0), b.action_for_write(n, 0));
        }
    }

    #[test]
    fn random_schedule_varies_with_seed() {
        let a = FaultPlan::random(1, FaultRates::hostile());
        let b = FaultPlan::random(2, FaultRates::hostile());
        let differs = (1..500).any(|n| a.action_for_write(n, 0) != b.action_for_write(n, 0));
        assert!(differs, "different seeds give different schedules");
    }

    #[test]
    fn random_rates_are_roughly_honoured() {
        let rates = FaultRates {
            transient_ppm: 100_000, // 10%
            ..FaultRates::default()
        };
        let plan = FaultPlan::random(7, rates);
        let trials = 10_000;
        let hits = (1..=trials)
            .filter(|&n| plan.action_for_write(n, 0) == FaultAction::TransientError)
            .count();
        let ratio = hits as f64 / trials as f64;
        assert!(
            (0.05..0.15).contains(&ratio),
            "transient rate {ratio} far from 10%"
        );
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::random(99, FaultRates::default());
        for n in 1..1000 {
            assert_eq!(plan.action_for_write(n, 0), FaultAction::None);
        }
    }

    #[test]
    fn read_faults_have_their_own_ordinal_space() {
        let plan = FaultPlan::transient_reads(2, 2);
        // Writes are untouched by a read-only plan.
        assert_eq!(plan.action_for_write(2, 0), FaultAction::None);
        assert_eq!(plan.action_for_read(1, 0), FaultAction::None);
        assert_eq!(plan.action_for_read(2, 0), FaultAction::TransientError);
        assert_eq!(plan.action_for_read(3, 0), FaultAction::TransientError);
        assert_eq!(plan.action_for_read(4, 0), FaultAction::None);
    }

    #[test]
    fn read_power_cut_triggers_on_exact_read() {
        let plan = FaultPlan::power_cut_on_read(3);
        assert_eq!(plan.action_for_read(2, 0), FaultAction::None);
        assert_eq!(
            plan.action_for_read(3, 0),
            FaultAction::PowerCut { torn_bytes: 0 }
        );
        assert_eq!(plan.action_for_write(3, 0), FaultAction::None);
    }

    #[test]
    fn read_corruption_window_flips_then_reads_clean() {
        let plan = FaultPlan::corrupt_reads(2, 2, 100, 3);
        assert_eq!(plan.action_for_read(1, 0), FaultAction::None);
        for n in 2..4 {
            assert_eq!(
                plan.action_for_read(n, 0),
                FaultAction::CorruptBit { byte: 100, bit: 3 }
            );
        }
        assert_eq!(plan.action_for_read(4, 0), FaultAction::None);
        assert_eq!(plan.action_for_write(2, 0), FaultAction::None);
    }

    #[test]
    fn read_region_corruption_hits_only_the_region() {
        let plan = FaultPlan::corrupt_read_blocks(10, 20, 4, 1);
        assert_eq!(plan.action_for_read(1, 9), FaultAction::None);
        assert_eq!(
            plan.action_for_read(2, 10),
            FaultAction::CorruptBit { byte: 4, bit: 1 }
        );
        assert_eq!(plan.action_for_read(3, 20), FaultAction::None);
        // The write path never sees the read region.
        assert_eq!(plan.action_for_write(4, 10), FaultAction::None);
    }
}
