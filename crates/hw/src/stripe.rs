//! Striped (RAID-0 style) device sets.
//!
//! The paper's testbed has *four* Intel Optane 900P drives and leans on
//! aggregate PCIe bandwidth ("up to 256 GB/s, more than that of
//! memory"). [`StripedDev`] models that: blocks stripe round-robin
//! across N member devices, reads/writes split across members'
//! independent queues, and durability is the slowest member's flush.
//! Checkpoint flush bandwidth — and with it the sustainable checkpoint
//! frequency — scales with the stripe width (see the `tables media`
//! and stripe experiments).

use std::sync::Arc;

use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_sim::{PageData, SimClock};

use crate::dev::{BlockDev, DevInfo, DevStats};

/// A stripe set over homogeneous members.
pub struct StripedDev<D: BlockDev> {
    members: Vec<D>,
    /// The first member's clock, kept at construction.
    clock: Arc<SimClock>,
    info: DevInfo,
    stats: DevStats,
    /// Round-robin cursor for timing-only requests.
    rr: usize,
}

impl<D: BlockDev> StripedDev<D> {
    /// Builds a stripe set; capacity is the sum of the members'.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty (configuration error).
    pub fn new(members: Vec<D>) -> Self {
        assert!(!members.is_empty(), "stripe needs at least one member");
        // The assert above rules out the empty fallback.
        let (first_name, clock) = members.first().map_or_else(
            || (String::new(), SimClock::new()),
            |m| (m.info().name.clone(), m.clock().clone()),
        );
        let blocks: u64 = members.iter().map(|m| m.info().blocks).sum();
        let info = DevInfo {
            name: format!("stripe{}x-{first_name}", members.len()),
            blocks,
            persistent: members.iter().all(|m| m.info().persistent),
            persistence_domain: members.iter().all(|m| m.info().persistence_domain),
        };
        StripedDev {
            members,
            clock,
            info,
            stats: DevStats::default(),
            rr: 0,
        }
    }

    fn locate(&self, lba: u64) -> (usize, u64) {
        let n = self.members.len() as u64;
        ((lba % n) as usize, lba / n)
    }

    /// Splits the extent of `blocks` at `lba` into one run per member,
    /// each with its starting member lba (`None` for a member the extent
    /// misses). Round-robin placement means the blocks of a contiguous
    /// extent land on each member as one contiguous inner run, so the
    /// split preserves coalescing: each member gets a single vectored
    /// request.
    fn runs<B>(&self, lba: u64, blocks: impl Iterator<Item = B>) -> Vec<(Option<u64>, Vec<B>)> {
        let mut runs: Vec<(Option<u64>, Vec<B>)> =
            self.members.iter().map(|_| (None, Vec::new())).collect();
        for (i, b) in blocks.enumerate() {
            let (member, mlba) = self.locate(lba + i as u64);
            if let Some(run) = runs.get_mut(member) {
                run.0.get_or_insert(mlba);
                run.1.push(b);
            }
        }
        runs
    }

    /// Spreads a timing-only request of `nbytes` across the members
    /// round-robin, so their queues serve it in parallel — this is where
    /// the bandwidth aggregation shows up, for reads and writes alike.
    /// Completes with the last share.
    fn split(
        &mut self,
        nbytes: u64,
        mut op: impl FnMut(&mut D, u64) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let n = self.members.len();
        let share = nbytes / n as u64;
        let remainder = nbytes - share * n as u64;
        let mut done = SimTime::ZERO;
        for i in 0..n {
            let member = (self.rr + i) % n;
            let bytes = if i == 0 { share + remainder } else { share };
            if bytes > 0 {
                let m = self.members.get_mut(member).ok_or_else(|| {
                    Error::internal(format!("stripe member {member} out of range"))
                })?;
                done = done.max(op(m, bytes)?);
            }
        }
        self.rr = (self.rr + 1) % n;
        Ok(done)
    }
}

impl<D: BlockDev> BlockDev for StripedDev<D> {
    fn info(&self) -> &DevInfo {
        &self.info
    }

    fn stats(&self) -> &DevStats {
        &self.stats
    }

    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime> {
        if bufs.is_empty() {
            return Ok(self.clock.now());
        }
        // The same split as `write_blocks`: each member reads its share
        // as one run on its own queue, the extent is in when the last
        // run is, and `bufs` is filled only once every run is in.
        let mut runs = self.runs(lba, bufs.iter().cloned());
        let mut done = SimTime::ZERO;
        for (m, (start, run)) in self.members.iter_mut().zip(runs.iter_mut()) {
            if let Some(start) = start {
                done = done.max(m.read_blocks(*start, run)?);
            }
        }
        let mut runs: Vec<_> = runs.into_iter().map(|(_, run)| run.into_iter()).collect();
        for (i, buf) in bufs.iter_mut().enumerate() {
            let (member, _) = self.locate(lba + i as u64);
            if let Some(block) = runs.get_mut(member).and_then(Iterator::next) {
                *buf = block;
            }
        }
        self.stats.reads += 1;
        self.stats.bytes_read += bufs.iter().map(|b| b.byte_len() as u64).sum::<u64>();
        Ok(done)
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        if blocks.is_empty() {
            return Ok(self.clock().now());
        }
        let runs = self.runs(lba, blocks.iter().cloned());
        let mut done = SimTime::ZERO;
        for (m, (start, run)) in self.members.iter_mut().zip(runs) {
            if let Some(start) = start {
                done = done.max(m.write_blocks(start, &run)?);
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += blocks.iter().map(|b| b.byte_len() as u64).sum::<u64>();
        Ok(done)
    }

    fn flush(&mut self) -> Result<SimTime> {
        let mut done = SimTime::ZERO;
        for m in &mut self.members {
            done = done.max(m.flush()?);
        }
        self.stats.flushes += 1;
        Ok(done)
    }

    fn submit_write_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let done = self.split(nbytes, |m, bytes| m.submit_write_timing(bytes))?;
        self.stats.writes += 1;
        self.stats.bytes_written += nbytes;
        Ok(done)
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let done = self.split(nbytes, |m, bytes| m.charge_read_timing(bytes))?;
        self.stats.reads += 1;
        self.stats.bytes_read += nbytes;
        Ok(done)
    }

    fn power_fail(&mut self) {
        for m in &mut self.members {
            m.power_fail();
        }
    }

    fn power_on(&mut self) {
        for m in &mut self.members {
            m.power_on();
        }
    }

    fn powered(&self) -> bool {
        self.members.iter().all(|m| m.powered())
    }

    fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{body, read, write};
    use crate::dev::ModelDev;
    use crate::BLOCK_SIZE;

    fn stripe(n: usize) -> StripedDev<ModelDev> {
        let clock = SimClock::new();
        let members = (0..n)
            .map(|i| ModelDev::nvme(clock.clone(), &format!("nvme{i}"), 1024))
            .collect();
        StripedDev::new(members)
    }

    #[test]
    fn blocks_roundtrip_across_members() {
        let mut s = stripe(4);
        assert_eq!(s.info().blocks, 4096);
        for i in 0..16u64 {
            write(&mut s, i, &vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        let done = s.flush().unwrap();
        s.clock().advance_to(done);
        for i in 0..16u64 {
            let mut buf = vec![0u8; BLOCK_SIZE];
            read(&mut s, i, &mut buf).unwrap();
            assert_eq!(buf, vec![i as u8; BLOCK_SIZE], "block {i}");
        }
    }

    #[test]
    fn bulk_write_bandwidth_scales_with_width() {
        // 64 MiB of timing-only writes: a 4-wide stripe should finish
        // roughly 4x sooner than a single device.
        let mut single = stripe(1);
        let t1 = single.submit_write_timing(64 << 20).unwrap();
        let lone = t1.since(single.clock().now());

        let mut quad = stripe(4);
        let t4 = quad.submit_write_timing(64 << 20).unwrap();
        let wide = t4.since(quad.clock().now());

        let speedup = lone.as_nanos() as f64 / wide.as_nanos() as f64;
        assert!(
            (3.0..=4.5).contains(&speedup),
            "expected ~4x, got {speedup:.2}x"
        );
    }

    #[test]
    fn vectored_write_splits_across_members() {
        let mut s = stripe(4);
        let bufs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        // Start off-stripe-boundary so inner runs begin at differing lbas.
        let done = s.write_blocks(6, &refs).unwrap();
        s.clock().advance_to(done);
        let flushed = s.flush().unwrap();
        s.clock().advance_to(flushed);
        for (i, expect) in bufs.iter().enumerate() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            read(&mut s, 6 + i as u64, &mut buf).unwrap();
            assert_eq!(&buf, expect, "block {i}");
        }
        // Each member serviced its share as a single vectored request.
        let member_writes: u64 = s.members.iter().map(|m| m.stats().writes).sum();
        assert_eq!(member_writes, 4);
    }

    #[test]
    fn durability_follows_the_slowest_member() {
        let mut s = stripe(2);
        write(&mut s, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let done = s.flush().unwrap();
        assert!(done >= s.clock().now());
        // Power semantics fan out.
        s.power_fail();
        assert!(!s.powered());
        assert!(write(&mut s, 0, &vec![1u8; BLOCK_SIZE]).is_err());
        s.power_on();
        assert!(s.powered());
    }
}
