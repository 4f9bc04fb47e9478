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
use aurora_sim::SimClock;

use crate::dev::{Access, BlockDev, DevInfo, DevStats};
use crate::BLOCK_SIZE;

/// A stripe set over homogeneous members.
pub struct StripedDev<D: BlockDev> {
    members: Vec<D>,
    info: DevInfo,
    stats: DevStats,
    /// Round-robin cursor for timing-only submissions.
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
        let blocks: u64 = members.iter().map(|m| m.info().blocks).sum();
        let info = DevInfo {
            name: format!("stripe{}x-{}", members.len(), members[0].info().name),
            blocks,
            persistent: members.iter().all(|m| m.info().persistent),
            persistence_domain: members.iter().all(|m| m.info().persistence_domain),
        };
        StripedDev {
            members,
            info,
            stats: DevStats::default(),
            rr: 0,
        }
    }

    /// Number of members.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    fn locate(&self, lba: u64) -> (usize, u64) {
        let n = self.members.len() as u64;
        ((lba % n) as usize, lba / n)
    }
}

impl<D: BlockDev> BlockDev for StripedDev<D> {
    fn info(&self) -> &DevInfo {
        &self.info
    }

    fn stats(&self) -> &DevStats {
        &self.stats
    }

    fn read(&mut self, lba: u64, buf: &mut [u8]) -> Result<()> {
        if !buf.len().is_multiple_of(BLOCK_SIZE) {
            return Err(Error::invalid("unaligned stripe read"));
        }
        for (i, chunk) in buf.chunks_mut(BLOCK_SIZE).enumerate() {
            let (member, mlba) = self.locate(lba + i as u64);
            self.members[member].read(mlba, chunk)?;
        }
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    fn submit_write(&mut self, lba: u64, data: &[u8]) -> Result<SimTime> {
        if !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(Error::invalid("unaligned stripe write"));
        }
        let mut done = SimTime::ZERO;
        for (i, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
            let (member, mlba) = self.locate(lba + i as u64);
            done = done.max(self.members[member].submit_write(mlba, chunk)?);
        }
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(done)
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[&[u8]]) -> Result<SimTime> {
        if blocks.is_empty() {
            return Ok(self.clock().now());
        }
        // Round-robin placement means the blocks of a contiguous extent
        // land on each member as one contiguous inner run, so the split
        // preserves coalescing: each member gets a single vectored write.
        let mut runs: Vec<(Option<u64>, Vec<&[u8]>)> = vec![(None, Vec::new()); self.members.len()];
        for (i, b) in blocks.iter().enumerate() {
            let (member, mlba) = self.locate(lba + i as u64);
            if let Some(run) = runs.get_mut(member) {
                if run.0.is_none() {
                    run.0 = Some(mlba);
                }
                run.1.push(b);
            }
        }
        let mut done = SimTime::ZERO;
        for (m, (start, run)) in self.members.iter_mut().zip(runs) {
            if let Some(start) = start {
                done = done.max(m.write_blocks(start, &run)?);
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += blocks.iter().map(|b| b.len() as u64).sum::<u64>();
        Ok(done)
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<()> {
        let done = self.submit_write(lba, data)?;
        self.clock().advance_to(done);
        Ok(())
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
        // Spread bulk payloads across the members round-robin so their
        // queues drain in parallel — this is where the bandwidth
        // aggregation shows up.
        let n = self.members.len();
        let share = nbytes / n as u64;
        let remainder = nbytes - share * n as u64;
        let mut done = SimTime::ZERO;
        for i in 0..n {
            let member = (self.rr + i) % n;
            let bytes = if i == 0 { share + remainder } else { share };
            if bytes > 0 {
                done = done.max(self.members[member].submit_write_timing(bytes)?);
            }
        }
        self.rr = (self.rr + 1) % n;
        self.stats.writes += 1;
        self.stats.bytes_written += nbytes;
        Ok(done)
    }

    fn charge_read_timing(&mut self, nbytes: u64, access: Access) -> Result<()> {
        // Reads also split across members; the caller waits for the max.
        let n = self.members.len() as u64;
        let share = nbytes.div_ceil(n);
        for m in &mut self.members {
            m.charge_read_timing(share.min(nbytes), access)?;
        }
        self.stats.reads += 1;
        self.stats.bytes_read += nbytes;
        Ok(())
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
        self.members[0].clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::ModelDev;

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
            s.write(i, &vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        let done = s.flush().unwrap();
        s.clock().advance_to(done);
        for i in 0..16u64 {
            let mut buf = vec![0u8; BLOCK_SIZE];
            s.read(i, &mut buf).unwrap();
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
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        // Start off-stripe-boundary so inner runs begin at differing lbas.
        let done = s.write_blocks(6, &refs).unwrap();
        s.clock().advance_to(done);
        let flushed = s.flush().unwrap();
        s.clock().advance_to(flushed);
        for (i, expect) in bufs.iter().enumerate() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            s.read(6 + i as u64, &mut buf).unwrap();
            assert_eq!(&buf, expect, "block {i}");
        }
        // Each member serviced its share as a single vectored request.
        let member_writes: u64 = s.members.iter().map(|m| m.stats().writes).sum();
        assert_eq!(member_writes, 4);
    }

    #[test]
    fn durability_follows_the_slowest_member() {
        let mut s = stripe(2);
        s.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let done = s.flush().unwrap();
        assert!(done >= s.clock().now());
        // Power semantics fan out.
        s.power_fail();
        assert!(!s.powered());
        assert!(s.write(0, &vec![1u8; BLOCK_SIZE]).is_err());
        s.power_on();
        assert!(s.powered());
    }
}
