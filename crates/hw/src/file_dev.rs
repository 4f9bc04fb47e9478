//! A block device backed by a real host file.
//!
//! The `sls` command-line tool needs state that genuinely survives between
//! invocations of the binary — the whole point of a single level store.
//! [`FileDev`] stores blocks in an ordinary file on the host filesystem
//! while still charging NVMe-calibrated virtual costs, so the CLI world is
//! durable *and* its reported timings agree with the simulation.
//!
//! Durability here is intentionally simple: writes go straight to the
//! file (no simulated volatile cache), and `flush` maps to the host file
//! sync. Crash-consistency experiments use [`crate::dev::ModelDev`] with
//! fault plans instead.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_sim::{PageData, SimClock};

use crate::dev::{BlockDev, CostModel, DevInfo, DevStats};
use crate::BLOCK_SIZE;

/// A host-file-backed block device with NVMe-like virtual costs.
pub struct FileDev {
    info: DevInfo,
    clock: Arc<SimClock>,
    file: File,
    stats: DevStats,
    busy_until: SimTime,
}

impl FileDev {
    /// Opens (creating if needed) a file-backed device of `blocks` blocks.
    pub fn open(clock: Arc<SimClock>, path: &Path, blocks: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| Error::io(format!("open {}: {e}", path.display())))?;
        file.set_len(blocks * BLOCK_SIZE as u64)
            .map_err(|e| Error::io(format!("set_len {}: {e}", path.display())))?;
        Ok(FileDev {
            info: DevInfo {
                name: format!("file:{}", path.display()),
                blocks,
                persistent: true,
                persistence_domain: true,
            },
            clock,
            file,
            stats: DevStats::default(),
            busy_until: SimTime::ZERO,
        })
    }

    /// Charges a request by the NVMe model's service rule.
    fn service(&mut self, bytes: u64, bw: u64) -> SimTime {
        CostModel::NVME.serve(&mut self.busy_until, self.clock.now(), bytes, bw)
    }
}

impl BlockDev for FileDev {
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
        // One seek and one read of the span, charged as one request; the
        // bodies are filled only once the whole span is in.
        let total = self.info.check_extent(lba, bufs)?;
        let mut span = vec![0u8; total as usize];
        let done = self.service(total, CostModel::NVME.read_bw);
        self.file
            .seek(SeekFrom::Start(lba * BLOCK_SIZE as u64))
            .and_then(|_| self.file.read_exact(&mut span))
            .map_err(|e| Error::io(format!("read lba {lba}: {e}")))?;
        for (buf, chunk) in bufs.iter_mut().zip(span.chunks_exact(BLOCK_SIZE)) {
            *buf = PageData::from_bytes(chunk);
        }
        self.stats.reads += 1;
        self.stats.bytes_read += total;
        Ok(done)
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        if blocks.is_empty() {
            return Ok(self.clock.now());
        }
        let total = self.info.check_extent(lba, blocks)?;
        let done = self.service(total, CostModel::NVME.write_bw);
        // One seek, one sequential run: the host file sees the extent the
        // way the model charges for it, each body materialized as it goes.
        self.file
            .seek(SeekFrom::Start(lba * BLOCK_SIZE as u64))
            .map_err(|e| Error::io(format!("seek lba {lba}: {e}")))?;
        for b in blocks {
            self.file
                .write_all(&b.bytes())
                .map_err(|e| Error::io(format!("write extent at lba {lba}: {e}")))?;
        }
        self.stats.writes += 1;
        self.stats.bytes_written += total;
        Ok(done)
    }

    fn flush(&mut self) -> Result<SimTime> {
        self.stats.flushes += 1;
        self.file
            .sync_data()
            .map_err(|e| Error::io(format!("sync: {e}")))?;
        Ok(CostModel::NVME.barrier(&mut self.busy_until, self.clock.now()))
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let done = self.service(nbytes, CostModel::NVME.read_bw);
        self.stats.reads += 1;
        self.stats.bytes_read += nbytes;
        Ok(done)
    }

    fn power_fail(&mut self) {
        // A host file has no volatile cache in this model; nothing to drop.
    }

    fn power_on(&mut self) {}

    fn powered(&self) -> bool {
        true
    }

    fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{body, read, write};

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("aurora-filedev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        let data = vec![0xC3u8; BLOCK_SIZE];
        {
            let clock = SimClock::new();
            let mut d = FileDev::open(clock, &path, 16).unwrap();
            write(&mut d, 7, &data).unwrap();
            d.flush().unwrap();
        }
        {
            let clock = SimClock::new();
            let mut d = FileDev::open(clock, &path, 16).unwrap();
            let mut buf = vec![0u8; BLOCK_SIZE];
            read(&mut d, 7, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vectored_write_roundtrips() {
        let dir = std::env::temp_dir().join(format!("aurora-filedev3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        let clock = SimClock::new();
        let mut d = FileDev::open(clock, &path, 16).unwrap();
        let bufs: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; BLOCK_SIZE]).collect();
        let refs: Vec<PageData> = bufs.iter().map(|b| body(b)).collect();
        d.write_blocks(5, &refs).unwrap();
        d.flush().unwrap();
        for (i, expect) in bufs.iter().enumerate() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            read(&mut d, 5 + i as u64, &mut buf).unwrap();
            assert_eq!(&buf, expect, "block {i}");
        }
        assert!(d.write_blocks(15, &refs).is_err(), "extent past device end");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vectored_read_is_one_request() {
        let dir = std::env::temp_dir().join(format!("aurora-filedev4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        let clock = SimClock::new();
        let mut d = FileDev::open(clock, &path, 16).unwrap();
        let bufs: Vec<PageData> = (1..=8u8).map(|i| body(&[i; BLOCK_SIZE])).collect();
        d.write_blocks(4, &bufs).unwrap();
        let mut out = vec![PageData::Zero; 8];
        d.read_blocks(4, &mut out).unwrap();
        assert_eq!(out, bufs, "every block comes back");
        assert_eq!(d.stats().reads, 1, "one request for the span");
        assert_eq!(d.stats().bytes_read, 8 * BLOCK_SIZE as u64);
        assert!(d.read_blocks(12, &mut out).is_err(), "span past device end");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_checks_apply() {
        let dir = std::env::temp_dir().join(format!("aurora-filedev2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        let clock = SimClock::new();
        let mut d = FileDev::open(clock, &path, 4).unwrap();
        assert!(write(&mut d, 4, &vec![0u8; BLOCK_SIZE]).is_err());
        assert!(write(&mut d, 0, &[1, 2, 3]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
