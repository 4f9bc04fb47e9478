//! On-disk layout: superblocks and region geometry.
//!
//! ```text
//! block 0      superblock slot A \  both written, in turn, at each half
//! block 1      superblock slot B /  switch; recovery picks the valid
//!                                   slot with the higher epoch
//! block 2..J   metadata journal (two ping-pong halves; records append
//!              into the active half and each is committed by its own
//!              flush, compaction writes its snapshot to the idle half
//!              and the superblock flip switches halves, so a power cut
//!              mid-compaction never destroys the journal the durable
//!              superblock points at)
//! block J..    data region (refcounted 4 KiB blocks)
//! ```

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::crc32c;

use aurora_hw::BLOCK_SIZE;

/// Magic number identifying an Aurora store ("AURORSLS").
pub const MAGIC: u64 = 0x4155_524F_5253_4C53;

/// On-disk format version. v3: journal record format v2 (checkpoints
/// carry sub-page delta heads; commit/snapshot records carry delta-log
/// sections). v4: journal record format v3 — the appended record is the
/// commit point: frames carry the half's generation (the superblock
/// `epoch` that switched to it) and a commit carries its page digest;
/// the superblock is written only at half switches, so its
/// `journal_used` and `next_ckpt` are as of the last switch. The
/// superblock body is unchanged.
pub const VERSION: u16 = 4;

/// First journal block.
pub const JOURNAL_START: u64 = 2;

/// The superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Half-switch epoch (monotonic across the store's life): the
    /// active journal half's generation.
    pub epoch: u64,
    /// Journal length in blocks (both halves).
    pub journal_blocks: u64,
    /// Bytes of the active half in use. On the medium, the snapshot the
    /// last half switch wrote, which recovery scans past; in a live
    /// store, the tail where the next record appends.
    pub journal_used: u64,
    /// First block of the active journal half.
    pub journal_base: u64,
    /// Total device blocks.
    pub total_blocks: u64,
    /// Next checkpoint id to assign (recovery takes the larger of this
    /// and the replayed head's successor).
    pub next_ckpt: u64,
    /// Next object id to assign.
    pub next_obj: u64,
}

impl Superblock {
    /// First data-region block for this geometry.
    pub fn data_start(&self) -> u64 {
        JOURNAL_START + self.journal_blocks
    }

    /// Blocks in one journal half (records must fit in a half).
    pub fn journal_half_blocks(&self) -> u64 {
        self.journal_blocks / 2
    }

    /// Bytes in one journal half.
    pub fn journal_half_bytes(&self) -> u64 {
        self.journal_half_blocks() * BLOCK_SIZE as u64
    }

    /// First block of the idle journal half (compaction's target).
    pub fn journal_other_half(&self) -> u64 {
        if self.journal_base == JOURNAL_START {
            JOURNAL_START + self.journal_half_blocks()
        } else {
            JOURNAL_START
        }
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start()
    }

    /// Serializes into one device block with a trailing CRC.
    pub fn to_block(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        e.u64(MAGIC);
        e.u16(VERSION);
        e.u64(self.epoch);
        e.u64(self.journal_blocks);
        e.u64(self.journal_used);
        e.u64(self.journal_base);
        e.u64(self.total_blocks);
        e.u64(self.next_ckpt);
        e.u64(self.next_obj);
        let mut body = e.into_vec();
        let crc = crc32c(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body.resize(BLOCK_SIZE, 0);
        body
    }

    /// Parses and validates a superblock from a device block.
    pub fn from_block(block: &[u8]) -> Result<Superblock> {
        // Body length: 8 + 2 + 7*8 = 66 bytes, then 4 bytes CRC.
        const BODY: usize = 66;
        let Some((body, crc)) = block.get(..BODY + 4).map(|head| head.split_at(BODY)) else {
            return Err(Error::corrupt("superblock too short"));
        };
        let crc_stored = crc
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| Error::corrupt("superblock CRC field truncated"))?;
        if crc32c(body) != crc_stored {
            return Err(Error::corrupt("superblock CRC mismatch"));
        }
        let mut d = Decoder::new(body);
        if d.u64()? != MAGIC {
            return Err(Error::corrupt("bad store magic"));
        }
        let version = d.u16()?;
        if version != VERSION {
            // Name both sides so a store written by a newer build reads as
            // "upgrade me", not as damage.
            return Err(Error::unsupported(format!(
                "store version {version} (this build reads version {VERSION})"
            )));
        }
        Ok(Superblock {
            epoch: d.u64()?,
            journal_blocks: d.u64()?,
            journal_used: d.u64()?,
            journal_base: d.u64()?,
            total_blocks: d.u64()?,
            next_ckpt: d.u64()?,
            next_obj: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> Superblock {
        Superblock {
            epoch: 42,
            journal_blocks: 1024,
            journal_used: 12345,
            journal_base: JOURNAL_START,
            total_blocks: 1 << 20,
            next_ckpt: 7,
            next_obj: 99,
        }
    }

    #[test]
    fn roundtrip() {
        let block = sb().to_block();
        assert_eq!(block.len(), BLOCK_SIZE);
        assert_eq!(Superblock::from_block(&block).unwrap(), sb());
    }

    #[test]
    fn corruption_detected() {
        let mut block = sb().to_block();
        block[10] ^= 1;
        assert!(Superblock::from_block(&block).is_err());
        // All-zero block (never written) is invalid too.
        assert!(Superblock::from_block(&[0u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn future_version_names_both_versions() {
        // A structurally valid superblock from a "newer" build: bump the
        // version field (offset 8, after the u64 magic) and re-seal the CRC
        // so only the version check can object.
        let mut block = sb().to_block();
        let future = VERSION + 9;
        block[8..10].copy_from_slice(&future.to_le_bytes());
        let crc = crc32c(&block[..66]);
        block[66..70].copy_from_slice(&crc.to_le_bytes());
        let err = Superblock::from_block(&block).unwrap_err();
        assert_eq!(err.kind(), aurora_sim::error::ErrorKind::Unsupported);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {future}"))
                && msg.contains(&format!("version {VERSION}")),
            "error must name the found and supported versions: {msg}"
        );
    }

    #[test]
    fn geometry() {
        let s = sb();
        assert_eq!(s.data_start(), 2 + 1024);
        assert_eq!(s.data_blocks(), (1 << 20) - 1026);
    }
}
