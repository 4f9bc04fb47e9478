//! The metadata journal.
//!
//! Every commit appends one CRC-framed record (block-aligned) to the
//! active journal half, and that record is the commit point: the flush
//! queued behind it makes it, and every data extent submitted before it,
//! durable. Recovery finds the records by scanning the half frame by
//! frame and stops at the first frame that fails its checks — the torn
//! or never-written tail. When a record does not fit, the store
//! *compacts*: it writes the whole committed checkpoint table as one
//! snapshot record at the start of the idle half, and a superblock flip
//! switches halves. Snapshot + appended records is what keeps
//! per-checkpoint metadata cost low — the property the paper needs to
//! take "hundreds of checkpoints per second".
//!
//! A frame is one codec record ([`Encoder::record`]), padded with zeros
//! to whole blocks:
//!
//! ```text
//! tag:u16 version:u16 len:u32 generation:u64 payload[len] crc32c:u32
//! ```
//!
//! The CRC covers everything before it. `generation` is the active
//! half's generation — the superblock epoch that switched to it — so a
//! CRC-valid record left in a half by its previous use never replays.
//! A `Commit` payload starts with the record's page digest (see
//! [`page_digest`]), which recovery checks on the tail record.

use std::collections::BTreeMap;

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::rng::mix64;

use aurora_hw::{BlockDev, BLOCK_SIZE};
use aurora_vm::PageData;

use crate::checkpoint::{take_object, Checkpoint, CkptId};
use crate::deltalog::{DeltaLog, DeltaRecord, Lsn};

/// Journal record tags.
pub const TAG_COMMIT: u16 = 1;
/// Deletes (and merges) one checkpoint.
pub const TAG_DELETE: u16 = 2;
/// Full checkpoint-table snapshot (compaction).
pub const TAG_SNAPSHOT: u16 = 3;

/// Record format version. v2 added the delta-record sections (the
/// sub-page delta log rides in the journal: a commit carries the records
/// it appended, a snapshot carries every record still reachable). v3
/// frames carry the half's generation under a CRC over header and
/// payload, and a commit carries its page digest.
pub const REC_VERSION: u16 = 3;

/// The page digest of a `Commit` that recovery cannot check.
pub const UNCHECKED: u64 = 0;

/// A decoded journal record.
#[derive(Debug)]
pub enum JournalRecord {
    /// One committed checkpoint delta plus the sub-page delta records it
    /// appended, in ascending LSN order.
    Commit {
        /// The checkpoint.
        ckpt: Checkpoint,
        /// The delta records it appended.
        deltas: Vec<(Lsn, DeltaRecord)>,
        /// The [`page_digest`] of the blocks `ckpt.pages` references.
        digest: u64,
    },
    /// A checkpoint deletion (GC).
    Delete(CkptId),
    /// A compaction snapshot: the whole checkpoint table plus every
    /// still-reachable delta record.
    Snapshot(Vec<Checkpoint>, Vec<(Lsn, DeltaRecord)>),
}

/// A `Commit`'s page digest: the content hashes of the full-page blocks
/// its `pages` map references, folded in key order. [`UNCHECKED`] when
/// any block has no hash to give (a store without dedup, or a block of a
/// store reopened from the medium and not yet read back).
pub fn page_digest(hashes: impl IntoIterator<Item = Option<u64>>) -> u64 {
    let mut acc = 0x6a09_e667_f3bc_c908;
    for h in hashes {
        let Some(h) = h else { return UNCHECKED };
        acc = mix64(acc ^ h);
    }
    // A fold that lands on the sentinel is moved off it.
    acc.max(UNCHECKED + 1)
}

fn encode_delta_section(e: &mut Encoder, records: &[(Lsn, DeltaRecord)]) {
    e.varint(records.len() as u64);
    for (lsn, rec) in records {
        e.varint(*lsn);
        rec.encode(e);
    }
}

fn decode_delta_section(d: &mut Decoder<'_>) -> Result<Vec<(Lsn, DeltaRecord)>> {
    let n = d.varint()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let lsn = d.varint()?;
        let rec = DeltaRecord::decode(d)?;
        out.push((lsn, rec));
    }
    Ok(out)
}

/// Encodes a record as a frame of `generation`, padded to a whole number
/// of blocks.
pub fn encode_frame(rec: &JournalRecord, generation: u64) -> Vec<u8> {
    let mut payload = Encoder::new();
    let tag = match rec {
        JournalRecord::Commit {
            ckpt,
            deltas,
            digest,
        } => {
            payload.u64(*digest);
            ckpt.encode(&mut payload);
            encode_delta_section(&mut payload, deltas);
            TAG_COMMIT
        }
        JournalRecord::Delete(id) => {
            payload.u64(id.0);
            TAG_DELETE
        }
        JournalRecord::Snapshot(cks, deltas) => {
            payload.varint(cks.len() as u64);
            for c in cks {
                c.encode(&mut payload);
            }
            encode_delta_section(&mut payload, deltas);
            TAG_SNAPSHOT
        }
    };
    let payload = payload.into_vec();
    let mut e = Encoder::with_capacity(payload.len() + 32);
    e.record(tag, REC_VERSION, generation, &payload);
    let mut bytes = e.into_vec();
    bytes.resize(padded(bytes.len()), 0);
    bytes
}

/// `len` rounded up to whole blocks.
fn padded(len: usize) -> usize {
    len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE
}

/// The padded length of the frame that starts `block`, if its header
/// claims this record version and `generation`; its CRC is not checked
/// yet.
fn frame_len(block: &[u8], generation: u64) -> Option<u64> {
    let h = Decoder::new(block).record_header().ok()?;
    let ours = h.version == REC_VERSION && h.generation == generation;
    ours.then_some(padded(h.record_len()) as u64)
}

/// Decodes one whole frame. `Ok(None)` when its CRC fails (a torn
/// frame); an error when a frame whose CRC holds does not decode.
pub fn decode_frame(frame: &[u8]) -> Result<Option<JournalRecord>> {
    let Ok(rec) = Decoder::new(frame).record() else {
        return Ok(None);
    };
    let mut pd = Decoder::new(rec.payload);
    let record = match rec.tag {
        TAG_COMMIT => {
            let digest = pd.u64()?;
            let ckpt = Checkpoint::decode(&mut pd)?;
            let deltas = decode_delta_section(&mut pd)?;
            JournalRecord::Commit {
                ckpt,
                deltas,
                digest,
            }
        }
        TAG_DELETE => JournalRecord::Delete(CkptId(pd.u64()?)),
        TAG_SNAPSHOT => {
            let cks = pd.seq(Checkpoint::decode)?;
            JournalRecord::Snapshot(cks, decode_delta_section(&mut pd)?)
        }
        tag => return Err(Error::corrupt(format!("journal frame with unknown tag {tag}"))),
    };
    Ok(Some(record))
}

/// A record recovered by [`scan`].
#[derive(Debug)]
pub struct Frame {
    /// The record.
    pub record: JournalRecord,
    /// Where its frame ends, in bytes from the start of the half.
    pub end: u64,
}

/// Bytes the scan reads ahead per request: 64 blocks.
const SCAN_WINDOW: u64 = 64 * BLOCK_SIZE as u64;

/// Reads the journal half at `base` (`half_bytes` long) frame by frame
/// from its start, stopping at the first frame whose header, length,
/// generation or CRC does not check out: that is the tail. Reads go
/// ahead in windows of [`SCAN_WINDOW`] bytes; a frame running past the
/// window extends it by its missing bytes plus the next window, so the
/// scan pays one request per window, not per frame, reads no byte
/// twice, and holds at most a window and a frame, never the whole half.
/// Whether the scan reads on past a window depends on the frames in it,
/// so it waits for each window's bytes.
pub fn scan(
    dev: &mut dyn BlockDev,
    base: u64,
    half_bytes: u64,
    generation: u64,
) -> Result<Vec<Frame>> {
    let block = BLOCK_SIZE as u64;
    let mut window = Window {
        base,
        half_bytes,
        at: 0,
        bytes: Vec::new(),
    };
    let mut frames = Vec::new();
    let mut off = 0u64;
    while off + block <= half_bytes {
        let head = window.read(dev, off, block)?;
        let Some(len) = head.and_then(|b| frame_len(b, generation)) else {
            break;
        };
        if off + len > half_bytes {
            break;
        }
        let Some(frame) = window.read(dev, off, len)? else {
            break;
        };
        let Some(record) = decode_frame(frame)? else { break };
        off += len;
        frames.push(Frame { record, end: off });
    }
    Ok(frames)
}

/// The generation of the frame at the start of the half at `base`, if
/// one checks out. Each generation writes its half from the start, so no
/// frame in the half carries a later one.
pub fn first_generation(dev: &mut dyn BlockDev, base: u64, half_bytes: u64) -> Result<Option<u64>> {
    let mut head = PageData::Zero;
    let done = dev.read_blocks(base, std::slice::from_mut(&mut head))?;
    dev.clock().advance_to(done);
    let head = head.bytes();
    let Ok(h) = Decoder::new(&head).record_header() else {
        return Ok(None);
    };
    let Some(len) = frame_len(&head, h.generation).filter(|&len| len <= half_bytes) else {
        return Ok(None);
    };
    let mut bufs = vec![PageData::Zero; (len / BLOCK_SIZE as u64) as usize];
    let done = dev.read_blocks(base, &mut bufs)?;
    dev.clock().advance_to(done);
    let frame: Vec<u8> = bufs.iter().flat_map(PageData::materialize).collect();
    Ok(Decoder::new(&frame).record().ok().map(|r| r.generation))
}

/// The scan's read-ahead over one journal half: `bytes` are the half's
/// from offset `at`.
struct Window {
    base: u64,
    half_bytes: u64,
    at: u64,
    bytes: Vec<u8>,
}

impl Window {
    /// The half's `len` bytes at `off`, reading on from the window's end
    /// when they run past it (dropping what lies before `off`). `None`
    /// past the end of the half.
    fn read(&mut self, dev: &mut dyn BlockDev, off: u64, len: u64) -> Result<Option<&[u8]>> {
        let block = BLOCK_SIZE as u64;
        let end = (off + len).min(self.half_bytes);
        if end > self.at + self.bytes.len() as u64 {
            let consumed = ((off - self.at) as usize).min(self.bytes.len());
            self.bytes.drain(..consumed);
            self.at = off;
            let from = off + self.bytes.len() as u64;
            let to = end.max(from + SCAN_WINDOW).min(self.half_bytes);
            let mut bufs = vec![PageData::Zero; ((to - from) / block) as usize];
            let done = dev.read_blocks(self.base + from / block, &mut bufs)?;
            dev.clock().advance_to(done);
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(&b.bytes()));
        }
        let start = (off - self.at) as usize;
        Ok(self.bytes.get(start..start + len as usize))
    }
}

/// Replays records into a checkpoint table plus the delta-record log,
/// applying deletions via the same merge logic the live GC path uses.
///
/// The log's reference counts are rebuilt as the records go: each
/// replayed checkpoint holds its heads (a snapshot, every head of its
/// table), and each replayed delete releases the heads its merge drops,
/// so the log comes out holding exactly the records the table reaches.
pub fn replay(records: Vec<JournalRecord>) -> Result<(BTreeMap<u64, Checkpoint>, DeltaLog)> {
    let mut ckpts: BTreeMap<u64, Checkpoint> = BTreeMap::new();
    let mut log = DeltaLog::default();
    for rec in records {
        match rec {
            JournalRecord::Snapshot(list, deltas) => {
                ckpts = list.into_iter().map(|c| (c.id.0, c)).collect();
                log = DeltaLog::default();
                for (lsn, d) in deltas {
                    log.insert(lsn, d)?;
                }
                for ck in ckpts.values() {
                    ck.deltas.values().for_each(|&head| log.hold(head));
                }
            }
            JournalRecord::Commit { ckpt, deltas, .. } => {
                for (lsn, d) in deltas {
                    log.insert(lsn, d)?;
                }
                ckpt.deltas.values().for_each(|&head| log.hold(head));
                ckpts.insert(ckpt.id.0, ckpt);
            }
            JournalRecord::Delete(id) => {
                for head in apply_delete(&mut ckpts, id)?.heads {
                    log.release(head);
                }
            }
        }
    }
    Ok((ckpts, log))
}

/// What a merge drops: the references no surviving checkpoint holds.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Dropped {
    /// Page pointers whose block references the caller releases.
    pub blocks: Vec<crate::BlockPtr>,
    /// Delta heads whose holds the caller releases
    /// ([`DeltaLog::release`]).
    pub heads: Vec<Lsn>,
}

/// Merges checkpoint `id` into its sole child and removes it.
///
/// Entries (pages, blobs, object births/deaths) the child does not
/// override are transferred — pointer moves only, no data rewrites. The
/// entries the merge drops — the victim's pages and heads the child
/// overrides with a page or a head, the pages and heads of objects the
/// child ended, a born-in-victim, deleted-in-child incarnation's, and
/// everything the victim holds when it has no child — are returned for
/// the caller to release.
pub fn apply_delete(ckpts: &mut BTreeMap<u64, Checkpoint>, id: CkptId) -> Result<Dropped> {
    let children: Vec<u64> = ckpts
        .values()
        .filter(|c| c.parent == Some(id))
        .map(|c| c.id.0)
        .collect();
    if children.len() > 1 {
        return Err(Error::invalid(format!(
            "checkpoint {} has {} children; GC requires a linear chain",
            id.0,
            children.len()
        )));
    }
    let victim = ckpts
        .remove(&id.0)
        .ok_or_else(|| Error::not_found(format!("checkpoint {}", id.0)))?;
    let mut dropped = Dropped::default();
    match children.first() {
        None => {
            // No child: every pointer and head the victim held goes.
            dropped.blocks.extend(victim.pages.values().copied());
            dropped.heads.extend(victim.deltas.values().copied());
        }
        Some(&child_id) => {
            let child = ckpts.get_mut(&child_id).ok_or_else(|| {
                Error::internal(format!("checkpoint {child_id} vanished during delete"))
            })?;
            child.parent = victim.parent;
            let Checkpoint {
                mut pages,
                deltas: mut heads,
                blobs,
                new_objects,
                deleted_objects,
                ..
            } = victim;
            // A child that deleted or re-created an object does not need
            // the old incarnation's pages or heads.
            for oid in child.ended_objects() {
                dropped.blocks.extend(take_object(&mut pages, oid));
                dropped.heads.extend(take_object(&mut heads, oid));
            }
            // A full page in the child supersedes the victim's page and
            // head for its key, and a child head supersedes the victim's
            // head. A dropped head's records stay live while the child
            // chain's back-pointers still name them. A child head alone
            // keeps the victim's page: it is that chain's base.
            for key in child.pages.keys() {
                dropped.blocks.extend(pages.remove(key));
                dropped.heads.extend(heads.remove(key));
            }
            for key in child.deltas.keys() {
                dropped.heads.extend(heads.remove(key));
            }
            // The child's entries go on top of the victim's, inserted
            // one by one: O(child · log image), where `append` would
            // rebuild the victim's maps, which hold the whole image.
            pages.extend(std::mem::take(&mut child.pages));
            heads.extend(std::mem::take(&mut child.deltas));
            child.pages = pages;
            child.deltas = heads;
            for (k, v) in blobs {
                child.blobs.entry(k).or_insert(v);
            }
            for (oid, size) in new_objects {
                if !child.deleted_objects.contains(&oid) {
                    child.new_objects.push((oid, size));
                } else {
                    // Born in the victim, deleted in the child: that
                    // incarnation never existed as far as later
                    // checkpoints care. A child that re-created the id
                    // keeps the new incarnation's birth and pages.
                    child.deleted_objects.retain(|&o| o != oid);
                    if !child.new_objects.iter().any(|(o, _)| *o == oid) {
                        dropped.blocks.extend(take_object(&mut child.pages, oid));
                        dropped.heads.extend(take_object(&mut child.deltas, oid));
                    }
                }
            }
            for oid in deleted_objects {
                if !child.deleted_objects.contains(&oid) {
                    child.deleted_objects.push(oid);
                }
            }
        }
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::resolve_page;
    use crate::{BlockPtr, ObjId};
    use aurora_sim::time::SimTime;

    fn ck(id: u64, parent: Option<u64>) -> Checkpoint {
        Checkpoint {
            id: CkptId(id),
            parent: parent.map(CkptId),
            name: None,
            new_objects: Vec::new(),
            deleted_objects: Vec::new(),
            pages: BTreeMap::new(),
            deltas: BTreeMap::new(),
            blobs: BTreeMap::new(),
            durable_at: SimTime::ZERO,
        }
    }

    fn dr(oid: u64, idx: u64, prev: Option<Lsn>, chain_len: u32) -> DeltaRecord {
        DeltaRecord {
            oid: ObjId(oid),
            idx,
            epoch: 1,
            base: BlockPtr(10),
            prev,
            chain_len,
            extents: vec![(0, vec![chain_len as u8])],
        }
    }

    fn commit(c: Checkpoint, deltas: Vec<(Lsn, DeltaRecord)>) -> JournalRecord {
        JournalRecord::Commit {
            ckpt: c,
            deltas,
            digest: UNCHECKED,
        }
    }

    /// A device holding `frames` back to back from block `BASE`.
    const BASE: u64 = 2;
    const HALF: u64 = 256 * BLOCK_SIZE as u64;
    fn device(frames: &[Vec<u8>]) -> aurora_hw::ModelDev {
        let clock = aurora_sim::SimClock::new();
        let mut dev = aurora_hw::ModelDev::nvme(clock, "nvme0", 1024);
        let mut lba = BASE;
        for f in frames {
            let blocks: Vec<PageData> = f.chunks(BLOCK_SIZE).map(PageData::from_bytes).collect();
            BlockDev::write_blocks(&mut dev, lba, &blocks).unwrap();
            lba += (f.len() / BLOCK_SIZE) as u64;
        }
        dev
    }

    fn scanned(frames: &[Vec<u8>], generation: u64) -> Vec<Frame> {
        scan(&mut device(frames), BASE, HALF, generation).unwrap()
    }

    /// Encodes each record as a frame of generation 1 and scans them back.
    fn through_frames(records: &[JournalRecord]) -> Vec<JournalRecord> {
        let frames: Vec<Vec<u8>> = records.iter().map(|r| encode_frame(r, 1)).collect();
        scanned(&frames, 1).into_iter().map(|f| f.record).collect()
    }

    #[test]
    fn frame_roundtrip_carries_the_generation_and_the_digest() {
        let mut c1 = ck(1, None);
        c1.pages.insert((ObjId(1), 0), BlockPtr(5));
        let digest = page_digest([Some(0xfeed), Some(7)]);
        let rec = JournalRecord::Commit {
            ckpt: c1,
            deltas: vec![(1, dr(1, 0, None, 1))],
            digest,
        };
        let bytes = encode_frame(&rec, 0x1234_5678_9abc);
        assert_eq!(bytes.len() % BLOCK_SIZE, 0);
        assert_eq!(frame_len(&bytes, 0x1234_5678_9abc), Some(bytes.len() as u64));
        assert_eq!(frame_len(&bytes, 0x1234_5678_9abd), None, "another generation's");
        match decode_frame(&bytes).unwrap().unwrap() {
            JournalRecord::Commit {
                ckpt,
                deltas,
                digest: d,
            } => {
                assert_eq!(d, digest);
                assert_eq!(ckpt.pages.get(&(ObjId(1), 0)), Some(&BlockPtr(5)));
                assert_eq!(deltas.len(), 1);
            }
            other => panic!("decoded {other:?}"),
        }
        // The generation is under the CRC: a rewritten one is a torn frame.
        let mut forged = bytes.clone();
        forged[8] ^= 1;
        assert!(decode_frame(&forged).unwrap().is_none());
    }

    #[test]
    fn page_digest_is_ordered_and_never_the_sentinel() {
        let ab = page_digest([Some(1), Some(2)]);
        assert_ne!(ab, page_digest([Some(2), Some(1)]), "key order matters");
        assert_ne!(ab, page_digest([Some(1), Some(3)]));
        assert_ne!(page_digest([]), UNCHECKED);
        assert_eq!(page_digest([Some(1), None]), UNCHECKED);
    }

    #[test]
    fn record_roundtrip_and_torn_tail() {
        let mut c1 = ck(1, None);
        c1.pages.insert((ObjId(1), 0), BlockPtr(5));
        let f1 = encode_frame(&commit(c1, Vec::new()), 1);
        let f2 = encode_frame(&JournalRecord::Delete(CkptId(1)), 1);
        let mut torn = encode_frame(&JournalRecord::Delete(CkptId(2)), 1);
        torn[20] ^= 0xff;
        let frames = scanned(&[f1.clone(), f2.clone(), torn, f2.clone()], 1);
        assert_eq!(frames.len(), 2, "nothing past the torn frame replays");
        assert!(matches!(frames[0].record, JournalRecord::Commit { .. }));
        assert!(matches!(frames[1].record, JournalRecord::Delete(CkptId(1))));
        assert_eq!(frames[1].end, (f1.len() + f2.len()) as u64);
    }

    #[test]
    fn scan_never_replays_a_stale_generation() {
        let old = encode_frame(&JournalRecord::Delete(CkptId(9)), 1);
        let snap = encode_frame(&JournalRecord::Snapshot(vec![ck(1, None)], Vec::new()), 2);
        // Records of the half's previous use sit behind its new snapshot:
        // their CRCs hold, but they are of generation 1.
        let frames = scanned(&[snap, old.clone(), old], 2);
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0].record, JournalRecord::Snapshot(..)));
        assert!(scanned(&[encode_frame(&JournalRecord::Delete(CkptId(9)), 1)], 2).is_empty());
    }

    #[test]
    fn scan_stops_at_a_rotten_length() {
        let f1 = encode_frame(&JournalRecord::Delete(CkptId(1)), 1);
        let mut rotten = encode_frame(&JournalRecord::Delete(CkptId(2)), 1);
        // A length running past the end of the half is never read.
        rotten[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(scanned(&[f1.clone(), rotten], 1).len(), 1);
        // A wrong length inside the half fails the CRC.
        let mut short = encode_frame(&JournalRecord::Delete(CkptId(2)), 1);
        short[4..8].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(scanned(&[f1, short], 1).len(), 1);
    }

    #[test]
    fn scan_reads_frames_across_and_past_its_window() {
        // A small frame, one straddling the first read-ahead window and
        // one larger than a window, then the tail.
        let big = |id: u64, blocks: usize| {
            let mut c = ck(id, None);
            c.blobs.insert("big".into(), vec![id as u8; blocks * BLOCK_SIZE]);
            encode_frame(&commit(c, Vec::new()), 1)
        };
        let small = encode_frame(&JournalRecord::Delete(CkptId(1)), 1);
        let (straddle, huge) = (big(2, 60), big(3, 70));
        assert!(huge.len() as u64 > SCAN_WINDOW);
        let frames = scanned(&[small.clone(), straddle.clone(), huge.clone()], 1);
        assert_eq!(frames.len(), 3);
        let ends: Vec<u64> = frames.iter().map(|f| f.end).collect();
        let (a, b) = (small.len() as u64, straddle.len() as u64);
        assert_eq!(ends, vec![a, a + b, a + b + huge.len() as u64]);
        let JournalRecord::Commit { ckpt, .. } = &frames[2].record else {
            panic!("decoded {:?}", frames[2].record);
        };
        assert_eq!(ckpt.blobs["big"], vec![3u8; 70 * BLOCK_SIZE]);
    }

    #[test]
    fn replay_refuses_a_delete_of_a_missing_checkpoint() {
        assert!(replay(vec![JournalRecord::Delete(CkptId(4))]).is_err());
    }

    #[test]
    fn replay_snapshot_then_deltas() {
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 4));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.pages.insert((ObjId(1), 0), BlockPtr(20));
        let records = through_frames(&[
            JournalRecord::Snapshot(vec![c1], Vec::new()),
            commit(c2, Vec::new()),
        ]);
        let (ckpts, log) = replay(records).unwrap();
        assert_eq!(ckpts.len(), 2);
        assert!(log.is_empty());
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), Some(BlockPtr(20)));
    }

    #[test]
    fn replay_rebuilds_delta_log() {
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 4));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deltas.insert((ObjId(1), 0), 1);
        let mut c3 = ck(3, Some(2));
        c3.deltas.insert((ObjId(1), 0), 2);
        let records = through_frames(&[
            commit(c1, Vec::new()),
            commit(c2, vec![(1, dr(1, 0, None, 1))]),
            commit(c3, vec![(2, dr(1, 0, Some(1), 2))]),
        ]);
        let (ckpts, log) = replay(records).unwrap();
        assert_eq!(ckpts.len(), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.next_lsn(), 3);
        assert_eq!(log.chain(2).unwrap().len(), 2);
        use crate::checkpoint::{resolve_ref, PageRef};
        assert_eq!(
            resolve_ref(&ckpts, CkptId(3), ObjId(1), 0),
            Some(PageRef::Delta(2))
        );
        // A compaction snapshot carries the records forward verbatim.
        let snap = JournalRecord::Snapshot(
            ckpts.values().cloned().collect(),
            log.iter().map(|(l, r)| (l, r.clone())).collect(),
        );
        let (ckpts2, log2) = replay(through_frames(&[snap])).unwrap();
        assert_eq!(ckpts2.len(), 3);
        assert_eq!(log2.len(), 2);
        assert_eq!(log2.next_lsn(), 3);
    }

    #[test]
    fn delete_merge_is_delta_aware() {
        // c1 holds the base image; c2 a delta head; c3 a newer head.
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deltas.insert((ObjId(1), 0), 1);
        let mut c3 = ck(3, Some(2));
        c3.deltas.insert((ObjId(1), 0), 2);
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        ckpts.insert(3, c3);

        // Deleting c1 inherits the chain's base block into c2 — the base
        // must NOT be released while a chain still replays over it.
        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        assert_eq!(dropped, Dropped::default());
        let c2 = ckpts.get(&2).unwrap();
        assert_eq!(c2.pages.get(&(ObjId(1), 0)), Some(&BlockPtr(10)));
        assert_eq!(c2.deltas.get(&(ObjId(1), 0)), Some(&1));

        // Deleting c2 drops its (older) head: c3's chain still reaches
        // lsn 1 through its back-pointer, and the base moves to c3.
        let dropped = apply_delete(&mut ckpts, CkptId(2)).unwrap();
        assert!(dropped.blocks.is_empty());
        assert_eq!(dropped.heads, vec![1]);
        let c3 = ckpts.get(&3).unwrap();
        assert_eq!(c3.pages.get(&(ObjId(1), 0)), Some(&BlockPtr(10)));
        assert_eq!(c3.deltas.get(&(ObjId(1), 0)), Some(&2));
    }

    #[test]
    fn delete_merges_into_child() {
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        c1.pages.insert((ObjId(1), 1), BlockPtr(11));
        c1.blobs.insert("meta".into(), vec![1]);
        let mut c2 = ck(2, Some(1));
        c2.pages.insert((ObjId(1), 1), BlockPtr(21));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);

        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        // Page 1 was overridden by the child: its old block is released.
        assert_eq!(dropped.blocks, vec![BlockPtr(11)]);
        // Page 0 and the blob transferred; reads still resolve.
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), Some(BlockPtr(10)));
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 1), Some(BlockPtr(21)));
        let c2 = ckpts.get(&2).unwrap();
        assert_eq!(c2.parent, None);
        assert_eq!(c2.blobs.get("meta").unwrap(), &vec![1]);
        assert_eq!(c2.new_objects, vec![(ObjId(1), 8)]);
    }

    #[test]
    fn delete_last_checkpoint_releases_everything() {
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        c1.deltas.insert((ObjId(1), 0), 4);
        ckpts.insert(1, c1);
        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        assert_eq!(dropped.blocks, vec![BlockPtr(10)]);
        assert_eq!(dropped.heads, vec![4]);
        assert!(ckpts.is_empty());
    }

    #[test]
    fn delete_with_branches_refused() {
        let mut ckpts = BTreeMap::new();
        ckpts.insert(1, ck(1, None));
        ckpts.insert(2, ck(2, Some(1)));
        ckpts.insert(3, ck(3, Some(1)));
        assert!(apply_delete(&mut ckpts, CkptId(1)).is_err());
    }

    #[test]
    fn delete_merge_keeps_a_recreated_incarnation() {
        // c1 births object 1; c2 deletes it and re-creates it with a
        // page of its own. Merging c1 into c2 cancels c1's incarnation
        // and must keep c2's.
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deleted_objects.push(ObjId(1));
        c2.new_objects.push((ObjId(1), 8));
        c2.pages.insert((ObjId(1), 3), BlockPtr(23));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        let before = crate::checkpoint::Image::fold(&ckpts, CkptId(2)).unwrap();
        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        assert_eq!(dropped.blocks, vec![BlockPtr(10)]);
        let c2 = ckpts.get(&2).unwrap();
        assert!(c2.deleted_objects.is_empty());
        assert_eq!(c2.new_objects, vec![(ObjId(1), 8)]);
        assert_eq!(c2.pages.get(&(ObjId(1), 3)), Some(&BlockPtr(23)));
        let after = crate::checkpoint::Image::fold(&ckpts, CkptId(2)).unwrap();
        assert_eq!(after, before, "the merge preserves the child's image");
    }

    /// The heads of every checkpoint in `ckpts`, sorted: a multiset.
    fn all_heads(ckpts: &BTreeMap<u64, Checkpoint>) -> Vec<Lsn> {
        let mut heads: Vec<Lsn> = ckpts
            .values()
            .flat_map(|c| c.deltas.values().copied())
            .collect();
        heads.sort_unstable();
        heads
    }

    #[test]
    fn delete_reports_exactly_the_heads_its_merge_drops() {
        // c1: heads on objects 1 and 2; c2 (the child) overrides object
        // 1 page 0 with a page and page 1 with a head, and ends object 2.
        let mut c1 = ck(1, None);
        c1.new_objects.extend([(ObjId(1), 8), (ObjId(2), 8)]);
        let entries = [
            ((1, 0), 10, 1),
            ((1, 1), 11, 2),
            ((1, 2), 12, 3),
            ((2, 0), 13, 4),
        ];
        for ((oid, idx), ptr, lsn) in entries {
            c1.pages.insert((ObjId(oid), idx), BlockPtr(ptr));
            c1.deltas.insert((ObjId(oid), idx), lsn);
        }
        let mut c2 = ck(2, Some(1));
        c2.pages.insert((ObjId(1), 0), BlockPtr(20));
        c2.deltas.insert((ObjId(1), 1), 5);
        c2.deleted_objects.push(ObjId(2));
        let mut ckpts: BTreeMap<u64, Checkpoint> = [(1, c1), (2, c2)].into();
        let before = all_heads(&ckpts);
        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        let mut heads = dropped.heads.clone();
        heads.sort_unstable();
        assert_eq!(heads, vec![1, 2, 4]);
        // Dropped plus surviving heads is the multiset the two held.
        let mut after = all_heads(&ckpts);
        after.extend(&dropped.heads);
        after.sort_unstable();
        assert_eq!(after, before);
        let moved = ckpts.get(&2).unwrap().deltas.get(&(ObjId(1), 2));
        assert_eq!(moved, Some(&3), "moved, not dropped");
    }

    #[test]
    fn replayed_deletes_free_the_chains_their_merges_drop() {
        // lsn 1 <- 2 is object 1 page 0's chain, headed in c2 and c3; c4
        // overwrites the page with a full image.
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 4));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deltas.insert((ObjId(1), 0), 1);
        let mut c3 = ck(3, Some(2));
        c3.deltas.insert((ObjId(1), 0), 2);
        let mut c4 = ck(4, Some(3));
        c4.pages.insert((ObjId(1), 0), BlockPtr(40));
        let commits = [
            commit(c1, Vec::new()),
            commit(c2, vec![(1, dr(1, 0, None, 1))]),
            commit(c3, vec![(2, dr(1, 0, Some(1), 2))]),
            commit(c4, Vec::new()),
        ];
        let frames: Vec<Vec<u8>> = commits.iter().map(|r| encode_frame(r, 1)).collect();
        let replayed = |deletes: &[u64]| {
            let mut frames = frames.clone();
            let delete = |&d: &u64| encode_frame(&JournalRecord::Delete(CkptId(d)), 1);
            frames.extend(deletes.iter().map(delete));
            let records = scanned(&frames, 1).into_iter().map(|f| f.record).collect();
            replay(records).unwrap().1
        };
        let log = replayed(&[]);
        assert_eq!([log.refs(1), log.refs(2)], [2, 1]);
        // c2's head goes, but record 2's back-pointer still names lsn 1.
        let log = replayed(&[2]);
        assert_eq!(log.len(), 2);
        assert_eq!([log.refs(1), log.refs(2)], [1, 1]);
        // c3 merges into c4, whose page supersedes the whole chain.
        let log = replayed(&[2, 3]);
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
        assert_eq!(log.next_lsn(), 3);
    }
}
