//! The metadata journal.
//!
//! Every commit appends one CRC-protected record (block-aligned) to the
//! journal region; recovery replays records in order, stopping cleanly at
//! a torn tail. When the journal fills past half its capacity, the store
//! *compacts*: it rewrites the whole committed checkpoint table as a
//! single snapshot record at the journal start. Snapshot + deltas is what
//! keeps per-checkpoint metadata cost low — the property the paper needs
//! to take "hundreds of checkpoints per second".

use std::collections::BTreeMap;

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};

use aurora_hw::BLOCK_SIZE;

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
/// it appended, a snapshot carries every record still reachable).
pub const REC_VERSION: u16 = 2;

/// A decoded journal record.
#[derive(Debug)]
pub enum JournalRecord {
    /// One committed checkpoint delta plus the sub-page delta records it
    /// appended, in ascending LSN order.
    Commit(Checkpoint, Vec<(Lsn, DeltaRecord)>),
    /// A checkpoint deletion (GC).
    Delete(CkptId),
    /// A compaction snapshot: the whole checkpoint table plus every
    /// still-reachable delta record.
    Snapshot(Vec<Checkpoint>, Vec<(Lsn, DeltaRecord)>),
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

/// Encodes a record, padded to a whole number of blocks.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut payload = Encoder::new();
    let tag = match rec {
        JournalRecord::Commit(c, deltas) => {
            c.encode(&mut payload);
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
    let mut e = Encoder::with_capacity(payload.len() + 16);
    e.record(tag, REC_VERSION, &payload);
    let mut bytes = e.into_vec();
    let padded = bytes.len().div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
    bytes.resize(padded, 0);
    bytes
}

/// Decodes every valid record from the journal bytes.
///
/// A CRC failure or short record is treated as the torn tail: everything
/// before it is returned, everything after is ignored. `used` bounds the
/// region the superblock vouches for.
pub fn decode_records(journal: &[u8], used: u64) -> Vec<JournalRecord> {
    let valid = &journal[..(used as usize).min(journal.len())];
    let mut records = Vec::new();
    let mut off = 0usize;
    while off + 12 <= valid.len() {
        let mut d = Decoder::new(&valid[off..]);
        let rec = match d.record() {
            Ok(r) => r,
            Err(_) => break, // Torn tail.
        };
        let consumed = d.position();
        let parsed = match rec.tag {
            TAG_COMMIT => {
                let mut pd = Decoder::new(rec.payload);
                Checkpoint::decode(&mut pd).and_then(|c| {
                    let deltas = decode_delta_section(&mut pd)?;
                    Ok(JournalRecord::Commit(c, deltas))
                })
            }
            TAG_DELETE => {
                let mut pd = Decoder::new(rec.payload);
                pd.u64().map(|id| JournalRecord::Delete(CkptId(id)))
            }
            TAG_SNAPSHOT => {
                let mut pd = Decoder::new(rec.payload);
                pd.seq(Checkpoint::decode).and_then(|cks| {
                    let deltas = decode_delta_section(&mut pd)?;
                    Ok(JournalRecord::Snapshot(cks, deltas))
                })
            }
            _ => break, // Unknown tag: stop conservatively.
        };
        match parsed {
            Ok(r) => records.push(r),
            Err(_) => break,
        }
        // Records are block-aligned on disk.
        off += consumed.div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
    }
    records
}

/// Replays records into a checkpoint table plus the delta-record log,
/// applying deletions via the same merge logic the live GC path uses.
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
            }
            JournalRecord::Commit(c, deltas) => {
                ckpts.insert(c.id.0, c);
                for (lsn, d) in deltas {
                    log.insert(lsn, d)?;
                }
            }
            JournalRecord::Delete(id) => {
                apply_delete(&mut ckpts, id)?;
            }
        }
    }
    Ok((ckpts, log))
}

/// Replay that tolerates stale records (recovery path): a delete of a
/// checkpoint that is already gone is skipped rather than fatal. This can
/// only arise from stale-but-CRC-valid tails after compaction, whose
/// content was already folded into the snapshot.
pub fn replay_lossy(records: Vec<JournalRecord>) -> (BTreeMap<u64, Checkpoint>, DeltaLog) {
    let mut ckpts: BTreeMap<u64, Checkpoint> = BTreeMap::new();
    let mut log = DeltaLog::default();
    for rec in records {
        match rec {
            JournalRecord::Snapshot(list, deltas) => {
                ckpts = list.into_iter().map(|c| (c.id.0, c)).collect();
                log = DeltaLog::default();
                for (lsn, d) in deltas {
                    let _ = log.insert(lsn, d);
                }
            }
            JournalRecord::Commit(c, deltas) => {
                ckpts.insert(c.id.0, c);
                for (lsn, d) in deltas {
                    let _ = log.insert(lsn, d);
                }
            }
            JournalRecord::Delete(id) => {
                let _ = apply_delete(&mut ckpts, id);
            }
        }
    }
    (ckpts, log)
}

/// Merges checkpoint `id` into its sole child and removes it.
///
/// Entries (pages, blobs, object births/deaths) the child does not
/// override are transferred — pointer moves only, no data rewrites. The
/// caller adjusts block refcounts for the dropped (overridden) pointers;
/// this function returns them.
pub fn apply_delete(
    ckpts: &mut BTreeMap<u64, Checkpoint>,
    id: CkptId,
) -> Result<Vec<crate::BlockPtr>> {
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
    let mut dropped = Vec::new();
    match children.first() {
        None => {
            // No child: every pointer the victim held is released.
            dropped.extend(victim.pages.values().copied());
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
                dropped.extend(take_object(&mut pages, oid));
                take_object(&mut heads, oid);
            }
            // A full page in the child supersedes the victim's page and
            // head for its key. A head the child overrides is simply
            // dropped — its records stay reachable through the child
            // chain's back-pointers when still needed, and the caller
            // prunes truly dead segments afterwards. A child head alone
            // keeps the victim's page: it is that chain's base.
            for key in child.pages.keys() {
                dropped.extend(pages.remove(key));
                heads.remove(key);
            }
            // The child's entries go on top of the victim's: `append`
            // merges two sorted maps in linear time, the child's entry
            // winning a shared key.
            pages.append(&mut child.pages);
            heads.append(&mut child.deltas);
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
                        child.pages.retain(|(o, _), _| *o != oid);
                        child.deltas.retain(|(o, _), _| *o != oid);
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

    #[test]
    fn record_roundtrip_and_torn_tail() {
        let mut c1 = ck(1, None);
        c1.pages.insert((ObjId(1), 0), BlockPtr(5));
        let bytes1 = encode_record(&JournalRecord::Commit(c1, Vec::new()));
        let bytes2 = encode_record(&JournalRecord::Delete(CkptId(1)));
        assert_eq!(bytes1.len() % BLOCK_SIZE, 0);

        let mut journal = Vec::new();
        journal.extend_from_slice(&bytes1);
        journal.extend_from_slice(&bytes2);
        // Append garbage that looks like a torn record.
        journal.extend_from_slice(&[0xFFu8; BLOCK_SIZE]);

        let recs = decode_records(&journal, journal.len() as u64);
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0], JournalRecord::Commit(_, _)));
        assert!(matches!(recs[1], JournalRecord::Delete(CkptId(1))));

        // Truncated `used` hides the second record.
        let recs = decode_records(&journal, bytes1.len() as u64);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn replay_snapshot_then_deltas() {
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 4));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.pages.insert((ObjId(1), 0), BlockPtr(20));
        let mut journal = Vec::new();
        journal.extend_from_slice(&encode_record(&JournalRecord::Snapshot(vec![c1], Vec::new())));
        journal.extend_from_slice(&encode_record(&JournalRecord::Commit(c2, Vec::new())));
        let (ckpts, log) = replay(decode_records(&journal, journal.len() as u64)).unwrap();
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
        let mut journal = Vec::new();
        journal.extend_from_slice(&encode_record(&JournalRecord::Commit(c1, Vec::new())));
        journal.extend_from_slice(&encode_record(&JournalRecord::Commit(
            c2,
            vec![(1, dr(1, 0, None, 1))],
        )));
        journal.extend_from_slice(&encode_record(&JournalRecord::Commit(
            c3,
            vec![(2, dr(1, 0, Some(1), 2))],
        )));
        let (ckpts, log) = replay(decode_records(&journal, journal.len() as u64)).unwrap();
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
        let snap = encode_record(&JournalRecord::Snapshot(
            ckpts.values().cloned().collect(),
            log.iter().map(|(l, r)| (l, r.clone())).collect(),
        ));
        let (ckpts2, log2) = replay(decode_records(&snap, snap.len() as u64)).unwrap();
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
        assert!(dropped.is_empty());
        let c2 = ckpts.get(&2).unwrap();
        assert_eq!(c2.pages.get(&(ObjId(1), 0)), Some(&BlockPtr(10)));
        assert_eq!(c2.deltas.get(&(ObjId(1), 0)), Some(&1));

        // Deleting c2 drops its (older) head: c3's chain still reaches
        // lsn 1 through its back-pointer, and the base moves to c3.
        let dropped = apply_delete(&mut ckpts, CkptId(2)).unwrap();
        assert!(dropped.is_empty());
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
        assert_eq!(dropped, vec![BlockPtr(11)]);
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
        ckpts.insert(1, c1);
        let dropped = apply_delete(&mut ckpts, CkptId(1)).unwrap();
        assert_eq!(dropped, vec![BlockPtr(10)]);
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
        assert_eq!(dropped, vec![BlockPtr(10)]);
        let c2 = ckpts.get(&2).unwrap();
        assert!(c2.deleted_objects.is_empty());
        assert_eq!(c2.new_objects, vec![(ObjId(1), 8)]);
        assert_eq!(c2.pages.get(&(ObjId(1), 3)), Some(&BlockPtr(23)));
        let after = crate::checkpoint::Image::fold(&ckpts, CkptId(2)).unwrap();
        assert_eq!(after, before, "the merge preserves the child's image");
    }
}
