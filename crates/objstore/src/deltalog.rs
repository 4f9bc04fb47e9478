//! Sub-page delta records and the per-store delta log.
//!
//! "The log *is* the checkpoint": when an incremental flush finds a page
//! whose dirty footprint is far below 4 KiB, it appends a [`DeltaRecord`]
//! — the dirty byte extents plus a `prev` back-pointer into the page's
//! redo chain — to the journal instead of writing a full page image.
//! Restore materializes such a page lazily: read the chain's base image
//! (a real, refcounted data block) and replay the chain in LSN order.
//!
//! Chain invariants (enforced by [`DeltaLog`] and checked by fsck/scrub):
//!
//! * `prev < lsn` — back-pointers are strictly monotonic, so chains are
//!   acyclic and replay order is simply ascending LSN.
//! * Every record in a chain shares the chain's `base` block pointer; the
//!   block ref is owned by whichever checkpoint's page map carries it,
//!   never by the records themselves.
//! * `chain_len` counts records from the base (head record holds the
//!   chain's length); a full-image write truncates the chain.
//! * Every live record carries a reference count: the checkpoint
//!   `deltas` entries that name it plus the live records whose `prev`
//!   names it. A commit holds each head it adds, and GC releases the heads
//!   its merge drops ([`DeltaLog::release`]); a record whose count reaches
//!   zero is dead and leaves the log, releasing its `prev` in turn. The
//!   journal bytes it occupied are reclaimed at the next compaction
//!   snapshot.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use aurora_sim::codec::{varint_len, Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::Words;
use aurora_vm::PageData;

use crate::{BlockPtr, ObjId};

/// Log sequence number of a delta record (store-wide, monotonic).
pub type Lsn = u64;

/// One sub-page delta: the dirty byte extents a flush captured for a
/// page, chained onto the page's previous delta (or its base image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Object the page belongs to.
    pub oid: ObjId,
    /// Page index within the object.
    pub idx: u64,
    /// Checkpoint epoch that produced this record (informational).
    pub epoch: u64,
    /// The chain's base image: a live, refcounted data block.
    pub base: BlockPtr,
    /// Previous record in this page's redo chain (`None` = first after
    /// the base image). Invariant: `prev < lsn`.
    pub prev: Option<Lsn>,
    /// Records from the base up to and including this one.
    pub chain_len: u32,
    /// Dirty extents: `(byte offset, new bytes)`, applied in order.
    pub extents: Vec<(u32, Vec<u8>)>,
}

impl DeltaRecord {
    /// Encodes the record (journal payload format).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.oid.0);
        e.varint(self.idx);
        e.varint(self.epoch);
        e.varint(self.base.0);
        e.option(self.prev.as_ref(), |e, p| e.varint(*p));
        e.varint(self.chain_len as u64);
        e.varint(self.extents.len() as u64);
        for (off, bytes) in &self.extents {
            e.varint(*off as u64);
            e.bytes(bytes);
        }
    }

    /// Decodes a record from a journal payload.
    pub fn decode(d: &mut Decoder<'_>) -> Result<DeltaRecord> {
        let oid = ObjId(d.u64()?);
        let idx = d.varint()?;
        let epoch = d.varint()?;
        let base = BlockPtr(d.varint()?);
        let prev = d.option(|d| d.varint())?;
        let chain_len = d.varint()? as u32;
        let nextents = d.varint()? as usize;
        let mut extents = Vec::with_capacity(nextents.min(64));
        for _ in 0..nextents {
            let off = d.varint()? as u32;
            let bytes = d.bytes()?.to_vec();
            if off as usize + bytes.len() > aurora_vm::PAGE_SIZE {
                return Err(Error::corrupt("delta extent past page end"));
            }
            extents.push((off, bytes));
        }
        Ok(DeltaRecord { oid, idx, epoch, base, prev, chain_len, extents })
    }

    /// Encoded size in bytes (what the record costs in the journal),
    /// summed field by field as [`DeltaRecord::encode`] writes them.
    pub fn encoded_len(&self) -> usize {
        let extents: usize = self
            .extents
            .iter()
            .map(|(off, bytes)| {
                varint_len(*off as u64) + varint_len(bytes.len() as u64) + bytes.len()
            })
            .sum();
        8 + varint_len(self.idx)
            + varint_len(self.epoch)
            + varint_len(self.base.0)
            + 1
            + self.prev.map_or(0, varint_len)
            + varint_len(self.chain_len as u64)
            + varint_len(self.extents.len() as u64)
            + extents
    }

    /// Total dirty payload bytes across the record's extents.
    pub fn payload_bytes(&self) -> usize {
        self.extents.iter().map(|(_, b)| b.len()).sum()
    }

    /// Applies the record's extents on top of `page`, in place
    /// ([`PageData::write`]).
    pub fn apply(&self, page: &mut PageData) {
        for (off, bytes) in &self.extents {
            page.write(*off as usize, bytes);
        }
    }
}

/// The in-memory delta-record table, rebuilt from the journal on
/// recovery. Records are committed only by a sealed journal write (the
/// same typestate path as checkpoint metadata), so a torn commit drops a
/// checkpoint and its delta records together.
///
/// The table is hashed by LSN: chain walks, compaction's per-head
/// `chain_len` probes and GC's releases each find a record in O(1).
/// Only [`DeltaLog::iter`] needs LSN order, and it sorts.
#[derive(Debug, Default)]
pub struct DeltaLog {
    records: HashMap<Lsn, LiveRecord, Words>,
    next_lsn: Lsn,
    /// Encoded bytes of all live records (journal footprint accounting).
    bytes: u64,
}

/// A live record with its reference count and encoded length.
#[derive(Debug)]
struct LiveRecord {
    rec: DeltaRecord,
    /// Checkpoint `deltas` entries naming the record plus live records
    /// whose `prev` names it; never zero while the record is live.
    refs: u32,
    /// Encoded length: what the record adds to `bytes`. It fits, as a
    /// record rides inside one journal frame, whose length is a `u32`.
    len: u32,
}

impl DeltaLog {
    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encoded bytes of all live records.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Looks up a record.
    pub fn get(&self, lsn: Lsn) -> Option<&DeltaRecord> {
        self.records.get(&lsn).map(|e| &e.rec)
    }

    /// A record's reference count (0 for a record not in the log).
    pub(crate) fn refs(&self, lsn: Lsn) -> u32 {
        self.records.get(&lsn).map_or(0, |e| e.refs)
    }

    /// Inserts a committed record at an explicit LSN (commit apply and
    /// journal replay), unreferenced until a checkpoint holds it. Enforces
    /// `prev < lsn` monotonicity and counts the `prev` edge.
    pub fn insert(&mut self, lsn: Lsn, rec: DeltaRecord) -> Result<()> {
        if let Some(p) = rec.prev {
            if p >= lsn {
                return Err(Error::corrupt(format!(
                    "delta chain back-pointer not monotonic: prev {p} >= lsn {lsn}"
                )));
            }
        }
        let len = rec.encoded_len() as u32;
        let prev = rec.prev;
        match self.records.entry(lsn) {
            Entry::Occupied(_) => {
                return Err(Error::corrupt(format!("delta lsn {lsn} committed twice")));
            }
            Entry::Vacant(slot) => {
                slot.insert(LiveRecord { rec, refs: 0, len });
            }
        }
        // A dangling `prev` counts nothing: the chain walk reports it.
        if let Some(e) = prev.and_then(|p| self.records.get_mut(&p)) {
            e.refs += 1;
        }
        self.bytes += len as u64;
        self.next_lsn = self.next_lsn.max(lsn + 1);
        Ok(())
    }

    /// Counts one more checkpoint `deltas` entry naming `head`. A head
    /// naming no record holds nothing: fsck and scrub report its chain
    /// as broken.
    pub(crate) fn hold(&mut self, head: Lsn) {
        if let Some(e) = self.records.get_mut(&head) {
            e.refs += 1;
        }
    }

    /// Drops one checkpoint `deltas` entry's hold on `head`. A record
    /// whose count reaches zero leaves the log and releases its `prev`,
    /// so the walk stops at the first record something else still
    /// names. Returns the number of records freed.
    pub(crate) fn release(&mut self, head: Lsn) -> usize {
        let mut freed = 0;
        let mut cur = Some(head);
        while let Some(lsn) = cur {
            let Entry::Occupied(mut slot) = self.records.entry(lsn) else {
                break;
            };
            let refs = &mut slot.get_mut().refs;
            *refs = refs.saturating_sub(1);
            if *refs > 0 {
                break;
            }
            let e = slot.remove();
            self.bytes -= e.len as u64;
            freed += 1;
            cur = e.rec.prev;
        }
        freed
    }

    /// The records of the chain ending at `head`, base-first (ascending
    /// LSN). Errors on a dangling back-pointer or when the walk does not
    /// match the head's `chain_len` exactly — either direction means the
    /// log lost or fabricated records.
    pub fn chain(&self, head: Lsn) -> Result<Vec<&DeltaRecord>> {
        let expected = self
            .records
            .get(&head)
            .ok_or_else(|| Error::corrupt(format!("delta head {head} missing from log")))?
            .rec
            .chain_len as usize;
        if expected == 0 {
            return Err(Error::corrupt(format!("delta head {head} has chain_len 0")));
        }
        let mut out = Vec::with_capacity(expected);
        let mut cur = Some(head);
        while let Some(lsn) = cur {
            let rec = self.get(lsn).ok_or_else(|| {
                Error::corrupt(format!("delta chain references missing lsn {lsn}"))
            })?;
            if out.len() >= expected {
                return Err(Error::corrupt("delta chain longer than its chain_len"));
            }
            out.push(rec);
            cur = rec.prev;
        }
        if out.len() != expected {
            return Err(Error::corrupt(format!(
                "delta chain at {head} has {} records, chain_len says {expected}",
                out.len()
            )));
        }
        out.reverse();
        Ok(out)
    }

    /// Length of the chain ending at `head` per its head record.
    pub fn chain_len(&self, head: Lsn) -> Result<u32> {
        self.get(head)
            .map(|r| r.chain_len)
            .ok_or_else(|| Error::corrupt(format!("delta head {head} missing from log")))
    }

    /// Materializes a page: applies the chain ending at `head` (base
    /// image first, then ascending LSN) on top of `base`. The first
    /// extent copies the shared base once; the rest of the chain is
    /// written into that one buffer.
    pub fn materialize(&self, base: &PageData, head: Lsn) -> Result<PageData> {
        let mut page = base.clone();
        for rec in self.chain(head)? {
            rec.apply(&mut page);
        }
        Ok(page)
    }

    /// All live records, ascending LSN (compaction snapshots carry them,
    /// and fsck reports in this order).
    pub fn iter(&self) -> impl Iterator<Item = (Lsn, &DeltaRecord)> {
        let mut records: Vec<(Lsn, &DeltaRecord)> =
            self.records.iter().map(|(l, e)| (*l, &e.rec)).collect();
        records.sort_unstable_by_key(|&(lsn, _)| lsn);
        records.into_iter()
    }

    /// Removes every record whatever its count, keeping `next_lsn`: a
    /// log that lost its records, for tests of the broken-chain checks.
    #[cfg(test)]
    pub(crate) fn lose_records(&mut self) {
        self.records.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalRecord;

    fn rec(prev: Option<Lsn>, chain_len: u32, extents: Vec<(u32, Vec<u8>)>) -> DeltaRecord {
        DeltaRecord {
            oid: ObjId(7),
            idx: 3,
            epoch: 11,
            base: BlockPtr(42),
            prev,
            chain_len,
            extents,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = rec(Some(5), 2, vec![(0, vec![1, 2, 3]), (4090, vec![9; 6])]);
        let mut e = Encoder::new();
        r.encode(&mut e);
        let bytes = e.finish();
        let out = DeltaRecord::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(out, r);
        assert_eq!(r.encoded_len(), bytes.len());
        assert_eq!(r.payload_bytes(), 9);
    }

    #[test]
    fn encoded_len_is_the_encoding_length_without_encoding() {
        let encoded = |r: &DeltaRecord| {
            let mut e = Encoder::new();
            r.encode(&mut e);
            e.finish().len()
        };
        let mut records = vec![
            rec(None, 1, vec![(0, vec![1])]),
            rec(Some(5), 2, vec![(0, vec![1])]),
            rec(Some(1 << 40), 3, Vec::new()),
        ];
        // Varints at the one- and two-byte boundaries, in every field.
        for v in [0u64, 127, 128, 16_383, 16_384] {
            let mut r = rec(Some(v), v as u32, vec![(v as u32, vec![7; (v as usize).min(4096)])]);
            r.idx = v;
            r.epoch = v;
            r.base = BlockPtr(v);
            records.push(r);
        }
        // A record with several extents of assorted lengths.
        records.push(rec(
            Some(9),
            4,
            vec![(0, vec![1; 127]), (200, vec![2; 128]), (1000, Vec::new()), (4000, vec![3; 96])],
        ));
        for r in &records {
            assert_eq!(r.encoded_len(), encoded(r), "{r:?}");
        }
    }

    #[test]
    fn extent_past_page_end_rejected() {
        let r = rec(None, 1, vec![(4094, vec![0; 8])]);
        let mut e = Encoder::new();
        // Encode bypasses validation; decode must reject.
        e.u64(r.oid.0);
        e.varint(r.idx);
        e.varint(r.epoch);
        e.varint(r.base.0);
        e.option(r.prev.as_ref(), |e, p| e.varint(*p));
        e.varint(r.chain_len as u64);
        e.varint(1);
        e.varint(4094);
        e.bytes(&[0; 8]);
        let bytes = e.finish();
        assert!(DeltaRecord::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn chain_materializes_in_lsn_order() {
        let mut log = DeltaLog::default();
        // Two records writing the same offset: the later one must win.
        log.insert(1, rec(None, 1, vec![(0, vec![1, 1])])).unwrap();
        log.insert(4, rec(Some(1), 2, vec![(1, vec![7]), (100, vec![3])])).unwrap();
        let base = PageData::Zero;
        let page = log.materialize(&base, 4).unwrap();
        let mut buf = [0u8; 4];
        page.read(0, &mut buf);
        assert_eq!(buf, [1, 7, 0, 0]);
        let mut b1 = [0u8; 1];
        page.read(100, &mut b1);
        assert_eq!(b1, [3]);
        assert_eq!(log.chain_len(4).unwrap(), 2);
        assert_eq!(log.next_lsn(), 5);
    }

    #[test]
    fn monotonicity_enforced() {
        let mut log = DeltaLog::default();
        assert!(log.insert(3, rec(Some(3), 2, vec![])).is_err());
        assert!(log.insert(3, rec(Some(9), 2, vec![])).is_err());
        assert!(log.insert(3, rec(Some(2), 2, vec![])).is_ok());
    }

    #[test]
    fn dangling_chain_detected() {
        let mut log = DeltaLog::default();
        log.insert(2, rec(Some(1), 2, vec![])).unwrap();
        assert!(log.materialize(&PageData::Zero, 2).is_err());
    }

    #[test]
    fn long_chains_walk_cleanly() {
        // Regression: the walk bound must compare against the *head's*
        // chain_len, not each record's own (which shrinks toward the
        // base) — the old check rejected every chain of length >= 4.
        let mut log = DeltaLog::default();
        log.insert(1, rec(None, 1, vec![(0, vec![1])])).unwrap();
        for i in 2..=8u64 {
            log.insert(i, rec(Some(i - 1), i as u32, vec![(i as u32, vec![i as u8])]))
                .unwrap();
        }
        assert_eq!(log.chain(8).unwrap().len(), 8);
        assert!(log.materialize(&PageData::Zero, 8).is_ok());
        // A head whose chain_len undercounts the walk is corrupt.
        log.insert(20, rec(Some(8), 2, vec![])).unwrap();
        assert!(log.chain(20).is_err());
    }

    /// A log holding records `lsns` as one chain on a single page, with
    /// each of `heads` held once.
    fn held_chain(lsns: &[Lsn], heads: &[Lsn]) -> DeltaLog {
        let mut log = DeltaLog::default();
        let mut prev = None;
        for (i, &lsn) in lsns.iter().enumerate() {
            log.insert(
                lsn,
                rec(prev, i as u32 + 1, vec![(i as u32, vec![i as u8])]),
            )
            .unwrap();
            prev = Some(lsn);
        }
        heads.iter().for_each(|&h| log.hold(h));
        log
    }

    #[test]
    fn counts_are_heads_plus_prev_edges() {
        // 1 <- 2 <- 3, with 2 and 3 both heads.
        let log = held_chain(&[1, 2, 3], &[2, 3]);
        assert_eq!([log.refs(1), log.refs(2), log.refs(3)], [1, 2, 1]);
        assert_eq!(log.refs(9), 0, "a record not in the log");
        let mut log = log;
        assert!(
            log.insert(3, rec(None, 1, vec![])).is_err(),
            "an lsn committed twice"
        );
        assert_eq!(log.refs(3), 1);
    }

    #[test]
    fn a_prefix_shared_by_two_heads_survives_the_first_release() {
        // 1 <- 2 <- 3 and 1 <- 4: two chains sharing record 1.
        let mut log = held_chain(&[1, 2, 3], &[3]);
        log.insert(4, rec(Some(1), 2, vec![(9, vec![9])])).unwrap();
        log.hold(4);
        assert_eq!(log.release(3), 2, "3 and 2 go; 1 is still named by 4");
        assert!(log.get(1).is_some() && log.get(4).is_some());
        assert_eq!(log.len(), 2);
        assert_eq!(log.release(4), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn releasing_a_record_another_prev_names_frees_nothing() {
        // 2 is a head, and 3's prev names it too.
        let mut log = held_chain(&[1, 2, 3], &[2, 3]);
        let bytes = log.bytes();
        assert_eq!(log.release(2), 0);
        assert_eq!(log.len(), 3);
        assert_eq!(log.bytes(), bytes);
        assert_eq!(log.refs(2), 1);
    }

    /// `n` distinct LSNs from 1 to `n`, in an order far from ascending.
    fn scrambled(n: u64) -> Vec<Lsn> {
        (0..n).map(|i| (i * 29) % n + 1).collect()
    }

    #[test]
    fn iter_ascends_whatever_order_records_arrive_and_leave_in() {
        let mut log = DeltaLog::default();
        for lsn in scrambled(64) {
            log.insert(lsn, rec(None, 1, vec![(0, vec![lsn as u8])])).unwrap();
            log.hold(lsn);
        }
        for lsn in scrambled(64).into_iter().filter(|l| l % 3 == 0) {
            assert_eq!(log.release(lsn), 1);
        }
        let lsns: Vec<Lsn> = log.iter().map(|(l, _)| l).collect();
        let want: Vec<Lsn> = (1..=64).filter(|l| l % 3 != 0).collect();
        assert_eq!(lsns, want);
    }

    /// A compaction snapshot carries `iter()`'s records, so its frame is
    /// the same bytes whatever order the log was filled in.
    #[test]
    fn a_snapshot_frame_does_not_depend_on_insertion_order() {
        let frame = |order: &[Lsn]| {
            let mut log = DeltaLog::default();
            for &lsn in order {
                let extent = (lsn as u32 * 8, vec![lsn as u8; 3]);
                log.insert(lsn, rec(None, 1, vec![extent])).unwrap();
            }
            let records = log.iter().map(|(l, r)| (l, r.clone())).collect();
            crate::journal::encode_frame(&JournalRecord::Snapshot(Vec::new(), records), 5)
        };
        let ascending: Vec<Lsn> = (1..=64).collect();
        let descending: Vec<Lsn> = (1..=64).rev().collect();
        assert_eq!(frame(&scrambled(64)), frame(&ascending));
        assert_eq!(frame(&descending), frame(&ascending));
    }

    #[test]
    fn releasing_every_head_empties_the_log_without_rewinding_it() {
        let mut log = held_chain(&[1, 2, 5], &[2, 5]);
        log.insert(6, rec(None, 1, vec![(0, vec![6; 32])])).unwrap();
        log.hold(6);
        assert!(log.bytes() > 0);
        for head in [6, 2, 5] {
            log.release(head);
        }
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
        // next_lsn is not rewound by freeing records.
        assert_eq!(log.next_lsn(), 7);
    }
}
