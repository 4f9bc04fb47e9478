//! Checkpoint deltas, the chain-walk read path, and checkpoint images.

use std::collections::{btree_map, BTreeMap};
use std::ops::{Bound, RangeBounds};

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;

use crate::deltalog::Lsn;
use crate::{BlockPtr, ObjId};

/// How a checkpoint resolves one page: a full image block, or the head
/// of a delta chain in the store's delta log (materialized by replaying
/// the chain over its base image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRef {
    /// A full page image (refcounted data block).
    Full(BlockPtr),
    /// Head of a sub-page delta chain.
    Delta(Lsn),
}

/// Identifier of a committed checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CkptId(pub u64);

/// A committed checkpoint: the delta since its parent.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Checkpoint id (monotonic).
    pub id: CkptId,
    /// Parent checkpoint, if any.
    pub parent: Option<CkptId>,
    /// User-assigned name (`sls checkpoint <name>`).
    pub name: Option<String>,
    /// Objects created in this delta, with their sizes in pages.
    pub new_objects: Vec<(ObjId, u64)>,
    /// Objects deleted in this delta.
    pub deleted_objects: Vec<ObjId>,
    /// Page-map changes: `(object, page) -> data block`, in key order,
    /// so one object's entries are one contiguous range.
    pub pages: BTreeMap<(ObjId, u64), BlockPtr>,
    /// Sub-page delta heads: `(object, page) -> delta-chain head LSN`, in
    /// key order. A fresh commit records a page in `pages` *or* `deltas`;
    /// after a GC merge a checkpoint may carry both (the inherited chain
    /// base in `pages`, the newer chain head in `deltas`) — `deltas`
    /// wins.
    pub deltas: BTreeMap<(ObjId, u64), Lsn>,
    /// Metadata blobs written in this delta (kernel-object records).
    pub blobs: BTreeMap<String, Vec<u8>>,
    /// Virtual instant at which this checkpoint became power-loss-safe
    /// (in-memory bookkeeping; not part of the on-disk format).
    pub durable_at: SimTime,
}

impl Checkpoint {
    /// Encodes the delta into `e` (the journal payload format).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.id.0);
        e.option(self.parent.as_ref(), |e, p| e.u64(p.0));
        e.option(self.name.as_ref(), |e, n| e.str(n));
        e.seq(&self.new_objects, |e, (oid, size)| {
            e.u64(oid.0);
            e.varint(*size);
        });
        e.seq(&self.deleted_objects, |e, oid| e.u64(oid.0));
        // Both maps iterate in key order: the image is deterministic.
        e.varint(self.pages.len() as u64);
        for ((oid, idx), ptr) in &self.pages {
            e.u64(oid.0);
            e.varint(*idx);
            e.varint(ptr.0);
        }
        e.varint(self.blobs.len() as u64);
        for (k, v) in &self.blobs {
            e.str(k);
            e.bytes(v);
        }
        e.varint(self.deltas.len() as u64);
        for ((oid, idx), lsn) in &self.deltas {
            e.u64(oid.0);
            e.varint(*idx);
            e.varint(*lsn);
        }
    }

    /// Decodes a delta from a journal payload.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Checkpoint> {
        let id = CkptId(d.u64()?);
        let parent = d.option(|d| d.u64().map(CkptId))?;
        let name = d.option(|d| d.str().map(str::to_string))?;
        let new_objects = d.seq(|d| {
            let oid = ObjId(d.u64()?);
            let size = d.varint()?;
            Ok((oid, size))
        })?;
        let deleted_objects = d.seq(|d| d.u64().map(ObjId))?;
        // Both maps were encoded in key order: collecting builds each
        // in one linear pass.
        let npages = d.varint()? as usize;
        let pages = (0..npages)
            .map(|_| Ok(((ObjId(d.u64()?), d.varint()?), BlockPtr(d.varint()?))))
            .collect::<Result<BTreeMap<_, _>>>()?;
        let nblobs = d.varint()? as usize;
        let mut blobs = BTreeMap::new();
        for _ in 0..nblobs {
            let k = d.str()?.to_string();
            let v = d.bytes()?.to_vec();
            blobs.insert(k, v);
        }
        let ndeltas = d.varint()? as usize;
        let deltas = (0..ndeltas)
            .map(|_| Ok(((ObjId(d.u64()?), d.varint()?), d.varint()?)))
            .collect::<Result<BTreeMap<_, _>>>()?;
        Ok(Checkpoint {
            id,
            parent,
            name,
            new_objects,
            deleted_objects,
            pages,
            deltas,
            blobs,
            durable_at: SimTime::ZERO,
        })
    }

    /// The objects whose older incarnation this checkpoint ends: its
    /// deaths and its births. A delete-then-recreate in one epoch
    /// records both, and every page the checkpoint carries under the id
    /// belongs to the new incarnation.
    pub(crate) fn ended_objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        let births = self.new_objects.iter().map(|(oid, _)| oid);
        self.deleted_objects.iter().chain(births).copied()
    }

    /// This checkpoint's own page entries in key order, each resolved:
    /// a delta head outranks the page entry under the same key.
    pub(crate) fn own_refs(&self) -> impl Iterator<Item = ((ObjId, u64), PageRef)> + '_ {
        merge_refs(self.pages.range(..), self.deltas.range(..))
    }
}

/// The keys of the pages of the objects in `objects`, in a key-ordered
/// page map.
pub(crate) fn page_keys(
    objects: impl RangeBounds<ObjId>,
) -> impl RangeBounds<(ObjId, u64)> + Copy {
    let start = match objects.start_bound() {
        Bound::Included(&oid) => Bound::Included((oid, 0)),
        Bound::Excluded(&oid) => Bound::Excluded((oid, u64::MAX)),
        Bound::Unbounded => Bound::Unbounded,
    };
    let end = match objects.end_bound() {
        Bound::Included(&oid) => Bound::Included((oid, u64::MAX)),
        Bound::Excluded(&oid) => Bound::Excluded((oid, 0)),
        Bound::Unbounded => Bound::Unbounded,
    };
    (start, end)
}

/// Merges a page map with its delta-head overlay in key order; a head
/// outranks the page entry under the same key.
fn merge_refs<'a>(
    pages: btree_map::Range<'a, (ObjId, u64), BlockPtr>,
    deltas: btree_map::Range<'a, (ObjId, u64), Lsn>,
) -> impl Iterator<Item = ((ObjId, u64), PageRef)> + 'a {
    let (mut pages, mut deltas) = (pages.peekable(), deltas.peekable());
    std::iter::from_fn(move || {
        let page_key = pages.peek().map(|(k, _)| **k);
        let delta_key = deltas.peek().map(|(k, _)| **k);
        match (page_key, delta_key) {
            (Some(p), d) if d.is_none_or(|d| p < d) => {
                pages.next().map(|(k, ptr)| (*k, PageRef::Full(*ptr)))
            }
            (p, Some(d)) => {
                if p == Some(d) {
                    pages.next();
                }
                deltas.next().map(|(k, lsn)| (*k, PageRef::Delta(*lsn)))
            }
            _ => None,
        }
    })
}

/// A checkpoint's image: every object alive at it, with its size, and
/// every page of those objects. It is the fold of the checkpoint's
/// chain, root first, under [`Image::apply`]. The store keeps its
/// head's image and applies each commit to it, so the audits of the
/// head never walk the chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// Live objects with their declared sizes in pages.
    pub(crate) objects: BTreeMap<ObjId, u64>,
    /// Full page images. Under a delta head this is the chain's base,
    /// kept for its block reference.
    pub(crate) pages: BTreeMap<(ObjId, u64), BlockPtr>,
    /// Delta-chain heads; a head outranks the page entry for its key.
    pub(crate) deltas: BTreeMap<(ObjId, u64), Lsn>,
}

impl Image {
    /// Folds the chain ending at `at`, root first. Fails when a
    /// checkpoint of the chain is missing from the table.
    pub fn fold(ckpts: &BTreeMap<u64, Checkpoint>, at: CkptId) -> Result<Image> {
        let mut chain = Vec::new();
        let mut cur = Some(at);
        while let Some(c) = cur {
            let ck = ckpts.get(&c.0).ok_or_else(|| {
                Error::corrupt(format!("checkpoint {} missing from the table", c.0))
            })?;
            chain.push(ck);
            cur = ck.parent;
        }
        let mut image = Image::default();
        for ck in chain.iter().rev() {
            image.apply(ck);
        }
        Ok(image)
    }

    /// The fold step: applies one checkpoint, in O(its delta).
    pub(crate) fn apply(&mut self, ck: &Checkpoint) {
        for oid in ck.ended_objects() {
            if self.objects.remove(&oid).is_some() {
                take_object(&mut self.pages, oid);
                take_object(&mut self.deltas, oid);
            }
        }
        self.objects.extend(ck.new_objects.iter().copied());
        // Pages, then delta heads: a full image truncates its page's
        // chain, and a head outranks a page entry of its own checkpoint.
        for (&key, &ptr) in &ck.pages {
            if self.objects.contains_key(&key.0) {
                self.pages.insert(key, ptr);
                self.deltas.remove(&key);
            }
        }
        for (&key, &lsn) in &ck.deltas {
            if self.objects.contains_key(&key.0) {
                self.deltas.insert(key, lsn);
            }
        }
    }

    /// The pages of the objects in `objects` in key order, each a full
    /// image or a delta-chain head.
    pub fn refs(
        &self,
        objects: impl RangeBounds<ObjId>,
    ) -> impl Iterator<Item = ((ObjId, u64), PageRef)> + '_ {
        let keys = page_keys(objects);
        merge_refs(self.pages.range(keys), self.deltas.range(keys))
    }

    /// One object's pages in index order.
    pub fn object_refs(&self, oid: ObjId) -> impl Iterator<Item = (u64, PageRef)> + '_ {
        self.refs(oid..=oid).map(|((_, idx), r)| (idx, r))
    }
}

/// Removes every entry of `oid` from a key-ordered page map and returns
/// their values.
pub(crate) fn take_object<V>(map: &mut BTreeMap<(ObjId, u64), V>, oid: ObjId) -> Vec<V> {
    let keys: Vec<(ObjId, u64)> = map.range(page_keys(oid..=oid)).map(|(k, _)| *k).collect();
    keys.iter().filter_map(|key| map.remove(key)).collect()
}

/// Resolves a page through the checkpoint chain: the nearest delta at or
/// above `from` that covers `(oid, idx)` wins; a deletion of the object
/// masks older data. Within one checkpoint a delta head outranks a page
/// entry (the entry is then the chain's inherited base image).
pub fn resolve_ref(
    ckpts: &BTreeMap<u64, Checkpoint>,
    from: CkptId,
    oid: ObjId,
    idx: u64,
) -> Option<PageRef> {
    let mut cur = Some(from);
    while let Some(c) = cur {
        let ck = ckpts.get(&c.0)?;
        if let Some(lsn) = ck.deltas.get(&(oid, idx)) {
            return Some(PageRef::Delta(*lsn));
        }
        if let Some(ptr) = ck.pages.get(&(oid, idx)) {
            return Some(PageRef::Full(*ptr));
        }
        if ck.deleted_objects.contains(&oid) {
            return None;
        }
        if ck.new_objects.iter().any(|(o, _)| *o == oid) {
            // The object was born here and the page was never written.
            return None;
        }
        cur = ck.parent;
    }
    None
}

/// Full-image-only page resolution. Returns `None` when the page is
/// covered by a delta chain — delta-aware callers use [`resolve_ref`].
pub fn resolve_page(
    ckpts: &BTreeMap<u64, Checkpoint>,
    from: CkptId,
    oid: ObjId,
    idx: u64,
) -> Option<BlockPtr> {
    match resolve_ref(ckpts, from, oid, idx) {
        Some(PageRef::Full(ptr)) => Some(ptr),
        _ => None,
    }
}

/// Resolves a blob through the chain (latest write at or above `from`):
/// the checkpoint whose delta holds it, and its bytes.
pub fn resolve_blob<'a>(
    ckpts: &'a BTreeMap<u64, Checkpoint>,
    from: CkptId,
    key: &str,
) -> Option<(CkptId, &'a [u8])> {
    let mut cur = Some(from);
    while let Some(c) = cur {
        let ck = ckpts.get(&c.0)?;
        if let Some(v) = ck.blobs.get(key) {
            return Some((c, v));
        }
        cur = ck.parent;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn refs_at(
        ckpts: &BTreeMap<u64, Checkpoint>,
        at: CkptId,
        oid: ObjId,
    ) -> BTreeMap<u64, PageRef> {
        Image::fold(ckpts, at).unwrap().object_refs(oid).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = ck(3, Some(2));
        c.name = Some("named".into());
        c.new_objects.push((ObjId(7), 16));
        c.deleted_objects.push(ObjId(5));
        c.pages.insert((ObjId(7), 0), BlockPtr(100));
        c.pages.insert((ObjId(7), 3), BlockPtr(101));
        c.deltas.insert((ObjId(7), 4), 17);
        c.blobs.insert("proc/1".into(), vec![1, 2, 3]);
        let mut e = Encoder::new();
        c.encode(&mut e);
        let bytes = e.finish();
        let d = Checkpoint::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(d.id, c.id);
        assert_eq!(d.parent, c.parent);
        assert_eq!(d.name, c.name);
        assert_eq!(d.pages, c.pages);
        assert_eq!(d.deltas, c.deltas);
        assert_eq!(d.blobs, c.blobs);
        assert_eq!(d.new_objects, c.new_objects);
        assert_eq!(d.deleted_objects, c.deleted_objects);
    }

    /// The journal record's bytes, pinned: the checkpoint's page and
    /// delta maps encode in key order, inside a commit frame whose
    /// header, page digest and CRC are pinned around them.
    #[test]
    fn the_encoding_is_pinned() {
        let mut c = ck(9, Some(4));
        c.name = Some("g".into());
        c.new_objects.push((ObjId(300), 16));
        c.new_objects.push((ObjId(2), 4));
        c.deleted_objects.push(ObjId(7));
        let pages = [(300, 9, 70_000), (2, 1, 5), (300, 0, 1), (2, 0, 129), (300, 200, 2)];
        for (o, i, b) in pages {
            c.pages.insert((ObjId(o), i), BlockPtr(b));
        }
        for (o, i, l) in [(300, 3, 900), (2, 2, 1), (300, 9, 4)] {
            c.deltas.insert((ObjId(o), i), l);
        }
        c.blobs.insert("proc/1".into(), vec![1, 2, 3]);
        let mut e = Encoder::new();
        c.encode(&mut e);
        let bytes = e.finish();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0900000000000000010400000000000000010167022c01000000000000100200000000\
             00000004010700000000000000050200000000000000008101020000000000000001052c\
             0100000000000000012c0100000000000009f0a2042c01000000000000c8010201067072\
             6f632f310301020303020000000000000002012c010000000000000384072c0100000000\
             00000904"
        );
        let d = Checkpoint::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(d.pages, c.pages);
        assert_eq!(d.deltas, c.deltas);

        // The journal frame around it: tag 1, record version 3, payload
        // length, generation 7; the page digest ahead of the checkpoint,
        // an empty delta section after it; the CRC over all of that; zero
        // padding to the block.
        let record = crate::journal::JournalRecord::Commit {
            ckpt: c,
            deltas: Vec::new(),
            digest: 0x0123_4567_89ab_cdef,
        };
        let frame = crate::journal::encode_frame(&record, 7);
        let used = 16 + 8 + bytes.len() + 1 + 4;
        let frame_hex: String = frame[..used].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            frame_hex,
            format!("010003009c0000000700000000000000efcdab8967452301{hex}0007a995f7")
        );
        assert!(frame[used..].iter().all(|&b| b == 0));
        assert_eq!(frame.len(), aurora_hw::BLOCK_SIZE);
    }

    #[test]
    fn chain_resolution() {
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        c1.pages.insert((ObjId(1), 1), BlockPtr(11));
        c1.blobs.insert("m".into(), vec![1]);
        let mut c2 = ck(2, Some(1));
        c2.pages.insert((ObjId(1), 1), BlockPtr(21));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);

        // Page 0 comes from the parent, page 1 from the child.
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), Some(BlockPtr(10)));
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 1), Some(BlockPtr(21)));
        assert_eq!(resolve_page(&ckpts, CkptId(1), ObjId(1), 1), Some(BlockPtr(11)));
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 5), None);
        assert_eq!(resolve_blob(&ckpts, CkptId(2), "m").unwrap(), (CkptId(1), &[1][..]));
        assert_eq!(resolve_blob(&ckpts, CkptId(2), "nope"), None);

        let eff = refs_at(&ckpts, CkptId(2), ObjId(1));
        assert_eq!(eff.get(&0), Some(&PageRef::Full(BlockPtr(10))));
        assert_eq!(eff.get(&1), Some(&PageRef::Full(BlockPtr(21))));
    }

    #[test]
    fn delta_head_outranks_page_entry() {
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deltas.insert((ObjId(1), 0), 5);
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        assert_eq!(
            resolve_ref(&ckpts, CkptId(2), ObjId(1), 0),
            Some(PageRef::Delta(5))
        );
        // resolve_page is full-image-only.
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), None);
        assert_eq!(resolve_page(&ckpts, CkptId(1), ObjId(1), 0), Some(BlockPtr(10)));

        // After a GC merge the child can carry both the inherited base
        // (pages) and the newer chain head (deltas) — deltas wins.
        let mut merged = ck(3, None);
        merged.new_objects.push((ObjId(1), 8));
        merged.pages.insert((ObjId(1), 0), BlockPtr(10));
        merged.deltas.insert((ObjId(1), 0), 5);
        let mut m = BTreeMap::new();
        m.insert(3, merged);
        assert_eq!(
            resolve_ref(&m, CkptId(3), ObjId(1), 0),
            Some(PageRef::Delta(5))
        );
        let eff = refs_at(&m, CkptId(3), ObjId(1));
        assert_eq!(eff.get(&0), Some(&PageRef::Delta(5)));
    }

    #[test]
    fn deletion_masks_history() {
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deleted_objects.push(ObjId(1));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), None);
        assert_eq!(resolve_page(&ckpts, CkptId(1), ObjId(1), 0), Some(BlockPtr(10)));
        assert!(refs_at(&ckpts, CkptId(2), ObjId(1)).is_empty());
    }

    #[test]
    fn birth_stops_the_walk() {
        // Object 1 born in c2; a stale page for (1, 0) in c1 must NOT
        // leak through (ids are never reused, but be defensive).
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.pages.insert((ObjId(1), 0), BlockPtr(99));
        let mut c2 = ck(2, Some(1));
        c2.new_objects.push((ObjId(1), 8));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        assert_eq!(resolve_page(&ckpts, CkptId(2), ObjId(1), 0), None);
    }

    #[test]
    fn a_birth_ends_the_older_incarnation_in_the_same_checkpoint() {
        // c2 records a delete-then-recreate of object 1: the death, the
        // birth, and the new incarnation's page 3.
        let mut ckpts = BTreeMap::new();
        let mut c1 = ck(1, None);
        c1.new_objects.push((ObjId(1), 8));
        c1.pages.insert((ObjId(1), 0), BlockPtr(10));
        let mut c2 = ck(2, Some(1));
        c2.deleted_objects.push(ObjId(1));
        c2.new_objects.push((ObjId(1), 4));
        c2.pages.insert((ObjId(1), 3), BlockPtr(23));
        ckpts.insert(1, c1);
        ckpts.insert(2, c2);
        let image = Image::fold(&ckpts, CkptId(2)).unwrap();
        assert_eq!(image.objects.get(&ObjId(1)), Some(&4));
        let refs: Vec<(u64, PageRef)> = image.object_refs(ObjId(1)).collect();
        assert_eq!(refs, vec![(3, PageRef::Full(BlockPtr(23)))]);
        assert_eq!(resolve_ref(&ckpts, CkptId(2), ObjId(1), 0), None);
    }

    #[test]
    fn a_missing_checkpoint_fails_the_fold() {
        let mut ckpts = BTreeMap::new();
        ckpts.insert(2, ck(2, Some(1)));
        let err = Image::fold(&ckpts, CkptId(2)).unwrap_err();
        assert!(err.to_string().contains("checkpoint 1 missing from the table"), "{err}");
    }
}
