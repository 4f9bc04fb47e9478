//! Checkpoint export/import streams (`sls send` / `sls recv`).
//!
//! An exported checkpoint is **self-contained**: the chain-merged page
//! maps with their page contents plus the chain-merged blob set — enough
//! to rebuild the application on any machine. Page contents use the
//! compact page codec (zero pages cost one byte; deterministic seeded
//! pages cost nine), so streams of benchmark-scale images stay small
//! while real data round-trips verbatim.

use std::ops::RangeBounds;

use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_vm::PageData;

use crate::checkpoint::{self, CkptId, PageRef};
use crate::store::ObjectStore;
use crate::ObjId;

/// Stream format magic ("SLSSEND1").
const STREAM_MAGIC: u64 = 0x534C_5353_454E_4431;

/// Encodes one page payload.
pub fn encode_page(e: &mut Encoder, page: &PageData) {
    match page {
        PageData::Zero => e.u8(0),
        PageData::Seeded(seed) => {
            e.u8(1);
            e.u64(*seed);
        }
        PageData::Bytes(b) => {
            e.u8(2);
            e.bytes(b);
        }
    }
}

/// Decodes one page payload.
pub fn decode_page(d: &mut Decoder<'_>) -> Result<PageData> {
    match d.u8()? {
        0 => Ok(PageData::Zero),
        1 => Ok(PageData::Seeded(d.u64()?)),
        2 => {
            let raw = d.bytes()?;
            if raw.len() != aurora_vm::PAGE_SIZE {
                return Err(Error::corrupt("page payload wrong size"));
            }
            Ok(PageData::from_bytes(raw))
        }
        t => Err(Error::corrupt(format!("bad page tag {t}"))),
    }
}

impl ObjectStore {
    /// Exports checkpoint `ckpt` as a self-contained byte stream.
    ///
    /// Charges device reads for every exported page.
    pub fn export_checkpoint(&self, ckpt: CkptId) -> Result<Vec<u8>> {
        self.export_checkpoint_filtered(ckpt, .., |_| true)
    }

    /// Exports a checkpoint restricted to the objects in `objects` and
    /// the blobs `keep_blob` accepts — how the SLS ships *one
    /// application* (its group's namespace) rather than the whole
    /// machine's history.
    pub fn export_checkpoint_filtered(
        &self,
        ckpt: CkptId,
        objects: impl RangeBounds<ObjId>,
        keep_blob: impl Fn(&str) -> bool,
    ) -> Result<Vec<u8>> {
        // One image serves the whole walk: the head's is kept, any
        // other checkpoint's chain folds once.
        let image = self.image_at(ckpt)?;
        let objects: Vec<(ObjId, u64)> = image
            .objects
            .range(objects)
            .map(|(&oid, &size)| (oid, size))
            .collect();

        let table_name = self.checkpoint(ckpt)?.name.clone();
        let mut e = Encoder::new();
        e.u64(STREAM_MAGIC);
        e.option(table_name.as_ref(), |e, n| e.str(n));
        e.varint(objects.len() as u64);
        for (oid, size) in &objects {
            e.u64(oid.0);
            e.varint(*size);
            let map: Vec<(u64, PageRef)> = image.object_refs(*oid).collect();
            e.varint(map.len() as u64);
            for (idx, r) in map {
                // Delta-backed pages ship materialized: the stream stays
                // self-contained and the receiver never needs our log.
                let page = self.materialize_ref(r)?;
                e.varint(idx);
                encode_page(&mut e, &page);
            }
        }
        // Chain-merged blobs, filtered.
        let keys: Vec<String> = self
            .blob_keys_at(ckpt, "")
            .into_iter()
            .filter(|k| keep_blob(k))
            .collect();
        e.varint(keys.len() as u64);
        for key in keys {
            let (_, v) = checkpoint::resolve_blob(self.table(), ckpt, &key).ok_or_else(|| {
                Error::internal(format!("blob `{key}` vanished while streaming"))
            })?;
            let v = v.to_vec();
            e.str(&key);
            e.bytes(&v);
        }
        Ok(e.into_vec())
    }

    /// Exports only checkpoint `ckpt`'s *delta* (its own pages, blobs and
    /// object births/deaths) — the unit of live-migration rounds, where
    /// the receiver already holds the parent chain.
    pub fn export_delta(&self, ckpt: CkptId) -> Result<Vec<u8>> {
        let (new_objects, deleted, pages, blobs, name) = {
            let ck = self.checkpoint(ckpt)?;
            // A key present in both maps is a delta head over an
            // inherited base (GC merge): the delta entry is the page's
            // content at this checkpoint, so the base image must not
            // shadow it in the stream.
            let pages: Vec<((ObjId, u64), PageRef)> = ck.own_refs().collect();
            (
                ck.new_objects.clone(),
                ck.deleted_objects.clone(),
                pages,
                ck.blobs.clone(),
                ck.name.clone(),
            )
        };
        let mut e = Encoder::new();
        e.u64(STREAM_MAGIC ^ 1); // Delta stream marker.
        e.option(name.as_ref(), |e, n| e.str(n));
        e.seq(&new_objects, |e, (oid, size)| {
            e.u64(oid.0);
            e.varint(*size);
        });
        e.seq(&deleted, |e, oid| e.u64(oid.0));
        e.varint(pages.len() as u64);
        for ((oid, idx), r) in pages {
            let page = self.materialize_ref(r)?;
            e.u64(oid.0);
            e.varint(idx);
            encode_page(&mut e, &page);
        }
        e.varint(blobs.len() as u64);
        for (k, v) in &blobs {
            e.str(k);
            e.bytes(v);
        }
        Ok(e.into_vec())
    }

    /// Applies a delta stream on top of the receiver's current state and
    /// commits it.
    pub fn import_delta(&mut self, bytes: &[u8]) -> Result<(CkptId, SimTime)> {
        let mut d = Decoder::new(bytes);
        if d.u64()? != STREAM_MAGIC ^ 1 {
            return Err(Error::bad_image("not an sls delta stream"));
        }
        // Open the commit transaction before staging: the typestate
        // token witnesses every write the apply makes.
        let txn = self.begin_txn();
        let name = d.option(|d| d.str().map(str::to_string))?;
        let new_objects = d.seq(|d| {
            let oid = ObjId(d.u64()?);
            let size = d.varint()?;
            Ok((oid, size))
        })?;
        let deleted = d.seq(|d| d.u64().map(ObjId))?;
        // Deaths before births: a delta carrying both for one id is a
        // delete-then-recreate, and applying the birth first would let
        // the delete clobber the new incarnation.
        for oid in deleted {
            if self.object_exists(oid) {
                self.delete_object(oid)?;
            }
        }
        for (oid, size) in new_objects {
            if !self.object_exists(oid) {
                self.create_object(oid, size)?;
            }
        }
        let npages = d.varint()? as usize;
        for _ in 0..npages {
            let oid = ObjId(d.u64()?);
            let idx = d.varint()?;
            let page = decode_page(&mut d)?;
            if !self.object_exists(oid) {
                // A page for an object created in an earlier delta that
                // was deleted since: recreate permissively.
                self.create_object(oid, idx + 1)?;
            }
            self.write_page(oid, idx, &page)?;
        }
        let nblobs = d.varint()? as usize;
        for _ in 0..nblobs {
            let key = d.str()?.to_string();
            let v = d.bytes()?.to_vec();
            self.put_blob(&key, v);
        }
        self.commit_txn(txn, name.as_deref())
    }

    /// Imports a stream, creating its objects and committing a checkpoint.
    ///
    /// Object ids must not collide with live objects in this store (the
    /// SLS namespaces ids per persistence group). Returns the new
    /// checkpoint id and its durable instant.
    pub fn import_stream(&mut self, bytes: &[u8]) -> Result<(CkptId, SimTime)> {
        let mut d = Decoder::new(bytes);
        if d.u64()? != STREAM_MAGIC {
            return Err(Error::bad_image("not an sls stream"));
        }
        // As in `import_delta`: the token spans the whole staged apply.
        let txn = self.begin_txn();
        let name = d.option(|d| d.str().map(str::to_string))?;
        let nobjects = d.varint()? as usize;
        for _ in 0..nobjects {
            let oid = ObjId(d.u64()?);
            let size = d.varint()?;
            self.create_object(oid, size)?;
            let npages = d.varint()? as usize;
            for _ in 0..npages {
                let idx = d.varint()?;
                let page = decode_page(&mut d)?;
                self.write_page(oid, idx, &page)?;
            }
        }
        let nblobs = d.varint()? as usize;
        for _ in 0..nblobs {
            let key = d.str()?.to_string();
            let v = d.bytes()?.to_vec();
            self.put_blob(&key, v);
        }
        self.commit_txn(txn, name.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_codec_roundtrip() {
        for page in [
            PageData::Zero,
            PageData::Seeded(0xABCD),
            PageData::from_bytes(&{
                let mut b = vec![0u8; aurora_vm::PAGE_SIZE];
                b[17] = 3;
                b
            }),
        ] {
            let mut e = Encoder::new();
            encode_page(&mut e, &page);
            let bytes = e.finish();
            let out = decode_page(&mut Decoder::new(&bytes)).unwrap();
            assert!(out.content_eq(&page));
        }
    }

    #[test]
    fn bad_page_tag_rejected() {
        assert!(decode_page(&mut Decoder::new(&[9])).is_err());
        // Wrong-size byte payload.
        let mut e = Encoder::new();
        e.u8(2);
        e.bytes(b"short");
        let b = e.finish();
        assert!(decode_page(&mut Decoder::new(&b)).is_err());
    }
}
