//! The flush pipeline's partition and hash stages.
//!
//! A checkpoint's flush runs in plan order:
//!
//! 1. **Resolve** — each captured page becomes a [`PlanEntry`]: its
//!    store object, page index, frozen frame and dirty footprint.
//! 2. **Partition** — [`delta_runs`] decides, per backend and before
//!    anything is hashed, whether the page is appended as a sub-page
//!    delta record or stored as a full 4 KiB image.
//! 3. **Stream** — the plan is cut into batches of
//!    [`FLUSH_BATCH_PAGES`]. For each batch, [`hash_images`]
//!    content-hashes a page iff at least one backend stores its image
//!    (a delta record neither stores nor checks a content hash, so
//!    hashing a delta-only page buys nothing), sharded over a scoped
//!    thread pool by [`hash_plan`]; then every backend stages the
//!    batch's deltas straight from the plan and feeds its images to the
//!    object store's dedup index (`write_pages_coalesced`).
//!    The device drains batch *k* while batch *k+1* is hashed. The
//!    hashes are computed once and shared by every backend.
//! 4. **Commit** — one appended record and one flush per backend after
//!    the last batch.
//!
//! Determinism: batch boundaries depend only on the plan length, shard
//! boundaries only on the number of pages hashed in the batch and the
//! worker count, workers share no mutable state, and shards are joined
//! in shard order — so the resulting write sequence is byte-identical
//! to a serial hash pass regardless of worker count or scheduling. The
//! differential tests in `tests/parallel_flush_diff.rs` and
//! `tests/delta_diff.rs` check exactly this.

use aurora_objstore::{ObjId, ObjectStore, PageWrite};
use aurora_vm::{hash_pages, DirtyMask, FrameId, FrameTable, PageData};

/// Plan pages hashed and handed to the backends per batch of the
/// streamed flush: 4 × `EXTENT_BLOCKS`. The flush is done one batch's
/// hash after `max(hash, write)`, so a smaller batch shortens it — but
/// every batch boundary can split a write extent and costs a round of
/// worker spawns, and below a few extents' worth nothing is left to
/// gain (DESIGN §11 has the sweep).
pub const FLUSH_BATCH_PAGES: usize = 256;

/// One resolved page of the flush plan: destination object, page index,
/// and the frozen contents.
pub type PlanPage = (ObjId, u64, PageData);

/// One captured page resolved to its store object. The contents stay
/// in the frame table until a delta record or an image needs them.
pub(crate) struct PlanEntry<'a> {
    pub oid: ObjId,
    pub idx: u64,
    pub frame: FrameId,
    /// Dirty footprint snapshotted at arm time (`Full` on a full
    /// capture).
    pub dirty: &'a DirtyMask,
}

/// A page's dirty footprint: sorted `(offset, len)` byte runs.
pub(crate) type DirtyRuns<'a> = &'a [(u32, u32)];

/// The dirty runs `store` appends as a delta record for this page, or
/// `None` when it stores the full image. A page takes the delta path
/// when the flush is incremental, its footprint is a non-empty run set
/// within the store's byte budget, and the store holds a committed base
/// whose chain has room; everything else — and every page of a full
/// checkpoint — is an image, which doubles as chain truncation.
pub(crate) fn delta_runs<'a>(
    store: &ObjectStore,
    full: bool,
    page: &PlanEntry<'a>,
) -> Option<DirtyRuns<'a>> {
    let (max_bytes, max_chain) = store.delta_policy();
    if full || max_bytes == 0 {
        return None;
    }
    let bytes = page.dirty.bytes()?;
    if bytes == 0 || bytes > max_bytes as u64 {
        return None;
    }
    if store.can_delta(page.oid, page.idx)? >= max_chain {
        return None;
    }
    page.dirty.runs()
}

/// Content-hashes every page of `plan` (the whole plan or one batch of
/// it) for which `wanted` is set, on `workers` threads, and returns the
/// images by position: `None` where no backend stores the page's image.
pub(crate) fn hash_images(
    frames: &FrameTable,
    plan: &[PlanEntry<'_>],
    wanted: &[bool],
    workers: usize,
) -> Vec<Option<PageWrite>> {
    let pages: Vec<PlanPage> = plan
        .iter()
        .zip(wanted)
        .filter(|(_, &wanted)| wanted)
        .map(|(page, _)| (page.oid, page.idx, frames.data(page.frame).clone()))
        .collect();
    let mut hashed = hash_plan(pages, workers).into_iter();
    wanted
        .iter()
        .map(|&wanted| if wanted { hashed.next() } else { None })
        .collect()
}

/// Content-hashes the resolved flush plan on `workers` threads and
/// returns the writes in plan order.
pub fn hash_plan(pages: Vec<PlanPage>, workers: usize) -> Vec<PageWrite> {
    let hashes = hash_pages(&pages, |(_, _, page)| page, workers);
    pages
        .into_iter()
        .zip(hashes)
        .map(|((oid, idx, page), hash)| PageWrite { oid, idx, page, hash })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_vm::PARALLEL_THRESHOLD;

    /// The single-threaded reference pass.
    fn hash_serial(pages: Vec<PlanPage>) -> Vec<PageWrite> {
        pages
            .into_iter()
            .map(|(oid, idx, page)| {
                let hash = page.content_hash();
                PageWrite { oid, idx, page, hash }
            })
            .collect()
    }

    fn plan(n: usize) -> Vec<PlanPage> {
        (0..n)
            .map(|i| {
                let data = match i % 3 {
                    0 => PageData::Zero,
                    1 => PageData::Seeded(i as u64 / 3),
                    _ => PageData::Seeded(0xABCD),
                };
                (ObjId(1 + (i as u64 % 4)), i as u64, data)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        for n in [0, 1, PARALLEL_THRESHOLD - 1, PARALLEL_THRESHOLD, 257, 1000] {
            let reference = hash_serial(plan(n));
            for workers in [1, 2, 3, 4, 8] {
                let out = hash_plan(plan(n), workers);
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(reference.iter()) {
                    assert_eq!(a.oid, b.oid);
                    assert_eq!(a.idx, b.idx);
                    assert_eq!(a.hash, b.hash);
                    assert!(a.page.content_eq(&b.page));
                }
            }
        }
    }

    #[test]
    fn hash_images_leaves_unwanted_pages_out() {
        let mut frames = FrameTable::new();
        let data = [
            PageData::Seeded(1),
            PageData::Seeded(2),
            PageData::Seeded(3),
        ];
        let dirty = DirtyMask::Full;
        let plan: Vec<PlanEntry<'_>> = data
            .iter()
            .enumerate()
            .map(|(i, d)| PlanEntry {
                oid: ObjId(7),
                idx: i as u64,
                frame: frames.alloc(d.clone()),
                dirty: &dirty,
            })
            .collect();

        let images = hash_images(&frames, &plan, &[true, false, true], 1);
        assert_eq!(images.len(), plan.len(), "indexed by plan position");
        assert!(images[1].is_none(), "unwanted page was hashed");
        for at in [0, 2] {
            let w = images[at].as_ref().unwrap();
            assert_eq!((w.oid, w.idx), (ObjId(7), at as u64));
            assert_eq!(w.hash, data[at].content_hash());
        }
    }

    #[test]
    fn batchwise_hash_images_equals_one_shot() {
        let n = FLUSH_BATCH_PAGES * 5 / 2;
        let mut frames = FrameTable::new();
        let dirty = DirtyMask::Full;
        let plan: Vec<PlanEntry<'_>> = plan(n)
            .into_iter()
            .map(|(oid, idx, data)| PlanEntry {
                oid,
                idx,
                frame: frames.alloc(data),
                dirty: &dirty,
            })
            .collect();
        // Runs of wanted and unwanted pages, out of step with both the
        // batch and the shard boundaries.
        let wanted: Vec<bool> = (0..n).map(|i| i % 7 != 3 && (i / 50) % 3 != 1).collect();

        let reference = hash_images(&frames, &plan, &wanted, 1);
        assert_eq!(reference.len(), n);
        for workers in [1, 2, 8] {
            let batched: Vec<Option<PageWrite>> = plan
                .chunks(FLUSH_BATCH_PAGES)
                .zip(wanted.chunks(FLUSH_BATCH_PAGES))
                .flat_map(|(pages, wanted)| hash_images(&frames, pages, wanted, workers))
                .collect();
            assert_eq!(batched.len(), n);
            let key = |w: &PageWrite| (w.oid, w.idx, w.hash);
            for (at, ((a, b), &wanted)) in
                batched.iter().zip(&reference).zip(&wanted).enumerate()
            {
                assert_eq!(
                    a.as_ref().map(key),
                    b.as_ref().map(key),
                    "page {at}, {workers} workers"
                );
                assert_eq!(a.is_some(), wanted);
            }
        }
    }

    #[test]
    fn hashes_match_page_contents() {
        let out = hash_plan(plan(PARALLEL_THRESHOLD * 2), 4);
        for w in &out {
            assert_eq!(w.hash, w.page.content_hash());
        }
    }
}
