//! VM objects and shadow chains.
//!
//! A VM object is a container of pages: an anonymous region, a file's page
//! cache, or a *shadow* — the Mach mechanism behind fork's copy-on-write,
//! where a small object holding only the privately modified pages sits in
//! front of a larger backing object. Aurora's checkpointer walks these
//! chains verbatim, and the restore path rebuilds them exactly, which is
//! how the paper "faithfully reproduces the entire memory hierarchy to
//! preserve page deduplication".

use std::collections::BTreeMap;

use crate::frame::FrameId;
use crate::pager::PagerId;

/// Identifier of a VM object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmoId(pub(crate) u32);

impl VmoId {
    /// Raw index (stable within a VM instance; used by serializers).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// What kind of memory an object represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmoKind {
    /// Anonymous (heap, stack, private mappings).
    Anonymous,
    /// A shadow object created by a fork-style COW split.
    Shadow,
    /// Named shared memory (SysV/POSIX shm keep their pages here).
    SharedMem,
    /// File-backed (the page cache of a vnode).
    Vnode {
        /// Opaque file identity assigned by the VFS layer.
        file_id: u64,
    },
}

/// Maximum dirty runs tracked per page before the mask collapses to
/// [`DirtyMask::Full`]. Scattered writes past this point would cost more
/// in delta-record framing than the extents save.
pub const MAX_DIRTY_RUNS: usize = 16;

/// Sub-page dirty footprint of one resident page since its last capture.
///
/// Precise byte ranges come from `copyout` (the kernel knows exactly what
/// it wrote); raw write faults and seeded touches conservatively mark the
/// whole page. The flusher uses `Runs` to stage compact delta records
/// instead of rewriting 4 KiB images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtyMask {
    /// The whole page must be treated as dirty.
    Full,
    /// Sorted, coalesced `(offset, len)` byte runs within the page.
    Runs(Vec<(u32, u32)>),
}

impl Default for DirtyMask {
    fn default() -> Self {
        DirtyMask::Runs(Vec::new())
    }
}

impl DirtyMask {
    /// Records a write of `len` bytes at `off`, coalescing overlapping
    /// and adjacent runs. Collapses to `Full` past [`MAX_DIRTY_RUNS`].
    pub fn note(&mut self, off: u32, len: u32) {
        let DirtyMask::Runs(runs) = self else {
            return;
        };
        if len == 0 {
            return;
        }
        runs.push((off, len));
        runs.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
        for &(o, l) in runs.iter() {
            match merged.last_mut() {
                Some((po, pl)) if o <= *po + *pl => {
                    *pl = (*pl).max(o + l - *po);
                }
                _ => merged.push((o, l)),
            }
        }
        if merged.len() > MAX_DIRTY_RUNS {
            *self = DirtyMask::Full;
        } else {
            *runs = merged;
        }
    }

    /// Total dirty bytes (`None` for a full page — the caller compares
    /// against the page size itself).
    pub fn bytes(&self) -> Option<u64> {
        match self {
            DirtyMask::Full => None,
            DirtyMask::Runs(runs) => Some(runs.iter().map(|&(_, l)| l as u64).sum()),
        }
    }

    /// The runs, or `None` for a full page.
    pub fn runs(&self) -> Option<&[(u32, u32)]> {
        match self {
            DirtyMask::Full => None,
            DirtyMask::Runs(runs) => Some(runs),
        }
    }
}

/// A page resident in an object.
#[derive(Debug, Clone, Copy)]
pub struct ResidentPage {
    /// The physical frame holding the contents.
    pub frame: FrameId,
    /// Checkpoint epoch of the last write to this page.
    pub write_epoch: u64,
    /// Whether the page is write-protected for checkpoint COW.
    pub cow_protected: bool,
    /// Reference bit for the clock algorithm.
    pub referenced: bool,
    /// Accumulated access count (heat) for restore prefetch ordering.
    pub heat: u32,
}

impl ResidentPage {
    /// A clean page just brought in from a pager or the frame index:
    /// referenced once, never written.
    pub fn paged_in(frame: FrameId) -> Self {
        ResidentPage {
            frame,
            write_epoch: 0,
            cow_protected: false,
            referenced: true,
            heat: 1,
        }
    }
}

/// A frame frozen at checkpoint time, awaiting flush.
#[derive(Debug, Clone, Copy)]
pub struct FrozenPage {
    /// Page index within the object.
    pub page_idx: u64,
    /// The frozen frame (holds one reference).
    pub frame: FrameId,
    /// The epoch of the checkpoint that froze it.
    pub epoch: u64,
}

/// A VM object.
#[derive(Debug)]
pub struct VmObject {
    /// Machine-unique identity (never reused, unlike `VmoId` slots).
    /// Checkpoint code keys its VM-object → store-object mapping by this.
    pub uid: u64,
    /// Object kind.
    pub kind: VmoKind,
    /// Resident pages by page index.
    pub pages: BTreeMap<u64, ResidentPage>,
    /// Shadow/backing link: `(object, page offset into backing)`.
    pub backing: Option<(VmoId, u64)>,
    /// Reference count (map entries + shadow children + kernel refs).
    pub refs: u32,
    /// Size in pages.
    pub size_pages: u64,
    /// Pager supplying non-resident pages (swap / lazy restore), with the
    /// key the pager uses to identify this object's backing store.
    pub pager: Option<(PagerId, u64)>,
    /// Frames frozen by an in-flight checkpoint, not yet flushed.
    pub frozen: Vec<FrozenPage>,
    /// Sub-page dirty footprints since each page's last capture. A page
    /// written through an untracked path simply has no entry, which the
    /// flusher reads as [`DirtyMask::Full`] — precision is an
    /// optimization, never a correctness requirement.
    pub dirty: BTreeMap<u64, DirtyMask>,
}

impl VmObject {
    /// Creates an object with one reference and no pages. The `uid` is
    /// assigned by [`crate::Vm::create_object`].
    pub fn new(kind: VmoKind, size_pages: u64) -> Self {
        VmObject {
            uid: 0,
            kind,
            pages: BTreeMap::new(),
            backing: None,
            refs: 1,
            size_pages,
            pager: None,
            frozen: Vec::new(),
            dirty: BTreeMap::new(),
        }
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.pages.len()
    }

    /// Looks up a resident page.
    pub fn page(&self, idx: u64) -> Option<&ResidentPage> {
        self.pages.get(&idx)
    }

    /// Inserts (or replaces) a resident page entry.
    ///
    /// The caller manages frame reference counts.
    pub fn insert_page(&mut self, idx: u64, page: ResidentPage) -> Option<ResidentPage> {
        self.pages.insert(idx, page)
    }

    /// Marks resident page `idx` as written whole in `epoch`, so the
    /// next capture from that epoch on takes it as a full image — how a
    /// page whose stored copy went bad is rewritten from memory.
    /// Returns false, marking nothing, when the page is not resident.
    pub fn mark_dirty_full(&mut self, idx: u64, epoch: u64) -> bool {
        let Some(page) = self.pages.get_mut(&idx) else {
            return false;
        };
        page.write_epoch = epoch;
        self.dirty.insert(idx, DirtyMask::Full);
        true
    }

    /// Pages whose `write_epoch` is at least `since` (the incremental
    /// checkpoint dirty set).
    pub fn dirty_since(&self, since: u64) -> impl Iterator<Item = (u64, &ResidentPage)> {
        self.pages
            .iter()
            .filter(move |(_, p)| p.write_epoch >= since)
            .map(|(idx, p)| (*idx, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp(frame: u32, epoch: u64) -> ResidentPage {
        ResidentPage {
            frame: FrameId(frame),
            write_epoch: epoch,
            cow_protected: false,
            referenced: false,
            heat: 0,
        }
    }

    #[test]
    fn dirty_since_filters_by_epoch() {
        let mut o = VmObject::new(VmoKind::Anonymous, 16);
        o.insert_page(0, rp(0, 1));
        o.insert_page(1, rp(1, 3));
        o.insert_page(2, rp(2, 5));
        let dirty: Vec<u64> = o.dirty_since(3).map(|(i, _)| i).collect();
        assert_eq!(dirty, vec![1, 2]);
        assert_eq!(o.dirty_since(6).count(), 0);
        assert_eq!(o.dirty_since(0).count(), 3);
    }

    #[test]
    fn dirty_mask_coalesces_adjacent_and_overlapping_runs() {
        let mut m = DirtyMask::default();
        m.note(100, 50);
        m.note(150, 50); // Adjacent: merges.
        m.note(120, 10); // Contained: absorbed.
        assert_eq!(m.runs().unwrap(), &[(100, 100)]);
        assert_eq!(m.bytes(), Some(100));
        m.note(300, 8); // Disjoint: second run.
        assert_eq!(m.runs().unwrap().len(), 2);
        assert_eq!(m.bytes(), Some(108));
    }

    #[test]
    fn dirty_mask_collapses_to_full_past_run_cap() {
        let mut m = DirtyMask::default();
        for i in 0..(MAX_DIRTY_RUNS as u32 + 1) {
            m.note(i * 100, 1); // All disjoint.
        }
        assert_eq!(m, DirtyMask::Full);
        assert_eq!(m.bytes(), None);
        // Full is absorbing.
        m.note(0, 1);
        assert_eq!(m, DirtyMask::Full);
    }

    #[test]
    fn marking_a_page_dirty_full_puts_it_in_the_next_capture_whole() {
        let mut o = VmObject::new(VmoKind::Anonymous, 4);
        o.insert_page(0, rp(0, 1));
        o.insert_page(1, rp(1, 1));
        o.dirty.entry(1).or_default().note(8, 8);
        assert!(o.mark_dirty_full(1, 5));
        assert!(!o.mark_dirty_full(2, 5), "page 2 is not resident");
        let dirty: Vec<u64> = o.dirty_since(5).map(|(i, _)| i).collect();
        assert_eq!(dirty, vec![1]);
        assert_eq!(o.dirty.get(&1), Some(&DirtyMask::Full));
        assert!(!o.dirty.contains_key(&2));
    }

    #[test]
    fn insert_replaces() {
        let mut o = VmObject::new(VmoKind::Anonymous, 4);
        assert!(o.insert_page(0, rp(0, 1)).is_none());
        let old = o.insert_page(0, rp(7, 2)).unwrap();
        assert_eq!(old.frame, FrameId(0));
        assert_eq!(o.resident(), 1);
        assert_eq!(o.page(0).unwrap().frame, FrameId(7));
    }
}
