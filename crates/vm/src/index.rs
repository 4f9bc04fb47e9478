//! The frame index: one resident frame per page identity, shared by every
//! image that maps it — the mechanism behind "instances warm each other
//! up" in the paper's serverless discussion.
//!
//! A page brought in through a pager is filed by its [`PageId`]. A
//! stored page is named by its store, block and recorded content hash,
//! so the first instance of image B maps the frame an instance of image A
//! faulted in for a deduplicated block they share; any other page is
//! private to the (pager, key, page) that holds it, which shares it only
//! among instances of one image.
//!
//! The index keeps each image's *memberships*: per (pager, key), the
//! ordered page indices it maps and the frame of each. A restore
//! enumerates them to wire what its image already has resident, and
//! releasing an image drops them without scanning other images' pages.
//! A frame leaves the index when no image maps it.
//!
//! The index holds one reference on every frame it files, so a mapped
//! frame always has more than one and a write to it takes the fault
//! handler's COW path: a filed frame is never written in place.

use std::collections::{BTreeMap, HashMap};

use aurora_sim::hash::Words;

use crate::frame::{FrameId, FrameTable};
use crate::page::PageData;
use crate::pager::{PageId, PagerId};
use crate::Vm;

/// A stored page's name in the index: (store, block, recorded hash).
type StoredName = (u64, u64, u64);

fn stored_name(id: PageId) -> Option<StoredName> {
    match id {
        PageId::Stored { store, block, hash } => Some((store, block, hash)),
        PageId::Private => None,
    }
}

/// What one image page maps.
#[derive(Debug, Clone, Copy)]
struct Member {
    frame: FrameId,
    /// The stored name the frame is filed under; `None` for a private
    /// page, whose frame no other page maps.
    name: Option<StoredName>,
}

/// Resident frames by name, and which image pages map them. The index
/// holds one reference on each stored frame and on each private page's.
#[derive(Default)]
pub(crate) struct FrameIndex {
    /// Stored name → (frame, number of image pages mapping it).
    stored: HashMap<StoredName, (FrameId, u32), Words>,
    /// Pager → key → page index → what that page maps.
    images: HashMap<PagerId, HashMap<u64, BTreeMap<u64, Member>, Words>, Words>,
}

impl FrameIndex {
    /// The frame page `idx` of `(pager, key)` already maps.
    fn member(&self, pager: PagerId, key: u64, idx: u64) -> Option<FrameId> {
        let member = self.images.get(&pager)?.get(&key)?.get(&idx)?;
        Some(member.frame)
    }

    /// The frame filed under `name`, counted as mapped once more.
    fn share(&mut self, name: StoredName) -> Option<FrameId> {
        let (frame, maps) = self.stored.get_mut(&name)?;
        *maps += 1;
        Some(*frame)
    }

    /// Records that page `idx` of `(pager, key)` maps `member`.
    fn map(&mut self, pager: PagerId, key: u64, idx: u64, member: Member, frames: &mut FrameTable) {
        let pages = self
            .images
            .entry(pager)
            .or_default()
            .entry(key)
            .or_default();
        if let Some(old) = pages.insert(idx, member) {
            self.leave(old, frames);
        }
    }

    /// Drops one page's mapping, and its frame with the last one.
    fn leave(&mut self, member: Member, frames: &mut FrameTable) {
        let Some(name) = member.name else {
            frames.unref(member.frame);
            return;
        };
        if let Some((frame, maps)) = self.stored.get_mut(&name) {
            *maps -= 1;
            if *maps == 0 {
                frames.unref(*frame);
                self.stored.remove(&name);
            }
        }
    }
}

/// Where the frame index stands on a page a pager holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// A frame holding the page is resident and the page now maps it;
    /// the caller holds one new reference on it.
    Resident(FrameId),
    /// No resident frame holds it: fetch it and hand it to
    /// [`Vm::publish_frame`] under this identity.
    Absent(PageId),
}

impl Vm {
    /// Looks page `idx` of `(pager, key)` up in the frame index: first
    /// among the pages its image already maps, then — resolving the
    /// page's identity through the pager, which reads nothing — among
    /// the stored pages of every image. `None` when the pager holds no
    /// page there.
    pub fn find_resident(&mut self, pager: PagerId, key: u64, idx: u64) -> Option<Residency> {
        let frame = match self.index.member(pager, key, idx) {
            Some(frame) => frame,
            None => {
                let id = self.pager_mut(pager).page_id(key, idx)?;
                let Some((name, frame)) =
                    stored_name(id).and_then(|name| Some((name, self.index.share(name)?)))
                else {
                    return Some(Residency::Absent(id));
                };
                let member = Member {
                    frame,
                    name: Some(name),
                };
                self.index.map(pager, key, idx, member, &mut self.frames);
                frame
            }
        };
        self.frames.ref_frame(frame);
        Some(Residency::Resident(frame))
    }

    /// Files `data`, fetched for page `idx` of `(pager, key)`, under its
    /// identity `id` and returns the frame that holds it, with one
    /// reference for the caller's mapping. When a frame of that identity
    /// became resident since the lookup (a dedup twin earlier in the same
    /// batch), the page maps that frame and `data` is dropped.
    pub fn publish_frame(
        &mut self,
        pager: PagerId,
        key: u64,
        idx: u64,
        id: PageId,
        data: PageData,
    ) -> FrameId {
        let name = stored_name(id);
        let frame = match name.and_then(|name| self.index.share(name)) {
            Some(frame) => frame,
            None => {
                let frame = self.frames.alloc(data);
                if let Some(name) = name {
                    self.index.stored.insert(name, (frame, 1));
                }
                frame
            }
        };
        // A new frame's allocation reference is the index's; a twin's
        // frame has the index's already. The caller's mapping takes one
        // more either way.
        self.frames.ref_frame(frame);
        self.index
            .map(pager, key, idx, Member { frame, name }, &mut self.frames);
        frame
    }

    /// The page indices of `(pager, key)` the frame index holds,
    /// ascending: what a restore of that image can wire without a fault.
    pub fn resident_pages(&self, pager: PagerId, key: u64) -> Vec<u64> {
        self.index
            .images
            .get(&pager)
            .and_then(|keys| keys.get(&key))
            .map(|pages| pages.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Drops page `idx` of `(pager, key)` from the frame index (its
    /// contents were superseded, e.g. by a swap write-back).
    pub fn forget_page(&mut self, pager: PagerId, key: u64, idx: u64) {
        let member = self
            .index
            .images
            .get_mut(&pager)
            .and_then(|keys| keys.get_mut(&key))
            .and_then(|pages| pages.remove(&idx));
        if let Some(member) = member {
            self.index.leave(member, &mut self.frames);
        }
    }

    /// Drops every page `pager`'s image maps from the frame index.
    pub(crate) fn forget_pager_pages(&mut self, pager: PagerId) {
        let Some(keys) = self.index.images.remove(&pager) else {
            return;
        };
        for member in keys.into_values().flat_map(BTreeMap::into_values) {
            self.index.leave(member, &mut self.frames);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::SimClock;

    /// A pager whose every page is stored block `idx` of one store, with
    /// the block number as its recorded hash.
    struct StoredPager;

    impl crate::Pager for StoredPager {
        fn page_in(&mut self, _key: u64, idx: u64) -> aurora_sim::error::Result<PageData> {
            Ok(PageData::Seeded(idx))
        }
        fn page_out(&mut self, _: u64, _: u64, _: &PageData) -> aurora_sim::error::Result<()> {
            Ok(())
        }
        fn page_id(&self, _key: u64, idx: u64) -> Option<PageId> {
            Some(PageId::Stored {
                store: 1,
                block: idx,
                hash: idx,
            })
        }
    }

    #[test]
    fn stored_pages_share_one_frame_across_pagers_until_both_release() {
        let mut vm = Vm::new(SimClock::new());
        let (a, b) = (
            vm.register_pager(Box::new(StoredPager)),
            vm.register_pager(Box::new(StoredPager)),
        );
        let Some(Residency::Absent(id)) = vm.find_resident(a, 7, 3) else {
            panic!("nothing is resident yet");
        };
        let frame = vm.publish_frame(a, 7, 3, id, PageData::Seeded(3));
        assert_eq!(vm.find_resident(b, 9, 3), Some(Residency::Resident(frame)));
        assert_eq!(vm.resident_pages(b, 9), vec![3]);
        // The index's reference plus the two mappings'.
        assert_eq!(vm.frames.refs(frame), 3);
        vm.frames.unref(frame);
        vm.frames.unref(frame);
        vm.release_pager(a);
        assert!(vm.frames.exists(frame), "image b still maps it");
        vm.release_pager(b);
        assert_eq!(vm.frames.allocated(), 0);
    }
}
