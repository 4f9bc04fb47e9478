//! The backing-store (pager) interface.
//!
//! A pager supplies pages that are not resident and absorbs pages evicted
//! under memory pressure. Two implementations matter in Aurora:
//!
//! * the **swap pager** (integrated with the object store), and
//! * the **lazy-restore pager**: after a restore, application memory is
//!   effectively swapped out into the checkpoint image and faulted in on
//!   demand — the mechanism behind Aurora's sub-millisecond restores.
//!
//! Both live in higher-level crates; this module defines the interface
//! plus an in-memory test pager.

use aurora_sim::error::Result;

use crate::page::PageData;

/// Identifier of a registered pager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagerId(pub(crate) u32);

/// The identity of a page a pager holds: what decides which resident
/// frame may serve it (see the frame index in [`crate::Vm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageId {
    /// Block `block` of store `store`, whose content hash on record is
    /// `hash`. Every pager that names a page this way holds the same
    /// bytes, so one frame serves them all — two images that share a
    /// deduplicated block share its frame. The hash is part of the name:
    /// a block freed and reused with new bytes must never find the frame
    /// of its old contents.
    Stored {
        /// The store, unique among live stores.
        store: u64,
        /// The block within it.
        block: u64,
        /// The content hash the store recorded for the block.
        hash: u64,
    },
    /// A page only its own pager can vouch for (a delta-chain page, a
    /// block with no recorded hash, swap): its frame is shared only by
    /// objects bound to the same pager and key.
    Private,
}

/// Supplies and absorbs non-resident pages for VM objects.
///
/// `key` identifies the object within the pager's backing store (assigned
/// when the object is bound to the pager).
pub trait Pager {
    /// Fetches page `idx` of object `key`, charging device costs.
    fn page_in(&mut self, key: u64, idx: u64) -> Result<PageData>;

    /// Writes back page `idx` of object `key` (eviction path).
    fn page_out(&mut self, key: u64, idx: u64, data: &PageData) -> Result<()>;

    /// The identity of page `idx` of `key`, resolved without reading it;
    /// `None` when the pager holds no data there.
    fn page_id(&self, key: u64, idx: u64) -> Option<PageId>;

    /// True when several VM objects (e.g. sibling instances restored
    /// from one checkpoint image) share this pager. Shared pagers are
    /// read-mostly: eviction never writes dirty pages back through them
    /// (a write would be visible to every sibling).
    fn shared(&self) -> bool {
        false
    }
}

/// A trivial in-memory pager for tests.
#[derive(Debug, Default)]
pub struct MemPager {
    pages: std::collections::HashMap<(u64, u64), PageData>,
    /// Number of page-ins served (test observability).
    pub ins: u64,
    /// Number of page-outs absorbed.
    pub outs: u64,
}

impl MemPager {
    /// Creates an empty pager.
    pub fn new() -> Self {
        MemPager::default()
    }

    /// Pre-populates a page (simulating an existing image).
    pub fn preload(&mut self, key: u64, idx: u64, data: PageData) {
        self.pages.insert((key, idx), data);
    }
}

impl Pager for MemPager {
    fn page_in(&mut self, key: u64, idx: u64) -> Result<PageData> {
        self.ins += 1;
        Ok(self
            .pages
            .get(&(key, idx))
            .cloned()
            .unwrap_or(PageData::Zero))
    }

    fn page_out(&mut self, key: u64, idx: u64, data: &PageData) -> Result<()> {
        self.outs += 1;
        self.pages.insert((key, idx), data.clone());
        Ok(())
    }

    fn page_id(&self, key: u64, idx: u64) -> Option<PageId> {
        self.pages
            .contains_key(&(key, idx))
            .then_some(PageId::Private)
    }
}
