//! The simulated virtual-memory subsystem.
//!
//! Aurora modifies FreeBSD's Mach-derived VM [Rashid et al., ASPLOS '87]
//! in two load-bearing ways, both reproduced here:
//!
//! 1. **Checkpoint COW that preserves sharing.** The standard fork-style
//!    COW would give each process a private copy of a shared page on
//!    write, silently breaking shared-memory semantics — which is why
//!    stock kernels refuse to COW shared pages. Aurora instead installs
//!    the *new* page into the shared VM object on a copy-on-write fault,
//!    so every mapper observes it, while the *original* frame is frozen
//!    and handed to the checkpoint flusher. See [`cow`].
//! 2. **Per-page write epochs.** Every write fault stamps the page with
//!    the current checkpoint epoch, so an incremental checkpoint arms and
//!    flushes only pages dirtied since the previous one — the mechanism
//!    behind Table 3's 7× smaller stop time. The same page is never
//!    flushed twice for shared or COW memory.
//!
//! Structure:
//!
//! * [`page`] — page contents (zero / seeded / explicit bytes) and
//!   content hashing for deduplication.
//! * [`frame`] — the physical frame table with reference counting.
//! * [`object`] — VM objects, shadow chains, resident page sets.
//! * [`map`] — per-process address spaces (`VmMap`) and map entries.
//! * [`fault`] — the page-fault handler (zero-fill, page-in, fork COW via
//!   shadow push, Aurora checkpoint COW).
//! * [`cow`] — checkpoint epochs: arming pages and collecting dirty sets.
//! * [`pager`] — the backing-store interface used by swap and lazy
//!   restore, and the page identities pagers name their pages by.
//! * [`index`] — the frame index: one resident frame per page identity,
//!   shared by every restored image that maps it.
//! * [`pageout`] — the clock (second-chance) page-replacement algorithm,
//!   also used to pick the hottest pages for restore prefetch.

pub mod cow;
pub mod fault;
pub mod frame;
pub mod index;
pub mod map;
pub mod object;
pub mod page;
pub mod pageout;
pub mod pager;

use std::sync::Arc;

use aurora_sim::SimClock;

pub use frame::{FrameId, FrameTable};
pub use index::Residency;
pub use map::{MapEntry, Prot, SlsPolicy, VmMap};
pub use object::{DirtyMask, VmObject, VmoId, VmoKind, MAX_DIRTY_RUNS};
pub use page::{PageData, PAGE_SIZE};
pub use pager::{PageId, Pager, PagerId};

/// Counters describing VM activity; several feed the paper's tables.
#[derive(Debug, Default, Clone)]
pub struct VmStats {
    /// Copy-on-write faults serviced (checkpoint COW + fork COW).
    pub cow_faults: u64,
    /// Zero-fill faults.
    pub zero_fills: u64,
    /// Minor faults (resident page, mapping fixup only).
    pub minor_faults: u64,
    /// Major faults (page fetched from a pager/backing store).
    pub major_faults: u64,
    /// Pages copied between frames.
    pub pages_copied: u64,
    /// Pages armed for checkpoint COW (PTE manipulations).
    pub pages_armed: u64,
    /// Pages evicted by the clock algorithm.
    pub pages_evicted: u64,
}

/// The VM subsystem: frame table, object table, pagers and statistics.
pub struct Vm {
    /// Shared virtual clock.
    pub clock: Arc<SimClock>,
    /// Physical frame table.
    pub frames: FrameTable,
    objects: Vec<Option<VmObject>>,
    free_objects: Vec<u32>,
    pagers: Vec<Option<Box<dyn Pager>>>,
    /// Released pagers some live object is still bound to: each is
    /// unregistered when the last such object dies.
    released_pagers: std::collections::HashSet<PagerId>,
    /// Activity counters.
    pub stats: VmStats,
    /// Current checkpoint epoch (bumped by [`cow::begin_epoch`]).
    pub epoch: u64,
    next_uid: u64,
    /// The frame index: frames paged in through pagers, one per page
    /// identity, shared by every image that maps them (see [`index`]).
    index: index::FrameIndex,
}

impl Vm {
    /// Creates an empty VM subsystem.
    pub fn new(clock: Arc<SimClock>) -> Self {
        Vm {
            clock,
            frames: FrameTable::new(),
            objects: Vec::new(),
            free_objects: Vec::new(),
            pagers: Vec::new(),
            released_pagers: std::collections::HashSet::new(),
            stats: VmStats::default(),
            epoch: 1,
            next_uid: 1,
            index: index::FrameIndex::default(),
        }
    }

    /// Allocates a new VM object and returns its id.
    pub fn create_object(&mut self, kind: VmoKind, size_pages: u64) -> VmoId {
        let mut obj = VmObject::new(kind, size_pages);
        obj.uid = self.next_uid;
        self.next_uid += 1;
        match self.free_objects.pop() {
            Some(slot) => {
                self.objects[slot as usize] = Some(obj);
                VmoId(slot)
            }
            None => {
                self.objects.push(Some(obj));
                VmoId(self.objects.len() as u32 - 1)
            }
        }
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale — that is a kernel bug, not a user error.
    pub fn object(&self, id: VmoId) -> &VmObject {
        self.objects[id.0 as usize]
            .as_ref()
            .expect("stale VmoId: object already destroyed")
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn object_mut(&mut self, id: VmoId) -> &mut VmObject {
        self.objects[id.0 as usize]
            .as_mut()
            .expect("stale VmoId: object already destroyed")
    }

    /// True if the object id is live (used by assertions and tests).
    pub fn object_exists(&self, id: VmoId) -> bool {
        self.objects
            .get(id.0 as usize)
            .is_some_and(|o| o.is_some())
    }

    /// Takes a new reference on an object.
    pub fn ref_object(&mut self, id: VmoId) {
        self.object_mut(id).refs += 1;
    }

    /// Drops a reference; destroys the object (releasing frames and its
    /// backing reference) when the count reaches zero.
    pub fn unref_object(&mut self, id: VmoId) {
        let obj = self.object_mut(id);
        debug_assert!(obj.refs > 0, "unref of dead object");
        obj.refs -= 1;
        if obj.refs > 0 {
            return;
        }
        let obj = self.objects[id.0 as usize]
            .take()
            .expect("checked above: object exists");
        for (_, page) in obj.pages {
            self.frames.unref(page.frame);
        }
        for frozen in obj.frozen {
            self.frames.unref(frozen.frame);
        }
        self.free_objects.push(id.0);
        if let Some((pager, _)) = obj.pager {
            if self.released_pagers.contains(&pager) {
                self.reap_pager(pager);
            }
        }
        if let Some((backing, _)) = obj.backing {
            self.unref_object(backing);
        }
    }

    /// Registers a pager and returns its id.
    pub fn register_pager(&mut self, pager: Box<dyn Pager>) -> PagerId {
        self.pagers.push(Some(pager));
        PagerId(self.pagers.len() as u32 - 1)
    }

    /// Mutable access to a registered pager.
    ///
    /// # Panics
    ///
    /// Panics if the pager was unregistered.
    pub fn pager_mut(&mut self, id: PagerId) -> &mut dyn Pager {
        self.pagers[id.0 as usize]
            .as_mut()
            .expect("stale PagerId")
            .as_mut()
    }

    /// Releases a pager: the pages its image maps leave the frame index
    /// now, so later restores start cold, and the pager is unregistered
    /// once no live object is bound to it — an instance restored through
    /// it keeps faulting until it dies.
    pub fn release_pager(&mut self, id: PagerId) {
        self.forget_pager_pages(id);
        self.released_pagers.insert(id);
        self.reap_pager(id);
    }

    /// Unregisters a released pager when no live object is bound to it,
    /// dropping what its last instances faulted in since the release.
    fn reap_pager(&mut self, id: PagerId) {
        let bound = self
            .objects
            .iter()
            .flatten()
            .any(|o| o.pager.is_some_and(|(p, _)| p == id));
        if bound {
            return;
        }
        self.released_pagers.remove(&id);
        self.forget_pager_pages(id);
        self.pagers[id.0 as usize] = None;
    }

    /// Number of live objects (leak checking in tests).
    pub fn live_objects(&self) -> usize {
        self.objects.iter().filter(|o| o.is_some()).count()
    }
}

impl core::fmt::Debug for Vm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Vm")
            .field("objects", &self.live_objects())
            .field("frames", &self.frames.allocated())
            .field("epoch", &self.epoch)
            .finish()
    }
}
