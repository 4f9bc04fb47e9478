//! Per-process address spaces.
//!
//! A [`VmMap`] is a sorted set of [`MapEntry`]s, each wiring a virtual
//! address range to a window of a VM object. Entries carry the Aurora
//! policy bits controlled by `sls_mctl`: a region can be excluded from
//! checkpoints entirely, or hinted for eager/lazy restore.

use std::collections::BTreeMap;

use aurora_sim::error::{Error, Result};

use crate::object::{VmoId, VmoKind};
use crate::page::PAGE_SIZE;
use crate::Vm;

/// Protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Prot {
    /// Read-only.
    pub const RO: Prot = Prot {
        read: true,
        write: false,
    };
    /// Read-write.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
    };
}

/// Restore-policy hints for a region (set via `sls_mctl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreHint {
    /// Let the pageout heat ranking decide (default).
    #[default]
    Auto,
    /// Page the region in eagerly at restore.
    Eager,
    /// Always restore lazily, even hot pages.
    Lazy,
}

/// Aurora per-region policy (the `sls_mctl` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlsPolicy {
    /// Exclude this region from checkpoints (e.g. scratch buffers).
    pub exclude: bool,
    /// Restore paging hint.
    pub restore: RestoreHint,
}

/// One mapping: `[start, end)` → `object[offset_pages ..]`.
#[derive(Debug, Clone)]
pub struct MapEntry {
    /// First mapped address (page aligned).
    pub start: u64,
    /// One past the last mapped address (page aligned).
    pub end: u64,
    /// The mapped object.
    pub object: VmoId,
    /// Offset into the object, in pages.
    pub offset_pages: u64,
    /// Protection.
    pub prot: Prot,
    /// Shared mapping (writes visible to other mappers) vs private.
    pub shared: bool,
    /// Fork-COW pending: the next write fault must shadow-split.
    pub needs_copy: bool,
    /// Aurora checkpoint policy.
    pub policy: SlsPolicy,
}

impl MapEntry {
    /// Pages covered by this entry.
    pub fn pages(&self) -> u64 {
        (self.end - self.start) / PAGE_SIZE as u64
    }

    /// The object page index backing address `addr`.
    pub fn page_index(&self, addr: u64) -> u64 {
        debug_assert!(addr >= self.start && addr < self.end);
        self.offset_pages + (addr - self.start) / PAGE_SIZE as u64
    }
}

/// Lowest mappable user address.
pub const USER_BASE: u64 = 0x0000_0000_0001_0000;
/// Highest mappable user address (47-bit canonical space).
pub const USER_TOP: u64 = 0x0000_7FFF_FFFF_0000;

/// A process address space.
#[derive(Debug, Default)]
pub struct VmMap {
    entries: BTreeMap<u64, MapEntry>,
    /// Bump hint for fresh anonymous mappings.
    next_hint: u64,
}

impl VmMap {
    /// Creates an empty address space.
    pub fn new() -> Self {
        VmMap {
            entries: BTreeMap::new(),
            next_hint: USER_BASE,
        }
    }

    /// Iterates entries in address order.
    pub fn entries(&self) -> impl Iterator<Item = &MapEntry> {
        self.entries.values()
    }

    /// Number of map entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total mapped pages.
    pub fn total_pages(&self) -> u64 {
        self.entries.values().map(|e| e.pages()).sum()
    }

    /// Finds the entry containing `addr`.
    pub fn find(&self, addr: u64) -> Option<&MapEntry> {
        self.entries
            .range(..=addr)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| addr < e.end)
    }

    /// Finds the entry containing `addr`, mutably.
    pub fn find_mut(&mut self, addr: u64) -> Option<&mut MapEntry> {
        self.entries
            .range_mut(..=addr)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| addr < e.end)
    }

    /// Finds a free gap of `len` bytes at or above the hint.
    fn find_gap(&self, len: u64) -> Option<u64> {
        let mut candidate = self.next_hint.max(USER_BASE);
        loop {
            if candidate + len > USER_TOP {
                // Wrap once and search from the bottom.
                if self.next_hint == USER_BASE {
                    return None;
                }
                candidate = USER_BASE;
            }
            // The entry at or before the candidate must end by it; the
            // entry after must start after the candidate range.
            if let Some((_, prev)) = self.entries.range(..=candidate).next_back() {
                if prev.end > candidate {
                    candidate = prev.end;
                    continue;
                }
            }
            if let Some((_, next)) = self.entries.range(candidate..).next() {
                if next.start < candidate + len {
                    candidate = next.end;
                    continue;
                }
            }
            return Some(candidate);
        }
    }

    /// Inserts an entry (internal; ranges must not overlap).
    fn insert(&mut self, entry: MapEntry) {
        debug_assert!(entry.start < entry.end);
        debug_assert!(entry.start.is_multiple_of(PAGE_SIZE as u64));
        self.entries.insert(entry.start, entry);
    }

    /// Installs a fully formed entry at its recorded address (restore
    /// path). The caller holds the object reference this entry consumes.
    pub fn install_entry(&mut self, entry: MapEntry) {
        self.next_hint = self.next_hint.max(entry.end);
        self.insert(entry);
    }
}

impl Vm {
    /// Maps `len` bytes of fresh anonymous memory.
    ///
    /// Returns the chosen base address. `shared` controls whether fork
    /// children share writes (the SysV-shm-like behaviour) or get COW
    /// copies.
    pub fn map_anonymous(
        &mut self,
        map: &mut VmMap,
        len: u64,
        prot: Prot,
        shared: bool,
    ) -> Result<u64> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(Error::invalid(format!("bad mapping length {len}")));
        }
        let addr = map
            .find_gap(len)
            .ok_or_else(|| Error::no_memory("address space exhausted"))?;
        let kind = if shared {
            VmoKind::SharedMem
        } else {
            VmoKind::Anonymous
        };
        let object = self.create_object(kind, len / PAGE_SIZE as u64);
        map.insert(MapEntry {
            start: addr,
            end: addr + len,
            object,
            offset_pages: 0,
            prot,
            shared,
            needs_copy: false,
            policy: SlsPolicy::default(),
        });
        map.next_hint = addr + len;
        Ok(addr)
    }

    /// Maps an existing object (shared memory attach, file mapping).
    ///
    /// Takes a new reference on the object.
    pub fn map_object(
        &mut self,
        map: &mut VmMap,
        object: VmoId,
        offset_pages: u64,
        len: u64,
        prot: Prot,
        shared: bool,
    ) -> Result<u64> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(Error::invalid(format!("bad mapping length {len}")));
        }
        let addr = map
            .find_gap(len)
            .ok_or_else(|| Error::no_memory("address space exhausted"))?;
        self.ref_object(object);
        map.insert(MapEntry {
            start: addr,
            end: addr + len,
            object,
            offset_pages,
            prot,
            shared,
            needs_copy: !shared,
            policy: SlsPolicy::default(),
        });
        map.next_hint = addr + len;
        Ok(addr)
    }

    /// Unmaps the entry containing `addr` (whole-entry granularity).
    pub fn unmap(&mut self, map: &mut VmMap, addr: u64) -> Result<()> {
        let start = map
            .find(addr)
            .map(|e| e.start)
            .ok_or_else(|| Error::fault(format!("unmap: {addr:#x} not mapped")))?;
        let entry = map.entries.remove(&start).expect("entry just found");
        self.unref_object(entry.object);
        Ok(())
    }

    /// Changes protection of the entry containing `addr`.
    pub fn protect(&mut self, map: &mut VmMap, addr: u64, prot: Prot) -> Result<()> {
        let entry = map
            .find_mut(addr)
            .ok_or_else(|| Error::fault(format!("protect: {addr:#x} not mapped")))?;
        entry.prot = prot;
        Ok(())
    }

    /// Updates the Aurora policy of the entry containing `addr`
    /// (the kernel half of `sls_mctl`).
    pub fn set_policy(&mut self, map: &mut VmMap, addr: u64, policy: SlsPolicy) -> Result<()> {
        let entry = map
            .find_mut(addr)
            .ok_or_else(|| Error::fault(format!("mctl: {addr:#x} not mapped")))?;
        entry.policy = policy;
        Ok(())
    }

    /// Duplicates an address space for fork.
    ///
    /// Shared entries alias the same object. Private entries go
    /// copy-on-write: both parent and child keep referencing the original
    /// object with `needs_copy` set, and the first write fault on either
    /// side pushes a shadow object (see [`crate::fault`]). Charges one PTE
    /// copy per resident page, like a real fork.
    pub fn fork_map(&mut self, parent: &mut VmMap) -> VmMap {
        let mut child = VmMap::new();
        child.next_hint = parent.next_hint;
        let mut pte_copies = 0u64;
        for entry in parent.entries.values_mut() {
            self.ref_object(entry.object);
            let mut child_entry = entry.clone();
            if !entry.shared {
                entry.needs_copy = true;
                child_entry.needs_copy = true;
            }
            pte_copies += self.objects_resident_range(
                entry.object,
                entry.offset_pages,
                entry.pages(),
            );
            child.insert(child_entry);
        }
        self.clock.charge(aurora_sim::time::SimDuration::from_nanos(
            pte_copies * aurora_sim::cost::PTE_COPY_NS,
        ));
        child
    }

    /// Counts resident pages of `object` within `[offset, offset+pages)`.
    fn objects_resident_range(&self, object: VmoId, offset: u64, pages: u64) -> u64 {
        self.object(object)
            .pages
            .range(offset..offset + pages)
            .count() as u64
    }

    /// Destroys an address space, releasing every object reference.
    pub fn destroy_map(&mut self, map: &mut VmMap) {
        let entries = core::mem::take(&mut map.entries);
        for (_, entry) in entries {
            self.unref_object(entry.object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::SimClock;

    #[test]
    fn anonymous_mappings_do_not_overlap() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm
            .map_anonymous(&mut map, 4 * PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        let b = vm
            .map_anonymous(&mut map, 4 * PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        assert!(b >= a + 4 * PAGE_SIZE as u64 || a >= b + 4 * PAGE_SIZE as u64);
        assert_eq!(map.len(), 2);
        assert_eq!(map.total_pages(), 8);
    }

    #[test]
    fn find_resolves_interior_addresses() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm
            .map_anonymous(&mut map, 2 * PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        assert!(map.find(a).is_some());
        assert!(map.find(a + 100).is_some());
        assert!(map.find(a + 2 * PAGE_SIZE as u64).is_none());
        assert!(map.find(a.wrapping_sub(1)).is_none());
    }

    #[test]
    fn unmap_releases_object() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm
            .map_anonymous(&mut map, PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        assert_eq!(vm.live_objects(), 1);
        vm.unmap(&mut map, a).unwrap();
        assert_eq!(vm.live_objects(), 0);
        assert!(vm.unmap(&mut map, a).is_err());
    }

    #[test]
    fn fork_shares_objects_and_sets_needs_copy() {
        let mut vm = Vm::new(SimClock::new());
        let mut parent = VmMap::new();
        vm.map_anonymous(&mut parent, PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        vm.map_anonymous(&mut parent, PAGE_SIZE as u64, Prot::RW, true)
            .unwrap();
        let child = vm.fork_map(&mut parent);
        assert_eq!(child.len(), 2);
        let p: Vec<_> = parent.entries().collect();
        let c: Vec<_> = child.entries().collect();
        // Private entry: both sides flagged needs_copy.
        assert!(p[0].needs_copy && c[0].needs_copy);
        // Shared entry: no COW.
        assert!(!p[1].needs_copy && !c[1].needs_copy);
        assert_eq!(p[0].object, c[0].object);
        // Two references per object now.
        assert_eq!(vm.object(p[0].object).refs, 2);
    }

    #[test]
    fn destroy_map_releases_everything() {
        let mut vm = Vm::new(SimClock::new());
        let mut parent = VmMap::new();
        vm.map_anonymous(&mut parent, PAGE_SIZE as u64, Prot::RW, false)
            .unwrap();
        let mut child = vm.fork_map(&mut parent);
        vm.destroy_map(&mut child);
        assert_eq!(vm.live_objects(), 1);
        vm.destroy_map(&mut parent);
        assert_eq!(vm.live_objects(), 0);
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        assert!(vm.map_anonymous(&mut map, 0, Prot::RW, false).is_err());
        assert!(vm.map_anonymous(&mut map, 100, Prot::RW, false).is_err());
    }
}
