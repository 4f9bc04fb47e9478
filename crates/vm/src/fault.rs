//! The page-fault handler.
//!
//! This is where Aurora's key VM change lives. The write-fault rule is:
//!
//! > If the faulting page's frame is shared (reference count > 1 —
//! > because a checkpoint froze it, or because a restored image or
//! > another serverless instance shares it), allocate a fresh frame,
//! > copy the contents, and install the new frame **into the same VM
//! > object**, so every process mapping the object keeps seeing a single
//! > coherent page. The old frame stays alive through the references the
//! > checkpoint (or sibling image) holds.
//!
//! Contrast with fork-style COW, which installs the copy into a *shadow*
//! object private to the faulting process — correct for fork, fatal for
//! shared memory. Both paths are implemented below and distinguished by
//! the `needs_copy` bit on the map entry.
//!
//! The handler also implements zero-fill, shadow-chain lookup, and pager
//! page-in (major faults) for swap and lazy restore.

use aurora_sim::cost;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimDuration;

use crate::frame::FrameId;
use crate::index::Residency;
use crate::map::VmMap;
use crate::object::{DirtyMask, ResidentPage, VmoId, VmoKind};
use crate::page::{PageData, PAGE_SIZE};
use crate::Vm;

/// Kind of access that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

impl Vm {
    /// Resolves a fault at `addr`, returning the frame that now backs it.
    ///
    /// Charges the virtual cost of whatever work was needed (possibly
    /// none, for a resident unshared page — the hardware-TLB case).
    ///
    /// A raw write fault has no byte-range information, so it marks the
    /// page's whole [`DirtyMask`] dirty; `copyout` goes through the
    /// tracked variant to record its precise extent instead.
    pub fn fault(&mut self, map: &mut VmMap, addr: u64, access: Access) -> Result<FrameId> {
        self.fault_tracked(map, addr, access, None)
    }

    /// [`Vm::fault`] with an optional precise dirty extent
    /// (`page_offset`, `len`) recorded on a write.
    fn fault_tracked(
        &mut self,
        map: &mut VmMap,
        addr: u64,
        access: Access,
        extent: Option<(u32, u32)>,
    ) -> Result<FrameId> {
        let entry = map
            .find_mut(addr)
            .ok_or_else(|| Error::fault(format!("no mapping at {addr:#x}")))?;
        if access == Access::Write && !entry.prot.write {
            return Err(Error::fault(format!("write to read-only {addr:#x}")));
        }
        if access == Access::Read && !entry.prot.read {
            return Err(Error::fault(format!("read of unreadable {addr:#x}")));
        }
        let idx = entry.page_index(addr);

        // Fork-COW: the first write through a needs_copy entry interposes
        // a shadow object between the entry and its backing object.
        if access == Access::Write && entry.needs_copy {
            let old = entry.object;
            let size = self.object(old).size_pages;
            let shadow = self.create_object(VmoKind::Shadow, size);
            // The entry's reference on `old` is inherited by the shadow's
            // backing link, so no net reference change on `old`.
            self.object_mut(shadow).backing = Some((old, 0));
            let entry = map.find_mut(addr).expect("entry exists: found above");
            entry.object = shadow;
            entry.needs_copy = false;
        }

        let entry = map.find(addr).expect("entry exists: found above");
        let top = entry.object;
        let epoch = self.epoch;

        // Walk the shadow chain looking for the page.
        let mut cur = top;
        let mut cur_idx = idx;
        let found: Option<(VmoId, u64, FrameId)> = loop {
            let (resident, pager_binding, backing) = {
                let obj = self.object(cur);
                (obj.page(cur_idx).map(|p| p.frame), obj.pager, obj.backing)
            };
            if let Some(frame) = resident {
                break Some((cur, cur_idx, frame));
            }
            if let Some((pager, key)) = pager_binding {
                let frame = match self.find_resident(pager, key, cur_idx) {
                    // Already in memory — faulted in by a sibling
                    // instance, or by another image holding the same
                    // stored block: a minor fault, no device traffic.
                    Some(Residency::Resident(frame)) => {
                        self.stats.minor_faults += 1;
                        Some(frame)
                    }
                    // Major fault: fetch from the backing store and
                    // publish the frame for every image that maps it.
                    Some(Residency::Absent(id)) => {
                        let data = self.pager_mut(pager).page_in(key, cur_idx)?;
                        self.stats.major_faults += 1;
                        Some(self.publish_frame(pager, key, cur_idx, id, data))
                    }
                    None => None,
                };
                if let Some(frame) = frame {
                    // The resident entry owns the reference the index
                    // handed over.
                    self.object_mut(cur)
                        .insert_page(cur_idx, ResidentPage::paged_in(frame));
                    self.clock
                        .charge(SimDuration::from_nanos(cost::MINOR_FAULT_NS));
                    break Some((cur, cur_idx, frame));
                }
            }
            match backing {
                Some((b, off)) => {
                    cur = b;
                    cur_idx += off;
                }
                None => break None,
            }
        };

        let resolved: Result<FrameId> = match (found, access) {
            (None, _) => {
                // Zero-fill into the top object.
                let frame = self.frames.alloc(PageData::Zero);
                let write_epoch = if access == Access::Write { epoch } else { 0 };
                self.object_mut(top).insert_page(
                    idx,
                    ResidentPage {
                        frame,
                        write_epoch,
                        cow_protected: false,
                        referenced: true,
                        heat: 1,
                    },
                );
                self.stats.zero_fills += 1;
                self.clock
                    .charge(SimDuration::from_nanos(cost::PAGE_ZERO_NS + cost::MINOR_FAULT_NS));
                Ok(frame)
            }
            (Some((owner, owner_idx, frame)), Access::Read) => {
                let page = self
                    .object_mut(owner)
                    .pages
                    .get_mut(&owner_idx)
                    .expect("page resident: found above");
                page.referenced = true;
                page.heat = page.heat.saturating_add(1);
                if owner != top {
                    // Mapping fixup for a backing-object page.
                    self.stats.minor_faults += 1;
                    self.clock
                        .charge(SimDuration::from_nanos(cost::MINOR_FAULT_NS));
                }
                Ok(frame)
            }
            (Some((owner, _owner_idx, frame)), Access::Write) => {
                if owner == top {
                    if self.frames.refs(frame) > 1 {
                        // Aurora checkpoint/sharing COW: install the copy
                        // into the SAME object so all mappers see it.
                        let data = self.frames.data(frame).clone();
                        let new = self.frames.alloc(data);
                        let page = self
                            .object_mut(top)
                            .pages
                            .get_mut(&idx)
                            .expect("page resident: found above");
                        page.frame = new;
                        page.write_epoch = epoch;
                        page.cow_protected = false;
                        page.referenced = true;
                        page.heat = page.heat.saturating_add(1);
                        // Drop the resident reference on the old frame;
                        // the checkpoint's (or sibling's) references keep
                        // it alive until flushed.
                        self.frames.unref(frame);
                        self.stats.cow_faults += 1;
                        self.stats.pages_copied += 1;
                        self.clock.charge(SimDuration::from_nanos(
                            cost::COW_FAULT_NS + cost::PAGE_COPY_NS,
                        ));
                        Ok(new)
                    } else {
                        // Exclusive resident page: plain write.
                        let page = self
                            .object_mut(top)
                            .pages
                            .get_mut(&idx)
                            .expect("page resident: found above");
                        page.write_epoch = epoch;
                        page.cow_protected = false;
                        page.referenced = true;
                        page.heat = page.heat.saturating_add(1);
                        Ok(frame)
                    }
                } else {
                    // Fork-COW resolution: copy the backing page up into
                    // the top (shadow) object; the backing page is
                    // untouched and stays shared with the other side.
                    let data = self.frames.data(frame).clone();
                    let new = self.frames.alloc(data);
                    self.object_mut(top).insert_page(
                        idx,
                        ResidentPage {
                            frame: new,
                            write_epoch: epoch,
                            cow_protected: false,
                            referenced: true,
                            heat: 1,
                        },
                    );
                    self.stats.cow_faults += 1;
                    self.stats.pages_copied += 1;
                    self.clock.charge(SimDuration::from_nanos(
                        cost::COW_FAULT_NS + cost::PAGE_COPY_NS,
                    ));
                    Ok(new)
                }
            }
        };
        let frame = resolved?;
        if access == Access::Write {
            // The write always lands in the top object (every COW arm
            // installs its copy there); record its footprint for the
            // flusher's delta/full decision.
            let mask = self.object_mut(top).dirty.entry(idx).or_default();
            match extent {
                Some((off, len)) => mask.note(off, len),
                None => *mask = DirtyMask::Full,
            }
        }
        Ok(frame)
    }

    /// Writes `data` into the address space at `addr` (kernel copyout).
    pub fn copyout(&mut self, map: &mut VmMap, addr: u64, data: &[u8]) -> Result<()> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr + off as u64;
            let page_off = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - page_off).min(data.len() - off);
            let frame =
                self.fault_tracked(map, cur, Access::Write, Some((page_off as u32, n as u32)))?;
            // The fault guaranteed exclusivity (refs == 1) for writes.
            self.frames.write(frame, page_off, &data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Reads from the address space at `addr` into `buf` (kernel copyin).
    pub fn copyin(&mut self, map: &mut VmMap, addr: u64, buf: &mut [u8]) -> Result<()> {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page_off = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - page_off).min(buf.len() - off);
            let frame = self.fault(map, cur, Access::Read)?;
            self.frames.data(frame).read(page_off, &mut buf[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Touches a whole range for writing with `Seeded` contents — used by
    /// benchmarks to model large working sets cheaply. Each page gets a
    /// deterministic seed derived from `(seed_base, page index)`.
    pub fn touch_seeded(
        &mut self,
        map: &mut VmMap,
        addr: u64,
        len: u64,
        seed_base: u64,
    ) -> Result<()> {
        let start_page = addr / PAGE_SIZE as u64;
        let pages = len.div_ceil(PAGE_SIZE as u64);
        for i in 0..pages {
            let a = (start_page + i) * PAGE_SIZE as u64;
            let frame = self.fault(map, a, Access::Write)?;
            // Mix the base before combining: a raw XOR would make nearby
            // seed bases produce shifted copies of each other's pages,
            // which dedup would then spuriously collapse.
            let seed =
                aurora_sim::rng::mix64(aurora_sim::rng::mix64(seed_base) ^ (start_page + i));
            self.frames.set_data(frame, PageData::Seeded(seed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Prot;
    use crate::pager::MemPager;
    use aurora_sim::SimClock;

    const P: u64 = PAGE_SIZE as u64;

    fn setup() -> (Vm, VmMap, u64) {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let addr = vm.map_anonymous(&mut map, 8 * P, Prot::RW, false).unwrap();
        (vm, map, addr)
    }

    #[test]
    fn zero_fill_then_readback() {
        let (mut vm, mut map, a) = setup();
        let mut buf = [0xFFu8; 16];
        vm.copyin(&mut map, a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(vm.stats.zero_fills, 1);
    }

    #[test]
    fn copyout_copyin_roundtrip_across_pages() {
        let (mut vm, mut map, a) = setup();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        // Deliberately unaligned start.
        vm.copyout(&mut map, a + 123, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        vm.copyin(&mut map, a + 123, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unmapped_and_protection_faults() {
        let (mut vm, mut map, a) = setup();
        let mut buf = [0u8; 4];
        assert!(vm.copyin(&mut map, 0x10, &mut buf).is_err());
        vm.protect(&mut map, a, Prot::RO).unwrap();
        assert!(vm.copyout(&mut map, a, &[1]).is_err());
        assert!(vm.copyin(&mut map, a, &mut buf).is_ok());
    }

    #[test]
    fn fork_cow_isolates_parent_and_child() {
        let (mut vm, mut parent, a) = setup();
        vm.copyout(&mut parent, a, b"parent-data").unwrap();
        let mut child = vm.fork_map(&mut parent);

        // Child sees parent's data through the chain.
        let mut buf = [0u8; 11];
        vm.copyin(&mut child, a, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");

        // Child writes; parent must not see it.
        vm.copyout(&mut child, a, b"child-data!").unwrap();
        vm.copyin(&mut parent, a, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");
        vm.copyin(&mut child, a, &mut buf).unwrap();
        assert_eq!(&buf, b"child-data!");
        assert!(vm.stats.cow_faults >= 1);

        // Parent writes; child keeps its copy.
        vm.copyout(&mut parent, a, b"parent-new!").unwrap();
        vm.copyin(&mut child, a, &mut buf).unwrap();
        assert_eq!(&buf, b"child-data!");

        vm.destroy_map(&mut child);
        vm.destroy_map(&mut parent);
        assert_eq!(vm.live_objects(), 0);
        assert_eq!(vm.frames.allocated(), 0);
    }

    #[test]
    fn shared_mapping_propagates_writes_after_fork() {
        let mut vm = Vm::new(SimClock::new());
        let mut parent = VmMap::new();
        let a = vm.map_anonymous(&mut parent, P, Prot::RW, true).unwrap();
        vm.copyout(&mut parent, a, b"before").unwrap();
        let mut child = vm.fork_map(&mut parent);
        vm.copyout(&mut child, a, b"after!").unwrap();
        let mut buf = [0u8; 6];
        vm.copyin(&mut parent, a, &mut buf).unwrap();
        assert_eq!(&buf, b"after!", "shared memory must stay shared");
        vm.destroy_map(&mut child);
        vm.destroy_map(&mut parent);
    }

    #[test]
    fn aurora_cow_preserves_sharing_for_shared_frames() {
        // Two processes share an object; a checkpoint-style extra frame
        // reference exists. A write must replace the page in the shared
        // object (both procs see the new data) and leave the old frame
        // intact for the flusher.
        let mut vm = Vm::new(SimClock::new());
        let mut m1 = VmMap::new();
        let a = vm.map_anonymous(&mut m1, P, Prot::RW, true).unwrap();
        vm.copyout(&mut m1, a, b"original").unwrap();
        let obj = m1.find(a).unwrap().object;
        let mut m2 = VmMap::new();
        let b = vm.map_object(&mut m2, obj, 0, P, Prot::RW, true).unwrap();

        // Freeze the frame as a checkpoint would.
        let frame = vm.object(obj).page(0).unwrap().frame;
        vm.frames.ref_frame(frame);
        let old_data = vm.frames.data(frame).clone();

        // Writer in process 2 faults: Aurora COW.
        vm.copyout(&mut m2, b, b"modified").unwrap();
        assert_eq!(vm.stats.cow_faults, 1);

        // Both processes see the new data.
        let mut buf = [0u8; 8];
        vm.copyin(&mut m1, a, &mut buf).unwrap();
        assert_eq!(&buf, b"modified");
        vm.copyin(&mut m2, b, &mut buf).unwrap();
        assert_eq!(&buf, b"modified");

        // The frozen frame still holds the original contents.
        assert!(vm.frames.data(frame).content_eq(&old_data));
        let mut orig = [0u8; 8];
        vm.frames.data(frame).read(0, &mut orig);
        assert_eq!(&orig, b"original");
        vm.frames.unref(frame);
        vm.destroy_map(&mut m1);
        vm.destroy_map(&mut m2);
    }

    #[test]
    fn exactly_one_cow_per_armed_page() {
        let (mut vm, mut map, a) = setup();
        vm.copyout(&mut map, a, b"x").unwrap();
        let obj = map.find(a).unwrap().object;
        let frame = vm.object(obj).page(0).unwrap().frame;
        vm.frames.ref_frame(frame); // arm
        vm.copyout(&mut map, a, b"y").unwrap();
        assert_eq!(vm.stats.cow_faults, 1);
        vm.copyout(&mut map, a, b"z").unwrap();
        vm.copyout(&mut map, a, b"w").unwrap();
        assert_eq!(vm.stats.cow_faults, 1, "subsequent writes are free");
        vm.frames.unref(frame);
    }

    #[test]
    fn pager_supplies_missing_pages() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm.map_anonymous(&mut map, 4 * P, Prot::RW, false).unwrap();
        let obj = map.find(a).unwrap().object;

        let mut pager = MemPager::new();
        pager.preload(77, 1, PageData::Seeded(1234));
        let pid = vm.register_pager(Box::new(pager));
        vm.object_mut(obj).pager = Some((pid, 77));

        // Page 1 comes from the pager (major fault)...
        let mut buf = vec![0u8; PAGE_SIZE];
        vm.copyin(&mut map, a + P, &mut buf).unwrap();
        assert_eq!(buf, PageData::Seeded(1234).materialize());
        assert_eq!(vm.stats.major_faults, 1);
        // ...page 2 is zero-filled (the pager has nothing for it).
        vm.copyin(&mut map, a + 2 * P, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(vm.stats.zero_fills, 1);
    }

    #[test]
    fn write_epoch_stamping() {
        let (mut vm, mut map, a) = setup();
        vm.copyout(&mut map, a, b"1").unwrap();
        let obj = map.find(a).unwrap().object;
        assert_eq!(vm.object(obj).page(0).unwrap().write_epoch, 1);
        vm.epoch = 5;
        vm.copyout(&mut map, a + P, b"2").unwrap();
        assert_eq!(vm.object(obj).page(0).unwrap().write_epoch, 1);
        assert_eq!(vm.object(obj).page(1).unwrap().write_epoch, 5);
    }

    #[test]
    fn copyout_records_sub_page_dirty_extent() {
        // A 64-byte kernel write must report a dirty footprint of at most
        // 128 bytes — the heart of the delta-checkpoint optimization.
        let (mut vm, mut map, a) = setup();
        vm.copyout(&mut map, a + 256, &[0xAB; 64]).unwrap();
        let obj = map.find(a).unwrap().object;
        let mask = vm.object(obj).dirty.get(&0).expect("mask recorded");
        assert_eq!(mask.runs().unwrap(), &[(256, 64)]);
        assert!(mask.bytes().unwrap() <= 128);

        // A raw write fault on another page is conservatively full.
        vm.fault(&mut map, a + P, Access::Write).unwrap();
        let mask = vm.object(obj).dirty.get(&1).expect("mask recorded");
        assert!(mask.runs().is_none(), "untracked write marks the whole page");
    }

    #[test]
    fn copyout_straddling_pages_tracks_both_masks() {
        let (mut vm, mut map, a) = setup();
        // 100 bytes starting 30 bytes before a page boundary.
        vm.copyout(&mut map, a + P - 30, &[7u8; 100]).unwrap();
        let obj = map.find(a).unwrap().object;
        let m0 = vm.object(obj).dirty.get(&0).unwrap();
        assert_eq!(m0.runs().unwrap(), &[(PAGE_SIZE as u32 - 30, 30)]);
        let m1 = vm.object(obj).dirty.get(&1).unwrap();
        assert_eq!(m1.runs().unwrap(), &[(0, 70)]);
    }

    #[test]
    fn touch_seeded_populates_range() {
        let (mut vm, mut map, a) = setup();
        vm.touch_seeded(&mut map, a, 4 * P, 0xDEAD).unwrap();
        let obj = map.find(a).unwrap().object;
        assert_eq!(vm.object(obj).resident(), 4);
        // Pages differ from one another.
        let f0 = vm.object(obj).page(0).unwrap().frame;
        let f1 = vm.object(obj).page(1).unwrap().frame;
        assert!(!vm.frames.data(f0).content_eq(vm.frames.data(f1)));
    }
}
