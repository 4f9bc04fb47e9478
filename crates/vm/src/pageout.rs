//! Clock (second-chance) page replacement.
//!
//! Aurora integrates swap with the SLS: under memory pressure, pages are
//! evicted with the classic clock algorithm [Corbató 1968] and written to
//! the backing pager, where the next checkpoint picks them up. The same
//! reference/heat bookkeeping drives lazy restore's *eager warmup*: the
//! hottest pages of a checkpointed object are paged back in first so a
//! freshly restored application avoids a storm of major faults.

use aurora_sim::error::{Error, Result};

use crate::object::VmoId;
use crate::Vm;

/// Outcome of one eviction sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictStats {
    /// Pages written to the pager and released.
    pub evicted: u64,
    /// Pages given a second chance (reference bit cleared).
    pub second_chance: u64,
    /// Pages skipped because their frames are shared/frozen.
    pub pinned: u64,
}

impl Vm {
    /// Runs the clock hand over `object`, evicting up to `target` pages.
    ///
    /// A page is evictable when its reference bit is clear and its frame
    /// is not shared (a frozen checkpoint frame or a cross-image shared
    /// frame must stay resident until its other holders let go — evicting
    /// it would only save the resident mapping, not the memory).
    /// Referenced pages get their bit cleared — the second chance.
    ///
    /// Write-back policy depends on the pager:
    ///
    /// * **Private pagers** (swap): dirty contents are written back, and
    ///   the page leaves the frame index so the next fault reads the
    ///   written-back copy.
    /// * **Shared pagers** (checkpoint images feeding several restored
    ///   instances): clean pages are simply dropped (the image still has
    ///   them — and siblings may keep using the indexed frame), while
    ///   dirty pages are *pinned* resident: writing them back through a
    ///   shared pager would leak one instance's writes into its siblings.
    ///   Dirty image pages leave residency only via the next checkpoint.
    pub fn evict_pages(&mut self, object: VmoId, target: u64) -> Result<EvictStats> {
        let (pager, key) = self
            .object(object)
            .pager
            .ok_or_else(|| Error::invalid("evict: object has no pager"))?;
        let pager_shared = self.pager_mut(pager).shared();
        let mut stats = EvictStats::default();
        // Snapshot the clock order (ascending page index — the hand).
        let indices: Vec<u64> = self.object(object).pages.keys().copied().collect();
        for idx in indices {
            if stats.evicted >= target {
                break;
            }
            let (frame, referenced, write_epoch) = {
                let page = self.object(object).page(idx).expect("page listed above");
                (page.frame, page.referenced, page.write_epoch)
            };
            if referenced {
                self.object_mut(object)
                    .pages
                    .get_mut(&idx)
                    .expect("page listed above")
                    .referenced = false;
                stats.second_chance += 1;
                continue;
            }
            let dirty = write_epoch > 0;
            if pager_shared {
                if dirty {
                    // Never write back through a shared pager.
                    stats.pinned += 1;
                    continue;
                }
                // Clean drop: the image (and possibly the frame index,
                // which holds its own frame reference for siblings)
                // still serves this page; only residency is released.
            } else {
                if self.frames.refs(frame) > 1 {
                    // Frozen by a checkpoint or shared: evicting would
                    // not release the memory.
                    stats.pinned += 1;
                    continue;
                }
                let data = self.frames.data(frame).clone();
                self.pager_mut(pager).page_out(key, idx, &data)?;
                // The written-back copy supersedes any indexed frame.
                self.forget_page(pager, key, idx);
            }
            self.object_mut(object).pages.remove(&idx);
            self.frames.unref(frame);
            stats.evicted += 1;
            self.stats.pages_evicted += 1;
        }
        Ok(stats)
    }

    /// Clears every reference bit of `object` — a full revolution of the
    /// clock hand with no memory pressure. Exposed for policy code and
    /// tests that want to age pages deterministically.
    pub fn clear_referenced(&mut self, object: VmoId) {
        for page in self.object_mut(object).pages.values_mut() {
            page.referenced = false;
        }
    }

    /// Returns up to `k` resident page indices of `object`, hottest first.
    ///
    /// Used by the checkpointer to record a heat ranking in the image so
    /// lazy restore can warm the working set eagerly.
    pub fn hottest_pages(&self, object: VmoId, k: usize) -> Vec<u64> {
        let obj = self.object(object);
        let mut ranked: Vec<(u32, u64)> = obj.pages.iter().map(|(i, p)| (p.heat, *i)).collect();
        ranked.sort_by(|a, b| b.cmp(a));
        ranked.into_iter().take(k).map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Access;
    use crate::map::{Prot, VmMap};
    use crate::page::PAGE_SIZE;
    use crate::pager::MemPager;
    use aurora_sim::SimClock;

    const P: u64 = PAGE_SIZE as u64;

    fn setup_with_pager(pages: u64) -> (Vm, VmMap, u64, VmoId) {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm
            .map_anonymous(&mut map, pages * P, Prot::RW, false)
            .unwrap();
        let obj = map.find(a).unwrap().object;
        let pid = vm.register_pager(Box::new(MemPager::new()));
        vm.object_mut(obj).pager = Some((pid, 1));
        (vm, map, a, obj)
    }

    #[test]
    fn second_chance_then_eviction() {
        let (mut vm, mut map, a, obj) = setup_with_pager(4);
        vm.touch_seeded(&mut map, a, 4 * P, 7).unwrap();
        // All pages referenced: first sweep only clears bits.
        let s1 = vm.evict_pages(obj, 4).unwrap();
        assert_eq!(s1.evicted, 0);
        assert_eq!(s1.second_chance, 4);
        // Second sweep evicts.
        let s2 = vm.evict_pages(obj, 2).unwrap();
        assert_eq!(s2.evicted, 2);
        assert_eq!(vm.object(obj).resident(), 2);
        vm.destroy_map(&mut map);
    }

    #[test]
    fn evicted_pages_come_back_from_pager_intact() {
        let (mut vm, mut map, a, obj) = setup_with_pager(2);
        vm.copyout(&mut map, a, b"persistent-bytes").unwrap();
        vm.evict_pages(obj, 2).unwrap(); // clear bits
        let s = vm.evict_pages(obj, 2).unwrap();
        assert_eq!(s.evicted, 1);
        assert_eq!(vm.object(obj).resident(), 0);
        // Fault it back.
        let mut buf = [0u8; 16];
        vm.copyin(&mut map, a, &mut buf).unwrap();
        assert_eq!(&buf, b"persistent-bytes");
        assert_eq!(vm.stats.major_faults, 1);
        vm.destroy_map(&mut map);
    }

    #[test]
    fn recently_used_pages_survive() {
        let (mut vm, mut map, a, obj) = setup_with_pager(4);
        vm.touch_seeded(&mut map, a, 4 * P, 7).unwrap();
        vm.clear_referenced(obj); // age every page
        // Re-reference page 2 only.
        vm.fault(&mut map, a + 2 * P, Access::Read).unwrap();
        let s = vm.evict_pages(obj, 4).unwrap();
        assert_eq!(s.evicted, 3);
        assert_eq!(s.second_chance, 1);
        assert!(vm.object(obj).page(2).is_some(), "hot page survived");
        vm.destroy_map(&mut map);
    }

    #[test]
    fn frozen_frames_are_pinned() {
        let (mut vm, mut map, a, obj) = setup_with_pager(2);
        vm.touch_seeded(&mut map, a, 2 * P, 7).unwrap();
        vm.clear_referenced(obj); // age every page
        let frame = vm.object(obj).page(0).unwrap().frame;
        vm.frames.ref_frame(frame); // checkpoint freeze
        let s = vm.evict_pages(obj, 2).unwrap();
        assert_eq!(s.pinned, 1);
        assert_eq!(s.evicted, 1);
        assert!(vm.object(obj).page(0).is_some());
        vm.frames.unref(frame);
        vm.destroy_map(&mut map);
    }

    #[test]
    fn hottest_pages_ranked_by_heat() {
        let (mut vm, mut map, a, obj) = setup_with_pager(4);
        vm.touch_seeded(&mut map, a, 4 * P, 7).unwrap();
        // Heat page 3 the most, then page 1.
        for _ in 0..5 {
            vm.fault(&mut map, a + 3 * P, Access::Read).unwrap();
        }
        for _ in 0..2 {
            vm.fault(&mut map, a + P, Access::Read).unwrap();
        }
        let hot = vm.hottest_pages(obj, 2);
        assert_eq!(hot, vec![3, 1]);
        vm.destroy_map(&mut map);
    }

    #[test]
    fn evict_without_pager_errors() {
        let mut vm = Vm::new(SimClock::new());
        let mut map = VmMap::new();
        let a = vm.map_anonymous(&mut map, P, Prot::RW, false).unwrap();
        let obj = map.find(a).unwrap().object;
        assert!(vm.evict_pages(obj, 1).is_err());
        vm.destroy_map(&mut map);
    }
}
