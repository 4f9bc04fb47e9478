//! The data-region block allocator.
//!
//! Blocks are reference counted: a block's count is the number of
//! checkpoint page entries plus staged (uncommitted) page entries that
//! point at it (dedup adds more). A block returns to the free set
//! at zero — this is the "lower overhead COW layout" that lets old
//! checkpoints be garbage collected in place.
//!
//! Placement is next-fit: allocation walks a write frontier forward
//! through the region and wraps to the lowest free block only when
//! nothing is free past it. Consecutive allocations therefore land on
//! adjacent blocks even after GC has freed scattered ones, which is what
//! lets the flush path submit a checkpoint's fresh pages as full
//! extents. The cursor is a placement hint, not durable state: recovery
//! restarts it one past the highest referenced block.

use std::collections::{BTreeSet, HashMap};

use aurora_sim::error::{Error, Result};

use crate::BlockPtr;

/// The allocator.
#[derive(Debug, Clone)]
pub struct BlockAlloc {
    /// Refcount per block below the high-water mark; its length is the
    /// high-water mark, so `[refs.len(), total)` has never been handed out.
    refs: Vec<u32>,
    /// Unreferenced blocks below the high-water mark.
    free: BTreeSet<u64>,
    /// Where the next allocation starts looking: one past the block
    /// handed out last. Never above the high-water mark.
    cursor: u64,
    total: u64,
    in_use: u64,
}

impl BlockAlloc {
    /// Creates an allocator over `total` data blocks, none of them used.
    pub fn new(total: u64) -> Self {
        Self::from_refs(total, &HashMap::new())
    }

    /// Rebuilds the allocator from replayed refcounts (recovery and
    /// rollback). Every unreferenced block below the highest referenced
    /// one is free, and the cursor starts just past it.
    pub fn from_refs(total: u64, counts: &HashMap<u64, u32>) -> Self {
        let high = counts.keys().max().map_or(0, |&b| b + 1);
        let mut refs = vec![0u32; usize::try_from(high).unwrap_or(0)];
        for (&b, &r) in counts {
            if let Some(slot) = usize::try_from(b).ok().and_then(|i| refs.get_mut(i)) {
                *slot = r;
            }
        }
        let free: BTreeSet<u64> = unreferenced(&refs).collect();
        BlockAlloc {
            in_use: refs.len() as u64 - free.len() as u64,
            refs,
            free,
            cursor: high,
            total,
        }
    }

    /// Allocates a block with refcount 1: the first free block at or
    /// after the cursor, else the lowest free block.
    pub fn alloc(&mut self) -> Result<BlockPtr> {
        let high = self.refs.len() as u64;
        let idx = self
            .free
            .range(self.cursor..)
            .next()
            .copied()
            .or((high < self.total).then_some(high))
            .or_else(|| self.free.first().copied())
            .ok_or_else(|| Error::no_space("object store data region full"))?;
        self.free.remove(&idx);
        match self.slot(idx) {
            Some(slot) => {
                debug_assert_eq!(*slot, 0, "allocating a live block");
                *slot = 1;
            }
            // The never-used tail: `idx` is the high-water mark.
            None => self.refs.push(1),
        }
        self.cursor = idx + 1;
        self.in_use += 1;
        Ok(BlockPtr(idx))
    }

    /// Bumps a block's refcount (dedup hit, checkpoint commit).
    pub fn incref(&mut self, b: BlockPtr) {
        let slot = self.live_slot(b);
        debug_assert!(slot.is_some(), "incref of free block");
        if let Some(r) = slot {
            *r += 1;
        }
    }

    /// Drops a reference; returns true when the block became free.
    pub fn decref(&mut self, b: BlockPtr) -> bool {
        let slot = self.live_slot(b);
        debug_assert!(slot.is_some(), "decref of free block");
        let Some(r) = slot else {
            return false;
        };
        *r -= 1;
        if *r > 0 {
            return false;
        }
        self.free.insert(b.0);
        self.in_use -= 1;
        true
    }

    /// Current refcount (tests and GC assertions).
    pub fn refs(&self, b: BlockPtr) -> u32 {
        usize::try_from(b.0)
            .ok()
            .and_then(|i| self.refs.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Blocks currently referenced.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Data-block indices with a nonzero refcount, ascending — the live
    /// allocation map a resilver walks to rebuild a replica.
    pub fn allocated(&self) -> impl Iterator<Item = u64> + '_ {
        self.refs
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0)
            .map(|(i, _)| i as u64)
    }

    /// Unreferenced blocks that [`BlockAlloc::alloc`] can never hand
    /// out again — leaked space (`fsck`). Empty on a healthy allocator.
    pub fn stranded(&self) -> impl Iterator<Item = u64> + '_ {
        unreferenced(&self.refs).filter(|b| !self.free.contains(b))
    }

    /// Total capacity.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn slot(&mut self, idx: u64) -> Option<&mut u32> {
        usize::try_from(idx).ok().and_then(|i| self.refs.get_mut(i))
    }

    /// The refcount of a referenced block; `None` for a free one.
    fn live_slot(&mut self, b: BlockPtr) -> Option<&mut u32> {
        self.slot(b.0).filter(|r| **r > 0)
    }
}

/// Indices of the zero counts in `refs`, ascending.
fn unreferenced(refs: &[u32]) -> impl Iterator<Item = u64> + '_ {
    refs.iter()
        .enumerate()
        .filter(|(_, &r)| r == 0)
        .map(|(i, _)| i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_follows_the_frontier() {
        let mut a = BlockAlloc::new(8);
        let first: Vec<u64> = (0..4).map(|_| a.alloc().unwrap().0).collect();
        assert_eq!(first, [0, 1, 2, 3]);
        // Blocks freed behind the cursor wait; allocation keeps moving
        // forward, so consecutive blocks stay adjacent.
        a.decref(BlockPtr(1));
        a.decref(BlockPtr(2));
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.alloc().unwrap(), BlockPtr(4));
        assert_eq!(a.alloc().unwrap(), BlockPtr(5));
    }

    #[test]
    fn wrap_reuses_the_lowest_free_block() {
        let mut a = BlockAlloc::new(8);
        for _ in 0..8 {
            a.alloc().unwrap();
        }
        // Free out of order; the wrap starts from the lowest, then the
        // cursor walks forward through the rest.
        a.decref(BlockPtr(6));
        a.decref(BlockPtr(1));
        a.decref(BlockPtr(3));
        assert_eq!(a.alloc().unwrap(), BlockPtr(1));
        a.decref(BlockPtr(0));
        // Block 0 is behind the cursor: next-fit takes 3 and 6 first.
        let rest: Vec<u64> = (0..3).map(|_| a.alloc().unwrap().0).collect();
        assert_eq!(rest, [3, 6, 0]);
        assert!(a.alloc().is_err());
    }

    #[test]
    fn refcounting() {
        let mut a = BlockAlloc::new(4);
        let b = a.alloc().unwrap();
        a.incref(b);
        a.incref(b);
        assert_eq!(a.refs(b), 3);
        assert!(!a.decref(b));
        assert!(!a.decref(b));
        assert!(a.decref(b));
        assert_eq!(a.refs(b), 0);
    }

    #[test]
    fn exhaustion() {
        let mut a = BlockAlloc::new(2);
        a.alloc().unwrap();
        let b = a.alloc().unwrap();
        assert!(a.alloc().is_err());
        a.decref(b);
        assert!(a.alloc().is_ok());
    }

    #[test]
    fn from_refs_frees_the_holes() {
        let refs = HashMap::from([(2, 1), (5, 3)]);
        let mut a = BlockAlloc::from_refs(8, &refs);
        assert_eq!(a.refs(BlockPtr(5)), 3);
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.stranded().count(), 0, "every hole is allocatable");
        // The cursor restarts past the highest referenced block, then
        // wraps onto the holes below it.
        let got: Vec<u64> = (0..6).map(|_| a.alloc().unwrap().0).collect();
        assert_eq!(got, [6, 7, 0, 1, 3, 4]);
        assert!(a.alloc().is_err());
    }

    #[test]
    fn a_hole_missing_from_the_free_set_is_stranded() {
        let mut a = BlockAlloc::from_refs(8, &HashMap::from([(4, 1)]));
        a.free.remove(&1);
        assert_eq!(a.stranded().collect::<Vec<_>>(), [1]);
    }
}
