//! The physical frame table.
//!
//! Frames are reference counted: a frame may simultaneously be resident in
//! a VM object, frozen for an in-flight checkpoint flush, and shared with
//! a restored image (the paper: "No memory is copied, since Aurora uses
//! COW semantics to share pages between the image and the running
//! application"). The table is a slab with an embedded free list.

use crate::page::PageData;

/// Identifier of a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub(crate) u32);

#[derive(Debug)]
struct Frame {
    data: PageData,
    refs: u32,
}

/// The frame table.
#[derive(Debug, Default)]
pub struct FrameTable {
    frames: Vec<Option<Frame>>,
    free: Vec<u32>,
    allocated: usize,
    /// High-water mark of simultaneously allocated frames.
    peak: usize,
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// Allocates a frame holding `data`, with one reference.
    pub fn alloc(&mut self, data: PageData) -> FrameId {
        self.allocated += 1;
        self.peak = self.peak.max(self.allocated);
        let frame = Frame { data, refs: 1 };
        match self.free.pop() {
            Some(slot) => {
                self.frames[slot as usize] = Some(frame);
                FrameId(slot)
            }
            None => {
                self.frames.push(Some(frame));
                FrameId(self.frames.len() as u32 - 1)
            }
        }
    }

    fn frame(&self, id: FrameId) -> &Frame {
        self.frames[id.0 as usize]
            .as_ref()
            .expect("stale FrameId: frame already freed")
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut Frame {
        self.frames[id.0 as usize]
            .as_mut()
            .expect("stale FrameId: frame already freed")
    }

    /// Takes an additional reference on a frame.
    pub fn ref_frame(&mut self, id: FrameId) {
        self.frame_mut(id).refs += 1;
    }

    /// Drops a reference, freeing the frame at zero.
    pub fn unref(&mut self, id: FrameId) {
        let frame = self.frame_mut(id);
        debug_assert!(frame.refs > 0, "unref of free frame");
        frame.refs -= 1;
        if frame.refs == 0 {
            self.frames[id.0 as usize] = None;
            self.free.push(id.0);
            self.allocated -= 1;
        }
    }

    /// Reference count of a frame (test/introspection).
    pub fn refs(&self, id: FrameId) -> u32 {
        self.frame(id).refs
    }

    /// The page contents of a frame.
    pub fn data(&self, id: FrameId) -> &PageData {
        &self.frame(id).data
    }

    /// Replaces the contents of a frame in place.
    ///
    /// Only legal for exclusively owned frames: overwriting a shared frame
    /// would be a COW violation, which is exactly the bug class the Aurora
    /// fault handler exists to prevent.
    ///
    /// # Panics
    ///
    /// Panics if the frame has more than one reference.
    pub fn set_data(&mut self, id: FrameId, data: PageData) {
        let frame = self.frame_mut(id);
        assert_eq!(
            frame.refs, 1,
            "in-place write to a shared frame (COW violation)"
        );
        frame.data = data;
    }

    /// Writes `data` at `off` into the contents of a frame
    /// ([`PageData::write`]): in place while the frame's body is
    /// referenced by nothing else, through one copy when the body is
    /// shared with a frozen flush, the object store or the medium.
    ///
    /// # Panics
    ///
    /// Panics if the frame has more than one reference, as
    /// [`FrameTable::set_data`] does.
    pub fn write(&mut self, id: FrameId, off: usize, data: &[u8]) {
        let frame = self.frame_mut(id);
        assert_eq!(
            frame.refs, 1,
            "in-place write to a shared frame (COW violation)"
        );
        frame.data.write(off, data);
    }

    /// True if the frame id refers to a live frame.
    pub fn exists(&self, id: FrameId) -> bool {
        self.frames
            .get(id.0 as usize)
            .is_some_and(|f| f.is_some())
    }

    /// Number of live frames.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// High-water mark of live frames.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_reuses_slots() {
        let mut t = FrameTable::new();
        let a = t.alloc(PageData::Zero);
        let b = t.alloc(PageData::Seeded(1));
        assert_eq!(t.allocated(), 2);
        t.unref(a);
        assert_eq!(t.allocated(), 1);
        assert!(!t.exists(a));
        let c = t.alloc(PageData::Zero);
        assert_eq!(c.0, a.0, "slot reused");
        t.unref(b);
        t.unref(c);
        assert_eq!(t.allocated(), 0);
        assert_eq!(t.peak(), 2);
    }

    #[test]
    fn refcounting_keeps_frames_alive() {
        let mut t = FrameTable::new();
        let f = t.alloc(PageData::Seeded(9));
        t.ref_frame(f);
        assert_eq!(t.refs(f), 2);
        t.unref(f);
        assert!(t.exists(f));
        t.unref(f);
        assert!(!t.exists(f));
    }

    #[test]
    #[should_panic(expected = "COW violation")]
    fn shared_frame_write_panics() {
        let mut t = FrameTable::new();
        let f = t.alloc(PageData::Zero);
        t.ref_frame(f);
        t.set_data(f, PageData::Seeded(1));
    }

    #[test]
    fn writes_land_in_place_on_an_unshared_body_and_copy_a_shared_one() {
        use std::sync::Arc;
        let body = |t: &FrameTable, f| match t.data(f) {
            PageData::Bytes(b) => Arc::clone(b),
            other => panic!("a written frame holds bytes, not {other:?}"),
        };
        let mut t = FrameTable::new();
        let f = t.alloc(PageData::Zero);
        t.write(f, 0, b"first");
        let ptr = Arc::as_ptr(&body(&t, f));
        t.write(f, 8, b"second");
        assert_eq!(Arc::as_ptr(&body(&t, f)), ptr, "an unshared body keeps its allocation");

        // A flush, the page cache or the medium holds the body too.
        let held = t.data(f).clone();
        t.write(f, 0, b"third");
        let PageData::Bytes(theirs) = &held else { panic!("the held body is bytes") };
        assert!(!Arc::ptr_eq(&body(&t, f), theirs), "a shared body is copied");
        let mut buf = [0u8; 5];
        held.read(0, &mut buf);
        assert_eq!(&buf, b"first", "the other holder's bytes are unchanged");
        t.data(f).read(0, &mut buf);
        assert_eq!(&buf, b"third");

        // Zeroing the last non-zero bytes yields the canonical zero page.
        t.write(f, 0, &[0u8; 5]);
        t.write(f, 8, &[0u8; 6]);
        assert!(t.data(f).is_zero());
        assert!(!held.is_zero());
    }

    #[test]
    fn exclusive_frame_write_ok() {
        let mut t = FrameTable::new();
        let f = t.alloc(PageData::Zero);
        t.set_data(f, PageData::Seeded(5));
        assert_eq!(*t.data(f), PageData::Seeded(5));
    }
}
