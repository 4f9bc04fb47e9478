//! Page contents.
//!
//! The paper's headline experiments use a 2 GiB working set; holding that
//! as real bytes would make the simulator memory-bound for no benefit.
//! [`PageData`] therefore has three representations:
//!
//! * `Zero` — the canonical all-zeroes page.
//! * `Seeded(seed)` — a page whose 4 KiB contents are a deterministic
//!   function of a 64-bit seed. Benchmarks model large working sets this
//!   way: contents are reproducible and comparable while costing eight
//!   bytes of host memory.
//! * `Bytes(..)` — explicit bytes, used by the correctness tests and any
//!   application that round-trips real data through checkpoints.
//!
//! Equality is *content* equality across representations. Content hashes
//! (for the object store's dedup index) are computed over the materialized
//! bytes, so equal content always hashes equal regardless of
//! representation.
//!
//! A page body is also the block device's unit of data: a frame, the
//! object store's page cache and the medium under it share one body by
//! reference, and nothing mutates a body another holder can see.
//! [`PageData::write`] writes in place only while it holds the sole
//! reference to its bytes, and copies them once otherwise.

use std::borrow::Cow;
use std::sync::Arc;

use crate::hash::{page_hash, PageHasher, STRIPE_BYTES};
use crate::rng::mix64;

pub use crate::cost::PAGE_SIZE;

/// The canonical zero page's bytes, lent by [`PageData::bytes`].
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// The contents of one 4 KiB page.
#[derive(Clone)]
pub enum PageData {
    /// All zeroes.
    Zero,
    /// Deterministic pseudo-random contents derived from a seed.
    Seeded(u64),
    /// Explicit bytes (always exactly `PAGE_SIZE` long).
    Bytes(Arc<[u8]>),
}

impl PageData {
    /// Wraps explicit bytes, canonicalizing all-zero pages to `Zero`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one page long.
    pub fn from_bytes(bytes: &[u8]) -> PageData {
        assert_eq!(bytes.len(), PAGE_SIZE, "page data must be PAGE_SIZE long");
        if bytes.iter().all(|&b| b == 0) {
            PageData::Zero
        } else {
            PageData::Bytes(Arc::from(bytes))
        }
    }

    /// True for the canonical zero page.
    pub fn is_zero(&self) -> bool {
        matches!(self, PageData::Zero)
    }

    /// Materializes the full 4 KiB contents.
    pub fn materialize(&self) -> Vec<u8> {
        match self {
            PageData::Zero => vec![0u8; PAGE_SIZE],
            PageData::Seeded(seed) => seeded_bytes(*seed),
            PageData::Bytes(b) => b.to_vec(),
        }
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn read(&self, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= PAGE_SIZE, "read beyond page end");
        match self {
            PageData::Zero => buf.fill(0),
            PageData::Seeded(seed) => {
                // The generator is sequential: run it up to the range's
                // end only, copying each word's overlap with the range.
                let end = off + buf.len();
                let mut s = *seed;
                for at in (0..end).step_by(8) {
                    let word = seeded_word(&mut s).to_le_bytes();
                    let (lo, hi) = (at.max(off), (at + 8).min(end));
                    if lo < hi {
                        buf[lo - off..hi - off].copy_from_slice(&word[lo - at..hi - at]);
                    }
                }
            }
            PageData::Bytes(b) => buf.copy_from_slice(&b[off..off + buf.len()]),
        }
    }

    /// The page's bytes: borrowed for `Bytes` and `Zero`, generated for
    /// `Seeded`.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            PageData::Zero => Cow::Borrowed(&ZERO_PAGE[..]),
            PageData::Seeded(seed) => Cow::Owned(seeded_bytes(*seed)),
            PageData::Bytes(b) => Cow::Borrowed(b),
        }
    }

    /// Length of the body in bytes: `PAGE_SIZE` for every page built by
    /// this module; only a hand-built `Bytes` can differ.
    pub fn byte_len(&self) -> usize {
        match self {
            PageData::Zero | PageData::Seeded(_) => PAGE_SIZE,
            PageData::Bytes(b) => b.len(),
        }
    }

    /// Writes `data` at `off`. Bytes this page alone references are
    /// written in place; shared bytes (and a `Zero` or `Seeded` page) are
    /// copied once into a body of the page's own, so no other holder of
    /// the old body sees the write. A write that leaves the page all
    /// zero makes it `Zero`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&mut self, off: usize, data: &[u8]) {
        assert!(off + data.len() <= PAGE_SIZE, "write beyond page end");
        let clears = data.iter().all(|&b| b == 0);
        if clears && self.is_zero() {
            return;
        }
        let mut body = match core::mem::replace(self, PageData::Zero) {
            PageData::Zero => std::iter::repeat_n(0u8, PAGE_SIZE).collect(),
            PageData::Seeded(seed) => Arc::from(seeded_bytes(seed)),
            PageData::Bytes(b) => b,
        };
        if Arc::get_mut(&mut body).is_none() {
            body = Arc::from(&body[..]);
        }
        if let Some(bytes) = Arc::get_mut(&mut body) {
            bytes[off..off + data.len()].copy_from_slice(data);
        }
        if !(clears && body.iter().all(|&b| b == 0)) {
            *self = PageData::Bytes(body);
        }
    }

    /// Content hash over the materialized bytes
    /// ([`crate::hash::page_hash`]), equal across representations.
    pub fn content_hash(&self) -> u64 {
        match self {
            PageData::Zero => zero_page_hash(),
            PageData::Seeded(seed) => {
                // The generator's words are the page's little-endian
                // content, so they stream into the hash unmaterialized.
                let mut h = PageHasher::new();
                let mut s = *seed;
                for _ in 0..(PAGE_SIZE / STRIPE_BYTES) {
                    h.stripe([
                        seeded_word(&mut s),
                        seeded_word(&mut s),
                        seeded_word(&mut s),
                        seeded_word(&mut s),
                    ]);
                }
                h.finish(&[])
            }
            PageData::Bytes(b) => page_hash(b),
        }
    }

    /// Content equality across representations.
    pub fn content_eq(&self, other: &PageData) -> bool {
        match (self, other) {
            (PageData::Zero, PageData::Zero) => true,
            (PageData::Seeded(a), PageData::Seeded(b)) => a == b,
            (PageData::Bytes(a), PageData::Bytes(b)) => a == b,
            _ => self.materialize() == other.materialize(),
        }
    }
}

/// Steps the seeded generator: the next eight bytes of the page, as the
/// little-endian word that holds them.
fn seeded_word(s: &mut u64) -> u64 {
    *s = mix64(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
    *s
}

/// Deterministic expansion of a seed into one page of bytes.
fn seeded_bytes(seed: u64) -> Vec<u8> {
    let mut s = seed;
    (0..PAGE_SIZE / 8)
        .flat_map(|_| seeded_word(&mut s).to_le_bytes())
        .collect()
}

/// Hash of the canonical zero page (computed once).
fn zero_page_hash() -> u64 {
    use std::sync::OnceLock;
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| page_hash(&[0u8; PAGE_SIZE]))
}

impl core::fmt::Debug for PageData {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageData::Zero => write!(f, "Page::Zero"),
            PageData::Seeded(s) => write!(f, "Page::Seeded({s:#x})"),
            PageData::Bytes(_) => write!(f, "Page::Bytes({:#x})", self.content_hash()),
        }
    }
}

impl PartialEq for PageData {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}

impl Eq for PageData {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_canonicalization() {
        let p = PageData::from_bytes(&[0u8; PAGE_SIZE]);
        assert!(p.is_zero());
        let mut nonzero = [0u8; PAGE_SIZE];
        nonzero[100] = 1;
        assert!(!PageData::from_bytes(&nonzero).is_zero());
    }

    #[test]
    fn seeded_pages_are_deterministic() {
        let a = PageData::Seeded(42).materialize();
        let b = PageData::Seeded(42).materialize();
        assert_eq!(a, b);
        assert_ne!(a, PageData::Seeded(43).materialize());
        assert_eq!(a.len(), PAGE_SIZE);
    }

    #[test]
    fn seeded_hash_matches_materialized_hash() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let p = PageData::Seeded(seed);
            assert_eq!(p.content_hash(), page_hash(&p.materialize()), "seed {seed}");
        }
    }

    #[test]
    fn zero_hash_matches_materialized_hash() {
        assert_eq!(PageData::Zero.content_hash(), page_hash(&[0u8; PAGE_SIZE]));
    }

    #[test]
    fn wrapped_bytes_hash_as_the_bytes_themselves() {
        // Read-repair hashes the raw block it read; the dedup index holds
        // `content_hash` of the wrapped page. Canonicalizing zeroes must
        // not separate the two.
        let mut nonzero = [0u8; PAGE_SIZE];
        nonzero[PAGE_SIZE - 1] = 1;
        for bytes in [[0u8; PAGE_SIZE], nonzero] {
            assert_eq!(
                PageData::from_bytes(&bytes).content_hash(),
                page_hash(&bytes)
            );
        }
    }

    #[test]
    fn cross_representation_equality() {
        let seeded = PageData::Seeded(7);
        let bytes = PageData::from_bytes(&seeded.materialize());
        assert_eq!(seeded, bytes);
        assert_eq!(seeded.content_hash(), bytes.content_hash());
        assert_ne!(seeded, PageData::Zero);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut p = PageData::Zero;
        p.write(100, b"hello");
        let mut buf = [0u8; 5];
        p.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
        // Writing zeroes back re-canonicalizes.
        p.write(100, &[0u8; 5]);
        assert!(p.is_zero());
    }

    #[test]
    fn bytes_lend_a_body_and_generate_a_seed() {
        let mut nonzero = [0u8; PAGE_SIZE];
        nonzero[9] = 4;
        let page = PageData::from_bytes(&nonzero);
        assert!(matches!(page.bytes(), Cow::Borrowed(b) if b == nonzero.as_slice()));
        assert_eq!(&*PageData::Zero.bytes(), ZERO_PAGE.as_slice());
        assert_eq!(&*PageData::Seeded(5).bytes(), PageData::Seeded(5).materialize().as_slice());
    }

    #[test]
    fn partial_read_of_seeded_page_matches_materialized() {
        let p = PageData::Seeded(99);
        let full = p.materialize();
        let mut buf = [0u8; 64];
        p.read(1000, &mut buf);
        assert_eq!(&buf[..], &full[1000..1064]);
        // Ranges that start or end inside a generator word.
        for (off, len) in [(0, 0), (0, 1), (3, 2), (7, 9), (4093, 3), (0, PAGE_SIZE)] {
            let mut buf = vec![0u8; len];
            p.read(off, &mut buf);
            assert_eq!(buf, full[off..off + len], "{off}+{len}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond page end")]
    fn out_of_range_write_panics() {
        PageData::Zero.write(PAGE_SIZE - 2, &[1, 2, 3]);
    }
}
