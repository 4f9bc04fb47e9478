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

use std::sync::Arc;
use std::thread;

use aurora_sim::hash::{page_hash, PageHasher, STRIPE_BYTES};
use aurora_sim::rng::mix64;

pub use aurora_sim::cost::PAGE_SIZE;

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
                let full = seeded_bytes(*seed);
                buf.copy_from_slice(&full[off..off + buf.len()]);
            }
            PageData::Bytes(b) => buf.copy_from_slice(&b[off..off + buf.len()]),
        }
    }

    /// Returns a new page with `data` written at `off` (pages are
    /// immutable values; frames swap in the new one).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&self, off: usize, data: &[u8]) -> PageData {
        assert!(off + data.len() <= PAGE_SIZE, "write beyond page end");
        let mut bytes = self.materialize();
        bytes[off..off + data.len()].copy_from_slice(data);
        PageData::from_bytes(&bytes)
    }

    /// Content hash over the materialized bytes
    /// ([`aurora_sim::hash::page_hash`]), equal across representations.
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

/// Inputs smaller than this are hashed inline by [`hash_pages`]:
/// spawning threads costs more than hashing a handful of 4 KiB pages.
pub const PARALLEL_THRESHOLD: usize = 64;

/// Content-hashes the page of every item on `workers` threads and
/// returns the hashes in input order — the one sharded hasher under the
/// flush's hash stage, the restore's and the object store's checked
/// reads. Shard boundaries depend only on the input length and the
/// worker count, and shards are joined in shard order, so the output
/// equals a serial pass for any worker count.
pub fn hash_pages<T: Sync>(
    items: &[T],
    page: impl Fn(&T) -> &PageData + Sync,
    workers: usize,
) -> Vec<u64> {
    let hash_shard =
        &|shard: &[T]| -> Vec<u64> { shard.iter().map(|item| page(item).content_hash()).collect() };
    let workers = workers.max(1);
    if workers == 1 || items.len() < PARALLEL_THRESHOLD {
        return hash_shard(items);
    }
    let shard_len = items.len().div_ceil(workers);
    thread::scope(|s| {
        // The driving thread would only wait: it hashes the first shard
        // itself, which also saves a spawn per call.
        let mut shards = items.chunks(shard_len);
        let first = shards.next().unwrap_or_default();
        let rest: Vec<_> = shards
            .map(|shard| s.spawn(move || hash_shard(shard)))
            .collect();
        let mut hashes = hash_shard(first);
        // Joined in shard order; a worker's panic is this thread's.
        for shard in rest {
            hashes.extend(
                shard
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        hashes
    })
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
        let p = PageData::Zero;
        let p = p.write(100, b"hello");
        let mut buf = [0u8; 5];
        p.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
        // Writing zeroes back re-canonicalizes.
        let p = p.write(100, &[0u8; 5]);
        assert!(p.is_zero());
    }

    #[test]
    fn partial_read_of_seeded_page_matches_materialized() {
        let p = PageData::Seeded(99);
        let full = p.materialize();
        let mut buf = [0u8; 64];
        p.read(1000, &mut buf);
        assert_eq!(&buf[..], &full[1000..1064]);
    }

    #[test]
    #[should_panic(expected = "beyond page end")]
    fn out_of_range_write_panics() {
        PageData::Zero.write(PAGE_SIZE - 2, &[1, 2, 3]);
    }
}
