//! Content hashing, keyed digests and on-disk checksums.
//!
//! Four distinct needs, four distinct functions:
//!
//! * [`page_hash`] / [`PageHasher`] — the 64-bit content hash of page
//!   data: the object store's dedup index, the verify on every checked
//!   read, the scrub step and scrub all key on it. It is the XXH64
//!   construction: four independent 64-bit lanes over 32-byte stripes,
//!   so the multiplies of one stripe overlap instead of queueing on one
//!   dependency chain. Collisions are tolerable (the store compares
//!   candidate pages byte-for-byte before sharing) and the value is
//!   never persisted: `block_hash` is rebuilt in memory on open.
//! * [`fnv64`] / [`Fnv64`] — byte-serial FNV-1a for what is not page
//!   content: short keys (the shared hash map) and the wire digests of
//!   the migration and replication frames, which are format.
//! * [`WordHasher`] / [`Words`] — one multiply per integer word, the
//!   `HashMap` hasher of the host's hottest in-memory indexes (the VM
//!   frame index, the object store's read cache), whose keys the system
//!   assigns or computes itself and never takes as given.
//! * [`crc32c`] — the Castagnoli CRC used to checksum every on-disk record
//!   (superblocks, journal entries, checkpoint manifests) so that torn or
//!   corrupted writes are detected during crash recovery.

// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one [`PageHasher::stripe`] call consumes.
pub const STRIPE_BYTES: usize = 32;

/// One lane step: the only serial dependency is `acc`, one per lane.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Little-endian words of `bytes`, `N` bytes each; a short trailing
/// chunk is not yielded.
fn le_words<const N: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    bytes.chunks_exact(N).map(|c| {
        let mut w = [0u8; N];
        w.copy_from_slice(c);
        w
    })
}

/// The four little-endian words of one stripe of bytes.
#[inline(always)]
fn stripe_words(stripe: &[u8]) -> [u64; 4] {
    let mut w = [0u64; 4];
    for (w, b) in w.iter_mut().zip(le_words::<8>(stripe)) {
        *w = u64::from_le_bytes(b);
    }
    w
}

/// Streaming XXH64 (seed 0), fed whole 32-byte stripes as four
/// little-endian words so a generator can be hashed without
/// materialising its output.
#[derive(Debug, Clone)]
pub struct PageHasher {
    lanes: [u64; 4],
    stripes: u64,
}

impl Default for PageHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl PageHasher {
    /// Creates a hasher with no input.
    pub fn new() -> Self {
        PageHasher {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            stripes: 0,
        }
    }

    /// Feeds the next 32 bytes, as the four little-endian words they hold.
    #[inline(always)]
    pub fn stripe(&mut self, w: [u64; 4]) {
        for (lane, w) in self.lanes.iter_mut().zip(w) {
            *lane = round(*lane, w);
        }
        self.stripes += 1;
    }

    /// Folds in the last `tail` bytes (fewer than a stripe) and returns
    /// the hash of everything fed.
    ///
    /// # Panics
    ///
    /// Panics if `tail` holds a whole stripe.
    pub fn finish(self, tail: &[u8]) -> u64 {
        assert!(tail.len() < STRIPE_BYTES, "tail holds a whole stripe");
        let [a, b, c, d] = self.lanes;
        let mut h = if self.stripes == 0 {
            P5
        } else {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(h, merge)
        };
        h = h.wrapping_add(self.stripes * STRIPE_BYTES as u64 + tail.len() as u64);

        let after_words = tail.chunks_exact(8).remainder();
        for w in le_words::<8>(tail) {
            h = (h ^ round(0, u64::from_le_bytes(w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        for w in le_words::<4>(after_words) {
            h = (h ^ u64::from(u32::from_le_bytes(w)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
        }
        for &b in after_words.chunks_exact(4).remainder() {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Content hash of `data` (XXH64, seed 0).
pub fn page_hash(data: &[u8]) -> u64 {
    let mut h = PageHasher::new();
    let whole = data.chunks_exact(STRIPE_BYTES);
    let tail = whole.remainder();
    for s in whole {
        h.stripe(stripe_words(s));
    }
    h.finish(tail)
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `data` with FNV-1a (64-bit).
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.0;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feeds a little-endian u64 into the hash.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Returns the hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hasher that costs one multiply per integer word. With
/// SipHash, the probes a restore makes per page (frame index, read
/// cache) cost `cold_start` several percent of its host rate. Not
/// collision-resistant: only for keys the system assigns or computes —
/// ids, block numbers, recorded content hashes, keys it wrote itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` of [`WordHasher`]: `HashMap<K, V, Words>`.
pub type Words = std::hash::BuildHasherDefault<WordHasher>;

/// CRC-32C (Castagnoli) polynomial, reflected.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Lazily built slicing-by-8 tables for CRC-32C: `tables[0]` is the
/// bytewise table, and `tables[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by eight
/// bytes at once.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32C_POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// Folds `bytes` into `crc` one byte at a time through `table`.
fn crc_bytewise(table: &[u32; 256], mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32C checksum of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    !crc_bytewise(&t[0], crc, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One 4 KiB page of deterministic noise.
    fn noise_page(seed: u64) -> Vec<u8> {
        let mut s = seed;
        let mut out = Vec::with_capacity(4096);
        for _ in 0..512 {
            s = crate::rng::mix64(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    fn words_of(page: &[u8]) -> Vec<[u64; 4]> {
        page.chunks_exact(STRIPE_BYTES).map(stripe_words).collect()
    }

    fn hash_of_stripes(stripes: &[[u64; 4]]) -> u64 {
        let mut h = PageHasher::new();
        for &w in stripes {
            h.stripe(w);
        }
        h.finish(&[])
    }

    #[test]
    fn page_hash_published_vectors() {
        // XXH64, seed 0: the empty, 1-byte and 3-byte tails, and one
        // stripe followed by a 4-byte word and three single bytes.
        assert_eq!(page_hash(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(page_hash(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(page_hash(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            page_hash(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_single_bit_flip_of_a_page_changes_the_hash() {
        let mut page = noise_page(1);
        let before = page_hash(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_hash(&page), before, "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn swapping_stripes_or_lanes_changes_the_hash() {
        let stripes = words_of(&noise_page(2));
        let before = hash_of_stripes(&stripes);
        for i in 0..stripes.len() {
            for j in i + 1..stripes.len() {
                let mut swapped = stripes.clone();
                swapped.swap(i, j);
                assert_ne!(hash_of_stripes(&swapped), before, "stripes {i},{j}");
            }
            for a in 0..4 {
                for b in a + 1..4 {
                    let mut swapped = stripes.clone();
                    swapped[i].swap(a, b);
                    assert_ne!(
                        hash_of_stripes(&swapped),
                        before,
                        "stripe {i} lanes {a},{b}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Feeding a page stripe by stripe equals hashing its bytes.
        #[test]
        fn streamed_stripes_match_one_shot(seed in proptest::prelude::any::<u64>()) {
            let page = noise_page(seed);
            proptest::prop_assert_eq!(hash_of_stripes(&words_of(&page)), page_hash(&page));
        }
    }

    #[test]
    #[should_panic(expected = "whole stripe")]
    fn finish_rejects_a_whole_stripe_tail() {
        PageHasher::new().finish(&[0u8; STRIPE_BYTES]);
    }

    #[test]
    fn fnv_known_vectors() {
        // Reference values for FNV-1a 64.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    /// The byte-at-a-time loop `crc32c` slices by eight.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        !crc_bytewise(&crc_tables()[0], !0, data)
    }

    #[test]
    fn crc32c_matches_the_bytewise_loop_at_any_length_and_alignment() {
        let buf: Vec<u8> = (0..4).flat_map(noise_page).collect();
        let mut s = 0x5EED_u64;
        for _ in 0..2000 {
            s = crate::rng::mix64(s);
            let start = (s % 64) as usize;
            let len = ((s >> 8) % 4200) as usize;
            let data = &buf[start..start + len];
            assert_eq!(crc32c(data), crc32c_bytewise(data), "start {start}, len {len}");
        }
        for len in 0..=64 {
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), crc32c_bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let mut data = vec![7u8; 128];
        let before = crc32c(&data);
        data[64] ^= 0x10;
        assert_ne!(before, crc32c(&data));
    }
}
