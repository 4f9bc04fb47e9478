//! Seeded load generation.
//!
//! Everything the workloads feed the system is made here from `--seed`:
//! the same seed reproduces every stream byte for byte, another seed
//! changes them all. Draws are O(log n) (a precomputed Zipf CDF and a
//! binary search), and a round's operations are written into a reused
//! buffer *before* that round's timed span opens, so generator time is
//! never inside a measurement (it is reported as `bench.gen_s`).

use crate::sut::KvOp;

/// xoshiro256** seeded through splitmix64; one instance per stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for `stream` of the run seeded with `seed`; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut st = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut st);
        }
        Rng { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let out = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        self.s = [s0, s1, s2 ^ t, s3.rotate_left(45)];
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift; the bias is < 2^-40 for the bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            for (dst, src) in chunk.iter_mut().zip(bytes) {
                *dst = src;
            }
        }
    }
}

/// Zipfian ranks `0..n` with exponent `theta`, drawn by binary search
/// over a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks (`n` ≥ 1).
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n.max(1) {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank; rank 0 is the hottest.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.cdf.len() - 1) as u64
    }

    /// Draws `k` distinct ranks (at most the table size) in draw order.
    pub fn draw_distinct(&self, rng: &mut Rng, k: usize) -> Vec<usize> {
        let k = k.min(self.cdf.len());
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let r = self.draw(rng) as usize;
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

/// Writes the key for index `idx` into `key`, in the format the system's
/// own loaders use (`key` + 12 decimal digits), without allocating.
pub fn write_key(idx: u64, key: &mut Vec<u8>) {
    key.clear();
    key.extend_from_slice(b"key");
    let mut digits = [b'0'; 12];
    let mut v = idx;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    key.extend_from_slice(&digits);
}

/// The key index encoded by [`write_key`].
pub fn key_index(key: &[u8]) -> u64 {
    key.iter()
        .skip(3)
        .fold(0u64, |acc, &d| acc * 10 + u64::from(d.wrapping_sub(b'0')))
}

/// A closed-loop key-value client's op stream.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    zipf: Zipf,
    value_len: usize,
    /// Probability that an op is a `Get`.
    read_fraction: f64,
}

impl KvGen {
    /// A stream over `keys` keys with Zipf(`theta`) popularity.
    pub fn new(rng: Rng, keys: u64, theta: f64, value_len: usize, read_fraction: f64) -> KvGen {
        KvGen {
            rng,
            zipf: Zipf::new(keys, theta),
            value_len,
            read_fraction,
        }
    }

    /// Overwrites `buf` with the next `n` ops, reusing its allocations.
    pub fn fill(&mut self, buf: &mut Vec<KvOp>, n: usize) {
        buf.resize(n, KvOp::Get(Vec::new()));
        for slot in buf.iter_mut() {
            let idx = self.zipf.draw(&mut self.rng);
            let read = self.rng.next_f64() < self.read_fraction;
            self.write_op(slot, idx, read);
        }
    }

    /// Overwrites `buf` with one `Set` per key, in key order (bulk load).
    pub fn fill_load(&mut self, buf: &mut Vec<KvOp>, keys: u64) {
        buf.resize(keys as usize, KvOp::Get(Vec::new()));
        for (idx, slot) in buf.iter_mut().enumerate() {
            self.write_op(slot, idx as u64, false);
        }
    }

    fn write_op(&mut self, slot: &mut KvOp, idx: u64, read: bool) {
        let (mut key, mut value) = match std::mem::replace(slot, KvOp::Get(Vec::new())) {
            KvOp::Set(k, v) => (k, v),
            KvOp::Get(k) | KvOp::Del(k) => (k, Vec::new()),
        };
        write_key(idx, &mut key);
        *slot = if read {
            KvOp::Get(key)
        } else {
            value.resize(self.value_len, 0);
            self.rng.fill(&mut value);
            KvOp::Set(key, value)
        };
    }
}

/// Page size of the modelled machine.
pub const PAGE: usize = 4096;

/// Writes the 4 KiB body that belongs to `content` into `page`: word `i`
/// is a multiplicative hash of `(content, i)`, so equal ids give equal
/// pages (the store can deduplicate them), distinct ids give distinct
/// pages, and a page costs a fraction of a microsecond to make.
pub fn page_body(content: u64, page: &mut [u8]) {
    let base = content.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, chunk) in page.chunks_exact_mut(8).enumerate() {
        let word = (base ^ i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// One whole-page rewrite: which page, and which content it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWriteOp {
    /// Page index inside the arena.
    pub page: u32,
    /// Content id (see [`page_body`]).
    pub content: u64,
}

/// Whole-page rewrites over an arena where one body in `dup_every` is a
/// duplicate of an earlier one.
#[derive(Debug, Clone)]
pub struct PageGen {
    rng: Rng,
    pages: u32,
    dup_every: u64,
    next_content: u64,
}

impl PageGen {
    /// A stream over an arena of `pages` pages.
    pub fn new(rng: Rng, pages: u32, dup_every: u64) -> PageGen {
        PageGen {
            rng,
            pages,
            dup_every,
            next_content: 1,
        }
    }

    fn content(&mut self) -> u64 {
        if self.next_content > 1 && self.rng.below(self.dup_every) == 0 {
            // A duplicate of some earlier body.
            1 + self.rng.below(self.next_content - 1)
        } else {
            let c = self.next_content;
            self.next_content += 1;
            c
        }
    }

    /// Overwrites `buf` with one write per page of the arena, in order.
    pub fn fill_seed(&mut self, buf: &mut Vec<PageWriteOp>) {
        buf.clear();
        for page in 0..self.pages {
            let content = self.content();
            buf.push(PageWriteOp { page, content });
        }
    }

    /// Overwrites `buf` with `n` writes to uniformly drawn pages (with
    /// replacement, so the number of distinct pages varies a little from
    /// round to round).
    pub fn fill(&mut self, buf: &mut Vec<PageWriteOp>, n: usize) {
        buf.clear();
        for _ in 0..n {
            let page = self.rng.below(u64::from(self.pages)) as u32;
            let content = self.content();
            buf.push(PageWriteOp { page, content });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<KvOp> {
        let mut g = KvGen::new(Rng::new(seed, 1), 1000, 0.99, 32, 0.5);
        let mut buf = Vec::new();
        g.fill(&mut buf, n);
        buf
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(ops(42, 500), ops(42, 500));
        assert_ne!(ops(42, 500), ops(43, 500));
        // Refilling a used buffer gives what a fresh buffer would.
        let mut g = KvGen::new(Rng::new(7, 1), 1000, 0.99, 32, 0.5);
        let mut h = g.clone();
        let mut reused = Vec::new();
        g.fill(&mut reused, 100);
        g.fill(&mut reused, 100);
        let mut fresh = Vec::new();
        h.fill(&mut Vec::new(), 100);
        h.fill(&mut fresh, 100);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(42, 1).next_u64(), Rng::new(42, 2).next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng) as usize] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[500..510].iter().sum();
        assert!(head > tail * 20, "head {head} tail {tail}");
        let wave = z.draw_distinct(&mut rng, 8);
        let mut d = wave.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        assert_eq!(Zipf::new(4, 0.99).draw_distinct(&mut rng, 9).len(), 4);
    }

    #[test]
    fn keys_round_trip_in_the_loader_format() {
        let mut k = Vec::new();
        write_key(16383, &mut k);
        assert_eq!(k, format!("key{:012}", 16383).into_bytes());
        assert_eq!(key_index(&k), 16383);
    }

    #[test]
    fn page_bodies_follow_their_content_id() {
        let (mut a, mut b, mut c) = ([0u8; PAGE], [0u8; PAGE], [0u8; PAGE]);
        page_body(5, &mut a);
        page_body(5, &mut b);
        page_body(6, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = PageGen::new(Rng::new(1, 0), 4096, 8);
        let mut buf = Vec::new();
        g.fill_seed(&mut buf);
        let fresh = buf.iter().map(|w| w.content).max().unwrap();
        let dups = buf.len() as u64 - fresh;
        // About one body in eight repeats an earlier one.
        assert!((384..=640).contains(&dups), "dups {dups}");
    }
}
