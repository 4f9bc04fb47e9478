//! The four closed-loop workloads and what they share: the recorder of
//! end-to-end samples and the correctness oracle.
//!
//! Every workload has the same shape. *Set-up* builds the host, loads the
//! data and warms up. The *timed region* runs rounds: a round's inputs
//! are generated first, outside any measurement, then the round's calls
//! into the system are timed. The *recovery drill* ends every workload
//! the same way: a final checkpoint, a digest of the live state, a crash
//! that discards unflushed writes, a restore through to the first served
//! operation, a second digest that must equal the first, and a clean
//! `fsck` and `scrub`.

pub mod bulk_flush;
pub mod cold_start;
pub mod fleet_16;
pub mod kv_churn;

use aurora_sim::error::Result;

use crate::sut::{Ckpt, Kv, KvOp, Sut};
use crate::trace::Tracer;

/// How much work a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The footprints recorded in README.md.
    Full,
    /// Tiny footprints for the unit tests.
    Smoke,
}

/// End-to-end samples and counts of one run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `CheckpointBreakdown::stop_time` per checkpoint, virtual ns.
    pub stop_ns: Vec<u64>,
    /// Checkpoint call → durable, virtual ns.
    pub durable_ns: Vec<u64>,
    /// Restore call → first served op complete, virtual ns.
    pub restore_ns: Vec<u64>,
    /// Eager restores of the large image in `cold_start`, virtual ns.
    pub eager_restore_ns: Vec<u64>,
    /// Pages captured by the recorded checkpoints.
    pub pages_captured: u64,
    /// Σ wave makespans (wave start → last durable instant), virtual ns.
    pub makespan_ns: u64,
    /// Application bytes mutated (Σ `Set` value bytes, or pages × 4096).
    pub app_bytes: u64,
    /// Operations attempted: every op, checkpoint, restore and check.
    pub attempted: u64,
    /// Errors, non-committed outcomes and mismatches.
    pub failed: u64,
    /// Device bytes written between the start of the timed region and
    /// the crash.
    pub dev_bytes_written: u64,
    /// `blocks_in_use × 4096 ÷ live application bytes` before the crash.
    pub space_amp: f64,
    /// Test-only hook: corrupt the post-restore digest.
    pub corrupt_digest: bool,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Recorder {
    /// Counts one attempted operation and whether it succeeded.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Unwraps the result of an attempted call, counting it.
    pub fn attempt_result<T>(&mut self, r: Result<T>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempt(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.attempt(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records one checkpoint of a wave that started at `wave_start`.
    pub fn checkpoint(&mut self, ck: &Ckpt, what: &str) {
        self.attempt(ck.clean, || {
            format!("{what}: checkpoint degraded or not committed")
        });
        self.stop_ns.push(ck.stop_ns);
        self.durable_ns.push(ck.durable_ns());
        self.pages_captured += ck.pages;
    }

    /// Closes a wave: its makespan runs from `start_ns` to the last
    /// durable instant among its checkpoints.
    pub fn wave(&mut self, start_ns: u64, last_durable_ns: u64) {
        self.makespan_ns += last_durable_ns.saturating_sub(start_ns);
    }

    /// The oracle's verdict on a pair of digests.
    pub fn digests_match(&mut self, before: u64, after: u64, what: &str) {
        let after = after ^ u64::from(self.corrupt_digest);
        self.attempt(before == after, || {
            format!("{what}: digest {before:#018x} before the crash, {after:#018x} after restore")
        });
    }

    /// `fsck` and `scrub` must both come back empty.
    pub fn audit(&mut self, sut: &mut Sut) {
        let fsck = sut.fsck();
        self.attempt(fsck.is_empty(), || format!("fsck: {}", fsck.join("; ")));
        let scrub = sut.scrub();
        self.attempt(scrub.is_empty(), || format!("scrub: {}", scrub.join("; ")));
    }

    /// Closes the write window (call just before the crash): device
    /// bytes written since `written_at_start`, and space amplification
    /// against `live_bytes`.
    pub fn close_write_window(&mut self, sut: &Sut, written_at_start: u64, live_bytes: u64) {
        self.dev_bytes_written = sut.counters().dev_bytes_written - written_at_start;
        self.space_amp = (sut.gauges().blocks_in_use * 4096) as f64 / live_bytes.max(1) as f64;
    }
}

/// One workload: set-up, rounds, and the recovery drill.
pub trait Workload: Sized {
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Builds the host and loads the data (no warm-up yet).
    fn build(seed: u64, size: Size, tracer: Tracer) -> Result<Self>;

    /// The system under test.
    fn sut(&mut self) -> &mut Sut;

    /// Rounds per block, counted from the end of the warm-up. The timed
    /// region ends on a block boundary and host-time segments never split
    /// a block, so a periodic heavy step (a full checkpoint every 16th
    /// round) sits once in every block.
    fn period(&self) -> u32 {
        1
    }

    /// Warm-up rounds run at the end of set-up.
    fn warmup_rounds(&self, size: Size) -> u32;

    /// Rounds of the fixed-work phase (a multiple of the period): about
    /// three host seconds on the reference machine.
    fn fixed_rounds(&self, size: Size) -> u32;

    /// Writes round `round`'s inputs into the reused buffers. Runs
    /// outside every timed span.
    fn generate(&mut self, round: u32);

    /// Runs round `round` on the inputs `generate` left.
    fn round(&mut self, round: u32, rec: &mut Recorder) -> Result<()>;

    /// The recovery drill. `written_at_start` is the device's
    /// bytes-written counter when the timed region began.
    fn drill(&mut self, rec: &mut Recorder, written_at_start: u64) -> Result<()>;
}

/// Client think time per key-value op: 1024 ops make one 10 ms period.
pub const KV_THINK_NS: u64 = 9_766;

/// Serves `ops` on `kv`, each followed by [`KV_THINK_NS`] of think time.
/// Every reply is checked against `shadow`, and every `Set` noted in it.
pub fn serve_kv(sut: &mut Sut, kv: &mut Kv, ops: &[KvOp], shadow: &mut Shadow, rec: &mut Recorder) {
    for op in ops {
        let reply = sut.kv_exec(kv, op);
        sut.think(KV_THINK_NS);
        let ok = match (op, &reply) {
            (KvOp::Set(k, v), Ok(_)) => {
                shadow.set(k, v);
                rec.app_bytes += v.len() as u64;
                true
            }
            (KvOp::Get(k), Ok(v)) => shadow.matches(k, v.as_deref()),
            _ => false,
        };
        rec.attempt(ok, || {
            format!("kv op failed or returned a stale value: {reply:?}")
        });
    }
}

/// FNV-1a, continued from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a key-value server's visible state over keys `0..keys`,
/// read through `get`.
pub fn kv_digest(keys: u64, mut get: impl FnMut(&[u8]) -> Result<Option<Vec<u8>>>) -> Result<u64> {
    let mut h = FNV_BASIS;
    let mut key = Vec::new();
    for idx in 0..keys {
        crate::gen::write_key(idx, &mut key);
        h = fnv1a(h, &key);
        h = match get(&key)? {
            Some(v) => fnv1a(h, &v),
            None => fnv1a(h, b"<absent>"),
        };
    }
    Ok(h)
}

/// What the client last wrote under every key: the first eight bytes of
/// the value, which for random values identify it. Lets every `Get` be
/// checked for a few nanoseconds; the drill's digests compare whole
/// values.
#[derive(Debug, Clone)]
pub struct Shadow {
    prints: Vec<u64>,
}

fn print_of(value: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    for (dst, src) in b.iter_mut().zip(value) {
        *dst = *src;
    }
    u64::from_le_bytes(b)
}

impl Shadow {
    /// A shadow of `keys` keys, all absent.
    pub fn new(keys: u64) -> Shadow {
        Shadow {
            prints: vec![0; keys as usize],
        }
    }

    /// Notes a `Set`.
    pub fn set(&mut self, key: &[u8], value: &[u8]) {
        if let Some(p) = self.prints.get_mut(crate::gen::key_index(key) as usize) {
            *p = print_of(value);
        }
    }

    /// Whether a `Get`'s reply is what the client last wrote.
    pub fn matches(&self, key: &[u8], reply: Option<&[u8]>) -> bool {
        let want = self.prints.get(crate::gen::key_index(key) as usize);
        matches!((want, reply), (Some(&w), Some(v)) if w == print_of(v))
    }
}
