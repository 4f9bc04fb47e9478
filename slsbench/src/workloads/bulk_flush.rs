//! `bulk_flush`: the flush pipeline under page-granular dirtying. One
//! process rewrites 13.56 % of a 128 MiB arena in whole pages between
//! checkpoints (the paper's Redis dirty fraction), so the sub-page delta
//! path never applies. Every 16th checkpoint is full; dedup absorbs the
//! unchanged pages.
//!
//! Why it exists: `core::flush` hashing, object-store dedup, allocation
//! and coalescing, and device write bandwidth do nearly all the work;
//! the apps layer does none.

use aurora_sim::error::Result;

use super::{fnv1a, Recorder, Size, Workload, FNV_BASIS};
use crate::gen::{page_body, PageGen, PageWriteOp, Rng, PAGE};
use crate::sut::{GroupId, Mode, Pid, Sut};
use crate::trace::Tracer;

/// Virtual think time per round.
const THINK_NS: u64 = 10_000_000;
/// Every `FULL_EVERY`th round after the warm-up takes a full checkpoint.
const FULL_EVERY: u32 = 16;
/// One body in eight duplicates an earlier one.
const DUP_EVERY: u64 = 8;
/// Name of the drill's final checkpoint.
const FINAL: &str = "bulk-flush-final";

struct Dims {
    /// Pages of the arena (128 MiB).
    pages: u32,
    /// Warm-up rounds, all incremental (set-up already took the full
    /// base): as many as the group's default `history_window` (32), so
    /// that from the first measured round on every checkpoint also
    /// retires the oldest one and the store has stopped growing.
    warmup: u32,
    /// Draws per round (with replacement): −N·ln(1 − 0.1356) draws dirty
    /// 13.56 % of N pages on average.
    writes_per_round: usize,
}

impl Dims {
    fn of(size: Size) -> Dims {
        let (pages, warmup): (u32, u32) = match size {
            Size::Full => (32_768, 32),
            Size::Smoke => (256, 4),
        };
        let draws = -(f64::from(pages)) * (1.0f64 - 0.1356).ln();
        Dims {
            pages,
            warmup,
            writes_per_round: draws.round() as usize,
        }
    }
}

/// The workload's state.
pub struct BulkFlush {
    sut: Sut,
    dims: Dims,
    pid: Pid,
    addr: u64,
    gid: GroupId,
    gen: PageGen,
    /// Content id last written to every page.
    shadow: Vec<u64>,
    writes: Vec<PageWriteOp>,
    /// The round's page bodies, back to back.
    bodies: Vec<u8>,
}

impl BulkFlush {
    fn render_bodies(&mut self) {
        self.bodies.resize(self.writes.len() * PAGE, 0);
        for (w, body) in self.writes.iter().zip(self.bodies.chunks_mut(PAGE)) {
            page_body(w.content, body);
        }
    }

    fn apply_writes(&mut self) -> Result<()> {
        for (w, body) in self.writes.iter().zip(self.bodies.chunks(PAGE)) {
            self.sut
                .mem_write(self.pid, self.addr + u64::from(w.page) * PAGE as u64, body)?;
            if let Some(s) = self.shadow.get_mut(w.page as usize) {
                *s = w.content;
            }
        }
        Ok(())
    }

    /// Digest of every page of the arena; also counts the pages whose
    /// bytes are not the body their shadow content id gives.
    fn digest(&mut self, pid: Pid) -> Result<(u64, u64)> {
        let mut h = FNV_BASIS;
        let mut wrong = 0u64;
        let (mut got, mut want) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        for (page, &content) in self.shadow.iter().enumerate() {
            self.sut
                .mem_read(pid, self.addr + (page * PAGE) as u64, &mut got)?;
            h = fnv1a(h, &got);
            page_body(content, &mut want);
            wrong += u64::from(got != want);
        }
        Ok((h, wrong))
    }
}

impl Workload for BulkFlush {
    const NAME: &'static str = "bulk_flush";

    fn build(seed: u64, size: Size, tracer: Tracer) -> Result<BulkFlush> {
        let dims = Dims::of(size);
        let mut sut = Sut::boot(false, tracer)?;
        let (pid, addr) = sut.spawn_arena("bulk-flush", u64::from(dims.pages) * PAGE as u64)?;
        let mut w = BulkFlush {
            gen: PageGen::new(Rng::new(seed, 2), dims.pages, DUP_EVERY),
            shadow: vec![0; dims.pages as usize],
            writes: Vec::new(),
            bodies: Vec::new(),
            gid: GroupId(0),
            sut,
            dims,
            pid,
            addr,
        };
        // Seed the arena a round's worth of pages at a time, so set-up
        // never holds a second copy of the arena.
        let mut seed_writes = Vec::new();
        w.gen.fill_seed(&mut seed_writes);
        for chunk in seed_writes.chunks(w.dims.writes_per_round.max(1)) {
            w.writes.clear();
            w.writes.extend_from_slice(chunk);
            w.render_bodies();
            w.apply_writes()?;
        }
        w.gid = w.sut.persist("bulk-flush", pid)?;
        w.sut.checkpoint(w.gid, true, None)?;
        w.sut.wait_durable(w.gid)?;
        Ok(w)
    }

    fn sut(&mut self) -> &mut Sut {
        &mut self.sut
    }

    fn period(&self) -> u32 {
        FULL_EVERY
    }

    fn warmup_rounds(&self, _size: Size) -> u32 {
        self.dims.warmup
    }

    fn fixed_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 2 * FULL_EVERY,
            Size::Smoke => FULL_EVERY,
        }
    }

    fn generate(&mut self, _round: u32) {
        self.gen.fill(&mut self.writes, self.dims.writes_per_round);
        self.render_bodies();
    }

    fn round(&mut self, round: u32, rec: &mut Recorder) -> Result<()> {
        self.apply_writes()?;
        let n = self.writes.len() as u64;
        rec.attempted += n;
        rec.app_bytes += n * PAGE as u64;
        self.sut.think(THINK_NS);
        let measured = round.checked_sub(self.dims.warmup);
        let full = measured.is_some_and(|r| r % FULL_EVERY == FULL_EVERY - 1);
        let ck = self.sut.checkpoint(self.gid, full, None)?;
        rec.checkpoint(&ck, Self::NAME);
        rec.wave(ck.call_ns, ck.durable_at_ns);
        Ok(())
    }

    fn drill(&mut self, rec: &mut Recorder, written_at_start: u64) -> Result<()> {
        let ck = self.sut.checkpoint(self.gid, false, Some(FINAL))?;
        rec.checkpoint(&ck, "final");
        rec.wave(ck.call_ns, ck.durable_at_ns);
        self.sut.wait_durable(self.gid)?;
        let tok = self.sut.begin("bench.digest", "bench");
        let (before, wrong) = self.digest(self.pid)?;
        self.sut.flush_aggs();
        self.sut.end(tok);
        rec.attempt(wrong == 0, || {
            format!("{wrong} live pages differ from what was written")
        });
        rec.close_write_window(
            &self.sut,
            written_at_start,
            u64::from(self.dims.pages) * PAGE as u64,
        );

        self.sut.crash_and_reboot()?;
        let ckpt = self.sut.checkpoint_named(FINAL)?;
        let tok = self.sut.begin("bench.restore_to_first_op", "bench");
        let call = self.sut.v_now();
        let Some(restored) = rec.attempt_result(self.sut.restore(ckpt, Mode::Eager), "restore")
        else {
            self.sut.end(tok);
            return Ok(());
        };
        self.pid = restored;
        let mut first = [0u8; 64];
        self.sut.mem_read(self.pid, self.addr, &mut first)?;
        rec.restore_ns.push(self.sut.v_now() - call);
        self.sut.flush_aggs();
        self.sut.end(tok);

        let tok = self.sut.begin("bench.digest", "bench");
        let (after, wrong) = self.digest(self.pid)?;
        self.sut.flush_aggs();
        self.sut.end(tok);
        rec.attempt(wrong == 0, || {
            format!("{wrong} restored pages differ from what was written")
        });
        rec.digests_match(before, after, Self::NAME);
        rec.audit(&mut self.sut);
        Ok(())
    }
}
