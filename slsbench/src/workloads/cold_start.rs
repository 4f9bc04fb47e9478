//! `cold_start`: the read side of the same store and device. Eight
//! function images (a 2048-page runtime they share plus 256 private
//! pages each) and one 16384-page key-value image sit on a materialized
//! store. After a reboot, instances are started lazily, invoked once and
//! retired, the image chosen by Zipf. Every 100 cycles the host is made
//! cold (image pagers released, store caches dropped) and the key-value
//! image is restored eagerly through to its first `Get`: once right after
//! the caches were dropped, and once after the 100 cycles with only its
//! pager released, so the second restore is served by the store's read
//! cache.
//!
//! Why it exists: `core::restore`, the object store's read planner and
//! read cache, the vm fault and pager path and device reads do all the
//! work; the write path is idle. A flush-side gain that costs the read
//! side shows here.

use aurora_sim::error::{Error, Result};

use super::{fnv1a, kv_digest, serve_kv, Recorder, Shadow, Size, Workload, FNV_BASIS};
use crate::gen::{write_key, KvGen, Rng, Zipf, PAGE};
use crate::sut::{CkptId, Image, ImageDesc, KvOp, Mode, Pid, Sut};
use crate::trace::Tracer;

/// Name of the key-value image's checkpoint.
const KV_IMAGE: &str = "cold-start-kv-image";
/// Name of the drill's persistence group and of its final checkpoint.
const LIVE: &str = "cold-start-live";
const FINAL: &str = "cold-start-final";

struct Dims {
    images: usize,
    runtime_pages: u64,
    fn_pages: u64,
    hot_pages: u64,
    kv_arena: u64,
    kv_keys: u64,
    kv_value_len: usize,
    cycles_per_round: usize,
    /// Ops the restored server serves in the drill.
    drill_ops: usize,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            Size::Full => Dims {
                images: 8,
                runtime_pages: 2048,
                fn_pages: 256,
                hot_pages: 64,
                kv_arena: 64 << 20,
                kv_keys: 16_384,
                kv_value_len: 256,
                cycles_per_round: 100,
                drill_ops: 32_768,
            },
            Size::Smoke => Dims {
                images: 2,
                runtime_pages: 48,
                fn_pages: 8,
                hot_pages: 8,
                kv_arena: 1 << 20,
                kv_keys: 128,
                kv_value_len: 64,
                cycles_per_round: 6,
                drill_ops: 128,
            },
        }
    }
}

/// The workload's state.
pub struct ColdStart {
    sut: Sut,
    dims: Dims,
    seed: u64,
    descs: Vec<ImageDesc>,
    /// Handles of `descs` on the current host incarnation.
    images: Vec<Image>,
    /// Digest of every page of each image, taken before the first crash.
    image_digests: Vec<u64>,
    /// First 8 bytes of each image's first private page.
    prints: Vec<[u8; 8]>,
    kv_ckpt: CkptId,
    kv_shadow: Shadow,
    rng: Rng,
    zipf: Zipf,
    /// The round's image choices.
    picks: Vec<usize>,
    /// The round's key for the eager restore's first `Get`.
    probe_key: Vec<u8>,
}

/// Digest of every page of an instance of `image`.
fn instance_digest(sut: &mut Sut, image: &ImageDesc, pid: Pid) -> Result<u64> {
    let mut h = FNV_BASIS;
    let mut page = vec![0u8; PAGE];
    let regions = [
        (image.runtime_addr, image.runtime_pages),
        (image.fn_addr, image.fn_pages),
    ];
    for (addr, pages) in regions {
        for i in 0..pages {
            sut.mem_read(pid, addr + i * PAGE as u64, &mut page)?;
            h = fnv1a(h, &page);
        }
    }
    Ok(h)
}

impl ColdStart {
    fn reopen_images(&mut self) {
        self.images = self
            .descs
            .iter()
            .map(|d| self.sut.reopen_image(d))
            .collect();
    }

    /// One lazy instantiate → invoke → check → retire cycle.
    fn cycle(&mut self, pick: usize, rec: &mut Recorder) -> Result<()> {
        let image = self
            .images
            .get(pick)
            .ok_or_else(|| Error::internal("image pick out of range"))?;
        let call = self.sut.v_now();
        let tok = self.sut.begin("bench.restore_to_first_op", "bench");
        let inst = rec.attempt_result(self.sut.instantiate(image, Mode::Lazy), "instantiate");
        let Some(inst) = inst else {
            self.sut.end(tok);
            return Ok(());
        };
        let invoked = self.sut.invoke(image, inst, self.dims.hot_pages);
        rec.restore_ns.push(self.sut.v_now() - call);
        self.sut.end(tok);
        let mut got = [0u8; 8];
        self.sut.mem_read(inst.pid, image.fn_addr, &mut got)?;
        let ok = invoked.is_ok()
            && self.sut.get_reg(inst.pid, 2)? == 1
            && self.prints.get(pick) == Some(&got);
        rec.attempt(ok, || {
            format!("invocation of image {pick} failed or read wrong bytes")
        });
        self.sut.retire(inst)
    }

    /// Eager restore of the key-value image through to its first `Get`.
    fn eager_kv_restore(&mut self, rec: &mut Recorder) -> Result<()> {
        let call = self.sut.v_now();
        let tok = self.sut.begin("bench.eager_restore_to_first_op", "bench");
        let restored =
            rec.attempt_result(self.sut.restore(self.kv_ckpt, Mode::Eager), "eager restore");
        let Some(restored) = restored else {
            self.sut.end(tok);
            return Ok(());
        };
        let mut kv = self.sut.kv_attach(restored)?;
        let reply = self
            .sut
            .kv_exec(&mut kv, &KvOp::Get(self.probe_key.clone()))?;
        rec.eager_restore_ns.push(self.sut.v_now() - call);
        self.sut.end(tok);
        rec.attempt(
            self.kv_shadow.matches(&self.probe_key, reply.as_deref()),
            || "first Get after the eager restore returned a wrong value".to_string(),
        );
        self.sut.exit(restored)
    }
}

impl Workload for ColdStart {
    const NAME: &'static str = "cold_start";

    fn build(seed: u64, size: Size, tracer: Tracer) -> Result<ColdStart> {
        let dims = Dims::of(size);
        let mut sut = Sut::boot(true, tracer)?;
        let mut descs = Vec::new();
        let mut image_digests = Vec::new();
        let mut prints = Vec::new();
        for i in 0..dims.images {
            let fn_seed = Rng::new(seed, 100 + i as u64).next_u64();
            let image = sut.build_image(
                &format!("fn-{i}"),
                dims.runtime_pages,
                dims.fn_pages,
                fn_seed,
            )?;
            let desc = ImageDesc::of(&image);
            let inst = sut.instantiate(&image, Mode::Eager)?;
            image_digests.push(instance_digest(&mut sut, &desc, inst.pid)?);
            let mut print = [0u8; 8];
            sut.mem_read(inst.pid, desc.fn_addr, &mut print)?;
            prints.push(print);
            sut.retire(inst)?;
            descs.push(desc);
        }

        let mut kv = sut.kv_start(dims.kv_arena, (dims.kv_keys * 2).next_power_of_two())?;
        let gid = kv.gid()?;
        let mut gen = KvGen::new(
            Rng::new(seed, 3),
            dims.kv_keys,
            0.99,
            dims.kv_value_len,
            0.0,
        );
        let mut kv_shadow = Shadow::new(dims.kv_keys);
        let mut ops = Vec::new();
        gen.fill_load(&mut ops, dims.kv_keys);
        for op in &ops {
            if let KvOp::Set(k, v) = op {
                kv_shadow.set(k, v);
            }
            sut.kv_exec(&mut kv, op)?;
        }
        sut.checkpoint(gid, true, Some(KV_IMAGE))?;
        sut.wait_durable(gid)?;
        sut.exit(kv.pid())?;

        sut.crash_and_reboot()?;
        let kv_ckpt = sut.checkpoint_named(KV_IMAGE)?;
        let mut w = ColdStart {
            zipf: Zipf::new(dims.images as u64, 0.99),
            rng: Rng::new(seed, 4),
            picks: Vec::new(),
            probe_key: Vec::new(),
            images: Vec::new(),
            sut,
            dims,
            seed,
            descs,
            image_digests,
            prints,
            kv_ckpt,
            kv_shadow,
        };
        w.reopen_images();
        Ok(w)
    }

    fn sut(&mut self) -> &mut Sut {
        &mut self.sut
    }

    fn warmup_rounds(&self, _size: Size) -> u32 {
        1
    }

    fn fixed_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 48,
            Size::Smoke => 3,
        }
    }

    fn generate(&mut self, _round: u32) {
        self.picks.clear();
        for _ in 0..self.dims.cycles_per_round {
            self.picks.push(self.zipf.draw(&mut self.rng) as usize);
        }
        let idx = self.rng.below(self.dims.kv_keys);
        write_key(idx, &mut self.probe_key);
    }

    fn round(&mut self, _round: u32, rec: &mut Recorder) -> Result<()> {
        // A cold host: nothing of any image is resident or cached.
        for d in &self.descs {
            self.sut.release_image(d.ckpt);
        }
        self.sut.release_image(self.kv_ckpt);
        self.sut.drop_caches()?;
        self.eager_kv_restore(rec)?;
        for i in 0..self.picks.len() {
            let pick = self.picks.get(i).copied().unwrap_or(0);
            self.cycle(pick, rec)?;
        }
        self.sut.release_image(self.kv_ckpt);
        self.eager_kv_restore(rec)
    }

    /// The live state is a key-value server restored from its image that
    /// has since served writes: it is given a persistence group and a
    /// base checkpoint, serves two generated ops per key, and is
    /// checkpointed incrementally. That is the workload's last, and
    /// only measured, checkpoint: one, because on a materialized store
    /// every incremental checkpoint first verifies its whole base on the
    /// device. After the crash the server comes back from it, and every
    /// function image still restores to the bytes it had before the
    /// first crash.
    fn drill(&mut self, rec: &mut Recorder, _written_at_start: u64) -> Result<()> {
        let pid = self.sut.restore(self.kv_ckpt, Mode::Eager)?;
        let mut kv = self.sut.kv_attach(pid)?;
        let gid = self.sut.persist(LIVE, pid)?;
        self.sut.checkpoint(gid, true, None)?;
        self.sut.wait_durable(gid)?;
        // The rounds write nothing, so the write window opens here,
        // after the base that sets the drill up.
        let written_at_start = self.sut.counters().dev_bytes_written;
        let mut gen = KvGen::new(
            Rng::new(self.seed, 6),
            self.dims.kv_keys,
            0.99,
            self.dims.kv_value_len,
            0.5,
        );
        let mut ops = Vec::new();
        gen.fill(&mut ops, self.dims.drill_ops);
        serve_kv(&mut self.sut, &mut kv, &ops, &mut self.kv_shadow, rec);
        let ck = self.sut.checkpoint(gid, false, Some(FINAL))?;
        rec.checkpoint(&ck, "final");
        rec.wave(ck.call_ns, ck.durable_at_ns);
        self.sut.wait_durable(gid)?;
        let tok = self.sut.begin("bench.digest", "bench");
        let sut = &mut self.sut;
        let before = kv_digest(self.dims.kv_keys, |key| sut.kv_get(&mut kv, key))?;
        self.sut.flush_aggs();
        self.sut.end(tok);
        let image_bytes = (self.dims.runtime_pages + self.dims.fn_pages) * PAGE as u64;
        let kv_bytes = self.dims.kv_keys * (self.dims.kv_value_len as u64 + 15);
        let live_bytes = self.dims.images as u64 * image_bytes + 2 * kv_bytes;
        rec.close_write_window(&self.sut, written_at_start, live_bytes);

        self.images.clear();
        self.sut.crash_and_reboot()?;
        self.reopen_images();
        let ckpt = self.sut.checkpoint_named(FINAL)?;
        let tok = self.sut.begin("bench.eager_restore_to_first_op", "bench");
        let call = self.sut.v_now();
        if let Some(restored) = rec.attempt_result(self.sut.restore(ckpt, Mode::Eager), "restore") {
            let mut kv = self.sut.kv_attach(restored)?;
            // The first served op reads the hottest key.
            let mut key = Vec::new();
            write_key(0, &mut key);
            let reply = self.sut.kv_exec(&mut kv, &KvOp::Get(key.clone()))?;
            rec.eager_restore_ns.push(self.sut.v_now() - call);
            self.sut.flush_aggs();
            self.sut.end(tok);
            rec.attempt(self.kv_shadow.matches(&key, reply.as_deref()), || {
                "first Get after restore returned a stale value".to_string()
            });
            let tok = self.sut.begin("bench.digest", "bench");
            let mut stale = 0u64;
            let (sut, shadow) = (&mut self.sut, &self.kv_shadow);
            let after = kv_digest(self.dims.kv_keys, |key| {
                let v = sut.kv_get(&mut kv, key)?;
                stale += u64::from(!shadow.matches(key, v.as_deref()));
                Ok(v)
            })?;
            self.sut.end(tok);
            rec.attempt(stale == 0, || {
                format!("{stale} keys of the restored server read back wrong")
            });
            rec.digests_match(before, after, Self::NAME);
            self.sut.exit(restored)?;
        } else {
            self.sut.end(tok);
        }
        // The images themselves, against their pre-crash page digests.
        for i in 0..self.images.len() {
            let (Some(image), Some(desc)) = (self.images.get(i), self.descs.get(i)) else {
                continue;
            };
            let inst = self.sut.instantiate(image, Mode::Eager)?;
            let after = instance_digest(&mut self.sut, desc, inst.pid)?;
            let want = self.image_digests.get(i).copied().unwrap_or(0);
            rec.attempt(after == want, || {
                format!("image {i} no longer restores to its original bytes")
            });
            self.sut.retire(inst)?;
        }
        self.sut.flush_aggs();
        rec.audit(&mut self.sut);
        Ok(())
    }
}
