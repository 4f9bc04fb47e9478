//! `kv_churn`: the paper's steady state. One key-value server under
//! transparent persistence, checkpointed every 10 ms of virtual time
//! (100 Hz) with no wait for durability.
//!
//! Why it exists: the apps and vm layers do most of the host work, and
//! the stop-time path (serialize + COW arm) and the delta-log / journal
//! commit run every 10 ms. Dirty pages are few and take the sub-page
//! delta path, yet each is still strong-hashed.

use aurora_sim::error::Result;

use super::{kv_digest, serve_kv, Recorder, Shadow, Size, Workload};
use crate::gen::{write_key, KvGen, Rng};
use crate::sut::{Kv, KvOp, Mode, Sut};
use crate::trace::Tracer;

/// Name of the drill's final checkpoint.
const FINAL: &str = "kv-churn-final";

struct Dims {
    arena: u64,
    keys: u64,
    value_len: usize,
    ops_per_round: usize,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            Size::Full => Dims {
                arena: 64 << 20,
                keys: 16_384,
                value_len: 256,
                ops_per_round: 1024,
            },
            Size::Smoke => Dims {
                arena: 2 << 20,
                keys: 256,
                value_len: 64,
                ops_per_round: 48,
            },
        }
    }
}

/// The workload's state.
pub struct KvChurn {
    sut: Sut,
    dims: Dims,
    kv: Kv,
    gen: KvGen,
    shadow: Shadow,
    ops: Vec<KvOp>,
}

impl KvChurn {
    fn digest(&mut self) -> Result<u64> {
        let (sut, kv) = (&mut self.sut, &mut self.kv);
        kv_digest(self.dims.keys, |key| sut.kv_get(kv, key))
    }
}

impl Workload for KvChurn {
    const NAME: &'static str = "kv_churn";

    fn build(seed: u64, size: Size, tracer: Tracer) -> Result<KvChurn> {
        let dims = Dims::of(size);
        let mut sut = Sut::boot(false, tracer)?;
        let mut kv = sut.kv_start(dims.arena, (dims.keys * 2).next_power_of_two())?;
        let gid = kv.gid()?;
        let mut gen = KvGen::new(Rng::new(seed, 1), dims.keys, 0.99, dims.value_len, 0.5);
        let mut shadow = Shadow::new(dims.keys);
        let mut ops = Vec::new();
        gen.fill_load(&mut ops, dims.keys);
        for op in &ops {
            if let KvOp::Set(k, v) = op {
                shadow.set(k, v);
            }
            sut.kv_exec(&mut kv, op)?;
        }
        sut.checkpoint(gid, true, None)?;
        sut.wait_durable(gid)?;
        Ok(KvChurn {
            sut,
            dims,
            kv,
            gen,
            shadow,
            ops,
        })
    }

    fn sut(&mut self) -> &mut Sut {
        &mut self.sut
    }

    fn warmup_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 40,
            Size::Smoke => 2,
        }
    }

    fn fixed_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 192,
            Size::Smoke => 3,
        }
    }

    fn generate(&mut self, _round: u32) {
        self.gen.fill(&mut self.ops, self.dims.ops_per_round);
    }

    fn round(&mut self, _round: u32, rec: &mut Recorder) -> Result<()> {
        serve_kv(
            &mut self.sut,
            &mut self.kv,
            &self.ops,
            &mut self.shadow,
            rec,
        );
        let gid = self.kv.gid()?;
        let ck = self.sut.checkpoint(gid, false, None)?;
        rec.checkpoint(&ck, Self::NAME);
        rec.wave(ck.call_ns, ck.durable_at_ns);
        Ok(())
    }

    fn drill(&mut self, rec: &mut Recorder, written_at_start: u64) -> Result<()> {
        let gid = self.kv.gid()?;
        let ck = self.sut.checkpoint(gid, false, Some(FINAL))?;
        rec.checkpoint(&ck, "final");
        rec.wave(ck.call_ns, ck.durable_at_ns);
        self.sut.wait_durable(gid)?;
        let tok = self.sut.begin("bench.digest", "bench");
        let before = self.digest()?;
        self.sut.end(tok);
        let live = self.dims.keys * (self.dims.value_len as u64 + 15);
        rec.close_write_window(&self.sut, written_at_start, live);

        self.sut.crash_and_reboot()?;
        let ckpt = self.sut.checkpoint_named(FINAL)?;
        let tok = self.sut.begin("bench.restore_to_first_op", "bench");
        let call = self.sut.v_now();
        let restored = rec.attempt_result(self.sut.restore(ckpt, Mode::Eager), "restore");
        let Some(restored) = restored else {
            self.sut.end(tok);
            return Ok(());
        };
        self.kv = self.sut.kv_attach(restored)?;
        // The first served op reads the hottest key.
        let mut key = Vec::new();
        write_key(0, &mut key);
        let reply = self.sut.kv_exec(&mut self.kv, &KvOp::Get(key.clone()))?;
        rec.restore_ns.push(self.sut.v_now() - call);
        self.sut.flush_aggs();
        self.sut.end(tok);
        rec.attempt(self.shadow.matches(&key, reply.as_deref()), || {
            "first Get after restore returned a stale value".to_string()
        });

        let tok = self.sut.begin("bench.digest", "bench");
        let after = self.digest()?;
        self.sut.end(tok);
        rec.digests_match(before, after, Self::NAME);
        rec.audit(&mut self.sut);
        Ok(())
    }
}
