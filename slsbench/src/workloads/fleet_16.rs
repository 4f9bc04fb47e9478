//! `fleet_16`: many small commits on one store. Sixteen key-value
//! tenants, one persistence group each, share the primary store. Each
//! round a Zipf wave of eight tenants serves 32 `Set`s each and is then
//! checkpointed back to back through the pipelined fleet scheduler.
//!
//! Why it exists: `core::fleet` admission and hash lanes, the per-store
//! commit lock, one seal / barrier / flip per tenant, and history GC
//! dominate. Group commit would show here and should not move
//! `bulk_flush`.

use aurora_sim::error::Result;

use super::{kv_digest, Recorder, Shadow, Size, Workload};
use crate::gen::{KvGen, Rng, Zipf};
use crate::sut::{Fleet, KvOp, Mode, Sut};
use crate::trace::Tracer;

/// Virtual think time between waves.
const THINK_NS: u64 = 10_000_000;

struct Dims {
    tenants: usize,
    heap: u64,
    keys: u64,
    value_len: usize,
    wave: usize,
    ops_per_tenant: usize,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            Size::Full => Dims {
                tenants: 16,
                heap: 8 << 20,
                keys: 2048,
                value_len: 1024,
                wave: 8,
                ops_per_tenant: 32,
            },
            Size::Smoke => Dims {
                tenants: 4,
                heap: 1 << 20,
                keys: 64,
                value_len: 128,
                wave: 2,
                ops_per_tenant: 6,
            },
        }
    }
}

/// The workload's state.
pub struct Fleet16 {
    sut: Sut,
    dims: Dims,
    fleet: Fleet,
    activity: Zipf,
    rng: Rng,
    gens: Vec<KvGen>,
    shadows: Vec<Shadow>,
    /// The round's wave: tenant positions, hot first.
    wave: Vec<usize>,
    /// The round's ops, one buffer per wave slot.
    ops: Vec<Vec<KvOp>>,
}

impl Fleet16 {
    fn serve(&mut self, slot: usize, tenant: usize, rec: &mut Recorder) -> Result<()> {
        let Some(ops) = self.ops.get(slot) else {
            return Ok(());
        };
        for op in ops {
            let r = self.sut.fleet_exec(&mut self.fleet, tenant, op);
            if let (KvOp::Set(k, v), Some(shadow)) = (op, self.shadows.get_mut(tenant)) {
                shadow.set(k, v);
                rec.app_bytes += v.len() as u64;
            }
            rec.attempt(r.is_ok(), || format!("tenant {tenant} op failed: {r:?}"));
        }
        Ok(())
    }

    /// Checkpoints `tenants` back to back; one wave.
    fn checkpoint_wave(&mut self, tenants: &[usize], round: u32, rec: &mut Recorder) -> Result<()> {
        let start = self.sut.v_now();
        let mut last_durable = start;
        for &t in tenants {
            let ck = self.sut.fleet_checkpoint(&mut self.fleet, t, round)?;
            rec.checkpoint(&ck, Self::NAME);
            last_durable = last_durable.max(ck.durable_at_ns);
        }
        rec.wave(start, last_durable);
        Ok(())
    }
}

impl Workload for Fleet16 {
    const NAME: &'static str = "fleet_16";

    fn build(seed: u64, size: Size, tracer: Tracer) -> Result<Fleet16> {
        let dims = Dims::of(size);
        let mut sut = Sut::boot(false, tracer)?;
        let mut fleet =
            sut.fleet_start(dims.tenants, seed, dims.heap, dims.keys, dims.value_len)?;
        // Overwrite every key once so the client knows every value.
        let mut gens = Vec::new();
        let mut shadows = Vec::new();
        let mut ops = Vec::new();
        for t in 0..dims.tenants {
            let mut gen = KvGen::new(
                Rng::new(seed, 1000 + t as u64),
                dims.keys,
                0.99,
                dims.value_len,
                0.0,
            );
            let mut shadow = Shadow::new(dims.keys);
            gen.fill_load(&mut ops, dims.keys);
            for op in &ops {
                if let KvOp::Set(k, v) = op {
                    shadow.set(k, v);
                }
                sut.fleet_exec(&mut fleet, t, op)?;
            }
            sut.fleet_checkpoint(&mut fleet, t, u32::MAX)?;
            gens.push(gen);
            shadows.push(shadow);
        }
        sut.fleet_drain();
        Ok(Fleet16 {
            activity: Zipf::new(dims.tenants as u64, 0.99),
            rng: Rng::new(seed, 5),
            wave: Vec::new(),
            ops: Vec::new(),
            sut,
            dims,
            fleet,
            gens,
            shadows,
        })
    }

    fn sut(&mut self) -> &mut Sut {
        &mut self.sut
    }

    fn warmup_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 8,
            Size::Smoke => 1,
        }
    }

    fn fixed_rounds(&self, size: Size) -> u32 {
        match size {
            Size::Full => 32,
            Size::Smoke => 3,
        }
    }

    fn generate(&mut self, _round: u32) {
        self.wave = self.activity.draw_distinct(&mut self.rng, self.dims.wave);
        self.ops.resize_with(self.wave.len(), Vec::new);
        for (buf, &t) in self.ops.iter_mut().zip(&self.wave) {
            if let Some(gen) = self.gens.get_mut(t) {
                gen.fill(buf, self.dims.ops_per_tenant);
            }
        }
    }

    fn round(&mut self, round: u32, rec: &mut Recorder) -> Result<()> {
        let wave = std::mem::take(&mut self.wave);
        for (slot, &t) in wave.iter().enumerate() {
            self.serve(slot, t, rec)?;
        }
        self.checkpoint_wave(&wave, round, rec)?;
        self.wave = wave;
        self.sut.think(THINK_NS);
        Ok(())
    }

    fn drill(&mut self, rec: &mut Recorder, written_at_start: u64) -> Result<()> {
        // One last wave over every tenant, so each has a checkpoint that
        // covers its latest writes.
        let all: Vec<usize> = (0..self.dims.tenants).collect();
        self.checkpoint_wave(&all, u32::MAX - 1, rec)?;
        let faults = self.sut.fleet_drain();
        rec.attempt(faults.is_empty(), || format!("fleet faults: {faults:?}"));
        let tok = self.sut.begin("bench.digest", "bench");
        let mut before = Vec::new();
        for &t in &all {
            let (sut, fleet) = (&mut self.sut, &mut self.fleet);
            before.push(kv_digest(self.dims.keys, |key| {
                sut.fleet_get(fleet, t, key)
            })?);
        }
        self.sut.end(tok);
        let live = self.dims.tenants as u64 * self.dims.keys * (self.dims.value_len as u64 + 15);
        rec.close_write_window(&self.sut, written_at_start, live);

        self.sut.crash_and_reboot()?;
        let mut key = Vec::new();
        for &t in &all {
            let name = Sut::fleet_last_checkpoint(&self.fleet, t)?.to_string();
            let ckpt = self.sut.checkpoint_named(&name)?;
            let tok = self.sut.begin("bench.restore_to_first_op", "bench");
            let call = self.sut.v_now();
            let Some(restored) = rec.attempt_result(self.sut.restore(ckpt, Mode::Eager), "restore")
            else {
                self.sut.end(tok);
                continue;
            };
            let mut kv = self.sut.kv_attach(restored)?;
            crate::gen::write_key(t as u64, &mut key);
            let reply = self.sut.kv_exec(&mut kv, &KvOp::Get(key.clone()))?;
            rec.restore_ns.push(self.sut.v_now() - call);
            self.sut.flush_aggs();
            self.sut.end(tok);
            let fresh = self
                .shadows
                .get(t)
                .is_some_and(|s| s.matches(&key, reply.as_deref()));
            rec.attempt(fresh, || {
                format!("tenant {t}: first Get after restore is stale")
            });

            let tok = self.sut.begin("bench.digest", "bench");
            let sut = &mut self.sut;
            let after = kv_digest(self.dims.keys, |k| sut.kv_get(&mut kv, k))?;
            self.sut.end(tok);
            rec.digests_match(before.get(t).copied().unwrap_or(0), after, Self::NAME);
            self.sut.exit(restored)?;
        }
        rec.audit(&mut self.sut);
        Ok(())
    }
}
