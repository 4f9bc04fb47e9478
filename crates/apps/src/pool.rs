//! A multi-process worker-pool KV store on shared memory.
//!
//! The paper's breadth claim — "Aurora \[handles\] applications composed
//! of processes that share memory or files in arbitrary ways" (the
//! Firefox case) — needs a real multi-process workload to test against.
//! [`KvPool`] is one: a leader process creates a System V shared-memory
//! segment holding a [`crate::SimHeap`] + [`crate::SimMap`], then forks
//! N workers. Every process maps the same segment at the same address;
//! any worker can serve any operation; all of them observe each other's
//! writes immediately.
//!
//! The interesting property under checkpoint/restore: the shared segment
//! must be captured exactly once, restored as one object, and re-attached
//! to every restored process — not duplicated per process.

use std::cell::RefCell;
use std::rc::Rc;

use aurora_core::fleet::TenantCycle;
use aurora_core::{GroupId, Host};
use aurora_hw::{BlockDev, ModelDev, ResilientDev};
use aurora_objstore::{ObjectStore, StoreConfig};
use aurora_posix::Pid;
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::Fnv64;
use aurora_slsfs::StoreHandle;

use crate::heap::SimHeap;
use crate::kv::{KvOp, KvServer, PersistMode};
use crate::shmap::SimMap;
use crate::workload::{KeyDist, TenantActivity, Workload};

/// Register holding the shared segment's attach address.
const REG_SHM: usize = 0;
/// Register holding the map base.
const REG_MAP: usize = 1;
/// Register holding ops served by *this* process.
const REG_SERVED: usize = 2;

/// The worker-pool KV store.
#[derive(Debug)]
pub struct KvPool {
    /// The leader (owns the segment, first to map it).
    pub leader: Pid,
    /// Worker processes (forked from the leader).
    pub workers: Vec<Pid>,
    /// SysV key of the shared segment.
    pub shm_key: i32,
    shm_addr: u64,
    map_base: u64,
    next_worker: usize,
}

impl KvPool {
    /// Builds a pool: leader + `workers` forked children, all sharing
    /// one `shm_bytes` segment that holds the data structures.
    pub fn start(host: &mut Host, workers: usize, shm_key: i32, shm_bytes: u64) -> Result<KvPool> {
        let leader = host.kernel.spawn("kv-pool-leader");
        host.kernel.shmget(shm_key, shm_bytes)?;
        let shm_addr = host.kernel.shmat(leader, shm_key)?;
        let heap = SimHeap::init_at(&mut host.kernel, leader, shm_addr, shm_bytes)?;
        let map = SimMap::create(&mut host.kernel, heap, 1024)?;
        host.kernel.set_reg(leader, REG_SHM, shm_addr)?;
        host.kernel.set_reg(leader, REG_MAP, map.base)?;
        host.kernel.set_reg(leader, REG_SERVED, 0)?;

        // Fork the workers AFTER the segment is mapped: they inherit the
        // shared mapping at the same address.
        let mut pids = Vec::new();
        for _ in 0..workers {
            pids.push(host.kernel.fork(leader)?);
        }
        Ok(KvPool {
            leader,
            workers: pids,
            shm_key,
            shm_addr,
            map_base: map.base,
            next_worker: 0,
        })
    }

    /// Re-attaches to a restored pool given the new pids (leader first).
    pub fn attach(host: &mut Host, leader: Pid, workers: Vec<Pid>, shm_key: i32) -> Result<KvPool> {
        let shm_addr = host.kernel.get_reg(leader, REG_SHM)?;
        let map_base = host.kernel.get_reg(leader, REG_MAP)?;
        // Validate through the leader's view.
        let heap = SimHeap::attach(&mut host.kernel, leader, shm_addr)?;
        SimMap::attach(&mut host.kernel, heap, map_base)?;
        Ok(KvPool {
            leader,
            workers,
            shm_key,
            shm_addr,
            map_base,
            next_worker: 0,
        })
    }

    /// Every member process, leader first.
    pub fn members(&self) -> Vec<Pid> {
        let mut m = vec![self.leader];
        m.extend(&self.workers);
        m
    }

    /// Executes one op on a specific member (all views are equivalent).
    pub fn exec_on(&self, host: &mut Host, member: Pid, op: &KvOp) -> Result<Option<Vec<u8>>> {
        let heap = SimHeap::attach(&mut host.kernel, member, self.shm_addr)?;
        let map = SimMap::attach(&mut host.kernel, heap, self.map_base)?;
        let served = host.kernel.get_reg(member, REG_SERVED)? + 1;
        host.kernel.set_reg(member, REG_SERVED, served)?;
        match op {
            KvOp::Set(k, v) => {
                map.put(&mut host.kernel, k, v)?;
                Ok(None)
            }
            KvOp::Get(k) => map.get(&mut host.kernel, k),
            KvOp::Del(k) => {
                map.del(&mut host.kernel, k)?;
                Ok(None)
            }
        }
    }

    /// Executes one op on the next worker (round-robin dispatch).
    pub fn exec(&mut self, host: &mut Host, op: &KvOp) -> Result<Option<Vec<u8>>> {
        let member = if self.workers.is_empty() {
            self.leader
        } else {
            let w = self.workers[self.next_worker % self.workers.len()];
            self.next_worker += 1;
            w
        };
        self.exec_on(host, member, op)
    }

    /// Keys stored (read through the leader).
    pub fn len(&self, host: &mut Host) -> Result<u64> {
        let heap = SimHeap::attach(&mut host.kernel, self.leader, self.shm_addr)?;
        let map = SimMap::attach(&mut host.kernel, heap, self.map_base)?;
        map.len(&mut host.kernel)
    }

    /// Ops served by each member (from their restored registers).
    pub fn served_counts(&self, host: &Host) -> Result<Vec<u64>> {
        self.members()
            .iter()
            .map(|&pid| {
                host.kernel
                    .proc_ref(pid)
                    .map(|p| p.main_thread().cpu.regs[REG_SERVED])
            })
            .collect::<core::result::Result<Vec<_>, _>>()
            .map_err(|_| Error::not_found("pool member vanished"))
    }
}

/// Per-tenant seed: mixes the fleet seed with the tenant's *global*
/// index, so tenant `i`'s op stream is identical whether it runs in an
/// interleaved fleet or alone on an isolated host (the differential
/// proptest depends on exactly this).
pub fn tenant_seed(seed: u64, index: usize) -> u64 {
    aurora_sim::rng::mix64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1))
}

/// Digest of a KV server's visible state over key indices `0..keys`.
fn kv_digest(host: &mut Host, server: &mut KvServer, keys: u64) -> Result<u64> {
    let mut h = Fnv64::new();
    for idx in 0..keys {
        let key = format!("key{idx:012}").into_bytes();
        h.update(&key);
        match server.exec(host, &KvOp::Get(key))? {
            Some(v) => h.update(&v),
            None => h.update(b"<absent>"),
        }
    }
    Ok(h.finish())
}

/// One tenant of a [`TenantFleet`].
pub struct FleetTenant {
    /// Global tenant index (stable across subset construction).
    pub index: usize,
    /// The tenant's server, transparently persisted in its own group.
    pub server: KvServer,
    /// The tenant's private seeded op stream.
    pub workload: Workload,
    /// The tenant's persistence group.
    pub gid: GroupId,
    /// Name of this tenant's most recent checkpoint.
    pub last_ckpt: String,
    /// The tenant's private store when the fleet is isolated
    /// ([`TenantFleet::isolate`]); `None` means the host's shared
    /// primary.
    pub store: Option<StoreHandle>,
}

/// A fleet of independent KV tenants, one persistence group each —
/// the serverless density scenario the fleet scheduler exists for.
///
/// Tenant activity follows [`TenantActivity`] (zipfian over the fleet);
/// each tenant's key popularity and values follow its own seeded
/// [`Workload`]. `checkpoint_wave` drives the pipelined scheduler, so
/// one tenant's flush overlaps the next tenant's capture.
pub struct TenantFleet {
    /// The tenants, in construction order.
    pub tenants: Vec<FleetTenant>,
    activity: TenantActivity,
    keys: u64,
}

impl TenantFleet {
    /// Starts `n` tenants (global indices `0..n`).
    pub fn start(
        host: &mut Host,
        n: usize,
        seed: u64,
        heap_bytes: u64,
        keys: u64,
        value_len: usize,
    ) -> Result<TenantFleet> {
        let indices: Vec<usize> = (0..n).collect();
        TenantFleet::start_subset(host, seed, &indices, heap_bytes, keys, value_len)
    }

    /// Starts only the tenants with the given *global* indices — an
    /// isolated single-tenant host for the differential proptest uses a
    /// one-element subset and gets the identical op stream the tenant
    /// would see inside the full interleaved fleet.
    pub fn start_subset(
        host: &mut Host,
        seed: u64,
        indices: &[usize],
        heap_bytes: u64,
        keys: u64,
        value_len: usize,
    ) -> Result<TenantFleet> {
        // Open-addressing map: leave headroom so the workload never
        // fills the table.
        let buckets = (keys * 2).next_power_of_two().max(64);
        let mut tenants = Vec::with_capacity(indices.len());
        for &index in indices {
            let mut server =
                KvServer::start(host, PersistMode::AuroraTransparent, heap_bytes, buckets)?;
            let gid = server
                .gid
                .ok_or_else(|| Error::internal("transparent tenant has no group"))?;
            let mut workload = Workload::new(
                tenant_seed(seed, index),
                keys,
                value_len,
                0.0,
                KeyDist::Zipfian { theta: 0.99 },
            );
            for op in workload.load_ops() {
                server.exec(host, &op)?;
            }
            // Cover the loaded state so an untouched tenant still
            // restores to what its digest reports.
            let name = format!("t{index}-base");
            let bd = host.checkpoint(gid, false, Some(&name))?;
            host.clock.advance_to(bd.durable_at);
            tenants.push(FleetTenant {
                index,
                server,
                workload,
                gid,
                last_ckpt: name,
                store: None,
            });
        }
        Ok(TenantFleet {
            tenants,
            activity: TenantActivity::new(seed, indices.len(), 0.99),
            keys,
        })
    }

    /// Rehomes every tenant onto its own freshly formatted store, so
    /// each tenant is its own fault domain: a device fault (or the
    /// quarantine it triggers) is confined to one tenant while the rest
    /// of the fleet keeps checkpointing. Each tenant takes a fresh full
    /// base on its new store so an untouched tenant still restores.
    pub fn isolate(&mut self, host: &mut Host) -> Result<()> {
        for tenant in &mut self.tenants {
            let dev = Box::new(ModelDev::nvme(
                host.clock.clone(),
                &format!("tenant{}", tenant.index),
                64 * 1024,
            ));
            let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(dev));
            let store: StoreHandle = Rc::new(RefCell::new(ObjectStore::format(
                dev,
                StoreConfig {
                    journal_blocks: 512,
                    materialize_data: true,
                    ..StoreConfig::default()
                },
            )?));
            host.rehome_group(tenant.gid, store.clone())?;
            let name = format!("t{}-isolated-base", tenant.index);
            let bd = host.checkpoint(tenant.gid, true, Some(&name))?;
            host.clock.advance_to(bd.durable_at);
            tenant.last_ckpt = name;
            tenant.store = Some(store);
        }
        Ok(())
    }

    /// Draws a wave of `k` distinct active tenant positions.
    pub fn wave(&mut self, k: usize) -> Vec<usize> {
        self.activity.wave(k)
    }

    /// Runs `ops` operations from tenant position `t`'s own stream.
    pub fn touch(&mut self, host: &mut Host, t: usize, ops: usize) -> Result<()> {
        let tenant = self
            .tenants
            .get_mut(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        for _ in 0..ops {
            let op = tenant.workload.next_op();
            tenant.server.exec(host, &op)?;
        }
        Ok(())
    }

    /// Pipelined incremental checkpoints of a wave, named
    /// `t<index>-r<round>` so survivors are identifiable after a crash.
    ///
    /// One tenant's failure never aborts the wave: each entry carries
    /// that tenant's own outcome (committed breakdown, quarantine skip,
    /// or hard error). The outer `Result` only reports harness errors
    /// (an unknown tenant position).
    pub fn checkpoint_wave(
        &mut self,
        host: &mut Host,
        wave: &[usize],
        round: u32,
    ) -> Result<Vec<TenantCycle>> {
        let mut out = Vec::with_capacity(wave.len());
        for &t in wave {
            let tenant = self
                .tenants
                .get_mut(t)
                .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
            let name = format!("t{}-r{round}", tenant.index);
            let result = host.checkpoint_pipelined(tenant.gid, false, Some(&name));
            if let Ok(bd) = &result {
                if bd.outcome.committed() {
                    tenant.last_ckpt = name;
                }
            }
            out.push(TenantCycle {
                gid: tenant.gid,
                result,
            });
        }
        Ok(out)
    }

    /// Digest of tenant position `t`'s live KV state.
    pub fn digest(&mut self, host: &mut Host, t: usize) -> Result<u64> {
        let tenant = self
            .tenants
            .get_mut(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        kv_digest(host, &mut tenant.server, self.keys)
    }

    /// Restores tenant position `t`'s most recent checkpoint on a
    /// (typically rebooted) host, digests the restored KV state, and
    /// tears the restored process back down.
    pub fn restore_tenant(&self, host: &mut Host, t: usize) -> Result<u64> {
        let tenant = self
            .tenants
            .get(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        let store = tenant
            .store
            .clone()
            .unwrap_or_else(|| host.sls.primary.clone());
        let ckpt = store
            .borrow()
            .checkpoints()
            .iter()
            .find(|c| c.name.as_deref() == Some(tenant.last_ckpt.as_str()))
            .map(|c| c.id)
            .ok_or_else(|| Error::not_found(format!("checkpoint {}", tenant.last_ckpt)))?;
        let r = host.restore(&store, ckpt, aurora_core::restore::RestoreMode::Eager)?;
        let pid = r
            .root_pid()
            .ok_or_else(|| Error::internal("restore returned no root pid"))?;
        let mut server = KvServer::attach(host, pid, PersistMode::AuroraTransparent)?;
        let digest = kv_digest(host, &mut server, self.keys);
        let _ = host.kernel.exit(pid, 0);
        host.kernel.procs.remove(&pid);
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::restore::RestoreMode;
    use aurora_hw::ModelDev;
    use aurora_objstore::StoreConfig;
    use aurora_sim::SimClock;

    fn boot() -> Host {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", 128 * 1024));
        Host::boot("pool", dev, StoreConfig::default()).unwrap()
    }

    #[test]
    fn workers_share_one_store() {
        let mut host = boot();
        let mut pool = KvPool::start(&mut host, 3, 77, 4 << 20).unwrap();
        // Ops scatter across workers; every view is coherent.
        for i in 0..30u32 {
            pool.exec(
                &mut host,
                &KvOp::Set(format!("k{i}").into_bytes(), format!("v{i}").into_bytes()),
            )
            .unwrap();
        }
        assert_eq!(pool.len(&mut host).unwrap(), 30);
        // A value written by one worker is visible through another.
        let via_leader = pool
            .exec_on(&mut host, pool.leader, &KvOp::Get(b"k7".to_vec()))
            .unwrap();
        assert_eq!(via_leader.unwrap(), b"v7");
        // Work actually spread over the workers.
        let served = pool.served_counts(&host).unwrap();
        assert!(served[1..].iter().all(|&s| s >= 10));
    }

    #[test]
    fn whole_pool_checkpoint_restores_shared_segment_once() {
        let mut host = boot();
        let mut pool = KvPool::start(&mut host, 3, 77, 4 << 20).unwrap();
        for i in 0..20u32 {
            pool.exec(
                &mut host,
                &KvOp::Set(format!("k{i}").into_bytes(), b"before".to_vec()),
            )
            .unwrap();
        }
        let gid = host.persist("kv-pool", pool.leader).unwrap();
        let bd = host.checkpoint(gid, true, None).unwrap();
        host.clock.advance_to(bd.durable_at);

        // Post-checkpoint writes will be lost in the crash.
        pool.exec(&mut host, &KvOp::Set(b"k5".to_vec(), b"after!".to_vec()))
            .unwrap();

        let mut host = host.crash_and_reboot().unwrap();
        let store = host.sls.primary.clone();
        let head = store.borrow().head().unwrap();
        let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
        let new_leader = r.restored_pid(pool.leader.0).unwrap();
        let new_workers: Vec<Pid> = pool
            .workers
            .iter()
            .map(|w| r.restored_pid(w.0).unwrap())
            .collect();
        let restored = KvPool::attach(&mut host, new_leader, new_workers, 77).unwrap();

        // Per-worker served counters came back through the registers
        // (checked before the verification ops below bump them again).
        let served = restored.served_counts(&host).unwrap();
        assert_eq!(served.iter().sum::<u64>(), 20);
        assert_eq!(restored.len(&mut host).unwrap(), 20);
        let v = restored
            .exec_on(&mut host, restored.workers[2], &KvOp::Get(b"k5".to_vec()))
            .unwrap();
        assert_eq!(v.unwrap(), b"before", "post-checkpoint write rolled back");

        // Coherence still holds after restore: worker writes, leader sees.
        restored
            .exec_on(
                &mut host,
                restored.workers[0],
                &KvOp::Set(b"post".to_vec(), b"restore".to_vec()),
            )
            .unwrap();
        let v = restored
            .exec_on(&mut host, restored.leader, &KvOp::Get(b"post".to_vec()))
            .unwrap();
        assert_eq!(v.unwrap(), b"restore");
    }

    #[test]
    fn isolated_fleet_confines_a_dead_tenant_device() {
        use aurora_core::fleet::{TenantHealth, QUARANTINE_AFTER};
        use aurora_core::CheckpointOutcome;
        use aurora_hw::FaultPlan;

        let mut host = boot();
        let mut fleet = TenantFleet::start(&mut host, 4, 0xdead, 256 * 1024, 24, 48).unwrap();
        fleet.isolate(&mut host).unwrap();

        // Kill tenant 0's private device on its next write.
        fleet
            .tenants
            .first()
            .and_then(|t| t.store.clone())
            .expect("isolated tenant has a store")
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::power_cut(1));
        let gid0 = fleet.tenants.first().unwrap().gid;

        // Enough all-tenant waves to walk tenant 0 into quarantine.
        let all: Vec<usize> = (0..4).collect();
        for round in 0..(QUARANTINE_AFTER + 1) {
            for &t in &all {
                fleet.touch(&mut host, t, 4).unwrap();
            }
            let cycles = fleet.checkpoint_wave(&mut host, &all, round).unwrap();
            // Healthy tenants commit every round, poisoned or not.
            for (t, cycle) in all.iter().zip(&cycles).skip(1) {
                match &cycle.result {
                    Ok(bd) if bd.outcome.committed() => {}
                    other => panic!("healthy tenant {t} failed round {round}: {other:?}"),
                }
            }
            host.fleet_drain();
        }
        assert_eq!(
            host.tenant_domain(gid0).health,
            TenantHealth::Quarantined,
            "poisoned tenant never quarantined"
        );
        // A quarantined tenant's wave entry is a skip, not an error.
        let cycles = fleet
            .checkpoint_wave(&mut host, &all, QUARANTINE_AFTER + 1)
            .unwrap();
        let first = cycles.first().expect("wave has tenant 0");
        assert!(
            matches!(&first.result, Ok(bd) if bd.outcome == CheckpointOutcome::Quarantined),
            "expected a quarantine skip, got {:?}",
            first.result
        );
        host.fleet_drain();

        // The healthy tenants' checkpoints restore from their own
        // stores, unharmed by the dead neighbor.
        let want: Vec<u64> = (1..4)
            .map(|t| fleet.digest(&mut host, t).unwrap())
            .collect();
        for (i, t) in (1..4usize).enumerate() {
            let got = fleet.restore_tenant(&mut host, t).unwrap();
            assert_eq!(got, want[i], "tenant {t} restored differently");
        }
    }

    #[test]
    fn fleet_waves_interleave_and_survive_a_crash() {
        let mut host = boot();
        let mut fleet = TenantFleet::start(&mut host, 6, 0xf1ee7, 256 * 1024, 24, 48).unwrap();
        // A few zipfian waves of activity + pipelined checkpoints.
        for round in 0..3u32 {
            let wave = fleet.wave(4);
            for &t in &wave {
                fleet.touch(&mut host, t, 8).unwrap();
            }
            fleet.checkpoint_wave(&mut host, &wave, round).unwrap();
        }
        host.fleet_drain();
        assert!(host.sls.fleet.stats.overlapped > 0, "waves never overlapped");
        let want: Vec<u64> = (0..6)
            .map(|t| fleet.digest(&mut host, t).unwrap())
            .collect();
        let mut host = host.crash_and_reboot().unwrap();
        for t in 0..6usize {
            let got = fleet.restore_tenant(&mut host, t).unwrap();
            assert_eq!(
                got, want[t],
                "tenant {t} restored to a different KV digest"
            );
        }
    }
}
