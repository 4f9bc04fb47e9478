//! The system under test, and the only file that calls into it.
//!
//! Every number the benchmark reports comes from timing the public
//! functions called here and from reading the public breakdown and
//! counter structs (`CheckpointBreakdown`, `RestoreBreakdown`,
//! `StoreStats`, `DevStats`, `VmStats`, `FleetStats`, `SlsStats`). The
//! process-wide `GlobalCounters` are left alone: they would mix in every
//! other host of the process.
//! Keeping the calls in one file makes the API surface the benchmark
//! pins auditable; README.md lists it.
//!
//! Each wrapper opens a span on the [`Tracer`] (a no-op when tracing is
//! off). The virtual children of `core.checkpoint` and `core.restore`
//! are synthesised from the returned breakdowns; their remainders are
//! computed with checked subtraction, and a negative remainder is
//! counted in [`Sut::span_violations`] and fails the run.

use aurora_apps::kv::{KvServer, PersistMode};
use aurora_apps::pool::TenantFleet;
use aurora_apps::serverless::{self, FunctionImage, Instance};
use aurora_core::{flush, CheckpointBreakdown, Host, RestoreBreakdown};
use aurora_hw::{BlockDev, ModelDev};
use aurora_objstore::{ObjId, ObjectStore, PageWrite, StoreConfig};
use aurora_sim::error::{Error, Result};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;
use aurora_vm::PageData;
use criterion::wall_now;

use crate::trace::{Agg, Tok, Tracer};

pub use aurora_apps::kv::KvOp;
pub use aurora_apps::pool::TenantFleet as Fleet;
pub use aurora_apps::serverless::FunctionImage as Image;
pub use aurora_core::restore::RestoreMode as Mode;
pub use aurora_core::GroupId;
pub use aurora_objstore::CkptId;
pub use aurora_posix::Pid;

/// Flush and restore worker threads in every workload. Virtual time
/// depends on the worker count, so it is fixed here and never derived
/// from the machine.
pub const WORKERS: usize = 2;
/// Journal size of the primary store, in blocks.
pub const JOURNAL_BLOCKS: u64 = 8192;
/// Size of the modelled NVMe device, in 4 KiB blocks (8 GiB).
pub const DEVICE_BLOCKS: u64 = 2 * 1024 * 1024;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Monotonic counters read from the system's public stat structs.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// What was counted since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }
        }
    };
}

counters! {
    /// `StoreStats::pages_written`.
    pages_written,
    /// `StoreStats::dedup_hits`.
    dedup_hits,
    /// `StoreStats::commits`.
    commits,
    /// `StoreStats::compactions`.
    compactions,
    /// `StoreStats::gc_runs`.
    gc_runs,
    /// `StoreStats::bytes_journaled`.
    bytes_journaled,
    /// `StoreStats::extents_coalesced`.
    extents_coalesced,
    /// `StoreStats::blocks_coalesced`.
    blocks_coalesced,
    /// `StoreStats::read_extents_coalesced`.
    read_extents,
    /// `StoreStats::read_cache_hits`.
    read_cache_hits,
    /// `StoreStats::read_cache_misses`.
    read_cache_misses,
    /// `StoreStats::journal_seals`.
    journal_seals,
    /// `StoreStats::extent_barriers`.
    extent_barriers,
    /// `StoreStats::superblock_flips`.
    superblock_flips,
    /// `StoreStats::delta_records`.
    delta_records,
    /// `StoreStats::delta_bytes`.
    delta_bytes,
    /// `StoreStats::chains_compacted`.
    chains_compacted,
    /// `DevStats::reads`.
    dev_reads,
    /// `DevStats::writes`.
    dev_writes,
    /// `DevStats::bytes_read`.
    dev_bytes_read,
    /// `DevStats::bytes_written`.
    dev_bytes_written,
    /// `DevStats::flushes`.
    dev_flushes,
    /// `VmStats::cow_faults`.
    cow_faults,
    /// `VmStats::minor_faults`.
    minor_faults,
    /// `VmStats::major_faults`.
    major_faults,
    /// `VmStats::pages_copied`.
    pages_copied,
    /// `VmStats::pages_armed`.
    pages_armed,
    /// `FleetStats::admitted`.
    fleet_admitted,
    /// `FleetStats::overlapped`.
    fleet_overlapped,
    /// `FleetStats::queue_stalls`.
    fleet_queue_stalls,
    /// `SlsStats::checkpoints_degraded`.
    ckpt_degraded,
    /// `SlsStats::checkpoints_aborted`.
    ckpt_aborted,
}

/// Gauges: read once, at the end of the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// `ObjectStore::blocks_in_use`.
    pub blocks_in_use: u64,
    /// `StoreStats::chain_len_max`.
    pub chain_len_max: u64,
    /// `FleetStats::queue_depth_max`.
    pub queue_depth_max: u64,
}

/// What one checkpoint call returned, in the units the metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ckpt {
    /// Virtual instant of the call.
    pub call_ns: u64,
    /// `CheckpointBreakdown::stop_time`.
    pub stop_ns: u64,
    /// `CheckpointBreakdown::durable_at`.
    pub durable_at_ns: u64,
    /// Pages captured.
    pub pages: u64,
    /// A new durable checkpoint exists and the call did not degrade.
    pub clean: bool,
}

impl Ckpt {
    /// Call instant to durable instant.
    pub fn durable_ns(&self) -> u64 {
        self.durable_at_ns.saturating_sub(self.call_ns)
    }
}

/// Everything about a function image except its store handle.
#[derive(Debug, Clone)]
pub struct ImageDesc {
    /// The image checkpoint.
    pub ckpt: CkptId,
    /// Function name.
    pub name: String,
    /// Shared runtime region, pages.
    pub runtime_pages: u64,
    /// Function-specific region, pages.
    pub fn_pages: u64,
    /// Address of the runtime region.
    pub runtime_addr: u64,
    /// Address of the function region.
    pub fn_addr: u64,
}

impl ImageDesc {
    /// Describes `image`.
    pub fn of(image: &FunctionImage) -> ImageDesc {
        ImageDesc {
            ckpt: image.ckpt,
            name: image.name.clone(),
            runtime_pages: image.runtime_pages,
            fn_pages: image.fn_pages,
            runtime_addr: image.runtime_addr,
            fn_addr: image.fn_addr,
        }
    }
}

/// The driver of a key-value server.
pub struct Kv {
    server: KvServer,
}

impl Kv {
    /// The server's persistence group.
    pub fn gid(&self) -> Result<GroupId> {
        self.server
            .gid
            .ok_or_else(|| Error::internal("key-value server has no persistence group"))
    }

    /// The server's process.
    pub fn pid(&self) -> Pid {
        self.server.pid
    }
}

/// Per-round busy-time accumulators of the short calls.
#[derive(Debug, Default)]
struct RoundAggs {
    get: Agg,
    set: Agg,
    mem_write: Agg,
    mem_read: Agg,
}

/// The host under test plus the tracer that watches the calls into it.
pub struct Sut {
    host: Option<Host>,
    /// The span recorder.
    pub tracer: Tracer,
    aggs: RoundAggs,
    /// Synthesised children that would have had a negative remainder.
    pub span_violations: u64,
    /// `CheckpointBreakdown::metadata_bytes` summed over traced calls.
    pub metadata_bytes: u64,
    /// `CheckpointBreakdown::pages` summed over traced calls: the flush
    /// hashes every captured page exactly once.
    pub pages_hashed: u64,
    /// `RestoreBreakdown::pages_prefetched` summed over traced calls.
    pub pages_prefetched: u64,
}

fn ns(d: SimDuration) -> u64 {
    d.as_nanos()
}

/// The round aggregate a key-value op's busy time belongs to.
fn agg_of(op: &KvOp) -> fn(&mut RoundAggs) -> &mut Agg {
    match op {
        KvOp::Get(_) => |a| &mut a.get,
        KvOp::Set(..) | KvOp::Del(_) => |a| &mut a.set,
    }
}

impl Sut {
    /// Boots a host on a fresh modelled NVMe device with the fixed
    /// settings. `materialize` makes the store write real page bytes
    /// through the device, which `drop_caches` needs.
    pub fn boot(materialize: bool, tracer: Tracer) -> Result<Sut> {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEVICE_BLOCKS));
        let mut host = Host::boot(
            "slsbench",
            dev,
            StoreConfig {
                journal_blocks: JOURNAL_BLOCKS,
                materialize_data: materialize,
                ..StoreConfig::default()
            },
        )?;
        host.sls.flush_workers = WORKERS;
        host.sls.restore_workers = WORKERS;
        Ok(Sut {
            host: Some(host),
            tracer,
            aggs: RoundAggs::default(),
            span_violations: 0,
            metadata_bytes: 0,
            pages_hashed: 0,
            pages_prefetched: 0,
        })
    }

    fn host(&self) -> &Host {
        self.host
            .as_ref()
            .expect("the host is only absent inside crash_and_reboot")
    }

    fn host_mut(&mut self) -> &mut Host {
        self.host
            .as_mut()
            .expect("the host is only absent inside crash_and_reboot")
    }

    /// The virtual instant, in nanoseconds.
    pub fn v_now(&self) -> u64 {
        self.host().clock.now().as_nanos()
    }

    /// Charges client think time to the virtual clock only.
    pub fn think(&mut self, nanos: u64) {
        self.host().clock.charge(SimDuration::from_nanos(nanos));
    }

    /// Opens a benchmark-level span (`bench.round`, `bench.digest`, …).
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Tok {
        let v = self.v_now();
        self.tracer.begin(name, layer, v)
    }

    /// Closes a span at the current virtual instant.
    pub fn end(&mut self, tok: Tok) {
        let v = self.v_now();
        self.tracer.end(tok, v);
    }

    /// Writes the round's aggregates under the innermost open span.
    pub fn flush_aggs(&mut self) {
        let v = self.v_now();
        let a = std::mem::take(&mut self.aggs);
        self.tracer.aggregate("apps.get", "apps", a.get, v);
        self.tracer.aggregate("apps.set", "apps", a.set, v);
        self.tracer.aggregate("vm.mem_write", "vm", a.mem_write, v);
        self.tracer.aggregate("vm.mem_read", "vm", a.mem_read, v);
    }

    // --- apps: key-value server -------------------------------------------

    /// Starts a transparently persisted key-value server.
    pub fn kv_start(&mut self, arena_bytes: u64, buckets: u64) -> Result<Kv> {
        let server = KvServer::start(
            self.host_mut(),
            PersistMode::AuroraTransparent,
            arena_bytes,
            buckets,
        )?;
        Ok(Kv { server })
    }

    /// Re-attaches a driver to a restored server process.
    pub fn kv_attach(&mut self, pid: Pid) -> Result<Kv> {
        let tok = self.begin("apps.attach", "apps");
        let server = KvServer::attach(self.host_mut(), pid, PersistMode::AuroraTransparent);
        self.end(tok);
        Ok(Kv { server: server? })
    }

    /// Executes one op; its busy time goes to the round's `apps.get` /
    /// `apps.set` aggregate.
    pub fn kv_exec(&mut self, kv: &mut Kv, op: &KvOp) -> Result<Option<Vec<u8>>> {
        self.short_call(agg_of(op), |host| kv.server.exec(host, op))
    }

    /// Makes one short call; with tracing on, adds its busy time on both
    /// clocks to the round aggregate `agg` picks.
    fn short_call<R>(
        &mut self,
        agg: fn(&mut RoundAggs) -> &mut Agg,
        call: impl FnOnce(&mut Host) -> R,
    ) -> R {
        if !self.tracer.enabled() {
            return call(self.host_mut());
        }
        let (t0, v0) = (wall_now(), self.v_now());
        let r = call(self.host_mut());
        let (host_ns, v_ns) = (t0.elapsed().as_nanos() as u64, self.v_now() - v0);
        let agg = agg(&mut self.aggs);
        agg.count += 1;
        agg.host_ns += host_ns;
        agg.v_ns += v_ns;
        r
    }

    /// One `Get` outside the aggregates (the oracle's read path).
    pub fn kv_get(&mut self, kv: &mut Kv, key: &[u8]) -> Result<Option<Vec<u8>>> {
        kv.server.exec(self.host_mut(), &KvOp::Get(key.to_vec()))
    }

    // --- posix / vm: raw process memory -----------------------------------

    /// Spawns a process with one anonymous mapping of `bytes`.
    pub fn spawn_arena(&mut self, name: &str, bytes: u64) -> Result<(Pid, u64)> {
        let host = self.host_mut();
        let pid = host.kernel.spawn(name);
        let addr = host.kernel.mmap_anon(pid, bytes, false)?;
        Ok((pid, addr))
    }

    /// Places a process in a new persistence group.
    pub fn persist(&mut self, name: &str, pid: Pid) -> Result<GroupId> {
        self.host_mut().persist(name, pid)
    }

    /// The userspace store instruction.
    pub fn mem_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> Result<()> {
        self.short_call(
            |a| &mut a.mem_write,
            |host| host.kernel.mem_write(pid, addr, data),
        )
    }

    /// The userspace load instruction.
    pub fn mem_read(&mut self, pid: Pid, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.short_call(
            |a| &mut a.mem_read,
            |host| host.kernel.mem_read(pid, addr, buf),
        )
    }

    /// Reads a register of the process's main thread.
    pub fn get_reg(&self, pid: Pid, reg: usize) -> Result<u64> {
        self.host().kernel.get_reg(pid, reg)
    }

    /// Exits and reaps a process.
    pub fn exit(&mut self, pid: Pid) -> Result<()> {
        let host = self.host_mut();
        host.kernel.exit(pid, 0)?;
        host.kernel.procs.remove(&pid);
        Ok(())
    }

    // --- core: checkpoint -------------------------------------------------

    /// `Host::checkpoint` (inline flush accounting).
    pub fn checkpoint(&mut self, gid: GroupId, full: bool, name: Option<&str>) -> Result<Ckpt> {
        let call = self.v_now();
        let tok = self.tracer.begin("core.checkpoint", "core", call);
        match self.host_mut().checkpoint(gid, full, name) {
            Ok(bd) => Ok(self.finish_checkpoint(tok, call, &bd)),
            Err(e) => Err(self.end_failed(tok, e)),
        }
    }

    /// `Host::checkpoint_pipelined` (the fleet scheduler's path).
    pub fn checkpoint_pipelined(
        &mut self,
        gid: GroupId,
        full: bool,
        name: Option<&str>,
    ) -> Result<Ckpt> {
        let call = self.v_now();
        let tok = self.tracer.begin("core.checkpoint", "core", call);
        match self.host_mut().checkpoint_pipelined(gid, full, name) {
            Ok(bd) => Ok(self.finish_checkpoint(tok, call, &bd)),
            Err(e) => Err(self.end_failed(tok, e)),
        }
    }

    /// Closes the span of a call that failed and hands the error back.
    fn end_failed(&mut self, tok: Tok, e: Error) -> Error {
        self.end(tok);
        e
    }

    /// Closes a checkpoint's span at its durable instant and splits it:
    /// queue → barrier → metadata → COW arm → hash → commit. `barrier`,
    /// `commit` and `queue` are the remainders of the stop time, the
    /// flush span and the whole interval.
    fn finish_checkpoint(&mut self, tok: Tok, call: u64, bd: &CheckpointBreakdown) -> Ckpt {
        let committed = bd.outcome.committed();
        let durable_at = if committed {
            bd.durable_at.as_nanos()
        } else {
            self.v_now()
        };
        self.tracer.end(tok, durable_at);
        let total = durable_at.saturating_sub(call);
        let (stop, meta, arm) = (
            ns(bd.stop_time),
            ns(bd.metadata_copy),
            ns(bd.lazy_data_copy),
        );
        let (span, hash) = (ns(bd.flush_span), ns(bd.hash_stage));
        let barrier = stop.checked_sub(meta + arm);
        let commit = span.checked_sub(hash);
        let queue = total.checked_sub(stop + span);
        if barrier.is_none() || commit.is_none() || queue.is_none() {
            self.span_violations += 1;
        }
        if tok.is_some() {
            self.metadata_bytes += bd.metadata_bytes;
            self.pages_hashed += bd.pages;
        }
        if let (Some(barrier), Some(commit), Some(queue)) = (barrier, commit, queue) {
            self.tracer.split(
                tok,
                &[
                    ("core.checkpoint.queue", "core", queue),
                    ("core.checkpoint.barrier", "core", barrier),
                    ("core.serialize.metadata", "core", meta),
                    ("vm.cow_arm", "vm", arm),
                    ("core.flush.hash", "core", hash),
                    ("objstore.commit", "objstore", commit),
                ],
            );
        }
        Ckpt {
            call_ns: call,
            stop_ns: stop,
            durable_at_ns: durable_at,
            pages: bd.pages,
            clean: committed && bd.fault.is_none(),
        }
    }

    /// Advances the virtual clock until `gid`'s checkpoints are durable.
    pub fn wait_durable(&mut self, gid: GroupId) -> Result<()> {
        let tok = self.begin("core.wait_durable", "core");
        let r = self.host_mut().wait_durable(gid);
        self.end(tok);
        r
    }

    /// Waits out every in-flight pipelined flush; returns the faults the
    /// scheduler recorded since the last drain.
    pub fn fleet_drain(&mut self) -> Vec<(u32, String)> {
        let tok = self.begin("core.fleet.drain", "core");
        let faults = self.host_mut().fleet_drain();
        self.end(tok);
        faults
    }

    // --- core: crash, recovery, restore -----------------------------------

    /// Loses the kernel and every unflushed write; recovers the store.
    pub fn crash_and_reboot(&mut self) -> Result<()> {
        let tok = self.begin("core.recover", "core");
        let host = self
            .host
            .take()
            .ok_or_else(|| Error::internal("host already down"))?;
        let clock = host.clock.clone();
        let rebooted = host.crash_and_reboot();
        let v = clock.now().as_nanos();
        self.tracer.end(tok, v);
        self.host = Some(rebooted?);
        Ok(())
    }

    /// Id of the primary store's checkpoint named `name`.
    pub fn checkpoint_named(&self, name: &str) -> Result<CkptId> {
        self.host()
            .sls
            .primary
            .borrow()
            .checkpoint_by_name(name)
            .map(|c| c.id)
            .ok_or_else(|| Error::not_found(format!("checkpoint {name}")))
    }

    /// `Host::restore` from the primary store. The span is split into
    /// object-store read → memory state (read stage, hash stage, wiring)
    /// → metadata state → remainder. Returns the restored root pid.
    pub fn restore(&mut self, ckpt: CkptId, mode: Mode) -> Result<Pid> {
        let call = self.v_now();
        let tok = self.tracer.begin("core.restore", "core", call);
        let store = self.host().sls.primary.clone();
        let r = self.host_mut().restore(&store, ckpt, mode);
        drop(store);
        let bd = match r {
            Ok(bd) => bd,
            Err(e) => return Err(self.end_failed(tok, e)),
        };
        self.finish_restore(tok, call, &bd);
        bd.root_pid()
            .ok_or_else(|| Error::bad_image("restore returned no process"))
    }

    fn finish_restore(&mut self, tok: Tok, call: u64, bd: &RestoreBreakdown) {
        let v = self.v_now();
        self.tracer.end(tok, v);
        let (read, mem, meta) = (
            ns(bd.objstore_read),
            ns(bd.memory_state),
            ns(bd.metadata_state),
        );
        let other = (v - call).checked_sub(read + mem + meta);
        let wire = mem.checked_sub(ns(bd.read_stage) + ns(bd.hash_stage));
        if other.is_none() || wire.is_none() {
            self.span_violations += 1;
        }
        if tok.is_some() {
            self.pages_prefetched += bd.pages_prefetched;
        }
        if let (Some(other), Some(wire)) = (other, wire) {
            let first = self.tracer.split(
                tok,
                &[
                    ("core.restore.objstore_read", "objstore", read),
                    ("core.restore.memory", "core", mem),
                    ("core.restore.metadata", "core", meta),
                    ("core.restore.other", "core", other),
                ],
            );
            self.tracer.split(
                first.map(|f| f + 1),
                &[
                    ("core.restore.read_stage", "objstore", ns(bd.read_stage)),
                    ("core.restore.hash", "core", ns(bd.hash_stage)),
                    ("core.restore.wire", "vm", wire),
                ],
            );
        }
    }

    // --- apps: serverless images ------------------------------------------

    /// Builds and checkpoints a function image, then retires the builder.
    pub fn build_image(
        &mut self,
        name: &str,
        runtime_pages: u64,
        fn_pages: u64,
        fn_seed: u64,
    ) -> Result<FunctionImage> {
        serverless::build_image(self.host_mut(), name, runtime_pages, fn_pages, fn_seed)
    }

    /// The handle of an image built before a reboot: the same
    /// checkpoint, reached through the rebooted host's store. (A crash
    /// requires every older handle to have been dropped.)
    pub fn reopen_image(&self, old: &ImageDesc) -> FunctionImage {
        FunctionImage {
            ckpt: old.ckpt,
            store: self.host().sls.primary.clone(),
            name: old.name.clone(),
            runtime_pages: old.runtime_pages,
            fn_pages: old.fn_pages,
            runtime_addr: old.runtime_addr,
            fn_addr: old.fn_addr,
        }
    }

    /// Starts an instance of `image`.
    pub fn instantiate(&mut self, image: &FunctionImage, mode: Mode) -> Result<Instance> {
        let call = self.v_now();
        let tok = self.tracer.begin("core.restore", "core", call);
        match serverless::instantiate(self.host_mut(), image, mode) {
            Ok((inst, bd)) => {
                self.finish_restore(tok, call, &bd);
                Ok(inst)
            }
            Err(e) => Err(self.end_failed(tok, e)),
        }
    }

    /// Invokes the function once, touching `hot_pages` runtime pages.
    pub fn invoke(&mut self, image: &FunctionImage, inst: Instance, hot_pages: u64) -> Result<u64> {
        let tok = self.begin("apps.invoke", "apps");
        let r = serverless::invoke(self.host_mut(), image, inst, hot_pages);
        self.end(tok);
        r.map(ns)
    }

    /// Tears an instance down.
    pub fn retire(&mut self, inst: Instance) -> Result<()> {
        serverless::retire(self.host_mut(), inst)
    }

    /// Makes the host cold for the image at `ckpt`: forgets its shared
    /// pager and the frames that pager cached.
    pub fn release_image(&mut self, ckpt: CkptId) {
        let store = self.host().sls.primary.clone();
        self.host_mut().release_image(&store, ckpt);
    }

    /// Drops every cached page body of the primary store.
    pub fn drop_caches(&mut self) -> Result<()> {
        self.host().sls.primary.borrow_mut().drop_caches()
    }

    // --- apps: tenant fleet -----------------------------------------------

    /// Starts `n` key-value tenants, one persistence group each.
    pub fn fleet_start(
        &mut self,
        n: usize,
        seed: u64,
        heap_bytes: u64,
        keys: u64,
        value_len: usize,
    ) -> Result<TenantFleet> {
        TenantFleet::start(self.host_mut(), n, seed, heap_bytes, keys, value_len)
    }

    /// Executes one op on tenant `t`.
    pub fn fleet_exec(&mut self, fleet: &mut TenantFleet, t: usize, op: &KvOp) -> Result<()> {
        let tenant = fleet
            .tenants
            .get_mut(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        self.short_call(agg_of(op), |host| tenant.server.exec(host, op).map(|_| ()))
    }

    /// One pipelined incremental checkpoint of tenant `t`, named
    /// `t<index>-r<round>` like `TenantFleet::checkpoint_wave` names it.
    pub fn fleet_checkpoint(
        &mut self,
        fleet: &mut TenantFleet,
        t: usize,
        round: u32,
    ) -> Result<Ckpt> {
        let tenant = fleet
            .tenants
            .get_mut(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        let name = format!("t{}-r{round}", tenant.index);
        let gid = tenant.gid;
        let ck = self.checkpoint_pipelined(gid, false, Some(&name))?;
        if ck.clean {
            if let Some(tenant) = fleet.tenants.get_mut(t) {
                tenant.last_ckpt = name;
            }
        }
        Ok(ck)
    }

    /// Name of tenant `t`'s most recent committed checkpoint.
    pub fn fleet_last_checkpoint(fleet: &TenantFleet, t: usize) -> Result<&str> {
        fleet
            .tenants
            .get(t)
            .map(|tenant| tenant.last_ckpt.as_str())
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))
    }

    /// One `Get` on tenant `t`, outside the aggregates (the oracle's
    /// read path).
    pub fn fleet_get(
        &mut self,
        fleet: &mut TenantFleet,
        t: usize,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        let tenant = fleet
            .tenants
            .get_mut(t)
            .ok_or_else(|| Error::not_found(format!("tenant {t}")))?;
        tenant
            .server
            .exec(self.host_mut(), &KvOp::Get(key.to_vec()))
    }

    // --- objstore: audits and gauges --------------------------------------

    /// Structural audit of the primary store; empty when clean.
    pub fn fsck(&mut self) -> Vec<String> {
        let tok = self.begin("objstore.fsck", "objstore");
        let problems = self.host().sls.primary.borrow().fsck();
        self.end(tok);
        problems
    }

    /// Content-hash audit of the primary store; empty when clean.
    pub fn scrub(&mut self) -> Vec<String> {
        let tok = self.begin("objstore.scrub", "objstore");
        let problems = self.host().sls.primary.borrow().scrub();
        self.end(tok);
        problems
    }

    /// Snapshot of every monotonic counter.
    pub fn counters(&self) -> Counters {
        let host = self.host();
        let store = host.sls.primary.borrow();
        let s = &store.stats;
        let dev = store.device();
        let d = dev.stats();
        let vm = &host.kernel.vm.stats;
        let fleet = &host.sls.fleet.stats;
        Counters {
            pages_written: s.pages_written,
            dedup_hits: s.dedup_hits,
            commits: s.commits,
            compactions: s.compactions,
            gc_runs: s.gc_runs,
            bytes_journaled: s.bytes_journaled,
            extents_coalesced: s.extents_coalesced,
            blocks_coalesced: s.blocks_coalesced,
            read_extents: s.read_extents_coalesced,
            read_cache_hits: s.read_cache_hits,
            read_cache_misses: s.read_cache_misses,
            journal_seals: s.journal_seals,
            extent_barriers: s.extent_barriers,
            superblock_flips: s.superblock_flips,
            delta_records: s.delta_records,
            delta_bytes: s.delta_bytes,
            chains_compacted: s.chains_compacted,
            dev_reads: d.reads,
            dev_writes: d.writes,
            dev_bytes_read: d.bytes_read,
            dev_bytes_written: d.bytes_written,
            dev_flushes: d.flushes,
            cow_faults: vm.cow_faults,
            minor_faults: vm.minor_faults,
            major_faults: vm.major_faults,
            pages_copied: vm.pages_copied,
            pages_armed: vm.pages_armed,
            fleet_admitted: fleet.admitted,
            fleet_overlapped: fleet.overlapped,
            fleet_queue_stalls: fleet.queue_stalls,
            ckpt_degraded: host.sls.stats.checkpoints_degraded,
            ckpt_aborted: host.sls.stats.checkpoints_aborted,
        }
    }

    /// Snapshot of the gauges.
    pub fn gauges(&self) -> Gauges {
        let host = self.host();
        let store = host.sls.primary.borrow();
        Gauges {
            blocks_in_use: store.blocks_in_use(),
            chain_len_max: store.stats.chain_len_max,
            queue_depth_max: host.sls.fleet.stats.queue_depth_max,
        }
    }
}

/// Host cost of single layers' public functions, in isolation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probes {
    /// `PageData::content_hash`, host ns per 4 KiB page.
    pub hash_ns_per_page: f64,
    /// `flush::hash_plan` at the fixed worker count, host ns per page.
    pub hash_plan_ns_per_page: f64,
    /// `write_pages_coalesced` + `commit` on a ramdisk, host µs per 1000
    /// pages.
    pub write_commit_us_per_kpage: f64,
    /// `plan_reads_at` + `execute_read_plan`, host µs per 1000 pages.
    pub read_plan_us_per_kpage: f64,
    /// One 64-block `BlockDev::write_blocks` on the NVMe model, host ns.
    pub dev_write_ns: f64,
}

/// Repetitions per probe; the median is reported.
const PROBE_REPS: usize = 5;

fn median_ns(mut f: impl FnMut() -> Result<u64>) -> Result<f64> {
    let mut v = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        v.push(f()?);
    }
    v.sort_unstable();
    Ok(v.get(PROBE_REPS / 2).copied().unwrap_or(0) as f64)
}

/// Times the five probes on `bodies` (4 KiB each): the same inputs for
/// every workload, so the numbers isolate the layer and not the load.
pub fn run_probes(bodies: &[Vec<u8>]) -> Result<Probes> {
    let n = bodies.len().max(1) as f64;
    let pages: Vec<PageData> = bodies.iter().map(|b| PageData::from_bytes(b)).collect();
    let plan = || -> Vec<flush::PlanPage> {
        pages
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjId(1), i as u64, p.clone()))
            .collect()
    };

    let hash = median_ns(|| {
        let t0 = wall_now();
        let mut acc = 0u64;
        for p in &pages {
            acc ^= p.content_hash();
        }
        std::hint::black_box(acc);
        Ok(t0.elapsed().as_nanos() as u64)
    })?;

    let hash_plan = median_ns(|| {
        let input = plan();
        let t0 = wall_now();
        let out = flush::hash_plan(input, WORKERS);
        let dt = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(out.len());
        Ok(dt)
    })?;

    let mut read_samples = Vec::with_capacity(PROBE_REPS);
    let write_commit = median_ns(|| {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::ramdisk(clock, "probe", 64 * 1024));
        let mut store = ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: 1024,
                ..StoreConfig::default()
            },
        )?;
        store.create_object(ObjId(1), bodies.len() as u64)?;
        let writes: Vec<PageWrite> = flush::hash_plan(plan(), WORKERS);
        let t0 = wall_now();
        store.write_pages_coalesced(&writes)?;
        let (ckpt, _) = store.commit(None)?;
        let dt = t0.elapsed().as_nanos() as u64;

        let targets: Vec<(ObjId, u64)> = (0..bodies.len() as u64).map(|i| (ObjId(1), i)).collect();
        let t1 = wall_now();
        let read_plan = store.plan_reads_at(ckpt, &targets);
        let outcome = store.execute_read_plan(&read_plan)?;
        read_samples.push(t1.elapsed().as_nanos() as u64);
        std::hint::black_box(outcome.pages.len());
        Ok(dt)
    })?;
    read_samples.sort_unstable();
    let read_plan = read_samples.get(PROBE_REPS / 2).copied().unwrap_or(0) as f64;

    let dev_write = median_ns(|| {
        let clock = SimClock::new();
        let mut dev = ModelDev::nvme(clock, "probe", 64 * 1024);
        let extent: Vec<&[u8]> = bodies.iter().take(64).map(Vec::as_slice).collect();
        let calls = 256u64;
        let t0 = wall_now();
        for i in 0..calls {
            let done: SimTime = dev.write_blocks(i * 64, &extent)?;
            std::hint::black_box(done);
        }
        Ok(t0.elapsed().as_nanos() as u64 / calls)
    })?;

    Ok(Probes {
        hash_ns_per_page: hash / n,
        hash_plan_ns_per_page: hash_plan / n,
        write_commit_us_per_kpage: write_commit / n,
        read_plan_us_per_kpage: read_plan / n,
        dev_write_ns: dev_write,
    })
}
