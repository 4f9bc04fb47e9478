//! Experiment harnesses for every table and figure in the paper.
//!
//! Each function builds the workload from scratch on a fresh simulated
//! host, runs the experiment, and returns the measured (virtual-time)
//! numbers; `src/bin/tables.rs` prints them next to the published values.
//! See `EXPERIMENTS.md` for the paper-vs-measured record and DESIGN.md §5
//! for the cost-model calibration.

use std::cell::RefCell;
use std::rc::Rc;

use aurora_apps::kv::{KvServer, PersistMode};
use aurora_apps::profiles;
use aurora_apps::serverless;
use aurora_apps::workload::{KeyDist, Workload};
use aurora_core::restore::RestoreMode;
use aurora_core::{BackendKind, Host, RestoreBreakdown};
use aurora_hw::{BlockDev, ModelDev};
use aurora_objstore::{ObjectStore, StoreConfig};
use aurora_sim::time::SimDuration;
use aurora_sim::SimClock;
use aurora_slsfs::StoreHandle;

/// Fraction of the 2 GiB working set Redis dirties between incremental
/// checkpoints (calibrated: paper's 711.1 µs of incremental COW arming
/// at ~10 ns/page is ≈71 000 pages of 524 288).
pub const REDIS_DIRTY_FRACTION: f64 = 0.1356;

/// Builds a benchmark host with `blocks` NVMe blocks.
pub fn bench_host(blocks: u64) -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", blocks));
    Host::boot(
        "bench",
        dev,
        StoreConfig {
            journal_blocks: 8 * 1024,
            ..StoreConfig::default()
        },
    )
    .expect("host boot")
}

/// An in-memory (ramdisk) checkpoint backend.
pub fn memory_backend(host: &Host, blocks: u64) -> StoreHandle {
    let dev = Box::new(ModelDev::ramdisk(host.clock.clone(), "md0", blocks));
    let journal = (blocks / 16).clamp(64, 16 * 1024);
    Rc::new(RefCell::new(
        ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: journal,
                ..StoreConfig::default()
            },
        )
        .expect("ram store"),
    ))
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// "Metadata copy".
    pub metadata: SimDuration,
    /// "Lazy data copy" (COW arming).
    pub lazy: SimDuration,
    /// "Application stop time".
    pub stop: SimDuration,
    /// Pages captured.
    pub pages: u64,
}

/// Table 3: checkpoint stop-time breakdown for a Redis-class process.
///
/// Returns `(full, incremental)`.
pub fn table3(data_bytes: u64) -> (Table3Row, Table3Row) {
    // Size the store for the working set plus several incremental epochs.
    let blocks = (data_bytes / 4096) * 3 + 64 * 1024;
    let mut host = bench_host(blocks);
    let profile = profiles::redis_profile(data_bytes);
    let (pid, _client) = profiles::build(&mut host, &profile, 6379).expect("build profile");
    let gid = host.persist("redis", pid).expect("persist");

    // Steady state: one warm-up incremental cycle.
    host.checkpoint(gid, true, None).expect("warmup full");
    host.wait_durable(gid).expect("durable");
    profiles::dirty_data(&mut host, pid, &profile, REDIS_DIRTY_FRACTION).expect("dirty");
    host.checkpoint(gid, false, None).expect("warmup incr");
    host.wait_durable(gid).expect("durable");

    // Full: copy the entire address space.
    profiles::dirty_data(&mut host, pid, &profile, REDIS_DIRTY_FRACTION).expect("dirty");
    let full = host.checkpoint(gid, true, None).expect("full");
    host.wait_durable(gid).expect("durable");

    // Incremental: only the dirty set since the full.
    profiles::dirty_data(&mut host, pid, &profile, REDIS_DIRTY_FRACTION).expect("dirty");
    let incr = host.checkpoint(gid, false, None).expect("incr");

    (
        Table3Row {
            metadata: full.metadata_copy,
            lazy: full.lazy_data_copy,
            stop: full.stop_time,
            pages: full.pages,
        },
        Table3Row {
            metadata: incr.metadata_copy,
            lazy: incr.lazy_data_copy,
            stop: incr.stop_time,
            pages: incr.pages,
        },
    )
}

/// One column of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Col {
    /// Workload + backend label.
    pub label: &'static str,
    /// "Object Store Read".
    pub objstore_read: SimDuration,
    /// "Memory state".
    pub memory: SimDuration,
    /// "Metadata state".
    pub metadata: SimDuration,
    /// "Total latency".
    pub total: SimDuration,
}

fn restore_col(label: &'static str, r: &RestoreBreakdown) -> Table4Col {
    Table4Col {
        label,
        objstore_read: r.objstore_read,
        memory: r.memory_state,
        metadata: r.metadata_state,
        total: r.total,
    }
}

/// Table 4: restore-time breakdowns.
///
/// Returns `[redis/memory, serverless/memory, serverless/disk]`.
pub fn table4(redis_bytes: u64) -> Vec<Table4Col> {
    let mut out = Vec::new();

    // Redis restored from an in-memory image.
    {
        let blocks = (redis_bytes / 4096) * 2 + 64 * 1024;
        let mut host = bench_host(blocks);
        let profile = profiles::redis_profile(redis_bytes);
        let (pid, _client) = profiles::build(&mut host, &profile, 6379).expect("build");
        let gid = host.persist("redis", pid).expect("persist");
        let mem = memory_backend(&host, blocks);
        host.attach_backend(gid, BackendKind::Memory, mem.clone())
            .expect("attach");
        host.checkpoint(gid, true, None).expect("ckpt");
        host.wait_durable(gid).expect("durable");
        let ckpt = mem.borrow().head().expect("mem ckpt");
        let r = host.restore(&mem, ckpt, RestoreMode::Lazy).expect("restore");
        out.push(restore_col("Redis/Memory", &r));
    }

    // Serverless function from memory and from disk.
    {
        let mut host = bench_host(256 * 1024);
        let profile = profiles::serverless_profile();
        let (pid, _client) = profiles::build(&mut host, &profile, 8080).expect("build");
        let gid = host.persist("hello-fn", pid).expect("persist");
        let mem = memory_backend(&host, 64 * 1024);
        host.attach_backend(gid, BackendKind::Memory, mem.clone())
            .expect("attach");
        host.checkpoint(gid, true, None).expect("ckpt");
        host.wait_durable(gid).expect("durable");

        let mem_ckpt = mem.borrow().head().expect("mem ckpt");
        let r = host
            .restore(&mem, mem_ckpt, RestoreMode::Lazy)
            .expect("restore mem");
        out.push(restore_col("Serverless/Memory", &r));

        let disk = host.sls.primary.clone();
        let disk_ckpt = disk.borrow().head().expect("disk ckpt");
        let r = host
            .restore(&disk, disk_ckpt, RestoreMode::Lazy)
            .expect("restore disk");
        out.push(restore_col("Serverless/Disk", &r));
    }
    out
}

/// One row of the checkpoint-frequency sweep (E5).
#[derive(Debug, Clone)]
pub struct FreqRow {
    /// Target period.
    pub period: SimDuration,
    /// Checkpoints achieved in the simulated second.
    pub achieved: u64,
    /// Mean stop time.
    pub mean_stop: SimDuration,
    /// Fraction of runtime spent stopped.
    pub overhead_pct: f64,
    /// Flush backlog at the end (durability lag behind the clock).
    pub backlog: SimDuration,
}

/// E5: checkpoint-frequency sweep over one simulated second.
pub fn freq_sweep(data_bytes: u64, periods_ms: &[u64]) -> Vec<FreqRow> {
    let mut rows = Vec::new();
    for &period_ms in periods_ms {
        let mut host = bench_host(1 << 20);
        let profile = profiles::redis_profile(data_bytes);
        let (pid, _client) = profiles::build(&mut host, &profile, 6379).expect("build");
        let gid = host.persist("redis", pid).expect("persist");
        host.sls.group_mut(gid).expect("group").period = SimDuration::from_millis(period_ms);
        host.sls.group_mut(gid).expect("group").history_window = 8;
        host.checkpoint(gid, true, None).expect("initial full");
        host.wait_durable(gid).expect("durable");

        let start = host.clock.now();
        let end = start + SimDuration::from_secs(1);
        let mut stops = SimDuration::ZERO;
        let mut taken = 0u64;
        // The app dirties ~2% of its data per millisecond of runtime.
        while host.clock.now() < end {
            profiles::dirty_data(&mut host, pid, &profile, 0.02).expect("dirty");
            host.clock.charge(SimDuration::from_millis(1));
            if let Some(bd) = host.checkpoint_tick(gid).expect("tick") {
                stops += bd.stop_time;
                taken += 1;
            }
        }
        let elapsed = host.clock.now().since(start);
        let backlog = host
            .sls
            .group_ref(gid)
            .expect("group")
            .ec_outstanding
            .back()
            .map(|&(_, at)| at.since(host.clock.now()))
            .unwrap_or(SimDuration::ZERO);
        rows.push(FreqRow {
            period: SimDuration::from_millis(period_ms),
            achieved: taken,
            mean_stop: if taken > 0 {
                stops / taken
            } else {
                SimDuration::ZERO
            },
            overhead_pct: 100.0 * stops.as_nanos() as f64 / elapsed.as_nanos() as f64,
            backlog,
        });
    }
    rows
}

/// E6 results: function-image density and mutual warm-up.
#[derive(Debug, Clone)]
pub struct DedupReport {
    /// Store blocks used by the first image.
    pub first_image_blocks: u64,
    /// Marginal blocks per additional image (mean).
    pub marginal_blocks: f64,
    /// Number of images built.
    pub images: u64,
    /// Major faults for the first instance's working set.
    pub first_instance_majors: u64,
    /// Major faults for the second instance touching the same set.
    pub second_instance_majors: u64,
}

/// E6: serverless image density through dedup + instance warm-up.
pub fn dedup_density(images: u64, runtime_pages: u64, fn_pages: u64) -> DedupReport {
    dedup_density_with(true, images, runtime_pages, fn_pages)
}

/// E6 with the content-hash dedup design choice toggleable — the
/// ablation behind the paper's "one order of magnitude lower disk
/// usage" claim for high-density serverless images. The store always
/// deduplicates; with `dedup` off the footprint also counts every write
/// dedup absorbed, each the block a store without dedup would have
/// allocated for it (building an image releases no reference, so none
/// of those blocks would have been freed again).
pub fn dedup_density_with(
    dedup: bool,
    images: u64,
    runtime_pages: u64,
    fn_pages: u64,
) -> DedupReport {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 1 << 20));
    let mut host = Host::boot(
        "bench",
        dev,
        StoreConfig {
            journal_blocks: 8 * 1024,
            ..StoreConfig::default()
        },
    )
    .expect("host boot");
    let footprint = |host: &Host| {
        let store = host.sls.primary.borrow();
        let absorbed = if dedup { 0 } else { store.stats.dedup_hits };
        store.blocks_in_use() + absorbed
    };
    let blocks0 = footprint(&host);
    let mut first_image_blocks = 0;
    let mut last = blocks0;
    let mut image0 = None;
    for i in 0..images {
        let image =
            serverless::build_image(&mut host, &format!("fn-{i}"), runtime_pages, fn_pages, i)
                .expect("image");
        let now = footprint(&host);
        if i == 0 {
            first_image_blocks = now - blocks0;
            image0 = Some(image);
        }
        last = now;
    }
    let marginal = if images > 1 {
        (last - blocks0 - first_image_blocks) as f64 / (images - 1) as f64
    } else {
        0.0
    };

    // Warm-up: two instances of image 0 touch the same pages.
    let image = image0.expect("at least one image");
    let (i1, _) = serverless::instantiate(&mut host, &image, RestoreMode::Lazy).expect("inst");
    let (i2, _) = serverless::instantiate(&mut host, &image, RestoreMode::Lazy).expect("inst");
    let majors0 = host.kernel.vm.stats.major_faults;
    serverless::invoke(&mut host, &image, i1, 32).expect("invoke");
    let majors1 = host.kernel.vm.stats.major_faults;
    serverless::invoke(&mut host, &image, i2, 32).expect("invoke");
    let majors2 = host.kernel.vm.stats.major_faults;

    DedupReport {
        first_image_blocks,
        marginal_blocks: marginal,
        images,
        first_instance_majors: majors1 - majors0,
        second_instance_majors: majors2 - majors1,
    }
}

/// One row of the KV persistence comparison (E7).
#[derive(Debug, Clone)]
pub struct KvPortRow {
    /// Mode label.
    pub label: &'static str,
    /// Virtual time for the mutation phase.
    pub total: SimDuration,
    /// Mean per-mutation latency.
    pub mean_op: SimDuration,
    /// 99th-percentile per-mutation latency.
    pub p99_op: SimDuration,
    /// Longest single stall (fork pause, flush wait).
    pub worst_stall: SimDuration,
}

/// E7: per-mutation cost of each persistence strategy.
pub fn kv_ports(ops: u64) -> Vec<KvPortRow> {
    let configs: Vec<(&'static str, PersistMode)> = vec![
        ("no persistence", PersistMode::None),
        ("fork snapshot (RDB)", PersistMode::ForkSnapshot { every: ops / 4 }),
        ("WAL + fsync (AOF)", PersistMode::WalFsync),
        ("Aurora port (ntflush)", PersistMode::AuroraPort),
        ("Aurora transparent", PersistMode::AuroraTransparent),
    ];
    let mut rows = Vec::new();
    for (label, mode) in configs {
        let mut host = bench_host(512 * 1024);
        let mut server = KvServer::start(&mut host, mode, 64 << 20, 16 * 1024).expect("server");
        let gid = server.gid;
        let mut w = Workload::new(42, 4096, 128, 0.0, KeyDist::Zipfian { theta: 0.99 });
        // Preload outside the measured window.
        for op in w.load_ops() {
            server.exec(&mut host, &op).expect("load");
        }
        if let Some(gid) = gid {
            host.checkpoint(gid, true, None).expect("ckpt");
            host.wait_durable(gid).expect("durable");
        }

        let start = host.clock.now();
        let mut worst = SimDuration::ZERO;
        let mut lat = aurora_sim::stats::LogHistogram::new();
        // Client inter-arrival gap, identical across modes, so periodic
        // (transparent) checkpointing has a timeline to ride on.
        let think = SimDuration::from_micros(100);
        for i in 0..ops {
            let op = w.next_op();
            host.clock.charge(think);
            let t0 = host.clock.now();
            server.exec(&mut host, &op).expect("op");
            // Transparent mode: the SLS checkpoints on its own schedule.
            if mode == PersistMode::AuroraTransparent {
                host.checkpoint_tick(gid.expect("gid")).expect("tick");
            }
            // Aurora port: application checkpoint every quarter.
            if mode == PersistMode::AuroraPort && ops >= 4 && (i + 1) % (ops / 4) == 0 {
                server.aurora_checkpoint(&mut host).expect("app ckpt");
            }
            let op_latency = host.clock.now().since(t0);
            lat.record_duration(op_latency);
            worst = worst.max(op_latency);
        }
        // Report persistence cost: total minus the uniform think time.
        let total = host.clock.now().since(start).saturating_sub(think * ops);
        rows.push(KvPortRow {
            label,
            total,
            mean_op: total / ops,
            p99_op: SimDuration::from_nanos(lat.p99()),
            worst_stall: worst.max(server.snapshot_stalls),
        });
    }
    rows
}

/// One row of the lazy-restore experiment (E9).
#[derive(Debug, Clone)]
pub struct LazyRow {
    /// Restore mode label.
    pub label: &'static str,
    /// Restore call latency.
    pub restore_latency: SimDuration,
    /// Pages paged in during restore.
    pub prefetched: u64,
    /// Major faults while touching the hot set afterwards.
    pub post_majors: u64,
    /// Time to run the post-restore hot-set pass.
    pub first_run: SimDuration,
}

/// E9: eager vs lazy vs prefetch restore for a given image size.
pub fn lazy_restore(data_bytes: u64, hot_pages: u64) -> Vec<LazyRow> {
    let mut rows = Vec::new();
    for (label, mode) in [
        ("eager", RestoreMode::Eager),
        ("lazy", RestoreMode::Lazy),
        ("lazy+prefetch", RestoreMode::LazyPrefetch),
    ] {
        let mut host = bench_host(1 << 20);
        let pid = host.kernel.spawn("lazyapp");
        let addr = host.kernel.mmap_anon(pid, data_bytes, false).expect("map");
        host.kernel
            .mem_touch_seeded(pid, addr, data_bytes, 0x1A2B)
            .expect("touch");
        // Heat the hot set so the image records it.
        let mut buf = [0u8; 8];
        for i in 0..hot_pages {
            for _ in 0..3 {
                host.kernel
                    .mem_read(pid, addr + i * 4096, &mut buf)
                    .expect("read");
            }
        }
        let gid = host.persist("lazyapp", pid).expect("persist");
        let bd = host.checkpoint(gid, true, None).expect("ckpt");
        host.clock.advance_to(bd.durable_at);

        let store = host.sls.primary.clone();
        let t0 = host.clock.now();
        let r = host
            .restore(&store, bd.ckpt.expect("ckpt id"), mode)
            .expect("restore");
        let restore_latency = host.clock.now().since(t0);

        let np = r.root_pid().expect("pid");
        let majors0 = host.kernel.vm.stats.major_faults;
        let t1 = host.clock.now();
        for i in 0..hot_pages {
            host.kernel
                .mem_read(np, addr + i * 4096, &mut buf)
                .expect("read");
        }
        rows.push(LazyRow {
            label,
            restore_latency,
            prefetched: r.pages_prefetched,
            post_majors: host.kernel.vm.stats.major_faults - majors0,
            first_run: host.clock.now().since(t1),
        });
    }
    rows
}

/// E8 results: bounded record/replay.
#[derive(Debug, Clone)]
pub struct RecrepReport {
    /// Total inputs recorded.
    pub inputs: u64,
    /// Checkpoint interval (ops).
    pub interval: u64,
    /// Peak log length between checkpoints.
    pub peak_log: usize,
    /// Whether replay reproduced the pre-crash state exactly.
    pub replay_exact: bool,
}

/// E8: record/replay bounded by the checkpoint interval.
pub fn recrep(inputs: u64, interval: u64) -> RecrepReport {
    use aurora_core::recrep::RecordLog;

    let mut host = bench_host(256 * 1024);
    let mut server = KvServer::start(&mut host, PersistMode::AuroraTransparent, 16 << 20, 4096)
        .expect("server");
    let gid = server.gid.expect("gid");
    let mut log = RecordLog::new();
    let mut w = Workload::new(9, 512, 64, 0.0, KeyDist::Uniform);

    let mut last_ckpt = None;
    for i in 0..inputs {
        let raw = w.next_op().encode();
        let input = log.record(raw);
        let (op, _) = aurora_apps::kv::KvOp::decode(&input).expect("decode");
        server.exec(&mut host, &op).expect("op");
        if (i + 1) % interval == 0 {
            let bd = host.checkpoint(gid, false, None).expect("ckpt");
            log.on_checkpoint(bd.ckpt.expect("id"));
            last_ckpt = bd.ckpt;
        }
    }
    let peak = log.peak_len;
    // "Crash": roll back to the last checkpoint, then replay the log.
    let state_before: u64 = server.len(&mut host).expect("len");
    let ops_before = server.ops_executed(&host);
    let r = host.rollback(gid, last_ckpt).expect("rollback");
    let np = r.root_pid().expect("pid");
    let mut server =
        KvServer::attach(&mut host, np, PersistMode::AuroraTransparent).expect("attach");
    log.begin_replay();
    while log.replaying() {
        let input = log.record(Vec::new());
        if input.is_empty() {
            break;
        }
        let (op, _) = aurora_apps::kv::KvOp::decode(&input).expect("decode");
        server.exec(&mut host, &op).expect("replay op");
    }
    let replay_exact = server.len(&mut host).expect("len") == state_before
        && server.ops_executed(&host) == ops_before;
    RecrepReport {
        inputs,
        interval,
        peak_log: peak,
        replay_exact,
    }
}

/// One row of the live-migration experiment (E10).
#[derive(Debug, Clone)]
pub struct MigrateRow {
    /// Working-set size (bytes).
    pub data_bytes: u64,
    /// Pre-copy rounds (including the final stop round).
    pub rounds: u32,
    /// Bytes over the wire.
    pub total_bytes: u64,
    /// Bytes of the final (stop-and-copy) round.
    pub final_round_bytes: u64,
    /// Source downtime.
    pub downtime: SimDuration,
    /// Destination restore latency.
    pub restore_total: SimDuration,
}

/// E10: live migration downtime vs. working-set size.
///
/// The application keeps dirtying a fixed fraction of its data between
/// rounds (modelled by the checkpoints the migration loop itself takes);
/// downtime should track the *delta* size, not the image size.
pub fn migrate_sweep(sizes: &[u64]) -> Vec<MigrateRow> {
    let mut rows = Vec::new();
    for &data_bytes in sizes {
        let clock = SimClock::new();
        let blocks = (data_bytes / 4096) * 4 + 128 * 1024;
        let src_dev = Box::new(ModelDev::nvme(clock.clone(), "src-nvme", blocks));
        let mut src = Host::boot(
            "src",
            src_dev,
            StoreConfig {
                journal_blocks: 8 * 1024,
                ..StoreConfig::default()
            },
        )
        .expect("src boot");
        let dst_dev = Box::new(ModelDev::nvme(clock.clone(), "dst-nvme", blocks));
        let mut dst = Host::boot(
            "dst",
            dst_dev,
            StoreConfig {
                journal_blocks: 8 * 1024,
                ..StoreConfig::default()
            },
        )
        .expect("dst boot");
        let mut link = aurora_hw::LinkModel::ten_gbe(clock);

        let pid = src.kernel.spawn("migrant");
        let addr = src.kernel.mmap_anon(pid, data_bytes, false).expect("map");
        src.kernel
            .mem_touch_seeded(pid, addr, data_bytes, 0x4D16)
            .expect("touch");
        let gid = src.persist("migrant", pid).expect("persist");

        let stats = aurora_core::migrate::live_migrate(&mut src, &mut dst, gid, &mut link, 6)
            .expect("migrate");
        rows.push(MigrateRow {
            data_bytes,
            rounds: stats.rounds,
            total_bytes: stats.total_bytes,
            final_round_bytes: *stats.round_bytes.last().expect("rounds ran"),
            downtime: stats.downtime,
            restore_total: stats.restore.total,
        });
    }
    rows
}

/// One row of the backend-medium ablation (E11).
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Medium label.
    pub label: &'static str,
    /// Checkpoint stop time (identical across media — the point).
    pub stop: SimDuration,
    /// Lag from barrier exit to durability on this medium.
    pub durability_lag: SimDuration,
    /// ntflush (synchronous log append) latency on this medium.
    pub ntflush: SimDuration,
}

/// E11 (ablation): the same incremental checkpoint against NVMe, NVDIMM
/// and DRAM media — the paper's thesis that modern device latency is
/// what makes SLSes practical, quantified.
pub fn backend_sweep(data_bytes: u64) -> Vec<BackendRow> {
    let mut rows = Vec::new();
    type MakeDev = fn(std::sync::Arc<SimClock>, u64) -> ModelDev;
    let media: Vec<(&'static str, MakeDev)> = vec![
        ("NVMe (Optane-class)", |c, b| ModelDev::nvme(c, "nvme", b)),
        ("NVDIMM", |c, b| ModelDev::nvdimm(c, "nvd", b)),
        ("DRAM (ephemeral)", |c, b| ModelDev::ramdisk(c, "md", b)),
    ];
    for (label, make) in media {
        let clock = SimClock::new();
        let blocks = (data_bytes / 4096) * 3 + 64 * 1024;
        let dev = Box::new(make(clock.clone(), blocks));
        let mut host = Host::boot(
            "media",
            dev,
            StoreConfig {
                journal_blocks: 4 * 1024,
                ..StoreConfig::default()
            },
        )
        .expect("boot");
        let profile = profiles::redis_profile(data_bytes);
        let (pid, _client) = profiles::build(&mut host, &profile, 6379).expect("build");
        let gid = host.persist("media", pid).expect("persist");
        host.checkpoint(gid, true, None).expect("full");
        host.wait_durable(gid).expect("durable");

        profiles::dirty_data(&mut host, pid, &profile, REDIS_DIRTY_FRACTION).expect("dirty");
        let bd = host.checkpoint(gid, false, None).expect("incr");
        let lag = bd.durable_at.since(host.clock.now());

        // ntflush on the same medium, measured on an idle device (the
        // checkpoint's background flush has drained).
        host.wait_durable(gid).expect("durable");
        let (fd, _) = host.ntlog_create(gid, pid).expect("ntlog");
        let t0 = host.clock.now();
        host.sls_ntflush(gid, pid, fd, &[7u8; 256]).expect("flush");
        let ntflush = host.clock.now().since(t0);

        rows.push(BackendRow {
            label,
            stop: bd.stop_time,
            durability_lag: lag,
            ntflush,
        });
    }
    rows
}

/// One row of the stripe-width experiment (E12).
#[derive(Debug, Clone)]
pub struct StripeRow {
    /// Devices in the stripe.
    pub width: usize,
    /// Durability lag of one steady incremental checkpoint.
    pub durability_lag: SimDuration,
    /// Checkpoints achieved in one simulated second at a 1 ms period.
    pub achieved_1khz: u64,
    /// End-of-second flush backlog at that rate.
    pub backlog: SimDuration,
    /// Read stage of an eager restore of the last image: its extents,
    /// submitted back to back, each split across the drives.
    pub restore_read: SimDuration,
}

/// E12 (ablation): striping checkpoints across multiple NVMe drives —
/// the paper's four-Optane testbed and its aggregate-bandwidth thesis.
/// Checkpoint frequency is "bounded by the speed with which Aurora can
/// flush incremental checkpoints"; more spindles raise that bound.
pub fn stripe_sweep(data_bytes: u64, widths: &[usize]) -> Vec<StripeRow> {
    use aurora_hw::StripedDev;
    let mut rows = Vec::new();
    for &width in widths {
        let clock = SimClock::new();
        let per_member = ((data_bytes / 4096) * 4) / width as u64 + 64 * 1024;
        let members: Vec<ModelDev> = (0..width)
            .map(|i| ModelDev::nvme(clock.clone(), &format!("nvme{i}"), per_member))
            .collect();
        let dev = Box::new(StripedDev::new(members));
        let mut host = Host::boot(
            "stripe",
            dev,
            StoreConfig {
                journal_blocks: 8 * 1024,
                ..StoreConfig::default()
            },
        )
        .expect("boot");
        let profile = profiles::redis_profile(data_bytes);
        let (pid, _client) = profiles::build(&mut host, &profile, 6379).expect("build");
        let gid = host.persist("stripe", pid).expect("persist");
        host.sls.group_mut(gid).expect("group").period = SimDuration::from_millis(1);
        host.sls.group_mut(gid).expect("group").history_window = 8;
        host.checkpoint(gid, true, None).expect("full");
        host.wait_durable(gid).expect("durable");

        // One steady incremental: how long until durable?
        profiles::dirty_data(&mut host, pid, &profile, REDIS_DIRTY_FRACTION).expect("dirty");
        let bd = host.checkpoint(gid, false, None).expect("incr");
        let lag = bd.durable_at.since(host.clock.now());
        host.wait_durable(gid).expect("durable");

        // One simulated second at a 1 ms period with a heavy dirty rate.
        let start = host.clock.now();
        let end = start + SimDuration::from_secs(1);
        let mut taken = 0u64;
        while host.clock.now() < end {
            profiles::dirty_data(&mut host, pid, &profile, 0.05).expect("dirty");
            host.clock.charge(SimDuration::from_millis(1));
            if host.checkpoint_tick(gid).expect("tick").is_some() {
                taken += 1;
            }
        }
        let backlog = host
            .sls
            .group_ref(gid)
            .expect("group")
            .ec_outstanding
            .back()
            .map(|&(_, at)| at.since(host.clock.now()))
            .unwrap_or(SimDuration::ZERO);

        // Read the last image back: each extent of the plan splits
        // across the drives' queues, so reads aggregate bandwidth too.
        host.wait_durable(gid).expect("durable");
        let store = host.sls.primary.clone();
        let head = store.borrow().head().expect("head");
        let restored = host
            .restore(&store, head, RestoreMode::Eager)
            .expect("restore");
        rows.push(StripeRow {
            width,
            durability_lag: lag,
            achieved_1khz: taken,
            backlog,
            restore_read: restored.read_stage,
        });
    }
    rows
}

/// Figure 1 self-check: every pictured component exists and is wired.
pub fn fig1_selfcheck() -> Vec<(&'static str, bool)> {
    let mut host = bench_host(64 * 1024);
    let pid = host.kernel.spawn("probe");
    let mut checks: Vec<(&'static str, bool)> = Vec::new();

    // Userspace: application + libsls entry points (Table 2 API).
    checks.push(("application processes (POSIX kernel)", host.kernel.procs.len() == 1));
    let addr = host.kernel.mmap_anon(pid, 4096, false).is_ok();
    checks.push(("virtual memory subsystem", addr));
    let gid = host.persist("probe", pid);
    checks.push(("SLS orchestrator (persist/ioctl path)", gid.is_ok()));
    let gid = gid.expect("persist");
    checks.push((
        "libsls API (sls_checkpoint)",
        host.sls_checkpoint(gid, Some("probe")).is_ok(),
    ));
    checks.push((
        "SLS file system (mounted at /sls)",
        host.kernel.open(pid, "/sls/fig1", true).is_ok(),
    ));
    checks.push((
        "object store (checkpoints on NVMe model)",
        host.sls.primary.borrow().checkpoints().len() == 1,
    ));
    // IPC / socket / VFS / process / thread object columns.
    checks.push(("IPC objects (pipes)", host.kernel.pipe(pid).is_ok()));
    checks.push((
        "socket objects (TCP/IP)",
        host.kernel.tcp_listen(pid, 9999).is_ok(),
    ));
    checks.push((
        "first-class SysV shm objects",
        host.kernel.shmget(1, 4096).is_ok(),
    ));
    // Hardware row: NVMe (primary), NVDIMM, memory backend, NIC.
    checks.push((
        "NVMe backend device",
        host.sls.primary.borrow().device().info().persistent,
    ));
    let clock = host.clock.clone();
    let nvdimm = ModelDev::nvdimm(clock.clone(), "nvd0", 1024);
    checks.push(("NVDIMM device model", nvdimm.info().persistence_domain));
    let mem = memory_backend(&host, 1024);
    checks.push((
        "memory (ephemeral) backend",
        host.attach_backend(gid, BackendKind::Memory, mem).is_ok(),
    ));
    checks.push((
        "NIC / network backend (10 GbE link model)",
        aurora_hw::LinkModel::ten_gbe(clock).bandwidth > 0,
    ));
    checks
}

impl RecrepReport {
    /// True when the log stayed bounded by the interval.
    pub fn bounded(&self) -> bool {
        self.peak_log as u64 <= self.interval
    }
}

/// Formats a virtual duration like the paper (microseconds, one decimal).
pub fn us(d: SimDuration) -> String {
    format!("{:.1}", d.as_micros_f64())
}
