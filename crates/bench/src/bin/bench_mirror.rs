//! Mirror benchmark: what replication costs when healthy and what it
//! saves when a replica dies.
//!
//! Builds the same checkpointed workload on an unmirrored store and on
//! width-2 / width-3 mirrors, then measures checkpoint flush and eager
//! restore latency in two regimes per mirror:
//!
//! * **healthy** — every replica active: writes fan out to all of them
//!   (the steady-state price of redundancy), reads come from the
//!   preferred replica.
//! * **degraded** — replica 0 killed: writes fan to the survivors and
//!   the checkpoint commits with a `DegradedMirror` outcome, restores
//!   fail over to a healthy twin.
//!
//! After the degraded rounds the dead replica is revived and the
//! background resilver is timed rebuilding it from the live allocation
//! maps, ending with a fully `Committed` checkpoint.
//!
//! Everything is measured in **virtual time** (modeled NVMe latency and
//! bandwidth charged to the simulation clock), so the numbers are
//! deterministic and machine-independent. Emits `BENCH_mirror.json`.
//!
//! Flags:
//!
//! * `--quick` — smaller image and fewer rounds (CI smoke).
//! * `--gate` — exit non-zero unless degraded checkpoints keep at least
//!   85% of the same mirror's healthy throughput, the resilver moves
//!   real blocks, and the first post-resilver checkpoint commits clean.
//! * `--out <path>` — output path (default `BENCH_mirror.json`).

use std::fmt::Write as _;

use aurora_core::restore::RestoreMode;
use aurora_core::{CheckpointOutcome, Host};
use aurora_hw::{BlockDev, ModelDev};
use aurora_objstore::{CkptId, StoreConfig};
use aurora_sim::stats::LogHistogram;
use aurora_sim::SimClock;
use criterion::wall_now;

/// Mirror widths swept; width 1 is the unmirrored reference.
const WIDTHS: [usize; 3] = [1, 2, 3];

struct BenchConfig {
    /// Pages in the checkpointed image.
    pages: u64,
    /// Checkpoint rounds per regime.
    ckpt_rounds: u32,
    /// Cold eager restores per regime.
    restore_rounds: u32,
}

impl BenchConfig {
    fn standard() -> Self {
        BenchConfig {
            pages: 768,
            ckpt_rounds: 4,
            restore_rounds: 4,
        }
    }

    fn quick() -> Self {
        BenchConfig {
            pages: 192,
            ckpt_rounds: 2,
            restore_rounds: 2,
        }
    }
}

/// Measured numbers for one (width, regime) row.
struct RegimeResult {
    width: usize,
    state: &'static str,
    ckpt_pages_per_sec: f64,
    ckpt_p50_us: f64,
    ckpt_p99_us: f64,
    restore_pages_per_sec: f64,
    restore_p50_us: f64,
    restore_p99_us: f64,
    degraded_commits: u32,
    failovers: u64,
    degraded_writes: u64,
}

/// Resilver numbers for one mirror width.
struct ResilverResult {
    width: usize,
    secs: f64,
    blocks: u64,
    extents: u64,
    post_outcome_clean: bool,
}

/// Boots a width-`width` world (unmirrored when 1) with `pages` written
/// pages, persisted and durably checkpointed once as the baseline.
fn build_world(
    cfg: &BenchConfig,
    width: usize,
) -> (Host, aurora_posix::Pid, u64, aurora_core::GroupId) {
    let clock = SimClock::new();
    let blocks = cfg.pages * 8 + 64 * 1024;
    let config = StoreConfig {
        journal_blocks: 8 * 1024,
        materialize_data: true,
        ..StoreConfig::default()
    };
    let mut host = if width == 1 {
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", blocks));
        Host::boot("mirror-bench", dev, config).expect("host boot")
    } else {
        let members: Vec<Box<dyn BlockDev>> = (0..width)
            .map(|i| {
                Box::new(ModelDev::nvme(clock.clone(), &format!("nvme{i}"), blocks))
                    as Box<dyn BlockDev>
            })
            .collect();
        Host::boot_mirrored("mirror-bench", members, config).expect("host boot")
    };
    let pid = host.kernel.spawn("image");
    let addr = host
        .kernel
        .mmap_anon(pid, cfg.pages * 4096, false)
        .expect("map");
    for p in 0..cfg.pages {
        let seed = if p % 8 == 7 { p / 8 } else { p };
        let body = [(seed % 249) as u8 + 1; 48];
        host.kernel
            .mem_write(pid, addr + p * 4096, &body)
            .expect("write");
    }
    let gid = host.persist("image", pid).expect("persist");
    let bd = host.checkpoint(gid, true, Some("base")).expect("ckpt");
    host.clock.advance_to(bd.durable_at);
    (host, pid, addr, gid)
}

/// One cold eager restore round at 4 workers: drop every cache, restore,
/// touch every page, retire the instance. Returns the virtual span.
fn restore_round(host: &mut Host, cfg: &BenchConfig, addr: u64, ckpt: CkptId) -> f64 {
    let store = host.sls.primary.clone();
    host.release_image(&store, ckpt);
    store.borrow_mut().drop_caches().expect("drop caches");
    let t0 = host.clock.now();
    let r = host
        .restore(&store, ckpt, RestoreMode::Eager)
        .expect("restore");
    let np = r.root_pid().expect("pid");
    let mut buf = [0u8; 8];
    for p in 0..cfg.pages {
        host.kernel
            .mem_read(np, addr + p * 4096, &mut buf)
            .expect("touch");
    }
    let span = host.clock.now().since(t0).as_secs_f64();
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    span
}

/// Mirror stat snapshot (failovers, degraded writes); zeros when
/// unmirrored.
fn mirror_stats(host: &Host) -> (u64, u64) {
    let st = host.sls.primary.borrow();
    let dev = st.device();
    match dev.as_mirror() {
        Some(m) => {
            let s = m.mirror_stats();
            (s.failovers, s.degraded_writes)
        }
        None => (0, 0),
    }
}

/// One regime at a fixed width: `ckpt_rounds` full dirty checkpoints,
/// then `restore_rounds` cold eager restores of the last image.
fn run_regime(
    host: &mut Host,
    cfg: &BenchConfig,
    width: usize,
    state: &'static str,
    pid: aurora_posix::Pid,
    addr: u64,
    gid: aurora_core::GroupId,
) -> RegimeResult {
    let (fail0, degw0) = mirror_stats(host);
    let mut pages = 0u64;
    let mut flush_secs = 0f64;
    let mut flush_lat = LogHistogram::new();
    let mut degraded_commits = 0u32;
    let mut last_ckpt = None;
    for r in 0..cfg.ckpt_rounds {
        // Dirty every page so each flush moves the whole image.
        for p in 0..cfg.pages {
            let salt = [r as u8 + 1, (p % 247) as u8, 0xA5];
            host.kernel
                .mem_write(pid, addr + p * 4096 + 8, &salt)
                .expect("dirty");
        }
        let bd = host.checkpoint(gid, true, None).expect("checkpoint");
        assert!(bd.outcome.committed(), "checkpoint must commit in {state}");
        if bd.outcome == CheckpointOutcome::DegradedMirror {
            degraded_commits += 1;
        }
        host.clock.advance_to(bd.durable_at);
        pages += bd.pages;
        flush_secs += bd.flush_span.as_secs_f64();
        flush_lat.record_duration(bd.flush_span);
        last_ckpt = bd.ckpt;
    }
    let ckpt = last_ckpt.expect("durable checkpoint id");

    let mut restore_secs = 0f64;
    let mut restore_lat = LogHistogram::new();
    for _ in 0..cfg.restore_rounds {
        let secs = restore_round(host, cfg, addr, ckpt);
        restore_secs += secs;
        restore_lat.record_duration(aurora_sim::time::SimDuration::from_nanos(
            (secs * 1e9) as u64,
        ));
    }

    let (fail1, degw1) = mirror_stats(host);
    RegimeResult {
        width,
        state,
        ckpt_pages_per_sec: if flush_secs > 0.0 {
            pages as f64 / flush_secs
        } else {
            0.0
        },
        ckpt_p50_us: flush_lat.p50() as f64 / 1_000.0,
        ckpt_p99_us: flush_lat.p99() as f64 / 1_000.0,
        restore_pages_per_sec: cfg.pages as f64 * cfg.restore_rounds as f64 / restore_secs,
        restore_p50_us: restore_lat.p50() as f64 / 1_000.0,
        restore_p99_us: restore_lat.p99() as f64 / 1_000.0,
        degraded_commits,
        failovers: fail1 - fail0,
        degraded_writes: degw1 - degw0,
    }
}

/// Full sweep for one width: healthy regime, then (mirrors only) kill
/// replica 0, degraded regime, revive, timed resilver and a clean
/// closing checkpoint.
fn run_width(
    cfg: &BenchConfig,
    width: usize,
) -> (Vec<RegimeResult>, Option<ResilverResult>) {
    let (mut host, pid, addr, gid) = build_world(cfg, width);
    let mut rows = vec![run_regime(&mut host, cfg, width, "healthy", pid, addr, gid)];
    if width == 1 {
        return (rows, None);
    }

    {
        let mut st = host.sls.primary.borrow_mut();
        let m = st.device_mut().as_mirror_mut().expect("mirror");
        m.kill_replica(0).expect("kill replica 0");
    }
    rows.push(run_regime(&mut host, cfg, width, "degraded", pid, addr, gid));

    {
        let mut st = host.sls.primary.borrow_mut();
        let m = st.device_mut().as_mirror_mut().expect("mirror");
        m.revive_replica(0).expect("revive replica 0");
    }
    let t0 = host.clock.now();
    let rep = host.resilver().expect("resilver");
    let secs = host.clock.now().since(t0).as_secs_f64();

    // The rebuilt mirror must checkpoint clean again.
    for p in 0..cfg.pages {
        host.kernel
            .mem_write(pid, addr + p * 4096 + 8, &[0xEE])
            .expect("dirty");
    }
    let bd = host.checkpoint(gid, true, None).expect("closing checkpoint");
    host.clock.advance_to(bd.durable_at);
    let resilver = ResilverResult {
        width,
        secs,
        blocks: rep.blocks,
        extents: rep.extents,
        post_outcome_clean: bd.outcome == CheckpointOutcome::Committed,
    };
    (rows, Some(resilver))
}

fn emit_json(
    cfg: &BenchConfig,
    rows: &[RegimeResult],
    resilvers: &[ResilverResult],
    harness_secs: f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"mirror\",");
    let _ = writeln!(
        s,
        "  \"workload\": \"full_dirty_checkpoints_and_cold_eager_restores\","
    );
    let _ = writeln!(s, "  \"time_domain\": \"virtual\",");
    let _ = writeln!(s, "  \"image_pages\": {},", cfg.pages);
    let _ = writeln!(s, "  \"harness_wall_secs\": {harness_secs:.3},");
    let _ = writeln!(s, "  \"variants\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"width\": {},", r.width);
        let _ = writeln!(s, "      \"state\": \"{}\",", r.state);
        let _ = writeln!(s, "      \"ckpt_pages_per_sec\": {:.1},", r.ckpt_pages_per_sec);
        let _ = writeln!(s, "      \"ckpt_p50_us\": {:.1},", r.ckpt_p50_us);
        let _ = writeln!(s, "      \"ckpt_p99_us\": {:.1},", r.ckpt_p99_us);
        let _ = writeln!(
            s,
            "      \"restore_pages_per_sec\": {:.1},",
            r.restore_pages_per_sec
        );
        let _ = writeln!(s, "      \"restore_p50_us\": {:.1},", r.restore_p50_us);
        let _ = writeln!(s, "      \"restore_p99_us\": {:.1},", r.restore_p99_us);
        let _ = writeln!(s, "      \"degraded_commits\": {},", r.degraded_commits);
        let _ = writeln!(s, "      \"failovers\": {},", r.failovers);
        let _ = writeln!(s, "      \"degraded_writes\": {}", r.degraded_writes);
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"resilver\": [");
    for (i, r) in resilvers.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"width\": {},", r.width);
        let _ = writeln!(s, "      \"virtual_secs\": {:.6},", r.secs);
        let _ = writeln!(s, "      \"blocks_copied\": {},", r.blocks);
        let _ = writeln!(s, "      \"extents_copied\": {},", r.extents);
        let _ = writeln!(
            s,
            "      \"post_resilver_checkpoint_clean\": {}",
            r.post_outcome_clean
        );
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < resilvers.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_mirror.json".to_string());
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::standard()
    };

    let t0 = wall_now();
    let mut rows = Vec::new();
    let mut resilvers = Vec::new();
    for width in WIDTHS {
        let (mut r, resilver) = run_width(&cfg, width);
        rows.append(&mut r);
        resilvers.extend(resilver);
    }
    let harness_secs = t0.elapsed().as_secs_f64();
    let json = emit_json(&cfg, &rows, &resilvers, harness_secs);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_mirror: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{json}");

    for r in &rows {
        println!(
            "width={} {}: ckpt {:.0} pages/sec p50 {:.0}us p99 {:.0}us, \
             restore {:.0} pages/sec p50 {:.0}us, {} degraded commits, \
             {} failovers, {} degraded writes",
            r.width,
            r.state,
            r.ckpt_pages_per_sec,
            r.ckpt_p50_us,
            r.ckpt_p99_us,
            r.restore_pages_per_sec,
            r.restore_p50_us,
            r.degraded_commits,
            r.failovers,
            r.degraded_writes,
        );
    }
    for r in &resilvers {
        println!(
            "width={} resilver: {} blocks in {} extents over {:.3} virtual ms, clean close: {}",
            r.width,
            r.blocks,
            r.extents,
            r.secs * 1e3,
            r.post_outcome_clean,
        );
    }

    if gate {
        let mut failed = false;
        for width in [2usize, 3] {
            let healthy = rows
                .iter()
                .find(|r| r.width == width && r.state == "healthy")
                .expect("healthy row");
            let degraded = rows
                .iter()
                .find(|r| r.width == width && r.state == "degraded")
                .expect("degraded row");
            if degraded.ckpt_pages_per_sec < 0.85 * healthy.ckpt_pages_per_sec {
                eprintln!(
                    "bench_mirror: GATE FAILED: width-{width} degraded ckpt {:.0} pages/sec \
                     below 85% of healthy {:.0}",
                    degraded.ckpt_pages_per_sec, healthy.ckpt_pages_per_sec
                );
                failed = true;
            }
            if degraded.degraded_commits == 0 {
                eprintln!(
                    "bench_mirror: GATE FAILED: width-{width} degraded rounds never \
                     reported DegradedMirror"
                );
                failed = true;
            }
        }
        for r in &resilvers {
            if r.blocks == 0 {
                eprintln!(
                    "bench_mirror: GATE FAILED: width-{} resilver moved no blocks",
                    r.width
                );
                failed = true;
            }
            if !r.post_outcome_clean {
                eprintln!(
                    "bench_mirror: GATE FAILED: width-{} post-resilver checkpoint \
                     still degraded",
                    r.width
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("gate passed: degraded keeps >=85% of healthy, resilver rebuilds and closes clean");
    }
}
