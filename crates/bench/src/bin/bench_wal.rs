//! Delta-log checkpoint benchmark: sub-page records vs full images.
//!
//! Runs a small-value KV churn workload — the regime the per-epoch
//! delta log exists for: every round dirties many pages by a few
//! hundred bytes each — twice, once with the delta path enabled
//! (default policy) and once with it disabled (`delta_max_bytes: 0`,
//! every flushed page is a full 4 KiB image). Emits `BENCH_wal.json`
//! with the incremental flush bytes of both variants, the reduction
//! factor, the delta-record counters, and an FNV digest of the restored
//! KV arena at 1, 2 and 8 restore workers for both variants.
//!
//! Flush bytes are measured in the checkpoint breakdown's own units
//! (full pages × 4096 + encoded delta bytes), so the reduction factor
//! is exactly the device-write footprint the delta path saves.
//!
//! Flags:
//!
//! * `--quick` — smaller workload and fewer rounds (CI smoke).
//! * `--gate <min>` — exit non-zero unless the flush-byte reduction is
//!   ≥ `min` (default 5.0) AND every restored-arena digest — across
//!   worker counts and across the two variants — is byte-identical.
//! * `--out <path>` — output path (default `BENCH_wal.json`, or
//!   `BENCH_wal.quick.json` with `--quick`).

use std::fmt::Write as _;

use aurora_apps::kv::{KvServer, PersistMode};
use aurora_apps::workload::{KeyDist, Workload};
use aurora_core::restore::RestoreMode;
use aurora_core::Host;
use aurora_hw::ModelDev;
use aurora_objstore::{CkptId, StoreConfig};
use aurora_sim::hash::Fnv64;
use aurora_sim::SimClock;
use criterion::wall_now;

/// Restore worker counts the digest sweep runs at.
const RESTORE_WORKERS: [usize; 3] = [1, 2, 8];

struct BenchConfig {
    /// KV arena bytes.
    arena: u64,
    /// Distinct keys in the workload.
    keys: u64,
    /// Value size in bytes (small on purpose: sub-page churn).
    val: usize,
    /// Mutations between checkpoints.
    ops_per_round: u64,
    /// Incremental checkpoint rounds after the full baseline.
    rounds: u32,
}

impl BenchConfig {
    fn standard() -> Self {
        BenchConfig {
            arena: 32 << 20,
            keys: 8 * 1024,
            val: 192,
            ops_per_round: 2048,
            rounds: 6,
        }
    }

    fn quick() -> Self {
        BenchConfig {
            arena: 8 << 20,
            keys: 2 * 1024,
            val: 128,
            ops_per_round: 512,
            rounds: 4,
        }
    }
}

/// Measured numbers for one variant (delta path on or off).
struct VariantResult {
    label: &'static str,
    /// Incremental flush bytes summed across the measured rounds.
    flush_bytes: u64,
    /// Pages handed to the flusher across those rounds.
    pages: u64,
    delta_records: u64,
    delta_bytes: u64,
    chains_compacted: u64,
    chain_len_max: u64,
    /// (restore workers, FNV digest of the restored arena).
    digests: Vec<(usize, u64)>,
}

fn boot(blocks: u64, delta_on: bool) -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", blocks));
    let mut config = StoreConfig {
        journal_blocks: 8 * 1024,
        ..StoreConfig::default()
    };
    if !delta_on {
        config.delta_max_bytes = 0;
    }
    Host::boot("wal-bench", dev, config).expect("host boot")
}

/// FNV-1a digest of the restored KV arena, read page by page through
/// the restored process.
fn arena_digest(host: &mut Host, ckpt: CkptId, arena: u64, workers: usize) -> u64 {
    host.sls.restore_workers = workers;
    let store = host.sls.primary.clone();
    let r = host
        .restore(&store, ckpt, RestoreMode::Eager)
        .expect("restore");
    let np = r.root_pid().expect("restored pid");
    let server =
        KvServer::attach(host, np, PersistMode::AuroraTransparent).expect("attach restored server");
    let base = server.heap_base();
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 4096];
    for p in 0..arena / 4096 {
        host.kernel
            .mem_read(np, base + p * 4096, &mut buf)
            .expect("read arena");
        h.update(&buf);
    }
    let _ = host.kernel.exit(np, 0);
    host.kernel.procs.remove(&np);
    h.finish()
}

/// One full trajectory: load the KV set, take a durable full baseline,
/// then `rounds` churn-and-incremental-checkpoint cycles, measuring the
/// incremental flush footprint; finally digest the restored arena at
/// each worker count.
fn run_variant(cfg: &BenchConfig, delta_on: bool) -> VariantResult {
    let mut host = boot(512 * 1024, delta_on);
    host.sls.flush_workers = 4;
    let mut server = KvServer::start(
        &mut host,
        PersistMode::AuroraTransparent,
        cfg.arena,
        16 * 1024,
    )
    .expect("kv server");
    let gid = server.gid.expect("transparent mode has a group");
    let mut w = Workload::new(42, cfg.keys, cfg.val, 0.0, KeyDist::Zipfian { theta: 0.99 });
    for op in w.load_ops() {
        server.exec(&mut host, &op).expect("load");
    }
    host.checkpoint(gid, true, None).expect("baseline");
    host.wait_durable(gid).expect("durable");

    let mut flush_bytes = 0u64;
    let mut pages = 0u64;
    let mut last = None;
    for round in 0..cfg.rounds {
        for _ in 0..cfg.ops_per_round {
            let op = w.next_op();
            server.exec(&mut host, &op).expect("op");
        }
        let name = format!("round-{round}");
        let bd = host
            .checkpoint(gid, false, Some(&name))
            .expect("incremental checkpoint");
        host.wait_durable(gid).expect("durable");
        flush_bytes += bd.flush_bytes;
        pages += bd.pages;
        last = bd.ckpt;
    }
    let ckpt = last.expect("at least one incremental round");

    let stats = {
        let store = host.sls.primary.borrow();
        (
            store.stats.delta_records,
            store.stats.delta_bytes,
            store.stats.chains_compacted,
            store.stats.chain_len_max,
        )
    };
    let digests = RESTORE_WORKERS
        .iter()
        .map(|&workers| (workers, arena_digest(&mut host, ckpt, cfg.arena, workers)))
        .collect();

    VariantResult {
        label: if delta_on { "delta" } else { "full" },
        flush_bytes,
        pages,
        delta_records: stats.0,
        delta_bytes: stats.1,
        chains_compacted: stats.2,
        chain_len_max: stats.3,
        digests,
    }
}

fn emit_json(delta: &VariantResult, full: &VariantResult, reduction: f64, harness_secs: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"delta_log_checkpoint\",");
    let _ = writeln!(s, "  \"workload\": \"kv_zipfian_small_value_churn\",");
    let _ = writeln!(s, "  \"harness_wall_secs\": {harness_secs:.3},");
    let _ = writeln!(s, "  \"flush_byte_reduction\": {reduction:.3},");
    let _ = writeln!(s, "  \"variants\": [");
    for (i, r) in [delta, full].iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"variant\": \"{}\",", r.label);
        let _ = writeln!(s, "      \"incremental_flush_bytes\": {},", r.flush_bytes);
        let _ = writeln!(s, "      \"pages_flushed\": {},", r.pages);
        let _ = writeln!(s, "      \"delta_records\": {},", r.delta_records);
        let _ = writeln!(s, "      \"delta_bytes\": {},", r.delta_bytes);
        let _ = writeln!(s, "      \"chains_compacted\": {},", r.chains_compacted);
        let _ = writeln!(s, "      \"chain_len_max\": {},", r.chain_len_max);
        let _ = writeln!(s, "      \"restore_digests\": [");
        for (j, (workers, digest)) in r.digests.iter().enumerate() {
            let _ = write!(
                s,
                "        {{ \"workers\": {workers}, \"digest\": \"{digest:#018x}\" }}"
            );
            let _ = writeln!(s, "{}", if j + 1 < r.digests.len() { "," } else { "" });
        }
        let _ = writeln!(s, "      ]");
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i == 0 { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(5.0));
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            // A quick run never overwrites the committed full-run numbers.
            let stem = if quick {
                "BENCH_wal.quick"
            } else {
                "BENCH_wal"
            };
            format!("{stem}.json")
        });
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::standard()
    };

    let t0 = wall_now();
    let delta = run_variant(&cfg, true);
    let full = run_variant(&cfg, false);
    let harness_secs = t0.elapsed().as_secs_f64();

    let reduction = if delta.flush_bytes > 0 {
        full.flush_bytes as f64 / delta.flush_bytes as f64
    } else {
        0.0
    };
    let json = emit_json(&delta, &full, reduction, harness_secs);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_wal: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{json}");

    println!(
        "delta path: {} bytes flushed over {} pages ({} records, {} encoded bytes, longest chain {})",
        delta.flush_bytes, delta.pages, delta.delta_records, delta.delta_bytes, delta.chain_len_max,
    );
    println!(
        "full images: {} bytes flushed over {} pages",
        full.flush_bytes, full.pages,
    );
    println!("flush-byte reduction: {reduction:.2}x");

    // Digest equality is a correctness gate in both directions: worker
    // count must not change the restored bytes, and the delta path must
    // reconstruct exactly what the full-image path stored.
    let reference = delta.digests[0].1;
    let mut digests_ok = true;
    for r in [&delta, &full] {
        for &(workers, digest) in &r.digests {
            if digest != reference {
                eprintln!(
                    "bench_wal: digest divergence: {} at {workers} workers: {digest:#018x} != {reference:#018x}",
                    r.label,
                );
                digests_ok = false;
            }
        }
    }
    if digests_ok {
        println!(
            "restore digests byte-identical at {:?} workers across both variants",
            RESTORE_WORKERS
        );
    }

    if let Some(min) = gate {
        if !digests_ok {
            eprintln!("bench_wal: GATE FAILED: restored-arena digests diverge");
            std::process::exit(1);
        }
        if delta.delta_records == 0 {
            eprintln!("bench_wal: GATE FAILED: delta path never staged a record");
            std::process::exit(1);
        }
        if reduction < min {
            eprintln!("bench_wal: GATE FAILED: flush-byte reduction {reduction:.3} < {min}");
            std::process::exit(1);
        }
        println!("gate passed: reduction {reduction:.3} >= {min}, digests identical");
    }
}
