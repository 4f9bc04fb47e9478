//! Fleet-scheduler benchmark: serialized vs pipelined tenant cycles.
//!
//! Runs a fleet of independent KV tenants — one persistence group each
//! — through repeated rounds of mutate-then-checkpoint at 1, 4 and 16
//! concurrent tenants, twice per fleet size: once with every cycle
//! serialized behind `wait_durable` (the old global-barrier behavior,
//! where no tenant's capture starts until the previous tenant's flush
//! is durable) and once through the fleet scheduler, where only the
//! short stop-the-group capture serializes per group and tenant A's
//! flush overlaps tenant B's capture. Emits `BENCH_fleet.json` with
//! aggregate checkpoints/sec, per-tenant stop-time percentiles, and
//! the cold→warm restore latency after a crash.
//!
//! All throughput and latency figures are **virtual time**: the spans
//! charged to the simulation clock, deterministic and independent of
//! the harness machine. Wall time (harness runtime only) is read
//! through `criterion_shim::wall_now`, the workspace's single
//! sanctioned wall-clock site.
//!
//! Flags:
//!
//! * `--quick` — smaller workload and fewer rounds (CI smoke).
//! * `--gate` — exit non-zero unless (a) the pipelined 16-tenant p99
//!   stop time stays within 10% of the single-tenant serialized p99
//!   (pipelining must not stretch the stop window), and (b) the
//!   blast-radius run's healthy-tenant stop p99 with one poisoned
//!   tenant stays within 25% of the all-healthy baseline (quarantine
//!   must confine the damage). The pipelined ÷ serialized aggregate is
//!   reported and not gated: it measures how much of a serialized cycle
//!   is flush the scheduler can overlap, so a faster flush lowers it.
//! * `--out <path>` — output path (default `BENCH_fleet.json`, or
//!   `BENCH_fleet.quick.json` with `--quick`).
//!
//! The **blast-radius** pair runs a pipelined fleet on isolated
//! per-tenant stores twice: once all-healthy, once with tenant 0's
//! device poisoned by latency spikes that bust every cycle deadline.
//! Both runs measure stop-time percentiles over the *healthy* tenants
//! only (tenant 0 is excluded from the histogram in both runs, so the
//! comparison is apples-to-apples); the poisoned run additionally
//! reports the quarantine counters.

use std::fmt::Write as _;

use aurora_apps::pool::TenantFleet;
use aurora_bench::bench_host;
use aurora_core::fleet::QUARANTINE_AFTER;
use aurora_core::restore::RestoreMode;
use aurora_core::Host;
use aurora_hw::FaultPlan;
use aurora_sim::stats::LogHistogram;
use criterion::wall_now;

/// Fleet sizes swept.
const TENANTS: [usize; 3] = [1, 4, 16];

/// Master seed: tenant `i` derives its op stream via `tenant_seed`.
const SEED: u64 = 42;

struct BenchConfig {
    /// Heap bytes per tenant server.
    heap: u64,
    /// Distinct keys per tenant.
    keys: u64,
    /// Value size in bytes (page-scale: the resident set is large, so
    /// each full checkpoint's flush dominates the cycle).
    val: usize,
    /// Mutations per tenant between checkpoints.
    ops_per_wake: usize,
    /// Measured checkpoint rounds per fleet size.
    rounds: u32,
}

impl BenchConfig {
    fn standard() -> Self {
        BenchConfig {
            heap: 8 << 20,
            keys: 2048,
            val: 1024,
            ops_per_wake: 32,
            rounds: 4,
        }
    }

    fn quick() -> Self {
        BenchConfig {
            heap: 2 << 20,
            keys: 512,
            val: 1024,
            ops_per_wake: 16,
            rounds: 3,
        }
    }
}

/// Measured numbers for one (fleet size, mode) cell.
struct ModeResult {
    checkpoints: u64,
    elapsed_secs: f64,
    ckpts_per_sec: f64,
    stop_p50_us: f64,
    stop_p99_us: f64,
    restore_p50_us: f64,
    restore_p99_us: f64,
    overlapped: u64,
    queue_stalls: u64,
}

/// One full trajectory: build the fleet, run `rounds` full-width
/// mutate-and-checkpoint waves, then crash and measure each tenant's
/// cold→warm restore. `pipelined` selects the scheduler path; the
/// serialized reference waits out each tenant's durability before the
/// next tenant's capture begins.
fn run_fleet(cfg: &BenchConfig, n: usize, pipelined: bool) -> ModeResult {
    let mut host = bench_host(512 * 1024);
    let mut fleet =
        TenantFleet::start(&mut host, n, SEED, cfg.heap, cfg.keys, cfg.val).expect("fleet");

    let t0 = host.clock.now();
    let mut stop = LogHistogram::new();
    let mut checkpoints = 0u64;
    for round in 0..cfg.rounds {
        let wave: Vec<usize> = (0..n).collect();
        for &t in &wave {
            fleet.touch(&mut host, t, cfg.ops_per_wake).expect("touch");
        }
        for &t in &wave {
            let name = format!("t{}-r{round}", fleet.tenants[t].index);
            let gid = fleet.tenants[t].gid;
            // Full checkpoints keep the flush plan large (the whole
            // resident set is hashed; dedup absorbs the unchanged
            // pages) — the regime where serializing whole cycles on
            // the old global barrier hurt most.
            let bd = if pipelined {
                host.checkpoint_pipelined(gid, true, Some(&name))
            } else {
                host.checkpoint(gid, true, Some(&name))
            }
            .expect("checkpoint");
            if !pipelined {
                host.wait_durable(gid).expect("durable");
            }
            stop.record_duration(bd.stop_time);
            checkpoints += 1;
            if bd.outcome.committed() {
                fleet.tenants[t].last_ckpt = name;
            }
        }
    }
    if pipelined {
        host.fleet_drain();
    }
    let elapsed = host.clock.now().since(t0).as_secs_f64();
    let overlapped = host.sls.fleet.stats.overlapped;
    let queue_stalls = host.sls.fleet.stats.queue_stalls;

    // Cold→warm: every tenant restores from its last checkpoint on the
    // rebooted host; the span is the full page-in to a runnable process.
    let mut host = host.crash_and_reboot().expect("reboot");
    let mut restore = LogHistogram::new();
    for t in 0..n {
        let r0 = host.clock.now();
        let pid = restore_last(&mut host, &fleet, t);
        restore.record_duration(host.clock.now().since(r0));
        let _ = host.kernel.exit(pid, 0);
        host.kernel.procs.remove(&pid);
    }

    ModeResult {
        checkpoints,
        elapsed_secs: elapsed,
        ckpts_per_sec: if elapsed > 0.0 {
            checkpoints as f64 / elapsed
        } else {
            0.0
        },
        stop_p50_us: stop.p50() as f64 / 1_000.0,
        stop_p99_us: stop.p99() as f64 / 1_000.0,
        restore_p50_us: restore.p50() as f64 / 1_000.0,
        restore_p99_us: restore.p99() as f64 / 1_000.0,
        overlapped,
        queue_stalls,
    }
}

/// Tenants in each blast-radius run.
const BLAST_TENANTS: usize = 8;

/// Healthy-tenant numbers from one blast-radius run.
struct BlastResult {
    healthy_checkpoints: u64,
    healthy_stop_p50_us: f64,
    healthy_stop_p99_us: f64,
    quarantines: u64,
    readmissions: u64,
    cycles_skipped: u64,
}

/// Runs `BLAST_TENANTS` tenants on isolated per-tenant stores through
/// pipelined full-checkpoint waves. With `poison`, tenant 0's device
/// stalls every write past the cycle deadline, so it degrades and
/// quarantines; the histogram covers only tenants `1..n` in both runs.
fn run_blast(cfg: &BenchConfig, poison: bool) -> BlastResult {
    let n = BLAST_TENANTS;
    // Enough rounds to cross the quarantine threshold and then skip.
    let rounds = cfg.rounds.max(QUARANTINE_AFTER + 2);
    let mut host = bench_host(512 * 1024);
    let mut fleet =
        TenantFleet::start(&mut host, n, SEED, cfg.heap, cfg.keys, cfg.val).expect("fleet");
    fleet.isolate(&mut host).expect("isolate");
    let gid0 = fleet.tenants[0].gid;
    if poison {
        let store0 = fleet.tenants[0].store.clone().expect("isolated store");
        let deadline = host.sls.fleet.cycle_deadline;
        store0
            .borrow_mut()
            .device_mut()
            .install_fault_plan(FaultPlan::latency_spike(
                1,
                1_000_000,
                deadline.as_nanos() * 4,
            ));
    }

    let mut stop = LogHistogram::new();
    let mut healthy_checkpoints = 0u64;
    for round in 0..rounds {
        let wave: Vec<usize> = (0..n).collect();
        for &t in &wave {
            fleet.touch(&mut host, t, cfg.ops_per_wake).expect("touch");
        }
        for &t in &wave {
            let name = format!("bt{}-r{round}", fleet.tenants[t].index);
            let gid = fleet.tenants[t].gid;
            let result = host.checkpoint_pipelined(gid, true, Some(&name));
            if t == 0 {
                // The poisoned tenant's outcome (miss, quarantine skip)
                // is tracked by its fault domain, not the histogram.
                continue;
            }
            let bd = result.expect("healthy tenant checkpoint");
            assert!(bd.outcome.committed(), "healthy tenant must commit");
            stop.record_duration(bd.stop_time);
            healthy_checkpoints += 1;
        }
    }
    host.fleet_drain();
    let d = host.tenant_domain(gid0);
    if poison {
        assert!(d.quarantines > 0, "poisoned tenant must quarantine");
    }
    BlastResult {
        healthy_checkpoints,
        healthy_stop_p50_us: stop.p50() as f64 / 1_000.0,
        healthy_stop_p99_us: stop.p99() as f64 / 1_000.0,
        quarantines: d.quarantines,
        readmissions: d.readmissions,
        cycles_skipped: d.cycles_skipped,
    }
}

/// Restores tenant `t`'s most recent checkpoint and returns the
/// restored root pid (the caller tears it down).
fn restore_last(host: &mut Host, fleet: &TenantFleet, t: usize) -> aurora_posix::Pid {
    let store = host.sls.primary.clone();
    let want = fleet.tenants[t].last_ckpt.as_str();
    let id = store
        .borrow()
        .checkpoints()
        .iter()
        .find(|c| c.name.as_deref() == Some(want))
        .map(|c| c.id)
        .expect("tenant checkpoint survived");
    let r = host.restore(&store, id, RestoreMode::Eager).expect("restore");
    r.root_pid().expect("root pid")
}

fn emit_mode(s: &mut String, label: &str, r: &ModeResult, trailing_comma: bool) {
    let _ = writeln!(s, "      \"{label}\": {{");
    let _ = writeln!(s, "        \"checkpoints\": {},", r.checkpoints);
    let _ = writeln!(s, "        \"elapsed_secs\": {:.6},", r.elapsed_secs);
    let _ = writeln!(s, "        \"ckpts_per_sec\": {:.1},", r.ckpts_per_sec);
    let _ = writeln!(s, "        \"stop_p50_us\": {:.1},", r.stop_p50_us);
    let _ = writeln!(s, "        \"stop_p99_us\": {:.1},", r.stop_p99_us);
    let _ = writeln!(s, "        \"restore_p50_us\": {:.1},", r.restore_p50_us);
    let _ = writeln!(s, "        \"restore_p99_us\": {:.1},", r.restore_p99_us);
    let _ = writeln!(s, "        \"overlapped_cycles\": {},", r.overlapped);
    let _ = writeln!(s, "        \"queue_stalls\": {}", r.queue_stalls);
    let _ = writeln!(s, "      }}{}", if trailing_comma { "," } else { "" });
}

fn emit_blast(s: &mut String, label: &str, r: &BlastResult, trailing_comma: bool) {
    let _ = writeln!(s, "    \"{label}\": {{");
    let _ = writeln!(s, "      \"healthy_checkpoints\": {},", r.healthy_checkpoints);
    let _ = writeln!(s, "      \"healthy_stop_p50_us\": {:.1},", r.healthy_stop_p50_us);
    let _ = writeln!(s, "      \"healthy_stop_p99_us\": {:.1},", r.healthy_stop_p99_us);
    let _ = writeln!(s, "      \"quarantines\": {},", r.quarantines);
    let _ = writeln!(s, "      \"readmissions\": {},", r.readmissions);
    let _ = writeln!(s, "      \"cycles_skipped\": {}", r.cycles_skipped);
    let _ = writeln!(s, "    }}{}", if trailing_comma { "," } else { "" });
}

/// Healthy-tenant p99 ratio of the poisoned run over the baseline.
fn blast_ratio(baseline: &BlastResult, poisoned: &BlastResult) -> f64 {
    if baseline.healthy_stop_p99_us > 0.0 {
        poisoned.healthy_stop_p99_us / baseline.healthy_stop_p99_us
    } else {
        0.0
    }
}

fn emit_json(
    results: &[(usize, ModeResult, ModeResult)],
    blast: &(BlastResult, BlastResult),
    harness_secs: f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"fleet_scheduler\",");
    let _ = writeln!(s, "  \"workload\": \"kv_tenant_fleet_full_checkpoints\",");
    let _ = writeln!(s, "  \"time_domain\": \"virtual\",");
    let _ = writeln!(s, "  \"harness_wall_secs\": {harness_secs:.3},");
    let _ = writeln!(s, "  \"fleets\": [");
    for (i, (n, ser, pipe)) in results.iter().enumerate() {
        let speedup = if ser.ckpts_per_sec > 0.0 {
            pipe.ckpts_per_sec / ser.ckpts_per_sec
        } else {
            0.0
        };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"tenants\": {n},");
        let _ = writeln!(s, "      \"aggregate_speedup\": {speedup:.3},");
        emit_mode(&mut s, "serialized", ser, true);
        emit_mode(&mut s, "pipelined", pipe, false);
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let (baseline, poisoned) = blast;
    let _ = writeln!(s, "  \"blast_radius\": {{");
    let _ = writeln!(s, "    \"tenants\": {BLAST_TENANTS},");
    let _ = writeln!(
        s,
        "    \"healthy_p99_ratio\": {:.3},",
        blast_ratio(baseline, poisoned)
    );
    emit_blast(&mut s, "baseline", baseline, true);
    emit_blast(&mut s, "poisoned", poisoned, false);
    let _ = writeln!(s, "  }}");
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
        .unwrap_or_else(|| {
            // A quick run never overwrites the committed full-run numbers.
            let stem = if quick {
                "BENCH_fleet.quick"
            } else {
                "BENCH_fleet"
            };
            format!("{stem}.json")
        });
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::standard()
    };

    let t0 = wall_now();
    let results: Vec<(usize, ModeResult, ModeResult)> = TENANTS
        .iter()
        .map(|&n| {
            let ser = run_fleet(&cfg, n, false);
            let pipe = run_fleet(&cfg, n, true);
            (n, ser, pipe)
        })
        .collect();
    let blast = (run_blast(&cfg, false), run_blast(&cfg, true));
    let harness_secs = t0.elapsed().as_secs_f64();

    let json = emit_json(&results, &blast, harness_secs);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_fleet: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{json}");

    for (n, ser, pipe) in &results {
        println!(
            "tenants={n}: serialized {:.0} ckpts/sec, pipelined {:.0} ckpts/sec ({:.2}x), \
             stop p99 {:.0}us -> {:.0}us, restore p99 {:.0}us, {} overlapped",
            ser.ckpts_per_sec,
            pipe.ckpts_per_sec,
            if ser.ckpts_per_sec > 0.0 {
                pipe.ckpts_per_sec / ser.ckpts_per_sec
            } else {
                0.0
            },
            ser.stop_p99_us,
            pipe.stop_p99_us,
            pipe.restore_p99_us,
            pipe.overlapped,
        );
    }
    println!(
        "blast radius ({} tenants, 1 poisoned): healthy stop p99 {:.1}us baseline -> {:.1}us \
         poisoned ({:.3}x); poisoned tenant: {} quarantines, {} re-admissions, {} skipped",
        BLAST_TENANTS,
        blast.0.healthy_stop_p99_us,
        blast.1.healthy_stop_p99_us,
        blast_ratio(&blast.0, &blast.1),
        blast.1.quarantines,
        blast.1.readmissions,
        blast.1.cycles_skipped,
    );

    if gate {
        let single_serial_p99 = results
            .iter()
            .find(|(n, _, _)| *n == 1)
            .map(|(_, ser, _)| ser.stop_p99_us)
            .unwrap_or(0.0);
        let Some((_, _, pipe16)) = results.iter().find(|(n, _, _)| *n == 16) else {
            eprintln!("bench_fleet: GATE FAILED: no 16-tenant row");
            std::process::exit(1);
        };
        let p99_cap = single_serial_p99 * 1.10;
        if pipe16.stop_p99_us > p99_cap {
            eprintln!(
                "bench_fleet: GATE FAILED: pipelined 16-tenant stop p99 {:.1}us exceeds \
                 single-tenant serialized p99 {:.1}us by more than 10%",
                pipe16.stop_p99_us, single_serial_p99
            );
            std::process::exit(1);
        }
        let ratio = blast_ratio(&blast.0, &blast.1);
        if ratio > 1.25 {
            eprintln!(
                "bench_fleet: GATE FAILED: healthy-tenant stop p99 with a poisoned tenant \
                 ({:.1}us) exceeds the all-healthy baseline ({:.1}us) by more than 25% \
                 ({ratio:.3}x)",
                blast.1.healthy_stop_p99_us, blast.0.healthy_stop_p99_us
            );
            std::process::exit(1);
        }
        println!(
            "gate passed: 16-tenant stop p99 {:.1}us <= {:.1}us, \
             blast-radius healthy p99 ratio {ratio:.3} <= 1.25",
            pipe16.stop_p99_us, p99_cap
        );
    }
}
