//! The metric and workload tables, and how each value is computed.
//!
//! `BENCHMARK.json` lists the same names, units, directions and bounds; a
//! unit test keeps the two in step. End-to-end metrics come from the
//! untraced run and have a regression bound. Per-layer metrics come from
//! the traced run: counter deltas over the traced rounds of the timed
//! region, and sums over the spans recorded in the same rounds.

use crate::stats::{self, Block};
use crate::sut::{Counters, Gauges, Probes};
use crate::trace::{Totals, Tracer};
use crate::workloads::Recorder;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The modelled Aurora: deterministic for fixed work.
    Virtual,
    /// The simulator's cost on this machine.
    Host,
    /// A count or a ratio of counts.
    Count,
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
    }
}

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kv_churn",
        "steady state: a KV server checkpointed at 100 Hz; few dirty pages, so the delta log and the stop-time path dominate",
    ),
    (
        "bulk_flush",
        "whole-page rewrites of 13.56% of a 128 MiB arena per checkpoint; hashing, dedup, coalescing and write bandwidth dominate",
    ),
    (
        "cold_start",
        "lazy restores of deduplicated function images after a reboot; the read planner, read cache, pager and device reads dominate",
    ),
    (
        "fleet_16",
        "16 tenants on one store checkpointed in pipelined waves; admission, hash lanes, the commit lock and per-tenant flips dominate",
    ),
];

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: [Def; 12] = [
    e2e("stop_us_mean", "us", Lower, Virtual, 0.03),
    e2e("stop_us_p90", "us", Lower, Virtual, 0.03),
    e2e("durable_us_mean", "us", Lower, Virtual, 0.12),
    e2e("durable_us_p90", "us", Lower, Virtual, 0.12),
    e2e("restore_us_mean", "us", Lower, Virtual, 0.08),
    e2e("flush_pages_per_vsec", "pages/s", Higher, Virtual, 0.10),
    e2e("write_amp", "ratio", Lower, Count, 0.10),
    e2e("space_amp", "ratio", Lower, Count, 0.08),
    e2e("wall_rounds_per_s", "rounds/s", Higher, Host, 0.25),
    e2e("wall_s", "s", Lower, Host, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, Host, 0.10),
    e2e("setup_s", "s", Lower, Host, 0.25),
];

/// Per-layer metrics, reported with `--trace 1` on every workload.
pub const PER_LAYER: [Def; 92] = [
    layer("apps.ops", "count", Higher, Count),
    layer("apps.get_wall_ns", "ns", Lower, Host),
    layer("apps.set_wall_ns", "ns", Lower, Host),
    layer("apps.invoke_wall_us", "us", Lower, Host),
    layer("vm.pages_armed", "count", Lower, Count),
    layer("vm.cow_faults", "count", Lower, Count),
    layer("vm.pages_copied", "count", Lower, Count),
    layer("vm.cow_arm_vus", "us", Lower, Virtual),
    layer("vm.major_faults", "count", Lower, Count),
    layer("vm.minor_faults", "count", Lower, Count),
    layer("vm.fault_vus", "us", Lower, Virtual),
    layer("vm.mem_write_wall_ns", "ns", Lower, Host),
    layer("vm.mem_read_wall_ns", "ns", Lower, Host),
    layer("core.serialize.metadata_vus", "us", Lower, Virtual),
    layer("core.serialize.metadata_bytes", "bytes", Lower, Count),
    layer("core.checkpoint.calls", "count", Higher, Count),
    layer("core.checkpoint.wall_us", "us", Lower, Host),
    layer("core.checkpoint.stop_vus", "us", Lower, Virtual),
    layer("core.checkpoint.barrier_vus", "us", Lower, Virtual),
    layer("core.checkpoint.queue_vus", "us", Lower, Virtual),
    layer("core.checkpoint.degraded", "count", Lower, Count),
    layer("core.checkpoint.aborted", "count", Lower, Count),
    layer("core.flush.hash_vus", "us", Lower, Virtual),
    layer("core.flush.pages_hashed", "count", Lower, Count),
    layer("core.flush.pages_hashed_per_ckpt", "pages", Lower, Count),
    layer("core.flush.span_vus", "us", Lower, Virtual),
    layer("core.flush.hash_share", "ratio", Lower, Virtual),
    layer("core.restore.calls", "count", Higher, Count),
    layer("core.restore.wall_us", "us", Lower, Host),
    layer("core.restore.objstore_read_vus", "us", Lower, Virtual),
    layer("core.restore.memory_vus", "us", Lower, Virtual),
    layer("core.restore.metadata_vus", "us", Lower, Virtual),
    layer("core.restore.read_stage_vus", "us", Lower, Virtual),
    layer("core.restore.hash_vus", "us", Lower, Virtual),
    layer("core.restore.pages_prefetched", "count", Lower, Count),
    layer("core.restore.eager_vus_p50", "us", Lower, Virtual),
    layer("core.fleet.admitted", "count", Higher, Count),
    layer("core.fleet.overlapped", "count", Higher, Count),
    layer("core.fleet.overlap_ratio", "ratio", Higher, Count),
    layer("core.fleet.queue_stalls", "count", Lower, Count),
    layer("core.fleet.queue_depth_max", "count", Lower, Count),
    layer("core.fleet.drain_wall_us", "us", Lower, Host),
    layer("core.recover.wall_ms", "ms", Lower, Host),
    layer("core.recover.vus", "us", Lower, Virtual),
    layer("objstore.pages_written", "count", Lower, Count),
    layer("objstore.dedup_hits", "count", Higher, Count),
    layer("objstore.dedup_ratio", "ratio", Higher, Count),
    layer("objstore.extents_coalesced", "count", Lower, Count),
    layer("objstore.blocks_per_extent", "blocks", Higher, Count),
    layer("objstore.commit_vus", "us", Lower, Virtual),
    layer("objstore.commits", "count", Lower, Count),
    layer("objstore.journal_seals", "count", Lower, Count),
    layer("objstore.extent_barriers", "count", Lower, Count),
    layer("objstore.superblock_flips", "count", Lower, Count),
    layer("objstore.flips_per_ckpt", "ratio", Lower, Count),
    layer("objstore.bytes_journaled", "bytes", Lower, Count),
    layer("objstore.gc_runs", "count", Lower, Count),
    layer("objstore.compactions", "count", Lower, Count),
    layer("objstore.delta_records", "count", Higher, Count),
    layer("objstore.delta_bytes", "bytes", Lower, Count),
    layer("objstore.chain_len_max", "count", Lower, Count),
    layer("objstore.chains_compacted", "count", Lower, Count),
    layer("objstore.read_cache_hits", "count", Higher, Count),
    layer("objstore.read_cache_misses", "count", Lower, Count),
    layer("objstore.read_cache_hit_ratio", "ratio", Higher, Count),
    layer("objstore.read_extents", "count", Lower, Count),
    layer("objstore.blocks_in_use", "blocks", Lower, Count),
    layer("objstore.fsck_wall_ms", "ms", Lower, Host),
    layer("objstore.scrub_wall_ms", "ms", Lower, Host),
    layer("hw.writes", "count", Lower, Count),
    layer("hw.bytes_written", "bytes", Lower, Count),
    layer("hw.bytes_per_write", "bytes", Higher, Count),
    layer("hw.flushes", "count", Lower, Count),
    layer("hw.flushes_per_ckpt", "ratio", Lower, Count),
    layer("hw.reads", "count", Lower, Count),
    layer("hw.bytes_read", "bytes", Lower, Count),
    layer("sim.hash_wall_ns_per_page", "ns", Lower, Host),
    layer("core.flush.hash_plan_wall_ns_per_page", "ns", Lower, Host),
    layer("objstore.write_commit_wall_us_per_kpage", "us", Lower, Host),
    layer("objstore.read_plan_wall_us_per_kpage", "us", Lower, Host),
    layer("hw.write_blocks_wall_ns", "ns", Lower, Host),
    layer("wall_ops_per_s", "ops/s", Higher, Host),
    layer("wall_ckpt_pages_per_s", "pages/s", Higher, Host),
    layer("wall_restore_pages_per_s", "pages/s", Higher, Host),
    layer("bench.rounds", "count", Higher, Count),
    layer("bench.timed_rounds", "count", Higher, Host),
    layer("bench.spans", "count", Lower, Count),
    layer("bench.span_violations", "count", Lower, Count),
    layer("bench.gen_s", "s", Lower, Host),
    layer("bench.gen_share_pct", "%", Lower, Host),
    layer("bench.digest_wall_ms", "ms", Lower, Host),
    layer("bench.trace_overhead_pct", "%", Lower, Host),
];

/// Whether `workload`'s rounds produce the samples of end-to-end metric
/// `metric`. Where they do not, the value comes from the recovery drill
/// alone (one checkpoint on `cold_start`, one restore on `kv_churn` and
/// `bulk_flush`): the result line must carry every metric on every
/// workload, but `--compare` reports such a pair as information and
/// never as a regression.
pub fn in_rounds(metric: &str, workload: &str) -> bool {
    match metric {
        "stop_us_mean"
        | "stop_us_p90"
        | "durable_us_mean"
        | "durable_us_p90"
        | "flush_pages_per_vsec"
        | "write_amp" => workload != "cold_start",
        "restore_us_mean" => matches!(workload, "cold_start" | "fleet_16"),
        _ => true,
    }
}

/// Round id stamped on the recovery drill's spans.
pub const DRILL_ROUND: u32 = u32::MAX;

/// Host-side measurements of one run.
#[derive(Debug, Default)]
pub struct HostSide {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// One entry per block of the throughput phase run without tracing.
    pub plain_blocks: Vec<Block>,
    /// One entry per block run with tracing on.
    pub traced_blocks: Vec<Block>,
    /// Host nanoseconds spent generating inputs, both phases.
    pub gen_ns: u64,
    /// Host nanoseconds of both phases' rounds, generation included.
    pub loop_ns: u64,
    /// Rounds of the fixed-work phase.
    pub rounds: u64,
    /// Rounds the fixed-time phase got through.
    pub timed_rounds: u64,
    /// Host seconds of the fixed-work phase and its recovery drill.
    pub wall_s: f64,
    /// `VmHWM`, MiB.
    pub peak_rss_mb: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn mean_us(samples: &[u64]) -> f64 {
    stats::mean(samples).map_or(0.0, |ns| ns / 1e3)
}

fn pct_us(samples: &[u64], p: f64) -> f64 {
    stats::percentile(&stats::sorted(samples), p).map_or(0.0, us)
}

/// Work per host second: the quartiles of the rates of nine segments of
/// `blocks`; the median is the reported value.
pub fn segment_quartiles(blocks: &[Block]) -> (f64, f64, f64) {
    stats::quartiles(&stats::segment_rates(blocks, 9)).unwrap_or((0.0, 0.0, 0.0))
}

/// The end-to-end values, named, in [`END_TO_END`] order.
pub fn end_to_end(rec: &Recorder, host: &HostSide) -> Vec<(&'static str, f64)> {
    let (_, rounds_per_s, _) = segment_quartiles(&host.plain_blocks);
    vec![
        ("stop_us_mean", mean_us(&rec.stop_ns)),
        ("stop_us_p90", pct_us(&rec.stop_ns, 90.0)),
        ("durable_us_mean", mean_us(&rec.durable_ns)),
        ("durable_us_p90", pct_us(&rec.durable_ns, 90.0)),
        ("restore_us_mean", mean_us(&rec.restore_ns)),
        (
            "flush_pages_per_vsec",
            ratio(rec.pages_captured as f64, rec.makespan_ns as f64 / 1e9),
        ),
        (
            "write_amp",
            ratio(rec.dev_bytes_written as f64, rec.app_bytes as f64),
        ),
        ("space_amp", rec.space_amp),
        ("wall_rounds_per_s", rounds_per_s),
        ("wall_s", host.wall_s),
        ("peak_rss_mb", host.peak_rss_mb),
        ("setup_s", stats::median(&host.setup_s).unwrap_or(0.0)),
    ]
}

/// What the traced run gathered besides the recorder.
pub struct LayerInputs<'a> {
    /// Counter deltas summed over the traced rounds of the timed region.
    pub counters: &'a Counters,
    /// Gauges at the end of the timed region.
    pub gauges: &'a Gauges,
    /// The spans.
    pub tracer: &'a Tracer,
    /// `metadata_bytes` summed over traced checkpoints.
    pub metadata_bytes: u64,
    /// Pages captured, and so hashed, by traced checkpoints.
    pub pages_hashed: u64,
    /// `pages_prefetched` summed over traced restores.
    pub pages_prefetched: u64,
    /// Negative remainders met while synthesising spans.
    pub span_violations: u64,
    /// The five probes.
    pub probes: &'a Probes,
}

/// The per-layer values, named, in [`PER_LAYER`] order.
pub fn per_layer(
    rec: &Recorder,
    host: &HostSide,
    inp: &LayerInputs<'_>,
) -> Vec<(&'static str, f64)> {
    let c = inp.counters;
    let timed = |name: &str| inp.tracer.totals_where(name, |round| round != DRILL_ROUND);
    let drill = |name: &str| inp.tracer.totals_where(name, |round| round == DRILL_ROUND);
    let mean_host_ns = |t: Totals| ratio(t.host_ns as f64, t.count as f64);
    let (get, set, invoke) = (timed("apps.get"), timed("apps.set"), timed("apps.invoke"));
    let (mem_write, mem_read) = (timed("vm.mem_write"), timed("vm.mem_read"));
    let ckpt = timed("core.checkpoint");
    let (barrier, meta, arm) = (
        timed("core.checkpoint.barrier"),
        timed("core.serialize.metadata"),
        timed("vm.cow_arm"),
    );
    let (hash, commit) = (timed("core.flush.hash"), timed("objstore.commit"));
    let restore = timed("core.restore");
    let first_op = timed("bench.restore_to_first_op");
    let eager_first_op = timed("bench.eager_restore_to_first_op");
    let recover = drill("core.recover");
    let calls = ckpt.count as f64;
    let op_host_ns = get.host_ns + set.host_ns + mem_write.host_ns + invoke.host_ns;
    let ops = get.count + set.count + mem_write.count + invoke.count;
    let restore_pages = inp.pages_prefetched + c.major_faults + c.minor_faults;
    let (_, plain_rate, _) = segment_quartiles(&host.plain_blocks);
    let (_, traced_rate, _) = segment_quartiles(&host.traced_blocks);
    vec![
        ("apps.ops", ops as f64),
        ("apps.get_wall_ns", mean_host_ns(get)),
        ("apps.set_wall_ns", mean_host_ns(set)),
        (
            "apps.invoke_wall_us",
            ratio(us(invoke.host_ns), invoke.count as f64),
        ),
        ("vm.pages_armed", c.pages_armed as f64),
        ("vm.cow_faults", c.cow_faults as f64),
        ("vm.pages_copied", c.pages_copied as f64),
        ("vm.cow_arm_vus", us(arm.v_ns)),
        ("vm.major_faults", c.major_faults as f64),
        ("vm.minor_faults", c.minor_faults as f64),
        ("vm.fault_vus", us(invoke.v_ns)),
        ("vm.mem_write_wall_ns", mean_host_ns(mem_write)),
        ("vm.mem_read_wall_ns", mean_host_ns(mem_read)),
        ("core.serialize.metadata_vus", us(meta.v_ns)),
        ("core.serialize.metadata_bytes", inp.metadata_bytes as f64),
        ("core.checkpoint.calls", calls),
        ("core.checkpoint.wall_us", us(ckpt.host_ns)),
        (
            "core.checkpoint.stop_vus",
            us(barrier.v_ns + meta.v_ns + arm.v_ns),
        ),
        ("core.checkpoint.barrier_vus", us(barrier.v_ns)),
        (
            "core.checkpoint.queue_vus",
            us(timed("core.checkpoint.queue").v_ns),
        ),
        ("core.checkpoint.degraded", c.ckpt_degraded as f64),
        ("core.checkpoint.aborted", c.ckpt_aborted as f64),
        ("core.flush.hash_vus", us(hash.v_ns)),
        ("core.flush.pages_hashed", inp.pages_hashed as f64),
        (
            "core.flush.pages_hashed_per_ckpt",
            ratio(inp.pages_hashed as f64, calls),
        ),
        ("core.flush.span_vus", us(hash.v_ns + commit.v_ns)),
        (
            "core.flush.hash_share",
            ratio(hash.v_ns as f64, ckpt.v_ns as f64),
        ),
        ("core.restore.calls", restore.count as f64),
        ("core.restore.wall_us", us(restore.host_ns)),
        (
            "core.restore.objstore_read_vus",
            us(timed("core.restore.objstore_read").v_ns),
        ),
        (
            "core.restore.memory_vus",
            us(timed("core.restore.memory").v_ns),
        ),
        (
            "core.restore.metadata_vus",
            us(timed("core.restore.metadata").v_ns),
        ),
        (
            "core.restore.read_stage_vus",
            us(timed("core.restore.read_stage").v_ns),
        ),
        ("core.restore.hash_vus", us(timed("core.restore.hash").v_ns)),
        ("core.restore.pages_prefetched", inp.pages_prefetched as f64),
        (
            "core.restore.eager_vus_p50",
            pct_us(&rec.eager_restore_ns, 50.0),
        ),
        ("core.fleet.admitted", c.fleet_admitted as f64),
        ("core.fleet.overlapped", c.fleet_overlapped as f64),
        (
            "core.fleet.overlap_ratio",
            ratio(c.fleet_overlapped as f64, c.fleet_admitted as f64),
        ),
        ("core.fleet.queue_stalls", c.fleet_queue_stalls as f64),
        (
            "core.fleet.queue_depth_max",
            inp.gauges.queue_depth_max as f64,
        ),
        (
            "core.fleet.drain_wall_us",
            us(timed("core.fleet.drain").host_ns + drill("core.fleet.drain").host_ns),
        ),
        ("core.recover.wall_ms", recover.host_ns as f64 / 1e6),
        ("core.recover.vus", us(recover.v_ns)),
        ("objstore.pages_written", c.pages_written as f64),
        ("objstore.dedup_hits", c.dedup_hits as f64),
        (
            "objstore.dedup_ratio",
            ratio(c.dedup_hits as f64, c.pages_written as f64),
        ),
        ("objstore.extents_coalesced", c.extents_coalesced as f64),
        (
            "objstore.blocks_per_extent",
            ratio(c.blocks_coalesced as f64, c.extents_coalesced as f64),
        ),
        ("objstore.commit_vus", us(commit.v_ns)),
        ("objstore.commits", c.commits as f64),
        ("objstore.journal_seals", c.journal_seals as f64),
        ("objstore.extent_barriers", c.extent_barriers as f64),
        ("objstore.superblock_flips", c.superblock_flips as f64),
        (
            "objstore.flips_per_ckpt",
            ratio(c.superblock_flips as f64, calls),
        ),
        ("objstore.bytes_journaled", c.bytes_journaled as f64),
        ("objstore.gc_runs", c.gc_runs as f64),
        ("objstore.compactions", c.compactions as f64),
        ("objstore.delta_records", c.delta_records as f64),
        ("objstore.delta_bytes", c.delta_bytes as f64),
        ("objstore.chain_len_max", inp.gauges.chain_len_max as f64),
        ("objstore.chains_compacted", c.chains_compacted as f64),
        ("objstore.read_cache_hits", c.read_cache_hits as f64),
        ("objstore.read_cache_misses", c.read_cache_misses as f64),
        (
            "objstore.read_cache_hit_ratio",
            ratio(
                c.read_cache_hits as f64,
                (c.read_cache_hits + c.read_cache_misses) as f64,
            ),
        ),
        ("objstore.read_extents", c.read_extents as f64),
        ("objstore.blocks_in_use", inp.gauges.blocks_in_use as f64),
        (
            "objstore.fsck_wall_ms",
            drill("objstore.fsck").host_ns as f64 / 1e6,
        ),
        (
            "objstore.scrub_wall_ms",
            drill("objstore.scrub").host_ns as f64 / 1e6,
        ),
        ("hw.writes", c.dev_writes as f64),
        ("hw.bytes_written", c.dev_bytes_written as f64),
        (
            "hw.bytes_per_write",
            ratio(c.dev_bytes_written as f64, c.dev_writes as f64),
        ),
        ("hw.flushes", c.dev_flushes as f64),
        ("hw.flushes_per_ckpt", ratio(c.dev_flushes as f64, calls)),
        ("hw.reads", c.dev_reads as f64),
        ("hw.bytes_read", c.dev_bytes_read as f64),
        ("sim.hash_wall_ns_per_page", inp.probes.hash_ns_per_page),
        (
            "core.flush.hash_plan_wall_ns_per_page",
            inp.probes.hash_plan_ns_per_page,
        ),
        (
            "objstore.write_commit_wall_us_per_kpage",
            inp.probes.write_commit_us_per_kpage,
        ),
        (
            "objstore.read_plan_wall_us_per_kpage",
            inp.probes.read_plan_us_per_kpage,
        ),
        ("hw.write_blocks_wall_ns", inp.probes.dev_write_ns),
        ("wall_ops_per_s", ratio(ops as f64, op_host_ns as f64 / 1e9)),
        (
            "wall_ckpt_pages_per_s",
            ratio(c.pages_armed as f64, ckpt.host_ns as f64 / 1e9),
        ),
        (
            "wall_restore_pages_per_s",
            ratio(
                restore_pages as f64,
                (first_op.host_ns + eager_first_op.host_ns) as f64 / 1e9,
            ),
        ),
        ("bench.rounds", host.rounds as f64),
        ("bench.timed_rounds", host.timed_rounds as f64),
        ("bench.spans", inp.tracer.spans().len() as f64),
        ("bench.span_violations", inp.span_violations as f64),
        ("bench.gen_s", host.gen_ns as f64 / 1e9),
        (
            "bench.gen_share_pct",
            100.0 * ratio(host.gen_ns as f64, host.loop_ns as f64),
        ),
        (
            "bench.digest_wall_ms",
            drill("bench.digest").host_ns as f64 / 1e6,
        ),
        (
            "bench.trace_overhead_pct",
            if plain_rate > 0.0 && traced_rate > 0.0 {
                100.0 * (plain_rate / traced_rate - 1.0)
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }

    #[test]
    fn value_lists_line_up_with_the_tables() {
        let rec = Recorder::default();
        let host = HostSide::default();
        let names = |pairs: &[(&'static str, f64)]| pairs.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(
            names(&end_to_end(&rec, &host)),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        let inp = LayerInputs {
            counters: &Counters::default(),
            gauges: &Gauges::default(),
            tracer: &Tracer::new(true),
            metadata_bytes: 0,
            pages_hashed: 0,
            pages_prefetched: 0,
            span_violations: 0,
            probes: &Probes::default(),
        };
        let values = per_layer(&rec, &host, &inp);
        assert_eq!(
            names(&values),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert!(values.iter().all(|v| v.1.is_finite()));
    }
}
