//! Phase breakdowns matching the paper's tables, plus the process-wide
//! counter registry.

use aurora_sim::time::{SimDuration, SimTime};

use crate::lockdep::{OrderedMutex, RANK_METRICS};

/// Process-wide counters, aggregated across every [`crate::Host`] in
/// the process (a test or campaign binary runs many).
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalCounters {
    /// Checkpoints that committed (including degraded-to-full).
    pub checkpoints_committed: u64,
    /// Checkpoints that aborted without committing.
    pub checkpoints_aborted: u64,
    /// Restores that completed.
    pub restores_completed: u64,
    /// Worker-thread count of the most recent parallel flush.
    pub flush_workers: u64,
    /// Pages content-hashed by the parallel flush hash stage (captured
    /// pages that took the delta path on every backend are not counted).
    pub flush_pages_hashed: u64,
    /// Pages captured by committed flushes (hashed or delta-only).
    pub flush_pages: u64,
    /// Hash-stage duration (sim ns): page bytes over the per-core hash
    /// bandwidth, divided across the workers. Charged to the simulation
    /// clock, so checkpoint latency reflects the configured parallelism.
    pub flush_hash_ns: u64,
    /// Sim time flushes waited for the device after their hash was done
    /// (ns): Σ `CheckpointBreakdown::write_wait`. Device work that ran
    /// under a later batch's hash is not in here; the whole span of an
    /// inline flush is `flush_hash_ns + flush_write_ns`.
    pub flush_write_ns: u64,
    /// Vectored extents issued by write coalescing.
    pub flush_extents: u64,
    /// Blocks carried by those extents.
    pub flush_extent_blocks: u64,
    /// Worker-thread count of the most recent batched restore.
    pub restore_workers: u64,
    /// Pages content-hashed by the restore pipeline's hash stage.
    pub restore_pages_hashed: u64,
    /// Sim time batched restores spent reading (ns): Σ
    /// `RestoreBreakdown::read_stage`.
    pub restore_read_ns: u64,
    /// Sim time batched restores waited for verification after their
    /// last read (ns): Σ `RestoreBreakdown::hash_stage`. Hashing that
    /// ran under a later batch's read is not in here.
    pub restore_verify_wait_ns: u64,
    /// Modeled hash work of batched restores (ns): Σ
    /// `RestoreBreakdown::hash_work`, hidden or not.
    pub restore_hash_ns: u64,
    /// Restore read-cache hits (pages served without device access).
    pub restore_cache_hits: u64,
    /// Restore read-cache misses (pages that charged device time).
    pub restore_cache_misses: u64,
    /// Vectored extent reads issued by batched restores.
    pub restore_extents: u64,
    /// Checkpoints that committed while the mirror was degraded (a
    /// replica detached, rebuilding, or unhealthy).
    pub checkpoints_degraded_mirror: u64,
    /// Checkpoints that committed while replication lag exceeded the
    /// configured bound (standby falling behind the acked watermark).
    pub checkpoints_degraded_replication: u64,
    /// Replication data frames offered to the link (first transmissions).
    pub repl_frames_sent: u64,
    /// Replication data frames retransmitted after an ack timeout.
    pub repl_frames_retransmitted: u64,
    /// Replication frames the faulty link dropped (both directions,
    /// including transient-partition losses).
    pub repl_frames_dropped: u64,
    /// Ack frames received by the primary.
    pub repl_acks_received: u64,
    /// Epochs fully acked by the standby (the watermark's advance count).
    pub repl_epochs_acked: u64,
    /// Current replication lag, in epochs (shipped minus acked).
    pub repl_lag_epochs: u64,
    /// Current replication lag, in unacked payload bytes.
    pub repl_lag_bytes: u64,
    /// Commit-protocol phase transitions `DirtyTxn → JournalSealed`
    /// (journal records submitted), summed across backend and standby
    /// stores.
    pub commit_journal_seals: u64,
    /// Phase transitions `JournalSealed → ExtentsDurable` (flush
    /// barriers).
    pub commit_extent_barriers: u64,
    /// Phase transitions `ExtentsDurable → Committed` (durable
    /// superblock flips).
    pub commit_superblock_flips: u64,
    /// Entries into the repair path (read-repair / scrub healing).
    pub commit_repair_entries: u64,
    /// Sub-page delta records committed in place of full 4 KiB images,
    /// summed across backend stores.
    pub delta_records: u64,
    /// Encoded bytes of those delta records (the flushed footprint the
    /// full-image path would have charged 4096 bytes per page for).
    pub delta_bytes: u64,
    /// Delta chains folded back into base images by the background
    /// compactor.
    pub chains_compacted: u64,
    /// Longest delta chain ever committed (high-water across stores).
    pub chain_len_max: u64,
    /// Checkpoint cycles run through the fleet scheduler's pipelined
    /// path (capture admitted while earlier flushes drain).
    pub fleet_cycles_pipelined: u64,
    /// Pipelined cycles whose capture overlapped at least one other
    /// tenant's still-draining flush.
    pub fleet_overlapped_cycles: u64,
    /// Admissions that had to retire the oldest in-flight flush first
    /// because the scheduler's run queue was full.
    pub fleet_queue_stalls: u64,
    /// High-water mark of the scheduler's in-flight flush queue.
    pub fleet_queue_depth_max: u64,
    /// p99 per-tenant stop time of the most recent fleet scheduler's
    /// pipelined cycles (sim ns).
    pub fleet_stop_p99_ns: u64,
    /// Pipelined cycles skipped because the tenant was quarantined
    /// (its group barrier was never taken).
    pub fleet_cycles_skipped: u64,
    /// Tenants moved into quarantine by the health state machine.
    pub fleet_quarantines: u64,
    /// Quarantined tenants re-admitted after a successful probe cycle.
    pub fleet_readmissions: u64,
    /// Pipelined cycles that blew their virtual-clock deadline.
    pub fleet_deadline_misses: u64,
    /// Pipelined cycles that failed (aborted outcome, damaged base, or
    /// a hard error) and were charged to the tenant's fault domain.
    pub fleet_cycle_errors: u64,
}

/// The global counter registry. Innermost rank in the lock hierarchy,
/// so any path may bump counters while holding anything else.
pub static METRICS: OrderedMutex<GlobalCounters> =
    OrderedMutex::new(RANK_METRICS, "metrics", GlobalCounters {
        checkpoints_committed: 0,
        checkpoints_aborted: 0,
        restores_completed: 0,
        flush_workers: 0,
        flush_pages_hashed: 0,
        flush_pages: 0,
        flush_hash_ns: 0,
        flush_write_ns: 0,
        flush_extents: 0,
        flush_extent_blocks: 0,
        restore_workers: 0,
        restore_pages_hashed: 0,
        restore_read_ns: 0,
        restore_verify_wait_ns: 0,
        restore_hash_ns: 0,
        restore_cache_hits: 0,
        restore_cache_misses: 0,
        restore_extents: 0,
        checkpoints_degraded_mirror: 0,
        checkpoints_degraded_replication: 0,
        repl_frames_sent: 0,
        repl_frames_retransmitted: 0,
        repl_frames_dropped: 0,
        repl_acks_received: 0,
        repl_epochs_acked: 0,
        repl_lag_epochs: 0,
        repl_lag_bytes: 0,
        commit_journal_seals: 0,
        commit_extent_barriers: 0,
        commit_superblock_flips: 0,
        commit_repair_entries: 0,
        delta_records: 0,
        delta_bytes: 0,
        chains_compacted: 0,
        chain_len_max: 0,
        fleet_cycles_pipelined: 0,
        fleet_overlapped_cycles: 0,
        fleet_queue_stalls: 0,
        fleet_queue_depth_max: 0,
        fleet_stop_p99_ns: 0,
        fleet_cycles_skipped: 0,
        fleet_quarantines: 0,
        fleet_readmissions: 0,
        fleet_deadline_misses: 0,
        fleet_cycle_errors: 0,
    });

/// Snapshot of the global counters.
pub fn global_counters() -> GlobalCounters {
    *METRICS.lock()
}

/// How a checkpoint concluded.
///
/// The pipeline reports degraded and aborted checkpoints through the
/// breakdown instead of a bare error, so periodic drivers keep running
/// and callers can distinguish "this snapshot is durable" from "the
/// previous snapshot is still the latest durable state".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointOutcome {
    /// Committed and durable on every backend.
    #[default]
    Committed,
    /// The caller asked for an incremental checkpoint but the pipeline
    /// degraded to a full one (damaged incremental base, or a backend
    /// recovering from an earlier abort). The result is still durable.
    DegradedToFull,
    /// Committed and durable, but the mirror under a backend was running
    /// degraded (a replica detached, rebuilding, or unhealthy): the data
    /// currently has less redundancy than configured, and an operator
    /// should revive/resilver the missing replica.
    DegradedMirror,
    /// Committed and durable locally, but the hot standby's acked-epoch
    /// watermark has fallen more than the configured max-lag behind: a
    /// failover now would lose more than the promised RPO. Commits are
    /// never blocked on the standby — the degradation is advisory.
    DegradedReplication,
    /// Flushing failed permanently after retries. No new checkpoint was
    /// committed; the previous durable snapshot is untouched and the
    /// next checkpoint will be full.
    Aborted,
    /// The cycle never ran: the tenant's fault domain is quarantined
    /// and its group barrier was not taken. The previous durable
    /// snapshot is untouched; `fault` names the next re-admission
    /// probe instant.
    Quarantined,
}

impl CheckpointOutcome {
    /// Short lowercase label for logs and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckpointOutcome::Committed => "committed",
            CheckpointOutcome::DegradedToFull => "degraded-to-full",
            CheckpointOutcome::DegradedMirror => "degraded-mirror",
            CheckpointOutcome::DegradedReplication => "degraded-replication",
            CheckpointOutcome::Aborted => "aborted",
            CheckpointOutcome::Quarantined => "quarantined",
        }
    }

    /// True when a new durable checkpoint exists after the call.
    pub fn committed(self) -> bool {
        !matches!(
            self,
            CheckpointOutcome::Aborted | CheckpointOutcome::Quarantined
        )
    }
}

/// Stop-time breakdown of one checkpoint (the rows of Table 3).
#[derive(Debug, Clone, Default)]
pub struct CheckpointBreakdown {
    /// How the checkpoint concluded (committed / degraded / aborted).
    pub outcome: CheckpointOutcome,
    /// Human-readable cause when `outcome` is not `Committed`.
    pub fault: Option<String>,
    /// Whether this was a full or incremental checkpoint.
    pub full: bool,
    /// "Metadata copy": serializing every kernel object at the barrier.
    pub metadata_copy: SimDuration,
    /// "Lazy data copy": arming checkpoint COW via page-table
    /// manipulation (no data is copied at the barrier).
    pub lazy_data_copy: SimDuration,
    /// "Application stop time": barrier entry + metadata + COW arming +
    /// resume — the full pause observed by the application.
    pub stop_time: SimDuration,
    /// Pages armed (and queued for background flush).
    pub pages: u64,
    /// Metadata bytes serialized.
    pub metadata_bytes: u64,
    /// Bytes handed to the flusher.
    pub flush_bytes: u64,
    /// Instant at which the checkpoint is durable on every backend.
    pub durable_at: SimTime,
    /// Checkpoint id on the primary backend.
    pub ckpt: Option<aurora_objstore::CkptId>,
    /// Worker threads used by the parallel flush hash stage.
    pub flush_workers: u64,
    /// Duration of the hash stage, charged to the virtual clock.
    pub hash_stage: SimDuration,
    /// Pages the flush content-hashed: those some backend stores as a
    /// full image. The other `pages - pages_hashed` were delta records
    /// on every backend and needed no hash.
    pub pages_hashed: u64,
    /// Sim-time span from flush submission to the durable instant.
    pub flush_span: SimDuration,
    /// Sim time from the end of the last batch's hash to the durable
    /// instant: the device work (last batch's writes, backlog, commit)
    /// that no later batch's hash was left to hide. For an inline
    /// checkpoint `flush_span == hash_stage + write_wait`.
    pub write_wait: SimDuration,
    /// The incremental pre-pass found the base chain damaged
    /// (unreadable or corrupt blocks) and degraded to full. Committed
    /// cycles with this set still signal a sick backend: the fleet's
    /// health machine counts them against the tenant's fault domain.
    pub base_damaged: bool,
    /// Sim time the incremental pre-pass spent checking the base on the
    /// device, before the group was stopped: part of neither `stop_time`
    /// nor `flush_span`, but of the call-to-durable latency. Zero for a
    /// full checkpoint and on timing-only stores, which read nothing.
    pub base_verify: SimDuration,
    /// Device blocks that pre-pass read.
    pub base_verify_blocks: u64,
}

/// Restore-time breakdown (the rows of Table 4).
#[derive(Debug, Clone, Default)]
pub struct RestoreBreakdown {
    /// "Object Store Read": fetching the manifest and metadata records
    /// from the backend.
    pub objstore_read: SimDuration,
    /// "Memory state": recreating the address spaces (map entries and VM
    /// objects; pages are shared COW / faulted lazily — never copied).
    pub memory_state: SimDuration,
    /// "Metadata state": recreating processes, descriptors and IPC.
    pub metadata_state: SimDuration,
    /// "Total latency".
    pub total: SimDuration,
    /// Pages eagerly paged in (prefetch/eager modes).
    pub pages_prefetched: u64,
    /// Sim time spent in the page-in's read stage (device extents plus
    /// cache hits), summed over the batches; zero when nothing was left
    /// to fetch.
    pub read_stage: SimDuration,
    /// Sim time from the end of the last batch's read to the end of its
    /// verification: the hash work no later batch's read was left to
    /// hide (the restore-side twin of `CheckpointBreakdown::write_wait`).
    /// `read_stage`, `hash_stage` and the wiring that follows partition
    /// the page-in's share of `memory_state`.
    pub hash_stage: SimDuration,
    /// Modeled cost of content-hashing `pages_hashed` pages on
    /// `restore_workers` workers, whether a read hid it or not.
    pub hash_work: SimDuration,
    /// Pages the batched pipeline fetched and verified (read-cache hits
    /// need neither).
    pub pages_hashed: u64,
    /// Worker threads the page-in pipeline ran with.
    pub restore_workers: u64,
    /// Pages served by the store's read cache.
    pub cache_hits: u64,
    /// Pages that charged device time.
    pub cache_misses: u64,
    /// Vectored extent reads issued.
    pub extents_read: u64,
    /// The pid map: original pid -> restored pid.
    pub pid_map: Vec<(u32, u32)>,
}

impl RestoreBreakdown {
    /// The restored pid of original `pid`, if present.
    pub fn restored_pid(&self, original: u32) -> Option<aurora_posix::Pid> {
        self.pid_map
            .iter()
            .find(|(o, _)| *o == original)
            .map(|(_, n)| aurora_posix::Pid(*n))
    }

    /// The single restored root pid (convenience for one-process groups).
    pub fn root_pid(&self) -> Option<aurora_posix::Pid> {
        self.pid_map.first().map(|(_, n)| aurora_posix::Pid(*n))
    }
}
