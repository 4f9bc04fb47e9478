//! Phase breakdowns matching the paper's tables.

use aurora_sim::time::{SimDuration, SimTime};

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
    /// and its group was never stopped. The previous durable
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
    /// Sim time from the start of the page-in to the completion of its
    /// last device read (device extents, submitted back to back, plus
    /// cache hits); zero when nothing was left to fetch.
    pub read_stage: SimDuration,
    /// Sim time from the last read's completion to the end of the last
    /// batch's verification: the hash work no later batch's read was
    /// left to hide (the restore-side twin of
    /// `CheckpointBreakdown::write_wait`).
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
