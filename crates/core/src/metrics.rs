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
    /// degraded to a full one: a backend needed a full base (a fresh
    /// attach, or recovery from an earlier abort). The result is still
    /// durable.
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
    /// Human-readable cause when `outcome` is not `Committed`; on a
    /// committed cycle, what went wrong around the commit: a failed
    /// history GC or chain compaction (retried by the next cycle),
    /// damage the scrub step found, and damaged pages memory could not
    /// rewrite.
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
    /// Pages of the rewrite set this checkpoint took as full images
    /// from memory: damage an earlier scrub step found, healed.
    pub rewritten: u64,
    /// Pages this cycle's post-commit scrub step found damaged under
    /// the group's head on some backend. They join the rewrite set at
    /// the first checkpoint after the step's verdicts are in.
    pub scrub_damaged: u64,
    /// Pages left in the rewrite set after this cycle: damaged pages
    /// with no resident frame to rewrite them from.
    pub unhealed: u64,
    /// When the verdicts of this cycle's scrub step are in, on its
    /// slowest backend: after `durable_at` on a materialized store,
    /// whose step reads queue behind the commit; the caller's clock does
    /// not wait for it.
    pub scrub_ready_at: SimTime,
}

impl CheckpointBreakdown {
    /// Whether the cycle found damage under the group or still holds
    /// some: the fleet's health machine counts such a cycle against the
    /// tenant's fault domain even when it committed.
    pub fn holds_damage(&self) -> bool {
        self.scrub_damaged > 0 || self.unhealed > 0
    }

    /// Adds `what` to the fault, after any cause already there.
    pub(crate) fn note_fault(&mut self, what: String) {
        self.fault = Some(match self.fault.take() {
            Some(earlier) => format!("{earlier}; {what}"),
            None => what,
        });
    }
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
    /// The caller's share of the page-in's reads: the submission itself
    /// (wiring what is resident, charging cache hits) plus the wait for
    /// the last device read left after the metadata phase.
    pub read_stage: SimDuration,
    /// The wait for the last batch's verification left after both the
    /// last read and the metadata phase. `read_stage` and `hash_stage`
    /// are the page-in's exposed share of `memory_state`; the rest of
    /// `memory_state` builds the address spaces.
    pub hash_stage: SimDuration,
    /// The page-in stream as it runs with the caller waiting, and the
    /// part of it the metadata phase hid: `stream.total() ==
    /// stream.hidden + read_stage + hash_stage`.
    pub stream: PageInStream,
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

/// A restore's page-in, from its start to its last batch's
/// verification. The caller submits it and rebuilds the metadata state
/// while the device reads it, then waits once for its last batch's
/// verification. The caller's core is one of the hash lanes, so only
/// the reads and the other lanes' hashing run under that phase. `read`
/// and `verify` time the stream as it runs with the caller waiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageInStream {
    /// From the start of the page-in to the completion of its last
    /// device read (device extents, submitted back to back, plus cache
    /// hits).
    pub read: SimDuration,
    /// From the last read's completion to the end of the last batch's
    /// verification: the hash work no later batch's read was left to
    /// hide (the restore-side twin of `CheckpointBreakdown::write_wait`).
    pub verify: SimDuration,
    /// The restore time the metadata phase hid: `read + verify` less the
    /// waits left exposed after the phase. At most the phase's length.
    pub hidden: SimDuration,
}

impl PageInStream {
    /// The whole stream: its reads and its verify tail.
    pub fn total(&self) -> SimDuration {
        self.read + self.verify
    }
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
