//! Persistence groups and backends.

use std::collections::{HashMap, VecDeque};

use crate::ntlog::NtLogState;

use aurora_objstore::{CkptId, ObjId};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_slsfs::StoreHandle;
use aurora_posix::Pid;

/// Identifier of a persistence group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The group's store objects, `ns ..= ns | 0xFFFF_FFFF_FFFF` with
    /// `ns = (0x100 + gid) << 48`: what its checkpoints write, its
    /// restores read and `send` ships as "this application".
    pub fn objects(self) -> std::ops::RangeInclusive<ObjId> {
        let ns = (0x100 + self.0 as u64) << 48;
        ObjId(ns)..=ObjId(ns | 0xFFFF_FFFF_FFFF)
    }
}

/// Backend kinds (the paper's local flash / NVDIMM, memory, and network
/// backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The primary on-disk store (NVMe/NVDIMM class).
    Disk,
    /// An in-memory store for ephemeral checkpoints (debugging,
    /// speculation).
    Memory,
    /// A store on a remote host behind a network link.
    Remote,
}

/// One attached backend.
pub struct Backend {
    /// Kind (affects durability reporting only; the store carries its own
    /// device model).
    pub kind: BackendKind,
    /// The backing object store.
    pub store: StoreHandle,
    /// The next checkpoint to this backend must be full (it has no
    /// history yet).
    pub needs_full: bool,
    /// Checkpoints this backend holds for the group, oldest first.
    pub history: Vec<CkptId>,
}

/// A persistence group.
pub struct Group {
    /// Group id (also the tag on member processes).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// The root process the group was created from.
    pub root: Pid,
    /// Attached backends; index 0 is the primary.
    pub backends: Vec<Backend>,
    /// Periodic checkpoint interval (default 10 ms — the paper's "100×
    /// per second").
    pub period: SimDuration,
    /// Next periodic checkpoint is due at this instant.
    pub next_due: SimTime,
    /// VM epoch the next incremental checkpoint captures from.
    pub since_epoch: u64,
    /// Stable VM-object → store-object mapping, keyed by the VM object's
    /// never-reused `uid`.
    pub vmo_oids: HashMap<u64, u64>,
    /// Next object id within this group's namespace.
    pub next_oid: u64,
    /// History window: older checkpoints are GC'd beyond this many.
    pub history_window: usize,
    /// External-consistency epochs awaiting durability: `(seq, durable)`.
    pub ec_outstanding: VecDeque<(u64, SimTime)>,
    /// Next persistent-log id.
    pub next_ntlog: u64,
    /// Live persistent logs by id.
    pub ntlogs: HashMap<u64, NtLogState>,
    /// Most recent `sls_ntflush` mini-commit (GC'd by the next one).
    pub last_ntflush_ckpt: Option<CkptId>,
    /// System V message queues registered with this group (queues are
    /// system-wide objects, so membership is explicit).
    pub msgq_keys: Vec<i32>,
    /// Group id of the incarnation this group superseded at restore time
    /// (pruned by the caller once the new group is fully checkpointed).
    pub supersedes: Option<u32>,
}

impl Group {
    /// Creates a group with default policy and no backends.
    pub fn new(id: u32, name: &str, root: Pid) -> Group {
        Group {
            id,
            name: name.to_string(),
            root,
            backends: Vec::new(),
            period: SimDuration::from_millis(10),
            next_due: SimTime::ZERO,
            since_epoch: 0,
            vmo_oids: HashMap::new(),
            next_oid: 1,
            history_window: 32,
            ec_outstanding: VecDeque::new(),
            next_ntlog: 1,
            ntlogs: HashMap::new(),
            last_ntflush_ckpt: None,
            msgq_keys: Vec::new(),
            supersedes: None,
        }
    }

    /// Assigns (or returns the existing) store object id for a VM object,
    /// keyed by its `uid`.
    pub fn oid_for_vmo(&mut self, vmo_uid: u64) -> ObjId {
        if let Some(&oid) = self.vmo_oids.get(&vmo_uid) {
            return ObjId(oid);
        }
        let oid = self.alloc_oid();
        self.vmo_oids.insert(vmo_uid, oid.0);
        oid
    }

    /// Allocates a fresh object id outside the VM mapping (ntlogs etc.).
    pub fn alloc_oid(&mut self) -> ObjId {
        let oid = GroupId(self.id).objects().start().0 | self.next_oid;
        self.next_oid += 1;
        ObjId(oid)
    }

    /// Checkpoint history on the primary backend, oldest first (empty
    /// while the group has no backend).
    pub fn history(&self) -> &[CkptId] {
        self.backends.first().map_or(&[], |b| &b.history)
    }

    /// The most recent checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<CkptId> {
        self.history().last().copied()
    }
}
