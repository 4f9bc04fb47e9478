//! The Aurora single level store.
//!
//! This crate is the paper's primary contribution: the **SLS
//! orchestrator** that continuously and transparently persists entire
//! applications — CPU state, every POSIX kernel object, and memory — plus
//! the `libsls` developer API of Table 2 and the operations behind the
//! `sls` CLI of Table 1.
//!
//! A [`Host`] bundles a simulated kernel with an [`Sls`] instance whose
//! primary object store also carries SLSFS (mounted at `/sls`), so file
//! system state and process state commit in the same atomic checkpoint.
//!
//! The lifecycle mirrors §3 of the paper:
//!
//! 1. [`Host::persist`] places a process tree (or container) into a
//!    *persistence group*; [`Host::attach_backend`] wires the group to
//!    disk / memory / remote backends (several at once for replication).
//! 2. [`Host::checkpoint`] runs a serialization barrier: member processes
//!    stop, every reachable kernel object serializes itself into
//!    independent metadata records, dirty memory is armed for checkpoint
//!    COW (see `aurora-vm::cow`), and the processes resume — typically in
//!    well under a millisecond. Page data and metadata then flush to the
//!    backends *asynchronously*; output to the outside world stays held
//!    until the covering checkpoint is durable (external consistency),
//!    unless `sls_fdctl` disabled the hold.
//! 3. [`Host::restore`] rebuilds the application from any checkpoint —
//!    eagerly, or lazily with the hottest pages prefetched (the
//!    serverless fast-start path). [`Host::rollback`] is restore applied
//!    over a live group (debugging, speculation).
//! 4. [`crate::migrate`] ships self-contained checkpoints between hosts
//!    (`sls send` / `sls recv`) and implements iterative live migration.
//!
//! Checkpoint and restore both return phase breakdowns
//! ([`metrics::CheckpointBreakdown`], [`metrics::RestoreBreakdown`])
//! matching the rows of the paper's Tables 3 and 4.

pub mod api;
pub mod campaign;
pub mod checkpoint;
pub mod fleet;
pub mod flush;
pub mod group;
pub mod metrics;
pub mod migrate;
pub mod ntlog;
pub mod recrep;
pub mod replicate;
pub mod restore;
pub mod serialize;
pub mod spec;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use aurora_hw::{BlockDev, ResilientDev};
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_posix::{Kernel, MountId, Pid};
use aurora_sim::error::{Error, Result};
use aurora_sim::SimClock;
use aurora_slsfs::{SlsFs, StoreHandle};

pub use group::{Backend, BackendKind, Group, GroupId};
pub use metrics::{CheckpointBreakdown, CheckpointOutcome, PageInStream, RestoreBreakdown};
pub use replicate::{
    promote_to_host, FramePayload, PromoteReport, ReplConfig, ReplFrame, ReplStats, Replicator,
};

/// Namespace base for SLSFS store objects on the primary store.
pub const SLSFS_NS: u64 = 1 << 48;

/// Where SLSFS is mounted.
pub const SLSFS_MOUNT: &str = "/sls";

/// SLS-wide counters.
#[derive(Debug, Default, Clone)]
pub struct SlsStats {
    /// Checkpoints that degraded from incremental to full because a
    /// backend needed a full base (fresh attach, or an earlier abort).
    pub checkpoints_degraded: u64,
    /// Checkpoints aborted by a permanent flush failure (the previous
    /// durable snapshot remains the latest).
    pub checkpoints_aborted: u64,
}

/// The SLS state attached to one kernel.
pub struct Sls {
    /// The primary (system) store: SLSFS plus the default disk backend.
    pub primary: StoreHandle,
    /// Mount id of SLSFS in the kernel VFS.
    pub slsfs_mount: MountId,
    pub(crate) groups: BTreeMap<u32, Group>,
    next_group: u32,
    /// Processes whose state was rolled back and not yet notified
    /// (the speculation API's notification channel).
    pub(crate) rolled_back: HashSet<Pid>,
    /// One pager per (store, checkpoint): restores from the same image
    /// share it, which is what lets sibling instances share frames.
    pub(crate) pager_cache: std::collections::HashMap<(usize, u64), aurora_vm::PagerId>,
    /// Worker threads for the flush pipeline's hash stage and the
    /// post-commit scrub step (see `crate::flush`). 1 runs the same
    /// pipeline on one thread.
    pub flush_workers: usize,
    /// Worker threads for the restore page-in pipeline's hash stage
    /// (see `crate::restore`). 1 runs the same pipeline on one thread.
    pub restore_workers: usize,
    /// Continuous checkpoint shipping to a hot standby, when attached
    /// (see [`crate::replicate`]). A crash loses the session — the
    /// promoted standby is the surviving half.
    pub(crate) replicator: Option<Box<replicate::Replicator>>,
    /// The tenant scheduler pipelining per-group checkpoint cycles (see
    /// [`crate::fleet`]). Tuning survives a reboot; in-flight state does
    /// not.
    pub fleet: fleet::FleetScheduler,
    /// Counters.
    pub stats: SlsStats,
}

/// Default worker count for the parallel flush hash stage.
pub const DEFAULT_FLUSH_WORKERS: usize = 4;

/// Default worker count for the batched restore pipeline.
pub const DEFAULT_RESTORE_WORKERS: usize = 4;

/// The host tuning that survives a reboot.
struct Tuning {
    flush_workers: usize,
    restore_workers: usize,
    fleet: fleet::FleetScheduler,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            flush_workers: DEFAULT_FLUSH_WORKERS,
            restore_workers: DEFAULT_RESTORE_WORKERS,
            fleet: fleet::FleetScheduler::new(),
        }
    }
}

/// A simulated machine: kernel + SLS.
pub struct Host {
    /// Host name.
    pub name: String,
    /// The shared virtual clock.
    pub clock: Arc<SimClock>,
    /// The simulated kernel.
    pub kernel: Kernel,
    /// The single level store.
    pub sls: Sls,
}

impl Host {
    /// Boots a host: kernel + primary store on `dev` + SLSFS at `/sls`.
    ///
    /// The device is wrapped in a [`ResilientDev`], so transient I/O
    /// errors are absorbed with bounded backoff before the store or the
    /// checkpoint pipeline ever sees them.
    pub fn boot(name: &str, dev: Box<dyn BlockDev>, config: StoreConfig) -> Result<Host> {
        let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(dev));
        let store = ObjectStore::format(dev, config)?;
        Host::assemble(name, Rc::new(RefCell::new(store)), Tuning::default())
    }

    /// Boots a host whose primary store sits on an N-way [`MirrorDev`]
    /// over `members` (each member gets its own retry layer inside the
    /// mirror). [`Sls::mirror_width`] reports the replica count.
    pub fn boot_mirrored(
        name: &str,
        members: Vec<Box<dyn BlockDev>>,
        config: StoreConfig,
    ) -> Result<Host> {
        let mirror = aurora_hw::MirrorDev::new(members)?;
        Host::boot(name, Box::new(mirror), config)
    }

    /// Re-boots a host from an existing store (after a crash or from a
    /// CLI world file): recovers the store and remounts SLSFS.
    pub fn boot_existing(name: &str, dev: Box<dyn BlockDev>, config: StoreConfig) -> Result<Host> {
        let dev: Box<dyn BlockDev> = Box::new(ResilientDev::with_defaults(dev));
        let store = ObjectStore::open(dev, config)?;
        Host::assemble(name, Rc::new(RefCell::new(store)), Tuning::default())
    }

    /// Simulates a whole-machine crash: the kernel (with every process)
    /// is lost, the primary store recovers to its last durable
    /// checkpoint. Group registrations survive in the checkpoint
    /// metadata; the caller re-registers and restores.
    pub fn crash_and_reboot(self) -> Result<Host> {
        let Host { name, kernel, sls, .. } = self;
        let Sls {
            primary,
            groups,
            replicator,
            flush_workers,
            restore_workers,
            fleet,
            ..
        } = sls;
        // The kernel (VFS's SLSFS mount, restore pagers) and the groups'
        // backends hold store handles; the crash destroys all of them.
        // The replication session dies with the machine: its in-flight
        // frames and standby store are only reachable through promote,
        // which the operator drives from the surviving side.
        drop((kernel, groups, replicator));
        let store = Rc::try_unwrap(primary)
            .map_err(|_| Error::internal("store handle still shared at crash"))?
            .into_inner();
        let tuning = Tuning {
            flush_workers,
            restore_workers,
            // In-flight pipelined flushes died with the machine; the
            // scheduler's tuning survives.
            fleet: fleet.fresh_config(),
        };
        Host::assemble(&name, Rc::new(RefCell::new(store.recover()?)), tuning)
    }

    /// The one way a host comes up: a fresh kernel over `store`, SLSFS
    /// loaded from the store's head (formatted when it has none) and
    /// mounted at `/sls`, the durable group-id allocator, and `tuning`.
    fn assemble(name: &str, store: StoreHandle, tuning: Tuning) -> Result<Host> {
        let clock = store.borrow().device().clock().clone();
        let next_group = load_next_group(&store);
        let mut kernel = Kernel::boot(clock.clone(), name);
        let fs = SlsFs::load(store.clone(), SLSFS_NS)
            .unwrap_or_else(|_| SlsFs::format(store.clone(), SLSFS_NS));
        let slsfs_mount = kernel.vfs.mount(SLSFS_MOUNT, Box::new(fs))?;
        Ok(Host {
            name: name.to_string(),
            clock,
            kernel,
            sls: Sls {
                primary: store,
                slsfs_mount,
                groups: BTreeMap::new(),
                next_group,
                rolled_back: HashSet::new(),
                pager_cache: std::collections::HashMap::new(),
                flush_workers: tuning.flush_workers,
                restore_workers: tuning.restore_workers,
                replicator: None,
                fleet: tuning.fleet,
                stats: SlsStats::default(),
            },
        })
    }

    /// Rebuilds every rebuilding mirror replica of the primary store
    /// from its live allocation maps and promotes them to active; see
    /// [`ObjectStore::resilver`]. A no-op report when the primary is
    /// unmirrored or fully in sync.
    pub fn resilver(&mut self) -> Result<aurora_objstore::ResilverReport> {
        self.sls.primary.borrow_mut().resilver()
    }

    /// Registers a process tree as a persistence group (`sls persist`).
    ///
    /// The root process and all of its current descendants join; fork
    /// children inherit membership automatically. The group starts with
    /// the primary disk backend attached.
    pub fn persist(&mut self, name: &str, root: Pid) -> Result<GroupId> {
        let gid = self.sls.next_group;
        self.sls.next_group += 1;
        // Collect the tree.
        let mut members = vec![root];
        let mut i = 0;
        while i < members.len() {
            let children = self.kernel.proc_ref(members[i])?.children.clone();
            members.extend(children);
            i += 1;
        }
        for &pid in &members {
            self.kernel.proc_mut(pid)?.persist_group = Some(gid);
        }
        let mut group = Group::new(gid, name, root);
        group
            .backends
            .push(Backend::new(BackendKind::Disk, self.sls.primary.clone()));
        self.sls.groups.insert(gid, group);
        Ok(GroupId(gid))
    }

    /// Registers a whole container as a persistence group.
    pub fn persist_container(&mut self, name: &str, ct: aurora_posix::CtId) -> Result<GroupId> {
        let procs = self.kernel.container_procs(ct)?;
        let root = *procs
            .first()
            .ok_or_else(|| Error::invalid("container has no processes"))?;
        let gid = self.persist(name, root)?;
        for pid in procs {
            self.kernel.proc_mut(pid)?.persist_group = Some(gid.0);
        }
        Ok(gid)
    }

    /// Attaches an additional backend (`sls attach`).
    pub fn attach_backend(&mut self, gid: GroupId, kind: BackendKind, store: StoreHandle) -> Result<()> {
        let group = self.sls.group_mut(gid)?;
        group.backends.push(Backend::new(kind, store));
        Ok(())
    }

    /// Rehomes a group's primary backend onto its own store, giving the
    /// tenant a private fault domain: a device fault on this store can
    /// abort or quarantine only this tenant. The group's checkpoint
    /// history starts over on the new store (the next capture is a full
    /// base).
    pub fn rehome_group(&mut self, gid: GroupId, store: StoreHandle) -> Result<()> {
        let group = self.sls.group_mut(gid)?;
        let primary = group
            .backends
            .first_mut()
            .ok_or_else(|| Error::invalid("group has no primary backend"))?;
        *primary = Backend::new(primary.kind, store);
        Ok(())
    }

    /// Detaches a backend by index (`sls detach`). The primary disk
    /// backend (index 0) cannot be detached.
    pub fn detach_backend(&mut self, gid: GroupId, index: usize) -> Result<()> {
        let group = self.sls.group_mut(gid)?;
        if index == 0 {
            return Err(Error::invalid("cannot detach the primary backend"));
        }
        if index >= group.backends.len() {
            return Err(Error::not_found(format!("backend {index}")));
        }
        group.backends.remove(index);
        Ok(())
    }

    /// Registers a System V message queue with a group so checkpoints
    /// capture its contents (queues are system-wide objects).
    pub fn group_add_msgq(&mut self, gid: GroupId, key: i32) -> Result<()> {
        let group = self.sls.group_mut(gid)?;
        if !group.msgq_keys.contains(&key) {
            group.msgq_keys.push(key);
        }
        Ok(())
    }

    /// Lists persistence groups with their members and checkpoint history
    /// (`sls ps`).
    pub fn ps(&self) -> Vec<PsEntry> {
        self.sls
            .groups
            .values()
            .map(|g| PsEntry {
                group: GroupId(g.id),
                name: g.name.clone(),
                members: self.group_members(GroupId(g.id)),
                checkpoints: g.history().to_vec(),
                backends: g.backends.iter().map(|b| b.kind).collect(),
            })
            .collect()
    }

    /// Current member pids of a group (membership lives on processes).
    pub fn group_members(&self, gid: GroupId) -> Vec<Pid> {
        self.kernel
            .procs
            .values()
            .filter(|p| p.persist_group == Some(gid.0) && p.state != aurora_posix::ProcState::Zombie)
            .map(|p| p.pid)
            .collect()
    }

    /// Prunes a superseded incarnation: deletes the *live* store objects
    /// of group `old_gid`'s namespace (its history checkpoints remain
    /// restorable — deltas hold their own block references — until the
    /// history window GCs them). Call after the application has been
    /// restored, re-persisted under a new group, and fully checkpointed;
    /// without pruning, every restart would leak the previous
    /// incarnation's live objects.
    pub fn prune_incarnation(&mut self, old_gid: u32) -> Result<u64> {
        let mut store = self.sls.primary.borrow_mut();
        let mut victims = store.live_object_ids();
        victims.retain(|oid| GroupId(old_gid).objects().contains(oid));
        let n = victims.len() as u64;
        for oid in victims {
            store.delete_object(oid)?;
        }
        Ok(n)
    }

    /// Reaps SLSFS orphans: unlinked-but-open files whose on-disk open
    /// reference counts exceed the references actually held by live
    /// processes. Run after a reboot once the operator has decided which
    /// applications to restore — files still referenced by restored
    /// processes survive; abandoned ones are reclaimed.
    pub fn reap_fs_orphans(&mut self) -> Result<()> {
        // Count live vnode references per inode.
        let mut live: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        let mount = self.sls.slsfs_mount;
        for proc in self.kernel.procs.values() {
            for (_, fid) in proc.fds.iter() {
                if let Some(file) = self.kernel.files.get(fid.0) {
                    if let aurora_posix::FileKind::Vnode(vref) = &file.kind {
                        if vref.mount == mount {
                            *live.entry(vref.node).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let fs = self
            .kernel
            .vfs
            .fs(mount)
            .as_any_mut()
            .downcast_mut::<SlsFs>()
            .ok_or_else(|| Error::internal("slsfs mount is not SLSFS"))?;
        fs.reap_orphans(&live);
        Ok(())
    }

    /// Zero-copy clone of a file or subtree on SLSFS (the paper's
    /// "zero copy snapshots and clones ... including file system state");
    /// both paths must be absolute under `/sls`. No data blocks are
    /// copied — the object store shares them copy-on-write.
    pub fn clone_sls_path(&mut self, src: &str, dst: &str) -> Result<()> {
        let (sparent, sname) = self.kernel.vfs.resolve_parent(src)?;
        let (dparent, dname) = self.kernel.vfs.resolve_parent(dst)?;
        if sparent.mount != self.sls.slsfs_mount || dparent.mount != self.sls.slsfs_mount {
            return Err(Error::unsupported("clone is an SLSFS operation"));
        }
        let fs = self
            .kernel
            .vfs
            .fs(self.sls.slsfs_mount)
            .as_any_mut()
            .downcast_mut::<SlsFs>()
            .ok_or_else(|| Error::internal("slsfs mount is not SLSFS"))?;
        fs.clone_path(sparent.node, &sname, dparent.node, &dname)?;
        Ok(())
    }

    /// Releases external-consistency holds for every checkpoint whose
    /// durable instant has passed. Call after advancing the clock (the
    /// checkpoint loop does this automatically).
    pub fn poll_durability(&mut self) {
        let now = self.clock.now();
        for group in self.sls.groups.values_mut() {
            while let Some(&(seq, at)) = group.ec_outstanding.front() {
                if at <= now {
                    self.kernel.ec_release(group.id, seq);
                    group.ec_outstanding.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Waits (advances the virtual clock) until every outstanding
    /// checkpoint of `gid` is durable, then releases holds. This is the
    /// blocking flavour used by `sls_barrier`.
    pub fn wait_durable(&mut self, gid: GroupId) -> Result<()> {
        let latest = self
            .sls
            .group_ref(gid)?
            .ec_outstanding
            .back()
            .map(|&(_, at)| at);
        if let Some(at) = latest {
            self.clock.advance_to(at);
        }
        self.poll_durability();
        Ok(())
    }
}

/// One row of `sls ps`.
#[derive(Debug, Clone)]
pub struct PsEntry {
    /// Group id.
    pub group: GroupId,
    /// Group name.
    pub name: String,
    /// Live member pids.
    pub members: Vec<Pid>,
    /// Checkpoint ids on the primary backend, oldest first.
    pub checkpoints: Vec<CkptId>,
    /// Attached backend kinds.
    pub backends: Vec<BackendKind>,
}

impl Sls {
    /// Replica count of the primary store's mirror (1 = unmirrored),
    /// read from its device.
    pub fn mirror_width(&self) -> usize {
        self.primary.borrow().device().as_mirror().map_or(1, |m| m.width())
    }

    /// The current group-id allocator value (persisted with every
    /// checkpoint; see `checkpoint.rs`).
    pub(crate) fn next_group_value(&self) -> u32 {
        self.next_group
    }

    /// Looks up a persistence group.
    pub fn group_ref(&self, gid: GroupId) -> Result<&Group> {
        self.groups
            .get(&gid.0)
            .ok_or_else(|| Error::not_found(format!("persistence group {}", gid.0)))
    }

    /// Looks up a persistence group mutably (policy tuning: period,
    /// history window).
    pub fn group_mut(&mut self, gid: GroupId) -> Result<&mut Group> {
        self.groups
            .get_mut(&gid.0)
            .ok_or_else(|| Error::not_found(format!("persistence group {}", gid.0)))
    }
}

/// Reads the durable group-id allocator from the store head (group ids
/// are never reused across reboots; see `checkpoint.rs`).
fn load_next_group(store: &StoreHandle) -> u32 {
    let mut st = store.borrow_mut();
    let Some(head) = st.head() else { return 1 };
    st.get_blob(head, "sls/host")
        .ok()
        .flatten()
        .and_then(|blob| {
            let mut d = aurora_sim::codec::Decoder::new(&blob);
            d.u32().ok()
        })
        .unwrap_or(1)
}

impl core::fmt::Debug for Host {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("groups", &self.sls.groups.len())
            .field("procs", &self.kernel.procs.len())
            .finish()
    }
}
