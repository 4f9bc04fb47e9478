//! The restore path: rebuilding an application from a checkpoint.
//!
//! Phases match Table 4's rows:
//!
//! * **Object Store Read** — fetching the manifest and every metadata
//!   record from the backend (the only phase that differs between
//!   memory-backend and disk-backend restores). Each record read goes
//!   through the store's bounded read cache: the first restore of an
//!   image after its commit, a `drop_caches` or a reboot pays a waited
//!   device read per record, and a warm image — one whose records an
//!   earlier instance read and the cache still holds — pays
//!   `RESTORE_CACHE_HIT_NS` per record block and no device read.
//! * **Memory state** — recreating the VM object hierarchy and address
//!   spaces. No page data is copied: objects are bound to a pager over
//!   the checkpoint image, and pages arrive on demand (lazy restore),
//!   shared COW between the image and — via the VM frame index — every
//!   other instance restored from the same checkpoint, and every image
//!   that shares a deduplicated block with it. What is already resident
//!   is wired during the restore, in every mode. An eager page-in is a
//!   submission: the device streams it while the caller runs the
//!   metadata phase, the restore workers other than the caller verify
//!   it meanwhile, and the restore waits once, at the phase's end, for
//!   the last batch's verification.
//! * **Metadata state** — recreating processes, descriptor tables,
//!   pipes, sockets (including in-flight SCM_RIGHTS descriptors), shared
//!   memory and message queues, with every identifier remapped into the
//!   destination kernel.
//!
//! Lazy restore optionally *prefetches* the hottest pages recorded in
//! the image (the clock algorithm's heat ranking) to absorb the
//! post-restore fault storm — the paper's serverless warm start.

use std::collections::HashMap;
use std::rc::Rc;

use aurora_objstore::{CkptId, ObjId, PageRef};
use aurora_posix::fd::{FileId, FileKind, OpenFile};
use aurora_posix::inet::{InetSocket, IsockState};
use aurora_posix::pipe::{Pipe, PipeId};
use aurora_posix::types::Tid;
use aurora_posix::unix::{UnixMsg, UnixSocket, UsockState};
use aurora_posix::{Fd, IsockId, Pid, UsockId, VnodeRef};
use aurora_sim::clock::Stopwatch;
use aurora_sim::cost;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_slsfs::StoreHandle;
use aurora_vm::map::RestoreHint;
use aurora_vm::object::ResidentPage;
use aurora_vm::{
    hash_pages, MapEntry, PageData, PageId, Pager, Prot, Residency, SlsPolicy, VmoId, VmoKind,
};

use crate::metrics::{PageInStream, RestoreBreakdown};
use crate::serialize::*;
use crate::{GroupId, Host};

/// A page a restore pages in: the VM object it wires into, its store
/// object and page, and how the checkpoint holds it (`None`: a hole, or
/// a page the image has resident, which is wired and never fetched).
type Target = (VmoId, u64, u64, Option<PageRef>);

/// How memory is brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMode {
    /// Page everything in during restore (no post-restore faults).
    Eager,
    /// Pure lazy: restore only the skeleton; fault pages on demand.
    Lazy,
    /// Lazy plus eager page-in of the recorded hottest pages.
    LazyPrefetch,
}

/// A pager that feeds pages from a checkpoint image in an object store.
///
/// One pager is shared by every instance restored from the same image
/// (see the pager cache in [`Host::restore`]). It names each full-image
/// page by its block and recorded content hash, so the VM frame index
/// shares a faulted-in frame with every instance of every image holding
/// that block. Because it is shared, it is strictly read-only: eviction
/// never writes dirty pages back through it (see `aurora-vm`'s pageout
/// policy) — dirty image pages stay resident until a checkpoint captures
/// them.
pub struct StorePager {
    store: StoreHandle,
    at: CkptId,
}

impl StorePager {
    /// Creates a pager over `store` at checkpoint `at`.
    pub fn new(store: StoreHandle, at: CkptId) -> Self {
        StorePager { store, at }
    }
}

/// The frame-index identity of an image page held as `r` in `store`,
/// with `hash` the content hash on record for its block: a full image
/// with a recorded hash is named by its store, block and hash, so every
/// image holding that block shares one frame; any other page is private
/// to its image.
fn page_identity(store: &StoreHandle, r: PageRef, hash: Option<u64>) -> PageId {
    match (r, hash) {
        (PageRef::Full(ptr), Some(hash)) => PageId::Stored {
            store: Rc::as_ptr(store) as usize as u64,
            block: ptr.0,
            hash,
        },
        _ => PageId::Private,
    }
}

impl Pager for StorePager {
    fn page_in(&mut self, key: u64, idx: u64) -> aurora_sim::error::Result<PageData> {
        Ok(self
            .store
            .borrow_mut()
            .read_page_at(self.at, ObjId(key), idx)?
            .unwrap_or(PageData::Zero))
    }

    fn page_out(&mut self, _key: u64, _idx: u64, _data: &PageData) -> aurora_sim::error::Result<()> {
        Err(Error::unsupported(
            "checkpoint-image pagers are shared and read-only; dirty pages stay resident",
        ))
    }

    fn page_id(&self, key: u64, idx: u64) -> Option<PageId> {
        // A page that does not resolve (its checkpoint was deleted) is
        // named private, not a hole: the fault then reads it through
        // `page_in`, which reports why.
        match self.store.borrow().page_ref_at(self.at, ObjId(key), idx) {
            Ok(found) => found.map(|(r, hash)| page_identity(&self.store, r, hash)),
            Err(_) => Some(PageId::Private),
        }
    }

    fn held_pages(&self, keys: &[u64]) -> Vec<(u64, u64)> {
        let (Some(&lo), Some(&hi)) = (keys.iter().min(), keys.iter().max()) else {
            return Vec::new();
        };
        let store = self.store.borrow();
        let Ok(image) = store.image_at(self.at, ObjId(lo)..=ObjId(hi)) else {
            return Vec::new();
        };
        let pages = |key: u64| image.object_refs(ObjId(key)).map(move |(idx, _)| (key, idx));
        keys.iter().flat_map(|&key| pages(key)).collect()
    }

    fn shared(&self) -> bool {
        true
    }
}

impl Host {
    /// Restores an application from checkpoint `ckpt` in `store`.
    ///
    /// Returns the phase breakdown including the pid remapping. The
    /// restored processes are *not* automatically persisted; call
    /// [`Host::persist`] on the new root to resume transparent
    /// persistence.
    pub fn restore(
        &mut self,
        store: &StoreHandle,
        ckpt: CkptId,
        mode: RestoreMode,
    ) -> Result<RestoreBreakdown> {
        let mut breakdown = RestoreBreakdown::default();
        let clock = self.clock.clone();
        let mut sw = Stopwatch::start(&clock);

        // --- Phase 1: object store read. -----------------------------------
        let Records {
            manifest,
            vmos: vmo_recs,
            procs: proc_recs,
            files: file_recs,
            pipes: pipe_recs,
            usocks: usock_recs,
            isocks: isock_recs,
            shms: shm_recs,
            msgqs: msgq_recs,
            pshms: pshm_recs,
        } = fetch_records(store, ckpt)?;
        breakdown.objstore_read = sw.lap();
        // High-latency backend reads implicitly perform part of the
        // parsing work; discount the later phases accordingly (the
        // paper's observation on disk restores).
        let discount: u64 = if breakdown.objstore_read.as_micros() > 100 {
            cost::RESTORE_DISK_DISCOUNT_PCT
        } else {
            100
        };
        let scaled = |ns: u64| SimDuration::from_nanos(ns * discount / 100);

        // --- Phase 2: memory state. ----------------------------------------
        // One pager per (store, checkpoint): instances restored from the
        // same image share it, and with it their memberships in the VM
        // frame index (the paper's mutual warm-up).
        let cache_key = (Rc::as_ptr(store) as usize, ckpt.0);
        let pager_id = match self.sls.pager_cache.get(&cache_key) {
            Some(&p) => p,
            None => {
                let p = self
                    .kernel
                    .vm
                    .register_pager(Box::new(StorePager::new(store.clone(), ckpt)));
                self.sls.pager_cache.insert(cache_key, p);
                p
            }
        };
        // Create the object shells, oldest first so backings exist.
        let mut oid_vmo: HashMap<u64, VmoId> = HashMap::new();
        for rec in &vmo_recs {
            let kind = match rec.kind {
                1 => VmoKind::Shadow,
                2 => VmoKind::SharedMem,
                3 => VmoKind::Vnode { file_id: rec.oid },
                _ => VmoKind::Anonymous,
            };
            let v = self.kernel.vm.create_object(kind, rec.size_pages);
            self.kernel.vm.object_mut(v).pager = Some((pager_id, rec.oid));
            oid_vmo.insert(rec.oid, v);
            self.clock.charge(scaled(cost::RESTORE_VMO_NS));
        }
        // Wire shadow-chain backings: the backing reference is the
        // chain's ownership, and every level keeps its pager because it
        // has image pages of its own.
        for rec in &vmo_recs {
            if let Some((boid, off)) = rec.backing {
                let v = *oid_vmo.get(&rec.oid).ok_or_else(|| {
                    Error::internal(format!("vm object for oid {} vanished", rec.oid))
                })?;
                let b = *oid_vmo
                    .get(&boid)
                    .ok_or_else(|| Error::bad_image(format!("missing backing object {boid}")))?;
                self.kernel.vm.ref_object(b);
                self.kernel.vm.object_mut(v).backing = Some((b, off));
            }
        }

        // Recreate processes and their address spaces.
        let mut pid_map: HashMap<u32, Pid> = HashMap::new();
        for rec in &proc_recs {
            let new_pid = self.kernel.spawn(&rec.name);
            pid_map.insert(rec.pid, new_pid);
            for m in &rec.map {
                let v = *oid_vmo
                    .get(&m.oid)
                    .ok_or_else(|| Error::bad_image(format!("map entry on unknown object {}", m.oid)))?;
                self.kernel.vm.ref_object(v);
                let entry = MapEntry {
                    start: m.start,
                    end: m.end,
                    object: v,
                    offset_pages: m.offset_pages,
                    prot: Prot {
                        read: m.read,
                        write: m.write,
                    },
                    shared: m.shared,
                    needs_copy: m.needs_copy,
                    policy: SlsPolicy {
                        exclude: m.exclude,
                        restore: match m.restore_hint {
                            1 => RestoreHint::Eager,
                            2 => RestoreHint::Lazy,
                            _ => RestoreHint::Auto,
                        },
                    },
                };
                self.kernel
                    .proc_mut(new_pid)?
                    .map
                    .install_entry(entry);
                self.clock.charge(scaled(cost::RESTORE_MAP_ENTRY_NS));
            }
        }

        // Region policy from `sls_mctl` restore hints: objects mapped by
        // an Eager-hinted entry page in fully even under lazy restore;
        // Lazy-hinted ones are excluded from hot-set prefetch.
        let mut force_eager: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut force_lazy: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for rec in &proc_recs {
            for m in &rec.map {
                match m.restore_hint {
                    1 => {
                        force_eager.insert(m.oid);
                    }
                    2 => {
                        force_lazy.insert(m.oid);
                    }
                    _ => {}
                }
            }
        }

        // Eager/prefetch page-in: the targets in image order, handed to
        // the streamed pipeline whatever their number, each with how the
        // checkpoint holds it. An eager object takes every page of its
        // image: the head's is kept, any other checkpoint's chain folds
        // once for the whole restore, over the group's own objects. A
        // lazily restored object takes what its image already has
        // resident — the working set its sibling instances faulted in —
        // since wiring a page now costs `RESTORE_PAGE_WIRE_NS` and
        // faulting it later a trap; on a cold host nothing is resident
        // and this adds nothing. Its recorded hot pages (`LazyPrefetch`)
        // resolve one by one.
        let group = GroupId(manifest.gid).objects();
        let mut targets: Vec<Target> = Vec::new();
        let store_ref = store.borrow();
        let mut image = None;
        for rec in &vmo_recs {
            let v = *oid_vmo.get(&rec.oid).ok_or_else(|| {
                Error::internal(format!("vm object for oid {} vanished", rec.oid))
            })?;
            let oid = ObjId(rec.oid);
            if !group.contains(&oid) {
                return Err(Error::bad_image(format!(
                    "object {} lies outside group {}'s objects",
                    rec.oid, manifest.gid
                )));
            }
            let eager = match mode {
                RestoreMode::Eager => !force_lazy.contains(&rec.oid),
                _ => force_eager.contains(&rec.oid),
            };
            if eager {
                let image = match image {
                    Some(ref image) => image,
                    None => image.insert(store_ref.image_at(ckpt, group.clone())?),
                };
                let refs = image.object_refs(oid);
                targets.extend(refs.map(|(idx, r)| (v, rec.oid, idx, Some(r))));
                continue;
            }
            // A resident page is wired from the frame index, unresolved.
            let resident = self.kernel.vm.resident_pages(pager_id, rec.oid);
            targets.extend(resident.iter().map(|&idx| (v, rec.oid, idx, None)));
            if mode == RestoreMode::LazyPrefetch && !force_lazy.contains(&rec.oid) {
                let hot = rec.hot.iter().filter(|idx| resident.binary_search(idx).is_err());
                for &idx in hot {
                    let found = store_ref.page_ref_at(ckpt, oid, idx)?;
                    targets.push((v, rec.oid, idx, found.map(|(r, _)| r)));
                }
            }
        }
        drop(image);
        drop(store_ref);
        let workers = self.sls.restore_workers.max(1);
        let page_in = self.batched_page_in(store, pager_id, &targets, workers, &mut breakdown)?;
        let submitted = clock.now();
        breakdown.memory_state = sw.lap();

        // --- Phase 3: metadata state. ----------------------------------------
        // Runs on the caller's core while the page-in streams. Its frames
        // are published, so an error here still waits for the stream
        // below before it returns.
        let metadata = (|| -> Result<()> {
            // Pipes first (no dependencies).
            let mut pipe_map: HashMap<u32, PipeId> = HashMap::new();
            for rec in &pipe_recs {
                let mut pipe = Pipe::new();
                pipe.buf = rec.buf.iter().copied().collect();
                pipe.read_open = rec.read_open;
                pipe.write_open = rec.write_open;
                pipe_map.insert(rec.id, PipeId(self.kernel.pipes.insert(pipe)));
            }
            // Socket shells (peers wired after).
            let mut usock_map: HashMap<u32, UsockId> = HashMap::new();
            for rec in &usock_recs {
                usock_map.insert(
                    rec.id,
                    UsockId(self.kernel.usocks.insert(UnixSocket::new())),
                );
            }
            let mut isock_map: HashMap<u32, IsockId> = HashMap::new();
            for rec in &isock_recs {
                let owner = pid_map
                    .get(&rec.owner)
                    .copied()
                    .unwrap_or(aurora_posix::Pid(0));
                let sock = InetSocket {
                    state: IsockState::Unbound,
                    local_port: None,
                    owner,
                    recv: rec.recv.iter().copied().collect(),
                    backlog: Default::default(),
                    held: Default::default(),
                };
                isock_map.insert(rec.id, IsockId(self.kernel.isocks.insert(sock)));
            }

            // Open-file descriptions (need pipe/sock maps).
            let mut file_map: HashMap<u32, FileId> = HashMap::new();
            for rec in &file_recs {
                let kind = match &rec.kind {
                    FileKindRec::Vnode(node) => FileKind::Vnode(VnodeRef {
                        mount: self.sls.slsfs_mount,
                        node: *node,
                    }),
                    FileKindRec::PipeRead(p) => FileKind::PipeRead(
                        *pipe_map
                            .get(p)
                            .ok_or_else(|| Error::bad_image("file references unknown pipe"))?,
                    ),
                    FileKindRec::PipeWrite(p) => FileKind::PipeWrite(
                        *pipe_map
                            .get(p)
                            .ok_or_else(|| Error::bad_image("file references unknown pipe"))?,
                    ),
                    FileKindRec::UnixSock(s) => FileKind::UnixSock(
                        *usock_map
                            .get(s)
                            .ok_or_else(|| Error::bad_image("file references unknown usock"))?,
                    ),
                    FileKindRec::InetSock(s) => FileKind::InetSock(
                        *isock_map
                            .get(s)
                            .ok_or_else(|| Error::bad_image("file references unknown isock"))?,
                    ),
                    FileKindRec::PosixShm(n) => FileKind::PosixShm(n.clone()),
                    FileKindRec::NtLog(id) => FileKind::NtLog(*id),
                };
                // Restored with zero references; each install adds one.
                let mut file = OpenFile::new(kind);
                file.offset = rec.offset;
                file.flags = rec.flags;
                file.external_consistency = rec.ec;
                file.refs = 0;
                let fid = FileId(self.kernel.files.insert(file));
                file_map.insert(rec.id, fid);
                // Vnodes re-acquire their on-disk open reference.
                if let FileKindRec::Vnode(node) = &rec.kind {
                    self.kernel
                        .vfs
                        .fs(self.sls.slsfs_mount)
                        .open_ref(*node, 1)?;
                }
            }

            // Wire socket state, queues and bindings.
            for rec in &usock_recs {
                let sid = *usock_map.get(&rec.id).ok_or_else(|| {
                    Error::internal(format!("unix socket {} missing from shell pass", rec.id))
                })?;
                let state = match &rec.state {
                    SockStateRec::Unbound => UsockState::Unbound,
                    SockStateRec::Listening => UsockState::Listening,
                    SockStateRec::Connected(p) => match usock_map.get(p) {
                        Some(np) => UsockState::Connected(*np),
                        None => UsockState::Disconnected,
                    },
                    SockStateRec::Disconnected => UsockState::Disconnected,
                };
                let recv = rec
                    .recv
                    .iter()
                    .map(|(bytes, fds)| {
                        let fds = fds
                            .iter()
                            .filter_map(|f| file_map.get(f).copied())
                            .collect::<Vec<_>>();
                        // In-flight descriptors hold references.
                        UnixMsg {
                            bytes: bytes.clone(),
                            fds,
                        }
                    })
                    .collect::<Vec<_>>();
                for msg in &recv {
                    for f in &msg.fds {
                        if let Some(file) = self.kernel.files.get_mut(f.0) {
                            file.refs += 1;
                        }
                    }
                }
                let backlog = rec
                    .backlog
                    .iter()
                    .filter_map(|b| usock_map.get(b).copied())
                    .collect();
                let bound_path = match &rec.bound_path {
                    Some(path) if !self.kernel.usock_binds.contains_key(path) => {
                        self.kernel.usock_binds.insert(path.clone(), sid);
                        Some(path.clone())
                    }
                    other => other.clone(),
                };
                let sock = self.kernel.usocks.get_mut(sid.0).ok_or_else(|| {
                    Error::internal(format!("unix socket {} missing after shell pass", sid.0))
                })?;
                sock.state = state;
                sock.recv = recv.into();
                sock.backlog = backlog;
                sock.bound_path = bound_path;
            }
            for rec in &isock_recs {
                let sid = *isock_map.get(&rec.id).ok_or_else(|| {
                    Error::internal(format!("inet socket {} missing from shell pass", rec.id))
                })?;
                let state = match &rec.state {
                    SockStateRec::Unbound => IsockState::Unbound,
                    SockStateRec::Listening => IsockState::Listening,
                    SockStateRec::Connected(p) => match isock_map.get(p) {
                        Some(np) => IsockState::Connected(*np),
                        None => IsockState::Disconnected,
                    },
                    SockStateRec::Disconnected => IsockState::Disconnected,
                };
                let backlog = rec
                    .backlog
                    .iter()
                    .filter_map(|b| isock_map.get(b).copied())
                    .collect();
                // Rebind the port when free; otherwise the socket restores
                // degraded (listening without a port registration).
                let port = match rec.port {
                    Some(p) if !self.kernel.ports.contains_key(&p) => {
                        self.kernel.ports.insert(p, sid);
                        Some(p)
                    }
                    other => other,
                };
                let sock = self.kernel.isocks.get_mut(sid.0).ok_or_else(|| {
                    Error::internal(format!("inet socket {} missing after shell pass", sid.0))
                })?;
                sock.state = state;
                sock.backlog = backlog;
                sock.local_port = port;
            }

            // Descriptor tables, threads, credentials, signals, parenthood.
            for rec in &proc_recs {
                let new_pid = *pid_map.get(&rec.pid).ok_or_else(|| {
                    Error::internal(format!("pid {} missing from shell pass", rec.pid))
                })?;
                {
                    let proc = self.kernel.proc_mut(new_pid)?;
                    proc.cwd = rec.cwd.clone();
                    proc.cred.uid = rec.uid;
                    proc.cred.gid = rec.gid;
                    proc.sig.pending = rec.sig_pending;
                    proc.sig.blocked = rec.sig_blocked;
                    proc.sig.actions = rec.sig_actions_array();
                    proc.threads.clear();
                    for (tid, cpu) in &rec.threads {
                        proc.threads.push(aurora_posix::types::Thread {
                            tid: Tid(*tid),
                            cpu: cpu.clone(),
                        });
                    }
                    if let Some(&parent) = pid_map.get(&rec.ppid) {
                        proc.ppid = parent;
                    }
                }
                for (fd, old_fid) in &rec.fds {
                    let fid = *file_map
                        .get(old_fid)
                        .ok_or_else(|| Error::bad_image("fd references unknown file"))?;
                    self.kernel
                        .proc_mut(new_pid)?
                        .fds
                        .install_at(Fd(*fd), fid)?;
                    if let Some(file) = self.kernel.files.get_mut(fid.0) {
                        file.refs += 1;
                    }
                }
                if let Some(&parent) = pid_map.get(&rec.ppid) {
                    self.kernel.proc_mut(parent)?.children.push(new_pid);
                }
            }

            // SysV shared memory.
            for rec in &shm_recs {
                let v = *oid_vmo
                    .get(&rec.oid)
                    .ok_or_else(|| Error::bad_image("shm references unknown object"))?;
                if self.kernel.sysv_shms.contains_key(&rec.key) {
                    continue; // Restored alongside a live segment: keep live.
                }
                self.kernel.vm.ref_object(v);
                self.kernel.sysv_shms.insert(
                    rec.key,
                    aurora_posix::SysvShm {
                        key: rec.key,
                        size: rec.size,
                        object: v,
                        nattch: 0,
                        removed: rec.removed,
                    },
                );
            }
            // POSIX shared memory.
            for rec in &pshm_recs {
                let v = *oid_vmo
                    .get(&rec.oid)
                    .ok_or_else(|| Error::bad_image("pshm references unknown object"))?;
                if self.kernel.posix_shms.contains_key(&rec.name) {
                    continue;
                }
                self.kernel.vm.ref_object(v);
                self.kernel.posix_shms.insert(
                    rec.name.clone(),
                    aurora_posix::PosixShm {
                        object: v,
                        size: rec.size,
                        unlinked: rec.unlinked,
                        open_refs: rec.open_refs,
                    },
                );
            }
            // Message queues.
            for rec in &msgq_recs {
                let q = self.kernel.msgqs.entry(rec.key).or_default();
                if q.capacity == 0 {
                    q.capacity = aurora_posix::sysv::MSGMNB;
                }
                q.msgs = rec
                    .msgs
                    .iter()
                    .map(|(t, data)| aurora_posix::sysv::SysvMsg {
                        mtype: *t,
                        data: data.clone(),
                    })
                    .collect();
            }
            // Container.
            if let Some((name, root)) = &manifest.container {
                let ct = self.kernel.container_create(name, root);
                for (_, &new_pid) in pid_map.iter() {
                    self.kernel.container_add(ct, new_pid)?;
                }
            }

            // Charge the recreation cost: a fixed orchestration component
            // plus one parse/wire cost per record.
            self.clock.charge(scaled(cost::RESTORE_GROUP_FIXED_NS));
            for bytes in proc_recs.iter().map(|r| r.encode().len()) {
                self.clock
                    .charge(scaled(cost::meta_restore(bytes).as_nanos()));
            }
            for n in [
                file_recs.len(),
                pipe_recs.len(),
                usock_recs.len(),
                isock_recs.len(),
                shm_recs.len(),
                msgq_recs.len(),
                pshm_recs.len(),
            ] {
                for _ in 0..n {
                    self.clock.charge(scaled(cost::meta_restore(96).as_nanos()));
                }
            }

            // Drop the pager-less object references we created above: each
            // object was born with one reference that nothing owns.
            for (_, &v) in oid_vmo.iter() {
                self.kernel.vm.unref_object(v);
            }
            Ok(())
        })();
        breakdown.metadata_state = sw.lap();

        // The one wait: for the page-in's last verification, unless the
        // metadata phase outlasted it. What the phase hid is reported in
        // `breakdown.stream`; the wait left counts as memory state.
        let verified = page_in.settle(submitted, clock.now(), &mut breakdown);
        clock.advance_to(verified);
        metadata?;
        breakdown.memory_state += sw.lap();
        breakdown.total =
            breakdown.objstore_read + breakdown.memory_state + breakdown.metadata_state;
        let mut pid_pairs: Vec<(u32, u32)> = pid_map.iter().map(|(o, n)| (*o, n.0)).collect();
        pid_pairs.sort();
        breakdown.pid_map = pid_pairs;
        Ok(breakdown)
    }

    /// The page-in pipeline, restore's only eager path: plans every
    /// target from its resolved reference in one read plan, then streams it
    /// in batches of [`RESTORE_BATCH_BLOCKS`] — the device reads batch
    /// *k+1*'s extents (through the store's bounded read cache) while
    /// `workers` threads content-hash what batch *k* fetched — and wires
    /// frames in target order. One worker and a one-page plan are
    /// ordinary inputs. The resulting memory image is what faulting the
    /// same pages in one by one produces, for any worker count (the
    /// differential test in `tests/parallel_restore_diff.rs` checks
    /// exactly this against the lazy path).
    ///
    /// A submission: the clock moves only by the caller's own work
    /// (wiring resident frames, cache-hit probes). Returns the stream in
    /// flight, which the caller settles and waits for once its own work
    /// is done. No frame is used before that wait.
    fn batched_page_in(
        &mut self,
        store: &StoreHandle,
        pager: aurora_vm::PagerId,
        targets: &[Target],
        workers: usize,
        breakdown: &mut RestoreBreakdown,
    ) -> Result<PageInFlight> {
        let clock = self.clock.clone();
        let mut flight = PageInFlight {
            start: clock.now(),
            workers: workers as u64,
            batches: Vec::new(),
        };

        // Pass 1: wire what is already resident — frames of sibling
        // instances, or of any image holding the same stored block — and
        // collect the rest, with its identity and once each, for the
        // fetch. Each identity comes from the target's own reference.
        let mut fetch: Vec<(VmoId, u64, u64, PageId)> = Vec::new();
        let mut refs: Vec<Option<PageRef>> = Vec::new();
        let mut queued: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        for &(v, oid, idx, page_ref) in targets {
            if self.kernel.vm.object(v).page(idx).is_some() {
                continue;
            }
            // A hole restores as zeros, private to this image.
            let id = page_ref.map_or(PageId::Private, |r| {
                page_identity(store, r, store.borrow().recorded_hash(r))
            });
            let id = match self.kernel.vm.find_resident_as(pager, oid, idx, id) {
                Residency::Resident(frame) => {
                    self.kernel
                        .vm
                        .object_mut(v)
                        .insert_page(idx, ResidentPage::paged_in(frame));
                    self.clock
                        .charge(SimDuration::from_nanos(cost::RESTORE_PAGE_WIRE_NS));
                    breakdown.pages_prefetched += 1;
                    continue;
                }
                Residency::Absent(id) => id,
            };
            if queued.insert((oid, idx)) {
                fetch.push((v, oid, idx, id));
                refs.push(page_ref);
            }
        }
        breakdown.restore_workers = workers as u64;
        if fetch.is_empty() {
            return Ok(flight);
        }

        // Pass 2: one read plan for every missing page, from the same
        // references; dedup-shared blocks resolve once, adjacent blocks
        // coalesce into extents.
        let plan = store.borrow().plan_reads(&refs);

        // Pass 3: stream the plan, batch by batch. All extents go to the
        // device back to back, unwaited; the hash of what a batch fetched
        // starts when its reads complete and runs beside the later
        // batches' reads, on a horizon of its own. The hashes are
        // recorded for fetched blocks that had none on record, and every
        // fetched block was compared with its recorded hash by the read
        // itself before it entered the read cache.
        let mut pages: HashMap<u64, PageData> = HashMap::with_capacity(plan.blocks.len());
        let mut read_done = clock.now();
        for batch in plan.extent_batches(RESTORE_BATCH_BLOCKS) {
            let outcome = store.borrow_mut().execute_read_plan_range(&plan, batch)?;
            // Cache hits are in once their probes are charged.
            read_done = read_done.max(outcome.done).max(clock.now());
            // The read already hashed the blocks it had a recorded hash
            // to check against; the workers hash the rest.
            let unhashed: Vec<&PageData> = outcome
                .fetched
                .iter()
                .zip(&outcome.fetched_hashes)
                .filter(|(_, known)| known.is_none())
                .filter_map(|(b, _)| outcome.pages.get(b))
                .collect();
            let mut computed = hash_pages(&unhashed, |page| page, workers).into_iter();
            let pairs: Vec<(u64, u64)> = outcome
                .fetched
                .iter()
                .zip(&outcome.fetched_hashes)
                .filter_map(|(&b, known)| Some((b, known.or_else(|| computed.next())?)))
                .collect();
            store.borrow_mut().note_read_hashes(&pairs);
            flight.batches.push((read_done, outcome.fetched.len() as u64));
            breakdown.cache_hits += outcome.cache_hits;
            breakdown.cache_misses += outcome.cache_misses;
            breakdown.extents_read += outcome.extents_read;
            pages.extend(outcome.pages);
        }
        let hashed = flight.batches.iter().map(|&(_, pages)| pages).sum();
        breakdown.hash_work += cost::hash_stage(hashed, flight.workers);
        breakdown.pages_hashed += hashed;

        // Pass 4: wire frames in target order. Delta-backed pages
        // fetched their chain's *base* block through the plan; the chain
        // replays over it here. Nothing runs on the restored objects
        // before the caller's wait for the stream.
        for (i, &(v, oid, idx, id)) in fetch.iter().enumerate() {
            let chain = plan.chains.get(i).copied().flatten();
            let data = match plan.resolved.get(i).copied().flatten() {
                Some(ptr) => {
                    let base = pages.get(&ptr.0).cloned().ok_or_else(|| {
                        Error::internal(format!("planned block {} missing from read outcome", ptr.0))
                    })?;
                    match chain {
                        Some(lsn) => store.borrow().apply_chain(&base, lsn)?,
                        None => base,
                    }
                }
                None => {
                    // A chain head with no resolvable base means the log
                    // lost records — zero-filling would hide corruption.
                    if let Some(lsn) = chain {
                        return Err(Error::corrupt(format!(
                            "object {oid} page {idx}: delta chain at lsn {lsn} \
                             has no resolvable base"
                        )));
                    }
                    PageData::Zero
                }
            };
            let frame = self.kernel.vm.publish_frame(pager, oid, idx, id, data);
            self.kernel
                .vm
                .object_mut(v)
                .insert_page(idx, ResidentPage::paged_in(frame));
            breakdown.pages_prefetched += 1;
        }
        Ok(flight)
    }

    /// Forgets the shared restore image for (`store`, `ckpt`): the
    /// pager-cache entry goes, and so do the image's memberships in the
    /// frame index. Subsequent restores from the checkpoint start cold,
    /// as on a machine that has never run the application — the state
    /// warm-start benchmarks measure against. An instance still running
    /// from the image keeps its pager, which is unregistered when the
    /// last object bound to it dies.
    pub fn release_image(&mut self, store: &StoreHandle, ckpt: CkptId) {
        let cache_key = (Rc::as_ptr(store) as usize, ckpt.0);
        if let Some(pager) = self.sls.pager_cache.remove(&cache_key) {
            self.kernel.vm.release_pager(pager);
        }
    }

    /// Rolls a live persistence group back to a checkpoint
    /// (`sls_rollback`): the current members are killed and the group is
    /// re-created from the image. Pending speculation flags are raised
    /// for the restored processes.
    pub fn rollback(
        &mut self,
        gid: crate::GroupId,
        ckpt: Option<CkptId>,
    ) -> Result<RestoreBreakdown> {
        let (store, ckpt) = {
            let group = self.sls.group_ref(gid)?;
            let ckpt = match ckpt {
                Some(c) => c,
                None => group
                    .last_checkpoint()
                    .ok_or_else(|| Error::invalid("group has no checkpoints"))?,
            };
            let backend = group
                .backends
                .first()
                .ok_or_else(|| Error::internal("group has no backends"))?;
            (backend.store.clone(), ckpt)
        };
        // Kill the current incarnation.
        let members = self.group_members(gid);
        for pid in &members {
            let _ = self.kernel.exit(*pid, 128);
            self.kernel.procs.remove(pid);
        }
        let breakdown = self.restore(&store, ckpt, RestoreMode::LazyPrefetch)?;
        // Re-register the restored tree under the SAME group so periodic
        // checkpointing and history continue seamlessly.
        for (_, new) in &breakdown.pid_map {
            self.kernel.proc_mut(Pid(*new))?.persist_group = Some(gid.0);
            self.sls.rolled_back.insert(Pid(*new));
        }
        if let Some(root) = breakdown.root_pid() {
            let group = self.sls.group_mut(gid)?;
            group.root = root;
            // The restored incarnation's memory is new VM objects; the
            // next checkpoint must be full (with image consolidation).
            for backend in group.backends.iter_mut() {
                backend.needs_full = true;
            }
        }
        Ok(breakdown)
    }
}

/// A page-in submitted to the device and the restore workers: when it
/// started, and when each batch's reads completed and how many pages it
/// fetched.
struct PageInFlight {
    start: SimTime,
    workers: u64,
    batches: Vec<(SimTime, u64)>,
}

impl PageInFlight {
    /// When the last batch is verified if the caller's core is busy from
    /// `from` to `until`.
    fn verified(&self, from: SimTime, until: SimTime) -> SimTime {
        let mut trail =
            cost::HashTrail::new(self.start, self.workers).with_caller_busy(from, until);
        for &(read_done, pages) in &self.batches {
            trail.fold(read_done, pages);
        }
        trail.done()
    }

    /// Settles the stream around the metadata phase the caller ran from
    /// `submitted` to `metadata_end` and returns when its last batch is
    /// verified. The device reads on whatever the caller does, but the
    /// caller's core is one of the hash lanes: the phase slows the
    /// verification to the other lanes' pace, and at one worker stops
    /// it. `breakdown.stream` is the stream as it runs with the caller
    /// waiting, and the part of it the phase hid: what is left once the
    /// waits exposed after the phase, `read_stage` (with the
    /// submission's own wiring and probes) and `hash_stage`, are taken
    /// off.
    fn settle(
        &self,
        submitted: SimTime,
        metadata_end: SimTime,
        breakdown: &mut RestoreBreakdown,
    ) -> SimTime {
        let read_done = self
            .batches
            .last()
            .map_or(submitted, |&(done, _)| done)
            .max(submitted);
        let alone = self.verified(submitted, submitted).max(read_done);
        let verified = self.verified(submitted, metadata_end).max(read_done);
        breakdown.read_stage = submitted.since(self.start) + read_done.since(metadata_end);
        breakdown.hash_stage = verified.since(read_done.max(metadata_end));
        breakdown.stream = PageInStream {
            read: read_done.since(self.start),
            verify: alone.since(read_done),
            hidden: alone
                .since(self.start)
                .saturating_sub(breakdown.read_stage + breakdown.hash_stage),
        };
        verified
    }
}

/// Blocks of the read plan fetched and verified per batch of the
/// streamed page-in; the audits stream in the same batches, and one
/// post-commit scrub step checks one of them.
pub use aurora_objstore::read::RESTORE_BATCH_BLOCKS;

/// Every metadata record of a checkpoint, parsed: its manifest and the
/// records the manifest names.
struct Records {
    manifest: ManifestRec,
    vmos: Vec<VmoRec>,
    procs: Vec<ProcRec>,
    files: Vec<FileRec>,
    pipes: Vec<PipeRec>,
    usocks: Vec<UsockRec>,
    isocks: Vec<IsockRec>,
    shms: Vec<ShmRec>,
    msgqs: Vec<MsgqRec>,
    pshms: Vec<PshmRec>,
}

/// Fetches and parses every record of a checkpoint. All record read
/// charges happen here (the "Object Store Read" phase).
fn fetch_records(store: &StoreHandle, ckpt: CkptId) -> Result<Records> {
    let mut st = store.borrow_mut();
    // The manifest key embeds the group id. Several groups can share a
    // store, so take the manifest written nearest to this checkpoint in
    // its chain — that is the group the checkpoint belongs to.
    let manifest_key = st
        .nearest_blob_key(ckpt, "/manifest")
        .ok_or_else(|| Error::bad_image("checkpoint has no manifest"))?;
    let manifest = ManifestRec::decode(
        &st.get_blob(ckpt, &manifest_key)?
            .ok_or_else(|| Error::bad_image("manifest unreadable"))?,
    )?;
    let gid = manifest.gid;

    let mut fetch = |key: String| -> Result<Vec<u8>> {
        st.get_blob(ckpt, &key)?
            .ok_or_else(|| Error::bad_image(format!("missing record {key}")))
    };
    let mut vmos = Vec::new();
    for oid in &manifest.vmos {
        vmos.push(VmoRec::decode(&fetch(key_vmo(gid, *oid))?)?);
    }
    let mut procs = Vec::new();
    for pid in &manifest.pids {
        procs.push(ProcRec::decode(&fetch(key_proc(gid, *pid))?)?);
    }
    let mut files = Vec::new();
    for id in &manifest.files {
        files.push(FileRec::decode(&fetch(key_file(gid, *id))?)?);
    }
    let mut pipes = Vec::new();
    for id in &manifest.pipes {
        pipes.push(PipeRec::decode(&fetch(key_pipe(gid, *id))?)?);
    }
    let mut usocks = Vec::new();
    for id in &manifest.usocks {
        usocks.push(UsockRec::decode(&fetch(key_usock(gid, *id))?)?);
    }
    let mut isocks = Vec::new();
    for id in &manifest.isocks {
        isocks.push(IsockRec::decode(&fetch(key_isock(gid, *id))?)?);
    }
    let mut shms = Vec::new();
    for key in &manifest.shms {
        shms.push(ShmRec::decode(&fetch(key_shm(gid, *key))?)?);
    }
    let mut msgqs = Vec::new();
    for key in &manifest.msgqs {
        msgqs.push(MsgqRec::decode(&fetch(key_msgq(gid, *key))?)?);
    }
    let mut pshms = Vec::new();
    for name in &manifest.pshms {
        pshms.push(PshmRec::decode(&fetch(key_pshm(gid, name))?)?);
    }
    Ok(Records {
        manifest,
        vmos,
        procs,
        files,
        pipes,
        usocks,
        isocks,
        shms,
        msgqs,
        pshms,
    })
}
