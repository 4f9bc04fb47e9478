//! The checkpoint path: serialization barrier, object capture, COW
//! arming, asynchronous flush.
//!
//! The phase structure reproduces Table 3's breakdown:
//!
//! * **Metadata copy** — while the group is stopped, every reachable
//!   kernel object serializes itself into an independent record.
//! * **Lazy data copy** — dirty pages are *armed* for checkpoint COW
//!   (one page-table manipulation each); no data moves at the barrier.
//! * **Application stop time** — barrier entry + the two phases above +
//!   resume.
//!
//! After the processes resume, the frozen pages and metadata records are
//! flushed to every attached backend and committed; the commit returns
//! the durable instant, which gates external-consistency release.

use std::collections::{BTreeSet, HashMap, HashSet};

use aurora_objstore::ObjId;
use aurora_posix::fd::FileKind;
use aurora_posix::inet::IsockState;
use aurora_posix::unix::UsockState;
use aurora_posix::{FileId, Kernel, Pid};
use aurora_sim::clock::Stopwatch;
use aurora_sim::cost;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimTime;
use aurora_vm::cow::{self, Capture};
use aurora_vm::{PagerId, VmoId};

use crate::flush::{delta_runs, hash_images, DirtyRuns, PlanEntry, FLUSH_BATCH_PAGES};
use crate::group::{Group, GroupId, ScrubFinding};
use crate::metrics::{CheckpointBreakdown, CheckpointOutcome};
use crate::serialize::*;
use crate::{Host, Sls};

/// Whether a flush-path error aborts the checkpoint (device trouble the
/// pipeline degrades around) rather than surfacing as a pipeline bug.
fn aborts_checkpoint(e: &Error) -> bool {
    use aurora_sim::error::ErrorKind;
    matches!(
        e.kind(),
        ErrorKind::Io
            | ErrorKind::DeviceDead
            | ErrorKind::Corrupt
            | ErrorKind::NoSpace
            | ErrorKind::WouldBlock
    )
}

/// Everything captured at the barrier, ready to flush.
pub(crate) struct CapturedState {
    pub manifest: ManifestRec,
    pub blobs: Vec<(String, Vec<u8>)>,
    /// Armed pages to write to the backends.
    pub plan: cow::EpochPlan,
    /// VM object → store object for this capture.
    pub vmo_oid: Vec<(VmoId, ObjId)>,
}

impl Host {
    /// Takes a checkpoint of a persistence group.
    ///
    /// `full` captures every resident page; otherwise only pages dirtied
    /// since the previous checkpoint are captured (incremental). A
    /// freshly attached backend forces the next checkpoint to be full.
    ///
    /// This is also the cycle [`Host::checkpoint_pipelined`] runs once
    /// the fleet scheduler admits it (see `crate::fleet`).
    pub fn checkpoint(
        &mut self,
        gid: GroupId,
        full: bool,
        name: Option<&str>,
    ) -> Result<CheckpointBreakdown> {
        let members = self.group_members(gid);
        if members.is_empty() {
            return Err(Error::invalid(format!(
                "persistence group {} has no live members",
                gid.0
            )));
        }
        let requested_full = full;
        let full = requested_full
            || self
                .sls
                .group_ref(gid)?
                .backends
                .iter()
                .any(|b| b.needs_full);

        let mut breakdown = CheckpointBreakdown {
            full,
            ..CheckpointBreakdown::default()
        };
        // The caller asked for an incremental checkpoint but a backend
        // needs a full base (fresh attach, or recovery from an earlier
        // abort): report the degradation instead of silently upgrading.
        if full && !requested_full {
            breakdown.outcome = CheckpointOutcome::DegradedToFull;
            breakdown.fault = Some("backend requires a full base: degraded to full".into());
            self.sls.stats.checkpoints_degraded += 1;
        }
        // An incremental checkpoint is only as good as the base it
        // extends, but the base is not re-read here: the running
        // application's memory already holds the newest bytes of every
        // page it references. Each cycle's post-commit scrub step checks
        // one batch of the group's head instead, and the damage it found
        // is healed forward below, by rewriting those pages from memory.

        // Full checkpoints consolidate lazily-restored images: every
        // pager-backed page is faulted in *before* the barrier (off the
        // stop-time path) so the capture sees the whole working set.
        // Dedup makes the subsequent store writes free for unchanged
        // pages.
        if full {
            self.consolidate_images(&members)?;
        }
        let rewrites = self.mark_rewrites(gid, &members, &mut breakdown)?;

        let mut sw = Stopwatch::start(&self.clock);

        // --- Barrier: stop every member. ----------------------------------
        for &pid in &members {
            self.kernel.stop_process(pid)?;
        }
        let ec_seq = self.kernel.ec_advance_pending(gid.0);
        let barrier_entry = sw.lap();

        // --- Phase 1: metadata copy. ---------------------------------------
        let mut captured = capture_metadata(
            &mut self.kernel,
            &mut self.sls,
            gid,
            &members,
            ec_seq,
            full,
        )?;
        breakdown.metadata_copy = sw.lap();
        breakdown.metadata_bytes = captured.blobs.iter().map(|(_, b)| b.len() as u64).sum();

        // --- Phase 2: lazy data copy (COW arming). --------------------------
        {
            let since = self.sls.group_ref(gid)?.since_epoch;
            let capture = if full {
                Capture::Full
            } else {
                Capture::DirtySince(since)
            };
            let maps: Vec<&aurora_vm::VmMap> = members
                .iter()
                .map(|pid| {
                    self.kernel.procs.get(pid).map(|p| &p.map).ok_or_else(|| {
                        Error::internal(format!("group member pid {} vanished at barrier", pid.0))
                    })
                })
                .collect::<Result<_>>()?;
            captured.plan = cow::begin_epoch(&mut self.kernel.vm, &maps, capture);
        }
        breakdown.lazy_data_copy = sw.lap();
        self.sls.group_mut(gid)?.since_epoch = captured.plan.epoch + 1;
        breakdown.pages = captured.plan.armed_pages;

        // --- Resume. ---------------------------------------------------------
        for &pid in &members {
            self.kernel.resume_process(pid)?;
        }
        let resume = sw.lap();
        breakdown.stop_time =
            barrier_entry + breakdown.metadata_copy + breakdown.lazy_data_copy + resume;

        // --- Background flush to every backend. ------------------------------
        if let Err(e) = flush_capture(
            &mut self.kernel,
            &mut self.sls,
            gid,
            &captured,
            full,
            name,
            &mut breakdown,
        ) {
            if aborts_checkpoint(&e) {
                return self.abort_checkpoint(gid, &captured, breakdown, e);
            }
            return Err(e);
        }
        breakdown.ckpt = self.sls.group_ref(gid)?.last_checkpoint();

        // Release the frozen frames: their contents are on the stores'
        // media now.
        cow::release_flushed(&mut self.kernel.vm, &captured.plan);

        let group = self.sls.group_mut(gid)?;
        group.ec_outstanding.push_back((ec_seq, breakdown.durable_at));
        // The marked pages are durable as full images now.
        for page in &rewrites {
            group.rewrite.remove(page);
        }
        breakdown.rewritten = rewrites.len() as u64;

        // A checkpoint that committed while a mirror replica was
        // detached, rebuilding, or unhealthy is durable but
        // under-replicated: keep the pipeline flowing, report it.
        if breakdown.outcome == CheckpointOutcome::Committed {
            let degraded_mirror = self.sls.group_ref(gid)?.backends.iter().any(|b| {
                b.store
                    .borrow()
                    .device()
                    .as_mirror()
                    .is_some_and(|m| m.is_degraded())
            });
            if degraded_mirror {
                breakdown.outcome = CheckpointOutcome::DegradedMirror;
                breakdown.note_fault("mirror degraded: a replica is detached or rebuilding".into());
            }
        }

        // Ship this epoch to the hot standby (if one is attached) and
        // drain any due acks. Never blocks the commit: a standby that
        // falls behind degrades the outcome instead.
        self.replicate_after_checkpoint(&mut breakdown);

        // Post-commit maintenance. The checkpoint is durable and in every
        // backend's history already, so a failure here is reported on
        // the committed outcome, never as an error: history-window GC
        // keeps an undeleted victim for the next cycle, and a chain left
        // unfolded is folded by it.
        if let Err(e) = gc_history(&mut self.sls, gid) {
            breakdown.note_fault(format!("history GC failed: {e}"));
        }
        // Background chain compaction: a chain at the policy cap can
        // never grow another delta (the next write takes the full-image
        // path), but a *cold* page's capped chain would otherwise tax
        // every future restore with replay. Fold those now.
        if let Err(e) = self.compact_chains(gid) {
            breakdown.note_fault(format!("chain compaction failed: {e}"));
        }
        self.scrub_step(gid, &mut breakdown)?;
        breakdown.unhealed = self.sls.group_ref(gid)?.rewrite.len() as u64;
        self.poll_durability();
        Ok(breakdown)
    }

    /// Heals forward from memory, before the barrier. The damage scrub
    /// steps found whose verdicts are in by now joins the group's
    /// rewrite set, and each damaged block leaves its store's dedup
    /// index, so the rewrite gets a fresh block rather than a dedup hit
    /// on the bad one. Every page of the set with a resident frame is
    /// then marked dirty in whole: the capture takes it as a full image,
    /// and a delta over a bad base becomes an image. Returns the pages
    /// marked. A page with no resident frame (pager-backed, or not a VM
    /// page) cannot be healed from memory: it stays in the set and is
    /// named in the breakdown's fault.
    fn mark_rewrites(
        &mut self,
        gid: GroupId,
        members: &[Pid],
        breakdown: &mut CheckpointBreakdown,
    ) -> Result<Vec<(ObjId, u64)>> {
        let now = self.clock.now();
        let group = self.sls.group_mut(gid)?;
        for backend in group.backends.iter_mut() {
            let (ready, later) = std::mem::take(&mut backend.scrub_findings)
                .into_iter()
                .partition(|f| f.ready_at <= now);
            backend.scrub_findings = later;
            let mut store = backend.store.borrow_mut();
            for damage in ready.iter().flat_map(|f: &ScrubFinding| &f.damaged) {
                if let Some(block) = damage.block {
                    store.condemn_block(block);
                }
                group.rewrite.insert((damage.oid, damage.idx));
            }
        }
        if group.rewrite.is_empty() {
            return Ok(Vec::new());
        }

        // The store object of every VM object the members reach.
        let mut vmo_of: HashMap<ObjId, VmoId> = HashMap::new();
        for &pid in members {
            for entry in self.kernel.proc_ref(pid)?.map.entries() {
                let mut cur = Some(entry.object);
                while let Some(v) = cur {
                    let obj = self.kernel.vm.object(v);
                    if let Some(&oid) = group.vmo_oids.get(&obj.uid) {
                        if vmo_of.insert(ObjId(oid), v).is_some() {
                            break;
                        }
                    }
                    cur = obj.backing.map(|(b, _)| b);
                }
            }
        }
        let vm_oids: HashSet<u64> = group.vmo_oids.values().copied().collect();
        let epoch = self.kernel.vm.epoch;
        let (mut marked, mut unhealed) = (Vec::new(), Vec::new());
        let mut gone = Vec::new();
        for &(oid, idx) in &group.rewrite {
            match vmo_of.get(&oid) {
                Some(&v) if self.kernel.vm.object_mut(v).mark_dirty_full(idx, epoch) => {
                    marked.push((oid, idx));
                }
                Some(_) => unhealed.push((oid, idx)),
                // A VM object no member reaches any more died: its
                // store object goes with this capture.
                None if vm_oids.contains(&oid.0) => gone.push((oid, idx)),
                None => unhealed.push((oid, idx)),
            }
        }
        for page in &gone {
            group.rewrite.remove(page);
        }
        if let Some(&(oid, idx)) = unhealed.first() {
            breakdown.note_fault(format!(
                "{} damaged page(s) have no resident frame to rewrite from, first object {} \
                 page {idx}",
                unhealed.len(),
                oid.0
            ));
        }
        Ok(marked)
    }

    /// The post-commit scrub step: on every backend, checks one
    /// `RESTORE_BATCH_BLOCKS` batch of the group's head, resuming where
    /// the last step stopped and wrapping at the end, and files what it
    /// found damaged for the first checkpoint that starts after its
    /// verdicts are in. Its reads are queued behind the commit on a
    /// materialized store, hashed on the flush workers, and the clock
    /// does not wait for them; a timing-only store checks only the walk
    /// to the blocks and charges no device time.
    fn scrub_step(&mut self, gid: GroupId, breakdown: &mut CheckpointBreakdown) -> Result<()> {
        let workers = self.sls.flush_workers.max(1);
        let group = self.sls.group_mut(gid)?;
        let mut first = None;
        for backend in group.backends.iter_mut() {
            let step =
                backend
                    .store
                    .borrow()
                    .scrub_step(gid.objects(), backend.scrub_from, workers);
            backend.scrub_from = step.next;
            breakdown.scrub_ready_at = breakdown.scrub_ready_at.max(step.ready_at);
            if step.damaged.is_empty() {
                continue;
            }
            breakdown.scrub_damaged += step.damaged.len() as u64;
            first = first.or_else(|| step.damaged.first().map(ToString::to_string));
            backend.scrub_findings.push(ScrubFinding {
                ready_at: step.ready_at,
                damaged: step.damaged,
            });
        }
        if let Some(first) = first {
            let found = breakdown.scrub_damaged;
            breakdown.note_fault(format!("scrub found {found} damaged page(s): {first}"));
        }
        Ok(())
    }

    /// Folds every live delta chain of the group's objects that reached
    /// the policy cap back into a full base image, on every backend of
    /// the group. Each folding backend commits one `chain-compact`
    /// checkpoint through the typestate protocol (recorded in its
    /// history, windowed out by the next GC pass like any other). Returns the number of chains
    /// folded across all backends.
    pub fn compact_chains(&mut self, gid: GroupId) -> Result<u64> {
        let group = self.sls.group_mut(gid)?;
        let mut folded = 0u64;
        for backend in group.backends.iter_mut() {
            let mut store = backend.store.borrow_mut();
            let (delta_max_bytes, delta_max_chain) = store.delta_policy();
            if delta_max_bytes == 0 {
                continue;
            }
            let n = store.compact_chains(gid.objects(), delta_max_chain)? as u64;
            if n > 0 {
                folded += n;
                if let Some(head) = store.head() {
                    backend.history.push(head);
                }
            }
        }
        Ok(folded)
    }

    /// Concludes a checkpoint whose flush failed permanently.
    ///
    /// The committed chain on every backend is untouched — the previous
    /// durable snapshot remains the latest and stays restorable. The
    /// frozen COW frames are released (their contents still live in the
    /// VM objects), and every backend is marked `needs_full` so the next
    /// checkpoint rewrites the whole working set rather than building an
    /// incremental on top of the unfinished capture. Output held for
    /// external consistency stays held until a later checkpoint commits;
    /// that checkpoint covers this epoch's sends, so releasing on its
    /// durability is correct.
    fn abort_checkpoint(
        &mut self,
        gid: GroupId,
        captured: &CapturedState,
        mut breakdown: CheckpointBreakdown,
        cause: Error,
    ) -> Result<CheckpointBreakdown> {
        cow::release_flushed(&mut self.kernel.vm, &captured.plan);
        if let Ok(group) = self.sls.group_mut(gid) {
            for backend in group.backends.iter_mut() {
                backend.needs_full = true;
            }
        }
        self.sls.stats.checkpoints_aborted += 1;
        breakdown.outcome = CheckpointOutcome::Aborted;
        breakdown.fault = Some(cause.to_string());
        breakdown.durable_at = SimTime::ZERO;
        breakdown.ckpt = None;
        self.poll_durability();
        Ok(breakdown)
    }

    /// Faults in every pager-backed page of the members' objects (image
    /// consolidation before a full checkpoint).
    fn consolidate_images(&mut self, members: &[Pid]) -> Result<()> {
        use aurora_vm::object::ResidentPage;
        // Collect (object, pager, key) bindings reachable from members.
        let mut bindings: Vec<(VmoId, PagerId, u64)> = Vec::new();
        let mut seen: HashSet<VmoId> = HashSet::new();
        for &pid in members {
            for entry in self.kernel.proc_ref(pid)?.map.entries() {
                let mut cur = Some(entry.object);
                while let Some(v) = cur {
                    if !seen.insert(v) {
                        break;
                    }
                    let obj = self.kernel.vm.object(v);
                    if let Some((pager, key)) = obj.pager {
                        bindings.push((v, pager, key));
                    }
                    cur = obj.backing.map(|(b, _)| b);
                }
            }
        }
        // The pages each pager holds, asked once per pager.
        let mut keys: HashMap<PagerId, Vec<u64>> = HashMap::new();
        for &(_, pager, key) in &bindings {
            let keys = keys.entry(pager).or_default();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let mut held: HashMap<(PagerId, u64), Vec<u64>> = HashMap::new();
        for (pager, keys) in keys {
            for (key, idx) in self.kernel.vm.pager_mut(pager).held_pages(&keys) {
                held.entry((pager, key)).or_default().push(idx);
            }
        }
        for (v, pager, key) in bindings {
            let object = self.kernel.vm.object(v);
            let size = object.size_pages;
            let resident: HashSet<u64> = object.pages.keys().copied().collect();
            let pages = held.get(&(pager, key)).into_iter().flatten();
            for &idx in pages.take_while(|&&idx| idx < size) {
                if resident.contains(&idx) {
                    continue;
                }
                let data = self.kernel.vm.pager_mut(pager).page_in(key, idx)?;
                let frame = self.kernel.vm.frames.alloc(data);
                let epoch = self.kernel.vm.epoch;
                self.kernel.vm.object_mut(v).insert_page(
                    idx,
                    ResidentPage {
                        frame,
                        write_epoch: epoch,
                        cow_protected: false,
                        referenced: false,
                        heat: 0,
                    },
                );
            }
        }
        Ok(())
    }

    /// Periodic driver: checkpoints when the group's period elapsed.
    /// Returns `None` when not yet due.
    pub fn checkpoint_tick(&mut self, gid: GroupId) -> Result<Option<CheckpointBreakdown>> {
        let now = self.clock.now();
        let due = {
            let group = self.sls.group_ref(gid)?;
            now >= group.next_due
        };
        if !due {
            self.poll_durability();
            return Ok(None);
        }
        let breakdown = self.checkpoint(gid, false, None)?;
        let group = self.sls.group_mut(gid)?;
        group.next_due = now + group.period;
        Ok(Some(breakdown))
    }
}

/// Serializes every kernel object reachable from the group members.
fn capture_metadata(
    kernel: &mut Kernel,
    sls: &mut Sls,
    gid: GroupId,
    members: &[Pid],
    ec_seq: u64,
    full: bool,
) -> Result<CapturedState> {
    let slsfs_mount = sls.slsfs_mount;
    let group: &mut Group = sls
        .groups
        .get_mut(&gid.0)
        .ok_or_else(|| Error::not_found(format!("persistence group {}", gid.0)))?;

    let mut manifest = ManifestRec {
        gid: gid.0,
        ec_seq,
        ..ManifestRec::default()
    };
    let mut blobs: Vec<(String, Vec<u8>)> = Vec::new();

    // Discover reachable open-file descriptions, transitively through
    // SCM_RIGHTS messages parked in Unix sockets.
    let mut files: BTreeSet<u32> = BTreeSet::new();
    let mut usocks: BTreeSet<u32> = BTreeSet::new();
    let mut isocks: BTreeSet<u32> = BTreeSet::new();
    let mut pipes: BTreeSet<u32> = BTreeSet::new();
    let mut pshms: BTreeSet<String> = BTreeSet::new();
    let mut ntlogs: BTreeSet<u64> = BTreeSet::new();
    let mut queue: Vec<FileId> = Vec::new();
    for &pid in members {
        for (_, fid) in kernel.proc_ref(pid)?.fds.iter() {
            queue.push(fid);
        }
    }
    while let Some(fid) = queue.pop() {
        if !files.insert(fid.0) {
            continue;
        }
        let file = kernel
            .files
            .get(fid.0)
            .ok_or_else(|| Error::internal(format!("dangling file id {}", fid.0)))?;
        match &file.kind {
            FileKind::Vnode(vref) => {
                if vref.mount != slsfs_mount {
                    return Err(Error::unsupported(format!(
                        "persisted process holds a vnode on {} (only {} persists)",
                        kernel.vfs.fs_ref(vref.mount).fs_name(),
                        crate::SLSFS_MOUNT,
                    )));
                }
            }
            FileKind::PipeRead(p) | FileKind::PipeWrite(p) => {
                pipes.insert(p.0);
            }
            FileKind::UnixSock(s) => {
                usocks.insert(s.0);
                if let Some(sock) = kernel.usocks.get(s.0) {
                    if let UsockState::Connected(peer) = sock.state {
                        usocks.insert(peer.0);
                        if let Some(psock) = kernel.usocks.get(peer.0) {
                            for msg in &psock.recv {
                                queue.extend(msg.fds.iter().copied());
                            }
                        }
                    }
                    for msg in &sock.recv {
                        queue.extend(msg.fds.iter().copied());
                    }
                }
            }
            FileKind::InetSock(s) => {
                isocks.insert(s.0);
                if let Some(sock) = kernel.isocks.get(s.0) {
                    if let IsockState::Connected(peer) = sock.state {
                        // Capture the peer only when it belongs to the
                        // group; external peers restore disconnected.
                        let peer_owner = kernel.isocks.get(peer.0).map(|p| p.owner);
                        if let Some(po) = peer_owner {
                            if kernel.proc_ref(po).ok().and_then(|p| p.persist_group)
                                == Some(gid.0)
                            {
                                isocks.insert(peer.0);
                            }
                        }
                    }
                }
            }
            FileKind::PosixShm(name) => {
                pshms.insert(name.clone());
            }
            FileKind::NtLog(id) => {
                ntlogs.insert(*id);
            }
        }
    }

    // Memory: the VM objects reachable from member maps (whole shadow
    // chains, visited once).
    let mut vmo_ids: Vec<VmoId> = Vec::new();
    let mut seen: HashSet<VmoId> = HashSet::new();
    for &pid in members {
        for entry in kernel.proc_ref(pid)?.map.entries() {
            if entry.policy.exclude {
                continue;
            }
            let mut cur = Some(entry.object);
            while let Some(oid) = cur {
                if !seen.insert(oid) {
                    break;
                }
                vmo_ids.push(oid);
                cur = kernel.vm.object(oid).backing.map(|(b, _)| b);
            }
        }
    }

    // Assign store ids; prune mappings (and store objects) of dead VMs.
    let mut vmo_oid: Vec<(VmoId, ObjId)> = Vec::new();
    let mut live_uids: HashSet<u64> = HashSet::new();
    for &v in &vmo_ids {
        let uid = kernel.vm.object(v).uid;
        live_uids.insert(uid);
        vmo_oid.push((v, group.oid_for_vmo(uid)));
    }
    let dead: Vec<(u64, u64)> = group
        .vmo_oids
        .iter()
        .filter(|(uid, _)| !live_uids.contains(uid))
        .map(|(u, o)| (*u, *o))
        .collect();
    for (uid, oid) in dead {
        group.vmo_oids.remove(&uid);
        for backend in &group.backends {
            let _ = backend.store.borrow_mut().delete_object(ObjId(oid));
        }
    }

    // SysV/POSIX shm segments whose object the group maps.
    let shm_keys: Vec<i32> = kernel
        .sysv_shms
        .iter()
        .filter(|(_, seg)| seen.contains(&seg.object))
        .map(|(k, _)| *k)
        .collect();
    for (name, shm) in kernel.posix_shms.iter() {
        if seen.contains(&shm.object) {
            pshms.insert(name.clone());
        }
    }
    let msgq_keys: Vec<i32> = group.msgq_keys.clone();

    // --- Serialize VM objects. ---------------------------------------------
    for &(v, oid) in &vmo_oid {
        let obj = kernel.vm.object(v);
        let backing = match obj.backing {
            None => None,
            Some((b, off)) => {
                let buid = kernel.vm.object(b).uid;
                let boid = group.vmo_oids.get(&buid).copied().ok_or_else(|| {
                    Error::internal(format!("backing object uid {buid} missing from walk"))
                })?;
                Some((boid, off))
            }
        };
        let hot = kernel.vm.hottest_pages(v, 32);
        let rec = VmoRec {
            oid: oid.0,
            size_pages: obj.size_pages,
            kind: match obj.kind {
                aurora_vm::VmoKind::Anonymous => 0,
                aurora_vm::VmoKind::Shadow => 1,
                aurora_vm::VmoKind::SharedMem => 2,
                aurora_vm::VmoKind::Vnode { .. } => 3,
            },
            backing,
            hot,
            resident: if full { obj.resident() as u64 } else { 0 },
        };
        blobs.push((key_vmo(gid.0, oid.0), rec.encode()));
        manifest.vmos.push(oid.0);
    }

    // --- Serialize processes. ------------------------------------------------
    for &pid in members {
        let proc = kernel.proc_ref(pid)?;
        let rec = ProcRec {
            pid: pid.0,
            ppid: if members.contains(&proc.ppid) {
                proc.ppid.0
            } else {
                0
            },
            name: proc.name.clone(),
            cwd: proc.cwd.clone(),
            uid: proc.cred.uid,
            gid: proc.cred.gid,
            sig_pending: proc.sig.pending,
            sig_blocked: proc.sig.blocked,
            sig_actions: proc
                .sig
                .actions
                .iter()
                .map(|a| match a {
                    aurora_posix::types::SigAction::Default => (0u8, 0u64),
                    aurora_posix::types::SigAction::Ignore => (1, 0),
                    aurora_posix::types::SigAction::Handler(addr) => (2, *addr),
                })
                .collect(),
            threads: proc
                .threads
                .iter()
                .map(|t| (t.tid.0, t.cpu.clone()))
                .collect(),
            fds: proc.fds.iter().map(|(fd, fid)| (fd.0, fid.0)).collect(),
            map: proc
                .map
                .entries()
                .map(|e| {
                    let uid = kernel.vm.object(e.object).uid;
                    MapEntryRec {
                        start: e.start,
                        end: e.end,
                        oid: group.vmo_oids.get(&uid).copied().unwrap_or(0),
                        offset_pages: e.offset_pages,
                        read: e.prot.read,
                        write: e.prot.write,
                        shared: e.shared,
                        needs_copy: e.needs_copy,
                        exclude: e.policy.exclude,
                        restore_hint: match e.policy.restore {
                            aurora_vm::map::RestoreHint::Auto => 0,
                            aurora_vm::map::RestoreHint::Eager => 1,
                            aurora_vm::map::RestoreHint::Lazy => 2,
                        },
                    }
                })
                .collect(),
        };
        blobs.push((key_proc(gid.0, pid.0), rec.encode()));
        manifest.pids.push(pid.0);
    }

    // --- Serialize open-file descriptions. -----------------------------------
    for &fid in &files {
        let file = kernel
            .files
            .get(fid)
            .ok_or_else(|| Error::internal(format!("file {fid} closed during serialize")))?;
        let kind = match &file.kind {
            FileKind::Vnode(vref) => FileKindRec::Vnode(vref.node),
            FileKind::PipeRead(p) => FileKindRec::PipeRead(p.0),
            FileKind::PipeWrite(p) => FileKindRec::PipeWrite(p.0),
            FileKind::UnixSock(s) => FileKindRec::UnixSock(s.0),
            FileKind::InetSock(s) => FileKindRec::InetSock(s.0),
            FileKind::PosixShm(n) => FileKindRec::PosixShm(n.clone()),
            FileKind::NtLog(id) => FileKindRec::NtLog(*id),
        };
        let rec = FileRec {
            id: fid,
            kind,
            offset: file.offset,
            flags: file.flags,
            ec: file.external_consistency,
        };
        blobs.push((key_file(gid.0, fid), rec.encode()));
        manifest.files.push(fid);
    }

    // --- Pipes. ---------------------------------------------------------------
    for &pid_ in &pipes {
        let pipe = kernel
            .pipes
            .get(pid_)
            .ok_or_else(|| Error::internal("dangling pipe id"))?;
        let rec = PipeRec {
            id: pid_,
            buf: pipe.buf.iter().copied().collect(),
            read_open: pipe.read_open,
            write_open: pipe.write_open,
        };
        blobs.push((key_pipe(gid.0, pid_), rec.encode()));
        manifest.pipes.push(pid_);
    }

    // --- Unix sockets (with in-flight descriptors). ----------------------------
    for &sid in &usocks {
        let sock = kernel
            .usocks
            .get(sid)
            .ok_or_else(|| Error::internal("dangling usock id"))?;
        let state = match sock.state {
            UsockState::Unbound => SockStateRec::Unbound,
            UsockState::Listening => SockStateRec::Listening,
            UsockState::Connected(p) => SockStateRec::Connected(p.0),
            UsockState::Disconnected => SockStateRec::Disconnected,
        };
        let rec = UsockRec {
            id: sid,
            state,
            bound_path: sock.bound_path.clone(),
            recv: sock
                .recv
                .iter()
                .map(|m| (m.bytes.clone(), m.fds.iter().map(|f| f.0).collect()))
                .collect(),
            backlog: sock.backlog.iter().map(|b| b.0).collect(),
        };
        blobs.push((key_usock(gid.0, sid), rec.encode()));
        manifest.usocks.push(sid);
    }

    // --- TCP sockets (held output intentionally dropped). -----------------------
    for &sid in &isocks {
        let sock = kernel
            .isocks
            .get(sid)
            .ok_or_else(|| Error::internal("dangling isock id"))?;
        let state = match sock.state {
            IsockState::Unbound => SockStateRec::Unbound,
            IsockState::Listening => SockStateRec::Listening,
            IsockState::Connected(p) => {
                if isocks.contains(&p.0) {
                    SockStateRec::Connected(p.0)
                } else {
                    SockStateRec::Disconnected
                }
            }
            IsockState::Disconnected => SockStateRec::Disconnected,
        };
        let rec = IsockRec {
            id: sid,
            state,
            port: sock.local_port,
            owner: sock.owner.0,
            recv: sock.recv.iter().copied().collect(),
            backlog: sock.backlog.iter().map(|b| b.0).collect(),
        };
        blobs.push((key_isock(gid.0, sid), rec.encode()));
        manifest.isocks.push(sid);
    }

    // --- System V shared memory. -------------------------------------------------
    for key in shm_keys {
        let seg = kernel
            .sysv_shms
            .get(&key)
            .ok_or_else(|| Error::internal(format!("sysv shm key {key} removed during walk")))?;
        let uid = kernel.vm.object(seg.object).uid;
        let rec = ShmRec {
            key,
            size: seg.size,
            oid: group.vmo_oids.get(&uid).copied().unwrap_or(0),
            removed: seg.removed,
        };
        blobs.push((key_shm(gid.0, key), rec.encode()));
        manifest.shms.push(key);
    }

    // --- POSIX shared memory. ------------------------------------------------------
    for name in &pshms {
        let shm = kernel
            .posix_shms
            .get(name)
            .ok_or_else(|| Error::internal("dangling posix shm"))?;
        let uid = kernel.vm.object(shm.object).uid;
        let rec = PshmRec {
            name: name.clone(),
            size: shm.size,
            oid: group.vmo_oids.get(&uid).copied().unwrap_or(0),
            unlinked: shm.unlinked,
            open_refs: shm.open_refs,
        };
        blobs.push((key_pshm(gid.0, name), rec.encode()));
        manifest.pshms.push(name.clone());
    }

    // --- Message queues registered with the group. ----------------------------------
    for key in msgq_keys {
        if let Some(q) = kernel.msgqs.get(&key) {
            let rec = MsgqRec {
                key,
                msgs: q.msgs.iter().map(|m| (m.mtype, m.data.clone())).collect(),
            };
            blobs.push((key_msgq(gid.0, key), rec.encode()));
            manifest.msgqs.push(key);
        }
    }

    manifest.ntlogs = ntlogs.iter().copied().collect();

    if let Some(ct) = kernel.proc_ref(group.root).ok().and_then(|p| p.container) {
        if let Some(c) = kernel.containers.get(ct.0) {
            manifest.container = Some((c.name.clone(), c.root.clone()));
        }
    }

    manifest.name = group.name.clone();
    manifest.root = group.root.0;
    manifest.next_oid = group.next_oid;

    // Charge the serialization cost of every record.
    for (_, bytes) in &blobs {
        kernel.clock.charge(cost::meta_serialize(bytes.len()));
    }

    // File-system metadata commits with the same checkpoint.
    kernel.vfs.fs(slsfs_mount).sync()?;

    Ok(CapturedState {
        manifest,
        blobs,
        plan: cow::EpochPlan::default(),
        vmo_oid,
    })
}

/// Writes captured pages and records to every backend and commits.
/// Once every backend committed, fills the breakdown's flush fields:
/// `durable_at`, the max of the backends' durable instants, and the
/// hash, span and byte telemetry; a failed flush leaves them unset.
///
/// The pipeline runs in plan order (see `crate::flush`):
///
/// 1. **Resolve + partition** — each armed page is resolved to its
///    store object once, and every backend decides delta-vs-image for
///    it before anything is hashed.
/// 2. **Stream** — per batch of `FLUSH_BATCH_PAGES`: content-hash the
///    pages some backend stores as an image (once, shared by every
///    backend), then each backend stages the batch's delta records
///    straight from the plan and applies its images through
///    `ObjectStore::write_pages_coalesced`, which batches adjacent
///    fresh blocks into extent-sized vectored device writes. Device
///    submissions complete asynchronously, so batch *k* drains while
///    batch *k+1* is hashed.
/// 3. **Commit** — one appended record and one flush per backend; the
///    checkpoint is durable at the max of the backends' durable
///    instants. The clock does not wait for the commit: it completes
///    at `durable_at`, ahead of the clock.
///
/// Any error propagates without committing; `abort_checkpoint` then
/// forces the next checkpoint full, so a partially-applied plan on one
/// backend is never extended incrementally.
fn flush_capture(
    kernel: &mut Kernel,
    sls: &mut Sls,
    gid: GroupId,
    captured: &CapturedState,
    full: bool,
    name: Option<&str>,
    breakdown: &mut CheckpointBreakdown,
) -> Result<()> {
    let next_group = sls.next_group_value();
    let workers = sls.flush_workers.max(1);

    // --- Stage 1: resolve the plan and partition it per backend. ------
    let oid_of: HashMap<VmoId, ObjId> = captured.vmo_oid.iter().copied().collect();
    let plan: Vec<PlanEntry<'_>> = captured
        .plan
        .flush
        .iter()
        .map(|fp| {
            let oid = *oid_of
                .get(&fp.object)
                .ok_or_else(|| Error::internal("flush page of uncaptured object"))?;
            Ok(PlanEntry {
                oid,
                idx: fp.page_idx,
                frame: fp.frame,
                dirty: &fp.dirty,
            })
        })
        .collect::<Result<_>>()?;
    // `deltas[backend][page]`: the runs that backend appends as a delta
    // record, `None` where it stores the image.
    let deltas: Vec<Vec<Option<DirtyRuns<'_>>>> = sls
        .group_ref(gid)?
        .backends
        .iter()
        .map(|backend| {
            let store = backend.store.borrow();
            plan.iter()
                .map(|page| delta_runs(&store, full, page))
                .collect()
        })
        .collect();
    let mut wants_image = vec![false; plan.len()];
    for backend in &deltas {
        for (wanted, runs) in wants_image.iter_mut().zip(backend) {
            *wanted |= runs.is_none();
        }
    }

    // The hash stage is charged at its modeled per-core bandwidth
    // divided by the worker count, for the pages some backend stores as
    // an image, so checkpoint latency and the flush span reflect the
    // configured parallelism regardless of how many physical CPUs the
    // harness happens to have. It is charged to the driving clock batch
    // by batch below; the charges sum to exactly `hash_stage`.
    let flush_start = kernel.clock.now();
    let hash_cost = |pages: u64| cost::hash_stage(pages, workers as u64);
    let pages_hashed = wants_image.iter().filter(|&&wanted| wanted).count() as u64;
    let hash_stage = hash_cost(pages_hashed);
    let group = sls
        .groups
        .get_mut(&gid.0)
        .ok_or_else(|| Error::not_found(format!("persistence group {}", gid.0)))?;

    let mut delta_bytes0 = Vec::with_capacity(group.backends.len());
    for backend in &group.backends {
        let mut store = backend.store.borrow_mut();
        for &(v, oid) in &captured.vmo_oid {
            if !store.object_exists(oid) {
                store.create_object(oid, kernel.vm.object(v).size_pages)?;
            }
        }
        delta_bytes0.push(store.stats.delta_bytes);
    }

    // --- Stage 2: stream the plan, batch by batch. --------------------
    // Batch k's images reach the device queue before batch k+1 is
    // hashed, so the device drains under the next batch's hash.
    let mut delta_batches: Vec<_> = deltas
        .iter()
        .map(|backend| backend.chunks(FLUSH_BATCH_PAGES))
        .collect();
    let mut hashed = 0u64;
    for (pages, wanted) in plan
        .chunks(FLUSH_BATCH_PAGES)
        .zip(wants_image.chunks(FLUSH_BATCH_PAGES))
    {
        let images = hash_images(&kernel.vm.frames, pages, wanted, workers);
        // The difference of the cumulative cost, so the per-batch
        // charges telescope to `hash_stage` to the nanosecond.
        let before = hash_cost(hashed);
        hashed += wanted.iter().filter(|&&wanted| wanted).count() as u64;
        kernel.clock.charge(hash_cost(hashed).saturating_sub(before));
        for (backend, batches) in group.backends.iter().zip(&mut delta_batches) {
            let runs = batches
                .next()
                .ok_or_else(|| Error::internal("delta partition shorter than the plan"))?;
            let mut store = backend.store.borrow_mut();
            // Stage this backend's delta records straight from the
            // frozen frames and collect its images, both in plan order.
            let mut writes: Vec<&aurora_objstore::PageWrite> = Vec::new();
            for ((page, runs), image) in pages.iter().zip(runs).zip(&images) {
                match (runs, image) {
                    (Some(runs), _) => store.stage_delta(
                        page.oid,
                        page.idx,
                        kernel.vm.frames.data(page.frame),
                        runs,
                    )?,
                    (None, Some(write)) => writes.push(write),
                    (None, None) => return Err(Error::internal("image page was not hashed")),
                }
            }
            store.write_pages_coalesced(writes)?;
        }
    }

    // --- Stage 3: commit, per backend. --------------------------------
    let mut durable = SimTime::ZERO;
    let mut flush_bytes = 0u64;
    for ((backend, backend_deltas), delta_bytes0) in
        group.backends.iter_mut().zip(&deltas).zip(&delta_bytes0)
    {
        let mut store = backend.store.borrow_mut();
        for (key, bytes) in &captured.blobs {
            store.put_blob(key, bytes.clone());
        }
        store.put_blob(&key_manifest(gid.0), captured.manifest.encode());
        // Host-level durable state: the group-id allocator. Group ids
        // must never be reused across reboots — a fresh group with a
        // recycled id would share the old incarnation's store-object
        // namespace, and colliding object ids would leak stale pages
        // through the checkpoint chain.
        store.put_blob("sls/host", sls_host_blob(next_group));
        let (ckpt, backend_durable) = store.commit(name)?;
        // Real bytes this backend flushed for page data: full images plus
        // the delta records the commit just made durable. The report
        // carries the widest backend.
        let backend_dbytes = store.stats.delta_bytes - delta_bytes0;
        let images = backend_deltas.iter().filter(|runs| runs.is_none()).count() as u64;
        flush_bytes = flush_bytes.max(images * aurora_vm::PAGE_SIZE as u64 + backend_dbytes);
        backend.history.push(ckpt);
        if full {
            backend.needs_full = false;
        }
        durable = durable.max(backend_durable);
    }
    // A flush is not durable before its hash is done.
    let hash_done = flush_start + hash_stage;
    durable = durable.max(hash_done);

    breakdown.durable_at = durable;
    breakdown.flush_workers = workers as u64;
    breakdown.hash_stage = hash_stage;
    breakdown.pages_hashed = pages_hashed;
    breakdown.flush_span = durable.since(flush_start);
    // Device work no later batch's hash was left to hide.
    breakdown.write_wait = durable.since(hash_done);
    breakdown.flush_bytes = flush_bytes;
    Ok(())
}

/// Encodes the durable host state blob.
fn sls_host_blob(next_group: u32) -> Vec<u8> {
    let mut e = aurora_sim::codec::Encoder::new();
    e.u32(next_group);
    e.into_vec()
}

/// Trims each backend's history to the group's window (in-place GC).
fn gc_history(sls: &mut Sls, gid: GroupId) -> Result<()> {
    let group = sls
        .groups
        .get_mut(&gid.0)
        .ok_or_else(|| Error::not_found(format!("persistence group {}", gid.0)))?;
    let window = group.history_window;
    for backend in group.backends.iter_mut() {
        while backend.history.len() > window {
            let Some(&victim) = backend.history.first() else { break };
            // Pop the victim only once its delete is durable: a failed
            // delete leaves it in the store, so it stays in the history.
            backend.store.borrow_mut().delete_checkpoint(victim)?;
            backend.history.remove(0);
        }
    }
    Ok(())
}
