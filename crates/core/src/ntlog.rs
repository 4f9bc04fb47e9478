//! Persistent non-temporal logs (`sls_ntflush`).
//!
//! Databases replace their write-ahead logs with this primitive: an
//! append-only log in the object store with a *low-latency synchronous
//! flush* that bypasses the checkpoint cycle. On restore, the application
//! reads the log tail and repairs its structures — exactly the
//! RocksDB/Redis port strategy of §4.
//!
//! Each flush is a store mini-commit (one journal record, one flush);
//! the previous mini-commit is garbage-collected in place, so the log
//! adds a bounded number of checkpoints to the store.

use aurora_objstore::{CkptId, ObjectStore};
use aurora_posix::fd::{FileKind, OpenFile};
use aurora_posix::{Fd, Pid};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, Result};
use aurora_vm::{PageData, PAGE_SIZE};

use crate::serialize::key_ntlog;
use crate::{GroupId, Host};

/// Live state of one persistent log.
#[derive(Debug, Clone, Copy)]
pub struct NtLogState {
    /// Store object holding the log bytes.
    pub oid: u64,
    /// Committed length in bytes.
    pub len: u64,
}

impl NtLogState {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.oid);
        e.u64(self.len);
        e.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<NtLogState> {
        let mut d = Decoder::new(bytes);
        Ok(NtLogState {
            oid: d.u64()?,
            len: d.u64()?,
        })
    }
}

impl Host {
    /// Creates a persistent log for `gid`, returning a descriptor in
    /// `pid` and the log id (stable across restore).
    pub fn ntlog_create(&mut self, gid: GroupId, pid: Pid) -> Result<(Fd, u64)> {
        let (log_id, oid) = {
            let group = self.sls.group_mut(gid)?;
            let log_id = group.next_ntlog;
            group.next_ntlog += 1;
            let oid = group.alloc_oid();
            group.ntlogs.insert(log_id, NtLogState { oid: oid.0, len: 0 });
            (log_id, oid)
        };
        {
            let mut store = self.sls.primary.borrow_mut();
            store.create_object(oid, 1 << 30)?;
            store.put_blob(
                &key_ntlog(gid.0, log_id),
                NtLogState { oid: oid.0, len: 0 }.encode(),
            );
        }
        let fd = self.install_ntlog_fd(pid, log_id)?;
        Ok((fd, log_id))
    }

    /// Installs a descriptor for an existing log (restored applications
    /// already hold one from the image; this is for fresh opens).
    pub fn install_ntlog_fd(&mut self, pid: Pid, log_id: u64) -> Result<Fd> {
        self.kernel.install_file(pid, OpenFile::new(FileKind::NtLog(log_id)))
    }

    fn ntlog_state(&mut self, gid: GroupId, log_id: u64) -> Result<NtLogState> {
        if let Some(state) = self
            .sls
            .group_ref(gid)
            .ok()
            .and_then(|g| g.ntlogs.get(&log_id))
        {
            return Ok(*state);
        }
        // Restored group: recover the state from the store head.
        let state = {
            let mut store = self.sls.primary.borrow_mut();
            let head = store
                .head()
                .ok_or_else(|| Error::not_found("store has no checkpoints"))?;
            let blob = store
                .get_blob(head, &key_ntlog(gid.0, log_id))?
                .ok_or_else(|| Error::not_found(format!("ntlog {log_id}")))?;
            NtLogState::decode(&blob)?
        };
        if let Ok(group) = self.sls.group_mut(gid) {
            group.ntlogs.insert(log_id, state);
        }
        Ok(state)
    }

    fn log_id_of(&self, pid: Pid, fd: Fd) -> Result<u64> {
        let fid = self.kernel.proc_ref(pid)?.fds.get(fd)?;
        match self
            .kernel
            .files
            .get(fid.0)
            .ok_or_else(|| Error::bad_fd("stale file"))?
            .kind
        {
            FileKind::NtLog(id) => Ok(id),
            _ => Err(Error::invalid("descriptor is not an sls log")),
        }
    }

    /// `sls_ntflush()`: appends `data` and synchronously flushes it.
    ///
    /// Returns once the bytes are power-loss-safe — the virtual clock
    /// advances to the durable instant (tens of microseconds on NVMe,
    /// far cheaper than an fsync-grade filesystem journal commit).
    pub fn sls_ntflush(&mut self, gid: GroupId, pid: Pid, fd: Fd, data: &[u8]) -> Result<()> {
        let log_id = self.log_id_of(pid, fd)?;
        let mut state = self.ntlog_state(gid, log_id)?;
        let oid = aurora_objstore::ObjId(state.oid);
        {
            let mut store = self.sls.primary.borrow_mut();
            // Append page-wise (read-modify-write the partial tail).
            let mut pos = state.len;
            let end = state.len + data.len() as u64;
            while pos < end {
                let page_idx = pos / PAGE_SIZE as u64;
                let page_off = (pos % PAGE_SIZE as u64) as usize;
                let n = ((PAGE_SIZE - page_off) as u64).min(end - pos) as usize;
                let src = &data[(pos - state.len) as usize..(pos - state.len) as usize + n];
                let page = if page_off == 0 && n == PAGE_SIZE {
                    PageData::from_bytes(src)
                } else {
                    let mut page = store.read_page(oid, page_idx)?.unwrap_or(PageData::Zero);
                    page.write(page_off, src);
                    page
                };
                store.write_page(oid, page_idx, &page)?;
                pos += n as u64;
            }
            state.len = end;
            store.put_blob(&key_ntlog(gid.0, log_id), state.encode());
            // Low-latency durability: mini-commit and wait for it.
            let (ckpt, durable) = store.commit(None)?;
            self.clock.advance_to(durable);
            // The group may be unregistered (log addressed by its
            // original namespace after a reboot); skip the GC
            // bookkeeping then.
            if let Some(group) = self.sls.groups.get_mut(&gid.0) {
                group.ntlogs.insert(log_id, state);
                group.ntflush_ckpts.push(ckpt);
                gc_mini_commits(&mut group.ntflush_ckpts, &mut store);
            }
        }
        Ok(())
    }

    /// Reads the whole committed log (the restore-time repair path).
    pub fn ntlog_read(&mut self, gid: GroupId, pid: Pid, fd: Fd) -> Result<Vec<u8>> {
        let log_id = self.log_id_of(pid, fd)?;
        let state = self.ntlog_state(gid, log_id)?;
        let oid = aurora_objstore::ObjId(state.oid);
        let store = self.sls.primary.borrow_mut();
        let mut out = Vec::with_capacity(state.len as usize);
        let mut pos = 0u64;
        while pos < state.len {
            let page_idx = pos / PAGE_SIZE as u64;
            let n = (PAGE_SIZE as u64).min(state.len - pos) as usize;
            let page = store.read_page(oid, page_idx)?.unwrap_or(PageData::Zero);
            let mut buf = vec![0u8; n];
            page.read(0, &mut buf);
            out.extend_from_slice(&buf);
            pos += n as u64;
        }
        Ok(out)
    }

    /// Truncates the log (after the application checkpointed the state
    /// the log protects). Durable like a flush.
    pub fn ntlog_truncate(&mut self, gid: GroupId, pid: Pid, fd: Fd) -> Result<()> {
        let log_id = self.log_id_of(pid, fd)?;
        let mut state = self.ntlog_state(gid, log_id)?;
        state.len = 0;
        let mut store = self.sls.primary.borrow_mut();
        store.put_blob(&key_ntlog(gid.0, log_id), state.encode());
        let (ckpt, durable) = store.commit(None)?;
        self.clock.advance_to(durable);
        if let Some(group) = self.sls.groups.get_mut(&gid.0) {
            group.ntlogs.insert(log_id, state);
            group.ntflush_ckpts.push(ckpt);
            gc_mini_commits(&mut group.ntflush_ckpts, &mut store);
        }
        Ok(())
    }
}

/// Garbage-collects every mini-commit in `pending` but the newest
/// (bounded store growth). One whose delete fails stays listed, so the
/// next flush or truncate retries it instead of leaking it; one that is
/// no longer in the store is dropped.
fn gc_mini_commits(pending: &mut Vec<CkptId>, store: &mut ObjectStore) {
    let Some(newest) = pending.pop() else { return };
    pending.retain(|&c| store.delete_checkpoint(c).is_err() && store.checkpoint(c).is_ok());
    pending.push(newest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntlog_state_roundtrip() {
        for state in [
            NtLogState { oid: 0, len: 0 },
            NtLogState { oid: 7, len: 4096 },
            NtLogState { oid: u64::MAX, len: u64::MAX },
        ] {
            let bytes = state.encode();
            let out = NtLogState::decode(&bytes).unwrap();
            assert_eq!(out.oid, state.oid);
            assert_eq!(out.len, state.len);
        }
    }

    #[test]
    fn ntlog_state_truncated_rejected() {
        let bytes = NtLogState { oid: 1, len: 2 }.encode();
        assert!(NtLogState::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
