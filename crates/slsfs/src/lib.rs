//! SLSFS — the Aurora file system.
//!
//! A POSIX file API over the object store (the paper's third component).
//! Each regular file's data lives in a store object; directories and
//! inode attributes are serialized into a metadata blob committed with
//! every checkpoint, so file-system state and process state land in the
//! *same* atomic checkpoint — the property that lets Aurora snapshot "a
//! container including process and file system state" with zero copies.
//!
//! Two Aurora-specific behaviours distinguish SLSFS from a typical POSIX
//! file system:
//!
//! * **Open-but-unlinked files persist.** POSIX reclaims anonymous files
//!   at crash time, which would leave a restored application holding dead
//!   descriptors. SLSFS keeps an *on-disk open reference count* per
//!   inode; after a crash the data is still there for the restored
//!   process, and [`SlsFs::reap_orphans`] reclaims it only once no
//!   persistent vnode references remain.
//! * **Zero-copy clones.** [`SlsFs::clone_path`] clones a file or a whole
//!   subtree by sharing reference-counted store blocks.
//!
//! The filesystem implements [`aurora_posix::vfs::Filesystem`], so the
//! simulated kernel mounts it exactly like tmpfs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use aurora_objstore::{CkptId, ObjId, ObjectStore};
use aurora_posix::vfs::{Filesystem, VnodeAttr, VnodeType};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::error::{Error, ErrorKind, Result};
use aurora_vm::{PageData, PAGE_SIZE};

/// Shared handle to the object store (single-threaded simulator).
pub type StoreHandle = Rc<RefCell<ObjectStore>>;

/// Root inode number.
const ROOT: u64 = 1;

/// Blob key prefix for SLSFS metadata.
fn meta_key(ns: u64) -> String {
    format!("slsfs/{ns}/meta")
}

#[derive(Debug, Clone)]
enum Node {
    File {
        /// Backing store object.
        oid: ObjId,
        size: u64,
        nlink: u32,
        /// The on-disk open reference count.
        open_refs: u32,
    },
    Dir {
        entries: BTreeMap<String, u64>,
        nlink: u32,
    },
}

/// The Aurora file system.
pub struct SlsFs {
    store: StoreHandle,
    /// Namespace base for this filesystem's store objects.
    ns: u64,
    nodes: BTreeMap<u64, Node>,
    next_ino: u64,
}

impl SlsFs {
    /// Creates a fresh filesystem with namespace `ns`.
    ///
    /// `ns` partitions store object ids: file inode `i` maps to store
    /// object `ns | i`, so several filesystems (and the SLS's own memory
    /// objects) share one store without collisions.
    pub fn format(store: StoreHandle, ns: u64) -> SlsFs {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            ROOT,
            Node::Dir {
                entries: BTreeMap::new(),
                nlink: 2,
            },
        );
        SlsFs {
            store,
            ns,
            nodes,
            next_ino: 2,
        }
    }

    /// Loads the filesystem from the store's newest checkpoint.
    pub fn load(store: StoreHandle, ns: u64) -> Result<SlsFs> {
        let (head, blob) = {
            let mut st = store.borrow_mut();
            let head = st
                .head()
                .ok_or_else(|| Error::not_found("store has no checkpoints"))?;
            let blob = st.get_blob(head, &meta_key(ns))?;
            (head, blob)
        };
        let blob = blob.ok_or_else(|| {
            Error::not_found(format!("no slsfs metadata in checkpoint {}", head.0))
        })?;
        Self::load_from_bytes(store, ns, &blob)
    }

    /// Loads the filesystem as of a specific checkpoint (time travel).
    pub fn load_at(store: StoreHandle, ns: u64, ckpt: CkptId) -> Result<SlsFs> {
        let blob = store
            .borrow_mut()
            .get_blob(ckpt, &meta_key(ns))?
            .ok_or_else(|| {
                Error::not_found(format!("no slsfs metadata in checkpoint {}", ckpt.0))
            })?;
        Self::load_from_bytes(store, ns, &blob)
    }

    fn load_from_bytes(store: StoreHandle, ns: u64, blob: &[u8]) -> Result<SlsFs> {
        let mut d = Decoder::new(blob);
        let next_ino = d.u64()?;
        let count = d.varint()? as usize;
        let mut nodes = BTreeMap::new();
        for _ in 0..count {
            let ino = d.u64()?;
            let node = match d.u8()? {
                0 => Node::File {
                    oid: ObjId(d.u64()?),
                    size: d.u64()?,
                    nlink: d.u32()?,
                    open_refs: d.u32()?,
                },
                1 => {
                    let nlink = d.u32()?;
                    let n = d.varint()? as usize;
                    let mut entries = BTreeMap::new();
                    for _ in 0..n {
                        let name = d.str()?.to_string();
                        let child = d.u64()?;
                        entries.insert(name, child);
                    }
                    Node::Dir { entries, nlink }
                }
                t => return Err(Error::corrupt(format!("bad slsfs node tag {t}"))),
            };
            nodes.insert(ino, node);
        }
        Ok(SlsFs {
            store,
            ns,
            nodes,
            next_ino,
        })
    }

    /// Serializes the inode table into the store's pending checkpoint.
    ///
    /// The SLS orchestrator calls this inside every serialization barrier
    /// so filesystem metadata commits atomically with process state.
    pub fn flush_meta(&self) {
        let mut e = Encoder::new();
        e.u64(self.next_ino);
        e.varint(self.nodes.len() as u64);
        for (ino, node) in &self.nodes {
            e.u64(*ino);
            match node {
                Node::File {
                    oid,
                    size,
                    nlink,
                    open_refs,
                } => {
                    e.u8(0);
                    e.u64(oid.0);
                    e.u64(*size);
                    e.u32(*nlink);
                    e.u32(*open_refs);
                }
                Node::Dir { entries, nlink } => {
                    e.u8(1);
                    e.u32(*nlink);
                    e.varint(entries.len() as u64);
                    for (name, child) in entries {
                        e.str(name);
                        e.u64(*child);
                    }
                }
            }
        }
        self.store
            .borrow_mut()
            .put_blob(&meta_key(self.ns), e.into_vec());
    }

    fn oid_for(&self, ino: u64) -> ObjId {
        ObjId(self.ns | ino)
    }

    fn node(&self, ino: u64) -> Result<&Node> {
        self.nodes
            .get(&ino)
            .ok_or_else(|| Error::not_found(format!("slsfs inode {ino}")))
    }

    fn node_mut(&mut self, ino: u64) -> Result<&mut Node> {
        self.nodes
            .get_mut(&ino)
            .ok_or_else(|| Error::not_found(format!("slsfs inode {ino}")))
    }

    fn dir_entries(&mut self, ino: u64) -> Result<&mut BTreeMap<String, u64>> {
        match self.node_mut(ino)? {
            Node::Dir { entries, .. } => Ok(entries),
            Node::File { .. } => Err(Error::new(
                ErrorKind::NotDirectory,
                format!("slsfs inode {ino}"),
            )),
        }
    }

    /// Reclaims the inode if it has neither links nor open references,
    /// deleting its store object.
    fn maybe_reclaim(&mut self, ino: u64) {
        let reclaim = matches!(
            self.nodes.get(&ino),
            Some(Node::File {
                nlink: 0,
                open_refs: 0,
                ..
            })
        );
        if reclaim {
            self.nodes.remove(&ino);
            let _ = self.store.borrow_mut().delete_object(self.oid_for(ino));
        }
    }

    /// After a crash without a process restore, unlinked-but-open files
    /// have positive on-disk open counts but no live owners. The
    /// orchestrator calls this with the open counts of the processes it
    /// actually restored; anything beyond them is reclaimed.
    ///
    /// `live_refs` maps inode number to the number of restored vnode
    /// references.
    pub fn reap_orphans(&mut self, live_refs: &BTreeMap<u64, u32>) {
        let inos: Vec<u64> = self.nodes.keys().copied().collect();
        for ino in inos {
            if let Some(Node::File {
                nlink, open_refs, ..
            }) = self.nodes.get_mut(&ino)
            {
                if *nlink == 0 {
                    *open_refs = live_refs.get(&ino).copied().unwrap_or(0);
                    self.maybe_reclaim(ino);
                }
            }
        }
    }

    /// Zero-copy clone of a file or subtree.
    ///
    /// `src` and `dst` are `(dir inode, name)` pairs within this
    /// filesystem. File payloads are shared copy-on-write through the
    /// object store; nothing is copied.
    pub fn clone_path(&mut self, src_dir: u64, src_name: &str, dst_dir: u64, dst_name: &str) -> Result<u64> {
        let src_ino = self.lookup(src_dir, src_name)?;
        let cloned = self.clone_node(src_ino)?;
        let entries = self.dir_entries(dst_dir)?;
        if entries.contains_key(dst_name) {
            return Err(Error::already_exists(dst_name));
        }
        entries.insert(dst_name.to_string(), cloned);
        Ok(cloned)
    }

    fn clone_node(&mut self, ino: u64) -> Result<u64> {
        match self.node(ino)?.clone() {
            Node::File { oid, size, .. } => {
                let new_ino = self.next_ino;
                self.next_ino += 1;
                let new_oid = self.oid_for(new_ino);
                self.store.borrow_mut().clone_object(oid, new_oid)?;
                self.nodes.insert(
                    new_ino,
                    Node::File {
                        oid: new_oid,
                        size,
                        nlink: 1,
                        open_refs: 0,
                    },
                );
                Ok(new_ino)
            }
            Node::Dir { entries, .. } => {
                let new_ino = self.next_ino;
                self.next_ino += 1;
                let mut new_entries = BTreeMap::new();
                for (name, child) in entries {
                    new_entries.insert(name, self.clone_node(child)?);
                }
                self.nodes.insert(
                    new_ino,
                    Node::Dir {
                        entries: new_entries,
                        nlink: 2,
                    },
                );
                Ok(new_ino)
            }
        }
    }
}

impl Filesystem for SlsFs {
    fn fs_name(&self) -> &'static str {
        "slsfs"
    }

    fn root(&self) -> u64 {
        ROOT
    }

    fn lookup(&mut self, dir: u64, name: &str) -> Result<u64> {
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or_else(|| Error::not_found(name))
    }

    fn create(&mut self, dir: u64, name: &str) -> Result<u64> {
        let ino = self.next_ino;
        {
            let entries = self.dir_entries(dir)?;
            if entries.contains_key(name) {
                return Err(Error::already_exists(name));
            }
            entries.insert(name.to_string(), ino);
        }
        self.next_ino += 1;
        let oid = self.oid_for(ino);
        self.store.borrow_mut().create_object(oid, 1 << 40)?;
        self.nodes.insert(
            ino,
            Node::File {
                oid,
                size: 0,
                nlink: 1,
                open_refs: 0,
            },
        );
        Ok(ino)
    }

    fn mkdir(&mut self, dir: u64, name: &str) -> Result<u64> {
        let ino = self.next_ino;
        {
            let entries = self.dir_entries(dir)?;
            if entries.contains_key(name) {
                return Err(Error::already_exists(name));
            }
            entries.insert(name.to_string(), ino);
        }
        self.next_ino += 1;
        self.nodes.insert(
            ino,
            Node::Dir {
                entries: BTreeMap::new(),
                nlink: 2,
            },
        );
        Ok(ino)
    }

    fn link(&mut self, dir: u64, name: &str, node: u64) -> Result<()> {
        match self.node_mut(node)? {
            Node::File { nlink, .. } => *nlink += 1,
            Node::Dir { .. } => {
                return Err(Error::new(
                    ErrorKind::IsDirectory,
                    "cannot hard-link directories",
                ))
            }
        }
        let entries = self.dir_entries(dir)?;
        if entries.contains_key(name) {
            if let Ok(Node::File { nlink, .. }) = self.node_mut(node) {
                *nlink -= 1;
            }
            return Err(Error::already_exists(name));
        }
        self.dir_entries(dir)?.insert(name.to_string(), node);
        Ok(())
    }

    fn unlink(&mut self, dir: u64, name: &str) -> Result<()> {
        let ino = {
            let entries = self.dir_entries(dir)?;
            let ino = *entries.get(name).ok_or_else(|| Error::not_found(name))?;
            if matches!(self.node(ino)?, Node::Dir { .. }) {
                return Err(Error::new(ErrorKind::IsDirectory, name));
            }
            self.dir_entries(dir)?.remove(name);
            ino
        };
        if let Node::File { nlink, .. } = self.node_mut(ino)? {
            *nlink = nlink.saturating_sub(1);
        }
        self.maybe_reclaim(ino);
        Ok(())
    }

    fn rmdir(&mut self, dir: u64, name: &str) -> Result<()> {
        let ino = {
            let entries = self.dir_entries(dir)?;
            *entries.get(name).ok_or_else(|| Error::not_found(name))?
        };
        match self.node(ino)? {
            Node::Dir { entries, .. } if !entries.is_empty() => {
                return Err(Error::new(ErrorKind::NotEmpty, name));
            }
            Node::File { .. } => {
                return Err(Error::new(ErrorKind::NotDirectory, name));
            }
            _ => {}
        }
        self.dir_entries(dir)?.remove(name);
        self.nodes.remove(&ino);
        Ok(())
    }

    fn rename(&mut self, sdir: u64, sname: &str, ddir: u64, dname: &str) -> Result<()> {
        let ino = {
            let entries = self.dir_entries(sdir)?;
            *entries.get(sname).ok_or_else(|| Error::not_found(sname))?
        };
        let replaced = self.dir_entries(ddir)?.get(dname).copied();
        // Renaming a file onto itself is a POSIX no-op.
        if replaced == Some(ino) {
            return Ok(());
        }
        if let Some(old) = replaced {
            if matches!(self.node(old)?, Node::Dir { .. }) {
                return Err(Error::new(ErrorKind::IsDirectory, dname));
            }
        }
        self.dir_entries(sdir)?.remove(sname);
        self.dir_entries(ddir)?.insert(dname.to_string(), ino);
        if let Some(old) = replaced {
            if let Node::File { nlink, .. } = self.node_mut(old)? {
                *nlink = nlink.saturating_sub(1);
            }
            self.maybe_reclaim(old);
        }
        Ok(())
    }

    fn readdir(&mut self, dir: u64) -> Result<Vec<(String, u64)>> {
        Ok(self
            .dir_entries(dir)?
            .iter()
            .map(|(n, i)| (n.clone(), *i))
            .collect())
    }

    fn read(&mut self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>> {
        let (oid, size) = match self.node(ino)? {
            Node::File { oid, size, .. } => (*oid, *size),
            Node::Dir { .. } => {
                return Err(Error::new(ErrorKind::IsDirectory, format!("inode {ino}")))
            }
        };
        if off >= size {
            return Ok(Vec::new());
        }
        let end = (off + len as u64).min(size);
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        let store = self.store.borrow_mut();
        while pos < end {
            let page_idx = pos / PAGE_SIZE as u64;
            let page_off = (pos % PAGE_SIZE as u64) as usize;
            let n = ((PAGE_SIZE - page_off) as u64).min(end - pos) as usize;
            let page = store
                .read_page(oid, page_idx)?
                .unwrap_or(PageData::Zero);
            let mut buf = vec![0u8; n];
            page.read(page_off, &mut buf);
            out.extend_from_slice(&buf);
            pos += n as u64;
        }
        Ok(out)
    }

    fn write(&mut self, ino: u64, off: u64, data: &[u8]) -> Result<usize> {
        let (oid, size) = match self.node(ino)? {
            Node::File { oid, size, .. } => (*oid, *size),
            Node::Dir { .. } => {
                return Err(Error::new(ErrorKind::IsDirectory, format!("inode {ino}")))
            }
        };
        {
            let mut store = self.store.borrow_mut();
            let mut pos = off;
            let end = off + data.len() as u64;
            while pos < end {
                let page_idx = pos / PAGE_SIZE as u64;
                let page_off = (pos % PAGE_SIZE as u64) as usize;
                let n = ((PAGE_SIZE - page_off) as u64).min(end - pos) as usize;
                let start = (pos - off) as usize;
                let src = data
                    .get(start..start + n)
                    .ok_or_else(|| Error::internal("file write ran past its buffer"))?;
                let new_page = if page_off == 0 && n == PAGE_SIZE {
                    PageData::from_bytes(src)
                } else {
                    let mut page = store.read_page(oid, page_idx)?.unwrap_or(PageData::Zero);
                    page.write(page_off, src);
                    page
                };
                store.write_page(oid, page_idx, &new_page)?;
                pos += n as u64;
            }
        }
        let new_size = size.max(off + data.len() as u64);
        if let Node::File { size, .. } = self.node_mut(ino)? {
            *size = new_size;
        }
        Ok(data.len())
    }

    fn truncate(&mut self, ino: u64, len: u64) -> Result<()> {
        let (oid, old_size) = match self.node(ino)? {
            Node::File { oid, size, .. } => (*oid, *size),
            Node::Dir { .. } => {
                return Err(Error::new(ErrorKind::IsDirectory, format!("inode {ino}")))
            }
        };
        if len < old_size {
            let mut store = self.store.borrow_mut();
            // Zero the partial tail page so re-extension reads zeroes.
            if !len.is_multiple_of(PAGE_SIZE as u64) {
                let page_idx = len / PAGE_SIZE as u64;
                let page_off = (len % PAGE_SIZE as u64) as usize;
                if let Some(mut page) = store.read_page(oid, page_idx)? {
                    page.write(page_off, &vec![0u8; PAGE_SIZE - page_off]);
                    store.write_page(oid, page_idx, &page)?;
                }
            }
        }
        if let Node::File { size, .. } = self.node_mut(ino)? {
            *size = len;
        }
        Ok(())
    }

    fn getattr(&self, ino: u64) -> Result<VnodeAttr> {
        Ok(match self.node(ino)? {
            Node::File { size, nlink, .. } => VnodeAttr {
                kind: VnodeType::Regular,
                size: *size,
                nlink: *nlink,
            },
            Node::Dir { entries, nlink } => VnodeAttr {
                kind: VnodeType::Directory,
                size: entries.len() as u64,
                nlink: *nlink,
            },
        })
    }

    fn open_ref(&mut self, ino: u64, delta: i32) -> Result<()> {
        if let Node::File { open_refs, .. } = self.node_mut(ino)? {
            *open_refs = (*open_refs as i64 + delta as i64).max(0) as u32;
        }
        self.maybe_reclaim(ino);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        // Metadata is staged; the SLS (or the caller) commits the store.
        self.flush_meta();
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl core::fmt::Debug for SlsFs {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SlsFs")
            .field("ns", &self.ns)
            .field("inodes", &self.nodes.len())
            .finish()
    }
}
