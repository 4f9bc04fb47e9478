//! tmpfs: the in-memory boot filesystem.
//!
//! Also the reference implementation for the [`crate::vfs::Filesystem`]
//! trait: the property tests in `aurora-slsfs` run the same operation
//! sequences against tmpfs and SLSFS and require identical observable
//! behaviour (SLSFS additionally persists).

use std::collections::{BTreeMap, HashMap};

use aurora_sim::error::{Error, Result};

use crate::vfs::{Filesystem, VnodeAttr, VnodeType};

#[derive(Debug)]
enum Node {
    File {
        data: Vec<u8>,
        nlink: u32,
        open_refs: u32,
    },
    Dir {
        entries: BTreeMap<String, u64>,
        nlink: u32,
    },
}

/// The in-memory filesystem.
#[derive(Debug)]
pub struct Tmpfs {
    nodes: HashMap<u64, Node>,
    next: u64,
}

/// Root node id.
const ROOT: u64 = 1;

impl Default for Tmpfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Tmpfs {
    /// Creates an empty filesystem with a root directory.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT,
            Node::Dir {
                entries: BTreeMap::new(),
                nlink: 2,
            },
        );
        Tmpfs { nodes, next: 2 }
    }

    fn node(&self, id: u64) -> Result<&Node> {
        self.nodes
            .get(&id)
            .ok_or_else(|| Error::not_found(format!("tmpfs node {id}")))
    }

    fn node_mut(&mut self, id: u64) -> Result<&mut Node> {
        self.nodes
            .get_mut(&id)
            .ok_or_else(|| Error::not_found(format!("tmpfs node {id}")))
    }

    fn dir_entries(&mut self, id: u64) -> Result<&mut BTreeMap<String, u64>> {
        match self.node_mut(id)? {
            Node::Dir { entries, .. } => Ok(entries),
            Node::File { .. } => Err(Error::new(
                aurora_sim::error::ErrorKind::NotDirectory,
                format!("tmpfs node {id}"),
            )),
        }
    }

    /// Destroys a file node if it has neither links nor opens.
    fn maybe_reclaim(&mut self, id: u64) {
        if let Some(Node::File {
            nlink: 0,
            open_refs: 0,
            ..
        }) = self.nodes.get(&id)
        {
            self.nodes.remove(&id);
        }
    }
}

impl Filesystem for Tmpfs {
    fn fs_name(&self) -> &'static str {
        "tmpfs"
    }

    fn root(&self) -> u64 {
        ROOT
    }

    fn lookup(&mut self, dir: u64, name: &str) -> Result<u64> {
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or_else(|| Error::not_found(name.to_string()))
    }

    fn create(&mut self, dir: u64, name: &str) -> Result<u64> {
        let id = self.next;
        {
            let entries = self.dir_entries(dir)?;
            if entries.contains_key(name) {
                return Err(Error::already_exists(name));
            }
            entries.insert(name.to_string(), id);
        }
        self.next += 1;
        self.nodes.insert(
            id,
            Node::File {
                data: Vec::new(),
                nlink: 1,
                open_refs: 0,
            },
        );
        Ok(id)
    }

    fn mkdir(&mut self, dir: u64, name: &str) -> Result<u64> {
        let id = self.next;
        {
            let entries = self.dir_entries(dir)?;
            if entries.contains_key(name) {
                return Err(Error::already_exists(name));
            }
            entries.insert(name.to_string(), id);
        }
        self.next += 1;
        self.nodes.insert(
            id,
            Node::Dir {
                entries: BTreeMap::new(),
                nlink: 2,
            },
        );
        Ok(id)
    }

    fn link(&mut self, dir: u64, name: &str, node: u64) -> Result<()> {
        match self.node_mut(node)? {
            Node::File { nlink, .. } => *nlink += 1,
            Node::Dir { .. } => {
                return Err(Error::new(
                    aurora_sim::error::ErrorKind::IsDirectory,
                    "cannot hard-link directories",
                ))
            }
        }
        let entries = self.dir_entries(dir)?;
        if entries.contains_key(name) {
            // Roll the count back before reporting the conflict.
            if let Ok(Node::File { nlink, .. }) = self.node_mut(node) {
                *nlink -= 1;
            }
            return Err(Error::already_exists(name));
        }
        self.dir_entries(dir)?.insert(name.to_string(), node);
        Ok(())
    }

    fn unlink(&mut self, dir: u64, name: &str) -> Result<()> {
        let id = {
            let entries = self.dir_entries(dir)?;
            let id = *entries
                .get(name)
                .ok_or_else(|| Error::not_found(name))?;
            if matches!(self.node(id)?, Node::Dir { .. }) {
                return Err(Error::new(
                    aurora_sim::error::ErrorKind::IsDirectory,
                    name,
                ));
            }
            self.dir_entries(dir)?.remove(name);
            id
        };
        if let Node::File { nlink, .. } = self.node_mut(id)? {
            *nlink = nlink.saturating_sub(1);
        }
        self.maybe_reclaim(id);
        Ok(())
    }

    fn rmdir(&mut self, dir: u64, name: &str) -> Result<()> {
        let id = {
            let entries = self.dir_entries(dir)?;
            *entries.get(name).ok_or_else(|| Error::not_found(name))?
        };
        match self.node(id)? {
            Node::Dir { entries, .. } if !entries.is_empty() => {
                return Err(Error::new(aurora_sim::error::ErrorKind::NotEmpty, name));
            }
            Node::File { .. } => {
                return Err(Error::new(
                    aurora_sim::error::ErrorKind::NotDirectory,
                    name,
                ));
            }
            _ => {}
        }
        self.dir_entries(dir)?.remove(name);
        self.nodes.remove(&id);
        Ok(())
    }

    fn rename(&mut self, sdir: u64, sname: &str, ddir: u64, dname: &str) -> Result<()> {
        let id = {
            let entries = self.dir_entries(sdir)?;
            *entries.get(sname).ok_or_else(|| Error::not_found(sname))?
        };
        // Renaming a file onto itself is a POSIX no-op.
        let replaced = {
            let dentries = self.dir_entries(ddir)?;
            dentries.get(dname).copied()
        };
        if replaced == Some(id) {
            return Ok(());
        }
        if let Some(old) = replaced {
            if matches!(self.node(old)?, Node::Dir { .. }) {
                return Err(Error::new(
                    aurora_sim::error::ErrorKind::IsDirectory,
                    dname,
                ));
            }
        }
        self.dir_entries(sdir)?.remove(sname);
        self.dir_entries(ddir)?.insert(dname.to_string(), id);
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
            .map(|(n, id)| (n.clone(), *id))
            .collect())
    }

    fn read(&mut self, node: u64, off: u64, len: usize) -> Result<Vec<u8>> {
        match self.node(node)? {
            Node::File { data, .. } => {
                let off = off as usize;
                if off >= data.len() {
                    return Ok(Vec::new());
                }
                let end = (off + len).min(data.len());
                Ok(data[off..end].to_vec())
            }
            Node::Dir { .. } => Err(Error::new(
                aurora_sim::error::ErrorKind::IsDirectory,
                format!("node {node}"),
            )),
        }
    }

    fn write(&mut self, node: u64, off: u64, buf: &[u8]) -> Result<usize> {
        match self.node_mut(node)? {
            Node::File { data, .. } => {
                let off = off as usize;
                if data.len() < off + buf.len() {
                    data.resize(off + buf.len(), 0);
                }
                data[off..off + buf.len()].copy_from_slice(buf);
                Ok(buf.len())
            }
            Node::Dir { .. } => Err(Error::new(
                aurora_sim::error::ErrorKind::IsDirectory,
                format!("node {node}"),
            )),
        }
    }

    fn truncate(&mut self, node: u64, len: u64) -> Result<()> {
        match self.node_mut(node)? {
            Node::File { data, .. } => {
                data.resize(len as usize, 0);
                Ok(())
            }
            Node::Dir { .. } => Err(Error::new(
                aurora_sim::error::ErrorKind::IsDirectory,
                format!("node {node}"),
            )),
        }
    }

    fn getattr(&self, node: u64) -> Result<VnodeAttr> {
        Ok(match self.node(node)? {
            Node::File { data, nlink, .. } => VnodeAttr {
                kind: VnodeType::Regular,
                size: data.len() as u64,
                nlink: *nlink,
            },
            Node::Dir { entries, nlink } => VnodeAttr {
                kind: VnodeType::Directory,
                size: entries.len() as u64,
                nlink: *nlink,
            },
        })
    }

    fn open_ref(&mut self, node: u64, delta: i32) -> Result<()> {
        if let Node::File { open_refs, .. } = self.node_mut(node)? {
            *open_refs = (*open_refs as i64 + delta as i64).max(0) as u32;
        }
        self.maybe_reclaim(node);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut fs = Tmpfs::new();
        let f = fs.create(ROOT, "hello.txt").unwrap();
        fs.write(f, 0, b"hello").unwrap();
        fs.write(f, 5, b" world").unwrap();
        assert_eq!(fs.read(f, 0, 100).unwrap(), b"hello world");
        assert_eq!(fs.read(f, 6, 5).unwrap(), b"world");
        assert_eq!(fs.read(f, 100, 5).unwrap(), b"");
        assert_eq!(fs.getattr(f).unwrap().size, 11);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = Tmpfs::new();
        let f = fs.create(ROOT, "sparse").unwrap();
        fs.write(f, 10, b"x").unwrap();
        let data = fs.read(f, 0, 11).unwrap();
        assert_eq!(&data[..10], &[0u8; 10]);
        assert_eq!(data[10], b'x');
    }

    #[test]
    fn directories_and_rename() {
        let mut fs = Tmpfs::new();
        let d = fs.mkdir(ROOT, "dir").unwrap();
        let f = fs.create(d, "a").unwrap();
        fs.rename(d, "a", ROOT, "b").unwrap();
        assert!(fs.lookup(d, "a").is_err());
        assert_eq!(fs.lookup(ROOT, "b").unwrap(), f);
        // rmdir requires empty.
        let d2 = fs.mkdir(ROOT, "full").unwrap();
        fs.create(d2, "x").unwrap();
        assert!(fs.rmdir(ROOT, "full").is_err());
        fs.unlink(d2, "x").unwrap();
        fs.rmdir(ROOT, "full").unwrap();
    }

    #[test]
    fn rename_replaces_target() {
        let mut fs = Tmpfs::new();
        let a = fs.create(ROOT, "a").unwrap();
        fs.create(ROOT, "b").unwrap();
        fs.write(a, 0, b"A").unwrap();
        fs.rename(ROOT, "a", ROOT, "b").unwrap();
        let b = fs.lookup(ROOT, "b").unwrap();
        assert_eq!(b, a);
        assert_eq!(fs.read(b, 0, 1).unwrap(), b"A");
        assert!(fs.lookup(ROOT, "a").is_err());
    }

    #[test]
    fn unlinked_but_open_survives_until_close() {
        let mut fs = Tmpfs::new();
        let f = fs.create(ROOT, "tmp").unwrap();
        fs.write(f, 0, b"scratch").unwrap();
        fs.open_ref(f, 1).unwrap();
        fs.unlink(ROOT, "tmp").unwrap();
        // Still readable through the open reference.
        assert_eq!(fs.read(f, 0, 7).unwrap(), b"scratch");
        fs.open_ref(f, -1).unwrap();
        assert!(fs.read(f, 0, 7).is_err(), "reclaimed at last close");
    }

    #[test]
    fn type_errors() {
        let mut fs = Tmpfs::new();
        let f = fs.create(ROOT, "f").unwrap();
        assert!(fs.lookup(f, "x").is_err());
        assert!(fs.read(ROOT, 0, 1).is_err());
        assert!(fs.write(ROOT, 0, b"x").is_err());
        let _d = fs.mkdir(ROOT, "d").unwrap();
        assert!(fs.unlink(ROOT, "d").is_err(), "unlink of directory");
        assert!(fs.rmdir(ROOT, "f").is_err(), "rmdir of file");
        assert!(fs.create(ROOT, "f").is_err(), "duplicate name");
    }

    #[test]
    fn readdir_sorted() {
        let mut fs = Tmpfs::new();
        fs.create(ROOT, "zeta").unwrap();
        fs.create(ROOT, "alpha").unwrap();
        let names: Vec<String> = fs.readdir(ROOT).unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
