//! The virtual file system layer.
//!
//! A thin mount table + path walker over the [`Filesystem`] trait. Two
//! implementations exist: [`crate::tmpfs::Tmpfs`] (the boot root) and the
//! Aurora file system in the `aurora-slsfs` crate, which implements the
//! same trait over the object store and adds the on-disk open-reference
//! count for unlinked-but-open files.

use aurora_sim::error::{Error, Result};

/// Identifier of a mounted filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MountId(pub u32);

/// A vnode reference: mount + node id within that filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VnodeRef {
    /// The mount the vnode lives on.
    pub mount: MountId,
    /// Filesystem-local node id.
    pub node: u64,
}

/// Vnode kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VnodeType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

/// Attributes returned by `getattr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VnodeAttr {
    /// Node kind.
    pub kind: VnodeType,
    /// Size in bytes (files).
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
}

/// Operations a filesystem implements.
pub trait Filesystem {
    /// Filesystem type name (`tmpfs`, `slsfs`).
    fn fs_name(&self) -> &'static str;

    /// Root directory node id.
    fn root(&self) -> u64;

    /// Looks `name` up in directory `dir`.
    fn lookup(&mut self, dir: u64, name: &str) -> Result<u64>;

    /// Creates a regular file.
    fn create(&mut self, dir: u64, name: &str) -> Result<u64>;

    /// Creates a directory.
    fn mkdir(&mut self, dir: u64, name: &str) -> Result<u64>;

    /// Creates a hard link `dir/name` to an existing file node.
    fn link(&mut self, dir: u64, name: &str, node: u64) -> Result<()>;

    /// Removes a file name (data lives on while opens remain).
    fn unlink(&mut self, dir: u64, name: &str) -> Result<()>;

    /// Removes an empty directory.
    fn rmdir(&mut self, dir: u64, name: &str) -> Result<()>;

    /// Renames within this filesystem.
    fn rename(&mut self, sdir: u64, sname: &str, ddir: u64, dname: &str) -> Result<()>;

    /// Lists a directory as `(name, node)` pairs in name order.
    fn readdir(&mut self, dir: u64) -> Result<Vec<(String, u64)>>;

    /// Reads up to `len` bytes at `off`.
    fn read(&mut self, node: u64, off: u64, len: usize) -> Result<Vec<u8>>;

    /// Writes at `off`, extending the file as needed.
    fn write(&mut self, node: u64, off: u64, data: &[u8]) -> Result<usize>;

    /// Truncates/extends to `len`.
    fn truncate(&mut self, node: u64, len: u64) -> Result<()>;

    /// Node attributes.
    fn getattr(&self, node: u64) -> Result<VnodeAttr>;

    /// Adjusts the open reference count — the hook behind Aurora's
    /// unlinked-but-open file persistence.
    fn open_ref(&mut self, node: u64, delta: i32) -> Result<()>;

    /// Flushes dirty state to the backing store (no-op for tmpfs).
    fn sync(&mut self) -> Result<()>;

    /// Downcast hook for filesystem-specific extensions (e.g. SLSFS's
    /// zero-copy clones).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// One mount-table entry.
struct Mount {
    path: String,
    fs: Box<dyn Filesystem>,
}

/// The VFS: a mount table plus the path walker.
pub struct Vfs {
    mounts: Vec<Mount>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a VFS with a tmpfs root.
    pub fn new() -> Self {
        Vfs {
            mounts: vec![Mount {
                path: "/".to_string(),
                fs: Box::new(crate::tmpfs::Tmpfs::new()),
            }],
        }
    }

    /// Mounts `fs` at `path` (which must be absolute).
    pub fn mount(&mut self, path: &str, fs: Box<dyn Filesystem>) -> Result<MountId> {
        if !path.starts_with('/') {
            return Err(Error::invalid(format!("mount point {path} not absolute")));
        }
        if self.mounts.iter().any(|m| m.path == path) {
            return Err(Error::already_exists(format!("mount point {path}")));
        }
        self.mounts.push(Mount {
            path: path.to_string(),
            fs,
        });
        Ok(MountId(self.mounts.len() as u32 - 1))
    }

    /// Access to a mounted filesystem.
    pub fn fs(&mut self, id: MountId) -> &mut dyn Filesystem {
        self.mounts[id.0 as usize].fs.as_mut()
    }

    /// Immutable access to a mounted filesystem.
    pub fn fs_ref(&self, id: MountId) -> &dyn Filesystem {
        self.mounts[id.0 as usize].fs.as_ref()
    }

    /// Splits an absolute path into its mount and in-fs components.
    ///
    /// Picks the longest mount-point prefix (so `/sls/db` resolves inside
    /// a filesystem mounted at `/sls`).
    fn split(&self, path: &str) -> Result<(MountId, Vec<String>)> {
        if !path.starts_with('/') {
            return Err(Error::invalid(format!("path {path} not absolute")));
        }
        let mut best: Option<(usize, MountId)> = None;
        for (i, m) in self.mounts.iter().enumerate() {
            let is_prefix = m.path == "/"
                || path == m.path
                || path.starts_with(&format!("{}/", m.path));
            if is_prefix {
                let len = m.path.len();
                if best.is_none_or(|(blen, _)| len > blen) {
                    best = Some((len, MountId(i as u32)));
                }
            }
        }
        let (plen, mount) = best.ok_or_else(|| Error::not_found(format!("no mount for {path}")))?;
        let rest = &path[plen..];
        let comps = rest
            .split('/')
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        Ok((mount, comps))
    }

    /// Resolves a path to its vnode.
    pub fn resolve(&mut self, path: &str) -> Result<VnodeRef> {
        let (mount, comps) = self.split(path)?;
        let fs = self.fs(mount);
        let mut node = fs.root();
        for comp in &comps {
            node = fs.lookup(node, comp)?;
        }
        Ok(VnodeRef { mount, node })
    }

    /// Resolves a path's parent directory, returning `(parent, last)`.
    pub fn resolve_parent(&mut self, path: &str) -> Result<(VnodeRef, String)> {
        let (mount, mut comps) = self.split(path)?;
        let last = comps
            .pop()
            .ok_or_else(|| Error::invalid(format!("path {path} has no final component")))?;
        let fs = self.fs(mount);
        let mut node = fs.root();
        for comp in &comps {
            node = fs.lookup(node, comp)?;
        }
        Ok((VnodeRef { mount, node }, last))
    }
}

impl core::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let points: Vec<(&str, &'static str)> = self
            .mounts
            .iter()
            .map(|m| (m.path.as_str(), m.fs.fs_name()))
            .collect();
        f.debug_struct("Vfs").field("mounts", &points).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_through_tmpfs_root() {
        let mut vfs = Vfs::new();
        let (root_mount, comps) = vfs.split("/a/b/c").unwrap();
        assert_eq!(root_mount, MountId(0));
        assert_eq!(comps, vec!["a", "b", "c"]);
        assert!(vfs.resolve("/nope").is_err());
        let root = vfs.resolve("/").unwrap();
        assert_eq!(root.node, vfs.fs(root_mount).root());
    }

    #[test]
    fn longest_prefix_mount_wins() {
        let mut vfs = Vfs::new();
        vfs.mount("/sls", Box::new(crate::tmpfs::Tmpfs::new()))
            .unwrap();
        let (m, comps) = vfs.split("/sls/data/file").unwrap();
        assert_eq!(m, MountId(1));
        assert_eq!(comps, vec!["data", "file"]);
        // "/slsx" is NOT under the "/sls" mount.
        let (m2, _) = vfs.split("/slsx").unwrap();
        assert_eq!(m2, MountId(0));
        assert!(vfs.mount("/sls", Box::new(crate::tmpfs::Tmpfs::new())).is_err());
        assert!(vfs.mount("rel", Box::new(crate::tmpfs::Tmpfs::new())).is_err());
    }

    #[test]
    fn resolve_parent_of_root_child() {
        let mut vfs = Vfs::new();
        let (parent, last) = vfs.resolve_parent("/newfile").unwrap();
        assert_eq!(parent.node, vfs.fs(MountId(0)).root());
        assert_eq!(last, "newfile");
        assert!(vfs.resolve_parent("/").is_err());
    }
}
