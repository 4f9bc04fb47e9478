//! The simulated POSIX kernel.
//!
//! Aurora's breadth comes from treating **every POSIX primitive as a
//! first-class object**: a Unix socket or a SysV segment is not "part of a
//! process" but an independent kernel object that serializes itself. That
//! only works if the kernel actually *has* such an object model, so this
//! crate builds one: processes and threads with CPU state, file-descriptor
//! tables sharing open-file descriptions, pipes, Unix-domain sockets
//! (including in-flight SCM_RIGHTS descriptor passing — the case that took
//! CRIU seven years), loopback TCP sockets with the external-consistency
//! hold queue, System V shared memory and message queues, POSIX shared
//! memory, signals, a VFS with tmpfs, and containers.
//!
//! The [`Kernel`] owns all object tables plus the [`aurora_vm::Vm`]; its
//! methods are the syscall surface that simulated applications drive.
//! Everything is identified by small stable ids so the SLS serializers in
//! `aurora-core` can walk, persist and faithfully reconstruct the whole
//! graph — including cross-object edges like "fd 3 of pid 8 and fd 9 of
//! pid 11 share one file description with one offset".

pub mod container;
pub mod fd;
pub mod inet;
pub mod io;
pub mod pipe;
pub mod process;
pub mod slab;
pub mod sysv;
pub mod tmpfs;
pub mod types;
pub mod unix;
pub mod vfs;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use aurora_sim::error::{Error, Result};
use aurora_sim::SimClock;
use aurora_vm::Vm;

pub use container::{Container, CtId};
pub use fd::{Fd, FdTable, FileId, FileKind, OpenFile};
pub use inet::{InetSocket, IsockId};
pub use pipe::{Pipe, PipeId};
pub use process::{ProcState, Process};
pub use slab::Slab;
pub use sysv::{MsgQueue, PosixShm, SysvShm};
pub use types::{CpuState, Pid, SignalState, Ucred};
pub use unix::{UnixSocket, UsockId};
pub use vfs::{MountId, Vfs, VnodeAttr, VnodeRef, VnodeType};

/// Kernel-wide activity counters.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// Syscalls dispatched.
    pub syscalls: u64,
    /// Processes forked.
    pub forks: u64,
    /// Bytes moved through pipes and sockets.
    pub ipc_bytes: u64,
}

/// The simulated kernel: every object table plus the VM subsystem.
pub struct Kernel {
    /// Shared virtual clock.
    pub clock: Arc<SimClock>,
    /// The VM subsystem.
    pub vm: Vm,
    /// Process table, ordered by pid (for `sls ps`).
    pub procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    /// Open file descriptions (shared by fds across processes).
    pub files: Slab<OpenFile>,
    /// Pipes.
    pub pipes: Slab<Pipe>,
    /// Unix-domain sockets.
    pub usocks: Slab<UnixSocket>,
    /// Pathname bindings for Unix sockets.
    pub usock_binds: HashMap<String, UsockId>,
    /// Loopback TCP sockets.
    pub isocks: Slab<InetSocket>,
    /// TCP listener ports.
    pub ports: HashMap<u16, IsockId>,
    /// System V shared memory segments, by key.
    pub sysv_shms: BTreeMap<i32, SysvShm>,
    /// System V message queues, by key.
    pub msgqs: BTreeMap<i32, MsgQueue>,
    /// POSIX shared memory objects, by name.
    pub posix_shms: BTreeMap<String, PosixShm>,
    /// The VFS layer.
    pub vfs: Vfs,
    /// Containers.
    pub containers: Slab<Container>,
    /// External-consistency pending epoch per persistence group: output
    /// held now is tagged with this value; it is released when the SLS
    /// reports the epoch durable. Absent groups are at epoch 1.
    pub ec_pending: HashMap<u32, u64>,
    /// Activity counters.
    pub stats: KernelStats,
    /// Host name (multi-host experiments run one kernel per host).
    pub hostname: String,
}

impl Kernel {
    /// Boots a kernel with a tmpfs root.
    pub fn boot(clock: Arc<SimClock>, hostname: &str) -> Self {
        Kernel {
            vm: Vm::new(clock.clone()),
            clock,
            procs: BTreeMap::new(),
            next_pid: 1,
            files: Slab::new(),
            pipes: Slab::new(),
            usocks: Slab::new(),
            usock_binds: HashMap::new(),
            isocks: Slab::new(),
            ports: HashMap::new(),
            sysv_shms: BTreeMap::new(),
            msgqs: BTreeMap::new(),
            posix_shms: BTreeMap::new(),
            vfs: Vfs::new(),
            containers: Slab::new(),
            ec_pending: HashMap::new(),
            stats: KernelStats::default(),
            hostname: hostname.to_string(),
        }
    }

    /// Charges one syscall entry/exit.
    pub(crate) fn charge_syscall(&mut self) {
        self.stats.syscalls += 1;
        self.clock.charge(aurora_sim::time::SimDuration::from_nanos(
            aurora_sim::cost::SYSCALL_NS,
        ));
    }

    /// Allocates the next pid.
    pub(crate) fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// Looks up a process.
    pub fn proc_ref(&self, pid: Pid) -> Result<&Process> {
        self.procs
            .get(&pid)
            .ok_or_else(|| Error::not_found(format!("pid {}", pid.0)))
    }

    /// Looks up a process mutably.
    pub fn proc_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.procs
            .get_mut(&pid)
            .ok_or_else(|| Error::not_found(format!("pid {}", pid.0)))
    }
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel")
            .field("host", &self.hostname)
            .field("procs", &self.procs.len())
            .field("files", &self.files.len())
            .finish()
    }
}
