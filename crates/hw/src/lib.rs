//! Simulated storage and network hardware.
//!
//! The paper's testbed pairs Intel Optane 900P NVMe drives, NVDIMMs and a
//! 10 GbE NIC; the key observation Aurora builds on is that such devices
//! have closed most of the latency/bandwidth gap to memory. This crate
//! models that hardware on the virtual clock:
//!
//! * [`dev::ModelDev`] — a block device with an access-latency +
//!   bandwidth cost model, a volatile write cache with explicit flush
//!   semantics, and power-failure behaviour (unflushed writes are lost,
//!   the interrupted write may be torn).
//! * [`fault`] — fault-injection plans: cut power after N writes, tear the
//!   interrupted write, or corrupt stored bytes. Crash-consistency tests
//!   drive recovery through these.
//! * [`net`] — a point-to-point link model and a remote block device
//!   (device behind a link), used by the network checkpoint backend.
//! * [`file_dev`] — a block device backed by a real host file, giving the
//!   `sls` CLI genuine persistence across invocations.
//! * [`stripe`] — RAID-0 style striping across several devices (the
//!   paper's four-Optane testbed and its aggregate-bandwidth argument).
//! * [`mirror`] — N-way replication with read failover, read-repair from
//!   a twin, and background resilver of a revived replica; the
//!   self-healing layer under the object store.
//!
//! All devices implement [`dev::BlockDev`], which takes extents only:
//! one read request (`read_blocks`) and one write request
//! (`write_blocks`). Both are submissions: each returns the virtual
//! instant it completes and leaves the clock alone, so the SLS can flush
//! checkpoints in the background — the separation the paper relies on
//! to keep application stop times under a millisecond — and stream a
//! restore's extents at queue depth. One queue rule charges every
//! request (see [`dev`]).

pub mod dev;
pub mod fault;
pub mod file_dev;
pub mod mirror;
pub mod net;
pub mod retry;
pub mod stripe;

pub use dev::{BlockDev, DevInfo, DevStats, ModelDev};
pub use fault::{FaultPlan, FaultRates};
pub use mirror::{GoldenCopy, MirrorDev, MirrorStats, ReplicaState, ResilverBarrier};
pub use net::{Delivery, LinkFaultRates, LinkModel, LinkStats, RemoteDev, ReplLink};
pub use retry::{classify, DevHealth, FaultClass, ResilientDev, RetryPolicy, RetryStats};
pub use stripe::StripedDev;

/// Block size used by every simulated device (one page).
pub const BLOCK_SIZE: usize = aurora_sim::cost::PAGE_SIZE;
