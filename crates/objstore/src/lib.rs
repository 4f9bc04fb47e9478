//! The Aurora object store.
//!
//! The paper's second component: a copy-on-write on-disk layout that
//! sustains *hundreds of checkpoints per second* — far beyond what
//! WAFL/ZFS-style filesystem snapshots were designed for — while
//! supporting page deduplication and in-place garbage collection (old
//! incremental checkpoints are dropped without rewriting newer ones).
//!
//! Design (see `DESIGN.md` §3):
//!
//! * **Objects** are sparse arrays of 4 KiB pages identified by
//!   [`ObjId`]; each live object has a page map from page index to a
//!   reference-counted data block.
//! * **Checkpoints** ([`CkptId`]) are *deltas*: the set of page-map
//!   changes and metadata blobs accumulated since the previous commit,
//!   plus a parent link. Reading "object X page N at checkpoint C" walks
//!   the chain from C toward the root until a delta covers the page.
//! * **Dedup**: page payloads are content-hashed; a write whose content
//!   already exists on disk just bumps a block refcount — this is what
//!   makes a serverless function image a "small delta over the runtime
//!   container's checkpoint".
//! * **Delta log**: pages whose dirty footprint is a few bytes append
//!   sub-page delta records (offset/len extents chained by `prev` LSN
//!   back-pointers over a full base image) to the metadata journal
//!   instead of rewriting a 4 KiB block — the log *is* the checkpoint
//!   for small mutations (see `DESIGN.md` §16).
//! * **Durability**: metadata (journal records + dual superblocks) is
//!   written through the device with CRCs and recovered after crashes;
//!   page bodies go to the device as extents, which keeps each body by
//!   reference, so the medium shares them with the store's page table
//!   at the cost of one map entry per block. Commits return the virtual
//!   instant at which the checkpoint is power-loss-safe, so the SLS can
//!   flush asynchronously.
//! * **GC**: deleting the oldest checkpoint merges its still-needed
//!   pointers into its child (metadata only — no data is rewritten) and
//!   releases the rest; a block whose last reference goes is discarded
//!   from the medium.

pub mod alloc;
pub mod checkpoint;
mod commit;
pub mod deltalog;
pub mod journal;
pub mod layout;
pub mod read;
pub mod store;
pub mod stream;
pub mod txn;
mod write;

pub use checkpoint::{Checkpoint, CkptId, PageRef};
pub use deltalog::{DeltaLog, DeltaRecord, Lsn};
pub use read::{PageDamage, ScrubFinding, ScrubStep};
pub use store::{
    ObjectStore, ReadOutcome, ReadPlan, ResilverReport, StoreConfig, StoreStats, EXTENT_BLOCKS,
    READ_CACHE_PAGES,
};
pub use write::PageWrite;

/// Identifier of a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// Index of a data block within the store's data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockPtr(pub u64);
