//! Simulated applications for the Aurora evaluation.
//!
//! These programs are the crucial honesty check of the reproduction:
//! their *entire* state — data structures, cursors, configuration — lives
//! in simulated memory, simulated registers and SLSFS files, so a
//! checkpoint/restore round trip provably resumes the application from
//! its data rather than re-running it.
//!
//! * [`heap`] — a free-list allocator that manages simulated memory
//!   through kernel `copyin`/`copyout`, like a libc malloc.
//! * [`shmap`] — an open-addressing hash table stored entirely inside
//!   simulated memory (keys and values allocated from [`heap`]).
//! * [`kv`] — the Redis-like key-value server used throughout §5, with
//!   four interchangeable persistence strategies: none,
//!   fork-based snapshots (Redis RDB), a write-ahead log with fsync
//!   (Redis AOF), and the Aurora port built on `sls_ntflush` +
//!   checkpoints + barriers.
//! * [`pool`] — a multi-process worker-pool KV store on System V shared
//!   memory (the Firefox-class "processes sharing memory in arbitrary
//!   ways" case).
//! * [`serverless`] — function runtime images and invocation (warm/cold
//!   starts, instance density).
//! * [`hello`] — the paper's hello-world serverless stand-in.
//! * [`workload`] — deterministic uniform and Zipfian key generators.
//! * [`profiles`] — synthetic address-space/descriptor profiles matching
//!   the paper's workloads (Redis-class and serverless-class processes)
//!   for the Table 3/4 benchmarks.

pub mod heap;
pub mod hello;
pub mod kv;
pub mod pool;
pub mod profiles;
pub mod serverless;
pub mod shmap;
pub mod workload;

pub use heap::SimHeap;
pub use kv::{KvOp, KvServer, PersistMode};
pub use shmap::SimMap;
