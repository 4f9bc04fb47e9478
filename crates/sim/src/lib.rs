//! Deterministic discrete-event simulation substrate for the Aurora SLS.
//!
//! The Aurora reproduction runs entirely on *virtual time*: every component
//! charges the cost of its work (page-table manipulation, device access,
//! metadata serialization) to a shared [`clock::SimClock`] instead of
//! sleeping. All measurements reported by the benchmark harness are virtual
//! nanoseconds, which makes every experiment bit-for-bit reproducible.
//!
//! This crate holds the pieces everything else builds on:
//!
//! * [`time`] — the [`time::SimTime`] instant and [`time::SimDuration`]
//!   types (nanosecond resolution).
//! * [`clock`] — the shared virtual clock and scoped timers.
//! * [`cost`] — the calibrated cost-model constants (see `DESIGN.md` §5).
//! * [`rng`] — deterministic PRNGs (SplitMix64, Xoshiro256++) implemented
//!   from scratch so simulation results do not depend on crate versions.
//! * [`codec`] — the versioned binary wire format used for checkpoint
//!   metadata, the object-store journal and send/recv streams.
//! * [`hash`] — the XXH64 page content hash (dedup, verified reads),
//!   FNV-1a (keys, wire digests) and CRC-32C (on-disk record checksums).
//! * [`page`] — [`page::PageData`], one page's body: the unit of data of
//!   a VM frame, the object store and the block device alike.
//! * [`stats`] — counters and log-bucketed histograms.
//! * [`error`] — the common error type.

pub mod clock;
pub mod codec;
pub mod cost;
pub mod error;
pub mod hash;
pub mod page;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::SimClock;
pub use codec::{Decoder, Encoder};
pub use error::{Error, Result};
pub use page::PageData;
pub use time::{SimDuration, SimTime};
