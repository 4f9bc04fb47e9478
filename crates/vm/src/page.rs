//! Page contents and the sharded page hasher.
//!
//! [`PageData`] lives in `aurora-sim`, so that a VM frame, the object
//! store and the block device hold one body type; it is re-exported
//! here.

use std::thread;

pub use aurora_sim::page::{PageData, PAGE_SIZE};

/// Inputs smaller than this are hashed inline by [`hash_pages`]:
/// spawning threads costs more than hashing a handful of 4 KiB pages.
pub const PARALLEL_THRESHOLD: usize = 64;

/// Content-hashes the page of every item on `workers` threads and
/// returns the hashes in input order — the one sharded hasher under the
/// flush's hash stage, the restore's and the object store's checked
/// reads. Shard boundaries depend only on the input length and the
/// worker count, and shards are joined in shard order, so the output
/// equals a serial pass for any worker count.
pub fn hash_pages<T: Sync>(
    items: &[T],
    page: impl Fn(&T) -> &PageData + Sync,
    workers: usize,
) -> Vec<u64> {
    let hash_shard =
        &|shard: &[T]| -> Vec<u64> { shard.iter().map(|item| page(item).content_hash()).collect() };
    let workers = workers.max(1);
    if workers == 1 || items.len() < PARALLEL_THRESHOLD {
        return hash_shard(items);
    }
    let shard_len = items.len().div_ceil(workers);
    thread::scope(|s| {
        // The driving thread would only wait: it hashes the first shard
        // itself, which also saves a spawn per call.
        let mut shards = items.chunks(shard_len);
        let first = shards.next().unwrap_or_default();
        let rest: Vec<_> = shards
            .map(|shard| s.spawn(move || hash_shard(shard)))
            .collect();
        let mut hashes = hash_shard(first);
        // Joined in shard order; a worker's panic is this thread's.
        for shard in rest {
            hashes.extend(
                shard
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        hashes
    })
}

