//! Calibrated cost-model constants.
//!
//! These constants map the work the simulated kernel does onto virtual
//! time. They are calibrated against the hardware in the paper's §5
//! evaluation (dual Xeon Silver 4116, Intel Optane 900P NVMe, Intel X722
//! 10 GbE) so that the reproduced tables land in the same regime as the
//! published numbers. See `DESIGN.md` §5 for the calibration rationale and
//! `EXPERIMENTS.md` for the paper-vs-measured comparison.
//!
//! Everything here is a plain constant on purpose: the whole simulation is
//! deterministic, and keeping the model in one file makes the calibration
//! auditable.

use crate::time::SimDuration;

/// Base-2 logarithm of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KiB, matching amd64 FreeBSD).
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Cost of one page-table manipulation: arming copy-on-write protection on
/// one PTE, including the eventual TLB shootdown amortized over a batch.
///
/// Calibration: the paper measures 5145.9 µs of "lazy data copy" to arm a
/// 2 GiB (524 288 page) working set, i.e. ≈9.8 ns/page.
pub const PTE_COW_ARM_NS: u64 = 10;

/// Cost of copying one PTE when duplicating an address-space map entry.
pub const PTE_COPY_NS: u64 = 6;

/// Cost of servicing one copy-on-write fault (trap entry/exit, page
/// allocation bookkeeping), excluding the 4 KiB data copy itself.
pub const COW_FAULT_NS: u64 = 1_800;

/// Cost of copying one 4 KiB page between frames (≈12 GB/s memcpy).
pub const PAGE_COPY_NS: u64 = 340;

/// Cost of zero-filling one 4 KiB page.
pub const PAGE_ZERO_NS: u64 = 250;

/// Trap + fault-handler overhead of a soft (minor) page fault.
pub const MINOR_FAULT_NS: u64 = 900;

/// Kernel bookkeeping to stop one process at the serialization barrier
/// (IPI, scheduler dequeue) and to resume it afterwards.
pub const PROC_STOP_NS: u64 = 4_200;
pub const PROC_RESUME_NS: u64 = 2_600;

/// Fixed cost of serializing one kernel object's metadata record
/// (locking, table walk, header emission).
pub const META_OBJ_BASE_NS: u64 = 2_300;

/// Per-byte cost of serializing metadata into checkpoint buffers.
pub const META_BYTE_NS_PER_64: u64 = 10; // 10ns per 64 bytes ≈ 6.4 GB/s

/// Fixed cost of re-creating one kernel object at restore time (allocation,
/// table insertion, identifier wiring).
pub const RESTORE_OBJ_BASE_NS: u64 = 1_000;

/// Fixed per-restore cost: orchestrator setup, address-space shell and
/// container plumbing, independent of the number of objects. Calibrated
/// against Table 4's near-equal metadata times for very differently
/// sized applications.
pub const RESTORE_GROUP_FIXED_NS: u64 = 220_000;

/// Restores whose metadata came from a high-latency backend read have
/// part of their parsing already done ("reading in the checkpoint
/// implicitly restores some application state"); their phase charges are
/// scaled by this percentage.
pub const RESTORE_DISK_DISCOUNT_PCT: u64 = 86;

/// Per-byte cost of parsing metadata at restore time.
pub const RESTORE_BYTE_NS_PER_64: u64 = 12;

/// Cost of instantiating one address-space map entry on restore
/// (vm_map_entry allocation + object wiring), before any pages are copied.
pub const RESTORE_MAP_ENTRY_NS: u64 = 6_800;

/// Cost of re-creating one VM object shell at restore (allocation,
/// pager binding). Pages are not copied — they are shared COW with the
/// image or faulted lazily.
pub const RESTORE_VMO_NS: u64 = 1_400;

/// Cost of re-wiring one resident page into a restored object under COW
/// (no data copy — the paper notes "No memory is copied").
pub const RESTORE_PAGE_WIRE_NS: u64 = 7;

/// Cost of one syscall entry/exit pair in the simulated kernel.
pub const SYSCALL_NS: u64 = 280;

/// Cost of one scheduler context switch.
pub const CTXSW_NS: u64 = 1_100;

/// Per-64-byte cost of moving payload through kernel buffers
/// (pipe/socket copyin+copyout).
pub const IPC_BYTE_NS_PER_64: u64 = 14;

/// Per-core content-hash bandwidth (bytes/sec) of
/// [`crate::hash::page_hash`], the four-lane XXH64 kernel every page
/// hash goes through.
///
/// Calibration rule — the constant never exceeds either of two ceilings:
///
/// * the cycle bound on the paper's Xeon Silver 4116: a 32-byte stripe
///   costs 8 multiplies (two per lane) on a port that issues one per
///   cycle, so 4 B/cycle × 2.1 GHz base = 8.4 GB/s;
/// * what the benchmark's own probe measures for the real kernel on the
///   host: `4096 B / sim.hash_wall_ns_per_page`.
///
/// So the charged cost is never below the measured one. Set from probe
/// readings of 404–630 ns per 4 KiB page (median 478; 6.5–10 GB/s):
/// 6 GB/s charges 683 ns, above the worst reading, and under the cycle
/// bound it leaves room for the load, rotate and merge work that shares
/// those cycles. A slower kernel lowers this constant.
///
/// The flush pipeline's hash stage charges it to the simulation clock,
/// divided by worker count, for the pages it actually hashes: those
/// some backend stores as a full image. Pages that are delta records on
/// every backend are never hashed.
pub const HASH_BW_PER_CORE: u64 = 6_000_000_000;

/// Returns the modeled duration of content-hashing `pages` 4 KiB pages
/// spread across `workers` cores.
pub fn hash_stage(pages: u64, workers: u64) -> SimDuration {
    let bw = HASH_BW_PER_CORE * workers.max(1);
    SimDuration::for_bytes(pages * PAGE_SIZE as u64, bw)
}

/// Cost of serving one 4 KiB restore read out of the shared page cache:
/// an index probe plus a reference-counted frame adoption, no device
/// access and no data copy.
pub const RESTORE_CACHE_HIT_NS: u64 = 400;

/// Read-cost model for extent-coalesced restore reads.
///
/// The serial page-in loop pays one full device access latency per 4 KiB
/// page; the batched read pipeline issues one vectored request per
/// extent, so the access latency amortizes over up to `EXTENT` blocks
/// while the payload still moves at the device's sequential read
/// bandwidth. The duration returned here is what the restore pipeline
/// charges the virtual clock for one extent read of `blocks` blocks on a
/// device with access latency `lat_ns` and read bandwidth `read_bw`.
pub fn extent_read(blocks: u64, lat_ns: u64, read_bw: u64) -> SimDuration {
    SimDuration::from_nanos(lat_ns)
        + SimDuration::for_bytes(blocks * PAGE_SIZE as u64, read_bw.max(1))
}

/// Returns the serialization cost for a metadata record of `bytes` bytes.
pub fn meta_serialize(bytes: usize) -> SimDuration {
    SimDuration::from_nanos(META_OBJ_BASE_NS + (bytes as u64).div_ceil(64) * META_BYTE_NS_PER_64)
}

/// Returns the deserialization/recreation cost for a metadata record.
pub fn meta_restore(bytes: usize) -> SimDuration {
    SimDuration::from_nanos(
        RESTORE_OBJ_BASE_NS + (bytes as u64).div_ceil(64) * RESTORE_BYTE_NS_PER_64,
    )
}

/// Returns the in-kernel copy cost for moving `bytes` through IPC buffers.
pub fn ipc_copy(bytes: usize) -> SimDuration {
    SimDuration::from_nanos((bytes as u64).div_ceil(64) * IPC_BYTE_NS_PER_64)
}

/// Device cost models, calibrated to the paper's testbed.
pub mod dev {
    /// Intel Optane 900P-class NVMe: ~10 µs access latency.
    pub const NVME_LAT_NS: u64 = 10_000;
    /// NVMe sequential write bandwidth (bytes/sec).
    pub const NVME_WRITE_BW: u64 = 2_200_000_000;
    /// NVMe sequential read bandwidth (bytes/sec).
    pub const NVME_READ_BW: u64 = 2_500_000_000;

    /// NVDIMM access latency.
    pub const NVDIMM_LAT_NS: u64 = 300;
    /// NVDIMM bandwidth.
    pub const NVDIMM_BW: u64 = 8_000_000_000;

    /// DRAM-backed ephemeral backend latency.
    pub const RAM_LAT_NS: u64 = 150;
    /// DRAM bandwidth for bulk copies.
    pub const RAM_BW: u64 = 20_000_000_000;

    /// 10 GbE one-way link latency (switch + NIC).
    pub const NET_LAT_NS: u64 = 25_000;
    /// 10 GbE usable bandwidth (bytes/sec).
    pub const NET_BW: u64 = 1_180_000_000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cow_arm_is_millisecond_scale_for_2gib() {
        // 2 GiB / 4 KiB = 524 288 pages; at 10ns/page that is ~5.2ms,
        // matching the regime of Table 3's full-checkpoint lazy data copy.
        let pages = (2u64 << 30) >> PAGE_SHIFT;
        let total = SimDuration::from_nanos(pages * PTE_COW_ARM_NS);
        assert!(total.as_millis_f64() > 4.0 && total.as_millis_f64() < 7.0);
    }

    #[test]
    fn meta_costs_monotonic() {
        assert!(meta_serialize(4096) > meta_serialize(64));
        assert!(meta_restore(4096) > meta_restore(64));
        assert!(ipc_copy(0).as_nanos() == 0);
    }
}
