//! Serverless function runtime on Aurora.
//!
//! §4's serverless story: a *function image* is a checkpoint of an
//! initialized runtime container. Warm starts restore the image lazily;
//! scale-out is "repeatedly restoring an already checkpointed
//! application"; density comes from the object store deduplicating the
//! shared runtime pages between function images; and instances warm each
//! other up by sharing faulted-in frames.

use aurora_core::restore::RestoreMode;
use aurora_core::{GroupId, Host, RestoreBreakdown};
use aurora_objstore::CkptId;
use aurora_posix::Pid;
use aurora_sim::error::{Error, Result};
use aurora_sim::time::SimDuration;
use aurora_slsfs::StoreHandle;

/// Seed shared by every function's runtime region — identical bytes, so
/// the store deduplicates them across images.
pub const RUNTIME_SEED: u64 = 0x5255_4E54;

/// A checkpointed, initialized function runtime.
#[derive(Debug, Clone)]
pub struct FunctionImage {
    /// The image checkpoint.
    pub ckpt: CkptId,
    /// Store holding the image.
    pub store: StoreHandle,
    /// Function name.
    pub name: String,
    /// Runtime (shared) region size in pages.
    pub runtime_pages: u64,
    /// Function-specific region size in pages.
    pub fn_pages: u64,
    /// Address of the runtime region.
    pub runtime_addr: u64,
    /// Address of the function region.
    pub fn_addr: u64,
}

/// One running function instance.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Instance process.
    pub pid: Pid,
    /// Its persistence group, when re-persisted.
    pub gid: Option<GroupId>,
}

/// Builds and checkpoints an initialized function runtime, then retires
/// the build process (only the image remains — the serverless "deploy").
pub fn build_image(
    host: &mut Host,
    name: &str,
    runtime_pages: u64,
    fn_pages: u64,
    fn_seed: u64,
) -> Result<FunctionImage> {
    let pid = host.kernel.spawn(name);
    let ct = host.kernel.container_create(name, &format!("/ct/{name}"));
    host.kernel.container_add(ct, pid)?;

    // Shared runtime: identical across every function (same seed).
    let runtime_addr = host.kernel.mmap_anon(pid, runtime_pages * 4096, false)?;
    host.kernel
        .mem_touch_seeded(pid, runtime_addr, runtime_pages * 4096, RUNTIME_SEED)?;
    // Function-specific code/state.
    let fn_addr = host.kernel.mmap_anon(pid, fn_pages * 4096, false)?;
    host.kernel
        .mem_touch_seeded(pid, fn_addr, fn_pages * 4096, fn_seed)?;
    host.kernel.set_reg(pid, 0, runtime_addr)?;
    host.kernel.set_reg(pid, 1, fn_addr)?;
    host.kernel.set_reg(pid, 2, 0)?; // Invocation counter.

    let gid = host.persist(name, pid)?;
    let bd = host.checkpoint(gid, true, Some(name))?;
    let ckpt = bd.ckpt.ok_or_else(|| Error::internal("no ckpt id"))?;
    host.clock.advance_to(bd.durable_at);

    // Retire the build process; the image is the artifact.
    host.kernel.exit(pid, 0)?;
    host.kernel.procs.remove(&pid);
    Ok(FunctionImage {
        ckpt,
        store: host.sls.primary.clone(),
        name: name.to_string(),
        runtime_pages,
        fn_pages,
        runtime_addr,
        fn_addr,
    })
}

/// Cold/warm-starts an instance from an image; returns the instance and
/// the restore breakdown (the paper's startup latency).
pub fn instantiate(
    host: &mut Host,
    image: &FunctionImage,
    mode: RestoreMode,
) -> Result<(Instance, RestoreBreakdown)> {
    let breakdown = host.restore(&image.store, image.ckpt, mode)?;
    let pid = breakdown
        .root_pid()
        .ok_or_else(|| Error::bad_image("image restored no process"))?;
    Ok((Instance { pid, gid: None }, breakdown))
}

/// Invokes the function: touches `hot_pages` of runtime + the function
/// region head, does a little compute, bumps the invocation counter.
/// Returns the invocation's virtual latency.
pub fn invoke(host: &mut Host, image: &FunctionImage, inst: Instance, hot_pages: u64) -> Result<SimDuration> {
    let t0 = host.clock.now();
    let mut buf = [0u8; 64];
    for i in 0..hot_pages.min(image.runtime_pages) {
        host.kernel
            .mem_read(inst.pid, image.runtime_addr + i * 4096, &mut buf)?;
    }
    for i in 0..4u64.min(image.fn_pages) {
        host.kernel
            .mem_read(inst.pid, image.fn_addr + i * 4096, &mut buf)?;
    }
    // The function's own compute (fixed 50 µs of work).
    host.clock.charge(SimDuration::from_micros(50));
    let n = host.kernel.get_reg(inst.pid, 2)? + 1;
    host.kernel.set_reg(inst.pid, 2, n)?;
    Ok(host.clock.now().since(t0))
}

/// Tears an instance down (scale-in).
pub fn retire(host: &mut Host, inst: Instance) -> Result<()> {
    host.kernel.exit(inst.pid, 0)?;
    host.kernel.procs.remove(&inst.pid);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_hw::ModelDev;
    use aurora_objstore::StoreConfig;
    use aurora_sim::SimClock;
    use aurora_vm::fault::Access;
    use aurora_vm::FrameId;

    fn host() -> Host {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", 512 * 1024));
        Host::boot("h", dev, StoreConfig::default()).unwrap()
    }

    /// The frame an instance's read of `addr` lands on.
    fn frame_at(h: &mut Host, pid: Pid, addr: u64) -> FrameId {
        let k = &mut h.kernel;
        let proc = k.procs.get_mut(&pid).unwrap();
        k.vm.fault(&mut proc.map, addr, Access::Read).unwrap()
    }

    #[test]
    fn image_lifecycle_and_invocation() {
        let mut h = host();
        let image = build_image(&mut h, "fn-a", 64, 8, 0xA).unwrap();
        let (inst, bd) = instantiate(&mut h, &image, RestoreMode::LazyPrefetch).unwrap();
        assert!(bd.total.as_micros() > 0);
        let lat1 = invoke(&mut h, &image, inst, 16).unwrap();
        let lat2 = invoke(&mut h, &image, inst, 16).unwrap();
        assert!(lat2 <= lat1, "second invocation warmer: {lat2} vs {lat1}");
        assert_eq!(h.kernel.get_reg(inst.pid, 2).unwrap(), 2);
        retire(&mut h, inst).unwrap();
    }

    #[test]
    fn images_dedup_shared_runtime() {
        let mut h = host();
        let before = h.sls.primary.borrow().blocks_in_use();
        let _a = build_image(&mut h, "fn-a", 128, 4, 0xA).unwrap();
        let after_a = h.sls.primary.borrow().blocks_in_use();
        let _b = build_image(&mut h, "fn-b", 128, 4, 0xB).unwrap();
        let after_b = h.sls.primary.borrow().blocks_in_use();
        let image_a_blocks = after_a - before;
        let image_b_marginal = after_b - after_a;
        assert!(
            image_b_marginal * 4 < image_a_blocks,
            "second function is a small delta: {image_b_marginal} vs {image_a_blocks}"
        );
    }

    #[test]
    fn scale_out_instances_are_independent() {
        let mut h = host();
        let image = build_image(&mut h, "fn-a", 32, 4, 0xA).unwrap();
        let (i1, _) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        let (i2, _) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        invoke(&mut h, &image, i1, 8).unwrap();
        invoke(&mut h, &image, i1, 8).unwrap();
        invoke(&mut h, &image, i2, 8).unwrap();
        assert_eq!(h.kernel.get_reg(i1.pid, 2).unwrap(), 2);
        assert_eq!(h.kernel.get_reg(i2.pid, 2).unwrap(), 1);
    }

    #[test]
    fn a_second_image_maps_the_runtime_frames_a_sibling_image_faulted_in() {
        let mut h = host();
        let a = build_image(&mut h, "fn-a", 32, 4, 0xA).unwrap();
        let b = build_image(&mut h, "fn-b", 32, 4, 0xB).unwrap();
        let (ia, _) = instantiate(&mut h, &a, RestoreMode::Lazy).unwrap();
        invoke(&mut h, &a, ia, 16).unwrap();

        // The first instance of B finds the deduplicated runtime resident.
        let (ib, _) = instantiate(&mut h, &b, RestoreMode::Lazy).unwrap();
        let majors = h.kernel.vm.stats.major_faults;
        for i in 0..16 {
            let shared = frame_at(&mut h, ib.pid, b.runtime_addr + i * 4096);
            let own = frame_at(&mut h, ia.pid, a.runtime_addr + i * 4096);
            assert_eq!(shared, own, "runtime page {i}");
        }
        assert_eq!(
            h.kernel.vm.stats.major_faults, majors,
            "no device read for a shared page"
        );

        // A write in B copies; A's instance and a fresh A keep the bytes.
        let mut runtime = [0u8; 8];
        h.kernel
            .mem_read(ia.pid, a.runtime_addr, &mut runtime)
            .unwrap();
        let cows = h.kernel.vm.stats.cow_faults;
        h.kernel
            .mem_write(ib.pid, b.runtime_addr, b"written!")
            .unwrap();
        assert_eq!(h.kernel.vm.stats.cow_faults, cows + 1);
        let (fresh, _) = instantiate(&mut h, &a, RestoreMode::Lazy).unwrap();
        let mut got = [0u8; 8];
        for pid in [ia.pid, fresh.pid] {
            h.kernel.mem_read(pid, a.runtime_addr, &mut got).unwrap();
            assert_eq!(got, runtime);
        }
        h.kernel.mem_read(ib.pid, b.runtime_addr, &mut got).unwrap();
        assert_eq!(&got, b"written!");
    }

    #[test]
    fn a_warm_instance_starts_with_its_siblings_working_set_mapped() {
        let mut h = host();
        let image = build_image(&mut h, "fn-a", 32, 8, 0xA).unwrap();
        let frames = h.kernel.vm.frames.allocated();
        let (first, _) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        // 16 runtime pages and the function region's first 4.
        invoke(&mut h, &image, first, 16).unwrap();
        retire(&mut h, first).unwrap();

        let (second, bd) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        assert_eq!(
            bd.pages_prefetched, 20,
            "the first instance's working set is wired"
        );
        let faults = |h: &Host| {
            (
                h.kernel.vm.stats.minor_faults,
                h.kernel.vm.stats.major_faults,
            )
        };
        let before = faults(&h);
        invoke(&mut h, &image, second, 16).unwrap();
        assert_eq!(faults(&h), before, "a warm invocation takes no fault");

        retire(&mut h, second).unwrap();
        h.release_image(&image.store, image.ckpt);
        assert_eq!(h.kernel.vm.frames.allocated(), frames);
    }

    #[test]
    fn releasing_an_image_leaves_its_live_instances_running() {
        let mut h = host();
        let image = build_image(&mut h, "fn-a", 32, 4, 0xA).unwrap();
        let frames = h.kernel.vm.frames.allocated();
        let (inst, _) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        h.release_image(&image.store, image.ckpt);
        invoke(&mut h, &image, inst, 8).unwrap();
        assert_eq!(h.kernel.get_reg(inst.pid, 2).unwrap(), 1);

        let (cold, bd) = instantiate(&mut h, &image, RestoreMode::Lazy).unwrap();
        assert_eq!(
            bd.pages_prefetched, 0,
            "a restore after the release starts cold"
        );
        retire(&mut h, inst).unwrap();
        retire(&mut h, cold).unwrap();
        h.release_image(&image.store, image.ckpt);
        assert_eq!(
            h.kernel.vm.frames.allocated(),
            frames,
            "the released pager went with its last instance"
        );
    }
}
