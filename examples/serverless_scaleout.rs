//! Serverless scale-out on Aurora (§4 of the paper).
//!
//! Builds function images (checkpoints of initialized runtimes), then:
//! * shows cold-start latencies for eager / lazy / prefetch restores,
//! * scales one function to many instances,
//! * shows the object store deduplicating images (density), and
//! * shows instances warming each other up through shared frames.
//!
//! ```text
//! cargo run --release --example serverless_scaleout
//! ```

use aurora::apps::serverless;
use aurora::core::restore::RestoreMode;
use aurora_bench_shim::*;

/// Tiny local shim so the example is self-contained.
mod aurora_bench_shim {
    use aurora::core::Host;
    use aurora::hw::ModelDev;
    use aurora::objstore::StoreConfig;
    use aurora::sim::SimClock;

    pub fn boot() -> Host {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", 1 << 20));
        Host::boot("serverless", dev, StoreConfig::default()).expect("boot")
    }
}

fn main() {
    let mut host = boot();

    // Deploy: build 6 functions sharing one 512-page runtime.
    let mut images = Vec::new();
    let blocks0 = host.sls.primary.borrow().blocks_in_use();
    let mut prev = blocks0;
    for i in 0..6u64 {
        let image = serverless::build_image(&mut host, &format!("fn-{i}"), 512, 16, 0xF00 + i)
            .expect("image");
        let used = host.sls.primary.borrow().blocks_in_use();
        println!(
            "deployed fn-{i}: store now {} blocks (+{} for this function)",
            used,
            used - prev
        );
        prev = used;
        images.push(image);
    }
    let per_image = (host.sls.primary.borrow().blocks_in_use() - blocks0) as f64 / 6.0;
    println!(
        "average {per_image:.0} blocks/function for a 528-page image — dedup pays for the runtime\n"
    );

    // Cold starts: three restore strategies for the same image.
    for (label, mode) in [
        ("eager   ", RestoreMode::Eager),
        ("lazy    ", RestoreMode::Lazy),
        ("prefetch", RestoreMode::LazyPrefetch),
    ] {
        let t0 = host.clock.now();
        let (inst, bd) = serverless::instantiate(&mut host, &images[0], mode).expect("instantiate");
        let latency = host.clock.now().since(t0);
        let lat = serverless::invoke(&mut host, &images[0], inst, 32).expect("invoke");
        println!(
            "{label} start: restore {latency} ({} pages paged in), first invocation {lat}",
            bd.pages_prefetched
        );
        serverless::retire(&mut host, inst).expect("retire");
    }

    // Scale-out: 20 instances of fn-0, invoked round-robin.
    println!("\nscaling fn-0 to 20 instances:");
    let mut instances = Vec::new();
    let t0 = host.clock.now();
    for _ in 0..20 {
        let (inst, _) =
            serverless::instantiate(&mut host, &images[0], RestoreMode::Lazy).expect("instantiate");
        instances.push(inst);
    }
    println!(
        "  20 lazy restores in {} total virtual time",
        host.clock.now().since(t0)
    );

    let majors0 = host.kernel.vm.stats.major_faults;
    let mut first = None;
    let mut rest = aurora::sim::time::SimDuration::ZERO;
    for (i, inst) in instances.iter().enumerate() {
        let lat = serverless::invoke(&mut host, &images[0], *inst, 32).expect("invoke");
        if i == 0 {
            first = Some(lat);
        } else {
            rest += lat;
        }
    }
    println!(
        "  first invocation {} ({} major faults — the cold-start section above already \n\
         warmed the shared frame index, so instances start hot)",
        first.expect("ran"),
        host.kernel.vm.stats.major_faults - majors0
    );
    println!(
        "  later invocations averaged {} — instances share frames and warm each other up",
        rest / 19
    );
}
