//! One extent script run through every `BlockDev` in the crate. Each
//! device must read a written extent back byte-equal, charge a
//! multi-block read as one request, and count one request per extent
//! call.

// Test code asserts invariants; the workspace unwrap denial is for
// production flush paths.
#![allow(clippy::unwrap_used)]

use aurora_hw::file_dev::FileDev;
use aurora_hw::{
    Access, BlockDev, LinkModel, MirrorDev, ModelDev, RemoteDev, ResilientDev, StripedDev,
    BLOCK_SIZE,
};
use aurora_sim::SimClock;

/// Blocks in the scripted extent.
const EXTENT: usize = 6;
/// Where the extent starts; off a stripe boundary on purpose.
const LBA: u64 = 3;

fn nvme(clock: &std::sync::Arc<SimClock>, name: &str) -> ModelDev {
    ModelDev::nvme(clock.clone(), name, 64)
}

fn script(name: &str, dev: &mut dyn BlockDev) {
    let data: Vec<Vec<u8>> = (1..=EXTENT as u8).map(|i| vec![i; BLOCK_SIZE]).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let before = dev.stats().clone();
    let done = dev.write_blocks(LBA, &refs).unwrap();
    dev.clock().advance_to(done);
    let durable = dev.flush().unwrap();
    dev.clock().advance_to(durable);

    let mut out = vec![vec![0u8; BLOCK_SIZE]; EXTENT];
    let start = dev.clock().now();
    dev.read_blocks(LBA, &mut out, Access::Waited).unwrap();
    let extent = dev.clock().now().since(start);
    assert_eq!(out, data, "{name}: the extent reads back byte-equal");

    // One request's virtual time: exactly what the device charges for a
    // timing-only read of the same bytes, which every device issues as
    // one request (per member, for a stripe).
    let start = dev.clock().now();
    dev.charge_read_timing((EXTENT * BLOCK_SIZE) as u64, Access::Waited)
        .unwrap();
    let one = dev.clock().now().since(start);
    assert_eq!(
        extent, one,
        "{name}: a {EXTENT}-block read costs one request"
    );

    let after = dev.stats();
    assert_eq!(after.writes, before.writes + 1, "{name}: one write request");
    assert_eq!(
        after.reads,
        before.reads + 2,
        "{name}: one request per read call"
    );
    assert_eq!(
        after.bytes_written - before.bytes_written,
        (EXTENT * BLOCK_SIZE) as u64,
        "{name}: bytes written"
    );
}

#[test]
fn every_device_serves_an_extent_as_one_request() {
    let dir = std::env::temp_dir().join(format!("aurora-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = SimClock::new();
    let mut devices: Vec<(&str, Box<dyn BlockDev>)> = vec![
        ("model", Box::new(nvme(&clock, "nvme0"))),
        (
            "resilient",
            Box::new(ResilientDev::with_defaults(Box::new(nvme(&clock, "nvme0")))),
        ),
        (
            "mirror",
            Box::new(
                MirrorDev::new(vec![
                    Box::new(nvme(&clock, "nvme0")),
                    Box::new(nvme(&clock, "nvme1")),
                ])
                .unwrap(),
            ),
        ),
        (
            "stripe",
            Box::new(StripedDev::new(vec![
                nvme(&clock, "nvme0"),
                nvme(&clock, "nvme1"),
            ])),
        ),
        (
            "remote",
            Box::new(RemoteDev::new(
                LinkModel::ten_gbe(clock.clone()),
                nvme(&clock, "nvme0"),
            )),
        ),
        (
            "file",
            Box::new(FileDev::open(clock.clone(), &dir.join("disk.img"), 64).unwrap()),
        ),
    ];
    for (name, dev) in &mut devices {
        script(name, dev.as_mut());
    }
    drop(devices);
    std::fs::remove_dir_all(&dir).unwrap();
}
