//! Every `BlockDev` in the crate, run through two scripts. The extent
//! script: a written extent reads back byte-equal, a multi-block read
//! costs one request, and each extent call counts one request. The queue
//! script: one rule charges every request, whatever its kind — a data
//! call leaves the clock where it was, a request that finds the queue
//! idle pays the whole access latency plus its transfer, a request
//! submitted behind a busy queue pays `latency / QUEUE_DEPTH` plus its
//! transfer, and a flush completes one whole latency after the queue
//! drains.

// Test code asserts invariants; the workspace unwrap denial is for
// production flush paths.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use aurora_hw::dev::{CostModel, QUEUE_DEPTH};
use aurora_hw::file_dev::FileDev;
use aurora_hw::{
    BlockDev, LinkModel, MirrorDev, ModelDev, RemoteDev, ResilientDev, StripedDev, BLOCK_SIZE,
};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;

/// Blocks in the scripted extent.
const EXTENT: usize = 6;
/// Where the extent starts; off a stripe boundary on purpose.
const LBA: u64 = 3;
/// The scripted extent's bytes.
const BYTES: u64 = (EXTENT * BLOCK_SIZE) as u64;

fn nvme(clock: &Arc<SimClock>, name: &str) -> ModelDev {
    ModelDev::nvme(clock.clone(), name, 64)
}

/// One device under test, with what its requests cost past a member's
/// queue.
struct Case {
    name: &'static str,
    dev: Box<dyn BlockDev>,
    /// Members an extent splits across; each serves its share of the
    /// bytes on its own queue.
    width: u64,
    /// A twin of a remote device's link, charged the same messages, so
    /// its wire time can be added to the device's.
    link: Option<LinkModel>,
}

impl Case {
    /// When a read whose device service completes at `served` is back
    /// with the caller, the request having been sent at `now`.
    fn read(&mut self, now: SimTime, served: SimTime) -> SimTime {
        match &mut self.link {
            None => served,
            Some(link) => {
                let request = link.transfer(64).since(now);
                link.transfer_from(served + request, BYTES)
            }
        }
    }

    /// When a write whose device service completes at `served` is done.
    fn write(&mut self, served: SimTime) -> SimTime {
        match &mut self.link {
            None => served,
            Some(link) => served.max(link.transfer(BYTES)),
        }
    }

    /// When a flush whose device barrier completes at `served` is
    /// acknowledged.
    fn flush(&mut self, served: SimTime) -> SimTime {
        match &mut self.link {
            None => served,
            Some(link) => served.max(link.transfer(64)) + SimDuration::from_nanos(link.latency_ns),
        }
    }
}

fn cases(clock: &Arc<SimClock>, dir: &std::path::Path) -> Vec<Case> {
    let case = |name, dev: Box<dyn BlockDev>| Case {
        name,
        dev,
        width: 1,
        link: None,
    };
    vec![
        case("model", Box::new(nvme(clock, "nvme0"))),
        case(
            "resilient",
            Box::new(ResilientDev::with_defaults(Box::new(nvme(clock, "nvme0")))),
        ),
        case(
            "mirror",
            Box::new(
                MirrorDev::new(vec![
                    Box::new(nvme(clock, "nvme0")),
                    Box::new(nvme(clock, "nvme1")),
                ])
                .unwrap(),
            ),
        ),
        Case {
            width: 2,
            ..case(
                "stripe",
                Box::new(StripedDev::new(vec![
                    nvme(clock, "nvme0"),
                    nvme(clock, "nvme1"),
                ])),
            )
        },
        Case {
            link: Some(LinkModel::ten_gbe(clock.clone())),
            ..case(
                "remote",
                Box::new(RemoteDev::new(
                    LinkModel::ten_gbe(clock.clone()),
                    nvme(clock, "nvme0"),
                )),
            )
        },
        case(
            "file",
            Box::new(FileDev::open(clock.clone(), &dir.join("disk.img"), 64).unwrap()),
        ),
    ]
}

fn extent_script(name: &str, dev: &mut dyn BlockDev) {
    let data: Vec<Vec<u8>> = (1..=EXTENT as u8).map(|i| vec![i; BLOCK_SIZE]).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let before = dev.stats().clone();
    let done = dev.write_blocks(LBA, &refs).unwrap();
    dev.clock().advance_to(done);
    let durable = dev.flush().unwrap();
    dev.clock().advance_to(durable);

    let mut out = vec![vec![0u8; BLOCK_SIZE]; EXTENT];
    let start = dev.clock().now();
    let done = dev.read_blocks(LBA, &mut out).unwrap();
    let extent = done.since(start);
    assert_eq!(out, data, "{name}: the extent reads back byte-equal");
    dev.clock().advance_to(done);

    // One request's virtual time: exactly what the device charges for a
    // timing-only read of the same bytes, which every device issues as
    // one request (per member, for a stripe).
    let start = dev.clock().now();
    let one = dev.charge_read_timing(BYTES).unwrap().since(start);
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
        BYTES,
        "{name}: bytes written"
    );
}

/// Runs the queue script on a device whose queues are idle.
fn queue_script(case: &mut Case) {
    let name = case.name;
    let clock = case.dev.clock().clone();
    let model = CostModel::NVME;
    let whole = SimDuration::from_nanos(model.latency_ns);
    let share = SimDuration::from_nanos(model.latency_ns / QUEUE_DEPTH);
    let read = SimDuration::for_bytes(BYTES / case.width, model.read_bw);
    let write = SimDuration::for_bytes(BYTES / case.width, model.write_bw);
    let data: Vec<Vec<u8>> = (1..=EXTENT as u8).map(|i| vec![i; BLOCK_SIZE]).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let now = clock.now();

    // Idle: the whole latency.
    let mut queue = now + whole + read;
    let mut out = vec![vec![0u8; BLOCK_SIZE]; EXTENT];
    let done = case.dev.read_blocks(LBA, &mut out).unwrap();
    assert_eq!(done, case.read(now, queue), "{name}: an idle read");
    assert_eq!(clock.now(), now, "{name}: read_blocks leaves the clock");

    // Behind a busy queue: the queue-depth share, reads and writes alike.
    queue += share + read;
    let done = case.dev.charge_read_timing(BYTES).unwrap();
    assert_eq!(done, case.read(now, queue), "{name}: a queued timing read");
    assert_eq!(
        clock.now(),
        now,
        "{name}: charge_read_timing leaves the clock"
    );
    queue += share + write;
    let done = case.dev.submit_write_timing(BYTES).unwrap();
    assert_eq!(done, case.write(queue), "{name}: a queued timing write");
    assert_eq!(
        clock.now(),
        now,
        "{name}: submit_write_timing leaves the clock"
    );
    queue += share + write;
    let done = case.dev.write_blocks(LBA, &refs).unwrap();
    assert_eq!(done, case.write(queue), "{name}: a queued write");
    assert_eq!(clock.now(), now, "{name}: write_blocks leaves the clock");

    // A flush: one whole latency after the queue drains.
    queue += whole;
    let done = case.dev.flush().unwrap();
    assert_eq!(done, case.flush(queue), "{name}: a flush");
    assert_eq!(clock.now(), now, "{name}: flush leaves the clock");

    // Waited out, the queue is idle again.
    clock.advance_to(done);
    let now = clock.now();
    let done = case.dev.read_blocks(LBA, &mut out).unwrap();
    assert_eq!(
        done,
        case.read(now, now + whole + read),
        "{name}: idle again"
    );
    assert_eq!(out, data, "{name}: the queued write landed");
}

#[test]
fn every_device_serves_an_extent_as_one_request() {
    let dir = std::env::temp_dir().join(format!("aurora-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = SimClock::new();
    for mut case in cases(&clock, &dir) {
        extent_script(case.name, case.dev.as_mut());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_device_charges_every_request_by_one_queue_rule() {
    let dir = std::env::temp_dir().join(format!("aurora-queue-rule-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = SimClock::new();
    for mut case in cases(&clock, &dir) {
        queue_script(&mut case);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stripe reads its members in parallel: a width-2 stripe's 6-block
/// read completes with one member's 3-block read, 10 µs of latency plus
/// 12 KiB at 2.5 GB/s.
#[test]
fn a_stripe_read_costs_one_members_share() {
    let clock = SimClock::new();
    let mut stripe = StripedDev::new(vec![nvme(&clock, "nvme0"), nvme(&clock, "nvme1")]);
    let mut lone = nvme(&clock, "nvme2");
    let mut six = vec![vec![0u8; BLOCK_SIZE]; 6];
    let mut three = vec![vec![0u8; BLOCK_SIZE]; 3];
    let striped = stripe.read_blocks(0, &mut six).unwrap().since(clock.now());
    let member = lone.read_blocks(0, &mut three).unwrap().since(clock.now());
    assert_eq!(striped, member);
    assert_eq!(striped.as_nanos(), 14_916);
}
