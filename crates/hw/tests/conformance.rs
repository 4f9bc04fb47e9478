//! Every `BlockDev` in the crate, run through two scripts. The extent
//! script: a written extent reads back byte-equal, a multi-block read
//! costs one request, and each extent call counts one request. The queue
//! script: one rule charges every request, whatever its kind — a data
//! call leaves the clock where it was, a request that finds the queue
//! idle pays the whole access latency plus its transfer, a request
//! submitted behind a busy queue pays `latency / QUEUE_DEPTH` plus its
//! transfer, and a flush completes one whole latency after the queue
//! drains. And the body rule: a device keeps the bodies it is given by
//! reference and never writes into one. A discard is free and forgets
//! exactly the blocks it names, on every copy that holds them.

// Test code asserts invariants; the workspace unwrap denial is for
// production flush paths.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use aurora_hw::dev::{CostModel, QUEUE_DEPTH};
use aurora_hw::file_dev::FileDev;
use aurora_hw::{
    BlockDev, FaultPlan, LinkModel, MirrorDev, ModelDev, RemoteDev, ResilientDev, StripedDev,
    BLOCK_SIZE,
};
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::{PageData, SimClock};

/// Blocks in the scripted extent.
const EXTENT: usize = 6;
/// Where the extent starts; off a stripe boundary on purpose.
const LBA: u64 = 3;
/// The scripted extent's bytes.
const BYTES: u64 = (EXTENT * BLOCK_SIZE) as u64;

fn nvme(clock: &Arc<SimClock>, name: &str) -> ModelDev {
    ModelDev::nvme(clock.clone(), name, 64)
}

/// The scripted extent: block `i` filled with byte `i + 1`.
fn extent() -> Vec<PageData> {
    (1..=EXTENT as u8)
        .map(|i| PageData::from_bytes(&[i; BLOCK_SIZE]))
        .collect()
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
    let data = extent();
    let before = dev.stats().clone();
    let done = dev.write_blocks(LBA, &data).unwrap();
    dev.clock().advance_to(done);
    let durable = dev.flush().unwrap();
    dev.clock().advance_to(durable);

    let mut out = vec![PageData::Zero; EXTENT];
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
    let data = extent();
    let now = clock.now();

    // Idle: the whole latency.
    let mut queue = now + whole + read;
    let mut out = vec![PageData::Zero; EXTENT];
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
    let done = case.dev.write_blocks(LBA, &data).unwrap();
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
    let mut six = vec![PageData::Zero; 6];
    let mut three = vec![PageData::Zero; 3];
    let striped = stripe.read_blocks(0, &mut six).unwrap().since(clock.now());
    let member = lone.read_blocks(0, &mut three).unwrap().since(clock.now());
    assert_eq!(striped, member);
    assert_eq!(striped.as_nanos(), 14_916);
}

/// A bytes body, a seeded body and the zero page, as one extent.
fn mixed() -> Vec<PageData> {
    let mut bytes = [0u8; BLOCK_SIZE];
    bytes[7] = 0x5A;
    vec![PageData::from_bytes(&bytes), PageData::Seeded(42), PageData::Zero]
}

/// Writes `bodies` at `lba` and waits for the write and a flush.
fn write_durably(dev: &mut dyn BlockDev, lba: u64, bodies: &[PageData]) {
    let done = dev.write_blocks(lba, bodies).unwrap();
    dev.clock().advance_to(done);
    let done = dev.flush().unwrap();
    dev.clock().advance_to(done);
}

/// Reads `n` blocks at `lba` and waits for them.
fn read_back(dev: &mut dyn BlockDev, lba: u64, n: usize) -> Vec<PageData> {
    let mut out = vec![PageData::Zero; n];
    let done = dev.read_blocks(lba, &mut out).unwrap();
    dev.clock().advance_to(done);
    out
}

/// The bytes body's allocation, to tell it apart from an equal copy.
fn arc(body: &PageData) -> Arc<[u8]> {
    match body {
        PageData::Bytes(b) => Arc::clone(b),
        other => panic!("expected a bytes body, got {other:?}"),
    }
}

/// Asserts that `body` still holds exactly the bytes `before`, in the
/// allocation `ptr`: nothing wrote into it.
fn untouched(body: &PageData, before: &[u8], ptr: *const u8, what: &str) {
    assert_eq!(body.materialize(), before, "{what} wrote into the caller's body");
    assert_eq!(arc(body).as_ptr(), ptr, "{what} replaced the caller's body");
}

#[test]
fn every_device_reads_back_its_bodies_and_the_model_never_writes_into_one() {
    let dir = std::env::temp_dir().join(format!("aurora-bodies-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = SimClock::new();
    for mut case in cases(&clock, &dir) {
        let bodies = mixed();
        write_durably(case.dev.as_mut(), LBA, &bodies);
        let out = read_back(case.dev.as_mut(), LBA, bodies.len());
        assert_eq!(out, bodies, "{}: the bodies read back content-equal", case.name);
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // The model keeps the very bodies it was given.
    let mut dev = nvme(&clock, "nvme0");
    let bodies = mixed();
    write_durably(&mut dev, LBA, &bodies);
    let [body, ..] = &bodies[..] else { panic!("three bodies written") };
    let [bytes, seeded, zero] = &read_back(&mut dev, LBA, bodies.len())[..] else {
        panic!("three bodies read")
    };
    assert!(Arc::ptr_eq(&arc(bytes), &arc(body)), "a read returns the written body");
    assert!(matches!(seeded, PageData::Seeded(42)), "a seeded body stays seeded");
    assert!(zero.is_zero());

    let body = body.clone();
    let (before, ptr) = (body.materialize(), arc(&body).as_ptr());

    // A power cut tears the block over its old contents.
    dev.install_fault_plan(FaultPlan::torn_write(1, 100));
    let old = PageData::Seeded(7);
    assert!(BlockDev::write_blocks(&mut dev, LBA, std::slice::from_ref(&old)).is_err());
    dev.power_on();
    let torn = read_back(&mut dev, LBA, 1).remove(0).materialize();
    assert_eq!(torn.get(..100), old.materialize().get(..100), "the torn prefix landed");
    assert_eq!(torn.get(100..), before.get(100..), "the suffix kept the old block");
    untouched(&body, &before, ptr, "a torn write");

    // A write-time flip lands a damaged copy.
    dev.install_fault_plan(FaultPlan::corrupt(1, 7, 0));
    write_durably(&mut dev, LBA + 1, std::slice::from_ref(&body));
    let landed = read_back(&mut dev, LBA + 1, 1).remove(0);
    assert_eq!(landed.materialize().get(7), Some(&0x5B), "the bit flipped on the medium");
    untouched(&body, &before, ptr, "a write-time flip");

    // A read-time flip damages the returned copy, not the medium's body.
    dev.install_fault_plan(FaultPlan::default());
    write_durably(&mut dev, LBA + 2, std::slice::from_ref(&body));
    dev.install_fault_plan(FaultPlan::corrupt_read_blocks(LBA + 2, LBA + 3, 7, 0));
    let flipped = read_back(&mut dev, LBA + 2, 1).remove(0);
    assert_eq!(flipped.materialize().get(7), Some(&0x5B), "the read flipped a bit");
    dev.install_fault_plan(FaultPlan::default());
    let clean = read_back(&mut dev, LBA + 2, 1).remove(0);
    assert!(Arc::ptr_eq(&arc(&clean), &arc(&body)), "the medium kept the written body");
    untouched(&body, &before, ptr, "a read-time flip");

    // A mirror repair rewrites the damaged replica from its twin.
    let mut mirror =
        MirrorDev::new(vec![Box::new(nvme(&clock, "nvme0")), Box::new(nvme(&clock, "nvme1"))])
            .unwrap();
    write_durably(&mut mirror, LBA, std::slice::from_ref(&body));
    mirror
        .install_replica_fault_plan(0, FaultPlan::corrupt_read_blocks(LBA, LBA + 1, 7, 0))
        .unwrap();
    let want = body.content_hash();
    let golden = mirror
        .repair_block(LBA, &mut |b: &PageData| b.content_hash() == want)
        .unwrap()
        .expect("the twin holds a good copy");
    assert_eq!(golden, body);
    assert_eq!(mirror.mirror_stats().read_repairs, 1);
    untouched(&body, &before, ptr, "a mirror repair");
}

/// A discard charges nothing and forgets exactly the blocks it names:
/// the next request still finds the queue idle, the discarded block
/// reads zero and its neighbours keep their bodies. A stripe forgets
/// the block on the member that holds it; a mirror forgets it on every
/// replica, so the twin left after a replica dies reads zero too. The
/// file device keeps its bytes: its discard is the no-op default.
#[test]
fn every_device_discards_for_free_and_forgets_only_what_it_names() {
    let dir = std::env::temp_dir().join(format!("aurora-discard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = SimClock::new();
    let gone = LBA + 1;
    for mut case in cases(&clock, &dir) {
        let name = case.name;
        let data = extent();
        write_durably(case.dev.as_mut(), LBA, &data);
        let before = clock.now();
        case.dev.discard(gone, 1);
        assert_eq!(clock.now(), before, "{name}: discard leaves the clock");
        let mut out = vec![PageData::Zero; EXTENT];
        let done = case.dev.read_blocks(LBA, &mut out).unwrap();
        let model = CostModel::NVME;
        let idle = before
            + SimDuration::from_nanos(model.latency_ns)
            + SimDuration::for_bytes(BYTES / case.width, model.read_bw);
        assert_eq!(
            done,
            case.read(before, idle),
            "{name}: discard occupies no queue"
        );
        clock.advance_to(done);
        let want: Vec<PageData> = (LBA..)
            .zip(data)
            .map(|(lba, body)| match lba == gone && name != "file" {
                true => PageData::Zero,
                false => body,
            })
            .collect();
        assert_eq!(out, want, "{name}: only the named block is forgotten");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    for dead in 0..2 {
        let mut mirror = MirrorDev::new(vec![
            Box::new(nvme(&clock, "nvme0")),
            Box::new(nvme(&clock, "nvme1")),
        ])
        .unwrap();
        write_durably(&mut mirror, LBA, &extent());
        mirror.discard(gone, 1);
        mirror.kill_replica(dead).unwrap();
        let out = read_back(&mut mirror, gone, 1);
        assert_eq!(
            out,
            vec![PageData::Zero],
            "replica {} kept the block",
            1 - dead
        );
    }
}
