//! Application-level integration tests: every KV persistence strategy
//! survives a machine crash; transparent persistence needs zero
//! application code.

use aurora_apps::kv::{KvOp, KvServer, PersistMode};
use aurora_apps::workload::{KeyDist, Workload};
use aurora_core::restore::RestoreMode;
use aurora_core::{GroupId, Host};
use aurora_hw::ModelDev;
use aurora_objstore::StoreConfig;
use aurora_sim::SimClock;

fn new_host() -> Host {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 256 * 1024));
    Host::boot(
        "h",
        dev,
        StoreConfig {
            journal_blocks: 2048,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

fn seed_data(host: &mut Host, server: &mut KvServer, n: u32) {
    for i in 0..n {
        server
            .exec(
                host,
                &KvOp::Set(
                    format!("user:{i}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                ),
            )
            .unwrap();
    }
}

fn check_data(host: &mut Host, server: &mut KvServer, n: u32) {
    for i in 0..n {
        let v = server
            .exec(host, &KvOp::Get(format!("user:{i}").into_bytes()))
            .unwrap();
        assert_eq!(
            v.as_deref(),
            Some(format!("value-{i}").as_bytes()),
            "key user:{i}"
        );
    }
}

#[test]
fn wal_mode_survives_crash() {
    let mut host = new_host();
    let mut server = KvServer::start(&mut host, PersistMode::WalFsync, 8 << 20, 256).unwrap();
    seed_data(&mut host, &mut server, 50);
    server
        .exec(&mut host, &KvOp::Del(b"user:7".to_vec()))
        .unwrap();

    let mut host = host.crash_and_reboot().unwrap();
    let mut server = KvServer::recover_wal(&mut host, 8 << 20, 256).unwrap();
    assert_eq!(server.len(&mut host).unwrap(), 49);
    assert_eq!(
        server
            .exec(&mut host, &KvOp::Get(b"user:7".to_vec()))
            .unwrap(),
        None
    );
    check_data(&mut host, &mut server, 7);
    // Recovered server keeps serving and persisting.
    server
        .exec(&mut host, &KvOp::Set(b"post".to_vec(), b"crash".to_vec()))
        .unwrap();
}

#[test]
fn fork_snapshot_mode_survives_crash_to_last_snapshot() {
    let mut host = new_host();
    let mut server = KvServer::start(
        &mut host,
        PersistMode::ForkSnapshot { every: 20 },
        8 << 20,
        256,
    )
    .unwrap();
    // 45 sets: snapshots after op 20 and 40; ops 41-45 will be lost.
    seed_data(&mut host, &mut server, 45);
    assert!(server.snapshot_stalls.as_nanos() > 0, "fork pauses counted");

    let mut host = host.crash_and_reboot().unwrap();
    let mut server = KvServer::recover_rdb(&mut host, 8 << 20, 256, 20).unwrap();
    let len = server.len(&mut host).unwrap();
    assert_eq!(len, 40, "recovered to the last snapshot boundary");
    check_data(&mut host, &mut server, 40);
}

#[test]
fn aurora_transparent_mode_needs_no_code() {
    let mut host = new_host();
    let mut server =
        KvServer::start(&mut host, PersistMode::AuroraTransparent, 8 << 20, 256).unwrap();
    let gid = server.gid.unwrap();
    seed_data(&mut host, &mut server, 30);
    // The SLS checkpoints transparently (here: explicit tick).
    let bd = host.checkpoint(gid, false, None).unwrap();
    host.clock.advance_to(bd.durable_at);
    // Data written after the checkpoint is lost on crash — transparent
    // persistence gives the last-checkpoint cut.
    seed_data(&mut host, &mut server, 35);

    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let pid = r.root_pid().unwrap();
    let mut server = KvServer::attach(&mut host, pid, PersistMode::AuroraTransparent).unwrap();
    assert_eq!(server.len(&mut host).unwrap(), 30);
    // The op counter register also resumed (before the Gets below
    // bump it further).
    assert_eq!(server.ops_executed(&host), 30);
    check_data(&mut host, &mut server, 30);
}

#[test]
fn aurora_port_replays_ntlog_tail() {
    let mut host = new_host();
    let mut server = KvServer::start(&mut host, PersistMode::AuroraPort, 8 << 20, 256).unwrap();
    let gid = server.gid.unwrap();
    seed_data(&mut host, &mut server, 20);
    // Application checkpoint: image holds 20 keys, log truncates.
    server.aurora_checkpoint(&mut host).unwrap();
    // 10 more mutations land in the persistent log only.
    seed_data(&mut host, &mut server, 30);

    let mut host = host.crash_and_reboot().unwrap();
    let store = host.sls.primary.clone();
    // Restoring at the head resolves the application manifest through
    // the chain (the head itself is an ntflush mini-commit).
    let head = store.borrow().head().unwrap();
    let r = host.restore(&store, head, RestoreMode::Eager).unwrap();
    let pid = r.root_pid().unwrap();
    // ...then replay the log tail (ops 21-30).
    let mut server = KvServer::recover_aurora_port(&mut host, pid, GroupId(gid.0)).unwrap();
    assert_eq!(server.len(&mut host).unwrap(), 30);
    check_data(&mut host, &mut server, 30);
}

#[test]
fn aurora_port_faster_than_wal_per_op() {
    // The §4 claim, measured: the ntflush path costs less virtual time
    // per durable mutation than WAL + fsync.
    let mut wal_host = new_host();
    let mut wal = KvServer::start(&mut wal_host, PersistMode::WalFsync, 8 << 20, 512).unwrap();
    let mut w = Workload::new(1, 100, 64, 0.0, KeyDist::Uniform);
    let t0 = wal_host.clock.now();
    for _ in 0..100 {
        wal.exec(&mut wal_host, &w.next_op()).unwrap();
    }
    let wal_time = wal_host.clock.now().since(t0);

    let mut a_host = new_host();
    let mut aurora = KvServer::start(&mut a_host, PersistMode::AuroraPort, 8 << 20, 512).unwrap();
    let mut w = Workload::new(1, 100, 64, 0.0, KeyDist::Uniform);
    let t0 = a_host.clock.now();
    for _ in 0..100 {
        aurora.exec(&mut a_host, &w.next_op()).unwrap();
    }
    let aurora_time = a_host.clock.now().since(t0);

    assert!(
        aurora_time < wal_time,
        "aurora port {aurora_time} should beat WAL {wal_time}"
    );
}

#[test]
fn zipfian_workload_dirty_set_shrinks_incrementals() {
    // Skewed writes concentrate on few pages, so incremental checkpoints
    // stay small — the mechanism behind sustained 100 Hz checkpointing.
    let mut host = new_host();
    let mut server =
        KvServer::start(&mut host, PersistMode::AuroraTransparent, 64 << 20, 8192).unwrap();
    let gid = server.gid.unwrap();
    let mut w = Workload::new(5, 8000, 128, 0.0, KeyDist::Uniform);
    for op in w.load_ops() {
        server.exec(&mut host, &op).unwrap();
    }
    let full = host.checkpoint(gid, true, None).unwrap();

    let mut zipf = Workload::new(6, 8000, 128, 0.5, KeyDist::Zipfian { theta: 0.99 });
    for _ in 0..100 {
        let op = zipf.next_op();
        server.exec(&mut host, &op).unwrap();
    }
    let incr = host.checkpoint(gid, false, None).unwrap();
    assert!(
        incr.pages * 3 < full.pages,
        "incremental {} vs full {}",
        incr.pages,
        full.pages
    );
}

