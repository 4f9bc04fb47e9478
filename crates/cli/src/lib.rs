//! The `sls` command-line tool (Table 1).
//!
//! `sls` operates on a *world*: a directory whose `disk.img` file backs
//! the primary object store (with real page bytes), so applications
//! genuinely persist across invocations of the binary — each command
//! boots a fresh simulated machine, restores state from the store,
//! operates, and checkpoints back.
//!
//! | Paper command    | Here                                            |
//! |------------------|-------------------------------------------------|
//! | `sls persist`    | start a demo app and register it for persistence|
//! | `sls attach`     | attach an additional file-backed backend        |
//! | `sls detach`     | detach a backend                                |
//! | `sls checkpoint` | take a (named) checkpoint                       |
//! | `sls restore`    | restore an application and show its state       |
//! | `sls ps`         | list applications and their checkpoints         |
//! | `sls send`       | export a checkpoint to a file                   |
//! | `sls recv`       | import a checkpoint from a file                 |
//!
//! Extra commands: `init`, `run` (advance an app and checkpoint), `info`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use aurora_apps::hello::HelloApp;
use aurora_apps::kv::{KvOp, KvServer, PersistMode};
use aurora_apps::pool::TenantFleet;
use aurora_core::fleet::TenantHealth;
use aurora_core::restore::RestoreMode;
use aurora_core::serialize::ManifestRec;
use aurora_core::{BackendKind, GroupId, Host, ReplConfig};
use aurora_hw::file_dev::FileDev;
use aurora_hw::{BlockDev, FaultPlan, LinkFaultRates, MirrorDev, ModelDev, ReplicaState};
use aurora_objstore::{CkptId, ObjectStore, StoreConfig};
use aurora_posix::Pid;
use aurora_sim::error::{Error, Result};
use aurora_sim::SimClock;

/// Default world directory.
pub const DEFAULT_WORLD: &str = "./aurora-world";

/// Default world size in blocks (256 MiB).
const DEFAULT_BLOCKS: u64 = 64 * 1024;

const HELP: &str = "\
sls — the Aurora single level store control tool

USAGE: sls [--world DIR] <command> [options]

COMMANDS (Table 1 of the paper):
  persist <name> --app hello|kv   Add an application to a persistence group
  attach <name>                   Attach an additional (file-backed) backend
  detach <name> --index N         Detach a backend
  checkpoint <name> [--tag TAG]   Checkpoint an application
  restore <name> [--tag TAG]      Restore an application from an image
  ps                              List applications in Aurora
  send <name> --out FILE          Send an application (export a checkpoint)
  recv --in FILE                  Receive an application (import a checkpoint)

WORLD MANAGEMENT:
  init [--blocks N] [--mirror R]  Create a new world (R-way mirrored when R >= 2)
  run <name> [--steps N]          Advance an application, then checkpoint it
  info                            Show the world: checkpoints, space, health
  scrub                           Verify every checkpoint against its content
                                  hashes and report device health
  mirror [--kill I] [--revive I]  Show replica states; detach or readmit one
  resilver                        Rebuild rebuilding replicas from the live store

FLEET:
  fleet [--tenants N] [--rounds R] [--healthy]
                                  Run an in-memory fleet demo on isolated
                                  per-tenant stores. Tenant 0 is poisoned
                                  with device latency spikes: watch it miss
                                  deadlines, quarantine, and re-admit while
                                  the rest of the fleet stays on schedule
                                  (--healthy leaves every tenant clean)

REPLICATION (hot standby):
  standby <name> [--epochs N] [--steps S] [--faults clean|lossy|hostile]
                                  Advance an app N epochs, shipping every
                                  checkpoint to the standby image over a
                                  fault-modeled link (full sync, then deltas)
  promote [--verify-only]         Fail over to the standby image: verify it
                                  boots and restores, then make it the primary
                                  (the old disk.img is kept as a backup)
";

/// Runs one `sls` invocation; returns what should be printed.
pub fn run(args: &[&str]) -> Result<String> {
    let mut world = PathBuf::from(DEFAULT_WORLD);
    let mut rest: Vec<&str> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(&a) = it.next() {
        if a == "--world" {
            let dir = it
                .next()
                .ok_or_else(|| Error::invalid("--world needs a directory"))?;
            world = PathBuf::from(dir);
        } else {
            rest.push(a);
        }
    }
    let Some(&cmd) = rest.first() else {
        return Ok(HELP.to_string());
    };
    let opts = &rest[1..];
    match cmd {
        "--help" | "-h" | "help" => Ok(HELP.to_string()),
        "init" => cmd_init(&world, opts),
        "persist" => cmd_persist(&world, opts),
        "run" => cmd_run(&world, opts),
        "checkpoint" => cmd_checkpoint(&world, opts),
        "restore" => cmd_restore(&world, opts),
        "ps" => cmd_ps(&world),
        "attach" => cmd_attach(&world, opts),
        "detach" => cmd_detach(&world, opts),
        "send" => cmd_send(&world, opts),
        "recv" => cmd_recv(&world, opts),
        "info" => cmd_info(&world),
        "fleet" => cmd_fleet(opts),
        "scrub" => cmd_scrub(&world),
        "mirror" => cmd_mirror(&world, opts),
        "resilver" => cmd_resilver(&world),
        "standby" => cmd_standby(&world, opts),
        "promote" => cmd_promote(&world, opts),
        other => Err(Error::invalid(format!("unknown command {other}; try --help"))),
    }
}

fn flag_value<'a>(opts: &[&'a str], flag: &str) -> Option<&'a str> {
    opts.iter()
        .position(|&o| o == flag)
        .and_then(|i| opts.get(i + 1).copied())
}

fn disk_path(world: &Path) -> PathBuf {
    world.join("disk.img")
}

/// Backing file of mirror replica `i` (replica 0 is the plain disk).
fn replica_path(world: &Path, i: usize) -> PathBuf {
    if i == 0 {
        disk_path(world)
    } else {
        world.join(format!("disk.{i}.img"))
    }
}

fn mirror_meta_path(world: &Path) -> PathBuf {
    world.join("mirror.meta")
}

/// Reads the persisted replica states of a mirrored world: one state
/// word per replica, in replica order. `None` for unmirrored worlds.
fn load_mirror_states(world: &Path) -> Result<Option<Vec<ReplicaState>>> {
    let path = mirror_meta_path(world);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| Error::io(e.to_string()))?;
    let mut states = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        states.push(
            ReplicaState::parse(line)
                .ok_or_else(|| Error::corrupt(format!("mirror.meta: bad replica state {line:?}")))?,
        );
    }
    if states.len() < 2 {
        return Err(Error::corrupt("mirror.meta lists fewer than two replicas"));
    }
    Ok(Some(states))
}

/// Persists the current replica states so the next invocation reopens
/// the mirror in the same shape: a detached replica stays detached, and
/// a crash mid-resilver leaves the target rebuilding (never trusted for
/// reads) until `sls resilver` finishes the copy.
fn save_mirror_states(world: &Path, host: &Host) -> Result<()> {
    let store = host.sls.primary.borrow();
    let dev = store.device();
    let Some(m) = dev.as_mirror() else {
        return Ok(());
    };
    let text: String = (0..m.width())
        .map(|i| {
            format!(
                "{}\n",
                m.replica_state(i).unwrap_or(ReplicaState::Active).as_str()
            )
        })
        .collect();
    std::fs::write(mirror_meta_path(world), text).map_err(|e| Error::io(e.to_string()))
}

fn store_config() -> StoreConfig {
    StoreConfig {
        journal_blocks: 2048,
        materialize_data: true,
        ..StoreConfig::default()
    }
}

fn open_host(world: &Path) -> Result<Host> {
    let path = disk_path(world);
    if !path.exists() {
        return Err(Error::not_found(format!(
            "no world at {} (run `sls init` first)",
            world.display()
        )));
    }
    let clock = SimClock::new();
    let blocks = std::fs::metadata(&path)
        .map_err(|e| Error::io(e.to_string()))?
        .len()
        / 4096;
    if let Some(states) = load_mirror_states(world)? {
        let mut members: Vec<Box<dyn BlockDev>> = Vec::with_capacity(states.len());
        for i in 0..states.len() {
            members.push(Box::new(FileDev::open(
                clock.clone(),
                &replica_path(world, i),
                blocks,
            )?));
        }
        let mut mirror = MirrorDev::new(members)?;
        for (i, &state) in states.iter().enumerate() {
            mirror.restore_replica_state(i, state)?;
        }
        return Host::boot_existing("sls-world", Box::new(mirror), store_config());
    }
    let dev = Box::new(FileDev::open(clock, &path, blocks)?);
    Host::boot_existing("sls-world", dev, store_config())
}

fn cmd_init(world: &Path, opts: &[&str]) -> Result<String> {
    let blocks: u64 = flag_value(opts, "--blocks")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --blocks")))
        .transpose()?
        .unwrap_or(DEFAULT_BLOCKS);
    let mirror: usize = flag_value(opts, "--mirror")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --mirror")))
        .transpose()?
        .unwrap_or(1);
    if mirror == 0 || mirror > 8 {
        return Err(Error::invalid("--mirror takes a replica count from 1 to 8"));
    }
    std::fs::create_dir_all(world).map_err(|e| Error::io(e.to_string()))?;
    let path = disk_path(world);
    if path.exists() {
        return Err(Error::already_exists(format!("{}", path.display())));
    }
    let clock = SimClock::new();
    if mirror >= 2 {
        let mut members: Vec<Box<dyn BlockDev>> = Vec::with_capacity(mirror);
        for i in 0..mirror {
            members.push(Box::new(FileDev::open(
                clock.clone(),
                &replica_path(world, i),
                blocks,
            )?));
        }
        let host = Host::boot_mirrored("sls-world", members, store_config())?;
        save_mirror_states(world, &host)?;
        drop(host);
        return Ok(format!(
            "initialized world at {} ({} blocks, {mirror}-way mirror)\n",
            world.display(),
            blocks,
        ));
    }
    let dev = Box::new(FileDev::open(clock, &path, blocks)?);
    let host = Host::boot("sls-world", dev, store_config())?;
    drop(host);
    Ok(format!(
        "initialized world at {} ({} blocks)\n",
        world.display(),
        blocks
    ))
}

/// Finds the newest checkpoint whose manifest carries `name`.
fn find_app(host: &mut Host, name: &str) -> Result<(CkptId, ManifestRec)> {
    let store = host.sls.primary.clone();
    let mut st = store.borrow_mut();
    let ids: Vec<CkptId> = st.checkpoints().iter().map(|c| c.id).collect();
    for id in ids.into_iter().rev() {
        // Only the manifest this checkpoint's group committed (nearest in
        // the chain) — restoring at `id` resurrects that group.
        if let Some(key) = st.nearest_blob_key(id, "/manifest") {
            if let Some(blob) = st.get_blob(id, &key)? {
                if let Ok(m) = ManifestRec::decode(&blob) {
                    if m.name == name {
                        return Ok((id, m));
                    }
                }
            }
        }
    }
    Err(Error::not_found(format!("application {name}")))
}

/// Starts a demo app by kind; returns its root pid.
fn start_app(host: &mut Host, app: &str) -> Result<Pid> {
    match app {
        "hello" => Ok(HelloApp::start(host)?.pid),
        "kv" => Ok(KvServer::start(host, PersistMode::None, 8 << 20, 1024)?.pid),
        other => Err(Error::invalid(format!("unknown app {other} (hello|kv)"))),
    }
}

/// Describes an app process's state for display.
fn describe(host: &mut Host, pid: Pid) -> String {
    let name = host
        .kernel
        .proc_ref(pid)
        .map(|p| p.name.clone())
        .unwrap_or_default();
    match name.as_str() {
        "hello" => match HelloApp::attach(host, pid) {
            Ok(app) => app
                .greeting(host)
                .map(|g| format!("greeting: {g:?}"))
                .unwrap_or_else(|e| format!("unreadable: {e}")),
            Err(e) => format!("unreadable: {e}"),
        },
        "kv-server" => match KvServer::attach(host, pid, PersistMode::None) {
            Ok(server) => {
                let len = server.len(host).unwrap_or(0);
                format!("keys: {len}, ops executed: {}", server.ops_executed(host))
            }
            Err(e) => format!("unreadable: {e}"),
        },
        other => format!("process {other}"),
    }
}

/// Advances an app deterministically by `steps`.
fn advance(host: &mut Host, pid: Pid, steps: u64) -> Result<String> {
    let name = host.kernel.proc_ref(pid)?.name.clone();
    match name.as_str() {
        "hello" => {
            let app = HelloApp::attach(host, pid)?;
            let mut last = 0;
            for _ in 0..steps {
                last = app.step(host)?;
            }
            Ok(format!("stepped to #{last}"))
        }
        "kv-server" => {
            let mut server = KvServer::attach(host, pid, PersistMode::None)?;
            let base = server.ops_executed(host);
            for i in 0..steps {
                let n = base + i;
                server.exec(
                    host,
                    &KvOp::Set(
                        format!("auto:{}", n % 512).into_bytes(),
                        format!("value at op {n}").into_bytes(),
                    ),
                )?;
            }
            Ok(format!("executed {steps} mutations"))
        }
        other => Err(Error::unsupported(format!("cannot advance {other}"))),
    }
}

/// Restores the newest image of `name` into the booted kernel and
/// re-registers it as a persistence group (with any extra backends).
fn revive(host: &mut Host, world: &Path, name: &str) -> Result<(GroupId, Pid)> {
    let (ckpt, manifest) = find_app(host, name)?;
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager)?;
    let pid = r
        .root_pid()
        .ok_or_else(|| Error::bad_image("image restored no process"))?;
    let gid = host.persist(name, pid)?;
    // Remember the incarnation this revival supersedes; pruned after the
    // new group's first checkpoint lands (see the callers).
    host.sls.group_mut(gid)?.supersedes = Some(manifest.gid);
    for path in backend_list(world, name)? {
        let clock = host.clock.clone();
        let blocks = std::fs::metadata(&path)
            .map_err(|e| Error::io(e.to_string()))?
            .len()
            / 4096;
        let dev = Box::new(FileDev::open(clock, &path, blocks)?);
        let store = ObjectStore::open(dev, store_config())
            .or_else(|_| {
                let clock = host.clock.clone();
                let dev = Box::new(FileDev::open(clock, &path, blocks)?);
                ObjectStore::format(dev, store_config())
            })?;
        host.attach_backend(
            gid,
            BackendKind::Disk,
            std::rc::Rc::new(std::cell::RefCell::new(store)),
        )?;
    }
    Ok((gid, pid))
}

fn backends_file(world: &Path, name: &str) -> PathBuf {
    world.join(format!("backends-{name}.txt"))
}

fn backend_list(world: &Path, name: &str) -> Result<Vec<PathBuf>> {
    let path = backends_file(world, name);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| Error::io(e.to_string()))?;
    Ok(text.lines().map(PathBuf::from).collect())
}

fn cmd_persist(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("persist needs a name"))?;
    let app = flag_value(opts, "--app").unwrap_or("hello");
    let mut host = open_host(world)?;
    if find_app(&mut host, name).is_ok() {
        return Err(Error::already_exists(format!("application {name}")));
    }
    let pid = start_app(&mut host, app)?;
    let gid = host.persist(name, pid)?;
    let bd = host.checkpoint(gid, true, Some(name))?;
    host.wait_durable(gid)?;
    Ok(format!(
        "persisted {name} (app {app}, pid {}): checkpoint {} durable, stop time {}\n",
        pid.0,
        bd.ckpt.map(|c| c.0).unwrap_or(0),
        bd.stop_time,
    ))
}

fn cmd_run(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("run needs a name"))?;
    let steps: u64 = flag_value(opts, "--steps")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --steps")))
        .transpose()?
        .unwrap_or(10);
    let mut host = open_host(world)?;
    let (gid, pid) = revive(&mut host, world, name)?;
    let report = advance(&mut host, pid, steps)?;
    let bd = host.checkpoint(gid, false, None)?;
    host.wait_durable(gid)?;
    if let Some(old) = host.sls.group_ref(gid)?.supersedes {
        host.prune_incarnation(old)?;
    }
    Ok(format!(
        "{name}: {report}; checkpoint {} ({} pages, stop {}){}\n  state: {}\n",
        bd.ckpt.map(|c| c.0).unwrap_or(0),
        bd.pages,
        bd.stop_time,
        outcome_note(&bd),
        describe(&mut host, pid),
    ))
}

/// Formats a warning suffix when a checkpoint did not commit cleanly.
fn outcome_note(bd: &aurora_core::CheckpointBreakdown) -> String {
    if bd.outcome == aurora_core::CheckpointOutcome::Committed {
        return String::new();
    }
    format!(
        " [{}{}]",
        bd.outcome.as_str(),
        bd.fault
            .as_deref()
            .map(|f| format!(": {f}"))
            .unwrap_or_default()
    )
}

fn cmd_checkpoint(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("checkpoint needs a name"))?;
    let tag = flag_value(opts, "--tag");
    let mut host = open_host(world)?;
    let (gid, _pid) = revive(&mut host, world, name)?;
    let bd = host.checkpoint(gid, false, tag)?;
    host.wait_durable(gid)?;
    if let Some(old) = host.sls.group_ref(gid)?.supersedes {
        host.prune_incarnation(old)?;
    }
    Ok(format!(
        "checkpointed {name}: id {}{}, metadata {}, stop {}{}\n",
        bd.ckpt.map(|c| c.0).unwrap_or(0),
        tag.map(|t| format!(" (tag {t})")).unwrap_or_default(),
        bd.metadata_copy,
        bd.stop_time,
        outcome_note(&bd),
    ))
}

fn cmd_restore(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("restore needs a name"))?;
    let mut host = open_host(world)?;
    let ckpt = match flag_value(opts, "--tag") {
        Some(tag) => host
            .sls
            .primary
            .borrow()
            .checkpoint_by_name(tag)
            .map(|c| c.id)
            .ok_or_else(|| Error::not_found(format!("tag {tag}")))?,
        None => find_app(&mut host, name)?.0,
    };
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager)?;
    let pid = r
        .root_pid()
        .ok_or_else(|| Error::bad_image("image restored no process"))?;
    Ok(format!(
        "restored {name} from checkpoint {} in {} (read {}, memory {}, metadata {})\n  \
         page-in: stream {}, {} hidden under metadata\n  state: {}\n",
        ckpt.0,
        r.total,
        r.objstore_read,
        r.memory_state,
        r.metadata_state,
        r.stream.total(),
        r.stream.hidden,
        describe(&mut host, pid),
    ))
}

fn cmd_ps(world: &Path) -> Result<String> {
    let host = open_host(world)?;
    let store = host.sls.primary.clone();
    let mut out = String::new();
    writeln!(out, "{:<12} {:<8} {:<10} OBJECTS", "NAME", "CKPT", "TAG").ok();
    let mut seen = std::collections::BTreeSet::new();
    let infos: Vec<(CkptId, Option<String>)> = {
        let st = store.borrow();
        st.checkpoints()
            .iter()
            .map(|c| (c.id, c.name.clone()))
            .collect()
    };
    for (id, tag) in infos {
        let mut st = store.borrow_mut();
        let keys = st.blob_keys_at(id, "g");
        for key in keys.into_iter().filter(|k| k.ends_with("/manifest")) {
            if let Some(blob) = st.get_blob(id, &key)? {
                if let Ok(m) = ManifestRec::decode(&blob) {
                    if seen.insert((m.name.clone(), id.0)) {
                        writeln!(
                            out,
                            "{:<12} {:<8} {:<10} {} procs, {} vmos, {} files",
                            m.name,
                            id.0,
                            tag.clone().unwrap_or_default(),
                            m.pids.len(),
                            m.vmos.len(),
                            m.files.len(),
                        )
                        .ok();
                    }
                }
            }
        }
    }
    Ok(out)
}

fn cmd_attach(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("attach needs a name"))?;
    let mut host = open_host(world)?;
    find_app(&mut host, name)?;
    let existing = backend_list(world, name)?;
    let path = world.join(format!("backend-{name}-{}.img", existing.len() + 1));
    // Pre-create and format the backend image.
    {
        let clock = SimClock::new();
        let dev = Box::new(FileDev::open(clock, &path, DEFAULT_BLOCKS)?);
        ObjectStore::format(dev, store_config())?;
    }
    let mut list = existing;
    list.push(path.clone());
    let text: String = list
        .iter()
        .map(|p| format!("{}\n", p.display()))
        .collect();
    std::fs::write(backends_file(world, name), text).map_err(|e| Error::io(e.to_string()))?;
    Ok(format!(
        "attached backend {} to {name} ({} total); the next checkpoint replicates to it\n",
        path.display(),
        list.len() + 1,
    ))
}

fn cmd_detach(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("detach needs a name"))?;
    let index: usize = flag_value(opts, "--index")
        .ok_or_else(|| Error::invalid("detach needs --index"))?
        .parse()
        .map_err(|_| Error::invalid("bad --index"))?;
    let mut list = backend_list(world, name)?;
    if index == 0 || index > list.len() {
        return Err(Error::not_found(format!(
            "backend {index} of {name} ({} attached)",
            list.len()
        )));
    }
    let removed = list.remove(index - 1);
    let text: String = list
        .iter()
        .map(|p| format!("{}\n", p.display()))
        .collect();
    std::fs::write(backends_file(world, name), text).map_err(|e| Error::io(e.to_string()))?;
    Ok(format!("detached backend {}\n", removed.display()))
}

fn cmd_send(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("send needs a name"))?;
    let out_path = flag_value(opts, "--out").ok_or_else(|| Error::invalid("send needs --out"))?;
    let mut host = open_host(world)?;
    let (ckpt, manifest) = find_app(&mut host, name)?;
    // Ship exactly this application's namespace (its group's objects and
    // records), not the world's whole history.
    let prefix = format!("g{}/", manifest.gid);
    let stream = host.sls.primary.borrow_mut().export_checkpoint_filtered(
        ckpt,
        GroupId(manifest.gid).objects(),
        |key| key.starts_with(&prefix),
    )?;
    // Seal the stream in the image envelope: magic, version, and a
    // whole-image digest, so a truncated or bit-flipped file fails
    // `sls recv` loudly instead of importing garbage.
    let image = aurora_core::migrate::encode_image(&stream);
    std::fs::write(out_path, &image).map_err(|e| Error::io(e.to_string()))?;
    Ok(format!(
        "sent {name} (checkpoint {}) to {out_path}: {} bytes\n",
        ckpt.0,
        image.len()
    ))
}

fn cmd_recv(world: &Path, opts: &[&str]) -> Result<String> {
    let in_path = flag_value(opts, "--in").ok_or_else(|| Error::invalid("recv needs --in"))?;
    let image = std::fs::read(in_path).map_err(|e| Error::io(e.to_string()))?;
    let mut host = open_host(world)?;
    let ckpt = host.recv_checkpoint(&image)?;
    Ok(format!(
        "received checkpoint {} from {in_path} ({} bytes); `sls ps` to inspect, `sls restore` to run\n",
        ckpt.0,
        image.len()
    ))
}

/// `sls mirror`: show per-replica states and stats; `--kill I` detaches
/// a replica (simulating its death), `--revive I` powers it back on as
/// rebuilding — it receives new writes but serves no reads until
/// `sls resilver` copies it back in and promotes it.
fn cmd_mirror(world: &Path, opts: &[&str]) -> Result<String> {
    let parse_idx = |flag: &str| -> Result<Option<usize>> {
        flag_value(opts, flag)
            .map(|v| v.parse().map_err(|_| Error::invalid(format!("bad {flag}"))))
            .transpose()
    };
    let kill = parse_idx("--kill")?;
    let revive = parse_idx("--revive")?;
    let host = open_host(world)?;
    let mut out = String::new();
    {
        let mut store = host.sls.primary.borrow_mut();
        let m = store.device_mut().as_mirror_mut().ok_or_else(|| {
            Error::unsupported("this world is not mirrored (create one with `sls init --mirror N`)")
        })?;
        if let Some(i) = kill {
            m.kill_replica(i)?;
            writeln!(out, "killed replica {i}: detached; writes continue degraded").ok();
        }
        if let Some(i) = revive {
            m.revive_replica(i)?;
            writeln!(
                out,
                "revived replica {i}: rebuilding; run `sls resilver` to copy it back in"
            )
            .ok();
        }
    }
    save_mirror_states(world, &host)?;
    let store = host.sls.primary.borrow();
    let dev = store.device();
    let Some(m) = dev.as_mirror() else {
        return Err(Error::unsupported("this world is not mirrored"));
    };
    writeln!(
        out,
        "mirror: {} of {} replicas active{}",
        m.active_width(),
        m.width(),
        if m.is_degraded() { " (DEGRADED)" } else { "" },
    )
    .ok();
    for i in 0..m.width() {
        writeln!(
            out,
            "  replica {i}: {:<10} {} ({})",
            m.replica_state(i).unwrap_or(ReplicaState::Active).as_str(),
            m.replica_name(i).unwrap_or_default(),
            m.replica_health(i)
                .unwrap_or(aurora_hw::DevHealth::Healthy)
                .as_str(),
        )
        .ok();
    }
    let ms = m.mirror_stats();
    writeln!(
        out,
        "  stats: {} failovers, {} read repairs, {} degraded writes, {} blocks resilvered in {} extents",
        ms.failovers, ms.read_repairs, ms.degraded_writes, ms.resilvered_blocks, ms.resilvered_extents,
    )
    .ok();
    Ok(out)
}

/// `sls resilver`: copy the live metadata region and every allocated
/// extent from the surviving replicas onto any rebuilding replica, then
/// promote it to active. Safe to re-run after a crash: the target stays
/// rebuilding (never read) until the copy completes.
fn cmd_resilver(world: &Path) -> Result<String> {
    let mut host = open_host(world)?;
    if host.sls.primary.borrow().device().as_mirror().is_none() {
        return Err(Error::unsupported(
            "this world is not mirrored (create one with `sls init --mirror N`)",
        ));
    }
    let report = host.resilver()?;
    save_mirror_states(world, &host)?;
    if report.replicas_promoted == 0 {
        return Ok(
            "nothing to resilver: no replica is rebuilding (revive one with `sls mirror --revive I`)\n"
                .to_string(),
        );
    }
    Ok(format!(
        "resilvered {} blocks in {} extent batches; {} replica(s) promoted to active\n",
        report.blocks, report.extents, report.replicas_promoted,
    ))
}

fn standby_path(world: &Path) -> PathBuf {
    world.join("standby.img")
}

/// Finds the newest checkpoint carrying any application manifest.
fn newest_app(host: &mut Host) -> Result<(CkptId, ManifestRec)> {
    let store = host.sls.primary.clone();
    let mut st = store.borrow_mut();
    let ids: Vec<CkptId> = st.checkpoints().iter().map(|c| c.id).collect();
    for id in ids.into_iter().rev() {
        let keys = st.blob_keys_at(id, "g");
        for key in keys.into_iter().filter(|k| k.ends_with("/manifest")) {
            if let Some(blob) = st.get_blob(id, &key)? {
                if let Ok(m) = ManifestRec::decode(&blob) {
                    return Ok((id, m));
                }
            }
        }
    }
    Err(Error::not_found("no application image in the standby"))
}

/// `sls standby`: advance an application for several checkpoint epochs,
/// shipping each committed checkpoint to `standby.img` over a
/// fault-modeled link. Every run re-syncs from scratch — a full export
/// first, then per-epoch deltas — so the image always ends at the acked
/// watermark regardless of what a previous run left behind.
fn cmd_standby(world: &Path, opts: &[&str]) -> Result<String> {
    let name = opts
        .first()
        .filter(|n| !n.starts_with("--"))
        .ok_or_else(|| Error::invalid("standby needs an application name"))?;
    let epochs: u64 = flag_value(opts, "--epochs")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --epochs")))
        .transpose()?
        .unwrap_or(3);
    let steps: u64 = flag_value(opts, "--steps")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --steps")))
        .transpose()?
        .unwrap_or(10);
    let rates = match flag_value(opts, "--faults").unwrap_or("lossy") {
        "clean" => LinkFaultRates::clean(),
        "lossy" => LinkFaultRates::lossy(),
        "hostile" => LinkFaultRates::hostile(),
        other => {
            return Err(Error::invalid(format!(
                "unknown fault level {other} (clean|lossy|hostile)"
            )))
        }
    };
    let mut host = open_host(world)?;
    let (gid, pid) = revive(&mut host, world, name)?;

    // A fresh standby image sized like the primary; the session starts
    // with a full sync, so stale contents would only waste space.
    let spath = standby_path(world);
    if spath.exists() {
        std::fs::remove_file(&spath).map_err(|e| Error::io(e.to_string()))?;
    }
    let blocks = std::fs::metadata(disk_path(world))
        .map_err(|e| Error::io(e.to_string()))?
        .len()
        / 4096;
    let sdev = Box::new(FileDev::open(host.clock.clone(), &spath, blocks)?);
    let sstore = ObjectStore::format(sdev, store_config())?;
    host.attach_standby_store(
        ReplConfig {
            rates,
            ..ReplConfig::default()
        },
        std::rc::Rc::new(std::cell::RefCell::new(sstore)),
    )?;

    let mut out = String::new();
    for e in 0..epochs {
        let report = advance(&mut host, pid, steps)?;
        let bd = host.checkpoint(gid, false, None)?;
        host.wait_durable(gid)?;
        // Drain the link between epochs: deliveries land, acks return,
        // lost frames get retransmitted, the watermark advances.
        if let Some(r) = host.replication_mut() {
            r.run_until_idle(1_000_000);
        }
        writeln!(
            out,
            "  epoch {}: {report}; checkpoint {}{}",
            e + 1,
            bd.ckpt.map(|c| c.0).unwrap_or(0),
            outcome_note(&bd),
        )
        .ok();
    }
    if let Some(old) = host.sls.group_ref(gid)?.supersedes {
        host.prune_incarnation(old)?;
    }
    let repl = host
        .detach_standby()
        .ok_or_else(|| Error::corrupt("standby session vanished"))?;
    let link = repl.data_link_stats();
    writeln!(
        out,
        "standby synced to {}: {} epochs shipped, watermark {} acked, lag {} epochs / {} bytes",
        spath.display(),
        repl.shipped_epoch(),
        repl.acked_epoch(),
        repl.lag_epochs(),
        repl.lag_bytes(),
    )
    .ok();
    writeln!(
        out,
        "  link: {} frames sent (+{} retransmitted), {} dropped, {} duplicated, {} reordered; `sls promote` to fail over",
        repl.stats.frames_sent,
        repl.stats.frames_retransmitted,
        link.dropped,
        link.duplicated,
        link.reordered,
    )
    .ok();
    Ok(out)
}

/// `sls promote`: fail over to the standby image. Boots a host from
/// `standby.img`, scrubs it, restores the newest application to prove
/// the image serves, then (unless `--verify-only`) makes it the new
/// primary — the old `disk.img` is kept as `disk.img.pre-promote`.
fn cmd_promote(world: &Path, opts: &[&str]) -> Result<String> {
    let verify_only = opts.contains(&"--verify-only");
    let spath = standby_path(world);
    if !spath.exists() {
        return Err(Error::not_found(format!(
            "no standby image at {} (run `sls standby` first)",
            spath.display()
        )));
    }
    if !verify_only && mirror_meta_path(world).exists() {
        return Err(Error::unsupported(
            "cannot promote over a mirrored world; use --verify-only to inspect the standby",
        ));
    }
    let clock = SimClock::new();
    let blocks = std::fs::metadata(&spath)
        .map_err(|e| Error::io(e.to_string()))?
        .len()
        / 4096;
    let dev = Box::new(FileDev::open(clock, &spath, blocks)?);
    let mut host = Host::boot_existing("sls-standby", dev, store_config())?;
    let problems = host.sls.primary.borrow_mut().scrub();
    if !problems.is_empty() {
        return Err(Error::corrupt(format!(
            "standby image fails scrub, refusing to promote: {problems:?}"
        )));
    }
    let (ckpt, manifest) = newest_app(&mut host)?;
    let store = host.sls.primary.clone();
    let r = host.restore(&store, ckpt, RestoreMode::Eager)?;
    let pid = r
        .root_pid()
        .ok_or_else(|| Error::bad_image("standby image restored no process"))?;
    let state = describe(&mut host, pid);
    let name = manifest.name.clone();
    drop(store);
    drop(host);

    let mut out = String::new();
    writeln!(
        out,
        "standby verified: {name} restored from checkpoint {} in {}\n  state: {state}",
        ckpt.0, r.total,
    )
    .ok();
    if verify_only {
        writeln!(out, "verify only: the primary is unchanged").ok();
        return Ok(out);
    }
    let primary = disk_path(world);
    let backup = world.join("disk.img.pre-promote");
    std::fs::rename(&primary, &backup).map_err(|e| Error::io(e.to_string()))?;
    std::fs::copy(&spath, &primary).map_err(|e| Error::io(e.to_string()))?;
    writeln!(
        out,
        "promoted: {} is now the primary (old primary kept at {})",
        spath.display(),
        backup.display(),
    )
    .ok();
    Ok(out)
}

fn cmd_info(world: &Path) -> Result<String> {
    let host = open_host(world)?;
    let store = host.sls.primary.borrow();
    let problems = store.fsck();
    let health = if problems.is_empty() {
        "healthy".to_string()
    } else {
        format!("{} problems: {:?}", problems.len(), problems)
    };
    let dev = store.device();
    let mirror_note = dev
        .as_mirror()
        .map(|m| {
            let states: Vec<&str> = (0..m.width())
                .map(|i| m.replica_state(i).unwrap_or(ReplicaState::Active).as_str())
                .collect();
            format!(
                "  mirror: {} of {} replicas active [{}]\n",
                m.active_width(),
                m.width(),
                states.join(", "),
            )
        })
        .unwrap_or_default();
    let standby_note = match std::fs::metadata(standby_path(world)) {
        Ok(meta) => format!("image present ({} bytes)", meta.len()),
        Err(_) => "no image".to_string(),
    };
    Ok(format!(
        "world: {}\n  checkpoints: {}\n  blocks in use: {}\n  fsck: {}\n  device: {}\n{mirror_note}  standby: {standby_note}\n  delta log: {} live records ({} bytes)\n",
        world.display(),
        store.checkpoints().len(),
        store.blocks_in_use(),
        health,
        dev.health().as_str(),
        store.delta_log_len(),
        store.delta_log_bytes(),
    ))
}

/// `sls fleet`: an in-memory demonstration of the fleet scheduler's
/// per-tenant fault domains. The demo never touches the world: it boots
/// a simulated host, starts KV tenants on isolated per-tenant stores,
/// and (unless `--healthy`) poisons tenant 0's device with latency
/// spikes four times the cycle deadline. The poisoned tenant misses
/// deadlines, quarantines, and — once the fault plan is disarmed —
/// probes back in with exponential backoff, while the healthy tenants'
/// cycles keep committing on schedule.
fn cmd_fleet(opts: &[&str]) -> Result<String> {
    let tenants: usize = flag_value(opts, "--tenants")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --tenants")))
        .transpose()?
        .unwrap_or(4);
    let rounds: u32 = flag_value(opts, "--rounds")
        .map(|v| v.parse().map_err(|_| Error::invalid("bad --rounds")))
        .transpose()?
        .unwrap_or(8);
    let healthy_only = opts.contains(&"--healthy");
    if tenants < 2 {
        return Err(Error::invalid("--tenants must be at least 2"));
    }

    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "fleet-demo", 128 * 1024));
    let mut host = Host::boot("fleet-demo", dev, StoreConfig::default())?;
    let mut fleet = TenantFleet::start(&mut host, tenants, 0xF1EE7, 256 * 1024, 16, 48)?;
    fleet.isolate(&mut host)?;

    let mut out = String::new();
    let deadline = host.sls.fleet.cycle_deadline;
    let gid0 = fleet.tenants[0].gid;
    let store0 = fleet.tenants[0]
        .store
        .clone()
        .ok_or_else(|| Error::internal("isolated fleet tenant has no store"))?;
    if healthy_only {
        writeln!(
            out,
            "fleet demo: {tenants} tenants on isolated stores, {rounds} rounds, all healthy",
        )
        .ok();
    } else {
        store0.borrow_mut().device_mut().install_fault_plan(FaultPlan::latency_spike(
            1,
            1_000_000,
            deadline.as_nanos() * 4,
        ));
        writeln!(
            out,
            "fleet demo: {tenants} tenants on isolated stores, {rounds} rounds; tenant 0 \
             poisoned with latency spikes (cycle deadline {:.1}ms)",
            deadline.as_nanos() as f64 / 1e6,
        )
        .ok();
    }

    let mut prev: Vec<TenantHealth> = fleet
        .tenants
        .iter()
        .map(|t| host.tenant_domain(t.gid).health)
        .collect();
    let mut skipped_once = false;
    for round in 0..rounds {
        // Once the poisoned tenant is quarantined, the fault "clears"
        // (an operator swapped the disk). The next round runs inside
        // the backoff window so the skip path shows; after that the
        // demo waits out the old disk's stalled flushes — no cycle
        // waits for the device on its own — and jumps the clock to each
        // re-admission probe window.
        if !healthy_only && host.tenant_domain(gid0).health == TenantHealth::Quarantined {
            store0
                .borrow_mut()
                .device_mut()
                .install_fault_plan(FaultPlan::default());
            if skipped_once {
                host.wait_durable(gid0)?;
                host.clock.advance_to(host.tenant_domain(gid0).next_probe);
            } else {
                skipped_once = true;
            }
        }
        let wave: Vec<usize> = (0..tenants).collect();
        for &t in &wave {
            fleet.touch(&mut host, t, 4)?;
        }
        let cycles = fleet.checkpoint_wave(&mut host, &wave, round)?;
        for (i, cycle) in cycles.iter().enumerate() {
            let d = host.tenant_domain(cycle.gid);
            if d.health != prev[i] {
                writeln!(
                    out,
                    "  round {round}: tenant {i} {} -> {}{}",
                    prev[i].as_str(),
                    d.health.as_str(),
                    d.last_fault
                        .as_deref()
                        .map(|f| format!(" ({f})"))
                        .unwrap_or_default(),
                )
                .ok();
                prev[i] = d.health;
            }
        }
    }
    host.fleet_drain();

    writeln!(out, "  tenant  health       fails  misses  skips  quar  readmit").ok();
    // The fleet line's totals are the sums of these rows.
    let (mut skipped, mut quarantines, mut readmissions, mut misses) = (0, 0, 0, 0);
    for (i, t) in fleet.tenants.iter().enumerate() {
        let d = host.tenant_domain(t.gid);
        writeln!(
            out,
            "  t{i:<6}{:<13}{:<7}{:<8}{:<7}{:<6}{}",
            d.health.as_str(),
            d.failures,
            d.deadline_misses,
            d.cycles_skipped,
            d.quarantines,
            d.readmissions,
        )
        .ok();
        skipped += d.cycles_skipped;
        quarantines += d.quarantines;
        readmissions += d.readmissions;
        misses += d.deadline_misses;
    }
    let stats = &host.sls.fleet.stats;
    writeln!(
        out,
        "  fleet: {} admitted ({} overlapped), {skipped} skipped, {quarantines} quarantines, \
         {readmissions} re-admissions, {} bookings released, {misses} deadline misses, \
         stop p99 {:.1}us",
        stats.admitted,
        stats.overlapped,
        stats.bookings_released,
        stats.stop_hist.p99() as f64 / 1e3,
    )
    .ok();
    Ok(out)
}

/// `sls scrub`: walk every committed checkpoint, re-read each page from
/// the device, and verify it against the recorded content hash. This is
/// the offline half of the fault-tolerance story: faults the retry layer
/// absorbed leave no trace, and anything it could not absorb shows up
/// here before it can poison an incremental chain.
fn cmd_scrub(world: &Path) -> Result<String> {
    let host = open_host(world)?;
    let store = host.sls.primary.clone();
    let problems = store.borrow_mut().scrub();
    let st = store.borrow();
    let rs = st.device().retry_stats();
    let mut out = String::new();
    writeln!(
        out,
        "scrubbed {} checkpoint(s) in {}: device {}",
        st.checkpoints().len(),
        world.display(),
        st.device().health().as_str(),
    )
    .ok();
    if rs.writes_retried > 0 || rs.failures_surfaced > 0 {
        writeln!(
            out,
            "  retries: {} writes retried, {} transient errors absorbed, {} failures surfaced",
            rs.writes_retried, rs.transient_absorbed, rs.failures_surfaced,
        )
        .ok();
    }
    if let Some(m) = st.device().as_mirror() {
        let ms = m.mirror_stats();
        writeln!(
            out,
            "  mirror: {} of {} replicas active; {} read repair(s), {} failover(s)",
            m.active_width(),
            m.width(),
            ms.read_repairs,
            ms.failovers,
        )
        .ok();
    }
    if problems.is_empty() {
        writeln!(out, "  clean: every page matches its content hash").ok();
    } else {
        for p in &problems {
            writeln!(out, "  PROBLEM: {p}").ok();
        }
        writeln!(
            out,
            "  {} problem(s); the next checkpoint of each affected group will degrade to full",
            problems.len()
        )
        .ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn world_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aurora-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk world");
        dir
    }

    /// `sls standby` ships a world to the standby image over a lossy
    /// link, and `sls promote` makes that image the new primary, which
    /// then keeps serving and checkpointing.
    #[test]
    fn standby_then_promote_takes_over() {
        let dir = world_dir("standby");
        let w = dir.to_str().expect("utf8 path");
        run(&["--world", w, "init", "--blocks", "8192"]).expect("init");
        run(&["--world", w, "persist", "demo", "--app", "kv"]).expect("persist");
        let out = run(&[
            "--world", w, "standby", "demo", "--epochs", "2", "--faults", "lossy",
        ])
        .expect("standby");
        assert!(out.contains("watermark 2 acked"), "{out}");
        let out = run(&["--world", w, "promote"]).expect("promote");
        assert!(out.contains("standby verified"), "{out}");
        assert!(out.contains("promoted"), "{out}");
        assert!(dir.join("disk.img.pre-promote").exists());
        let out = run(&["--world", w, "run", "demo", "--steps", "3"]).expect("run after promote");
        assert!(out.contains("executed 3 mutations"), "{out}");
        let out = run(&["--world", w, "info"]).expect("info");
        assert!(out.contains("standby: image present"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `sls info` reports the world, not the process that opened it:
    /// after a `run`, the checkpoint count, fsck, the device and the
    /// live delta log's record and byte counts, and no per-session
    /// counter.
    #[test]
    fn info_reports_delta_log_counters() {
        let dir = world_dir("deltainfo");
        let w = dir.to_str().expect("utf8 path");
        run(&["--world", w, "init", "--blocks", "8192"]).expect("init");
        run(&["--world", w, "persist", "demo", "--app", "kv"]).expect("persist");
        run(&["--world", w, "run", "demo", "--steps", "6"]).expect("run");
        let out = run(&["--world", w, "info"]).expect("info");
        let line = |label: &str| {
            out.lines()
                .find_map(|l| l.trim().strip_prefix(label))
                .unwrap_or_else(|| panic!("no {label:?} line: {out}"))
                .to_string()
        };
        let checkpoints: usize = line("checkpoints: ").parse().expect("count");
        assert!(checkpoints > 0, "{out}");
        assert_eq!(line("fsck: "), "healthy", "{out}");
        assert_eq!(line("device: "), "healthy", "{out}");
        assert_eq!(line("standby: "), "no image", "{out}");
        let delta = line("delta log: ");
        let counts: Vec<&str> = delta.split_whitespace().collect();
        assert!(
            matches!(counts[..], [n, "live", "records", b, "bytes)"]
                if n.parse::<u64>().is_ok()
                    && b.strip_prefix('(').is_some_and(|b| b.parse::<u64>().is_ok())),
            "{out}"
        );
        assert!(!out.contains("session"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fleet-health counters are owned by the fleet's tenants, not
    /// the world: `sls info` prints no `fleet health:` line, and
    /// `sls fleet` reports them per tenant with a summary that sums
    /// the rows, nonzero once the poisoned tenant is quarantined.
    #[test]
    fn info_reports_fleet_health_counters() {
        let dir = world_dir("fleetinfo");
        let w = dir.to_str().expect("utf8 path");
        run(&["--world", w, "init", "--blocks", "8192"]).expect("init");
        let out = run(&["--world", w, "info"]).expect("info");
        assert!(!out.contains("fleet health:"), "{out}");
        assert!(!out.contains("quarantine"), "{out}");
        let out = run(&["fleet", "--tenants", "3", "--rounds", "8"]).expect("fleet demo");
        assert!(out.contains("tenant  health"), "{out}");
        assert!(!out.contains(" 0 quarantines"), "{out}");
        assert_fleet_line_sums_tenant_rows(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `sls fleet` demonstrates the quarantine/re-admission round-trip
    /// end to end: the poisoned tenant loses cycles but comes back,
    /// and the healthy tenants never miss a deadline.
    #[test]
    fn fleet_demo_quarantines_and_readmits_the_poisoned_tenant() {
        let out = run(&["fleet", "--tenants", "3", "--rounds", "8"]).expect("fleet demo");
        assert!(out.contains("tenant 0 poisoned"), "{out}");
        assert!(out.contains("-> quarantined"), "{out}");
        assert!(out.contains("-> healthy"), "{out}");
        assert!(out.contains("fleet:"), "{out}");
        // The summary table shows the round-trip counters.
        assert!(out.contains("1     1"), "{out}");
        assert_fleet_line_sums_tenant_rows(&out);
    }

    /// The `fleet:` summary's skipped / quarantines / re-admissions /
    /// deadline-miss totals equal the sums of the tenant rows' columns.
    fn assert_fleet_line_sums_tenant_rows(out: &str) {
        let (mut skipped, mut quarantines, mut readmissions, mut misses) = (0u64, 0, 0, 0);
        let is_tenant_row = |l: &&str| {
            l.split_whitespace()
                .next()
                .and_then(|t| t.strip_prefix('t'))
                .is_some_and(|n| n.parse::<usize>().is_ok())
        };
        for row in out.lines().filter(is_tenant_row) {
            let cols: Vec<u64> = row
                .split_whitespace()
                .skip(2)
                .map(|c| c.parse().expect("numeric column"))
                .collect();
            let [_fails, miss, skip, quar, readmit] = cols[..] else {
                panic!("bad tenant row {row:?}: {out}");
            };
            skipped += skip;
            quarantines += quar;
            readmissions += readmit;
            misses += miss;
        }
        let fleet = out
            .lines()
            .find(|l| l.trim_start().starts_with("fleet:"))
            .expect("fleet summary line");
        for want in [
            format!("{skipped} skipped"),
            format!("{quarantines} quarantines"),
            format!("{readmissions} re-admissions"),
            format!("{misses} deadline misses"),
        ] {
            assert!(
                fleet.contains(&want),
                "summary {fleet:?} lacks {want:?}: {out}"
            );
        }
    }

    /// `--healthy` keeps every tenant clean: no transitions, no
    /// quarantines.
    #[test]
    fn fleet_demo_healthy_mode_never_quarantines() {
        let out = run(&["fleet", "--tenants", "2", "--rounds", "3", "--healthy"]).expect("fleet");
        assert!(out.contains("all healthy"), "{out}");
        assert!(!out.contains("-> quarantined"), "{out}");
        assert!(out.contains("0 quarantines, 0 re-admissions"), "{out}");
        assert_fleet_line_sums_tenant_rows(&out);
    }

    /// `--verify-only` inspects the standby without touching the
    /// primary.
    #[test]
    fn promote_verify_only_leaves_primary_alone() {
        let dir = world_dir("verify");
        let w = dir.to_str().expect("utf8 path");
        run(&["--world", w, "init", "--blocks", "8192"]).expect("init");
        run(&["--world", w, "persist", "demo", "--app", "hello"]).expect("persist");
        run(&["--world", w, "standby", "demo", "--epochs", "1", "--faults", "clean"])
            .expect("standby");
        let out = run(&["--world", w, "promote", "--verify-only"]).expect("verify");
        assert!(out.contains("the primary is unchanged"), "{out}");
        assert!(!dir.join("disk.img.pre-promote").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
