//! SLSFS integration tests: persistence across crashes, open-unlinked
//! survival, zero-copy clones, and behavioural equivalence with tmpfs.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use aurora_hw::ModelDev;
use aurora_objstore::{ObjectStore, StoreConfig};
use aurora_posix::tmpfs::Tmpfs;
use aurora_posix::vfs::{Filesystem, VnodeType};
use aurora_sim::SimClock;
use aurora_slsfs::{SlsFs, StoreHandle};
use proptest::prelude::*;

const NS: u64 = 1 << 48;

fn new_store() -> StoreHandle {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", 32 * 1024));
    Rc::new(RefCell::new(
        ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: 512,
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    ))
}

fn commit(store: &StoreHandle) {
    store.borrow_mut().commit(None).unwrap();
}

fn recover(store: StoreHandle) -> StoreHandle {
    let inner = Rc::try_unwrap(store)
        .unwrap_or_else(|_| panic!("store still shared"))
        .into_inner();
    Rc::new(RefCell::new(inner.recover().unwrap()))
}

#[test]
fn basic_file_operations() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let f = fs.create(root, "hello.txt").unwrap();
    fs.write(f, 0, b"hello slsfs").unwrap();
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"hello slsfs");
    assert_eq!(fs.read(f, 6, 5).unwrap(), b"slsfs");
    assert_eq!(fs.getattr(f).unwrap().size, 11);
    assert_eq!(fs.getattr(f).unwrap().kind, VnodeType::Regular);

    // Cross-page write.
    let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    fs.write(f, 100, &big).unwrap();
    assert_eq!(fs.read(f, 100, 10_000).unwrap(), big);
}

#[test]
fn metadata_and_data_survive_crash() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let d = fs.mkdir(root, "db").unwrap();
    let f = fs.create(d, "records").unwrap();
    fs.write(f, 0, b"committed data").unwrap();
    fs.flush_meta();
    commit(&store);

    // More writes, NOT committed.
    fs.write(f, 0, b"uncommitted!!!").unwrap();
    fs.flush_meta();

    drop(fs);
    let store = recover(store);
    let mut fs = SlsFs::load(store.clone(), NS).unwrap();
    let root = fs.root();
    let d = fs.lookup(root, "db").unwrap();
    let f = fs.lookup(d, "records").unwrap();
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"committed data");
}

#[test]
fn unlinked_but_open_file_survives_crash() {
    // The paper's SLSFS edge case: "In POSIX file systems, these files
    // would be reclaimed after a crash, preventing application
    // restoration."
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let f = fs.create(root, "scratch").unwrap();
    fs.write(f, 0, b"anonymous but precious").unwrap();
    fs.open_ref(f, 1).unwrap(); // a persistent vnode holds it open
    fs.unlink(root, "scratch").unwrap();
    fs.flush_meta();
    commit(&store);

    drop(fs);
    let store = recover(store);
    let mut fs = SlsFs::load(store.clone(), NS).unwrap();
    // The name is gone but the inode (and data) survived the crash
    // thanks to the on-disk open reference count.
    assert!(fs.lookup(fs.root(), "scratch").is_err());
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"anonymous but precious");

    // A restored process still references it: reap keeps it.
    let mut live = BTreeMap::new();
    live.insert(f, 1u32);
    fs.reap_orphans(&live);
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"anonymous but precious");

    // Nothing references it anymore: reap reclaims.
    fs.reap_orphans(&BTreeMap::new());
    assert!(fs.read(f, 0, 64).is_err());
}

#[test]
fn zero_copy_clone_shares_blocks() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let f = fs.create(root, "image").unwrap();
    let payload = vec![7u8; 64 * 1024]; // 16 pages
    fs.write(f, 0, &payload).unwrap();
    let before = store.borrow().blocks_in_use();

    let c = fs.clone_path(root, "image", root, "image-clone").unwrap();
    assert_eq!(
        store.borrow().blocks_in_use(),
        before,
        "clone allocates zero data blocks"
    );
    assert_eq!(fs.read(c, 0, 70_000).unwrap(), payload);

    // Writing to the clone diverges without touching the original.
    fs.write(c, 0, b"diverged").unwrap();
    assert_eq!(&fs.read(f, 0, 8).unwrap(), &vec![7u8; 8]);
    assert_eq!(fs.read(c, 0, 8).unwrap(), b"diverged");
    assert!(store.borrow().blocks_in_use() > before);
}

#[test]
fn subtree_clone() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let d = fs.mkdir(root, "container").unwrap();
    let sub = fs.mkdir(d, "etc").unwrap();
    let f1 = fs.create(d, "app").unwrap();
    fs.write(f1, 0, b"binary").unwrap();
    let f2 = fs.create(sub, "conf").unwrap();
    fs.write(f2, 0, b"config").unwrap();

    let cloned = fs.clone_path(root, "container", root, "container-2").unwrap();
    let capp = fs.lookup(cloned, "app").unwrap();
    let cetc = fs.lookup(cloned, "etc").unwrap();
    let cconf = fs.lookup(cetc, "conf").unwrap();
    assert_eq!(fs.read(capp, 0, 16).unwrap(), b"binary");
    assert_eq!(fs.read(cconf, 0, 16).unwrap(), b"config");
    // Divergence is isolated.
    fs.write(capp, 0, b"patched").unwrap();
    assert_eq!(fs.read(f1, 0, 16).unwrap(), b"binary");
}

#[test]
fn time_travel_loads_old_filesystem() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let f = fs.create(root, "versioned").unwrap();
    fs.write(f, 0, b"v1").unwrap();
    fs.flush_meta();
    let (c1, _) = store.borrow_mut().commit(Some("v1")).unwrap();
    fs.write(f, 0, b"v2").unwrap();
    fs.flush_meta();
    store.borrow_mut().commit(Some("v2")).unwrap();

    // Current view sees v2; the v1 checkpoint view sees v1.
    assert_eq!(fs.read(f, 0, 2).unwrap(), b"v2");
    let mut old = SlsFs::load_at(store.clone(), NS, c1).unwrap();
    let of = old.lookup(old.root(), "versioned").unwrap();
    // NOTE: load_at reads through checkpoint-resolved pages only for
    // metadata; file reads go through the store's live state, so read
    // the page via the store directly.
    let oid_page = store
        .borrow_mut()
        .read_page_at(c1, aurora_objstore::ObjId(NS | of), 0)
        .unwrap()
        .unwrap();
    let mut buf = [0u8; 2];
    oid_page.read(0, &mut buf);
    assert_eq!(&buf, b"v1");
}

// --- Equivalence with tmpfs ----------------------------------------------

#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    Mkdir(u8),
    Write { name: u8, off: u16, len: u16, fill: u8 },
    Read { name: u8, off: u16, len: u16 },
    Unlink(u8),
    Rename { from: u8, to: u8 },
    Link { from: u8, to: u8 },
    Getattr(u8),
}

fn fsop() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..6).prop_map(FsOp::Create),
        (0u8..6).prop_map(FsOp::Mkdir),
        (0u8..6, 0u16..9000, 0u16..5000, any::<u8>())
            .prop_map(|(name, off, len, fill)| FsOp::Write { name, off, len, fill }),
        (0u8..6, 0u16..12000, 0u16..6000).prop_map(|(name, off, len)| FsOp::Read { name, off, len }),
        (0u8..6).prop_map(FsOp::Unlink),
        (0u8..6, 0u8..6).prop_map(|(from, to)| FsOp::Rename { from, to }),
        (0u8..6, 0u8..6).prop_map(|(from, to)| FsOp::Link { from, to }),
        (0u8..6).prop_map(FsOp::Getattr),
    ]
}

fn apply<F: Filesystem>(fs: &mut F, op: &FsOp) -> String {
    let root = fs.root();
    let name = |n: u8| format!("f{n}");
    match op {
        FsOp::Create(n) => format!("{:?}", fs.create(root, &name(*n)).map(|_| ()).map_err(|e| e.kind())),
        FsOp::Mkdir(n) => format!("{:?}", fs.mkdir(root, &name(*n)).map(|_| ()).map_err(|e| e.kind())),
        FsOp::Write { name: n, off, len, fill } => {
            let data = vec![*fill; *len as usize];
            match fs.lookup(root, &name(*n)) {
                Ok(ino) => format!("{:?}", fs.write(ino, *off as u64, &data).map_err(|e| e.kind())),
                Err(e) => format!("lookup-{:?}", e.kind()),
            }
        }
        FsOp::Read { name: n, off, len } => match fs.lookup(root, &name(*n)) {
            Ok(ino) => format!("{:?}", fs.read(ino, *off as u64, *len as usize).map_err(|e| e.kind())),
            Err(e) => format!("lookup-{:?}", e.kind()),
        },
        FsOp::Unlink(n) => format!("{:?}", fs.unlink(root, &name(*n)).map_err(|e| e.kind())),
        FsOp::Rename { from, to } => {
            format!("{:?}", fs.rename(root, &name(*from), root, &name(*to)).map_err(|e| e.kind()))
        }
        FsOp::Link { from, to } => match fs.lookup(root, &name(*from)) {
            Ok(node) => format!("{:?}", fs.link(root, &name(*to), node).map_err(|e| e.kind())),
            Err(e) => format!("lookup-{:?}", e.kind()),
        },
        FsOp::Getattr(n) => match fs.lookup(root, &name(*n)) {
            Ok(ino) => match fs.getattr(ino) {
                Ok(a) => format!("{:?}-{}-{}", a.kind, a.size, a.nlink),
                Err(e) => format!("{:?}", e.kind()),
            },
            Err(e) => format!("lookup-{:?}", e.kind()),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SLSFS observable behaviour matches tmpfs on random op sequences.
    #[test]
    fn slsfs_equivalent_to_tmpfs(ops in proptest::collection::vec(fsop(), 1..40)) {
        let store = new_store();
        let mut sls = SlsFs::format(store, NS);
        let mut tmp = Tmpfs::new();
        for op in &ops {
            let a = apply(&mut sls, op);
            let b = apply(&mut tmp, op);
            prop_assert_eq!(&a, &b, "divergence on {:?}", op);
        }
    }

    /// Random committed state always survives crash + reload.
    #[test]
    fn slsfs_random_state_survives_crash(ops in proptest::collection::vec(fsop(), 1..25)) {
        let store = new_store();
        let mut sls = SlsFs::format(store.clone(), NS);
        for op in &ops {
            let _ = apply(&mut sls, op);
        }
        // Snapshot the observable state: every file's full contents.
        let root = sls.root();
        let mut expect = Vec::new();
        for (name, ino) in sls.readdir(root).unwrap() {
            if sls.getattr(ino).unwrap().kind == VnodeType::Regular {
                expect.push((name, sls.read(ino, 0, 1 << 16).unwrap()));
            }
        }
        sls.flush_meta();
        commit(&store);
        drop(sls);
        let store = recover(store);
        let mut sls = SlsFs::load(store, NS).unwrap();
        let root = sls.root();
        for (name, data) in expect {
            let ino = sls.lookup(root, &name).unwrap();
            prop_assert_eq!(sls.read(ino, 0, 1 << 16).unwrap(), data, "file {}", name);
        }
    }
}

#[test]
fn hard_links_persist_across_crash() {
    let store = new_store();
    let mut fs = SlsFs::format(store.clone(), NS);
    let root = fs.root();
    let f = fs.create(root, "primary").unwrap();
    fs.write(f, 0, b"two names, one file").unwrap();
    fs.link(root, "secondary", f).unwrap();
    assert_eq!(fs.getattr(f).unwrap().nlink, 2);
    fs.unlink(root, "primary").unwrap();
    fs.flush_meta();
    commit(&store);

    drop(fs);
    let store = recover(store);
    let mut fs = SlsFs::load(store, NS).unwrap();
    let root = fs.root();
    assert!(fs.lookup(root, "primary").is_err());
    let f = fs.lookup(root, "secondary").unwrap();
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"two names, one file");
    assert_eq!(fs.getattr(f).unwrap().nlink, 1);
    // Last unlink reclaims.
    fs.unlink(root, "secondary").unwrap();
    assert!(fs.read(f, 0, 1).is_err());
}
