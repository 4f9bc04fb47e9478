//! Object-store integration tests: commits, history reads, crash
//! recovery, dedup, in-place GC, export/import, and a model-based
//! property test against a reference store.

// Test code asserts invariants; the workspace unwrap/expect denial is
// for production flush paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::{BTreeMap, BTreeSet, HashMap};

use aurora_hw::{FaultPlan, ModelDev, ResilientDev};
use aurora_objstore::checkpoint::{self, Image};
use aurora_objstore::{
    Checkpoint, CkptId, ObjId, ObjectStore, PageRef, PageWrite, StoreConfig, EXTENT_BLOCKS,
};
use aurora_sim::SimClock;
use aurora_vm::PageData;
use proptest::prelude::*;

const DEV_BLOCKS: u64 = 64 * 1024;

fn new_store() -> ObjectStore {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 1024,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

fn page(fill: u8) -> PageData {
    let mut b = vec![0u8; aurora_vm::PAGE_SIZE];
    b.iter_mut().for_each(|x| *x = fill);
    PageData::from_bytes(&b)
}

#[test]
fn write_commit_read_roundtrip() {
    let mut s = new_store();
    s.create_object(ObjId(1), 16).unwrap();
    s.write_page(ObjId(1), 0, &page(0xAA)).unwrap();
    s.write_page(ObjId(1), 5, &PageData::Seeded(7)).unwrap();
    s.put_blob("proc/1", vec![1, 2, 3]);
    let (ck, durable) = s.commit(Some("first")).unwrap();
    assert!(durable > aurora_sim::SimTime::ZERO);

    assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(0xAA)));
    assert!(s
        .read_page_at(ck, ObjId(1), 5)
        .unwrap()
        .unwrap()
        .content_eq(&PageData::Seeded(7)));
    assert!(s.read_page(ObjId(1), 9).unwrap().is_none(), "sparse page");
    assert_eq!(s.get_blob(ck, "proc/1").unwrap().unwrap(), vec![1, 2, 3]);
    assert_eq!(s.get_blob(ck, "nope").unwrap(), None);
    assert_eq!(s.checkpoint_by_name("first").unwrap().id, ck);
}

#[test]
fn incremental_history_reads() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    let (c1, _) = s.commit(None).unwrap();
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    let (c2, _) = s.commit(None).unwrap();
    s.write_page(ObjId(1), 0, &page(3)).unwrap();
    let (c3, _) = s.commit(None).unwrap();

    // Time travel: every version remains readable.
    assert!(s.read_page_at(c1, ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)));
    assert!(s.read_page_at(c2, ObjId(1), 0).unwrap().unwrap().content_eq(&page(2)));
    assert!(s.read_page_at(c3, ObjId(1), 0).unwrap().unwrap().content_eq(&page(3)));
}

#[test]
fn uncommitted_state_lost_on_recovery() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    let (c1, _) = s.commit(Some("durable")).unwrap();

    // Uncommitted second write.
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    s.create_object(ObjId(2), 4).unwrap();

    let s = s.recover().unwrap();
    assert!(
        s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)),
        "recovered to committed contents"
    );
    assert!(!s.object_exists(ObjId(2)), "uncommitted object gone");
    assert_eq!(s.checkpoints().len(), 1);
    assert_eq!(s.head(), Some(c1));
}

#[test]
fn power_cut_during_commit_preserves_previous_checkpoint() {
    // Cut power on each of the first few writes of the second commit; in
    // every case recovery must land exactly on the first checkpoint.
    for cut_at in 1..=3u64 {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        let mut s = ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: 512,
                materialize_data: false,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        s.create_object(ObjId(1), 4).unwrap();
        s.write_page(ObjId(1), 0, &page(1)).unwrap();
        let (c1, _) = s.commit(Some("good")).unwrap();

        s.write_page(ObjId(1), 0, &page(2)).unwrap();
        // Note: write_page uses timing-only submissions, so the fault plan
        // triggers on the *metadata* writes of the commit itself.
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut_at));
        let result = s.commit(Some("torn"));
        if result.is_ok() {
            // The cut landed after the commit became durable; fine.
            continue;
        }
        let s = s.recover().unwrap();
        assert_eq!(s.head(), Some(c1), "cut at write {cut_at}");
        assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)));
        assert!(s.checkpoint_by_name("torn").is_none());
    }
}

#[test]
fn dedup_shares_identical_pages() {
    let mut s = new_store();
    s.create_object(ObjId(1), 64).unwrap();
    s.create_object(ObjId(2), 64).unwrap();
    // The same 16 pages written to two objects.
    for i in 0..16 {
        s.write_page(ObjId(1), i, &PageData::Seeded(1000 + i)).unwrap();
    }
    let before = s.blocks_in_use();
    for i in 0..16 {
        s.write_page(ObjId(2), i, &PageData::Seeded(1000 + i)).unwrap();
    }
    assert_eq!(s.blocks_in_use(), before, "second copy costs zero blocks");
    assert_eq!(s.stats.dedup_hits, 16);
    s.commit(None).unwrap();
    // Contents independent: writing one does not affect the other.
    s.write_page(ObjId(2), 0, &page(0xFF)).unwrap();
    s.commit(None).unwrap();
    assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&PageData::Seeded(1000)));
}

#[test]
fn gc_in_place_keeps_newer_checkpoints_readable() {
    let mut s = new_store();
    s.create_object(ObjId(1), 8).unwrap();
    for i in 0..8 {
        s.write_page(ObjId(1), i, &PageData::Seeded(i)).unwrap();
    }
    let (c1, _) = s.commit(Some("full")).unwrap();
    s.write_page(ObjId(1), 0, &PageData::Seeded(100)).unwrap();
    let (c2, _) = s.commit(Some("incr1")).unwrap();
    s.write_page(ObjId(1), 1, &PageData::Seeded(101)).unwrap();
    let (c3, _) = s.commit(Some("incr2")).unwrap();

    let blocks_before = s.blocks_in_use();
    s.delete_checkpoint(c1).unwrap();
    assert!(s.checkpoint(c1).is_err());
    // The overridden page-0 block of c1 was released.
    assert!(s.blocks_in_use() < blocks_before + 1);

    // All surviving versions still resolve, including pages inherited
    // from the deleted checkpoint.
    assert!(s.read_page_at(c2, ObjId(1), 7).unwrap().unwrap().content_eq(&PageData::Seeded(7)));
    assert!(s.read_page_at(c3, ObjId(1), 0).unwrap().unwrap().content_eq(&PageData::Seeded(100)));
    assert!(s.read_page_at(c3, ObjId(1), 1).unwrap().unwrap().content_eq(&PageData::Seeded(101)));

    // GC also survives recovery (the delete is journaled).
    let s = s.recover().unwrap();
    assert_eq!(s.checkpoints().len(), 2);
    assert!(s.read_page_at(c3, ObjId(1), 0).unwrap().unwrap().content_eq(&PageData::Seeded(100)));
}

#[test]
fn gc_trims_history_window() {
    // The paper: "Aurora uses free space on-disk to provide a short
    // execution history as incremental checkpoints." Simulate a rolling
    // window: keep the last 4, GC the oldest.
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    let mut ids = Vec::new();
    for round in 0..20u64 {
        s.write_page(ObjId(1), round % 4, &PageData::Seeded(round)).unwrap();
        let (c, _) = s.commit(None).unwrap();
        ids.push(c);
        if ids.len() > 4 {
            let victim = ids.remove(0);
            s.delete_checkpoint(victim).unwrap();
        }
    }
    assert_eq!(s.checkpoints().len(), 4);
    // Latest state intact.
    assert!(s.read_page(ObjId(1), 3).unwrap().unwrap().content_eq(&PageData::Seeded(19)));
    // Block usage is bounded (no leak from deleted checkpoints).
    assert!(s.blocks_in_use() <= 4 + 4 * 4);
}

#[test]
fn delete_object_history_still_readable() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(9)).unwrap();
    let (c1, _) = s.commit(None).unwrap();
    s.delete_object(ObjId(1)).unwrap();
    let (c2, _) = s.commit(None).unwrap();
    assert!(s.read_page_at(c1, ObjId(1), 0).unwrap().is_some());
    assert!(s.read_page_at(c2, ObjId(1), 0).unwrap().is_none());
    assert!(s.read_page(ObjId(1), 0).is_err());
}

#[test]
fn export_import_between_hosts() {
    let mut src = new_store();
    src.create_object(ObjId(10), 8).unwrap();
    src.write_page(ObjId(10), 0, &page(0x42)).unwrap();
    src.write_page(ObjId(10), 3, &PageData::Seeded(33)).unwrap();
    src.put_blob("proc/main", b"metadata".to_vec());
    let (ck, _) = src.commit(Some("to-send")).unwrap();
    // Another incremental after the exported one: export is cut at `ck`.
    src.write_page(ObjId(10), 0, &page(0x43)).unwrap();
    src.commit(None).unwrap();

    let stream = src.export_checkpoint(ck).unwrap();

    let mut dst = new_store();
    let (imported, _) = dst.import_stream(&stream).unwrap();
    assert_eq!(dst.checkpoint(imported).unwrap().name.as_deref(), Some("to-send"));
    assert!(dst.read_page(ObjId(10), 0).unwrap().unwrap().content_eq(&page(0x42)));
    assert!(dst.read_page(ObjId(10), 3).unwrap().unwrap().content_eq(&PageData::Seeded(33)));
    assert_eq!(dst.get_blob(imported, "proc/main").unwrap().unwrap(), b"metadata");
    // Sparse pages stay sparse.
    assert!(dst.read_page(ObjId(10), 5).unwrap().is_none());
}

#[test]
fn journal_compaction_preserves_state() {
    // A tiny journal forces compaction; state must survive many commits
    // plus recovery.
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 8, // 32 KiB: compacts every few commits
            materialize_data: false,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.create_object(ObjId(1), 4).unwrap();
    for round in 0..50u64 {
        s.write_page(ObjId(1), round % 4, &PageData::Seeded(round)).unwrap();
        let (c, _) = s.commit(None).unwrap();
        // Keep the chain short so snapshots fit the tiny journal.
        if s.checkpoints().len() > 3 {
            let oldest = s.checkpoints()[0].id;
            if oldest != c {
                s.delete_checkpoint(oldest).unwrap();
            }
        }
    }
    assert!(s.stats.compactions > 0, "compaction exercised");
    let s2 = s.recover().unwrap();
    let s2 = s2;
    assert!(s2.read_page(ObjId(1), 1).unwrap().unwrap().content_eq(&PageData::Seeded(49)));
}

#[test]
fn commit_durability_is_asynchronous() {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock.clone(), "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(dev, StoreConfig::default()).unwrap();
    s.create_object(ObjId(1), 256).unwrap();
    for i in 0..256u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(i)).unwrap();
    }
    let before = clock.now();
    let (_, durable) = s.commit(None).unwrap();
    // The caller's clock barely moved; durability lies in the future
    // because 1 MiB of page data plus metadata is still in flight.
    assert!(durable > before);
    assert!(
        clock.now().since(before) < durable.since(before),
        "commit returned before the data hit stable storage"
    );
}

// --- Model-based property test -------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Write { obj: u8, idx: u8, seed: u64 },
    /// A 16-byte write to the `pick`-th live page (wrapping; page
    /// `pick % 16` of object 0 while none is live), staged as a delta
    /// record when the page has a base image and a chain short enough to
    /// extend. Aiming at live pages grows chains across commits.
    Patch { pick: u16, byte: u8 },
    Commit,
    Recover,
    /// GC the oldest checkpoint (in-place merge).
    GcOldest,
    /// GC the head's parent: the merge of a durable-log flush, whose
    /// heads the head's own heads and pages override.
    GcMiddle,
    /// Delete the object and create it again, empty, under the same id.
    Recreate { obj: u8 },
    /// Fold every delta chain of two or more records into a full image.
    CompactChains,
    /// Discard the staged delta.
    Rollback,
    /// Delete object 3 if it exists, then clone `src` into it.
    CloneInto { src: u8 },
    /// Cut power, write a batch, restore power: the writer refuses the
    /// batch and stages nothing.
    RefusedWrite { obj: u8, idx: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..3, 0u8..16, any::<u64>()).prop_map(|(obj, idx, seed)| Op::Write { obj, idx, seed }),
        3 => (any::<u16>(), any::<u8>()).prop_map(|(pick, byte)| Op::Patch { pick, byte }),
        2 => Just(Op::Commit),
        1 => Just(Op::Recover),
        1 => Just(Op::GcOldest),
        1 => Just(Op::GcMiddle),
        1 => (0u8..3).prop_map(|obj| Op::Recreate { obj }),
        1 => Just(Op::CompactChains),
        1 => Just(Op::Rollback),
        1 => (0u8..3).prop_map(|src| Op::CloneInto { src }),
        1 => (0u8..3, 0u8..16).prop_map(|(obj, idx)| Op::RefusedWrite { obj, idx }),
    ]
}

/// The per-object walk the store used before it kept the head's image,
/// kept here as the oracle: for one object, the chain from `from` back
/// to the object's birth or death, applied oldest first.
fn effective_refs(
    ckpts: &BTreeMap<u64, Checkpoint>,
    from: CkptId,
    oid: ObjId,
) -> BTreeMap<u64, PageRef> {
    let mut chain = Vec::new();
    let mut cur = Some(from);
    while let Some(c) = cur {
        let Some(ck) = ckpts.get(&c.0) else { break };
        chain.push(ck);
        if ck.deleted_objects.contains(&oid) || ck.new_objects.iter().any(|(o, _)| *o == oid) {
            break;
        }
        cur = ck.parent;
    }
    let mut map = BTreeMap::new();
    for ck in chain.iter().rev() {
        if ck.deleted_objects.contains(&oid) {
            // The old incarnation dies here; this checkpoint's pages
            // belong to the new one.
            map.clear();
        }
        for ((o, idx), ptr) in &ck.pages {
            if *o == oid {
                map.insert(*idx, PageRef::Full(*ptr));
            }
        }
        for ((o, idx), lsn) in &ck.deltas {
            if *o == oid {
                map.insert(*idx, PageRef::Delta(*lsn));
            }
        }
    }
    map
}

/// The objects the old walk visited at `ckpt`: born in its chain, and
/// not deleted before that birth.
fn objects_at(ckpts: &BTreeMap<u64, Checkpoint>, ckpt: CkptId) -> Vec<ObjId> {
    let mut chain = Vec::new();
    let mut cur = Some(ckpt);
    while let Some(c) = cur {
        let ck = &ckpts[&c.0];
        chain.push(ck);
        cur = ck.parent;
    }
    let (mut objects, mut dead) = (Vec::new(), Vec::new());
    for ck in chain.iter().rev() {
        dead.extend(ck.deleted_objects.iter().copied());
        for (oid, _) in &ck.new_objects {
            if !dead.contains(oid) {
                objects.push(*oid);
            }
        }
    }
    objects
}

/// Checks the store's images against fresh folds and the old walk:
/// the kept head image equals a fold of the head's chain; every page of
/// every checkpoint's image agrees with `resolve_ref` and with the old
/// per-object walk; and `walk_base_blocks` visits the same
/// (object, page, block) set the old walk did.
fn check_images(store: &ObjectStore) -> Result<(), TestCaseError> {
    let table: BTreeMap<u64, Checkpoint> =
        store.checkpoints().into_iter().map(|c| (c.id.0, c.clone())).collect();
    if let Some(head) = store.head() {
        // `image_at` serves the head from the kept image.
        let fresh = Image::fold(&table, head).unwrap();
        let kept = store.image_at(head).unwrap();
        prop_assert!(*kept == fresh, "head image drifted from its chain");
    }
    for &id in table.keys() {
        let ckpt = CkptId(id);
        let image = store.image_at(ckpt).unwrap();
        for obj in 0..4u64 {
            let oid = ObjId(obj);
            let refs: BTreeMap<u64, PageRef> = image.object_refs(oid).collect();
            prop_assert_eq!(&refs, &effective_refs(&table, ckpt, oid));
            for idx in 0..16u64 {
                prop_assert_eq!(
                    refs.get(&idx).copied(),
                    checkpoint::resolve_ref(&table, ckpt, oid, idx)
                );
            }
        }
        let mut walked = BTreeSet::new();
        let problems = store.walk_base_blocks(ckpt, .., &mut |oid, idx, block| {
            walked.insert((oid, idx, block));
        });
        prop_assert!(problems.is_empty(), "walk of {}: {:?}", id, problems);
        let mut oracle = BTreeSet::new();
        for oid in objects_at(&table, ckpt) {
            for (idx, r) in effective_refs(&table, ckpt, oid) {
                let block = match r {
                    PageRef::Full(ptr) => ptr.0,
                    PageRef::Delta(lsn) => {
                        store.delta_log().chain(lsn).unwrap().first().unwrap().base.0
                    }
                };
                oracle.insert((oid, idx, block));
            }
        }
        prop_assert_eq!(walked, oracle);
    }
    Ok(())
}

/// `page` with 16 bytes at an offset chosen by `byte` set to `byte`,
/// and that run.
fn patched(page: &PageData, byte: u8) -> (PageData, (u32, u32)) {
    let mut bytes = page.materialize();
    let off = (byte as usize * 16) % aurora_vm::PAGE_SIZE;
    bytes.iter_mut().skip(off).take(16).for_each(|b| *b = byte);
    (PageData::from_bytes(&bytes), (off as u32, 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store behaves like a map that forgets uncommitted writes on
    /// recovery and rollback and never corrupts committed ones; and
    /// every checkpoint image it serves matches the chain it folds.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut store = new_store();
        for obj in 0..3u64 {
            store.create_object(ObjId(obj), 16).unwrap();
        }
        store.commit(None).unwrap();
        let (_, max_chain) = store.delta_policy();

        let mut committed: BTreeMap<(u64, u64), PageData> = BTreeMap::new();
        let mut live: BTreeMap<(u64, u64), PageData> = BTreeMap::new();
        let mut committed_objs: BTreeSet<u64> = (0..3).collect();
        let mut live_objs = committed_objs.clone();

        for op in ops {
            match op {
                Op::Write { obj, idx, seed } => {
                    store.write_page(ObjId(obj as u64), idx as u64, &PageData::Seeded(seed)).unwrap();
                    live.insert((obj as u64, idx as u64), PageData::Seeded(seed));
                }
                Op::Patch { pick, byte } => {
                    let key = match live.len() {
                        0 => (0, pick as u64 % 16),
                        n => *live.keys().nth(pick as usize % n).unwrap(),
                    };
                    let (oid, idx) = (ObjId(key.0), key.1);
                    let old = live.get(&key).cloned().unwrap_or(PageData::Zero);
                    let (new, run) = patched(&old, byte);
                    match store.can_delta(oid, idx) {
                        Some(len) if len < max_chain => {
                            store.stage_delta(oid, idx, &new, &[run]).unwrap()
                        }
                        _ => store.write_page(oid, idx, &new).unwrap(),
                    }
                    live.insert(key, new);
                }
                Op::Commit => {
                    store.commit(None).unwrap();
                    committed = live.clone();
                    committed_objs = live_objs.clone();
                }
                Op::Recover => {
                    let log = |s: &ObjectStore| {
                        let lsns: Vec<_> = s.delta_log().iter().map(|(l, _)| l).collect();
                        (lsns, s.delta_log().bytes())
                    };
                    let before = log(&store);
                    store = store.recover().unwrap();
                    prop_assert_eq!(log(&store), before, "recovery rebuilt another delta log");
                    live = committed.clone();
                    live_objs = committed_objs.clone();
                }
                Op::GcOldest => {
                    let (oldest, head) = {
                        let cks = store.checkpoints();
                        (cks.first().map(|c| c.id), cks.last().map(|c| c.id))
                    };
                    if let (Some(o), Some(h)) = (oldest, head) {
                        if o != h {
                            store.delete_checkpoint(o).unwrap();
                        }
                    }
                }
                Op::GcMiddle => {
                    let head = store.head().unwrap();
                    if let Some(parent) = store.checkpoint(head).unwrap().parent {
                        store.delete_checkpoint(parent).unwrap();
                    }
                }
                Op::Recreate { obj } => {
                    store.delete_object(ObjId(obj as u64)).unwrap();
                    store.create_object(ObjId(obj as u64), 16).unwrap();
                    live.retain(|&(o, _), _| o != obj as u64);
                }
                Op::CompactChains => {
                    if !store.has_pending() {
                        store.compact_chains(2).unwrap();
                    }
                }
                Op::Rollback => {
                    store.rollback_pending().unwrap();
                    live = committed.clone();
                    live_objs = committed_objs.clone();
                }
                Op::CloneInto { src } => {
                    if live_objs.remove(&3) {
                        store.delete_object(ObjId(3)).unwrap();
                        live.retain(|&(o, _), _| o != 3);
                    }
                    store.clone_object(ObjId(src as u64), ObjId(3)).unwrap();
                    let pages: Vec<(u64, PageData)> = live
                        .range((src as u64, 0)..=(src as u64, u64::MAX))
                        .map(|(&(_, idx), page)| (idx, page.clone()))
                        .collect();
                    live.extend(pages.into_iter().map(|(idx, page)| ((3, idx), page)));
                    live_objs.insert(3);
                }
                Op::RefusedWrite { obj, idx } => {
                    // No other op ever stages `page(0xEE)`, so the batch
                    // needs a fresh block; its second write shares that
                    // block and its third, if the page is live, a live one.
                    let key = (obj as u64, idx as u64);
                    let mut pages = vec![(key.1, page(0xEE)), ((key.1 + 1) % 16, page(0xEE))];
                    pages.extend(live.get(&key).map(|old| ((key.1 + 2) % 16, old.clone())));
                    let batch: Vec<PageWrite> = pages
                        .into_iter()
                        .map(|(idx, page)| PageWrite { oid: ObjId(key.0), idx, hash: page.content_hash(), page })
                        .collect();
                    store.device_mut().power_fail();
                    let refused = store.write_pages_coalesced(&batch);
                    store.device_mut().power_on();
                    prop_assert!(refused.is_err(), "a write with the power off was accepted");
                }
            }
            // Every mutation leaves the store fsck-clean...
            let problems = store.fsck();
            prop_assert!(problems.is_empty(), "fsck: {:?}", problems);
            // ...the live view always equals the model's...
            let ids: Vec<u64> = store.live_object_ids().iter().map(|o| o.0).collect();
            prop_assert_eq!(&ids, &live_objs.iter().copied().collect::<Vec<_>>());
            for &obj in &live_objs {
                for idx in 0..16u64 {
                    let got = store.read_page(ObjId(obj), idx).unwrap();
                    match live.get(&(obj, idx)) {
                        Some(want) => {
                            prop_assert!(got.is_some(), "page ({obj},{idx}) missing");
                            let got = got.unwrap();
                            prop_assert!(got.content_eq(want), "page ({obj},{idx}) differs");
                        }
                        None => prop_assert!(got.is_none(), "page ({obj},{idx}) resurrected"),
                    }
                }
            }
            // ...the head restores the last commit...
            let head = store.head().unwrap();
            for &obj in &committed_objs {
                for idx in 0..16u64 {
                    let got = store.read_page_at(head, ObjId(obj), idx).unwrap();
                    prop_assert_eq!(got.is_some(), committed.contains_key(&(obj, idx)));
                    if let (Some(got), Some(want)) = (got, committed.get(&(obj, idx))) {
                        prop_assert!(got.content_eq(want), "head page ({obj},{idx}) differs");
                    }
                }
            }
            // ...and every image matches its chain.
            check_images(&store)?;
        }
    }
}

#[test]
fn fsck_reports_healthy_store_through_lifecycle() {
    let mut s = new_store();
    s.create_object(ObjId(1), 16).unwrap();
    for i in 0..8u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(i)).unwrap();
    }
    s.commit(None).unwrap();
    assert!(s.fsck().is_empty(), "{:?}", s.fsck());

    // Dedup + second object.
    s.create_object(ObjId(2), 16).unwrap();
    for i in 0..8u64 {
        s.write_page(ObjId(2), i, &PageData::Seeded(i)).unwrap();
    }
    let (c2, _) = s.commit(None).unwrap();
    assert!(s.fsck().is_empty(), "{:?}", s.fsck());

    // Overwrites + GC + recovery.
    s.write_page(ObjId(1), 0, &page(0xAB)).unwrap();
    s.commit(None).unwrap();
    let oldest = s.checkpoints()[0].id;
    assert_ne!(oldest, c2);
    s.delete_checkpoint(oldest).unwrap();
    assert!(s.fsck().is_empty(), "after GC: {:?}", s.fsck());

    let s = s.recover().unwrap();
    assert!(s.fsck().is_empty(), "after recovery: {:?}", s.fsck());
}

#[test]
fn fsck_after_crash_during_commit() {
    for cut_at in 1..=3u64 {
        let clock = SimClock::new();
        let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
        let mut s = ObjectStore::format(
            dev,
            StoreConfig {
                journal_blocks: 512,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        s.create_object(ObjId(1), 8).unwrap();
        s.write_page(ObjId(1), 0, &page(1)).unwrap();
        s.commit(None).unwrap();
        s.write_page(ObjId(1), 1, &page(2)).unwrap();
        s.device_mut().install_fault_plan(FaultPlan::power_cut(cut_at));
        let _ = s.commit(None);
        let s = s.recover().unwrap();
        assert!(s.fsck().is_empty(), "cut {cut_at}: {:?}", s.fsck());
    }
}

#[test]
fn a_delete_and_recreate_in_one_epoch_survives_recovery_and_rollback() {
    // The commit records the old incarnation's death and the new one's
    // birth and page. Rebuilding the live state from the chain must
    // apply the death before the birth, or the object vanishes.
    let mut s = new_store();
    s.create_object(ObjId(4), 8).unwrap();
    s.write_page(ObjId(4), 5, &page(1)).unwrap();
    s.commit(None).unwrap();
    s.delete_object(ObjId(4)).unwrap();
    s.create_object(ObjId(4), 8).unwrap();
    s.write_page(ObjId(4), 0, &page(2)).unwrap();
    let (c2, _) = s.commit(None).unwrap();

    let live_after = |s: &ObjectStore, what: &str| {
        assert!(s.object_exists(ObjId(4)), "{what}: object lost");
        let got = s.read_page(ObjId(4), 0).unwrap().expect("page 0");
        assert!(got.content_eq(&page(2)), "{what}: page 0 differs");
        assert!(s.read_page(ObjId(4), 5).unwrap().is_none(), "{what}: old page back");
        let refs: Vec<u64> = s.object_refs_at(c2, ObjId(4)).iter().map(|(i, _)| *i).collect();
        assert_eq!(refs, vec![0], "{what}");
        assert!(s.fsck().is_empty(), "{what}: {:?}", s.fsck());
    };
    live_after(&s, "live");
    let mut s = s.recover().unwrap();
    live_after(&s, "recovered");
    s.write_page(ObjId(4), 1, &page(3)).unwrap();
    s.rollback_pending().unwrap();
    live_after(&s, "rolled back");
}

#[test]
fn delete_then_recreate_in_one_epoch() {
    // Regression: a delete-then-recreate within a single commit records
    // both the death and the new incarnation. The effective map must
    // keep the new incarnation's pages (the death only kills parents),
    // and export/import must carry the object.
    let mut s = new_store();
    s.create_object(ObjId(4), 8).unwrap();
    s.write_page(ObjId(4), 0, &page(1)).unwrap();
    s.write_page(ObjId(4), 5, &page(2)).unwrap();
    s.commit(None).unwrap();

    s.delete_object(ObjId(4)).unwrap();
    s.create_object(ObjId(4), 8).unwrap();
    s.write_page(ObjId(4), 3, &PageData::Seeded(7)).unwrap();
    let (head, _) = s.commit(None).unwrap();

    // Old incarnation's pages are dead; the new page is live.
    assert!(s.read_page_at(head, ObjId(4), 0).unwrap().is_none());
    assert!(s.read_page_at(head, ObjId(4), 5).unwrap().is_none());
    assert!(s.read_page_at(head, ObjId(4), 3).unwrap().is_some());
    let map = s.object_refs_at(head, ObjId(4));
    assert_eq!(map.len(), 1, "only the new incarnation's page");
    assert_eq!(map[0].0, 3);

    // The exported stream carries the recreated object.
    let bytes = s.export_checkpoint(head).unwrap();
    let mut dst = new_store();
    let (hb, _) = dst.import_stream(&bytes).unwrap();
    assert!(dst.read_page_at(hb, ObjId(4), 3).unwrap().is_some());
    assert!(dst.read_page_at(hb, ObjId(4), 0).unwrap().is_none());

    // A delta stream applies the death before the birth.
    let delta = s.export_delta(head).unwrap();
    let mut mirror = new_store();
    mirror.create_object(ObjId(4), 8).unwrap();
    mirror.write_page(ObjId(4), 0, &page(1)).unwrap();
    mirror.write_page(ObjId(4), 5, &page(2)).unwrap();
    mirror.commit(None).unwrap();
    let (hm, _) = mirror.import_delta(&delta).unwrap();
    assert!(mirror.read_page_at(hm, ObjId(4), 3).unwrap().is_some());
    assert!(mirror.read_page_at(hm, ObjId(4), 0).unwrap().is_none());
}

/// Folding several chains in one pass places their new blocks in the
/// same order in every store: two stores built by the same calls end
/// with every folded page on the same block.
#[test]
fn chain_folding_places_blocks_deterministically() {
    let build = || {
        let mut s = new_store();
        let oids: Vec<ObjId> = (1..=8).map(ObjId).collect();
        for &oid in &oids {
            s.create_object(oid, 4).unwrap();
            s.write_page(oid, 0, &PageData::Seeded(oid.0)).unwrap();
        }
        s.commit(None).unwrap();
        for round in 0..3u8 {
            for &oid in &oids {
                let old = s.read_page(oid, 0).unwrap().unwrap();
                let (new, run) = patched(&old, oid.0 as u8 * 16 + round);
                s.stage_delta(oid, 0, &new, &[run]).unwrap();
            }
            s.commit(None).unwrap();
        }
        assert_eq!(s.compact_chains(3).unwrap(), oids.len());
        let head = s.head().unwrap();
        let refs: Vec<_> = oids.iter().map(|&oid| s.page_ref_at(head, oid, 0)).collect();
        assert!(refs.iter().all(|r| matches!(r, Some((PageRef::Full(_), _)))), "{refs:?}");
        refs
    };
    assert_eq!(build(), build());
}

#[test]
fn scrub_is_clean_through_a_normal_lifecycle() {
    let mut s = new_store();
    s.create_object(ObjId(1), 8).unwrap();
    for i in 0..4 {
        s.write_page(ObjId(1), i, &page(i as u8 + 1)).unwrap();
    }
    s.commit(Some("a")).unwrap();
    s.write_page(ObjId(1), 0, &page(9)).unwrap();
    s.commit(Some("b")).unwrap();
    assert!(s.scrub().is_empty(), "live store scrubs clean");

    let s = s.recover().unwrap();
    assert!(s.scrub().is_empty(), "recovered store scrubs clean");
}

#[test]
fn scrub_detects_silent_data_corruption_on_the_platter() {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock, "nvme0", DEV_BLOCKS));
    let mut s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 1024,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(0x11)).unwrap();
    s.commit(Some("clean")).unwrap();
    assert!(s.scrub().is_empty());

    // Flip one bit in the next data write as it hits the platter; the
    // in-memory copy and the recorded content hash both stay clean.
    s.device_mut()
        .install_fault_plan(FaultPlan::corrupt(1, 100, 3));
    s.write_page(ObjId(1), 1, &page(0x22)).unwrap();
    s.commit(Some("tainted")).unwrap();

    let problems = s.scrub();
    assert!(
        problems.iter().any(|p| p.contains("content hash mismatch")),
        "scrub must flag the corrupted block: {problems:?}"
    );
}

#[test]
fn rollback_pending_discards_staged_writes() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    let (c1, _) = s.commit(Some("base")).unwrap();

    // Stage a second epoch, then abandon it.
    s.write_page(ObjId(1), 0, &page(2)).unwrap();
    s.create_object(ObjId(2), 4).unwrap();
    s.write_page(ObjId(2), 0, &page(3)).unwrap();
    s.put_blob("proc/2", vec![9]);
    assert!(s.has_pending());
    s.rollback_pending().unwrap();
    assert!(!s.has_pending());

    // The committed state is intact and the staged epoch left no trace.
    assert!(s.read_page(ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)));
    assert!(!s.object_exists(ObjId(2)));
    assert_eq!(s.head(), Some(c1));
    assert!(s.fsck().is_empty(), "refcounts rebuilt: {:?}", s.fsck());

    // The store keeps working after a rollback.
    s.write_page(ObjId(1), 1, &page(4)).unwrap();
    let (c2, _) = s.commit(Some("after")).unwrap();
    assert!(s.read_page_at(c2, ObjId(1), 1).unwrap().unwrap().content_eq(&page(4)));
    assert!(s.scrub().is_empty());
}

fn materialized_store() -> (ObjectStore, std::sync::Arc<SimClock>) {
    let clock = SimClock::new();
    let dev = Box::new(ModelDev::nvme(clock.clone(), "nvme0", DEV_BLOCKS));
    let s = ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks: 1024,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    (s, clock)
}

#[test]
fn read_plan_coalesces_extents_and_dedups_shared_blocks() {
    let (mut s, clock) = materialized_store();
    s.create_object(ObjId(1), 128).unwrap();
    s.create_object(ObjId(2), 4).unwrap();
    for i in 0..100u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(i + 1)).unwrap();
    }
    // Identical bytes: dedup resolves both targets to one block.
    s.write_page(ObjId(2), 0, &PageData::Seeded(1)).unwrap();
    let (ck, _) = s.commit(Some("plan")).unwrap();

    let mut targets: Vec<(ObjId, u64)> = (0..100).map(|i| (ObjId(1), i)).collect();
    targets.push((ObjId(2), 0));
    targets.push((ObjId(1), 120)); // sparse: never written
    let plan = s.plan_reads_at(ck, &targets);

    assert_eq!(plan.resolved.len(), 102);
    assert_eq!(plan.resolved[100], plan.resolved[0], "dedup shares the block");
    assert_eq!(plan.resolved[101], None, "sparse page resolves to nothing");
    assert_eq!(plan.blocks.len(), 100, "unique blocks only");
    assert!(plan.blocks.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
    let total: usize = plan.extents.iter().map(|&(_, len)| len).sum();
    assert_eq!(total, plan.blocks.len());
    assert!(plan.extents.iter().all(|&(_, len)| len <= aurora_objstore::EXTENT_BLOCKS));
    assert!(
        plan.extents.len() < plan.blocks.len(),
        "adjacent blocks must coalesce: {} extents for {} blocks",
        plan.extents.len(),
        plan.blocks.len()
    );

    // Cold: every block comes off the device in vectored extent reads,
    // which the caller waits for.
    s.drop_caches().unwrap();
    let t0 = clock.now();
    let cold = s.execute_read_plan(&plan).unwrap();
    clock.advance_to(cold.done);
    let cold_elapsed = clock.now() - t0;
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, 100);
    assert_eq!(cold.fetched.len(), 100);
    assert_eq!(cold.extents_read as usize, plan.extents.len());
    for (t, r) in targets.iter().zip(&plan.resolved) {
        let serial = s.read_page_at(ck, t.0, t.1).unwrap();
        match (r, serial) {
            (Some(ptr), Some(page)) => {
                assert!(cold.pages.get(&ptr.0).unwrap().content_eq(&page))
            }
            (None, None) => {}
            (r, s) => panic!("plan {r:?} vs serial {s:?} for {t:?}"),
        }
    }

    // Warm: same plan, all hits, no device reads, cheaper in virtual time.
    let t1 = clock.now();
    let warm = s.execute_read_plan(&plan).unwrap();
    let warm_elapsed = clock.now() - t1;
    assert_eq!(warm.cache_hits, 100);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.extents_read, 0);
    assert!(warm.fetched.is_empty());
    assert!(
        warm_elapsed < cold_elapsed,
        "warm {warm_elapsed:?} must undercut cold {cold_elapsed:?}"
    );
    assert_eq!(s.stats.read_cache_hits, 100);
    assert_eq!(s.stats.read_cache_misses, 100);
}

/// A metadata record's read is a cache policy over the read cache. The
/// first read after its commit is one waited device read; the second
/// is a hit that costs `RESTORE_CACHE_HIT_NS` per block and reads
/// nothing. `drop_caches`, a reboot and a GC that merges the checkpoint
/// holding the record into its child each make the next read a miss.
#[test]
fn a_record_read_misses_once_then_hits_until_its_residency_goes() {
    let (mut s, clock) = materialized_store();
    let record = vec![7u8; 2 * aurora_hw::BLOCK_SIZE + 1];
    let blocks = 3u64;
    s.put_blob("g1/manifest", record.clone());
    let (c1, _) = s.commit(None).unwrap();
    s.put_blob("g1/other", vec![1]);
    let (c2, _) = s.commit(None).unwrap();
    s.put_blob("g1/other", vec![2]);
    s.commit(None).unwrap();

    // (hits, misses, device reads, virtual time) one read of the
    // record as of `at` adds.
    let read = |s: &mut ObjectStore, at: CkptId| {
        let (hits, misses) = (s.stats.read_cache_hits, s.stats.read_cache_misses);
        let reads = s.device().stats().reads;
        let t0 = clock.now();
        assert_eq!(s.get_blob(at, "g1/manifest").unwrap().unwrap(), record);
        (
            s.stats.read_cache_hits - hits,
            s.stats.read_cache_misses - misses,
            s.device().stats().reads - reads,
            clock.now() - t0,
        )
    };
    let hit = (
        1,
        0,
        0,
        aurora_sim::time::SimDuration::from_nanos(
            aurora_sim::cost::RESTORE_CACHE_HIT_NS * blocks,
        ),
    );
    let is_miss = |(hits, misses, reads, _): (u64, u64, u64, _)| (hits, misses, reads) == (0, 1, 1);

    let first = read(&mut s, c1);
    assert!(is_miss(first), "a committed record is not resident: {first:?}");
    assert_eq!(read(&mut s, c1), hit);
    assert!(first.3 > hit.3, "a miss {:?} must cost more than a hit", first.3);
    assert_eq!(s.read_cache_len(), blocks as usize, "a record holds its blocks");

    s.drop_caches().unwrap();
    assert!(is_miss(read(&mut s, c1)), "drop_caches empties the cache");
    assert_eq!(read(&mut s, c1), hit);

    let mut s = s.recover().unwrap();
    assert_eq!(s.read_cache_len(), 0, "a reboot starts with an empty cache");
    assert!(is_miss(read(&mut s, c1)), "a reboot empties the cache");
    assert_eq!(read(&mut s, c2), hit, "c2 reads the record c1 holds");

    // GC merges c1 into c2: the record now belongs to c2, and c1's
    // entry is forgotten with it.
    s.delete_checkpoint(c1).unwrap();
    assert_eq!(s.read_cache_len(), 0, "the merged checkpoint's entry is gone");
    assert!(is_miss(read(&mut s, c2)), "the merged record is read anew");
    assert_eq!(read(&mut s, c2), hit);
}

#[test]
fn batched_read_detects_wire_corruption_and_leaves_store_intact() {
    let (mut s, _clock) = materialized_store();
    s.create_object(ObjId(1), 8).unwrap();
    for i in 0..4u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(200 + i)).unwrap();
    }
    let (ck, _) = s.commit(Some("victim")).unwrap();
    let targets: Vec<(ObjId, u64)> = (0..4).map(|i| (ObjId(1), i)).collect();
    let plan = s.plan_reads_at(ck, &targets);

    // Damaged media: every read in the data region hands back a page
    // with one bit flipped. The re-read sees the same damage, so the
    // batched read must refuse the data rather than install garbage.
    s.drop_caches().unwrap();
    s.device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(0, u64::MAX, 100, 3));
    let err = s.execute_read_plan(&plan).unwrap_err();
    assert!(
        err.to_string().contains("content hash mismatch"),
        "corruption must surface as corrupt, got: {err}"
    );

    // The platter itself was never touched: disarm the fault and the
    // same plan reads clean, and scrub agrees the store is intact.
    s.device_mut().install_fault_plan(FaultPlan::default());
    let out = s.execute_read_plan(&plan).unwrap();
    assert_eq!(out.fetched.len(), 4);
    for (i, r) in plan.resolved.iter().enumerate() {
        let ptr = r.unwrap();
        assert!(out
            .pages
            .get(&ptr.0)
            .unwrap()
            .content_eq(&PageData::Seeded(200 + i as u64)));
    }
    assert!(s.scrub().is_empty());
}

/// Four distinct pages committed on a materialized dedup store, cold.
fn cold_victim(s: &mut ObjectStore) -> aurora_objstore::CkptId {
    s.create_object(ObjId(1), 8).unwrap();
    for i in 0..4u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(200 + i)).unwrap();
    }
    let (ck, _) = s.commit(Some("victim")).unwrap();
    s.drop_caches().unwrap();
    ck
}

/// The lazy, page-at-a-time read checks what the medium returns like
/// the batched one does: damaged bytes are refused, and — because a
/// read may never replace a recorded hash with the hash of what it just
/// read — the store is exactly as healthy afterwards as the platter is.
#[test]
fn lazy_read_refuses_damaged_bytes_and_keeps_the_recorded_hash() {
    let (mut s, _clock) = materialized_store();
    let ck = cold_victim(&mut s);
    s.device_mut()
        .install_fault_plan(FaultPlan::corrupt_read_blocks(0, u64::MAX, 100, 3));
    for i in 0..4u64 {
        let err = s.read_page_at(ck, ObjId(1), i).unwrap_err();
        assert!(
            err.to_string().contains("content hash mismatch"),
            "page {i}: a flipped bit must surface as corrupt, got: {err}"
        );
    }
    assert_eq!(s.read_cache_len(), 0, "nothing damaged is admitted");

    // The platter was never touched: disarmed, scrub agrees, the batched
    // read of the same blocks succeeds, and so does the lazy one.
    s.device_mut().install_fault_plan(FaultPlan::default());
    assert!(s.scrub().is_empty(), "{:?}", s.scrub());
    let targets: Vec<(ObjId, u64)> = (0..4).map(|i| (ObjId(1), i)).collect();
    let plan = s.plan_reads_at(ck, &targets);
    assert_eq!(s.execute_read_plan(&plan).unwrap().fetched.len(), 4);
    s.drop_caches().unwrap();
    for i in 0..4u64 {
        let got = s.read_page_at(ck, ObjId(1), i).unwrap().unwrap();
        assert!(got.content_eq(&PageData::Seeded(200 + i)));
    }
}

/// One glitched read — a flip the plan applies to read ordinals, not to
/// an LBA, so the next read of the same block is clean: the reader's
/// single re-read clears it, so the lazy and the batched read both
/// return the clean bytes — at the price of one extra device request —
/// and nothing about the store changes.
#[test]
fn a_transient_flip_is_cleared_by_the_one_re_read() {
    let (mut s, _clock) = materialized_store();
    let ck = cold_victim(&mut s);
    let glitch = |s: &mut ObjectStore, reads| {
        s.device_mut()
            .install_fault_plan(FaultPlan::corrupt_reads(1, reads, 100, 3));
    };

    glitch(&mut s, 1);
    let reads = s.device().stats().reads;
    let got = s.read_page_at(ck, ObjId(1), 2).unwrap().unwrap();
    assert!(got.content_eq(&PageData::Seeded(202)), "the re-read's bytes, not the glitch");
    assert_eq!(s.device().stats().reads - reads, 2, "one read, one re-read");

    s.drop_caches().unwrap();
    glitch(&mut s, 1);
    let targets: Vec<(ObjId, u64)> = (0..4).map(|i| (ObjId(1), i)).collect();
    let plan = s.plan_reads_at(ck, &targets);
    let out = s.execute_read_plan(&plan).unwrap();
    assert_eq!(out.fetched.len(), 4);
    assert_eq!(s.stats.repair_path_entries.get(), 0, "a transient needs no heal");

    // Two glitches in a row are damaged media as far as one read can
    // tell: refused, and still nothing recorded about it.
    s.drop_caches().unwrap();
    glitch(&mut s, 2);
    assert!(s.read_page_at(ck, ObjId(1), 2).is_err());
    assert!(s.scrub().is_empty());
}

#[test]
fn drop_caches_requires_materialized_data() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(0x33)).unwrap();
    s.commit(Some("timing-only")).unwrap();
    let err = s.drop_caches().unwrap_err();
    assert!(err.to_string().contains("materialized"));
    // Timing-only stores still serve batched plans from the page table.
    let ck = s.head().unwrap();
    let plan = s.plan_reads_at(ck, &[(ObjId(1), 0)]);
    let out = s.execute_read_plan(&plan).unwrap();
    assert_eq!(out.pages.len(), 1);
}

// ---------------------------------------------------------------------------
// Read planner: extents of adjacent blocks, read at queue depth.

use aurora_hw::BLOCK_SIZE;
use aurora_objstore::store::runs;
use aurora_sim::time::SimDuration;

/// First-to-last span of every run `runs` cut from `blocks`.
fn spans(blocks: &[u64], cut: &[(usize, usize)]) -> Vec<u64> {
    cut.iter()
        .map(|&(off, len)| blocks[off + len - 1] - blocks[off] + 1)
        .collect()
}

#[test]
fn runs_never_span_more_than_the_cap() {
    // Dense ids: whole extents and a tail.
    let dense: Vec<u64> = (5..205).collect();
    let cut = runs(&dense, EXTENT_BLOCKS);
    assert_eq!(cut, vec![(0, 64), (64, 64), (128, 64), (192, 8)]);
    assert!(spans(&dense, &cut)
        .iter()
        .all(|&s| s <= EXTENT_BLOCKS as u64));
    // Every hole ends an extent, however short.
    let strided: Vec<u64> = (0..200).map(|i| i * 2).collect();
    assert_eq!(runs(&strided, EXTENT_BLOCKS).len(), strided.len());
}

#[test]
fn runs_with_no_gap_are_runs_of_adjacent_ids() {
    // The loop `runs` replaced in the write, read and resilver paths.
    fn adjacent(blocks: &[u64]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while let Some(&start) = blocks.get(i) {
            let mut len = 1usize;
            while len < EXTENT_BLOCKS && blocks.get(i + len).copied() == Some(start + len as u64) {
                len += 1;
            }
            out.push((i, len));
            i += len;
        }
        out
    }
    assert!(runs(&[], EXTENT_BLOCKS).is_empty());
    assert_eq!(runs(&[9], EXTENT_BLOCKS), vec![(0, 1)]);
    let mut rng = aurora_sim::rng::Xoshiro256::seed_from(16);
    for density in [2u64, 3, 10] {
        let blocks: Vec<u64> = (0..2000u64)
            .filter(|_| rng.next_below(density) != 0)
            .collect();
        assert_eq!(
            runs(&blocks, EXTENT_BLOCKS),
            adjacent(&blocks),
            "density {density}"
        );
    }
}

/// A store on `dev` holding one 40-page object in adjacent blocks, and
/// the plan for every third page of it: 14 one-block islands.
fn strided_plan(
    dev: ModelDev,
    materialize: bool,
) -> (ObjectStore, aurora_objstore::store::ReadPlan) {
    let mut s = ObjectStore::format(
        Box::new(dev),
        StoreConfig {
            journal_blocks: 1024,
            materialize_data: materialize,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.create_object(ObjId(1), 64).unwrap();
    for i in 0..40u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(900 + i)).unwrap();
    }
    let (ck, _) = s.commit(Some("strided")).unwrap();
    let targets: Vec<(ObjId, u64)> = (0..40).step_by(3).map(|i| (ObjId(1), i)).collect();
    let plan = s.plan_reads_at(ck, &targets);
    assert_eq!(plan.blocks.len(), 14);
    assert!(
        plan.blocks.windows(2).all(|w| w[1] - w[0] == 3),
        "pages landed in adjacent blocks: {:?}",
        plan.blocks
    );
    if materialize {
        s.drop_caches().unwrap();
    }
    // Let the commit's writes drain, so every read below finds the
    // device queue idle.
    s.device().clock().charge(SimDuration::from_millis(100));
    (s, plan)
}

#[test]
fn a_plan_reads_one_extent_per_island() {
    for dev in [ModelDev::nvme, ModelDev::nvdimm] {
        let (mut s, plan) = strided_plan(dev(SimClock::new(), "dev0", DEV_BLOCKS), true);
        let islands: Vec<(usize, usize)> = (0..14).map(|i| (i, 1)).collect();
        assert_eq!(plan.extents, islands, "no hole is read through");
        let before = s.device().stats().clone();
        let out = s.execute_read_plan(&plan).unwrap();
        let after = s.device().stats().clone();
        assert_eq!(out.extents_read, 14);
        assert_eq!(after.reads - before.reads, 14);
        assert_eq!(after.bytes_read - before.bytes_read, 14 * BLOCK_SIZE as u64);
        assert_eq!(out.fetched, plan.blocks);
        assert_eq!(s.read_cache_len(), 14);
        assert_eq!(s.stats.read_blocks_coalesced, 14);
        for (i, b) in plan.blocks.iter().enumerate() {
            let want = PageData::Seeded(900 + 3 * i as u64);
            assert!(out.pages.get(b).unwrap().content_eq(&want), "block {b}");
        }
    }
}

/// The plan's extents are submitted back to back and waited for once:
/// on an idle NVMe the first pays the whole access latency and each of
/// the other 13 a queue-depth share, and the clock stays put until the
/// caller waits. A lazy fault of the same block waits for its read, so
/// each one finds the queue idle and pays the whole latency. Timing-only
/// reads follow the same rule.
#[test]
fn planned_islands_are_queued_requests_and_lazy_faults_waited_ones() {
    let transfer = SimDuration::for_bytes(BLOCK_SIZE as u64, aurora_sim::cost::dev::NVME_READ_BW);
    let queued = SimDuration::from_nanos(625) + transfer;
    let waited = SimDuration::from_nanos(10_000) + transfer;
    for materialize in [true, false] {
        let clock = SimClock::new();
        let (mut s, plan) = strided_plan(
            ModelDev::nvme(clock.clone(), "nvme0", DEV_BLOCKS),
            materialize,
        );
        let ck = s.head().unwrap();
        let before = clock.now();
        let out = s.execute_read_plan(&plan).unwrap();
        assert_eq!(out.extents_read, 14);
        assert_eq!(
            clock.now(),
            before,
            "materialize {materialize}: no read waited"
        );
        assert_eq!(
            out.done.since(before).as_nanos(),
            waited.as_nanos() + 13 * queued.as_nanos(),
            "materialize {materialize}"
        );
        clock.advance_to(out.done);

        if materialize {
            s.drop_caches().unwrap();
        }
        let before = clock.now();
        for i in (0..40u64).step_by(3) {
            let got = s.read_page_at(ck, ObjId(1), i).unwrap().unwrap();
            assert!(got.content_eq(&PageData::Seeded(900 + i)));
        }
        let elapsed = clock.now().since(before);
        assert_eq!(
            elapsed.as_nanos(),
            14 * waited.as_nanos(),
            "materialize {materialize}"
        );
    }

    // One ordinal per block read, planned or faulted: a cut armed past
    // the plan's 14 reads fires at the first lazy fault after it.
    let (mut s, plan) = strided_plan(ModelDev::nvme(SimClock::new(), "nvme0", DEV_BLOCKS), true);
    let ck = s.head().unwrap();
    s.device_mut()
        .install_fault_plan(FaultPlan::power_cut_on_read(15));
    s.execute_read_plan(&plan).unwrap();
    s.drop_caches().unwrap();
    assert!(s.read_page_at(ck, ObjId(1), 0).is_err());
    assert!(!s.device().powered());
}

#[test]
fn extent_batches_cut_bridged_plans_at_whole_extents() {
    let (mut s, _clock) = materialized_store();
    s.create_object(ObjId(1), 1024).unwrap();
    for i in 0..600u64 {
        s.write_page(ObjId(1), i, &PageData::Seeded(5000 + i)).unwrap();
    }
    let (ck, _) = s.commit(Some("wide")).unwrap();
    // Runs of four pages between one-page holes, and a wider hole every
    // 50 pages.
    let targets: Vec<(ObjId, u64)> = (0..600)
        .filter(|i| i % 5 != 0 && i % 50 >= 10)
        .map(|i| (ObjId(1), i))
        .collect();
    let plan = s.plan_reads_at(ck, &targets);
    assert!(spans(&plan.blocks, &plan.extents)
        .iter()
        .all(|&s| s <= EXTENT_BLOCKS as u64));
    assert!(
        plan.extents.iter().all(|&(_, len)| len == 4),
        "extents of adjacent blocks"
    );

    let batches = plan.extent_batches(48);
    let mut next = 0usize;
    for b in &batches {
        assert_eq!(b.start, next, "batches are consecutive");
        assert!(b.end > b.start);
        next = b.end;
        let blocks: usize = plan.extents[b.clone()].iter().map(|&(_, len)| len).sum();
        assert!(blocks <= 48 || b.len() == 1, "batch of {blocks} planned blocks");
    }
    assert_eq!(next, plan.extents.len(), "every extent is in a batch");

    // Batch by batch reads what one call reads.
    s.drop_caches().unwrap();
    let mut fetched = Vec::new();
    for b in batches {
        fetched.extend(s.execute_read_plan_range(&plan, b).unwrap().fetched);
    }
    assert_eq!(fetched, plan.blocks);
}

/// A materialized, deduplicating store whose data region holds exactly
/// `data_blocks` blocks.
fn small_store(data_blocks: u64) -> ObjectStore {
    let journal_blocks = 64;
    let total = aurora_objstore::layout::JOURNAL_START + journal_blocks + data_blocks;
    let dev = Box::new(ModelDev::nvme(SimClock::new(), "nvme0", total));
    ObjectStore::format(
        dev,
        StoreConfig {
            journal_blocks,
            materialize_data: true,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

/// One plan-order batch of fresh pages for object 1.
fn fresh_writes(idxs: impl IntoIterator<Item = u64>, seed: u64) -> Vec<PageWrite> {
    idxs.into_iter()
        .map(|idx| {
            let page = PageData::Seeded(seed + idx);
            PageWrite {
                oid: ObjId(1),
                idx,
                hash: page.content_hash(),
                page,
            }
        })
        .collect()
}

/// A write the device refuses stages nothing. On a timing-only store a
/// refused `write_page` leaks no block, and a refused batch leaves no
/// page staged at a block whose contents were never written: the live
/// page still reads as committed, and the next commit seals it again.
#[test]
fn a_refused_write_stages_nothing_on_a_timing_only_store() {
    let mut s = new_store();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    s.commit(None).unwrap();

    s.device_mut().power_fail();
    assert!(s.write_page(ObjId(1), 0, &page(2)).is_err());
    let batch = [PageWrite {
        oid: ObjId(1),
        idx: 0,
        hash: page(3).content_hash(),
        page: page(3),
    }];
    assert!(s.write_pages_coalesced(&batch).is_err());
    s.device_mut().power_on();

    assert_eq!(s.fsck(), Vec::<String>::new());
    assert!(!s.has_pending(), "a refused write left a page staged");
    let live = s.read_page(ObjId(1), 0).unwrap().unwrap();
    assert!(live.content_eq(&page(1)), "the live page is not the committed one");
    let (ck, _) = s.commit(None).unwrap();
    assert!(s.read_page_at(ck, ObjId(1), 0).unwrap().unwrap().content_eq(&page(1)));
    assert_eq!(s.fsck(), Vec::<String>::new());
}

/// A batch refused past the retry budget never reaches a checkpoint: on
/// a materialized store behind `ResilientDev`, the next commit seals the
/// old page, which still reads back from the medium once the caches are
/// dropped.
#[test]
fn a_batch_refused_past_the_retry_budget_never_reaches_a_checkpoint() {
    let model = ModelDev::nvme(SimClock::new(), "nvme0", DEV_BLOCKS);
    let dev = Box::new(ResilientDev::with_defaults(Box::new(model)));
    let config = StoreConfig {
        journal_blocks: 1024,
        materialize_data: true,
        ..StoreConfig::default()
    };
    let mut s = ObjectStore::format(dev, config).unwrap();
    s.create_object(ObjId(1), 4).unwrap();
    s.write_page(ObjId(1), 0, &page(1)).unwrap();
    s.commit(None).unwrap();

    s.device_mut().install_fault_plan(FaultPlan::transient(1, 1000));
    assert!(s.write_pages_coalesced(&fresh_writes(0..2, 900)).is_err());
    s.device_mut().install_fault_plan(FaultPlan::default());
    let (ck, _) = s.commit(None).unwrap();
    s.drop_caches().unwrap();

    let got = s.read_page_at(ck, ObjId(1), 0).unwrap().unwrap();
    assert!(got.content_eq(&page(1)), "the refused page replaced the old one");
    assert!(s.read_page_at(ck, ObjId(1), 1).unwrap().is_none());
    assert_eq!(s.fsck(), Vec::<String>::new());
    assert_eq!(s.scrub(), Vec::<String>::new());
}

/// Rebuilding the allocator from replayed refcounts (rollback and
/// recovery) returns every unreferenced block below the highest
/// referenced one to the free set, so a region that GC emptied can be
/// filled again.
#[test]
fn rollback_and_recovery_return_every_unreferenced_block_to_the_allocator() {
    let mut s = small_store(16);
    s.create_object(ObjId(1), 8).unwrap();
    let fill = |s: &mut ObjectStore, tag: u8| {
        for i in 0..8u8 {
            s.write_page(ObjId(1), u64::from(i), &page(tag + i)).unwrap();
        }
        s.commit(None).unwrap().0
    };
    let c1 = fill(&mut s, 0x10);
    let c2 = fill(&mut s, 0x20);
    s.delete_checkpoint(c1).unwrap();

    s.rollback_pending().unwrap();
    assert_eq!(s.blocks_in_use(), 8);
    assert!(s.fsck().is_empty(), "after rollback: {:?}", s.fsck());
    fill(&mut s, 0x30);
    s.delete_checkpoint(c2).unwrap();

    let mut s = s.recover().unwrap();
    assert_eq!(s.blocks_in_use(), 8);
    assert!(s.fsck().is_empty(), "after recovery: {:?}", s.fsck());
    let head = fill(&mut s, 0x40);
    assert!(s.fsck().is_empty(), "{:?}", s.fsck());
    assert!(s.scrub().is_empty(), "{:?}", s.scrub());
    assert!(s.read_page_at(head, ObjId(1), 7).unwrap().unwrap().content_eq(&page(0x47)));
}

/// Once history GC has freed scattered blocks, a checkpoint's fresh
/// pages still land on adjacent blocks past the write frontier, so one
/// batch of `n` pages costs ⌈n / EXTENT_BLOCKS⌉ device writes.
#[test]
fn a_batch_of_fresh_pages_after_gc_is_written_as_full_extents() {
    let mut s = new_store();
    s.create_object(ObjId(1), 512).unwrap();
    s.write_pages_coalesced(&fresh_writes(0..256, 0)).unwrap();
    let (c1, _) = s.commit(None).unwrap();
    // Rewrite every other page, then GC the first checkpoint: its blocks
    // under the rewritten pages come free one block apart.
    s.write_pages_coalesced(&fresh_writes((0..256).step_by(2), 1000)).unwrap();
    s.commit(None).unwrap();
    s.delete_checkpoint(c1).unwrap();

    let n = 200u64;
    let before = s.stats.extents_coalesced;
    s.write_pages_coalesced(&fresh_writes(256..256 + n, 5000)).unwrap();
    assert_eq!(
        s.stats.extents_coalesced - before,
        n.div_ceil(EXTENT_BLOCKS as u64),
        "{n} fresh pages in one batch"
    );
    s.commit(None).unwrap();
    assert!(s.fsck().is_empty(), "{:?}", s.fsck());
}

/// A small store checkpoints partial rewrites under a three-checkpoint
/// history window until the write frontier has wrapped onto freed
/// blocks at least twice, with one recovery on the way. The window's
/// peak (three checkpoints plus one staged batch: 48 blocks) fills the
/// data region, so a block the allocator loses track of fails a write.
/// Every commit audits clean, and the head reads back from the medium
/// exactly what was written.
#[test]
fn the_frontier_wraps_under_gc_and_recovery_with_every_audit_clean() {
    const PAGES: u64 = 16;
    const KEEP: usize = 3;
    let mut s = small_store(48);
    s.create_object(ObjId(1), PAGES).unwrap();
    s.commit(None).unwrap();
    let mut model: HashMap<u64, PageData> = HashMap::new();
    // Fresh blocks in allocation order.
    let mut placed: Vec<u64> = Vec::new();
    for round in 0..24u64 {
        if round == 12 {
            s = s.recover().unwrap();
            s.drop_caches().unwrap();
        }
        let writes = fresh_writes((0..PAGES).filter(|i| (i + round) % 3 != 0), round << 8);
        s.write_pages_coalesced(&writes).unwrap();
        let (ck, _) = s.commit(None).unwrap();
        let pages = &s.checkpoint(ck).unwrap().pages;
        placed.extend(writes.iter().map(|w| pages[&(ObjId(1), w.idx)].0));
        model.extend(writes.into_iter().map(|w| (w.idx, w.page)));
        while s.checkpoints().len() > KEEP {
            let oldest = s.checkpoints()[0].id;
            s.delete_checkpoint(oldest).unwrap();
        }
        assert!(s.fsck().is_empty(), "round {round}: {:?}", s.fsck());
        assert!(s.scrub().is_empty(), "round {round}: {:?}", s.scrub());
    }
    let wraps = placed.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(wraps >= 2, "the frontier wrapped {wraps} times");

    s.drop_caches().unwrap();
    let head = s.head().unwrap();
    let digest = |pages: &mut dyn Iterator<Item = Option<PageData>>| {
        pages.fold(0u64, |h, p| {
            h.rotate_left(5) ^ p.map_or(0, |p| p.content_hash())
        })
    };
    let restored = digest(&mut (0..PAGES).map(|i| s.read_page_at(head, ObjId(1), i).unwrap()));
    let expected = digest(&mut (0..PAGES).map(|i| model.get(&i).cloned()));
    assert_eq!(restored, expected, "the head restores digest-equal");
}
