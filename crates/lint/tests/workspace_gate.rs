//! The tier-1 gate: `cargo test` fails whenever the workspace tree
//! violates an invariant, so the lint cannot rot silently between CI
//! configurations.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root must resolve")
}

#[test]
fn workspace_has_no_unsuppressed_violations() {
    let violations =
        aurora_lint::analyze(&workspace_root()).expect("workspace must analyze");
    assert!(
        violations.is_empty(),
        "aurora-lint found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The suppression ratchet: `lint-allow.toml` may only shrink. The
/// budget below follows the entries as they are fixed (10 → 8 with the
/// typestate commit protocol, 8 → 6 with the device model's index
/// sites, 6 → 5 with the block allocator's, 5 → 3 with the stripe
/// layer's and SLSFS's, 3 → 2 with the journal's frame-by-frame scan,
/// 2 → 1 with the superblock decoder's); lower it when entries are
/// fixed, never raise it without review.
const MAX_ALLOW_ENTRIES: usize = 1;

/// The durable-write ratchet: every function named in `[commit-phase]
/// allow_in` may write the device directly, so adding one is adding a
/// durable path. Today's six are the two journal-region writers
/// (`submit_journal`, `flip_superblock`), mkfs `format`, the one page
/// writer's `write_extent`, the read-repair `heal_block` and the block
/// release `release_block`. The sixth came with the check itself: when
/// `discard` joined the guarded calls, `release_block` became its one
/// licensed caller; no call the check guarded before was exempted.
/// Lower it when a path goes, never raise it without review.
const MAX_COMMIT_PHASE_WRITERS: usize = 6;

#[test]
fn allowlist_never_grows() {
    let src = std::fs::read_to_string(workspace_root().join("lint-allow.toml"))
        .expect("lint-allow.toml must be readable");
    let cfg = aurora_lint::Config::parse(&src).expect("lint-allow.toml must parse");
    assert!(
        cfg.allows.len() <= MAX_ALLOW_ENTRIES,
        "lint-allow.toml has {} [[allow]] entries, ratchet is {MAX_ALLOW_ENTRIES}: \
         fix the underlying site instead of suppressing it (or get review to \
         raise the ratchet alongside the new entry)",
        cfg.allows.len()
    );
    assert!(
        cfg.commit_phase_allow.len() <= MAX_COMMIT_PHASE_WRITERS,
        "[commit-phase] allow_in names {} functions, ratchet is \
         {MAX_COMMIT_PHASE_WRITERS}: route the new write through an existing \
         durable path (or get review to raise the ratchet): {:?}",
        cfg.commit_phase_allow.len(),
        cfg.commit_phase_allow
    );
    assert!(
        !cfg.commit_phase_crates.is_empty() && !cfg.commit_phase_allow.is_empty(),
        "the [commit-phase] policy section must not be emptied — that would \
         silently disable the raw-device-write check"
    );
}
