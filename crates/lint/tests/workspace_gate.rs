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
/// sites, 6 → 5 with the block allocator's); lower it when entries are
/// fixed, never raise it without review.
const MAX_ALLOW_ENTRIES: usize = 5;

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
        !cfg.commit_phase_crates.is_empty() && !cfg.commit_phase_allow.is_empty(),
        "the [commit-phase] policy section must not be emptied — that would \
         silently disable the raw-device-write check"
    );
}

/// The runtime lock ranks (`aurora_sim::lockdep::RANK_<NAME>`) and the
/// static hierarchy (`lint-allow.toml [locks] order`) are one table
/// written twice: every rank constant must equal the index of its
/// lowercased name in `order`, and the two name sets must be equal.
#[test]
fn lock_ranks_match_the_declared_order() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("lint-allow.toml"))
        .expect("lint-allow.toml must be readable");
    let cfg = aurora_lint::Config::parse(&src).expect("lint-allow.toml must parse");
    let lockdep = std::fs::read_to_string(root.join("crates/sim/src/lockdep.rs"))
        .expect("lockdep.rs must be readable");
    let mut ranks: Vec<(String, usize)> = lockdep
        .lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("pub const RANK_")?;
            let (name, value) = rest.split_once(": u32 = ")?;
            let value = value.strip_suffix(';')?.parse().ok()?;
            Some((name.to_lowercase(), value))
        })
        .collect();
    ranks.sort_by_key(|&(_, rank)| rank);
    let declared: Vec<(String, usize)> = cfg
        .lock_order
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), i))
        .collect();
    assert_eq!(
        ranks, declared,
        "RANK_* constants in crates/sim/src/lockdep.rs disagree with [locks] order"
    );
}
