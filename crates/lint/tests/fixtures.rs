//! Fixture self-tests: each fixture under `tests/fixtures/` is a tiny
//! workspace with known violations (or none); `analyze` must report
//! exactly those. The last test drives the installed binary to pin the
//! exit-code contract the CI gate relies on.

use std::path::PathBuf;

use aurora_lint::Violation;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(name: &str) -> Vec<Violation> {
    aurora_lint::analyze(&fixture(name)).expect("fixture must analyze")
}

/// `(check, path, line)` triples, in report order.
fn keys(violations: &[Violation]) -> Vec<(&str, &str, u32)> {
    violations
        .iter()
        .map(|v| (v.check, v.path.as_str(), v.line))
        .collect()
}

#[test]
fn clean_fixture_passes() {
    assert_eq!(keys(&analyze("clean")), Vec::<(&str, &str, u32)>::new());
}

#[test]
fn wall_clock_fixture() {
    assert_eq!(
        keys(&analyze("wall_clock")),
        vec![
            ("wall-clock", "crates/demo/src/lib.rs", 4),
            ("wall-clock", "crates/demo/src/lib.rs", 5),
            ("wall-clock", "crates/demo/src/lib.rs", 10),
        ],
        "three forbidden sites in demo; the sim clock layer is exempt"
    );
}

#[test]
fn no_panic_fixture() {
    assert_eq!(
        keys(&analyze("no_panic")),
        vec![
            ("no-panic", "crates/objstore/src/store.rs", 4),
            ("no-panic", "crates/objstore/src/store.rs", 5),
            ("no-panic", "crates/objstore/src/store.rs", 7),
            ("no-panic-index", "crates/objstore/src/store.rs", 9),
        ],
        "durability-region panics flagged; test code and non-durability \
         crates exempt"
    );
}

#[test]
fn lock_order_fixture() {
    assert_eq!(
        keys(&analyze("lock_order")),
        vec![("raw-lock", "crates/demo/src/lib.rs", 4)]
    );
}

#[test]
fn error_class_fixture() {
    let violations = analyze("error_class");
    let msgs: Vec<&str> = violations.iter().map(|v| v.msg.as_str()).collect();
    assert_eq!(violations.len(), 3, "got: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("ErrorKind::Beta")));
    assert!(msgs.iter().any(|m| m.contains("ErrorKind::Gamma")));
    assert!(msgs.iter().any(|m| m.contains("wildcard")));
}

#[test]
fn roundtrip_fixture() {
    let violations = analyze("roundtrip");
    let msgs: Vec<&str> = violations.iter().map(|v| v.msg.as_str()).collect();
    assert_eq!(violations.len(), 2, "got: {msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("`Rec`") && m.contains("not registered")),
        "unregistered codec pair must be flagged: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`Ghost`") && m.contains("matches no")),
        "dangling registry entry must be flagged: {msgs:?}"
    );
}

#[test]
fn commit_phase_fixture() {
    let violations = analyze("commit_phase");
    assert_eq!(
        keys(&violations),
        vec![
            ("commit-phase", "crates/demo/src/lib.rs", 10),
            ("commit-phase", "crates/demo/src/lib.rs", 15),
            ("commit-phase", "crates/demo/src/lib.rs", 20),
            ("commit-phase", "crates/demo/src/lib.rs", 24),
        ],
        "raw writes outside allowlisted fns flagged; the licensed \
         `submit_journal` and test code exempt: {:?}",
        violations.iter().map(|v| v.render()).collect::<Vec<_>>()
    );
    assert!(
        violations[0].msg.contains("rogue_flip")
            && violations[0].msg.contains("write_blocks"),
        "diagnostic names the function and the call: {}",
        violations[0].msg
    );
}

#[test]
fn stale_allow_fixture() {
    let violations = analyze("stale_allow");
    assert_eq!(keys(&violations), vec![("stale-allow", "lint-allow.toml", 0)]);
    assert!(violations[0].msg.contains("matched nothing"));
}

#[test]
fn binary_exit_codes() {
    let run = |name: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_aurora-lint"))
            .args(["--root", fixture(name).to_str().expect("utf-8 path")])
            .output()
            .expect("binary must run")
    };
    let ok = run("clean");
    assert!(ok.status.success(), "clean fixture must exit 0");
    let bad = run("wall_clock");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "a seeded violation must exit 1: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
}
