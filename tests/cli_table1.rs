//! Table 1 conformance: every `sls` CLI command, driven through the CLI
//! library against a real on-disk world.

use std::path::PathBuf;

fn world() -> (tempdir::TempDir, Vec<String>) {
    let dir = tempdir::TempDir::new("sls-cli-test");
    let args = vec!["--world".to_string(), dir.path().to_string_lossy().into_owned()];
    (dir, args)
}

/// Minimal tempdir (no external crate): a unique directory under the
/// system temp dir, removed on drop.
mod tempdir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new(prefix: &str) -> TempDir {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "{prefix}-{}-{n}",
                std::process::id()
            ));
            std::fs::create_dir_all(&path).expect("temp dir");
            TempDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn sls(base: &[String], extra: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = base.iter().map(String::as_str).collect();
    args.extend_from_slice(extra);
    aurora::cli::run(&args).map_err(|e| e.to_string())
}

#[test]
fn full_cli_lifecycle() {
    let (_dir, base) = world();

    // help + init
    let help = sls(&base, &["--help"]).unwrap();
    for cmd in ["persist", "attach", "detach", "checkpoint", "restore", "ps", "send", "recv"] {
        assert!(help.contains(cmd), "help mentions {cmd}");
    }
    let out = sls(&base, &["init"]).unwrap();
    assert!(out.contains("initialized world"));
    assert!(sls(&base, &["init"]).is_err(), "double init refused");

    // persist
    let out = sls(&base, &["persist", "counter", "--app", "hello"]).unwrap();
    assert!(out.contains("persisted counter"));
    assert!(
        sls(&base, &["persist", "counter", "--app", "hello"]).is_err(),
        "duplicate name refused"
    );

    // run advances across invocations (true persistence).
    let out = sls(&base, &["run", "counter", "--steps", "5"]).unwrap();
    assert!(out.contains("hello, world #5"), "{out}");
    let out = sls(&base, &["run", "counter", "--steps", "3"]).unwrap();
    assert!(out.contains("hello, world #8"), "state persisted: {out}");

    // checkpoint with a tag; restore by tag and by latest.
    let out = sls(&base, &["checkpoint", "counter", "--tag", "golden"]).unwrap();
    assert!(out.contains("tag golden"));
    assert!(
        out.contains("base verify ") && out.contains(" blocks), metadata "),
        "checkpoint line names the pre-flush base check: {out}"
    );
    let out = sls(&base, &["run", "counter", "--steps", "4"]).unwrap();
    assert!(out.contains("hello, world #12"));
    let out = sls(&base, &["restore", "counter"]).unwrap();
    assert!(out.contains("hello, world #12"));
    let out = sls(&base, &["restore", "counter", "--tag", "golden"]).unwrap();
    assert!(out.contains("hello, world #8"), "tagged restore: {out}");

    // ps lists the application and its history.
    let out = sls(&base, &["ps"]).unwrap();
    assert!(out.contains("counter"));
    assert!(out.contains("golden"));

    // attach / detach backends.
    let out = sls(&base, &["attach", "counter"]).unwrap();
    assert!(out.contains("attached backend"));
    sls(&base, &["run", "counter", "--steps", "1"]).unwrap();
    let out = sls(&base, &["detach", "counter", "--index", "1"]).unwrap();
    assert!(out.contains("detached backend"));
    assert!(sls(&base, &["detach", "counter", "--index", "5"]).is_err());

    // info: what the world holds.
    let out = sls(&base, &["info"]).unwrap();
    assert!(out.contains("checkpoints:"), "{out}");
    assert!(out.contains("fsck: healthy"), "{out}");
}

#[test]
fn send_recv_between_worlds() {
    let (_dir_a, a) = world();
    let (dir_b, b) = world();
    sls(&a, &["init"]).unwrap();
    sls(&b, &["init"]).unwrap();
    sls(&a, &["persist", "app", "--app", "kv"]).unwrap();
    sls(&a, &["run", "app", "--steps", "25"]).unwrap();

    let stream: PathBuf = dir_b.path().join("app.sls");
    let stream_s = stream.to_string_lossy().into_owned();
    let out = sls(&a, &["send", "app", "--out", &stream_s]).unwrap();
    assert!(out.contains("sent app"));

    let out = sls(&b, &["recv", "--in", &stream_s]).unwrap();
    assert!(out.contains("received checkpoint"));
    let out = sls(&b, &["restore", "app"]).unwrap();
    assert!(out.contains("keys: 25"), "migrated state intact: {out}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let (_dir, base) = world();
    assert!(sls(&base, &["ps"]).is_err(), "no world yet");
    sls(&base, &["init"]).unwrap();
    assert!(sls(&base, &["restore", "ghost"]).is_err());
    assert!(sls(&base, &["bogus-command"]).is_err());
    assert!(sls(&base, &["persist"]).is_err(), "missing name");
    assert!(sls(&base, &["persist", "x", "--app", "nope"]).is_err());
}

#[test]
fn scrub_and_info_report_health() {
    let (_dir, base) = world();
    sls(&base, &["init"]).unwrap();
    sls(&base, &["persist", "app", "--app", "kv"]).unwrap();
    sls(&base, &["run", "app", "--steps", "10"]).unwrap();

    let out = sls(&base, &["scrub"]).unwrap();
    assert!(out.contains("device healthy"), "scrub health: {out}");
    assert!(out.contains("clean"), "scrub verdict: {out}");

    let out = sls(&base, &["info"]).unwrap();
    assert!(out.contains("device: healthy"), "info health: {out}");

    let help = sls(&base, &["--help"]).unwrap();
    assert!(help.contains("scrub"), "help mentions scrub");
}
