//! The invariant checks.
//!
//! Each check walks lexed token streams and reports [`Violation`]s with
//! `file:line` positions. Checks never consult the allowlist themselves —
//! suppression is applied centrally by [`crate::apply_allowlist`] so that
//! unused allow entries can be detected and flagged.

pub mod commit_phase;
pub mod error_class;
pub mod format;
pub mod no_panic;
pub mod raw_lock;
pub mod wall_clock;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Check name (stable; referenced by `lint-allow.toml`).
    pub check: &'static str,
    /// Workspace-relative path (`lint-allow.toml` for config problems).
    pub path: String,
    /// 1-based line, or 0 for file-level diagnostics.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub msg: String,
}

impl Violation {
    /// Formats as `path:line: [check] msg`.
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.path, self.check, self.msg)
        } else {
            format!("{}:{}: [{}] {}", self.path, self.line, self.check, self.msg)
        }
    }
}
