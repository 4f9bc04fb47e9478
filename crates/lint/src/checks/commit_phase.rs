//! Check `commit-phase`: raw device mutations are confined to the
//! typestate commit protocol.
//!
//! The objstore's crash consistency rests on the token chains `DirtyTxn →
//! Submitted → Committed` and `DirtyTxn → SnapshotDurable → Committed`
//! (`crates/objstore/src/txn.rs`): rustc rejects a *reordered* protocol,
//! but nothing in the
//! type system stops a new code path from bypassing the tokens entirely
//! with a raw `write_blocks`. This check closes that hole: in the crates
//! listed under `[commit-phase] crates`, every mutation entry point of
//! `BlockDev` — `write_blocks`, `submit_write_timing` and `repair_block`
//! — may only be *called* inside the token-bearing functions enumerated
//! in `allow_in`:
//!
//! ```toml
//! [commit-phase]
//! crates = ["objstore", "core", "cli"]
//! allow_in = ["submit_journal", "flip_superblock", "write_extent"]
//! ```
//!
//! The device layer itself (`crates/hw`) is deliberately not listed: it
//! *implements* these operations. Everything above it must either drive
//! the typestate protocol or be consciously allowlisted in review.

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::Violation;

/// The `BlockDev` mutation entry points.
const FORBIDDEN: &[&str] = &[
    "submit_write_timing",
    "write_blocks",
    "repair_block",
];

/// Runs the commit-phase check.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.commit_phase_crates.is_empty() {
        return out;
    }
    for f in files {
        let in_scope = f
            .crate_name()
            .is_some_and(|c| cfg.commit_phase_crates.iter().any(|n| n == c));
        if !in_scope || f.all_test {
            continue;
        }
        let t = &f.tokens;
        // Enclosing named functions: (name, body brace depth). Closures
        // inherit the lexically enclosing fn, which is the right scope —
        // the write still executes inside that function's body.
        let mut fns: Vec<(String, i32)> = Vec::new();
        let mut pending_fn: Option<String> = None;
        let mut depth: i32 = 0;
        let mut brackets: i32 = 0;
        for i in 0..t.len() {
            if t[i].is_punct('{') {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fns.push((name, depth));
                }
                continue;
            }
            if t[i].is_punct('}') {
                depth -= 1;
                fns.retain(|&(_, d)| d <= depth);
                continue;
            }
            if t[i].is_punct('[') {
                brackets += 1;
                continue;
            }
            if t[i].is_punct(']') {
                brackets -= 1;
                continue;
            }
            // A top-level `;` before the body brace is a bodyless
            // signature (trait method declaration) — drop the pending
            // name. Bracket tracking keeps `[u8; 4]` in a signature
            // from clearing it.
            if t[i].is_punct(';') && brackets == 0 && pending_fn.is_some() {
                pending_fn = None;
                continue;
            }
            if t[i].is_ident("fn") {
                if let Some(name) = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    pending_fn = Some(name.text.clone());
                }
                continue;
            }
            if f.is_test_line(t[i].line) {
                continue;
            }
            // `recv.forbidden(...)` method calls only: definitions are
            // preceded by `fn`, and the hw implementations live in an
            // unlisted crate.
            let is_call = i >= 2
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|n| n.is_punct('('))
                && t[i].kind == TokenKind::Ident
                && FORBIDDEN.contains(&t[i].text.as_str());
            if !is_call {
                continue;
            }
            let enclosing = fns.last().map(|(n, _)| n.as_str()).unwrap_or("<module>");
            if cfg.commit_phase_allow.iter().any(|a| a == enclosing) {
                continue;
            }
            out.push(Violation {
                check: "commit-phase",
                path: f.rel.clone(),
                line: t[i].line,
                msg: format!(
                    "raw device write `{}` in `{enclosing}` bypasses the commit \
                     protocol; drive it through the typestate tokens in \
                     `objstore::txn` (append_record → commit_flush, or \
                     write_snapshot → flip_superblock), or add `{enclosing}` \
                     to [commit-phase] \
                     allow_in in lint-allow.toml with review",
                    t[i].text
                ),
            });
        }
    }
    out
}
