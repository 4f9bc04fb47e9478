//! Check `raw-lock`: `Mutex`/`RwLock` may not appear in production code.
//!
//! The host runs on one thread. Exclusion comes from `&mut` and the
//! `RefCell` borrow flags, which the compiler and the runtime check for
//! free; the only other threads are scoped workers that receive owned
//! or immutable data. A lock in production code guards nothing and
//! hides that design, so it is flagged wherever it appears.

use crate::source::SourceFile;

use super::Violation;

/// Runs the check.
pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        let t = &f.tokens;
        for (i, tok) in t.iter().enumerate() {
            if (tok.is_ident("Mutex") || tok.is_ident("RwLock"))
                && !t.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && !f.is_test_line(tok.line)
            {
                out.push(Violation {
                    check: "raw-lock",
                    path: f.rel.clone(),
                    line: tok.line,
                    msg: format!(
                        "`{}` in production code: the host runs on one thread, and \
                         workers may share only immutable data",
                        tok.text
                    ),
                });
            }
        }
    }
    out
}
