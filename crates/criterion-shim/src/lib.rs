//! The bench harness's wall-clock read point.
//!
//! The crate keeps the name `criterion` from the days it stood in for
//! the external benchmark crate; all that remains is [`wall_now`].

use std::time::Instant;

/// The bench harness's single wall-clock read point. Benchmark binaries
/// measure real elapsed time through this helper instead of reading the
/// OS clock themselves, so the workspace's wall-clock lint surface stays
/// at exactly this one site.
pub fn wall_now() -> Instant {
    Instant::now()
}
