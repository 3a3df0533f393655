//! The workspace's unified process exit-code table.
//!
//! Every binary (the `dnc` CLI and the bench harness bins alike) maps
//! outcomes to exit codes through these constants, so scripts and CI can
//! branch on them without per-binary lore. `cargo xtask deepcheck`
//! (`contract-exit`) flags bare exit-code literals anywhere else: this
//! module is the one place the integers are allowed to appear.

/// Success.
pub const OK: i32 = 0;

/// The run completed but found a bound violation (soundness failure).
pub const VIOLATION: i32 = 1;

/// Usage or input error (bad flags, unreadable files).
pub const USAGE: i32 = 2;

/// No valid bound within budget: time-stopping divergence or guard
/// exhaustion after the full degradation chain.
pub const NO_BOUND: i32 = 3;

/// The bench gate failed: the new bench record differs from its pinned
/// record (the latest earlier record with the same knobs), or has none.
pub const REGRESSION: i32 = 4;
