#![warn(missing_docs)]
//! Deterministic end-to-end simulation testing for the study pipeline.
//!
//! A seed expands into a full [`scenario::Scenario`] — world size and
//! seed, fault matrix, retry policy, worker counts — which the
//! [`oracle`] runs through the complete pipeline twice: once faulted and
//! sharded, once clean and serial. The two runs must agree byte-for-byte
//! on every report, CSV export, and persisted mirror file, and each run
//! must satisfy a library of cross-crate invariants (obs counters
//! reconciling with crawler/store accounting, platform shadow-visibility
//! partitions, monotone ECDF curves, confusion-matrix marginals, the
//! world↔mirror fidelity contract). Each scenario also carries a seeded
//! WAL kill point: the `crash.*` family kills a journaled crawl there
//! and demands recovery + resume reproduce the uninterrupted run byte
//! for byte, all the way through the rendered report and CSV exports.
//! A seeded hostile-traffic profile rides along too: the `abuse.*`
//! family drives it ([`abusegen`]) against hardened services
//! concurrently with a polite load and demands no starvation, no
//! shadow-visibility leaks, and exact request/limiter reconciliation.
//!
//! On failure the [`shrink`] pass reduces the scenario to a minimal
//! still-failing case and [`replay`] writes it as a self-contained JSON
//! file under `simcheck/replays/`; the workspace test
//! `tests/simcheck_replays.rs` re-executes every committed replay
//! deterministically on each `cargo test`.
//!
//! The `simcheck` binary sweeps seed ranges for CI and long soak runs:
//!
//! ```text
//! cargo run --release -p simcheck -- --count 50 --start 1
//! ```

pub mod abusegen;
pub mod oracle;
pub mod replay;
pub mod scenario;
pub mod shrink;

pub use oracle::{check_scenario, check_scenario_family, Failure, Family};
pub use replay::Replay;
pub use scenario::Scenario;
