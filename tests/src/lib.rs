//! Helper crate for the workspace's cross-crate integration tests.
//!
//! The tests themselves live in `tests/tests/` (cargo's integration-test
//! directory for this package) and exercise the public `rld_core` API the
//! way an application would:
//!
//! * `end_to_end.rs` — the full compile-time → runtime pipeline on the
//!   paper's Q1/Q2 queries.
//! * `paper_claims.rs` — checks that the reproduction exhibits the paper's
//!   headline claims (ERP ≤ ES optimizer calls, coverage guarantees,
//!   OptPrune ≥ GreedyPhy score, RLD latency under fluctuation).
//! * `runtime_strategies.rs` — invariants of the pluggable distribution
//!   strategies via the scenario layer: determinism per seed, RLD's
//!   no-migration guarantee, migration-count bounds for DYN/HYB, and
//!   monotone produced-tuple timelines for every strategy.
//! * `columnar_oracle.rs` — the differential-testing oracle: policy and
//!   loss agreement between the simulator and the executor at any monitor
//!   smoothing and shard count, and the executor's results invariant
//!   across shard counts.
//! * `fault_plane.rs` — fault-plane invariants on the simulator *and* the
//!   executor's crash/replay/degrade/failover semantics.
//! * `percentiles.rs` — the `ExecReport` percentile math against a naive
//!   sort-and-expand oracle.
//! * `logical_physical_properties.rs` — property-based invariants of the
//!   cost model, logical-solution generators and physical planners under
//!   randomized queries.
//! * `region_algebra.rs` — the robust solution's partition-tree accounting
//!   (coverage, volumes, weights, point lookups, tiling) against cell
//!   enumeration, over every logical solver.
//!
//! The [`fixtures`] module is the shared seed-corpus vocabulary: one Q1
//! cluster/deployment/strategy builder and scenario presets, so every suite
//! states *what* it runs in the same terms instead of re-assembling ad-hoc
//! setups. The [`reference`](mod@reference) module holds the brute-force
//! cell scans the property tests use as ground truth.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod reference;
