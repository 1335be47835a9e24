//! # rld-exec
//!
//! The tuple-level execution backend: one dataplane that runs the same
//! deployments the discrete-tick simulator models, on real tuples — **one
//! operator kernel under one scheduler, with the placement as accounting**.
//!
//! The kernel lives here, private to the crate that runs it (module
//! `exec`): a plan, or any consecutive run of its operators, compiles into
//! a `FusedChain` evaluated over a struct-of-arrays `ColumnBatch` of typed
//! columns with selection vectors, probing immutable `ProbeSet` snapshots of
//! the lookup tables and of the sliding windows (`WindowPartition`, sorted
//! runs of `SortedMarks`). Driving batches and partner arrivals come from
//! one generator family (module `tuples`: `ShardedDrivingGen`,
//! `ShardedPartnerGen`), seeded per (seed, strategy) and valued from the
//! workload's ground truth, so per seed every run evaluates bit-identical
//! tuples against bit-identical probe epochs. The public surface is the
//! executor alone.
//!
//! [`columnar::ColumnarExecutor`] schedules that kernel: whole ticks fanned
//! out across anonymous compute shards over bounded std channels, polled,
//! with generation and window maintenance inside the shards and a
//! tick-synchronous fold (one shard, run inline, by default). *Where* the
//! work runs is the placement's: every shard evaluates a routed plan as its
//! **hops** — the maximal runs of consecutive operators the physical plan
//! pins to one node — and charges each hop's wall time to that node
//! ([`StageTimings::node_busy_ms`]), so utilization is measured per cluster
//! node. The fault plane maps onto the same accounting: `Crash` drops the
//! batches routed through the node at ingest (and, under `Lost`, clears the
//! windows of the operators it hosts), `Degrade { factor }` stretches that
//! node's hops by the inverse factor, and migrations are charged a pause
//! proportional to the operator's state size.
//!
//! The executor is driven by the same backend-neutral
//! [`rld_engine::RuntimeCore`] as the simulator. The policy tick — fault
//! application, statistics monitoring, the strategy's hooks, Poisson
//! arrivals, plan routing, the down-node drop, availability accounting — is
//! written once, in `rld_engine::runtime`; the coordinator calls its three
//! phases and does only what is its own in between, so per seed the
//! executor and the simulator make **bit-identical policy decisions**
//! (per-batch plan routing, DYN/HYB migrations) and lose the same tuples —
//! asserted by the differential oracle. What the executor adds is what is
//! *measured*: wall-clock per-tuple latencies, real observed selectivities
//! from operator input/output counts, and per-stage and per-node busy time
//! — assembled into one [`executor::ExecReport`] by one function.
//!
//! Time is two-scaled: the *experiment timeline* (workload regimes, fault
//! schedules, monitor sampling) advances in virtual ticks exactly as in the
//! simulator, while *performance* (latency, throughput, busy time) is
//! measured in wall time. The coordinator runs the virtual timeline as fast
//! as the shards evaluate it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod column;
pub mod columnar;
mod exec;
pub mod executor;
mod tuples;

pub use columnar::{ColumnarConfig, ColumnarExecutor};
pub use executor::{ExecReport, StageTimings};
