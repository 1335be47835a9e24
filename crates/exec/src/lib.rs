//! # rld-exec
//!
//! The tuple-level execution backends: two dataplanes that run the same
//! deployments the discrete-tick simulator models, on real tuples — **one
//! operator kernel under two schedulers**.
//!
//! The kernel is `rld-common`'s: a plan, or any consecutive run of its
//! operators, compiles into a [`rld_common::FusedChain`] evaluated over a
//! struct-of-arrays [`rld_common::ColumnBatch`] with selection vectors,
//! probing immutable [`rld_common::ProbeSet`] snapshots of the lookup tables
//! and of the sliding windows ([`rld_common::WindowPartition`]). Driving
//! batches and partner arrivals come from one generator family
//! (`rld_workloads::{ShardedDrivingGen, ShardedPartnerGen}`), seeded
//! identically on both backends — so per seed the two evaluate bit-identical
//! tuples against bit-identical probe epochs and, fault-free, compute
//! identical results.
//!
//! What differs is who evaluates what, where:
//!
//! * [`executor::ThreadedExecutor`] executes the *placement*. Where the
//!   simulator treats "work" as an abstract scalar drained from per-node
//!   backlogs, it spawns **one worker thread per cluster node**; each
//!   worker evaluates, as one fused sub-chain, the run of consecutive
//!   operators the physical plan pins to its node, and forwards the
//!   surviving selection to the next node over bounded MPSC channels — a
//!   full channel *blocks the sender*, so overload shows up as genuine
//!   backpressure instead of a modelled queueing delay. The coordinator
//!   generates each tick's batch, maintains the windows, and publishes the
//!   tick's probe epoch with the envelope.
//! * [`columnar::ColumnarExecutor`] executes *throughput*: whole-plan
//!   chains fanned out across anonymous compute shards over bounded std
//!   channels, polled, with generation and window maintenance inside the
//!   shards and a tick-synchronous fold (one shard, run inline, by
//!   default). The placement only affects accounting and which batches are
//!   dropped at ingest.
//!
//! Both are driven by the same backend-neutral [`rld_engine::RuntimeCore`]
//! as the simulator. The policy tick — fault application, statistics
//! monitoring, the strategy's hooks, Poisson arrivals, plan routing, the
//! down-node drop, availability accounting — is written once, in
//! `rld_engine::runtime`; each coordinator calls its three phases and does
//! only what is its own in between, so per seed every backend makes
//! **bit-identical policy decisions** (per-batch plan routing, DYN/HYB
//! migrations) — asserted by the cross-backend trace tests. What the
//! executors add is what is *measured*: wall-clock per-tuple latencies, real
//! observed selectivities from operator input/output counts, and migration
//! pause costs in actual milliseconds — assembled into one
//! [`executor::ExecReport`] by one function.
//!
//! On the threaded executor the fault plane maps onto workers: `Crash`
//! stops a worker consuming (dropping or parking in-flight envelopes per the
//! plan's [`rld_engine::RecoverySemantic`], and clearing the node's window
//! state under `Lost`), `Degrade { factor }` makes a worker genuinely slower
//! by stretching its per-envelope processing time, and migrations pause the
//! source and target workers proportionally to the operator's state size.
//!
//! Time is two-scaled: the *experiment timeline* (workload regimes, fault
//! schedules, monitor sampling) advances in virtual ticks exactly as in the
//! simulator, while *performance* (latency, throughput, pauses) is measured
//! in wall time. The coordinator runs the virtual timeline as fast as the
//! workers can drain it; the bounded ingest channel paces it to the real
//! processing speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod columnar;
pub mod executor;
mod worker;

pub use columnar::{ColumnarConfig, ColumnarExecutor};
pub use executor::{ExecConfig, ExecReport, MonitorSource, StageTimings, ThreadedExecutor};
