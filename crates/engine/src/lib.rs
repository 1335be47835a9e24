//! # rld-engine
//!
//! A discrete-time distributed stream processing simulator standing in for
//! the paper's D-CAPE cluster deployment (§6).
//!
//! The simulator advances in fixed ticks. In outline (the exact order of a
//! tick is written once, in [`runtime`]), each tick it
//!
//! 1. asks the workload for the ground-truth statistics (selectivities,
//!    input rates) at the current simulated time,
//! 2. lets the *distribution strategy* under test adapt its placement
//!    (DYN migrates on overload, HYB only outside every robust region,
//!    RLD/ROD never), charging any migrations as overhead work,
//! 3. generates the driving-stream tuple batch for the tick,
//! 4. routes the batch through the strategy's logical plan for the
//!    monitored statistics and charges each cluster node the per-operator
//!    work implied by that plan at the true statistics, and
//! 5. drains each node at its capacity, tracking queueing backlogs.
//!
//! Per-tuple processing time is the sum, along the plan's operator pipeline,
//! of each hosting node's queueing delay plus service time — so an overloaded
//! node shows up as exactly the latency blow-up the paper reports for ROD and
//! DYN under high fluctuation ratios (Figures 15–16). Migration (DYN/HYB) and
//! plan-classification (RLD/HYB) overheads are charged as extra node work and
//! reported separately (the §6.5 runtime-overhead comparison).
//!
//! Modules:
//! * [`node::SimNode`] — a machine with capacity, backlog, work counters and
//!   a dynamic availability state (up / down / degraded).
//! * [`faults::FaultPlan`] — deterministic schedules of node crashes,
//!   recoveries and straggler ramps, applied at tick granularity.
//! * [`monitor::StatisticsMonitor`] — periodic, smoothed statistics sampling.
//! * [`classifier::OnlineClassifier`] — the QueryMesh-style per-batch plan
//!   selector used by RLD and HYB; region containment is a descent of the
//!   robust solution's partition tree.
//! * [`strategy::DistributionStrategy`] — the pluggable policy seam.
//! * [`strategies`] — the RLD / ROD / DYN / HYB implementations.
//! * [`runtime::RuntimeCore`] — the backend-neutral control plane and the
//!   one place the policy tick is written: tick clock, availability view,
//!   fault cursor, monitoring, strategy dispatch, arrivals, routing, metrics
//!   assembly — shared between this simulator and the executors in
//!   `rld-exec`.
//! * [`stages`] — the building blocks the core and the simulator compose
//!   (arrivals, cached plan routing, work accounting, drain).
//! * [`simulator::Simulator`] — the core's phases plus the queue model.
//! * [`metrics::RunMetrics`] — the measurements reported by every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classifier;
pub mod faults;
pub mod metrics;
pub mod monitor;
pub mod node;
pub mod runtime;
pub mod simulator;
pub mod stages;
pub mod strategies;
pub mod strategy;

pub use classifier::OnlineClassifier;
pub use faults::{FaultEvent, FaultKind, FaultPlan, RecoverySemantic};
pub use metrics::{MetricsAccumulator, RunMetrics};
pub use monitor::StatisticsMonitor;
pub use node::SimNode;
pub use runtime::{
    BackendTotals, MigrationRecord, RouteRecord, RunTrace, RuntimeCore, TickDecision,
};
pub use simulator::{SimConfig, Simulator};
pub use stages::{ArrivalProcess, PlanRouter, Routed, RoutedBatch};
pub use strategies::{DynStrategy, HybridStrategy, RldStrategy, RodStrategy};
pub use strategy::{DistributionStrategy, RuntimeContext};
