//! # rld-core
//!
//! The end-to-end **Robust Load Distribution (RLD)** optimizer and runtime —
//! the public API of this reproduction of *"Robust Distributed Stream
//! Processing"* (Lei, Rundensteiner, Guttman).
//!
//! RLD answers one question: *given a continuous query, point estimates of
//! its statistics, their uncertainty, and a cluster, how should operators be
//! placed so the system keeps performing well when the statistics fluctuate —
//! without ever migrating operators at runtime?* The answer has two halves:
//!
//! 1. a **robust logical solution** — a small set of ε-robust operator
//!    orderings that jointly cover the uncertainty (parameter) space, found
//!    by ERP with a probabilistic coverage guarantee, and
//! 2. a single **robust physical plan** — an operator placement that supports
//!    as many of those logical plans as the cluster allows, weighted by their
//!    probability of actually occurring, found by GreedyPhy or OptPrune.
//!
//! At runtime the placement never changes; an online classifier simply routes
//! each batch of tuples through the logical plan whose robust region contains
//! the currently observed statistics.
//!
//! ## Quick start
//!
//! ```
//! use rld_core::prelude::*;
//!
//! // The paper's Q1: a 5-way stock-monitoring join.
//! let query = Query::q1_stock_monitoring();
//! // 4 machines, each with enough capacity for roughly half the worst case.
//! let cluster = Cluster::homogeneous(4, 50_000.0).unwrap();
//!
//! let solution = RldConfig::default().compiler(query).compile(&cluster).unwrap();
//!
//! assert!(!solution.logical.is_empty());
//! println!(
//!     "RLD found {} robust logical plans, physical plan covers {:.0}% of the space",
//!     solution.logical.len(),
//!     solution.physical_coverage(&cluster) * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod compiler;
pub mod prelude;
pub mod scenario;

pub use baselines::{deploy_dyn, deploy_rod};
pub use compiler::{
    Deployment, LogicalCompilation, LogicalSolverSpec, PhysicalSolverSpec, RldConfig,
    RobustCompiler, UncertaintySpec,
};
pub use scenario::{Backend, Scenario, ScenarioReport, StrategyOutcome, StrategySpec};

// Re-export the constituent crates so downstream users need only one dependency.
pub use rld_common as common;
pub use rld_engine as engine;
pub use rld_exec as exec;
pub use rld_logical as logical;
pub use rld_paramspace as paramspace;
pub use rld_physical as physical;
pub use rld_query as query;
pub use rld_workloads as workloads;
