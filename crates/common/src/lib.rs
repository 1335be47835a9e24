//! # rld-common
//!
//! Shared substrate types for the RLD (Robust Load Distribution) reproduction
//! of *"Robust Distributed Stream Processing"* (Lei, Rundensteiner, Guttman,
//! WPI-CS-TR-12-07 / ICDE 2013).
//!
//! This crate defines the vocabulary used across the whole workspace:
//!
//! * [`schema::Schema`] — the data model: a stream's typed fields.
//! * [`stream::StreamSpec`] — a named input stream with a rate estimate.
//! * [`operator::OperatorSpec`] — a query operator with per-tuple cost and a
//!   selectivity estimate.
//! * [`query::Query`] — a select-project-join continuous query over streams,
//!   including the paper's running examples Q1 (5-way join) and Q2 (10-way join).
//! * [`stats::StatisticEstimate`] / [`stats::StatsSnapshot`] — point estimates
//!   of selectivities and input rates plus their uncertainty levels, the raw
//!   material from which the multi-dimensional parameter space is built.
//! * [`collections::sorted_pairs`] — the determinism-safe way to iterate a
//!   hash map on a result path (rld-analysis rule D1).
//! * [`error::RldError`] — the workspace-wide error type.
//! * [`rng`] — deterministic seeded RNG helpers so every experiment is
//!   reproducible.
//!
//! The tuples themselves — typed columns, driving batches, compiled
//! operators, window state and their generators — belong to the one crate
//! that runs them, `rld-exec`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collections;
pub mod error;
pub mod ids;
pub mod operator;
pub mod query;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod stream;

pub use error::{Result, RldError};
pub use ids::{NodeId, OperatorId, PlanId, StreamId};
pub use operator::{OperatorKind, OperatorSpec};
pub use query::Query;
pub use schema::{DataType, Schema};
pub use stats::{StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel};
