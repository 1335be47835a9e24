//! # rld-common
//!
//! Shared substrate types for the RLD (Robust Load Distribution) reproduction
//! of *"Robust Distributed Stream Processing"* (Lei, Rundensteiner, Guttman,
//! WPI-CS-TR-12-07 / ICDE 2013).
//!
//! This crate defines the vocabulary used across the whole workspace:
//!
//! * [`schema::Schema`] / [`column::Column`] — the data model: a stream's
//!   typed fields, and the typed vectors a batch stores them in.
//! * [`stream::StreamSpec`] — a named input stream with a rate estimate.
//! * [`operator::OperatorSpec`] — a query operator with per-tuple cost and a
//!   selectivity estimate.
//! * [`exec`] — the executable form of operators: threshold filters,
//!   lookup tables and sliding-window state, evaluated as fused chains over
//!   schema-typed [`exec::ColumnBatch`]es — the one unit of streaming data.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collections;
pub mod column;
pub mod error;
pub mod exec;
pub mod ids;
pub mod operator;
pub mod query;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod stream;

pub use column::Column;
pub use error::{Result, RldError};
pub use exec::{
    ColumnBatch, CompiledOp, FusedChain, MarkTerms, OpCounts, ProbeSet, SortedMarks,
    WindowPartition,
};
pub use ids::{NodeId, OperatorId, PlanId, StreamId};
pub use operator::{OperatorKind, OperatorSpec};
pub use query::{Query, QueryBuilder};
pub use schema::{DataType, Field, Schema};
pub use stats::{StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel};
pub use stream::StreamSpec;
