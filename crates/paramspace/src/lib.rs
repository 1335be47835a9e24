//! # rld-paramspace
//!
//! The multi-dimensional parameter space model of the RLD paper (§2.2, §4.2,
//! §5.2): a discretized hyper-rectangle around the optimizer's single-point
//! statistic estimates that captures all expected combinations of estimate
//! deviations (operator selectivities and stream input rates).
//!
//! * [`space::ParameterSpace`] — construction per Algorithm 1 of the paper
//!   (`E · (1 ± Δ·U)` per dimension), discretization, and conversion between
//!   grid coordinates and [`rld_common::StatsSnapshot`]s.
//! * [`region::Region`] — axis-aligned sub-spaces (hyper-rectangles of grid
//!   cells) with corner points, exact `u128` volumes, splitting and
//!   containment — the unit of work for the partitioning algorithms in
//!   `rld-logical`, whose partition tree makes every robust region a union
//!   of disjoint regions (so no region algebra is needed downstream).
//! * [`weights::WeightMap`] — the slope/distance weight-assignment function of
//!   §4.2 used to pick good partition points, generic over the plan cost
//!   function so this crate stays independent of the query model.
//! * [`occurrence::OccurrenceModel`] — the probability-of-occurrence model of
//!   §5.2 (independent per-dimension normal distributions centred at the
//!   estimates): the separable probability of one region, from its corners
//!   alone, which `rld-logical` sums into plan weights.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod occurrence;
pub mod region;
pub mod space;
pub mod weights;

pub use occurrence::OccurrenceModel;
pub use region::Region;
pub use space::{Dimension, GridPoint, ParameterSpace};
pub use weights::{DistanceMetric, WeightMap};
