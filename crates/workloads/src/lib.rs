//! # rld-workloads
//!
//! Workload generators standing in for the paper's data sources (§6.1):
//!
//! * [`stock::StockWorkload`] — the Stocks–News–Blogs–Currency polling
//!   application: the query is Q1 and the ground-truth selectivities and
//!   rates switch between *bullish* and *bearish* regimes (Example 1).
//! * [`sensor::SensorWorkload`] — the Intel Research Berkeley Lab sensor
//!   deployment: an n-way join whose rates and selectivities follow a
//!   diurnal (sinusoidal) pattern.
//! * [`synthetic::SyntheticWorkload`] plus the Uniform / Poisson value
//!   distributions of Table 2 and the summary-statistics helper that
//!   reproduces that table.
//! * [`fluctuation`] — reusable rate/selectivity fluctuation patterns:
//!   constant scaling (Figure 15a's 50–400% sweeps), periodic high/low
//!   alternation (Figure 16b), and step schedules (Figure 15b's 50%→100%→200%
//!   ramp).
//! * [`tuples`] — the seeded generators of *actual* tuples
//!   ([`ShardedDrivingGen`]: driving batches with symbols, prices and match
//!   columns; [`ShardedPartnerGen`]: partner arrivals with window-join
//!   marks) for the executors, following the match-column convention of
//!   `rld_common::exec` so executed selectivities track the workload's
//!   ground truth.
//!
//! Every workload implements the [`Workload`] trait: given a simulated time
//! it writes the ground-truth statistics (the values the statistic monitor
//! would eventually observe) into a reusable snapshot.
//!
//! All the paper's live sources (NYSE tickers, Yahoo Finance, RSS feeds, the
//! Intel lab trace) are replaced by seeded synthetic generators that preserve
//! the *fluctuation structure* the experiments depend on, so every run is
//! reproducible from its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fluctuation;
pub mod sensor;
pub mod stock;
pub mod synthetic;
pub mod tuples;

pub use fluctuation::{RatePattern, SelectivityPattern};
pub use sensor::SensorWorkload;
pub use stock::StockWorkload;
pub use synthetic::{summary_stats, SummaryStats, SyntheticWorkload, ValueDistribution};
pub use tuples::{MatchColumn, ShardedDrivingGen, ShardedPartnerGen};

use rld_common::{Query, StatsSnapshot};

/// A stream workload: a query plus the ground truth of how its statistics
/// evolve over simulated time.
///
/// The truth has one way in: [`Self::stats_into`] rewrites a caller's
/// snapshot, so a run that asks every tick reuses one snapshot and allocates
/// nothing; [`Self::stats_at`] is the owned-value convenience over it.
pub trait Workload {
    /// A short name used in reports.
    fn name(&self) -> &str;

    /// The continuous query this workload drives.
    fn query(&self) -> &Query;

    /// Write the ground-truth statistics (selectivities and input rates) at
    /// simulated time `t` seconds into `out`. Whatever `out` held before —
    /// another time's truth, another query's — it ends up equal to
    /// [`Self::stats_at`]`(t_secs)`.
    fn stats_into(&self, t_secs: f64, out: &mut StatsSnapshot);

    /// Ground-truth statistics at simulated time `t` seconds, as a fresh
    /// snapshot.
    fn stats_at(&self, t_secs: f64) -> StatsSnapshot {
        let mut stats = StatsSnapshot::new();
        self.stats_into(t_secs, &mut stats);
        stats
    }
}
