//! Query operators.
//!
//! RLD's logical plans are *orderings* of a set of commutative stream
//! operators (select / window-join / lookup-join) that are applied to the
//! tuples of a driving stream, exactly as in the paper's running example Q1
//! where `op1..op3` are similarity / containment joins applied to Stock
//! tuples. Each operator carries the per-tuple cost and selectivity estimate
//! needed by the cost model, plus a state-size estimate used to price
//! operator migration in the DYN baseline.

use crate::ids::{OperatorId, StreamId};

/// The kind of an operator, which determines how its per-tuple cost depends
/// on the statistics of the streams involved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OperatorKind {
    /// A selection / pattern-match predicate over the driving stream only
    /// (e.g. `matches(S.data, BullishPatterns)` against a constant table
    /// folded into the base cost).
    Filter,
    /// A sliding-window equi-join with a partner stream: per input tuple the
    /// operator probes the partner's window, so its cost grows with the
    /// partner's input rate.
    WindowJoin {
        /// The partner (non-driving) stream being joined.
        partner: StreamId,
    },
    /// A join against a static lookup table of `table_size` entries
    /// (e.g. the `BullishPatterns` table), whose probe cost is constant.
    LookupJoin {
        /// Number of entries in the lookup table.
        table_size: usize,
    },
    /// A projection; cheap, selectivity 1.0 in practice.
    Project,
}

/// Full specification of one query operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Operator identifier (dense index within its query).
    pub id: OperatorId,
    /// Human-readable name (`"op1"`, `"match_sector"`, ...).
    pub name: String,
    /// What the operator does.
    pub kind: OperatorKind,
    /// Fixed CPU cost (in abstract cost units) charged per input tuple.
    pub base_cost: f64,
    /// Additional CPU cost per probed partner-window tuple (window joins) or
    /// per lookup-table entry (lookup joins). Zero for filters/projections.
    pub probe_cost: f64,
    /// Single-point selectivity estimate: expected fraction of input tuples
    /// that survive (or expected join fan-out, may exceed 1 for joins).
    pub selectivity_estimate: f64,
    /// Estimated operator state size in bytes (window contents, hash tables);
    /// used to price state migration in the DYN baseline.
    pub state_bytes: u64,
}

impl OperatorSpec {
    /// Create a filter operator.
    pub fn filter(
        id: OperatorId,
        name: impl Into<String>,
        base_cost: f64,
        selectivity: f64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            kind: OperatorKind::Filter,
            base_cost,
            probe_cost: 0.0,
            selectivity_estimate: selectivity,
            state_bytes: 0,
        }
    }

    /// Create a window equi-join operator against `partner`.
    pub fn window_join(
        id: OperatorId,
        name: impl Into<String>,
        partner: StreamId,
        base_cost: f64,
        probe_cost: f64,
        selectivity: f64,
        state_bytes: u64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            kind: OperatorKind::WindowJoin { partner },
            base_cost,
            probe_cost,
            selectivity_estimate: selectivity,
            state_bytes,
        }
    }

    /// Create a lookup-table join operator.
    pub fn lookup_join(
        id: OperatorId,
        name: impl Into<String>,
        table_size: usize,
        base_cost: f64,
        probe_cost: f64,
        selectivity: f64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            kind: OperatorKind::LookupJoin { table_size },
            base_cost,
            probe_cost,
            selectivity_estimate: selectivity,
            state_bytes: (table_size as u64) * 64,
        }
    }

    /// Create a projection operator.
    pub fn project(id: OperatorId, name: impl Into<String>, base_cost: f64) -> Self {
        Self {
            id,
            name: name.into(),
            kind: OperatorKind::Project,
            base_cost,
            probe_cost: 0.0,
            selectivity_estimate: 1.0,
            state_bytes: 0,
        }
    }

    /// The partner stream probed by this operator, if it is a window join.
    pub fn partner_stream(&self) -> Option<StreamId> {
        match self.kind {
            OperatorKind::WindowJoin { partner } => Some(partner),
            _ => None,
        }
    }

    /// Per-input-tuple processing cost given the partner stream's current
    /// input rate (tuples/sec) and the query's window length in seconds.
    ///
    /// * Filters / projections: `base_cost`.
    /// * Lookup joins: `base_cost + probe_cost * table_size`.
    /// * Window joins: `base_cost + probe_cost * partner_rate * window_secs`
    ///   (the number of partner tuples resident in the sliding window).
    pub fn per_tuple_cost(&self, partner_rate: f64, window_secs: f64) -> f64 {
        match self.kind {
            OperatorKind::Filter | OperatorKind::Project => self.base_cost,
            OperatorKind::LookupJoin { table_size } => {
                self.base_cost + self.probe_cost * table_size as f64
            }
            OperatorKind::WindowJoin { .. } => {
                self.base_cost + self.probe_cost * partner_rate.max(0.0) * window_secs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_cost_is_rate_independent() {
        let op = OperatorSpec::filter(OperatorId::new(0), "f", 2.0, 0.5);
        assert_eq!(op.per_tuple_cost(0.0, 60.0), 2.0);
        assert_eq!(op.per_tuple_cost(1000.0, 60.0), 2.0);
        assert_eq!(op.partner_stream(), None);
    }

    #[test]
    fn window_join_cost_grows_with_partner_rate() {
        let op = OperatorSpec::window_join(
            OperatorId::new(1),
            "j",
            StreamId::new(3),
            1.0,
            0.01,
            0.4,
            1024,
        );
        let slow = op.per_tuple_cost(10.0, 60.0);
        let fast = op.per_tuple_cost(100.0, 60.0);
        assert!(fast > slow);
        assert!((slow - (1.0 + 0.01 * 10.0 * 60.0)).abs() < 1e-12);
        assert_eq!(op.partner_stream(), Some(StreamId::new(3)));
    }

    #[test]
    fn lookup_join_cost_uses_table_size() {
        let op = OperatorSpec::lookup_join(OperatorId::new(2), "l", 200, 0.5, 0.002, 0.3);
        assert!((op.per_tuple_cost(999.0, 60.0) - (0.5 + 0.002 * 200.0)).abs() < 1e-12);
        assert!(op.state_bytes > 0);
    }

    #[test]
    fn negative_partner_rate_is_clamped() {
        let op =
            OperatorSpec::window_join(OperatorId::new(1), "j", StreamId::new(3), 1.0, 0.01, 0.4, 0);
        assert_eq!(op.per_tuple_cost(-5.0, 60.0), 1.0);
    }

    #[test]
    fn project_has_unit_selectivity() {
        let op = OperatorSpec::project(OperatorId::new(4), "p", 0.1);
        assert_eq!(op.selectivity_estimate, 1.0);
        assert_eq!(op.per_tuple_cost(50.0, 60.0), 0.1);
    }
}
