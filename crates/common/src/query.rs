//! Continuous queries.
//!
//! A [`Query`] is a select-project-join (SPJ) continuous query: a *driving
//! stream* whose tuples flow through a set of commutative operators
//! (filters, lookup joins and window joins against partner streams) inside a
//! sliding window. A *logical plan* for the query is an ordering of those
//! operators; a *physical plan* is an assignment of operators to machines.
//!
//! The module also provides the paper's two workload queries:
//! [`Query::q1_stock_monitoring`] (the 5-way stock/news/research join used in
//! Figures 10–11 and 13–14) and [`Query::q2_ten_way_join`] (the 10-way join
//! used for dimensionality and runtime experiments), plus a generic
//! [`Query::n_way_join`] generator for parameter sweeps.

use crate::error::{Result, RldError};
use crate::ids::{OperatorId, StreamId};
use crate::operator::{OperatorKind, OperatorSpec};
use crate::rng::{derive_seed, rng_from_seed};
use crate::schema::{DataType, Schema};
use crate::stats::{StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel};
use crate::stream::StreamSpec;
use rand::RngExt;

/// A select-project-join continuous query over data streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Query name, e.g. `"Q1"`.
    pub name: String,
    /// All streams referenced by the query; index 0 is the driving stream.
    pub streams: Vec<StreamSpec>,
    /// The driving stream whose tuples are routed through the operators.
    pub driving_stream: StreamId,
    /// The commutative operators applied to driving-stream tuples.
    pub operators: Vec<OperatorSpec>,
    /// Sliding-window length in seconds (Table 2 / Example 1 use 60 s).
    pub window_secs: f64,
}

impl Query {
    /// Start building a query with the given name.
    pub fn builder(name: impl Into<String>) -> QueryBuilder {
        QueryBuilder::new(name)
    }

    /// Number of operators.
    pub fn num_operators(&self) -> usize {
        self.operators.len()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Look up an operator by id.
    pub fn operator(&self, id: OperatorId) -> Result<&OperatorSpec> {
        self.operators
            .get(id.index())
            .ok_or_else(|| RldError::NotFound(format!("operator {id}")))
    }

    /// Look up a stream by id.
    pub fn stream(&self, id: StreamId) -> Result<&StreamSpec> {
        self.streams
            .get(id.index())
            .ok_or_else(|| RldError::NotFound(format!("stream {id}")))
    }

    /// All operator ids in declaration order.
    pub fn operator_ids(&self) -> Vec<OperatorId> {
        self.operators.iter().map(|o| o.id).collect()
    }

    /// The default statistics snapshot implied by the single-point estimates
    /// stored in the query (operator selectivities and stream rates).
    pub fn default_stats(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::new();
        for op in &self.operators {
            snap.set(StatKey::Selectivity(op.id), op.selectivity_estimate);
        }
        for s in &self.streams {
            snap.set(StatKey::InputRate(s.id), s.rate_estimate);
        }
        snap
    }

    /// The statistic estimates `E` (with uncertainty `U`) for a chosen set of
    /// uncertain dimensions. Dimensions not listed keep their point estimate
    /// and do not become parameter-space axes.
    pub fn estimates_for(
        &self,
        uncertain: &[(StatKey, UncertaintyLevel)],
    ) -> Result<Vec<StatisticEstimate>> {
        let defaults = self.default_stats();
        uncertain
            .iter()
            .map(|(key, u)| {
                defaults
                    .get(*key)
                    .map(|v| StatisticEstimate::new(*key, v, *u))
                    .ok_or_else(|| RldError::NotFound(format!("statistic {key}")))
            })
            .collect()
    }

    /// Convenience: mark the selectivities of the first `k` operators as
    /// uncertain at level `u` — the configuration used by most of the paper's
    /// parameter-space experiments (Figures 10–12 vary the number of such
    /// dimensions and the level `U`).
    pub fn selectivity_estimates(
        &self,
        k: usize,
        u: UncertaintyLevel,
    ) -> Result<Vec<StatisticEstimate>> {
        if k == 0 || k > self.num_operators() {
            return Err(RldError::InvalidArgument(format!(
                "cannot select {k} uncertain selectivities from {} operators",
                self.num_operators()
            )));
        }
        let keys: Vec<_> = self
            .operators
            .iter()
            .take(k)
            .map(|op| (StatKey::Selectivity(op.id), u))
            .collect();
        self.estimates_for(&keys)
    }

    /// Validates structural invariants: at least one operator, driving stream
    /// exists, every join partner exists, selectivities and costs are finite
    /// and non-negative.
    pub fn validate(&self) -> Result<()> {
        if self.operators.is_empty() {
            return Err(RldError::InvalidQuery("query has no operators".into()));
        }
        if self.streams.is_empty() {
            return Err(RldError::InvalidQuery("query has no streams".into()));
        }
        if self.driving_stream.index() >= self.streams.len() {
            return Err(RldError::InvalidQuery(format!(
                "driving stream {} does not exist",
                self.driving_stream
            )));
        }
        if self.window_secs <= 0.0 || !self.window_secs.is_finite() {
            return Err(RldError::InvalidQuery(format!(
                "window must be positive, got {}",
                self.window_secs
            )));
        }
        for (i, op) in self.operators.iter().enumerate() {
            if op.id.index() != i {
                return Err(RldError::InvalidQuery(format!(
                    "operator ids must be dense: position {i} holds {}",
                    op.id
                )));
            }
            if !(op.selectivity_estimate.is_finite() && op.selectivity_estimate >= 0.0) {
                return Err(RldError::InvalidQuery(format!(
                    "operator {} has invalid selectivity {}",
                    op.id, op.selectivity_estimate
                )));
            }
            if !(op.base_cost.is_finite()
                && op.base_cost >= 0.0
                && op.probe_cost.is_finite()
                && op.probe_cost >= 0.0)
            {
                return Err(RldError::InvalidQuery(format!(
                    "operator {} has invalid costs",
                    op.id
                )));
            }
            if let OperatorKind::WindowJoin { partner } = op.kind {
                if partner.index() >= self.streams.len() {
                    return Err(RldError::InvalidQuery(format!(
                        "operator {} joins unknown stream {partner}",
                        op.id
                    )));
                }
                if partner == self.driving_stream {
                    return Err(RldError::InvalidQuery(format!(
                        "operator {} joins the driving stream with itself",
                        op.id
                    )));
                }
            }
        }
        Ok(())
    }

    /// The paper's Example 1 / Q1: a 5-way stock-monitoring join.
    ///
    /// Driving stream `Stock`, joined with a bullish-pattern lookup table and
    /// with `News`, `Research`, `Blogs` and `Currency` windows. Five
    /// operators with heterogeneous costs and selectivities.
    pub fn q1_stock_monitoring() -> Query {
        let stock_schema = Schema::from_pairs(&[
            ("company_name", DataType::Text),
            ("symbol", DataType::Text),
            ("sector", DataType::Text),
            ("price", DataType::Float),
            ("ts", DataType::Timestamp),
        ]);
        let text_schema = Schema::from_pairs(&[
            ("subject", DataType::Text),
            ("company_name", DataType::Text),
            ("sector", DataType::Text),
            ("ts", DataType::Timestamp),
        ]);
        let currency_schema = Schema::from_pairs(&[
            ("country", DataType::Text),
            ("rate", DataType::Float),
            ("ts", DataType::Timestamp),
        ]);

        QueryBuilder::new("Q1")
            .window_secs(60.0)
            .stream("Stock", stock_schema, 100.0)
            .stream("News", text_schema.clone(), 50.0)
            .stream("Research", text_schema.clone(), 30.0)
            .stream("Blogs", text_schema, 80.0)
            .stream("Currency", currency_schema, 20.0)
            // Costs are tuned so that the operators' rank values
            // (selectivity − 1) / per-tuple-cost sit close together at the
            // estimates: moderate selectivity fluctuations then genuinely flip
            // the optimal ordering, giving the parameter space several
            // distinct robust plans (as in the paper's Figure 6 example).
            .lookup_join("match_bullish", 500, 4.0, 0.01, 0.40)
            .window_join("contains_news_sector", 1, 1.0, 0.003, 0.35, 64 * 1024)
            .window_join("contains_research_name", 2, 0.8, 0.004, 0.30, 48 * 1024)
            .window_join("match_blogs", 3, 0.5, 0.002, 0.25, 32 * 1024)
            .window_join("match_currency", 4, 0.5, 0.01, 0.20, 16 * 1024)
            .build()
            .expect("Q1 definition is valid")
    }

    /// The paper's Q2: a 10-way equi-join over 10 streams (Table 2 notes the
    /// default queries are equi-joins of 10 streams). Operator costs and
    /// selectivities are spread over realistic ranges so the plan space has
    /// many distinct optima.
    pub fn q2_ten_way_join() -> Query {
        Query::n_way_join(10, 0x5EED_0002)
    }

    /// Generic n-way window-join query generator used for parameter sweeps:
    /// one driving stream joined against `n - 1` partner streams (so `n - 1`
    /// join operators plus one initial filter), with deterministic
    /// pseudo-random costs, selectivities and rates derived from `seed`.
    ///
    /// `n` must be at least 2.
    pub fn n_way_join(n: usize, seed: u64) -> Query {
        assert!(n >= 2, "an n-way join needs at least 2 streams");
        let mut rng = rng_from_seed(derive_seed(seed, "n_way_join"));
        let schema = Schema::from_pairs(&[
            ("key", DataType::Int),
            ("value", DataType::Float),
            ("ts", DataType::Timestamp),
        ]);
        let mut b = QueryBuilder::new(format!("J{n}")).window_secs(60.0);
        b = b.stream("Driver", schema.clone(), 100.0);
        for i in 1..n {
            let rate = rng.random_range(20.0..150.0f64);
            b = b.stream(format!("S{i}"), schema.clone(), rate);
        }
        // Operators are generated with comparable rank values
        // ((selectivity − 1) / per-tuple-cost) so that selectivity
        // fluctuations flip the optimal ordering and the parameter space
        // contains several distinct robust plans. For each operator we draw a
        // selectivity and a target rank, derive the per-tuple cost, and split
        // it into a base and a probe component.
        let window_secs = 60.0f64;
        let filter_sel = rng.random_range(0.3..0.7f64);
        let filter_rank = rng.random_range(-0.09..-0.04f64);
        let filter_cost = ((filter_sel - 1.0) / filter_rank).max(0.1);
        b = b.filter("initial_filter", filter_cost, filter_sel);
        // One window join per partner stream.
        for i in 1..n {
            let sel = rng.random_range(0.2..0.8f64);
            let rank = rng.random_range(-0.09..-0.04f64);
            let per_tuple_cost = ((sel - 1.0) / rank).max(0.2);
            let partner_rate = b.streams[i].rate_estimate;
            let base = per_tuple_cost * rng.random_range(0.2..0.5f64);
            let probe = (per_tuple_cost - base) / (partner_rate * window_secs);
            let state = rng.random_range(8..128u64) * 1024;
            b = b.window_join(format!("join_s{i}"), i, base, probe, sel, state);
        }
        b.build().expect("generated n-way join is valid")
    }
}

/// Fluent builder for [`Query`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    streams: Vec<StreamSpec>,
    operators: Vec<OperatorSpec>,
    window_secs: f64,
}

impl QueryBuilder {
    /// Create a builder for a query with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            streams: Vec::new(),
            operators: Vec::new(),
            window_secs: 60.0,
        }
    }

    /// Set the sliding-window length in seconds (default 60 s).
    pub fn window_secs(mut self, secs: f64) -> Self {
        self.window_secs = secs;
        self
    }

    /// Add a stream; the first stream added becomes the driving stream.
    pub fn stream(mut self, name: impl Into<String>, schema: Schema, rate: f64) -> Self {
        let id = StreamId::new(self.streams.len());
        self.streams.push(StreamSpec::new(id, name, schema, rate));
        self
    }

    /// Add a filter operator over the driving stream.
    pub fn filter(mut self, name: impl Into<String>, base_cost: f64, selectivity: f64) -> Self {
        let id = OperatorId::new(self.operators.len());
        self.operators
            .push(OperatorSpec::filter(id, name, base_cost, selectivity));
        self
    }

    /// Add a lookup-table join operator.
    pub fn lookup_join(
        mut self,
        name: impl Into<String>,
        table_size: usize,
        base_cost: f64,
        probe_cost: f64,
        selectivity: f64,
    ) -> Self {
        let id = OperatorId::new(self.operators.len());
        self.operators.push(OperatorSpec::lookup_join(
            id,
            name,
            table_size,
            base_cost,
            probe_cost,
            selectivity,
        ));
        self
    }

    /// Add a window equi-join operator against the stream at index `partner`.
    pub fn window_join(
        mut self,
        name: impl Into<String>,
        partner: usize,
        base_cost: f64,
        probe_cost: f64,
        selectivity: f64,
        state_bytes: u64,
    ) -> Self {
        let id = OperatorId::new(self.operators.len());
        self.operators.push(OperatorSpec::window_join(
            id,
            name,
            StreamId::new(partner),
            base_cost,
            probe_cost,
            selectivity,
            state_bytes,
        ));
        self
    }

    /// Add a projection operator.
    pub fn project(mut self, name: impl Into<String>, base_cost: f64) -> Self {
        let id = OperatorId::new(self.operators.len());
        self.operators
            .push(OperatorSpec::project(id, name, base_cost));
        self
    }

    /// Finish building and validate the query.
    pub fn build(self) -> Result<Query> {
        let q = Query {
            name: self.name,
            streams: self.streams,
            driving_stream: StreamId::new(0),
            operators: self.operators,
            window_secs: self.window_secs,
        };
        q.validate()?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_is_valid_5_way_join() {
        let q = Query::q1_stock_monitoring();
        assert_eq!(q.num_streams(), 5);
        assert_eq!(q.num_operators(), 5);
        assert_eq!(q.driving_stream, StreamId::new(0));
        assert!(q.validate().is_ok());
        assert_eq!(q.window_secs, 60.0);
    }

    #[test]
    fn q2_is_valid_10_way_join() {
        let q = Query::q2_ten_way_join();
        assert_eq!(q.num_streams(), 10);
        assert_eq!(q.num_operators(), 10);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn n_way_join_is_deterministic_in_seed() {
        let a = Query::n_way_join(6, 99);
        let b = Query::n_way_join(6, 99);
        let c = Query::n_way_join(6, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn default_stats_cover_all_operators_and_streams() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        assert_eq!(stats.len(), q.num_operators() + q.num_streams());
        for op in &q.operators {
            assert_eq!(stats.selectivity(op.id), Some(op.selectivity_estimate));
        }
    }

    #[test]
    fn selectivity_estimates_selects_first_k() {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(2))
            .unwrap();
        assert_eq!(est.len(), 2);
        assert_eq!(est[0].key, StatKey::Selectivity(OperatorId::new(0)));
        assert!(q
            .selectivity_estimates(0, UncertaintyLevel::new(1))
            .is_err());
        assert!(q
            .selectivity_estimates(99, UncertaintyLevel::new(1))
            .is_err());
    }

    #[test]
    fn estimates_for_unknown_key_errors() {
        let q = Query::q1_stock_monitoring();
        let res = q.estimates_for(&[(
            StatKey::Selectivity(OperatorId::new(77)),
            UncertaintyLevel::new(1),
        )]);
        assert!(matches!(res, Err(RldError::NotFound(_))));
    }

    #[test]
    fn builder_rejects_empty_query() {
        let res = QueryBuilder::new("empty").build();
        assert!(matches!(res, Err(RldError::InvalidQuery(_))));
    }

    #[test]
    fn builder_rejects_join_with_unknown_partner() {
        let res = QueryBuilder::new("bad")
            .stream("A", Schema::default(), 10.0)
            .window_join("j", 5, 1.0, 0.01, 0.5, 0)
            .build();
        assert!(matches!(res, Err(RldError::InvalidQuery(_))));
    }

    #[test]
    fn builder_rejects_self_join_of_driving_stream() {
        let res = QueryBuilder::new("bad")
            .stream("A", Schema::default(), 10.0)
            .stream("B", Schema::default(), 10.0)
            .window_join("j", 0, 1.0, 0.01, 0.5, 0)
            .build();
        assert!(matches!(res, Err(RldError::InvalidQuery(_))));
    }

    #[test]
    fn builder_rejects_non_positive_window() {
        let res = QueryBuilder::new("bad")
            .window_secs(0.0)
            .stream("A", Schema::default(), 10.0)
            .filter("f", 1.0, 0.5)
            .build();
        assert!(matches!(res, Err(RldError::InvalidQuery(_))));
    }

    #[test]
    fn operator_lookup() {
        let q = Query::q1_stock_monitoring();
        assert!(q.operator(OperatorId::new(0)).is_ok());
        assert!(q.operator(OperatorId::new(50)).is_err());
        assert!(q.stream(StreamId::new(4)).is_ok());
        assert!(q.stream(StreamId::new(9)).is_err());
    }
}
