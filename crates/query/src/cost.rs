//! The streaming SPJ cost model (§2.3 of the paper).
//!
//! The cost of a logical plan at a statistics snapshot is the total CPU work
//! per second needed to push the driving stream's tuples through the
//! operators in the plan's order:
//!
//! ```text
//! cost(lp, stats) = Σ_k  λ_in(k) · c_k(stats)
//! λ_in(1)   = λ_driving
//! λ_in(k+1) = λ_in(k) · σ_{lp[k]}
//! ```
//!
//! where `c_k(stats)` is the per-tuple cost of the k-th operator in the
//! ordering (which for window joins grows with the partner stream's rate).
//! This is exactly the polynomial form of the paper's 2-D example
//! `c1·σi + c2·σj + c3·σi·σj + c4` generalized to n dimensions, and it is
//! monotonically non-decreasing in every selectivity and every input rate —
//! the property Principles 1 and 2 of §4.2 rely on.
//!
//! The model also exposes *per-operator* loads (`λ_in(k) · c_k`), which are
//! what the physical planner packs onto machines (Definition 3), and the
//! plan's output rate, used by the runtime simulator.

use crate::plan::LogicalPlan;
use rld_common::{OperatorId, OperatorSpec, Query, Result, RldError, StatKey, StatsSnapshot};
use rld_paramspace::{GridPoint, ParameterSpace};

/// Cost model bound to one query.
#[derive(Debug, Clone)]
pub struct CostModel {
    query: Query,
}

impl CostModel {
    /// Create a cost model for a query.
    pub fn new(query: Query) -> Self {
        Self { query }
    }

    /// The query this model evaluates.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Selectivity of an operator at a snapshot, falling back to the
    /// operator's point estimate when the snapshot does not record it.
    pub fn selectivity(&self, op: OperatorId, stats: &StatsSnapshot) -> f64 {
        stats
            .get(StatKey::Selectivity(op))
            .unwrap_or_else(|| {
                self.query
                    .operator(op)
                    .map(|o| o.selectivity_estimate)
                    .unwrap_or(1.0)
            })
            .max(0.0)
    }

    /// Input rate of a stream at a snapshot, falling back to the stream's
    /// point estimate.
    pub fn input_rate(&self, stream: rld_common::StreamId, stats: &StatsSnapshot) -> f64 {
        stats
            .get(StatKey::InputRate(stream))
            .unwrap_or_else(|| {
                self.query
                    .stream(stream)
                    .map(|s| s.rate_estimate)
                    .unwrap_or(0.0)
            })
            .max(0.0)
    }

    /// Per-tuple processing cost of an operator at a snapshot.
    pub fn per_tuple_cost(&self, op: OperatorId, stats: &StatsSnapshot) -> Result<f64> {
        let spec = self.query.operator(op)?;
        let partner_rate = spec
            .partner_stream()
            .map(|s| self.input_rate(s, stats))
            .unwrap_or(0.0);
        Ok(spec.per_tuple_cost(partner_rate, self.query.window_secs))
    }

    /// Compile `plan`'s cost function over `space` (see [`PlanCostKernel`]).
    pub fn kernel(&self, plan: &LogicalPlan, space: &ParameterSpace) -> Result<PlanCostKernel<'_>> {
        plan.validate_for(&self.query)?;
        let term = |key: StatKey, at_baseline: f64| match space
            .dimensions()
            .iter()
            .position(|d| d.key == key)
        {
            Some(dim) => Term::Dim(dim),
            None => Term::Fixed(at_baseline),
        };
        let rate = |stream| {
            term(
                StatKey::InputRate(stream),
                self.input_rate(stream, space.baseline()),
            )
        };
        let steps = plan
            .ordering()
            .iter()
            .map(|op| {
                let spec = self.query.operator(*op)?;
                Ok(KernelStep {
                    spec,
                    cost: match spec.partner_stream().map_or(Term::Fixed(0.0), rate) {
                        Term::Fixed(partner_rate) => StepCost::Fixed(
                            spec.per_tuple_cost(partner_rate, self.query.window_secs),
                        ),
                        Term::Dim(partner_dim) => StepCost::Probing(partner_dim),
                    },
                    selectivity: term(
                        StatKey::Selectivity(*op),
                        self.selectivity(*op, space.baseline()),
                    ),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(PlanCostKernel {
            axes: space
                .dimensions()
                .iter()
                .map(|d| (0..d.steps).map(|idx| d.value_at(idx)).collect())
                .collect(),
            driving_rate: rate(self.query.driving_stream),
            window_secs: self.query.window_secs,
            steps,
        })
    }

    /// Total cost (CPU work per second) of a plan at a snapshot.
    pub fn plan_cost(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<f64> {
        plan.validate_for(&self.query)?;
        let mut rate = self.input_rate(self.query.driving_stream, stats);
        let mut total = 0.0;
        for op in plan.ordering() {
            let c = self.per_tuple_cost(*op, stats)?;
            total += rate * c;
            rate *= self.selectivity(*op, stats);
        }
        if !total.is_finite() {
            return Err(RldError::Runtime(format!(
                "non-finite plan cost for {plan}"
            )));
        }
        Ok(total)
    }

    /// The per-second load each operator places on its host machine when the
    /// given plan is executed at the given statistics (the quantity packed by
    /// the physical planner). Returned in *operator-id* order (index `i`
    /// holds the load of operator `op_i`), not plan order.
    pub fn operator_loads(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<Vec<f64>> {
        plan.validate_for(&self.query)?;
        let mut loads = vec![0.0; self.query.num_operators()];
        let mut rate = self.input_rate(self.query.driving_stream, stats);
        for op in plan.ordering() {
            let c = self.per_tuple_cost(*op, stats)?;
            loads[op.index()] = rate * c;
            rate *= self.selectivity(*op, stats);
        }
        Ok(loads)
    }

    /// Expected number of result tuples produced per input driving tuple.
    pub fn output_per_input(&self, stats: &StatsSnapshot) -> f64 {
        self.query
            .operators
            .iter()
            .map(|op| self.selectivity(op.id, stats))
            .product()
    }

    /// Per-operator work charged per driving tuple under a plan (same shape as
    /// [`CostModel::operator_loads`] but normalized per input tuple instead of
    /// per second). Used by the simulator to charge each node separately.
    pub fn per_driving_tuple_work_by_operator(
        &self,
        plan: &LogicalPlan,
        stats: &StatsSnapshot,
    ) -> Result<Vec<f64>> {
        plan.validate_for(&self.query)?;
        let mut work = vec![0.0; self.query.num_operators()];
        let mut survivors = 1.0;
        for op in plan.ordering() {
            let c = self.per_tuple_cost(*op, stats)?;
            work[op.index()] = survivors * c;
            survivors *= self.selectivity(*op, stats);
        }
        Ok(work)
    }
}

/// One statistic a plan's cost reads, resolved against a parameter space:
/// fixed — the value [`CostModel::selectivity`] / [`CostModel::input_rate`]
/// return at the space's baseline — or one of the space's dimensions.
#[derive(Debug, Clone, Copy)]
enum Term {
    Fixed(f64),
    Dim(usize),
}

/// An operator's per-tuple cost: the same at every point of the space, or
/// moved by its partner stream's rate, which is the given dimension.
#[derive(Debug, Clone, Copy)]
enum StepCost {
    Fixed(f64),
    Probing(usize),
}

#[derive(Debug, Clone)]
struct KernelStep<'a> {
    spec: &'a OperatorSpec,
    cost: StepCost,
    selectivity: Term,
}

/// The cost function of one plan over one parameter space, compiled by
/// [`CostModel::kernel`]: the plan is validated and every statistic lookup
/// resolved once, so [`PlanCostKernel::eval`] allocates nothing and touches
/// no map. For every grid point `g` of the space, `kernel.eval(&g)` is
/// bit-identical to `CostModel::plan_cost(plan, &space.snapshot_at(&g))` —
/// the same float operations in the same order.
#[derive(Debug, Clone)]
pub struct PlanCostKernel<'a> {
    /// `axes[d][i]` is the value `snapshot_at` stores for dimension `d` at
    /// grid index `i`.
    axes: Vec<Vec<f64>>,
    driving_rate: Term,
    window_secs: f64,
    steps: Vec<KernelStep<'a>>,
}

impl PlanCostKernel<'_> {
    /// The plan's cost at a grid point of the space the kernel was compiled
    /// over.
    pub fn eval(&self, point: &GridPoint) -> Result<f64> {
        // Clamped as `CostModel::selectivity` / `input_rate` clamp (the
        // fixed terms were clamped when the kernel was compiled).
        let dim = |d: usize| self.axes[d][point.indices[d]].max(0.0);
        let at = |term| match term {
            Term::Fixed(value) => value,
            Term::Dim(d) => dim(d),
        };
        let mut rate = at(self.driving_rate);
        let mut total = 0.0;
        for step in &self.steps {
            let c = match step.cost {
                StepCost::Fixed(cost) => cost,
                StepCost::Probing(partner_dim) => {
                    step.spec.per_tuple_cost(dim(partner_dim), self.window_secs)
                }
            };
            total += rate * c;
            rate *= at(step.selectivity);
        }
        if !total.is_finite() {
            let plan: LogicalPlan = self.steps.iter().map(|s| s.spec.id).collect();
            return Err(RldError::Runtime(format!(
                "non-finite plan cost for {plan}"
            )));
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, Query, StreamId, UncertaintyLevel};

    fn q1() -> Query {
        Query::q1_stock_monitoring()
    }

    fn plan(v: &[usize]) -> LogicalPlan {
        LogicalPlan::new(v.iter().map(|i| OperatorId::new(*i)).collect())
    }

    #[test]
    fn plan_cost_is_positive_and_order_dependent() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        let c_identity = cm.plan_cost(&plan(&[0, 1, 2, 3, 4]), &stats).unwrap();
        let c_reversed = cm.plan_cost(&plan(&[4, 3, 2, 1, 0]), &stats).unwrap();
        assert!(c_identity > 0.0);
        assert!(c_reversed > 0.0);
        assert_ne!(c_identity, c_reversed);
    }

    #[test]
    fn cheap_selective_ops_first_is_cheaper() {
        // Build a query where op0 is expensive/unselective and op1 is cheap/selective.
        let q = Query::builder("toy")
            .stream("D", rld_common::Schema::default(), 100.0)
            .filter("expensive", 10.0, 0.9)
            .filter("cheap", 1.0, 0.1)
            .build()
            .unwrap();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        let bad = cm.plan_cost(&plan(&[0, 1]), &stats).unwrap();
        let good = cm.plan_cost(&plan(&[1, 0]), &stats).unwrap();
        assert!(good < bad, "good={good} bad={bad}");
        // Analytic check: λ=100. good = 100·1 + 100·0.1·10 = 200; bad = 100·10 + 100·0.9·1 = 1090.
        assert!((good - 200.0).abs() < 1e-9);
        assert!((bad - 1090.0).abs() < 1e-9);
    }

    #[test]
    fn cost_is_monotone_in_selectivity_and_rate() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let p = plan(&[0, 1, 2, 3, 4]);
        let base = q.default_stats();
        let c0 = cm.plan_cost(&p, &base).unwrap();

        let mut higher_sel = base.clone();
        higher_sel.set(StatKey::Selectivity(OperatorId::new(0)), 0.9);
        assert!(cm.plan_cost(&p, &higher_sel).unwrap() > c0);

        let mut higher_rate = base.clone();
        higher_rate.set(StatKey::InputRate(StreamId::new(0)), 200.0);
        assert!(cm.plan_cost(&p, &higher_rate).unwrap() > c0);

        // Raising a *partner* stream's rate also raises cost (probe cost).
        let mut higher_partner = base.clone();
        higher_partner.set(StatKey::InputRate(StreamId::new(1)), 500.0);
        assert!(cm.plan_cost(&p, &higher_partner).unwrap() > c0);
    }

    #[test]
    fn operator_loads_sum_to_plan_cost() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        for ordering in [[0, 1, 2, 3, 4], [3, 1, 4, 0, 2]] {
            let p = plan(&ordering);
            let loads = cm.operator_loads(&p, &stats).unwrap();
            let total: f64 = loads.iter().sum();
            let cost = cm.plan_cost(&p, &stats).unwrap();
            assert!((total - cost).abs() < 1e-9);
            assert_eq!(loads.len(), q.num_operators());
            assert!(loads.iter().all(|l| *l >= 0.0));
        }
    }

    #[test]
    fn later_operators_see_reduced_rates() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        let op0_load = |ordering: &[usize]| cm.operator_loads(&plan(ordering), &stats).unwrap()[0];
        // op0's load under the plan where it runs first equals rate * per-tuple cost;
        // in a plan where op0 runs last, its input rate has been filtered down.
        assert!(op0_load(&[1, 2, 3, 4, 0]) < op0_load(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn output_rate_is_order_independent() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        let expected = 0.40 * 0.35 * 0.30 * 0.25 * 0.20;
        assert!((cm.output_per_input(&stats) - expected).abs() < 1e-12);
    }

    #[test]
    fn per_tuple_work_scales_cost_by_rate() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        let p = plan(&[2, 0, 1, 4, 3]);
        let per_tuple: f64 = cm
            .per_driving_tuple_work_by_operator(&p, &stats)
            .unwrap()
            .iter()
            .sum();
        let per_sec = cm.plan_cost(&p, &stats).unwrap();
        let rate = cm.input_rate(StreamId::new(0), &stats);
        assert!((per_tuple * rate - per_sec).abs() < 1e-6);
    }

    #[test]
    fn missing_stats_fall_back_to_estimates() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let empty = StatsSnapshot::new();
        let with_defaults = q.default_stats();
        let p = plan(&[0, 1, 2, 3, 4]);
        let a = cm.plan_cost(&p, &empty).unwrap();
        let b = cm.plan_cost(&p, &with_defaults).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        assert!(cm.plan_cost(&plan(&[0, 1]), &stats).is_err());
        assert!(cm.operator_loads(&plan(&[0, 0, 1, 2, 3]), &stats).is_err());
    }

    #[test]
    fn uncertainty_estimates_integrate_with_space() {
        // Smoke test for the estimate helpers used downstream.
        let q = q1();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(2))
            .unwrap();
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn negative_stats_are_clamped() {
        let q = q1();
        let cm = CostModel::new(q.clone());
        let mut stats = q.default_stats();
        stats.set(StatKey::Selectivity(OperatorId::new(0)), -0.5);
        stats.set(StatKey::InputRate(StreamId::new(0)), -10.0);
        let p = plan(&[0, 1, 2, 3, 4]);
        let c = cm.plan_cost(&p, &stats).unwrap();
        assert!(c >= 0.0);
    }
}
