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
        // Clamped as `CostModel::selectivity` / `input_rate` clamp.
        let axes: Vec<Vec<f64>> = space
            .dimensions()
            .iter()
            .map(|d| (0..d.steps).map(|idx| d.value_at(idx).max(0.0)).collect())
            .collect();
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
                        Term::Dim(dim) => StepCost::Probing {
                            dim,
                            by_index: axes[dim]
                                .iter()
                                .map(|rate| spec.per_tuple_cost(*rate, self.query.window_secs))
                                .collect(),
                        },
                    },
                    selectivity: term(
                        StatKey::Selectivity(*op),
                        self.selectivity(*op, space.baseline()),
                    ),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(PlanCostKernel {
            axes,
            driving_rate: rate(self.query.driving_stream),
            steps,
        })
    }

    /// The §2.3 recurrence over `plan` at a snapshot: validates the plan, then
    /// visits each operator in plan order with its load `rate · c_k`, the
    /// rate starting at `rate` and multiplied by each operator's selectivity
    /// after its visit.
    fn walk(
        &self,
        plan: &LogicalPlan,
        stats: &StatsSnapshot,
        mut rate: f64,
        mut visit: impl FnMut(OperatorId, f64),
    ) -> Result<()> {
        plan.validate_for(&self.query)?;
        for op in plan.ordering() {
            visit(*op, rate * self.per_tuple_cost(*op, stats)?);
            rate *= self.selectivity(*op, stats);
        }
        Ok(())
    }

    /// Total cost (CPU work per second) of a plan at a snapshot.
    pub fn plan_cost(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<f64> {
        let mut total = 0.0;
        let rate = self.input_rate(self.query.driving_stream, stats);
        self.walk(plan, stats, rate, |_, load| total += load)?;
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
        let mut loads = vec![0.0; self.query.num_operators()];
        let rate = self.input_rate(self.query.driving_stream, stats);
        self.walk(plan, stats, rate, |op, load| loads[op.index()] = load)?;
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
        let mut work = vec![0.0; self.query.num_operators()];
        // From one driving tuple: each operator's work is its survivors' cost.
        self.walk(plan, stats, 1.0, |op, w| work[op.index()] = w)?;
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
/// moved by its partner stream's rate, which is dimension `dim` — then
/// `by_index[i]` is the cost at the dimension's grid index `i`.
#[derive(Debug, Clone)]
enum StepCost {
    Fixed(f64),
    Probing { dim: usize, by_index: Vec<f64> },
}

#[derive(Debug, Clone)]
struct KernelStep<'a> {
    spec: &'a OperatorSpec,
    cost: StepCost,
    selectivity: Term,
}

/// The cost function of one plan over one parameter space, compiled by
/// [`CostModel::kernel`]: the plan is validated, every statistic lookup
/// resolved once and every per-tuple cost that moves with a dimension
/// tabulated per grid index, so costing allocates nothing per point and
/// touches no map. For every grid point `g` of the space, `kernel.eval(&g)`
/// is bit-identical to `CostModel::plan_cost(plan, &space.snapshot_at(&g))`
/// — the same float operations in the same order.
///
/// [`PlanCostKernel::eval`] costs one point; [`PlanCostKernel::eval_grid`]
/// costs a whole grid at once, with the same bits at every point, for the
/// §4.2 weight assignment, which needs the corner plans' costs on lattices
/// of up to thousands of points.
#[derive(Debug, Clone)]
pub struct PlanCostKernel<'a> {
    /// `axes[d][i]` is the value `snapshot_at` stores for dimension `d` at
    /// grid index `i`, clamped at 0.
    axes: Vec<Vec<f64>>,
    driving_rate: Term,
    steps: Vec<KernelStep<'a>>,
}

impl PlanCostKernel<'_> {
    /// The plan's cost at a grid point of the space the kernel was compiled
    /// over.
    pub fn eval(&self, point: &GridPoint) -> Result<f64> {
        let at = |term| match term {
            Term::Fixed(value) => value,
            Term::Dim(d) => self.axes[d][point.indices[d]],
        };
        let mut rate = at(self.driving_rate);
        let mut total = 0.0;
        for step in &self.steps {
            let c = match &step.cost {
                StepCost::Fixed(cost) => *cost,
                StepCost::Probing { dim, by_index } => by_index[point.indices[*dim]],
            };
            total += rate * c;
            rate *= at(step.selectivity);
        }
        if !total.is_finite() {
            return Err(self.non_finite());
        }
        Ok(total)
    }

    /// The plan's cost at every point of the tensor product of `grid`'s
    /// per-dimension index lists (one list per dimension of the space), in
    /// row-major order — the last dimension fastest.
    ///
    /// Each value is bit-identical to [`PlanCostKernel::eval`] at its point:
    /// the sweep runs `eval`'s steps one at a time over arrays of points, so
    /// every point sees the same float operations in the same order. A
    /// dimension joins the arrays when the plan first reads it, so the steps
    /// before it run once per combination of the dimensions read so far, and
    /// a dimension read only by the last step's selectivity — which scales
    /// the rate after the last addition to the total — or never read at all
    /// is never swept. Fails, as `eval` does, when the cost at any point is
    /// not finite.
    pub fn eval_grid(&self, grid: &[Vec<usize>]) -> Result<Vec<f64>> {
        let mut sweep = Sweep::new(grid);
        if sweep.total.is_empty() {
            return Ok(Vec::new());
        }
        match self.driving_rate {
            Term::Fixed(value) => sweep.rate[0] = value,
            Term::Dim(d) => sweep.for_each(d, &self.axes[d], |rate, _, value| *rate = value),
        }
        let last = self.steps.len().saturating_sub(1);
        for (k, step) in self.steps.iter().enumerate() {
            match &step.cost {
                StepCost::Fixed(c) => sweep.for_all(|rate, total| *total += *rate * c),
                StepCost::Probing { dim, by_index } => {
                    sweep.for_each(*dim, by_index, |rate, total, c| *total += *rate * c)
                }
            }
            if k == last {
                break;
            }
            match step.selectivity {
                Term::Fixed(s) => sweep.for_all(|rate, _| *rate *= s),
                Term::Dim(d) => sweep.for_each(d, &self.axes[d], |rate, _, s| *rate *= s),
            }
        }
        if !sweep.total.iter().all(|t| t.is_finite()) {
            return Err(self.non_finite());
        }
        Ok(sweep.into_table())
    }

    fn non_finite(&self) -> RldError {
        let plan: LogicalPlan = self.steps.iter().map(|s| s.spec.id).collect();
        RldError::Runtime(format!("non-finite plan cost for {plan}"))
    }
}

/// [`PlanCostKernel::eval_grid`]'s running state: `eval`'s `rate` and
/// `total` at every combination of the grid dimensions swept so far, in
/// row-major order over `nest` (the dimensions in the order they joined,
/// the latest fastest). Both columns are allocated once, at the size of the
/// whole grid, and widened in place.
struct Sweep<'g> {
    grid: &'g [Vec<usize>],
    nest: Vec<usize>,
    rate: Vec<f64>,
    total: Vec<f64>,
}

impl<'g> Sweep<'g> {
    /// One combination (no dimension swept yet), or none when an index list
    /// is empty.
    fn new(grid: &'g [Vec<usize>]) -> Self {
        let points: usize = grid.iter().map(Vec::len).product();
        let column = || {
            let mut column = Vec::with_capacity(points);
            column.extend((points > 0).then_some(0.0));
            column
        };
        Self {
            grid,
            nest: Vec::with_capacity(grid.len()),
            rate: column(),
            total: column(),
        }
    }

    /// Apply `op` to every combination.
    fn for_all(&mut self, op: impl Fn(&mut f64, &mut f64)) {
        for (rate, total) in self.rate.iter_mut().zip(&mut self.total) {
            op(rate, total);
        }
    }

    /// Apply `op` to every combination with `by_index[i]`, where `i` is the
    /// combination's grid index along dimension `d`. `d` joins the nest
    /// (innermost) if it is new.
    fn for_each(&mut self, d: usize, by_index: &[f64], op: impl Fn(&mut f64, &mut f64, f64)) {
        let indices = &self.grid[d];
        let len = indices.len();
        let level = match self.nest.iter().position(|&k| k == d) {
            Some(level) => level,
            None => {
                for column in [&mut self.rate, &mut self.total] {
                    let combinations = column.len();
                    column.resize(combinations * len, 0.0);
                    // Back to front, so no value is overwritten before it
                    // is copied.
                    for c in (0..combinations).rev() {
                        let value = column[c];
                        column[c * len..(c + 1) * len].fill(value);
                    }
                }
                self.nest.push(d);
                self.nest.len() - 1
            }
        };
        let inner: usize = self.nest[level + 1..]
            .iter()
            .map(|&k| self.grid[k].len())
            .product();
        let outer = self
            .rate
            .chunks_exact_mut(len * inner)
            .zip(self.total.chunks_exact_mut(len * inner));
        for (rates, totals) in outer {
            if inner == 1 {
                for ((rate, total), i) in rates.iter_mut().zip(totals).zip(indices) {
                    op(rate, total, by_index[*i]);
                }
                continue;
            }
            let along = rates
                .chunks_exact_mut(inner)
                .zip(totals.chunks_exact_mut(inner));
            for ((rates, totals), i) in along.zip(indices) {
                let value = by_index[*i];
                for (rate, total) in rates.iter_mut().zip(totals) {
                    op(rate, total, value);
                }
            }
        }
    }

    /// The totals laid out row-major over the whole grid; a dimension that
    /// never joined the nest repeats them along its axis.
    fn into_table(self) -> Vec<f64> {
        let dims = self.grid.len();
        if self.nest.iter().copied().eq(0..dims) {
            return self.total;
        }
        // Offset in `total` of one step along each grid dimension.
        let mut stride = vec![0usize; dims];
        let mut step = 1;
        for &d in self.nest.iter().rev() {
            stride[d] = step;
            step *= self.grid[d].len();
        }
        // `rate` is spent: gather into its allocation.
        let mut table = self.rate;
        table.clear();
        let (last, inner_stride) = (self.grid[dims - 1].len(), stride[dims - 1]);
        let mut odometer = vec![0usize; dims - 1];
        let mut base = 0;
        loop {
            table.extend((0..last).map(|i| self.total[base + i * inner_stride]));
            let Some(d) = (0..dims - 1)
                .rev()
                .find(|&d| odometer[d] + 1 < self.grid[d].len())
            else {
                return table;
            };
            odometer[d] += 1;
            base += stride[d];
            for k in d + 1..dims - 1 {
                base -= odometer[k] * stride[k];
                odometer[k] = 0;
            }
        }
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
