//! ε-robustness checking (Definition 1) with memoized optimizer calls.
//!
//! Definition 1: a logical plan `lp` is ε-robust in a sub-space `S_i` when
//!
//! ```text
//! cost(lp, pntHi) ≤ (1 + ε) · cost(lp_opt@pntHi, pntHi)
//! ```
//!
//! Because the cost model is monotone along every dimension (§2.3), a plan
//! that is within `(1+ε)` of the optimum at *both* corners of a sub-space has
//! its cost at every interior point bounded between its own cost at `pntLo`
//! and `(1+ε)` times the optimal cost at `pntHi` — the provable bound the
//! paper describes after Definition 1. The checker therefore verifies both
//! corners.
//!
//! The checker is the only code that answers "what is optimal at this grid
//! point" and "is this plan ε-robust here". It memoizes the optimum per grid
//! point so that corners shared between neighbouring sub-spaces are
//! optimized only once; the number of *distinct* optimizer invocations is
//! what the partitioning algorithms report (the quantity the paper
//! minimizes).
//!
//! Region-level verification no longer loops over cells:
//! [`RobustnessChecker::is_robust_in_region`] uses the two-corner monotonicity
//! bound, and the exact [`RobustnessChecker::is_robust_everywhere`] combines
//! monotone corner bounds with recursive bisection, descending to individual
//! cells only where the bounds are inconclusive. The experiments' ground
//! truth, [`RobustnessChecker::true_coverage`], does visit every cell: the
//! fraction of the grid where some plan of a solution is ε-robust.

use crate::solution::RobustLogicalSolution;
use rld_common::Result;
use rld_paramspace::{GridPoint, ParameterSpace, Region};
use rld_query::{LogicalPlan, Optimizer, PlanCostKernel};
use std::cell::RefCell;
use std::collections::HashMap;

/// Robustness checker bound to an optimizer, a parameter space and a
/// robustness threshold ε.
pub struct RobustnessChecker<'a, O: Optimizer> {
    optimizer: &'a O,
    space: &'a ParameterSpace,
    epsilon: f64,
    /// Memo of the optimum per probed grid point (looked up, never iterated).
    cache: RefCell<HashMap<GridPoint, CachedOptimum>>,
}

struct CachedOptimum {
    plan: LogicalPlan,
    cost: f64,
}

impl<'a, O: Optimizer> RobustnessChecker<'a, O> {
    /// Create a checker. `epsilon` is the robustness threshold of Definition 1
    /// (the paper sweeps 0.1–0.3).
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            optimizer,
            space,
            epsilon,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The robustness threshold ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The parameter space being searched.
    pub fn space(&self) -> &ParameterSpace {
        self.space
    }

    /// Number of optimizer calls made through this checker so far
    /// (cache hits are free).
    pub fn optimizer_calls(&self) -> usize {
        self.optimizer.call_count()
    }

    /// The optimal plan at a grid point, memoized.
    pub(crate) fn optimal_plan_at(&self, point: &GridPoint) -> Result<LogicalPlan> {
        self.with_optimum(point, |optimum| optimum.plan.clone())
    }

    /// The optimal plan's cost at a grid point, memoized.
    pub(crate) fn optimal_cost_at(&self, point: &GridPoint) -> Result<f64> {
        self.with_optimum(point, |optimum| optimum.cost)
    }

    /// Cost of an arbitrary plan at a grid point.
    pub(crate) fn plan_cost_at(&self, plan: &LogicalPlan, point: &GridPoint) -> Result<f64> {
        let stats = self.space.snapshot_at(point);
        self.optimizer.plan_cost(plan, &stats)
    }

    /// `plan`'s cost function compiled over the whole space, for costing it
    /// at many grid points (fails on an invalid plan).
    pub fn cost_kernel(&self, plan: &LogicalPlan) -> Result<PlanCostKernel<'a>> {
        self.optimizer.cost_kernel(plan, self.space)
    }

    /// Definition 1 at a single grid point: is `plan` within `(1+ε)` of the
    /// optimum at that point?
    pub(crate) fn is_robust_at(&self, plan: &LogicalPlan, point: &GridPoint) -> Result<bool> {
        let optimal = self.optimal_cost_at(point)?;
        let cost = self.plan_cost_at(plan, point)?;
        Ok(self.within_bound(cost, optimal))
    }

    /// Definition 1's acceptance bound: `cost ≤ (1+ε) · optimal`, with a
    /// 1e-12 allowance for rounding.
    fn within_bound(&self, cost: f64, optimal: f64) -> bool {
        cost <= (1.0 + self.epsilon) * optimal + 1e-12
    }

    /// Region-level robustness used by the partitioning algorithms: `plan` is
    /// accepted for `region` when it satisfies Definition 1 at both corners
    /// (`pntLo` and `pntHi`), which by cost monotonicity bounds its cost over
    /// the whole sub-space.
    pub fn is_robust_in_region(&self, plan: &LogicalPlan, region: &Region) -> Result<bool> {
        Ok(self.is_robust_at(plan, &region.pnt_lo())?
            && self.is_robust_at(plan, &region.pnt_hi())?)
    }

    /// Exactly verify Definition 1 at *every* cell of a region, without
    /// visiting every cell. Used by tests and the evaluation harness — the
    /// algorithms themselves rely on the corner bound to stay cheap.
    ///
    /// Monotonicity gives two corner-only bounds per sub-region:
    ///
    /// * if `cost(lp, pntHi) ≤ (1+ε)·opt(pntLo)` the plan is robust at every
    ///   interior cell (its cost is at most the hi-corner cost, the optimum is
    ///   at least the lo-corner optimum), and
    /// * if the plan fails Definition 1 at either corner, the region as a
    ///   whole fails.
    ///
    /// Where neither bound decides, the region is bisected and both halves
    /// are checked recursively, bottoming out at single cells (where
    /// Definition 1 is evaluated directly). The verdict is identical to the
    /// cell loop it replaces; the optimizer-call count is usually a tiny
    /// fraction of the region's volume.
    pub fn is_robust_everywhere(&self, plan: &LogicalPlan, region: &Region) -> Result<bool> {
        // Corner failures settle the whole region negatively.
        if !self.is_robust_at(plan, &region.pnt_lo())?
            || !self.is_robust_at(plan, &region.pnt_hi())?
        {
            return Ok(false);
        }
        if region.is_single_cell() {
            return Ok(true);
        }
        // Strong monotone bound: hi-corner plan cost within (1+ε) of the
        // lo-corner optimum ⇒ robust at every cell in between.
        let cost_hi = self.plan_cost_at(plan, &region.pnt_hi())?;
        let opt_lo = self.optimal_cost_at(&region.pnt_lo())?;
        if self.within_bound(cost_hi, opt_lo) {
            return Ok(true);
        }
        for half in region.bisect() {
            if !self.is_robust_everywhere(plan, &half)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fraction of grid cells where *some* plan of the solution is ε-robust
    /// (Definition 1 at the cell) — the "parameter space coverage" metric of
    /// Figures 11 and 14. It visits every cell, so it is ground truth for the
    /// experiments, not a step of the search; build the checker over an
    /// optimizer of its own so its calls are not charged to the solver being
    /// evaluated.
    pub fn true_coverage(&self, solution: &RobustLogicalSolution) -> Result<f64> {
        if solution.is_empty() {
            return Ok(0.0);
        }
        let mut covered = 0usize;
        for cell in self.space.iter_grid() {
            for plan in solution.plans() {
                if self.is_robust_at(plan, &cell)? {
                    covered += 1;
                    break;
                }
            }
        }
        Ok(covered as f64 / self.space.total_cells() as f64)
    }

    /// `read` of the optimum at a grid point, optimizing there on the first
    /// visit; a hit reads the memo under its borrow.
    fn with_optimum<T>(
        &self,
        point: &GridPoint,
        read: impl FnOnce(&CachedOptimum) -> T,
    ) -> Result<T> {
        if let Some(hit) = self.cache.borrow().get(point) {
            return Ok(read(hit));
        }
        let stats = self.space.snapshot_at(point);
        let plan = self.optimizer.optimize(&stats)?;
        let cost = self.optimizer.plan_cost(&plan, &stats)?;
        let entry = CachedOptimum { plan, cost };
        let value = read(&entry);
        self.cache.borrow_mut().insert(point.clone(), entry);
        Ok(value)
    }

    /// Number of distinct optimal plans over the whole grid.
    #[cfg(test)]
    pub(crate) fn distinct_optimal_plans(&self) -> Result<usize> {
        let mut plans = std::collections::HashSet::new();
        for cell in self.space.iter_grid() {
            plans.insert(self.optimal_plan_at(&cell)?);
        }
        Ok(plans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EarlyTerminatedRobustPartitioning, ErpConfig, ExhaustiveSearch, LogicalPlanGenerator,
        RandomSearch, WeightedRobustPartitioning,
    };
    use rld_common::{Query, UncertaintyLevel};
    use rld_query::JoinOrderOptimizer;

    fn setup(epsilon: f64) -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let estimates = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&estimates, q.default_stats(), 9).unwrap();
        let _ = epsilon;
        (q, space)
    }

    #[test]
    fn optimal_plan_is_always_robust_at_its_point() {
        let (q, space) = setup(0.1);
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.1);
        for point in [space.pnt_lo(), space.pnt_hi(), space.centre()] {
            let plan = checker.optimal_plan_at(&point).unwrap();
            assert!(checker.is_robust_at(&plan, &point).unwrap());
        }
    }

    #[test]
    fn cache_avoids_duplicate_optimizer_calls() {
        let (q, space) = setup(0.1);
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.1);
        let p = space.pnt_hi();
        checker.optimal_plan_at(&p).unwrap();
        checker.optimal_plan_at(&p).unwrap();
        checker.optimal_cost_at(&p).unwrap();
        assert_eq!(checker.optimizer_calls(), 1);
        checker.optimal_plan_at(&space.pnt_lo()).unwrap();
        assert_eq!(checker.optimizer_calls(), 2);
    }

    #[test]
    fn large_epsilon_accepts_more_plans() {
        let (q, space) = setup(0.0);
        let opt = JoinOrderOptimizer::new(q.clone());
        let tight = RobustnessChecker::new(&opt, &space, 0.0);
        let loose = RobustnessChecker::new(&opt, &space, 10.0);
        // A deliberately bad plan: reverse of the optimum at pntHi.
        let hi = space.pnt_hi();
        let best = tight.optimal_plan_at(&hi).unwrap();
        let mut rev: Vec<_> = best.ordering().to_vec();
        rev.reverse();
        let bad = LogicalPlan::new(rev);
        // With a huge epsilon everything is robust.
        assert!(loose.is_robust_at(&bad, &hi).unwrap());
        // With epsilon == 0 only optimal-cost plans are robust.
        let bad_cost = tight.plan_cost_at(&bad, &hi).unwrap();
        let opt_cost = tight.optimal_cost_at(&hi).unwrap();
        if bad_cost > opt_cost * 1.0001 {
            assert!(!tight.is_robust_at(&bad, &hi).unwrap());
        }
    }

    #[test]
    fn region_robustness_checks_both_corners() {
        let (q, space) = setup(0.2);
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.2);
        let region = Region::full(&space);
        let lo_plan = checker.optimal_plan_at(&region.pnt_lo()).unwrap();
        let robust = checker.is_robust_in_region(&lo_plan, &region).unwrap();
        // Whatever the verdict, it must agree with checking the corners directly.
        let expected = checker.is_robust_at(&lo_plan, &region.pnt_lo()).unwrap()
            && checker.is_robust_at(&lo_plan, &region.pnt_hi()).unwrap();
        assert_eq!(robust, expected);
    }

    #[test]
    fn everywhere_check_implies_corner_check() {
        let (q, space) = setup(0.3);
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.3);
        let region = Region::new(vec![0, 0], vec![3, 3]);
        let plan = checker.optimal_plan_at(&region.pnt_lo()).unwrap();
        if checker.is_robust_everywhere(&plan, &region).unwrap() {
            assert!(checker.is_robust_in_region(&plan, &region).unwrap());
        }
    }

    #[test]
    fn bisection_everywhere_check_matches_cell_loop() {
        let (q, space) = setup(0.2);
        let opt = JoinOrderOptimizer::new(q.clone());
        // Several plans × several epsilons × several regions: the bisection
        // verdict must equal the literal per-cell Definition 1 loop.
        for epsilon in [0.0, 0.05, 0.2, 1.0] {
            let checker = RobustnessChecker::new(&opt, &space, epsilon);
            let regions = [
                Region::full(&space),
                Region::new(vec![0, 0], vec![3, 8]),
                Region::new(vec![5, 2], vec![8, 6]),
                Region::new(vec![4, 4], vec![4, 4]),
            ];
            let plans = [
                checker.optimal_plan_at(&space.pnt_lo()).unwrap(),
                checker.optimal_plan_at(&space.pnt_hi()).unwrap(),
                checker.optimal_plan_at(&space.centre()).unwrap(),
            ];
            for region in &regions {
                for plan in &plans {
                    let mut by_cells = true;
                    for cell in region.cells() {
                        if !checker.is_robust_at(plan, &cell).unwrap() {
                            by_cells = false;
                            break;
                        }
                    }
                    assert_eq!(
                        checker.is_robust_everywhere(plan, region).unwrap(),
                        by_cells,
                        "mismatch for {region} at epsilon {epsilon}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be non-negative")]
    fn negative_epsilon_panics() {
        let (q, space) = setup(0.1);
        let opt = JoinOrderOptimizer::new(q);
        let _ = RobustnessChecker::new(&opt, &space, -0.5);
    }

    /// Q1 over two selectivities at U = 3, 7 steps.
    fn coverage_setup() -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 7).unwrap();
        (q, space)
    }

    #[test]
    fn empty_solution_has_zero_coverage() {
        let (q, space) = coverage_setup();
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.2);
        assert_eq!(
            checker
                .true_coverage(&RobustLogicalSolution::new())
                .unwrap(),
            0.0
        );
        assert_eq!(checker.optimizer_calls(), 0);
    }

    #[test]
    fn optimal_plan_at_every_cell_gives_full_coverage() {
        let (q, space) = coverage_setup();
        // Exhaustive search holds the optimal plan of every cell.
        let optimizer = JoinOrderOptimizer::new(q.clone());
        let (sol, _) = ExhaustiveSearch::new(&optimizer, &space)
            .generate(None)
            .unwrap();
        let opt = JoinOrderOptimizer::new(q);
        let cov = RobustnessChecker::new(&opt, &space, 0.1)
            .true_coverage(&sol)
            .unwrap();
        assert!((cov - 1.0).abs() < 1e-9, "cov={cov}");
    }

    #[test]
    fn single_plan_with_large_epsilon_covers_everything() {
        let (q, space) = coverage_setup();
        // At ε = 100 WRP accepts the whole space for its bottom-corner plan.
        let optimizer = JoinOrderOptimizer::new(q.clone());
        let (sol, _) = WeightedRobustPartitioning::new(&optimizer, &space, 100.0)
            .generate(None)
            .unwrap();
        assert_eq!(sol.leaves().count(), 1);
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 100.0);
        assert!((checker.true_coverage(&sol).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn routed_coverage_never_exceeds_true_coverage() {
        let (q, space) = coverage_setup();
        let opt = JoinOrderOptimizer::new(q.clone());
        let checker = RobustnessChecker::new(&opt, &space, 0.15);
        // Every solver's solution, complete or cut short by a call budget.
        let optimizer = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&optimizer, &space, 0.3);
        let erp = EarlyTerminatedRobustPartitioning::new(&optimizer, &space, ErpConfig::default());
        let es = ExhaustiveSearch::new(&optimizer, &space);
        let rs = RandomSearch::new(&optimizer, &space, 7);
        let generators: [&dyn LogicalPlanGenerator; 4] = [&wrp, &erp, &es, &rs];
        for generator in generators {
            for budget in [None, Some(6)] {
                let (sol, _) = generator.generate(budget).unwrap();
                let t = checker.true_coverage(&sol).unwrap();
                // The plan `plan_for` assigns a cell — the covering entry
                // with the largest robust region, else the nearest entry —
                // is robust there no more often than some plan of the
                // solution is.
                let routed = space
                    .iter_grid()
                    .filter(|cell| {
                        sol.plan_for(cell)
                            .is_some_and(|plan| checker.is_robust_at(plan, cell).unwrap())
                    })
                    .count() as f64
                    / space.total_cells() as f64;
                assert!(routed <= t + 1e-12, "{} {budget:?}", generator.name());
                assert!(t > 0.0);
            }
        }
    }

    #[test]
    fn distinct_optimal_plans_at_least_one() {
        let (q, space) = coverage_setup();
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.1);
        assert!(checker.distinct_optimal_plans().unwrap() >= 1);
    }

    #[test]
    fn optimal_cost_lookup() {
        let (q, space) = coverage_setup();
        let opt = JoinOrderOptimizer::new(q);
        let checker = RobustnessChecker::new(&opt, &space, 0.1);
        let centre = space.centre();
        let cost = checker.optimal_cost_at(&centre).unwrap();
        assert!(cost > 0.0);
        // A repeat reads the memo: the same bits and no second call.
        assert_eq!(checker.optimal_cost_at(&centre).unwrap(), cost);
        assert_eq!(checker.optimizer_calls(), 1);
    }
}
