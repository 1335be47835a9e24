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
//! The checker memoizes optimizer results and plan costs per grid point so
//! that corners shared between neighbouring sub-spaces are optimized only
//! once; the number of *distinct* optimizer invocations is what the
//! partitioning algorithms report (the quantity the paper minimizes).
//!
//! Region-level verification no longer loops over cells:
//! [`RobustnessChecker::is_robust_in_region`] uses the two-corner monotonicity
//! bound, and the exact [`RobustnessChecker::is_robust_everywhere`] combines
//! monotone corner bounds with recursive bisection, descending to individual
//! cells only where the bounds are inconclusive.

use rld_common::{Result, StatsSnapshot};
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

#[derive(Clone)]
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

    /// The statistics snapshot at a grid point.
    pub fn snapshot_at(&self, point: &GridPoint) -> StatsSnapshot {
        self.space.snapshot_at(point)
    }

    /// The optimal plan at a grid point, memoized.
    pub(crate) fn optimal_plan_at(&self, point: &GridPoint) -> Result<LogicalPlan> {
        Ok(self.cached_optimum(point)?.plan)
    }

    /// The optimal plan's cost at a grid point, memoized.
    pub(crate) fn optimal_cost_at(&self, point: &GridPoint) -> Result<f64> {
        Ok(self.cached_optimum(point)?.cost)
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
        Ok(cost <= (1.0 + self.epsilon) * optimal + 1e-12)
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
        if cost_hi <= (1.0 + self.epsilon) * opt_lo + 1e-12 {
            return Ok(true);
        }
        for half in region.bisect() {
            if !self.is_robust_everywhere(plan, &half)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn cached_optimum(&self, point: &GridPoint) -> Result<CachedOptimum> {
        if let Some(hit) = self.cache.borrow().get(point) {
            return Ok(hit.clone());
        }
        let stats = self.space.snapshot_at(point);
        let plan = self.optimizer.optimize(&stats)?;
        let cost = self.optimizer.plan_cost(&plan, &stats)?;
        let entry = CachedOptimum { plan, cost };
        self.cache.borrow_mut().insert(point.clone(), entry.clone());
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
