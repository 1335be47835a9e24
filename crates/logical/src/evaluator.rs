//! True parameter-space coverage evaluation.
//!
//! The paper's Figures 11 and 14 report how much of the parameter space a
//! solution actually covers. The generators themselves only *claim* regions
//! based on corner checks; the evaluator measures ground truth: for every
//! grid cell it computes the optimal plan cost (using its own rank optimizer,
//! whose calls are *not* charged to the algorithm under evaluation) and then
//! checks whether at least one plan of the solution is ε-robust there.

use crate::solution::RobustLogicalSolution;
use rld_common::{Query, Result};
use rld_paramspace::{GridPoint, ParameterSpace};
use rld_query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};
use std::collections::HashMap;

/// Ground-truth coverage evaluator for robust logical solutions.
pub struct CoverageEvaluator {
    space: ParameterSpace,
    cost_model: CostModel,
    epsilon: f64,
    optimal_costs: HashMap<GridPoint, f64>,
}

impl CoverageEvaluator {
    /// Build an evaluator: computes the optimal plan cost at every grid cell
    /// of the space up front (cheap with the rank optimizer).
    pub fn new(query: Query, space: ParameterSpace, epsilon: f64) -> Result<Self> {
        let optimizer = JoinOrderOptimizer::new(query.clone());
        let mut optimal_costs = HashMap::with_capacity(space.total_cells());
        for cell in space.iter_grid() {
            let stats = space.snapshot_at(&cell);
            let plan = optimizer.optimize(&stats)?;
            let cost = optimizer.plan_cost(&plan, &stats)?;
            optimal_costs.insert(cell, cost);
        }
        Ok(Self {
            space,
            cost_model: CostModel::new(query),
            epsilon,
            optimal_costs,
        })
    }

    /// The robustness threshold used.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The space being evaluated.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Optimal plan cost at a grid cell (precomputed).
    pub fn optimal_cost_at(&self, cell: &GridPoint) -> Option<f64> {
        self.optimal_costs.get(cell).copied()
    }

    /// Whether a specific plan is ε-robust at a cell (Definition 1).
    pub fn plan_robust_at(&self, plan: &LogicalPlan, cell: &GridPoint) -> Result<bool> {
        let stats = self.space.snapshot_at(cell);
        let cost = self.cost_model.plan_cost(plan, &stats)?;
        let optimal = self
            .optimal_costs
            .get(cell)
            .copied()
            .unwrap_or(f64::INFINITY);
        Ok(cost <= (1.0 + self.epsilon) * optimal + 1e-12)
    }

    /// Fraction of grid cells where *some* plan of the solution is ε-robust —
    /// the "parameter space coverage" metric of Figures 11 and 14.
    pub fn true_coverage(&self, solution: &RobustLogicalSolution) -> Result<f64> {
        if solution.is_empty() {
            return Ok(0.0);
        }
        let mut covered = 0usize;
        let total = self.space.total_cells();
        for cell in self.space.iter_grid() {
            for plan in solution.plans() {
                if self.plan_robust_at(plan, &cell)? {
                    covered += 1;
                    break;
                }
            }
        }
        Ok(covered as f64 / total as f64)
    }

    /// Number of *distinct optimal* plans over the whole grid — the ground
    /// truth against which the generators' plan counts can be compared.
    pub fn distinct_optimal_plans(&self, query: &Query) -> Result<usize> {
        let optimizer = JoinOrderOptimizer::new(query.clone());
        let mut set = std::collections::HashSet::new();
        for cell in self.space.iter_grid() {
            let stats = self.space.snapshot_at(&cell);
            set.insert(optimizer.optimize(&stats)?);
        }
        Ok(set.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::RobustLogicalSolution;
    use crate::{
        EarlyTerminatedRobustPartitioning, ErpConfig, ExhaustiveSearch, LogicalPlanGenerator,
        RandomSearch, WeightedRobustPartitioning,
    };
    use rld_common::UncertaintyLevel;

    fn setup() -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 7).unwrap();
        (q, space)
    }

    #[test]
    fn empty_solution_has_zero_coverage() {
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q, space, 0.2).unwrap();
        assert_eq!(
            ev.true_coverage(&RobustLogicalSolution::new()).unwrap(),
            0.0
        );
    }

    #[test]
    fn optimal_plan_at_every_cell_gives_full_coverage() {
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q.clone(), space.clone(), 0.1).unwrap();
        // Exhaustive search holds the optimal plan of every cell.
        let optimizer = JoinOrderOptimizer::new(q);
        let (sol, _) = ExhaustiveSearch::new(&optimizer, &space)
            .generate()
            .unwrap();
        let cov = ev.true_coverage(&sol).unwrap();
        assert!((cov - 1.0).abs() < 1e-9, "cov={cov}");
    }

    #[test]
    fn single_plan_with_large_epsilon_covers_everything() {
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q.clone(), space.clone(), 100.0).unwrap();
        // At ε = 100 WRP accepts the whole space for its bottom-corner plan.
        let optimizer = JoinOrderOptimizer::new(q);
        let (sol, _) = WeightedRobustPartitioning::new(&optimizer, &space, 100.0)
            .generate()
            .unwrap();
        assert_eq!(sol.leaves().count(), 1);
        assert!((ev.true_coverage(&sol).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn routed_coverage_never_exceeds_true_coverage() {
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q.clone(), space.clone(), 0.15).unwrap();
        // Every solver's solution, complete or cut short by a call budget.
        let optimizer = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&optimizer, &space, 0.3);
        let erp = EarlyTerminatedRobustPartitioning::new(&optimizer, &space, ErpConfig::default());
        let es = ExhaustiveSearch::new(&optimizer, &space);
        let rs = RandomSearch::new(&optimizer, &space, 7);
        let generators: [&dyn LogicalPlanGenerator; 4] = [&wrp, &erp, &es, &rs];
        for generator in generators {
            for budget in [None, Some(6)] {
                let (sol, _) = match budget {
                    Some(calls) => generator.generate_with_budget(calls),
                    None => generator.generate(),
                }
                .unwrap();
                let t = ev.true_coverage(&sol).unwrap();
                // The plan the classifier routes to at a cell is robust there
                // no more often than some plan of the solution is.
                let routed = space
                    .iter_grid()
                    .filter(|cell| {
                        sol.plan_for(cell)
                            .is_some_and(|plan| ev.plan_robust_at(plan, cell).unwrap())
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
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q.clone(), space, 0.1).unwrap();
        let n = ev.distinct_optimal_plans(&q).unwrap();
        assert!(n >= 1);
    }

    #[test]
    fn optimal_cost_lookup() {
        let (q, space) = setup();
        let ev = CoverageEvaluator::new(q, space.clone(), 0.1).unwrap();
        assert!(ev.optimal_cost_at(&space.centre()).unwrap() > 0.0);
        assert!(ev
            .optimal_cost_at(&GridPoint::new(vec![999, 999]))
            .is_none());
    }
}
