//! Exhaustive search (ES) baseline for robust logical plan generation.
//!
//! ES makes one optimizer call per grid cell of the discretized parameter
//! space (the 8×8 example of Figure 6(b)) and records the optimal plan of
//! every cell. It finds every robust plan and achieves full coverage, but its
//! cost grows as `O(n^d)` with the dimensionality — exactly the blow-up that
//! ERP avoids (Figure 12).

use crate::solution::RobustLogicalSolution;
use crate::stats::SearchStats;
use crate::LogicalPlanGenerator;
use rld_common::Result;
use rld_paramspace::ParameterSpace;
use rld_query::Optimizer;
use std::time::Instant;

/// Exhaustive grid search over the parameter space.
pub struct ExhaustiveSearch<'a, O: Optimizer> {
    optimizer: &'a O,
    space: &'a ParameterSpace,
}

impl<'a, O: Optimizer> ExhaustiveSearch<'a, O> {
    /// Create an exhaustive searcher.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace) -> Self {
        Self { optimizer, space }
    }
}

impl<'a, O: Optimizer> LogicalPlanGenerator for ExhaustiveSearch<'a, O> {
    fn name(&self) -> &'static str {
        "ES"
    }

    fn generate(&self, budget: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)> {
        // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
        let start = Instant::now();
        let calls_before = self.optimizer.call_count();
        let mut solution = RobustLogicalSolution::new();
        let mut examined = 0usize;
        let mut truncated = false;
        for cell in self.space.iter_grid() {
            if budget.is_some_and(|calls| self.optimizer.call_count() - calls_before >= calls) {
                truncated = true;
                break;
            }
            let stats = self.space.snapshot_at(&cell);
            let plan = self.optimizer.optimize(&stats)?;
            solution.record_cell(plan, &cell);
            examined += 1;
        }
        let stats = SearchStats {
            optimizer_calls: self.optimizer.call_count() - calls_before,
            distinct_plans: solution.len(),
            regions_examined: examined,
            terminated_early: truncated,
            elapsed_micros: start.elapsed().as_micros() as u64,
            ..SearchStats::default()
        };
        Ok((solution.finish(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{Query, UncertaintyLevel};
    use rld_paramspace::ParameterSpace;
    use rld_query::JoinOrderOptimizer;

    fn setup(steps: usize) -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
        (q, space)
    }

    #[test]
    fn es_makes_one_call_per_cell() {
        let (q, space) = setup(7);
        let opt = JoinOrderOptimizer::new(q);
        let es = ExhaustiveSearch::new(&opt, &space);
        let (solution, stats) = es.generate(None).unwrap();
        assert_eq!(stats.optimizer_calls, space.total_cells());
        assert_eq!(stats.regions_examined, space.total_cells());
        assert!(!stats.terminated_early);
        assert!(!solution.is_empty());
        // Full claimed coverage: every cell belongs to some entry.
        assert!((solution.claimed_coverage(&space) - 1.0).abs() < 1e-9);
        assert_eq!(es.name(), "ES");
    }

    #[test]
    fn es_budget_limits_calls() {
        let (q, space) = setup(9);
        let opt = JoinOrderOptimizer::new(q);
        let es = ExhaustiveSearch::new(&opt, &space);
        let (solution, stats) = es.generate(Some(10)).unwrap();
        assert_eq!(stats.optimizer_calls, 10);
        assert!(stats.terminated_early);
        assert!(solution.claimed_coverage(&space) < 1.0);
    }

    #[test]
    fn es_plan_count_equals_distinct_optimal_plans() {
        let (q, space) = setup(6);
        let opt = JoinOrderOptimizer::new(q.clone());
        let es = ExhaustiveSearch::new(&opt, &space);
        let (solution, _) = es.generate(None).unwrap();
        let opt_ev = JoinOrderOptimizer::new(q);
        let checker = crate::RobustnessChecker::new(&opt_ev, &space, 0.0);
        assert_eq!(solution.len(), checker.distinct_optimal_plans().unwrap());
    }
}
