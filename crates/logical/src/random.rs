//! Random sampling (RS) baseline for robust logical plan generation.
//!
//! RS repeatedly optimizes at uniformly random grid cells and stops when ten
//! consecutive calls fail to discover a distinct robust plan (§6.2: "RS
//! stops making optimizer calls if it fails to find a distinct robust
//! logical plan after a given number of optimizer calls").
//! This corresponds to ERP with *equal* weights on all points — the ablation
//! the paper uses to show that the weight function matters.

use crate::solution::RobustLogicalSolution;
use crate::stats::SearchStats;
use crate::LogicalPlanGenerator;
use rand::RngExt;
use rld_common::rng::rng_from_seed;
use rld_common::Result;
use rld_paramspace::{GridPoint, ParameterSpace};
use rld_query::Optimizer;
use std::time::Instant;

/// RS stops after this many consecutive samples that yield no new plan.
const MAX_MISSES: usize = 10;

/// Uniform random sampling of parameter-space cells.
pub struct RandomSearch<'a, O: Optimizer> {
    optimizer: &'a O,
    space: &'a ParameterSpace,
    seed: u64,
}

impl<'a, O: Optimizer> RandomSearch<'a, O> {
    /// Create a random searcher.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, seed: u64) -> Self {
        Self {
            optimizer,
            space,
            seed,
        }
    }

    fn random_cell(&self, rng: &mut rld_common::rng::SeededRng) -> GridPoint {
        GridPoint::new(
            self.space
                .dimensions()
                .iter()
                .map(|d| rng.random_range(0..d.steps))
                .collect(),
        )
    }
}

impl<'a, O: Optimizer> LogicalPlanGenerator for RandomSearch<'a, O> {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn generate(&self, budget: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)> {
        // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
        let start = Instant::now();
        let calls_before = self.optimizer.call_count();
        let mut rng = rng_from_seed(self.seed);
        let mut solution = RobustLogicalSolution::new();
        let mut misses = 0usize;
        let mut examined = 0usize;
        let mut terminated_early = false;
        // Never exceed one call per cell on average times a small factor; the
        // miss counter is the primary stop condition.
        let hard_cap = budget.unwrap_or(self.space.total_cells() * 4);
        while misses < MAX_MISSES {
            if self.optimizer.call_count() - calls_before >= hard_cap {
                terminated_early = budget.is_some();
                break;
            }
            let cell = self.random_cell(&mut rng);
            let stats = self.space.snapshot_at(&cell);
            let plan = self.optimizer.optimize(&stats)?;
            examined += 1;
            let is_new = solution.record_cell(plan, &cell);
            if is_new {
                misses = 0;
            } else {
                misses += 1;
            }
        }
        let stats = SearchStats {
            optimizer_calls: self.optimizer.call_count() - calls_before,
            distinct_plans: solution.len(),
            regions_examined: examined,
            terminated_early,
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
    fn rs_terminates_and_finds_plans() {
        let (q, space) = setup(9);
        let opt = JoinOrderOptimizer::new(q);
        let rs = RandomSearch::new(&opt, &space, 42);
        let (solution, stats) = rs.generate(None).unwrap();
        assert!(stats.optimizer_calls > 0);
        assert!(!solution.is_empty());
        assert_eq!(stats.distinct_plans, solution.len());
        assert_eq!(rs.name(), "RS");
    }

    #[test]
    fn rs_is_deterministic_given_seed() {
        let (q, space) = setup(9);
        let opt_a = JoinOrderOptimizer::new(q.clone());
        let opt_b = JoinOrderOptimizer::new(q);
        let a = RandomSearch::new(&opt_a, &space, 7).generate(None).unwrap();
        let b = RandomSearch::new(&opt_b, &space, 7).generate(None).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.optimizer_calls, b.1.optimizer_calls);
    }

    #[test]
    fn rs_budget_is_respected() {
        let (q, space) = setup(9);
        let opt = JoinOrderOptimizer::new(q);
        let rs = RandomSearch::new(&opt, &space, 3);
        let (_, stats) = rs.generate(Some(5)).unwrap();
        // Five calls hold fewer than ten misses, so the budget stops RS.
        assert_eq!(stats.optimizer_calls, 5);
        assert!(stats.terminated_early);
    }
}
