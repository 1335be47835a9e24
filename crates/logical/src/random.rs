//! Random sampling (RS) baseline for robust logical plan generation.
//!
//! RS repeatedly optimizes at uniformly random grid cells and stops when a
//! configurable number of consecutive calls fails to discover a distinct
//! robust plan (§6.2: "RS stops making optimizer calls if it fails to find a
//! distinct robust logical plan after a given number of optimizer calls").
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

/// Uniform random sampling of parameter-space cells.
pub struct RandomSearch<'a, O: Optimizer> {
    optimizer: &'a O,
    space: &'a ParameterSpace,
    /// Stop after this many consecutive samples that yield no new plan.
    max_misses: usize,
    seed: u64,
}

impl<'a, O: Optimizer> RandomSearch<'a, O> {
    /// Default number of consecutive unproductive samples before stopping.
    pub const DEFAULT_MAX_MISSES: usize = 10;

    /// Create a random searcher with the default miss limit.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, seed: u64) -> Self {
        Self::with_max_misses(optimizer, space, seed, Self::DEFAULT_MAX_MISSES)
    }

    /// Create a random searcher with an explicit miss limit.
    pub fn with_max_misses(
        optimizer: &'a O,
        space: &'a ParameterSpace,
        seed: u64,
        max_misses: usize,
    ) -> Self {
        assert!(max_misses > 0, "max_misses must be positive");
        Self {
            optimizer,
            space,
            max_misses,
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

    fn run(&self, max_calls: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)> {
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
        let hard_cap = max_calls.unwrap_or(self.space.total_cells() * 4);
        while misses < self.max_misses {
            if self.optimizer.call_count() - calls_before >= hard_cap {
                terminated_early = max_calls.is_some();
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

impl<'a, O: Optimizer> LogicalPlanGenerator for RandomSearch<'a, O> {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn generate(&self) -> Result<(RobustLogicalSolution, SearchStats)> {
        self.run(None)
    }

    fn generate_with_budget(
        &self,
        max_calls: usize,
    ) -> Result<(RobustLogicalSolution, SearchStats)> {
        self.run(Some(max_calls))
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
        let (solution, stats) = rs.generate().unwrap();
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
        let a = RandomSearch::new(&opt_a, &space, 7).generate().unwrap();
        let b = RandomSearch::new(&opt_b, &space, 7).generate().unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.optimizer_calls, b.1.optimizer_calls);
    }

    #[test]
    fn rs_budget_is_respected() {
        let (q, space) = setup(9);
        let opt = JoinOrderOptimizer::new(q);
        let rs = RandomSearch::with_max_misses(&opt, &space, 3, 1000);
        let (_, stats) = rs.generate_with_budget(5).unwrap();
        assert!(stats.optimizer_calls <= 5);
    }

    #[test]
    fn larger_miss_limit_finds_at_least_as_many_plans() {
        let (q, space) = setup(9);
        let opt_small = JoinOrderOptimizer::new(q.clone());
        let opt_large = JoinOrderOptimizer::new(q);
        let small = RandomSearch::with_max_misses(&opt_small, &space, 11, 2)
            .generate()
            .unwrap();
        let large = RandomSearch::with_max_misses(&opt_large, &space, 11, 50)
            .generate()
            .unwrap();
        assert!(large.0.len() >= small.0.len());
        assert!(large.1.optimizer_calls >= small.1.optimizer_calls);
    }

    #[test]
    #[should_panic(expected = "max_misses must be positive")]
    fn zero_miss_limit_panics() {
        let (q, space) = setup(5);
        let opt = JoinOrderOptimizer::new(q);
        let _ = RandomSearch::with_max_misses(&opt, &space, 1, 0);
    }
}
