//! Weight-driven Robust Partitioning (WRP, Algorithm 2).
//!
//! WRP recursively partitions the parameter space: for each sub-space it asks
//! the black-box optimizer for the optimal plans at the corners, accepts the
//! sub-space when the bottom-corner plan is ε-robust across it (Definition 1
//! via the corner bound), and otherwise splits the sub-space at the highest-
//! weight interior point (the §4.2 weight function) and recurses. Unlike
//! ERP it has no early-termination rule, so it keeps refining until every
//! sub-space is robust — the behaviour whose cost explosion motivates ERP.
//!
//! ## Weighing a sub-space
//!
//! Choosing the split point is the search's inner loop: the slopes of the
//! two corner plans' costs are needed at each of up to 4,096 lattice points
//! ([`WeightMap::assign`]). Each corner plan is therefore compiled once per
//! sub-space into a [`PlanCostKernel`] — validated once, every statistic
//! resolved once to a constant or a dimension — and costed a lattice at a
//! time: [`PlanCostKernel::eval_grid`] fills one table per lattice (the
//! sub-space itself when every cell is weighted, otherwise one per non-flat
//! dimension, that dimension's indices replaced by their ±1 neighbours),
//! with the bits `eval` would give at every point. The kernels are built
//! only when a sub-space turns out not to be robust, so a search that never
//! partitions pays nothing for them.

use crate::robustness::RobustnessChecker;
use crate::solution::RobustLogicalSolution;
use crate::stats::SearchStats;
use crate::LogicalPlanGenerator;
use rld_common::Result;
use rld_paramspace::{DistanceMetric, ParameterSpace, Region, WeightMap};
use rld_query::{LogicalPlan, Optimizer, PlanCostKernel};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Instant;

/// Termination rule for the shared partitioning engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AgingTermination {
    /// Stop once this many consecutive optimizer probes yield no new plan.
    pub threshold: usize,
}

/// The weight-driven split of one sub-space.
struct Split {
    /// Sub-regions to enqueue.
    children: Vec<Region>,
    /// Lattice points the weight function was assigned to.
    weighted_points: usize,
    /// Plan-cost evaluations that took: the points of the cost tables.
    cost_evaluations: usize,
}

/// Split a non-robust region at its highest-weight interior point (§4.2).
fn split_region<O: Optimizer>(
    checker: &RobustnessChecker<'_, O>,
    metric: DistanceMetric,
    region: &Region,
    opt_lo: &LogicalPlan,
    opt_hi: &LogicalPlan,
) -> Result<Split> {
    let kernel_lo = checker.cost_kernel(opt_lo)?;
    let kernel_hi = checker.cost_kernel(opt_hi)?;
    let evaluations = Cell::new(0usize);
    let table = |kernel: &PlanCostKernel<'_>, grid: &[Vec<usize>]| {
        let table = kernel.eval_grid(grid)?;
        evaluations.set(evaluations.get() + table.len());
        Ok(table)
    };
    let weights = WeightMap::assign(
        region,
        |grid| table(&kernel_lo, grid),
        |grid| table(&kernel_hi, grid),
        metric,
    )?;
    let partition_point = weights
        .max_weight_interior_point(region)
        .unwrap_or_else(|| region.centre());
    let mut parts = region.split_at(&partition_point);
    if parts.len() == 1 && parts[0] == *region {
        // Degenerate partition point: fall back to bisection so
        // the search always makes progress.
        parts = region.bisect();
    }
    Ok(Split {
        children: parts.into_iter().filter(|p| p != region).collect(),
        weighted_points: weights.len(),
        cost_evaluations: evaluations.get(),
    })
}

/// Shared partitioning engine used by both WRP (no aging termination) and
/// ERP (aging termination per Theorem 1): a FIFO queue of partition nodes,
/// each probed at its corners and then either accepted as a leaf for its
/// bottom-corner plan (when that plan is ε-robust across it) or split. The
/// solution keeps the partition: nodes still queued when the search stops
/// stay open leaves.
pub(crate) fn partition_search<O: Optimizer>(
    checker: &RobustnessChecker<'_, O>,
    termination: Option<AgingTermination>,
    max_calls: Option<usize>,
    metric: DistanceMetric,
) -> Result<(RobustLogicalSolution, SearchStats)> {
    // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
    let start = Instant::now();
    let calls_before = checker.optimizer_calls();
    let mut solution = RobustLogicalSolution::partition(Region::full(checker.space()));
    let mut queue = VecDeque::from([0]);

    let mut aging_counter = 0usize;
    let mut stats = SearchStats::default();

    while let Some(node) = queue.pop_front() {
        let over_budget =
            max_calls.is_some_and(|budget| checker.optimizer_calls() - calls_before >= budget);
        let aged_out = termination.is_some_and(|term| aging_counter > term.threshold);
        if over_budget || aged_out {
            stats.terminated_early = true;
            break;
        }
        stats.regions_examined += 1;
        let region = solution.region(node).clone();
        let opt_lo = checker.optimal_plan_at(&region.pnt_lo())?;
        let opt_hi = checker.optimal_plan_at(&region.pnt_hi())?;

        let mut discovered = false;
        if checker.is_robust_in_region(&opt_lo, &region)? {
            let distinct_hi = opt_hi != opt_lo;
            discovered |= solution.accept(node, opt_lo);
            if distinct_hi {
                // The top-corner optimum is within ε of opt_lo here, but it is
                // still a distinct plan worth remembering for its own cell.
                discovered |= solution.record_cell(opt_hi, &region.pnt_hi());
            }
        } else {
            if !region.is_single_cell() {
                let split = split_region(checker, metric, &region, &opt_lo, &opt_hi)?;
                stats.partitions += 1;
                stats.weighted_points += split.weighted_points;
                stats.cost_evaluations += split.cost_evaluations;
                queue.extend(solution.split(node, split.children));
            }
            // Record what we learned at the corners even when the sub-space
            // itself is not yet robust.
            discovered |= solution.record_cell(opt_lo, &region.pnt_lo());
            discovered |= solution.record_cell(opt_hi, &region.pnt_hi());
        }

        if discovered {
            aging_counter = 0;
        } else {
            aging_counter += 1;
        }
    }

    stats.optimizer_calls = checker.optimizer_calls() - calls_before;
    stats.distinct_plans = solution.len();
    stats.elapsed_micros = start.elapsed().as_micros() as u64;
    Ok((solution.finish(), stats))
}

/// Weight-driven Robust Partitioning (Algorithm 2): partition until every
/// sub-space has a robust plan, with no early termination.
pub struct WeightedRobustPartitioning<'a, O: Optimizer> {
    checker: RobustnessChecker<'a, O>,
    metric: DistanceMetric,
}

impl<'a, O: Optimizer> WeightedRobustPartitioning<'a, O> {
    /// Create a WRP generator for the given optimizer, space and ε.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, epsilon: f64) -> Self {
        Self {
            checker: RobustnessChecker::new(optimizer, space, epsilon),
            metric: DistanceMetric::default(),
        }
    }

    /// Use a specific distance metric for the weight function.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }
}

impl<'a, O: Optimizer> LogicalPlanGenerator for WeightedRobustPartitioning<'a, O> {
    fn name(&self) -> &'static str {
        "WRP"
    }

    fn generate(&self, budget: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)> {
        partition_search(&self.checker, None, budget, self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSearch;
    use rld_common::{Query, RldError, StatKey, StreamId, UncertaintyLevel};
    use rld_query::JoinOrderOptimizer;

    fn setup(steps: usize, u: u32) -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(u))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
        (q, space)
    }

    #[test]
    fn wrp_terminates_and_covers_most_of_the_space() {
        let (q, space) = setup(9, 3);
        let opt = JoinOrderOptimizer::new(q.clone());
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.2);
        let (solution, stats) = wrp.generate(None).unwrap();
        assert!(!solution.is_empty());
        assert!(stats.optimizer_calls > 0);
        let opt_ev = JoinOrderOptimizer::new(q);
        let cov = RobustnessChecker::new(&opt_ev, &space, 0.2)
            .true_coverage(&solution)
            .unwrap();
        assert!(cov > 0.8, "true coverage too low: {cov}");
        assert_eq!(wrp.name(), "WRP");
    }

    #[test]
    fn wrp_uses_fewer_calls_than_exhaustive() {
        let (q, space) = setup(9, 3);
        let opt_wrp = JoinOrderOptimizer::new(q.clone());
        let opt_es = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&opt_wrp, &space, 0.2);
        let es = ExhaustiveSearch::new(&opt_es, &space);
        let (_, wrp_stats) = wrp.generate(None).unwrap();
        let (_, es_stats) = es.generate(None).unwrap();
        assert!(
            wrp_stats.optimizer_calls < es_stats.optimizer_calls,
            "WRP calls {} >= ES calls {}",
            wrp_stats.optimizer_calls,
            es_stats.optimizer_calls
        );
    }

    #[test]
    fn looser_epsilon_needs_fewer_calls() {
        let (q, space) = setup(9, 3);
        let opt_tight = JoinOrderOptimizer::new(q.clone());
        let opt_loose = JoinOrderOptimizer::new(q);
        let tight = WeightedRobustPartitioning::new(&opt_tight, &space, 0.05);
        let loose = WeightedRobustPartitioning::new(&opt_loose, &space, 0.5);
        let (_, tight_stats) = tight.generate(None).unwrap();
        let (_, loose_stats) = loose.generate(None).unwrap();
        assert!(loose_stats.optimizer_calls <= tight_stats.optimizer_calls);
    }

    #[test]
    fn budget_caps_calls() {
        let (q, space) = setup(9, 3);
        let opt = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.05);
        let (_, stats) = wrp.generate(Some(4)).unwrap();
        assert!(stats.optimizer_calls <= 5);
    }

    #[test]
    fn split_region_fails_on_a_non_finite_corner_cost() {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        // `contains_research_name` probes stream 2: at this rate its
        // per-tuple cost, and so every plan's cost, is infinite.
        let mut baseline = q.default_stats();
        baseline.set(StatKey::InputRate(StreamId::new(2)), f64::MAX);
        let space = ParameterSpace::from_estimates(&est, baseline, 65).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let checker = RobustnessChecker::new(&opt, &space, 0.1);
        let plan: LogicalPlan = q.operator_ids().into_iter().collect();
        // Every cell weighted, and (65² > 4,096 cells) a stride-2 lattice.
        for region in [Region::new(vec![0, 0], vec![8, 8]), Region::full(&space)] {
            let split = split_region(&checker, DistanceMetric::default(), &region, &plan, &plan);
            assert!(matches!(split, Err(RldError::Runtime(_))), "{region}");
        }
    }

    #[test]
    fn q2_solution_is_the_one_pinned_before_the_cost_kernel() {
        // Q2, 4 uncertain selectivities at U = 4, 9 steps, ε = 0.1. The
        // fingerprint and the call / plan / region counts were computed at
        // the commit that still costed every weighted point through
        // `plan_cost_at`; the weight assignment must keep choosing the same
        // partition points bit for bit.
        let q = Query::q2_ten_way_join();
        let est = q
            .selectivity_estimates(4, UncertaintyLevel::new(4))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 9).unwrap();
        let opt = JoinOrderOptimizer::new(q);
        let (solution, stats) = WeightedRobustPartitioning::new(&opt, &space, 0.1)
            .generate(None)
            .unwrap();
        assert_eq!(solution.fingerprint(), 0x3a4a_4a10_8c5c_8700);
        assert_eq!(stats.optimizer_calls, 270);
        assert_eq!(stats.distinct_plans, 76);
        assert_eq!(stats.regions_examined, 165);
        // The root's 9⁴ cells are weighted on the stride-2 lattice
        // {0, 2, 4, 6, 8}⁴ (625 points), whose ±1 neighbours along an axis
        // are {0, 1, 3, 5, 7, 8}: one 6×5³ = 750-point table per dimension
        // and plan, 2·4·750 = 6,000 evaluations. Every other weighted region
        // is weighted cell by cell, each cell once per plan.
        assert_eq!(stats.weighted_points, 11_794);
        assert_eq!(stats.cost_evaluations, 2 * 4 * 750 + 2 * (11_794 - 625));
    }
}
