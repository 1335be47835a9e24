//! The black-box query optimizer.
//!
//! RLD's robust plan search (§3) deliberately treats the DSPS's standard
//! optimizer as a black box: `optimize(statistics) → cheapest logical plan`.
//! Each invocation is an "optimizer call", the cost unit reported on the
//! x-axis of Figures 10 and 12 and traded off against coverage in Figure 11.
//!
//! [`JoinOrderOptimizer`] provides three strategies:
//!
//! * [`OptStrategy::Exhaustive`] — enumerate all `n!` orderings (only viable
//!   for small queries; used as ground truth in tests).
//! * [`OptStrategy::Rank`] — the classical rank ordering
//!   `(selectivity − 1) / per-tuple-cost`, which is provably optimal for the
//!   sum-of-prefix-products cost model used here.
//! * [`OptStrategy::Greedy`] — repeatedly append the operator with the lowest
//!   immediate cost increase; a robustness fallback for cost models where the
//!   rank result does not apply.

use crate::cost::{CostModel, PlanCostKernel};
use crate::plan::LogicalPlan;
use rld_common::{OperatorId, Query, Result, RldError, StatsSnapshot};
use rld_paramspace::ParameterSpace;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Plan-search strategy of the black-box optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// rld-allow(V1): returned by the public `JoinOrderOptimizer::strategy`
pub enum OptStrategy {
    /// Enumerate every permutation of the operators (n ≤ ~8).
    Exhaustive,
    /// Sort operators by rank `(σ − 1) / c`; optimal for the SPJ pipeline model.
    #[default]
    Rank,
    /// Greedy construction by smallest immediate cost increase.
    Greedy,
}

/// A query optimizer that can be called repeatedly at different statistics
/// snapshots and counts its invocations.
pub trait Optimizer {
    /// Return the cheapest logical plan at the given statistics.
    fn optimize(&self, stats: &StatsSnapshot) -> Result<LogicalPlan>;

    /// Cost of an arbitrary plan at the given statistics (for robustness checks).
    fn plan_cost(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<f64>;

    /// [`Optimizer::plan_cost`] of one plan compiled over a parameter space,
    /// for callers that cost the same plan at thousands of the space's
    /// points (the §4.2 weight assignment). Fails on an invalid plan.
    fn cost_kernel<'a>(
        &'a self,
        plan: &LogicalPlan,
        space: &ParameterSpace,
    ) -> Result<PlanCostKernel<'a>>;

    /// The query being optimized.
    fn query(&self) -> &Query;

    /// Number of `optimize` calls made so far.
    fn call_count(&self) -> usize;

    /// Reset the call counter to zero.
    fn reset_calls(&self);
}

/// Cost-based join-order optimizer over the [`CostModel`] of `rld-query`.
#[derive(Debug)]
pub struct JoinOrderOptimizer {
    cost_model: CostModel,
    strategy: OptStrategy,
    calls: AtomicUsize,
}

impl JoinOrderOptimizer {
    /// Threshold (number of operators) above which [`OptStrategy::Exhaustive`]
    /// automatically falls back to [`OptStrategy::Rank`].
    pub(crate) const EXHAUSTIVE_LIMIT: usize = 8;

    /// Create an optimizer for a query with the default ([`OptStrategy::Rank`]) strategy.
    pub fn new(query: Query) -> Self {
        Self::with_strategy(query, OptStrategy::default())
    }

    /// Create an optimizer with an explicit strategy.
    pub(crate) fn with_strategy(query: Query, strategy: OptStrategy) -> Self {
        Self {
            cost_model: CostModel::new(query),
            strategy,
            calls: AtomicUsize::new(0),
        }
    }

    /// Borrow the underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The configured strategy.
    pub fn strategy(&self) -> OptStrategy {
        self.strategy
    }

    fn optimize_exhaustive(&self, stats: &StatsSnapshot) -> Result<LogicalPlan> {
        let ops = self.cost_model.query().operator_ids();
        let mut best: Option<(f64, LogicalPlan)> = None;
        permute(&ops, &mut |perm| {
            let plan = LogicalPlan::new(perm.to_vec());
            if let Ok(cost) = self.cost_model.plan_cost(&plan, stats) {
                match &best {
                    Some((best_cost, _)) if *best_cost <= cost => {}
                    _ => best = Some((cost, plan)),
                }
            }
        });
        best.map(|(_, p)| p)
            .ok_or_else(|| RldError::PlanGeneration("no feasible ordering found".into()))
    }

    fn optimize_rank(&self, stats: &StatsSnapshot) -> Result<LogicalPlan> {
        let q = self.cost_model.query();
        let mut scored: Vec<(f64, OperatorId)> = q
            .operator_ids()
            .into_iter()
            .map(|op| {
                let sel = self.cost_model.selectivity(op, stats);
                let cost = self.cost_model.per_tuple_cost(op, stats)?.max(1e-12);
                Ok(((sel - 1.0) / cost, op))
            })
            .collect::<Result<Vec<_>>>()?;
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        Ok(LogicalPlan::new(
            scored.into_iter().map(|(_, op)| op).collect(),
        ))
    }

    fn optimize_greedy(&self, stats: &StatsSnapshot) -> Result<LogicalPlan> {
        let q = self.cost_model.query();
        let mut remaining: Vec<OperatorId> = q.operator_ids();
        let mut ordering = Vec::with_capacity(remaining.len());
        let driving_rate = self.cost_model.input_rate(q.driving_stream, stats);
        let mut rate = driving_rate;
        while !remaining.is_empty() {
            let mut best_idx = 0;
            let mut best_score = f64::INFINITY;
            for (i, op) in remaining.iter().enumerate() {
                let c = self.cost_model.per_tuple_cost(*op, stats)?;
                let sel = self.cost_model.selectivity(*op, stats);
                // Immediate cost plus a one-step lookahead on the surviving rate.
                let score = rate * c + rate * sel;
                if score < best_score {
                    best_score = score;
                    best_idx = i;
                }
            }
            let op = remaining.remove(best_idx);
            rate *= self.cost_model.selectivity(op, stats);
            ordering.push(op);
        }
        Ok(LogicalPlan::new(ordering))
    }
}

impl Optimizer for JoinOrderOptimizer {
    fn optimize(&self, stats: &StatsSnapshot) -> Result<LogicalPlan> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let n = self.cost_model.query().num_operators();
        match self.strategy {
            OptStrategy::Exhaustive if n <= Self::EXHAUSTIVE_LIMIT => {
                self.optimize_exhaustive(stats)
            }
            OptStrategy::Exhaustive | OptStrategy::Rank => self.optimize_rank(stats),
            OptStrategy::Greedy => self.optimize_greedy(stats),
        }
    }

    fn plan_cost(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<f64> {
        self.cost_model.plan_cost(plan, stats)
    }

    fn cost_kernel<'a>(
        &'a self,
        plan: &LogicalPlan,
        space: &ParameterSpace,
    ) -> Result<PlanCostKernel<'a>> {
        self.cost_model.kernel(plan, space)
    }

    fn query(&self) -> &Query {
        self.cost_model.query()
    }

    fn call_count(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    fn reset_calls(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }
}

/// Heap's algorithm over a scratch vector, calling `visit` for every permutation.
fn permute(items: &[OperatorId], visit: &mut impl FnMut(&[OperatorId])) {
    fn heap(k: usize, arr: &mut Vec<OperatorId>, visit: &mut impl FnMut(&[OperatorId])) {
        if k <= 1 {
            visit(arr);
            return;
        }
        for i in 0..k {
            heap(k - 1, arr, visit);
            if k % 2 == 0 {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr = items.to_vec();
    let n = arr.len();
    if n == 0 {
        return;
    }
    heap(n, &mut arr, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{Query, StatKey};

    #[test]
    fn rank_matches_exhaustive_on_q1() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        let rank = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Rank);
        let exhaustive = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Exhaustive);
        let p_rank = rank.optimize(&stats).unwrap();
        let p_ex = exhaustive.optimize(&stats).unwrap();
        let c_rank = rank.plan_cost(&p_rank, &stats).unwrap();
        let c_ex = exhaustive.plan_cost(&p_ex, &stats).unwrap();
        assert!(
            (c_rank - c_ex).abs() < 1e-6,
            "rank cost {c_rank} != exhaustive cost {c_ex}"
        );
    }

    #[test]
    fn rank_matches_exhaustive_on_random_stat_points() {
        let q = Query::n_way_join(5, 77);
        let rank = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Rank);
        let exhaustive = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Exhaustive);
        // Perturb selectivities over a grid of scenarios.
        for scale0 in [0.5, 1.0, 1.5] {
            for scale1 in [0.5, 1.0, 1.5] {
                let mut stats = q.default_stats();
                for (i, op) in q.operators.iter().enumerate() {
                    let scale = if i % 2 == 0 { scale0 } else { scale1 };
                    stats.set(
                        StatKey::Selectivity(op.id),
                        (op.selectivity_estimate * scale).min(1.5),
                    );
                }
                let c_rank = rank
                    .plan_cost(&rank.optimize(&stats).unwrap(), &stats)
                    .unwrap();
                let c_ex = exhaustive
                    .plan_cost(&exhaustive.optimize(&stats).unwrap(), &stats)
                    .unwrap();
                assert!((c_rank - c_ex).abs() / c_ex < 1e-9);
            }
        }
    }

    #[test]
    fn optimal_plan_changes_with_statistics() {
        // The essence of the paper's Example 1: when selectivities flip, the
        // optimal ordering flips too.
        let q = Query::builder("flip")
            .stream("D", rld_common::Schema::default(), 100.0)
            .filter("a", 2.0, 0.9)
            .filter("b", 2.0, 0.1)
            .build()
            .unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let bullish = q.default_stats();
        let p1 = opt.optimize(&bullish).unwrap();
        // b (selective) should run first.
        assert_eq!(p1.ordering()[0], OperatorId::new(1));

        let mut bearish = q.default_stats();
        bearish.set(StatKey::Selectivity(OperatorId::new(0)), 0.05);
        bearish.set(StatKey::Selectivity(OperatorId::new(1)), 0.95);
        let p2 = opt.optimize(&bearish).unwrap();
        assert_eq!(p2.ordering()[0], OperatorId::new(0));
        assert_ne!(p1, p2);
    }

    #[test]
    fn call_counter_tracks_invocations() {
        let q = Query::q1_stock_monitoring();
        let opt = JoinOrderOptimizer::new(q.clone());
        assert_eq!(opt.call_count(), 0);
        let stats = q.default_stats();
        for _ in 0..5 {
            opt.optimize(&stats).unwrap();
        }
        assert_eq!(opt.call_count(), 5);
        opt.reset_calls();
        assert_eq!(opt.call_count(), 0);
    }

    #[test]
    fn greedy_produces_valid_plans() {
        let q = Query::q2_ten_way_join();
        let stats = q.default_stats();
        let opt = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Greedy);
        let p = opt.optimize(&stats).unwrap();
        assert!(p.validate_for(&q).is_ok());
        // Greedy is a heuristic: it should stay within a small constant
        // factor of the rank-optimal plan.
        let rank = JoinOrderOptimizer::new(q.clone());
        let c_opt = rank
            .plan_cost(&rank.optimize(&stats).unwrap(), &stats)
            .unwrap();
        let c_greedy = opt.plan_cost(&p, &stats).unwrap();
        assert!(
            c_greedy <= c_opt * 3.0,
            "greedy cost {c_greedy} vs optimal {c_opt}"
        );
    }

    #[test]
    fn exhaustive_falls_back_for_large_queries() {
        let q = Query::q2_ten_way_join(); // 10 operators > EXHAUSTIVE_LIMIT
        let stats = q.default_stats();
        let opt = JoinOrderOptimizer::with_strategy(q.clone(), OptStrategy::Exhaustive);
        // Must terminate quickly and produce a valid plan.
        let p = opt.optimize(&stats).unwrap();
        assert!(p.validate_for(&q).is_ok());
    }

    #[test]
    fn rank_plan_is_deterministic() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        let opt = JoinOrderOptimizer::new(q);
        let a = opt.optimize(&stats).unwrap();
        let b = opt.optimize(&stats).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn permute_enumerates_factorial_many() {
        let items: Vec<OperatorId> = (0..4).map(OperatorId::new).collect();
        let mut seen = std::collections::HashSet::new();
        permute(&items, &mut |perm| {
            seen.insert(perm.to_vec());
        });
        assert_eq!(seen.len(), 24);
        // Empty case.
        let mut count = 0;
        permute(&[], &mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
