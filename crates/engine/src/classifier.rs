//! The online classifier (§3, "Robust load executor").
//!
//! RLD runs on top of a QueryMesh-style multi-route executor: each incoming
//! tuple batch is classified by the latest monitored statistics and routed
//! through the cheapest robust logical plan whose robust region contains
//! that point of the parameter space. The classification itself
//! costs a small fraction of the query-processing work (~2% in the paper's
//! measurements), which the simulator charges as overhead.
//!
//! The per-batch hot path is allocation-free: the covering entries come from
//! the solution's partition tree ([`RobustLogicalSolution::covering_entries`]
//! — a descent to the leaf holding the point plus its cell's recorders) into
//! a reused scratch buffer, and [`OnlineClassifier::classify`] hands back a
//! shared [`Arc<LogicalPlan>`] instead of deep-cloning the plan for every
//! batch. Classification is a pure function of the monitored statistics,
//! which change only once per monitor period, so a batch whose statistics
//! equal the previous batch's is answered from the previous answer.

use rld_common::StatsSnapshot;
use rld_logical::RobustLogicalSolution;
use rld_paramspace::ParameterSpace;
use rld_query::{CostModel, LogicalPlan};
use std::sync::Arc;

/// Per-batch logical plan selector used by the RLD runtime.
#[derive(Debug, Clone)]
// rld-allow(V1): returned by the public `RldStrategy::classifier` and `HybridStrategy::classifier`
pub struct OnlineClassifier {
    space: ParameterSpace,
    solution: RobustLogicalSolution,
    /// Per entry: the plan, shared so classification never deep-clones.
    plans: Vec<Arc<LogicalPlan>>,
    cost_model: CostModel,
    switches: usize,
    /// The entry the last classification chose, and the statistics it
    /// chose it for: the memo an equal snapshot is answered from.
    last_entry: Option<usize>,
    last_stats: StatsSnapshot,
    // Reused scratch buffers — the reason `classify` never allocates after
    // the first few batches.
    scratch_point: Vec<usize>,
    scratch_entries: Vec<usize>,
}

impl OnlineClassifier {
    /// Create a classifier over a robust logical solution. It picks, among
    /// the robust plans whose region contains the observed statistics
    /// (falling back to all plans when none covers them), the one `cost_model`
    /// estimates cheapest — what the QueryMesh executor's classifier
    /// effectively does with its per-statistics plan index.
    pub fn new(
        space: ParameterSpace,
        solution: RobustLogicalSolution,
        cost_model: CostModel,
    ) -> Self {
        let plans = solution.plans().cloned().map(Arc::new).collect();
        Self {
            space,
            solution,
            plans,
            cost_model,
            switches: 0,
            last_entry: None,
            last_stats: StatsSnapshot::new(),
            scratch_point: Vec::new(),
            scratch_entries: Vec::new(),
        }
    }

    /// The robust logical solution being routed over.
    pub fn solution(&self) -> &RobustLogicalSolution {
        &self.solution
    }

    /// What answers region containment — the solution itself, through its
    /// partition tree ([`RobustLogicalSolution::covers`]).
    pub fn index(&self) -> &RobustLogicalSolution {
        &self.solution
    }

    /// Number of times the selected plan changed between consecutive batches.
    pub fn plan_switches(&self) -> usize {
        self.switches
    }

    /// Whether the monitored statistics are still inside the modelled
    /// parameter space; when they are not, RLD's guarantees no longer hold
    /// (the paper notes migration would be needed for truly unexpected
    /// fluctuations).
    pub(crate) fn stats_in_space(&self, stats: &StatsSnapshot) -> bool {
        self.space.covers_snapshot(stats)
    }

    /// Whether the monitored statistics fall inside some plan's ε-robust
    /// region: they must lie within the modelled parameter space *and* their
    /// grid cell must be claimed by at least one plan of the solution. When
    /// this is false the classifier still routes (cheapest plan overall) but
    /// the robustness guarantee no longer applies — the signal the hybrid
    /// strategy uses to fall back to migration.
    pub(crate) fn robustly_covered(&mut self, stats: &StatsSnapshot) -> bool {
        if !self.stats_in_space(stats) {
            return false;
        }
        self.space
            .project_snapshot_into(stats, &mut self.scratch_point);
        self.solution.covers(&self.scratch_point)
    }

    /// The candidate entry whose plan is cheapest at `stats`; ties keep the
    /// earliest candidate, matching `Iterator::min_by`.
    fn cheapest(
        &self,
        stats: &StatsSnapshot,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for e in candidates {
            let cost = self
                .cost_model
                .plan_cost(&self.plans[e], stats)
                .unwrap_or(f64::INFINITY);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((e, cost));
            }
        }
        best.map(|(e, _)| e)
    }

    /// Select the logical plan for a batch given the monitored statistics.
    /// Returns a shared handle into the solution — no plan is cloned.
    /// Returns `None` only if the solution is empty. Statistics equal to the
    /// last call's get the last call's plan without a search (and, being
    /// the same route, count no switch).
    pub fn classify(&mut self, stats: &StatsSnapshot) -> Option<Arc<LogicalPlan>> {
        if let Some(entry) = self.last_entry {
            if *stats == self.last_stats {
                return Some(Arc::clone(&self.plans[entry]));
            }
        }
        if self.plans.is_empty() {
            return None;
        }
        self.space
            .project_snapshot_into(stats, &mut self.scratch_point);
        self.solution
            .covering_entries(&self.scratch_point, &mut self.scratch_entries);

        // Candidates: the covering entries; if none covers (statistics
        // drifted outside every region), every entry.
        let entry = if self.scratch_entries.is_empty() {
            self.cheapest(stats, 0..self.plans.len())?
        } else {
            self.cheapest(stats, self.scratch_entries.iter().copied())?
        };

        if self.last_entry != Some(entry) {
            if self.last_entry.is_some() {
                self.switches += 1;
            }
            self.last_entry = Some(entry);
        }
        self.last_stats.clone_from(stats);
        Some(Arc::clone(&self.plans[entry]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rld_common::{OperatorId, Query, StatKey, UncertaintyLevel};
    use rld_logical::{
        EarlyTerminatedRobustPartitioning, ErpConfig, ExhaustiveSearch, LogicalPlanGenerator,
        WeightedRobustPartitioning,
    };
    use rld_paramspace::GridPoint;
    use rld_query::JoinOrderOptimizer;

    fn fixture() -> (Query, ParameterSpace, RobustLogicalSolution) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 9).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (solution, _) = erp.generate().unwrap();
        (q, space, solution)
    }

    /// One solution of every shape the solvers make over a 3-dim Q1 space:
    /// WRP and ERP partitions, ES cells, and budgeted WRP/ERP partitions
    /// with open leaves.
    fn solutions() -> (Query, ParameterSpace, Vec<(String, RobustLogicalSolution)>) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(3, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 7).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.1);
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.1));
        let es = ExhaustiveSearch::new(&opt, &space);
        let generators: [&dyn LogicalPlanGenerator; 3] = [&wrp, &erp, &es];
        let mut out = Vec::new();
        for generator in generators {
            for budget in [None, Some(12)] {
                let (solution, _) = match budget {
                    Some(calls) => generator.generate_with_budget(calls),
                    None => generator.generate(),
                }
                .unwrap();
                out.push((format!("{} {budget:?}", generator.name()), solution));
            }
        }
        (q, space, out)
    }

    /// The entries whose regions contain `cell`, by scanning every region.
    fn covering_by_scan(solution: &RobustLogicalSolution, cell: &GridPoint) -> Vec<usize> {
        (0..solution.len())
            .filter(|&e| solution.entries()[e].covers(cell))
            .collect()
    }

    #[test]
    fn classify_returns_a_plan_from_the_solution() {
        let (q, space, solution) = fixture();
        let mut c = OnlineClassifier::new(space, solution.clone(), CostModel::new(q.clone()));
        let plan = c.classify(&q.default_stats()).unwrap();
        assert!(solution.plans().any(|p| *p == *plan));
        assert!(c.stats_in_space(&q.default_stats()));
    }

    #[test]
    fn cost_model_picks_the_cheapest_covering_plan_everywhere() {
        // With a cost model: the cheapest plan of the scanned covering set
        // (every plan when none covers), ties to the earliest entry.
        let (q, space, solutions) = solutions();
        let cm = CostModel::new(q.clone());
        for (name, solution) in solutions {
            let mut c = OnlineClassifier::new(space.clone(), solution.clone(), cm.clone());
            for cell in space.iter_grid() {
                let stats = space.snapshot_at(&cell);
                let mut candidates = covering_by_scan(&solution, &cell);
                if candidates.is_empty() {
                    candidates = (0..solution.len()).collect();
                }
                let cost = |e: usize| {
                    cm.plan_cost(&solution.entries()[e].plan, &stats)
                        .unwrap_or(f64::INFINITY)
                };
                let cheapest = candidates
                    .into_iter()
                    .min_by(|&a, &b| cost(a).total_cmp(&cost(b)))
                    .unwrap();
                let routed = c.classify(&stats).unwrap();
                assert_eq!(
                    *routed,
                    solution.entries()[cheapest].plan,
                    "{name}: divergence at {cell}"
                );
            }
        }
    }

    #[test]
    fn plan_switches_are_counted() {
        let (q, space, solution) = fixture();
        if solution.len() < 2 {
            // Nothing to switch between; the classifier must still be stable.
            let mut c = OnlineClassifier::new(space, solution, CostModel::new(q.clone()));
            c.classify(&q.default_stats());
            c.classify(&q.default_stats());
            assert_eq!(c.plan_switches(), 0);
            return;
        }
        let mut c = OnlineClassifier::new(space.clone(), solution, CostModel::new(q.clone()));
        // Very low selectivities vs very high selectivities should route to
        // different plans if the solution has more than one.
        let mut low = q.default_stats();
        let mut high = q.default_stats();
        for op in q.operator_ids().iter().take(2) {
            low.set(StatKey::Selectivity(*op), 0.05);
            high.set(StatKey::Selectivity(*op), 0.95);
        }
        let p_low = c.classify(&low).unwrap();
        let _ = c.classify(&high).unwrap();
        let p_low_again = c.classify(&low).unwrap();
        assert_eq!(p_low, p_low_again);
        // Same stats always give the same plan; switch counting is monotone.
        let switches = c.plan_switches();
        c.classify(&low);
        assert_eq!(c.plan_switches(), switches);
    }

    #[test]
    fn out_of_space_stats_detected() {
        let (q, space, solution) = fixture();
        let mut c = OnlineClassifier::new(space, solution, CostModel::new(q.clone()));
        let mut wild = q.default_stats();
        wild.set(StatKey::Selectivity(OperatorId::new(0)), 5.0);
        assert!(!c.stats_in_space(&wild));
        assert!(!c.robustly_covered(&wild));
    }

    #[test]
    fn empty_solution_returns_none() {
        let (q, space, _) = fixture();
        let mut c = OnlineClassifier::new(
            space,
            RobustLogicalSolution::new(),
            CostModel::new(q.clone()),
        );
        assert!(c.classify(&q.default_stats()).is_none());
    }

    #[test]
    fn classified_plans_are_shared_not_cloned() {
        let (q, space, solution) = fixture();
        let mut c = OnlineClassifier::new(space, solution, CostModel::new(q.clone()));
        let a = c.classify(&q.default_stats()).unwrap();
        let b = c.classify(&q.default_stats()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same route must reuse the same Arc");
    }

    #[test]
    fn robustly_covered_matches_entry_scan() {
        let (q, space, solutions) = solutions();
        for (name, solution) in solutions {
            let cm = CostModel::new(q.clone());
            let mut c = OnlineClassifier::new(space.clone(), solution.clone(), cm);
            for cell in space.iter_grid() {
                let stats = space.snapshot_at(&cell);
                let by_scan = space.covers_snapshot(&stats)
                    && !covering_by_scan(&solution, &space.project_snapshot(&stats)).is_empty();
                assert_eq!(c.robustly_covered(&stats), by_scan, "{name} at {cell}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A random walk over the grid's snapshots, each repeated 1–4 times,
        /// routes every repeat to the same shared plan (the same `Arc`), and
        /// routes and counts switches as the walk without its repeats does.
        /// Consecutive cells always differ, so the classifier of the walk
        /// without repeats never answers from its memo.
        #[test]
        fn repeated_statistics_are_answered_from_the_memo(
            walk in prop::collection::vec((0usize..1_000_000, 1usize..5), 1..40)
        ) {
            let (q, space, solution) = fixture();
            let cells: Vec<_> = space.iter_grid().collect();
            let cm = CostModel::new(q.clone());
            let mut memo = OnlineClassifier::new(space.clone(), solution.clone(), cm.clone());
            let mut fresh = OnlineClassifier::new(space.clone(), solution, cm);
            let mut cell = 0;
            for (step, repeats) in walk {
                cell = (cell + 1 + step % (cells.len() - 1)) % cells.len();
                let stats = space.snapshot_at(&cells[cell]);
                let expected = fresh.classify(&stats).unwrap();
                let first = memo.classify(&stats).unwrap();
                prop_assert_eq!(&*first, &*expected);
                for _ in 1..repeats {
                    let again = memo.classify(&stats.clone()).unwrap();
                    prop_assert!(Arc::ptr_eq(&again, &first));
                }
                prop_assert_eq!(memo.plan_switches(), fresh.plan_switches());
            }
        }
    }
}
