//! The support model: what it means for a physical plan to support a robust
//! logical solution, and how physical plans are scored.
//!
//! For every robust logical plan the model precomputes
//!
//! * its **worst-case per-operator loads**: because the cost model is monotone,
//!   the load of each operator under plan `lp` anywhere inside `lp`'s robust
//!   region is bounded by its load at the region's top corner `pntHi`
//!   (this is the `cost(lp_i)max` bookkeeping of Figure 4), and
//! * its **occurrence weight** (§5.2): the probability that runtime statistics
//!   fall inside its robust region under the occurrence model.
//!
//! A physical plan *supports* a logical plan when every node's total
//! worst-case load for that plan stays within the node's capacity
//! (Definition 3 condition 1). The *score* of a physical plan is the sum of
//! the weights of the logical plans it supports — the objective maximized by
//! GreedyPhy and OptPrune.

use crate::cluster::Cluster;
use crate::plan::PhysicalPlan;
use rld_common::{NodeId, OperatorId, Query, Result};
use rld_logical::RobustLogicalSolution;
use rld_paramspace::{OccurrenceModel, ParameterSpace};
use rld_query::{CostModel, LogicalPlan};

/// Worst-case load profile and weight of one robust logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLoadProfile {
    /// The logical plan.
    pub plan: LogicalPlan,
    /// Occurrence weight of the plan's robust region (§5.2).
    pub weight: f64,
    /// Worst-case per-second load of each operator (indexed by operator id)
    /// when this plan executes anywhere in its robust region.
    pub loads: Vec<f64>,
}

impl PlanLoadProfile {
    /// Total worst-case load of a set of operators under this plan.
    pub(crate) fn load_of(&self, ops: &[OperatorId]) -> f64 {
        ops.iter().map(|op| self.loads[op.index()]).sum()
    }
}

/// Statistics reported by the physical plan generators (Figures 13–14).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhysicalSearchStats {
    /// Wall-clock time of the search in microseconds (Figure 13's compile time).
    pub elapsed_micros: u64,
    /// Number of search-tree vertices / candidate assignments examined.
    pub nodes_expanded: usize,
    /// Score (total supported weight) of the returned physical plan.
    pub score: f64,
    /// Number of logical plans supported by the returned physical plan.
    pub supported_plans: usize,
    /// Number of logical plans from the solution that had to be dropped.
    pub dropped_plans: usize,
    /// Number of search-tree branches cut by a pruning rule (0 for solvers
    /// without a branch-and-bound search).
    pub nodes_pruned: usize,
    /// Number of times the incumbent (best-so-far) solution was replaced.
    pub incumbent_updates: usize,
}

impl PhysicalSearchStats {
    /// Elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_micros as f64 / 1000.0
    }
}

/// Precomputed support/scoring model binding a query, a parameter space and a
/// robust logical solution.
#[derive(Debug, Clone)]
pub struct SupportModel {
    query: Query,
    profiles: Vec<PlanLoadProfile>,
    lp_max: Vec<f64>,
}

impl SupportModel {
    /// Build the support model for a robust logical solution.
    pub fn build(
        query: &Query,
        space: &ParameterSpace,
        solution: &RobustLogicalSolution,
        occurrence: OccurrenceModel,
    ) -> Result<Self> {
        let cost_model = CostModel::new(query.clone());
        let weights = solution.plan_weights(space, occurrence);
        let mut profiles = Vec::with_capacity(solution.len());
        for (entry, weight) in solution.entries().iter().zip(weights) {
            let mut loads = vec![0.0f64; query.num_operators()];
            for region in &entry.regions {
                let stats = space.snapshot_at(&region.pnt_hi());
                let region_loads = cost_model.operator_loads(&entry.plan, &stats)?;
                for (l, r) in loads.iter_mut().zip(region_loads) {
                    *l = (*l).max(r);
                }
            }
            profiles.push(PlanLoadProfile {
                plan: entry.plan.clone(),
                weight,
                loads,
            });
        }
        Ok(Self::from_profiles(query, profiles))
    }

    /// Build a support model directly from precomputed load profiles.
    ///
    /// [`Self::build`] ends here; the bench harness and the equivalence
    /// proptests call it directly to construct synthetic Q1/Q2-shaped plan
    /// sets without running the logical solvers.
    pub fn from_profiles(query: &Query, profiles: Vec<PlanLoadProfile>) -> Self {
        let mut lp_max = vec![0.0f64; query.num_operators()];
        for p in &profiles {
            for (m, l) in lp_max.iter_mut().zip(&p.loads) {
                *m = (*m).max(*l);
            }
        }
        Self {
            query: query.clone(),
            profiles,
            lp_max,
        }
    }

    /// The query being planned.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Number of operators in the query.
    pub fn num_operators(&self) -> usize {
        self.query.num_operators()
    }

    /// The per-plan load profiles (in solution order).
    pub fn profiles(&self) -> &[PlanLoadProfile] {
        &self.profiles
    }

    /// The `lp_max` load vector: for each operator, its maximum worst-case
    /// load across all logical plans (GreedyPhy packs this virtual plan).
    pub fn lp_max_loads(&self) -> &[f64] {
        &self.lp_max
    }

    /// `lp_max` restricted to a subset of profiles (identified by index).
    pub(crate) fn lp_max_loads_of(&self, profile_indices: &[usize]) -> Vec<f64> {
        let mut lp_max = vec![0.0f64; self.num_operators()];
        for &i in profile_indices {
            for (m, l) in lp_max.iter_mut().zip(&self.profiles[i].loads) {
                *m = (*m).max(*l);
            }
        }
        lp_max
    }

    /// Sum of all plan weights (the maximum achievable score).
    pub fn total_weight(&self) -> f64 {
        self.profiles.iter().map(|p| p.weight).sum()
    }

    /// Whether a physical plan supports profile `idx`: every node's total
    /// worst-case load under that plan is within the node's capacity.
    ///
    /// Empty nodes always fit (capacities are strictly positive), so only
    /// occupied nodes are probed — at 512 nodes and a handful of operators
    /// this is the difference between O(nodes) and O(operators) per profile.
    #[cfg(test)]
    pub(crate) fn plan_supported(&self, pp: &PhysicalPlan, idx: usize, cluster: &Cluster) -> bool {
        if pp.num_nodes() > cluster.num_nodes() {
            return false;
        }
        let profile = &self.profiles[idx];
        pp.occupied()
            .all(|(node, ops)| profile.load_of(ops) <= cluster.capacity(node) + 1e-9)
    }

    /// Indices of all profiles supported by a physical plan.
    pub fn supported_indices(&self, pp: &PhysicalPlan, cluster: &Cluster) -> Vec<usize> {
        if pp.num_nodes() > cluster.num_nodes() {
            return Vec::new();
        }
        // Collect the occupied nodes once: probing the collected list per
        // profile visits the same nodes in the same order as
        // [`Self::plan_supported`], but skips the O(nodes) empty-node sweep
        // each of the `profiles.len()` feasibility checks would repeat.
        let occupied: Vec<(NodeId, &[OperatorId])> = pp.occupied().collect();
        (0..self.profiles.len())
            .filter(|i| {
                let profile = &self.profiles[*i];
                occupied
                    .iter()
                    .all(|(node, ops)| profile.load_of(ops) <= cluster.capacity(*node) + 1e-9)
            })
            .collect()
    }

    /// Score of a physical plan: total weight of the supported logical plans.
    pub fn score(&self, pp: &PhysicalPlan, cluster: &Cluster) -> f64 {
        self.supported_indices(pp, cluster)
            .iter()
            .map(|i| self.profiles[*i].weight)
            .sum()
    }

    /// Worst-case load of an operator subset under profile `idx`.
    pub(crate) fn config_load_under(&self, ops: &[OperatorId], idx: usize) -> f64 {
        self.profiles[idx].load_of(ops)
    }

    /// Whether an operator subset can fit on a node of the given capacity
    /// under *at least one* logical plan (the feasibility notion OptPrune
    /// uses when enumerating single-machine configurations).
    #[cfg(test)]
    pub(crate) fn config_feasible(&self, ops: &[OperatorId], capacity: f64) -> bool {
        if self.profiles.is_empty() {
            return true;
        }
        self.profiles
            .iter()
            .any(|p| p.load_of(ops) <= capacity + 1e-9)
    }

    /// Build search statistics for a finished physical plan.
    pub(crate) fn stats_for(
        &self,
        pp: &PhysicalPlan,
        cluster: &Cluster,
        elapsed_micros: u64,
        nodes_expanded: usize,
    ) -> PhysicalSearchStats {
        let supported = self.supported_indices(pp, cluster);
        PhysicalSearchStats {
            elapsed_micros,
            nodes_expanded,
            score: supported.iter().map(|i| self.profiles[*i].weight).sum(),
            supported_plans: supported.len(),
            dropped_plans: self.profiles.len() - supported.len(),
            nodes_pruned: 0,
            incumbent_updates: 0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rld_common::{Query, UncertaintyLevel};
    use rld_logical::{EarlyTerminatedRobustPartitioning, ErpConfig, LogicalPlanGenerator};
    use rld_query::JoinOrderOptimizer;

    pub(crate) fn build_fixture(
        uncertainty: u32,
        steps: usize,
    ) -> (Query, ParameterSpace, RobustLogicalSolution) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(uncertainty))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (solution, _) = erp.generate().unwrap();
        (q, space, solution)
    }

    #[test]
    fn profiles_cover_every_solution_plan() {
        let (q, space, solution) = build_fixture(3, 9);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        assert_eq!(model.profiles().len(), solution.len());
        assert!(model.total_weight() > 0.0);
        for p in model.profiles() {
            assert_eq!(p.loads.len(), q.num_operators());
            assert!(p.loads.iter().all(|l| *l >= 0.0));
            assert!(p.weight >= 0.0);
        }
    }

    #[test]
    fn lp_max_dominates_every_profile() {
        let (q, space, solution) = build_fixture(3, 9);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let lp_max = model.lp_max_loads();
        for p in model.profiles() {
            for (m, l) in lp_max.iter().zip(&p.loads) {
                assert!(m + 1e-12 >= *l);
            }
        }
        // Restricting to all profiles reproduces lp_max.
        let all: Vec<usize> = (0..model.profiles().len()).collect();
        let restricted = model.lp_max_loads_of(&all);
        for (a, b) in restricted.iter().zip(lp_max) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn huge_capacity_supports_everything() {
        let (q, space, solution) = build_fixture(2, 7);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let cluster = Cluster::homogeneous(2, 1e12).unwrap();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                q.operator_ids()[..2].to_vec(),
                q.operator_ids()[2..].to_vec(),
            ],
        )
        .unwrap();
        assert_eq!(
            model.supported_indices(&pp, &cluster).len(),
            model.profiles().len()
        );
        assert!((model.score(&pp, &cluster) - model.total_weight()).abs() < 1e-9);
        let stats = model.stats_for(&pp, &cluster, 10, 1);
        assert_eq!(stats.dropped_plans, 0);
        let supported = model.supported_indices(&pp, &cluster);
        assert!(solution.coverage_of(&space, &supported) > 0.5);
    }

    #[test]
    fn tiny_capacity_supports_nothing() {
        let (q, space, solution) = build_fixture(2, 7);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let cluster = Cluster::homogeneous(2, 1e-9).unwrap();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                q.operator_ids()[..2].to_vec(),
                q.operator_ids()[2..].to_vec(),
            ],
        )
        .unwrap();
        assert!(model.supported_indices(&pp, &cluster).is_empty());
        assert_eq!(model.score(&pp, &cluster), 0.0);
        let supported = model.supported_indices(&pp, &cluster);
        assert_eq!(solution.coverage_of(&space, &supported), 0.0);
        let stats = model.stats_for(&pp, &cluster, 10, 1);
        assert_eq!(stats.supported_plans, 0);
        assert_eq!(stats.dropped_plans, model.profiles().len());
    }

    #[test]
    fn config_feasibility_uses_best_case_plan() {
        let (q, space, solution) = build_fixture(3, 9);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let all_ops = q.operator_ids();
        // With infinite capacity everything fits; with zero capacity nothing does.
        assert!(model.config_feasible(&all_ops, f64::INFINITY));
        assert!(!model.config_feasible(&all_ops, 0.0));
        // Load under any profile is consistent with load_of.
        let load = model.config_load_under(&all_ops, 0);
        assert!(load > 0.0);
    }

    #[test]
    fn spreading_operators_increases_support() {
        let (q, space, solution) = build_fixture(3, 9);
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        // Pick a capacity where everything-on-one-node fails but spreading works.
        let total: f64 = model.lp_max_loads().iter().sum();
        let cluster = Cluster::homogeneous(5, total * 0.6).unwrap();
        let all_on_one =
            PhysicalPlan::new(&q, vec![q.operator_ids(), vec![], vec![], vec![], vec![]]).unwrap();
        let spread =
            PhysicalPlan::new(&q, q.operator_ids().iter().map(|op| vec![*op]).collect()).unwrap();
        assert!(model.score(&spread, &cluster) >= model.score(&all_on_one, &cluster));
    }
}
