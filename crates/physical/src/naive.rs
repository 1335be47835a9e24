//! Retained naive reference implementations of the physical solvers.
//!
//! These are the pre-optimization bodies of [`crate::llf::llf_assign`],
//! [`crate::greedy::GreedyPhy`] and [`crate::optprune::OptPrune`], kept
//! verbatim (minus wall-clock timing — the bench harness times them from the
//! outside) so `reproduce`'s physical scaling sweep and the solver-equivalence
//! proptests can assert that the optimized paths produce **bit-identical
//! placements**, not just equal scores. They scan every node per operator,
//! rebuild load vectors per drop, and recompute partial scores per DFS
//! vertex — exactly the quadratic-or-worse behaviour the optimized solvers
//! exist to avoid. Do not use them outside benchmarks and tests.
//!
//! `NaiveOptPrune` shares [`crate::optprune`]'s configuration enumeration and
//! weight-density ordering so both searches traverse the same tree in the
//! same order; the optimized solver differs only in how it scores and prunes.

use crate::cluster::Cluster;
use crate::optprune::{ordered_configs, MAX_EXPANSIONS};
use crate::plan::PhysicalPlan;
use crate::support::{PhysicalSearchStats, SupportModel};
use rld_common::{NodeId, OperatorId, Query, Result, RldError};

/// Assign operators by Largest Load First with a full scan over all nodes
/// per operator — the reference implementation of [`crate::llf::llf_assign`].
pub fn llf_assign_naive(
    query: &Query,
    loads: &[f64],
    cluster: &Cluster,
) -> Result<Option<PhysicalPlan>> {
    crate::llf::check_load_vector(query, loads)?;
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|a, b| {
        loads[*b]
            .partial_cmp(&loads[*a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });

    let mut remaining: Vec<f64> = cluster.capacities().to_vec();
    let mut node_of = vec![NodeId::new(0); loads.len()];
    for op_idx in order {
        // Pick the node with the most remaining capacity.
        let (best_node, best_remaining) = remaining
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("cluster has at least one node");
        if loads[op_idx] > best_remaining + 1e-9 {
            return Ok(None);
        }
        remaining[best_node] -= loads[op_idx];
        node_of[op_idx] = NodeId::new(best_node);
    }
    Ok(Some(PhysicalPlan::from_mapping(
        query,
        &node_of,
        cluster.num_nodes(),
    )?))
}

/// The reference GreedyPhy: rebuilds the full `lp_max` vector and rescans
/// the whole cluster on every drop attempt.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveGreedyPhy;

impl NaiveGreedyPhy {
    /// Create a reference GreedyPhy generator.
    pub fn new() -> Self {
        Self
    }

    /// Run the reference GreedyPhy and also return which profile indices were
    /// kept. `elapsed_micros` is reported as 0 — callers time externally.
    pub fn generate_with_kept(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats, Vec<usize>)> {
        let mut active: Vec<usize> = (0..model.profiles().len()).collect();
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let lp_max = model.lp_max_loads_of(&active);
            if let Some(pp) = llf_assign_naive(model.query(), &lp_max, cluster)? {
                let stats = model.stats_for(&pp, cluster, 0, attempts);
                return Ok((pp, stats, active));
            }
            if active.is_empty() {
                return Err(RldError::Infeasible(
                    "LLF failed even with no logical plans to support".into(),
                ));
            }
            // Drop the least-weighted plan; ties go to the plan with the
            // larger total worst-case load (frees the most capacity).
            let drop_pos = active
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let pa = &model.profiles()[**a];
                    let pb = &model.profiles()[**b];
                    pa.weight
                        .partial_cmp(&pb.weight)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            let la: f64 = pa.loads.iter().sum();
                            let lb: f64 = pb.loads.iter().sum();
                            lb.partial_cmp(&la).unwrap_or(std::cmp::Ordering::Equal)
                        })
                })
                .map(|(pos, _)| pos)
                .expect("active set is non-empty");
            active.remove(drop_pos);
        }
    }

    /// Run the reference GreedyPhy.
    pub fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)> {
        let (pp, stats, _) = self.generate_with_kept(model, cluster)?;
        Ok((pp, stats))
    }
}

/// The reference OptPrune: recomputes `partial_score` from scratch at every
/// DFS vertex and prunes only on the score bound (Theorem 3) — no
/// balance-aware bound, no incremental state.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveOptPrune;

impl NaiveOptPrune {
    /// Create a reference OptPrune generator.
    pub fn new() -> Self {
        Self
    }

    /// Run the reference OptPrune. `elapsed_micros` is reported as 0 —
    /// callers time externally.
    pub fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)> {
        let num_ops = model.num_operators();
        if num_ops > crate::optprune::OptPrune::MAX_OPERATORS {
            return Err(RldError::InvalidArgument(format!(
                "OptPrune supports up to {} operators, query has {num_ops}",
                crate::optprune::OptPrune::MAX_OPERATORS
            )));
        }
        if !cluster.is_homogeneous() {
            return Err(RldError::InvalidArgument(
                "OptPrune assumes a homogeneous cluster (as in the paper)".into(),
            ));
        }
        let capacity = cluster.capacities()[0];

        // Seed the bound with the reference GreedyPhy (Algorithm 5 lines 2-3).
        let (greedy_plan, _greedy_stats) = NaiveGreedyPhy::new().generate(model, cluster)?;
        let greedy_score = model.score(&greedy_plan, cluster);

        // The reference search recomputes per-vertex violations itself; the
        // precomputed kill lists are only consumed by the optimized solver.
        let (configs, config_masks, _config_kills) = ordered_configs(model, capacity);

        let mut state = NaiveSearchState {
            model,
            cluster,
            capacity,
            configs,
            config_masks,
            num_ops,
            best_plan: None,
            best_score: greedy_score,
            best_balance: f64::INFINITY,
            lp_max: model.lp_max_loads().to_vec(),
            total_weight: model.total_weight(),
            expansions: 0,
        };
        let mut chosen = Vec::new();
        state.dfs(&mut chosen, 0);

        let plan = match state.best_plan {
            Some(chosen) => {
                let mut assignment: Vec<Vec<OperatorId>> =
                    chosen.iter().map(|c| state.configs[*c].clone()).collect();
                assignment.resize(cluster.num_nodes(), Vec::new());
                let candidate = PhysicalPlan::new(model.query(), assignment)?;
                // Never return anything worse than the GreedyPhy bound.
                if model.score(&candidate, cluster) + 1e-12 >= greedy_score {
                    candidate
                } else {
                    greedy_plan
                }
            }
            None => greedy_plan,
        };
        let stats = model.stats_for(&plan, cluster, 0, state.expansions);
        Ok((plan, stats))
    }
}

struct NaiveSearchState<'a> {
    model: &'a SupportModel,
    cluster: &'a Cluster,
    capacity: f64,
    configs: Vec<Vec<OperatorId>>,
    config_masks: Vec<u32>,
    num_ops: usize,
    best_plan: Option<Vec<usize>>,
    best_score: f64,
    best_balance: f64,
    lp_max: Vec<f64>,
    total_weight: f64,
    expansions: usize,
}

impl<'a> NaiveSearchState<'a> {
    /// Score of a partial assignment: total weight of profiles not violated
    /// by any chosen configuration — recomputed from scratch.
    fn partial_score(&self, chosen: &[usize]) -> f64 {
        self.model
            .profiles()
            .iter()
            .enumerate()
            .filter(|(p_idx, _)| {
                chosen.iter().all(|c| {
                    self.model.config_load_under(&self.configs[*c], *p_idx) <= self.capacity + 1e-9
                })
            })
            .map(|(_, p)| p.weight)
            .sum()
    }

    fn dfs(&mut self, chosen: &mut Vec<usize>, covered: u32) {
        if self.expansions >= MAX_EXPANSIONS {
            return;
        }
        self.expansions += 1;

        let all_covered = covered.count_ones() as usize == self.num_ops;
        if all_covered {
            let score = self.partial_score(chosen);
            let balance = chosen
                .iter()
                .map(|c| {
                    self.configs[*c]
                        .iter()
                        .map(|op| self.lp_max[op.index()])
                        .sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            let better_score = score > self.best_score + 1e-12;
            let equal_but_more_balanced =
                (score - self.best_score).abs() <= 1e-12 && balance < self.best_balance - 1e-12;
            if better_score || equal_but_more_balanced {
                self.best_score = score.max(self.best_score);
                self.best_balance = balance;
                self.best_plan = Some(chosen.clone());
            }
            return;
        }
        if chosen.len() >= self.cluster.num_nodes() {
            return; // no machines left
        }
        // Prune: even keeping every currently-unviolated plan cannot beat the
        // bound (Theorem 3).
        let upper = self.partial_score(chosen);
        if upper < self.best_score - 1e-12 {
            return;
        }
        let first_uncovered = (0..self.num_ops)
            .find(|i| covered & (1 << i) == 0)
            .expect("not all covered");
        for c_idx in 0..self.configs.len() {
            let mask = self.config_masks[c_idx];
            if mask & (1 << first_uncovered) == 0 || mask & covered != 0 {
                continue;
            }
            chosen.push(c_idx);
            self.dfs(chosen, covered | mask);
            chosen.pop();
            if self.expansions >= MAX_EXPANSIONS {
                return;
            }
            // Early exit: a complete plan supporting every logical plan is optimal.
            if self.best_plan.is_some()
                && (self.best_score - self.total_weight).abs() < 1e-12
                && self.total_weight > 0.0
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyPhy;
    use crate::llf::llf_assign;
    use crate::optprune::OptPrune;
    use crate::PhysicalPlanGenerator;
    use rld_paramspace::OccurrenceModel;

    fn model(uncertainty: u32, steps: usize) -> (rld_common::Query, SupportModel) {
        let (q, space, solution) = crate::support::tests::build_fixture(uncertainty, steps);
        let m = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        (q, m)
    }

    #[test]
    fn heap_llf_matches_naive_scan() {
        let q = Query::q1_stock_monitoring();
        let clusters = [
            Cluster::homogeneous(2, 100.0).unwrap(),
            Cluster::homogeneous(7, 55.0).unwrap(),
            Cluster::new(vec![100.0, 20.0, 80.0, 80.0, 20.0]).unwrap(),
        ];
        let load_sets = [
            vec![50.0, 40.0, 30.0, 20.0, 10.0],
            vec![90.0, 5.0, 5.0, 5.0, 5.0],
            vec![0.0; 5],
            vec![60.0, 60.0, 60.0, 60.0, 60.0],
            vec![80.0, 80.0, 80.0, 10.0, 10.0],
        ];
        for cluster in &clusters {
            for loads in &load_sets {
                let fast = llf_assign(&q, loads, cluster).unwrap();
                let slow = llf_assign_naive(&q, loads, cluster).unwrap();
                assert_eq!(fast, slow, "loads {loads:?} on {cluster:?}");
            }
        }
    }

    #[test]
    fn incremental_greedy_matches_naive() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        for fraction in [0.2, 0.35, 0.6, 1.0] {
            for n in [2usize, 3, 5] {
                let cluster = Cluster::homogeneous(n, total * fraction).unwrap();
                let (fast_pp, fast_stats, fast_kept) =
                    GreedyPhy::new().generate_with_kept(&m, &cluster).unwrap();
                let (slow_pp, slow_stats, slow_kept) = NaiveGreedyPhy::new()
                    .generate_with_kept(&m, &cluster)
                    .unwrap();
                assert_eq!(fast_pp, slow_pp, "n={n} fraction={fraction}");
                assert_eq!(fast_kept, slow_kept);
                assert_eq!(fast_stats.score, slow_stats.score);
                assert_eq!(fast_stats.nodes_expanded, slow_stats.nodes_expanded);
            }
        }
    }

    #[test]
    fn pruned_optprune_matches_naive_placement_and_score() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        for fraction in [0.3, 0.5, 0.8] {
            for n in [2usize, 3] {
                let cluster = Cluster::homogeneous(n, total * fraction).unwrap();
                let (fast_pp, fast_stats) = OptPrune::new().generate(&m, &cluster).unwrap();
                let (slow_pp, slow_stats) = NaiveOptPrune::new().generate(&m, &cluster).unwrap();
                assert_eq!(fast_pp, slow_pp, "n={n} fraction={fraction}");
                assert_eq!(fast_stats.score, slow_stats.score);
                assert!(fast_stats.nodes_expanded <= slow_stats.nodes_expanded);
            }
        }
    }
}
