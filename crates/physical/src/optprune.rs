//! OptPrune (Algorithm 5): optimal robust physical plan generation by
//! branch-and-bound over single-machine configurations.
//!
//! OptPrune enumerates the *configurations* (subsets of operators that can
//! fit on one machine under at least one supported logical plan), then
//! depth-first searches over partitions of the operator set into at most `N`
//! configurations. The score of a (partial) physical plan is the total
//! occurrence weight of the logical plans not yet violated by any placed
//! configuration; by Lemma 1 adding a configuration can only lower that
//! score, so any branch whose score falls below the best known complete
//! solution — initialized with the GreedyPhy result — can be pruned safely
//! (Theorem 3). The search therefore returns the optimal-score physical plan
//! while examining only a small fraction of the space in practice.
//!
//! The search is incremental and pruned beyond the paper's baseline, while
//! returning placements bit-identical to the retained reference
//! ([`crate::naive::NaiveOptPrune`]):
//!
//! * **Incremental scoring.** Each configuration's per-profile loads are
//!   precomputed once; pushing a configuration increments a violation
//!   counter on the profiles it kills, popping decrements. `partial_score`
//!   becomes one pass over the profiles in index order — the same float
//!   summation the reference performs, with the per-vertex
//!   `O(profiles · chosen · ops)` load recomputation gone.
//! * **Weight-density ordering.** Configurations are ordered by killed
//!   weight per covered operator (shared with the reference via
//!   `ordered_configs`, so both searches traverse the same tree), which
//!   tightens the incumbent early and makes the score bound bite sooner.
//! * **Balance-aware bound.** A subtree whose optimistic score cannot
//!   *strictly* beat the incumbent and whose running balance (max per-node
//!   `lp_max` load along the path) is already no better than the
//!   incumbent's can adopt nothing — the equal-score tie-break requires a
//!   strictly more balanced plan — and is cut.
//! * **Dominance check.** A vertex covering the same operator set as an
//!   already fully-expanded sibling, with a *subset* of its surviving
//!   profiles, an equal-or-worse balance and no more machines spent, is
//!   pointwise dominated: every completion it could reach, the sibling
//!   already reached with equal-or-better score and balance. Such vertices
//!   are cut without descending.

use crate::cluster::Cluster;
use crate::greedy::GreedyPhy;
use crate::plan::PhysicalPlan;
use crate::support::{PhysicalSearchStats, SupportModel};
use crate::PhysicalPlanGenerator;
use rld_common::{OperatorId, Result, RldError};
use std::collections::BTreeMap;
use std::time::Instant;

/// The OptPrune physical plan generator.
#[derive(Debug, Clone, Copy)]
pub struct OptPrune {
    /// Hard cap on search-tree expansions (a backstop far above what the
    /// paper's query sizes ever need; the bound from GreedyPhy keeps the
    /// practical search tiny).
    pub max_expansions: usize,
}

impl Default for OptPrune {
    fn default() -> Self {
        Self {
            max_expansions: 2_000_000,
        }
    }
}

impl OptPrune {
    /// Maximum number of operators supported (configuration enumeration is
    /// exponential in the operator count).
    pub const MAX_OPERATORS: usize = 20;

    /// Create an OptPrune generator with default limits.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Enumerate the feasible single-machine configurations (Algorithm 5 line 1)
/// and order them by weight-density: killed occurrence weight per covered
/// operator, ascending (ties towards larger configurations, then towards the
/// lower operator bitmask). Low-damage, high-coverage configurations come
/// first so the first complete plans the DFS reaches are already strong and
/// the score bound bites early.
///
/// Also returns, per configuration, the profiles it violates on one machine
/// (in profile index order) — the kill lists are a byproduct of the density
/// computation, so computing them here saves the search a second
/// `config_load_under` sweep over the whole enumeration.
///
/// Shared by the optimized search and [`crate::naive::NaiveOptPrune`] so
/// both traverse the identical tree in the identical order.
pub(crate) fn ordered_configs(
    model: &SupportModel,
    capacity: f64,
) -> (Vec<Vec<OperatorId>>, Vec<u32>, Vec<Vec<u32>>) {
    let num_ops = model.num_operators();
    let op_ids: Vec<OperatorId> = model.query().operator_ids();
    let cap_eps = capacity + 1e-9;
    // A profile whose every single-operator load already exceeds the node
    // capacity is violated by every non-empty configuration (all its loads
    // are above `cap_eps > 0`, so any subset sum is at least its largest
    // element). The per-config scans below classify such profiles with one
    // branch instead of a load summation; the weight sums and kill lists
    // keep the exact profile-index iteration order, so the computed
    // densities are bit-identical to the unconditional scan.
    let always_violated: Vec<bool> = model
        .profiles()
        .iter()
        .map(|p| p.loads.iter().all(|l| *l > cap_eps))
        .collect();
    // Non-empty operator subsets that fit on one machine under at least one
    // logical plan — or under no plan at all when the solution is empty /
    // nothing fits (so a valid partition still exists).
    let mut configs: Vec<(Vec<OperatorId>, u32, f64, Vec<u32>)> = Vec::new();
    for mask in 1u32..(1u32 << num_ops) {
        let ops: Vec<OperatorId> = (0..num_ops)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| op_ids[i])
            .collect();
        let feasible = model.profiles().is_empty()
            || ops.len() == 1
            || (0..model.profiles().len()).any(|p_idx| {
                !always_violated[p_idx] && model.config_load_under(&ops, p_idx) <= cap_eps
            });
        if feasible {
            // Singleton configs are always allowed so a complete partition
            // exists even when nothing fits (score 0, like GreedyPhy).
            let mut killed = 0.0f64;
            let mut kills: Vec<u32> = Vec::new();
            for (p_idx, p) in model.profiles().iter().enumerate() {
                if always_violated[p_idx] || model.config_load_under(&ops, p_idx) > cap_eps {
                    killed += p.weight;
                    kills.push(p_idx as u32);
                }
            }
            configs.push((ops, mask, killed, kills));
        }
    }
    configs.sort_by(|(a_ops, a_mask, a_kill, _), (b_ops, b_mask, b_kill, _)| {
        let a_density = a_kill / a_ops.len() as f64;
        let b_density = b_kill / b_ops.len() as f64;
        a_density
            .partial_cmp(&b_density)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b_ops.len().cmp(&a_ops.len()))
            .then_with(|| a_mask.cmp(b_mask))
    });
    let mut ops_out = Vec::with_capacity(configs.len());
    let mut masks = Vec::with_capacity(configs.len());
    let mut kills = Vec::with_capacity(configs.len());
    for (ops, mask, _, k) in configs {
        ops_out.push(ops);
        masks.push(mask);
        kills.push(k);
    }
    (ops_out, masks, kills)
}

/// A fully-expanded sibling recorded for the dominance check, keyed by its
/// covered-operator mask.
struct ExpandedState {
    /// Bitmask of profiles still alive (not violated) at the vertex.
    alive: u64,
    /// Running balance (max per-node `lp_max` load) along the path.
    balance: f64,
    /// Machines spent to reach the vertex.
    chosen_len: usize,
}

struct SearchState<'a> {
    cluster: &'a Cluster,
    configs: Vec<Vec<OperatorId>>,
    /// configs represented as bitmasks for fast disjointness tests.
    config_masks: Vec<u32>,
    /// For each configuration, the profiles it violates on one machine.
    config_kills: Vec<Vec<u32>>,
    /// For each configuration, its `lp_max` load on one machine.
    config_balance: Vec<f64>,
    /// For each operator, the configurations containing it, in global order.
    configs_by_op: Vec<Vec<usize>>,
    /// Profile weights, in profile index order.
    weights: Vec<f64>,
    /// Per-profile count of chosen configurations violating it.
    violations: Vec<u32>,
    num_ops: usize,
    best_plan: Option<Vec<usize>>,
    best_score: f64,
    /// Balance (max per-node `lp_max` load) of the best plan found so far;
    /// used only to break ties between equal-score plans in favour of the
    /// more balanced placement (better runtime behaviour, same optimality).
    best_balance: f64,
    total_weight: f64,
    expansions: usize,
    max_expansions: usize,
    nodes_pruned: usize,
    incumbent_updates: usize,
    /// Dominance memo: fully-expanded vertices by covered-operator mask.
    /// A `BTreeMap` so the solver never iterates a hashed container (D1);
    /// in practice it is only probed by key.
    expanded: BTreeMap<u32, Vec<ExpandedState>>,
    expanded_entries: usize,
    /// The dominance check needs one bit per profile.
    dominance_enabled: bool,
}

/// Caps on the dominance memo so pathological searches stay bounded.
const MAX_STATES_PER_MASK: usize = 24;
const MAX_MEMO_ENTRIES: usize = 100_000;

impl<'a> SearchState<'a> {
    /// Score of the current partial assignment: total weight of profiles not
    /// violated by any chosen configuration. One pass in profile index order
    /// — the identical float summation the reference recomputes from scratch.
    fn partial_score(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.violations)
            .filter(|(_, v)| **v == 0)
            .map(|(w, _)| *w)
            .sum()
    }

    /// Bitmask of currently-alive profiles (dominance check key material).
    fn alive_mask(&self) -> u64 {
        self.violations
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == 0)
            .fold(0u64, |m, (p, _)| m | (1u64 << p))
    }

    fn dfs(&mut self, chosen: &mut Vec<usize>, covered: u32, path_balance: f64) {
        if self.expansions >= self.max_expansions {
            return;
        }
        self.expansions += 1;

        let all_covered = covered.count_ones() as usize == self.num_ops;
        if all_covered {
            let score = self.partial_score();
            let balance = path_balance;
            let better_score = score > self.best_score + 1e-12;
            let equal_but_more_balanced =
                (score - self.best_score).abs() <= 1e-12 && balance < self.best_balance - 1e-12;
            // Only adopt a complete plan when it is at least as good as the
            // incumbent bound (which starts at the GreedyPhy score); the
            // GreedyPhy plan itself remains the fallback otherwise.
            if better_score || equal_but_more_balanced {
                self.best_score = score.max(self.best_score);
                self.best_balance = balance;
                self.best_plan = Some(chosen.clone());
                self.incumbent_updates += 1;
            }
            return;
        }
        if chosen.len() >= self.cluster.num_nodes() {
            return; // no machines left
        }
        // Prune: even keeping every currently-unviolated plan cannot beat the
        // bound (the GreedyPhy plan is always available as a fallback, so
        // pruning below its score is safe from the start — Theorem 3).
        let upper = self.partial_score();
        if upper < self.best_score - 1e-12 {
            self.nodes_pruned += 1;
            return;
        }
        // Balance-aware bound: completions below can only tie the incumbent
        // score (score ≤ upper ≤ best + ε), and their balance is at least the
        // running balance, so the equal-score tie-break can never fire either.
        if upper <= self.best_score + 1e-12 && path_balance >= self.best_balance - 1e-12 {
            self.nodes_pruned += 1;
            return;
        }
        // Dominance: a fully-expanded sibling covering the same operators
        // with a superset of our surviving profiles, no worse balance and no
        // more machines spent has already reached every completion we could,
        // with equal-or-better score (float addition is monotone, so a
        // superset's index-ordered weight sum is ≥ the subset's) and balance.
        let alive = if self.dominance_enabled {
            let alive = self.alive_mask();
            if let Some(states) = self.expanded.get(&covered) {
                let dominated = states.iter().any(|s| {
                    s.alive & alive == alive
                        && s.balance <= path_balance
                        && s.chosen_len <= chosen.len()
                });
                if dominated {
                    self.nodes_pruned += 1;
                    return;
                }
            }
            alive
        } else {
            0
        };
        // Branch on configurations containing the lowest-indexed uncovered
        // operator, so each partition is enumerated exactly once.
        let first_uncovered = (0..self.num_ops)
            .find(|i| covered & (1 << i) == 0)
            .expect("not all covered");
        for pos in 0..self.configs_by_op[first_uncovered].len() {
            let c_idx = self.configs_by_op[first_uncovered][pos];
            let mask = self.config_masks[c_idx];
            if mask & covered != 0 {
                continue;
            }
            chosen.push(c_idx);
            for k in 0..self.config_kills[c_idx].len() {
                let p = self.config_kills[c_idx][k] as usize;
                self.violations[p] += 1;
            }
            let child_balance = path_balance.max(self.config_balance[c_idx]);
            self.dfs(chosen, covered | mask, child_balance);
            chosen.pop();
            for k in 0..self.config_kills[c_idx].len() {
                let p = self.config_kills[c_idx][k] as usize;
                self.violations[p] -= 1;
            }
            if self.expansions >= self.max_expansions {
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
        // The children loop ran to completion: this vertex is fully expanded
        // and may dominate later siblings with the same covered set.
        if self.dominance_enabled && self.expanded_entries < MAX_MEMO_ENTRIES {
            let states = self.expanded.entry(covered).or_default();
            if states.len() < MAX_STATES_PER_MASK {
                states.push(ExpandedState {
                    alive,
                    balance: path_balance,
                    chosen_len: chosen.len(),
                });
                self.expanded_entries += 1;
            }
        }
    }
}

impl PhysicalPlanGenerator for OptPrune {
    fn name(&self) -> &'static str {
        "OptPrune"
    }

    fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)> {
        // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
        let start = Instant::now();
        let num_ops = model.num_operators();
        if num_ops > Self::MAX_OPERATORS {
            return Err(RldError::InvalidArgument(format!(
                "OptPrune supports up to {} operators, query has {num_ops}",
                Self::MAX_OPERATORS
            )));
        }
        if !cluster.is_homogeneous() {
            return Err(RldError::InvalidArgument(
                "OptPrune assumes a homogeneous cluster (as in the paper)".into(),
            ));
        }
        let capacity = cluster.capacities()[0];

        // Seed the bound with GreedyPhy (Algorithm 5 lines 2-3).
        let (greedy_plan, _greedy_stats) = GreedyPhy::new().generate(model, cluster)?;
        let greedy_score = model.score(&greedy_plan, cluster);

        let (configs, config_masks, config_kills) = ordered_configs(model, capacity);
        let num_profiles = model.profiles().len();
        let lp_max = model.lp_max_loads();
        let config_balance: Vec<f64> = configs
            .iter()
            .map(|ops| ops.iter().map(|op| lp_max[op.index()]).sum::<f64>())
            .collect();
        let mut configs_by_op: Vec<Vec<usize>> = vec![Vec::new(); num_ops];
        for (c_idx, mask) in config_masks.iter().enumerate() {
            for (op, ops) in configs_by_op.iter_mut().enumerate() {
                if mask & (1 << op) != 0 {
                    ops.push(c_idx);
                }
            }
        }

        let mut state = SearchState {
            cluster,
            configs,
            config_masks,
            config_kills,
            config_balance,
            configs_by_op,
            weights: model.profiles().iter().map(|p| p.weight).collect(),
            violations: vec![0; num_profiles],
            num_ops,
            best_plan: None,
            best_score: greedy_score,
            best_balance: f64::INFINITY,
            total_weight: model.total_weight(),
            expansions: 0,
            max_expansions: self.max_expansions,
            nodes_pruned: 0,
            incumbent_updates: 0,
            expanded: BTreeMap::new(),
            expanded_entries: 0,
            dominance_enabled: num_profiles <= 64,
        };
        let mut chosen = Vec::new();
        state.dfs(&mut chosen, 0, 0.0);

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
            // The DFS found nothing better than (or equal to) GreedyPhy.
            None => greedy_plan,
        };
        let mut stats = model.stats_for(
            &plan,
            cluster,
            start.elapsed().as_micros() as u64,
            state.expansions,
        );
        stats.nodes_pruned = state.nodes_pruned;
        stats.incumbent_updates = state.incumbent_updates;
        Ok((plan, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustivePhysicalSearch;
    use rld_paramspace::OccurrenceModel;

    fn model(uncertainty: u32, steps: usize) -> (rld_common::Query, SupportModel) {
        let (q, space, solution) = crate::support::tests::build_fixture(uncertainty, steps);
        let m = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        (q, m)
    }

    #[test]
    fn optprune_matches_exhaustive_score() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        for fraction in [0.3, 0.5, 0.8] {
            let cluster = Cluster::homogeneous(3, total * fraction).unwrap();
            let (_, opt_stats) = OptPrune::new().generate(&m, &cluster).unwrap();
            let (_, es_stats) = ExhaustivePhysicalSearch::new()
                .generate(&m, &cluster)
                .unwrap();
            assert!(
                (opt_stats.score - es_stats.score).abs() < 1e-9,
                "fraction {fraction}: OptPrune {} != ES {}",
                opt_stats.score,
                es_stats.score
            );
        }
    }

    #[test]
    fn optprune_never_worse_than_greedy() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        for fraction in [0.2, 0.4, 0.6, 1.0] {
            let cluster = Cluster::homogeneous(2, total * fraction).unwrap();
            let (_, g) = GreedyPhy::new().generate(&m, &cluster).unwrap();
            let (_, o) = OptPrune::new().generate(&m, &cluster).unwrap();
            assert!(
                o.score + 1e-9 >= g.score,
                "fraction {fraction}: OptPrune {} < GreedyPhy {}",
                o.score,
                g.score
            );
        }
    }

    #[test]
    fn ample_resources_support_everything() {
        let (_q, m) = model(2, 7);
        let cluster = Cluster::homogeneous(3, 1e9).unwrap();
        let (pp, stats) = OptPrune::new().generate(&m, &cluster).unwrap();
        assert_eq!(stats.dropped_plans, 0);
        assert_eq!(pp.num_operators(), m.num_operators());
        assert!((stats.score - m.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_cluster_rejected() {
        let (_q, m) = model(2, 7);
        let cluster = Cluster::new(vec![10.0, 20.0]).unwrap();
        assert!(OptPrune::new().generate(&m, &cluster).is_err());
    }

    #[test]
    fn tiny_capacity_still_partitions() {
        let (_q, m) = model(2, 7);
        let cluster = Cluster::homogeneous(5, 1e-6).unwrap();
        let (pp, stats) = OptPrune::new().generate(&m, &cluster).unwrap();
        assert_eq!(pp.num_operators(), m.num_operators());
        assert_eq!(stats.score, 0.0);
    }

    #[test]
    fn pruning_counters_are_reported() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        let cluster = Cluster::homogeneous(3, total * 0.5).unwrap();
        let (_, stats) = OptPrune::new().generate(&m, &cluster).unwrap();
        // The search must have actually searched (and pruned) something.
        assert!(stats.nodes_expanded > 0);
        assert!(stats.nodes_pruned > 0 || stats.incumbent_updates > 0);
    }
}
