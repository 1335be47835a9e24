//! DYN — the dynamic load distribution baseline (Borealis-style, Xing et al.
//! ICDE'05).
//!
//! DYN starts from a placement balanced for the initial statistics and then
//! *reacts* to load imbalance at runtime: whenever a node's load exceeds its
//! capacity (times a trigger threshold), the controller moves operators off
//! the overloaded node onto the least-loaded node that can absorb them. Each
//! move is an operator migration whose cost — suspension of the operator plus
//! transfer of its state — is charged by the runtime simulator; those
//! migration overheads are exactly what the paper's Figures 15–16 show
//! hurting DYN relative to RLD.

use crate::cluster::Cluster;
use crate::llf::{llf_assign, node_loads};
use crate::plan::PhysicalPlan;
use rld_common::{NodeId, OperatorId, Query, Result, RldError, StatsSnapshot};
use rld_query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};

/// One operator migration decided by the DYN controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationDecision {
    /// The operator to move.
    pub operator: OperatorId,
    /// The node it currently runs on.
    pub from: NodeId,
    /// The node it should move to.
    pub to: NodeId,
    /// Size of the operator state that has to be transferred, in bytes.
    pub state_bytes: u64,
}

/// Configuration of the DYN controller.
#[derive(Debug, Clone, Copy, PartialEq)]
// rld-allow(V1): returned by the public `DynPlanner::config`
pub struct DynConfig {
    /// A node is considered overloaded when its load exceeds
    /// `capacity × overload_threshold`.
    pub overload_threshold: f64,
    /// Maximum number of migrations per rebalancing round.
    pub max_moves_per_round: usize,
}

impl Default for DynConfig {
    fn default() -> Self {
        Self {
            overload_threshold: 0.9,
            max_moves_per_round: 3,
        }
    }
}

/// The DYN baseline planner / runtime controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynPlanner {
    config: DynConfig,
}

impl DynPlanner {
    /// Create a DYN planner with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The controller configuration.
    pub fn config(&self) -> &DynConfig {
        &self.config
    }

    /// Initial deployment: the optimizer's plan at the initial statistics,
    /// balanced across the cluster with LLF (same starting point as ROD).
    pub fn initial_plan(
        &self,
        query: &Query,
        stats: &StatsSnapshot,
        cluster: &Cluster,
    ) -> Result<(LogicalPlan, PhysicalPlan)> {
        let optimizer = JoinOrderOptimizer::new(query.clone());
        let logical = optimizer.optimize(stats)?;
        let cost_model = CostModel::new(query.clone());
        let loads = cost_model.operator_loads(&logical, stats)?;
        let physical = llf_assign(query, &loads, cluster)?.ok_or_else(|| {
            RldError::Infeasible(format!(
                "DYN cannot place {} operators on {} nodes",
                query.num_operators(),
                cluster.num_nodes()
            ))
        })?;
        Ok((logical, physical))
    }

    /// [`Self::rebalance_with_capacities`] at the cluster's nominal
    /// capacities.
    #[cfg(test)]
    pub(crate) fn rebalance(
        &self,
        query: &Query,
        current: &PhysicalPlan,
        op_loads: &[f64],
        cluster: &Cluster,
    ) -> Result<Vec<MigrationDecision>> {
        self.rebalance_with_capacities(query, current, op_loads, cluster.capacities())
    }

    /// Decide which operators to migrate given the current placement, the
    /// current per-operator loads and a per-node capacity vector. Returns an
    /// empty list when no node is overloaded or no productive move exists.
    /// The returned decisions are already applied in sequence to the load
    /// bookkeeping, so they are consistent with each other. A capacity of
    /// zero (or less) marks a node as unavailable: it is never chosen as a
    /// migration target, and any operator still placed on it makes the node
    /// count as (infinitely) overloaded, so the controller evacuates it
    /// first.
    pub fn rebalance_with_capacities(
        &self,
        query: &Query,
        current: &PhysicalPlan,
        op_loads: &[f64],
        capacities: &[f64],
    ) -> Result<Vec<MigrationDecision>> {
        if op_loads.len() != query.num_operators() {
            return Err(RldError::InvalidArgument(format!(
                "expected {} operator loads, got {}",
                query.num_operators(),
                op_loads.len()
            )));
        }
        if capacities.len() < current.num_nodes() {
            return Err(RldError::InvalidArgument(format!(
                "expected capacities for {} nodes, got {}",
                current.num_nodes(),
                capacities.len()
            )));
        }
        if capacities.iter().all(|c| *c <= 0.0) {
            return Ok(Vec::new()); // total outage: nowhere to move anything
        }
        let mut plan = current.clone();
        let mut decisions = Vec::new();
        for _ in 0..self.config.max_moves_per_round {
            let loads = node_loads(&plan, op_loads);
            // Most overloaded node relative to its (effective) capacity; an
            // unavailable node hosting any operator is infinitely overloaded.
            let overloaded = loads
                .iter()
                .enumerate()
                .filter_map(|(i, l)| {
                    let cap = capacities[i];
                    if cap <= 0.0 {
                        (!plan.operators_on(NodeId::new(i)).is_empty())
                            .then_some((i, f64::INFINITY))
                    } else {
                        Some((i, l / cap))
                    }
                })
                .filter(|(_, ratio)| *ratio > self.config.overload_threshold)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let Some((from_idx, _)) = overloaded else {
                break;
            };
            let from = NodeId::new(from_idx);
            // Least-loaded other *available* node.
            let Some((to_idx, to_load)) = loads
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != from_idx && capacities[*i] > 0.0)
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            else {
                break;
            };
            let to = NodeId::new(to_idx);
            // Move the largest operator that fits in the target's remaining capacity.
            let headroom = capacities[to_idx] - to_load;
            let candidate = plan
                .operators_on(from)
                .iter()
                .copied()
                .filter(|op| op_loads[op.index()] <= headroom + 1e-9)
                .max_by(|a, b| {
                    op_loads[a.index()]
                        .partial_cmp(&op_loads[b.index()])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some(op) = candidate else {
                break; // nothing movable
            };
            if op_loads[op.index()] <= 0.0 {
                break; // moving a zero-load operator never helps
            }
            plan = plan.with_operator_moved(op, to)?;
            decisions.push(MigrationDecision {
                operator: op,
                from,
                to,
                state_bytes: query.operator(op)?.state_bytes,
            });
        }
        Ok(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> Query {
        Query::q1_stock_monitoring()
    }

    #[test]
    fn initial_plan_is_balanced_and_valid() {
        let q = q1();
        let cluster = Cluster::homogeneous(3, 1e6).unwrap();
        let (lp, pp) = DynPlanner::new()
            .initial_plan(&q, &q.default_stats(), &cluster)
            .unwrap();
        assert_eq!(lp.len(), q.num_operators());
        assert_eq!(pp.num_operators(), q.num_operators());
    }

    #[test]
    fn no_migration_when_balanced() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 1000.0).unwrap();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                vec![OperatorId::new(0), OperatorId::new(1)],
                vec![OperatorId::new(2), OperatorId::new(3), OperatorId::new(4)],
            ],
        )
        .unwrap();
        let loads = vec![10.0, 10.0, 10.0, 10.0, 10.0];
        let decisions = DynPlanner::new()
            .rebalance(&q, &pp, &loads, &cluster)
            .unwrap();
        assert!(decisions.is_empty());
    }

    #[test]
    fn overload_triggers_migration_to_least_loaded_node() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        // Node 0 overloaded (140), node 1 nearly idle (5).
        let pp = PhysicalPlan::new(
            &q,
            vec![
                vec![
                    OperatorId::new(0),
                    OperatorId::new(1),
                    OperatorId::new(2),
                    OperatorId::new(3),
                ],
                vec![OperatorId::new(4)],
            ],
        )
        .unwrap();
        let loads = vec![60.0, 40.0, 30.0, 10.0, 5.0];
        let decisions = DynPlanner::new()
            .rebalance(&q, &pp, &loads, &cluster)
            .unwrap();
        assert!(!decisions.is_empty());
        let first = decisions[0];
        assert_eq!(first.from, NodeId::new(0));
        assert_eq!(first.to, NodeId::new(1));
        // It moves the largest operator that fits in node 1's 95 units of headroom.
        assert_eq!(first.operator, OperatorId::new(0));
    }

    #[test]
    fn migration_respects_target_capacity() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                vec![OperatorId::new(0), OperatorId::new(1)],
                vec![OperatorId::new(2), OperatorId::new(3), OperatorId::new(4)],
            ],
        )
        .unwrap();
        // Node 0 has two 95-load operators; node 1 is at 90: nothing fits there.
        let loads = vec![95.0, 95.0, 30.0, 30.0, 30.0];
        let decisions = DynPlanner::new()
            .rebalance(&q, &pp, &loads, &cluster)
            .unwrap();
        assert!(decisions.is_empty());
    }

    #[test]
    fn max_moves_per_round_is_respected() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 50.0).unwrap();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                vec![
                    OperatorId::new(0),
                    OperatorId::new(1),
                    OperatorId::new(2),
                    OperatorId::new(3),
                    OperatorId::new(4),
                ],
                vec![],
            ],
        )
        .unwrap();
        let loads = vec![20.0, 20.0, 20.0, 20.0, 20.0];
        let planner = DynPlanner {
            config: DynConfig {
                overload_threshold: 0.5,
                max_moves_per_round: 2,
            },
        };
        let decisions = planner.rebalance(&q, &pp, &loads, &cluster).unwrap();
        assert!(decisions.len() <= 2);
        assert!(!decisions.is_empty());
        // State sizes come from the operator specs.
        for d in &decisions {
            assert_eq!(d.state_bytes, q.operator(d.operator).unwrap().state_bytes);
        }
    }

    #[test]
    fn unavailable_nodes_are_evacuated_and_never_targeted() {
        let q = q1();
        let pp = PhysicalPlan::new(
            &q,
            vec![
                vec![OperatorId::new(0), OperatorId::new(1)],
                vec![OperatorId::new(2)],
                vec![OperatorId::new(3), OperatorId::new(4)],
            ],
        )
        .unwrap();
        let loads = vec![10.0, 10.0, 10.0, 10.0, 10.0];
        // Node 1 is down (capacity 0): its operator must be moved off, and
        // nothing may move onto it even though it is the least loaded.
        let caps = vec![100.0, 0.0, 100.0];
        let decisions = DynPlanner::new()
            .rebalance_with_capacities(&q, &pp, &loads, &caps)
            .unwrap();
        assert!(!decisions.is_empty());
        for d in &decisions {
            assert_ne!(d.to, NodeId::new(1), "no migration onto a down node");
        }
        assert!(decisions.iter().any(|d| d.from == NodeId::new(1)));

        // Total outage: nothing to do rather than an error.
        let none = DynPlanner::new()
            .rebalance_with_capacities(&q, &pp, &loads, &[0.0, 0.0, 0.0])
            .unwrap();
        assert!(none.is_empty());

        // A capacity vector shorter than the plan's node count is a typed
        // error, not an index panic.
        let err = DynPlanner::new()
            .rebalance_with_capacities(&q, &pp, &loads, &[100.0])
            .unwrap_err();
        assert!(matches!(err, RldError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn wrong_load_vector_is_rejected() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 1e6).unwrap();
        let (_, pp) = DynPlanner::new()
            .initial_plan(&q, &q.default_stats(), &cluster)
            .unwrap();
        assert!(DynPlanner::new()
            .rebalance(&q, &pp, &[1.0, 2.0], &cluster)
            .is_err());
    }
}
