//! Largest Load First (LLF) list scheduling.
//!
//! The packing primitive used by GreedyPhy (the paper calls it LLF / Longest
//! Processing Time): operators are sorted by decreasing load and assigned one
//! by one to the node with the most remaining capacity. Returns `None` when
//! some operator does not fit anywhere — the signal that makes GreedyPhy drop
//! a logical plan.
//!
//! The packer exploits that a pack only ever *touches* at most one node per
//! operator: nodes are pre-sorted once by `(capacity desc, node id desc)`, so
//! the best still-pristine node is always the next entry of that order, and
//! the handful of touched nodes (≤ number of operators) are scanned directly.
//! That turns the naive per-operator scan over all `N` nodes into work
//! proportional to the operator count — the difference between O(ops·N) and
//! O(ops²) per pack on a 512-node cluster. Placements are bit-identical to
//! the naive scan: the scan's `max_by` keeps the *last* maximum, i.e. the
//! highest node id among equal headrooms, which is exactly the
//! `(headroom, node id)` lexicographic maximum the packer computes.

use crate::cluster::Cluster;
use crate::plan::PhysicalPlan;
use rld_common::{NodeId, OperatorId, Query, Result};

/// A reusable LLF packing context for one cluster.
///
/// Construction sorts the cluster's nodes once; every subsequent
/// [`LlfPacker::pack`] call runs in time proportional to the operator count,
/// not the node count. GreedyPhy holds one packer across all of its drop
/// attempts so the sort is amortized over the whole solve.
#[derive(Debug, Clone)]
pub(crate) struct LlfPacker {
    /// Node indices sorted by `(capacity desc, node id desc)`. The first
    /// entry not yet consumed by a pack is always the best pristine node
    /// under LLF's tie rule (highest node id wins among equal headrooms).
    order: Vec<usize>,
    capacities: Vec<f64>,
}

impl LlfPacker {
    /// Build a packer for a cluster (sorts the nodes once).
    pub fn new(cluster: &Cluster) -> Self {
        let capacities = cluster.capacities().to_vec();
        // Non-decreasing capacities (homogeneous clusters included): the
        // `(capacity desc, node id desc)` comparator is a total order, and
        // reverse node-id order is its unique sorted result — skip the
        // float-comparator sort entirely.
        let order: Vec<usize> = if capacities.windows(2).all(|w| w[0] <= w[1]) {
            (0..capacities.len()).rev().collect()
        } else {
            let mut order: Vec<usize> = (0..capacities.len()).collect();
            order.sort_by(|a, b| {
                capacities[*b]
                    .partial_cmp(&capacities[*a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.cmp(a))
            });
            order
        };
        Self { order, capacities }
    }

    /// Assign operators to nodes by Largest Load First.
    ///
    /// `loads[i]` is the load of operator `op_i`. Returns `Ok(None)` when the
    /// loads cannot be packed within the cluster's capacities.
    pub(crate) fn pack(&self, query: &Query, loads: &[f64]) -> Result<Option<PhysicalPlan>> {
        assert_eq!(
            loads.len(),
            query.num_operators(),
            "one load per operator required"
        );
        let mut op_order: Vec<usize> = (0..loads.len()).collect();
        op_order.sort_by(|a, b| {
            loads[*b]
                .partial_cmp(&loads[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });

        // Nodes that have received at least one operator, with their
        // remaining headroom. Every touched node was consumed from the front
        // of `order`, so `order[fresh..]` is exactly the pristine set.
        let mut touched: Vec<(usize, f64)> = Vec::with_capacity(loads.len());
        let mut fresh = 0usize;
        let mut node_of = vec![NodeId::new(0); loads.len()];
        for op_idx in op_order {
            // Lexicographic max over (headroom, node id): scan the touched
            // nodes, then compare against the best pristine node.
            let mut best: Option<(usize, f64, usize)> = None; // (touched pos, headroom, node)
            for (pos, &(node, rem)) in touched.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((_, brem, bnode)) => rem > brem || (rem == brem && node > bnode),
                };
                if better {
                    best = Some((pos, rem, node));
                }
            }
            let pristine = self.order.get(fresh).map(|n| (*n, self.capacities[*n]));
            let take_pristine = match (best, pristine) {
                (None, Some(_)) => true,
                (_, None) => false,
                (Some((_, brem, bnode)), Some((fnode, frem))) => {
                    frem > brem || (frem == brem && fnode > bnode)
                }
            };
            let best_remaining = if take_pristine {
                pristine.expect("cluster has at least one node").1
            } else {
                best.expect("cluster has at least one node").1
            };
            if loads[op_idx] > best_remaining + 1e-9 {
                return Ok(None);
            }
            if take_pristine {
                let node = self.order[fresh];
                fresh += 1;
                touched.push((node, self.capacities[node] - loads[op_idx]));
                node_of[op_idx] = NodeId::new(node);
            } else {
                let (pos, _, node) = best.expect("touched node selected");
                touched[pos].1 -= loads[op_idx];
                node_of[op_idx] = NodeId::new(node);
            }
        }
        Ok(Some(PhysicalPlan::from_mapping(
            query,
            &node_of,
            self.capacities.len(),
        )?))
    }
}

/// Assign operators to nodes by Largest Load First.
///
/// `loads[i]` is the load of operator `op_i`. Returns `Ok(None)` when the
/// loads cannot be packed within the cluster's capacities. One-shot wrapper
/// around `LlfPacker`; callers that pack the same cluster repeatedly
/// (GreedyPhy) should hold a packer instead.
pub fn llf_assign(query: &Query, loads: &[f64], cluster: &Cluster) -> Result<Option<PhysicalPlan>> {
    LlfPacker::new(cluster).pack(query, loads)
}

/// Per-node total load of a physical plan under a load vector.
pub fn node_loads(pp: &PhysicalPlan, loads: &[f64]) -> Vec<f64> {
    pp.iter()
        .map(|(_, ops)| ops.iter().map(|op: &OperatorId| loads[op.index()]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> Query {
        Query::q1_stock_monitoring()
    }

    #[test]
    fn llf_balances_loads() {
        let q = q1();
        let loads = vec![50.0, 40.0, 30.0, 20.0, 10.0];
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        let pp = llf_assign(&q, &loads, &cluster).unwrap().unwrap();
        let per_node = node_loads(&pp, &loads);
        let total: f64 = per_node.iter().sum();
        assert!((total - 150.0).abs() < 1e-9);
        // LLF on these loads yields 80/70 (or 70/80): well balanced, both under capacity.
        assert!(per_node.iter().all(|l| *l <= 100.0 + 1e-9));
        assert!((per_node[0] - per_node[1]).abs() <= 10.0 + 1e-9);
    }

    #[test]
    fn llf_detects_infeasibility() {
        let q = q1();
        let loads = vec![80.0, 80.0, 80.0, 10.0, 10.0];
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(llf_assign(&q, &loads, &cluster).unwrap().is_none());
        // A single operator larger than any node.
        let loads = vec![150.0, 1.0, 1.0, 1.0, 1.0];
        assert!(llf_assign(&q, &loads, &cluster).unwrap().is_none());
    }

    #[test]
    fn llf_handles_zero_loads() {
        let q = q1();
        let loads = vec![0.0; 5];
        let cluster = Cluster::homogeneous(3, 10.0).unwrap();
        let pp = llf_assign(&q, &loads, &cluster).unwrap().unwrap();
        assert_eq!(pp.num_operators(), 5);
    }

    #[test]
    fn llf_respects_heterogeneous_capacity() {
        let q = q1();
        let loads = vec![90.0, 5.0, 5.0, 5.0, 5.0];
        // Only the big node can take op0.
        let cluster = Cluster::new(vec![100.0, 20.0]).unwrap();
        let pp = llf_assign(&q, &loads, &cluster).unwrap().unwrap();
        assert_eq!(pp.node_of(OperatorId::new(0)), Some(NodeId::new(0)));
        let per_node = node_loads(&pp, &loads);
        assert!(per_node[0] <= 100.0 + 1e-9);
        assert!(per_node[1] <= 20.0 + 1e-9);
    }

    #[test]
    fn llf_uses_more_nodes_when_needed() {
        let q = q1();
        let loads = vec![60.0, 60.0, 60.0, 60.0, 60.0];
        let cluster = Cluster::homogeneous(5, 100.0).unwrap();
        let pp = llf_assign(&q, &loads, &cluster).unwrap().unwrap();
        assert_eq!(pp.used_nodes(), 5);
    }

    #[test]
    fn packer_is_reusable_across_load_vectors() {
        let q = q1();
        let cluster = Cluster::new(vec![100.0, 20.0, 100.0, 50.0]).unwrap();
        let packer = LlfPacker::new(&cluster);
        for loads in [
            vec![50.0, 40.0, 30.0, 20.0, 10.0],
            vec![90.0, 5.0, 5.0, 5.0, 5.0],
            vec![0.0; 5],
        ] {
            let a = packer.pack(&q, &loads).unwrap();
            let b = llf_assign(&q, &loads, &cluster).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "one load per operator required")]
    fn llf_panics_on_wrong_load_vector() {
        let q = q1();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        let _ = llf_assign(&q, &[1.0, 2.0], &cluster);
    }
}
