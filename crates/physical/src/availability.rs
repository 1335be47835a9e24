//! Runtime availability view of a cluster.
//!
//! The compile-time [`Cluster`] describes *nominal* machine capacities; at
//! runtime nodes crash, recover, or degrade (stragglers). A [`ClusterView`]
//! layers that dynamic state over a cluster: per node, whether it is up and
//! which fraction of its nominal capacity it currently delivers. The
//! simulator maintains the view as the fault plan unfolds and hands it to
//! distribution strategies through their cluster-change hook, so failover
//! logic (migrate off dead nodes, avoid stragglers) can be written against
//! one shared notion of "what capacity is actually there right now".

use crate::cluster::Cluster;
use rld_common::NodeId;

/// Per-node availability and effective capacity over a [`Cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    nominal: Vec<f64>,
    up: Vec<bool>,
    factors: Vec<f64>,
}

impl ClusterView {
    /// A view of the cluster with every node up at full capacity.
    pub fn all_up(cluster: &Cluster) -> Self {
        let n = cluster.num_nodes();
        Self {
            nominal: cluster.capacities().to_vec(),
            up: vec![true; n],
            factors: vec![1.0; n],
        }
    }

    /// Number of nodes in the underlying cluster.
    pub fn num_nodes(&self) -> usize {
        self.nominal.len()
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up[node.index()]
    }

    /// Whether every node is up at full capacity.
    pub fn all_nodes_healthy(&self) -> bool {
        self.up.iter().all(|u| *u) && self.factors.iter().all(|f| (*f - 1.0).abs() < 1e-12)
    }

    /// The nodes that are currently down, in index order.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        self.up
            .iter()
            .enumerate()
            .filter(|(_, up)| !**up)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// The capacity the node currently delivers: nominal × degradation
    /// factor while up, zero while down.
    pub fn effective_capacity(&self, node: NodeId) -> f64 {
        if self.up[node.index()] {
            self.nominal[node.index()] * self.factors[node.index()]
        } else {
            0.0
        }
    }

    /// Effective capacities of every node, in node order (zero for down
    /// nodes) — the capacity vector availability-aware placement logic
    /// should balance against.
    pub fn effective_capacities(&self) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|i| self.effective_capacity(NodeId::new(i)))
            .collect()
    }

    /// Total effective capacity across all nodes.
    #[cfg(test)]
    pub(crate) fn available_total(&self) -> f64 {
        self.effective_capacities().iter().sum()
    }

    /// Mark a node down (crash) or up (recovery). Recovery restores the
    /// degradation factor the node last had.
    pub fn set_up(&mut self, node: NodeId, up: bool) {
        self.up[node.index()] = up;
    }

    /// Set a node's capacity degradation factor (1.0 = full speed). The
    /// factor must be positive; a dead node is modelled by [`Self::set_up`],
    /// not by a zero factor.
    pub fn set_capacity_factor(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "capacity factor must be positive and finite"
        );
        self.factors[node.index()] = factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_view_is_fully_available() {
        let c = Cluster::homogeneous(4, 100.0).unwrap();
        let v = ClusterView::all_up(&c);
        assert!(v.all_nodes_healthy());
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.available_total(), 400.0);
        assert!(v.down_nodes().is_empty());
    }

    #[test]
    fn crash_and_recovery_toggle_effective_capacity() {
        let c = Cluster::homogeneous(4, 100.0).unwrap();
        let mut v = ClusterView::all_up(&c);
        v.set_up(NodeId::new(1), false);
        assert!(!v.is_up(NodeId::new(1)));
        assert!(!v.all_nodes_healthy());
        assert_eq!(v.effective_capacity(NodeId::new(1)), 0.0);
        assert_eq!(v.available_total(), 300.0);
        assert_eq!(v.down_nodes(), vec![NodeId::new(1)]);
        v.set_up(NodeId::new(1), true);
        assert!(v.all_nodes_healthy());
        assert_eq!(v.available_total(), 400.0);
    }

    #[test]
    fn degradation_scales_capacity_and_survives_a_crash() {
        let c = Cluster::homogeneous(2, 100.0).unwrap();
        let mut v = ClusterView::all_up(&c);
        v.set_capacity_factor(NodeId::new(0), 0.25);
        assert!(!v.all_nodes_healthy());
        assert_eq!(v.effective_capacity(NodeId::new(0)), 25.0);
        assert_eq!(v.available_total(), 125.0);
        // Crash then recover: the straggler factor is still in force.
        v.set_up(NodeId::new(0), false);
        assert_eq!(v.effective_capacity(NodeId::new(0)), 0.0);
        v.set_up(NodeId::new(0), true);
        assert_eq!(v.effective_capacity(NodeId::new(0)), 25.0);
        v.set_capacity_factor(NodeId::new(0), 1.0);
        assert!(v.all_nodes_healthy());
    }

    #[test]
    #[should_panic(expected = "capacity factor must be positive")]
    fn zero_factor_is_rejected() {
        let c = Cluster::homogeneous(1, 100.0).unwrap();
        let mut v = ClusterView::all_up(&c);
        v.set_capacity_factor(NodeId::new(0), 0.0);
    }
}
