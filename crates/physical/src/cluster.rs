//! Cluster resource descriptions.
//!
//! The paper assumes a shared-nothing homogeneous cluster (§2.1); each node
//! `n_i` has a resource limit `r_i` expressed in the same cost units per
//! second as the cost model's operator loads.

use rld_common::{NodeId, Result, RldError};

/// A cluster of compute nodes with per-node capacity limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    capacities: Vec<f64>,
}

impl Cluster {
    /// Create a cluster from explicit per-node capacities.
    pub fn new(capacities: Vec<f64>) -> Result<Self> {
        if capacities.is_empty() {
            return Err(RldError::InvalidArgument(
                "a cluster needs at least one node".into(),
            ));
        }
        if capacities.iter().any(|c| !(c.is_finite() && *c > 0.0)) {
            return Err(RldError::InvalidArgument(
                "node capacities must be positive and finite".into(),
            ));
        }
        Ok(Self { capacities })
    }

    /// Create a homogeneous cluster of `n` nodes with the given capacity each
    /// (the configuration the paper evaluates).
    pub fn homogeneous(n: usize, capacity: f64) -> Result<Self> {
        Self::new(vec![capacity; n])
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of a node.
    pub fn capacity(&self, node: NodeId) -> f64 {
        self.capacities[node.index()]
    }

    /// All capacities in node order.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Total capacity of the cluster.
    pub fn total_capacity(&self) -> f64 {
        self.capacities.iter().sum()
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.capacities.len()).map(NodeId::new).collect()
    }

    /// Whether every node has the same capacity.
    pub(crate) fn is_homogeneous(&self) -> bool {
        self.capacities
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster() {
        let c = Cluster::homogeneous(4, 100.0).unwrap();
        assert_eq!(c.num_nodes(), 4);
        assert!(c.is_homogeneous());
        assert_eq!(c.total_capacity(), 400.0);
        assert_eq!(c.capacity(NodeId::new(2)), 100.0);
        assert_eq!(c.node_ids().len(), 4);
    }

    #[test]
    fn heterogeneous_cluster() {
        let c = Cluster::new(vec![100.0, 50.0]).unwrap();
        assert!(!c.is_homogeneous());
        assert_eq!(c.capacity(NodeId::new(1)), 50.0);
    }

    #[test]
    fn invalid_clusters_rejected() {
        assert!(Cluster::new(vec![]).is_err());
        assert!(Cluster::new(vec![0.0]).is_err());
        assert!(Cluster::new(vec![-5.0, 10.0]).is_err());
        assert!(Cluster::new(vec![f64::NAN]).is_err());
        assert!(Cluster::homogeneous(0, 10.0).is_err());
    }
}
