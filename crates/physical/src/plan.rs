//! Physical plans: operator-to-machine assignments (Definition 3).

use crate::cluster::Cluster;
use rld_common::{NodeId, OperatorId, Query, Result, RldError};
use std::fmt;

/// An assignment of every query operator to exactly one cluster node
/// (the paper's `pp`; Definition 3 conditions 2 and 3 — partition of the
/// operator set — are structural invariants of this type, while condition 1 —
/// per-node capacity — depends on the logical plans being supported and is
/// checked by [`crate::support::SupportModel`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhysicalPlan {
    /// `assignment[node]` is the sorted set of operators placed on that node.
    assignment: Vec<Vec<OperatorId>>,
}

impl PhysicalPlan {
    /// Build a plan from per-node operator sets.
    ///
    /// Validates the partition conditions: every operator of `query` appears
    /// exactly once, and no unknown operator appears.
    pub fn new(query: &Query, mut assignment: Vec<Vec<OperatorId>>) -> Result<Self> {
        let mut seen = vec![false; query.num_operators()];
        for ops in &assignment {
            for op in ops {
                let idx = op.index();
                if idx >= seen.len() {
                    return Err(RldError::InvalidArgument(format!(
                        "physical plan references unknown operator {op}"
                    )));
                }
                if seen[idx] {
                    return Err(RldError::InvalidArgument(format!(
                        "operator {op} assigned to more than one node"
                    )));
                }
                seen[idx] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(RldError::InvalidArgument(format!(
                "operator op{missing} is not assigned to any node"
            )));
        }
        for ops in &mut assignment {
            ops.sort();
        }
        Ok(Self { assignment })
    }

    /// Build a plan from a flat `operator index → node` mapping.
    pub fn from_mapping(query: &Query, node_of: &[NodeId], num_nodes: usize) -> Result<Self> {
        if node_of.len() != query.num_operators() {
            return Err(RldError::InvalidArgument(format!(
                "mapping covers {} operators but query has {}",
                node_of.len(),
                query.num_operators()
            )));
        }
        let mut assignment = vec![Vec::new(); num_nodes];
        for (op_idx, node) in node_of.iter().enumerate() {
            if node.index() >= num_nodes {
                return Err(RldError::InvalidArgument(format!(
                    "operator op{op_idx} mapped to unknown node {node}"
                )));
            }
            assignment[node.index()].push(OperatorId::new(op_idx));
        }
        Self::new(query, assignment)
    }

    /// Number of nodes in the assignment (including empty ones).
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// Operators placed on a node.
    pub fn operators_on(&self, node: NodeId) -> &[OperatorId] {
        &self.assignment[node.index()]
    }

    /// The node hosting an operator.
    pub fn node_of(&self, op: OperatorId) -> Option<NodeId> {
        self.assignment
            .iter()
            .position(|ops| ops.contains(&op))
            .map(NodeId::new)
    }

    /// All (node, operators) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[OperatorId])> {
        self.assignment
            .iter()
            .enumerate()
            .map(|(i, ops)| (NodeId::new(i), ops.as_slice()))
    }

    /// Only the (node, operators) pairs that actually host operators.
    ///
    /// Capacity checks over wide clusters use this: a plan on 512 nodes has
    /// at most `num_operators()` occupied entries, so probing occupied nodes
    /// is O(operators) instead of O(nodes).
    pub fn occupied(&self) -> impl Iterator<Item = (NodeId, &[OperatorId])> {
        self.iter().filter(|(_, ops)| !ops.is_empty())
    }

    /// Total number of operators assigned.
    pub fn num_operators(&self) -> usize {
        self.assignment.iter().map(Vec::len).sum()
    }

    /// Number of nodes that actually host at least one operator.
    pub fn used_nodes(&self) -> usize {
        self.assignment.iter().filter(|ops| !ops.is_empty()).count()
    }

    /// Whether the plan fits the given cluster (same or fewer nodes).
    pub fn fits_cluster(&self, cluster: &Cluster) -> bool {
        self.num_nodes() <= cluster.num_nodes()
    }

    /// Produce a copy migrated so that `op` runs on `target` instead of its
    /// current node (used by the DYN baseline). Returns an error if the
    /// operator is unknown or the target node does not exist in the plan.
    pub fn with_operator_moved(&self, op: OperatorId, target: NodeId) -> Result<PhysicalPlan> {
        if target.index() >= self.assignment.len() {
            return Err(RldError::NotFound(format!("node {target}")));
        }
        let source = self
            .node_of(op)
            .ok_or_else(|| RldError::NotFound(format!("operator {op}")))?;
        let mut assignment = self.assignment.clone();
        assignment[source.index()].retain(|o| *o != op);
        assignment[target.index()].push(op);
        assignment[target.index()].sort();
        Ok(PhysicalPlan { assignment })
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ops) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "n{i}:{{")?;
            for (j, op) in ops.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{op}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(v: &[usize]) -> Vec<OperatorId> {
        v.iter().map(|i| OperatorId::new(*i)).collect()
    }

    #[test]
    fn valid_partition_accepted() {
        let q = Query::q1_stock_monitoring();
        let pp = PhysicalPlan::new(&q, vec![ops(&[0, 2]), ops(&[1, 3, 4])]).unwrap();
        assert_eq!(pp.num_nodes(), 2);
        assert_eq!(pp.num_operators(), 5);
        assert_eq!(pp.used_nodes(), 2);
        assert_eq!(pp.node_of(OperatorId::new(3)), Some(NodeId::new(1)));
        assert_eq!(pp.operators_on(NodeId::new(0)), &ops(&[0, 2])[..]);
    }

    #[test]
    fn missing_or_duplicate_operator_rejected() {
        let q = Query::q1_stock_monitoring();
        assert!(PhysicalPlan::new(&q, vec![ops(&[0, 1]), ops(&[2, 3])]).is_err());
        assert!(PhysicalPlan::new(&q, vec![ops(&[0, 1, 2]), ops(&[2, 3, 4])]).is_err());
        assert!(PhysicalPlan::new(&q, vec![ops(&[0, 1, 2, 3, 4, 7])]).is_err());
    }

    #[test]
    fn from_mapping_round_trips() {
        let q = Query::q1_stock_monitoring();
        let mapping = vec![
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(0),
            NodeId::new(2),
            NodeId::new(1),
        ];
        let pp = PhysicalPlan::from_mapping(&q, &mapping, 3).unwrap();
        for (op_idx, node) in mapping.iter().enumerate() {
            assert_eq!(pp.node_of(OperatorId::new(op_idx)), Some(*node));
        }
        assert!(PhysicalPlan::from_mapping(&q, &mapping, 2).is_err());
        assert!(PhysicalPlan::from_mapping(&q, &mapping[..3], 3).is_err());
    }

    #[test]
    fn empty_nodes_are_allowed() {
        let q = Query::q1_stock_monitoring();
        let pp = PhysicalPlan::new(&q, vec![ops(&[0, 1, 2, 3, 4]), vec![], vec![]]).unwrap();
        assert_eq!(pp.num_nodes(), 3);
        assert_eq!(pp.used_nodes(), 1);
        let cluster = Cluster::homogeneous(3, 100.0).unwrap();
        assert!(pp.fits_cluster(&cluster));
        let small = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(!pp.fits_cluster(&small));
    }

    #[test]
    fn operator_migration() {
        let q = Query::q1_stock_monitoring();
        let pp = PhysicalPlan::new(&q, vec![ops(&[0, 2]), ops(&[1, 3, 4])]).unwrap();
        let moved = pp
            .with_operator_moved(OperatorId::new(2), NodeId::new(1))
            .unwrap();
        assert_eq!(moved.node_of(OperatorId::new(2)), Some(NodeId::new(1)));
        assert_eq!(moved.num_operators(), 5);
        assert!(pp
            .with_operator_moved(OperatorId::new(2), NodeId::new(9))
            .is_err());
    }

    #[test]
    fn display_is_compact() {
        let q = Query::q1_stock_monitoring();
        let pp = PhysicalPlan::new(&q, vec![ops(&[0]), ops(&[1, 2, 3, 4])]).unwrap();
        let text = pp.to_string();
        assert!(text.contains("n0:{op0}"));
        assert!(text.contains("n1:{op1,op2,op3,op4}"));
    }
}
