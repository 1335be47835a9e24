//! Logical query plans.
//!
//! A logical plan is an *ordering* of the query's commutative operators — the
//! order in which driving-stream tuples are pushed through filters and joins.
//! Two plans with the same ordering are the same plan; the ordering is the
//! plan's identity (its *signature*), which is what the partitioning
//! algorithms compare when deciding whether a newly optimized point yielded a
//! plan they had already seen.

use rld_common::{OperatorId, Query, Result, RldError};
use std::fmt;

/// An ordering of a query's operators (the paper's `lp`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicalPlan {
    ordering: Vec<OperatorId>,
}

impl LogicalPlan {
    /// Create a plan from an operator ordering.
    pub fn new(ordering: Vec<OperatorId>) -> Self {
        Self { ordering }
    }

    /// The plan that applies operators in their declaration order.
    pub fn identity(query: &Query) -> Self {
        Self::new(query.operator_ids())
    }

    /// The operator ordering.
    pub fn ordering(&self) -> &[OperatorId] {
        &self.ordering
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.ordering.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ordering.is_empty()
    }

    /// Position of an operator in the ordering.
    #[cfg(test)]
    pub(crate) fn position_of(&self, op: OperatorId) -> Option<usize> {
        self.ordering.iter().position(|o| *o == op)
    }

    /// A short stable signature string such as `"3-2-1-0"` used in reports.
    pub fn signature(&self) -> String {
        self.ordering
            .iter()
            .map(|o| o.index().to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Validate that the plan is a permutation of exactly the query's operators.
    pub fn validate_for(&self, query: &Query) -> Result<()> {
        if self.ordering.len() != query.num_operators() {
            return Err(RldError::PlanGeneration(format!(
                "plan has {} operators but query {} has {}",
                self.ordering.len(),
                query.name,
                query.num_operators()
            )));
        }
        let mut seen = vec![false; query.num_operators()];
        for op in &self.ordering {
            let idx = op.index();
            if idx >= seen.len() {
                return Err(RldError::PlanGeneration(format!(
                    "plan references unknown operator {op}"
                )));
            }
            if seen[idx] {
                return Err(RldError::PlanGeneration(format!(
                    "plan repeats operator {op}"
                )));
            }
            seen[idx] = true;
        }
        Ok(())
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ordering.iter().enumerate() {
            if i > 0 {
                write!(f, "->")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

impl FromIterator<OperatorId> for LogicalPlan {
    fn from_iter<T: IntoIterator<Item = OperatorId>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<OperatorId> {
        v.iter().map(|i| OperatorId::new(*i)).collect()
    }

    #[test]
    fn identity_plan_matches_declaration_order() {
        let q = Query::q1_stock_monitoring();
        let p = LogicalPlan::identity(&q);
        assert_eq!(p.len(), q.num_operators());
        assert_eq!(p.ordering()[0], OperatorId::new(0));
        assert!(p.validate_for(&q).is_ok());
    }

    #[test]
    fn position_and_prefix() {
        let p = LogicalPlan::new(ids(&[2, 0, 1]));
        assert_eq!(p.position_of(OperatorId::new(0)), Some(1));
        assert_eq!(p.position_of(OperatorId::new(9)), None);
    }

    #[test]
    fn signature_and_display() {
        let p = LogicalPlan::new(ids(&[2, 0, 1]));
        assert_eq!(p.signature(), "2-0-1");
        assert_eq!(p.to_string(), "op2->op0->op1");
    }

    #[test]
    fn equality_is_by_ordering() {
        let a = LogicalPlan::new(ids(&[0, 1, 2]));
        let b = LogicalPlan::new(ids(&[0, 1, 2]));
        let c = LogicalPlan::new(ids(&[2, 1, 0]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn validation_catches_malformed_plans() {
        let q = Query::q1_stock_monitoring(); // 5 operators
        assert!(LogicalPlan::new(ids(&[0, 1, 2])).validate_for(&q).is_err());
        assert!(LogicalPlan::new(ids(&[0, 1, 2, 3, 3]))
            .validate_for(&q)
            .is_err());
        assert!(LogicalPlan::new(ids(&[0, 1, 2, 3, 7]))
            .validate_for(&q)
            .is_err());
        assert!(LogicalPlan::new(ids(&[4, 3, 2, 1, 0]))
            .validate_for(&q)
            .is_ok());
    }

    #[test]
    fn from_iterator() {
        let p: LogicalPlan = ids(&[1, 0]).into_iter().collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
