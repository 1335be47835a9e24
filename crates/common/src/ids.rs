//! Strongly-typed identifiers for operators, streams, nodes and plans.
//!
//! Using newtypes instead of bare `usize` prevents the classic bug of
//! indexing a node table with an operator id. All ids are small dense
//! integers so they can be used directly as `Vec` indices.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub usize);

        impl $name {
            /// Create a new id from a dense index.
            pub const fn new(index: usize) -> Self {
                Self(index)
            }

            /// The underlying dense index.
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                Self(v)
            }
        }

        impl From<$name> for usize {
            fn from(v: $name) -> usize {
                v.0
            }
        }
    };
}

define_id!(
    /// Identifier of a query operator (`op0`, `op1`, ...).
    OperatorId,
    "op"
);
define_id!(
    /// Identifier of an input stream (`s0`, `s1`, ...).
    StreamId,
    "s"
);
define_id!(
    /// Identifier of a compute node / machine in the cluster (`n0`, `n1`, ...).
    NodeId,
    "n"
);
define_id!(
    /// Identifier of a logical plan produced by the optimizer (`lp0`, `lp1`, ...).
    PlanId,
    "lp"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(OperatorId::new(3).to_string(), "op3");
        assert_eq!(StreamId::new(0).to_string(), "s0");
        assert_eq!(NodeId::new(12).to_string(), "n12");
        assert_eq!(PlanId::new(7).to_string(), "lp7");
    }

    #[test]
    fn conversions_round_trip() {
        let id = OperatorId::from(5usize);
        assert_eq!(usize::from(id), 5);
        assert_eq!(id.index(), 5);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(OperatorId::new(1) < OperatorId::new(2));
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }
}
