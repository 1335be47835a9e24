//! The concrete distribution strategies compared at runtime (§6.5).
//!
//! Each strategy implements [`crate::strategy::DistributionStrategy`] and can
//! therefore be driven by [`crate::simulator::Simulator`] interchangeably:
//!
//! * [`RldStrategy`] — the paper's contribution: a fixed robust physical
//!   plan, per-batch logical-plan classification, no migration ever.
//! * [`RodStrategy`] — Resilient Operator Distribution: one plan, one static
//!   placement, no adaptation at all.
//! * [`DynStrategy`] — Borealis-style dynamic load distribution: one plan,
//!   periodic operator migration off overloaded nodes.
//! * [`HybridStrategy`] — RLD's classification plus DYN-style migration, but
//!   only when the monitored statistics escape every robust region — the
//!   adaptivity middle ground Strider-style systems argue for.

mod dynamic;
mod hybrid;
mod rld;
mod rod;

pub use dynamic::DynStrategy;
pub use hybrid::HybridStrategy;
pub use rld::RldStrategy;
pub use rod::RodStrategy;

use crate::strategy::RuntimeContext;
use rld_common::{NodeId, Query, Result, StatsSnapshot};
use rld_physical::{ClusterView, DynPlanner, MigrationDecision, PhysicalPlan};
use rld_query::LogicalPlan;

/// The per-node capacity vector a rebalance round should balance against:
/// the availability view's effective capacities when the strategy has been
/// told about cluster changes, the nominal cluster capacities otherwise.
pub(crate) fn rebalance_capacities(
    ctx: &RuntimeContext<'_>,
    view: Option<&ClusterView>,
) -> Vec<f64> {
    match view {
        Some(v) => v.effective_capacities(),
        None => ctx.cluster.capacities().to_vec(),
    }
}

/// One DYN-style rebalance round, shared by [`DynStrategy`] and
/// [`HybridStrategy`]'s fallback so the two can never silently diverge:
/// estimate per-operator loads for `plan` at the monitored statistics, ask
/// the controller for migrations against the given per-node capacities
/// (zero = node unavailable), and apply them to `physical`.
pub(crate) fn rebalance_round(
    ctx: &RuntimeContext<'_>,
    monitored: &StatsSnapshot,
    plan: &LogicalPlan,
    physical: &mut PhysicalPlan,
    capacities: &[f64],
) -> Result<Vec<MigrationDecision>> {
    let loads = ctx.cost_model.operator_loads(plan, monitored)?;
    let decisions = DynPlanner::rebalance_with_capacities(ctx.query, physical, &loads, capacities)?;
    for d in &decisions {
        *physical = physical.with_operator_moved(d.operator, d.to)?;
    }
    Ok(decisions)
}

/// Failover: migrate every operator placed on a down node to the up node
/// with the most effective-capacity headroom, shared by [`DynStrategy`] and
/// [`HybridStrategy`]'s cluster-change reactions. Unlike a regular rebalance
/// round this moves an operator even when no target has spare headroom —
/// an overloaded node still makes progress, a dead one loses everything.
/// Returns no decisions during a total outage (nowhere to go). Decisions
/// are applied to `physical` in operator order, so the result is
/// deterministic.
pub(crate) fn evacuate_down_nodes(
    query: &Query,
    physical: &mut PhysicalPlan,
    op_loads: &[f64],
    view: &ClusterView,
) -> Result<Vec<MigrationDecision>> {
    let mut node_loads = vec![0.0f64; view.num_nodes()];
    for op in query.operator_ids() {
        if let Some(node) = physical.node_of(op) {
            node_loads[node.index()] += op_loads[op.index()];
        }
    }
    let mut decisions = Vec::new();
    for op in query.operator_ids() {
        let Some(from) = physical.node_of(op) else {
            continue;
        };
        if view.is_up(from) {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, load) in node_loads.iter().enumerate() {
            let node = NodeId::new(i);
            if !view.is_up(node) {
                continue;
            }
            let headroom = view.effective_capacity(node) - load;
            if best.is_none_or(|(_, h)| headroom > h + 1e-12) {
                best = Some((i, headroom));
            }
        }
        let Some((to_idx, _)) = best else {
            return Ok(decisions); // total outage: nothing can host anything
        };
        let to = NodeId::new(to_idx);
        *physical = physical.with_operator_moved(op, to)?;
        node_loads[from.index()] -= op_loads[op.index()];
        node_loads[to_idx] += op_loads[op.index()];
        decisions.push(MigrationDecision {
            operator: op,
            from,
            to,
            state_bytes: query.operator(op)?.state_bytes,
        });
    }
    Ok(decisions)
}
