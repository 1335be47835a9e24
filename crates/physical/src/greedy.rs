//! GreedyPhy (Algorithm 4): greedy robust physical plan generation.
//!
//! GreedyPhy packs the *virtual worst-case plan* `lp_max` — for each operator
//! the maximum load it has under any logical plan still being supported —
//! using Largest Load First. When LLF fails, the logical plan with the lowest
//! occurrence weight (ties broken towards the plan with the heavier total
//! load, the paper's `getMinWeightPlanWithMaxOp`) is dropped from the support
//! set and the packing is retried. The result is a physical plan supporting
//! the most probable logical plans, found in linear time.
//!
//! The solve is incremental: one [`LlfPacker`] is held across all drop
//! attempts (the node sort is paid once, not per attempt), the whole drop
//! schedule is presorted once — the reference's per-attempt `min_by` scan
//! over (weight asc, total load desc) with first-of-equals tie-breaking is
//! exactly a stable sort by (weight asc, total desc, index asc), so popping
//! the schedule is O(1) per drop — and the `lp_max` vector is maintained by
//! delta: an operator's maximum is only recomputed when the dropped profile
//! was the one attaining it. All comparisons use the same float operand
//! order as a from-scratch rebuild, so placements and drop decisions are
//! bit-identical to [`crate::naive::NaiveGreedyPhy`].

use crate::cluster::Cluster;
use crate::llf::LlfPacker;
use crate::plan::PhysicalPlan;
use crate::support::{PhysicalSearchStats, SupportModel};
use crate::PhysicalPlanGenerator;
use rld_common::{Result, RldError};
use std::time::Instant;

/// The GreedyPhy physical plan generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPhy;

impl GreedyPhy {
    /// Create a GreedyPhy generator.
    pub fn new() -> Self {
        Self
    }

    /// Run GreedyPhy and also return which profile indices were kept.
    pub fn generate_with_kept(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats, Vec<usize>)> {
        // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
        let start = Instant::now();
        let packer = LlfPacker::new(cluster);
        let profiles = model.profiles();
        let num_ops = model.num_operators();
        // Per-profile total worst-case load, precomputed with the same
        // summation order the naive drop tie-break uses.
        let totals: Vec<f64> = profiles.iter().map(|p| p.loads.iter().sum()).collect();
        // The full drop schedule, presorted. The reference drops the first
        // minimum under (weight asc, total desc) from an index-ascending
        // active list each round; a stable sort with an index-ascending
        // final tie-break yields the identical sequence, making each drop a
        // pointer bump instead of an O(active) scan.
        let mut drop_order: Vec<usize> = (0..profiles.len()).collect();
        drop_order.sort_by(|a, b| {
            profiles[*a]
                .weight
                .partial_cmp(&profiles[*b].weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    totals[*b]
                        .partial_cmp(&totals[*a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(b))
        });
        let mut next_drop = 0usize;
        let mut alive = vec![true; profiles.len()];
        // lp_max over the active set, with the index of the profile attaining
        // each operator's maximum; dropping a non-attaining profile leaves
        // the maximum untouched.
        let mut lp_max = vec![0.0f64; num_ops];
        let mut argmax = vec![usize::MAX; num_ops];
        for (i, p) in profiles.iter().enumerate() {
            for (o, l) in p.loads.iter().enumerate() {
                if *l > lp_max[o] {
                    lp_max[o] = *l;
                    argmax[o] = i;
                }
            }
        }
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            if let Some(pp) = packer.pack(model.query(), &lp_max)? {
                let stats =
                    model.stats_for(&pp, cluster, start.elapsed().as_micros() as u64, attempts);
                let kept: Vec<usize> = (0..profiles.len()).filter(|i| alive[*i]).collect();
                return Ok((pp, stats, kept));
            }
            if next_drop == drop_order.len() {
                // Even the empty support set (all-zero loads) failed, which
                // can only happen for a degenerate cluster.
                return Err(RldError::Infeasible(
                    "LLF failed even with no logical plans to support".into(),
                ));
            }
            // Drop the least-weighted plan; ties go to the plan with the
            // larger total worst-case load (frees the most capacity).
            let dropped = drop_order[next_drop];
            next_drop += 1;
            alive[dropped] = false;
            // Maintain lp_max by delta: only operators whose maximum the
            // dropped profile attained need a rescan of the active set.
            for o in 0..num_ops {
                if argmax[o] == dropped {
                    lp_max[o] = 0.0;
                    argmax[o] = usize::MAX;
                    for (i, p) in profiles.iter().enumerate() {
                        if !alive[i] {
                            continue;
                        }
                        let l = p.loads[o];
                        if l > lp_max[o] {
                            lp_max[o] = l;
                            argmax[o] = i;
                        }
                    }
                }
            }
        }
    }
}

impl PhysicalPlanGenerator for GreedyPhy {
    fn name(&self) -> &'static str {
        "GreedyPhy"
    }

    fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)> {
        let (pp, stats, _) = self.generate_with_kept(model, cluster)?;
        Ok((pp, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_paramspace::OccurrenceModel;

    fn model(uncertainty: u32, steps: usize) -> (rld_common::Query, SupportModel) {
        let (q, space, solution) = crate::support::tests::build_fixture(uncertainty, steps);
        let m = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        (q, m)
    }

    #[test]
    fn ample_resources_support_all_plans() {
        let (_q, m) = model(3, 9);
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        let (pp, stats) = GreedyPhy::new().generate(&m, &cluster).unwrap();
        assert_eq!(stats.dropped_plans, 0);
        assert!((stats.score - m.total_weight()).abs() < 1e-9);
        assert_eq!(pp.num_operators(), m.num_operators());
        assert_eq!(GreedyPhy::new().name(), "GreedyPhy");
    }

    #[test]
    fn scarce_resources_drop_low_weight_plans_first() {
        let (_q, m) = model(3, 9);
        // Capacity that can hold roughly half of lp_max in total.
        let total: f64 = m.lp_max_loads().iter().sum();
        let cluster = Cluster::homogeneous(2, total * 0.35).unwrap();
        let (pp, stats, kept) = GreedyPhy::new().generate_with_kept(&m, &cluster).unwrap();
        assert_eq!(pp.num_operators(), m.num_operators());
        // Whatever was kept must actually be supported.
        for idx in &kept {
            assert!(m.plan_supported(&pp, *idx, &cluster));
        }
        // Dropped plans (if any) must have weight <= every kept plan's weight.
        if stats.dropped_plans > 0 && !kept.is_empty() {
            let min_kept = kept
                .iter()
                .map(|i| m.profiles()[*i].weight)
                .fold(f64::INFINITY, f64::min);
            let dropped_max = (0..m.profiles().len())
                .filter(|i| !kept.contains(i))
                .map(|i| m.profiles()[i].weight)
                .fold(0.0f64, f64::max);
            assert!(dropped_max <= min_kept + 1e-9);
        }
    }

    #[test]
    fn impossible_cluster_still_produces_a_partition() {
        let (_q, m) = model(2, 7);
        // Tiny capacity: no plan can be supported, but GreedyPhy must still
        // return a valid operator partition (score 0).
        let cluster = Cluster::homogeneous(2, 1e-6).unwrap();
        let (pp, stats) = GreedyPhy::new().generate(&m, &cluster).unwrap();
        assert_eq!(pp.num_operators(), m.num_operators());
        assert_eq!(stats.supported_plans, 0);
        assert_eq!(stats.score, 0.0);
    }

    #[test]
    fn more_machines_never_reduce_score() {
        let (_q, m) = model(3, 9);
        let total: f64 = m.lp_max_loads().iter().sum();
        let cap = total * 0.3;
        let mut prev_score = -1.0;
        for n in 2..=6 {
            let cluster = Cluster::homogeneous(n, cap).unwrap();
            let (_, stats) = GreedyPhy::new().generate(&m, &cluster).unwrap();
            assert!(
                stats.score + 1e-9 >= prev_score,
                "score decreased from {prev_score} to {} at n={n}",
                stats.score
            );
            prev_score = stats.score;
        }
    }
}
