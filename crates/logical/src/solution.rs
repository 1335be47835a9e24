//! Robust logical solutions: sets of ε-robust plans with their robust regions.

use rld_paramspace::{
    region::union_cell_count, GridPoint, OccurrenceModel, ParameterSpace, Region, RegionSet,
};
use rld_query::LogicalPlan;
use std::fmt;

/// One robust logical plan together with the parameter-space regions where it
/// was verified ε-robust (its robust region, Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionEntry {
    /// The plan.
    pub plan: LogicalPlan,
    /// Regions (possibly many, possibly single cells) where the plan is robust.
    pub regions: Vec<Region>,
}

impl SolutionEntry {
    /// Create an entry.
    pub fn new(plan: LogicalPlan, regions: Vec<Region>) -> Self {
        Self { plan, regions }
    }

    /// Total number of grid cells covered by this entry (overlaps counted once).
    pub fn cell_count(&self) -> usize {
        union_cell_count(&self.regions)
    }

    /// Exact covered volume of the entry's robust region in `u128` (overlaps
    /// counted once, no overflow, no cell enumeration).
    pub fn volume(&self) -> u128 {
        RegionSet::from_regions(&self.regions).volume()
    }

    /// Whether the entry's robust region contains a grid point.
    pub fn covers(&self, point: &GridPoint) -> bool {
        self.regions.iter().any(|r| r.contains(point))
    }

    /// The occurrence-probability weight of this plan (§5.2), i.e. the
    /// probability that the runtime statistics fall in its robust region.
    pub fn occurrence_weight(&self, space: &ParameterSpace, model: OccurrenceModel) -> f64 {
        model.plan_weight(space, &self.regions)
    }
}

/// A robust logical solution `LP_i`: the output of the §4 algorithms and the
/// input to physical plan generation (§5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustLogicalSolution {
    entries: Vec<SolutionEntry>,
}

impl RobustLogicalSolution {
    /// Create an empty solution.
    pub fn new() -> Self {
        Self::default()
    }

    /// The solution's entries.
    pub fn entries(&self) -> &[SolutionEntry] {
        &self.entries
    }

    /// Number of distinct plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the solution has no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All plans, in insertion order.
    pub fn plans(&self) -> impl Iterator<Item = &LogicalPlan> {
        self.entries.iter().map(|e| &e.plan)
    }

    /// Whether the solution already contains this exact plan.
    pub fn contains_plan(&self, plan: &LogicalPlan) -> bool {
        self.entries.iter().any(|e| &e.plan == plan)
    }

    /// Add a region to a plan's robust region, inserting the plan if it is
    /// new. Returns `true` when the plan was not previously in the solution
    /// (i.e. a *distinct* robust plan was discovered — the event that resets
    /// ERP's aging counter).
    pub fn add(&mut self, plan: LogicalPlan, region: Region) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.plan == plan) {
            if !entry.regions.contains(&region) {
                entry.regions.push(region);
            }
            false
        } else {
            self.entries.push(SolutionEntry::new(plan, vec![region]));
            true
        }
    }

    /// Remove a plan (used by GreedyPhy when dropping the least important
    /// logical plan). Returns the removed entry, if present.
    pub fn remove_plan(&mut self, plan: &LogicalPlan) -> Option<SolutionEntry> {
        let idx = self.entries.iter().position(|e| &e.plan == plan)?;
        Some(self.entries.remove(idx))
    }

    /// The entry whose robust region contains `point`, preferring the entry
    /// covering it with the largest robust region (ties broken by insertion
    /// order). Used by the runtime online classifier.
    pub fn entry_covering(&self, point: &GridPoint) -> Option<&SolutionEntry> {
        self.entries
            .iter()
            .filter(|e| e.covers(point))
            .max_by_key(|e| e.volume())
    }

    /// The plan assigned to a grid point: the covering plan if any, otherwise
    /// the plan whose robust region is closest to the point (Manhattan
    /// distance between region corners and the point). Returns `None` only
    /// for an empty solution.
    pub fn plan_for(&self, point: &GridPoint) -> Option<&LogicalPlan> {
        if let Some(e) = self.entry_covering(point) {
            return Some(&e.plan);
        }
        self.entries
            .iter()
            .min_by_key(|e| {
                e.regions
                    .iter()
                    .map(|r| region_distance(r, point))
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .map(|e| &e.plan)
    }

    /// Fraction of the space's grid cells covered by at least one entry's
    /// *claimed* robust region (overlaps counted once). This is the cheap
    /// structural coverage; the evaluator computes true ε-robust coverage.
    pub fn claimed_coverage(&self, space: &ParameterSpace) -> f64 {
        RegionSet::from_regions(self.entries.iter().flat_map(|e| e.regions.iter()))
            .coverage_fraction(space)
    }

    /// Stable FNV-1a fingerprint over the solution's plans and robust
    /// regions (order-sensitive, so it is deterministic for a deterministic
    /// solver run).
    ///
    /// Downstream consumers that re-solve physical placement across repeated
    /// WRP/ERP frontier evaluations — GreedyPhy's pack memo, the
    /// `SolverStats` carried on every deployment — use this to detect an
    /// unchanged plan set without deep comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.entries.len() as u64);
        for e in &self.entries {
            for op in e.plan.ordering() {
                mix(op.index() as u64);
            }
            mix(u64::MAX); // plan/region delimiter
            mix(e.regions.len() as u64);
            for r in &e.regions {
                for v in r.lo.iter().chain(&r.hi) {
                    mix(*v as u64);
                }
            }
        }
        h
    }

    /// Occurrence-probability weight of every plan (§5.2), in entry order.
    pub fn plan_weights(&self, space: &ParameterSpace, model: OccurrenceModel) -> Vec<f64> {
        self.entries
            .iter()
            .map(|e| e.occurrence_weight(space, model))
            .collect()
    }
}

fn region_distance(region: &Region, point: &GridPoint) -> usize {
    point
        .indices
        .iter()
        .zip(region.lo.iter().zip(&region.hi))
        .map(|(x, (lo, hi))| {
            if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0
            }
        })
        .sum()
}

impl fmt::Display for RobustLogicalSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RobustLogicalSolution ({} plans):", self.len())?;
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(
                f,
                "  lp{}: {} ({} regions, {} cells)",
                i,
                e.plan,
                e.regions.len(),
                e.cell_count()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel};

    fn plan(v: &[usize]) -> LogicalPlan {
        LogicalPlan::new(v.iter().map(|i| OperatorId::new(*i)).collect())
    }

    fn space_2d(steps: usize) -> ParameterSpace {
        let estimates = vec![
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(0)),
                0.5,
                UncertaintyLevel::new(2),
            ),
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(1)),
                0.5,
                UncertaintyLevel::new(2),
            ),
        ];
        ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
    }

    #[test]
    fn add_reports_distinct_plan_discovery() {
        let mut sol = RobustLogicalSolution::new();
        assert!(sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![3, 3])));
        assert!(!sol.add(plan(&[0, 1]), Region::new(vec![4, 0], vec![8, 3])));
        assert!(sol.add(plan(&[1, 0]), Region::new(vec![0, 4], vec![8, 8])));
        assert_eq!(sol.len(), 2);
        assert_eq!(sol.entries()[0].regions.len(), 2);
    }

    #[test]
    fn duplicate_region_not_added_twice() {
        let mut sol = RobustLogicalSolution::new();
        let r = Region::new(vec![0, 0], vec![1, 1]);
        sol.add(plan(&[0, 1]), r.clone());
        sol.add(plan(&[0, 1]), r.clone());
        assert_eq!(sol.entries()[0].regions.len(), 1);
    }

    #[test]
    fn covering_entry_prefers_largest_region() {
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![2, 2]));
        sol.add(plan(&[1, 0]), Region::new(vec![0, 0], vec![8, 8]));
        let e = sol.entry_covering(&GridPoint::new(vec![1, 1])).unwrap();
        assert_eq!(e.plan, plan(&[1, 0]));
    }

    #[test]
    fn plan_for_falls_back_to_nearest() {
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![2, 2]));
        sol.add(plan(&[1, 0]), Region::new(vec![6, 6], vec![8, 8]));
        // A point outside both regions but near the second.
        let p = sol.plan_for(&GridPoint::new(vec![5, 5])).unwrap();
        assert_eq!(*p, plan(&[1, 0]));
        // Empty solution yields None.
        assert!(RobustLogicalSolution::new()
            .plan_for(&GridPoint::new(vec![0, 0]))
            .is_none());
    }

    #[test]
    fn claimed_coverage_counts_overlap_once() {
        let space = space_2d(9);
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![4, 8]));
        sol.add(plan(&[1, 0]), Region::new(vec![4, 0], vec![8, 8]));
        let cov = sol.claimed_coverage(&space);
        assert!((cov - 1.0).abs() < 1e-9);
        // Non-covering solution.
        let mut partial = RobustLogicalSolution::new();
        partial.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![3, 3]));
        assert!(partial.claimed_coverage(&space) < 0.5);
    }

    #[test]
    fn weights_sum_matches_union_probability_for_disjoint_regions() {
        let space = space_2d(9);
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![4, 8]));
        sol.add(plan(&[1, 0]), Region::new(vec![5, 0], vec![8, 8]));
        let weights = sol.plan_weights(&space, OccurrenceModel::Uniform);
        assert_eq!(weights.len(), 2);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Normal model gives higher weight to the entry containing the centre.
        let weights_n = sol.plan_weights(&space, OccurrenceModel::Normal);
        assert!(weights_n[0] > weights_n[1] * 0.5);
    }

    #[test]
    fn remove_plan() {
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![1, 1]));
        assert!(sol.remove_plan(&plan(&[9, 9])).is_none());
        let removed = sol.remove_plan(&plan(&[0, 1])).unwrap();
        assert_eq!(removed.plan, plan(&[0, 1]));
        assert!(sol.is_empty());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let mut a = RobustLogicalSolution::new();
        a.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![3, 3]));
        a.add(plan(&[1, 0]), Region::new(vec![4, 0], vec![8, 3]));
        let mut same = RobustLogicalSolution::new();
        same.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![3, 3]));
        same.add(plan(&[1, 0]), Region::new(vec![4, 0], vec![8, 3]));
        assert_eq!(a.fingerprint(), same.fingerprint());
        // A different region changes the fingerprint; so does a new plan.
        let mut other_region = same.clone();
        other_region.add(plan(&[0, 1]), Region::new(vec![0, 4], vec![3, 8]));
        assert_ne!(a.fingerprint(), other_region.fingerprint());
        let mut other_plan = a.clone();
        other_plan.add(plan(&[2, 0]), Region::new(vec![0, 0], vec![1, 1]));
        assert_ne!(a.fingerprint(), other_plan.fingerprint());
        assert_ne!(a.fingerprint(), RobustLogicalSolution::new().fingerprint());
    }

    #[test]
    fn display_lists_plans() {
        let mut sol = RobustLogicalSolution::new();
        sol.add(plan(&[0, 1]), Region::new(vec![0, 0], vec![1, 1]));
        let text = sol.to_string();
        assert!(text.contains("1 plans"));
        assert!(text.contains("op0->op1"));
    }
}
