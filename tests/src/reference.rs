//! Brute-force references for a robust solution's region queries and for
//! the compile-time rules they rest on.
//!
//! `RobustLogicalSolution` answers coverage, volumes, weights and point
//! lookups from its partition tree. [`CellScan`] recomputes the same answers
//! from nothing but `entries()[i].regions`, enumerating every cell of every
//! recorded region — the ground truth the property tests compare against.
//! [`true_coverage`] is Definition 1 written out at every cell, and
//! [`plan_cost_from_loads`] the §2.3 cost summed from the per-operator loads.

use rld_core::logical::SolutionEntry;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;

/// A solution's recorded regions, enumerated cell by cell over a space.
pub struct CellScan<'a> {
    solution: &'a RobustLogicalSolution,
    shape: Vec<usize>,
    /// Per grid cell (row-major, last dimension fastest — the order of
    /// `ParameterSpace::iter_grid`): the entries whose regions contain it,
    /// ascending.
    owners: Vec<Vec<usize>>,
    /// Per entry: the number of cells its regions cover, overlaps once.
    pub volumes: Vec<u128>,
}

impl<'a> CellScan<'a> {
    /// Enumerate every region of every entry of `solution` over `space`.
    pub fn new(space: &ParameterSpace, solution: &'a RobustLogicalSolution) -> Self {
        let shape: Vec<usize> = space.dimensions().iter().map(|d| d.steps).collect();
        let mut owners = vec![Vec::new(); space.total_cells()];
        let mut volumes = vec![0u128; solution.len()];
        for (e, entry) in solution.entries().iter().enumerate() {
            for region in &entry.regions {
                for cell in region.cells() {
                    let cell_owners: &mut Vec<usize> = &mut owners[linear(&shape, &cell)];
                    if cell_owners.last() != Some(&e) {
                        cell_owners.push(e);
                        volumes[e] += 1;
                    }
                }
            }
        }
        Self {
            solution,
            shape,
            owners,
            volumes,
        }
    }

    /// The entries whose regions contain `cell`, ascending.
    pub fn covering(&self, cell: &GridPoint) -> &[usize] {
        &self.owners[linear(&self.shape, cell)]
    }

    /// Number of cells covered by the regions of the entries in `subset`.
    pub fn union_volume(&self, subset: &[usize]) -> u128 {
        self.owners
            .iter()
            .filter(|owners| owners.iter().any(|e| subset.contains(e)))
            .count() as u128
    }

    /// The entry covering `point` with the largest robust region, ties to the
    /// latest entry — the classifier's lookup before the partition tree.
    pub fn entry_covering(&self, point: &GridPoint) -> Option<&'a SolutionEntry> {
        let entries = self.solution.entries();
        self.covering(point)
            .iter()
            .max_by_key(|&&e| self.volumes[e])
            .map(|&e| &entries[e])
    }

    /// The plan routed to `point`: the covering plan, else the plan of the
    /// entry whose regions come closest (Manhattan distance; ties to the
    /// earliest entry).
    pub fn plan_for(&self, point: &GridPoint) -> Option<&'a LogicalPlan> {
        if let Some(entry) = self.entry_covering(point) {
            return Some(&entry.plan);
        }
        self.solution
            .entries()
            .iter()
            .min_by_key(|e| {
                e.regions
                    .iter()
                    .map(|r| distance(r, point))
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .map(|e| &e.plan)
    }
}

/// True ε-robust coverage of `solution`, cell by cell: at every grid cell
/// optimize, cost the optimum and each plan with [`CostModel::plan_cost`],
/// and count the cell when some plan's cost is at most `(1+ε)` times the
/// optimum's (Definition 1, with a 1e-12 allowance for rounding). The
/// optimizer is this function's own, and an empty solution covers nothing.
pub fn true_coverage(
    query: &Query,
    space: &ParameterSpace,
    epsilon: f64,
    solution: &RobustLogicalSolution,
) -> f64 {
    if solution.is_empty() {
        return 0.0;
    }
    let optimizer = JoinOrderOptimizer::new(query.clone());
    let cost_model = CostModel::new(query.clone());
    let mut covered = 0usize;
    for cell in space.iter_grid() {
        let stats = space.snapshot_at(&cell);
        let optimum = optimizer.optimize(&stats).unwrap();
        let optimal = cost_model.plan_cost(&optimum, &stats).unwrap();
        for plan in solution.plans() {
            let cost = cost_model.plan_cost(plan, &stats).unwrap();
            if cost <= (1.0 + epsilon) * optimal + 1e-12 {
                covered += 1;
                break;
            }
        }
    }
    covered as f64 / space.total_cells() as f64
}

/// A plan's cost as [`CostModel::operator_loads`] summed in plan order,
/// starting from 0.
pub fn plan_cost_from_loads(
    cost_model: &CostModel,
    plan: &LogicalPlan,
    stats: &StatsSnapshot,
) -> f64 {
    let loads = cost_model.operator_loads(plan, stats).unwrap();
    plan.ordering()
        .iter()
        .fold(0.0, |total, op| total + loads[op.index()])
}

/// Row-major index of a grid cell.
fn linear(shape: &[usize], cell: &GridPoint) -> usize {
    shape
        .iter()
        .zip(&cell.indices)
        .fold(0, |acc, (steps, x)| acc * steps + x)
}

fn distance(region: &Region, point: &GridPoint) -> usize {
    point
        .indices
        .iter()
        .zip(region.lo.iter().zip(&region.hi))
        .map(|(&x, (&lo, &hi))| lo.saturating_sub(x) + x.saturating_sub(hi))
        .sum()
}
