//! Robust logical solutions: sets of ε-robust plans with their robust
//! regions, and the partition of the parameter space that found them.
//!
//! WRP and ERP (Algorithms 2–3) split the space recursively, so every region
//! they accept for a plan is a leaf of one partition tree: accepted regions
//! are pairwise disjoint across the whole solution (`Region::split_at` and
//! `Region::bisect` children are disjoint and cover their parent). Their only
//! other records are single cells — the corner optima of the sub-spaces they
//! examine — and single cells are all ES and RS record. The solution keeps
//! both: the tree (internal nodes are splits, leaves are accepted regions
//! labelled with their entry, regions still queued when a search stops are
//! *open* leaves) and a cell → recorders map beside it. For any set `S` of
//! entries,
//!
//! ```text
//! |∪ regions of S| = Σ volume of the leaves labelled in S
//!                  + #recorded cells with a recorder in S that lie in no leaf labelled in S
//! ```
//!
//! and a weight is the same sum over occurrence probabilities. Every region
//! quantity — union volume, each plan's volume and weight, Fig. 14 coverage,
//! the entries covering a point, ERP's unexplored mass — is answered from
//! these two structures, with exact `u128` volumes and no cell enumeration.

use rld_paramspace::{GridPoint, OccurrenceModel, ParameterSpace, Region};
use rld_query::LogicalPlan;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{AddAssign, Range};

/// One robust logical plan together with the parameter-space regions where it
/// was verified ε-robust (its robust region, Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionEntry {
    /// The plan.
    pub plan: LogicalPlan,
    /// The regions (accepted sub-spaces and single cells) where the plan is
    /// robust, in recording order.
    pub regions: Vec<Region>,
}

impl SolutionEntry {
    /// Create an entry.
    pub fn new(plan: LogicalPlan, regions: Vec<Region>) -> Self {
        Self { plan, regions }
    }

    /// Whether the entry's robust region contains a grid point.
    pub fn covers(&self, point: &GridPoint) -> bool {
        self.regions.iter().any(|r| r.contains(point))
    }
}

/// What became of one node of the partition.
#[derive(Debug, Clone, PartialEq)]
enum NodeFate {
    /// Never examined: still queued when the search stopped.
    Open,
    /// Accepted as part of this entry's robust region.
    Leaf(usize),
    /// Split into the nodes from `first` on, which cover it exactly, at
    /// `cuts`: each cut dimension with the last index of its lower part.
    /// The children come in the order `Region::split_at` emits them —
    /// bisection is `split_at` at a point equal to `hi` in every dimension
    /// but one — so the child holding a point is found by arithmetic
    /// ([`child_slot`]), not by a scan.
    Split {
        cuts: Vec<(usize, usize)>,
        first: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    region: Region,
    state: NodeFate,
    /// Whether a cell was recorded at the `lo` / `hi` corner of this leaf.
    recorded: [bool; 2],
}

impl Node {
    fn new(region: Region) -> Self {
        Self {
            region,
            state: NodeFate::Open,
            recorded: [false; 2],
        }
    }

    /// The entry this node was accepted for, if it is an accepted leaf.
    fn entry(&self) -> Option<usize> {
        match self.state {
            NodeFate::Leaf(entry) => Some(entry),
            _ => None,
        }
    }

    /// Whether `point` is this node's `lo` (corner 0) or `hi` (corner 1).
    fn is_corner(&self, corner: usize, point: &[usize]) -> bool {
        let corner = if corner == 0 {
            &self.region.lo
        } else {
            &self.region.hi
        };
        // Element-wise, so the usual first-coordinate mismatch exits at once.
        corner.iter().zip(point).all(|(c, x)| c == x)
    }
}

/// A robust logical solution `LP_i`: the output of the §4 algorithms and the
/// input to physical plan generation (§5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustLogicalSolution {
    entries: Vec<SolutionEntry>,
    /// The partition WRP/ERP built; node 0 is the whole space. Empty for ES
    /// and RS, which record single cells only.
    nodes: Vec<Node>,
    /// Every recorded single cell → the entries that recorded it, ascending.
    cells: BTreeMap<Vec<usize>, Vec<usize>>,
    /// Exact volume of each entry's robust region, set when a solver
    /// finishes.
    volumes: Vec<u128>,
}

impl RobustLogicalSolution {
    /// Create an empty solution.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty solution whose partition starts as one open node covering
    /// `root` — the whole space, so its `lo` corner is the origin — node 0.
    pub(crate) fn partition(root: Region) -> Self {
        assert!(root.lo.iter().all(|&x| x == 0), "the root is a whole space");
        Self {
            nodes: vec![Node::new(root)],
            ..Self::default()
        }
    }

    /// The region of partition node `node`.
    pub(crate) fn region(&self, node: usize) -> &Region {
        &self.nodes[node].region
    }

    /// Split an open node into `children` — the output of
    /// `Region::split_at` or `Region::bisect` on its region, in that order —
    /// returning their node ids.
    pub(crate) fn split(&mut self, node: usize, children: Vec<Region>) -> Range<usize> {
        let parent = &self.nodes[node].region;
        // The all-lower child ends each cut dimension's lower part.
        let cuts: Vec<(usize, usize)> = (0..parent.dims())
            .filter(|&d| children[0].hi[d] < parent.hi[d])
            .map(|d| (d, children[0].hi[d]))
            .collect();
        assert!(
            children.len() == 1 << cuts.len()
                && children
                    .iter()
                    .enumerate()
                    .all(|(slot, child)| child_slot(&cuts, &child.lo) == slot),
            "children must be split_at's, in its order"
        );
        // The all-lower child shares the node's `lo` corner, the all-upper
        // one its `hi`, and so the cells recorded there.
        let [lo, hi] = self.nodes[node].recorded;
        let first = self.nodes.len();
        self.nodes.extend(children.into_iter().map(Node::new));
        self.nodes[first].recorded[0] = lo;
        self.nodes.last_mut().expect("children").recorded[1] = hi;
        self.nodes[node].state = NodeFate::Split { cuts, first };
        first..self.nodes.len()
    }

    /// Accept an open node as part of `plan`'s robust region. Returns `true`
    /// when the plan is new to the solution (a *distinct* robust plan was
    /// discovered — the event that resets ERP's aging counter).
    pub(crate) fn accept(&mut self, node: usize, plan: LogicalPlan) -> bool {
        let (entry, discovered) = self.entry_of(plan);
        self.nodes[node].state = NodeFate::Leaf(entry);
        let region = self.nodes[node].region.clone();
        self.push_region(entry, region);
        discovered
    }

    /// Record `plan` as robust at a single cell. Returns `true` when the plan
    /// is new to the solution. In a partition the cell must be a corner of
    /// the leaf that holds it — `partition_search` records only the corners
    /// of the node it examines — and it stays one under later splits (the
    /// child holding a parent's `lo` or `hi` shares that corner), which is
    /// what lets [`Self::covering_entries`] skip the cell map at every point
    /// but a leaf's recorded corners.
    pub(crate) fn record_cell(&mut self, plan: LogicalPlan, cell: &GridPoint) -> bool {
        if let Some(leaf) = self.leaf_of(&cell.indices) {
            let leaf = &mut self.nodes[leaf];
            let corner = (0..2)
                .find(|&c| leaf.is_corner(c, &cell.indices))
                .expect("a partition records cells at leaf corners only");
            leaf.recorded[corner] = true;
        }
        let (entry, discovered) = self.entry_of(plan);
        let recorders = self.cells.entry(cell.indices.clone()).or_default();
        if let Err(at) = recorders.binary_search(&entry) {
            recorders.insert(at, entry);
        }
        self.push_region(
            entry,
            Region::new(cell.indices.clone(), cell.indices.clone()),
        );
        discovered
    }

    /// Seal a solver's output: cache every entry's volume.
    pub(crate) fn finish(mut self) -> Self {
        self.volumes = self.entry_measures(Region::volume);
        self
    }

    fn entry_of(&mut self, plan: LogicalPlan) -> (usize, bool) {
        match self.entries.iter().position(|e| e.plan == plan) {
            Some(entry) => (entry, false),
            None => {
                self.entries.push(SolutionEntry::new(plan, Vec::new()));
                (self.entries.len() - 1, true)
            }
        }
    }

    fn push_region(&mut self, entry: usize, region: Region) {
        let regions = &mut self.entries[entry].regions;
        if !regions.contains(&region) {
            regions.push(region);
        }
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

    /// Every leaf of the partition with its entry — `None` for an open leaf,
    /// a region the search never examined. The leaves tile the space; ES and
    /// RS solutions have none.
    pub fn leaves(&self) -> impl Iterator<Item = (&Region, Option<usize>)> {
        self.nodes.iter().filter_map(|node| match node.state {
            NodeFate::Open => Some((&node.region, None)),
            NodeFate::Leaf(entry) => Some((&node.region, Some(entry))),
            NodeFate::Split { .. } => None,
        })
    }

    /// Exact number of grid cells in entry `entry`'s robust region.
    pub fn entry_volume(&self, entry: usize) -> u128 {
        self.volumes[entry]
    }

    /// The node id of the leaf (accepted or open) containing `point`, found
    /// by descending the partition; `None` without a partition.
    fn leaf_of(&self, point: &[usize]) -> Option<usize> {
        let root = &self.nodes.first()?.region;
        if point.len() != root.dims() || point.iter().zip(&root.hi).any(|(x, hi)| x > hi) {
            return None;
        }
        let mut node = 0;
        while let NodeFate::Split { cuts, first } = &self.nodes[node].state {
            node = first + child_slot(cuts, point);
        }
        Some(node)
    }

    /// Who claims `point`: the entry of the accepted leaf it lies in, if
    /// any, and the entries that recorded its cell. Only a leaf's corners
    /// can be recorded cells ([`Self::record_cell`]), so elsewhere in a
    /// partition the cell map is not consulted.
    fn claims(&self, point: &[usize]) -> (Option<usize>, &[usize]) {
        let leaf = self.leaf_of(point).map(|node| &self.nodes[node]);
        let recorders = match leaf {
            Some(leaf)
                if !(leaf.recorded[0] && leaf.is_corner(0, point)
                    || leaf.recorded[1] && leaf.is_corner(1, point)) =>
            {
                None
            }
            _ => self.cells.get(point),
        };
        (
            leaf.and_then(Node::entry),
            recorders.map_or(&[], Vec::as_slice),
        )
    }

    /// The entries whose robust region contains `point`, ascending, into
    /// `out` (cleared first): the entry of the leaf the point lies in, and
    /// the entries that recorded its cell. Allocation-free once `out` has
    /// warmed up — the online classifier's per-batch lookup.
    pub fn covering_entries(&self, point: &[usize], out: &mut Vec<usize>) {
        let (entry, recorders) = self.claims(point);
        out.clear();
        if recorders.is_empty() {
            out.extend(entry);
            return;
        }
        out.extend_from_slice(recorders);
        if let Some(entry) = entry {
            if let Err(at) = out.binary_search(&entry) {
                out.insert(at, entry);
            }
        }
    }

    /// Whether any entry's robust region contains `point`.
    pub fn covers(&self, point: &[usize]) -> bool {
        let (entry, recorders) = self.claims(point);
        entry.is_some() || !recorders.is_empty()
    }

    /// The entry whose robust region contains `point`, preferring the largest
    /// robust region (ties go to the latest entry) — the rule the online
    /// classifier applies to [`Self::covering_entries`] when it has no cost
    /// model.
    pub fn entry_covering(&self, point: &GridPoint) -> Option<&SolutionEntry> {
        let mut covering = Vec::new();
        self.covering_entries(&point.indices, &mut covering);
        covering
            .into_iter()
            .max_by_key(|&e| self.volumes[e])
            .map(|e| &self.entries[e])
    }

    /// The entry whose robust region is closest to `point` (Manhattan
    /// distance between region bounds and the point); ties keep the earliest
    /// entry. `None` only for an empty solution.
    pub(crate) fn nearest_entry(&self, point: &[usize]) -> Option<usize> {
        let mut nearest: Option<(usize, usize)> = None;
        for (e, entry) in self.entries.iter().enumerate() {
            let distance = entry
                .regions
                .iter()
                .map(|r| region_distance(r, point))
                .min()
                .unwrap_or(usize::MAX);
            if nearest.is_none_or(|(_, d)| distance < d) {
                nearest = Some((e, distance));
            }
        }
        nearest.map(|(e, _)| e)
    }

    /// The plan assigned to a grid point: the covering plan if any, otherwise
    /// the nearest one (`Self::nearest_entry`). Returns `None` only for an
    /// empty solution.
    pub fn plan_for(&self, point: &GridPoint) -> Option<&LogicalPlan> {
        match self.entry_covering(point) {
            Some(entry) => Some(&entry.plan),
            None => Some(&self.entries[self.nearest_entry(&point.indices)?].plan),
        }
    }

    /// Visit every piece of the claimed region once, with the entries that
    /// recorded it and the entry of the accepted leaf that already holds it:
    /// each accepted leaf (its own entry, held by none), then each recorded
    /// cell (its recorders, held by the leaf it lies in, if accepted).
    fn for_each_piece(&self, mut visit: impl FnMut(&Region, &[usize], Option<usize>)) {
        for node in &self.nodes {
            if let NodeFate::Leaf(entry) = &node.state {
                visit(&node.region, std::slice::from_ref(entry), None);
            }
        }
        let mut cell = Region::new(Vec::new(), Vec::new());
        for (point, recorders) in &self.cells {
            cell.lo.clone_from(point);
            cell.hi.clone_from(point);
            let holder = self
                .leaf_of(point)
                .and_then(|node| self.nodes[node].entry());
            visit(&cell, recorders, holder);
        }
    }

    /// `measure` summed over the union of the robust regions of the entries
    /// `member` selects: a piece counts once, unless a selected leaf holds it.
    fn union_measure<T: Default + AddAssign>(
        &self,
        member: impl Fn(usize) -> bool,
        measure: impl Fn(&Region) -> T,
    ) -> T {
        let mut total = T::default();
        self.for_each_piece(|region, recorders, holder| {
            if !holder.is_some_and(&member) && recorders.iter().any(|&e| member(e)) {
                total += measure(region);
            }
        });
        total
    }

    /// `measure` summed over each entry's robust region, in entry order.
    fn entry_measures<T: Copy + Default + AddAssign>(
        &self,
        measure: impl Fn(&Region) -> T,
    ) -> Vec<T> {
        let mut per_entry = vec![T::default(); self.entries.len()];
        self.for_each_piece(|region, recorders, holder| {
            for &entry in recorders.iter().filter(|&&e| Some(e) != holder) {
                per_entry[entry] += measure(region);
            }
        });
        per_entry
    }

    /// Fraction of the space's grid cells covered by at least one entry's
    /// *claimed* robust region (overlaps counted once). This is the cheap
    /// structural coverage; the evaluator computes true ε-robust coverage.
    pub fn claimed_coverage(&self, space: &ParameterSpace) -> f64 {
        fraction(self.union_measure(|_| true, Region::volume), space)
    }

    /// Fraction of the space's grid cells covered by the robust regions of
    /// the given entries (overlaps counted once) — Figure 14's coverage of
    /// the plans a physical plan supports.
    pub fn coverage_of(&self, space: &ParameterSpace, entries: &[usize]) -> f64 {
        let mut member = vec![false; self.entries.len()];
        for &e in entries {
            member[e] = true;
        }
        fraction(self.union_measure(|e| member[e], Region::volume), space)
    }

    /// Occurrence-probability weight of every plan (§5.2): the probability
    /// that the runtime statistics fall in its robust region, in entry order.
    pub fn plan_weights(&self, space: &ParameterSpace, model: OccurrenceModel) -> Vec<f64> {
        self.entry_measures(|region| model.region_probability(space, region))
    }

    /// Occurrence probability of the open leaves: the part of the space a
    /// search stopped before examining — ERP's missed mass when its aging
    /// counter or a call budget ends it. 0 for a search that ran to
    /// completion (WRP without a budget), and for ES and RS, which keep no
    /// partition.
    pub fn unexplored_mass(&self, space: &ParameterSpace, model: OccurrenceModel) -> f64 {
        self.leaves()
            .filter(|(_, entry)| entry.is_none())
            .fold(0.0, |mass, (region, _)| {
                mass + model.region_probability(space, region)
            })
    }

    /// Stable FNV-1a fingerprint over the solution's plans and robust
    /// regions (order-sensitive, so it is deterministic for a deterministic
    /// solver run). `SolverStats` carries it on every deployment, and
    /// `reproduce --check` gates on it: an unchanged fingerprint is an
    /// unchanged search without deep comparison.
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
}

/// A cell count as a fraction of the space.
fn fraction(volume: u128, space: &ParameterSpace) -> f64 {
    volume as f64 / space.total_cells_f64()
}

/// Which child of a split at `cuts` holds `point` (a point of the split
/// region): one bit per cut — set when the point lies above it — with the
/// first dimension most significant.
fn child_slot(cuts: &[(usize, usize)], point: &[usize]) -> usize {
    cuts.iter().fold(0, |slot, &(d, last)| {
        2 * slot + usize::from(point[d] > last)
    })
}

/// Manhattan distance from `point` to the nearest cell of `region`.
fn region_distance(region: &Region, point: &[usize]) -> usize {
    point
        .iter()
        .zip(region.lo.iter().zip(&region.hi))
        .map(|(&x, (&lo, &hi))| lo.saturating_sub(x) + x.saturating_sub(hi))
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
                self.entry_volume(i)
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

    fn cell(v: &[usize]) -> GridPoint {
        GridPoint::new(v.to_vec())
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

    /// The 9×9 space split at (4, 8) into a left half (node 1, x ≤ 4) and a
    /// right half (node 2, x ≥ 5), as WRP would.
    fn halves() -> RobustLogicalSolution {
        let mut sol = RobustLogicalSolution::partition(Region::new(vec![0, 0], vec![8, 8]));
        let children = Region::new(vec![0, 0], vec![8, 8]).split_at(&cell(&[4, 8]));
        assert_eq!(sol.split(0, children), 1..3);
        sol
    }

    #[test]
    fn add_reports_distinct_plan_discovery() {
        let mut sol = halves();
        assert!(sol.record_cell(plan(&[0, 1]), &cell(&[0, 0])));
        assert!(!sol.accept(1, plan(&[0, 1])));
        assert!(sol.accept(2, plan(&[1, 0])));
        assert_eq!(sol.len(), 2);
        assert_eq!(sol.entries()[0].regions.len(), 2);
    }

    #[test]
    fn duplicate_region_not_added_twice() {
        let mut sol = RobustLogicalSolution::new();
        sol.record_cell(plan(&[0, 1]), &cell(&[1, 1]));
        sol.record_cell(plan(&[0, 1]), &cell(&[1, 1]));
        assert_eq!(sol.entries()[0].regions.len(), 1);
        // A single-cell leaf its plan already recorded as a cell is not
        // listed again either, and is counted once.
        let mut sol = RobustLogicalSolution::partition(Region::new(vec![0, 0], vec![1, 0]));
        sol.record_cell(plan(&[0, 1]), &cell(&[0, 0]));
        let children = sol.region(0).split_at(&cell(&[0, 0]));
        sol.split(0, children);
        sol.accept(1, plan(&[0, 1]));
        let sol = sol.finish();
        assert_eq!(sol.entries()[0].regions.len(), 1);
        assert_eq!(sol.entry_volume(0), 1);
    }

    #[test]
    fn recorded_corners_survive_a_split() {
        // Cells recorded at a node's corners are still found once it splits.
        let mut sol = RobustLogicalSolution::partition(Region::new(vec![0, 0], vec![8, 8]));
        sol.record_cell(plan(&[0, 1]), &cell(&[0, 0]));
        sol.record_cell(plan(&[1, 0]), &cell(&[8, 8]));
        let children = sol.region(0).split_at(&cell(&[4, 4]));
        sol.split(0, children);
        let sol = sol.finish();
        let mut covering = Vec::new();
        sol.covering_entries(&[0, 0], &mut covering);
        assert_eq!(covering, [0]);
        sol.covering_entries(&[8, 8], &mut covering);
        assert_eq!(covering, [1]);
        assert!(!sol.covers(&[4, 4]));
    }

    #[test]
    fn covering_entry_prefers_largest_region() {
        let mut sol = halves();
        // [1, 0] records a corner cell inside [0, 1]'s larger leaf.
        sol.record_cell(plan(&[1, 0]), &cell(&[4, 8]));
        sol.accept(1, plan(&[0, 1]));
        let sol = sol.finish();
        let mut covering = Vec::new();
        sol.covering_entries(&[4, 8], &mut covering);
        assert_eq!(covering, [0, 1]);
        let e = sol.entry_covering(&cell(&[4, 8])).unwrap();
        assert_eq!(e.plan, plan(&[0, 1]));
        assert!(sol.covers(&[4, 8]) && sol.covers(&[0, 0]));
        assert!(!sol.covers(&[5, 0]), "the right half is open");
    }

    #[test]
    fn plan_for_falls_back_to_nearest() {
        let mut sol = RobustLogicalSolution::new();
        sol.record_cell(plan(&[0, 1]), &cell(&[2, 2]));
        sol.record_cell(plan(&[1, 0]), &cell(&[6, 6]));
        let sol = sol.finish();
        // A point outside both regions but near the second.
        let p = sol.plan_for(&cell(&[5, 5])).unwrap();
        assert_eq!(*p, plan(&[1, 0]));
        // Empty solution yields None.
        assert!(RobustLogicalSolution::new()
            .plan_for(&GridPoint::new(vec![0, 0]))
            .is_none());
    }

    #[test]
    fn claimed_coverage_counts_overlap_once() {
        let space = space_2d(9);
        let mut sol = halves();
        sol.record_cell(plan(&[1, 0]), &cell(&[4, 8]));
        sol.accept(1, plan(&[0, 1]));
        sol.accept(2, plan(&[1, 0]));
        let sol = sol.finish();
        assert_eq!(sol.claimed_coverage(&space), 1.0);
        // Entry 0 is [1, 0]: its right half plus its corner cell inside
        // [0, 1]'s leaf.
        assert_eq!((sol.entry_volume(0), sol.entry_volume(1)), (37, 45));
        assert_eq!(sol.coverage_of(&space, &[0]), 37.0 / 81.0);
        assert_eq!(sol.unexplored_mass(&space, OccurrenceModel::Uniform), 0.0);
        // Non-covering solution: the right half was never examined.
        let mut partial = halves();
        partial.accept(1, plan(&[0, 1]));
        let partial = partial.finish();
        assert_eq!(partial.claimed_coverage(&space), 45.0 / 81.0);
        let unexplored = partial.unexplored_mass(&space, OccurrenceModel::Uniform);
        assert!((unexplored - 36.0 / 81.0).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_matches_union_probability_for_disjoint_regions() {
        let space = space_2d(9);
        let mut sol = halves();
        sol.accept(1, plan(&[0, 1]));
        sol.accept(2, plan(&[1, 0]));
        let sol = sol.finish();
        let weights = sol.plan_weights(&space, OccurrenceModel::Uniform);
        assert_eq!(weights.len(), 2);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Normal model gives higher weight to the entry containing the centre.
        let weights_n = sol.plan_weights(&space, OccurrenceModel::Normal);
        assert!(weights_n[0] > weights_n[1] * 0.5);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let build = |cells: &[(&[usize], &[usize])]| {
            let mut sol = RobustLogicalSolution::new();
            for (p, c) in cells {
                sol.record_cell(plan(p), &cell(c));
            }
            sol.finish()
        };
        let a = build(&[(&[0, 1], &[3, 3]), (&[1, 0], &[8, 3])]);
        let same = build(&[(&[0, 1], &[3, 3]), (&[1, 0], &[8, 3])]);
        assert_eq!(a.fingerprint(), same.fingerprint());
        // A different region changes the fingerprint; so does a new plan.
        let other_region = build(&[(&[0, 1], &[3, 3]), (&[1, 0], &[8, 3]), (&[0, 1], &[3, 8])]);
        assert_ne!(a.fingerprint(), other_region.fingerprint());
        let other_plan = build(&[(&[0, 1], &[3, 3]), (&[1, 0], &[8, 3]), (&[2, 0], &[1, 1])]);
        assert_ne!(a.fingerprint(), other_plan.fingerprint());
        assert_ne!(a.fingerprint(), RobustLogicalSolution::new().fingerprint());
    }

    #[test]
    fn display_lists_plans() {
        let mut sol = RobustLogicalSolution::new();
        sol.record_cell(plan(&[0, 1]), &cell(&[1, 1]));
        let text = sol.finish().to_string();
        assert!(text.contains("1 plans"));
        assert!(text.contains("op0->op1"));
    }
}
