//! Property tests for the robust solution's partition-tree accounting.
//!
//! Every region quantity the solution answers from its partition tree and
//! cell map — claimed coverage, each plan's volume and weight, the coverage
//! of entry subsets (Fig. 14), the entries covering a point, the routed plan,
//! the unexplored mass — must agree with enumerating the cells of each
//! entry's recorded regions ([`CellScan`]). The solutions come from every
//! logical solver on random Q1/Q2 spaces: WRP, ERP at the default and a
//! small δ, WRP and ERP stopped by a call budget (so the tree keeps open
//! leaves), ES and RS.

use proptest::prelude::*;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;
use rld_tests::reference::CellScan;

/// One random configuration: a space and the solver knobs.
struct Case {
    query: Query,
    space: ParameterSpace,
    epsilon: f64,
    budget: usize,
    seed: u64,
}

fn arbitrary_case() -> impl Strategy<Value = Case> {
    (
        (0u8..2, 1usize..5, 3usize..10, 1u32..5),
        (0.05f64..0.5, 2usize..10, 0u64..10_000),
    )
        .prop_map(|((q, dims, steps, u), (epsilon, budget, seed))| {
            let query = if q == 0 {
                Query::q1_stock_monitoring()
            } else {
                Query::q2_ten_way_join()
            };
            let estimates = query
                .selectivity_estimates(dims, UncertaintyLevel::new(u))
                .unwrap();
            let space =
                ParameterSpace::from_estimates(&estimates, query.default_stats(), steps).unwrap();
            Case {
                query,
                space,
                epsilon,
                budget,
                seed,
            }
        })
}

/// Every solver's solution for the case, labelled. Budgeted runs get fresh
/// generators: a warm optimum memo would make their calls free.
fn solve_all(case: &Case) -> Vec<(String, RobustLogicalSolution, SearchStats)> {
    let optimizer = JoinOrderOptimizer::new(case.query.clone());
    let space = &case.space;
    let wrp = || WeightedRobustPartitioning::new(&optimizer, space, case.epsilon);
    let default_delta = ErpConfig::with_epsilon(case.epsilon);
    let small_delta = ErpConfig {
        area_delta: 0.02,
        ..default_delta
    };
    let erp = |config| EarlyTerminatedRobustPartitioning::new(&optimizer, space, config);
    let run = |label: &str, generator: &dyn LogicalPlanGenerator, budget: Option<usize>| {
        let (solution, stats) = generator.generate(budget).unwrap();
        (label.to_string(), solution, stats)
    };
    vec![
        run("WRP", &wrp(), None),
        run("ERP", &erp(default_delta), None),
        run("ERP small delta", &erp(small_delta), None),
        run("WRP budgeted", &wrp(), Some(case.budget)),
        run("ERP budgeted", &erp(default_delta), Some(case.budget)),
        run("ES", &ExhaustiveSearch::new(&optimizer, space), None),
        run("RS", &RandomSearch::new(&optimizer, space, case.seed), None),
    ]
}

/// A deterministic subset of `0..n` per (seed, round).
fn subset(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut state = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .filter(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 63 == 1
        })
        .collect()
}

fn fraction(cells: u128, space: &ParameterSpace) -> f64 {
    cells as f64 / space.total_cells_f64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Volumes, coverage, point lookups and the partition's tiling are exact.
    #[test]
    fn union_volume_matches_cell_enumeration(case in arbitrary_case()) {
        let space = &case.space;
        let total = space.total_cells();
        for (label, solution, stats) in solve_all(&case) {
            let scan = CellScan::new(space, &solution);
            for e in 0..solution.len() {
                prop_assert_eq!(solution.entry_volume(e), scan.volumes[e], "{} entry {}", label, e);
            }
            let all: Vec<usize> = (0..solution.len()).collect();
            prop_assert_eq!(
                solution.claimed_coverage(space),
                fraction(scan.union_volume(&all), space),
                "{}", label
            );
            for round in 0..4 {
                let entries = subset(solution.len(), case.seed, round);
                prop_assert_eq!(
                    solution.coverage_of(space, &entries),
                    fraction(scan.union_volume(&entries), space),
                    "{} subset {:?}", label, entries
                );
            }

            let mut covering = Vec::new();
            for cell in space.iter_grid() {
                solution.covering_entries(&cell.indices, &mut covering);
                prop_assert_eq!(&covering[..], scan.covering(&cell), "{} at {}", label, cell);
                prop_assert_eq!(solution.covers(&cell.indices), !covering.is_empty());
                prop_assert_eq!(solution.entry_covering(&cell), scan.entry_covering(&cell));
                prop_assert_eq!(solution.plan_for(&cell), scan.plan_for(&cell), "{} at {}", label, cell);
            }

            // The leaves (accepted and open) tile the space; only budgeted
            // or aged-out searches leave open ones.
            let leaves: Vec<_> = solution.leaves().collect();
            let open = leaves.iter().any(|(_, entry)| entry.is_none());
            if label == "ES" || label == "RS" {
                prop_assert!(leaves.is_empty());
                continue;
            }
            prop_assert_eq!(open, stats.terminated_early, "{}", label);
            if label == "WRP" {
                prop_assert!(!open, "WRP left an open leaf");
            }
            prop_assert_eq!(leaves.iter().map(|(r, _)| r.volume()).sum::<u128>(), total as u128);
            let shape: Vec<usize> = space.dimensions().iter().map(|d| d.steps).collect();
            let mut hits = vec![0u8; total];
            for (region, entry) in &leaves {
                for cell in region.cells() {
                    let at = shape.iter().zip(&cell.indices).fold(0, |acc, (s, x)| acc * s + x);
                    hits[at] += 1;
                    if let Some(e) = entry {
                        prop_assert!(scan.covering(&cell).contains(e), "{} leaf of {}", label, e);
                    }
                }
            }
            prop_assert!(hits.iter().all(|&h| h == 1), "{}: leaves do not tile", label);
        }
    }

    /// Weights under both occurrence models, and the unexplored mass, match
    /// per-cell probability sums to 1e-9 per dimension. The normal model's
    /// erf (Abramowitz & Stegun 7.1.26) is ±1e-9 at ±0, so where a cell
    /// boundary falls on a dimension's mean (an even step count) the cells
    /// on either side miss or double 1e-9 of that axis's mass; a region's
    /// separable product never evaluates that boundary.
    #[test]
    fn geometric_plan_weight_matches_cell_sum(case in arbitrary_case()) {
        let space = &case.space;
        let tolerance = 1e-9 * space.num_dims() as f64;
        for (label, solution, _) in solve_all(&case) {
            let scan = CellScan::new(space, &solution);
            for model in [OccurrenceModel::Normal, OccurrenceModel::Uniform] {
                let mut by_cells = vec![0.0f64; solution.len()];
                for cell in space.iter_grid() {
                    for &e in scan.covering(&cell) {
                        by_cells[e] += model.cell_probability(space, &cell);
                    }
                }
                let weights = solution.plan_weights(space, model);
                for (e, (w, c)) in weights.iter().zip(&by_cells).enumerate() {
                    prop_assert!((w - c).abs() < tolerance, "{} {:?} entry {}: {} vs {}", label, model, e, w, c);
                }
                let unexplored: f64 = solution
                    .leaves()
                    .filter(|(_, entry)| entry.is_none())
                    .flat_map(|(region, _)| region.cells())
                    .map(|cell: GridPoint| model.cell_probability(space, &cell))
                    .sum();
                let mass = solution.unexplored_mass(space, model);
                prop_assert!((mass - unexplored).abs() < tolerance, "{} {:?}: {} vs {}", label, model, mass, unexplored);
            }
        }
    }
}

/// The claimed coverage of a compiled deployment against a brute-force cell
/// count on one deterministic configuration.
#[test]
fn solution_coverage_matches_brute_force() {
    let query = Query::q1_stock_monitoring();
    let deployment = RobustCompiler::new(query)
        .with_selectivity_dims(2, 3)
        .with_epsilon(0.2)
        .compile(&Cluster::homogeneous(4, 1e12).unwrap())
        .unwrap();
    let space = &deployment.space;
    let mut covered = 0usize;
    for cell in space.iter_grid() {
        if deployment.logical.entries().iter().any(|e| e.covers(&cell)) {
            covered += 1;
        }
    }
    let brute = covered as f64 / space.total_cells() as f64;
    assert!((deployment.claimed_coverage - brute).abs() < 1e-12);
}
