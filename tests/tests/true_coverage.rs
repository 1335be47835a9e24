//! `RobustnessChecker::true_coverage` is Definition 1 written out at every
//! cell — `reference::true_coverage`, an optimizer call and `plan_cost` per
//! cell — bit for bit, for the solutions of every logical solver with and
//! without a call budget, on a 2-dim Q1 and a 3-dim Q2 space. One checker
//! serves all of a space's solutions, as in the reproduction's Fig. 11.

use rld_core::prelude::*;
use rld_tests::reference;

fn selectivity_space(query: &Query, dims: usize, u: u32, steps: usize) -> ParameterSpace {
    let estimates = query
        .selectivity_estimates(dims, UncertaintyLevel::new(u))
        .unwrap();
    ParameterSpace::from_estimates(&estimates, query.default_stats(), steps).unwrap()
}

/// Every solver's coverage through the checker against the reference; the
/// coverages measured, so a caller can see the case is not degenerate.
fn coverages_match_the_cell_loop(
    query: &Query,
    space: &ParameterSpace,
    epsilon: f64,
    budget: usize,
) -> Vec<f64> {
    let checker_optimizer = JoinOrderOptimizer::new(query.clone());
    let checker = RobustnessChecker::new(&checker_optimizer, space, epsilon);
    let mut coverages = Vec::new();
    for budget in [None, Some(budget)] {
        // Fresh solvers per run: a warm optimum memo would make calls free.
        let optimizer = JoinOrderOptimizer::new(query.clone());
        let wrp = WeightedRobustPartitioning::new(&optimizer, space, epsilon);
        let erp = EarlyTerminatedRobustPartitioning::new(
            &optimizer,
            space,
            ErpConfig::with_epsilon(epsilon),
        );
        let es = ExhaustiveSearch::new(&optimizer, space);
        let rs = RandomSearch::new(&optimizer, space, 0xF1D0_2013);
        let generators: [&dyn LogicalPlanGenerator; 4] = [&wrp, &erp, &es, &rs];
        for generator in generators {
            let (solution, _) = generator.generate(budget).unwrap();
            let coverage = checker.true_coverage(&solution).unwrap();
            let expected = reference::true_coverage(query, space, epsilon, &solution);
            assert_eq!(
                coverage.to_bits(),
                expected.to_bits(),
                "{} {budget:?}: {coverage} vs {expected}",
                generator.name()
            );
            coverages.push(coverage);
        }
    }
    coverages
}

#[test]
fn true_coverage_is_the_cell_loop_on_q1_in_two_dims() {
    let query = Query::q1_stock_monitoring();
    let space = selectivity_space(&query, 2, 3, 9);
    let coverages = coverages_match_the_cell_loop(&query, &space, 0.05, 4);
    assert!(coverages.iter().any(|&c| c < 1.0), "{coverages:?}");
}

#[test]
fn true_coverage_is_the_cell_loop_on_q2_in_three_dims() {
    let query = Query::q2_ten_way_join();
    let space = selectivity_space(&query, 3, 4, 9);
    let coverages = coverages_match_the_cell_loop(&query, &space, 0.1, 10);
    assert!(coverages.iter().any(|&c| c < 1.0), "{coverages:?}");
}
