//! Ablation studies of three design choices:
//!
//! 1. **Occurrence model** (§5.2): weighting robust logical plans by the
//!    normal occurrence model vs treating every cell as equally likely.
//! 2. **Distance metric** in the ERP weight function (Manhattan vs Euclidean).
//! 3. **Robustness threshold ε sweep**: how the number of robust plans and
//!    optimizer calls shrink as ε grows (the effect discussed under WRP's
//!    limitations).
//!
//! All compile-time sweeps run through the `RobustCompiler` pipeline.

use rld_bench::{capacity_for, compiler_for, print_table};
use rld_core::paramspace::DistanceMetric;
use rld_core::prelude::*;

fn main() {
    let query = Query::q1_stock_monitoring();

    // 1. Occurrence model ablation.
    {
        let compilation = compiler_for(&query, 2, 3)
            .with_epsilon(0.2)
            .compile_logical()
            .unwrap();
        let mut rows = Vec::new();
        for (name, model) in [
            ("Normal", OccurrenceModel::Normal),
            ("Uniform", OccurrenceModel::Uniform),
        ] {
            let support = compilation.support_model(&query, model).unwrap();
            let cluster = Cluster::homogeneous(3, capacity_for(&support, 2.5)).unwrap();
            let (pp, stats) = PhysicalSolverSpec::Greedy
                .generate(&support, &cluster)
                .unwrap();
            let supported = support.supported_indices(&pp, &cluster);
            let coverage = compilation
                .solution
                .coverage_of(&compilation.space, &supported);
            rows.push(vec![
                name.to_string(),
                format!("{:.4}", stats.score),
                format!("{coverage:.3}"),
                stats.supported_plans.to_string(),
            ]);
        }
        print_table(
            "Ablation 1 — occurrence model used to weight logical plans (GreedyPhy, 3 nodes)",
            &["model", "score", "coverage", "supported"],
            &rows,
        );
    }

    // 2. Distance metric ablation in ERP's weight function.
    {
        let mut rows = Vec::new();
        for (name, metric) in [
            ("Manhattan", DistanceMetric::Manhattan),
            ("Euclidean", DistanceMetric::Euclidean),
        ] {
            let compilation = compiler_for(&query, 2, 3)
                .with_epsilon(0.2)
                .with_metric(metric)
                .compile_logical()
                .unwrap();
            let ev = CoverageEvaluator::new(query.clone(), compilation.space.clone(), 0.2).unwrap();
            rows.push(vec![
                name.to_string(),
                compilation.stats.optimizer_calls.to_string(),
                compilation.solution.len().to_string(),
                format!("{:.3}", ev.true_coverage(&compilation.solution).unwrap()),
            ]);
        }
        print_table(
            "Ablation 2 — distance metric in the ERP weight function",
            &["metric", "calls", "plans", "coverage"],
            &rows,
        );
    }

    // 3. Robustness threshold sweep.
    {
        let mut rows = Vec::new();
        for epsilon in [0.05, 0.1, 0.2, 0.3, 0.5] {
            let compilation = compiler_for(&query, 2, 3)
                .with_epsilon(epsilon)
                .compile_logical()
                .unwrap();
            let ev =
                CoverageEvaluator::new(query.clone(), compilation.space.clone(), epsilon).unwrap();
            rows.push(vec![
                format!("{epsilon}"),
                compilation.stats.optimizer_calls.to_string(),
                compilation.solution.len().to_string(),
                format!("{:.3}", ev.true_coverage(&compilation.solution).unwrap()),
            ]);
        }
        print_table(
            "Ablation 3 — robustness threshold epsilon sweep (ERP, Q1, U = 3)",
            &["epsilon", "calls", "plans", "coverage"],
            &rows,
        );
    }
}
