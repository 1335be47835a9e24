//! # rld-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6). Each figure has a dedicated binary under
//! `src/bin/`; `cargo run -p rld-bench --release --bin <name>` prints the
//! same rows/series the paper plots. Throughput is measured in one place,
//! the repo benchmark (`benchmark/`, `BENCHMARK.json`); `scenario --backend
//! execute` adds each strategy's executor breakdown to its scenario JSON.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table2_distributions`  | Table 2 (data distribution summary statistics) |
//! | `fig10_optimizer_calls` | Figure 10 (optimizer calls vs uncertainty level) |
//! | `fig11_space_coverage`  | Figure 11 (coverage vs number of optimizer calls) |
//! | `fig12_dimensions`      | Figure 12 (optimizer calls vs number of dimensions) |
//! | `fig13_compile_time`    | Figure 13 (physical-plan compile time vs machines; `--nodes N` pins a wide cluster) |
//! | `fig14_physical_coverage` | Figure 14 (physical-plan space coverage vs machines; `--nodes N` pins a wide cluster) |
//! | `fig15a_processing_time`| Figure 15a (avg tuple processing time vs rate ratio) |
//! | `fig15b_throughput`     | Figure 15b (tuples produced over 60 minutes) |
//! | `fig16a_vary_nodes`     | Figure 16a (avg processing time vs number of nodes) |
//! | `fig16b_fluctuation_period` | Figure 16b (avg processing time vs fluctuation period) |
//! | `overhead_runtime`      | §6.5 runtime-overhead comparison |
//! | `ablations`             | design ablations (occurrence model, distance metric, ε sweep) |
//! | `scenario`              | runs any predefined scenario by name (`--list` to enumerate); `--backend execute` reports each strategy's tuples/s, wall latency, stage and per-node busy time |
//! | `faults`                | fault-plane sweep: all four strategies × the crash/straggler/flap scenarios |
//! | `compile_scale`         | compile-path scaling: dims × grid sweeps of WRP/ERP, search-shape `--check` gate |
//! | `physical_scale`        | physical-solver scaling (8–512 nodes, optimized vs naive, `--check` gate) |
//!
//! The compile-time binaries drive the [`RobustCompiler`] pipeline (solvers
//! selected by name), the runtime binaries are thin wrappers over the
//! scenario layer (`rld_core::scenario`), and the ones tracked across PRs
//! (`fig13_compile_time`, `fig14_physical_coverage`, `fig15a_processing_time`,
//! `fig15b_throughput`, `overhead_runtime`, `scenario`, `faults`,
//! `compile_scale`, `physical_scale`) also emit a machine-readable
//! `BENCH_<name>.json` via [`json::write_bench_json`].
//!
//! This crate also exposes the shared helpers those binaries use, so that
//! integration tests can validate the harness itself.

#![forbid(unsafe_code)]

pub mod json;

use rld_core::prelude::*;

/// Default experiment seed (all harness randomness derives from it) — the
/// scenario layer's [`rld_core::scenario::SCENARIO_SEED`], re-exported under
/// the harness's historical name so there is exactly one seed constant.
pub use rld_core::scenario::SCENARIO_SEED as EXPERIMENT_SEED;

/// Number of grid steps per dimension used for an uncertainty level `U`.
///
/// Algorithm 1 widens the interval by ±0.1·U around the estimate; the paper
/// discretizes the space in fixed absolute units, so larger uncertainty means
/// more grid cells. We use `4·U + 1` steps, which gives the familiar 9-step
/// (8-interval) axis of Figure 6 at U = 2.
pub fn steps_for_uncertainty(u: u32) -> usize {
    (4 * u as usize + 1).max(3)
}

/// The compiler invocation shared by the compile-time experiments: `dims`
/// uncertain selectivity dimensions at uncertainty level `u`, with the
/// U-proportional grid of [`steps_for_uncertainty`].
pub fn compiler_for(query: &Query, dims: usize, u: u32) -> RobustCompiler {
    RobustCompiler::new(query.clone())
        .with_selectivity_dims(dims, u)
        .with_grid_steps(steps_for_uncertainty(u))
}

/// Build the parameter space for a query with `dims` uncertain selectivity
/// dimensions at uncertainty level `u`.
pub fn space_for(query: &Query, dims: usize, u: u32) -> ParameterSpace {
    compiler_for(query, dims, u)
        .build_space()
        .expect("valid parameter space")
}

/// Result row of a logical-plan-generation comparison.
#[derive(Debug, Clone)]
pub struct LogicalRow {
    /// Algorithm name (`ES`, `RS`, `ERP`).
    pub algorithm: &'static str,
    /// Optimizer calls made.
    pub calls: usize,
    /// Distinct robust plans found.
    pub plans: usize,
    /// True ε-robust coverage of the produced solution.
    pub coverage: f64,
    /// Wall-clock search time in milliseconds.
    pub elapsed_ms: f64,
}

/// The three solver specs fig10–12 compare, in column order. RS is seeded
/// with the shared experiment seed.
fn comparison_solvers() -> [LogicalSolverSpec; 3] {
    [
        LogicalSolverSpec::Exhaustive,
        LogicalSolverSpec::Random {
            seed: EXPERIMENT_SEED,
        },
        LogicalSolverSpec::Erp(ErpConfig::default()),
    ]
}

/// Run ES, RS and ERP through the [`RobustCompiler`] on one
/// (query, dims, U, ε) configuration, optionally with a shared
/// optimizer-call budget (Figure 11), and report one row each.
pub fn compare_logical_generators(
    query: &Query,
    dims: usize,
    u: u32,
    epsilon: f64,
    budget: Option<usize>,
    evaluate_coverage: bool,
) -> Vec<LogicalRow> {
    let space = space_for(query, dims, u);
    let evaluator = if evaluate_coverage {
        Some(CoverageEvaluator::new(query.clone(), space.clone(), epsilon).expect("evaluator"))
    } else {
        None
    };
    comparison_solvers()
        .into_iter()
        .map(|solver| {
            let mut compiler = compiler_for(query, dims, u)
                .with_solver(solver)
                .with_epsilon(epsilon);
            if let Some(b) = budget {
                compiler = compiler.with_budget(b);
            }
            let compilation = compiler
                .compile_logical_in(space.clone())
                .expect("logical compile");
            let coverage = evaluator
                .as_ref()
                .map(|ev| ev.true_coverage(&compilation.solution).unwrap_or(0.0))
                .unwrap_or(f64::NAN);
            LogicalRow {
                algorithm: compilation.solver,
                calls: compilation.stats.optimizer_calls,
                plans: compilation.stats.distinct_plans,
                coverage,
                elapsed_ms: compilation.stats.elapsed_ms(),
            }
        })
        .collect()
}

/// Build the robust logical solution and its support model (worst-case
/// loads + weights) used by the physical-plan experiments for one
/// (query, dims, U, ε) configuration, through the [`RobustCompiler`]
/// pipeline.
pub fn build_support_model(
    query: &Query,
    dims: usize,
    u: u32,
    epsilon: f64,
) -> (LogicalCompilation, SupportModel) {
    let compilation = compiler_for(query, dims, u)
        .with_epsilon(epsilon)
        .compile_logical()
        .expect("ERP solution");
    let model = compilation
        .support_model(query, OccurrenceModel::Normal)
        .expect("support model");
    (compilation, model)
}

/// Per-node capacity such that the whole worst-case load (`lp_max`) amounts to
/// `nodes_needed` nodes' worth of work — i.e. with fewer machines than
/// `nodes_needed` the physical planner must drop plans, with more it has slack.
pub fn capacity_for(model: &SupportModel, nodes_needed: f64) -> f64 {
    let total: f64 = model.lp_max_loads().iter().sum();
    let max_single = model.lp_max_loads().iter().cloned().fold(0.0f64, f64::max);
    // A node must at least be able to host the heaviest single operator,
    // otherwise no placement can support anything regardless of node count.
    (total / nodes_needed).max(max_single * 1.2).max(1e-6)
}

/// Print a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_grow_with_uncertainty() {
        assert_eq!(steps_for_uncertainty(1), 5);
        assert_eq!(steps_for_uncertainty(2), 9);
        assert_eq!(steps_for_uncertainty(5), 21);
        assert!(steps_for_uncertainty(0) >= 3);
    }

    #[test]
    fn logical_comparison_produces_three_rows() {
        let q = Query::q1_stock_monitoring();
        let rows = compare_logical_generators(&q, 2, 2, 0.2, None, true);
        assert_eq!(rows.len(), 3);
        let es = &rows[0];
        let erp = &rows[2];
        assert_eq!(es.algorithm, "ES");
        assert_eq!(erp.algorithm, "ERP");
        assert!(erp.calls < es.calls, "ERP {} vs ES {}", erp.calls, es.calls);
        assert!(es.coverage > 0.99);
        assert!(erp.coverage > 0.7);
    }

    #[test]
    fn support_model_and_capacity_helpers() {
        let q = Query::q1_stock_monitoring();
        let (_, model) = build_support_model(&q, 2, 2, 0.2);
        assert!(!model.profiles().is_empty());
        let cap = capacity_for(&model, 3.0);
        assert!(cap > 0.0);
        assert!(runtime_capacity(&q, 5, 2.0) > 0.0);
    }

    #[test]
    fn runtime_scenarios_include_rld_and_hybrid() {
        let q = Query::q1_stock_monitoring();
        let report = Scenario::builder("bench-smoke", q)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(30.0)
            .default_strategies(RldConfig::default().with_uncertainty(3))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.metrics_for("RLD").is_some());
        assert!(report.metrics_for("HYB").is_some());
        assert_eq!(report.outcomes.len(), 4);
    }
}
