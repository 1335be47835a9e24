//! Compile-path scaling and its regression gate: how the `RobustCompiler`'s
//! WRP/ERP search behaves as the parameter space grows in dimensionality and
//! grid resolution, and where the search's work goes.
//!
//! ```text
//! cargo run -p rld-bench --release --bin compile_scale            # full sweep
//! cargo run -p rld-bench --release --bin compile_scale -- --quick # CI subset
//! cargo run -p rld-bench --release --bin compile_scale -- --quick --check
//! ```
//!
//! For each (dims, steps) configuration over Q2 (10-way join) the binary runs
//! WRP and ERP and records the search's deterministic shape — optimizer
//! calls, plans, robust regions, the lattice points the §4.2 weight function
//! was assigned to, the plan-cost evaluations that took, and the solution's
//! fingerprint — beside wall time, the claimed coverage, the §5.2 weights
//! and the unexplored mass (the occurrence probability of the partition's
//! open leaves, which only ERP leaves behind), all read off the solution's
//! partition tree; nothing on this path enumerates the grid's cells.
//!
//! Results land in `BENCH_compile_scale.json`, one record per
//! (dims, steps, solver). `--check` compares this run against the
//! *committed* `BENCH_compile_scale.json` before overwriting it: the counts,
//! the fingerprint and the coverage must match exactly and the weight sum to
//! 1e-12 relative — the search is deterministic, so any drift is a behaviour
//! change, not noise. Wall time is reported, not gated. Records present on
//! only one side are skipped, so a `--quick` run gates against a committed
//! full-sweep baseline.

use rld_bench::json::{write_bench_json, BenchMeta, Json};
use rld_bench::{print_table, Gate};
use rld_core::prelude::*;
use std::time::Instant;

/// Artifact name; the committed copy doubles as the `--check` baseline.
const ARTIFACT: &str = "compile_scale";

/// Uncertainty level of every dimension: ±40% intervals, wide enough that
/// the optimal plan changes across the space and the search must partition.
const UNCERTAINTY: u32 = 4;

/// Robustness threshold ε: tight enough to force real partitioning work.
const EPSILON: f64 = 0.1;

/// The fields `--check` gates, each with its relative tolerance: the
/// search's shape and coverage exactly, the weight sum up to the last bits a
/// change of summation order may move.
const GATED: [(&str, f64); 8] = [
    ("optimizer_calls", 0.0),
    ("plans", 0.0),
    ("regions", 0.0),
    ("weighted_points", 0.0),
    ("cost_evaluations", 0.0),
    ("fingerprint", 0.0),
    ("coverage", 0.0),
    ("weight_sum", 1e-12),
];

/// The regression gate: runs are matched by (dims, steps, solver), each
/// [`GATED`] field must agree with the committed value to its tolerance,
/// and a baseline run this sweep lacks is skipped.
const GATE: Gate = Gate {
    path: "BENCH_compile_scale.json",
    key: &["dims", "steps", "solver"],
    tolerance: |field| GATED.iter().find(|(f, _)| *f == field).map(|&(_, t)| t),
    wall: "wall_ms",
    partial: true,
};

fn run_solver(query: &Query, dims: usize, steps: usize, solver: LogicalSolverSpec) -> Json {
    let compiler = RobustCompiler::new(query.clone())
        .with_selectivity_dims(dims, UNCERTAINTY)
        .with_grid_steps(steps)
        .with_solver(solver)
        .with_epsilon(EPSILON);
    let start = Instant::now();
    let compilation = compiler.compile_logical().expect("compile");
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let solution = &compilation.solution;
    let regions: usize = solution.entries().iter().map(|e| e.regions.len()).sum();
    let weight_sum: f64 = solution
        .plan_weights(&compilation.space, OccurrenceModel::Normal)
        .iter()
        .sum();
    let unexplored = solution.unexplored_mass(&compilation.space, OccurrenceModel::Normal);
    // WRP stops only when its queue is empty: no open leaf remains.
    assert!(compilation.solver != "WRP" || unexplored == 0.0);
    let stats = &compilation.stats;
    rld_bench::obj! {
        "dims" => dims, "steps" => steps, "solver" => compilation.solver,
        "optimizer_calls" => stats.optimizer_calls, "plans" => solution.len(), "regions" => regions,
        "weighted_points" => stats.weighted_points, "cost_evaluations" => stats.cost_evaluations,
        "fingerprint" => format!("{:016x}", solution.fingerprint()), "wall_ms" => wall_ms,
        "coverage" => solution.claimed_coverage(&compilation.space), "weight_sum" => weight_sum,
        "unexplored_mass" => unexplored,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let query = Query::q2_ten_way_join();

    // Read the committed baseline *before* this run overwrites it.
    let baseline_text = check.then(|| std::fs::read_to_string(GATE.path));

    // The smaller points show the scaling trend; (5, 15) is the benchmark's
    // `compile-wrp-q2` / `compile-erp-q2` space.
    let sweep: &[(usize, usize)] = if quick {
        &[(2, 15), (3, 15), (4, 15)]
    } else {
        &[(2, 15), (3, 15), (4, 15), (4, 21), (5, 15), (6, 9)]
    };
    let solvers = [
        LogicalSolverSpec::Wrp,
        LogicalSolverSpec::Erp(ErpConfig::default()),
    ];
    let runs: Vec<Json> = sweep
        .iter()
        .flat_map(|&(dims, steps)| solvers.map(|solver| run_solver(&query, dims, steps, solver)))
        .collect();

    let columns =
        "dims steps solver optimizer_calls plans regions weighted_points cost_evaluations \
                   wall_ms coverage weight_sum unexplored_mass";
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            columns
                .iter()
                .map(|column| match run.get(column) {
                    Some(Json::Num(v)) if v.fract() != 0.0 => format!("{v:.3}"),
                    Some(Json::Str(s)) => s.clone(),
                    Some(other) => other.to_string(),
                    None => String::new(),
                })
                .collect()
        })
        .collect();
    print_table(
        "compile_scale — WRP/ERP over growing Q2 parameter spaces",
        &columns,
        &rows,
    );

    let data = rld_bench::obj! {
        "query" => &query.name, "epsilon" => EPSILON, "uncertainty" => UNCERTAINTY, "runs" => runs,
    };
    let meta = BenchMeta::new().scenario("compile-scale-sweep");
    match write_bench_json(ARTIFACT, &meta, data.clone()) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => {
            eprintln!("\ncould not write JSON: {err}");
            std::process::exit(2);
        }
    }

    if let Some(baseline_text) = baseline_text {
        let runs = data.get("runs").and_then(Json::as_arr).unwrap_or_default();
        if let Err((code, report)) = GATE.check(baseline_text, runs) {
            eprintln!("{report}");
            std::process::exit(code.into());
        }
    }
}
