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
use rld_bench::print_table;
use rld_core::prelude::*;
use std::time::Instant;

/// Artifact name; the committed copy doubles as the `--check` baseline.
const ARTIFACT: &str = "compile_scale";
/// The committed reference numbers `--check` compares against.
const BASELINE_PATH: &str = "BENCH_compile_scale.json";

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
    Json::obj([
        ("dims", Json::uint(dims as u64)),
        ("steps", Json::uint(steps as u64)),
        ("solver", Json::str(compilation.solver)),
        (
            "optimizer_calls",
            Json::uint(compilation.stats.optimizer_calls as u64),
        ),
        ("plans", Json::uint(solution.len() as u64)),
        ("regions", Json::uint(regions as u64)),
        (
            "weighted_points",
            Json::uint(compilation.stats.weighted_points as u64),
        ),
        (
            "cost_evaluations",
            Json::uint(compilation.stats.cost_evaluations as u64),
        ),
        (
            "fingerprint",
            Json::str(format!("{:016x}", solution.fingerprint())),
        ),
        ("wall_ms", Json::Num(wall_ms)),
        (
            "coverage",
            Json::Num(solution.claimed_coverage(&compilation.space)),
        ),
        ("weight_sum", Json::Num(weight_sum)),
        ("unexplored_mass", Json::Num(unexplored)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let query = Query::q2_ten_way_join();

    // Read the committed baseline *before* this run overwrites it.
    let baseline_text = check.then(|| std::fs::read_to_string(BASELINE_PATH));

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

    let columns = [
        "dims",
        "steps",
        "solver",
        "optimizer_calls",
        "plans",
        "regions",
        "weighted_points",
        "cost_evaluations",
        "wall_ms",
        "coverage",
        "weight_sum",
        "unexplored_mass",
    ];
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

    let data = Json::obj([
        ("query", Json::str(query.name.clone())),
        ("epsilon", Json::Num(EPSILON)),
        ("uncertainty", Json::uint(UNCERTAINTY as u64)),
        ("runs", Json::Arr(runs)),
    ]);
    let meta = BenchMeta::new().scenario("compile-scale-sweep");
    match write_bench_json(ARTIFACT, &meta, data.clone()) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("\ncould not write JSON: {err}"),
    }

    if let Some(baseline_text) = baseline_text {
        check_against_baseline(baseline_text, &data);
    }
}

/// The regression gate. Runs are matched by (dims, steps, solver); for every
/// matched run each [`GATED`] field must agree with the committed value to
/// its tolerance.
fn check_against_baseline(baseline_text: std::io::Result<String>, current: &Json) {
    let baseline = match baseline_text.map(|text| Json::parse(&text)) {
        Ok(Ok(doc)) => doc,
        Ok(Err(err)) => {
            eprintln!("regression gate: {BASELINE_PATH} is not valid JSON: {err}");
            std::process::exit(2);
        }
        Err(err) => {
            eprintln!(
                "regression gate: cannot read {BASELINE_PATH}: {err}\n\
                 Commit a full run's BENCH_compile_scale.json as the baseline."
            );
            std::process::exit(2);
        }
    };
    let runs_of = |data: Option<&Json>| -> Vec<Json> {
        data.and_then(|d| d.get("runs"))
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let key_of = |run: &Json| -> Option<(u64, u64, String)> {
        Some((
            run.get("dims")?.as_f64()? as u64,
            run.get("steps")?.as_f64()? as u64,
            run.get("solver")?.as_str()?.to_string(),
        ))
    };

    let current_runs = runs_of(Some(current));
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut drifts: Vec<String> = Vec::new();
    for base_run in runs_of(baseline.get("data")) {
        let Some(key) = key_of(&base_run) else {
            continue;
        };
        let Some(cur_run) = current_runs
            .iter()
            .find(|run| key_of(run).as_ref() == Some(&key))
        else {
            skipped += 1;
            continue;
        };
        compared += 1;
        let label = format!("{}@{}x{}", key.2, key.0, key.1);
        for (field, tolerance) in GATED {
            let (base, cur) = (base_run.get(field), cur_run.get(field));
            let within = match (base.and_then(Json::as_f64), cur.and_then(Json::as_f64)) {
                (Some(b), Some(c)) if tolerance > 0.0 => {
                    (c - b).abs() <= tolerance * b.abs().max(c.abs())
                }
                _ => base.is_some() && base == cur,
            };
            if !within {
                drifts.push(format!(
                    "{label}: {field} changed from {} to {}",
                    base.unwrap_or(&Json::Null),
                    cur.unwrap_or(&Json::Null)
                ));
            }
        }
        let wall = |run: &Json| {
            run.get("wall_ms")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "check {label}: {:.1} ms vs baseline {:.1} ms (not gated)",
            wall(cur_run),
            wall(&base_run)
        );
    }
    if skipped > 0 {
        println!("regression gate: {skipped} baseline run(s) not in this sweep — skipped");
    }
    if compared == 0 {
        eprintln!("regression gate: {BASELINE_PATH} contains no comparable runs");
        std::process::exit(2);
    }
    if drifts.is_empty() {
        println!("regression gate: all {compared} matched runs have the committed search shape");
    } else {
        eprintln!("regression gate FAILED (search drift):");
        for drift in &drifts {
            eprintln!("  - {drift}");
        }
        std::process::exit(1);
    }
}
