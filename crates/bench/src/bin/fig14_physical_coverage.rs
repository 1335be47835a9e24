//! Figure 14: parameter-space coverage of the physical plan produced by
//! GreedyPhy / OptPrune / ES as the number of machines varies, for Q1
//! (2–6 machines) and Q2 (6–10 machines), at ε = 0.2 and U ∈ {1, 2, 3}.
//!
//! Coverage is the fraction of the parameter space's cells that belong to the
//! robust region of some logical plan the physical plan supports, read off
//! the solution's partition tree (no cell enumeration). The logical half
//! comes from the `RobustCompiler` pipeline; the physical solvers run by
//! name on the shared support model.
//!
//! `--nodes N` pins the machine count instead of sweeping the paper's range
//! (see `fig13_compile_time` — same flag, same provisioning rule). A pinned
//! run writes a distinct artifact (`BENCH_fig14-nodesN.json`).

use rld_bench::json::{write_bench_json, BenchMeta, Json};
use rld_bench::{build_support_model, capacity_for, print_table, EXPERIMENT_SEED};
use rld_core::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pinned = args
        .iter()
        .position(|a| a == "--nodes")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--nodes expects a machine count"));

    let q1 = Query::q1_stock_monitoring();
    let q2 = Query::q2_ten_way_join();
    let solvers = [
        PhysicalSolverSpec::Greedy,
        PhysicalSolverSpec::OptPrune,
        PhysicalSolverSpec::Exhaustive,
    ];
    let mut points: Vec<Json> = Vec::new();
    for (query, sweep) in [(&q1, 2..=6usize), (&q2, 6..=10usize)] {
        let machine_counts: Vec<usize> = match pinned {
            Some(n) => vec![n],
            None => sweep.clone().collect(),
        };
        let nodes_needed = match pinned {
            Some(n) => n as f64 / 2.0,
            None => sweep.clone().count() as f64 / 2.0,
        };
        for u in [1u32, 2, 3] {
            let (compilation, model) = build_support_model(query, 2, u, 0.2);
            let capacity = capacity_for(&model, nodes_needed);
            let mut rows = Vec::new();
            for &n in &machine_counts {
                let cluster = Cluster::homogeneous(n, capacity).unwrap();
                let mut row = vec![n.to_string()];
                for solver in solvers {
                    // "n/a" is reserved for the deliberately-infeasible
                    // exhaustive search; GreedyPhy/OptPrune must succeed.
                    let result = solver.generate(&model, &cluster);
                    row.push(match (solver, result) {
                        (_, Ok((pp, s))) => {
                            let coverage = compilation.solution.coverage_of(
                                &compilation.space,
                                &model.supported_indices(&pp, &cluster),
                            );
                            points.push(point_json(query, u, n, solver.name(), coverage, &s));
                            format!("{coverage:.3}")
                        }
                        (PhysicalSolverSpec::Exhaustive, Err(_)) => "n/a".to_string(),
                        (_, Err(err)) => panic!("{} failed on {n} machines: {err}", solver.name()),
                    });
                }
                rows.push(row);
            }
            print_table(
                &format!(
                    "Figure 14 — physical plan space coverage, {}, epsilon = 0.2, U = {u}",
                    query.name
                ),
                &["machines", "GreedyPhy", "OptPrune", "ES"],
                &rows,
            );
        }
    }

    let artifact = match pinned {
        Some(n) => format!("fig14-nodes{n}"),
        None => "fig14".to_string(),
    };
    let meta = BenchMeta::new()
        .seed(EXPERIMENT_SEED)
        .scenario("fig14-physical-coverage")
        .backend("compile")
        .strategies(["GreedyPhy", "OptPrune", "ES"]);
    let data = Json::obj([
        (
            "pinned_nodes",
            pinned.map(|n| Json::uint(n as u64)).unwrap_or(Json::Null),
        ),
        ("points", Json::Arr(points)),
    ]);
    match write_bench_json(&artifact, &meta, data) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write JSON: {err}"),
    }
}

/// One measured cell: the figure's coverage plus the solver's full search
/// statistics (expansions, prunes, incumbent updates, score).
fn point_json(
    query: &Query,
    uncertainty: u32,
    machines: usize,
    solver: &str,
    coverage: f64,
    stats: &PhysicalSearchStats,
) -> Json {
    Json::obj([
        ("query", Json::str(&query.name)),
        ("uncertainty", Json::uint(uncertainty as u64)),
        ("machines", Json::uint(machines as u64)),
        ("solver", Json::str(solver)),
        ("coverage", Json::Num(coverage)),
        ("compile_ms", Json::Num(stats.elapsed_ms())),
        ("nodes_expanded", Json::uint(stats.nodes_expanded as u64)),
        ("nodes_pruned", Json::uint(stats.nodes_pruned as u64)),
        (
            "incumbent_updates",
            Json::uint(stats.incumbent_updates as u64),
        ),
        ("score", Json::Num(stats.score)),
        ("supported_plans", Json::uint(stats.supported_plans as u64)),
    ])
}
