//! The paper's evaluation (§6) as one checked reproduction.
//!
//! ```text
//! cargo run -p rld-bench --release --bin reproduce              # run, print, write
//! cargo run -p rld-bench --release --bin reproduce -- --check   # + gate vs the committed copy
//! ```
//!
//! `EXPERIMENTS` is the whole evaluation, one entry per figure or table —
//! plus three sweeps that scale them: Fig. 12's search to 6 dimensions,
//! Fig. 13's solvers to 512 nodes, and §6.5's strategies under node crashes
//! and stragglers. Each entry is its sweep (the queries, parameters and
//! seeds of the figure), the claims made about it, and the findings this
//! reproduction records about its own sweep. A claim or a finding is a
//! statement with a citation and a predicate over the sweep's rows. The
//! driver runs every sweep, prints its tables, evaluates every predicate and
//! writes `REPRODUCTION.json`: every row, and every verdict with the numbers
//! that decide it. A claim that does not hold is recorded, never tuned away.
//! The run ends with the "paper says / we measure / holds" table that
//! PAPER.md carries. A sweep may also assert what must never break — the
//! physical sweep's bit-identical placements and its 512-node speedup
//! floor — and such a failure aborts the run.
//!
//! `--check` compares the run against the committed `REPRODUCTION.json`
//! before overwriting it, through the shared [`Gate`]: every row field and
//! every verdict must match as `bound` says — exactly for all but the
//! wall-clock fields, the `measured` summaries, `weight_sum` and `speedup` —
//! and a row or verdict on one side only is a drift.

use crate::json::{fault_plan_json, report_json, write_artifact, BenchMeta, Json};
use crate::{obj, print_table, Bound, Gate};
use rld_core::common::rng::{mix64, rng_from_seed};
use rld_core::paramspace::DistanceMetric;
use rld_core::prelude::*;
use rld_core::scenario::{fault_scenario_names, SCENARIO_SEED};
use rld_workloads::{summary_stats, ValueDistribution};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The committed artifact; it doubles as the `--check` baseline.
const ARTIFACT: &str = "REPRODUCTION.json";

/// One figure or table of the evaluation.
struct Experiment {
    id: &'static str,
    /// Where the paper shows it.
    paper: &'static str,
    /// Runs the sweep, prints its tables and returns one row per point.
    sweep: fn() -> Vec<Json>,
    /// What §6 claims about the figure.
    claims: &'static [Claim],
    /// What this reproduction finds about its own sweep.
    findings: &'static [Claim],
}

/// Whether a statement holds on a sweep's rows, and the numbers deciding it.
type Check = fn(&[Json]) -> (bool, String);

/// A statement, its citation, and its predicate over a sweep's rows.
type Claim = (&'static str, &'static str, Check);

/// The evaluation, in the paper's order: one entry per figure or table, one
/// line per claim.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 15] = [
    Experiment { id: "fig10", paper: "Fig. 10", sweep: fig10, claims: &[
        ("ERP makes no more optimizer calls than ES at every (ε, U)", "§6.3", erp_calls_at_most_es),
        ("ERP's saving over ES (ES − ERP calls) is non-decreasing in U at each ε", "§6.3", erp_saving_grows_with_u),
    ], findings: &[
        ("ERP barely searches: it stops after 2 optimizer calls at most points", "Fig. 10 rows", erp_stops_at_two_calls),
    ] },
    Experiment { id: "fig11", paper: "Fig. 11", sweep: fig11, claims: &[
        ("ERP's coverage is at least RS's at every budget and ε", "§6.3", erp_covers_at_least_rs),
    ], findings: &[
        ("Fig. 11 cannot separate the solvers: every cell prints 1.000", "Fig. 11 rows", logical_coverage_saturated),
    ] },
    Experiment { id: "fig12", paper: "Fig. 12", sweep: fig12, claims: &[
        ("ERP's calls grow slower than ES's with the dimensions: ERP(d+1)/ERP(d) < ES(d+1)/ES(d)", "§6.3",
            erp_grows_slower_than_es),
    ], findings: &[] },
    Experiment { id: "compile_scale", paper: "Fig. 12, scaled", sweep: compile_scale, claims: &[], findings: &[
        ("Beyond 2 dimensions ERP stops with most of the occurrence mass unexplored", "compile_scale rows",
            erp_leaves_most_mass),
    ] },
    Experiment { id: "fig13", paper: "Fig. 13", sweep: fig13, claims: &[
        ("Σ GreedyPhy ms < Σ OptPrune ms in each (query, U) table (wall clock)", "§6.4", greedy_faster_than_optprune),
        ("OptPrune's score equals ES's to 1e-9 wherever ES ran",
            "§6.4, Theorem 3; random instances: solver_scale::pruned_optprune_matches_naive", optprune_matches_es),
    ], findings: &[] },
    Experiment { id: "fig14", paper: "Fig. 14", sweep: fig14, claims: &[
        ("OptPrune's coverage is at least GreedyPhy's at every point", "§6.4", optprune_covers_at_least_greedy),
        ("OptPrune's coverage is non-decreasing in the number of machines", "§6.4", optprune_coverage_grows),
    ], findings: &[
        ("Fig. 14 cannot separate the solvers: every cell that ran prints 1.000", "Fig. 14 rows",
            physical_coverage_saturated),
    ] },
    Experiment { id: "physical_scale", paper: "Fig. 13, scaled", sweep: physical_scale, claims: &[], findings: &[] },
    Experiment { id: "fig15a", paper: "Fig. 15a", sweep: fig15a, claims: &[
        ("RLD's mean tuple processing time is at most ROD's at every rate ratio", "§6.5", rld_no_slower_than_rod),
    ], findings: &[] },
    Experiment { id: "fig15b", paper: "Fig. 15b", sweep: fig15b, claims: &[
        ("RLD's cumulative result tuples at minute 60 are at least ROD's and DYN's", "§6.5", rld_produces_most),
    ], findings: &[
        ("The counts are too small to compare: fewer than 10 tuples each by minute 60", "Fig. 15b rows",
            produced_counts_tiny),
    ] },
    Experiment { id: "fig16a", paper: "Fig. 16a", sweep: fig16a, claims: &[], findings: &[
        ("runtime_capacity's heaviest-operator floor holds per-node capacity fixed across the node sweep, \
          so ROD, RLD and HYB read the same at every node count", "Fig. 16a rows", node_sweep_capacity_fixed),
    ] },
    Experiment { id: "fig16b", paper: "Fig. 16b", sweep: fig16b, claims: &[], findings: &[] },
    Experiment { id: "table2", paper: "Table 2", sweep: table2, claims: &[], findings: &[] },
    Experiment { id: "overhead", paper: "§6.5", sweep: overhead, claims: &[
        ("On q2-regime-switch RLD never migrates and DYN does", "§6.5", rld_never_migrates),
        ("RLD's overhead share is at most 1/10 of DYN's (the weakest reading of \"orders of magnitude less\")",
            "§6.5", rld_overhead_below_dyn),
    ], findings: &[] },
    Experiment { id: "faults", paper: "§6.5, faults", sweep: faults, claims: &[
        ("Under node crashes the adaptive DYN and HYB fail over and lose no tuples", FAULT_PLANE, adaptive_lose_nothing),
        ("Under node crashes the static ROD and RLD ride the fault out and pay in lost tuples", FAULT_PLANE,
            static_pay_in_lost_tuples),
        ("Under node crashes DYN and HYB produce at least as many result tuples as ROD and RLD", FAULT_PLANE,
            adaptive_produce_most),
    ], findings: &[
        ("On q1-flap RLD loses no tuples and reroutes no batch while ROD loses some: RLD's placement leaves \
          the flapping node 2 idle", "faults rows", rld_untouched_by_flap),
    ] },
    Experiment { id: "ablations", paper: "Ablations", sweep: ablations, claims: &[], findings: &[] },
];

/// Run the whole evaluation, write `REPRODUCTION.json` and, with `check`,
/// gate the run against the committed copy. A failing claim is a result,
/// not an error: the exit code is non-zero only when the artifact cannot be
/// written or the gate fails.
pub fn run(check: bool) -> ExitCode {
    // Read the committed baseline *before* this run overwrites it.
    let baseline = check.then(|| std::fs::read_to_string(ARTIFACT));
    let mut runs = Vec::new();
    for ex in &EXPERIMENTS {
        println!("\n### {} — {}", ex.id, ex.paper);
        let rows = (ex.sweep)();
        for (i, row) in rows.iter().enumerate() {
            let mut run = obj! { "experiment" => ex.id, "row" => i };
            if let (Json::Obj(tagged), Json::Obj(fields)) = (&mut run, row) {
                tagged.extend(fields.iter().cloned());
            }
            runs.push(run);
        }
        for (kind, list) in [("claim", ex.claims), ("finding", ex.findings)] {
            for (i, &(statement, citation, check)) in list.iter().enumerate() {
                let (holds, measured) = check(&rows);
                println!("{}: {statement} — {measured}", verdict(kind, holds));
                runs.push(obj! {
                    "experiment" => ex.id, kind => i, "statement" => statement, "citation" => citation,
                    "holds" => holds, "measured" => measured,
                });
            }
        }
    }
    println!("\n### paper says / we measure / holds\n");
    print!("{}", paper_table(&runs));

    let meta = BenchMeta::new()
        .seed(SCENARIO_SEED)
        .scenario("paper-evaluation");
    let data = obj! { "runs" => runs.clone() };
    if let Err(err) = write_artifact(Path::new(ARTIFACT), "reproduction", &meta, data) {
        eprintln!("\ncould not write {ARTIFACT}: {err}");
        return ExitCode::from(2);
    }
    println!("\nwrote {ARTIFACT}");
    let gate = Gate {
        path: ARTIFACT,
        key: &["experiment", "row", "claim", "finding"],
        bound,
    };
    match baseline.map(|text| gate.check(text, &runs)) {
        Some(Err((code, message))) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
        _ => ExitCode::SUCCESS,
    }
}

/// How `--check` compares a row field with its committed value. Every
/// field is exact — the sweeps are seeded, so any drift is a behaviour
/// change — except:
/// * wall clock, reported only: Fig. 13's `compile_ms`, the scaling sweeps'
///   `wall_ms`, `fast_ms` and `naive_ms`, and the fault rows' `*_wall_ms`;
/// * the `measured` summaries of claims and findings, whose verdicts are
///   gated instead;
/// * `weight_sum`, to 1e-12 relative: a change of summation order may move
///   its last bits;
/// * `speedup`, which may not fall below half its committed value: a ratio
///   of two wall times, the naive side of a small point running in
///   microseconds, so the gate holds a floor and leaves the structure to
///   the exact DFS counters;
/// * the scaling sweeps' `unexplored_mass`, `naive_expanded` and `profiles`,
///   recorded beside the gated fields and reported only.
fn bound(field: &str) -> Bound {
    match field {
        "weight_sum" => Bound::Relative(1e-12),
        "speedup" => Bound::Floor(0.5),
        "compile_ms" | "wall_ms" | "fast_ms" | "naive_ms" | "measured" => Bound::Reported,
        "unexplored_mass" | "naive_expanded" | "profiles" => Bound::Reported,
        wall if wall.ends_with("_wall_ms") => Bound::Reported,
        _ => Bound::Exact,
    }
}

// ---------------------------------------------------------------------------
// Sweeps. Each prints the tables of the figure it reproduces and returns one
// JSON row per point.
// ---------------------------------------------------------------------------

/// Number of grid steps per dimension used for an uncertainty level `U`.
///
/// Algorithm 1 widens the interval by ±0.1·U around the estimate; the paper
/// discretizes the space in fixed absolute units, so larger uncertainty means
/// more grid cells. We use `4·U + 1` steps, which gives the familiar 9-step
/// (8-interval) axis of Figure 6 at U = 2.
/// A claim's or finding's verdict column.
fn verdict(kind: &str, holds: bool) -> &'static str {
    match (kind, holds) {
        ("claim", true) => "holds",
        ("claim", false) => "**fails**",
        (_, true) => "finding",
        (_, false) => "finding gone",
    }
}

/// PAPER.md's "paper says / we measure / holds" table, rendered from the
/// `runs` rows alone: in the paper's order, one line per claim and finding
/// (statement, citation, `measured`, verdict from `holds`) and one per
/// experiment without a claim, counting its rows. So the committed
/// `REPRODUCTION.json` renders exactly the block PAPER.md carries between
/// `<!-- reproduce:begin -->` and `<!-- reproduce:end -->`.
pub fn paper_table(runs: &[Json]) -> String {
    let mut table =
        String::from("| Figure | Paper says | We measure | Holds |\n|---|---|---|---|\n");
    for ex in &EXPERIMENTS {
        let tagged = |key: &'static str| {
            runs.iter().filter(move |run| {
                run.get("experiment").and_then(Json::as_str) == Some(ex.id)
                    && run.get(key).is_some()
            })
        };
        for kind in ["claim", "finding"] {
            for run in tagged(kind) {
                let text = |key| run.get(key).and_then(Json::as_str).unwrap_or_default();
                let holds = run.get("holds") == Some(&Json::Bool(true));
                table += &format!(
                    "| {} | {} ({}) | {} | {} |\n",
                    ex.paper,
                    text("statement"),
                    text("citation"),
                    text("measured"),
                    verdict(kind, holds)
                );
            }
        }
        if ex.claims.is_empty() {
            table += &format!(
                "| {} | no claim: rows recorded as measurements | {} rows | — |\n",
                ex.paper,
                tagged("row").count()
            );
        }
    }
    table
}

pub(crate) fn steps_for_uncertainty(u: u32) -> usize {
    (4 * u as usize + 1).max(3)
}

/// The compiler invocation shared by the compile-time experiments: `dims`
/// uncertain selectivity dimensions at uncertainty level `u`, with the
/// U-proportional grid of [`steps_for_uncertainty`].
fn compiler_for(query: &Query, dims: usize, u: u32) -> RobustCompiler {
    let compiler = RobustCompiler::new(query.clone()).with_selectivity_dims(dims, u);
    compiler.with_grid_steps(steps_for_uncertainty(u))
}

/// ES, RS (seeded with [`SCENARIO_SEED`]) and ERP through the
/// [`RobustCompiler`] on one (ε, dims, U): each solver's name, optimizer
/// calls and — under a shared call budget, as Fig. 11 reads them — true
/// ε-robust coverage (NaN without a budget).
pub(crate) fn compare_logical(
    query: &Query,
    (epsilon, dims, u): (f64, usize, u32),
    budget: Option<usize>,
) -> [(&'static str, usize, f64); 3] {
    let space = compiler_for(query, dims, u)
        .build_space()
        .expect("valid space");
    let evaluator = budget
        .map(|_| CoverageEvaluator::new(query.clone(), space.clone(), epsilon).expect("evaluator"));
    let solvers = [
        LogicalSolverSpec::Exhaustive,
        LogicalSolverSpec::Random {
            seed: SCENARIO_SEED,
        },
        LogicalSolverSpec::Erp(ErpConfig::default()),
    ];
    solvers.map(|solver| {
        let mut compiler = compiler_for(query, dims, u)
            .with_solver(solver)
            .with_epsilon(epsilon);
        if let Some(b) = budget {
            compiler = compiler.with_budget(b);
        }
        let c = compiler
            .compile_logical_in(space.clone())
            .expect("logical compile");
        let coverage = evaluator
            .as_ref()
            .map_or(f64::NAN, |ev| ev.true_coverage(&c.solution).unwrap_or(0.0));
        (c.solver, c.stats.optimizer_calls, coverage)
    })
}

/// Figs. 10–12: ES / RS / ERP side by side, one table per (ε, fixed U) and
/// one row per axis value `x`, which `point` maps to (dims, U, budget): the
/// cells are coverage under a budget (Fig. 11), optimizer calls otherwise.
fn logical_figure(
    query: Query,
    (title, axis): (&str, &str),
    xs: &[usize],
    tables: [(f64, Option<u32>); 3],
    point: Point,
) -> Vec<Json> {
    let mut rows = Vec::new();
    for (epsilon, fixed_u) in tables {
        let mut table = Vec::new();
        for &x in xs {
            let (dims, u, budget) = point(fixed_u, x);
            let results = compare_logical(&query, (epsilon, dims, u), budget);
            let [es, rs, erp] = results.map(|(_, calls, cov)| budget.map_or(calls as f64, |_| cov));
            let cell = |v: f64| budget.map_or(v.to_string(), |_| format!("{v:.3}"));
            rows.push(obj! {
                "epsilon" => epsilon, "dims" => dims, "u" => u, "budget" => budget,
                "ES" => es, "RS" => rs, "ERP" => erp,
            });
            table.push(vec![x.to_string(), cell(es), cell(rs), cell(erp)]);
        }
        let u = fixed_u.map_or(String::new(), |u| format!(", U = {u}"));
        let title = format!("{title}, epsilon = {epsilon}{u}");
        print_table(&title, &[axis, "ES", "RS", "ERP"], &table);
    }
    rows
}

/// Where a point of Figs. 10–12 sits: (dims, U, budget) from the table's
/// fixed U and the row's axis value.
type Point = fn(Option<u32>, usize) -> (usize, u32, Option<usize>);

/// Fig. 10: optimizer calls for Q1 (5-way join), U ∈ 1..=5, ε ∈ {0.1, 0.2, 0.3}.
fn fig10() -> Vec<Json> {
    let q1 = Query::q1_stock_monitoring();
    let title = "Figure 10 — optimizer calls, Q1";
    let tables = [(0.1, None), (0.2, None), (0.3, None)];
    let point: Point = |_, u| (2, u as u32, None);
    logical_figure(q1, (title, "U"), &[1, 2, 3, 4, 5], tables, point)
}

/// Fig. 11: coverage for Q1 under a call budget of 10–300, at U = 2.
fn fig11() -> Vec<Json> {
    let q1 = Query::q1_stock_monitoring();
    let title = "Figure 11 — space coverage, Q1";
    let tables = [(0.1, Some(2)), (0.2, Some(2)), (0.3, Some(2))];
    let point: Point = |_, budget| (2, 2, Some(budget));
    logical_figure(
        q1,
        (title, "calls"),
        &[10, 50, 100, 200, 300],
        tables,
        point,
    )
}

/// Fig. 12: optimizer calls for Q2 (10-way join) over 2–5 dimensions, at the
/// paper's three (ε, U) configurations.
fn fig12() -> Vec<Json> {
    let (q2, title) = (Query::q2_ten_way_join(), "Figure 12 — optimizer calls, Q2");
    let tables = [(0.3, Some(1)), (0.2, Some(2)), (0.1, Some(3))];
    let point: Point = |u, dims| (dims, u.unwrap_or(1), None);
    logical_figure(q2, (title, "dims"), &[2, 3, 4, 5], tables, point)
}

/// Fig. 12's search scaled: WRP and ERP over Q2 as the space grows in
/// dimensions and grid steps, every dimension at ±40% (U = 4, so the optimal
/// plan changes across the space) and ε = 0.1 (tight enough to force real
/// partitioning). Each row records the search's deterministic shape —
/// optimizer calls, plans, robust regions, the lattice points §4.2's weight
/// function was assigned to, the plan-cost evaluations that took, the
/// solution's fingerprint — beside wall time, the claimed coverage, the
/// §5.2 weights and the unexplored mass (the occurrence probability of the
/// partition's open leaves, which only ERP leaves behind), all read off the
/// solution's partition tree. (5, 15) is the benchmark's `compile-wrp-q2` /
/// `compile-erp-q2` space.
fn compile_scale() -> Vec<Json> {
    let query = Query::q2_ten_way_join();
    let solvers = [
        LogicalSolverSpec::Wrp,
        LogicalSolverSpec::Erp(ErpConfig::default()),
    ];
    let sweep = [(2, 15), (3, 15), (4, 15), (4, 21), (5, 15), (6, 9)];
    let rows: Vec<Json> = sweep
        .into_iter()
        .flat_map(|(dims, steps)| solvers.map(|solver| compile_row(&query, dims, steps, solver)))
        .collect();
    let columns = "dims steps solver optimizer_calls plans regions weighted_points \
                   cost_evaluations wall_ms coverage weight_sum unexplored_mass";
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            columns
                .iter()
                .map(|column| match row.get(column) {
                    Some(Json::Num(v)) if v.fract() != 0.0 => format!("{v:.3}"),
                    Some(Json::Str(s)) => s.clone(),
                    Some(other) => other.to_string(),
                    None => String::new(),
                })
                .collect()
        })
        .collect();
    let title = "compile_scale — WRP/ERP over growing Q2 parameter spaces";
    print_table(title, &columns, &table);
    rows
}

/// One [`compile_scale`] point.
fn compile_row(query: &Query, dims: usize, steps: usize, solver: LogicalSolverSpec) -> Json {
    let compiler = RobustCompiler::new(query.clone())
        .with_selectivity_dims(dims, 4)
        .with_grid_steps(steps)
        .with_solver(solver)
        .with_epsilon(0.1);
    let start = Instant::now();
    let compilation = compiler.compile_logical().expect("compile");
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let (solution, space) = (&compilation.solution, &compilation.space);
    let regions: usize = solution.entries().iter().map(|e| e.regions.len()).sum();
    let weights = solution.plan_weights(space, OccurrenceModel::Normal);
    let unexplored = solution.unexplored_mass(space, OccurrenceModel::Normal);
    // WRP stops only when its queue is empty: no open leaf remains.
    assert!(compilation.solver != "WRP" || unexplored == 0.0);
    let stats = &compilation.stats;
    obj! {
        "dims" => dims, "steps" => steps, "solver" => compilation.solver,
        "optimizer_calls" => stats.optimizer_calls, "plans" => solution.len(), "regions" => regions,
        "weighted_points" => stats.weighted_points, "cost_evaluations" => stats.cost_evaluations,
        "fingerprint" => format!("{:016x}", solution.fingerprint()), "wall_ms" => wall_ms,
        "coverage" => solution.claimed_coverage(space), "weight_sum" => weights.iter().sum::<f64>(),
        "unexplored_mass" => unexplored,
    }
}

/// The ERP solution (ε = 0.2, two dimensions at level `u`) and its support
/// model — worst-case loads and Normal-model weights — that the physical
/// experiments pack.
pub(crate) fn support_model(query: &Query, u: u32) -> (LogicalCompilation, SupportModel) {
    let c = compiler_for(query, 2, u)
        .with_epsilon(0.2)
        .compile_logical()
        .expect("ERP solution");
    let model = c
        .support_model(query, OccurrenceModel::Normal)
        .expect("support model");
    (c, model)
}

/// Per-node capacity such that the whole worst-case load amounts to
/// `nodes_needed` nodes' worth of work: with fewer machines the physical
/// planner must drop plans, with more it has slack. A node must at least
/// host the heaviest single operator, or no placement supports anything.
pub(crate) fn capacity_for(model: &SupportModel, nodes_needed: f64) -> f64 {
    let total: f64 = model.lp_max_loads().iter().sum();
    let max_single = model.lp_max_loads().iter().cloned().fold(0.0f64, f64::max);
    (total / nodes_needed).max(max_single * 1.2).max(1e-6)
}

/// Figs. 13 and 14: GreedyPhy / OptPrune / ES on the ERP solution's support
/// model as the number of machines varies — Q1 on 2–6, Q2 on 6–10, ε = 0.2,
/// U ∈ {1, 2, 3} — with capacity sized so half the sweep's machine counts
/// carry the total worst-case load. Fig. 13 reads each solver's compile
/// time, Fig. 14 the coverage of its plan: the share of cells in the robust
/// region of a logical plan the placement supports, read off the solution's
/// partition tree. Exhaustive search over Q2's 10 operators would enumerate
/// ≥ 6^10 placements, so those cells are `n/a`.
fn physical_figure(title: &str, coverage: bool) -> Vec<Json> {
    use PhysicalSolverSpec::{Exhaustive, Greedy, OptPrune};
    let mut rows = Vec::new();
    for (query, sweep) in [
        (Query::q1_stock_monitoring(), 2..=6usize),
        (Query::q2_ten_way_join(), 6..=10),
    ] {
        for u in [1u32, 2, 3] {
            let (compilation, model) = support_model(&query, u);
            let capacity = capacity_for(&model, sweep.clone().count() as f64 / 2.0);
            let mut table = Vec::new();
            for n in sweep.clone() {
                let cluster = Cluster::homogeneous(n, capacity).unwrap();
                let mut cells = vec![n.to_string()];
                for solver in [Greedy, OptPrune, Exhaustive] {
                    let (plan, stats) = match solver.generate(&model, &cluster) {
                        Ok(result) => result,
                        // "n/a" is reserved for the deliberately infeasible
                        // exhaustive search; GreedyPhy/OptPrune must succeed.
                        Err(_) if solver == Exhaustive => {
                            cells.push("n/a".into());
                            continue;
                        }
                        Err(err) => panic!("{} failed on {n} machines: {err}", solver.name()),
                    };
                    let (field, value) = if coverage {
                        let supported = model.supported_indices(&plan, &cluster);
                        (
                            "coverage",
                            compilation
                                .solution
                                .coverage_of(&compilation.space, &supported),
                        )
                    } else {
                        ("compile_ms", stats.elapsed_ms())
                    };
                    cells.push(format!("{value:.3}"));
                    rows.push(obj! {
                        "query" => &query.name, "u" => u, "machines" => n, "solver" => solver.name(),
                        field => value, "nodes_expanded" => stats.nodes_expanded,
                        "nodes_pruned" => stats.nodes_pruned, "incumbent_updates" => stats.incumbent_updates,
                        "score" => stats.score, "supported_plans" => stats.supported_plans,
                    });
                }
                table.push(cells);
            }
            let title = format!("{title}, {}, epsilon = 0.2, U = {u}", query.name);
            print_table(&title, &["machines", "GreedyPhy", "OptPrune", "ES"], &table);
        }
    }
    rows
}

fn fig13() -> Vec<Json> {
    physical_figure("Figure 13 — compile time (ms)", false)
}

fn fig14() -> Vec<Json> {
    physical_figure("Figure 14 — physical plan space coverage", true)
}

/// The floor every 512-node point of [`physical_scale`] must clear: both
/// solvers beat their naive reference by at least this factor.
const MIN_SPEEDUP_AT_512: f64 = 10.0;

/// Fig. 13's solvers scaled to 8–512 nodes: GreedyPhy and OptPrune against
/// the naive references they must match bit for bit, on Q1-shaped
/// (5-operator) and Q2-shaped (10-operator) synthetic plan sets. Every
/// point asserts that the optimized placement *is* the naive one, and every
/// 512-node point that it is at least [`MIN_SPEEDUP_AT_512`]× faster; the
/// rows record both wall times, the speedup and the DFS counters.
///
/// The plan sets are synthetic because the scaling question needs hundreds
/// of profiles where the paper's queries yield a handful. Each set has two
/// tiers, with exact dyadic weights so no score comparison is a near-tie:
///
/// * *heavy* profiles whose worst-case loads exceed any machine, carrying
///   the lowest weights — GreedyPhy must shed them one per iteration, the
///   long drop sequence its incremental rescoring and reusable LLF packer
///   exist for;
/// * *light* profiles whose loads fit machines in singletons and pairs but
///   never triples — OptPrune branches over every singleton/pair partition,
///   and because every partition strands exactly the heavy tier, the score
///   landscape is a tie plateau that only the balance-aware bound cuts
///   through (the naive reference's score-only prune never fires).
///
/// Q1's five operators keep OptPrune's tree tiny, so its sweep leans on a
/// deep heavy tier, where the GreedyPhy seed dominates both
/// implementations' wall time.
fn physical_scale() -> Vec<Json> {
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    for (qname, query, heavy, light) in [
        ("Q1", Query::q1_stock_monitoring(), 512, 16),
        ("Q2", Query::q2_ten_way_join(), 128, 24),
    ] {
        let model = tiered_model(&query, heavy, light);
        for nodes in [8usize, 32, 128, 512] {
            let cluster = Cluster::homogeneous(nodes, 1.0).expect("cluster");
            for solver in ["GreedyPhy", "OptPrune"] {
                let fast = || match solver {
                    "GreedyPhy" => GreedyPhy::new().generate(&model, &cluster),
                    _ => OptPrune::new().generate(&model, &cluster),
                };
                let naive = || match solver {
                    "GreedyPhy" => NaiveGreedyPhy::new().generate(&model, &cluster),
                    _ => NaiveOptPrune::new().generate(&model, &cluster),
                };
                let point = format!("{qname}/{solver}@{nodes}");
                let (fast_plan, stats) = fast().unwrap_or_else(|e| panic!("{point}: {e}"));
                let (naive_plan, naive_stats) =
                    naive().unwrap_or_else(|e| panic!("{point} naive: {e}"));
                assert_eq!(
                    fast_plan, naive_plan,
                    "{point}: placement diverged from naive"
                );
                assert!(
                    (stats.score - naive_stats.score).abs() <= 1e-12,
                    "{point}: score {} vs naive {}",
                    stats.score,
                    naive_stats.score
                );
                let fast_ms = time_ms(|| drop(fast().expect("timed solve")));
                let naive_ms = time_ms(|| drop(naive().expect("timed naive solve")));
                let speedup = naive_ms / fast_ms.max(1e-6);
                rows.push(obj! {
                    "query" => qname, "solver" => solver, "nodes" => nodes, "profiles" => heavy + light,
                    "fast_ms" => fast_ms, "naive_ms" => naive_ms, "speedup" => speedup,
                    "score" => stats.score, "dfs_expanded" => stats.nodes_expanded,
                    "dfs_pruned" => stats.nodes_pruned, "incumbent_updates" => stats.incumbent_updates,
                    "naive_expanded" => naive_stats.nodes_expanded,
                });
                table.push(vec![
                    qname.into(),
                    solver.into(),
                    nodes.to_string(),
                    format!("{fast_ms:.3}"),
                    format!("{naive_ms:.3}"),
                    format!("{speedup:.1}x"),
                    stats.nodes_expanded.to_string(),
                    stats.nodes_pruned.to_string(),
                    stats.incumbent_updates.to_string(),
                ]);
            }
        }
    }
    let headers = "query solver nodes fast_ms naive_ms speedup expanded pruned incumbents";
    let headers: Vec<&str> = headers.split(' ').collect();
    let title = "physical_scale — optimized vs naive solvers (placements bit-identical)";
    print_table(title, &headers, &table);
    for row in rows.iter().filter(|r| num(r, "nodes") == 512.0) {
        let speedup = num(row, "speedup");
        assert!(
            speedup >= MIN_SPEEDUP_AT_512,
            "{}/{}@512: speedup {speedup:.1}x is below the {MIN_SPEEDUP_AT_512}x floor",
            row.get("query").unwrap_or(NO_ROW),
            row.get("solver").unwrap_or(NO_ROW),
        );
    }
    rows
}

/// The two-tier plan set of [`physical_scale`] against unit-capacity
/// machines, its loads drawn from a splitmix64 stream. `heavy` profiles
/// have per-op loads above 1.25 (ascending with the profile index, so the
/// worst-case maximum belongs to the *last*-dropped heavy profile and
/// GreedyPhy's incremental `lp_max` never needs a rescan until the end) and
/// weights below every light profile's. `light` profiles draw per-op loads
/// from [0.35, 0.45): two fit one machine, three never do.
fn tiered_model(query: &Query, heavy: usize, light: usize) -> SupportModel {
    let ops = query.num_operators();
    let plan = LogicalPlan::identity(query);
    let mut state: u64 = 0x5CA1_AB1E_2013;
    let mut draw = || {
        let z = mix64(state);
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    };
    let heavy = (0..heavy).map(|p| PlanLoadProfile {
        plan: plan.clone(),
        weight: (p + 1) as f64 / 1024.0,
        loads: vec![1.25 + p as f64 / 256.0; ops],
    });
    let mut profiles: Vec<PlanLoadProfile> = heavy.collect();
    for p in 0..light {
        // 10 random bits → jitter in [0, 0.1), loads in [0.35, 0.45).
        let loads = (0..ops)
            .map(|_| 0.35 + (draw() >> 54) as f64 / 10240.0)
            .collect();
        profiles.push(PlanLoadProfile {
            plan: plan.clone(),
            weight: (64 + p) as f64 / 64.0,
            loads,
        });
    }
    SupportModel::from_profiles(query, profiles)
}

/// Wall milliseconds of `f`: the minimum over three measurements, each
/// doubling the iteration count until one batch spans at least 5 ms (so
/// microsecond-scale solves still get a stable number) or 4096 iterations.
/// The minimum discards scheduler and frequency-ramp noise, which would
/// otherwise dominate the sub-100 µs points and flap the speedup gate.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut iters = 1u32;
        let per_iter = loop {
            let start = Instant::now();
            (0..iters).for_each(|_| f());
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            if elapsed >= 5.0 || iters >= 4096 {
                break elapsed / f64::from(iters);
            }
            iters *= 2;
        };
        best = best.min(per_iter);
    }
    best
}

/// A runtime table: one row per point `(label, fields, values)`, each
/// strategy's value stored under its name beside the point's fields and
/// printed with `cell` after the point's label.
fn strategy_table(
    (title, axis): (&str, &str),
    cell: fn(f64) -> String,
    points: Vec<(String, Json, [Option<f64>; 4])>,
) -> Vec<Json> {
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    for (x, mut row, values) in points {
        if let Json::Obj(fields) = &mut row {
            let named = DEFAULT_STRATEGY_NAMES.into_iter().zip(values);
            fields.extend(named.map(|(s, v)| (s.to_string(), v.into())));
        }
        rows.push(row);
        table.push(
            [x].into_iter()
                .chain(values.map(|v| v.map_or("n/a".into(), cell)))
                .collect(),
        );
    }
    print_table(title, &[axis, "ROD", "DYN", "RLD", "HYB"], &table);
    rows
}

/// One Fig. 15a/16 point: each strategy's mean tuple processing time (ms)
/// over a `secs`-long simulated Q2 run on `nodes` homogeneous nodes sized by
/// `runtime_capacity` at 3× slack, with operator selectivities switching
/// regime every `regime_secs` while the rates follow `rate`. The row records
/// the point's coordinate and the per-node capacity.
fn regime_switch_point(
    (label, key, x): (String, &'static str, f64),
    nodes: usize,
    (regime_secs, rate): (f64, RatePattern),
    secs: f64,
) -> (String, Json, [Option<f64>; 4]) {
    let query = Query::q2_ten_way_join();
    let capacity = runtime_capacity(&query, nodes, 3.0);
    let workload = regime_switching_workload(&query, regime_secs, rate);
    let report = Scenario::builder(format!("{key}-{x}"), query)
        .homogeneous_cluster(nodes, 3.0)
        .workload(workload)
        .duration_secs(secs)
        .default_strategies(runtime_rld_config())
        .build()
        .and_then(|scenario| scenario.run())
        .expect("simulation run");
    let ms =
        DEFAULT_STRATEGY_NAMES.map(|s| report.metrics_for(s).map(|m| m.avg_tuple_processing_ms));
    (label, obj! { key => x, "capacity" => capacity }, ms)
}

/// Rates alternating between a high and a low phase of `period_secs` each.
fn fluctuating(period_secs: f64) -> RatePattern {
    RatePattern::Periodic {
        period_secs,
        high_scale: 2.0,
        low_scale: 0.5,
    }
}

fn one_decimal(ms: f64) -> String {
    format!("{ms:.1}")
}

/// Fig. 15a: ROD / DYN / RLD — plus this reproduction's HYB — on 10 nodes
/// with the input rates held at 50%–400% of the planned rates, 30-minute runs.
fn fig15a() -> Vec<Json> {
    let points = [0.5, 1.0, 2.0, 3.0, 4.0].map(|r| {
        let x = (format!("{}%", (r * 100.0) as u32), "rate_ratio", r);
        regime_switch_point(x, 10, (60.0, RatePattern::Constant(r)), 1800.0)
    });
    let title = "Figure 15a — average tuple processing time (ms) vs input-rate ratio";
    strategy_table((title, "rate"), one_decimal, points.into())
}

/// Fig. 16a: 5, 10 and 15 nodes under a 10 s rate fluctuation. The
/// heaviest operator's floor in `runtime_capacity` (`max_single × 1.05`)
/// binds at all three counts, so per-node capacity is the same at each and
/// only the node count varies.
fn fig16a() -> Vec<Json> {
    let points = [5, 10, 15].map(|n| {
        let x = (n.to_string(), "nodes", n as f64);
        regime_switch_point(x, n, (60.0, fluctuating(10.0)), 900.0)
    });
    let title = "Figure 16a — average tuple processing time (ms) vs number of nodes";
    strategy_table((title, "nodes"), one_decimal, points.into())
}

/// Fig. 16b: 10 nodes as the rate fluctuation period varies over {5, 10, 20} s.
fn fig16b() -> Vec<Json> {
    let points = [5.0, 10.0, 20.0].map(|p| {
        let x = (format!("{p}s"), "period_secs", p);
        regime_switch_point(x, 10, (p * 6.0, fluctuating(p)), 900.0)
    });
    let title = "Figure 16b — average tuple processing time (ms) vs fluctuation period";
    strategy_table((title, "period"), one_decimal, points.into())
}

/// Run a builtin scenario on the simulator.
fn builtin_report(name: &str) -> ScenarioReport {
    scenario::builtin(name)
        .and_then(|s| s.run())
        .expect("builtin scenario run")
}

/// Fig. 15b: cumulative result tuples over the builtin `q2-rate-steps`
/// scenario, whose rates step from 50% to 100% at minute 20 and to 200% at
/// minute 40.
fn fig15b() -> Vec<Json> {
    let report = builtin_report("q2-rate-steps");
    let points = (10..=60u64).step_by(10).map(|minute| {
        let at = |m: &RunMetrics| {
            m.produced_timeline
                .iter()
                .find(|(t, _)| *t == minute)
                .map(|&(_, c)| c as f64)
        };
        let counts = DEFAULT_STRATEGY_NAMES.map(|s| report.metrics_for(s).and_then(at));
        (minute.to_string(), obj! { "minute" => minute }, counts)
    });
    let title = "Figure 15b — cumulative result tuples produced (rate steps at 20 and 40 min)";
    strategy_table((title, "minute"), |c| c.to_string(), points.collect())
}

/// §6.5: the share of cluster work spent beyond query processing on the
/// builtin `q2-regime-switch` scenario — plan classification for RLD and
/// HYB, operator migrations for DYN (and HYB when the statistics escape
/// every robust region), and by construction zero for ROD.
fn overhead() -> Vec<Json> {
    let report = builtin_report("q2-regime-switch");
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    for m in report.metrics() {
        let (share, ms) = (m.overhead_fraction(), m.avg_tuple_processing_ms);
        rows.push(obj! {
            "system" => &m.system, "overhead_fraction" => share, "migrations" => m.migrations,
            "plan_switches" => m.plan_switches, "avg_ms" => ms,
        });
        let (migrations, switches) = (m.migrations.to_string(), m.plan_switches.to_string());
        let overhead = format!("{:.2}%", share * 100.0);
        table.push(vec![
            m.system.clone(),
            overhead,
            migrations,
            switches,
            format!("{ms:.1}"),
        ]);
    }
    let headers = [
        "system",
        "overhead",
        "migrations",
        "plan switches",
        "avg ms",
    ];
    print_table(
        "Runtime overhead — share of work beyond query processing",
        &headers,
        &table,
    );
    rows
}

/// Where the fault sweep's claims come from: this reproduction's fault plane
/// extends §6.5's robustness-against-adaptivity comparison to node crashes.
const FAULT_PLANE: &str = "§6.5 under the fault plane; the fault builtins' descriptions";

/// §6.5's four strategies on the fault builtins (`q1-node-crash`,
/// `q2-straggler`, `q1-flap`), on the simulator. Per scenario one row
/// carries its exact fault plan, then one row per strategy its metrics and
/// compile statistics, flattened.
fn faults() -> Vec<Json> {
    let mut rows = Vec::new();
    for name in fault_scenario_names() {
        let scenario = scenario::builtin(name).expect("fault builtin resolves");
        let report = scenario.run().expect("simulation run");
        rows.push(obj! {
            "scenario" => name, "description" => scenario.description(),
            "duration_secs" => scenario.sim_config().duration_secs,
            "fault_plan" => fault_plan_json(scenario.fault_plan()),
        });
        let outcomes = report_json(&report);
        for outcome in outcomes
            .get("outcomes")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            // The metrics and solver statistics inline, so that each
            // `*_wall_ms` is a row field of its own.
            let mut row = vec![("scenario".to_string(), Json::from(name))];
            if let Json::Obj(fields) = outcome {
                for (key, value) in fields {
                    match value {
                        Json::Obj(inner) => row.extend(inner.iter().cloned()),
                        Json::Null => {}
                        other => row.push((key.clone(), other.clone())),
                    }
                }
            }
            rows.push(Json::Obj(row));
        }
        let table: Vec<Vec<String>> = report
            .outcomes
            .iter()
            .map(|outcome| match &outcome.metrics {
                Some(m) => vec![
                    m.system.clone(),
                    m.tuples_produced.to_string(),
                    m.tuples_lost.to_string(),
                    m.reroutes.to_string(),
                    format!("{:.0}", m.downtime_node_secs),
                    format!("{:.1}", m.mean_recovery_secs),
                    m.migrations.to_string(),
                    format!("{:.1}", m.avg_tuple_processing_ms),
                ],
                None => [outcome.strategy.as_str(), "skipped"]
                    .into_iter()
                    .chain(["-"; 5])
                    .map(String::from)
                    .chain(outcome.skipped.clone())
                    .collect(),
            })
            .collect();
        let headers = "system produced lost reroutes downtime recovery migr avg_ms";
        let headers: Vec<&str> = headers.split(' ').collect();
        let title = format!("Scenario {name} — fault comparison");
        print_table(&title, &headers, &table);
    }
    rows
}

/// Table 2: the simulator parameters every runtime figure runs with (each
/// scenario overrides only duration and seed) and summary statistics of the
/// synthetic Uniform(0, 100) and Poisson(λ = 1) distributions, 100k seeded
/// samples each.
fn table2() -> Vec<Json> {
    let sim = SimConfig::default();
    let parameters = [
        ("tick_secs", sim.tick_secs),
        ("monitor_period_secs", sim.monitor_period_secs),
        ("monitor_alpha", sim.monitor_alpha),
        ("migration_fixed_cost", sim.migration_fixed_cost),
        ("migration_cost_per_kb", sim.migration_cost_per_kb),
    ];
    let mut rows: Vec<Json> = parameters
        .map(|(name, v)| obj! { "parameter" => name, "value" => v })
        .into();
    let table = parameters.map(|(name, v)| vec![name.to_string(), v.to_string()]);
    let title = "Table 2 — system parameters (SimConfig::default(); arrivals are Poisson per tick)";
    print_table(title, &["parameter", "value"], &table);

    let headers = "distribution min max med mean ave.dev st.dev var skew kurt";
    let headers: Vec<&str> = headers.split(' ').collect();
    let mut table = Vec::new();
    for (name, dist) in [
        ("Uniform(0,100)", ValueDistribution::table2_uniform()),
        ("Poisson(1)", ValueDistribution::table2_poisson()),
    ] {
        let s = summary_stats(&dist.sample_n(&mut rng_from_seed(SCENARIO_SEED), 100_000));
        let stats = [
            s.min, s.max, s.median, s.mean, s.ave_dev, s.std_dev, s.variance, s.skew, s.kurtosis,
        ];
        let mut row = vec![("distribution".to_string(), Json::from(name))];
        row.extend(
            headers[1..]
                .iter()
                .zip(stats)
                .map(|(h, v)| (h.to_string(), Json::Num(v))),
        );
        rows.push(Json::Obj(row));
        let cells = stats
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{:.*}", if i < 3 { 1 } else { 2 }, v));
        table.push([name.to_string()].into_iter().chain(cells).collect());
    }
    print_table(
        "Table 2 — data distributions (100k samples)",
        &headers,
        &table,
    );
    rows
}

/// Ablations of three design choices on Q1 at U = 3: the occurrence model
/// that weights the logical plans (§5.2, GreedyPhy on 3 nodes), the
/// distance metric in ERP's weight function (§4.2) and the robustness
/// threshold ε.
fn ablations() -> Vec<Json> {
    let query = Query::q1_stock_monitoring();
    let (mut rows, mut table) = (Vec::new(), Vec::new());
    let compilation = compiler_for(&query, 2, 3)
        .with_epsilon(0.2)
        .compile_logical()
        .unwrap();
    for (name, model) in [
        ("Normal", OccurrenceModel::Normal),
        ("Uniform", OccurrenceModel::Uniform),
    ] {
        let support = compilation.support_model(&query, model).unwrap();
        let cluster = Cluster::homogeneous(3, capacity_for(&support, 2.5)).unwrap();
        let (plan, stats) = PhysicalSolverSpec::Greedy
            .generate(&support, &cluster)
            .unwrap();
        let supported = support.supported_indices(&plan, &cluster);
        let coverage = compilation
            .solution
            .coverage_of(&compilation.space, &supported);
        let (score, plans) = (stats.score, stats.supported_plans);
        rows.push(obj! {
            "ablation" => "occurrence model", "variant" => name, "score" => score,
            "coverage" => coverage, "supported_plans" => plans,
        });
        table.push(vec![
            name.to_string(),
            format!("{score:.4}"),
            format!("{coverage:.3}"),
            plans.to_string(),
        ]);
    }
    let title = "Ablation 1 — occurrence model used to weight logical plans (GreedyPhy, 3 nodes)";
    print_table(title, &["model", "score", "coverage", "supported"], &table);

    // ERP at ε = 0.2 under each distance metric, then at each ε under the
    // default one.
    let metrics = [
        ("Manhattan", DistanceMetric::Manhattan),
        ("Euclidean", DistanceMetric::Euclidean),
    ];
    let metric_runs =
        metrics.map(|(name, metric)| ("distance metric", name.to_string(), 0.2, Some(metric)));
    let epsilon_runs = [0.05, 0.1, 0.2, 0.3, 0.5].map(|e| ("epsilon", e.to_string(), e, None));
    let mut tables = [Vec::new(), Vec::new()];
    for (ablation, variant, epsilon, metric) in metric_runs.into_iter().chain(epsilon_runs) {
        let mut compiler = compiler_for(&query, 2, 3).with_epsilon(epsilon);
        if let Some(metric) = metric {
            compiler = compiler.with_metric(metric);
        }
        let c = compiler.compile_logical().unwrap();
        let ev = CoverageEvaluator::new(query.clone(), c.space.clone(), epsilon).unwrap();
        let coverage = ev.true_coverage(&c.solution).unwrap();
        let (calls, plans) = (c.stats.optimizer_calls, c.solution.len());
        rows.push(obj! {
            "ablation" => ablation, "variant" => &variant, "calls" => calls, "plans" => plans,
            "coverage" => coverage,
        });
        let cells = vec![
            variant,
            calls.to_string(),
            plans.to_string(),
            format!("{coverage:.3}"),
        ];
        tables[usize::from(metric.is_none())].push(cells);
    }
    let titles = [
        (
            "Ablation 2 — distance metric in the ERP weight function",
            "metric",
        ),
        (
            "Ablation 3 — robustness threshold epsilon sweep (ERP, Q1, U = 3)",
            "epsilon",
        ),
    ];
    for ((title, axis), table) in titles.into_iter().zip(&tables) {
        print_table(title, &[axis, "calls", "plans", "coverage"], table);
    }
    rows
}

// ---------------------------------------------------------------------------
// Predicates over a sweep's rows. A predicate over no rows does not hold.
// ---------------------------------------------------------------------------

/// What a lookup that finds no row reads: every number in it is NaN.
const NO_ROW: &Json = &Json::Null;

/// The number under `key`: NaN when absent, which no comparison passes.
fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The row whose `key` is `value`.
fn find<'a>(rows: &'a [Json], key: &str, value: Json) -> &'a Json {
    rows.iter()
        .find(|r| r.get(key) == Some(&value))
        .unwrap_or(NO_ROW)
}

/// Whether two rows agree on every `keys` field.
fn same(a: &Json, b: &Json, keys: &[&str]) -> bool {
    keys.iter().all(|k| a.get(k) == b.get(k))
}

/// The rows of one physical solver.
fn solver<'a>(rows: &'a [Json], name: &str) -> Vec<&'a Json> {
    let name = Some(&Json::from(name));
    rows.iter().filter(|r| r.get("solver") == name).collect()
}

/// Solver `name`'s row at the (query, U, machines) point of `point`.
fn at<'a>(rows: &'a [Json], point: &Json, name: &str) -> &'a Json {
    let same_point = |r: &&Json| same(r, point, &["query", "u", "machines"]);
    solver(rows, name)
        .into_iter()
        .find(same_point)
        .unwrap_or(NO_ROW)
}

/// `f` of each consecutive pair of rows that agree on every `group` field:
/// the steps along a sweep axis within one table.
fn steps(rows: &[&Json], group: &[&str], f: impl Fn(&Json, &Json) -> f64) -> Vec<f64> {
    let tables = rows.chunk_by(|a, b| same(a, b, group));
    tables
        .flat_map(|t| t.windows(2).map(|w| f(w[0], w[1])))
        .collect()
}

/// The smallest of `values` — NaN when there are none or one is NaN, so that
/// no comparison passes — and the claim's report of it.
fn smallest(values: impl IntoIterator<Item = f64>, what: &str) -> (f64, String) {
    let values: Vec<f64> = values.into_iter().collect();
    let least = values.iter().fold(
        f64::INFINITY,
        |m, &v| if v.is_nan() || v < m { v } else { m },
    );
    let least = if values.is_empty() { f64::NAN } else { least };
    let shown = format!("{least:.3}");
    let shown = shown.trim_end_matches('0').trim_end_matches('.');
    (
        least,
        format!("smallest {what}: {shown} over {} points", values.len()),
    )
}

fn erp_calls_at_most_es(rows: &[Json]) -> (bool, String) {
    let (least, measured) = smallest(
        rows.iter().map(|r| num(r, "ES") - num(r, "ERP")),
        "ES − ERP calls",
    );
    (least >= 0.0, measured)
}

fn erp_saving_grows_with_u(rows: &[Json]) -> (bool, String) {
    let saving = |r: &Json| num(r, "ES") - num(r, "ERP");
    let growth = steps(&rows.iter().collect::<Vec<_>>(), &["epsilon"], |a, b| {
        saving(b) - saving(a)
    });
    let (least, measured) = smallest(growth, "step in ES − ERP along U");
    (least >= 0.0, measured)
}

fn erp_stops_at_two_calls(rows: &[Json]) -> (bool, String) {
    let two = rows.iter().filter(|r| num(r, "ERP") == 2.0).count();
    (
        2 * two > rows.len(),
        format!("2 calls at {two} of {} points", rows.len()),
    )
}

fn erp_covers_at_least_rs(rows: &[Json]) -> (bool, String) {
    let (least, measured) = smallest(
        rows.iter().map(|r| num(r, "ERP") - num(r, "RS")),
        "ERP − RS coverage",
    );
    (least >= 0.0, measured)
}

/// Holds when every cell prints as 1.000.
fn saturated(cells: Vec<f64>) -> (bool, String) {
    let full = cells.iter().filter(|&&c| c >= 0.9995).count();
    (
        !cells.is_empty() && full == cells.len(),
        format!("{full} of {} cells print 1.000", cells.len()),
    )
}

fn logical_coverage_saturated(rows: &[Json]) -> (bool, String) {
    saturated(
        rows.iter()
            .flat_map(|r| ["ES", "RS", "ERP"].map(|s| num(r, s)))
            .collect(),
    )
}

fn erp_grows_slower_than_es(rows: &[Json]) -> (bool, String) {
    let growth = |a: &Json, b: &Json, s| num(b, s) / num(a, s);
    let ratio = |a: &Json, b: &Json| growth(a, b, "ES") / growth(a, b, "ERP");
    let ratios = steps(&rows.iter().collect::<Vec<_>>(), &["epsilon", "u"], ratio);
    let (least, measured) = smallest(ratios, "ES growth / ERP growth per added dimension");
    (least > 1.0, measured)
}

fn greedy_faster_than_optprune(rows: &[Json]) -> (bool, String) {
    let total = |table: &[Json], name| -> f64 {
        let rows = table
            .iter()
            .filter(|r| r.get("solver") == Some(&Json::from(name)));
        rows.map(|r| num(r, "compile_ms")).sum()
    };
    let tables = rows.chunk_by(|a, b| same(a, b, &["query", "u"]));
    let ratios = tables.map(|t| total(t, "OptPrune") / total(t, "GreedyPhy"));
    let (least, measured) = smallest(ratios, "Σ OptPrune / Σ GreedyPhy ms per (query, U) table");
    (least > 1.0, measured)
}

fn optprune_matches_es(rows: &[Json]) -> (bool, String) {
    let gap = |es: &Json| (num(at(rows, es, "OptPrune"), "score") - num(es, "score")).abs();
    let (least, _) = smallest(solver(rows, "ES").into_iter().map(|es| -gap(es)), "");
    let cells = solver(rows, "ES").len();
    (
        least >= -1e-9,
        format!(
            "largest OptPrune − ES score gap: {:.1e} over {cells} ES points",
            -least
        ),
    )
}

fn optprune_covers_at_least_greedy(rows: &[Json]) -> (bool, String) {
    let margin = |g: &Json| num(at(rows, g, "OptPrune"), "coverage") - num(g, "coverage");
    let (least, measured) = smallest(
        solver(rows, "GreedyPhy").into_iter().map(margin),
        "OptPrune − GreedyPhy coverage",
    );
    (least >= 0.0, measured)
}

fn optprune_coverage_grows(rows: &[Json]) -> (bool, String) {
    let growth = steps(&solver(rows, "OptPrune"), &["query", "u"], |a, b| {
        num(b, "coverage") - num(a, "coverage")
    });
    let (least, measured) = smallest(growth, "coverage step per added machine");
    (least >= 0.0, measured)
}

fn physical_coverage_saturated(rows: &[Json]) -> (bool, String) {
    saturated(rows.iter().map(|r| num(r, "coverage")).collect())
}

fn rld_no_slower_than_rod(rows: &[Json]) -> (bool, String) {
    let (least, measured) = smallest(
        rows.iter().map(|r| num(r, "ROD") / num(r, "RLD")),
        "ROD / RLD mean time",
    );
    (least >= 1.0, measured)
}

fn rld_produces_most(rows: &[Json]) -> (bool, String) {
    let last = find(rows, "minute", Json::from(60u64));
    let [rld, rod, dyn_] = ["RLD", "ROD", "DYN"].map(|s| num(last, s));
    (
        rld >= rod && rld >= dyn_,
        format!("minute 60: RLD {rld}, ROD {rod}, DYN {dyn_}"),
    )
}

fn produced_counts_tiny(rows: &[Json]) -> (bool, String) {
    let last = find(rows, "minute", Json::from(60u64));
    let most = DEFAULT_STRATEGY_NAMES
        .map(|s| num(last, s))
        .into_iter()
        .fold(f64::NAN, f64::max);
    (most < 10.0, format!("at most {most} tuples at minute 60"))
}

fn node_sweep_capacity_fixed(rows: &[Json]) -> (bool, String) {
    let fixed = |key| rows.windows(2).all(|w| num(&w[0], key) == num(&w[1], key));
    let holds = rows.len() > 1 && ["capacity", "ROD", "RLD", "HYB"].into_iter().all(fixed);
    let nodes: Vec<String> = rows.iter().map(|r| num(r, "nodes").to_string()).collect();
    let capacity = rows.first().map_or(f64::NAN, |r| num(r, "capacity"));
    (
        holds,
        format!(
            "capacity {capacity:.1} per node at n = {}",
            nodes.join(", ")
        ),
    )
}

fn rld_never_migrates(rows: &[Json]) -> (bool, String) {
    let [rld, dyn_] =
        ["RLD", "DYN"].map(|s| num(find(rows, "system", Json::from(s)), "migrations"));
    (
        rld == 0.0 && dyn_ > 0.0,
        format!("migrations: RLD {rld}, DYN {dyn_}"),
    )
}

fn rld_overhead_below_dyn(rows: &[Json]) -> (bool, String) {
    let share = |s: &str| 100.0 * num(find(rows, "system", Json::from(s)), "overhead_fraction");
    let (rld, dyn_) = (share("RLD"), share("DYN"));
    (
        rld <= dyn_ / 10.0,
        format!("overhead share: RLD {rld:.2}%, DYN {dyn_:.2}%"),
    )
}

fn erp_leaves_most_mass(rows: &[Json]) -> (bool, String) {
    let erp = Some(Json::from("ERP"));
    let masses: Vec<f64> = rows
        .iter()
        .filter(|r| r.get("solver") == erp.as_ref() && num(r, "dims") > 2.0)
        .map(|r| num(r, "unexplored_mass"))
        .collect();
    let (least, measured) = smallest(masses, "ERP unexplored mass beyond 2 dimensions");
    (least > 0.5, measured)
}

/// Per fault scenario whose plan crashes a node, in sweep order: the
/// scenario and `field` of each of `strategies`' rows.
fn under_crashes(rows: &[Json], field: &str, strategies: &[&str]) -> Vec<(String, Vec<f64>)> {
    let crashes = |r: &&Json| {
        let events = r.get("fault_plan").and_then(|p| p.get("events"));
        let events = events.and_then(Json::as_arr).unwrap_or_default();
        events
            .iter()
            .any(|e| e.get("kind") == Some(&Json::from("crash")))
    };
    fn scenario(r: &Json) -> &str {
        r.get("scenario").and_then(Json::as_str).unwrap_or_default()
    }
    let value = |name: &str, s: &str| {
        let row = rows
            .iter()
            .find(|r| scenario(r) == name && r.get("strategy").and_then(Json::as_str) == Some(s));
        num(row.unwrap_or(NO_ROW), field)
    };
    let crashed = rows.iter().filter(crashes).map(scenario);
    crashed
        .map(|name| {
            (
                name.to_string(),
                strategies.iter().map(|s| value(name, s)).collect(),
            )
        })
        .collect()
}

/// The report of an [`under_crashes`] table: `what` per scenario.
fn per_scenario(what: &str, table: &[(String, Vec<f64>)]) -> String {
    let cells = table.iter().map(|(name, values)| {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        format!("{name} {}", values.join(", "))
    });
    format!("{what}: {}", cells.collect::<Vec<_>>().join("; "))
}

fn adaptive_lose_nothing(rows: &[Json]) -> (bool, String) {
    let lost = under_crashes(rows, "tuples_lost", &["DYN", "HYB"]);
    let holds = !lost.is_empty() && lost.iter().flat_map(|(_, l)| l).all(|&l| l == 0.0);
    (holds, per_scenario("lost by DYN, HYB", &lost))
}

fn static_pay_in_lost_tuples(rows: &[Json]) -> (bool, String) {
    let lost = under_crashes(rows, "tuples_lost", &["ROD", "RLD"]);
    let holds = !lost.is_empty() && lost.iter().flat_map(|(_, l)| l).all(|&l| l > 0.0);
    (holds, per_scenario("lost by ROD, RLD", &lost))
}

fn adaptive_produce_most(rows: &[Json]) -> (bool, String) {
    let produced = under_crashes(rows, "tuples_produced", &["DYN", "HYB", "ROD", "RLD"]);
    let margin = produced
        .iter()
        .map(|(_, p)| p[0].min(p[1]) - p[2].max(p[3]));
    let (least, _) = smallest(margin, "");
    (
        least >= 0.0,
        per_scenario("produced by DYN, HYB, ROD, RLD", &produced),
    )
}

fn rld_untouched_by_flap(rows: &[Json]) -> (bool, String) {
    let flap = under_crashes(rows, "tuples_lost", &["RLD", "ROD"]);
    let reroutes = under_crashes(rows, "reroutes", &["RLD"]);
    let at_flap = |table: &[(String, Vec<f64>)], i: usize| {
        let row = table.iter().find(|(name, _)| name == "q1-flap");
        row.map_or(f64::NAN, |(_, values)| values[i])
    };
    let [rld, rod, rerouted] = [(&flap, 0), (&flap, 1), (&reroutes, 0)].map(|(t, i)| at_flap(t, i));
    (
        rld == 0.0 && rerouted == 0.0 && rod > 0.0,
        format!("q1-flap: RLD loses {rld} and reroutes {rerouted}, ROD loses {rod}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PAPER.md's table is the committed artifact's, not a run's: pasted
    /// from `reproduce` and re-pasted whenever `REPRODUCTION.json` moves.
    #[test]
    fn paper_md_carries_the_table_of_the_committed_artifact() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |name: &str| std::fs::read_to_string(root.join(name)).unwrap();
        let artifact = Json::parse(&read(ARTIFACT)).unwrap();
        let runs = artifact
            .get("data")
            .and_then(|data| data.get("runs"))
            .and_then(Json::as_arr)
            .unwrap();
        let paper = read("PAPER.md");
        let block = paper
            .split_once("<!-- reproduce:begin -->\n")
            .and_then(|(_, rest)| rest.split_once("<!-- reproduce:end -->"))
            .map(|(block, _)| block)
            .expect("PAPER.md's reproduce:begin … reproduce:end block");
        assert_eq!(
            block,
            paper_table(runs),
            "re-paste PAPER.md's block from the committed REPRODUCTION.json"
        );
    }

    fn rows(text: &str) -> Vec<Json> {
        Json::parse(text).unwrap().as_arr().unwrap().to_vec()
    }

    /// `check` holds on the rows of `good` and fails on those of `bad`.
    fn decides(check: Check, good: &str, bad: &str) {
        let ((holds, why), (fails, why_not)) = (check(&rows(good)), check(&rows(bad)));
        assert!(holds, "should hold: {why}");
        assert!(!fails, "should fail: {why_not}");
    }

    #[test]
    fn wall_clock_is_reported_and_the_rest_gated() {
        for field in [
            "compile_ms",
            "wall_ms",
            "fast_ms",
            "naive_ms",
            "logical_wall_ms",
        ] {
            assert_eq!(bound(field), Bound::Reported, "{field}");
        }
        for field in [
            "optimizer_calls",
            "fingerprint",
            "dfs_pruned",
            "tuples_lost",
            "holds",
        ] {
            assert_eq!(bound(field), Bound::Exact, "{field}");
        }
        assert_eq!(bound("weight_sum"), Bound::Relative(1e-12));
        assert_eq!(bound("speedup"), Bound::Floor(0.5));
    }

    #[test]
    fn no_statement_holds_on_no_rows() {
        for ex in &EXPERIMENTS {
            for &(statement, _, check) in ex.claims.iter().chain(ex.findings) {
                assert!(!check(&[]).0, "{}: {statement}", ex.id);
            }
        }
    }

    #[test]
    fn logical_claims_decide() {
        decides(
            erp_calls_at_most_es,
            r#"[{"ES": 25, "ERP": 2}, {"ES": 81, "ERP": 81}]"#,
            r#"[{"ES": 25, "ERP": 2}, {"ES": 25, "ERP": 26}]"#,
        );
        // Steps are taken within one ε only: 23 → 79, then a new table.
        decides(
            erp_saving_grows_with_u,
            r#"[{"epsilon": 0.1, "ES": 25, "ERP": 2}, {"epsilon": 0.1, "ES": 81, "ERP": 2},
                {"epsilon": 0.2, "ES": 25, "ERP": 20}]"#,
            r#"[{"epsilon": 0.1, "ES": 25, "ERP": 2}, {"epsilon": 0.1, "ES": 81, "ERP": 70}]"#,
        );
        decides(
            erp_covers_at_least_rs,
            r#"[{"RS": 0.9, "ERP": 1}, {"RS": 1, "ERP": 1}]"#,
            r#"[{"RS": 0.9, "ERP": 0.8}]"#,
        );
        // Growth must be strictly slower: ×5 against ×5 does not hold.
        decides(
            erp_grows_slower_than_es,
            r#"[{"epsilon": 0.1, "u": 3, "ES": 169, "ERP": 34}, {"epsilon": 0.1, "u": 3, "ES": 2197, "ERP": 132}]"#,
            r#"[{"epsilon": 0.1, "u": 3, "ES": 25, "ERP": 2}, {"epsilon": 0.1, "u": 3, "ES": 125, "ERP": 10}]"#,
        );
    }

    #[test]
    fn physical_claims_decide() {
        let point = |u: u32, machines: u32, solver: &str, field: &str, value: f64| {
            format!(
                r#"{{"query": "Q1", "u": {u}, "machines": {machines}, "solver": "{solver}", "{field}": {value}}}"#
            )
        };
        let table = |points: &[String]| format!("[{}]", points.join(", "));
        let timed = |opt_u2: f64| {
            let ms = [
                (1, "GreedyPhy", 0.001),
                (1, "OptPrune", 0.01),
                (2, "GreedyPhy", 0.002),
                (2, "OptPrune", opt_u2),
            ];
            table(&ms.map(|(u, solver, ms)| point(u, 2, solver, "compile_ms", ms)))
        };
        decides(greedy_faster_than_optprune, &timed(0.02), &timed(0.001));
        let scored = |es: f64| {
            table(&[
                point(1, 2, "OptPrune", "score", 0.9),
                point(1, 2, "ES", "score", es),
            ])
        };
        decides(optprune_matches_es, &scored(0.9), &scored(0.95));
        let covered = |greedy: f64, opt: f64| {
            let cells = [
                (2, "GreedyPhy", greedy),
                (2, "OptPrune", opt),
                (3, "GreedyPhy", greedy),
                (3, "OptPrune", 1.0),
            ];
            table(&cells.map(|(m, solver, c)| point(1, m, solver, "coverage", c)))
        };
        decides(
            optprune_covers_at_least_greedy,
            &covered(0.8, 0.9),
            &covered(0.8, 0.7),
        );
        decides(
            optprune_coverage_grows,
            &covered(0.8, 0.9),
            &covered(0.8, 1.5),
        );
    }

    #[test]
    fn runtime_claims_decide() {
        decides(
            rld_no_slower_than_rod,
            r#"[{"ROD": 400, "RLD": 390}, {"ROD": 1284.8, "RLD": 984.2}]"#,
            r#"[{"ROD": 400, "RLD": 390}, {"ROD": 400, "RLD": 410}]"#,
        );
        decides(
            rld_produces_most,
            r#"[{"minute": 50, "ROD": 9, "RLD": 1}, {"minute": 60, "ROD": 7, "DYN": 7, "RLD": 8}]"#,
            r#"[{"minute": 60, "ROD": 9, "DYN": 7, "RLD": 8}]"#,
        );
        let systems = |rld_migrations: u32, rld_share: f64| {
            rows(&format!(
                r#"[{{"system": "RLD", "migrations": {rld_migrations}, "overhead_fraction": {rld_share}}},
                    {{"system": "DYN", "migrations": 175, "overhead_fraction": 0.0077}}]"#
            ))
        };
        assert!(rld_never_migrates(&systems(0, 0.019)).0);
        assert!(!rld_never_migrates(&systems(1, 0.019)).0);
        // The reproduction's own §6.5 numbers fail the claim.
        let (holds, measured) = rld_overhead_below_dyn(&systems(0, 0.019));
        assert!(!holds);
        assert_eq!(measured, "overhead share: RLD 1.90%, DYN 0.77%");
        assert!(rld_overhead_below_dyn(&systems(0, 0.0007)).0);
    }

    /// The fault sweep's rows: a crash plan for `q1-node-crash` and
    /// `q1-flap`, a degrade-only plan for `q2-straggler`, then each
    /// strategy's (lost, produced, reroutes) — the measured ones, with `flap`
    /// in place of `q1-flap`'s and `straggler_dyn_lost` for DYN's loss under
    /// the straggler.
    fn fault_rows(flap: [(u32, u32, u32); 4], straggler_dyn_lost: u32) -> String {
        let plan = |name: &str, kind: &str| {
            format!(r#"{{"scenario": "{name}", "fault_plan": {{"events": [{{"kind": {kind}}}]}}}}"#)
        };
        let crash = [(12050, 22, 120), (0, 39, 0), (12071, 22, 120), (0, 40, 0)];
        let straggler = [(0, 1, 0), (straggler_dyn_lost, 1, 0), (0, 1, 0), (0, 1, 0)];
        let mut rows = Vec::new();
        for (name, kind, outcomes) in [
            ("q1-node-crash", r#""crash""#, crash),
            ("q2-straggler", r#"{"degrade": 0.25}"#, straggler),
            ("q1-flap", r#""crash""#, flap),
        ] {
            rows.push(plan(name, kind));
            for (s, (lost, produced, reroutes)) in DEFAULT_STRATEGY_NAMES.into_iter().zip(outcomes)
            {
                rows.push(format!(
                    r#"{{"scenario": "{name}", "strategy": "{s}", "tuples_lost": {lost},
                        "tuples_produced": {produced}, "reroutes": {reroutes}}}"#
                ));
            }
        }
        format!("[{}]", rows.join(", "))
    }

    /// `q1-flap` as measured: ROD, DYN, RLD, HYB.
    const FLAP: [(u32, u32, u32); 4] = [(2162, 37, 22), (0, 39, 0), (0, 39, 0), (0, 40, 0)];

    /// [`FLAP`] with RLD's outcome replaced.
    fn flap_with_rld(rld: (u32, u32, u32)) -> [(u32, u32, u32); 4] {
        let mut flap = FLAP;
        flap[2] = rld;
        flap
    }

    #[test]
    fn fault_claims_decide() {
        let measured = fault_rows(FLAP, 0);
        // A straggler crashes nothing, so a loss there decides nothing.
        decides(
            adaptive_lose_nothing,
            &fault_rows(FLAP, 3),
            &fault_rows([(2162, 37, 22), (0, 39, 0), (0, 39, 0), (1, 40, 0)], 0),
        );
        // The measured rows fail the static claim: RLD loses nothing on q1-flap.
        let (holds, why) = static_pay_in_lost_tuples(&rows(&measured));
        assert!(!holds);
        assert_eq!(
            why,
            "lost by ROD, RLD: q1-node-crash 12050, 12071; q1-flap 2162, 0"
        );
        assert!(static_pay_in_lost_tuples(&rows(&fault_rows(flap_with_rld((5, 39, 2)), 0))).0);
        decides(
            adaptive_produce_most,
            &measured,
            &fault_rows(flap_with_rld((0, 41, 0)), 0),
        );
        decides(
            rld_untouched_by_flap,
            &measured,
            &fault_rows(flap_with_rld((5, 39, 2)), 0),
        );
        // Rerouting without a loss is a touch too.
        assert!(!rld_untouched_by_flap(&rows(&fault_rows(flap_with_rld((0, 39, 1)), 0))).0);
    }

    #[test]
    fn findings_decide() {
        decides(
            erp_leaves_most_mass,
            r#"[{"solver": "ERP", "dims": 2, "unexplored_mass": 0}, {"solver": "WRP", "dims": 3, "unexplored_mass": 0},
                {"solver": "ERP", "dims": 3, "unexplored_mass": 0.736}]"#,
            r#"[{"solver": "ERP", "dims": 3, "unexplored_mass": 0.736}, {"solver": "ERP", "dims": 4, "unexplored_mass": 0.3}]"#,
        );
        decides(
            erp_stops_at_two_calls,
            r#"[{"ERP": 2}, {"ERP": 2}, {"ERP": 7}]"#,
            r#"[{"ERP": 2}, {"ERP": 7}]"#,
        );
        decides(
            logical_coverage_saturated,
            r#"[{"ES": 1, "RS": 1, "ERP": 0.9996}]"#,
            r#"[{"ES": 1, "RS": 0.99, "ERP": 1}]"#,
        );
        decides(
            physical_coverage_saturated,
            r#"[{"coverage": 1}, {"coverage": 1}]"#,
            r#"[{"coverage": 1}, {"coverage": 0.5}]"#,
        );
        decides(
            produced_counts_tiny,
            r#"[{"minute": 60, "ROD": 7, "DYN": 7, "RLD": 8, "HYB": 8}]"#,
            r#"[{"minute": 60, "ROD": 7, "DYN": 7, "RLD": 8, "HYB": 12}]"#,
        );
        decides(
            node_sweep_capacity_fixed,
            r#"[{"nodes": 5, "capacity": 959.3, "ROD": 1, "DYN": 9, "RLD": 2, "HYB": 3},
                {"nodes": 10, "capacity": 959.3, "ROD": 1, "DYN": 5, "RLD": 2, "HYB": 3}]"#,
            r#"[{"nodes": 5, "capacity": 959.3, "ROD": 1, "RLD": 2, "HYB": 3},
                {"nodes": 10, "capacity": 700, "ROD": 1, "RLD": 2, "HYB": 3}]"#,
        );
    }
}
