//! The traced run: one repetition with spans around every call into a
//! layer's public functions, a staged replay of `RobustCompiler::compile_in`
//! through its public steps, and small standalone timings of the layers the
//! pipeline only reaches indirectly. Produces every per-layer metric.

use crate::chain::{execute, rep, Rep, Run};
use crate::checks::{check_compile, check_runs, claimed_regions, Gate, SeedStream};
use crate::scenario::Scenario;
use crate::trace::Tracer;
use rld_core::common::{Result, StatsSnapshot};
use rld_core::engine::RldStrategy;
use rld_core::logical::RobustnessChecker;
use rld_core::paramspace::Region;
use rld_core::query::{CostModel, JoinOrderOptimizer, Optimizer};
use rld_core::{Deployment, PhysicalSolverSpec};
use std::hint::black_box;

/// Seeded snapshots for the standalone optimizer and cost-model timings.
const QUERY_SAMPLES: usize = 2_000;
/// Seeded snapshots classified; the uncovered ones cost every plan, so only
/// the first `UNCOVERED_SAMPLES` of them are timed.
const CLASSIFY_SAMPLES: usize = 20_000;
const UNCOVERED_SAMPLES: usize = 2_000;

pub type Metrics = Vec<(&'static str, f64)>;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Replay `compile_in` + `deploy` step by step. `RldStrategy::new` over
/// clones stands in for `Deployment::deploy`, which does exactly that.
/// Returns (staged sum ms, logical search ms, optimizer calls).
fn staged_compile(
    sc: &Scenario,
    reference: &Deployment,
    tracer: &Tracer,
    out: &mut Metrics,
) -> Result<(f64, f64, f64)> {
    let mark = tracer.mark();
    let calls = tracer.span("staged_compile", || -> Result<f64> {
        let space = tracer.span("build_space", || sc.compiler.build_space())?;
        let logical = tracer.span("logical_search", || sc.compiler.compile_logical_in(space))?;
        let support = tracer.span("support_model", || {
            logical.support_model(&sc.query, reference.occurrence)
        })?;
        let solver = PhysicalSolverSpec::by_name(&reference.physical_solver)?;
        let (physical, physical_stats) =
            tracer.span("physical_solve", || solver.generate(&support, &sc.cluster))?;
        let coverage = tracer.span("claimed_coverage", || {
            logical.solution.claimed_coverage(&logical.space)
        });
        let strategy = tracer.span("deploy_equivalent", || {
            RldStrategy::new(
                &sc.query,
                logical.space.clone(),
                logical.solution.clone(),
                physical.clone(),
                reference.classification_overhead,
            )
        });
        black_box((coverage, strategy));

        let regions: usize = logical
            .solution
            .entries()
            .iter()
            .map(|e| e.regions.len())
            .sum();
        out.extend([
            (
                "logical.optimizer_calls",
                logical.stats.optimizer_calls as f64,
            ),
            ("logical.plans", logical.solution.len() as f64),
            ("logical.regions", regions as f64),
            (
                "logical.terminated_early",
                f64::from(u8::from(logical.stats.terminated_early)),
            ),
            (
                "physical.dfs_expanded",
                physical_stats.nodes_expanded as f64,
            ),
            ("physical.dfs_pruned", physical_stats.nodes_pruned as f64),
            (
                "physical.incumbent_updates",
                physical_stats.incumbent_updates as f64,
            ),
            (
                "physical.supported_plans",
                physical_stats.supported_plans as f64,
            ),
            ("physical.score", physical_stats.score),
        ]);
        Ok(logical.stats.optimizer_calls as f64)
    })?;
    // `plan_weights` runs inside `support_model`; timed on its own it says
    // how much of that step is region algebra. Not part of the staged sum.
    tracer.span("plan_weights", || {
        black_box(
            reference
                .logical
                .plan_weights(&reference.space, reference.occurrence),
        )
    });

    let ms = |name| tracer.total_ms(name, mark);
    let steps = [
        ("paramspace.build_ms", ms("build_space")),
        ("logical.search_ms", ms("logical_search")),
        ("physical.support_ms", ms("support_model")),
        ("physical.solve_ms", ms("physical_solve")),
        ("paramspace.coverage_ms", ms("claimed_coverage")),
    ];
    let staged_sum: f64 = steps.iter().map(|(_, v)| v).sum::<f64>() + ms("deploy_equivalent");
    out.extend(steps);
    out.extend([
        ("paramspace.weights_ms", ms("plan_weights")),
        ("core.staged_sum_ms", staged_sum),
        (
            "core.logical_share",
            ratio(ms("logical_search"), staged_sum),
        ),
        (
            "core.region_algebra_share",
            ratio(
                ms("claimed_coverage") + ms("plan_weights") + ms("deploy_equivalent"),
                staged_sum,
            ),
        ),
    ]);
    Ok((staged_sum, ms("logical_search"), calls))
}

/// Standalone cost of the black-box optimizer and the cost model, and of
/// the two robustness checks over the solution's own regions. Returns the
/// optimizer's microseconds per call.
fn query_and_checker_timings(
    sc: &Scenario,
    deployment: &Deployment,
    draws: &mut SeedStream,
    tracer: &Tracer,
    out: &mut Metrics,
) -> Result<f64> {
    let optimizer = JoinOrderOptimizer::new(sc.query.clone());
    let cost_model = CostModel::new(sc.query.clone());
    let whole = Region::full(&deployment.space);
    let snapshots: Vec<StatsSnapshot> = (0..QUERY_SAMPLES)
        .map(|_| deployment.space.snapshot_at(&draws.point_in(&whole)))
        .collect();

    let (plans, optimize) = tracer.timed("optimize_samples", || {
        snapshots
            .iter()
            .map(|s| optimizer.optimize(s))
            .collect::<Result<Vec<_>>>()
    });
    let plans = plans?;
    let (costed, plan_cost) = tracer.timed("plan_cost_samples", || -> Result<()> {
        for (plan, stats) in plans.iter().zip(&snapshots) {
            black_box(cost_model.plan_cost(plan, stats)?);
        }
        Ok(())
    });
    costed?;
    let optimize_us = optimize.as_secs_f64() * 1e6 / QUERY_SAMPLES as f64;

    let claimed = claimed_regions(deployment);
    // A fresh checker (and so a cold optimum memo) per measurement.
    let checker = RobustnessChecker::new(&optimizer, &deployment.space, sc.epsilon);
    let (checked, corner) = tracer.timed("corner_checks", || -> Result<()> {
        for (plan, region) in &claimed {
            black_box(checker.is_robust_in_region(plan, region)?);
        }
        Ok(())
    });
    checked?;
    let checker = RobustnessChecker::new(&optimizer, &deployment.space, sc.epsilon);
    let (verified, exact) = tracer.timed("exact_verification", || -> Result<usize> {
        let mut verified = 0;
        for (plan, region) in &claimed {
            verified += usize::from(checker.is_robust_everywhere(plan, region)?);
        }
        Ok(verified)
    });
    let verified = verified?;
    out.extend([
        ("query.optimize_us_per_call", optimize_us),
        (
            "query.plan_cost_ns_per_call",
            plan_cost.as_secs_f64() * 1e9 / QUERY_SAMPLES as f64,
        ),
        (
            "logical.corner_check_us_per_region",
            ratio(corner.as_secs_f64() * 1e6, claimed.len() as f64),
        ),
        ("logical.exact_verify_ms", exact.as_secs_f64() * 1e3),
        (
            "logical.exact_verified_ratio",
            ratio(verified as f64, claimed.len() as f64),
        ),
    ]);
    Ok(optimize_us)
}

/// `OnlineClassifier::classify` over seeded snapshots, split by whether any
/// robust region covers them (an uncovered snapshot costs every plan).
fn classifier_timings(
    deployment: &Deployment,
    strategy: &RldStrategy,
    draws: &mut SeedStream,
    tracer: &Tracer,
    out: &mut Metrics,
) {
    let mut classifier = strategy.classifier().clone();
    let whole = Region::full(&deployment.space);
    let (mut covered, mut uncovered) = (Vec::new(), Vec::new());
    for _ in 0..CLASSIFY_SAMPLES {
        let point = draws.point_in(&whole);
        let snapshot = deployment.space.snapshot_at(&point);
        if classifier.index().covers(&point.indices) {
            covered.push(snapshot);
        } else if uncovered.len() < UNCOVERED_SAMPLES {
            uncovered.push(snapshot);
        }
    }
    let covered_ratio = ratio(covered.len() as f64, CLASSIFY_SAMPLES as f64);
    let mut ns_per_call = |name, snapshots: &[StatsSnapshot]| {
        let ((), took) = tracer.timed(name, || {
            for snapshot in snapshots {
                black_box(classifier.classify(snapshot));
            }
        });
        // 0 when no seeded snapshot fell on that side (WRP covers them all).
        ratio(took.as_secs_f64() * 1e9, snapshots.len() as f64)
    };
    out.extend([
        (
            "engine.classify_ns",
            ns_per_call("classify_covered", &covered),
        ),
        (
            "engine.classify_uncovered_ns",
            ns_per_call("classify_uncovered", &uncovered),
        ),
        ("engine.classify_covered_ratio", covered_ratio),
    ]);
}

/// Everything `ExecReport` and `RunMetrics` say about one inline-shard run.
fn run_metrics(sc: &Scenario, run: &Run, out: &mut Metrics) {
    let m = &run.report.metrics;
    let stage = run
        .report
        .stage_timings
        .as_ref()
        .expect("the columnar executor reports stages");
    let wall_ms = run.wall_s * 1e3;
    let busy: f64 = stage.shard_busy_ms.iter().sum();
    let idle: f64 = stage.shard_idle_ms.iter().sum();
    // Coordinator stages are serial with the inline shard, so whatever the
    // wall holds beyond them is time nothing claims: loop control, fault and
    // monitor bookkeeping, strategy calls, allocation.
    let coordinator = stage.route_ms + stage.dispatch_ms + stage.fold_ms;
    let unattributed = wall_ms - busy - coordinator;
    let tuples = m.tuples_processed as f64;
    let ticks = sc.ticks as f64;
    out.extend([
        ("exec.wall_ms", wall_ms),
        ("exec.generate_ms", stage.generate_ms),
        ("exec.evaluate_ms", stage.evaluate_ms),
        ("exec.window_ms", stage.window_ms),
        ("exec.route_ms", stage.route_ms),
        ("exec.dispatch_ms", stage.dispatch_ms),
        ("exec.fold_ms", stage.fold_ms),
        ("exec.shard_busy_ms", busy),
        ("exec.shard_idle_ms", idle),
        ("exec.unattributed_ms", unattributed),
        ("exec.ticks_per_s", ticks / run.wall_s),
        ("exec.batches", m.batches as f64),
        ("exec.tuples_processed", tuples),
        ("exec.tuples_lost", m.tuples_lost as f64),
        (
            "workloads.gen_ns_per_tuple",
            ratio(stage.generate_ms * 1e6, tuples),
        ),
        (
            "common.eval_ns_per_tuple",
            ratio(stage.evaluate_ms * 1e6, tuples),
        ),
        ("common.window_us_per_tick", stage.window_ms * 1e3 / ticks),
        (
            "engine.route_us_per_batch",
            ratio(stage.route_ms * 1e3, m.batches as f64),
        ),
        ("engine.plan_switches", m.plan_switches as f64),
        (
            "engine.work_vector_recomputes",
            m.work_vector_recomputes as f64,
        ),
        ("exec.evaluate_share", ratio(stage.evaluate_ms, wall_ms)),
        ("exec.window_share", ratio(stage.window_ms, wall_ms)),
        (
            "exec.coordinator_share",
            ratio(coordinator + unattributed, wall_ms),
        ),
    ]);
}

/// The traced run of one workload. Returns every per-layer metric; the
/// caller checks the list against the manifest.
pub fn traced_run(sc: &Scenario, seed: u64, tracer: &Tracer, gate: &mut Gate) -> Result<Metrics> {
    let mut out = Metrics::new();
    let mut draws = SeedStream(seed);

    // The chain as the untraced run executes it, with a span per call.
    let mark = tracer.mark();
    let Rep {
        compile_s,
        run,
        deployment,
        ..
    } = tracer.span("rep", || rep(sc, &sc.compiler, sc.ticks, seed, tracer))?;
    out.extend([
        ("core.compile_deploy_ms", compile_s * 1e3),
        ("engine.index_build_ms", tracer.total_ms("deploy", mark)),
        (
            "exec.executor_new_ms",
            tracer.total_ms("executor_new", mark),
        ),
    ]);
    run_metrics(sc, &run, &mut out);

    let (staged_sum, search_ms, calls) = staged_compile(sc, &deployment, tracer, &mut out)?;
    let optimize_us = query_and_checker_timings(sc, &deployment, &mut draws, tracer, &mut out)?;
    out.extend([
        // Positive when stepping through the public functions costs more
        // than the single `compile` + `deploy` call it replays.
        (
            "trace.overhead_pct",
            100.0 * (staged_sum - compile_s * 1e3) / (compile_s * 1e3),
        ),
        (
            "query.optimize_share",
            ratio(calls * optimize_us / 1e3, search_ms),
        ),
    ]);

    let mut strategy = deployment.deploy();
    classifier_timings(&deployment, &strategy, &mut draws, tracer, &mut out);

    // Two shards plus a spinning coordinator oversubscribe a 2-core box:
    // informational, and the shard-count invariance check of the gate.
    let two = tracer.span("run_two_shards", || {
        execute(sc, &mut strategy, sc.ticks, seed, 2, tracer)
    })?;
    let busy = |r: &Run| {
        r.report
            .stage_timings
            .as_ref()
            .map_or(f64::NAN, |s| s.shard_busy_ms.iter().sum())
    };
    out.extend([
        (
            "exec.shards2_tps_ratio",
            two.throughput_tps() / run.throughput_tps(),
        ),
        ("exec.shards2_busy_ratio", busy(&two) / busy(&run)),
        (
            "exec.max_shard_skew_ms",
            two.report
                .stage_timings
                .as_ref()
                .map_or(f64::NAN, |s| s.max_shard_skew_ms),
        ),
    ]);

    let pointwise = check_compile(gate, sc, &deployment, seed)?;
    let sim_wall_s = tracer.span("simulator_run", || {
        check_runs(gate, sc, &deployment, sc.ticks, seed, &[&run, &two])
    })?;
    out.extend([
        ("logical.pointwise_robust_ratio", pointwise),
        ("engine.sim_ticks_per_s", sc.ticks as f64 / sim_wall_s),
    ]);
    Ok(out)
}
