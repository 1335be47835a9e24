//! The dataplane sweep: all four strategies on both tuple-level executors.
//!
//! ```text
//! cargo run -p rld-bench --release --bin dataplane            # full sweep
//! cargo run -p rld-bench --release --bin dataplane -- --quick # CI smoke
//! cargo run -p rld-bench --release --bin dataplane -- --quick --check
//! cargo run -p rld-bench --release --bin dataplane -- --quick --check --shards 2
//! ```
//!
//! Where every other runtime bench models execution on the discrete-tick
//! simulator, this one pushes *real tuple batches* through both executors
//! for ROD / DYN / RLD / HYB on the Q1 stock workload. The two share one
//! operator kernel (fused chains over `ColumnBatch`es), one window store and
//! one generator family; what differs is the *scheduler*: `ThreadedExecutor`
//! (reported as `row`) runs one worker thread per cluster node, each
//! evaluating the sub-chain the placement pins to it and forwarding
//! envelopes over bounded channels, while `ColumnarExecutor` (reported as
//! `columnar`) runs whole-plan chains on anonymous shards — one, inline, by
//! default; more over the same bounded channels. Both replay identical
//! policy decisions and evaluate identical tuples per seed, so the
//! throughput ratio — reported per strategy as `speedup` — is the cost of
//! executing the placement hop by hop. Results land in
//! `BENCH_dataplane.json`.
//!
//! `--quick` shortens the horizon and asserts the healthy-scenario
//! invariants (every strategy processes every tuple on both executors and
//! both produce the same result count), making the binary a CI smoke test
//! for the whole tuple-level dataplane.
//!
//! `--shards N` sets the columnar executor's shard count (default 1) and
//! writes its JSON to `BENCH_dataplane-shardsN.json` so side-by-side runs
//! don't clobber each other. The per-run JSON includes the columnar
//! backend's stage timing breakdown (generate / route / dispatch / evaluate
//! / fold / window milliseconds).
//!
//! `--check` is the perf regression gate: after the sweep it compares each
//! strategy's tuples/s on both executors against the committed
//! `BENCH_baseline.json`, and exits non-zero if any throughput fell more
//! than 20% below the baseline. A missing or
//! mode-mismatched baseline is a loud failure, not a skip — but a baseline
//! recorded at a *different shard count* skips the throughput comparison
//! (the numbers are not comparable; the quick-mode invariants still gate
//! correctness).

use rld_bench::json::{metrics_json, write_bench_json, BenchMeta, Json};
use rld_bench::print_table;
use rld_core::prelude::*;

/// The committed reference numbers `--check` compares against.
const BASELINE_PATH: &str = "BENCH_baseline.json";
/// Largest tolerated relative tuples/s drop before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let check = args.iter().any(|a| a == "--check");
    let duration = if quick { 45.0 } else { 300.0 };
    let mut shards: Option<usize> = None;
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(v) = arg.strip_prefix("--shards=") {
            Some(v)
        } else if arg == "--shards" {
            Some(args.get(i + 1).expect("--shards needs a value").as_str())
        } else {
            None
        };
        if let Some(v) = value {
            shards = Some(v.parse().expect("--shards takes a positive integer"));
        }
    }

    let query = Query::q1_stock_monitoring();
    let scenario = Scenario::builder("dataplane-q1", query)
        .describe("Q1 stock workload on the threaded and columnar executors, all four strategies")
        .homogeneous_cluster(4, 3.0)
        // 5x the estimated stream rates: fat batches are the regime the
        // vectorized kernel is built for.
        .workload(StockWorkload::new(60.0, RatePattern::Constant(5.0)))
        .duration_secs(duration)
        .default_strategies(RldConfig::default().with_uncertainty(3))
        .build()
        .expect("scenario");
    println!(
        "dataplane — {} on {} nodes, {:.0} s virtual, per-node workers (row) vs shards (columnar)\n",
        scenario.query().name,
        scenario.cluster().num_nodes(),
        duration,
    );

    let exec_config = ExecConfig::from_sim(*scenario.sim_config());
    let row_exec = ThreadedExecutor::new(
        scenario.query().clone(),
        scenario.cluster().clone(),
        exec_config,
    )
    .expect("row executor");
    let col_config = ColumnarConfig {
        shards: shards.unwrap_or(1),
        ..ColumnarConfig::from_exec(exec_config)
    };
    println!("columnar shards: {}\n", col_config.shards);
    let col_exec = ColumnarExecutor::new(
        scenario.query().clone(),
        scenario.cluster().clone(),
        col_config,
    )
    .expect("columnar executor");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut docs: Vec<Json> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for spec in scenario.strategies() {
        let build = || {
            spec.build(scenario.query(), scenario.cluster())
                .expect("strategy deploys on the comfortable cluster")
        };
        let mut strategy = build();
        let row = row_exec
            .run_report(scenario.workload(), strategy.as_mut(), false)
            .expect("row executor run");
        let mut strategy = build();
        let col = col_exec
            .run_report(scenario.workload(), strategy.as_mut(), false)
            .expect("columnar executor run");

        let name = row.metrics.system.clone();
        // The backends share one policy core: same arrivals per seed, and a
        // healthy run loses nothing anywhere.
        assert_eq!(
            row.metrics.tuples_arrived, col.metrics.tuples_arrived,
            "{name}: backends disagree on arrivals"
        );
        if quick {
            for (backend, m) in [("row", &row.metrics), ("columnar", &col.metrics)] {
                assert!(
                    m.tuples_processed > 0,
                    "{name}/{backend}: the healthy dataplane must process tuples"
                );
                assert_eq!(
                    m.tuples_lost, 0,
                    "{name}/{backend}: the healthy dataplane must lose nothing"
                );
            }
            // One kernel, one generator family: same tuples, same answers.
            assert_eq!(
                row.metrics.tuples_produced, col.metrics.tuples_produced,
                "{name}: executors disagree on produced results"
            );
        }

        let speedup = col.tuples_per_sec / row.tuples_per_sec;
        let p = |r: &ExecReport, i: usize| r.latency_percentiles_ms[i].1;
        rows.push(vec![
            name.clone(),
            format!("{:.0}", row.tuples_per_sec),
            format!("{:.0}", col.tuples_per_sec),
            format!("{speedup:.1}x"),
            format!("{:.2}", p(&row, 0)),
            format!("{:.2}", p(&row, 2)),
            row.metrics.migrations.to_string(),
            row.metrics.plan_switches.to_string(),
        ]);
        let backend_json = |r: &ExecReport| {
            let stages = r
                .stage_timings
                .as_ref()
                .map(|s| {
                    let per_shard =
                        |v: &[f64]| Json::Arr(v.iter().map(|&ms| Json::Num(ms)).collect());
                    Json::obj([
                        ("generate_ms", Json::Num(s.generate_ms)),
                        ("route_ms", Json::Num(s.route_ms)),
                        ("dispatch_ms", Json::Num(s.dispatch_ms)),
                        ("evaluate_ms", Json::Num(s.evaluate_ms)),
                        ("fold_ms", Json::Num(s.fold_ms)),
                        ("window_ms", Json::Num(s.window_ms)),
                        ("shard_busy_ms", per_shard(&s.shard_busy_ms)),
                        ("shard_idle_ms", per_shard(&s.shard_idle_ms)),
                        ("max_shard_skew_ms", Json::Num(s.max_shard_skew_ms)),
                    ])
                })
                .unwrap_or(Json::Null);
            Json::obj([
                ("tuples_per_sec", Json::Num(r.tuples_per_sec)),
                ("wall_secs", Json::Num(r.wall_secs)),
                ("p50_latency_ms", Json::Num(p(r, 0))),
                ("p95_latency_ms", Json::Num(p(r, 1))),
                ("p99_latency_ms", Json::Num(p(r, 2))),
                ("migration_pause_ms", Json::Num(r.migration_pause_ms)),
                ("stage_timings", stages),
                ("metrics", metrics_json(&r.metrics)),
            ])
        };
        names.push(name.clone());
        docs.push(Json::obj([
            ("system", Json::str(&name)),
            ("row", backend_json(&row)),
            ("columnar", backend_json(&col)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    print_table(
        "Dataplane — real tuples, per-node workers (row) vs shards (columnar)",
        &[
            "system", "row t/s", "col t/s", "speedup", "p50 ms", "p99 ms", "migr", "switches",
        ],
        &rows,
    );

    let data = Json::obj([
        ("quick", Json::Bool(quick)),
        ("duration_secs", Json::Num(duration)),
        ("shards_effective", Json::uint(col_config.shards as u64)),
        ("runs", Json::Arr(docs)),
    ]);
    let meta = BenchMeta::new()
        .seed(scenario.sim_config().seed)
        .scenario("dataplane-q1")
        .backend("execute-row+columnar")
        .strategies(names);
    let artifact = match shards {
        Some(n) => format!("dataplane-shards{n}"),
        None => "dataplane".to_string(),
    };
    match write_bench_json(&artifact, &meta, data.clone()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write JSON: {err}"),
    }

    if check {
        check_against_baseline(&data);
    }
}

/// The regression gate: compare this run's tuples/s per strategy and
/// backend against the committed baseline; tolerate up to [`REGRESSION_TOLERANCE`] relative
/// slowdown, exit non-zero beyond it. When the baseline was recorded at a
/// different shard count the throughput numbers are not
/// comparable and the gate reports a skip instead.
fn check_against_baseline(current: &Json) {
    let text = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(text) => text,
        Err(err) => {
            eprintln!(
                "regression gate: cannot read {BASELINE_PATH}: {err}\n\
                 Commit a baseline by copying a healthy run's BENCH_dataplane.json \
                 (same --quick mode) to {BASELINE_PATH}."
            );
            std::process::exit(2);
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("regression gate: {BASELINE_PATH} is not valid JSON: {err}");
            std::process::exit(2);
        }
    };
    let base_data = baseline.get("data").unwrap_or(&Json::Null);
    if base_data.get("quick").and_then(Json::as_bool)
        != current.get("quick").and_then(Json::as_bool)
    {
        eprintln!(
            "regression gate: {BASELINE_PATH} was recorded in a different --quick mode \
             than this run; regenerate it in the mode CI checks."
        );
        std::process::exit(2);
    }
    // Throughput at 1 shard and at 8 shards are different experiments; only
    // gate against a baseline recorded at the same shard count. (A baseline
    // predating the field is compared unconditionally.)
    let shards_of = |doc: &Json| doc.get("shards_effective").and_then(Json::as_f64);
    if let (Some(base_shards), Some(cur_shards)) = (shards_of(base_data), shards_of(current)) {
        if base_shards != cur_shards {
            println!(
                "regression gate: baseline recorded at {base_shards:.0} shards, \
                 this run used {cur_shards:.0} — throughput comparison skipped"
            );
            return;
        }
    }

    let runs_of = |doc: &Json| -> Vec<Json> {
        doc.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let tuples_per_sec = |run: &Json, backend: &str| -> Option<f64> {
        run.get(backend)?.get("tuples_per_sec")?.as_f64()
    };

    let current_runs = runs_of(current);
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for base_run in runs_of(base_data) {
        let Some(system) = base_run.get("system").and_then(Json::as_str) else {
            continue;
        };
        let Some(cur_run) = current_runs
            .iter()
            .find(|r| r.get("system").and_then(Json::as_str) == Some(system))
        else {
            regressions.push(format!("{system}: in the baseline but not in this run"));
            continue;
        };
        for backend in ["row", "columnar"] {
            let (Some(base), Some(cur)) = (
                tuples_per_sec(&base_run, backend),
                tuples_per_sec(cur_run, backend),
            ) else {
                regressions.push(format!("{system}/{backend}: missing tuples_per_sec"));
                continue;
            };
            compared += 1;
            let floor = base * (1.0 - REGRESSION_TOLERANCE);
            let verdict = if cur < floor { "REGRESSION" } else { "ok" };
            println!(
                "check {system}/{backend}: {cur:.0} vs baseline {base:.0} tuples/s \
                 (floor {floor:.0}) — {verdict}"
            );
            if cur < floor {
                regressions.push(format!(
                    "{system}/{backend}: {cur:.0} tuples/s is {:.0}% below the baseline {base:.0}",
                    (1.0 - cur / base) * 100.0
                ));
            }
        }
    }

    if compared == 0 {
        eprintln!("regression gate: {BASELINE_PATH} contains no comparable runs");
        std::process::exit(2);
    }

    if regressions.is_empty() {
        println!(
            "regression gate: all {compared} throughput numbers within {:.0}% of baseline",
            REGRESSION_TOLERANCE * 100.0
        );
    } else {
        eprintln!("regression gate FAILED:");
        for r in &regressions {
            eprintln!("  - {r}");
        }
        eprintln!("stage breakdown of this run (percent of backend wall):");
        print_stage_breakdown(current);
        std::process::exit(1);
    }
}

/// On gate failure, print where the wall time went: each recorded stage as
/// a percentage of its backend's wall clock, so a throughput regression is
/// attributable to a stage without re-running anything.
fn print_stage_breakdown(current: &Json) {
    const STAGES: [&str; 6] = [
        "generate_ms",
        "route_ms",
        "dispatch_ms",
        "evaluate_ms",
        "fold_ms",
        "window_ms",
    ];
    let Some(runs) = current.get("runs").and_then(Json::as_arr) else {
        return;
    };
    for run in runs {
        let system = run.get("system").and_then(Json::as_str).unwrap_or("?");
        for backend in ["row", "columnar"] {
            let Some(doc) = run.get(backend) else {
                continue;
            };
            let Some(wall) = doc.get("wall_secs").and_then(Json::as_f64) else {
                continue;
            };
            let wall_ms = wall * 1000.0;
            let Some(stages) = doc.get("stage_timings") else {
                continue;
            };
            if wall_ms <= 0.0 || matches!(stages, Json::Null) {
                continue;
            }
            let parts: Vec<String> = STAGES
                .iter()
                .filter_map(|name| {
                    let ms = stages.get(name)?.as_f64()?;
                    Some(format!(
                        "{} {:.0}% ({ms:.0}ms)",
                        name.trim_end_matches("_ms"),
                        ms / wall_ms * 100.0
                    ))
                })
                .collect();
            let skew = stages
                .get("max_shard_skew_ms")
                .and_then(Json::as_f64)
                .map(|ms| format!(", max shard skew {ms:.1}ms"))
                .unwrap_or_default();
            eprintln!("  {system}/{backend}: {}{skew}", parts.join(", "));
        }
    }
}
