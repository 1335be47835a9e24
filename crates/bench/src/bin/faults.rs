//! The fault-plane sweep: every strategy × every fault scenario.
//!
//! ```text
//! cargo run -p rld-bench --release --bin faults            # full sweep
//! cargo run -p rld-bench --release --bin faults -- --quick # skip the Q2 straggler
//! ```
//!
//! Runs the predefined fault scenarios (`q1-node-crash`, `q2-straggler`,
//! `q1-flap`) with the full §6.5 strategy line-up, prints a comparison table
//! per scenario, and writes `BENCH_faults.json` with every run's metrics and
//! each scenario's exact fault schedule. This is the machine-checked version
//! of the robustness-vs-adaptivity claim: the adaptive strategies (DYN, HYB)
//! fail over off dead nodes and recover throughput, the static ones (ROD,
//! RLD) ride the fault out and pay in lost tuples.

use rld_bench::json::{fault_plan_json, report_json, write_bench_json, BenchMeta, Json};
use rld_bench::print_table;
use rld_core::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");

    let names: Vec<&str> = fault_scenario_names()
        .into_iter()
        // The Q2 straggler compiles a 10-way-join robust solution; skip it
        // in the CI quick sweep.
        .filter(|n| !quick || *n != "q2-straggler")
        .collect();

    let mut scenario_docs: Vec<Json> = Vec::new();
    for name in &names {
        let scenario = scenario::builtin(name).expect("fault builtin resolves");
        println!(
            "scenario {} — {}\nquery {} on {} nodes, {:.0} s simulated, {} fault events\n",
            scenario.name(),
            scenario.description(),
            scenario.query().name,
            scenario.cluster().num_nodes(),
            scenario.sim_config().duration_secs,
            scenario.fault_plan().events().len(),
        );
        let report = scenario.run().expect("simulation run");

        let mut rows: Vec<Vec<String>> = Vec::new();
        for outcome in &report.outcomes {
            match (&outcome.metrics, &outcome.skipped) {
                (Some(m), _) => rows.push(vec![
                    m.system.clone(),
                    m.tuples_produced.to_string(),
                    m.tuples_lost.to_string(),
                    m.reroutes.to_string(),
                    format!("{:.0}", m.downtime_node_secs),
                    format!("{:.1}", m.mean_recovery_secs),
                    m.migrations.to_string(),
                    format!("{:.1}", m.avg_tuple_processing_ms),
                ]),
                (None, Some(reason)) => rows.push(vec![
                    outcome.strategy.clone(),
                    "skipped".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    reason.clone(),
                ]),
                (None, None) => unreachable!("outcome has neither metrics nor skip reason"),
            }
        }
        print_table(
            &format!("Scenario {} — fault comparison", report.scenario),
            &[
                "system", "produced", "lost", "reroutes", "downtime", "recovery", "migr", "avg ms",
            ],
            &rows,
        );
        println!();

        scenario_docs.push(rld_bench::obj! {
            "scenario" => *name, "description" => scenario.description(),
            "duration_secs" => scenario.sim_config().duration_secs,
            "fault_plan" => fault_plan_json(scenario.fault_plan()), "report" => report_json(&report),
        });
    }

    let data = rld_bench::obj! { "quick" => quick, "scenarios" => scenario_docs };
    let meta = BenchMeta::new()
        .seed(scenario::SCENARIO_SEED)
        .scenario("fault-plane-sweep")
        .backend(Backend::Simulate.name())
        .strategies(DEFAULT_STRATEGY_NAMES);
    match write_bench_json("faults", &meta, data) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write JSON: {err}"),
    }
}
