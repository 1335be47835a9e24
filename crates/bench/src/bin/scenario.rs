//! The scenario runner: execute any predefined runtime scenario by name, on
//! either execution backend.
//!
//! ```text
//! cargo run -p rld-bench --release --bin scenario -- --list
//! cargo run -p rld-bench --release --bin scenario -- q2-regime-switch
//! cargo run -p rld-bench --release --bin scenario -- --backend execute q1-stock
//! ```
//!
//! Prints the per-strategy comparison table and writes
//! `BENCH_scenario_<name>.json` with the full metrics of every strategy
//! (plus provenance meta: seed, scenario, backend, strategies, version).
//! With `--backend execute` (or its old name `columnar`) the strategies run
//! on the executor — real tuples, struct-of-arrays batches through fused
//! operator chains, hop by hop where the placement pins them — instead of
//! the simulator, and a second table shows what the executor measured per
//! strategy: tuples per wall second, wall-latency percentiles, migration
//! pause and per-node busy time (each outcome's `columnar` object in the
//! JSON, with the full stage breakdown).

use rld_bench::json::{fault_plan_json, report_json, write_bench_json, BenchMeta, Json};
use rld_bench::print_table;
use rld_core::prelude::*;

fn list() {
    println!("predefined scenarios:");
    for name in scenario::builtin_names() {
        let s = scenario::builtin(name).expect("builtin resolves");
        println!("  {:<18} {}", name, s.description());
    }
}

fn usage() -> ! {
    eprintln!("usage: scenario [--backend simulate|execute] <name> | --list");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut backend = Backend::Simulate;
    let mut name: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" | "-l" => {
                list();
                return;
            }
            "--backend" | "-b" => match iter.next().map(|s| Backend::by_name(s)) {
                Some(Ok(b)) => backend = b,
                Some(Err(err)) => {
                    eprintln!("error: {err}");
                    std::process::exit(2);
                }
                None => usage(),
            },
            other if !other.starts_with('-') => name = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(name) = name else {
        list();
        println!("\nusage: scenario [--backend simulate|execute] <name> | --list");
        return;
    };

    let scenario = match scenario::builtin(&name) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    println!(
        "scenario {} — {}\nquery {} on {} nodes, {:.0} s simulated, {} backend",
        scenario.name(),
        scenario.description(),
        scenario.query().name,
        scenario.cluster().num_nodes(),
        scenario.sim_config().duration_secs,
        backend.name(),
    );
    let report = scenario.run_on(backend).expect("scenario run");

    let mut rows: Vec<Vec<String>> = Vec::new();
    for outcome in &report.outcomes {
        match (&outcome.metrics, &outcome.skipped) {
            (Some(m), _) => rows.push(vec![
                m.system.clone(),
                format!("{:.1}", m.avg_tuple_processing_ms),
                format!("{:.1}", m.p95_tuple_processing_ms),
                m.tuples_produced.to_string(),
                m.migrations.to_string(),
                m.plan_switches.to_string(),
                format!("{:.2}%", m.overhead_fraction() * 100.0),
            ]),
            (None, Some(reason)) => rows.push(vec![
                outcome.strategy.clone(),
                "skipped".into(),
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
        &format!(
            "Scenario {} — strategy comparison ({})",
            report.scenario, report.backend
        ),
        &[
            "system", "avg ms", "p95 ms", "produced", "migr", "switches", "overhead",
        ],
        &rows,
    );
    let measured: Vec<Vec<String>> = report
        .outcomes
        .iter()
        .filter_map(|o| Some((o, o.exec.as_ref()?)))
        .map(|(o, exec)| {
            let ms = |i: usize| exec.latency_percentiles_ms.get(i).map_or(f64::NAN, |p| p.1);
            let busy = exec.stage_timings.iter().flat_map(|s| &s.node_busy_ms);
            vec![
                o.strategy.clone(),
                format!("{:.0}", exec.tuples_per_sec),
                format!("{:.3}", ms(0)),
                format!("{:.3}", ms(2)),
                format!("{:.1}", exec.migration_pause_ms),
                busy.map(|ms| format!("{ms:.1}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]
        })
        .collect();
    if !measured.is_empty() {
        let headers = [
            "system",
            "t/s",
            "p50 ms",
            "p99 ms",
            "pause ms",
            "busy ms per node",
        ];
        print_table("Measured on the executor (wall clock)", &headers, &measured);
    }
    let mut data = report_json(&report);
    if !scenario.fault_plan().is_empty() {
        if let Json::Obj(pairs) = &mut data {
            pairs.push((
                "fault_plan".to_string(),
                fault_plan_json(scenario.fault_plan()),
            ));
        }
    }
    let meta = BenchMeta::for_report(&scenario, &report);
    match write_bench_json(&format!("scenario_{name}"), &meta, data) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => {
            eprintln!("\ncould not write JSON: {err}");
            std::process::exit(2);
        }
    }
}
