//! The repo's benchmark. `run.sh` builds this and passes its arguments on:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` measures one
//!   workload and prints one JSON record as the last line of stdout: the
//!   end-to-end metrics (`--trace 0`, spans off) or the per-layer metrics
//!   (`--trace 1`, spans written to `<out>/trace-<workload>.json`);
//! * without `--workload` it runs every workload, each in a fresh process
//!   (`--sets N`, `--spread N`, `--quick`: see `suite`);
//! * `--manifest` prints `BENCHMARK.json`.

mod chain;
mod checks;
mod json;
mod layers;
mod manifest;
mod scenario;
mod stats;
mod suite;
mod sys;
mod trace;

use chain::{compile_and_deploy, rep, Run};
use checks::{check_compile, check_runs, Gate};
use json::Json;
use manifest::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use rld_core::common::Result;
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The seed the repo's own scenarios use (0xF1D0_2013).
const DEFAULT_SEED: u64 = rld_core::scenario::SCENARIO_SEED;
/// Share of `--seconds` spent on whole-chain repetitions (at least three);
/// what is left of the budget goes to compile-only samples, so that a
/// sub-millisecond compile gets a steady median too.
const CHAIN_SHARE: f64 = 0.7;
const MAX_COMPILE_SAMPLES: usize = 1_000;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    sets: usize,
    spread: usize,
    manifest: bool,
    out: PathBuf,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        sets: 1,
        spread: 0,
        manifest: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| parse_u64(&v).ok_or_else(|| bad(v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
                    _ => Err(bad(v)),
                })?
            }
            "--trace" => {
                args.trace = value().and_then(|v| match v.as_str() {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err(bad(v)),
                })?
            }
            "--sets" => args.sets = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--spread" => args.spread = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.sets == 0 || (args.spread > 0 && args.sets > 1) {
        return Err("--sets needs at least 1 and excludes --spread".into());
    }
    Ok(args)
}

/// The untraced run: set up several times, repeat the chain for the time
/// budget, and report medians.
fn end_to_end_run(name: &str, args: &Args, gate: &mut Gate) -> Result<layers::Metrics> {
    let off = Tracer::new(false);
    let by_name = || scenario::by_name(name).expect("the caller checked the name");

    let sc = by_name();
    let (setups, ticks, min_reps, budget) = if args.quick {
        (1, (sc.ticks / 20).max(1), 1, 0.0)
    } else {
        (5, sc.ticks, 3, args.seconds)
    };

    // Set-up: build the fixtures and run the whole chain once at a fraction
    // of its size. Several times, because one sample of it is noisy.
    let mut setup_s = Vec::new();
    for _ in 0..setups {
        let started = Instant::now();
        let fresh = by_name();
        rep(
            &fresh,
            &fresh.warm_up_compiler(),
            fresh.warm_up_ticks(),
            args.seed,
            &off,
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let started = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let (mut compile_s, mut e2e_s) = (Vec::new(), Vec::new());
    // Only the latest deployment is kept: holding one per repetition would
    // make peak memory a function of the repetition count.
    let mut deployment = None;
    while runs.len() < min_reps || started.elapsed().as_secs_f64() < CHAIN_SHARE * budget {
        let r = rep(&sc, &sc.compiler, ticks, args.seed, &off)?;
        compile_s.push(r.compile_s);
        e2e_s.push(r.e2e_s);
        runs.push(r.run);
        deployment = Some(r.deployment);
    }
    let chain_reps = runs.len();
    while started.elapsed().as_secs_f64() < budget
        && compile_s.len() < chain_reps + MAX_COMPILE_SAMPLES
    {
        let (seconds, d, strategy) = compile_and_deploy(&sc, &sc.compiler, &off)?;
        compile_s.push(seconds);
        drop(strategy);
        deployment = Some(d);
    }

    let deployment = deployment.expect("at least one repetition ran");
    gate.attempted += compile_s.len() as u64 - 1; // check_compile counts the last
    let pointwise = check_compile(gate, &sc, &deployment, args.seed)?;
    let run_refs: Vec<&Run> = runs.iter().collect();
    check_runs(gate, &sc, &deployment, ticks, args.seed, &run_refs)?;

    let batches = runs[0].report.metrics.batches;
    eprintln!(
        "{name}: seed {:#x}, {chain_reps} chain repetitions of {ticks} ticks ({batches} batches each, \
         so {:.0} beyond each p99), {} compile samples, {:.1} s measured; \
         {:.2}% of the probed points are within 1 + epsilon of their own optimum",
        args.seed,
        batches as f64 / 100.0,
        compile_s.len(),
        started.elapsed().as_secs_f64(),
        pointwise * 100.0,
    );
    let per_rep = |f: fn(&Run) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "  per repetition: tuples/s {:.0?}, e2e s {e2e_s:.3?}",
        per_rep(Run::throughput_tps)
    );
    let over_runs = |f: fn(&Run) -> f64| median(&per_rep(f));
    Ok(vec![
        ("setup_s", median(&setup_s)),
        ("compile_s", median(&compile_s)),
        ("throughput_tps", over_runs(Run::throughput_tps)),
        ("batch_p50_ms", over_runs(Run::batch_p50_ms)),
        ("batch_p99_ms", over_runs(Run::batch_p99_ms)),
        ("e2e_s", median(&e2e_s)),
        ("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN)),
    ])
}

/// The traced run: spans on, written out when the run ends.
fn per_layer_run(name: &str, args: &Args, gate: &mut Gate) -> Result<layers::Metrics> {
    let sc = scenario::by_name(name).expect("the caller checked the name");
    // Warm up with the full-size compile: the traced repetition's single
    // compile is compared with its staged replay, so neither may run cold.
    rep(
        &sc,
        &sc.compiler,
        sc.warm_up_ticks(),
        args.seed,
        &Tracer::new(false),
    )?;
    let tracer = Tracer::new(true);
    let metrics = layers::traced_run(&sc, args.seed, &tracer, gate)?;
    let path = args.out.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, tracer.to_json(name).pretty()));
    match written {
        Ok(()) => eprintln!("{name}: spans written to {}", path.display()),
        Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
    }
    Ok(metrics)
}

/// Measure one workload and print its record. The record lists exactly the
/// manifest's metrics, in the manifest's order. A failed gate is reported in
/// the record (`"correct":false`), not by the exit code: that is kept for a
/// benchmark that could not run.
fn run_workload(name: &str, args: &Args) -> std::result::Result<(), String> {
    if scenario::by_name(name).is_none() {
        return Err(format!("unknown workload '{name}'"));
    }
    let mut gate = Gate::default();
    let (measured, listed): (_, &[Metric]) = if args.trace {
        (per_layer_run(name, args, &mut gate), &PER_LAYER)
    } else {
        (end_to_end_run(name, args, &mut gate), &END_TO_END)
    };
    let measured = measured.map_err(|e| format!("{name}: {e}"))?;
    if measured.len() != listed.len() {
        return Err(format!(
            "{name}: measured {} metrics, the manifest lists {}",
            measured.len(),
            listed.len()
        ));
    }
    let mut fields = Vec::new();
    for m in listed {
        let (_, value) = measured
            .iter()
            .find(|(n, _)| *n == m.name)
            .ok_or_else(|| format!("{name}: metric {} was not measured", m.name))?;
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        eprintln!(
            "  {:<36} {value:>18.6} {} ({:?} is better{bound})",
            m.name, m.unit, m.better
        );
        fields.push((m.name, m.measured(*value)));
    }
    // One broken invariant can fail every probe: the first few lines say it.
    for failure in gate.failures.iter().take(10) {
        eprintln!("  FAILED: {failure}");
    }
    eprintln!(
        "  ops_attempted {} ops_failed {}",
        gate.attempted, gate.failed
    );
    let record = Json::obj([
        ("correct", Json::Bool(gate.failed == 0)),
        ("attempted", Json::Int(gate.attempted)),
        ("failed", Json::Int(gate.failed)),
        ("metrics", Json::obj(fields)),
    ]);
    println!("{}", record.render());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.manifest {
            print!("{}", manifest::manifest().pretty());
            return Ok(true);
        }
        match &args.workload {
            Some(name) => run_workload(name, &args).map(|()| true),
            None => suite::run(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rld-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::result::Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "run-thin-q2",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("run-thin-q2"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
        assert_eq!(args(&["--seed", "0xD5CAFE"]).unwrap().seed, 0xD5_CAFE);
        assert_eq!(args(&["--seed", "0xF1D0_2013"]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--sets", "2", "--spread", "3"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
