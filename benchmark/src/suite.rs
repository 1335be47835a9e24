//! Whole-suite modes: every workload in a fresh process of this same
//! binary, then a summary. `--sets N` repeats the suite at one seed and
//! compares the sets; `--spread N` runs N seeds per workload and reports each
//! end-to-end metric's quartile spread against its bound.

use crate::json::Json;
use crate::manifest::{Metric, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::sys::environment;
use crate::Args;
use std::process::{Command, Stdio};

/// One child's result line, scanned back.
pub struct Record {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The text after `key` up to the next `,` or `}`. The child renders its
/// record with [`Json::render`], which never writes whitespace, so a fixed
/// key text finds its value without a parser.
fn scan<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// Read a record back from a child's last stdout line.
pub fn parse_record(line: &str, metrics: &'static [Metric]) -> Option<Record> {
    Some(Record {
        correct: scan(line, "\"correct\":")? == "true",
        attempted: scan(line, "\"attempted\":")?.parse().ok()?,
        failed: scan(line, "\"failed\":")?.parse().ok()?,
        metrics: metrics
            .iter()
            .map(|m| {
                let value = scan(line, &format!("\"{}\":{{\"value\":", m.name))?;
                // A non-finite measurement is rendered as null.
                Some((m.name, value.parse().unwrap_or(f64::NAN)))
            })
            .collect::<Option<_>>()?,
    })
}

/// Run one workload in a fresh process and read its record.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{workload}: {}", output.status));
    }
    let metrics: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    parse_record(line, metrics).ok_or_else(|| format!("{workload}: unreadable record: {line}"))
}

fn value(record: &Record, name: &str) -> f64 {
    record
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn record_json(record: &Record, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(record.correct)),
        ("ops_attempted", Json::Int(record.attempted)),
        ("ops_failed", Json::Int(record.failed)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|m| (m.name, m.measured(value(record, m.name)))),
            ),
        ),
    ])
}

/// Run the suite in the mode the arguments select. Returns whether every
/// gate passed and every comparison stayed within its bound.
pub fn run(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut workloads_json = Vec::new();
    let mut comparisons = Vec::new();
    for w in &WORKLOADS {
        // (untraced, traced) records of every set or seed of this workload.
        let mut untraced: Vec<Record> = Vec::new();
        let mut traced: Vec<Record> = Vec::new();
        let runs = args.spread.max(args.sets);
        for i in 0..runs {
            let seed = if args.spread > 0 {
                args.seed + i as u64
            } else {
                args.seed
            };
            untraced.push(run_child(args, w.name, seed, false)?);
            if args.spread == 0 && !args.quick {
                traced.push(run_child(args, w.name, seed, true)?);
            }
        }
        ok &= untraced.iter().chain(&traced).all(|r| r.correct);

        if !args.quick {
            for m in &END_TO_END {
                let values: Vec<f64> = untraced.iter().map(|r| value(r, m.name)).collect();
                let bound = m.bound.expect("end-to-end metrics have bounds");
                let (spread, within) = if args.spread > 0 {
                    // setup_s is judged on its medians only, not its spread.
                    let spread = quartile_spread(&values).unwrap_or(f64::NAN);
                    (spread, m.name == "setup_s" || spread <= bound)
                } else {
                    // Worst worsening of any later set against the first.
                    let worst = values[1..]
                        .iter()
                        .map(|v| m.better.worsening(values[0], *v).abs())
                        .fold(0.0, f64::max);
                    (worst, worst <= bound)
                };
                if runs > 1 {
                    ok &= within;
                    comparisons.push(Json::obj([
                        ("workload", Json::str(w.name)),
                        ("metric", Json::str(m.name)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                        ("median", Json::Num(median(&values))),
                        (
                            if args.spread > 0 {
                                "quartile_spread"
                            } else {
                                "relative_difference"
                            },
                            Json::Num(spread),
                        ),
                        ("bound", Json::Num(bound)),
                        ("within_bound", Json::Bool(within)),
                        ("below_a_third_of_bound", Json::Bool(spread <= bound / 3.0)),
                    ]));
                }
            }
            for count in EXACT_COUNTS {
                let values: Vec<f64> = traced.iter().map(|r| value(r, count)).collect();
                if values.len() > 1 {
                    let same = values.iter().all(|v| *v == values[0]);
                    ok &= same;
                    comparisons.push(Json::obj([
                        ("workload", Json::str(w.name)),
                        ("metric", Json::str(count)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                        ("repeats_exactly", Json::Bool(same)),
                    ]));
                }
            }
        }

        // The summary carries the last set's (or seed's) records in full.
        let mut fields = vec![("name", Json::str(w.name)), ("why", Json::str(w.why))];
        if let Some(r) = untraced.last() {
            fields.push(("end_to_end", record_json(r, &END_TO_END)));
        }
        if let Some(r) = traced.last() {
            fields.push(("per_layer", record_json(r, &PER_LAYER)));
        }
        workloads_json.push(Json::obj(fields));
    }

    let mode = if args.quick {
        "quick"
    } else if args.spread > 0 {
        "spread"
    } else if args.sets > 1 {
        "sets"
    } else {
        "suite"
    };
    let summary = Json::obj([
        ("mode", Json::str(mode)),
        ("environment", environment(args.seed)),
        ("run_seconds", Json::Num(args.seconds)),
        ("workloads", Json::Arr(workloads_json)),
        ("comparisons", Json::Arr(comparisons)),
        ("ok", Json::Bool(ok)),
        // This benchmark measures; it does not claim a gain.
        ("claim", Json::Null),
    ]);
    let text = summary.pretty();
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    std::fs::write(args.out.join(format!("{mode}.json")), &text).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_record_scans_back() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1234)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj(END_TO_END.iter().enumerate().map(|(i, m)| {
                    let v = if i == 1 { f64::NAN } else { i as f64 + 0.25 };
                    (m.name, m.measured(v))
                })),
            ),
        ])
        .render();
        let record = parse_record(&line, &END_TO_END).expect("scans");
        assert!(record.correct);
        assert_eq!((record.attempted, record.failed), (1234, 0));
        assert_eq!(record.metrics.len(), END_TO_END.len());
        assert_eq!(value(&record, "setup_s"), 0.25);
        assert!(value(&record, END_TO_END[1].name).is_nan());
        assert_eq!(value(&record, "peak_rss_mb"), 6.25);
        // A record missing a metric is refused, not read as zero.
        assert!(parse_record(&line, &PER_LAYER).is_none());
        assert!(parse_record("", &END_TO_END).is_none());
    }
}
