//! # rld-bench
//!
//! The experiment harness. The paper's evaluation (§6) is one checked
//! reproduction: `cargo run -p rld-bench --release --bin reproduce` runs
//! every figure and table of [`reproduce`]'s table, prints the rows the paper
//! plots, checks each §6 claim against them and writes the committed
//! `REPRODUCTION.json`; `-- --check` first gates the run against that
//! committed copy. Throughput is measured in one place, the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`); `scenario --backend execute` adds each
//! strategy's executor breakdown to its scenario JSON.
//!
//! | Binary | What it runs |
//! |---|---|
//! | `reproduce`      | Figs. 10–16, Table 2, §6.5 and the ablations, with the §6 claims as checked predicates; `--check` gates against `REPRODUCTION.json` |
//! | `scenario`       | runs any predefined scenario by name (`--list` to enumerate); `--backend execute` reports each strategy's tuples/s, wall latency, stage and per-node busy time |
//! | `faults`         | fault-plane sweep: all four strategies × the crash/straggler/flap scenarios |
//! | `compile_scale`  | compile-path scaling: dims × grid sweeps of WRP/ERP, search-shape `--check` gate |
//! | `physical_scale` | physical-solver scaling (8–512 nodes, optimized vs naive, `--check` gate) |
//!
//! Every binary writes a machine-readable artifact with provenance meta via
//! [`json::write_artifact`]; `reproduce` and `compile_scale` gate their
//! committed artifact with the one [`Gate`].

#![forbid(unsafe_code)]

pub mod json;
pub mod reproduce;

use json::Json;

/// Print a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// A `--check` regression gate over a committed artifact that doubles as
/// its own baseline. Runs live under the document's `data.runs`; a run is
/// identified by its [`key`](Self::key) fields, and every field of a matched
/// run that [`tolerance`](Self::tolerance) gates must agree with the
/// committed value. Deterministic fields are gated exactly; wall-clock ones
/// are reported beside the baseline and never compared.
pub struct Gate {
    /// The committed artifact, read before the run overwrites it.
    pub path: &'static str,
    /// The fields that identify a run; a field a run lacks keys as absent.
    pub key: &'static [&'static str],
    /// The relative tolerance a field is gated to (`0.0` = exact), or
    /// `None` for a field that is reported only.
    pub tolerance: fn(&str) -> Option<f64>,
    /// The wall-clock field printed beside its committed value.
    pub wall: &'static str,
    /// Whether a run on only one side is skipped (a `--quick` sweep gated
    /// against a full baseline) rather than counted as a drift.
    pub partial: bool,
}

impl Gate {
    /// Compare this run's `runs` against the committed `baseline` text and
    /// return how many runs matched, or the process exit code and the
    /// report: 2 for an unusable baseline, 1 for a drift.
    pub fn check(
        &self,
        baseline: std::io::Result<String>,
        runs: &[Json],
    ) -> Result<usize, (u8, String)> {
        let path = self.path;
        let unusable = |why: String| (2, format!("regression gate: {path} {why}"));
        let text = baseline.map_err(|err| unusable(format!("cannot be read: {err}")))?;
        let doc =
            Json::parse(&text).map_err(|err| unusable(format!("is not valid JSON: {err}")))?;
        let base_runs = doc
            .get("data")
            .and_then(|d| d.get("runs"))
            .and_then(Json::as_arr)
            .unwrap_or_default();
        let label = |run: &Json| {
            let parts = self
                .key
                .iter()
                .filter_map(|&k| Some(format!("{k}={}", run.get(k)?)));
            parts.collect::<Vec<_>>().join(" ")
        };
        let same_key = |a: &Json, b: &Json| self.key.iter().all(|&k| a.get(k) == b.get(k));

        let (mut compared, mut skipped) = (0usize, 0usize);
        let mut drifts: Vec<String> = Vec::new();
        for base in base_runs {
            let Some(cur) = runs.iter().find(|run| same_key(base, run)) else {
                if self.partial {
                    skipped += 1;
                } else {
                    drifts.push(format!("{}: missing from this run", label(base)));
                }
                continue;
            };
            compared += 1;
            let fields =
                field_names(base).chain(field_names(cur).filter(|f| base.get(f).is_none()));
            for field in fields {
                let Some(tolerance) = (self.tolerance)(field) else {
                    continue;
                };
                let (b, c) = (base.get(field), cur.get(field));
                let within = match (b.and_then(Json::as_f64), c.and_then(Json::as_f64)) {
                    (Some(b), Some(c)) if tolerance > 0.0 => {
                        (c - b).abs() <= tolerance * b.abs().max(c.abs())
                    }
                    _ => b == c,
                };
                if !within {
                    drifts.push(format!(
                        "{}: {field} changed from {} to {}",
                        label(base),
                        b.unwrap_or(&Json::Null),
                        c.unwrap_or(&Json::Null)
                    ));
                }
            }
            let wall = |run: &Json| run.get(self.wall).and_then(Json::as_f64);
            if let (Some(now), Some(then)) = (wall(cur), wall(base)) {
                println!(
                    "check {}: {now:.3} ms vs baseline {then:.3} ms (not gated)",
                    label(base)
                );
            }
        }
        if !self.partial {
            for cur in runs {
                if !base_runs.iter().any(|base| same_key(base, cur)) {
                    drifts.push(format!("{}: not in {path}", label(cur)));
                }
            }
        }
        if skipped > 0 {
            println!("regression gate: {skipped} baseline run(s) not in this sweep — skipped");
        }
        if compared == 0 {
            return Err(unusable("contains no comparable runs".into()));
        }
        if !drifts.is_empty() {
            return Err((
                1,
                format!(
                    "regression gate FAILED (drift):\n  - {}",
                    drifts.join("\n  - ")
                ),
            ));
        }
        println!("regression gate: all {compared} matched runs agree with {path}");
        Ok(compared)
    }
}

/// The keys of a JSON object, in order (none for any other value).
fn field_names(run: &Json) -> impl Iterator<Item = &str> {
    let pairs = match run {
        Json::Obj(pairs) => pairs.as_slice(),
        _ => &[],
    };
    pairs.iter().map(|(k, _)| k.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;
    use crate::reproduce::{capacity_for, compare_logical, steps_for_uncertainty, support_model};
    use rld_core::prelude::*;

    #[test]
    fn steps_grow_with_uncertainty() {
        assert_eq!(steps_for_uncertainty(1), 5);
        assert_eq!(steps_for_uncertainty(2), 9);
        assert_eq!(steps_for_uncertainty(5), 21);
        assert!(steps_for_uncertainty(0) >= 3);
    }

    #[test]
    fn logical_comparison_produces_three_rows() {
        let q = Query::q1_stock_monitoring();
        let rows = compare_logical(&q, (0.2, 2, 2), Some(1000));
        assert_eq!(rows.len(), 3);
        let (es, erp) = (rows[0], rows[2]);
        assert_eq!(es.0, "ES");
        assert_eq!(erp.0, "ERP");
        assert!(erp.1 < es.1, "ERP {} vs ES {}", erp.1, es.1);
        assert!(es.2 > 0.99);
        assert!(erp.2 > 0.7);
    }

    #[test]
    fn support_model_and_capacity_helpers() {
        let q = Query::q1_stock_monitoring();
        let (_, model) = support_model(&q, 2);
        assert!(!model.profiles().is_empty());
        let cap = capacity_for(&model, 3.0);
        assert!(cap > 0.0);
        assert!(runtime_capacity(&q, 5, 2.0) > 0.0);
    }

    #[test]
    fn runtime_scenarios_include_rld_and_hybrid() {
        let q = Query::q1_stock_monitoring();
        let report = Scenario::builder("bench-smoke", q)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(30.0)
            .default_strategies(RldConfig::default().with_uncertainty(3))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.metrics_for("RLD").is_some());
        assert!(report.metrics_for("HYB").is_some());
        assert_eq!(report.outcomes.len(), 4);
    }

    /// A gate shaped like `reproduce`'s: every field exact except the
    /// wall-clock `compile_ms` and the `measured` summaries.
    const FULL: Gate = Gate {
        path: "BASELINE.json",
        key: &["experiment", "row", "claim"],
        tolerance: |field| (field != "compile_ms").then_some(0.0),
        wall: "compile_ms",
        partial: false,
    };

    fn doc(runs: &[Json]) -> String {
        obj! { "data" => obj! { "runs" => runs.to_vec() } }.to_string()
    }

    fn runs() -> Vec<Json> {
        vec![
            obj! { "experiment" => "fig13", "row" => 0u64, "nodes_expanded" => 32u64, "compile_ms" => 0.009 },
            obj! { "experiment" => "fig13", "claim" => 0u64, "holds" => true },
        ]
    }

    /// `runs()` with one field of one run replaced.
    fn with(run: usize, field: &str, value: Json) -> Vec<Json> {
        let mut runs = runs();
        if let Json::Obj(pairs) = &mut runs[run] {
            pairs.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
        }
        runs
    }

    #[test]
    fn gate_ignores_wall_clock_and_catches_deterministic_drift() {
        let baseline = || Ok(doc(&runs()));
        assert_eq!(FULL.check(baseline(), &runs()), Ok(2));
        // A wall-clock field may move freely.
        let slower = with(0, "compile_ms", Json::Num(5.0));
        assert_eq!(FULL.check(baseline(), &slower), Ok(2));
        // A deterministic count may not.
        let count = with(0, "nodes_expanded", Json::from(33u64));
        let (code, report) = FULL.check(baseline(), &count).unwrap_err();
        assert_eq!(code, 1);
        assert!(
            report.contains("nodes_expanded changed from 32 to 33"),
            "{report}"
        );
        // Nor may a claim's verdict.
        let flipped = with(1, "holds", Json::Bool(false));
        let (code, report) = FULL.check(baseline(), &flipped).unwrap_err();
        assert_eq!(code, 1);
        assert!(
            report.contains("holds changed from true to false"),
            "{report}"
        );
        // A full gate fails on a run on one side only; a partial one skips it.
        let fewer = &runs()[..1];
        assert!(FULL.check(baseline(), fewer).is_err());
        let partial = Gate {
            partial: true,
            ..FULL
        };
        assert_eq!(partial.check(baseline(), fewer), Ok(1));
    }

    #[test]
    fn gate_tolerance_is_relative() {
        let loose = Gate {
            tolerance: |field| (field == "nodes_expanded").then_some(0.1),
            ..FULL
        };
        let near = with(0, "nodes_expanded", Json::from(34u64));
        assert_eq!(loose.check(Ok(doc(&runs())), &near), Ok(2));
        let far = with(0, "nodes_expanded", Json::from(40u64));
        assert!(loose.check(Ok(doc(&runs())), &far).is_err());
    }

    #[test]
    fn gate_reports_unusable_baselines_as_errors() {
        let missing = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let (code, report) = FULL.check(Err(missing), &runs()).unwrap_err();
        assert_eq!(code, 2);
        assert!(report.contains("BASELINE.json cannot be read"), "{report}");
        // Every truncation of a baseline is an error, never a panic.
        let text = doc(&runs());
        for end in 0..text.len() {
            let (code, report) = FULL
                .check(Ok(text[..end].to_string()), &runs())
                .unwrap_err();
            assert_eq!(code, 2, "{end}: {report}");
        }
        // Valid JSON with no comparable run is unusable too.
        assert_eq!(FULL.check(Ok("{}".into()), &runs()).unwrap_err().0, 2);
    }
}
