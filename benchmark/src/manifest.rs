//! The benchmark's contract as data: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is this module
//! rendered (`--manifest`); a unit test keeps the two identical.

use crate::json::Json;

/// Seconds one untraced run measures.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "compile-wrp-q2",
        why: "WRP partitions all 759,375 cells of a 5-dim Q2 space into ~200 plans: the one workload where region algebra and classifier-index build show beside the logical search",
    },
    Workload {
        name: "compile-erp-q2",
        why: "Same space under ERP: early termination keeps the region set small, so the logical search is ~all of the compile and a region-algebra gain must show no change here",
    },
    Workload {
        name: "run-probe-q1",
        why: "Q1 at 500 tuples per tick over 5 operators: fused-chain evaluation and probe kernels dominate, the per-tuple kernel workload",
    },
    Workload {
        name: "run-window-q2",
        why: "Q2 at 500 tuples per tick over nine window joins: window state writes dominate, so a probe gain that slows maintenance loses here",
    },
    Workload {
        name: "run-thin-q2",
        why: "Q2 at 5 tuples per tick with a plan switch every 5 ticks: per-tick route, dispatch, fold and window upkeep dominate and per-tuple kernels do not",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `after` is than `before`, as a share of `before`
    /// (negative when it improved).
    pub fn worsening(self, before: f64, after: f64) -> f64 {
        match self {
            Better::Lower => (after - before) / before,
            Better::Higher => (before - after) / before,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

impl Metric {
    /// One measured value of this metric, as result records carry it.
    pub fn measured(&self, value: f64) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(self.unit))])
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, medians over one run's repetitions.
/// Every bound is the contract's ceiling of 25%: on the 2-core VM this was
/// sized on, ten seeds spread by 1-7% in a quiet phase and by 12-31% when a
/// neighbour is busy (README.md has both tables), and two sets of ten runs
/// taken minutes apart differed by up to 32%. A tighter bound would reject
/// unchanged code.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compile_s", "s", Lower, 0.25),
    e2e("throughput_tps", "tuples/s", Higher, 0.25),
    e2e("batch_p50_ms", "ms", Lower, 0.25),
    e2e("batch_p99_ms", "ms", Lower, 0.25),
    e2e("e2e_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, from the traced run. Names are `<crate>.<metric>`.
pub const PER_LAYER: [Metric; 59] = [
    layer("paramspace.build_ms", "ms", Lower),
    layer("logical.search_ms", "ms", Lower),
    layer("logical.optimizer_calls", "count", Lower),
    layer("logical.plans", "count", Higher),
    layer("logical.regions", "count", Lower),
    layer("logical.terminated_early", "count", Lower),
    layer("query.optimize_us_per_call", "us", Lower),
    layer("query.plan_cost_ns_per_call", "ns", Lower),
    layer("query.optimize_share", "ratio", Lower),
    layer("logical.corner_check_us_per_region", "us", Lower),
    layer("logical.exact_verify_ms", "ms", Lower),
    layer("logical.exact_verified_ratio", "ratio", Higher),
    layer("logical.pointwise_robust_ratio", "ratio", Higher),
    layer("paramspace.coverage_ms", "ms", Lower),
    layer("paramspace.weights_ms", "ms", Lower),
    layer("physical.support_ms", "ms", Lower),
    layer("physical.solve_ms", "ms", Lower),
    layer("physical.dfs_expanded", "count", Lower),
    layer("physical.dfs_pruned", "count", Higher),
    layer("physical.incumbent_updates", "count", Lower),
    layer("physical.supported_plans", "count", Higher),
    layer("physical.score", "ratio", Higher),
    layer("engine.index_build_ms", "ms", Lower),
    layer("engine.classify_ns", "ns", Lower),
    layer("engine.classify_uncovered_ns", "ns", Lower),
    layer("engine.classify_covered_ratio", "ratio", Higher),
    layer("core.compile_deploy_ms", "ms", Lower),
    layer("core.staged_sum_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("exec.executor_new_ms", "ms", Lower),
    layer("exec.wall_ms", "ms", Lower),
    layer("exec.generate_ms", "ms", Lower),
    layer("exec.evaluate_ms", "ms", Lower),
    layer("exec.window_ms", "ms", Lower),
    layer("exec.route_ms", "ms", Lower),
    layer("exec.dispatch_ms", "ms", Lower),
    layer("exec.fold_ms", "ms", Lower),
    layer("exec.shard_busy_ms", "ms", Lower),
    layer("exec.shard_idle_ms", "ms", Lower),
    layer("exec.unattributed_ms", "ms", Lower),
    layer("exec.ticks_per_s", "1/s", Higher),
    layer("exec.batches", "count", Higher),
    layer("exec.tuples_processed", "count", Higher),
    layer("exec.tuples_lost", "count", Lower),
    layer("workloads.gen_ns_per_tuple", "ns", Lower),
    layer("common.eval_ns_per_tuple", "ns", Lower),
    layer("common.window_us_per_tick", "us", Lower),
    layer("engine.route_us_per_batch", "us", Lower),
    layer("engine.plan_switches", "count", Lower),
    layer("engine.work_vector_recomputes", "count", Lower),
    layer("engine.sim_ticks_per_s", "1/s", Higher),
    layer("exec.shards2_tps_ratio", "ratio", Higher),
    layer("exec.shards2_busy_ratio", "ratio", Lower),
    layer("exec.max_shard_skew_ms", "ms", Lower),
    layer("core.logical_share", "ratio", Lower),
    layer("core.region_algebra_share", "ratio", Lower),
    layer("exec.evaluate_share", "ratio", Lower),
    layer("exec.window_share", "ratio", Lower),
    layer("exec.coordinator_share", "ratio", Lower),
];

/// Counts that must repeat exactly between two sets of runs at one seed.
pub const EXACT_COUNTS: [&str; 5] = [
    "logical.optimizer_calls",
    "logical.plans",
    "exec.batches",
    "exec.tuples_processed",
    "engine.plan_switches",
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_module_rendered() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest().pretty(),
            "regenerate with: bash benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn the_manifest_is_inside_the_contract_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(EXACT_COUNTS
            .iter()
            .all(|c| PER_LAYER.iter().any(|m| m.name == *c)));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
