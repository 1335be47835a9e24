//! The correctness gate, run before any number is printed. References are
//! independent of the code under test: the simulator for the executor's
//! counts, direct cost evaluation for the compiler's robustness claims.

use crate::chain::{sim_config, Run};
use crate::scenario::Scenario;
use rld_core::common::rng::mix64;
use rld_core::common::Result;
use rld_core::engine::Simulator;
use rld_core::paramspace::{GridPoint, Region};
use rld_core::query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};
use rld_core::Deployment;
use std::time::Instant;

/// Seeded grid points probed per compile for Definition 1.
pub const ROBUSTNESS_PROBES: u64 = 2_000;

/// Operations attempted and failed, with one line per failed check.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, reference: T) {
        self.check(got == reference, || {
            format!("{what}: {got:?}, reference {reference:?}")
        });
    }
}

/// The benchmark's seeded draws (check points, classifier snapshots): a
/// splitmix64 sequence, so they depend on `--seed` and nothing else.
pub struct SeedStream(pub u64);

impl SeedStream {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform grid point of a region.
    pub fn point_in(&mut self, region: &Region) -> GridPoint {
        let (lo, hi) = (region.pnt_lo(), region.pnt_hi());
        GridPoint::new(
            lo.indices
                .iter()
                .zip(&hi.indices)
                .map(|(l, h)| l + self.below(h - l + 1))
                .collect(),
        )
    }
}

/// Every (plan, region) pair the solution claims robust.
pub fn claimed_regions(deployment: &Deployment) -> Vec<(&LogicalPlan, &Region)> {
    deployment
        .logical
        .entries()
        .iter()
        .flat_map(|entry| {
            entry
                .regions
                .iter()
                .map(move |region| (&entry.plan, region))
        })
        .collect()
}

/// Driving tuples the workload is expected to deliver: Σ rate · tick.
fn expected_arrivals(sc: &Scenario, ticks: u64) -> f64 {
    let stream = sc.query.driving_stream;
    (0..ticks)
        .map(|t| {
            sc.workload
                .stats_at(t as f64)
                .input_rate(stream)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Check every columnar run of one (scenario, ticks, seed) against the
/// simulator's run of the same scenario under the same deployment. Returns
/// the simulator's wall seconds.
pub fn check_runs(
    gate: &mut Gate,
    sc: &Scenario,
    deployment: &Deployment,
    ticks: u64,
    seed: u64,
    runs: &[&Run],
) -> Result<f64> {
    let first = runs.first().expect("at least one run");
    let mut strategy = deployment.deploy();
    let simulator = Simulator::new(
        sc.query.clone(),
        sc.cluster.clone(),
        sim_config(ticks, seed),
    )?;
    let started = Instant::now();
    let sim = simulator.run(sc.workload.as_ref(), &mut strategy)?;
    let sim_wall_s = started.elapsed().as_secs_f64();

    let expected = expected_arrivals(sc, ticks);
    for run in runs {
        let m = &run.report.metrics;
        gate.attempted += m.tuples_arrived;
        gate.failed += m.tuples_lost;
        gate.check(
            (m.tuples_arrived as f64 - expected).abs() <= 0.01 * expected,
            || {
                format!(
                    "arrived {} is not within 1% of rate x ticks = {expected}",
                    m.tuples_arrived
                )
            },
        );
        gate.equal(
            "processed + lost vs arrived",
            m.tuples_processed + m.tuples_lost,
            m.tuples_arrived,
        );
        gate.equal("tuples lost", m.tuples_lost, 0);
        gate.equal("arrived vs simulator", m.tuples_arrived, sim.tuples_arrived);
        gate.equal("batches vs simulator", m.batches, sim.batches);
        gate.equal(
            "plan switches vs simulator",
            m.plan_switches,
            sim.plan_switches,
        );
        gate.equal("migrations vs simulator", m.migrations, sim.migrations);
        gate.equal(
            "work-vector recomputes vs simulator",
            m.work_vector_recomputes,
            sim.work_vector_recomputes,
        );
        gate.equal(
            "tuples produced vs the first columnar run",
            m.tuples_produced,
            first.report.metrics.tuples_produced,
        );
    }
    Ok(sim_wall_s)
}

/// Check one compile's claims by direct evaluation. Returns the share of the
/// probed points at which the claimed plan is within `1 + ε` of that point's
/// own optimum.
///
/// What the compiler guarantees for a claimed region is Definition 1 at both
/// corners and, by cost monotonicity, `cost(plan, p) ≤ (1 + ε) · optimum(pntHi)`
/// at every point `p` inside: the gate holds it to exactly that. Definition 1
/// at interior points is *not* implied (the optimum at `p` can be below the
/// optimum at `pntHi`) and does fail at a few of them, so it is measured and
/// reported as `logical.pointwise_robust_ratio`, not gated.
pub fn check_compile(
    gate: &mut Gate,
    sc: &Scenario,
    deployment: &Deployment,
    seed: u64,
) -> Result<f64> {
    gate.attempted += 1; // the compile itself; a failed one never gets here

    let optimizer = JoinOrderOptimizer::new(sc.query.clone());
    let cost_model = CostModel::new(sc.query.clone());
    let costs_at = |plan, point: &GridPoint| -> Result<(f64, f64)> {
        let stats = deployment.space.snapshot_at(point);
        let optimum = cost_model.plan_cost(&optimizer.optimize(&stats)?, &stats)?;
        Ok((cost_model.plan_cost(plan, &stats)?, optimum))
    };
    let within = |cost: f64, optimum: f64| cost <= (1.0 + sc.epsilon) * optimum + 1e-12;
    let claimed: Vec<_> = deployment
        .logical
        .entries()
        .iter()
        .flat_map(|entry| {
            entry
                .regions
                .iter()
                .map(move |region| (&entry.plan, region))
        })
        .collect();
    gate.check(!claimed.is_empty(), || {
        "the solution claims no region".into()
    });
    let mut draws = SeedStream(seed);
    let probes = if claimed.is_empty() {
        0
    } else {
        ROBUSTNESS_PROBES
    };
    let mut pointwise = 0u64;
    for _ in 0..probes {
        let (plan, region) = claimed[draws.below(claimed.len())];
        let (lo, hi, point) = (region.pnt_lo(), region.pnt_hi(), draws.point_in(region));
        let (cost_lo, optimum_lo) = costs_at(plan, &lo)?;
        let (cost_hi, optimum_hi) = costs_at(plan, &hi)?;
        let (cost, optimum) = costs_at(plan, &point)?;
        gate.check(
            within(cost_lo, optimum_lo) && within(cost_hi, optimum_hi) && within(cost, optimum_hi),
            || {
                format!(
                    "plan {plan} in {region}: cost/optimum {cost_lo}/{optimum_lo} at pntLo, \
                     {cost_hi}/{optimum_hi} at pntHi, cost {cost} at {point}, epsilon {}",
                    sc.epsilon
                )
            },
        );
        pointwise += u64::from(within(cost, optimum));
    }

    // The physical score is the summed weight of the supported plans.
    let supported = deployment
        .support()
        .supported_indices(&deployment.physical, &sc.cluster);
    gate.check(!supported.is_empty(), || {
        "the placement supports no plan".into()
    });
    let weight: f64 = supported.iter().map(|&i| deployment.weights[i]).sum();
    let score = deployment.physical_score(&sc.cluster);
    gate.check((score - weight).abs() <= 1e-9, || {
        format!("physical score {score} != supported weight {weight}")
    });

    if deployment.logical_solver == "WRP" {
        gate.check(deployment.claimed_coverage == 1.0, || {
            format!("WRP claims coverage {}", deployment.claimed_coverage)
        });
    }
    Ok(pointwise as f64 / probes.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_attempts_and_failures() {
        let mut gate = Gate::default();
        gate.check(true, || unreachable!());
        gate.check(false, || "broken".into());
        gate.equal("answer", 41, 42);
        assert_eq!((gate.attempted, gate.failed), (3, 2));
        assert_eq!(gate.failures, ["broken", "answer: 41, reference 42"]);
    }

    #[test]
    fn seeded_points_stay_inside_their_region_and_repeat() {
        let region = Region::new(vec![2, 0, 5], vec![4, 0, 9]);
        let mut a = SeedStream(7);
        let mut b = SeedStream(7);
        let mut c = SeedStream(8);
        let mut differs = false;
        for _ in 0..200 {
            let p = a.point_in(&region);
            assert!(region.contains(&p));
            assert_eq!(p, b.point_in(&region));
            differs |= p != c.point_in(&region);
        }
        assert!(differs);
    }
}
