//! Criterion micro-benchmark: parameter-space primitives — weight assignment
//! (§4.2) and occurrence-probability computation (§5.2).

use criterion::{criterion_group, criterion_main, Criterion};
use rld_core::paramspace::{DistanceMetric, Region as PsRegion, WeightMap};
use rld_core::prelude::*;
use std::hint::black_box;

fn space_2d(steps: usize) -> (Query, ParameterSpace) {
    let q = Query::q1_stock_monitoring();
    let est = q
        .selectivity_estimates(2, UncertaintyLevel::new(3))
        .unwrap();
    let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
    (q, space)
}

fn bench_weight_assignment(c: &mut Criterion) {
    let (q, space) = space_2d(17);
    let cm = CostModel::new(q.clone());
    let plan = LogicalPlan::identity(&q);
    let region = PsRegion::full(&space);
    c.bench_function("weight_assignment_17x17", |b| {
        b.iter(|| {
            let cost = |g: &rld_core::paramspace::GridPoint| {
                cm.plan_cost(&plan, &space.snapshot_at(g)).unwrap()
            };
            black_box(WeightMap::assign(
                &space,
                &region,
                cost,
                cost,
                DistanceMetric::Manhattan,
            ))
        })
    });
}

fn bench_occurrence_probabilities(c: &mut Criterion) {
    let (_, space) = space_2d(17);
    let region = PsRegion::full(&space);
    c.bench_function("occurrence_normal_17x17", |b| {
        b.iter(|| black_box(OccurrenceModel::Normal.region_probability(&space, &region)))
    });
}

fn bench_plan_cost(c: &mut Criterion) {
    let q = Query::q2_ten_way_join();
    let cm = CostModel::new(q.clone());
    let plan = LogicalPlan::identity(&q);
    let stats = q.default_stats();
    c.bench_function("plan_cost_q2", |b| {
        b.iter(|| black_box(cm.plan_cost(&plan, &stats).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_weight_assignment,
    bench_occurrence_probabilities,
    bench_plan_cost
);
criterion_main!(benches);
