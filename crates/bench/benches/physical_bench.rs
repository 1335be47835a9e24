//! Criterion micro-benchmark: physical plan generation (LLF, GreedyPhy,
//! OptPrune, exhaustive) — the compile-time cost behind Figure 13.

use criterion::{criterion_group, criterion_main, Criterion};
use rld_bench::{build_support_model, capacity_for};
use rld_core::prelude::*;
use std::hint::black_box;

fn bench_physical_generators(c: &mut Criterion) {
    let query = Query::q1_stock_monitoring();
    let (_, model) = build_support_model(&query, 2, 2, 0.2);
    let cluster = Cluster::homogeneous(4, capacity_for(&model, 2.5)).unwrap();
    let mut group = c.benchmark_group("physical_plan_generation");
    group.bench_function("greedyphy_q1_4nodes", |b| {
        b.iter(|| black_box(GreedyPhy::new().generate(&model, &cluster).unwrap()))
    });
    group.bench_function("optprune_q1_4nodes", |b| {
        b.iter(|| black_box(OptPrune::new().generate(&model, &cluster).unwrap()))
    });
    group.bench_function("exhaustive_q1_4nodes", |b| {
        b.iter(|| {
            black_box(
                ExhaustivePhysicalSearch::new()
                    .generate(&model, &cluster)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_llf(c: &mut Criterion) {
    let query = Query::q2_ten_way_join();
    let (_, model) = build_support_model(&query, 2, 2, 0.2);
    let cluster = Cluster::homogeneous(8, capacity_for(&model, 4.0)).unwrap();
    let loads = model.lp_max_loads().to_vec();
    c.bench_function("llf_q2_8nodes", |b| {
        b.iter(|| black_box(rld_core::physical::llf_assign(&query, &loads, &cluster).unwrap()))
    });
}

criterion_group!(benches, bench_physical_generators, bench_llf);
criterion_main!(benches);
