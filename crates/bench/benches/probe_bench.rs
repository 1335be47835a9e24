//! Criterion micro-benchmark: per-row [`SortedMarks::count_matches`]
//! binary searches versus the batched [`ProbeBatch`] kernel that answers a
//! whole batch of `(theta, rot)` probes in merged galloping passes — the
//! probe path behind the columnar dataplane's `evaluate_ms`.

use criterion::{criterion_group, criterion_main, Criterion};
use rld_common::{ProbeBatch, SortedMarks};
use std::hint::black_box;

/// Deterministic splitmix64 stream — keeps the bench reproducible without
/// pulling a RNG crate into the bench graph.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn random_marks(n: usize, seed: u64) -> SortedMarks {
    let mut s = seed;
    SortedMarks::from_unsorted((0..n).map(|_| unit(&mut s)).collect())
}

fn random_probes(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut s = seed;
    (0..n).map(|_| (unit(&mut s), unit(&mut s))).collect()
}

/// The full-mode dataplane shape: a ~15k-mark window term probed by a
/// 500-row driving batch, plus the small-term regime (a fresh per-tick run)
/// where the batched kernel's setup cost has to stay competitive.
fn bench_probe_kernels(c: &mut Criterion) {
    for (term_len, probes_len) in [(15_000usize, 500usize), (256, 500)] {
        let term = random_marks(term_len, 42);
        let probes = random_probes(probes_len, 7);
        let name = format!("probe_{term_len}x{probes_len}");
        let mut group = c.benchmark_group(&name);

        group.bench_function("single_probe", |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &(theta, rot) in &probes {
                    total += term.count_matches(theta, rot);
                }
                black_box(total)
            })
        });

        let mut pb = ProbeBatch::new();
        let mut counts = vec![0usize; probes.len()];
        group.bench_function("multi_probe", |b| {
            b.iter(|| {
                pb.fill(probes.iter().copied());
                counts.clear();
                counts.resize(probes.len(), 0);
                pb.accumulate(&term, &mut counts);
                black_box(counts.iter().sum::<usize>())
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_probe_kernels);
criterion_main!(benches);
