//! Criterion micro-benchmark of the one probe kernel,
//! [`SortedMarks::count_matches`], in its two regimes: a run long enough to
//! carry the read-path filter (occupancy bitmap + fence pointers) and one
//! below the minimum filtered length, which answers by plain binary search.
//! Each is probed where the filter rejects (θ = 2·10⁻⁵, the window-join
//! regime) and where every probe takes the exact path (θ = 0.3) — so the
//! fallback's cost stays visible next to the path behind the dataplane's
//! `evaluate_ms`.

use criterion::{criterion_group, criterion_main, Criterion};
use rld_common::SortedMarks;
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

/// A 500-row driving batch's worth of rotations against a ~15k-mark window
/// term (filtered) and a 32-mark one (a thin stream's tick run, unfiltered).
fn bench_probe_kernel(c: &mut Criterion) {
    let mut s = 7;
    let rots: Vec<f64> = (0..500).map(|_| unit(&mut s)).collect();
    for term_len in [15_000usize, 32] {
        let term = random_marks(term_len, 42);
        let mut group = c.benchmark_group(&format!("probe_{term_len}x{}", rots.len()));
        for (regime, theta) in [("filter_rejects", 2e-5), ("exact_path", 0.3)] {
            group.bench_function(regime, |b| {
                b.iter(|| {
                    let total: usize = rots.iter().map(|&r| term.count_matches(theta, r)).sum();
                    black_box(total)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_probe_kernel);
criterion_main!(benches);
