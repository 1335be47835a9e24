//! Deterministic random-number helpers.
//!
//! Every stochastic component in the workspace (workload generators, the RS
//! baseline sampler, Poisson arrivals in the simulator) takes an explicit
//! seed so that experiments — and therefore REPRODUCTION.json — are exactly
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The seeded RNG type used throughout the workspace.
pub type SeededRng = StdRng;

/// Create a deterministic RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SeededRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream/component label, so
/// that independent components driven by the same experiment seed do not
/// share random sequences.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the parent seed.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^ parent.rotate_left(17)
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit bijective mixer.
/// Used wherever a *stateless* hash must stand in for a random draw — the
/// keyless shard hash, and per-row generator substream seeds (every (seed,
/// tick, row) triple maps to an independent-looking RNG state without any
/// sequential draw dependency).
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the per-key partition hash shared by the
/// columnar fan-out and the partner-stream generators (both sides must
/// agree on which shard owns a key).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Draw a sample from an exponential distribution with the given mean.
///
/// Used for Poisson arrival processes (Table 2: Poisson arrivals with a
/// 500 ms mean inter-arrival time).
pub fn sample_exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Largest λ drawn in one pass of Knuth's method, which compares a running
/// product against `exp(-λ)`: that underflows to 0 past λ ≈ 745, and a pass
/// can then never count past ~745 however large λ is.
const POISSON_SPLIT: f64 = 700.0;

/// Counts past this are pathological λ values; sampling stops there.
const POISSON_GUARD: u64 = 10_000_000;

/// Draw a sample from a Poisson distribution with parameter `lambda` using
/// Knuth's method (adequate for the small λ used by the paper's synthetic
/// data, Table 2 uses λ = 1). Above λ = 700 the sample is the sum
/// of `k = ⌈λ / 700⌉` independent Poisson(λ / k) draws, which is Poisson(λ).
pub fn sample_poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson lambda must be non-negative");
    // One chunk — λ itself, the draw sequence every seeded stream was
    // generated with — up to the split.
    let chunks = (lambda / POISSON_SPLIT).ceil().max(1.0);
    let mut total = 0;
    for _ in 0..chunks as u64 {
        total += sample_poisson_knuth(rng, lambda / chunks);
        if total > POISSON_GUARD {
            break;
        }
    }
    total
}

fn sample_poisson_knuth(rng: &mut impl Rng, lambda: f64) -> u64 {
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k: u64 = 0;
    let mut p = 1.0;
    loop {
        k += 1;
        p *= rng.random_range(0.0..1.0f64);
        if p <= l {
            return k - 1;
        }
        if k > POISSON_GUARD {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..16 {
            let x: f64 = a.random();
            let y: f64 = b.random();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_labels_give_different_child_seeds() {
        let s1 = derive_seed(7, "stock");
        let s2 = derive_seed(7, "news");
        let s3 = derive_seed(8, "stock");
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // deterministic
        assert_eq!(derive_seed(7, "stock"), s1);
    }

    #[test]
    fn exponential_mean_is_approximately_correct() {
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let mean = 500.0;
        let sum: f64 = (0..n).map(|_| sample_exponential(&mut rng, mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() / mean < 0.05, "avg={avg}");
    }

    #[test]
    fn poisson_mean_is_approximately_lambda() {
        let mut rng = rng_from_seed(2);
        let n = 20_000;
        let lambda = 1.0;
        let sum: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
        let avg = sum as f64 / n as f64;
        assert!((avg - lambda).abs() < 0.05, "avg={avg}");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_above_the_split_keeps_mean_and_variance() {
        // One Knuth pass saturates near 745 (exp(-λ) underflows); the
        // chunked draw must not.
        let mut rng = rng_from_seed(5);
        let (n, lambda) = (4_000, 2_000.0);
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_poisson(&mut rng, lambda) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.01 * lambda, "mean={mean}");
        assert!((var - lambda).abs() < 0.10 * lambda, "var={var}");
    }

    #[test]
    fn poisson_below_the_split_draws_what_it_always_drew() {
        // Pinned at the commit before the split existed: every seeded
        // scenario stream and oracle depends on this sequence.
        let mut rng = rng_from_seed(7);
        let drawn: Vec<u64> = (0..6).map(|_| sample_poisson(&mut rng, 400.0)).collect();
        assert_eq!(drawn, [381, 366, 423, 381, 386, 406]);
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exponential_rejects_non_positive_mean() {
        let mut rng = rng_from_seed(4);
        sample_exponential(&mut rng, 0.0);
    }
}
