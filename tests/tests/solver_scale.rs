//! Equivalence and determinism properties of the scaled physical solvers.
//!
//! The incremental solvers (`LlfPacker`, `GreedyPhy`, `OptPrune`) promise
//! placements *bit-identical* to the retained naive references
//! (`llf_assign_naive`, `NaiveGreedyPhy`, `NaiveOptPrune`) — not merely
//! equal scores. These tests drive both sides over randomized clusters and
//! synthetic plan sets and assert exact equality of plans, kept sets and
//! scores, OptPrune's optimality against the exhaustive search (Theorem 3)
//! on the instances small enough to enumerate, plus run-to-run determinism
//! on a 512-node cluster.

use proptest::prelude::*;
use rld_core::prelude::*;

fn arbitrary_query() -> impl Strategy<Value = Query> {
    (3usize..7, 0u64..1000).prop_map(|(n, seed)| Query::n_way_join(n, seed))
}

/// Raw `(weight, loads)` pairs; loads are generated at the maximum operator
/// count and truncated to the query's own count by [`profiles_for`].
fn arbitrary_raw_profiles() -> impl Strategy<Value = Vec<(f64, Vec<f64>)>> {
    prop::collection::vec(
        (0.05f64..2.0, prop::collection::vec(0.05f64..1.6, 6..7)),
        1..10,
    )
}

/// Materialize generated `(weight, loads)` pairs into load profiles for a
/// query (identity logical plan, loads truncated to the operator count).
fn profiles_for(query: &Query, raw: &[(f64, Vec<f64>)]) -> Vec<PlanLoadProfile> {
    let ops = query.num_operators();
    let plan = LogicalPlan::identity(query);
    raw.iter()
        .map(|(weight, loads)| PlanLoadProfile {
            plan: plan.clone(),
            weight: *weight,
            loads: loads[..ops].to_vec(),
        })
        .collect()
}

/// Deterministic pseudo-random stream for the fixed-seed determinism test.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sorted-once packer and the per-operator scanning reference
    /// produce the same placement (or the same infeasibility verdict) on
    /// arbitrary heterogeneous clusters.
    #[test]
    fn heap_llf_matches_scan_llf(
        query in arbitrary_query(),
        capacities in prop::collection::vec(0.2f64..3.0, 1..40),
        load_scale in 0.1f64..1.2,
        seed in 0u64..1000,
    ) {
        let cluster = Cluster::new(capacities).unwrap();
        let mut state = seed;
        let loads: Vec<f64> = (0..query.num_operators())
            .map(|_| load_scale * (0.1 + (splitmix64(&mut state) >> 54) as f64 / 512.0))
            .collect();
        let fast = llf_assign(&query, &loads, &cluster).unwrap();
        let naive = llf_assign_naive(&query, &loads, &cluster).unwrap();
        prop_assert_eq!(fast, naive);
    }

    /// Incremental GreedyPhy (presorted drop schedule, delta-maintained
    /// `lp_max`) keeps the same plans and drops in the same order as the
    /// rebuild-everything reference.
    #[test]
    fn incremental_greedyphy_matches_naive(
        query in arbitrary_query(),
        nodes in 1usize..24,
        capacity in 0.3f64..3.0,
        raw in arbitrary_raw_profiles(),
    ) {
        let model = SupportModel::from_profiles(&query, profiles_for(&query, &raw));
        let cluster = Cluster::homogeneous(nodes, capacity).unwrap();
        let (fast_pp, fast_stats, fast_kept) =
            GreedyPhy::new().generate_with_kept(&model, &cluster).unwrap();
        let (naive_pp, naive_stats, naive_kept) =
            NaiveGreedyPhy::new().generate_with_kept(&model, &cluster).unwrap();
        prop_assert_eq!(fast_pp, naive_pp);
        prop_assert_eq!(fast_kept, naive_kept);
        prop_assert_eq!(fast_stats.score, naive_stats.score);
        prop_assert_eq!(fast_stats.nodes_expanded, naive_stats.nodes_expanded);
    }

    /// The pruned OptPrune (incremental partial scores, balance-aware bound)
    /// returns the same placement AND the same score as the
    /// recompute-from-scratch reference search. It is also optimal
    /// (Theorem 3): wherever the exhaustive search is affordable
    /// (`nodes^ops ≤ 200,000`) it reaches the exhaustive optimum, and
    /// GreedyPhy never scores above it.
    #[test]
    fn pruned_optprune_matches_naive(
        query in arbitrary_query(),
        nodes in 1usize..8,
        capacity in 0.4f64..2.5,
        raw in arbitrary_raw_profiles(),
    ) {
        let model = SupportModel::from_profiles(&query, profiles_for(&query, &raw));
        let cluster = Cluster::homogeneous(nodes, capacity).unwrap();
        let (fast_pp, fast_stats) = OptPrune::new().generate(&model, &cluster).unwrap();
        let (naive_pp, naive_stats) = NaiveOptPrune::new().generate(&model, &cluster).unwrap();
        prop_assert_eq!(fast_pp, naive_pp);
        prop_assert_eq!(fast_stats.score, naive_stats.score);
        let (_, greedy_stats) = GreedyPhy::new().generate(&model, &cluster).unwrap();
        prop_assert!(greedy_stats.score <= fast_stats.score + 1e-9);
        if (nodes as f64).powi(query.num_operators() as i32) <= 200_000.0 {
            let (_, exhaustive) = ExhaustivePhysicalSearch::new().generate(&model, &cluster).unwrap();
            prop_assert!((fast_stats.score - exhaustive.score).abs() <= 1e-9);
        }
    }
}

/// Both solvers are bit-deterministic at scale: two solves of the same
/// 512-node instance return identical placements, kept sets and scores.
#[test]
fn solvers_are_deterministic_at_512_nodes() {
    let query = Query::q2_ten_way_join();
    let plan = LogicalPlan::identity(&query);
    let ops = query.num_operators();
    let mut state = 0x5CA1_AB1E_2013u64;
    let mut profiles = Vec::new();
    // A mix of infeasible heavy profiles and packable light ones, so the
    // solve exercises the drop loop, the DFS and the pruning rules.
    for p in 0..48 {
        let heavy = p % 3 == 0;
        let loads: Vec<f64> = (0..ops)
            .map(|_| {
                let r = (splitmix64(&mut state) >> 54) as f64 / 1024.0;
                if heavy {
                    1.3 + r
                } else {
                    0.3 + r
                }
            })
            .collect();
        profiles.push(PlanLoadProfile {
            plan: plan.clone(),
            weight: (p + 1) as f64 / 16.0,
            loads,
        });
    }
    let model = SupportModel::from_profiles(&query, profiles);
    let cluster = Cluster::homogeneous(512, 1.0).unwrap();

    let (g1, gs1, gk1) = GreedyPhy::new()
        .generate_with_kept(&model, &cluster)
        .unwrap();
    let (g2, gs2, gk2) = GreedyPhy::new()
        .generate_with_kept(&model, &cluster)
        .unwrap();
    assert_eq!(g1, g2);
    assert_eq!(gk1, gk2);
    assert_eq!(gs1.score.to_bits(), gs2.score.to_bits());

    let (o1, os1) = OptPrune::new().generate(&model, &cluster).unwrap();
    let (o2, os2) = OptPrune::new().generate(&model, &cluster).unwrap();
    assert_eq!(o1, o2);
    assert_eq!(os1.score.to_bits(), os2.score.to_bits());
    assert_eq!(os1.nodes_expanded, os2.nodes_expanded);
    assert_eq!(os1.nodes_pruned, os2.nodes_pruned);
    assert_eq!(os1.incumbent_updates, os2.incumbent_updates);

    // And the naive references agree with the optimized solvers even here.
    let (gn, _, gkn) = NaiveGreedyPhy::new()
        .generate_with_kept(&model, &cluster)
        .unwrap();
    assert_eq!(g1, gn);
    assert_eq!(gk1, gkn);
    let (on, _) = NaiveOptPrune::new().generate(&model, &cluster).unwrap();
    assert_eq!(o1, on);
}
