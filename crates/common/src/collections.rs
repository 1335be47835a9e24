//! Determinism-safe projections over hash collections.
//!
//! The workspace's static analyzer (`rld-analysis`, rule D1) bans iterating
//! `HashMap`/`HashSet` on any result-producing path: hash iteration order
//! depends on `RandomState` seeding, so two identical runs can visit entries
//! in different orders and — through float summation order, first-match
//! tie-breaks, or Vec push order — produce different traces. That would break
//! the repo's headline bit-determinism property (same seed ⇒ identical
//! `RunTrace` across all three backends).
//!
//! Hash maps are still fine as *lookup* structures. When a result path does
//! need to walk one, project it through [`sorted_pairs`] (or keep the entries
//! sorted by key, as `rld_paramspace::WeightMap` does): the output order is
//! then a pure function of the map's contents.

use std::collections::HashMap;

/// Snapshot a `HashMap`'s entries as a `Vec` sorted by key.
///
/// This is the sanctioned way to iterate a hash map on a result-producing
/// path: the returned order depends only on the keys present, never on hash
/// seeding or insertion history. Values are cloned, so this is meant for
/// boundary crossings (building a report, serializing, folding into a
/// deterministic accumulator), not for hot inner loops — those should use a
/// `BTreeMap` or a dense index instead.
///
/// ```
/// use std::collections::HashMap;
/// use rld_common::collections::sorted_pairs;
///
/// let mut m = HashMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// assert_eq!(sorted_pairs(&m), vec![("a", 1), ("b", 2)]);
/// ```
pub fn sorted_pairs<K, V>(map: &HashMap<K, V>) -> Vec<(K, V)>
where
    K: Ord + Clone,
    V: Clone,
{
    // This helper IS the sorted projection the lint points to: the
    // hash-order iteration below is immediately sorted by key.
    // rld-allow(D1): sorted before any order-sensitive use
    let mut pairs: Vec<(K, V)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_pairs_is_insertion_order_invariant() {
        let mut forward = HashMap::new();
        let mut reverse = HashMap::new();
        for i in 0..64u32 {
            forward.insert(i, i * 3);
        }
        for i in (0..64u32).rev() {
            reverse.insert(i, i * 3);
        }
        assert_eq!(sorted_pairs(&forward), sorted_pairs(&reverse));
        let pairs = sorted_pairs(&forward);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(pairs.len(), 64);
    }

    #[test]
    fn empty_map_projects_to_empty_vec() {
        let m: HashMap<String, u8> = HashMap::new();
        assert!(sorted_pairs(&m).is_empty());
    }
}
