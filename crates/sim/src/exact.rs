//! Exact structural similarity.

use crate::SimilarityMeasure;
use dynscan_graph::{DynGraph, VertexId};

/// Exact structural similarity between `u` and `v` under `measure`.
///
/// The value is defined for *any* pair of vertices (the paper sets
/// `σ(u, v) = 0` for non-adjacent pairs; the clustering layer only ever
/// asks about edges, so this function computes the neighbourhood similarity
/// regardless of adjacency — tests rely on that).
///
/// Cosine follows the original SCAN definition (and the identity
/// `|N\[u\] ∩ N\[v\]| = |N\[u\]| + |N\[v\]| − |N\[u\] ∪ N\[v\]|` the paper's Section 8.1
/// derivation relies on): the denominator uses the **closed** neighbourhood
/// sizes, `σc = |N\[u\] ∩ N\[v\]| / √(|N\[u\]|·|N\[v\]|)`, so the value always lies
/// in `[0, 1]`.
///
/// Cost: O(min(d\[u\], d\[v\])) membership probes.  The engines, the
/// static SCAN baseline and the quality metrics all call it on the live
/// `DynGraph`.
pub fn exact_similarity(
    graph: &DynGraph,
    u: VertexId,
    v: VertexId,
    measure: SimilarityMeasure,
) -> f64 {
    let a = graph.closed_intersection_size(u, v) as f64;
    match measure {
        SimilarityMeasure::Jaccard => {
            let b = graph.closed_union_size(u, v) as f64;
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        SimilarityMeasure::Cosine => {
            let nu = graph.closed_degree(u) as f64;
            let nv = graph.closed_degree(v) as f64;
            a / (nu * nv).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// The figure-1 style toy graph: a triangle {0,1,2} with a pendant 3 on
    /// vertex 2.
    fn toy() -> DynGraph {
        DynGraph::from_edges(vec![(v(0), v(1)), (v(1), v(2)), (v(0), v(2)), (v(2), v(3))]).0
    }

    #[test]
    fn jaccard_on_triangle() {
        let g = toy();
        // N[0] = {0,1,2}, N[1] = {0,1,2}: identical neighbourhoods → 1.0.
        assert!((exact_similarity(&g, v(0), v(1), SimilarityMeasure::Jaccard) - 1.0).abs() < 1e-12);
        // N[2] = {0,1,2,3}, N[3] = {2,3}: |∩| = 2, |∪| = 4 → 0.5.
        assert!((exact_similarity(&g, v(2), v(3), SimilarityMeasure::Jaccard) - 0.5).abs() < 1e-12);
        // N[0] = {0,1,2}, N[2] = {0,1,2,3}: |∩| = 3, |∪| = 4 → 0.75.
        assert!(
            (exact_similarity(&g, v(0), v(2), SimilarityMeasure::Jaccard) - 0.75).abs() < 1e-12
        );
    }

    #[test]
    fn cosine_on_triangle() {
        let g = toy();
        // N[0] = N[1] = {0,1,2}: identical closed neighbourhoods → 1.0.
        let c01 = exact_similarity(&g, v(0), v(1), SimilarityMeasure::Cosine);
        assert!((c01 - 1.0).abs() < 1e-12);
        // |N[2]| = 4, |N[3]| = 2, |∩| = 2 → 2 / √8.
        let c23 = exact_similarity(&g, v(2), v(3), SimilarityMeasure::Cosine);
        assert!((c23 - 2.0 / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cosine_never_below_jaccard() {
        // The paper (Section 9.1) observes σc ≥ σ for every edge.
        let g = toy();
        for e in g.edges().collect::<Vec<_>>() {
            let (u, w) = e.endpoints();
            let j = exact_similarity(&g, u, w, SimilarityMeasure::Jaccard);
            let c = exact_similarity(&g, u, w, SimilarityMeasure::Cosine);
            assert!(c >= j - 1e-12, "cosine {c} < jaccard {j} on {e:?}");
        }
    }

    #[test]
    fn isolated_vertices_have_zero_similarity() {
        let mut g = DynGraph::with_vertices(3);
        g.insert_edge(v(0), v(1)).unwrap();
        // Neither 0 nor 1 shares any closed-neighbourhood member with 2.
        assert_eq!(
            exact_similarity(&g, v(0), v(2), SimilarityMeasure::Cosine),
            0.0
        );
        assert_eq!(
            exact_similarity(&g, v(0), v(2), SimilarityMeasure::Jaccard),
            0.0
        );
        // Cosine stays within [0, 1] even for an isolated endpoint.
        assert!(exact_similarity(&g, v(2), v(2), SimilarityMeasure::Cosine) <= 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On random graphs: Jaccard ∈ [0, 1] and symmetric, and cosine
        /// ∈ [Jaccard, 1].
        #[test]
        fn random_graph_invariants(
            edges in prop::collection::hash_set((0u32..16, 0u32..16), 1..80)
        ) {
            let edges: Vec<_> = edges.into_iter().filter(|(a, b)| a != b)
                .map(|(a, b)| (v(a), v(b))).collect();
            let (g, _) = DynGraph::from_edges(edges);
            for e in g.edges().collect::<Vec<_>>() {
                let (u, w) = e.endpoints();
                let j = exact_similarity(&g, u, w, SimilarityMeasure::Jaccard);
                prop_assert!((0.0..=1.0).contains(&j));
                prop_assert!((j - exact_similarity(&g, w, u, SimilarityMeasure::Jaccard)).abs() < 1e-12);
                let c = exact_similarity(&g, u, w, SimilarityMeasure::Cosine);
                prop_assert!(c >= j - 1e-12);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            }
        }
    }
}
