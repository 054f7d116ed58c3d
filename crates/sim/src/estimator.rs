//! The biased sampling estimator of Sections 4 and 8.1.
//!
//! For an edge `(u, v)` with `a = |N[u] ∩ N[v]|` and `b = |N[u] ∪ N[v]|`,
//! one sample `X` is generated as follows: with probability
//! `|N[u]| / (|N[u]| + |N[v]|)` draw a uniform member `w` of `N[u]`,
//! otherwise of `N[v]`; set `X = 1` iff `w ∈ N[u] ∩ N[v]`.  Then
//! `E[X] = 2a / (a + b)`, so the mean `X̄` of `L` samples gives
//!
//! * Jaccard:  `σ̃  = X̄ / (2 − X̄)`
//! * cosine:   `σ̃c = (|N[u]| + |N[v]|) · X̄ / (2 √(|N[u]|·|N[v]|))`
//!
//! The estimator needs no sketches or auxiliary structures — it samples the
//! live adjacency sets directly, which is exactly why the paper prefers it
//! over Min-Hash in the dynamic setting.

use crate::SimilarityMeasure;
use dynscan_graph::{NeighbourhoodView, VertexId};
use rand::Rng;

/// Number of samples needed so that the similarity estimate is within `Δ`
/// of the truth with probability at least `1 − δ`
/// (Theorem 4.1 for Jaccard, Theorem 8.3 for cosine; cosine additionally
/// needs the similarity threshold `ε` because its deviation bound depends on
/// the degree-ratio prefilter).
pub fn sample_size(measure: SimilarityMeasure, eps: f64, delta_cap: f64, delta: f64) -> usize {
    assert!(delta_cap > 0.0, "accuracy Δ must be positive");
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "δ must be in (0, 1)"
    );
    let ln_term = (2.0 / delta).ln();
    let l = match measure {
        SimilarityMeasure::Jaccard => 2.0 / (delta_cap * delta_cap) * ln_term,
        SimilarityMeasure::Cosine => {
            assert!(eps > 0.0, "cosine sample size needs ε > 0");
            let factor = eps + 1.0 / eps;
            factor * factor / (8.0 * delta_cap * delta_cap) * ln_term
        }
    };
    l.ceil().max(1.0) as usize
}

/// Draw `samples` instances of the biased indicator `X` and return their
/// mean `X̄` (an unbiased estimate of `2a / (a + b)`).
///
/// Generic over [`NeighbourhoodView`], so the same code runs against the
/// live graph or a CSR snapshot; views with identical slot orders
/// consume identical random bits.
pub fn intersection_fraction_estimate<G: NeighbourhoodView, R: Rng + ?Sized>(
    graph: &G,
    u: VertexId,
    v: VertexId,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "at least one sample is required");
    let nu = graph.closed_degree(u);
    let nv = graph.closed_degree(v);
    // Branchless positional-sample loop: the side pick indexes an endpoint
    // table instead of branching, and the indicator accumulates as an
    // integer — the only data-dependent branch left per sample is inside
    // the RNG.  The draw sequence is unchanged from the branching form
    // (one `gen_range(0..nu + nv)` side pick, then one positional
    // closed-neighbourhood draw), so bit-streams — and therefore every
    // label the strategy derives — stay byte-identical.
    let endpoints = [(u, v), (v, u)];
    let mut hits = 0usize;
    for _ in 0..samples {
        // Pick the side with an integer draw over |N[u]| + |N[v]| slots:
        // exact probability |N[u]| / (|N[u]| + |N[v]|) with no float
        // rounding, and one fewer unit-interval conversion per sample.
        let pick = usize::from(rng.gen_range(0..nu + nv) >= nu);
        let (from, other) = endpoints[pick];
        // `w ∈ N[from]` holds by construction, so only the other side's
        // closed neighbourhood needs to be probed — a single bit test
        // when the other side is a hub under the adaptive kernel.
        let w = graph.sample_closed_neighbourhood(from, rng);
        hits += usize::from(graph.in_closed_neighbourhood(w, other));
    }
    hits as f64 / samples as f64
}

/// Estimate the structural similarity of `(u, v)` with `samples` draws.
///
/// For cosine the degree-ratio prefilter of Lemma 8.2 applies first: if
/// `|N_min| < ε² · |N_max|` the similarity is certainly below `ε`, so the
/// function returns `0.0` without sampling.
pub fn estimate_similarity<G: NeighbourhoodView, R: Rng + ?Sized>(
    graph: &G,
    u: VertexId,
    v: VertexId,
    measure: SimilarityMeasure,
    eps: f64,
    samples: usize,
    rng: &mut R,
) -> f64 {
    match measure {
        SimilarityMeasure::Jaccard => {
            let x_bar = intersection_fraction_estimate(graph, u, v, samples, rng);
            // X̄ ∈ [0, 1]; guard the degenerate X̄ = 2 case impossible here.
            x_bar / (2.0 - x_bar)
        }
        SimilarityMeasure::Cosine => {
            let nu = graph.closed_degree(u) as f64;
            let nv = graph.closed_degree(v) as f64;
            let (nmin, nmax) = if nu <= nv { (nu, nv) } else { (nv, nu) };
            if nmin < eps * eps * nmax {
                return 0.0;
            }
            let x_bar = intersection_fraction_estimate(graph, u, v, samples, rng);
            (nu + nv) * x_bar / (2.0 * (nu * nv).sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_similarity;
    use dynscan_graph::DynGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A graph with a spread of similarity values: two overlapping cliques
    /// joined by a sparse bridge.
    fn two_cliques() -> DynGraph {
        let mut g = DynGraph::with_vertices(12);
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                g.insert_edge(v(a), v(b)).unwrap();
            }
        }
        for a in 6..12u32 {
            for b in (a + 1)..12 {
                g.insert_edge(v(a), v(b)).unwrap();
            }
        }
        g.insert_edge(v(5), v(6)).unwrap();
        g
    }

    #[test]
    fn sample_sizes_match_formulas() {
        // Jaccard: L = ⌈2/Δ² · ln(2/δ)⌉.
        let l = sample_size(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.01);
        let expected = (2.0 / 0.01 * (200.0f64).ln()).ceil() as usize;
        assert_eq!(l, expected);
        // Cosine: L = ⌈(ε + 1/ε)²/(8Δ²) · ln(2/δ)⌉.
        let lc = sample_size(SimilarityMeasure::Cosine, 0.5, 0.1, 0.01);
        let factor: f64 = 0.5 + 2.0;
        let expected_c = (factor * factor / (8.0 * 0.01) * (200.0f64).ln()).ceil() as usize;
        assert_eq!(lc, expected_c);
        // Tighter Δ needs more samples; higher failure probability needs fewer.
        assert!(
            sample_size(SimilarityMeasure::Jaccard, 0.2, 0.05, 0.01)
                > sample_size(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.01)
        );
        assert!(
            sample_size(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.1)
                < sample_size(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.01)
        );
    }

    #[test]
    fn estimates_converge_to_exact_jaccard() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(17);
        for (a, b) in [(0u32, 1u32), (5, 6), (0, 5), (6, 7)] {
            let exact = exact_similarity(&g, v(a), v(b), SimilarityMeasure::Jaccard);
            let est = estimate_similarity(
                &g,
                v(a),
                v(b),
                SimilarityMeasure::Jaccard,
                0.2,
                20_000,
                &mut rng,
            );
            assert!(
                (est - exact).abs() < 0.05,
                "edge ({a},{b}): estimate {est} too far from exact {exact}"
            );
        }
    }

    #[test]
    fn estimates_converge_to_exact_cosine() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(18);
        for (a, b) in [(0u32, 1u32), (5, 6), (8, 9)] {
            let exact = exact_similarity(&g, v(a), v(b), SimilarityMeasure::Cosine);
            let est = estimate_similarity(
                &g,
                v(a),
                v(b),
                SimilarityMeasure::Cosine,
                0.3,
                20_000,
                &mut rng,
            );
            assert!(
                (est - exact).abs() < 0.05,
                "edge ({a},{b}): cosine estimate {est} too far from exact {exact}"
            );
        }
    }

    #[test]
    fn cosine_prefilter_short_circuits() {
        // A star: the hub has |N| = 11, a leaf has |N| = 2; with ε = 0.6 the
        // ratio 2/11 < 0.36 triggers the prefilter.
        let mut g = DynGraph::with_vertices(11);
        for i in 1..11u32 {
            g.insert_edge(v(0), v(i)).unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let est = estimate_similarity(&g, v(0), v(1), SimilarityMeasure::Cosine, 0.6, 10, &mut rng);
        assert_eq!(est, 0.0);
        // The exact value is indeed below ε, so the short-circuit is sound.
        let exact = exact_similarity(&g, v(0), v(1), SimilarityMeasure::Cosine);
        assert!(exact < 0.6);
    }

    #[test]
    fn fraction_estimate_is_in_unit_interval() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(9);
        let x = intersection_fraction_estimate(&g, v(0), v(1), 100, &mut rng);
        assert!((0.0..=1.0).contains(&x));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_cliques();
        let mut r1 = SmallRng::seed_from_u64(42);
        let mut r2 = SmallRng::seed_from_u64(42);
        let a = estimate_similarity(
            &g,
            v(0),
            v(5),
            SimilarityMeasure::Jaccard,
            0.2,
            500,
            &mut r1,
        );
        let b = estimate_similarity(
            &g,
            v(0),
            v(5),
            SimilarityMeasure::Jaccard,
            0.2,
            500,
            &mut r2,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = intersection_fraction_estimate(&g, v(0), v(1), 0, &mut rng);
    }
}
