//! The (Δ, δ)-labelling strategy with the paper's global δ schedule.
//!
//! DynELM labels edges with the (½ρε, δᵢ)-strategy.  Invocations are
//! numbered over the whole run: the `i`-th overall uses
//! `δᵢ = δ*/(i·(i+1))`, and the δᵢ telescope to at most δ*, so by a union
//! bound *every* label ever produced is ρ-approximately valid with
//! probability at least 1 − δ* (Section 6.1, third bullet of
//! Theorem 6.1).  The caller assigns the numbers
//! ([`LabellingStrategy::label_deterministic`]) from the count of
//! invocations recorded so far ([`LabellingStrategy::invocations`]).

use crate::affordability::tracking_threshold;
use crate::estimator::{estimate_similarity, sample_size};
use crate::exact::exact_similarity;
use crate::label::EdgeLabel;
use crate::rng::EdgeRng;
use crate::SimilarityMeasure;
use dynscan_graph::{DynGraph, EdgeKey, VertexId};

/// The result of one deterministic labelling-strategy invocation
/// (see [`LabellingStrategy::label_deterministic`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelOutcome {
    /// The decided label.
    pub label: EdgeLabel,
    /// The similarity value (estimated or exact) behind the decision.
    pub sigma: f64,
    /// Samples drawn by this invocation (0 when the exact shortcut or
    /// exact mode applied).
    pub samples_drawn: u64,
}

/// Stateful labelling strategy shared by all edges of one DynELM instance.
#[derive(Clone, Debug)]
pub struct LabellingStrategy {
    measure: SimilarityMeasure,
    eps: f64,
    rho: f64,
    delta_star: f64,
    /// Invocations recorded so far, folded in by
    /// [`Self::record_invocations`]: the number of the run's last
    /// labelling.
    invocations: u64,
    /// Total similarity samples drawn (diagnostic; drives the cost model).
    samples_drawn: u64,
    /// When set, similarities are computed exactly instead of sampled.
    /// Used by the correctness tests and the `ablation_exact_label` bench.
    exact_mode: bool,
}

impl LabellingStrategy {
    /// Create a strategy for similarity threshold `eps`, approximation
    /// parameter `rho` and overall failure probability `delta_star`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are outside the ranges the paper requires:
    /// `ε ∈ (0, 1]`, `ρ ∈ [0, min(1, 1/ε − 1))` (with `ρ = 0` only allowed in
    /// exact mode), `δ* ∈ (0, 1)`.
    pub fn new(measure: SimilarityMeasure, eps: f64, rho: f64, delta_star: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1], got {eps}");
        let rho_cap = (1.0f64).min(1.0 / eps - 1.0);
        assert!(
            rho >= 0.0 && rho < rho_cap.max(f64::EPSILON),
            "ρ must be in [0, min(1, 1/ε − 1)) = [0, {rho_cap}), got {rho}"
        );
        assert!(
            delta_star > 0.0 && delta_star < 1.0,
            "δ* must be in (0, 1), got {delta_star}"
        );
        LabellingStrategy {
            measure,
            eps,
            rho,
            delta_star,
            invocations: 0,
            samples_drawn: 0,
            exact_mode: false,
        }
    }

    /// Switch to exact-similarity labelling (no sampling).  The resulting
    /// labelling is a valid (non-approximate) edge labelling; DT thresholds
    /// are still derived from ρ, so ρ > 0 keeps updates cheap while the
    /// labels themselves are exact at labelling time.
    pub fn with_exact_labels(mut self) -> Self {
        self.exact_mode = true;
        self
    }

    /// The similarity measure in use.
    pub fn measure(&self) -> SimilarityMeasure {
        self.measure
    }

    /// The similarity threshold ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The approximation parameter ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The overall failure probability δ*.
    pub fn delta_star(&self) -> f64 {
        self.delta_star
    }

    /// Whether exact-similarity labelling is enabled.
    pub fn is_exact(&self) -> bool {
        self.exact_mode
    }

    /// Number of strategy invocations recorded so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Total similarity samples drawn so far.
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// The accuracy target Δ = ½ρε of the sampling estimator.
    pub fn delta_cap(&self) -> f64 {
        0.5 * self.rho * self.eps
    }

    /// The failure probability `δᵢ = δ*/(i·(i+1))` of the run's `i`-th
    /// invocation.
    fn delta_at(&self, invocation: u64) -> f64 {
        let i = invocation as f64;
        self.delta_star / (i * (i + 1.0))
    }

    /// Label the edge with the (½ρε, δᵢ)-strategy **deterministically and
    /// without mutating the strategy**, where `i ≥ 1` is the invocation's
    /// number in the run, `δᵢ = δ*/(i·(i+1))`, and the random stream is
    /// derived from `(stream_seed, edge, i)`.
    ///
    /// This is the labelling primitive of the batch update engine, which
    /// numbers a batch's sorted jobs before it maps them in parallel: the
    /// sample count and the random bits are then fixed per job, so a
    /// parallel re-estimation produces bit-identical results to any
    /// sequential execution of the same numbered invocations.  Numbers
    /// that never repeat make the δᵢ telescope to at most δ* over the run,
    /// so every label the run produces is ρ-approximately valid with
    /// probability ≥ 1 − δ*.
    ///
    /// When the prescribed sample size `Lᵢ` is at least as large as the
    /// smaller closed neighbourhood, sampling cannot be cheaper than the
    /// exact O(min-degree) computation, so the similarity is computed
    /// exactly instead.  The exact value trivially satisfies the (Δ, δ)
    /// accuracy requirement, so every guarantee of the strategy is
    /// preserved; and the shortcut depends only on `(i, degrees)`, so it
    /// is itself deterministic.
    pub fn label_deterministic(
        &self,
        graph: &DynGraph,
        edge: EdgeKey,
        invocation: u64,
        stream_seed: u64,
    ) -> LabelOutcome {
        assert!(invocation >= 1, "invocation numbers start at 1");
        let (u, v) = edge.endpoints();
        let (sigma, samples_drawn) = if self.exact_mode || self.rho == 0.0 {
            (exact_similarity(graph, u, v, self.measure), 0)
        } else {
            let samples = sample_size(
                self.measure,
                self.eps,
                self.delta_cap(),
                self.delta_at(invocation),
            );
            let exact_cost = graph.closed_degree(u).min(graph.closed_degree(v));
            if samples >= exact_cost {
                (exact_similarity(graph, u, v, self.measure), 0)
            } else {
                let mut rng = EdgeRng::for_edge(stream_seed, edge, invocation);
                (
                    estimate_similarity(graph, u, v, self.measure, self.eps, samples, &mut rng),
                    samples as u64,
                )
            }
        };
        LabelOutcome {
            label: EdgeLabel::from_similarity(sigma, self.eps),
            sigma,
            samples_drawn,
        }
    }

    /// Fold the bookkeeping of externally executed deterministic
    /// invocations (e.g. a parallel batch) back into the strategy's
    /// counters.
    pub fn record_invocations(&mut self, invocations: u64, samples_drawn: u64) {
        self.invocations += invocations;
        self.samples_drawn += samples_drawn;
    }

    /// The DT tracking threshold for `(u, v)` at its current degrees.
    pub fn threshold(&self, graph: &DynGraph, u: VertexId, v: VertexId) -> u64 {
        tracking_threshold(
            self.measure,
            self.eps,
            self.rho,
            graph.degree(u),
            graph.degree(v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Two `k`-cliques joined by the bridge edge `(k − 1, k)`.
    fn clique_pair(k: u32) -> DynGraph {
        let mut g = DynGraph::with_vertices(2 * k as usize);
        for base in [0, k] {
            for a in base..base + k {
                for b in (a + 1)..base + k {
                    g.insert_edge(v(a), v(b)).unwrap();
                }
            }
        }
        g.insert_edge(v(k - 1), v(k)).unwrap();
        g
    }

    #[test]
    fn parameter_validation() {
        let ok = LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 0.01, 0.01);
        assert_eq!(ok.eps(), 0.2);
        assert!(std::panic::catch_unwind(|| {
            LabellingStrategy::new(SimilarityMeasure::Jaccard, 1.5, 0.01, 0.01)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 1.5, 0.01)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 0.01, 0.0)
        })
        .is_err());
        // ρ must respect the 1/ε − 1 cap: ε = 0.9 allows ρ < 1/0.9 − 1 ≈ 0.111.
        assert!(std::panic::catch_unwind(|| {
            LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.9, 0.2, 0.01)
        })
        .is_err());
    }

    #[test]
    fn delta_schedule_telescopes_below_delta_star() {
        let strategy = LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.05);
        let total: f64 = (1..=10_000u64).map(|k| strategy.delta_at(k)).sum();
        assert!(total <= 0.05 + 1e-12);
    }

    #[test]
    fn sample_size_grows_with_invocations() {
        let s = LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 0.1, 0.01);
        let size = |i| sample_size(s.measure(), s.eps(), s.delta_cap(), s.delta_at(i));
        assert!(
            size(2) >= size(1) && size(100) > size(1),
            "later invocations use smaller δᵢ, hence more samples"
        );
        // On this tiny graph the exact shortcut applies at every
        // invocation, so no samples are drawn even as the schedule
        // advances.
        let g = clique_pair(5);
        for i in 1..=3 {
            let outcome = s.label_deterministic(&g, EdgeKey::new(v(0), v(1)), i, 1);
            assert_eq!(outcome.samples_drawn, 0);
        }
    }

    #[test]
    fn exact_mode_labels_match_ground_truth() {
        let g = clique_pair(5);
        let s =
            LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.5, 0.01, 0.01).with_exact_labels();
        for e in g.edges().collect::<Vec<_>>() {
            let (a, b) = e.endpoints();
            let outcome = s.label_deterministic(&g, e, 1, 2);
            let exact = exact_similarity(&g, a, b, SimilarityMeasure::Jaccard);
            assert_eq!(outcome.sigma, exact);
            assert_eq!(outcome.label, EdgeLabel::from_similarity(exact, 0.5));
            assert_eq!(outcome.samples_drawn, 0, "exact mode draws no samples");
        }
    }

    #[test]
    fn sampled_labels_respect_rho_approximation() {
        // ε = 0.5, ρ = 0.9, δ* = 0.5 prescribe L₁ = 83 samples, below the
        // closed degree 100 of every vertex of two 100-cliques, so the
        // first invocation samples instead of taking the exact shortcut.
        // Clique-internal edges have Jaccard ≥ 0.99 ≥ (1 + ρ)ε and the
        // bridge 1/100 < (1 − ρ)ε, so every sampled label must agree with
        // the exact one; the (edge, invocation) streams make each seed
        // deterministic.
        let g = clique_pair(100);
        let (eps, rho) = (0.5, 0.9);
        let s = LabellingStrategy::new(SimilarityMeasure::Jaccard, eps, rho, 0.5);
        for seed in 0..3u64 {
            let mut samples = 0;
            for e in g.edges().collect::<Vec<_>>() {
                let (a, b) = e.endpoints();
                let exact = exact_similarity(&g, a, b, SimilarityMeasure::Jaccard);
                let outcome = s.label_deterministic(&g, e, 1, seed);
                samples += outcome.samples_drawn;
                if exact >= (1.0 + rho) * eps {
                    assert_eq!(outcome.label, EdgeLabel::Similar, "edge {e:?} σ = {exact}");
                } else if exact < (1.0 - rho) * eps {
                    assert_eq!(
                        outcome.label,
                        EdgeLabel::Dissimilar,
                        "edge {e:?} σ = {exact}"
                    );
                } else {
                    panic!("edge {e:?} σ = {exact} falls inside the ρ-band");
                }
            }
            assert!(
                samples > 0,
                "seed {seed}: every label took the exact shortcut"
            );
        }
    }

    #[test]
    fn threshold_uses_current_degrees() {
        let g = clique_pair(5);
        let s = LabellingStrategy::new(SimilarityMeasure::Jaccard, 0.2, 0.5, 0.01);
        let t = s.threshold(&g, v(4), v(5));
        assert_eq!(
            t,
            tracking_threshold(
                SimilarityMeasure::Jaccard,
                0.2,
                0.5,
                g.degree(v(4)),
                g.degree(v(5))
            )
        );
    }
}
