//! Batch/sequential equivalence of the batch update engine.
//!
//! Two layers of guarantees are exercised here:
//!
//! * **Exact equivalence** (exact labels, ρ = 0): every label is the exact
//!   ε-threshold decision for the current graph and the DT thresholds
//!   degenerate to τ = 1, so the full maintained state — labels, `SimCnt`,
//!   core flags, sim-core graph, clustering — is a pure function of the
//!   final topology.  Batched application over *any* partition of the
//!   stream must therefore be **identical** to one-at-a-time application.
//!
//! * **Validity + determinism** (sampled mode, ρ > 0): batching may
//!   re-estimate an edge at a different moment than sequential processing
//!   (against the post-batch graph), so states need not be identical — but
//!   every label must stay ρ-approximately valid for the final graph, the
//!   incremental vAuxInfo/G_core state must match a from-scratch
//!   extraction, and the whole batched run must be bit-reproducible thanks
//!   to the deterministic per-edge estimator streams.
//!
//! The exact dynamic baselines maintain exact counts at all times, so for
//! them batched == sequential holds unconditionally, in every mode.

use dynscan_baseline::{ExactDynScan, IndexedDynScan};
use dynscan_core::{
    Clusterer, DynElm, DynStrClu, EdgeKey, EdgeLabel, GraphUpdate, Params, VertexId, VertexRole,
};
use dynscan_sim::exact_similarity;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Turn proptest's raw op triples into updates (self-loops dropped).
fn to_updates(ops: &[(bool, u32, u32)]) -> Vec<GraphUpdate> {
    ops.iter()
        .filter(|(_, a, b)| a != b)
        .map(|&(insert, a, b)| {
            if insert {
                GraphUpdate::Insert(v(a), v(b))
            } else {
                GraphUpdate::Delete(v(a), v(b))
            }
        })
        .collect()
}

/// Split a stream into batches whose sizes cycle through `sizes`.
fn partition(updates: &[GraphUpdate], sizes: &[usize]) -> Vec<Vec<GraphUpdate>> {
    let mut batches = Vec::new();
    let mut rest = updates;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].clamp(1, rest.len());
        let (head, tail) = rest.split_at(take);
        batches.push(head.to_vec());
        rest = tail;
        i += 1;
    }
    batches
}

fn sorted_labels(elm: &DynElm) -> BTreeMap<EdgeKey, EdgeLabel> {
    elm.labels().collect()
}

/// Full semantic state of a DynStrClu instance, for equality comparison.
/// Per-vertex state is sampled over a fixed id range (all tests stay below
/// it) so that mere vertex-space growth from net-cancelled updates does
/// not read as a state difference.
fn strclu_state(algo: &DynStrClu) -> (BTreeMap<EdgeKey, EdgeLabel>, Vec<(usize, bool)>, usize) {
    let aux: Vec<(usize, bool)> = (0..16u32)
        .map(|x| (algo.sim_count(v(x)), algo.is_core(v(x))))
        .collect();
    (sorted_labels(algo.elm()), aux, algo.num_sim_core_edges())
}

fn clustering_signature(algo: &DynStrClu) -> (usize, Vec<VertexRole>) {
    let result = algo.clustering();
    let roles = (0..algo.graph().num_vertices() as u32)
        .map(|x| result.role(v(x)))
        .collect();
    (result.num_clusters(), roles)
}

fn exact_params(mu: usize) -> Params {
    Params::jaccard(0.35, mu)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(0xe9_u64 + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact mode, ρ = 0: batched DynStrClu equals one-at-a-time DynStrClu
    /// in labels, SimCnt, core flags, sim-core edge count and clustering,
    /// for any partition of any stream.
    #[test]
    fn exact_mode_batched_equals_sequential(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..120),
        sizes in prop::collection::vec(1usize..40, 1..6),
        mu in 2usize..4,
    ) {
        let updates = to_updates(&ops);
        let mut sequential = DynStrClu::new(exact_params(mu));
        for &update in &updates {
            let _ = sequential.apply(update);
        }
        let mut batched = DynStrClu::new(exact_params(mu));
        for batch in partition(&updates, &sizes) {
            batched.apply_batch(&batch);
        }
        prop_assert_eq!(
            batched.graph().num_edges(),
            sequential.graph().num_edges(),
            "topology must agree"
        );
        prop_assert_eq!(strclu_state(&batched), strclu_state(&sequential));
        prop_assert_eq!(
            clustering_signature(&batched),
            clustering_signature(&sequential)
        );
    }

    /// The same equivalence at the DynELM layer (labels only), including
    /// the flip streams coalescing to the same net effect.
    #[test]
    fn exact_mode_elm_batched_equals_sequential(
        ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..100),
        batch_size in 1usize..50,
    ) {
        let updates = to_updates(&ops);
        let mut sequential = DynElm::new(exact_params(3));
        for &update in &updates {
            let _ = sequential.apply(update);
        }
        let mut batched = DynElm::new(exact_params(3));
        for batch in updates.chunks(batch_size.max(1)) {
            batched.apply_batch(batch);
        }
        prop_assert_eq!(sorted_labels(&batched), sorted_labels(&sequential));
    }

    /// The exact dynamic baselines are batch-invariant unconditionally.
    #[test]
    fn baselines_batched_equal_sequential(
        ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..90),
        batch_size in 1usize..40,
    ) {
        let updates = to_updates(&ops);

        let mut seq_exact = ExactDynScan::jaccard(0.4, 3);
        let mut seq_indexed = IndexedDynScan::jaccard(0.4, 3);
        for &update in &updates {
            let _ = seq_exact.try_apply(update);
            let _ = seq_indexed.try_apply(update);
        }
        let mut bat_exact = ExactDynScan::jaccard(0.4, 3);
        let mut bat_indexed = IndexedDynScan::jaccard(0.4, 3);
        for batch in updates.chunks(batch_size.max(1)) {
            Clusterer::apply_batch(&mut bat_exact, batch);
            Clusterer::apply_batch(&mut bat_indexed, batch);
        }

        let seq_result = seq_exact.current_clustering();
        let bat_result = bat_exact.current_clustering();
        for x in bat_exact.graph().vertices() {
            prop_assert_eq!(seq_result.role(x), bat_result.role(x));
        }
        // The indexed baseline answers on-the-fly queries identically too.
        for (eps, mu) in [(0.4, 3usize), (0.7, 2)] {
            let a = seq_indexed.cluster_with(eps, mu);
            let b = bat_indexed.cluster_with(eps, mu);
            for x in bat_indexed.graph().vertices() {
                prop_assert_eq!(a.role(x), b.role(x), "ε = {}, μ = {}", eps, mu);
            }
        }
    }

    /// Sampled mode: batching preserves topology, keeps every label
    /// ρ-approximately valid for the final graph, keeps the incremental
    /// aux/core state consistent with a from-scratch extraction, and is
    /// bit-reproducible.
    #[test]
    fn sampled_mode_batches_stay_valid_and_deterministic(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..100),
        batch_size in 2usize..40,
    ) {
        let updates = to_updates(&ops);
        let params = Params::jaccard(0.3, 3).with_rho(0.2).with_seed(4242);
        let run = || {
            let mut algo = DynStrClu::new(params);
            for batch in updates.chunks(batch_size) {
                algo.apply_batch(batch);
            }
            algo
        };
        let algo = run();

        // ρ-approximate validity against the final graph.
        let p = algo.params();
        for (key, label) in algo.elm().labels() {
            let sigma = exact_similarity(algo.graph(), key.lo(), key.hi(), p.measure);
            if sigma >= (1.0 + p.rho) * p.eps {
                prop_assert!(label.is_similar(), "edge {:?} σ = {}", key, sigma);
            }
            if sigma < (1.0 - p.rho) * p.eps {
                prop_assert!(!label.is_similar(), "edge {:?} σ = {}", key, sigma);
            }
        }

        // Incremental maintenance matches a from-scratch extraction of the
        // maintained labelling.
        let result = algo.clustering();
        for x in 0..algo.graph().num_vertices() as u32 {
            prop_assert_eq!(
                algo.is_core(v(x)),
                result.role(v(x)) == VertexRole::Core,
                "core flag mismatch at {}",
                x
            );
        }

        // Determinism: an identical batched run reproduces the exact state.
        let again = run();
        prop_assert_eq!(strclu_state(&algo), strclu_state(&again));
    }
}

/// A singleton batch through `apply_batch` is the same operation as the
/// single-update API (which routes through the engine).
#[test]
fn singleton_batches_equal_single_updates() {
    let params = Params::jaccard(0.3, 3).with_rho(0.15).with_seed(99);
    let updates = [
        GraphUpdate::Insert(v(0), v(1)),
        GraphUpdate::Insert(v(1), v(2)),
        GraphUpdate::Insert(v(0), v(2)),
        GraphUpdate::Insert(v(2), v(3)),
        GraphUpdate::Delete(v(0), v(1)),
        GraphUpdate::Insert(v(0), v(1)),
    ];
    let mut singles = DynStrClu::new(params);
    let mut singleton_batches = DynStrClu::new(params);
    for &update in &updates {
        let a = singles.apply(update).unwrap();
        let b = singleton_batches.apply_batch(&[update]);
        assert_eq!(a, b, "flip sets must agree for {update}");
    }
    assert_eq!(strclu_state(&singles), strclu_state(&singleton_batches));
}

/// In-batch churn — insert+delete of the same edge, delete+reinsert —
/// coalesces to the correct net flips.
#[test]
fn in_batch_churn_coalesces() {
    let params = exact_params(2);
    let mut algo = DynStrClu::new(params);
    // Build a triangle so edges are similar.
    algo.apply_batch(&[
        GraphUpdate::Insert(v(0), v(1)),
        GraphUpdate::Insert(v(1), v(2)),
        GraphUpdate::Insert(v(0), v(2)),
    ]);
    let before = strclu_state(&algo);

    // A batch that inserts and deletes a fresh edge, and delete+reinserts
    // an existing one: net topology change is nil, so no net flips.
    let flips = algo.apply_batch(&[
        GraphUpdate::Insert(v(2), v(3)),
        GraphUpdate::Delete(v(2), v(3)),
        GraphUpdate::Delete(v(0), v(1)),
        GraphUpdate::Insert(v(0), v(1)),
    ]);
    assert!(
        flips.is_empty(),
        "net-neutral batch reported flips: {flips:?}"
    );
    assert_eq!(strclu_state(&algo), before);

    // Invalid updates inside a batch are skipped, valid ones applied.
    let flips = algo.apply_batch(&[
        GraphUpdate::Insert(v(0), v(1)), // duplicate → skipped
        GraphUpdate::Delete(v(5), v(6)), // missing → skipped
        GraphUpdate::Insert(v(3), v(3)), // self-loop → skipped
    ]);
    assert!(flips.is_empty());
    assert_eq!(algo.graph().num_edges(), 3);
}
