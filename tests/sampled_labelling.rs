//! End-to-end tests of the sampled labelling path, on the hub fixture
//! (`hub_fixture`), whose degrees exceed the sample size, so the
//! estimator really draws.
//!
//! The tests pin three things:
//!
//! * **Global numbering.**  The paper numbers labellings over the whole
//!   run: the i-th uses δᵢ = δ*/(i(i+1)).  Inside a batch, the job at
//!   1-based rank r of the sorted edge list is labelling number
//!   (labellings before the batch) + r, so the preload's sample count is
//!   a sum over the hub–hub edges' ranks.
//! * **Thread-count independence.**  Churn on the hubs' private leaves
//!   matures the hub–hub distributed-tracking instances (τ = 203), which
//!   then resample; flips per batch and the final checkpoint bytes are
//!   identical at 1, 2, 4 and 8 threads.
//! * **Bit-identical resume.**  A run restored mid-churn from a full +
//!   delta chain continues flip for flip and byte for byte like the run
//!   that never stopped.

mod hub_fixture;

use dynscan_core::{
    restore_any_chain, Clusterer, DynStrClu, EdgeKey, ElmStats, FlippedEdge, GraphUpdate, Params,
    SimilarityMeasure, VertexId,
};
use dynscan_sim::sample_size;
use hub_fixture::{churn_batches, fixture_edges, params, HUBS};

fn sample_size_at(p: &Params, invocation: u64) -> u64 {
    let i = invocation as f64;
    sample_size(
        SimilarityMeasure::Jaccard,
        p.eps,
        0.5 * p.rho * p.eps,
        p.delta_star / (i * (i + 1.0)),
    ) as u64
}

fn stats(algo: &dyn Clusterer) -> ElmStats {
    algo.elm_stats()
        .expect("DynStrClu keeps labelling counters")
}

/// A fresh DynStrClu on `threads` workers, preloaded with the fixture in
/// one batch.
fn preloaded(threads: usize) -> DynStrClu {
    let mut algo = DynStrClu::new(params());
    algo.set_threads(threads);
    algo.apply_batch(&fixture_edges());
    algo
}

#[test]
fn fixture_samples_hub_edges_and_shortcuts_leaf_edges() {
    let p = params();
    let edges = fixture_edges().len() as u64;
    assert_eq!(edges, 7_164);
    assert_eq!(sample_size_at(&p, 1), 83);
    assert_eq!(sample_size_at(&p, edges), 757);
    // L stays below the hub closed degree (900) well past this suite's
    // labelling counts, and above every leaf's closed degree (≤ 9).
    assert!(sample_size_at(&p, 43_000) < 900);
    assert!(sample_size_at(&p, 44_000) >= 900);
    let algo = preloaded(1);
    assert_eq!(algo.graph().degree(VertexId(0)) + 1, 900);
    let s = stats(&algo);
    assert_eq!(s.labellings, edges);
    assert!(s.samples_drawn > 0);
}

#[test]
fn preload_numbers_labellings_globally_by_rank() {
    let p = params();
    let mut keys: Vec<EdgeKey> = fixture_edges()
        .iter()
        .map(|u| {
            let (a, b) = u.endpoints();
            EdgeKey::new(a, b)
        })
        .collect();
    keys.sort_unstable();
    let expected: u64 = keys
        .iter()
        .zip(1u64..)
        .filter(|(key, _)| key.hi().raw() < HUBS)
        .map(|(_, rank)| sample_size_at(&p, rank))
        .sum();
    assert_eq!(expected, 14_936);
    let algo = preloaded(1);
    assert_eq!(stats(&algo).samples_drawn, expected);
}

/// Run the churn on `algo`, returning every batch's flip set.
fn churn(algo: &mut dyn Clusterer, batches: &[Vec<GraphUpdate>]) -> Vec<Vec<FlippedEdge>> {
    batches
        .iter()
        .map(|batch| algo.apply_batch(batch))
        .collect()
}

#[test]
fn churn_resamples_identically_at_every_thread_count() {
    let batches = churn_batches();
    let mut reference: Option<(Vec<Vec<FlippedEdge>>, Vec<u8>)> = None;
    for threads in [1, 2, 4, 8] {
        let mut algo = preloaded(threads);
        let preload = stats(&algo);
        let flips = churn(&mut algo, &batches);
        let after = stats(&algo);
        assert!(after.samples_drawn > 0);
        assert!(
            after.samples_drawn > preload.samples_drawn,
            "{threads} threads: matured hub–hub instances must resample"
        );
        assert!(after.dt_maturities > 0);
        assert!(flips.iter().any(|f| !f.is_empty()));
        let bytes = algo.checkpoint_bytes();
        match &reference {
            None => reference = Some((flips, bytes)),
            Some((ref_flips, ref_bytes)) => {
                assert_eq!(&flips, ref_flips, "{threads} threads: flips per batch");
                assert!(&bytes == ref_bytes, "{threads} threads: checkpoint bytes");
            }
        }
    }
}

#[test]
fn restored_chain_resumes_sampled_churn_bit_identically() {
    let batches = churn_batches();
    let mut uninterrupted = preloaded(1);
    let expected = churn(&mut uninterrupted, &batches);
    let expected_bytes = uninterrupted.checkpoint_bytes();

    let mut live = preloaded(1);
    let mut docs = vec![live.capture_checkpoint(false, 0).to_bytes()];
    let cut = batches.len() / 2;
    let mut flips = Vec::new();
    for (i, batch) in batches[..cut].iter().enumerate() {
        flips.push(live.apply_batch(batch));
        if i % 5 == 4 {
            docs.push(live.capture_checkpoint(true, 0).to_bytes());
        }
    }
    docs.push(live.capture_checkpoint(true, 0).to_bytes());
    assert!(docs.len() > 2, "a full document and several deltas");
    let mut restored = restore_any_chain(&docs).expect("the chain restores");
    assert!(restored.checkpoint_bytes() == live.checkpoint_bytes());
    flips.extend(churn(restored.as_mut(), &batches[cut..]));
    assert!(stats(restored.as_ref()).samples_drawn > 0);
    assert_eq!(flips, expected, "flip for flip");
    assert!(
        restored.checkpoint_bytes() == expected_bytes,
        "byte for byte"
    );
}
