//! Integration test of the full experiment pipeline: dataset registry →
//! update stream → algorithms → metrics → harness runners, at smoke-test
//! scale.  This is the machinery every table and figure of the paper is
//! regenerated with, so it must hold together end to end.

use dynscan_baseline::{ExactDynScan, StaticScan};
use dynscan_bench::{run_updates, Scale};
use dynscan_core::{Clusterer, DynElm, DynStrClu, Params};
use dynscan_metrics::{adjusted_rand_index, mislabelled_rate, top_k_quality, PeakTracker};
use dynscan_sim::SimilarityMeasure;
use dynscan_workload::{
    dataset_by_name, scaled, InsertionStrategy, UpdateStream, UpdateStreamConfig,
};
use std::time::Duration;

#[test]
fn dataset_to_metrics_pipeline_runs() {
    // A heavily scaled-down representative dataset.
    let spec = scaled(
        dataset_by_name("Slashdot").expect("registry has Slashdot"),
        8,
    );
    let edges = spec.original_edges();
    assert!(!edges.is_empty());

    let config = UpdateStreamConfig::new(spec.num_vertices)
        .with_strategy(InsertionStrategy::DegreeRandom)
        .with_eta(0.1)
        .with_seed(spec.seed);
    let updates = UpdateStream::new(&edges, config).take_updates(edges.len() * 2);

    // Run DynELM (approximate) and the exact baseline over the same stream.
    let params = Params::jaccard(spec.eps_jaccard, 5)
        .with_rho(0.1)
        .with_delta_star_for_n(spec.num_vertices);
    let mut approx = DynElm::new(params);
    let mut exact = ExactDynScan::jaccard(spec.eps_jaccard, 5);
    let mut peak = PeakTracker::new();
    for &u in &updates {
        let _ = approx.try_apply(u);
        let _ = exact.try_apply(u);
        peak.record(approx.memory_bytes());
    }
    assert_eq!(approx.updates_applied(), exact.updates_applied());
    assert!(peak.peak() > 0);

    // Quality metrics against the exact ground truth.
    let ground_truth = StaticScan::jaccard(spec.eps_jaccard, 5).cluster(approx.graph());
    let approx_result = approx.clustering();
    let mis = mislabelled_rate(
        approx.graph(),
        spec.eps_jaccard,
        SimilarityMeasure::Jaccard,
        |k| approx.label(k).is_some_and(|l| l.is_similar()),
    );
    assert!(
        mis < 0.10,
        "ρ = 0.1 should mis-label well under 10% of the edges, got {mis}"
    );
    let ari = adjusted_rand_index(&approx_result, &ground_truth);
    assert!(ari > 0.9, "ARI {ari} too low for ρ = 0.1");
    let quality = top_k_quality(&approx_result, &ground_truth, 20);
    assert!(
        quality.avg > 0.8,
        "top-20 average quality {:.3} too low",
        quality.avg
    );
}

#[test]
fn harness_runner_produces_consistent_outcomes() {
    let spec = scaled(dataset_by_name("Notre").expect("registry has Notre"), 8);
    let edges = spec.original_edges();
    let config = UpdateStreamConfig::new(spec.num_vertices).with_seed(1);
    let updates = UpdateStream::new(&edges, config).take_updates(edges.len());

    let params = Params::jaccard(0.2, 5)
        .with_rho(0.05)
        .with_delta_star_for_n(spec.num_vertices);
    let mut fast = DynStrClu::new(params);
    let outcome = run_updates(&mut fast, &updates, 4, Duration::from_secs(30));
    assert_eq!(outcome.updates_applied, updates.len());
    assert!(!outcome.truncated);
    assert!(outcome.avg_update_micros > 0.0);
    // Chunked checkpointing records one entry per chunk (the rounding of the
    // chunk size can add one extra, shorter, final chunk).
    assert!(outcome.series.len() == 4 || outcome.series.len() == 5);
    // The running averages are positive and the last one matches the total.
    let (last_count, last_avg) = *outcome.series.last().unwrap();
    assert_eq!(last_count, updates.len());
    assert!((last_avg - outcome.avg_update_micros).abs() < 1e-6);

    // The quick experiment scale is consistent with itself.
    let scale = Scale::quick();
    assert!(scale.extra_updates(1000) > 0);
}
