//! Integration test for the paper's Theorem 2.3 (the "sandwich" guarantee):
//! every cluster of the (1 + ρ)ε exact clustering is contained in some
//! cluster of the maintained ρ-approximate clustering, and every maintained
//! cluster is contained in some cluster of the (1 − ρ)ε exact clustering.
//!
//! The guarantee is probabilistic only where labels are sampled: on the
//! community and power-law cases every labelling takes the estimator's
//! exact shortcut, so the hub fixture (`hub_fixture`), whose hub–hub
//! labels are estimated from samples, carries the sampled case.

mod hub_fixture;

use dynscan_baseline::StaticScan;
use dynscan_core::{DynStrClu, Params, StrCluResult};
use dynscan_graph::{DynGraph, VertexId};
use dynscan_workload::{chung_lu_power_law, planted_partition, UpdateStream, UpdateStreamConfig};
use std::collections::HashSet;

fn cluster_sets(result: &StrCluResult) -> Vec<HashSet<VertexId>> {
    result
        .clusters()
        .iter()
        .map(|c| c.iter().copied().collect())
        .collect()
}

/// Every cluster of `inner` must be a subset of some cluster of `outer`.
fn assert_nested(inner: &StrCluResult, outer: &StrCluResult, context: &str) {
    let outer_sets = cluster_sets(outer);
    for cluster in cluster_sets(inner) {
        let contained = outer_sets.iter().any(|big| cluster.is_subset(big));
        assert!(
            contained,
            "{context}: cluster {:?} is not contained in any outer cluster",
            cluster.iter().map(|v| v.raw()).collect::<Vec<_>>()
        );
    }
}

fn check_sandwich(edges: &[(VertexId, VertexId)], n: usize, eps: f64, mu: usize, rho: f64) {
    let params = Params::jaccard(eps, mu)
        .with_rho(rho)
        .with_delta_star_for_n(n)
        .with_seed(77);
    let mut algo = DynStrClu::new(params);
    let config = UpdateStreamConfig::new(n).with_eta(0.15).with_seed(3);
    let mut stream = UpdateStream::new(edges, config);
    for update in stream.by_ref().take(edges.len() * 2) {
        algo.apply(update).ok();
    }
    assert_sandwich(&algo, "");
}

/// C((1+ρ)ε) ⊆ C(approx) ⊆ C((1−ρ)ε) for `algo`'s current state.
fn assert_sandwich(algo: &DynStrClu, when: &str) {
    let Params { eps, mu, rho, .. } = *algo.params();
    let approx = algo.clustering();
    // Static SCAN runs on an all-hot copy: under a small hot-tier budget
    // its membership probes would scan cold hub lists edge by edge.
    let mut graph = DynGraph::new();
    graph.set_memory_budget(None);
    for key in algo.graph().edges() {
        graph
            .insert_edge(key.lo(), key.hi())
            .expect("a simple graph");
    }
    let upper = StaticScan::jaccard((1.0 + rho) * eps, mu).cluster(&graph);
    let lower = StaticScan::jaccard((1.0 - rho) * eps, mu).cluster(&graph);

    // C((1+ρ)ε) ⊆ C(approx) ⊆ C((1−ρ)ε), cluster-wise.
    assert_nested(
        &upper,
        &approx,
        &format!("{when}upper clustering not contained in approximate clustering"),
    );
    assert_nested(
        &approx,
        &lower,
        &format!("{when}approximate clustering not contained in lower clustering"),
    );
}

#[test]
fn sandwich_holds_on_community_graph() {
    let n = 400;
    let edges = planted_partition(n, 8, 0.3, 0.01, 17);
    check_sandwich(&edges, n, 0.3, 4, 0.1);
}

#[test]
fn sandwich_holds_on_power_law_graph() {
    let n = 600;
    let edges = chung_lu_power_law(n, 2_400, 2.3, 29);
    check_sandwich(&edges, n, 0.2, 5, 0.2);
}

#[test]
fn sandwich_holds_with_small_rho() {
    let n = 300;
    let edges = planted_partition(n, 6, 0.35, 0.02, 5);
    check_sandwich(&edges, n, 0.25, 3, 0.01);
}

#[test]
fn sandwich_holds_on_sampled_labels() {
    let mut algo = DynStrClu::new(hub_fixture::params());
    algo.apply_batch(&hub_fixture::fixture_edges());
    assert!(algo.stats().samples_drawn > 0, "the preload samples");
    assert_sandwich(&algo, "after the preload: ");
    for (i, batch) in hub_fixture::churn_batches().iter().enumerate() {
        algo.apply_batch(batch);
        assert_sandwich(&algo, &format!("after churn batch {i}: "));
    }
}
