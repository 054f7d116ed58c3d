//! Integration test: after an arbitrary update sequence, the dynamically
//! maintained clustering (in exact-labelling mode) is identical to running
//! static SCAN from scratch on the final graph, and all four dynamic
//! algorithms agree with each other.

use dynscan_baseline::{ExactDynScan, IndexedDynScan, StaticScan};
use dynscan_core::{Clusterer, DynElm, DynStrClu, Params, StrCluResult};
use dynscan_graph::VertexId;
use dynscan_metrics::adjusted_rand_index;
use dynscan_workload::{chung_lu_power_law, InsertionStrategy, UpdateStream, UpdateStreamConfig};
use std::collections::BTreeSet;

fn canonical(result: &StrCluResult) -> BTreeSet<BTreeSet<u32>> {
    result
        .clusters()
        .iter()
        .map(|c| c.iter().map(|v| v.raw()).collect())
        .collect()
}

#[test]
fn exact_mode_dynamic_equals_static_scan() {
    let n = 500;
    let eps = 0.25;
    let mu = 4;
    let edges = chung_lu_power_law(n, 2_000, 2.3, 13);
    let config = UpdateStreamConfig::new(n)
        .with_strategy(InsertionStrategy::DegreeRandom)
        .with_eta(0.2)
        .with_seed(19);
    let updates = UpdateStream::new(&edges, config).take_updates(4_000);

    let params = Params::jaccard(eps, mu)
        .with_rho(0.05)
        .with_exact_labels()
        .with_delta_star_for_n(n);
    let mut elm = DynElm::new(params);
    let mut strclu = DynStrClu::new(params);
    let mut pscan = ExactDynScan::jaccard(eps, mu);
    let mut hscan = IndexedDynScan::jaccard(eps, mu);
    for &u in &updates {
        let _ = elm.try_apply(u);
        let _ = strclu.try_apply(u);
        let _ = pscan.try_apply(u);
        let _ = hscan.try_apply(u);
    }

    let reference = StaticScan::jaccard(eps, mu).cluster(strclu.graph());
    let reference_sets = canonical(&reference);

    // The exact baselines must match the static result exactly.
    assert_eq!(canonical(&pscan.current_clustering()), reference_sets);
    assert_eq!(canonical(&hscan.current_clustering()), reference_sets);

    // DynELM / DynStrClu in exact-labelling mode may keep labels that are
    // stale within the ρ-band (that is the whole point of the affordability
    // argument), so require near-identical clusterings: ARI ≥ 0.99 and the
    // same order of magnitude of clusters.
    for result in [elm.current_clustering(), strclu.current_clustering()] {
        let ari = adjusted_rand_index(&result, &reference);
        assert!(
            ari > 0.99,
            "dynamic clustering drifted too far from static SCAN: ARI = {ari}"
        );
    }

    // With ρ = 0 (no approximation slack at all) the match must be exact.
    let params_zero = Params::jaccard(eps, mu)
        .with_rho(0.0)
        .with_exact_labels()
        .with_delta_star_for_n(n);
    let mut exact_dyn = DynStrClu::new(params_zero);
    for &u in &updates {
        let _ = exact_dyn.try_apply(u);
    }
    assert_eq!(canonical(&exact_dyn.current_clustering()), reference_sets);
}

#[test]
fn sampled_mode_stays_close_to_static_scan() {
    let n = 400;
    let eps = 0.3;
    let mu = 4;
    let edges = chung_lu_power_law(n, 1_600, 2.3, 31);
    let updates = UpdateStream::new(
        &edges,
        UpdateStreamConfig::new(n).with_eta(0.1).with_seed(41),
    )
    .take_updates(3_200);

    let params = Params::jaccard(eps, mu)
        .with_rho(0.1)
        .with_delta_star_for_n(n)
        .with_seed(8);
    let mut algo = DynStrClu::new(params);
    for &u in &updates {
        let _ = algo.try_apply(u);
    }
    let reference = StaticScan::jaccard(eps, mu).cluster(algo.graph());
    let ari = adjusted_rand_index(&algo.clustering(), &reference);
    assert!(
        ari > 0.95,
        "approximate clustering quality too low: ARI = {ari}"
    );
}

#[test]
fn cosine_mode_agrees_between_dynamic_and_static() {
    let n = 300;
    let eps = 0.6;
    let mu = 4;
    let edges = chung_lu_power_law(n, 1_500, 2.2, 23);
    let updates = UpdateStream::new(&edges, UpdateStreamConfig::new(n).with_seed(2))
        .take_updates(edges.len() + 500);

    let params = Params::cosine(eps, mu)
        .with_rho(0.0)
        .with_exact_labels()
        .with_delta_star_for_n(n);
    let mut algo = DynStrClu::new(params);
    for &u in &updates {
        let _ = algo.try_apply(u);
    }
    let reference = StaticScan::cosine(eps, mu).cluster(algo.graph());
    assert_eq!(canonical(&algo.clustering()), canonical(&reference));
    // Roles agree vertex by vertex.
    let result = algo.clustering();
    for v in 0..n as u32 {
        assert_eq!(result.role(VertexId(v)), reference.role(VertexId(v)));
    }
}
