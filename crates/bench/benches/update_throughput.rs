//! Criterion benchmarks behind Figures 7 and 8: per-update cost of the four
//! dynamic algorithms under the three insertion strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynscan_baseline::{ExactDynScan, IndexedDynScan};
use dynscan_core::{Clusterer, DynElm, DynStrClu, Params};
use dynscan_graph::GraphUpdate;
use dynscan_workload::{chung_lu_power_law, InsertionStrategy, UpdateStream, UpdateStreamConfig};
use std::time::Duration;

const N: usize = 800;
const M0: usize = 3_000;
const EXTRA: usize = 2_000;

fn stream(strategy: InsertionStrategy) -> Vec<GraphUpdate> {
    let edges = chung_lu_power_law(N, M0, 2.3, 7);
    let config = UpdateStreamConfig::new(N)
        .with_strategy(strategy)
        .with_eta(0.1)
        .with_seed(13);
    UpdateStream::new(&edges, config).take_updates(M0 + EXTRA)
}

fn params() -> Params {
    Params::jaccard(0.2, 5)
        .with_rho(0.01)
        .with_delta_star_for_n(N)
}

fn replay(algo: &mut dyn Clusterer, updates: &[GraphUpdate]) {
    for &u in updates {
        let _ = algo.try_apply(u);
    }
}

/// Figure 7 / Figure 8: whole-stream cost per algorithm and strategy.
fn bench_fig07_fig08(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_08_update_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for strategy in [
        InsertionStrategy::RandomRandom,
        InsertionStrategy::DegreeRandom,
        InsertionStrategy::DegreeDegree,
    ] {
        let updates = stream(strategy);
        group.bench_with_input(
            BenchmarkId::new("DynELM", strategy.short_name()),
            &updates,
            |b, updates| {
                b.iter(|| {
                    let mut algo = DynElm::new(params());
                    replay(&mut algo, updates);
                    algo.updates_applied()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("DynStrClu", strategy.short_name()),
            &updates,
            |b, updates| {
                b.iter(|| {
                    let mut algo = DynStrClu::new(params());
                    replay(&mut algo, updates);
                    algo.updates_applied()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pSCAN-like", strategy.short_name()),
            &updates,
            |b, updates| {
                b.iter(|| {
                    let mut algo = ExactDynScan::jaccard(0.2, 5);
                    replay(&mut algo, updates);
                    algo.updates_applied()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hSCAN-like", strategy.short_name()),
            &updates,
            |b, updates| {
                b.iter(|| {
                    let mut algo = IndexedDynScan::jaccard(0.2, 5);
                    replay(&mut algo, updates);
                    algo.updates_applied()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig07_fig08);
criterion_main!(benches);
